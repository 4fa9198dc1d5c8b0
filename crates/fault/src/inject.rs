//! Stateless seeded fault decisions.
//!
//! Every injection decision is a *pure hash* of
//! `(seed, fault kind, site, epoch)` and a counter — there is no generator
//! state to share, lock, or split. That is what makes the plane
//! deterministic under parallelism: the same access produces the same fault
//! no matter which thread evaluates it, how work is chunked, or in which
//! order sites are visited.
//!
//! Decisions are made a word at a time, and a word pays per fault, not per
//! bit. A [`WordDraw`] hashes `(seed, kind, site, epoch)` into a prefix
//! once; the gaps between its faulty bits are then geometric. Gap `k` is
//! `⌊ln U / ln(1 − p)⌋`, with `U` the uniform on `(0, 1]` made from the
//! hash of the prefix and `k`, and `ln(1 − p)` computed once per kind when
//! the [`FaultInjector`] is built. Since `P(gap ≥ g) = (1 − p)^g`, each bit
//! still fires independently with probability `p`, and a word costs one
//! hash per hit plus one. The gap is read from a per-kind
//! [`GeometricFloor`] threshold table, which returns that expression bit
//! for bit, so a clean word costs one hash and one integer compare.

use mss_units::rng::{GeometricFloor, Rng, SplitMix64};

use crate::plan::FaultPlan;

/// Domain-separation constants: each fault kind hashes into its own stream
/// so e.g. a write-failure decision never correlates with a read-disturb
/// decision at the same `(site, epoch, bit)`.
const KIND_WRITE_FAIL: u64 = 0x57_52_49_54; // "WRIT"
const KIND_READ_DISTURB: u64 = 0x52_45_41_44; // "READ"
const KIND_TRANSIENT: u64 = 0x54_52_4E_53; // "TRNS"
const KIND_STUCK_AT: u64 = 0x53_54_55_4B; // "STUK"

/// One SplitMix64 finalizer step: a high-quality 64-bit mixer.
#[inline(always)]
fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// Gap caps the per-kind tables reach: every word up to 1 024 bits, so
/// BCH(2, 512)'s 532. A longer remainder takes the libm expression.
const GAP_TABLE_CAP: u32 = 1024;

/// One fault kind's hits over the bits of one word.
///
/// Holds the hash prefix `mix(mix(mix(seed ^ kind) ^ site) ^ epoch)` and
/// the kind's gap sampler. The hits are one walk: gap `k` hashes
/// `mix(prefix ^ k)`, takes `U = (h >> 11) + 1` on the 53-bit grid of
/// `(0, 1]`, and skips `⌊ln U / ln(1 − p)⌋` clean bits before the next
/// hit. Every query reads that walk, so [`Self::hits`]`(n)` is a prefix
/// of `hits(m)` for `n < m` and [`Self::fires`]`(b)` holds iff
/// `b ∈ hits(b + 1)`.
#[derive(Debug, Clone, Copy)]
pub struct WordDraw<'a> {
    prefix: u64,
    /// `None` at `p = 0`: the walk yields nothing without hashing.
    gaps: Option<&'a GeometricFloor>,
}

impl<'a> WordDraw<'a> {
    #[inline]
    fn new(kind: &'a KindKey, site: u64, epoch: u64) -> Self {
        Self {
            prefix: mix(mix(kind.key ^ site) ^ epoch),
            gaps: kind.gaps.as_ref(),
        }
    }

    /// The walk over the hits in `0..end`.
    #[inline]
    fn walk(self, end: u64) -> Walk<'a> {
        Walk {
            draw: self,
            gap: 0,
            next: 0,
            end,
        }
    }

    /// The bits in `0..bits` where the draw fires, in ascending order.
    #[inline]
    pub fn hits(self, bits: u32) -> impl Iterator<Item = u32> + 'a {
        self.walk(bits.into()).map(|(bit, _)| bit)
    }

    /// Does the draw fire at `bit`? Walks the hits below it, so a caller
    /// that asks about many bits of one word reads [`Self::hits`] instead.
    pub fn fires(self, bit: u32) -> bool {
        self.walk(u64::from(bit) + 1)
            .last()
            .is_some_and(|(hit, _)| hit == bit)
    }

    /// For a stuck-at draw ([`FaultInjector::stuck_word`]): the stuck
    /// cells in `0..bits`, in ascending order, each with the value it is
    /// frozen at. The value is the low bit of a further hash of the gap's
    /// hash, so it does not correlate with which cells are stuck.
    #[inline]
    pub fn stuck_hits(self, bits: u32) -> impl Iterator<Item = (u32, bool)> + 'a {
        self.walk(bits.into())
            .map(|(bit, h)| (bit, mix(h) & 1 == 1))
    }
}

/// The gap walk of a [`WordDraw`]: yields each hit below `end` with the
/// hash that placed it.
struct Walk<'a> {
    draw: WordDraw<'a>,
    /// The counter of the next gap hash.
    gap: u64,
    /// The first bit not yet decided.
    next: u64,
    end: u64,
}

impl Iterator for Walk<'_> {
    type Item = (u32, u64);

    #[inline]
    fn next(&mut self) -> Option<(u32, u64)> {
        let gaps = self.draw.gaps?;
        if self.next >= self.end {
            return None;
        }
        let h = mix(self.draw.prefix ^ self.gap);
        self.gap += 1;
        // `min(⌊ln U / ln(1 − p)⌋, left)`: the gap is `left` when the
        // quotient reaches it (+∞ when `p` is too small for any `U < 1`
        // to hit), and the word has no further hit.
        let left = self.end - self.next;
        let gap = gaps.sample((h >> 11) + 1, left);
        if gap == left {
            self.next = self.end;
            return None;
        }
        let bit = self.next + gap;
        self.next = bit + 1;
        // `bit < end ≤ 2³²`.
        Some((bit as u32, h))
    }
}

/// A fault kind's per-injector constants: the first hash link
/// `mix(seed ^ kind)` and the gap sampler for `ln(1 − p)` (−∞ at
/// `p = 1`), built only when `p > 0`.
#[derive(Debug, Clone, PartialEq)]
struct KindKey {
    key: u64,
    gaps: Option<GeometricFloor>,
}

impl KindKey {
    fn new(seed: u64, kind: u64, p: f64) -> Self {
        let ln_q = (-p).ln_1p();
        Self {
            key: mix(seed ^ kind),
            gaps: (ln_q != 0.0).then(|| GeometricFloor::new(ln_q, GAP_TABLE_CAP)),
        }
    }
}

/// The stateless fault oracle derived from a [`FaultPlan`].
///
/// All queries are `&self` and reproducible: a fixed plan answers every
/// question identically forever. The per-word draws ([`Self::write_word`],
/// [`Self::read_disturb_word`], [`Self::transient_word`],
/// [`Self::stuck_word`]) are the decision path: each hashes its coordinate
/// prefix once, then one hash per hit. [`Self::write_fails`] is a one-line
/// convenience over them.
/// Sites are caller-defined identifiers (an array base address, a bank
/// index, a block index in a campaign); epochs distinguish repeated touches
/// of the same bit (a write attempt counter, an access sequence number).
///
/// # Examples
///
/// ```
/// use mss_fault::{FaultInjector, FaultModel, FaultPlan};
///
/// let mut model = FaultModel::none();
/// model.write_fail_rate = 0.5;
/// let inj = FaultInjector::new(FaultPlan::new(7, model).unwrap_or_default());
/// // Pure function of the coordinate: always the same answer.
/// assert_eq!(
///     inj.write_fails(3, 0, 12),
///     inj.write_fails(3, 0, 12),
/// );
/// // A word's draw decides every bit the same way.
/// let word = inj.write_word(3, 0);
/// assert_eq!(word.fires(12), inj.write_fails(3, 0, 12));
/// assert_eq!(word.hits(13).last() == Some(12), word.fires(12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
    write_fail: KindKey,
    read_disturb: KindKey,
    transient: KindKey,
    stuck: KindKey,
}

impl FaultInjector {
    /// Wraps a plan, deriving each fault kind's hash key and gap table
    /// once. A [`FaultPlan::disabled`] plan yields an injector that never
    /// injects.
    pub fn new(plan: FaultPlan) -> Self {
        let m = &plan.model;
        let seed = plan.seed;
        Self {
            write_fail: KindKey::new(seed, KIND_WRITE_FAIL, m.write_fail_rate),
            read_disturb: KindKey::new(seed, KIND_READ_DISTURB, m.read_disturb_rate),
            transient: KindKey::new(seed, KIND_TRANSIENT, m.transient_flip_rate),
            stuck: KindKey::new(seed, KIND_STUCK_AT, m.stuck_at_rate),
            plan,
        }
    }

    /// True when any fault can ever be injected.
    #[cfg(test)]
    pub(crate) fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Write failures of the word at `site` on attempt `epoch`.
    ///
    /// Distinct epochs are independent draws, so a bounded retry loop sees
    /// fresh (but reproducible) outcomes on each attempt.
    #[inline]
    pub fn write_word(&self, site: u64, epoch: u64) -> WordDraw<'_> {
        WordDraw::new(&self.write_fail, site, epoch)
    }

    /// Read disturbs (flips of the stored state) of the word at `site`
    /// during access `epoch`.
    #[inline]
    pub fn read_disturb_word(&self, site: u64, epoch: u64) -> WordDraw<'_> {
        WordDraw::new(&self.read_disturb, site, epoch)
    }

    /// Transient flips (retention loss / soft upset since the previous
    /// touch) of the word at `site` in access epoch `epoch`.
    #[inline]
    pub fn transient_word(&self, site: u64, epoch: u64) -> WordDraw<'_> {
        WordDraw::new(&self.transient, site, epoch)
    }

    /// Fabrication-time stuck-at defects of the word at `site`; read them
    /// with [`WordDraw::stuck_hits`]. Stuck-at state is a property of the
    /// cell, not of an access: it has no epoch.
    #[inline]
    pub fn stuck_word(&self, site: u64) -> WordDraw<'_> {
        WordDraw::new(&self.stuck, site, 0)
    }

    /// Does the write of `bit` at `site` fail on attempt `epoch`?
    pub fn write_fails(&self, site: u64, epoch: u64, bit: u32) -> bool {
        self.write_word(site, epoch).fires(bit)
    }

    /// Does reading `bit` at `site` during access `epoch` disturb (flip) the
    /// stored state?
    #[cfg(test)]
    pub(crate) fn read_disturbs(&self, site: u64, epoch: u64, bit: u32) -> bool {
        self.read_disturb_word(site, epoch).fires(bit)
    }

    /// Does `bit` at `site` suffer a transient flip in access epoch `epoch`?
    #[cfg(test)]
    pub(crate) fn transient_flips(&self, site: u64, epoch: u64, bit: u32) -> bool {
        self.transient_word(site, epoch).fires(bit)
    }

    /// Is the cell for `bit` at `site` a stuck-at defect, and if so, which
    /// value is it stuck at?
    #[cfg(test)]
    pub(crate) fn stuck_at(&self, site: u64, bit: u32) -> Option<bool> {
        self.stuck_word(site)
            .stuck_hits(bit + 1)
            .last()
            .filter(|&(hit, _)| hit == bit)
            .map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultModel;

    fn injector_with_seed(seed: u64, f: impl FnOnce(&mut FaultModel)) -> FaultInjector {
        let mut m = FaultModel::none();
        f(&mut m);
        FaultInjector::new(FaultPlan::new(seed, m).expect("valid model"))
    }

    fn injector(f: impl FnOnce(&mut FaultModel)) -> FaultInjector {
        injector_with_seed(0xDEAD_BEEF, f)
    }

    /// Which of bits `0..bits` the draw fires at, read from one hit list.
    fn fired(draw: WordDraw, bits: u32) -> Vec<bool> {
        let mut out = vec![false; bits as usize];
        for b in draw.hits(bits) {
            out[b as usize] = true;
        }
        out
    }

    /// Every rate edge the gap walk must handle: zero, the smallest
    /// positive f64, one grid step, ordinary rates, one step below one,
    /// and one.
    fn edge_rates() -> [f64; 7] {
        let two53 = (1u64 << 53) as f64;
        [
            0.0,
            f64::from_bits(1),
            1.0 / two53,
            1e-3,
            0.5,
            1.0 - 1.0 / two53,
            1.0,
        ]
    }

    #[test]
    fn hits_are_prefix_consistent_and_fires_reads_the_same_walk() {
        for seed in [0u64, 0xDEAD_BEEF, u64::MAX] {
            for p in edge_rates() {
                let inj = injector_with_seed(seed, |m| {
                    m.write_fail_rate = p;
                    m.read_disturb_rate = p;
                    m.transient_flip_rate = p;
                    m.stuck_at_rate = p;
                });
                for site in [0u64, 7, 0x1_0000_0040, u64::MAX] {
                    for epoch in [0u64, 1, u64::MAX] {
                        let words = [
                            inj.write_word(site, epoch),
                            inj.read_disturb_word(site, epoch),
                            inj.transient_word(site, epoch),
                            inj.stuck_word(site),
                        ];
                        for word in words {
                            let all: Vec<u32> = word.hits(600).collect();
                            assert!(all.windows(2).all(|w| w[0] < w[1]));
                            for n in [0u32, 1, 63, 64, 65, 531, 532] {
                                let prefix: Vec<u32> = word.hits(n).collect();
                                let expect: Vec<u32> =
                                    all.iter().copied().filter(|&b| b < n).collect();
                                assert_eq!(prefix, expect, "seed={seed} p={p:e} site={site} n={n}");
                            }
                            for b in (0..600).step_by(7) {
                                let in_prefix = word.hits(b + 1).any(|h| h == b);
                                assert_eq!(word.fires(b), in_prefix, "p={p:e} bit={b}");
                                assert_eq!(word.fires(b), all.contains(&b));
                            }
                            if p == 0.0 {
                                assert!(all.is_empty());
                            }
                            if p == 1.0 {
                                assert_eq!(all, (0..600).collect::<Vec<u32>>());
                            }
                        }
                        for b in (0..600).step_by(11) {
                            assert_eq!(
                                inj.write_fails(site, epoch, b),
                                inj.write_word(site, epoch).fires(b)
                            );
                        }
                    }
                    let stuck = inj.stuck_word(site);
                    let cells: Vec<u32> = stuck.stuck_hits(600).map(|(b, _)| b).collect();
                    assert_eq!(cells, stuck.hits(600).collect::<Vec<u32>>());
                    for (b, value) in stuck.stuck_hits(600) {
                        assert_eq!(inj.stuck_at(site, b), Some(value));
                    }
                }
            }
        }
    }

    #[test]
    fn stuck_polarity_is_fair_and_independent_of_which_cells_are_stuck() {
        // Split the stuck cells by whether the cell before them is stuck
        // too (a zero gap): the frozen value must be a fair coin in both
        // groups. 3σ bands on each group's count of cells stuck at 1.
        let inj = injector(|m| m.stuck_at_rate = 0.3);
        let (mut cells, mut ones) = ([0u64; 2], [0u64; 2]);
        for site in 0..400 {
            let mut prev = None;
            for (b, value) in inj.stuck_word(site).stuck_hits(532) {
                let after_stuck = usize::from(b > 0 && prev == Some(b - 1));
                cells[after_stuck] += 1;
                ones[after_stuck] += u64::from(value);
                prev = Some(b);
            }
        }
        for (n, k) in cells.into_iter().zip(ones) {
            let sigma = (n as f64 * 0.25).sqrt();
            let z = (k as f64 - 0.5 * n as f64) / sigma;
            assert!(z.abs() <= 3.0, "{k} of {n} stuck at 1 (z = {z:+.2})");
        }
    }

    #[test]
    fn disabled_injector_never_injects() {
        let inj = FaultInjector::new(FaultPlan::disabled());
        assert!(!inj.is_active());
        for site in 0..16 {
            for bit in 0..64 {
                assert!(!inj.write_fails(site, 0, bit));
                assert!(!inj.read_disturbs(site, 0, bit));
                assert!(!inj.transient_flips(site, 0, bit));
                assert!(inj.stuck_at(site, bit).is_none());
            }
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_the_coordinate() {
        let inj = injector(|m| {
            m.write_fail_rate = 0.3;
            m.read_disturb_rate = 0.3;
            m.transient_flip_rate = 0.3;
            m.stuck_at_rate = 0.3;
        });
        for site in 0..8 {
            for epoch in 0..4 {
                for bit in 0..32 {
                    assert_eq!(
                        inj.write_fails(site, epoch, bit),
                        inj.write_fails(site, epoch, bit)
                    );
                    assert_eq!(
                        inj.read_disturbs(site, epoch, bit),
                        inj.read_disturbs(site, epoch, bit)
                    );
                    assert_eq!(inj.stuck_at(site, bit), inj.stuck_at(site, bit));
                }
            }
        }
    }

    #[test]
    fn kinds_are_domain_separated() {
        // With all rates at 0.5, the four decision kinds at the same
        // coordinate must not be perfectly correlated.
        let inj = injector(|m| {
            m.write_fail_rate = 0.5;
            m.read_disturb_rate = 0.5;
            m.transient_flip_rate = 0.5;
            m.stuck_at_rate = 0.5;
        });
        let w = fired(inj.write_word(0, 0), 256);
        let r = fired(inj.read_disturb_word(0, 0), 256);
        let t = fired(inj.transient_word(0, 0), 256);
        let s = fired(inj.stuck_word(0), 256);
        assert!(w != r && r != t && t != s, "fault kinds are correlated");
    }

    #[test]
    fn epochs_give_independent_retry_outcomes() {
        // A bit that fails at epoch 0 must eventually succeed at some later
        // epoch when the rate is 0.5 — retries see fresh draws.
        let inj = injector(|m| m.write_fail_rate = 0.5);
        let bit = inj
            .write_word(1, 0)
            .hits(256)
            .next()
            .expect("some bit fails at rate 0.5");
        assert!(
            (1..32).any(|epoch| !inj.write_fails(1, epoch, bit)),
            "bit never recovers across 31 retries at rate 0.5"
        );
    }

    #[test]
    fn empirical_rate_tracks_requested_rate() {
        let inj = injector(|m| m.write_fail_rate = 0.2);
        let n = 100_000u32;
        let hits = inj.write_word(0, 0).hits(n).count();
        let ratio = hits as f64 / f64::from(n);
        // 3σ binomial band around 0.2 for n = 1e5 is ±0.0038.
        assert!((ratio - 0.2).abs() < 0.004, "ratio {ratio}");
    }

    #[test]
    fn seeds_decorrelate() {
        let m = {
            let mut m = FaultModel::none();
            m.write_fail_rate = 0.5;
            m
        };
        let a = FaultInjector::new(FaultPlan::new(1, m).expect("valid"));
        let b = FaultInjector::new(FaultPlan::new(2, m).expect("valid"));
        let (a, b) = (
            fired(a.write_word(0, 0), 512),
            fired(b.write_word(0, 0), 512),
        );
        let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        // Independent coins agree ~50% of the time; 512 draws at 3σ is ±68.
        assert!((188..=324).contains(&agree), "agreement {agree}/512");
    }

    #[test]
    fn stuck_values_take_both_polarities() {
        let inj = injector(|m| m.stuck_at_rate = 0.5);
        let mut saw = [false, false];
        for (_, v) in inj.stuck_word(7).stuck_hits(512) {
            saw[v as usize] = true;
        }
        assert!(saw[0] && saw[1], "stuck-at values are single-polarity");
    }

    #[test]
    fn extreme_rates_shortcut() {
        let never = injector(|m| m.write_fail_rate = 0.0);
        assert!(!never.write_fails(0, 0, 0));
        let always = injector(|m| m.write_fail_rate = 1.0);
        assert!(always.write_fails(0, 0, 0));
    }
}
