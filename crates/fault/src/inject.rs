//! Stateless seeded fault decisions.
//!
//! Every injection decision is a *pure hash* of
//! `(seed, fault kind, site, epoch, bit)` — there is no generator state to
//! share, lock, or split. That is what makes the plane deterministic under
//! parallelism: the same access produces the same fault no matter which
//! thread evaluates it, how work is chunked, or in which order sites are
//! visited.
//!
//! Decisions are made a word at a time. The hash is a chain of SplitMix64
//! finalizers, and only its last link depends on the bit, so a [`WordDraw`]
//! hashes `(seed, kind, site, epoch)` once and each bit costs one finalizer
//! and an integer compare against the rate's [`coin_threshold`].
//! [`WordDraw::mask`] makes those decisions 64 bits at a time with an
//! AVX-512 or AVX2 kernel picked at run time ([`mask_kernel`]); CPUs with
//! neither decide bit by bit. Every kernel decides every bit alike.

use mss_units::rng::{coin_threshold, Rng, SplitMix64};
use mss_units::simd::{Isa, Kernel};

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

/// The name of the mask kernel this host runs: `"avx512"`, `"avx2"` or
/// `"portable"` (the per-bit loop), as [`Kernel::detect`] picks it. Every
/// variant decides every bit alike.
pub fn mask_kernel() -> &'static str {
    Kernel::detect().name()
}

/// The branch-free block body: hash bits `base..base + 64`, then set bit
/// `i` of the mask iff `mix(prefix ^ (base + i)) >> 11 < threshold`.
///
/// The compare shifts the hash, never the threshold: `threshold << 11`
/// wraps to 0 at `threshold = 2⁵³` (p = 1).
#[inline(always)]
fn block_body(prefix: u64, threshold: u64, base: u64) -> u64 {
    let mut h = [0u64; 64];
    for (i, h) in h.iter_mut().enumerate() {
        *h = mix(prefix ^ base.wrapping_add(i as u64));
    }
    let mut mask = 0u64;
    for (i, &h) in h.iter().enumerate() {
        mask |= u64::from((h >> 11) < threshold) << i;
    }
    mask
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
fn block_avx512(prefix: u64, threshold: u64, base: u64) -> u64 {
    block_body(prefix, threshold, base)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_avx2(prefix: u64, threshold: u64, base: u64) -> u64 {
    block_body(prefix, threshold, base)
}

/// Bits `0..n` set, for `n ≤ 64`.
#[inline]
fn low_bits(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

/// One fault kind's Bernoulli draws over the bits of one word.
///
/// Holds the hash prefix `mix(mix(mix(seed ^ kind) ^ site) ^ epoch)` and the
/// integer threshold `⌈p·2⁵³⌉`; bit `b` fires iff
/// `mix(prefix ^ b) >> 11 < threshold`, which is exactly the uniform test
/// `u < p` on the 53-bit dyadic grid of [`Rng::next_f64`]. `Self::mask`
/// decides 64 bits per call with the same test.
#[derive(Debug, Clone, Copy)]
pub struct WordDraw {
    prefix: u64,
    threshold: u64,
}

impl WordDraw {
    #[inline]
    fn new(kind: KindKey, site: u64, epoch: u64) -> Self {
        Self {
            prefix: mix(mix(kind.key ^ site) ^ epoch),
            threshold: kind.threshold,
        }
    }

    /// The full decision hash of `bit`, if the rate is not zero.
    #[inline]
    fn hash(&self, bit: u64) -> Option<u64> {
        (self.threshold != 0).then(|| mix(self.prefix ^ bit))
    }

    /// Does the draw fire at `bit`?
    #[inline]
    pub fn fires(&self, bit: u64) -> bool {
        self.hash(bit).is_some_and(|h| (h >> 11) < self.threshold)
    }

    /// The hit mask of bits `base..base + 64`: bit `i` is set iff the draw
    /// fires at `base + i`. A zero-rate draw returns 0 without hashing.
    #[cfg(test)]
    #[inline]
    pub(crate) fn mask(&self, base: u64) -> u64 {
        self.mask_first(base, 64)
    }

    /// The hit mask of bits `base..base + n`, `n ≤ 64`; bits `n..` are
    /// clear.
    #[inline]
    pub(crate) fn mask_first(&self, base: u64, n: u32) -> u64 {
        self.block(Kernel::detect(), base, n)
    }

    /// [`Self::mask_first`] on a given kernel.
    #[inline]
    fn block(&self, kernel: Kernel, base: u64, n: u32) -> u64 {
        if self.threshold == 0 {
            return 0;
        }
        let full = match kernel.isa() {
            // SAFETY: a `Kernel` names `Isa::Avx512` only when
            // `mss_units::simd` detected avx512f, avx512dq, avx512vl and
            // avx512bw, the features `block_avx512` enables.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { block_avx512(self.prefix, self.threshold, base) },
            // SAFETY: a `Kernel` names `Isa::Avx2` only when
            // `mss_units::simd` detected avx2, the feature `block_avx2`
            // enables.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { block_avx2(self.prefix, self.threshold, base) },
            Isa::Portable => return self.mask_per_bit(base, n),
        };
        full & low_bits(n)
    }

    /// The per-bit path: [`Self::fires`] on each of bits `base..base + n`.
    ///
    /// It searches for one hit at a time, so the compiler keeps the scan
    /// scalar: a branch-free loop here would be vectorized for the
    /// baseline target, which has no 64-bit lane multiply and runs slower
    /// than one finalizer per bit.
    #[inline]
    fn mask_per_bit(&self, base: u64, n: u32) -> u64 {
        let (mut mask, mut next) = (0, 0);
        while let Some(i) = (next..n).find(|&i| self.fires(base.wrapping_add(u64::from(i)))) {
            mask |= 1 << i;
            next = i + 1;
        }
        mask
    }

    /// The bits in `0..bits` where the draw fires, in ascending order: the
    /// set bits of one mask per 64 bits. A zero-rate draw yields nothing
    /// without hashing.
    pub fn hits(self, bits: u32) -> impl Iterator<Item = u32> {
        let end = if self.threshold == 0 { 0 } else { bits };
        let kernel = Kernel::detect();
        // `next` is the first bit not yet decided; `pending` holds the
        // undelivered hits of the block that starts at `base`.
        let (mut next, mut base, mut pending) = (0u32, 0u32, 0u64);
        std::iter::from_fn(move || {
            while pending == 0 && next < end {
                base = next;
                let n = (end - next).min(64);
                next += n;
                pending = self.block(kernel, u64::from(base), n);
            }
            (pending != 0).then(|| {
                let i = pending.trailing_zeros();
                pending &= pending - 1;
                base + i
            })
        })
    }

    /// For a stuck-at draw ([`FaultInjector::stuck_word`]): `Some(value)`
    /// when the cell for `bit` is stuck, with the frozen value taken from
    /// an independent hash bit so it does not correlate with selection.
    #[inline]
    pub fn stuck_at(&self, bit: u64) -> Option<bool> {
        self.hash(bit)
            .filter(|&h| (h >> 11) < self.threshold)
            .map(|h| mix(h) & 1 == 1)
    }
}

/// The indices of the set bits of `mask`, in ascending order.
#[inline]
pub(crate) fn set_bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            bit
        })
    })
}

/// A fault kind's per-injector constants: the first hash link
/// `mix(seed ^ kind)` and the rate's [`coin_threshold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KindKey {
    key: u64,
    threshold: u64,
}

impl KindKey {
    fn new(seed: u64, kind: u64, p: f64) -> Self {
        Self {
            key: mix(seed ^ kind),
            threshold: coin_threshold(p),
        }
    }
}

/// The stateless fault oracle derived from a [`FaultPlan`].
///
/// All queries are `&self` and reproducible: a fixed plan answers every
/// question identically forever. The per-word draws ([`Self::write_word`],
/// [`Self::read_disturb_word`], [`Self::transient_word`],
/// [`Self::stuck_word`]) are the decision path: each hashes its coordinate
/// prefix once, then costs one 64-bit finalizer and an integer compare per
/// bit, made 64 bits at a time by `WordDraw::mask`. The per-bit queries
/// are one-line conveniences over them.
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
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
    write_fail: KindKey,
    read_disturb: KindKey,
    transient: KindKey,
    stuck: KindKey,
}

impl FaultInjector {
    /// Wraps a plan, deriving each fault kind's hash key and rate threshold
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
    pub fn write_word(&self, site: u64, epoch: u64) -> WordDraw {
        WordDraw::new(self.write_fail, site, epoch)
    }

    /// Read disturbs (flips of the stored state) of the word at `site`
    /// during access `epoch`.
    #[inline]
    pub fn read_disturb_word(&self, site: u64, epoch: u64) -> WordDraw {
        WordDraw::new(self.read_disturb, site, epoch)
    }

    /// Transient flips (retention loss / soft upset since the previous
    /// touch) of the word at `site` in access epoch `epoch`.
    #[inline]
    pub fn transient_word(&self, site: u64, epoch: u64) -> WordDraw {
        WordDraw::new(self.transient, site, epoch)
    }

    /// Fabrication-time stuck-at defects of the word at `site`; read them
    /// with [`WordDraw::stuck_at`]. Stuck-at state is a property of the
    /// cell, not of an access: it has no epoch.
    #[inline]
    pub fn stuck_word(&self, site: u64) -> WordDraw {
        WordDraw::new(self.stuck, site, 0)
    }

    /// Does the write of `bit` at `site` fail on attempt `epoch`?
    pub fn write_fails(&self, site: u64, epoch: u64, bit: u64) -> bool {
        self.write_word(site, epoch).fires(bit)
    }

    /// Does reading `bit` at `site` during access `epoch` disturb (flip) the
    /// stored state?
    #[cfg(test)]
    pub(crate) fn read_disturbs(&self, site: u64, epoch: u64, bit: u64) -> bool {
        self.read_disturb_word(site, epoch).fires(bit)
    }

    /// Does `bit` at `site` suffer a transient flip in access epoch `epoch`?
    #[cfg(test)]
    pub(crate) fn transient_flips(&self, site: u64, epoch: u64, bit: u64) -> bool {
        self.transient_word(site, epoch).fires(bit)
    }

    /// Is the cell for `bit` at `site` a stuck-at defect, and if so, which
    /// value is it stuck at?
    #[cfg(test)]
    pub(crate) fn stuck_at(&self, site: u64, bit: u64) -> Option<bool> {
        self.stuck_word(site).stuck_at(bit)
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

    /// Executable spec: the original per-coordinate decision, kept as the
    /// reference the per-word draws must reproduce bit for bit — four
    /// chained finalizers, then an f64 uniform compared with the rate.
    mod reference {
        use super::super::mix;

        fn hash_decision(seed: u64, kind: u64, site: u64, epoch: u64, bit: u64) -> u64 {
            let mut h = mix(seed ^ kind);
            h = mix(h ^ site);
            h = mix(h ^ epoch);
            mix(h ^ bit)
        }

        fn uniform(h: u64) -> f64 {
            (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        pub fn draw(seed: u64, kind: u64, site: u64, epoch: u64, bit: u64, p: f64) -> bool {
            if p <= 0.0 {
                return false;
            }
            if p >= 1.0 {
                return true;
            }
            uniform(hash_decision(seed, kind, site, epoch, bit)) < p
        }

        pub fn stuck_at(seed: u64, site: u64, bit: u64, p: f64) -> Option<bool> {
            if p <= 0.0 {
                return None;
            }
            let h = hash_decision(seed, super::super::KIND_STUCK_AT, site, 0, bit);
            (uniform(h) < p).then(|| mix(h) & 1 == 1)
        }
    }

    #[test]
    fn word_draws_match_the_reference_chain() {
        let two53 = (1u64 << 53) as f64;
        let rates = [
            0.0,
            f64::from_bits(1), // 5e-324, the smallest positive f64
            1.0 / two53,
            1e-3,
            0.5,
            1.0 - 1.0 / two53,
            1.0,
        ];
        for seed in [0u64, 0xDEAD_BEEF, u64::MAX] {
            for &p in &rates {
                let inj = injector_with_seed(seed, |m| {
                    m.write_fail_rate = p;
                    m.read_disturb_rate = p;
                    m.transient_flip_rate = p;
                    m.stuck_at_rate = p;
                });
                for site in [0u64, 7, 0x1_0000_0040, u64::MAX] {
                    let stuck = inj.stuck_word(site);
                    for bit in 0..600u64 {
                        assert_eq!(
                            stuck.stuck_at(bit),
                            reference::stuck_at(seed, site, bit, p),
                            "stuck-at seed={seed} site={site} bit={bit} p={p:e}"
                        );
                    }
                    for epoch in [0u64, 1, 12_345, u64::MAX] {
                        let words = [
                            (KIND_WRITE_FAIL, inj.write_word(site, epoch)),
                            (KIND_READ_DISTURB, inj.read_disturb_word(site, epoch)),
                            (KIND_TRANSIENT, inj.transient_word(site, epoch)),
                        ];
                        for (kind, word) in words {
                            for bit in 0..600u64 {
                                assert_eq!(
                                    word.fires(bit),
                                    reference::draw(seed, kind, site, epoch, bit, p),
                                    "kind={kind:#x} seed={seed} site={site} epoch={epoch} bit={bit} p={p:e}"
                                );
                            }
                            let hits: Vec<u32> = word.hits(600).collect();
                            let expect: Vec<u32> =
                                (0..600).filter(|&b| word.fires(b as u64)).collect();
                            assert_eq!(hits, expect);
                        }
                    }
                }
            }
        }
    }

    /// The mask of bits `base..base + 64` from the per-bit path and from
    /// every kernel this host can run.
    fn masks_by_kernel(draw: &WordDraw, base: u64) -> Vec<(&'static str, u64)> {
        let mut masks = vec![("per-bit", draw.mask_per_bit(base, 64))];
        for kernel in Kernel::available() {
            masks.push((kernel.name(), draw.block(kernel, base, 64)));
        }
        masks
    }

    #[test]
    fn every_mask_kernel_matches_the_per_bit_path() {
        let two53 = 1u64 << 53;
        let thresholds = [0, 1, 2, 1 << 43, 1 << 52, two53 - 1, two53];
        let lengths = [1u32, 63, 64, 65, 532, 600];
        let mut rng = SplitMix64::new(0x5EED_F4A5);
        for _ in 0..24 {
            let prefix = rng.next_u64();
            // Bit 5's own hash as the threshold puts one draw exactly on
            // the boundary, where `<` and `<=` disagree.
            let edge = mix(prefix ^ 5) >> 11;
            for threshold in thresholds.into_iter().chain([edge, edge + 1]) {
                let draw = WordDraw { prefix, threshold };
                for base in [0, rng.next_u64(), u64::MAX - 31] {
                    let masks = masks_by_kernel(&draw, base);
                    for &(kernel, mask) in &masks[1..] {
                        assert_eq!(
                            mask, masks[0].1,
                            "{kernel} prefix={prefix:#x} threshold={threshold} base={base:#x}"
                        );
                    }
                    assert_eq!(draw.mask(base), masks[0].1);
                }
                for bits in lengths {
                    let hits: Vec<u32> = draw.hits(bits).collect();
                    let expect: Vec<u32> = (0..bits).filter(|&b| draw.fires(b as u64)).collect();
                    assert_eq!(
                        hits, expect,
                        "prefix={prefix:#x} threshold={threshold} bits={bits}"
                    );
                    for base in (0..bits).step_by(64) {
                        let n = (bits - base).min(64);
                        assert_eq!(
                            draw.mask_first(u64::from(base), n),
                            draw.mask_per_bit(u64::from(base), n),
                            "prefix={prefix:#x} threshold={threshold} base={base} n={n}"
                        );
                    }
                    if threshold == 0 {
                        assert!(hits.is_empty());
                    }
                }
                if threshold == 0 {
                    assert_eq!(draw.mask(0), 0);
                }
            }
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
        let mut all_same = true;
        for bit in 0..256 {
            let w = inj.write_fails(0, 0, bit);
            let r = inj.read_disturbs(0, 0, bit);
            let t = inj.transient_flips(0, 0, bit);
            if w != r || r != t {
                all_same = false;
            }
        }
        assert!(!all_same, "fault kinds are correlated");
    }

    #[test]
    fn epochs_give_independent_retry_outcomes() {
        // A bit that fails at epoch 0 must eventually succeed at some later
        // epoch when the rate is 0.5 — retries see fresh draws.
        let inj = injector(|m| m.write_fail_rate = 0.5);
        let mut failing_bit = None;
        for bit in 0..256 {
            if inj.write_fails(1, 0, bit) {
                failing_bit = Some(bit);
                break;
            }
        }
        let bit = failing_bit.expect("some bit fails at rate 0.5");
        assert!(
            (1..32).any(|epoch| !inj.write_fails(1, epoch, bit)),
            "bit never recovers across 31 retries at rate 0.5"
        );
    }

    #[test]
    fn empirical_rate_tracks_requested_rate() {
        let inj = injector(|m| m.write_fail_rate = 0.2);
        let n = 100_000u64;
        let hits = (0..n).filter(|&bit| inj.write_fails(0, 0, bit)).count();
        let ratio = hits as f64 / n as f64;
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
        let agree = (0..512)
            .filter(|&bit| a.write_fails(0, 0, bit) == b.write_fails(0, 0, bit))
            .count();
        // Independent coins agree ~50% of the time; 512 draws at 3σ is ±68.
        assert!((188..=324).contains(&agree), "agreement {agree}/512");
    }

    #[test]
    fn stuck_values_take_both_polarities() {
        let inj = injector(|m| m.stuck_at_rate = 0.5);
        let mut saw = [false, false];
        for bit in 0..512 {
            if let Some(v) = inj.stuck_at(7, bit) {
                saw[v as usize] = true;
            }
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
