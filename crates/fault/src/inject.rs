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

use mss_units::rng::{coin_threshold, Rng, SplitMix64};

use crate::plan::{FaultModel, FaultPlan};

/// Domain-separation constants: each fault kind hashes into its own stream
/// so e.g. a write-failure decision never correlates with a read-disturb
/// decision at the same `(site, epoch, bit)`.
const KIND_WRITE_FAIL: u64 = 0x57_52_49_54; // "WRIT"
const KIND_READ_DISTURB: u64 = 0x52_45_41_44; // "READ"
const KIND_TRANSIENT: u64 = 0x54_52_4E_53; // "TRNS"
const KIND_STUCK_AT: u64 = 0x53_54_55_4B; // "STUK"

/// One SplitMix64 finalizer step: a high-quality 64-bit mixer.
#[inline]
fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// One fault kind's Bernoulli draws over the bits of one word.
///
/// Holds the hash prefix `mix(mix(mix(seed ^ kind) ^ site) ^ epoch)` and the
/// integer threshold `⌈p·2⁵³⌉`; bit `b` fires iff
/// `mix(prefix ^ b) >> 11 < threshold`, which is exactly the uniform test
/// `u < p` on the 53-bit dyadic grid of [`Rng::next_f64`].
#[derive(Debug, Clone, Copy)]
pub struct WordDraw {
    prefix: u64,
    threshold: u64,
}

impl WordDraw {
    #[inline]
    fn new(plan: &FaultPlan, kind: u64, site: u64, epoch: u64, p: f64) -> Self {
        Self {
            prefix: mix(mix(mix(plan.seed ^ kind) ^ site) ^ epoch),
            threshold: coin_threshold(p),
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

    /// The bits in `0..bits` where the draw fires, in ascending order. A
    /// zero-rate draw yields nothing without hashing.
    pub fn hits(self, bits: u32) -> impl Iterator<Item = u32> {
        let end = if self.threshold == 0 { 0 } else { bits };
        (0..end).filter(move |&bit| self.fires(bit as u64))
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

/// The stateless fault oracle derived from a [`FaultPlan`].
///
/// All queries are `&self` and reproducible: a fixed plan answers every
/// question identically forever. The per-word draws ([`Self::write_word`],
/// [`Self::read_disturb_word`], [`Self::transient_word`],
/// [`Self::stuck_word`]) are the decision path: each hashes its coordinate
/// prefix once, then costs one 64-bit finalizer and an integer compare per
/// bit. The per-bit queries are one-line conveniences over them.
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
}

impl FaultInjector {
    /// Wraps a plan. A [`FaultPlan::disabled`] plan yields an injector that
    /// never injects.
    pub const fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// The plan this injector draws from.
    pub const fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The model this injector draws from.
    pub const fn model(&self) -> &FaultModel {
        &self.plan.model
    }

    /// True when any fault can ever be injected.
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Write failures of the word at `site` on attempt `epoch`.
    ///
    /// Distinct epochs are independent draws, so a bounded retry loop sees
    /// fresh (but reproducible) outcomes on each attempt.
    #[inline]
    pub fn write_word(&self, site: u64, epoch: u64) -> WordDraw {
        let p = self.plan.model.write_fail_rate;
        WordDraw::new(&self.plan, KIND_WRITE_FAIL, site, epoch, p)
    }

    /// Read disturbs (flips of the stored state) of the word at `site`
    /// during access `epoch`.
    #[inline]
    pub fn read_disturb_word(&self, site: u64, epoch: u64) -> WordDraw {
        let p = self.plan.model.read_disturb_rate;
        WordDraw::new(&self.plan, KIND_READ_DISTURB, site, epoch, p)
    }

    /// Transient flips (retention loss / soft upset since the previous
    /// touch) of the word at `site` in access epoch `epoch`.
    #[inline]
    pub fn transient_word(&self, site: u64, epoch: u64) -> WordDraw {
        let p = self.plan.model.transient_flip_rate;
        WordDraw::new(&self.plan, KIND_TRANSIENT, site, epoch, p)
    }

    /// Fabrication-time stuck-at defects of the word at `site`; read them
    /// with [`WordDraw::stuck_at`]. Stuck-at state is a property of the
    /// cell, not of an access: it has no epoch.
    #[inline]
    pub fn stuck_word(&self, site: u64) -> WordDraw {
        let p = self.plan.model.stuck_at_rate;
        WordDraw::new(&self.plan, KIND_STUCK_AT, site, 0, p)
    }

    /// Does the write of `bit` at `site` fail on attempt `epoch`?
    pub fn write_fails(&self, site: u64, epoch: u64, bit: u64) -> bool {
        self.write_word(site, epoch).fires(bit)
    }

    /// Does reading `bit` at `site` during access `epoch` disturb (flip) the
    /// stored state?
    pub fn read_disturbs(&self, site: u64, epoch: u64, bit: u64) -> bool {
        self.read_disturb_word(site, epoch).fires(bit)
    }

    /// Does `bit` at `site` suffer a transient flip in access epoch `epoch`?
    pub fn transient_flips(&self, site: u64, epoch: u64, bit: u64) -> bool {
        self.transient_word(site, epoch).fires(bit)
    }

    /// Is the cell for `bit` at `site` a stuck-at defect, and if so, which
    /// value is it stuck at?
    pub fn stuck_at(&self, site: u64, bit: u64) -> Option<bool> {
        self.stuck_word(site).stuck_at(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
