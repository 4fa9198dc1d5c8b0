//! Reproducible random sampling for Monte Carlo analyses.
//!
//! The workspace carries its own pseudo-random machinery so that every crate
//! builds with **zero external dependencies** and every analysis is
//! **bit-reproducible** across machines and thread counts:
//!
//! - [`SplitMix64`] — the seeding/stream-derivation generator (Steele,
//!   Lea & Flood, *Fast Splittable Pseudorandom Number Generators*, 2014),
//! - [`Xoshiro256PlusPlus`] — the workhorse generator (Blackman & Vigna,
//!   *Scrambled Linear Pseudorandom Number Generators*, 2019),
//! - the [`Rng`] trait — the minimal uniform-sampling surface the Gaussian
//!   helpers below are built on,
//! - [`GeometricFloor`] — the capped geometric count `⌊ln U / ln q⌋` read
//!   from a threshold table, bit-identical to its libm expression.
//!
//! # Deterministic stream splitting
//!
//! Parallel Monte Carlo needs one independent random stream per task whose
//! identity depends only on `(seed, task index)` — never on which thread
//! happens to run the task. [`Xoshiro256PlusPlus::stream`] provides exactly
//! that: the 256-bit state is expanded by SplitMix64 from a mix of the run
//! seed and the stream index, so `stream(seed, k)` is a pure function and a
//! fixed seed reproduces bit-identical results at any thread count.
//!
//! The Gaussian machinery is Box–Muller based and works with any [`Rng`],
//! so every crate in the workspace shares seeded, deterministic variation
//! sampling.

mod geometric;

pub use geometric::GeometricFloor;

/// Minimal uniform-sampling interface implemented by the in-tree generators.
///
/// Only [`Rng::next_u64`] is required; everything else has provided
/// implementations so downstream code stays generator-agnostic.
pub trait Rng {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the 53 high bits; (2^-53) spacing gives a uniform dyadic grid.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `u64` in `[0, n)` via Lemire's widening-multiply rejection
    /// method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below(0)");
        // Lemire 2019: multiply-shift with a rejection zone of size 2^64 % n.
        let mut m = self.next_u64() as u128 * n as u128;
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = self.next_u64() as u128 * n as u128;
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        lo + self.gen_below(hi - lo)
    }
}

/// Integer image of [`Rng::gen_bool`]\(p\): with `u53 = next_u64() >> 11`,
/// `next_f64() < p` ⟺ `u53 < coin_threshold(p)` = `⌈p·2⁵³⌉`.
///
/// Exact — `u53` has 53 bits, so its f64 image and the 2⁻⁵³ scaling are
/// lossless — which keeps a draw sequence bit-identical to calling
/// `gen_bool` while a hot loop compares integers. The saturating cast
/// covers the edges without branches: `p ≤ 0` and NaN give 0 (never),
/// `p ≥ 1` gives at least 2⁵³ (always).
#[inline]
pub fn coin_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Golden-ratio increment of the SplitMix64 Weyl sequence.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: a tiny splittable generator used for seeding and stream
/// derivation.
///
/// Reference implementation: Sebastiano Vigna, <https://prng.di.unimi.it/splitmix64.c>.
///
/// # Examples
///
/// ```
/// use mss_units::rng::{Rng, SplitMix64};
///
/// let mut sm = SplitMix64::new(0);
/// // First output of the published reference implementation for seed 0.
/// assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0: the workspace's default generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; reference
/// implementation by Blackman & Vigna, <https://prng.di.unimi.it/xoshiro256plusplus.c>.
///
/// # Examples
///
/// ```
/// use mss_units::rng::Xoshiro256PlusPlus;
/// use mss_units::rng::Rng;
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
/// let z = mss_units::rng::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Builds a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics when the state is all-zero (the one forbidden state).
    #[cfg(test)]
    pub(crate) fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256++ state must be non-zero"
        );
        Self { s }
    }

    /// Seeds the 256-bit state by expanding a 64-bit seed through
    /// SplitMix64, as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::expand(SplitMix64::new(seed))
    }

    /// Derives the `stream`-th independent generator of a run.
    ///
    /// A pure function of `(seed, stream)`: parallel tasks draw their RNG as
    /// `stream(seed, task_index)` so results do not depend on the thread
    /// that executes the task. Streams are separated in the SplitMix64
    /// seeding space by a golden-ratio Weyl step, so distinct indices expand
    /// to unrelated 256-bit states.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut sm = SplitMix64::new(seed ^ stream.wrapping_mul(GOLDEN_GAMMA));
        // Decorrelate neighbouring (seed, stream) pairs before expansion.
        sm.next_u64();
        Self::expand(sm)
    }

    fn expand(mut sm: SplitMix64) -> Self {
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        if s.iter().all(|&w| w == 0) {
            // Vanishingly unlikely, but the all-zero state is absorbing.
            s[0] = GOLDEN_GAMMA;
        }
        Self { s }
    }
}

impl Rng for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use mss_units::rng::Xoshiro256PlusPlus;
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
/// let z = mss_units::rng::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = box_muller_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one Box–Muller draw consumes; `u1` is redrawn while
/// `u1 <= f64::MIN_POSITIVE` so `ln(u1)` is finite.
fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let mut u1: f64 = rng.next_f64();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.next_f64();
    }
    (u1, rng.next_f64())
}

/// The cosine half of the Box–Muller transform.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Above this `u1`, a Box–Muller draw has `|z| ≤ √(−2 ln u1) < 3.96`, so it
/// always lands inside a ±4σ window (see [`Variation::skip`]).
const INSIDE_4SD_U1: f64 = 4e-4;

/// Draws a normal sample with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Draws a lognormal sample whose *underlying normal* has the given
/// parameters.
#[cfg(test)]
pub(crate) fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Draws a normal sample truncated to `[lo, hi]` by rejection.
///
/// # Panics
///
/// Panics if `lo >= hi`. Intended for mild truncation (e.g. ±4σ physical
/// clamps on geometry); pathological windows fall back to clamping after
/// 1000 rejections so the call always terminates.
pub(crate) fn truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std_dev: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    assert!(lo < hi, "invalid truncation window [{lo}, {hi}]");
    for _ in 0..1000 {
        let x = normal(rng, mean, std_dev);
        if (lo..=hi).contains(&x) {
            return x;
        }
    }
    mean.clamp(lo, hi)
}

/// A named Gaussian variation source: `value = nominal · (1 + σ_rel·z)` or
/// `value = nominal + σ_abs·z` depending on [`VariationKind`].
///
/// Process-variation cards in `mss-pdk` are built from these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variation {
    /// Dispersion magnitude; interpretation depends on `kind`.
    pub sigma: f64,
    /// Relative or absolute dispersion.
    pub kind: VariationKind,
}

/// How a [`Variation`]'s sigma is applied to a nominal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariationKind {
    /// `sigma` is a fraction of the nominal value (σ/μ).
    Relative,
    /// `sigma` is in the same unit as the value.
    Absolute,
}

impl Variation {
    /// A relative (σ/μ) variation.
    pub const fn relative(sigma: f64) -> Self {
        Self {
            sigma,
            kind: VariationKind::Relative,
        }
    }

    /// An absolute variation in the value's own unit.
    pub const fn absolute(sigma: f64) -> Self {
        Self {
            sigma,
            kind: VariationKind::Absolute,
        }
    }

    /// No variation at all.
    #[cfg(test)]
    pub(crate) const fn none() -> Self {
        Self::absolute(0.0)
    }

    /// Samples a varied value around `nominal`, truncated at ±4σ so physical
    /// quantities (lengths, currents) cannot go negative for realistic σ/μ.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, nominal: f64) -> f64 {
        if self.sigma == 0.0 {
            return nominal;
        }
        let sd = match self.kind {
            VariationKind::Relative => self.sigma * nominal.abs(),
            VariationKind::Absolute => self.sigma,
        };
        truncated_normal(rng, nominal, sd, nominal - 4.0 * sd, nominal + 4.0 * sd)
    }

    /// Consumes exactly the draws [`sample`](Self::sample) would make for
    /// `nominal`, without computing the value: a caller that does not read
    /// a parameter keeps the stream of every later draw unchanged.
    ///
    /// Each attempt draws `u1` (redrawn while `u1 <= f64::MIN_POSITIVE`)
    /// and `u2`, as [`standard_normal`] does. When `u1 > 4e-4`, then
    /// `|z| ≤ √(−2 ln u1) < √(−2 ln 4e-4) ≈ 3.956 < 4`, and because float
    /// rounding is monotone `nominal + sd·z` lies inside
    /// `[nominal − 4sd, nominal + 4sd]`: the attempt is accepted, so no
    /// `ln`, `sqrt` or `cos` is needed. Otherwise the value is computed
    /// exactly as `sample` computes it and put to the same window test,
    /// with the same 1000-attempt cap. `sigma == 0` draws nothing. A
    /// non-finite `nominal` or standard deviation, or a window that rounds
    /// to empty, defers to `sample` and so panics where it panics.
    pub fn skip<R: Rng + ?Sized>(&self, rng: &mut R, nominal: f64) {
        if self.sigma == 0.0 {
            return;
        }
        let sd = self.std_dev_at(nominal);
        let (lo, hi) = (nominal - 4.0 * sd, nominal + 4.0 * sd);
        if !(nominal.is_finite() && sd.is_finite() && lo < hi) {
            self.sample(rng, nominal);
            return;
        }
        for _ in 0..1000 {
            let (u1, u2) = box_muller_uniforms(rng);
            if u1 > INSIDE_4SD_U1 || (lo..=hi).contains(&(nominal + sd * box_muller(u1, u2))) {
                return;
            }
        }
    }

    /// The effective absolute standard deviation around `nominal`.
    pub fn std_dev_at(&self, nominal: f64) -> f64 {
        match self.kind {
            VariationKind::Relative => self.sigma * nominal.abs(),
            VariationKind::Absolute => self.sigma,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OnlineStats;

    /// Reference outputs of the published splitmix64.c for seed 0.
    #[test]
    fn splitmix64_reference_vector() {
        let mut sm = SplitMix64::new(0);
        let expected: [u64; 4] = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ];
        for e in expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    /// Reference outputs of the published xoshiro256plusplus.c for the
    /// state {1, 2, 3, 4} (same vector used by the `rand_xoshiro` crate).
    #[test]
    fn xoshiro256pp_reference_vector() {
        let mut rng = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let expected: [u64; 10] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
            15849039046786891736,
            10450023813501588000,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    #[should_panic(expected = "state must be non-zero")]
    fn all_zero_state_rejected() {
        let _ = Xoshiro256PlusPlus::from_state([0, 0, 0, 0]);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256PlusPlus::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256PlusPlus::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut c = Xoshiro256PlusPlus::seed_from_u64(43);
        assert_ne!(a[0], c.next_u64());
    }

    #[test]
    fn streams_are_pure_and_distinct() {
        let take =
            |mut r: Xoshiro256PlusPlus| -> Vec<u64> { (0..16).map(|_| r.next_u64()).collect() };
        let s0 = take(Xoshiro256PlusPlus::stream(9, 0));
        let s0_again = take(Xoshiro256PlusPlus::stream(9, 0));
        assert_eq!(s0, s0_again);
        let s1 = take(Xoshiro256PlusPlus::stream(9, 1));
        let other_seed = take(Xoshiro256PlusPlus::stream(10, 0));
        assert_ne!(s0, s1);
        assert_ne!(s0, other_seed);
        // Stream 0 coincides with nothing special: it differs from the
        // plain seeded generator too.
        assert_ne!(s0, take(Xoshiro256PlusPlus::seed_from_u64(9)));
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_below_is_unbiased_in_range() {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.gen_below(7) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow +/-5%.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(3);
        for _ in 0..1000 {
            let u = r.gen_range_u64(5, 9);
            assert!((5..9).contains(&u));
            let f = r.gen_range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Xoshiro256PlusPlus::seed_from_u64(4);
        let hits = (0..50_000).filter(|_| r.gen_bool(0.3)).count();
        let ratio = hits as f64 / 50_000.0;
        assert!((ratio - 0.3).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn coin_threshold_edges() {
        let two53 = 1u64 << 53;
        assert_eq!(coin_threshold(0.0), 0);
        assert_eq!(coin_threshold(-0.0), 0);
        assert_eq!(coin_threshold(-0.5), 0);
        assert_eq!(coin_threshold(f64::NAN), 0);
        assert_eq!(coin_threshold(f64::NEG_INFINITY), 0);
        // The smallest positive rate still fires on exactly one u53.
        assert_eq!(coin_threshold(f64::from_bits(1)), 1);
        assert_eq!(coin_threshold(1.0 / two53 as f64), 1);
        assert_eq!(coin_threshold(0.5), two53 / 2);
        assert_eq!(coin_threshold(1.0 - 1.0 / two53 as f64), two53 - 1);
        assert_eq!(coin_threshold(1.0), two53);
        assert!(coin_threshold(1.5) >= two53);
        assert_eq!(coin_threshold(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn coin_threshold_matches_gen_bool() {
        for p in [0.0, 1e-9, 0.15, 0.3, 0.5, 0.999, 1.0] {
            let t = coin_threshold(p);
            let mut a = Xoshiro256PlusPlus::seed_from_u64(9);
            let mut b = a.clone();
            for _ in 0..10_000 {
                assert_eq!(a.gen_bool(p), (b.next_u64() >> 11) < t, "p = {p}");
            }
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
        let s: OnlineStats = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(s.mean().abs() < 0.03, "mean {}", s.mean());
        assert!(
            (s.sample_std_dev() - 1.0).abs() < 0.03,
            "sd {}",
            s.sample_std_dev()
        );
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let s: OnlineStats = (0..20_000).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        assert!((s.mean() - 10.0).abs() < 0.1);
        assert!((s.sample_std_dev() - 2.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(lognormal(&mut rng, 0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn truncated_normal_respects_window() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        for _ in 0..1000 {
            let x = truncated_normal(&mut rng, 0.0, 1.0, -0.5, 0.5);
            assert!((-0.5..=0.5).contains(&x));
        }
    }

    #[test]
    fn variation_sampling_is_seed_deterministic() {
        let v = Variation::relative(0.05);
        let a: Vec<f64> = {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
            (0..32).map(|_| v.sample(&mut rng, 100.0)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
            (0..32).map(|_| v.sample(&mut rng, 100.0)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zero_variation_returns_nominal() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        assert_eq!(Variation::none().sample(&mut rng, 123.0), 123.0);
    }

    /// Counts the words drawn through it.
    struct Counting(Xoshiro256PlusPlus, u64);

    impl Rng for Counting {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn skip_consumes_exactly_the_draws_of_sample() {
        let kinds = [Variation::relative, Variation::absolute];
        for (k, make) in kinds.into_iter().enumerate() {
            for (s, sigma) in [0.0, 0.004, 0.05, 0.3].into_iter().enumerate() {
                for (n, nominal) in [3.0, -2.0, 1e-9].into_iter().enumerate() {
                    let v = make(sigma);
                    let seed = (k * 100 + s * 10 + n) as u64;
                    let mut sampled = Counting(Xoshiro256PlusPlus::seed_from_u64(seed), 0);
                    let mut skipped = Xoshiro256PlusPlus::seed_from_u64(seed);
                    // Attempts whose u1 forces the full transform, and calls
                    // that rejected at least one attempt (more than 2 words).
                    let (mut slow, mut rejected) = (0u32, 0u32);
                    for _ in 0..200_000 {
                        let u1 = sampled.0.clone().next_f64();
                        let before = sampled.1;
                        v.sample(&mut sampled, nominal);
                        slow += u32::from(u1 <= INSIDE_4SD_U1);
                        rejected += u32::from(sampled.1 - before > 2);
                        v.skip(&mut skipped, nominal);
                        assert_eq!(sampled.0, skipped, "{v:?} at {nominal}");
                    }
                    if sigma == 0.0 {
                        assert_eq!(sampled.1, 0, "sigma 0 draws nothing");
                    } else {
                        assert!(slow > 0 && rejected > 0, "{v:?}: {slow} {rejected}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid truncation window")]
    fn skip_panics_where_sample_panics() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        Variation::absolute(0.1).skip(&mut rng, f64::NAN);
    }

    #[test]
    fn relative_variation_std_dev() {
        let v = Variation::relative(0.1);
        assert!((v.std_dev_at(50.0) - 5.0).abs() < 1e-12);
        let a = Variation::absolute(0.3);
        assert_eq!(a.std_dev_at(1e9), 0.3);
    }
}
