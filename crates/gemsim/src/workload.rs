//! Statistical Parsec-like kernels.
//!
//! The authors ran Parsec 3.0 binaries under full-system gem5; the
//! evaluation consumes only the aggregate activity that produces (runtime,
//! reads/writes, hits/misses, IPC). Each kernel here is a *statistical twin*:
//! an instruction mix, a working-set size and a stack-distance locality
//! model whose generated address stream reproduces the cache-level behaviour
//! class of the original (compute-bound vs memory-bound, streaming vs
//! reuse-heavy).

use std::sync::Arc;

use mss_units::rng::{coin_threshold, GeometricFloor, Rng, Xoshiro256PlusPlus};

use crate::GemsimError;

/// A statistical workload kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (Parsec 3.0 counterpart).
    pub name: String,
    /// Total dynamic instructions across all threads.
    pub instructions: u64,
    /// Fraction of instructions that access memory.
    pub memory_ratio: f64,
    /// Fraction of memory accesses that are writes.
    pub write_ratio: f64,
    /// Working-set size in bytes.
    pub working_set: u64,
    /// Probability a memory access re-uses a recent line (temporal
    /// locality); the re-use distance is geometric.
    pub reuse_probability: f64,
    /// Mean re-use distance in lines for the geometric re-use draw.
    pub mean_reuse_distance: f64,
    /// Probability a *new* access continues the current streaming run
    /// (spatial locality).
    pub stream_probability: f64,
    /// Probability of a *far* re-reference: revisiting data megabytes back
    /// (log-uniform distance up to the working set). These are the accesses
    /// whose hit/miss fate depends on the L2 capacity.
    pub far_reuse_probability: f64,
    /// Software threads.
    pub threads: u32,
}

impl mss_pipe::StableHash for Kernel {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_str(&self.name);
        h.write_u64(self.instructions);
        h.write_f64(self.memory_ratio);
        h.write_f64(self.write_ratio);
        h.write_u64(self.working_set);
        h.write_f64(self.reuse_probability);
        h.write_f64(self.mean_reuse_distance);
        h.write_f64(self.stream_probability);
        h.write_f64(self.far_reuse_probability);
        h.write_u32(self.threads);
    }
}

impl Kernel {
    /// `bodytrack` — computer-vision body tracking: compute-heavy, moderate
    /// working set, good locality (the paper's Fig. 11 kernel).
    pub fn bodytrack() -> Self {
        Self {
            name: "bodytrack".into(),
            instructions: 60_000_000,
            memory_ratio: 0.28,
            write_ratio: 0.30,
            working_set: 8 << 20,
            reuse_probability: 0.82,
            mean_reuse_distance: 24.0,
            stream_probability: 0.70,
            far_reuse_probability: 0.1,
            threads: 8,
        }
    }

    /// `blackscholes` — option pricing: small working set, very
    /// compute-bound.
    pub fn blackscholes() -> Self {
        Self {
            name: "blackscholes".into(),
            instructions: 50_000_000,
            memory_ratio: 0.20,
            write_ratio: 0.20,
            working_set: 2 << 20,
            reuse_probability: 0.90,
            mean_reuse_distance: 12.0,
            stream_probability: 0.80,
            far_reuse_probability: 0.04,
            threads: 8,
        }
    }

    /// `swaptions` — Monte Carlo pricing: tiny working set, reuse-heavy.
    pub fn swaptions() -> Self {
        Self {
            name: "swaptions".into(),
            instructions: 55_000_000,
            memory_ratio: 0.24,
            write_ratio: 0.25,
            working_set: 1 << 20,
            reuse_probability: 0.92,
            mean_reuse_distance: 10.0,
            stream_probability: 0.75,
            far_reuse_probability: 0.03,
            threads: 8,
        }
    }

    /// `fluidanimate` — SPH fluid simulation: large working set, mixed
    /// locality, write-heavy.
    pub fn fluidanimate() -> Self {
        Self {
            name: "fluidanimate".into(),
            instructions: 65_000_000,
            memory_ratio: 0.32,
            write_ratio: 0.40,
            working_set: 24 << 20,
            reuse_probability: 0.70,
            mean_reuse_distance: 60.0,
            stream_probability: 0.60,
            far_reuse_probability: 0.1,
            threads: 8,
        }
    }

    /// `freqmine` — frequent itemset mining: pointer-chasing, poor spatial
    /// locality, large working set.
    pub fn freqmine() -> Self {
        Self {
            name: "freqmine".into(),
            instructions: 70_000_000,
            memory_ratio: 0.35,
            write_ratio: 0.22,
            working_set: 32 << 20,
            reuse_probability: 0.62,
            mean_reuse_distance: 120.0,
            stream_probability: 0.30,
            far_reuse_probability: 0.12,
            threads: 8,
        }
    }

    /// `streamcluster` — online clustering: streaming, memory-bound, huge
    /// effective working set.
    pub fn streamcluster() -> Self {
        Self {
            name: "streamcluster".into(),
            instructions: 60_000_000,
            memory_ratio: 0.38,
            write_ratio: 0.15,
            working_set: 64 << 20,
            reuse_probability: 0.45,
            mean_reuse_distance: 300.0,
            stream_probability: 0.85,
            far_reuse_probability: 0.15,
            threads: 8,
        }
    }

    /// `canneal` — simulated-annealing place & route: pointer chasing over a
    /// huge graph, almost no spatial locality.
    pub fn canneal() -> Self {
        Self {
            name: "canneal".into(),
            instructions: 55_000_000,
            memory_ratio: 0.36,
            write_ratio: 0.18,
            working_set: 96 << 20,
            reuse_probability: 0.55,
            mean_reuse_distance: 200.0,
            stream_probability: 0.15,
            far_reuse_probability: 0.10,
            threads: 8,
        }
    }

    /// `dedup` — pipelined compression/deduplication: write-heavy with
    /// hash-table reuse.
    pub fn dedup() -> Self {
        Self {
            name: "dedup".into(),
            instructions: 60_000_000,
            memory_ratio: 0.30,
            write_ratio: 0.45,
            working_set: 16 << 20,
            reuse_probability: 0.75,
            mean_reuse_distance: 48.0,
            stream_probability: 0.65,
            far_reuse_probability: 0.08,
            threads: 8,
        }
    }

    /// `x264` — video encoding: streaming macroblocks with strong frame
    /// reuse, compute-heavy.
    fn x264() -> Self {
        Self {
            name: "x264".into(),
            instructions: 75_000_000,
            memory_ratio: 0.25,
            write_ratio: 0.28,
            working_set: 12 << 20,
            reuse_probability: 0.80,
            mean_reuse_distance: 32.0,
            stream_probability: 0.85,
            far_reuse_probability: 0.09,
            threads: 8,
        }
    }

    /// The six-kernel suite used for the Fig. 12 sweep.
    fn parsec_suite() -> Vec<Kernel> {
        vec![
            Kernel::bodytrack(),
            Kernel::blackscholes(),
            Kernel::swaptions(),
            Kernel::fluidanimate(),
            Kernel::freqmine(),
            Kernel::streamcluster(),
        ]
    }

    /// The extended nine-kernel suite (Parsec 3.0 subset).
    pub fn parsec_extended() -> Vec<Kernel> {
        let mut v = Self::parsec_suite();
        v.push(Kernel::canneal());
        v.push(Kernel::dedup());
        v.push(Kernel::x264());
        v
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidWorkload`] on out-of-range parameters.
    pub fn validate(&self) -> Result<(), GemsimError> {
        let fail = |reason: String| Err(GemsimError::InvalidWorkload { reason });
        if self.instructions == 0 || self.threads == 0 || self.working_set == 0 {
            return fail("instructions, threads and working set must be non-zero".into());
        }
        for (name, v) in [
            ("memory_ratio", self.memory_ratio),
            ("write_ratio", self.write_ratio),
            ("reuse_probability", self.reuse_probability),
            ("stream_probability", self.stream_probability),
            ("far_reuse_probability", self.far_reuse_probability),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return fail(format!("{name} = {v} outside [0, 1]"));
            }
        }
        // A range test, so NaN fails too.
        if !(1.0..).contains(&self.mean_reuse_distance) {
            return fail(format!(
                "mean reuse distance {} must be >= 1 line",
                self.mean_reuse_distance
            ));
        }
        Ok(())
    }

    /// Total memory accesses implied by the mix.
    #[cfg(test)]
    fn memory_accesses(&self) -> u64 {
        (self.instructions as f64 * self.memory_ratio) as u64
    }
}

/// Seeded generator of one thread's memory-access stream.
///
/// The recent-line history is a fixed-size ring buffer: pushing the
/// 4097th line overwrites the oldest slot in O(1), where the previous
/// `Vec` representation paid a 4096-element shift (`remove(0)`) on every
/// single generated access. A reuse draws its geometric stack offset
/// from one uniform by inverse CDF, read from a threshold table rather
/// than a logarithm. The draw sequence is bit-identical to
/// [`crate::reference::NaiveStream`].
#[derive(Debug, Clone)]
pub struct AccessStream {
    /// The thread's xoshiro256++ stream.
    rng: Xoshiro256PlusPlus,
    /// Ring of the last [`HISTORY`] line numbers; slot `hist_head` is
    /// written next, so the most recent line sits at `hist_head - 1`.
    history: Box<[u64]>,
    /// Occupied ring slots (saturates at [`HISTORY`]).
    hist_len: u32,
    /// Next ring slot to write.
    hist_head: u32,
    cursor: u64,
    line: u64,
    working_lines: u64,
    /// Bernoulli draws as integer thresholds on the raw 53-bit draw
    /// (see [`coin_threshold`]): `gen_bool(write_ratio)` etc., minus the
    /// per-draw int→f64 conversion. Several of these run per access.
    write_coin: u64,
    reuse_coin: u64,
    stream_coin: u64,
    far_coin: u64,
    /// `⌊ln U / ln(1 − p')⌋` for the reuse offset's stop probability
    /// `p'` (see [`AccessStream::reuse_sampler`]), shared by a run's
    /// streams.
    reuse: Arc<GeometricFloor>,
    base: u64,
    /// The branch of the last access.
    #[cfg(test)]
    branch: Branch,
}

/// The branch that drew an access, tagged so tests can count the
/// stream's fractions (a reuse and a jump can emit the same address).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    Far,
    Reuse,
    Stream,
    Jump,
}

/// One generated memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccess {
    /// Byte address.
    pub address: u64,
    /// Store (true) or load (false).
    pub write: bool,
}

const LINE: u64 = 64;
const HISTORY: usize = 4096;
const HISTORY_MASK: u32 = HISTORY as u32 - 1;
/// 2⁵³, the span of a draw's 53-bit uniform grid.
const TWO_53: f64 = (1u64 << 53) as f64;

impl AccessStream {
    /// Creates a stream for `kernel`, thread `tid`, with a global seed.
    pub fn new(kernel: &Kernel, tid: u32, seed: u64) -> Self {
        Self::with_sampler(kernel, tid, seed, &Self::reuse_sampler(kernel))
    }

    /// The reuse offset's sampler for `kernel`, which every thread's
    /// stream of a run can share. The offset is geometric with stop
    /// probability p' = (⌊p·2⁵³⌋ + 1)/2⁵³ for p = 1/mean:
    /// P(d ≥ k) = (1 − p')^k. p' is the exact f64 image of the integer
    /// numerator, which rounds to 2⁵³ (p' = 1, `ln(1 − p') = −∞`) at
    /// mean 1.
    pub(crate) fn reuse_sampler(kernel: &Kernel) -> Arc<GeometricFloor> {
        let p_geom = 1.0 / kernel.mean_reuse_distance.max(1.0);
        let stop = ((p_geom * TWO_53) as u64 + 1) as f64 / TWO_53;
        Arc::new(GeometricFloor::new(
            (-stop.min(1.0)).ln_1p(),
            HISTORY as u32 - 1,
        ))
    }

    /// [`AccessStream::new`] with the reuse sampler built for `kernel`
    /// by [`AccessStream::reuse_sampler`].
    pub(crate) fn with_sampler(
        kernel: &Kernel,
        tid: u32,
        seed: u64,
        reuse: &Arc<GeometricFloor>,
    ) -> Self {
        let per_thread = (kernel.working_set / kernel.threads as u64).max(4 * LINE);
        Self {
            rng: Xoshiro256PlusPlus::seed_from_u64(
                seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid as u64 + 1),
            ),
            history: vec![0; HISTORY].into_boxed_slice(),
            hist_len: 0,
            hist_head: 0,
            cursor: 0,
            line: 0,
            working_lines: (per_thread / LINE).max(4),
            write_coin: coin_threshold(kernel.write_ratio),
            reuse_coin: coin_threshold(kernel.reuse_probability),
            stream_coin: coin_threshold(kernel.stream_probability),
            far_coin: coin_threshold(kernel.far_reuse_probability),
            reuse: Arc::clone(reuse),
            base: (tid as u64) << 32,
            #[cfg(test)]
            branch: Branch::Jump,
        }
    }

    /// One Bernoulli draw against a [`coin_threshold`] — the integer twin
    /// of `self.rng.gen_bool(p)`, consuming exactly one `next_u64`.
    #[inline]
    fn coin(&mut self, threshold: u64) -> bool {
        (self.rng.next_u64() >> 11) < threshold
    }

    /// Geometric stack distance over the recent-history ring, at most
    /// `hist_len - 1` lines back, from one draw: with `U` uniform on the
    /// grid `(0, 1]`, `⌊ln U / ln(1 − p')⌋ ≥ k` ⟺ `U ≤ (1 − p')^k`.
    /// The cap is compared in f64, before the cast; the sampler returns
    /// that expression's value without evaluating it.
    #[inline]
    fn reuse_offset(&mut self) -> u32 {
        let x = (self.rng.next_u64() >> 11) + 1;
        self.reuse.sample(x, (self.hist_len - 1).into()) as u32
    }

    /// Draws the next access.
    #[inline]
    pub fn next_access(&mut self) -> MemoryAccess {
        let write = self.coin(self.write_coin);
        if self.coin(self.far_coin) && self.cursor > 0 {
            // Far re-reference: log-uniform distance in [64 lines, working
            // set], i.e. 4 KiB up to the full per-thread partition. Whether
            // it hits depends entirely on how much cache sits below.
            let max_d = self.working_lines.max(128) as f64;
            let u: f64 = self.rng.next_f64();
            let d = (64.0 * (max_d / 64.0).powf(u)) as u64;
            let line =
                (self.line + self.working_lines - d % self.working_lines) % self.working_lines;
            self.cursor += 1;
            #[cfg(test)]
            {
                self.branch = Branch::Far;
            }
            return MemoryAccess {
                address: self.base + line * LINE,
                write,
            };
        }
        let reuse = self.hist_len > 0 && self.coin(self.reuse_coin);
        let line = if reuse {
            #[cfg(test)]
            {
                self.branch = Branch::Reuse;
            }
            let d = self.reuse_offset();
            // d lines back from the most recent entry (at hist_head - 1).
            self.history[((self.hist_head.wrapping_sub(1 + d)) & HISTORY_MASK) as usize]
        } else if self.coin(self.stream_coin) {
            // Sequential streaming within the working set.
            #[cfg(test)]
            {
                self.branch = Branch::Stream;
            }
            self.line += 1;
            if self.line == self.working_lines {
                self.line = 0;
            }
            self.line
        } else {
            // Random jump within the working set.
            #[cfg(test)]
            {
                self.branch = Branch::Jump;
            }
            self.line = self.rng.gen_range_u64(0, self.working_lines);
            self.line
        };
        self.history[self.hist_head as usize] = line;
        self.hist_head = (self.hist_head + 1) & HISTORY_MASK;
        self.hist_len = (self.hist_len + 1).min(HISTORY as u32);
        self.cursor += 1;
        MemoryAccess {
            address: self.base + line * LINE + self.rng.gen_range_u64(0, LINE / 8) * 8,
            write,
        }
    }

    /// Fills `out` with the next `out.len()` accesses, bit-identical to
    /// calling [`AccessStream::next_access`] that many times. The system
    /// hot loop synthesizes a chunk of addresses per call and then runs
    /// them through the caches.
    pub fn fill(&mut self, out: &mut [MemoryAccess]) {
        for slot in out {
            *slot = self.next_access();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_kernels_validate() {
        let suite = Kernel::parsec_extended();
        assert_eq!(suite.len(), 9);
        for k in &suite {
            k.validate().unwrap();
            assert!(k.memory_accesses() > 0);
        }
        // Names are unique.
        let mut names: Vec<&str> = suite.iter().map(|k| k.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn invalid_kernels_rejected() {
        let mut k = Kernel::bodytrack();
        k.memory_ratio = 1.5;
        assert!(k.validate().is_err());
        let mut k = Kernel::bodytrack();
        k.threads = 0;
        assert!(k.validate().is_err());
        let mut k = Kernel::bodytrack();
        k.mean_reuse_distance = 0.0;
        assert!(k.validate().is_err());
    }

    #[test]
    fn nan_mean_reuse_distance_rejected() {
        let mut k = Kernel::bodytrack();
        k.mean_reuse_distance = f64::NAN;
        let err = k.validate().unwrap_err().to_string();
        assert!(err.contains("mean reuse distance NaN"), "{err}");
        k.mean_reuse_distance = 1.0;
        k.validate().unwrap();
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let k = Kernel::bodytrack();
        let mut a = AccessStream::new(&k, 0, 42);
        let mut b = AccessStream::new(&k, 0, 42);
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access());
        }
        let mut c = AccessStream::new(&k, 1, 42);
        let first_a = AccessStream::new(&k, 0, 42).next_access();
        assert_ne!(c.next_access().address >> 32, first_a.address >> 32);
    }

    #[test]
    fn write_ratio_is_respected() {
        let k = Kernel::fluidanimate();
        let mut s = AccessStream::new(&k, 0, 7);
        let writes = (0..20_000).filter(|_| s.next_access().write).count();
        let ratio = writes as f64 / 20_000.0;
        assert!((ratio - k.write_ratio).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn addresses_stay_in_thread_partition() {
        let k = Kernel::swaptions();
        let mut s = AccessStream::new(&k, 3, 1);
        for _ in 0..1000 {
            let a = s.next_access().address;
            assert_eq!(a >> 32, 3);
        }
    }

    // Stream-law oracles. Each checks a law the stream claims, whatever
    // way it draws it, with tolerances fixed in advance. Each test runs
    // 9 to 18 checks, so each check is held at α ≈ 0.001 / (number of
    // checks) (Bonferroni): 4σ bands for counts and means (two-sided
    // 6.3e-5 each) and Kolmogorov–Smirnov at critical 2.30/√n (5e-5,
    // conservative for the discrete laws here). A 3σ band per check
    // would fail a correct stream about once in twenty runs of an
    // 18-check test.

    /// `|observed − n·p| ≤ 4·√(n·p·(1 − p))`.
    fn assert_binomial(what: &str, observed: u64, n: u64, p: f64) {
        assert_binomial_at(what, observed, n, p, 4.0);
    }

    /// `|observed − n·p| ≤ z_max·√(n·p·(1 − p))`.
    fn assert_binomial_at(what: &str, observed: u64, n: u64, p: f64, z_max: f64) {
        let mean = n as f64 * p;
        let sigma = (n as f64 * p * (1.0 - p)).sqrt();
        let z = (observed as f64 - mean) / sigma;
        assert!(
            z.abs() <= z_max,
            "{what}: {observed} of {n} at p = {p}, expected {mean:.1} ± {sigma:.1} (z = {z:+.2})"
        );
    }

    /// The KS statistic of integer samples against the CDF `cdf(x)` =
    /// P(X ≤ x), evaluated at both ends of every gap between observed
    /// values, where the step functions part most.
    fn ks_statistic(mut samples: Vec<u64>, cdf: impl Fn(u64) -> f64) -> f64 {
        samples.sort_unstable();
        let n = samples.len() as f64;
        let mut d: f64 = 0.0;
        let mut start = 0;
        while start < samples.len() {
            let x = samples[start];
            let end = start + samples[start..].iter().take_while(|&&v| v == x).count();
            let below = if x == 0 { 0.0 } else { cdf(x - 1) };
            d = d
                .max((start as f64 / n - below).abs())
                .max((end as f64 / n - cdf(x)).abs());
            start = end;
        }
        d
    }

    fn assert_ks(what: &str, samples: Vec<u64>, cdf: impl Fn(u64) -> f64) {
        let critical = 2.30 / (samples.len() as f64).sqrt();
        let d = ks_statistic(samples, cdf);
        assert!(d <= critical, "{what}: KS D = {d:.5} > {critical:.5}");
    }

    /// The parsec kernels plus the two edge means, 1 (every reuse is
    /// the last line) and 1e9 (every reuse hits the cap).
    fn law_kernels() -> Vec<Kernel> {
        let mut ks = Kernel::parsec_extended();
        for (name, mean) in [("mean-1", 1.0), ("mean-1e9", 1e9)] {
            let mut k = Kernel::bodytrack();
            k.name = name.into();
            k.mean_reuse_distance = mean;
            ks.push(k);
        }
        ks
    }

    #[test]
    fn reuse_offsets_follow_the_truncated_geometric() {
        // The stop probability is p' = (⌊p·2⁵³⌋ + 1)/2⁵³ for p = 1/mean,
        // so P(d ≥ k) = (1 − p')^k up to the cap, which takes the rest.
        const N: usize = 50_000;
        let cap = HISTORY as u32 - 1;
        for k in law_kernels() {
            let p = 1.0 / k.mean_reuse_distance;
            let stop = ((p * (1u64 << 53) as f64) as u64 + 1) as f64 / (1u64 << 53) as f64;
            let q = (1.0 - stop).max(0.0);
            let tail = |j: u32| if j > cap { 0.0 } else { q.powi(j as i32) };
            let mut s = AccessStream::new(&k, 0, 0x0051_ACD1);
            while s.hist_len < HISTORY as u32 {
                s.next_access();
            }
            let d: Vec<u64> = (0..N).map(|_| u64::from(s.reuse_offset())).collect();
            assert!(d.iter().all(|&x| x <= u64::from(cap)), "{}", k.name);
            assert_ks(&k.name, d.clone(), |x| 1.0 - tail(x as u32 + 1));
            // E[d] = Σ_{j≥1} P(d ≥ j) and E[d²] = Σ_{j≥1} (2j − 1)·P(d ≥ j).
            let mean: f64 = (1..=cap).map(tail).sum();
            let second: f64 = (1..=cap).map(|j| f64::from(2 * j - 1) * tail(j)).sum();
            let sigma = ((second - mean * mean).max(0.0) / N as f64).sqrt();
            let observed = d.iter().sum::<u64>() as f64 / N as f64;
            assert!(
                (observed - mean).abs() <= 4.0 * sigma + 1e-9 * mean,
                "{}: mean offset {observed} vs {mean} ± {sigma}",
                k.name
            );
        }
    }

    /// Runs `n` accesses of thread 0 and returns the write count and the
    /// far-reuse distances. A far access is the one branch that leaves
    /// the history ring untouched, and its line sits `d mod working_lines`
    /// behind the unmoved stream line.
    fn classify(k: &Kernel, n: usize) -> (u64, Vec<u64>) {
        let mut s = AccessStream::new(k, 0, 0x0051_ACD2);
        let w = s.working_lines;
        let (mut writes, mut far) = (0, Vec::new());
        for _ in 0..n {
            let (head, line) = (s.hist_head, s.line);
            let a = s.next_access();
            writes += u64::from(a.write);
            if s.hist_head == head {
                let r = (line + w - (a.address - s.base) / LINE) % w;
                far.push(if r == 0 { w } else { r });
            }
        }
        (writes, far)
    }

    #[test]
    fn write_and_far_reuse_fractions_are_binomial() {
        const N: usize = 200_000;
        for k in Kernel::parsec_extended() {
            let (writes, far) = classify(&k, N);
            let (n, p) = (N as u64, k.far_reuse_probability);
            assert_binomial(&format!("{} writes", k.name), writes, n, k.write_ratio);
            // The first access has nothing behind it to re-reference.
            assert_binomial(&format!("{} far", k.name), far.len() as u64, n - 1, p);
        }
    }

    #[test]
    fn reuse_stream_and_jump_fractions_are_binomial() {
        // After the first access, fresh coins pick every access's branch:
        // far with probability f, else reuse with r, else a stream step
        // with s, else a random jump. So over the N − 1 later accesses
        // each branch count is binomial. The family is 27 checks (three
        // per kernel), so each is held at 4.2σ (two-sided 2.7e-5;
        // 27 × 2.7e-5 ≈ 7e-4).
        const N: u64 = 200_000;
        for k in Kernel::parsec_extended() {
            let mut s = AccessStream::new(&k, 0, 0x0051_ACD3);
            s.next_access();
            let mut counts = [0u64; 4];
            for _ in 1..N {
                s.next_access();
                counts[s.branch as usize] += 1;
            }
            let near = 1.0 - k.far_reuse_probability;
            let fresh = near * (1.0 - k.reuse_probability);
            for (what, branch, p) in [
                ("reuse", Branch::Reuse, near * k.reuse_probability),
                ("stream", Branch::Stream, fresh * k.stream_probability),
                ("jump", Branch::Jump, fresh * (1.0 - k.stream_probability)),
            ] {
                let what = format!("{} {what}", k.name);
                assert_binomial_at(&what, counts[branch as usize], N - 1, p, 4.2);
            }
        }
    }

    #[test]
    fn far_reuse_distance_is_log_uniform() {
        // d = ⌊64·(W/64)^u⌋ on [64, W] lines for u uniform on [0, 1),
        // so P(d ≤ x) = ln((x + 1)/64) / ln(W/64) below W.
        const N: usize = 200_000;
        for k in Kernel::parsec_extended() {
            let w = AccessStream::new(&k, 0, 0).working_lines;
            assert!(w >= 128, "{}: the window is the working set", k.name);
            let (_, far) = classify(&k, N);
            let cdf = |x: u64| {
                if x < 64 {
                    0.0
                } else if x >= w {
                    1.0
                } else {
                    ((x + 1) as f64 / 64.0).ln() / (w as f64 / 64.0).ln()
                }
            };
            assert_ks(&format!("{} far distance", k.name), far, cdf);
        }
    }

    #[test]
    fn reuse_heavy_kernel_has_better_locality() {
        // Feed both streams through a small cache; the reuse-heavy kernel
        // must miss less.
        use crate::cache::{Cache, CacheConfig};
        let run = |k: &Kernel| {
            let mut c = Cache::new(CacheConfig {
                name: "probe".into(),
                capacity: 32 << 10,
                associativity: 4,
                line_bytes: 64,
                read_latency: 0.0,
                write_latency: 0.0,
                read_energy: 0.0,
                write_energy: 0.0,
                leakage_power: 0.0,
            })
            .unwrap();
            let mut s = AccessStream::new(k, 0, 5);
            for _ in 0..50_000 {
                let a = s.next_access();
                c.access(a.address, a.write);
            }
            c.stats().miss_ratio()
        };
        let tight = run(&Kernel::swaptions());
        let streaming = run(&Kernel::streamcluster());
        assert!(
            tight < streaming,
            "swaptions {tight} vs streamcluster {streaming}"
        );
    }
}
