//! Statistical Parsec-like kernels.
//!
//! The authors ran Parsec 3.0 binaries under full-system gem5; the
//! evaluation consumes only the aggregate activity that produces (runtime,
//! reads/writes, hits/misses, IPC). Each kernel here is a *statistical twin*:
//! an instruction mix, a working-set size and a stack-distance locality
//! model whose generated address stream reproduces the cache-level behaviour
//! class of the original (compute-bound vs memory-bound, streaming vs
//! reuse-heavy).

use mss_units::rng::{coin_threshold, Rng, Xoshiro256Lanes, Xoshiro256PlusPlus};

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
        if self.mean_reuse_distance < 1.0 {
            return fail("mean reuse distance must be >= 1 line".into());
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
/// single generated access. The draws come from an [`Xoshiro256Lanes`]
/// block generator whose hit bitmap answers the geometric reuse distance
/// a bitmap word at a time. The draw sequence is bit-identical to
/// [`crate::reference::NaiveStream`].
#[derive(Debug, Clone)]
pub struct AccessStream {
    /// The thread's xoshiro256++ stream; its hit threshold is the
    /// geometric continue-test (see [`AccessStream::new`]).
    rng: Xoshiro256Lanes,
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
    base: u64,
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

impl AccessStream {
    /// Creates a stream for `kernel`, thread `tid`, with a global seed.
    pub fn new(kernel: &Kernel, tid: u32, seed: u64) -> Self {
        let per_thread = (kernel.working_set / kernel.threads as u64).max(4 * LINE);
        // The geometric continue-test `next_f64() > p_geom` in integers:
        // with `u53 = next_u64() >> 11`, `u53 > p·2⁵³` ⟺
        // `u53 ≥ ⌊p·2⁵³⌋ + 1` (exact: u53 and its 2⁻⁵³ scaling are
        // lossless in f64, and p·2⁵³ is one f64 product). The run stops
        // at the first draw below this threshold.
        let p_geom = 1.0 / kernel.mean_reuse_distance.max(1.0);
        let geom_threshold = (p_geom * (1u64 << 53) as f64) as u64 + 1;
        Self {
            rng: Xoshiro256Lanes::new(
                Xoshiro256PlusPlus::seed_from_u64(
                    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid as u64 + 1),
                ),
                geom_threshold,
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
            base: (tid as u64) << 32,
        }
    }

    /// One Bernoulli draw against a [`coin_threshold`] — the integer twin
    /// of `self.rng.gen_bool(p)`, consuming exactly one `next_u64`.
    #[inline]
    fn coin(&mut self, threshold: u64) -> bool {
        (self.rng.next_u64() >> 11) < threshold
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
            return MemoryAccess {
                address: self.base + line * LINE,
                write,
            };
        }
        let reuse = self.hist_len > 0 && self.coin(self.reuse_coin);
        let line = if reuse {
            // Geometric stack distance over the recent-history ring, at
            // most `hist_len - 1` lines back (see [`AccessStream::new`]).
            let d = self.rng.run_length(self.hist_len - 1);
            // d lines back from the most recent entry (at hist_head - 1).
            self.history[((self.hist_head.wrapping_sub(1 + d)) & HISTORY_MASK) as usize]
        } else if self.coin(self.stream_coin) {
            // Sequential streaming within the working set.
            self.line += 1;
            if self.line == self.working_lines {
                self.line = 0;
            }
            self.line
        } else {
            // Random jump within the working set.
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
