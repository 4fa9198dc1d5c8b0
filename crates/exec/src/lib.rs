//! `mss-exec` — the deterministic parallel runtime of the GREAT MSS flow.
//!
//! Monte Carlo volume is the accuracy knob of every distribution the paper
//! reports (Table 1 μ/σ, the Fig. 7–9 error-rate curves), so sampling
//! throughput decides how far the variation corners can be swept. This crate
//! provides the fan-out machinery used by `mss-vaet`, `mss-mtj`, `mss-nvsim`,
//! `mss-gemsim` and `mss-core`:
//!
//! - [`par_map`] / [`par_chunks`] — scoped-thread work-stealing fan-out
//!   (`std::thread::scope`, zero dependencies, no work ever outlives the
//!   call),
//! - [`ParallelConfig`] — thread/chunk policy with an `MSS_THREADS`
//!   environment override,
//! - [`RunStats`] — per-run counters (tasks, samples, wall time, per-thread
//!   utilization) for throughput reporting.
//!
//! # Determinism contract
//!
//! Tasks are *indexed*, and anything random a task does must derive from
//! `(seed, task index)` — see `task_rng` and
//! [`mss_units::rng::Xoshiro256PlusPlus::stream`]. Results are returned (and
//! must be reduced) **in task order**, never in completion order. Under that
//! contract a fixed seed produces bit-identical output at any thread count;
//! threads only change *when* a task runs, never *what* it computes or the
//! order results are merged in.
//!
//! # Examples
//!
//! ```
//! use mss_exec::{par_map, ParallelConfig};
//!
//! let cfg = ParallelConfig::serial().with_threads(4);
//! let squares = par_map(&cfg, &[1u64, 2, 3, 4], |_idx, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod supervise;

pub use supervise::{
    supervised_map, CancelToken, FailureKind, PartialSweep, SupervisorConfig, TaskCtx, TaskFailure,
};

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mss_units::rng::Xoshiro256PlusPlus;

/// Environment variable overriding the default worker-thread count.
pub(crate) const THREADS_ENV: &str = "MSS_THREADS";

/// Default task granularity: samples per chunk in [`par_chunks`].
///
/// Fixed (never derived from the thread count) so that chunk boundaries —
/// and therefore RNG streams and merge grouping — are identical no matter
/// how many workers run.
pub(crate) const DEFAULT_CHUNK: usize = 256;

/// Thread/chunk policy for a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to spawn (1 = run inline on the caller).
    pub threads: usize,
    /// Task granularity for [`par_chunks`] (items per chunk).
    pub chunk: usize,
}

impl ParallelConfig {
    /// One thread, default chunking: always-valid serial baseline.
    pub const fn serial() -> Self {
        Self {
            threads: 1,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Reads the policy from the environment: `MSS_THREADS` when set to a
    /// positive integer, otherwise the machine's available parallelism.
    ///
    /// A garbled override (`"eight"`, `"-2"`, `"0"`) is **not** silently
    /// ignored: it logs one warning to stderr (first occurrence only) and
    /// bumps the `exec.bad_threads_env` observability counter, then falls
    /// back to available parallelism — a misconfigured run stays runnable
    /// but diagnosable. An empty/whitespace value counts as unset.
    pub fn from_env() -> Self {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(raw) if !raw.trim().is_empty() => match parse_threads(&raw) {
                Ok(n) => Some(n),
                Err(why) => {
                    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                    warn_ignored_env_once(
                        &WARN_ONCE,
                        "exec.bad_threads_env",
                        format!(
                            "warning: ignoring {THREADS_ENV}={raw:?} ({why}); \
                             using available parallelism"
                        ),
                    );
                    None
                }
            },
            _ => None,
        };
        let threads =
            threads.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self {
            threads,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Returns the policy with a different thread count (minimum 1).
    pub const fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { 1 } else { threads };
        self
    }

    /// Returns the policy with a different chunk size (minimum 1).
    ///
    /// Changing the chunk changes batch boundaries and therefore the exact
    /// floating-point merge grouping of chunked reductions; keep it fixed
    /// when comparing runs bit-for-bit.
    pub const fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = if chunk == 0 { 1 } else { chunk };
        self
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The shared "garbled env var" convention: bump `counter`, print `message`
/// to stderr exactly once per call site (via the caller's `Once`), and let
/// the caller fall back to its safe default. Used by `MSS_THREADS` here and
/// by `MSS_CACHE`/`MSS_CACHE_DIR` in `mss-pipe`, so every layer warns with
/// one voice and never panics on a misconfiguration.
pub fn warn_ignored_env_once(
    once: &'static std::sync::Once,
    counter: &'static str,
    message: String,
) {
    mss_obs::counter_add(counter, 1);
    once.call_once(|| {
        eprintln!("{message}");
    });
}

/// Parses an `MSS_THREADS`-style thread-count override.
///
/// Accepts a positive integer with surrounding whitespace; everything else
/// (words, negatives, zero, fractions) is an error describing why, so
/// callers can warn instead of silently ignoring a misconfiguration.
///
/// # Errors
///
/// A human-readable description of the rejected value.
pub(crate) fn parse_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value".to_string());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("thread count must be positive, got 0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("not a positive integer: {trimmed:?}")),
    }
}

/// Counters describing one parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Number of tasks executed.
    pub(crate) tasks: u64,
    /// Number of leaf items (samples) the tasks covered.
    pub(crate) samples: u64,
    /// Wall-clock duration of the whole region, seconds.
    pub(crate) wall_seconds: f64,
    /// Per-thread busy time (seconds spent inside task bodies).
    pub(crate) busy_seconds: Vec<f64>,
}

impl RunStats {
    /// Records this run into the global observability registry under
    /// `name` (see `mss_obs::record_run`): `{name}.tasks`/`{name}.samples`
    /// counters plus wall-time and utilization histograms. No-op when
    /// observability is disabled.
    pub fn record(&self, name: &str) {
        mss_obs::record_run(
            name,
            self.tasks,
            self.samples,
            self.wall_seconds,
            &self.busy_seconds,
        );
    }
}

/// The deterministic per-task RNG: stream `index` of `seed`.
///
/// Convenience re-wrap of [`Xoshiro256PlusPlus::stream`] so callers don't
/// need to depend on `mss-units` naming.
pub(crate) fn task_rng(seed: u64, index: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::stream(seed, index)
}

/// The one task engine: runs `tasks` indexed closures over a shared work
/// queue. [`par_map`], [`par_chunks`] and the sweep supervisor all run on
/// it.
///
/// `f(index, worker)` also receives the worker ordinal running the task: 0
/// on the serial path, `1 + worker` on spawned threads (the observability
/// thread ordinal). Results come back in task order. Panics in a task
/// propagate to the caller.
pub(crate) fn run_indexed<U, F>(
    cfg: &ParallelConfig,
    tasks: usize,
    samples: u64,
    f: F,
) -> (Vec<U>, RunStats)
where
    U: Send,
    F: Fn(usize, u32) -> U + Sync,
{
    let started = Instant::now();
    let threads = cfg.threads.max(1).min(tasks.max(1));
    if threads <= 1 || tasks <= 1 {
        let t0 = Instant::now();
        let out: Vec<U> = (0..tasks).map(|i| f(i, 0)).collect();
        let busy = t0.elapsed().as_secs_f64();
        let stats = RunStats {
            tasks: tasks as u64,
            samples,
            wall_seconds: started.elapsed().as_secs_f64(),
            busy_seconds: vec![busy],
        };
        return (out, stats);
    }

    let slots: Vec<Mutex<Option<U>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let mut busy_seconds = vec![0.0; threads];
    let parent_spans = mss_obs::SpanContext::capture();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let slots = &slots;
                let next = &next;
                let f = &f;
                let parent_spans = &parent_spans;
                scope.spawn(move || {
                    // Pin the observability thread ordinal to `1 + worker`
                    // so span ownership and Chrome-trace timelines name
                    // workers stably across parallel regions (0 stays the
                    // main thread), and nest the worker's spans under the
                    // caller's so span paths do not depend on the thread
                    // count.
                    let ordinal = 1 + worker as u32;
                    parent_spans.enter_worker(ordinal);
                    let mut busy = 0.0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        let t0 = Instant::now();
                        let result = f(i, ordinal);
                        busy += t0.elapsed().as_secs_f64();
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                    busy
                })
            })
            .collect();
        for (k, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(busy) => busy_seconds[k] = busy,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let out = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("task completed without a result")
        })
        .collect();
    let stats = RunStats {
        tasks: tasks as u64,
        samples,
        wall_seconds: started.elapsed().as_secs_f64(),
        busy_seconds,
    };
    (out, stats)
}

/// Maps `f` over `items` in parallel, returning results **in item order**.
///
/// `f` receives `(index, &item)`; derive any randomness from the index (see
/// `task_rng`) to keep the run deterministic across thread counts.
pub fn par_map<T, U, F>(cfg: &ParallelConfig, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_stats(cfg, items, f).0
}

/// [`par_map`] with the run's [`RunStats`].
pub(crate) fn par_map_stats<T, U, F>(cfg: &ParallelConfig, items: &[T], f: F) -> (Vec<U>, RunStats)
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    run_indexed(cfg, items.len(), items.len() as u64, |i, _| f(i, &items[i]))
}

/// Splits `0..total` into [`ParallelConfig::chunk`]-sized ranges and runs
/// `f(chunk_index, range)` for each, returning per-chunk results **in chunk
/// order**.
///
/// Chunk boundaries depend only on `total` and `cfg.chunk` — not on the
/// thread count — so a chunked reduction merged in chunk order is
/// bit-identical at any parallelism.
pub fn par_chunks<U, F>(cfg: &ParallelConfig, total: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, Range<usize>) -> U + Sync,
{
    par_chunks_stats(cfg, total, f).0
}

/// [`par_chunks`] with the run's [`RunStats`].
pub fn par_chunks_stats<U, F>(cfg: &ParallelConfig, total: usize, f: F) -> (Vec<U>, RunStats)
where
    U: Send,
    F: Fn(usize, Range<usize>) -> U + Sync,
{
    let chunk = cfg.chunk.max(1);
    let tasks = total.div_ceil(chunk);
    run_indexed(cfg, tasks, total as u64, |i, _| {
        let lo = i * chunk;
        let hi = (lo + chunk).min(total);
        f(i, lo..hi)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_units::rng::Rng;

    #[test]
    fn par_map_preserves_order() {
        let cfg = ParallelConfig::serial().with_threads(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&cfg, &items, |_, &x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let cfg = ParallelConfig::serial().with_threads(8);
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&cfg, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&cfg, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn par_chunks_covers_every_index_once() {
        let cfg = ParallelConfig::serial().with_threads(3).with_chunk(7);
        let ranges = par_chunks(&cfg, 100, |_, r| r);
        let mut seen = [false; 100];
        for r in ranges {
            for i in r {
                assert!(!seen[i], "index {i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn results_are_thread_count_invariant() {
        // Each chunk draws from its own stream; the merged output must be
        // identical at 1, 2 and 8 threads.
        let run = |threads: usize| -> Vec<u64> {
            let cfg = ParallelConfig::serial()
                .with_threads(threads)
                .with_chunk(16);
            par_chunks(&cfg, 200, |idx, range| {
                let mut rng = task_rng(77, idx as u64);
                range.map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn stats_count_tasks_and_samples() {
        let cfg = ParallelConfig::serial().with_threads(2).with_chunk(10);
        let (_, stats) = par_chunks_stats(&cfg, 95, |_, r| r.len());
        assert_eq!(stats.tasks, 10);
        assert_eq!(stats.samples, 95);
        assert!(stats.wall_seconds >= 0.0);
        assert_eq!(stats.busy_seconds.len(), 2);
    }

    #[test]
    fn serial_fast_path_reports_one_thread() {
        let cfg = ParallelConfig::serial();
        let (out, stats) = par_map_stats(&cfg, &[1, 2, 3], |_, &x: &i32| x);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!((stats.tasks, stats.samples), (3, 3));
        assert_eq!(stats.busy_seconds.len(), 1);
    }

    #[test]
    fn config_floors_at_one() {
        assert_eq!(ParallelConfig::serial().with_threads(0).threads, 1);
        assert_eq!(ParallelConfig::serial().with_chunk(0).chunk, 1);
    }

    #[test]
    fn from_env_yields_positive_threads() {
        // Whatever the environment says, the policy must be runnable.
        let cfg = ParallelConfig::from_env();
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.chunk, DEFAULT_CHUNK);
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("8"), Ok(8));
        assert_eq!(parse_threads(" 4 "), Ok(4));
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("128"), Ok(128));
    }

    #[test]
    fn parse_threads_rejects_garbled_values_with_reasons() {
        for bad in ["eight", "-2", "0", "", "  ", "3.5", "4x", "+-1"] {
            let err = parse_threads(bad).expect_err(&format!("{bad:?} should be rejected"));
            assert!(!err.is_empty(), "{bad:?} error should explain itself");
        }
        // The zero case names the constraint, the word case echoes the value.
        assert!(parse_threads("0").unwrap_err().contains("positive"));
        assert!(parse_threads("eight").unwrap_err().contains("eight"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panics_propagate() {
        let cfg = ParallelConfig::serial().with_threads(4);
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&cfg, &items, |i, _| {
            if i == 33 {
                panic!("boom");
            }
            i
        });
    }
}
