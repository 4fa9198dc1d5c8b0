//! Deterministic chaos harness for the supervised sweep runtime.
//!
//! Where the [`FaultInjector`](crate::FaultInjector) attacks the *memory
//! under simulation*, this module attacks the *runtime itself*: it decides,
//! from a pure hash of `(seed, task, attempt)`, whether a supervised sweep
//! task should panic, fail with an error, or stall past its deadline — and
//! whether an on-disk cache entry should be damaged. The point is to
//! prove, in tests and in the `chaos_smoke` bench harness, that no injected
//! failure can abort the process, corrupt surviving results, or defeat
//! resume.
//!
//! Two properties make the chaos reproducible and *convergent*:
//!
//! - **Statelessness** — like [`FaultInjector`](crate::FaultInjector),
//!   every decision is a pure hash of its coordinate, so a fixed seed
//!   replays the exact same adversity at any `MSS_THREADS` and any
//!   scheduling order.
//! - **Attempt bounding** — injection is suppressed once `attempt`
//!   reaches [`ChaosPlan::max_faulty_attempts`], so a retrying supervisor
//!   with `retry_max >= max_faulty_attempts` is *guaranteed* to converge
//!   to the same bit-identical result an uninjected run produces. The
//!   supervisor's determinism contract (results derive from `(seed,
//!   index)`, never from `attempt`) does the rest.

use std::path::Path;
use std::time::Duration;

use mss_units::rng::{Rng, SplitMix64};

/// Substring present in every chaos-injected panic message; harnesses use
/// it to install a panic hook that silences expected chaos panics without
/// hiding real ones.
pub const PANIC_TAG: &str = "chaos-injected";

/// Domain-separation constants, one per adversity kind.
const KIND_PANIC: u64 = 0x43_48_50_4E; // "CHPN"
const KIND_FAIL: u64 = 0x43_48_46_4C; // "CHFL"
const KIND_STALL: u64 = 0x43_48_53_54; // "CHST"
const KIND_POISON: u64 = 0x43_48_44_4B; // "CHDK"

/// One SplitMix64 finalizer step.
#[inline]
fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// Chained hash of the full decision coordinate.
#[inline]
fn hash_decision(seed: u64, kind: u64, task: u64, attempt: u64) -> u64 {
    let mut h = mix(seed ^ kind);
    h = mix(h ^ task);
    mix(h ^ attempt)
}

/// Uniform `[0, 1)` from a hash, 53-bit precision.
#[inline]
fn uniform(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A stateless plan of runtime adversity.
///
/// All rates are per-`(task, attempt)` Bernoulli probabilities; kinds are
/// domain-separated so a task that panics on attempt 0 is not thereby more
/// likely to stall on attempt 1. The default plan injects nothing.
///
/// # Examples
///
/// ```
/// use mss_fault::chaos::ChaosPlan;
///
/// let plan = ChaosPlan::new(42).with_panic_rate(0.25);
/// // Pure function of the coordinate: always the same answer.
/// assert_eq!(plan.should_panic(3, 0), plan.should_panic(3, 0));
/// // Bounded: after `max_faulty_attempts` the task is left alone.
/// assert!(!plan.should_panic(3, plan.max_faulty_attempts));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed for every decision hash.
    pub(crate) seed: u64,
    /// Probability that a given `(task, attempt)` panics.
    pub(crate) panic_rate: f64,
    /// Probability that a given `(task, attempt)` fails with an error.
    pub(crate) fail_rate: f64,
    /// Probability that a given `(task, attempt)` stalls for [`Self::stall`].
    pub(crate) stall_rate: f64,
    /// How long an injected stall sleeps.
    pub(crate) stall: Duration,
    /// Attempts `>= max_faulty_attempts` are never injected, guaranteeing
    /// convergence under a supervisor with at least that many retries.
    pub max_faulty_attempts: u32,
}

impl ChaosPlan {
    /// A plan with the given seed and no adversity; chain `with_*` calls
    /// to arm it.
    pub const fn new(seed: u64) -> Self {
        Self {
            seed,
            panic_rate: 0.0,
            fail_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(50),
            max_faulty_attempts: 2,
        }
    }

    /// A plan that injects nothing.
    #[cfg(test)]
    pub(crate) const fn disabled() -> Self {
        Self::new(0)
    }

    /// Sets the per-attempt panic probability.
    pub const fn with_panic_rate(mut self, p: f64) -> Self {
        self.panic_rate = p;
        self
    }

    /// Sets the per-attempt error probability.
    pub const fn with_fail_rate(mut self, p: f64) -> Self {
        self.fail_rate = p;
        self
    }

    /// Sets the per-attempt stall probability and duration.
    pub const fn with_stall(mut self, p: f64, stall: Duration) -> Self {
        self.stall_rate = p;
        self.stall = stall;
        self
    }

    /// Sets the attempt bound past which no fault is injected.
    pub const fn with_max_faulty_attempts(mut self, n: u32) -> Self {
        self.max_faulty_attempts = n;
        self
    }

    /// True when any adversity can ever be injected.
    pub(crate) fn is_active(&self) -> bool {
        self.panic_rate > 0.0 || self.fail_rate > 0.0 || self.stall_rate > 0.0
    }

    /// Bernoulli draw at probability `p` for one decision coordinate,
    /// suppressed past the attempt bound.
    #[inline]
    fn draw(&self, kind: u64, task: u64, attempt: u32, p: f64) -> bool {
        if attempt >= self.max_faulty_attempts || p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        uniform(hash_decision(self.seed, kind, task, u64::from(attempt))) < p
    }

    /// Should attempt `attempt` of task `task` panic?
    #[inline]
    pub fn should_panic(&self, task: u64, attempt: u32) -> bool {
        self.draw(KIND_PANIC, task, attempt, self.panic_rate)
    }

    /// Should attempt `attempt` of task `task` fail with an error?
    #[inline]
    pub fn should_fail(&self, task: u64, attempt: u32) -> bool {
        self.draw(KIND_FAIL, task, attempt, self.fail_rate)
    }

    /// Should attempt `attempt` of task `task` stall, and for how long?
    #[inline]
    pub(crate) fn stall_for(&self, task: u64, attempt: u32) -> Option<Duration> {
        self.draw(KIND_STALL, task, attempt, self.stall_rate)
            .then_some(self.stall)
    }

    /// Applies the plan to one task attempt: sleeps through any injected
    /// stall, then panics or returns an `Err` if the draw says so.
    ///
    /// This is the one-line hook a supervised task body calls first. Panic
    /// messages carry [`PANIC_TAG`] so harness panic hooks can silence
    /// them; counters `fault.chaos.{stalls,panics,failures}` record what
    /// was actually injected.
    ///
    /// # Errors
    ///
    /// A rendered chaos failure when the fail draw fires.
    pub fn injure(&self, task: u64, attempt: u32) -> Result<(), String> {
        if !self.is_active() {
            return Ok(());
        }
        if let Some(stall) = self.stall_for(task, attempt) {
            mss_obs::counter_add("fault.chaos.stalls", 1);
            std::thread::sleep(stall);
        }
        if self.should_panic(task, attempt) {
            mss_obs::counter_add("fault.chaos.panics", 1);
            panic!("{PANIC_TAG} panic: task {task} attempt {attempt}");
        }
        if self.should_fail(task, attempt) {
            mss_obs::counter_add("fault.chaos.failures", 1);
            return Err(format!(
                "{PANIC_TAG} failure: task {task} attempt {attempt}"
            ));
        }
        Ok(())
    }
}

/// Deterministically damages a fraction of the on-disk cache entries under
/// `dir`, simulating torn writes and bit rot: each selected `*.ndjson`
/// entry is truncated to half its length. Returns how many entries were
/// poisoned (also counted as `fault.chaos.poisoned_entries`).
///
/// Selection hashes `(seed, file name)`, so the damaged set is independent
/// of directory iteration order. The disk tier treats damaged entries as
/// misses, so a flow pointed at a poisoned cache must still produce
/// bit-identical results — that is exactly what the chaos harness asserts.
///
/// # Errors
///
/// Real I/O errors only; a missing directory poisons nothing.
pub fn poison_cache_dir(dir: &Path, seed: u64, fraction: f64) -> std::io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(iter) => iter,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut poisoned = 0usize;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.ends_with(".ndjson") {
            continue;
        }
        let mut h = mix(seed ^ KIND_POISON);
        for byte in name.bytes() {
            h = mix(h ^ u64::from(byte));
        }
        if uniform(h) >= fraction {
            continue;
        }
        let path = entry.path();
        let len = std::fs::metadata(&path)?.len();
        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(len / 2)?;
        poisoned += 1;
    }
    if poisoned > 0 {
        mss_obs::counter_add("fault.chaos.poisoned_entries", poisoned as u64);
    }
    Ok(poisoned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_injects_nothing() {
        let plan = ChaosPlan::disabled();
        assert!(!plan.is_active());
        for task in 0..64 {
            for attempt in 0..4 {
                assert!(!plan.should_panic(task, attempt));
                assert!(!plan.should_fail(task, attempt));
                assert!(plan.stall_for(task, attempt).is_none());
                assert_eq!(plan.injure(task, attempt), Ok(()));
            }
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_the_coordinate() {
        let plan = ChaosPlan::new(99)
            .with_panic_rate(0.4)
            .with_fail_rate(0.4)
            .with_stall(0.4, Duration::from_millis(1));
        for task in 0..32 {
            for attempt in 0..2 {
                assert_eq!(
                    plan.should_panic(task, attempt),
                    plan.should_panic(task, attempt)
                );
                assert_eq!(
                    plan.should_fail(task, attempt),
                    plan.should_fail(task, attempt)
                );
                assert_eq!(plan.stall_for(task, attempt), plan.stall_for(task, attempt));
            }
        }
    }

    #[test]
    fn attempt_bound_guarantees_convergence() {
        // Even at rate 1.0, attempts at or past the bound are clean.
        let plan = ChaosPlan::new(7)
            .with_panic_rate(1.0)
            .with_fail_rate(1.0)
            .with_max_faulty_attempts(2);
        for task in 0..16 {
            assert!(plan.should_panic(task, 0));
            assert!(plan.should_panic(task, 1));
            assert!(!plan.should_panic(task, 2));
            assert!(!plan.should_fail(task, 2));
            assert_eq!(plan.injure(task, 2), Ok(()));
        }
    }

    #[test]
    fn kinds_are_domain_separated() {
        let plan = ChaosPlan::new(5)
            .with_panic_rate(0.5)
            .with_fail_rate(0.5)
            .with_stall(0.5, Duration::from_millis(1));
        let mut all_same = true;
        for task in 0..256 {
            let p = plan.should_panic(task, 0);
            let f = plan.should_fail(task, 0);
            let s = plan.stall_for(task, 0).is_some();
            if p != f || f != s {
                all_same = false;
            }
        }
        assert!(!all_same, "chaos kinds are correlated");
    }

    #[test]
    fn injure_reports_failures_with_the_tag() {
        let plan = ChaosPlan::new(1).with_fail_rate(1.0);
        let err = plan.injure(0, 0).expect_err("rate 1.0 must fail");
        assert!(err.contains(PANIC_TAG), "untagged chaos failure: {err}");
    }

    #[test]
    fn injure_panics_carry_the_tag() {
        let plan = ChaosPlan::new(1).with_panic_rate(1.0);
        let caught = std::panic::catch_unwind(|| plan.injure(0, 0));
        let payload = caught.expect_err("rate 1.0 must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a formatted string");
        assert!(message.contains(PANIC_TAG), "untagged panic: {message}");
    }

    #[test]
    fn poison_selects_deterministically_and_truncates() {
        let dir = std::env::temp_dir().join(format!("mss-chaos-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        for i in 0..20 {
            std::fs::write(
                dir.join(format!("stage-{i:02}.ndjson")),
                "header line\npayload line\n",
            )
            .expect("write entry");
        }
        std::fs::write(dir.join("not-an-entry.txt"), "untouched").expect("write decoy");

        let first = poison_cache_dir(&dir, 33, 0.5).expect("poison");
        assert!(first > 0 && first < 20, "degenerate selection: {first}");
        // Re-running with the same seed re-selects the same (now shorter)
        // files: deterministic in the names, not the contents.
        let second = poison_cache_dir(&dir, 33, 0.5).expect("re-poison");
        assert_eq!(first, second);
        assert_eq!(
            std::fs::read_to_string(dir.join("not-an-entry.txt")).expect("read decoy"),
            "untouched"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoning_a_missing_dir_is_a_noop() {
        let dir = std::env::temp_dir().join(format!("mss-chaos-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(poison_cache_dir(&dir, 1, 1.0).expect("noop"), 0);
    }
}
