//! The fault-tolerant sweep supervisor.
//!
//! [`par_map`](crate::par_map)/[`par_chunks`](crate::par_chunks) are the
//! right engine for healthy sweeps, but they are all-or-nothing: one panicking
//! task unwinds the whole pool and a hung task has no budget. This module
//! runs each task of a sweep through the same deterministic indexed-task
//! engine, wrapped in a supervision layer:
//!
//! - **panic isolation** — every task attempt runs under
//!   [`std::panic::catch_unwind`]; a panic becomes a structured
//!   [`TaskFailure`] in the sweep's failure manifest instead of a process
//!   abort,
//! - **deadlines** — a per-task time budget (`SupervisorConfig::deadline`)
//!   armed as one [`CancelToken`] per attempt, which long tasks poll at chunk
//!   boundaries (`mss-gemsim` access chunks, and through them the MAGPIE
//!   flow's kernel × scenario pairs),
//! - **deterministic bounded retry** — a failed attempt is retried up to
//!   `SupervisorConfig::retry_max` times with a backoff schedule derived
//!   from the task's own RNG stream, so a retried sweep replays
//!   bit-identically at any `MSS_THREADS`,
//! - **graceful degradation** — the sweep returns a [`PartialSweep`]:
//!   completed results in task order plus a per-task failure manifest, never
//!   all-or-nothing.
//!
//! # Determinism contract
//!
//! Task bodies must derive everything random from `(seed, task index)` — the
//! same contract as [`par_map`](crate::par_map) — and must **not** derive
//! anything from [`TaskCtx::attempt`] except fault-injection decisions. Under
//! that contract a task that succeeds on attempt `k` produces exactly the
//! bytes it would have produced on attempt 0, so the surviving subset of a
//! chaotic sweep is bit-identical to the same subset of a healthy one.
//! Deadlines are inherently wall-clock dependent: *which* tasks a deadline
//! kills can vary between runs, but every task that completes is still
//! bit-exact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::{run_indexed, task_rng, ParallelConfig};
use mss_obs::events::EventPayload;
use mss_units::rng::Rng;

/// Domain-separation constant folded into the backoff RNG stream so backoff
/// draws never correlate with the task's own sample draws.
const BACKOFF_DOMAIN: u64 = 0x5355_5045_5256_0001; // "SUPERV"+1

/// Supervision policy for one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Per-task wall-clock budget; `None` = unlimited. Enforced
    /// cooperatively: each attempt gets a fresh [`CancelToken`] that the
    /// task observes through [`TaskCtx::is_cancelled`] at chunk boundaries.
    pub(crate) deadline: Option<Duration>,
    /// Retries after the first attempt (0 = fail fast).
    pub(crate) retry_max: u32,
    /// Upper bound on one deterministic backoff sleep.
    pub(crate) max_backoff: Duration,
    /// Seed of the backoff schedule (independent of task seeds).
    pub(crate) seed: u64,
    /// Sweep label stamped on telemetry-bus progress/heartbeat/failure
    /// events (e.g. `gemsim.run_many`); `""` renders as `sweep`.
    pub label: &'static str,
}

impl SupervisorConfig {
    /// No deadline, no retries: supervised execution with panic isolation
    /// and partial results only.
    pub const fn disabled() -> Self {
        Self {
            deadline: None,
            retry_max: 0,
            max_backoff: Duration::from_millis(20),
            seed: 0,
            label: "",
        }
    }

    /// Returns the policy with a per-task deadline.
    pub const fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the policy with a retry budget.
    pub const fn with_retry_max(mut self, retry_max: u32) -> Self {
        self.retry_max = retry_max;
        self
    }

    /// Returns the policy with a backoff seed.
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the policy with a backoff cap (0 disables backoff sleeps —
    /// useful in tests and chaos benches).
    pub const fn with_max_backoff(mut self, max_backoff: Duration) -> Self {
        self.max_backoff = max_backoff;
        self
    }

    /// Returns the policy with a telemetry sweep label.
    pub const fn with_label(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// The label stamped on bus events: [`Self::label`], or `sweep` when
    /// unset.
    pub(crate) fn effective_label(&self) -> &'static str {
        if self.label.is_empty() {
            "sweep"
        } else {
            self.label
        }
    }

    /// The deterministic backoff before retry `attempt` (1-based) of task
    /// `index`: drawn from the task's dedicated backoff RNG stream and
    /// scaled exponentially, capped at [`Self::max_backoff`].
    ///
    /// A pure function of `(seed, index, attempt)` — the schedule replays
    /// identically at any thread count.
    pub(crate) fn backoff(&self, index: u64, attempt: u32) -> Duration {
        let cap = self.max_backoff.as_nanos() as u64;
        if cap == 0 || attempt == 0 {
            return Duration::ZERO;
        }
        let mut rng = task_rng(self.seed ^ BACKOFF_DOMAIN, index);
        // attempt-th draw of the stream: skip deterministically.
        let mut draw = rng.next_u64();
        for _ in 1..attempt {
            draw = rng.next_u64();
        }
        // Exponential floor: the jitter window shrinks toward the cap as
        // attempts accumulate, so later retries wait at least as long.
        let scale = 1u64 << attempt.min(20);
        let window = (cap / scale.max(1)).max(1);
        Duration::from_nanos(cap.saturating_sub(window) + draw % window)
    }
}

/// A per-attempt deadline, polled cooperatively.
///
/// Cheap to copy and to poll; long-running tasks check
/// [`is_cancelled`](Self::is_cancelled) at chunk boundaries and bail out
/// with their domain's `Cancelled` error. The deadline is the only thing
/// that cancels a token.
#[derive(Debug, Clone, Copy)]
pub struct CancelToken {
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that expires `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self::after(Some(budget))
    }

    /// A token that expires `budget` from now, or never for `None`.
    fn after(budget: Option<Duration>) -> Self {
        Self {
            deadline: budget.map(|b| Instant::now() + b),
        }
    }

    /// True once the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time left until the deadline: `None` when the token has none, zero
    /// once it has passed. This is the `budget_seconds` a sweep's progress
    /// events report.
    pub(crate) fn budget_remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// Per-attempt execution context handed to supervised task bodies.
#[derive(Debug)]
pub struct TaskCtx {
    /// Task index in the sweep (the determinism coordinate).
    pub index: usize,
    /// Attempt number, 0-based. Use **only** for fault-injection decisions;
    /// deriving results from it breaks the bit-replay contract.
    pub attempt: u32,
    token: CancelToken,
}

impl TaskCtx {
    /// The attempt's deadline token; pass it down to chunk-boundary checks.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// True when this attempt should stop at the next chunk boundary.
    #[cfg(test)]
    pub(crate) fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }
}

/// Why a supervised task did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The task panicked (payload message captured).
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The task returned its domain error.
    Failed {
        /// The rendered error.
        message: String,
    },
    /// The task's per-task time budget ran out.
    DeadlineExceeded,
}

impl FailureKind {
    /// Stable kebab-case tag used in manifests and counters.
    pub fn tag(&self) -> &'static str {
        match self {
            FailureKind::Panicked { .. } => "panicked",
            FailureKind::Failed { .. } => "failed",
            FailureKind::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panicked { message } => write!(f, "panicked: {message}"),
            FailureKind::Failed { message } => write!(f, "failed: {message}"),
            FailureKind::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

/// One task's terminal failure record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Task index in the sweep.
    pub index: usize,
    /// Attempts executed (at least 1).
    pub attempts: u32,
    /// Terminal classification.
    pub kind: FailureKind,
}

impl TaskFailure {
    /// One NDJSON manifest line (stable field order, JSON-escaped message).
    pub fn to_json_line(&self) -> String {
        let message = match &self.kind {
            FailureKind::Panicked { message } | FailureKind::Failed { message } => message.as_str(),
            FailureKind::DeadlineExceeded => "",
        };
        mss_obs::json::Line::new()
            .str("type", "task-failure")
            .u64("index", self.index as u64)
            .u64("attempts", u64::from(self.attempts))
            .str("kind", self.kind.tag())
            .str("message", message)
            .finish()
    }
}

/// The outcome of a supervised sweep: completed results in task order plus
/// the failure manifest — graceful degradation instead of all-or-nothing.
#[derive(Debug, Clone)]
pub struct PartialSweep<U> {
    /// One slot per task, in task order; `None` where the task failed.
    pub results: Vec<Option<U>>,
    /// Terminal failures, sorted by task index.
    pub failures: Vec<TaskFailure>,
}

impl<U> PartialSweep<U> {
    /// True for a zero-task sweep.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Did every task complete?
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Completed `(index, result)` pairs in task order.
    pub fn completed(&self) -> impl Iterator<Item = (usize, &U)> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|u| (i, u)))
    }

    /// Number of completed tasks.
    pub fn completed_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// All results, or the first failure (all-or-nothing view for callers
    /// that cannot use a partial sweep).
    ///
    /// # Errors
    ///
    /// The lowest-index [`TaskFailure`] when any task failed.
    pub fn into_results(mut self) -> Result<Vec<U>, TaskFailure> {
        if let Some(first) = self.failures.first() {
            return Err(first.clone());
        }
        Ok(self
            .results
            .drain(..)
            .map(|r| r.expect("complete sweep has every slot filled"))
            .collect())
    }

    /// The NDJSON failure manifest (one line per failure, index order;
    /// empty string for a complete sweep).
    pub fn failure_manifest(&self) -> String {
        let mut out = String::new();
        for f in &self.failures {
            out.push_str(&f.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Supervised [`crate::par_map`]: maps `f` over `items` on the same task
/// engine, isolating panics, enforcing the per-task deadline, retrying
/// deterministically, and returning a [`PartialSweep`] in item order.
///
/// When the event bus is live, every settled task publishes a `progress`
/// event (its last attempt's remaining budget as `budget_seconds`) and a
/// `heartbeat` for the worker that ran it, every terminal failure a
/// `failure` event, and a sweep that ends with failures dumps the
/// flight-recorder ring to `target/flight_<label>_<seed>.ndjson`.
pub fn supervised_map<T, U, E, F>(
    cfg: &ParallelConfig,
    sup: &SupervisorConfig,
    items: &[T],
    f: F,
) -> PartialSweep<U>
where
    T: Sync,
    U: Send,
    E: std::fmt::Display,
    F: Fn(&TaskCtx, &T) -> Result<U, E> + Sync,
{
    let _span = mss_obs::span("exec.supervise");
    let tasks = items.len();
    mss_obs::counter_add("exec.supervise.tasks", tasks as u64);
    // Live telemetry rides the opt-in event bus; with the bus off none of
    // the progress/heartbeat bookkeeping runs.
    let events_on = mss_obs::events::bus_enabled();
    let label = sup.effective_label();
    let settled = AtomicU64::new(0);
    let retried_total = AtomicU64::new(0);
    // Per-worker `(tasks settled, busy seconds)` for heartbeats, indexed by
    // the engine's worker ordinal.
    let workers: Vec<Mutex<(u64, f64)>> = (0..=cfg.threads.max(1))
        .map(|_| Mutex::new((0, 0.0)))
        .collect();

    // One attempt of task `i` under its own deadline, fully isolated: a
    // panic is caught and classified, and a failure after the budget ran
    // out is reported as the deadline, not as the error it surfaced as.
    let attempt_one = |i: usize, attempt: u32, token: CancelToken| -> Result<U, FailureKind> {
        let ctx = TaskCtx {
            index: i,
            attempt,
            token,
        };
        let kind = match catch_unwind(AssertUnwindSafe(|| f(&ctx, &items[i]))) {
            Ok(Ok(u)) => return Ok(u),
            Ok(Err(e)) => FailureKind::Failed {
                message: e.to_string(),
            },
            Err(payload) => {
                mss_obs::counter_add("exec.supervise.panics", 1);
                FailureKind::Panicked {
                    message: panic_message(payload.as_ref()),
                }
            }
        };
        if token.is_cancelled() {
            Err(FailureKind::DeadlineExceeded)
        } else {
            Err(kind)
        }
    };

    // Run-to-terminal for one task: retry panics and domain errors on a
    // deterministic backoff schedule; a spent deadline is terminal, since
    // the budget that killed attempt `k` would kill `k + 1` too. Returns
    // the outcome and the last attempt's token.
    let run_task = |i: usize| -> (Result<U, TaskFailure>, CancelToken) {
        let mut attempt = 0u32;
        loop {
            let token = CancelToken::after(sup.deadline);
            let kind = match attempt_one(i, attempt, token) {
                Ok(u) => {
                    mss_obs::counter_add("exec.supervise.succeeded", 1);
                    return (Ok(u), token);
                }
                Err(kind) => kind,
            };
            if kind != FailureKind::DeadlineExceeded && attempt < sup.retry_max {
                attempt += 1;
                mss_obs::counter_add("exec.supervise.retries", 1);
                retried_total.fetch_add(1, Ordering::Relaxed);
                let backoff = sup.backoff(i as u64, attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                continue;
            }
            if kind == FailureKind::DeadlineExceeded {
                mss_obs::counter_add("exec.supervise.deadline", 1);
            } else {
                mss_obs::counter_add("exec.supervise.failed", 1);
            }
            let fail = TaskFailure {
                index: i,
                attempts: attempt + 1,
                kind,
            };
            if events_on {
                mss_obs::events::publish(EventPayload::Failure {
                    sweep: label.to_string(),
                    index: fail.index as u64,
                    attempts: fail.attempts,
                    kind: fail.kind.tag().to_string(),
                    message: fail.kind.to_string(),
                });
            }
            return (Err(fail), token);
        }
    };

    let (outcomes, _) = run_indexed(cfg, tasks, tasks as u64, |i, worker| {
        let t0 = Instant::now();
        let (outcome, token) = run_task(i);
        if events_on {
            let done = settled.fetch_add(1, Ordering::Relaxed) + 1;
            mss_obs::events::publish(EventPayload::Progress {
                sweep: label.to_string(),
                done,
                total: tasks as u64,
                retried: retried_total.load(Ordering::Relaxed),
                budget_seconds: token.budget_remaining().map(|d| d.as_secs_f64()),
            });
            let (tasks_done, busy_seconds) = {
                let mut w = workers[worker as usize]
                    .lock()
                    .expect("heartbeat slot poisoned");
                w.0 += 1;
                w.1 += t0.elapsed().as_secs_f64();
                *w
            };
            mss_obs::events::publish(EventPayload::Heartbeat {
                sweep: label.to_string(),
                worker,
                tasks_done,
                busy_seconds,
            });
        }
        outcome
    });

    let mut results = Vec::with_capacity(tasks);
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(u) => results.push(Some(u)),
            Err(fail) => {
                results.push(None);
                failures.push(fail);
            }
        }
    }
    // A sweep that ended with failures on a live bus dumps the flight
    // recorder, so the last moments before the failure survive the process.
    if events_on && !failures.is_empty() {
        let digest = format!("{label}_{:016x}", sup.seed);
        let reason = format!("partial sweep: {} of {tasks} tasks failed", failures.len());
        mss_obs::counter_add("exec.supervise.flight_dumps", 1);
        match mss_obs::events::bus().dump_flight(&digest, &reason) {
            Ok(path) => eprintln!("flight recorder: {reason} -> {}", path.display()),
            Err(e) => eprintln!("flight recorder: dump failed: {e}"),
        }
    }
    PartialSweep { results, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threads: usize) -> ParallelConfig {
        ParallelConfig::serial().with_threads(threads)
    }

    fn quiet_sup() -> SupervisorConfig {
        SupervisorConfig::disabled().with_max_backoff(Duration::ZERO)
    }

    #[test]
    fn complete_sweep_matches_par_map() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let plain = crate::par_map(&cfg(threads), &items, |_, &x| x * 7);
            let sweep = supervised_map(&cfg(threads), &quiet_sup(), &items, |_, &x| {
                Ok::<_, String>(x * 7)
            });
            assert!(sweep.is_complete());
            assert_eq!(sweep.completed_count(), 100);
            assert_eq!(sweep.into_results().expect("complete"), plain);
        }
    }

    #[test]
    fn panics_become_structured_failures_not_aborts() {
        for threads in [1, 4] {
            let items: Vec<u32> = (0..64).collect();
            let sweep = supervised_map(&cfg(threads), &quiet_sup(), &items, |_, &x| {
                if x % 10 == 3 {
                    panic!("injected {x}");
                }
                Ok::<_, String>(x)
            });
            assert_eq!(sweep.failures.len(), 7, "threads={threads}");
            for f in &sweep.failures {
                assert_eq!(f.index % 10, 3);
                assert_eq!(f.attempts, 1);
                match &f.kind {
                    FailureKind::Panicked { message } => {
                        assert!(message.contains("injected"), "{message}");
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            }
            // Survivors are intact and in place.
            for (i, u) in sweep.completed() {
                assert_eq!(i as u32, *u);
            }
        }
    }

    #[test]
    fn domain_errors_are_recorded_with_their_message() {
        let items: Vec<u32> = (0..10).collect();
        let sweep = supervised_map(&cfg(2), &quiet_sup(), &items, |_, &x| {
            if x == 4 {
                Err(format!("bad item {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(sweep.failures.len(), 1);
        assert_eq!(
            sweep.failures[0].kind,
            FailureKind::Failed {
                message: "bad item 4".into()
            }
        );
        let err = sweep.into_results().expect_err("has a failure");
        assert_eq!(err.index, 4);
    }

    #[test]
    fn retry_replays_bit_identically_and_converges() {
        use std::sync::atomic::AtomicU64;
        // Attempt 0 of every third task panics; attempt 1 succeeds. The
        // retried sweep must equal the healthy sweep exactly.
        let items: Vec<u64> = (0..60).collect();
        let healthy = supervised_map(&cfg(4), &quiet_sup(), &items, |ctx, &x| {
            let mut rng = task_rng(42, ctx.index as u64);
            Ok::<_, String>(x.wrapping_mul(rng.next_u64()))
        });
        let attempts = AtomicU64::new(0);
        let sup = quiet_sup().with_retry_max(2);
        for threads in [1, 2, 8] {
            let chaotic = supervised_map(&cfg(threads), &sup, &items, |ctx, &x| {
                attempts.fetch_add(1, Ordering::Relaxed);
                if ctx.index % 3 == 0 && ctx.attempt == 0 {
                    panic!("flaky");
                }
                let mut rng = task_rng(42, ctx.index as u64);
                Ok::<_, String>(x.wrapping_mul(rng.next_u64()))
            });
            assert!(chaotic.is_complete(), "threads={threads}");
            assert_eq!(chaotic.results, healthy.results, "threads={threads}");
        }
        assert!(attempts.load(Ordering::Relaxed) > 3 * 60);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let items = [0u8; 5];
        let sup = quiet_sup().with_retry_max(3);
        let sweep = supervised_map(&cfg(1), &sup, &items, |_, _| {
            Err::<u8, _>("always fails".to_string())
        });
        assert_eq!(sweep.completed_count(), 0);
        for f in &sweep.failures {
            assert_eq!(f.attempts, 4, "1 attempt + 3 retries");
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let sup = SupervisorConfig::disabled()
            .with_seed(9)
            .with_max_backoff(Duration::from_millis(8));
        for index in 0..16u64 {
            for attempt in 1..5u32 {
                let a = sup.backoff(index, attempt);
                assert_eq!(a, sup.backoff(index, attempt), "pure function");
                assert!(a <= sup.max_backoff);
            }
        }
        assert_eq!(sup.backoff(3, 0), Duration::ZERO);
        assert_eq!(
            quiet_sup().backoff(3, 2),
            Duration::ZERO,
            "zero cap disables sleeping"
        );
        // Later attempts wait at least as long on average (windows shrink
        // toward the cap): attempt 3's floor exceeds attempt 1's floor.
        let floor = |attempt: u32| {
            (0..32)
                .map(|i| sup.backoff(i, attempt))
                .min()
                .expect("nonempty")
        };
        assert!(floor(4) >= floor(1));
    }

    #[test]
    fn per_task_deadline_is_classified_and_not_retried() {
        // Every task stalls past its budget, then observes the token.
        let sup = quiet_sup()
            .with_deadline(Duration::from_millis(5))
            .with_retry_max(3);
        let items = [(); 6];
        let sweep = supervised_map(&cfg(3), &sup, &items, |ctx, _| {
            std::thread::sleep(Duration::from_millis(20));
            if ctx.is_cancelled() {
                return Err("cooperative bail-out".to_string());
            }
            Ok(())
        });
        assert_eq!(sweep.completed_count(), 0);
        for f in &sweep.failures {
            assert_eq!(f.kind, FailureKind::DeadlineExceeded);
            assert_eq!(f.attempts, 1, "deadline failures are not retried");
        }
    }

    #[test]
    fn deadline_token_expires_and_reports_its_budget() {
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert!(expired.is_cancelled());
        assert_eq!(expired.budget_remaining(), Some(Duration::ZERO));
        let live = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!live.is_cancelled());
        let left = live.budget_remaining().expect("armed token has a budget");
        assert!(left > Duration::ZERO && left <= Duration::from_secs(3600));
        let unarmed = CancelToken::after(None);
        assert!(!unarmed.is_cancelled());
        assert_eq!(unarmed.budget_remaining(), None);
    }

    #[test]
    fn failure_manifest_is_stable_ndjson() {
        let items: Vec<u32> = (0..12).collect();
        let sweep = supervised_map(&cfg(4), &quiet_sup(), &items, |_, &x| {
            if x % 4 == 1 {
                panic!("chaos \"quoted\"\npayload");
            }
            Ok::<_, String>(x)
        });
        let manifest = sweep.failure_manifest();
        assert_eq!(manifest.lines().count(), 3);
        let mut last = -1i64;
        for line in manifest.lines() {
            assert!(line.starts_with("{\"type\":\"task-failure\""), "{line}");
            assert!(line.contains("\\\"quoted\\\""), "{line}");
            assert!(line.contains("\\n"), "{line}");
            let idx: i64 = line
                .split("\"index\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .expect("index field");
            assert!(idx > last, "manifest sorted by index");
            last = idx;
        }
    }

    #[test]
    fn failure_lines_are_pinned_byte_for_byte() {
        let cases = [
            (
                FailureKind::Panicked {
                    message: "chaos \"q\"\nat\u{1}".into(),
                },
                "{\"type\":\"task-failure\",\"index\":17,\"attempts\":3,\"kind\":\"panicked\",\"message\":\"chaos \\\"q\\\"\\nat\\u0001\"}",
            ),
            (
                FailureKind::Failed {
                    message: "bad \\ input".into(),
                },
                "{\"type\":\"task-failure\",\"index\":17,\"attempts\":3,\"kind\":\"failed\",\"message\":\"bad \\\\ input\"}",
            ),
            (FailureKind::DeadlineExceeded, "{\"type\":\"task-failure\",\"index\":17,\"attempts\":3,\"kind\":\"deadline-exceeded\",\"message\":\"\"}"),
        ];
        for (kind, want) in cases {
            let line = TaskFailure {
                index: 17,
                attempts: 3,
                kind,
            }
            .to_json_line();
            assert_eq!(line, want);
        }
    }

    #[test]
    fn empty_sweep_is_trivially_complete() {
        let items: Vec<u32> = Vec::new();
        let sweep = supervised_map(&cfg(4), &quiet_sup(), &items, |_, &x| Ok::<_, String>(x));
        assert!(sweep.is_complete());
        assert!(sweep.is_empty());
        assert_eq!(sweep.failure_manifest(), "");
    }
}
