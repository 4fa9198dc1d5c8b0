//! The fault-tolerant sweep supervisor.
//!
//! [`par_map`](crate::par_map)/[`par_chunks`](crate::par_chunks) are the
//! right engine for healthy sweeps, but they are all-or-nothing: one panicking
//! task unwinds the whole pool, a hung task has no budget, and a killed sweep
//! loses everything in flight. This module wraps the same deterministic
//! indexed-task engine in a supervision layer:
//!
//! - **panic isolation** — every task attempt runs under
//!   [`std::panic::catch_unwind`]; a panic becomes a structured
//!   [`TaskFailure`] in the sweep's failure manifest instead of a process
//!   abort,
//! - **deadlines** — a per-task time budget ([`SupervisorConfig::deadline`],
//!   `MSS_DEADLINE_MS`) enforced through cooperative [`CancelToken`]s that
//!   long tasks poll at chunk boundaries (`mss-gemsim` access chunks,
//!   `mss-vaet` Monte Carlo batches, `mss-spice` batched-DC chunks),
//! - **deterministic bounded retry** — a failed attempt is retried up to
//!   [`SupervisorConfig::retry_max`] times with a backoff schedule derived
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

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::{task_rng, ParallelConfig, RunStats};
use mss_units::rng::Rng;

/// Environment variable holding the per-task deadline in milliseconds
/// (`0` disables the deadline; garbled values warn once and are ignored).
pub const DEADLINE_ENV: &str = "MSS_DEADLINE_MS";

/// Environment variable holding the per-task retry budget (retries *after*
/// the first attempt; garbled values warn once and are ignored).
pub const RETRY_ENV: &str = "MSS_RETRY_MAX";

/// Domain-separation constant folded into the backoff RNG stream so backoff
/// draws never correlate with the task's own sample draws.
const BACKOFF_DOMAIN: u64 = 0x5355_5045_5256_0001; // "SUPERV"+1

/// Supervision policy for one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Per-task wall-clock budget; `None` = unlimited. Enforced
    /// cooperatively: tasks observe it through [`TaskCtx::is_cancelled`] at
    /// chunk boundaries, and the engine refuses to start new attempts for a
    /// task whose budget is spent.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt (0 = fail fast).
    pub retry_max: u32,
    /// Upper bound on one deterministic backoff sleep.
    pub max_backoff: Duration,
    /// Seed of the backoff schedule (independent of task seeds).
    pub seed: u64,
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

    /// Reads the policy from the environment: [`DEADLINE_ENV`] and
    /// [`RETRY_ENV`], both following the `MSS_THREADS` warn-once convention
    /// (a garbled value warns on stderr once, bumps
    /// `exec.bad_deadline_env` / `exec.bad_retry_env`, and falls back to
    /// the safe default — never a panic, never a silent misconfiguration).
    pub fn from_env() -> Self {
        let mut cfg = Self::disabled();
        if let Ok(raw) = std::env::var(DEADLINE_ENV) {
            if !raw.trim().is_empty() {
                match parse_deadline_ms(&raw) {
                    Ok(deadline) => cfg.deadline = deadline,
                    Err(why) => {
                        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                        crate::warn_ignored_env_once(
                            &WARN_ONCE,
                            "exec.bad_deadline_env",
                            format!(
                                "warning: ignoring {DEADLINE_ENV}={raw:?} ({why}); \
                                 tasks run without a deadline"
                            ),
                        );
                    }
                }
            }
        }
        if let Ok(raw) = std::env::var(RETRY_ENV) {
            if !raw.trim().is_empty() {
                match parse_retry_max(&raw) {
                    Ok(n) => cfg.retry_max = n,
                    Err(why) => {
                        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                        crate::warn_ignored_env_once(
                            &WARN_ONCE,
                            "exec.bad_retry_env",
                            format!(
                                "warning: ignoring {RETRY_ENV}={raw:?} ({why}); \
                                 failed tasks are not retried"
                            ),
                        );
                    }
                }
            }
        }
        cfg
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
    pub fn effective_label(&self) -> &'static str {
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
    pub fn backoff(&self, index: u64, attempt: u32) -> Duration {
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

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Parses an [`DEADLINE_ENV`] value: a non-negative integer millisecond
/// count; `0` means "no deadline".
///
/// # Errors
///
/// A human-readable description of the rejected value.
pub fn parse_deadline_ms(raw: &str) -> Result<Option<Duration>, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value".to_string());
    }
    match trimmed.parse::<u64>() {
        Ok(0) => Ok(None),
        Ok(ms) => Ok(Some(Duration::from_millis(ms))),
        Err(_) => Err(format!("not a millisecond count: {trimmed:?}")),
    }
}

/// Parses an [`RETRY_ENV`] value: a non-negative integer retry budget.
///
/// # Errors
///
/// A human-readable description of the rejected value.
pub fn parse_retry_max(raw: &str) -> Result<u32, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value".to_string());
    }
    trimmed
        .parse::<u32>()
        .map_err(|_| format!("not a retry count: {trimmed:?}"))
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<Arc<CancelInner>>,
}

impl CancelInner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if matches!(self.deadline, Some(d) if Instant::now() >= d) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

/// A cooperative cancellation token.
///
/// Cheap to clone and to poll; long-running tasks check
/// [`is_cancelled`](Self::is_cancelled) at chunk boundaries and bail out
/// with their domain's `Cancelled` error. Tokens form a chain: a child
/// created by [`child_with_deadline`](Self::child_with_deadline) is
/// cancelled when its own deadline passes *or* any ancestor is cancelled.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A token that is never cancelled until [`cancel`](Self::cancel).
    pub fn new() -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that auto-cancels `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self::new().child_with_deadline(Some(budget))
    }

    /// A child token cancelled when `budget` (from now) elapses or this
    /// token is cancelled. `None` budget inherits cancellation only.
    pub fn child_with_deadline(&self, budget: Option<Duration>) -> Self {
        Self {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: budget.map(|b| Instant::now() + b),
                parent: Some(self.inner.clone()),
            }),
        }
    }

    /// Requests cancellation (idempotent; descendants observe it).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True when this token (or an ancestor) is cancelled or past its
    /// deadline.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// Time left until the *nearest* deadline anywhere on this token's
    /// chain: `None` when no ancestor carries one, zero once it has passed.
    /// This is the `budget_seconds` a sweep's progress events report.
    pub fn budget_remaining(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut best: Option<Duration> = None;
        let mut cur: Option<&CancelInner> = Some(&self.inner);
        while let Some(inner) = cur {
            if let Some(d) = inner.deadline {
                let rem = d.saturating_duration_since(now);
                best = Some(best.map_or(rem, |b: Duration| b.min(rem)));
            }
            cur = inner.parent.as_deref();
        }
        best
    }

    /// True when this token's *own* deadline (not an ancestor's flag) has
    /// passed. Used to classify a failure as deadline-vs-external.
    fn own_deadline_passed(&self) -> bool {
        matches!(self.inner.deadline, Some(d) if Instant::now() >= d)
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-attempt execution context handed to supervised task bodies.
#[derive(Debug)]
pub struct TaskCtx<'a> {
    /// Task index in the sweep (the determinism coordinate).
    pub index: usize,
    /// Attempt number, 0-based. Use **only** for fault-injection decisions;
    /// deriving results from it breaks the bit-replay contract.
    pub attempt: u32,
    token: &'a CancelToken,
}

impl TaskCtx<'_> {
    /// The attempt's cancellation token (per-task deadline chained to the
    /// sweep token); pass it down to chunk-boundary checks.
    pub fn token(&self) -> &CancelToken {
        self.token
    }

    /// True when this attempt should stop at the next chunk boundary.
    pub fn is_cancelled(&self) -> bool {
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
    /// The sweep was cancelled externally.
    Cancelled,
}

impl FailureKind {
    /// Stable kebab-case tag used in manifests and counters.
    pub fn tag(&self) -> &'static str {
        match self {
            FailureKind::Panicked { .. } => "panicked",
            FailureKind::Failed { .. } => "failed",
            FailureKind::DeadlineExceeded => "deadline-exceeded",
            FailureKind::Cancelled => "cancelled",
        }
    }

    /// Is retrying this failure ever useful? Deadline/cancellation are
    /// terminal: the budget that killed attempt `k` would kill `k+1` too.
    fn retryable(&self) -> bool {
        matches!(
            self,
            FailureKind::Panicked { .. } | FailureKind::Failed { .. }
        )
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panicked { message } => write!(f, "panicked: {message}"),
            FailureKind::Failed { message } => write!(f, "failed: {message}"),
            FailureKind::DeadlineExceeded => f.write_str("deadline exceeded"),
            FailureKind::Cancelled => f.write_str("cancelled"),
        }
    }
}

/// One task's terminal failure record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Task index in the sweep.
    pub index: usize,
    /// Attempts actually executed (0 = never started: cancelled in queue).
    pub attempts: u32,
    /// Terminal classification.
    pub kind: FailureKind,
}

impl TaskFailure {
    /// One NDJSON manifest line (stable field order, JSON-escaped message).
    pub fn to_json_line(&self) -> String {
        let message = match &self.kind {
            FailureKind::Panicked { message } | FailureKind::Failed { message } => message.as_str(),
            _ => "",
        };
        let mut escaped = String::with_capacity(message.len());
        for c in message.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                '\r' => escaped.push_str("\\r"),
                '\t' => escaped.push_str("\\t"),
                c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
                c => escaped.push(c),
            }
        }
        format!(
            "{{\"type\":\"task-failure\",\"index\":{},\"attempts\":{},\"kind\":\"{}\",\"message\":\"{}\"}}",
            self.index,
            self.attempts,
            self.kind.tag(),
            escaped
        )
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
    /// The run's throughput counters.
    pub stats: RunStats,
}

impl<U> PartialSweep<U> {
    /// Number of tasks in the sweep.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True for a zero-task sweep.
    pub fn is_empty(&self) -> bool {
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

/// The supervised engine: the deterministic indexed-task queue of
/// [`crate::par_map`] with per-attempt panic isolation, per-task deadline
/// tokens, and deterministic bounded retry.
fn run_supervised<U, F>(
    cfg: &ParallelConfig,
    sup: &SupervisorConfig,
    sweep_token: &CancelToken,
    tasks: usize,
    samples: u64,
    f: F,
) -> PartialSweep<U>
where
    U: Send,
    F: Fn(&TaskCtx<'_>) -> Result<U, FailureKind> + Sync,
{
    let _span = mss_obs::span("exec.supervise");
    let started = Instant::now();
    let threads = cfg.threads.max(1).min(tasks.max(1));
    mss_obs::counter_add("exec.supervise.tasks", tasks as u64);

    // Live telemetry: progress after every settled task, a heartbeat per
    // worker, one failure event per terminal failure. All of it rides the
    // opt-in event bus; with the bus off the cost is one atomic add per
    // task.
    let events_on = mss_obs::events::bus_enabled();
    let label = sup.effective_label();
    let settled = AtomicU64::new(0);
    let retried_total = AtomicU64::new(0);
    let note_settled = |_index: usize| {
        let done = settled.fetch_add(1, Ordering::Relaxed) + 1;
        if events_on {
            mss_obs::events::publish(mss_obs::events::EventPayload::Progress {
                sweep: label.to_string(),
                done,
                total: tasks as u64,
                retried: retried_total.load(Ordering::Relaxed),
                budget_seconds: sweep_token.budget_remaining().map(|d| d.as_secs_f64()),
            });
        }
    };
    let heartbeat = |worker: u32, tasks_done: u64, busy_seconds: f64| {
        if events_on {
            mss_obs::events::publish(mss_obs::events::EventPayload::Heartbeat {
                sweep: label.to_string(),
                worker,
                tasks_done,
                busy_seconds,
            });
        }
    };
    let note_failure = |fail: &TaskFailure| {
        if events_on {
            mss_obs::events::publish(mss_obs::events::EventPayload::Failure {
                sweep: label.to_string(),
                index: fail.index as u64,
                attempts: fail.attempts,
                kind: fail.kind.tag().to_string(),
                message: fail.kind.to_string(),
            });
        }
    };

    // One attempt of task `i`, fully isolated: panics are caught and
    // classified, deadline/cancellation rechecked on failure so a budget
    // that expired mid-attempt is reported as such, not as the error it
    // happened to surface as.
    let attempt_one = |i: usize, attempt: u32| -> Result<U, FailureKind> {
        let task_token = sweep_token.child_with_deadline(sup.deadline);
        let ctx = TaskCtx {
            index: i,
            attempt,
            token: &task_token,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
        let kind = match outcome {
            Ok(Ok(u)) => return Ok(u),
            Ok(Err(kind)) => kind,
            Err(payload) => {
                mss_obs::counter_add("exec.supervise.panics", 1);
                FailureKind::Panicked {
                    message: panic_message(payload.as_ref()),
                }
            }
        };
        // Classify by cause: an expired per-task budget wins over the
        // surface error, an externally cancelled sweep over both.
        if sweep_token.is_cancelled() {
            Err(FailureKind::Cancelled)
        } else if task_token.own_deadline_passed() {
            Err(FailureKind::DeadlineExceeded)
        } else {
            Err(kind)
        }
    };

    // Run-to-terminal for one task: retry retryable failures on a
    // deterministic backoff schedule.
    let run_task = |i: usize| -> Result<U, TaskFailure> {
        let mut attempt = 0u32;
        loop {
            match attempt_one(i, attempt) {
                Ok(u) => {
                    mss_obs::counter_add("exec.supervise.succeeded", 1);
                    return Ok(u);
                }
                Err(kind) => {
                    if kind.retryable() && attempt < sup.retry_max {
                        attempt += 1;
                        mss_obs::counter_add("exec.supervise.retries", 1);
                        retried_total.fetch_add(1, Ordering::Relaxed);
                        let backoff = sup.backoff(i as u64, attempt);
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        continue;
                    }
                    match &kind {
                        FailureKind::DeadlineExceeded => {
                            mss_obs::counter_add("exec.supervise.deadline", 1);
                        }
                        FailureKind::Cancelled => {
                            mss_obs::counter_add("exec.supervise.cancelled", 1);
                        }
                        _ => mss_obs::counter_add("exec.supervise.failed", 1),
                    }
                    let fail = TaskFailure {
                        index: i,
                        attempts: attempt + 1,
                        kind,
                    };
                    note_failure(&fail);
                    return Err(fail);
                }
            }
        }
    };

    // A task claimed after the sweep died is recorded unstarted.
    let skip_task = |i: usize| -> TaskFailure {
        mss_obs::counter_add("exec.supervise.cancelled", 1);
        let fail = TaskFailure {
            index: i,
            attempts: 0,
            kind: FailureKind::Cancelled,
        };
        note_failure(&fail);
        fail
    };

    if threads <= 1 || tasks <= 1 {
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(tasks);
        let mut failures = Vec::new();
        for i in 0..tasks {
            if sweep_token.is_cancelled() {
                results.push(None);
                failures.push(skip_task(i));
                note_settled(i);
                continue;
            }
            match run_task(i) {
                Ok(u) => results.push(Some(u)),
                Err(fail) => {
                    results.push(None);
                    failures.push(fail);
                }
            }
            note_settled(i);
            heartbeat(0, (i + 1) as u64, t0.elapsed().as_secs_f64());
        }
        let busy = t0.elapsed().as_secs_f64();
        let sweep = PartialSweep {
            results,
            failures,
            stats: RunStats {
                tasks: tasks as u64,
                samples,
                threads: 1,
                wall_seconds: started.elapsed().as_secs_f64(),
                busy_seconds: vec![busy],
            },
        };
        return finish_sweep(sup, label, events_on, sweep);
    }

    let slots: Vec<Mutex<Option<U>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let failures = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let mut busy_seconds = vec![0.0; threads];
    let parent_spans = mss_obs::SpanContext::capture();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let slots = &slots;
                let failures = &failures;
                let next = &next;
                let run_task = &run_task;
                let skip_task = &skip_task;
                let note_settled = &note_settled;
                let heartbeat = &heartbeat;
                let parent_spans = &parent_spans;
                scope.spawn(move || {
                    parent_spans.enter_worker(1 + worker as u32);
                    let mut busy = 0.0;
                    let mut tasks_done = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        if sweep_token.is_cancelled() {
                            failures
                                .lock()
                                .expect("failure manifest poisoned")
                                .push(skip_task(i));
                            note_settled(i);
                            continue;
                        }
                        let t0 = Instant::now();
                        let outcome = run_task(i);
                        busy += t0.elapsed().as_secs_f64();
                        tasks_done += 1;
                        match outcome {
                            Ok(u) => {
                                *slots[i].lock().expect("result slot poisoned") = Some(u);
                            }
                            Err(fail) => failures
                                .lock()
                                .expect("failure manifest poisoned")
                                .push(fail),
                        }
                        note_settled(i);
                        heartbeat(1 + worker as u32, tasks_done, busy);
                    }
                    busy
                })
            })
            .collect();
        for (k, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                // A worker thread itself cannot panic (attempts are caught),
                // so a join failure is an engine bug worth propagating.
                Ok(busy) => busy_seconds[k] = busy,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let results = slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned"))
        .collect();
    let mut failures = failures.into_inner().expect("failure manifest poisoned");
    failures.sort_by_key(|f| f.index);
    let sweep = PartialSweep {
        results,
        failures,
        stats: RunStats {
            tasks: tasks as u64,
            samples,
            threads,
            wall_seconds: started.elapsed().as_secs_f64(),
            busy_seconds,
        },
    };
    finish_sweep(sup, label, events_on, sweep)
}

/// End-of-sweep bookkeeping: when the event bus is live and the sweep ended
/// with failures (panic, deadline, cancellation or domain error), dump the
/// flight-recorder ring to `target/flight_<label>_<seed>.ndjson` so the
/// last moments before the failure survive the process.
fn finish_sweep<U>(
    sup: &SupervisorConfig,
    label: &str,
    events_on: bool,
    sweep: PartialSweep<U>,
) -> PartialSweep<U> {
    if events_on && !sweep.failures.is_empty() {
        let digest = format!("{label}_{:016x}", sup.seed);
        let reason = format!(
            "partial sweep: {} of {} tasks failed",
            sweep.failures.len(),
            sweep.len()
        );
        mss_obs::counter_add("exec.supervise.flight_dumps", 1);
        match mss_obs::events::bus().dump_flight(&digest, &reason) {
            Ok(path) => eprintln!("flight recorder: {reason} -> {}", path.display()),
            Err(e) => eprintln!("flight recorder: dump failed: {e}"),
        }
    }
    sweep
}

/// Classifies a domain error: a cooperative cancellation bail-out (the task
/// observed its token) maps onto the supervisor's own kinds so the engine
/// can distinguish "budget ran out" from "the computation is broken".
fn classify_err<E: std::fmt::Display>(e: &E, ctx: &TaskCtx<'_>) -> FailureKind {
    if ctx.is_cancelled() {
        // Which budget fired is resolved by the engine afterwards.
        FailureKind::Cancelled
    } else {
        FailureKind::Failed {
            message: e.to_string(),
        }
    }
}

/// Supervised [`crate::par_map`]: maps `f` over `items`, isolating panics,
/// enforcing the per-task deadline, retrying deterministically, and
/// returning a [`PartialSweep`] in item order.
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
    F: Fn(&TaskCtx<'_>, &T) -> Result<U, E> + Sync,
{
    supervised_map_with(cfg, sup, &CancelToken::new(), items, f)
}

/// [`supervised_map`] under an external sweep token — cancel it to stop
/// scheduling new tasks (in-flight tasks observe it cooperatively).
pub fn supervised_map_with<T, U, E, F>(
    cfg: &ParallelConfig,
    sup: &SupervisorConfig,
    token: &CancelToken,
    items: &[T],
    f: F,
) -> PartialSweep<U>
where
    T: Sync,
    U: Send,
    E: std::fmt::Display,
    F: Fn(&TaskCtx<'_>, &T) -> Result<U, E> + Sync,
{
    run_supervised(cfg, sup, token, items.len(), items.len() as u64, |ctx| {
        f(ctx, &items[ctx.index]).map_err(|e| classify_err(&e, ctx))
    })
}

/// Supervised [`crate::par_chunks`]: splits `0..total` into
/// [`ParallelConfig::chunk`]-sized ranges (boundaries independent of the
/// thread count) and supervises each chunk as one task.
pub fn supervised_chunks<U, E, F>(
    cfg: &ParallelConfig,
    sup: &SupervisorConfig,
    total: usize,
    f: F,
) -> PartialSweep<U>
where
    U: Send,
    E: std::fmt::Display,
    F: Fn(&TaskCtx<'_>, Range<usize>) -> Result<U, E> + Sync,
{
    let chunk = cfg.chunk.max(1);
    let tasks = total.div_ceil(chunk);
    run_supervised(cfg, sup, &CancelToken::new(), tasks, total as u64, |ctx| {
        let lo = ctx.index * chunk;
        let hi = (lo + chunk).min(total);
        f(ctx, lo..hi).map_err(|e| classify_err(&e, ctx))
    })
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
        for threads in [1, 2, 8] {
            let items: Vec<u64> = (0..100).collect();
            let sweep = supervised_map(&cfg(threads), &quiet_sup(), &items, |_, &x| {
                Ok::<_, String>(x * 7)
            });
            assert!(sweep.is_complete());
            assert_eq!(sweep.completed_count(), 100);
            let out = sweep.into_results().expect("complete");
            assert_eq!(out, items.iter().map(|x| x * 7).collect::<Vec<_>>());
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
    fn external_cancellation_stops_scheduling() {
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u32> = (0..20).collect();
        let sweep = supervised_map_with(&cfg(2), &quiet_sup(), &token, &items, |_, &x| {
            Ok::<_, String>(x)
        });
        assert_eq!(sweep.completed_count(), 0);
        assert_eq!(sweep.failures.len(), 20);
        for f in &sweep.failures {
            assert_eq!(f.kind, FailureKind::Cancelled);
            assert_eq!(f.attempts, 0, "never started");
        }
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
    fn token_chains_inherit_cancellation() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(None);
        let timed = parent.child_with_deadline(Some(Duration::from_secs(3600)));
        assert!(!child.is_cancelled());
        assert!(!timed.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(timed.is_cancelled());
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert!(expired.is_cancelled());
    }

    #[test]
    fn supervised_chunks_covers_everything_once() {
        let cfg = cfg(3).with_chunk(7);
        let sweep = supervised_chunks(&cfg, &quiet_sup(), 100, |_, r| Ok::<_, String>(r));
        assert!(sweep.is_complete());
        let mut seen = [false; 100];
        for r in sweep.into_results().expect("complete") {
            for i in r {
                assert!(!seen[i], "index {i} covered twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
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
    fn env_parsers_follow_the_threads_convention() {
        assert_eq!(
            parse_deadline_ms("250"),
            Ok(Some(Duration::from_millis(250)))
        );
        assert_eq!(
            parse_deadline_ms(" 10 "),
            Ok(Some(Duration::from_millis(10)))
        );
        assert_eq!(parse_deadline_ms("0"), Ok(None), "0 disables the deadline");
        for bad in ["fast", "-5", "2.5", "", "  "] {
            assert!(parse_deadline_ms(bad).is_err(), "{bad:?}");
        }
        assert_eq!(parse_retry_max("3"), Ok(3));
        assert_eq!(parse_retry_max("0"), Ok(0));
        for bad in ["many", "-1", "1.5", ""] {
            assert!(parse_retry_max(bad).is_err(), "{bad:?}");
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
