//! `mss-obs` — the zero-dependency observability layer of the GREAT MSS flow.
//!
//! Every layer of the device→PDK→memory→system flow (LLG sweeps, MNA solves,
//! Monte Carlo batches, cache simulation, flow phases) reports into one
//! process-wide [`Registry`] of
//!
//! - **counters** — monotonically increasing named `u64`s,
//! - **histograms** — fixed-bucket (half-decade log₁₀) value distributions,
//! - **spans** — hierarchical RAII timers aggregated by path
//!   (`parent/child`); individual closings reach the [event bus](events),
//!   the one source of span timelines,
//! - **run records** — `mss-exec` `RunStats`-shaped entries (tasks, samples,
//!   wall time, per-thread utilization) folded into counters + histograms.
//!
//! The registry emits a machine-readable **NDJSON run report** (one JSON
//! object per line, see [`Registry::to_ndjson`]) that CI archives per run, so
//! performance work has a measured baseline instead of a guess.
//!
//! # Gating and overhead
//!
//! The global registry is gated by environment variables, parsed once per
//! process (see [`env_config`]):
//!
//! - `MSS_METRICS=1` — counters, gauges, histograms and span aggregates are
//!   live;
//! - `MSS_EVENTS=1` / `MSS_EVENTS_PATH=<file>` — enables the live
//!   [event bus](events) (typed progress/heartbeat/failure/gauge events,
//!   per-thread flight-recorder rings, NDJSON event stream). Together with
//!   `MSS_METRICS=1` the stream carries every span closing, which is what
//!   `mss_report chrome-trace` turns into a timeline.
//!
//! With none set the global API is a no-op behind a single relaxed atomic
//! load — instrumentation can stay in hot paths permanently. The disabled
//! cost is asserted by this crate's overhead smoke test.
//!
//! # Examples
//!
//! ```
//! use mss_obs::{Mode, Registry};
//!
//! let reg = Registry::new(Mode::Metrics);
//! {
//!     let _outer = reg.span("flow");
//!     let _inner = reg.span("characterize");
//!     reg.counter_add("cells.characterized", 42);
//! }
//! assert_eq!(reg.counter("cells.characterized"), 42);
//! let report = reg.to_ndjson();
//! assert!(report.lines().any(|l| l.contains("flow/characterize")));
//! ```

#![deny(missing_docs)]

pub mod events;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable enabling metrics (counters/histograms/spans).
pub const METRICS_ENV: &str = "MSS_METRICS";
/// Environment variable enabling the live [event bus](events).
pub const EVENTS_ENV: &str = "MSS_EVENTS";
/// Environment variable overriding the event-stream sink path (setting it
/// implies [`EVENTS_ENV`]).
pub const EVENTS_PATH_ENV: &str = "MSS_EVENTS_PATH";

/// Number of histogram buckets (half-decade log₁₀ spacing).
pub const HIST_BUCKETS: usize = 64;

/// NDJSON schema version emitted in the `meta` line.
///
/// Version 2 (the profiling schema) extends v1 with:
/// - `meta.dropped_events` — trace-buffer overflow count, surfaced so a
///   truncated timeline is never mistaken for a complete one,
/// - `histogram.mean`/`p50`/`p90`/`p99` — bucket-derived quantile estimates,
/// - `span.self_seconds` — time inside the span excluding child spans,
/// - `span.by_thread` — `[tid, count, total_seconds]` ownership slices,
/// - `event.tid` — the recording thread's ordinal (see
///   [`set_thread_ordinal`]).
///
/// Version 3 (the telemetry schema) extends v2 with:
/// - `gauge` lines — last-write-wins named values
///   (`{"type":"gauge","name":...,"value":...}`),
/// - `bus` lines — typed live events from the [event bus](events)
///   (`{"type":"bus","kind":"progress",...}`; see [`events::EventPayload`]),
/// - meta mode `"events"` — marks a pure event-stream file (live stream or
///   flight-recorder dump) rather than an aggregate run report.
///
/// The writer emits a strict subset of v3: run reports carry no `event`
/// lines and never mode `"trace"` (span timelines are the bus's
/// `span_close` lines), and their `dropped_events` is always 0. `mss-prof`
/// reads exactly this subset and rejects every other version.
pub const SCHEMA_VERSION: u32 = 3;

/// Counter bumped when `MSS_METRICS`/`MSS_EVENTS` hold a garbled value (the
/// value is warned about once on stderr and otherwise ignored).
pub const BAD_ENV_COUNTER: &str = "obs.bad_env";

/// What the registry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Record nothing; every call is a near-free early return.
    Off,
    /// Record counters, histograms and span aggregates.
    Metrics,
}

impl Mode {
    /// Reads the mode from `MSS_METRICS` via the process-wide
    /// cached [`env_config`] (parsed once, warned about once).
    ///
    /// Accepted spellings are [`parse_flag`]'s, plus unset. Anything else
    /// (`enable`, a stray path, …) is **not** silently treated as set:
    /// it warns once on stderr and counts as unset, following the
    /// `MSS_THREADS` / `MSS_CACHE` warn-once convention, and is tallied for
    /// the [`BAD_ENV_COUNTER`] (seeded into registries built via
    /// [`Registry::from_env`]).
    pub fn from_env() -> Self {
        env_config().mode
    }
}

/// The observability environment, parsed once per process.
///
/// Every consumer of `MSS_METRICS` / `MSS_EVENTS` /
/// `MSS_EVENTS_PATH` goes through this single cached snapshot, so garbled
/// values warn exactly once no matter how many registries, buses or call
/// sites consult the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvConfig {
    /// Recording mode from `MSS_METRICS`.
    pub mode: Mode,
    /// Whether the live event bus is enabled (`MSS_EVENTS`, or implied by a
    /// non-empty `MSS_EVENTS_PATH`).
    pub events: bool,
    /// Event-stream sink path override from `MSS_EVENTS_PATH` (`None` means
    /// the default `target/mss_events.ndjson` when the bus is enabled).
    pub events_path: Option<String>,
    /// Number of garbled variables encountered (each already warned about).
    pub bad_env: u64,
}

impl EnvConfig {
    /// Parses the observability environment from a variable lookup, returning
    /// the config plus the warning for each garbled variable (exactly one per
    /// variable). Pure — the cached entry point [`env_config`] feeds it
    /// `std::env::var` and prints the warnings once.
    pub fn parse_from(get: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let mut bad = 0u64;
        let mut flag = |key: &str| match get(key) {
            None => false,
            Some(raw) => match parse_flag(&raw) {
                Ok(set) => set,
                Err(why) => {
                    bad += 1;
                    warnings.push(format!(
                        "warning: ignoring {key}={raw:?} ({why}); \
                         expected 1/on/true/yes or 0/off/false/no"
                    ));
                    false
                }
            },
        };
        let mode = if flag(METRICS_ENV) {
            Mode::Metrics
        } else {
            Mode::Off
        };
        let events_flag = flag(EVENTS_ENV);
        let events_path = get(EVENTS_PATH_ENV).filter(|p| !p.trim().is_empty());
        let config = Self {
            mode,
            events: events_flag || events_path.is_some(),
            events_path,
            bad_env: bad,
        };
        (config, warnings)
    }
}

/// The cached process-wide [`EnvConfig`]: parsed (and warned about) exactly
/// once, on first use.
pub fn env_config() -> &'static EnvConfig {
    static CONFIG: OnceLock<EnvConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let (config, warnings) = EnvConfig::parse_from(|key| std::env::var(key).ok());
        for w in &warnings {
            eprintln!("{w}");
        }
        config
    })
}

/// Parses a boolean environment knob: the workspace's one flag grammar.
///
/// After trimming, case-insensitively: `1`/`on`/`true`/`yes` enable and
/// empty/`0`/`off`/`false`/`no` disable.
///
/// # Errors
///
/// A description of any other value, so callers can warn instead of
/// silently ignoring a misconfiguration.
pub fn parse_flag(raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "false" | "no" => Ok(false),
        "1" | "on" | "true" | "yes" => Ok(true),
        other => Err(format!("unrecognised value {other:?}")),
    }
}

/// Fixed-bucket histogram: half-decade log₁₀ buckets spanning `1e-18 ..
/// 1e14`, plus running count / sum / min / max.
///
/// Bucket `i` holds values in `[10^((i-36)/2), 10^((i-35)/2))`; values at or
/// below zero land in bucket 0, values beyond the range clamp to the edge
/// buckets. Consumers normally use the moments and treat buckets as shape.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for a value.
    fn bucket_of(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        let idx = (v.log10() * 2.0 + 36.0).floor();
        idx.clamp(0.0, (HIST_BUCKETS - 1) as f64) as usize
    }

    /// Records one observation (non-finite values count into bucket 0 and
    /// are excluded from the moments so a stray NaN cannot poison the sums).
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.buckets[Self::bucket_of(v)] += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the finite observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest finite observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.min <= self.max).then_some(self.min)
    }

    /// Largest finite observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.min <= self.max).then_some(self.max)
    }

    /// Bucket-derived quantile estimate (`q` clamped to `[0, 1]`), `None`
    /// when the histogram is empty.
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// `ceil(q·count)`-th observation and returns its geometric midpoint,
    /// clamped to the observed `[min, max]` so single-sample histograms and
    /// edge buckets report the recorded value rather than a bucket-shaped
    /// fiction. Bucket 0 (values ≤ 0, non-finite, or below `1e-18`) has no
    /// meaningful midpoint; it reports the observed minimum, or `0` when no
    /// finite value was ever recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let estimate = if i == 0 {
                    self.min().unwrap_or(0.0)
                } else {
                    10f64.powf((i as f64 - 35.5) / 2.0)
                };
                return Some(match (self.min(), self.max()) {
                    (Some(lo), Some(hi)) => estimate.clamp(lo, hi),
                    _ => estimate,
                });
            }
        }
        unreachable!("bucket counts always sum to self.count")
    }
}

/// Aggregate of one span path.
#[derive(Debug, Clone, Default)]
struct SpanAgg {
    count: u64,
    total_seconds: f64,
    /// Total time minus time spent in child spans (attribution: where the
    /// clock actually burned, not just what was on the stack).
    self_seconds: f64,
    min_seconds: f64,
    max_seconds: f64,
    /// Ownership slices keyed by thread ordinal: which worker closed this
    /// span, how often, and for how long.
    by_thread: BTreeMap<u32, ThreadSlice>,
}

/// Per-thread share of one span path.
#[derive(Debug, Clone, Copy, Default)]
struct ThreadSlice {
    count: u64,
    total_seconds: f64,
}

/// One open span on a thread's stack: its name plus the time already
/// attributed to completed child spans (used for self-time on close).
#[derive(Debug)]
struct Frame {
    name: &'static str,
    child_seconds: f64,
}

thread_local! {
    /// Active span frames on this thread, innermost last. Shared by every
    /// registry; span paths therefore reflect per-thread nesting.
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };

    /// This thread's ordinal for timeline attribution (lazily assigned, or
    /// pinned by [`set_thread_ordinal`]).
    static THREAD_ORDINAL: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
}

/// Next lazily-assigned thread ordinal. The first recording thread —
/// normally the main thread — gets 0; `mss-exec` workers pin `1 + worker`
/// via [`SpanContext::enter_worker`] before pulling tasks.
static NEXT_ORDINAL: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// Pins the calling thread's ordinal for span ownership and event-bus
/// timelines, so profiles and Chrome traces name workers stably across
/// parallel regions; threads that never pin one get the next free ordinal
/// on first use.
pub fn set_thread_ordinal(ordinal: u32) {
    THREAD_ORDINAL.with(|cell| cell.set(Some(ordinal)));
}

/// The spans open on one thread, captured so worker threads nest their own
/// spans under them: a span path then names the same chain of parents at
/// any thread count.
#[derive(Debug)]
pub struct SpanContext(Vec<&'static str>);

impl SpanContext {
    /// Captures the calling thread's open spans. Allocates nothing when no
    /// span is open, which is always the case with every registry off.
    pub fn capture() -> Self {
        Self(SPAN_STACK.with(|stack| stack.borrow().iter().map(|f| f.name).collect()))
    }

    /// Prepares a freshly spawned worker thread: pins its ordinal (see
    /// [`set_thread_ordinal`]) and seeds its span stack with inert copies of
    /// the captured frames. The copies never record and are never popped —
    /// the worker's own guards pop only the frames they pushed.
    pub fn enter_worker(&self, ordinal: u32) {
        set_thread_ordinal(ordinal);
        if !self.0.is_empty() {
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().extend(self.0.iter().map(|&name| Frame {
                    name,
                    child_seconds: 0.0,
                }));
            });
        }
    }
}

/// The calling thread's ordinal, assigning one if needed.
pub fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|cell| match cell.get() {
        Some(id) => id,
        None => {
            let id = NEXT_ORDINAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            cell.set(Some(id));
            id
        }
    })
}

/// A named-metric registry. One global instance backs the free functions;
/// tests construct their own for deterministic, env-independent behaviour.
#[derive(Debug)]
pub struct Registry {
    mode: Mode,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
}

impl Registry {
    /// Creates a registry in the given mode.
    pub fn new(mode: Mode) -> Self {
        Self {
            mode,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
        }
    }

    /// Creates a registry with the mode from the cached [`env_config`];
    /// garbled `MSS_METRICS`/`MSS_EVENTS` values are warned about
    /// once (at env parse) and seed the [`BAD_ENV_COUNTER`] so a
    /// misconfigured run stays diagnosable from its own report.
    pub fn from_env() -> Self {
        let env = env_config();
        let reg = Self::new(env.mode);
        if env.bad_env > 0 {
            reg.counter_add(BAD_ENV_COUNTER, env.bad_env);
        }
        reg
    }

    /// The recording mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// True when anything at all is recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != Mode::Off
    }

    /// Adds `n` to the named counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        let mut counters = self.counters.lock().expect("obs counters poisoned");
        *counters.entry_or_insert(name) += n;
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("obs counters poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Sets the named gauge to `v` (last write wins).
    ///
    /// Gauges are point-in-time levels — cache occupancy, hit ratio,
    /// extrapolated access counts — where only the latest value matters,
    /// unlike monotonically accumulating counters.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if !self.enabled() {
            return;
        }
        let mut gauges = self.gauges.lock().expect("obs gauges poisoned");
        *gauges.entry_or_insert(name) = v;
    }

    /// Current value of a gauge, `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .lock()
            .expect("obs gauges poisoned")
            .get(name)
            .copied()
    }

    /// Records a value into the named histogram.
    pub fn record_value(&self, name: &str, v: f64) {
        if !self.enabled() {
            return;
        }
        let mut hists = self.histograms.lock().expect("obs histograms poisoned");
        hists.entry_or_insert(name).record(v);
    }

    /// Snapshot of a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms
            .lock()
            .expect("obs histograms poisoned")
            .get(name)
            .cloned()
    }

    /// Opens a hierarchical timed span; the returned guard records on drop.
    ///
    /// The span's path is the `/`-joined chain of spans currently open on
    /// this thread (`flow/simulate/gemsim.run`). Disabled registries return
    /// an inert guard without touching the clock.
    #[must_use = "the span measures until the guard is dropped"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                registry: None,
                path: String::new(),
                start: None,
                publish: false,
            };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(Frame {
                name,
                child_seconds: 0.0,
            });
            stack.iter().map(|f| f.name).collect::<Vec<_>>().join("/")
        });
        SpanGuard {
            registry: Some(self),
            path,
            start: Some(Instant::now()),
            publish: false,
        }
    }

    /// Folds one parallel-region run record (the shape of `mss-exec`'s
    /// `RunStats`) into counters and histograms under `name`:
    ///
    /// - `{name}.tasks`, `{name}.samples` counters,
    /// - `{name}.wall_seconds` histogram of the region wall time,
    /// - `{name}.utilization` histogram of mean busy/wall across workers.
    ///
    /// Takes primitives rather than the struct so `mss-exec` can depend on
    /// this crate without a cycle.
    pub fn record_run(
        &self,
        name: &str,
        tasks: u64,
        samples: u64,
        wall_seconds: f64,
        busy_seconds: &[f64],
    ) {
        if !self.enabled() {
            return;
        }
        self.counter_add(&format!("{name}.tasks"), tasks);
        self.counter_add(&format!("{name}.samples"), samples);
        self.record_value(&format!("{name}.wall_seconds"), wall_seconds);
        if wall_seconds > 0.0 && !busy_seconds.is_empty() {
            let mean_busy = busy_seconds.iter().sum::<f64>() / busy_seconds.len() as f64;
            self.record_value(&format!("{name}.utilization"), mean_busy / wall_seconds);
        }
    }

    fn close_span(&self, path: &str, duration: f64) {
        // Pop this span's frame and charge its duration to the parent's
        // child time; the difference between the popped frame's child time
        // and the duration is this span's self time.
        let child_seconds = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let child = stack.pop().map_or(0.0, |f| f.child_seconds);
            if let Some(parent) = stack.last_mut() {
                parent.child_seconds += duration;
            }
            child
        });
        let self_seconds = (duration - child_seconds).max(0.0);
        let tid = thread_ordinal();
        let mut spans = self.spans.lock().expect("obs spans poisoned");
        let agg = spans.entry_or_insert(path);
        if agg.count == 0 {
            agg.min_seconds = duration;
            agg.max_seconds = duration;
        } else {
            agg.min_seconds = agg.min_seconds.min(duration);
            agg.max_seconds = agg.max_seconds.max(duration);
        }
        agg.count += 1;
        agg.total_seconds += duration;
        agg.self_seconds += self_seconds;
        let slice = agg.by_thread.entry(tid).or_default();
        slice.count += 1;
        slice.total_seconds += duration;
    }

    /// Renders the whole registry as NDJSON — one self-describing JSON
    /// object per line, deterministically ordered (`meta`, then counters,
    /// gauges, histograms and spans, each alphabetical):
    ///
    /// ```text
    /// {"type":"meta","schema":3,"mode":"metrics","dropped_events":0}
    /// {"type":"counter","name":"vaet.mc.samples","value":20000}
    /// {"type":"gauge","name":"pipe.mem.occupancy","value":1.2e1}
    /// {"type":"histogram","name":"vaet.mc.wall_seconds","count":2,...,"p50":...,"p90":...,"p99":...}
    /// {"type":"span","path":"mc_smoke/vaet.mc.run","count":2,...,"self_seconds":...,"by_thread":[[0,2,1.5e-3]]}
    /// ```
    ///
    /// See [`SCHEMA_VERSION`] for the v1→v2→v3 field additions; `mss-prof`
    /// parses, validates, checks and exports this format.
    pub fn to_ndjson(&self) -> String {
        let mode = match self.mode {
            Mode::Off => "off",
            Mode::Metrics => "metrics",
        };
        let mut out = ndjson::meta_line(mode, 0, None);
        for (name, value) in self.counters.lock().expect("obs counters poisoned").iter() {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}\n",
                json_str(name)
            ));
        }
        for (name, value) in self.gauges.lock().expect("obs gauges poisoned").iter() {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                json_str(name),
                json_num(*value)
            ));
        }
        for (name, h) in self
            .histograms
            .lock()
            .expect("obs histograms poisoned")
            .iter()
        {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| format!("[{i},{c}]"))
                .collect();
            let quantile = |q: f64| json_num(h.quantile(q).unwrap_or(f64::NAN));
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}\n",
                json_str(name),
                h.count,
                json_num(h.sum),
                json_num(if h.count == 0 { 0.0 } else { h.min }),
                json_num(if h.count == 0 { 0.0 } else { h.max }),
                json_num(h.mean()),
                quantile(0.50),
                quantile(0.90),
                quantile(0.99),
                buckets.join(",")
            ));
        }
        for (path, s) in self.spans.lock().expect("obs spans poisoned").iter() {
            let by_thread: Vec<String> = s
                .by_thread
                .iter()
                .map(|(tid, t)| format!("[{tid},{},{}]", t.count, json_num(t.total_seconds)))
                .collect();
            out.push_str(&format!(
                "{{\"type\":\"span\",\"path\":{},\"count\":{},\"total_seconds\":{},\"self_seconds\":{},\"min_seconds\":{},\"max_seconds\":{},\"by_thread\":[{}]}}\n",
                json_str(path),
                s.count,
                json_num(s.total_seconds),
                json_num(s.self_seconds),
                json_num(s.min_seconds),
                json_num(s.max_seconds),
                by_thread.join(",")
            ));
        }
        out
    }
}

/// `BTreeMap::entry(..).or_insert_with(..)` without allocating the key when
/// it already exists — counters/histograms are hit repeatedly with the same
/// names.
trait EntryOrInsert<V: Default> {
    fn entry_or_insert(&mut self, name: &str) -> &mut V;
}

impl<V: Default> EntryOrInsert<V> for BTreeMap<String, V> {
    fn entry_or_insert(&mut self, name: &str) -> &mut V {
        if !self.contains_key(name) {
            self.insert(name.to_string(), V::default());
        }
        self.get_mut(name).expect("just inserted")
    }
}

/// RAII guard of one open span; records into the registry on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: Option<&'a Registry>,
    path: String,
    start: Option<Instant>,
    /// Publish open/close events to the global [event bus](events) — set
    /// only by the global [`span`] free function when the bus is live.
    publish: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(registry), Some(start)) = (self.registry, self.start) {
            let duration = start.elapsed().as_secs_f64();
            registry.close_span(&self.path, duration);
            if self.publish {
                events::publish(events::EventPayload::SpanClose {
                    path: std::mem::take(&mut self.path),
                    duration_seconds: duration,
                });
            }
        }
    }
}

/// The hand-rolled NDJSON emitter primitives shared by every report writer
/// in the workspace (run reports here, on-disk cache entries in `mss-pipe`).
pub mod ndjson {
    /// Escapes a string as a JSON string literal (with quotes).
    pub fn json_str(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Formats an `f64` as a JSON number (`null` for non-finite values,
    /// which JSON cannot represent).
    pub fn json_num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:e}")
        } else {
            "null".to_string()
        }
    }

    /// The `meta` line that opens every NDJSON file (run report, event
    /// stream, flight dump), newline included. `reason` is set only on
    /// flight dumps.
    pub fn meta_line(mode: &str, dropped_events: u64, reason: Option<&str>) -> String {
        let reason = reason.map_or_else(String::new, |r| format!(",\"reason\":{}", json_str(r)));
        format!(
            "{{\"type\":\"meta\",\"schema\":{},\"mode\":\"{mode}\",\"dropped_events\":{dropped_events}{reason}}}\n",
            super::SCHEMA_VERSION
        )
    }
}

use ndjson::{json_num, json_str};

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Initialises the global registry with an explicit mode, overriding the
/// environment. Returns `false` (and changes nothing) when the global
/// registry was already initialised — call it first thing in `main` or a
/// test binary.
pub fn init_with_mode(mode: Mode) -> bool {
    let mut fresh = false;
    GLOBAL.get_or_init(|| {
        fresh = true;
        Registry::new(mode)
    });
    fresh
}

/// The process-wide registry, lazily initialised from the environment.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::from_env)
}

/// True when the global registry records anything (one atomic load + flag
/// check; instrument hot paths freely).
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// Adds `n` to a global counter; mirrored onto the live
/// [event bus](events) as a `counter_delta` event when the bus is enabled.
#[inline]
pub fn counter_add(name: &str, n: u64) {
    global().counter_add(name, n);
    if events::bus_enabled() {
        events::publish(events::EventPayload::CounterDelta {
            name: name.to_string(),
            delta: n,
        });
    }
}

/// Current value of a global counter (0 when never touched).
#[inline]
pub fn counter(name: &str) -> u64 {
    global().counter(name)
}

/// Sets a global gauge (last write wins); mirrored onto the live
/// [event bus](events) as a `gauge_set` event when the bus is enabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    global().gauge_set(name, v);
    if events::bus_enabled() {
        events::publish(events::EventPayload::GaugeSet {
            name: name.to_string(),
            value: v,
        });
    }
}

/// Current value of a global gauge, `None` when never set.
#[inline]
pub fn gauge(name: &str) -> Option<f64> {
    global().gauge(name)
}

/// Records a value into a global histogram.
#[inline]
pub fn record_value(name: &str, v: f64) {
    global().record_value(name, v);
}

/// Opens a span on the global registry (see [`Registry::span`]); open/close
/// are mirrored onto the live [event bus](events) when it is enabled (and
/// the registry itself records, so the span has a path).
#[must_use = "the span measures until the guard is dropped"]
pub fn span(name: &'static str) -> SpanGuard<'static> {
    let mut guard = global().span(name);
    if guard.start.is_some() && events::bus_enabled() {
        guard.publish = true;
        events::publish(events::EventPayload::SpanOpen {
            path: guard.path.clone(),
        });
    }
    guard
}

/// Records a parallel-region run on the global registry (see
/// [`Registry::record_run`]).
pub fn record_run(name: &str, tasks: u64, samples: u64, wall_seconds: f64, busy_seconds: &[f64]) {
    global().record_run(name, tasks, samples, wall_seconds, busy_seconds);
}

/// Renders the global registry's NDJSON report.
pub fn report_ndjson() -> String {
    global().to_ndjson()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every emitted line must be standalone valid JSON under the
    /// workspace's strict parser.
    fn assert_json(line: &str) {
        if let Err(e) = mss_prof::json::Value::parse(line) {
            panic!("invalid JSON: {e}\nline: {line}");
        }
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let reg = Registry::new(Mode::Metrics);
        reg.counter_add("a.b", 3);
        reg.counter_add("a.b", 4);
        reg.counter_add("z", 1);
        assert_eq!(reg.counter("a.b"), 7);
        assert_eq!(reg.counter("z"), 1);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new(Mode::Off);
        reg.counter_add("a", 5);
        reg.gauge_set("g", 1.5);
        reg.record_value("h", 1.0);
        {
            let _g = reg.span("s");
        }
        reg.record_run("r", 1, 2, 0.5, &[0.4]);
        assert_eq!(reg.counter("a"), 0);
        assert_eq!(reg.gauge("g"), None);
        assert!(reg.histogram("h").is_none());
        let report = reg.to_ndjson();
        assert_eq!(report.lines().count(), 1, "meta line only: {report}");
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let reg = Registry::new(Mode::Metrics);
        assert_eq!(reg.gauge("occ"), None);
        reg.gauge_set("occ", 3.0);
        reg.gauge_set("occ", 7.5);
        reg.gauge_set("ratio", 0.25);
        assert_eq!(reg.gauge("occ"), Some(7.5));
        assert_eq!(reg.gauge("ratio"), Some(0.25));
        let report = reg.to_ndjson();
        let gauge_lines: Vec<&str> = report
            .lines()
            .filter(|l| l.contains("\"type\":\"gauge\""))
            .collect();
        assert_eq!(gauge_lines.len(), 2, "{report}");
        assert!(gauge_lines[0].contains("\"name\":\"occ\""), "{report}");
        assert!(gauge_lines[0].contains("7.5"), "{report}");
    }

    #[test]
    fn histogram_moments_and_buckets() {
        let reg = Registry::new(Mode::Metrics);
        for v in [1e-9, 2e-9, 4e-9, 1.0] {
            reg.record_value("lat", v);
        }
        let h = reg.histogram("lat").unwrap();
        assert_eq!(h.count(), 4);
        assert!((h.sum() - (7e-9 + 1.0)).abs() < 1e-12);
        assert!(h.mean() > 0.0);
        // NaN must not poison the moments.
        reg.record_value("lat", f64::NAN);
        let h = reg.histogram("lat").unwrap();
        assert_eq!(h.count(), 5);
        assert!(h.sum().is_finite());
    }

    #[test]
    fn bucket_mapping_is_monotone_and_clamped() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(-1.0), 0);
        assert_eq!(Histogram::bucket_of(f64::NAN), 0);
        assert_eq!(Histogram::bucket_of(1e-30), 0);
        assert_eq!(Histogram::bucket_of(1e30), HIST_BUCKETS - 1);
        let mut last = 0;
        for exp in -17..13 {
            let b = Histogram::bucket_of(10f64.powi(exp));
            assert!(b >= last, "bucket not monotone at 1e{exp}");
            last = b;
        }
    }

    #[test]
    fn spans_nest_into_paths() {
        let reg = Registry::new(Mode::Metrics);
        {
            let _a = reg.span("outer");
            {
                let _b = reg.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        {
            let _a = reg.span("outer");
        }
        let report = reg.to_ndjson();
        assert!(report.contains("\"path\":\"outer\""), "{report}");
        assert!(report.contains("\"path\":\"outer/inner\""), "{report}");
        // Two "outer" closings aggregated under one path.
        let outer_line = report
            .lines()
            .find(|l| l.contains("\"path\":\"outer\""))
            .unwrap();
        assert!(outer_line.contains("\"count\":2"), "{outer_line}");
    }

    #[test]
    fn run_records_become_counters_and_histograms() {
        let reg = Registry::new(Mode::Metrics);
        reg.record_run("mc", 10, 4000, 0.5, &[0.4, 0.45]);
        reg.record_run("mc", 10, 4000, 0.5, &[0.5, 0.5]);
        assert_eq!(reg.counter("mc.tasks"), 20);
        assert_eq!(reg.counter("mc.samples"), 8000);
        let wall = reg.histogram("mc.wall_seconds").unwrap();
        assert_eq!(wall.count(), 2);
        let util = reg.histogram("mc.utilization").unwrap();
        assert!(util.mean() > 0.5 && util.mean() <= 1.1);
    }

    #[test]
    fn every_ndjson_line_is_valid_json() {
        let reg = Registry::new(Mode::Metrics);
        reg.counter_add("weird \"name\"\\path", 1);
        reg.gauge_set("gauge \"weird\"", 1.25);
        reg.gauge_set("gauge.nan", f64::NAN);
        reg.record_value("hist", 1.5e-9);
        reg.record_value("hist", f64::INFINITY);
        {
            let _a = reg.span("a");
            let _b = reg.span("b");
        }
        reg.record_run("run", 1, 100, 1e-3, &[0.9e-3]);
        let report = reg.to_ndjson();
        assert!(report.lines().count() >= 7, "{report}");
        for line in report.lines() {
            assert_json(line);
        }
        // Types all present.
        for ty in ["meta", "counter", "gauge", "histogram", "span"] {
            assert!(
                report.contains(&format!("\"type\":\"{ty}\"")),
                "missing {ty}: {report}"
            );
        }
    }

    #[test]
    fn json_escaping_round_trips_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_json(&json_str("ctrl\u{1}char"));
    }

    #[test]
    fn meta_lines_have_one_shape_for_every_writer() {
        assert_eq!(
            ndjson::meta_line("metrics", 0, None),
            "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}\n"
        );
        assert_eq!(
            ndjson::meta_line("events", 7, Some("sweep \"x\" failed")),
            "{\"type\":\"meta\",\"schema\":3,\"mode\":\"events\",\"dropped_events\":7,\"reason\":\"sweep \\\"x\\\" failed\"}\n"
        );
        let report = Registry::new(Mode::Off).to_ndjson();
        assert_eq!(report, ndjson::meta_line("off", 0, None));
    }

    #[test]
    fn span_context_capture_allocates_nothing_when_off() {
        let reg = Registry::new(Mode::Off);
        let _g = reg.span("ignored");
        assert_eq!(SpanContext::capture().0.capacity(), 0);
    }

    #[test]
    fn quantiles_track_bucket_midpoints() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1e-9);
        }
        for _ in 0..10 {
            h.record(1e-3);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!(
            (1e-10..=1e-8).contains(&p50),
            "p50 should land in the 1e-9 bucket: {p50:e}"
        );
        let p99 = h.quantile(0.99).unwrap();
        assert!(
            (1e-4..=1e-2).contains(&p99),
            "p99 should land in the 1e-3 bucket: {p99:e}"
        );
        assert!(h.quantile(0.5).unwrap() <= h.quantile(0.99).unwrap());
    }

    #[test]
    fn quantile_edge_cases_stay_honest() {
        // Empty histogram: no quantiles at all.
        assert_eq!(Histogram::default().quantile(0.5), None);

        // Single sample: every quantile is that sample, exactly — the
        // clamp to [min, max] must defeat the bucket midpoint.
        let mut single = Histogram::default();
        single.record(3.7e-6);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(single.quantile(q), Some(3.7e-6), "q={q}");
        }

        // Values at or below zero land in bucket 0 and report the observed
        // minimum, never a fabricated positive midpoint.
        let mut nonpos = Histogram::default();
        nonpos.record(-5.0);
        nonpos.record(0.0);
        assert_eq!(nonpos.quantile(0.5), Some(-5.0));

        // All-NaN histograms have no finite min; quantiles fall back to 0.
        let mut nan = Histogram::default();
        nan.record(f64::NAN);
        assert_eq!(nan.quantile(0.5), Some(0.0));

        // Clamped extremes: values beyond the bucket range report the
        // observed extreme, not the edge-bucket midpoint.
        let mut huge = Histogram::default();
        huge.record(1e30);
        assert_eq!(huge.quantile(0.99), Some(1e30));
        let mut tiny = Histogram::default();
        tiny.record(1e-30);
        assert_eq!(tiny.quantile(0.01), Some(1e-30));

        // q outside [0,1] clamps instead of panicking.
        let mut two = Histogram::default();
        two.record(1.0);
        two.record(2.0);
        assert_eq!(two.quantile(-1.0), two.quantile(0.0));
        assert_eq!(two.quantile(9.0), two.quantile(1.0));
    }

    #[test]
    fn self_time_excludes_children() {
        let reg = Registry::new(Mode::Metrics);
        {
            let _outer = reg.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = reg.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(12));
            }
        }
        let spans = reg.spans.lock().unwrap();
        let outer = &spans["outer"];
        let inner = &spans["outer/inner"];
        assert!(
            inner.self_seconds >= 0.010,
            "leaf self time is its total: {:e}",
            inner.self_seconds
        );
        assert!(
            outer.self_seconds <= outer.total_seconds - inner.total_seconds + 1e-3,
            "outer self ({:e}) must exclude inner total ({:e}) from outer total ({:e})",
            outer.self_seconds,
            inner.total_seconds,
            outer.total_seconds
        );
        assert!(outer.self_seconds >= 0.0);
    }

    #[test]
    fn span_ownership_is_attributed_per_thread() {
        // Pin this test thread's ordinal: lazy assignment draws from a
        // process-wide counter shared with every other test thread.
        set_thread_ordinal(3);
        let reg = Registry::new(Mode::Metrics);
        {
            let _main = reg.span("main_work");
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                set_thread_ordinal(7);
                let _w = reg.span("worker_work");
            });
        });
        let report = reg.to_ndjson();
        let worker_line = report
            .lines()
            .find(|l| l.contains("worker_work"))
            .expect("worker span line");
        assert!(
            worker_line.contains("\"by_thread\":[[7,1,"),
            "worker span must be owned by tid 7: {worker_line}"
        );
        let main_line = report
            .lines()
            .find(|l| l.contains("main_work"))
            .expect("main span line");
        assert!(
            main_line.contains("\"by_thread\":[[3,1,"),
            "main-thread span must keep the pinned ordinal 3: {main_line}"
        );
    }

    #[test]
    fn parse_flag_accepts_the_documented_spellings_only() {
        for on in ["1", "true", "on", "yes", " TRUE ", "On", "YES"] {
            assert_eq!(parse_flag(on), Ok(true), "{on:?}");
        }
        for off in ["", "0", "false", "off", "no", " OFF ", "No"] {
            assert_eq!(parse_flag(off), Ok(false), "{off:?}");
        }
        for bad in ["y", "n", "2", "enable", "metrics", "1 1"] {
            let err = parse_flag(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn env_config_parses_and_warns_once_per_variable() {
        let vars = |key: &str| match key {
            METRICS_ENV => Some("banana".to_string()),
            EVENTS_ENV => Some("maybe".to_string()),
            EVENTS_PATH_ENV => Some("target/custom.ndjson".to_string()),
            _ => None,
        };
        let (config, warnings) = EnvConfig::parse_from(vars);
        // Garbled flags count as unset; MSS_EVENTS_PATH still enables the bus.
        assert_eq!(config.mode, Mode::Off);
        assert!(config.events);
        assert_eq!(config.bad_env, 2);
        assert_eq!(warnings.len(), 2, "exactly one warning per garbled var");
        assert!(warnings[0].contains(METRICS_ENV), "{warnings:?}");
        assert!(warnings[1].contains(EVENTS_ENV), "{warnings:?}");

        // Clean environment: no warnings at all.
        let (config, warnings) = EnvConfig::parse_from(|_| None);
        assert_eq!(config.mode, Mode::Off);
        assert!(!config.events);
        assert_eq!(config.bad_env, 0);
        assert!(warnings.is_empty());

        // MSS_EVENTS_PATH alone implies the bus.
        let (config, warnings) = EnvConfig::parse_from(|key| {
            (key == EVENTS_PATH_ENV).then(|| "target/custom.ndjson".to_string())
        });
        assert!(config.events);
        assert_eq!(config.events_path.as_deref(), Some("target/custom.ndjson"));
        assert!(warnings.is_empty());
    }

    #[test]
    fn registry_from_env_is_constructible() {
        // Whatever the ambient environment, construction must not panic and
        // the mode must be valid (garbled values are ignored, not fatal).
        let reg = Registry::from_env();
        assert!(matches!(reg.mode(), Mode::Off | Mode::Metrics));
    }

    #[test]
    fn mode_from_env_defaults_off() {
        // The test environment does not set the variables; whatever the
        // ambient state, the parse must produce a valid mode.
        let m = Mode::from_env();
        assert!(matches!(m, Mode::Off | Mode::Metrics));
    }

    #[test]
    fn disabled_overhead_is_negligible() {
        // The tentpole promise: with observability off, instrumentation in
        // hot paths is a branch, not a cost. 10M disabled counter bumps and
        // 1M disabled span opens must stay far under a second even on slow
        // CI (the real cost is ~1-2 ns/op; the bound has ~100x headroom).
        let reg = Registry::new(Mode::Off);
        let t0 = Instant::now();
        for i in 0..10_000_000u64 {
            reg.counter_add("hot.counter", i & 1);
        }
        for _ in 0..1_000_000 {
            let _g = reg.span("hot.span");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(
            elapsed < 1.0,
            "disabled-mode overhead too high: {elapsed:.3} s for 11M ops"
        );
        assert_eq!(reg.counter("hot.counter"), 0);
    }

    #[test]
    fn global_registry_is_usable() {
        // Whatever mode the environment selected, the global API must be
        // callable and the report must be valid NDJSON.
        counter_add("obs.test.global", 1);
        record_value("obs.test.hist", 0.5);
        {
            let _g = span("obs.test.span");
        }
        record_run("obs.test.run", 1, 1, 1e-6, &[1e-6]);
        let report = report_ndjson();
        for line in report.lines() {
            assert_json(line);
        }
        assert!(!init_with_mode(Mode::Off), "global already initialised");
    }
}
