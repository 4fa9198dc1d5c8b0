//! The live telemetry event bus and flight recorder of `mss-obs` v2.
//!
//! The [`Registry`](crate::Registry) answers "what happened" *after* a run;
//! this module answers "what is happening" *during* one. A process-wide
//! [`EventBus`] carries typed [`EventPayload`]s — span open/close, counter
//! deltas, gauge sets, sweep progress, per-worker heartbeats and task
//! failures — to two bounded destinations:
//!
//! - an **NDJSON event stream** (one JSON object per line, `meta` line
//!   first), appended and flushed per event, so a crash loses at most the
//!   event being written and `mss_report validate` / `chrome-trace` read
//!   the stream after the run;
//! - per-thread **flight-recorder rings** holding the last
//!   `FLIGHT_RING_CAP` events each, dumped as
//!   `target/flight_<digest>.ndjson` when a supervised sweep ends with
//!   failures (panic, deadline cancellation, `PartialSweep` failures) so a
//!   chaos-smoke crash becomes a diagnosable artifact.
//!
//! # Gating and overhead
//!
//! The bus is opt-in via `MSS_EVENTS=1` (stream to the default
//! `DEFAULT_EVENTS_PATH`) or `MSS_EVENTS_PATH=<file>` (stream there;
//! implies enabled), parsed once through [`env_config`](crate::env_config).
//! Disabled, [`publish`] is a single relaxed atomic load — the same
//! permanent-instrumentation contract as the registry.
//!
//! # Determinism
//!
//! Events are observability, not results: sweeps stay bit-identical with the
//! bus on or off (asserted by the telemetry smoke). Event *interleaving*
//! across threads is scheduling-dependent, but the deterministic content —
//! the terminal progress event of a sweep, the set of failure events, final
//! gauge values — is identical at any `MSS_THREADS`, which is what
//! subscriber snapshots are compared on.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{meta_line, Line};

/// Events kept per thread in the flight-recorder ring; older events are
/// evicted (and tallied) once a thread's ring is full.
pub(crate) const FLIGHT_RING_CAP: usize = 256;

/// Default NDJSON event-stream sink when `MSS_EVENTS=1` is set without an
/// explicit `MSS_EVENTS_PATH`.
pub(crate) const DEFAULT_EVENTS_PATH: &str = "target/mss_events.ndjson";

/// One typed telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload {
    /// A hierarchical span opened (global registry spans only).
    SpanOpen {
        /// `/`-joined span path, e.g. `flow/simulate/gemsim.run`.
        path: String,
    },
    /// A hierarchical span closed.
    SpanClose {
        /// `/`-joined span path.
        path: String,
        /// Wall time between open and close.
        duration_seconds: f64,
    },
    /// A counter was bumped.
    CounterDelta {
        /// Counter name.
        name: String,
        /// Amount added.
        delta: u64,
    },
    /// A gauge was set.
    GaugeSet {
        /// Gauge name.
        name: String,
        /// New value (last write wins).
        value: f64,
    },
    /// Supervised-sweep progress (emitted after every task settles).
    Progress {
        /// Sweep label, e.g. `flow.sweep` or `spice.dc_batch`.
        sweep: String,
        /// Tasks settled so far (completed or terminally failed).
        done: u64,
        /// Total tasks in the sweep.
        total: u64,
        /// Retry attempts consumed so far across all tasks.
        retried: u64,
        /// Remaining deadline budget, `None` when the sweep has no deadline.
        budget_seconds: Option<f64>,
    },
    /// A worker is alive and reporting its cumulative work.
    Heartbeat {
        /// Sweep label.
        sweep: String,
        /// Worker thread ordinal (0 = caller, `1 + i` = spawned workers).
        worker: u32,
        /// Tasks this worker has settled.
        tasks_done: u64,
        /// Cumulative busy time on this worker.
        busy_seconds: f64,
    },
    /// A task failed terminally (after retries, if any).
    Failure {
        /// Sweep label.
        sweep: String,
        /// Task index within the sweep.
        index: u64,
        /// Attempts consumed (1 = failed on the first try).
        attempts: u32,
        /// Failure classification tag (`panicked`, `failed`,
        /// `deadline_exceeded`, `cancelled`).
        kind: String,
        /// Human-readable failure message.
        message: String,
    },
}

impl EventPayload {
    /// The `kind` string used on the NDJSON `bus` line.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Self::SpanOpen { .. } => "span_open",
            Self::SpanClose { .. } => "span_close",
            Self::CounterDelta { .. } => "counter_delta",
            Self::GaugeSet { .. } => "gauge_set",
            Self::Progress { .. } => "progress",
            Self::Heartbeat { .. } => "heartbeat",
            Self::Failure { .. } => "failure",
        }
    }
}

/// One event as carried on the bus: payload plus sequencing metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct BusEvent {
    /// Process-wide publish sequence number (monotonic under the bus lock).
    pub seq: u64,
    /// Publishing thread's ordinal (see `crate::thread_ordinal`).
    pub tid: u32,
    /// Seconds since the bus was created.
    pub t_seconds: f64,
    /// The typed event.
    pub payload: EventPayload,
}

impl BusEvent {
    /// Renders the event as one schema-v3 NDJSON `bus` line (no trailing
    /// newline).
    pub fn to_json_line(&self) -> String {
        let line = Line::new()
            .str("type", "bus")
            .str("kind", self.payload.kind())
            .u64("seq", self.seq)
            .u64("tid", u64::from(self.tid))
            .num("t_seconds", self.t_seconds);
        match &self.payload {
            EventPayload::SpanOpen { path } => line.str("path", path),
            EventPayload::SpanClose {
                path,
                duration_seconds,
            } => line
                .str("path", path)
                .num("duration_seconds", *duration_seconds),
            EventPayload::CounterDelta { name, delta } => {
                line.str("name", name).u64("delta", *delta)
            }
            EventPayload::GaugeSet { name, value } => line.str("name", name).num("value", *value),
            EventPayload::Progress {
                sweep,
                done,
                total,
                retried,
                budget_seconds,
            } => {
                let line = line
                    .str("sweep", sweep)
                    .u64("done", *done)
                    .u64("total", *total)
                    .u64("retried", *retried);
                match budget_seconds {
                    Some(budget) => line.num("budget_seconds", *budget),
                    None => line.null("budget_seconds"),
                }
            }
            EventPayload::Heartbeat {
                sweep,
                worker,
                tasks_done,
                busy_seconds,
            } => line
                .str("sweep", sweep)
                .u64("worker", u64::from(*worker))
                .u64("tasks_done", *tasks_done)
                .num("busy_seconds", *busy_seconds),
            EventPayload::Failure {
                sweep,
                index,
                attempts,
                kind,
                message,
            } => line
                .str("sweep", sweep)
                .u64("index", *index)
                .u64("attempts", u64::from(*attempts))
                .str("failure", kind)
                .str("message", message),
        }
        .finish()
    }
}

/// The event-stream sink, opened lazily on first publish.
#[derive(Debug)]
enum SinkState {
    /// Not yet opened.
    Unopened,
    /// Open and appending.
    Open(std::fs::File),
    /// Open failed; warned once, never retried.
    Failed,
}

#[derive(Debug)]
struct BusInner {
    seq: u64,
    published: u64,
    ring_evictions: u64,
    rings: BTreeMap<u32, VecDeque<BusEvent>>,
    sink: SinkState,
}

/// The bounded, lock-protected telemetry bus. One global instance backs the
/// free functions; tests construct their own for env-independent behaviour.
#[derive(Debug)]
pub struct EventBus {
    enabled: AtomicBool,
    epoch: Instant,
    sink_path: Option<PathBuf>,
    inner: Mutex<BusInner>,
}

impl EventBus {
    /// Creates a bus; `sink_path` is the NDJSON stream destination (`None`
    /// keeps events in the flight rings only).
    pub fn new(enabled: bool, sink_path: Option<PathBuf>) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            sink_path,
            inner: Mutex::new(BusInner {
                seq: 0,
                published: 0,
                ring_evictions: 0,
                rings: BTreeMap::new(),
                sink: SinkState::Unopened,
            }),
        }
    }

    /// Creates a bus from the cached [`env_config`](crate::env_config):
    /// enabled by `MSS_EVENTS` / `MSS_EVENTS_PATH`, streaming to the
    /// configured path (default [`DEFAULT_EVENTS_PATH`]).
    pub(crate) fn from_env() -> Self {
        let env = crate::env_config();
        let sink_path = env.events.then(|| {
            PathBuf::from(
                env.events_path
                    .clone()
                    .unwrap_or_else(|| DEFAULT_EVENTS_PATH.to_string()),
            )
        });
        Self::new(env.events, sink_path)
    }

    /// True when the bus records anything (one relaxed atomic load).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Publishes one event: appends it to the NDJSON stream (flushing it, so
    /// a crash cannot lose what was published before) and to the publishing
    /// thread's flight ring. No-op when disabled.
    pub fn publish(&self, payload: EventPayload) {
        if !self.enabled() {
            return;
        }
        let tid = crate::thread_ordinal();
        let t_seconds = self.epoch.elapsed().as_secs_f64();
        let mut inner = self.inner.lock().expect("event bus poisoned");
        let seq = inner.seq;
        inner.seq += 1;
        inner.published += 1;
        let event = BusEvent {
            seq,
            tid,
            t_seconds,
            payload,
        };
        if let Some(path) = &self.sink_path {
            write_sink_line(&mut inner.sink, path, &event);
        }
        let ring = inner.rings.entry(tid).or_default();
        let evicted = ring.len() >= FLIGHT_RING_CAP;
        if evicted {
            ring.pop_front();
        }
        ring.push_back(event);
        if evicted {
            inner.ring_evictions += 1;
        }
    }

    /// Total events published since the bus was created.
    #[cfg(test)]
    pub(crate) fn published(&self) -> u64 {
        self.inner.lock().expect("event bus poisoned").published
    }

    /// Events evicted from flight rings (ring capacity, not stream loss —
    /// the NDJSON stream receives every published event).
    pub(crate) fn ring_evictions(&self) -> u64 {
        self.inner
            .lock()
            .expect("event bus poisoned")
            .ring_evictions
    }

    /// Snapshot of every event still held in the flight rings, ordered by
    /// publish sequence. Content (not interleaving) is deterministic: for a
    /// fixed seed the terminal progress/failure/gauge events are identical
    /// at any `MSS_THREADS`.
    pub fn snapshot(&self) -> Vec<BusEvent> {
        let inner = self.inner.lock().expect("event bus poisoned");
        let mut all: Vec<BusEvent> = inner
            .rings
            .values()
            .flat_map(|ring| ring.iter().cloned())
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Dumps the flight rings as `target/flight_<digest>.ndjson` (meta line
    /// first, then `bus` lines in publish order) and returns the path.
    ///
    /// `digest` identifies the failed sweep (non-filename characters are
    /// replaced with `_`); `reason` is recorded on the meta line. The file
    /// is written via temp-file + rename so a crash mid-dump never leaves a
    /// torn artifact, and it parses under `mss_report validate`.
    pub fn dump_flight(&self, digest: &str, reason: &str) -> std::io::Result<PathBuf> {
        let sanitized: String = digest
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = PathBuf::from(format!("target/flight_{sanitized}.ndjson"));
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let events = self.snapshot();
        let evictions = self.ring_evictions();
        let mut out = meta_line("events", evictions, Some(reason));
        for event in &events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        let tmp = path.with_extension("ndjson.tmp");
        std::fs::write(&tmp, out)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Appends one event line to the stream sink, opening (with a meta first
/// line) on first use; an unopenable sink warns once and degrades to
/// ring-only operation rather than failing the run.
fn write_sink_line(sink: &mut SinkState, path: &Path, event: &BusEvent) {
    if matches!(sink, SinkState::Unopened) {
        *sink = match open_sink(path) {
            Ok(file) => SinkState::Open(file),
            Err(err) => {
                eprintln!(
                    "warning: cannot open event stream {}: {err}; \
                     events kept in flight rings only",
                    path.display()
                );
                SinkState::Failed
            }
        };
    }
    if let SinkState::Open(file) = sink {
        let mut line = event.to_json_line();
        line.push('\n');
        if file.write_all(line.as_bytes()).is_err() {
            *sink = SinkState::Failed;
        }
    }
}

fn open_sink(path: &Path) -> std::io::Result<std::fs::File> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(meta_line("events", 0, None).as_bytes())?;
    Ok(file)
}

// ---------------------------------------------------------------------------
// Global bus
// ---------------------------------------------------------------------------

static BUS: OnceLock<EventBus> = OnceLock::new();

/// Initialises the global bus explicitly, overriding the environment.
/// Returns `false` (and changes nothing) when the bus was already
/// initialised — call it first thing in `main` or a test binary.
pub fn init_bus_with(enabled: bool, sink_path: Option<PathBuf>) -> bool {
    let mut fresh = false;
    BUS.get_or_init(|| {
        fresh = true;
        EventBus::new(enabled, sink_path)
    });
    fresh
}

/// The process-wide bus, lazily initialised from the environment.
pub fn bus() -> &'static EventBus {
    BUS.get_or_init(EventBus::from_env)
}

/// True when the global bus records anything (one atomic load; gate event
/// construction on this in hot paths).
#[inline]
pub fn bus_enabled() -> bool {
    bus().enabled()
}

/// Publishes one event on the global bus (no-op when disabled).
#[inline]
pub fn publish(payload: EventPayload) {
    bus().publish(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn progress(sweep: &str, done: u64) -> EventPayload {
        EventPayload::Progress {
            sweep: sweep.to_string(),
            done,
            total: 8,
            retried: 0,
            budget_seconds: None,
        }
    }

    #[test]
    fn disabled_bus_records_nothing() {
        let bus = EventBus::new(false, None);
        bus.publish(progress("s", 1));
        assert_eq!(bus.published(), 0);
        assert!(bus.snapshot().is_empty());
    }

    #[test]
    fn events_carry_sequence_and_thread() {
        let bus = EventBus::new(true, None);
        bus.publish(progress("s", 1));
        bus.publish(EventPayload::GaugeSet {
            name: "g".into(),
            value: 2.5,
        });
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[1].seq, 1);
        assert!(snap[1].t_seconds >= snap[0].t_seconds);
        assert_eq!(bus.published(), 2);
    }

    #[test]
    fn flight_ring_is_bounded_per_thread() {
        let bus = EventBus::new(true, None);
        for i in 0..(FLIGHT_RING_CAP as u64 + 17) {
            bus.publish(progress("s", i));
        }
        let snap = bus.snapshot();
        assert_eq!(snap.len(), FLIGHT_RING_CAP);
        assert_eq!(bus.ring_evictions(), 17);
        // The ring keeps the *last* N events.
        assert_eq!(snap.first().unwrap().seq, 17);
        assert_eq!(snap.last().unwrap().seq, FLIGHT_RING_CAP as u64 + 16);
    }

    #[test]
    fn every_payload_kind_renders_valid_json() {
        let payloads = vec![
            EventPayload::SpanOpen { path: "a/b".into() },
            EventPayload::SpanClose {
                path: "a/b".into(),
                duration_seconds: 1e-3,
            },
            EventPayload::CounterDelta {
                name: "c \"x\"".into(),
                delta: 3,
            },
            EventPayload::GaugeSet {
                name: "g".into(),
                value: f64::NAN,
            },
            EventPayload::Progress {
                sweep: "sw".into(),
                done: 3,
                total: 9,
                retried: 1,
                budget_seconds: Some(0.25),
            },
            EventPayload::Heartbeat {
                sweep: "sw".into(),
                worker: 2,
                tasks_done: 4,
                busy_seconds: 0.5,
            },
            EventPayload::Failure {
                sweep: "sw".into(),
                index: 7,
                attempts: 2,
                kind: "panicked".into(),
                message: "boom\nline".into(),
            },
        ];
        for payload in payloads {
            let line = BusEvent {
                seq: 1,
                tid: 0,
                t_seconds: 0.5,
                payload,
            }
            .to_json_line();
            assert!(line.starts_with("{\"type\":\"bus\",\"kind\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'), "{line}");
            // NaN gauge must degrade to null, never a bare NaN token.
            assert!(!line.contains("NaN"), "{line}");
            crate::json::Value::parse(&line).expect("bus line is strict JSON");
        }
    }

    #[test]
    fn bus_lines_are_pinned_byte_for_byte() {
        let cases = [
            (
                EventPayload::SpanOpen {
                    path: "flow/\"sim\"".into(),
                },
                "{\"type\":\"bus\",\"kind\":\"span_open\",\"seq\":12,\"tid\":3,\"t_seconds\":1.25e-1,\"path\":\"flow/\\\"sim\\\"\"}",
            ),
            (
                EventPayload::SpanClose {
                    path: "a/b".into(),
                    duration_seconds: 1e-3,
                },
                "{\"type\":\"bus\",\"kind\":\"span_close\",\"seq\":12,\"tid\":3,\"t_seconds\":1.25e-1,\"path\":\"a/b\",\"duration_seconds\":1e-3}",
            ),
            (
                EventPayload::CounterDelta {
                    name: "c \"x\"\\y".into(),
                    delta: u64::MAX,
                },
                "{\"type\":\"bus\",\"kind\":\"counter_delta\",\"seq\":12,\"tid\":3,\"t_seconds\":1.25e-1,\"name\":\"c \\\"x\\\"\\\\y\",\"delta\":18446744073709551615}",
            ),
            (
                EventPayload::GaugeSet {
                    name: "g\ttab".into(),
                    value: f64::NAN,
                },
                "{\"type\":\"bus\",\"kind\":\"gauge_set\",\"seq\":12,\"tid\":3,\"t_seconds\":1.25e-1,\"name\":\"g\\ttab\",\"value\":null}",
            ),
            (
                EventPayload::Progress {
                    sweep: "sw".into(),
                    done: 3,
                    total: 9,
                    retried: 1,
                    budget_seconds: Some(0.25),
                },
                "{\"type\":\"bus\",\"kind\":\"progress\",\"seq\":12,\"tid\":3,\"t_seconds\":1.25e-1,\"sweep\":\"sw\",\"done\":3,\"total\":9,\"retried\":1,\"budget_seconds\":2.5e-1}",
            ),
            (
                EventPayload::Progress {
                    sweep: "sw\u{1}".into(),
                    done: 0,
                    total: 0,
                    retried: 0,
                    budget_seconds: None,
                },
                "{\"type\":\"bus\",\"kind\":\"progress\",\"seq\":12,\"tid\":3,\"t_seconds\":1.25e-1,\"sweep\":\"sw\\u0001\",\"done\":0,\"total\":0,\"retried\":0,\"budget_seconds\":null}",
            ),
            (
                EventPayload::Heartbeat {
                    sweep: "sw".into(),
                    worker: 2,
                    tasks_done: 4,
                    busy_seconds: 0.5,
                },
                "{\"type\":\"bus\",\"kind\":\"heartbeat\",\"seq\":12,\"tid\":3,\"t_seconds\":1.25e-1,\"sweep\":\"sw\",\"worker\":2,\"tasks_done\":4,\"busy_seconds\":5e-1}",
            ),
            (
                EventPayload::Failure {
                    sweep: "sw".into(),
                    index: 7,
                    attempts: 2,
                    kind: "panicked".into(),
                    message: "boom\nline \"q\"".into(),
                },
                "{\"type\":\"bus\",\"kind\":\"failure\",\"seq\":12,\"tid\":3,\"t_seconds\":1.25e-1,\"sweep\":\"sw\",\"index\":7,\"attempts\":2,\"failure\":\"panicked\",\"message\":\"boom\\nline \\\"q\\\"\"}",
            ),
        ];
        for (payload, want) in cases {
            let line = BusEvent {
                seq: 12,
                tid: 3,
                t_seconds: 0.125,
                payload,
            }
            .to_json_line();
            assert_eq!(line, want);
        }
    }

    #[test]
    fn snapshot_merges_rings_in_sequence_order() {
        let bus = EventBus::new(true, None);
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let bus = &bus;
                scope.spawn(move || {
                    crate::set_thread_ordinal(100 + w);
                    for i in 0..10 {
                        bus.publish(progress("par", i));
                    }
                });
            }
        });
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 40);
        for pair in snap.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "snapshot must be seq-ordered");
        }
    }

    #[test]
    fn flight_dump_sanitizes_digest_and_roundtrips() {
        let bus = EventBus::new(true, None);
        bus.publish(progress("s", 1));
        bus.publish(EventPayload::Failure {
            sweep: "s".into(),
            index: 1,
            attempts: 1,
            kind: "panicked".into(),
            message: "induced".into(),
        });
        let path = bus
            .dump_flight("unit/te:st dump", "unit test")
            .expect("dump");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "flight_unit_te_st_dump.ndjson"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let meta = lines.next().unwrap();
        assert!(meta.contains("\"mode\":\"events\""), "{meta}");
        assert!(meta.contains("\"reason\":\"unit test\""), "{meta}");
        assert_eq!(lines.count(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stream_sink_writes_meta_then_events() {
        let dir = std::env::temp_dir().join(format!("mss_obs_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sink = dir.join("events.ndjson");
        let bus = EventBus::new(true, Some(sink.clone()));
        bus.publish(progress("s", 1));
        bus.publish(progress("s", 2));
        let text = std::fs::read_to_string(&sink).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"type\":\"meta\""), "{text}");
        assert!(lines[1].contains("\"kind\":\"progress\""), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
