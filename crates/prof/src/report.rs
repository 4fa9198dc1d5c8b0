//! NDJSON run-report model: parsing, schema validation and hot-path
//! attribution.
//!
//! [`Report::parse_ndjson`] is the workspace's schema validator: it accepts
//! exactly the line shapes `mss_obs::Registry::to_ndjson` emits (schema v1,
//! the v2 profiling extensions, and the v3 telemetry extensions — gauges
//! plus event-bus streams/flight dumps) and rejects everything else with a
//! line-numbered error. CI round-trips every archived report through it, so
//! a writer regression can never ship silently. Older files may still carry
//! mode `trace` and per-closing `event` lines, which today's writer no
//! longer emits; they are validated and otherwise ignored — span timelines
//! come from the event bus's `span_close` lines.

use std::collections::BTreeMap;

use crate::json::Value;

/// The `meta` line: schema/mode plus the trace-buffer drop count (v2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    /// NDJSON schema version (1, 2 or 3).
    pub schema: u32,
    /// Recording mode (`off`, `metrics`, `events` for v3 event streams and
    /// flight-recorder dumps, or `trace` in older files).
    pub mode: String,
    /// Flight-ring evictions in `events` files; trace events dropped on
    /// buffer overflow in older `trace` files; 0 otherwise.
    pub dropped_events: u64,
}

/// One histogram line.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Smallest finite observation (`None` when the writer emitted null).
    pub min: Option<f64>,
    /// Largest finite observation.
    pub max: Option<f64>,
    /// Mean of finite observations (v2).
    pub mean: Option<f64>,
    /// Bucket-derived quantile estimates (v2).
    pub p50: Option<f64>,
    /// 90th percentile estimate (v2).
    pub p90: Option<f64>,
    /// 99th percentile estimate (v2).
    pub p99: Option<f64>,
    /// Sparse `[bucket_index, count]` pairs.
    pub buckets: Vec<(u32, u64)>,
}

/// One span-aggregate line.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Number of times the path closed.
    pub count: u64,
    /// Total wall time across closings, seconds.
    pub total_seconds: f64,
    /// Total time minus child-span time (v2; `None` in v1 reports).
    pub self_seconds: Option<f64>,
    /// Fastest closing.
    pub min_seconds: f64,
    /// Slowest closing.
    pub max_seconds: f64,
    /// Per-thread ownership slices (v2).
    pub by_thread: Vec<ThreadSlice>,
}

impl SpanSummary {
    /// Mean seconds per closing.
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }

    /// Self time when the report carries it, total time otherwise — the
    /// attribution-preferring sort key for hot-path ranking.
    pub fn attributed_seconds(&self) -> f64 {
        self.self_seconds.unwrap_or(self.total_seconds)
    }
}

/// One `[tid, count, total_seconds]` ownership slice of a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadSlice {
    /// Thread ordinal (0 = main, `1 + k` = `mss-exec` worker `k`).
    pub tid: u32,
    /// Closings on that thread.
    pub count: u64,
    /// Wall time accumulated on that thread, seconds.
    pub total_seconds: f64,
}

/// One validated event-bus line from a v3 event stream or flight dump.
///
/// The common envelope (`kind`, `seq`, `tid`, `t_seconds`) is typed; the
/// kind-specific fields are validated at parse time and stay accessible
/// through the retained JSON [`Value`] (see [`BusRecord::str_field`] /
/// [`BusRecord::u64_field`] / [`BusRecord::num_field`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BusRecord {
    /// Event kind (`progress`, `heartbeat`, `failure`, `span_open`,
    /// `span_close`, `counter_delta`, `gauge_set`, `watchdog`).
    pub kind: String,
    /// Process-wide publish sequence number.
    pub seq: u64,
    /// Publishing thread's ordinal.
    pub tid: u32,
    /// Seconds since the bus epoch.
    pub t_seconds: f64,
    /// The full parsed line, for kind-specific fields.
    pub value: Value,
}

impl BusRecord {
    /// A kind-specific string field, if present.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.value.get(key).and_then(Value::as_str)
    }

    /// A kind-specific unsigned-integer field, if present.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.value.get(key).and_then(Value::as_u64)
    }

    /// A kind-specific numeric field, if present and non-null.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        self.value.get(key).and_then(Value::as_f64)
    }
}

/// A fully parsed and validated NDJSON run report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The `meta` line.
    pub meta: Meta,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → last value (v3; `None` when the writer emitted null for
    /// a non-finite value).
    pub gauges: BTreeMap<String, Option<f64>>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span path → aggregate.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Event-bus lines (v3 `events` files), in stream order.
    pub bus: Vec<BusRecord>,
}

/// Largest schema version this parser understands.
pub const MAX_SCHEMA: u32 = 3;

impl Report {
    /// Parses and validates an NDJSON run report.
    ///
    /// Structural requirements: the first line is the only `meta` line, its
    /// schema is 1..=[`MAX_SCHEMA`], every line is a standalone JSON object
    /// of a known `type` with the fields that type requires, and no
    /// counter/gauge/histogram/span name repeats. v2-only fields are
    /// optional on v1 reports and mandatory on v2+. `gauge` and `bus` lines
    /// require schema ≥ 3; `bus` lines are only valid in mode `events`
    /// files (live streams / flight dumps), which in turn carry nothing
    /// else. Legacy `event` lines are validated but not kept.
    ///
    /// # Errors
    ///
    /// A message naming the offending line number and rule.
    pub fn parse_ndjson(text: &str) -> Result<Report, String> {
        let mut meta: Option<Meta> = None;
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        let mut spans = BTreeMap::new();
        let mut legacy_events = false;
        let mut bus = Vec::new();

        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                return Err(format!("line {lineno}: blank line inside report"));
            }
            let v = Value::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
            let ty = v
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {lineno}: missing \"type\""))?
                .to_string();
            let schema = meta.as_ref().map_or(MAX_SCHEMA, |m| m.schema);
            match ty.as_str() {
                "meta" => {
                    if meta.is_some() {
                        return Err(format!("line {lineno}: duplicate meta line"));
                    }
                    if lineno != 1 {
                        return Err(format!("line {lineno}: meta must be the first line"));
                    }
                    meta = Some(parse_meta(&v).map_err(|e| format!("line {lineno}: {e}"))?);
                }
                _ if meta.is_none() => {
                    return Err(format!("line {lineno}: first line must be meta"));
                }
                "counter" => {
                    let name = req_str(&v, "name").map_err(|e| format!("line {lineno}: {e}"))?;
                    let value = req_u64(&v, "value").map_err(|e| format!("line {lineno}: {e}"))?;
                    if counters.insert(name.clone(), value).is_some() {
                        return Err(format!("line {lineno}: duplicate counter {name:?}"));
                    }
                }
                "histogram" => {
                    let name = req_str(&v, "name").map_err(|e| format!("line {lineno}: {e}"))?;
                    let h =
                        parse_histogram(&v, schema).map_err(|e| format!("line {lineno}: {e}"))?;
                    if histograms.insert(name.clone(), h).is_some() {
                        return Err(format!("line {lineno}: duplicate histogram {name:?}"));
                    }
                }
                "span" => {
                    let path = req_str(&v, "path").map_err(|e| format!("line {lineno}: {e}"))?;
                    let s = parse_span(&v, schema).map_err(|e| format!("line {lineno}: {e}"))?;
                    if spans.insert(path.clone(), s).is_some() {
                        return Err(format!("line {lineno}: duplicate span {path:?}"));
                    }
                }
                "event" => {
                    check_legacy_event(&v, schema).map_err(|e| format!("line {lineno}: {e}"))?;
                    legacy_events = true;
                }
                "gauge" => {
                    if schema < 3 {
                        return Err(format!("line {lineno}: gauge lines require schema >= 3"));
                    }
                    let name = req_str(&v, "name").map_err(|e| format!("line {lineno}: {e}"))?;
                    let value =
                        req_num_or_null(&v, "value").map_err(|e| format!("line {lineno}: {e}"))?;
                    if gauges.insert(name.clone(), value).is_some() {
                        return Err(format!("line {lineno}: duplicate gauge {name:?}"));
                    }
                }
                "bus" => {
                    if schema < 3 {
                        return Err(format!("line {lineno}: bus lines require schema >= 3"));
                    }
                    bus.push(parse_bus(&v).map_err(|e| format!("line {lineno}: {e}"))?);
                }
                other => {
                    return Err(format!("line {lineno}: unknown line type {other:?}"));
                }
            }
        }

        let meta = meta.ok_or_else(|| "empty report: no meta line".to_string())?;
        if meta.mode == "off" && (!counters.is_empty() || !gauges.is_empty() || !spans.is_empty()) {
            return Err("mode \"off\" report carries data lines".to_string());
        }
        let is_events = meta.mode == "events";
        if !bus.is_empty() && !is_events {
            return Err(format!(
                "bus lines require mode \"events\", got {:?}",
                meta.mode
            ));
        }
        if is_events
            && !(counters.is_empty()
                && gauges.is_empty()
                && histograms.is_empty()
                && spans.is_empty()
                && !legacy_events)
        {
            return Err("mode \"events\" file carries aggregate report lines".to_string());
        }
        Ok(Report {
            meta,
            counters,
            gauges,
            histograms,
            spans,
            bus,
        })
    }

    /// Span paths ranked hottest-first by [`SpanSummary::attributed_seconds`]
    /// (self time when available), ties broken alphabetically for
    /// deterministic output.
    pub fn hot_paths(&self, top: usize) -> Vec<(&str, &SpanSummary)> {
        let mut ranked: Vec<(&str, &SpanSummary)> =
            self.spans.iter().map(|(p, s)| (p.as_str(), s)).collect();
        ranked.sort_by(|a, b| {
            b.1.attributed_seconds()
                .total_cmp(&a.1.attributed_seconds())
                .then_with(|| a.0.cmp(b.0))
        });
        ranked.truncate(top);
        ranked
    }

    /// Renders the human-facing summary: meta, the top-N hot paths with
    /// self/total attribution and ownership, and headline counters.
    pub fn render_summary(&self, top: usize) -> String {
        let mut out = format!(
            "schema v{} | mode {} | {} counters | {} gauges | {} histograms | {} spans | {} bus",
            self.meta.schema,
            self.meta.mode,
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len(),
            self.spans.len(),
            self.bus.len(),
        );
        if self.meta.dropped_events > 0 {
            out.push_str(&format!(
                " | WARNING: {} trace events dropped (timeline truncated)",
                self.meta.dropped_events
            ));
        }
        out.push('\n');
        let total_attributed: f64 = self
            .spans
            .values()
            .map(SpanSummary::attributed_seconds)
            .sum();
        out.push_str(&format!(
            "\n== hot paths (top {top} by self time) ==\n{:<52} {:>8} {:>12} {:>12} {:>7} {:>8}\n",
            "path", "count", "self", "total", "%self", "threads"
        ));
        for (path, s) in self.hot_paths(top) {
            let share = if total_attributed > 0.0 {
                100.0 * s.attributed_seconds() / total_attributed
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<52} {:>8} {:>12} {:>12} {:>6.1}% {:>8}\n",
                path,
                s.count,
                format_seconds(s.attributed_seconds()),
                format_seconds(s.total_seconds),
                share,
                s.by_thread.len().max(1),
            ));
        }
        out
    }
}

/// Renders seconds with an adaptive unit.
pub fn format_seconds(s: f64) -> String {
    let abs = s.abs();
    if abs >= 1.0 {
        format!("{s:.3} s")
    } else if abs >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if abs >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

/// A required numeric field; JSON `null` (the writer's spelling of a
/// non-finite value) maps to `None`.
fn req_num_or_null(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        Some(n) if n.is_null() => Ok(None),
        Some(n) => n
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not a number or null")),
        None => Err(format!("missing numeric field {key:?}")),
    }
}

fn req_num(v: &Value, key: &str) -> Result<f64, String> {
    req_num_or_null(v, key)?.ok_or_else(|| format!("field {key:?} must be finite, got null"))
}

fn parse_meta(v: &Value) -> Result<Meta, String> {
    let schema =
        u32::try_from(req_u64(v, "schema")?).map_err(|_| "schema out of range".to_string())?;
    if schema == 0 || schema > MAX_SCHEMA {
        return Err(format!(
            "unsupported schema version {schema} (max {MAX_SCHEMA})"
        ));
    }
    let mode = req_str(v, "mode")?;
    let known = match mode.as_str() {
        "off" | "metrics" | "trace" => true,
        "events" => schema >= 3,
        _ => false,
    };
    if !known {
        return Err(format!("unknown mode {mode:?} for schema {schema}"));
    }
    let dropped_events = if schema >= 2 {
        req_u64(v, "dropped_events")?
    } else {
        0
    };
    Ok(Meta {
        schema,
        mode,
        dropped_events,
    })
}

fn parse_histogram(v: &Value, schema: u32) -> Result<HistogramSummary, String> {
    let buckets_raw = v
        .get("buckets")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing array field \"buckets\"".to_string())?;
    let mut buckets = Vec::with_capacity(buckets_raw.len());
    for b in buckets_raw {
        let pair = b
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| "bucket entries must be [index, count] pairs".to_string())?;
        let idx = pair[0]
            .as_u64()
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| "bucket index must be a small integer".to_string())?;
        let count = pair[1]
            .as_u64()
            .ok_or_else(|| "bucket count must be an integer".to_string())?;
        buckets.push((idx, count));
    }
    let (mean, p50, p90, p99) = if schema >= 2 {
        (
            req_num_or_null(v, "mean")?,
            req_num_or_null(v, "p50")?,
            req_num_or_null(v, "p90")?,
            req_num_or_null(v, "p99")?,
        )
    } else {
        (None, None, None, None)
    };
    Ok(HistogramSummary {
        count: req_u64(v, "count")?,
        sum: req_num(v, "sum")?,
        min: req_num_or_null(v, "min")?,
        max: req_num_or_null(v, "max")?,
        mean,
        p50,
        p90,
        p99,
        buckets,
    })
}

fn parse_span(v: &Value, schema: u32) -> Result<SpanSummary, String> {
    let (self_seconds, by_thread) = if schema >= 2 {
        let raw = v
            .get("by_thread")
            .and_then(Value::as_arr)
            .ok_or_else(|| "missing array field \"by_thread\"".to_string())?;
        let mut slices = Vec::with_capacity(raw.len());
        for t in raw {
            let triple = t.as_arr().filter(|p| p.len() == 3).ok_or_else(|| {
                "by_thread entries must be [tid, count, total_seconds]".to_string()
            })?;
            slices.push(ThreadSlice {
                tid: triple[0]
                    .as_u64()
                    .and_then(|i| u32::try_from(i).ok())
                    .ok_or_else(|| "by_thread tid must be a small integer".to_string())?,
                count: triple[1]
                    .as_u64()
                    .ok_or_else(|| "by_thread count must be an integer".to_string())?,
                total_seconds: triple[2]
                    .as_f64()
                    .ok_or_else(|| "by_thread total must be a number".to_string())?,
            });
        }
        (Some(req_num(v, "self_seconds")?), slices)
    } else {
        (None, Vec::new())
    };
    Ok(SpanSummary {
        count: req_u64(v, "count")?,
        total_seconds: req_num(v, "total_seconds")?,
        self_seconds,
        min_seconds: req_num(v, "min_seconds")?,
        max_seconds: req_num(v, "max_seconds")?,
        by_thread,
    })
}

/// Validates one legacy trace-mode `event` line (a single span closing).
fn check_legacy_event(v: &Value, schema: u32) -> Result<(), String> {
    if schema >= 2 {
        u32::try_from(req_u64(v, "tid")?).map_err(|_| "tid out of range".to_string())?;
    }
    req_str(v, "path")?;
    req_num(v, "start_seconds")?;
    req_num(v, "duration_seconds")?;
    Ok(())
}

/// Validates one event-bus line: the common envelope plus the fields each
/// kind requires (matching `mss_obs::events::BusEvent::to_json_line`).
fn parse_bus(v: &Value) -> Result<BusRecord, String> {
    let kind = req_str(v, "kind")?;
    let seq = req_u64(v, "seq")?;
    let tid = u32::try_from(req_u64(v, "tid")?).map_err(|_| "tid out of range".to_string())?;
    let t_seconds = req_num(v, "t_seconds")?;
    match kind.as_str() {
        "span_open" => {
            req_str(v, "path")?;
        }
        "span_close" => {
            req_str(v, "path")?;
            req_num(v, "duration_seconds")?;
        }
        "counter_delta" => {
            req_str(v, "name")?;
            req_u64(v, "delta")?;
        }
        "gauge_set" => {
            req_str(v, "name")?;
            req_num_or_null(v, "value")?;
        }
        "progress" => {
            req_str(v, "sweep")?;
            let done = req_u64(v, "done")?;
            let total = req_u64(v, "total")?;
            req_u64(v, "retried")?;
            req_num_or_null(v, "budget_seconds")?;
            if done > total {
                return Err(format!("progress done {done} exceeds total {total}"));
            }
        }
        "heartbeat" => {
            req_str(v, "sweep")?;
            req_u64(v, "worker")?;
            req_u64(v, "tasks_done")?;
            req_num(v, "busy_seconds")?;
        }
        "failure" => {
            req_str(v, "sweep")?;
            req_u64(v, "index")?;
            req_u64(v, "attempts")?;
            req_str(v, "failure")?;
            req_str(v, "message")?;
        }
        "watchdog" => {
            req_str(v, "span")?;
            req_num(v, "baseline_seconds")?;
            req_num(v, "run_seconds")?;
            req_num(v, "ratio")?;
        }
        other => return Err(format!("unknown bus kind {other:?}")),
    }
    Ok(BusRecord {
        kind,
        seq,
        tid,
        t_seconds,
        value: v.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_obs::{Mode, Registry};

    fn live_report(mode: Mode) -> String {
        let reg = Registry::new(mode);
        reg.counter_add("layer.items", 12);
        reg.gauge_set("layer.occupancy", 17.0);
        reg.record_value("layer.latency", 2e-9);
        reg.record_value("layer.latency", 3e-9);
        {
            let _outer = reg.span("outer");
            let _inner = reg.span("inner");
        }
        reg.to_ndjson()
    }

    #[test]
    fn parses_a_live_metrics_report() {
        let text = live_report(Mode::Metrics);
        let r = Report::parse_ndjson(&text).expect("valid report");
        assert_eq!(r.meta.schema, 3);
        assert_eq!(r.meta.mode, "metrics");
        assert_eq!(r.meta.dropped_events, 0);
        assert_eq!(r.counters["layer.items"], 12);
        assert_eq!(r.gauges["layer.occupancy"], Some(17.0));
        let h = &r.histograms["layer.latency"];
        assert_eq!(h.count, 2);
        assert!(h.p50.is_some() && h.p99.is_some());
        let outer = &r.spans["outer"];
        assert!(outer.self_seconds.is_some());
        assert!(!outer.by_thread.is_empty());
        assert!(r.spans.contains_key("outer/inner"));
        assert!(!text.contains("\"type\":\"event\""), "{text}");
    }

    /// A schema-v3 trace-mode report from before span timelines moved to the
    /// event bus: still valid, its `event` lines checked and dropped.
    const LEGACY_V3_TRACE: &str = include_str!("../tests/data/legacy_v3_trace.ndjson");

    #[test]
    fn accepts_legacy_trace_reports_and_validates_their_event_lines() {
        let r = Report::parse_ndjson(LEGACY_V3_TRACE).expect("legacy trace report");
        assert_eq!(r.meta.mode, "trace");
        assert_eq!(r.meta.dropped_events, 4);
        assert_eq!(r.spans.len(), 2);
        // Event lines are still checked field by field.
        let broken = LEGACY_V3_TRACE.replace("\"tid\":1,", "");
        let err = Report::parse_ndjson(&broken).expect_err("event without tid");
        assert!(err.starts_with("line 5:"), "{err}");
        // And still do not belong in an event stream.
        let stream = concat!(
            "{\"type\":\"meta\",\"schema\":3,\"mode\":\"events\",\"dropped_events\":0}\n",
            "{\"type\":\"event\",\"path\":\"p\",\"tid\":0,\"start_seconds\":0e0,\"duration_seconds\":1e-3}\n",
        );
        assert!(Report::parse_ndjson(stream).is_err());
    }

    #[test]
    fn accepts_schema_v1_reports() {
        let v1 = concat!(
            "{\"type\":\"meta\",\"schema\":1,\"mode\":\"metrics\"}\n",
            "{\"type\":\"counter\",\"name\":\"a\",\"value\":3}\n",
            "{\"type\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":2e0,\"min\":2e0,\"max\":2e0,\"buckets\":[[37,1]]}\n",
            "{\"type\":\"span\",\"path\":\"p\",\"count\":1,\"total_seconds\":1e-3,\"min_seconds\":1e-3,\"max_seconds\":1e-3}\n",
        );
        let r = Report::parse_ndjson(v1).expect("v1 accepted");
        assert_eq!(r.meta.schema, 1);
        assert_eq!(r.spans["p"].self_seconds, None);
        assert!(r.spans["p"].by_thread.is_empty());
    }

    #[test]
    fn rejects_structural_violations() {
        let cases: &[(&str, &str)] = &[
            ("", "empty"),
            ("{\"type\":\"counter\",\"name\":\"a\",\"value\":1}", "no meta first"),
            (
                "{\"type\":\"meta\",\"schema\":99,\"mode\":\"metrics\",\"dropped_events\":0}",
                "future schema",
            ),
            (
                "{\"type\":\"meta\",\"schema\":2,\"mode\":\"warp\",\"dropped_events\":0}",
                "unknown mode",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}",
                ),
                "duplicate meta",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"counter\",\"name\":\"a\",\"value\":1}\n",
                    "{\"type\":\"counter\",\"name\":\"a\",\"value\":2}",
                ),
                "duplicate counter",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"mystery\"}",
                ),
                "unknown type",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"counter\",\"name\":\"a\",\"value\":-1}",
                ),
                "negative counter",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"span\",\"path\":\"p\",\"count\":1,\"total_seconds\":1e-3,\"min_seconds\":1e-3,\"max_seconds\":1e-3}",
                ),
                "v2 span without self_seconds/by_thread",
            ),
            (
                "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}\nnot json",
                "garbage line",
            ),
        ];
        for (text, why) in cases {
            assert!(Report::parse_ndjson(text).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn hot_paths_rank_by_self_time() {
        let text = concat!(
            "{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}\n",
            "{\"type\":\"span\",\"path\":\"parent\",\"count\":1,\"total_seconds\":1e0,\"self_seconds\":1e-2,\"min_seconds\":1e0,\"max_seconds\":1e0,\"by_thread\":[[0,1,1e0]]}\n",
            "{\"type\":\"span\",\"path\":\"parent/leaf\",\"count\":4,\"total_seconds\":9.9e-1,\"self_seconds\":9.9e-1,\"min_seconds\":2e-1,\"max_seconds\":3e-1,\"by_thread\":[[1,2,5e-1],[2,2,4.9e-1]]}\n",
        );
        let r = Report::parse_ndjson(text).unwrap();
        let hot = r.hot_paths(10);
        assert_eq!(hot[0].0, "parent/leaf", "leaf owns the self time");
        assert_eq!(hot[1].0, "parent");
        let summary = r.render_summary(5);
        assert!(summary.contains("parent/leaf"), "{summary}");
        assert!(summary.contains("schema v2"), "{summary}");
    }

    #[test]
    fn summary_warns_on_dropped_events() {
        let text = "{\"type\":\"meta\",\"schema\":2,\"mode\":\"trace\",\"dropped_events\":17}\n";
        let r = Report::parse_ndjson(text).unwrap();
        assert!(r.render_summary(3).contains("17 trace events dropped"));
    }

    #[test]
    fn format_seconds_picks_sane_units() {
        assert_eq!(format_seconds(2.5), "2.500 s");
        assert_eq!(format_seconds(2.5e-3), "2.500 ms");
        assert_eq!(format_seconds(2.5e-6), "2.500 µs");
        assert_eq!(format_seconds(2.5e-9), "2.5 ns");
    }
}
