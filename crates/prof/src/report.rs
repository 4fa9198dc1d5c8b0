//! NDJSON run-report model: parsing, schema validation and hot-path
//! attribution.
//!
//! [`Report::parse_ndjson`] is the workspace's schema validator: it accepts
//! exactly the line shapes `mss-obs` writes — schema
//! [`mss_obs::SCHEMA_VERSION`] run reports (mode `off` or `metrics`) and
//! event-bus streams/flight dumps (mode `events`) — and rejects everything
//! else with a line-numbered error. CI round-trips every archived report
//! through it, so a writer regression can never ship silently.

use std::collections::BTreeMap;

use mss_obs::json::Value;
use mss_obs::SCHEMA_VERSION;

/// The `meta` line: schema/mode plus the dropped-event count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    /// NDJSON schema version (always [`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Recording mode: `off`, `metrics`, or `events` for event streams and
    /// flight-recorder dumps.
    pub mode: String,
    /// Flight-ring evictions in `events` files; 0 otherwise.
    pub(crate) dropped_events: u64,
}

/// One histogram line.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub(crate) count: u64,
    /// Sum of finite observations.
    pub(crate) sum: f64,
    /// Smallest finite observation (`None` when the writer emitted null).
    pub(crate) min: Option<f64>,
    /// Largest finite observation.
    pub(crate) max: Option<f64>,
    /// Mean of finite observations.
    pub(crate) mean: Option<f64>,
    /// Bucket-derived median estimate.
    pub(crate) p50: Option<f64>,
    /// 90th percentile estimate.
    pub(crate) p90: Option<f64>,
    /// 99th percentile estimate.
    pub(crate) p99: Option<f64>,
    /// Sparse `[bucket_index, count]` pairs.
    pub(crate) buckets: Vec<(u32, u64)>,
}

/// One span-aggregate line.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Number of times the path closed.
    pub count: u64,
    /// Total wall time across closings, seconds.
    pub(crate) total_seconds: f64,
    /// Total time minus child-span time.
    pub(crate) self_seconds: f64,
    /// Fastest closing.
    pub(crate) min_seconds: f64,
    /// Slowest closing.
    pub(crate) max_seconds: f64,
    /// Per-thread ownership slices.
    pub(crate) by_thread: Vec<ThreadSlice>,
}

impl SpanSummary {
    /// Mean seconds per closing.
    pub(crate) fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds / self.count as f64
        }
    }
}

/// One `[tid, count, total_seconds]` ownership slice of a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ThreadSlice {
    /// Thread ordinal (0 = main, `1 + k` = `mss-exec` worker `k`).
    pub(crate) tid: u32,
    /// Closings on that thread.
    pub(crate) count: u64,
    /// Wall time accumulated on that thread, seconds.
    pub(crate) total_seconds: f64,
}

/// One validated event-bus line from an event stream or flight dump.
///
/// The common envelope (`kind`, `seq`, `tid`, `t_seconds`) is typed; the
/// kind-specific fields are validated at parse time and stay accessible
/// through the retained JSON [`Value`] (see [`BusRecord::str_field`] /
/// [`BusRecord::u64_field`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BusRecord {
    /// Event kind (`progress`, `heartbeat`, `failure`, `span_open`,
    /// `span_close`, `counter_delta`, `gauge_set`).
    pub kind: String,
    /// Process-wide publish sequence number.
    pub(crate) seq: u64,
    /// Publishing thread's ordinal.
    pub(crate) tid: u32,
    /// Seconds since the bus epoch.
    pub(crate) t_seconds: f64,
    /// The full parsed line, for kind-specific fields.
    pub(crate) value: Value,
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
    pub(crate) fn num_field(&self, key: &str) -> Option<f64> {
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
    /// Gauge name → last value (`None` when the writer emitted null for a
    /// non-finite value).
    pub(crate) gauges: BTreeMap<String, Option<f64>>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span path → aggregate.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Event-bus lines (`events` files), in stream order.
    pub bus: Vec<BusRecord>,
}

impl Report {
    /// Parses and validates an NDJSON run report.
    ///
    /// Structural requirements: the first line is the only `meta` line, its
    /// schema is [`SCHEMA_VERSION`] and its mode `off`, `metrics` or
    /// `events`, every line is a standalone JSON object of a known `type`
    /// with the fields that type requires, and no counter/gauge/histogram/
    /// span name repeats. `bus` lines are only valid in mode `events` files
    /// (live streams / flight dumps), which in turn carry nothing else.
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
                    let h = parse_histogram(&v).map_err(|e| format!("line {lineno}: {e}"))?;
                    if histograms.insert(name.clone(), h).is_some() {
                        return Err(format!("line {lineno}: duplicate histogram {name:?}"));
                    }
                }
                "span" => {
                    let path = req_str(&v, "path").map_err(|e| format!("line {lineno}: {e}"))?;
                    let s = parse_span(&v).map_err(|e| format!("line {lineno}: {e}"))?;
                    if spans.insert(path.clone(), s).is_some() {
                        return Err(format!("line {lineno}: duplicate span {path:?}"));
                    }
                }
                "gauge" => {
                    let name = req_str(&v, "name").map_err(|e| format!("line {lineno}: {e}"))?;
                    let value =
                        req_num_or_null(&v, "value").map_err(|e| format!("line {lineno}: {e}"))?;
                    if gauges.insert(name.clone(), value).is_some() {
                        return Err(format!("line {lineno}: duplicate gauge {name:?}"));
                    }
                }
                "bus" => {
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
                && spans.is_empty())
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

    /// Span paths ranked hottest-first by self time, ties broken
    /// alphabetically for deterministic output.
    pub(crate) fn hot_paths(&self, top: usize) -> Vec<(&str, &SpanSummary)> {
        let mut ranked: Vec<(&str, &SpanSummary)> =
            self.spans.iter().map(|(p, s)| (p.as_str(), s)).collect();
        ranked.sort_by(|a, b| {
            b.1.self_seconds
                .total_cmp(&a.1.self_seconds)
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
                " | WARNING: {} events dropped (flight ring overflowed)",
                self.meta.dropped_events
            ));
        }
        out.push('\n');
        let total_self: f64 = self.spans.values().map(|s| s.self_seconds).sum();
        out.push_str(&format!(
            "\n== hot paths (top {top} by self time) ==\n{:<52} {:>8} {:>12} {:>12} {:>7} {:>8}\n",
            "path", "count", "self", "total", "%self", "threads"
        ));
        for (path, s) in self.hot_paths(top) {
            let share = if total_self > 0.0 {
                100.0 * s.self_seconds / total_self
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<52} {:>8} {:>12} {:>12} {:>6.1}% {:>8}\n",
                path,
                s.count,
                format_seconds(s.self_seconds),
                format_seconds(s.total_seconds),
                share,
                s.by_thread.len().max(1),
            ));
        }
        out
    }
}

/// Renders seconds with an adaptive unit.
pub(crate) fn format_seconds(s: f64) -> String {
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
    if schema != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema version {schema} (only {SCHEMA_VERSION} is read)"
        ));
    }
    let mode = req_str(v, "mode")?;
    if !matches!(mode.as_str(), "off" | "metrics" | "events") {
        return Err(format!("unknown mode {mode:?}"));
    }
    Ok(Meta {
        schema,
        mode,
        dropped_events: req_u64(v, "dropped_events")?,
    })
}

fn parse_histogram(v: &Value) -> Result<HistogramSummary, String> {
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
    Ok(HistogramSummary {
        count: req_u64(v, "count")?,
        sum: req_num(v, "sum")?,
        min: req_num_or_null(v, "min")?,
        max: req_num_or_null(v, "max")?,
        mean: req_num_or_null(v, "mean")?,
        p50: req_num_or_null(v, "p50")?,
        p90: req_num_or_null(v, "p90")?,
        p99: req_num_or_null(v, "p99")?,
        buckets,
    })
}

fn parse_span(v: &Value) -> Result<SpanSummary, String> {
    let raw = v
        .get("by_thread")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing array field \"by_thread\"".to_string())?;
    let mut by_thread = Vec::with_capacity(raw.len());
    for t in raw {
        let triple = t
            .as_arr()
            .filter(|p| p.len() == 3)
            .ok_or_else(|| "by_thread entries must be [tid, count, total_seconds]".to_string())?;
        by_thread.push(ThreadSlice {
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
    Ok(SpanSummary {
        count: req_u64(v, "count")?,
        total_seconds: req_num(v, "total_seconds")?,
        self_seconds: req_num(v, "self_seconds")?,
        min_seconds: req_num(v, "min_seconds")?,
        max_seconds: req_num(v, "max_seconds")?,
        by_thread,
    })
}

/// Validates one event-bus line: the common envelope plus the fields each
/// kind requires (matching `mss_obs::events::BusEvent::to_json_line`).
///
/// # Errors
///
/// A message naming the missing or malformed field.
pub(crate) fn parse_bus(v: &Value) -> Result<BusRecord, String> {
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
        assert!(outer.self_seconds >= 0.0);
        assert!(!outer.by_thread.is_empty());
        assert!(r.spans.contains_key("outer/inner"));
        assert!(!text.contains("\"type\":\"event\""), "{text}");
    }

    #[test]
    fn rejects_other_schemas_trace_mode_and_event_lines() {
        let span = "{\"type\":\"span\",\"path\":\"p\",\"count\":1,\"total_seconds\":1e-3,\"self_seconds\":1e-3,\"min_seconds\":1e-3,\"max_seconds\":1e-3,\"by_thread\":[[0,1,1e-3]]}";
        let cases: &[(String, &str, &str)] = &[
            (
                "{\"type\":\"meta\",\"schema\":1,\"mode\":\"metrics\"}".to_string(),
                "line 1:",
                "unsupported schema version 1",
            ),
            (
                format!("{{\"type\":\"meta\",\"schema\":2,\"mode\":\"metrics\",\"dropped_events\":0}}\n{span}"),
                "line 1:",
                "unsupported schema version 2",
            ),
            (
                "{\"type\":\"meta\",\"schema\":3,\"mode\":\"trace\",\"dropped_events\":4}".to_string(),
                "line 1:",
                "unknown mode \"trace\"",
            ),
            (
                format!(
                    "{{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}}\n{span}\n\
                     {{\"type\":\"event\",\"path\":\"p\",\"tid\":0,\"start_seconds\":0e0,\"duration_seconds\":1e-3}}"
                ),
                "line 3:",
                "unknown line type \"event\"",
            ),
        ];
        for (text, line, why) in cases {
            let err = Report::parse_ndjson(text).expect_err(why);
            assert!(err.starts_with(line) && err.contains(why), "{why}: {err}");
        }
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
                "{\"type\":\"meta\",\"schema\":3,\"mode\":\"warp\",\"dropped_events\":0}",
                "unknown mode",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}",
                ),
                "duplicate meta",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"counter\",\"name\":\"a\",\"value\":1}\n",
                    "{\"type\":\"counter\",\"name\":\"a\",\"value\":2}",
                ),
                "duplicate counter",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"mystery\"}",
                ),
                "unknown type",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"counter\",\"name\":\"a\",\"value\":-1}",
                ),
                "negative counter",
            ),
            (
                concat!(
                    "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}\n",
                    "{\"type\":\"span\",\"path\":\"p\",\"count\":1,\"total_seconds\":1e-3,\"min_seconds\":1e-3,\"max_seconds\":1e-3}",
                ),
                "span without self_seconds/by_thread",
            ),
            (
                "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}\nnot json",
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
            "{\"type\":\"meta\",\"schema\":3,\"mode\":\"metrics\",\"dropped_events\":0}\n",
            "{\"type\":\"span\",\"path\":\"parent\",\"count\":1,\"total_seconds\":1e0,\"self_seconds\":1e-2,\"min_seconds\":1e0,\"max_seconds\":1e0,\"by_thread\":[[0,1,1e0]]}\n",
            "{\"type\":\"span\",\"path\":\"parent/leaf\",\"count\":4,\"total_seconds\":9.9e-1,\"self_seconds\":9.9e-1,\"min_seconds\":2e-1,\"max_seconds\":3e-1,\"by_thread\":[[1,2,5e-1],[2,2,4.9e-1]]}\n",
        );
        let r = Report::parse_ndjson(text).unwrap();
        let hot = r.hot_paths(10);
        assert_eq!(hot[0].0, "parent/leaf", "leaf owns the self time");
        assert_eq!(hot[1].0, "parent");
        let summary = r.render_summary(5);
        assert!(summary.contains("parent/leaf"), "{summary}");
        assert!(summary.contains("schema v3"), "{summary}");
    }

    #[test]
    fn summary_warns_on_dropped_events() {
        let text = "{\"type\":\"meta\",\"schema\":3,\"mode\":\"events\",\"dropped_events\":17}\n";
        let r = Report::parse_ndjson(text).unwrap();
        assert!(r.render_summary(3).contains("17 events dropped"));
    }

    #[test]
    fn format_seconds_picks_sane_units() {
        assert_eq!(format_seconds(2.5), "2.500 s");
        assert_eq!(format_seconds(2.5e-3), "2.500 ms");
        assert_eq!(format_seconds(2.5e-6), "2.500 µs");
        assert_eq!(format_seconds(2.5e-9), "2.5 ns");
    }
}
