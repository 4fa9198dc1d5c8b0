//! Chrome trace-event export: turns an event-bus stream into a JSON
//! document loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! The input is a mode-`events` NDJSON file — the live stream written under
//! `MSS_METRICS=1 MSS_EVENTS_PATH=<file>`, or a flight-recorder dump. Every
//! `span_close` line becomes one `X` (complete) event; nothing is sampled
//! or capped, so the timeline holds every span closing the stream holds.
//! The exporter emits the documented subset of the Trace Event Format: one
//! `M` (metadata) event naming the process, one per thread ordinal
//! (`main`, `worker-0`, `worker-1`, … matching `mss-exec`'s pinning), and
//! the `X` events with microsecond `ts`/`dur`. A closing at bus time `t`
//! after `d` seconds starts at `ts = max(0, t − d)`, relative to the bus
//! epoch, so timelines from different runs line up at zero.

use std::collections::BTreeSet;

use mss_obs::json::json_str;

use crate::report::{BusRecord, Report};

/// Human-facing name of a thread ordinal: `main` for 0, `worker-k` for the
/// ordinal `mss-exec` pins as `1 + k`.
pub(crate) fn thread_name(tid: u32) -> String {
    if tid == 0 {
        "main".to_string()
    } else {
        format!("worker-{}", tid - 1)
    }
}

/// Renders the stream's `span_close` events as a Chrome trace-event JSON
/// document.
///
/// # Errors
///
/// When the report carries no `span_close` events — an aggregate metrics
/// report has no timeline; re-run with `MSS_METRICS=1
/// MSS_EVENTS_PATH=<file>` and export that file.
pub fn chrome_trace(report: &Report) -> Result<String, String> {
    let closes: Vec<&BusRecord> = report
        .bus
        .iter()
        .filter(|r| r.kind == "span_close")
        .collect();
    if closes.is_empty() {
        return Err(format!(
            "report (mode {:?}) has no span_close events; re-run the workload with \
             MSS_METRICS=1 MSS_EVENTS_PATH=<file> and export that event stream",
            report.meta.mode
        ));
    }
    let tids: BTreeSet<u32> = closes.iter().map(|r| r.tid).collect();
    let mut events = vec![
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"mss\"}}"
            .to_string(),
    ];
    events.extend(tids.iter().map(|tid| {
        format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            json_str(&thread_name(*tid))
        )
    }));
    events.extend(closes.iter().map(|r| {
        // The parser guarantees both fields on every span_close line.
        let path = r.str_field("path").unwrap_or_default();
        let duration = r.num_field("duration_seconds").unwrap_or(0.0).max(0.0);
        let start = (r.t_seconds - duration).max(0.0);
        let leaf = path.rsplit('/').next().unwrap_or(path);
        format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"span\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"path\":{}}}}}",
            r.tid,
            json_str(leaf),
            start * 1e6,
            duration * 1e6,
            json_str(path)
        )
    }));
    Ok(format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mss_obs::events::{BusEvent, EventBus, EventPayload};
    use mss_obs::json::meta_line;
    use mss_obs::json::Value;
    use mss_obs::{Mode, Registry};

    /// A mode-`events` file holding the bus's flight-ring snapshot — the
    /// same lines the live stream and flight dumps carry.
    pub(crate) fn events_file(bus: &EventBus) -> String {
        let mut text = meta_line("events", 0, None);
        for event in bus.snapshot() {
            text.push_str(&event.to_json_line());
            text.push('\n');
        }
        text
    }

    /// Publishes the open/close pair the global `mss_obs::span` emits.
    pub(crate) fn publish_span(bus: &EventBus, path: &str, duration_seconds: f64) {
        bus.publish(EventPayload::SpanOpen { path: path.into() });
        bus.publish(EventPayload::SpanClose {
            path: path.into(),
            duration_seconds,
        });
    }

    fn complete_events(trace: &str) -> Vec<Value> {
        let doc = Value::parse(trace).expect("chrome trace must be valid JSON");
        doc.get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .cloned()
            .collect()
    }

    /// The acceptance gate: a bus snapshot must export as valid trace-event
    /// JSON — parsed back by the in-tree strict parser, with the structure
    /// Perfetto requires (`traceEvents` array; every `X` event carrying
    /// name/ts/dur/pid/tid) and one `X` event per `span_close`.
    #[test]
    fn export_from_a_live_trace_run_is_valid_trace_event_json() {
        let bus = EventBus::new(true, None);
        publish_span(&bus, "flow/characterize", 2e-4);
        bus.publish(EventPayload::CounterDelta {
            name: "cells".into(),
            delta: 3,
        });
        publish_span(&bus, "flow/simulate", 1e-4);
        publish_span(&bus, "flow", 4e-4);
        let report = Report::parse_ndjson(&events_file(&bus)).expect("valid NDJSON");
        let trace = chrome_trace(&report).expect("export");

        let complete = complete_events(&trace);
        assert_eq!(complete.len(), 3, "one X event per span closing");
        for e in &complete {
            for key in ["name", "ts", "dur", "pid", "tid"] {
                assert!(e.get(key).is_some(), "X event missing {key}: {e:?}");
            }
            assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
            // Leaf name plus the full path for disambiguation.
            let path = e
                .get("args")
                .unwrap()
                .get("path")
                .unwrap()
                .as_str()
                .unwrap();
            assert!(path.ends_with(e.get("name").unwrap().as_str().unwrap()));
        }
        // Metadata names the process and every thread in the timeline.
        let doc = Value::parse(&trace).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(events
            .iter()
            .any(|e| { e.get("name").and_then(Value::as_str) == Some("process_name") }));
        assert!(events
            .iter()
            .any(|e| { e.get("name").and_then(Value::as_str) == Some("thread_name") }));
    }

    #[test]
    fn metrics_only_reports_refuse_with_a_hint() {
        let reg = Registry::new(Mode::Metrics);
        {
            let _g = reg.span("quiet");
        }
        let report = Report::parse_ndjson(&reg.to_ndjson()).unwrap();
        let err = chrome_trace(&report).expect_err("aggregates, no timeline");
        assert!(err.contains("MSS_EVENTS_PATH"), "{err}");

        // An event stream without span closings has no timeline either.
        let bus = EventBus::new(true, None);
        bus.publish(EventPayload::SpanOpen {
            path: "open".into(),
        });
        let report = Report::parse_ndjson(&events_file(&bus)).unwrap();
        let err = chrome_trace(&report).expect_err("no span_close, no trace");
        assert!(err.contains("MSS_EVENTS_PATH"), "{err}");
    }

    #[test]
    fn every_span_close_is_exported_without_a_cap() {
        // Well past the 8192 events the old trace buffer kept.
        let closings = 8192 + 500;
        let mut text = meta_line("events", 0, None);
        for seq in 0..closings {
            let line = BusEvent {
                seq,
                tid: (seq % 3) as u32,
                t_seconds: 1e-3 * (seq + 1) as f64,
                payload: EventPayload::SpanClose {
                    path: "run/chunk".into(),
                    duration_seconds: 5e-4,
                },
            }
            .to_json_line();
            text.push_str(&line);
            text.push('\n');
        }
        let report = Report::parse_ndjson(&text).unwrap();
        let trace = chrome_trace(&report).unwrap();
        assert_eq!(complete_events(&trace).len() as u64, closings);
    }

    #[test]
    fn hostile_durations_clamp_instead_of_panicking() {
        let text = concat!(
            "{\"type\":\"meta\",\"schema\":3,\"mode\":\"events\",\"dropped_events\":0}\n",
            "{\"type\":\"bus\",\"kind\":\"span_close\",\"seq\":0,\"tid\":2,\"t_seconds\":1e-3,\"path\":\"a/b\",\"duration_seconds\":5e0}\n",
            "{\"type\":\"bus\",\"kind\":\"span_close\",\"seq\":1,\"tid\":0,\"t_seconds\":2e-3,\"path\":\"c\",\"duration_seconds\":-1e0}\n",
        );
        let report = Report::parse_ndjson(text).unwrap();
        let complete = complete_events(&chrome_trace(&report).unwrap());
        let num = |e: &Value, key: &str| e.get(key).and_then(Value::as_f64).unwrap();
        assert_eq!(num(&complete[0], "ts"), 0.0, "longer than the bus clock");
        assert_eq!(num(&complete[0], "dur"), 5e6);
        assert_eq!(num(&complete[0], "tid"), 2.0, "tid from the envelope");
        assert_eq!(num(&complete[1], "dur"), 0.0, "negative durations clamp");
        assert_eq!(num(&complete[1], "ts"), 2e3);
    }

    #[test]
    fn worker_threads_get_stable_names() {
        assert_eq!(thread_name(0), "main");
        assert_eq!(thread_name(1), "worker-0");
        assert_eq!(thread_name(9), "worker-8");
    }
}
