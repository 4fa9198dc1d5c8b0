//! `mss-prof` — the profiling and perf-regression subsystem of the GREAT
//! MSS flow: the consumption side of `mss-obs`.
//!
//! `mss-obs` (PR 2) made every layer of the device→PDK→memory→system flow
//! *emit* NDJSON run reports; this crate makes them *actionable*:
//!
//! - [`report`] — strict parsing/validation of exactly what `mss-obs`
//!   writes (schema [`mss_obs::SCHEMA_VERSION`]: run reports with self
//!   time, per-thread ownership, quantiles and gauges, plus event-bus
//!   streams) and top-N hot-path attribution,
//! - [`chrome`] — Chrome trace-event export (loadable in Perfetto /
//!   `chrome://tracing`) of an event-bus stream's `span_close` lines, with
//!   per-thread timelines named after `mss-exec` workers,
//! - [`baseline`] — structural baselines and the one regression rule:
//!   [`Baseline::check`] compares a run against a committed
//!   `BENCH_<name>.json` or against a second run cut into a baseline.
//!   Counter and span-structure drift always gates (deterministic); span
//!   times gate through a ratio over a noise floor,
//! - [`watchdog`] — the same span-time rule applied to a live process,
//! - [`json`] — the zero-dependency strict JSON parser underneath it all.
//!
//! The `mss_report` binary exposes all of it on the command line:
//!
//! ```text
//! mss_report summary  target/cache_smoke.ndjson
//! mss_report chrome-trace target/cache_smoke_events.ndjson --out trace.json
//! mss_report validate target/*.ndjson
//! mss_report baseline target/cache_smoke.ndjson --name cache_smoke
//! mss_report check    results/BENCH_cache_smoke.json target/cache_smoke.ndjson
//! mss_report check    base.ndjson new.ndjson --max-span-ratio 2.0
//! ```
//!
//! Everything here is hermetic: no dependencies outside the workspace, no
//! network, deterministic output for deterministic input.

#![deny(missing_docs)]

pub mod baseline;
pub mod chrome;
pub mod json;
pub mod report;
pub mod watchdog;

pub use baseline::{Baseline, CheckOptions, Finding};
pub use chrome::chrome_trace;
pub use json::Value;
pub use report::{BusRecord, Report};
pub use watchdog::{Watchdog, WatchdogMode, WatchdogRegression};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::tests::{events_file, publish_span};
    use mss_obs::events::EventBus;
    use mss_obs::{Mode, Registry};

    /// End-to-end: a live registry report survives the full pipeline —
    /// parse → summarize → baseline → JSON round trip → self-check — and the
    /// bus snapshot of the same spans exports one timeline event per
    /// closing the report counts.
    #[test]
    fn full_pipeline_round_trip() {
        let reg = Registry::new(Mode::Metrics);
        let bus = EventBus::new(true, None);
        reg.counter_add("e2e.items", 5);
        reg.record_value("e2e.latency", 1e-6);
        {
            let _g = reg.span("e2e");
            {
                let _h = reg.span("leg");
            }
            publish_span(&bus, "e2e/leg", 1e-6);
        }
        publish_span(&bus, "e2e", 2e-6);
        let text = reg.to_ndjson();

        let report = Report::parse_ndjson(&text).expect("parse");
        assert!(report.render_summary(10).contains("e2e"));

        let b = Baseline::from_report("e2e", &report);
        let reparsed = Baseline::parse(&b.to_json()).expect("baseline round-trip");
        let strict = CheckOptions {
            max_span_ratio: Some(1.0),
            ..CheckOptions::default()
        };
        assert!(baseline::passes(&reparsed.check(&report, &strict)));

        let stream = Report::parse_ndjson(&events_file(&bus)).expect("parse stream");
        let trace = chrome_trace(&stream).expect("trace export");
        json::Value::parse(&trace).expect("trace is valid JSON");
        let closings: u64 = report.spans.values().map(|s| s.count).sum();
        assert_eq!(trace.matches("\"ph\":\"X\"").count() as u64, closings);
    }
}
