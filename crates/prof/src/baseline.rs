//! Structural benchmark baselines (`BENCH_<name>.json`) and the one
//! regression rule.
//!
//! A baseline captures the *deterministic* skeleton of a smoke-bench run —
//! every counter value and every span path with its closing count — plus
//! per-span mean times as an advisory timing reference. Counters and span
//! structure are reproducible bit-for-bit on any machine and at any thread
//! count (the workspace's determinism contract), so they gate exactly;
//! times are wall-clock noise, so they gate only through a ratio over a
//! noise floor, and only when a ratio is explicitly requested. Two runs
//! compare the same way: cut the first into a baseline with
//! [`Baseline::from_report`] and check the second.

use std::collections::{BTreeMap, BTreeSet};

use mss_obs::json::{json_num, json_str, Value};

use crate::report::Report;

/// Magic `type` tag of a baseline document.
pub const BASELINE_TYPE: &str = "mss-bench-baseline";

/// One span's baseline entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSpan {
    /// Closings of this path in the baseline run (deterministic, gates).
    pub(crate) count: u64,
    /// Mean seconds per closing in the baseline run (advisory).
    pub(crate) mean_seconds: f64,
}

/// A committed benchmark baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Name of the binary whose run report it was cut from (`table1`,
    /// `cache_smoke`, …); the file is `results/BENCH_<name>.json`.
    pub name: String,
    /// Counter name → expected value.
    pub counters: BTreeMap<String, u64>,
    /// Span path → expected structure and advisory timing.
    pub spans: BTreeMap<String, BaselineSpan>,
}

/// Gating policy for [`Baseline::check`].
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// When set, a span gates if its mean gets this many times slower than
    /// the baseline (subject to `min_span_seconds`). `None` = structure and
    /// counters only.
    pub max_span_ratio: Option<f64>,
    /// Spans under this much total time (in both baseline and run) never
    /// time-gate.
    pub min_span_seconds: f64,
    /// Counter name prefixes excluded from gating (still listed).
    pub ignore_counters: Vec<String>,
}

/// One check finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// True when this finding fails the gate.
    pub gating: bool,
    /// Human-readable description.
    pub message: String,
}

impl Baseline {
    /// Cuts a baseline from a parsed run report.
    pub fn from_report(name: &str, report: &Report) -> Baseline {
        Baseline {
            name: name.to_string(),
            counters: report.counters.clone(),
            spans: report
                .spans
                .iter()
                .map(|(path, s)| {
                    (
                        path.clone(),
                        BaselineSpan {
                            count: s.count,
                            mean_seconds: s.mean_seconds(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Renders the baseline as a stable, human-diffable JSON document
    /// (sorted keys, one entry per line, trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"type\": {},\n  \"name\": {},\n  \"counters\": {{\n",
            json_str(BASELINE_TYPE),
            json_str(&self.name),
        );
        let counter_lines: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("    {}: {v}", json_str(k)))
            .collect();
        out.push_str(&counter_lines.join(",\n"));
        out.push_str("\n  },\n  \"spans\": {\n");
        let span_lines: Vec<String> = self
            .spans
            .iter()
            .map(|(k, s)| {
                format!(
                    "    {}: {{\"count\": {}, \"mean_seconds\": {}}}",
                    json_str(k),
                    s.count,
                    json_num(s.mean_seconds)
                )
            })
            .collect();
        out.push_str(&span_lines.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a baseline document.
    ///
    /// # Errors
    ///
    /// When the document is not valid JSON or not a baseline.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        if v.get("type").and_then(Value::as_str) != Some(BASELINE_TYPE) {
            return Err(format!("not a baseline: missing type {BASELINE_TYPE:?}"));
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("baseline missing \"name\"")?
            .to_string();
        let mut counters = BTreeMap::new();
        for (k, val) in v
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or("baseline missing \"counters\" object")?
        {
            counters.insert(
                k.clone(),
                val.as_u64()
                    .ok_or_else(|| format!("counter {k:?} is not an integer"))?,
            );
        }
        let mut spans = BTreeMap::new();
        for (k, val) in v
            .get("spans")
            .and_then(Value::as_obj)
            .ok_or("baseline missing \"spans\" object")?
        {
            spans.insert(
                k.clone(),
                BaselineSpan {
                    count: val
                        .get("count")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("span {k:?} missing count"))?,
                    mean_seconds: val
                        .get("mean_seconds")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("span {k:?} missing mean_seconds"))?,
                },
            );
        }
        Ok(Baseline {
            name,
            counters,
            spans,
        })
    }

    /// Checks a run against this baseline; gating findings fail CI.
    ///
    /// - a counter that differs, or exists on only one side → gating,
    ///   unless its name has an ignore prefix (then listed as info),
    /// - a span that exists on only one side, or closed a different number
    ///   of times → gating,
    /// - a span whose mean got slower than the baseline's by more than
    ///   `max_span_ratio`, while its total time reaches `min_span_seconds`
    ///   on either side → gating (only when a ratio was requested). A span
    ///   whose baseline mean is 0 and that got slower has an infinite
    ///   ratio; speedups never gate.
    pub fn check(&self, report: &Report, opts: &CheckOptions) -> Vec<Finding> {
        let ignored = |name: &str| opts.ignore_counters.iter().any(|p| name.starts_with(p));
        let mut findings = Vec::new();
        let names: BTreeSet<&String> = self.counters.keys().chain(report.counters.keys()).collect();
        for name in names {
            let message = match (self.counters.get(name), report.counters.get(name)) {
                (Some(expect), Some(got)) if expect == got => continue,
                (Some(expect), Some(got)) => {
                    format!("counter {name:?} drifted: baseline {expect}, run {got}")
                }
                (Some(expect), None) => format!("counter {name:?} missing (baseline {expect})"),
                (None, Some(got)) => {
                    format!("counter {name:?} is new since the baseline (run {got})")
                }
                (None, None) => unreachable!("name came from one of the key sets"),
            };
            findings.push(Finding {
                gating: !ignored(name),
                message,
            });
        }
        let paths: BTreeSet<&String> = self.spans.keys().chain(report.spans.keys()).collect();
        for path in paths {
            let mut gate = |message| {
                findings.push(Finding {
                    gating: true,
                    message,
                })
            };
            match (self.spans.get(path), report.spans.get(path)) {
                (Some(b), Some(s)) => {
                    if s.count != b.count {
                        gate(format!(
                            "span {path:?} count drifted: baseline {}, run {}",
                            b.count, s.count
                        ));
                    }
                    if let Some(max) = opts.max_span_ratio {
                        let run_mean = s.mean_seconds();
                        let ratio = if b.mean_seconds > 0.0 {
                            run_mean / b.mean_seconds
                        } else if run_mean > 0.0 {
                            f64::INFINITY
                        } else {
                            1.0
                        };
                        let base_total = b.mean_seconds * b.count as f64;
                        if ratio > max && base_total.max(s.total_seconds) >= opts.min_span_seconds {
                            gate(format!(
                                "span {path:?} regressed: baseline mean {:.3e}s, run {run_mean:.3e}s ({ratio:.2}x > {max}x)",
                                b.mean_seconds,
                            ));
                        }
                    }
                }
                (Some(b), None) => gate(format!(
                    "span {path:?} missing (baseline count {})",
                    b.count
                )),
                (None, Some(s)) => gate(format!(
                    "span {path:?} is new since the baseline (run count {})",
                    s.count
                )),
                (None, None) => unreachable!("path came from one of the key sets"),
            }
        }
        findings
    }
}

/// True when no finding gates.
pub fn passes(findings: &[Finding]) -> bool {
    findings.iter().all(|f| !f.gating)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_obs::{Mode, Registry};

    fn sample_report(extra_counter: Option<(&str, u64)>, span_closings: u32) -> Report {
        let reg = Registry::new(Mode::Metrics);
        reg.counter_add("bench.items", 100);
        if let Some((name, v)) = extra_counter {
            reg.counter_add(name, v);
        }
        for _ in 0..span_closings {
            let _g = reg.span("bench_leg");
        }
        Report::parse_ndjson(&reg.to_ndjson()).expect("valid report")
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let report = sample_report(Some(("bench.extra", 3)), 2);
        let b = Baseline::from_report("smoke", &report);
        let text = b.to_json();
        // The document itself is strict JSON...
        Value::parse(&text).expect("baseline is valid JSON");
        // ...and parses back to an identical structure.
        let back = Baseline::parse(&text).expect("parse back");
        assert_eq!(back, b);
        assert_eq!(back.spans["bench_leg"].count, 2);
        assert_eq!(back.counters["bench.items"], 100);
    }

    #[test]
    fn counters_round_trip_exactly_beyond_f64_precision() {
        let big = (1u64 << 53) + 1;
        let reg = Registry::new(Mode::Metrics);
        reg.counter_add("max", u64::MAX);
        reg.counter_add("big", big);
        let report = Report::parse_ndjson(&reg.to_ndjson()).expect("valid report");
        assert_eq!(report.counters["max"], u64::MAX);
        assert_eq!(report.counters["big"], big);
        let back = Baseline::parse(&Baseline::from_report("exact", &report).to_json())
            .expect("parse back");
        assert_eq!(back.counters["max"], u64::MAX);
        assert_eq!(back.counters["big"], big);
        assert!(passes(&back.check(&report, &CheckOptions::default())));
    }

    #[test]
    fn self_check_passes() {
        let report = sample_report(None, 2);
        let b = Baseline::from_report("smoke", &report);
        let findings = b.check(&report, &CheckOptions::default());
        assert!(passes(&findings), "{findings:?}");
    }

    #[test]
    fn counter_drift_and_span_count_drift_gate() {
        let b = Baseline::from_report("smoke", &sample_report(None, 2));
        let drifted = sample_report(None, 3);
        let findings = b.check(&drifted, &CheckOptions::default());
        assert!(!passes(&findings));
        assert!(findings
            .iter()
            .any(|f| f.gating && f.message.contains("count drifted")));

        let counter_drift = {
            let reg = Registry::new(Mode::Metrics);
            reg.counter_add("bench.items", 99);
            for _ in 0..2 {
                let _g = reg.span("bench_leg");
            }
            Report::parse_ndjson(&reg.to_ndjson()).unwrap()
        };
        let findings = b.check(&counter_drift, &CheckOptions::default());
        assert!(findings
            .iter()
            .any(|f| f.gating && f.message.contains("drifted: baseline 100, run 99")));

        // A counter the run no longer emits gates too.
        let richer = Baseline::from_report("smoke", &sample_report(Some(("bench.extra", 3)), 2));
        let findings = richer.check(&sample_report(None, 2), &CheckOptions::default());
        assert!(!passes(&findings));
        assert!(findings
            .iter()
            .any(|f| f.gating && f.message.contains("\"bench.extra\" missing")));
    }

    #[test]
    fn new_instrumentation_gates_unless_ignored() {
        let b = Baseline::from_report("smoke", &sample_report(None, 2));
        let richer = sample_report(Some(("bench.new_counter", 1)), 2);
        let findings = b.check(&richer, &CheckOptions::default());
        assert!(!passes(&findings), "an added counter gates");
        assert!(findings
            .iter()
            .any(|f| f.gating && f.message.contains("new since the baseline")));

        // An ignore prefix lists the counter but does not gate on it.
        let lenient = CheckOptions {
            ignore_counters: vec!["bench.new".to_string()],
            ..CheckOptions::default()
        };
        let findings = b.check(&richer, &lenient);
        assert!(passes(&findings), "{findings:?}");
        assert_eq!(findings.len(), 1, "still listed as info: {findings:?}");

        // An added span gates; the counter prefixes do not cover spans.
        let reg = Registry::new(Mode::Metrics);
        reg.counter_add("bench.items", 100);
        for _ in 0..2 {
            let _g = reg.span("bench_leg");
        }
        {
            let _g = reg.span("surprise");
        }
        let extra_span = Report::parse_ndjson(&reg.to_ndjson()).unwrap();
        let findings = b.check(&extra_span, &lenient);
        assert!(!passes(&findings));
        assert!(findings
            .iter()
            .any(|f| f.gating && f.message.contains("\"surprise\" is new")));
        // And a span that disappears gates the other way round.
        let findings = Baseline::from_report("smoke", &extra_span).check(&richer, &lenient);
        assert!(findings
            .iter()
            .any(|f| f.gating && f.message.contains("\"surprise\" missing")));
    }

    #[test]
    fn time_gate_is_opt_in_and_noise_floored() {
        let fast = {
            let reg = Registry::new(Mode::Metrics);
            {
                let _g = reg.span("leg");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Report::parse_ndjson(&reg.to_ndjson()).unwrap()
        };
        let slow = {
            let reg = Registry::new(Mode::Metrics);
            {
                let _g = reg.span("leg");
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            Report::parse_ndjson(&reg.to_ndjson()).unwrap()
        };
        let b = Baseline::from_report("smoke", &fast);
        // No ratio requested: times never gate.
        assert!(passes(&b.check(&slow, &CheckOptions::default())));
        // Ratio requested but floor above the span: still clean.
        let floored = CheckOptions {
            max_span_ratio: Some(2.0),
            min_span_seconds: 10.0,
            ..CheckOptions::default()
        };
        assert!(passes(&b.check(&slow, &floored)));
        // Ratio requested with a realistic floor: the 20x slowdown gates.
        let strict = CheckOptions {
            max_span_ratio: Some(2.0),
            min_span_seconds: 0.02,
            ..CheckOptions::default()
        };
        let findings = b.check(&slow, &strict);
        assert!(!passes(&findings));
        assert!(findings.iter().any(|f| f.message.contains("regressed")));
        // Speedups never gate, whatever the floor.
        let slow_base = Baseline::from_report("smoke", &slow);
        let zero_floor = CheckOptions {
            min_span_seconds: 0.0,
            ..strict
        };
        assert!(passes(&slow_base.check(&fast, &zero_floor)));
        // A span whose baseline mean is 0 and that got slower gates.
        let mut zero = Baseline::from_report("smoke", &slow);
        zero.spans.get_mut("leg").unwrap().mean_seconds = 0.0;
        let findings = zero.check(&slow, &zero_floor);
        assert!(
            findings
                .iter()
                .any(|f| f.gating && f.message.contains("(infx > 2x)")),
            "{findings:?}"
        );
        assert!(passes(&zero.check(&slow, &floored)), "floored");
    }

    #[test]
    fn rejects_non_baseline_documents() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"type\":\"other\"}").is_err());
        assert!(Baseline::parse("not json").is_err());
    }
}
