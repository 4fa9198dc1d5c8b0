//! Runtime perf watchdog: live span aggregates vs committed baselines.
//!
//! CI checks a finished smoke run against `results/BENCH_<name>.json`
//! after the fact. A long-running sweep service needs the same comparison
//! *while the process is alive*: the watchdog takes a live
//! `mss_obs::Registry`, renders it through the report parser, and applies
//! [`Baseline::check`]'s span-time rule (`BaselineSpan::slowdown`) to the
//! spans both sides have. Hits become [`WatchdogRegression`]s, surfaced as
//! `watchdog.regression` counters and `watchdog` events on the telemetry
//! bus.
//!
//! Policy is deliberately warn-only by default (`MSS_WATCHDOG=1`): wall
//! times cross machines, so a regression report is advice, not proof. The
//! smoke bins escalate to a hard failure under `MSS_WATCHDOG=strict`,
//! where the committed baseline was cut on comparable hardware.

use std::path::Path;

use crate::baseline::Baseline;
use crate::report::Report;

/// Environment variable selecting the watchdog mode (`off` default, any
/// [`mss_obs::parse_flag`] spelling to disable or warn, `warn` to warn,
/// `strict` to gate).
pub(crate) const WATCHDOG_ENV: &str = "MSS_WATCHDOG";

/// Counter bumped (on the global registry) once per detected regression.
pub(crate) const REGRESSION_COUNTER: &str = "watchdog.regression";

/// Default slowdown ratio that counts as a regression. Looser than CI's
/// committed-baseline gate (2x) because a *live* process also carries
/// whatever else the host is doing.
pub(crate) const DEFAULT_MAX_SPAN_RATIO: f64 = 4.0;

/// Default noise floor: spans under this much total time in both baseline
/// and run never trigger.
pub(crate) const DEFAULT_MIN_SPAN_SECONDS: f64 = 0.05;

/// What to do when a regression is found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogMode {
    /// Watchdog disabled.
    Off,
    /// Report regressions (counter + event + stderr), never fail.
    Warn,
    /// Report and gate: smoke bins exit non-zero on any regression.
    Strict,
}

impl WatchdogMode {
    /// Reads the mode from `WATCHDOG_ENV`: unset or a false
    /// [`mss_obs::parse_flag`] spelling disables, a true one or `warn`
    /// warns, `strict` gates; anything else warns once on stderr and
    /// counts as off (the workspace env convention).
    pub fn from_env() -> Self {
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        let Ok(raw) = std::env::var(WATCHDOG_ENV) else {
            return Self::Off;
        };
        match raw.trim().to_ascii_lowercase().as_str() {
            "warn" => return Self::Warn,
            "strict" => return Self::Strict,
            _ => {}
        }
        match mss_obs::parse_flag(&raw) {
            Ok(true) => Self::Warn,
            Ok(false) => Self::Off,
            Err(why) => {
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: ignoring {WATCHDOG_ENV}={raw:?} ({why}); \
                         expected off, warn (1/on/true/yes) or strict"
                    );
                });
                Self::Off
            }
        }
    }
}

/// One span running slower than its committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogRegression {
    /// Span path.
    pub span: String,
    /// Per-call mean seconds in the baseline.
    pub(crate) baseline_seconds: f64,
    /// Per-call mean seconds observed live.
    pub(crate) run_seconds: f64,
    /// `run_seconds / baseline_seconds` (infinite when the baseline mean
    /// is 0).
    pub ratio: f64,
}

impl WatchdogRegression {
    /// Human-readable one-liner.
    pub(crate) fn render(&self) -> String {
        format!(
            "watchdog: span {:?} regressed {:.2}x over baseline ({:.3e}s -> {:.3e}s)",
            self.span, self.ratio, self.baseline_seconds, self.run_seconds
        )
    }
}

/// A live perf watchdog bound to one committed baseline.
#[derive(Debug, Clone)]
pub struct Watchdog {
    baseline: Baseline,
    /// Slowdown ratio that counts as a regression.
    pub(crate) max_span_ratio: f64,
    /// Noise floor in seconds of span total time.
    pub(crate) min_span_seconds: f64,
}

impl Watchdog {
    /// Wraps a parsed baseline with an explicit policy.
    pub fn new(baseline: Baseline, max_span_ratio: f64, min_span_seconds: f64) -> Self {
        Self {
            baseline,
            max_span_ratio,
            min_span_seconds,
        }
    }

    /// Loads a committed `BENCH_<name>.json` with the default live policy.
    ///
    /// # Errors
    ///
    /// When the file cannot be read or is not a baseline document.
    pub fn from_baseline_file(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        let baseline = Baseline::parse(&text)?;
        Ok(Self::new(
            baseline,
            DEFAULT_MAX_SPAN_RATIO,
            DEFAULT_MIN_SPAN_SECONDS,
        ))
    }

    /// The wrapped baseline.
    pub fn baseline(&self) -> &Baseline {
        &self.baseline
    }

    /// Compares span means in `report` against the baseline with
    /// [`Baseline::check`]'s span-time rule (`BaselineSpan::slowdown`), on
    /// the spans both sides have. Counters, span counts and spans on
    /// only one side are *not* the watchdog's business — those gate
    /// structurally in CI; a live process may legitimately be mid-sweep.
    pub fn check_report(&self, report: &Report) -> Vec<WatchdogRegression> {
        self.baseline
            .spans
            .iter()
            .filter_map(|(path, b)| {
                let s = report.spans.get(path)?;
                let ratio = b.slowdown(s, self.max_span_ratio, self.min_span_seconds)?;
                Some(WatchdogRegression {
                    span: path.clone(),
                    baseline_seconds: b.mean_seconds,
                    run_seconds: s.mean_seconds(),
                    ratio,
                })
            })
            .collect()
    }

    /// Renders a live registry through the report parser and checks it.
    ///
    /// # Errors
    ///
    /// When the registry's NDJSON does not validate (a writer bug — the
    /// watchdog must never paper over that).
    pub fn check_registry(
        &self,
        registry: &mss_obs::Registry,
    ) -> Result<Vec<WatchdogRegression>, String> {
        let report = Report::parse_ndjson(&registry.to_ndjson())?;
        Ok(self.check_report(&report))
    }
}

/// Surfaces regressions on the global telemetry plane — one
/// `REGRESSION_COUNTER` bump, one `watchdog` bus event and one stderr
/// line each — and returns `true` when `mode` is strict and anything
/// regressed (the caller should then fail its run).
pub fn surface(mode: WatchdogMode, regressions: &[WatchdogRegression]) -> bool {
    if mode == WatchdogMode::Off {
        return false;
    }
    for r in regressions {
        mss_obs::counter_add(REGRESSION_COUNTER, 1);
        mss_obs::events::publish(mss_obs::events::EventPayload::Watchdog {
            span: r.span.clone(),
            baseline_seconds: r.baseline_seconds,
            run_seconds: r.run_seconds,
            ratio: r.ratio,
        });
        eprintln!("{}", r.render());
    }
    mode == WatchdogMode::Strict && !regressions.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_obs::{Mode, Registry};

    fn report_with_leg(spin_ms: u64) -> Report {
        let reg = Registry::new(Mode::Metrics);
        {
            let _g = reg.span("watchdog_leg");
            std::thread::sleep(std::time::Duration::from_millis(spin_ms));
        }
        {
            let _g = reg.span("tiny_leg");
        }
        Report::parse_ndjson(&reg.to_ndjson()).expect("valid report")
    }

    #[test]
    fn detects_a_deliberately_slowed_span() {
        // The acceptance self-test: cut a baseline from a fast run, then
        // slow the same span ~20x and demand the watchdog names it.
        let baseline = Baseline::from_report("wd", &report_with_leg(3));
        let wd = Watchdog::new(baseline, 4.0, 0.02);
        let slow = report_with_leg(60);
        let regressions = wd.check_report(&slow);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        let r = &regressions[0];
        assert_eq!(r.span, "watchdog_leg");
        assert!(r.ratio > 4.0, "{r:?}");
        assert!(r.render().contains("watchdog_leg"));
        // And a healthy run stays quiet.
        assert!(wd.check_report(&report_with_leg(3)).is_empty());
    }

    #[test]
    fn noise_floor_suppresses_sub_floor_spans() {
        // tiny_leg is microseconds in both runs; even an enormous relative
        // slowdown below the floor must not trigger.
        let baseline = Baseline::from_report("wd", &report_with_leg(2));
        let wd = Watchdog::new(baseline, 1.001, 10.0);
        assert!(wd.check_report(&report_with_leg(50)).is_empty());
    }

    #[test]
    fn spans_unknown_to_the_baseline_are_ignored() {
        let baseline = Baseline::from_report("wd", &report_with_leg(2));
        let wd = Watchdog::new(baseline, 4.0, 0.0);
        let reg = Registry::new(Mode::Metrics);
        {
            let _g = reg.span("brand_new_leg");
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        let report = Report::parse_ndjson(&reg.to_ndjson()).unwrap();
        assert!(wd.check_report(&report).is_empty());
    }

    #[test]
    fn check_registry_goes_through_the_validator() {
        let baseline = Baseline::from_report("wd", &report_with_leg(2));
        let wd = Watchdog::new(baseline, 4.0, 0.02);
        let live = Registry::new(Mode::Metrics);
        {
            let _g = live.span("watchdog_leg");
            std::thread::sleep(std::time::Duration::from_millis(45));
        }
        let regressions = wd.check_registry(&live).expect("live registry parses");
        assert_eq!(regressions.len(), 1);
    }

    #[test]
    fn surface_gates_only_under_strict() {
        let regression = WatchdogRegression {
            span: "leg".into(),
            baseline_seconds: 1e-3,
            run_seconds: 1e-2,
            ratio: 10.0,
        };
        assert!(!surface(
            WatchdogMode::Off,
            std::slice::from_ref(&regression)
        ));
        assert!(!surface(
            WatchdogMode::Warn,
            std::slice::from_ref(&regression)
        ));
        assert!(surface(
            WatchdogMode::Strict,
            std::slice::from_ref(&regression)
        ));
        assert!(!surface(WatchdogMode::Strict, &[]));
    }
}
