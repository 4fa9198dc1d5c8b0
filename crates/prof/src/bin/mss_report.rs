//! `mss_report` — the profiling CLI over NDJSON run reports.
//!
//! ```text
//! mss_report summary <report.ndjson> [--top N]
//! mss_report chrome-trace <events.ndjson> [--out FILE]
//! mss_report validate <report.ndjson>...
//! mss_report baseline <report.ndjson> --name NAME [--out FILE]
//! mss_report check <expected> <report.ndjson> [--max-span-ratio R]
//!                  [--min-span-seconds S] [--ignore-counter PREFIX]...
//! ```
//!
//! Exit codes: 0 = clean, 1 = gating regression or invalid report,
//! 2 = usage / I/O error.

use std::process::ExitCode;

use mss_obs::json::Value;
use mss_prof::baseline::{passes, Baseline, CheckOptions, BASELINE_TYPE};
use mss_prof::chrome::chrome_trace;
use mss_prof::report::Report;

const USAGE: &str = "\
usage: mss_report <command> [args]

commands:
  summary <report.ndjson> [--top N]
      Parse a run report and print the top-N hot paths (self-time
      attribution, per-thread ownership) plus headline counts.
  chrome-trace <events.ndjson> [--out FILE]
      Export the span_close events of an event stream (a run under
      MSS_METRICS=1 MSS_EVENTS_PATH=<file>, or a flight dump) as Chrome
      trace-event JSON (stdout or FILE), one X event per span closing;
      load it in https://ui.perfetto.dev or chrome://tracing.
  validate <report.ndjson>...
      Strict schema validation of each report; exit 1 on the first
      invalid file.
  baseline <report.ndjson> --name NAME [--out FILE]
      Cut a structural BENCH_<NAME>.json baseline (counters + span
      structure + advisory mean times) from a run report.
  check <expected> <report.ndjson> [--max-span-ratio R]
        [--min-span-seconds S] [--ignore-counter PREFIX]...
      Check a run against <expected>: a committed BENCH_<name>.json
      baseline or a second NDJSON run (told apart by content). A counter
      or span that differs or exists on one side only gates (counters on
      an ignore PREFIX are listed, not gated); span times gate only when
      R is given, at > R x slower above the S-second noise floor (default
      0.05; R must be finite and >= 1, S finite and >= 0). Exit 1 on
      regression.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mss_report: {e}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs the CLI; `Ok(false)` means a gating regression (exit 1).
fn run(args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    match cmd.as_str() {
        "summary" => summary(rest),
        "chrome-trace" => chrome_cmd(rest),
        "validate" => validate(rest),
        "baseline" => baseline_cmd(rest),
        "check" => check_cmd(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Parsed `--flag value` pairs, in order (flags may repeat).
type Flags = Vec<(String, String)>;

/// Splits positional arguments from `--flag value` pairs (and lists).
fn parse_flags(rest: &[String], known: &[&str]) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// A numeric flag that must be finite and at least `min`: a NaN or
/// infinite threshold would silently switch a gate off.
fn flag_f64(flags: &[(String, String)], name: &str, min: f64) -> Result<Option<f64>, String> {
    flag(flags, name)
        .map(|v| match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= min => Ok(x),
            _ => Err(format!(
                "--{name} expects a finite number >= {min}, got {v:?}"
            )),
        })
        .transpose()
}

fn flag_list(flags: &[(String, String)], name: &str) -> Vec<String> {
    flags
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| v.clone())
        .collect()
}

fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Report::parse_ndjson(&text).map_err(|e| format!("{path}: {e}"))
}

fn write_out(out: Option<&str>, content: &str, what: &str) -> Result<(), String> {
    match out {
        None => {
            print!("{content}");
            Ok(())
        }
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(path, content).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{what} -> {path}");
            Ok(())
        }
    }
}

fn summary(rest: &[String]) -> Result<bool, String> {
    let (pos, flags) = parse_flags(rest, &["top"])?;
    let [path] = pos.as_slice() else {
        return Err("summary expects exactly one report".to_string());
    };
    let top = flag(&flags, "top")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("--top expects an integer, got {v:?}"))
        })
        .transpose()?
        .unwrap_or(15);
    let report = load_report(path)?;
    print!("{}", report.render_summary(top));
    Ok(true)
}

fn chrome_cmd(rest: &[String]) -> Result<bool, String> {
    let (pos, flags) = parse_flags(rest, &["out"])?;
    let [path] = pos.as_slice() else {
        return Err("chrome-trace expects exactly one event stream".to_string());
    };
    let report = load_report(path)?;
    let trace = chrome_trace(&report)?;
    write_out(flag(&flags, "out"), &trace, "chrome trace")?;
    Ok(true)
}

fn validate(rest: &[String]) -> Result<bool, String> {
    if rest.is_empty() {
        return Err("validate expects at least one report".to_string());
    }
    for path in rest {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        match Report::parse_ndjson(&text) {
            Ok(r) => println!(
                "{path}: valid schema v{} ({} counters, {} histograms, {} spans, {} bus)",
                r.meta.schema,
                r.counters.len(),
                r.histograms.len(),
                r.spans.len(),
                r.bus.len()
            ),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                return Ok(false);
            }
        }
    }
    Ok(true)
}

fn baseline_cmd(rest: &[String]) -> Result<bool, String> {
    let (pos, flags) = parse_flags(rest, &["name", "out"])?;
    let [path] = pos.as_slice() else {
        return Err("baseline expects exactly one report".to_string());
    };
    let name = flag(&flags, "name").ok_or("baseline requires --name")?;
    let report = load_report(path)?;
    let b = Baseline::from_report(name, &report);
    write_out(flag(&flags, "out"), &b.to_json(), "baseline")?;
    Ok(true)
}

fn check_cmd(rest: &[String]) -> Result<bool, String> {
    let (pos, flags) = parse_flags(
        rest,
        &["max-span-ratio", "min-span-seconds", "ignore-counter"],
    )?;
    let [expected_path, report_path] = pos.as_slice() else {
        return Err("check expects <expected> <report.ndjson>".to_string());
    };
    let b = load_expected(expected_path)?;
    let report = load_report(report_path)?;
    let opts = CheckOptions {
        max_span_ratio: flag_f64(&flags, "max-span-ratio", 1.0)?,
        min_span_seconds: flag_f64(&flags, "min-span-seconds", 0.0)?.unwrap_or(0.05),
        ignore_counters: flag_list(&flags, "ignore-counter"),
    };
    let findings = b.check(&report, &opts);
    for f in &findings {
        println!("{} {}", if f.gating { "GATE" } else { "info" }, f.message);
    }
    if passes(&findings) {
        println!(
            "check: {} matches baseline {:?} ({} counters, {} spans)",
            report_path,
            b.name,
            b.counters.len(),
            b.spans.len()
        );
        Ok(true)
    } else {
        eprintln!(
            "mss_report check: {report_path} gates against {expected_path}; \
             if the change is intentional, regenerate with `mss_report baseline`"
        );
        Ok(false)
    }
}

/// Loads `check`'s expected side: a baseline document as is, anything else
/// as an NDJSON run cut into a baseline named after its file.
fn load_expected(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let is_baseline = Value::parse(&text)
        .is_ok_and(|v| v.get("type").and_then(Value::as_str) == Some(BASELINE_TYPE));
    let expected = if is_baseline {
        Baseline::parse(&text)
    } else {
        Report::parse_ndjson(&text).map(|r| Baseline::from_report(path, &r))
    };
    expected.map_err(|e| format!("{path}: {e}"))
}
