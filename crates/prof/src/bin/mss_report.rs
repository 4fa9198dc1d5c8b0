//! `mss_report` — the profiling CLI over NDJSON run reports.
//!
//! ```text
//! mss_report summary <report.ndjson> [--top N]
//! mss_report chrome-trace <events.ndjson> [--out FILE]
//! mss_report validate <report.ndjson>...
//! mss_report baseline <report.ndjson> --name NAME [--out FILE]
//! mss_report check <expected> <report.ndjson> [--max-span-ratio R]
//!                  [--min-span-seconds S] [--ignore-counter PREFIX]...
//! mss_report tail <events.ndjson> [--poll-ms N] [--idle-ms N] [--kinds all]
//! ```
//!
//! Exit codes: 0 = clean, 1 = gating regression or invalid report,
//! 2 = usage / I/O error.

use std::io::{Read as _, Seek as _};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mss_prof::baseline::{passes, Baseline, CheckOptions, BASELINE_TYPE};
use mss_prof::chrome::chrome_trace;
use mss_prof::json::Value;
use mss_prof::report::{parse_bus, Report};

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
      0.05). Exit 1 on regression.
  tail <events.ndjson> [--poll-ms N] [--idle-ms N] [--kinds all]
      Follow a live MSS_EVENTS NDJSON stream and render sweep progress,
      worker heartbeats, failures and watchdog regressions as they land.
      Waits for the file to appear, tolerates a torn final line, and exits
      once the stream is idle for N ms (default 2000; 0 = single pass).
      --kinds all additionally renders gauge/counter/span events.
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
        "tail" => tail_cmd(rest),
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

fn flag_f64(flags: &[(String, String)], name: &str) -> Result<Option<f64>, String> {
    flag(flags, name)
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("--{name} expects a number, got {v:?}"))
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
        max_span_ratio: flag_f64(&flags, "max-span-ratio")?,
        min_span_seconds: flag_f64(&flags, "min-span-seconds")?.unwrap_or(0.05),
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

/// Running tallies the tail prints on exit.
#[derive(Default)]
struct TailStats {
    events: u64,
    progress: u64,
    heartbeats: u64,
    failures: u64,
    watchdog: u64,
    malformed: u64,
}

fn tail_cmd(rest: &[String]) -> Result<bool, String> {
    let (pos, flags) = parse_flags(rest, &["poll-ms", "idle-ms", "kinds"])?;
    let [path] = pos.as_slice() else {
        return Err("tail expects exactly one event stream".to_string());
    };
    let poll_ms = flag_f64(&flags, "poll-ms")?.unwrap_or(200.0).max(10.0);
    let idle_ms = flag_f64(&flags, "idle-ms")?.unwrap_or(2000.0).max(0.0);
    let all_kinds = match flag(&flags, "kinds") {
        None | Some("sweep") => false,
        Some("all") => true,
        Some(other) => return Err(format!("--kinds expects sweep or all, got {other:?}")),
    };

    let poll = Duration::from_millis(poll_ms as u64);
    let idle = Duration::from_millis(idle_ms as u64);
    let mut offset = 0u64;
    let mut carry = String::new();
    let mut stats = TailStats::default();
    let mut last_growth = Instant::now();
    loop {
        let grew = drain_stream(path, &mut offset, &mut carry, all_kinds, &mut stats)?;
        if grew {
            last_growth = Instant::now();
        } else {
            if last_growth.elapsed() >= idle {
                break;
            }
            std::thread::sleep(poll);
        }
    }
    if !carry.is_empty() {
        eprintln!("tail: stream ends mid-line ({} bytes torn)", carry.len());
    }
    println!(
        "tail: {} events ({} progress, {} heartbeats, {} failures, {} watchdog{})",
        stats.events,
        stats.progress,
        stats.heartbeats,
        stats.failures,
        stats.watchdog,
        if stats.malformed > 0 {
            format!(", {} malformed", stats.malformed)
        } else {
            String::new()
        }
    );
    Ok(true)
}

/// Reads whatever the stream has grown past `offset`, renders the complete
/// lines and keeps the torn tail in `carry`. Returns whether anything new
/// arrived; a not-yet-existing file counts as no growth (the writer may
/// still be starting up).
fn drain_stream(
    path: &str,
    offset: &mut u64,
    carry: &mut String,
    all_kinds: bool,
    stats: &mut TailStats,
) -> Result<bool, String> {
    let mut file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    file.seek(std::io::SeekFrom::Start(*offset))
        .map_err(|e| format!("{path}: {e}"))?;
    let mut chunk = String::new();
    file.read_to_string(&mut chunk)
        .map_err(|e| format!("{path}: {e}"))?;
    if chunk.is_empty() {
        return Ok(false);
    }
    *offset += chunk.len() as u64;
    carry.push_str(&chunk);
    while let Some(nl) = carry.find('\n') {
        let line: String = carry.drain(..=nl).collect();
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        match render_stream_line(line, all_kinds) {
            Ok(Some(rendered)) => {
                stats.events += 1;
                match rendered.kind {
                    StreamKind::Progress => stats.progress += 1,
                    StreamKind::Heartbeat => stats.heartbeats += 1,
                    StreamKind::Failure => stats.failures += 1,
                    StreamKind::Watchdog => stats.watchdog += 1,
                    StreamKind::Other => {}
                }
                if let Some(text) = rendered.text {
                    println!("{text}");
                }
            }
            Ok(None) => {}
            Err(e) => {
                stats.malformed += 1;
                eprintln!("tail: skipping malformed line: {e}");
            }
        }
    }
    Ok(true)
}

enum StreamKind {
    Progress,
    Heartbeat,
    Failure,
    Watchdog,
    Other,
}

struct RenderedLine {
    kind: StreamKind,
    /// `None` when the event is counted but not displayed at this verbosity.
    text: Option<String>,
}

/// Renders one NDJSON stream line; `Ok(None)` for non-bus lines (meta,
/// aggregate report lines) which a tail silently passes over. Bus lines go
/// through the report parser's validator, so `tail` and `validate` reject
/// the same lines.
fn render_stream_line(line: &str, all_kinds: bool) -> Result<Option<RenderedLine>, String> {
    let v = Value::parse(line)?;
    if v.get("type").and_then(Value::as_str) != Some("bus") {
        return Ok(None);
    }
    let r = parse_bus(&v)?;
    // Every field read below was checked present by `parse_bus`.
    let s = |key: &str| r.str_field(key).unwrap_or_default();
    let n = |key: &str| r.u64_field(key).unwrap_or_default();
    let f = |key: &str| r.num_field(key);
    let stamp = format!("[{:8.3}s]", r.t_seconds);
    let (kind, text) = match r.kind.as_str() {
        "progress" => {
            let budget = f("budget_seconds")
                .map(|b| format!(", budget {b:.2}s"))
                .unwrap_or_default();
            (
                StreamKind::Progress,
                Some(format!(
                    "{stamp} sweep {}: {}/{} done, {} retried{budget}",
                    s("sweep"),
                    n("done"),
                    n("total"),
                    n("retried"),
                )),
            )
        }
        "heartbeat" => (
            StreamKind::Heartbeat,
            Some(format!(
                "{stamp} sweep {}: worker {} alive ({} tasks, busy {:.3}s)",
                s("sweep"),
                n("worker"),
                n("tasks_done"),
                f("busy_seconds").unwrap_or_default(),
            )),
        ),
        "failure" => (
            StreamKind::Failure,
            Some(format!(
                "{stamp} sweep {}: task {} FAILED ({}, {} attempts): {}",
                s("sweep"),
                n("index"),
                s("failure"),
                n("attempts"),
                s("message"),
            )),
        ),
        "watchdog" => (
            StreamKind::Watchdog,
            Some(format!(
                "{stamp} WATCHDOG: span {} {:.2}x over baseline ({:.3e}s -> {:.3e}s)",
                s("span"),
                // A null ratio is the slowdown of a zero-mean baseline span.
                f("ratio").unwrap_or(f64::INFINITY),
                f("baseline_seconds").unwrap_or_default(),
                f("run_seconds").unwrap_or_default(),
            )),
        ),
        "gauge_set" => (
            StreamKind::Other,
            all_kinds.then(|| {
                format!(
                    "{stamp} gauge {} = {}",
                    s("name"),
                    f("value").map_or("null".into(), |x| format!("{x:.6e}")),
                )
            }),
        ),
        "counter_delta" => (
            StreamKind::Other,
            all_kinds.then(|| format!("{stamp} counter {} += {}", s("name"), n("delta"))),
        ),
        kind => (
            StreamKind::Other,
            all_kinds.then(|| format!("{stamp} {kind} {}", s("path"))),
        ),
    };
    Ok(Some(RenderedLine { kind, text }))
}
