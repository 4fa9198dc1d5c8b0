//! CI gate for the live telemetry plane: proves the event bus is an
//! *observer*, never a participant.
//!
//! ```text
//! cargo run --release -p mss-bench --bin telemetry_smoke
//! ```
//!
//! Legs:
//!
//! 1. **parity** — re-runs itself as a child process with `MSS_EVENTS`
//!    off and on at 1/2/8 threads; all six simulation outputs (gemsim
//!    supervised sweep + vaet Monte Carlo) must be byte-identical,
//! 2. **stream** — the telemetry-on children's event streams must pass the
//!    `mss-prof` schema validator and carry progress for both sweeps,
//! 3. **overhead** — 10 M disabled-bus gate checks must cost well under
//!    the observability overhead budget (1 s),
//! 4. **flight** — a child sweep with an injected panic and a live bus
//!    must leave a flight recording that the validator accepts.
//!
//! Exits non-zero on any violation.

use std::process::Command;
use std::time::{Duration, Instant};

use mss_exec::supervise::SupervisorConfig;
use mss_exec::ParallelConfig;
use mss_gemsim::system::{System, SystemConfig};
use mss_gemsim::workload::Kernel;
use mss_pdk::tech::TechNode;
use mss_prof::Report;
use mss_vaet::montecarlo::{run_with, MonteCarloOptions};

const SAMPLE_CAP: u64 = 20_000;
const MC_SAMPLES: usize = 20_000;
const PANIC_TAG: &str = "telemetry-chaos";

/// The deterministic workload both parity children run: a supervised
/// gemsim kernel sweep plus a vaet Monte Carlo, printed as exact Debug
/// text (bit-identical floats print identically).
fn child_workload() {
    let exec = ParallelConfig::from_env();
    let mut cfg = SystemConfig::big_little_default();
    cfg.sample_accesses_per_thread = SAMPLE_CAP;
    let sys = System::new(cfg).expect("system");
    let kernels = [
        Kernel::bodytrack(),
        Kernel::streamcluster(),
        Kernel::swaptions(),
    ];
    let sweep = sys.run_many_supervised(&kernels, 0xC4A05, &exec, &SupervisorConfig::disabled());
    assert!(sweep.is_complete(), "{}", sweep.failure_manifest());
    for (i, report) in sweep.completed() {
        println!("gemsim[{i}] {report:?}");
    }

    let ctx = mss_bench::standard_context(TechNode::N45);
    let opts = MonteCarloOptions {
        samples: MC_SAMPLES,
        seed: 0x5EED_C0DE,
        word_bits: Some(64),
    };
    let report = run_with(&ctx, &opts, &exec).expect("Monte Carlo");
    println!("vaet {report:?}");
}

/// The flight-recorder child: a supervised sweep with one always-panicking
/// task under a live bus — must end partial and dump a flight recording.
fn child_fail() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.contains(PANIC_TAG) {
            default(info);
        }
    }));
    let items: Vec<u64> = (0..8).collect();
    let sup = SupervisorConfig::disabled().with_label("telemetry.fail");
    let sweep = mss_exec::supervised_map(
        &ParallelConfig::serial().with_threads(2),
        &sup,
        &items,
        |ctx, &x| {
            if ctx.index == 3 {
                panic!("{PANIC_TAG} injected");
            }
            Ok::<_, String>(x * 11)
        },
    );
    assert_eq!(sweep.failures.len(), 1);
    assert_eq!(sweep.completed_count(), 7);
}

fn spawn_child(mode: &str, threads: usize, events_path: Option<&str>) -> String {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.arg(mode)
        .env("MSS_THREADS", threads.to_string())
        .env_remove("MSS_METRICS");
    match events_path {
        Some(path) => {
            let _ = std::fs::remove_file(path);
            cmd.env("MSS_EVENTS", "1").env("MSS_EVENTS_PATH", path);
        }
        None => {
            cmd.env("MSS_EVENTS", "0").env_remove("MSS_EVENTS_PATH");
        }
    }
    let out = cmd.output().expect("spawn child");
    assert!(
        out.status.success(),
        "child {mode} (threads {threads}, events {}) failed:\n{}",
        events_path.is_some(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("child stdout is UTF-8")
}

/// Leg 1+2: byte parity across telemetry on/off and thread counts, then
/// validate the telemetry-on streams.
fn parity_leg() {
    let reference = spawn_child("child", 1, None);
    assert!(
        reference.contains("gemsim[0]") && reference.contains("vaet"),
        "child produced no workload output"
    );
    let mut validated_streams = 0;
    for threads in [1usize, 2, 8] {
        let off = spawn_child("child", threads, None);
        assert_eq!(
            off, reference,
            "telemetry-off output diverged at {threads} threads"
        );
        let path = format!("target/telemetry_smoke_events_{threads}.ndjson");
        let on = spawn_child("child", threads, Some(&path));
        assert_eq!(
            on, reference,
            "telemetry-on output diverged at {threads} threads"
        );

        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("telemetry-on child wrote no stream at {path}: {e}"));
        let report = Report::parse_ndjson(&text)
            .unwrap_or_else(|e| panic!("{path} failed schema validation: {e}"));
        assert_eq!(report.meta.mode, "events");
        for sweep in ["gemsim.run_many", "vaet.mc"] {
            assert!(
                report
                    .bus
                    .iter()
                    .any(|b| b.kind == "progress" && b.str_field("sweep") == Some(sweep)),
                "{path}: no progress events for {sweep}"
            );
        }
        validated_streams += 1;
        let _ = std::fs::remove_file(&path);
    }
    println!(
        "parity   : 7 runs byte-identical (events off/on x 1/2/8 threads) | {validated_streams} streams validated"
    );
}

/// Leg 3: the disabled bus must be a relaxed atomic load, nothing more.
fn overhead_leg() {
    assert!(
        !mss_obs::events::bus_enabled(),
        "parent must run with the bus disabled"
    );
    const N: u64 = 10_000_000;
    let t0 = Instant::now();
    let mut armed = 0u64;
    for i in 0..N {
        if mss_obs::events::bus_enabled() {
            armed += std::hint::black_box(i);
        }
    }
    let elapsed = t0.elapsed();
    std::hint::black_box(armed);
    assert!(
        elapsed < Duration::from_secs(1),
        "10M disabled-bus gates took {elapsed:?}; the off path must stay under the obs overhead budget"
    );
    println!(
        "overhead : {N} disabled-bus gate checks in {:.1} ms",
        elapsed.as_secs_f64() * 1e3
    );
}

/// Leg 4: a failing sweep under a live bus leaves a validating flight
/// recording.
fn flight_leg() {
    let flight_path = "target/flight_telemetry.fail_0000000000000000.ndjson";
    let _ = std::fs::remove_file(flight_path);
    let events_path = "target/telemetry_smoke_fail_events.ndjson";
    spawn_child("child-fail", 2, Some(events_path));
    let text = std::fs::read_to_string(flight_path)
        .unwrap_or_else(|e| panic!("failing sweep left no flight recording at {flight_path}: {e}"));
    let report = Report::parse_ndjson(&text)
        .unwrap_or_else(|e| panic!("flight recording failed schema validation: {e}"));
    assert_eq!(report.meta.mode, "events");
    let failure = report
        .bus
        .iter()
        .find(|b| b.kind == "failure")
        .expect("flight recording carries the failure event");
    assert_eq!(failure.str_field("sweep"), Some("telemetry.fail"));
    assert_eq!(failure.u64_field("index"), Some(3));
    println!(
        "flight   : {} bus events recorded -> {flight_path} (validated)",
        report.bus.len()
    );
    let _ = std::fs::remove_file(flight_path);
    let _ = std::fs::remove_file(events_path);
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("child") => return child_workload(),
        Some("child-fail") => return child_fail(),
        Some(other) => panic!("unknown mode {other:?}"),
        None => {}
    }
    println!("== telemetry_smoke: the event bus observes, never participates ==");
    parity_leg();
    overhead_leg();
    flight_leg();
    mss_bench::write_obs_artifacts("telemetry_smoke");
}
