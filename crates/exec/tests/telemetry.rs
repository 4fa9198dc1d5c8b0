//! Supervisor telemetry contract: with the event bus live, a supervised
//! sweep streams progress/heartbeat/failure events whose *terminal*
//! snapshot — final done/total/retried and the failure set — is identical
//! at any `MSS_THREADS`, and a sweep that ends with failures dumps a
//! flight recording. One process, one `#[test]`, because the bus is a
//! process-global initialised exactly once.

use std::sync::atomic::Ordering;
use std::time::Duration;

use mss_exec::{supervised_map, ParallelConfig, SupervisorConfig};
use mss_obs::events::{self, EventPayload};

/// Terminal telemetry of one labelled sweep as seen on the bus.
#[derive(Debug, PartialEq)]
struct SweepSnapshot {
    final_done: u64,
    total: u64,
    final_retried: u64,
    progress_events: usize,
    /// `(index, attempts, kind)` triples, sorted by index.
    failures: Vec<(u64, u32, String)>,
    heartbeat_workers: Vec<u32>,
}

fn snapshot_for(label: &str) -> SweepSnapshot {
    let mut final_done = 0;
    let mut total = 0;
    let mut final_retried = 0;
    let mut progress_events = 0;
    let mut failures = Vec::new();
    let mut heartbeat_workers = Vec::new();
    for ev in events::bus().snapshot() {
        match &ev.payload {
            EventPayload::Progress {
                sweep,
                done,
                total: t,
                retried,
                ..
            } if sweep == label => {
                progress_events += 1;
                if *done >= final_done {
                    final_done = *done;
                    final_retried = *retried;
                }
                total = *t;
            }
            EventPayload::Failure {
                sweep,
                index,
                attempts,
                kind,
                ..
            } if sweep == label => failures.push((*index, *attempts, kind.clone())),
            EventPayload::Heartbeat { sweep, worker, .. }
                if sweep == label && !heartbeat_workers.contains(worker) =>
            {
                heartbeat_workers.push(*worker);
            }
            _ => {}
        }
    }
    failures.sort_unstable();
    heartbeat_workers.sort_unstable();
    SweepSnapshot {
        final_done,
        total,
        final_retried,
        progress_events,
        failures,
        heartbeat_workers,
    }
}

#[test]
fn supervised_sweeps_stream_identical_terminal_telemetry() {
    assert!(
        events::init_bus_with(true, None),
        "this test must own bus initialisation"
    );
    assert!(events::bus_enabled());

    // A chaotic sweep: every 5th task flakes once (retried to success),
    // task 7 always fails. 32 tasks, labels distinct per thread count so
    // the shared ring can be partitioned afterwards.
    let run = |label: &'static str, threads: usize| {
        let items: Vec<u64> = (0..32).collect();
        let cfg = ParallelConfig::serial().with_threads(threads);
        let sup = SupervisorConfig::disabled()
            .with_retry_max(2)
            .with_max_backoff(Duration::ZERO)
            .with_label(label);
        let attempts = std::sync::atomic::AtomicU64::new(0);
        let sweep = supervised_map(&cfg, &sup, &items, |ctx, &x| {
            attempts.fetch_add(1, Ordering::Relaxed);
            if ctx.index == 7 {
                return Err(format!("task {x} is cursed"));
            }
            if ctx.index % 5 == 0 && ctx.attempt == 0 {
                panic!("flaky {x}");
            }
            Ok::<_, String>(x * 3)
        });
        (sweep, attempts.into_inner())
    };

    let (s1, _) = run("t1", 1);
    let (s2, _) = run("t2", 2);
    let (s8, _) = run("t8", 8);

    // The sweeps themselves are bit-identical regardless of threads.
    assert_eq!(s1.results, s2.results);
    assert_eq!(s1.results, s8.results);
    assert_eq!(s1.failures, s8.failures);

    // And so is their terminal telemetry.
    let snap1 = snapshot_for("t1");
    let snap2 = snapshot_for("t2");
    let snap8 = snapshot_for("t8");
    assert_eq!(snap1.final_done, 32);
    assert_eq!(snap1.total, 32);
    // 7 flaky tasks retried once each; task 7 burned its full retry budget.
    assert_eq!(snap1.final_retried, 7 + 2);
    assert_eq!(snap1.progress_events, 32, "one progress per settled task");
    assert_eq!(snap1.failures, vec![(7, 3, "failed".to_string())]);
    assert_eq!(snap1.heartbeat_workers, vec![0], "serial path is worker 0");

    for (label, snap) in [("t2", &snap2), ("t8", &snap8)] {
        assert_eq!(snap.final_done, snap1.final_done, "{label}");
        assert_eq!(snap.total, snap1.total, "{label}");
        assert_eq!(snap.final_retried, snap1.final_retried, "{label}");
        assert_eq!(snap.progress_events, snap1.progress_events, "{label}");
        assert_eq!(snap.failures, snap1.failures, "{label}");
        // Threaded workers report as 1 + ordinal; which subset shows up
        // depends on scheduling, but every reporter is a spawned worker.
        assert!(
            snap.heartbeat_workers.iter().all(|&w| w >= 1),
            "{label}: {:?}",
            snap.heartbeat_workers
        );
    }

    // A failing sweep on a live bus leaves a flight recording behind.
    let flight = std::path::Path::new("target/flight_t8_0000000000000000.ndjson");
    assert!(flight.exists(), "missing {}", flight.display());
    let text = std::fs::read_to_string(flight).unwrap();
    let first = text.lines().next().unwrap();
    assert!(first.contains("\"type\":\"meta\""), "{first}");
    assert!(first.contains("\"mode\":\"events\""), "{first}");
    assert!(
        text.lines().any(|l| l.contains("\"kind\":\"failure\"")),
        "flight recording must carry the failure"
    );

    // Budget reporting: a deadline sweep's progress events carry what was
    // left of each task's per-attempt budget when it settled.
    let cfg = ParallelConfig::serial().with_threads(2);
    let sup = SupervisorConfig::disabled()
        .with_deadline(Duration::from_secs(3600))
        .with_label("budgeted");
    let items = [0u8; 4];
    let sweep = mss_exec::supervised_map(&cfg, &sup, &items, |_, &x| Ok::<_, String>(x));
    assert!(sweep.is_complete());
    let budgets: Vec<Option<f64>> = events::bus()
        .snapshot()
        .iter()
        .filter_map(|ev| match &ev.payload {
            EventPayload::Progress {
                sweep,
                budget_seconds,
                ..
            } if sweep == "budgeted" => Some(*budget_seconds),
            _ => None,
        })
        .collect();
    assert_eq!(budgets.len(), 4);
    for b in budgets {
        let b = b.expect("deadline sweep reports a budget");
        assert!(b > 0.0 && b <= 3600.0, "{b}");
    }

    std::fs::remove_file(flight).ok();
    std::fs::remove_file("target/flight_t1_0000000000000000.ndjson").ok();
    std::fs::remove_file("target/flight_t2_0000000000000000.ndjson").ok();
}
