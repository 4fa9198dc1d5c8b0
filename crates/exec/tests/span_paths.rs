//! Span paths must not depend on the thread count: a span opened inside a
//! `par_map` or `supervised_map` task nests under the spans open around the
//! call, whether the task runs inline or on a spawned worker. One process,
//! one test, because the global registry is initialised exactly once.

use std::collections::BTreeMap;

use mss_exec::{par_map, supervised_map, ParallelConfig, SupervisorConfig};
use mss_obs::Mode;
use mss_prof::Report;

/// One sweep of nested regions under the root span `root`.
fn workload(root: &'static str, threads: usize) {
    let cfg = ParallelConfig::serial().with_threads(threads);
    let items: Vec<u64> = (0..16).collect();
    let _root = mss_obs::span(root);
    {
        let _outer = mss_obs::span("outer.par");
        let sums = par_map(&cfg, &items, |_, &x| {
            let _task = mss_obs::span("task");
            let _leaf = mss_obs::span("leaf");
            x * 2
        });
        assert_eq!(sums.iter().sum::<u64>(), 240);
    }
    {
        let _outer = mss_obs::span("outer.supervised");
        let sweep = supervised_map(&cfg, &SupervisorConfig::disabled(), &items, |_, &x| {
            let _task = mss_obs::span("task");
            // A parallel region nested inside a worker keeps the full chain.
            let inner = par_map(&cfg, &[x, x + 1], |_, &y| {
                let _leaf = mss_obs::span("leaf");
                y
            });
            Ok::<_, String>(inner.iter().sum::<u64>())
        });
        assert!(sweep.is_complete());
    }
}

/// `(path below the root, count)` for every span under `root`.
fn span_counts(report: &Report, root: &str) -> BTreeMap<String, u64> {
    report
        .spans
        .iter()
        .filter_map(|(path, s)| Some((path.strip_prefix(root)?.to_string(), s.count)))
        .collect()
}

#[test]
fn span_paths_and_counts_are_identical_at_any_thread_count() {
    assert!(mss_obs::init_with_mode(Mode::Metrics), "fresh registry");
    workload("t1", 1);
    workload("t2", 2);
    workload("t8", 8);
    let text = mss_obs::report_ndjson();
    let report = Report::parse_ndjson(&text).expect("valid report");
    let serial = span_counts(&report, "t1");
    assert_eq!(serial["/outer.par/task/leaf"], 16, "{serial:?}");
    assert_eq!(
        serial["/outer.supervised/exec.supervise/task/leaf"], 32,
        "{serial:?}"
    );
    assert_eq!(serial.len(), 8, "{serial:?}");
    for root in ["t2", "t8"] {
        assert_eq!(
            span_counts(&report, root),
            serial,
            "{root}: span paths drifted from the serial run\n{text}"
        );
    }
}
