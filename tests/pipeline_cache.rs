//! Integration: the content-addressed stage pipeline (`mss-pipe`) makes
//! sweeps incremental without changing a single output bit.
//!
//! The acceptance regression here is the paper's Fig. 12 node sweep: once a
//! cache is warm, re-running the sweep (fresh `MagpieFlow`s, same cache)
//! must skip every `CharacterizeCells` and `EstimateArray` recomputation —
//! verified both through [`PipeCache::stats`] and the mirrored `mss-obs`
//! counters — while producing a byte-identical report.
//!
//! Tests share global observability counters, so they serialize on [`LOCK`].

use std::sync::{Arc, Mutex};

use great_mss::core::flow::{MagpieFlow, MagpieInputs, MagpieReport};
use great_mss::core::scenario::Scenario;
use great_mss::exec::ParallelConfig;
use great_mss::gemsim::workload::Kernel;
use great_mss::obs;
use great_mss::pdk::tech::TechNode;
use great_mss::pipe::{PipeCache, Stage};

static LOCK: Mutex<()> = Mutex::new(());

fn sweep_inputs(node: TechNode) -> MagpieInputs {
    MagpieInputs {
        node,
        kernels: vec![Kernel::swaptions()],
        scenarios: vec![Scenario::FullSram, Scenario::FullL2Stt],
        seed: 11,
        sample_cap: 20_000,
        ..MagpieInputs::defaults()
    }
}

fn run_sweep(cache: &Arc<PipeCache>) -> Vec<MagpieReport> {
    TechNode::ALL
        .into_iter()
        .map(|node| {
            MagpieFlow::new_with_cache(sweep_inputs(node), Arc::clone(cache))
                .expect("flow setup")
                .run_with(&ParallelConfig::from_env())
                .expect("flow run")
        })
        .collect()
}

#[test]
fn warm_node_sweep_skips_upstream_recomputation() {
    let _serial = LOCK.lock().unwrap();
    obs::init_with_mode(obs::Mode::Metrics);
    assert!(obs::enabled(), "metrics must be on for counter assertions");

    let cache = Arc::new(PipeCache::memory_only());
    let cold_reports = run_sweep(&cache);

    let char_cold = cache.stats(Stage::CharacterizeCells);
    let est_cold = cache.stats(Stage::EstimateArray);
    let sim_cold = cache.stats(Stage::SimulateKernel);
    let pow_cold = cache.stats(Stage::McpatAccount);
    assert_eq!(
        char_cold.misses,
        TechNode::ALL.len() as u64,
        "one characterisation per node on the cold sweep"
    );
    assert!(est_cold.misses > 0, "cold sweep estimates array macros");
    assert!(sim_cold.misses > 0 && pow_cold.misses > 0);

    let obs_char_hits = obs::counter("pipe.characterize_cells.hit");
    let obs_est_hits = obs::counter("pipe.estimate_array.hit");

    // Warm sweep: brand-new flows over the same cache.
    let warm_reports = run_sweep(&cache);
    for (warm, cold) in warm_reports.iter().zip(&cold_reports) {
        assert_eq!(warm, cold, "warm report must be bit-identical");
        assert_eq!(warm.fig12_csv(), cold.fig12_csv());
        assert_eq!(warm.fig11_csv("swaptions"), cold.fig11_csv("swaptions"));
    }

    let char_warm = cache.stats(Stage::CharacterizeCells);
    let est_warm = cache.stats(Stage::EstimateArray);
    let sim_warm = cache.stats(Stage::SimulateKernel);
    let pow_warm = cache.stats(Stage::McpatAccount);
    assert_eq!(
        char_warm.misses, char_cold.misses,
        "warm sweep must not re-characterise"
    );
    assert_eq!(
        est_warm.misses, est_cold.misses,
        "warm sweep must not re-estimate"
    );
    assert_eq!(
        sim_warm.misses, sim_cold.misses,
        "warm sweep must not re-simulate"
    );
    assert_eq!(
        pow_warm.misses, pow_cold.misses,
        "warm sweep must not re-account"
    );
    assert!(char_warm.hits > char_cold.hits);
    assert!(est_warm.hits > est_cold.hits);

    // The same evidence flows into the shared observability registry.
    assert!(obs::counter("pipe.characterize_cells.hit") > obs_char_hits);
    assert!(obs::counter("pipe.estimate_array.hit") > obs_est_hits);
}

#[test]
fn disk_tier_carries_artifacts_across_cache_instances() {
    let _serial = LOCK.lock().unwrap();
    obs::init_with_mode(obs::Mode::Metrics);

    let dir = std::env::temp_dir().join(format!("mss-pipe-itest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Arc::new(PipeCache::with_disk(&dir));
    let cold = MagpieFlow::new_with_cache(sweep_inputs(TechNode::N45), Arc::clone(&cold_cache))
        .expect("cold setup")
        .run_with(&ParallelConfig::from_env())
        .expect("cold run");
    assert!(
        cold_cache.stats(Stage::CharacterizeCells).stores > 0,
        "cold run persists the cell library"
    );
    assert!(cold_cache.stats(Stage::EstimateArray).stores > 0);

    // A fresh cache instance (empty memory tier) over the same directory:
    // artifact stages load from disk instead of recomputing.
    let warm_cache = Arc::new(PipeCache::with_disk(&dir));
    let warm = MagpieFlow::new_with_cache(sweep_inputs(TechNode::N45), Arc::clone(&warm_cache))
        .expect("warm setup")
        .run_with(&ParallelConfig::from_env())
        .expect("warm run");
    assert_eq!(warm, cold, "disk-warmed report must be bit-identical");
    assert_eq!(warm.fig12_csv(), cold.fig12_csv());

    let char_stats = warm_cache.stats(Stage::CharacterizeCells);
    let est_stats = warm_cache.stats(Stage::EstimateArray);
    assert_eq!(char_stats.misses, 0, "cell library must come from disk");
    assert!(char_stats.disk_hits >= 1);
    assert_eq!(est_stats.misses, 0, "array metrics must come from disk");
    assert!(est_stats.disk_hits >= 1);
    assert_eq!(char_stats.load_failures, 0);
    assert_eq!(est_stats.load_failures, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_stats_do_not_depend_on_the_thread_count() {
    // Scenarios sharing a macro (the SRAM L1s) hit the same stage keys; a
    // fresh cache must count the same hits and misses however many
    // threads run the flow.
    let _serial = LOCK.lock().unwrap();
    // Every test in this binary must see the same global registry mode.
    obs::init_with_mode(obs::Mode::Metrics);
    let inputs = MagpieInputs {
        scenarios: Scenario::ALL.to_vec(),
        sample_cap: 5_000,
        ..sweep_inputs(TechNode::N45)
    };
    let stats_at = |threads: usize| {
        let cache = Arc::new(PipeCache::memory_only());
        let exec = ParallelConfig::serial().with_threads(threads);
        let report = MagpieFlow::new_with_cache(inputs.clone(), Arc::clone(&cache))
            .expect("flow setup")
            .run_with(&exec)
            .expect("flow run");
        let stats: Vec<_> = Stage::ALL.into_iter().map(|s| cache.stats(s)).collect();
        (report, stats)
    };
    let (serial_report, serial_stats) = stats_at(1);
    for threads in [2, 8] {
        let (report, stats) = stats_at(threads);
        assert_eq!(report, serial_report, "{threads} threads");
        assert_eq!(stats, serial_stats, "{threads} threads");
    }
}
