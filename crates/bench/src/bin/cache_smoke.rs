//! CI smoke benchmark for the content-addressed stage pipeline **and the
//! gemsim hot loop**: runs the MAGPIE flow twice in one process over a
//! shared in-memory cache, then cold and warm against the on-disk tier —
//! asserting a byte-identical [`mss_core::flow::MagpieReport`] and 100 %
//! stage hits on every warm pass — and then times the optimized simulator
//! against the naive executable specification in `mss_gemsim::reference`,
//! asserting **bit-identical** [`mss_gemsim::stats::SimReport`]s and a
//! ≥ 5× throughput win. The win is algorithmic (one flat slab of LRU
//! stacks vs a `Vec` per set, O(1) ring-buffer history vs `remove(0)`), so
//! it must hold even on a noisy shared runner. When `MSS_METRICS=1` the
//! observability registry (including the `pipe.*` cache counters) is
//! written as an NDJSON run report CI archives.
//!
//! ```text
//! cargo run --release -p mss-bench --bin cache_smoke
//! MSS_METRICS=1 cargo run --release -p mss-bench --bin cache_smoke -- 100000
//! ```
//!
//! The optional argument overrides the per-thread sampling cap (default
//! 50 000). `MSS_OBS_OUT` overrides the report path (default
//! `target/cache_smoke.ndjson`). Exits non-zero on any cache-transparency
//! violation, hot-loop parity violation, or a sub-5× speedup.

use std::sync::Arc;
use std::time::Instant;

use mss_core::flow::{MagpieFlow, MagpieInputs, MagpieReport};
use mss_core::scenario::Scenario;
use mss_exec::ParallelConfig;
use mss_gemsim::reference;
use mss_gemsim::system::{System, SystemConfig};
use mss_gemsim::workload::Kernel;
use mss_pdk::tech::TechNode;
use mss_pipe::{PipeCache, Stage};

/// Fixed timing repetitions per leg (best-of); fixed so the span counts in
/// the committed baseline are reproducible.
const REPS: usize = 3;

/// Required optimized-vs-naive hot-loop throughput ratio.
const MIN_SPEEDUP: f64 = 5.0;

/// Stages the MAGPIE flow exercises (VaetDistributions is owned by the
/// variation-aware explorer, not this flow).
const FLOW_STAGES: [Stage; 4] = [
    Stage::CharacterizeCells,
    Stage::EstimateArray,
    Stage::SimulateKernel,
    Stage::McpatAccount,
];

fn inputs(sample_cap: u64) -> MagpieInputs {
    MagpieInputs {
        node: TechNode::N45,
        kernels: vec![Kernel::swaptions()],
        scenarios: Scenario::ALL.to_vec(),
        seed: 2024,
        sample_cap,
        ..MagpieInputs::defaults()
    }
}

fn run(cache: &Arc<PipeCache>, sample_cap: u64) -> MagpieReport {
    MagpieFlow::new_with_cache(inputs(sample_cap), Arc::clone(cache))
        .expect("flow setup")
        .run_with(&ParallelConfig::from_env())
        .expect("flow run")
}

/// Asserts the reports agree down to the serialized figure exports.
fn assert_identical(leg: &str, warm: &MagpieReport, cold: &MagpieReport) {
    assert_eq!(warm, cold, "{leg}: warm report diverged from cold");
    assert_eq!(
        warm.fig11_csv("swaptions"),
        cold.fig11_csv("swaptions"),
        "{leg}: fig11 CSV diverged"
    );
    assert_eq!(
        warm.fig12_csv(),
        cold.fig12_csv(),
        "{leg}: fig12 CSV diverged"
    );
}

/// In-memory leg: the second run of the same process must be 100 % hits.
fn memory_leg(sample_cap: u64) {
    let _span = mss_obs::span("cache_smoke.memory");
    let cache = Arc::new(PipeCache::memory_only());
    let cold = run(&cache, sample_cap);
    let misses_after_cold: Vec<u64> = FLOW_STAGES.iter().map(|&s| cache.stats(s).misses).collect();

    let warm = run(&cache, sample_cap);
    assert_identical("memory", &warm, &cold);
    for (&stage, &cold_misses) in FLOW_STAGES.iter().zip(&misses_after_cold) {
        let s = cache.stats(stage);
        assert_eq!(
            s.misses, cold_misses,
            "memory: {stage} recomputed on the warm run"
        );
        assert!(s.hits > 0, "memory: {stage} saw no hits");
        println!(
            "memory   : {:<18} | {} hits / {} misses / {} evictions",
            stage.name(),
            s.hits,
            s.misses,
            s.evictions
        );
    }
}

/// Disk leg: a fresh cache instance over a warmed directory must serve every
/// artifact stage from disk.
fn disk_leg(sample_cap: u64) {
    let _span = mss_obs::span("cache_smoke.disk");
    let dir = std::path::Path::new("target").join(format!("cache-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Arc::new(PipeCache::with_disk(&dir));
    let cold = run(&cold_cache, sample_cap);

    let warm_cache = Arc::new(PipeCache::with_disk(&dir));
    let warm = run(&warm_cache, sample_cap);
    assert_identical("disk", &warm, &cold);

    for stage in [Stage::CharacterizeCells, Stage::EstimateArray] {
        let s = warm_cache.stats(stage);
        assert_eq!(s.misses, 0, "disk: {stage} recomputed despite warm disk");
        assert_eq!(s.load_failures, 0, "disk: {stage} hit damaged entries");
        assert!(s.disk_hits > 0, "disk: {stage} never read the disk tier");
        println!(
            "disk     : {:<18} | {} disk hits / {} memory hits / {} misses",
            stage.name(),
            s.disk_hits,
            s.hits,
            s.misses
        );
    }
    let entries = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    println!(
        "disk     : {entries} NDJSON artifacts under {}",
        dir.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hot-loop perf gate: the optimized simulator (LRU-stack cache slab,
/// ring-buffer stream, chunked loop) against the naive executable
/// specification, on the same kernels the flow legs run. Reports must be
/// bit-identical and the optimized path ≥ [`MIN_SPEEDUP`]× faster.
fn gemsim_speed_leg(sample_cap: u64) {
    let mut config = SystemConfig::big_little_default();
    config.sample_accesses_per_thread = sample_cap;
    let sys = System::new(config.clone()).expect("default platform");
    // The same kernel the flow legs above simulate, so the timed span is
    // the exact workload `pipe.simulate_kernel/gemsim.run` runs.
    let kernel = Kernel::swaptions();

    // The optimized and naive runs alternate, so a slow stretch of the host
    // lands on both sides of the ratio instead of on one block of reps.
    let (mut fast_t, mut naive_t) = (f64::INFINITY, f64::INFINITY);
    let (mut fast_report, mut naive_report) = (None, None);
    for _ in 0..REPS {
        {
            let _span = mss_obs::span("cache_smoke.gemsim.fast");
            let t0 = Instant::now();
            let report = sys.run(&kernel, 2024).expect("fast run");
            fast_t = fast_t.min(t0.elapsed().as_secs_f64());
            fast_report = Some(report);
        }
        let _span = mss_obs::span("cache_smoke.gemsim.naive");
        let t0 = Instant::now();
        let report = reference::run(&config, &kernel, 2024).expect("naive run");
        naive_t = naive_t.min(t0.elapsed().as_secs_f64());
        naive_report = Some(report);
    }

    assert_eq!(
        fast_report, naive_report,
        "optimized hot loop diverged from the reference semantics"
    );
    let accesses = sample_cap * u64::from(kernel.threads);
    let speedup = naive_t / fast_t;
    println!(
        "gemsim   : optimized {fast_t:.3} s | naive {naive_t:.3} s | {:.0} vs {:.0} accesses/s | bits == naive",
        accesses as f64 / fast_t,
        accesses as f64 / naive_t
    );
    println!("speedup  : {speedup:.2}x optimized over naive (gate: >= {MIN_SPEEDUP:.1}x)");
    mss_obs::counter_add("cache_smoke.gate.accesses", accesses);
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: optimized hot loop only {speedup:.2}x the naive reference (need >= {MIN_SPEEDUP:.1}x)"
        );
        std::process::exit(1);
    }
}

fn main() {
    let sample_cap: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);
    println!("== cache_smoke: pipeline cache transparency (memory + disk tiers) ==");
    memory_leg(sample_cap);
    disk_leg(sample_cap);
    println!("cache    : warm runs byte-identical with zero recomputation");
    gemsim_speed_leg(sample_cap);

    mss_bench::write_obs_artifacts("cache_smoke");
}
