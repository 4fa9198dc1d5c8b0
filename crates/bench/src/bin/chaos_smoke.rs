//! CI chaos harness for the fault-tolerant sweep supervisor: injected
//! panics, errors, stalls, poisoned disk-cache entries, and an interrupted
//! flow sweep — proving that no injected failure aborts the process, that
//! surviving tasks stay bit-identical to an uninjected run at any thread
//! count, and that a resumed sweep recomputes zero cached stages.
//!
//! ```text
//! cargo run --release -p mss-bench --bin chaos_smoke
//! MSS_METRICS=1 cargo run --release -p mss-bench --bin chaos_smoke -- 20000 9
//! ```
//!
//! Optional arguments: sample cap for the gemsim legs (default 20 000) and
//! chaos seed (default 9). The failure manifests collected from the
//! no-retry and deadline legs are written to
//! `target/chaos_smoke_manifest.ndjson` for CI to archive. Exits non-zero
//! on any isolation, determinism, or resume violation.

use std::sync::Arc;
use std::time::Duration;

use mss_core::flow::{MagpieFlow, MagpieInputs};
use mss_core::scenario::Scenario;
use mss_exec::supervise::{PartialSweep, SupervisorConfig};
use mss_exec::ParallelConfig;
use mss_fault::chaos::{poison_cache_dir, ChaosPlan, PANIC_TAG};
use mss_gemsim::stats::SimReport;
use mss_gemsim::system::{System, SystemConfig};
use mss_gemsim::workload::Kernel;
use mss_pdk::tech::TechNode;
use mss_pipe::checkpoint::SweepJournal;
use mss_pipe::{PipeCache, Stage};

/// Silences the default panic report for chaos-injected panics (they are
/// the point of the harness) while leaving real panics fully reported.
fn install_panic_filter() {
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
}

fn threads(n: usize) -> ParallelConfig {
    ParallelConfig::serial().with_threads(n)
}

/// Runs the kernel sweep under the supervisor with `plan` injecting chaos
/// at the head of every task attempt.
fn chaotic_sweep(
    sys: &System,
    kernels: &[Kernel],
    seed: u64,
    plan: &ChaosPlan,
    exec: &ParallelConfig,
    sup: &SupervisorConfig,
) -> PartialSweep<SimReport> {
    mss_exec::supervised_map(exec, sup, kernels, |ctx, kernel| {
        plan.injure(ctx.index as u64, ctx.attempt)?;
        sys.run_cancellable(kernel, seed, Some(ctx.token()))
            .map_err(|e| e.to_string())
    })
}

/// Leg 1: panics and errors on early attempts, bounded retry — the sweep
/// must complete bit-identically to the uninjected baseline at 1/2/8
/// threads.
fn retry_convergence_leg(
    sys: &System,
    kernels: &[Kernel],
    seed: u64,
    chaos_seed: u64,
    baseline: &[SimReport],
) {
    let _span = mss_obs::span("chaos_smoke.retry");
    let plan = ChaosPlan::new(chaos_seed)
        .with_panic_rate(0.35)
        .with_fail_rate(0.35)
        .with_max_faulty_attempts(2);
    let injected = (0..kernels.len() as u64)
        .flat_map(|t| (0..2).map(move |a| (t, a)))
        .filter(|&(t, a)| plan.should_panic(t, a) || plan.should_fail(t, a))
        .count();
    assert!(
        injected > 0,
        "chaos seed {chaos_seed} injects nothing; pick another seed"
    );
    // max_faulty_attempts = 2 means attempt 2 is guaranteed clean, so two
    // retries always converge — and the supervised results must be the
    // uninjected ones bit-for-bit, because results never depend on attempt.
    let sup = SupervisorConfig::disabled()
        .with_retry_max(2)
        .with_seed(chaos_seed)
        .with_label("chaos.retry");
    for n in [1usize, 2, 8] {
        let sweep = chaotic_sweep(sys, kernels, seed, &plan, &threads(n), &sup);
        assert!(
            sweep.is_complete(),
            "injected sweep failed to converge at {n} threads:\n{}",
            sweep.failure_manifest()
        );
        for (i, result) in sweep.completed() {
            assert_eq!(
                result, &baseline[i],
                "retried task {i} diverged from the uninjected run at {n} threads"
            );
        }
    }
    println!(
        "retry    : {injected} faulty attempts over {} tasks | retry_max 2 | complete and bit-identical at 1/2/8 threads",
        kernels.len()
    );
}

/// Leg 2: the same chaos with no retry budget — failures must be isolated
/// to their own tasks and every survivor must equal the baseline.
fn isolation_leg(
    sys: &System,
    kernels: &[Kernel],
    seed: u64,
    chaos_seed: u64,
    baseline: &[SimReport],
) -> String {
    let _span = mss_obs::span("chaos_smoke.isolate");
    let plan = ChaosPlan::new(chaos_seed)
        .with_panic_rate(0.35)
        .with_fail_rate(0.35)
        .with_max_faulty_attempts(2);
    let doomed: Vec<u64> = (0..kernels.len() as u64)
        .filter(|&t| plan.should_panic(t, 0) || plan.should_fail(t, 0))
        .collect();
    assert!(
        !doomed.is_empty(),
        "chaos seed {chaos_seed} dooms no task at attempt 0; pick another seed"
    );
    let sup = SupervisorConfig::disabled()
        .with_seed(chaos_seed)
        .with_label("chaos.isolate");
    let mut manifest = String::new();
    for n in [1usize, 2, 8] {
        let sweep = chaotic_sweep(sys, kernels, seed, &plan, &threads(n), &sup);
        let failed: Vec<u64> = sweep.failures.iter().map(|f| f.index as u64).collect();
        assert_eq!(
            failed, doomed,
            "failure set at {n} threads diverged from the plan's attempt-0 dooms"
        );
        for (i, result) in sweep.completed() {
            assert_eq!(
                result, &baseline[i],
                "survivor {i} was corrupted by a neighbour's failure at {n} threads"
            );
        }
        if n == 1 {
            manifest = sweep.failure_manifest();
        }
    }
    println!(
        "isolate  : {}/{} tasks doomed with retry_max 0 | survivors bit-identical at 1/2/8 threads",
        doomed.len(),
        kernels.len()
    );
    manifest
}

/// Leg 3: every task stalls past its deadline — all must be classified
/// deadline-exceeded, none retried, and the process must sail on.
fn deadline_leg(sys: &System, kernels: &[Kernel], seed: u64, chaos_seed: u64) -> String {
    let _span = mss_obs::span("chaos_smoke.deadline");
    let plan = ChaosPlan::new(chaos_seed).with_stall(1.0, Duration::from_millis(120));
    let sup = SupervisorConfig::disabled()
        .with_deadline(Duration::from_millis(20))
        .with_retry_max(3)
        .with_seed(chaos_seed)
        .with_label("chaos.deadline");
    let sweep = chaotic_sweep(sys, kernels, seed, &plan, &threads(4), &sup);
    assert_eq!(
        sweep.failures.len(),
        kernels.len(),
        "a universally stalled sweep completed tasks somehow"
    );
    for f in &sweep.failures {
        assert_eq!(
            f.kind.tag(),
            "deadline-exceeded",
            "stalled task {} classified as {} instead of deadline-exceeded",
            f.index,
            f.kind
        );
        assert_eq!(
            f.attempts, 1,
            "deadline failures must be terminal, task {} was retried",
            f.index
        );
    }
    println!(
        "deadline : {} tasks stalled 120 ms against a 20 ms budget | all deadline-exceeded, none retried, no abort",
        kernels.len()
    );
    sweep.failure_manifest()
}

/// Leg 4: a damaged on-disk cache must degrade to recomputes that produce
/// byte-identical figures, never an error or a corrupted report.
fn poison_leg(sample_cap: u64, chaos_seed: u64) {
    let _span = mss_obs::span("chaos_smoke.poison");
    let dir = std::env::temp_dir().join(format!("mss-chaos-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let inputs = MagpieInputs {
        node: TechNode::N45,
        kernels: vec![Kernel::bodytrack(), Kernel::streamcluster()],
        scenarios: Scenario::ALL.to_vec(),
        seed: 7,
        sample_cap,
        ..MagpieInputs::defaults()
    };
    let cold_flow =
        MagpieFlow::new_with_cache(inputs.clone(), Arc::new(PipeCache::with_disk(&dir)))
            .expect("cold flow");
    let cold = cold_flow
        .run_with(&ParallelConfig::from_env())
        .expect("cold run");

    let poisoned = poison_cache_dir(&dir, chaos_seed, 0.6).expect("poison cache dir");
    assert!(poisoned > 0, "poisoning selected no cache entries");

    let warm_cache = Arc::new(PipeCache::with_disk(&dir));
    let warm_flow =
        MagpieFlow::new_with_cache(inputs, warm_cache.clone()).expect("poisoned-cache flow");
    let warm = warm_flow
        .run_with(&ParallelConfig::from_env())
        .expect("poisoned-cache run");
    assert_eq!(
        warm.fig12_csv(),
        cold.fig12_csv(),
        "poisoned cache changed the figures"
    );
    let load_failures: u64 = Stage::ALL
        .iter()
        .map(|&s| warm_cache.stats(s).load_failures)
        .sum();
    assert!(
        load_failures > 0,
        "poisoned entries were never even inspected"
    );
    println!(
        "poison   : {poisoned} disk entries truncated | {load_failures} load failures degraded to recomputes | figures byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Leg 5: a sweep interrupted after finishing part of the grid resumes
/// from the disk tier and the checkpoint journal without recomputing any
/// completed stage.
fn resume_leg(sample_cap: u64) {
    let _span = mss_obs::span("chaos_smoke.resume");
    let dir = std::env::temp_dir().join(format!("mss-chaos-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal_path = dir.join("sweep.ndjson");
    let kernels = vec![Kernel::bodytrack(), Kernel::streamcluster()];
    let before = MagpieInputs {
        node: TechNode::N45,
        kernels: kernels.clone(),
        scenarios: vec![Scenario::FullSram, Scenario::LittleL2Stt],
        seed: 7,
        sample_cap,
        ..MagpieInputs::defaults()
    };
    let after = MagpieInputs {
        node: TechNode::N45,
        kernels,
        scenarios: Scenario::ALL.to_vec(),
        seed: 7,
        sample_cap,
        ..MagpieInputs::defaults()
    };

    // "Before the kill": half the scenario grid completes and checkpoints.
    let flow_a = MagpieFlow::new_with_cache(before, Arc::new(PipeCache::with_disk(&dir)))
        .expect("pre-kill flow");
    let digest_a = flow_a.sweep_digest();
    let mut journal_a = SweepJournal::open(&journal_path, &digest_a).expect("open journal");
    let partial = flow_a
        .run_supervised(
            &threads(4),
            &SupervisorConfig::disabled(),
            Some(&mut journal_a),
        )
        .expect("pre-kill sweep");
    assert!(partial.is_complete());
    let done_before = journal_a.done().count();
    assert_eq!(done_before, 4, "2 kernels x 2 scenarios checkpoint 4 pairs");

    // "After the restart": fresh caches and journals, full scenario grid.
    // The four pairs that completed before the kill share their simulate
    // keys with the full sweep, so they must come back as disk hits —
    // zero recomputed stages.
    let cache_b = Arc::new(PipeCache::with_disk(&dir));
    let flow_b = MagpieFlow::new_with_cache(after, cache_b.clone()).expect("post-restart flow");
    let digest_b = flow_b.sweep_digest();
    assert_ne!(digest_a, digest_b, "different grids must not share digests");
    let mut journal_b = SweepJournal::open(&journal_path, &digest_b).expect("reopen journal");
    assert!(
        journal_b.is_empty(),
        "the full sweep's journal view aliased the half sweep's records"
    );
    let resumed = flow_b
        .run_supervised(
            &threads(4),
            &SupervisorConfig::disabled(),
            Some(&mut journal_b),
        )
        .expect("resumed sweep");
    assert!(resumed.is_complete(), "{}", resumed.failure_manifest());
    assert_eq!(resumed.report.results.len(), 8);
    let sim = cache_b.stats(Stage::SimulateKernel);
    assert_eq!(
        (sim.disk_hits, sim.misses),
        (4, 4),
        "resume recomputed checkpointed stages: {sim:?}"
    );
    // The pre-kill manifest survives the restart unaliased.
    let replayed = SweepJournal::open(&journal_path, &digest_a).expect("replay journal");
    assert_eq!(replayed.done().count(), done_before);
    println!(
        "resume   : 4 pairs checkpointed pre-kill | resumed 8-pair sweep: 4 disk hits, 4 misses — zero cached stages recomputed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let sample_cap: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let chaos_seed: u64 = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(9);
    println!(
        "== chaos_smoke: supervised sweeps under injected panics, stalls, and disk damage (seed {chaos_seed}) =="
    );
    install_panic_filter();

    let mut cfg = SystemConfig::big_little_default();
    cfg.sample_accesses_per_thread = sample_cap;
    let sys = System::new(cfg).expect("system");
    let kernels = [
        Kernel::bodytrack(),
        Kernel::streamcluster(),
        Kernel::fluidanimate(),
        Kernel::freqmine(),
        Kernel::blackscholes(),
        Kernel::swaptions(),
    ];
    let seed = 0xC4A05;
    let baseline = sys
        .run_many(&kernels, seed, &threads(1))
        .expect("uninjected baseline");

    retry_convergence_leg(&sys, &kernels, seed, chaos_seed, &baseline);
    let mut manifest = isolation_leg(&sys, &kernels, seed, chaos_seed, &baseline);
    manifest.push_str(&deadline_leg(&sys, &kernels, seed, chaos_seed));
    poison_leg(sample_cap.max(20_000), chaos_seed);
    resume_leg(sample_cap.max(20_000));

    let manifest_path = "target/chaos_smoke_manifest.ndjson";
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write(manifest_path, &manifest).expect("write failure manifest");
    println!(
        "manifest : {} failure lines -> {manifest_path}",
        manifest.lines().count()
    );

    mss_bench::write_obs_artifacts("chaos_smoke");
}
