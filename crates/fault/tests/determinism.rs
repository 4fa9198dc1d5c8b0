//! Cross-cutting guarantees of the fault plane: thread-count invariance and
//! agreement between the stochastic injector and the analytical ECC model.

use mss_exec::ParallelConfig;
use mss_fault::{run_ecc_campaign, CampaignOptions, FaultModel, FaultPlan};
use mss_vaet::ecc::EccScheme;

fn plan(seed: u64, f: impl FnOnce(&mut FaultModel)) -> FaultPlan {
    let mut m = FaultModel::none();
    f(&mut m);
    FaultPlan::new(seed, m).expect("valid model")
}

/// The ISSUE acceptance gate: identical seeds give bit-identical campaigns
/// at 1, 2, and 8 worker threads, including with non-default chunking.
#[test]
fn campaign_reports_are_bit_identical_across_thread_counts() {
    let p = plan(0xF00D, |m| {
        m.write_fail_rate = 0.015;
        m.read_disturb_rate = 0.003;
        m.transient_flip_rate = 0.001;
        m.stuck_at_rate = 0.0005;
    });
    let scheme = EccScheme::bch(2, 256);
    let reference = run_ecc_campaign(
        &p,
        &CampaignOptions::new(6_000, scheme)
            .with_parallel(ParallelConfig::serial().with_threads(1)),
    )
    .expect("reference campaign");
    for threads in [2usize, 8] {
        for chunk in [64usize, 256, 1024] {
            let cfg = ParallelConfig::serial()
                .with_threads(threads)
                .with_chunk(chunk);
            let run = run_ecc_campaign(&p, &CampaignOptions::new(6_000, scheme).with_parallel(cfg))
                .expect("campaign");
            assert_eq!(
                run, reference,
                "campaign diverged at threads={threads} chunk={chunk}"
            );
        }
    }
}

/// Golden counters of the `0xF00D` campaign above under the geometric-gap
/// draw: a change that moves any single fault draw fails here, even if it
/// stays deterministic.
#[test]
fn campaign_counters_match_pinned_golden() {
    let p = plan(0xF00D, |m| {
        m.write_fail_rate = 0.015;
        m.read_disturb_rate = 0.003;
        m.transient_flip_rate = 0.001;
        m.stuck_at_rate = 0.0005;
    });
    let r = run_ecc_campaign(
        &p,
        &CampaignOptions::new(6_000, EccScheme::bch(2, 256))
            .with_parallel(ParallelConfig::serial()),
    )
    .expect("campaign");
    let counters = [
        r.write_errors,
        r.read_disturbs,
        r.transients,
        r.stuck_cells,
        r.stuck_errors,
        r.bit_errors,
        r.blocks_clean,
        r.blocks_corrected,
        r.blocks_detected,
        r.blocks_uncorrectable,
    ];
    assert_eq!(
        counters,
        [24_798, 5_014, 1_596, 808, 411, 31_712, 32, 589, 733, 4_646]
    );
}

/// Property sweep: `uncorrectable_probability` is monotone non-decreasing in
/// `p` for every scheme strength, and the empirical small-block injection
/// rate lands within 3σ of it across a grid of rates.
#[test]
fn uncorrectable_probability_is_monotone_and_matches_injection() {
    for t in 0..=3u32 {
        let scheme = EccScheme::bch(t, 32);
        // Monotonicity over a dense grid spanning 12 decades.
        let mut last = 0.0;
        for k in 0..=60 {
            let p = 10f64.powf(-12.0 + 0.2 * k as f64);
            let u = scheme.uncorrectable_probability(p);
            assert!(
                u >= last && (0.0..=1.0).contains(&u),
                "t={t}: u({p:.3e}) = {u:.3e} < {last:.3e}"
            );
            last = u;
        }
    }
    // Empirical agreement at rates large enough for events to occur.
    for (t, rate, seed) in [(0u32, 0.004, 11u64), (1, 0.02, 12), (2, 0.05, 13)] {
        let scheme = EccScheme::bch(t, 32);
        let p = plan(seed, |m| m.write_fail_rate = rate);
        let opts = CampaignOptions::new(15_000, scheme)
            .with_parallel(ParallelConfig::serial().with_threads(4));
        let r = run_ecc_campaign(&p, &opts).expect("campaign");
        assert!(
            r.blocks_detected + r.blocks_uncorrectable > 0,
            "t={t}: no block failures at rate {rate} — test has no power"
        );
        assert!(
            r.z_block().abs() <= 3.0,
            "t={t} rate={rate}: empirical {:.4} vs analytical {:.4} (z = {:.2})",
            r.empirical_block_failure_rate(),
            r.analytical_block_failure_rate,
            r.z_block()
        );
    }
}
