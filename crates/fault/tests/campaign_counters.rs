//! Campaign counters reach the global observability registry.
//!
//! Runs in its own test binary so [`mss_obs::init_with_mode`] can pin the
//! global registry to `Metrics` before anything else touches it: in a
//! shared binary another test may initialise it first (reading `Off`), and
//! the counters would stay at zero.

use mss_exec::ParallelConfig;
use mss_fault::{run_ecc_campaign, CampaignOptions, FaultModel, FaultPlan};
use mss_vaet::ecc::EccScheme;

#[test]
fn campaign_increments_obs_counters() {
    assert!(
        mss_obs::init_with_mode(mss_obs::Mode::Metrics),
        "another test initialised the global registry first; keep this \
         test binary single-test"
    );
    let before = counter("fault.campaign.blocks");
    let mut model = FaultModel::none();
    model.write_fail_rate = 0.02;
    let p = FaultPlan::new(3, model).expect("valid model");
    let opts =
        CampaignOptions::new(300, EccScheme::bch(1, 64)).with_parallel(ParallelConfig::serial());
    let r = run_ecc_campaign(&p, &opts).expect("campaign");
    assert_eq!(counter("fault.campaign.blocks") - before, 300);
    assert!(counter("fault.campaign.injected") >= r.bit_errors);
}

fn counter(name: &str) -> u64 {
    mss_obs::counter(name)
}
