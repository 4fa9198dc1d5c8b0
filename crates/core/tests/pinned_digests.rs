//! Pinned simulate-stage and sweep digests.
//!
//! The simulate-stage cache key is `digest_of(&(system_config, kernel,
//! seed))` and checkpoint journals open against
//! [`MagpieFlow::sweep_digest`], so the `StableHash` encodings of
//! `SystemConfig` and the sweep shape are an ABI: disk caches and journals
//! written by one release must keep hitting in the next. If one of these
//! tests fails, a hash input changed. Bump a literal only for a deliberate,
//! release-noted key break.

use std::sync::Arc;

use mss_core::flow::{MagpieFlow, MagpieInputs};
use mss_core::scenario::Scenario;
use mss_gemsim::system::SystemConfig;
use mss_gemsim::workload::Kernel;
use mss_mtj::{MechanismConfig, SotParams};
use mss_pdk::tech::TechNode;
use mss_pipe::{digest_of, PipeCache};

/// The Fig. 12 paper grid: nine kernels, the four STT scenarios, 45 nm.
fn paper_inputs() -> MagpieInputs {
    MagpieInputs {
        node: TechNode::N45,
        kernels: Kernel::parsec_extended(),
        scenarios: Scenario::ALL.to_vec(),
        seed: 0x000F_1612,
        sample_cap: 250_000,
        ..MagpieInputs::defaults()
    }
}

fn flow(inputs: MagpieInputs) -> MagpieFlow {
    MagpieFlow::new_with_cache(inputs, Arc::new(PipeCache::memory_only())).expect("flow setup")
}

#[test]
fn default_platform_digest_is_pinned() {
    assert_eq!(
        digest_of(&SystemConfig::big_little_default()),
        "1fdc23656287a06b"
    );
}

#[test]
fn scenario_platform_digests_are_pinned() {
    let stt = flow(paper_inputs());
    let pinned = [
        (Scenario::FullSram, "b602c4b8336154d4"),
        (Scenario::LittleL2Stt, "6da278e2c49ba8c5"),
        (Scenario::BigL2Stt, "15141b6e8f43481f"),
        (Scenario::FullL2Stt, "2986f77dabf46d08"),
    ];
    for (scenario, digest) in pinned {
        let config = stt.system_config(scenario).expect("platform");
        assert_eq!(digest_of(&config), digest, "{scenario}");
    }

    // The SOT twins hash the L2 macros NVSim sizes from the SOT
    // characterisation, so they pin the SOT closed forms end to end.
    let sot = flow(MagpieInputs {
        scenarios: Scenario::ALL_WITH_SOT.to_vec(),
        mechanism: MechanismConfig::Sot(SotParams::default()),
        ..paper_inputs()
    });
    let pinned = [
        (Scenario::LittleL2Sot, "b398ab31d4270ddc"),
        (Scenario::BigL2Sot, "5d4e3ddbccb78ca5"),
        (Scenario::FullL2Sot, "0ee63f032b91d234"),
    ];
    for (scenario, digest) in pinned {
        let config = sot.system_config(scenario).expect("platform");
        assert_eq!(digest_of(&config), digest, "{scenario}");
    }
}

#[test]
fn paper_sweep_digest_is_pinned() {
    assert_eq!(flow(paper_inputs()).sweep_digest(), "3485ff57c7cb4080");

    // A non-default mechanism folds into the digest.
    let sot = MagpieInputs {
        scenarios: Scenario::ALL_WITH_SOT.to_vec(),
        mechanism: MechanismConfig::Sot(SotParams::default()),
        ..paper_inputs()
    };
    assert_eq!(flow(sot).sweep_digest(), "04a020263b638bfe");
}
