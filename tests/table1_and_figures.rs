//! Integration: the VAET-STT analyses reproduce the paper's Table 1 and
//! Fig. 7–9 qualitative shapes on both technology nodes.

use great_mss::exec::ParallelConfig;
use great_mss::pdk::tech::TechNode;
use great_mss::vaet::context::VaetContext;
use great_mss::vaet::ecc::figure8;
use great_mss::vaet::margins::figure7;
use great_mss::vaet::montecarlo::{run_with, MonteCarloOptions};
use great_mss::vaet::read::figure9;
use great_mss::vaet::report::VaetReport;
use std::sync::OnceLock;

fn ctx(node: TechNode) -> &'static VaetContext {
    static C45: OnceLock<VaetContext> = OnceLock::new();
    static C65: OnceLock<VaetContext> = OnceLock::new();
    match node {
        TechNode::N45 => C45.get_or_init(|| VaetContext::standard(node).expect("ctx45")),
        TechNode::N65 => C65.get_or_init(|| VaetContext::standard(node).expect("ctx65")),
    }
}

fn mc(node: TechNode) -> VaetReport {
    run_with(
        ctx(node),
        &MonteCarloOptions {
            samples: 300,
            seed: 0x7AB1E,
            word_bits: Some(256),
        },
        &ParallelConfig::from_env(),
    )
    .expect("monte carlo")
}

#[test]
fn table1_mu_exceeds_nominal_for_writes() {
    for node in TechNode::ALL {
        let r = mc(node);
        assert!(
            r.write_latency.mean > 1.5 * r.nominal_write_latency,
            "{node}: mu {} vs nominal {}",
            r.write_latency.mean,
            r.nominal_write_latency
        );
        assert!(r.write_energy.mean > r.nominal_write_energy);
        assert!(r.read_latency.mean > r.nominal_read_latency);
    }
}

#[test]
fn table1_smaller_node_has_larger_write_sigma() {
    let r45 = mc(TechNode::N45);
    let r65 = mc(TechNode::N65);
    assert!(
        r45.write_latency.std_dev > r65.write_latency.std_dev,
        "45nm sigma {} vs 65nm sigma {}",
        r45.write_latency.std_dev,
        r65.write_latency.std_dev
    );
}

#[test]
fn table1_reads_are_faster_and_cheaper_than_writes() {
    for node in TechNode::ALL {
        let r = mc(node);
        assert!(r.read_latency.mean < 0.5 * r.write_latency.mean);
        assert!(r.read_energy.mean < r.write_energy.mean);
        assert!(r.read_latency.std_dev < r.write_latency.std_dev);
    }
}

#[test]
fn table1_65nm_write_energy_exceeds_45nm() {
    // Bigger wires + higher supply at the older node (paper: 272.8 vs 159 pJ
    // nominal).
    let r45 = mc(TechNode::N45);
    let r65 = mc(TechNode::N65);
    assert!(r65.nominal_write_energy > r45.nominal_write_energy);
    assert!(r65.write_energy.mean > r45.write_energy.mean);
}

#[test]
fn fig7_lower_error_rates_need_higher_margins() {
    let (write, read) = figure7(ctx(TechNode::N45), &[1e-5, 1e-10, 1e-15]).expect("fig7");
    assert!(write.windows(2).all(|w| w[1].latency > w[0].latency));
    assert!(read.windows(2).all(|w| w[1].latency >= w[0].latency));
    // Write margins dominate read margins throughout.
    for (w, r) in write.iter().zip(&read) {
        assert!(w.latency > 3.0 * r.latency);
    }
    // The margined write latency far exceeds the nominal one.
    assert!(write[0].latency > 2.0 * ctx(TechNode::N45).nominal.write_latency);
}

#[test]
fn fig8_first_corrected_bit_gives_drastic_gain() {
    let points = figure8(ctx(TechNode::N45), 1e-18, 4).expect("fig8");
    let l: Vec<f64> = points.iter().map(|p| p.write_latency).collect();
    assert!(l[1] < 0.75 * l[0], "t=0 {} -> t=1 {}", l[0], l[1]);
    // Diminishing returns beyond the first bit.
    let g1 = l[0] - l[1];
    for w in l.windows(2).skip(1) {
        assert!(w[0] - w[1] < g1);
    }
    // Monotone non-increasing latency with ECC strength.
    assert!(l.windows(2).all(|w| w[1] <= w[0] + 1e-12));
}

#[test]
fn fig9_disturb_grows_while_rer_falls() {
    let periods: Vec<f64> = (1..=10).map(|k| k as f64 * 1e-9).collect();
    let points = figure9(ctx(TechNode::N45), &periods);
    for w in points.windows(2) {
        assert!(w[1].disturb_probability > w[0].disturb_probability);
        assert!(w[1].read_error_rate <= w[0].read_error_rate);
    }
    // Ten reads of 10 ns each keep the disturb probability usable.
    assert!(points.last().unwrap().disturb_probability < 1e-3);
}

#[test]
fn table1_renders_paper_layout() {
    let table = mc(TechNode::N45).to_table();
    for needle in [
        "write latency",
        "write energy",
        "read latency",
        "read energy",
        "mu",
        "sigma",
    ] {
        assert!(table.contains(needle), "missing '{needle}' in:\n{table}");
    }
}
