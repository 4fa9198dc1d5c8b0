//! Pinned outputs of VAET's random draw stream.
//!
//! Every value below was captured from the sampler that drew all five
//! stack parameters in full for every bit. Any change to what is drawn, in
//! what order, or how a drawn value is turned into a parameter moves at
//! least one of them, even when the result stays deterministic. Floats are
//! compared by bit pattern, so a last-ulp drift fails too.

use std::sync::OnceLock;

use mss_exec::ParallelConfig;
use mss_mtj::{MssStack, SotParams};
use mss_nvsim::config::{MemoryConfig, MemoryKind};
use mss_pdk::tech::TechNode;
use mss_units::stats::DistributionSummary;
use mss_vaet::context::VaetContext;
use mss_vaet::margins::WriteMarginSolver;
use mss_vaet::montecarlo::{
    run_with, sense_margin_batch_with, MonteCarloOptions, SenseBatchOptions,
};
use mss_vaet::report::VaetReport;

fn stt45() -> &'static VaetContext {
    static CTX: OnceLock<VaetContext> = OnceLock::new();
    CTX.get_or_init(|| VaetContext::standard(TechNode::N45).expect("45 nm STT context"))
}

fn sot45() -> &'static VaetContext {
    static CTX: OnceLock<VaetContext> = OnceLock::new();
    CTX.get_or_init(|| {
        let stack = MssStack::builder().build().expect("reference stack");
        let config = MemoryConfig::new(1024 * 1024 / 8, 1024, 1, 1024, 1024, MemoryKind::Ram)
            .expect("array config");
        VaetContext::build_sot(TechNode::N45, stack, config, SotParams::default())
            .expect("45 nm SOT context")
    })
}

/// `[mean, std_dev, min, max]` bit patterns plus the sample count.
fn bits(d: &DistributionSummary) -> ([u64; 4], u64) {
    (
        [
            d.mean.to_bits(),
            d.std_dev.to_bits(),
            d.min.to_bits(),
            d.max.to_bits(),
        ],
        d.samples,
    )
}

/// The four distributions of a Monte Carlo report, in Table 1 order:
/// write latency, write energy, read latency, read energy.
fn report_bits(r: &VaetReport) -> [([u64; 4], u64); 4] {
    [
        bits(&r.write_latency),
        bits(&r.write_energy),
        bits(&r.read_latency),
        bits(&r.read_energy),
    ]
}

fn mc(ctx: &VaetContext) -> VaetReport {
    let opts = MonteCarloOptions {
        samples: 300,
        seed: 0x7AB1_E001,
        word_bits: Some(64),
    };
    run_with(ctx, &opts, &ParallelConfig::serial()).expect("Monte Carlo")
}

#[test]
fn stt_monte_carlo_report_is_pinned() {
    assert_eq!(
        report_bits(&mc(stt45())),
        [
            (STT_WRITE_LATENCY, 300),
            (STT_WRITE_ENERGY, 300),
            (STT_READ_LATENCY, 300),
            (STT_READ_ENERGY, 300),
        ]
    );
}

#[test]
fn sot_monte_carlo_report_is_pinned() {
    assert_eq!(
        report_bits(&mc(sot45())),
        [
            (SOT_WRITE_LATENCY, 300),
            (SOT_WRITE_ENERGY, 300),
            (SOT_READ_LATENCY, 300),
            (SOT_READ_ENERGY, 300),
        ]
    );
}

#[test]
fn sense_margin_batch_is_pinned() {
    let opts = SenseBatchOptions {
        samples: 256,
        seed: 0x5E45_E001,
    };
    let r = sense_margin_batch_with(stt45(), &opts, &ParallelConfig::serial()).expect("batch");
    assert_eq!(bits(&r.margin), (SENSE_MARGIN, 256));
    assert_eq!(r.min_margin.to_bits(), SENSE_MIN_MARGIN);
    assert_eq!((r.below_offset, r.failed_solves), SENSE_BELOW_AND_FAILED);
}

#[test]
fn write_margin_corners_are_pinned() {
    for (ctx, expected) in [(stt45(), STT_MEAN_BIT_WER), (sot45(), SOT_MEAN_BIT_WER)] {
        let solver = WriteMarginSolver::new(ctx).expect("solver");
        let t = ctx.cell.write.latency;
        let got = [
            solver.mean_bit_wer(t).to_bits(),
            solver.mean_bit_wer(2.0 * t).to_bits(),
        ];
        assert_eq!(got, expected);
    }
}

const STT_WRITE_LATENCY: [u64; 4] = [
    0x3e44_a454_b637_75da,
    0x3e27_a6b9_1066_3cf3,
    0x0000_0000_0000_0000,
    0x3e5a_717d_f88f_97eb,
];
const STT_WRITE_ENERGY: [u64; 4] = [
    0x3dc3_85e4_a6a7_e324,
    0x3d93_0e60_5753_5c47,
    0x0000_0000_0000_0000,
    0x3dd0_3b2e_2e69_7da3,
];
const STT_READ_LATENCY: [u64; 4] = [
    0x3e01_c962_a340_8ccf,
    0x3dcf_a779_2ee7_a2ff,
    0x0000_0000_0000_0000,
    0x3e0b_1266_3b63_fd91,
];
const STT_READ_ENERGY: [u64; 4] = [
    0x3d8c_4c09_0e04_a489,
    0x3cbd_d427_c566_9ac4,
    0x0000_0000_0000_0000,
    0x3d8c_4e47_eb03_221f,
];
const SOT_WRITE_LATENCY: [u64; 4] = [
    0x3e20_b953_1dcb_1c3c,
    0x3e32_3958_0b5c_aa36,
    0x0000_0000_0000_0000,
    0x3e70_49ff_327d_709f,
];
const SOT_WRITE_ENERGY: [u64; 4] = [
    0x3dc1_237a_aa67_ebb5,
    0x3dc5_ae11_ff62_7917,
    0x0000_0000_0000_0000,
    0x3e01_c4c3_d1bf_0d46,
];
const SOT_READ_LATENCY: [u64; 4] = [
    0x3e07_b5f9_7ea9_d2cd,
    0x3dd5_7c95_59bc_4a1d,
    0x0000_0000_0000_0000,
    0x3e12_2897_49d2_a68c,
];
const SOT_READ_ENERGY: [u64; 4] = [
    0x3d98_5a15_eefd_8ff8,
    0x3cbf_0db6_f96c_a1a4,
    0x0000_0000_0000_0000,
    0x3d98_5b41_2af7_6b9e,
];
const SENSE_MARGIN: [u64; 4] = [
    0x3f96_ff1b_fcb1_e020,
    0x3f48_7b78_ba98_c64e,
    0x0000_0000_0000_0000,
    0x3f99_9a47_149d_7050,
];
const SENSE_MIN_MARGIN: u64 = 0x3f95_1cc3_aa30_c1ec;
const SENSE_BELOW_AND_FAILED: (u64, u64) = (0, 0);
const STT_MEAN_BIT_WER: [u64; 2] = [0x3fd7_ae81_4e6f_b7bd, 0x3f79_ed6d_93f9_5378];
const SOT_MEAN_BIT_WER: [u64; 2] = [0x3fd0_1d7b_70fb_3ec6, 0x3f81_3d71_655f_bde6];
