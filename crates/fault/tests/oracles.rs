//! Distribution oracles for the fault plane.
//!
//! Each test checks a law that any correct injector obeys, whatever way it
//! draws the bits of a word: every bit of every kind fires independently
//! with probability p. The tolerances are fixed (3σ bands, a χ² critical
//! value at α = 0.001) and the seeds are fixed, so a draw that replays a
//! different but equally valid fault history still passes, and a biased
//! one fails.

use mss_exec::ParallelConfig;
use mss_fault::{
    run_ecc_campaign, CampaignOptions, FaultInjector, FaultModel, FaultPlan, WordDraw,
};
use mss_vaet::ecc::EccScheme;

/// A BCH(2,512) word: 512 data bits and 20 check bits.
fn scheme() -> EccScheme {
    EccScheme::bch(2, 512)
}

fn word_bits() -> u32 {
    scheme().block_bits()
}

/// An injector with every fault kind at rate `p`.
fn injector(seed: u64, p: f64) -> FaultInjector {
    let mut m = FaultModel::none();
    m.write_fail_rate = p;
    m.read_disturb_rate = p;
    m.transient_flip_rate = p;
    m.stuck_at_rate = p;
    FaultInjector::new(FaultPlan::new(seed, m).expect("valid model"))
}

const KINDS: [&str; 4] = ["write", "read-disturb", "transient", "stuck"];

/// The four kinds' draws of word `w`: the three access kinds at an epoch
/// that varies with the word, the stuck-at map of site `w`.
fn draws(inj: &FaultInjector, w: u64) -> [WordDraw<'_>; 4] {
    let epoch = w % 5;
    [
        inj.write_word(w, epoch),
        inj.read_disturb_word(w, epoch),
        inj.transient_word(w, epoch),
        inj.stuck_word(w),
    ]
}

/// `|observed − n·p| ≤ 3·√(n·p·(1 − p))`.
fn assert_binomial(what: &str, observed: u64, n: u64, p: f64) {
    let mean = n as f64 * p;
    let sigma = (n as f64 * p * (1.0 - p)).sqrt();
    let z = (observed as f64 - mean) / sigma;
    assert!(
        z.abs() <= 3.0,
        "{what}: {observed} hits in {n} trials at p = {p:e}, expected {mean:.1} ± {sigma:.1} (z = {z:+.2})"
    );
}

#[test]
fn per_kind_hit_counts_match_the_binomial_mean() {
    let bits = word_bits();
    // Enough words for n·p ≥ ~200 at every rate.
    for (p, words) in [(1e-6, 400_000u64), (1e-3, 20_000), (0.5, 2_000)] {
        let inj = injector(0x000A_C1E5, p);
        let mut counts = [0u64; 4];
        for w in 0..words {
            for (count, draw) in counts.iter_mut().zip(draws(&inj, w)) {
                *count += draw.hits(bits).count() as u64;
            }
        }
        for (kind, count) in KINDS.iter().zip(counts) {
            assert_binomial(kind, count, words * u64::from(bits), p);
        }
    }
}

#[test]
fn rate_one_hits_every_bit_and_rate_zero_none() {
    let bits = word_bits();
    let every: Vec<u32> = (0..bits).collect();
    let (always, never) = (injector(3, 1.0), injector(3, 0.0));
    for w in [0u64, 1, 77, u64::MAX] {
        for (a, n) in draws(&always, w).into_iter().zip(draws(&never, w)) {
            assert_eq!(a.hits(bits).collect::<Vec<_>>(), every);
            assert_eq!(n.hits(bits).count(), 0);
        }
    }
}

#[test]
fn hit_positions_are_uniform_over_the_word() {
    // 8 bins of 66 or 67 bits; χ² with 7 degrees of freedom, critical
    // value 24.32 at α = 0.001.
    const BINS: usize = 8;
    const CRITICAL: f64 = 24.32;
    let bits = word_bits();
    let bin = |b: u32| b as usize * BINS / bits as usize;
    let mut width = [0u32; BINS];
    for b in 0..bits {
        width[bin(b)] += 1;
    }
    let inj = injector(0x0000_C415, 1e-3);
    let mut counts = [[0u64; BINS]; 4];
    for w in 0..20_000 {
        for (count, draw) in counts.iter_mut().zip(draws(&inj, w)) {
            for b in draw.hits(bits) {
                count[bin(b)] += 1;
            }
        }
    }
    for (kind, count) in KINDS.iter().zip(counts) {
        let total: u64 = count.iter().sum();
        let chi2: f64 = count
            .iter()
            .zip(width)
            .map(|(&o, wd)| {
                let e = total as f64 * f64::from(wd) / f64::from(bits);
                (o as f64 - e).powi(2) / e
            })
            .sum();
        assert!(
            chi2 <= CRITICAL,
            "{kind}: χ² = {chi2:.2} over bins {count:?} ({total} hits)"
        );
    }
}

#[test]
fn adjacent_bits_co_fire_at_p_squared() {
    // Over the `bits − 1` adjacent pairs of a word, the co-fire count has
    // mean m·p² and, since neighbouring pairs share a bit, variance
    // m·(p² − p⁴) + 2·(m − 1)·(p³ − p⁴) per word.
    let bits = word_bits();
    for (p, words) in [(0.05, 2_000u64), (0.5, 2_000)] {
        let inj = injector(0xAD_1ACE, p);
        let mut both = 0u64;
        for w in 0..words {
            let hits: Vec<u32> = inj.write_word(w, 0).hits(bits).collect();
            both += hits.windows(2).filter(|h| h[1] == h[0] + 1).count() as u64;
        }
        let m = f64::from(bits - 1);
        let mean = words as f64 * m * p * p;
        let var =
            words as f64 * (m * (p * p - p.powi(4)) + 2.0 * (m - 1.0) * (p.powi(3) - p.powi(4)));
        let z = (both as f64 - mean) / var.sqrt();
        assert!(
            z.abs() <= 3.0,
            "p = {p}: {both} adjacent co-fires, expected {mean:.1} ± {:.1} (z = {z:+.2})",
            var.sqrt()
        );
    }
}

/// `P(X > t)` for `X ~ Binomial(n, p)`, as one minus the summed head.
fn binomial_tail(n: u32, p: f64, t: u32) -> f64 {
    let (n, q) = (f64::from(n), 1.0 - p);
    let mut term = q.powf(n); // P(X = 0)
    let mut head = term;
    for k in 1..=t {
        let k = f64::from(k);
        term *= (n - k + 1.0) / k * p / q;
        head += term;
    }
    1.0 - head
}

#[test]
fn bch_word_failures_match_the_exact_binomial_tail() {
    let scheme = scheme();
    for (p, blocks) in [(1e-3, 100_000u64), (5e-3, 20_000)] {
        let mut m = FaultModel::none();
        m.write_fail_rate = p;
        let plan = FaultPlan::new(0xBC4_7A11, m).expect("valid model");
        let opts = CampaignOptions::new(blocks, scheme).with_parallel(ParallelConfig::serial());
        let r = run_ecc_campaign(&plan, &opts).expect("campaign");
        let tail = binomial_tail(scheme.block_bits(), p, scheme.correctable);
        assert_binomial(
            &format!("BCH(2,512) words beyond t at p = {p:e}"),
            r.blocks_detected + r.blocks_uncorrectable,
            blocks,
            tail,
        );
    }
}
