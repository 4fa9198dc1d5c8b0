//! Error-correcting-code trade-offs (the paper's Fig. 8).
//!
//! *"Another approach is to reduce the timing margin and employ appropriate
//! Error Correcting Codes (ECCs) to correct errors in the tail of the
//! distribution."* A `t`-error-correcting code over an `n = k + r` bit block
//! tolerates per-bit WER `p` with uncorrectable probability
//! `P_uncorr = Σ_{j>t} C(n,j)·pʲ·(1−p)^{n−j}`. Allowing `t` corrections
//! relaxes the per-bit WER dramatically, which shortens the pulse — with
//! diminishing returns, exactly the paper's observation: *"there is a
//! drastic improvement in latency by using an ECC with one-bit error
//! correction. However, the improvement for higher bit error correction is
//! comparatively less."*

use mss_units::math::brent;

use crate::context::VaetContext;
use crate::margins::WriteMarginSolver;
use crate::VaetError;

/// A `t`-error-correcting block code over a data word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EccScheme {
    /// Number of correctable bits per block (0 = no ECC).
    pub correctable: u32,
    /// Data bits per block.
    pub(crate) data_bits: u32,
}

impl mss_pipe::StableHash for EccScheme {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_u32(self.correctable);
        h.write_u32(self.data_bits);
    }
}

impl EccScheme {
    /// A BCH-style scheme: `t` corrections over `data_bits` of payload.
    pub fn bch(correctable: u32, data_bits: u32) -> Self {
        Self {
            correctable,
            data_bits,
        }
    }

    /// Check bits, `r ≈ t·⌈log₂(n)⌉` (Hamming/BCH bound, +1 for t=0 parity
    /// omitted).
    pub(crate) fn check_bits(&self) -> u32 {
        if self.correctable == 0 {
            0
        } else {
            let m = (self.data_bits as f64).log2().ceil() as u32 + 1;
            self.correctable * m
        }
    }

    /// Total block length `n = k + r`.
    pub fn block_bits(&self) -> u32 {
        self.data_bits + self.check_bits()
    }

    /// Storage overhead ratio `r/k`.
    pub(crate) fn overhead(&self) -> f64 {
        self.check_bits() as f64 / self.data_bits as f64
    }

    /// Decoder latency: syndrome computation plus `t` sequential
    /// Chien/Berlekamp-style stages, in FO4 units converted by the caller.
    pub(crate) fn decode_fo4(&self) -> f64 {
        if self.correctable == 0 {
            0.0
        } else {
            6.0 + 8.0 * self.correctable as f64
        }
    }

    /// Probability the block has more than `t` errors at per-bit WER `p`
    /// (numerically careful for tiny `p`).
    pub fn uncorrectable_probability(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return 1.0;
        }
        let n = self.block_bits() as f64;
        let t = self.correctable;
        // Sum the complement: P(X <= t) via log-domain terms, then 1 - it,
        // except when p is tiny — there the dominant failing term j = t+1
        // computed in logs is far more accurate.
        let ln_p = p.ln();
        let ln_q = (-p).ln_1p();
        // Dominant term j = t+1.
        let j = (t + 1) as f64;
        let ln_choose = ln_binomial(n, j);
        let ln_dominant = ln_choose + j * ln_p + (n - j) * ln_q;
        let ratio = ((n - j) / (j + 1.0)) * (p / (1.0 - p));
        if ln_dominant < -3.0 && ratio < 0.5 {
            // Sparse-error regime: the j = t+1 term dominates and the rest
            // of the tail is bounded by a geometric series.
            let sum = ln_dominant.exp() / (1.0 - ratio);
            return sum.min(1.0);
        }
        // Moderate p: direct complement sum.
        let mut cdf = 0.0;
        for k in 0..=t {
            let kf = k as f64;
            cdf += (ln_binomial(n, kf) + kf * ln_p + (n - kf) * ln_q).exp();
        }
        (1.0 - cdf).clamp(0.0, 1.0)
    }

    /// Per-bit WER allowed so the block uncorrectable probability stays at
    /// `target`.
    ///
    /// # Errors
    ///
    /// [`VaetError::UnreachableTarget`] if the bracketed inversion fails
    /// (does not happen for targets in `(0, 0.1)`).
    pub(crate) fn allowed_bit_wer(&self, target: f64) -> Result<f64, VaetError> {
        if !(target > 0.0 && target < 0.1) {
            return Err(VaetError::InvalidOptions {
                reason: format!("ECC target {target} must be in (0, 0.1)"),
            });
        }
        // Solve on ln p for conditioning.
        let f = |ln_p: f64| {
            let up = self.uncorrectable_probability(ln_p.exp());
            if up <= 0.0 {
                -800.0 - target.ln()
            } else {
                up.ln() - target.ln()
            }
        };
        let root = brent(f, (1e-30f64).ln(), (0.05f64).ln(), 1e-10, 200).map_err(|e| {
            VaetError::UnreachableTarget {
                quantity: "ECC bit WER",
                target,
                reason: e.to_string(),
            }
        })?;
        Ok(root.exp())
    }
}

/// Outcome of decoding one ECC block that carries a known number of raw bit
/// errors.
///
/// The classification follows the extended (distance `2t+2`) construction
/// implied by `EccScheme::check_bits`'s `+1` parity column: up to `t`
/// errors are corrected, exactly `t+1` errors are *detected* but not
/// correctable, and beyond that the decoder can mis-correct silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccOutcome {
    /// The block is error-free.
    Clean,
    /// `1..=t` raw errors: transparently corrected.
    Corrected,
    /// Exactly `t+1` raw errors: flagged, data lost but *known* lost.
    Detected,
    /// More than `t+1` raw errors: potentially silent corruption.
    Uncorrectable,
}

impl EccScheme {
    /// Classifies a block by its raw (pre-decode) bit-error count.
    ///
    /// A `t = 0` scheme has no check bits at all, so *any* error is silent
    /// corruption rather than a detected failure.
    pub fn classify(&self, raw_errors: u32) -> EccOutcome {
        if raw_errors == 0 {
            EccOutcome::Clean
        } else if self.correctable == 0 {
            EccOutcome::Uncorrectable
        } else if raw_errors <= self.correctable {
            EccOutcome::Corrected
        } else if raw_errors == self.correctable + 1 {
            EccOutcome::Detected
        } else {
            EccOutcome::Uncorrectable
        }
    }
}

fn ln_binomial(n: f64, k: f64) -> f64 {
    ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)
}

/// Lanczos log-gamma (sufficient accuracy for binomial coefficients here).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, &g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// One point of the Fig. 8 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccPoint {
    /// The scheme evaluated.
    pub scheme: EccScheme,
    /// Per-bit WER the code tolerates at the uncorrectable-error target.
    pub allowed_bit_wer: f64,
    /// Overall write latency (periphery + margined pulse + decode), seconds.
    pub write_latency: f64,
    /// Storage overhead r/k.
    pub overhead: f64,
}

/// Sweeps ECC strength 0..=`max_t` at a fixed uncorrectable-error target —
/// the Fig. 8 data series (the paper uses WER = 1 × 10⁻¹⁸).
///
/// # Errors
///
/// Propagates margin-solver and inversion failures.
pub fn figure8(
    ctx: &VaetContext,
    target_uncorrectable: f64,
    max_t: u32,
) -> Result<Vec<EccPoint>, VaetError> {
    let solver = WriteMarginSolver::new(ctx)?;
    let mut points = Vec::with_capacity(max_t as usize + 1);
    for t in 0..=max_t {
        let scheme = EccScheme::bch(t, ctx.config.word_bits);
        // With no ECC the whole word must be error-free below the target;
        // with ECC the per-bit requirement relaxes to the inverted binomial.
        let allowed = if t == 0 {
            target_uncorrectable / scheme.block_bits() as f64
        } else {
            scheme.allowed_bit_wer(target_uncorrectable)?
        };
        // The margin solver targets *word-level* WER = word * bit_wer.
        let word_target = (allowed * ctx.config.word_bits as f64).min(0.5);
        let margin = solver.latency_for_wer(word_target)?;
        let decode = scheme.decode_fo4() * ctx.tech.fo4_delay;
        points.push(EccPoint {
            scheme,
            allowed_bit_wer: allowed,
            write_latency: margin.latency + decode,
            overhead: scheme.overhead(),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::VaetContext;
    use mss_pdk::tech::TechNode;
    use std::sync::OnceLock;

    fn ctx() -> &'static VaetContext {
        static CTX: OnceLock<VaetContext> = OnceLock::new();
        CTX.get_or_init(|| VaetContext::standard(TechNode::N45).unwrap())
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, f) in [(1.0_f64, 1.0_f64), (5.0, 24.0), (10.0, 362880.0)] {
            assert!((ln_gamma(n) - f.ln()).abs() < 1e-9, "gamma({n})");
        }
    }

    #[test]
    fn uncorrectable_monotone_in_p_and_t() {
        let s1 = EccScheme::bch(1, 64);
        let s2 = EccScheme::bch(2, 64);
        let mut last = 0.0;
        for &p in &[1e-12, 1e-9, 1e-6, 1e-3] {
            let u = s1.uncorrectable_probability(p);
            assert!(u >= last);
            assert!(u <= 1.0);
            last = u;
            // Stronger code always helps.
            assert!(s2.uncorrectable_probability(p) <= u);
        }
    }

    #[test]
    fn allowed_wer_round_trips() {
        for t in 1..=3 {
            let s = EccScheme::bch(t, 512);
            let p = s.allowed_bit_wer(1e-18).unwrap();
            let back = s.uncorrectable_probability(p);
            assert!(
                (back.ln() - (1e-18f64).ln()).abs() < 0.2,
                "t={t}: p={p:.3e}, back={back:.3e}"
            );
        }
    }

    #[test]
    fn stronger_ecc_allows_weaker_bits() {
        let p1 = EccScheme::bch(1, 512).allowed_bit_wer(1e-18).unwrap();
        let p2 = EccScheme::bch(2, 512).allowed_bit_wer(1e-18).unwrap();
        let p3 = EccScheme::bch(3, 512).allowed_bit_wer(1e-18).unwrap();
        assert!(p1 < p2 && p2 < p3);
    }

    #[test]
    fn figure8_shows_drastic_then_diminishing_gains() {
        let points = figure8(ctx(), 1e-18, 3).unwrap();
        assert_eq!(points.len(), 4);
        let l: Vec<f64> = points.iter().map(|p| p.write_latency).collect();
        // Latency decreases with the first corrected bit...
        assert!(l[1] < l[0], "t=1 must beat t=0: {l:?}");
        // ...and the first step is the largest (diminishing returns).
        let gain1 = l[0] - l[1];
        let gain2 = (l[1] - l[2]).max(0.0);
        let gain3 = (l[2] - l[3]).max(0.0);
        assert!(
            gain1 > gain2 && gain2 >= gain3 * 0.5,
            "gains: {gain1} {gain2} {gain3}"
        );
    }

    #[test]
    fn check_bits_grow_with_strength() {
        let s0 = EccScheme::bch(0, 1024);
        let s1 = EccScheme::bch(1, 1024);
        let s4 = EccScheme::bch(4, 1024);
        assert_eq!(s0.check_bits(), 0);
        assert!(s1.check_bits() > 0);
        assert_eq!(s4.check_bits(), 4 * s1.check_bits());
        assert!(s4.overhead() < 0.1); // BCH over 1 KiB words is cheap
    }

    #[test]
    fn invalid_targets_rejected() {
        let s = EccScheme::bch(1, 64);
        assert!(s.allowed_bit_wer(0.0).is_err());
        assert!(s.allowed_bit_wer(0.5).is_err());
    }
}
