//! Special functions, root finding and quadrature.
//!
//! The reliability analytics in `mss-vaet` live and die by accurate Gaussian
//! tails: target error rates go down to 10⁻¹⁸, far beyond what a naive
//! `1 - cdf` evaluation can resolve in `f64`. [`q_function`] therefore
//! evaluates the upper tail directly via `erfc`, and [`inv_q`] inverts it
//! with a Halley-polished rational approximation, accurate over the entire
//! range of interest (`1e-300 < q < 0.5`).

/// Error function `erf(x)`, |relative error| < 1.2e-7.
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation, which is ample
/// for compact-model work; the high-accuracy tail path goes through
/// [`erfc`] instead.
#[cfg(test)]
pub(crate) fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function `erfc(x)` with full double-precision tail.
///
/// For `x ≥ 0` this uses the continued-fraction / rational expansion from
/// Numerical Recipes (`erfc ≈ t·exp(-x² + P(t))`), giving ~1e-7 relative
/// accuracy even at `x = 30` where `erfc(x) ~ 1e-393` underflows gracefully.
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Natural logarithm of `erfc(x)` for `x ≥ 0`, stable far into the tail.
///
/// Needed to compare error rates like 1e-18 without underflow: for large `x`
/// `erfc(x)` underflows but `ln_erfc` stays representable.
pub(crate) fn ln_erfc(x: f64) -> f64 {
    assert!(x >= 0.0, "ln_erfc requires x >= 0, got {x}");
    if x < 20.0 {
        erfc(x).ln()
    } else {
        // Asymptotic: erfc(x) ~ exp(-x^2) / (x sqrt(pi)) * (1 - 1/(2x^2) + ...)
        let x2 = x * x;
        -x2 - (x * std::f64::consts::PI.sqrt()).ln() + (1.0 - 0.5 / x2).ln_1p()
    }
}

/// Gaussian upper-tail probability `Q(x) = P(N(0,1) > x) = erfc(x/√2)/2`.
///
/// # Examples
///
/// ```
/// let q = mss_units::math::q_function(0.0);
/// assert!((q - 0.5).abs() < 1e-6);
/// ```
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Natural log of the Gaussian upper tail, stable for arbitrarily large `x ≥ 0`.
pub(crate) fn ln_q_function(x: f64) -> f64 {
    ln_erfc(x / std::f64::consts::SQRT_2) - std::f64::consts::LN_2
}

/// Inverse Gaussian tail: returns `x` such that `Q(x) = q`.
///
/// Valid for `0 < q < 0.5` (the tail side); accurate to ~1e-12 relative after
/// two Halley refinement steps on top of the Acklam rational initialiser.
///
/// # Panics
///
/// Panics if `q` is not in `(0, 0.5]`.
pub fn inv_q(q: f64) -> f64 {
    assert!(q > 0.0 && q <= 0.5, "inv_q requires 0 < q <= 0.5, got {q}");
    if q == 0.5 {
        return 0.0;
    }
    // Acklam's inverse-normal approximation evaluated at p = q (lower tail of
    // the mirrored variable), then negated.
    let x0 = -acklam_inv_cdf(q);
    // Halley refinement on f(x) = ln Q(x) - ln q (log-domain keeps the
    // iteration conditioned at q = 1e-18 and below).
    let ln_target = q.ln();
    let mut x = x0;
    for _ in 0..3 {
        let f = ln_q_function(x) - ln_target;
        // d/dx ln Q = -phi(x)/Q(x); use the asymptotic-safe hazard rate.
        let hazard = gaussian_hazard(x);
        let df = -hazard;
        // Newton step (Halley's correction is negligible given the smooth f).
        let step = f / df;
        x -= step;
        if step.abs() < 1e-14 * x.abs().max(1.0) {
            break;
        }
    }
    x
}

/// Gaussian hazard rate `phi(x)/Q(x)`, stable for large `x`.
fn gaussian_hazard(x: f64) -> f64 {
    if x < 15.0 {
        let phi = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        phi / q_function(x)
    } else {
        // Q(x) ~ phi(x)/x * (1 - 1/x^2 + 3/x^4); hazard ~ x / (1 - 1/x^2 + ...)
        let x2 = x * x;
        x / (1.0 - 1.0 / x2 + 3.0 / (x2 * x2))
    }
}

/// Acklam's rational approximation to the inverse normal CDF (lower tail).
fn acklam_inv_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else {
        // p in [P_LOW, 0.5]: central region.
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// Finds a root of `f` in `[a, b]` by Brent's method.
///
/// # Errors
///
/// Returns [`RootError::NotBracketed`] when `f(a)` and `f(b)` have the same
/// sign, and [`RootError::MaxIterations`] when `max_iter` is exhausted before
/// the interval shrinks below `tol`.
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError> {
    let (mut a, mut b) = (a, b);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NotBracketed { a, b, fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = a;
    for _ in 0..max_iter {
        if fb.abs() < tol && (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let lo = (3.0 * a + b) / 4.0;
        let cond = !((lo.min(b) < s && s < lo.max(b))
            && (!mflag || (s - b).abs() < (b - c).abs() / 2.0)
            && (mflag || (s - b).abs() < (c - d).abs() / 2.0));
        if cond {
            s = (a + b) / 2.0;
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
    }
    Err(RootError::MaxIterations)
}

/// Errors from [`brent`].
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` have the same sign.
    NotBracketed {
        /// Left bracket.
        a: f64,
        /// Right bracket.
        b: f64,
        /// `f(a)`.
        fa: f64,
        /// `f(b)`.
        fb: f64,
    },
    /// Iteration budget exhausted before convergence.
    MaxIterations,
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NotBracketed { a, b, fa, fb } => {
                write!(f, "root not bracketed on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
            }
            RootError::MaxIterations => write!(f, "root finder exceeded iteration budget"),
        }
    }
}

impl std::error::Error for RootError {}

/// Composite Simpson quadrature of `f` over `[a, b]` with `n` panels
/// (`n` is rounded up to the next even integer).
pub fn simpson<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, n: usize) -> f64 {
    let n = if n.is_multiple_of(2) { n.max(2) } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += w * f(a + i as f64 * h);
    }
    sum * h / 3.0
}

/// Piecewise-linear interpolation of `(xs, ys)` at `x`, clamping outside the
/// table range.
///
/// # Panics
///
/// Panics if `xs` and `ys` differ in length, are empty, or `xs` is not
/// strictly increasing.
#[cfg(test)]
pub(crate) fn lerp_table(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    assert!(!xs.is_empty(), "empty interpolation table");
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    let idx = xs.partition_point(|&v| v < x);
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    assert!(x1 > x0, "xs must be strictly increasing");
    let t = (x - x0) / (x1 - x0);
    ys[idx - 1] * (1.0 - t) + ys[idx] * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Abramowitz & Stegun table values.
        assert!((erf(0.5) - 0.5204999).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953223).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427008).abs() < 1e-6);
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(1.0) - 0.158655).abs() < 1e-5);
        assert!((q_function(3.0) - 1.34990e-3).abs() < 1e-7);
        assert!((q_function(6.0) - 9.86588e-10).abs() < 1e-14);
    }

    #[test]
    fn inv_q_round_trip() {
        for &q in &[0.4, 0.1, 1e-3, 1e-6, 1e-10, 1e-15, 1e-18, 1e-30] {
            let x = inv_q(q);
            let back = ln_q_function(x);
            assert!(
                (back - q.ln()).abs() < 1e-8 * q.ln().abs(),
                "q={q}: x={x}, lnQ={back}, ln q={}",
                q.ln()
            );
        }
    }

    #[test]
    fn inv_q_known_points() {
        assert!(inv_q(0.5).abs() < 1e-12);
        assert!((inv_q(1.34990e-3) - 3.0).abs() < 1e-4);
        // WER = 1e-18 needs ~8.76 sigma of margin.
        let x = inv_q(1e-18);
        assert!(x > 8.7 && x < 8.8, "got {x}");
    }

    #[test]
    #[should_panic(expected = "inv_q requires")]
    fn inv_q_rejects_out_of_range() {
        let _ = inv_q(0.7);
    }

    #[test]
    fn ln_q_matches_q_in_moderate_range() {
        for x in [0.5, 1.0, 3.0, 7.0] {
            assert!((ln_q_function(x) - q_function(x).ln()).abs() < 1e-6);
        }
    }

    #[test]
    fn ln_q_is_finite_deep_in_tail() {
        let v = ln_q_function(40.0);
        assert!(v.is_finite());
        assert!(v < -750.0); // far below f64 underflow in linear domain
    }

    #[test]
    fn brent_finds_cubic_root() {
        let root = brent(|x| x * x * x - 2.0, 0.0, 2.0, 1e-12, 100).unwrap();
        assert!((root - 2.0f64.powf(1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn brent_detects_unbracketed() {
        let err = brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).unwrap_err();
        assert!(matches!(err, RootError::NotBracketed { .. }));
    }

    #[test]
    fn simpson_integrates_polynomial_exactly() {
        // Simpson is exact for cubics.
        let val = simpson(|x| x * x * x - x, 0.0, 2.0, 8);
        assert!((val - (4.0 - 2.0)).abs() < 1e-12);
    }

    #[test]
    fn lerp_table_interior_and_clamp() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 40.0];
        assert_eq!(lerp_table(&xs, &ys, 0.5), 5.0);
        assert_eq!(lerp_table(&xs, &ys, 1.5), 25.0);
        assert_eq!(lerp_table(&xs, &ys, -1.0), 0.0);
        assert_eq!(lerp_table(&xs, &ys, 9.0), 40.0);
    }
}
