//! Executable specification of [`Workspace::solve`](super::Workspace::solve).
//!
//! [`solve`] is the dense LU elimination loop as it stood before the solver
//! was specialised to literal system sizes: `Matrix::get`/`set` on every
//! entry, first-max partial pivoting, `factor = a[r][k] / pivot` with a
//! skip when the factor is exactly zero, no FMA, and back substitution in
//! increasing column order. It defines *what* the solver computes; the
//! production body defines *how fast*. Every solution must match it bit for
//! bit, and every `Ok`/`SingularMatrix` outcome must agree.
//!
//! Keep this module naive: do not optimise it.

use super::{Matrix, Workspace};
use crate::SpiceError;

/// The reference elimination: solves `a·x = b` in place of `a` and `b`.
///
/// # Errors
///
/// [`SpiceError::SingularMatrix`] under the same relative pivot tolerance
/// and non-finite-solution rule as the production solver.
#[allow(clippy::needless_range_loop)]
pub(super) fn solve(a: &mut Matrix, b: &mut [f64]) -> Result<Vec<f64>, SpiceError> {
    let n = b.len();
    let scale = a.data.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    let tol = (scale * n as f64 * f64::EPSILON).max(f64::MIN_POSITIVE);
    for k in 0..n {
        let mut piv = k;
        let mut max = a.get(k, k).abs();
        for r in (k + 1)..n {
            let v = a.get(r, k).abs();
            if v > max {
                max = v;
                piv = r;
            }
        }
        if max < tol {
            return Err(SpiceError::SingularMatrix);
        }
        if piv != k {
            for c in 0..n {
                let tmp = a.get(k, c);
                a.set(k, c, a.get(piv, c));
                a.set(piv, c, tmp);
            }
            b.swap(k, piv);
        }
        let pivot = a.get(k, k);
        for r in (k + 1)..n {
            let factor = a.get(r, k) / pivot;
            if factor == 0.0 {
                continue;
            }
            a.set(r, k, 0.0);
            for c in (k + 1)..n {
                let v = a.get(r, c) - factor * a.get(k, c);
                a.set(r, c, v);
            }
            b[r] -= factor * b[k];
        }
    }
    let mut x = vec![0.0; n];
    for k in (0..n).rev() {
        let mut sum = b[k];
        for c in (k + 1)..n {
            sum -= a.get(k, c) * x[c];
        }
        x[k] = sum / a.get(k, k);
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err(SpiceError::SingularMatrix);
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_units::rng::{Rng, Xoshiro256PlusPlus};

    /// Log-uniform magnitude in `[10^lo, 10^hi]`.
    fn log_uniform(rng: &mut Xoshiro256PlusPlus, lo: f64, hi: f64) -> f64 {
        10f64.powf(rng.gen_range_f64(lo, hi))
    }

    fn pick(rng: &mut Xoshiro256PlusPlus, n: usize) -> usize {
        rng.gen_below(n as u64) as usize
    }

    /// A modified-nodal-analysis-like system: GMIN on every node diagonal,
    /// sparse two-terminal conductances (some to ground), a few voltage
    /// source rows with ±1 couplings, and an occasional asymmetric
    /// transconductance. `ties` draws every conductance from a three-value
    /// set so that equal pivot magnitudes are common.
    fn mna_like(rng: &mut Xoshiro256PlusPlus, n: usize, ties: bool) -> (Matrix, Vec<f64>) {
        let n_vs = if n >= 2 { pick(rng, n / 2 + 1) } else { 0 };
        let n_nodes = n - n_vs;
        let mut a = Matrix::zeros(n, n);
        let mut b = vec![0.0; n];
        for i in 0..n_nodes {
            a.add(i, i, 1e-12);
        }
        let conductance = |rng: &mut Xoshiro256PlusPlus| {
            if ties {
                [0.5, 1.0, 2.0][pick(rng, 3)]
            } else {
                log_uniform(rng, -6.0, 3.0)
            }
        };
        if n_nodes > 0 {
            for _ in 0..(n_nodes + pick(rng, n_nodes + 1)) {
                let g = conductance(rng);
                let i = pick(rng, n_nodes);
                a.add(i, i, g);
                if rng.gen_bool(0.7) {
                    let j = pick(rng, n_nodes);
                    if j != i {
                        a.add(i, j, -g);
                        a.add(j, i, -g);
                        a.add(j, j, g);
                    }
                }
            }
            if rng.gen_bool(0.3) {
                // Transconductance: an asymmetric stamp.
                let gm = conductance(rng);
                let (d, g) = (pick(rng, n_nodes), pick(rng, n_nodes));
                a.add(d, g, gm);
            }
            for v in b.iter_mut().take(n_nodes) {
                if rng.gen_bool(0.3) {
                    *v = rng.gen_range_f64(-1e-3, 1e-3);
                }
            }
        }
        for s in 0..n_vs {
            let row = n_nodes + s;
            let plus = pick(rng, n_nodes.max(1));
            if n_nodes > 0 {
                a.add(plus, row, 1.0);
                a.add(row, plus, 1.0);
                if rng.gen_bool(0.4) {
                    let minus = pick(rng, n_nodes);
                    if minus != plus {
                        a.add(minus, row, -1.0);
                        a.add(row, minus, -1.0);
                    }
                }
            }
            b[row] = rng.gen_range_f64(-1.5, 1.5);
        }
        (a, b)
    }

    /// A sparse block whose sub-diagonal is mostly exactly zero, with a few
    /// −0.0 entries and a few subnormals under large pivots (the quotient
    /// underflows to zero): all drive the `factor == 0.0` skip. Zeros of
    /// either sign in the right-hand side make some solution entries exactly
    /// ±0, whose sign shows whether a skipped row was updated anyway.
    fn zero_subcolumns(rng: &mut Xoshiro256PlusPlus, n: usize) -> (Matrix, Vec<f64>) {
        let mut a = Matrix::zeros(n, n);
        for k in 0..n {
            a.set(k, k, log_uniform(rng, 0.0, 3.0));
            for c in (k + 1)..n {
                if rng.gen_bool(0.2) {
                    a.set(k, c, rng.gen_range_f64(-2.0, 2.0));
                }
            }
            for r in (k + 1)..n {
                match pick(rng, 10) {
                    0 => a.set(r, k, 5e-324),
                    1 => a.set(r, k, -0.0),
                    _ => {}
                }
            }
        }
        let b = (0..n)
            .map(|_| match pick(rng, 3) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.gen_range_f64(-1.0, 1.0),
            })
            .collect();
        (a, b)
    }

    /// An MNA-like system made exactly singular: a duplicated row, or an
    /// all-zero column.
    fn singular(rng: &mut Xoshiro256PlusPlus, n: usize) -> (Matrix, Vec<f64>) {
        let (mut a, b) = mna_like(rng, n, false);
        let (i, j) = (pick(rng, n), pick(rng, n));
        if i != j && rng.gen_bool(0.5) {
            for c in 0..n {
                a.set(j, c, a.get(i, c));
            }
        } else {
            for r in 0..n {
                a.set(r, j, 0.0);
            }
        }
        (a, b)
    }

    /// A row-permuted diagonal system with one pivot at, just above or
    /// just below the relative tolerance `scale · n · ε`. Elimination never
    /// touches the pivots (every factor is zero), so the tested pivot is
    /// exactly the stored value.
    fn tolerance_edge(rng: &mut Xoshiro256PlusPlus, n: usize) -> (Matrix, Vec<f64>) {
        let scale = [1.0, 0.25, 1024.0][pick(rng, 3)];
        let tol = scale * n as f64 * f64::EPSILON;
        let edge = match pick(rng, 3) {
            0 => tol,
            1 => tol.next_down(),
            _ => tol.next_up(),
        };
        let mut diag: Vec<f64> = (0..n).map(|_| scale).collect();
        diag[pick(rng, n)] = edge;
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, pick(rng, i + 1));
        }
        let mut a = Matrix::zeros(n, n);
        for (col, &row) in perm.iter().enumerate() {
            a.set(row, col, diag[col]);
        }
        let b = (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
        (a, b)
    }

    /// An MNA-like system with ±inf, NaN and −0.0 written into random
    /// matrix and right-hand-side slots.
    fn specials(rng: &mut Xoshiro256PlusPlus, n: usize) -> (Matrix, Vec<f64>) {
        let (mut a, mut b) = mna_like(rng, n, false);
        const SPECIAL: [f64; 4] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0];
        for _ in 0..(1 + pick(rng, 3)) {
            let v = SPECIAL[pick(rng, 4)];
            if rng.gen_bool(0.8) {
                a.set(pick(rng, n), pick(rng, n), v);
            } else {
                b[pick(rng, n)] = v;
            }
        }
        if rng.gen_bool(0.5) {
            // -0.0 in place of explicit zeros: a sign that must not matter.
            for r in 0..n {
                for c in 0..n {
                    if a.get(r, c) == 0.0 && rng.gen_bool(0.3) {
                        a.set(r, c, -0.0);
                    }
                }
            }
        }
        (a, b)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn workspace_solve_matches_the_reference_bit_for_bit() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0x5_71CE);
        let mut ws = Workspace::new();
        let (mut solved, mut singular_seen) = (0usize, 0usize);
        for n in 1..=20 {
            for case in 0..60 {
                let kind = case % 6;
                let (a, b) = match kind {
                    0 => mna_like(&mut rng, n, false),
                    1 => mna_like(&mut rng, n, true),
                    2 => zero_subcolumns(&mut rng, n),
                    3 => singular(&mut rng, n),
                    4 => tolerance_edge(&mut rng, n),
                    _ => specials(&mut rng, n),
                };
                let expect = solve(&mut a.clone(), &mut b.clone());

                ws.prepare(n);
                let (m, rhs) = ws.assembly_mut();
                *m = a;
                rhs.copy_from_slice(&b);
                let got = ws.solve().map(|()| ws.solution().to_vec());

                match (&expect, &got) {
                    (Ok(e), Ok(g)) => {
                        assert_eq!(bits(e), bits(g), "n={n} case={case}: {e:?} vs {g:?}");
                        solved += 1;
                    }
                    (Err(e), Err(g)) => {
                        assert_eq!(e, g, "n={n} case={case}");
                        singular_seen += 1;
                    }
                    _ => panic!("n={n} case={case}: reference {expect:?}, workspace {got:?}"),
                }
            }
        }
        // Both outcomes must be well represented, or the spec proves little.
        assert!(solved > 500, "only {solved} systems solved");
        assert!(singular_seen > 400, "only {singular_seen} systems singular");
    }
}
