//! Dense linear algebra for MNA systems.
//!
//! Characterisation circuits in this flow are tiny (tens of unknowns), so a
//! dense LU with partial pivoting is both simpler and faster than any sparse
//! machinery would be at this size.
//!
//! A [`Workspace`] owns the matrix, right-hand side and solution storage
//! and is reused across Newton iterations, retry-ladder attempts and batch
//! samples: after the first solve of a given dimension, assembling and
//! solving allocates nothing.
//!
//! **Determinism contract.** [`Workspace::solve`] is a pure function of the
//! assembled `(A, b)`, so single and batched paths produce identical bits
//! and identical [`SpiceError`] classification no matter which path — or
//! how many threads — ran the sample.

use crate::SpiceError;

#[cfg(test)]
mod reference;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n_rows × n_cols` zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Row count.
    #[cfg(test)]
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Reads element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n_cols + c]
    }

    /// Writes element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n_cols + c] = v;
    }

    /// Adds `v` to element `(r, c)` — the MNA "stamp" primitive.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n_cols + c] += v;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols`.
    #[cfg(test)]
    pub(crate) fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols);
        let mut y = vec![0.0; self.n_rows];
        for (y_r, row) in y.iter_mut().zip(self.data.chunks_exact(self.n_cols)) {
            *y_r = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

/// Reusable solve storage: matrix, right-hand side and solution vector.
///
/// [`Workspace::prepare`] returns the storage zeroed and correctly sized;
/// it only (re)allocates when the system dimension changes, and bumps the
/// `spice.solver.workspace_allocs` counter when it does — the counter is
/// how tests prove a whole transient runs on O(1) allocations.
#[derive(Debug, Clone)]
pub struct Workspace {
    a: Matrix,
    rhs: Vec<f64>,
    x: Vec<f64>,
    dim: usize,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An empty workspace; the first [`prepare`](Self::prepare) sizes it.
    pub fn new() -> Self {
        Self {
            a: Matrix::zeros(0, 0),
            rhs: Vec::new(),
            x: Vec::new(),
            dim: 0,
        }
    }

    /// Clears the workspace to an all-zero `dim × dim` system, reusing the
    /// existing storage when the dimension is unchanged.
    pub fn prepare(&mut self, dim: usize) {
        if self.dim != dim {
            self.a = Matrix::zeros(dim, dim);
            self.rhs = vec![0.0; dim];
            self.x = vec![0.0; dim];
            self.dim = dim;
            mss_obs::counter_add("spice.solver.workspace_allocs", 1);
        } else {
            self.a.clear();
            self.rhs.fill(0.0);
            self.x.fill(0.0);
        }
    }

    /// The solution of the last successful [`solve`](Self::solve).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Mutable matrix + RHS for assembly (split borrow).
    pub fn assembly_mut(&mut self) -> (&mut Matrix, &mut [f64]) {
        (&mut self.a, &mut self.rhs)
    }

    /// Solves `A·x = b` by LU with partial pivoting, using the workspace's
    /// matrix and RHS as scratch and leaving the solution in
    /// [`solution`](Self::solution).
    ///
    /// The singularity test is **relative to the matrix scale**: a pivot is
    /// rejected when it falls below `scale · n · ε`, where `scale` is the
    /// largest absolute entry of the input matrix. An absolute threshold
    /// (the former `1e-300`) passes badly scaled near-singular MNA systems —
    /// elimination leaves rounding dust in the pivot slot, back-substitution
    /// divides by it, and the caller receives huge or non-finite garbage with
    /// `Ok` status. A relative test catches those while still accepting
    /// legitimately tiny-but-well-conditioned systems of any scale (a GMIN
    /// conductance of `1e-12` against unit-scale stamps stays far above the
    /// tolerance for any realistic matrix size).
    ///
    /// Dimensions 1–16 (every characterisation deck) run the elimination
    /// body with a literal size, so its loops unroll and lose their bounds
    /// checks; larger systems run the same body with the runtime size.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] when a pivot falls below the relative
    /// tolerance, or when the solution contains non-finite entries.
    pub fn solve(&mut self) -> Result<(), SpiceError> {
        let (a, b, x) = (&mut self.a.data[..], &mut self.rhs[..], &mut self.x[..]);
        match self.dim {
            1 => eliminate(1, a, b, x),
            2 => eliminate(2, a, b, x),
            3 => eliminate(3, a, b, x),
            4 => eliminate(4, a, b, x),
            5 => eliminate(5, a, b, x),
            6 => eliminate(6, a, b, x),
            7 => eliminate(7, a, b, x),
            8 => eliminate(8, a, b, x),
            9 => eliminate(9, a, b, x),
            10 => eliminate(10, a, b, x),
            11 => eliminate(11, a, b, x),
            12 => eliminate(12, a, b, x),
            13 => eliminate(13, a, b, x),
            14 => eliminate(14, a, b, x),
            15 => eliminate(15, a, b, x),
            16 => eliminate(16, a, b, x),
            n => eliminate(n, a, b, x),
        }
    }
}

/// The one LU body behind [`Workspace::solve`]: solves the row-major
/// `n × n` system `a·x = b`, destroying `a` and `b`.
///
/// Inlined into every arm of `solve`'s size match, so a literal `n`
/// constant-folds. The arithmetic is the naive elimination's, operation for
/// operation: first-max partial pivot, `factor = a[r][k] / pivot` with a
/// skip when it is exactly zero, `a[r][c] - factor * a[k][c]` (Rust never
/// contracts that to an FMA), and back substitution in increasing column
/// order.
#[inline(always)]
fn eliminate(n: usize, a: &mut [f64], b: &mut [f64], x: &mut [f64]) -> Result<(), SpiceError> {
    let (a, b, x) = (&mut a[..n * n], &mut b[..n], &mut x[..n]);
    // Matrix scale for the relative pivot tolerance; the MIN_POSITIVE floor
    // makes the all-zero matrix (scale 0) singular rather than tol == 0.
    let scale = a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let tol = (scale * n as f64 * f64::EPSILON).max(f64::MIN_POSITIVE);
    let observed = mss_obs::enabled();
    let mut min_pivot_ratio = f64::INFINITY;
    for k in 0..n {
        // Partial pivot: the first row holding the column's largest magnitude.
        let mut piv = k;
        let mut max = a[k * n + k].abs();
        for r in (k + 1)..n {
            let v = a[r * n + k].abs();
            if v > max {
                max = v;
                piv = r;
            }
        }
        if max < tol {
            mss_obs::counter_add("spice.solver.singular", 1);
            return Err(SpiceError::SingularMatrix);
        }
        if observed {
            min_pivot_ratio = min_pivot_ratio.min(max / scale);
        }
        if piv != k {
            let (upper, lower) = a.split_at_mut(piv * n);
            upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
            b.swap(k, piv);
        }
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let pivot_row = &upper[k * n..];
        let pivot = pivot_row[k];
        let bk = b[k];
        for (row, b_r) in lower.chunks_exact_mut(n).zip(&mut b[k + 1..]) {
            let factor = row[k] / pivot;
            if factor == 0.0 {
                continue;
            }
            row[k] = 0.0;
            for (v, p) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *v -= factor * p;
            }
            *b_r -= factor * bk;
        }
    }
    // Back substitution into the solution vector.
    for k in (0..n).rev() {
        let row = &a[k * n..(k + 1) * n];
        let mut sum = b[k];
        for (v, x_c) in row[k + 1..].iter().zip(&x[k + 1..]) {
            sum -= v * x_c;
        }
        x[k] = sum / row[k];
    }
    // Defence in depth: a pivot chain can pass the tolerance yet still
    // overflow during substitution; never hand back non-finite "solutions".
    if x.iter().any(|v| !v.is_finite()) {
        mss_obs::counter_add("spice.solver.singular", 1);
        return Err(SpiceError::SingularMatrix);
    }
    if observed {
        mss_obs::counter_add("spice.solver.solves", 1);
        mss_obs::record_value("spice.solver.min_pivot_ratio", min_pivot_ratio);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot solve of `(a, b)` through a fresh workspace.
    fn solve(a: Matrix, b: Vec<f64>) -> Result<Vec<f64>, SpiceError> {
        let mut ws = Workspace::new();
        ws.prepare(b.len());
        let (m, rhs) = ws.assembly_mut();
        *m = a;
        rhs.copy_from_slice(&b);
        ws.solve()?;
        Ok(ws.solution().to_vec())
    }

    #[test]
    fn solves_identity() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        let x = solve(a, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_general_system() {
        // A = [[2,1],[1,3]], b = [5, 10] -> x = [1, 3]
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 3.0);
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 0.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 0.0);
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_is_detected() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        assert_eq!(
            solve(a, vec![1.0, 2.0]).unwrap_err(),
            SpiceError::SingularMatrix
        );
    }

    #[test]
    fn scaled_near_singular_is_rejected_not_garbage() {
        // Rank-1 matrix scaled down to 1e-280: elimination leaves only
        // rounding dust in the (1,1) slot. The dust sits far above the old
        // absolute 1e-300 threshold, so the former code "solved" the system
        // and back-substitution divided by it, emitting ~1e280-magnitude
        // garbage with Ok status. The relative tolerance rejects it.
        let s = 1e-280;
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 0.1 * s);
        a.set(0, 1, 0.7 * s);
        a.set(1, 0, 0.03 * s);
        a.set(1, 1, 0.21 * s);
        assert_eq!(
            solve(a, vec![1.0 * s, 2.0 * s]).unwrap_err(),
            SpiceError::SingularMatrix
        );
    }

    #[test]
    fn solutions_are_always_finite_or_err() {
        // Sweep the scale across ~40 decades of rank-deficient systems: the
        // solver must never return Ok with a non-finite entry.
        for exp in [-290, -250, -100, 0, 100, 250] {
            let s = 10f64.powi(exp);
            let mut a = Matrix::zeros(3, 3);
            a.set(0, 0, 1.0 * s);
            a.set(0, 1, 2.0 * s);
            a.set(0, 2, 3.0 * s);
            a.set(1, 0, 2.0 * s);
            a.set(1, 1, 4.0 * s);
            a.set(1, 2, 6.0 * s);
            a.set(2, 0, 0.5 * s);
            a.set(2, 1, 1.0 * s);
            a.set(2, 2, 1.5 * s);
            match solve(a, vec![s, s, s]) {
                Ok(x) => {
                    assert!(
                        x.iter().all(|v| v.is_finite()),
                        "non-finite solution at scale 1e{exp}: {x:?}"
                    );
                }
                Err(e) => assert_eq!(e, SpiceError::SingularMatrix),
            }
        }
    }

    #[test]
    fn tiny_but_well_conditioned_systems_still_solve() {
        // A uniformly tiny diagonal system is perfectly conditioned; a
        // relative tolerance must accept it even though every pivot is far
        // below the old absolute floor's neighbourhood.
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a.set(i, i, 1e-250);
        }
        let x = solve(a, vec![2e-250, 4e-250, 6e-250]).unwrap();
        for (i, expect) in [2.0, 4.0, 6.0].iter().enumerate() {
            assert!((x[i] - expect).abs() < 1e-9, "x = {x:?}");
        }
    }

    #[test]
    fn gmin_only_pivot_survives_relative_tolerance() {
        // A floating node held only by GMIN (1e-12) against unit-scale
        // voltage-source stamps is legitimate MNA structure, not singularity.
        let mut a = Matrix::zeros(3, 3);
        a.set(0, 0, 1e-3); // node 0: 1 kΩ to ground
        a.set(0, 2, 1.0); // vsrc current unknown
        a.set(1, 1, 1e-12); // node 1: GMIN only
        a.set(2, 0, 1.0); // vsrc row
        let x = solve(a, vec![0.0, 0.0, 1.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_zero_matrix_is_singular() {
        let a = Matrix::zeros(2, 2);
        assert_eq!(
            solve(a, vec![1.0, 1.0]).unwrap_err(),
            SpiceError::SingularMatrix
        );
    }

    #[test]
    fn residual_is_small_on_random_system() {
        use mss_units::rng::{Rng, Xoshiro256PlusPlus};
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        for n in [3usize, 8, 20] {
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a.set(r, c, rng.gen_range_f64(-1.0, 1.0));
                }
                // Diagonal dominance keeps it well-conditioned.
                a.add(r, r, n as f64);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
            let x = solve(a.clone(), b.clone()).unwrap();
            let ax = a.mul_vec(&x);
            for i in 0..n {
                assert!((ax[i] - b[i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn mul_vec_basic() {
        let mut a = Matrix::zeros(2, 3);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(0, 2, 3.0);
        a.set(1, 2, 4.0);
        let y = a.mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![6.0, 4.0]);
    }

    #[test]
    fn clear_keeps_dimensions() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 5.0);
        a.clear();
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.n_rows(), 2);
    }

    fn stamp(entries: &[(usize, usize, f64)], rhs: &[f64], ws: &mut Workspace) {
        ws.prepare(rhs.len());
        let (a, b) = ws.assembly_mut();
        for &(r, c, v) in entries {
            a.add(r, c, v);
        }
        b.copy_from_slice(rhs);
    }

    // NOTE: the `spice.solver.workspace_allocs` counter assertion lives in
    // `tests/workspace_allocs.rs` — the global obs registry is shared by
    // every test in a binary, so counter deltas are only meaningful in a
    // binary that owns the counter.
    #[test]
    fn workspace_reuse_solves_repeatedly() {
        let mut ws = Workspace::new();
        for _ in 0..10 {
            stamp(&[(0, 0, 2.0), (1, 1, 4.0)], &[2.0, 8.0], &mut ws);
            ws.solve().unwrap();
            assert_eq!(ws.solution(), &[1.0, 2.0]);
        }
    }

    #[test]
    fn prepare_clears_stale_state() {
        let mut ws = Workspace::new();
        stamp(&[(0, 0, 1.0), (1, 1, 1.0)], &[3.0, 4.0], &mut ws);
        ws.solve().unwrap();
        // Same dimension again: old matrix/rhs/x must not leak through.
        stamp(&[(0, 0, 2.0), (1, 1, 2.0)], &[2.0, 2.0], &mut ws);
        ws.solve().unwrap();
        assert_eq!(ws.solution(), &[1.0, 1.0]);
    }

    #[test]
    fn dimension_change_resizes() {
        let mut ws = Workspace::new();
        stamp(&[(0, 0, 1.0)], &[5.0], &mut ws);
        ws.solve().unwrap();
        assert_eq!(ws.solution(), &[5.0]);
        stamp(
            &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
            &[1.0, 2.0, 3.0],
            &mut ws,
        );
        ws.solve().unwrap();
        assert_eq!(ws.solution(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn singular_reported_through_workspace() {
        let mut ws = Workspace::new();
        stamp(
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)],
            &[1.0, 2.0],
            &mut ws,
        );
        assert_eq!(ws.solve().unwrap_err(), SpiceError::SingularMatrix);
    }
}
