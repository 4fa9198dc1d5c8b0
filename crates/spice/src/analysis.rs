//! DC operating-point and transient analyses.
//!
//! Both analyses assemble a Modified Nodal Analysis system: one unknown per
//! non-ground node voltage plus one branch current per voltage source.
//! Nonlinear devices (MOSFETs, MTJs) are handled by Newton iteration with
//! per-iteration linearised stamps; capacitors use backward-Euler companion
//! models in transient (A-stable, which matters for the stiff RC/MTJ decks
//! the characterisation flow produces).

use std::collections::HashMap;

use crate::error::RetryAttempt;
use crate::netlist::{Element, Netlist, NodeId};
use crate::solver::{Matrix, Workspace};
use crate::waveform::Waveform;
use crate::SpiceError;

/// Conductance from every node to ground, keeping floating nets solvable.
const GMIN: f64 = 1e-12;
/// Newton voltage tolerance (volts).
const VTOL: f64 = 1e-9;
/// Newton iteration cap.
const MAX_NEWTON: usize = 200;
/// Per-iteration clamp on voltage updates (volts) for Newton damping.
const VSTEP_MAX: f64 = 0.5;
/// Largest shunt conductance the gmin-stepping ladder starts from.
const GMIN_LADDER_START: f64 = 1e-3;
/// Source-stepping ladder resolution (number of alpha levels up to 1.0).
const SOURCE_LADDER_LEVELS: usize = 10;
/// Transient steps remembered for exact replay (see [`StepMemo`]). Settled
/// circuits repeat one step, and last-bit cycles have periods of 2 to 4.
const STEP_MEMO_SLOTS: usize = 4;

/// Convergence policy: how hard the solver tries before reporting failure.
///
/// Plain Newton runs first with `max_newton` iterations. If it fails to
/// converge the solver does **not** give up; it climbs a retry ladder:
///
/// - **DC** (and the transient `t = 0` init): *gmin stepping* — re-solve with
///   a large shunt conductance to ground (`1e-3` S) and relax it decade by
///   decade down to the nominal `GMIN`, warm-starting each level from the
///   previous solution; if that fails too, *source stepping* — ramp all
///   source values from 10% to 100% in ten homotopy steps,
/// - **transient steps**: *step rejection* — halve `dt` (exact for the
///   backward-Euler companion models used here) and advance in two half
///   steps, recursively, up to `max_step_halvings` levels deep.
///
/// Exhausted ladders return [`SpiceError::RetryLadderExhausted`] with the
/// full attempt history — never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverOptions {
    /// Newton iteration budget for the plain (first) attempt.
    pub(crate) max_newton: usize,
    /// Newton iteration budget per continuation level (gmin/source steps).
    pub(crate) ladder_newton: usize,
    /// Enables the DC retry ladder (gmin stepping, then source stepping)
    /// for DC-like solves.
    pub(crate) dc_ladder: bool,
    /// Maximum recursive `dt` halvings per transient step (0 = reject
    /// nothing).
    pub(crate) max_step_halvings: u32,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            max_newton: MAX_NEWTON,
            ladder_newton: MAX_NEWTON,
            dc_ladder: true,
            max_step_halvings: 6,
        }
    }
}

impl SolverOptions {
    /// Plain Newton only: any non-convergence is reported immediately with
    /// iteration count and final `max_dv` ([`SpiceError::NoConvergence`]).
    pub fn without_ladder() -> Self {
        Self {
            dc_ladder: false,
            max_step_halvings: 0,
            ..Self::default()
        }
    }

    /// Returns the options with a different plain-Newton budget.
    pub fn with_max_newton(mut self, n: usize) -> Self {
        self.max_newton = n.max(1);
        self
    }

    /// Returns the options with a different per-ladder-level budget.
    #[cfg(test)]
    pub(crate) fn with_ladder_newton(mut self, n: usize) -> Self {
        self.ladder_newton = n.max(1);
        self
    }

    /// Returns the options with a different halving depth.
    #[cfg(test)]
    pub(crate) fn with_max_step_halvings(mut self, n: u32) -> Self {
        self.max_step_halvings = n;
        self
    }
}

/// Continuation knobs of one Newton attempt: the shunt conductance stamped
/// to ground and the global scale applied to every source value.
#[derive(Debug, Clone, Copy)]
struct SolveKnobs {
    gmin: f64,
    source_scale: f64,
}

impl SolveKnobs {
    const NOMINAL: SolveKnobs = SolveKnobs {
        gmin: GMIN,
        source_scale: 1.0,
    };
}

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    node_names: Vec<String>,
    voltages: Vec<f64>,
    vsource_currents: HashMap<String, f64>,
}

impl DcSolution {
    /// Voltage at a named node.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when the node does not exist.
    pub fn node_voltage(&self, name: &str) -> Result<f64, SpiceError> {
        let key = name.to_ascii_lowercase();
        self.node_names
            .iter()
            .position(|n| *n == key)
            .map(|i| self.voltages[i])
            .ok_or(SpiceError::UnknownNode(key))
    }

    /// Branch current of a named voltage source (MNA convention: positive
    /// flowing from the `+` terminal through the source to `-`; a battery
    /// delivering power therefore reads negative).
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when no such source exists.
    pub fn source_current(&self, name: &str) -> Result<f64, SpiceError> {
        self.vsource_currents
            .get(name)
            .copied()
            .ok_or_else(|| SpiceError::UnknownNode(name.to_string()))
    }
}

/// Symbolic MNA structure shared by DC, transient and batched assembly:
/// the index mapping computed once per netlist *topology*. Holds only index
/// structure, never a borrow of the netlist, so the transient loop can
/// mutate MTJ states between steps and the batch path can re-stamp many
/// parameter vectors against one analysis.
pub(crate) struct Mna {
    n_nodes: usize,
    pub(crate) vsource_rows: Vec<(usize, usize)>, // (element index, mna row)
    has_nonlinear: bool,
}

impl Mna {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let n_nodes = netlist.node_count() - 1; // exclude ground
        let mut vsource_rows = Vec::new();
        let mut next = n_nodes;
        for (ei, e) in netlist.elements().iter().enumerate() {
            if matches!(e, Element::VSource { .. }) {
                vsource_rows.push((ei, next));
                next += 1;
            }
        }
        let has_nonlinear = netlist.elements().iter().any(|e| {
            matches!(
                e,
                Element::Mosfet { .. } | Element::Mtj { .. } | Element::MtjSot { .. }
            )
        });
        Self {
            n_nodes,
            vsource_rows,
            has_nonlinear,
        }
    }

    pub(crate) fn dim(&self) -> usize {
        self.n_nodes + self.vsource_rows.len()
    }

    fn node_idx(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.0 - 1)
        }
    }

    pub(crate) fn voltage(&self, x: &[f64], n: NodeId) -> f64 {
        match self.node_idx(n) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    fn stamp_conductance(&self, m: &mut Matrix, a: NodeId, b: NodeId, g: f64) {
        if let Some(ia) = self.node_idx(a) {
            m.add(ia, ia, g);
            if let Some(ib) = self.node_idx(b) {
                m.add(ia, ib, -g);
                m.add(ib, ia, -g);
                m.add(ib, ib, g);
            }
        } else if let Some(ib) = self.node_idx(b) {
            m.add(ib, ib, g);
        }
    }

    /// Injects current `i` into node `n` (adds to the RHS).
    fn inject(&self, rhs: &mut [f64], n: NodeId, i: f64) {
        if let Some(idx) = self.node_idx(n) {
            rhs[idx] += i;
        }
    }

    /// Assembles one Newton iteration into the workspace and solves it; the
    /// solution lands in [`Workspace::solution`].
    ///
    /// `t` selects source values; `cap_prev` holds previous-step voltages
    /// for the backward-Euler companions (`None` in DC: capacitors open).
    /// `x0` is the current Newton iterate — MTJ/MOSFET linearisations are
    /// read from it.
    #[allow(clippy::too_many_arguments)]
    fn assemble_and_solve(
        &self,
        netlist: &Netlist,
        t: f64,
        x0: &[f64],
        dt: Option<f64>,
        cap_prev: Option<&[f64]>,
        knobs: &SolveKnobs,
        ws: &mut Workspace,
    ) -> Result<(), SpiceError> {
        let dim = self.dim();
        ws.prepare(dim);
        let (m, rhs) = ws.assembly_mut();

        // gmin to ground on every node (the ladder may inflate it).
        for i in 0..self.n_nodes {
            m.add(i, i, knobs.gmin);
        }

        let mut vk = 0usize;
        for e in netlist.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    self.stamp_conductance(m, *a, *b, 1.0 / ohms);
                }
                Element::Capacitor { a, b, farads, .. } => {
                    if let (Some(dt), Some(prev)) = (dt, cap_prev) {
                        let geq = farads / dt;
                        self.stamp_conductance(m, *a, *b, geq);
                        let va = match self.node_idx(*a) {
                            Some(i) => prev[i],
                            None => 0.0,
                        };
                        let vb = match self.node_idx(*b) {
                            Some(i) => prev[i],
                            None => 0.0,
                        };
                        let ieq = geq * (va - vb);
                        self.inject(rhs, *a, ieq);
                        self.inject(rhs, *b, -ieq);
                    }
                    // DC: open circuit (gmin keeps nodes grounded).
                }
                Element::VSource {
                    plus, minus, wave, ..
                } => {
                    let row = self.vsource_rows[vk].1;
                    vk += 1;
                    if let Some(ip) = self.node_idx(*plus) {
                        m.add(ip, row, 1.0);
                        m.add(row, ip, 1.0);
                    }
                    if let Some(im) = self.node_idx(*minus) {
                        m.add(im, row, -1.0);
                        m.add(row, im, -1.0);
                    }
                    rhs[row] = knobs.source_scale * wave.eval(t);
                }
                Element::ISource {
                    plus, minus, wave, ..
                } => {
                    let i = knobs.source_scale * wave.eval(t);
                    self.inject(rhs, *plus, -i);
                    self.inject(rhs, *minus, i);
                }
                Element::Mosfet {
                    d,
                    g,
                    s,
                    model,
                    geom,
                    ..
                } => {
                    let vg = self.voltage(x0, *g);
                    let vd = self.voltage(x0, *d);
                    let vs = self.voltage(x0, *s);
                    let op = model.evaluate(geom, vg - vs, vd - vs);
                    // i_d = id0 + gm*(vgs - vgs0) + gds*(vds - vds0)
                    // Stamps: gds between d and s, VCCS gm from (g,s) into (d,s).
                    self.stamp_conductance(m, *d, *s, op.gds);
                    let (id_, ig, is_) = (self.node_idx(*d), self.node_idx(*g), self.node_idx(*s));
                    if let Some(di) = id_ {
                        if let Some(gi) = ig {
                            m.add(di, gi, op.gm);
                        }
                        if let Some(si) = is_ {
                            m.add(di, si, -op.gm);
                        }
                    }
                    if let Some(si) = is_ {
                        if let Some(gi) = ig {
                            m.add(si, gi, -op.gm);
                        }
                        m.add(si, si, op.gm);
                    }
                    let i0 = op.id - op.gm * (vg - vs) - op.gds * (vd - vs);
                    self.inject(rhs, *d, -i0);
                    self.inject(rhs, *s, i0);
                }
                Element::Mtj {
                    plus,
                    minus,
                    device,
                    ..
                } => {
                    let v = self.voltage(x0, *plus) - self.voltage(x0, *minus);
                    let (g, _) = device.linearize(v);
                    self.stamp_conductance(m, *plus, *minus, g);
                }
                Element::MtjSot {
                    read,
                    shared,
                    write,
                    channel_ohms,
                    device,
                    ..
                } => {
                    // Junction (read path): same chord-conductance
                    // linearisation as the two-terminal MTJ.
                    let v = self.voltage(x0, *read) - self.voltage(x0, *shared);
                    let (g, _) = device.linearize(v);
                    self.stamp_conductance(m, *read, *shared, g);
                    // Heavy-metal channel (write path): linear resistor.
                    self.stamp_conductance(m, *shared, *write, 1.0 / channel_ohms);
                }
            }
        }

        ws.solve()
    }

    /// Newton loop at time `t` with a bounded iteration budget, iterating
    /// in place on `x`: it holds the initial guess on entry and the solution
    /// on success (on failure, the last iterate).
    ///
    /// All linear solves run in the caller's workspace and the iterate is
    /// the caller's buffer, so a Newton call allocates nothing. Damping is
    /// applied in place on the iterate (values identical to the historic
    /// clone-and-clamp).
    ///
    /// Failure carries the iteration count and the final `max_dv` so the
    /// retry ladder (and the user) can see how close the iterate got.
    #[allow(clippy::too_many_arguments)]
    fn newton(
        &self,
        netlist: &Netlist,
        t: f64,
        x: &mut [f64],
        dt: Option<f64>,
        cap_prev: Option<&[f64]>,
        analysis: &'static str,
        knobs: &SolveKnobs,
        budget: usize,
        ws: &mut Workspace,
    ) -> Result<(), SpiceError> {
        if !self.has_nonlinear {
            self.assemble_and_solve(netlist, t, x, dt, cap_prev, knobs, ws)?;
            x.copy_from_slice(ws.solution());
            return Ok(());
        }
        mss_obs::counter_add("spice.newton.calls", 1);
        let budget = budget.max(1);
        let mut last_dv = f64::INFINITY;
        for iter in 0..budget {
            self.assemble_and_solve(netlist, t, x, dt, cap_prev, knobs, ws)?;
            let x_new = ws.solution();
            let mut max_dv: f64 = 0.0;
            for i in 0..x.len() {
                let dv = x_new[i] - x[i];
                if i < self.n_nodes {
                    max_dv = max_dv.max(dv.abs());
                    x[i] = if dv.abs() > VSTEP_MAX {
                        x[i] + dv.signum() * VSTEP_MAX
                    } else {
                        x_new[i]
                    };
                } else {
                    x[i] = x_new[i];
                }
            }
            let converged = max_dv < VTOL;
            last_dv = max_dv;
            if converged {
                mss_obs::counter_add("spice.newton.iterations", iter as u64 + 1);
                return Ok(());
            }
        }
        mss_obs::counter_add("spice.newton.iterations", budget as u64);
        mss_obs::counter_add("spice.newton.nonconverged", 1);
        Err(SpiceError::NoConvergence {
            analysis,
            time: if dt.is_some() { Some(t) } else { None },
            iterations: budget,
            max_dv: last_dv,
        })
    }

    /// DC-like solve with the full convergence retry ladder: plain Newton,
    /// then gmin stepping, then source stepping. Every attempt reuses the
    /// caller's workspace.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_static(
        &self,
        netlist: &Netlist,
        t: f64,
        x_init: &[f64],
        dt: Option<f64>,
        cap_prev: Option<&[f64]>,
        analysis: &'static str,
        opts: &SolverOptions,
        ws: &mut Workspace,
    ) -> Result<Vec<f64>, SpiceError> {
        let mut attempts = Vec::new();
        let mut x = x_init.to_vec();
        match self.newton(
            netlist,
            t,
            &mut x,
            dt,
            cap_prev,
            analysis,
            &SolveKnobs::NOMINAL,
            opts.max_newton,
            ws,
        ) {
            Ok(()) => return Ok(x),
            Err(e) => record_attempt(&mut attempts, "newton", e)?,
        }
        if opts.dc_ladder {
            if let Some(x) = self.gmin_ladder(
                netlist,
                t,
                x_init,
                dt,
                cap_prev,
                analysis,
                opts,
                &mut attempts,
                ws,
            )? {
                mss_obs::counter_add("spice.ladder.gmin_rescued", 1);
                return Ok(x);
            }
            if let Some(x) = self.source_ladder(
                netlist,
                t,
                x_init,
                dt,
                cap_prev,
                analysis,
                opts,
                &mut attempts,
                ws,
            )? {
                mss_obs::counter_add("spice.ladder.source_rescued", 1);
                return Ok(x);
            }
        }
        mss_obs::counter_add("spice.ladder.exhausted", 1);
        Err(exhausted(analysis, dt.map(|_| t), attempts))
    }

    /// Gmin stepping: inflate the universal shunt to `1e-3` S (which makes
    /// almost any circuit solvable), then relax it decade by decade back to
    /// the nominal `GMIN`, warm-starting each level from the last. Returns
    /// `Ok(None)` when a level fails (failure recorded in `attempts`).
    #[allow(clippy::too_many_arguments)]
    fn gmin_ladder(
        &self,
        netlist: &Netlist,
        t: f64,
        x_init: &[f64],
        dt: Option<f64>,
        cap_prev: Option<&[f64]>,
        analysis: &'static str,
        opts: &SolverOptions,
        attempts: &mut Vec<RetryAttempt>,
        ws: &mut Workspace,
    ) -> Result<Option<Vec<f64>>, SpiceError> {
        let mut x = x_init.to_vec();
        let mut gmin = GMIN_LADDER_START;
        while gmin > GMIN {
            // Attempt history for chaos/robustness runs: one count per
            // ladder level actually tried, win or lose.
            mss_obs::counter_add("spice.retry.gmin_steps", 1);
            let knobs = SolveKnobs {
                gmin,
                source_scale: 1.0,
            };
            if let Err(e) = self.newton(
                netlist,
                t,
                &mut x,
                dt,
                cap_prev,
                analysis,
                &knobs,
                opts.ladder_newton,
                ws,
            ) {
                record_attempt(attempts, &format!("gmin={gmin:.1e}"), e)?;
                return Ok(None);
            }
            gmin /= 10.0;
        }
        // Final solve at the nominal gmin seals the continuation.
        match self.newton(
            netlist,
            t,
            &mut x,
            dt,
            cap_prev,
            analysis,
            &SolveKnobs::NOMINAL,
            opts.ladder_newton,
            ws,
        ) {
            Ok(()) => Ok(Some(x)),
            Err(e) => {
                record_attempt(attempts, &format!("gmin={GMIN:.1e}"), e)?;
                Ok(None)
            }
        }
    }

    /// Source stepping: ramp every independent source from 10% to 100% of
    /// its value in equal homotopy steps, tracking the solution branch from
    /// the trivially solvable low-drive circuit. Returns `Ok(None)` when a
    /// level fails (failure recorded in `attempts`).
    #[allow(clippy::too_many_arguments)]
    fn source_ladder(
        &self,
        netlist: &Netlist,
        t: f64,
        x_init: &[f64],
        dt: Option<f64>,
        cap_prev: Option<&[f64]>,
        analysis: &'static str,
        opts: &SolverOptions,
        attempts: &mut Vec<RetryAttempt>,
        ws: &mut Workspace,
    ) -> Result<Option<Vec<f64>>, SpiceError> {
        let mut x = x_init.to_vec();
        for level in 1..=SOURCE_LADDER_LEVELS {
            mss_obs::counter_add("spice.retry.source_steps", 1);
            let alpha = level as f64 / SOURCE_LADDER_LEVELS as f64;
            let knobs = SolveKnobs {
                gmin: GMIN,
                source_scale: alpha,
            };
            if let Err(e) = self.newton(
                netlist,
                t,
                &mut x,
                dt,
                cap_prev,
                analysis,
                &knobs,
                opts.ladder_newton,
                ws,
            ) {
                record_attempt(attempts, &format!("source-alpha={alpha:.2}"), e)?;
                return Ok(None);
            }
        }
        Ok(Some(x))
    }

    /// Advances one transient step from `x_start` into `x` with step
    /// rejection: on non-convergence the step is halved (exact for the
    /// backward-Euler companions) and retried as two half steps, recursively
    /// up to [`SolverOptions::max_step_halvings`] levels. Only a halving
    /// allocates (the midpoint buffer).
    #[allow(clippy::too_many_arguments)]
    fn advance_step(
        &self,
        netlist: &Netlist,
        t_end: f64,
        dt: f64,
        x_start: &[f64],
        x: &mut [f64],
        depth: u32,
        opts: &SolverOptions,
        attempts: &mut Vec<RetryAttempt>,
        ws: &mut Workspace,
    ) -> Result<(), SpiceError> {
        x.copy_from_slice(x_start);
        match self.newton(
            netlist,
            t_end,
            x,
            Some(dt),
            Some(x_start),
            "transient",
            &SolveKnobs::NOMINAL,
            opts.max_newton,
            ws,
        ) {
            Ok(()) => Ok(()),
            Err(e) => {
                record_attempt(attempts, &format!("dt={dt:.2e}"), e)?;
                if depth >= opts.max_step_halvings {
                    mss_obs::counter_add("spice.ladder.exhausted", 1);
                    return Err(exhausted(
                        "transient",
                        Some(t_end),
                        std::mem::take(attempts),
                    ));
                }
                mss_obs::counter_add("spice.ladder.step_halvings", 1);
                mss_obs::counter_add("spice.retry.step_halvings", 1);
                let half = dt / 2.0;
                let mut x_mid = vec![0.0; x.len()];
                self.advance_step(
                    netlist,
                    t_end - half,
                    half,
                    x_start,
                    &mut x_mid,
                    depth + 1,
                    opts,
                    attempts,
                    ws,
                )?;
                self.advance_step(
                    netlist,
                    t_end,
                    half,
                    &x_mid,
                    x,
                    depth + 1,
                    opts,
                    attempts,
                    ws,
                )
            }
        }
    }
}

/// Builds the terminal error of a failed solve: a single attempt reports as
/// plain (enriched) non-convergence, a real ladder reports its full history.
fn exhausted(
    analysis: &'static str,
    time: Option<f64>,
    mut attempts: Vec<RetryAttempt>,
) -> SpiceError {
    if attempts.len() == 1 {
        let a = attempts.remove(0);
        SpiceError::NoConvergence {
            analysis,
            time,
            iterations: a.iterations,
            max_dv: a.max_dv,
        }
    } else {
        SpiceError::RetryLadderExhausted {
            analysis,
            time,
            attempts,
        }
    }
}

/// Folds a Newton failure into the retry history; anything other than
/// non-convergence (e.g. a singular matrix) aborts the ladder immediately.
fn record_attempt(
    attempts: &mut Vec<RetryAttempt>,
    strategy: &str,
    e: SpiceError,
) -> Result<(), SpiceError> {
    match e {
        SpiceError::NoConvergence {
            iterations, max_dv, ..
        } => {
            attempts.push(RetryAttempt {
                strategy: strategy.to_string(),
                iterations,
                max_dv,
            });
            Ok(())
        }
        other => Err(other),
    }
}

/// Computes the DC operating point with sources at their `t = 0` values and
/// capacitors open, using the default convergence retry ladder.
///
/// # Errors
///
/// Propagates singular-matrix failures; convergence failures surface only
/// after the full gmin/source-stepping ladder is exhausted.
pub fn dc_operating_point(netlist: &Netlist) -> Result<DcSolution, SpiceError> {
    dc_operating_point_with(netlist, &SolverOptions::default())
}

/// [`dc_operating_point`] with an explicit convergence policy.
///
/// # Errors
///
/// [`SpiceError::NoConvergence`] when the ladder is disabled and plain
/// Newton fails; [`SpiceError::RetryLadderExhausted`] when every enabled
/// stage fails; singular-matrix failures propagate immediately.
pub fn dc_operating_point_with(
    netlist: &Netlist,
    solver: &SolverOptions,
) -> Result<DcSolution, SpiceError> {
    let _span = mss_obs::span("spice.dc");
    let mna = Mna::new(netlist);
    let mut ws = Workspace::new();
    let x0 = vec![0.0; mna.dim()];
    let x = mna.solve_static(
        netlist,
        0.0,
        &x0,
        None,
        None,
        "dc operating point",
        solver,
        &mut ws,
    )?;
    Ok(package_dc(netlist, &mna, &x))
}

fn package_dc(netlist: &Netlist, mna: &Mna, x: &[f64]) -> DcSolution {
    let mut node_names = Vec::with_capacity(netlist.node_count());
    let mut voltages = Vec::with_capacity(netlist.node_count());
    for i in 0..netlist.node_count() {
        node_names.push(netlist.node_name(NodeId(i)).to_string());
        voltages.push(if i == 0 { 0.0 } else { x[i - 1] });
    }
    let mut vsource_currents = HashMap::new();
    for (ei, row) in &mna.vsource_rows {
        if let Element::VSource { name, .. } = &netlist.elements()[*ei] {
            vsource_currents.insert(name.clone(), x[*row]);
        }
    }
    DcSolution {
        node_names,
        voltages,
        vsource_currents,
    }
}

/// Options for a fixed-step transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Time step in seconds.
    pub(crate) dt: f64,
    /// Stop time in seconds.
    pub(crate) t_stop: f64,
    /// Convergence policy (retry ladder on by default).
    pub(crate) solver: SolverOptions,
}

impl TransientOptions {
    /// Creates options with the given step and stop time, and the default
    /// convergence retry ladder.
    ///
    /// # Panics
    ///
    /// Panics if either value is non-positive or `t_stop < dt`.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        assert!(
            dt > 0.0 && t_stop > 0.0 && t_stop >= dt,
            "bad transient window"
        );
        Self {
            dt,
            t_stop,
            solver: SolverOptions::default(),
        }
    }

    /// Returns the options with an explicit convergence policy.
    #[cfg(test)]
    pub(crate) fn with_solver(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }
}

/// An MTJ state-change event observed during transient.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchEvent {
    /// Simulation time of the flip, seconds.
    pub time: f64,
    /// MTJ instance name.
    pub(crate) element: String,
    /// `+1` for parallel, `-1` for antiparallel after the flip.
    pub(crate) new_state_cos: f64,
}

/// Transient simulation engine.
#[derive(Debug, Clone)]
pub struct Transient {
    netlist: Netlist,
}

impl Transient {
    /// Prepares a transient analysis for a netlist (cloned internally so the
    /// caller's MTJ initial states are preserved across runs).
    pub fn new(netlist: &Netlist) -> Self {
        Self {
            netlist: netlist.clone(),
        }
    }

    /// Runs the transient and returns recorded waveforms.
    ///
    /// # Errors
    ///
    /// Propagates Newton non-convergence and singular-matrix failures with
    /// the failing time point attached.
    pub fn run(&self, opts: &TransientOptions) -> Result<TransientResult, SpiceError> {
        let _span = mss_obs::span("spice.transient");
        let mut memo = StepMemo::new(STEP_MEMO_SLOTS);
        let result = self.run_with_memo(opts, &mut memo);
        mss_obs::counter_add("spice.transient.replayed_steps", memo.replayed);
        result
    }

    /// The step loop behind [`run`](Self::run), replaying steps from `memo`
    /// (a memo of no slots solves every step).
    fn run_with_memo(
        &self,
        opts: &TransientOptions,
        memo: &mut StepMemo,
    ) -> Result<TransientResult, SpiceError> {
        let mut netlist = self.netlist.clone();
        let mna = Mna::new(&netlist);
        let steps = (opts.t_stop / opts.dt).round() as usize;
        mss_obs::counter_add("spice.transient.steps", steps as u64);

        // One workspace for the whole run: the DC init, every step and
        // every retry-ladder re-solve share it, so a transient performs
        // O(1) matrix allocations regardless of step count.
        let mut ws = Workspace::new();

        // t = 0: DC operating point (capacitors open), full retry ladder.
        let mut x = mna.solve_static(
            &netlist,
            0.0,
            &vec![0.0; mna.dim()],
            None,
            None,
            "transient dc init",
            &opts.solver,
            &mut ws,
        )?;

        let node_names: Vec<String> = (0..netlist.node_count())
            .map(|i| netlist.node_name(NodeId(i)).to_string())
            .collect();
        let vsource_names: Vec<String> = netlist
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VSource { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        let vsource_nodes: Vec<(usize, usize)> = netlist
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VSource { plus, minus, .. } => Some((plus.0, minus.0)),
                _ => None,
            })
            .collect();
        let mtj_indices: Vec<usize> = netlist
            .elements()
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                matches!(e, Element::Mtj { .. } | Element::MtjSot { .. }).then_some(i)
            })
            .collect();
        let mtj_names: Vec<String> = mtj_indices
            .iter()
            .map(|&i| netlist.elements()[i].name().to_string())
            .collect();

        // One full-length buffer per trace (`vec![v; n]` would clone `v`,
        // and a clone keeps the length, not the capacity).
        let traces =
            |n: usize| -> Vec<Vec<f64>> { (0..n).map(|_| Vec::with_capacity(steps + 1)).collect() };
        let mut result = TransientResult {
            times: Vec::with_capacity(steps + 1),
            node_names,
            voltages: traces(netlist.node_count()),
            vsource_names,
            vsource_nodes,
            currents: traces(mna.vsource_rows.len()),
            mtj_names,
            mtj_cos: traces(mtj_indices.len()),
            events: Vec::new(),
        };
        record(&mut result, &mna, &netlist, &mtj_indices, 0.0, &x);

        // Every source's value at the previous time point: the memo holds
        // only while all of them repeat bit for bit.
        let waves: Vec<Waveform> = netlist
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VSource { wave, .. } | Element::ISource { wave, .. } => Some(wave.clone()),
                _ => None,
            })
            .collect();
        let mut levels: Vec<f64> = waves.iter().map(|w| w.eval(0.0)).collect();
        memo.prepare(x.len());

        // Two solution buffers, swapped each step: the step solves from
        // `prev` into `x` without allocating.
        let mut prev = vec![0.0; x.len()];
        for k in 1..=steps {
            let t = k as f64 * opts.dt;
            std::mem::swap(&mut x, &mut prev);
            let mut held = true;
            for (level, wave) in levels.iter_mut().zip(&waves) {
                let v = wave.eval(t);
                held &= v.to_bits() == level.to_bits();
                *level = v;
            }
            if !held {
                memo.clear();
            }
            if !memo.replay(&prev, &mut x) {
                let mut attempts = Vec::new();
                mna.advance_step(
                    &netlist,
                    t,
                    opts.dt,
                    &prev,
                    &mut x,
                    0,
                    &opts.solver,
                    &mut attempts,
                    &mut ws,
                )?;
                // A halved step also read the sources between the time
                // points, which the memo does not check.
                if attempts.is_empty() {
                    memo.store(&prev, &x);
                }
            }

            // Advance MTJ states with the solved currents.
            let mut events = Vec::new();
            {
                let elements = netlist.elements_mut();
                for &ei in &mtj_indices {
                    match &mut elements[ei] {
                        Element::Mtj {
                            name,
                            plus,
                            minus,
                            device,
                        } => {
                            let v = mna_voltage(&mna, &x, *plus) - mna_voltage(&mna, &x, *minus);
                            let i = v / device.resistance(v);
                            if device.advance(i, opts.dt) {
                                events.push(SwitchEvent {
                                    time: t,
                                    element: name.clone(),
                                    new_state_cos: device.state().cos_angle(),
                                });
                            }
                        }
                        Element::MtjSot {
                            name,
                            shared,
                            write,
                            channel_ohms,
                            device,
                            ..
                        } => {
                            // SOT: switching progress integrates against the
                            // heavy-metal channel current, not the junction
                            // current.
                            let v_ch =
                                mna_voltage(&mna, &x, *shared) - mna_voltage(&mna, &x, *write);
                            let i_ch = v_ch / *channel_ohms;
                            if device.advance(i_ch, opts.dt) {
                                events.push(SwitchEvent {
                                    time: t,
                                    element: name.clone(),
                                    new_state_cos: device.state().cos_angle(),
                                });
                            }
                        }
                        _ => unreachable!("mtj_indices only holds MTJ variants"),
                    }
                }
            }
            // A flipped junction changes the stamps of every later step.
            if !events.is_empty() {
                memo.clear();
            }
            result.events.extend(events);
            record(&mut result, &mna, &netlist, &mtj_indices, t, &x);
        }
        Ok(result)
    }
}

/// The last few transient steps that converged at full `dt`, as
/// `(x_start, x)` pairs in a ring allocated once per run.
///
/// A fixed-step transient step is a pure function of its start vector
/// (which is also the capacitor history), every source's value at `t`, `dt`
/// and every MTJ's state; switching progress is never stamped. Within a run
/// `dt` is fixed, and the ring is cleared whenever a source value or an MTJ
/// state changes, so a step whose start vector matches a stored one bit for
/// bit has that entry's solution bit for bit.
struct StepMemo {
    slots: usize,
    dim: usize,
    /// `slots` pairs, each `x_start` then `x`, `2 * dim` values per pair.
    pairs: Vec<f64>,
    len: usize,
    next: usize,
    /// Steps answered from the ring.
    replayed: u64,
}

impl StepMemo {
    fn new(slots: usize) -> Self {
        Self {
            slots,
            dim: 0,
            pairs: Vec::new(),
            len: 0,
            next: 0,
            replayed: 0,
        }
    }

    /// Sizes the ring for a system of `dim` unknowns, empty.
    fn prepare(&mut self, dim: usize) {
        self.dim = dim;
        self.pairs = vec![0.0; 2 * dim * self.slots];
        self.clear();
    }

    fn clear(&mut self) {
        self.len = 0;
        self.next = 0;
    }

    /// Writes the stored solution of a step that started bit for bit at
    /// `x_start` into `x`, searching the newest entry first; false when no
    /// entry matches.
    fn replay(&mut self, x_start: &[f64], x: &mut [f64]) -> bool {
        let dim = self.dim;
        let hit = (1..=self.len).find_map(|back| {
            let slot = (self.next + self.slots - back) % self.slots;
            let (key, value) = self.pairs[2 * dim * slot..][..2 * dim].split_at(dim);
            key.iter()
                .zip(x_start)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                .then_some(value)
        });
        match hit {
            Some(value) => {
                x.copy_from_slice(value);
                self.replayed += 1;
                true
            }
            None => false,
        }
    }

    /// Stores a step, overwriting the oldest entry once the ring is full.
    fn store(&mut self, x_start: &[f64], x: &[f64]) {
        if self.slots == 0 {
            return;
        }
        let pair = &mut self.pairs[2 * self.dim * self.next..][..2 * self.dim];
        pair[..self.dim].copy_from_slice(x_start);
        pair[self.dim..].copy_from_slice(x);
        self.next = (self.next + 1) % self.slots;
        self.len = (self.len + 1).min(self.slots);
    }
}

fn mna_voltage(mna: &Mna, x: &[f64], n: NodeId) -> f64 {
    mna.voltage(x, n)
}

fn record(
    result: &mut TransientResult,
    mna: &Mna,
    netlist: &Netlist,
    mtj_indices: &[usize],
    t: f64,
    x: &[f64],
) {
    result.times.push(t);
    for i in 0..netlist.node_count() {
        let v = if i == 0 { 0.0 } else { x[i - 1] };
        result.voltages[i].push(v);
    }
    for (slot, (_, row)) in mna.vsource_rows.iter().enumerate() {
        result.currents[slot].push(x[*row]);
    }
    for (slot, &ei) in mtj_indices.iter().enumerate() {
        if let Element::Mtj { device, .. } | Element::MtjSot { device, .. } =
            &netlist.elements()[ei]
        {
            result.mtj_cos[slot].push(device.state().cos_angle());
        }
    }
}

/// Recorded transient waveforms.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    node_names: Vec<String>,
    voltages: Vec<Vec<f64>>,
    vsource_names: Vec<String>,
    vsource_nodes: Vec<(usize, usize)>,
    currents: Vec<Vec<f64>>,
    mtj_names: Vec<String>,
    mtj_cos: Vec<Vec<f64>>,
    events: Vec<SwitchEvent>,
}

impl TransientResult {
    /// Time points in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Voltage waveform of a named node.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when the node does not exist.
    pub fn node_voltage(&self, name: &str) -> Result<&[f64], SpiceError> {
        let key = name.to_ascii_lowercase();
        self.node_names
            .iter()
            .position(|n| *n == key)
            .map(|i| self.voltages[i].as_slice())
            .ok_or(SpiceError::UnknownNode(key))
    }

    /// Branch-current waveform of a voltage source (MNA sign convention:
    /// a source delivering power reads negative).
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when no such source exists.
    pub fn source_current(&self, name: &str) -> Result<&[f64], SpiceError> {
        self.vsource_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.currents[i].as_slice())
            .ok_or_else(|| SpiceError::UnknownNode(name.to_string()))
    }

    /// Terminal voltage waveform (`v_plus − v_minus`) of a voltage source.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when no such source exists.
    pub(crate) fn source_voltage(&self, name: &str) -> Result<Vec<f64>, SpiceError> {
        let idx = self
            .vsource_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SpiceError::UnknownNode(name.to_string()))?;
        let (p, m) = self.vsource_nodes[idx];
        Ok(self.voltages[p]
            .iter()
            .zip(&self.voltages[m])
            .map(|(a, b)| a - b)
            .collect())
    }

    /// MTJ state trace (`+1` parallel / `-1` antiparallel per time point).
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when no such MTJ exists.
    pub(crate) fn mtj_state(&self, name: &str) -> Result<&[f64], SpiceError> {
        self.mtj_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.mtj_cos[i].as_slice())
            .ok_or_else(|| SpiceError::UnknownNode(name.to_string()))
    }

    /// MTJ switching events in time order.
    pub fn events(&self) -> &[SwitchEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{MosGeometry, MosModel};
    use crate::waveform::Waveform;
    use mss_mtj::resistance::MtjState;
    use mss_mtj::MssStack;

    #[test]
    fn resistor_divider_dc() {
        let mut nl = Netlist::new();
        nl.add_vsource("v1", "in", "0", Waveform::dc(2.0)).unwrap();
        nl.add_resistor("r1", "in", "mid", 1e3).unwrap();
        nl.add_resistor("r2", "mid", "0", 1e3).unwrap();
        let dc = dc_operating_point(&nl).unwrap();
        assert!((dc.node_voltage("mid").unwrap() - 1.0).abs() < 1e-6);
        // Source current: 2V across 2k -> 1 mA, negative by MNA convention.
        assert!((dc.source_current("v1").unwrap() + 1e-3).abs() < 1e-6);
    }

    #[test]
    fn kcl_holds_on_rc_ladder() {
        let mut nl = Netlist::new();
        nl.add_vsource("v1", "n1", "0", Waveform::dc(1.0)).unwrap();
        for i in 1..5 {
            nl.add_resistor(
                &format!("r{i}"),
                &format!("n{i}"),
                &format!("n{}", i + 1),
                1e3,
            )
            .unwrap();
        }
        nl.add_resistor("rend", "n5", "0", 1e3).unwrap();
        let dc = dc_operating_point(&nl).unwrap();
        // Voltages decrease monotonically down the ladder.
        let mut last = dc.node_voltage("n1").unwrap();
        for i in 2..=5 {
            let v = dc.node_voltage(&format!("n{i}")).unwrap();
            assert!(v < last);
            last = v;
        }
    }

    #[test]
    fn rc_transient_time_constant() {
        let mut nl = Netlist::new();
        nl.add_vsource("vin", "in", "0", Waveform::dc(1.0)).unwrap();
        nl.add_resistor("r1", "in", "out", 1e3).unwrap();
        nl.add_capacitor("c1", "out", "0", 1e-12).unwrap();
        // tau = 1 ns. (DC init starts the cap at its operating point = 1 V,
        // so drive with a pulse instead to see the charge-up.)
        let mut nl2 = Netlist::new();
        nl2.add_vsource(
            "vin",
            "in",
            "0",
            Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 0.0),
        )
        .unwrap();
        nl2.add_resistor("r1", "in", "out", 1e3).unwrap();
        nl2.add_capacitor("c1", "out", "0", 1e-12).unwrap();
        let res = Transient::new(&nl2)
            .run(&TransientOptions::new(1e-12, 5e-9))
            .unwrap();
        let v = res.node_voltage("out").unwrap();
        let t = res.times();
        // Value at t = tau should be ~63.2%.
        let idx = t.iter().position(|&tt| tt >= 1e-9).unwrap();
        assert!(
            (v[idx] - 0.632).abs() < 0.02,
            "v(tau) = {} (backward Euler tolerance)",
            v[idx]
        );
        drop(nl);
    }

    #[test]
    fn nmos_inverter_dc_transfer() {
        // NMOS with resistive pull-up: in=0 -> out high; in=Vdd -> out low.
        let build = |vin: f64| {
            let mut nl = Netlist::new();
            nl.add_vsource("vdd", "vdd", "0", Waveform::dc(1.0))
                .unwrap();
            nl.add_vsource("vin", "in", "0", Waveform::dc(vin)).unwrap();
            nl.add_resistor("rl", "vdd", "out", 10e3).unwrap();
            nl.add_mosfet(
                "m1",
                "out",
                "in",
                "0",
                MosModel::generic_nmos(),
                MosGeometry {
                    width: 1e-6,
                    length: 100e-9,
                },
            )
            .unwrap();
            nl
        };
        let low = dc_operating_point(&build(0.0)).unwrap();
        assert!(low.node_voltage("out").unwrap() > 0.95);
        let high = dc_operating_point(&build(1.0)).unwrap();
        assert!(high.node_voltage("out").unwrap() < 0.2);
    }

    #[test]
    fn isource_into_resistor() {
        let mut nl = Netlist::new();
        // 1 mA drawn from ground, pushed into node a: v(a) = i*R = 1 V.
        nl.add_isource("i1", "0", "a", Waveform::dc(1e-3)).unwrap();
        nl.add_resistor("r1", "a", "0", 1e3).unwrap();
        let dc = dc_operating_point(&nl).unwrap();
        assert!((dc.node_voltage("a").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mtj_write_pulse_switches_state() {
        let stack = MssStack::builder().build().unwrap();
        let ic0 = stack.critical_current();
        let r_ap = stack.resistance_antiparallel();
        // Voltage needed for ~2.5x overdrive through the AP state.
        let v_write = 2.5 * ic0 * r_ap;
        let mut nl = Netlist::new();
        nl.add_vsource(
            "vw",
            "top",
            "0",
            Waveform::pulse(0.0, v_write, 1e-9, 0.05e-9, 0.05e-9, 40e-9, 0.0),
        )
        .unwrap();
        nl.add_mtj("x1", "top", "0", &stack, MtjState::Antiparallel)
            .unwrap();
        let res = Transient::new(&nl)
            .run(&TransientOptions::new(0.02e-9, 50e-9))
            .unwrap();
        assert_eq!(res.events().len(), 1, "expected exactly one switch event");
        let trace = res.mtj_state("x1").unwrap();
        assert_eq!(trace[0], -1.0);
        assert_eq!(*trace.last().unwrap(), 1.0);
        // The switch happens after the pulse starts.
        assert!(res.events()[0].time > 1e-9);
    }

    #[test]
    fn mtj_read_pulse_does_not_switch() {
        let stack = MssStack::builder().build().unwrap();
        let v_read = 0.1; // well below write voltages
        let mut nl = Netlist::new();
        nl.add_vsource("vr", "top", "0", Waveform::dc(v_read))
            .unwrap();
        nl.add_mtj("x1", "top", "0", &stack, MtjState::Antiparallel)
            .unwrap();
        let res = Transient::new(&nl)
            .run(&TransientOptions::new(0.05e-9, 20e-9))
            .unwrap();
        assert!(res.events().is_empty());
        assert_eq!(*res.mtj_state("x1").unwrap().last().unwrap(), -1.0);
    }

    #[test]
    fn sot_channel_pulse_switches_state() {
        use mss_mtj::mechanism::{SotMechanism, SotParams};
        let stack = MssStack::builder().build().unwrap();
        let params = SotParams::default();
        let sot = SotMechanism::new(&stack, params.clone()).unwrap();
        // 2.5x and 1.5x overdrive through the heavy-metal channel.
        for overdrive in [2.5, 1.5] {
            let v_write =
                overdrive * sot.switching_model().critical_current() * sot.channel_resistance();
            let mut nl = Netlist::new();
            nl.add_vsource(
                "vw",
                "sh",
                "0",
                Waveform::pulse(0.0, v_write, 1e-9, 0.05e-9, 0.05e-9, 2e-9, 0.0),
            )
            .unwrap();
            nl.add_mtj_sot(
                "x1",
                "rd",
                "sh",
                "0",
                &stack,
                &params,
                MtjState::Antiparallel,
            )
            .unwrap();
            let res = Transient::new(&nl)
                .run(&TransientOptions::new(0.005e-9, 4e-9))
                .unwrap();
            assert_eq!(res.events().len(), 1, "{overdrive}x: one switch event");
            let trace = res.mtj_state("x1").unwrap();
            assert_eq!(trace[0], -1.0);
            assert_eq!(*trace.last().unwrap(), 1.0);
            // SOT switches fast: well inside the 2 ns pulse.
            let t = res.events()[0].time;
            assert!(t > 1e-9 && t < 2e-9, "{overdrive}x: switched at {t:.3e} s");
        }
    }

    #[test]
    fn sot_read_path_does_not_disturb_state() {
        use mss_mtj::mechanism::SotParams;
        let stack = MssStack::builder().build().unwrap();
        // Bias the junction read path; the write channel stays idle, so no
        // channel current flows and the state must hold even though the
        // junction current would exceed the (tiny) SOT critical current.
        let mut nl = Netlist::new();
        nl.add_vsource("vr", "rd", "0", Waveform::dc(0.3)).unwrap();
        nl.add_mtj_sot(
            "x1",
            "rd",
            "sh",
            "sh",
            &stack,
            &SotParams::default(),
            MtjState::Antiparallel,
        )
        .unwrap();
        nl.add_resistor("rterm", "sh", "0", 1.0e3).unwrap();
        let res = Transient::new(&nl)
            .run(&TransientOptions::new(0.05e-9, 5e-9))
            .unwrap();
        assert!(res.events().is_empty());
        assert_eq!(*res.mtj_state("x1").unwrap().last().unwrap(), -1.0);
    }

    #[test]
    fn sot_dc_read_sees_tmr_resistance() {
        use mss_mtj::mechanism::SotParams;
        let stack = MssStack::builder().build().unwrap();
        let params = SotParams::default();
        let read = |state: MtjState| {
            let mut nl = Netlist::new();
            nl.add_vsource("vr", "bl", "0", Waveform::dc(0.1)).unwrap();
            nl.add_resistor("rs", "bl", "rd", 3.0e3).unwrap();
            nl.add_mtj_sot("x1", "rd", "sh", "sh", &stack, &params, state)
                .unwrap();
            nl.add_resistor("rgnd", "sh", "0", 1.0).unwrap();
            let dc = dc_operating_point(&nl).unwrap();
            dc.node_voltage("rd").unwrap()
        };
        // AP reads a larger junction resistance -> higher divider tap.
        assert!(read(MtjState::Antiparallel) > read(MtjState::Parallel) + 1e-3);
    }

    #[test]
    fn floating_node_is_not_singular() {
        let mut nl = Netlist::new();
        nl.add_vsource("v1", "a", "0", Waveform::dc(1.0)).unwrap();
        nl.add_resistor("r1", "a", "b", 1e3).unwrap();
        // "c" floats entirely (capacitor only).
        nl.add_capacitor("c1", "b", "c", 1e-15).unwrap();
        let dc = dc_operating_point(&nl).unwrap();
        assert!(dc.node_voltage("c").unwrap().abs() < 1e-3);
    }

    #[test]
    fn unknown_probe_names_error() {
        let mut nl = Netlist::new();
        nl.add_vsource("v1", "a", "0", Waveform::dc(1.0)).unwrap();
        nl.add_resistor("r1", "a", "0", 1.0e3).unwrap();
        let res = Transient::new(&nl)
            .run(&TransientOptions::new(1e-10, 1e-9))
            .unwrap();
        assert!(res.node_voltage("zz").is_err());
        assert!(res.source_current("vxx").is_err());
        assert!(res.mtj_state("none").is_err());
    }

    #[test]
    #[should_panic(expected = "bad transient window")]
    fn bad_options_panic() {
        let _ = TransientOptions::new(0.0, 1.0);
    }

    /// An NMOS inverter chain that damped Newton cannot settle from a cold
    /// start inside a tiny iteration budget.
    fn stiff_inverter(vin: f64) -> Netlist {
        let mut nl = Netlist::new();
        nl.add_vsource("vdd", "vdd", "0", Waveform::dc(1.0))
            .unwrap();
        nl.add_vsource("vin", "in", "0", Waveform::dc(vin)).unwrap();
        nl.add_resistor("rl", "vdd", "out", 10e3).unwrap();
        nl.add_mosfet(
            "m1",
            "out",
            "in",
            "0",
            MosModel::generic_nmos(),
            MosGeometry {
                width: 1e-6,
                length: 100e-9,
            },
        )
        .unwrap();
        nl
    }

    #[test]
    fn dc_ladder_rescues_a_starved_newton() {
        let nl = stiff_inverter(0.0);
        // Plain Newton with a 1-iteration budget cannot converge...
        let strict = SolverOptions::without_ladder().with_max_newton(1);
        let err = dc_operating_point_with(&nl, &strict).expect_err("must fail");
        match err {
            SpiceError::NoConvergence {
                analysis,
                time,
                iterations,
                max_dv,
            } => {
                assert_eq!(analysis, "dc operating point");
                assert_eq!(time, None);
                assert_eq!(iterations, 1);
                assert!(max_dv > VTOL, "final max_dv {max_dv} must be reported");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
        // ...but the gmin/source ladder converges it to the right answer.
        let robust = SolverOptions::default().with_max_newton(1);
        let dc = dc_operating_point_with(&nl, &robust).unwrap();
        assert!(dc.node_voltage("out").unwrap() > 0.95);
    }

    #[test]
    fn exhausted_dc_ladder_reports_full_history() {
        let nl = stiff_inverter(1.0);
        // Starve every stage: 1 Newton iteration everywhere.
        let opts = SolverOptions::default()
            .with_max_newton(1)
            .with_ladder_newton(1);
        let err = dc_operating_point_with(&nl, &opts).expect_err("must exhaust");
        match err {
            SpiceError::RetryLadderExhausted {
                analysis,
                time,
                attempts,
            } => {
                assert_eq!(analysis, "dc operating point");
                assert_eq!(time, None);
                // Plain Newton + first gmin level + first source level.
                assert_eq!(attempts.len(), 3);
                assert_eq!(attempts[0].strategy, "newton");
                assert!(attempts[1].strategy.starts_with("gmin="));
                assert!(attempts[2].strategy.starts_with("source-alpha="));
                for a in &attempts {
                    assert_eq!(a.iterations, 1);
                    assert!(a.max_dv > VTOL);
                }
            }
            other => panic!("expected RetryLadderExhausted, got {other:?}"),
        }
    }

    /// A transient deck whose input step overwhelms a starved Newton budget
    /// at full `dt` but settles once the step is halved; `load` is the
    /// output capacitance.
    fn stepping_deck(load: f64) -> Netlist {
        let mut nl = Netlist::new();
        nl.add_vsource("vdd", "vdd", "0", Waveform::dc(1.0))
            .unwrap();
        nl.add_vsource(
            "vin",
            "in",
            "0",
            // 0 -> 1 V edge with a 0.2 ns ramp.
            Waveform::pulse(0.0, 1.0, 1e-9, 2e-10, 2e-10, 5e-9, 0.0),
        )
        .unwrap();
        nl.add_resistor("rl", "vdd", "out", 10e3).unwrap();
        nl.add_capacitor("cl", "out", "0", load).unwrap();
        nl.add_mosfet(
            "m1",
            "out",
            "in",
            "0",
            MosModel::generic_nmos(),
            MosGeometry {
                width: 1e-6,
                length: 100e-9,
            },
        )
        .unwrap();
        nl
    }

    #[test]
    fn transient_step_rejection_rescues_coarse_steps() {
        let nl = stepping_deck(5e-15);
        // A large step across the input edge with a tiny Newton budget: the
        // DC init is fine (input still 0 V), but the edge step needs help.
        let starved = SolverOptions::default()
            .with_max_newton(4)
            .with_ladder_newton(MAX_NEWTON);
        let no_reject =
            TransientOptions::new(4e-10, 3e-9).with_solver(starved.with_max_step_halvings(0));
        let err = Transient::new(&nl).run(&no_reject);
        assert!(err.is_err(), "coarse steps must fail without rejection");
        // With step rejection enabled the same budget completes, and the
        // output settles low after the edge.
        let rejecting =
            TransientOptions::new(4e-10, 3e-9).with_solver(starved.with_max_step_halvings(8));
        let res = Transient::new(&nl).run(&rejecting).unwrap();
        let out = res.node_voltage("out").unwrap();
        assert!(*out.last().unwrap() < 0.2, "inverter must pull low");
        assert!(out[0] > 0.95, "inverter starts high");
    }

    #[test]
    fn exhausted_transient_ladder_reports_every_halving() {
        let nl = stepping_deck(5e-15);
        let opts = TransientOptions::new(4e-10, 3e-9).with_solver(
            SolverOptions::default()
                .with_max_newton(1)
                .with_max_step_halvings(2),
        );
        let err = Transient::new(&nl).run(&opts).expect_err("must fail");
        match err {
            SpiceError::RetryLadderExhausted {
                analysis,
                time,
                attempts,
            } => {
                assert_eq!(analysis, "transient");
                assert!(time.is_some(), "failing time point must be attached");
                // dt, dt/2, dt/4 — one failed attempt per halving level.
                assert_eq!(attempts.len(), 3);
                assert!(attempts[0].strategy.starts_with("dt=4.00e-10"));
                assert!(attempts[1].strategy.starts_with("dt=2.00e-10"));
                assert!(attempts[2].strategy.starts_with("dt=1.00e-10"));
            }
            other => panic!("expected RetryLadderExhausted, got {other:?}"),
        }
    }

    /// Runs `nl` with no step memo (every step solved: the spec) and with
    /// the run's memo, and requires the two to agree bit for bit: every time
    /// point, node voltage, source current, MTJ trace and event, or the same
    /// error. Returns the number of steps the memo replayed.
    fn assert_replay_exact(nl: &Netlist, opts: &TransientOptions) -> u64 {
        let transient = Transient::new(nl);
        let mut none = StepMemo::new(0);
        let spec = transient.run_with_memo(opts, &mut none);
        assert_eq!(none.replayed, 0, "a memo of no slots replays nothing");
        let mut ring = StepMemo::new(STEP_MEMO_SLOTS);
        let replay = transient.run_with_memo(opts, &mut ring);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (spec, replay) {
            (Ok(a), Ok(b)) => {
                assert_eq!(bits(&a.times), bits(&b.times), "time points");
                let traces = [
                    (&a.node_names, &a.voltages, &b.voltages),
                    (&a.vsource_names, &a.currents, &b.currents),
                    (&a.mtj_names, &a.mtj_cos, &b.mtj_cos),
                ];
                for (names, ta, tb) in traces {
                    assert_eq!(ta.len(), tb.len());
                    for ((name, va), vb) in names.iter().zip(ta).zip(tb) {
                        assert_eq!(bits(va), bits(vb), "trace of {name}");
                    }
                }
                let events = |r: &TransientResult| -> Vec<(u64, String, u64)> {
                    r.events
                        .iter()
                        .map(|e| {
                            (
                                e.time.to_bits(),
                                e.element.clone(),
                                e.new_state_cos.to_bits(),
                            )
                        })
                        .collect()
                };
                assert_eq!(events(&a), events(&b), "switch events");
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => panic!("outcomes differ: spec {:?}, memo {:?}", a.err(), b.err()),
        }
        ring.replayed
    }

    #[test]
    fn step_memo_replays_characterisation_decks_exactly() {
        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/spice_45nm"
        );
        for deck in [
            "stt_write.sp",
            "stt_read.sp",
            "sot_write.sp",
            "sot_read.sp",
            "nvff_backup.sp",
        ] {
            let text = std::fs::read_to_string(format!("{dir}/{deck}")).unwrap();
            let parsed = crate::parser::Deck::parse(&text).unwrap();
            let (dt, t_stop) = parsed.tran.unwrap();
            let replayed = assert_replay_exact(&parsed.netlist, &TransientOptions::new(dt, t_stop));
            assert!(replayed > 0, "{deck}: the memo must engage");
        }
    }

    #[test]
    fn step_memo_drops_entries_when_a_source_moves() {
        // Flat, settle, step, settle again, step back: each edge must be
        // solved, not replayed from the settled state before it.
        let mut nl = Netlist::new();
        nl.add_vsource("vdd", "vdd", "0", Waveform::dc(1.0))
            .unwrap();
        let steps = vec![
            (0.0, 0.0),
            (1e-9, 0.0),
            (1.2e-9, 0.6),
            (4e-9, 0.6),
            (4.2e-9, 1.0),
            (7e-9, 1.0),
            (7.5e-9, 0.3),
        ];
        nl.add_vsource("vin", "in", "0", Waveform::pwl(steps))
            .unwrap();
        nl.add_resistor("rl", "vdd", "out", 10e3).unwrap();
        nl.add_capacitor("cl", "out", "0", 5e-15).unwrap();
        let geom = MosGeometry {
            width: 1e-6,
            length: 100e-9,
        };
        nl.add_mosfet("m1", "out", "in", "0", MosModel::generic_nmos(), geom)
            .unwrap();
        let opts = TransientOptions::new(1e-11, 10e-9);
        assert!(assert_replay_exact(&nl, &opts) > 0, "the memo must engage");
    }

    #[test]
    fn step_memo_drops_entries_when_a_junction_flips() {
        // The write pulse's flat top settles the bit line well before the
        // junction flips; the flip changes the stamps, so the settled steps
        // before it must not be replayed after it.
        let stack = MssStack::builder().build().unwrap();
        let v_write = 2.5 * stack.critical_current() * stack.resistance_antiparallel();
        let mut nl = Netlist::new();
        nl.add_vsource(
            "vw",
            "drv",
            "0",
            Waveform::pulse(0.0, v_write, 0.2e-9, 0.05e-9, 0.05e-9, 40e-9, 0.0),
        )
        .unwrap();
        nl.add_resistor("rbl", "drv", "top", 100.0).unwrap();
        nl.add_capacitor("cbl", "top", "0", 5e-15).unwrap();
        nl.add_mtj("x1", "top", "0", &stack, MtjState::Antiparallel)
            .unwrap();
        let opts = TransientOptions::new(0.01e-9, 20e-9);
        assert_replay_exact(&nl, &opts);
        let res = Transient::new(&nl).run(&opts).unwrap();
        assert_eq!(res.events().len(), 1, "the write must switch the junction");
        // The circuit settles, and steps replay, before the flip.
        let before_flip = TransientOptions::new(0.01e-9, res.events()[0].time - 0.01e-9);
        assert!(
            assert_replay_exact(&nl, &before_flip) > 0,
            "settled before the flip"
        );
    }

    #[test]
    fn step_memo_keeps_halved_steps_and_failures_exact() {
        let nl = stepping_deck(5e-15);
        let starved = SolverOptions::default()
            .with_max_newton(4)
            .with_ladder_newton(MAX_NEWTON);
        for halvings in [8, 0] {
            let opts = TransientOptions::new(4e-10, 6e-9)
                .with_solver(starved.with_max_step_halvings(halvings));
            assert_replay_exact(&nl, &opts);
        }
        let exhausted = TransientOptions::new(4e-10, 3e-9).with_solver(
            SolverOptions::default()
                .with_max_newton(1)
                .with_max_step_halvings(2),
        );
        assert_replay_exact(&nl, &exhausted);

        // A 1 pF load keeps the output slewing through the window. With a
        // 2-iteration budget every step after the edge is halved, and none
        // of them may enter the ring; with the default budget they do.
        let slow = stepping_deck(1e-12);
        let ring_after = |solver: SolverOptions| {
            let opts = TransientOptions::new(1e-9, 6e-9).with_solver(solver);
            assert_replay_exact(&slow, &opts);
            let mut ring = StepMemo::new(STEP_MEMO_SLOTS);
            Transient::new(&slow)
                .run_with_memo(&opts, &mut ring)
                .unwrap();
            ring.len
        };
        let halving = SolverOptions::default()
            .with_max_newton(2)
            .with_ladder_newton(MAX_NEWTON)
            .with_max_step_halvings(12);
        assert_eq!(ring_after(halving), 0, "a halved step entered the ring");
        assert!(ring_after(SolverOptions::default()) > 0);
    }

    #[test]
    fn default_options_keep_previous_behaviour() {
        // The ladder is transparent for well-behaved decks: same divider
        // answer as plain Newton.
        let mut nl = Netlist::new();
        nl.add_vsource("v1", "in", "0", Waveform::dc(2.0)).unwrap();
        nl.add_resistor("r1", "in", "mid", 1e3).unwrap();
        nl.add_resistor("r2", "mid", "0", 1e3).unwrap();
        let plain = dc_operating_point_with(&nl, &SolverOptions::without_ladder()).unwrap();
        let robust = dc_operating_point(&nl).unwrap();
        assert_eq!(
            plain.node_voltage("mid").unwrap(),
            robust.node_voltage("mid").unwrap()
        );
    }
}
