//! Batched same-structure DC solves: symbolic analysis once, numeric
//! solves for many parameter vectors.
//!
//! Monte Carlo and design-space workloads solve thousands of *identically
//! structured* MNA systems that differ only in element values. The one-shot
//! path ([`crate::analysis::dc_operating_point`]) rebuilds the symbolic
//! structure, reallocates the matrix and packages a name-indexed solution
//! for every sample. [`DcBatch`] splits that work:
//!
//! * **symbolic once** — [`DcBatch::new`] computes the MNA index structure
//!   (node→row map, voltage-source rows, nonlinearity flag) a single time
//!   per netlist topology;
//! * **numeric many** — [`DcBatch::run`] applies a caller-supplied value
//!   edit per sample and re-solves against the shared structure, with one
//!   reusable [`Workspace`] per worker and
//!   solutions written to a flat, SoA sample-major buffer.
//!
//! **Determinism.** Samples are dispatched across `mss-exec` workers in
//! fixed-size chunks and merged in chunk order; each sample's arithmetic is
//! the exact code path of the single-solve route (same Newton loop, same
//! retry ladder, same dense-LU kernel), so results are bit-identical to
//! per-sample [`dc_operating_point_with`](crate::analysis::dc_operating_point_with)
//! calls at any `MSS_THREADS` value. Per-sample randomness belongs to the
//! caller: derive it from the *sample index* (RNG stream splitting), never
//! from the worker.

use mss_exec::{par_chunks_stats, ParallelConfig};

use crate::analysis::{Mna, SolverOptions};
use crate::netlist::Netlist;
use crate::solver::Workspace;
use crate::SpiceError;

/// A reusable batched DC solver for one netlist topology.
///
/// ```
/// use mss_exec::ParallelConfig;
/// use mss_spice::batch::DcBatch;
/// use mss_spice::netlist::Netlist;
/// use mss_spice::waveform::Waveform;
///
/// # fn main() -> Result<(), mss_spice::SpiceError> {
/// let mut nl = Netlist::new();
/// nl.add_vsource("v1", "in", "0", Waveform::dc(1.0))?;
/// nl.add_resistor("r1", "in", "mid", 1e3)?;
/// nl.add_resistor("r2", "mid", "0", 1e3)?;
/// let r2 = nl.element_index("r2")?;
/// let batch = DcBatch::new(&nl);
/// // 4 samples sweeping the lower divider resistor.
/// let result = batch.run(4, &ParallelConfig::serial(), |i, nl| {
///     nl.set_resistance(r2, 1e3 * (i + 1) as f64)
/// });
/// assert_eq!(result.failure_count(), 0);
/// assert!((result.node_voltage(0, "mid")? - 0.5).abs() < 1e-9);
/// assert!((result.node_voltage(3, "mid")? - 0.8).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub struct DcBatch {
    base: Netlist,
    mna: Mna,
    dim: usize,
    node_names: Vec<String>,
    #[cfg(test)]
    vsource_names: Vec<String>,
    solver: SolverOptions,
}

impl DcBatch {
    /// Performs the symbolic analysis of `netlist` once; the returned batch
    /// solves any number of value-edited copies against that structure,
    /// with the default convergence policy.
    pub fn new(netlist: &Netlist) -> Self {
        let mna = Mna::new(netlist);
        let dim = mna.dim();
        let node_names = (0..netlist.node_count())
            .map(|i| netlist.node_name(crate::netlist::NodeId(i)).to_string())
            .collect();
        Self {
            base: netlist.clone(),
            mna,
            dim,
            node_names,
            #[cfg(test)]
            vsource_names: netlist
                .elements()
                .iter()
                .filter_map(|e| match e {
                    crate::netlist::Element::VSource { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .collect(),
            solver: SolverOptions::default(),
        }
    }

    /// Returns the batch with an explicit convergence policy (applied to
    /// every sample).
    pub fn with_solver(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// Solves `samples` parameter vectors under an explicit thread/chunk
    /// policy. Results are bit-identical for any policy.
    ///
    /// `edit(i, netlist)` mutates element *values* for sample `i` (via
    /// [`Netlist::set_resistance`], [`Netlist::set_source_wave`],
    /// [`Netlist::set_mtj_state`], …). Two contracts:
    ///
    /// * the edit must not change the netlist *structure* (nodes or
    ///   elements added/removed) — violations are reported as a per-sample
    ///   [`SpiceError::InvalidElement`], never a panic;
    /// * the edit must set **every** varying value each sample — workers
    ///   reuse one netlist clone across their chunk, so an unset value
    ///   carries over from the previous sample of that chunk.
    pub fn run<F>(&self, samples: usize, cfg: &ParallelConfig, edit: F) -> BatchDcResult
    where
        F: Fn(usize, &mut Netlist) -> Result<(), SpiceError> + Sync,
    {
        let _span = mss_obs::span("spice.batch.dc");
        let x0 = vec![0.0; self.dim];
        // Chunk-boundary progress on the opt-in telemetry bus; the chunk
        // grid is deterministic so `total` is thread-count independent.
        let events_on = mss_obs::events::bus_enabled();
        let total_chunks = samples.div_ceil(cfg.chunk.max(1)) as u64;
        let chunks_done = std::sync::atomic::AtomicU64::new(0);
        let (chunks, stats) = par_chunks_stats(cfg, samples, |_chunk, range| {
            let _span = mss_obs::span("spice.batch.chunk");
            let mut nl = self.base.clone();
            let mut ws = Workspace::new();
            let mut solutions = Vec::with_capacity(range.len() * self.dim);
            let mut failures = Vec::new();
            for i in range {
                match self.solve_one(i, &mut nl, &mut ws, &x0, &edit) {
                    Ok(x) => solutions.extend_from_slice(&x),
                    Err(e) => {
                        // Keep the SoA layout rectangular; the slot is
                        // dead (flagged in `failures`).
                        solutions.resize(solutions.len() + self.dim, 0.0);
                        failures.push((i, e));
                        // The netlist may be structurally corrupted by a
                        // bad edit; restart the chunk from a clean base.
                        nl = self.base.clone();
                    }
                }
            }
            if events_on {
                let done = chunks_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                mss_obs::events::publish(mss_obs::events::EventPayload::Progress {
                    sweep: "spice.dc_batch".to_string(),
                    done,
                    total: total_chunks,
                    retried: 0,
                    budget_seconds: None,
                });
            }
            (solutions, failures)
        });
        stats.record("spice.batch");

        let mut solutions = Vec::with_capacity(samples * self.dim);
        let mut failures = Vec::new();
        for (sols, fails) in chunks {
            solutions.extend_from_slice(&sols);
            failures.extend(fails);
        }
        mss_obs::counter_add("spice.batch.runs", 1);
        mss_obs::counter_add("spice.batch.solves", samples as u64);
        mss_obs::counter_add("spice.batch.failed", failures.len() as u64);
        BatchDcResult {
            samples,
            dim: self.dim,
            node_names: self.node_names.clone(),
            #[cfg(test)]
            vsource_names: self.vsource_names.clone(),
            solutions,
            failures,
        }
    }

    fn solve_one<F>(
        &self,
        i: usize,
        nl: &mut Netlist,
        ws: &mut Workspace,
        x0: &[f64],
        edit: &F,
    ) -> Result<Vec<f64>, SpiceError>
    where
        F: Fn(usize, &mut Netlist) -> Result<(), SpiceError> + Sync,
    {
        edit(i, nl)?;
        if nl.node_count() != self.node_names.len()
            || nl.elements().len() != self.base.elements().len()
        {
            return Err(SpiceError::InvalidElement {
                name: "<batch edit>".to_string(),
                reason: format!("edit for sample {i} changed the netlist structure"),
            });
        }
        self.mna
            .solve_static(nl, 0.0, x0, None, None, "batched dc", &self.solver, ws)
    }
}

/// Solutions of a [`DcBatch::run`]: a flat sample-major SoA buffer plus a
/// sparse failure list (the common case is zero failures, so per-sample
/// `Result` packaging is avoided).
#[derive(Debug, Clone)]
pub struct BatchDcResult {
    samples: usize,
    dim: usize,
    node_names: Vec<String>,
    #[cfg(test)]
    vsource_names: Vec<String>,
    solutions: Vec<f64>,
    failures: Vec<(usize, SpiceError)>,
}

impl BatchDcResult {
    /// Number of samples solved.
    #[cfg(test)]
    pub(crate) fn samples(&self) -> usize {
        self.samples
    }

    /// Number of failed samples.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Failed samples as `(sample index, error)`, ascending by index.
    #[cfg(test)]
    pub(crate) fn failures(&self) -> &[(usize, SpiceError)] {
        &self.failures
    }

    /// The raw MNA solution row of `sample`, or the error that killed it.
    ///
    /// # Errors
    ///
    /// The sample's own solve error.
    ///
    /// # Panics
    ///
    /// Panics if `sample >= samples()`.
    pub fn outcome(&self, sample: usize) -> Result<&[f64], &SpiceError> {
        assert!(sample < self.samples, "sample {sample} out of range");
        match self.failures.binary_search_by_key(&sample, |&(i, _)| i) {
            Ok(pos) => Err(&self.failures[pos].1),
            Err(_) => Ok(&self.solutions[sample * self.dim..(sample + 1) * self.dim]),
        }
    }

    /// Voltage of a named node in one sample.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] for an unknown name; the sample's solve
    /// error when the sample failed.
    ///
    /// # Panics
    ///
    /// Panics if `sample >= samples()`.
    pub fn node_voltage(&self, sample: usize, name: &str) -> Result<f64, SpiceError> {
        let key = name.to_ascii_lowercase();
        let key = if key == "gnd" { "0".to_string() } else { key };
        let idx = self
            .node_names
            .iter()
            .position(|n| *n == key)
            .ok_or(SpiceError::UnknownNode(key))?;
        let x = self.outcome(sample).map_err(Clone::clone)?;
        Ok(if idx == 0 { 0.0 } else { x[idx - 1] })
    }

    /// Branch current of a named voltage source in one sample (MNA
    /// convention: a source delivering power reads negative).
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] for an unknown source; the sample's
    /// solve error when the sample failed.
    ///
    /// # Panics
    ///
    /// Panics if `sample >= samples()`.
    #[cfg(test)]
    pub(crate) fn source_current(&self, sample: usize, name: &str) -> Result<f64, SpiceError> {
        let slot = self
            .vsource_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| SpiceError::UnknownNode(name.to_string()))?;
        let x = self.outcome(sample).map_err(Clone::clone)?;
        Ok(x[self.dim - self.vsource_names.len() + slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::dc_operating_point_with;
    use crate::waveform::Waveform;

    fn divider() -> Netlist {
        let mut nl = Netlist::new();
        nl.add_vsource("v1", "in", "0", Waveform::dc(2.0)).unwrap();
        nl.add_resistor("r1", "in", "mid", 1e3).unwrap();
        nl.add_resistor("r2", "mid", "0", 1e3).unwrap();
        nl
    }

    #[test]
    fn batch_matches_single_solves_bitwise() {
        let nl = divider();
        let r2 = nl.element_index("r2").unwrap();
        let batch = DcBatch::new(&nl);
        let n = 37; // not a multiple of any chunk size
        let ohms = |i: usize| 500.0 + 250.0 * i as f64;
        let result = batch.run(n, &ParallelConfig::serial(), |i, nl| {
            nl.set_resistance(r2, ohms(i))
        });
        assert_eq!(result.failure_count(), 0);
        for i in 0..n {
            let mut single = divider();
            single.set_resistance(r2, ohms(i)).unwrap();
            let dc = dc_operating_point_with(&single, &SolverOptions::default()).unwrap();
            // Bitwise, not approximate: same arithmetic path.
            assert_eq!(
                result.node_voltage(i, "mid").unwrap(),
                dc.node_voltage("mid").unwrap(),
                "sample {i}"
            );
            assert_eq!(
                result.source_current(i, "v1").unwrap(),
                dc.source_current("v1").unwrap(),
                "sample {i}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let nl = divider();
        let r2 = nl.element_index("r2").unwrap();
        let batch = DcBatch::new(&nl);
        let run = |threads: usize, chunk: usize| {
            let cfg = ParallelConfig::serial()
                .with_threads(threads)
                .with_chunk(chunk);
            batch.run(100, &cfg, |i, nl| nl.set_resistance(r2, 100.0 + i as f64))
        };
        let base = run(1, 256);
        for (threads, chunk) in [(2, 7), (4, 16), (8, 3)] {
            let other = run(threads, chunk);
            assert_eq!(base.solutions, other.solutions, "{threads} threads");
            assert_eq!(base.failures, other.failures);
        }
    }

    #[test]
    fn three_terminal_sot_netlist_batches_bitwise() {
        use mss_mtj::mechanism::SotParams;
        use mss_mtj::resistance::MtjState;
        use mss_mtj::MssStack;

        // Read-path divider around a three-terminal SOT cell: series
        // resistor into the junction's read terminal, channel grounded at
        // the write terminal. Batch over the MTJ state and the series
        // resistance; every sample must match the one-shot DC solve bitwise.
        let stack = MssStack::builder().build().unwrap();
        let params = SotParams::default();
        let build = || {
            let mut nl = Netlist::new();
            nl.add_vsource("vr", "bl", "0", Waveform::dc(0.1)).unwrap();
            nl.add_resistor("rs", "bl", "rd", 3.0e3).unwrap();
            nl.add_mtj_sot("x1", "rd", "sh", "0", &stack, &params, MtjState::Parallel)
                .unwrap();
            nl
        };
        let nl = build();
        let rs = nl.element_index("rs").unwrap();
        let x1 = nl.element_index("x1").unwrap();
        let state = |i: usize| {
            if i.is_multiple_of(2) {
                MtjState::Parallel
            } else {
                MtjState::Antiparallel
            }
        };
        let ohms = |i: usize| 2.0e3 + 500.0 * i as f64;
        let batch = DcBatch::new(&nl);
        let cfg = ParallelConfig::serial().with_threads(2).with_chunk(3);
        let result = batch.run(8, &cfg, |i, nl| {
            nl.set_mtj_state(x1, state(i))?;
            nl.set_resistance(rs, ohms(i))
        });
        assert_eq!(result.failure_count(), 0);
        for i in 0..8 {
            let mut single = build();
            single.set_mtj_state(x1, state(i)).unwrap();
            single.set_resistance(rs, ohms(i)).unwrap();
            let dc = dc_operating_point_with(&single, &SolverOptions::default()).unwrap();
            assert_eq!(
                result.node_voltage(i, "rd").unwrap(),
                dc.node_voltage("rd").unwrap(),
                "sample {i}"
            );
        }
        // AP junction divides higher than P at the read tap.
        assert!(result.node_voltage(1, "rd").unwrap() > result.node_voltage(0, "rd").unwrap());
    }

    #[test]
    fn structural_edits_fail_the_sample_not_the_batch() {
        let nl = divider();
        let r2 = nl.element_index("r2").unwrap();
        let batch = DcBatch::new(&nl);
        let result = batch.run(5, &ParallelConfig::serial(), |i, nl| {
            if i == 2 {
                nl.add_resistor("intruder", "mid", "0", 50.0)?;
            }
            nl.set_resistance(r2, 1e3)
        });
        assert_eq!(result.failure_count(), 1);
        assert_eq!(result.failures()[0].0, 2);
        assert!(matches!(
            result.outcome(2),
            Err(SpiceError::InvalidElement { .. })
        ));
        // Neighbours are untouched by the corrupted sample.
        for i in [0, 1, 3, 4] {
            assert!((result.node_voltage(i, "mid").unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn per_sample_errors_are_classified() {
        // An r2 of NaN ohms is rejected by the setter itself.
        let nl = divider();
        let r2 = nl.element_index("r2").unwrap();
        let batch = DcBatch::new(&nl);
        let result = batch.run(3, &ParallelConfig::serial(), |i, nl| {
            nl.set_resistance(r2, if i == 1 { f64::NAN } else { 1e3 })
        });
        assert_eq!(result.failure_count(), 1);
        assert!(matches!(
            result.outcome(1),
            Err(SpiceError::InvalidElement { .. })
        ));
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = DcBatch::new(&divider());
        let result = batch.run(0, &ParallelConfig::serial(), |_, _| Ok(()));
        assert_eq!(result.samples(), 0);
        assert_eq!(result.failure_count(), 0);
    }

    #[test]
    fn unknown_probe_names_error() {
        let batch = DcBatch::new(&divider());
        let result = batch.run(1, &ParallelConfig::serial(), |_, _| Ok(()));
        assert!(matches!(
            result.node_voltage(0, "zz"),
            Err(SpiceError::UnknownNode(_))
        ));
        assert!(matches!(
            result.source_current(0, "vxx"),
            Err(SpiceError::UnknownNode(_))
        ));
        // Ground reads as exactly zero under both aliases.
        assert_eq!(result.node_voltage(0, "0").unwrap(), 0.0);
        assert_eq!(result.node_voltage(0, "gnd").unwrap(), 0.0);
    }
}
