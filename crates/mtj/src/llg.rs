//! Macrospin Landau–Lifshitz–Gilbert–Slonczewski solver: the *physical*
//! compact-model strategy.
//!
//! The project compared Verilog-A compact-modelling strategies for
//! spintronic devices (Jabeur et al., 2014): a fast behavioural model (our
//! [`crate::switching`]) versus a physical macrospin model. This module is
//! the physical one; the `ablation_integrator` bench and several tests check
//! the two stay consistent.
//!
//! The integrated equation (Landau–Lifshitz form, fields in A/m):
//!
//! ```text
//! dm/dt = −γ̃/(1+α²)·[ m×H  +  α·m×(m×H) ]  −  γ̃·a_J/(1+α²)·m×(m×p)
//! ```
//!
//! with `γ̃ = γ·μ₀` and the Slonczewski field `a_J = ħ·J·η/(2·e·μ₀·M_s·t_f)`.
//! With this sign convention **positive current pulls m toward the reference
//! layer `p = +ẑ`** (writes the parallel state); negative current writes the
//! antiparallel state.
//!
//! The thermal field follows Brown's fluctuation–dissipation result,
//! `⟨H_i H_j⟩ = 2D·δ_ij·δ(t−t')` with
//! `D = α·k_B·T / ((1+α²)·γ̃·μ₀·M_s·V)`, integrated with the stochastic Heun
//! scheme (Stratonovich). Deterministic runs use classic RK4.

use mss_exec::{par_map, ParallelConfig};
use mss_units::consts::{GAMMA, HBAR, KB, MU0, QE};
use mss_units::rng::{standard_normal, Rng, Xoshiro256PlusPlus};
use mss_units::stats::{DistributionSummary, OnlineStats};
use mss_units::Vec3;

use crate::modes::MssDevice;

/// Integration options for an LLG run.
#[derive(Debug, Clone, PartialEq)]
pub struct LlgOptions {
    /// Time step in seconds. 1 ps resolves GHz precession comfortably.
    pub dt: f64,
    /// Record every `record_every`-th step into the trajectory (1 = all).
    pub record_every: usize,
    /// Enable the stochastic thermal field.
    pub thermal: bool,
    /// RNG seed for the thermal field (ignored when `thermal` is false).
    pub seed: u64,
}

impl Default for LlgOptions {
    fn default() -> Self {
        Self {
            dt: 1e-12,
            record_every: 10,
            thermal: false,
            seed: 0,
        }
    }
}

/// A macrospin simulator bound to one MSS device configuration.
///
/// # Examples
///
/// ```
/// use mss_mtj::{MssStack, MssDevice};
/// use mss_mtj::llg::{LlgSimulator, LlgOptions};
/// use mss_units::Vec3;
///
/// # fn main() -> Result<(), mss_mtj::MtjError> {
/// let device = MssDevice::memory(MssStack::builder().build()?);
/// let sim = LlgSimulator::new(&device);
/// // Relax from a small tilt: must return to +z.
/// let m0 = Vec3::from_spherical(0.2, 0.0);
/// let traj = sim.run(m0, 5e-9, &LlgOptions::default());
/// assert!(traj.final_m().z > 0.99);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LlgSimulator {
    hk_eff: f64,
    alpha: f64,
    ms: f64,
    volume: f64,
    free_layer_thickness: f64,
    area: f64,
    polarization: f64,
    temperature: f64,
    bias_field: Vec3,
    applied_field: Vec3,
    current: f64,
    reference: Vec3,
    sot_field: f64,
    sot_polarization: Vec3,
    sot_field_like_ratio: f64,
}

impl LlgSimulator {
    /// Builds a simulator from a device (stack + bias magnet).
    pub fn new(device: &MssDevice) -> Self {
        let s = device.stack();
        Self {
            hk_eff: s.hk_eff(),
            alpha: s.damping(),
            ms: s.saturation_magnetization(),
            volume: s.volume(),
            free_layer_thickness: s.free_layer_thickness(),
            area: s.area(),
            polarization: s.spin_polarization(),
            temperature: s.temperature(),
            bias_field: Vec3::new(device.bias().field, 0.0, 0.0),
            applied_field: Vec3::zero(),
            current: 0.0,
            reference: Vec3::unit_z(),
            sot_field: 0.0,
            sot_polarization: Vec3::unit_y(),
            sot_field_like_ratio: 0.0,
        }
    }

    /// Adds a uniform applied field (A/m) on top of the bias magnet.
    pub fn with_applied_field(mut self, h: Vec3) -> Self {
        self.applied_field = h;
        self
    }

    /// Sets the DC tunnel current in amperes (positive writes parallel).
    pub fn with_current(mut self, i: f64) -> Self {
        self.current = i;
        self
    }

    /// Configures the SOT/SHE torque for a heavy-metal channel current
    /// `i_channel` (amperes, +x flow) through the channel described by
    /// `params`.
    ///
    /// The spin Hall effect injects spins polarised along σ = ±ŷ (sign of
    /// the channel current) with damping-like amplitude
    /// `a_SOT = ħ·θ_SH·|J_ch|/(2·e·μ₀·M_s·t_f)` and an optional field-like
    /// component `params.field_like_ratio · a_SOT`. The default simulator
    /// leaves all SOT fields at zero, so plain STT runs are bit-identical
    /// to the pre-SOT integrator.
    #[cfg(test)]
    pub(crate) fn with_sot_current(
        mut self,
        i_channel: f64,
        params: &crate::mechanism::SotParams,
    ) -> Self {
        // Recover the pillar diameter from the stored junction area.
        let d = (4.0 * self.area / std::f64::consts::PI).sqrt();
        let j = i_channel / params.channel_cross_section(d);
        self.sot_field = HBAR * params.spin_hall_angle * j.abs()
            / (2.0 * QE * MU0 * self.ms * self.free_layer_thickness);
        self.sot_polarization = if i_channel >= 0.0 {
            Vec3::unit_y()
        } else {
            Vec3::new(0.0, -1.0, 0.0)
        };
        self.sot_field_like_ratio = params.field_like_ratio;
        self
    }

    /// Slonczewski effective field a_J in A/m for the configured current.
    pub(crate) fn slonczewski_field(&self) -> f64 {
        let j = self.current / self.area;
        HBAR * j * self.polarization / (2.0 * QE * MU0 * self.ms * self.free_layer_thickness)
    }

    /// Deterministic effective field (A/m) at magnetization `m`.
    fn h_eff(&self, m: Vec3) -> Vec3 {
        Vec3::new(0.0, 0.0, self.hk_eff * m.z) + self.bias_field + self.applied_field
    }

    /// Right-hand side of the Landau–Lifshitz equation at `m` with an extra
    /// (thermal) field `h_extra`.
    fn rhs(&self, m: Vec3, h_extra: Vec3) -> Vec3 {
        let gamma_tilde = GAMMA * MU0;
        let pre = gamma_tilde / (1.0 + self.alpha * self.alpha);
        let h = self.h_eff(m) + h_extra;
        let mxh = m.cross(h);
        let mxmxh = m.cross(mxh);
        let mut dm = -pre * (mxh + self.alpha * mxmxh);
        let aj = self.slonczewski_field();
        if aj != 0.0 {
            let mxp = m.cross(self.reference);
            let mxmxp = m.cross(mxp);
            dm += -pre * aj * mxmxp;
        }
        // SOT: damping-like torque toward the spin-Hall polarisation σ plus
        // an optional field-like term. Zero amplitude (the default) adds
        // nothing, keeping STT-only runs bit-identical.
        if self.sot_field != 0.0 {
            let mxs = m.cross(self.sot_polarization);
            let mxmxs = m.cross(mxs);
            dm += -pre * self.sot_field * mxmxs;
            if self.sot_field_like_ratio != 0.0 {
                dm += -pre * self.sot_field * self.sot_field_like_ratio * mxs;
            }
        }
        dm
    }

    /// Brown diffusion constant D in (A/m)²·s.
    fn thermal_diffusion(&self) -> f64 {
        let gamma_tilde = GAMMA * MU0;
        self.alpha * KB * self.temperature
            / ((1.0 + self.alpha * self.alpha) * gamma_tilde * MU0 * self.ms * self.volume)
    }

    /// Integrates from `m0` for `duration` seconds.
    ///
    /// `m0` is normalised on entry; the trajectory stays on the unit sphere
    /// (renormalised every step, drift is checked in tests).
    pub fn run(&self, m0: Vec3, duration: f64, opts: &LlgOptions) -> Trajectory {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(opts.seed);
        self.run_with_rng(m0, duration, opts, &mut rng)
    }

    /// [`run`](Self::run) drawing the thermal field from a caller-supplied
    /// RNG instead of seeding from `opts.seed` — the hook the parallel
    /// ensembles use to give every member its own deterministic stream.
    pub(crate) fn run_with_rng<R: Rng + ?Sized>(
        &self,
        m0: Vec3,
        duration: f64,
        opts: &LlgOptions,
        rng: &mut R,
    ) -> Trajectory {
        assert!(opts.dt > 0.0, "dt must be positive");
        assert!(opts.record_every >= 1, "record_every must be >= 1");
        let steps = (duration / opts.dt).ceil() as usize;
        let mut m = m0.normalized();
        let mut traj = Trajectory::with_capacity(steps / opts.record_every + 2);
        traj.push(0.0, m);
        let sigma_h = if opts.thermal {
            (2.0 * self.thermal_diffusion() / opts.dt).sqrt()
        } else {
            0.0
        };
        for k in 0..steps {
            if opts.thermal {
                // Stochastic Heun: one thermal-field draw per step, shared
                // between predictor and corrector (Stratonovich).
                let h_th = Vec3::new(
                    sigma_h * standard_normal(&mut *rng),
                    sigma_h * standard_normal(&mut *rng),
                    sigma_h * standard_normal(&mut *rng),
                );
                let f1 = self.rhs(m, h_th);
                let m_pred = (m + f1 * opts.dt).normalized();
                let f2 = self.rhs(m_pred, h_th);
                m = (m + (f1 + f2) * (0.5 * opts.dt)).normalized();
            } else {
                // RK4.
                let f1 = self.rhs(m, Vec3::zero());
                let f2 = self.rhs(m + f1 * (0.5 * opts.dt), Vec3::zero());
                let f3 = self.rhs(m + f2 * (0.5 * opts.dt), Vec3::zero());
                let f4 = self.rhs(m + f3 * opts.dt, Vec3::zero());
                m = (m + (f1 + 2.0 * f2 + 2.0 * f3 + f4) * (opts.dt / 6.0)).normalized();
            }
            if (k + 1) % opts.record_every == 0 || k + 1 == steps {
                traj.push((k + 1) as f64 * opts.dt, m);
            }
        }
        // One bump per run (never per step): integration volume is the
        // denominator of every LLG throughput number.
        if mss_obs::enabled() {
            mss_obs::counter_add("mtj.llg.runs", 1);
            mss_obs::counter_add("mtj.llg.steps", steps as u64);
        }
        traj
    }

    /// Parallel sweep over write currents: one LLG run per current, fanned
    /// out with `mss-exec`.
    ///
    /// Thermal runs give point `i` RNG stream `(opts.seed, i)`, so the sweep
    /// is bit-identical at any thread count. `threshold` is the `m_z` level
    /// that counts as switched (e.g. `0.0` for crossing the equator).
    pub fn current_sweep(
        &self,
        currents: &[f64],
        m0: Vec3,
        duration: f64,
        threshold: f64,
        opts: &LlgOptions,
        cfg: &ParallelConfig,
    ) -> Vec<SweepPoint> {
        let _span = mss_obs::span("mtj.llg.current_sweep");
        mss_obs::counter_add("mtj.llg.sweep_points", currents.len() as u64);
        par_map(cfg, currents, |idx, &current| {
            let sim = self.clone().with_current(current);
            let mut rng = Xoshiro256PlusPlus::stream(opts.seed, idx as u64);
            let traj = sim.run_with_rng(m0, duration, opts, &mut rng);
            SweepPoint {
                current,
                switching_time: traj.switching_time(threshold),
                final_mz: traj.final_m().z,
            }
        })
    }

    /// Parallel stochastic ensemble: `runs` independent thermal LLG runs of
    /// this simulator, each on RNG stream `(opts.seed, run_index)`.
    ///
    /// Returns switching statistics against `threshold`. Results are merged
    /// in run order and are therefore independent of the thread count.
    pub fn thermal_ensemble(
        &self,
        runs: usize,
        m0: Vec3,
        duration: f64,
        threshold: f64,
        opts: &LlgOptions,
        cfg: &ParallelConfig,
    ) -> ThermalEnsemble {
        let _span = mss_obs::span("mtj.llg.thermal_ensemble");
        let thermal_opts = LlgOptions {
            thermal: true,
            ..opts.clone()
        };
        let indices: Vec<u64> = (0..runs as u64).collect();
        let members = par_map(cfg, &indices, |_, &run| {
            let mut rng = Xoshiro256PlusPlus::stream(opts.seed, run);
            let traj = self.run_with_rng(m0, duration, &thermal_opts, &mut rng);
            (traj.switching_time(threshold), traj.final_m().z)
        });
        let mut switched = 0u64;
        let mut t_switch = OnlineStats::new();
        let mut mz = OnlineStats::new();
        for (t, final_mz) in members {
            if let Some(t) = t {
                switched += 1;
                t_switch.push(t);
            }
            mz.push(final_mz);
        }
        mss_obs::counter_add("mtj.llg.ensemble_runs", runs as u64);
        mss_obs::counter_add("mtj.llg.ensemble_switched", switched);
        ThermalEnsemble {
            runs: runs as u64,
            switched,
            switching_time: DistributionSummary::from(&t_switch),
            final_mz: DistributionSummary::from(&mz),
        }
    }
}

/// One point of a [`LlgSimulator::current_sweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Write current at this point, amperes.
    pub(crate) current: f64,
    /// First crossing of the switching threshold, if any.
    pub switching_time: Option<f64>,
    /// Final `m_z` at the end of the run.
    pub(crate) final_mz: f64,
}

/// Aggregate result of a [`LlgSimulator::thermal_ensemble`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalEnsemble {
    /// Ensemble size.
    pub(crate) runs: u64,
    /// Members that crossed the switching threshold.
    pub(crate) switched: u64,
    /// Switching-time distribution over the switched members.
    pub(crate) switching_time: DistributionSummary,
    /// Distribution of the final `m_z` over all members.
    pub(crate) final_mz: DistributionSummary,
}

impl ThermalEnsemble {
    /// Fraction of members that switched (write success rate).
    #[cfg(test)]
    pub(crate) fn switching_probability(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.switched as f64 / self.runs as f64
        }
    }
}

/// A recorded magnetization trajectory.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    times: Vec<f64>,
    magnetization: Vec<Vec3>,
}

impl Trajectory {
    fn with_capacity(n: usize) -> Self {
        Self {
            times: Vec::with_capacity(n),
            magnetization: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, t: f64, m: Vec3) {
        self.times.push(t);
        self.magnetization.push(m);
    }

    /// Recorded sample count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Time stamps in seconds.
    #[cfg(test)]
    pub(crate) fn times(&self) -> &[f64] {
        &self.times
    }

    /// Magnetization samples (unit vectors).
    pub fn magnetization(&self) -> &[Vec3] {
        &self.magnetization
    }

    /// The last recorded magnetization.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty.
    pub fn final_m(&self) -> Vec3 {
        *self.magnetization.last().expect("empty trajectory")
    }

    /// First time `m_z` crosses `threshold` coming from below (switching
    /// detection for −z→+z writes); `None` if it never does.
    pub(crate) fn switching_time(&self, threshold: f64) -> Option<f64> {
        self.times
            .iter()
            .zip(&self.magnetization)
            .find(|(_, m)| m.z >= threshold)
            .map(|(t, _)| *t)
    }

    /// Mean of `m_z` over the trailing `fraction` of the trajectory.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty or `fraction` is outside `(0, 1]`.
    pub fn tail_mean_mz(&self, fraction: f64) -> f64 {
        assert!(!self.is_empty(), "empty trajectory");
        assert!(fraction > 0.0 && fraction <= 1.0);
        let start = ((1.0 - fraction) * self.magnetization.len() as f64) as usize;
        let tail = &self.magnetization[start..];
        tail.iter().map(|m| m.z).sum::<f64>() / tail.len() as f64
    }

    /// Estimates the precession frequency in hertz by counting rising zero
    /// crossings of `m_y`; `None` when fewer than two crossings exist.
    pub fn estimate_frequency(&self) -> Option<f64> {
        let mut crossings = Vec::new();
        for w in self.magnetization.windows(2).zip(self.times.windows(2)) {
            let ((a, b), (ta, tb)) = ((w.0[0], w.0[1]), (w.1[0], w.1[1]));
            if a.y < 0.0 && b.y >= 0.0 {
                // Linear interpolation of the crossing time.
                let frac = -a.y / (b.y - a.y);
                crossings.push(ta + frac * (tb - ta));
            }
        }
        if crossings.len() < 2 {
            return None;
        }
        let span = crossings.last().unwrap() - crossings.first().unwrap();
        Some((crossings.len() - 1) as f64 / span)
    }

    /// Root-mean-square polar angle from +z over the trailing `fraction`,
    /// in radians (thermal-equilibrium diagnostics).
    #[cfg(test)]
    pub(crate) fn tail_rms_polar_angle(&self, fraction: f64) -> f64 {
        assert!(!self.is_empty(), "empty trajectory");
        let start = ((1.0 - fraction) * self.magnetization.len() as f64) as usize;
        let tail = &self.magnetization[start..];
        let mean_sq = tail.iter().map(|m| m.polar_angle().powi(2)).sum::<f64>() / tail.len() as f64;
        mean_sq.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switching::SwitchingModel;
    use crate::{MssDevice, MssStack};

    fn memory_device() -> MssDevice {
        MssDevice::memory(MssStack::builder().build().unwrap())
    }

    #[test]
    fn relaxation_to_easy_axis() {
        let sim = LlgSimulator::new(&memory_device());
        let traj = sim.run(
            Vec3::from_spherical(0.3, 0.5),
            10e-9,
            &LlgOptions::default(),
        );
        assert!(traj.final_m().z > 0.999);
    }

    #[test]
    fn magnetization_stays_on_unit_sphere() {
        let sim = LlgSimulator::new(&memory_device());
        let traj = sim.run(Vec3::from_spherical(0.4, 0.0), 3e-9, &LlgOptions::default());
        for m in traj.magnetization() {
            assert!((m.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn positive_current_switches_ap_to_p() {
        let dev = memory_device();
        let sw = SwitchingModel::new(dev.stack());
        let i = 2.5 * sw.critical_current();
        let sim = LlgSimulator::new(&dev).with_current(i);
        // Start near -z (AP) with the thermal tilt.
        let theta0 = std::f64::consts::PI - dev.stack().thermal_angle();
        let m0 = Vec3::from_spherical(theta0, 0.3);
        let traj = sim.run(m0, 60e-9, &LlgOptions::default());
        assert!(
            traj.final_m().z > 0.9,
            "did not switch: mz = {}",
            traj.final_m().z
        );
    }

    #[test]
    fn negative_current_switches_p_to_ap() {
        let dev = memory_device();
        let sw = SwitchingModel::new(dev.stack());
        let i = -2.5 * sw.critical_current();
        let sim = LlgSimulator::new(&dev).with_current(i);
        let m0 = Vec3::from_spherical(dev.stack().thermal_angle(), 0.3);
        let traj = sim.run(m0, 60e-9, &LlgOptions::default());
        assert!(traj.final_m().z < -0.9, "mz = {}", traj.final_m().z);
    }

    #[test]
    fn subcritical_current_does_not_switch() {
        let dev = memory_device();
        let sw = SwitchingModel::new(dev.stack());
        let sim = LlgSimulator::new(&dev).with_current(0.5 * sw.critical_current());
        let m0 = Vec3::from_spherical(std::f64::consts::PI - dev.stack().thermal_angle(), 0.0);
        let traj = sim.run(m0, 30e-9, &LlgOptions::default());
        assert!(traj.final_m().z < -0.9);
    }

    #[test]
    fn llg_switching_time_matches_analytic_model() {
        // Physical vs behavioural compact model: within a factor of three.
        let dev = memory_device();
        let sw = SwitchingModel::new(dev.stack());
        let i = 3.0 * sw.critical_current();
        let analytic = sw.mean_switching_time(i).unwrap();
        let sim = LlgSimulator::new(&dev).with_current(i);
        let theta0 = std::f64::consts::PI - dev.stack().thermal_angle();
        let traj = sim.run(
            Vec3::from_spherical(theta0, 0.0),
            20.0 * analytic,
            &LlgOptions {
                record_every: 1,
                ..LlgOptions::default()
            },
        );
        let simulated = traj
            .switching_time(0.0)
            .expect("LLG run never crossed the equator");
        let ratio = simulated / analytic;
        assert!(
            (0.3..3.0).contains(&ratio),
            "LLG {simulated:.3e} s vs analytic {analytic:.3e} s (ratio {ratio:.2})"
        );
    }

    #[test]
    fn oscillator_ringdown_frequency_matches_estimate() {
        let dev = MssDevice::oscillator(MssStack::builder().build().unwrap());
        let est = dev.oscillator_frequency_estimate();
        // Kick the magnetization off equilibrium and ring down.
        let theta_eq = dev.equilibrium_tilt_degrees().to_radians();
        let m0 = Vec3::from_spherical(theta_eq + 0.15, 0.1);
        let sim = LlgSimulator::new(&dev);
        let traj = sim.run(
            m0,
            4e-9,
            &LlgOptions {
                record_every: 1,
                ..LlgOptions::default()
            },
        );
        let f = traj.estimate_frequency().expect("no oscillation detected");
        assert!(
            (f / est - 1.0).abs() < 0.5,
            "LLG f = {f:.3e} Hz vs estimate {est:.3e} Hz"
        );
    }

    #[test]
    fn sensor_llg_equilibrium_matches_stoner_wohlfarth() {
        let dev = MssDevice::sensor(MssStack::builder().build().unwrap()).unwrap();
        let h_z = 0.3 * dev.sensor_linear_range();
        let expected = dev.equilibrium_mz(h_z).unwrap();
        let sim = LlgSimulator::new(&dev).with_applied_field(Vec3::new(0.0, 0.0, h_z));
        // Start in-plane and relax.
        let traj = sim.run(Vec3::unit_x(), 20e-9, &LlgOptions::default());
        let mz = traj.tail_mean_mz(0.2);
        assert!(
            (mz - expected).abs() < 0.05,
            "LLG mz = {mz} vs Stoner-Wohlfarth {expected}"
        );
    }

    #[test]
    fn thermal_equilibrium_satisfies_equipartition() {
        // <theta^2> = 1/Delta for the bistable well (two transverse modes).
        let dev = memory_device();
        let delta = dev.stack().thermal_stability();
        let sim = LlgSimulator::new(&dev);
        let opts = LlgOptions {
            dt: 1e-12,
            record_every: 5,
            thermal: true,
            seed: 1234,
        };
        let traj = sim.run(Vec3::unit_z(), 80e-9, &opts);
        let rms = traj.tail_rms_polar_angle(0.8);
        let expected = (1.0 / delta).sqrt();
        assert!(
            (rms / expected - 1.0).abs() < 0.35,
            "rms theta = {rms:.4} vs equipartition {expected:.4}"
        );
    }

    #[test]
    fn thermal_runs_are_seed_deterministic() {
        let dev = memory_device();
        let sim = LlgSimulator::new(&dev);
        let opts = LlgOptions {
            thermal: true,
            seed: 7,
            ..LlgOptions::default()
        };
        let a = sim.run(Vec3::unit_z(), 1e-9, &opts);
        let b = sim.run(Vec3::unit_z(), 1e-9, &opts);
        assert_eq!(a.final_m(), b.final_m());
        let other = sim.run(Vec3::unit_z(), 1e-9, &LlgOptions { seed: 8, ..opts });
        assert_ne!(a.final_m(), other.final_m());
    }

    #[test]
    fn current_sweep_speeds_up_with_overdrive() {
        let dev = memory_device();
        let sw = SwitchingModel::new(dev.stack());
        let ic = sw.critical_current();
        let sim = LlgSimulator::new(&dev);
        let theta0 = std::f64::consts::PI - dev.stack().thermal_angle();
        let m0 = Vec3::from_spherical(theta0, 0.0);
        let points = sim.current_sweep(
            &[2.0 * ic, 4.0 * ic],
            m0,
            60e-9,
            0.0,
            &LlgOptions::default(),
            &ParallelConfig::serial().with_threads(2),
        );
        let t_low = points[0].switching_time.expect("2*Ic should switch");
        let t_high = points[1].switching_time.expect("4*Ic should switch");
        assert!(
            t_high < t_low,
            "overdrive should switch faster: {t_high} vs {t_low}"
        );
    }

    #[test]
    fn thermal_ensemble_is_thread_count_invariant() {
        let dev = memory_device();
        let sw = SwitchingModel::new(dev.stack());
        let sim = LlgSimulator::new(&dev).with_current(2.5 * sw.critical_current());
        let theta0 = std::f64::consts::PI - dev.stack().thermal_angle();
        let m0 = Vec3::from_spherical(theta0, 0.0);
        let opts = LlgOptions {
            seed: 42,
            ..LlgOptions::default()
        };
        let run = |threads| {
            sim.thermal_ensemble(
                6,
                m0,
                30e-9,
                0.0,
                &opts,
                &ParallelConfig::serial().with_threads(threads),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial.runs, 6);
        assert!(
            serial.switching_probability() > 0.5,
            "overdriven writes should mostly switch"
        );
        assert!(serial.switching_probability() <= 1.0);
    }

    #[test]
    fn trajectory_helpers() {
        let sim = LlgSimulator::new(&memory_device());
        let traj = sim.run(Vec3::from_spherical(0.2, 0.0), 1e-9, &LlgOptions::default());
        assert!(!traj.is_empty());
        assert!(traj.len() >= 2);
        assert_eq!(traj.times().len(), traj.magnetization().len());
        assert!(traj.times().windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn sot_torque_pulls_magnetization_toward_sigma() {
        use crate::mechanism::{SotMechanism, SotParams};
        let dev = memory_device();
        let params = SotParams::default();
        let sot = SotMechanism::new(dev.stack(), params.clone()).unwrap();
        let i_ch = 3.0 * sot.switching_model().critical_current();
        let sim = LlgSimulator::new(&dev).with_sot_current(i_ch, &params);
        // Start near -z; a strong damping-like SOT torque rotates m toward
        // +y, destabilising the easy axis (the precursor to a switch).
        let theta0 = std::f64::consts::PI - dev.stack().thermal_angle();
        let m0 = Vec3::from_spherical(theta0, 0.0);
        let traj = sim.run(
            m0,
            2e-9,
            &LlgOptions {
                dt: 0.2e-12,
                record_every: 1,
                ..LlgOptions::default()
            },
        );
        let pulled = traj
            .magnetization()
            .iter()
            .map(|m| m.y)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(pulled > 0.5, "max m_y = {pulled}");
        assert!(
            traj.final_m().z > -0.99,
            "easy axis should be destabilised: mz = {}",
            traj.final_m().z
        );
    }

    #[test]
    fn negative_channel_current_flips_sigma() {
        use crate::mechanism::{SotMechanism, SotParams};
        let dev = memory_device();
        let params = SotParams::default();
        let sot = SotMechanism::new(dev.stack(), params.clone()).unwrap();
        let i_ch = 3.0 * sot.switching_model().critical_current();
        let m0 = Vec3::from_spherical(std::f64::consts::PI - dev.stack().thermal_angle(), 0.0);
        let opts = LlgOptions {
            dt: 0.2e-12,
            record_every: 1,
            ..LlgOptions::default()
        };
        let pos = LlgSimulator::new(&dev)
            .with_sot_current(i_ch, &params)
            .run(m0, 1e-9, &opts);
        let neg = LlgSimulator::new(&dev)
            .with_sot_current(-i_ch, &params)
            .run(m0, 1e-9, &opts);
        let max_y = |t: &Trajectory| {
            t.magnetization()
                .iter()
                .map(|m| m.y)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let min_y = |t: &Trajectory| {
            t.magnetization()
                .iter()
                .map(|m| m.y)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(max_y(&pos) > 0.5, "positive current pulls +y");
        assert!(min_y(&neg) < -0.5, "negative current pulls -y");
    }

    #[test]
    fn zero_sot_field_is_bit_identical_to_plain_run() {
        // The SOT fields default to zero; the rhs must be numerically
        // untouched so historic STT trajectories do not move.
        let dev = memory_device();
        let sw = SwitchingModel::new(dev.stack());
        let i = 2.0 * sw.critical_current();
        let m0 = Vec3::from_spherical(std::f64::consts::PI - dev.stack().thermal_angle(), 0.2);
        let plain = LlgSimulator::new(&dev)
            .with_current(i)
            .run(m0, 5e-9, &LlgOptions::default());
        let with_zero_sot = {
            let mut sim = LlgSimulator::new(&dev).with_current(i);
            sim.sot_field_like_ratio = 0.7; // irrelevant while sot_field == 0
            sim.run(m0, 5e-9, &LlgOptions::default())
        };
        assert_eq!(plain.final_m(), with_zero_sot.final_m());
        assert_eq!(plain.magnetization(), with_zero_sot.magnetization());
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let sim = LlgSimulator::new(&memory_device());
        let _ = sim.run(
            Vec3::unit_z(),
            1e-9,
            &LlgOptions {
                dt: 0.0,
                ..LlgOptions::default()
            },
        );
    }
}
