//! AC small-signal (frequency-domain) analysis.
//!
//! The MSS sensor's readout bandwidth and the RF mode's interface circuits
//! need frequency response, not just transients. The analysis:
//!
//! 1. solves the DC operating point (nonlinear devices linearised there),
//! 2. for each frequency assembles the complex MNA system — resistors and
//!    MTJs as real conductances, capacitors as `jωC`, MOSFETs as their
//!    small-signal `(g_m, g_ds)` at the operating point,
//! 3. applies a unit AC excitation to one chosen source (every other source
//!    is AC-grounded) and solves for the complex node voltages.
//!
//! Inductors are not modelled (none of the paper's cells need them; the
//! spin-torque oscillator itself is handled by the LLG model in `mss-mtj`).

use mss_units::complex::Complex;

use crate::analysis::dc_operating_point;
use crate::netlist::{Element, Netlist, NodeId};
use crate::SpiceError;

/// Result of an AC sweep.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    node_names: Vec<String>,
    /// `voltages[f][node]` — complex node voltage at frequency index `f`.
    voltages: Vec<Vec<Complex>>,
}

impl AcResult {
    /// Complex transfer to a node (unit excitation ⇒ this is the transfer
    /// function H(jω)).
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when the node does not exist.
    pub(crate) fn transfer(&self, node: &str) -> Result<Vec<Complex>, SpiceError> {
        let key = node.to_ascii_lowercase();
        let idx = self
            .node_names
            .iter()
            .position(|n| *n == key)
            .ok_or(SpiceError::UnknownNode(key))?;
        Ok(self.voltages.iter().map(|row| row[idx]).collect())
    }

    /// Magnitude response |H| at a node.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when the node does not exist.
    pub(crate) fn magnitude(&self, node: &str) -> Result<Vec<f64>, SpiceError> {
        Ok(self.transfer(node)?.into_iter().map(Complex::abs).collect())
    }

    /// Phase response arg(H) at a node, radians.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownNode`] when the node does not exist.
    #[cfg(test)]
    pub(crate) fn phase(&self, node: &str) -> Result<Vec<f64>, SpiceError> {
        Ok(self.transfer(node)?.into_iter().map(Complex::arg).collect())
    }

    /// The −3 dB corner frequency of a node's magnitude response relative
    /// to its value at the lowest swept frequency; `None` if the response
    /// never drops below 1/√2 of that reference.
    pub fn corner_frequency(&self, node: &str) -> Result<Option<f64>, SpiceError> {
        let mag = self.magnitude(node)?;
        let reference = mag.first().copied().unwrap_or(0.0);
        if reference <= 0.0 {
            return Ok(None);
        }
        let threshold = reference / std::f64::consts::SQRT_2;
        for (k, &m) in mag.iter().enumerate() {
            if m < threshold {
                if k == 0 {
                    return Ok(Some(self.freqs[0]));
                }
                // Log-linear interpolation between the straddling points.
                let (f0, f1) = (self.freqs[k - 1], self.freqs[k]);
                let (m0, m1) = (mag[k - 1], m);
                let t = (m0 - threshold) / (m0 - m1);
                return Ok(Some(f0 * (f1 / f0).powf(t)));
            }
        }
        Ok(None)
    }
}

/// Generates `n` logarithmically spaced frequencies over `[f_start, f_stop]`.
///
/// # Panics
///
/// Panics if the bounds are non-positive or inverted, or `n < 2`.
pub fn log_sweep(f_start: f64, f_stop: f64, n: usize) -> Vec<f64> {
    assert!(
        f_start > 0.0 && f_stop > f_start && n >= 2,
        "bad sweep spec"
    );
    let ratio = (f_stop / f_start).ln();
    (0..n)
        .map(|k| f_start * (ratio * k as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Runs an AC sweep with a unit AC excitation on the named voltage source.
///
/// # Errors
///
/// - [`SpiceError::UnknownNode`] when `ac_source` is not a voltage source
///   in the netlist,
/// - DC-operating-point and solver failures propagate.
pub fn ac_analysis(
    netlist: &Netlist,
    ac_source: &str,
    freqs: &[f64],
) -> Result<AcResult, SpiceError> {
    // 1. Operating point for the small-signal linearisation.
    let dc = dc_operating_point(netlist)?;
    let has_source = netlist
        .elements()
        .iter()
        .any(|e| matches!(e, Element::VSource { name, .. } if name == ac_source));
    if !has_source {
        return Err(SpiceError::UnknownNode(ac_source.to_string()));
    }

    let n_nodes = netlist.node_count() - 1;
    let n_vsrc = netlist.vsource_count();
    let dim = n_nodes + n_vsrc;
    let idx = |n: NodeId| -> Option<usize> { (!n.is_ground()).then(|| n.0 - 1) };
    let vdc = |n: NodeId| -> f64 {
        if n.is_ground() {
            0.0
        } else {
            dc.node_voltage(netlist.node_name(n)).unwrap_or(0.0)
        }
    };

    let node_names: Vec<String> = (0..netlist.node_count())
        .map(|i| netlist.node_name(NodeId(i)).to_string())
        .collect();

    let mut voltages = Vec::with_capacity(freqs.len());
    for &f in freqs {
        let omega = 2.0 * std::f64::consts::PI * f;
        let mut m = vec![vec![Complex::ZERO; dim]; dim];
        let mut rhs = vec![Complex::ZERO; dim];
        let stamp_admittance = |m: &mut Vec<Vec<Complex>>, a: NodeId, b: NodeId, y: Complex| {
            if let Some(ia) = idx(a) {
                m[ia][ia] += y;
                if let Some(ib) = idx(b) {
                    m[ia][ib] += -y;
                    m[ib][ia] += -y;
                    m[ib][ib] += y;
                }
            } else if let Some(ib) = idx(b) {
                m[ib][ib] += y;
            }
        };
        // gmin keeps floating nets solvable, as in the time domain.
        for (i, row) in m.iter_mut().enumerate().take(n_nodes) {
            row[i] += Complex::real(1e-12);
        }
        let mut vk = 0usize;
        for e in netlist.elements() {
            match e {
                Element::Resistor { a, b, ohms, .. } => {
                    stamp_admittance(&mut m, *a, *b, Complex::real(1.0 / ohms));
                }
                Element::Capacitor { a, b, farads, .. } => {
                    stamp_admittance(&mut m, *a, *b, Complex::new(0.0, omega * farads));
                }
                Element::VSource {
                    name, plus, minus, ..
                } => {
                    let row = n_nodes + vk;
                    vk += 1;
                    if let Some(ip) = idx(*plus) {
                        m[ip][row] += Complex::ONE;
                        m[row][ip] += Complex::ONE;
                    }
                    if let Some(im) = idx(*minus) {
                        m[im][row] += -Complex::ONE;
                        m[row][im] += -Complex::ONE;
                    }
                    rhs[row] = if name == ac_source {
                        Complex::ONE
                    } else {
                        Complex::ZERO
                    };
                }
                Element::ISource { .. } => {
                    // Independent current sources are AC-open.
                }
                Element::Mosfet {
                    d,
                    g,
                    s,
                    model,
                    geom,
                    ..
                } => {
                    let op = model.evaluate(geom, vdc(*g) - vdc(*s), vdc(*d) - vdc(*s));
                    stamp_admittance(&mut m, *d, *s, Complex::real(op.gds));
                    // VCCS gm from (g,s) into (d,s).
                    let (di, gi, si) = (idx(*d), idx(*g), idx(*s));
                    if let Some(di) = di {
                        if let Some(gi) = gi {
                            m[di][gi] += Complex::real(op.gm);
                        }
                        if let Some(si) = si {
                            m[di][si] += Complex::real(-op.gm);
                        }
                    }
                    if let Some(si) = si {
                        if let Some(gi) = gi {
                            m[si][gi] += Complex::real(-op.gm);
                        }
                        m[si][si] += Complex::real(op.gm);
                    }
                }
                Element::Mtj {
                    plus,
                    minus,
                    device,
                    ..
                } => {
                    let v = vdc(*plus) - vdc(*minus);
                    stamp_admittance(
                        &mut m,
                        *plus,
                        *minus,
                        Complex::real(1.0 / device.resistance(v)),
                    );
                }
                Element::MtjSot {
                    read,
                    shared,
                    write,
                    channel_ohms,
                    device,
                    ..
                } => {
                    let v = vdc(*read) - vdc(*shared);
                    stamp_admittance(
                        &mut m,
                        *read,
                        *shared,
                        Complex::real(1.0 / device.resistance(v)),
                    );
                    stamp_admittance(&mut m, *shared, *write, Complex::real(1.0 / channel_ohms));
                }
            }
        }
        let x = csolve(m, rhs)?;
        let mut row = Vec::with_capacity(netlist.node_count());
        row.push(Complex::ZERO); // ground
        row.extend_from_slice(&x[..n_nodes]);
        voltages.push(row);
    }

    Ok(AcResult {
        freqs: freqs.to_vec(),
        node_names,
        voltages,
    })
}

/// Complex LU solve with partial pivoting (dense; AC systems here are tiny).
///
/// Singularity follows the real LU's rule (`solver::Workspace::solve`):
/// a pivot below `max|a|·n·ε` is singular, and so is a non-finite solution.
#[allow(clippy::needless_range_loop)]
fn csolve(mut a: Vec<Vec<Complex>>, mut b: Vec<Complex>) -> Result<Vec<Complex>, SpiceError> {
    let n = b.len();
    let scale = a.iter().flatten().map(|v| v.abs()).fold(0.0_f64, f64::max);
    let tol = (scale * n as f64 * f64::EPSILON).max(f64::MIN_POSITIVE);
    for k in 0..n {
        let mut piv = k;
        let mut max = a[k][k].abs();
        for r in (k + 1)..n {
            let v = a[r][k].abs();
            if v > max {
                max = v;
                piv = r;
            }
        }
        if max < tol {
            return Err(SpiceError::SingularMatrix);
        }
        if piv != k {
            a.swap(k, piv);
            b.swap(k, piv);
        }
        let pivot = a[k][k];
        for r in (k + 1)..n {
            let factor = a[r][k] / pivot;
            if factor.abs() == 0.0 {
                continue;
            }
            a[r][k] = Complex::ZERO;
            for c in (k + 1)..n {
                let sub = factor * a[k][c];
                a[r][c] = a[r][c] - sub;
            }
            b[r] = b[r] - factor * b[k];
        }
    }
    let mut x = vec![Complex::ZERO; n];
    for k in (0..n).rev() {
        let mut sum = b[k];
        for c in (k + 1)..n {
            sum = sum - a[k][c] * x[c];
        }
        x[k] = sum / a[k][k];
    }
    if x.iter().any(|v| !v.is_finite()) {
        return Err(SpiceError::SingularMatrix);
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::{MosGeometry, MosModel};
    use crate::waveform::Waveform;

    fn rc_lowpass() -> Netlist {
        let mut nl = Netlist::new();
        nl.add_vsource("vin", "in", "0", Waveform::dc(0.0)).unwrap();
        nl.add_resistor("r1", "in", "out", 1e3).unwrap();
        nl.add_capacitor("c1", "out", "0", 1e-12).unwrap();
        nl
    }

    #[test]
    fn rc_lowpass_corner_frequency() {
        let nl = rc_lowpass();
        // f_c = 1/(2 pi RC) = 159.15 MHz.
        let freqs = log_sweep(1e6, 10e9, 200);
        let ac = ac_analysis(&nl, "vin", &freqs).unwrap();
        let fc = ac.corner_frequency("out").unwrap().expect("corner exists");
        assert!((fc / 159.15e6 - 1.0).abs() < 0.05, "corner = {fc:.3e} Hz");
        // DC gain is unity, high-frequency response rolls off.
        let mag = ac.magnitude("out").unwrap();
        assert!((mag[0] - 1.0).abs() < 1e-3);
        assert!(*mag.last().unwrap() < 0.05);
        // Phase goes from ~0 to ~-90 degrees.
        let ph = ac.phase("out").unwrap();
        assert!(ph[0].abs() < 0.1);
        assert!((ph.last().unwrap() + std::f64::consts::FRAC_PI_2).abs() < 0.1);
    }

    #[test]
    fn rc_highpass_blocks_dc() {
        let mut nl = Netlist::new();
        nl.add_vsource("vin", "in", "0", Waveform::dc(0.0)).unwrap();
        nl.add_capacitor("c1", "in", "out", 1e-12).unwrap();
        nl.add_resistor("r1", "out", "0", 1e3).unwrap();
        let freqs = log_sweep(1e6, 100e9, 120);
        let ac = ac_analysis(&nl, "vin", &freqs).unwrap();
        let mag = ac.magnitude("out").unwrap();
        assert!(mag[0] < 0.05, "low-frequency leak: {}", mag[0]);
        assert!((mag.last().unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn resistive_divider_is_flat() {
        let mut nl = Netlist::new();
        nl.add_vsource("vin", "in", "0", Waveform::dc(0.0)).unwrap();
        nl.add_resistor("r1", "in", "out", 1e3).unwrap();
        nl.add_resistor("r2", "out", "0", 1e3).unwrap();
        let ac = ac_analysis(&nl, "vin", &log_sweep(1e3, 1e12, 40)).unwrap();
        for m in ac.magnitude("out").unwrap() {
            assert!((m - 0.5).abs() < 1e-6);
        }
        assert!(ac.corner_frequency("out").unwrap().is_none());
    }

    #[test]
    fn common_source_amplifier_gain_and_inversion() {
        // NMOS with drain resistor: |H| ~ gm*(RL || ro), 180 deg phase.
        let mut nl = Netlist::new();
        nl.add_vsource("vdd", "vdd", "0", Waveform::dc(1.0))
            .unwrap();
        nl.add_vsource("vin", "in", "0", Waveform::dc(0.7)).unwrap();
        nl.add_resistor("rl", "vdd", "out", 10e3).unwrap();
        let model = MosModel::generic_nmos();
        let geom = MosGeometry {
            width: 1e-6,
            length: 100e-9,
        };
        nl.add_mosfet("m1", "out", "in", "0", model, geom).unwrap();
        let ac = ac_analysis(&nl, "vin", &[1e6]).unwrap();
        let h = ac.transfer("out").unwrap()[0];
        // Expected small-signal gain from the DC operating point.
        let dc = dc_operating_point(&nl).unwrap();
        let op = model.evaluate(&geom, 0.7, dc.node_voltage("out").unwrap());
        let expected = op.gm * (1.0 / (1.0 / 10e3 + op.gds));
        assert!(
            (h.abs() / expected - 1.0).abs() < 0.05,
            "gain {} vs expected {expected}",
            h.abs()
        );
        // Inverting stage.
        assert!((h.arg().abs() - std::f64::consts::PI).abs() < 0.05);
    }

    #[test]
    fn mtj_behaves_as_its_state_resistance() {
        use mss_mtj::resistance::MtjState;
        use mss_mtj::MssStack;
        let stack = MssStack::builder().build().unwrap();
        let mut nl = Netlist::new();
        nl.add_vsource("vin", "in", "0", Waveform::dc(0.0)).unwrap();
        nl.add_resistor("r1", "in", "out", stack.resistance_parallel())
            .unwrap();
        nl.add_mtj("x1", "out", "0", &stack, MtjState::Parallel)
            .unwrap();
        let ac = ac_analysis(&nl, "vin", &[1e6]).unwrap();
        let m = ac.magnitude("out").unwrap()[0];
        // Equal-resistance divider: exactly one half.
        assert!((m - 0.5).abs() < 1e-6, "divider = {m}");
    }

    #[test]
    fn unknown_source_is_rejected() {
        let nl = rc_lowpass();
        assert!(matches!(
            ac_analysis(&nl, "nope", &[1e6]),
            Err(SpiceError::UnknownNode(_))
        ));
    }

    #[test]
    fn log_sweep_endpoints_and_monotonicity() {
        let f = log_sweep(1e3, 1e9, 61);
        assert!((f[0] - 1e3).abs() < 1e-9);
        assert!((f[60] - 1e9).abs() < 1e-3);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn csolve_rejects_an_exactly_singular_system() {
        // Row 2 is 3 × row 1: elimination leaves rounding dust (~1e-17) in
        // the second pivot, far above an absolute 1e-300 floor.
        let c = Complex::real;
        let a = vec![vec![c(0.1), c(0.3)], vec![c(0.3), c(0.9)]];
        assert_eq!(
            csolve(a, vec![c(1.0), c(1.0)]).unwrap_err(),
            SpiceError::SingularMatrix
        );
        // A well-conditioned system of the same scale still solves.
        let a = vec![vec![c(0.1), c(0.3)], vec![c(0.3), c(0.1)]];
        let x = csolve(a, vec![c(0.4), c(0.4)]).unwrap();
        assert!(x.iter().all(|v| (*v - c(1.0)).abs() < 1e-12), "{x:?}");
    }

    #[test]
    #[should_panic(expected = "bad sweep spec")]
    fn bad_sweep_panics() {
        let _ = log_sweep(1e9, 1e3, 10);
    }
}
