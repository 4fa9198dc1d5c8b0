//! Measurement Descriptive Language (MDL): extract cell-level parameters
//! from transient waveforms.
//!
//! The paper's flow creates "a template file for the netlist, stimulus and
//! Measurement Descriptive Language (MDL)", runs SPICE, and parses the
//! output measurement file. [`Measurement`] is the spec — a delay between
//! two crossings, a source's energy, a windowed average or a crossing
//! time — built in code by the characterisation flow and evaluated against
//! a [`crate::analysis::TransientResult`]. No text measurement file sits in
//! between: the evaluated values go straight into the cell library, and
//! `mss-pdk` stores that library as the one cell-configuration file (the
//! `CharacterizeCells` stage artifact).

use crate::analysis::TransientResult;
use crate::SpiceError;

/// What signal a measurement probes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Probe {
    /// Voltage of a named node.
    NodeVoltage(String),
    /// Branch current of a named voltage source (MNA sign convention).
    SourceCurrent(String),
    /// State trace of a named MTJ (`+1` parallel, `-1` antiparallel).
    MtjState(String),
}

impl Probe {
    /// Fetches the probed waveform from a transient result.
    ///
    /// # Errors
    ///
    /// Unknown probe targets surface as [`SpiceError::UnknownNode`].
    pub(crate) fn signal<'a>(&self, result: &'a TransientResult) -> Result<&'a [f64], SpiceError> {
        match self {
            Probe::NodeVoltage(n) => result.node_voltage(n),
            Probe::SourceCurrent(n) => result.source_current(n),
            Probe::MtjState(n) => result.mtj_state(n),
        }
    }
}

/// Crossing direction for threshold-based measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Low-to-high crossing.
    Rise,
    /// High-to-low crossing.
    Fall,
    /// Either direction.
    Either,
}

/// One measurement specification.
#[derive(Debug, Clone, PartialEq)]
pub enum Measurement {
    /// Time from a trigger crossing to a target crossing (propagation delay).
    Delay {
        /// Report key.
        name: String,
        /// Trigger signal.
        trig: Probe,
        /// Trigger threshold.
        trig_value: f64,
        /// Trigger direction.
        trig_edge: Edge,
        /// Target signal.
        targ: Probe,
        /// Target threshold.
        targ_value: f64,
        /// Target direction.
        targ_edge: Edge,
    },
    /// Energy delivered by a voltage source over a window:
    /// `∫ v(t)·(−i(t)) dt` (positive when the source powers the circuit).
    Energy {
        /// Report key.
        name: String,
        /// Voltage source name.
        source: String,
        /// Window start, seconds.
        from: f64,
        /// Window end, seconds.
        to: f64,
    },
    /// Time-average of a signal over a window.
    Average {
        /// Report key.
        name: String,
        /// Probed signal.
        probe: Probe,
        /// Window start, seconds.
        from: f64,
        /// Window end, seconds.
        to: f64,
    },
    /// Time of the n-th threshold crossing.
    CrossTime {
        /// Report key.
        name: String,
        /// Probed signal.
        probe: Probe,
        /// Threshold.
        value: f64,
        /// Direction.
        edge: Edge,
        /// Which crossing (1-based).
        nth: usize,
    },
}

impl Measurement {
    /// Evaluates the measurement against a transient result.
    ///
    /// # Errors
    ///
    /// [`SpiceError::Measurement`] when a crossing never happens or the
    /// window is empty; unknown probes surface as
    /// [`SpiceError::UnknownNode`].
    pub fn evaluate(&self, result: &TransientResult) -> Result<f64, SpiceError> {
        let times = result.times();
        match self {
            Measurement::Delay {
                name,
                trig,
                trig_value,
                trig_edge,
                targ,
                targ_value,
                targ_edge,
            } => {
                let ts = trig.signal(result)?;
                let t_trig = nth_crossing(times, ts, *trig_value, *trig_edge, 1, 0.0)
                    .ok_or_else(|| measurement_err(name, "trigger never crossed"))?;
                let vs = targ.signal(result)?;
                let t_targ = nth_crossing(times, vs, *targ_value, *targ_edge, 1, t_trig)
                    .ok_or_else(|| measurement_err(name, "target never crossed after trigger"))?;
                Ok(t_targ - t_trig)
            }
            Measurement::Energy {
                name,
                source,
                from,
                to,
            } => {
                let i = result.source_current(source)?;
                let v = result.source_voltage(source)?;
                integrate_window(times, &v, i, *from, *to)
                    .ok_or_else(|| measurement_err(name, "empty integration window"))
            }
            Measurement::Average {
                name,
                probe,
                from,
                to,
            } => window_average(times, probe.signal(result)?, *from, *to)
                .ok_or_else(|| measurement_err(name, "empty window")),
            Measurement::CrossTime {
                name,
                probe,
                value,
                edge,
                nth,
            } => nth_crossing(times, probe.signal(result)?, *value, *edge, *nth, 0.0)
                .ok_or_else(|| measurement_err(name, "crossing not found")),
        }
    }
}

fn measurement_err(name: &str, reason: &str) -> SpiceError {
    SpiceError::Measurement {
        name: name.to_string(),
        reason: reason.to_string(),
    }
}

/// Finds the time of the `nth` crossing of `value` after `t_min`.
fn nth_crossing(
    times: &[f64],
    signal: &[f64],
    value: f64,
    edge: Edge,
    nth: usize,
    t_min: f64,
) -> Option<f64> {
    let mut count = 0;
    for k in 1..signal.len() {
        if times[k] < t_min {
            continue;
        }
        let (a, b) = (signal[k - 1], signal[k]);
        let rising = a < value && b >= value;
        let falling = a > value && b <= value;
        let hit = match edge {
            Edge::Rise => rising,
            Edge::Fall => falling,
            Edge::Either => rising || falling,
        };
        if hit {
            count += 1;
            if count == nth {
                let frac = if (b - a).abs() < 1e-300 {
                    0.0
                } else {
                    (value - a) / (b - a)
                };
                return Some(times[k - 1] + frac * (times[k] - times[k - 1]));
            }
        }
    }
    None
}

/// Trapezoidal ∫ v·(−i) dt over `[from, to]`.
fn integrate_window(times: &[f64], v: &[f64], i: &[f64], from: f64, to: f64) -> Option<f64> {
    let mut acc = 0.0;
    let mut any = false;
    for k in 1..times.len() {
        let (t0, t1) = (times[k - 1], times[k]);
        if t1 < from || t0 > to {
            continue;
        }
        any = true;
        let p0 = v[k - 1] * -i[k - 1];
        let p1 = v[k] * -i[k];
        acc += 0.5 * (p0 + p1) * (t1 - t0);
    }
    any.then_some(acc)
}

/// Trapezoidal time-average of a signal over `[from, to]`.
fn window_average(times: &[f64], signal: &[f64], from: f64, to: f64) -> Option<f64> {
    let (mut sum, mut duration) = (0.0, 0.0);
    for k in 1..times.len() {
        let (t0, t1) = (times[k - 1], times[k]);
        if t1 < from || t0 > to {
            continue;
        }
        let dt = t1 - t0;
        sum += 0.5 * (signal[k - 1] + signal[k]) * dt;
        duration += dt;
    }
    (duration != 0.0).then(|| sum / duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Transient, TransientOptions};
    use crate::netlist::Netlist;
    use crate::waveform::Waveform;

    fn rc_result() -> TransientResult {
        let mut nl = Netlist::new();
        nl.add_vsource(
            "vin",
            "in",
            "0",
            Waveform::pulse(0.0, 1.0, 1e-9, 1e-11, 1e-11, 1.0, 0.0),
        )
        .unwrap();
        nl.add_resistor("r1", "in", "out", 1e3).unwrap();
        nl.add_capacitor("c1", "out", "0", 1e-12).unwrap();
        Transient::new(&nl)
            .run(&TransientOptions::new(1e-12, 8e-9))
            .unwrap()
    }

    #[test]
    fn delay_measures_rc_half_crossing() {
        let res = rc_result();
        let m = Measurement::Delay {
            name: "tpd".into(),
            trig: Probe::NodeVoltage("in".into()),
            trig_value: 0.5,
            trig_edge: Edge::Rise,
            targ: Probe::NodeVoltage("out".into()),
            targ_value: 0.5,
            targ_edge: Edge::Rise,
        };
        let d = m.evaluate(&res).unwrap();
        // RC 50% delay = ln(2)*tau = 0.693 ns.
        assert!((d - 0.693e-9).abs() < 0.03e-9, "delay = {d}");
    }

    #[test]
    fn energy_of_source_is_positive_and_sane() {
        let res = rc_result();
        let m = Measurement::Energy {
            name: "e".into(),
            source: "vin".into(),
            from: 0.0,
            to: 8e-9,
        };
        // Total energy to charge C through R = C*V^2 (half stored, half
        // dissipated) = 1e-12 J.
        let e = m.evaluate(&res).unwrap();
        assert!(e > 0.8e-12 && e < 1.1e-12, "energy = {e}");
        // Unknown source names fail cleanly.
        let bad = Measurement::Energy {
            name: "e2".into(),
            source: "nope".into(),
            from: 0.0,
            to: 8e-9,
        };
        assert!(bad.evaluate(&res).is_err());
    }

    #[test]
    fn average_weights_each_level_by_its_time() {
        let res = rc_result();
        let average = |from, to| {
            Measurement::Average {
                name: "av".into(),
                probe: Probe::NodeVoltage("in".into()),
                from,
                to,
            }
            .evaluate(&res)
            .unwrap()
        };
        // Low for the first 1 ns, high after: ~7/8 of the whole window.
        let whole = average(0.0, 8e-9);
        assert!(whole > 0.8 && whole < 0.95, "{whole}");
        assert_eq!(average(0.0, 0.5e-9), 0.0);
        assert_eq!(average(2e-9, 8e-9), 1.0);
    }

    #[test]
    fn final_value_and_cross_time() {
        let res = rc_result();
        // The RC output settles to the 1 V input by the last sample.
        let f = *res.node_voltage("out").unwrap().last().unwrap();
        assert!((f - 1.0).abs() < 1e-2);
        let t = Measurement::CrossTime {
            name: "tc".into(),
            probe: Probe::NodeVoltage("in".into()),
            value: 0.5,
            edge: Edge::Rise,
            nth: 1,
        }
        .evaluate(&res)
        .unwrap();
        assert!((t - 1e-9).abs() < 0.05e-9);
    }

    #[test]
    fn missing_crossing_is_a_measurement_error() {
        let res = rc_result();
        let m = Measurement::CrossTime {
            name: "never".into(),
            probe: Probe::NodeVoltage("out".into()),
            value: 5.0,
            edge: Edge::Rise,
            nth: 1,
        };
        assert!(matches!(
            m.evaluate(&res),
            Err(SpiceError::Measurement { .. })
        ));
    }
}
