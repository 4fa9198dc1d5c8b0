//! Temperature-aware reliability analysis over the IoT operating range.
//!
//! The paper positions the MSS for battery-powered IoT platforms, which
//! must hold data and meet error-rate targets across the industrial
//! temperature range (−40 °C … +85 °C). The thermal stability factor
//! Δ = E_b/(k_B·T) shrinks linearly as the die heats up, dragging
//! retention, read-disturb immunity and write margins with it. This module
//! sweeps the full flow (characterisation → margins → disturb) over
//! temperature.

use mss_mtj::reliability;

use mss_units::consts::celsius_to_kelvin;

use crate::context::VaetContext;
use crate::margins::WriteMarginSolver;
use crate::VaetError;

/// The flow's reliability picture at one operating temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperaturePoint {
    /// Die temperature, kelvin.
    pub temperature: f64,
    /// Thermal stability factor Δ at this temperature.
    pub delta: f64,
    /// Néel–Brown retention, seconds.
    pub retention_seconds: f64,
    /// Critical current, amperes.
    pub(crate) critical_current: f64,
    /// Write latency meeting the word-level WER target under variation,
    /// seconds.
    pub margined_write_latency: f64,
    /// Read-disturb probability for a 5 ns read at the standard read bias.
    pub read_disturb_5ns: f64,
}

/// The industrial IoT temperature corners in kelvin: −40, 25, 85, 125 °C.
pub fn iot_corners() -> Vec<f64> {
    [-40.0, 25.0, 85.0, 125.0]
        .into_iter()
        .map(celsius_to_kelvin)
        .collect()
}

/// Sweeps the reliability picture across `temperatures` (kelvin) for a
/// context's stack and organisation.
///
/// Each point re-characterises the cell at that temperature (the switching
/// current and latency shift with Δ), rebuilds the nominal estimate and
/// re-solves the write margin.
///
/// # Errors
///
/// Propagates characterisation and margin-solver failures.
pub fn temperature_sweep(
    base: &VaetContext,
    temperatures: &[f64],
    wer_target: f64,
) -> Result<Vec<TemperaturePoint>, VaetError> {
    let mut points = Vec::with_capacity(temperatures.len());
    for &t in temperatures {
        let stack = base.stack.with_temperature(t).map_err(VaetError::Device)?;
        let ctx = VaetContext::build(base.tech.node, stack.clone(), base.config)?;
        let margin = WriteMarginSolver::new(&ctx)?.latency_for_wer(wer_target)?;
        points.push(TemperaturePoint {
            temperature: t,
            delta: stack.thermal_stability(),
            retention_seconds: reliability::retention_seconds(&stack),
            critical_current: stack.critical_current(),
            margined_write_latency: margin.latency,
            read_disturb_5ns: reliability::read_disturb_probability(
                &stack,
                5e-9,
                ctx.read_disturb_current(),
            ),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_pdk::tech::TechNode;

    #[test]
    fn hotter_means_less_stable() {
        let base = VaetContext::standard(TechNode::N45).unwrap();
        let temps = [
            celsius_to_kelvin(-40.0),
            celsius_to_kelvin(25.0),
            celsius_to_kelvin(85.0),
        ];
        let pts = temperature_sweep(&base, &temps, 1e-9).unwrap();
        assert_eq!(pts.len(), 3);
        for w in pts.windows(2) {
            // Δ and retention fall with temperature; disturb rises.
            assert!(w[1].delta < w[0].delta);
            assert!(w[1].retention_seconds < w[0].retention_seconds);
            assert!(w[1].read_disturb_5ns >= w[0].read_disturb_5ns);
            // The zero-temperature critical current depends only on the
            // (temperature-independent) energy barrier in this model.
            assert!((w[1].critical_current - w[0].critical_current).abs() < 1e-12);
        }
        // Room-temperature retention is still in the decades.
        let room = &pts[1];
        assert!(room.retention_seconds > 10.0 * 365.25 * 86400.0);
        // Every corner still closes its margin.
        for p in &pts {
            assert!(p.margined_write_latency.is_finite() && p.margined_write_latency > 0.0);
        }
    }

    #[test]
    fn iot_corners_are_sane() {
        let c = iot_corners();
        assert_eq!(c.len(), 4);
        assert!((c[0] - 233.15).abs() < 1e-9);
        assert!((c[2] - 358.15).abs() < 1e-9);
    }
}
