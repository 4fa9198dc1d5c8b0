//! Source waveforms: DC, pulse and piecewise-linear stimuli.

/// A time-dependent source value.
///
/// # Examples
///
/// ```
/// use mss_spice::waveform::Waveform;
///
/// let w = Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 5e-9, 10e-9);
/// assert_eq!(w.eval(0.0), 0.0);
/// assert_eq!(w.eval(2e-9), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE-style periodic pulse.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Pulse width (time at `v2`), seconds.
        width: f64,
        /// Repetition period, seconds (0 = single pulse).
        period: f64,
    },
    /// Piecewise-linear `(time, value)` points; clamps outside the range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Constant source.
    pub fn dc(v: f64) -> Self {
        Waveform::Dc(v)
    }

    /// SPICE `PULSE(v1 v2 delay rise fall width period)`.
    pub fn pulse(
        v1: f64,
        v2: f64,
        delay: f64,
        rise: f64,
        fall: f64,
        width: f64,
        period: f64,
    ) -> Self {
        Waveform::Pulse {
            v1,
            v2,
            delay,
            rise,
            fall,
            width,
            period,
        }
    }

    /// Piecewise-linear waveform from `(t, v)` points (must be time-sorted).
    pub fn pwl(points: Vec<(f64, f64)>) -> Self {
        Waveform::Pwl(points)
    }

    /// Evaluates the waveform at time `t` seconds.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                let rise = rise.max(1e-15);
                let fall = fall.max(1e-15);
                if tau < rise {
                    v1 + (v2 - v1) * tau / rise
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    v2 + (v1 - v2) * (tau - rise - width) / fall
                } else {
                    *v1
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                let last = points[points.len() - 1];
                if t >= last.0 {
                    return last.1;
                }
                let idx = points.partition_point(|p| p.0 < t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 <= t0 {
                    return v1;
                }
                v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            }
        }
    }

    /// The DC (t = 0⁻) value used for the operating point.
    #[cfg(test)]
    pub(crate) fn dc_value(&self) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse { v1, .. } => *v1,
            Waveform::Pwl(points) => points.first().map(|p| p.1).unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(2.5);
        assert_eq!(w.eval(0.0), 2.5);
        assert_eq!(w.eval(1.0), 2.5);
        assert_eq!(w.dc_value(), 2.5);
    }

    #[test]
    fn pulse_edges() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 0.2e-9, 0.2e-9, 2e-9, 0.0);
        assert_eq!(w.eval(0.5e-9), 0.0);
        assert!((w.eval(1.1e-9) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.eval(2e-9), 1.0); // flat top
        assert!((w.eval(3.3e-9) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.eval(5e-9), 0.0); // back low
    }

    #[test]
    fn pulse_repeats_with_period() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.1e-9, 0.1e-9, 1e-9, 4e-9);
        assert_eq!(w.eval(0.5e-9), 1.0);
        assert_eq!(w.eval(4.5e-9), 1.0);
        assert_eq!(w.eval(2.5e-9), 0.0);
        assert_eq!(w.eval(6.5e-9), 0.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0), (2e-9, -1.0)]);
        assert_eq!(w.eval(-1.0), 0.0);
        assert!((w.eval(0.5e-9) - 0.5).abs() < 1e-12);
        assert!((w.eval(1.5e-9) - 0.0).abs() < 1e-12);
        assert_eq!(w.eval(5e-9), -1.0);
    }

    #[test]
    fn empty_pwl_is_zero() {
        let w = Waveform::pwl(vec![]);
        assert_eq!(w.eval(1.0), 0.0);
        assert_eq!(w.dc_value(), 0.0);
    }
}
