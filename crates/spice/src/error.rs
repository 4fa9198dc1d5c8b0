//! Error type for the circuit simulator.

use std::fmt;

/// One failed attempt in a solver retry ladder (see
/// [`crate::analysis::SolverOptions`]): which strategy ran, how many Newton
/// iterations it spent, and how far from converged it stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryAttempt {
    /// Strategy label: `"newton"`, `"gmin=1.0e-4"`, `"source-alpha=0.30"`,
    /// `"dt=5.0e-13"`.
    pub(crate) strategy: String,
    /// Newton iterations spent before giving up.
    pub(crate) iterations: usize,
    /// Largest voltage update (volts) of the final iteration — how far the
    /// iterate still was from the convergence tolerance.
    pub(crate) max_dv: f64,
}

impl fmt::Display for RetryAttempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} iterations, max dv = {:.3e} V)",
            self.strategy, self.iterations, self.max_dv
        )
    }
}

/// Errors produced while building, parsing or simulating a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// A referenced node name does not exist in the netlist.
    UnknownNode(String),
    /// An element name was used twice.
    DuplicateElement(String),
    /// An element parameter is unphysical (negative resistance, ...).
    InvalidElement {
        /// Element name.
        name: String,
        /// What is wrong with it.
        reason: String,
    },
    /// Netlist text could not be parsed.
    Parse {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A `{param}` placeholder had no binding during template expansion.
    UnboundTemplateParameter(String),
    /// The MNA matrix is singular (floating subcircuit, V-source loop, ...).
    SingularMatrix,
    /// Newton iteration did not converge (single attempt, no ladder).
    NoConvergence {
        /// Which analysis failed.
        analysis: &'static str,
        /// Time point for transient failures (seconds), `None` for DC.
        time: Option<f64>,
        /// Newton iterations spent before giving up.
        iterations: usize,
        /// Largest voltage update (volts) of the final iteration.
        max_dv: f64,
    },
    /// Every stage of the convergence retry ladder failed (plain Newton,
    /// then gmin stepping / source stepping for DC or step halving for
    /// transient). The attempts record the full retry history in order.
    RetryLadderExhausted {
        /// Which analysis failed.
        analysis: &'static str,
        /// Time point for transient failures (seconds), `None` for DC.
        time: Option<f64>,
        /// Every failed attempt, in the order it was tried.
        attempts: Vec<RetryAttempt>,
    },
    /// A measurement could not be evaluated (missing crossing, bad window).
    Measurement {
        /// Measurement name.
        name: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
            SpiceError::DuplicateElement(n) => write!(f, "duplicate element '{n}'"),
            SpiceError::InvalidElement { name, reason } => {
                write!(f, "invalid element '{name}': {reason}")
            }
            SpiceError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            SpiceError::UnboundTemplateParameter(p) => {
                write!(f, "unbound template parameter '{{{p}}}'")
            }
            SpiceError::SingularMatrix => write!(f, "singular MNA matrix"),
            SpiceError::NoConvergence {
                analysis,
                time,
                iterations,
                max_dv,
            } => {
                match time {
                    Some(t) => write!(f, "{analysis} failed to converge at t = {t:.3e} s")?,
                    None => write!(f, "{analysis} failed to converge")?,
                }
                write!(
                    f,
                    " after {iterations} iterations (max dv = {max_dv:.3e} V)"
                )
            }
            SpiceError::RetryLadderExhausted {
                analysis,
                time,
                attempts,
            } => {
                match time {
                    Some(t) => write!(
                        f,
                        "{analysis} retry ladder exhausted at t = {t:.3e} s after {} attempts",
                        attempts.len()
                    )?,
                    None => write!(
                        f,
                        "{analysis} retry ladder exhausted after {} attempts",
                        attempts.len()
                    )?,
                }
                if let Some(last) = attempts.last() {
                    write!(f, "; last: {last}")?;
                }
                Ok(())
            }
            SpiceError::Measurement { name, reason } => {
                write!(f, "measurement '{name}' failed: {reason}")
            }
        }
    }
}

impl std::error::Error for SpiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SpiceError::UnknownNode("x".into())
            .to_string()
            .contains("x"));
        assert!(SpiceError::SingularMatrix.to_string().contains("singular"));
        let e = SpiceError::NoConvergence {
            analysis: "transient",
            time: Some(1e-9),
            iterations: 200,
            max_dv: 0.125,
        };
        let msg = e.to_string();
        assert!(msg.contains("transient"));
        assert!(msg.contains("200 iterations"));
        assert!(msg.contains("1.250e-1"));
    }

    #[test]
    fn ladder_display_names_last_attempt() {
        let e = SpiceError::RetryLadderExhausted {
            analysis: "dc operating point",
            time: None,
            attempts: vec![
                RetryAttempt {
                    strategy: "newton".into(),
                    iterations: 3,
                    max_dv: 0.7,
                },
                RetryAttempt {
                    strategy: "source-alpha=0.10".into(),
                    iterations: 3,
                    max_dv: 0.2,
                },
            ],
        };
        let msg = e.to_string();
        assert!(msg.contains("2 attempts"));
        assert!(msg.contains("source-alpha=0.10"));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<SpiceError>();
    }
}
