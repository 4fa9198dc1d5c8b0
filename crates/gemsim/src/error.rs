//! Error type for the system simulator.

use std::fmt;

/// Errors produced while configuring or running a system simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum GemsimError {
    /// A cache configuration is inconsistent.
    InvalidCache {
        /// Cache name.
        name: String,
        /// What is wrong.
        reason: String,
    },
    /// A platform configuration is inconsistent (no cores, no clusters...).
    InvalidSystem {
        /// What is wrong.
        reason: String,
    },
    /// A workload specification is inconsistent.
    InvalidWorkload {
        /// What is wrong.
        reason: String,
    },
    /// The run's deadline passed and it bailed out at a chunk boundary
    /// before completing.
    Cancelled,
}

impl fmt::Display for GemsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemsimError::InvalidCache { name, reason } => {
                write!(f, "invalid cache '{name}': {reason}")
            }
            GemsimError::InvalidSystem { reason } => write!(f, "invalid system: {reason}"),
            GemsimError::InvalidWorkload { reason } => write!(f, "invalid workload: {reason}"),
            GemsimError::Cancelled => write!(f, "simulation cancelled"),
        }
    }
}

impl std::error::Error for GemsimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = GemsimError::InvalidCache {
            name: "l2".into(),
            reason: "zero ways".into(),
        };
        assert!(e.to_string().contains("l2"));
    }
}
