//! Error type for the variation-aware estimator.

use std::fmt;

use mss_mtj::MtjError;
use mss_nvsim::NvsimError;
use mss_pdk::PdkError;

/// Errors produced by VAET-STT analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum VaetError {
    /// Characterisation / PDK failure.
    Pdk(PdkError),
    /// Array-estimation failure.
    Nvsim(NvsimError),
    /// Device-model failure.
    Device(MtjError),
    /// A target error rate is unreachable with the given design (e.g. the
    /// sense signal cannot clear the offset at any latency).
    UnreachableTarget {
        /// Which quantity was being solved for.
        quantity: &'static str,
        /// The requested target.
        target: f64,
        /// Why it cannot be met.
        reason: String,
    },
    /// Invalid analysis options (zero samples, empty word, ...).
    InvalidOptions {
        /// Description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for VaetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VaetError::Pdk(e) => write!(f, "pdk error: {e}"),
            VaetError::Nvsim(e) => write!(f, "nvsim error: {e}"),
            VaetError::Device(e) => write!(f, "device error: {e}"),
            VaetError::UnreachableTarget {
                quantity,
                target,
                reason,
            } => write!(f, "target {quantity} = {target:.3e} unreachable: {reason}"),
            VaetError::InvalidOptions { reason } => write!(f, "invalid options: {reason}"),
        }
    }
}

impl std::error::Error for VaetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VaetError::Pdk(e) => Some(e),
            VaetError::Nvsim(e) => Some(e),
            VaetError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PdkError> for VaetError {
    fn from(e: PdkError) -> Self {
        VaetError::Pdk(e)
    }
}

impl From<NvsimError> for VaetError {
    fn from(e: NvsimError) -> Self {
        VaetError::Nvsim(e)
    }
}

impl From<MtjError> for VaetError {
    fn from(e: MtjError) -> Self {
        VaetError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e: VaetError = NvsimError::NoFeasibleDesign.into();
        assert!(e.to_string().contains("nvsim"));
        assert!(std::error::Error::source(&e).is_some());
        let u = VaetError::UnreachableTarget {
            quantity: "RER",
            target: 1e-20,
            reason: "offset exceeds signal".into(),
        };
        assert!(u.to_string().contains("RER"));
    }
}
