//! Error types for the parameter-server runtime.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the parameter-server training engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PsError {
    /// The training configuration is inconsistent (e.g. zero workers).
    InvalidConfig(String),
    /// Training produced a non-finite loss or parameter — the divergence
    /// failure mode the paper observes for ASP in experiment setup 3.
    Diverged {
        /// Global step at which divergence was detected.
        step: u64,
    },
    /// A checkpoint does not match the model it is being restored into.
    CheckpointMismatch(String),
    /// A wire operation exceeded its per-op timeout on every retry.
    Timeout {
        /// Server the operation was addressed to.
        server: usize,
    },
    /// A server's connection broke and could not be re-established.
    ConnLost {
        /// Server the connection belonged to.
        server: usize,
    },
    /// A wire operation kept failing after exhausting its retry budget.
    RetriesExhausted {
        /// Server the operation was addressed to.
        server: usize,
        /// Attempts made (initial send plus retries).
        attempts: u32,
    },
}

impl fmt::Display for PsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsError::InvalidConfig(msg) => write!(f, "invalid training configuration: {msg}"),
            PsError::Diverged { step } => {
                write!(f, "training diverged at step {step} (non-finite loss)")
            }
            PsError::CheckpointMismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            PsError::Timeout { server } => {
                write!(f, "wire operation to server {server} timed out")
            }
            PsError::ConnLost { server } => {
                write!(
                    f,
                    "connection to server {server} lost and not re-established"
                )
            }
            PsError::RetriesExhausted { server, attempts } => write!(
                f,
                "wire operation to server {server} failed after {attempts} attempts"
            ),
        }
    }
}

impl Error for PsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = PsError::Diverged { step: 42 };
        assert_eq!(
            e.to_string(),
            "training diverged at step 42 (non-finite loss)"
        );
        let e = PsError::InvalidConfig("zero workers".into());
        assert!(e.to_string().contains("zero workers"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PsError>();
    }
}
