//! Model checkpoints — the persistence mechanism behind protocol switching.
//!
//! The paper's switch mechanism "leverages TensorFlow's built-in model
//! checkpoint/restore functions for persisting the training progress" (§V).
//! Here a checkpoint captures the flat parameter vector, the optimizer
//! velocity, and the global step, and can round-trip through a compact
//! binary encoding (for the on-disk path).

use crate::error::PsError;

/// A point-in-time snapshot of training state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Global step at which the snapshot was taken.
    pub step: u64,
    /// Flat model parameters.
    pub params: Vec<f32>,
    /// Optimizer velocity (momentum slots), aligned with `params`.
    pub velocity: Vec<f32>,
}

impl Checkpoint {
    /// Creates a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `velocity` lengths differ.
    pub fn new(step: u64, params: Vec<f32>, velocity: Vec<f32>) -> Self {
        assert_eq!(
            params.len(),
            velocity.len(),
            "params/velocity length mismatch"
        );
        Checkpoint {
            step,
            params,
            velocity,
        }
    }

    /// Number of parameters captured.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Validates this checkpoint against an expected parameter count.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::CheckpointMismatch`] when the parameter or the
    /// velocity count differs (the fields are public, so they can disagree).
    pub fn check_compatible(&self, expected_params: usize) -> Result<(), PsError> {
        let (params, velocity) = (self.params.len(), self.velocity.len());
        if params != expected_params || velocity != expected_params {
            return Err(PsError::CheckpointMismatch(format!(
                "checkpoint has {params} params and {velocity} velocity slots, \
                 model expects {expected_params}"
            )));
        }
        Ok(())
    }

    /// Serializes to a compact little-endian binary blob:
    /// `step (u64) | n (u64) | params (n × f32) | velocity (n × f32)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.params.len();
        let mut out = Vec::with_capacity(16 + 8 * n);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        for &p in &self.params {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for &v in &self.velocity {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Deserializes from the [`Checkpoint::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::CheckpointMismatch`] on truncated or malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PsError> {
        let header = 16;
        if bytes.len() < header {
            return Err(PsError::CheckpointMismatch("truncated header".into()));
        }
        let step = u64::from_le_bytes(bytes[0..8].try_into().expect("sized"));
        let n = u64::from_le_bytes(bytes[8..16].try_into().expect("sized"));
        // Checked: `n` is untrusted, and `8 * n` can overflow.
        let body = usize::try_from(n).ok().and_then(|n| n.checked_mul(8));
        if body != Some(bytes.len() - header) {
            return Err(PsError::CheckpointMismatch(format!(
                "expected 8 bytes per param for {n} params after the header, got {} bytes",
                bytes.len() - header
            )));
        }
        let n = n as usize;
        let read_f32s = |range: std::ops::Range<usize>| -> Vec<f32> {
            bytes[range]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("sized")))
                .collect()
        };
        let params = read_f32s(header..header + 4 * n);
        let velocity = read_f32s(header + 4 * n..header + 8 * n);
        Ok(Checkpoint {
            step,
            params,
            velocity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_round_trip() {
        let ck = Checkpoint::new(12345, vec![1.5, -2.25, 0.0], vec![0.1, 0.2, -0.3]);
        let bytes = ck.to_bytes();
        assert_eq!(bytes.len(), 16 + 8 * 3);
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn truncated_bytes_rejected() {
        let ck = Checkpoint::new(1, vec![1.0], vec![0.0]);
        let mut bytes = ck.to_bytes();
        bytes.pop();
        assert!(Checkpoint::from_bytes(&bytes).is_err());
        assert!(Checkpoint::from_bytes(&bytes[..8]).is_err());
        // A bare header claiming 2^61 params, whose 8 × 2^61 bytes overflow
        // usize: a mismatch, not an arithmetic panic.
        bytes[8..16].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes[..16]).unwrap_err();
        assert!(matches!(err, PsError::CheckpointMismatch(_)), "{err}");
    }

    #[test]
    fn compatibility_check() {
        let ck = Checkpoint::new(0, vec![0.0; 10], vec![0.0; 10]);
        assert!(ck.check_compatible(10).is_ok());
        let err = ck.check_compatible(11).unwrap_err();
        assert!(matches!(err, PsError::CheckpointMismatch(_)));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unequal_lengths_panic() {
        let _ = Checkpoint::new(0, vec![0.0; 2], vec![0.0; 3]);
    }
}
