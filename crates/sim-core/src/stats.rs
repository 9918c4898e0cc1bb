//! Windowed statistics used by the straggler detector.

use std::collections::VecDeque;

/// Fixed-capacity sliding window with O(1) mean queries.
///
/// Used by the straggler detector: per-worker throughput is tracked over a
/// sliding window and compared against the cluster mean minus one standard
/// deviation (paper §IV-B2).
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    capacity: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` recent observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            sum: 0.0,
        }
    }

    /// Pushes an observation, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() == self.capacity {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
            }
        }
        self.buf.push_back(x);
        self.sum += x;
    }

    /// Mean over the retained observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }

    /// Standard deviation over the retained observations.
    pub fn std(&self) -> f64 {
        if self.buf.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.buf.iter().map(|x| (x - m).powi(2)).sum::<f64>() / self.buf.len() as f64;
        var.sqrt()
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no observations yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Clears all observations.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_window_evicts() {
        let mut w = SlidingWindow::new(3);
        for x in [1.0, 2.0, 3.0] {
            w.push(x);
        }
        assert_eq!(w.mean(), 2.0);
        assert!(w.is_full());
        w.push(10.0); // evicts 1.0
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn sliding_window_std() {
        let mut w = SlidingWindow::new(4);
        for x in [2.0, 4.0, 6.0, 8.0] {
            w.push(x);
        }
        assert!((w.std() - 5.0_f64.sqrt()).abs() < 1e-12);
    }
}
