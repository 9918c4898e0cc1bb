//! Property-based tests of the simulation engine primitives.

use proptest::prelude::*;
use sync_switch_sim::{DetRng, EventQueue, SimTime, SlidingWindow};

proptest! {
    /// Events pop in non-decreasing time order, and same-time events pop in
    /// insertion order, for arbitrary schedules.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(&prev) = seen_at_time.last() {
                    prop_assert!(idx > prev, "ties must preserve insertion order");
                }
                seen_at_time.push(idx);
            } else {
                seen_at_time = vec![idx];
            }
            last_time = t;
        }
    }

    /// The queue drains exactly what was scheduled.
    #[test]
    fn queue_conserves_events(times in proptest::collection::vec(0.0f64..100.0, 0..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_secs(t), ());
        }
        prop_assert_eq!(q.len(), times.len());
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert!(q.is_empty());
    }

    /// A sliding window always reports the mean of its last `cap` pushes.
    #[test]
    fn sliding_window_mean_is_tail_mean(
        cap in 1usize..20,
        data in proptest::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut w = SlidingWindow::new(cap);
        for &x in &data {
            w.push(x);
        }
        let tail: Vec<f64> = data.iter().rev().take(cap).copied().collect();
        let expect = tail.iter().sum::<f64>() / tail.len() as f64;
        prop_assert!((w.mean() - expect).abs() < 1e-9 * (1.0 + expect.abs()));
        prop_assert_eq!(w.len(), tail.len());
    }

    /// Derived RNG streams are reproducible and label-separated.
    #[test]
    fn derived_streams_reproducible(seed in any::<u64>(), idx in 0u64..1000) {
        let root = DetRng::new(seed);
        let mut a = root.derive("stream", idx);
        let mut b = root.derive("stream", idx);
        let mut c = root.derive("other", idx);
        let (x, y) = (a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        prop_assert_eq!(x, y);
        // Different labels virtually never collide on the first draw.
        let z = c.uniform(0.0, 1.0);
        prop_assert_ne!(x, z);
    }

    /// SimTime arithmetic is consistent with f64 seconds.
    #[test]
    fn simtime_arithmetic(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let ta = SimTime::from_secs(a);
        let tb = SimTime::from_secs(b);
        prop_assert_eq!((ta + tb).as_secs(), a + b);
        prop_assert_eq!(ta.max(tb).as_secs(), a.max(b));
        prop_assert_eq!(ta.min(tb).as_secs(), a.min(b));
        prop_assert_eq!(ta < tb, a < b);
    }
}
