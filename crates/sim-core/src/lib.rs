//! Deterministic discrete-event simulation engine used by the Sync-Switch
//! cluster and convergence models.
//!
//! The engine is deliberately small: a virtual clock, a stable priority queue
//! of typed events, seeded random-number streams, two sampling
//! distributions, and a sliding-window statistic. Everything is fully
//! deterministic for a fixed seed, which the reproduction harness relies on.
//!
//! # Example
//!
//! ```
//! use sync_switch_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(2.0), "later");
//! q.schedule(SimTime::from_secs(1.0), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_secs(1.0));
//! ```

pub mod dist;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{LogNormal, Normal, Sample};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use stats::SlidingWindow;
pub use time::SimTime;
