//! Transient-straggler injection.
//!
//! The paper targets *transient* stragglers — "nodes that exhibit temporary
//! slowdown due to datacenter network or server resource contention" — and
//! emulates them by adding network latency. Each episode lasts at most the
//! time to provision a replacement server (~100 s, §IV-B2).

use serde::{Deserialize, Serialize};
use sync_switch_sim::SimTime;

/// One transient slowdown episode on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerEpisode {
    /// Affected worker index.
    pub worker: usize,
    /// Episode start (virtual time).
    pub start_s: f64,
    /// Episode duration, seconds (≤ ~100 s for transient stragglers).
    pub duration_s: f64,
    /// Added per-message network latency, seconds (10 ms / 30 ms in the
    /// paper's scenarios).
    pub added_latency_s: f64,
}

impl StragglerEpisode {
    /// Whether the episode is active at time `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        let t = t.as_secs();
        t >= self.start_s && t < self.start_s + self.duration_s
    }
}

/// A named straggler scenario: a set of episodes.
///
/// The two evaluation scenarios of paper §VI-B3:
/// * **mild** — 1 straggler, 1 occurrence, 10 ms added latency;
/// * **moderate** — 2 stragglers, 4 occurrences each, 30 ms added latency.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StragglerScenario {
    /// Scenario name for reports.
    pub name: String,
    /// All injected episodes.
    pub episodes: Vec<StragglerEpisode>,
}

impl StragglerScenario {
    /// No stragglers.
    pub fn none() -> Self {
        StragglerScenario {
            name: "none".into(),
            episodes: Vec::new(),
        }
    }

    /// Scenario 1 (mild): one worker slows once for 100 s with +10 ms
    /// latency, early in the BSP phase.
    pub fn mild(first_start_s: f64) -> Self {
        StragglerScenario {
            name: "mild".into(),
            episodes: vec![StragglerEpisode {
                worker: 0,
                start_s: first_start_s,
                duration_s: 100.0,
                added_latency_s: 0.010,
            }],
        }
    }

    /// Scenario 2 (moderate): two workers slow four times each for 100 s
    /// with +30 ms latency, episodes spaced `spacing_s` apart.
    pub fn moderate(first_start_s: f64, spacing_s: f64) -> Self {
        let mut episodes = Vec::new();
        for occurrence in 0..4 {
            for worker in [0usize, 1] {
                episodes.push(StragglerEpisode {
                    worker,
                    start_s: first_start_s + occurrence as f64 * spacing_s,
                    duration_s: 100.0,
                    added_latency_s: 0.030,
                });
            }
        }
        StragglerScenario {
            name: "moderate".into(),
            episodes,
        }
    }

    /// A constant (whole-run) slowdown on `count` workers — used for the
    /// Fig. 4b throughput sweep.
    pub fn constant(count: usize, added_latency_s: f64) -> Self {
        StragglerScenario {
            name: format!("{count}x{:.0}ms", added_latency_s * 1e3),
            episodes: (0..count)
                .map(|worker| StragglerEpisode {
                    worker,
                    start_s: 0.0,
                    duration_s: f64::INFINITY,
                    added_latency_s,
                })
                .collect(),
        }
    }

    /// The added latency affecting `worker` at time `t` (maximum over
    /// overlapping episodes; 0 when none).
    pub fn added_latency(&self, worker: usize, t: SimTime) -> f64 {
        self.episodes
            .iter()
            .filter(|e| e.worker == worker && e.active_at(t))
            .map(|e| e.added_latency_s)
            .fold(0.0, f64::max)
    }

    /// Workers with at least one episode active at `t`.
    pub fn active_stragglers(&self, t: SimTime) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .episodes
            .iter()
            .filter(|e| e.active_at(t))
            .map(|e| e.worker)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_activity_window() {
        let e = StragglerEpisode {
            worker: 2,
            start_s: 50.0,
            duration_s: 100.0,
            added_latency_s: 0.01,
        };
        assert!(!e.active_at(SimTime::from_secs(49.9)));
        assert!(e.active_at(SimTime::from_secs(50.0)));
        assert!(e.active_at(SimTime::from_secs(149.9)));
        assert!(!e.active_at(SimTime::from_secs(150.0)));
    }

    #[test]
    fn mild_scenario_shape() {
        let s = StragglerScenario::mild(30.0);
        assert_eq!(s.episodes.len(), 1);
        assert_eq!(s.added_latency(0, SimTime::from_secs(60.0)), 0.010);
        assert_eq!(s.added_latency(1, SimTime::from_secs(60.0)), 0.0);
        assert_eq!(s.added_latency(0, SimTime::from_secs(200.0)), 0.0);
    }

    #[test]
    fn moderate_scenario_shape() {
        let s = StragglerScenario::moderate(10.0, 300.0);
        assert_eq!(s.episodes.len(), 8);
        // Two workers active during the first occurrence.
        assert_eq!(s.active_stragglers(SimTime::from_secs(20.0)), vec![0, 1]);
        // Nobody active between occurrences.
        assert!(s.active_stragglers(SimTime::from_secs(150.0)).is_empty());
        // Fourth occurrence window.
        assert_eq!(
            s.active_stragglers(SimTime::from_secs(10.0 + 3.0 * 300.0 + 1.0)),
            vec![0, 1]
        );
    }

    #[test]
    fn overlapping_episodes_take_max_latency() {
        let s = StragglerScenario {
            name: "overlap".into(),
            episodes: vec![
                StragglerEpisode {
                    worker: 0,
                    start_s: 0.0,
                    duration_s: 100.0,
                    added_latency_s: 0.01,
                },
                StragglerEpisode {
                    worker: 0,
                    start_s: 50.0,
                    duration_s: 100.0,
                    added_latency_s: 0.03,
                },
            ],
        };
        assert_eq!(s.added_latency(0, SimTime::from_secs(75.0)), 0.03);
        assert_eq!(s.added_latency(0, SimTime::from_secs(25.0)), 0.01);
    }

    #[test]
    fn constant_scenario_never_ends() {
        let s = StragglerScenario::constant(2, 0.03);
        assert_eq!(s.added_latency(1, SimTime::from_secs(1e9)), 0.03);
        assert_eq!(s.added_latency(2, SimTime::from_secs(1.0)), 0.0);
    }
}
