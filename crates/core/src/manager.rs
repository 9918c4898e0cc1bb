//! The cluster manager: orchestrates one training job over a backend,
//! applying the timing, configuration, and online policies.

use sync_switch_workloads::{CalibrationTargets, ExperimentSetup, SyncProtocol};

use crate::backend::TrainingBackend;
use crate::detector::StragglerDetector;
use crate::error::CoreError;
use crate::online::OnlinePolicyKind;
use crate::policy::SyncSwitchPolicy;
use crate::report::{EvalPoint, SwitchRecord, TrainingReport};

/// Convergence criterion: accuracy range over this many consecutive
/// evaluations must be within [`CONVERGENCE_EPSILON`] (paper §VI-A: "has
/// not changed for more than 0.1% for five evaluations").
const CONVERGENCE_WINDOW: usize = 5;
const CONVERGENCE_EPSILON: f64 = 0.002;

/// Straggler detector: observations per throughput window, and consecutive
/// windows below (above) the bound that flag (unflag) a worker.
const DETECTOR_WINDOW: usize = 3;
const DETECTOR_CONSECUTIVE: u32 = 2;

/// Drives a [`TrainingBackend`] through a complete training job according
/// to a [`SyncSwitchPolicy`], producing a [`TrainingReport`].
///
/// This is the standalone "cluster manager" of the paper's architecture
/// (Fig. 9): it consumes profiler metrics, decides protocol switches and
/// elastic reconfigurations, and evaluates the model on a cadence.
#[derive(Debug, Clone)]
pub struct ClusterManager {
    policy: SyncSwitchPolicy,
}

impl ClusterManager {
    /// Creates a manager for a policy.
    pub fn new(policy: SyncSwitchPolicy) -> Self {
        ClusterManager { policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> &SyncSwitchPolicy {
        &self.policy
    }

    /// Runs the full workload on `backend`.
    ///
    /// Divergence is reported *in* the returned report (`diverged_at`
    /// set, `converged_accuracy` `None`), matching how the paper treats
    /// failed ASP runs as data points.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] if the policy is inconsistent.
    pub fn run<B: TrainingBackend>(
        &self,
        backend: &mut B,
        setup: &ExperimentSetup,
    ) -> Result<TrainingReport, CoreError> {
        self.policy.validate()?;
        let hyper = &setup.workload.hyper;
        let total = hyper.total_steps;
        let switch_budget = self.policy.timing.switch_step(total);
        let calib = CalibrationTargets::for_setup(setup.id);
        let tta_target = self
            .policy
            .tta_target
            .unwrap_or(calib.bsp_accuracy - 2.0 * calib.accuracy_sigma);

        let mut detector = StragglerDetector::new(
            backend.cluster_size(),
            DETECTOR_WINDOW,
            DETECTOR_CONSECUTIVE,
        );

        let start_time = backend.now();
        let mut evals: Vec<EvalPoint> = Vec::new();
        let mut switches: Vec<SwitchRecord> = Vec::new();
        let mut removed: Vec<(u64, usize)> = Vec::new();
        let mut diverged_at: Option<u64> = None;
        let mut bsp_steps: u64 = 0;
        let mut asp_steps: u64 = 0;
        let mut transport_wire_s: f64 = 0.0;
        let mut transport_retries: u64 = 0;
        let mut transport_reconnects: u64 = 0;

        // Protocol state. `greedy_detour` marks a temporary ASP excursion
        // taken by the greedy policy before the BSP budget is met.
        let mut protocol = if switch_budget == 0 {
            SyncProtocol::Asp
        } else {
            SyncProtocol::Bsp
        };
        let mut greedy_detour = false;
        if protocol == SyncProtocol::Asp {
            backend.apply_momentum_variant(self.policy.config.momentum_scaling);
        }

        let mut next_eval = self.policy.eval_interval;
        evals.push(EvalPoint {
            step: 0,
            time_s: 0.0,
            accuracy: backend.eval_accuracy(),
            loss: backend.training_loss(),
        });

        while backend.step() < total && diverged_at.is_none() {
            let effective = if greedy_detour {
                SyncProtocol::Asp
            } else {
                protocol
            };
            let remaining = total - backend.step();
            // Chunk sizing: fine-grained while straggler reaction matters
            // (BSP phase with an online policy), otherwise up to the next
            // evaluation point.
            let to_eval = next_eval.saturating_sub(backend.step()).max(1);
            let mut chunk = match (effective, self.policy.online) {
                (SyncProtocol::Bsp, _) => self.policy.detect_chunk.min(to_eval),
                (SyncProtocol::Asp, OnlinePolicyKind::Greedy) if greedy_detour => {
                    self.policy.detect_chunk.min(to_eval)
                }
                _ => to_eval,
            }
            .min(remaining);
            if protocol == SyncProtocol::Bsp && !greedy_detour {
                chunk = chunk.min(switch_budget - bsp_steps);
            }
            chunk = chunk.max(1);

            let cfg = self.policy.config.for_protocol_with_active(
                hyper,
                effective,
                backend.active_workers(),
            );
            let result = backend.run_chunk(&cfg, chunk);
            let chunk_stats = match result {
                Ok(c) => c,
                Err(CoreError::Diverged { step }) => {
                    diverged_at = Some(step);
                    break;
                }
                Err(e) => return Err(e),
            };
            match effective {
                SyncProtocol::Bsp => bsp_steps += chunk_stats.steps_done,
                SyncProtocol::Asp => asp_steps += chunk_stats.steps_done,
            }
            transport_wire_s += chunk_stats.wire_time_s;
            transport_retries += chunk_stats.wire_retries;
            transport_reconnects += chunk_stats.wire_reconnects;

            // Feed the straggler detector and react per the online policy,
            // but only while the BSP budget is unmet (after the main switch
            // the job is immune to transient stragglers).
            let before_main_switch = protocol == SyncProtocol::Bsp;
            if before_main_switch {
                // Partial chunks at evaluation boundaries carry fewer rounds
                // and proportionally noisier throughput samples; feeding
                // them to the detector causes false positives.
                if chunk_stats.steps_done >= self.policy.detect_chunk {
                    detector.observe(&chunk_stats.per_worker_images_per_sec);
                }
                match self.policy.online {
                    OnlinePolicyKind::Baseline => {}
                    OnlinePolicyKind::Greedy => {
                        if !greedy_detour && detector.any_straggler() {
                            let overhead =
                                backend.apply_switch_overhead(SyncProtocol::Bsp, SyncProtocol::Asp);
                            switches.push(SwitchRecord {
                                step: backend.step(),
                                time_s: (backend.now() - start_time).as_secs(),
                                from: SyncProtocol::Bsp,
                                to: SyncProtocol::Asp,
                                overhead_s: overhead.as_secs(),
                            });
                            greedy_detour = true;
                        } else if greedy_detour && !detector.any_straggler() {
                            let overhead =
                                backend.apply_switch_overhead(SyncProtocol::Asp, SyncProtocol::Bsp);
                            switches.push(SwitchRecord {
                                step: backend.step(),
                                time_s: (backend.now() - start_time).as_secs(),
                                from: SyncProtocol::Asp,
                                to: SyncProtocol::Bsp,
                                overhead_s: overhead.as_secs(),
                            });
                            greedy_detour = false;
                        }
                    }
                    OnlinePolicyKind::Elastic => {
                        for s in detector.stragglers() {
                            if backend.remove_worker(s) {
                                removed.push((backend.step(), s));
                            }
                        }
                    }
                }
            }

            // The main, planned BSP→ASP switch.
            if protocol == SyncProtocol::Bsp && bsp_steps >= switch_budget {
                if !removed.is_empty() {
                    backend.restore_workers();
                    detector.reset();
                }
                if switch_budget < total {
                    let overhead =
                        backend.apply_switch_overhead(SyncProtocol::Bsp, SyncProtocol::Asp);
                    backend.apply_momentum_variant(self.policy.config.momentum_scaling);
                    switches.push(SwitchRecord {
                        step: backend.step(),
                        time_s: (backend.now() - start_time).as_secs(),
                        from: SyncProtocol::Bsp,
                        to: SyncProtocol::Asp,
                        overhead_s: overhead.as_secs(),
                    });
                }
                protocol = SyncProtocol::Asp;
                greedy_detour = false;
            }

            while backend.step() >= next_eval {
                evals.push(EvalPoint {
                    step: next_eval,
                    time_s: (backend.now() - start_time).as_secs(),
                    accuracy: backend.eval_accuracy(),
                    loss: backend.training_loss(),
                });
                next_eval += self.policy.eval_interval;
            }
        }

        let total_time_s = (backend.now() - start_time).as_secs();
        // Final evaluation at the end of the workload.
        if diverged_at.is_none() && evals.last().map(|e| e.step) != Some(backend.step()) {
            evals.push(EvalPoint {
                step: backend.step(),
                time_s: total_time_s,
                accuracy: backend.eval_accuracy(),
                loss: backend.training_loss(),
            });
        }

        let (converged_accuracy, converged_time_s) = if diverged_at.is_some() {
            (None, None)
        } else {
            match detect_convergence(&evals) {
                Some(i) => (Some(evals[i].accuracy), Some(evals[i].time_s)),
                None => (evals.last().map(|e| e.accuracy), None),
            }
        };
        let tta_s = evals
            .iter()
            .find(|e| e.accuracy >= tta_target)
            .map(|e| e.time_s);

        Ok(TrainingReport {
            setup: setup.id,
            policy_fraction: self.policy.timing.switch_fraction,
            online: self.policy.online,
            final_loss: evals.last().map(|e| e.loss).unwrap_or(f64::INFINITY),
            evals,
            switches,
            removed_workers: removed,
            converged_accuracy,
            converged_time_s,
            total_time_s,
            total_steps: backend.step(),
            bsp_steps,
            asp_steps,
            tta_s,
            tta_target,
            diverged_at,
            transport_wire_s,
            transport_retries,
            transport_reconnects,
        })
    }
}

/// Index of the first evaluation at which the convergence criterion holds.
fn detect_convergence(evals: &[EvalPoint]) -> Option<usize> {
    if evals.len() < CONVERGENCE_WINDOW {
        return None;
    }
    for i in (CONVERGENCE_WINDOW - 1)..evals.len() {
        let window = &evals[i + 1 - CONVERGENCE_WINDOW..=i];
        let min = window
            .iter()
            .map(|e| e.accuracy)
            .fold(f64::INFINITY, f64::min);
        let max = window
            .iter()
            .map(|e| e.accuracy)
            .fold(f64::NEG_INFINITY, f64::max);
        if max - min <= CONVERGENCE_EPSILON {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;

    fn run_policy(setup: &ExperimentSetup, policy: SyncSwitchPolicy, seed: u64) -> TrainingReport {
        let mut backend = SimBackend::new(setup, seed);
        ClusterManager::new(policy)
            .run(&mut backend, setup)
            .expect("run should not error")
    }

    #[test]
    fn bsp_baseline_full_run() {
        let setup = ExperimentSetup::one();
        let r = run_policy(&setup, SyncSwitchPolicy::static_bsp(8), 1);
        assert!(r.completed());
        assert_eq!(r.asp_steps, 0);
        assert!(r.bsp_steps >= 64_000);
        assert!(r.switches.is_empty(), "static BSP never switches");
        let acc = r.converged_accuracy.unwrap();
        assert!((acc - 0.919).abs() < 0.01, "BSP accuracy {acc}");
    }

    #[test]
    fn asp_baseline_full_run() {
        let setup = ExperimentSetup::one();
        let r = run_policy(&setup, SyncSwitchPolicy::static_asp(8), 2);
        assert!(r.completed());
        assert_eq!(r.bsp_steps, 0);
        let acc = r.converged_accuracy.unwrap();
        assert!((acc - 0.892).abs() < 0.012, "ASP accuracy {acc}");
    }

    #[test]
    fn paper_policy_setup1_time_and_accuracy() {
        let setup = ExperimentSetup::one();
        let ss = run_policy(&setup, SyncSwitchPolicy::paper_policy(&setup), 3);
        let bsp = run_policy(&setup, SyncSwitchPolicy::static_bsp(8), 3);
        let asp = run_policy(&setup, SyncSwitchPolicy::static_asp(8), 3);

        // Accuracy: Sync-Switch ≈ BSP, clearly above ASP.
        let ss_acc = ss.converged_accuracy.unwrap();
        let asp_acc = asp.converged_accuracy.unwrap();
        let bsp_acc = bsp.converged_accuracy.unwrap();
        assert!(bsp_acc - ss_acc < 0.012, "SS {ss_acc} vs BSP {bsp_acc}");
        assert!(ss_acc > asp_acc + 0.01, "SS {ss_acc} vs ASP {asp_acc}");

        // Time: ~19.5% of BSP (paper Fig. 10a), accept 14–28%.
        let frac = ss.total_time_s / bsp.total_time_s;
        assert!((0.14..0.28).contains(&frac), "time fraction {frac}");

        // Exactly one switch at ~6.25% of the workload.
        assert_eq!(ss.switches.len(), 1);
        let sw = ss.switches[0];
        assert!(
            (3_900..=4_200).contains(&sw.step),
            "switch step {}",
            sw.step
        );
        assert_eq!(ss.bsp_steps, 4_000);
        // Switch overhead is tens of seconds, a small fraction of the run.
        assert!(sw.overhead_s > 10.0 && sw.overhead_s < 90.0);
        assert!(ss.overhead_fraction() < 0.06);
    }

    #[test]
    fn tta_speedup_near_4x_setup1() {
        let setup = ExperimentSetup::one();
        let ss = run_policy(&setup, SyncSwitchPolicy::paper_policy(&setup), 4);
        let bsp = run_policy(&setup, SyncSwitchPolicy::static_bsp(8), 4);
        let (ss_tta, bsp_tta) = (ss.tta_s.expect("ss tta"), bsp.tta_s.expect("bsp tta"));
        let speedup = bsp_tta / ss_tta;
        assert!(
            (2.5..6.5).contains(&speedup),
            "TTA speedup {speedup} (paper: 3.99)"
        );
    }

    #[test]
    fn setup3_asp_diverges_sync_switch_survives() {
        let setup = ExperimentSetup::three();
        let asp = run_policy(&setup, SyncSwitchPolicy::static_asp(16), 5);
        assert!(asp.diverged_at.is_some(), "pure ASP must diverge");
        assert!(asp.converged_accuracy.is_none());

        let ss = run_policy(&setup, SyncSwitchPolicy::paper_policy(&setup), 5);
        assert!(ss.completed(), "P3 (switch at 50%) must survive");
        let acc = ss.converged_accuracy.unwrap();
        assert!((acc - 0.922).abs() < 0.01, "setup3 SS accuracy {acc}");
    }

    #[test]
    fn eval_cadence_covers_run() {
        let setup = ExperimentSetup::one();
        let r = run_policy(&setup, SyncSwitchPolicy::paper_policy(&setup), 6);
        // 64k steps / 2k interval = 32 evals, + initial.
        assert!(r.evals.len() >= 32, "evals {}", r.evals.len());
        assert_eq!(r.evals[0].step, 0);
        assert_eq!(r.evals.last().unwrap().step, 64_000);
        // Time is monotone along the curve.
        for w in r.evals.windows(2) {
            assert!(w[1].time_s >= w[0].time_s);
        }
    }

    #[test]
    fn convergence_detection_window() {
        let flat = |acc: f64, step: u64| EvalPoint {
            step,
            time_s: step as f64,
            accuracy: acc,
            loss: 0.1,
        };
        // Rising then flat: converges at the 5th flat point.
        let mut evals = vec![flat(0.5, 0), flat(0.7, 1), flat(0.8, 2), flat(0.9, 3)];
        for i in 0..6 {
            evals.push(flat(0.918 + 0.0001 * i as f64, 4 + i));
        }
        let idx = detect_convergence(&evals).expect("should converge");
        assert_eq!(idx, 8); // first window of 5 inside the flat tail
                            // A noisy curve never converges.
        let noisy: Vec<EvalPoint> = (0..10u32)
            .map(|i| flat(0.5 + 0.05 * f64::from(i % 2), u64::from(i)))
            .collect();
        assert!(detect_convergence(&noisy).is_none());
    }
}
