//! Shared experiment-execution helpers.

use sync_switch_cluster::StragglerScenario;
use sync_switch_core::{
    ClusterManager, SimBackend, SyncSwitchPolicy, TrainingBackend, TrainingReport,
};
use sync_switch_workloads::{ExperimentSetup, SyncProtocol};

/// Number of repetitions per configuration (the paper repeats each
/// experiment five times).
pub const RUNS: u64 = 5;

/// Runs one full training job on the simulation backend.
pub fn run_report(setup: &ExperimentSetup, policy: &SyncSwitchPolicy, seed: u64) -> TrainingReport {
    let mut backend = SimBackend::new(setup, seed);
    ClusterManager::new(policy.clone())
        .run(&mut backend, setup)
        .expect("policy is valid")
}

/// Runs one job with a straggler scenario installed.
pub fn run_report_with_scenario(
    setup: &ExperimentSetup,
    policy: &SyncSwitchPolicy,
    scenario: StragglerScenario,
    seed: u64,
) -> TrainingReport {
    let mut backend = SimBackend::new(setup, seed).with_scenario(scenario);
    ClusterManager::new(policy.clone())
        .run(&mut backend, setup)
        .expect("policy is valid")
}

/// Summary over repeated runs of one configuration.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Individual reports.
    pub reports: Vec<TrainingReport>,
}

impl RunSummary {
    /// Mean converged accuracy over completed runs (`None` if all failed).
    pub fn mean_accuracy(&self) -> Option<f64> {
        let accs: Vec<f64> = self
            .reports
            .iter()
            .filter_map(|r| r.converged_accuracy)
            .collect();
        if accs.is_empty() {
            return None;
        }
        Some(accs.iter().sum::<f64>() / accs.len() as f64)
    }

    /// Standard deviation of converged accuracy over completed runs.
    pub fn std_accuracy(&self) -> f64 {
        let accs: Vec<f64> = self
            .reports
            .iter()
            .filter_map(|r| r.converged_accuracy)
            .collect();
        mean_std(&accs).1
    }

    /// Mean total time in seconds (all runs, including diverged ones —
    /// diverged runs end early).
    pub fn mean_time_s(&self) -> f64 {
        mean_std(
            &self
                .reports
                .iter()
                .map(|r| r.total_time_s)
                .collect::<Vec<_>>(),
        )
        .0
    }

    /// Mean time over *completed* runs only.
    pub fn mean_completed_time_s(&self) -> Option<f64> {
        let times: Vec<f64> = self
            .reports
            .iter()
            .filter(|r| r.completed())
            .map(|r| r.total_time_s)
            .collect();
        if times.is_empty() {
            return None;
        }
        Some(mean_std(&times).0)
    }

    /// Mean TTA over runs that reached the threshold.
    pub fn mean_tta_s(&self) -> Option<f64> {
        let ttas: Vec<f64> = self.reports.iter().filter_map(|r| r.tta_s).collect();
        if ttas.is_empty() {
            return None;
        }
        Some(mean_std(&ttas).0)
    }

    /// Whether every run diverged.
    pub fn all_diverged(&self) -> bool {
        self.reports.iter().all(|r| !r.completed())
    }

    /// The best run by converged accuracy (paper plots "the runs with the
    /// best performance").
    pub fn best(&self) -> Option<&TrainingReport> {
        self.reports
            .iter()
            .filter(|r| r.completed())
            .max_by(|a, b| {
                a.converged_accuracy
                    .unwrap_or(0.0)
                    .total_cmp(&b.converged_accuracy.unwrap_or(0.0))
            })
    }
}

/// Runs a configuration [`RUNS`] times with distinct seeds.
pub fn repeat_reports(
    setup: &ExperimentSetup,
    policy: &SyncSwitchPolicy,
    base_seed: u64,
) -> RunSummary {
    RunSummary {
        reports: (0..RUNS)
            .map(|i| run_report(setup, policy, base_seed.wrapping_add(i * 7919)))
            .collect(),
    }
}

/// Protocol orderings evaluated in paper Fig. 5a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderKind {
    /// Pure BSP.
    Bsp,
    /// BSP for the given fraction, then ASP (the Sync-Switch order).
    BspThenAsp,
    /// ASP first, then BSP — the order the paper shows is inferior.
    AspThenBsp,
    /// Pure ASP.
    Asp,
}

impl std::fmt::Display for OrderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OrderKind::Bsp => "BSP",
            OrderKind::BspThenAsp => "BSP->ASP",
            OrderKind::AspThenBsp => "ASP->BSP",
            OrderKind::Asp => "ASP",
        };
        write!(f, "{s}")
    }
}

/// Runs a protocol-order experiment (Fig. 5a): the first `fraction` of the
/// workload under the first protocol, the rest under the second. Drives the
/// backend directly because the manager (by design) only implements the
/// BSP→ASP order.
///
/// Returns `(converged_accuracy, total_time_s)`; accuracy is `None` when
/// the run diverges.
pub fn run_order(
    setup: &ExperimentSetup,
    order: OrderKind,
    fraction: f64,
    seed: u64,
) -> (Option<f64>, f64) {
    match order {
        OrderKind::Bsp => {
            let r = run_report(
                setup,
                &SyncSwitchPolicy::static_bsp(setup.cluster_size),
                seed,
            );
            (r.converged_accuracy, r.total_time_s)
        }
        OrderKind::Asp => {
            let r = run_report(
                setup,
                &SyncSwitchPolicy::static_asp(setup.cluster_size),
                seed,
            );
            (r.converged_accuracy, r.total_time_s)
        }
        OrderKind::BspThenAsp => {
            let policy = SyncSwitchPolicy::new(fraction, setup.cluster_size);
            let r = run_report(setup, &policy, seed);
            (r.converged_accuracy, r.total_time_s)
        }
        OrderKind::AspThenBsp => run_asp_then_bsp(setup, fraction, seed),
    }
}

/// ASP for `fraction` of the workload, then BSP to the end.
fn run_asp_then_bsp(setup: &ExperimentSetup, fraction: f64, seed: u64) -> (Option<f64>, f64) {
    use sync_switch_core::ConfigPolicy;
    let mut backend = SimBackend::new(setup, seed);
    let total = setup.workload.hyper.total_steps;
    let switch_at = (fraction * total as f64) as u64;
    let config = ConfigPolicy::new(setup.cluster_size);
    let asp_cfg = config.for_protocol(&setup.workload.hyper, SyncProtocol::Asp);
    let bsp_cfg = config.for_protocol(&setup.workload.hyper, SyncProtocol::Bsp);
    let start = backend.now();
    let chunk = 2_000u64;

    let mut diverged = false;
    while backend.step() < switch_at {
        let steps = chunk.min(switch_at - backend.step());
        if backend.run_chunk(&asp_cfg, steps).is_err() {
            diverged = true;
            break;
        }
    }
    if !diverged {
        backend.apply_switch_overhead(SyncProtocol::Asp, SyncProtocol::Bsp);
        while backend.step() < total {
            let steps = chunk.min(total - backend.step());
            if backend.run_chunk(&bsp_cfg, steps).is_err() {
                diverged = true;
                break;
            }
        }
    }
    let time = (backend.now() - start).as_secs();
    if diverged {
        (None, time)
    } else {
        (Some(backend.eval_accuracy()), time)
    }
}

/// Mean and population standard deviation of a slice (0s when empty).
pub fn mean_std(data: &[f64]) -> (f64, f64) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    let mean = data.iter().sum::<f64>() / data.len() as f64;
    let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m, 5.0);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn order_runs_setup1() {
        let setup = ExperimentSetup::one();
        let (acc_ss, t_ss) = run_order(&setup, OrderKind::BspThenAsp, 0.5, 11);
        let (acc_rev, _t_rev) = run_order(&setup, OrderKind::AspThenBsp, 0.5, 11);
        // BSP→ASP preserves accuracy; ASP→BSP pays the early-ASP damage.
        assert!(acc_ss.unwrap() > acc_rev.unwrap() + 0.01);
        assert!(t_ss > 0.0);
    }

    #[test]
    fn summary_aggregates() {
        let setup = ExperimentSetup::one();
        let policy = SyncSwitchPolicy::paper_policy(&setup);
        let s = RunSummary {
            reports: (0..3)
                .map(|i| run_report(&setup, &policy, 100 + i))
                .collect(),
        };
        assert!(s.mean_accuracy().unwrap() > 0.89);
        assert!(s.best().is_some());
        assert!(s.mean_time_s() > 0.0);
    }
}
