//! Paper Table III: Sync-Switch runtime overhead — cluster initialization
//! and protocol-switching time under sequential vs parallel configuration
//! actuators, plus the measured in-process switch cost of the real
//! parameter server.

use serde_json::json;
use sync_switch_cluster::{ActuatorMode, OverheadModel};
use sync_switch_core::SyncSwitchPolicy;
use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::{execute_switch, SwitchPlan, Trainer, TrainerConfig};
use sync_switch_workloads::{ExperimentSetup, SyncProtocol};

use crate::output::Exhibit;
use crate::runner::run_report;

/// Runs the exhibit.
pub fn run() -> Exhibit {
    let mut ex = Exhibit::new("table3", "Sync-Switch runtime overhead");

    let mut rows = Vec::new();
    let mut payload = Vec::new();
    let mut model = OverheadModel::new(0xAB1E3);
    for n in [8usize, 16] {
        for (mode, label) in [
            (ActuatorMode::Sequential, "Sequential"),
            (ActuatorMode::Parallel, "Parallel (Ours)"),
        ] {
            let s = model.mean_sample(n, mode, 50);
            rows.push(vec![
                format!("{n} K80"),
                label.to_string(),
                format!("{:.0}", s.init.as_secs()),
                format!("{:.0}", s.switch.as_secs()),
                format!("{:.0}", s.init.as_secs() + s.switch.as_secs()),
            ]);
            payload.push(json!({
                "cluster": n,
                "actuator": label,
                "init_s": s.init.as_secs(),
                "switch_s": s.switch.as_secs(),
            }));
        }
    }
    ex.table(
        &[
            "cluster",
            "actuator",
            "init (s)",
            "switching (s)",
            "total (s)",
        ],
        &rows,
    );
    ex.line("");
    ex.line("Paper: 157/90 s init and 90/36 s switch at 8 nodes (seq/par); 268/128 s and 165/53 s at 16 nodes.");

    // Switch overhead as a fraction of total training time (paper: "as low
    // as 36 seconds, about 1.7% of the total training time").
    let setup = ExperimentSetup::one();
    let report = run_report(&setup, &SyncSwitchPolicy::paper_policy(&setup), 0xAB1E3);
    let frac = report.overhead_fraction();
    ex.line(format!(
        "Measured switch overhead in a setup-1 Sync-Switch run: {:.0} s = {:.1}% of total training time (paper: ~1.7%).",
        report.total_switch_overhead_s(),
        100.0 * frac,
    ));

    ex.line(format!(
        "Real in-process PS switch (4 workers, checkpoint+reconfigure+restore): {:.3} ms.",
        real_ps_switch_ms(),
    ));

    ex.json = json!({
        "rows": payload,
        "run_overhead_fraction": frac,
    });
    ex
}

/// Wall-clock cost of one BSP→ASP switch on the real in-process parameter
/// server. Printed with the table but left out of its JSON: it is a live
/// measurement, so no golden could pin it.
fn real_ps_switch_ms() -> f64 {
    let data = Dataset::gaussian_blobs(4, 120, 8, 0.35, 3);
    let (train, test) = data.split(0.25);
    let mut trainer = Trainer::new(
        Network::mlp(8, &[32, 16], 4, 3),
        train,
        test,
        TrainerConfig::new(4, 8, 0.05, 0.9).with_seed(3),
    );
    trainer
        .run_segment(SyncProtocol::Bsp, 10)
        .expect("small BSP segment completes");
    let plan = SwitchPlan {
        to: SyncProtocol::Asp,
        per_worker_batch: 8,
        learning_rate: 0.05,
        momentum: 0.9,
        reset_velocity: false,
    };
    let outcome = execute_switch(&mut trainer, &plan).expect("switch succeeds");
    outcome.total().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    #[test]
    fn table3_matches_paper_within_tolerance() {
        let ex = super::run();
        let rows = ex.json["rows"].as_array().unwrap();
        let get = |cluster: u64, actuator: &str, key: &str| {
            rows.iter()
                .find(|r| {
                    r["cluster"].as_u64() == Some(cluster)
                        && r["actuator"].as_str() == Some(actuator)
                })
                .unwrap()[key]
                .as_f64()
                .unwrap()
        };
        let within = |v: f64, target: f64| (v - target).abs() / target < 0.2;
        assert!(within(get(8, "Sequential", "init_s"), 157.0));
        assert!(within(get(8, "Parallel (Ours)", "init_s"), 90.0));
        assert!(within(get(8, "Sequential", "switch_s"), 90.0));
        assert!(within(get(8, "Parallel (Ours)", "switch_s"), 36.0));
        assert!(within(get(16, "Sequential", "init_s"), 268.0));
        assert!(within(get(16, "Parallel (Ours)", "init_s"), 128.0));
        assert!(within(get(16, "Sequential", "switch_s"), 165.0));
        assert!(within(get(16, "Parallel (Ours)", "switch_s"), 53.0));

        // Overhead fraction near the paper's 1.7%.
        let frac = ex.json["run_overhead_fraction"].as_f64().unwrap();
        assert!((0.005..0.06).contains(&frac), "overhead fraction {frac}");
        // The real PS switch completes in well under a second in-process.
        assert!(super::real_ps_switch_ms() < 1000.0);
    }
}
