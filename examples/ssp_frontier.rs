//! The synchronization-protocol frontier (paper Fig. 1), measured: BSP,
//! SSP at several staleness bounds, ASP, and Sync-Switch — on a cluster
//! with one mildly slow worker, where the protocols actually separate.
//!
//! Also runs the same staleness sweep on the *real* parameter server —
//! worker threads against a channel-transport PS tier — and prints the
//! sim-vs-real staleness delta per bound, then calibrates the simulator's
//! `NetworkModel` against the wire latencies the transport tier measured.
//!
//! ```sh
//! cargo run --release --example ssp_frontier
//! ```

use std::time::Duration;

use sync_switch::prelude::*;
use sync_switch_cluster::{ClusterSim, NetworkModel};
use sync_switch_convergence::PhaseInput;
use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::{ServerTopology, Trainer, TrainerConfig, TransportKind};

fn main() {
    let setup = ExperimentSetup::one();
    let batch = setup.workload.hyper.batch_size;
    let total = setup.workload.hyper.total_steps;
    let scenario = StragglerScenario::constant(1, 0.010);
    let n = setup.cluster_size;

    println!("Simulated frontier (setup 1, one worker +10ms):\n");
    println!("{:<22} {:>12} {:>10}", "approach", "img/s", "accuracy");

    // BSP / ASP / Sync-Switch through the full pipeline.
    for (name, policy) in [
        ("BSP", SyncSwitchPolicy::static_bsp(n)),
        ("ASP", SyncSwitchPolicy::static_asp(n)),
        ("Sync-Switch @6.25%", SyncSwitchPolicy::paper_policy(&setup)),
    ] {
        let mut backend = SimBackend::new(&setup, 7).with_scenario(scenario.clone());
        let r = ClusterManager::new(policy)
            .run(&mut backend, &setup)
            .expect("valid policy");
        println!(
            "{:<22} {:>12.0} {:>10.3}",
            name,
            r.throughput_images_per_sec(batch),
            r.converged_accuracy.unwrap_or(0.0)
        );
    }

    // SSP at several bounds: throughput from the simulator, accuracy from
    // the surrogate at the iteration-bounded effective staleness.
    for bound in [1u64, 3, 16] {
        let mut sim = ClusterSim::new(&setup, 7);
        sim.set_scenario(scenario.clone());
        let stats = sim.run_ssp(total, bound);
        let eff = stats.mean_staleness.min(bound as f64);
        let mut t = TrajectoryModel::new(&setup, 7);
        while t.step() < total {
            let steps = 2_000.min(total - t.step());
            t.advance(steps, &PhaseInput::asp(eff));
        }
        println!(
            "{:<22} {:>12.0} {:>10.3}",
            format!("SSP (s={bound})"),
            stats.cluster_images_per_sec(batch),
            t.current_ceiling()
        );
    }

    // The same staleness sweep, sim vs the real PS. The real tier runs on
    // the channel transport — 2 servers behind the wire protocol, every
    // push/pull/sync crossing the message boundary — so both sides of the
    // comparison pay a synchronization cost, and the staleness the sim
    // models can be checked against staleness that was measured.
    println!("\nSSP staleness, simulated vs real PS (channel transport, 4 workers,");
    println!("worker 0 slowed by 3 ms, 240 steps per bound):");
    println!(
        "{:<8} {:>10} {:>10} {:>10}  real steps/worker",
        "bound", "sim", "real", "delta"
    );
    let data = Dataset::gaussian_blobs(4, 100, 8, 0.35, 7);
    let (train, test) = data.split(0.25);
    let mut wire = sync_switch_ps::TransportStats::default();
    let mut rows: Vec<(u64, f64, f64)> = Vec::new();
    for bound in [0u64, 1, 2, 4, 1_000] {
        // Simulated mean staleness at this bound (same cluster shape, the
        // sim's 10 ms straggler standing in for the 3 ms thread delay).
        let mut sim = ClusterSim::new(&setup, 7);
        sim.set_scenario(scenario.clone());
        let sim_staleness = sim.run_ssp(total, bound).mean_staleness.min(bound as f64);

        // Measured mean staleness on real worker threads over the wire.
        let cfg = TrainerConfig::new(4, 8, 0.04, 0.9)
            .with_seed(7)
            .with_straggler(0, Duration::from_millis(3))
            .with_topology(ServerTopology::new(2, 4).with_transport(TransportKind::Channel));
        let mut trainer = Trainer::new(
            Network::mlp(8, &[16], 4, 7),
            train.clone(),
            test.clone(),
            cfg,
        );
        let seg = trainer.run_ssp_segment(bound, 240).expect("ssp runs");
        let real = seg.staleness.mean();
        let per_worker: Vec<usize> = seg.worker_profiles.iter().map(|p| p.steps()).collect();
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>+10.2}  {:?}",
            bound,
            sim_staleness,
            real,
            real - sim_staleness,
            per_worker
        );
        rows.push((bound, sim_staleness, real));
        wire = seg.transport;
    }
    println!("\nTighter bounds equalize worker progress (throttling to the straggler);");
    println!("loose bounds recover ASP throughput with unbounded parameter age.");
    println!("The sim caps staleness at the bound; the real tier adds the committed-");
    println!("view lag of two-stage sync on top of the gate (delta > 0 at tight bounds),");
    println!("while at loose bounds real thread scheduling stays below the sim's cap.");

    // Close the loop on that lag: the tightest bound isolates it (the gate
    // contributes nothing at s=0, so whatever staleness the real tier still
    // measures *is* the committed-view lag). Feed it back into the
    // simulator and re-predict the sweep with the calibrated model.
    let (tight_bound, tight_sim, tight_real) = rows[0];
    let lag = (tight_real - tight_sim).max(0.0);
    println!("\nCommitted-view lag measured at bound {tight_bound}: {lag:.2} updates; feeding it");
    println!("back through ClusterSim::set_committed_view_lag and re-predicting:");
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "bound", "sim+lag", "real", "delta"
    );
    for &(bound, _, real) in &rows {
        let mut sim = ClusterSim::new(&setup, 7);
        sim.set_scenario(scenario.clone());
        sim.set_committed_view_lag(lag);
        // The cap shifts with the lag: the gate still bounds the scheduling
        // term at `bound`, and the committed view trails by `lag` on top.
        let corrected = sim
            .run_ssp(total, bound)
            .mean_staleness
            .min(bound as f64 + lag);
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>+10.2}",
            bound,
            corrected,
            real,
            real - corrected
        );
    }

    // Calibration hook: fit the simulator's network model to the wire
    // latencies the transport tier just measured (push acks are tiny, pull
    // replies carry the parameter slice — two sizes, two unknowns).
    println!(
        "\nWire cost measured on the last run ({} round trips):",
        wire.total_round_trips()
    );
    for (name, op) in [
        ("push", wire.push),
        ("pull", wire.pull),
        ("sync", wire.sync),
    ] {
        println!(
            "  {name:<5} {:>8} ops  {:>9.1} µs/op  {:>8.0} B/op",
            op.ops,
            op.mean_us(),
            op.mean_round_trip_bytes()
        );
    }
    match NetworkModel::fit_wire_samples(&wire.latency_samples()) {
        Some(model) => println!(
            "Calibrated NetworkModel: base latency {:.1} µs, bandwidth {:.2} GB/s\n\
             (gcp_default assumes 500 µs / 2 GB/s — loopback queues are that much cheaper\n\
             than a real NIC, which is exactly what the fit is for).",
            model.base_latency_s * 1e6,
            model.bandwidth_bps / 1e9
        ),
        None => println!(
            "Calibration unidentifiable on this run (latency-dominated samples) — \
             sticking with gcp_default."
        ),
    }
}
