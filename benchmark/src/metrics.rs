//! The declared metrics: the single table `BENCHMARK.json` is generated
//! from and every run's output is checked against.

use serde_json::{json, Value};

use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "steps/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "tta_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "test_accuracy",
        unit: "fraction",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "cpu_ms_per_kstep",
        unit: "ms/kstep",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, in the order of the
/// README's layer table. Every traced run reports all of them; a metric of
/// a layer the workload does not use reads 0.
pub const PER_LAYER: [(&str, &str, &str); 72] = [
    ("nn.compute_us", "us", "lower"),
    ("nn.set_params_us", "us", "lower"),
    ("nn.sample_batch_us", "us", "lower"),
    ("store.pull_us", "us", "lower"),
    ("store.apply_dense_us", "us", "lower"),
    ("store.apply_sparse_us", "us", "lower"),
    ("server.apply_mean_ns", "ns", "lower"),
    ("server.requests_per_step", "count", "lower"),
    ("server.dedup_hits", "count", "lower"),
    ("port.pull_us", "us", "lower"),
    ("port.push_us", "us", "lower"),
    ("port.push_shard_us", "us", "lower"),
    ("port.sync_us", "us", "lower"),
    ("port.sync_us_per_step", "us", "lower"),
    ("port.sync_rounds_per_step", "count", "lower"),
    ("wire.pull_mean_us", "us", "lower"),
    ("wire.push_mean_us", "us", "lower"),
    ("wire.sync_mean_us", "us", "lower"),
    ("wire.bytes_in_per_step", "B", "lower"),
    ("wire.bytes_out_per_step", "B", "lower"),
    ("wire.ops_per_step", "count", "lower"),
    ("wire.retries", "count", "lower"),
    ("wire.reconnects", "count", "lower"),
    ("codec.encode_push_us", "us", "lower"),
    ("codec.decode_push_us", "us", "lower"),
    ("codec.encode_pulled_us", "us", "lower"),
    ("codec.decode_pulled_us", "us", "lower"),
    ("conn.rtt_us", "us", "lower"),
    ("conn.stats_rtt_us", "us", "lower"),
    ("engine.busy_share", "fraction", "higher"),
    ("engine.barrier_wait_share", "fraction", "lower"),
    ("engine.barrier_wait_mean_us", "us", "lower"),
    ("engine.segment_overhead_us", "us", "lower"),
    ("engine.step_busy_p50_us", "us", "lower"),
    ("engine.step_busy_p99_us", "us", "lower"),
    ("engine.staleness_mean", "versions", "lower"),
    ("engine.staleness_max", "versions", "lower"),
    ("engine.unattributed_share", "fraction", "lower"),
    ("switch.total_us", "us", "lower"),
    ("switch.drain_us", "us", "lower"),
    ("switch.checkpoint_us", "us", "lower"),
    ("switch.restore_us", "us", "lower"),
    ("checkpoint.capture_us", "us", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("controller.overhead_us", "us", "lower"),
    ("controller.switches_per_job", "count", "lower"),
    ("controller.bsp_step_share", "fraction", "lower"),
    ("watchdog.trips_per_job", "count", "lower"),
    ("telemetry.snapshot_us", "us", "lower"),
    ("telemetry.trace_dropped", "count", "lower"),
    ("setup.job_build_ms", "ms", "lower"),
    ("baseline.single_worker_steps_per_s", "steps/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("quality.tta_censored_share", "fraction", "lower"),
    ("quality.final_loss", "loss", "lower"),
    ("replay.step_us", "us", "lower"),
    ("replay.steps_per_s", "steps/s", "higher"),
    ("replay.cover_share", "fraction", "higher"),
    ("replay.self.pull_us", "us", "lower"),
    ("replay.self.set_params_us", "us", "lower"),
    ("replay.self.sample_batch_us", "us", "lower"),
    ("replay.self.compute_us", "us", "lower"),
    ("replay.self.push_us", "us", "lower"),
    ("replay.self.sync_us", "us", "lower"),
    ("replay.self.step_us", "us", "lower"),
    ("loadgen.job_spread", "fraction", "lower"),
    ("loadgen.jobs", "count", "higher"),
    ("host.speed_index", "ratio", "lower"),
    ("host.speed_index_spread", "fraction", "lower"),
    ("host.disturbed_share", "fraction", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("trace.spans", "count", "higher"),
];

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound }))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| json!({ "name": name, "unit": unit, "better": better }))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--",
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn manifest_is_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| valid_name(n)), "bad name in {names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        // 4 + 22 runs per workload, two builds, inside the driver's budget.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 8) + 2 * 240 <= 3420);
    }
}
