//! Real parameter-server throughput: BSP vs ASP segments on worker threads,
//! plus a workers × shards scaling sweep and a transport axis.
//!
//! Beyond the headline `ps_{BSP,ASP}_4workers_50steps` numbers (kept
//! name-compatible with the original criterion bench), this harness sweeps
//! the (workers, shards, servers) grid on a larger model, measures the cost
//! of the message-passing boundary (in-process vs channel vs TCP at the
//! headline point), and persists everything as machine-readable JSON to
//! `BENCH_ps_throughput.json` at the workspace root, so the data-plane perf
//! trajectory is tracked across PRs.
//!
//! Environment knobs:
//! * `PS_BENCH_FAST=1` — smoke mode for CI: fewer samples and steps, same
//!   JSON shape.
//! * `PS_BENCH_OUT=<path>` — override the output JSON path.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sync_switch_bench::output::{load_json, Exhibit};
use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::{SegmentReport, ServerTopology, Trainer, TrainerConfig, TransportKind};
use sync_switch_workloads::{SyncProtocol, TrainableKind};

/// The original headline configuration: 4 workers, 4 shards, tiny MLP.
fn headline_trainer(workers: usize) -> Trainer {
    let data = Dataset::gaussian_blobs(4, 100, 8, 0.35, 1);
    let (train, test) = data.split(0.25);
    Trainer::new(
        Network::mlp(8, &[32], 4, 1),
        train,
        test,
        TrainerConfig::new(workers, 8, 0.05, 0.9).with_seed(1),
    )
}

/// The headline shape on a 2-server tier reached through `kind` — the
/// like-for-like comparison of the transport axis: identical two-stage
/// semantics on all three backends, only the boundary differs.
fn transport_trainer(kind: TransportKind) -> Trainer {
    let data = Dataset::gaussian_blobs(4, 100, 8, 0.35, 1);
    let (train, test) = data.split(0.25);
    let cfg = TrainerConfig::new(4, 8, 0.05, 0.9)
        .with_seed(1)
        .with_topology(ServerTopology::new(2, 4).with_transport(kind));
    Trainer::new(Network::mlp(8, &[32], 4, 1), train, test, cfg)
}

/// The sparse-vs-dense pair: the registered sparse-embedding workload
/// (512×16 table, Zipf tokens) on a 2-server channel tier, with the sparse
/// push path enabled vs forced dense. Same model, same wire, same two-stage
/// schedule — the only difference is whether ASP pushes ship touched rows
/// or whole shards.
fn sparse_pair_trainer(sparse_push: bool) -> Trainer {
    let (model, train, test) = TrainableKind::SparseEmbedding.build(1);
    let h = TrainableKind::SparseEmbedding.hyper();
    let cfg = TrainerConfig::new(4, h.batch_size, h.learning_rate, h.momentum)
        .with_seed(1)
        .with_sparse_push(sparse_push)
        .with_topology(ServerTopology::new(2, 4).with_transport(TransportKind::Channel));
    Trainer::new(model, train, test, cfg)
}

/// The headline shape with the telemetry bus explicitly on or off — the
/// overhead-control pair. Everything else is identical; the only variable
/// is whether every step records counters/histograms/trace events.
fn telemetry_trainer(telemetry: bool) -> Trainer {
    let data = Dataset::gaussian_blobs(4, 100, 8, 0.35, 1);
    let (train, test) = data.split(0.25);
    Trainer::new(
        Network::mlp(8, &[32], 4, 1),
        train,
        test,
        TrainerConfig::new(4, 8, 0.05, 0.9)
            .with_seed(1)
            .with_telemetry(telemetry),
    )
}

/// Sweep configuration: a larger MLP so sharding has parameters to split.
/// `servers > 1` runs the shard-router data plane with OSP-style two-stage
/// sync (reconciliation every 4 pushes); a non-in-process `transport` puts
/// the tier behind the wire protocol.
fn sweep_trainer(
    workers: usize,
    shards: usize,
    servers: usize,
    transport: TransportKind,
) -> Trainer {
    let data = Dataset::gaussian_blobs(4, 120, 16, 0.35, 1);
    let (train, test) = data.split(0.25);
    let mut cfg = TrainerConfig::new(workers, 8, 0.02, 0.9).with_seed(1);
    cfg.shards = shards;
    if servers > 1 || transport != TransportKind::InProcess {
        cfg.topology = ServerTopology::new(servers, 4).with_transport(transport);
    }
    Trainer::new(Network::mlp(16, &[64, 32], 4, 1), train, test, cfg)
}

struct Measurement {
    mean: Duration,
    min: Duration,
    steps: u64,
    last: SegmentReport,
}

impl Measurement {
    /// Cluster throughput of the best sample, in steps/sec.
    fn best_steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.min.as_secs_f64().max(1e-12)
    }
}

/// Times `samples` fresh segments of `steps` under `protocol`.
fn measure(
    mk: impl Fn() -> Trainer,
    protocol: SyncProtocol,
    steps: u64,
    samples: usize,
) -> Measurement {
    let mut durations = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let mut t = mk();
        let start = Instant::now();
        let report = t.run_segment(protocol, steps).expect("segment completes");
        durations.push(start.elapsed());
        last = Some(report);
    }
    let mean = durations.iter().sum::<Duration>() / samples as u32;
    let min = *durations.iter().min().expect("at least one sample");
    Measurement {
        mean,
        min,
        steps,
        last: last.expect("at least one sample"),
    }
}

fn fmt_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let fast = std::env::var("PS_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0");
    let (samples, headline_steps, sweep_steps) = if fast { (3, 20, 40) } else { (30, 50, 400) };

    let mut exhibit = Exhibit::new(
        "BENCH_ps_throughput",
        "Parameter-server data-plane throughput (headline + workers × shards sweep)",
    );

    // Headline: same shape as the original criterion bench, so the numbers
    // stay comparable across PRs.
    let mut headline = Vec::new();
    for protocol in [SyncProtocol::Bsp, SyncProtocol::Asp] {
        let m = measure(|| headline_trainer(4), protocol, headline_steps, samples);
        println!(
            "ps_{protocol}_4workers_{headline_steps}steps      mean {:>10.2} µs min {:>10.2} µs ({samples} samples)",
            fmt_us(m.mean),
            fmt_us(m.min),
        );
        headline.push(serde_json::json!({
            "name": format!("ps_{protocol}_4workers_{headline_steps}steps"),
            "protocol": protocol.to_string(),
            "workers": 4,
            "shards": 4,
            "steps": m.steps,
            "mean_us": fmt_us(m.mean),
            "min_us": fmt_us(m.min),
            "steps_per_sec": m.best_steps_per_sec(),
        }));
    }

    // Transport axis at the headline point: the same 4-worker/4-shard
    // model on a 2-server two-stage tier, reached in-process, over the
    // channel backend, and over loopback TCP. This is where the cost of
    // the message-passing boundary is read off directly.
    let mut transport_points = Vec::new();
    let mut transport_rows = Vec::new();
    for kind in [
        TransportKind::InProcess,
        TransportKind::Channel,
        TransportKind::Tcp,
    ] {
        for protocol in [SyncProtocol::Bsp, SyncProtocol::Asp] {
            let m = measure(
                || transport_trainer(kind),
                protocol,
                headline_steps,
                samples,
            );
            let wire = &m.last.transport;
            println!(
                "ps_{protocol}_4workers_{headline_steps}steps_srv2_{kind} mean {:>10.2} µs min {:>10.2} µs ({samples} samples)",
                fmt_us(m.mean),
                fmt_us(m.min),
            );
            transport_rows.push(vec![
                kind.to_string(),
                protocol.to_string(),
                format!("{:.0}", m.best_steps_per_sec()),
                format!("{:.2}", fmt_us(m.mean) / 1.0e3),
                format!("{:.1}", wire.push.mean_us()),
                format!("{:.1}", wire.pull.mean_us()),
                format!("{:.3}", wire.total_wire_s()),
            ]);
            transport_points.push(serde_json::json!({
                "name": format!("ps_{protocol}_4workers_{headline_steps}steps_srv2_{kind}"),
                "protocol": protocol.to_string(),
                "transport": kind.to_string(),
                "workers": 4,
                "shards": 4,
                "servers": 2,
                "steps": m.steps,
                "mean_us": fmt_us(m.mean),
                "min_us": fmt_us(m.min),
                "steps_per_sec": m.best_steps_per_sec(),
                "wire_push_mean_us": wire.push.mean_us(),
                "wire_pull_mean_us": wire.pull.mean_us(),
                "wire_total_s": wire.total_wire_s(),
                "wire_round_trips": wire.total_round_trips(),
                "wire_bytes": wire.total_bytes(),
                "wire_retries": wire.retries,
                "wire_reconnects": wire.reconnects,
            }));
        }
    }
    exhibit.line("");
    exhibit.line("Transport axis (headline shape, 2 servers, sync_every=4):");
    exhibit.table(
        &[
            "transport",
            "protocol",
            "steps/s",
            "mean ms",
            "push µs",
            "pull µs",
            "wire s",
        ],
        &transport_rows,
    );

    // Sparse-vs-dense headline pair: the sparse-embedding workload over
    // the channel tier with the sparse push path on vs off. Wire payload
    // bytes are the point; throughput rides along.
    let mut sparse_points = Vec::new();
    let mut sparse_rows = Vec::new();
    for (mode, sparse_push) in [("sparse", true), ("dense", false)] {
        let m = measure(
            || sparse_pair_trainer(sparse_push),
            SyncProtocol::Asp,
            headline_steps,
            samples,
        );
        let wire = &m.last.transport;
        println!(
            "ps_ASP_sparse_embedding_{mode}          mean {:>10.2} µs min {:>10.2} µs ({samples} samples, {} push bytes out)",
            fmt_us(m.mean),
            fmt_us(m.min),
            wire.push.bytes_out,
        );
        sparse_rows.push(vec![
            mode.to_string(),
            format!("{:.0}", m.best_steps_per_sec()),
            format!("{:.2}", fmt_us(m.mean) / 1.0e3),
            wire.push.bytes_out.to_string(),
            format!("{:.1}", wire.push.mean_us()),
        ]);
        sparse_points.push(serde_json::json!({
            "name": format!("ps_ASP_sparse_embedding_{mode}"),
            "workload": TrainableKind::SparseEmbedding.name(),
            "mode": mode,
            "protocol": "ASP",
            "workers": 4,
            "servers": 2,
            "transport": "channel",
            "steps": m.steps,
            "mean_us": fmt_us(m.mean),
            "min_us": fmt_us(m.min),
            "steps_per_sec": m.best_steps_per_sec(),
            "wire_push_bytes_out": wire.push.bytes_out,
            "wire_push_mean_us": wire.push.mean_us(),
            "wire_total_s": wire.total_wire_s(),
        }));
    }
    exhibit.line("");
    exhibit.line("Sparse-vs-dense pair (sparse_embedding workload, channel, 2 servers):");
    exhibit.table(
        &["mode", "steps/s", "mean ms", "push bytes out", "push µs"],
        &sparse_rows,
    );

    // Telemetry overhead pair: identical ASP runs with the bus on vs off.
    // Samples are interleaved (on, off, on, off, …) so clock drift and
    // cache warm-up hit both arms equally — the 5% overhead gate in
    // bench_json_check compares the two means, and an unpaired measurement
    // would gate on machine noise instead of recording cost.
    // Long segments: each sample spawns and joins the worker threads, and
    // that fixed cost is noisy enough to drown a sub-1% per-step signal in
    // short runs — 32× the headline steps keeps the measured region
    // dominated by actual steps.
    let telemetry_steps = headline_steps * 32;
    let telemetry_samples = (samples * 2).max(16);
    // The first pairs are warm-up (allocator, branch predictors, thread
    // pool) and are discarded; the reported "mean" is the interquartile
    // mean of the rest — this box shows ±20% scheduler outliers even on
    // identical arms, and a plain mean of a dozen samples would trip the
    // 5% gate on noise alone.
    let telemetry_warmup = 2usize;
    let mut arm_durations = [Vec::new(), Vec::new()];
    for pair in 0..telemetry_warmup + telemetry_samples {
        // Alternate the arm order between pairs: whichever segment runs
        // first in a pair inherits a different cache/frequency state than
        // the second, and with a fixed order that systematic difference
        // lands entirely on one arm and biases every pair ratio the same
        // way. Alternating makes it cancel in the median.
        let order = if pair % 2 == 0 {
            [(0usize, true), (1usize, false)]
        } else {
            [(1usize, false), (0usize, true)]
        };
        for (arm, telemetry) in order {
            let mut t = telemetry_trainer(telemetry);
            let start = Instant::now();
            t.run_segment(SyncProtocol::Asp, telemetry_steps)
                .expect("telemetry-arm segment completes");
            let took = start.elapsed();
            if pair >= telemetry_warmup {
                arm_durations[arm].push(took);
            }
        }
    }
    let interquartile_mean = |durations: &[Duration]| {
        let mut sorted = durations.to_vec();
        sorted.sort();
        let trim = sorted.len() / 4;
        let kept = &sorted[trim..sorted.len() - trim];
        kept.iter().sum::<Duration>() / kept.len() as u32
    };
    // The gate statistic: per-pair on/off ratio, median across pairs. Each
    // pair runs back to back, so the ratio cancels slow machine drift, and
    // the median ignores the scheduler outliers that can blow either arm's
    // mean up by ±20% on a shared box.
    let mut pair_ratios: Vec<f64> = arm_durations[0]
        .iter()
        .zip(&arm_durations[1])
        .map(|(on, off)| on.as_secs_f64() / off.as_secs_f64().max(1e-12))
        .collect();
    pair_ratios.sort_by(f64::total_cmp);
    let paired_overhead_pct = (pair_ratios[pair_ratios.len() / 2] - 1.0) * 100.0;
    println!("ps_ASP_telemetry paired-median overhead {paired_overhead_pct:+.2}%");
    let mut telemetry_points = Vec::new();
    for (arm, mode) in [(0usize, "on"), (1usize, "off")] {
        let durations = &arm_durations[arm];
        let mean = interquartile_mean(durations);
        let min = *durations.iter().min().expect("at least one sample");
        println!(
            "ps_ASP_telemetry_{mode}                 mean {:>10.2} µs min {:>10.2} µs ({telemetry_samples} samples)",
            fmt_us(mean),
            fmt_us(min),
        );
        // The paired statistic rides on the "on" arm so the artifact stays
        // a flat per-arm array the validator already understands.
        let point = if mode == "on" {
            serde_json::json!({
                "name": format!("ps_ASP_telemetry_{mode}"),
                "mode": mode,
                "protocol": "ASP",
                "workers": 4,
                "shards": 4,
                "steps": telemetry_steps,
                "mean_us": fmt_us(mean),
                "min_us": fmt_us(min),
                "steps_per_sec": telemetry_steps as f64 / min.as_secs_f64().max(1e-12),
                "paired_median_overhead_pct": paired_overhead_pct,
            })
        } else {
            serde_json::json!({
                "name": format!("ps_ASP_telemetry_{mode}"),
                "mode": mode,
                "protocol": "ASP",
                "workers": 4,
                "shards": 4,
                "steps": telemetry_steps,
                "mean_us": fmt_us(mean),
                "min_us": fmt_us(min),
                "steps_per_sec": telemetry_steps as f64 / min.as_secs_f64().max(1e-12),
            })
        };
        telemetry_points.push(point);
    }

    // Scaling sweep: workers × shards × servers under both protocols
    // (server counts above the shard count would just clamp — skipped),
    // plus the transport axis at the 4w/4s/2srv configuration.
    let workers_grid = [1usize, 2, 4, 8];
    let shards_grid = [1usize, 4, 16, 64];
    let servers_grid = [1usize, 2, 4];
    let mut configs: Vec<(usize, usize, usize, TransportKind)> = Vec::new();
    for &workers in &workers_grid {
        for &shards in &shards_grid {
            for &servers in &servers_grid {
                if servers > shards {
                    continue;
                }
                configs.push((workers, shards, servers, TransportKind::InProcess));
            }
        }
    }
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        configs.push((4, 4, 2, kind));
    }
    let mut sweep = Vec::new();
    let mut rows = Vec::new();
    for &(workers, shards, servers, transport) in &configs {
        for protocol in [SyncProtocol::Bsp, SyncProtocol::Asp] {
            let m = measure(
                || sweep_trainer(workers, shards, servers, transport),
                protocol,
                sweep_steps,
                if fast { 1 } else { 3 },
            );
            let sps = m.best_steps_per_sec();
            rows.push(vec![
                protocol.to_string(),
                workers.to_string(),
                shards.to_string(),
                servers.to_string(),
                transport.to_string(),
                format!("{sps:.0}"),
                format!("{:.2}", m.last.staleness.mean()),
                m.last
                    .shard_staleness
                    .max()
                    .map_or_else(|| "-".into(), |v| v.to_string()),
                m.last.sync_rounds.to_string(),
            ]);
            sweep.push(serde_json::json!({
                "protocol": protocol.to_string(),
                "workers": workers,
                "shards": shards,
                "servers": servers,
                "transport": transport.to_string(),
                "steps": m.steps,
                "mean_us": fmt_us(m.mean),
                "min_us": fmt_us(m.min),
                "steps_per_sec": sps,
                "staleness_mean": m.last.staleness.mean(),
                "shard_staleness_max": m.last.shard_staleness.max(),
                "sync_rounds": m.last.sync_rounds,
            }));
        }
    }
    exhibit.table(
        &[
            "protocol",
            "workers",
            "shards",
            "servers",
            "transport",
            "steps/s",
            "staleness",
            "shard max",
            "sync rounds",
        ],
        &rows,
    );
    exhibit.print();

    exhibit.json = serde_json::json!({
        "id": "ps_throughput",
        "fast": fast,
        "headline": headline,
        "transport": transport_points,
        "sparse": sparse_points,
        "telemetry": telemetry_points,
        "sweep": sweep,
        // Historical reference point, NOT re-measured: the headline
        // numbers recorded immediately before the shard-parallel
        // data-plane refactor (allocation-per-pull + single-mutex BSP
        // accumulator), on the machine named below. Compare fresh numbers
        // against it only on comparable hardware.
        "baseline_pre_refactor": {
            "measured_on": "single-core CI container, 2026-07-29 (pre-PR-2 seed)",
            "ps_BSP_4workers_50steps": {"mean_us": 2110.0, "min_us": 1930.0},
            "ps_ASP_4workers_50steps": {"mean_us": 498.61, "min_us": 448.96},
        },
    });

    let out = std::env::var("PS_BENCH_OUT").map_or_else(
        |_| {
            if fast {
                // Smoke numbers (fewer samples, shorter segments, different
                // headline names) must not overwrite the tracked perf
                // trajectory at the workspace root.
                std::env::temp_dir().join("BENCH_ps_throughput_smoke.json")
            } else {
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("../..")
                    .join("BENCH_ps_throughput.json")
            }
        },
        PathBuf::from,
    );
    exhibit.save_at(&out).expect("write bench JSON");
    // Self-check: the file must read back as well-formed JSON with the
    // sweep populated — CI fails the smoke run otherwise.
    let back = load_json(&out).expect("bench JSON reads back");
    let points = back
        .get("sweep")
        .and_then(|s| s.as_array())
        .map_or(0, Vec::len);
    assert!(points > 0, "bench JSON has an empty sweep");
    println!("\nwrote {} ({points} sweep points)", out.display());
}
