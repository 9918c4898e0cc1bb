//! Integration tests of the message-passing transport tier: the same
//! BSP/ASP/SSP engine loops driving `PsServer`s behind the wire protocol,
//! over both the in-memory channel backend and loopback TCP.
//!
//! This file is also the CI `transport` stage (`./ci.sh --stage
//! transport`), which runs it under a hard `timeout` so a hung socket
//! fails fast instead of wedging the gate.

#[path = "support/deadline.rs"]
mod deadline;

use deadline::deadline;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sync_switch_nn::{Dataset, Network, SgdMomentum};
use sync_switch_ps::engine::step_rng;
use sync_switch_ps::transport::wire::{decode_stats_snapshot, encode_stats_snapshot, op};
use sync_switch_ps::{
    FaultPlan, HistogramSnapshot, NetPort, RetryPolicy, ServerStatsSnapshot, ServerTopology,
    ShardedStore, TcpServerHost, Trainer, TrainerConfig, TransportKind, TransportStats, UpdateData,
    WorkerPort, HIST_BUCKETS, OPCODE_SLOTS,
};
use sync_switch_workloads::{SyncProtocol, TrainableKind};

/// Three workers over 7 shards on a 2-server tier behind `kind`.
fn transport_trainer(kind: TransportKind, sync_every: u64, seed: u64) -> Trainer {
    let topology = ServerTopology::new(2, sync_every);
    trainer_over(topology.with_transport(kind), seed)
}

fn trainer_over(topology: ServerTopology, seed: u64) -> Trainer {
    let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, seed);
    let (train, test) = data.split(0.25);
    let mut cfg = TrainerConfig::new(3, 8, 0.05, 0.9).with_seed(seed);
    cfg.shards = 7;
    cfg.topology = topology;
    Trainer::new(Network::mlp(6, &[16], 4, seed), train, test, cfg)
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

/// Sequential large-batch SGD replay of the exact batches the BSP workers
/// sample (same seeded RNG), the reference every BSP path must match.
fn sequential_reference(trainer: &Trainer, workers: usize, rounds: u64, seed: u64) -> Vec<f32> {
    let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, seed);
    let (train, _) = data.split(0.25);
    let shards: Vec<Dataset> = (0..workers).map(|k| train.shard(k, workers)).collect();
    let mut model = Network::mlp(6, &[16], 4, seed);
    let initial = model.params_flat();
    let mut opt = SgdMomentum::new(model.param_count(), 0.05, 0.9);
    let mut params = initial;
    assert_eq!(params.len(), trainer.checkpoint().params.len());
    for r in 0..rounds {
        let mut avg = vec![0.0f32; model.param_count()];
        for (w, shard) in shards.iter().enumerate() {
            model.set_params_flat(&params);
            let mut rng = step_rng(seed, w, r);
            let (x, y) = shard.sample_batch(8, &mut rng);
            let (_, grad) = model.loss_and_grad(&x, &y);
            for (a, g) in avg.iter_mut().zip(&grad) {
                *a += g / workers as f32;
            }
        }
        opt.apply(&mut params, &avg);
    }
    params
}

fn assert_bsp_matches_sequential(kind: TransportKind) {
    let seed = 7;
    let rounds = 10;
    let mut t = transport_trainer(kind, 4, seed);
    assert_eq!(t.server_count(), 2);
    assert!(t.net_router().is_some(), "plane must be transport-backed");
    assert!(t.store().is_none());
    let r = t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
    // Every barrier round drained stage 2 over the wire.
    assert_eq!(r.sync_rounds, rounds);
    assert_eq!(r.shard_staleness.max(), Some(0));
    assert_eq!(r.shard_staleness.total(), rounds * 7);
    // A round is one round trip per server: the stripes of its shards, the
    // drain and the next round's pull in one batch. Only the segment's
    // first round pulls — each of the 3 workers from each server.
    let (servers, workers) = (2, 3);
    let wire = r.transport;
    assert_eq!(wire.backend, Some(kind));
    assert_eq!(wire.push.ops, rounds * 7);
    assert_eq!(wire.push.round_trips, rounds * servers);
    assert_eq!(wire.sync.ops, rounds * servers);
    assert_eq!(wire.sync.round_trips, 0);
    let first_pulls = workers * servers;
    assert_eq!(wire.pull.round_trips, first_pulls);
    assert_eq!(wire.pull.ops, first_pulls + rounds * servers);
    assert_eq!(wire.total_round_trips(), (rounds + workers) * servers);
    assert!(wire.total_wire_s() > 0.0);

    let max_diff = max_abs_diff(
        &t.checkpoint().params,
        &sequential_reference(&t, 3, rounds, seed),
    );
    assert!(
        max_diff < 1e-4,
        "{kind} BSP diverged from sequential SGD by {max_diff}"
    );
}

#[test]
fn channel_bsp_equals_sequential_large_batch_sgd() {
    let _deadline = deadline(120);
    assert_bsp_matches_sequential(TransportKind::Channel);
}

#[test]
fn tcp_bsp_equals_sequential_large_batch_sgd() {
    let _deadline = deadline(120);
    assert_bsp_matches_sequential(TransportKind::Tcp);
}

#[test]
fn tcp_asp_trains_and_reports_wire_cost() {
    let _deadline = deadline(120);
    let mut t = transport_trainer(TransportKind::Tcp, 4, 9);
    let steps = 120;
    let r = t.run_segment(SyncProtocol::Asp, steps).unwrap();
    assert_eq!(r.steps, steps);
    assert_eq!(t.push_count(), steps);
    // One push op per shard per step, a server's shards sharing one round
    // trip per step; every step read one image per server, most of which
    // rode home on a push or sync reply (and some of those were outdated by
    // a peer's round before they could be read); periodic sync rounds fired
    // on the wire.
    assert_eq!(r.transport.push.ops, steps * 7);
    assert_eq!(r.transport.push.round_trips, steps * 2);
    let pull = r.transport.pull;
    assert!(pull.ops >= steps * 2, "{pull:?}");
    assert!(pull.round_trips < steps * 2, "{pull:?}");
    assert!(r.sync_rounds >= 1);
    assert!(r.transport.sync.ops >= 2);
    // Push requests carry gradients out; pull replies carry params in.
    assert!(r.transport.push.bytes_out > r.transport.push.bytes_in);
    assert!(r.transport.pull.bytes_in > r.transport.pull.bytes_out);
    // Committed-view reads through a real socket still measure staleness.
    assert!(r.staleness.mean() > 0.0);
}

#[test]
fn channel_ssp_respects_gate_and_counts_wire_ops() {
    let _deadline = deadline(120);
    let mut t = transport_trainer(TransportKind::Channel, 3, 11);
    let steps = 90;
    let bound = 1u64;
    let r = t.run_ssp_segment(bound, steps).unwrap();
    assert_eq!(r.steps, steps);
    assert_eq!(r.transport.backend, Some(TransportKind::Channel));
    assert_eq!(r.transport.push.ops, steps * 7);
    // Same cap as the in-process tier: the gate plus the stage-2 period
    // bound per-server per-shard staleness.
    let workers = 3u64;
    let cap = (2 * bound + 2) * (workers - 1) + 3 + 2 * workers;
    let max = r.shard_staleness.max().unwrap();
    assert!(max <= cap, "staleness {max} exceeds cap {cap}");
}

#[test]
fn transport_trainer_switches_and_restores() {
    let _deadline = deadline(120);
    // checkpoint → switch → restore crosses the wire (snapshot/restore
    // frames) and keeps training.
    let mut t = transport_trainer(TransportKind::Channel, 8, 13);
    t.run_segment(SyncProtocol::Asp, 30).unwrap();
    let ck = t.checkpoint();
    let plan = sync_switch_ps::SwitchPlan {
        to: SyncProtocol::Bsp,
        per_worker_batch: 8,
        learning_rate: 0.05,
        momentum: 0.9,
        reset_velocity: false,
    };
    let outcome = sync_switch_ps::execute_switch(&mut t, &plan).unwrap();
    assert!(outcome.total() >= outcome.drain_time);
    assert_eq!(t.checkpoint().params, ck.params);
    let r = t.run_segment(SyncProtocol::Bsp, 5).unwrap();
    assert_eq!(r.shard_staleness.max(), Some(0));
    t.restore(&ck).unwrap();
    assert_eq!(t.global_step(), 30);
    assert_eq!(t.checkpoint().params, ck.params);
}

#[test]
fn single_server_channel_tier_still_crosses_the_wire() {
    let _deadline = deadline(120);
    // servers == 1 with a wire transport is a real (if small) tier: pulls
    // read the committed view, so the stage-2 period shows up as honest
    // staleness — unlike the in-process single-store fast path.
    let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 18);
    let (train, test) = data.split(0.25);
    let mut cfg = TrainerConfig::new(1, 8, 0.02, 0.9).with_seed(18);
    cfg.shards = 4;
    cfg.topology = ServerTopology::new(1, 4).with_transport(TransportKind::Channel);
    let mut t = Trainer::new(Network::mlp(6, &[16], 4, 18), train, test, cfg);
    assert_eq!(t.server_count(), 1);
    assert!(t.net_router().is_some());
    let r = t.run_segment(SyncProtocol::Asp, 40).unwrap();
    // One worker, committed view: push k pulls the view committed at the
    // last round, so staleness is k mod sync_every (same law the
    // in-process direct tier's test pins).
    assert_eq!(r.staleness.max(), Some(3));
    assert!((r.staleness.mean() - 1.5).abs() < 1e-9);
    // The first pull asks; every later one was brought home by the push
    // reply of the step before it — behind the commit every fourth step —
    // and the last step's is left unread.
    assert_eq!(r.transport.pull.ops, 41);
    assert_eq!(r.transport.pull.round_trips, 1);
    assert_eq!(r.transport.total_round_trips(), 1 + 40);
}

/// Builds the sparse-embedding workload on a 2-server wire tier.
fn sparse_workload_trainer(kind: TransportKind, sparse_push: bool, seed: u64) -> Trainer {
    let (model, train, test) = TrainableKind::SparseEmbedding.build(seed);
    let h = TrainableKind::SparseEmbedding.hyper();
    let cfg = TrainerConfig::new(2, h.batch_size, h.learning_rate, h.momentum)
        .with_seed(seed)
        .with_sparse_push(sparse_push)
        .with_topology(ServerTopology::new(2, 4).with_transport(kind));
    Trainer::new(model, train, test, cfg)
}

#[test]
fn tcp_sparse_pushes_ship_fewer_bytes_than_dense() {
    let _deadline = deadline(120);
    // The sparse workload over loopback TCP: identical step budget with
    // the sparse path on vs forced dense. The embedding table dominates
    // the parameter count while a batch touches at most
    // workers · batch · tokens of its rows, so sparse push payloads must
    // be a fraction of the dense ones — measured at the wire
    // (profiler::TransportStats payload bytes), not assumed.
    let steps = 40;
    let run = |sparse_push: bool| {
        let mut t = sparse_workload_trainer(TransportKind::Tcp, sparse_push, 23);
        let r = t.run_segment(SyncProtocol::Asp, steps).unwrap();
        assert_eq!(r.steps, steps);
        assert_eq!(r.transport.backend, Some(TransportKind::Tcp));
        // Same op structure either way: one push op per shard per step, one
        // push round trip per server per step (the sparse path changes
        // payloads, not the protocol).
        assert_eq!(r.transport.push.ops, steps * 2);
        (r, t.training_loss())
    };
    let (sparse, sparse_loss) = run(true);
    let (dense, dense_loss) = run(false);
    assert!(sparse_loss.is_finite() && dense_loss.is_finite());
    assert!(
        sparse.transport.push.bytes_out < dense.transport.push.bytes_out,
        "sparse pushes not smaller: {} vs {} bytes",
        sparse.transport.push.bytes_out,
        dense.transport.push.bytes_out
    );
    // The saving is structural, not marginal: the 512×16 table is ~94% of
    // the parameters and a batch touches at most 2·8·8 = 128 of its 512
    // rows, so well under half the dense volume should move.
    assert!(
        (sparse.transport.push.bytes_out as f64) < 0.6 * dense.transport.push.bytes_out as f64,
        "sparse saving too small: {} vs {} bytes",
        sparse.transport.push.bytes_out,
        dense.transport.push.bytes_out
    );
    // Both runs' pulls ride their push replies: the dense run's whole
    // vector, the sparse run's runs of the batch drawn before the push.
    let (sparse, dense) = (sparse.transport, dense.transport);
    assert!(sparse.pull.round_trips < steps * 2);
    assert!(dense.pull.round_trips < steps * 2);
    // The acks are the same in both runs: bare 9-byte frames, inside a
    // 7-byte batch frame whenever something rode the push (each server
    // owns one shard, so only then). In the dense run that is a pull,
    // which every push after the first pull carries. In the sparse run it
    // is a pull too, but a worker's last push draws no next batch and
    // carries none, so it is a batch only if it commits.
    let acks = |batched: u64| steps * 2 * 9 + 7 * batched;
    let batched = (sparse.push.bytes_in - acks(0)) / 7;
    let rode = sparse.pull.ops - sparse.pull.round_trips;
    assert_eq!(sparse.push.bytes_in, acks(batched));
    assert!(
        (rode..=rode + 2 * 2).contains(&batched),
        "{batched} batched replies, {rode} pulls rode"
    );
    assert_eq!(
        dense.push.bytes_in,
        acks(dense.pull.ops - dense.pull.round_trips)
    );
}

#[test]
fn tcp_sparse_pulls_ship_fewer_bytes_than_dense() {
    let _deadline = deadline(120);
    // The pull-side twin of the test above: with the sparse path on, a
    // step pulls only the table rows its batch names plus the dense head,
    // so the pull replies — measured at the wire — are a fraction of the
    // dense run's, over exactly as many round trips.
    let steps = 40;
    let pulls = |mut t: Trainer| {
        let r = t.run_segment(SyncProtocol::Asp, steps).unwrap();
        assert_eq!(r.steps, steps);
        // Every server answers for every step either way: its clocks date
        // the pull even when it owns nothing the batch reads.
        assert!(r.transport.pull.ops >= steps * 2);
        assert!(t.training_loss().is_finite());
        r.transport.pull
    };
    // The registry workload: 512 × 16 table + a 508-float head, ≈ 34.8 KB
    // per dense pull. A batch names at most 8 · 8 rows of 64 B; the head
    // (2 KB, the floor) moves every step. Measured: ≈ 4.7 KB per step.
    let registry = |sparse| pulls(sparse_workload_trainer(TransportKind::Tcp, sparse, 23));
    let (sparse, dense) = (registry(true), registry(false));
    // A worker draws its next batch before it pushes, so the push brings
    // home the runs that batch reads, as it brings home the whole vector
    // for a dense step: neither kind of pull is always asked for.
    assert!(sparse.round_trips < steps * 2);
    assert!(dense.round_trips < steps * 2);
    assert!(
        sparse.bytes_in * 5 < dense.bytes_in,
        "sparse pulls not much smaller: {} vs {} bytes",
        sparse.bytes_in,
        dense.bytes_in
    );
    // The requests grow by the run lists, far less than the replies shrink.
    assert!(sparse.bytes_out > dense.bytes_out);
    assert!(sparse.bytes_out - dense.bytes_out < (dense.bytes_in - sparse.bytes_in) / 10);
    // The same shape with a table wide enough to dominate (4096 × 32, the
    // benchmark's `asp_tcp_embed` model, ≈ 528 KB per dense pull): under a
    // twentieth of the bytes.
    let wide = |sparse| {
        let h = TrainableKind::SparseEmbedding.hyper();
        let (train, test) = Dataset::zipf_tokens(4, 60, 4096, 8, 1.1, 23).split(0.25);
        let cfg = TrainerConfig::new(2, h.batch_size, 0.08, h.momentum)
            .with_seed(23)
            .with_sparse_push(sparse)
            .with_topology(ServerTopology::new(2, 4).with_transport(TransportKind::Tcp));
        let model = Network::embedding_classifier(4096, 32, 24, 8, 4, 23);
        pulls(Trainer::new(model, train, test, cfg))
    };
    let (sparse, dense) = (wide(true), wide(false));
    assert!(sparse.round_trips < steps * 2);
    assert!(
        sparse.bytes_in * 20 < dense.bytes_in,
        "wide-table sparse pulls: {} vs {} bytes",
        sparse.bytes_in,
        dense.bytes_in
    );
}

#[test]
fn channel_sparse_workload_matches_dense_numerics_over_the_wire() {
    let _deadline = deadline(120);
    // One worker makes the wire run deterministic: sparse and dense runs
    // must agree on every parameter bit even through the channel tier.
    let run = |sparse_push: bool| {
        let (model, train, test) = TrainableKind::SparseEmbedding.build(29);
        let h = TrainableKind::SparseEmbedding.hyper();
        let cfg = TrainerConfig::new(1, h.batch_size, h.learning_rate, h.momentum)
            .with_seed(29)
            .with_sparse_push(sparse_push)
            .with_topology(ServerTopology::new(2, 4).with_transport(TransportKind::Channel));
        let mut t = Trainer::new(model, train, test, cfg);
        t.run_segment(SyncProtocol::Asp, 30).unwrap();
        t.checkpoint()
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a.params, b.params, "sparse wire path changed the numerics");
    assert_eq!(a.velocity, b.velocity);
}

// ---- Batched pushes: the queue/flush port path against the per-shard one ----

/// Which payload form the shards of a push take.
#[derive(Debug, Clone, Copy)]
enum PushForm {
    Dense,
    Sparse,
    /// What the engine's sparse helper produces on a model with one dense
    /// layer: sparse shards interleaved with full-cover dense fallbacks.
    Mixed,
}

/// The 2-server × 7-shard data plane behind each port variant. Every
/// request that carries pushes commits: a shard-by-shard push is a request
/// per shard and a queued one a request per server, so only then do both
/// forms publish the same views at the same pulls.
fn plane(which: usize, initial: &[f32]) -> WorkerPort {
    let topology = ServerTopology::new(2, 1);
    match which {
        0 => WorkerPort::Single(Arc::new(ShardedStore::new(initial, 7))),
        1 => WorkerPort::Net(NetPort::launch(initial, 7, topology)),
        2 => WorkerPort::Net(NetPort::launch(
            initial,
            7,
            topology.with_transport(TransportKind::Channel),
        )),
        _ => WorkerPort::Net(NetPort::launch(
            initial,
            7,
            topology.with_transport(TransportKind::Tcp),
        )),
    }
}

/// Nine pushes by three workers taking turns, each a pull, a walk over the
/// shards in flat order — queued and flushed when `batched`, else sent one
/// by one — and a completed push; returns every ack and push staleness in
/// order, then the drained params, velocity and shard clocks.
fn drive_pushes(
    port: &WorkerPort,
    batched: bool,
    form: PushForm,
) -> (Vec<u64>, Vec<f32>, Vec<f32>, Vec<u64>) {
    let (lr, mu) = (0.05, 0.9);
    let workers = [port.clone(), port.clone(), port.clone()];
    let mut observed = Vec::new();
    for step in 0..9usize {
        let w = &workers[step % 3];
        let mut buf = w.new_buffer();
        w.pull_into(&mut buf).expect("pull");
        let grad: Vec<f32> = (0..103).map(|i| ((i * 7 + step) as f32).cos()).collect();
        let mut acks = Vec::new();
        for g in 0..w.shard_count() {
            let (o, l) = w.shard_range(g);
            let sparse = match form {
                PushForm::Dense => false,
                PushForm::Sparse => true,
                PushForm::Mixed => (g + step) % 2 == 0,
            };
            // A sparse shard carries its middle third.
            let (start, len) = (l / 3, l / 3 + 1);
            let spans = [(start as u32, len as u32)];
            let rows = &grad[o + start..o + start + len];
            let (dense, sparse_data) = (
                UpdateData::Dense(&grad[o..o + l]),
                UpdateData::Sparse {
                    indices: &spans,
                    rows,
                },
            );
            let pushed = match (batched, sparse) {
                (true, false) => w.queue_shard_update(g, dense, lr, mu, &mut acks),
                (true, true) => w.queue_shard_update(g, sparse_data, lr, mu, &mut acks),
                (false, false) => w
                    .apply_shard_update(g, &grad[o..o + l], lr, mu)
                    .map(|a| acks.push(a)),
                (false, true) => w
                    .apply_shard_update_sparse(g, &spans, rows, lr, mu)
                    .map(|a| acks.push(a)),
            };
            pushed.expect("push");
        }
        if batched {
            w.flush_pushes(&mut acks, None).expect("flush");
        }
        assert_eq!(acks.len(), 7, "one ack per shard");
        observed.append(&mut acks);
        observed.push(w.complete_push(buf.version()));
    }
    port.drain().expect("drain");
    let (params, velocity) = match port {
        WorkerPort::Single(s) => (s.snapshot_params(), s.snapshot_velocity()),
        WorkerPort::Net(p) => (p.router().snapshot_params(), p.router().snapshot_velocity()),
        WorkerPort::Routed(never) => match *never {},
    };
    let mut buf = port.new_buffer();
    port.pull_into(&mut buf).expect("pull");
    let clocks = (0..7).map(|g| buf.shard_version(g)).collect();
    (observed, params, velocity, clocks)
}

#[test]
fn batched_pushes_equal_per_shard_pushes_on_every_plane() {
    let _deadline = deadline(120);
    let initial: Vec<f32> = (0..103).map(|i| (i as f32 * 0.37).sin()).collect();
    for which in 0..4 {
        for form in [PushForm::Dense, PushForm::Sparse, PushForm::Mixed] {
            let per_shard = plane(which, &initial);
            let batched = plane(which, &initial);
            let a = drive_pushes(&per_shard, false, form);
            let b = drive_pushes(&batched, true, form);
            assert_eq!(a.0, b.0, "plane {which} {form:?}: acks or staleness differ");
            assert_eq!(a.1, b.1, "plane {which} {form:?}: params differ");
            assert_eq!(a.2, b.2, "plane {which} {form:?}: velocity differs");
            assert_eq!(a.3, b.3, "plane {which} {form:?}: shard clocks differ");
            assert!(a.3.iter().all(|&c| c == 9), "every shard saw every push");
            let (WorkerPort::Net(a), WorkerPort::Net(b)) = (&per_shard, &batched) else {
                continue;
            };
            // Same logical ops on both sides of the wire...
            let (a, b) = (a.router(), b.router());
            assert_eq!(a.stats().push.ops, 9 * 7);
            assert_eq!(b.stats().push.ops, 9 * 7);
            for r in [a, b] {
                let mut merged = ServerStatsSnapshot::default();
                for snap in r.scrape_all_stats().into_iter().flatten() {
                    merged.merge(&snap);
                }
                assert_eq!(
                    merged.requests_for(op::PUSH_SHARD)
                        + merged.requests_for(op::PUSH_SHARD_SPARSE),
                    9 * 7
                );
                assert_eq!(merged.apply_ns.count, 9 * 7);
                assert_eq!(merged.dedup_hits, 0);
            }
            // ...in fewer frames: per push, seven 14-byte sequencing
            // headers become two (one round trip per server) plus two
            // 3-byte batch headers and seven 4-byte item lengths.
            assert_eq!(
                a.stats().push.bytes_out - b.stats().push.bytes_out,
                9 * (7 * 14 - (2 * (14 + 3) + 7 * 4)),
                "plane {which} {form:?}: not one push round trip per server"
            );
            assert_eq!(b.stats().retries + b.stats().reconnects, 0);
        }
    }
}

// ---- Prefetched pulls: one round trip per server per asynchronous step ----

/// One worker's 40 asynchronous steps (SSP when `leash` is set) on a
/// 2-server × 7-shard tier; returns the final parameters and velocity, the
/// segment's wire stats and the servers' dedup hits.
fn one_worker_run(
    topology: ServerTopology,
    leash: Option<u64>,
) -> (Vec<f32>, Vec<f32>, TransportStats, u64) {
    let seed = 37;
    let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, seed);
    let (train, test) = data.split(0.25);
    let mut cfg = TrainerConfig::new(1, 8, 0.05, 0.9).with_seed(seed);
    cfg.shards = 7;
    cfg.topology = topology;
    let mut t = Trainer::new(Network::mlp(6, &[16], 4, seed), train, test, cfg);
    let r = match leash {
        Some(bound) => t.run_ssp_segment(bound, 40),
        None => t.run_segment(SyncProtocol::Asp, 40),
    }
    .unwrap();
    let dedup_hits = t.net_router().map_or(0, |router| {
        let scraped = router.scrape_all_stats();
        scraped.iter().flatten().map(|s| s.dedup_hits).sum()
    });
    let ck = t.checkpoint();
    (ck.params, ck.velocity, r.transport, dedup_hits)
}

#[test]
fn prefetched_pulls_change_round_trips_not_numerics() {
    let _deadline = deadline(120);
    // With one worker nothing is concurrent, so every tier must end bit for
    // bit where a reference that never prefetches ends — whether a step's
    // pull was asked for or rode home on the step before — and the round
    // trips can be counted exactly. With a round behind every push the
    // committed view is the live one, so the reference is the single store
    // on the same 7 shards: it shares no code with the tier's commit or
    // prefetch path. With rounds four pushes apart no such reference
    // exists, and the three backends must agree with each other; that each
    // image a reply brings home is what an explicit pull would return is
    // `a_pull_rides_the_push_reply_until_a_round_completes`' check.
    let kinds = [
        TransportKind::InProcess,
        TransportKind::Channel,
        TransportKind::Tcp,
    ];
    for sync_every in [1, 4] {
        for leash in [None, Some(2)] {
            let tier = ServerTopology::new(2, sync_every);
            let runs = kinds.map(|kind| one_worker_run(tier.with_transport(kind), leash));
            let want = if sync_every == 1 {
                let single = one_worker_run(ServerTopology::single(), leash);
                (single.0, single.1, "the single store".to_string())
            } else {
                (runs[0].0.clone(), runs[0].1.clone(), kinds[0].to_string())
            };
            for (kind, got) in kinds.into_iter().zip(runs) {
                let what = format!("{kind} sync_every={sync_every} leash={leash:?}");
                assert_eq!(got.0, want.0, "{what}: parameters differ from {}", want.2);
                assert_eq!(got.1, want.1, "{what}: velocity differs from {}", want.2);
                let wire = got.2;
                assert_eq!((wire.retries, wire.reconnects, got.3), (0, 0, 0), "{what}");
                // A step talks to each server once, its push carrying the
                // commit every `sync_every`-th step and the next pull every
                // step; only the very first pull is a round trip of its own.
                // (Before pulls rode along: 180 and 240 in all; before the
                // commits rode too: 82 + 2 · rounds.)
                let rounds = 40 / sync_every;
                assert_eq!(wire.push.round_trips, 80, "{what}");
                assert_eq!(wire.sync.round_trips, 0, "{what}");
                assert_eq!(wire.pull.round_trips, 2, "{what}");
                assert_eq!(wire.total_round_trips(), 82, "{what}");
                // The logical ops are what they were, plus the image the
                // last step brought home for a step that never came.
                assert_eq!(wire.push.ops, 40 * 7, "{what}");
                assert_eq!(wire.sync.ops, 2 * rounds, "{what}");
                assert_eq!(wire.pull.ops, 80 + 2, "{what}");
            }
        }
    }
}

#[test]
fn an_asynchronous_round_rides_the_push_that_makes_it_due() {
    let _deadline = deadline(120);
    // Workers push concurrently, so a push can be sent while a peer's is
    // in flight. Each server counts the requests that carry pushes to it,
    // and the `sync_every`-th commits right behind its own applies, its
    // reply carrying the `Synced`: a round costs no round trip of its own.
    // The schedule is exactly the configured one however the pushes
    // interleave — every step reaches every server once, so each commits
    // `steps / sync_every` times — and the client's round count is the
    // servers' — in-process (direct) as on the wire.
    // The printed asked share is what the riding saves: whole-vector
    // pulls on the dense model, run pulls on the sparse embedding one.
    let (seed, steps, servers) = (41, 400u64, 2u64);
    for ((workers, sync_every), sparse) in [(2, 4), (3, 1)]
        .into_iter()
        .flat_map(|shape| [(shape, false), (shape, true)])
    {
        for kind in [
            TransportKind::InProcess,
            TransportKind::Channel,
            TransportKind::Tcp,
        ] {
            let model = if sparse { "sparse" } else { "dense" };
            let what = format!("{kind}, {model}, {workers} workers, sync_every {sync_every}");
            let (model, train, test) = if sparse {
                TrainableKind::SparseEmbedding.build(seed)
            } else {
                let (train, test) = Dataset::gaussian_blobs(4, 60, 6, 0.35, seed).split(0.25);
                (Network::mlp(6, &[16], 4, seed), train, test)
            };
            let mut cfg = TrainerConfig::new(workers, 8, 0.05, 0.9).with_seed(seed);
            cfg.shards = 7;
            cfg.topology = ServerTopology::new(servers as usize, sync_every).with_transport(kind);
            let mut t = Trainer::new(model, train, test, cfg);
            let r = t.run_segment(SyncProtocol::Asp, steps).unwrap();
            let wire = r.transport;
            assert_eq!(wire.sync.round_trips, 0, "{what}: {:?}", wire.sync);
            assert_eq!(wire.push.round_trips, steps * servers, "{what}");
            assert_eq!(wire.retries, 0, "{what}");
            let router = t.net_router().unwrap();
            assert_eq!(router.sync_rounds(), steps / sync_every, "{what}");
            assert_eq!(wire.sync.ops, servers * steps / sync_every, "{what}");
            for s in 0..servers as usize {
                let scraped = router.scrape_stats(s).unwrap();
                assert_eq!(
                    scraped.requests_for(op::SYNC_ROUND),
                    steps / sync_every,
                    "{what}: server {s}"
                );
                assert_eq!(scraped.dedup_hits, 0, "{what}: server {s}");
            }
            println!(
                "{what}: {} of {} server pulls asked ({:.3}), {} rounds",
                wire.pull.round_trips,
                steps * servers,
                wire.pull.round_trips as f64 / (steps * servers) as f64,
                router.sync_rounds()
            );
        }
    }
}

#[test]
fn lost_and_duplicated_fused_replies_leave_the_run_exact() {
    let _deadline = deadline(120);
    // Dropped replies make the client re-send; duplicated requests reach
    // the server twice. Either way the server replays the cached acks and
    // only *reads* again, so the run must end exactly where the fault-free
    // one does — with pulls riding on pushes and on sync rounds throughout.
    let clean = ServerTopology::new(2, 4).with_transport(TransportKind::Channel);
    let want = one_worker_run(clean, None);
    let mut plan = FaultPlan::seeded(5);
    plan.drop_reply_per_mille = 80;
    plan.duplicate_per_mille = 80;
    let got = one_worker_run(clean.with_faults(plan), None);
    assert_eq!(got.0, want.0, "faults changed the parameters");
    assert_eq!(got.1, want.1, "faults changed the velocity");
    assert!(got.2.retries > 0, "the plan dropped no reply");
    assert!(got.3 > 0, "no request was deduplicated");
    // A retried round trip is booked once, so even the counts agree.
    assert_eq!(got.2.total_round_trips(), want.2.total_round_trips());
    assert_eq!(got.2.pull.ops, want.2.pull.ops);
}

#[test]
fn lost_and_duplicated_round_batches_leave_bsp_exact() {
    let _deadline = deadline(120);
    // A BSP round's batch carries stripes, a drain and a pull. Re-sent after
    // a lost reply, or delivered twice, it must replay the cached acks and
    // `Synced` and only re-read the pull: every stripe applied once, and the
    // run still sequential SGD.
    let (seed, rounds) = (7, 10);
    let mut plan = FaultPlan::seeded(3);
    plan.drop_reply_per_mille = 150;
    plan.duplicate_per_mille = 150;
    let topology = ServerTopology::new(2, 4).with_transport(TransportKind::Channel);
    let mut t = trainer_over(topology.with_faults(plan), seed);
    let r = t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
    assert_eq!(r.sync_rounds, rounds);
    assert!(r.transport.retries > 0, "the plan dropped no reply");
    let mut merged = ServerStatsSnapshot::default();
    for snap in t
        .net_router()
        .unwrap()
        .scrape_all_stats()
        .into_iter()
        .flatten()
    {
        merged.merge(&snap);
    }
    assert_eq!(
        merged.apply_ns.count,
        rounds * 7,
        "a stripe was applied twice"
    );
    assert!(merged.dedup_hits > 0, "no request was deduplicated");
    let max_diff = max_abs_diff(
        &t.checkpoint().params,
        &sequential_reference(&t, 3, rounds, seed),
    );
    assert!(
        max_diff < 1e-4,
        "faults moved BSP off sequential SGD by {max_diff}"
    );
}

// ---- Stats wire frame: codec exactness and the live scrape path ----

/// Encode → decode → re-encode must reproduce the snapshot *and* the
/// bytes. Byte-exactness matters beyond equality: the dedup cache replays
/// cached reply bytes verbatim, so two encodings of the same snapshot must
/// never differ.
fn assert_stats_round_trip(snap: &ServerStatsSnapshot) {
    let mut bytes = Vec::new();
    encode_stats_snapshot(&mut bytes, snap);
    let decoded = decode_stats_snapshot(&bytes).expect("well-formed Stats payload");
    assert_eq!(&decoded, snap, "decode changed the snapshot");
    let mut again = Vec::new();
    encode_stats_snapshot(&mut again, &decoded);
    assert_eq!(again, bytes, "re-encode changed the bytes");
}

#[test]
fn stats_frame_round_trips_empty_and_saturated_snapshots() {
    let _deadline = deadline(120);
    // The two boundary snapshots: a fresh server that has served nothing,
    // and a (synthetic) server whose every counter and bucket is pinned at
    // u64::MAX — the codec must move both without loss.
    assert_stats_round_trip(&ServerStatsSnapshot::default());
    let saturated = ServerStatsSnapshot {
        server: u32::MAX,
        requests: vec![u64::MAX; OPCODE_SLOTS],
        bytes_in: u64::MAX,
        bytes_out: u64::MAX,
        dedup_hits: u64::MAX,
        apply_ns: HistogramSnapshot {
            count: u64::MAX,
            sum: u64::MAX,
            max: u64::MAX,
            buckets: vec![u64::MAX; HIST_BUCKETS],
        },
        shard_apply_ns: vec![u64::MAX; 9],
        shard_applies: vec![u64::MAX; 9],
    };
    assert_stats_round_trip(&saturated);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary snapshots — any counter values, any per-shard vector
    /// length — survive the wire byte-exactly.
    #[test]
    fn stats_frame_round_trips_arbitrary_snapshots(
        server in any::<u32>(),
        requests in proptest::collection::vec(any::<u64>(), OPCODE_SLOTS),
        bytes_in in any::<u64>(),
        bytes_out in any::<u64>(),
        dedup_hits in any::<u64>(),
        count in any::<u64>(),
        sum in any::<u64>(),
        max in any::<u64>(),
        buckets in proptest::collection::vec(any::<u64>(), HIST_BUCKETS),
        shard_ns in proptest::collection::vec(any::<u64>(), 0..12),
    ) {
        let _deadline = deadline(120);
        let snap = ServerStatsSnapshot {
            server,
            requests,
            bytes_in,
            bytes_out,
            dedup_hits,
            apply_ns: HistogramSnapshot { count, sum, max, buckets },
            // Same length as shard_apply_ns (the codec pins the pairing),
            // different values.
            shard_applies: shard_ns.iter().map(|v| v >> 1).collect(),
            shard_apply_ns: shard_ns,
        };
        assert_stats_round_trip(&snap);
    }
}

#[test]
fn stats_scrape_reads_a_live_tcp_server_mid_training() {
    let _deadline = deadline(120);
    // A real ps-serve-shaped tier: one TcpServerHost on loopback, a
    // training connection driving it, and a *second* independent
    // connection scraping `Stats` frames while the segment runs — the
    // live-monitor path, not a post-mortem read.
    let seed = 31;
    let shards = 4;
    let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, seed);
    let (train, test) = data.split(0.25);
    let model = Network::mlp(6, &[16], 4, seed);
    let initial = model.params_flat();
    let host = TcpServerHost::bind("127.0.0.1:0", &initial, shards, 1, 0, 4).expect("bind");
    let addrs = vec![host.local_addr()];

    let mut cfg = TrainerConfig::new(2, 8, 0.05, 0.9).with_seed(seed);
    cfg.shards = shards;
    // Stretch the run so the scraper gets many genuinely mid-training
    // samples.
    for w in 0..2 {
        cfg = cfg.with_straggler(w, Duration::from_millis(2));
    }
    let port = NetPort::connect(initial.len(), shards, &addrs, 4, RetryPolicy::default())
        .expect("connect training port");
    let mut trainer = Trainer::with_port(model, train, test, cfg, WorkerPort::Net(port));

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let scrape_port =
            NetPort::connect(initial.len(), shards, &addrs, 4, RetryPolicy::default())
                .expect("connect scrape port");
        std::thread::spawn(move || {
            let mut totals = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                if let Ok(snap) = scrape_port.router().scrape_stats(0) {
                    totals.push(snap.total_requests());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            totals
        })
    };

    let steps = 60;
    let r = trainer
        .run_segment(SyncProtocol::Asp, steps)
        .expect("ASP over TCP");
    assert_eq!(r.steps, steps);
    stop.store(true, Ordering::Relaxed);
    let totals = scraper.join().expect("scraper thread");

    assert!(
        totals.len() >= 2,
        "scraper got only {} samples",
        totals.len()
    );
    assert!(
        totals.windows(2).all(|w| w[0] <= w[1]),
        "scraped totals went backwards: {totals:?}"
    );
    let final_snap = trainer
        .net_router()
        .expect("net plane")
        .scrape_stats(0)
        .expect("final scrape");
    let final_total = final_snap.total_requests();
    assert!(
        totals.iter().any(|&t| t > 0 && t < final_total),
        "no scrape landed mid-training: totals {totals:?}, final {final_total}"
    );
    // The server really accounted the training: dense pushes are one
    // request per shard per step, however many shared a frame.
    assert_eq!(
        final_snap.requests_for(sync_switch_ps::transport::wire::op::PUSH_SHARD),
        steps * shards as u64
    );
}

#[test]
fn transport_training_learns() {
    let _deadline = deadline(120);
    for kind in [TransportKind::Channel, TransportKind::Tcp] {
        let mut t = transport_trainer(kind, 4, 15);
        let before = t.evaluate();
        for _ in 0..3 {
            t.run_segment(SyncProtocol::Bsp, 40).unwrap();
            t.run_segment(SyncProtocol::Asp, 40).unwrap();
        }
        let after = t.evaluate();
        assert!(
            after > before + 0.2,
            "{kind} training did not learn: {before} -> {after}"
        );
    }
}
