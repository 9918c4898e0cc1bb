//! Integration tests of the real parameter-server execution path: the same
//! policy engine driving actual worker threads.

#[path = "../crates/ps/tests/support/deadline.rs"]
mod deadline;

use deadline::deadline;
use std::time::Duration;

use sync_switch::prelude::*;
use sync_switch::ps_backend::PsBackend;
use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::{Trainer, TrainerConfig};
use sync_switch_workloads::LrSchedule;

fn small_setup(workers: usize, total: u64) -> ExperimentSetup {
    let mut setup = ExperimentSetup::one();
    setup.cluster_size = workers;
    setup.workload.hyper.total_steps = total;
    setup.workload.hyper.batch_size = 8;
    setup.workload.hyper.learning_rate = 0.03;
    setup.workload.hyper.lr_schedule = LrSchedule::piecewise(vec![(total / 2, 0.1)]);
    setup
}

fn dataset(seed: u64) -> (Dataset, Dataset) {
    Dataset::gaussian_blobs(4, 100, 8, 0.35, seed).split(0.25)
}

#[test]
fn hybrid_training_beats_pure_asp_accuracy_on_hard_problem() {
    // A harder dataset (high overlap) where stale gradients hurt: the
    // hybrid schedule should match BSP-quality training.
    //
    // BSP is deterministic per seed; the hybrid run's ASP half depends on
    // how the scheduler interleaves four workers, and one run's accuracy
    // spreads widely — over 30 runs per seed on the 2-vCPU box, a standard
    // deviation near 0.05 and a low tail to 0.72 against BSP's 0.85–0.91,
    // so a single run lands more than 0.10 from BSP about one time in ten.
    // Averaging 8 hybrid runs (2 per seed, 4 fixed seeds) brings that to
    // about 0.02 around a gap of 0.016 (BSP mean 0.882, hybrid 0.866),
    // which leaves the 0.10 bound over four deviations away.
    let seeds = [7u64, 8, 9, 10];
    let repeats = 2;
    let total = 300u64;

    let accuracy_for = |seed: u64, fraction: f64| -> f64 {
        let (train, test) = Dataset::gaussian_blobs(6, 120, 10, 0.55, seed).split(0.25);
        let mut setup = small_setup(4, total);
        setup.workload.hyper.learning_rate = 0.05;
        let mut backend =
            PsBackend::new(Network::mlp(10, &[24, 12], 6, seed), train, test, 4, seed);
        let mut policy = SyncSwitchPolicy::new(fraction, 4);
        policy.eval_interval = 100;
        policy.tta_target = Some(0.99); // effectively disabled
        let report = ClusterManager::new(policy)
            .run(&mut backend, &setup)
            .expect("run completes");
        report.converged_accuracy.expect("completed")
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;

    let bsp = mean(seeds.iter().map(|&s| accuracy_for(s, 1.0)).collect());
    let hybrid = mean(
        seeds
            .iter()
            .flat_map(|&s| (0..repeats).map(move |_| s))
            .map(|s| accuracy_for(s, 0.5))
            .collect(),
    );
    // The hybrid runs must land in BSP's neighbourhood; real SGD noise on a
    // small problem allows a few points of slack.
    assert!(
        (bsp - hybrid).abs() < 0.10,
        "hybrid {hybrid} should track BSP {bsp}"
    );
    assert!(hybrid > 0.5, "hybrid should have learned: {hybrid}");
}

#[test]
fn wall_clock_asp_beats_bsp_with_straggler() {
    // A real straggler thread slows BSP (barrier) far more than ASP.
    let (train, test) = dataset(9);
    let time_for = |protocol: SyncProtocol| -> f64 {
        let cfg = TrainerConfig::new(4, 8, 0.03, 0.9)
            .with_seed(9)
            .with_straggler(0, Duration::from_millis(2));
        let mut trainer = Trainer::new(
            Network::mlp(8, &[16], 4, 9),
            train.clone(),
            test.clone(),
            cfg,
        );
        let seg = trainer.run_segment(protocol, 80).expect("completes");
        seg.wall_time.as_secs_f64()
    };
    let bsp = time_for(SyncProtocol::Bsp);
    let asp = time_for(SyncProtocol::Asp);
    // BSP pays the 2ms straggler penalty at every barrier round; ASP only
    // on the straggler's own (fewer) steps.
    assert!(
        asp < bsp * 0.75,
        "ASP {asp:.3}s should beat straggled BSP {bsp:.3}s"
    );
}

#[test]
fn measured_staleness_grows_with_worker_count() {
    let (train, test) = dataset(11);
    let staleness_for = |cfg: TrainerConfig, steps: u64| {
        let mut trainer = Trainer::new(
            Network::mlp(8, &[16], 4, 11),
            train.clone(),
            test.clone(),
            cfg.with_seed(11),
        );
        let seg = trainer
            .run_segment(SyncProtocol::Asp, steps)
            .expect("completes");
        assert_eq!(seg.staleness.total(), steps, "one observation per push");
        seg.staleness
    };
    // Stated on what no scheduler can change. Alone, a worker's pull always
    // sees its own last push: staleness is exactly 0 on every push.
    let alone = staleness_for(TrainerConfig::new(1, 4, 0.02, 0.9), 300);
    assert_eq!(alone.max(), Some(0), "one worker measured staleness");
    // With peers some push lands between a pull and its push, and no push
    // can be staler than the pushes the segment completed.
    let four = staleness_for(TrainerConfig::new(4, 4, 0.02, 0.9), 300);
    assert!(four.mean() > 0.0, "4 workers measured no staleness at all");
    assert!(four.max() <= Some(300), "staler than the segment is long");
    // How *much* is the scheduler's business unless the interleaving is
    // forced: a delay between every worker's pull and its push keeps all
    // four inside their windows together, so each push finds about one
    // push per peer ahead of it.
    let delay = Duration::from_millis(1);
    let forced = (0..4).fold(TrainerConfig::new(4, 4, 0.02, 0.9), |cfg, w| {
        cfg.with_straggler(w, delay)
    });
    let forced = staleness_for(forced, 120).mean();
    assert!(
        forced > 0.5,
        "overlapping workers must produce real staleness, got {forced}"
    );
}

#[test]
fn full_policy_pipeline_with_greedy_online_policy() {
    let (train, test) = dataset(13);
    let setup = small_setup(4, 240);
    let mut backend = PsBackend::new(Network::mlp(8, &[16], 4, 13), train, test, 4, 13);
    backend.inject_straggler(3, Duration::from_millis(4));
    let mut policy = SyncSwitchPolicy::new(0.5, 4).with_online(OnlinePolicyKind::Greedy);
    policy.eval_interval = 60;
    policy.detect_chunk = 8;
    policy.tta_target = Some(0.99);
    let report = ClusterManager::new(policy)
        .run(&mut backend, &setup)
        .expect("run completes");
    assert!(report.completed());
    assert_eq!(report.total_steps, 240);
    // The greedy policy reacted to the (permanent) straggler: it switched
    // to ASP early, so ASP ran for more than the planned half.
    assert!(
        report.asp_steps > 120,
        "greedy should have detoured to ASP: asp_steps {}",
        report.asp_steps
    );
    assert!(!report.switches.is_empty());
}

#[test]
fn checkpoint_restart_preserves_training_across_protocols() {
    let (train, test) = dataset(17);
    let cfg = TrainerConfig::new(3, 8, 0.03, 0.9).with_seed(17);
    let mut trainer = Trainer::new(Network::mlp(8, &[16], 4, 17), train, test, cfg);
    trainer
        .run_segment(SyncProtocol::Bsp, 40)
        .expect("bsp segment");
    let ck = trainer.checkpoint();
    let acc_at_ck = trainer.evaluate();

    // Continue with ASP, then roll back and verify state equality.
    trainer
        .run_segment(SyncProtocol::Asp, 60)
        .expect("asp segment");
    trainer.restore(&ck).expect("restore succeeds");
    assert_eq!(trainer.global_step(), 40);
    let acc_restored = trainer.evaluate();
    assert!(
        (acc_at_ck - acc_restored).abs() < 1e-12,
        "restored accuracy must match exactly"
    );
    // Binary round trip through the serialized form also restores.
    let bytes = ck.to_bytes();
    let back = sync_switch_ps::Checkpoint::from_bytes(&bytes).expect("parse");
    trainer.restore(&back).expect("restore from bytes");
    assert_eq!(trainer.global_step(), 40);
}

#[test]
fn one_trainer_runs_bsp_asp_and_ssp_segments() {
    // BSP, ASP and SSP are one training step with a different
    // synchronization point, so one trainer runs them back to back: every
    // segment delivers exactly its steps, and only the discipline shows in
    // the staleness — none under BSP, and under SSP(bound) at most
    // 2·bound + 2 applies per shard from each of the other workers between
    // a worker's pull and its push.
    let (workers, bound, steps) = (4u64, 2u64, 60u64);
    let (train, test) = dataset(19);
    let cfg = TrainerConfig::new(workers as usize, 8, 0.03, 0.9).with_seed(19);
    let mut trainer = Trainer::new(Network::mlp(8, &[16], 4, 19), train, test, cfg);

    let bsp = trainer
        .run_segment(SyncProtocol::Bsp, steps)
        .expect("bsp segment");
    assert_eq!(bsp.steps, steps);
    assert_eq!(bsp.shard_staleness.max(), Some(0));
    let asp = trainer
        .run_segment(SyncProtocol::Asp, steps)
        .expect("asp segment");
    assert_eq!(asp.steps, steps);
    let ssp = trainer.run_ssp_segment(bound, steps).expect("ssp segment");
    assert_eq!(ssp.steps, steps);
    assert_eq!(ssp.protocol, SyncProtocol::Asp, "SSP carries the ASP tag");
    assert_eq!(trainer.global_step(), 3 * steps);

    // BSP: every worker takes every round. ASP and SSP: the workers share
    // the segment's steps between them.
    for report in [&asp, &ssp] {
        let taken: usize = report.worker_profiles.iter().map(|p| p.steps()).sum();
        assert_eq!(taken as u64, steps);
    }
    assert!(bsp
        .worker_profiles
        .iter()
        .all(|p| p.steps() as u64 == steps));
    let cap = (2 * bound + 2) * (workers - 1);
    let max = ssp.shard_staleness.max().expect("ssp pushed");
    assert!(
        max <= cap,
        "per-shard staleness {max} exceeds the cap {cap}"
    );
    assert!(trainer.check_finite());
}

#[test]
fn asynchronous_steps_over_a_wire_tier_rarely_ask_for_their_pull() {
    let _deadline = deadline(120);
    // Two workers, ASP, two servers behind the channel transport: a step's
    // push reply (or the sync round it runs) brings the next step's pull
    // home, so most steps talk to each server once, not twice. A pull is
    // asked for only at a worker's first step and when a peer's round
    // completed between a push and the pull after it.
    use sync_switch_ps::{ServerTopology, TransportKind};
    let (servers, steps) = (2u64, 400u64);
    let (train, test) = dataset(23);
    let cfg = TrainerConfig::new(2, 8, 0.03, 0.9)
        .with_seed(23)
        .with_topology(
            ServerTopology::new(servers as usize, 4).with_transport(TransportKind::Channel),
        );
    let mut trainer = Trainer::new(Network::mlp(8, &[16], 4, 23), train, test, cfg);
    let before = trainer.evaluate();
    let report = trainer
        .run_segment(SyncProtocol::Asp, steps)
        .expect("asp segment");
    assert_eq!(report.steps, steps);
    let wire = report.transport;
    assert_eq!(wire.push.round_trips, steps * servers);
    assert!(wire.pull.ops >= steps * servers, "{:?}", wire.pull);
    assert!(
        wire.pull.round_trips < steps * servers / 2,
        "{} of {} pulls were asked for",
        wire.pull.round_trips,
        steps * servers
    );
    assert_eq!((wire.retries, wire.reconnects), (0, 0));
    let after = trainer.evaluate();
    assert!(after > before + 0.2, "did not learn: {before} -> {after}");
}

#[test]
fn a_bsp_round_over_a_wire_tier_is_one_round_trip_per_server() {
    let _deadline = deadline(120);
    // Two workers, BSP, two servers behind the channel transport: the worker
    // that completes a round sends each server its stripes, the drain and
    // the next round's pull as one batch, and both workers start the next
    // round from that image. Only the first round pulls, and the result is
    // the in-process single store's — as is the in-process (direct)
    // tier's, whose rounds travel the same request shape.
    use sync_switch_ps::{ServerTopology, TransportKind};
    let (workers, servers, rounds) = (2u64, 2u64, 60u64);
    let run = |topology: ServerTopology| {
        let (train, test) = dataset(29);
        let mut cfg = TrainerConfig::new(workers as usize, 8, 0.03, 0.9)
            .with_seed(29)
            .with_topology(topology);
        cfg.shards = 4;
        let mut trainer = Trainer::new(Network::mlp(8, &[16], 4, 29), train, test, cfg);
        let report = trainer
            .run_segment(SyncProtocol::Bsp, rounds)
            .expect("bsp segment");
        (report, trainer.checkpoint().params)
    };
    let (report, wire_params) =
        run(ServerTopology::new(servers as usize, 4).with_transport(TransportKind::Channel));
    let wire = report.transport;
    assert_eq!(report.sync_rounds, rounds);
    assert_eq!(wire.push.round_trips, rounds * servers);
    assert_eq!(
        (wire.sync.ops, wire.sync.round_trips),
        (rounds * servers, 0)
    );
    assert_eq!(wire.pull.round_trips, workers * servers);
    assert_eq!((wire.retries, wire.reconnects), (0, 0));
    let (routed, routed_params) = run(ServerTopology::new(servers as usize, 4));
    assert_eq!(routed.sync_rounds, rounds);
    assert_eq!(routed.shard_staleness.max(), Some(0));
    let (_, single_params) = run(ServerTopology::single());
    for (plane, params) in [("wire", wire_params), ("routed", routed_params)] {
        let max_diff = (params.iter().zip(&single_params))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-4,
            "{plane} BSP left the single store by {max_diff}"
        );
    }
}

#[test]
fn riding_items_are_booked_under_their_own_class() {
    let _deadline = deadline(120);
    // The booking rule, pinned on a clean two-server channel tier: every
    // item of a round trip, its length prefix included, is booked under its
    // opcode's class — a request item's bytes out, a reply item's bytes in
    // and its operation — and the sequencing prefix and the batch header
    // under their side's first item's, the round trip under the request's.
    // Sizes come from the codec itself.
    use sync_switch_ps::transport::wire::{self, op};
    use sync_switch_ps::{
        NetPort, NetRouter, PullBuffer, ServerTopology, TransportKind, UpdateData, WireOp,
    };

    fn len(encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let mut buf = Vec::new();
        encode(&mut buf);
        buf.len() as u64
    }
    let seq = len(|b| wire::encode_sequenced_prefix(b, 0, 0));
    let (header, bodyless) = (
        wire::BATCH_HEADER_BYTES as u64,
        wire::BODYLESS_ITEM_BYTES as u64,
    );
    let ack = len(|b| wire::encode_push_ack(b, 0)) + 4;
    let synced = len(|b| wire::encode_synced(b, 0)) + 4;
    // Per server: the items of a dense push of each owned shard, the acks
    // they bring back, and its whole `Pulled` image.
    let per_server = |r: &NetRouter| -> Vec<(u64, u64, u64)> {
        let tier = r.tier();
        (0..tier.server_count())
            .map(|s| {
                let owned: Vec<usize> = (0..tier.shard_count())
                    .filter(|&g| tier.owner_of(g) == s)
                    .collect();
                let params: usize = owned.iter().map(|&g| tier.shard_range(g).1).sum();
                let pushes = (owned.iter())
                    .map(|&g| {
                        let grad = vec![0.0; tier.shard_range(g).1];
                        len(|b| wire::encode_push_shard(b, 0, 0.0, 0.0, &grad)) + 4
                    })
                    .sum();
                let acks = owned.len() as u64 * ack;
                let image =
                    len(|b| wire::encode_pulled(b, &vec![0.0; params], &vec![0; owned.len()]));
                (pushes, acks, image)
            })
            .collect()
    };
    let class = |ops, round_trips, bytes_out, bytes_in| (ops, round_trips, bytes_out, bytes_in);
    let books = |w: &WireOp| (w.ops, w.round_trips, w.bytes_out, w.bytes_in);
    let delta = |after: &WireOp, before: &WireOp| {
        class(
            after.ops - before.ops,
            after.round_trips - before.round_trips,
            after.bytes_out - before.bytes_out,
            after.bytes_in - before.bytes_in,
        )
    };
    // On a clean network the servers count every item once, under its
    // opcode, as the client books it.
    let reconciles = |r: &NetRouter| {
        let client = r.stats();
        let served = |ops: &[u8]| -> u64 {
            (r.scrape_all_stats().into_iter().flatten())
                .map(|snap| ops.iter().map(|&o| snap.requests_for(o)).sum::<u64>())
                .sum()
        };
        assert_eq!(
            served(&[op::PUSH_SHARD, op::PUSH_SHARD_SPARSE]),
            client.push.ops
        );
        assert_eq!(served(&[op::PULL_COMMITTED]), client.pull.ops);
        assert_eq!(served(&[op::SYNC_ROUND, op::DRAIN]), client.sync.ops);
        assert_eq!((client.retries, client.reconnects), (0, 0));
    };

    // (a) and (c): one worker's port on a tier whose round falls due every
    // second push.
    let initial: Vec<f32> = (0..52).map(|i| i as f32 * 0.01).collect();
    let net = NetPort::launch(
        &initial,
        4,
        ServerTopology::new(2, 2).with_transport(TransportKind::Channel),
    );
    let r = net.router();
    let sizes = per_server(r);
    let images: u64 = sizes.iter().map(|s| s.2).sum();
    // Each flush is handed the whole vector's one run, what a dense step
    // reads next.
    let push_all = |acks: &mut Vec<u64>| {
        for g in 0..r.tier().shard_count() {
            let grad = vec![0.5; r.tier().shard_range(g).1];
            net.queue_shard_update(g, UpdateData::Dense(&grad), 0.1, 0.9)
                .unwrap();
        }
        net.flush_pushes(acks, Some(&[(0, initial.len())])).unwrap();
    };
    let mut buf = PullBuffer::new();
    let mut acks = Vec::new();
    net.pull_into(&mut buf).unwrap();
    assert_eq!(books(&r.stats().pull), class(2, 2, 2, images));

    // (a) A push handed the whole vector brings the next pull home:
    // `[push × 2, PullCommitted]` per server, the pull bodyless.
    let before = r.stats();
    push_all(&mut acks);
    let after = r.stats();
    let push_out = sizes.iter().map(|s| seq + header + s.0).sum();
    let push_in = sizes.iter().map(|s| header + s.1).sum();
    assert_eq!(
        delta(&after.push, &before.push),
        class(4, 2, push_out, push_in)
    );
    assert_eq!(
        delta(&after.pull, &before.pull),
        class(2, 0, 2 * bodyless, images + 2 * 4)
    );
    assert_eq!(books(&after.sync), books(&before.sync));
    r.complete_push(0);
    // The image that rode home is served without a round trip or a book.
    net.pull_into(&mut buf).unwrap();
    assert_eq!(books(&r.stats().pull), books(&after.pull));

    // (c) The push that makes a round due carries it, with the pull
    // behind it: `[push × 2, PullCommitted]` per server, answered
    // `[ack × 2, Synced, Pulled]` — one push round trip that the servers'
    // commits and the pull ride.
    let before = r.stats();
    push_all(&mut acks);
    let after = r.stats();
    assert_eq!(r.sync_rounds(), 1);
    assert_eq!(
        delta(&after.push, &before.push),
        class(4, 2, push_out, push_in)
    );
    assert_eq!(delta(&after.sync, &before.sync), class(2, 0, 0, 2 * synced));
    assert_eq!(
        delta(&after.pull, &before.pull),
        class(2, 0, 2 * bodyless, images + 2 * 4)
    );
    r.complete_push(1);
    assert_eq!(acks.len(), 8);
    reconciles(r);

    // (b) A one-round BSP segment: each worker pulls once, then the worker
    // that completes the round sends each server
    // `[push × k, Drain, PullCommitted]`.
    let (workers, servers) = (2u64, 2u64);
    let (train, test) = dataset(31);
    let mut cfg = TrainerConfig::new(workers as usize, 8, 0.03, 0.9)
        .with_seed(31)
        .with_topology(
            ServerTopology::new(servers as usize, 4).with_transport(TransportKind::Channel),
        );
    cfg.shards = 4;
    let mut trainer = Trainer::new(Network::mlp(8, &[16], 4, 31), train, test, cfg);
    let report = trainer
        .run_segment(SyncProtocol::Bsp, 1)
        .expect("bsp segment");
    let r = trainer.net_router().expect("a wire plane");
    let sizes = per_server(r);
    let images: u64 = sizes.iter().map(|s| s.2).sum();
    let wire = report.transport;
    assert_eq!(
        books(&wire.push),
        class(
            4,
            servers,
            sizes.iter().map(|s| seq + header + s.0).sum(),
            sizes.iter().map(|s| header + s.1).sum()
        )
    );
    assert_eq!(
        books(&wire.sync),
        class(servers, 0, servers * bodyless, servers * synced)
    );
    assert_eq!(
        books(&wire.pull),
        class(
            workers * servers + servers,
            workers * servers,
            workers * servers + servers * bodyless,
            (workers + 1) * images + servers * 4
        )
    );
    reconciles(r);
}
