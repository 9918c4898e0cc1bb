//! Convergence harness over the trainable workload registry: every
//! registered workload ([`TrainableKind::all`]) trains on the real
//! parameter-server tier under **BSP, ASP, SSP(bound 2), and a BSP→ASP
//! switch**, with a fixed seed and step budget, and must finish below its
//! per-workload loss threshold with finite parameters throughout.
//!
//! This file is the CI `workloads` stage (`./ci.sh --stage workloads`),
//! run under a hard timeout. It is the breadth test Sync-Switch's argument
//! needs: the BSP/ASP tradeoff is workload-dependent, so the substrate has
//! to train more than one kind of model — dense MLP, conv-with-locality,
//! and a sparse-gradient embedding model whose ASP pushes exercise the
//! sparse path end-to-end.

use sync_switch_nn::{Dataset, SgdMomentum};
use sync_switch_ps::engine::step_rng;
use sync_switch_ps::{execute_switch, ServerTopology, SwitchPlan, Trainer, TrainerConfig};
use sync_switch_workloads::{SyncProtocol, TrainableKind};

const SEED: u64 = 42;
const WORKERS: usize = 3;

fn trainer_for(kind: TrainableKind, seed: u64) -> Trainer {
    let (model, train, test) = kind.build(seed);
    let h = kind.hyper();
    let cfg =
        TrainerConfig::new(WORKERS, h.batch_size, h.learning_rate, h.momentum).with_seed(seed);
    Trainer::new(model, train, test, cfg)
}

/// The four sync disciplines the harness drives every workload through.
#[derive(Debug, Clone, Copy)]
enum Discipline {
    Bsp,
    Asp,
    Ssp2,
    BspToAspSwitch,
}

impl Discipline {
    fn all() -> [Discipline; 4] {
        [
            Discipline::Bsp,
            Discipline::Asp,
            Discipline::Ssp2,
            Discipline::BspToAspSwitch,
        ]
    }
}

/// Trains `kind` for its full step budget under `discipline`, asserting
/// finite parameters after every segment, and returns the final probe loss.
fn train_under(kind: TrainableKind, discipline: Discipline) -> f32 {
    let mut t = trainer_for(kind, SEED);
    let budget = kind.hyper().total_steps;
    let segment = 60;
    let run = |t: &mut Trainer, protocol: SyncProtocol, steps: u64| {
        let mut left = steps;
        while left > 0 {
            let chunk = left.min(segment);
            let r = t
                .run_segment(protocol, chunk)
                .unwrap_or_else(|e| panic!("{kind} {discipline:?} {protocol} diverged: {e}"));
            assert_eq!(r.steps, chunk);
            assert!(
                t.check_finite(),
                "{kind} {discipline:?} produced non-finite parameters"
            );
            left -= chunk;
        }
    };
    match discipline {
        Discipline::Bsp => run(&mut t, SyncProtocol::Bsp, budget),
        Discipline::Asp => run(&mut t, SyncProtocol::Asp, budget),
        Discipline::Ssp2 => {
            let mut left = budget;
            while left > 0 {
                let chunk = left.min(segment);
                let r = t
                    .run_ssp_segment(2, chunk)
                    .unwrap_or_else(|e| panic!("{kind} SSP(2) diverged: {e}"));
                assert_eq!(r.steps, chunk);
                assert!(t.check_finite(), "{kind} SSP(2) non-finite parameters");
                left -= chunk;
            }
        }
        Discipline::BspToAspSwitch => {
            // The paper's mechanism, not a bare segment change: BSP for the
            // first half, then a real checkpointed switch into ASP.
            let h = kind.hyper();
            run(&mut t, SyncProtocol::Bsp, budget / 2);
            let plan = SwitchPlan {
                to: SyncProtocol::Asp,
                per_worker_batch: h.batch_size,
                learning_rate: h.learning_rate,
                momentum: h.momentum,
                reset_velocity: false,
            };
            execute_switch(&mut t, &plan).expect("switch executes");
            assert!(t.check_finite(), "{kind} switch left non-finite state");
            run(&mut t, SyncProtocol::Asp, budget - budget / 2);
        }
    }
    assert_eq!(t.global_step(), budget);
    t.training_loss()
}

fn assert_converges(kind: TrainableKind) {
    let initial = trainer_for(kind, SEED).training_loss();
    for discipline in Discipline::all() {
        let final_loss = train_under(kind, discipline);
        assert!(
            final_loss.is_finite(),
            "{kind} {discipline:?}: non-finite final loss"
        );
        assert!(
            final_loss < kind.loss_threshold(),
            "{kind} {discipline:?}: loss {final_loss} above threshold {} (initial {initial})",
            kind.loss_threshold()
        );
        assert!(
            final_loss < initial,
            "{kind} {discipline:?}: loss {final_loss} did not improve on {initial}"
        );
    }
}

#[test]
fn mlp_blobs_converges_under_all_disciplines() {
    assert_converges(TrainableKind::MlpBlobs);
}

#[test]
fn conv_shifted_converges_under_all_disciplines() {
    assert_converges(TrainableKind::ConvShifted);
}

#[test]
fn sparse_embedding_converges_under_all_disciplines() {
    assert_converges(TrainableKind::SparseEmbedding);
}

/// Engine-level sparse ≡ dense: a single-worker ASP run is deterministic,
/// so training the embedding workload with the sparse path enabled — rows
/// pulled by run, rows pushed by run — and disabled must produce
/// **bit-identical** parameters, velocity, and staleness accounting: the
/// sparse path changes what moves, not the numerics. Under BSP (where only
/// the pull is sparse; the barrier aggregates densely) three workers agree
/// to the f32 summation order, on the single store and through the
/// 2-server router.
#[test]
fn sparse_push_matches_dense_push_end_to_end() {
    let run = |sparse: bool, protocol: SyncProtocol, workers: usize, servers: usize| {
        let (model, train, test) = TrainableKind::SparseEmbedding.build(7);
        let h = TrainableKind::SparseEmbedding.hyper();
        let cfg = TrainerConfig::new(workers, h.batch_size, h.learning_rate, h.momentum)
            .with_seed(7)
            .with_sparse_push(sparse)
            .with_topology(ServerTopology::new(servers, 4));
        let mut t = Trainer::new(model, train, test, cfg);
        let r = t.run_segment(protocol, 40).expect("segment runs");
        (t.checkpoint(), r.staleness, r.shard_staleness.max())
    };
    let (ck_sparse, stale_sparse, shard_sparse) = run(true, SyncProtocol::Asp, 1, 1);
    let (ck_dense, stale_dense, shard_dense) = run(false, SyncProtocol::Asp, 1, 1);
    assert_eq!(ck_sparse.params, ck_dense.params, "parameters diverged");
    assert_eq!(ck_sparse.velocity, ck_dense.velocity, "velocity diverged");
    assert_eq!(stale_sparse, stale_dense, "staleness accounting diverged");
    assert_eq!(shard_sparse, shard_dense);
    for servers in [1, 2] {
        let (ck_sparse, stale_sparse, shard_sparse) =
            run(true, SyncProtocol::Bsp, WORKERS, servers);
        let (ck_dense, stale_dense, shard_dense) = run(false, SyncProtocol::Bsp, WORKERS, servers);
        let max_diff = ck_sparse
            .params
            .iter()
            .zip(&ck_dense.params)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-4,
            "BSP with run pulls is {max_diff} off full pulls on {servers} server(s)"
        );
        assert_eq!(stale_sparse, stale_dense);
        assert_eq!(shard_sparse, shard_dense);
    }
}

/// BSP on the embedding workload still equals sequential large-batch SGD
/// ≤ 1e-4 — the new layers (embedding lookup, sparse backward) flow
/// through the barrier exactly like dense layers do.
#[test]
fn embedding_bsp_equals_sequential_large_batch_sgd() {
    let seed = 9;
    let rounds = 8;
    let (model, train, test) = TrainableKind::SparseEmbedding.build(seed);
    let h = TrainableKind::SparseEmbedding.hyper();
    let template = model.clone();
    let shards: Vec<Dataset> = (0..WORKERS).map(|k| train.shard(k, WORKERS)).collect();
    let cfg =
        TrainerConfig::new(WORKERS, h.batch_size, h.learning_rate, h.momentum).with_seed(seed);
    let mut t = Trainer::new(model, train, test, cfg);
    let initial = t.checkpoint().params;
    t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
    let distributed = t.checkpoint().params;

    let mut replay = template.clone();
    let mut opt = SgdMomentum::new(replay.param_count(), h.learning_rate, h.momentum);
    let mut params = initial;
    for r in 0..rounds {
        let mut avg = vec![0.0f32; replay.param_count()];
        for (w, shard) in shards.iter().enumerate() {
            replay.set_params_flat(&params);
            let mut rng = step_rng(seed, w, r);
            let (x, y) = shard.sample_batch(h.batch_size, &mut rng);
            let (_, grad) = replay.loss_and_grad(&x, &y);
            for (a, g) in avg.iter_mut().zip(&grad) {
                *a += g / WORKERS as f32;
            }
        }
        opt.apply(&mut params, &avg);
    }
    let max_diff = distributed
        .iter()
        .zip(&params)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_diff < 1e-4,
        "embedding BSP diverged from sequential SGD by {max_diff}"
    );
}

/// The conv workload really rewards locality: training it improves
/// held-out accuracy well past chance under the real PS.
#[test]
fn conv_workload_learns_past_chance() {
    let mut t = trainer_for(TrainableKind::ConvShifted, SEED);
    let before = t.evaluate();
    t.run_segment(SyncProtocol::Bsp, 120).unwrap();
    t.run_segment(SyncProtocol::Asp, 120).unwrap();
    let after = t.evaluate();
    assert!(
        after > before + 0.2 && after > 0.5,
        "conv workload did not learn: {before} -> {after}"
    );
}

/// The embedding workload's ASP pushes actually take the sparse path: a
/// wire-backed run is covered in `tests/transport.rs`; here we pin the
/// in-process invariant that sparse and default configs agree on every
/// observable of the segment report.
#[test]
fn sparse_workload_reports_match_dense_observables() {
    let mut sparse_t = trainer_for(TrainableKind::SparseEmbedding, 21);
    let (model, train, test) = TrainableKind::SparseEmbedding.build(21);
    let h = TrainableKind::SparseEmbedding.hyper();
    let cfg = TrainerConfig::new(WORKERS, h.batch_size, h.learning_rate, h.momentum)
        .with_seed(21)
        .with_sparse_push(false);
    let mut dense_t = Trainer::new(model, train, test, cfg);
    let rs = sparse_t.run_segment(SyncProtocol::Asp, 90).unwrap();
    let rd = dense_t.run_segment(SyncProtocol::Asp, 90).unwrap();
    // One observation per shard per push on both paths.
    assert_eq!(rs.shard_staleness.total(), rd.shard_staleness.total());
    assert_eq!(rs.staleness.total(), rd.staleness.total());
    assert_eq!(sparse_t.push_count(), dense_t.push_count());
}
