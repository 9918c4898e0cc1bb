//! Property-based tests of the parameter-server concurrency semantics.

use proptest::prelude::*;
use std::sync::Arc;
use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::transport::{wire, Reply, Request};
use sync_switch_ps::{
    Checkpoint, FaultPlan, NetPort, PullBuffer, ServerStatsSnapshot, ServerTopology, ShardRouter,
    ShardedStore, Trainer, TrainerConfig, TransportKind, UpdateData, WorkerPort,
};
use sync_switch_workloads::SyncProtocol;

/// Reinterprets raw u32s as f32s — arbitrary bit patterns, NaNs included,
/// because the codec must move gradients without reinterpreting them.
fn bits_to_f32(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

/// Splits raw u64s into `(start, len)` segment pairs for the sparse frame —
/// the codec moves them without interpreting, so arbitrary values are fair.
fn bits_to_segments(bits: &[u64]) -> Vec<(u32, u32)> {
    bits.iter().map(|&b| ((b >> 32) as u32, b as u32)).collect()
}

/// The shard-relative `(start, len)` spans where `mask` is set over
/// `flat[offset..offset + len]`, plus the gathered gradient values — the
/// sparse payload equivalent to the dense slice with zeros elsewhere.
fn spans_of(mask: &[bool], grad: &[f32], offset: usize, len: usize) -> (Vec<(u32, u32)>, Vec<f32>) {
    let mut spans = Vec::new();
    let mut values = Vec::new();
    let mut i = 0;
    while i < len {
        if mask[offset + i] {
            let start = i;
            while i < len && mask[offset + i] {
                i += 1;
            }
            spans.push((start as u32, (i - start) as u32));
            values.extend_from_slice(&grad[offset + start..offset + i]);
        } else {
            i += 1;
        }
    }
    (spans, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// BSP produces (nearly) identical parameters regardless of worker
    /// count and scheduling: averaging n per-worker gradients over seeded
    /// batches is deterministic up to float association.
    #[test]
    fn bsp_is_schedule_independent(workers in 2usize..5, rounds in 1u64..8) {
        let data = Dataset::gaussian_blobs(3, 48, 5, 0.3, 99);
        let (train, test) = data.split(0.25);
        let run = || {
            let cfg = TrainerConfig::new(workers, 4, 0.05, 0.9).with_seed(5);
            let mut t = Trainer::new(
                Network::mlp(5, &[8], 3, 5),
                train.clone(),
                test.clone(),
                cfg,
            );
            t.run_segment(SyncProtocol::Bsp, rounds).expect("bsp runs");
            t.store().unwrap().snapshot_params()
        };
        let a = run();
        let b = run();
        let max_diff = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(max_diff < 1e-4, "BSP replay diverged by {max_diff}");
    }

    /// Sharded stores return exactly what was stored, for any shard count.
    #[test]
    fn store_pull_returns_contents(
        params in proptest::collection::vec(-5.0f32..5.0, 1..200),
        shards in 1usize..16,
    ) {
        let store = ShardedStore::new(&params, shards);
        let (pulled, version) = store.pull();
        prop_assert_eq!(pulled, params);
        prop_assert_eq!(version, 0);
    }

    /// Shard layouts partition `0..n` exactly for arbitrary `(n, shards)`:
    /// contiguous, non-overlapping, covering, and near-equal.
    #[test]
    fn shard_layout_partitions_exactly(n in 1usize..600, shards in 1usize..32) {
        let store = ShardedStore::new(&vec![0.0f32; n], shards);
        prop_assert_eq!(store.param_count(), n);
        prop_assert_eq!(store.shard_count(), shards.min(n));
        let mut expected_offset = 0usize;
        let mut lens = Vec::new();
        for i in 0..store.shard_count() {
            let (offset, len) = store.shard_range(i);
            prop_assert_eq!(offset, expected_offset, "shard {} not contiguous", i);
            prop_assert!(len >= 1, "empty shard {}", i);
            expected_offset += len;
            lens.push(len);
        }
        prop_assert_eq!(expected_offset, n, "layout does not cover 0..n");
        let spread = lens.iter().max().unwrap() - lens.iter().min().unwrap();
        prop_assert!(spread <= 1, "unbalanced split: {:?}", lens);
    }

    /// Router ownership partitions shard ids `0..shards` (and the flat
    /// parameter vector `0..n`) exactly across servers: every shard has one
    /// owner, owners hold contiguous non-empty runs, and the servers' param
    /// ranges tile the vector.
    #[test]
    fn router_ownership_partitions_exactly(
        n in 1usize..600,
        shards in 1usize..32,
        servers in 1usize..8,
    ) {
        let initial = vec![0.5f32; n];
        let router = ShardRouter::new(&initial, shards, ServerTopology::new(servers, 1));
        prop_assert_eq!(router.param_count(), n);
        prop_assert_eq!(router.shard_count(), shards.min(n));
        prop_assert_eq!(router.server_count(), servers.min(router.shard_count()));
        let mut shard_cursor = 0usize;
        let mut param_cursor = 0usize;
        for (s, server) in router.servers().iter().enumerate() {
            prop_assert_eq!(server.id(), s);
            prop_assert!(server.shard_count() >= 1, "server {} owns no shards", s);
            prop_assert_eq!(server.shard_offset(), shard_cursor, "non-contiguous ownership");
            let (po, pl) = server.param_range();
            prop_assert_eq!(po, param_cursor, "non-contiguous param range");
            for g in shard_cursor..shard_cursor + server.shard_count() {
                prop_assert_eq!(router.owner_of(g), s, "shard {} owner mismatch", g);
            }
            shard_cursor += server.shard_count();
            param_cursor += pl;
        }
        prop_assert_eq!(shard_cursor, router.shard_count(), "shards not covered");
        prop_assert_eq!(param_cursor, n, "params not covered");
    }

    /// The routed committed view equals a fresh single-store pull whenever
    /// stage 2 is drained, for arbitrary shapes and push counts.
    #[test]
    fn drained_router_matches_single_store(
        n in 1usize..300,
        shards in 1usize..16,
        servers in 1usize..5,
        pushes in 0u64..5,
    ) {
        let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let store = ShardedStore::new(&initial, shards);
        let router = ShardRouter::new(&initial, shards, ServerTopology::new(servers, 1));
        let grad: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
        for p in 0..pushes {
            for g in 0..store.shard_count() {
                let (o, l) = store.shard_range(g);
                store.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                router.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
            }
            store.complete_push(p);
            router.complete_push(p);
            router.reconcile_if_due();
        }
        let mut buf = PullBuffer::new();
        router.pull_committed_into(&mut buf);
        let (fresh, version) = store.pull();
        prop_assert_eq!(version, router.version());
        prop_assert_eq!(buf.version(), version);
        prop_assert_eq!(buf.params(), &fresh[..]);
        prop_assert_eq!(router.snapshot_params(), fresh);
        prop_assert_eq!(store.snapshot_velocity(), router.snapshot_velocity());
    }

    /// A reused pull buffer always matches a fresh pull, at every version.
    #[test]
    fn pull_into_matches_fresh_pull(
        params in proptest::collection::vec(-5.0f32..5.0, 1..200),
        shards in 1usize..16,
        pushes in 1u64..6,
    ) {
        let n = params.len();
        let store = ShardedStore::new(&params, shards);
        let mut buf = PullBuffer::new();
        for i in 0..pushes {
            let v = store.pull_into(&mut buf);
            let (fresh, fresh_v) = store.pull();
            prop_assert_eq!(v, fresh_v);
            prop_assert_eq!(v, i);
            prop_assert_eq!(buf.params(), &fresh[..]);
            for s in 0..store.shard_count() {
                prop_assert_eq!(buf.shard_version(s), i);
            }
            store.apply_update(&vec![0.1f32; n], 0.05, 0.5, i);
        }
    }

    /// Applying k unit-gradient updates with lr η moves every parameter by
    /// exactly −k·η (momentum 0), regardless of sharding.
    #[test]
    fn updates_compose_linearly(shards in 1usize..8, k in 1u64..20) {
        let n = 37;
        let store = ShardedStore::new(&vec![1.0f32; n], shards);
        for i in 0..k {
            store.apply_update(&vec![1.0f32; n], 0.01, 0.0, i);
        }
        prop_assert_eq!(store.version(), k);
        for p in store.snapshot_params() {
            prop_assert!((p - (1.0 - 0.01 * k as f32)).abs() < 1e-4);
        }
    }

    /// Sparse push ≡ dense push on the single store: applying the same
    /// touched values as a sparse segment list or as a dense gradient with
    /// zeros elsewhere leaves **bit-identical** parameters, velocity, shard
    /// clocks, and staleness, for arbitrary shapes, masks, and push counts.
    #[test]
    fn sparse_push_equals_dense_push_on_store(
        params in proptest::collection::vec(-2.0f32..2.0, 2..150),
        mask_bits in proptest::collection::vec(any::<bool>(), 1..64),
        shards in 1usize..8,
        pushes in 1u64..4,
    ) {
        let n = params.len();
        let mask: Vec<bool> = (0..n).map(|i| mask_bits[i % mask_bits.len()]).collect();
        let dense = ShardedStore::new(&params, shards);
        let sparse = ShardedStore::new(&params, shards);
        for p in 0..pushes {
            let grad: Vec<f32> = (0..n)
                .map(|i| if mask[i] { ((i as f32) + 0.3 * p as f32).sin() } else { 0.0 })
                .collect();
            for s in 0..dense.shard_count() {
                let (o, l) = dense.shard_range(s);
                let a = dense.apply_shard_update(s, &grad[o..o + l], 0.07, 0.9);
                let (spans, values) = spans_of(&mask, &grad, o, l);
                let b = sparse.apply_shard_update_data(
                    s,
                    UpdateData::Sparse { indices: &spans, rows: &values },
                    0.07,
                    0.9,
                );
                prop_assert_eq!(a, b, "pre-apply clock skew at push {} shard {}", p, s);
                prop_assert_eq!(dense.shard_version(s), sparse.shard_version(s));
            }
            prop_assert_eq!(dense.complete_push(p), sparse.complete_push(p));
        }
        prop_assert_eq!(dense.snapshot_params(), sparse.snapshot_params());
        prop_assert_eq!(dense.snapshot_velocity(), sparse.snapshot_velocity());
    }

    /// Sparse push ≡ dense push through a 2-server router: same routing,
    /// same two-stage schedule, same committed views and clocks — the
    /// sparse payload changes nothing but what would cross a wire.
    #[test]
    fn sparse_push_equals_dense_push_through_router(
        n in 2usize..200,
        mask_bits in proptest::collection::vec(any::<bool>(), 1..48),
        shards in 2usize..10,
        pushes in 1u64..5,
    ) {
        let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).cos()).collect();
        let mask: Vec<bool> = (0..n).map(|i| mask_bits[i % mask_bits.len()]).collect();
        let topology = ServerTopology::new(2, 2);
        let dense = ShardRouter::new(&initial, shards, topology);
        let sparse = ShardRouter::new(&initial, shards, topology);
        for p in 0..pushes {
            let grad: Vec<f32> = (0..n)
                .map(|i| if mask[i] { ((i as f32) * 0.41 + p as f32).sin() } else { 0.0 })
                .collect();
            for g in 0..dense.shard_count() {
                let (o, l) = dense.shard_range(g);
                let a = dense.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                let (spans, values) = spans_of(&mask, &grad, o, l);
                let b = sparse.apply_shard_update_data(
                    g,
                    UpdateData::Sparse { indices: &spans, rows: &values },
                    0.05,
                    0.9,
                );
                prop_assert_eq!(a, b, "clock skew at push {} shard {}", p, g);
            }
            // Staleness equality through the global clock.
            prop_assert_eq!(dense.complete_push(p), sparse.complete_push(p));
            dense.reconcile_if_due();
            sparse.reconcile_if_due();
        }
        // Live state, committed views, and committed clocks all agree.
        prop_assert_eq!(dense.snapshot_params(), sparse.snapshot_params());
        prop_assert_eq!(dense.snapshot_velocity(), sparse.snapshot_velocity());
        let mut a = PullBuffer::new();
        let mut b = PullBuffer::new();
        let va = dense.pull_committed_into(&mut a);
        let vb = sparse.pull_committed_into(&mut b);
        prop_assert_eq!(va, vb, "committed data versions diverged");
        prop_assert_eq!(a.params(), b.params());
        prop_assert_eq!(a.shard_versions(), b.shard_versions());
        prop_assert_eq!(dense.sync_rounds(), sparse.sync_rounds());
    }

    /// A run pull is a full pull restricted to the runs, on every plane —
    /// the single store, the in-process router, and the channel and TCP
    /// tiers (2 servers × 7 shards): same values at the run positions, the
    /// buffer's old contents everywhere else, and the same version and
    /// shard clocks. The run lists are random spans (which straddle shard
    /// and server boundaries as they fall), the single full-cover run, a
    /// list that leaves server 1 nothing, and one run across the server
    /// boundary.
    #[test]
    fn run_pulls_match_full_pulls_on_every_plane(
        n in 14usize..120,
        mask_bits in proptest::collection::vec(any::<bool>(), 1..40),
        mode in 0u8..4,
        pushes in 1u64..5,
    ) {
        let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).cos()).collect();
        let topology = ServerTopology::new(2, 3);
        let planes = [
            WorkerPort::Single(Arc::new(ShardedStore::new(&initial, 7))),
            WorkerPort::Routed(Arc::new(ShardRouter::new(&initial, 7, topology))),
            WorkerPort::Net(NetPort::launch(
                &initial,
                7,
                topology.with_transport(TransportKind::Channel),
            )),
            WorkerPort::Net(NetPort::launch(
                &initial,
                7,
                topology.with_transport(TransportKind::Tcp),
            )),
        ];
        // Server 1's first parameter: the start of its first shard.
        let routed = &planes[1];
        let first_of_1 = (0..routed.shard_count())
            .find(|&g| routed.owner_of(g) == 1)
            .expect("two servers");
        let boundary = routed.shard_range(first_of_1).0;
        let mask: Vec<bool> = (0..n)
            .map(|i| match mode {
                0 => mask_bits[i % mask_bits.len()],
                1 => true,
                2 => mask_bits[i % mask_bits.len()] && i < boundary,
                _ => (boundary - 2..boundary + 2).contains(&i),
            })
            .collect();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for i in (0..n).filter(|&i| mask[i]) {
            match runs.last_mut() {
                Some((o, l)) if *o + *l == i => *l += 1,
                _ => runs.push((i, 1)),
            }
        }
        for port in &planes {
            // The buffer's "old contents": the initial image.
            let mut part = port.new_buffer();
            port.pull_into(&mut part);
            // Every push moves every parameter and every shard clock.
            for p in 0..pushes {
                for g in 0..port.shard_count() {
                    let (_, l) = port.shard_range(g);
                    port.apply_shard_update(g, &vec![1.0 + p as f32; l], 0.05, 0.9);
                }
                port.complete_push(p);
            }
            port.end_round();
            let mut full = port.new_buffer();
            let v_full = port.pull_into(&mut full);
            let v_part = port.pull_runs_into(&mut part, &runs);
            prop_assert_eq!(v_part, v_full);
            prop_assert_eq!(part.version(), full.version());
            for g in 0..port.shard_count() {
                prop_assert_eq!(part.shard_version(g), full.shard_version(g), "shard {}", g);
            }
            // `off_runs` where the mask is clear, the full pull elsewhere.
            let expect = |off_runs: &[f32]| -> Vec<f32> {
                let picked = mask.iter().zip(full.params().iter().zip(off_runs));
                picked.map(|(&m, (&f, &o))| if m { f } else { o }).collect()
            };
            prop_assert!(full.params().iter().zip(&initial).all(|(f, i)| f != i));
            prop_assert_eq!(part.params(), &expect(&initial)[..]);
            // A buffer that never held anything holds zeros off the runs.
            let mut fresh = port.new_buffer();
            port.pull_runs_into(&mut fresh, &runs);
            prop_assert_eq!(fresh.params(), &expect(&vec![0.0; n])[..]);
        }
    }

    /// At-most-once under duplication: a wire tier whose fault plan
    /// duplicates **every** request frame (and drops some replies, so the
    /// retry layer re-sends on top) ends up bitwise-identical — params,
    /// velocity, per-shard clocks, committed view — to the in-process
    /// router applying each push exactly once. Gradients are arbitrary f32
    /// bit patterns (NaNs included), so equality is compared on bits.
    #[test]
    fn duplicated_push_frames_apply_exactly_once(
        n in 2usize..64,
        shards in 2usize..6,
        pushes in 1u64..5,
        bits in proptest::collection::vec(any::<u32>(), 64),
    ) {
        let plan = FaultPlan {
            duplicate_per_mille: 1000,
            drop_reply_per_mille: 120,
            ..FaultPlan::seeded(17)
        };
        let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.23).sin()).collect();
        let clean = ShardRouter::new(&initial, shards, ServerTopology::new(2, 1));
        let net = NetPort::launch(
            &initial,
            shards,
            ServerTopology::new(2, 1)
                .with_transport(TransportKind::Channel)
                .with_faults(plan),
        );
        for p in 0..pushes {
            let grad: Vec<f32> = (0..n)
                .map(|i| f32::from_bits(bits[(i + p as usize * 7) % bits.len()]))
                .collect();
            for g in 0..clean.shard_count() {
                let (o, l) = clean.shard_range(g);
                let a = clean.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                let b = net.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                prop_assert_eq!(a, b, "clock skew at push {} shard {}", p, g);
            }
            prop_assert_eq!(clean.complete_push(p), net.router().complete_push(p));
            clean.reconcile_if_due();
            net.router().reconcile_if_due();
        }
        clean.drain();
        net.router().drain();
        let key = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            key(clean.snapshot_params()),
            key(net.router().snapshot_params()),
            "params diverged under duplication"
        );
        prop_assert_eq!(
            key(clean.snapshot_velocity()),
            key(net.router().snapshot_velocity()),
            "velocity diverged under duplication"
        );
        let mut a = PullBuffer::new();
        let mut b = PullBuffer::new();
        clean.pull_committed_into(&mut a);
        net.pull_into(&mut b);
        prop_assert_eq!(key(a.params().to_vec()), key(b.params().to_vec()));
        prop_assert_eq!(a.shard_versions(), b.shard_versions());
    }

    /// The same contract for *batched* pushes: every shard is queued and a
    /// server's shards travel as one sequenced `Batch`, so the fault plan
    /// duplicates and drops whole batches. A duplicate must replay the
    /// cached batch reply and a re-send after a dropped reply must land
    /// nowhere twice — acks, state and the servers' own apply counts all
    /// equal the exactly-once run's.
    #[test]
    fn duplicated_push_batches_apply_exactly_once(
        n in 7usize..64,
        shards in 2usize..8,
        pushes in 1u64..5,
        sparse_mask in any::<u8>(),
        bits in proptest::collection::vec(any::<u32>(), 64),
    ) {
        let plan = FaultPlan {
            duplicate_per_mille: 1000,
            drop_reply_per_mille: 120,
            ..FaultPlan::seeded(23)
        };
        let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.23).sin()).collect();
        let clean = ShardRouter::new(&initial, shards, ServerTopology::new(2, 1));
        let net = NetPort::launch(
            &initial,
            shards,
            ServerTopology::new(2, 1)
                .with_transport(TransportKind::Channel)
                .with_faults(plan),
        );
        for p in 0..pushes {
            let grad: Vec<f32> = (0..n)
                .map(|i| f32::from_bits(bits[(i + p as usize * 7) % bits.len()]))
                .collect();
            let mut expected = Vec::new();
            let mut acks = Vec::new();
            for g in 0..clean.shard_count() {
                let (o, l) = clean.shard_range(g);
                if (sparse_mask >> g) & 1 == 1 {
                    // The shard's first value only; the rest decays.
                    let (spans, rows) = ([(0u32, 1u32)], &grad[o..o + 1]);
                    let data = UpdateData::Sparse { indices: &spans, rows };
                    expected.push(clean.apply_shard_update_data(g, data, 0.05, 0.9));
                    net.queue_shard_update_sparse(g, &spans, rows, 0.05, 0.9);
                } else {
                    expected.push(clean.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9));
                    net.queue_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                }
            }
            net.flush_pushes(&mut acks);
            prop_assert_eq!(&expected, &acks, "clock skew at push {}", p);
            prop_assert_eq!(clean.complete_push(p), net.router().complete_push(p));
            clean.reconcile_if_due();
            net.router().reconcile_if_due();
        }
        clean.drain();
        net.router().drain();
        let key = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(key(clean.snapshot_params()), key(net.router().snapshot_params()));
        prop_assert_eq!(key(clean.snapshot_velocity()), key(net.router().snapshot_velocity()));
        let mut a = PullBuffer::new();
        let mut b = PullBuffer::new();
        clean.pull_committed_into(&mut a);
        net.pull_into(&mut b);
        prop_assert_eq!(a.shard_versions(), b.shard_versions());
        // The servers agree: each shard applied once per push, although
        // every batch arrived at least twice.
        let mut merged = ServerStatsSnapshot::default();
        for snap in net.router().scrape_all_stats().into_iter().flatten() {
            merged.merge(&snap);
        }
        prop_assert_eq!(merged.apply_ns.count, pushes * clean.shard_count() as u64);
        prop_assert!(merged.dedup_hits >= 2 * pushes, "duplicates never reached the servers");
    }

    /// Checkpoints round-trip through bytes for arbitrary contents.
    #[test]
    fn checkpoint_bytes_round_trip(
        step in any::<u64>(),
        params in proptest::collection::vec(-1e3f32..1e3, 0..100),
    ) {
        let velocity: Vec<f32> = params.iter().map(|x| x * 0.5).collect();
        let ck = Checkpoint::new(step, params, velocity);
        let back = Checkpoint::from_bytes(&ck.to_bytes()).expect("parse");
        prop_assert_eq!(back, ck);
    }

    /// ASP completes exactly the requested number of global steps and every
    /// recorded staleness is below the total step count.
    #[test]
    fn asp_step_accounting(workers in 2usize..5, steps in 10u64..80) {
        let data = Dataset::gaussian_blobs(3, 48, 5, 0.3, 7);
        let (train, test) = data.split(0.25);
        let cfg = TrainerConfig::new(workers, 4, 0.02, 0.9).with_seed(7);
        let mut t = Trainer::new(Network::mlp(5, &[8], 3, 7), train, test, cfg);
        let report = t.run_segment(SyncProtocol::Asp, steps).expect("asp runs");
        prop_assert_eq!(report.steps, steps);
        prop_assert_eq!(t.store().unwrap().version(), steps);
        let total: usize = report.worker_profiles.iter().map(|p| p.steps()).sum();
        prop_assert_eq!(total as u64, steps);
        if let Some(max) = report.staleness.max() {
            prop_assert!(max < steps, "staleness {max} of {steps} steps");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Touched-block decay and commit ≡ the whole-slice walks, under random
    /// interleavings of everything that writes a store. Two routers take
    /// the same ops — one as sparse segment lists, one with the same values
    /// scattered into dense gradients, whose shards are fully marked by
    /// their first apply and so never leave the whole-slice paths — and
    /// must agree on every parameter **and every velocity** after every
    /// op; after every commit (a drain — alone, behind a velocity reset, or
    /// inside `restore`) the committed view must equal the live one, params
    /// and clocks. Sparse pushes are random spans of the flat vector cut at
    /// the shard ends (a shard they miss gets an empty segment list), and
    /// the shards are a few blocks of 64 long, not a multiple of it.
    ///
    /// Equality is on `to_bits`: no initial parameter here is `-0.0`, the
    /// one value a never-written block would keep where the dense loop
    /// rewrites it to `+0.0` (see [`UpdateData`]).
    #[test]
    fn touched_block_walks_equal_whole_slice_walks(
        n in 70usize..900,
        shards in 1usize..5,
        ops in proptest::collection::vec((0u8..16, any::<u64>()), 1..40),
    ) {
        let initial: Vec<f32> = (0..n).map(|i| 1.5 + (i as f32 * 0.17).cos()).collect();
        let topology = ServerTopology::new(2, 1);
        let sparse = ShardRouter::new(&initial, shards, topology);
        let dense = ShardRouter::new(&initial, shards, topology);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (step, (kind, seed)) in ops.into_iter().enumerate() {
            let mut state = seed | 1;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 16) as usize
            };
            let value = |rng: &mut dyn FnMut() -> usize| (rng() % 17) as f32 * 0.25 - 2.0;
            let mut committed = true;
            match kind {
                0 => {
                    let g = rng() % sparse.shard_count();
                    let (_, l) = sparse.shard_range(g);
                    let grad: Vec<f32> = (0..l).map(|_| value(&mut rng)).collect();
                    let a = sparse.apply_shard_update(g, &grad, 0.05, 0.9);
                    prop_assert_eq!(a, dense.apply_shard_update(g, &grad, 0.05, 0.9));
                    committed = false;
                }
                1 => {
                    let p: Vec<f32> = (0..n).map(|_| value(&mut rng)).collect();
                    let v: Vec<f32> = (0..n).map(|_| value(&mut rng)).collect();
                    sparse.restore(&p, &v);
                    dense.restore(&p, &v);
                }
                2 | 3 => {
                    sparse.reset_velocity();
                    dense.reset_velocity();
                    sparse.drain();
                    dense.drain();
                }
                4 | 5 => {
                    sparse.drain();
                    dense.drain();
                }
                _ => {
                    let mut mask = vec![false; n];
                    for _ in 0..rng() % 4 {
                        let start = rng() % n;
                        let len = rng() % (n - start + 1).min(if rng().is_multiple_of(4) { 150 } else { 9 });
                        mask[start..start + len].fill(true);
                    }
                    let grad: Vec<f32> = mask
                        .iter()
                        .map(|&m| if m { value(&mut rng) } else { 0.0 })
                        .collect();
                    for g in 0..sparse.shard_count() {
                        let (o, l) = sparse.shard_range(g);
                        let (spans, values) = spans_of(&mask, &grad, o, l);
                        let a = sparse.apply_shard_update_data(
                            g,
                            UpdateData::Sparse { indices: &spans, rows: &values },
                            0.05,
                            0.9,
                        );
                        let b = dense.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                        prop_assert_eq!(a, b, "clock skew at op {} shard {}", step, g);
                    }
                    committed = false;
                }
            }
            let live = sparse.snapshot_params();
            prop_assert_eq!(bits(&live), bits(&dense.snapshot_params()), "params, op {}", step);
            prop_assert_eq!(
                bits(&sparse.snapshot_velocity()),
                bits(&dense.snapshot_velocity()),
                "velocity, op {}", step
            );
            if committed {
                for router in [&sparse, &dense] {
                    let mut buf = PullBuffer::new();
                    router.pull_committed_into(&mut buf);
                    prop_assert_eq!(bits(buf.params()), bits(&live), "commit, op {}", step);
                    for server in router.servers() {
                        for k in 0..server.shard_count() {
                            prop_assert_eq!(server.committed_lag(k), 0);
                            prop_assert_eq!(
                                buf.shard_version(server.shard_offset() + k),
                                server.live().shard_version(k)
                            );
                        }
                    }
                }
            }
        }
    }

    /// The wire codec round-trips arbitrary request frames byte-exactly:
    /// decode(encode(req)) re-encodes to the identical byte string, for
    /// every opcode and for gradients of arbitrary f32 bit patterns
    /// (NaNs and infinities included).
    #[test]
    fn wire_codec_round_trips_requests_byte_exactly(
        kind in 0u8..10,
        shard in any::<u32>(),
        bits_a in proptest::collection::vec(any::<u32>(), 0..64),
        bits_b in proptest::collection::vec(any::<u32>(), 0..64),
        seg_bits in proptest::collection::vec(any::<u64>(), 0..16),
        lr_bits in any::<u64>(),
        mu_bits in any::<u64>(),
        flag in any::<bool>(),
    ) {
        let req = match kind {
            0 => Request::PushShard {
                shard,
                lr: f64::from_bits(lr_bits),
                momentum: f64::from_bits(mu_bits),
                grad: bits_to_f32(&bits_a),
            },
            1 => Request::PullCommitted,
            2 => Request::SyncRound,
            3 => Request::Drain,
            4 => Request::Snapshot { velocity: flag },
            5 => Request::Restore {
                params: bits_to_f32(&bits_a),
                velocity: bits_to_f32(&bits_b),
            },
            6 => Request::ResetVelocity,
            7 => Request::CheckFinite,
            8 => Request::PushShardSparse {
                shard,
                lr: f64::from_bits(lr_bits),
                momentum: f64::from_bits(mu_bits),
                indices: bits_to_segments(&seg_bits),
                rows: bits_to_f32(&bits_b),
            },
            _ => Request::Shutdown,
        };
        let mut bytes = Vec::new();
        req.encode(&mut bytes);
        let back = Request::decode(&bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        let mut again = Vec::new();
        back.unwrap().encode(&mut again);
        prop_assert_eq!(&bytes, &again, "re-encode drifted");
        // Truncating the frame anywhere must fail, never mis-decode.
        if !bytes.is_empty() {
            prop_assert!(Request::decode(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    /// `Batch` frames round-trip byte-exactly — any mix of batchable
    /// requests, arbitrary gradient bits — and every way of breaking the
    /// framing is an error, never a mis-decode: a cut anywhere, a trailing
    /// byte, a count above or below the records present, a nested batch.
    #[test]
    fn wire_codec_round_trips_batches_byte_exactly(
        kinds in proptest::collection::vec(0u8..4, 1..6),
        shard in any::<u32>(),
        bits in proptest::collection::vec(any::<u32>(), 0..32),
        seg_bits in proptest::collection::vec(any::<u64>(), 0..8),
        lr_bits in any::<u64>(),
        cut in any::<u32>(),
    ) {
        let items: Vec<Request> = kinds
            .iter()
            .map(|kind| match kind {
                0 => Request::PushShard {
                    shard,
                    lr: f64::from_bits(lr_bits),
                    momentum: 0.9,
                    grad: bits_to_f32(&bits),
                },
                1 => Request::PushShardSparse {
                    shard,
                    lr: f64::from_bits(lr_bits),
                    momentum: 0.9,
                    indices: bits_to_segments(&seg_bits),
                    rows: bits_to_f32(&bits),
                },
                2 => Request::PullCommitted,
                _ => Request::SyncRound,
            })
            .collect();
        let req = Request::Batch(items.clone());
        let mut bytes = Vec::new();
        req.encode(&mut bytes);
        let back = Request::decode(&bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        let mut again = Vec::new();
        back.unwrap().encode(&mut again);
        prop_assert_eq!(&bytes, &again, "re-encode drifted");
        // The item view the server executes from sees the same payloads.
        let views: Vec<&[u8]> = wire::batch_items(&bytes, wire::op::BATCH).unwrap().collect();
        prop_assert_eq!(views.len(), items.len());
        for (view, item) in views.iter().zip(&items) {
            let mut own = Vec::new();
            item.encode(&mut own);
            prop_assert_eq!(*view, &own[..]);
        }
        // Truncated anywhere.
        let cut = cut as usize % bytes.len();
        prop_assert!(Request::decode(&bytes[..cut]).is_err(), "cut {}", cut);
        // A trailing byte.
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(Request::decode(&long).is_err());
        // The count off by one in either direction, and zero.
        for n in [items.len() as u16 + 1, items.len() as u16 - 1, 0] {
            let mut bad = bytes.clone();
            bad[1..3].copy_from_slice(&n.to_le_bytes());
            prop_assert!(Request::decode(&bad).is_err(), "count {}", n);
        }
        // Nested.
        let mut nested = Vec::new();
        Request::Batch(vec![Request::Drain, req]).encode(&mut nested);
        prop_assert_eq!(
            Request::decode(&nested),
            Err(wire::WireError::NotBatchable(wire::op::BATCH))
        );
        // The reply side: acks in order, byte-exact.
        let reply = Reply::Batch(
            bits.iter().map(|&b| Reply::PushAck { prev_clock: u64::from(b) }).collect(),
        );
        if !bits.is_empty() {
            let mut bytes = Vec::new();
            reply.encode(&mut bytes);
            prop_assert_eq!(Reply::decode(&bytes), Ok(reply));
            prop_assert!(Reply::decode(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    /// Reply frames round-trip byte-exactly too, and the zero-allocation
    /// slice decoders agree with the owned decoder on pull/ack frames.
    #[test]
    fn wire_codec_round_trips_replies_byte_exactly(
        kind in 0u8..6,
        clock in any::<u64>(),
        bits in proptest::collection::vec(any::<u32>(), 0..64),
        clocks in proptest::collection::vec(any::<u64>(), 0..16),
        flag in any::<bool>(),
    ) {
        let reply = match kind {
            0 => Reply::PushAck { prev_clock: clock },
            1 => Reply::Pulled { params: bits_to_f32(&bits), clocks: clocks.clone() },
            2 => Reply::Synced,
            3 => Reply::SnapshotData { data: bits_to_f32(&bits) },
            4 => Reply::Ok,
            _ => Reply::Finite { finite: flag },
        };
        let mut bytes = Vec::new();
        reply.encode(&mut bytes);
        let back = Reply::decode(&bytes);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        let mut again = Vec::new();
        back.unwrap().encode(&mut again);
        prop_assert_eq!(&bytes, &again, "re-encode drifted");

        // Slice decoders see the same values bit-for-bit.
        if kind == 0 {
            prop_assert_eq!(wire::decode_push_ack(&bytes), Ok(clock));
        }
        if kind == 1 {
            let mut params_out = vec![0.0f32; bits.len()];
            let mut clocks_out = vec![0u64; clocks.len()];
            prop_assert!(
                wire::decode_pulled_into(&bytes, &mut params_out, &mut clocks_out).is_ok()
            );
            let out_bits: Vec<u32> = params_out.iter().map(|p| p.to_bits()).collect();
            prop_assert_eq!(&out_bits, &bits);
            prop_assert_eq!(&clocks_out, &clocks);
        }
    }

    /// The streaming sparse-push encoder and decoder agree with the owned
    /// codec bit-for-bit — NaN payloads and arbitrary segment descriptors
    /// included — and the sparse frame undercuts the dense frame whenever
    /// the carried values are fewer than the shard's (8 bytes of segment
    /// descriptor vs 4 bytes per skipped value).
    #[test]
    fn streaming_sparse_push_encoder_round_trips(
        shard in any::<u32>(),
        seg_bits in proptest::collection::vec(any::<u64>(), 0..16),
        bits in proptest::collection::vec(any::<u32>(), 0..64),
        lr in 1e-6f64..10.0,
        mu in 0.0f64..1.0,
    ) {
        let indices = bits_to_segments(&seg_bits);
        let rows = bits_to_f32(&bits);
        let mut streamed = Vec::new();
        wire::encode_push_shard_sparse(&mut streamed, shard, lr, mu, &indices, &rows);
        let mut owned = Vec::new();
        Request::PushShardSparse {
            shard,
            lr,
            momentum: mu,
            indices: indices.clone(),
            rows: rows.clone(),
        }
        .encode(&mut owned);
        prop_assert_eq!(&streamed, &owned);
        // Reused decode buffers come back with the exact bits.
        let mut idx_out = vec![(1u32, 1u32)];
        let mut rows_out = vec![0.5f32];
        let (s, l, m) =
            wire::decode_push_shard_sparse_into(&streamed, &mut idx_out, &mut rows_out).unwrap();
        prop_assert_eq!((s, l, m), (shard, lr, mu));
        prop_assert_eq!(&idx_out, &indices);
        let out_bits: Vec<u32> = rows_out.iter().map(|g| g.to_bits()).collect();
        prop_assert_eq!(&out_bits, &bits);
        // Truncations fail, never mis-decode.
        prop_assert!(Request::decode(&streamed[..streamed.len() - 1]).is_err());
    }

    /// The streaming push encoder and the owned request encoder emit
    /// identical bytes, so the hot path and the cold path speak one format.
    #[test]
    fn streaming_push_encoder_matches_owned_encoder(
        shard in any::<u32>(),
        bits in proptest::collection::vec(any::<u32>(), 1..128),
        lr in 1e-6f64..10.0,
        mu in 0.0f64..1.0,
    ) {
        let grad = bits_to_f32(&bits);
        let mut streamed = Vec::new();
        wire::encode_push_shard(&mut streamed, shard, lr, mu, &grad);
        let mut owned = Vec::new();
        Request::PushShard { shard, lr, momentum: mu, grad: grad.clone() }.encode(&mut owned);
        prop_assert_eq!(&streamed, &owned);
        // And the in-place gradient decoder returns the exact bits.
        let mut grad_out = Vec::new();
        let (s, l, m) = wire::decode_push_shard_into(&streamed, &mut grad_out).unwrap();
        prop_assert_eq!((s, l, m), (shard, lr, mu));
        let out_bits: Vec<u32> = grad_out.iter().map(|g| g.to_bits()).collect();
        prop_assert_eq!(&out_bits, &bits);
    }
}
