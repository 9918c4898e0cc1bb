//! Property-based tests of the parameter-server concurrency semantics.

#[path = "support/deadline.rs"]
mod deadline;

use deadline::deadline;
use proptest::prelude::*;
use std::sync::Arc;
use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::transport::wire::{self, op, ServerInfo, WireError};
use sync_switch_ps::transport::ServerEndpoint;
use sync_switch_ps::{
    Checkpoint, FaultPlan, NetPort, PsServer, PullBuffer, ServerStatsSnapshot, ServerTopology,
    ShardedStore, Tier, Trainer, TrainerConfig, TransportKind, UpdateData, WorkerPort,
};
use sync_switch_workloads::SyncProtocol;

/// Reinterprets raw u32s as f32s — arbitrary bit patterns, NaNs included,
/// because the codec must move gradients without reinterpreting them.
fn bits_to_f32(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

/// A server owning all of an `n`-parameter vector in `shards` shards.
fn test_server(n: usize, shards: usize) -> Arc<PsServer> {
    let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin()).collect();
    Arc::new(Tier::new(n, shards, 1, 2).server(0, &initial))
}

/// The lengths of `server`'s local shards.
fn shard_lens(server: &PsServer) -> Vec<usize> {
    (0..server.shard_count())
        .map(|k| server.live().shard_range(k).1)
        .collect()
}

/// Everything a request may change on `server`, as bits: live parameters,
/// velocity and shard clocks, and the committed view with its clocks.
fn server_state(server: &PsServer) -> [Vec<u64>; 5] {
    let live = server.live();
    let bits = |v: &[f32]| v.iter().map(|x| u64::from(x.to_bits())).collect();
    let mut committed = vec![0.0; server.param_range().1];
    let mut clocks = vec![0; server.shard_count()];
    server.pull_committed_into(&mut committed, &mut clocks);
    let live_clocks = (0..server.shard_count()).map(|k| live.shard_version(k));
    [
        bits(&live.snapshot_params()),
        bits(&live.snapshot_velocity()),
        live_clocks.collect(),
        bits(&committed),
        clocks,
    ]
}

/// A xorshift stream: the shape of a generated frame from one seed.
fn xorshift(seed: u64) -> impl FnMut() -> usize {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 16) as usize
    }
}

/// The bodyless requests a server executes.
const BODYLESS: [u8; 6] = [
    op::DRAIN,
    op::RESET_VELOCITY,
    op::CHECK_FINITE,
    op::HELLO,
    op::STATS,
    op::SHUTDOWN,
];

/// Kinds of [`request_frame`]: a dense push, a sparse push, a whole pull,
/// a run pull, a snapshot, a restore, then each of [`BODYLESS`].
const REQUEST_KINDS: u8 = 6 + BODYLESS.len() as u8;

/// A well-formed request of `kind` for a server whose local shards are
/// `shard_lens` long, its values from `bits` (NaN payloads included),
/// wrapped as `wrap` picks: bare, `Sequenced`, behind a dense push in a
/// `Batch`, or that batch `Sequenced` (`Shutdown` is never batched). Also
/// returns the offsets of its u32 shard, length and count fields, and the
/// one cut that is itself well formed: a run pull cut to its opcode.
fn request_frame(
    kind: u8,
    wrap: u8,
    shard_lens: &[usize],
    bits: &[u32],
    seed: u64,
) -> (Vec<u8>, Vec<usize>, Option<usize>) {
    let mut rng = xorshift(seed);
    let value = |i: usize| f32::from_bits(bits[i % bits.len()]);
    let slice: usize = shard_lens.iter().sum();
    let (lr, mu) = (f64::from_bits(seed), f64::from_bits(seed.rotate_left(29)));
    let mut req = Vec::new();
    let mut fields = Vec::new();
    match kind {
        0 => {
            let s = rng() % shard_lens.len();
            let grad: Vec<f32> = (0..shard_lens[s]).map(value).collect();
            wire::encode_push_shard(&mut req, s as u32, lr, mu, &grad);
            fields = vec![1, 21];
        }
        1 => {
            // Ascending, disjoint segments, empty ones included.
            let s = rng() % shard_lens.len();
            let len = shard_lens[s];
            let mut segments = Vec::new();
            let mut at = 0;
            while at < len && !rng().is_multiple_of(4) {
                let start = at + rng() % (len - at);
                let n = rng() % (len - start + 1);
                segments.push((start as u32, n as u32));
                at = start + n.max(1);
            }
            let total = segments.iter().map(|&(_, n)| n as usize).sum();
            let rows: Vec<f32> = (0..total).map(value).collect();
            wire::encode_push_shard_sparse(&mut req, s as u32, lr, mu, &segments, &rows);
            fields = (0..=2 * segments.len()).map(|i| 21 + 4 * i).collect();
            fields.extend([1, 25 + 8 * segments.len()]);
        }
        2 => wire::encode_bodyless(&mut req, op::PULL_COMMITTED),
        3 => {
            let mut runs = Vec::new();
            let mut at = 0;
            while at < slice && !rng().is_multiple_of(4) {
                let start = at + rng() % (slice - at);
                let n = 1 + rng() % (slice - start);
                runs.push((start, n));
                at = start + n;
            }
            wire::encode_pull_runs(&mut req, runs.iter().copied());
            fields = (0..=2 * runs.len()).map(|i| 1 + 4 * i).collect();
        }
        4 => wire::encode_flag(&mut req, op::SNAPSHOT, seed & 1 == 1),
        5 => {
            let params: Vec<f32> = (0..slice).map(value).collect();
            let velocity: Vec<f32> = (0..slice).map(|i| value(i + 3)).collect();
            wire::encode_restore(&mut req, &params, &velocity);
            fields = vec![1, 5 + 4 * slice];
        }
        _ => wire::encode_bodyless(&mut req, BODYLESS[kind as usize - 6]),
    }
    let mut exempt = (kind == 3).then_some(1);
    if wrap >= 2 && req[0] != op::SHUTDOWN {
        let mut batch = Vec::new();
        let head = wire::begin_batch(&mut batch, op::BATCH);
        let mark = wire::open_batch_item(&mut batch);
        let grad: Vec<f32> = (0..shard_lens[0]).map(value).collect();
        wire::encode_push_shard(&mut batch, 0, lr, mu, &grad);
        wire::close_batch_item(&mut batch, head, mark);
        // The push's length prefix, shard and gradient length.
        let mut outer = vec![mark, mark + 5, mark + 25];
        let mark = wire::open_batch_item(&mut batch);
        batch.extend_from_slice(&req);
        wire::close_batch_item(&mut batch, head, mark);
        outer.push(mark);
        outer.extend(fields.iter().map(|f| f + mark + 4));
        (req, fields, exempt) = (batch, outer, None);
    }
    if wrap % 2 == 1 {
        let mut sequenced = Vec::new();
        wire::encode_sequenced_prefix(&mut sequenced, seed, 0);
        let at = sequenced.len();
        sequenced.extend_from_slice(&req);
        fields.iter_mut().for_each(|f| *f += at);
        (req, exempt) = (sequenced, exempt.map(|cut| cut + at));
    }
    (req, fields, exempt)
}

/// Decodes a request with the decoders the server endpoint runs and
/// encodes it again with the encoders the router runs — the codec's round
/// trip, for a server whose slice is `slice` values long.
fn reencode_request(bytes: &[u8], slice: usize) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    match *bytes.first().ok_or(WireError::Truncated)? {
        op::PUSH_SHARD => {
            let mut grad = Vec::new();
            let (shard, lr, mu) = wire::decode_push_shard_into(bytes, &mut grad)?;
            wire::encode_push_shard(&mut out, shard, lr, mu, &grad);
        }
        op::PUSH_SHARD_SPARSE => {
            let (mut segments, mut rows) = (Vec::new(), Vec::new());
            let (shard, lr, mu) =
                wire::decode_push_shard_sparse_into(bytes, &mut segments, &mut rows)?;
            wire::encode_push_shard_sparse(&mut out, shard, lr, mu, &segments, &rows);
        }
        op::PULL_COMMITTED => {
            let mut runs = Vec::new();
            if wire::decode_pull_runs_into(bytes, slice, &mut runs)? {
                wire::encode_pull_runs(&mut out, runs.into_iter());
            } else {
                wire::encode_bodyless(&mut out, op::PULL_COMMITTED);
            }
        }
        op::SNAPSHOT => {
            let velocity = wire::decode_snapshot_request(bytes)?;
            wire::encode_flag(&mut out, op::SNAPSHOT, velocity);
        }
        op::RESTORE => {
            let (mut params, mut velocity) = (vec![0.0; slice], vec![0.0; slice]);
            wire::decode_restore_into(bytes, &mut params, &mut velocity)?;
            wire::encode_restore(&mut out, &params, &velocity);
        }
        op::SEQUENCED => {
            let (client, seq, inner) = wire::decode_sequenced_prefix(bytes)?;
            wire::encode_sequenced_prefix(&mut out, client, seq);
            out.extend(reencode_request(inner, slice)?);
        }
        op::BATCH => {
            let head = wire::begin_batch(&mut out, op::BATCH);
            for item in wire::batch_items(bytes, op::BATCH)? {
                let mark = wire::open_batch_item(&mut out);
                out.extend(reencode_request(item, slice)?);
                wire::close_batch_item(&mut out, head, mark);
            }
        }
        opcode if BODYLESS.contains(&opcode) => {
            wire::expect_bodyless(bytes, opcode)?;
            wire::encode_bodyless(&mut out, opcode);
        }
        other => return Err(WireError::UnknownOpcode(other)),
    }
    Ok(out)
}

/// Kinds of [`reply_frame`]: `PushAck`, `Pulled`, `Synced`, `Ok`,
/// `SnapshotData`, `Finite`, `Info`, `StatsData`.
const REPLY_KINDS: u8 = 8;

/// A well-formed reply of `kind` built from `bits` and `clocks`, bare or
/// (`batch`) behind a push ack in a `BatchReply`.
fn reply_frame(kind: u8, batch: bool, bits: &[u32], clocks: &[u64]) -> Vec<u8> {
    let mut reply = Vec::new();
    let head = wire::begin_batch(&mut reply, op::BATCH_REPLY);
    let mark = wire::open_batch_item(&mut reply);
    wire::encode_push_ack(&mut reply, 42);
    wire::close_batch_item(&mut reply, head, mark);
    let mark = wire::open_batch_item(&mut reply);
    let seed = clocks.first().copied().unwrap_or(9);
    match kind {
        0 => wire::encode_push_ack(&mut reply, seed),
        1 => wire::encode_pulled(&mut reply, &bits_to_f32(bits), clocks),
        2 => wire::encode_synced(&mut reply, seed),
        3 => wire::encode_bodyless(&mut reply, op::OK),
        4 => wire::encode_snapshot_data(&mut reply, &bits_to_f32(bits)),
        5 => wire::encode_flag(&mut reply, op::FINITE, seed & 1 == 1),
        6 => {
            let info = ServerInfo {
                nonce: seed,
                server: bits.len() as u32,
                first_shard: clocks.len() as u32,
                shard_count: seed as u32,
                param_offset: seed.rotate_left(7),
                param_len: seed.rotate_left(19),
                sync_every: seed.rotate_left(29),
            };
            wire::encode_server_info(&mut reply, &info);
        }
        _ => {
            let mut stats = ServerStatsSnapshot {
                server: seed as u32,
                bytes_in: seed.rotate_left(3),
                dedup_hits: bits.len() as u64,
                shard_apply_ns: clocks.to_vec(),
                shard_applies: clocks.iter().map(|c| c >> 5).collect(),
                ..ServerStatsSnapshot::default()
            };
            for (slot, c) in stats.requests.iter_mut().zip(clocks) {
                *slot = *c;
            }
            stats.apply_ns.buckets[clocks.len()] = seed;
            wire::encode_stats_snapshot(&mut reply, &stats);
        }
    }
    if batch {
        wire::close_batch_item(&mut reply, head, mark);
        return reply;
    }
    reply.split_off(mark + 4)
}

/// Decodes a reply with the decoders the router runs and encodes it again
/// with the encoders the server endpoint runs, for a `Pulled` or
/// `SnapshotData` of `values` values and `clocks` shard clocks.
fn reencode_reply(bytes: &[u8], values: usize, clocks: usize) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    match *bytes.first().ok_or(WireError::Truncated)? {
        op::PUSH_ACK => wire::encode_push_ack(&mut out, wire::decode_push_ack(bytes)?),
        op::PULLED => {
            let (mut params, mut shard_clocks) = (vec![0.0; values], vec![0; clocks]);
            wire::decode_pulled_into(bytes, &mut params, &mut shard_clocks)?;
            wire::encode_pulled(&mut out, &params, &shard_clocks);
        }
        op::SNAPSHOT_DATA => {
            let mut data = vec![0.0; values];
            wire::decode_snapshot_into(bytes, &mut data)?;
            wire::encode_snapshot_data(&mut out, &data);
        }
        op::FINITE => wire::encode_flag(&mut out, op::FINITE, wire::decode_finite(bytes)?),
        op::INFO => wire::encode_server_info(&mut out, &wire::decode_server_info(bytes)?),
        op::STATS_DATA => {
            wire::encode_stats_snapshot(&mut out, &wire::decode_stats_snapshot(bytes)?);
        }
        op::BATCH_REPLY => {
            let head = wire::begin_batch(&mut out, op::BATCH_REPLY);
            for item in wire::batch_items(bytes, op::BATCH_REPLY)? {
                let mark = wire::open_batch_item(&mut out);
                out.extend(reencode_reply(item, values, clocks)?);
                wire::close_batch_item(&mut out, head, mark);
            }
        }
        op::SYNCED => wire::encode_synced(&mut out, wire::decode_synced(bytes)?),
        op::OK => {
            wire::expect_bodyless(bytes, op::OK)?;
            wire::encode_bodyless(&mut out, op::OK);
        }
        other => return Err(WireError::UnexpectedReply(other)),
    }
    Ok(out)
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
    /// ranges tile the vector — as each server itself reports its slice.
    #[test]
    fn router_ownership_partitions_exactly(
        n in 1usize..600,
        shards in 1usize..32,
        servers in 1usize..8,
    ) {
        let initial = vec![0.5f32; n];
        let net = NetPort::launch(&initial, shards, ServerTopology::new(servers, 1));
        let (router, tier) = (net.router(), net.router().tier());
        prop_assert_eq!(tier.param_count(), n);
        prop_assert_eq!(tier.shard_count(), shards.min(n));
        prop_assert_eq!(tier.server_count(), servers.min(tier.shard_count()));
        let mut shard_cursor = 0usize;
        let mut param_cursor = 0usize;
        for s in 0..tier.server_count() {
            let info = router.server_info(s).expect("hello");
            let count = info.shard_count as usize;
            prop_assert_eq!(info.server as usize, s);
            prop_assert!(count >= 1, "server {} owns no shards", s);
            prop_assert_eq!(info.first_shard as usize, shard_cursor, "non-contiguous ownership");
            prop_assert_eq!(info.param_offset as usize, param_cursor, "non-contiguous param range");
            for g in shard_cursor..shard_cursor + count {
                prop_assert_eq!(tier.owner_of(g), s, "shard {} owner mismatch", g);
            }
            shard_cursor += count;
            param_cursor += info.param_len as usize;
        }
        prop_assert_eq!(shard_cursor, tier.shard_count(), "shards not covered");
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
        let net = NetPort::launch(&initial, shards, ServerTopology::new(servers, 1));
        let (router, port) = (net.router(), WorkerPort::Net(net.clone()));
        let grad: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
        for p in 0..pushes {
            for g in 0..store.shard_count() {
                let (o, l) = store.shard_range(g);
                store.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                port.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9).unwrap();
            }
            store.complete_push(p);
            router.complete_push(p);
        }
        let mut buf = PullBuffer::new();
        net.pull_into(&mut buf).unwrap();
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

    /// Sparse push ≡ dense push through a 2-server in-process (direct)
    /// tier: same routing, same stage-2 commits, same committed views
    /// and clocks — the sparse payload changes nothing but what crosses
    /// the request boundary.
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
        let dense = WorkerPort::Net(NetPort::launch(&initial, shards, topology));
        let sparse = WorkerPort::Net(NetPort::launch(&initial, shards, topology));
        for p in 0..pushes {
            let grad: Vec<f32> = (0..n)
                .map(|i| if mask[i] { ((i as f32) * 0.41 + p as f32).sin() } else { 0.0 })
                .collect();
            for g in 0..dense.shard_count() {
                let (o, l) = dense.shard_range(g);
                let a = dense.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9).unwrap();
                let (spans, values) = spans_of(&mask, &grad, o, l);
                let b = sparse.apply_shard_update_sparse(g, &spans, &values, 0.05, 0.9).unwrap();
                prop_assert_eq!(a, b, "clock skew at push {} shard {}", p, g);
            }
            // Staleness equality through the global clock.
            prop_assert_eq!(dense.complete_push(p), sparse.complete_push(p));
        }
        // Live state, committed views, and committed clocks all agree.
        let (WorkerPort::Net(d), WorkerPort::Net(s)) = (&dense, &sparse) else {
            unreachable!("both are tiers")
        };
        prop_assert_eq!(d.router().snapshot_params(), s.router().snapshot_params());
        prop_assert_eq!(d.router().snapshot_velocity(), s.router().snapshot_velocity());
        let mut a = PullBuffer::new();
        let mut b = PullBuffer::new();
        let va = dense.pull_into(&mut a).unwrap();
        let vb = sparse.pull_into(&mut b).unwrap();
        prop_assert_eq!(va, vb, "committed data versions diverged");
        prop_assert_eq!(a.params(), b.params());
        prop_assert_eq!(a.shard_versions(), b.shard_versions());
        prop_assert_eq!(d.router().sync_rounds(), s.router().sync_rounds());
    }

    /// A run pull is a full pull restricted to the runs, on every plane —
    /// the single store, and the in-process (direct), channel and TCP
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
        let _deadline = deadline(60);
        let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).cos()).collect();
        let topology = ServerTopology::new(2, 3);
        let planes = [
            WorkerPort::Single(Arc::new(ShardedStore::new(&initial, 7))),
            WorkerPort::Net(NetPort::launch(&initial, 7, topology)),
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
            port.pull_into(&mut part).unwrap();
            // Every push moves every parameter and every shard clock.
            for p in 0..pushes {
                for g in 0..port.shard_count() {
                    let (_, l) = port.shard_range(g);
                    port.apply_shard_update(g, &vec![1.0 + p as f32; l], 0.05, 0.9).unwrap();
                }
                port.complete_push(p);
            }
            port.drain().expect("drain");
            let mut full = port.new_buffer();
            let v_full = port.pull_into(&mut full).unwrap();
            let v_part = port.pull_runs_into(&mut part, &runs).unwrap();
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
            port.pull_runs_into(&mut fresh, &runs).unwrap();
            prop_assert_eq!(fresh.params(), &expect(&vec![0.0; n])[..]);
        }
    }

    /// At-most-once under duplication: a wire tier whose fault plan
    /// duplicates **every** request frame (and drops some replies, so the
    /// retry layer re-sends on top) ends up bitwise-identical — params,
    /// velocity, per-shard clocks, committed view — to the single store
    /// applying each push exactly once. Gradients are arbitrary f32 bit
    /// patterns (NaNs included), so equality is compared on bits.
    #[test]
    fn duplicated_push_frames_apply_exactly_once(
        n in 2usize..64,
        shards in 2usize..6,
        pushes in 1u64..5,
        bits in proptest::collection::vec(any::<u32>(), 64),
    ) {
        let _deadline = deadline(60);
        let plan = FaultPlan {
            duplicate_per_mille: 1000,
            drop_reply_per_mille: 120,
            ..FaultPlan::seeded(17)
        };
        let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.23).sin()).collect();
        let clean = ShardedStore::new(&initial, shards);
        let net = NetPort::launch(
            &initial,
            shards,
            ServerTopology::new(2, 1)
                .with_transport(TransportKind::Channel)
                .with_faults(plan),
        );
        let w = WorkerPort::Net(net.clone());
        for p in 0..pushes {
            let grad: Vec<f32> = (0..n)
                .map(|i| f32::from_bits(bits[(i + p as usize * 7) % bits.len()]))
                .collect();
            for g in 0..clean.shard_count() {
                let (o, l) = clean.shard_range(g);
                let a = clean.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                let b = w.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9).unwrap();
                prop_assert_eq!(a, b, "clock skew at push {} shard {}", p, g);
            }
            prop_assert_eq!(clean.complete_push(p), net.router().complete_push(p));
        }
        net.router().drain().expect("drain");
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
        clean.pull_into(&mut a);
        net.pull_into(&mut b).unwrap();
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
        let _deadline = deadline(60);
        let plan = FaultPlan {
            duplicate_per_mille: 1000,
            drop_reply_per_mille: 120,
            ..FaultPlan::seeded(23)
        };
        let initial: Vec<f32> = (0..n).map(|i| (i as f32 * 0.23).sin()).collect();
        let clean = ShardedStore::new(&initial, shards);
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
                    net.queue_shard_update(g, data, 0.05, 0.9).unwrap();
                } else {
                    expected.push(clean.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9));
                    let data = UpdateData::Dense(&grad[o..o + l]);
                    net.queue_shard_update(g, data, 0.05, 0.9).unwrap();
                }
            }
            net.flush_pushes(&mut acks, None).unwrap();
            prop_assert_eq!(&expected, &acks, "clock skew at push {}", p);
            prop_assert_eq!(clean.complete_push(p), net.router().complete_push(p));
        }
        net.router().drain().expect("drain");
        let key = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(key(clean.snapshot_params()), key(net.router().snapshot_params()));
        prop_assert_eq!(key(clean.snapshot_velocity()), key(net.router().snapshot_velocity()));
        let mut a = PullBuffer::new();
        let mut b = PullBuffer::new();
        clean.pull_into(&mut a);
        net.pull_into(&mut b).unwrap();
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
    /// interleavings of everything that writes a store. Two in-process
    /// (direct) tiers take the same ops — one as sparse segment lists, one
    /// with the same values scattered into dense gradients, whose shards
    /// are fully marked by their first apply and so never leave the
    /// whole-slice paths — and
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
        let (sparse_tier, dense_tier) = (
            NetPort::launch(&initial, shards, topology),
            NetPort::launch(&initial, shards, topology),
        );
        let (sr, dr) = (sparse_tier.router(), dense_tier.router());
        let sparse = WorkerPort::Net(sparse_tier.clone());
        let dense = WorkerPort::Net(dense_tier.clone());
        // Each shard's live clock: one past its last apply's pre-apply clock.
        let mut clocks = vec![0u64; sparse.shard_count()];
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
                    let a = sparse.apply_shard_update(g, &grad, 0.05, 0.9).unwrap();
                    prop_assert_eq!(a, dense.apply_shard_update(g, &grad, 0.05, 0.9).unwrap());
                    clocks[g] = a + 1;
                    committed = false;
                }
                1 => {
                    let p: Vec<f32> = (0..n).map(|_| value(&mut rng)).collect();
                    let v: Vec<f32> = (0..n).map(|_| value(&mut rng)).collect();
                    sr.restore(&p, &v).unwrap();
                    dr.restore(&p, &v).unwrap();
                }
                2 | 3 => {
                    sr.reset_velocity().unwrap();
                    dr.reset_velocity().unwrap();
                    sparse.drain().unwrap();
                    dense.drain().unwrap();
                }
                4 | 5 => {
                    sparse.drain().unwrap();
                    dense.drain().unwrap();
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
                    for (g, clock) in clocks.iter_mut().enumerate() {
                        let (o, l) = sparse.shard_range(g);
                        let (spans, values) = spans_of(&mask, &grad, o, l);
                        let a = sparse.apply_shard_update_sparse(g, &spans, &values, 0.05, 0.9);
                        let b = dense.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                        prop_assert_eq!(&a, &b, "clock skew at op {} shard {}", step, g);
                        *clock = a.unwrap() + 1;
                    }
                    committed = false;
                }
            }
            let live = sr.snapshot_params();
            prop_assert_eq!(bits(&live), bits(&dr.snapshot_params()), "params, op {}", step);
            prop_assert_eq!(
                bits(&sr.snapshot_velocity()),
                bits(&dr.snapshot_velocity()),
                "velocity, op {}", step
            );
            if committed {
                for port in [&sparse, &dense] {
                    let mut buf = PullBuffer::new();
                    port.pull_into(&mut buf).unwrap();
                    prop_assert_eq!(bits(buf.params()), bits(&live), "commit, op {}", step);
                    prop_assert_eq!(buf.shard_versions(), &clocks[..], "clocks, op {}", step);
                }
            }
        }
    }

    /// Owed decay ≡ the dense loop where the debt builds up. The same ops
    /// go to two single stores and to two in-process (direct) tiers of 2
    /// servers that commit every 3rd push; one of each pair takes sparse
    /// segment lists, its twin the same values scattered into dense
    /// gradients, and every push draws its μ from {0.9, 0.5, 0.0}. Nothing
    /// reads between applies but what the op mix draws: run pulls from the
    /// single stores, compared with the twin's at the runs read; committed
    /// pulls from the tiers, whose periodic commits settle whatever the
    /// blocks owe by then; `is_finite`; and the check op, the only one that
    /// compares every parameter and velocity. So a block can owe many
    /// steps, at a μ a later push changes, before a reader settles it.
    #[test]
    fn owed_decay_settles_bit_for_bit_wherever_it_is_read(
        n in 70usize..600,
        shards in 1usize..5,
        ops in proptest::collection::vec((0u8..16, any::<u64>()), 1..60),
    ) {
        let initial: Vec<f32> = (0..n).map(|i| 1.5 + (i as f32 * 0.17).cos()).collect();
        let (ss, ds) = (ShardedStore::new(&initial, shards), ShardedStore::new(&initial, shards));
        let topology = ServerTopology::new(2, 3);
        let (st, dt) = (
            NetPort::launch(&initial, shards, topology),
            NetPort::launch(&initial, shards, topology),
        );
        let (sr, dr) = (Arc::clone(st.router()), Arc::clone(dt.router()));
        let (sparse, dense) = (WorkerPort::Net(st), WorkerPort::Net(dt));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut sbuf, mut dbuf) = (PullBuffer::new(), PullBuffer::new());
        for (step, (kind, seed)) in ops.into_iter().enumerate() {
            let mut rng = xorshift(seed);
            let value = |rng: &mut dyn FnMut() -> usize| (rng() % 17) as f32 * 0.25 - 2.0;
            let mu = [0.9, 0.5, 0.0][rng() % 3];
            let mut mask = vec![false; n];
            for _ in 0..rng() % 4 {
                let start = rng() % n;
                let len = rng() % (n - start + 1).min(if rng().is_multiple_of(4) { 150 } else { 9 });
                mask[start..start + len].fill(true);
            }
            match kind {
                0 => {
                    let g = rng() % ss.shard_count();
                    let grad: Vec<f32> = (0..ss.shard_range(g).1).map(|_| value(&mut rng)).collect();
                    let a = ss.apply_shard_update(g, &grad, 0.05, mu);
                    prop_assert_eq!(a, ds.apply_shard_update(g, &grad, 0.05, mu));
                    let a = sparse.apply_shard_update(g, &grad, 0.05, mu).unwrap();
                    prop_assert_eq!(a, dense.apply_shard_update(g, &grad, 0.05, mu).unwrap());
                }
                1 => {
                    let p: Vec<f32> = (0..n).map(|_| value(&mut rng)).collect();
                    let v: Vec<f32> = (0..n).map(|_| value(&mut rng)).collect();
                    ss.restore(&p, &v);
                    ds.restore(&p, &v);
                    sr.restore(&p, &v).unwrap();
                    dr.restore(&p, &v).unwrap();
                }
                2 => {
                    ss.reset_velocity();
                    ds.reset_velocity();
                    sr.reset_velocity().unwrap();
                    dr.reset_velocity().unwrap();
                }
                3 => {
                    prop_assert_eq!(ss.is_finite(), ds.is_finite(), "finite, op {}", step);
                    prop_assert_eq!(sr.is_finite().unwrap(), dr.is_finite().unwrap());
                }
                4 | 5 => {
                    let planes = [
                        (ss.snapshot_params(), ds.snapshot_params()),
                        (ss.snapshot_velocity(), ds.snapshot_velocity()),
                        (sr.snapshot_params(), dr.snapshot_params()),
                        (sr.snapshot_velocity(), dr.snapshot_velocity()),
                    ];
                    for (i, (a, b)) in planes.iter().enumerate() {
                        prop_assert_eq!(bits(a), bits(b), "check {}, op {}", i, step);
                    }
                }
                6 | 7 => {
                    let (runs, _) = spans_of(&mask, &initial, 0, n);
                    let runs: Vec<(usize, usize)> =
                        runs.iter().map(|&(o, l)| (o as usize, l as usize)).collect();
                    let version = ss.pull_runs_into(&mut sbuf, &runs);
                    prop_assert_eq!(version, ds.pull_runs_into(&mut dbuf, &runs));
                    prop_assert_eq!(sbuf.shard_versions(), dbuf.shard_versions());
                    for &(o, l) in &runs {
                        let (a, b) = (&sbuf.params()[o..o + l], &dbuf.params()[o..o + l]);
                        prop_assert_eq!(bits(a), bits(b), "run ({}, {}), op {}", o, l, step);
                    }
                }
                8 => {
                    let (mut a, mut b) = (PullBuffer::new(), PullBuffer::new());
                    prop_assert_eq!(sparse.pull_into(&mut a).unwrap(), dense.pull_into(&mut b).unwrap());
                    prop_assert_eq!(bits(a.params()), bits(b.params()), "commit, op {}", step);
                    prop_assert_eq!(a.shard_versions(), b.shard_versions());
                }
                _ => {
                    let grad: Vec<f32> = mask
                        .iter()
                        .map(|&m| if m { value(&mut rng) } else { 0.0 })
                        .collect();
                    for g in 0..ss.shard_count() {
                        let (o, l) = ss.shard_range(g);
                        let (spans, values) = spans_of(&mask, &grad, o, l);
                        let data = UpdateData::Sparse { indices: &spans, rows: &values };
                        let a = ss.apply_shard_update_data(g, data, 0.05, mu);
                        prop_assert_eq!(a, ds.apply_shard_update(g, &grad[o..o + l], 0.05, mu));
                        let a = sparse.apply_shard_update_sparse(g, &spans, &values, 0.05, mu);
                        let b = dense.apply_shard_update(g, &grad[o..o + l], 0.05, mu);
                        prop_assert_eq!(a.unwrap(), b.unwrap(), "clock skew at op {} shard {}", step, g);
                    }
                }
            }
        }
    }

    /// Every request a server executes round-trips byte-exactly through the
    /// codec's own decoders and encoders — those the server endpoint and the
    /// router run — bare, inside `Sequenced`, behind a push in a `Batch`, or
    /// both, with values of arbitrary f32 bit patterns (NaN payloads
    /// included). A cut anywhere and one appended byte are errors, never a
    /// mis-decode (save the one cut that is itself a request: a run pull cut
    /// to its opcode is the bodyless pull). And each request fits the
    /// server it was sized for: an endpoint executes it.
    #[test]
    fn wire_requests_round_trip_through_the_server_decoders(
        n in 2usize..48,
        shards in 1usize..5,
        kind in 0u8..REQUEST_KINDS,
        wrap in 0u8..4,
        bits in proptest::collection::vec(any::<u32>(), 1..32),
        seed in any::<u64>(),
    ) {
        let server = test_server(n, shards);
        let (bytes, _, exempt) = request_frame(kind, wrap, &shard_lens(&server), &bits, seed);
        prop_assert_eq!(reencode_request(&bytes, n), Ok(bytes.clone()), "re-encode drifted");
        for cut in (0..bytes.len()).filter(|&cut| Some(cut) != exempt) {
            prop_assert!(reencode_request(&bytes[..cut], n).is_err(), "cut {}", cut);
        }
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(reencode_request(&long, n).is_err());
        let mut ep = ServerEndpoint::new(server);
        prop_assert!(ep.handle(&bytes, &mut Vec::new()).is_ok(), "endpoint refused {:?}", bytes);
    }

    /// Every reply round-trips byte-exactly through the decoders the router
    /// runs, bare or behind a push ack in a `BatchReply`, values of
    /// arbitrary bits included; a cut anywhere and an appended byte are
    /// errors. A `Pulled` image also scatters exactly through the run
    /// decoder and passes the check that lets it wait undecoded.
    #[test]
    fn wire_replies_round_trip_through_the_client_decoders(
        kind in 0u8..REPLY_KINDS,
        batch in any::<bool>(),
        bits in proptest::collection::vec(any::<u32>(), 0..48),
        clocks in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        let bytes = reply_frame(kind, batch, &bits, &clocks);
        let (values, n_clocks) = (bits.len(), clocks.len());
        prop_assert_eq!(reencode_reply(&bytes, values, n_clocks), Ok(bytes.clone()));
        for cut in 0..bytes.len() {
            prop_assert!(reencode_reply(&bytes[..cut], values, n_clocks).is_err(), "cut {}", cut);
        }
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(reencode_reply(&long, values, n_clocks).is_err());
        if kind == 1 && !batch {
            prop_assert_eq!(wire::expect_pulled(&bytes, values, n_clocks), Ok(()));
            // Two runs around a hole the reply never writes.
            let split = values / 2;
            let runs = [(0, split), (split + 1, values - split)];
            let mut params = vec![f32::from_bits(7); values + 1];
            let mut clocks_out = vec![0u64; n_clocks];
            prop_assert!(
                wire::decode_pulled_runs_into(&bytes, runs.into_iter(), &mut params, &mut clocks_out)
                    .is_ok()
            );
            let mut expect: Vec<u32> = bits.clone();
            expect.insert(split, 7);
            prop_assert_eq!(params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(), expect);
            prop_assert_eq!(clocks_out, clocks);
        }
    }

    /// A malformed request never panics the server or half-applies. Each
    /// case starts from a well-formed request of any opcode — bare, inside
    /// `Sequenced`, behind a push in a `Batch`, or both — and breaks it: a
    /// cut anywhere, bytes appended, or one of its shard, length or count
    /// fields overwritten with an arbitrary `u32`. `ServerEndpoint::handle`
    /// must return, and when it refuses, the server's live parameters,
    /// velocity, shard clocks and committed view are bit-identical to what
    /// they were.
    #[test]
    fn malformed_requests_change_nothing_on_the_server(
        n in 2usize..48,
        shards in 1usize..5,
        kind in 0u8..REQUEST_KINDS,
        wrap in 0u8..4,
        mutation in 0u8..3,
        at in any::<u32>(),
        value in any::<u32>(),
        extra in proptest::collection::vec(any::<u8>(), 1..9),
        bits in proptest::collection::vec(any::<u32>(), 1..32),
        seed in any::<u64>(),
    ) {
        let server = test_server(n, shards);
        let mut ep = ServerEndpoint::new(Arc::clone(&server));
        let mut reply = Vec::new();
        // Live velocity, and a committed view one push behind.
        let mut first = Vec::new();
        wire::encode_push_shard(&mut first, 0, 0.5, 0.9, &vec![1.0; shard_lens(&server)[0]]);
        ep.handle(&first, &mut reply).expect("a well-formed push");
        let (mut bytes, fields, _) = request_frame(kind, wrap, &shard_lens(&server), &bits, seed);
        match mutation {
            0 => bytes.truncate(at as usize % bytes.len()),
            1 => bytes.extend_from_slice(&extra),
            _ if fields.is_empty() => bytes.truncate(at as usize % bytes.len()),
            _ => {
                let f = fields[at as usize % fields.len()];
                bytes[f..f + 4].copy_from_slice(&value.to_le_bytes());
            }
        }
        let before = server_state(&server);
        if ep.handle(&bytes, &mut reply).is_err() {
            prop_assert_eq!(server_state(&server), before, "refused {:?}", bytes);
        }
    }
}
