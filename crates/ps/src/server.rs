//! A single parameter-server instance owning a disjoint subset of shards.
//!
//! The multi-server tier splits the [`crate::store::ShardLayout`] across N
//! [`PsServer`]s; each server is authoritative for its owned shards and
//! keeps two copies of them, implementing the OSP-style two-stage protocol
//! (arXiv:2306.16926) at server granularity:
//!
//! * **live** — stage-1 state. Worker pushes routed here by the
//!   [`crate::NetRouter`] apply immediately under the shard lock, exactly
//!   like the single-server store; the live shard clocks count applies.
//! * **committed** — stage-2 state, what workers pull. A reconciliation
//!   round copies each owned shard's live parameters (and clock) into the
//!   committed store — the blocks some update has written, nothing else —
//!   so a pull observes a consistent recently-published view of every
//!   server without racing stage-1 applies on remote shards.
//!
//! The gap between a shard's live and committed clock is its *cross-server
//! staleness contribution*: how many stage-1 applies the rest of the
//! cluster has not yet seen. The router bounds it by running a round every
//! `sync_every` pushes (BSP drains it at every barrier round).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use sync_switch_telemetry::{ServerStats, ServerStatsSnapshot};

use crate::store::{ShardLayout, ShardedStore, UpdateData};

/// Allocator for server instance nonces and client ids. Seeded from
/// wall-clock nanos XOR the pid so two *processes* draw different values,
/// then bumped per draw so an in-process revive, or another connection
/// slot, does too. A server's dedup table is keyed by client id, so two
/// `ps-worker` processes must never share one.
static NONCES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn next_nonce() -> u64 {
    let seeded = NONCES.load(Ordering::Relaxed);
    if seeded == 0 {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        let seed = (nanos ^ (u64::from(std::process::id()) << 32)) | 1;
        // A racing first construction just means both threads try the CAS;
        // whichever wins seeds the counter, the loser re-reads it.
        let _ = NONCES.compare_exchange(0, seed, Ordering::Relaxed, Ordering::Relaxed);
    }
    NONCES.fetch_add(1, Ordering::Relaxed)
}

/// Per-client deduplication state for sequenced (idempotent re-send)
/// requests: the last sequence number executed and the reply it produced,
/// replayed verbatim on a duplicate.
#[derive(Debug, Default)]
pub(crate) struct SeqEntry {
    /// Sequence number of the last executed mutating request, if any.
    pub(crate) last: Option<u32>,
    /// Cached reply payload of that request.
    pub(crate) reply: Vec<u8>,
}

/// Most clients the dedup table remembers. Every worker connection slot
/// is a client. A trainer keeps its workers' slots across segments, but a
/// `ps-serve` outlives the `ps-worker` processes that connect to it, their
/// crash retries and every restore (each starts its workers on new slots),
/// so a long-lived server still sees an unbounded stream of ids; only the
/// ones that may still re-send matter, and those are the recent ones.
pub(crate) const SEQ_DEDUP_CAP: usize = 1024;

/// The sequenced-request dedup table: client id → entry, with the tick of
/// the entry's last lookup for least-recently-used eviction.
#[derive(Debug, Default)]
struct SeqTable {
    slots: HashMap<u64, (Arc<Mutex<SeqEntry>>, u64)>,
    tick: u64,
}

/// One parameter server: authoritative (live + committed) state for a
/// contiguous run of global shards.
#[derive(Debug)]
pub struct PsServer {
    id: usize,
    /// First global shard id owned by this server.
    shard_offset: usize,
    /// `(offset, len)` of the owned slice of the flat parameter vector.
    param_range: (usize, usize),
    /// Instance identity: unique per constructed server, across processes.
    /// A client seeing the nonce change at a fixed address knows the server
    /// was replaced (respawn or revive) and its state reset.
    nonce: u64,
    /// Stage-1 state: applies land here immediately.
    live: ShardedStore,
    /// Stage-2 state: the committed view workers pull.
    committed: ShardedStore,
    /// Sequenced-request dedup table, keyed by client id. Lives on the
    /// server (not the per-connection endpoint) so a retry arriving on a
    /// *fresh* connection still deduplicates against the original send.
    /// Holds at most [`SEQ_DEDUP_CAP`] clients.
    seq_dedup: Mutex<SeqTable>,
    /// Request accounting (per-opcode counts, payload bytes, dedup hits,
    /// apply timing), recorded by every connection handler and shipped to
    /// scrapers over the `Stats` wire frame. Per instance: a revived
    /// replacement starts counting from zero, like its state.
    stats: ServerStats,
}

impl PsServer {
    /// Creates server `id` owning global shards
    /// `shard_offset..shard_offset + owned_shards` of `global`, initialized
    /// from the full flat vector `initial`.
    ///
    /// # Panics
    ///
    /// Panics if the owned shard range is out of bounds for the layout or
    /// `initial` does not match the layout's extent.
    pub fn new(
        id: usize,
        global: &ShardLayout,
        shard_offset: usize,
        owned_shards: usize,
        initial: &[f32],
    ) -> Self {
        assert_eq!(initial.len(), global.total(), "initial length mismatch");
        assert!(
            shard_offset + owned_shards <= global.len(),
            "owned shards out of range"
        );
        assert!(owned_shards > 0, "server {id} owns no shards");
        let param_offset = global.range(shard_offset).0;
        let param_len: usize = (shard_offset..shard_offset + owned_shards)
            .map(|g| global.range(g).1)
            .sum();
        let slice = &initial[param_offset..param_offset + param_len];
        let live = ShardedStore::new(slice, owned_shards);
        // ShardLayout's near-equal split is self-similar for contiguous
        // runs, so the local boundaries coincide with the global ones.
        debug_assert!((0..owned_shards).all(|k| {
            let (lo, ll) = live.shard_range(k);
            let (go, gl) = global.range(shard_offset + k);
            param_offset + lo == go && ll == gl
        }));
        PsServer {
            id,
            shard_offset,
            param_range: (param_offset, param_len),
            nonce: next_nonce(),
            committed: ShardedStore::new(slice, owned_shards),
            live,
            seq_dedup: Mutex::new(SeqTable::default()),
            stats: ServerStats::new(owned_shards),
        }
    }

    /// This client's dedup entry, created on first use. The returned arc is
    /// locked *across* the execution of a sequenced request, serializing a
    /// retry against a still-running original so the apply cannot land
    /// twice.
    ///
    /// A new client beyond [`SEQ_DEDUP_CAP`] evicts the least recently
    /// looked-up entry that no connection handler holds (handlers keep the
    /// arc of the client they serve and stop looking it up, so a held arc —
    /// not the tick — is what marks a connected client as live). Only when
    /// every entry is held does the oldest held one go; its handler keeps
    /// deduplicating on its own arc, and just a re-send over a *new*
    /// connection would miss.
    pub(crate) fn seq_entry(&self, client: u64) -> Arc<Mutex<SeqEntry>> {
        let table = &mut *self.seq_dedup.lock();
        table.tick += 1;
        if let Some((entry, used)) = table.slots.get_mut(&client) {
            *used = table.tick;
            return Arc::clone(entry);
        }
        if table.slots.len() >= SEQ_DEDUP_CAP {
            let victim = table
                .slots
                .iter()
                .min_by_key(|(_, (entry, used))| (Arc::strong_count(entry) > 1, *used))
                .map(|(&client, _)| client)
                .expect("a table at capacity is not empty");
            table.slots.remove(&victim);
        }
        let entry = Arc::<Mutex<SeqEntry>>::default();
        table.slots.insert(client, (Arc::clone(&entry), table.tick));
        entry
    }

    /// Number of clients the dedup table currently remembers.
    #[cfg(test)]
    pub(crate) fn seq_clients(&self) -> usize {
        self.seq_dedup.lock().slots.len()
    }

    /// This server's id (its index in the router's server list).
    pub fn id(&self) -> usize {
        self.id
    }

    /// This instance's nonce (see [`crate::transport::wire::ServerInfo`]):
    /// distinct for every constructed server, including a revived or
    /// respawned replacement at the same address.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Number of shards this server owns.
    pub fn shard_count(&self) -> usize {
        self.live.shard_count()
    }

    /// First global shard id owned by this server.
    pub fn shard_offset(&self) -> usize {
        self.shard_offset
    }

    /// `(offset, len)` of the owned slice of the flat parameter vector.
    pub fn param_range(&self) -> (usize, usize) {
        self.param_range
    }

    /// The stage-1 (live) store — the authoritative state for snapshots,
    /// checkpoint restore, and divergence checks.
    pub fn live(&self) -> &ShardedStore {
        &self.live
    }

    /// This instance's request accounting.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// A point-in-time copy of the request accounting, stamped with this
    /// server's id — what the `Stats` wire frame replies with.
    pub fn stats_snapshot(&self) -> ServerStatsSnapshot {
        self.stats.snapshot(self.id as u32)
    }

    /// Stage-1 apply: momentum-SGD update on owned shard `local` (this
    /// server's indexing; global shard `shard_offset + local`). Returns the
    /// live shard clock before the apply, as
    /// [`ShardedStore::apply_shard_update`] does.
    pub fn apply_local(&self, local: usize, grad: &[f32], lr: f64, momentum: f64) -> u64 {
        self.live.apply_shard_update(local, grad, lr, momentum)
    }

    /// Stage-1 apply of an [`UpdateData`] payload (dense or sparse) on
    /// owned shard `local` — the entry point the wire endpoints and the
    /// router's sparse push route through. Same clock contract as
    /// [`PsServer::apply_local`].
    pub fn apply_local_data(
        &self,
        local: usize,
        data: UpdateData<'_>,
        lr: f64,
        momentum: f64,
    ) -> u64 {
        self.live.apply_shard_update_data(local, data, lr, momentum)
    }

    /// Stage-2 commit of every owned shard: each publishes its live
    /// parameters and clock to the committed store in one copy, under both
    /// shard locks (see [`ShardedStore::commit_shard_to`]).
    pub fn commit_all(&self) {
        for local in 0..self.shard_count() {
            self.live.commit_shard_to(local, &self.committed);
        }
    }

    /// Pulls the committed view of the owned slice directly into the
    /// caller's slices (the router points these at the worker's flat
    /// buffer, so assembly costs a single copy). The clocks written are
    /// the committed clocks — live clocks at the last reconciliation.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ from the owned parameter count /
    /// shard count.
    pub fn pull_committed_into(&self, params_out: &mut [f32], clocks_out: &mut [u64]) {
        self.committed.pull_into_slices(params_out, clocks_out);
    }

    /// Pulls only `runs` of the committed view: the values of every piece
    /// of the sorted, disjoint `(offset, len)` `runs` that falls in this
    /// server's slice go to `sink(position, values)`, and the committed
    /// clocks of *all* owned shards to `clocks_out`. Positions are in the
    /// runs' coordinates, in which this server's first parameter sits at
    /// `base` (its flat offset for global runs, 0 for server-local ones) —
    /// see [`ShardedStore::read_runs`].
    pub fn pull_committed_runs(
        &self,
        runs: &[(usize, usize)],
        base: usize,
        clocks_out: &mut [u64],
        sink: impl FnMut(usize, &[f32]),
    ) {
        self.committed.read_runs(runs, base, clocks_out, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_owns_aligned_slice() {
        let initial: Vec<f32> = (0..23).map(|i| i as f32).collect();
        let global = ShardLayout::new(23, 5);
        // Two servers: 3 + 2 shards.
        let a = PsServer::new(0, &global, 0, 3, &initial);
        let b = PsServer::new(1, &global, 3, 2, &initial);
        assert_eq!(a.shard_count(), 3);
        assert_eq!(b.shard_count(), 2);
        let (ao, al) = a.param_range();
        let (bo, bl) = b.param_range();
        assert_eq!(ao, 0);
        assert_eq!(ao + al, bo);
        assert_eq!(bo + bl, 23);
        assert_eq!(a.live().snapshot_params(), initial[ao..ao + al]);
        assert_eq!(b.live().snapshot_params(), initial[bo..bo + bl]);
    }

    #[test]
    fn commit_publishes_live_state_and_clock() {
        let initial = vec![1.0f32; 12];
        let global = ShardLayout::new(12, 4);
        let server = PsServer::new(0, &global, 0, 4, &initial);
        let (_, len) = server.live().shard_range(2);
        server.apply_local(2, &vec![1.0; len], 0.5, 0.0);
        // Stage 1 landed on live, the committed view still lags.
        assert_eq!(server.live().shard_version(2), 1);
        let mut params = vec![0.0f32; 12];
        let mut clocks = vec![0u64; 4];
        server.pull_committed_into(&mut params, &mut clocks);
        assert_eq!(params, initial);
        assert_eq!(clocks[2], 0);
        // Stage 2 publishes data and clock together.
        server.commit_all();
        server.pull_committed_into(&mut params, &mut clocks);
        assert_eq!(clocks[2], 1);
        assert_eq!(params, server.live().snapshot_params());
    }
}
