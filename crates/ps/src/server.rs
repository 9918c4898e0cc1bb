//! A single parameter-server instance owning a disjoint subset of shards.
//!
//! The multi-server tier splits its shards across N [`PsServer`]s, each
//! built by [`crate::Tier::server`] for its slice; each server is
//! authoritative for its owned shards and
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
//! cluster has not yet seen. The server bounds it itself: every
//! `sync_every`-th request that carries pushes commits its slice right
//! behind its applies, whichever client sent it ([`PsServer::push_due`]).
//! A `Drain` (BSP's barrier round, a switch, a restore) commits at once and
//! starts the period over. Commits are numbered — the server's *commit
//! epoch* — in the order they completed, and a reply that committed carries
//! the new epoch, which is how clients date what they pulled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use sync_switch_telemetry::{ServerStats, ServerStatsSnapshot};

use crate::router::ServerSlice;
use crate::store::{ShardLayout, ShardedStore, UpdateData};
use crate::transport::ServerInfo;

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
    /// The run of global shards, and slice of the flat parameter vector,
    /// this server owns.
    slice: ServerSlice,
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
    /// Stage-2 period, in requests that carry pushes.
    sync_every: u64,
    /// Requests that carried pushes since the last drain.
    pushes: AtomicU64,
    /// Commits completed, drains included: the commit epoch. Held across a
    /// commit, so epochs number commits in the order they completed.
    epoch: Mutex<u64>,
}

impl PsServer {
    /// Creates server `id` owning `slice` of the `global` layout,
    /// initialized from the full flat vector `initial`, that commits its
    /// slice every `sync_every` requests carrying pushes.
    /// [`crate::Tier::server`] is its one caller, so every server's slice is
    /// the tier's.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not match the layout's extent.
    pub(crate) fn new(
        id: usize,
        global: &ShardLayout,
        slice: ServerSlice,
        initial: &[f32],
        sync_every: u64,
    ) -> Self {
        assert_eq!(initial.len(), global.total(), "initial length mismatch");
        let (param_offset, param_len) = slice.param_range;
        let params = &initial[param_offset..param_offset + param_len];
        let live = ShardedStore::new(params, slice.shard_count);
        // ShardLayout's near-equal split is self-similar for contiguous
        // runs, so the local boundaries coincide with the global ones.
        debug_assert!((0..slice.shard_count).all(|k| {
            let (lo, ll) = live.shard_range(k);
            let (go, gl) = global.range(slice.shard_offset + k);
            param_offset + lo == go && ll == gl
        }));
        PsServer {
            id,
            slice,
            nonce: next_nonce(),
            committed: ShardedStore::new(params, slice.shard_count),
            live,
            seq_dedup: Mutex::new(SeqTable::default()),
            stats: ServerStats::new(slice.shard_count),
            sync_every,
            pushes: AtomicU64::new(0),
            epoch: Mutex::new(0),
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

    /// What this instance answers `Hello` with: its identity, slice and
    /// stage-2 period.
    pub fn info(&self) -> ServerInfo {
        self.slice.info(self.id, self.sync_every, self.nonce)
    }

    /// Number of shards this server owns.
    pub fn shard_count(&self) -> usize {
        self.live.shard_count()
    }

    /// `(offset, len)` of the owned slice of the flat parameter vector.
    pub fn param_range(&self) -> (usize, usize) {
        self.slice.param_range
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

    /// Stage-1 apply: momentum-SGD update of an [`UpdateData`] payload
    /// (dense or sparse) on owned shard `local` (this server's indexing:
    /// local shard 0 is the first global shard of its slice) — the entry
    /// point the wire endpoints route every push through. Returns the live
    /// shard clock before the apply, as [`ShardedStore::apply_shard_update`]
    /// does.
    pub fn apply_local_data(
        &self,
        local: usize,
        data: UpdateData<'_>,
        lr: f64,
        momentum: f64,
    ) -> u64 {
        self.live.apply_shard_update_data(local, data, lr, momentum)
    }

    /// Counts one request that carries pushes; `true` if it is the
    /// `sync_every`-th since the last drain, so it commits
    /// ([`PsServer::commit_all`]) behind its applies, before anything else
    /// it asks is read.
    pub(crate) fn push_due(&self) -> bool {
        // Relaxed: the count publishes nothing; the commit's lock does.
        let n = self.pushes.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(self.sync_every)
    }

    /// Stage-2 commit of every owned shard: each publishes its live
    /// parameters and clock to the committed store in one copy, under both
    /// shard locks (see [`ShardedStore::commit_shard_to`]). A `drain` also
    /// starts the period over. Returns the commit's epoch.
    pub fn commit_all(&self, drain: bool) -> u64 {
        let mut epoch = self.epoch.lock();
        if drain {
            self.pushes.store(0, Ordering::Relaxed);
        }
        for local in 0..self.shard_count() {
            self.live.commit_shard_to(local, &self.committed);
        }
        *epoch += 1;
        *epoch
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
    use crate::router::Tier;

    #[test]
    fn server_owns_aligned_slice() {
        let initial: Vec<f32> = (0..23).map(|i| i as f32).collect();
        // Two servers: 3 + 2 shards.
        let tier = Tier::new(23, 5, 2, 1);
        let (a, b) = (tier.server(0, &initial), tier.server(1, &initial));
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
        let server = Tier::new(12, 4, 1, 2).server(0, &initial);
        let (_, len) = server.live().shard_range(2);
        server.apply_local_data(2, UpdateData::Dense(&vec![1.0; len]), 0.5, 0.0);
        // Stage 1 landed on live, the committed view still lags.
        assert_eq!(server.live().shard_version(2), 1);
        let mut params = vec![0.0f32; 12];
        let mut clocks = vec![0u64; 4];
        server.pull_committed_into(&mut params, &mut clocks);
        assert_eq!(params, initial);
        assert_eq!(clocks[2], 0);
        // Stage 2 publishes data and clock together, and numbers itself.
        assert_eq!(server.commit_all(false), 1);
        server.pull_committed_into(&mut params, &mut clocks);
        assert_eq!(clocks[2], 1);
        assert_eq!(params, server.live().snapshot_params());
    }
}
