//! The shard router: fans worker pushes and pulls across a tier of
//! [`PsServer`]s and drives the stage-2 reconciliation rounds.
//!
//! Ownership is itself a [`ShardLayout`]: partitioning `0..shards` across
//! `servers` gives each server a contiguous run of global shard ids (and
//! therefore a contiguous slice of the flat parameter vector). A push for
//! shard `g` goes to `owner_of(g)` and applies immediately on that server's
//! live store (stage 1). A pull assembles the *committed* view of every
//! server directly into the worker's flat buffer — one parameter copy,
//! zero allocations steady-state. Every `sync_every` completed pushes, the
//! pushing worker runs a reconciliation round (stage 2) that publishes each
//! owner's live shards — parameters and clocks together — into its
//! committed store, bounding how far any server's published view can trail
//! its live state.
//!
//! The [`WorkerPort`] enum lets the engine's worker loops drive either this
//! router or the single-server [`ShardedStore`] through one interface, so
//! BSP/ASP/SSP share their loops across topologies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::config::ServerTopology;
use crate::server::PsServer;
use crate::store::{PullBuffer, ShardLayout, ShardedStore, UpdateData};
use crate::transport::NetPort;

/// A multi-server parameter-server tier: N owners behind one routing layer.
#[derive(Debug)]
pub struct ShardRouter {
    servers: Vec<PsServer>,
    /// Global parameter layout (shard id → flat range).
    layout: ShardLayout,
    /// Global shard id → owning server index.
    owner: Vec<usize>,
    /// Completed pushes — the cluster-global version clock.
    version: AtomicU64,
    /// Stage-2 period in completed pushes.
    sync_every: u64,
    /// Completed stage-2 rounds (drains included) — diagnostics only.
    rounds: AtomicU64,
    /// Global version observed at the start of the last stage-2 round —
    /// the scheduling watermark: a round is due once `version` is
    /// `sync_every` past it. Kept separate from `rounds` so drains (BSP
    /// barriers, switches) advance the schedule to "now" instead of
    /// postponing the next periodic round.
    synced_version: AtomicU64,
    /// Serializes stage-2 rounds; holds the reusable copy scratch.
    sync: Mutex<Vec<f32>>,
}

impl ShardRouter {
    /// Creates a router over `initial` split into `shards` shards owned by
    /// `topology.servers` servers (both clamped as needed so no server or
    /// shard is empty).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, `shards == 0`, or the topology is
    /// invalid (see [`ServerTopology::validate`]).
    pub fn new(initial: &[f32], shards: usize, topology: ServerTopology) -> Self {
        assert!(!initial.is_empty(), "cannot shard zero parameters");
        assert!(shards > 0, "need at least one shard");
        if let Err(msg) = topology.validate() {
            panic!("invalid topology: {msg}");
        }
        let layout = ShardLayout::new(initial.len(), shards);
        let ownership = ShardLayout::new(layout.len(), topology.servers);
        let mut owner = vec![0usize; layout.len()];
        let servers: Vec<PsServer> = (0..ownership.len())
            .map(|s| {
                let (first, count) = ownership.range(s);
                owner[first..first + count].iter_mut().for_each(|o| *o = s);
                PsServer::new(s, &layout, first, count, initial)
            })
            .collect();
        ShardRouter {
            servers,
            layout,
            owner,
            version: AtomicU64::new(0),
            sync_every: topology.sync_every.max(1),
            rounds: AtomicU64::new(0),
            synced_version: AtomicU64::new(0),
            sync: Mutex::new(Vec::new()),
        }
    }

    /// Number of servers (after clamping to the shard count).
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The server instances, in id order.
    pub fn servers(&self) -> &[PsServer] {
        &self.servers
    }

    /// Total number of parameters.
    pub fn param_count(&self) -> usize {
        self.layout.total()
    }

    /// Number of global shards.
    pub fn shard_count(&self) -> usize {
        self.layout.len()
    }

    /// `(offset, len)` of global shard `g` in the flat vector.
    pub fn shard_range(&self, g: usize) -> (usize, usize) {
        self.layout.range(g)
    }

    /// The server owning global shard `g`.
    pub fn owner_of(&self, g: usize) -> usize {
        self.owner[g]
    }

    /// Stage-2 period in completed pushes.
    pub fn sync_every(&self) -> u64 {
        self.sync_every
    }

    /// Cluster-global version: number of completed pushes.
    pub fn version(&self) -> u64 {
        // Acquire: pairs with the Release bump in `complete_push`.
        self.version.load(Ordering::Acquire)
    }

    /// Completed stage-2 reconciliation rounds.
    pub fn sync_rounds(&self) -> u64 {
        self.rounds.load(Ordering::Acquire)
    }

    /// Stage-1 apply: routes the gradient slice for global shard `g` to its
    /// owner and applies it on the live store. Returns the owner's live
    /// shard clock before the apply (see
    /// [`ShardedStore::apply_shard_update`]).
    pub fn apply_shard_update(&self, g: usize, grad: &[f32], lr: f64, momentum: f64) -> u64 {
        let server = &self.servers[self.owner[g]];
        server.apply_local(g - server.shard_offset(), grad, lr, momentum)
    }

    /// Stage-1 apply of an [`UpdateData`] payload for global shard `g`:
    /// routed to the owner like the dense path, with identical clock and
    /// staleness semantics (a sparse payload is numerically a dense push of
    /// the segments scattered into a zero gradient).
    pub fn apply_shard_update_data(
        &self,
        g: usize,
        data: UpdateData<'_>,
        lr: f64,
        momentum: f64,
    ) -> u64 {
        let server = &self.servers[self.owner[g]];
        server.apply_local_data(g - server.shard_offset(), data, lr, momentum)
    }

    /// Completes a logical push: bumps the global version and returns the
    /// push's staleness relative to `pulled_version` (race-free, from the
    /// `fetch_add` return value — as the single store does).
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        // Release: pairs with the Acquire loads in `version`/`pull_into`.
        self.version
            .fetch_add(1, Ordering::Release)
            .saturating_sub(pulled_version)
    }

    /// Runs a stage-2 round if the push counter has moved `sync_every`
    /// past the last round's watermark. Called by the asynchronous worker
    /// loops after each completed push: the worker whose push crosses the
    /// boundary performs the round; concurrent callers serialize on the
    /// round lock, and whoever runs a round advances the watermark to the
    /// version it observed, so rounds that became redundant while waiting
    /// are skipped rather than replayed.
    pub fn reconcile_if_due(&self) {
        loop {
            let synced = self.synced_version.load(Ordering::Acquire);
            if self.version() < synced.saturating_add(self.sync_every) {
                return;
            }
            let mut scratch = self.sync.lock();
            // Re-check under the lock: a concurrent worker may have run a
            // round while we waited. Loop rather than return — the counter
            // may already be a full period past the new watermark too.
            if self.synced_version.load(Ordering::Acquire) != synced {
                continue;
            }
            self.commit_round(&mut scratch);
        }
    }

    /// Drains the stage-2 pipeline: waits out any in-flight round, then
    /// unconditionally commits every shard so the committed view equals the
    /// live view. Used by the BSP barrier (every round), the switcher
    /// (before checkpointing a protocol switch), and restore. Advances the
    /// periodic watermark to the current version, so a drain never
    /// postpones (nor hastens) the next due round relative to the pushes
    /// that follow it.
    pub fn drain(&self) {
        let mut scratch = self.sync.lock();
        self.commit_round(&mut scratch);
    }

    /// One stage-2 round, caller holding the round lock: commits every
    /// owned shard on every server and advances the watermark to the
    /// version read at the start of the round (conservative — the commits
    /// include at least every apply published by those pushes).
    fn commit_round(&self, scratch: &mut Vec<f32>) {
        let observed = self.version();
        for server in &self.servers {
            server.commit_all(scratch);
        }
        self.rounds.fetch_add(1, Ordering::Release);
        // Release: publishes the committed stores' writes (ordered by
        // their shard locks) together with the watermark.
        self.synced_version.store(observed, Ordering::Release);
    }

    /// Assembles the committed view of all servers into `buf` and returns
    /// the version of the pulled data. Zero heap allocations after the
    /// first call, and a single copy of the parameter vector: each server
    /// writes its committed shards directly into the flat buffer.
    ///
    /// The returned (and recorded) version is the **effective data
    /// version** — the oldest committed shard clock, floored by the live
    /// push counter — not the live counter itself. The parameters pulled
    /// here are the committed view, which can trail the counter by up to a
    /// stage-2 period; measuring push staleness against the counter would
    /// report a worker training on `sync_every`-stale data as perfectly
    /// fresh. Against the data version, the global staleness histogram and
    /// the per-shard records agree.
    pub fn pull_committed_into(&self, buf: &mut RouterBuffer) -> u64 {
        self.pull_committed_runs_into(buf, &[(0, self.param_count())])
    }

    /// [`ShardRouter::pull_committed_into`] for a step that reads only
    /// `runs` — sorted, disjoint `(offset, len)` ranges of the flat vector:
    /// each server copies just the pieces it owns, positions outside the
    /// runs keep whatever `buf` held, and every shard's committed clock
    /// (hence the returned effective version) is recorded exactly as a full
    /// pull records it.
    pub fn pull_committed_runs_into(&self, buf: &mut RouterBuffer, runs: &[(usize, usize)]) -> u64 {
        // Acquire: see `version`.
        let version = self.version.load(Ordering::Acquire);
        buf.params.resize(self.param_count(), 0.0);
        buf.shard_versions.resize(self.shard_count(), 0);
        let params = &mut buf.params;
        for server in &self.servers {
            let so = server.shard_offset();
            server.pull_committed_runs(
                runs,
                server.param_range().0,
                &mut buf.shard_versions[so..so + server.shard_count()],
                |at, values| params[at..at + values.len()].copy_from_slice(values),
            );
        }
        // Every push applies to every shard exactly once, so a committed
        // shard clock counts the pushes published for that shard; the
        // oldest clock is the version of the stalest data in the image.
        // In-flight applies can push clocks past the completed-push
        // counter, hence the floor.
        let effective = buf
            .shard_versions
            .iter()
            .copied()
            .min()
            .unwrap_or(version)
            .min(version);
        buf.version = effective;
        effective
    }

    /// Snapshot of the full live parameter vector (authoritative state).
    /// Each server's slice is copied in place — no per-server temporaries,
    /// which matters because the switcher polls `Trainer::training_loss`
    /// (and therefore this) in its decision loop.
    pub fn snapshot_params(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.param_count()];
        for server in &self.servers {
            let (po, pl) = server.param_range();
            server.live().snapshot_params_into(&mut out[po..po + pl]);
        }
        out
    }

    /// Snapshot of the full live velocity vector (assembled in place, as
    /// [`ShardRouter::snapshot_params`]).
    pub fn snapshot_velocity(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.param_count()];
        for server in &self.servers {
            let (po, pl) = server.param_range();
            server.live().snapshot_velocity_into(&mut out[po..po + pl]);
        }
        out
    }

    /// Overwrites live parameters and velocity from a checkpoint, then
    /// drains so the committed view matches.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the parameter count.
    pub fn restore(&self, params: &[f32], velocity: &[f32]) {
        assert_eq!(params.len(), self.param_count(), "params length mismatch");
        assert_eq!(
            velocity.len(),
            self.param_count(),
            "velocity length mismatch"
        );
        for server in &self.servers {
            let (po, pl) = server.param_range();
            server
                .live()
                .restore(&params[po..po + pl], &velocity[po..po + pl]);
        }
        self.drain();
    }

    /// Resets the live velocity to zero on every server.
    pub fn reset_velocity(&self) {
        for server in &self.servers {
            server.live().reset_velocity();
        }
    }

    /// Whether every live parameter is finite.
    pub fn is_finite(&self) -> bool {
        self.servers.iter().all(|s| s.live().is_finite())
    }
}

/// Reusable pull destination for the multi-server path: the assembled flat
/// committed image, the committed clock per global shard, and the
/// effective data version.
#[derive(Debug, Default)]
pub struct RouterBuffer {
    pub(crate) params: Vec<f32>,
    pub(crate) shard_versions: Vec<u64>,
    pub(crate) version: u64,
}

impl RouterBuffer {
    /// Creates an empty buffer; the first pull sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The assembled flat parameter vector from the last pull.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Global version observed at the start of the last pull.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Committed clocks of every global shard observed during the pull.
    pub fn shard_versions(&self) -> &[u64] {
        &self.shard_versions
    }
}

/// A worker's pull destination for either topology. Constructed by
/// [`WorkerPort::new_buffer`]; the variant always matches the port.
#[derive(Debug)]
pub enum PortBuffer {
    /// Single-server: the store's own zero-alloc buffer.
    Single(PullBuffer),
    /// Multi-server (in-process or transport-backed): the assembled
    /// committed view.
    Routed(RouterBuffer),
}

impl PortBuffer {
    /// The pulled flat parameter vector.
    pub fn params(&self) -> &[f32] {
        match self {
            PortBuffer::Single(b) => b.params(),
            PortBuffer::Routed(b) => &b.params,
        }
    }

    /// Global version observed at the start of the pull.
    pub fn version(&self) -> u64 {
        match self {
            PortBuffer::Single(b) => b.version(),
            PortBuffer::Routed(b) => b.version,
        }
    }

    /// Clock of global shard `g` observed during the pull (live clock on
    /// the single store; committed clock through the router).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range for the last pulled plane.
    pub fn shard_version(&self, g: usize) -> u64 {
        match self {
            PortBuffer::Single(b) => b.shard_version(g),
            PortBuffer::Routed(b) => b.shard_versions[g],
        }
    }
}

/// A worker thread's handle onto the data plane: the single in-process
/// store, or the multi-server router. The engine's BSP/ASP/SSP loops are
/// written against this interface once and run on both topologies.
#[derive(Debug, Clone)]
pub enum WorkerPort {
    /// Direct handle to the single-server store (the PR 2 fast path —
    /// pulls read live state, no stage-2 indirection).
    Single(Arc<ShardedStore>),
    /// Handle through the in-process shard router.
    Routed(Arc<ShardRouter>),
    /// Handle through a transport-backed router: every push/pull/sync
    /// crosses the wire protocol. Cloning the port gives the new worker
    /// its own connections (connection-per-worker).
    Net(NetPort),
}

impl WorkerPort {
    /// A pull buffer of the matching variant (the transport-backed port
    /// assembles the same committed view the in-process router does, so
    /// both share the routed buffer).
    pub fn new_buffer(&self) -> PortBuffer {
        match self {
            WorkerPort::Single(_) => PortBuffer::Single(PullBuffer::new()),
            WorkerPort::Routed(_) | WorkerPort::Net(_) => PortBuffer::Routed(RouterBuffer::new()),
        }
    }

    /// Number of global shards.
    pub fn shard_count(&self) -> usize {
        match self {
            WorkerPort::Single(s) => s.shard_count(),
            WorkerPort::Routed(r) => r.shard_count(),
            WorkerPort::Net(p) => p.router().shard_count(),
        }
    }

    /// `(offset, len)` of global shard `g` in the flat vector.
    pub fn shard_range(&self, g: usize) -> (usize, usize) {
        match self {
            WorkerPort::Single(s) => s.shard_range(g),
            WorkerPort::Routed(r) => r.shard_range(g),
            WorkerPort::Net(p) => p.router().shard_range(g),
        }
    }

    /// Number of servers behind this port (1 for the single store).
    pub fn server_count(&self) -> usize {
        match self {
            WorkerPort::Single(_) => 1,
            WorkerPort::Routed(r) => r.server_count(),
            WorkerPort::Net(p) => p.router().server_count(),
        }
    }

    /// The server owning global shard `g` (0 for the single store).
    pub fn owner_of(&self, g: usize) -> usize {
        match self {
            WorkerPort::Single(_) => 0,
            WorkerPort::Routed(r) => r.owner_of(g),
            WorkerPort::Net(p) => p.router().owner_of(g),
        }
    }

    /// Pulls the worker-visible parameter image into `buf` and returns the
    /// global version observed at the start of the pull.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was created by a port of the other variant.
    pub fn pull_into(&self, buf: &mut PortBuffer) -> u64 {
        match (self, buf) {
            (WorkerPort::Single(s), PortBuffer::Single(b)) => s.pull_into(b),
            (WorkerPort::Routed(r), PortBuffer::Routed(b)) => r.pull_committed_into(b),
            (WorkerPort::Net(p), PortBuffer::Routed(b)) => p.pull_into(b),
            _ => panic!("pull buffer does not match the port topology"),
        }
    }

    /// [`WorkerPort::pull_into`] for a step that reads only `runs` —
    /// sorted, disjoint `(offset, len)` ranges of the flat vector, as
    /// `Network::param_read_runs_into` reports them. Only those ranges are
    /// copied (and, on a transport-backed plane, only they cross the wire);
    /// positions outside them keep whatever `buf` held. The returned
    /// version and every shard clock in `buf` are what a full pull at the
    /// same moment would have recorded.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was created by a port of the other variant.
    pub fn pull_runs_into(&self, buf: &mut PortBuffer, runs: &[(usize, usize)]) -> u64 {
        match (self, buf) {
            (WorkerPort::Single(s), PortBuffer::Single(b)) => s.pull_runs_into(b, runs),
            (WorkerPort::Routed(r), PortBuffer::Routed(b)) => r.pull_committed_runs_into(b, runs),
            (WorkerPort::Net(p), PortBuffer::Routed(b)) => p.pull_runs_into(b, runs),
            _ => panic!("pull buffer does not match the port topology"),
        }
    }

    /// Stage-1 apply of the gradient slice for global shard `g`; returns the
    /// owner's live shard clock before the apply.
    pub fn apply_shard_update(&self, g: usize, grad: &[f32], lr: f64, momentum: f64) -> u64 {
        match self {
            WorkerPort::Single(s) => s.apply_shard_update(g, grad, lr, momentum),
            WorkerPort::Routed(r) => r.apply_shard_update(g, grad, lr, momentum),
            WorkerPort::Net(p) => p.apply_shard_update(g, grad, lr, momentum),
        }
    }

    /// Stage-1 sparse apply for global shard `g`: only the `(start, len)`
    /// segments in `indices` carry gradient (`rows`); the rest of the shard
    /// takes the zero-gradient momentum step. In-process planes apply the
    /// payload directly ([`UpdateData::Sparse`]); a transport-backed plane
    /// ships it as a `PushShardSparse` frame, which is where the payload
    /// saving becomes real wire bytes. Clock semantics match the dense
    /// apply exactly.
    pub fn apply_shard_update_sparse(
        &self,
        g: usize,
        indices: &[(u32, u32)],
        rows: &[f32],
        lr: f64,
        momentum: f64,
    ) -> u64 {
        match self {
            WorkerPort::Single(s) => {
                s.apply_shard_update_data(g, UpdateData::Sparse { indices, rows }, lr, momentum)
            }
            WorkerPort::Routed(r) => {
                r.apply_shard_update_data(g, UpdateData::Sparse { indices, rows }, lr, momentum)
            }
            WorkerPort::Net(p) => p.apply_shard_update_sparse(g, indices, rows, lr, momentum),
        }
    }

    /// Queues the stage-1 apply of `grad` on global shard `g` — the batched
    /// form of [`WorkerPort::apply_shard_update`]. The in-process planes
    /// apply at once and append the pre-apply shard clock to `acks`; a
    /// transport-backed plane stages the push and sends the pushes queued
    /// for one server together, so `acks` is complete — one clock per
    /// queued push, in queue order — only after
    /// [`WorkerPort::flush_pushes`].
    pub fn queue_shard_update(
        &self,
        g: usize,
        grad: &[f32],
        lr: f64,
        momentum: f64,
        acks: &mut Vec<u64>,
    ) {
        match self {
            WorkerPort::Net(p) => p.queue_shard_update(g, grad, lr, momentum),
            _ => acks.push(self.apply_shard_update(g, grad, lr, momentum)),
        }
    }

    /// Queues a sparse stage-1 apply on global shard `g` — the batched form
    /// of [`WorkerPort::apply_shard_update_sparse`], with the `acks`
    /// contract of [`WorkerPort::queue_shard_update`].
    pub fn queue_shard_update_sparse(
        &self,
        g: usize,
        indices: &[(u32, u32)],
        rows: &[f32],
        lr: f64,
        momentum: f64,
        acks: &mut Vec<u64>,
    ) {
        match self {
            WorkerPort::Net(p) => p.queue_shard_update_sparse(g, indices, rows, lr, momentum),
            _ => acks.push(self.apply_shard_update_sparse(g, indices, rows, lr, momentum)),
        }
    }

    /// Sends every push still queued on a transport-backed plane and
    /// appends their pre-apply shard clocks to `acks` (no-op in-process,
    /// where queueing already applied).
    pub fn flush_pushes(&self, acks: &mut Vec<u64>) {
        if let WorkerPort::Net(p) = self {
            p.flush_pushes(acks);
        }
    }

    /// Completes a logical push and returns its global staleness.
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        match self {
            WorkerPort::Single(s) => s.complete_push(pulled_version),
            WorkerPort::Routed(r) => r.complete_push(pulled_version),
            WorkerPort::Net(p) => p.router().complete_push(pulled_version),
        }
    }

    /// Post-push hook for the asynchronous loops: runs stage-2 rounds the
    /// push counter has made due (no-op on the single store).
    pub fn after_push(&self) {
        match self {
            WorkerPort::Single(_) => {}
            WorkerPort::Routed(r) => r.reconcile_if_due(),
            WorkerPort::Net(p) => p.router().reconcile_if_due(),
        }
    }

    /// End-of-barrier hook for BSP: drains stage 2 so the next round's
    /// pulls see exactly the state this round produced (no-op on the single
    /// store, whose pulls always read live state).
    pub fn end_round(&self) {
        match self {
            WorkerPort::Single(_) => {}
            WorkerPort::Routed(r) => r.drain(),
            WorkerPort::Net(p) => p.router().drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(n: usize, shards: usize, servers: usize, sync_every: u64) -> ShardRouter {
        let initial: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
        ShardRouter::new(&initial, shards, ServerTopology::new(servers, sync_every))
    }

    #[test]
    fn ownership_partitions_shards() {
        let r = router(103, 7, 3, 4);
        assert_eq!(r.server_count(), 3);
        assert_eq!(r.shard_count(), 7);
        // Every shard has exactly one owner and owners hold contiguous runs.
        let mut seen = vec![0usize; r.server_count()];
        for g in 0..r.shard_count() {
            seen[r.owner_of(g)] += 1;
        }
        let total: usize = r.servers().iter().map(PsServer::shard_count).sum();
        assert_eq!(total, r.shard_count());
        for (s, server) in r.servers().iter().enumerate() {
            assert_eq!(seen[s], server.shard_count());
        }
        // Param ranges tile the flat vector.
        let mut offset = 0;
        for server in r.servers() {
            let (po, pl) = server.param_range();
            assert_eq!(po, offset);
            offset += pl;
        }
        assert_eq!(offset, r.param_count());
    }

    #[test]
    fn more_servers_than_shards_clamps() {
        let r = router(16, 2, 5, 1);
        assert_eq!(r.server_count(), 2);
    }

    #[test]
    fn routed_push_equals_single_store_push() {
        let initial: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let single = ShardedStore::new(&initial, 5);
        let routed = ShardRouter::new(&initial, 5, ServerTopology::new(2, 1));
        let grad: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        for step in 0..4 {
            for g in 0..5 {
                let (o, l) = single.shard_range(g);
                assert_eq!(routed.shard_range(g), (o, l));
                single.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                routed.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
            }
            single.complete_push(step);
            routed.complete_push(step);
        }
        assert_eq!(single.version(), routed.version());
        assert_eq!(single.snapshot_params(), routed.snapshot_params());
        assert_eq!(single.snapshot_velocity(), routed.snapshot_velocity());
    }

    #[test]
    fn pulls_see_committed_view_only() {
        let r = router(24, 4, 2, 8);
        let mut buf = RouterBuffer::new();
        let before = {
            r.pull_committed_into(&mut buf);
            buf.params.clone()
        };
        // Stage-1 applies land on live stores; the committed view is
        // unchanged until a round runs.
        for g in 0..r.shard_count() {
            let (_, l) = r.shard_range(g);
            r.apply_shard_update(g, &vec![1.0; l], 0.5, 0.0);
        }
        r.complete_push(0);
        let v = r.pull_committed_into(&mut buf);
        assert_eq!(buf.params, before);
        // The recorded version is the *data* version: the image still
        // predates the push, so staleness measured against it is honest.
        assert_eq!(v, 0, "pulled version must track the committed data");
        assert_eq!(buf.version, 0);
        r.drain();
        let v = r.pull_committed_into(&mut buf);
        assert_eq!(buf.params, r.snapshot_params());
        assert_eq!(v, 1, "drained data is current");
        for g in 0..r.shard_count() {
            assert_eq!(buf.shard_versions[g], 1);
        }
    }

    #[test]
    fn reconcile_if_due_follows_the_period() {
        let r = router(24, 4, 2, 3);
        let push = |r: &ShardRouter| {
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                r.apply_shard_update(g, &vec![1.0; l], 0.1, 0.0);
            }
            let v = r.complete_push(r.version());
            r.reconcile_if_due();
            v
        };
        push(&r);
        push(&r);
        assert_eq!(r.sync_rounds(), 0, "no round before the period");
        push(&r);
        assert_eq!(r.sync_rounds(), 1, "round at the period boundary");
        let mut buf = RouterBuffer::new();
        r.pull_committed_into(&mut buf);
        for g in 0..r.shard_count() {
            assert_eq!(buf.shard_versions[g], 3);
        }
        for _ in 0..3 {
            push(&r);
        }
        assert_eq!(r.sync_rounds(), 2);
    }

    #[test]
    fn drain_does_not_starve_periodic_rounds() {
        // Regression: drains used to advance the same counter the periodic
        // schedule was derived from, so a BSP segment (one drain per
        // barrier round) pushed the next periodic round `sync_every` pushes
        // into the future per drain — a following ASP segment could run
        // with a frozen committed view for its whole length.
        let r = router(24, 4, 2, 3);
        let push = |r: &ShardRouter| {
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                r.apply_shard_update(g, &vec![1.0; l], 0.1, 0.0);
            }
            r.complete_push(r.version());
            r.reconcile_if_due();
        };
        // "BSP segment": 10 rounds, each drained at the barrier.
        for _ in 0..10 {
            push(&r);
            r.drain();
        }
        let after_bsp = r.sync_rounds();
        // "ASP segment": within one period the next round must fire.
        for _ in 0..3 {
            push(&r);
        }
        assert!(
            r.sync_rounds() > after_bsp,
            "periodic rounds starved after drains"
        );
        // And the committed view is fresh to within the period again.
        for server in r.servers() {
            for local in 0..server.shard_count() {
                assert!(server.committed_lag(local) < 3);
            }
        }
    }

    #[test]
    fn router_restore_round_trip() {
        let r = router(30, 6, 3, 2);
        for g in 0..r.shard_count() {
            let (_, l) = r.shard_range(g);
            r.apply_shard_update(g, &vec![1.0; l], 0.1, 0.9);
        }
        r.complete_push(0);
        let params = r.snapshot_params();
        let velocity = r.snapshot_velocity();
        for g in 0..r.shard_count() {
            let (_, l) = r.shard_range(g);
            r.apply_shard_update(g, &vec![5.0; l], 0.1, 0.9);
        }
        assert_ne!(r.snapshot_params(), params);
        r.restore(&params, &velocity);
        assert_eq!(r.snapshot_params(), params);
        assert_eq!(r.snapshot_velocity(), velocity);
        // Restore drains: the committed view matches immediately.
        let mut buf = RouterBuffer::new();
        r.pull_committed_into(&mut buf);
        assert_eq!(buf.params, params);
    }

    #[test]
    fn port_buffer_variants_match_ports() {
        let initial = vec![1.0f32; 16];
        let single = WorkerPort::Single(Arc::new(ShardedStore::new(&initial, 4)));
        let routed = WorkerPort::Routed(Arc::new(ShardRouter::new(
            &initial,
            4,
            ServerTopology::new(2, 1),
        )));
        for port in [&single, &routed] {
            let mut buf = port.new_buffer();
            assert_eq!(port.pull_into(&mut buf), 0);
            assert_eq!(buf.params(), &initial[..]);
            assert_eq!(buf.shard_version(3), 0);
        }
        assert_eq!(single.server_count(), 1);
        assert_eq!(routed.server_count(), 2);
        assert_eq!(single.owner_of(3), 0);
        assert_eq!(routed.owner_of(0), 0);
        assert_eq!(routed.owner_of(3), 1);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_buffer_panics() {
        let initial = vec![1.0f32; 8];
        let single = WorkerPort::Single(Arc::new(ShardedStore::new(&initial, 2)));
        let routed = WorkerPort::Routed(Arc::new(ShardRouter::new(
            &initial,
            2,
            ServerTopology::new(2, 1),
        )));
        let mut buf = single.new_buffer();
        routed.pull_into(&mut buf);
    }
}
