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
//! Everything in that paragraph that is *not* "how a request reaches a
//! server" — the ownership map, the push-counter version clock, the stage-2
//! schedule and the effective version of a pulled image — lives once, in
//! [`Tier`], embedded by this in-process router and by the wire-backed
//! [`crate::NetRouter`] alike, so staleness and round scheduling cannot
//! differ between the two.
//!
//! The [`WorkerPort`] enum lets the engine's worker loops drive either
//! router or the single-server [`ShardedStore`] through one interface and
//! one buffer type ([`PullBuffer`]), so BSP/ASP/SSP share their loops across
//! topologies — down to BSP's round, which every plane commits through
//! [`WorkerPort::commit_round`].

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::config::ServerTopology;
use crate::error::PsError;
use crate::server::PsServer;
use crate::store::{PullBuffer, ShardLayout, ShardedStore, UpdateData};
use crate::transport::NetPort;

/// One server's slice of a tier, as every party derives it from the
/// `(param_count, shards, servers)` triple.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServerSlice {
    /// First global shard id owned by the server.
    pub(crate) shard_offset: usize,
    /// Number of owned shards.
    pub(crate) shard_count: usize,
    /// `(offset, len)` of the owned slice of the flat parameter vector.
    pub(crate) param_range: (usize, usize),
}

/// The client-side state of a multi-server tier, shared by every worker of
/// one trainer: who owns which shard, the cluster version clock, and the
/// OSP-style two-stage schedule. What a router adds is only how a
/// commit-all reaches a server and what its round lock guards.
///
/// **Process-local.** "Cluster" here means the workers of this process. The
/// version clock, the stage-2 round counter and watermark — and with them
/// the BSP barrier, the SSP floor and the wire router's prefetch stamps —
/// are atomics in this address space. Several `ps-worker` processes on one
/// `ps-serve` tier each hold their own `Tier`: each counts its own pushes,
/// runs its own round schedule and is BSP among its own threads only, and
/// the processes are asynchronous to one another (ROADMAP item 1).
#[derive(Debug)]
pub(crate) struct Tier {
    /// Global parameter layout (shard id → flat range).
    layout: ShardLayout,
    /// Global shard id → owning server index.
    owner: Vec<usize>,
    /// Per server, the contiguous run of shards and parameters it owns.
    slices: Vec<ServerSlice>,
    /// Completed pushes — the version clock (of this process's workers).
    version: AtomicU64,
    /// Tickets of the pushes a wire tier's flushes have begun to send: each
    /// flush takes the next one, and a round raises it to the version it
    /// observed, so it never trails pushes sent some other way.
    sent: AtomicU64,
    /// Stage-2 period in completed pushes.
    sync_every: u64,
    /// Completed stage-2 rounds (drains included) — diagnostics only.
    rounds: AtomicU64,
    /// The scheduling watermark: the version observed at the start of the
    /// last stage-2 round, or the ticket of the push that claimed it
    /// ([`Tier::claim_round`]). A round is due once `version`, or a push's
    /// ticket, is `sync_every` past it. Kept separate from `rounds` so
    /// drains (BSP barriers, switches) advance the schedule to "now"
    /// instead of postponing the next periodic round.
    synced_version: AtomicU64,
}

impl Tier {
    /// The tier of `param_count` parameters in `shards` shards owned by
    /// `servers` servers — shards clamped to the parameter count and
    /// servers to the shard count, so no shard or server is empty.
    ///
    /// # Panics
    ///
    /// Panics if any of the three is zero (see [`ShardLayout::new`]).
    pub(crate) fn new(param_count: usize, shards: usize, servers: usize, sync_every: u64) -> Self {
        let layout = ShardLayout::new(param_count, shards);
        let mut owner = vec![0usize; layout.len()];
        let slices = ShardLayout::new(layout.len(), servers)
            .iter()
            .enumerate()
            .map(|(s, (first, count))| {
                owner[first..first + count].fill(s);
                let (last_offset, last_len) = layout.range(first + count - 1);
                let offset = layout.range(first).0;
                ServerSlice {
                    shard_offset: first,
                    shard_count: count,
                    param_range: (offset, last_offset + last_len - offset),
                }
            })
            .collect();
        Tier {
            layout,
            owner,
            slices,
            version: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            sync_every: sync_every.max(1),
            rounds: AtomicU64::new(0),
            synced_version: AtomicU64::new(0),
        }
    }

    /// A fresh instance of server `s` holding its slice of `initial`.
    pub(crate) fn server(&self, s: usize, initial: &[f32]) -> PsServer {
        let (first, count) = (self.slices[s].shard_offset, self.slices[s].shard_count);
        PsServer::new(s, &self.layout, first, count, initial)
    }

    /// Every server's slice, in id order.
    pub(crate) fn slices(&self) -> &[ServerSlice] {
        &self.slices
    }

    pub(crate) fn server_count(&self) -> usize {
        self.slices.len()
    }

    pub(crate) fn param_count(&self) -> usize {
        self.layout.total()
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.layout.len()
    }

    pub(crate) fn shard_range(&self, g: usize) -> (usize, usize) {
        self.layout.range(g)
    }

    pub(crate) fn owner_of(&self, g: usize) -> usize {
        self.owner[g]
    }

    pub(crate) fn sync_every(&self) -> u64 {
        self.sync_every
    }

    pub(crate) fn version(&self) -> u64 {
        // Acquire: pairs with the Release bump in `complete_push`.
        self.version.load(Ordering::Acquire)
    }

    pub(crate) fn sync_rounds(&self) -> u64 {
        self.rounds.load(Ordering::Acquire)
    }

    /// Takes a ticket for a push a flush is about to send — one past every
    /// push sent or completed before it, and no other push's — and claims
    /// the stage-2 round it makes due, if any: every `sync_every`-th ticket
    /// past the watermark. A claim moves the watermark to its ticket before
    /// the round is sent, so [`Tier::reconcile_if_due`] does not run it
    /// too; `true` says the push carries the round ([`Tier::commit_round`]),
    /// which leaves the watermark moved if it fails.
    pub(crate) fn claim_round(&self) -> bool {
        // Read before the ticket is taken: a claim landing in between is an
        // earlier ticket's, a whole number of periods past this reading,
        // so the answer is the same however peers' claims interleave.
        let synced = self.synced_version.load(Ordering::Acquire);
        let ticket = self.sent.fetch_add(1, Ordering::AcqRel) + 1;
        let due = ticket >= synced.saturating_add(self.sync_every)
            && (ticket - synced).is_multiple_of(self.sync_every);
        if due {
            self.synced_version.fetch_max(ticket, Ordering::Release);
        }
        due
    }

    /// Completes a logical push: bumps the global version and returns the
    /// push's staleness relative to `pulled_version` (race-free, from the
    /// `fetch_add` return value — as the single store does).
    pub(crate) fn complete_push(&self, pulled_version: u64) -> u64 {
        // Release: pairs with the Acquire load in `version`.
        self.version
            .fetch_add(1, Ordering::Release)
            .saturating_sub(pulled_version)
    }

    /// Runs stage-2 rounds while the push counter is `sync_every` or more
    /// past the last round's watermark. Called after each completed push of
    /// an asynchronous loop: the worker whose push crosses the boundary
    /// performs the round, unless a push on a wire tier claimed it (moving
    /// the watermark) and carried it; concurrent callers serialize on the
    /// router's round lock (`lock`), and whoever runs a round (`round`,
    /// which must go through [`Tier::commit_round`]) advances the watermark
    /// to the version it observed, so rounds that became redundant while
    /// waiting are skipped rather than replayed. A round that fails ends
    /// the call with its error.
    pub(crate) fn reconcile_if_due<G, E>(
        &self,
        lock: impl Fn() -> G,
        mut round: impl FnMut(&mut G) -> Result<(), E>,
    ) -> Result<(), E> {
        loop {
            let synced = self.synced_version.load(Ordering::Acquire);
            if self.version() < synced.saturating_add(self.sync_every) {
                return Ok(());
            }
            let mut held = lock();
            // Re-check under the lock: a concurrent worker may have run a
            // round while we waited. Loop rather than return — the counter
            // may already be a full period past the new watermark too.
            if self.synced_version.load(Ordering::Acquire) != synced {
                continue;
            }
            round(&mut held)?;
        }
    }

    /// One stage-2 round, caller holding its round lock: `commit_all`
    /// commits every owned shard on every server, then the watermark
    /// advances to the version read at the start of the round
    /// (conservative — the commits include at least every apply published
    /// by those pushes) unless a claim already moved it further, and the
    /// next ticket ([`Tier::claim_round`]) past that version too. Returns
    /// the number of rounds completed so far, or the error `commit_all`
    /// failed with, in which case the round is not counted and the
    /// watermark stays where it was.
    pub(crate) fn commit_round<E>(
        &self,
        commit_all: impl FnOnce() -> Result<(), E>,
    ) -> Result<u64, E> {
        let observed = self.version();
        commit_all()?;
        let round = self.rounds.fetch_add(1, Ordering::Release) + 1;
        // Release: publishes the committed stores' writes (ordered by
        // their shard locks, and on a wire tier by the request/reply round
        // trips) together with the watermark.
        self.synced_version.fetch_max(observed, Ordering::Release);
        self.sent.fetch_max(observed, Ordering::AcqRel);
        Ok(round)
    }

    /// A pull of the committed view: sizes `buf` for the tier, lets `fill`
    /// write every server's parameters and committed shard clocks into it,
    /// and records and returns the **effective data version** — the oldest
    /// committed shard clock, floored by the push counter read before the
    /// fill — not the live counter itself. The parameters pulled are the
    /// committed view, which can trail the counter by up to a stage-2
    /// period; measuring push staleness against the counter would report a
    /// worker training on `sync_every`-stale data as perfectly fresh.
    /// Against the data version, the global staleness histogram and the
    /// per-shard records agree. A `fill` that fails returns its error.
    pub(crate) fn pull_with<E>(
        &self,
        buf: &mut PullBuffer,
        fill: impl FnOnce(&mut [f32], &mut [u64]) -> Result<(), E>,
    ) -> Result<u64, E> {
        let version = self.version();
        buf.params.resize(self.param_count(), 0.0);
        buf.shard_versions.resize(self.shard_count(), 0);
        fill(&mut buf.params, &mut buf.shard_versions)?;
        // Every push applies to every shard exactly once, so a committed
        // shard clock counts the pushes published for that shard; the
        // oldest clock is the version of the stalest data in the image.
        // In-flight applies can push clocks past the completed-push
        // counter, hence the floor.
        let oldest = buf.shard_versions.iter().copied().min();
        buf.version = oldest.unwrap_or(version).min(version);
        Ok(buf.version)
    }
}

/// A multi-server parameter-server tier: N owners behind one routing layer.
#[derive(Debug)]
pub struct ShardRouter {
    servers: Vec<PsServer>,
    tier: Tier,
    /// Serializes stage-2 rounds.
    sync: Mutex<()>,
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
        if let Err(msg) = topology.validate() {
            panic!("invalid topology: {msg}");
        }
        let tier = Tier::new(initial.len(), shards, topology.servers, topology.sync_every);
        let servers = (0..tier.server_count())
            .map(|s| tier.server(s, initial))
            .collect();
        ShardRouter {
            servers,
            tier,
            sync: Mutex::new(()),
        }
    }

    /// The layout, ownership map and two-stage clock.
    pub(crate) fn tier(&self) -> &Tier {
        &self.tier
    }

    /// Number of servers (after clamping to the shard count).
    pub fn server_count(&self) -> usize {
        self.tier.server_count()
    }

    /// The server instances, in id order.
    pub fn servers(&self) -> &[PsServer] {
        &self.servers
    }

    /// Total number of parameters.
    pub fn param_count(&self) -> usize {
        self.tier.param_count()
    }

    /// Number of global shards.
    pub fn shard_count(&self) -> usize {
        self.tier.shard_count()
    }

    /// `(offset, len)` of global shard `g` in the flat vector.
    pub fn shard_range(&self, g: usize) -> (usize, usize) {
        self.tier.shard_range(g)
    }

    /// The server owning global shard `g`.
    pub fn owner_of(&self, g: usize) -> usize {
        self.tier.owner_of(g)
    }

    /// Stage-2 period in completed pushes.
    pub fn sync_every(&self) -> u64 {
        self.tier.sync_every()
    }

    /// Cluster-global version: number of completed pushes.
    pub fn version(&self) -> u64 {
        self.tier.version()
    }

    /// Completed stage-2 reconciliation rounds.
    pub fn sync_rounds(&self) -> u64 {
        self.tier.sync_rounds()
    }

    /// Stage-1 apply: routes the gradient slice for global shard `g` to its
    /// owner and applies it on the live store. Returns the owner's live
    /// shard clock before the apply (see
    /// [`ShardedStore::apply_shard_update`]).
    pub fn apply_shard_update(&self, g: usize, grad: &[f32], lr: f64, momentum: f64) -> u64 {
        let server = &self.servers[self.tier.owner_of(g)];
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
        let server = &self.servers[self.tier.owner_of(g)];
        server.apply_local_data(g - server.shard_offset(), data, lr, momentum)
    }

    /// Completes a logical push: bumps the global version and returns the
    /// push's staleness relative to `pulled_version`.
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        self.tier.complete_push(pulled_version)
    }

    /// Runs a stage-2 round if the push counter has moved `sync_every`
    /// past the last round's watermark (see [`Tier::reconcile_if_due`]).
    pub fn reconcile_if_due(&self) {
        let Ok(()) = (self.tier)
            .reconcile_if_due(|| self.sync.lock(), |_held| self.commit_round().map(drop));
    }

    /// Drains the stage-2 pipeline: waits out any in-flight round, then
    /// unconditionally commits every shard so the committed view equals the
    /// live view. Used by the BSP barrier (every round), the switcher
    /// (before checkpointing a protocol switch), and restore. Advances the
    /// periodic watermark to the current version, so a drain never
    /// postpones (nor hastens) the next due round relative to the pushes
    /// that follow it.
    pub fn drain(&self) {
        let _held = self.sync.lock();
        let Ok(_) = self.commit_round();
    }

    /// One stage-2 round, caller holding the round lock: a direct
    /// commit-all on every server.
    fn commit_round(&self) -> Result<u64, Infallible> {
        self.tier.commit_round(|| {
            self.servers.iter().for_each(PsServer::commit_all);
            Ok(())
        })
    }

    /// Assembles the committed view of all servers into `buf` and returns
    /// the effective version of the pulled data (see [`Tier::pull_with`]).
    /// Zero heap allocations after the first call, and a single copy of the
    /// parameter vector: each server writes its committed shards directly
    /// into the flat buffer.
    pub fn pull_committed_into(&self, buf: &mut PullBuffer) -> u64 {
        self.pull_committed_runs_into(buf, &[(0, self.param_count())])
    }

    /// [`ShardRouter::pull_committed_into`] for a step that reads only
    /// `runs` — sorted, disjoint `(offset, len)` ranges of the flat vector:
    /// each server copies just the pieces it owns, positions outside the
    /// runs keep whatever `buf` held, and every shard's committed clock
    /// (hence the returned effective version) is recorded exactly as a full
    /// pull records it.
    pub fn pull_committed_runs_into(&self, buf: &mut PullBuffer, runs: &[(usize, usize)]) -> u64 {
        let Ok(version) = self.tier.pull_with(buf, |params, clocks| {
            for server in &self.servers {
                let so = server.shard_offset();
                server.pull_committed_runs(
                    runs,
                    server.param_range().0,
                    &mut clocks[so..so + server.shard_count()],
                    |at, values| params[at..at + values.len()].copy_from_slice(values),
                );
            }
            Ok::<(), Infallible>(())
        });
        version
    }

    /// Snapshot of the full live parameter vector (authoritative state).
    pub fn snapshot_params(&self) -> Vec<f32> {
        self.snapshot(ShardedStore::snapshot_params_into)
    }

    /// Snapshot of the full live velocity vector.
    pub fn snapshot_velocity(&self) -> Vec<f32> {
        self.snapshot(ShardedStore::snapshot_velocity_into)
    }

    /// Each server's slice is copied in place — no per-server temporaries,
    /// which matters because the switcher polls `Trainer::training_loss`
    /// (and therefore this) in its decision loop.
    fn snapshot(&self, copy_into: impl Fn(&ShardedStore, &mut [f32])) -> Vec<f32> {
        let mut out = vec![0.0f32; self.param_count()];
        for server in &self.servers {
            let (po, pl) = server.param_range();
            copy_into(server.live(), &mut out[po..po + pl]);
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

/// A worker's pull destination: every port pulls into the same
/// [`PullBuffer`], so a buffer cannot mismatch its port.
pub type PortBuffer = PullBuffer;

/// Where a port's layout and push clock live: in the single store itself,
/// or in the [`Tier`] both routers embed.
enum Backing<'a> {
    Store(&'a ShardedStore),
    Tier(&'a Tier),
}

/// A worker thread's handle onto the data plane: the single in-process
/// store, the in-process router, or a wire tier. The engine's BSP/ASP/SSP
/// loops are written against this interface once and run on every plane.
///
/// Every data operation returns `Result`: on a wire tier, a server lost
/// past the retry budget is its [`PsError`] — `Timeout`, `ConnLost` or
/// `RetriesExhausted`, naming the server. The in-process planes cannot fail.
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
    fn backing(&self) -> Backing<'_> {
        match self {
            WorkerPort::Single(s) => Backing::Store(s),
            WorkerPort::Routed(r) => Backing::Tier(r.tier()),
            WorkerPort::Net(p) => Backing::Tier(p.router().tier()),
        }
    }

    /// An empty pull buffer (the first pull sizes it).
    pub fn new_buffer(&self) -> PortBuffer {
        PullBuffer::new()
    }

    /// Total number of parameters.
    pub(crate) fn param_count(&self) -> usize {
        match self.backing() {
            Backing::Store(s) => s.param_count(),
            Backing::Tier(t) => t.param_count(),
        }
    }

    /// Number of global shards.
    pub fn shard_count(&self) -> usize {
        match self.backing() {
            Backing::Store(s) => s.shard_count(),
            Backing::Tier(t) => t.shard_count(),
        }
    }

    /// `(offset, len)` of global shard `g` in the flat vector.
    pub fn shard_range(&self, g: usize) -> (usize, usize) {
        match self.backing() {
            Backing::Store(s) => s.shard_range(g),
            Backing::Tier(t) => t.shard_range(g),
        }
    }

    /// Number of servers behind this port (1 for the single store).
    pub fn server_count(&self) -> usize {
        match self.backing() {
            Backing::Store(_) => 1,
            Backing::Tier(t) => t.server_count(),
        }
    }

    /// The server owning global shard `g` (0 for the single store).
    pub fn owner_of(&self, g: usize) -> usize {
        match self.backing() {
            Backing::Store(_) => 0,
            Backing::Tier(t) => t.owner_of(g),
        }
    }

    /// Cluster-global version: number of completed pushes.
    pub(crate) fn version(&self) -> u64 {
        match self.backing() {
            Backing::Store(s) => s.version(),
            Backing::Tier(t) => t.version(),
        }
    }

    /// Completed stage-2 rounds (0 for the single store).
    pub(crate) fn sync_rounds(&self) -> u64 {
        match self.backing() {
            Backing::Store(_) => 0,
            Backing::Tier(t) => t.sync_rounds(),
        }
    }

    /// Pulls the worker-visible parameter image into `buf` and returns the
    /// version of the pulled data.
    pub fn pull_into(&self, buf: &mut PortBuffer) -> Result<u64, PsError> {
        match self {
            WorkerPort::Single(s) => Ok(s.pull_into(buf)),
            WorkerPort::Routed(r) => Ok(r.pull_committed_into(buf)),
            WorkerPort::Net(p) => p.pull_into(buf),
        }
    }

    /// [`WorkerPort::pull_into`] for a step that reads only `runs` —
    /// sorted, disjoint `(offset, len)` ranges of the flat vector, as
    /// `Network::param_read_runs_into` reports them. Only those ranges are
    /// copied (and, on a transport-backed plane, only they cross the wire);
    /// positions outside them keep whatever `buf` held. The returned
    /// version and every shard clock in `buf` are what a full pull at the
    /// same moment would have recorded.
    pub fn pull_runs_into(
        &self,
        buf: &mut PortBuffer,
        runs: &[(usize, usize)],
    ) -> Result<u64, PsError> {
        match self {
            WorkerPort::Single(s) => Ok(s.pull_runs_into(buf, runs)),
            WorkerPort::Routed(r) => Ok(r.pull_committed_runs_into(buf, runs)),
            WorkerPort::Net(p) => p.pull_runs_into(buf, runs),
        }
    }

    /// Stage-1 apply of the gradient slice for global shard `g`; returns the
    /// owner's live shard clock before the apply.
    pub fn apply_shard_update(
        &self,
        g: usize,
        grad: &[f32],
        lr: f64,
        momentum: f64,
    ) -> Result<u64, PsError> {
        match self {
            WorkerPort::Single(s) => Ok(s.apply_shard_update(g, grad, lr, momentum)),
            WorkerPort::Routed(r) => Ok(r.apply_shard_update(g, grad, lr, momentum)),
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
    ) -> Result<u64, PsError> {
        let data = UpdateData::Sparse { indices, rows };
        match self {
            WorkerPort::Single(s) => Ok(s.apply_shard_update_data(g, data, lr, momentum)),
            WorkerPort::Routed(r) => Ok(r.apply_shard_update_data(g, data, lr, momentum)),
            WorkerPort::Net(p) => p.apply_shard_update_sparse(g, indices, rows, lr, momentum),
        }
    }

    /// Queues the stage-1 apply of `data` on global shard `g` — the batched
    /// form of [`WorkerPort::apply_shard_update`] and
    /// [`WorkerPort::apply_shard_update_sparse`]. The in-process planes
    /// apply at once and append the pre-apply shard clock to `acks`; a
    /// transport-backed plane stages the push and sends the pushes queued
    /// for one server together, so `acks` is complete — one clock per
    /// queued push, in shard order — only after
    /// [`WorkerPort::flush_pushes`].
    pub fn queue_shard_update(
        &self,
        g: usize,
        data: UpdateData<'_>,
        lr: f64,
        momentum: f64,
        acks: &mut Vec<u64>,
    ) -> Result<(), PsError> {
        match self {
            WorkerPort::Single(s) => acks.push(s.apply_shard_update_data(g, data, lr, momentum)),
            WorkerPort::Routed(r) => acks.push(r.apply_shard_update_data(g, data, lr, momentum)),
            WorkerPort::Net(p) => return p.queue_shard_update(g, data, lr, momentum),
        }
        Ok(())
    }

    /// Sends every push still queued on a transport-backed plane, with the
    /// stage-2 round they make due, and appends their pre-apply shard
    /// clocks to `acks` (no-op in-process, where queueing already applied).
    pub fn flush_pushes(&self, acks: &mut Vec<u64>) -> Result<(), PsError> {
        match self {
            WorkerPort::Net(p) => p.flush_pushes(acks),
            _ => Ok(()),
        }
    }

    /// Completes a logical push and returns its global staleness.
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        match self.backing() {
            Backing::Store(s) => s.complete_push(pulled_version),
            Backing::Tier(t) => t.complete_push(pulled_version),
        }
    }

    /// Post-push hook for the asynchronous loops: runs stage-2 rounds the
    /// push counter has made due (no-op on the single store). On a
    /// transport-backed plane the push that made the round due has carried
    /// it already, so this runs only a round no push claimed (see
    /// [`NetPort::after_push`]).
    pub fn after_push(&self) -> Result<(), PsError> {
        match self {
            WorkerPort::Single(_) => {}
            WorkerPort::Routed(r) => r.reconcile_if_due(),
            WorkerPort::Net(p) => return p.after_push(),
        }
        Ok(())
    }

    /// BSP's round commit: applies the averaged stripes `stripe(g, push)`
    /// hands out, acks them in shard order, drains, and pulls the committed
    /// view into `image` — on a wire tier in one request per server.
    pub(crate) fn commit_round(
        &self,
        stripe: impl Fn(usize, &mut dyn FnMut(&[f32])),
        lr: f64,
        mu: f64,
        acks: &mut Vec<u64>,
        image: &mut PortBuffer,
    ) -> Result<(), PsError> {
        if let WorkerPort::Net(p) = self {
            return p.push_round(stripe, lr, mu, acks, image);
        }
        for g in 0..self.shard_count() {
            let mut queued = Ok(());
            stripe(g, &mut |avg| {
                queued = self.queue_shard_update(g, UpdateData::Dense(avg), lr, mu, acks)
            });
            queued?;
        }
        if let WorkerPort::Routed(r) = self {
            r.drain();
        }
        self.pull_into(image).map(drop)
    }

    /// Drains stage 2 so the next pulls see exactly the state the pushes so
    /// far produced (no-op on the single store, whose pulls always read live
    /// state): what [`crate::Trainer::drain_sync`] runs, and fails as it
    /// does.
    pub fn drain(&self) -> Result<(), PsError> {
        match self {
            WorkerPort::Single(_) => {}
            WorkerPort::Routed(r) => r.drain(),
            WorkerPort::Net(p) => return p.router().drain(),
        }
        Ok(())
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
        let mut buf = PullBuffer::new();
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
        let mut buf = PullBuffer::new();
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
        let mut buf = PullBuffer::new();
        r.pull_committed_into(&mut buf);
        assert_eq!(buf.params, params);
    }
}
