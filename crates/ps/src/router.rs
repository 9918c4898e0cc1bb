//! The multi-server tier's client-side state, and the port every worker
//! drives the data plane through.
//!
//! Ownership is itself a [`ShardLayout`]: partitioning `0..shards` across
//! `servers` gives each server a contiguous run of global shard ids (and
//! therefore a contiguous slice of the flat parameter vector). A push for
//! shard `g` goes to `owner_of(g)` and applies immediately on that server's
//! live store (stage 1). A pull assembles the *committed* view of every
//! server into the worker's flat buffer. Every push takes a ticket, and
//! every `sync_every`-th ticket claims a reconciliation round (stage 2),
//! which the claiming push runs right behind its own applies: it publishes
//! each owner's live shards — parameters and clocks together — into its
//! committed store, bounding how far any server's published view can trail
//! its live state.
//!
//! Everything in that paragraph that is *not* "how a request reaches a
//! server" — the ownership map, the push-counter version clock, the stage-2
//! schedule and the effective version of a pulled image — lives once, in
//! [`Tier`]. Its one client is [`crate::NetRouter`], on every multi-server
//! plane: in-process over the threadless direct transport, or over a
//! channel or TCP.
//!
//! The [`WorkerPort`] enum lets the engine's worker loops drive that client
//! or the single-server [`ShardedStore`] through one interface and one
//! buffer type ([`PullBuffer`]), so BSP/ASP/SSP share their loops across
//! topologies — down to BSP's round, which every plane commits through
//! [`WorkerPort::commit_round`].

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
/// OSP-style two-stage schedule. What [`crate::NetRouter`] adds is only how
/// a commit-all reaches a server and what its round lock guards.
///
/// **Process-local.** "Cluster" here means the workers of this process. The
/// version clock, the push tickets, the stage-2 round counter and watermark
/// — and with them the BSP barrier, the SSP floor and the wire router's
/// prefetch stamps — are atomics in this address space. Several `ps-worker` processes on one
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
    /// The last push ticket taken ([`Tier::claim_round`]): every
    /// asynchronous push takes one, and a drain raises it to the version it
    /// observed, so it never trails the pushes a BSP round completed.
    sent: AtomicU64,
    /// Stage-2 period in push tickets.
    sync_every: u64,
    /// Completed stage-2 rounds (drains included) — diagnostics only.
    rounds: AtomicU64,
    /// The scheduling watermark, in tickets: the ticket of the push that
    /// claimed the last round, or the version the last drain observed. A
    /// push claims a round when its ticket is a whole number of periods,
    /// one or more, past it. Kept separate from `rounds` so drains (BSP
    /// barriers, switches, restores) move the schedule to "now" instead of
    /// postponing the next periodic round.
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

    /// Takes a push's ticket — one past every push ticketed or completed
    /// before it, and no other push's — and claims the stage-2 round it
    /// makes due, if any: every `sync_every`-th ticket past the watermark.
    /// A claim moves the watermark to its ticket at once, so no peer claims
    /// the same round; `true` says this push runs the round
    /// ([`Tier::commit_round`]), which leaves the watermark moved if it
    /// fails. The one trigger of an asynchronous round.
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

    /// One stage-2 round, caller holding its round lock: `commit_all`
    /// commits every owned shard on every server, and the round is counted.
    /// The watermark stays where the claim put it. Returns the number of
    /// rounds completed so far, or the error `commit_all` failed with, in
    /// which case the round is not counted.
    pub(crate) fn commit_round<E>(
        &self,
        commit_all: impl FnOnce() -> Result<(), E>,
    ) -> Result<u64, E> {
        commit_all()?;
        // Release: pairs with the Acquire load in `sync_rounds`, publishing
        // the committed stores' writes (ordered by their shard locks and by
        // the request/reply round trips) with the count.
        Ok(self.rounds.fetch_add(1, Ordering::Release) + 1)
    }

    /// A drain, caller holding its round lock: a [`Tier::commit_round`]
    /// that then moves the watermark to the version read before it and
    /// raises the ticket counter to match, so the next round is claimed a
    /// full period after the pushes the drain covered. The commits include
    /// at least every apply published by those pushes.
    pub(crate) fn drain<E>(&self, commit_all: impl FnOnce() -> Result<(), E>) -> Result<u64, E> {
        let observed = self.version();
        let round = self.commit_round(commit_all)?;
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

/// A worker's pull destination: every port pulls into the same
/// [`PullBuffer`], so a buffer cannot mismatch its port.
pub type PortBuffer = PullBuffer;

/// A worker thread's handle onto the data plane: the single in-process
/// store, or a multi-server tier through its one client, [`NetPort`] —
/// over the threadless direct transport in-process, over a channel or TCP
/// otherwise. The engine's BSP/ASP/SSP loops are written against this
/// interface once and run on every plane.
///
/// Every data operation returns `Result`: a server lost past the retry
/// budget is its [`PsError`] — `Timeout`, `ConnLost` or `RetriesExhausted`,
/// naming the server. The single store cannot fail.
#[derive(Debug, Clone)]
pub enum WorkerPort {
    /// Direct handle to the single-server store (the PR 2 fast path —
    /// pulls read live state, no stage-2 indirection).
    Single(Arc<ShardedStore>),
    /// Uninhabited: the in-process multi-server plane is a
    /// [`WorkerPort::Net`] over the direct transport. The variant stays
    /// only because `benchmark/src/replay.rs` names it in a match arm, and
    /// goes with that replay (ROADMAP item 2).
    Routed(Infallible),
    /// Handle through a tier's client: every push/pull/sync is a request
    /// frame. Cloning the port gives the new worker its own connections
    /// (connection-per-worker).
    Net(NetPort),
}

/// A port with the uninhabited [`WorkerPort::Routed`] ruled out — what the
/// port's methods and the trainer's match on, so no other match names it.
pub(crate) enum Plane<'a> {
    Single(&'a ShardedStore),
    Net(&'a NetPort),
}

impl WorkerPort {
    pub(crate) fn plane(&self) -> Plane<'_> {
        match self {
            WorkerPort::Single(s) => Plane::Single(s),
            WorkerPort::Routed(never) => match *never {},
            WorkerPort::Net(p) => Plane::Net(p),
        }
    }

    /// An empty pull buffer (the first pull sizes it).
    pub fn new_buffer(&self) -> PortBuffer {
        PullBuffer::new()
    }

    /// Total number of parameters.
    pub(crate) fn param_count(&self) -> usize {
        match self.plane() {
            Plane::Single(s) => s.param_count(),
            Plane::Net(p) => p.router().param_count(),
        }
    }

    /// Number of global shards.
    pub fn shard_count(&self) -> usize {
        match self.plane() {
            Plane::Single(s) => s.shard_count(),
            Plane::Net(p) => p.router().shard_count(),
        }
    }

    /// `(offset, len)` of global shard `g` in the flat vector.
    pub fn shard_range(&self, g: usize) -> (usize, usize) {
        match self.plane() {
            Plane::Single(s) => s.shard_range(g),
            Plane::Net(p) => p.router().shard_range(g),
        }
    }

    /// Number of servers behind this port (1 for the single store).
    pub fn server_count(&self) -> usize {
        match self.plane() {
            Plane::Single(_) => 1,
            Plane::Net(p) => p.router().server_count(),
        }
    }

    /// The server owning global shard `g` (0 for the single store).
    pub fn owner_of(&self, g: usize) -> usize {
        match self.plane() {
            Plane::Single(_) => 0,
            Plane::Net(p) => p.router().owner_of(g),
        }
    }

    /// Cluster-global version: number of completed pushes.
    pub(crate) fn version(&self) -> u64 {
        match self.plane() {
            Plane::Single(s) => s.version(),
            Plane::Net(p) => p.router().version(),
        }
    }

    /// Completed stage-2 rounds (0 for the single store).
    pub(crate) fn sync_rounds(&self) -> u64 {
        match self.plane() {
            Plane::Single(_) => 0,
            Plane::Net(p) => p.router().sync_rounds(),
        }
    }

    /// Pulls the worker-visible parameter image into `buf` and returns the
    /// version of the pulled data.
    pub fn pull_into(&self, buf: &mut PortBuffer) -> Result<u64, PsError> {
        match self.plane() {
            Plane::Single(s) => Ok(s.pull_into(buf)),
            Plane::Net(p) => p.pull_into(buf),
        }
    }

    /// [`WorkerPort::pull_into`] for a step that reads only `runs` —
    /// sorted, disjoint `(offset, len)` ranges of the flat vector, as
    /// `Network::param_read_runs_into` reports them. Only those ranges are
    /// copied (and, on a tier, only they cross to the servers); positions
    /// outside them keep whatever `buf` held. The returned version and
    /// every shard clock in `buf` are what a full pull at the same moment
    /// would have recorded.
    pub fn pull_runs_into(
        &self,
        buf: &mut PortBuffer,
        runs: &[(usize, usize)],
    ) -> Result<u64, PsError> {
        match self.plane() {
            Plane::Single(s) => Ok(s.pull_runs_into(buf, runs)),
            Plane::Net(p) => p.pull_runs_into(buf, runs),
        }
    }

    /// Stage-1 apply of the gradient slice for global shard `g` on its own
    /// (see [`WorkerPort::push_shard`]); returns the owner's live shard
    /// clock before the apply.
    pub fn apply_shard_update(
        &self,
        g: usize,
        grad: &[f32],
        lr: f64,
        momentum: f64,
    ) -> Result<u64, PsError> {
        self.push_shard(g, UpdateData::Dense(grad), lr, momentum)
    }

    /// Stage-1 sparse apply for global shard `g` on its own: only the
    /// `(start, len)` segments in `indices` carry gradient (`rows`); the
    /// rest of the shard takes the zero-gradient momentum step. Clock
    /// semantics match the dense apply exactly.
    pub fn apply_shard_update_sparse(
        &self,
        g: usize,
        indices: &[(u32, u32)],
        rows: &[f32],
        lr: f64,
        momentum: f64,
    ) -> Result<u64, PsError> {
        self.push_shard(g, UpdateData::Sparse { indices, rows }, lr, momentum)
    }

    /// One shard of a push sent shard by shard: queued, and on a tier sent
    /// to its owner at once, with no ticket and no pull. The push takes its
    /// ticket once every shard is sent ([`WorkerPort::after_push`]).
    fn push_shard(
        &self,
        g: usize,
        data: UpdateData<'_>,
        lr: f64,
        momentum: f64,
    ) -> Result<u64, PsError> {
        let mut ack = Vec::with_capacity(1);
        self.queue_shard_update(g, data, lr, momentum, &mut ack)?;
        if let WorkerPort::Net(p) = self {
            p.send_queued(&mut ack)?;
        }
        Ok(ack[0])
    }

    /// Queues the stage-1 apply of `data` on global shard `g` — the batched
    /// form of [`WorkerPort::apply_shard_update`] and
    /// [`WorkerPort::apply_shard_update_sparse`]. The single store applies
    /// at once and appends the pre-apply shard clock to `acks`; a tier
    /// stages the push and sends the pushes queued for one server together,
    /// so `acks` is complete — one clock per queued push, in shard order —
    /// only after [`WorkerPort::flush_pushes`].
    pub fn queue_shard_update(
        &self,
        g: usize,
        data: UpdateData<'_>,
        lr: f64,
        momentum: f64,
        acks: &mut Vec<u64>,
    ) -> Result<(), PsError> {
        match self.plane() {
            Plane::Single(s) => acks.push(s.apply_shard_update_data(g, data, lr, momentum)),
            Plane::Net(p) => return p.queue_shard_update(g, data, lr, momentum),
        }
        Ok(())
    }

    /// Ends a queued push: it takes its ticket, and runs the stage-2 round
    /// the ticket claims right behind its applies. A tier sends every push
    /// still queued, the claimed round riding them, and appends their
    /// pre-apply shard clocks to `acks`; the single store already applied
    /// and acked, and has no rounds.
    pub fn flush_pushes(&self, acks: &mut Vec<u64>) -> Result<(), PsError> {
        match self.plane() {
            Plane::Single(_) => Ok(()),
            Plane::Net(p) => p.flush_pushes(acks),
        }
    }

    /// Completes a logical push and returns its global staleness.
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        match self.plane() {
            Plane::Single(s) => s.complete_push(pulled_version),
            Plane::Net(p) => p.router().complete_push(pulled_version),
        }
    }

    /// Ends a push sent shard by shard ([`WorkerPort::apply_shard_update`]
    /// and [`WorkerPort::apply_shard_update_sparse`]): it takes its ticket,
    /// and if that claims a stage-2 round, the round commits over the
    /// control plane (no-op on the single store). A queued push takes its
    /// ticket in [`WorkerPort::flush_pushes`] instead, so calling this
    /// after one would take a second. The benchmark's replay of a
    /// pre-batching step is its one caller outside the tests (ROADMAP item
    /// 2 retires both).
    pub fn after_push(&self) -> Result<(), PsError> {
        match self.plane() {
            Plane::Single(_) => Ok(()),
            Plane::Net(p) => p.after_push(),
        }
    }

    /// BSP's round commit: applies the averaged stripes `stripe(g, push)`
    /// hands out, acks them in shard order, drains, and pulls the committed
    /// view into `image` — on a tier in one request per server.
    pub(crate) fn commit_round(
        &self,
        stripe: impl Fn(usize, &mut dyn FnMut(&[f32])),
        lr: f64,
        mu: f64,
        acks: &mut Vec<u64>,
        image: &mut PortBuffer,
    ) -> Result<(), PsError> {
        let store = match self.plane() {
            Plane::Single(s) => s,
            Plane::Net(p) => return p.push_round(stripe, lr, mu, acks, image),
        };
        for g in 0..store.shard_count() {
            stripe(g, &mut |avg| {
                acks.push(store.apply_shard_update(g, avg, lr, mu));
            });
        }
        store.pull_into(image);
        Ok(())
    }

    /// Drains stage 2 so the next pulls see exactly the state the pushes so
    /// far produced (no-op on the single store, whose pulls always read live
    /// state): what [`crate::Trainer::drain_sync`] runs, and fails as it
    /// does.
    pub fn drain(&self) -> Result<(), PsError> {
        match self.plane() {
            Plane::Single(_) => Ok(()),
            Plane::Net(p) => p.router().drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerTopology;

    /// A tier on the in-process (direct) plane, with `initial[i] = 0.1 i`.
    fn direct(n: usize, shards: usize, servers: usize, sync_every: u64) -> NetPort {
        let initial: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
        NetPort::launch(&initial, shards, ServerTopology::new(servers, sync_every))
    }

    /// One push of `value` on every shard, sent shard by shard and
    /// completed; `ticket` also takes its ticket.
    fn push(w: &WorkerPort, value: f32, momentum: f64, ticket: bool) {
        for g in 0..w.shard_count() {
            let (_, l) = w.shard_range(g);
            w.apply_shard_update(g, &vec![value; l], 0.1, momentum)
                .unwrap();
        }
        w.complete_push(w.version());
        if ticket {
            w.after_push().unwrap();
        }
    }

    #[test]
    fn ownership_partitions_shards() {
        let tier = Tier::new(103, 7, 3, 4);
        assert_eq!(tier.server_count(), 3);
        assert_eq!(tier.shard_count(), 7);
        // Every shard has exactly one owner and owners hold contiguous runs.
        let mut seen = vec![0usize; tier.server_count()];
        for g in 0..tier.shard_count() {
            seen[tier.owner_of(g)] += 1;
        }
        let initial = vec![0.5f32; 103];
        let (mut shards, mut offset) = (0, 0);
        for (s, slice) in tier.slices().iter().enumerate() {
            assert_eq!(seen[s], slice.shard_count);
            assert_eq!(slice.shard_offset, shards);
            // Param ranges tile the flat vector, and each server agrees.
            assert_eq!(slice.param_range.0, offset);
            let server = tier.server(s, &initial);
            assert_eq!(server.shard_count(), slice.shard_count);
            assert_eq!(server.param_range(), slice.param_range);
            shards += slice.shard_count;
            offset += slice.param_range.1;
        }
        assert_eq!(shards, tier.shard_count());
        assert_eq!(offset, tier.param_count());
    }

    #[test]
    fn more_servers_than_shards_clamps() {
        assert_eq!(Tier::new(16, 2, 5, 1).server_count(), 2);
    }

    #[test]
    fn routed_push_equals_single_store_push() {
        let initial: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let single = ShardedStore::new(&initial, 5);
        let net = NetPort::launch(&initial, 5, ServerTopology::new(2, 1));
        let routed = WorkerPort::Net(net.clone());
        let grad: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        for step in 0..4 {
            for g in 0..5 {
                let (o, l) = single.shard_range(g);
                assert_eq!(routed.shard_range(g), (o, l));
                let a = single.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                let b = routed.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                assert_eq!(Ok(a), b, "shard clock at step {step} shard {g}");
            }
            single.complete_push(step);
            routed.complete_push(step);
        }
        assert_eq!(single.version(), routed.version());
        assert_eq!(single.snapshot_params(), net.router().snapshot_params());
        assert_eq!(single.snapshot_velocity(), net.router().snapshot_velocity());
    }

    #[test]
    fn pulls_see_committed_view_only() {
        let net = direct(24, 4, 2, 8);
        let w = WorkerPort::Net(net.clone());
        let mut buf = PullBuffer::new();
        w.pull_into(&mut buf).unwrap();
        let before = buf.params.clone();
        // Stage-1 applies land on live stores; the committed view is
        // unchanged until a round runs.
        push(&w, 1.0, 0.0, false);
        let v = w.pull_into(&mut buf).unwrap();
        assert_eq!(buf.params, before);
        // The recorded version is the *data* version: the image still
        // predates the push, so staleness measured against it is honest.
        assert_eq!(v, 0, "pulled version must track the committed data");
        assert_eq!(buf.version, 0);
        w.drain().unwrap();
        let v = w.pull_into(&mut buf).unwrap();
        assert_eq!(buf.params, net.router().snapshot_params());
        assert_eq!(v, 1, "drained data is current");
        assert_eq!(buf.shard_versions, vec![1; 4]);
    }

    #[test]
    fn a_push_ticket_claims_every_period() {
        let w = WorkerPort::Net(direct(24, 4, 2, 3));
        push(&w, 1.0, 0.0, true);
        push(&w, 1.0, 0.0, true);
        assert_eq!(w.sync_rounds(), 0, "no round before the period");
        push(&w, 1.0, 0.0, true);
        assert_eq!(w.sync_rounds(), 1, "round at the period boundary");
        let mut buf = PullBuffer::new();
        w.pull_into(&mut buf).unwrap();
        assert_eq!(buf.shard_versions, vec![3; 4]);
        for _ in 0..3 {
            push(&w, 1.0, 0.0, true);
        }
        assert_eq!(w.sync_rounds(), 2);
    }

    #[test]
    fn drain_does_not_starve_periodic_rounds() {
        // Regression: drains used to advance the same counter the periodic
        // schedule was derived from, so a BSP segment (one drain per
        // barrier round) pushed the next periodic round `sync_every` pushes
        // into the future per drain — a following ASP segment could run
        // with a frozen committed view for its whole length.
        let w = WorkerPort::Net(direct(24, 4, 2, 3));
        // "BSP segment": 10 rounds, each drained at the barrier.
        for _ in 0..10 {
            push(&w, 1.0, 0.0, true);
            w.drain().unwrap();
        }
        let after_bsp = w.sync_rounds();
        // "ASP segment": within one period the next round must fire.
        for _ in 0..3 {
            push(&w, 1.0, 0.0, true);
        }
        assert!(
            w.sync_rounds() > after_bsp,
            "periodic rounds starved after drains"
        );
        // And the committed view is fresh to within the period again: every
        // push applies to every shard, so a shard's committed clock trails
        // its live one by the pushes not yet published.
        let mut buf = PullBuffer::new();
        w.pull_into(&mut buf).unwrap();
        for &clock in &buf.shard_versions {
            assert!(w.version() - clock < 3);
        }
    }

    #[test]
    fn router_restore_round_trip() {
        let net = direct(30, 6, 3, 2);
        let (w, r) = (WorkerPort::Net(net.clone()), net.router());
        push(&w, 1.0, 0.9, false);
        let params = r.snapshot_params();
        let velocity = r.snapshot_velocity();
        push(&w, 5.0, 0.9, false);
        assert_ne!(r.snapshot_params(), params);
        r.restore(&params, &velocity).unwrap();
        assert_eq!(r.snapshot_params(), params);
        assert_eq!(r.snapshot_velocity(), velocity);
        // Restore drains: the committed view matches immediately.
        let mut buf = PullBuffer::new();
        w.pull_into(&mut buf).unwrap();
        assert_eq!(buf.params, params);
    }
}
