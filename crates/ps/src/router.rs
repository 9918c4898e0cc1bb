//! The multi-server tier's agreed shape, and the port every worker drives
//! the data plane through.
//!
//! Ownership is itself a [`ShardLayout`]: partitioning `0..shards` across
//! `servers` gives each server a contiguous run of global shard ids (and
//! therefore a contiguous slice of the flat parameter vector). A push for
//! shard `g` goes to `owner_of(g)` and applies immediately on that server's
//! live store (stage 1). A pull assembles the *committed* view of every
//! server into the worker's flat buffer. Each server runs stage 2 on its
//! own: every `sync_every`-th request that carries pushes to it publishes
//! its live shards — parameters and clocks together — into its committed
//! store right behind those applies, bounding how far its published view
//! can trail its live state whichever clients push (see [`PsServer`]).
//!
//! The shape all of that rests on — the parameter layout, the ownership
//! map, each server's slice and the stage-2 period — is worked out once, by
//! [`Tier`], from `(param_count, shards, servers, sync_every)`. Servers and
//! clients share it: every [`PsServer`] is built by [`Tier::server`], every
//! [`crate::NetRouter`] routes by its own copy, and the `Hello` handshake
//! compares the two through `Tier::info`. The version clock is the client's
//! own, and lives in the router.
//!
//! The [`WorkerPort`] enum lets the engine's worker loops drive that client
//! or the single-server [`ShardedStore`] through one interface and one
//! buffer type ([`PullBuffer`]), so BSP/ASP/SSP share their loops across
//! topologies — down to BSP's round, which every plane commits through
//! [`WorkerPort::commit_round`].

use std::convert::Infallible;
use std::sync::Arc;

use crate::error::PsError;
use crate::server::PsServer;
use crate::store::{PullBuffer, ShardLayout, ShardedStore, UpdateData};
use crate::transport::{NetPort, ServerInfo};

/// One server's slice of a tier, as [`Tier`] derives it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServerSlice {
    /// First global shard id owned by the server.
    pub(crate) shard_offset: usize,
    /// Number of owned shards.
    pub(crate) shard_count: usize,
    /// `(offset, len)` of the owned slice of the flat parameter vector.
    pub(crate) param_range: (usize, usize),
}

impl ServerSlice {
    /// What server `id`, holding this slice and committing every
    /// `sync_every` push requests, says of itself in reply to `Hello` — and
    /// so what a client that agrees on the tier expects it to say.
    pub(crate) fn info(&self, id: usize, sync_every: u64, nonce: u64) -> ServerInfo {
        ServerInfo {
            nonce,
            server: id as u32,
            first_shard: self.shard_offset as u32,
            shard_count: self.shard_count as u32,
            param_offset: self.param_range.0 as u64,
            param_len: self.param_range.1 as u64,
            sync_every,
        }
    }
}

/// The agreed shape of a multi-server tier: who owns which shard, each
/// server's slice, and the stage-2 period. It is pure data derived from
/// `(param_count, shards, servers, sync_every)`, so every party — each
/// server, each client, in one process or across `ps-serve` and
/// `ps-worker` processes — derives the same one with no coordination
/// traffic, and the `Hello` handshake checks that they did.
///
/// Two constructors state the one difference in policy: [`Tier::new`]
/// clamps a shape that would leave a shard or server empty, as an
/// in-process tier may, and [`Tier::remote`] refuses it, because the spec
/// of a remote tier names processes that would otherwise sit idle.
#[derive(Debug)]
pub struct Tier {
    /// Global parameter layout (shard id → flat range).
    layout: ShardLayout,
    /// Global shard id → owning server index.
    owner: Vec<usize>,
    /// Per server, the contiguous run of shards and parameters it owns.
    slices: Vec<ServerSlice>,
    /// Stage-2 period the servers are built with, and checked against.
    sync_every: u64,
}

impl Tier {
    /// The tier of `param_count` parameters in `shards` shards owned by
    /// `servers` servers that commit every `sync_every` push requests —
    /// shards clamped to the parameter count and servers to the shard
    /// count, so no shard or server is empty.
    ///
    /// # Panics
    ///
    /// Panics if any of the four is zero.
    pub fn new(param_count: usize, shards: usize, servers: usize, sync_every: u64) -> Self {
        assert!(sync_every > 0, "sync_every must be positive");
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
            sync_every,
        }
    }

    /// The tier a spec of `servers` separately running servers describes,
    /// or why it is not one: a remote tier is never clamped, so zero
    /// parameters, shards, servers or `sync_every`, more servers than
    /// shards and more shards than parameters are all refused.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn remote(
        param_count: usize,
        shards: usize,
        servers: usize,
        sync_every: u64,
    ) -> Result<Self, String> {
        if [param_count, shards, servers].contains(&0) || sync_every == 0 {
            return Err(format!(
                "{param_count} parameters, {shards} shards, {servers} servers, sync_every \
                 {sync_every}: none may be zero"
            ));
        }
        if servers > shards || shards > param_count {
            return Err(format!(
                "{servers} servers, {shards} shards, {param_count} parameters: a remote tier is \
                 not clamped, so every server needs a shard and every shard a parameter"
            ));
        }
        Ok(Tier::new(param_count, shards, servers, sync_every))
    }

    /// A fresh instance of server `s` holding its slice of `initial` and
    /// committing every `sync_every` requests that carry pushes to it.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or `initial` is not `param_count`
    /// long.
    pub fn server(&self, s: usize, initial: &[f32]) -> PsServer {
        PsServer::new(s, &self.layout, self.slices[s], initial, self.sync_every)
    }

    /// What server `s`'s instance `nonce` answers `Hello` with, if it was
    /// built from this tier.
    pub(crate) fn info(&self, s: usize, nonce: u64) -> ServerInfo {
        self.slices[s].info(s, self.sync_every, nonce)
    }

    /// Every server's slice, in id order.
    pub(crate) fn slices(&self) -> &[ServerSlice] {
        &self.slices
    }

    /// Number of servers (after clamping, for [`Tier::new`]).
    pub fn server_count(&self) -> usize {
        self.slices.len()
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
            Plane::Net(p) => p.router().tier().param_count(),
        }
    }

    /// Number of global shards.
    pub fn shard_count(&self) -> usize {
        match self.plane() {
            Plane::Single(s) => s.shard_count(),
            Plane::Net(p) => p.router().tier().shard_count(),
        }
    }

    /// `(offset, len)` of global shard `g` in the flat vector.
    pub fn shard_range(&self, g: usize) -> (usize, usize) {
        match self.plane() {
            Plane::Single(s) => s.shard_range(g),
            Plane::Net(p) => p.router().tier().shard_range(g),
        }
    }

    /// Number of servers behind this port (1 for the single store).
    pub fn server_count(&self) -> usize {
        match self.plane() {
            Plane::Single(_) => 1,
            Plane::Net(p) => p.router().tier().server_count(),
        }
    }

    /// The server owning global shard `g` (0 for the single store).
    pub fn owner_of(&self, g: usize) -> usize {
        match self.plane() {
            Plane::Single(_) => 0,
            Plane::Net(p) => p.router().tier().owner_of(g),
        }
    }

    /// Cluster-global version: number of completed pushes.
    pub(crate) fn version(&self) -> u64 {
        match self.plane() {
            Plane::Single(s) => s.version(),
            Plane::Net(p) => p.router().version(),
        }
    }

    /// Stage-2 rounds every server has completed, drains included (0 for
    /// the single store).
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
    /// to its owner at once, with no pull — a request of its own, so it
    /// counts toward its owner's stage-2 period on its own.
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

    /// Ends a queued push. A tier sends each server the pushes still queued
    /// for it as one request — behind whose applies the server commits, if
    /// the request makes its period due — and appends their pre-apply shard
    /// clocks to `acks`; the single store already applied and acked, and
    /// has no rounds. A tier's requests also bring home `next_runs`, the
    /// runs the next step's batch reads ([`NetPort::flush_pushes`]).
    pub fn flush_pushes(
        &self,
        acks: &mut Vec<u64>,
        next_runs: Option<&[(usize, usize)]>,
    ) -> Result<(), PsError> {
        match self.plane() {
            Plane::Single(_) => Ok(()),
            Plane::Net(p) => p.flush_pushes(acks, next_runs),
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
    /// and [`WorkerPort::apply_shard_update_sparse`]). Does nothing: the
    /// servers schedule stage 2 themselves. The benchmark's replay of a
    /// pre-batching step is its one caller (ROADMAP item 2 retires both).
    pub fn after_push(&self) -> Result<(), PsError> {
        Ok(())
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
    /// completed.
    fn push(w: &WorkerPort, value: f32, momentum: f64) {
        for g in 0..w.shard_count() {
            let (_, l) = w.shard_range(g);
            w.apply_shard_update(g, &vec![value; l], 0.1, momentum)
                .unwrap();
        }
        w.complete_push(w.version());
    }

    /// One push of `value` on every shard, queued and flushed — one request
    /// per server — and completed.
    fn queued_push(w: &WorkerPort, value: f32) {
        let mut acks = Vec::new();
        for g in 0..w.shard_count() {
            let (_, l) = w.shard_range(g);
            let grad = vec![value; l];
            w.queue_shard_update(g, UpdateData::Dense(&grad), 0.1, 0.0, &mut acks)
                .unwrap();
        }
        w.flush_pushes(&mut acks, None).unwrap();
        assert_eq!(acks.len(), w.shard_count());
        w.complete_push(w.version());
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
        push(&w, 1.0, 0.0);
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
    fn each_server_commits_every_period_of_pushes() {
        let w = WorkerPort::Net(direct(24, 4, 2, 3));
        queued_push(&w, 1.0);
        queued_push(&w, 1.0);
        assert_eq!(w.sync_rounds(), 0, "no round before the period");
        queued_push(&w, 1.0);
        assert_eq!(w.sync_rounds(), 1, "round at the period boundary");
        let mut buf = PullBuffer::new();
        w.pull_into(&mut buf).unwrap();
        assert_eq!(buf.shard_versions, vec![3; 4]);
        for _ in 0..3 {
            queued_push(&w, 1.0);
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
            queued_push(&w, 1.0);
            w.drain().unwrap();
        }
        let after_bsp = w.sync_rounds();
        // "ASP segment": within one period the next round must fire.
        for _ in 0..3 {
            queued_push(&w, 1.0);
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
        push(&w, 1.0, 0.9);
        let params = r.snapshot_params();
        let velocity = r.snapshot_velocity();
        push(&w, 5.0, 0.9);
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
