//! The message-passing transport tier: [`PsServer`]s behind a wire
//! protocol.
//!
//! PR 3 sharded the PS tier across N in-process [`PsServer`]s, which left
//! the "network" cost of the BSP/ASP tradeoff zero by construction. This
//! module puts a real boundary there:
//!
//! * [`wire`] — the one binary codec (length-prefixed frames, a streaming
//!   encoder and a zero-allocation decoder per message, a `Batch` frame
//!   that carries several requests to one server in one round trip).
//! * [`Transport`] / [`Conn`] — the backend abstraction: a transport knows
//!   how to open a connection to server `s`; a connection sends one encoded
//!   request payload and blocks for the reply payload.
//! * [`direct`] — the threadless backend of the in-process multi-server
//!   plane: each connection owns a [`ServerEndpoint`] and serves its
//!   requests on the caller's thread, with no thread, queue or lock of its
//!   own.
//! * [`channel`] — the in-memory backend: each server runs its own
//!   event-loop thread draining an mpsc request queue; request/reply byte
//!   buffers ping-pong between client and server, so the steady state is
//!   allocation-free.
//! * [`tcp`] — the TCP backend: one listener per server, blocking I/O, one
//!   connection (and one handler thread) per worker. It hosts its servers
//!   on loopback, or dials `ps-serve` processes by address.
//! * [`NetRouter`] / [`NetPort`] — the one client of a multi-server tier:
//!   routing, the version clock and two-stage sync, reaching the servers
//!   only through a transport. The engine's BSP/ASP/SSP loops run on it
//!   via [`crate::WorkerPort::Net`].
//!
//! What a training step costs on the wire is its round trips, so the client
//! spends as few as the two-stage protocol allows. A push is one per
//! server: the shards a worker pushes to one server are queued and travel
//! as a single sequenced `Batch`, acked by one reply carrying every shard's
//! pre-apply clock (stage-1 applies to one server are order-free between
//! commits, so sharing a frame changes nothing the protocol can observe).
//! The server runs stage 2 itself: every `sync_every`-th request that
//! carries pushes commits behind its applies, and the reply says so with a
//! `Synced` carrying the server's commit epoch. A pull costs a round trip
//! per server only when it has to: on an asynchronous tail whose steps
//! read the whole vector, the batch a worker pushes ends in a
//! `PullCommitted` item, the `Pulled` image stays where the reply arrived
//! ([`Conn::last_reply`]), and the next step decodes it from there. Pulls
//! read the *committed* view, which only a commit changes, so the image is
//! the pull the next step would have made unless the server has committed
//! since; [`NetRouter`] stamps each image with the server's commit epoch
//! it holds, keeps the highest epoch any reply reported, and asks the
//! server again once that has moved past the stamp, which keeps the
//! guarantee a pull has always given — it reflects every round completed
//! before it was asked for. A segment's first step, steps that pull by run
//! and reconnects pay the round trip as before. A BSP round is one round trip
//! per server in all: the worker that completes it sends each server its
//! averaged stripes, a `Drain` and a `PullCommitted` in one batch, and
//! every worker's next step installs the images that come back.
//!
//! [`ServerEndpoint`] executes a batch as a loop over its items and
//! accounts each under its own opcode; the sequencing wrapper and its
//! one-entry dedup window cover the batch as a whole, and what the window
//! keeps is ack-sized — a trailing pull is re-read on a replay, never
//! cached. Before anything executes it checks every request — every item
//! of a batch — against the server's slice, so a frame that does not fit
//! closes its connection and changes nothing.
//!
//! Per-operation wire time and frame bytes are recorded in
//! [`crate::profiler::TransportStats`], surfaced on
//! [`crate::SegmentReport::transport`] — the observable that lets
//! `cluster::NetworkModel` calibrate its latency/bandwidth constants
//! against measured loopback costs instead of fitted paper ratios.

pub mod channel;
pub mod direct;
pub mod faulty;
mod net_router;
pub mod tcp;
pub mod wire;

pub use faulty::{FaultPlan, FaultyTransport};
pub use net_router::{NetPort, NetRouter};
pub use tcp::TcpServerHost;
pub use wire::{ServerInfo, WireError};

use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::server::{PsServer, SeqEntry};
use crate::store::UpdateData;
use wire::op;

/// A transport backend: a way to reach each [`PsServer`] of a tier.
///
/// Implementations own the server instances and whatever serving
/// infrastructure the boundary needs (event-loop threads, listeners);
/// dropping the transport shuts all of it down.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Opens a new connection to server `server`. Each worker thread opens
    /// its own connections (connection-per-worker).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the server cannot be reached (e.g. the TCP
    /// listener is gone).
    fn connect(&self, server: usize) -> io::Result<Box<dyn Conn>>;

    /// Crash-testing hook: kills server `server` the way `SIGKILL` kills a
    /// `ps-serve` process — its listener closes and its open connections
    /// are severed — without tearing down the rest of the transport. It
    /// tells no client anything. Backends that host no server they can kill
    /// in place return [`io::ErrorKind::Unsupported`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the backend does not support in-place kills.
    fn kill_server(&self, _server: usize) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport does not support killing servers",
        ))
    }

    /// Recovery hook paired with [`Transport::kill_server`]: serves `fresh`
    /// at the killed server's address, as a respawned `ps-serve` would.
    /// Clients learn of it only from the new instance nonce its `Hello`
    /// answers with ([`NetRouter::handshake`]).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the backend does not support revival.
    fn revive_server(&self, _server: usize, _fresh: Arc<PsServer>) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport does not support reviving servers",
        ))
    }
}

/// One client connection to one server: strictly request/reply.
///
/// The two-phase API keeps the hot path allocation-free: the caller encodes
/// the request payload directly into the buffer returned by
/// [`Conn::request_buf`], then [`Conn::call`] sends it and blocks for the
/// reply payload, which stays valid until the next call.
pub trait Conn: Send + fmt::Debug {
    /// A cleared buffer to encode the next request payload into.
    fn request_buf(&mut self) -> &mut Vec<u8>;

    /// Sends the encoded request and blocks for the reply payload.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the server hung up or the stream broke.
    fn call(&mut self) -> io::Result<&[u8]>;

    /// The reply payload the last successful [`Conn::call`] returned, still
    /// where it arrived (empty before the first call). It stays until the
    /// next `call`, which is what lets a client leave a pull that rode home
    /// on another reply undecoded — no second parameter buffer, no copy —
    /// until the step that reads it.
    fn last_reply(&self) -> &[u8];

    /// Bounds how long a single [`Conn::call`] may block (`None` removes
    /// the bound). Backends without timeout support ignore this; the retry
    /// layer then relies on broken-connection errors alone.
    fn set_op_timeout(&mut self, _timeout: Option<Duration>) {}

    /// Fault-injection hook: writes a deliberately torn (truncated) frame
    /// to the peer, as a crashing client would. Backends whose framing
    /// cannot be torn mid-frame return [`io::ErrorKind::Unsupported`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error if tearing is unsupported or the write fails.
    fn inject_torn(&mut self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "connection does not support torn frames",
        ))
    }
}

/// What a serving loop should do after handling one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handled {
    /// A reply was encoded; send it and keep serving.
    Reply,
    /// The client asked the loop to terminate; no reply.
    Shutdown,
}

/// Server-side request execution, shared by every backend: checks a
/// request payload against the [`PsServer`]'s slice, decodes and executes
/// it, and encodes the reply. All scratch buffers are reused, so
/// steady-state push/pull/sync service allocates nothing.
///
/// A request that does not fit — bad framing, a shard the server does not
/// own, a gradient, segment list, run list or restore of the wrong shape —
/// is a [`WireError`] before anything executes; in a batch, before its
/// first item does. A malformed frame neither panics the server nor
/// half-applies.
pub struct ServerEndpoint {
    server: Arc<PsServer>,
    /// Gradient decode scratch (push path).
    grad: Vec<f32>,
    /// Segment-list decode scratch (sparse push path).
    segments: Vec<(u32, u32)>,
    /// Checked run list of a run pull (server-local offsets).
    runs: Vec<(usize, usize)>,
    /// Pull/snapshot/restore scratch, one slice long.
    params: Vec<f32>,
    /// Restore velocity scratch, sized by the first restore.
    velocity: Vec<f32>,
    clocks: Vec<u64>,
    /// The dedup entry of the client this endpoint last served a sequenced
    /// request for. A TCP handler serves one client, so after its first
    /// request it never takes the server-wide table lock again; holding
    /// the `Arc` is also the lease that keeps a connected client's entry
    /// from being evicted (see [`PsServer::seq_entry`]).
    lease: Option<(u64, Arc<Mutex<SeqEntry>>)>,
}

impl ServerEndpoint {
    /// An endpoint serving `server`: one per event loop or connection.
    pub fn new(server: Arc<PsServer>) -> Self {
        let (_, param_len) = server.param_range();
        let shards = server.shard_count();
        ServerEndpoint {
            server,
            grad: Vec::new(),
            segments: Vec::new(),
            runs: Vec::new(),
            params: vec![0.0; param_len],
            velocity: Vec::new(),
            clocks: vec![0; shards],
            lease: None,
        }
    }

    /// Handles one request payload, encoding the reply into `reply`
    /// (cleared first).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a malformed request, which has then
    /// changed nothing on the server.
    pub fn handle(&mut self, request: &[u8], reply: &mut Vec<u8>) -> Result<Handled, WireError> {
        reply.clear();
        self.handle_into(request, reply)
    }

    /// Handles one request payload, *appending* the reply payload to
    /// `reply` — what lets the TCP handler reserve its frame-length prefix
    /// up front and have even a large pull reply encoded in place.
    ///
    /// A [`op::SEQUENCED`] wrapper is unwrapped here: a duplicate
    /// `(client, seq)` replays the cached reply without re-executing, so a
    /// client that re-sends after a lost reply gets at-most-once apply
    /// semantics for mutating requests. A [`op::BATCH`] — bare or inside
    /// the wrapper — is executed item by item, and the wrapper covers it
    /// as a whole: one sequence number, one cached (batch) reply.
    ///
    /// What is cached stays ack-sized: a batch's trailing
    /// [`op::PULL_COMMITTED`] — the pull a worker lets ride on its push —
    /// is a read, so its `Pulled` item is left out of the cache and a
    /// replay executes it again behind the replayed acks and `Synced`. A
    /// replay is not counted again and commits nothing. (A replayed pull
    /// can only be newer than the lost one; the client dates it by the
    /// cached `Synced`, or from before its first send.)
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a malformed request, before anything
    /// executed — the serving loop treats that as a broken peer and closes
    /// without replying.
    pub(crate) fn handle_into(
        &mut self,
        request: &[u8],
        reply: &mut Vec<u8>,
    ) -> Result<Handled, WireError> {
        let base = reply.len();
        let opcode = *request.first().ok_or(WireError::Truncated)?;
        if opcode != op::SEQUENCED {
            let batch = self.admit(request, request)?;
            let (handled, _) = self.dispatch(request, batch, reply)?;
            if handled == Handled::Reply {
                self.server.stats().record_reply(reply.len() - base);
            }
            return Ok(handled);
        }
        let (client, seq, inner) = wire::decode_sequenced_prefix(request)?;
        let batch = self.admit(request, inner)?;
        let entry = match &self.lease {
            Some((leased, entry)) if *leased == client => Arc::clone(entry),
            _ => {
                let entry = self.server.seq_entry(client);
                self.lease = Some((client, Arc::clone(&entry)));
                entry
            }
        };
        // Held across execution: a duplicate racing a still-running
        // original waits here and then sees the cached reply.
        let mut entry = entry.lock();
        // The read a replay repeats instead of caching.
        let trailing_pull = (batch.clone())
            .and_then(Iterator::last)
            .filter(|item| item[0] == op::PULL_COMMITTED);
        if entry.last == Some(seq) {
            self.server.stats().record_dedup_hit();
            reply.extend_from_slice(&entry.reply);
            if let Some(pull) = trailing_pull {
                // The cached header already counts this item.
                let mark = wire::open_batch_item(reply);
                self.handle_inner(pull, reply)?;
                wire::patch_frame_len(&mut reply[mark..]);
            }
            self.server.stats().record_reply(reply.len() - base);
            return Ok(Handled::Reply);
        }
        let (handled, last_item) = self.dispatch(inner, batch, reply)?;
        if handled == Handled::Reply {
            let cached = if trailing_pull.is_some() {
                last_item
            } else {
                reply.len()
            };
            entry.last = Some(seq);
            entry.reply.clear();
            entry.reply.extend_from_slice(&reply[base..cached]);
            self.server.stats().record_reply(reply.len() - base);
        }
        Ok(handled)
    }

    /// Admits the request(s) in `inner` — the payload of `frame` with any
    /// sequencing wrapper removed. First every request, every item of a
    /// batch, is checked (see [`ServerEndpoint::check`]), so a batch fails
    /// whole before its first item executes. Then they are counted under
    /// what they do: one count per logical request, a batch's items each
    /// under their own opcode, so the per-opcode counts do not depend on
    /// how requests were framed. Every byte of `frame` is attributed once
    /// (a batch's framing to its first item). Returns a batch's items.
    fn admit<'a>(
        &mut self,
        frame: &[u8],
        inner: &'a [u8],
    ) -> Result<Option<wire::BatchItems<'a>>, WireError> {
        let opcode = *inner.first().ok_or(WireError::Truncated)?;
        if opcode != op::BATCH {
            self.check(inner)?;
            self.server.stats().record_request(opcode, frame.len());
            return Ok(None);
        }
        let items = wire::batch_items(inner, op::BATCH)?;
        // The reply needs room for the `Synced` a periodic commit adds.
        if items.clone().count() == usize::from(u16::MAX) {
            return Err(WireError::Misfit(op::BATCH));
        }
        for item in items.clone() {
            self.check(item)?;
        }
        let stats = self.server.stats();
        let mut framing = frame.len() - items.clone().map(<[u8]>::len).sum::<usize>();
        for item in items.clone() {
            stats.record_request(item[0], item.len() + framing);
            framing = 0;
        }
        Ok(Some(items))
    }

    /// Checks one non-empty request against the server's slice without
    /// executing it: its framing, and that every shard, length, segment and
    /// run it names fits. A request that passes executes without an error
    /// or a panic. A dense push costs a header read, a sparse push or a run
    /// pull one pass over its list.
    fn check(&mut self, request: &[u8]) -> Result<(), WireError> {
        let live = self.server.live();
        match request[0] {
            op::PUSH_SHARD | op::PUSH_SHARD_SPARSE => wire::check_push(request, |shard| {
                (shard < live.shard_count()).then(|| live.shard_range(shard).1)
            }),
            op::PULL_COMMITTED => {
                wire::decode_pull_runs_into(request, self.params.len(), &mut self.runs).map(drop)
            }
            op::SNAPSHOT => wire::decode_snapshot_request(request).map(drop),
            op::RESTORE => {
                self.velocity.resize(self.params.len(), 0.0);
                wire::decode_restore_into(request, &mut self.params, &mut self.velocity)
            }
            opcode @ (op::DRAIN
            | op::RESET_VELOCITY
            | op::CHECK_FINITE
            | op::HELLO
            | op::STATS
            | op::SHUTDOWN) => wire::expect_bodyless(request, opcode),
            other => Err(WireError::UnknownOpcode(other)),
        }
    }

    /// Executes one unwrapped request payload, a batch as a loop over its
    /// items. A request that carries pushes is counted, and the commit its
    /// count makes due ([`PsServer::push_due`]) runs right behind its last
    /// push, whose reply item it follows with a `Synced`: after the acks,
    /// before any pull is read. A request with a `Drain` commits there
    /// instead, once. A bare request that commits is answered as a batch.
    /// Also returns where in `reply` the last item's record begins (for a
    /// bare reply, the reply).
    fn dispatch(
        &mut self,
        request: &[u8],
        batch: Option<wire::BatchItems<'_>>,
        reply: &mut Vec<u8>,
    ) -> Result<(Handled, usize), WireError> {
        let bare = batch.is_none();
        let items = batch.into_iter().flatten().chain(bare.then_some(request));
        let last_push = (items.clone().enumerate())
            .filter(|(_, item)| matches!(item[0], op::PUSH_SHARD | op::PUSH_SHARD_SPARSE))
            .last()
            .map(|(i, _)| i);
        let drains = items.clone().any(|item| item[0] == op::DRAIN);
        let commit_after = last_push.filter(|_| !drains && self.server.push_due());
        let mut last_item = reply.len();
        if bare && commit_after.is_none() {
            return Ok((self.handle_inner(request, reply)?, last_item));
        }
        let head = wire::begin_batch(reply, op::BATCH_REPLY);
        for (i, item) in items.enumerate() {
            last_item = reply.len();
            let mark = wire::open_batch_item(reply);
            // `batch_items` admits no `Shutdown`, so every item replies.
            self.handle_inner(item, reply)?;
            wire::close_batch_item(reply, head, mark);
            if commit_after == Some(i) {
                last_item = reply.len();
                let mark = wire::open_batch_item(reply);
                wire::encode_synced(reply, self.server.commit_all(false));
                wire::close_batch_item(reply, head, mark);
                self.server.stats().record_request(op::SYNC_ROUND, 0);
            }
        }
        Ok((Handled::Reply, last_item))
    }

    fn handle_inner(&mut self, request: &[u8], reply: &mut Vec<u8>) -> Result<Handled, WireError> {
        let opcode = *request.first().ok_or(WireError::Truncated)?;
        match opcode {
            op::PUSH_SHARD | op::PUSH_SHARD_SPARSE => {
                let (shard, lr, momentum, data) = if opcode == op::PUSH_SHARD {
                    let head = wire::decode_push_shard_into(request, &mut self.grad)?;
                    (head.0, head.1, head.2, UpdateData::Dense(&self.grad))
                } else {
                    let (segments, rows) = (&mut self.segments, &mut self.grad);
                    let head = wire::decode_push_shard_sparse_into(request, segments, rows)?;
                    let data = UpdateData::Sparse {
                        indices: segments,
                        rows,
                    };
                    (head.0, head.1, head.2, data)
                };
                let t0 = Instant::now();
                let prev = (self.server).apply_local_data(shard as usize, data, lr, momentum);
                let ns = t0.elapsed().as_nanos() as u64;
                self.server.stats().record_apply(shard as usize, ns);
                wire::encode_push_ack(reply, prev);
            }
            op::PULL_COMMITTED => {
                // The run list is checked in full before the store is
                // touched or a byte of reply is written.
                if wire::decode_pull_runs_into(request, self.params.len(), &mut self.runs)? {
                    wire::begin_pulled(reply, self.runs.iter().map(|r| r.1).sum());
                    self.server.pull_committed_runs(
                        &self.runs,
                        0,
                        &mut self.clocks,
                        |_, values| {
                            wire::put_f32_values(reply, values);
                        },
                    );
                    wire::finish_pulled(reply, &self.clocks);
                } else {
                    self.server
                        .pull_committed_into(&mut self.params, &mut self.clocks);
                    wire::encode_pulled(reply, &self.params, &self.clocks);
                }
            }
            op::DRAIN => wire::encode_synced(reply, self.server.commit_all(true)),
            op::SNAPSHOT => {
                if wire::decode_snapshot_request(request)? {
                    self.server.live().snapshot_velocity_into(&mut self.params);
                } else {
                    self.server.live().snapshot_params_into(&mut self.params);
                }
                wire::encode_snapshot_data(reply, &self.params);
            }
            op::RESTORE => {
                wire::decode_restore_into(request, &mut self.params, &mut self.velocity)?;
                self.server.live().restore(&self.params, &self.velocity);
                wire::encode_bodyless(reply, op::OK);
            }
            op::RESET_VELOCITY => {
                self.server.live().reset_velocity();
                wire::encode_bodyless(reply, op::OK);
            }
            op::CHECK_FINITE => {
                wire::encode_flag(reply, op::FINITE, self.server.live().is_finite());
            }
            op::HELLO => wire::encode_server_info(reply, &self.server.info()),
            op::STATS => {
                // Snapshot taken after this request was counted, so a
                // scrape sees itself — scrapers comparing against client
                // counts use the push/pull/sync opcodes, which it never
                // inflates.
                wire::encode_stats_snapshot(reply, &self.server.stats_snapshot());
            }
            op::SHUTDOWN => return Ok(Handled::Shutdown),
            other => return Err(WireError::UnknownOpcode(other)),
        }
        Ok(Handled::Reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Tier;

    /// An endpoint over one server of `n` parameters in `shards` shards
    /// that commits only when drained.
    fn endpoint(n: usize, shards: usize) -> ServerEndpoint {
        periodic_endpoint(n, shards, u64::MAX)
    }

    fn periodic_endpoint(n: usize, shards: usize, sync_every: u64) -> ServerEndpoint {
        let initial: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
        let server = Tier::new(n, shards, 1, sync_every).server(0, &initial);
        ServerEndpoint::new(Arc::new(server))
    }

    #[test]
    fn endpoint_serves_the_full_protocol() {
        let mut ep = endpoint(10, 2);
        let mut req = Vec::new();
        let mut reply = Vec::new();

        // Push to shard 1 (5 params per shard).
        wire::encode_push_shard(&mut req, 1, 0.5, 0.0, &[1.0; 5]);
        assert_eq!(ep.handle(&req, &mut reply), Ok(Handled::Reply));
        assert_eq!(wire::decode_push_ack(&reply), Ok(0));

        // The committed view has not seen the push yet.
        req.clear();
        wire::encode_bodyless(&mut req, op::PULL_COMMITTED);
        ep.handle(&req, &mut reply).unwrap();
        let mut params = [0.0f32; 10];
        let mut clocks = [0u64; 2];
        wire::decode_pulled_into(&reply, &mut params, &mut clocks).unwrap();
        assert_eq!(clocks, [0, 0]);
        assert!((params[9] - 0.9).abs() < 1e-6);

        // A drain publishes it, and says which commit it was.
        req.clear();
        wire::encode_bodyless(&mut req, op::DRAIN);
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::decode_synced(&reply), Ok(1));
        req.clear();
        wire::encode_bodyless(&mut req, op::PULL_COMMITTED);
        ep.handle(&req, &mut reply).unwrap();
        wire::decode_pulled_into(&reply, &mut params, &mut clocks).unwrap();
        assert_eq!(clocks, [0, 1]);
        assert!((params[9] - 0.4).abs() < 1e-6, "p9 = {}", params[9]);

        // Finiteness and shutdown.
        req.clear();
        wire::encode_bodyless(&mut req, op::CHECK_FINITE);
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::decode_finite(&reply), Ok(true));
        req.clear();
        wire::encode_bodyless(&mut req, op::SHUTDOWN);
        assert_eq!(ep.handle(&req, &mut reply), Ok(Handled::Shutdown));
    }

    #[test]
    fn endpoint_sparse_push_matches_dense_scatter() {
        // Same state through PUSH_SHARD with a scattered-zero gradient and
        // through PUSH_SHARD_SPARSE with only the touched segment.
        let mut dense_ep = endpoint(20, 2);
        let mut sparse_ep = endpoint(20, 2);
        let mut req = Vec::new();
        let mut reply = Vec::new();
        // Shard 0 holds 10 params; touch [1..3).
        let mut grad = [0.0f32; 10];
        grad[1] = 2.0;
        grad[2] = -1.0;
        wire::encode_push_shard(&mut req, 0, 0.2, 0.9, &grad);
        dense_ep.handle(&req, &mut reply).unwrap();
        let dense_ack = wire::decode_push_ack(&reply).unwrap();
        let dense_bytes = req.len();
        req.clear();
        wire::encode_push_shard_sparse(&mut req, 0, 0.2, 0.9, &[(1, 2)], &[2.0, -1.0]);
        sparse_ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(dense_ack));
        assert!(req.len() < dense_bytes, "sparse frame not smaller");
        // Both committed views agree after a sync round.
        let mut params_a = [0.0f32; 20];
        let mut params_b = [0.0f32; 20];
        let mut clocks = [0u64; 2];
        for (ep, params) in [
            (&mut dense_ep, &mut params_a),
            (&mut sparse_ep, &mut params_b),
        ] {
            req.clear();
            wire::encode_bodyless(&mut req, op::DRAIN);
            ep.handle(&req, &mut reply).unwrap();
            req.clear();
            wire::encode_bodyless(&mut req, op::PULL_COMMITTED);
            ep.handle(&req, &mut reply).unwrap();
            wire::decode_pulled_into(&reply, params, &mut clocks).unwrap();
        }
        assert_eq!(params_a, params_b);
        assert_eq!(clocks, [1, 0]);
    }

    #[test]
    fn endpoint_pulls_runs_and_rejects_bad_lists_untouched() {
        let mut ep = endpoint(10, 2);
        let mut req = Vec::new();
        let mut reply = Vec::new();
        // Move shard 1 and publish it, so clocks and data are not initial.
        wire::encode_push_shard(&mut req, 1, 0.5, 0.0, &[1.0; 5]);
        ep.handle(&req, &mut reply).unwrap();
        req.clear();
        wire::encode_bodyless(&mut req, op::DRAIN);
        ep.handle(&req, &mut reply).unwrap();
        req.clear();
        wire::encode_bodyless(&mut req, op::PULL_COMMITTED);
        ep.handle(&req, &mut reply).unwrap();
        let full_len = reply.len();
        let mut full = [0.0f32; 10];
        let mut full_clocks = [0u64; 2];
        wire::decode_pulled_into(&reply, &mut full, &mut full_clocks).unwrap();
        assert_eq!(full_clocks, [0, 1]);

        // Runs inside shard 0, across the shard boundary, and none at all:
        // the listed positions arrive, nothing else does, every clock does.
        for runs in [&[(1usize, 2usize), (4, 3), (9, 1)][..], &[(0, 10)], &[]] {
            req.clear();
            wire::encode_pull_runs(&mut req, runs.iter().copied());
            assert_eq!(ep.handle(&req, &mut reply), Ok(Handled::Reply));
            let mut got = [f32::NAN; 10];
            let mut clocks = [9u64; 2];
            wire::decode_pulled_runs_into(&reply, runs.iter().copied(), &mut got, &mut clocks)
                .unwrap();
            assert_eq!(clocks, full_clocks);
            for i in 0..10 {
                if runs.iter().any(|&(o, l)| (o..o + l).contains(&i)) {
                    assert_eq!(got[i], full[i], "position {i}");
                } else {
                    assert!(got[i].is_nan(), "position {i} was not asked for");
                }
            }
            let asked: usize = runs.iter().map(|r| r.1).sum();
            assert_eq!(reply.len(), full_len - 4 * (10 - asked));
        }
        // Both forms are pulls to the accounting.
        assert_eq!(
            ep.server.stats_snapshot().requests_for(op::PULL_COMMITTED),
            4
        );

        // A list that breaks the contract is an error before anything is
        // read or written: no reply bytes, and the endpoint serves on.
        for bad in [
            &[(0u32, 0u32)][..],
            &[(4, 2), (2, 1)],
            &[(0, 3), (2, 2)],
            &[(8, 3)],
        ] {
            // By hand: the client-side encoder asserts the same contract.
            req.clear();
            req.push(op::PULL_COMMITTED);
            req.extend_from_slice(&(bad.len() as u32).to_le_bytes());
            for (start, len) in bad {
                req.extend_from_slice(&start.to_le_bytes());
                req.extend_from_slice(&len.to_le_bytes());
            }
            assert!(matches!(
                ep.handle(&req, &mut reply),
                Err(WireError::BadRun(_))
            ));
            assert!(reply.is_empty(), "partial reply to {bad:?}");
        }
        req.clear();
        wire::encode_pull_runs(&mut req, [(0usize, 10usize)].into_iter());
        assert_eq!(ep.handle(&req, &mut reply), Ok(Handled::Reply));
    }

    #[test]
    fn snapshot_restore_round_trip_over_the_endpoint() {
        let mut ep = endpoint(6, 2);
        let mut req = Vec::new();
        let mut reply = Vec::new();
        wire::encode_push_shard(&mut req, 0, 0.1, 0.9, &[1.0; 3]);
        ep.handle(&req, &mut reply).unwrap();

        let snap = |ep: &mut ServerEndpoint, velocity: bool| -> Vec<f32> {
            let mut req = Vec::new();
            wire::encode_flag(&mut req, op::SNAPSHOT, velocity);
            let mut reply = Vec::new();
            ep.handle(&req, &mut reply).unwrap();
            let mut data = vec![0.0; 6];
            wire::decode_snapshot_into(&reply, &mut data).unwrap();
            data
        };
        let params = snap(&mut ep, false);
        let velocity = snap(&mut ep, true);
        assert!(velocity[..3].iter().all(|&v| v != 0.0));

        // Mutate, then restore.
        req.clear();
        wire::encode_push_shard(&mut req, 0, 0.7, 0.9, &[2.0; 3]);
        ep.handle(&req, &mut reply).unwrap();
        assert_ne!(snap(&mut ep, false), params);
        req.clear();
        wire::encode_restore(&mut req, &params, &velocity);
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::expect_bodyless(&reply, op::OK), Ok(()));
        assert_eq!(snap(&mut ep, false), params);
        assert_eq!(snap(&mut ep, true), velocity);

        // Velocity reset.
        req.clear();
        wire::encode_bodyless(&mut req, op::RESET_VELOCITY);
        ep.handle(&req, &mut reply).unwrap();
        assert!(snap(&mut ep, true).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn duplicate_sequenced_push_replays_cached_ack() {
        let mut ep = endpoint(10, 2);
        let mut req = Vec::new();
        let mut reply = Vec::new();
        wire::encode_sequenced_prefix(&mut req, 7, 0);
        wire::encode_push_shard(&mut req, 1, 0.5, 0.0, &[1.0; 5]);
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(0));
        // Same (client, seq): the apply does not land twice and the ack is
        // byte-identical (same pre-apply clock, not the advanced one).
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(0));
        // A new seq from the same client executes.
        req.clear();
        wire::encode_sequenced_prefix(&mut req, 7, 1);
        wire::encode_push_shard(&mut req, 1, 0.5, 0.0, &[1.0; 5]);
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(1));
        // A different client is not confused by client 7's window.
        req.clear();
        wire::encode_sequenced_prefix(&mut req, 8, 1);
        wire::encode_push_shard(&mut req, 1, 0.5, 0.0, &[1.0; 5]);
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(2));
    }

    /// `[BATCH]` of dense pushes to local shards `shards` (5 params each).
    fn push_batch(shards: &[u32]) -> Vec<u8> {
        let mut req = Vec::new();
        let head = wire::begin_batch(&mut req, op::BATCH);
        for &shard in shards {
            let mark = wire::open_batch_item(&mut req);
            wire::encode_push_shard(&mut req, shard, 0.5, 0.0, &[1.0; 5]);
            wire::close_batch_item(&mut req, head, mark);
        }
        req
    }

    fn batch_acks(reply: &[u8]) -> Vec<u64> {
        wire::batch_items(reply, op::BATCH_REPLY)
            .unwrap()
            .map(|ack| wire::decode_push_ack(ack).unwrap())
            .collect()
    }

    #[test]
    fn batch_executes_in_order_and_is_deduplicated_as_a_whole() {
        let mut ep = endpoint(10, 2);
        let mut reply = Vec::new();
        // Shard 1 twice, then shard 0: each ack is that shard's clock
        // before its own apply, in request order.
        let batch = push_batch(&[1, 1, 0]);
        assert_eq!(ep.handle(&batch, &mut reply), Ok(Handled::Reply));
        assert_eq!(batch_acks(&reply), [0, 1, 0]);
        // One sequence number covers a batch: the duplicate replays the
        // cached batch reply byte for byte and applies nothing.
        let mut req = Vec::new();
        wire::encode_sequenced_prefix(&mut req, 7, 0);
        req.extend_from_slice(&batch);
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(batch_acks(&reply), [2, 3, 1]);
        let first = reply.clone();
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(reply, first);
        // Accounting is per logical request, whatever the framing: six
        // applied pushes and the three replayed ones under PUSH_SHARD, one
        // dedup hit, nothing under BATCH, and every byte received counted.
        let snap = ep.server.stats_snapshot();
        assert_eq!(snap.requests_for(op::PUSH_SHARD), 9);
        assert_eq!(snap.requests_for(op::BATCH), 0);
        assert_eq!(snap.dedup_hits, 1);
        assert_eq!(snap.apply_ns.count, 6);
        assert_eq!(snap.shard_applies, vec![2, 4]);
        assert_eq!(snap.bytes_in, (batch.len() + 2 * req.len()) as u64);
        assert_eq!(snap.bytes_out, 3 * first.len() as u64);
    }

    #[test]
    fn fused_push_caches_its_acks_only_and_a_replay_pulls_again() {
        // 120 k dense parameters in two shards: a pull reply is ~480 KB.
        let (n, shard) = (120_000, 60_000);
        let mut ep = endpoint(n, 2);
        let server = Arc::clone(&ep.server);
        let cached = |client| server.seq_entry(client).lock().reply.len();
        // A sequenced `[push 0, push 1]`, with or without a trailing pull.
        let request = |client: u64, with_pull: bool| {
            let mut req = Vec::new();
            wire::encode_sequenced_prefix(&mut req, client, 0);
            let head = wire::begin_batch(&mut req, op::BATCH);
            for local in 0..2 {
                let mark = wire::open_batch_item(&mut req);
                wire::encode_push_shard(&mut req, local, 0.5, 0.0, &vec![1.0; shard]);
                wire::close_batch_item(&mut req, head, mark);
            }
            if with_pull {
                wire::put_bodyless_item(&mut req, head, op::PULL_COMMITTED);
            }
            req
        };
        let mut reply = Vec::new();
        ep.handle(&request(7, false), &mut reply).unwrap();
        let plain_reply = reply.len();
        let fused = request(8, true);
        ep.handle(&fused, &mut reply).unwrap();
        assert!(reply.len() > plain_reply + 4 * n, "no image in the reply");
        // What the server keeps for the fused push is what it keeps for the
        // plain one: the batch header and two acks.
        assert_eq!(cached(8), cached(7));
        assert_eq!(cached(8), plain_reply);

        // A duplicate replays the acks, applies nothing, and reads again:
        // byte for byte the first reply while no round has run ...
        let first = reply.clone();
        ep.handle(&fused, &mut reply).unwrap();
        assert_eq!(reply, first);
        // ... and the newly committed view once one has, behind the same
        // acks (the client dates the image from before its first send).
        let mut sync = Vec::new();
        wire::encode_bodyless(&mut sync, op::DRAIN);
        ep.handle(&sync, &mut Vec::new()).unwrap();
        ep.handle(&fused, &mut reply).unwrap();
        let items: Vec<&[u8]> = wire::batch_items(&reply, op::BATCH_REPLY)
            .unwrap()
            .collect();
        assert_eq!(items.len(), 3);
        assert_eq!(wire::decode_push_ack(items[0]), Ok(1));
        assert_eq!(wire::decode_push_ack(items[1]), Ok(1));
        let mut params = vec![0.0f32; n];
        let mut clocks = [0u64; 2];
        wire::decode_pulled_into(items[2], &mut params, &mut clocks).unwrap();
        assert_eq!(clocks, [2, 2]);
        assert_eq!(params, server.live().snapshot_params());
        assert_eq!(cached(8), plain_reply, "a replay must not grow the cache");
        let snap = server.stats_snapshot();
        assert_eq!(snap.dedup_hits, 2);
        assert_eq!(snap.apply_ns.count, 4, "replays must not re-apply");
        assert_eq!(snap.requests_for(op::PULL_COMMITTED), 3);
    }

    #[test]
    fn every_period_of_push_requests_commits_behind_its_acks() {
        let mut ep = periodic_endpoint(10, 2, 2);
        let server = Arc::clone(&ep.server);
        let mut reply = Vec::new();
        let items = |reply: &[u8]| -> Vec<Vec<u8>> {
            let items = wire::batch_items(reply, op::BATCH_REPLY).unwrap();
            items.map(<[u8]>::to_vec).collect()
        };
        // `[push 0, push 1, pull]`: one count, however many shards.
        let mut fused = push_batch(&[0, 1]);
        wire::put_bodyless_item(&mut fused, 0, op::PULL_COMMITTED);
        ep.handle(&fused, &mut reply).unwrap();
        assert_eq!(items(&reply).len(), 3, "the first request is not due");
        // The second is: its commit lands after the acks and before the
        // pull, which reads it.
        ep.handle(&fused, &mut reply).unwrap();
        let got = items(&reply);
        assert_eq!(got.len(), 4);
        assert_eq!(wire::decode_push_ack(&got[1]), Ok(1));
        assert_eq!(wire::decode_synced(&got[2]), Ok(1));
        let (mut params, mut clocks) = ([0.0f32; 10], [0u64; 2]);
        wire::decode_pulled_into(&got[3], &mut params, &mut clocks).unwrap();
        assert_eq!(clocks, [2, 2]);
        // A bare push that makes a commit due is answered as a batch.
        let mut push = Vec::new();
        wire::encode_push_shard(&mut push, 1, 0.5, 0.0, &[1.0; 5]);
        ep.handle(&push, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(2));
        let mut seq = Vec::new();
        wire::encode_sequenced_prefix(&mut seq, 4, 0);
        seq.extend_from_slice(&push);
        ep.handle(&seq, &mut reply).unwrap();
        let got = items(&reply);
        assert_eq!(wire::decode_push_ack(&got[0]), Ok(3));
        assert_eq!(wire::decode_synced(&got[1]), Ok(2));
        // A replay is neither counted nor committed again: it returns the
        // cached epoch.
        let first = reply.clone();
        ep.handle(&seq, &mut reply).unwrap();
        assert_eq!(reply, first);
        // A drain commits once and starts the period over.
        let mut drain = push_batch(&[0]);
        wire::put_bodyless_item(&mut drain, 0, op::DRAIN);
        ep.handle(&drain, &mut reply).unwrap();
        let got = items(&reply);
        assert_eq!(got.len(), 2);
        assert_eq!(wire::decode_synced(&got[1]), Ok(3));
        ep.handle(&push, &mut reply).unwrap();
        assert_eq!(
            wire::decode_push_ack(&reply),
            Ok(4),
            "the period starts over"
        );
        ep.handle(&push, &mut reply).unwrap();
        assert_eq!(wire::decode_synced(&items(&reply)[1]), Ok(4));
        // Periodic commits book as `SyncRound`, drains as `Drain`; only a
        // drain is a request a client may send.
        let snap = server.stats_snapshot();
        assert_eq!(snap.requests_for(op::SYNC_ROUND), 3);
        assert_eq!(snap.requests_for(op::DRAIN), 1);
        assert_eq!(snap.dedup_hits, 1);
        let mut round = Vec::new();
        wire::encode_bodyless(&mut round, op::SYNC_ROUND);
        let err = ep.handle(&round, &mut reply);
        assert_eq!(err, Err(WireError::UnknownOpcode(op::SYNC_ROUND)));
    }

    #[test]
    fn malformed_batches_are_rejected_before_anything_applies() {
        let mut ep = endpoint(10, 2);
        let mut reply = Vec::new();
        let good = push_batch(&[0, 1]);
        let mut nested = Vec::new();
        let head = wire::begin_batch(&mut nested, op::BATCH);
        for inner in [&push_batch(&[0])[..], &good[..]] {
            let mark = wire::open_batch_item(&mut nested);
            nested.extend_from_slice(inner);
            wire::close_batch_item(&mut nested, head, mark);
        }
        let mut shutdown = push_batch(&[0]);
        let mark = wire::open_batch_item(&mut shutdown);
        shutdown.push(op::SHUTDOWN);
        wire::close_batch_item(&mut shutdown, 0, mark);
        let mut overcount = good.clone();
        overcount[1..3].copy_from_slice(&3u16.to_le_bytes());
        let mut trailing = good.clone();
        trailing.push(0);
        for bad in [
            &good[..good.len() - 2],
            &nested[..],
            &shutdown[..],
            &overcount[..],
            &trailing[..],
        ] {
            assert!(ep.handle(bad, &mut reply).is_err());
            // Also behind the sequencing wrapper, where nothing is cached.
            let mut req = Vec::new();
            wire::encode_sequenced_prefix(&mut req, 3, 0);
            req.extend_from_slice(bad);
            assert!(ep.handle(&req, &mut reply).is_err());
        }
        // The well-formed first items of those frames never ran.
        let snap = ep.server.stats_snapshot();
        assert_eq!(snap.apply_ns.count, 0);
        assert_eq!(snap.requests_for(op::PUSH_SHARD), 0);
        // An item that is framed right but does not decode fails the batch
        // unacked; the sequence number stays free for the corrected re-send.
        let mut req = Vec::new();
        wire::encode_sequenced_prefix(&mut req, 3, 0);
        let head = wire::begin_batch(&mut req, op::BATCH);
        let mark = wire::open_batch_item(&mut req);
        req.extend_from_slice(&[op::PUSH_SHARD, 0, 0]);
        wire::close_batch_item(&mut req, head, mark);
        assert!(ep.handle(&req, &mut reply).is_err());
        let mut req = Vec::new();
        wire::encode_sequenced_prefix(&mut req, 3, 0);
        req.extend_from_slice(&good);
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(batch_acks(&reply), [0, 0]);
    }

    #[test]
    fn dedup_table_stays_bounded_and_keeps_connected_clients() {
        use crate::server::SEQ_DEDUP_CAP;
        let mut live = endpoint(10, 2);
        let server = Arc::clone(&live.server);
        let mut reply = Vec::new();
        let push = |client: u64, seq: u32| {
            let mut req = Vec::new();
            wire::encode_sequenced_prefix(&mut req, client, seq);
            wire::encode_push_shard(&mut req, 1, 0.5, 0.0, &[1.0; 5]);
            req
        };
        // A connected client: its handler endpoint keeps serving it.
        let live_req = push(u64::MAX, 0);
        live.handle(&live_req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(0));
        // Ten thousand other clients come and go through another handler.
        let mut churn = ServerEndpoint::new(Arc::clone(&server));
        for client in 0..10_000u64 {
            churn.handle(&push(client, 0), &mut reply).unwrap();
            assert!(server.seq_clients() <= SEQ_DEDUP_CAP);
        }
        assert_eq!(server.seq_clients(), SEQ_DEDUP_CAP);
        // The connected client's last request still replays — over its own
        // connection and over a fresh one — instead of applying twice.
        let applied = server.stats_snapshot().apply_ns.count;
        live.handle(&live_req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(0));
        let mut fresh = ServerEndpoint::new(Arc::clone(&server));
        fresh.handle(&live_req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(0));
        assert_eq!(server.stats_snapshot().apply_ns.count, applied);
        // So does the most recent churned client's; the oldest was evicted.
        churn.handle(&push(9_999, 0), &mut reply).unwrap();
        assert_eq!(server.stats_snapshot().apply_ns.count, applied);
        churn.handle(&push(0, 0), &mut reply).unwrap();
        assert_eq!(server.stats_snapshot().apply_ns.count, applied + 1);
    }

    #[test]
    fn hello_reports_identity_and_nonce_changes_on_replacement() {
        let initial: Vec<f32> = (0..10).map(|i| i as f32 * 0.1).collect();
        let tier = Tier::new(10, 2, 1, 4);
        let server = Arc::new(tier.server(0, &initial));
        let mut ep = ServerEndpoint::new(server.clone());
        let mut req = Vec::new();
        let mut reply = Vec::new();
        wire::encode_bodyless(&mut req, op::HELLO);
        assert_eq!(ep.handle(&req, &mut reply), Ok(Handled::Reply));
        let info = wire::decode_server_info(&reply).unwrap();
        assert_eq!(info.nonce, server.nonce());
        assert_eq!(info.server, 0);
        assert_eq!(info.first_shard, 0);
        assert_eq!(info.shard_count, 2);
        assert_eq!(info.param_offset, 0);
        assert_eq!(info.param_len, 10);
        assert_eq!(info.sync_every, 4);
        // A replacement instance — same slice, fresh construction — answers
        // with a different nonce: how respawns are detected on the wire.
        let fresh = Arc::new(tier.server(0, &initial));
        let mut ep2 = ServerEndpoint::new(fresh);
        ep2.handle(&req, &mut reply).unwrap();
        let info2 = wire::decode_server_info(&reply).unwrap();
        assert_ne!(info2.nonce, info.nonce);
        assert_eq!(info2.first_shard, info.first_shard);
    }

    #[test]
    fn stats_frame_reports_request_accounting() {
        let mut ep = endpoint(10, 2);
        let mut req = Vec::new();
        let mut reply = Vec::new();
        wire::encode_push_shard(&mut req, 1, 0.5, 0.0, &[1.0; 5]);
        let push_bytes = req.len();
        ep.handle(&req, &mut reply).unwrap();
        req.clear();
        wire::encode_bodyless(&mut req, op::PULL_COMMITTED);
        ep.handle(&req, &mut reply).unwrap();
        // A duplicate sequenced push counts under PUSH_SHARD (the inner
        // opcode) and as a dedup hit, without re-applying.
        req.clear();
        wire::encode_sequenced_prefix(&mut req, 3, 0);
        wire::encode_push_shard(&mut req, 0, 0.5, 0.0, &[1.0; 5]);
        ep.handle(&req, &mut reply).unwrap();
        ep.handle(&req, &mut reply).unwrap();
        req.clear();
        wire::encode_bodyless(&mut req, op::STATS);
        ep.handle(&req, &mut reply).unwrap();
        let snap = wire::decode_stats_snapshot(&reply).unwrap();
        assert_eq!(snap.requests_for(op::PUSH_SHARD), 3);
        assert_eq!(snap.requests_for(op::PULL_COMMITTED), 1);
        assert_eq!(snap.requests_for(op::STATS), 1, "scrape sees itself");
        assert_eq!(snap.dedup_hits, 1);
        assert!(snap.bytes_in >= push_bytes as u64);
        assert!(snap.bytes_out > 0);
        assert_eq!(snap.apply_ns.count, 2, "replay must not re-apply");
        assert_eq!(snap.shard_applies, vec![1, 1]);
        assert!(snap.shard_apply_ns.iter().all(|&ns| ns > 0));
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let mut ep = endpoint(4, 1);
        let mut reply = Vec::new();
        assert!(ep.handle(&[], &mut reply).is_err());
        assert!(ep.handle(&[0x7f], &mut reply).is_err());
        // Truncated push.
        let mut req = Vec::new();
        wire::encode_push_shard(&mut req, 0, 0.1, 0.0, &[1.0; 4]);
        assert!(ep.handle(&req[..req.len() - 2], &mut reply).is_err());
    }

    #[test]
    fn requests_that_do_not_fit_the_slice_change_nothing() {
        // Two shards of 5; shard 1 has moved, so its velocity is live too.
        let mut ep = endpoint(10, 2);
        let mut reply = Vec::new();
        let mut req = Vec::new();
        wire::encode_push_shard(&mut req, 1, 0.5, 0.9, &[1.0; 5]);
        ep.handle(&req, &mut reply).unwrap();
        let server = Arc::clone(&ep.server);
        let state = || {
            let live = server.live();
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            let clocks: Vec<u64> = (0..2).map(|k| live.shard_version(k)).collect();
            (
                bits(live.snapshot_params()),
                bits(live.snapshot_velocity()),
                clocks,
            )
        };
        let before = state();
        let push = |shard: u32, n: usize| {
            let mut req = Vec::new();
            wire::encode_push_shard(&mut req, shard, 0.5, 0.9, &vec![1.0; n]);
            req
        };
        let sparse = |segments: &[(u32, u32)], n: usize| {
            let mut req = Vec::new();
            wire::encode_push_shard_sparse(&mut req, 0, 0.5, 0.9, segments, &vec![1.0; n]);
            req
        };
        // `[valid push to shard 0, push to shard 99]`, bare and sequenced.
        let batch = {
            let mut req = Vec::new();
            let head = wire::begin_batch(&mut req, op::BATCH);
            for item in [push(0, 5), push(99, 5)] {
                let mark = wire::open_batch_item(&mut req);
                req.extend_from_slice(&item);
                wire::close_batch_item(&mut req, head, mark);
            }
            req
        };
        let mut sequenced = Vec::new();
        wire::encode_sequenced_prefix(&mut sequenced, 5, 0);
        sequenced.extend_from_slice(&batch);
        let mut restore = Vec::new();
        wire::encode_restore(&mut restore, &[0.0; 9], &[0.0; 9]);
        for bad in [
            push(2, 5),
            push(99, 5),
            push(0, 4),
            push(0, 6),
            // The first segment fits; the second runs past the shard.
            sparse(&[(0, 2), (4, 3)], 5),
            sparse(&[(2, 2), (0, 1)], 3),
            sparse(&[(0, 3), (2, 2)], 5),
            sparse(&[(0, 2)], 3),
            sparse(&[(u32::MAX, 2)], 2),
            restore,
            batch,
            sequenced,
        ] {
            assert!(matches!(
                ep.handle(&bad, &mut reply),
                Err(WireError::Misfit(_) | WireError::Truncated)
            ));
            assert_eq!(state(), before);
        }
        assert_eq!(server.live().shard_version(0), 0);
        assert_eq!(ep.server.stats_snapshot().apply_ns.count, 1);
        // The server serves on, and the refused sequence number stays free.
        let mut req = Vec::new();
        wire::encode_sequenced_prefix(&mut req, 5, 0);
        req.extend_from_slice(&push(0, 5));
        ep.handle(&req, &mut reply).unwrap();
        assert_eq!(wire::decode_push_ack(&reply), Ok(0));
    }
}
