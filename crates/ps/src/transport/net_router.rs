//! The shard router, the one client of a multi-server tier: the [`Tier`] —
//! ownership layout, cluster version clock, OSP-style two-stage schedule —
//! with every server interaction crossing a [`Transport`].
//!
//! The split of responsibilities mirrors a real PS deployment:
//!
//! * **Server-side state** (live + committed stores, shard clocks) lives in
//!   the [`PsServer`]s owned by the transport's serving loops; the client
//!   can only reach it through request/reply frames.
//! * **Client-side state** is the [`Tier`], shared by all workers of one
//!   trainer. This router is its one client on every multi-server plane —
//!   the in-process one runs it over the threadless direct transport — so
//!   staleness is measured and rounds are scheduled by one piece of code.
//!   What this file adds is how a commit-all reaches a server (a
//!   `SyncRound`/`Drain` frame under the retry policy) and what the round
//!   lock guards (the control-plane connections).
//!
//! Workers hold a [`NetPort`] clone each; a clone lazily opens its own
//! connection per server (connection-per-worker on every backend), so
//! worker threads never share a socket or contend on a connection lock. A
//! trainer keeps each worker's clone across segments and drops it only on
//! a failed segment or a restore, so a worker dials each server once per
//! lifetime, not once per segment.
//!
//! Every operation is strictly request/reply, and every data-plane request
//! has one shape, `[push × n][SyncRound | Drain]?[PullCommitted]?`, built
//! by one encoder and read by one decoder ([`NetRouter::send`]); only a
//! pull by run has a frame of its own. Each round trip is booked from its
//! own items ([`Split::of`]; the rule is stated on [`TransportStats`]), so
//! the client's operation counts equal the servers' per-opcode counts.
//!
//! * **A push** sends each server *all* of the worker's shards it owns in
//!   one request: pushes are staged per server
//!   ([`NetPort::queue_shard_update`] encodes straight into the port's
//!   staging buffer for the owner) and go out together on
//!   [`NetPort::flush_pushes`], server by server ([`NetRouter::send_all`]).
//!   Round trips to different servers are not overlapped: on a small box
//!   the extra runnable threads cost more than the overlap saves.
//! * **A pull** asks each server for the runs the step reads, or its slice
//!   (every server answers either way — its clocks date the pull). After a
//!   whole-vector pull the worker's next push asks for the next one too.
//!   The `Pulled` image stays in the connection's reply buffer until
//!   [`NetPort::pull_into`] decodes it. A pull by run never rides: which
//!   runs the next step reads is unknown before its batch is drawn.
//! * **An asynchronous stage-2 round** rides the push that makes it due
//!   ([`NetRouter::flush`]): every push takes a ticket, every
//!   `sync_every`-th ticket claims a round ([`Tier::claim_round`], which
//!   moves the watermark before anything is sent), and its push takes the
//!   round lock and sends each server its pushes, a `SyncRound` and the
//!   pull as one request. Only a push sent shard by shard, whose ticket
//!   [`NetPort::after_push`] takes, a drain and a restore pay a round trip
//!   of their own for a round, over the control plane.
//! * **A BSP round** is one request per server too: the worker that
//!   completes it ([`crate::WorkerPort::commit_round`]) sends each server
//!   its averaged stripes, a `Drain` and a `PullCommitted`, and decodes the
//!   images into the round's image, which every worker of the round starts
//!   the next one from, as on the single store.
//!
//! **The stamp rule.** Each image is stamped with its server's *view epoch*
//! ([`NetRouter::view_epochs`]) read before the request is first sent, or
//! the one the request's own commit ticks it to, and is served only while
//! the epoch still reads the same. The epoch ticks
//! when the server acknowledges a commit-all, before the round that sent it
//! is complete; so if it has not moved, every round completed by now had
//! this server's commit acknowledged before the image was asked for, and
//! the image holds it. Hence a served pull is exactly what asking would
//! return — the committed view changes on commits only — and a pull still
//! reflects every round completed before it was asked for. A handshake
//! that finds a server replaced ticks its epoch too, and a restore ends in
//! a commit-all. The epochs, like the version clock, the round counter and
//! the barrier, live in this process: two `ps-worker` processes sharing a
//! tier each date their images by their own rounds only (see [`Tier`]).

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sync_switch_telemetry::{Counter, ServerStatsSnapshot, Telemetry, TraceKind};

use super::channel::ChannelTransport;
use super::direct::DirectTransport;
use super::faulty::FaultyTransport;
use super::tcp::TcpTransport;
use super::wire::{self, op, ServerInfo, WireError};
use super::{Conn, Transport};
use crate::config::{RetryPolicy, ServerTopology, TransportKind};
use crate::error::PsError;
use crate::profiler::{TransportStats, WireOp};
use crate::router::Tier;
use crate::server::{next_nonce, PsServer};
use crate::store::{runs_within, PullBuffer, UpdateData};

/// Process-local deterministic jitter stream for retry backoff
/// (decorrelates workers that fail simultaneously without pulling in an
/// entropy source).
static JITTER_STATE: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

fn jitter_ms(cap: u64) -> u64 {
    let mut x = JITTER_STATE.fetch_add(0xa076_1d64_78bd_642f, Ordering::Relaxed);
    x ^= x >> 33;
    x = x.wrapping_mul(0xe993_7d59_3d0d_85f2);
    x ^= x >> 29;
    if cap == 0 {
        0
    } else {
        x % cap
    }
}

/// Cumulative wire counters for one operation class, in [`WireOp`]'s field
/// order: operations, round trips, wire nanoseconds, bytes out, bytes in
/// (lock-free; workers on different threads record concurrently).
#[derive(Debug, Default)]
struct OpCounters([AtomicU64; 5]);

impl OpCounters {
    fn record(&self, values: [u64; 5]) {
        // Relaxed throughout: these are statistics counters; nothing is
        // published through them and cross-counter skew is tolerable.
        for (counter, v) in self.0.iter().zip(values) {
            counter.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> WireOp {
        let [ops, round_trips, wire_ns, bytes_out, bytes_in] =
            self.0.each_ref().map(|c| c.load(Ordering::Relaxed));
        WireOp {
            ops,
            round_trips,
            wire_ns,
            bytes_out,
            bytes_in,
        }
    }
}

/// The wire-stats classes, as indices into [`WireCounters::classes`].
const PUSH: usize = 0;
const PULL: usize = 1;
const SYNC: usize = 2;

/// The class a data-plane request or reply opcode is booked under; `None`
/// for the control plane, which is not booked.
fn class_of(opcode: u8) -> Option<usize> {
    match opcode {
        op::PUSH_SHARD | op::PUSH_SHARD_SPARSE | op::PUSH_ACK => Some(PUSH),
        op::PULL_COMMITTED | op::PULLED => Some(PULL),
        op::SYNC_ROUND | op::DRAIN | op::SYNCED => Some(SYNC),
        _ => None,
    }
}

#[derive(Debug, Default)]
struct WireCounters {
    /// Push, pull and sync.
    classes: [OpCounters; 3],
    /// Connections re-established after breaking.
    reconnects: AtomicU64,
}

/// One side of a round trip as the booking rule splits it: per class, the
/// items and the bytes it carries, and the class of its first item.
#[derive(Default)]
struct Split {
    items: [u64; 3],
    bytes: [u64; 3],
    first: Option<usize>,
}

impl Split {
    /// The booking rule ([`TransportStats`]) for one side of a round trip:
    /// splits `payload` — a bare request or reply, or a batch of them
    /// (`batch` is [`op::BATCH`] or [`op::BATCH_REPLY`]), sequenced or not —
    /// so that each item, its 4-byte length prefix included, goes to its
    /// opcode's class, and the framing (the sequencing prefix, the batch
    /// header) to the first item's. The round trip and its wire time go
    /// there too ([`NetRouter::book`]).
    fn of(payload: &[u8], batch: u8) -> Self {
        let inner = wire::decode_sequenced_prefix(payload).map_or(payload, |(_, _, inner)| inner);
        let mut split = Split::default();
        let mut framing = payload.len();
        if inner.first() == Some(&batch) {
            for item in wire::batch_items(inner, batch).into_iter().flatten() {
                split.add(item, item.len() + 4);
                framing -= item.len() + 4;
            }
        } else {
            split.add(inner, inner.len());
            framing -= inner.len();
        }
        if let Some(c) = split.first {
            split.bytes[c] += framing as u64;
        }
        split
    }

    fn add(&mut self, item: &[u8], bytes: usize) {
        let Some(c) = item.first().copied().and_then(class_of) else {
            return;
        };
        self.first.get_or_insert(c);
        self.items[c] += 1;
        self.bytes[c] += bytes as u64;
    }
}

/// What a data-plane request brings home of the server's committed view.
enum Pull<'a> {
    /// Nothing: no `PullCommitted` rides.
    No,
    /// The whole image, left on the connection under its stamp for
    /// [`NetPort::pull_into`] to decode.
    Prefetch,
    /// The whole image, decoded at once into this server's part of an
    /// image: its parameters and its shards' clocks.
    Into(&'a mut [f32], &'a mut [u64]),
}

/// The one data-plane request encoder: the `n` pushes `staged` holds
/// (`[BATCH][u16 n]` then their items), then `commit` (`SyncRound` or
/// `Drain`), then a `PullCommitted` if `pull` — as one batch, or as a bare
/// frame when that is a single item.
fn encode_request(buf: &mut Vec<u8>, staged: &[u8], n: usize, commit: Option<u8>, pull: bool) {
    let tail = commit.into_iter().chain(pull.then_some(op::PULL_COMMITTED));
    if n + tail.clone().count() == 1 {
        // No batch header and no length prefix.
        match tail.last() {
            Some(opcode) => wire::encode_bodyless(buf, opcode),
            None => buf.extend_from_slice(&staged[wire::BATCH_HEADER_BYTES + 4..]),
        }
        return;
    }
    let head = buf.len();
    if n == 0 {
        wire::begin_batch(buf, op::BATCH);
    } else {
        buf.extend_from_slice(staged);
    }
    for opcode in tail {
        wire::put_bodyless_item(buf, head, opcode);
    }
}

/// One server's connection slot: the (lazily opened) connection plus the
/// idempotent re-send state — this slot's process-unique client id and its
/// next request sequence number.
#[derive(Debug)]
struct ConnSlot {
    conn: Option<Box<dyn Conn>>,
    /// Set while `conn`'s last reply is a batch reply ending in the server's
    /// whole `Pulled` image: its stamp, a view epoch of the server (see the
    /// stamp rule). The image is what a pull would return for as long as
    /// the epoch still reads the same; any other call on the connection (or
    /// losing it) forgets it.
    prefetch: Option<u64>,
    /// Client id carried in sequenced request headers.
    client: u64,
    /// Sequence of the next mutating request. Advanced only on success, so
    /// every retry of one logical request re-sends the same sequence.
    next_seq: u32,
    /// Whether this slot ever held a connection — distinguishes the first
    /// lazy connect from a reconnect in the stats.
    connected_before: bool,
}

impl ConnSlot {
    fn fresh() -> Self {
        ConnSlot {
            conn: None,
            prefetch: None,
            // Unique across processes too: the servers' dedup windows are
            // keyed by it.
            client: next_nonce(),
            next_seq: 0,
            connected_before: false,
        }
    }

    /// The `Pulled` item a reply on this connection brought along, if it
    /// was taken under the server's view epoch `epoch`.
    fn prefetched(&self, epoch: u64) -> Option<&[u8]> {
        if self.prefetch != Some(epoch) {
            return None;
        }
        let reply = self.conn.as_ref()?.last_reply();
        wire::batch_items(reply, op::BATCH_REPLY).ok()?.last()
    }

    /// Drops the cached connection (the old socket may point at a dead
    /// instance).
    fn invalidate(&mut self) {
        self.conn = None;
        self.prefetch = None;
    }
}

/// A multi-server parameter-server tier reached through a transport: the
/// direct one in-process, a channel or TCP otherwise.
///
/// Every wire operation runs under the topology's [`RetryPolicy`]: a per-op
/// timeout, then bounded re-send with exponential backoff and jitter over a
/// freshly opened connection. Mutating requests carry a `(client, seq)`
/// header so a re-send of an already-applied request is deduplicated
/// server-side (the cached ack is replayed) — a dropped *reply* cannot
/// double-apply a gradient. Only when the budget is exhausted does the
/// failure surface, as the [`PsError`] naming the server that did not
/// answer (`Timeout`, `ConnLost` or `RetriesExhausted`): from the owner ops
/// ([`Self::drain`], [`Self::restore`], [`Self::reset_velocity`]), the
/// probes, [`Self::is_finite`], and the worker-path ops — [`NetPort`]'s
/// pulls, pushes with the rounds their tickets claim, and BSP's round
/// commit — which the engine passes up as its segment's error. Only the
/// reads [`Self::snapshot_params`] and [`Self::snapshot_velocity`] still
/// panic with the error's message.
#[derive(Debug)]
pub struct NetRouter {
    kind: TransportKind,
    /// Layout, ownership map and two-stage clock.
    tier: Tier,
    /// Timeout/retry/backoff budget for every wire operation.
    retry: RetryPolicy,
    stats: WireCounters,
    /// Per server, how many times its committed view may have changed: one
    /// tick for every commit-all it has acknowledged (a round's or a
    /// drain's, ticked as each server answers, before the round is
    /// complete) and for whatever else rewrites it behind the schedule's
    /// back: a replaced instance, once a handshake finds it. Ticked only
    /// under the round lock. An image of server `s` asked for while its
    /// epoch read `e` is what a pull of `s` would return for as long as it
    /// still reads `e`: every round that has completed by then had `s`
    /// acknowledge its commit before the image was asked for.
    view_epochs: Vec<AtomicU64>,
    /// Per server, the instance nonce it last answered a handshake with, or
    /// the one it was launched with; `None` until known.
    instances: Mutex<Vec<Option<u64>>>,
    /// The data plane's telemetry bus: the router emits its wire events on
    /// it (retries, sync rounds, kills, heals), and the trainer over this
    /// router adopts it, so they share a clock and a trace with the
    /// engine's step spans.
    telemetry: Arc<Telemetry>,
    /// `wire.sync_rounds`, `wire.retries` and `wire.requests` (requests
    /// answered) on that bus, resolved once. `wire.retries` is the one
    /// retry count: [`NetRouter::stats`] reads it.
    sync_rounds_counter: Arc<Counter>,
    retries_counter: Arc<Counter>,
    requests_counter: Arc<Counter>,
    /// Serializes stage-2 rounds and the control plane; holds the control
    /// plane's dedicated connections (a round a worker's port runs holds
    /// the lock but travels over the worker's own).
    ///
    /// Field order is load-bearing: `sync` (and the conns inside it) must
    /// drop before `transport`, whose Drop joins the serving threads and
    /// would otherwise wait on our own open connections.
    sync: Mutex<PortState>,
    transport: Box<dyn Transport>,
}

impl NetRouter {
    /// Builds the servers, launches the serving infrastructure for
    /// `topology.transport` — none for [`TransportKind::InProcess`], whose
    /// connections serve requests on the caller's thread — and returns the
    /// client router. Servers are clamped to the shard count, shards to the
    /// parameter count.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, `shards == 0`, the topology is
    /// invalid, or a TCP listener cannot bind.
    pub fn launch(initial: &[f32], shards: usize, topology: ServerTopology) -> Self {
        if let Err(msg) = topology.validate() {
            panic!("invalid topology: {msg}");
        }
        let tier = Tier::new(initial.len(), shards, topology.servers, topology.sync_every);
        let instances: Vec<Arc<PsServer>> = (0..tier.server_count())
            .map(|s| Arc::new(tier.server(s, initial)))
            .collect();
        let nonces = instances.iter().map(|i| Some(i.nonce())).collect();
        let base: Box<dyn Transport> = match topology.transport {
            TransportKind::Channel => Box::new(ChannelTransport::launch(instances)),
            TransportKind::Tcp => {
                Box::new(TcpTransport::launch(instances).expect("bind loopback PS listeners"))
            }
            TransportKind::InProcess => Box::new(DirectTransport::new(instances)),
        };
        let transport: Box<dyn Transport> = match topology.faults {
            Some(plan) if plan.any_fault() => Box::new(FaultyTransport::new(base, plan)),
            _ => base,
        };
        Self::over(topology.transport, tier, topology.retry, transport, nonces)
    }

    /// The client router over an already-running `transport` whose servers
    /// are the instances `nonces` names, where known.
    fn over(
        kind: TransportKind,
        tier: Tier,
        retry: RetryPolicy,
        transport: Box<dyn Transport>,
        nonces: Vec<Option<u64>>,
    ) -> Self {
        let telemetry = Arc::new(Telemetry::new());
        NetRouter {
            kind,
            retry,
            stats: WireCounters::default(),
            view_epochs: (0..tier.server_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            instances: Mutex::new(nonces),
            sync_rounds_counter: telemetry.metrics.counter("wire.sync_rounds"),
            retries_counter: telemetry.metrics.counter("wire.retries"),
            requests_counter: telemetry.metrics.counter("wire.requests"),
            telemetry,
            sync: Mutex::new(PortState::new(tier.server_count())),
            tier,
            transport,
        }
    }

    /// Connects to an *already-running* tier of `ps-serve` processes at
    /// `addrs` — the cross-process counterpart of [`NetRouter::launch`].
    /// Nothing is spawned and no I/O happens here: the ownership map is
    /// derived from the same pure `(param_count, shards, servers)` layout
    /// math every `ps-serve` process runs, and connections open lazily.
    /// Call [`NetRouter::handshake`] afterwards to wait for the servers to
    /// bind, to verify they agree on the layout, and to record which
    /// instances they are.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] if the shape is inconsistent —
    /// zero parameters/shards/addresses, or more servers than shards
    /// (a remote tier is never silently clamped: the spec says `ps-serve`
    /// processes exist, so a shape that cannot give each one shards is a
    /// misconfiguration, not a request to ignore some) — or `retry` is
    /// invalid ([`RetryPolicy::validate`]).
    pub fn connect(
        param_count: usize,
        shards: usize,
        addrs: &[SocketAddr],
        sync_every: u64,
        retry: RetryPolicy,
    ) -> Result<Self, PsError> {
        retry.validate().map_err(PsError::InvalidConfig)?;
        if param_count == 0 {
            return Err(PsError::InvalidConfig("zero parameters".into()));
        }
        if shards == 0 {
            return Err(PsError::InvalidConfig("zero shards".into()));
        }
        if addrs.is_empty() {
            return Err(PsError::InvalidConfig("no server addresses".into()));
        }
        let tier = Tier::new(param_count, shards, addrs.len(), sync_every);
        if tier.server_count() < addrs.len() {
            return Err(PsError::InvalidConfig(format!(
                "{} servers but only {} shards — a remote tier is not clamped",
                addrs.len(),
                tier.shard_count()
            )));
        }
        let transport = Box::new(TcpTransport::dial(addrs.to_vec()));
        let nonces = vec![None; addrs.len()];
        Ok(Self::over(
            TransportKind::Tcp,
            tier,
            retry,
            transport,
            nonces,
        ))
    }

    /// The telemetry bus this router emits wire events and counters on.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Number of servers (after clamping to the shard count).
    pub fn server_count(&self) -> usize {
        self.tier.server_count()
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

    /// Stage-2 period in push tickets.
    pub fn sync_every(&self) -> u64 {
        self.tier.sync_every()
    }

    /// Cluster-global version: number of completed pushes.
    pub fn version(&self) -> u64 {
        self.tier.version()
    }

    /// Completed stage-2 reconciliation rounds (drains included).
    pub fn sync_rounds(&self) -> u64 {
        self.tier.sync_rounds()
    }

    /// Cumulative wire-cost counters since launch, booked by the rule
    /// [`TransportStats`] states.
    pub fn stats(&self) -> TransportStats {
        let [push, pull, sync] = &self.stats.classes;
        TransportStats {
            backend: Some(self.kind),
            push: push.snapshot(),
            pull: pull.snapshot(),
            sync: sync.snapshot(),
            retries: self.retries_counter.get(),
            reconnects: self.stats.reconnects.load(Ordering::Relaxed),
        }
    }

    /// Completes a logical push: bumps the global version and returns the
    /// push's staleness relative to `pulled_version`.
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        self.tier.complete_push(pulled_version)
    }

    /// Drains the stage-2 pipeline: waits out any in-flight round, then
    /// unconditionally commits every server so the committed view equals
    /// the live view (switches, restore; a BSP round's drain rides its
    /// commit instead).
    ///
    /// # Errors
    ///
    /// Returns the wire error of a server that did not answer within the
    /// retry budget.
    pub fn drain(&self) -> Result<(), PsError> {
        self.commit_round(&mut self.sync.lock(), op::DRAIN)
    }

    /// One wire round trip under the retry policy.
    ///
    /// Per attempt: ensure a connection (opened lazily with the policy's
    /// op timeout installed; a re-open after a break counts as a
    /// reconnect), encode the request — prefixed with this slot's
    /// `(client, seq)` header when `sequenced` — call, decode. Any failure
    /// drops the connection, sleeps the exponential backoff (plus jitter)
    /// and re-sends **the same sequence number**, so a server that already
    /// applied the request replays its cached ack instead of re-applying.
    /// The successful attempt alone is booked, from the request's and the
    /// reply's own items ([`NetRouter::book`]), so a clean network sees
    /// byte/latency numbers identical to a retry-free build. Whatever pull
    /// the connection held from an earlier reply is forgotten: this call
    /// overwrites it.
    fn call_resilient<T>(
        &self,
        slot: &mut ConnSlot,
        server: usize,
        policy: RetryPolicy,
        sequenced: bool,
        encode: &dyn Fn(&mut Vec<u8>),
        decode: &mut dyn FnMut(&[u8]) -> Result<T, WireError>,
    ) -> Result<T, PsError> {
        let timeout = Duration::from_millis(policy.op_timeout_ms);
        slot.prefetch = None;
        let seq = slot.next_seq;
        let attempts = policy.max_retries.saturating_add(1);
        let mut timed_out = false;
        let mut unreachable = false;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries_counter.inc();
                self.telemetry.trace.instant(TraceKind::PushRetry {
                    server: server as u64,
                    attempt: u64::from(attempt),
                });
                let backoff = policy
                    .backoff_base_ms
                    .checked_shl(attempt - 1)
                    .unwrap_or(u64::MAX)
                    .min(policy.backoff_max_ms);
                std::thread::sleep(Duration::from_millis(backoff + jitter_ms(backoff.max(1))));
            }
            if slot.conn.is_none() {
                match self.transport.connect(server) {
                    Ok(mut c) => {
                        c.set_op_timeout(Some(timeout));
                        if slot.connected_before {
                            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        slot.connected_before = true;
                        slot.conn = Some(c);
                    }
                    Err(_) => {
                        unreachable = true;
                        timed_out = false;
                        continue;
                    }
                }
            }
            let client = slot.client;
            let conn = slot.conn.as_mut().expect("connected above").as_mut();
            // Timed window starts after connection setup: handshakes and
            // handler-thread spawn are tier bring-up, not wire time, and
            // would skew the calibration samples.
            let t0 = Instant::now();
            let buf = conn.request_buf();
            let base = buf.len();
            if sequenced {
                wire::encode_sequenced_prefix(buf, client, seq);
            }
            encode(buf);
            let sent = Split::of(&buf[base..], op::BATCH);
            let outcome = (conn.call())
                .map(|reply| decode(reply).map(|v| (v, Split::of(reply, op::BATCH_REPLY))));
            match outcome {
                Ok(Ok((v, received))) => {
                    if sequenced {
                        slot.next_seq = seq.wrapping_add(1);
                    }
                    self.book(&sent, &received, t0.elapsed());
                    self.requests_counter.inc();
                    return Ok(v);
                }
                Ok(Err(_)) => {
                    // Corrupt reply: the stream may be desynchronized, so
                    // re-send over a fresh connection.
                    slot.conn = None;
                    timed_out = false;
                    unreachable = false;
                }
                Err(e) => {
                    slot.conn = None;
                    timed_out = matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    );
                    unreachable = false;
                }
            }
        }
        Err(if timed_out {
            PsError::Timeout { server }
        } else if unreachable {
            PsError::ConnLost { server }
        } else {
            PsError::RetriesExhausted { server, attempts }
        })
    }

    /// Books one successful round trip split by [`Split::of`]: each class
    /// its items' operations and bytes both ways, and the first item's
    /// class the round trip and its wire time. A control-plane request
    /// books nothing.
    fn book(&self, sent: &Split, received: &Split, elapsed: Duration) {
        let Some(payer) = sent.first else {
            return;
        };
        for (c, counters) in self.stats.classes.iter().enumerate() {
            let paid = u64::from(c == payer);
            if paid == 1 || sent.items[c] > 0 {
                let ns = paid * elapsed.as_nanos() as u64;
                counters.record([sent.items[c], paid, ns, sent.bytes[c], received.bytes[c]]);
            }
        }
    }

    /// Sends server `s` one data-plane request over `port`'s connection,
    /// `[push × n][SyncRound | Drain]?[PullCommitted]?`: the `n` pushes
    /// `port` has staged for `s`, then `commit`, then a `PullCommitted`
    /// unless `pull` is [`Pull::No`]. Sequenced unless it is a lone pull, so
    /// a re-send after a lost reply replays the cached reply and applies no
    /// push or commit twice.
    ///
    /// The one decoder reads the reply: each push's pre-apply shard clock
    /// into `port.acks`, in the order staged; `Synced`, upon which `s`'s view
    /// epoch ticks (the caller holds the round lock); then the `Pulled`
    /// image, which [`Pull::Into`] decodes where it says and
    /// [`Pull::Prefetch`] checks and leaves on the connection under its
    /// stamp: the view epoch read before the send, or the one the request's
    /// own commit ticked to (see the stamp rule).
    fn send(
        &self,
        port: &mut PortState,
        s: usize,
        commit: Option<u8>,
        mut pull: Pull<'_>,
    ) -> Result<(), PsError> {
        let n = std::mem::take(&mut port.staged[s].n);
        let pulls = !matches!(pull, Pull::No);
        let items = n + usize::from(commit.is_some()) + usize::from(pulls);
        let slice = &self.tier.slices()[s];
        let mut epoch = self.view_epoch(s);
        let base = port.acks.len();
        self.call_resilient(
            &mut port.conns[s],
            s,
            self.retry,
            n > 0 || commit.is_some(),
            &|buf| encode_request(buf, &port.staged[s].buf, n, commit, pulls),
            &mut |reply| {
                // A failed attempt may have decoded part of a corrupt reply.
                port.acks.truncate(base);
                let (bare, batch) = if items == 1 {
                    (Some(reply), None)
                } else {
                    (None, Some(wire::batch_items(reply, op::BATCH_REPLY)?))
                };
                let mut rest = bare.into_iter().chain(batch.into_iter().flatten());
                let mut next = || rest.next().ok_or(WireError::Truncated);
                for _ in 0..n {
                    port.acks.push(wire::decode_push_ack(next()?)?);
                }
                if commit.is_some() {
                    wire::expect_bodyless(next()?, op::SYNCED)?;
                }
                match &mut pull {
                    Pull::No => {}
                    Pull::Prefetch => {
                        wire::expect_pulled(next()?, slice.param_range.1, slice.shard_count)?
                    }
                    Pull::Into(params, clocks) => {
                        wire::decode_pulled_into(next()?, params, clocks)?
                    }
                }
                rest.next().map_or(Ok(()), |_| Err(WireError::Truncated))
            },
        )?;
        if commit.is_some() {
            epoch = self.tick_view_epoch(s);
        }
        if let Pull::Prefetch = pull {
            port.conns[s].prefetch = Some(epoch);
        }
        Ok(())
    }

    /// The one loop every push and round takes: per server, its staged
    /// pushes, `commit`, and a pull — decoded into its part of `image`, the
    /// whole tier's parameters and clocks, if given, or else prefetched if
    /// the port pulls the whole vector. With no commit, a server with
    /// nothing staged is skipped. The acks land in shard order.
    fn send_all(
        &self,
        port: &mut PortState,
        commit: Option<u8>,
        mut image: Option<(&mut [f32], &mut [u64])>,
    ) -> Result<(), PsError> {
        for (s, slice) in self.tier.slices().iter().enumerate() {
            if commit.is_none() && port.staged[s].n == 0 {
                continue;
            }
            let ((po, pl), so) = (slice.param_range, slice.shard_offset);
            let pull = match &mut image {
                Some((params, clocks)) => Pull::Into(
                    &mut params[po..po + pl],
                    &mut clocks[so..so + slice.shard_count],
                ),
                None if port.pulls_dense => Pull::Prefetch,
                None => Pull::No,
            };
            self.send(port, s, commit, pull)?;
        }
        Ok(())
    }

    /// One stage-2 round, the caller holding the round lock: `commit_all`
    /// sends every server its `commit`, then [`Tier::commit_round`] counts
    /// the round — [`Tier::drain`] if `commit` is a `Drain` — and so do
    /// `wire.sync_rounds` and a `SyncRound` span. A round that fails is not
    /// counted.
    fn traced_round(
        &self,
        commit: u8,
        commit_all: impl FnOnce(Option<u8>) -> Result<(), PsError>,
    ) -> Result<(), PsError> {
        let t0 = self.telemetry.trace.now_ns();
        let commit_all = || commit_all(Some(commit));
        let round = if commit == op::DRAIN {
            self.tier.drain(commit_all)
        } else {
            self.tier.commit_round(commit_all)
        }?;
        self.sync_rounds_counter.inc();
        (self.telemetry.trace).span(TraceKind::SyncRound { round }, t0);
        Ok(())
    }

    /// A `SyncRound` or `Drain` (`commit`) to every server over `port`'s
    /// connections, with nothing staged on them: the control plane's round.
    fn commit_round(&self, port: &mut PortState, commit: u8) -> Result<(), PsError> {
        self.traced_round(commit, |commit| self.send_all(port, commit, None))
    }

    /// BSP's round commit over `port`'s own connections: `stripe(g, push)`
    /// hands `push` each shard's averaged gradient to stage, then, under the
    /// round lock, each server gets its stripes with a `Drain` and a
    /// `PullCommitted` behind them as one request. The replies' acks land
    /// in `port.acks` in shard order and their images in `image` (through
    /// [`Tier::pull_with`]). A re-send replays the cached acks and `Synced`
    /// and re-reads the pull, which the drain already covers.
    fn push_round(
        &self,
        port: &mut PortState,
        stripe: impl Fn(usize, &mut dyn FnMut(&[f32])),
        lr: f64,
        momentum: f64,
        image: &mut PullBuffer,
    ) -> Result<(), PsError> {
        for g in 0..self.tier.shard_count() {
            let mut queued = Ok(());
            stripe(g, &mut |grad| {
                queued = self.queue_push(port, g, |buf, local| {
                    wire::encode_push_shard(buf, local, lr, momentum, grad);
                });
            });
            queued?;
        }
        let _round = self.sync.lock();
        self.tier.pull_with(image, |params, clocks| {
            self.traced_round(op::DRAIN, |drain| {
                self.send_all(port, drain, Some((params, clocks)))
            })
        })?;
        Ok(())
    }

    /// Server `s`'s view epoch (see [`NetRouter::view_epochs`]).
    fn view_epoch(&self, s: usize) -> u64 {
        // Acquire: pairs with the Release tick, so a worker that sees a
        // round complete also sees every tick the round made.
        self.view_epochs[s].load(Ordering::Acquire)
    }

    /// Ticks server `s`'s view epoch and returns the new value. The caller
    /// holds the round lock.
    fn tick_view_epoch(&self, s: usize) -> u64 {
        self.view_epochs[s].fetch_add(1, Ordering::Release) + 1
    }

    /// Stages the stage-1 push of global shard `g` on its owner's batch:
    /// `encode` appends the shard's `PushShard`/`PushShardSparse` payload
    /// (it is handed the owner-local shard index) straight into that
    /// server's staging buffer — the only client-side copy of the gradient
    /// besides the one into the connection. Nothing is sent until
    /// [`NetRouter::flush`], unless the batch is full.
    fn queue_push(
        &self,
        port: &mut PortState,
        g: usize,
        encode: impl FnOnce(&mut Vec<u8>, u32),
    ) -> Result<(), PsError> {
        let s = self.tier.owner_of(g);
        // Two short of the batch's item limit: a commit and a pull may join
        // the pushes.
        if port.staged[s].n == usize::from(u16::MAX) - 2 {
            self.send(port, s, None, Pull::No)?;
        }
        let Staged { buf, n } = &mut port.staged[s];
        if *n == 0 {
            buf.clear();
            wire::begin_batch(buf, op::BATCH);
        }
        let mark = wire::open_batch_item(buf);
        encode(buf, (g - self.tier.slices()[s].shard_offset) as u32);
        wire::close_batch_item(buf, 0, mark);
        *n += 1;
        Ok(())
    }

    /// Sends every server the pushes `port` has staged for it, and its next
    /// image when the port pulls the whole vector. If they claim a stage-2
    /// round ([`Tier::claim_round`]), a `SyncRound` goes between each
    /// server's pushes and its pull, under the round lock: the round costs
    /// no round trip of its own.
    fn flush(&self, port: &mut PortState) -> Result<(), PsError> {
        if port.staged.iter().all(|st| st.n == 0) {
            return Ok(());
        }
        if self.tier.claim_round() {
            let _round = self.sync.lock();
            self.traced_round(op::SYNC_ROUND, |round| self.send_all(port, round, None))
        } else {
            self.send_all(port, None, None)
        }
    }

    /// Pulls the committed view of every server through `port` into `buf`,
    /// decoding each server's `Pulled` frame straight into the flat buffer
    /// (the decode is the pull's single parameter copy). With `runs` —
    /// sorted, disjoint `(offset, len)` ranges of the flat vector — each
    /// server is asked for, and replies with, only the pieces of them it
    /// owns, in its own offsets; a server that owns none is still asked
    /// (with an empty list), because its clocks feed the version and the
    /// per-shard staleness. Returns the effective data version (see
    /// [`Tier::pull_with`]).
    ///
    /// A whole-vector pull costs a server no round trip while that server's
    /// connection holds an image an earlier push reply brought along under
    /// a stamp that is still current (see the stamp rule): it holds every
    /// round completed before the pull was asked for. Otherwise the server
    /// is asked.
    fn pull_committed_into(
        &self,
        port: &mut PortState,
        buf: &mut PullBuffer,
        runs: Option<&[(usize, usize)]>,
    ) -> Result<u64, PsError> {
        self.tier.pull_with(buf, |all_params, all_clocks| {
            for (s, slice) in self.tier.slices().iter().enumerate() {
                let (po, pl) = slice.param_range;
                let so = slice.shard_offset;
                let params = &mut all_params[po..po + pl];
                let clocks = &mut all_clocks[so..so + slice.shard_count];
                let Some(runs) = runs else {
                    let held = port.conns[s].prefetched(self.view_epoch(s));
                    if held.is_none_or(|it| wire::decode_pulled_into(it, params, clocks).is_err()) {
                        self.send(port, s, None, Pull::Into(params, clocks))?;
                    }
                    continue;
                };
                // This server's pieces of the runs, in its own offsets.
                let local = || runs_within(runs, po, pl).map(move |(at, n)| (at - po, n));
                self.call_resilient(
                    &mut port.conns[s],
                    s,
                    self.retry,
                    false,
                    &|req| wire::encode_pull_runs(req, local()),
                    &mut |reply| wire::decode_pulled_runs_into(reply, local(), params, clocks),
                )?;
            }
            Ok(())
        })
    }

    /// Snapshot of the full live parameter vector, assembled from per-server
    /// `Snapshot` frames.
    pub fn snapshot_params(&self) -> Vec<f32> {
        self.snapshot(false)
    }

    /// Snapshot of the full live velocity vector.
    pub fn snapshot_velocity(&self) -> Vec<f32> {
        self.snapshot(true)
    }

    fn snapshot(&self, velocity: bool) -> Vec<f32> {
        let mut out = vec![0.0f32; self.param_count()];
        let mut control = self.sync.lock();
        for (s, meta) in self.tier.slices().iter().enumerate() {
            let (po, pl) = meta.param_range;
            let slice = &mut out[po..po + pl];
            self.call_resilient(
                &mut control.conns[s],
                s,
                self.retry,
                false,
                &|req| wire::encode_flag(req, op::SNAPSHOT, velocity),
                &mut |reply| wire::decode_snapshot_into(reply, slice),
            )
            .unwrap_or_else(|e| panic!("snapshot failed: {e}"));
        }
        out
    }

    /// Overwrites live parameters and velocity from a checkpoint, then
    /// drains so the committed view matches.
    ///
    /// # Errors
    ///
    /// Returns the wire error of a server that did not answer within the
    /// retry budget; the servers before it are already restored.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the parameter count.
    pub fn restore(&self, params: &[f32], velocity: &[f32]) -> Result<(), PsError> {
        assert_eq!(params.len(), self.param_count(), "params length mismatch");
        assert_eq!(
            velocity.len(),
            self.param_count(),
            "velocity length mismatch"
        );
        let mut control = self.sync.lock();
        for (s, meta) in self.tier.slices().iter().enumerate() {
            let (po, pl) = meta.param_range;
            let (params, velocity) = (&params[po..po + pl], &velocity[po..po + pl]);
            self.call_resilient(
                &mut control.conns[s],
                s,
                self.retry,
                true,
                &|buf| wire::encode_restore(buf, params, velocity),
                &mut |reply| wire::expect_bodyless(reply, op::OK),
            )?;
        }
        self.commit_round(&mut control, op::DRAIN)
    }

    /// Resets the live velocity to zero on every server.
    ///
    /// # Errors
    ///
    /// Returns the wire error of a server that did not answer within the
    /// retry budget.
    pub fn reset_velocity(&self) -> Result<(), PsError> {
        let mut control = self.sync.lock();
        (0..self.tier.server_count()).try_for_each(|s| {
            self.call_resilient(
                &mut control.conns[s],
                s,
                self.retry,
                true,
                &|buf| wire::encode_bodyless(buf, op::RESET_VELOCITY),
                &mut |reply| wire::expect_bodyless(reply, op::OK),
            )
        })
    }

    /// Whether every live parameter on every server is finite, asking the
    /// servers in order until one says no.
    ///
    /// # Errors
    ///
    /// Returns the wire error of a server that did not answer within the
    /// retry budget.
    pub fn is_finite(&self) -> Result<bool, PsError> {
        let mut control = self.sync.lock();
        for s in 0..self.tier.server_count() {
            let finite = self.call_resilient(
                &mut control.conns[s],
                s,
                self.retry,
                false,
                &|buf| wire::encode_bodyless(buf, op::CHECK_FINITE),
                &mut wire::decode_finite,
            )?;
            if !finite {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// A probe: one bodyless `opcode` round trip to server `s` over the
    /// control plane, with a short timeout and a small retry budget, so a
    /// transiently lossy link (fault injection, a congested box) cannot
    /// brand a live server dead, while a genuinely dead one fails every
    /// attempt fast — its connections drop at dial or first read. A
    /// liveness probe (`fresh`) drops the cached connection first, so its
    /// verdict reflects the server, not a stale socket.
    fn probe<T>(
        &self,
        s: usize,
        opcode: u8,
        fresh: bool,
        decode: &mut dyn FnMut(&[u8]) -> Result<T, WireError>,
    ) -> Result<T, PsError> {
        let policy = RetryPolicy {
            max_retries: 2,
            op_timeout_ms: self.retry.op_timeout_ms.min(1000),
            ..self.retry
        };
        let mut control = self.sync.lock();
        if fresh {
            control.conns[s].invalidate();
        }
        let encode = |buf: &mut Vec<u8>| wire::encode_bodyless(buf, opcode);
        self.call_resilient(&mut control.conns[s], s, policy, false, &encode, decode)
    }

    /// Probes server `s` with a short-timeout round trip over a freshly
    /// dialed connection; `Ok` means the server answered.
    pub fn ping_server(&self, s: usize) -> Result<(), PsError> {
        self.probe(s, op::CHECK_FINITE, true, &mut wire::decode_finite)
            .map(drop)
    }

    /// One `Hello` probe of server `s`: returns its self-description
    /// (identity nonce, owned slice). A changed nonce at the same address
    /// means the instance was replaced (revived in-process, or its process
    /// respawned) and holds reset state; [`Self::handshake`] is what acts
    /// on it.
    ///
    /// # Errors
    ///
    /// Returns the wire error if the server did not answer within the probe
    /// budget.
    pub fn server_info(&self, s: usize) -> Result<ServerInfo, PsError> {
        self.probe(s, op::HELLO, true, &mut wire::decode_server_info)
    }

    /// The readiness handshake, and the one heal: probes every server with
    /// `Hello` until each has answered or `deadline` elapses, cross-checks
    /// the answers against the locally derived layout, and records which
    /// instance each server is. Returns how many servers answered with an
    /// instance other than the one recorded — replaced, so holding reset
    /// state until the caller restores the tier from its checkpoint
    /// ([`crate::Trainer::restore`]). The first handshake of a
    /// [`connect`](Self::connect)ed tier only records.
    ///
    /// This is what lets a `ps-worker` process be started before (or
    /// concurrently with) its `ps-serve` processes, and how every crash is
    /// observed: a kill tells the router nothing, in-process or across
    /// processes. For each replaced server its view epoch ticks, so no
    /// image of the old instance is served, the control plane's connection
    /// to it drops, and `fault.server_kills` / `fault.server_heals` count
    /// and trace the pair.
    ///
    /// # Errors
    ///
    /// Returns the last wire error if a server stays unreachable past the
    /// deadline, or [`PsError::InvalidConfig`] if a server answers with an
    /// identity or slice that contradicts the spec (wrong index at an
    /// address, or a different `(param_count, shards, servers)` triple).
    pub fn handshake(&self, deadline: Duration) -> Result<usize, PsError> {
        let start = Instant::now();
        let mut replaced = 0;
        for (s, meta) in self.tier.slices().iter().enumerate() {
            let info = loop {
                match self.server_info(s) {
                    Ok(info) => break info,
                    Err(e) => {
                        if start.elapsed() >= deadline {
                            return Err(e);
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            };
            let expect = (
                s as u32,
                meta.shard_offset as u32,
                meta.shard_count as u32,
                meta.param_range.0 as u64,
                meta.param_range.1 as u64,
            );
            let got = (
                info.server,
                info.first_shard,
                info.shard_count,
                info.param_offset,
                info.param_len,
            );
            if got != expect {
                return Err(PsError::InvalidConfig(format!(
                    "server {s} answered with identity/slice {got:?}, spec says {expect:?} — \
                     address list and (params, shards, servers) must match across the cluster"
                )));
            }
            let recorded = self.instances.lock()[s].replace(info.nonce);
            if recorded.is_none_or(|nonce| nonce == info.nonce) {
                continue;
            }
            replaced += 1;
            // The round lock: epochs tick only under it.
            let mut control = self.sync.lock();
            control.conns[s].invalidate();
            self.tick_view_epoch(s);
            let t = &self.telemetry;
            t.metrics.counter("fault.server_kills").inc();
            t.trace.instant(TraceKind::ServerKill { server: s as u64 });
            t.metrics.counter("fault.server_heals").inc();
            t.trace.instant(TraceKind::ServerHeal { server: s as u64 });
        }
        Ok(replaced)
    }

    /// Kills server `s` through the transport's crash-testing hook, as
    /// `SIGKILL` kills a `ps-serve`: its listener closes and every
    /// connection to it breaks. Like `SIGKILL`, it tells this router
    /// nothing; [`Self::handshake`] finds the replacement.
    pub fn kill_server(&self, s: usize) -> io::Result<()> {
        self.transport.kill_server(s)
    }

    /// Brings a fresh, zero-initialised instance of server `s` up at the
    /// killed one's address, as a respawn would. It holds no trained state
    /// until [`Self::handshake`] has found it and the caller has restored
    /// the tier from a checkpoint.
    pub fn revive_server(&self, s: usize) -> io::Result<()> {
        let fresh = self.tier.server(s, &vec![0.0f32; self.param_count()]);
        self.transport.revive_server(s, Arc::new(fresh))
    }

    /// One `Stats` probe of server `s`: a point-in-time copy of its request
    /// accounting (per-opcode counts, payload bytes, dedup hits, apply
    /// timing). It keeps the cached control-plane connection — a scrape is
    /// a read, not a liveness verdict, and must not churn a healthy socket.
    ///
    /// # Errors
    ///
    /// Returns the wire error if the server did not answer within the
    /// probe budget.
    pub fn scrape_stats(&self, s: usize) -> Result<ServerStatsSnapshot, PsError> {
        self.probe(s, op::STATS, false, &mut wire::decode_stats_snapshot)
    }

    /// Scrapes every server (see [`Self::scrape_stats`]), yielding `None`
    /// for servers that did not answer within the probe budget.
    pub fn scrape_all_stats(&self) -> Vec<Option<ServerStatsSnapshot>> {
        (0..self.tier.server_count())
            .map(|s| self.scrape_stats(s).ok())
            .collect()
    }
}

/// One client's private state: its connections and the pushes it has
/// staged but not yet sent — a worker's, or the control plane's, which
/// never stages one.
#[derive(Debug, Default)]
struct PortState {
    /// One lazily connected slot per server.
    conns: Vec<ConnSlot>,
    /// Per server, the pushes staged for it.
    staged: Vec<Staged>,
    /// Pre-apply shard clocks of the pushes sent and not yet handed to the
    /// caller, in shard order.
    acks: Vec<u64>,
    /// Whether this worker's last pull asked for the whole vector — the
    /// kind of pull its next push can bring home in advance.
    pulls_dense: bool,
}

/// The pushes staged for one server: `[BATCH][u16 n]` then
/// `n × [u32 len][push payload]`, encoded as they were queued.
#[derive(Debug, Default)]
struct Staged {
    buf: Vec<u8>,
    n: usize,
}

impl PortState {
    fn new(servers: usize) -> Self {
        PortState {
            conns: (0..servers).map(|_| ConnSlot::fresh()).collect(),
            staged: (0..servers).map(|_| Staged::default()).collect(),
            ..PortState::default()
        }
    }
}

/// A worker's handle onto a [`NetRouter`]: the shared router plus this
/// worker's own lazily-opened connections and push staging buffer. Cloning
/// yields a handle with empty state, so every worker thread ends up with
/// its own connections (connection-per-worker) without any cross-thread
/// sharing — the per-clone mutex is only ever contended by its owning
/// thread. A clone lives as long as its worker's seat in the trainer: its
/// connections, client ids and any image a reply left on them carry over
/// a segment boundary (the stamp rule decides whether that image is still
/// served), and a restore drops it, because a healed server's old sockets
/// are dead. A data operation that fails returns the wire error of the
/// server that did not answer within the retry budget.
#[derive(Debug)]
pub struct NetPort {
    /// Declared before `router` so a clone's connections close before the
    /// last `Arc` drop can tear the transport down.
    state: Mutex<PortState>,
    router: Arc<NetRouter>,
}

impl Clone for NetPort {
    fn clone(&self) -> Self {
        NetPort::over(Arc::clone(&self.router))
    }
}

impl NetPort {
    fn over(router: Arc<NetRouter>) -> Self {
        NetPort {
            state: Mutex::new(PortState::new(router.server_count())),
            router,
        }
    }

    /// Launches a transport-backed tier (see [`NetRouter::launch`]).
    pub fn launch(initial: &[f32], shards: usize, topology: ServerTopology) -> Self {
        NetPort::over(Arc::new(NetRouter::launch(initial, shards, topology)))
    }

    /// Connects to an already-running cross-process tier (see
    /// [`NetRouter::connect`]).
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] on an inconsistent shape.
    pub fn connect(
        param_count: usize,
        shards: usize,
        addrs: &[SocketAddr],
        sync_every: u64,
        retry: RetryPolicy,
    ) -> Result<Self, PsError> {
        let router = NetRouter::connect(param_count, shards, addrs, sync_every, retry)?;
        Ok(NetPort::over(Arc::new(router)))
    }

    /// The shared router.
    pub fn router(&self) -> &Arc<NetRouter> {
        &self.router
    }

    /// Pulls the committed view into `buf`: from the images this worker's
    /// last flushed push left on its connections where they are still
    /// current, over the wire otherwise (see
    /// [`NetRouter::pull_committed_into`]).
    pub fn pull_into(&self, buf: &mut PullBuffer) -> Result<u64, PsError> {
        let port = &mut *self.state.lock();
        port.pulls_dense = true;
        self.router.pull_committed_into(port, buf, None)
    }

    /// Pulls only `runs` of the committed view — sorted, disjoint
    /// `(offset, len)` ranges of the flat vector — so only they cross the
    /// wire; the rest of `buf.params` keeps what it held. Same clocks and
    /// version as [`NetPort::pull_into`], always one round trip per server:
    /// which runs the next step reads is not known when this one pushes.
    pub fn pull_runs_into(
        &self,
        buf: &mut PullBuffer,
        runs: &[(usize, usize)],
    ) -> Result<u64, PsError> {
        let port = &mut *self.state.lock();
        port.pulls_dense = false;
        self.router.pull_committed_into(port, buf, Some(runs))
    }

    /// Queues the stage-1 apply of `data` on global shard `g`: a sparse
    /// payload's touched segments alone cross the wire, counted under the
    /// same `push` wire-stats class as a dense one (same op count, smaller
    /// payloads — the comparison the transport tests read off). Nothing is
    /// promised to have reached the owner until [`NetPort::flush_pushes`],
    /// which sends each server the pushes queued for it as one request. The
    /// queue belongs to this handle: a worker queues and flushes on its own
    /// clone.
    pub fn queue_shard_update(
        &self,
        g: usize,
        data: UpdateData<'_>,
        lr: f64,
        momentum: f64,
    ) -> Result<(), PsError> {
        let port = &mut *self.state.lock();
        self.router.queue_push(port, g, |buf, local| match data {
            UpdateData::Dense(grad) => wire::encode_push_shard(buf, local, lr, momentum, grad),
            UpdateData::Sparse { indices, rows } => {
                wire::encode_push_shard_sparse(buf, local, lr, momentum, indices, rows)
            }
        })
    }

    /// Sends whatever is still queued — carrying the stage-2 round it makes
    /// due, if no peer has claimed it (see [`NetRouter::flush`]) — and
    /// appends to `acks` the owners' pre-apply live shard clocks of every
    /// push queued since the last flush, in shard order. After a
    /// whole-vector pull each request also fetches the next one.
    pub fn flush_pushes(&self, acks: &mut Vec<u64>) -> Result<(), PsError> {
        let port = &mut *self.state.lock();
        self.router.flush(port)?;
        acks.append(&mut port.acks);
        Ok(())
    }

    /// [`crate::WorkerPort::commit_round`] over this worker's connections: each
    /// server's pushes, a `Drain` and a `PullCommitted` as one request,
    /// booked as a push round trip that the drain and the pull ride.
    pub(crate) fn push_round(
        &self,
        stripe: impl Fn(usize, &mut dyn FnMut(&[f32])),
        lr: f64,
        momentum: f64,
        acks: &mut Vec<u64>,
        image: &mut PullBuffer,
    ) -> Result<(), PsError> {
        let port = &mut *self.state.lock();
        self.router.push_round(port, stripe, lr, momentum, image)?;
        acks.append(&mut port.acks);
        Ok(())
    }

    /// Ends a push sent shard by shard ([`NetPort::send_queued`]): it
    /// takes its ticket, and a round the ticket claims commits over the
    /// control plane (see [`crate::WorkerPort::after_push`]).
    pub fn after_push(&self) -> Result<(), PsError> {
        let router = &self.router;
        if router.tier.claim_round() {
            router.commit_round(&mut router.sync.lock(), op::SYNC_ROUND)?;
        }
        Ok(())
    }

    /// Sends each server the pushes queued for it with no ticket, no round
    /// and no pull, and appends their pre-apply shard clocks to `acks`, in
    /// shard order: the shard-by-shard push path, whose push takes its
    /// ticket in [`NetPort::after_push`].
    pub(crate) fn send_queued(&self, acks: &mut Vec<u64>) -> Result<(), PsError> {
        let port = &mut *self.state.lock();
        for s in 0..port.staged.len() {
            if port.staged[s].n > 0 {
                self.router.send(port, s, None, Pull::No)?;
            }
        }
        acks.append(&mut port.acks);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::deadline;
    use crate::store::ShardedStore;
    use crate::WorkerPort;

    fn topologies() -> Vec<ServerTopology> {
        vec![
            ServerTopology::new(2, 1),
            ServerTopology::new(2, 1).with_transport(TransportKind::Channel),
            ServerTopology::new(2, 1).with_transport(TransportKind::Tcp),
        ]
    }

    #[test]
    fn net_router_matches_in_process_router() {
        let _deadline = deadline(60);
        let initial: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let grad: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        for topology in topologies() {
            // The single store is the oracle: it shares no code with the
            // router's commit path. With `sync_every` 1 every push ends in a
            // round, so the tier's committed view is the store's live one.
            let single = ShardedStore::new(&initial, 5);
            let net = NetPort::launch(&initial, 5, topology);
            let w = WorkerPort::Net(net.clone());
            for step in 0..4 {
                for g in 0..5 {
                    let (o, l) = single.shard_range(g);
                    assert_eq!(net.router().shard_range(g), (o, l));
                    let a = single.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                    let b = w.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9).unwrap();
                    assert_eq!(a, b, "shard clock skew at step {step} shard {g}");
                }
                single.complete_push(step);
                net.router().complete_push(step);
                w.after_push().unwrap();
            }
            assert_eq!(single.version(), net.router().version());
            assert_eq!(
                single.snapshot_params(),
                net.router().snapshot_params(),
                "{:?} diverged from the single store",
                topology.transport
            );
            assert_eq!(single.snapshot_velocity(), net.router().snapshot_velocity());
            let mut a = PullBuffer::new();
            let mut b = PullBuffer::new();
            let va = single.pull_into(&mut a);
            let vb = net.pull_into(&mut b).unwrap();
            assert_eq!(va, vb);
            assert_eq!(a.params(), b.params());
            assert_eq!(a.shard_versions(), b.shard_versions());
        }
    }

    #[test]
    fn pulls_see_committed_view_and_honest_version() {
        let _deadline = deadline(60);
        for topology in topologies() {
            let initial = vec![1.0f32; 24];
            let net = NetPort::launch(&initial, 4, {
                let mut t = topology;
                t.sync_every = 8;
                t
            });
            let r = net.router();
            let w = WorkerPort::Net(net.clone());
            let mut buf = PullBuffer::new();
            net.pull_into(&mut buf).unwrap();
            let before = buf.params().to_vec();
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                w.apply_shard_update(g, &vec![1.0; l], 0.5, 0.0).unwrap();
            }
            r.complete_push(0);
            let v = net.pull_into(&mut buf).unwrap();
            assert_eq!(buf.params(), &before[..], "stage-1 leaked into a pull");
            assert_eq!(v, 0, "pulled version must track the committed data");
            r.drain().expect("drain");
            let v = net.pull_into(&mut buf).unwrap();
            assert_eq!(v, 1);
            assert_eq!(buf.params(), &r.snapshot_params()[..]);
        }
    }

    /// One whole push the way the engine's asynchronous tail sends it: every
    /// shard queued in flat order, flushed, completed. Returns how many
    /// pulls rode along.
    fn queued_push(port: &NetPort, scale: f32) -> u64 {
        let r = port.router();
        let pulls = r.stats().pull.ops;
        for g in 0..r.shard_count() {
            let (_, l) = r.shard_range(g);
            let grad = vec![scale; l];
            port.queue_shard_update(g, UpdateData::Dense(&grad), 0.1, 0.9)
                .unwrap();
        }
        let mut acks = Vec::new();
        port.flush_pushes(&mut acks).unwrap();
        assert_eq!(acks.len(), r.shard_count());
        r.complete_push(r.version());
        r.stats().pull.ops - pulls
    }

    #[test]
    fn a_pull_rides_the_push_reply_until_a_round_completes() {
        let _deadline = deadline(60);
        for topology in topologies() {
            let initial: Vec<f32> = (0..26).map(|i| (i as f32).sin()).collect();
            let a = NetPort::launch(&initial, 4, {
                let mut t = topology;
                t.sync_every = 3;
                t
            });
            let b = WorkerPort::Net(a.clone());
            let r = a.router();
            let pull_trips = || r.stats().pull.round_trips;
            // What an explicit pull returns right now: a fresh port has
            // nothing to serve it from.
            let view = |port: &NetPort, buf: &mut PullBuffer| {
                let version = port.pull_into(buf).unwrap();
                let clocks = buf.shard_versions().to_vec();
                (buf.params().to_vec(), clocks, version)
            };
            let asked = || view(&a.clone(), &mut PullBuffer::new());
            let mut buf = PullBuffer::new();
            let mut pulled = |port: &NetPort| view(port, &mut buf);

            // The first pull has to ask; the push after it brings the next
            // one home, and no round has completed when it is read.
            pulled(&a);
            assert_eq!(pull_trips(), 2);
            assert_eq!(queued_push(&a, 1.0), 2, "one pull per server rides along");
            assert_eq!(r.stats().push.round_trips, 2);
            let before = pull_trips();
            let rode = pulled(&a);
            assert_eq!(pull_trips(), before, "a served pull makes no round trip");
            assert_eq!(rode, asked());
            assert_eq!(rode.0, initial, "stage 1 must not leak into a pull");

            // B's push, sent shard by shard, takes the ticket that claims the
            // round, and B runs it: the image A took home with its own push
            // predates a completed round, so A asks.
            assert_eq!(queued_push(&a, 2.0), 2);
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                b.apply_shard_update(g, &vec![0.5; l], 0.1, 0.9).unwrap();
            }
            r.complete_push(r.version());
            b.after_push().unwrap();
            assert_eq!(r.sync_rounds(), 1);
            let before = pull_trips();
            let after_round = pulled(&a);
            assert_eq!(
                pull_trips(),
                before + 2,
                "an outdated image must not be served"
            );
            assert_eq!(after_round, asked());
            assert_eq!(after_round.0, r.snapshot_params());
            assert_eq!(after_round.1, vec![3; 4]);

            // The same after a drain ...
            assert_eq!(queued_push(&a, 3.0), 2);
            r.drain().expect("drain");
            let before = pull_trips();
            let after_drain = pulled(&a);
            assert_eq!(pull_trips(), before + 2);
            assert_eq!(after_drain, asked());
            assert_eq!(after_drain.0, r.snapshot_params());

            // ... and after a restore, which drains.
            assert_eq!(queued_push(&a, 4.0), 2);
            let (params, velocity) = (vec![0.25f32; 26], vec![0.0f32; 26]);
            r.restore(&params, &velocity).expect("restore");
            let before = pull_trips();
            let restored = pulled(&a);
            assert_eq!(pull_trips(), before + 2);
            assert_eq!(restored.0, params);

            // The push that makes a round due carries it, with the pull
            // behind each commit.
            assert_eq!(queued_push(&a, 5.0), 2);
            assert_eq!(queued_push(&a, 6.0), 2);
            let (rounds, before) = (r.sync_rounds(), r.stats());
            assert_eq!(queued_push(&a, 7.0), 2, "the pull rides behind the commit");
            assert_eq!(r.sync_rounds(), rounds + 1);
            let paid = r.stats().delta(&before);
            assert_eq!((paid.push.round_trips, paid.sync.round_trips), (2, 0));
            assert_eq!(paid.sync.ops, 2);
            let before = pull_trips();
            let own_round = pulled(&a);
            assert_eq!(pull_trips(), before, "the round's reply carried the pull");
            assert_eq!(own_round, asked());
            assert_eq!(own_round.0, r.snapshot_params());

            // Once a handshake finds server 1 replaced, the image its old
            // instance left on A's connection is not served: the pull of
            // *that* server goes to the wire and re-dials the replacement.
            // Server 0 was not touched, so its image still stands and is
            // served.
            assert_eq!(queued_push(&a, 8.0), 2);
            if r.kill_server(1).is_err() {
                continue; // only the TCP backend kills in place
            }
            r.revive_server(1).expect("revive");
            assert_eq!(r.handshake(Duration::from_secs(5)), Ok(1));
            let (before, reconnects) = (pull_trips(), r.stats().reconnects);
            let healed = pulled(&a);
            assert_eq!(pull_trips(), before + 1, "only the killed server is asked");
            assert!(
                r.stats().reconnects > reconnects,
                "the dead socket was reused"
            );
            let (po, _) = r.shard_range(2);
            assert_eq!(
                healed.0[..po],
                own_round.0[..po],
                "server 0's image was dropped"
            );
            assert!(
                healed.0[po..].iter().all(|&p| p == 0.0),
                "not the fresh instance"
            );
        }
    }

    #[test]
    fn restore_round_trips_over_the_wire() {
        let _deadline = deadline(60);
        for topology in topologies() {
            let initial: Vec<f32> = (0..30).map(|i| i as f32 * 0.1).collect();
            let net = NetPort::launch(&initial, 6, topology);
            let r = net.router();
            let w = WorkerPort::Net(net.clone());
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                w.apply_shard_update(g, &vec![1.0; l], 0.1, 0.9).unwrap();
            }
            r.complete_push(0);
            let params = r.snapshot_params();
            let velocity = r.snapshot_velocity();
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                w.apply_shard_update(g, &vec![5.0; l], 0.1, 0.9).unwrap();
            }
            assert_ne!(r.snapshot_params(), params);
            r.restore(&params, &velocity).expect("restore");
            assert_eq!(r.snapshot_params(), params);
            assert_eq!(r.snapshot_velocity(), velocity);
            let mut buf = PullBuffer::new();
            net.pull_into(&mut buf).unwrap();
            assert_eq!(buf.params(), &params[..], "restore must drain");
            assert_eq!(r.is_finite(), Ok(true));
            r.reset_velocity().expect("velocity reset");
            assert!(r.snapshot_velocity().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn wire_stats_count_every_round_trip() {
        let _deadline = deadline(60);
        let net = NetPort::launch(
            &[0.5f32; 16],
            4,
            ServerTopology::new(2, 2).with_transport(TransportKind::Channel),
        );
        let r = net.router();
        let w = WorkerPort::Net(net.clone());
        let mut buf = PullBuffer::new();
        net.pull_into(&mut buf).unwrap();
        for g in 0..4 {
            let (_, l) = r.shard_range(g);
            w.apply_shard_update(g, &vec![1.0; l], 0.1, 0.0).unwrap();
        }
        r.complete_push(0);
        r.drain().expect("drain");
        let stats = r.stats();
        assert_eq!(stats.backend, Some(TransportKind::Channel));
        assert_eq!(stats.push.ops, 4, "one push op per shard");
        assert_eq!(stats.pull.ops, 2, "one pull round trip per server");
        assert_eq!(stats.sync.ops, 2, "one sync round trip per server");
        assert!(stats.push.bytes_out > 0 && stats.pull.bytes_in > 0);
        assert!(stats.total_wire_s() > 0.0);
        // Pull replies carry the parameters; push replies only an ack.
        assert!(stats.pull.mean_round_trip_bytes() > stats.push.mean_round_trip_bytes() / 2.0);
        assert_eq!(stats.latency_samples().len(), 3);
        // The retry machinery must be free when nothing fails.
        assert_eq!(stats.retries, 0, "clean network must not retry");
        assert_eq!(stats.reconnects, 0, "clean network must not reconnect");
        // Deltas scope to a window.
        let later = r.stats();
        assert_eq!(later.delta(&stats).total_ops(), 0);
    }

    #[test]
    fn retries_recover_and_dedup_keeps_state_exact() {
        let _deadline = deadline(60);
        let initial: Vec<f32> = (0..32).map(|i| i as f32 * 0.05).collect();
        let grad: Vec<f32> = (0..32).map(|i| (i as f32).cos()).collect();
        let mut plan = crate::transport::FaultPlan::seeded(7);
        plan.drop_reply_per_mille = 150;
        let clean = ShardedStore::new(&initial, 4);
        let net = NetPort::launch(
            &initial,
            4,
            ServerTopology::new(2, 2)
                .with_transport(TransportKind::Channel)
                .with_faults(plan),
        );
        let w = WorkerPort::Net(net.clone());
        for step in 0..6 {
            for g in 0..4 {
                let (o, l) = clean.shard_range(g);
                let a = clean.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                let b = w.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9).unwrap();
                // A dropped-reply retry must replay the cached ack, so even
                // the pre-apply clocks match the fault-free run.
                assert_eq!(a, b, "shard clock skew at step {step} shard {g}");
            }
            clean.complete_push(step);
            net.router().complete_push(step);
            w.after_push().unwrap();
        }
        net.router().drain().expect("drain");
        assert_eq!(
            net.router().snapshot_params(),
            clean.snapshot_params(),
            "dropped replies must not double-apply gradients"
        );
        let stats = net.router().stats();
        assert!(stats.retries > 0, "fault plan injected no faults");
    }

    #[test]
    fn scraped_server_stats_match_client_round_trips() {
        let _deadline = deadline(60);
        let net = NetPort::launch(
            &[0.5f32; 16],
            4,
            ServerTopology::new(2, 2).with_transport(TransportKind::Channel),
        );
        let r = net.router();
        let w = WorkerPort::Net(net.clone());
        let mut buf = PullBuffer::new();
        net.pull_into(&mut buf).unwrap();
        for g in 0..4 {
            let (_, l) = r.shard_range(g);
            w.apply_shard_update(g, &vec![1.0; l], 0.1, 0.0).unwrap();
        }
        r.complete_push(0);
        r.drain().expect("drain");
        let client = r.stats();
        let mut merged = ServerStatsSnapshot::default();
        for snap in r.scrape_all_stats().into_iter().flatten() {
            merged.merge(&snap);
        }
        // On a clean network the servers' per-opcode request counts equal
        // the client's round-trip counts exactly — the consistency the
        // cluster test asserts across processes.
        assert_eq!(
            merged.requests_for(op::PUSH_SHARD) + merged.requests_for(op::PUSH_SHARD_SPARSE),
            client.push.ops
        );
        assert_eq!(merged.requests_for(op::PULL_COMMITTED), client.pull.ops);
        assert_eq!(
            merged.requests_for(op::SYNC_ROUND) + merged.requests_for(op::DRAIN),
            client.sync.ops
        );
        assert_eq!(merged.dedup_hits, 0, "clean network replays nothing");
        assert_eq!(merged.apply_ns.count, 4, "one apply per push");
        assert_eq!(merged.shard_applies, vec![1, 1, 1, 1]);
    }

    #[test]
    fn router_emits_wire_events_on_its_own_bus() {
        let _deadline = deadline(60);
        let initial: Vec<f32> = (0..32).map(|i| i as f32 * 0.05).collect();
        let mut plan = crate::transport::FaultPlan::seeded(11);
        plan.drop_reply_per_mille = 200;
        let net = NetPort::launch(
            &initial,
            4,
            ServerTopology::new(2, 2)
                .with_transport(TransportKind::Channel)
                .with_faults(plan),
        );
        let telemetry = net.router().telemetry();
        let w = WorkerPort::Net(net.clone());
        for step in 0..8 {
            for g in 0..4 {
                let (_, l) = net.router().shard_range(g);
                w.apply_shard_update(g, &vec![1.0; l], 0.05, 0.9).unwrap();
            }
            net.router().complete_push(step);
            w.after_push().unwrap();
        }
        net.router().drain().expect("drain");
        let counts = telemetry.trace.counts_by_name();
        assert!(counts.get("sync_round").copied().unwrap_or(0) >= 1);
        assert!(
            counts.get("push_retry").copied().unwrap_or(0) >= 1,
            "fault plan injected no retries: {counts:?}"
        );
        let snap = telemetry.metrics.snapshot();
        assert_eq!(
            snap.counters["wire.retries"],
            net.router().stats().retries,
            "telemetry counter must track the wire stat"
        );
        assert_eq!(
            snap.counters["wire.sync_rounds"],
            net.router().sync_rounds()
        );
    }

    #[test]
    fn workers_keep_their_client_ids_across_segments() {
        let _deadline = deadline(60);
        use crate::{Trainer, TrainerConfig};
        use sync_switch_nn::{Dataset, Network};
        use sync_switch_workloads::SyncProtocol;
        // The servers are built here so the test can read their dedup
        // tables after the trainer has run over them.
        let data = Dataset::gaussian_blobs(3, 40, 5, 0.3, 35);
        let (train, test) = data.split(0.25);
        let model = Network::mlp(5, &[8], 3, 35);
        let topology = ServerTopology::new(2, 4).with_transport(TransportKind::Channel);
        let mut cfg = TrainerConfig::new(2, 8, 0.05, 0.9)
            .with_seed(35)
            .with_topology(topology);
        cfg.shards = 4;
        let initial = model.params_flat();
        let tier = Tier::new(
            initial.len(),
            cfg.shards,
            topology.servers,
            topology.sync_every,
        );
        let servers: Vec<Arc<PsServer>> = (0..tier.server_count())
            .map(|s| Arc::new(tier.server(s, &initial)))
            .collect();
        let transport = Box::new(ChannelTransport::launch(servers.clone()));
        let nonces = servers.iter().map(|s| Some(s.nonce())).collect();
        let router = NetRouter::over(
            TransportKind::Channel,
            tier,
            topology.retry,
            transport,
            nonces,
        );
        let port = WorkerPort::Net(NetPort::over(Arc::new(router)));
        let mut t = Trainer::with_port(model, train, test, cfg, port);
        for _ in 0..10 {
            t.run_segment(SyncProtocol::Asp, 10).unwrap();
        }
        t.drain_sync().expect("drain");
        // Every worker pushed to every server: two worker slots, plus the
        // control plane's drain — not a fresh pair of ids per segment.
        for server in &servers {
            assert_eq!(server.seq_clients(), 3, "server {}", server.id());
        }
    }

    #[test]
    fn a_handshake_counts_each_replaced_server_once() {
        let _deadline = deadline(60);
        let counter = |r: &NetRouter, name: &str| {
            let snap = r.telemetry().metrics.snapshot();
            snap.counters.get(name).copied().unwrap_or(0)
        };
        let net = NetPort::launch(
            &[1.0f32; 16],
            4,
            ServerTopology::new(2, 1).with_transport(TransportKind::Tcp),
        );
        let r = net.router();
        assert_eq!(r.handshake(Duration::from_secs(5)), Ok(0), "healthy tier");
        r.kill_server(1).expect("kill");
        let t0 = Instant::now();
        assert!(r.handshake(Duration::from_millis(200)).is_err());
        assert!(t0.elapsed() < Duration::from_secs(5), "missed its deadline");
        r.revive_server(1).expect("revive");
        assert_eq!(r.handshake(Duration::from_secs(5)), Ok(1));
        assert_eq!(r.handshake(Duration::from_secs(5)), Ok(0), "counted twice");
        assert_eq!(counter(r, "fault.server_kills"), 1);
        assert_eq!(counter(r, "fault.server_heals"), 1);
        let channel = NetPort::launch(
            &[1.0f32; 16],
            4,
            ServerTopology::new(2, 1).with_transport(TransportKind::Channel),
        );
        assert!(channel.router().kill_server(1).is_err());
    }

    #[test]
    fn a_lost_server_fails_the_finiteness_check_by_name() {
        let _deadline = deadline(60);
        let net = NetPort::launch(
            &[1.0f32; 16],
            4,
            ServerTopology::new(2, 1).with_transport(TransportKind::Tcp),
        );
        let r = net.router();
        assert_eq!(r.is_finite(), Ok(true));
        r.kill_server(1).expect("kill");
        let err = r.is_finite().expect_err("a dead server answered");
        assert!(
            matches!(
                err,
                PsError::Timeout { server: 1 }
                    | PsError::ConnLost { server: 1 }
                    | PsError::RetriesExhausted { server: 1, .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn clamps_servers_to_shards() {
        let _deadline = deadline(60);
        let net = NetPort::launch(
            &[1.0f32; 8],
            2,
            ServerTopology::new(5, 1).with_transport(TransportKind::Channel),
        );
        assert_eq!(net.router().server_count(), 2);
        assert_eq!(net.router().owner_of(0), 0);
        assert_eq!(net.router().owner_of(1), 1);
    }
}
