//! The transport-backed shard router: the [`Tier`] every router embeds —
//! ownership layout, cluster version clock, OSP-style two-stage schedule —
//! with every server interaction crossing a [`Transport`].
//!
//! The split of responsibilities mirrors a real PS deployment:
//!
//! * **Server-side state** (live + committed stores, shard clocks) lives in
//!   the [`PsServer`]s owned by the transport's serving loops; the client
//!   can only reach it through request/reply frames.
//! * **Client-side state** is the [`Tier`], shared by all workers of one
//!   trainer; it is the very struct [`crate::ShardRouter`] embeds, so
//!   staleness is measured and rounds are scheduled identically across the
//!   in-process and wire tiers. What this file adds is how a commit-all
//!   reaches a server (a `SyncRound`/`Drain` frame under the retry policy)
//!   and what the round lock guards (the control-plane connections).
//!
//! Workers hold a [`NetPort`] clone each; a clone lazily opens its own
//! connection per server (connection-per-worker on both backends), so
//! worker threads never share a socket or contend on a connection lock.
//!
//! Every operation is strictly request/reply. A sync round commits each
//! server in one round trip, and a push sends each server *all* of the
//! worker's shards it owns as one `Batch` frame. Pushes are queued per
//! shard ([`NetPort::queue_shard_update`] encodes straight into the port's
//! staging buffer) and sent when the owning server changes or on
//! [`NetPort::flush_pushes`]; the per-shard [`NetPort::apply_shard_update`]
//! is the same path with a queue of one. Round trips to different servers
//! are not overlapped — on a small box the extra runnable threads cost more
//! than the overlap saves (CHANGES.md, PR 12).
//!
//! A pull asks each server for the runs the step reads, or its slice (every
//! server answers either way — its clocks date the pull). **When that costs
//! a round trip and when it rides a reply:** after a whole-vector pull, the
//! batches of a worker's queued push end in a `PullCommitted` item, and so
//! does the `SyncRound` of a round the worker runs from
//! [`NetPort::after_push`] (which then travels over the worker's own
//! connections). The `Pulled` image stays in the connection's reply buffer
//! and the worker's next [`NetPort::pull_into`] decodes it from there. A
//! push that will make a round due leaves the pull to the round. A pull by
//! run, a per-shard apply, BSP's stripes and its barrier drain never carry
//! one: which runs the next step reads is unknown before its batch is
//! drawn, and a barrier's drain belongs to no particular worker.
//!
//! **The stamp rule.** Each image is stamped with its server's *view epoch*
//! ([`NetRouter::view_epochs`]) read before the request is first sent, and
//! is served only while the epoch still reads the same. The epoch ticks
//! when the server acknowledges a commit-all, before the round that sent it
//! is complete; so if it has not moved, every round completed by now had
//! this server's commit acknowledged before the image was asked for, and
//! the image holds it. Hence a served pull is exactly what asking would
//! return — the committed view changes on commits only — and a pull still
//! reflects every round completed before it was asked for. Kill and revive
//! tick the epoch too, and a restore ends in a commit-all. The epochs, like
//! the version clock, the round counter and the barrier, live in this
//! process: two `ps-worker` processes sharing a tier each date their images
//! by their own rounds only (see [`Tier`]).

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sync_switch_telemetry::{Counter, ServerStatsSnapshot, Telemetry, TraceKind};

use super::channel::ChannelTransport;
use super::faulty::FaultyTransport;
use super::remote::RemoteTcpTransport;
use super::tcp::TcpTransport;
use super::wire::{self, op, ServerInfo, WireError};
use super::{Conn, Transport};
use crate::config::{RetryPolicy, ServerTopology, TransportKind};
use crate::error::PsError;
use crate::profiler::{TransportStats, WireOp};
use crate::router::Tier;
use crate::server::PsServer;
use crate::store::{runs_within, PullBuffer};

/// Process-wide client-id allocator for sequenced requests: every
/// connection slot gets a unique id, so the servers' dedup windows never
/// collide across workers, trainers, or tests in one process.
static CLIENT_IDS: AtomicU64 = AtomicU64::new(1);

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

/// Cumulative wire counters for one operation class (lock-free; workers on
/// different threads record concurrently).
#[derive(Debug, Default)]
struct OpCounters {
    ops: AtomicU64,
    round_trips: AtomicU64,
    ns: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
}

impl OpCounters {
    /// `ops` logical operations over `round_trips` round trips of this
    /// class: one, or none for a pull that rode on another class's.
    fn record(
        &self,
        ops: u64,
        round_trips: u64,
        elapsed: Duration,
        bytes_out: usize,
        bytes_in: usize,
    ) {
        // Relaxed throughout: these are statistics counters; nothing is
        // published through them and cross-counter skew is tolerable.
        self.ops.fetch_add(ops, Ordering::Relaxed);
        self.round_trips.fetch_add(round_trips, Ordering::Relaxed);
        self.ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(bytes_out as u64, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireOp {
        WireOp {
            ops: self.ops.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            wire_ns: self.ns.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default)]
struct WireCounters {
    push: OpCounters,
    pull: OpCounters,
    sync: OpCounters,
    /// Failed attempts that were re-sent (zero on a clean network).
    retries: AtomicU64,
    /// Connections re-established after breaking.
    reconnects: AtomicU64,
}

/// How one round trip is booked in the wire stats.
#[derive(Clone, Copy)]
struct Booking<'a> {
    /// The class that pays for the round trip.
    class: &'a OpCounters,
    /// Logical operations of that class it carries (a push batch counts
    /// its shards).
    ops: u64,
    /// Whether a `PullCommitted` rides as the request batch's last item. It
    /// is booked as one pull operation with its own item's bytes and no
    /// round trip or wire time: those stay on `class`.
    carries_pull: bool,
}

/// The last item of a batch reply (`None` if `reply` is not one).
fn last_batch_item(reply: &[u8]) -> Option<&[u8]> {
    wire::batch_items(reply, op::BATCH_REPLY).ok()?.last()
}

/// One server's connection slot: the (lazily opened) connection plus the
/// idempotent re-send state — this slot's process-unique client id and its
/// next request sequence number.
#[derive(Debug)]
struct ConnSlot {
    conn: Option<Box<dyn Conn>>,
    /// Set while `conn`'s last reply is a batch reply ending in the server's
    /// whole `Pulled` image: the server's view epoch (see
    /// [`NetRouter::view_epochs`]) read before that request was first sent.
    /// The image is what a pull would return for as long as the epoch still
    /// reads the same; any other call on the connection (or losing it)
    /// forgets it.
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
            client: CLIENT_IDS.fetch_add(1, Ordering::Relaxed),
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
        last_batch_item(self.conn.as_ref()?.last_reply())
    }
}

/// A lazily-connected set of connections, one slot per server.
#[derive(Debug, Default)]
pub(crate) struct ConnSet {
    per_server: Vec<ConnSlot>,
}

impl ConnSet {
    fn with_capacity(servers: usize) -> Self {
        ConnSet {
            per_server: (0..servers).map(|_| ConnSlot::fresh()).collect(),
        }
    }

    fn slot(&mut self, server: usize, servers: usize) -> &mut ConnSlot {
        if self.per_server.is_empty() {
            self.per_server = (0..servers).map(|_| ConnSlot::fresh()).collect();
        }
        &mut self.per_server[server]
    }

    /// Drops the cached connection to `server` (after a kill/revive the old
    /// socket points at a dead instance).
    fn invalidate(&mut self, server: usize) {
        if let Some(slot) = self.per_server.get_mut(server) {
            slot.conn = None;
            slot.prefetch = None;
        }
    }
}

/// A multi-server parameter-server tier reached through a wire transport.
///
/// Every wire operation runs under the topology's [`RetryPolicy`]: a per-op
/// timeout, then bounded re-send with exponential backoff and jitter over a
/// freshly opened connection. Mutating requests carry a `(client, seq)`
/// header so a re-send of an already-applied request is deduplicated
/// server-side (the cached ack is replayed) — a dropped *reply* cannot
/// double-apply a gradient. Only when the budget is exhausted does the
/// failure surface, as a [`PsError`] on the fallible APIs or a panic
/// carrying its message on the infallible worker-path ones.
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
    /// back — a kill, a revive, a per-server restore. Ticked only under the
    /// round lock. An image of server `s` asked for while its epoch read
    /// `e` is what a pull of `s` would return for as long as it still reads
    /// `e`: every round that has completed by then had `s` acknowledge its
    /// commit before the image was asked for.
    view_epochs: Vec<AtomicU64>,
    /// The data plane's telemetry bus: the router emits its wire events on
    /// it (retries, sync rounds, kills, heals), and the trainer over this
    /// router adopts it, so they share a clock and a trace with the
    /// engine's step spans.
    telemetry: Arc<Telemetry>,
    /// `wire.sync_rounds` and `wire.retries` on that bus, resolved once.
    sync_rounds_counter: Arc<Counter>,
    retries_counter: Arc<Counter>,
    /// Serializes stage-2 rounds and the control plane; holds the control
    /// plane's dedicated connections (a round a worker's port runs holds
    /// the lock but travels over the worker's own).
    ///
    /// Field order is load-bearing: `sync` (and the conns inside it) must
    /// drop before `transport`, whose Drop joins the serving threads and
    /// would otherwise wait on our own open connections.
    sync: Mutex<ConnSet>,
    transport: Box<dyn Transport>,
}

impl NetRouter {
    /// Builds the servers, launches the serving infrastructure for
    /// `topology.transport`, and returns the client router. Clamping
    /// matches [`crate::ShardRouter::new`]: servers are clamped to the
    /// shard count, shards to the parameter count.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, `shards == 0`, the topology is
    /// invalid, `topology.transport` is [`TransportKind::InProcess`] (that
    /// is [`crate::ShardRouter`]'s job), or a TCP listener cannot bind.
    pub fn launch(initial: &[f32], shards: usize, topology: ServerTopology) -> Self {
        if let Err(msg) = topology.validate() {
            panic!("invalid topology: {msg}");
        }
        let tier = Tier::new(initial.len(), shards, topology.servers, topology.sync_every);
        let instances: Vec<Arc<PsServer>> = (0..tier.server_count())
            .map(|s| Arc::new(tier.server(s, initial)))
            .collect();
        let base: Box<dyn Transport> = match topology.transport {
            TransportKind::Channel => Box::new(ChannelTransport::launch(instances)),
            TransportKind::Tcp => {
                Box::new(TcpTransport::launch(instances).expect("bind loopback PS listeners"))
            }
            TransportKind::InProcess => {
                panic!("NetRouter requires a wire transport; use ShardRouter in-process")
            }
        };
        let transport: Box<dyn Transport> = match topology.faults {
            Some(plan) if plan.any_fault() => Box::new(FaultyTransport::new(base, plan)),
            _ => base,
        };
        Self::over(topology.transport, tier, topology.retry, transport)
    }

    /// The client router over an already-running `transport`.
    fn over(
        kind: TransportKind,
        tier: Tier,
        retry: RetryPolicy,
        transport: Box<dyn Transport>,
    ) -> Self {
        let telemetry = Arc::new(Telemetry::new());
        NetRouter {
            kind,
            retry,
            stats: WireCounters::default(),
            view_epochs: (0..tier.server_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sync_rounds_counter: telemetry.metrics.counter("wire.sync_rounds"),
            retries_counter: telemetry.metrics.counter("wire.retries"),
            telemetry,
            sync: Mutex::new(ConnSet::with_capacity(tier.server_count())),
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
    /// bind and to verify they agree on the layout.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] if the shape is inconsistent —
    /// zero parameters/shards/addresses, or more servers than shards
    /// (a remote tier is never silently clamped: the spec says `ps-serve`
    /// processes exist, so a shape that cannot give each one shards is a
    /// misconfiguration, not a request to ignore some).
    pub fn connect(
        param_count: usize,
        shards: usize,
        addrs: &[SocketAddr],
        sync_every: u64,
        retry: RetryPolicy,
    ) -> Result<Self, PsError> {
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
        let transport = Box::new(RemoteTcpTransport::new(addrs.to_vec()));
        Ok(Self::over(TransportKind::Tcp, tier, retry, transport))
    }

    /// The telemetry bus this router emits wire events and counters on.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The transport backend kind.
    pub fn transport_kind(&self) -> TransportKind {
        self.kind
    }

    /// The layout, ownership map and two-stage clock.
    pub(crate) fn tier(&self) -> &Tier {
        &self.tier
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

    /// Stage-2 period in completed pushes.
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

    /// Cumulative wire-cost counters since launch.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            backend: Some(self.kind),
            push: self.stats.push.snapshot(),
            pull: self.stats.pull.snapshot(),
            sync: self.stats.sync.snapshot(),
            retries: self.stats.retries.load(Ordering::Relaxed),
            reconnects: self.stats.reconnects.load(Ordering::Relaxed),
        }
    }

    /// Completes a logical push: bumps the global version and returns the
    /// push's staleness relative to `pulled_version`.
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        self.tier.complete_push(pulled_version)
    }

    /// Runs a stage-2 round if the push counter has moved `sync_every`
    /// past the watermark (see [`Tier::reconcile_if_due`]), the round's
    /// commit-alls travelling as `SyncRound` frames.
    pub fn reconcile_if_due(&self) {
        self.tier.reconcile_if_due(
            || self.sync.lock(),
            |conns| self.commit_round(conns, op::SYNC_ROUND, false),
        );
    }

    /// [`NetRouter::reconcile_if_due`] from a worker's port. A port that
    /// pulls densely runs the round over its own connections with its next
    /// pull riding behind each commit, so the worker that pays for the
    /// round comes away holding the view it published instead of asking
    /// again; a port that pulls by run cannot ask before its next batch is
    /// drawn and sends the plain round over the control plane.
    fn reconcile_from(&self, port: &mut PortState) {
        self.tier.reconcile_if_due(
            || self.sync.lock(),
            |control| {
                if port.pulls_dense {
                    self.commit_round(&mut port.conns, op::SYNC_ROUND, true);
                } else {
                    self.commit_round(control, op::SYNC_ROUND, false);
                }
            },
        );
    }

    /// Drains the stage-2 pipeline: waits out any in-flight round, then
    /// unconditionally commits every server so the committed view equals
    /// the live view (BSP barriers, switches, restore).
    pub fn drain(&self) {
        let mut conns = self.sync.lock();
        self.commit_round(&mut conns, op::DRAIN, false);
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
    /// Wire stats are recorded once, from the successful attempt only, so
    /// a clean network sees byte/latency numbers identical to a
    /// retry-free build; `booking` says how. Whatever pull the connection
    /// held from an earlier reply is forgotten: this call overwrites it.
    #[allow(clippy::too_many_arguments)]
    fn call_resilient<T>(
        &self,
        conns: &mut ConnSet,
        server: usize,
        policy: RetryPolicy,
        booking: Option<Booking<'_>>,
        sequenced: bool,
        encode: &dyn Fn(&mut Vec<u8>),
        decode: &mut dyn FnMut(&[u8]) -> Result<T, WireError>,
    ) -> Result<T, PsError> {
        let timeout = Duration::from_millis(policy.op_timeout_ms);
        let slot = conns.slot(server, self.tier.server_count());
        slot.prefetch = None;
        let carries_pull = booking.is_some_and(|b| b.carries_pull);
        let seq = slot.next_seq;
        let attempts = policy.max_retries.saturating_add(1);
        let mut timed_out = false;
        let mut unreachable = false;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
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
            let out = buf.len() - base;
            let outcome = match conn.call() {
                Ok(reply) => {
                    // What the pull that rode along takes of the reply,
                    // length prefix included.
                    let pulled = if carries_pull {
                        last_batch_item(reply).map_or(0, |item| item.len() + 4)
                    } else {
                        0
                    };
                    Ok((decode(reply), reply.len(), pulled))
                }
                Err(e) => Err(e),
            };
            match outcome {
                Ok((Ok(v), reply_len, pulled)) => {
                    if sequenced {
                        slot.next_seq = seq.wrapping_add(1);
                    }
                    if let Some(b) = booking {
                        let elapsed = t0.elapsed();
                        let asked = if carries_pull {
                            wire::BODYLESS_ITEM_BYTES
                        } else {
                            0
                        };
                        if carries_pull {
                            (self.stats.pull).record(1, 0, Duration::ZERO, asked, pulled);
                        }
                        (b.class).record(b.ops, 1, elapsed, out - asked, reply_len - pulled);
                    }
                    return Ok(v);
                }
                Ok((Err(_), _, _)) => {
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

    /// One stage-2 round, caller holding the round lock: a commit-all
    /// frame to every server over `conns`. With `with_pull` each frame also
    /// pulls what it just committed, and `conns` keeps each image under the
    /// epoch its commit opened (the round lock keeps everyone else's hands
    /// off the epochs meanwhile).
    fn commit_round(&self, conns: &mut ConnSet, opcode: u8, with_pull: bool) {
        let t = &self.telemetry;
        let t0 = t.trace.now_ns();
        let servers = self.tier.server_count();
        let round = self.tier.commit_round(|| {
            for s in 0..servers {
                self.sync_one(conns, s, opcode, with_pull)
                    .unwrap_or_else(|e| panic!("sync round failed: {e}"));
                let epoch = self.tick_view_epoch(s);
                if with_pull {
                    conns.slot(s, servers).prefetch = Some(epoch);
                }
            }
        });
        self.sync_rounds_counter.inc();
        t.trace.span(TraceKind::SyncRound { round }, t0);
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

    /// One commit-all frame (`SyncRound` or `Drain`) to one server — with
    /// `with_pull`, a `[commit-all, PullCommitted]` batch whose reply leaves
    /// the server's freshly committed image on the connection.
    fn sync_one(
        &self,
        conns: &mut ConnSet,
        s: usize,
        opcode: u8,
        with_pull: bool,
    ) -> Result<(), PsError> {
        let booking = Booking {
            class: &self.stats.sync,
            ops: 1,
            carries_pull: with_pull,
        };
        self.call_resilient(
            conns,
            s,
            self.retry,
            Some(booking),
            true,
            &|buf| {
                if with_pull {
                    let head = wire::begin_batch(buf, op::BATCH);
                    wire::put_bodyless_item(buf, head, opcode);
                    wire::put_bodyless_item(buf, head, op::PULL_COMMITTED);
                } else {
                    wire::encode_bodyless(buf, opcode);
                }
            },
            &mut |reply| {
                if !with_pull {
                    return wire::expect_bodyless(reply, op::SYNCED);
                }
                let mut items = wire::batch_items(reply, op::BATCH_REPLY)?;
                wire::expect_bodyless(items.next().ok_or(WireError::Truncated)?, op::SYNCED)?;
                self.expect_tail(s, true, items)
            },
        )
    }

    /// Checks what follows the acks of a batch reply from server `s`:
    /// nothing, or — when a pull rode along — exactly its whole `Pulled`
    /// image, so the decode that happens a step later cannot fail.
    fn expect_tail(
        &self,
        s: usize,
        carries_pull: bool,
        mut rest: wire::BatchItems<'_>,
    ) -> Result<(), WireError> {
        if carries_pull {
            let slice = &self.tier.slices()[s];
            let pulled = rest.next().ok_or(WireError::Truncated)?;
            wire::expect_pulled(pulled, slice.param_range.1, slice.shard_count)?;
        }
        match rest.next() {
            None => Ok(()),
            Some(_) => Err(WireError::Truncated),
        }
    }

    /// Whether the push `port` is sending should bring the worker's next
    /// pull home with it. Only a dense pull can be asked for before the
    /// next batch is drawn, and not on the push that makes a stage-2 round
    /// due: the round would outdate the image, and the worker that runs it
    /// fetches the new one with the round instead.
    fn rides_push(&self, port: &PortState) -> bool {
        port.pulls_dense && !self.tier.round_due_after_push()
    }

    /// Queues the stage-1 push of global shard `g` on its owner's batch:
    /// `encode` appends the shard's `PushShard`/`PushShardSparse` payload
    /// (it is handed the owner-local shard index) straight into the staging
    /// buffer — the only client-side copy of the gradient besides the one
    /// into the connection. Pushes already staged for a *different* server
    /// are sent first, so a walk over the shards in flat order (owners hold
    /// contiguous runs) costs one round trip per server.
    fn queue_push(&self, port: &mut PortState, g: usize, encode: impl FnOnce(&mut Vec<u8>, u32)) {
        let s = self.tier.owner_of(g);
        // One short of the batch's item limit: a pull may join the pushes.
        if port.staged > 0 && (port.staged_for != s || port.staged == usize::from(u16::MAX) - 1) {
            self.send_staged(port, self.rides_push(port));
        }
        if port.staged == 0 {
            port.staged_for = s;
            port.staging.clear();
            wire::begin_batch(&mut port.staging, op::BATCH);
        }
        let mark = wire::open_batch_item(&mut port.staging);
        let local = g - self.tier.slices()[s].shard_offset;
        encode(&mut port.staging, local as u32);
        wire::close_batch_item(&mut port.staging, 0, mark);
        port.staged += 1;
    }

    /// Sends the staged pushes as one sequenced request — a `Batch`, or the
    /// bare push when there is just one — and appends each shard's
    /// pre-apply clock to `port.acks` in queue order. One sequence number
    /// covers the batch, so a re-send after a lost reply replays the cached
    /// acks and no shard is applied twice. Counted as `staged` push
    /// operations sharing one round trip's time and bytes.
    ///
    /// With `prefetch` a `PullCommitted` joins the batch as its last item
    /// and the server's `Pulled` image stays in the connection's reply
    /// buffer, stamped with the server's view epoch read *before* the send:
    /// a commit the server acknowledges at any point after that moves the
    /// epoch on, and the image is never used.
    ///
    /// # Panics
    ///
    /// Panics when the retry budget is exhausted, like every worker-path op.
    fn send_staged(&self, port: &mut PortState, prefetch: bool) {
        let PortState {
            conns,
            staging,
            staged_for,
            staged,
            acks,
            ..
        } = port;
        let n = std::mem::take(staged);
        if n == 0 {
            return;
        }
        let s = *staged_for;
        if prefetch {
            wire::put_bodyless_item(staging, 0, op::PULL_COMMITTED);
        }
        // A lone push goes out bare: skip the batch header and the item's
        // length prefix.
        let bare = n == 1 && !prefetch;
        let request = if bare {
            &staging[wire::BATCH_HEADER_BYTES + 4..]
        } else {
            &staging[..]
        };
        let epoch = self.view_epoch(s);
        let booking = Booking {
            class: &self.stats.push,
            ops: n as u64,
            carries_pull: prefetch,
        };
        let base = acks.len();
        self.call_resilient(
            conns,
            s,
            self.retry,
            Some(booking),
            true,
            &|buf| buf.extend_from_slice(request),
            &mut |reply| {
                // A failed attempt may have decoded part of a corrupt reply.
                acks.truncate(base);
                if bare {
                    acks.push(wire::decode_push_ack(reply)?);
                    return Ok(());
                }
                let mut items = wire::batch_items(reply, op::BATCH_REPLY)?;
                for ack in items.by_ref().take(n) {
                    acks.push(wire::decode_push_ack(ack)?);
                }
                if acks.len() - base != n {
                    return Err(WireError::Truncated);
                }
                self.expect_tail(s, prefetch, items)
            },
        )
        .unwrap_or_else(|e| panic!("push failed: {e}"));
        if prefetch {
            conns.slot(s, self.tier.server_count()).prefetch = Some(epoch);
        }
    }

    /// Pulls the committed view of every server through `conns` into `buf`,
    /// decoding each server's `Pulled` frame straight into the flat buffer
    /// (the decode is the pull's single parameter copy). With `runs` —
    /// sorted, disjoint `(offset, len)` ranges of the flat vector — each
    /// server is asked for, and replies with, only the pieces of them it
    /// owns, in its own offsets; a server that owns none is still asked
    /// (with an empty list), because its clocks feed the version and the
    /// per-shard staleness. Returns the effective data version (see
    /// [`Tier::pull_with`]).
    ///
    /// A whole-vector pull costs a server no round trip when that server's
    /// connection still holds the image an earlier push or sync reply
    /// brought along and the server's view epoch has not moved since before
    /// that request went out: every round or drain that has completed by
    /// now had this server acknowledge its commit before the image was
    /// asked for, so the image holds it — a pull still reflects every round
    /// completed before it was asked for. Otherwise the server is asked.
    fn pull_committed_into(
        &self,
        conns: &mut ConnSet,
        buf: &mut PullBuffer,
        runs: Option<&[(usize, usize)]>,
    ) -> u64 {
        let servers = self.tier.server_count();
        self.tier.pull_with(buf, |all_params, all_clocks| {
            for (s, slice) in self.tier.slices().iter().enumerate() {
                let (po, pl) = slice.param_range;
                let so = slice.shard_offset;
                let params = &mut all_params[po..po + pl];
                let clocks = &mut all_clocks[so..so + slice.shard_count];
                if runs.is_none() {
                    let held = conns.slot(s, servers).prefetched(self.view_epoch(s));
                    if held.is_some_and(|it| wire::decode_pulled_into(it, params, clocks).is_ok()) {
                        continue;
                    }
                }
                // This server's pieces of the runs, in its own offsets.
                let local = |runs| runs_within(runs, po, pl).map(move |(at, n)| (at - po, n));
                self.call_resilient(
                    conns,
                    s,
                    self.retry,
                    Some(Booking {
                        class: &self.stats.pull,
                        ops: 1,
                        carries_pull: false,
                    }),
                    false,
                    &|req| match runs {
                        None => wire::encode_bodyless(req, op::PULL_COMMITTED),
                        Some(runs) => wire::encode_pull_runs(req, local(runs)),
                    },
                    &mut |reply| match runs {
                        None => wire::decode_pulled_into(reply, params, clocks),
                        Some(runs) => {
                            wire::decode_pulled_runs_into(reply, local(runs), params, clocks)
                        }
                    },
                )
                .unwrap_or_else(|e| panic!("pull failed: {e}"));
            }
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
        let mut conns = self.sync.lock();
        for (s, meta) in self.tier.slices().iter().enumerate() {
            let (po, pl) = meta.param_range;
            let slice = &mut out[po..po + pl];
            self.call_resilient(
                &mut conns,
                s,
                self.retry,
                None,
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
        let mut conns = self.sync.lock();
        for (s, meta) in self.tier.slices().iter().enumerate() {
            let (po, pl) = meta.param_range;
            let (params, velocity) = (&params[po..po + pl], &velocity[po..po + pl]);
            self.call_resilient(
                &mut conns,
                s,
                self.retry,
                None,
                true,
                &|buf| wire::encode_restore(buf, params, velocity),
                &mut |reply| wire::expect_bodyless(reply, op::OK),
            )
            .unwrap_or_else(|e| panic!("restore failed: {e}"));
        }
        self.commit_round(&mut conns, op::DRAIN, false);
    }

    /// Resets the live velocity to zero on every server.
    pub fn reset_velocity(&self) {
        let mut conns = self.sync.lock();
        for s in 0..self.tier.server_count() {
            self.call_resilient(
                &mut conns,
                s,
                self.retry,
                None,
                true,
                &|buf| wire::encode_bodyless(buf, op::RESET_VELOCITY),
                &mut |reply| wire::expect_bodyless(reply, op::OK),
            )
            .unwrap_or_else(|e| panic!("velocity reset failed: {e}"));
        }
    }

    /// Whether every live parameter on every server is finite.
    pub fn is_finite(&self) -> bool {
        let mut conns = self.sync.lock();
        (0..self.tier.server_count()).all(|s| {
            self.call_resilient(
                &mut conns,
                s,
                self.retry,
                None,
                false,
                &|buf| wire::encode_bodyless(buf, op::CHECK_FINITE),
                &mut wire::decode_finite,
            )
            .unwrap_or_else(|e| panic!("finiteness check failed: {e}"))
        })
    }

    /// The short-timeout policy of the liveness and read probes. It keeps a
    /// small retry budget so a transiently lossy link (fault injection, a
    /// congested box) cannot brand a live server dead; a genuinely dead
    /// server fails every attempt fast — its connections drop at dial or
    /// first read — so detection stays prompt.
    fn probe_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            op_timeout_ms: self.retry.op_timeout_ms.min(1000),
            ..self.retry
        }
    }

    /// Probes server `s` with a short-timeout round trip; `Ok` means the
    /// server answered. The liveness check behind
    /// [`crate::supervisor::ServerSupervisor::heal`].
    pub fn ping_server(&self, s: usize) -> Result<(), PsError> {
        let probe = self.probe_policy();
        let mut conns = self.sync.lock();
        // A cached connection to a killed server fails the probe (as it
        // should); drop it so the probe dials fresh and the verdict
        // reflects the server, not the stale socket.
        conns.invalidate(s);
        self.call_resilient(
            &mut conns,
            s,
            probe,
            None,
            false,
            &|buf| wire::encode_bodyless(buf, op::CHECK_FINITE),
            &mut wire::decode_finite,
        )
        .map(|_| ())
    }

    /// One `Hello` round trip to server `s`: returns its self-description
    /// (identity nonce, owned slice) under the short probe policy of
    /// [`Self::ping_server`]. A changed nonce at the same address means the
    /// instance was replaced (revived in-process, or its process respawned)
    /// and holds reset state.
    ///
    /// # Errors
    ///
    /// Returns the wire error if the server did not answer within the probe
    /// budget.
    pub fn server_info(&self, s: usize) -> Result<ServerInfo, PsError> {
        let probe = self.probe_policy();
        let mut conns = self.sync.lock();
        conns.invalidate(s);
        self.call_resilient(
            &mut conns,
            s,
            probe,
            None,
            false,
            &|buf| wire::encode_bodyless(buf, op::HELLO),
            &mut wire::decode_server_info,
        )
    }

    /// The readiness handshake: probes every server with `Hello` until each
    /// has answered or `deadline` elapses, then cross-checks the answers
    /// against the locally derived layout. This is what lets a `ps-worker`
    /// process be started before (or concurrently with) its `ps-serve`
    /// processes: the worker retries until the listeners bind.
    ///
    /// # Errors
    ///
    /// Returns the last wire error if a server stays unreachable past the
    /// deadline, or [`PsError::InvalidConfig`] if a server answers with an
    /// identity or slice that contradicts the spec (wrong index at an
    /// address, or a different `(param_count, shards, servers)` triple).
    pub fn handshake(&self, deadline: Duration) -> Result<Vec<ServerInfo>, PsError> {
        let start = Instant::now();
        let mut infos = Vec::with_capacity(self.tier.server_count());
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
            infos.push(info);
        }
        Ok(infos)
    }

    /// Kills server `s`'s serving loop through the transport's
    /// fault-injection hook (TCP backend; chaos testing). In-flight and
    /// cached connections are severed; this router's control-plane slot is
    /// invalidated so later ops dial fresh.
    pub fn kill_server(&self, s: usize) -> io::Result<()> {
        self.transport.kill_server(s)?;
        self.forget_server(s);
        let t = &self.telemetry;
        t.metrics.counter("fault.server_kills").inc();
        t.trace.instant(TraceKind::ServerKill { server: s as u64 });
        Ok(())
    }

    /// After the instance behind slot `s` was swapped out: drops the control
    /// plane's connection to it and ticks its view epoch, so whatever image
    /// a worker's connection still holds of the old instance is not served.
    fn forget_server(&self, s: usize) {
        let mut control = self.sync.lock();
        control.invalidate(s);
        self.tick_view_epoch(s);
    }

    /// Brings a fresh, zero-initialised instance of server `s` back up in
    /// place of a killed one. The instance serves immediately but holds no
    /// trained state — restore the tier from a checkpoint
    /// ([`Self::restore`]).
    pub fn revive_server(&self, s: usize) -> io::Result<()> {
        let fresh = self.tier.server(s, &vec![0.0f32; self.param_count()]);
        self.transport.revive_server(s, Arc::new(fresh))?;
        self.forget_server(s);
        let t = &self.telemetry;
        t.metrics.counter("fault.server_heals").inc();
        t.trace.instant(TraceKind::ServerHeal { server: s as u64 });
        Ok(())
    }

    /// One `Stats` round trip to server `s`: a point-in-time copy of its
    /// request accounting (per-opcode counts, payload bytes, dedup hits,
    /// apply timing), under the short probe policy of
    /// [`Self::ping_server`]. Unlike the probes it does *not* drop the
    /// cached control-plane connection — a scrape is a read, not a
    /// liveness verdict, and must not churn a healthy socket.
    ///
    /// # Errors
    ///
    /// Returns the wire error if the server did not answer within the
    /// probe budget.
    pub fn scrape_stats(&self, s: usize) -> Result<ServerStatsSnapshot, PsError> {
        let probe = self.probe_policy();
        let mut conns = self.sync.lock();
        self.call_resilient(
            &mut conns,
            s,
            probe,
            None,
            false,
            &|buf| wire::encode_bodyless(buf, op::STATS),
            &mut wire::decode_stats_snapshot,
        )
    }

    /// Scrapes every server (see [`Self::scrape_stats`]), yielding `None`
    /// for servers that did not answer within the probe budget.
    pub fn scrape_all_stats(&self) -> Vec<Option<ServerStatsSnapshot>> {
        (0..self.tier.server_count())
            .map(|s| self.scrape_stats(s).ok())
            .collect()
    }

    /// How many servers answered a stats scrape just now — the tier-health
    /// signal the adaptive sync controller folds into its demote decision
    /// (a server that cannot answer a read probe is not one to run ASP
    /// against).
    pub fn reachable_servers(&self) -> usize {
        self.scrape_all_stats().iter().flatten().count()
    }
}

/// One worker's private client state: its connections and the pushes it
/// has queued but not yet sent.
#[derive(Debug, Default)]
struct PortState {
    conns: ConnSet,
    /// `[BATCH][u16 n]` then `n × [u32 len][push payload]`: the pushes
    /// queued for `staged_for`, encoded as they were queued.
    staging: Vec<u8>,
    staged_for: usize,
    /// Pushes in `staging`.
    staged: usize,
    /// Pre-apply shard clocks of the pushes sent and not yet handed to the
    /// caller, in queue order.
    acks: Vec<u64>,
    /// Whether this worker's last pull asked for the whole vector — the
    /// kind of pull its next push or sync round can bring home in advance.
    pulls_dense: bool,
}

/// A worker's handle onto a [`NetRouter`]: the shared router plus this
/// worker's own lazily-opened connections and push staging buffer. Cloning
/// yields a handle with empty state, so every worker thread ends up with
/// its own connections (connection-per-worker) without any cross-thread
/// sharing — the per-clone mutex is only ever contended by its owning
/// thread.
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
            state: Mutex::new(PortState::default()),
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
    /// last queued push or sync round left on its connections where they
    /// are still current, over the wire otherwise (see
    /// [`NetRouter::pull_committed_into`]).
    pub fn pull_into(&self, buf: &mut PullBuffer) -> u64 {
        let port = &mut *self.state.lock();
        port.pulls_dense = true;
        self.router.pull_committed_into(&mut port.conns, buf, None)
    }

    /// Pulls only `runs` of the committed view — sorted, disjoint
    /// `(offset, len)` ranges of the flat vector — so only they cross the
    /// wire; the rest of `buf.params` keeps what it held. Same clocks and
    /// version as [`NetPort::pull_into`], always one round trip per server:
    /// which runs the next step reads is not known when this one pushes.
    pub fn pull_runs_into(&self, buf: &mut PullBuffer, runs: &[(usize, usize)]) -> u64 {
        let port = &mut *self.state.lock();
        port.pulls_dense = false;
        self.router
            .pull_committed_into(&mut port.conns, buf, Some(runs))
    }

    /// Queues the stage-1 apply of `grad` on global shard `g`. Nothing is
    /// promised to have reached the owner until [`NetPort::flush_pushes`];
    /// queueing for a different server sends what was queued before. The
    /// queue belongs to this handle: a worker queues and flushes on its own
    /// clone.
    pub fn queue_shard_update(&self, g: usize, grad: &[f32], lr: f64, momentum: f64) {
        self.router
            .queue_push(&mut self.state.lock(), g, |buf, local| {
                wire::encode_push_shard(buf, local, lr, momentum, grad);
            });
    }

    /// Queues a sparse stage-1 apply on global shard `g`: only the touched
    /// segments will cross the wire. Counted under the same `push`
    /// wire-stats class as the dense form (same op count, smaller payloads
    /// — the comparison the transport tests read off).
    pub fn queue_shard_update_sparse(
        &self,
        g: usize,
        indices: &[(u32, u32)],
        rows: &[f32],
        lr: f64,
        momentum: f64,
    ) {
        self.router
            .queue_push(&mut self.state.lock(), g, |buf, local| {
                wire::encode_push_shard_sparse(buf, local, lr, momentum, indices, rows);
            });
    }

    /// Sends whatever is still queued and appends to `acks` the owners'
    /// pre-apply live shard clocks of every push queued since the last
    /// flush, in queue order. After a whole-vector pull, the batches of a
    /// queued push also fetch the next one (see [`NetRouter::rides_push`]).
    pub fn flush_pushes(&self, acks: &mut Vec<u64>) {
        let port = &mut *self.state.lock();
        self.router.send_staged(port, self.router.rides_push(port));
        acks.append(&mut port.acks);
    }

    /// Post-push hook of the asynchronous loops: runs the stage-2 rounds
    /// the push counter has made due (see [`NetRouter::reconcile_from`]).
    pub fn after_push(&self) {
        self.router.reconcile_from(&mut self.state.lock());
    }

    /// Stage-1 apply over this worker's connection to the owner — a queue
    /// and a flush of one push, which travels as a bare `PushShard` frame.
    /// Returns the owner's pre-apply live shard clock.
    pub fn apply_shard_update(&self, g: usize, grad: &[f32], lr: f64, momentum: f64) -> u64 {
        self.push_now(g, |buf, local| {
            wire::encode_push_shard(buf, local, lr, momentum, grad);
        })
    }

    /// Stage-1 sparse apply over this worker's connection to the owner:
    /// only the touched segments of shard `g` cross the wire.
    pub fn apply_shard_update_sparse(
        &self,
        g: usize,
        indices: &[(u32, u32)],
        rows: &[f32],
        lr: f64,
        momentum: f64,
    ) -> u64 {
        self.push_now(g, |buf, local| {
            wire::encode_push_shard_sparse(buf, local, lr, momentum, indices, rows);
        })
    }

    /// Queues one push, sends the queue and takes that push's ack — under
    /// one hold of the state lock, so it stays atomic even on a port that
    /// threads share.
    fn push_now(&self, g: usize, encode: impl FnOnce(&mut Vec<u8>, u32)) -> u64 {
        let port = &mut *self.state.lock();
        self.router.queue_push(port, g, encode);
        self.router.send_staged(port, false);
        port.acks.pop().expect("the push just sent was acked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardRouter;

    fn topologies() -> Vec<ServerTopology> {
        vec![
            ServerTopology::new(2, 1).with_transport(TransportKind::Channel),
            ServerTopology::new(2, 1).with_transport(TransportKind::Tcp),
        ]
    }

    #[test]
    fn net_router_matches_in_process_router() {
        let initial: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let grad: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        for topology in topologies() {
            let inproc = ShardRouter::new(&initial, 5, ServerTopology::new(2, 1));
            let net = NetPort::launch(&initial, 5, topology);
            for step in 0..4 {
                for g in 0..5 {
                    let (o, l) = inproc.shard_range(g);
                    assert_eq!(net.router().shard_range(g), (o, l));
                    let a = inproc.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                    let b = net.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                    assert_eq!(a, b, "shard clock skew at step {step} shard {g}");
                }
                inproc.complete_push(step);
                net.router().complete_push(step);
                inproc.reconcile_if_due();
                net.router().reconcile_if_due();
            }
            assert_eq!(inproc.version(), net.router().version());
            assert_eq!(
                inproc.snapshot_params(),
                net.router().snapshot_params(),
                "{:?} diverged from in-process",
                net.router().transport_kind()
            );
            assert_eq!(inproc.snapshot_velocity(), net.router().snapshot_velocity());
            let mut a = PullBuffer::new();
            let mut b = PullBuffer::new();
            let va = inproc.pull_committed_into(&mut a);
            let vb = net.pull_into(&mut b);
            assert_eq!(va, vb);
            assert_eq!(a.params(), b.params());
            assert_eq!(a.shard_versions(), b.shard_versions());
        }
    }

    #[test]
    fn pulls_see_committed_view_and_honest_version() {
        for topology in topologies() {
            let initial = vec![1.0f32; 24];
            let net = NetPort::launch(&initial, 4, {
                let mut t = topology;
                t.sync_every = 8;
                t
            });
            let r = net.router();
            let mut buf = PullBuffer::new();
            net.pull_into(&mut buf);
            let before = buf.params().to_vec();
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                net.apply_shard_update(g, &vec![1.0; l], 0.5, 0.0);
            }
            r.complete_push(0);
            let v = net.pull_into(&mut buf);
            assert_eq!(buf.params(), &before[..], "stage-1 leaked into a pull");
            assert_eq!(v, 0, "pulled version must track the committed data");
            r.drain();
            let v = net.pull_into(&mut buf);
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
            port.queue_shard_update(g, &vec![scale; l], 0.1, 0.9);
        }
        let mut acks = Vec::new();
        port.flush_pushes(&mut acks);
        assert_eq!(acks.len(), r.shard_count());
        r.complete_push(r.version());
        r.stats().pull.ops - pulls
    }

    #[test]
    fn a_pull_rides_the_push_reply_until_a_round_completes() {
        for topology in topologies() {
            let initial: Vec<f32> = (0..26).map(|i| (i as f32).sin()).collect();
            let a = NetPort::launch(&initial, 4, {
                let mut t = topology;
                t.sync_every = 3;
                t
            });
            let b = a.clone();
            let r = a.router();
            let pull_trips = || r.stats().pull.round_trips;
            // What an explicit pull returns right now: a fresh port has
            // nothing to serve it from.
            let view = |port: &NetPort, buf: &mut PullBuffer| {
                let version = port.pull_into(buf);
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

            // B's push makes the round due and B runs it: the image A took
            // home with its own push predates a completed round, so A asks.
            assert_eq!(queued_push(&a, 2.0), 2);
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                b.apply_shard_update(g, &vec![0.5; l], 0.1, 0.9);
            }
            r.complete_push(r.version());
            r.reconcile_if_due();
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
            b.router().drain();
            let before = pull_trips();
            let after_drain = pulled(&a);
            assert_eq!(pull_trips(), before + 2);
            assert_eq!(after_drain, asked());
            assert_eq!(after_drain.0, r.snapshot_params());

            // ... and after a restore, which drains.
            assert_eq!(queued_push(&a, 4.0), 2);
            let (params, velocity) = (vec![0.25f32; 26], vec![0.0f32; 26]);
            b.router().restore(&params, &velocity);
            let before = pull_trips();
            let restored = pulled(&a);
            assert_eq!(pull_trips(), before + 2);
            assert_eq!(restored.0, params);

            // The push that makes a round due leaves the pull to the round,
            // and the round A then runs brings it home.
            assert_eq!(queued_push(&a, 5.0), 2);
            assert_eq!(queued_push(&a, 6.0), 2);
            assert_eq!(queued_push(&a, 7.0), 0, "the round will outdate it");
            let (rounds, sync_trips) = (r.sync_rounds(), r.stats().sync.round_trips);
            a.after_push();
            assert_eq!(r.sync_rounds(), rounds + 1);
            assert_eq!(r.stats().sync.round_trips, sync_trips + 2);
            let before = pull_trips();
            let own_round = pulled(&a);
            assert_eq!(pull_trips(), before, "the round's reply carried the pull");
            assert_eq!(own_round, asked());
            assert_eq!(own_round.0, r.snapshot_params());

            // A killed server takes the image on its connection with it: the
            // pull of *that* server goes to the wire and re-dials the
            // replacement. Server 0 was not touched, so its image still
            // stands and is served.
            assert_eq!(queued_push(&a, 8.0), 2);
            if r.kill_server(1).is_err() {
                continue; // only the TCP backend kills in place
            }
            r.revive_server(1).expect("revive");
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
        for topology in topologies() {
            let initial: Vec<f32> = (0..30).map(|i| i as f32 * 0.1).collect();
            let net = NetPort::launch(&initial, 6, topology);
            let r = net.router();
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                net.apply_shard_update(g, &vec![1.0; l], 0.1, 0.9);
            }
            r.complete_push(0);
            let params = r.snapshot_params();
            let velocity = r.snapshot_velocity();
            for g in 0..r.shard_count() {
                let (_, l) = r.shard_range(g);
                net.apply_shard_update(g, &vec![5.0; l], 0.1, 0.9);
            }
            assert_ne!(r.snapshot_params(), params);
            r.restore(&params, &velocity);
            assert_eq!(r.snapshot_params(), params);
            assert_eq!(r.snapshot_velocity(), velocity);
            let mut buf = PullBuffer::new();
            net.pull_into(&mut buf);
            assert_eq!(buf.params(), &params[..], "restore must drain");
            assert!(r.is_finite());
            r.reset_velocity();
            assert!(r.snapshot_velocity().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn wire_stats_count_every_round_trip() {
        let net = NetPort::launch(
            &[0.5f32; 16],
            4,
            ServerTopology::new(2, 2).with_transport(TransportKind::Channel),
        );
        let r = net.router();
        let mut buf = PullBuffer::new();
        net.pull_into(&mut buf);
        for g in 0..4 {
            let (_, l) = r.shard_range(g);
            net.apply_shard_update(g, &vec![1.0; l], 0.1, 0.0);
        }
        r.complete_push(0);
        r.drain();
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
        let initial: Vec<f32> = (0..32).map(|i| i as f32 * 0.05).collect();
        let grad: Vec<f32> = (0..32).map(|i| (i as f32).cos()).collect();
        let mut plan = crate::transport::FaultPlan::seeded(7);
        plan.drop_reply_per_mille = 150;
        let clean = ShardRouter::new(&initial, 4, ServerTopology::new(2, 2));
        let net = NetPort::launch(
            &initial,
            4,
            ServerTopology::new(2, 2)
                .with_transport(TransportKind::Channel)
                .with_faults(plan),
        );
        for step in 0..6 {
            for g in 0..4 {
                let (o, l) = clean.shard_range(g);
                let a = clean.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                let b = net.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                // A dropped-reply retry must replay the cached ack, so even
                // the pre-apply clocks match the fault-free run.
                assert_eq!(a, b, "shard clock skew at step {step} shard {g}");
            }
            clean.complete_push(step);
            net.router().complete_push(step);
            clean.reconcile_if_due();
            net.router().reconcile_if_due();
        }
        clean.drain();
        net.router().drain();
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
        let net = NetPort::launch(
            &[0.5f32; 16],
            4,
            ServerTopology::new(2, 2).with_transport(TransportKind::Channel),
        );
        let r = net.router();
        let mut buf = PullBuffer::new();
        net.pull_into(&mut buf);
        for g in 0..4 {
            let (_, l) = r.shard_range(g);
            net.apply_shard_update(g, &vec![1.0; l], 0.1, 0.0);
        }
        r.complete_push(0);
        r.drain();
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
        for step in 0..8 {
            for g in 0..4 {
                let (_, l) = net.router().shard_range(g);
                net.apply_shard_update(g, &vec![1.0; l], 0.05, 0.9);
            }
            net.router().complete_push(step);
            net.router().reconcile_if_due();
        }
        net.router().drain();
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
    fn clamps_servers_to_shards() {
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
