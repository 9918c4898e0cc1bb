//! The shard router, the one client of a multi-server tier: the tier's
//! [`Tier`] shape and the cluster version clock, with every server
//! interaction crossing a [`Transport`].
//!
//! The split of responsibilities mirrors a real PS deployment:
//!
//! * **Server-side state** (live + committed stores, shard clocks, the
//!   stage-2 period and commit epoch) lives in the [`PsServer`]s owned by
//!   the transport's serving loops; the client can only reach it through
//!   request/reply frames.
//! * **Client-side state** is the version clock, shared by all workers of
//!   one trainer, plus what the servers have told it: each one's commit
//!   epoch. The [`Tier`] it routes by is the one its servers were built
//!   from. This router is the one client on every multi-server plane — the
//!   in-process one runs it over the threadless direct transport — so
//!   staleness is measured by one piece of code.
//!
//! Workers hold a [`NetPort`] clone each; a clone lazily opens its own
//! connection per server (connection-per-worker on every backend), so
//! worker threads never share a socket or contend on a connection lock. A
//! trainer keeps each worker's clone across segments and drops it only on
//! a failed segment or a restore, so a worker dials each server once per
//! lifetime, not once per segment.
//!
//! Every operation is strictly request/reply, and every data-plane request
//! has one shape, `[push × n][Drain]?[PullCommitted(runs?)]?`, built by one
//! encoder and read by one decoder ([`NetRouter::send`]), the pull bodyless
//! for the whole slice or carrying the server's pieces of the runs a step
//! reads. Its reply is `[ack × n][Synced]?[Pulled]?`, the
//! `Synced` there when the request drained or its pushes made the server's
//! periodic commit due. Each round trip is booked from its own items
//! ([`Split::of`]; the rule is stated on [`TransportStats`]), so the
//! client's operation counts equal the servers' per-opcode counts.
//!
//! * **A push** sends each server *all* of the worker's shards it owns in
//!   one request: pushes are staged per server
//!   ([`NetPort::queue_shard_update`] encodes straight into the port's
//!   staging buffer for the owner) and go out together on
//!   [`NetPort::flush_pushes`], server by server ([`NetRouter::send_all`]).
//!   Round trips to different servers are not overlapped: on a small box
//!   the extra runnable threads cost more than the overlap saves.
//! * **A pull** asks each server for the runs the step reads, or its slice
//!   (every server answers either way — its clocks date the pull). A push
//!   asks for the worker's next pull too: the whole slice after a
//!   whole-vector pull, or the runs of the batch an asynchronous worker
//!   drew before it pushed. The `Pulled` image stays in the connection's
//!   reply buffer until a pull of the same decodes it.
//! * **An asynchronous stage-2 round** is the servers' own: each commits
//!   behind the applies of every `sync_every`-th request that carries
//!   pushes to it, from whichever client, so the round rides the push that
//!   makes it due and costs no round trip. Nothing about the schedule is
//!   kept here; a drain and a restore commit over the control plane.
//! * **A BSP round** is one request per server too: the worker that
//!   completes it ([`crate::WorkerPort::commit_round`]) sends each server
//!   its averaged stripes, a `Drain` and a `PullCommitted`, and decodes the
//!   images into the round's image, which every worker of the round starts
//!   the next one from, as on the single store.
//!
//! **The stamp rule.** A server numbers its commits in the order they
//! completed, and this router keeps, per server, the highest epoch any reply
//! has reported ([`NetRouter::epochs`], raised with `fetch_max`, no lock).
//! Each image is stamped with the epoch its own request's `Synced`
//! reported, or, if that request did not commit, the known epoch read
//! before it was first sent, and is served only while the known epoch still
//! equals the stamp. Either way the image holds every commit up to its
//! stamp; so if the known epoch has not moved, every round this process
//! has seen complete is in the image, and the image is what asking would
//! return as far as this process can tell — the committed view changes on
//! commits only. A handshake that finds a server replaced moves its known
//! epoch past every stamp of the old instance. Commits that another
//! process's pushes make due are tier-wide, but a process learns of them
//! only when a reply of its own reports a later epoch.

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
        op::DRAIN | op::SYNCED => Some(SYNC),
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

/// The next item of a reply, which must have one.
fn next_item<'a>(items: &mut impl Iterator<Item = &'a [u8]>) -> Result<&'a [u8], WireError> {
    items.next().ok_or(WireError::Truncated)
}

/// What a data-plane request brings home of the server's committed view.
enum Pull<'a> {
    /// Nothing: no `PullCommitted` rides.
    No,
    /// What the port's next pull reads ([`PortState::runs`]), left on the
    /// connection under its stamp for that pull to decode.
    Prefetch,
    /// These runs of the flat vector, decoded at once into this server's
    /// part of an image: its parameters and its shards' clocks.
    Into(&'a [(usize, usize)], &'a mut [f32], &'a mut [u64]),
}

/// The one data-plane request encoder: the `n` pushes `staged` holds
/// (`[BATCH][u16 n]` then their items), then a `Drain` if `drain`, then the
/// `PullCommitted` `pull` encodes, if any — as one batch, or as a bare
/// frame when that is a single item.
fn encode_request(
    buf: &mut Vec<u8>,
    staged: &[u8],
    n: usize,
    drain: bool,
    pull: Option<impl Fn(&mut Vec<u8>)>,
) {
    if n + usize::from(drain) + usize::from(pull.is_some()) == 1 {
        // No batch header and no length prefix.
        if drain {
            wire::encode_bodyless(buf, op::DRAIN);
        } else if let Some(pull) = pull {
            pull(buf);
        } else {
            buf.extend_from_slice(&staged[wire::BATCH_HEADER_BYTES + 4..]);
        }
        return;
    }
    let head = buf.len();
    if n == 0 {
        wire::begin_batch(buf, op::BATCH);
    } else {
        buf.extend_from_slice(staged);
    }
    if drain {
        wire::put_bodyless_item(buf, head, op::DRAIN);
    }
    if let Some(pull) = pull {
        let mark = wire::open_batch_item(buf);
        pull(buf);
        wire::close_batch_item(buf, head, mark);
    }
}

/// One server's connection slot: the (lazily opened) connection plus the
/// idempotent re-send state — this slot's process-unique client id and its
/// next request sequence number.
#[derive(Debug)]
struct ConnSlot {
    conn: Option<Box<dyn Conn>>,
    /// Set while `conn`'s last reply is a batch reply ending in a `Pulled`
    /// image of the port's runs: its stamp, a commit epoch of the server
    /// (see the stamp rule). The image is what a pull of those runs would
    /// return for as long as the known epoch still equals it; any other
    /// call on the connection (or losing it) forgets it.
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
    /// is stamped with the server's known epoch `epoch`.
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
/// pulls and pushes, and BSP's round commit — which the engine passes up
/// as its segment's error. Only the
/// reads [`Self::snapshot_params`] and [`Self::snapshot_velocity`] still
/// panic with the error's message.
#[derive(Debug)]
pub struct NetRouter {
    kind: TransportKind,
    /// The tier's shape: layout, ownership map, slices, stage-2 period.
    tier: Tier,
    /// Completed pushes — the version clock (of this process's workers).
    ///
    /// **Process-local.** "Cluster" here means the workers of this process.
    /// The clock — and with it the BSP barrier and the SSP floor — is an
    /// atomic in this address space. Several `ps-worker` processes on one
    /// `ps-serve` tier each hold their own router: each counts its own
    /// pushes and is BSP among its own threads only, and the processes are
    /// asynchronous to one another (ROADMAP item 1). The servers' commits
    /// are tier-wide: every process's pushes count toward each server's
    /// period.
    version: AtomicU64,
    /// Timeout/retry/backoff budget for every wire operation.
    retry: RetryPolicy,
    stats: WireCounters,
    /// Per server, the highest commit epoch a reply has reported, in this
    /// router's numbering: the instance's own epoch plus its entry in
    /// `epoch_bases`. Raised with `fetch_max` only, by whichever worker's
    /// reply reports it, and past every stamp of a replaced instance by the
    /// handshake that finds it. The stamp rule reads it.
    epochs: Vec<AtomicU64>,
    /// Per server, what its current instance's epochs are shifted by: the
    /// known epoch when a handshake found the instance, so that its epochs
    /// start above every epoch of the instances before it.
    epoch_bases: Vec<AtomicU64>,
    /// The stage-2 rounds every server has completed, drains included: the
    /// lowest of `epochs`, as it was last raised.
    rounds: AtomicU64,
    /// Per server, the instance nonce it last answered a handshake with, or
    /// the one it was launched with; `None` until known.
    instances: Mutex<Vec<Option<u64>>>,
    /// The data plane's telemetry bus: the router emits its wire events on
    /// it (retries, sync rounds, kills, heals), and the trainer over this
    /// router adopts it, so they share a clock and a trace with the
    /// engine's step spans.
    telemetry: Arc<Telemetry>,
    /// `wire.sync_rounds` (it follows `rounds`), `wire.retries` and
    /// `wire.requests` (requests answered) on that bus, resolved once.
    /// `wire.retries` is the one retry count: [`NetRouter::stats`] reads
    /// it.
    sync_rounds_counter: Arc<Counter>,
    retries_counter: Arc<Counter>,
    requests_counter: Arc<Counter>,
    /// The control plane's own connections (drains, restores, snapshots,
    /// probes), one caller at a time.
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
    /// parameter count ([`Tier::new`]).
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
        let zeros = || {
            (0..tier.server_count())
                .map(|_| AtomicU64::new(0))
                .collect()
        };
        NetRouter {
            kind,
            retry,
            stats: WireCounters::default(),
            version: AtomicU64::new(0),
            epochs: zeros(),
            epoch_bases: zeros(),
            rounds: AtomicU64::new(0),
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
    /// Nothing is spawned and no I/O happens here: the ownership map is the
    /// [`Tier::remote`] every `ps-serve` process derives from the same
    /// `(param_count, shards, servers, sync_every)`, and connections open
    /// lazily. Call [`NetRouter::handshake`] afterwards to wait for the
    /// servers to bind, to verify they agree on the tier, and to record
    /// which instances they are.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] if [`Tier::remote`] refuses the
    /// shape — a remote tier is never silently clamped: the spec says
    /// `ps-serve` processes exist, so a shape that cannot give each one
    /// shards, or each shard parameters, is a misconfiguration, not a
    /// request to ignore some — or `retry` is invalid
    /// ([`RetryPolicy::validate`]).
    pub fn connect(
        param_count: usize,
        shards: usize,
        addrs: &[SocketAddr],
        sync_every: u64,
        retry: RetryPolicy,
    ) -> Result<Self, PsError> {
        retry.validate().map_err(PsError::InvalidConfig)?;
        let tier = Tier::remote(param_count, shards, addrs.len(), sync_every)
            .map_err(PsError::InvalidConfig)?;
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

    /// The tier's shape: layout, ownership and each server's slice.
    pub fn tier(&self) -> &Tier {
        &self.tier
    }

    /// Cluster-global version: number of completed pushes.
    pub fn version(&self) -> u64 {
        // Acquire: pairs with the Release bump in `complete_push`.
        self.version.load(Ordering::Acquire)
    }

    /// The stage-2 rounds every server has completed (drains included), as
    /// their replies to this router reported them.
    pub fn sync_rounds(&self) -> u64 {
        self.rounds.load(Ordering::Acquire)
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
    /// push's staleness relative to `pulled_version` (race-free, from the
    /// `fetch_add` return value — as the single store does).
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        // Release: pairs with the Acquire load in `version`.
        self.version
            .fetch_add(1, Ordering::Release)
            .saturating_sub(pulled_version)
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
    fn pull_with<E>(
        &self,
        buf: &mut PullBuffer,
        fill: impl FnOnce(&mut [f32], &mut [u64]) -> Result<(), E>,
    ) -> Result<u64, E> {
        let version = self.version();
        buf.params.resize(self.tier.param_count(), 0.0);
        buf.shard_versions.resize(self.tier.shard_count(), 0);
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

    /// Drains stage 2: commits every server unconditionally, over the
    /// control plane, so the committed view equals the live view and each
    /// server's period starts over (switches, restore; a BSP round's drain
    /// rides its commit instead).
    ///
    /// # Errors
    ///
    /// Returns the wire error of a server that did not answer within the
    /// retry budget.
    pub fn drain(&self) -> Result<(), PsError> {
        self.send_all(&mut self.sync.lock(), true, None)
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
    /// the operations its reply items answer and its bytes both ways, and
    /// the first request item's class the round trip and its wire time. A
    /// control-plane request books nothing.
    fn book(&self, sent: &Split, received: &Split, elapsed: Duration) {
        let Some(payer) = sent.first else {
            return;
        };
        for (c, counters) in self.stats.classes.iter().enumerate() {
            let paid = u64::from(c == payer);
            let ops = received.items[c];
            if paid == 1 || ops > 0 {
                let ns = paid * elapsed.as_nanos() as u64;
                counters.record([ops, paid, ns, sent.bytes[c], received.bytes[c]]);
            }
        }
    }

    /// Sends server `s` one data-plane request over `port`'s connection,
    /// `[push × n][Drain]?[PullCommitted]?`: the `n` pushes `port` has
    /// staged for `s`, then a `Drain` if `drain`, then a `PullCommitted`
    /// unless `pull` is [`Pull::No`] — with this server's pieces of the runs
    /// it reads, or bodyless if they are its whole slice. Sequenced unless it
    /// is a lone pull, so a re-send after a lost reply replays the cached
    /// reply and applies no push or commit twice.
    ///
    /// The one decoder reads the reply — a batch, or a bare item: each
    /// push's pre-apply shard clock into `port.acks`, in the order staged;
    /// the `Synced` a drain, or a periodic commit the pushes made due,
    /// answers with, whose epoch is noted ([`NetRouter::note_epoch`]); then
    /// the `Pulled` image, which [`Pull::Into`] decodes where it says and
    /// [`Pull::Prefetch`] checks against what it read and leaves on the
    /// connection under its stamp: that epoch, or the known epoch read
    /// before the send (see the stamp rule).
    fn send(
        &self,
        port: &mut PortState,
        s: usize,
        drain: bool,
        mut pull: Pull<'_>,
    ) -> Result<(), PsError> {
        let n = std::mem::take(&mut port.staged[s].n);
        let reads = match &pull {
            Pull::No => None,
            Pull::Prefetch => Some(port.runs.as_slice()),
            Pull::Into(runs, ..) => Some(*runs),
        };
        let slice = &self.tier.slices()[s];
        let (po, pl) = slice.param_range;
        // This server's pieces of the runs, in its own offsets.
        let local = |runs| runs_within(runs, po, pl).map(move |(at, n)| (at - po, n));
        let encode_pull = |buf: &mut Vec<u8>| match reads.map(local) {
            Some(pieces) if !pieces.clone().eq([(0, pl)]) => wire::encode_pull_runs(buf, pieces),
            _ => wire::encode_bodyless(buf, op::PULL_COMMITTED),
        };
        let known = self.epoch(s);
        let base = port.acks.len();
        let mut synced = None;
        self.call_resilient(
            &mut port.conns[s],
            s,
            self.retry,
            n > 0 || drain,
            &|buf| {
                let pull = reads.is_some().then_some(&encode_pull);
                encode_request(buf, &port.staged[s].buf, n, drain, pull);
            },
            &mut |reply| {
                // A failed attempt may have decoded part of a corrupt reply.
                port.acks.truncate(base);
                let batch = if reply.first() == Some(&op::BATCH_REPLY) {
                    Some(wire::batch_items(reply, op::BATCH_REPLY)?)
                } else {
                    None
                };
                let bare = batch.is_none().then_some(reply);
                let mut rest = batch.into_iter().flatten().chain(bare).peekable();
                for _ in 0..n {
                    port.acks
                        .push(wire::decode_push_ack(next_item(&mut rest)?)?);
                }
                synced = if drain || rest.peek().is_some_and(|item| item[0] == op::SYNCED) {
                    Some(wire::decode_synced(next_item(&mut rest)?)?)
                } else {
                    None
                };
                match (&mut pull, reads) {
                    (Pull::Prefetch, Some(runs)) => wire::expect_pulled(
                        next_item(&mut rest)?,
                        local(runs).map(|(_, len)| len).sum(),
                        slice.shard_count,
                    )?,
                    (Pull::Into(_, params, clocks), Some(runs)) => {
                        let item = next_item(&mut rest)?;
                        wire::decode_pulled_runs_into(item, local(runs), params, clocks)?
                    }
                    _ => {}
                }
                rest.next().map_or(Ok(()), |_| Err(WireError::Truncated))
            },
        )?;
        let stamp = synced.map_or(known, |epoch| self.note_epoch(s, epoch));
        if let Pull::Prefetch = pull {
            port.conns[s].prefetch = Some(stamp);
        }
        Ok(())
    }

    /// The one loop every push and drain takes: per server, its staged
    /// pushes, a `Drain` if `drain`, and a pull — decoded into its part of
    /// `image`, the whole tier's parameters and clocks, if given, or else
    /// prefetched if the port rides its runs. Without a drain, a server with
    /// nothing staged is skipped, and its held image forgotten (it may be of
    /// other runs). The acks land in shard order.
    fn send_all(
        &self,
        port: &mut PortState,
        drain: bool,
        mut image: Option<(&mut [f32], &mut [u64])>,
    ) -> Result<(), PsError> {
        for (s, slice) in self.tier.slices().iter().enumerate() {
            if !drain && port.staged[s].n == 0 {
                port.conns[s].prefetch = None;
                continue;
            }
            let ((po, pl), so) = (slice.param_range, slice.shard_offset);
            let whole = [slice.param_range];
            let pull = match &mut image {
                Some((params, clocks)) => Pull::Into(
                    &whole,
                    &mut params[po..po + pl],
                    &mut clocks[so..so + slice.shard_count],
                ),
                None if port.rides => Pull::Prefetch,
                None => Pull::No,
            };
            self.send(port, s, drain, pull)?;
        }
        Ok(())
    }

    /// BSP's round commit over `port`'s own connections: `stripe(g, push)`
    /// hands `push` each shard's averaged gradient to stage, then each
    /// server gets its stripes with a `Drain` and a `PullCommitted` behind
    /// them as one request. The replies' acks land in `port.acks` in shard
    /// order and their images in `image` (through [`NetRouter::pull_with`]). A
    /// re-send replays the cached acks and `Synced` and re-reads the pull,
    /// which the drain already covers.
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
        self.pull_with(image, |params, clocks| {
            self.send_all(port, true, Some((params, clocks)))
        })?;
        Ok(())
    }

    /// Server `s`'s known epoch (see [`NetRouter::epochs`]).
    fn epoch(&self, s: usize) -> u64 {
        // Acquire: pairs with the raise in `note_epoch`, so a worker that
        // sees a round complete also sees every epoch it raised.
        self.epochs[s].load(Ordering::Acquire)
    }

    /// Notes that server `s` reported commit epoch `reported`: raises its
    /// known epoch to it, in this router's numbering, and with that the
    /// rounds every server has completed, which `wire.sync_rounds` and a
    /// `SyncRound` trace event follow. Lock-free. Returns the epoch in this
    /// router's numbering: the stamp of an image read behind the commit.
    fn note_epoch(&self, s: usize, reported: u64) -> u64 {
        let epoch = self.epoch_bases[s].load(Ordering::Acquire) + reported;
        if self.epochs[s].fetch_max(epoch, Ordering::AcqRel) < epoch {
            let done = self.epochs.iter().map(|e| e.load(Ordering::Acquire)).min();
            let done = done.unwrap_or(0);
            let before = self.rounds.fetch_max(done, Ordering::AcqRel);
            if done > before {
                self.sync_rounds_counter.add(done - before);
                (self.telemetry.trace).instant(TraceKind::SyncRound { round: done });
            }
        }
        epoch
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
        // Three short of the batch's item limit: a drain and a pull may join
        // the pushes, and the server may add a `Synced` to the reply.
        if port.staged[s].n == usize::from(u16::MAX) - 3 {
            self.send(port, s, false, Pull::No)?;
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

    /// Pulls the committed view of every server through `port` into `buf`,
    /// decoding each server's `Pulled` frame straight into the flat buffer
    /// (the decode is the pull's single parameter copy). With `runs` —
    /// sorted, disjoint `(offset, len)` ranges of the flat vector — each
    /// server is asked for, and replies with, only the pieces of them it
    /// owns, in its own offsets; a server that owns none is still asked
    /// (with an empty list), because its clocks feed the version and the
    /// per-shard staleness. Returns the effective data version (see
    /// [`NetRouter::pull_with`]).
    ///
    /// A pull costs a server no round trip while that server's connection
    /// holds an image an earlier push reply brought along of these very runs
    /// (compared run by run, not by total length), under a stamp that is
    /// still current (see the stamp rule): it holds every commit this
    /// router has seen reported before the pull was asked for. Otherwise
    /// the server is asked.
    fn pull_committed_into(
        &self,
        port: &mut PortState,
        buf: &mut PullBuffer,
        runs: &[(usize, usize)],
    ) -> Result<u64, PsError> {
        let rode = port.rides && port.runs == runs;
        self.pull_with(buf, |all_params, all_clocks| {
            for (s, slice) in self.tier.slices().iter().enumerate() {
                let (po, pl) = slice.param_range;
                let so = slice.shard_offset;
                let params = &mut all_params[po..po + pl];
                let clocks = &mut all_clocks[so..so + slice.shard_count];
                let held = port.conns[s].prefetched(self.epoch(s)).filter(|_| rode);
                let local = runs_within(runs, po, pl).map(|(at, n)| (at - po, n));
                let decode = |it| wire::decode_pulled_runs_into(it, local, params, clocks);
                if held.is_none_or(|it| decode(it).is_err()) {
                    self.send(port, s, false, Pull::Into(runs, params, clocks))?;
                }
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
        let mut out = vec![0.0f32; self.tier.param_count()];
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
        let n = self.tier.param_count();
        assert_eq!(params.len(), n, "params length mismatch");
        assert_eq!(velocity.len(), n, "velocity length mismatch");
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
        self.send_all(&mut control, true, None)
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
    /// processes. For each replaced server its known epoch moves past every
    /// stamp of the old instance, so none of its images is served, and the
    /// new instance's epochs are numbered from there; the control plane's
    /// connection to it drops, and `fault.server_kills` /
    /// `fault.server_heals` count and trace the pair.
    ///
    /// # Errors
    ///
    /// Returns the last wire error if a server stays unreachable past the
    /// deadline, or [`PsError::InvalidConfig`] if a server's answer
    /// differs, nonce aside, from the [`ServerInfo`] this router's [`Tier`]
    /// builds for it (`Tier::info`): wrong index at an address, another
    /// slice from a different `(param_count, shards, servers)`, or a
    /// different `sync_every`.
    pub fn handshake(&self, deadline: Duration) -> Result<usize, PsError> {
        let start = Instant::now();
        let mut replaced = 0;
        for s in 0..self.tier.server_count() {
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
            let expect = self.tier.info(s, info.nonce);
            if info != expect {
                return Err(PsError::InvalidConfig(format!(
                    "server {s} answered with identity/slice/sync_every {info}, spec says \
                     {expect} — address list, (params, shards, servers) and sync_every must \
                     match across the cluster"
                )));
            }
            let recorded = self.instances.lock()[s].replace(info.nonce);
            if recorded.is_none_or(|nonce| nonce == info.nonce) {
                continue;
            }
            replaced += 1;
            self.sync.lock().conns[s].invalidate();
            // The fresh instance's epoch 0 is one past everything the old
            // one reported.
            let base = self.epochs[s].fetch_add(1, Ordering::AcqRel) + 1;
            self.epoch_bases[s].store(base, Ordering::Release);
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
        let fresh = self.tier.server(s, &vec![0.0f32; self.tier.param_count()]);
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
    /// Whether each request of the next flush brings `runs` home: not on
    /// the control plane, nor after a pull by run unless handed new runs.
    rides: bool,
    /// What this worker's next pull reads: the whole vector's one run after
    /// a whole-vector pull, or the runs of the batch it drew for its next
    /// step (a reused buffer).
    runs: Vec<(usize, usize)>,
}

/// The pushes staged for one server: `[BATCH][u16 n]` then
/// `n × [u32 len][push payload]`, encoded as they were queued.
#[derive(Debug, Default)]
struct Staged {
    buf: Vec<u8>,
    n: usize,
}

impl PortState {
    /// Makes `runs` what the next flush brings home.
    fn ride(&mut self, runs: &[(usize, usize)]) {
        self.rides = true;
        self.runs.clear();
        self.runs.extend_from_slice(runs);
    }

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
            state: Mutex::new(PortState::new(router.tier.server_count())),
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
    /// [`NetRouter::pull_committed_into`]). The worker's next flush brings
    /// the whole vector home again, unless it is handed runs.
    pub fn pull_into(&self, buf: &mut PullBuffer) -> Result<u64, PsError> {
        let port = &mut *self.state.lock();
        let whole = [(0, self.router.tier.param_count())];
        let version = self.router.pull_committed_into(port, buf, &whole);
        port.ride(&whole);
        version
    }

    /// Pulls only `runs` of the committed view — sorted, disjoint
    /// `(offset, len)` ranges of the flat vector — so only they cross the
    /// wire; the rest of `buf.params` keeps what it held. Same clocks and
    /// version as [`NetPort::pull_into`]. Served like it, from the images
    /// the last flushed push brought home, when that push was handed these
    /// very runs ([`NetPort::flush_pushes`]); its next flush brings nothing
    /// home unless it is handed runs too.
    pub fn pull_runs_into(
        &self,
        buf: &mut PullBuffer,
        runs: &[(usize, usize)],
    ) -> Result<u64, PsError> {
        let port = &mut *self.state.lock();
        let version = self.router.pull_committed_into(port, buf, runs);
        port.rides = false;
        version
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

    /// Sends each server whatever is still queued for it as one request —
    /// behind whose pushes the server commits if they complete its period,
    /// so the round costs no round trip of its own — and appends to `acks`
    /// the owners' pre-apply live shard clocks of every push queued since
    /// the last flush, in shard order. Each request also fetches what the
    /// worker's next pull reads, where that is known: `next_runs`, the runs
    /// of the batch the worker drew for its next step, or else the whole
    /// vector after a whole-vector pull.
    pub fn flush_pushes(
        &self,
        acks: &mut Vec<u64>,
        next_runs: Option<&[(usize, usize)]>,
    ) -> Result<(), PsError> {
        let port = &mut *self.state.lock();
        if let Some(runs) = next_runs {
            port.ride(runs);
        }
        self.router.send_all(port, false, None)?;
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

    /// Ends a push sent shard by shard ([`NetPort::send_queued`]). Does
    /// nothing (see [`crate::WorkerPort::after_push`]).
    pub fn after_push(&self) -> Result<(), PsError> {
        Ok(())
    }

    /// Sends each server the pushes queued for it with no pull, and appends
    /// their pre-apply shard clocks to `acks`, in shard order: the
    /// shard-by-shard push path.
    pub(crate) fn send_queued(&self, acks: &mut Vec<u64>) -> Result<(), PsError> {
        let port = &mut *self.state.lock();
        for s in 0..port.staged.len() {
            if port.staged[s].n > 0 {
                self.router.send(port, s, false, Pull::No)?;
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
            // router's commit path. With `sync_every` 1 every push request
            // commits, so the tier's committed view is the store's live one.
            let single = ShardedStore::new(&initial, 5);
            let net = NetPort::launch(&initial, 5, topology);
            let w = WorkerPort::Net(net.clone());
            for step in 0..4 {
                for g in 0..5 {
                    let (o, l) = single.shard_range(g);
                    assert_eq!(net.router().tier().shard_range(g), (o, l));
                    let a = single.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
                    let b = w.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9).unwrap();
                    assert_eq!(a, b, "shard clock skew at step {step} shard {g}");
                }
                single.complete_push(step);
                net.router().complete_push(step);
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
            for g in 0..r.tier().shard_count() {
                let (_, l) = r.tier().shard_range(g);
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
        riding_push(port, scale, None)
    }

    /// [`queued_push`] with the runs the worker's next pull reads handed to
    /// the flush.
    fn riding_push(port: &NetPort, scale: f32, next_runs: Option<&[(usize, usize)]>) -> u64 {
        let r = port.router();
        let pulls = r.stats().pull.ops;
        for g in 0..r.tier().shard_count() {
            let (_, l) = r.tier().shard_range(g);
            let grad = vec![scale; l];
            port.queue_shard_update(g, UpdateData::Dense(&grad), 0.1, 0.9)
                .unwrap();
        }
        let mut acks = Vec::new();
        port.flush_pushes(&mut acks, next_runs).unwrap();
        assert_eq!(acks.len(), r.tier().shard_count());
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
            let b = a.clone();
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

            // B's push is each server's third, so each commits behind it: the
            // image A took home with its own push predates a completed round,
            // so A asks.
            assert_eq!(queued_push(&a, 2.0), 2);
            assert_eq!(queued_push(&b, 0.5), 0, "B has not pulled the whole vector");
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
            let (po, _) = r.tier().shard_range(2);
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
    fn a_run_pull_rides_the_push_it_was_handed_to_until_a_round_completes() {
        let _deadline = deadline(60);
        for topology in topologies() {
            let initial: Vec<f32> = (0..26).map(|i| (i as f32).cos()).collect();
            let a = NetPort::launch(&initial, 4, {
                let mut t = topology;
                t.sync_every = 3;
                t
            });
            let b = a.clone();
            let r = a.router();
            let pull_trips = || r.stats().pull.round_trips;
            // These runs reach both servers, and the second list has the
            // same total length.
            let runs = [(1, 3), (9, 6), (20, 2)];
            let shifted = [(2, 3), (9, 6), (20, 2)];
            let (po, _) = r.tier().shard_range(2);
            let on_server_0: usize = runs_within(&runs, 0, po).map(|(_, n)| n).sum();
            // A pull of `runs`: their values, the clocks and the version.
            let view = |port: &NetPort, buf: &mut PullBuffer, runs: &[(usize, usize)]| {
                let version = port.pull_runs_into(buf, runs).unwrap();
                let values: Vec<f32> = (runs.iter())
                    .flat_map(|&(o, l)| buf.params()[o..o + l].to_vec())
                    .collect();
                (values, buf.shard_versions().to_vec(), version)
            };
            // What a fresh port, which has nothing to serve from, is told.
            let asked = |runs: &[(usize, usize)]| view(&a.clone(), &mut PullBuffer::new(), runs);
            let mut buf = PullBuffer::new();

            // Handed the runs, each server's push request brings its pieces
            // home, and the pull of exactly those runs is served.
            assert_eq!(riding_push(&a, 1.0, Some(&runs[..])), 2);
            let before = pull_trips();
            let rode = view(&a, &mut buf, &runs);
            assert_eq!(pull_trips(), before, "a ridden run image is served");
            assert_eq!(rode, asked(&runs));
            let committed: Vec<f32> = (runs.iter())
                .flat_map(|&(o, l)| initial[o..o + l].to_vec())
                .collect();
            assert_eq!(rode.0, committed, "stage 1 must not leak into a pull");

            // Another run list of the same total length is asked.
            assert_eq!(riding_push(&a, 2.0, Some(&runs[..])), 2);
            let before = pull_trips();
            let other = view(&a, &mut buf, &shifted);
            assert_eq!(pull_trips(), before + 2, "other runs must be asked");
            assert_eq!(other, asked(&shifted));

            // A's third push commits each server behind its applies: the
            // image it brings home is read behind that commit, and served.
            assert_eq!(riding_push(&a, 3.0, Some(&runs[..])), 2);
            let before = pull_trips();
            let own_round = view(&a, &mut buf, &runs);
            assert_eq!(pull_trips(), before, "the round's reply carried the pull");
            assert_eq!(own_round, asked(&runs));
            assert_eq!(own_round.1, vec![3; 4]);

            // B's pushes complete the next round: A's image predates it.
            assert_eq!(riding_push(&a, 4.0, Some(&runs[..])), 2);
            queued_push(&b, 0.5);
            queued_push(&b, 0.25);
            let before = pull_trips();
            let after_round = view(&a, &mut buf, &runs);
            assert_eq!(pull_trips(), before + 2, "an outdated image is asked");
            assert_eq!(after_round, asked(&runs));
            assert_eq!(after_round.1, vec![6; 4]);

            // A server replaced since the push is asked; the other's image
            // still stands.
            assert_eq!(riding_push(&a, 5.0, Some(&runs[..])), 2);
            if r.kill_server(1).is_err() {
                continue; // only the TCP backend kills in place
            }
            r.revive_server(1).expect("revive");
            assert_eq!(r.handshake(Duration::from_secs(5)), Ok(1));
            let before = pull_trips();
            let healed = view(&a, &mut buf, &runs);
            assert_eq!(
                pull_trips(),
                before + 1,
                "only the replaced server is asked"
            );
            let (served, fresh) = healed.0.split_at(on_server_0);
            assert_eq!(
                served,
                &after_round.0[..on_server_0],
                "server 0's image was dropped"
            );
            assert!(fresh.iter().all(|&p| p == 0.0), "not the fresh instance");
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
            for g in 0..r.tier().shard_count() {
                let (_, l) = r.tier().shard_range(g);
                w.apply_shard_update(g, &vec![1.0; l], 0.1, 0.9).unwrap();
            }
            r.complete_push(0);
            let params = r.snapshot_params();
            let velocity = r.snapshot_velocity();
            for g in 0..r.tier().shard_count() {
                let (_, l) = r.tier().shard_range(g);
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
            let (_, l) = r.tier().shard_range(g);
            w.apply_shard_update(g, &vec![1.0; l], 0.1, 0.0).unwrap();
        }
        r.complete_push(0);
        r.drain().expect("drain");
        let stats = r.stats();
        assert_eq!(stats.backend, Some(TransportKind::Channel));
        assert_eq!(stats.push.ops, 4, "one push op per shard");
        assert_eq!(stats.pull.ops, 2, "one pull round trip per server");
        // Each server's second push request committed behind its apply,
        // and the drain committed again.
        assert_eq!(stats.sync.ops, 4, "two commits per server");
        assert_eq!(stats.sync.round_trips, 2, "one drain round trip per server");
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
            let (_, l) = r.tier().shard_range(g);
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
                let (_, l) = net.router().tier().shard_range(g);
                w.apply_shard_update(g, &vec![1.0; l], 0.05, 0.9).unwrap();
            }
            net.router().complete_push(step);
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
        assert_eq!(net.router().tier().server_count(), 2);
        assert_eq!(net.router().tier().owner_of(0), 0);
        assert_eq!(net.router().tier().owner_of(1), 1);
    }
}
