//! The training engine: one worker loop with two synchronization tails.
//!
//! BSP, ASP and SSP are the same training step with a different
//! synchronization point — which is what lets a run switch between them at
//! a checkpoint — and the code is shaped that way. [`Trainer::run_workers`]
//! is the one harness: it spawns the worker threads, hands each one its
//! [`Seat`] and this segment's [`Worker`] books, and joins the results;
//! [`Worker::run`] is the one place a protocol's loop is entered, and so the
//! one place a failing worker stops its peers. [`Worker::compute_step`] is
//! the one step prologue: draw the batch, pull what it reads, compute. What
//! differs is the tail that decides when the gradient
//! is applied: [`bsp_loop`]'s striped barrier, or [`crate::ssp`]'s
//! asynchronous loop, which is ASP when it has no leash and SSP when it has
//! one. `Trainer::report` is the one epilogue.
//!
//! As in the paper, a worker outlives its segment: its [`Seat`] lives until a
//! segment fails or a [`Trainer::restore`] (every switch, rollback and heal).
//!
//! Everything is written against [`WorkerPort`], so the same code drives
//! the single in-process [`ShardedStore`] or a multi-server tier with
//! OSP-style two-stage sync, through its one client, [`NetRouter`] — over
//! the threadless direct transport in-process, over a channel or TCP
//! otherwise. The topology is picked by [`TrainerConfig::topology`] at
//! construction.

use std::mem::take;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use sync_switch_nn::{Dataset, GradBuffer, Network, Tensor};
use sync_switch_telemetry::{Counter, Histogram, LocalHistogram, Telemetry, TraceEvent, TraceKind};
use sync_switch_workloads::SyncProtocol;

use crate::checkpoint::Checkpoint;
use crate::config::{TrainerConfig, TransportKind};
use crate::error::PsError;
use crate::gate::RoundGate;
use crate::profiler::{ShardStaleness, StalenessHistogram, TransportStats, WorkerProfile};
use crate::router::{Plane, Tier, WorkerPort};
use crate::ssp::{async_loop, AsyncShared};
use crate::store::{runs_within, PullBuffer, ShardedStore, UpdateData};
use crate::transport::{NetPort, NetRouter};

/// What each worker thread returns: its id, timing/loss profile, global
/// staleness observations, and per-shard staleness observations.
type WorkerResult = (usize, WorkerProfile, StalenessHistogram, ShardStaleness);
/// Per-worker-thread telemetry buffer for the hot step loop.
///
/// Looking an instrument up by name locks the registry map and tracing an
/// event locks the ring — per step, across every worker thread, those two
/// mutexes (plus the cache-line traffic of shared atomics) cost more than
/// the bookkeeping they record. This buffer resolves the instruments once
/// per [`Seat`], accumulates the counter and histogram samples in plain
/// thread-local fields, and batches trace events, so between flushes the
/// hot loop touches no shared telemetry state at all.
struct WorkerTelemetry {
    bus: Arc<Telemetry>,
    steps_counter: Arc<Counter>,
    step_hist: Arc<Histogram>,
    staleness_hist: Arc<Histogram>,
    barrier_hist: Arc<Histogram>,
    parks_counter: Arc<Counter>,
    steps: u64,
    parks: u64,
    step_local: LocalHistogram,
    staleness_local: LocalHistogram,
    barrier_local: LocalHistogram,
    events: Vec<TraceEvent>,
}

impl WorkerTelemetry {
    /// Event-buffer flush threshold: large enough to amortize the ring
    /// lock, small enough that a mid-segment scrape sees near-live events.
    const FLUSH_EVERY: usize = 128;

    fn new(bus: &Arc<Telemetry>) -> Self {
        WorkerTelemetry {
            steps_counter: bus.metrics.counter("engine.steps"),
            step_hist: bus.metrics.histogram("engine.step_ns"),
            staleness_hist: bus.metrics.histogram("engine.staleness"),
            barrier_hist: bus.metrics.histogram("engine.barrier_wait_ns"),
            parks_counter: bus.metrics.counter("engine.barrier_parks"),
            bus: Arc::clone(bus),
            steps: 0,
            parks: 0,
            step_local: LocalHistogram::new(),
            staleness_local: LocalHistogram::new(),
            barrier_local: LocalHistogram::new(),
            events: Vec::with_capacity(Self::FLUSH_EVERY),
        }
    }

    /// Timestamp base for buffered spans, from the shared tracer's epoch.
    #[inline]
    fn now_ns(&self) -> u64 {
        self.bus.trace.now_ns()
    }

    /// A finished step: bumps the step count, samples the busy duration,
    /// and buffers a [`TraceKind::Step`] span that started at `start_ns`
    /// and closes now.
    #[inline]
    fn step(&mut self, worker: usize, step: u64, start_ns: u64, busy: Duration) {
        self.steps += 1;
        self.step_local.record(busy.as_nanos() as u64);
        let dur_ns = self.now_ns().saturating_sub(start_ns).max(1);
        self.push(
            TraceKind::Step {
                worker: worker as u64,
                step,
            },
            start_ns,
            dur_ns,
        );
    }

    /// One gradient-staleness observation (ASP/SSP steps).
    #[inline]
    fn staleness(&mut self, v: u64) {
        self.staleness_local.record(v);
    }

    /// A barrier (or SSP gate) wait that started at `start_ns`, ending now:
    /// the whole [`RoundGate::wait_until`] call — spin, yield and park.
    /// `parked` says the wait fell through to the condvar, so
    /// `engine.barrier_parks` ÷ the wait count is the share of releases the
    /// kernel delivered rather than the spin/yield rungs.
    #[inline]
    fn barrier_wait(&mut self, worker: usize, start_ns: u64, parked: bool) {
        let dur_ns = self.now_ns().saturating_sub(start_ns).max(1);
        self.barrier_local.record(dur_ns);
        self.parks += u64::from(parked);
        self.push(
            TraceKind::BarrierWait {
                worker: worker as u64,
            },
            start_ns,
            dur_ns,
        );
    }

    #[inline]
    fn push(&mut self, kind: TraceKind, start_ns: u64, dur_ns: u64) {
        self.events.push(TraceEvent {
            kind,
            start_ns,
            dur_ns,
        });
        if self.events.len() >= Self::FLUSH_EVERY {
            self.bus.trace.record_batch(&mut self.events);
        }
    }

    /// Publishes everything accumulated since the last flush. Called once
    /// per worker at segment end, however the worker left its loop (see
    /// [`Worker`]'s drop), so post-mortem traces keep the tail.
    fn flush(&mut self) {
        self.steps_counter.add(std::mem::take(&mut self.steps));
        self.parks_counter.add(std::mem::take(&mut self.parks));
        self.step_local.flush_into(&self.step_hist);
        self.staleness_local.flush_into(&self.staleness_hist);
        self.barrier_local.flush_into(&self.barrier_hist);
        self.bus.trace.record_batch(&mut self.events);
    }
}

/// Per-worker scratch for a step's batch, pull, gradient and push.
/// Everything is reused across steps, and the model's layers and loss keep
/// their own buffers the same way, so a steady-state worker step allocates
/// nothing on any plane under any protocol — pinned by the
/// `steady_state_worker_steps_allocate_nothing` test
/// (`tests/alloc_free_step.rs`).
#[derive(Debug, Default)]
struct StepScratch {
    /// The step's batch and what it reads.
    batch: Batch,
    /// The next step's, drawn before this step pushed (see [`async_loop`]).
    next: Batch,
    /// The global step `next` holds the batch of, if any.
    next_step: Option<u64>,
    /// The step's flat gradient, rewritten in place along the batch's runs
    /// (and zeroed along the previous step's), so it always equals the
    /// dense gradient — BSP's stripe accumulate reads all of it.
    grad: GradBuffer,
    /// The pushed shards' acked pre-apply clocks, in shard order.
    acks: Vec<u64>,
    /// Shard-relative segments of the shard currently being pushed.
    spans: Vec<(u32, u32)>,
    /// The segments' gradient values, gathered from the flat gradient.
    values: Vec<f32>,
}

/// One step's batch and labels, drawn in place by
/// `Dataset::sample_batch_into`, and what the step over it reads.
#[derive(Debug, Default)]
struct Batch {
    x: Tensor,
    labels: Vec<usize>,
    /// Whether the step reads by run: the config allows it *and* the model
    /// reports a sparse read set for the batch.
    sparse: bool,
    /// Global `(offset, len)` runs of the parameters the step pulls, and so
    /// of its possibly-nonzero gradient: what `param_read_runs_into`
    /// reported, or the one run covering everything for a dense step.
    runs: Vec<(usize, usize)>,
}

/// Builds the data plane `cfg` describes over the `initial` parameters.
fn build_plane(initial: &[f32], cfg: &TrainerConfig) -> WorkerPort {
    // A wire transport puts the tier behind the message boundary even
    // with one server — the boundary is the point. In-process, decide
    // on the server count the tier clamps to; a topology that clamps down
    // to one server must get the single-store fast path, not two-stage
    // committed-view semantics with one owner.
    let t = &cfg.topology;
    let tier = Tier::new(initial.len(), cfg.shards, t.servers, t.sync_every);
    if t.transport == TransportKind::InProcess && tier.server_count() == 1 {
        WorkerPort::Single(Arc::new(ShardedStore::new(initial, cfg.shards)))
    } else {
        WorkerPort::Net(NetPort::launch(initial, cfg.shards, cfg.topology))
    }
}

/// Outcome of one training segment (a run of consecutive steps under a
/// single protocol and configuration).
///
/// Only a segment that ended with every parameter finite and every server
/// answering returns one: a divergence is [`PsError::Diverged`] and a lost
/// server its wire error, so the report carries no verdict of its own.
#[derive(Debug)]
pub struct SegmentReport {
    /// Protocol the segment ran under.
    pub protocol: SyncProtocol,
    /// Number of global steps completed.
    pub steps: u64,
    /// Wall-clock duration of the segment.
    pub wall_time: Duration,
    /// Per-worker profiles, indexed by worker id (excluded workers have
    /// empty profiles).
    pub worker_profiles: Vec<WorkerProfile>,
    /// Measured gradient staleness across all pushes.
    pub staleness: StalenessHistogram,
    /// Measured staleness per parameter shard, from the per-shard version
    /// clocks (one observation per shard apply; all zeros under BSP, where
    /// a stripe is applied exactly once per barrier round). Each shard has
    /// one owning server (`WorkerPort::owner_of`), so a server's share of
    /// the record is its shards' histograms.
    pub shard_staleness: ShardStaleness,
    /// Stage-2 reconciliation rounds completed during the segment (0 on a
    /// single-server plane).
    pub sync_rounds: u64,
    /// Request cost of the segment on a multi-server or wire-backed data
    /// plane, the in-process direct tier included (all zeros, `backend ==
    /// None`, on the single store).
    pub transport: TransportStats,
    /// Mean training loss over the last few recorded steps.
    pub final_loss: f32,
}

impl SegmentReport {
    /// Cluster throughput in steps per second.
    pub fn steps_per_sec(&self) -> f64 {
        if self.wall_time.is_zero() {
            return 0.0;
        }
        self.steps as f64 / self.wall_time.as_secs_f64()
    }
}

/// How the workers of one segment synchronize — the only thing the
/// protocols differ in; every other part of a step is
/// [`Worker::compute_step`] — with the state they share beyond the round
/// gate, built once per segment.
enum SyncTail {
    /// BSP: gradients averaged at the striped barrier ([`bsp_loop`]).
    Barrier(BspShared),
    /// ASP and SSP: updates apply at once ([`async_loop`]).
    Async(AsyncShared),
}

/// State shared by BSP workers: striped per-shard accumulators and the
/// round's image.
///
/// Each stripe maps 1:1 onto a store shard and carries its own lock, so
/// workers aggregating different stripes proceed concurrently instead of
/// funnelling every gradient through one global accumulator mutex. The last
/// contributor to a stripe averages it and leaves it staged; the worker that
/// completes the last outstanding stripe commits the round
/// ([`Worker::end_round`]) and advances the segment's round gate, whose
/// epoch is therefore the count of completed rounds: a worker leaves round
/// `r` once it passes `r`.
struct BspShared {
    stripes: Vec<Mutex<Stripe>>,
    /// Workers contributing to every stripe.
    n_active: usize,
    /// Stripes completed in the current round.
    applied: AtomicUsize,
    /// The committed image the last round's commit brought home, which
    /// every worker's next step installs instead of pulling (`None` until
    /// the segment's first round has ended).
    image: RwLock<Option<PullBuffer>>,
}

/// Why [`BspShared::image`] is never found poisoned: a final applier that
/// panics writing it aborts the gate, so no worker takes another step.
const IMAGE_WRITER_PANICKED: &str = "a round image writer that panicked ended the segment";

/// One stripe's accumulation state for the in-flight round.
struct Stripe {
    accum: Vec<f32>,
    /// Contributions so far this round; the round's first overwrites what
    /// the last one left in `accum`.
    count: usize,
}

impl BspShared {
    fn new(port: &WorkerPort, n_active: usize) -> Self {
        let stripes = (0..port.shard_count())
            .map(|i| {
                Mutex::new(Stripe {
                    accum: vec![0.0; port.shard_range(i).1],
                    count: 0,
                })
            })
            .collect();
        BspShared {
            stripes,
            n_active,
            applied: AtomicUsize::new(0),
            image: RwLock::new(None),
        }
    }
}

/// What a worker keeps across segments: its port (on a wire tier, with its
/// connections, client ids, push staging and any image a reply brought
/// along), model replica, pull buffer, step scratch and instruments.
struct Seat {
    port: WorkerPort,
    model: Network,
    buf: PullBuffer,
    scratch: StepScratch,
    wt: WorkerTelemetry,
}

/// One worker thread's state for one segment: its [`Seat`], its data shard,
/// and the bookkeeping every protocol keeps the same way. Built by
/// [`Trainer::run_workers`], driven by a sync tail, and turned into the
/// worker's [`WorkerResult`] when the tail returns.
pub(crate) struct Worker<'a> {
    pub(crate) id: usize,
    /// Position among the segment's active workers.
    rank: usize,
    seat: &'a mut Seat,
    shard: &'a Dataset,
    cfg: &'a TrainerConfig,
    /// Global step of the segment's first step.
    pub(crate) base_step: u64,
    /// The segment's one wait/wake primitive and abort flag: the BSP round
    /// barrier, the SSP progress gate, and under every protocol what a
    /// failing worker aborts so its peers stop.
    pub(crate) gate: &'a RoundGate,
    profile: WorkerProfile,
    hist: StalenessHistogram,
    shard_hist: ShardStaleness,
    /// First-step start, for the wall-clock throughput span — barrier and
    /// gate waits included, which the busy-only rate hides (see
    /// [`WorkerProfile::wall_time`]).
    wall_start: Option<Instant>,
}

/// What [`Worker::compute_step`] hands the sync tail.
pub(crate) struct Step {
    /// The global step this is.
    id: u64,
    /// When the step started (busy time is measured from here).
    pub(crate) t0: Instant,
    /// The same instant on the tracer's clock.
    start_ns: u64,
    /// Version of the pulled data.
    version: u64,
    loss: f32,
}

impl Drop for Worker<'_> {
    /// However the worker leaves its loop, its instruments are flushed, so
    /// a trace keeps the steps before a failure. A panic — a bug, not a
    /// dead server — aborts the gate as [`Worker::run`] does on an error,
    /// so the peers wake and exit while the panic goes on to the caller.
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.gate.abort();
        }
        self.seat.wt.flush();
    }
}

impl Worker<'_> {
    /// Runs `tail`'s loop to the end of the segment and hands back this
    /// worker's books, or the error it stopped on: the wire error of a
    /// server lost past the retry budget. Then the gate is
    /// aborted, so peers wake and exit instead of waiting for a round, or a
    /// floor, that will never come: BSP peers are at the round barrier, SSP
    /// peers behind the leash, and ASP peers see the flag at their next
    /// step claim (or fail on the same dead server themselves).
    fn run(mut self, tail: &SyncTail, steps: u64) -> Result<WorkerResult, PsError> {
        match tail {
            SyncTail::Barrier(shared) => bsp_loop(&mut self, shared, steps),
            SyncTail::Async(shared) => async_loop(&mut self, shared, steps),
        }
        .inspect_err(|_| self.gate.abort())?;
        let (profile, hist) = (take(&mut self.profile), take(&mut self.hist));
        Ok((self.id, profile, hist, take(&mut self.shard_hist)))
    }

    /// The part of a step every protocol shares: draw the batch — or take
    /// the one the step before drew for it ([`Worker::draw`]) — pull
    /// what it reads, or install it from `image` once that holds one (see
    /// [`BspShared::image`]), and compute loss and gradient. A failed pull
    /// is its wire error. The loss is no divergence test: the softmax
    /// cross-entropy never returns more than −ln(1e-12) ≈ 27.6, NaN logits
    /// included, so the paper's "divergence errors" are caught by the
    /// segment's closing finiteness check.
    #[inline]
    pub(crate) fn compute_step(
        &mut self,
        step_id: u64,
        image: Option<&RwLock<Option<PullBuffer>>>,
    ) -> Result<Step, PsError> {
        let cfg = self.cfg;
        let t0 = Instant::now();
        self.wall_start.get_or_insert(t0);
        let start_ns = self.seat.wt.now_ns();
        // The batch does not depend on the pull, so it is drawn first and
        // says what to pull.
        let scratch = &mut self.seat.scratch;
        if scratch.next_step.take() == Some(step_id) {
            std::mem::swap(&mut scratch.batch, &mut scratch.next);
        } else {
            self.draw(step_id, false);
        }
        let image = image.map(|lock| lock.read().expect(IMAGE_WRITER_PANICKED));
        let version = self.pull(image.as_deref().and_then(Option::as_ref))?;
        drop(image);
        if let Some(d) = cfg.straggler_delay[self.id] {
            std::thread::sleep(d);
        }
        let StepScratch { batch, grad, .. } = &mut self.seat.scratch;
        let (x, labels, runs) = (&batch.x, &batch.labels, &batch.runs);
        let loss = self.seat.model.loss_and_grad_into(x, labels, runs, grad);
        Ok(Step {
            id: step_id,
            t0,
            start_ns,
            version,
            loss,
        })
    }

    /// Draws global step `step_id`'s batch from [`step_rng`] and works out
    /// what the step reads: into the step's own set, or if `next` into the
    /// next step's, whose runs then ride this step's push ([`Worker::push`]).
    pub(crate) fn draw(&mut self, step_id: u64, next: bool) {
        let (cfg, seat) = (self.cfg, &mut *self.seat);
        let b = if next {
            seat.scratch.next_step = Some(step_id);
            &mut seat.scratch.next
        } else {
            &mut seat.scratch.batch
        };
        let mut rng = step_rng(cfg.seed, self.id, step_id);
        (self.shard).sample_batch_into(cfg.per_worker_batch, &mut rng, &mut b.x, &mut b.labels);
        b.sparse = cfg.sparse_push && seat.model.param_read_runs_into(&b.x, &mut b.runs);
        if !b.sparse {
            b.runs.clear();
            b.runs.push((0, seat.model.param_count()));
        }
    }

    /// Pulls what the step over the scratch's batch reads and installs it
    /// in the model — the place a step's sparsity, decided when its batch
    /// was drawn, acts on both directions: a step that reads by run pulls
    /// and installs only its runs (every other parameter of the model keeps
    /// a stale value the step never looks at); otherwise this is a full
    /// pull and `set_params_flat`. Either way the batch's runs say what
    /// moved, for [`Worker::push`], and the pulled version is returned.
    /// With an `image` nothing is pulled: the step installs from it and
    /// takes its clocks, as a pull would have.
    fn pull(&mut self, image: Option<&PullBuffer>) -> Result<u64, PsError> {
        let seat = &mut *self.seat;
        let Batch { sparse, runs, .. } = &seat.scratch.batch;
        let version = match image {
            Some(image) => {
                seat.buf.shard_versions.clone_from(&image.shard_versions);
                seat.buf.version = image.version;
                image.version
            }
            None if *sparse => seat.port.pull_runs_into(&mut seat.buf, runs)?,
            None => seat.port.pull_into(&mut seat.buf)?,
        };
        let params = image.unwrap_or(&seat.buf).params();
        if *sparse {
            seat.model.set_params_runs(params, runs);
        } else {
            seat.model.set_params_flat(params);
        }
        Ok(version)
    }

    /// The asynchronous push of the gradient [`Worker::compute_step`] just
    /// left in the scratch, shard by shard along the runs the step pulled —
    /// a layer's read runs cover everything its backward can write, and for
    /// the embedding classifier the two sets are equal, so one list per
    /// step serves both directions. Each shard's piece of the runs is cut
    /// out and pushed as a sparse update; a shard one run covers whole —
    /// every shard of a dense step — gets the plain dense apply (no gather,
    /// no segment list), and a shard with no overlap still pushes an empty
    /// sparse update so its clock ticks and its momentum decays exactly as
    /// a dense zero push would. The applies are numerically identical
    /// either way, so staleness and stage-2 scheduling cannot tell the two
    /// apart. The shards are *queued* on the port in flat order, which on a
    /// wire tier sends each server's shards as one batch (a shard's
    /// segments are encoded when it is queued, so `spans`/`values` are free
    /// for the next shard). A server whose stage-2 period the flush
    /// completes commits right behind its applies
    /// ([`WorkerPort::flush_pushes`]), so nothing is left to run once the
    /// push completes. If the next step's batch is drawn already and reads
    /// by run, the flush is handed those runs, so a tier's requests bring
    /// them home and that step's pull can be served without asking.
    ///
    /// Records one per-shard staleness observation per shard — the shard
    /// clock's acked pre-apply value against the clock captured at pull
    /// time, under the owning server — then completes the push and returns
    /// its global staleness.
    pub(crate) fn push(&mut self) -> Result<u64, PsError> {
        let port = &self.seat.port;
        let (lr, momentum) = (self.cfg.learning_rate, self.cfg.momentum);
        let StepScratch {
            batch,
            next,
            next_step,
            grad,
            acks,
            spans,
            values,
        } = &mut self.seat.scratch;
        let (runs, grad) = (&batch.runs, grad.as_slice());
        acks.clear();
        for i in 0..port.shard_count() {
            let (offset, len) = port.shard_range(i);
            spans.clear();
            values.clear();
            let mut full_cover = false;
            for (start, n) in runs_within(runs, offset, len) {
                if n == len {
                    full_cover = true;
                    break;
                }
                spans.push(((start - offset) as u32, n as u32));
                values.extend_from_slice(&grad[start..start + n]);
            }
            let data = if full_cover {
                UpdateData::Dense(&grad[offset..offset + len])
            } else {
                UpdateData::Sparse {
                    indices: spans,
                    rows: values,
                }
            };
            port.queue_shard_update(i, data, lr, momentum, acks)?;
        }
        let next_runs = (next_step.is_some() && next.sparse).then_some(next.runs.as_slice());
        port.flush_pushes(acks, next_runs)?;
        self.record_acks();
        Ok(self.seat.port.complete_push(self.seat.buf.version()))
    }

    /// One per-shard staleness observation per ack in the scratch: the
    /// shard's acked pre-apply clock against its clock at pull time.
    fn record_acks(&mut self) {
        let (acks, shards) = (&self.seat.scratch.acks, self.seat.port.shard_count());
        assert_eq!(acks.len(), shards, "one ack per pushed shard");
        for (i, prev) in acks.iter().enumerate() {
            let behind = prev.saturating_sub(self.seat.buf.shard_version(i));
            self.shard_hist.record(i, behind);
        }
    }

    /// The end of a BSP round, run by the worker that completed its last
    /// stripe while every peer is held at the gate: completes the push, and
    /// commits the staged stripes through one port call
    /// ([`WorkerPort::commit_round`]), which publishes them to every
    /// server's committed view and brings home the image every worker's
    /// next step installs.
    fn end_round(&mut self, shared: &BspShared, version: u64) -> Result<(), PsError> {
        let port = &self.seat.port;
        port.complete_push(version);
        let mut held = shared.image.write().expect(IMAGE_WRITER_PANICKED);
        let image = held.get_or_insert_with(PullBuffer::new);
        let (lr, mu) = (self.cfg.learning_rate, self.cfg.momentum);
        let acks = &mut self.seat.scratch.acks;
        acks.clear();
        let stripe = |g: usize, push: &mut dyn FnMut(&[f32])| push(&shared.stripes[g].lock().accum);
        port.commit_round(stripe, lr, mu, acks, image)?;
        self.record_acks();
        Ok(())
    }

    /// Books a delivered step: its busy time and loss, its global staleness
    /// (`None` under BSP, whose gradients are fresh by construction — a zero
    /// in the report, no sample on the bus), and the step span, which closes
    /// now. The wall span is closed separately ([`Worker::mark_wall`]),
    /// because BSP only delivers a round once the barrier releases.
    pub(crate) fn record_step(&mut self, step: &Step, busy: Duration, staleness: Option<u64>) {
        self.profile.step_durations.push(busy);
        self.profile.losses.push(step.loss);
        self.hist.record(staleness.unwrap_or(0));
        if let Some(v) = staleness {
            self.seat.wt.staleness(v);
        }
        self.seat.wt.step(self.id, step.id, step.start_ns, busy);
    }

    /// Extends the wall-clock span to now.
    pub(crate) fn mark_wall(&mut self) {
        if let Some(ws) = self.wall_start {
            self.profile.wall_time = ws.elapsed();
        }
    }

    /// Waits at the segment's gate until `ready` holds or the gate is
    /// aborted, tracing the whole wait — spin, yield and park — as this
    /// worker's barrier wait, so the barrier-wait fraction the controller
    /// promotes on covers SSP back-pressure as it covers BSP barriers.
    pub(crate) fn wait_at_gate(&mut self, ready: impl FnMut() -> bool) {
        let wait_ns = self.seat.wt.now_ns();
        let parked = self.gate.wait_until(ready);
        self.seat.wt.barrier_wait(self.id, wait_ns, parked);
    }
}

/// BSP: lock-step rounds; gradients averaged at a striped barrier, one
/// logical update per round.
///
/// Aggregation is striped per store shard: workers walk the stripes
/// starting at their own offset, so at any instant different workers
/// are summing into different stripes under different locks. The last
/// contributor to a stripe averages it and leaves it staged for the round's
/// commit. The worker that completes the final outstanding stripe commits
/// the round ([`Worker::end_round`]) and advances the round gate, which the
/// other workers are spinning, yielding or parked on (see [`crate::gate`]).
/// From the second round on, every worker's step installs the image that
/// commit brought home instead of pulling.
/// Numerically this is the same sum-then-average-then-apply as a
/// single-mutex accumulator (per-stripe sums commute across workers
/// exactly like a global sum does), so BSP keeps its bit-for-bit agreement
/// with sequential large-batch SGD up to f32 summation order.
fn bsp_loop(w: &mut Worker<'_>, shared: &BspShared, rounds: u64) -> Result<(), PsError> {
    let gate = w.gate;
    let n_stripes = shared.stripes.len();
    let n_active = shared.n_active;
    for r in 0..rounds {
        if gate.is_aborted() {
            break;
        }
        let step = w.compute_step(w.base_step + r, Some(&shared.image))?;
        // The step span closes with the compute. The round's tail — summing
        // into the stripes and, for the final applier, the round's commit —
        // is synchronisation, so it is timed with the barrier wait, which
        // the controller's promote rule weighs against the step time.
        let busy = step.t0.elapsed();
        let tail_ns = w.seat.wt.now_ns();
        w.record_step(&step, busy, None);

        // Striped barrier: contribute each stripe, starting at this
        // worker's offset so concurrent workers sum into disjoint stripes.
        for k in 0..n_stripes {
            let i = (w.rank + k) % n_stripes;
            let (offset, len) = w.seat.port.shard_range(i);
            let grad = &w.seat.scratch.grad.as_slice()[offset..offset + len];
            let mut stripe = shared.stripes[i].lock();
            let state = &mut *stripe;
            if state.count == 0 {
                state.accum.copy_from_slice(grad);
            } else {
                state.accum.iter_mut().zip(grad).for_each(|(a, g)| *a += g);
            }
            state.count += 1;
            if state.count < n_active {
                continue;
            }
            state.count = 0;
            let scale = 1.0 / n_active as f32;
            state.accum.iter_mut().for_each(|a| *a *= scale);
            drop(stripe);
            // AcqRel: the final applier must observe the other stripes'
            // completions (Acquire) and publish its own before the round
            // advance (Release); the staged stripes themselves are ordered
            // by the stripe mutexes.
            if shared.applied.fetch_add(1, Ordering::AcqRel) + 1 == n_stripes {
                w.end_round(shared, step.version)?;
                // Relaxed: the reset is published to the next round's
                // appliers by the gate's epoch — Release in `advance`,
                // Acquire in the `wait_until` they must pass through first.
                shared.applied.store(0, Ordering::Relaxed);
                gate.advance();
            }
        }

        // Barrier wait: every worker has read round r's parameters before
        // round r is committed (the commit needs every contribution, and
        // contributing implies having read), so BSP reads are never torn.
        let parked = gate.wait_until(|| gate.epoch() > r);
        w.seat.wt.barrier_wait(w.id, tail_ns, parked);
        // The round is only delivered once the barrier releases, so the
        // wall span includes the wait.
        w.mark_wall();
    }
    Ok(())
}

/// A parameter-server trainer over one model and one dataset, supporting
/// consecutive segments under different protocols and configurations — the
/// substrate Sync-Switch's policies act on.
pub struct Trainer {
    template: Network,
    shards: Vec<Dataset>,
    test: Dataset,
    cfg: TrainerConfig,
    /// The data plane. Workers reach it through clones of this port; the
    /// owner-only operations — snapshot, restore, velocity reset — are this
    /// trainer's methods, so they stay off the worker-facing type.
    plane: WorkerPort,
    /// The telemetry bus (metrics + event trace) every layer of this
    /// trainer records into: the [`NetRouter`]'s own on a transport-backed
    /// plane, so wire retries and sync rounds land next to the engine's
    /// step spans, and one built here otherwise.
    telemetry: Arc<Telemetry>,
    global_step: u64,
    /// The synchronization protocol currently in effect: set at
    /// construction (BSP — the safe default every run starts from), by
    /// [`crate::switcher::execute_switch`] applying a plan's target, and by
    /// every explicit [`Trainer::run_segment`] call (an implicit switch).
    /// [`Trainer::run_current_segment`] runs whatever this records, so a
    /// switch plan can never silently disagree with the segment after it.
    protocol: SyncProtocol,
    /// Deterministic probe batch for [`Trainer::training_loss`] (first
    /// shard, fixed indices) — built once, because the switcher polls the
    /// probe loss inside its decision loop.
    probe_batch: (Tensor, Vec<usize>),
    /// Per worker id, its [`Seat`]: built at the worker's first segment
    /// (so construction costs no more than the plane), dropped when a
    /// segment fails — a worker that failed mid-op may hold half-staged
    /// pushes or a dead socket — and on every restore.
    seats: Vec<Option<Seat>>,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("workers", &self.cfg.workers)
            .field("servers", &self.server_count())
            .field("params", &self.plane.param_count())
            .field("global_step", &self.global_step)
            .finish()
    }
}

impl Trainer {
    /// Creates a trainer: shards `train` across the configured workers and
    /// initializes the parameter store from the model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TrainerConfig::validate`]) or the dataset is smaller than the
    /// worker count.
    pub fn new(model: Network, train: Dataset, test: Dataset, cfg: TrainerConfig) -> Self {
        // Checked here as well as in `with_port`: the plane is built from
        // the config first.
        if let Err(msg) = cfg.validate() {
            panic!("invalid trainer config: {msg}");
        }
        let port = build_plane(&model.params_flat(), &cfg);
        Self::with_port(model, train, test, cfg, port)
    }

    /// Creates a trainer on an *existing* data plane instead of building
    /// one from the config — the cross-process entry point: a `ps-worker`
    /// process connects a [`NetPort`] to its `ps-serve` tier (which already
    /// holds the initial parameters, every process having built the same
    /// seeded model) and drives the same BSP/ASP/SSP loops over it. The
    /// trainer adopts the port's router's telemetry bus, so what the router
    /// recorded before the trainer existed stays on the trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the dataset is smaller than
    /// the worker count, or the port's parameter count differs from the
    /// model's — the one cross-process layout disagreement a worker can
    /// detect locally.
    pub fn with_port(
        model: Network,
        train: Dataset,
        test: Dataset,
        cfg: TrainerConfig,
        port: WorkerPort,
    ) -> Self {
        if let Err(msg) = cfg.validate() {
            panic!("invalid trainer config: {msg}");
        }
        assert_eq!(
            port.param_count(),
            model.param_count(),
            "data plane parameter count does not match the model"
        );
        let telemetry = match port.plane() {
            Plane::Single(_) => Arc::new(Telemetry::new()),
            Plane::Net(p) => Arc::clone(p.router().telemetry()),
        };
        let shards: Vec<Dataset> = (0..cfg.workers)
            .map(|k| train.shard(k, cfg.workers))
            .collect();
        let probe_n = shards[0].len().min(64);
        let probe_idx: Vec<usize> = (0..probe_n).collect();
        let probe_batch = shards[0].batch(&probe_idx);
        Trainer {
            template: model,
            shards,
            test,
            seats: std::iter::repeat_with(|| None).take(cfg.workers).collect(),
            cfg,
            plane: port,
            telemetry,
            global_step: 0,
            protocol: SyncProtocol::Bsp,
            probe_batch,
        }
    }

    /// The current configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Replaces the configuration (between segments — the configuration
    /// actuator of paper Fig. 9).
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] if the new configuration is
    /// inconsistent or changes the worker count, the shard count or the
    /// server topology (the data shards and the plane's layout are fixed at
    /// construction).
    pub fn set_config(&mut self, cfg: TrainerConfig) -> Result<(), PsError> {
        cfg.validate().map_err(PsError::InvalidConfig)?;
        let fixed = [
            ("worker count", cfg.workers != self.cfg.workers),
            ("shard count", cfg.shards != self.cfg.shards),
            ("server topology", cfg.topology != self.cfg.topology),
        ];
        if let Some((what, _)) = fixed.iter().find(|(_, changed)| *changed) {
            return Err(PsError::InvalidConfig(format!(
                "{what} is fixed at construction"
            )));
        }
        self.cfg = cfg;
        Ok(())
    }

    /// Total global steps completed so far.
    pub fn global_step(&self) -> u64 {
        self.global_step
    }

    /// The synchronization protocol currently in effect — what
    /// [`Trainer::run_current_segment`] would run. Updated by
    /// [`crate::switcher::execute_switch`] (the plan's target) and by every
    /// explicit [`Trainer::run_segment`] call.
    pub fn protocol(&self) -> SyncProtocol {
        self.protocol
    }

    /// Records a protocol change (crate-internal: the switcher applies a
    /// plan's target here).
    pub(crate) fn set_protocol(&mut self, protocol: SyncProtocol) {
        self.protocol = protocol;
    }

    /// Runs `steps` global steps under the protocol recorded on the
    /// trainer (see [`Trainer::protocol`]) — the form switch-driven callers
    /// should use, so an executed [`crate::switcher::SwitchPlan`] cannot
    /// disagree with the segment that follows it.
    ///
    /// # Errors
    ///
    /// As [`Trainer::run_segment`].
    pub fn run_current_segment(&mut self, steps: u64) -> Result<SegmentReport, PsError> {
        self.run_segment(self.protocol, steps)
    }

    /// The shared parameter store of a **single-server, in-process**
    /// trainer (`None` when the data plane is a multi-server or
    /// transport-backed tier: use [`Trainer::net_router`], the snapshot
    /// APIs, or the segment reports instead).
    ///
    /// # Example
    ///
    /// ```
    /// use sync_switch_nn::{Dataset, Network};
    /// use sync_switch_ps::{Trainer, TrainerConfig};
    ///
    /// let data = Dataset::gaussian_blobs(3, 40, 5, 0.3, 1);
    /// let (train, test) = data.split(0.25);
    /// let trainer = Trainer::new(
    ///     Network::mlp(5, &[8], 3, 1),
    ///     train,
    ///     test,
    ///     TrainerConfig::new(2, 8, 0.05, 0.9),
    /// );
    /// // Single-server plane: the accessor returns the store. On a
    /// // multi-server or wire-backed topology it returns None.
    /// let store = trainer.store().expect("single-server plane");
    /// assert_eq!(store.version(), 0);
    /// ```
    pub fn store(&self) -> Option<&ShardedStore> {
        match self.plane.plane() {
            Plane::Single(s) => Some(s),
            Plane::Net(_) => None,
        }
    }

    /// The tier client of a trainer with more than one server or a wire
    /// transport — in-process or not (`None` on the single store).
    pub fn net_router(&self) -> Option<&NetRouter> {
        match self.plane.plane() {
            Plane::Single(_) => None,
            Plane::Net(p) => Some(p.router()),
        }
    }

    /// The telemetry bus this trainer records into. Harnesses read metrics
    /// snapshots and export Chrome traces from here; the controller and
    /// the router's handshake record their events into the same bus. Always `Some`: the
    /// bus is part of the data plane, and the `Option` stays only because
    /// the frozen `benchmark/src/{job,probes}.rs` match on it (ROADMAP item
    /// 2 unfreezes it).
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        Some(&self.telemetry)
    }

    /// [`Trainer::telemetry`] without the `Option`, for this crate.
    pub(crate) fn bus(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Cumulative request-cost counters of the data plane since
    /// construction (all zeros, `backend == None`, on the single store).
    /// Per-segment costs are on [`SegmentReport::transport`].
    pub fn transport_stats(&self) -> TransportStats {
        match self.plane.plane() {
            Plane::Single(_) => TransportStats::default(),
            Plane::Net(p) => p.router().stats(),
        }
    }

    /// Number of parameter servers in the data plane (1 for the single
    /// in-process store).
    pub fn server_count(&self) -> usize {
        self.plane.server_count()
    }

    /// Cluster-global push count (the data-plane version clock).
    pub fn push_count(&self) -> u64 {
        self.plane.version()
    }

    /// Stage-2 reconciliation rounds completed so far (0 on a
    /// single-server plane).
    pub fn sync_rounds(&self) -> u64 {
        self.plane.sync_rounds()
    }

    /// Drains any in-flight stage-2 reconciliation so the committed view
    /// every worker pulls equals the live state. No-op on a single-server
    /// plane; called by the switcher before checkpointing a protocol
    /// switch.
    ///
    /// # Errors
    ///
    /// On a wire tier, the [`PsError`] of a server lost past the retry
    /// budget: `Timeout`, `ConnLost` or `RetriesExhausted`.
    pub fn drain_sync(&self) -> Result<(), PsError> {
        self.plane.drain()
    }

    /// Resets the optimizer velocity to zero on every server.
    ///
    /// # Errors
    ///
    /// As [`Trainer::drain_sync`].
    pub fn reset_velocity(&self) -> Result<(), PsError> {
        match self.plane.plane() {
            Plane::Single(s) => s.reset_velocity(),
            Plane::Net(p) => return p.router().reset_velocity(),
        }
        Ok(())
    }

    /// Whether every parameter on every server is currently finite — the
    /// probe the segment epilogue runs, for harnesses that assert it
    /// between segments. It stays a `bool` because the benchmark calls it;
    /// the epilogue itself fails its segment with the wire error instead.
    ///
    /// # Panics
    ///
    /// On a wire plane, if a server does not answer within the retry
    /// budget.
    pub fn check_finite(&self) -> bool {
        self.plane_finite()
            .unwrap_or_else(|e| panic!("finiteness check failed: {e}"))
    }

    /// [`Trainer::check_finite`], with a lost server as its wire error.
    fn plane_finite(&self) -> Result<bool, PsError> {
        match self.plane.plane() {
            Plane::Single(s) => Ok(s.is_finite()),
            Plane::Net(p) => p.router().is_finite(),
        }
    }

    fn snapshot_params(&self) -> Vec<f32> {
        match self.plane.plane() {
            Plane::Single(s) => s.snapshot_params(),
            Plane::Net(p) => p.router().snapshot_params(),
        }
    }

    /// Takes a checkpoint of the current training state (the live,
    /// authoritative parameters — a concurrent stage-2 round cannot make
    /// this observe unpublished data, only the owners are read).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::new(
            self.global_step,
            self.snapshot_params(),
            match self.plane.plane() {
                Plane::Single(s) => s.snapshot_velocity(),
                Plane::Net(p) => p.router().snapshot_velocity(),
            },
        )
    }

    /// Restores training state from a checkpoint, and starts every worker
    /// fresh at the next segment: a restore follows every switch, rollback
    /// and heal, and a healed server's old sockets are dead. It leaves the
    /// plane drained, so no [`Trainer::drain_sync`] need follow: the single
    /// store's pulls read live state, and the tier's restore ends in a
    /// commit-all on every server.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::CheckpointMismatch`] if the checkpoint's
    /// parameters or velocity do not match the model's parameter count, and
    /// fails as [`Trainer::drain_sync`] does (the step count then stays).
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), PsError> {
        ck.check_compatible(self.plane.param_count())?;
        self.seats.fill_with(|| None);
        match self.plane.plane() {
            Plane::Single(s) => s.restore(&ck.params, &ck.velocity),
            Plane::Net(p) => p.router().restore(&ck.params, &ck.velocity)?,
        }
        self.global_step = ck.step;
        Ok(())
    }

    /// Evaluates top-1 accuracy on the held-out test set using the current
    /// parameters.
    pub fn evaluate(&self) -> f64 {
        self.current_model()
            .accuracy_on(self.test.features(), self.test.labels())
    }

    /// A replica of the model holding the live parameters.
    fn current_model(&self) -> Network {
        let mut model = self.template.clone();
        model.set_params_flat(&self.snapshot_params());
        model
    }

    /// Training loss of the current parameters on a deterministic probe
    /// batch (first shard, fixed indices; cached at construction so the
    /// switcher's polling loop does not rebuild it every call).
    pub fn training_loss(&self) -> f32 {
        let (x, y) = &self.probe_batch;
        self.current_model().loss(x, y)
    }

    /// Runs `steps` global steps under `protocol`, returning the segment
    /// report. Each worker keeps its connections, model replica and scratch
    /// from the segment before, unless that one failed or a
    /// [`Trainer::restore`] came between.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Diverged`] if the segment leaves a non-finite
    /// parameter behind (`global_step` does not advance) —
    /// [`crate::SyncController::run_segment`] turns that into a rollback —
    /// [`PsError::InvalidConfig`] for impossible configurations, and, on a
    /// transport-backed plane, the wire error of a server lost mid-segment,
    /// or at its closing finiteness check, past the retry budget: `Timeout`,
    /// `ConnLost` or `RetriesExhausted`,
    /// naming the server. A `ps-worker` matches those, waits out the
    /// respawn with [`NetRouter::handshake`], restores the whole tier from
    /// its segment-start checkpoint (the respawned server holds reset state
    /// until then), and re-runs the segment.
    ///
    /// # Panics
    ///
    /// A worker that panics — a bug — aborts its peers and the panic
    /// propagates out of this call.
    pub fn run_segment(
        &mut self,
        protocol: SyncProtocol,
        steps: u64,
    ) -> Result<SegmentReport, PsError> {
        self.run_leashed(protocol, None, steps)
    }

    /// One segment — what [`Trainer::run_segment`] and
    /// [`Trainer::run_ssp_segment`] both are. `leash` is the SSP staleness
    /// bound of an asynchronous segment: SSP is ASP on a leash and carries
    /// the ASP tag (the core policy enum stays BSP/ASP per the paper). BSP
    /// has no use for one.
    pub(crate) fn run_leashed(
        &mut self,
        protocol: SyncProtocol,
        leash: Option<u64>,
        steps: u64,
    ) -> Result<SegmentReport, PsError> {
        // Naming a protocol is an implicit switch: record it so
        // `Trainer::protocol()` always names the discipline that last ran.
        self.protocol = protocol;
        let before = (self.sync_rounds(), self.transport_stats());
        if steps == 0 {
            return Ok(self.report(protocol, 0, Duration::ZERO, Vec::new(), before));
        }
        let active = self.cfg.active_workers();
        if active.is_empty() {
            return Err(PsError::InvalidConfig("all workers excluded".into()));
        }
        let start = Instant::now();
        let results = self.run_workers(protocol, leash, &active, steps);
        let wall_time = start.elapsed();
        // A finite loss on every step does not make the applies finite (a
        // poisoned velocity, an overflow in the update): the tier itself is
        // the last word, whatever the protocol. A server lost by then fails
        // the segment as one lost inside it does.
        let results = results.and_then(|r| {
            if self.plane_finite()? {
                Ok(r)
            } else {
                Err(PsError::Diverged {
                    step: self.global_step + steps,
                })
            }
        });
        if results.is_err() {
            self.seats.fill_with(|| None);
        }
        Ok(self.report(protocol, steps, wall_time, results?, before))
    }

    /// The segment epilogue: merges the workers' results into the report
    /// and advances the global step. `before` is the plane's stage-2 round
    /// count and wire counters when the segment started.
    fn report(
        &mut self,
        protocol: SyncProtocol,
        steps: u64,
        wall_time: Duration,
        results: Vec<WorkerResult>,
        before: (u64, TransportStats),
    ) -> SegmentReport {
        let port = &self.plane;
        let mut worker_profiles = vec![WorkerProfile::default(); self.cfg.workers];
        let mut staleness = StalenessHistogram::new();
        let mut shard_staleness = ShardStaleness::new(port.shard_count());
        let mut tail_losses = Vec::new();
        for (worker, profile, hist, shard_hist) in results {
            staleness.merge(&hist);
            shard_staleness.merge(&shard_hist);
            tail_losses.extend(profile.losses.iter().rev().take(4).copied());
            worker_profiles[worker] = profile;
        }
        let final_loss = if tail_losses.is_empty() {
            0.0
        } else {
            tail_losses.iter().sum::<f32>() / tail_losses.len() as f32
        };
        self.global_step += steps;
        SegmentReport {
            protocol,
            steps,
            wall_time,
            worker_profiles,
            staleness,
            shard_staleness,
            sync_rounds: self.sync_rounds() - before.0,
            transport: self.transport_stats().delta(&before.1),
            final_loss,
        }
    }

    /// The worker harness: one scoped thread per active worker, each
    /// running the protocol's tail over its [`Seat`] (built here at the
    /// worker's first segment) and this segment's [`Worker`] books, joined
    /// into the workers' results. A worker's error — a lost server — fails
    /// the segment, the first in join order naming it;
    /// a worker's panic is resumed here.
    fn run_workers(
        &mut self,
        protocol: SyncProtocol,
        leash: Option<u64>,
        active: &[usize],
        steps: u64,
    ) -> Result<Vec<WorkerResult>, PsError> {
        let port = &self.plane;
        let gate = RoundGate::new();
        let tail = &match protocol {
            SyncProtocol::Bsp => SyncTail::Barrier(BspShared::new(port, active.len())),
            SyncProtocol::Asp => SyncTail::Async(AsyncShared::new(self.cfg.workers, active, leash)),
        };
        let seats = (self.seats.iter_mut().enumerate()).filter(|(id, _)| active.contains(id));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (seats.enumerate())
                .map(|(rank, (id, seat))| {
                    let w = Worker {
                        id,
                        rank,
                        seat: seat.get_or_insert_with(|| Seat {
                            port: port.clone(),
                            model: self.template.clone(),
                            buf: port.new_buffer(),
                            scratch: StepScratch::default(),
                            wt: WorkerTelemetry::new(&self.telemetry),
                        }),
                        shard: &self.shards[id],
                        cfg: &self.cfg,
                        base_step: self.global_step,
                        gate: &gate,
                        // The most steps any worker can take in the
                        // segment, so booking a step never reallocates.
                        profile: WorkerProfile {
                            step_durations: Vec::with_capacity(steps as usize),
                            losses: Vec::with_capacity(steps as usize),
                            wall_time: Duration::ZERO,
                        },
                        hist: StalenessHistogram::new(),
                        shard_hist: ShardStaleness::new(port.shard_count()),
                        wall_start: None,
                    };
                    scope.spawn(move || w.run(tail, steps))
                })
                .collect();
            // A panicked worker has aborted the gate, so its peers return
            // and the scope can join them after the panic resumes; the scope
            // also joins whatever the short-circuit leaves.
            (handles.into_iter())
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    }
}

/// Deterministic per-(seed, worker, step) RNG for batch sampling, so BSP
/// runs are reproducible regardless of thread interleaving. Public so
/// integration tests and examples can replay the exact batches a worker
/// sampled (e.g. to compare distributed training against sequential SGD).
pub fn step_rng(seed: u64, worker: usize, step: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ seed;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ (worker as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ step;
    rand::rngs::StdRng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerTopology;
    use crate::deadline::deadline;
    use sync_switch_nn::SgdMomentum;

    fn small_trainer(workers: usize, seed: u64) -> Trainer {
        let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, seed);
        let (train, test) = data.split(0.25);
        let cfg = TrainerConfig::new(workers, 8, 0.05, 0.9).with_seed(seed);
        Trainer::new(Network::mlp(6, &[16], 4, seed), train, test, cfg)
    }

    /// The reference BSP must match: `rounds` of single-threaded SGD from
    /// `t`'s current parameters over the union of the batches its workers
    /// will sample (gradient of the mean = mean of per-shard gradients).
    /// Assumes the batch 8 / lr 0.05 / momentum 0.9 every trainer here uses.
    fn sequential_sgd(t: &Trainer, seed: u64, rounds: u64) -> Vec<f32> {
        let workers = t.shards.len();
        let mut params = t.snapshot_params();
        let mut model = t.template.clone();
        let mut opt = SgdMomentum::new(model.param_count(), 0.05, 0.9);
        for r in 0..rounds {
            let mut avg = vec![0.0f32; model.param_count()];
            model.set_params_flat(&params);
            for (w, shard) in t.shards.iter().enumerate() {
                let (x, y) = shard.sample_batch(8, &mut step_rng(seed, w, r));
                let (_, grad) = model.loss_and_grad(&x, &y);
                for (a, g) in avg.iter_mut().zip(&grad) {
                    *a += g / workers as f32;
                }
            }
            opt.apply(&mut params, &avg);
        }
        params
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn bsp_completes_exact_steps() {
        let mut t = small_trainer(4, 1);
        let r = t.run_segment(SyncProtocol::Bsp, 25).unwrap();
        assert_eq!(r.steps, 25);
        assert_eq!(t.global_step(), 25);
        assert_eq!(t.store().unwrap().version(), 25);
        // Every active worker did every round.
        for w in 0..4 {
            assert_eq!(r.worker_profiles[w].steps(), 25);
        }
        // BSP gradients are never stale.
        assert_eq!(r.staleness.max(), Some(0));
        assert_eq!(
            r.staleness.iter().collect::<Vec<_>>(),
            vec![(0, r.staleness.total())]
        );
        // Striped applies are fresh too: one observation per stripe per
        // round, every one of them zero, and every shard clock in lockstep
        // with the global version.
        assert_eq!(
            r.shard_staleness.total(),
            25 * t.store().unwrap().shard_count() as u64
        );
        assert_eq!(r.shard_staleness.max(), Some(0));
        for i in 0..t.store().unwrap().shard_count() {
            assert_eq!(t.store().unwrap().shard_version(i), 25);
        }
    }

    #[test]
    fn asp_completes_exact_steps_with_staleness() {
        // A delay between every worker's pull and its push keeps all four
        // inside their windows together, so stale pushes do not depend on
        // how the scheduler happens to run the threads.
        let mut t = small_trainer(4, 2);
        let mut cfg = t.config().clone();
        cfg.straggler_delay = vec![Some(Duration::from_millis(1)); 4];
        t.set_config(cfg).unwrap();
        let r = t.run_segment(SyncProtocol::Asp, 200).unwrap();
        assert_eq!(r.steps, 200);
        assert_eq!(t.store().unwrap().version(), 200);
        let total: usize = r.worker_profiles.iter().map(|p| p.steps()).sum();
        assert_eq!(total, 200);
        assert!(
            r.staleness.mean() > 0.1,
            "expected stale gradients, mean {}",
            r.staleness.mean()
        );
        assert!(r.staleness.max().unwrap() >= 1);
        // Per-shard clocks saw every push: one observation per shard per
        // step, and per-shard staleness tracks the global measurement.
        assert_eq!(
            r.shard_staleness.total(),
            200 * t.store().unwrap().shard_count() as u64
        );
        assert!(r.shard_staleness.max().unwrap() >= 1);
    }

    #[test]
    fn bsp_equals_sequential_large_batch_sgd_on_every_in_process_plane() {
        // BSP with n workers of batch b must match 1-thread SGD over the
        // union batch (gradient of mean = mean of per-shard gradients): with
        // as many stripes as workers, with 7 stripes over 3 workers
        // (different workers complete different stripes of a round), and
        // with the 7 stripes routed to 2 servers and drained every round.
        // Every plane commits each round once, fresh on every shard.
        let (single, two) = (ServerTopology::default(), ServerTopology::new(2, 4));
        let rounds = 10;
        for (shards, topology, sync_rounds) in [(3, single, 0), (7, single, 0), (7, two, rounds)] {
            let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 7);
            let (train, test) = data.split(0.25);
            let mut cfg = TrainerConfig::new(3, 8, 0.05, 0.9)
                .with_seed(7)
                .with_topology(topology);
            cfg.shards = shards;
            let mut t = Trainer::new(Network::mlp(6, &[16], 4, 7), train, test, cfg);
            let params = sequential_sgd(&t, 7, rounds);
            let r = t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
            let what = format!("{shards} shards on {topology:?}");
            assert_eq!(r.shard_staleness.total(), rounds * shards as u64, "{what}");
            assert_eq!(r.shard_staleness.max(), Some(0), "{what}");
            assert_eq!(t.push_count(), rounds, "{what}");
            assert_eq!(r.sync_rounds, sync_rounds, "{what}");
            let max_diff = max_abs_diff(&t.snapshot_params(), &params);
            assert!(
                max_diff < 1e-4,
                "{what}: BSP left sequential SGD by {max_diff}"
            );
        }
    }

    #[test]
    fn oversubscribed_bsp_equals_sequential_large_batch_sgd() {
        // 8 workers on far fewer cores × 2 000 rounds: most waits at the
        // round gate go through the yield rung (the peer to wait for is not
        // running) and some park, so every rung of the ladder carries
        // rounds — and the result must still be the sequential one.
        let (workers, seed, rounds) = (8, 17, 2_000);
        let mut t = small_trainer(workers, seed);
        let params = sequential_sgd(&t, seed, rounds);
        let report = t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
        assert_eq!(report.steps, rounds);
        // The bus says how the waits ended: one wait per worker per round,
        // of which `engine.barrier_parks` reached the condvar.
        let snap = t.bus().metrics.snapshot();
        let waits = snap.histograms.get("engine.barrier_wait_ns").unwrap().count;
        assert_eq!(waits, workers as u64 * rounds);
        assert!(snap.counters["engine.barrier_parks"] < waits);
        let max_diff = max_abs_diff(&t.store().unwrap().snapshot_params(), &params);
        assert!(
            max_diff < 1e-4,
            "oversubscribed BSP diverged from sequential SGD by {max_diff}"
        );
    }

    #[test]
    fn multi_server_asp_reports_per_server_staleness() {
        let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 8);
        let (train, test) = data.split(0.25);
        let mut cfg = TrainerConfig::new(4, 8, 0.05, 0.9).with_seed(8);
        cfg.shards = 5;
        cfg.topology = crate::config::ServerTopology::new(2, 2);
        let mut t = Trainer::new(Network::mlp(6, &[16], 4, 8), train, test, cfg);
        let steps = 200;
        let r = t.run_segment(SyncProtocol::Asp, steps).unwrap();
        assert_eq!(r.steps, steps);
        assert_eq!(t.push_count(), steps);
        // Every step reaches both servers, and each commits behind every
        // second push request, however the pushes interleave.
        assert_eq!(r.sync_rounds, steps / 2);
        // Every shard is observed once per step, and both servers own
        // some of them.
        let tier = t.net_router().expect("multi-server plane").tier();
        for g in 0..tier.shard_count() {
            let total = r.shard_staleness.shard(g).total();
            assert_eq!(total, steps, "shard {g} of server {}", tier.owner_of(g));
        }
        let owners: Vec<usize> = (0..tier.shard_count()).map(|g| tier.owner_of(g)).collect();
        assert!(owners.contains(&0) && owners.contains(&1), "{owners:?}");
        assert_eq!(r.shard_staleness.total(), steps * tier.shard_count() as u64);
        // Real concurrency through the committed view produces staleness.
        assert!(r.staleness.mean() > 0.1);
    }

    #[test]
    fn multi_server_global_staleness_measures_data_lag() {
        // Regression: global staleness used to be measured against the
        // live push counter even though routed pulls read the older
        // committed view, so a worker training on stage-2-stale data
        // reported staleness 0. With one worker the honest measurement is
        // fully deterministic: push k pulls the view committed at the last
        // round (the largest multiple of sync_every ≤ k), so its staleness
        // is k mod sync_every.
        let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 18);
        let (train, test) = data.split(0.25);
        let mut cfg = TrainerConfig::new(1, 8, 0.02, 0.9).with_seed(18);
        cfg.shards = 4;
        cfg.topology = crate::config::ServerTopology::new(2, 4);
        let mut t = Trainer::new(Network::mlp(6, &[16], 4, 18), train, test, cfg);
        let r = t.run_segment(SyncProtocol::Asp, 40).unwrap();
        assert_eq!(r.staleness.max(), Some(3), "committed lag must be visible");
        assert!((r.staleness.mean() - 1.5).abs() < 1e-9);
        // The global and per-shard views agree on the lag.
        assert_eq!(r.shard_staleness.max(), Some(3));
    }

    #[test]
    fn multi_server_trains_under_all_protocols() {
        // Acceptance shape: servers >= 2 trains MLP-on-blobs through BSP,
        // ASP, and SSP on the real PS in one trainer lifetime.
        let data = Dataset::gaussian_blobs(4, 80, 6, 0.35, 15);
        let (train, test) = data.split(0.25);
        let mut cfg = TrainerConfig::new(4, 8, 0.05, 0.9).with_seed(15);
        cfg.shards = 6;
        cfg.topology = crate::config::ServerTopology::new(3, 2);
        let mut t = Trainer::new(Network::mlp(6, &[16], 4, 15), train, test, cfg);
        let before = t.evaluate();
        for _ in 0..3 {
            t.run_segment(SyncProtocol::Bsp, 40).unwrap();
            t.run_segment(SyncProtocol::Asp, 40).unwrap();
            t.run_ssp_segment(2, 40).unwrap();
        }
        let after = t.evaluate();
        assert_eq!(t.global_step(), 360);
        assert!(
            after > before + 0.2,
            "multi-server training did not learn: {before} -> {after}"
        );
    }

    #[test]
    fn clamped_topology_uses_single_store_fast_path() {
        // servers > shards clamps to one effective server; that must get
        // the single-store plane (live pulls, no stage-2 lag), not a
        // one-owner router with committed-view semantics.
        let data = Dataset::gaussian_blobs(3, 40, 5, 0.3, 19);
        let (train, test) = data.split(0.25);
        let mut cfg = TrainerConfig::new(2, 8, 0.05, 0.9).with_seed(19);
        cfg.shards = 1;
        cfg.topology = crate::config::ServerTopology::new(2, 64);
        let mut t = Trainer::new(Network::mlp(5, &[8], 3, 19), train, test, cfg);
        assert_eq!(t.server_count(), 1);
        assert!(t.net_router().is_none());
        assert!(t.store().is_some(), "single-server accessor works");
        let r = t.run_segment(SyncProtocol::Asp, 30).unwrap();
        assert_eq!(r.sync_rounds, 0);
    }

    #[test]
    fn store_accessor_errs_on_multi_server() {
        let data = Dataset::gaussian_blobs(3, 40, 5, 0.3, 1);
        let (train, test) = data.split(0.25);
        let cfg = TrainerConfig::new(2, 8, 0.05, 0.9)
            .with_topology(crate::config::ServerTopology::new(2, 1));
        let t = Trainer::new(Network::mlp(5, &[8], 3, 1), train, test, cfg);
        assert_eq!(t.server_count(), 2);
        assert!(t.store().is_none());
    }

    #[test]
    fn topology_and_shard_count_are_fixed_after_construction() {
        let mut t = small_trainer(2, 16);
        let mut cfg = t.config().clone();
        cfg.topology = ServerTopology::new(2, 1);
        assert!(matches!(t.set_config(cfg), Err(PsError::InvalidConfig(_))));
        // The plane's layout is fixed too: the config must not claim 7
        // shards over a store that holds 2.
        let mut cfg = t.config().clone();
        cfg.shards = 7;
        assert!(matches!(t.set_config(cfg), Err(PsError::InvalidConfig(_))));
        assert_eq!(t.config().shards, t.store().unwrap().shard_count());
    }

    #[test]
    fn bsp_training_learns() {
        let mut t = small_trainer(4, 3);
        let before = t.evaluate();
        for _ in 0..6 {
            t.run_segment(SyncProtocol::Bsp, 50).unwrap();
        }
        let after = t.evaluate();
        assert!(
            after > before + 0.2,
            "accuracy did not improve: {before} -> {after}"
        );
    }

    #[test]
    fn asp_training_learns() {
        let mut t = small_trainer(4, 4);
        for _ in 0..6 {
            t.run_segment(SyncProtocol::Asp, 50).unwrap();
        }
        assert!(t.evaluate() > 0.6, "accuracy {}", t.evaluate());
    }

    #[test]
    fn checkpoint_restore_resumes() {
        let mut t = small_trainer(2, 5);
        t.run_segment(SyncProtocol::Bsp, 10).unwrap();
        let ck = t.checkpoint();
        assert_eq!(ck.step, 10);
        t.run_segment(SyncProtocol::Asp, 20).unwrap();
        assert_eq!(t.global_step(), 30);
        t.restore(&ck).unwrap();
        assert_eq!(t.global_step(), 10);
        assert_eq!(t.store().unwrap().snapshot_params(), ck.params);
        // The fields are public, so they can disagree: a velocity one slot
        // short is a mismatch, not a panic in the store.
        let mut short = ck;
        short.velocity.pop();
        let err = t.restore(&short).unwrap_err();
        assert!(matches!(err, PsError::CheckpointMismatch(_)), "{err}");
    }

    /// A blow-up is a divergence at its first step, whatever the protocol.
    /// From parameters scaled by 1e30 the logits overflow: the first
    /// step's loss stays at the cross-entropy's clamp, −ln(1e-12) ≈ 27.6,
    /// a finite loss, but its gradient is not finite, so
    /// the segment of that one step ends with the tier poisoned.
    #[test]
    fn divergence_detected_and_reported() {
        let seed = 9;
        let blown = |t: &Trainer| {
            let mut ck = t.checkpoint();
            ck.params.iter_mut().for_each(|p| *p *= 1e30);
            ck
        };
        // The first step's batch and loss, as the one worker draws them.
        let t = small_trainer(1, seed);
        let mut model = t.template.clone();
        model.set_params_flat(&blown(&t).params);
        let (x, y) = t.shards[0].sample_batch(8, &mut step_rng(seed, 0, 0));
        let (loss, grad) = model.loss_and_grad(&x, &y);
        assert!(loss.is_finite() && loss < 28.0, "first-step loss {loss}");
        assert!(grad.iter().any(|g| !g.is_finite()));
        let ssp2 = (SyncProtocol::Asp, Some(2));
        for (protocol, leash) in [(SyncProtocol::Bsp, None), (SyncProtocol::Asp, None), ssp2] {
            let mut t = small_trainer(1, seed);
            t.restore(&blown(&t)).unwrap();
            match t.run_leashed(protocol, leash, 1) {
                Err(PsError::Diverged { step }) => assert_eq!(step, 1),
                other => panic!("{protocol} leash {leash:?}: expected Diverged, got {other:?}"),
            }
            assert_eq!(t.global_step(), 0, "{protocol} leash {leash:?} advanced");
        }
    }

    /// A worker that panics — a bug, not a dead server — still wakes its
    /// peers, and the panic reaches the segment's caller instead of turning
    /// into an error. Each shard is one row, worker k's the row of class k,
    /// so worker 3 alone draws a label past the model's three classes and
    /// trips `SoftmaxCrossEntropy`'s assert. It straggles first: under BSP
    /// its peers are already at the round barrier, under SSP(1) behind the
    /// leash. A peer left waiting hangs the segment, and the deadline turns
    /// that into a failure.
    #[test]
    fn a_worker_panic_wakes_its_peers_and_reaches_the_caller() {
        type Segment = fn(&mut Trainer) -> Result<SegmentReport, PsError>;
        let protocols: [(&str, Segment); 2] = [
            ("BSP", |t| t.run_segment(SyncProtocol::Bsp, 100)),
            ("SSP(1)", |t| t.run_ssp_segment(1, 100)),
        ];
        for (name, segment) in protocols {
            let _deadline = deadline(30);
            let train = Dataset::gaussian_blobs(4, 1, 6, 0.35, 5);
            let test = Dataset::gaussian_blobs(3, 4, 6, 0.35, 5);
            let cfg = TrainerConfig::new(4, 4, 0.05, 0.9)
                .with_seed(5)
                .with_straggler(3, Duration::from_millis(50));
            let mut t = Trainer::new(Network::mlp(6, &[8], 3, 5), train, test, cfg);
            let panic = std::thread::spawn(move || segment(&mut t))
                .join()
                .expect_err(name);
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("out of range"), "{name}: {msg}");
        }
    }

    #[test]
    fn straggler_slows_its_own_profile() {
        let data = Dataset::gaussian_blobs(3, 60, 4, 0.3, 11);
        let (train, test) = data.split(0.2);
        let cfg = TrainerConfig::new(3, 4, 0.05, 0.9)
            .with_seed(11)
            .with_straggler(1, Duration::from_millis(3));
        let mut t = Trainer::new(Network::mlp(4, &[8], 3, 11), train, test, cfg);
        let r = t.run_segment(SyncProtocol::Asp, 60).unwrap();
        let fast = r.worker_profiles[0].steps_per_sec();
        let slow = r.worker_profiles[1].steps_per_sec();
        assert!(
            slow < fast * 0.7,
            "straggler {slow} steps/s vs fast {fast} steps/s"
        );
        // ASP lets fast workers do more steps than the straggler.
        assert!(r.worker_profiles[0].steps() > r.worker_profiles[1].steps());
    }

    #[test]
    fn excluded_worker_does_no_work() {
        let mut t = small_trainer(3, 12);
        let mut cfg = t.config().clone();
        cfg.excluded_workers = vec![2];
        t.set_config(cfg).unwrap();
        let r = t.run_segment(SyncProtocol::Bsp, 10).unwrap();
        assert_eq!(r.worker_profiles[2].steps(), 0);
        assert_eq!(r.worker_profiles[0].steps(), 10);
        assert_eq!(t.store().unwrap().version(), 10);
    }

    #[test]
    fn zero_step_segment_is_noop() {
        let mut t = small_trainer(2, 13);
        let r = t.run_segment(SyncProtocol::Bsp, 0).unwrap();
        assert_eq!(r.steps, 0);
        assert_eq!(t.global_step(), 0);
    }

    #[test]
    fn config_worker_count_is_fixed() {
        let mut t = small_trainer(2, 14);
        let bad = TrainerConfig::new(3, 8, 0.05, 0.9);
        assert!(matches!(t.set_config(bad), Err(PsError::InvalidConfig(_))));
    }

    #[test]
    fn segments_record_step_and_barrier_telemetry() {
        let mut t = small_trainer(3, 21);
        let (asp_steps, bsp_rounds, ssp_steps) = (40, 10, 30);
        let barrier_waits = |t: &Trainer| {
            let snap = t.bus().metrics.snapshot();
            let hist = snap.histograms.get("engine.barrier_wait_ns");
            hist.map_or(0, |h| h.count)
        };
        // ASP is the leashless loop: it never touches the gate, so it adds
        // nothing to the histogram the controller's promote rule reads.
        t.run_segment(SyncProtocol::Asp, asp_steps).unwrap();
        assert_eq!(barrier_waits(&t), 0);
        // BSP parked each worker at the barrier each round.
        t.run_segment(SyncProtocol::Bsp, bsp_rounds).unwrap();
        assert_eq!(barrier_waits(&t), 3 * bsp_rounds);
        // SSP waits at the gate once per step. A worker claims its next
        // step before it pushes, so one whose claim finds the budget spent
        // leaves without waiting.
        t.run_ssp_segment(1, ssp_steps).unwrap();
        let waits = 3 * bsp_rounds + ssp_steps;
        assert_eq!(barrier_waits(&t), waits);
        let bus = t.bus();
        // Every completed step incremented the counter and recorded a
        // duration: the ASP and SSP steps plus one step per worker per BSP
        // round.
        let snap = bus.metrics.snapshot();
        let expected = asp_steps + 3 * bsp_rounds + ssp_steps;
        assert_eq!(snap.counters.get("engine.steps"), Some(&expected));
        let step_hist = snap.histograms.get("engine.step_ns").unwrap();
        assert_eq!(step_hist.count, expected);
        assert!(step_hist.sum > 0);
        // Staleness observations: one per asynchronous step, none for BSP.
        assert_eq!(
            snap.histograms.get("engine.staleness").unwrap().count,
            asp_steps + ssp_steps
        );
        // The trace carries matching step and barrier-wait spans.
        let counts = bus.trace.counts_by_name();
        assert_eq!(counts.get("step"), Some(&expected));
        assert_eq!(counts.get("barrier_wait"), Some(&waits));
    }

    #[test]
    fn a_bsp_round_tail_is_timed_as_synchronisation() {
        let _deadline = deadline(60);
        // The controller promotes on barrier / (barrier + step). What a BSP
        // worker does after its compute — summing into the stripes and, for
        // the final applier, the round's commit over the wire — must count in
        // one of the two, or the rule cannot see what a round costs.
        let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 36);
        let (train, test) = data.split(0.25);
        let topology = crate::config::ServerTopology::new(2, 4);
        let mut cfg = TrainerConfig::new(2, 8, 0.05, 0.9)
            .with_seed(36)
            .with_topology(topology.with_transport(TransportKind::Channel));
        cfg.shards = 4;
        let mut t = Trainer::new(Network::mlp(6, &[16], 4, 36), train, test, cfg);
        let r = t.run_segment(SyncProtocol::Bsp, 200).unwrap();
        let mut barrier_ns = [0u64; 2];
        for event in t.bus().trace.events() {
            if let TraceKind::BarrierWait { worker } = event.kind {
                barrier_ns[worker as usize] += event.dur_ns;
            }
        }
        for (w, profile) in r.worker_profiles.iter().enumerate() {
            let step_ns = profile.step_durations.iter().sum::<Duration>().as_nanos() as u64;
            let wall_ns = profile.wall_time.as_nanos() as u64;
            assert!(
                10 * (step_ns + barrier_ns[w]) >= 9 * wall_ns,
                "worker {w}: step {step_ns} ns + barrier {} ns of wall {wall_ns} ns",
                barrier_ns[w]
            );
        }
    }

    /// One worker training `job`'s model on every plane: with nothing
    /// concurrent, a leash of any length never holds, so SSP must be ASP
    /// bit for bit — on the single store, on the in-process (direct) tier,
    /// and over both wire tiers. So must ASP cut into 8 segments: a worker
    /// keeps its seat across a boundary, and on a wire tier the image its
    /// last push brought home is served to the next segment's first pull.
    /// Returns, per plane, the pull round trips of the 8-segment run.
    fn single_worker_asp_equals_leashed_ssp(
        job: impl Fn() -> (Network, Dataset, Dataset),
        steps: u64,
    ) -> Vec<u64> {
        let inproc = crate::config::ServerTopology::new(2, 4);
        let planes = [
            (5, crate::config::ServerTopology::default()),
            (7, inproc),
            (7, inproc.with_transport(TransportKind::Channel)),
            (7, inproc.with_transport(TransportKind::Tcp)),
        ];
        let mut asked = Vec::new();
        for (shards, topology) in planes {
            let run = |leash: Option<u64>, segments: u64| {
                let (model, train, test) = job();
                let mut cfg = TrainerConfig::new(1, 8, 0.05, 0.9)
                    .with_seed(31)
                    .with_topology(topology);
                cfg.shards = shards;
                let mut t = Trainer::new(model, train, test, cfg);
                let mut staleness = StalenessHistogram::new();
                let (mut shard_max, mut pull_trips) = (None, 0);
                for _ in 0..segments {
                    let r = t
                        .run_leashed(SyncProtocol::Asp, leash, steps / segments)
                        .unwrap();
                    staleness.merge(&r.staleness);
                    shard_max = shard_max.max(r.shard_staleness.max());
                    pull_trips += r.transport.pull.round_trips;
                }
                (t.checkpoint(), staleness, shard_max, pull_trips)
            };
            let asp = run(None, 1);
            for (leash, segments) in [(Some(0), 1), (Some(3), 1), (None, 8)] {
                let what = format!("{topology:?} leash {leash:?} × {segments} segments");
                let other = run(leash, segments);
                assert_eq!(other.0.params, asp.0.params, "{what}");
                assert_eq!(other.0.velocity, asp.0.velocity, "{what}");
                assert_eq!(other.1, asp.1, "{what}: staleness");
                assert_eq!(other.2, asp.2, "{what}: shard staleness");
                if segments == 8 {
                    asked.push(other.3);
                }
            }
        }
        asked
    }

    #[test]
    fn single_worker_asp_equals_leashed_ssp_on_every_plane() {
        let _deadline = deadline(60);
        single_worker_asp_equals_leashed_ssp(
            || {
                let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 31);
                let (train, test) = data.split(0.25);
                (Network::mlp(6, &[16], 4, 31), train, test)
            },
            40,
        );
    }

    #[test]
    fn single_worker_sparse_asp_equals_leashed_ssp_on_every_plane() {
        let _deadline = deadline(60);
        // The same on the embedding classifier, whose steps pull by run:
        // each push brings home the runs of the batch drawn before it, and a
        // lone worker's ridden image must be what asking returns. On every
        // tier only each segment's first pull asks its 2 servers: the last
        // step of a segment draws no next batch, and every commit is in
        // the worker's own replies, so no ridden image goes out of date.
        // The single store has no wire.
        let asked = single_worker_asp_equals_leashed_ssp(
            || {
                let data = Dataset::zipf_tokens(3, 60, 64, 3, 1.1, 31);
                let (train, test) = data.split(0.25);
                (
                    Network::embedding_classifier(64, 4, 6, 3, 3, 31),
                    train,
                    test,
                )
            },
            40,
        );
        assert_eq!(
            asked,
            [0, 8 * 2, 8 * 2, 8 * 2],
            "pull round trips per plane"
        );
    }

    #[test]
    fn bsp_is_blind_to_segment_boundaries_on_every_plane() {
        let _deadline = deadline(60);
        // Two workers, so a stripe's sum is the same whichever contributes
        // first: 40 BSP rounds as one segment and as 8 segments of 5 leave
        // the same parameters and velocity bit for bit on every plane.
        let two = crate::config::ServerTopology::new(2, 4);
        let planes = [
            crate::config::ServerTopology::default(),
            two,
            two.with_transport(TransportKind::Channel),
            two.with_transport(TransportKind::Tcp),
        ];
        for topology in planes {
            let run = |segments: u64| {
                let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 32);
                let (train, test) = data.split(0.25);
                let mut cfg = TrainerConfig::new(2, 8, 0.05, 0.9)
                    .with_seed(32)
                    .with_topology(topology);
                cfg.shards = 5;
                let mut t = Trainer::new(Network::mlp(6, &[16], 4, 32), train, test, cfg);
                for _ in 0..segments {
                    t.run_segment(SyncProtocol::Bsp, 40 / segments).unwrap();
                }
                t.checkpoint()
            };
            let (whole, split) = (run(1), run(8));
            assert_eq!(split.step, 40, "{topology:?}");
            assert_eq!(split.params, whole.params, "{topology:?}");
            assert_eq!(split.velocity, whole.velocity, "{topology:?}");
        }
    }

    #[test]
    fn a_restore_after_a_heal_starts_every_worker_on_fresh_sockets() {
        let _deadline = deadline(60);
        // The workers' connections outlive an ordinary segment boundary,
        // but not a restore: after server 0 is killed, revived and found
        // by the handshake, the restore that follows every heal drops
        // them, so the next segment dials the new instance instead of
        // failing on the dead sockets.
        let data = Dataset::gaussian_blobs(3, 40, 5, 0.3, 34);
        let (train, test) = data.split(0.25);
        let topology = crate::config::ServerTopology::new(2, 4).with_transport(TransportKind::Tcp);
        let cfg = TrainerConfig::new(2, 8, 0.05, 0.9)
            .with_seed(34)
            .with_topology(topology);
        let mut t = Trainer::new(Network::mlp(5, &[8], 3, 34), train, test, cfg);
        t.run_segment(SyncProtocol::Asp, 20).unwrap();
        let ck = t.checkpoint();
        let router = t.net_router().expect("wire plane");
        router.kill_server(0).unwrap();
        router.revive_server(0).unwrap();
        assert_eq!(router.handshake(Duration::from_secs(5)), Ok(1));
        t.restore(&ck).unwrap();
        let r = t.run_segment(SyncProtocol::Asp, 20).unwrap();
        assert_eq!((r.transport.reconnects, r.transport.retries), (0, 0));
        assert_eq!(r.steps, 20);
    }

    #[test]
    fn non_finite_tier_is_divergence_under_every_protocol() {
        // One worker, one step, from a checkpoint whose velocity holds a
        // NaN: the step pulls finite parameters and computes a finite loss,
        // and its own apply poisons the parameters. Whatever the protocol,
        // that segment is `Diverged` and the step counter stays put — SSP
        // used to report it `Ok(finite: false)` and advance.
        let ssp2 = (SyncProtocol::Asp, Some(2));
        for (protocol, leash) in [(SyncProtocol::Bsp, None), (SyncProtocol::Asp, None), ssp2] {
            let mut t = small_trainer(1, 33);
            let mut poisoned = t.checkpoint();
            poisoned.velocity[0] = f32::NAN;
            t.restore(&poisoned).unwrap();
            match t.run_leashed(protocol, leash, 1) {
                Err(PsError::Diverged { step }) => assert_eq!(step, 1),
                other => panic!("{protocol} leash {leash:?}: expected Diverged, got {other:?}"),
            }
            assert_eq!(t.global_step(), 0, "{protocol} leash {leash:?} advanced");
            assert!(!t.check_finite());
        }
    }

    #[test]
    fn every_data_plane_carries_one_bus() {
        let _deadline = deadline(60);
        // Whatever the plane, the trainer records into exactly one bus, and
        // on a wire plane it is the router's own: engine counters and wire
        // counters come out of one snapshot.
        let two = crate::config::ServerTopology::new(2, 4);
        let planes = [
            crate::config::ServerTopology::default(),
            two,
            two.with_transport(TransportKind::Channel),
            two.with_transport(TransportKind::Tcp),
        ];
        for topology in planes {
            let data = Dataset::gaussian_blobs(3, 40, 5, 0.3, 22);
            let (train, test) = data.split(0.25);
            let cfg = TrainerConfig::new(2, 8, 0.05, 0.9)
                .with_seed(22)
                .with_topology(topology);
            let mut t = Trainer::new(Network::mlp(5, &[8], 3, 22), train, test, cfg);
            let steps = 24;
            t.run_segment(SyncProtocol::Asp, steps).unwrap();
            let bus = t.telemetry().expect("always Some");
            let snap = bus.metrics.snapshot();
            assert_eq!(snap.counters["engine.steps"], steps, "{topology:?}");
            match t.net_router() {
                Some(router) => {
                    assert!(Arc::ptr_eq(bus, router.telemetry()), "{topology:?}");
                    assert!(t.sync_rounds() > 0, "{topology:?}");
                    assert_eq!(
                        snap.counters["wire.sync_rounds"],
                        t.sync_rounds(),
                        "{topology:?}"
                    );
                }
                None => assert_eq!(topology.transport, TransportKind::InProcess, "{topology:?}"),
            }
        }
    }

    #[test]
    fn worker_profiles_record_wall_time() {
        // One straggler: its *busy* rate collapses, but the fast worker's
        // *wall* rate must collapse too under BSP, where it idles at the
        // barrier waiting for the straggler — the distinction the wall
        // clock exists to expose.
        let data = Dataset::gaussian_blobs(3, 60, 4, 0.3, 23);
        let (train, test) = data.split(0.2);
        let cfg = TrainerConfig::new(2, 4, 0.05, 0.9)
            .with_seed(23)
            .with_straggler(1, Duration::from_millis(4));
        let mut t = Trainer::new(Network::mlp(4, &[8], 3, 23), train, test, cfg);
        let rounds = 15;
        let r = t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
        let fast = &r.worker_profiles[0];
        let slow = &r.worker_profiles[1];
        assert!(!fast.wall_time.is_zero());
        assert!(!slow.wall_time.is_zero());
        // Both workers' wall spans cover the straggler's sleeps.
        let floor = Duration::from_millis(4 * (rounds - 1));
        assert!(fast.wall_time >= floor, "fast wall {:?}", fast.wall_time);
        assert!(slow.wall_time >= floor, "slow wall {:?}", slow.wall_time);
        // The fast worker looks fast on busy time and slow on wall time.
        let wall_rate = fast.steps() as f64 / fast.wall_time.as_secs_f64();
        assert!(fast.steps_per_sec() > 2.0 * wall_rate);
    }
}
