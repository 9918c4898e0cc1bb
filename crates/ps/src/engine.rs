//! The training engine: worker threads, BSP barrier, ASP async loop.
//!
//! The worker loops are written once against [`WorkerPort`], so the same
//! BSP/ASP/SSP code drives either the single in-process [`ShardedStore`] or
//! the multi-server [`crate::ShardRouter`] with OSP-style two-stage sync —
//! the topology is picked by [`TrainerConfig::topology`] at construction.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use sync_switch_nn::{Dataset, Network, Tensor};
use sync_switch_telemetry::{Counter, Histogram, LocalHistogram, Telemetry, TraceEvent, TraceKind};
use sync_switch_workloads::SyncProtocol;

use crate::checkpoint::Checkpoint;
use crate::config::{TrainerConfig, TransportKind};
use crate::error::PsError;
use crate::gate::RoundGate;
use crate::profiler::{
    ServerShardStaleness, ShardStaleness, StalenessHistogram, TransportStats, WorkerProfile,
};
use crate::router::{PortBuffer, ShardRouter, WorkerPort};
use crate::store::{runs_within, ShardedStore};
use crate::transport::{NetPort, NetRouter};

/// What each worker thread returns: its id, timing/loss profile, global
/// staleness observations, and per-server per-shard staleness observations.
pub(crate) type WorkerResult = (
    usize,
    WorkerProfile,
    StalenessHistogram,
    ServerShardStaleness,
);
/// Per-worker-thread telemetry buffer for the hot step loops.
///
/// Looking an instrument up by name locks the registry map and tracing an
/// event locks the ring — per step, across every worker thread, those two
/// mutexes (plus the cache-line traffic of shared atomics) cost more than
/// the bookkeeping they record. This buffer resolves the instruments once
/// per segment, accumulates the counter and histogram samples in plain
/// thread-local fields, and batches trace events, so between flushes the
/// hot loop touches no shared telemetry state at all.
pub(crate) struct WorkerTelemetry {
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

    pub(crate) fn new(bus: &Arc<Telemetry>) -> Self {
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
    pub(crate) fn now_ns(&self) -> u64 {
        self.bus.trace.now_ns()
    }

    /// A finished step: bumps the step count, samples the busy duration,
    /// and buffers a [`TraceKind::Step`] span that started at `start_ns`
    /// and closes now.
    #[inline]
    pub(crate) fn step(&mut self, worker: usize, step: u64, start_ns: u64, busy: Duration) {
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
    pub(crate) fn staleness(&mut self, v: u64) {
        self.staleness_local.record(v);
    }

    /// A barrier (or SSP gate) wait that started at `start_ns`, ending now:
    /// the whole [`RoundGate::wait_until`] call — spin, yield and park.
    /// `parked` says the wait fell through to the condvar, so
    /// `engine.barrier_parks` ÷ the wait count is the share of releases the
    /// kernel delivered rather than the spin/yield rungs.
    #[inline]
    pub(crate) fn barrier_wait(&mut self, worker: usize, start_ns: u64, parked: bool) {
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
    /// per worker at segment end — a panicking worker flushes whatever it
    /// buffered before the unwind, so post-mortem traces keep the tail.
    pub(crate) fn flush(&mut self) {
        if self.steps > 0 {
            self.steps_counter.add(self.steps);
            self.steps = 0;
        }
        if self.parks > 0 {
            self.parks_counter.add(self.parks);
            self.parks = 0;
        }
        self.step_local.flush_into(&self.step_hist);
        self.staleness_local.flush_into(&self.staleness_hist);
        self.barrier_local.flush_into(&self.barrier_hist);
        self.bus.trace.record_batch(&mut self.events);
    }
}

/// Pushes a full gradient shard-by-shard against the clocks captured in
/// `buf`, recording one per-shard staleness observation per shard (under
/// the owning server), then completes the push, runs any stage-2 round the
/// push made due, and returns the push's global staleness. Shared by the
/// ASP and SSP worker loops so the two protocols measure staleness
/// identically. The shards are *queued* on the port in flat order, which
/// on a wire tier sends each server's shards as one batch.
pub(crate) fn push_sharded(
    port: &WorkerPort,
    grad: &[f32],
    acks: &mut Vec<u64>,
    buf: &PortBuffer,
    lr: f64,
    momentum: f64,
    shard_hist: &mut ServerShardStaleness,
) -> u64 {
    acks.clear();
    for i in 0..port.shard_count() {
        let (offset, len) = port.shard_range(i);
        port.queue_shard_update(i, &grad[offset..offset + len], lr, momentum, acks);
    }
    finish_push(port, acks, buf, shard_hist)
}

/// The tail both push helpers share: flushes the queued shards, turns each
/// shard's acked pre-apply clock into its staleness observation, completes
/// the push and runs any stage-2 round it made due.
fn finish_push(
    port: &WorkerPort,
    acks: &mut Vec<u64>,
    buf: &PortBuffer,
    shard_hist: &mut ServerShardStaleness,
) -> u64 {
    port.flush_pushes(acks);
    assert_eq!(acks.len(), port.shard_count(), "one ack per pushed shard");
    for (i, prev) in acks.iter().enumerate() {
        shard_hist.record(
            port.owner_of(i),
            i,
            prev.saturating_sub(buf.shard_version(i)),
        );
    }
    let staleness = port.complete_push(buf.version());
    port.after_push();
    staleness
}

/// Pulls what the step over batch `x` reads and installs it in `model` —
/// the single pull point of the BSP, ASP and SSP loops, and the place a
/// step's sparsity is decided for both directions: when the config allows
/// it *and* the model reports a sparse read set for `x`, only those runs
/// are pulled and installed (every other parameter of `model` keeps a
/// stale value the step never looks at) and `scratch` remembers them for
/// [`push_maybe_sparse`]; otherwise this is a full pull and
/// `set_params_flat`. Returns the pulled version either way.
pub(crate) fn pull_for_batch(
    port: &WorkerPort,
    model: &mut Network,
    x: &Tensor,
    sparse_enabled: bool,
    buf: &mut PortBuffer,
    scratch: &mut StepScratch,
) -> u64 {
    scratch.sparse = sparse_enabled && model.param_read_runs_into(x, &mut scratch.runs);
    if scratch.sparse {
        let version = port.pull_runs_into(buf, &scratch.runs);
        model.set_params_runs(buf.params(), &scratch.runs);
        version
    } else {
        let version = port.pull_into(buf);
        model.set_params_flat(buf.params());
        version
    }
}

/// Pushes a worker's gradient through the dense or the sparse path — the
/// single dispatch point shared by the ASP and SSP loops, so the two
/// protocols cannot drift on push selection: sparse exactly when the
/// step's pull was ([`pull_for_batch`]), along the same runs — a layer's
/// read runs cover everything its backward can write, and for the embedding
/// classifier the two sets are equal, so one list per step serves both.
pub(crate) fn push_maybe_sparse(
    port: &WorkerPort,
    grad: &[f32],
    scratch: &mut StepScratch,
    buf: &PortBuffer,
    lr: f64,
    momentum: f64,
    shard_hist: &mut ServerShardStaleness,
) -> u64 {
    if scratch.sparse {
        push_sharded_sparse(port, grad, scratch, buf, lr, momentum, shard_hist)
    } else {
        push_sharded(port, grad, &mut scratch.acks, buf, lr, momentum, shard_hist)
    }
}

/// Per-worker scratch for a step's pull and push. All four vectors are
/// reused across steps, so the steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    /// The pushed shards' acked pre-apply clocks, in shard order (both
    /// paths).
    acks: Vec<u64>,
    /// Whether this step moves only `runs` (set by [`pull_for_batch`]).
    sparse: bool,
    /// Global `(offset, len)` runs of the parameters this step's batch
    /// reads — and so of its possibly-nonzero gradient — filled by
    /// `Network::param_read_runs_into`.
    runs: Vec<(usize, usize)>,
    /// Shard-relative segments of the shard currently being pushed.
    spans: Vec<(u32, u32)>,
    /// The segments' gradient values, gathered from the flat gradient.
    values: Vec<f32>,
}

/// The sparse counterpart of [`push_sharded`]: walks the shards in order,
/// cuts the step's runs (`scratch.runs`, sorted and disjoint) to each
/// shard's range, and pushes only the overlapping segments. A shard fully covered by one run falls back to the dense apply
/// (no gather, no segment list); a shard with no overlap still pushes an
/// empty sparse update so its clock ticks and its momentum decays exactly
/// as a dense zero push would. Every invariant of the dense path —
/// per-shard staleness observations, global staleness, stage-2 scheduling —
/// is preserved because the apply itself is numerically identical. Each
/// shard's segments are encoded when it is queued, so `spans`/`values` are
/// free for the next shard while the batch is still being assembled.
pub(crate) fn push_sharded_sparse(
    port: &WorkerPort,
    grad: &[f32],
    scratch: &mut StepScratch,
    buf: &PortBuffer,
    lr: f64,
    momentum: f64,
    shard_hist: &mut ServerShardStaleness,
) -> u64 {
    scratch.acks.clear();
    for i in 0..port.shard_count() {
        let (offset, len) = port.shard_range(i);
        scratch.spans.clear();
        scratch.values.clear();
        let mut full_cover = false;
        for (start, n) in runs_within(&scratch.runs, offset, len) {
            if n == len {
                full_cover = true;
                break;
            }
            scratch.spans.push(((start - offset) as u32, n as u32));
            scratch.values.extend_from_slice(&grad[start..start + n]);
        }
        if full_cover {
            let shard_grad = &grad[offset..offset + len];
            port.queue_shard_update(i, shard_grad, lr, momentum, &mut scratch.acks);
        } else {
            port.queue_shard_update_sparse(
                i,
                &scratch.spans,
                &scratch.values,
                lr,
                momentum,
                &mut scratch.acks,
            );
        }
    }
    finish_push(port, &mut scratch.acks, buf, shard_hist)
}

/// The parameter-server data plane behind a trainer: the control-plane
/// face of the same store/router pair workers reach through [`WorkerPort`].
/// Wrapping the port (rather than mirroring its enum) keeps the dispatch in
/// one place while still keeping owner-only operations — snapshot, restore,
/// drain — off the worker-facing type.
#[derive(Debug)]
pub(crate) struct DataPlane(WorkerPort);

impl DataPlane {
    fn from_config(initial: &[f32], cfg: &TrainerConfig) -> Self {
        // A wire transport puts the tier behind the message boundary even
        // with one server — the boundary is the point. In-process keeps the
        // PR 3 rule: decide on the *effective* server count (the router
        // clamps servers to the shard count, and shards to the parameter
        // count); a topology that clamps down to one server must get the
        // single-store fast path, not two-stage committed-view semantics
        // with one owner.
        if cfg.topology.transport != TransportKind::InProcess {
            return DataPlane(WorkerPort::Net(NetPort::launch(
                initial,
                cfg.shards,
                cfg.topology,
            )));
        }
        let effective_servers = cfg.topology.servers.min(cfg.shards).min(initial.len());
        DataPlane(if effective_servers > 1 {
            WorkerPort::Routed(Arc::new(ShardRouter::new(
                initial,
                cfg.shards,
                cfg.topology,
            )))
        } else {
            WorkerPort::Single(Arc::new(ShardedStore::new(initial, cfg.shards)))
        })
    }

    pub(crate) fn port(&self) -> WorkerPort {
        self.0.clone()
    }

    fn shard_count(&self) -> usize {
        self.0.shard_count()
    }

    fn server_count(&self) -> usize {
        self.0.server_count()
    }

    fn param_count(&self) -> usize {
        match &self.0 {
            WorkerPort::Single(s) => s.param_count(),
            WorkerPort::Routed(r) => r.param_count(),
            WorkerPort::Net(p) => p.router().param_count(),
        }
    }

    fn version(&self) -> u64 {
        match &self.0 {
            WorkerPort::Single(s) => s.version(),
            WorkerPort::Routed(r) => r.version(),
            WorkerPort::Net(p) => p.router().version(),
        }
    }

    fn snapshot_params(&self) -> Vec<f32> {
        match &self.0 {
            WorkerPort::Single(s) => s.snapshot_params(),
            WorkerPort::Routed(r) => r.snapshot_params(),
            WorkerPort::Net(p) => p.router().snapshot_params(),
        }
    }

    fn snapshot_velocity(&self) -> Vec<f32> {
        match &self.0 {
            WorkerPort::Single(s) => s.snapshot_velocity(),
            WorkerPort::Routed(r) => r.snapshot_velocity(),
            WorkerPort::Net(p) => p.router().snapshot_velocity(),
        }
    }

    fn restore(&self, params: &[f32], velocity: &[f32]) {
        match &self.0 {
            WorkerPort::Single(s) => s.restore(params, velocity),
            WorkerPort::Routed(r) => r.restore(params, velocity),
            WorkerPort::Net(p) => p.router().restore(params, velocity),
        }
    }

    fn reset_velocity(&self) {
        match &self.0 {
            WorkerPort::Single(s) => s.reset_velocity(),
            WorkerPort::Routed(r) => r.reset_velocity(),
            WorkerPort::Net(p) => p.router().reset_velocity(),
        }
    }

    fn is_finite(&self) -> bool {
        match &self.0 {
            WorkerPort::Single(s) => s.is_finite(),
            WorkerPort::Routed(r) => r.is_finite(),
            WorkerPort::Net(p) => p.router().is_finite(),
        }
    }

    fn drain(&self) {
        match &self.0 {
            WorkerPort::Single(_) => {}
            WorkerPort::Routed(r) => r.drain(),
            WorkerPort::Net(p) => p.router().drain(),
        }
    }

    fn sync_rounds(&self) -> u64 {
        match &self.0 {
            WorkerPort::Single(_) => 0,
            WorkerPort::Routed(r) => r.sync_rounds(),
            WorkerPort::Net(p) => p.router().sync_rounds(),
        }
    }

    /// Cumulative wire counters (all-zero with no wire boundary).
    pub(crate) fn transport_stats(&self) -> TransportStats {
        match &self.0 {
            WorkerPort::Single(_) | WorkerPort::Routed(_) => TransportStats::default(),
            WorkerPort::Net(p) => p.router().stats(),
        }
    }
}

/// Outcome of one training segment (a run of consecutive steps under a
/// single protocol and configuration).
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
    /// a stripe is applied exactly once per barrier round).
    pub shard_staleness: ShardStaleness,
    /// The same observations broken out per owning server — under a
    /// multi-server topology this is where the per-shard-per-server SSP
    /// bound is visible (single-server segments put everything on server 0).
    pub server_shard_staleness: ServerShardStaleness,
    /// Stage-2 reconciliation rounds completed during the segment (0 on a
    /// single-server plane).
    pub sync_rounds: u64,
    /// Wire cost of the segment on a transport-backed data plane (all
    /// zeros, `backend == None`, when the tier is in-process).
    pub transport: TransportStats,
    /// Whether every live parameter was finite when the segment ended —
    /// the post-segment [`Trainer::check_finite`] result, surfaced so
    /// switching policies (and the divergence watchdog) can react without
    /// a second wire round trip. An `Ok` engine segment implies `true`;
    /// SSP segments report the observed check.
    pub finite: bool,
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

/// State shared by BSP workers: striped per-shard accumulators plus the
/// round gate.
///
/// Each stripe maps 1:1 onto a store shard and carries its own lock, so
/// workers aggregating different stripes proceed concurrently instead of
/// funnelling every gradient through one global accumulator mutex. The last
/// contributor to a stripe applies that stripe's averaged update to its
/// shard; the worker that applies the last outstanding stripe completes the
/// push and advances the gate, whose epoch is the count of completed rounds.
struct BspShared {
    stripes: Vec<Mutex<Stripe>>,
    /// Epoch = completed rounds; a worker leaves round `r` once the epoch
    /// passes `r`. Also carries the segment's abort flag, so divergence and
    /// a dead worker wake the barrier through the gate's one abort path.
    gate: RoundGate,
    /// Stripes applied in the current round.
    applied: AtomicUsize,
}

/// One stripe's accumulation state for the in-flight round.
struct Stripe {
    accum: Vec<f32>,
    count: usize,
}

/// Everything a worker thread needs.
struct WorkerCtx {
    port: WorkerPort,
    diverged_at: Arc<AtomicU64>,
}

/// A parameter-server trainer over one model and one dataset, supporting
/// consecutive segments under different protocols and configurations — the
/// substrate Sync-Switch's policies act on.
pub struct Trainer {
    template: Network,
    shards: Vec<Dataset>,
    test: Dataset,
    cfg: TrainerConfig,
    plane: DataPlane,
    /// The telemetry bus (metrics + event trace) every layer of this
    /// trainer records into, `None` when [`TrainerConfig::telemetry`] is
    /// off. On a transport-backed plane the same bus is installed on the
    /// [`NetRouter`], so wire retries and sync rounds land next to the
    /// engine's step spans.
    telemetry: Option<Arc<Telemetry>>,
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
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trainer")
            .field("workers", &self.cfg.workers)
            .field("servers", &self.plane.server_count())
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
        if let Err(msg) = cfg.validate() {
            panic!("invalid trainer config: {msg}");
        }
        let shards: Vec<Dataset> = (0..cfg.workers)
            .map(|k| train.shard(k, cfg.workers))
            .collect();
        let initial = model.params_flat();
        let plane = DataPlane::from_config(&initial, &cfg);
        let telemetry = Self::build_telemetry(&cfg, &plane);
        let probe_n = shards[0].len().min(64);
        let probe_idx: Vec<usize> = (0..probe_n).collect();
        let probe_batch = shards[0].batch(&probe_idx);
        Trainer {
            template: model,
            shards,
            test,
            cfg,
            plane,
            telemetry,
            global_step: 0,
            protocol: SyncProtocol::Bsp,
            probe_batch,
        }
    }

    /// Creates a trainer on an *existing* data plane instead of building
    /// one from the config — the cross-process entry point: a `ps-worker`
    /// process connects a [`NetPort`] to its `ps-serve` tier (which already
    /// holds the initial parameters, every process having built the same
    /// seeded model) and drives the same BSP/ASP/SSP loops over it.
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
        let plane = DataPlane(port);
        assert_eq!(
            plane.param_count(),
            model.params_flat().len(),
            "data plane parameter count does not match the model"
        );
        let telemetry = Self::build_telemetry(&cfg, &plane);
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
            cfg,
            plane,
            telemetry,
            global_step: 0,
            protocol: SyncProtocol::Bsp,
            probe_batch,
        }
    }

    /// Builds the trainer's telemetry bus (if enabled) and installs it on
    /// the data plane's wire router, so router-level events — push retries,
    /// sync rounds, server kills/heals — share a clock and a trace with the
    /// engine's step spans.
    fn build_telemetry(cfg: &TrainerConfig, plane: &DataPlane) -> Option<Arc<Telemetry>> {
        if !cfg.telemetry {
            return None;
        }
        let telemetry = Arc::new(Telemetry::new());
        if let WorkerPort::Net(p) = &plane.0 {
            p.router().set_telemetry(Arc::clone(&telemetry));
        }
        Some(telemetry)
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
    /// inconsistent or changes the worker count (shards are fixed at
    /// construction).
    pub fn set_config(&mut self, cfg: TrainerConfig) -> Result<(), PsError> {
        cfg.validate().map_err(PsError::InvalidConfig)?;
        if cfg.workers != self.cfg.workers {
            return Err(PsError::InvalidConfig(
                "worker count is fixed at construction".into(),
            ));
        }
        if cfg.topology != self.cfg.topology {
            return Err(PsError::InvalidConfig(
                "server topology is fixed at construction".into(),
            ));
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
    /// plan's target here, the SSP runner tags itself as ASP).
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
    /// trainer.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::NoSingleStore`] when the data plane is a
    /// multi-server tier (or any transport-backed tier) — there is no
    /// single store then; use [`Trainer::router`],
    /// [`Trainer::net_router`], the snapshot APIs, or the segment reports
    /// instead.
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
    /// // Single-server plane: the accessor succeeds. On a multi-server or
    /// // wire-backed topology it returns Err(PsError::NoSingleStore)
    /// // instead of panicking — match on it or use the snapshot APIs.
    /// let store = trainer.store().expect("single-server plane");
    /// assert_eq!(store.version(), 0);
    /// ```
    pub fn store(&self) -> Result<&ShardedStore, PsError> {
        match &self.plane.0 {
            WorkerPort::Single(s) => Ok(s),
            WorkerPort::Routed(_) | WorkerPort::Net(_) => Err(PsError::NoSingleStore {
                servers: self.plane.server_count(),
            }),
        }
    }

    /// The shard router of a **multi-server in-process** trainer (`None`
    /// when the plane is a single store or behind a wire transport).
    pub fn router(&self) -> Option<&ShardRouter> {
        match &self.plane.0 {
            WorkerPort::Single(_) | WorkerPort::Net(_) => None,
            WorkerPort::Routed(r) => Some(r),
        }
    }

    /// The transport-backed router of a trainer whose topology selected the
    /// channel or TCP backend (`None` on an in-process plane).
    pub fn net_router(&self) -> Option<&NetRouter> {
        match &self.plane.0 {
            WorkerPort::Single(_) | WorkerPort::Routed(_) => None,
            WorkerPort::Net(p) => Some(p.router()),
        }
    }

    /// The telemetry bus this trainer records into (`None` when disabled
    /// via [`TrainerConfig::telemetry`]). Harnesses read metrics snapshots
    /// and export Chrome traces from here; the watchdog and supervisor
    /// record their events into the same bus.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Cumulative wire-cost counters of the data plane since construction
    /// (all zeros, `backend == None`, on an in-process plane). Per-segment
    /// costs are on [`SegmentReport::transport`].
    pub fn transport_stats(&self) -> TransportStats {
        self.plane.transport_stats()
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
    pub fn drain_sync(&self) {
        self.plane.drain();
    }

    /// Resets the optimizer velocity to zero on every server.
    pub fn reset_velocity(&self) {
        self.plane.reset_velocity();
    }

    /// Whether every parameter on every server is currently finite — the
    /// segment runner checks this after each push internally; this exposes
    /// the same probe to harnesses that want to assert it between segments.
    pub fn check_finite(&self) -> bool {
        self.plane.is_finite()
    }

    /// A worker-facing port onto the data plane (crate-internal: SSP
    /// extension).
    pub(crate) fn port(&self) -> WorkerPort {
        self.plane.port()
    }

    /// Worker `w`'s data shard (crate-internal: SSP extension).
    pub(crate) fn shard(&self, worker: usize) -> &Dataset {
        &self.shards[worker]
    }

    /// The template network (crate-internal: SSP extension).
    pub(crate) fn model_template(&self) -> &Network {
        &self.template
    }

    /// Advances the global step counter (crate-internal: SSP extension).
    pub(crate) fn advance_global_step(&mut self, steps: u64) {
        self.global_step += steps;
    }

    /// Takes a checkpoint of the current training state (the live,
    /// authoritative parameters — a concurrent stage-2 round cannot make
    /// this observe unpublished data, only the owners are read).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::new(
            self.global_step,
            self.plane.snapshot_params(),
            self.plane.snapshot_velocity(),
        )
    }

    /// Restores training state from a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::CheckpointMismatch`] if the checkpoint shape does
    /// not match the model.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), PsError> {
        ck.check_compatible(self.plane.param_count())?;
        self.plane.restore(&ck.params, &ck.velocity);
        self.global_step = ck.step;
        Ok(())
    }

    /// Evaluates top-1 accuracy on the held-out test set using the current
    /// parameters.
    pub fn evaluate(&self) -> f64 {
        let params = self.plane.snapshot_params();
        let mut model = self.template.clone();
        model.set_params_flat(&params);
        model.accuracy_on(self.test.features(), self.test.labels())
    }

    /// Training loss of the current parameters on a deterministic probe
    /// batch (first shard, fixed indices; cached at construction so the
    /// switcher's polling loop does not rebuild it every call).
    pub fn training_loss(&self) -> f32 {
        let params = self.plane.snapshot_params();
        let mut model = self.template.clone();
        model.set_params_flat(&params);
        let (x, y) = &self.probe_batch;
        model.loss(x, y)
    }

    /// Runs `steps` global steps under `protocol`, returning the segment
    /// report.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Diverged`] if any worker observes a non-finite or
    /// above-threshold loss (all workers are aborted),
    /// [`PsError::InvalidConfig`] for impossible configurations, and
    /// [`PsError::WorkerPanicked`] if a worker thread died mid-segment —
    /// on a transport-backed plane that is how an unreachable server
    /// surfaces (the infallible data-path ops panic once retries are
    /// exhausted), so a `ps-worker` catches it, waits out the respawn via
    /// [`crate::ServerSupervisor::heal_respawned`], restores its segment
    /// checkpoint, and re-runs the segment.
    pub fn run_segment(
        &mut self,
        protocol: SyncProtocol,
        steps: u64,
    ) -> Result<SegmentReport, PsError> {
        // An explicit protocol argument is an implicit switch: record it so
        // `Trainer::protocol()` always names the discipline that last ran.
        self.protocol = protocol;
        if steps == 0 {
            return Ok(SegmentReport {
                protocol,
                steps: 0,
                wall_time: Duration::ZERO,
                worker_profiles: vec![WorkerProfile::default(); self.cfg.workers],
                staleness: StalenessHistogram::new(),
                shard_staleness: ShardStaleness::new(self.plane.shard_count()),
                server_shard_staleness: ServerShardStaleness::new(
                    self.plane.server_count(),
                    self.plane.shard_count(),
                ),
                sync_rounds: 0,
                transport: {
                    let s = self.plane.transport_stats();
                    s.delta(&s)
                },
                finite: true,
                final_loss: 0.0,
            });
        }
        let active = self.cfg.active_workers();
        if active.is_empty() {
            return Err(PsError::InvalidConfig("all workers excluded".into()));
        }

        let ctx = WorkerCtx {
            port: self.plane.port(),
            diverged_at: Arc::new(AtomicU64::new(u64::MAX)),
        };

        let rounds_before = self.plane.sync_rounds();
        let wire_before = self.plane.transport_stats();
        let start = Instant::now();
        let results: Vec<WorkerResult> = match protocol {
            SyncProtocol::Bsp => self.run_bsp(&ctx, &active, steps)?,
            SyncProtocol::Asp => self.run_asp(&ctx, &active, steps)?,
        };
        let wall_time = start.elapsed();

        // Relaxed: the worker threads were joined inside run_bsp/run_asp's
        // thread scope, and joining synchronizes-with everything they wrote.
        let diverged = ctx.diverged_at.load(Ordering::Relaxed);
        if diverged != u64::MAX {
            return Err(PsError::Diverged { step: diverged });
        }
        let finite = self.plane.is_finite();
        if !finite {
            return Err(PsError::Diverged {
                step: self.global_step + steps,
            });
        }

        let mut profiles = vec![WorkerProfile::default(); self.cfg.workers];
        let mut staleness = StalenessHistogram::new();
        let mut server_shard_staleness =
            ServerShardStaleness::new(self.plane.server_count(), self.plane.shard_count());
        let mut tail_losses = Vec::new();
        for (worker, profile, hist, shard_hist) in results {
            staleness.merge(&hist);
            server_shard_staleness.merge(&shard_hist);
            tail_losses.extend(profile.losses.iter().rev().take(4).copied());
            profiles[worker] = profile;
        }
        let final_loss = if tail_losses.is_empty() {
            0.0
        } else {
            tail_losses.iter().sum::<f32>() / tail_losses.len() as f32
        };

        self.global_step += steps;
        Ok(SegmentReport {
            protocol,
            steps,
            wall_time,
            worker_profiles: profiles,
            staleness,
            shard_staleness: server_shard_staleness.flatten(),
            server_shard_staleness,
            sync_rounds: self.plane.sync_rounds() - rounds_before,
            transport: self.plane.transport_stats().delta(&wire_before),
            finite,
            final_loss,
        })
    }

    /// BSP: lock-step rounds; gradients averaged at a striped barrier, one
    /// logical update per round.
    ///
    /// Aggregation is striped per store shard: workers walk the stripes
    /// starting at their own offset, so at any instant different workers
    /// are summing into different stripes under different locks. The last
    /// contributor to a stripe averages and applies it immediately; the
    /// worker that applies the final outstanding stripe completes the push
    /// and advances the round gate, which the other workers are spinning,
    /// yielding or parked on (see [`crate::gate`]). Numerically this is the
    /// same sum-then-average-then-apply as the old single-mutex accumulator
    /// (per-stripe sums commute across workers exactly like the global sum
    /// did), so BSP keeps its bit-for-bit agreement with sequential
    /// large-batch SGD up to f32 summation order.
    fn run_bsp(
        &self,
        ctx: &WorkerCtx,
        active: &[usize],
        rounds: u64,
    ) -> Result<Vec<WorkerResult>, PsError> {
        let n_active = active.len();
        let n_stripes = self.plane.shard_count();
        let n_servers = self.plane.server_count();
        let stripes = (0..n_stripes)
            .map(|i| {
                let (_, len) = ctx.port.shard_range(i);
                Mutex::new(Stripe {
                    accum: vec![0.0; len],
                    count: 0,
                })
            })
            .collect();
        let shared = Arc::new(BspShared {
            stripes,
            gate: RoundGate::new(),
            applied: AtomicUsize::new(0),
        });
        let cfg = &self.cfg;
        let base_step = self.global_step;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_active);
            for (rank, &worker) in active.iter().enumerate() {
                let shared = Arc::clone(&shared);
                let port = ctx.port.clone();
                let diverged_at = Arc::clone(&ctx.diverged_at);
                let shard = &self.shards[worker];
                let mut model = self.template.clone();
                let delay = cfg.straggler_delay[worker];
                let batch = cfg.per_worker_batch;
                let (lr, mu) = (cfg.learning_rate, cfg.momentum);
                let seed = cfg.seed;
                let threshold = cfg.divergence_loss_threshold;
                let sparse_enabled = cfg.sparse_push;
                let telemetry = self.telemetry.clone();
                handles.push(scope.spawn(move || {
                    let mut profile = WorkerProfile::default();
                    let mut hist = StalenessHistogram::new();
                    let mut shard_hist = ServerShardStaleness::new(n_servers, n_stripes);
                    let mut buf = port.new_buffer();
                    let mut scratch = StepScratch::default();
                    let mut wt = telemetry.as_ref().map(WorkerTelemetry::new);
                    // First-step start, for the wall-clock throughput span
                    // (barrier waits included — the busy-only rate hides
                    // them; see `WorkerProfile::wall_steps_per_sec`).
                    let mut wall_start: Option<Instant> = None;
                    let gate = &shared.gate;
                    // Panics here are a dying data plane (the infallible
                    // data-path ops panic once wire retries are exhausted,
                    // e.g. against a SIGKILLed `ps-serve`). Catch them so
                    // the segment returns `WorkerPanicked` instead of
                    // tearing the process down — and abort the gate so
                    // peers waiting at the round barrier wake up and exit
                    // instead of waiting for a round that will never
                    // complete.
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        for r in 0..rounds {
                            if gate.is_aborted() {
                                break;
                            }
                            let t0 = Instant::now();
                            wall_start.get_or_insert(t0);
                            let step_ns = wt.as_ref().map_or(0, |w| w.now_ns());
                            // The batch does not depend on the pull, so it
                            // is drawn first and says what to pull.
                            let mut rng = step_rng(seed, worker, base_step + r);
                            let (x, y) = shard.sample_batch(batch, &mut rng);
                            let version = pull_for_batch(
                                &port,
                                &mut model,
                                &x,
                                sparse_enabled,
                                &mut buf,
                                &mut scratch,
                            );
                            if let Some(d) = delay {
                                std::thread::sleep(d);
                            }
                            let (loss, grad) = model.loss_and_grad(&x, &y);
                            let compute_time = t0.elapsed();
                            if !loss.is_finite() || loss > threshold {
                                // Relaxed: read back only after thread join.
                                diverged_at.store(base_step + r, Ordering::Relaxed);
                                gate.abort();
                                break;
                            }
                            profile.step_durations.push(compute_time);
                            profile.losses.push(loss);
                            hist.record(0); // BSP gradients are fresh by construction

                            // Striped barrier: contribute each stripe, starting
                            // at this worker's offset so concurrent workers sum
                            // into disjoint stripes. Last contributor per
                            // stripe averages and applies it.
                            for k in 0..n_stripes {
                                let i = (rank + k) % n_stripes;
                                let (offset, len) = port.shard_range(i);
                                let mut stripe = shared.stripes[i].lock();
                                let state = &mut *stripe;
                                for (a, g) in
                                    state.accum.iter_mut().zip(&grad[offset..offset + len])
                                {
                                    *a += g;
                                }
                                state.count += 1;
                                if state.count == n_active {
                                    let scale = 1.0 / n_active as f32;
                                    state.accum.iter_mut().for_each(|a| *a *= scale);
                                    let prev = port.apply_shard_update(i, &state.accum, lr, mu);
                                    shard_hist.record(
                                        port.owner_of(i),
                                        i,
                                        prev.saturating_sub(buf.shard_version(i)),
                                    );
                                    state.accum.iter_mut().for_each(|a| *a = 0.0);
                                    state.count = 0;
                                    drop(stripe);
                                    // AcqRel: the final applier must observe the
                                    // other appliers' increments (Acquire) and
                                    // publish its own apply before the round
                                    // advance (Release); the shard data itself
                                    // is ordered by the shard mutexes.
                                    if shared.applied.fetch_add(1, Ordering::AcqRel) + 1
                                        == n_stripes
                                    {
                                        port.complete_push(version);
                                        // Stage-2 drain: publish this round's
                                        // applies to every server's committed
                                        // view before any worker can pull the
                                        // next round (everyone else is held
                                        // at the gate below, so the commit
                                        // cannot race a pull).
                                        port.end_round();
                                        // Relaxed: the reset is published to
                                        // the next round's appliers by the
                                        // gate's epoch — Release in `advance`,
                                        // Acquire in the `wait_until` they must
                                        // pass through first.
                                        shared.applied.store(0, Ordering::Relaxed);
                                        gate.advance();
                                    }
                                }
                            }

                            // The step span closes once this worker's
                            // contributions (and any stripes it applied) are
                            // in — the barrier wait is traced separately.
                            if let Some(w) = wt.as_mut() {
                                w.step(worker, base_step + r, step_ns, compute_time);
                            }

                            // Barrier wait: every pull of round r completes
                            // before any stripe of round r is applied (a stripe
                            // needs all contributions, and contributing implies
                            // having pulled), so BSP pulls are never torn.
                            // The span covers the whole wait — spin, yield
                            // and park — so the barrier-wait fraction the
                            // controller promotes on keeps its meaning.
                            let wait_ns = wt.as_ref().map_or(0, |w| w.now_ns());
                            let parked = gate.wait_until(|| gate.epoch() > r);
                            if let Some(w) = wt.as_mut() {
                                w.barrier_wait(worker, wait_ns, parked);
                            }
                            // The round is only delivered once the barrier
                            // releases, so the wall span includes the wait.
                            if let Some(ws) = wall_start {
                                profile.wall_time = ws.elapsed();
                            }
                        }
                    }));
                    if let Some(w) = wt.as_mut() {
                        w.flush();
                    }
                    match run {
                        Ok(()) => Ok((worker, profile, hist, shard_hist)),
                        Err(_payload) => {
                            gate.abort();
                            Err(worker)
                        }
                    }
                }));
            }
            collect_worker_results(handles)
        })
    }

    /// ASP: workers claim global steps and apply updates immediately.
    ///
    /// The hot path is allocation-free in the steady state: each worker
    /// reuses one [`PullBuffer`] for every pull and pushes its gradient
    /// shard-by-shard, measuring per-shard staleness against the clocks
    /// captured at pull time instead of sweeping all shard locks inside one
    /// monolithic `apply_update` call.
    fn run_asp(
        &self,
        ctx: &WorkerCtx,
        active: &[usize],
        steps: u64,
    ) -> Result<Vec<WorkerResult>, PsError> {
        let claimed = Arc::new(AtomicU64::new(0));
        let abort = Arc::new(AtomicBool::new(false));
        let cfg = &self.cfg;
        let base_step = self.global_step;
        let n_shards = self.plane.shard_count();
        let n_servers = self.plane.server_count();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(active.len());
            for &worker in active {
                let port = ctx.port.clone();
                let abort = Arc::clone(&abort);
                let diverged_at = Arc::clone(&ctx.diverged_at);
                let claimed = Arc::clone(&claimed);
                let shard = &self.shards[worker];
                let mut model = self.template.clone();
                let delay = cfg.straggler_delay[worker];
                let batch = cfg.per_worker_batch;
                let (lr, mu) = (cfg.learning_rate, cfg.momentum);
                let seed = cfg.seed;
                let threshold = cfg.divergence_loss_threshold;
                let sparse_enabled = cfg.sparse_push;
                let telemetry = self.telemetry.clone();
                handles.push(scope.spawn(move || {
                    let mut profile = WorkerProfile::default();
                    let mut hist = StalenessHistogram::new();
                    let mut shard_hist = ServerShardStaleness::new(n_servers, n_shards);
                    let mut buf = port.new_buffer();
                    let mut scratch = StepScratch::default();
                    let mut wt = telemetry.as_ref().map(WorkerTelemetry::new);
                    // First-step start for the wall-clock throughput span.
                    // ASP has no barrier, so wall and busy time only differ
                    // by straggler sleeps and scheduler preemption.
                    let mut wall_start: Option<Instant> = None;
                    // Same panic containment as the BSP loop (no barrier
                    // to release here — peers notice the abort flag at
                    // their next step claim, or panic on the same dead
                    // server themselves).
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        loop {
                            // Relaxed: latest-wins flag; diverged_at is read
                            // after thread join, which synchronizes.
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            // Relaxed: a pure ticket counter — atomicity alone
                            // guarantees each step id is claimed exactly once;
                            // no other data is published through it.
                            let s = claimed.fetch_add(1, Ordering::Relaxed);
                            if s >= steps {
                                break;
                            }
                            let t0 = Instant::now();
                            wall_start.get_or_insert(t0);
                            let step_ns = wt.as_ref().map_or(0, |w| w.now_ns());
                            // Batch first: it says what the pull must fetch.
                            let mut rng = step_rng(seed, worker, base_step + s);
                            let (x, y) = shard.sample_batch(batch, &mut rng);
                            pull_for_batch(
                                &port,
                                &mut model,
                                &x,
                                sparse_enabled,
                                &mut buf,
                                &mut scratch,
                            );
                            if let Some(d) = delay {
                                std::thread::sleep(d);
                            }
                            let (loss, grad) = model.loss_and_grad(&x, &y);
                            if !loss.is_finite() || loss > threshold {
                                // Relaxed: read back only after thread join.
                                diverged_at.store(base_step + s, Ordering::Relaxed);
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                            // Shard-granular push: per-shard staleness comes
                            // from each shard clock's pre-apply value versus
                            // the clock captured at pull time. Sparse-input
                            // models ship only the rows the step pulled.
                            let staleness = push_maybe_sparse(
                                &port,
                                &grad,
                                &mut scratch,
                                &buf,
                                lr,
                                mu,
                                &mut shard_hist,
                            );
                            let step_time = t0.elapsed();
                            profile.step_durations.push(step_time);
                            profile.losses.push(loss);
                            hist.record(staleness);
                            if let Some(ws) = wall_start {
                                profile.wall_time = ws.elapsed();
                            }
                            if let Some(w) = wt.as_mut() {
                                w.staleness(staleness);
                                w.step(worker, base_step + s, step_ns, step_time);
                            }
                        }
                    }));
                    if let Some(w) = wt.as_mut() {
                        w.flush();
                    }
                    match run {
                        Ok(()) => Ok((worker, profile, hist, shard_hist)),
                        Err(_payload) => {
                            abort.store(true, Ordering::Relaxed);
                            Err(worker)
                        }
                    }
                }));
            }
            collect_worker_results(handles)
        })
    }
}

/// Joins a segment's worker threads, separating clean results from caught
/// panics: the first dead worker (lowest join order) wins and the segment
/// fails with [`PsError::WorkerPanicked`]. The threads caught their own
/// unwinds, so `join` itself cannot fail; the panic payload was already
/// printed to stderr by the default hook when the thread panicked.
pub(crate) fn collect_worker_results(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<WorkerResult, usize>>>,
) -> Result<Vec<WorkerResult>, PsError> {
    let mut out = Vec::with_capacity(handles.len());
    let mut died: Option<usize> = None;
    for h in handles {
        match h.join().expect("worker threads catch their own panics") {
            Ok(r) => out.push(r),
            Err(worker) => died = died.or(Some(worker)),
        }
    }
    match died {
        None => Ok(out),
        Some(worker) => Err(PsError::WorkerPanicked { worker }),
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
        let mut params = t.plane.snapshot_params();
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
        assert!((r.staleness.fresh_fraction() - 1.0).abs() < 1e-12);
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
        let mut t = small_trainer(4, 2);
        let r = t.run_segment(SyncProtocol::Asp, 200).unwrap();
        assert_eq!(r.steps, 200);
        assert_eq!(t.store().unwrap().version(), 200);
        let total: usize = r.worker_profiles.iter().map(|p| p.steps()).sum();
        assert_eq!(total, 200);
        // Real concurrency produces some stale pushes with 4 workers.
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
    fn bsp_equals_sequential_large_batch_sgd() {
        // BSP with n workers of batch b must match 1-thread SGD over the
        // union batch (gradient of mean = mean of per-shard gradients).
        let mut t = small_trainer(3, 7);
        let rounds = 10;
        let params = sequential_sgd(&t, 7, rounds);
        t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
        let distributed = t.store().unwrap().snapshot_params();
        let max_diff = max_abs_diff(&distributed, &params);
        assert!(
            max_diff < 1e-4,
            "BSP diverged from sequential SGD by {max_diff}"
        );
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
        let snap = t.telemetry().unwrap().metrics.snapshot();
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
    fn striped_bsp_matches_sequential_with_odd_shard_count() {
        // Stripes ≠ workers stresses the striped barrier: 3 workers over 7
        // stripes must still reproduce sequential large-batch SGD, with
        // different workers applying different stripes of the same round.
        let workers = 3;
        let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 7);
        let (train, test) = data.split(0.25);
        let mut cfg = TrainerConfig::new(workers, 8, 0.05, 0.9).with_seed(7);
        cfg.shards = 7;
        let mut t = Trainer::new(Network::mlp(6, &[16], 4, 7), train, test, cfg);
        assert_eq!(t.store().unwrap().shard_count(), 7);
        let rounds = 10;
        let params = sequential_sgd(&t, 7, rounds);
        t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
        let distributed = t.store().unwrap().snapshot_params();
        let max_diff = max_abs_diff(&distributed, &params);
        assert!(
            max_diff < 1e-4,
            "striped BSP diverged from sequential SGD by {max_diff}"
        );
    }

    #[test]
    fn multi_server_bsp_equals_sequential_large_batch_sgd() {
        // The ISSUE-prescribed shape: 2 servers × 7 shards × 3 workers.
        // Routing stripes to per-server live stores and draining stage 2 at
        // every barrier round must leave BSP numerically identical to
        // sequential large-batch SGD.
        let workers = 3;
        let data = Dataset::gaussian_blobs(4, 60, 6, 0.35, 7);
        let (train, test) = data.split(0.25);
        let mut cfg = TrainerConfig::new(workers, 8, 0.05, 0.9).with_seed(7);
        cfg.shards = 7;
        cfg.topology = crate::config::ServerTopology::new(2, 4);
        let mut t = Trainer::new(Network::mlp(6, &[16], 4, 7), train, test, cfg);
        assert_eq!(t.server_count(), 2);
        assert!(t.router().is_some());
        let rounds = 10;
        let params = sequential_sgd(&t, 7, rounds);
        let r = t.run_segment(SyncProtocol::Bsp, rounds).unwrap();
        let distributed = t.plane.snapshot_params();
        // Every barrier round drains stage 2, and BSP stays fresh per shard
        // on every server.
        assert_eq!(r.sync_rounds, rounds);
        assert_eq!(r.shard_staleness.max(), Some(0));
        assert_eq!(r.server_shard_staleness.server_count(), 2);
        assert_eq!(t.push_count(), rounds);
        let max_diff = max_abs_diff(&distributed, &params);
        assert!(
            max_diff < 1e-4,
            "multi-server BSP diverged from sequential SGD by {max_diff}"
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
        // Rounds fire on the `sync_every` schedule; contended rounds may
        // batch (one round can cover several due periods), never exceed it.
        assert!(r.sync_rounds >= 1);
        assert!(r.sync_rounds <= steps / 2);
        // Every shard's observations sit under its owning server, and only
        // there.
        let router = t.router().expect("multi-server plane");
        assert_eq!(r.server_shard_staleness.server_count(), 2);
        for g in 0..router.shard_count() {
            let owner = router.owner_of(g);
            assert_eq!(
                r.server_shard_staleness.server(owner).shard(g).total(),
                steps,
                "shard {g} observations missing on owner {owner}"
            );
            assert_eq!(
                r.server_shard_staleness.server(1 - owner).shard(g).total(),
                0,
                "shard {g} observed on a non-owner"
            );
        }
        assert_eq!(
            r.shard_staleness.total(),
            steps * router.shard_count() as u64
        );
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
        assert!(t.router().is_none());
        assert!(t.store().is_ok(), "single-server accessor works");
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
        match t.store() {
            Err(PsError::NoSingleStore { servers }) => assert_eq!(servers, 2),
            other => panic!("expected NoSingleStore, got {other:?}"),
        }
        // The error names the remedies, and the message is actionable.
        let msg = t.store().unwrap_err().to_string();
        assert!(msg.contains("2-server"), "{msg}");
        assert!(msg.contains("snapshot"), "{msg}");
    }

    #[test]
    fn topology_is_fixed_after_construction() {
        let mut t = small_trainer(2, 16);
        let mut cfg = t.config().clone();
        cfg.topology = crate::config::ServerTopology::new(2, 1);
        assert!(matches!(t.set_config(cfg), Err(PsError::InvalidConfig(_))));
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
    }

    #[test]
    fn divergence_detected_and_reported() {
        let data = Dataset::gaussian_blobs(3, 30, 4, 0.3, 9);
        let (train, test) = data.split(0.2);
        // Absurd learning rate forces a loss spike past the divergence
        // threshold (a dead-ReLU network can stabilize afterwards, so the
        // threshold check is the reliable detector — same as the paper's
        // "divergence errors").
        let mut cfg = TrainerConfig::new(2, 8, 500.0, 0.9).with_seed(9);
        cfg.divergence_loss_threshold = 4.0;
        let mut t = Trainer::new(Network::mlp(4, &[12], 3, 9), train, test, cfg);
        let mut diverged = false;
        for _ in 0..20 {
            match t.run_segment(SyncProtocol::Asp, 50) {
                Err(PsError::Diverged { .. }) => {
                    diverged = true;
                    break;
                }
                Ok(_) => continue,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(diverged, "expected divergence with lr=500");
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
        let asp_steps = 40;
        let bsp_rounds = 10;
        t.run_segment(SyncProtocol::Asp, asp_steps).unwrap();
        t.run_segment(SyncProtocol::Bsp, bsp_rounds).unwrap();
        let bus = t.telemetry().expect("telemetry defaults on");
        // Every completed step incremented the counter and recorded a
        // duration: 40 ASP steps plus one step per worker per BSP round.
        let snap = bus.metrics.snapshot();
        let expected = asp_steps + 3 * bsp_rounds;
        assert_eq!(snap.counters.get("engine.steps"), Some(&expected));
        let step_hist = snap.histograms.get("engine.step_ns").unwrap();
        assert_eq!(step_hist.count, expected);
        assert!(step_hist.sum > 0);
        // ASP staleness observations: one per step.
        assert_eq!(
            snap.histograms.get("engine.staleness").unwrap().count,
            asp_steps
        );
        // BSP parked each worker at the barrier each round.
        assert_eq!(
            snap.histograms.get("engine.barrier_wait_ns").unwrap().count,
            3 * bsp_rounds
        );
        // The trace carries matching step and barrier-wait spans.
        let counts = bus.trace.counts_by_name();
        assert_eq!(counts.get("step"), Some(&expected));
        assert_eq!(counts.get("barrier_wait"), Some(&(3 * bsp_rounds)));
    }

    #[test]
    fn telemetry_off_means_no_bus() {
        let data = Dataset::gaussian_blobs(3, 40, 5, 0.3, 22);
        let (train, test) = data.split(0.25);
        let cfg = TrainerConfig::new(2, 8, 0.05, 0.9)
            .with_seed(22)
            .with_telemetry(false);
        let mut t = Trainer::new(Network::mlp(5, &[8], 3, 22), train, test, cfg);
        assert!(t.telemetry().is_none());
        // The loops still run — telemetry is strictly optional.
        let r = t.run_segment(SyncProtocol::Asp, 10).unwrap();
        assert_eq!(r.steps, 10);
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
        let wall_rate = fast.wall_steps_per_sec().expect("wall span recorded");
        assert!(fast.steps_per_sec() > 2.0 * wall_rate);
    }
}
