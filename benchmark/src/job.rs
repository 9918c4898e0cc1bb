//! One operation of the load model: a training job, timed from outside.
//!
//! A job builds model and data from its seed, constructs the `Trainer`,
//! runs the workload's step budget as [`SEGMENTS`] equal segments and
//! probes `Trainer::evaluate()` after each. Job wall is the sum of the
//! segment calls (for the controller workload that includes scrape, decide
//! and switch); construction and probes are excluded. The same code runs
//! traced and untraced: the recorder and the per-layer totals do nothing
//! when the recorder is disabled.

use std::time::{Duration, Instant};

use sync_switch::ps::transport::wire::op;
use sync_switch::ps::{
    ControllerConfig, SegmentReport, SyncController, Trainer, TransportKind, WireOp,
};
use sync_switch::workloads::SyncProtocol;

use crate::spans::Recorder;
use crate::stats::process_cpu_s;
use crate::workloads::{Drive, Workload, SEGMENTS, SHARDS};

/// The numbers of one finished job, as the clock read them.
#[derive(Debug, Clone, Copy)]
pub struct JobStats {
    /// Model and data build plus `Trainer::new`, seconds.
    pub setup_s: f64,
    pub wall_s: f64,
    pub steps: u64,
    /// Job wall at which probe accuracy, joined by straight lines from the
    /// untrained model's, first reaches the workload's target; the full job
    /// wall when `censored` or when the workload has no target. (Taking the
    /// wall of the first probe at or above the target instead makes a median
    /// over jobs jump by a whole segment when the crossing sits near a
    /// probe.)
    pub tta_s: f64,
    pub censored: bool,
    pub accuracy: f64,
    pub final_loss: f64,
    /// Process CPU (user + system) from the job's first line to its last
    /// probe, seconds.
    pub cpu_s: f64,
}

impl JobStats {
    pub fn steps_per_s(&self) -> f64 {
        self.steps as f64 / self.wall_s
    }

    pub fn cpu_ms_per_kstep(&self) -> f64 {
        self.cpu_s * 1e3 / (self.steps as f64 / 1e3)
    }
}

/// What one finished job hands back.
pub struct JobOutcome {
    pub stats: JobStats,
    /// The job's trainer, still live, for end-state checks and probes.
    pub trainer: Trainer,
}

/// Sums over the traced jobs of what the program publishes about itself:
/// `SegmentReport`s, the trainer's metrics registry and the scraped server
/// statistics. The `T` rows of the per-layer table come from here.
#[derive(Default)]
pub struct LayerTotals {
    pub jobs: u64,
    pub steps: u64,
    pub bsp_steps: u64,
    /// Sum of `SegmentReport::wall_time`.
    pub segment_wall: Duration,
    /// Sum of every worker's `step_durations`.
    pub busy: Duration,
    /// Every worker's `step_durations`, microseconds.
    pub step_busy_us: Vec<f64>,
    pub barrier_wait_ns: u64,
    pub barrier_waits: u64,
    pub segment_overhead_us: Vec<f64>,
    pub controller_overhead_us: Vec<f64>,
    pub staleness_sum: f64,
    pub staleness_pushes: u64,
    pub staleness_max: u64,
    pub sync_rounds: u64,
    pub wire_push: WireOp,
    pub wire_pull: WireOp,
    pub wire_sync: WireOp,
    pub wire_retries: u64,
    pub wire_reconnects: u64,
    pub server_requests: u64,
    pub server_apply_ns: u64,
    pub server_applies: u64,
    pub server_dedup_hits: u64,
    pub switches: u64,
    pub watchdog_trips: u64,
    pub trace_dropped: u64,
    pub setup_ms: Vec<f64>,
}

fn add_wire(total: &mut WireOp, part: &WireOp) {
    total.ops += part.ops;
    total.wire_ns += part.wire_ns;
    total.bytes_out += part.bytes_out;
    total.bytes_in += part.bytes_in;
}

impl LayerTotals {
    /// Folds one segment's report in and annotates the segment's span with
    /// the numbers that describe it. `call` is the benchmark's own timing of
    /// the segment call.
    fn absorb_segment(
        &mut self,
        report: &SegmentReport,
        call: Duration,
        through_controller: bool,
        rec: &mut Recorder,
        span: usize,
    ) {
        self.steps += report.steps;
        if report.protocol == SyncProtocol::Bsp {
            self.bsp_steps += report.steps;
        }
        self.segment_wall += report.wall_time;
        let mut busy = Duration::ZERO;
        let mut slowest_worker = Duration::ZERO;
        for p in &report.worker_profiles {
            busy += p.step_durations.iter().sum::<Duration>();
            slowest_worker = slowest_worker.max(p.wall_time);
            self.step_busy_us
                .extend(p.step_durations.iter().map(|d| d.as_secs_f64() * 1e6));
        }
        self.busy += busy;
        // Spawn, join and the finiteness check: what the segment costs
        // beyond its slowest worker. Through the controller the finiteness
        // check lands in the controller's overhead instead.
        let engine_wall = if through_controller {
            report.wall_time
        } else {
            call
        };
        self.segment_overhead_us
            .push(engine_wall.saturating_sub(slowest_worker).as_secs_f64() * 1e6);
        if through_controller {
            self.controller_overhead_us
                .push(call.saturating_sub(report.wall_time).as_secs_f64() * 1e6);
        }
        let pushes = report.staleness.total();
        self.staleness_sum += report.staleness.mean() * pushes as f64;
        self.staleness_pushes += pushes;
        self.staleness_max = self.staleness_max.max(report.staleness.max().unwrap_or(0));
        self.sync_rounds += report.sync_rounds;
        add_wire(&mut self.wire_push, &report.transport.push);
        add_wire(&mut self.wire_pull, &report.transport.pull);
        add_wire(&mut self.wire_sync, &report.transport.sync);

        rec.annotate(span, "steps", report.steps as f64);
        rec.annotate(
            span,
            "bsp",
            f64::from(u8::from(report.protocol == SyncProtocol::Bsp)),
        );
        rec.annotate(span, "busy_us", busy.as_secs_f64() * 1e6);
        rec.annotate(
            span,
            "wire_push_us",
            report.transport.push.wire_ns as f64 / 1e3,
        );
        rec.annotate(
            span,
            "wire_pull_us",
            report.transport.pull.wire_ns as f64 / 1e3,
        );
        rec.annotate(
            span,
            "wire_sync_us",
            report.transport.sync.wire_ns as f64 / 1e3,
        );
        rec.annotate(span, "wire_bytes", report.transport.total_bytes() as f64);
        rec.annotate(span, "sync_rounds", report.sync_rounds as f64);
        rec.annotate(span, "staleness_mean", report.staleness.mean());
    }
}

/// Runs one job of `workload` with `seed`. `steps` is the job's step budget
/// (the workload's own, or a tenth of it in smoke mode); `workers` is
/// `WORKERS` except for the single-worker baseline.
///
/// # Errors
///
/// Returns why the job counts as failed: a `PsError`, a step count that is
/// not the requested one, a non-finite end state, or a correctness check
/// that does not hold.
pub fn run_job(
    workload: &Workload,
    seed: u64,
    steps: u64,
    workers: usize,
    rec: &mut Recorder,
    totals: &mut LayerTotals,
) -> Result<JobOutcome, String> {
    rec.set_job(seed);
    let cpu_before = process_cpu_s();
    let job_span = rec.open("job");

    let t_setup = Instant::now();
    let (model, train, test, hyper) = rec.time("build", || workload.build(seed));
    let cfg = workload.config(&hyper, workers, seed);
    let mut trainer = rec.time("trainer_new", || Trainer::new(model, train, test, cfg));
    let (protocol, mut controller) = match workload.drive {
        Drive::Pure(protocol) => (protocol, None),
        Drive::Controller => (
            SyncProtocol::Bsp,
            Some(SyncController::new(ControllerConfig::default())),
        ),
    };
    if controller.is_some() {
        // The controller runs whatever protocol the trainer records; a
        // zero-step segment records the starting one without training.
        trainer
            .run_segment(protocol, 0)
            .map_err(|e| e.to_string())?;
    }
    let setup = t_setup.elapsed();

    let per_segment = steps / SEGMENTS;
    let mut wall = Duration::ZERO;
    let mut done = 0u64;
    let mut tta = None;
    let mut accuracy = probe(&trainer, rec);
    for _ in 0..SEGMENTS {
        let span = rec.open("segment");
        let t0 = Instant::now();
        let report = match &mut controller {
            Some(c) => c.run_segment(&mut trainer, per_segment),
            None => trainer.run_segment(protocol, per_segment),
        }
        .map_err(|e| e.to_string())?;
        let call = t0.elapsed();
        rec.close(span);
        wall += call;
        done += report.steps;
        if rec.enabled() {
            totals.absorb_segment(&report, call, controller.is_some(), rec, span);
        }
        let (before, reached) = (accuracy, wall.as_secs_f64());
        accuracy = probe(&trainer, rec);
        if let (None, Some(target)) = (tta, workload.acc_target) {
            if accuracy >= target {
                // Where in this segment the line from the last probe crosses.
                let share = if before < target {
                    (target - before) / (accuracy - before)
                } else {
                    1.0
                };
                tta = Some(reached - (1.0 - share) * call.as_secs_f64());
            }
        }
    }
    rec.close(job_span);

    let outcome = JobOutcome {
        stats: JobStats {
            setup_s: setup.as_secs_f64(),
            wall_s: wall.as_secs_f64(),
            steps: done,
            tta_s: tta.unwrap_or(wall.as_secs_f64()),
            censored: tta.is_none() && workload.acc_target.is_some(),
            accuracy,
            final_loss: f64::from(trainer.training_loss()),
            cpu_s: process_cpu_s() - cpu_before,
        },
        trainer,
    };
    check_job(
        workload,
        &outcome,
        per_segment * SEGMENTS,
        controller.as_ref(),
    )?;
    if rec.enabled() {
        totals.jobs += 1;
        totals.setup_ms.push(outcome.stats.setup_s * 1e3);
        absorb_end_state(totals, &outcome.trainer, controller.as_ref());
    }
    Ok(outcome)
}

/// Test accuracy of the trainer's current parameters, in a `probe` span that
/// carries it.
fn probe(trainer: &Trainer, rec: &mut Recorder) -> f64 {
    let span = rec.open("probe");
    let accuracy = trainer.evaluate();
    rec.close(span);
    rec.annotate(span, "accuracy", accuracy);
    accuracy
}

/// The per-job correctness checks.
fn check_job(
    workload: &Workload,
    job: &JobOutcome,
    requested: u64,
    controller: Option<&SyncController>,
) -> Result<(), String> {
    let trainer = &job.trainer;
    // A watchdog rollback under the controller re-runs steps, so only there
    // may the trainer's own counter end below the steps that ran.
    let rolled_back = controller.is_some() && trainer.global_step() < requested;
    let stats = &job.stats;
    if stats.steps != requested || (trainer.global_step() != requested && !rolled_back) {
        return Err(format!(
            "completed {} steps (trainer at {}), requested {requested}",
            stats.steps,
            trainer.global_step()
        ));
    }
    if !trainer.check_finite() || !stats.final_loss.is_finite() {
        return Err("non-finite end state".into());
    }
    if stats.accuracy < workload.acc_floor {
        return Err(format!(
            "test accuracy {:.4} below the floor {}",
            stats.accuracy, workload.acc_floor
        ));
    }
    let wire = trainer.transport_stats();
    if wire.retries != 0 || wire.reconnects != 0 {
        return Err(format!(
            "wire.retries {} and wire.reconnects {} must both be 0",
            wire.retries, wire.reconnects
        ));
    }
    if let Some(router) = trainer.net_router() {
        let mut pushes = 0;
        let mut dedup_hits = 0;
        for (s, stats) in router.scrape_all_stats().into_iter().enumerate() {
            let stats = stats.ok_or_else(|| format!("server {s} did not answer a stats scrape"))?;
            pushes +=
                stats.requests_for(op::PUSH_SHARD) + stats.requests_for(op::PUSH_SHARD_SPARSE);
            dedup_hits += stats.dedup_hits;
        }
        if dedup_hits != 0 {
            return Err(format!("server.dedup_hits {dedup_hits} must be 0"));
        }
        // Exactly-once: every step pushed every shard once, and nothing was
        // re-sent or dropped on the way.
        let asp_tcp = workload.transport == TransportKind::Tcp
            && workload.drive == Drive::Pure(SyncProtocol::Asp);
        if asp_tcp && pushes != requested * SHARDS as u64 {
            return Err(format!(
                "servers saw {pushes} shard pushes for {requested} steps x {SHARDS} shards"
            ));
        }
    }
    if let Some(c) = controller {
        let reasoned = c
            .decisions()
            .iter()
            .any(|d| d.switched() && !d.reason.is_empty());
        if !reasoned {
            return Err("the controller recorded no reasoned protocol switch".into());
        }
    }
    Ok(())
}

/// What the program publishes once per job rather than per segment.
fn absorb_end_state(
    totals: &mut LayerTotals,
    trainer: &Trainer,
    controller: Option<&SyncController>,
) {
    if let Some(bus) = trainer.telemetry() {
        if let Some(h) = bus
            .metrics
            .snapshot()
            .histograms
            .get("engine.barrier_wait_ns")
        {
            totals.barrier_wait_ns += h.sum;
            totals.barrier_waits += h.count;
        }
        totals.trace_dropped += bus.trace.dropped();
    }
    let wire = trainer.transport_stats();
    totals.wire_retries += wire.retries;
    totals.wire_reconnects += wire.reconnects;
    if let Some(router) = trainer.net_router() {
        for stats in router.scrape_all_stats().into_iter().flatten() {
            totals.server_requests += [
                op::PUSH_SHARD,
                op::PUSH_SHARD_SPARSE,
                op::PULL_COMMITTED,
                op::SYNC_ROUND,
                op::DRAIN,
            ]
            .iter()
            .map(|&o| stats.requests_for(o))
            .sum::<u64>();
            totals.server_apply_ns += stats.apply_ns.sum;
            totals.server_applies += stats.apply_ns.count;
            totals.server_dedup_hits += stats.dedup_hits;
        }
    }
    if let Some(c) = controller {
        totals.switches += c.decisions().iter().filter(|d| d.switched()).count() as u64;
        totals.watchdog_trips += u64::from(c.watchdog_trips());
    }
}

/// The single-worker baseline: the same task with one worker on a single
/// in-process store, steps per second of one short job.
pub fn single_worker_steps_per_s(
    workload: &Workload,
    seed: u64,
    steps: u64,
) -> Result<f64, String> {
    let plain = Workload {
        transport: TransportKind::InProcess,
        servers: 1,
        sync_every: 1,
        drive: Drive::Pure(SyncProtocol::Asp),
        acc_target: None,
        acc_floor: 0.0,
        ..*workload
    };
    let job = run_job(
        &plain,
        seed,
        steps,
        1,
        &mut Recorder::disabled(),
        &mut LayerTotals::default(),
    )?;
    Ok(job.stats.steps_per_s())
}
