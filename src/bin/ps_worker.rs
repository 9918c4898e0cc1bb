//! `ps-worker` — one training-client process of a real Sync-Switch
//! cluster.
//!
//! Reads the same [`ClusterSpec`] JSON file as the `ps-serve` tier, builds
//! the seeded workload, dials every server, validates the tier layout with
//! the wire `Hello` handshake (retrying until late-starting servers bind),
//! then runs the spec's BSP/ASP/SSP segments in order over the remote tier
//! and writes a [`WorkerReport`] JSON document on exit.
//!
//! Crash recovery: the worker checkpoints its trainer at every segment
//! boundary. If a segment dies on an unreachable server — surfacing as
//! `PsError::WorkerPanicked`/`ConnLost`/`Timeout`/`RetriesExhausted` — the
//! worker waits for the cluster manager to respawn the server
//! (`ServerSupervisor::heal_respawned`, which detects the respawn by its
//! changed instance nonce), restores the whole tier, the respawned server
//! included, from the segment-start checkpoint, and re-runs the segment.
//!
//! However the run ends — report written, fatal segment error, a tier that
//! never healed — the process's trace ring is dumped next to the report
//! path as a Chrome trace: the retries, kills and last steps before a
//! failure are what a post-mortem needs.
//!
//! ```text
//! ps-worker --spec cluster.json --report worker-0.report.json
//! ```

use std::process::ExitCode;

use sync_switch::deploy::{
    ClusterSpec, ControllerDecision, SegmentOutcome, ServerStatsSummary, WorkerReport,
};
use sync_switch::ps::{NetPort, PsError, ServerSupervisor, SyncController, Trainer, WorkerPort};
use sync_switch::workloads::TrainableKind;

/// Parsed command line of `ps-worker`.
///
/// As with `ps-serve`, everything about the run — workload, segments,
/// server addresses, retry budgets — comes from the shared spec file; the
/// command line only says where the spec is and where to leave the report.
#[derive(Debug)]
struct WorkerConfig {
    /// Path of the [`ClusterSpec`] JSON file.
    spec_path: String,
    /// Path the [`WorkerReport`] JSON is written to on success.
    report_path: String,
}

impl WorkerConfig {
    /// Parses `--spec <path> --report <path>` (both required).
    fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut spec_path = None;
        let mut report_path = None;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--spec" => spec_path = Some(args.next().ok_or("--spec needs a path")?),
                "--report" => report_path = Some(args.next().ok_or("--report needs a path")?),
                other => {
                    return Err(format!(
                    "unknown argument {other:?} (usage: ps-worker --spec <file> --report <file>)"
                ))
                }
            }
        }
        Ok(WorkerConfig {
            spec_path: spec_path.ok_or("missing --spec <file>")?,
            report_path: report_path.ok_or("missing --report <file>")?,
        })
    }
}

/// Whether a segment failure means "a server became unreachable" (worth
/// waiting out a respawn and retrying) as opposed to a training failure
/// like divergence (fatal).
fn is_crash(e: &PsError) -> bool {
    matches!(
        e,
        PsError::WorkerPanicked { .. }
            | PsError::ConnLost { .. }
            | PsError::Timeout { .. }
            | PsError::RetriesExhausted { .. }
    )
}

/// Crash-retry budget per segment: each retry already waits out a full
/// respawn, so repeated exhaustion means the tier is not coming back.
const MAX_CRASH_RETRIES: u64 = 3;

/// Where this worker's Chrome trace goes: `foo.report.json` →
/// `foo.trace.json`, or `<report>.trace.json` when the report path does not
/// follow the harness's naming.
fn trace_path_for(report_path: &str) -> String {
    match report_path.strip_suffix(".report.json") {
        Some(stem) => format!("{stem}.trace.json"),
        None => format!("{report_path}.trace.json"),
    }
}

fn run() -> Result<(), String> {
    let cfg = WorkerConfig::from_args(std::env::args().skip(1))?;
    let json = std::fs::read_to_string(&cfg.spec_path)
        .map_err(|e| format!("cannot read spec {}: {e}", cfg.spec_path))?;
    let spec = ClusterSpec::from_json(&json)?;
    let kind = spec.workload_kind()?;
    let (model, train, test) = kind.build(spec.seed);
    let param_count = model.params_flat().len();
    let addrs = spec.server_addrs()?;

    let port = NetPort::connect(
        param_count,
        spec.shards,
        &addrs,
        spec.sync_every,
        spec.retry(),
    )
    .map_err(|e| format!("connect: {e}"))?;
    // Readiness handshake: keeps re-dialing servers that have not bound
    // yet, then verifies every server's identity and shard slice against
    // this spec before a single gradient moves.
    let infos = port
        .router()
        .handshake(spec.handshake_deadline())
        .map_err(|e| format!("handshake: {e}"))?;
    for info in &infos {
        println!(
            "ps-worker connected server={} shards={}+{} nonce={:#018x}",
            info.server, info.first_shard, info.shard_count, info.nonce
        );
    }

    let trainer_cfg = spec.trainer_config()?;
    let mut trainer = Trainer::with_port(model, train, test, trainer_cfg, WorkerPort::Net(port));
    let outcome = run_segments(&cfg, &spec, kind, &mut trainer);
    // However the segments ended, dump this process's trace ring next to
    // the report path for chrome://tracing.
    let bus = trainer.net_router().expect("net data plane").telemetry();
    let trace_path = trace_path_for(&cfg.report_path);
    let trace = bus.trace.chrome_trace_json(u64::from(std::process::id()));
    if let Err(e) = std::fs::write(&trace_path, trace) {
        eprintln!("ps-worker: cannot write trace {trace_path}: {e}");
    }
    outcome
}

/// Runs the spec's segments on `trainer` and writes the report.
fn run_segments(
    cfg: &WorkerConfig,
    spec: &ClusterSpec,
    kind: TrainableKind,
    trainer: &mut Trainer,
) -> Result<(), String> {
    let mut sup = ServerSupervisor::default();
    sup.record(trainer.net_router().expect("net data plane"))
        .map_err(|e| format!("recording server instances: {e}"))?;
    let mut ck = trainer.checkpoint();

    // The adaptive controller, when the spec asks for one: BSP/ASP
    // segments then run under whatever protocol the controller last
    // decided on (the first segment's protocol seeds the discipline), and
    // every decision is recorded into the report.
    let mut controller = spec
        .controller
        .as_ref()
        .map(|c| SyncController::new(c.to_config()));
    if controller.is_some() {
        if let Some(first) = spec.segments.first() {
            if let Some(p) = first.parse_protocol()? {
                // A zero-step segment records the starting protocol
                // without training a step.
                trainer
                    .run_segment(p, 0)
                    .map_err(|e| format!("seed protocol: {e}"))?;
            }
        }
    }

    let mut outcomes: Vec<SegmentOutcome> = Vec::new();
    let mut healed_total = 0u64;
    for seg in &spec.segments {
        let protocol = seg.parse_protocol()?;
        let mut crash_retries = 0u64;
        let mut healed_seg = 0u64;
        let report = loop {
            let res = match (&mut controller, protocol) {
                (Some(ctl), Some(_)) => ctl.run_segment(trainer, seg.steps),
                // An SSP segment under the controller uses the measured
                // (retuned) bound, floored by the spec's.
                (Some(ctl), None) => {
                    trainer.run_ssp_segment(seg.ssp_bound.max(ctl.ssp_bound()), seg.steps)
                }
                (None, Some(p)) => trainer.run_segment(p, seg.steps),
                (None, None) => trainer.run_ssp_segment(seg.ssp_bound, seg.steps),
            };
            match res {
                Ok(report) => break report,
                Err(e) if is_crash(&e) && crash_retries < MAX_CRASH_RETRIES => {
                    eprintln!(
                        "ps-worker: segment {:?} hit {e}; waiting for the tier to heal",
                        seg.protocol
                    );
                    let healed = sup
                        .heal_respawned(
                            trainer.net_router().expect("net data plane"),
                            spec.heal_deadline(),
                        )
                        .map_err(|e| format!("tier did not heal: {e}"))?;
                    // The respawned server holds the spec's initial state:
                    // put the whole tier back on the segment-start
                    // checkpoint so the re-run starts from one consistent
                    // state.
                    trainer.restore(&ck).map_err(|e| format!("rollback: {e}"))?;
                    trainer.drain_sync();
                    healed_seg += healed as u64;
                    crash_retries += 1;
                    eprintln!(
                        "ps-worker: healed {healed} server(s), retrying segment {:?} \
                         (attempt {})",
                        seg.protocol,
                        crash_retries + 1
                    );
                }
                Err(e) => return Err(format!("segment {:?} failed: {e}", seg.protocol)),
            }
        };
        println!(
            "ps-worker segment {:?} done: {} steps in {:?} ({:.0} steps/s), final loss {:.4}",
            seg.protocol,
            report.steps,
            report.wall_time,
            report.steps_per_sec(),
            report.final_loss
        );
        outcomes.push(SegmentOutcome {
            protocol: seg.protocol.clone(),
            steps: report.steps,
            wall_time_ms: report.wall_time.as_millis() as u64,
            steps_per_sec: report.steps_per_sec(),
            final_loss: f64::from(report.final_loss),
            sync_rounds: report.sync_rounds,
            healed_servers: healed_seg,
            crash_retries,
        });
        healed_total += healed_seg;
        // Segment boundary: quiesce stage-2, then re-checkpoint.
        trainer.drain_sync();
        ck = trainer.checkpoint();
    }

    // Final telemetry sweep: scrape every server's request accounting over
    // the `Stats` wire frame (a crashed-and-gone server scrapes as `None`
    // and is simply absent from the report).
    let server_stats: Vec<ServerStatsSummary> = trainer
        .net_router()
        .expect("net data plane")
        .scrape_all_stats()
        .iter()
        .flatten()
        .map(ServerStatsSummary::from_snapshot)
        .collect();

    let controller_decisions: Vec<ControllerDecision> = controller
        .as_ref()
        .map(|ctl| {
            ctl.decisions()
                .iter()
                .map(ControllerDecision::from_record)
                .collect()
        })
        .unwrap_or_default();
    for d in &controller_decisions {
        println!(
            "ps-worker controller segment {}: {} -> {} (ssp bound {}): {}",
            d.segment, d.from, d.to, d.ssp_bound, d.reason
        );
    }

    let final_loss = trainer.training_loss();
    let threshold = kind.loss_threshold();
    let report = WorkerReport {
        workload: spec.workload.clone(),
        segments: outcomes,
        final_loss: f64::from(final_loss),
        loss_threshold: f64::from(threshold),
        converged: final_loss.is_finite() && final_loss < threshold,
        accuracy: trainer.evaluate(),
        finite: trainer.check_finite(),
        healed_servers: healed_total,
        server_stats,
        controller_decisions,
    };
    std::fs::write(&cfg.report_path, report.to_json())
        .map_err(|e| format!("cannot write report {}: {e}", cfg.report_path))?;
    println!(
        "ps-worker done: loss {:.4} (gate {threshold}), accuracy {:.3}, converged={}",
        report.final_loss, report.accuracy, report.converged
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ps-worker: {msg}");
            ExitCode::FAILURE
        }
    }
}
