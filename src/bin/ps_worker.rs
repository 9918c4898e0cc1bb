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
//! boundary and trusts the checkpoint only once a handshake after it
//! (`NetRouter::handshake`) finds every server still the instance it
//! recorded. A server the cluster manager respawned answers with a new
//! instance nonce, and then the worker restores the whole tier, the
//! respawned server included, from the segment-start checkpoint and re-runs
//! the segment. That catches a respawn within the retry budget, which fails
//! no operation. A segment that fails on an unreachable server, inside it
//! or at its boundary drain — the error naming that server
//! (`ConnLost`/`Timeout`/`RetriesExhausted`) — takes the same
//! handshake-then-restore path, the handshake waiting for the respawn. A
//! worker's panic is a bug and ends the process.
//!
//! However the run ends — report written, fatal segment error, a tier that
//! never healed, a panic — the process's trace ring is dumped next to the
//! report path as a Chrome trace: the retries, kills and last steps before
//! a failure are what a post-mortem needs.
//!
//! ```text
//! ps-worker --spec cluster.json --report worker-0.report.json
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use sync_switch::deploy::{
    ClusterSpec, ControllerDecision, SegmentOutcome, ServerStatsSummary, WorkerReport,
};
use sync_switch::ps::{NetPort, PsError, SyncController, Trainer, WorkerPort};
use sync_switch::workloads::TrainableKind;
use sync_switch_telemetry::Telemetry;

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
        PsError::ConnLost { .. } | PsError::Timeout { .. } | PsError::RetriesExhausted { .. }
    )
}

/// Crash-retry budget per segment: each retry already waits out a full
/// respawn, so repeated exhaustion means the tier is not coming back.
const MAX_CRASH_RETRIES: u64 = 3;

/// The heal: waits (up to the spec's heal deadline) for every server to
/// answer, and returns how many answered as a new instance.
fn handshake(trainer: &Trainer, spec: &ClusterSpec) -> Result<usize, String> {
    let router = trainer.net_router().expect("net data plane");
    (router.handshake(spec.heal_deadline())).map_err(|e| format!("tier did not heal: {e}"))
}

/// Where this worker's Chrome trace goes: `foo.report.json` →
/// `foo.trace.json`, or `<report>.trace.json` when the report path does not
/// follow the harness's naming.
fn trace_path_for(report_path: &str) -> String {
    match report_path.strip_suffix(".report.json") {
        Some(stem) => format!("{stem}.trace.json"),
        None => format!("{report_path}.trace.json"),
    }
}

/// Dumps the bus's trace ring to `path` for chrome://tracing when dropped,
/// so the trace is written on every exit, a panic's unwind included.
struct TraceDump {
    bus: Arc<Telemetry>,
    path: String,
}

impl Drop for TraceDump {
    fn drop(&mut self) {
        let trace = self
            .bus
            .trace
            .chrome_trace_json(u64::from(std::process::id()));
        if let Err(e) = std::fs::write(&self.path, trace) {
            eprintln!("ps-worker: cannot write trace {}: {e}", self.path);
        }
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
        spec.retry,
    )
    .map_err(|e| format!("connect: {e}"))?;
    let _dump = TraceDump {
        bus: Arc::clone(port.router().telemetry()),
        path: trace_path_for(&cfg.report_path),
    };
    // Readiness handshake: keeps re-dialing servers that have not bound
    // yet, then verifies every server's identity and shard slice against
    // this spec, and records its instance, before a single gradient moves.
    port.router()
        .handshake(spec.handshake_deadline())
        .map_err(|e| format!("handshake: {e}"))?;
    println!("ps-worker connected to {} servers", addrs.len());

    let trainer_cfg = spec.trainer_config()?;
    let mut trainer = Trainer::with_port(model, train, test, trainer_cfg, WorkerPort::Net(port));
    run_segments(&cfg, &spec, kind, &mut trainer)
}

/// Runs the spec's segments on `trainer` and writes the report.
fn run_segments(
    cfg: &WorkerConfig,
    spec: &ClusterSpec,
    kind: TrainableKind,
    trainer: &mut Trainer,
) -> Result<(), String> {
    let mut ck = trainer.checkpoint();

    // The adaptive controller, when the spec asks for one: BSP/ASP
    // segments then run under whatever protocol the controller last
    // decided on (the first segment's protocol seeds the discipline), and
    // every decision is recorded into the report.
    let mut controller = spec.controller.map(SyncController::new);
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
            // Segment boundary: quiesce stage-2 — a server lost here fails
            // the segment like one lost inside it — then checkpoint, then
            // handshake. Checkpoint first, so a respawn between the two is
            // caught as well.
            let res = res.and_then(|report| trainer.drain_sync().map(|()| report));
            let healed = match res {
                Ok(report) => {
                    let next = trainer.checkpoint();
                    let healed = handshake(trainer, spec)?;
                    if healed == 0 {
                        ck = next;
                        break report;
                    }
                    healed
                }
                Err(e) if is_crash(&e) => {
                    eprintln!(
                        "ps-worker: segment {:?} hit {e}; waiting for the tier to heal",
                        seg.protocol
                    );
                    handshake(trainer, spec)?
                }
                Err(e) => return Err(format!("segment {:?} failed: {e}", seg.protocol)),
            };
            if crash_retries == MAX_CRASH_RETRIES {
                return Err(format!("segment {:?} kept crashing", seg.protocol));
            }
            // The respawned server holds the spec's initial state: put the
            // whole tier back on the segment-start checkpoint so the re-run
            // starts from one consistent state (a restore ends drained).
            trainer.restore(&ck).map_err(|e| format!("rollback: {e}"))?;
            healed_seg += healed as u64;
            crash_retries += 1;
            eprintln!(
                "ps-worker: healed {healed} server(s), retrying segment {:?} (attempt {})",
                seg.protocol,
                crash_retries + 1
            );
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
