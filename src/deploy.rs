//! The cluster specification shared by every process of a real
//! (multi-process) Sync-Switch deployment.
//!
//! A cluster run involves three kinds of process — `ps-serve` (one per
//! parameter server), `ps-worker` (one per training client), and the
//! harness that spawns them — and they must agree *exactly* on the tier
//! layout: which workload (and therefore how many parameters), how many
//! shards, which server owns which shards, and which address each server
//! answers on. [`ClusterSpec`] is that agreement, serialized as a JSON file
//! every process reads; the wire-level `Hello` handshake then verifies at
//! runtime that each server really was launched from the same spec
//! (`NetRouter::handshake` refuses a tier whose shard ownership disagrees).
//!
//! [`WorkerReport`] is the other half of the contract: the JSON document a
//! `ps-worker` writes on exit, which the harness parses to judge the run.

use std::net::SocketAddr;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sync_switch_ps::transport::wire::op;
use sync_switch_ps::{ControllerConfig, RetryPolicy, ServerStatsSnapshot, TrainerConfig};
use sync_switch_workloads::{SyncProtocol, TrainableKind};

/// One training segment of a cluster run: a synchronization discipline and
/// a step budget.
///
/// `protocol` is a lowercase string rather than the [`SyncProtocol`] enum so
/// the spec can also name the SSP extension (`"ssp"`), which lives outside
/// the paper's BSP/ASP pair; [`SegmentSpec::parse_protocol`] maps it back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentSpec {
    /// `"bsp"`, `"asp"`, or `"ssp"` (case-insensitive).
    pub protocol: String,
    /// Global steps to run under this protocol.
    pub steps: u64,
    /// Staleness bound for an `"ssp"` segment; ignored otherwise.
    pub ssp_bound: u64,
}

impl SegmentSpec {
    /// A BSP segment of `steps` steps.
    pub fn bsp(steps: u64) -> Self {
        SegmentSpec {
            protocol: "bsp".into(),
            steps,
            ssp_bound: 0,
        }
    }

    /// An ASP segment of `steps` steps.
    pub fn asp(steps: u64) -> Self {
        SegmentSpec {
            protocol: "asp".into(),
            steps,
            ssp_bound: 0,
        }
    }

    /// An SSP segment of `steps` steps with the given staleness bound.
    pub fn ssp(steps: u64, bound: u64) -> Self {
        SegmentSpec {
            protocol: "ssp".into(),
            steps,
            ssp_bound: bound,
        }
    }

    /// Resolves the protocol string: `Some(protocol)` for `"bsp"`/`"asp"`,
    /// `None` for `"ssp"` (the caller dispatches to the SSP runner).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized string.
    pub fn parse_protocol(&self) -> Result<Option<SyncProtocol>, String> {
        match self.protocol.to_ascii_lowercase().as_str() {
            "bsp" => Ok(Some(SyncProtocol::Bsp)),
            "asp" => Ok(Some(SyncProtocol::Asp)),
            "ssp" => Ok(None),
            other => Err(format!(
                "unknown protocol {other:?} (expected \"bsp\", \"asp\", or \"ssp\")"
            )),
        }
    }
}

/// The policy block that puts a `ps-worker` under the online adaptive
/// [`SyncController`] instead of blindly executing the spec's protocol
/// strings.
///
/// When present, the spec's segment list still defines the step budgets
/// (and the first segment's protocol seeds the starting discipline), but
/// from then on each BSP/ASP segment runs under whatever protocol the
/// controller last decided on: the worker scrapes the bus after every
/// segment and may promote BSP→ASP, demote ASP→BSP, or retune the SSP
/// bound, recording every decision (with its reason) in the
/// [`WorkerReport`].
///
/// The thresholds mirror [`ControllerConfig`]; see that type for the named
/// telemetry signal behind each one.
///
/// [`SyncController`]: sync_switch_ps::SyncController
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerSpec {
    /// Segments observed before the first promote decision.
    pub warmup_segments: u64,
    /// Barrier-wait fraction at which BSP promotes to ASP.
    pub promote_barrier_frac: f64,
    /// Loss-stability slack factor required for promotion.
    pub promote_loss_slack: f64,
    /// `wire.retries` delta above which ASP demotes to BSP.
    pub demote_retry_limit: u64,
    /// Loss blow-up factor at which ASP demotes to BSP.
    pub demote_loss_factor: f64,
    /// Mean `engine.staleness` above which ASP demotes to BSP.
    pub demote_staleness_limit: f64,
}

impl Default for ControllerSpec {
    fn default() -> Self {
        let cfg = ControllerConfig::default();
        ControllerSpec {
            warmup_segments: cfg.warmup_segments,
            promote_barrier_frac: cfg.promote_barrier_frac,
            promote_loss_slack: f64::from(cfg.promote_loss_slack),
            demote_retry_limit: cfg.demote_retry_limit,
            demote_loss_factor: f64::from(cfg.demote_loss_factor),
            demote_staleness_limit: cfg.demote_staleness_limit,
        }
    }
}

impl ControllerSpec {
    /// The in-process controller policy this spec block describes
    /// (remaining [`ControllerConfig`] knobs keep their defaults).
    pub fn to_config(&self) -> ControllerConfig {
        ControllerConfig {
            warmup_segments: self.warmup_segments,
            promote_barrier_frac: self.promote_barrier_frac,
            promote_loss_slack: self.promote_loss_slack as f32,
            demote_retry_limit: self.demote_retry_limit,
            demote_loss_factor: self.demote_loss_factor as f32,
            demote_staleness_limit: self.demote_staleness_limit,
            ..ControllerConfig::default()
        }
    }

    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.promote_barrier_frac) {
            return Err(format!(
                "promote_barrier_frac {} outside [0, 1]",
                self.promote_barrier_frac
            ));
        }
        if self.promote_loss_slack < 1.0 {
            return Err(format!(
                "promote_loss_slack {} below 1.0 would reject an improving loss",
                self.promote_loss_slack
            ));
        }
        if self.demote_loss_factor <= 1.0 {
            return Err(format!(
                "demote_loss_factor {} must exceed 1.0",
                self.demote_loss_factor
            ));
        }
        if self.demote_staleness_limit <= 0.0 {
            return Err(format!(
                "demote_staleness_limit {} must be positive",
                self.demote_staleness_limit
            ));
        }
        Ok(())
    }
}

/// The complete, serializable description of a multi-process cluster run.
///
/// Every process derives everything else it needs from this: a `ps-serve`
/// builds the seeded workload model to obtain the tier's initial parameters
/// (all processes build the *same* model, so no parameter shipping is
/// needed at startup), binds `servers[index]`, and serves; a `ps-worker`
/// connects to all of `servers`, validates the layout via the handshake,
/// and runs `segments` in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Trainable workload name: `"mlp_blobs"`, `"conv_shifted"`, or
    /// `"sparse_embedding"` (see [`TrainableKind::name`]).
    pub workload: String,
    /// Seed for the workload build — model init and dataset generation.
    /// Identical across processes by construction (it is in the spec).
    pub seed: u64,
    /// Number of parameter shards in the tier.
    pub shards: usize,
    /// One `host:port` per parameter server, in server-index order. The
    /// length of this list *is* the server count.
    pub servers: Vec<String>,
    /// Worker threads per `ps-worker` process.
    pub workers_per_proc: usize,
    /// Stage-2 reconciliation period in completed pushes.
    pub sync_every: u64,
    /// Training segments, run in order by every worker process.
    pub segments: Vec<SegmentSpec>,
    /// Artificial per-step delay (milliseconds) injected into every worker
    /// thread. Real workloads here are tiny, so an undelayed release-mode
    /// run finishes in milliseconds — too fast for a mid-run fault to land.
    /// A few ms per step stretches the run into the window where the
    /// harness's SIGKILL is genuinely *mid-training*.
    pub step_delay_ms: u64,
    /// Per-operation wire timeout, milliseconds ([`RetryPolicy`]).
    pub op_timeout_ms: u64,
    /// Wire retries after the initial attempt ([`RetryPolicy`]).
    pub max_retries: u32,
    /// First backoff sleep, milliseconds ([`RetryPolicy`]).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds ([`RetryPolicy`]).
    pub backoff_max_ms: u64,
    /// Readiness-handshake budget, seconds: how long a worker keeps
    /// re-dialing servers that have not bound their listeners yet.
    pub handshake_secs: u64,
    /// How long a worker waits for a crashed server to be respawned before
    /// giving up on healing, seconds.
    pub heal_secs: u64,
    /// Optional adaptive-controller policy. Absent (or JSON `null`) means
    /// the worker executes the spec's protocol strings verbatim, as before.
    pub controller: Option<ControllerSpec>,
}

impl ClusterSpec {
    /// A ready-to-run spec for `servers` × `worker_procs` processes on the
    /// given addresses, training `workload` with its registered
    /// hyper-parameters and a BSP→ASP split of its step budget.
    pub fn standard(workload: TrainableKind, servers: Vec<String>, seed: u64) -> Self {
        let hyper = workload.hyper();
        let half = hyper.total_steps / 2;
        ClusterSpec {
            workload: workload.name().to_string(),
            seed,
            shards: 4,
            servers,
            workers_per_proc: 2,
            sync_every: 1,
            segments: vec![
                SegmentSpec::bsp(half),
                SegmentSpec::asp(hyper.total_steps - half),
            ],
            step_delay_ms: 0,
            op_timeout_ms: 2_000,
            max_retries: 3,
            backoff_base_ms: 5,
            backoff_max_ms: 100,
            handshake_secs: 20,
            heal_secs: 20,
            controller: None,
        }
    }

    /// The same spec with the adaptive sync controller enabled.
    pub fn with_controller(mut self, controller: ControllerSpec) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Resolves the workload name to its [`TrainableKind`].
    ///
    /// # Errors
    ///
    /// Returns the unrecognized name and the registry of valid ones.
    pub fn workload_kind(&self) -> Result<TrainableKind, String> {
        TrainableKind::all()
            .into_iter()
            .find(|k| k.name() == self.workload)
            .ok_or_else(|| {
                let known: Vec<&str> = TrainableKind::all().iter().map(|k| k.name()).collect();
                format!(
                    "unknown workload {:?} (expected one of {known:?})",
                    self.workload
                )
            })
    }

    /// Parses `servers` into socket addresses, in server-index order.
    ///
    /// # Errors
    ///
    /// Returns the first unparseable entry.
    pub fn server_addrs(&self) -> Result<Vec<SocketAddr>, String> {
        self.servers
            .iter()
            .map(|s| {
                s.parse::<SocketAddr>()
                    .map_err(|e| format!("bad server address {s:?}: {e}"))
            })
            .collect()
    }

    /// The client-side retry policy encoded in the spec.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            op_timeout_ms: self.op_timeout_ms,
            max_retries: self.max_retries,
            backoff_base_ms: self.backoff_base_ms,
            backoff_max_ms: self.backoff_max_ms,
        }
    }

    /// The readiness-handshake deadline.
    pub fn handshake_deadline(&self) -> Duration {
        Duration::from_secs(self.handshake_secs)
    }

    /// The heal-wait deadline for a crashed server.
    pub fn heal_deadline(&self) -> Duration {
        Duration::from_secs(self.heal_secs)
    }

    /// The [`TrainerConfig`] a worker process derives from this spec: the
    /// workload's registered hyper-parameters, the spec's worker count and
    /// shard count, and an optional per-step straggler delay on every
    /// worker thread (see [`ClusterSpec::step_delay_ms`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn trainer_config(&self) -> Result<TrainerConfig, String> {
        let kind = self.workload_kind()?;
        let hyper = kind.hyper();
        let mut cfg = TrainerConfig::new(
            self.workers_per_proc,
            hyper.batch_size,
            hyper.learning_rate,
            hyper.momentum,
        )
        .with_seed(self.seed);
        cfg.shards = self.shards;
        if self.step_delay_ms > 0 {
            for w in 0..self.workers_per_proc {
                cfg = cfg.with_straggler(w, Duration::from_millis(self.step_delay_ms));
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validates the spec end to end — every derived view must resolve.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let kind = self.workload_kind()?;
        self.server_addrs()?;
        if self.servers.is_empty() {
            return Err("spec names no servers".into());
        }
        if self.shards == 0 {
            return Err("shards must be positive".into());
        }
        if self.servers.len() > self.shards {
            return Err(format!(
                "{} servers for {} shards: a server would own no shard",
                self.servers.len(),
                self.shards
            ));
        }
        if self.sync_every == 0 {
            return Err("sync_every must be positive".into());
        }
        if self.segments.is_empty() {
            return Err("spec names no training segments".into());
        }
        for seg in &self.segments {
            seg.parse_protocol()?;
            if seg.steps == 0 {
                return Err(format!("segment {:?} has zero steps", seg.protocol));
            }
        }
        let (model, train, _) = kind.build(self.seed);
        if self.shards > model.params_flat().len() {
            return Err(format!(
                "{} shards for {} parameters",
                self.shards,
                model.params_flat().len()
            ));
        }
        if train.len() < self.workers_per_proc {
            return Err("more worker threads than training examples".into());
        }
        if let Some(controller) = &self.controller {
            controller.validate()?;
        }
        self.trainer_config()?;
        Ok(())
    }

    /// Serializes the spec as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parses a spec from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns the parse or validation failure.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let spec: ClusterSpec = serde_json::from_str(json).map_err(|e| format!("{e:?}"))?;
        spec.validate()?;
        Ok(spec)
    }
}

/// Per-segment outcome inside a [`WorkerReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentOutcome {
    /// Protocol string of the segment spec that produced this outcome.
    pub protocol: String,
    /// Global steps completed.
    pub steps: u64,
    /// Wall-clock duration, milliseconds.
    pub wall_time_ms: u64,
    /// Cluster throughput, steps per second.
    pub steps_per_sec: f64,
    /// Mean training loss over the segment's last recorded steps.
    pub final_loss: f64,
    /// Stage-2 reconciliation rounds completed during the segment.
    pub sync_rounds: u64,
    /// Respawned server instances this worker detected, and restored the
    /// tier over, while retrying this segment.
    pub healed_servers: u64,
    /// Times the segment was rolled back to its starting checkpoint and
    /// re-run after a server crash.
    pub crash_retries: u64,
}

/// A serializable digest of one server's [`ServerStatsSnapshot`], scraped
/// over the `Stats` wire frame just before a `ps-worker` exits and embedded
/// in its [`WorkerReport`].
///
/// This is the harness's cross-process consistency hook: the worker knows
/// how many pushes/pulls/syncs *it* issued ([`TransportStats`]), the server
/// knows how many it *served*, and on a clean network the two must agree.
/// Only the aggregate numbers travel — the full snapshot (per-shard apply
/// vectors, apply-latency histogram) stays in the server's own periodic
/// metrics dump.
///
/// [`TransportStats`]: sync_switch_ps::TransportStats
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStatsSummary {
    /// The answering server's index.
    pub server: u32,
    /// Requests served across every opcode.
    pub total_requests: u64,
    /// Dense + sparse shard pushes served.
    pub push_requests: u64,
    /// Committed-view pulls served.
    pub pull_requests: u64,
    /// Stage-2 reconciliations served (periodic sync rounds + drains).
    pub sync_requests: u64,
    /// Cumulative inbound request payload bytes.
    pub bytes_in: u64,
    /// Cumulative outbound reply payload bytes.
    pub bytes_out: u64,
    /// Sequenced requests answered from the dedup cache — each one is a
    /// retried mutation the server refused to apply twice.
    pub dedup_hits: u64,
    /// Gradient applies recorded by the server's apply histogram.
    pub applies: u64,
    /// Mean apply latency, nanoseconds (0 with no applies).
    pub mean_apply_ns: u64,
}

impl ServerStatsSummary {
    /// Digests a scraped snapshot into report form.
    pub fn from_snapshot(snap: &ServerStatsSnapshot) -> Self {
        let applies = snap.apply_ns.count;
        ServerStatsSummary {
            server: snap.server,
            total_requests: snap.total_requests(),
            push_requests: snap.requests_for(op::PUSH_SHARD)
                + snap.requests_for(op::PUSH_SHARD_SPARSE),
            pull_requests: snap.requests_for(op::PULL_COMMITTED),
            sync_requests: snap.requests_for(op::SYNC_ROUND) + snap.requests_for(op::DRAIN),
            bytes_in: snap.bytes_in,
            bytes_out: snap.bytes_out,
            dedup_hits: snap.dedup_hits,
            applies,
            mean_apply_ns: snap.apply_ns.sum.checked_div(applies).unwrap_or(0),
        }
    }
}

/// One adaptive-controller decision, as serialized into a
/// [`WorkerReport`]. Mirrors [`DecisionRecord`] with the protocols as
/// strings so the document stays self-describing.
///
/// [`DecisionRecord`]: sync_switch_ps::DecisionRecord
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerDecision {
    /// Zero-based index of the controller-observed segment.
    pub segment: u64,
    /// Protocol the segment ran under.
    pub from: String,
    /// Protocol the next segment runs under.
    pub to: String,
    /// The SSP bound as retuned after this segment.
    pub ssp_bound: u64,
    /// Why the controller decided this.
    pub reason: String,
    /// Global step of the checkpoint a divergence rollback restored.
    pub rolled_back_to: Option<u64>,
}

impl ControllerDecision {
    /// Report form of an in-process decision record.
    pub fn from_record(d: &sync_switch_ps::DecisionRecord) -> Self {
        ControllerDecision {
            segment: d.segment,
            from: d.from.to_string(),
            to: d.to.to_string(),
            ssp_bound: d.ssp_bound,
            reason: d.reason.clone(),
            rolled_back_to: d.rolled_back_to,
        }
    }

    /// Whether this decision changed the protocol.
    pub fn switched(&self) -> bool {
        self.from != self.to
    }
}

/// The JSON document a `ps-worker` process writes on exit — the harness's
/// only window into what happened inside the worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Workload name, echoed from the spec.
    pub workload: String,
    /// Per-segment outcomes, in spec order.
    pub segments: Vec<SegmentOutcome>,
    /// Training loss on the probe batch after the final segment.
    pub final_loss: f64,
    /// The workload's registered convergence gate.
    pub loss_threshold: f64,
    /// Whether `final_loss` cleared the gate.
    pub converged: bool,
    /// Top-1 accuracy on the held-out test set after the final segment.
    pub accuracy: f64,
    /// Whether every parameter on every server was finite at exit.
    pub finite: bool,
    /// Total servers healed across all segments.
    pub healed_servers: u64,
    /// Per-server request accounting scraped over the `Stats` wire frame
    /// just before exit, in server-index order. A server that could not be
    /// scraped (crashed and never respawned) is simply absent.
    pub server_stats: Vec<ServerStatsSummary>,
    /// Every adaptive-controller decision taken during the run, in order.
    /// Empty when the spec carried no [`ControllerSpec`].
    pub controller_decisions: Vec<ControllerDecision>,
}

impl WorkerReport {
    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse failure.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("{e:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::standard(
            TrainableKind::MlpBlobs,
            vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
            7,
        )
    }

    #[test]
    fn standard_spec_validates_and_derives() {
        let s = spec();
        assert!(s.validate().is_ok());
        assert_eq!(s.workload_kind().unwrap(), TrainableKind::MlpBlobs);
        assert_eq!(s.server_addrs().unwrap().len(), 2);
        assert_eq!(s.retry().op_timeout_ms, 2_000);
        let cfg = s.trainer_config().unwrap();
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let s = spec();
        let parsed = ClusterSpec::from_json(&s.to_json()).expect("round trip");
        assert_eq!(parsed, s);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = WorkerReport {
            workload: "mlp_blobs".into(),
            segments: vec![SegmentOutcome {
                protocol: "bsp".into(),
                steps: 120,
                wall_time_ms: 44,
                steps_per_sec: 2700.0,
                final_loss: 0.51,
                sync_rounds: 9,
                healed_servers: 1,
                crash_retries: 1,
            }],
            final_loss: 0.4,
            loss_threshold: 0.9,
            converged: true,
            accuracy: 0.85,
            finite: true,
            healed_servers: 1,
            server_stats: vec![ServerStatsSummary {
                server: 0,
                total_requests: 310,
                push_requests: 240,
                pull_requests: 60,
                sync_requests: 10,
                bytes_in: 88_000,
                bytes_out: 91_000,
                dedup_hits: 2,
                applies: 240,
                mean_apply_ns: 1_450,
            }],
            controller_decisions: vec![
                ControllerDecision {
                    segment: 1,
                    from: "Bsp".into(),
                    to: "Asp".into(),
                    ssp_bound: 3,
                    reason: "barrier-wait fraction 0.41 >= 0.25 with stable loss".into(),
                    rolled_back_to: None,
                },
                ControllerDecision {
                    segment: 2,
                    from: "Bsp".into(),
                    to: "Bsp".into(),
                    ssp_bound: 3,
                    reason: "watchdog trip #1: non-finite segment under Asp".into(),
                    rolled_back_to: Some(40),
                },
            ],
        };
        let parsed = WorkerReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(parsed.controller_decisions[0].switched());
    }

    #[test]
    fn controller_spec_round_trips_and_maps_to_the_policy() {
        let s = spec().with_controller(ControllerSpec {
            promote_barrier_frac: 0.1,
            demote_retry_limit: 2,
            ..ControllerSpec::default()
        });
        assert!(s.validate().is_ok());
        let parsed = ClusterSpec::from_json(&s.to_json()).expect("round trip");
        assert_eq!(parsed, s);
        let cfg = parsed.controller.as_ref().unwrap().to_config();
        assert_eq!(cfg.promote_barrier_frac, 0.1);
        assert_eq!(cfg.demote_retry_limit, 2);
        assert_eq!(
            cfg.warmup_segments,
            sync_switch_ps::ControllerConfig::default().warmup_segments
        );
    }

    #[test]
    fn specs_without_a_controller_block_still_parse() {
        // Backward compatibility: a spec JSON written before the controller
        // existed has no "controller" key at all.
        let s = spec();
        let json = s.to_json();
        let idx = json
            .find("\"controller\"")
            .expect("spec JSON names the key");
        let comma = json[..idx].rfind(',').expect("a field precedes it");
        let line_end = idx + json[idx..].find('\n').unwrap_or(json.len() - idx);
        let stripped = format!("{}{}", &json[..comma], &json[line_end..]);
        assert!(!stripped.contains("\"controller\""));
        let parsed = ClusterSpec::from_json(&stripped).expect("legacy spec parses");
        assert_eq!(parsed.controller, None);
    }

    #[test]
    fn bad_controller_thresholds_are_refused() {
        let mut s = spec().with_controller(ControllerSpec::default());
        s.controller.as_mut().unwrap().promote_barrier_frac = 1.5;
        assert!(s.validate().is_err());

        let mut s = spec().with_controller(ControllerSpec::default());
        s.controller.as_mut().unwrap().promote_loss_slack = 0.5;
        assert!(s.validate().is_err());

        let mut s = spec().with_controller(ControllerSpec::default());
        s.controller.as_mut().unwrap().demote_loss_factor = 1.0;
        assert!(s.validate().is_err());

        let mut s = spec().with_controller(ControllerSpec::default());
        s.controller.as_mut().unwrap().demote_staleness_limit = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn summary_digests_a_snapshot() {
        let mut snap = ServerStatsSnapshot {
            server: 3,
            bytes_in: 1_000,
            bytes_out: 2_000,
            dedup_hits: 5,
            ..ServerStatsSnapshot::default()
        };
        snap.requests[op::PUSH_SHARD as usize] = 40;
        snap.requests[op::PUSH_SHARD_SPARSE as usize] = 10;
        snap.requests[op::PULL_COMMITTED as usize] = 25;
        snap.requests[op::SYNC_ROUND as usize] = 7;
        snap.requests[op::DRAIN as usize] = 3;
        snap.requests[op::HELLO as usize] = 2;
        snap.apply_ns.count = 50;
        snap.apply_ns.sum = 5_000;
        let s = ServerStatsSummary::from_snapshot(&snap);
        assert_eq!(s.server, 3);
        assert_eq!(s.total_requests, 87);
        assert_eq!(s.push_requests, 50);
        assert_eq!(s.pull_requests, 25);
        assert_eq!(s.sync_requests, 10);
        assert_eq!(s.bytes_in, 1_000);
        assert_eq!(s.bytes_out, 2_000);
        assert_eq!(s.dedup_hits, 5);
        assert_eq!(s.applies, 50);
        assert_eq!(s.mean_apply_ns, 100);
    }

    #[test]
    fn segment_protocols_parse() {
        assert_eq!(
            SegmentSpec::bsp(1).parse_protocol(),
            Ok(Some(SyncProtocol::Bsp))
        );
        assert_eq!(
            SegmentSpec::asp(1).parse_protocol(),
            Ok(Some(SyncProtocol::Asp))
        );
        assert_eq!(SegmentSpec::ssp(1, 3).parse_protocol(), Ok(None));
        let mut bad = SegmentSpec::bsp(1);
        bad.protocol = "dsp".into();
        assert!(bad.parse_protocol().is_err());
    }

    #[test]
    fn invalid_specs_are_refused() {
        let mut s = spec();
        s.workload = "resnet152".into();
        assert!(s.validate().is_err());

        let mut s = spec();
        s.servers = vec!["not-an-addr".into()];
        assert!(s.validate().is_err());

        let mut s = spec();
        s.servers.clear();
        assert!(s.validate().is_err());

        let mut s = spec();
        s.shards = 1; // fewer shards than servers
        assert!(s.validate().is_err());

        let mut s = spec();
        s.segments.clear();
        assert!(s.validate().is_err());

        let mut s = spec();
        s.segments[0].steps = 0;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.segments[0].protocol = "nope".into();
        assert!(s.validate().is_err());

        let mut s = spec();
        s.sync_every = 0;
        assert!(s.validate().is_err());
    }
}
