//! The online adaptive sync controller: the closed loop over the telemetry
//! bus.
//!
//! The paper's Sync-Switch policy picks its BSP→ASP switch point *offline*
//! (timer or loss threshold decided before the run). This module closes the
//! loop online, in the spirit of the follow-up ACE-Sync direction: after
//! every segment the controller scrapes the **already-emitted named
//! signals** — the `engine.step_ns` / `engine.barrier_wait_ns` /
//! `engine.staleness` histograms, the `wire.retries` / `wire.requests` /
//! `wire.sync_rounds` counters, and the loss trajectory — and decides
//! whether to roll back (divergence), promote BSP→ASP (barrier-dominated
//! and loss stable), demote ASP→BSP (wire distress — retries per request —
//! or divergence risk), or hold. There is no
//! side channel: every input to [`SyncController::decide`] is a signal any
//! telemetry scraper could read off the bus, plus the controller's own loss
//! record.
//!
//! A server lost past the retry budget, inside the segment or at its
//! closing finiteness check, is not a signal: the segment returns its wire
//! error naming the server, and [`SyncController::run_segment`] passes it
//! up for the caller to heal (a `ps-worker` waits out the respawn, restores
//! and re-runs the segment).
//!
//! The first rule is the divergence watchdog. The paper observes that ASP
//! diverges at learning rates BSP tolerates (experiment setup 3); instead
//! of dying with [`PsError::Diverged`], a segment that went non-finite, or
//! whose loss blew past [`BLOWUP_FACTOR`] × the best loss so far, is a
//! [`SyncDecision::Rollback`]: the tier is restored to the best-loss
//! checkpoint, switched to BSP with its velocity reset, the segment is
//! re-run under BSP, and BSP is pinned for the rest of the run — so
//! training completes, at BSP speed.
//!
//! Switches go through the same actuator as everything else —
//! [`execute_switch`] with a [`SwitchPlan`] — and every switch lands as a
//! [`TraceKind::ProtocolSwitch`] event carrying the human-readable reason.
//!
//! The controller also retunes the SSP staleness bound from the measured
//! `engine.staleness` distribution: [`SyncController::ssp_bound`] tracks
//! `ceil(mean staleness) + SSP_MARGIN`, clamped, so an SSP tier can be
//! driven with a bound grounded in what the cluster actually exhibits.
//!
//! Only the two thresholds a deployment has reason to move are
//! [`ControllerConfig`] fields; every other rule reads one of the named
//! constants below.

use serde::{Deserialize, Serialize};
use sync_switch_telemetry::{MetricsSnapshot, TraceKind};
use sync_switch_workloads::SyncProtocol;

use crate::checkpoint::Checkpoint;
use crate::engine::{SegmentReport, Trainer};
use crate::error::PsError;
use crate::switcher::{execute_switch, SwitchPlan};

/// Segments to observe before the first promote decision — the loss
/// trajectory needs at least one finite best before "stable" means
/// anything.
pub const WARMUP_SEGMENTS: u64 = 1;
/// Promotion requires the segment's tail loss to sit within this slack
/// factor of the best loss so far (loss stable, not recovering).
pub const PROMOTE_LOSS_SLACK: f32 = 1.25;
/// Demote ASP→BSP when the segment's tail loss exceeds this factor of the
/// best loss — a divergence-risk trigger deliberately tighter than
/// [`BLOWUP_FACTOR`], so a demotion usually comes before a rollback.
pub const DEMOTE_LOSS_FACTOR: f32 = 3.0;
/// Roll back when the segment's tail loss exceeds this factor of the best
/// loss, under either protocol, until the first rollback pins BSP.
pub const BLOWUP_FACTOR: f32 = 4.0;
/// Demote ASP→BSP when the measured mean `engine.staleness` exceeds this.
pub const DEMOTE_STALENESS_LIMIT: f64 = 16.0;
/// Floor applied to the best loss in the stability, divergence-risk and
/// blow-up checks, so noise around an already-tiny loss cannot flip
/// decisions.
pub const LOSS_FLOOR: f32 = 0.05;
/// Retuned SSP bound = `ceil(mean staleness) + SSP_MARGIN`.
pub const SSP_MARGIN: u64 = 1;
/// Clamp for the retuned SSP bound.
pub const MAX_SSP_BOUND: u64 = 32;

/// Tuning for [`SyncController`]: the two thresholds a deployment sets.
/// Each is expressed against a named telemetry signal so a decision can
/// always be traced back to the scrape that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Promote BSP→ASP when the segment's barrier-wait fraction
    /// (`engine.barrier_wait_ns / (engine.barrier_wait_ns +
    /// engine.step_ns)`) reaches this value.
    pub promote_barrier_frac: f64,
    /// Demote ASP→BSP when a segment's `wire.retries` delta exceeds this
    /// many per 1000 of its wire requests (`wire.requests`), so the bar
    /// does not move with how many requests a step sends or how long a
    /// segment runs; under BSP the same signal blocks promotion.
    pub demote_retry_limit: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            promote_barrier_frac: 0.25,
            demote_retry_limit: 4,
        }
    }
}

impl ControllerConfig {
    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency: a barrier fraction
    /// outside `[0, 1]` (NaN included).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.promote_barrier_frac) {
            return Err(format!(
                "promote_barrier_frac {} outside [0, 1]",
                self.promote_barrier_frac
            ));
        }
        Ok(())
    }
}

/// One segment's worth of scraped signals — deltas of the named metrics
/// over the segment, plus the loss trajectory endpoint. This is the
/// **entire** per-segment input to [`SyncController::decide`]; building it
/// from a metrics snapshot pair is [`ScrapedSignals::between`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedSignals {
    /// `engine.step_ns` histogram sum delta (worker busy time).
    pub step_ns: u64,
    /// `engine.barrier_wait_ns` histogram sum delta.
    pub barrier_ns: u64,
    /// `engine.staleness` histogram count delta.
    pub staleness_count: u64,
    /// `engine.staleness` histogram sum delta.
    pub staleness_sum: u64,
    /// `wire.retries` counter delta.
    pub retries: u64,
    /// `wire.requests` counter delta: the wire requests answered.
    pub requests: u64,
    /// `wire.sync_rounds` counter delta.
    pub sync_rounds: u64,
    /// Tail loss of the segment (the loss trajectory endpoint); NaN when
    /// the segment diverged.
    pub final_loss: f32,
}

impl ScrapedSignals {
    /// Deltas of the named signals between two metrics snapshots.
    /// `final_loss` comes from the segment report (the loss trajectory is
    /// itself an emitted signal — `SegmentReport` is what the report sinks
    /// serialize), or reads NaN when the segment returned
    /// [`PsError::Diverged`] (`report` is `None`).
    pub fn between(
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        report: Option<&SegmentReport>,
    ) -> Self {
        let counter = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        let hist = |name: &str| {
            let b = before.histograms.get(name);
            let a = after.histograms.get(name);
            let count = a.map_or(0, |h| h.count) - b.map_or(0, |h| h.count);
            let sum = a.map_or(0, |h| h.sum) - b.map_or(0, |h| h.sum);
            (count, sum)
        };
        let (_, step_ns) = hist("engine.step_ns");
        let (_, barrier_ns) = hist("engine.barrier_wait_ns");
        let (staleness_count, staleness_sum) = hist("engine.staleness");
        ScrapedSignals {
            step_ns,
            barrier_ns,
            staleness_count,
            staleness_sum,
            retries: counter("wire.retries"),
            requests: counter("wire.requests"),
            sync_rounds: counter("wire.sync_rounds"),
            final_loss: report.map_or(f32::NAN, |r| r.final_loss),
        }
    }

    /// Fraction of worker time spent waiting at the barrier:
    /// `barrier_ns / (barrier_ns + step_ns)`. Zero when nothing was
    /// recorded.
    pub fn barrier_fraction(&self) -> f64 {
        let total = self.barrier_ns + self.step_ns;
        if total == 0 {
            0.0
        } else {
            self.barrier_ns as f64 / total as f64
        }
    }

    /// Whether the segment's retries exceed `per_mille` per 1000 of its
    /// wire requests.
    pub fn retries_over(&self, per_mille: u64) -> bool {
        self.retries.saturating_mul(1000) > per_mille.saturating_mul(self.requests)
    }

    /// Mean of the `engine.staleness` delta; zero when no pushes recorded
    /// staleness this segment.
    pub fn mean_staleness(&self) -> f64 {
        if self.staleness_count == 0 {
            0.0
        } else {
            self.staleness_sum as f64 / self.staleness_count as f64
        }
    }
}

/// The outcome of one [`SyncController::decide`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncDecision {
    /// Keep the current protocol.
    Hold {
        /// Why the controller held.
        reason: String,
    },
    /// Switch to `to` before the next segment.
    Switch {
        /// The protocol to switch to.
        to: SyncProtocol,
        /// Why the controller is switching.
        reason: String,
    },
    /// The segment diverged: restore the best-loss checkpoint, re-run the
    /// segment under BSP, and pin BSP for the rest of the run.
    Rollback {
        /// Why the controller is rolling back.
        reason: String,
    },
}

impl SyncDecision {
    /// The human-readable reason, whichever arm this is.
    pub fn reason(&self) -> &str {
        match self {
            SyncDecision::Hold { reason }
            | SyncDecision::Switch { reason, .. }
            | SyncDecision::Rollback { reason } => reason,
        }
    }
}

/// One applied decision, as recorded in [`SyncController::decisions`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Zero-based index of the segment the decision observed.
    pub segment: u64,
    /// Protocol the segment ran under (BSP for a rolled-back segment: its
    /// BSP re-run is what the segment returned).
    pub from: SyncProtocol,
    /// Protocol the next segment will run under.
    pub to: SyncProtocol,
    /// The SSP bound as retuned after this segment.
    pub ssp_bound: u64,
    /// Why.
    pub reason: String,
    /// What the decision was taken on.
    pub signals: ScrapedSignals,
    /// Global step of the checkpoint a rollback restored; `None` unless
    /// the decision was a [`SyncDecision::Rollback`].
    pub rolled_back_to: Option<u64>,
}

impl DecisionRecord {
    /// Whether this decision changed the protocol.
    pub fn switched(&self) -> bool {
        self.from != self.to
    }
}

/// The closed loop: wraps segment execution, scrapes the bus, decides, and
/// actuates switches and rollbacks through [`execute_switch`].
///
/// The rollback target is the checkpoint of the **best** segment, not the
/// most recent passing one: a segment can clear the blow-up check while
/// its parameters are already destabilizing, and rolling back to such a
/// state would hand the demoted BSP re-run a poisoned starting point.
/// Rolling back to the best loss costs more replayed steps but guarantees
/// the re-run starts from a state that demonstrably trained well. The
/// state the controller first sees is the target until a segment sets a
/// best, so even a first-segment blow-up has somewhere to go.
#[derive(Debug)]
pub struct SyncController {
    cfg: ControllerConfig,
    /// Best (lowest) finite tail loss seen across segments.
    best_loss: f32,
    /// Rollback target: the trainer's checkpoint at `best_loss`; `None`
    /// until the first [`SyncController::run_segment`].
    rollback_target: Option<Checkpoint>,
    /// Once true, every segment runs under BSP.
    demoted: bool,
    /// Rollbacks carried out.
    trips: u32,
    /// Segments observed so far.
    segments: u64,
    /// Current retuned SSP bound.
    ssp_bound: u64,
    decisions: Vec<DecisionRecord>,
}

impl Default for SyncController {
    fn default() -> Self {
        SyncController::new(ControllerConfig::default())
    }
}

impl SyncController {
    /// A controller with the given policy, no observations yet.
    pub fn new(cfg: ControllerConfig) -> Self {
        SyncController {
            cfg,
            best_loss: f32::INFINITY,
            rollback_target: None,
            demoted: false,
            trips: 0,
            segments: 0,
            ssp_bound: 1,
            decisions: Vec::new(),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Every decision taken so far, in order.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// The current SSP staleness bound, retuned from the measured
    /// `engine.staleness` distribution.
    pub fn ssp_bound(&self) -> u64 {
        self.ssp_bound
    }

    /// Whether a rollback has pinned the run to BSP for good.
    pub fn watchdog_demoted(&self) -> bool {
        self.demoted
    }

    /// Rollbacks carried out so far.
    pub fn watchdog_trips(&self) -> u32 {
        self.trips
    }

    /// The pure policy: maps one segment's scraped signals to a decision.
    /// Deterministic — the same `(current, signals)` against the same
    /// controller state always yields the same decision; there is no clock,
    /// randomness, or hidden input.
    ///
    /// The rules apply in order: a non-finite segment rolls back; after a
    /// rollback every other segment holds; a loss over [`BLOWUP_FACTOR`] ×
    /// best rolls back; then the promote/demote rules of `current`.
    pub fn decide(&self, current: SyncProtocol, s: &ScrapedSignals) -> SyncDecision {
        if !s.final_loss.is_finite() {
            return SyncDecision::Rollback {
                reason: format!("non-finite segment under {current}"),
            };
        }
        if self.demoted {
            return SyncDecision::Hold {
                reason: format!(
                    "watchdog demoted the run ({} rollback(s)); BSP is final",
                    self.trips
                ),
            };
        }
        let best = self.best_loss.max(LOSS_FLOOR);
        if s.final_loss > BLOWUP_FACTOR * best {
            return SyncDecision::Rollback {
                reason: format!(
                    "loss {:.4} under {current} blew past {BLOWUP_FACTOR:.2} x best {best:.4}",
                    s.final_loss
                ),
            };
        }
        match current {
            SyncProtocol::Bsp => {
                if self.segments < WARMUP_SEGMENTS {
                    return SyncDecision::Hold {
                        reason: format!(
                            "warming up: observed segment {} of {WARMUP_SEGMENTS} before first \
                             decision",
                            self.segments + 1
                        ),
                    };
                }
                if s.retries_over(self.cfg.demote_retry_limit) {
                    return SyncDecision::Hold {
                        reason: format!(
                            "wire.retries {} in {} requests over limit {} per mille; holding BSP",
                            s.retries, s.requests, self.cfg.demote_retry_limit
                        ),
                    };
                }
                let frac = s.barrier_fraction();
                if frac < self.cfg.promote_barrier_frac {
                    return SyncDecision::Hold {
                        reason: format!(
                            "barrier-wait fraction {frac:.3} below promote threshold {:.3}",
                            self.cfg.promote_barrier_frac
                        ),
                    };
                }
                if !self.best_loss.is_finite() {
                    return SyncDecision::Hold {
                        reason: "no finite best loss yet; loss stability unknown".into(),
                    };
                }
                if s.final_loss > PROMOTE_LOSS_SLACK * best {
                    return SyncDecision::Hold {
                        reason: format!(
                            "loss {:.4} not stable against best {best:.4} \
                             (slack {PROMOTE_LOSS_SLACK:.2})",
                            s.final_loss
                        ),
                    };
                }
                SyncDecision::Switch {
                    to: SyncProtocol::Asp,
                    reason: format!(
                        "barrier-wait fraction {frac:.3} >= {:.3} with stable loss \
                         {:.4} <= {PROMOTE_LOSS_SLACK:.2} x best {best:.4}",
                        self.cfg.promote_barrier_frac, s.final_loss
                    ),
                }
            }
            SyncProtocol::Asp => {
                if s.retries_over(self.cfg.demote_retry_limit) {
                    return SyncDecision::Switch {
                        to: SyncProtocol::Bsp,
                        reason: format!(
                            "wire.retries {} in {} requests over limit {} per mille under ASP",
                            s.retries, s.requests, self.cfg.demote_retry_limit
                        ),
                    };
                }
                if s.final_loss > DEMOTE_LOSS_FACTOR * best {
                    return SyncDecision::Switch {
                        to: SyncProtocol::Bsp,
                        reason: format!(
                            "divergence risk: loss {:.4} over {DEMOTE_LOSS_FACTOR:.2} x best \
                             {best:.4}",
                            s.final_loss
                        ),
                    };
                }
                let staleness = s.mean_staleness();
                if s.staleness_count > 0 && staleness > DEMOTE_STALENESS_LIMIT {
                    return SyncDecision::Switch {
                        to: SyncProtocol::Bsp,
                        reason: format!(
                            "mean engine.staleness {staleness:.2} over limit \
                             {DEMOTE_STALENESS_LIMIT:.2}"
                        ),
                    };
                }
                SyncDecision::Hold {
                    reason: format!(
                        "ASP healthy: loss {:.4}, mean staleness {staleness:.2}, \
                         {} wire retries",
                        s.final_loss, s.retries
                    ),
                }
            }
        }
    }

    /// Runs one segment of `steps` under the trainer's current protocol
    /// (BSP once a rollback pinned it), scrapes the segment's signals off
    /// the bus, decides, and carries the decision out before returning.
    /// The decision is appended to [`SyncController::decisions`].
    ///
    /// A switch is emitted as a [`TraceKind::ProtocolSwitch`] event with the
    /// reason. A rollback counts `watchdog.rollbacks`, emits a
    /// [`TraceKind::WatchdogRollback`] naming the restored step plus the
    /// `protocol_switch` to BSP, restores the best-loss checkpoint, switches
    /// to BSP with velocity reset (the stale momentum is part of what blew
    /// up), and returns the report of the segment re-run under BSP.
    ///
    /// # Errors
    ///
    /// Anything the segment, the restore or the switch actuator returns
    /// other than a divergence of the segment itself, and
    /// [`PsError::Diverged`] when the BSP re-run diverges too.
    pub fn run_segment(
        &mut self,
        trainer: &mut Trainer,
        steps: u64,
    ) -> Result<SegmentReport, PsError> {
        if self.rollback_target.is_none() {
            self.rollback_target = Some(trainer.checkpoint());
        }
        let current = if self.demoted {
            SyncProtocol::Bsp
        } else {
            trainer.protocol()
        };
        let before = trainer.bus().metrics.snapshot();
        let outcome = match trainer.run_segment(current, steps) {
            Ok(report) => Some(report),
            Err(PsError::Diverged { .. }) => None,
            Err(e) => return Err(e),
        };
        let after = trainer.bus().metrics.snapshot();
        let signals = ScrapedSignals::between(&before, &after, outcome.as_ref());
        let decision = self.decide(current, &signals);

        // Retune the SSP bound from the measured staleness distribution.
        if signals.staleness_count > 0 {
            let tuned = signals.mean_staleness().ceil() as u64 + SSP_MARGIN;
            self.ssp_bound = tuned.clamp(1, MAX_SSP_BOUND);
        }

        let (report, from, to, rolled_back_to) = match (outcome, &decision) {
            (Some(report), SyncDecision::Hold { .. }) => {
                self.adopt_if_best(trainer, &report);
                (report, current, current, None)
            }
            (Some(report), SyncDecision::Switch { to, reason }) => {
                // Adopt before switching: a demotion resets the velocity
                // the rollback target should keep.
                self.adopt_if_best(trainer, &report);
                let bus = trainer.bus();
                bus.metrics.counter("controller.switches").inc();
                bus.trace.instant(TraceKind::ProtocolSwitch {
                    from: current.to_string(),
                    to: to.to_string(),
                    reason: reason.clone(),
                });
                // Demotion resets velocity (stale momentum is part of the
                // risk being fled); promotion keeps it.
                let reset = *to == SyncProtocol::Bsp;
                let plan = SwitchPlan::keep_hyper(trainer.config(), *to, reset);
                execute_switch(trainer, &plan)?;
                (report, current, *to, None)
            }
            // `decide` rolls back every segment that diverged.
            _ => {
                let (report, step) = self.roll_back(trainer, current, steps, decision.reason())?;
                (report, SyncProtocol::Bsp, SyncProtocol::Bsp, Some(step))
            }
        };
        self.decisions.push(DecisionRecord {
            segment: self.segments,
            from,
            to,
            ssp_bound: self.ssp_bound,
            reason: decision.reason().to_string(),
            signals,
            rolled_back_to,
        });
        self.segments += 1;
        Ok(report)
    }

    /// Carries out a [`SyncDecision::Rollback`] of a segment of `steps` that
    /// ran under `from`; returns the BSP re-run's report and the step of the
    /// restored checkpoint.
    fn roll_back(
        &mut self,
        trainer: &mut Trainer,
        from: SyncProtocol,
        steps: u64,
        reason: &str,
    ) -> Result<(SegmentReport, u64), PsError> {
        self.trips += 1;
        self.demoted = true;
        let target = (self.rollback_target.as_ref())
            .expect("run_segment sets a rollback target before any segment runs");
        let to_step = target.step;
        let bus = trainer.bus();
        bus.metrics.counter("watchdog.rollbacks").inc();
        bus.trace.instant(TraceKind::WatchdogRollback {
            trips: u64::from(self.trips),
            to_step,
        });
        bus.trace.instant(TraceKind::ProtocolSwitch {
            from: from.to_string(),
            to: SyncProtocol::Bsp.to_string(),
            reason: format!(
                "watchdog trip #{}: {reason}; rolling back to step {to_step} (best loss {:.4})",
                self.trips, self.best_loss
            ),
        });
        trainer.restore(target)?;
        let plan = SwitchPlan::keep_hyper(trainer.config(), SyncProtocol::Bsp, true);
        execute_switch(trainer, &plan)?;
        // There is nowhere left to roll back to: a re-run that diverges
        // fails the call.
        let report = trainer.run_segment(SyncProtocol::Bsp, steps)?;
        self.adopt_if_best(trainer, &report);
        Ok((report, to_step))
    }

    /// Adopts a passing segment's endpoint as the best loss and rollback
    /// target when its tail loss is the new best.
    fn adopt_if_best(&mut self, trainer: &Trainer, report: &SegmentReport) {
        if report.steps > 0 && report.final_loss <= self.best_loss {
            self.best_loss = report.final_loss;
            self.rollback_target = Some(trainer.checkpoint());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServerTopology, TrainerConfig, TransportKind};
    use crate::deadline::deadline;
    use crate::transport::wire::op;
    use proptest::prelude::*;
    use sync_switch_nn::{Dataset, Network};

    fn trainer(lr: f64) -> Trainer {
        trainer_on(lr, ServerTopology::single())
    }

    fn trainer_on(lr: f64, topology: ServerTopology) -> Trainer {
        let data = Dataset::gaussian_blobs(4, 96, 6, 0.35, 11);
        let (train, test) = data.split(0.25);
        Trainer::new(
            Network::mlp(6, &[12], 4, 11),
            train,
            test,
            TrainerConfig::new(3, 8, lr, 0.9).with_topology(topology),
        )
    }

    /// A controller mid-run: warmed up, with a finite best loss.
    fn primed(cfg: ControllerConfig) -> SyncController {
        let mut c = SyncController::new(cfg);
        c.best_loss = 0.5;
        c.segments = 3;
        c
    }

    fn signals() -> ScrapedSignals {
        ScrapedSignals {
            step_ns: 600,
            barrier_ns: 400,
            staleness_count: 10,
            staleness_sum: 20,
            retries: 0,
            requests: 80,
            sync_rounds: 4,
            final_loss: 0.48,
        }
    }

    /// Poisons the live parameters with a NaN so the next segment returns
    /// `PsError::Diverged` deterministically — the controller sees exactly
    /// what a real blow-up produces, without needing a learning rate that
    /// also destabilizes the BSP re-run.
    fn poison(t: &mut Trainer) {
        let mut ck = t.checkpoint();
        ck.params[0] = f32::NAN;
        t.restore(&ck).expect("poisoned restore");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The rule order of `decide`, over arbitrary signals and
        /// controller state: the rollback rule first, then the pin, then
        /// today's promote/demote rules of the current protocol.
        #[test]
        fn decide_applies_its_rules_in_order(
            step_ns in 0u64..1_000_000,
            barrier_ns in 0u64..1_000_000,
            staleness_count in 0u64..64,
            staleness_sum in 0u64..2_048,
            retries in 0u64..8,
            requests in 0u64..2_048,
            loss_pick in any::<u8>(),
            loss in 0.0f32..8.0,
            best in 0.0f32..2.0,
            segments in 0u64..3,
            state in any::<u8>(),
        ) {
            let s = ScrapedSignals {
                step_ns,
                barrier_ns,
                staleness_count,
                staleness_sum,
                retries,
                requests,
                sync_rounds: 0,
                final_loss: match loss_pick % 8 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    _ => loss,
                },
            };
            let mut c = SyncController::new(ControllerConfig::default());
            c.best_loss = if state & 1 == 0 { best } else { f32::INFINITY };
            c.segments = segments;
            c.demoted = state & 2 != 0;
            let current = if state & 4 == 0 { SyncProtocol::Bsp } else { SyncProtocol::Asp };
            let d = c.decide(current, &s);
            prop_assert_eq!(&d, &c.decide(current, &s));

            let cfg = c.cfg;
            let best = c.best_loss.max(LOSS_FLOOR);
            let non_finite = !s.final_loss.is_finite();
            let blown = s.final_loss > BLOWUP_FACTOR * best;
            let rollback = matches!(d, SyncDecision::Rollback { .. });
            prop_assert_eq!(rollback, non_finite || (!c.demoted && blown), "{:?}", d);
            if rollback {
                return Ok(());
            }
            if c.demoted {
                prop_assert!(matches!(d, SyncDecision::Hold { .. }), "{:?}", d);
                return Ok(());
            }
            let (switch, to) = match current {
                SyncProtocol::Bsp => (
                    c.segments >= WARMUP_SEGMENTS
                        && s.retries * 1000 <= cfg.demote_retry_limit * s.requests
                        && s.barrier_fraction() >= cfg.promote_barrier_frac
                        && c.best_loss.is_finite()
                        && s.final_loss <= PROMOTE_LOSS_SLACK * best,
                    SyncProtocol::Asp,
                ),
                SyncProtocol::Asp => (
                    s.retries * 1000 > cfg.demote_retry_limit * s.requests
                        || s.final_loss > DEMOTE_LOSS_FACTOR * best
                        || (s.staleness_count > 0
                            && s.mean_staleness() > DEMOTE_STALENESS_LIMIT),
                    SyncProtocol::Bsp,
                ),
            };
            if switch {
                prop_assert!(matches!(&d, SyncDecision::Switch { to: t, .. } if *t == to), "{:?}", d);
            } else {
                prop_assert!(matches!(d, SyncDecision::Hold { .. }), "{:?}", d);
            }
            // The divergence-risk band demotes without rolling back.
            if current == SyncProtocol::Asp && s.final_loss > DEMOTE_LOSS_FACTOR * best {
                prop_assert!(switch);
            }
        }
    }

    /// The rules above run on the values every controller ran on when
    /// they were still configurable, so a default policy decides as it
    /// always did.
    #[test]
    fn the_rule_constants_keep_the_former_defaults() {
        assert_eq!(
            ControllerConfig::default(),
            ControllerConfig {
                promote_barrier_frac: 0.25,
                demote_retry_limit: 4,
            }
        );
        assert_eq!(
            (
                WARMUP_SEGMENTS,
                SSP_MARGIN,
                MAX_SSP_BOUND,
                DEMOTE_STALENESS_LIMIT
            ),
            (1, 1, 32, 16.0)
        );
        assert_eq!(
            (
                PROMOTE_LOSS_SLACK,
                DEMOTE_LOSS_FACTOR,
                BLOWUP_FACTOR,
                LOSS_FLOOR
            ),
            (1.25, 3.0, 4.0, 0.05)
        );
    }

    #[test]
    fn policy_maps_signals_to_the_documented_decisions() {
        let c = primed(ControllerConfig::default());
        // Barrier-dominated + stable loss: promote, with a reason naming
        // the signal.
        match c.decide(SyncProtocol::Bsp, &signals()) {
            SyncDecision::Switch { to, reason } => {
                assert_eq!(to, SyncProtocol::Asp);
                assert!(reason.contains("barrier-wait fraction"), "{reason}");
            }
            other => panic!("expected promote, got {other:?}"),
        }
        // Low barrier fraction: hold.
        let low = ScrapedSignals {
            barrier_ns: 10,
            ..signals()
        };
        assert!(matches!(
            c.decide(SyncProtocol::Bsp, &low),
            SyncDecision::Hold { .. }
        ));
        // Wire distress under ASP: demote on retries.
        let retried = ScrapedSignals {
            retries: 99,
            ..signals()
        };
        match c.decide(SyncProtocol::Asp, &retried) {
            SyncDecision::Switch { to, reason } => {
                assert_eq!(to, SyncProtocol::Bsp);
                assert!(reason.contains("wire.retries"), "{reason}");
            }
            other => panic!("expected demote, got {other:?}"),
        }
        // The limit is a rate: one retry in 80 requests demotes, one in
        // 1000 does not.
        let rare = |requests| ScrapedSignals {
            retries: 1,
            requests,
            ..signals()
        };
        assert!(matches!(
            c.decide(SyncProtocol::Asp, &rare(80)),
            SyncDecision::Switch { .. }
        ));
        assert!(matches!(
            c.decide(SyncProtocol::Asp, &rare(1000)),
            SyncDecision::Hold { .. }
        ));
        // Loss risk under ASP, short of a blow-up: demote.
        let risky = ScrapedSignals {
            final_loss: 1.8,
            ..signals()
        };
        match c.decide(SyncProtocol::Asp, &risky) {
            SyncDecision::Switch { to, reason } => {
                assert_eq!(to, SyncProtocol::Bsp);
                assert!(reason.contains("divergence risk"), "{reason}");
            }
            other => panic!("expected demote, got {other:?}"),
        }
        // A blow-up under either protocol: roll back.
        let blown = ScrapedSignals {
            final_loss: 40.0,
            ..signals()
        };
        for current in [SyncProtocol::Bsp, SyncProtocol::Asp] {
            match c.decide(current, &blown) {
                SyncDecision::Rollback { reason } => {
                    assert!(reason.contains("blew past"), "{reason}");
                }
                other => panic!("expected rollback, got {other:?}"),
            }
        }
        // Excessive measured staleness under ASP: demote.
        let stale = ScrapedSignals {
            staleness_sum: 900,
            ..signals()
        };
        match c.decide(SyncProtocol::Asp, &stale) {
            SyncDecision::Switch { to, reason } => {
                assert_eq!(to, SyncProtocol::Bsp);
                assert!(reason.contains("engine.staleness"), "{reason}");
            }
            other => panic!("expected demote, got {other:?}"),
        }
        // Healthy ASP: hold.
        assert!(matches!(
            c.decide(SyncProtocol::Asp, &signals()),
            SyncDecision::Hold { .. }
        ));
    }

    #[test]
    fn warmup_blocks_the_first_promote() {
        let mut c = primed(ControllerConfig::default());
        c.segments = 0;
        match c.decide(SyncProtocol::Bsp, &signals()) {
            SyncDecision::Hold { reason } => assert!(reason.contains("warming up"), "{reason}"),
            other => panic!("expected warmup hold, got {other:?}"),
        }
    }

    #[test]
    fn closed_loop_promotes_and_records_the_reason() {
        // In-process plane: barrier waits are real (workers block on the
        // BSP barrier), so a low promote threshold is reached and the
        // controller drives the BSP→ASP switch itself.
        let mut t = trainer(0.05);
        let cfg = ControllerConfig {
            promote_barrier_frac: 0.0,
            ..ControllerConfig::default()
        };
        let mut c = SyncController::new(cfg);
        c.run_segment(&mut t, 20).expect("warm-up segment");
        assert_eq!(t.protocol(), SyncProtocol::Bsp, "warmup must hold");
        c.run_segment(&mut t, 20).expect("deciding segment");
        assert_eq!(
            t.protocol(),
            SyncProtocol::Asp,
            "stable loss + barrier-dominated BSP must promote"
        );
        let switch = c
            .decisions()
            .iter()
            .find(|d| d.switched())
            .expect("a switch decision recorded");
        assert_eq!(switch.from, SyncProtocol::Bsp);
        assert_eq!(switch.to, SyncProtocol::Asp);
        assert!(switch.reason.contains("barrier-wait fraction"));
        // The record carries what it was decided on.
        assert!(switch.signals.final_loss.is_finite() && switch.signals.barrier_ns > 0);
        assert_eq!(switch.rolled_back_to, None);
        // The switch landed on the bus with its reason.
        let bus = t.bus();
        let counts = bus.trace.counts_by_name();
        assert!(counts.get("protocol_switch").copied().unwrap_or(0) >= 1);
        assert!(bus
            .trace
            .chrome_trace_json(0)
            .contains("barrier-wait fraction"));
        let snap = bus.metrics.snapshot();
        assert!(
            snap.counters
                .get("controller.switches")
                .copied()
                .unwrap_or(0)
                >= 1
        );
        // The next segment runs under the promoted protocol and its
        // measured staleness retunes the SSP bound.
        let r = c.run_segment(&mut t, 20).expect("promoted segment");
        assert_eq!(r.protocol, SyncProtocol::Asp);
        assert!(c.ssp_bound() >= 1);
    }

    /// The controller decides on what its segments already reported, so it
    /// sends no server a `STATS` request of its own: the one each server
    /// counts is this test's scrape.
    #[test]
    fn segments_under_the_controller_scrape_no_server() {
        let _deadline = deadline(60);
        let topology = ServerTopology::new(2, 1).with_transport(TransportKind::Channel);
        let mut t = trainer_on(0.05, topology);
        let mut c = SyncController::default();
        for _ in 0..3 {
            c.run_segment(&mut t, 10).expect("segment");
        }
        let router = t.net_router().expect("a wire plane");
        for s in 0..2 {
            let stats = router.scrape_stats(s).expect("scrape");
            assert_eq!(stats.requests_for(op::STATS), 1, "server {s}");
        }
    }

    #[test]
    fn a_healthy_segment_passes_untouched() {
        let mut t = trainer(0.05);
        t.run_segment(SyncProtocol::Asp, 0).expect("enter ASP");
        let mut c = SyncController::default();
        let r = c.run_segment(&mut t, 30).expect("healthy segment");
        assert_eq!(r.protocol, SyncProtocol::Asp);
        assert_eq!(t.protocol(), SyncProtocol::Asp);
        assert!(!c.watchdog_demoted());
        assert_eq!(c.watchdog_trips(), 0);
        assert_eq!(t.global_step(), 30);
    }

    #[test]
    fn lr_30_asp_divergence_demotes_and_completes() {
        // Warm up at a healthy rate so the controller holds a good
        // checkpoint, then raise the rate to one where ASP's stale
        // momentum updates blow up while synchronous averaged updates
        // hold — the paper's experiment-setup-3 regime.
        let mut t = trainer(0.05);
        t.run_segment(SyncProtocol::Asp, 0).expect("enter ASP");
        let mut c = SyncController::default();
        c.run_segment(&mut t, 30).expect("warm-up segment");
        assert!(!c.watchdog_demoted());
        let mut cfg = t.config().clone();
        cfg.learning_rate = 30.0;
        t.set_config(cfg).expect("reconfigure");
        for _ in 0..6 {
            let r = c
                .run_segment(&mut t, 40)
                .expect("the controller must absorb the divergence");
            if c.watchdog_demoted() {
                assert_eq!(r.protocol, SyncProtocol::Bsp, "pinned runs are BSP");
            }
        }
        assert!(c.watchdog_demoted(), "lr 30 ASP never rolled back");
        assert!(t.check_finite(), "final parameters must be finite");
        assert_eq!(t.protocol(), SyncProtocol::Bsp);
        // Every trip left a rollback event, and every executed switch — the
        // controller's and each trip's — a protocol_switch event.
        let bus = t.bus();
        let counts = bus.trace.counts_by_name();
        let snap = bus.metrics.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let trips = u64::from(c.watchdog_trips());
        assert_eq!(counts.get("watchdog_rollback"), Some(&trips));
        assert_eq!(counter("watchdog.rollbacks"), trips);
        assert_eq!(
            counts.get("protocol_switch").copied(),
            Some(trips + counter("controller.switches"))
        );
    }

    #[test]
    fn rollback_pins_bsp_forever() {
        // Poison the parameters so the rollback rule trips
        // deterministically; afterwards every decision holds BSP.
        let mut t = trainer(0.05);
        let cfg = ControllerConfig {
            promote_barrier_frac: 0.0,
            ..ControllerConfig::default()
        };
        let mut c = SyncController::new(cfg);
        c.run_segment(&mut t, 20).expect("healthy segment");
        poison(&mut t);
        c.run_segment(&mut t, 20)
            .expect("rollback absorbs the blow-up");
        assert!(c.watchdog_demoted());
        assert_eq!(c.watchdog_trips(), 1);
        assert_eq!(t.protocol(), SyncProtocol::Bsp);
        let trip = c.decisions().last().expect("decisions recorded");
        assert!(!trip.switched(), "a rollback record is BSP -> BSP");
        assert!(trip.signals.final_loss.is_nan());
        // Even with promote conditions trivially satisfiable, demotion is
        // final.
        for _ in 0..2 {
            c.run_segment(&mut t, 20).expect("post-demotion segment");
            assert_eq!(t.protocol(), SyncProtocol::Bsp);
        }
        let last = c.decisions().last().expect("decisions recorded");
        assert!(!last.switched());
        assert!(last.reason.contains("watchdog"), "{}", last.reason);
    }

    #[test]
    fn second_trip_rolls_back_to_the_post_demotion_checkpoint() {
        // The BSP re-run is judged, and its endpoint adopted as the new
        // rollback target — so a second trip does not roll back to the
        // stale pre-demotion checkpoint and replay every post-demotion
        // step.
        let mut t = trainer(0.05);
        t.run_segment(SyncProtocol::Asp, 0).expect("enter ASP");
        let mut c = SyncController::default();
        c.run_segment(&mut t, 30).expect("warm-up segment");
        assert_eq!(t.global_step(), 30);

        // Trip 1: rollback to the step-30 checkpoint, 40-step BSP re-run.
        poison(&mut t);
        c.run_segment(&mut t, 40).expect("first trip absorbed");
        assert_eq!(c.watchdog_trips(), 1);
        assert_eq!(t.global_step(), 70);
        assert_eq!(c.decisions()[1].rolled_back_to, Some(30));

        // Trip 2: the rollback target must be the judged re-run's endpoint
        // (step 70, training at the healthy rate kept improving the loss),
        // not the stale step-30 checkpoint.
        poison(&mut t);
        c.run_segment(&mut t, 40).expect("second trip absorbed");
        assert_eq!(c.watchdog_trips(), 2);
        assert_eq!(c.decisions()[2].rolled_back_to, Some(70));
        assert_eq!(
            t.global_step(),
            110,
            "second trip replayed from the stale pre-demotion checkpoint"
        );
    }
}
