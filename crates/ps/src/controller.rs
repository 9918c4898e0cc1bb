//! The online adaptive sync controller: the closed loop over the telemetry
//! bus.
//!
//! The paper's Sync-Switch policy picks its BSP→ASP switch point *offline*
//! (timer or loss threshold decided before the run). This module closes the
//! loop online, in the spirit of the follow-up ACE-Sync direction: after
//! every segment the controller scrapes the **already-emitted named
//! signals** — the `engine.step_ns` / `engine.barrier_wait_ns` /
//! `engine.staleness` histograms, the `wire.retries` / `wire.sync_rounds`
//! counters, the `watchdog.rollbacks` counter, per-server reachability from
//! [`NetRouter::scrape_all_stats`], and the loss trajectory — and decides
//! whether to promote BSP→ASP (barrier-dominated and loss stable), demote
//! ASP→BSP (wire distress or divergence risk), or hold. There is no side
//! channel: every input to [`SyncController::decide`] is a signal any
//! telemetry scraper could read off the bus.
//!
//! Switches go through the same actuator as everything else —
//! [`execute_switch`] with a [`SwitchPlan`] — and every decision lands as a
//! [`TraceKind::ProtocolSwitch`] event carrying the human-readable reason.
//! The [`DivergenceWatchdog`] is absorbed as the controller's safety net:
//! segments run under it, and once it demotes, the controller holds BSP
//! forever (the hot-learning-rate specimen stays safe).
//!
//! The controller also retunes the SSP staleness bound from the measured
//! `engine.staleness` distribution: [`SyncController::ssp_bound`] tracks
//! `ceil(mean staleness) + margin`, clamped, so an SSP tier can be driven
//! with a bound grounded in what the cluster actually exhibits.

use sync_switch_telemetry::{MetricsSnapshot, TraceKind};
use sync_switch_workloads::SyncProtocol;

use crate::engine::{SegmentReport, Trainer};
use crate::error::PsError;
use crate::switcher::{execute_switch, SwitchPlan};
use crate::watchdog::{DivergenceWatchdog, WatchdogConfig};

/// Tuning for [`SyncController`]. Every threshold is expressed against a
/// named telemetry signal so a decision can always be traced back to the
/// scrape that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Segments to observe before the first promote decision — the loss
    /// trajectory needs at least one finite best before "stable" means
    /// anything.
    pub warmup_segments: u64,
    /// Promote BSP→ASP when the segment's barrier-wait fraction
    /// (`engine.barrier_wait_ns / (engine.barrier_wait_ns +
    /// engine.step_ns)`) reaches this value.
    pub promote_barrier_frac: f64,
    /// Promotion also requires the segment's tail loss to sit within this
    /// slack factor of the best loss so far (loss stable, not recovering).
    pub promote_loss_slack: f32,
    /// Demote ASP→BSP when a segment's `wire.retries` delta exceeds this;
    /// under BSP the same signal blocks promotion.
    pub demote_retry_limit: u64,
    /// Demote ASP→BSP when the segment's tail loss exceeds this factor of
    /// the best loss — a divergence-risk trigger deliberately tighter than
    /// the watchdog's blow-up factor, so the controller usually acts first.
    pub demote_loss_factor: f32,
    /// Demote ASP→BSP when the measured mean `engine.staleness` exceeds
    /// this.
    pub demote_staleness_limit: f64,
    /// Floor applied to the best loss in the stability and divergence
    /// checks, so noise around an already-tiny loss cannot flip decisions.
    pub loss_floor: f32,
    /// Retuned SSP bound = `ceil(mean staleness) + ssp_margin`.
    pub ssp_margin: u64,
    /// Clamp for the retuned SSP bound.
    pub max_ssp_bound: u64,
    /// Thresholds for the embedded safety-net watchdog.
    pub watchdog: WatchdogConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            warmup_segments: 1,
            promote_barrier_frac: 0.25,
            promote_loss_slack: 1.25,
            demote_retry_limit: 4,
            demote_loss_factor: 3.0,
            demote_staleness_limit: 16.0,
            loss_floor: 0.05,
            ssp_margin: 1,
            max_ssp_bound: 32,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// One segment's worth of scraped signals — deltas of the named metrics
/// over the segment, plus the loss trajectory endpoint. This is the
/// **entire** input to [`SyncController::decide`]; building it from a
/// metrics snapshot pair is [`ScrapedSignals::between`].
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
    /// `wire.sync_rounds` counter delta.
    pub sync_rounds: u64,
    /// `watchdog.rollbacks` counter delta.
    pub rollbacks: u64,
    /// Servers that failed the end-of-segment stats scrape
    /// ([`NetRouter::scrape_all_stats`] returned `None` for them); zero on
    /// an in-process plane.
    pub unreachable_servers: usize,
    /// Tail loss of the segment (the loss trajectory endpoint).
    pub final_loss: f32,
    /// Whether the segment's finiteness check passed.
    pub finite: bool,
}

impl ScrapedSignals {
    /// Deltas of the named signals between two metrics snapshots.
    /// `final_loss` / `finite` come from the segment report (the loss
    /// trajectory is itself an emitted signal — `SegmentReport` is what the
    /// report sinks serialize); `unreachable_servers` from the router
    /// scrape.
    pub fn between(
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        report: &SegmentReport,
        unreachable_servers: usize,
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
            sync_rounds: counter("wire.sync_rounds"),
            rollbacks: counter("watchdog.rollbacks"),
            unreachable_servers,
            final_loss: report.final_loss,
            finite: report.finite,
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
}

impl SyncDecision {
    /// The human-readable reason, whichever arm this is.
    pub fn reason(&self) -> &str {
        match self {
            SyncDecision::Hold { reason } | SyncDecision::Switch { reason, .. } => reason,
        }
    }
}

/// One applied decision, as recorded in [`SyncController::decisions`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Zero-based index of the segment the decision observed.
    pub segment: u64,
    /// Protocol the segment ran under (after any watchdog demotion).
    pub from: SyncProtocol,
    /// Protocol the next segment will run under.
    pub to: SyncProtocol,
    /// The SSP bound as retuned after this segment.
    pub ssp_bound: u64,
    /// Why.
    pub reason: String,
}

impl DecisionRecord {
    /// Whether this decision changed the protocol.
    pub fn switched(&self) -> bool {
        self.from != self.to
    }
}

/// The closed loop: wraps segment execution, scrapes the bus, decides, and
/// actuates switches through [`execute_switch`].
///
/// Segments run under the embedded [`DivergenceWatchdog`], so a blow-up
/// inside a segment is rolled back and demoted before the controller even
/// sees the report; once the watchdog has demoted, the controller holds BSP
/// for the rest of the run.
#[derive(Debug)]
pub struct SyncController {
    cfg: ControllerConfig,
    watchdog: DivergenceWatchdog,
    /// Best (lowest) finite tail loss seen across segments.
    best_loss: f32,
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
            watchdog: DivergenceWatchdog::new(cfg.watchdog),
            cfg,
            best_loss: f32::INFINITY,
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

    /// Whether the embedded watchdog has demoted the run to BSP for good.
    pub fn watchdog_demoted(&self) -> bool {
        self.watchdog.demoted()
    }

    /// Divergences the embedded watchdog absorbed.
    pub fn watchdog_trips(&self) -> u32 {
        self.watchdog.trips()
    }

    /// The pure policy: maps one segment's scraped signals to a decision.
    /// Deterministic — the same `(current, signals)` against the same
    /// controller state always yields the same decision; there is no clock,
    /// randomness, or hidden input.
    pub fn decide(&self, current: SyncProtocol, s: &ScrapedSignals) -> SyncDecision {
        if self.watchdog.demoted() || s.rollbacks > 0 {
            return SyncDecision::Hold {
                reason: format!(
                    "watchdog demoted the run ({} rollback event(s)); BSP is final",
                    s.rollbacks
                ),
            };
        }
        if !s.finite || !s.final_loss.is_finite() {
            // The watchdog absorbs non-finite segments before the
            // controller sees them; if one leaks through anyway, take the
            // safe course.
            return match current {
                SyncProtocol::Bsp => SyncDecision::Hold {
                    reason: "non-finite segment under BSP; holding".into(),
                },
                SyncProtocol::Asp => SyncDecision::Switch {
                    to: SyncProtocol::Bsp,
                    reason: "non-finite segment loss under ASP".into(),
                },
            };
        }
        let best = self.best_loss.max(self.cfg.loss_floor);
        match current {
            SyncProtocol::Bsp => {
                if self.segments < self.cfg.warmup_segments {
                    return SyncDecision::Hold {
                        reason: format!(
                            "warming up: observed segment {} of {} before first decision",
                            self.segments + 1,
                            self.cfg.warmup_segments
                        ),
                    };
                }
                if s.unreachable_servers > 0 {
                    return SyncDecision::Hold {
                        reason: format!(
                            "{} server(s) unreachable at scrape; holding BSP",
                            s.unreachable_servers
                        ),
                    };
                }
                if s.retries > self.cfg.demote_retry_limit {
                    return SyncDecision::Hold {
                        reason: format!(
                            "wire.retries {} over limit {}; holding BSP",
                            s.retries, self.cfg.demote_retry_limit
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
                if s.final_loss > self.cfg.promote_loss_slack * best {
                    return SyncDecision::Hold {
                        reason: format!(
                            "loss {:.4} not stable against best {:.4} (slack {:.2})",
                            s.final_loss, best, self.cfg.promote_loss_slack
                        ),
                    };
                }
                SyncDecision::Switch {
                    to: SyncProtocol::Asp,
                    reason: format!(
                        "barrier-wait fraction {frac:.3} >= {:.3} with stable loss \
                         {:.4} <= {:.2} x best {:.4}",
                        self.cfg.promote_barrier_frac,
                        s.final_loss,
                        self.cfg.promote_loss_slack,
                        best
                    ),
                }
            }
            SyncProtocol::Asp => {
                if s.unreachable_servers > 0 {
                    return SyncDecision::Switch {
                        to: SyncProtocol::Bsp,
                        reason: format!(
                            "{} server(s) unreachable at scrape under ASP",
                            s.unreachable_servers
                        ),
                    };
                }
                if s.retries > self.cfg.demote_retry_limit {
                    return SyncDecision::Switch {
                        to: SyncProtocol::Bsp,
                        reason: format!(
                            "wire.retries {} over limit {} under ASP",
                            s.retries, self.cfg.demote_retry_limit
                        ),
                    };
                }
                if s.final_loss > self.cfg.demote_loss_factor * best {
                    return SyncDecision::Switch {
                        to: SyncProtocol::Bsp,
                        reason: format!(
                            "divergence risk: loss {:.4} over {:.2} x best {:.4}",
                            s.final_loss, self.cfg.demote_loss_factor, best
                        ),
                    };
                }
                let staleness = s.mean_staleness();
                if s.staleness_count > 0 && staleness > self.cfg.demote_staleness_limit {
                    return SyncDecision::Switch {
                        to: SyncProtocol::Bsp,
                        reason: format!(
                            "mean engine.staleness {staleness:.2} over limit {:.2}",
                            self.cfg.demote_staleness_limit
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
    /// (via the embedded watchdog), scrapes the segment's signals off the
    /// bus, decides, and applies any switch before returning. The decision
    /// is appended to [`SyncController::decisions`] and — when it switches —
    /// emitted as a [`TraceKind::ProtocolSwitch`] event with the reason.
    ///
    /// # Errors
    ///
    /// Anything the watchdog-guarded segment or the switch actuator
    /// returns.
    pub fn run_segment(
        &mut self,
        trainer: &mut Trainer,
        steps: u64,
    ) -> Result<SegmentReport, PsError> {
        let before = trainer.bus().metrics.snapshot();
        let requested = trainer.protocol();
        let report = self.watchdog.run_segment(trainer, requested, steps)?;

        let after = trainer.bus().metrics.snapshot();
        let unreachable = match trainer.net_router() {
            Some(router) => trainer
                .server_count()
                .saturating_sub(router.reachable_servers()),
            None => 0,
        };
        let signals = ScrapedSignals::between(&before, &after, &report, unreachable);

        // The protocol the segment actually ran under: a mid-segment
        // watchdog trip leaves the trainer demoted to BSP.
        let current = trainer.protocol();
        let decision = self.decide(current, &signals);

        // Retune the SSP bound from the measured staleness distribution.
        if signals.staleness_count > 0 {
            let tuned = signals.mean_staleness().ceil() as u64 + self.cfg.ssp_margin;
            self.ssp_bound = tuned.clamp(1, self.cfg.max_ssp_bound);
        }
        // Adopt the segment's tail loss into the trajectory *after*
        // deciding: stability is judged against the best of the segments
        // that came before.
        if report.steps > 0 && report.final_loss.is_finite() && report.final_loss < self.best_loss {
            self.best_loss = report.final_loss;
        }

        let to = match &decision {
            SyncDecision::Hold { .. } => current,
            SyncDecision::Switch { to, reason } => {
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
                *to
            }
        };
        self.decisions.push(DecisionRecord {
            segment: self.segments,
            from: current,
            to,
            ssp_bound: self.ssp_bound,
            reason: decision.reason().to_string(),
        });
        self.segments += 1;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use sync_switch_nn::{Dataset, Network};

    fn trainer(lr: f64) -> Trainer {
        let data = Dataset::gaussian_blobs(4, 96, 6, 0.35, 11);
        let (train, test) = data.split(0.25);
        Trainer::new(
            Network::mlp(6, &[12], 4, 11),
            train,
            test,
            TrainerConfig::new(3, 8, lr, 0.9),
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
            sync_rounds: 4,
            rollbacks: 0,
            unreachable_servers: 0,
            final_loss: 0.48,
            finite: true,
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        // The same scraped signals against the same controller state must
        // produce byte-identical decisions — across repeated calls and
        // across independently constructed controllers.
        let cases = [
            (SyncProtocol::Bsp, signals()),
            (SyncProtocol::Asp, signals()),
            (
                SyncProtocol::Bsp,
                ScrapedSignals {
                    barrier_ns: 10,
                    ..signals()
                },
            ),
            (
                SyncProtocol::Asp,
                ScrapedSignals {
                    retries: 99,
                    ..signals()
                },
            ),
            (
                SyncProtocol::Asp,
                ScrapedSignals {
                    final_loss: 40.0,
                    ..signals()
                },
            ),
            (
                SyncProtocol::Asp,
                ScrapedSignals {
                    staleness_sum: 900,
                    ..signals()
                },
            ),
            (
                SyncProtocol::Bsp,
                ScrapedSignals {
                    unreachable_servers: 1,
                    ..signals()
                },
            ),
            (
                SyncProtocol::Asp,
                ScrapedSignals {
                    finite: false,
                    ..signals()
                },
            ),
        ];
        let a = primed(ControllerConfig::default());
        let b = primed(ControllerConfig::default());
        for (current, s) in &cases {
            let first = a.decide(*current, s);
            assert_eq!(first, a.decide(*current, s), "unstable across calls");
            assert_eq!(first, b.decide(*current, s), "unstable across instances");
        }
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
        // Loss blow-up risk under ASP: demote.
        let risky = ScrapedSignals {
            final_loss: 40.0,
            ..signals()
        };
        match c.decide(SyncProtocol::Asp, &risky) {
            SyncDecision::Switch { to, reason } => {
                assert_eq!(to, SyncProtocol::Bsp);
                assert!(reason.contains("divergence risk"), "{reason}");
            }
            other => panic!("expected demote, got {other:?}"),
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

    #[test]
    fn watchdog_demotion_pins_bsp_forever() {
        // Poison the parameters so the watchdog inside the controller
        // trips deterministically; afterwards every decision holds BSP.
        let mut t = trainer(0.05);
        let cfg = ControllerConfig {
            promote_barrier_frac: 0.0,
            ..ControllerConfig::default()
        };
        let mut c = SyncController::new(cfg);
        c.run_segment(&mut t, 20).expect("healthy segment");
        let mut ck = t.checkpoint();
        ck.params[0] = f32::NAN;
        t.restore(&ck).expect("poisoned restore");
        let r = c
            .run_segment(&mut t, 20)
            .expect("watchdog absorbs the blow-up");
        assert!(r.finite);
        assert!(c.watchdog_demoted());
        assert_eq!(c.watchdog_trips(), 1);
        assert_eq!(t.protocol(), SyncProtocol::Bsp);
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
}
