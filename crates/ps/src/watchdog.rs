//! A divergence watchdog over the trainer loop: watches each segment's
//! loss trajectory and finiteness, and on a blow-up rolls back to the last
//! good checkpoint and demotes ASP to BSP through the existing switcher.
//!
//! This automates the paper's observation that ASP diverges at learning
//! rates BSP tolerates (experiment setup 3): instead of aborting the run
//! with [`PsError::Diverged`], the watchdog converts the divergence into a
//! rollback plus a permanent demotion to the safe protocol, so training
//! completes — at BSP speed — rather than dying.

use sync_switch_telemetry::TraceKind;
use sync_switch_workloads::SyncProtocol;

use crate::checkpoint::Checkpoint;
use crate::engine::{SegmentReport, Trainer};
use crate::error::PsError;
use crate::switcher::{execute_switch, SwitchPlan};

/// Tuning for [`DivergenceWatchdog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// A segment whose mean tail loss exceeds `blowup_factor` times the
    /// best loss seen so far counts as diverging (in addition to any
    /// non-finite signal).
    pub blowup_factor: f32,
    /// Floor applied to the best loss before multiplying, so noise around
    /// an already-tiny loss cannot trip the watchdog.
    pub loss_floor: f32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            blowup_factor: 4.0,
            loss_floor: 0.05,
        }
    }
}

/// Wraps [`Trainer::run_segment`] with rollback-and-demote semantics.
///
/// Per segment: run under the requested protocol (or BSP forever once
/// demoted), then judge the outcome. A segment diverges if the trainer
/// returned [`PsError::Diverged`], the report's [`SegmentReport::finite`]
/// check failed, or the tail loss blew past the configured factor of the
/// best loss so far. On divergence the watchdog restores the best-loss
/// checkpoint, executes an ASP→BSP [`SwitchPlan`] (same hyperparameters,
/// velocity reset — the stale momentum is part of what blew up), and
/// re-runs the segment under BSP.
///
/// The rollback target is the checkpoint of the **best** segment, not the
/// most recent passing one: a segment can clear the blow-up check while
/// its parameters are already destabilizing, and rolling back to such a
/// state would hand the demoted BSP re-run a poisoned starting point.
/// Rolling back to the best loss costs more replayed steps but guarantees
/// the re-run starts from a state that demonstrably trained well.
#[derive(Debug)]
pub struct DivergenceWatchdog {
    cfg: WatchdogConfig,
    /// Best (lowest) finite tail loss observed across good segments.
    best_loss: f32,
    /// Rollback target: the checkpoint of the best segment so far.
    last_good: Option<Checkpoint>,
    /// Once true, every future segment runs under BSP.
    demoted: bool,
    /// Number of divergences handled.
    trips: u32,
}

impl DivergenceWatchdog {
    /// A watchdog with the given thresholds, no checkpoint yet.
    pub fn new(cfg: WatchdogConfig) -> Self {
        DivergenceWatchdog {
            cfg,
            best_loss: f32::INFINITY,
            last_good: None,
            demoted: false,
            trips: 0,
        }
    }

    /// Whether the watchdog has demoted the run to BSP.
    pub fn demoted(&self) -> bool {
        self.demoted
    }

    /// Divergences handled so far.
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Runs one guarded segment of `steps` steps under `requested` (BSP if
    /// already demoted). See the type docs for the divergence handling.
    ///
    /// # Errors
    ///
    /// Propagates non-divergence errors, and any error from the rollback,
    /// the switch, or the demoted re-run itself.
    pub fn run_segment(
        &mut self,
        trainer: &mut Trainer,
        requested: SyncProtocol,
        steps: u64,
    ) -> Result<SegmentReport, PsError> {
        // Guarantee a rollback target even for a first-segment blow-up.
        if self.last_good.is_none() {
            self.last_good = Some(trainer.checkpoint());
        }
        let effective = if self.demoted {
            SyncProtocol::Bsp
        } else {
            requested
        };
        match trainer.run_segment(effective, steps) {
            Ok(report) => {
                if self.blown(&report) {
                    return self.demote_and_rerun(trainer, effective, steps);
                }
                self.adopt_if_best(trainer, &report);
                Ok(report)
            }
            Err(PsError::Diverged { .. }) => self.demote_and_rerun(trainer, effective, steps),
            Err(e) => Err(e),
        }
    }

    fn blown(&self, report: &SegmentReport) -> bool {
        if report.steps == 0 {
            return false;
        }
        if !report.finite || !report.final_loss.is_finite() {
            return true;
        }
        // The loss-trajectory check only guards the risky protocol: after
        // demotion the segments are already BSP, and a noisy-but-finite
        // BSP loss at a high learning rate is not a divergence signal.
        !self.demoted
            && report.final_loss > self.cfg.blowup_factor * self.best_loss.max(self.cfg.loss_floor)
    }

    /// Adopts a passing segment's endpoint as the rollback target when its
    /// tail loss is the new best (shared by the normal path and the
    /// demoted re-run — the re-run used to skip this, leaving a later trip
    /// to roll back to the stale pre-demotion checkpoint and replay every
    /// post-demotion step).
    fn adopt_if_best(&mut self, trainer: &Trainer, report: &SegmentReport) {
        if report.steps > 0 && report.final_loss.is_finite() && report.final_loss <= self.best_loss
        {
            self.best_loss = report.final_loss;
            self.last_good = Some(trainer.checkpoint());
        }
    }

    fn demote_and_rerun(
        &mut self,
        trainer: &mut Trainer,
        from: SyncProtocol,
        steps: u64,
    ) -> Result<SegmentReport, PsError> {
        self.trips += 1;
        self.demoted = true;
        let bus = trainer.bus();
        bus.metrics.counter("watchdog.rollbacks").inc();
        bus.trace.instant(TraceKind::WatchdogRollback {
            trips: u64::from(self.trips),
        });
        bus.trace.instant(TraceKind::ProtocolSwitch {
            from: from.to_string(),
            to: SyncProtocol::Bsp.to_string(),
            reason: format!(
                "watchdog trip #{}: divergence under {from}, rolling back to best loss {:.4}",
                self.trips, self.best_loss
            ),
        });
        if let Some(ck) = &self.last_good {
            trainer.restore(ck)?;
        }
        // Same hyper-parameters, velocity reset — the stale momentum is
        // part of what blew up.
        let plan = SwitchPlan::keep_hyper(trainer.config(), SyncProtocol::Bsp, true);
        execute_switch(trainer, &plan)?;
        // The re-run is judged like any other segment: a demoted BSP re-run
        // that itself went non-finite is a divergence, not a success.
        let report = trainer.run_segment(SyncProtocol::Bsp, steps)?;
        if self.blown(&report) {
            return Err(PsError::Diverged {
                step: trainer.global_step(),
            });
        }
        self.adopt_if_best(trainer, &report);
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

    #[test]
    fn good_segments_pass_through_untouched() {
        let mut t = trainer(0.05);
        let mut dog = DivergenceWatchdog::new(WatchdogConfig::default());
        let r = dog
            .run_segment(&mut t, SyncProtocol::Asp, 30)
            .expect("healthy segment");
        assert_eq!(r.protocol, SyncProtocol::Asp);
        assert!(!dog.demoted());
        assert_eq!(dog.trips(), 0);
    }

    #[test]
    fn divergence_demotes_to_bsp_and_completes() {
        // Warm up at a healthy rate so the watchdog holds a good
        // checkpoint, then raise the rate to one where ASP's stale
        // momentum updates blow up while synchronous averaged updates
        // hold — the paper's experiment-setup-3 regime.
        let mut t = trainer(0.05);
        let mut dog = DivergenceWatchdog::new(WatchdogConfig::default());
        dog.run_segment(&mut t, SyncProtocol::Asp, 30)
            .expect("warm-up segment");
        assert!(!dog.demoted());
        let mut cfg = t.config().clone();
        cfg.learning_rate = 30.0;
        t.set_config(cfg).expect("reconfigure");
        let mut saw_trip = false;
        for _ in 0..6 {
            let r = dog
                .run_segment(&mut t, SyncProtocol::Asp, 40)
                .expect("watchdog must absorb the divergence");
            assert!(r.finite, "watchdog returned a non-finite segment");
            if dog.demoted() {
                saw_trip = true;
                assert_eq!(
                    r.protocol,
                    SyncProtocol::Bsp,
                    "demoted runs must be BSP re-runs"
                );
            }
        }
        assert!(saw_trip, "lr 30 ASP never tripped the watchdog");
        assert!(dog.trips() >= 1);
        assert!(t.check_finite(), "final parameters must be finite");
        assert_eq!(
            t.protocol(),
            SyncProtocol::Bsp,
            "demotion must leave the trainer's recorded protocol at BSP"
        );
        // Every trip left a rollback + demotion event pair on the bus.
        let bus = t.bus();
        let counts = bus.trace.counts_by_name();
        let trips = u64::from(dog.trips());
        assert_eq!(counts.get("watchdog_rollback"), Some(&trips));
        assert_eq!(counts.get("protocol_switch"), Some(&trips));
        let snap = bus.metrics.snapshot();
        assert_eq!(snap.counters.get("watchdog.rollbacks"), Some(&trips));
    }

    /// Poisons the live parameters with a NaN so the next segment returns
    /// `PsError::Diverged` deterministically — the watchdog sees exactly
    /// what a real blow-up produces, without needing a learning rate that
    /// also destabilizes the BSP re-run.
    fn poison(t: &mut Trainer) {
        let mut ck = t.checkpoint();
        ck.params[0] = f32::NAN;
        t.restore(&ck).expect("poisoned restore");
    }

    #[test]
    fn second_trip_rolls_back_to_the_post_demotion_checkpoint() {
        // The regression this pins: the demoted BSP re-run was returned
        // without being judged, and `best_loss`/`last_good` were never
        // updated afterwards — so a second trip rolled back to the stale
        // pre-demotion checkpoint and replayed every post-demotion step.
        let mut t = trainer(0.05);
        let mut dog = DivergenceWatchdog::new(WatchdogConfig::default());
        dog.run_segment(&mut t, SyncProtocol::Asp, 30)
            .expect("warm-up segment");
        assert_eq!(t.global_step(), 30);

        // Trip 1: rollback to the step-30 checkpoint, 40-step BSP re-run.
        poison(&mut t);
        let r = dog
            .run_segment(&mut t, SyncProtocol::Asp, 40)
            .expect("first trip absorbed");
        assert_eq!(dog.trips(), 1);
        assert!(dog.demoted());
        assert!(r.finite, "re-run must be judged, not returned blind");
        assert_eq!(t.global_step(), 70);

        // Trip 2: the rollback target must be the judged re-run's endpoint
        // (step 70, training at the healthy rate kept improving the loss),
        // not the stale step-30 checkpoint.
        poison(&mut t);
        let r = dog
            .run_segment(&mut t, SyncProtocol::Asp, 40)
            .expect("second trip absorbed");
        assert_eq!(dog.trips(), 2);
        assert!(r.finite);
        assert_eq!(
            t.global_step(),
            110,
            "second trip replayed from the stale pre-demotion checkpoint"
        );
    }
}
