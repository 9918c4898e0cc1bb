//! The step-by-step trajectory model: loss and accuracy over a training run
//! with arbitrary protocol schedules.

use sync_switch_sim::DetRng;
use sync_switch_workloads::{CalibrationTargets, ExperimentSetup, SyncProtocol};

use crate::analytic::damage_at;
use crate::momentum::MomentumScaling;

/// Per-chunk inputs the trajectory model needs from the execution substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseInput {
    /// Protocol the chunk ran under.
    pub protocol: SyncProtocol,
    /// Mean measured gradient staleness during the chunk.
    pub staleness: f64,
    /// Momentum-scaling variant in effect (only meaningful under ASP).
    pub momentum: MomentumScaling,
}

impl PhaseInput {
    /// A BSP chunk (staleness 0 by construction).
    pub fn bsp() -> Self {
        PhaseInput {
            protocol: SyncProtocol::Bsp,
            staleness: 0.0,
            momentum: MomentumScaling::Baseline,
        }
    }

    /// An ASP chunk with the given measured staleness.
    pub fn asp(staleness: f64) -> Self {
        PhaseInput {
            protocol: SyncProtocol::Asp,
            staleness,
            momentum: MomentumScaling::Baseline,
        }
    }
}

/// Instability index threshold above which early-phase ASP diverges.
///
/// The index is `κ · n · η(t)` with `κ = 12.5`: 8 workers at η = 0.1 sit at
/// 10 (stable, but damaging), 16 workers at 20 (diverges — paper Fig. 13),
/// and any cluster after the first ×0.1 decay is far below threshold.
const DIVERGENCE_THRESHOLD: f64 = 15.0;
const INSTABILITY_KAPPA: f64 = 12.5;

/// Accuracy penalty per protocol switch beyond the first. The paper
/// attributes the greedy straggler policy's ~2% accuracy loss to "having to
/// perform two extra switches" (§VI-B3); each switch restarts from a
/// checkpoint and disrupts optimizer state.
const EXTRA_SWITCH_PENALTY: f64 = 0.007;

/// Penalty (mean) for switching ASP→BSP late in training — the saddle-point
/// stall of paper Fig. 7(c) / Remark A.3.
const ASP_TO_BSP_STALL_MEAN: f64 = 0.004;
const ASP_TO_BSP_STALL_SIGMA: f64 = 0.006;

/// A stochastic trajectory of one training run under a (possibly adaptive)
/// protocol schedule.
///
/// Drive it with [`TrajectoryModel::advance`] for every executed chunk and
/// [`TrajectoryModel::record_switch`] at every protocol switch; read
/// the state with [`TrajectoryModel::eval_accuracy`],
/// [`TrajectoryModel::training_loss`], and
/// [`TrajectoryModel::is_diverged`].
#[derive(Debug, Clone)]
pub struct TrajectoryModel {
    calib: CalibrationTargets,
    total_steps: u64,
    n_workers: usize,
    base_lr: f64,
    lr_boundaries: Vec<(u64, f64)>,
    /// Logistic damage midpoint (from the analytic model).
    f0: f64,
    /// Sampled per-run BSP-quality accuracy (base + run noise).
    base_acc: f64,
    damage: f64,
    momentum_penalty: f64,
    switch_penalty: f64,
    switches: u32,
    step: u64,
    acc: f64,
    loss: f64,
    loss_floor_bsp: f64,
    loss_floor_ratio: f64,
    diverged_at: Option<u64>,
    divergence_budget_steps: f64,
    divergence_exposure: f64,
    rng: DetRng,
}

impl TrajectoryModel {
    /// Creates a trajectory for a setup; `seed` determines the run's noise
    /// (the paper repeats every configuration five times — use five seeds).
    pub fn new(setup: &ExperimentSetup, seed: u64) -> Self {
        let calib = CalibrationTargets::for_setup(setup.id);
        let mut rng = DetRng::new(seed).derive("trajectory", setup.id.index() as u64);
        let base_acc = calib.bsp_accuracy + calib.accuracy_sigma * rng.standard_normal();
        let classes = setup.workload.dataset.classes as f64;
        // CIFAR-10 BSP bottoms out near 1e-3; CIFAR-100 near 1.2e-2
        // (fitted to Fig. 11a / 12a).
        let loss_floor_bsp = if classes > 50.0 { 1.2e-2 } else { 1.0e-3 };
        let loss_floor_ratio = if classes > 50.0 { 40.0 } else { 80.0 };
        // Divergent runs fail within a few hundred to a couple thousand
        // steps of unstable exposure.
        let divergence_budget_steps = 300.0 + 900.0 * rng.uniform(0.5, 1.5);
        TrajectoryModel {
            calib,
            total_steps: setup.workload.hyper.total_steps,
            n_workers: setup.cluster_size,
            base_lr: setup.workload.hyper.learning_rate,
            lr_boundaries: setup.workload.hyper.lr_schedule.boundaries().to_vec(),
            f0: crate::analytic::damage_f0(&CalibrationTargets::for_setup(setup.id)),
            base_acc,
            damage: 0.0,
            momentum_penalty: 0.0,
            switch_penalty: 0.0,
            switches: 0,
            step: 0,
            acc: 1.0 / classes,
            loss: classes.ln(),
            loss_floor_bsp,
            loss_floor_ratio,
            diverged_at: None,
            divergence_budget_steps,
            divergence_exposure: 0.0,
            rng,
        }
    }

    /// Steps completed so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Total workload in steps.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Whether the run has diverged (and at which step).
    pub fn diverged_at(&self) -> Option<u64> {
        self.diverged_at
    }

    /// Whether the run has diverged.
    pub fn is_diverged(&self) -> bool {
        self.diverged_at.is_some()
    }

    /// Learning-rate decay factor in effect at `step`.
    fn lr_factor(&self, step: u64) -> f64 {
        let mut f = 1.0;
        for &(b, factor) in &self.lr_boundaries {
            if step >= b {
                f = factor;
            }
        }
        f
    }

    /// Index of the LR phase at `step` (0 before the first decay, …).
    fn phase(&self, step: u64) -> usize {
        self.lr_boundaries
            .iter()
            .filter(|&&(b, _)| step >= b)
            .count()
    }

    /// Records a protocol switch. The first switch is the intended
    /// BSP→ASP handover; each additional switch costs accuracy
    /// (checkpoint/restart disruption), and a late ASP→BSP switch risks the
    /// saddle-point stall of paper Remark A.3.
    pub fn record_switch(&mut self, from: SyncProtocol, to: SyncProtocol) {
        self.switches += 1;
        if self.switches > 1 {
            self.switch_penalty += EXTRA_SWITCH_PENALTY;
        }
        if from == SyncProtocol::Asp && to == SyncProtocol::Bsp {
            let stall = ASP_TO_BSP_STALL_MEAN + ASP_TO_BSP_STALL_SIGMA * self.rng.standard_normal();
            self.switch_penalty += stall.max(0.0);
        }
    }

    /// Sets the momentum-scaling penalty (called once when the ASP phase
    /// begins with a non-baseline variant).
    pub fn apply_momentum_variant(&mut self, variant: MomentumScaling) {
        self.momentum_penalty = variant.accuracy_penalty(self.n_workers);
    }

    /// Advances the trajectory by `steps` executed under `input`.
    ///
    /// # Panics
    ///
    /// Panics if the run has already diverged.
    pub fn advance(&mut self, steps: u64, input: &PhaseInput) {
        assert!(!self.is_diverged(), "cannot advance a diverged run");
        if steps == 0 {
            return;
        }
        let x0 = self.step as f64 / self.total_steps as f64;
        let x1 = (self.step + steps) as f64 / self.total_steps as f64;

        if input.protocol == SyncProtocol::Asp {
            // Damage of ASP exposure over [x0, x1] telescopes on the
            // logistic residual-damage curve: D(x0) − D(x1), so a run that
            // is ASP from `f` to the end accrues exactly `damage_at(f)`.
            let d = damage_at(&self.calib, x0) - damage_at(&self.calib, x1);
            let staleness_scale = if self.n_workers > 1 {
                (input.staleness / (self.n_workers as f64 - 1.0)).clamp(0.1, 2.0)
            } else {
                1.0
            };
            self.damage += d.max(0.0) * staleness_scale;

            // Divergence: unstable exposure while κ·n·η is above threshold.
            let lr = self.base_lr * self.lr_factor(self.step);
            let instability = INSTABILITY_KAPPA * self.n_workers as f64 * lr;
            if instability > DIVERGENCE_THRESHOLD {
                self.divergence_exposure += steps as f64;
                if self.divergence_exposure > self.divergence_budget_steps {
                    self.diverged_at =
                        Some(self.step + steps.min(self.divergence_budget_steps as u64));
                    self.step += steps;
                    self.loss = 1e6;
                    self.acc = 0.1; // random-guess accuracy
                    return;
                }
            }
        }

        // --- Accuracy trajectory -----------------------------------------
        // Ceiling for the current LR phase: earlier phases saturate below
        // the final accuracy (the post-decay jumps of ResNet curves).
        let ceiling_final =
            self.base_acc - self.damage - self.momentum_penalty - self.switch_penalty;
        let phase = self.phase(self.step);
        let phase_gap = match phase {
            0 => 0.035,
            1 => 0.005,
            _ => 0.0,
        };
        let ceiling = ceiling_final - phase_gap;
        // Approach time-constants per phase, in workload fractions.
        let tau_acc = match phase {
            0 => 0.08,
            _ => 0.02,
        };
        let dx = x1 - x0;
        let mut rate = 1.0 - (-dx / tau_acc).exp();
        // Early unstable ASP makes progress slower and noisier (Fig. 2a).
        let early_unsafe = input.protocol == SyncProtocol::Asp && x0 < 1.5 * self.f0;
        if early_unsafe {
            rate *= 0.6;
        }
        self.acc += (ceiling - self.acc) * rate;

        // --- Training-loss trajectory ------------------------------------
        // The floor rises with accumulated damage when running ASP: a pure
        // ASP run bounces at ~ratio× the BSP floor, a well-timed Sync-Switch
        // run at ~sqrt(ratio)× (Fig. 11a).
        let damage_frac = if self.calib.asp_accuracy_gap() > 0.0 {
            (self.damage / self.calib.asp_accuracy_gap()).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let floor = if input.protocol == SyncProtocol::Bsp {
            self.loss_floor_bsp
        } else {
            self.loss_floor_bsp * self.loss_floor_ratio.powf(0.5 + 0.5 * damage_frac)
        };
        let tau_loss = match phase {
            0 => 0.10,
            _ => 0.035,
        };
        let loss_rate = 1.0 - (-dx / tau_loss).exp();
        if self.loss > floor {
            self.loss = floor + (self.loss - floor) * (1.0 - loss_rate);
        } else {
            // Floor rose above the current loss (late ASP): drift up gently.
            self.loss += (floor - self.loss) * 0.3 * loss_rate;
        }

        self.step += steps;
    }

    /// Test accuracy at the current step, with evaluation noise — what the
    /// standalone evaluator measures every 2 000 steps in the paper.
    ///
    /// Evaluation noise shrinks with the learning rate (√ of the decay
    /// factor): once the rate has decayed twice, successive evaluations are
    /// nearly flat, which is what lets the paper's convergence criterion
    /// ("accuracy unchanged within 0.1% for five evaluations") fire.
    pub fn eval_accuracy(&mut self) -> f64 {
        if self.is_diverged() {
            return self.rng.uniform(0.08, 0.12);
        }
        let sigma = 0.004 * self.lr_factor(self.step).sqrt();
        let noise = sigma * self.rng.standard_normal();
        (self.acc + noise).clamp(0.0, 1.0)
    }

    /// Current smoothed training loss.
    pub fn training_loss(&self) -> f64 {
        self.loss
    }

    /// The accuracy the run is currently converging toward (no eval noise).
    pub fn current_ceiling(&self) -> f64 {
        self.base_acc - self.damage - self.momentum_penalty - self.switch_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_full(setup: &ExperimentSetup, bsp_fraction: f64, seed: u64) -> Result<f64, u64> {
        let mut t = TrajectoryModel::new(setup, seed);
        let total = t.total_steps();
        let switch_at = (bsp_fraction * total as f64) as u64;
        let chunk = 2000u64;
        let n = setup.cluster_size as f64;
        let mut switched = bsp_fraction == 0.0;
        while t.step() < total {
            let steps = chunk.min(total - t.step());
            let input = if !switched && t.step() < switch_at {
                PhaseInput::bsp()
            } else {
                if !switched {
                    t.record_switch(SyncProtocol::Bsp, SyncProtocol::Asp);
                    switched = true;
                }
                PhaseInput::asp(n - 1.0)
            };
            t.advance(steps, &input);
            if let Some(s) = t.diverged_at() {
                return Err(s);
            }
        }
        Ok(t.current_ceiling())
    }

    fn mean_accuracy(setup: &ExperimentSetup, f: f64) -> f64 {
        let accs: Vec<f64> = (0..5)
            .map(|s| run_full(setup, f, 100 + s).expect("should converge"))
            .collect();
        accs.iter().sum::<f64>() / accs.len() as f64
    }

    #[test]
    fn bsp_reaches_paper_accuracy_setup1() {
        let setup = ExperimentSetup::one();
        let acc = mean_accuracy(&setup, 1.0);
        assert!((acc - 0.919).abs() < 0.005, "BSP accuracy {acc}");
    }

    #[test]
    fn asp_reaches_paper_accuracy_setup1() {
        let setup = ExperimentSetup::one();
        let acc = mean_accuracy(&setup, 0.0);
        assert!((acc - 0.892).abs() < 0.006, "ASP accuracy {acc}");
    }

    #[test]
    fn knee_switching_matches_bsp_setup1() {
        let setup = ExperimentSetup::one();
        let acc = mean_accuracy(&setup, 0.0625);
        assert!(
            (0.919 - acc).abs() < 0.006,
            "Sync-Switch accuracy at knee {acc}"
        );
    }

    #[test]
    fn below_knee_is_detectably_worse() {
        let setup = ExperimentSetup::one();
        let at_knee = mean_accuracy(&setup, 0.0625);
        let below = mean_accuracy(&setup, 0.015625);
        assert!(
            at_knee - below > 0.005,
            "below-knee {below} should trail knee {at_knee}"
        );
    }

    #[test]
    fn setup3_asp_diverges_before_first_decay() {
        let setup = ExperimentSetup::three();
        for seed in 0..5 {
            let r = run_full(&setup, 0.0, 200 + seed);
            assert!(r.is_err(), "pure ASP on 16 workers must diverge");
            let at = r.unwrap_err();
            assert!(at < 32_000, "divergence should hit early, got {at}");
        }
        // Switching below 50% also diverges (paper Fig. 13).
        assert!(run_full(&setup, 0.25, 300).is_err());
        // Switching at 50% (the first decay) survives.
        let ok = run_full(&setup, 0.5, 300);
        assert!(ok.is_ok(), "switch at 50% must converge");
        assert!((ok.unwrap() - 0.923).abs() < 0.01);
    }

    #[test]
    fn setup1_and_2_never_diverge() {
        for f in [0.0, 0.25, 1.0] {
            assert!(run_full(&ExperimentSetup::one(), f, 7).is_ok());
            assert!(run_full(&ExperimentSetup::two(), f, 7).is_ok());
        }
    }

    #[test]
    fn loss_floors_ordered_like_fig11a() {
        let setup = ExperimentSetup::one();
        let total = setup.workload.hyper.total_steps;
        let loss_of = |f: f64, seed: u64| -> f64 {
            let mut t = TrajectoryModel::new(&setup, seed);
            let switch_at = (f * total as f64) as u64;
            while t.step() < total {
                let steps = 2000.min(total - t.step());
                let input = if t.step() < switch_at {
                    PhaseInput::bsp()
                } else {
                    PhaseInput::asp(7.0)
                };
                t.advance(steps, &input);
            }
            t.training_loss()
        };
        let bsp = loss_of(1.0, 5);
        let ss = loss_of(0.0625, 5);
        let asp = loss_of(0.0, 5);
        assert!(
            bsp < ss && ss < asp,
            "floors: bsp {bsp}, ss {ss}, asp {asp}"
        );
        assert!(bsp < 3e-3, "bsp floor {bsp}");
        assert!(asp > 0.03, "asp floor {asp}");
        // Sync-Switch's training loss stays an order of magnitude above
        // BSP's even though test accuracy matches (paper Remark A.2).
        assert!(ss / bsp > 3.0);
    }

    #[test]
    fn extra_switches_cost_accuracy() {
        let setup = ExperimentSetup::one();
        let mut clean = TrajectoryModel::new(&setup, 9);
        let mut churny = TrajectoryModel::new(&setup, 9);
        clean.record_switch(SyncProtocol::Bsp, SyncProtocol::Asp);
        churny.record_switch(SyncProtocol::Bsp, SyncProtocol::Asp);
        churny.record_switch(SyncProtocol::Asp, SyncProtocol::Bsp);
        churny.record_switch(SyncProtocol::Bsp, SyncProtocol::Asp);
        assert!(churny.current_ceiling() < clean.current_ceiling() - 0.01);
    }

    #[test]
    fn momentum_variant_penalties_apply() {
        let setup = ExperimentSetup::one();
        let mut base = TrajectoryModel::new(&setup, 11);
        let mut zero = TrajectoryModel::new(&setup, 11);
        base.apply_momentum_variant(MomentumScaling::Baseline);
        zero.apply_momentum_variant(MomentumScaling::Zero);
        assert!(zero.current_ceiling() < base.current_ceiling() - 0.04);
    }

    #[test]
    fn accuracy_curve_is_increasing_and_jumps_at_decay() {
        let setup = ExperimentSetup::one();
        let mut t = TrajectoryModel::new(&setup, 13);
        let mut curve = Vec::new();
        while t.step() < 64_000 {
            t.advance(2000, &PhaseInput::bsp());
            curve.push((
                t.step(),
                t.current_ceiling() - 0.0, /* no noise */
                t.training_loss(),
            ));
        }
        // Loss decreases monotonically for BSP.
        for w in curve.windows(2) {
            assert!(w[1].2 <= w[0].2 + 1e-9, "loss must not increase under BSP");
        }
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn advancing_diverged_run_panics() {
        let setup = ExperimentSetup::three();
        let mut t = TrajectoryModel::new(&setup, 17);
        for _ in 0..32 {
            t.advance(2000, &PhaseInput::asp(15.0));
        }
        // One of the advances above must have diverged; this one panics.
        t.advance(2000, &PhaseInput::asp(15.0));
    }
}
