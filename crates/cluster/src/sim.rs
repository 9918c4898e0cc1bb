//! The cluster simulator: BSP rounds, and one asynchronous event loop that
//! runs ASP, or SSP when a staleness bound leashes it.
//!
//! The paper places SSP between BSP and ASP (Fig. 1) and calls Sync-Switch
//! "agnostic to the underlying synchronization protocols". SSP with bound
//! `s` lets a worker run at most `s` iterations ahead of the slowest one;
//! `s = 0` degenerates to lock-step, and no bound at all is ASP.

use std::mem;

use sync_switch_sim::{DetRng, EventQueue, SimTime};
use sync_switch_workloads::ExperimentSetup;

use crate::gpu::ComputeModel;
use crate::network::NetworkModel;
use crate::straggler::StragglerScenario;

/// Statistics of one simulated chunk of training steps.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkStats {
    /// Workload units completed (ASP-sized steps; one BSP round = `n`
    /// active-worker units).
    pub units: u64,
    /// Virtual time the chunk took.
    pub elapsed: SimTime,
    /// Per-worker *own-work* throughput in images/s — what a per-node
    /// profiler reports, and what the straggler detector consumes. Zero for
    /// inactive (removed) workers.
    pub per_worker_images_per_sec: Vec<f64>,
    /// Mean measured gradient staleness, plus the committed-view lag (0
    /// under BSP).
    pub mean_staleness: f64,
}

impl ChunkStats {
    /// Cluster-level throughput in images/s for this chunk.
    pub fn cluster_images_per_sec(&self, batch: usize) -> f64 {
        if self.elapsed.as_secs() <= 0.0 {
            return 0.0;
        }
        (self.units as f64 * batch as f64) / self.elapsed.as_secs()
    }
}

/// Discrete-event simulator of one training cluster.
///
/// Time is virtual; a full 64 K-step job simulates in milliseconds. The
/// simulator exposes exactly the handles Sync-Switch's policies need:
/// chunked BSP/ASP execution, per-worker throughput (for straggler
/// detection), elastic worker removal, and straggler scenarios.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    compute: ComputeModel,
    network: NetworkModel,
    n_workers: usize,
    active: Vec<bool>,
    scenario: StragglerScenario,
    per_worker_batch: usize,
    now: SimTime,
    units_done: u64,
    rngs: Vec<DetRng>,
    committed_lag: f64,
}

impl ClusterSim {
    /// Builds a simulator for an experiment setup with the paper's
    /// per-worker batch size.
    pub fn new(setup: &ExperimentSetup, seed: u64) -> Self {
        let root = DetRng::new(seed);
        let n = setup.cluster_size;
        ClusterSim {
            compute: ComputeModel::new(setup.workload.model.clone(), setup.gpu),
            network: NetworkModel::gcp_default(),
            n_workers: n,
            active: vec![true; n],
            scenario: StragglerScenario::none(),
            per_worker_batch: setup.workload.hyper.batch_size,
            now: SimTime::ZERO,
            units_done: 0,
            rngs: (0..n).map(|w| root.derive("worker", w as u64)).collect(),
            committed_lag: 0.0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total workload units completed so far.
    pub fn units_done(&self) -> u64 {
        self.units_done
    }

    /// Number of workers configured (including removed ones).
    pub fn cluster_size(&self) -> usize {
        self.n_workers
    }

    /// Number of currently active workers.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Per-worker batch size currently in effect.
    pub fn batch(&self) -> usize {
        self.per_worker_batch
    }

    /// Sets the per-worker batch size (configuration policy).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn set_batch(&mut self, batch: usize) {
        assert!(batch > 0, "batch must be positive");
        self.per_worker_batch = batch;
    }

    /// Sets the committed-view lag added to asynchronous staleness
    /// predictions.
    ///
    /// The real PS tier's two-stage sync means a worker's pull observes the
    /// *committed* view, which trails the freshest pushes by a small,
    /// roughly constant number of updates, under ASP and SSP alike. The
    /// event simulator's schedule alone does not model that, so its
    /// staleness under-predicts the real tier at tight bounds. Feeding the
    /// measured real-minus-sim delta back through this knob calibrates the
    /// `mean_staleness` that `run_asp` and `run_ssp` report; the event
    /// schedule (and thus `elapsed`) is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lag` is negative or non-finite.
    pub fn set_committed_view_lag(&mut self, lag: f64) {
        assert!(
            lag.is_finite() && lag >= 0.0,
            "committed-view lag must be finite and non-negative, got {lag}"
        );
        self.committed_lag = lag;
    }

    /// Installs a straggler scenario.
    pub fn set_scenario(&mut self, scenario: StragglerScenario) {
        self.scenario = scenario;
    }

    /// The installed scenario.
    pub fn scenario(&self) -> &StragglerScenario {
        &self.scenario
    }

    /// Advances virtual time without doing work (switch/init overheads).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not a valid duration.
    pub fn advance(&mut self, dt: SimTime) {
        assert!(dt.is_valid_duration(), "advance requires a duration");
        self.now += dt;
    }

    /// Removes a worker from the cluster (elastic policy). Returns `false`
    /// if it was already inactive.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or removal would empty the
    /// cluster.
    pub fn remove_worker(&mut self, worker: usize) -> bool {
        assert!(worker < self.n_workers, "worker {worker} out of range");
        if !self.active[worker] {
            return false;
        }
        assert!(self.active_count() > 1, "cannot remove the last worker");
        self.active[worker] = false;
        true
    }

    /// Restores all removed workers (elastic policy after BSP budget met).
    pub fn restore_all(&mut self) {
        self.active.iter_mut().for_each(|a| *a = true);
    }

    /// The active workers' indices, for a chunk of `units`.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or no workers are active.
    fn active_workers(&self, units: u64) -> Vec<usize> {
        assert!(units > 0, "units must be positive");
        let active: Vec<usize> = (0..self.n_workers).filter(|&w| self.active[w]).collect();
        assert!(!active.is_empty(), "no active workers");
        active
    }

    /// Per-worker own-work throughput in images/s; zero for a worker that
    /// finished no step.
    fn images_per_sec(&self, own_steps: &[u64], own_work_time: &[f64]) -> Vec<f64> {
        let batch = self.per_worker_batch as f64;
        own_steps
            .iter()
            .zip(own_work_time)
            .map(|(&steps, &time)| {
                if steps == 0 {
                    0.0
                } else {
                    steps as f64 * batch / time
                }
            })
            .collect()
    }

    /// One worker's own-work time for a step at the current virtual time:
    /// compute + PS exchange + any straggler penalty.
    fn own_step_time(&mut self, worker: usize, asp: bool) -> f64 {
        let batch = self.per_worker_batch;
        let compute = {
            let rng = &mut self.rngs[worker];
            self.compute.sample_time_s(batch, rng)
        };
        let exchange = self
            .network
            .exchange_time_s(self.compute.model(), self.n_workers);
        let added = self.scenario.added_latency(worker, self.now);
        let straggle = if added > 0.0 {
            self.network
                .straggler_step_penalty_s(self.compute.model(), added)
        } else {
            0.0
        };
        let apply = if asp {
            self.network.asp_apply_overhead_s(self.compute.model())
        } else {
            0.0
        };
        compute + exchange + straggle + apply
    }

    /// Runs BSP rounds until at least `units` workload units complete.
    ///
    /// Each round: every active worker computes one mini-batch; the round
    /// takes the *slowest* worker's time plus the coordination cost; `n_a`
    /// units complete.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or no workers are active.
    pub fn run_bsp(&mut self, units: u64) -> ChunkStats {
        let active = self.active_workers(units);
        let n_a = active.len() as u64;
        let rounds = units.div_ceil(n_a);
        let coord = self.network.bsp_coordination_s(active.len());

        let mut own_work_time = vec![0.0f64; self.n_workers];
        let mut own_steps = vec![0u64; self.n_workers];
        let start = self.now;
        for _ in 0..rounds {
            let mut slowest = 0.0f64;
            for &w in &active {
                let t = self.own_step_time(w, false);
                own_work_time[w] += t;
                own_steps[w] += 1;
                slowest = slowest.max(t);
            }
            self.now += SimTime::from_secs(slowest + coord);
        }
        let done = rounds * n_a;
        self.units_done += done;
        ChunkStats {
            units: done,
            elapsed: self.now - start,
            per_worker_images_per_sec: self.images_per_sec(&own_steps, &own_work_time),
            mean_staleness: 0.0,
        }
    }

    /// Runs ASP until `units` pushes complete, event-driven: each worker
    /// progresses at its own pace; staleness is the number of other pushes
    /// applied between a worker's pull and its push.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or no workers are active.
    pub fn run_asp(&mut self, units: u64) -> ChunkStats {
        self.run_async(units, None)
    }

    /// Runs SSP with iteration-staleness bound `bound` until `units` pushes
    /// complete: ASP's event loop, except that a worker whose iteration
    /// count exceeds `min(iterations) + bound` blocks until the slowest
    /// worker catches up.
    ///
    /// # Panics
    ///
    /// Panics if `units == 0` or no workers are active.
    pub fn run_ssp(&mut self, units: u64, bound: u64) -> ChunkStats {
        self.run_async(units, Some(bound))
    }

    /// The asynchronous event loop under an optional staleness `leash`
    /// (`None` is ASP).
    fn run_async(&mut self, units: u64, leash: Option<u64>) -> ChunkStats {
        let active = self.active_workers(units);
        let start = self.now;
        let n = self.n_workers;
        let mut own_work_time = vec![0.0f64; n];
        let mut own_steps = vec![0u64; n];
        let mut iterations = vec![0u64; n];
        // Workers the leash holds until the slowest worker catches up.
        let mut blocked: Vec<usize> = Vec::new();
        // Event payload: (worker, version at pull); event times are offsets
        // from `start`.
        let mut queue: EventQueue<(usize, u64)> = EventQueue::new();
        for &w in &active {
            self.begin_step(w, start, SimTime::ZERO, 0, &mut queue, &mut own_work_time);
        }

        let mut pushes: u64 = 0;
        let mut staleness_sum: u64 = 0;
        let mut last = SimTime::ZERO;
        while pushes < units {
            let (t, (w, pulled)) = queue.pop().expect("async queue never empties mid-run");
            last = t;
            pushes += 1;
            staleness_sum += pushes - 1 - pulled;
            own_steps[w] += 1;
            iterations[w] += 1;
            if pushes == units {
                break;
            }
            let floor = active.iter().map(|&a| iterations[a]).min().unwrap_or(0);
            let admit = floor.saturating_add(leash.unwrap_or(u64::MAX));
            if iterations[w] > admit {
                blocked.push(w);
            } else {
                self.begin_step(w, start, t, pushes, &mut queue, &mut own_work_time);
            }
            // The floor only rises, so a blocked worker is admitted on the
            // event that lifts the floor within its reach.
            let (released, held): (Vec<usize>, Vec<usize>) = mem::take(&mut blocked)
                .into_iter()
                .partition(|&b| iterations[b] <= admit);
            blocked = held;
            for b in released {
                self.begin_step(b, start, t, pushes, &mut queue, &mut own_work_time);
            }
        }
        self.now = start + last;
        self.units_done += units;
        ChunkStats {
            units,
            elapsed: self.now - start,
            per_worker_images_per_sec: self.images_per_sec(&own_steps, &own_work_time),
            // The schedule accounts for scheduling staleness only; the real
            // tier's two-stage sync adds a committed-view lag on top, fed
            // back here once measured (`set_committed_view_lag`).
            mean_staleness: staleness_sum as f64 / units as f64 + self.committed_lag,
        }
    }

    /// Starts `worker`'s next step at event time `t` (an offset from
    /// `start`), having pulled at version `pulled`: samples its own-work
    /// time and schedules its push.
    fn begin_step(
        &mut self,
        worker: usize,
        start: SimTime,
        t: SimTime,
        pulled: u64,
        queue: &mut EventQueue<(usize, u64)>,
        own_work_time: &mut [f64],
    ) {
        // Straggler windows are evaluated at the worker's current virtual
        // time.
        self.now = start + t;
        let dt = self.own_step_time(worker, true);
        own_work_time[worker] += dt;
        queue.schedule(t + SimTime::from_secs(dt), (worker, pulled));
    }

    /// Analytic expected BSP round time (mean over sampled rounds) for the
    /// current configuration — used by the fast search-cost simulator.
    pub fn expected_bsp_round_s(&self) -> f64 {
        let mut probe = self.clone();
        probe.scenario = StragglerScenario::none();
        let stats = probe.run_bsp(2000 * probe.active_count() as u64);
        stats.elapsed.as_secs() / (stats.units as f64 / probe.active_count() as f64)
    }

    /// Analytic expected ASP time per workload unit.
    pub fn expected_asp_unit_s(&self) -> f64 {
        let mut probe = self.clone();
        probe.scenario = StragglerScenario::none();
        let stats = probe.run_asp(4000);
        stats.elapsed.as_secs() / stats.units as f64
    }

    /// ASP-over-BSP cluster-throughput ratio for the current configuration.
    pub fn asp_over_bsp_throughput(&self) -> f64 {
        let bsp_unit = self.expected_bsp_round_s() / self.active_count() as f64;
        bsp_unit / self.expected_asp_unit_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sync_switch_workloads::SetupId;

    fn sim(setup: SetupId, seed: u64) -> ClusterSim {
        ClusterSim::new(&ExperimentSetup::from_id(setup), seed)
    }

    #[test]
    fn bsp_unit_accounting() {
        let mut s = sim(SetupId::One, 1);
        let stats = s.run_bsp(64);
        assert_eq!(stats.units, 64); // 8 rounds × 8 workers
        assert_eq!(s.units_done(), 64);
        assert!(stats.elapsed.as_secs() > 0.0);
    }

    #[test]
    fn bsp_rounds_round_up() {
        let mut s = sim(SetupId::One, 2);
        let stats = s.run_bsp(60); // needs 8 rounds → 64 units
        assert_eq!(stats.units, 64);
    }

    #[test]
    fn asp_staleness_near_cluster_size() {
        let mut s = sim(SetupId::One, 3);
        let stats = s.run_asp(4000);
        // Homogeneous workers: staleness concentrates at n−1 = 7.
        assert!(
            (stats.mean_staleness - 7.0).abs() < 0.5,
            "mean staleness {}",
            stats.mean_staleness
        );
    }

    #[test]
    fn throughput_ratio_setup1_matches_paper_band() {
        let s = sim(SetupId::One, 4);
        let r = s.asp_over_bsp_throughput();
        // Paper: 6.59×; accept ±20%.
        assert!((5.3..7.9).contains(&r), "setup1 ASP/BSP ratio {r}");
    }

    #[test]
    fn throughput_ratio_setup2_matches_paper_band() {
        let s = sim(SetupId::Two, 5);
        let r = s.asp_over_bsp_throughput();
        // Paper: ≈1.86×; accept ±25%.
        assert!((1.4..2.4).contains(&r), "setup2 ASP/BSP ratio {r}");
    }

    #[test]
    fn throughput_ratio_setup3_matches_paper_band() {
        let s = sim(SetupId::Three, 6);
        let r = s.asp_over_bsp_throughput();
        // Paper: ≈13.9× (implied by Fig. 10a); accept ±25%.
        assert!((10.4..17.4).contains(&r), "setup3 ASP/BSP ratio {r}");
    }

    #[test]
    fn bsp_total_time_setup1_in_paper_range() {
        // 64 K units ≈ 8 K rounds ≈ 150–220 minutes (paper Fig. 11d: ~190).
        let s = sim(SetupId::One, 7);
        let round = s.expected_bsp_round_s();
        let total_min = round * 8000.0 / 60.0;
        assert!(
            (120.0..260.0).contains(&total_min),
            "BSP total {total_min} min"
        );
    }

    #[test]
    fn straggler_slows_bsp_but_not_asp_much() {
        let mut clean = sim(SetupId::One, 8);
        let bsp_clean = clean.run_bsp(800).elapsed.as_secs();
        let asp_clean = clean.run_asp(800).elapsed.as_secs();

        let mut slow = sim(SetupId::One, 8);
        slow.set_scenario(StragglerScenario::constant(1, 0.010));
        let bsp_slow = slow.run_bsp(800).elapsed.as_secs();
        let asp_slow = slow.run_asp(800).elapsed.as_secs();

        let bsp_hit = bsp_slow / bsp_clean;
        let asp_hit = asp_slow / asp_clean;
        assert!(bsp_hit > 1.25, "BSP should suffer: {bsp_hit}");
        assert!(asp_hit < 1.15, "ASP should shrug it off: {asp_hit}");
    }

    #[test]
    fn straggler_visible_in_worker_profile() {
        let mut s = sim(SetupId::One, 9);
        s.set_scenario(StragglerScenario::constant(1, 0.010));
        let stats = s.run_bsp(160);
        let straggler = stats.per_worker_images_per_sec[0];
        let healthy = stats.per_worker_images_per_sec[3];
        assert!(
            straggler < healthy * 0.5,
            "straggler {straggler} vs healthy {healthy}"
        );
    }

    #[test]
    fn elastic_removal_speeds_up_straggled_bsp() {
        let mut with_straggler = sim(SetupId::One, 10);
        with_straggler.set_scenario(StragglerScenario::constant(1, 0.030));
        let slow = with_straggler.run_bsp(700).elapsed.as_secs();

        let mut removed = sim(SetupId::One, 10);
        removed.set_scenario(StragglerScenario::constant(1, 0.030));
        removed.remove_worker(0);
        let fast = removed.run_bsp(700).elapsed.as_secs();
        assert!(fast < slow * 0.75, "removal should help: {fast} vs {slow}");
        removed.restore_all();
        assert_eq!(removed.active_count(), 8);
    }

    #[test]
    fn transient_episode_expires() {
        let mut s = sim(SetupId::One, 11);
        s.set_scenario(StragglerScenario::mild(0.0));
        assert_eq!(s.scenario.active_stragglers(s.now), vec![0]);
        s.advance(SimTime::from_secs(150.0));
        assert!(s.scenario.active_stragglers(s.now).is_empty());
    }

    #[test]
    fn batch_size_throughput_scaling_fig8a() {
        // Larger global batch amortizes the per-round coordination cost
        // (paper Fig. 8a: up to ~2× throughput difference).
        let mut big = sim(SetupId::One, 12);
        big.set_batch(128);
        let t_big = big.run_bsp(1024);
        let thr_big = t_big.cluster_images_per_sec(128);

        let mut small = sim(SetupId::One, 12);
        small.set_batch(16); // global batch 128 instead of 1024
        let t_small = small.run_bsp(1024);
        let thr_small = t_small.cluster_images_per_sec(16);
        assert!(
            thr_big / thr_small > 1.8,
            "batch scaling ratio {}",
            thr_big / thr_small
        );
    }

    #[test]
    fn determinism_for_fixed_seed() {
        let mut a = sim(SetupId::One, 42);
        let mut b = sim(SetupId::One, 42);
        let ra = a.run_bsp(80);
        let rb = b.run_bsp(80);
        assert_eq!(ra.elapsed, rb.elapsed);
        let ra = a.run_asp(500);
        let rb = b.run_asp(500);
        assert_eq!(ra.elapsed, rb.elapsed);
        assert_eq!(ra.mean_staleness, rb.mean_staleness);
    }

    #[test]
    #[should_panic(expected = "cannot remove the last worker")]
    fn cannot_empty_cluster() {
        let mut s = sim(SetupId::One, 13);
        for w in 0..8 {
            s.remove_worker(w);
        }
    }

    fn setup1(seed: u64) -> ClusterSim {
        sim(SetupId::One, seed)
    }

    #[test]
    fn huge_bound_recovers_asp_behaviour() {
        // (scenario, removed worker): the straggler makes workers drift
        // apart, and a removed worker must not hold the floor.
        let cases = [
            (StragglerScenario::none(), None),
            (StragglerScenario::constant(1, 0.010), None),
            (StragglerScenario::constant(1, 0.030), Some(0)),
        ];
        for (scenario, removed) in cases {
            let mk = || {
                let mut s = setup1(1);
                s.set_scenario(scenario.clone());
                if let Some(w) = removed {
                    s.remove_worker(w);
                }
                s
            };
            let (mut ssp, mut asp) = (mk(), mk());
            let s = ssp.run_ssp(2_000, 1_000_000);
            let a = asp.run_asp(2_000);
            assert_eq!(s, a, "unbounded SSP must equal ASP (removed {removed:?})");
            assert_eq!(ssp.now(), asp.now());
            assert_eq!(ssp.units_done(), asp.units_done());
        }
    }

    #[test]
    fn ssp_throughput_sits_between_bsp_and_asp_under_stragglers() {
        let mk = |seed| {
            let mut s = setup1(seed);
            s.set_scenario(StragglerScenario::constant(1, 0.010));
            s
        };
        let bsp = mk(2).run_bsp(2_000).elapsed.as_secs();
        let ssp = mk(2).run_ssp(2_000, 3).elapsed.as_secs();
        let asp = mk(2).run_asp(2_000).elapsed.as_secs();
        assert!(
            asp < ssp && ssp < bsp,
            "ordering violated: asp {asp}, ssp {ssp}, bsp {bsp}"
        );
    }

    #[test]
    fn tight_bound_throttles_fast_workers_with_straggler() {
        // With a straggler and bound 1, fast workers must repeatedly wait:
        // cluster time approaches the straggler's pace.
        let mut tight = setup1(3);
        tight.set_scenario(StragglerScenario::constant(1, 0.030));
        let t_tight = tight.run_ssp(1_000, 1).elapsed.as_secs();
        let mut loose = setup1(3);
        loose.set_scenario(StragglerScenario::constant(1, 0.030));
        let t_loose = loose.run_ssp(1_000, 64).elapsed.as_secs();
        assert!(
            t_tight > 1.5 * t_loose,
            "tight bound should throttle: {t_tight} vs {t_loose}"
        );
    }

    #[test]
    fn staleness_grows_with_bound() {
        let homogeneous = |bound| setup1(4).run_ssp(4_000, bound).mean_staleness;
        let s1 = homogeneous(1);
        let s64 = homogeneous(64);
        assert!(
            s1 <= s64,
            "staleness must not shrink with bound: {s1} vs {s64}"
        );
        // Unbounded staleness on 8 homogeneous workers ≈ 7.
        assert!((s64 - 7.0).abs() < 0.5, "{s64}");
    }

    #[test]
    fn removed_worker_does_not_hold_the_leash() {
        let mut s = setup1(9);
        s.remove_worker(0);
        let stats = s.run_ssp(500, 1);
        assert_eq!(stats.units, 500);
        assert_eq!(stats.per_worker_images_per_sec[0], 0.0);
    }

    #[test]
    fn units_accounting_matches() {
        let mut s = setup1(5);
        let stats = s.run_ssp(777, 4);
        assert_eq!(stats.units, 777);
        assert_eq!(s.units_done(), 777);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = setup1(6).run_ssp(1_500, 3);
        let b = setup1(6).run_ssp(1_500, 3);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.mean_staleness, b.mean_staleness);
    }

    #[test]
    fn committed_view_lag_shifts_staleness_but_not_time() {
        // Calibration is a pure reporting correction: the event schedule —
        // and therefore elapsed time and determinism — must be untouched,
        // under ASP as under SSP.
        for leash in [Some(2), None] {
            let run = |s: &mut ClusterSim| match leash {
                Some(bound) => s.run_ssp(1_500, bound),
                None => s.run_asp(1_500),
            };
            let base = run(&mut setup1(7));
            let mut calibrated = setup1(7);
            calibrated.set_committed_view_lag(1.75);
            let c = run(&mut calibrated);
            assert_eq!(
                c.elapsed, base.elapsed,
                "leash {leash:?}: lag must not change the schedule"
            );
            assert_eq!(
                c.mean_staleness,
                base.mean_staleness + 1.75,
                "leash {leash:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "committed-view lag must be finite and non-negative")]
    fn negative_committed_view_lag_is_refused() {
        setup1(8).set_committed_view_lag(-0.5);
    }
}
