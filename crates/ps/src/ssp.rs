//! Stale Synchronous Parallel on the real parameter server — an extension
//! substrate (the paper notes Sync-Switch "is agnostic to the underlying
//! synchronization protocols", e.g. switching from SSP to ASP).
//!
//! SSP with bound `s`: updates apply asynchronously like ASP, but a worker
//! may run at most `s` iterations ahead of the slowest active worker; it
//! blocks at the gate otherwise. `s = 0` forces lock-step iterations;
//! large `s` recovers ASP.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sync_switch_workloads::SyncProtocol;

use crate::engine::{SegmentReport, Trainer};
use crate::error::PsError;
use crate::gate::RoundGate;
use crate::profiler::{ServerShardStaleness, StalenessHistogram, WorkerProfile};

/// Progress gate shared by SSP workers: one completed-iteration counter per
/// worker over the shared [`RoundGate`]. A worker stores its own counter and
/// advances the gate; a worker that is too far ahead recomputes the floor
/// from the counters inside [`RoundGate::wait_until`], so an unblocked step
/// takes no lock and a step only pays for a wake-up when a peer is parked.
struct SspGate {
    /// Completed iterations per worker; [`DONE`] for a worker that has left
    /// the segment (or never took part), so it cannot hold the floor down.
    iterations: Vec<AtomicU64>,
    gate: RoundGate,
}

/// Counter value of a worker that no longer takes steps.
const DONE: u64 = u64::MAX;

impl SspGate {
    /// Iterations completed by the slowest worker still running.
    fn floor(&self) -> u64 {
        // Acquire: pairs with the Release store in `publish`.
        self.iterations
            .iter()
            .map(|it| it.load(Ordering::Acquire))
            .min()
            .unwrap_or(DONE)
    }

    /// Records `worker`'s progress, then wakes the waiters to re-read it.
    fn publish(&self, worker: usize, iterations: u64) {
        // Release: a waiter that reads this count also observes the pushes
        // it counts (they precede the store in program order).
        self.iterations[worker].store(iterations, Ordering::Release);
        self.gate.advance();
    }
}

impl Trainer {
    /// Runs `steps` global steps under SSP with staleness bound `bound`.
    ///
    /// The returned report carries `SyncProtocol::Asp` as its protocol tag
    /// (SSP is asynchronous-with-a-leash; the core policy enum stays
    /// BSP/ASP per the paper), with the gate's effect visible in the wall
    /// time and the measured staleness histogram.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Diverged`] on a non-finite or above-threshold
    /// loss and [`PsError::WorkerPanicked`] if a worker thread died
    /// mid-segment (a dead server behind a transport-backed plane), as
    /// with the other protocols.
    pub fn run_ssp_segment(&mut self, bound: u64, steps: u64) -> Result<SegmentReport, PsError> {
        if steps == 0 {
            return self.run_segment(SyncProtocol::Asp, 0);
        }
        // SSP is asynchronous-with-a-leash: the trainer's recorded protocol
        // carries the same ASP tag the returned report does.
        self.set_protocol(SyncProtocol::Asp);
        let cfg = self.config().clone();
        let active = cfg.active_workers();
        if active.is_empty() {
            return Err(PsError::InvalidConfig("all workers excluded".into()));
        }
        let workers = cfg.workers;
        let ssp = Arc::new(SspGate {
            iterations: (0..workers)
                .map(|w| AtomicU64::new(if active.contains(&w) { 0 } else { DONE }))
                .collect(),
            gate: RoundGate::new(),
        });
        let diverged_at = Arc::new(AtomicU64::new(u64::MAX));
        let claimed = Arc::new(AtomicU64::new(0));
        let port = self.port();
        let base_step = self.global_step();
        let n_shards = port.shard_count();
        let n_servers = port.server_count();
        let rounds_before = self.sync_rounds();
        let wire_before = self.transport_stats();
        let telemetry = self.telemetry().cloned();

        let start = Instant::now();
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(active.len());
            for &worker in &active {
                let ssp = Arc::clone(&ssp);
                let diverged_at = Arc::clone(&diverged_at);
                let claimed = Arc::clone(&claimed);
                let port = port.clone();
                let shard = self.shard(worker);
                let mut model = self.model_template().clone();
                let delay = cfg.straggler_delay[worker];
                let batch = cfg.per_worker_batch;
                let (lr, mu) = (cfg.learning_rate, cfg.momentum);
                let seed = cfg.seed;
                let threshold = cfg.divergence_loss_threshold;
                let sparse_enabled = cfg.sparse_push;
                let telemetry = telemetry.clone();
                handles.push(scope.spawn(move || {
                    let mut profile = WorkerProfile::default();
                    let mut hist = StalenessHistogram::new();
                    let mut shard_hist = ServerShardStaleness::new(n_servers, n_shards);
                    let mut buf = port.new_buffer();
                    let mut scratch = crate::engine::StepScratch::default();
                    let mut wt = telemetry.as_ref().map(crate::engine::WorkerTelemetry::new);
                    let mut my_iter = 0u64;
                    // First-step start for the wall-clock throughput span —
                    // under SSP the wall rate absorbs the gate waits the
                    // busy rate hides.
                    let mut wall_start: Option<Instant> = None;
                    // Same panic containment as the BSP loop: a dying data
                    // plane panics the worker, which aborts the gate so
                    // peers held at it wake up and exit, and the segment
                    // returns `WorkerPanicked`.
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        loop {
                            // Gate: wait while more than `bound` ahead.
                            // Because every push bumps every shard clock
                            // exactly once, capping the iteration lead caps
                            // the number of pushes — and therefore the
                            // staleness — that any *shard* can accumulate
                            // between this worker's pull and its push: a
                            // peer enters the window no more than `bound`
                            // iterations behind and leaves it no more than
                            // `bound + 1` ahead, so each of the other
                            // workers lands at most 2·bound + 2 applies per
                            // shard in the window.
                            let wait_ns = wt.as_ref().map_or(0, |w| w.now_ns());
                            let parked = ssp
                                .gate
                                .wait_until(|| my_iter <= ssp.floor().saturating_add(bound));
                            // The SSP gate is this protocol's barrier: trace
                            // the wait under the same span kind so straggler
                            // back-pressure is visible in one place.
                            if let Some(w) = wt.as_mut() {
                                w.barrier_wait(worker, wait_ns, parked);
                            }
                            if ssp.gate.is_aborted() {
                                break;
                            }
                            // Relaxed: pure ticket counter; atomicity alone
                            // guarantees unique step ids.
                            let s = claimed.fetch_add(1, Ordering::Relaxed);
                            if s >= steps {
                                ssp.publish(worker, DONE);
                                break;
                            }
                            let t0 = Instant::now();
                            wall_start.get_or_insert(t0);
                            let step_ns = wt.as_ref().map_or(0, |w| w.now_ns());
                            // Batch first: it says what the pull must fetch.
                            let mut rng = crate::engine::step_rng(seed, worker, base_step + s);
                            let (x, y) = shard.sample_batch(batch, &mut rng);
                            crate::engine::pull_for_batch(
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
                                ssp.gate.abort();
                                break;
                            }
                            // Shard-granular push with per-shard staleness
                            // measured against the pull-time shard clocks
                            // (shared with the ASP loop so both protocols
                            // measure identically — including the sparse
                            // path for embedding workloads).
                            let staleness = crate::engine::push_maybe_sparse(
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
                            my_iter += 1;
                            ssp.publish(worker, my_iter);
                        }
                    }));
                    if let Some(w) = wt.as_mut() {
                        w.flush();
                    }
                    match run {
                        Ok(()) => Ok((worker, profile, hist, shard_hist)),
                        Err(_payload) => {
                            ssp.gate.abort();
                            Err(worker)
                        }
                    }
                }));
            }
            crate::engine::collect_worker_results(handles)
        })?;
        let wall_time = start.elapsed();

        // Relaxed: the worker threads were joined by the scope above, and
        // joining synchronizes-with everything they wrote.
        let diverged = diverged_at.load(Ordering::Relaxed);
        if diverged != u64::MAX {
            return Err(PsError::Diverged { step: diverged });
        }

        let mut profiles = vec![WorkerProfile::default(); workers];
        let mut staleness = StalenessHistogram::new();
        let mut server_shard_staleness = ServerShardStaleness::new(n_servers, n_shards);
        let mut tail = Vec::new();
        for (worker, profile, hist, shard_hist) in results {
            staleness.merge(&hist);
            server_shard_staleness.merge(&shard_hist);
            tail.extend(profile.losses.iter().rev().take(4).copied());
            profiles[worker] = profile;
        }
        self.advance_global_step(steps);
        Ok(SegmentReport {
            protocol: SyncProtocol::Asp,
            steps,
            wall_time,
            worker_profiles: profiles,
            staleness,
            shard_staleness: server_shard_staleness.flatten(),
            server_shard_staleness,
            sync_rounds: self.sync_rounds() - rounds_before,
            transport: self.transport_stats().delta(&wire_before),
            finite: self.check_finite(),
            final_loss: if tail.is_empty() {
                0.0
            } else {
                tail.iter().sum::<f32>() / tail.len() as f32
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfig;
    use std::time::Duration;
    use sync_switch_nn::{Dataset, Network};

    fn trainer(workers: usize, seed: u64) -> Trainer {
        let data = Dataset::gaussian_blobs(4, 80, 6, 0.35, seed);
        let (train, test) = data.split(0.25);
        Trainer::new(
            Network::mlp(6, &[12], 4, seed),
            train,
            test,
            TrainerConfig::new(workers, 6, 0.04, 0.9).with_seed(seed),
        )
    }

    #[test]
    fn ssp_completes_exact_steps() {
        let mut t = trainer(4, 1);
        let r = t.run_ssp_segment(2, 120).unwrap();
        assert_eq!(r.steps, 120);
        assert_eq!(t.global_step(), 120);
        assert_eq!(t.store().unwrap().version(), 120);
        let total: usize = r.worker_profiles.iter().map(|p| p.steps()).sum();
        assert_eq!(total, 120);
    }

    #[test]
    fn bound_zero_enforces_lockstep_iterations() {
        let mut t = trainer(4, 2);
        let r = t.run_ssp_segment(0, 80).unwrap();
        // With bound 0 every worker completes the same iteration count
        // (within 1, for the final partial wave).
        let steps: Vec<usize> = r.worker_profiles.iter().map(|p| p.steps()).collect();
        let min = *steps.iter().min().unwrap();
        let max = *steps.iter().max().unwrap();
        assert!(max - min <= 1, "lock-step violated: {steps:?}");
    }

    #[test]
    fn tight_bound_throttles_fast_workers_under_straggler() {
        let mk = |bound: u64| {
            let data = Dataset::gaussian_blobs(4, 80, 6, 0.35, 3);
            let (train, test) = data.split(0.25);
            let cfg = TrainerConfig::new(3, 6, 0.04, 0.9)
                .with_seed(3)
                .with_straggler(0, Duration::from_millis(3));
            let mut t = Trainer::new(Network::mlp(6, &[12], 4, 3), train, test, cfg);
            t.run_ssp_segment(bound, 60).unwrap()
        };
        let tight = mk(1);
        let loose = mk(1_000);
        // Loose SSP ≈ ASP: fast workers take most steps; tight SSP forces
        // near-equal shares.
        let spread = |r: &SegmentReport| {
            let s: Vec<usize> = r.worker_profiles.iter().map(|p| p.steps()).collect();
            *s.iter().max().unwrap() as i64 - *s.iter().min().unwrap() as i64
        };
        assert!(
            spread(&tight) < spread(&loose),
            "tight {} vs loose {}",
            spread(&tight),
            spread(&loose)
        );
        assert!(tight.wall_time > loose.wall_time);
    }

    #[test]
    fn gate_bounds_per_shard_staleness() {
        let workers = 4u64;
        let bound = 1u64;
        let mut t = trainer(workers as usize, 6);
        let r = t.run_ssp_segment(bound, 120).unwrap();
        // One observation per shard per push.
        let shards = t.store().unwrap().shard_count() as u64;
        assert_eq!(r.shard_staleness.total(), 120 * shards);
        // The iteration gate caps per-shard staleness: each of the other
        // workers can land at most 2·bound + 2 applies on a shard between
        // this worker's pull of it and its push to it.
        let cap = (2 * bound + 2) * (workers - 1);
        let max = r.shard_staleness.max().unwrap();
        assert!(
            max <= cap,
            "per-shard staleness {max} exceeds gate cap {cap}"
        );
        // The global measurement obeys the same window.
        assert!(r.staleness.max().unwrap() <= cap);
    }

    #[test]
    fn stage2_bounds_cross_server_staleness() {
        // Multi-server SSP: the iteration gate *plus* the stage-2 period
        // cap per-shard staleness on every server. A pull reads a server's
        // committed view, which trails its live clock by at most the pushes
        // since the last due reconciliation round: rounds run every
        // `sync_every` completed pushes and a worker that finds a round due
        // blocks on the round lock before starting its next step, so the
        // committed view is never more than `sync_every + 2·workers`
        // applies behind live (period + in-flight pushes on each side of
        // the round). On top of that the gate admits at most
        // (2·bound + 2)·(workers − 1) peer applies between pull and push.
        let workers = 4u64;
        let bound = 1u64;
        let sync_every = 3u64;
        let data = Dataset::gaussian_blobs(4, 80, 6, 0.35, 6);
        let (train, test) = data.split(0.25);
        let cfg = TrainerConfig::new(workers as usize, 6, 0.04, 0.9)
            .with_seed(6)
            .with_topology(crate::config::ServerTopology::new(2, sync_every));
        let mut t = Trainer::new(Network::mlp(6, &[12], 4, 6), train, test, cfg);
        let steps = 120;
        let r = t.run_ssp_segment(bound, steps).unwrap();
        let shards = t.router().expect("multi-server plane").shard_count() as u64;
        assert_eq!(r.shard_staleness.total(), steps * shards);
        // Rounds fire on the `sync_every` schedule (contended rounds may
        // batch, so the count is bounded by the period, not pinned to it).
        assert!(r.sync_rounds >= 1);
        assert!(r.sync_rounds <= steps / sync_every);
        let cap = (2 * bound + 2) * (workers - 1) + sync_every + 2 * workers;
        let max = r.server_shard_staleness.max().unwrap();
        assert!(
            max <= cap,
            "cross-server per-shard staleness {max} exceeds cap {cap}"
        );
        // The per-server view carries the same observations as the
        // flattened per-shard record.
        assert_eq!(r.server_shard_staleness.total(), r.shard_staleness.total());
        assert_eq!(r.server_shard_staleness.server_count(), 2);
    }

    #[test]
    fn ssp_training_learns() {
        // 8 segments (not 5): under an oversubscribed single-core CI box
        // the scheduler can hand SSP an unlucky staleness pattern, and the
        // extra segments keep the accuracy threshold comfortably cleared
        // without weakening it.
        let mut t = trainer(4, 4);
        for _ in 0..8 {
            t.run_ssp_segment(3, 60).unwrap();
        }
        assert!(t.evaluate() > 0.6, "accuracy {}", t.evaluate());
    }

    #[test]
    fn excluded_workers_do_not_hold_the_gate() {
        let mut t = trainer(4, 5);
        let mut cfg = t.config().clone();
        cfg.excluded_workers = vec![1];
        t.set_config(cfg).unwrap();
        // Would deadlock if worker 1's zero iterations pinned the floor.
        let r = t.run_ssp_segment(1, 60).unwrap();
        assert_eq!(r.steps, 60);
        assert_eq!(r.worker_profiles[1].steps(), 0);
    }
}
