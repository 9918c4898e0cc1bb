//! The asynchronous sync tail: ASP, and Stale Synchronous Parallel as ASP
//! on a leash — an extension substrate (the paper notes Sync-Switch "is
//! agnostic to the underlying synchronization protocols", e.g. switching
//! from SSP to ASP).
//!
//! Under both protocols a worker claims the next global step, runs the
//! shared step prologue ([`Worker::compute_step`]) and applies its update
//! at once. SSP with bound `s` adds one thing: a worker may run at most `s`
//! iterations ahead of the slowest active worker, and waits at the gate
//! otherwise. `s = 0` forces lock-step iterations; no leash at all *is*
//! ASP, so that is how ASP is written — [`async_loop`] with
//! `leash == None` builds no [`SspGate`], reads no floor, publishes no
//! progress and records no barrier wait.

use std::sync::atomic::{AtomicU64, Ordering};

use sync_switch_workloads::SyncProtocol;

use crate::engine::{SegmentReport, Trainer, Worker};
use crate::error::PsError;
use crate::gate::RoundGate;

/// SSP progress: one completed-iteration counter per worker, watched
/// through the segment's [`RoundGate`]. A worker stores its own counter and
/// advances the gate; a worker that is too far ahead recomputes the floor
/// from the counters inside [`RoundGate::wait_until`], so an unblocked step
/// takes no lock and a step only pays for a wake-up when a peer is parked.
struct SspGate {
    /// Completed iterations per worker; [`DONE`] for a worker that has left
    /// the segment (or never took part), so it cannot hold the floor down.
    iterations: Vec<AtomicU64>,
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
    fn publish(&self, gate: &RoundGate, worker: usize, iterations: u64) {
        // Release: a waiter that reads this count also observes the pushes
        // it counts (they precede the store in program order).
        self.iterations[worker].store(iterations, Ordering::Release);
        gate.advance();
    }
}

/// What the workers of one asynchronous segment share: the step ticket
/// counter and, under SSP, the progress counters and the bound.
pub(crate) struct AsyncShared {
    claimed: AtomicU64,
    leash: Option<(SspGate, u64)>,
}

impl AsyncShared {
    /// Shared state for `active` of `workers` workers; `leash` is the SSP
    /// bound, `None` for ASP.
    pub(crate) fn new(workers: usize, active: &[usize], leash: Option<u64>) -> Self {
        let ssp = |bound| {
            let iterations = (0..workers)
                .map(|w| AtomicU64::new(if active.contains(&w) { 0 } else { DONE }))
                .collect();
            (SspGate { iterations }, bound)
        };
        AsyncShared {
            claimed: AtomicU64::new(0),
            leash: leash.map(ssp),
        }
    }
}

/// ASP and SSP: workers claim global steps and apply updates immediately.
///
/// A steady-state step allocates nothing, the whole step included — batch,
/// pull, compute and push (pinned by `steady_state_worker_steps_allocate_nothing`
/// in `tests/alloc_free_step.rs`): each worker reuses one pull buffer for
/// every pull and pushes its gradient shard-by-shard, measuring per-shard
/// staleness against the clocks captured at pull time.
/// With no barrier, wall and busy time differ only by straggler sleeps,
/// scheduler preemption and — under SSP — the gate waits.
pub(crate) fn async_loop(
    w: &mut Worker<'_>,
    shared: &AsyncShared,
    steps: u64,
) -> Result<(), PsError> {
    let gate = w.gate;
    let leash = shared.leash.as_ref();
    let mut my_iter = 0u64;
    loop {
        if let Some((ssp, bound)) = leash {
            // Wait while more than `bound` ahead. Because every push bumps
            // every shard clock exactly once, capping the iteration lead
            // caps the number of pushes — and therefore the staleness —
            // that any *shard* can accumulate between this worker's pull
            // and its push: a peer enters the window no more than `bound`
            // iterations behind and leaves it no more than `bound + 1`
            // ahead, so each of the other workers lands at most
            // 2·bound + 2 applies per shard in the window.
            w.wait_at_gate(|| my_iter <= ssp.floor().saturating_add(*bound));
        }
        if gate.is_aborted() {
            break;
        }
        // Relaxed: a pure ticket counter — atomicity alone guarantees each
        // step id is claimed exactly once; no other data is published
        // through it.
        let s = shared.claimed.fetch_add(1, Ordering::Relaxed);
        if s >= steps {
            if let Some((ssp, _)) = leash {
                ssp.publish(gate, w.id, DONE);
            }
            break;
        }
        let step = w.compute_step(w.base_step + s, None)?;
        let staleness = w.push()?;
        w.record_step(&step, step.t0.elapsed(), Some(staleness));
        w.mark_wall();
        if let Some((ssp, _)) = leash {
            my_iter += 1;
            ssp.publish(gate, w.id, my_iter);
        }
    }
    Ok(())
}

impl Trainer {
    /// Runs `steps` global steps under SSP with staleness bound `bound`.
    ///
    /// The returned report carries `SyncProtocol::Asp` as its protocol tag
    /// (SSP is asynchronous-with-a-leash; the core policy enum stays
    /// BSP/ASP per the paper), and so does [`Trainer::protocol`]; the
    /// gate's effect is visible in the wall time and the measured staleness
    /// histogram.
    ///
    /// # Errors
    ///
    /// As [`Trainer::run_segment`]: [`PsError::Diverged`] on a non-finite
    /// tier at the end of the segment, and the wire error naming a server
    /// lost mid-segment behind a transport-backed plane.
    pub fn run_ssp_segment(&mut self, bound: u64, steps: u64) -> Result<SegmentReport, PsError> {
        self.run_leashed(SyncProtocol::Asp, Some(bound), steps)
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
        // since the last reconciliation round: every `sync_every`-th push
        // ticket claims a round and its worker commits it, under the round
        // lock, before completing that push and starting its next step, so the
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
        let shards = t.net_router().expect("multi-server plane").shard_count() as u64;
        assert_eq!(r.shard_staleness.total(), steps * shards);
        // Every `sync_every`-th push ticket claims a round, however the
        // pushes interleave.
        assert_eq!(r.sync_rounds, steps / sync_every);
        let cap = (2 * bound + 2) * (workers - 1) + sync_every + 2 * workers;
        // On every server: each owns its shards' observations.
        let router = t.net_router().expect("multi-server plane");
        for server in 0..2 {
            let max = (0..router.shard_count())
                .filter(|&g| router.owner_of(g) == server)
                .filter_map(|g| r.shard_staleness.shard(g).max())
                .max()
                .unwrap();
            assert!(
                max <= cap,
                "server {server}: per-shard staleness {max} exceeds cap {cap}"
            );
        }
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
