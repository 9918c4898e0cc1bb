//! The replay loop: the engine's ASP step sequence, run through the public
//! port API with a span around every call.
//!
//! The engine's worker loops are private, so a step cannot be split into
//! layers from outside while `Trainer` runs it. The replay rebuilds the
//! workload's data plane from public constructors and runs the same call
//! sequence — pull, set parameters, sample, compute, per-shard push,
//! complete, stage-2 hook — on [`WORKERS`] threads. The `R` rows of the
//! per-layer table and the step budget come from these spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sync_switch::nn::Network;
use sync_switch::ps::engine::step_rng;
use sync_switch::ps::{NetPort, PortBuffer, ShardedStore, TransportKind, WorkerPort};

use crate::spans::Recorder;
use crate::workloads::{Workload, SHARDS, WORKERS};

/// The data plane of `workload` over `initial`, from public constructors.
fn build_port(workload: &Workload, initial: &[f32]) -> WorkerPort {
    match workload.transport {
        TransportKind::InProcess => {
            WorkerPort::Single(Arc::new(ShardedStore::new(initial, SHARDS)))
        }
        _ => WorkerPort::Net(NetPort::launch(initial, SHARDS, workload.topology())),
    }
}

fn sync_rounds(port: &WorkerPort) -> u64 {
    match port {
        WorkerPort::Net(p) => p.router().sync_rounds(),
        WorkerPort::Single(_) | WorkerPort::Routed(_) => 0,
    }
}

/// The part of the model's sorted nonzero gradient `runs` that falls in the
/// shard at `offset..offset + len`, as shard-relative segments plus their
/// values — what the engine's sparse push ships for one shard. Returns
/// `true` when one run covers the whole shard, which is pushed dense.
pub fn shard_segments(
    runs: &[(usize, usize)],
    grad: &[f32],
    offset: usize,
    len: usize,
    segments: &mut Vec<(u32, u32)>,
    values: &mut Vec<f32>,
) -> bool {
    segments.clear();
    values.clear();
    let end = offset + len;
    for &(run_offset, run_len) in runs {
        let start = run_offset.max(offset);
        let stop = (run_offset + run_len).min(end);
        if start >= stop {
            continue;
        }
        if start == offset && stop == end {
            return true;
        }
        segments.push(((start - offset) as u32, (stop - start) as u32));
        values.extend_from_slice(&grad[start..stop]);
    }
    false
}

/// Reused buffers of the sparse push: the model's nonzero runs, and the
/// segments and values of the shard being pushed.
#[derive(Default)]
struct SparseScratch {
    runs: Vec<(usize, usize)>,
    segments: Vec<(u32, u32)>,
    values: Vec<f32>,
}

/// One step's push: every shard, then `complete_push`, each in its own
/// span under a `push` span.
#[allow(clippy::too_many_arguments)]
fn push(
    port: &WorkerPort,
    model: &Network,
    grad: &[f32],
    buf: &PortBuffer,
    lr: f64,
    momentum: f64,
    scratch: &mut SparseScratch,
    rec: &mut Recorder,
) {
    let SparseScratch {
        runs,
        segments,
        values,
    } = scratch;
    let span = rec.open("push");
    let sparse = model.grad_nonzero_runs_into(runs);
    for i in 0..port.shard_count() {
        let (offset, len) = port.shard_range(i);
        let shard_span = rec.open("push_shard");
        if sparse && !shard_segments(runs, grad, offset, len, segments, values) {
            port.apply_shard_update_sparse(i, segments, values, lr, momentum);
        } else {
            port.apply_shard_update(i, &grad[offset..offset + len], lr, momentum);
        }
        rec.close(shard_span);
    }
    rec.time("complete_push", || port.complete_push(buf.version()));
    rec.close(span);
}

/// Runs the replay for `budget` (or `max_steps` steps, whichever comes
/// first) and returns one recorder per worker thread.
pub fn run(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    max_steps: u64,
    epoch: Instant,
) -> Vec<Recorder> {
    let (model, train, _test, hyper) = workload.build(seed);
    let port = build_port(workload, &model.params_flat());
    let claimed = AtomicU64::new(0);
    let start = Instant::now();
    let (batch, lr, momentum) = (hyper.batch_size, hyper.learning_rate, hyper.momentum);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let port = port.clone();
                let mut model = model.clone();
                let shard = train.shard(worker, WORKERS);
                let claimed = &claimed;
                scope.spawn(move || {
                    let mut rec = Recorder::new(true, epoch, 1 + worker as u64);
                    rec.set_job(seed);
                    let mut buf = port.new_buffer();
                    let mut scratch = SparseScratch::default();
                    while start.elapsed() < budget {
                        // Relaxed: a ticket counter that publishes no data.
                        let s = claimed.fetch_add(1, Ordering::Relaxed);
                        if s >= max_steps {
                            break;
                        }
                        let step = rec.open("step");
                        rec.time("pull", || port.pull_into(&mut buf));
                        rec.time("set_params", || model.set_params_flat(buf.params()));
                        let (x, y) = rec.time("sample_batch", || {
                            let mut rng = step_rng(seed, worker, s);
                            shard.sample_batch(batch, &mut rng)
                        });
                        let (loss, grad) = rec.time("compute", || model.loss_and_grad(&x, &y));
                        assert!(loss.is_finite(), "replay diverged at step {s}");
                        push(
                            &port,
                            &model,
                            &grad,
                            &buf,
                            lr,
                            momentum,
                            &mut scratch,
                            &mut rec,
                        );
                        let rounds_before = sync_rounds(&port);
                        let sync = rec.open("sync");
                        port.after_push();
                        rec.close(sync);
                        if sync_rounds(&port) != rounds_before {
                            rec.annotate(sync, "round", 1.0);
                        }
                        rec.close(step);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_clip_runs_to_the_shard() {
        let grad: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let runs = [(2, 3), (8, 6), (18, 2)];
        let (mut seg, mut val) = (Vec::new(), Vec::new());
        // Shard 10..20 sees the tail of the second run and the third.
        assert!(!shard_segments(&runs, &grad, 10, 10, &mut seg, &mut val));
        assert_eq!(seg, [(0, 4), (8, 2)]);
        assert_eq!(val, [10.0, 11.0, 12.0, 13.0, 18.0, 19.0]);
        // A run covering the whole shard is a dense push.
        assert!(shard_segments(&[(0, 20)], &grad, 5, 5, &mut seg, &mut val));
        // No overlap: an empty sparse push.
        assert!(!shard_segments(&[(0, 2)], &grad, 5, 5, &mut seg, &mut val));
        assert!(seg.is_empty() && val.is_empty());
    }
}
