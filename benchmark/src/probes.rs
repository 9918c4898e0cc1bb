//! Isolated probe loops: one public function called many times at the
//! workload's own sizes, median per call. The `P` rows of the per-layer
//! table.

use std::hint::black_box;
use std::time::Duration;

use sync_switch::ps::transport::wire;
use sync_switch::ps::{
    execute_switch, PullBuffer, ShardLayout, ShardedStore, SwitchPlan, Trainer, UpdateData,
};

use crate::replay::shard_segments;
use crate::stats::{median, probe_us};
use crate::workloads::{Workload, SHARDS};

/// Calls per probe; a slow probe stops at [`CAP`] once it has 50 samples.
const CALLS: usize = 1_000;
const CAP: Duration = Duration::from_millis(300);

/// Metric name and value, in the metric's declared unit.
pub type Rows = Vec<(&'static str, f64)>;

/// Store and codec probes on a fresh store of the workload's model: no
/// trainer, no threads, no wire.
pub fn store_and_codec(workload: &Workload, seed: u64, rows: &mut Rows) {
    let (mut model, train, _test, hyper) = workload.build(seed);
    let initial = model.params_flat();
    let (lr, momentum) = (hyper.learning_rate * 1e-3, hyper.momentum);
    let idx: Vec<usize> = (0..hyper.batch_size).collect();
    let (x, y) = train.batch(&idx);
    let (_, grad) = model.loss_and_grad(&x, &y);
    let mut runs = Vec::new();
    let sparse = model.grad_nonzero_runs_into(&mut runs);

    let store = ShardedStore::new(&initial, SHARDS);
    let (offset, len) = store.shard_range(0);
    let shard_grad = &grad[offset..offset + len];
    let mut buf = PullBuffer::new();
    rows.push((
        "store.pull_us",
        probe_us(CALLS, CAP, || {
            black_box(store.pull_into(&mut buf));
        }),
    ));
    rows.push((
        "store.apply_dense_us",
        probe_us(CALLS, CAP, || {
            black_box(store.apply_shard_update(0, black_box(shard_grad), lr, momentum));
        }),
    ));

    // The sparse payload of shard 0: the model's own nonzero runs when its
    // gradient is sparse, otherwise eight evenly spaced segments covering
    // an eighth of the shard.
    let (mut segments, mut values) = (Vec::new(), Vec::new());
    if !sparse || shard_segments(&runs, &grad, offset, len, &mut segments, &mut values) {
        segments.clear();
        values.clear();
        let seg_len = (len / 64).max(1);
        for k in 0..8 {
            let start = k * (len / 8);
            if start + seg_len <= len {
                segments.push((start as u32, seg_len as u32));
                values.extend_from_slice(&shard_grad[start..start + seg_len]);
            }
        }
    }
    rows.push((
        "store.apply_sparse_us",
        probe_us(CALLS, CAP, || {
            let data = UpdateData::Sparse {
                indices: &segments,
                rows: &values,
            };
            black_box(store.apply_shard_update_data(0, data, lr, momentum));
        }),
    ));

    // Codec at the frame sizes the wire workloads move: one shard's push,
    // one server's pulled slice (its share of the parameters and shards).
    let mut frame = Vec::new();
    rows.push((
        "codec.encode_push_us",
        probe_us(CALLS, CAP, || {
            frame.clear();
            wire::encode_push_shard(&mut frame, 0, lr, momentum, black_box(shard_grad));
        }),
    ));
    let mut decoded = Vec::new();
    rows.push((
        "codec.decode_push_us",
        probe_us(CALLS, CAP, || {
            wire::decode_push_shard_into(black_box(&frame), &mut decoded).expect("own frame");
        }),
    ));
    let servers = workload.servers.max(1);
    let server_shards = ShardLayout::new(SHARDS, servers).range(0).1;
    let server_len: usize = (0..server_shards).map(|i| store.shard_range(i).1).sum();
    let mut params = initial[..server_len].to_vec();
    let mut clocks = vec![0u64; server_shards];
    rows.push((
        "codec.encode_pulled_us",
        probe_us(CALLS, CAP, || {
            frame.clear();
            wire::encode_pulled(&mut frame, black_box(&params), &clocks);
        }),
    ));
    rows.push((
        "codec.decode_pulled_us",
        probe_us(CALLS, CAP, || {
            wire::decode_pulled_into(black_box(&frame), &mut params, &mut clocks)
                .expect("own frame");
        }),
    ));
}

/// Probes that need the workload's live data plane: they run on the trainer
/// of a finished traced job, after its budget.
pub fn on_trainer(trainer: &mut Trainer, rows: &mut Rows) {
    rows.push((
        "checkpoint.capture_us",
        probe_us(CALLS, CAP, || {
            black_box(trainer.checkpoint());
        }),
    ));
    rows.push((
        "checkpoint.bytes",
        trainer.checkpoint().to_bytes().len() as f64,
    ));
    let bus = trainer
        .telemetry()
        .expect("telemetry is on by default")
        .clone();
    rows.push((
        "telemetry.snapshot_us",
        probe_us(CALLS, CAP, || {
            black_box(bus.metrics.snapshot());
        }),
    ));

    let (mut rtt, mut stats_rtt) = (0.0, 0.0);
    if let Some(router) = trainer.net_router() {
        // `ping_server` dials a fresh connection each time; a stats scrape
        // reuses the control connection, so it is the bare round trip.
        rtt = probe_us(200, CAP, || {
            router.ping_server(0).expect("server 0 answers")
        });
        stats_rtt = probe_us(CALLS, CAP, || {
            black_box(router.scrape_stats(0).expect("server 0 answers"));
        });
    }
    rows.push(("conn.rtt_us", rtt));
    rows.push(("conn.stats_rtt_us", stats_rtt));

    // The switch actuator at this workload's size and transport, keeping
    // protocol and hyper-parameters, so the job's state is left as it was.
    let plan = SwitchPlan::keep_hyper(trainer.config(), trainer.protocol(), false);
    let mut stages: [Vec<f64>; 4] = Default::default();
    for _ in 0..50 {
        let o = execute_switch(trainer, &plan).expect("a keep-everything switch is valid");
        let parts = [o.total(), o.drain_time, o.checkpoint_time, o.restore_time];
        for (samples, part) in stages.iter_mut().zip(parts) {
            samples.push(part.as_secs_f64() * 1e6);
        }
    }
    let names = [
        "switch.total_us",
        "switch.drain_us",
        "switch.checkpoint_us",
        "switch.restore_us",
    ];
    for (name, samples) in names.into_iter().zip(&stages) {
        rows.push((name, median(samples)));
    }
}
