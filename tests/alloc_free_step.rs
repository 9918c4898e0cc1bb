//! Pins the claim that a steady-state worker step allocates nothing: on
//! every data plane (single store, in-process direct tier, channel, TCP),
//! under BSP, ASP and SSP(2), for every registered trainable workload.
//!
//! Allocations are counted by a `#[global_allocator]` that wraps the
//! system allocator and counts every `alloc`, `alloc_zeroed` and `realloc`
//! on every thread, server threads included. That is why this file is a
//! test binary of its own with a single `#[test]`: nothing else runs in
//! the process to add to the count.
//!
//! A segment also allocates per segment — worker threads, the report, the
//! round's shared state — which no step count changes. So each case runs a
//! warm-up segment, then one segment of [`SHORT`] steps and one of
//! [`LONG`], and the longer may allocate at most [`SLACK`] more than the
//! shorter: 100 more steps, next to nothing more allocated.

#[path = "../crates/ps/tests/support/deadline.rs"]
mod deadline;

use deadline::deadline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sync_switch_ps::{ServerTopology, Trainer, TrainerConfig, TransportKind};
use sync_switch_workloads::{SyncProtocol, TrainableKind};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// relaxed atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Global steps of the shorter measured segment.
const SHORT: u64 = 50;
/// Global steps of the longer measured segment, and of the warm-up, so
/// every buffer has already grown to what the longer segment needs.
const LONG: u64 = 150;
/// Allocations the longer segment may make beyond the shorter one. Not
/// zero: a worker's share of an asynchronous segment varies from run to
/// run, and with it when a thread first parks or a lock first contends,
/// which the standard library answers with a one-off allocation.
const SLACK: u64 = 8;

const WORKERS: usize = 2;
const SEED: u64 = 3;

fn trainer(kind: TrainableKind, topology: ServerTopology) -> Trainer {
    let (model, train, test) = kind.build(SEED);
    let h = kind.hyper();
    let cfg = TrainerConfig::new(WORKERS, h.batch_size, h.learning_rate, h.momentum)
        .with_seed(SEED)
        .with_topology(topology);
    Trainer::new(model, train, test, cfg)
}

/// Allocations made, on any thread, while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_worker_steps_allocate_nothing() {
    let _deadline = deadline(300);
    let wire = |kind| ServerTopology::new(2, 2).with_transport(kind);
    let planes = [
        ("single", ServerTopology::single()),
        ("routed", ServerTopology::new(2, 2)),
        ("channel", wire(TransportKind::Channel)),
        ("tcp", wire(TransportKind::Tcp)),
    ];
    let protocols = ["bsp", "asp", "ssp2"];
    let mut failures = Vec::new();
    for kind in TrainableKind::all() {
        for (plane, topology) in planes {
            for protocol in protocols {
                let mut t = trainer(kind, topology);
                let mut run = |steps| {
                    let report = match protocol {
                        "bsp" => t.run_segment(SyncProtocol::Bsp, steps),
                        "asp" => t.run_segment(SyncProtocol::Asp, steps),
                        _ => t.run_ssp_segment(2, steps),
                    };
                    report.expect("segment runs");
                };
                run(LONG);
                let short = allocations_during(|| run(SHORT));
                let long = allocations_during(|| run(LONG));
                let extra = long as i64 - short as i64;
                if extra > SLACK as i64 {
                    failures.push(format!(
                        "{} on {plane} under {protocol}: {short} allocations in {SHORT} steps, \
                         {long} in {LONG} ({extra:+})",
                        kind.name()
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "steps allocate:\n{}",
        failures.join("\n")
    );
}
