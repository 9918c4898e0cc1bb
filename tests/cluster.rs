//! Multi-process cluster tests: real `ps-serve` and `ps-worker` OS
//! processes over real TCP, orchestrated by
//! [`sync_switch::harness::ClusterHarness`].
//!
//! The process-spawning tests are gated behind `PS_CLUSTER_TEST=1` (the CI
//! `cluster` stage sets it) so the tier-1 `cargo test` sweep stays fast and
//! hermetic; without the variable they print a skip notice and pass. The
//! spec round-trip tests always run.

#[path = "../crates/ps/tests/support/deadline.rs"]
mod deadline;

use deadline::deadline;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use sync_switch::deploy::{ClusterSpec, SegmentSpec, WorkerReport};
use sync_switch::harness::ClusterHarness;
use sync_switch::ps::ControllerConfig;
use sync_switch::workloads::TrainableKind;

/// Whether the gated multi-process tests should run.
fn cluster_tests_enabled(test: &str) -> bool {
    if std::env::var("PS_CLUSTER_TEST").as_deref() == Ok("1") {
        true
    } else {
        eprintln!("skipping {test}: set PS_CLUSTER_TEST=1 to run multi-process cluster tests");
        false
    }
}

/// `n` distinct loopback addresses that are free right now: bind them all
/// simultaneously, record, release. A later `ps-serve` re-binds them
/// (SO_REUSEADDR makes the quick re-bind safe); the race window against
/// other processes grabbing a freed port is the standard price of
/// ephemeral-port tests and fails loudly, not flakily silent.
fn free_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind probe"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").to_string())
        .collect()
}

fn harness(spec: ClusterSpec, dir_tag: &str) -> ClusterHarness {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir_tag);
    let _ = std::fs::remove_dir_all(&dir);
    ClusterHarness::new(
        spec,
        env!("CARGO_BIN_EXE_ps-serve"),
        env!("CARGO_BIN_EXE_ps-worker"),
        dir,
    )
    .expect("harness")
}

fn assert_all_converged(reports: &[WorkerReport], segments: usize) {
    for (w, r) in reports.iter().enumerate() {
        assert_eq!(r.segments.len(), segments, "worker {w} segment count");
        assert!(r.finite, "worker {w} saw non-finite parameters");
        assert!(
            r.converged,
            "worker {w} did not converge: loss {} vs gate {}",
            r.final_loss, r.loss_threshold
        );
    }
}

/// The cluster-wide telemetry contract, asserted after a successful run:
/// every worker embedded a live wire scrape of the whole tier in its report
/// (each server index exactly once, each having counted pushes) and dumped
/// its Chrome trace.
fn assert_cluster_telemetry(h: &ClusterHarness, reports: &[WorkerReport]) {
    let servers = h.spec().servers.len();
    for (w, r) in reports.iter().enumerate() {
        let mut scraped: Vec<u32> = r.server_stats.iter().map(|s| s.server).collect();
        scraped.sort_unstable();
        assert_eq!(
            scraped,
            (0..servers as u32).collect::<Vec<_>>(),
            "worker {w} did not scrape every server exactly once"
        );
        for s in &r.server_stats {
            assert!(
                s.push_requests > 0 && s.total_requests > s.push_requests,
                "worker {w} scraped an implausible summary from server {}: {s:?}",
                s.server
            );
        }
        let trace_path = h.worker_trace_path(w);
        let trace = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("worker {w} wrote no trace at {trace_path:?}: {e}"));
        assert!(trace.contains("\"traceEvents\""), "not a Chrome trace");
        assert!(
            trace.contains("\"step\""),
            "worker {w} trace records no training steps"
        );
    }
}

/// The happy path *and* the readiness handshake in one scenario: workers
/// are spawned before any server exists, keep re-dialing, and the run
/// converges under BSP then ASP once the tier comes up late. The adaptive
/// sync controller rides along: every worker runs its segments through the
/// controller and must record its decisions (with reasons) in the report.
#[test]
fn cluster_converges_with_late_binding_servers() {
    let _deadline = deadline(180);
    if !cluster_tests_enabled("cluster_converges_with_late_binding_servers") {
        return;
    }
    let spec = ClusterSpec::standard(TrainableKind::MlpBlobs, free_addrs(2), 11)
        // The barrier threshold is floored so on this homogeneous clean
        // tier the promote decision hinges on loss stability and wire
        // health — guaranteeing at least one decision fires per worker.
        .with_controller(ControllerConfig {
            promote_barrier_frac: 0.0,
            ..ControllerConfig::default()
        });
    let mut h = harness(spec, "late-bind");
    // Workers first: nothing is listening yet.
    h.spawn_workers(2).expect("spawn workers");
    std::thread::sleep(Duration::from_millis(300));
    h.spawn_servers().expect("spawn servers");
    h.wait_servers_ready(Duration::from_secs(10))
        .expect("servers ready");

    // ≥2 ps-serve + ≥2 ps-worker real OS processes.
    let pids = h.child_pids();
    assert_eq!(pids.len(), 4);
    for pid in &pids {
        assert!(
            PathBuf::from(format!("/proc/{pid}")).exists(),
            "child {pid} is not a live OS process"
        );
    }

    let reports = h.wait_workers(Duration::from_secs(120)).expect("reports");
    assert_eq!(reports.len(), 2);
    assert_all_converged(&reports, 2);
    for r in &reports {
        assert_eq!(r.segments[0].protocol, "bsp");
        assert_eq!(r.segments[1].protocol, "asp");
        assert!(r.segments.iter().all(|s| s.steps > 0));
    }
    // The controller closed the loop in every worker process: one decision
    // per segment, each carrying a non-empty reason, and on this clean
    // stable tier the post-warmup decision promotes BSP→ASP.
    for (w, r) in reports.iter().enumerate() {
        assert!(
            !r.controller_decisions.is_empty(),
            "worker {w} recorded no controller decisions"
        );
        for d in &r.controller_decisions {
            assert!(
                !d.reason.is_empty(),
                "worker {w} decision {} has no reason",
                d.segment
            );
        }
        assert!(
            r.controller_decisions.iter().any(|d| d.switched()),
            "worker {w} never switched protocol; decisions: {:?}",
            r.controller_decisions
        );
    }
    // The switch landed in the worker traces as a protocol_switch event.
    let combined: String = (0..reports.len())
        .map(|w| std::fs::read_to_string(h.worker_trace_path(w)).unwrap_or_default())
        .collect();
    assert!(
        combined.contains("\"protocol_switch\""),
        "no worker trace records the controller's switch"
    );
    assert_cluster_telemetry(&h, &reports);
    // Nothing was re-sent on this clean tier, so no server replayed a
    // cached reply: two worker processes never share a client id.
    for r in &reports {
        for s in &r.server_stats {
            assert_eq!(s.dedup_hits, 0, "server {} replayed a reply", s.server);
        }
    }

    // Leak-free teardown: shutdown reaps every child.
    let server_pids = h.child_pids();
    h.shutdown();
    for pid in server_pids {
        assert!(
            !PathBuf::from(format!("/proc/{pid}")).exists(),
            "child {pid} leaked past shutdown"
        );
    }
}

/// The crash drill: SIGKILL one server mid-run, respawn it (as a cluster
/// manager would), and pin that the workers heal the fresh instance — their
/// handshake finds it by its changed nonce — and still converge.
#[test]
fn cluster_survives_mid_run_server_sigkill() {
    let _deadline = deadline(180);
    if !cluster_tests_enabled("cluster_survives_mid_run_server_sigkill") {
        return;
    }
    let mut spec = ClusterSpec::standard(TrainableKind::MlpBlobs, free_addrs(2), 23);
    // Stretch the run so the kill lands mid-training: ~15 ms per step puts
    // the BSP segment alone around 3 s of wall time.
    spec.step_delay_ms = 15;
    spec.segments = vec![SegmentSpec::bsp(200), SegmentSpec::asp(150)];
    let mut h = harness(spec, "sigkill");
    h.spawn_servers().expect("spawn servers");
    h.wait_servers_ready(Duration::from_secs(10))
        .expect("servers ready");
    h.spawn_workers(2).expect("spawn workers");

    // Let training get well underway, then kill server 0 outright.
    std::thread::sleep(Duration::from_millis(1_500));
    h.sigkill_server(0);
    std::thread::sleep(Duration::from_millis(750));
    h.respawn_server(0).expect("respawn");

    let reports = h.wait_workers(Duration::from_secs(150)).expect("reports");
    assert_eq!(reports.len(), 2);
    assert_all_converged(&reports, 2);
    let healed: u64 = reports.iter().map(|r| r.healed_servers).sum();
    assert!(
        healed >= 1,
        "no worker healed the respawned server — the kill missed the run"
    );
    let retried: u64 = reports
        .iter()
        .flat_map(|r| &r.segments)
        .map(|s| s.crash_retries)
        .sum();
    assert!(retried >= 1, "no segment was rolled back and re-run");
    assert_cluster_telemetry(&h, &reports);
    // The crash itself must be visible in the telemetry: some worker's
    // handshake observed the respawned instance (nonce change) and traced
    // the kill/heal pair.
    let combined: String = (0..reports.len())
        .map(|w| std::fs::read_to_string(h.worker_trace_path(w)).unwrap_or_default())
        .collect();
    assert!(
        combined.contains("\"server_heal\""),
        "no worker trace records the heal of the respawned server"
    );
}

/// The crash drill a retry budget hides: server 0 is SIGKILLed and respawned
/// well inside the re-sends the spec's retry policy allows, so no operation
/// fails and the workers re-dial the fresh instance and push into its reset
/// state. Only the handshake each worker runs after its segment-boundary
/// checkpoint can see the new instance, and it must send the segment round
/// again from the checkpoint before.
#[test]
fn cluster_heals_a_server_respawned_within_the_retry_budget() {
    let _deadline = deadline(180);
    if !cluster_tests_enabled("cluster_heals_a_server_respawned_within_the_retry_budget") {
        return;
    }
    let mut spec = ClusterSpec::standard(TrainableKind::MlpBlobs, free_addrs(2), 31);
    spec.step_delay_ms = 15;
    spec.segments = vec![SegmentSpec::bsp(200), SegmentSpec::asp(150)];
    // Up to 60 re-sends, at most 50 ms apart: seconds of budget against a
    // 200 ms outage.
    spec.retry.max_retries = 60;
    spec.retry.backoff_base_ms = 20;
    spec.retry.backoff_max_ms = 50;
    let mut h = harness(spec, "respawn-in-budget");
    h.spawn_servers().expect("spawn servers");
    h.wait_servers_ready(Duration::from_secs(10))
        .expect("servers ready");
    h.spawn_workers(2).expect("spawn workers");

    std::thread::sleep(Duration::from_millis(1_500));
    h.sigkill_server(0);
    std::thread::sleep(Duration::from_millis(200));
    h.respawn_server(0).expect("respawn");

    let reports = h.wait_workers(Duration::from_secs(150)).expect("reports");
    assert_eq!(reports.len(), 2);
    assert_all_converged(&reports, 2);
    let healed: u64 = reports.iter().map(|r| r.healed_servers).sum();
    assert!(healed >= 1, "no worker noticed the respawned server");
}

/// The crash drill without the respawn: the killed server never comes back,
/// so every worker gives up once its (shortened) heal deadline passes and
/// exits non-zero — and must still leave its trace behind, holding the
/// retries that preceded the failure.
#[test]
fn cluster_worker_on_an_unhealed_tier_fails_and_leaves_its_trace() {
    let _deadline = deadline(180);
    if !cluster_tests_enabled("cluster_worker_on_an_unhealed_tier_fails_and_leaves_its_trace") {
        return;
    }
    let mut spec = ClusterSpec::standard(TrainableKind::MlpBlobs, free_addrs(2), 29);
    spec.step_delay_ms = 15;
    spec.segments = vec![SegmentSpec::bsp(200), SegmentSpec::asp(150)];
    spec.heal_secs = 1;
    let mut h = harness(spec, "sigkill-unhealed");
    h.spawn_servers().expect("spawn servers");
    h.wait_servers_ready(Duration::from_secs(10))
        .expect("servers ready");
    h.spawn_workers(2).expect("spawn workers");

    std::thread::sleep(Duration::from_millis(1_500));
    h.sigkill_server(0);

    let err = h
        .wait_workers(Duration::from_secs(60))
        .expect_err("workers cannot finish on a tier that never heals");
    assert!(err.contains("tier did not heal"), "{err}");
    for w in 0..2 {
        let trace_path = h.worker_trace_path(w);
        let trace = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("failed worker {w} wrote no trace at {trace_path:?}: {e}"));
        assert!(trace.contains("\"traceEvents\""), "not a Chrome trace");
        assert!(
            trace.contains("\"step\""),
            "worker {w} trace lost the steps before the kill"
        );
        assert!(
            trace.contains("\"push_retry\""),
            "worker {w} trace lost the retries against the dead server"
        );
    }
}

// ---- always-on spec units (no processes) ----

#[test]
fn spec_json_round_trips_with_every_workload() {
    for kind in TrainableKind::all() {
        let spec = ClusterSpec::standard(kind, vec!["127.0.0.1:7701".into()], 3);
        let parsed = ClusterSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.workload_kind().unwrap(), kind);
    }
}

#[test]
fn spec_rejects_malformed_json_and_bad_layouts() {
    assert!(ClusterSpec::from_json("{not json").is_err());
    assert!(ClusterSpec::from_json("{}").is_err());
    let mut spec = ClusterSpec::standard(TrainableKind::MlpBlobs, free_addrs(1), 3);
    spec.shards = 0;
    assert!(ClusterSpec::from_json(&spec.to_json()).is_err());
}

#[test]
fn harness_refuses_an_invalid_spec() {
    let mut spec = ClusterSpec::standard(TrainableKind::MlpBlobs, vec!["bogus".into()], 3);
    spec.workload = "mlp_blobs".into();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("invalid-spec");
    let err = ClusterHarness::new(spec, "ps-serve", "ps-worker", dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}
