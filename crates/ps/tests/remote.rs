//! The cross-process client path, exercised in-process: [`TcpServerHost`]s
//! bound on real addresses (as `ps-serve` binds them) with a
//! [`NetRouter::connect`] client dialing them by address — no shared memory,
//! no transport-owned servers, exactly the object graph of a multi-process
//! cluster, minus the `fork()`. The true multi-process version runs in the
//! repo-root `tests/cluster.rs` harness under the CI `cluster` stage.

use std::net::SocketAddr;
use std::time::Duration;

use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::config::RetryPolicy;
use sync_switch_ps::supervisor::ServerSupervisor;
use sync_switch_ps::transport::{NetPort, NetRouter, TcpServerHost};
use sync_switch_ps::{
    PsError, PullBuffer, ServerTopology, ShardRouter, Trainer, TrainerConfig, WorkerPort,
};
use sync_switch_workloads::SyncProtocol;

/// A quick retry policy so negative-path tests (dead server, deadline
/// exceeded) fail in milliseconds instead of the default multi-second
/// budget.
fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        op_timeout_ms: 500,
        max_retries: 1,
        backoff_base_ms: 2,
        backoff_max_ms: 10,
    }
}

fn bind_tier(
    initial: &[f32],
    shards: usize,
    servers: usize,
) -> (Vec<TcpServerHost>, Vec<SocketAddr>) {
    let hosts: Vec<TcpServerHost> = (0..servers)
        .map(|s| TcpServerHost::bind("127.0.0.1:0", initial, shards, servers, s).expect("bind"))
        .collect();
    let addrs = hosts.iter().map(|h| h.local_addr()).collect();
    (hosts, addrs)
}

#[test]
fn remote_tier_matches_in_process_router() {
    let initial: Vec<f32> = (0..41).map(|i| (i as f32).sin()).collect();
    let grad: Vec<f32> = (0..41).map(|i| (i as f32).cos()).collect();
    let (_hosts, addrs) = bind_tier(&initial, 5, 2);
    let inproc = ShardRouter::new(&initial, 5, ServerTopology::new(2, 1));
    let net = NetPort::connect(initial.len(), 5, &addrs, 1, quick_retry()).expect("connect");
    let infos = net
        .router()
        .handshake(Duration::from_secs(5))
        .expect("handshake");
    assert_eq!(infos.len(), 2);
    assert!(infos[0].nonce != infos[1].nonce);
    for step in 0..4 {
        for g in 0..5 {
            let (o, l) = inproc.shard_range(g);
            assert_eq!(net.router().shard_range(g), (o, l));
            let a = inproc.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
            let b = net.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
            assert_eq!(a, b, "shard clock skew at step {step} shard {g}");
        }
        inproc.complete_push(step);
        net.router().complete_push(step);
        inproc.reconcile_if_due();
        net.router().reconcile_if_due();
    }
    assert_eq!(inproc.snapshot_params(), net.router().snapshot_params());
    assert_eq!(inproc.snapshot_velocity(), net.router().snapshot_velocity());
    let mut a = PullBuffer::new();
    let mut b = PullBuffer::new();
    let va = inproc.pull_committed_into(&mut a);
    let vb = net.pull_into(&mut b);
    assert_eq!(va, vb);
    assert_eq!(a.params(), b.params());
    assert!(net.router().is_finite());
}

#[test]
fn connect_rejects_inconsistent_shapes() {
    let addrs: Vec<SocketAddr> = vec!["127.0.0.1:9".parse().unwrap(); 5];
    // More servers than shards is never clamped for a remote tier.
    let err = NetRouter::connect(8, 2, &addrs, 1, quick_retry()).unwrap_err();
    assert!(matches!(err, PsError::InvalidConfig(_)), "{err}");
    assert!(NetRouter::connect(0, 2, &addrs[..1], 1, quick_retry()).is_err());
    assert!(NetRouter::connect(8, 0, &addrs[..1], 1, quick_retry()).is_err());
    assert!(NetRouter::connect(8, 2, &[], 1, quick_retry()).is_err());
}

#[test]
fn handshake_retries_until_the_server_binds() {
    let initial = vec![0.5f32; 12];
    // Reserve an address, then free it so the late-starting server can
    // claim it — the worker must keep dialing in the meantime.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let net = NetPort::connect(12, 3, &[addr], 1, quick_retry()).expect("connect");
    let late = {
        let initial = initial.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            TcpServerHost::bind(addr, &initial, 3, 1, 0).expect("late bind")
        })
    };
    // The handshake starts before the server exists and succeeds once it
    // binds. (A second process grabbing the reserved port in the window
    // would fail the late bind loudly, not hang the test.)
    let infos = net
        .router()
        .handshake(Duration::from_secs(10))
        .expect("handshake should wait out the late bind");
    assert_eq!(infos[0].shard_count, 3);
    let _host = late.join().expect("server thread");

    // An unreachable tier fails with a wire error once the deadline passes.
    let gone = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let net = NetPort::connect(12, 3, &[gone], 1, quick_retry()).expect("connect");
    let err = net
        .router()
        .handshake(Duration::from_millis(200))
        .unwrap_err();
    assert!(
        matches!(err, PsError::ConnLost { .. } | PsError::Timeout { .. }),
        "{err}"
    );
}

#[test]
fn handshake_rejects_a_server_with_a_different_spec() {
    // The server was launched as server 0 of a *1*-server tier; the worker
    // believes the tier has 2 servers. Shard ownership disagrees, so the
    // handshake must refuse rather than let pushes land on wrong shards.
    let initial = vec![1.0f32; 16];
    let host = TcpServerHost::bind("127.0.0.1:0", &initial, 4, 1, 0).expect("bind");
    let addrs = vec![host.local_addr(), host.local_addr()];
    let net = NetPort::connect(16, 4, &addrs, 1, quick_retry()).expect("connect");
    let err = net.router().handshake(Duration::from_secs(2)).unwrap_err();
    assert!(matches!(err, PsError::InvalidConfig(_)), "{err}");
}

#[test]
fn heal_respawned_then_restore_lands_every_server_on_the_checkpoint() {
    let data = Dataset::gaussian_blobs(4, 96, 6, 0.35, 11);
    let (train, test) = data.split(0.25);
    let model = Network::mlp(6, &[12], 4, 11);
    let initial = model.params_flat();
    let (mut hosts, addrs) = bind_tier(&initial, 4, 2);
    let net = NetPort::connect(initial.len(), 4, &addrs, 1, quick_retry()).expect("connect");
    let view = net.clone();
    let r = view.router();
    r.handshake(Duration::from_secs(5)).expect("handshake");
    let cfg = TrainerConfig::new(2, 8, 0.05, 0.9);
    let mut t = Trainer::with_port(model, train, test, cfg, WorkerPort::Net(net));
    let mut sup = ServerSupervisor::default();
    sup.record(r).expect("record");

    // Train, checkpoint, and move every server past the checkpoint.
    t.run_segment(SyncProtocol::Asp, 20).expect("segment");
    t.drain_sync();
    let ck = t.checkpoint();
    t.run_segment(SyncProtocol::Asp, 20).expect("segment");

    // Nothing respawned: heal is a no-op and must not touch state.
    let before = r.snapshot_params();
    assert_eq!(sup.heal_respawned(r, Duration::from_secs(1)).unwrap(), 0);
    assert_eq!(r.snapshot_params(), before);

    // "SIGKILL" server 1: its host drops, the address goes dark.
    let addr1 = addrs[1];
    drop(hosts.pop().expect("host 1"));
    assert!(r.server_info(1).is_err(), "dead server must not answer");

    // Nobody respawns it: heal gives up at the deadline with ConnLost.
    let err = sup
        .heal_respawned(r, Duration::from_millis(300))
        .unwrap_err();
    assert_eq!(err, PsError::ConnLost { server: 1 });

    // "Respawn the process" at the same address: fresh instance, fresh
    // nonce, spec-initial state. SO_REUSEADDR makes the quick rebind safe.
    let respawned = TcpServerHost::bind(addr1, &initial, 4, 2, 1).expect("respawn");
    assert_eq!(respawned.local_addr(), addr1);
    assert_eq!(
        sup.heal_respawned(r, Duration::from_secs(5)).expect("heal"),
        1,
        "exactly the respawned server heals"
    );
    let kills = r.telemetry().metrics.snapshot().counters["fault.server_kills"];
    assert_eq!(kills, 1);

    // The trainer's restore puts the respawned server and its live peer on
    // the checkpoint, bit for bit.
    t.restore(&ck).expect("restore");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r.snapshot_params()), bits(&ck.params), "params");
    assert_eq!(bits(&r.snapshot_velocity()), bits(&ck.velocity), "velocity");
    let mut buf = PullBuffer::new();
    view.pull_into(&mut buf);
    assert_eq!(bits(buf.params()), bits(&ck.params), "committed view");
}
