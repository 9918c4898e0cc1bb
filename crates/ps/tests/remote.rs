//! The cross-process client path, exercised in-process: [`TcpServerHost`]s
//! bound on real addresses (as `ps-serve` binds them) with a
//! [`NetRouter::connect`] client dialing them by address — no shared memory,
//! no transport-owned servers, exactly the object graph of a multi-process
//! cluster, minus the `fork()`. The true multi-process version runs in the
//! repo-root `tests/cluster.rs` harness under the CI `cluster` stage.

#[path = "support/deadline.rs"]
mod deadline;

use deadline::deadline;
use std::net::SocketAddr;
use std::time::Duration;

use sync_switch_nn::{Dataset, Network};
use sync_switch_ps::config::RetryPolicy;
use sync_switch_ps::transport::{NetPort, NetRouter, TcpServerHost};
use sync_switch_ps::{
    PsError, PullBuffer, ServerTopology, ShardedStore, Trainer, TrainerConfig, TransportKind,
    WorkerPort,
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
    let _deadline = deadline(60);
    let initial: Vec<f32> = (0..41).map(|i| (i as f32).sin()).collect();
    let grad: Vec<f32> = (0..41).map(|i| (i as f32).cos()).collect();
    let (_hosts, addrs) = bind_tier(&initial, 5, 2);
    // The single store is the oracle: it shares no code with the router's
    // commit path, and with `sync_every` 1 every push ends in a round.
    let inproc = ShardedStore::new(&initial, 5);
    let net = NetPort::connect(initial.len(), 5, &addrs, 1, quick_retry()).expect("connect");
    let w = WorkerPort::Net(net.clone());
    let r = net.router();
    // The first handshake of a connected tier records its instances; it
    // finds nothing replaced.
    assert_eq!(r.handshake(Duration::from_secs(5)), Ok(0));
    let nonce = |s| r.server_info(s).expect("hello").nonce;
    assert!(nonce(0) != nonce(1));
    for step in 0..4 {
        for g in 0..5 {
            let (o, l) = inproc.shard_range(g);
            assert_eq!(net.router().shard_range(g), (o, l));
            let a = inproc.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
            let b = w.apply_shard_update(g, &grad[o..o + l], 0.05, 0.9);
            assert_eq!(Ok(a), b, "shard clock skew at step {step} shard {g}");
        }
        inproc.complete_push(step);
        net.router().complete_push(step);
        w.after_push().expect("sync round");
    }
    assert_eq!(inproc.snapshot_params(), net.router().snapshot_params());
    assert_eq!(inproc.snapshot_velocity(), net.router().snapshot_velocity());
    let mut a = PullBuffer::new();
    let mut b = PullBuffer::new();
    let va = inproc.pull_into(&mut a);
    let vb = net.pull_into(&mut b);
    assert_eq!(Ok(va), vb);
    assert_eq!(a.params(), b.params());
    assert_eq!(net.router().is_finite(), Ok(true));
}

#[test]
fn connect_rejects_inconsistent_shapes() {
    let _deadline = deadline(60);
    let addrs: Vec<SocketAddr> = vec!["127.0.0.1:9".parse().unwrap(); 5];
    // More servers than shards is never clamped for a remote tier.
    let err = NetRouter::connect(8, 2, &addrs, 1, quick_retry()).unwrap_err();
    assert!(matches!(err, PsError::InvalidConfig(_)), "{err}");
    assert!(NetRouter::connect(0, 2, &addrs[..1], 1, quick_retry()).is_err());
    assert!(NetRouter::connect(8, 0, &addrs[..1], 1, quick_retry()).is_err());
    assert!(NetRouter::connect(8, 2, &[], 1, quick_retry()).is_err());
    // A zero op timeout has no meaning a socket can honour.
    let never = RetryPolicy {
        op_timeout_ms: 0,
        ..quick_retry()
    };
    let err = NetRouter::connect(8, 2, &addrs[..1], 1, never).unwrap_err();
    assert!(matches!(err, PsError::InvalidConfig(_)), "{err}");
}

#[test]
fn handshake_retries_until_the_server_binds() {
    let _deadline = deadline(60);
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
    let replaced = net
        .router()
        .handshake(Duration::from_secs(10))
        .expect("handshake should wait out the late bind");
    assert_eq!(replaced, 0);
    assert_eq!(net.router().server_info(0).expect("hello").shard_count, 3);
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
    let _deadline = deadline(60);
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
fn handshake_then_restore_lands_every_server_on_the_checkpoint() {
    let _deadline = deadline(60);
    let data = Dataset::gaussian_blobs(4, 96, 6, 0.35, 11);
    let (train, test) = data.split(0.25);
    let model = Network::mlp(6, &[12], 4, 11);
    let initial = model.params_flat();
    let (mut hosts, addrs) = bind_tier(&initial, 4, 2);
    let net = NetPort::connect(initial.len(), 4, &addrs, 1, quick_retry()).expect("connect");
    let view = net.clone();
    let r = view.router();
    let kills = || {
        let snap = r.telemetry().metrics.snapshot();
        snap.counters
            .get("fault.server_kills")
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(r.handshake(Duration::from_secs(5)), Ok(0));
    assert_eq!(kills(), 0, "recording the first instances counted a kill");
    let cfg = TrainerConfig::new(2, 8, 0.05, 0.9);
    let mut t = Trainer::with_port(model, train, test, cfg, WorkerPort::Net(net));

    // Train, checkpoint, and move every server past the checkpoint.
    t.run_segment(SyncProtocol::Asp, 20).expect("segment");
    t.drain_sync().expect("drain");
    let ck = t.checkpoint();
    t.run_segment(SyncProtocol::Asp, 20).expect("segment");

    // Nothing respawned: the handshake heals nothing and touches no state.
    let before = r.snapshot_params();
    assert_eq!(r.handshake(Duration::from_secs(1)), Ok(0));
    assert_eq!(r.snapshot_params(), before);

    // "SIGKILL" server 1: its host drops, the address goes dark.
    let addr1 = addrs[1];
    drop(hosts.pop().expect("host 1"));
    assert!(r.server_info(1).is_err(), "dead server must not answer");

    // Nobody respawns it: the handshake gives up at the deadline.
    let err = r.handshake(Duration::from_millis(300)).unwrap_err();
    assert_eq!(err, PsError::ConnLost { server: 1 });

    // "Respawn the process" at the same address: fresh instance, fresh
    // nonce, spec-initial state. SO_REUSEADDR makes the quick rebind safe.
    let respawned = TcpServerHost::bind(addr1, &initial, 4, 2, 1).expect("respawn");
    assert_eq!(respawned.local_addr(), addr1);
    assert_eq!(
        r.handshake(Duration::from_secs(5)).expect("heal"),
        1,
        "exactly the respawned server heals"
    );
    assert_eq!(kills(), 1);

    // The trainer's restore puts the respawned server and its live peer on
    // the checkpoint, bit for bit.
    t.restore(&ck).expect("restore");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r.snapshot_params()), bits(&ck.params), "params");
    assert_eq!(bits(&r.snapshot_velocity()), bits(&ck.velocity), "velocity");
    let mut buf = PullBuffer::new();
    view.pull_into(&mut buf).expect("pull");
    assert_eq!(bits(buf.params()), bits(&ck.params), "committed view");
}

#[test]
fn owner_ops_return_the_error_of_a_lost_server() {
    let _deadline = deadline(60);
    let data = Dataset::gaussian_blobs(4, 96, 6, 0.35, 13);
    let (train, test) = data.split(0.25);
    let topology = ServerTopology::new(2, 1)
        .with_transport(TransportKind::Tcp)
        .with_retry(quick_retry());
    let cfg = TrainerConfig::new(2, 8, 0.05, 0.9).with_topology(topology);
    let mut t = Trainer::new(Network::mlp(6, &[12], 4, 13), train, test, cfg);
    t.run_segment(SyncProtocol::Asp, 10).expect("segment");
    let ck = t.checkpoint();
    t.net_router()
        .expect("a wire plane")
        .kill_server(1)
        .expect("kill");
    let lost = |e: PsError| {
        assert!(
            matches!(
                e,
                PsError::Timeout { server: 1 }
                    | PsError::ConnLost { server: 1 }
                    | PsError::RetriesExhausted { server: 1, .. }
            ),
            "{e}"
        );
    };
    lost(t.restore(&ck).unwrap_err());
    lost(t.drain_sync().unwrap_err());
    lost(t.reset_velocity().unwrap_err());
}
