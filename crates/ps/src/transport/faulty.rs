//! Deterministic fault injection over any transport backend.
//!
//! [`FaultyTransport`] wraps a real [`Transport`] (direct, channel or TCP) and
//! perturbs every connection it hands out according to a seeded
//! [`FaultPlan`]: replies are dropped or duplicated, calls are delayed
//! (straggler mode), frames are torn mid-write, and connections are killed
//! on schedule. Faults are drawn from a per-connection xorshift stream
//! seeded by `plan.seed ^ connection_index`, so a chaos run is exactly
//! reproducible — same plan, same faults, same retry trace.
//!
//! The wrapper sits *below* the retry layer in
//! [`crate::transport::NetRouter`]: an injected fault surfaces to the
//! client as an ordinary I/O error (timeout, broken pipe), which the retry
//! machinery must absorb. This is the substrate of the `chaos` CI stage.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::{Conn, Transport};
use crate::server::PsServer;

/// A deterministic fault schedule. All rates are per-mille (0 = never,
/// 1000 = every call); the plan is pure data, so it can ride along in
/// [`crate::config::ServerTopology`] (`Copy + Eq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed of the fault stream; each connection derives its own stream
    /// from `seed ^ connection_index`.
    pub seed: u64,
    /// Per-mille chance that a call executes on the server but its reply
    /// is dropped (the client sees a timeout; only an idempotent re-send
    /// is safe).
    pub drop_reply_per_mille: u16,
    /// Per-mille chance that a request frame is delivered twice (the
    /// at-most-once dedup on the server must absorb the duplicate).
    pub duplicate_per_mille: u16,
    /// Per-mille chance that a torn (truncated) frame is written and the
    /// connection aborted — TCP only; backends whose framing cannot tear
    /// skip this fault.
    pub torn_per_mille: u16,
    /// Per-mille chance that a call is delayed by [`FaultPlan::latency_ms`]
    /// (straggler mode).
    pub latency_per_mille: u16,
    /// Injected delay for latency faults.
    pub latency_ms: u64,
    /// If non-zero, each connection is killed after this many calls
    /// (forcing a reconnect).
    pub kill_conn_after: u32,
}

impl FaultPlan {
    /// A plan with `seed` and no faults enabled — builder starting point.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Whether any fault is enabled — a plan with all rates zero is
    /// transparent and need not be installed at all.
    pub fn any_fault(&self) -> bool {
        self.drop_reply_per_mille > 0
            || self.duplicate_per_mille > 0
            || self.torn_per_mille > 0
            || self.latency_per_mille > 0
            || self.kill_conn_after > 0
    }
}

/// A [`Transport`] decorator injecting the faults of a [`FaultPlan`] into
/// every connection. Kill/revive hooks delegate to the wrapped backend, so
/// a crash heals the same way with and without fault injection.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    /// Connections handed out so far; indexes the per-conn fault streams.
    conn_counter: AtomicU64,
}

impl std::fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .finish()
    }
}

impl FaultyTransport {
    /// Wraps `inner`, perturbing its connections per `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            conn_counter: AtomicU64::new(0),
        }
    }

    /// The active fault plan.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }
}

impl Transport for FaultyTransport {
    fn connect(&self, server: usize) -> io::Result<Box<dyn Conn>> {
        let inner = self.inner.connect(server)?;
        let index = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(FaultyConn {
            inner: Some(inner),
            plan: self.plan,
            rng: Xorshift64::new(self.plan.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            calls: 0,
            request: Vec::new(),
            reply: Vec::new(),
        }))
    }

    fn kill_server(&self, server: usize) -> io::Result<()> {
        self.inner.kill_server(server)
    }

    fn revive_server(&self, server: usize, fresh: Arc<PsServer>) -> io::Result<()> {
        self.inner.revive_server(server, fresh)
    }
}

/// Tiny deterministic RNG for fault rolls (no external rand dependency on
/// this path; the stream only has to be reproducible, not strong).
#[derive(Debug)]
struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    fn new(seed: u64) -> Self {
        Xorshift64 {
            state: seed | 1, // xorshift must not start at 0
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// One per-mille roll: true with probability `per_mille`/1000.
    fn roll(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.next() % 1000 < u64::from(per_mille)
    }
}

/// A connection whose calls are perturbed per the plan. The request payload
/// is staged in an owned buffer so a duplicate fault can replay it into the
/// wrapped connection twice.
struct FaultyConn {
    /// `None` once the connection was killed or aborted by a fault.
    inner: Option<Box<dyn Conn>>,
    plan: FaultPlan,
    rng: Xorshift64,
    calls: u32,
    request: Vec<u8>,
    reply: Vec<u8>,
}

impl std::fmt::Debug for FaultyConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyConn")
            .field("alive", &self.inner.is_some())
            .field("calls", &self.calls)
            .finish()
    }
}

impl FaultyConn {
    /// Copies the staged payload into the wrapped conn and executes the
    /// call, caching the reply in `self.reply`.
    fn forward(&mut self) -> io::Result<()> {
        let inner = self
            .inner
            .as_mut()
            .expect("forward called on a dead connection");
        let buf = inner.request_buf();
        buf.extend_from_slice(&self.request);
        let reply = inner.call()?;
        self.reply.clear();
        self.reply.extend_from_slice(reply);
        Ok(())
    }
}

impl Conn for FaultyConn {
    fn request_buf(&mut self) -> &mut Vec<u8> {
        self.request.clear();
        &mut self.request
    }

    fn call(&mut self) -> io::Result<&[u8]> {
        if self.inner.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection killed by fault plan",
            ));
        }
        self.calls += 1;
        if self.plan.kill_conn_after > 0 && self.calls >= self.plan.kill_conn_after {
            self.inner = None;
            self.calls = 0;
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "scheduled connection kill",
            ));
        }
        if self.rng.roll(self.plan.latency_per_mille) {
            std::thread::sleep(Duration::from_millis(self.plan.latency_ms));
        }
        if self.rng.roll(self.plan.torn_per_mille) {
            let inner = self.inner.as_mut().expect("checked above");
            // When the backend cannot tear frames (channel), the Err
            // from inject_torn skips this fault entirely.
            if inner.inject_torn().is_ok() {
                // The peer saw garbage mid-frame; this conn is done.
                self.inner = None;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "torn frame injected",
                ));
            }
        }
        if self.rng.roll(self.plan.duplicate_per_mille) {
            // Deliver the request twice; hand the second reply back. With
            // sequenced requests the server replays the first reply, so the
            // client cannot tell — exactly the at-most-once contract.
            self.forward()?;
        }
        let execute = self.forward();
        if let Err(e) = execute {
            self.inner = None;
            return Err(e);
        }
        if self.rng.roll(self.plan.drop_reply_per_mille) {
            // The server executed, the reply evaporates: the client sees a
            // timeout and must re-send idempotently.
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "reply dropped by fault plan",
            ));
        }
        Ok(&self.reply)
    }

    fn last_reply(&self) -> &[u8] {
        &self.reply
    }

    fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.set_op_timeout(timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::deadline;
    use crate::router::Tier;
    use crate::transport::{channel::ChannelTransport, wire};

    fn channel_transport(
        n: usize,
        shards: usize,
        servers: usize,
    ) -> (Box<dyn Transport>, Vec<Arc<PsServer>>) {
        let initial: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let tier = Tier::new(n, shards, servers, u64::MAX);
        let servers: Vec<Arc<PsServer>> = (0..tier.server_count())
            .map(|s| Arc::new(tier.server(s, &initial)))
            .collect();
        let handles = servers.clone();
        (Box::new(ChannelTransport::launch(servers)), handles)
    }

    #[test]
    fn no_fault_plan_is_transparent() {
        let _deadline = deadline(60);
        let (inner, _servers) = channel_transport(8, 2, 1);
        let t = FaultyTransport::new(inner, FaultPlan::seeded(1));
        assert!(!t.plan().any_fault());
        let mut conn = t.connect(0).unwrap();
        for clock in 0..5 {
            wire::encode_push_shard(conn.request_buf(), 0, 0.1, 0.0, &[1.0; 4]);
            let reply = conn.call().unwrap();
            assert_eq!(wire::decode_push_ack(reply), Ok(clock));
        }
    }

    #[test]
    fn drop_reply_surfaces_as_timeout_but_executes() {
        let _deadline = deadline(60);
        let plan = FaultPlan {
            drop_reply_per_mille: 1000,
            ..FaultPlan::seeded(2)
        };
        let (inner, servers) = channel_transport(8, 2, 1);
        let t = FaultyTransport::new(inner, plan);
        let mut conn = t.connect(0).unwrap();
        wire::encode_push_shard(conn.request_buf(), 0, 0.1, 0.0, &[1.0; 4]);
        let err = conn.call().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // The push landed despite the vanished reply.
        assert_eq!(servers[0].live().shard_version(0), 1);
    }

    #[test]
    fn scheduled_kill_breaks_the_connection() {
        let _deadline = deadline(60);
        let plan = FaultPlan {
            kill_conn_after: 3,
            ..FaultPlan::seeded(3)
        };
        let (inner, _servers) = channel_transport(8, 2, 1);
        let t = FaultyTransport::new(inner, plan);
        let mut conn = t.connect(0).unwrap();
        for _ in 0..2 {
            wire::encode_push_shard(conn.request_buf(), 0, 0.1, 0.0, &[1.0; 4]);
            conn.call().unwrap();
        }
        wire::encode_push_shard(conn.request_buf(), 0, 0.1, 0.0, &[1.0; 4]);
        assert_eq!(
            conn.call().unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        // Dead stays dead; the client must reconnect.
        wire::encode_push_shard(conn.request_buf(), 0, 0.1, 0.0, &[1.0; 4]);
        assert_eq!(conn.call().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // A fresh connection works.
        let mut fresh = t.connect(0).unwrap();
        wire::encode_push_shard(fresh.request_buf(), 0, 0.1, 0.0, &[1.0; 4]);
        fresh.call().unwrap();
    }

    #[test]
    fn duplicate_without_sequencing_applies_twice() {
        let _deadline = deadline(60);
        // Documents why the retry layer wraps mutating requests: a bare
        // duplicated push advances the clock twice.
        let plan = FaultPlan {
            duplicate_per_mille: 1000,
            ..FaultPlan::seeded(4)
        };
        let (inner, _servers) = channel_transport(8, 2, 1);
        let t = FaultyTransport::new(inner, plan);
        let mut conn = t.connect(0).unwrap();
        wire::encode_push_shard(conn.request_buf(), 0, 0.1, 0.0, &[1.0; 4]);
        let reply = conn.call().unwrap();
        assert_eq!(wire::decode_push_ack(reply), Ok(1), "second apply's ack");
    }

    #[test]
    fn duplicate_with_sequencing_applies_once() {
        let _deadline = deadline(60);
        let plan = FaultPlan {
            duplicate_per_mille: 1000,
            ..FaultPlan::seeded(5)
        };
        let (inner, _servers) = channel_transport(8, 2, 1);
        let t = FaultyTransport::new(inner, plan);
        let mut conn = t.connect(0).unwrap();
        for seq in 0..3u32 {
            let buf = conn.request_buf();
            wire::encode_sequenced_prefix(buf, 11, seq);
            wire::encode_push_shard(buf, 0, 0.1, 0.0, &[1.0; 4]);
            let reply = conn.call().unwrap();
            assert_eq!(wire::decode_push_ack(reply), Ok(u64::from(seq)));
        }
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let _deadline = deadline(60);
        let mk = |seed| {
            let plan = FaultPlan {
                drop_reply_per_mille: 300,
                ..FaultPlan::seeded(seed)
            };
            let (inner, _servers) = channel_transport(8, 2, 1);
            let t = FaultyTransport::new(inner, plan);
            let mut conn = t.connect(0).unwrap();
            let mut outcomes = Vec::new();
            for seq in 0..32u32 {
                let buf = conn.request_buf();
                wire::encode_sequenced_prefix(buf, 1, seq);
                wire::encode_push_shard(buf, 0, 0.01, 0.0, &[0.0; 4]);
                outcomes.push(conn.call().is_ok());
            }
            outcomes
        };
        assert_eq!(mk(7), mk(7), "same seed, same fault trace");
        assert!(mk(7).iter().any(|ok| !ok), "faults actually fire");
    }
}
