//! The TCP backend: one listener per server, blocking I/O, one connection
//! (and one handler thread) per worker.
//!
//! This is the "real sockets" end of the transport tier: every push, pull,
//! and sync round crosses the kernel's TCP stack, so the wire cost the
//! paper's BSP/ASP tradeoff hinges on is measured, not modeled. Nagle is
//! disabled (`TCP_NODELAY`) — the protocol is strict request/reply, where
//! delayed ACKs would serialize into ~40 ms stalls per round trip.
//!
//! A frame costs one `write` and, when it fits the read buffer, one `read`
//! per side: both ends encode behind a reserved length prefix and send the
//! whole frame at once, and both read through a [`BufReader`], so the
//! prefix and the payload of a small frame come out of a single syscall
//! (a payload larger than the buffer is still read straight into its
//! destination). On a round-trip-bound tier the syscalls are the cost.
//!
//! Handler threads execute directly against the shared [`PsServer`]
//! (`ShardedStore` is internally locked per shard), so two workers pushing
//! to different shards of one server proceed concurrently — the same
//! contention profile as the in-process tier, plus the socket hop.
//!
//! The serving side is factored as [`TcpServerHost`] — one listener, one
//! server instance, its accept loop and handler threads — so it can be
//! hosted two ways: [`TcpTransport::launch`] embeds N hosts on loopback
//! ephemeral ports for in-process tests, while the `ps-serve` binary embeds
//! exactly one, bound to a configured address, to put each server in its
//! own OS process. [`TcpTransport::dial`] is the client of such processes:
//! it owns no host, only their addresses.
//!
//! Both tiers crash the same way. Killing an in-process server drops its
//! host — the listener closes and every connection is severed, as a
//! `SIGKILL` leaves it — and reviving it binds a fresh instance on the same
//! address, as a respawned `ps-serve` does. Neither tells the client
//! anything: it finds the replacement by the new instance nonce its
//! `Hello` answers with ([`crate::transport::NetRouter::handshake`]).

use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use super::{wire, Conn, Handled, ServerEndpoint, Transport};
use crate::router::Tier;
use crate::server::PsServer;

/// Per-server serving state, shared between the host handle and the
/// server's accept loop and handlers.
struct ServerSlot {
    server: Arc<PsServer>,
    /// Set when the host drops: the accept loop returns, and a handler that
    /// registers after the drop severed the registry exits unserved.
    stop: AtomicBool,
    /// Handler-side clones of every live accepted stream, keyed by a
    /// connection id. The drop shuts them down to unblock handler threads
    /// parked in a blocking read on an idle connection.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
}

/// One served [`PsServer`]: a bound TCP listener, the accept loop thread,
/// and the per-connection handler threads. Dropping the host closes the
/// listener, severs every connection and joins every thread.
///
/// This is the unit the `ps-serve` binary runs one of per process; the
/// in-process [`TcpTransport`] is simply a vector of these on loopback.
pub struct TcpServerHost {
    addr: SocketAddr,
    slot: Arc<ServerSlot>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for TcpServerHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServerHost")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpServerHost {
    /// Binds `addr` and serves server `index` of a `servers`-way tier over
    /// `param_count` flat parameters split into `shards` shards, initialized
    /// from `initial`, committing every `sync_every` requests that carry
    /// pushes. This is the cross-process entry point: every process of a
    /// cluster derives the same [`Tier`] from the same `(param_count,
    /// shards, servers, sync_every)` through [`Tier::remote`], so the slice
    /// this host owns is agreed on without any coordination traffic.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if [`Tier::remote`] refuses
    /// the shape or `index` is out of range, or the bind error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        initial: &[f32],
        shards: usize,
        servers: usize,
        index: usize,
        sync_every: u64,
    ) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        let tier = Tier::remote(initial.len(), shards, servers, sync_every).map_err(invalid)?;
        if index >= servers {
            return Err(invalid(format!(
                "server index {index} out of range for {servers} servers"
            )));
        }
        Self::bind_instance(addr, Arc::new(tier.server(index, initial)))
    }

    /// Binds `addr` and serves an already-constructed instance.
    pub(crate) fn bind_instance(
        addr: impl ToSocketAddrs,
        server: Arc<PsServer>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let id = server.id();
        let slot = Arc::new(ServerSlot {
            server,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept_thread = {
            let slot = Arc::clone(&slot);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name(format!("ps-listen-{id}"))
                .spawn(move || accept_loop(&listener, &slot, &handlers))
                .expect("spawn ps tcp accept loop")
        };
        Ok(TcpServerHost {
            addr,
            slot,
            accept_thread: Some(accept_thread),
            handlers,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted instance's nonce (what a [`wire::ServerInfo`] reply
    /// carries).
    pub fn nonce(&self) -> u64 {
        self.slot.server.nonce()
    }

    /// Blocks until the accept loop exits: when the host is stopped, or
    /// when the listener fails to accept. For the `ps-serve` binary this is
    /// "serve until the process is killed", and a return is a failure.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServerHost {
    fn drop(&mut self) {
        self.slot.stop.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway connection; it observes
        // the stop flag and returns, dropping the listener.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Sever every registered connection so handler threads parked in a
        // blocking read wake and exit even while their clients keep the
        // other end open: a host cannot assume its clients dropped their
        // conns first, and a kill drops it under their feet.
        for (_, stream) in self.slot.conns.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for t in self.handlers.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// The TCP client transport: dials `addrs[s]` for server `s`. Launched
/// in-process it also hosts each server on loopback, one
/// [`TcpServerHost`] per address, and can kill and revive them.
pub struct TcpTransport {
    addrs: Vec<SocketAddr>,
    /// Per server, its host while it is up; empty on a dialed transport.
    hosts: Vec<Mutex<Option<TcpServerHost>>>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addrs", &self.addrs)
            .finish()
    }
}

impl TcpTransport {
    /// Binds one loopback listener per server and starts the accept loops.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if a listener cannot bind.
    pub(crate) fn launch(servers: Vec<Arc<PsServer>>) -> io::Result<Self> {
        let hosts = servers
            .into_iter()
            .map(|server| TcpServerHost::bind_instance("127.0.0.1:0", server))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(TcpTransport {
            addrs: hosts.iter().map(TcpServerHost::local_addr).collect(),
            hosts: hosts.into_iter().map(|h| Mutex::new(Some(h))).collect(),
        })
    }

    /// A transport to servers running elsewhere — `ps-serve` processes —
    /// at `addrs`. It owns no host, so it cannot kill or revive one: that
    /// is `SIGKILL` and a respawn, the cluster manager's business. No I/O
    /// happens here; connections open lazily per worker.
    pub(crate) fn dial(addrs: Vec<SocketAddr>) -> Self {
        TcpTransport {
            addrs,
            hosts: Vec::new(),
        }
    }

    fn host(&self, server: usize) -> io::Result<&Mutex<Option<TcpServerHost>>> {
        self.hosts.get(server).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::Unsupported,
                "a dialed transport hosts no servers",
            )
        })
    }
}

fn accept_loop(
    listener: &TcpListener,
    slot: &Arc<ServerSlot>,
    handlers: &Mutex<Vec<JoinHandle<()>>>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(c) => c,
            Err(_) => return,
        };
        if slot.stop.load(Ordering::Acquire) {
            // The wake-up connection from shutdown (or a late client).
            return;
        }
        let server = Arc::clone(&slot.server);
        let id = server.id();
        let mut endpoint = ServerEndpoint::new(server);
        let slot = Arc::clone(slot);
        let handle = std::thread::Builder::new()
            .name(format!("ps-conn-{id}"))
            .spawn(move || handle_conn(stream, &mut endpoint, &slot))
            .expect("spawn ps tcp connection handler");
        let mut guard = handlers.lock();
        // Reap handlers whose clients already hung up, so a long-lived
        // tier does not accumulate dead JoinHandles until drop: probes
        // dial fresh, and every restore and worker process reconnects.
        let mut i = 0;
        while i < guard.len() {
            if guard[i].is_finished() {
                let _ = guard.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        guard.push(handle);
    }
}

/// Serves one client connection until EOF, a `Shutdown` frame, an error, or
/// the host's drop. An abrupt client disconnect — EOF at a frame boundary
/// or a broken stream mid-frame — exits the handler cleanly rather than
/// leaving it parked in a blocking read.
fn handle_conn(stream: TcpStream, endpoint: &mut ServerEndpoint, slot: &ServerSlot) {
    let _ = stream.set_nodelay(true);
    // Register a clone so the host's drop can force this handler's blocking
    // read to return even while the client keeps its end open but idle.
    let id = slot.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        slot.conns.lock().push((id, clone));
    }
    // Re-check after registering: a drop that raced the accept has already
    // drained the registry and would never reach this clone, and its join
    // would wait on this handler's read forever. The drop sets `stop`
    // before it drains, so a registration the drain missed sees it here.
    if !slot.stop.load(Ordering::Acquire) {
        serve_conn(stream, endpoint);
    }
    slot.conns.lock().retain(|&(i, _)| i != id);
}

fn serve_conn(stream: TcpStream, endpoint: &mut ServerEndpoint) {
    let mut stream = BufReader::with_capacity(wire::FRAME_READ_BUF, stream);
    let mut request = Vec::new();
    // Reply frame laid out as [len][payload]: the prefix is reserved, the
    // endpoint encodes the payload in place behind it, and the patched
    // frame goes out in one write — no second copy of a large pull reply.
    let mut reply = Vec::new();
    loop {
        match wire::read_frame(&mut stream, &mut request) {
            Ok(true) => {}
            Ok(false) | Err(_) => return, // client hung up / stream broke
        }
        reply.clear();
        reply.extend_from_slice(&[0u8; 4]);
        match endpoint.handle_into(&request, &mut reply) {
            Ok(Handled::Reply) => {
                wire::patch_frame_len(&mut reply);
                if stream.get_mut().write_all(&reply).is_err() {
                    return;
                }
            }
            Ok(Handled::Shutdown) | Err(_) => return,
        }
    }
}

impl Transport for TcpTransport {
    fn connect(&self, server: usize) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(TcpConn::connect(self.addrs[server])?))
    }

    fn kill_server(&self, server: usize) -> io::Result<()> {
        let host = self.host(server)?.lock().take();
        // Dropped outside the lock: the drop joins the host's threads.
        drop(host);
        Ok(())
    }

    fn revive_server(&self, server: usize, fresh: Arc<PsServer>) -> io::Result<()> {
        let host = self.host(server)?;
        // A live host still holds the address, so the bind fails.
        let fresh = TcpServerHost::bind_instance(self.addrs[server], fresh)?;
        *host.lock() = Some(fresh);
        Ok(())
    }
}

/// A client connection on the TCP backend.
pub(crate) struct TcpConn {
    /// Buffered for reading; writes go to the stream directly.
    stream: BufReader<TcpStream>,
    /// Outgoing frame: `[4-byte length placeholder][payload]`.
    send: Vec<u8>,
    /// Last reply payload.
    reply: Vec<u8>,
}

impl TcpConn {
    /// Connects to a serving host and disables Nagle.
    pub(crate) fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpConn {
            stream: BufReader::with_capacity(wire::FRAME_READ_BUF, stream),
            send: Vec::new(),
            reply: Vec::new(),
        })
    }
}

impl std::fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpConn")
            .field("peer", &self.stream.get_ref().peer_addr().ok())
            .finish()
    }
}

impl Conn for TcpConn {
    fn request_buf(&mut self) -> &mut Vec<u8> {
        self.send.clear();
        self.send.extend_from_slice(&[0u8; 4]);
        &mut self.send
    }

    fn call(&mut self) -> io::Result<&[u8]> {
        wire::patch_frame_len(&mut self.send);
        self.stream.get_mut().write_all(&self.send)?;
        if !wire::read_frame(&mut self.stream, &mut self.reply)? {
            // Clean EOF is fine for a serving loop, but a client waiting
            // for a reply was hung up on.
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "ps server closed the connection mid-call",
            ));
        }
        Ok(&self.reply)
    }

    fn last_reply(&self) -> &[u8] {
        &self.reply
    }

    fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        let _ = self.stream.get_ref().set_read_timeout(timeout);
        let _ = self.stream.get_ref().set_write_timeout(timeout);
    }

    fn inject_torn(&mut self) -> io::Result<()> {
        // A frame whose length prefix promises 8 payload bytes delivers
        // only 3 — what a client crashing mid-write leaves on the stream.
        self.stream.get_mut().write_all(&[8, 0, 0, 0, 1, 2, 3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::deadline;
    use crate::transport::wire::op;
    use std::io::Read;

    fn launch(n: usize, shards: usize, servers: usize) -> TcpTransport {
        let initial: Vec<f32> = (0..n).map(|i| i as f32).collect();
        // Bare pushes: no periodic commit turns an ack into a batch.
        let tier = Tier::new(n, shards, servers, u64::MAX);
        let servers: Vec<Arc<PsServer>> = (0..tier.server_count())
            .map(|s| Arc::new(tier.server(s, &initial)))
            .collect();
        TcpTransport::launch(servers).expect("bind loopback listeners")
    }

    #[test]
    fn request_reply_over_a_socket() {
        let _deadline = deadline(60);
        let t = launch(12, 4, 2);
        let mut conn = t.connect(0).unwrap();
        wire::encode_push_shard(conn.request_buf(), 0, 0.5, 0.0, &[1.0; 3]);
        let reply = conn.call().unwrap();
        assert_eq!(wire::decode_push_ack(reply), Ok(0));
        wire::encode_push_shard(conn.request_buf(), 0, 0.5, 0.0, &[1.0; 3]);
        let reply = conn.call().unwrap();
        assert_eq!(wire::decode_push_ack(reply), Ok(1), "clock advanced");
    }

    #[test]
    fn concurrent_conns_share_one_server() {
        let _deadline = deadline(60);
        let t = launch(8, 2, 1);
        let t = &t;
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(move || {
                    let mut conn = t.connect(0).unwrap();
                    for _ in 0..40 {
                        wire::encode_push_shard(conn.request_buf(), 1, 0.001, 0.0, &[1.0; 4]);
                        let reply = conn.call().unwrap();
                        wire::decode_push_ack(reply).unwrap();
                    }
                });
            }
        });
        let mut conn = t.connect(0).unwrap();
        wire::encode_bodyless(conn.request_buf(), op::DRAIN);
        conn.call().unwrap();
        wire::encode_bodyless(conn.request_buf(), op::PULL_COMMITTED);
        let reply = conn.call().unwrap();
        let mut params = [0.0f32; 8];
        let mut clocks = [0u64; 2];
        wire::decode_pulled_into(reply, &mut params, &mut clocks).unwrap();
        assert_eq!(clocks[1], 120);
    }

    /// A fresh instance of server 1 of `launch(12, 4, 2)`.
    fn fresh_server_1() -> Arc<PsServer> {
        let initial: Vec<f32> = (0..12).map(|i| i as f32).collect();
        Arc::new(Tier::new(12, 4, 2, u64::MAX).server(1, &initial))
    }

    fn check_finite(conn: &mut dyn Conn) -> io::Result<()> {
        wire::encode_bodyless(conn.request_buf(), op::CHECK_FINITE);
        conn.call().map(drop)
    }

    #[test]
    fn kill_severs_idle_conns_and_revive_restores_service() {
        let _deadline = deadline(60);
        let t = launch(12, 4, 2);
        // An idle, open connection whose handler is parked in a read.
        let mut idle = t.connect(1).unwrap();
        wire::encode_push_shard(idle.request_buf(), 0, 0.5, 0.0, &[1.0; 3]);
        idle.call().unwrap();
        t.kill_server(1).unwrap();
        // The severed conn fails its next call instead of hanging, and the
        // closed listener refuses fresh ones.
        assert!(check_finite(idle.as_mut()).is_err());
        assert!(t.connect(1).is_err(), "a killed server's listener accepts");
        // Revive with a fresh instance; service resumes on the same
        // address, with the restarted server's (blank) state.
        t.revive_server(1, fresh_server_1()).unwrap();
        check_finite(t.connect(1).unwrap().as_mut()).unwrap();
        // A live server's address is taken: a second revive cannot bind.
        assert!(t.revive_server(1, fresh_server_1()).is_err());
        // Server 0 was untouched throughout.
        check_finite(t.connect(0).unwrap().as_mut()).unwrap();
        // A dialed transport hosts nothing to kill.
        let dialed = TcpTransport::dial(t.addrs.clone());
        let err = dialed.kill_server(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn kill_and_revive_stay_live_while_clients_keep_dialing() {
        let _deadline = deadline(60);
        // Four clients keep dialing server 1 and hold their connections
        // open, so every kill drops a host with handlers parked in reads
        // and accepts in flight. Each kill must return, and each revive
        // must serve.
        let t = launch(12, 4, 2);
        let done = AtomicBool::new(false);
        let kills = std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut held = std::collections::VecDeque::new();
                    while !done.load(Ordering::Relaxed) {
                        if let Ok(mut conn) = t.connect(1) {
                            if check_finite(conn.as_mut()).is_ok() {
                                held.push_back(conn);
                            }
                        }
                        if held.len() > 8 {
                            held.pop_front();
                        }
                    }
                });
            }
            // Errors, not panics, until the clients are told to stop: a
            // panic here would leave the scope waiting on them.
            let kills = (0..20)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    t.kill_server(1)?;
                    let kill = t0.elapsed();
                    t.revive_server(1, fresh_server_1())?;
                    check_finite(t.connect(1)?.as_mut())?;
                    Ok(kill)
                })
                .collect::<io::Result<Vec<_>>>();
            done.store(true, Ordering::Relaxed);
            kills
        });
        let kills = kills.expect("every revive serves");
        let slowest = kills.iter().max().expect("20 cycles");
        assert!(*slowest < Duration::from_secs(5), "a kill took {slowest:?}");
    }

    #[test]
    fn abrupt_client_disconnect_frees_the_handler() {
        let _deadline = deadline(60);
        let t = launch(8, 2, 1);
        {
            let mut conn = t.connect(0).unwrap();
            wire::encode_bodyless(conn.request_buf(), op::CHECK_FINITE);
            conn.call().unwrap();
            // A torn frame followed by an abrupt close: the handler must
            // treat the mid-frame EOF as a closed conn and exit.
            conn.inject_torn().unwrap();
        }
        // Drop joins every handler thread — it would hang here if the
        // handler stayed parked after the disconnect.
        drop(t);
    }

    #[test]
    fn drop_closes_listeners() {
        let _deadline = deadline(60);
        let t = launch(4, 2, 1);
        let addr = t.addrs[0];
        drop(t);
        // The listener is gone: either the connect fails outright or the
        // socket is closed without serving.
        if let Ok(mut s) = TcpStream::connect(addr) {
            let write = s.write_all(&[1, 0, 0, 0, op::CHECK_FINITE]);
            let mut buf = [0u8; 1];
            assert!(
                write.is_err() || matches!(s.read(&mut buf), Ok(0) | Err(_)),
                "dropped transport still serving"
            );
        }
    }

    #[test]
    fn standalone_host_serves_hello_on_a_configured_addr() {
        let _deadline = deadline(60);
        let initial: Vec<f32> = (0..24).map(|i| i as f32 * 0.5).collect();
        // Server 1 of a 3-server × 6-shard tier.
        let host = TcpServerHost::bind("127.0.0.1:0", &initial, 6, 3, 1, 4).unwrap();
        let mut conn = TcpConn::connect(host.local_addr()).unwrap();
        wire::encode_bodyless(conn.request_buf(), op::HELLO);
        let info = wire::decode_server_info(conn.call().unwrap()).unwrap();
        assert_eq!(info.server, 1);
        assert_eq!(info.first_shard, 2);
        assert_eq!(info.shard_count, 2);
        assert_eq!(info.nonce, host.nonce());
        // Param slice: 24 params / 6 shards = 4 per shard; shards 2..4.
        assert_eq!(info.param_offset, 8);
        assert_eq!(info.param_len, 8);
        assert_eq!(info.sync_every, 4);
        // Misconfigured specs are rejected before binding threads: no
        // servers, an index past them, more servers than shards, no shards,
        // more shards than parameters, and no stage-2 period.
        for (shards, servers, index, sync_every) in [
            (6, 0, 0, 1),
            (6, 3, 3, 1),
            (2, 3, 0, 1),
            (0, 1, 0, 1),
            (30, 2, 0, 1),
            (6, 3, 0, 0),
        ] {
            let bind =
                TcpServerHost::bind("127.0.0.1:0", &initial, shards, servers, index, sync_every);
            let err = bind.unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "{shards} {servers} {index} {sync_every}"
            );
        }
    }
}
