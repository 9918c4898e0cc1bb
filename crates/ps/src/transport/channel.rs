//! The in-memory channel backend: each [`PsServer`](crate::PsServer) runs
//! its own event-loop thread draining a bounded mpsc request queue.
//!
//! Messages carry *encoded frames*, not typed requests — the channel is a
//! byte transport exactly like TCP, so both backends exercise the same
//! codec path and differ only in how bytes move.
//!
//! Buffers ping-pong to keep the steady state allocation-free: a client
//! sends its request buffer with the message; the server decodes it,
//! encodes the reply into its own spare buffer, sends that back, and keeps
//! the request buffer as its next spare. Two buffers per connection
//! circulate forever; after warm-up neither side allocates.
//!
//! Both queues are `sync_channel`s, whose ring buffer is allocated once;
//! the unbounded flavour allocates a block every few dozen messages. A
//! connection has at most one call in flight, so its reply queue holds one
//! message and the event loop never waits on it; a full request queue only
//! makes a sender wait for the event loop to take the next request.
//!
//! The only sender of a connection's reply channel travels *with* each
//! request and comes back with its reply, so whenever the server drops a
//! request unanswered — a malformed frame, or the loop exiting with the
//! request still queued — the client's wait ends in a hang-up instead of
//! blocking, and the connection stays closed, as a TCP one would.

use std::io;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use super::{wire, Conn, Handled, ServerEndpoint, Transport};
use crate::server::PsServer;

/// Requests a server's queue holds before a sender waits for the event
/// loop: one per connection in flight, for far more connections than a
/// trainer opens.
const REQUEST_QUEUE: usize = 64;

/// One message, either direction: an encoded payload plus the sender of the
/// connection's reply channel (where to send the reply; handed back with
/// it).
struct Msg {
    frame: Vec<u8>,
    reply_tx: mpsc::SyncSender<Msg>,
}

/// The channel transport: one event-loop thread per server.
pub struct ChannelTransport {
    /// Request senders, one per server. A connect clones the sender.
    txs: Vec<mpsc::SyncSender<Msg>>,
    /// Event-loop threads, joined on drop.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("servers", &self.txs.len())
            .finish()
    }
}

impl ChannelTransport {
    /// Launches one event-loop thread per server.
    pub(crate) fn launch(servers: Vec<Arc<PsServer>>) -> Self {
        let mut txs = Vec::with_capacity(servers.len());
        let mut threads = Vec::with_capacity(servers.len());
        for server in servers {
            let (tx, rx) = mpsc::sync_channel::<Msg>(REQUEST_QUEUE);
            let id = server.id();
            let mut endpoint = ServerEndpoint::new(server);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ps-server-{id}"))
                    .spawn(move || serve(&mut endpoint, &rx))
                    .expect("spawn ps server event loop"),
            );
            txs.push(tx);
        }
        ChannelTransport {
            txs,
            threads: Mutex::new(threads),
        }
    }
}

/// The event loop: drain the queue until a `Shutdown` frame (or every
/// sender is gone).
fn serve(endpoint: &mut ServerEndpoint, rx: &mpsc::Receiver<Msg>) {
    let mut spare: Vec<u8> = Vec::new();
    while let Ok(Msg { frame, reply_tx }) = rx.recv() {
        match endpoint.handle(&frame, &mut spare) {
            Ok(Handled::Reply) => {
                // Ping-pong: the reply buffer goes to the client, the
                // request buffer becomes the next reply scratch. A client
                // that hung up (send error) just drops the buffer.
                let reply = Msg {
                    frame: std::mem::replace(&mut spare, frame),
                    reply_tx: reply_tx.clone(),
                };
                let _ = reply_tx.send(reply);
            }
            Ok(Handled::Shutdown) => break,
            // A malformed frame closes the connection it came from, as the
            // TCP handler does, and nobody else's — this loop serves every
            // client of the server. Dropping the request's sender unused
            // is the hang-up.
            Err(_) => {}
        }
    }
}

impl Transport for ChannelTransport {
    fn connect(&self, server: usize) -> io::Result<Box<dyn Conn>> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        Ok(Box::new(ChannelConn {
            tx: self.txs[server].clone(),
            reply_tx: Some(reply_tx),
            reply_rx,
            request: Vec::new(),
            reply: Vec::new(),
            timeout: None,
        }))
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        // Ask every event loop to exit even if stray senders are still
        // alive somewhere, then join.
        let mut frame = Vec::new();
        wire::encode_bodyless(&mut frame, wire::op::SHUTDOWN);
        let (reply_tx, _reply_rx) = mpsc::sync_channel(1);
        for tx in &self.txs {
            let _ = tx.send(Msg {
                frame: frame.clone(),
                reply_tx: reply_tx.clone(),
            });
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// A client connection on the channel backend.
struct ChannelConn {
    tx: mpsc::SyncSender<Msg>,
    /// The reply channel's only sender while no call is in flight; `None`
    /// once a call ended without a reply (the connection is closed).
    reply_tx: Option<mpsc::SyncSender<Msg>>,
    reply_rx: mpsc::Receiver<Msg>,
    /// Next request payload; recycled from the previous reply.
    request: Vec<u8>,
    /// Last reply payload, kept alive for the caller's borrow.
    reply: Vec<u8>,
    /// Per-call reply wait bound, if any.
    timeout: Option<std::time::Duration>,
}

impl std::fmt::Debug for ChannelConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelConn").finish_non_exhaustive()
    }
}

impl Conn for ChannelConn {
    fn request_buf(&mut self) -> &mut Vec<u8> {
        self.request.clear();
        &mut self.request
    }

    fn call(&mut self) -> io::Result<&[u8]> {
        let reply_tx = self.reply_tx.take().ok_or_else(|| {
            io::Error::new(io::ErrorKind::BrokenPipe, "ps channel connection closed")
        })?;
        let frame = std::mem::take(&mut self.request);
        self.tx
            .send(Msg { frame, reply_tx })
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "ps server event loop gone"))?;
        let received = match self.timeout {
            Some(t) => self.reply_rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    io::Error::new(io::ErrorKind::TimedOut, "ps server reply timed out")
                }
                mpsc::RecvTimeoutError::Disconnected => {
                    io::Error::new(io::ErrorKind::BrokenPipe, "ps server dropped reply")
                }
            })?,
            None => self.reply_rx.recv().map_err(|_| {
                io::Error::new(io::ErrorKind::BrokenPipe, "ps server dropped reply")
            })?,
        };
        self.reply_tx = Some(received.reply_tx);
        // Recycle: last round's reply allocation becomes the next request
        // buffer, and the received buffer serves the reply borrow — two
        // buffers circulate per connection, neither side allocates in the
        // steady state.
        self.request = std::mem::replace(&mut self.reply, received.frame);
        Ok(&self.reply)
    }

    fn last_reply(&self) -> &[u8] {
        &self.reply
    }

    fn set_op_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.timeout = timeout;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::deadline;
    use crate::router::Tier;
    use crate::transport::direct::DirectTransport;
    use crate::transport::wire::op;

    fn servers(n: usize, shards: usize, servers: usize) -> Vec<Arc<PsServer>> {
        let initial: Vec<f32> = (0..n).map(|i| i as f32).collect();
        // Bare pushes: no periodic commit turns an ack into a batch.
        let tier = Tier::new(n, shards, servers, u64::MAX);
        (0..tier.server_count())
            .map(|s| Arc::new(tier.server(s, &initial)))
            .collect()
    }

    fn launch(n: usize, shards: usize, servers: usize) -> ChannelTransport {
        ChannelTransport::launch(self::servers(n, shards, servers))
    }

    /// The same tier behind the channel backend and behind the threadless
    /// direct one: the connection-level contract is the same on both.
    fn both(n: usize, shards: usize, servers: usize) -> [Box<dyn Transport>; 2] {
        [
            Box::new(launch(n, shards, servers)),
            Box::new(DirectTransport::new(self::servers(n, shards, servers))),
        ]
    }

    #[test]
    fn request_reply_over_the_queue() {
        let _deadline = deadline(60);
        let tier = Tier::new(12, 4, 2, u64::MAX);
        assert_eq!(tier.server_count(), 2);
        for t in both(12, 4, 2) {
            // Every server the tier names answers on its own connection.
            for s in 0..tier.server_count() {
                request_reply(t.as_ref(), s);
            }
        }
    }

    fn request_reply(t: &dyn Transport, server: usize) {
        let mut conn = t.connect(server).unwrap();
        wire::encode_bodyless(conn.request_buf(), op::CHECK_FINITE);
        let reply = conn.call().unwrap();
        assert_eq!(wire::decode_finite(reply), Ok(true));
        // A second request on the same conn reuses the circulating buffers.
        wire::encode_bodyless(conn.request_buf(), op::DRAIN);
        let reply = conn.call().unwrap();
        assert_eq!(wire::decode_synced(reply), Ok(1));
    }

    #[test]
    fn pushes_from_two_conns_serialize_on_the_event_loop() {
        let _deadline = deadline(60);
        // On the direct backend the two pushers meet on the shard lock
        // instead of the queue: the count and the sum must come out the same.
        for t in both(8, 2, 1) {
            two_pushers(t.as_ref());
        }
    }

    fn two_pushers(t: &dyn Transport) {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(move || {
                    let mut conn = t.connect(0).unwrap();
                    for _ in 0..50 {
                        wire::encode_push_shard(conn.request_buf(), 0, 0.001, 0.0, &[1.0; 4]);
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
        // 100 unit-gradient applies at lr 1e-3 moved shard 0 by -0.1.
        assert_eq!(clocks[0], 100);
        assert!((params[0] - (0.0 - 0.1)).abs() < 1e-4, "p0 = {}", params[0]);
    }

    #[test]
    fn malformed_frame_closes_only_the_offending_connection() {
        let _deadline = deadline(60);
        for t in both(8, 2, 1) {
            malformed_frame(t.as_ref());
        }
    }

    fn malformed_frame(t: &dyn Transport) {
        let mut good = t.connect(0).unwrap();
        let mut bad = t.connect(0).unwrap();
        // A batch cut short mid-item.
        let buf = bad.request_buf();
        let head = wire::begin_batch(buf, op::BATCH);
        let mark = wire::open_batch_item(buf);
        wire::encode_push_shard(buf, 0, 0.001, 0.0, &[1.0; 4]);
        wire::close_batch_item(buf, head, mark);
        buf.truncate(buf.len() - 3);
        assert_eq!(bad.call().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // Closed stays closed, like the TCP handler's socket.
        wire::encode_bodyless(bad.request_buf(), op::CHECK_FINITE);
        assert_eq!(bad.call().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // So is a pull whose run list leaves the server's 8 parameters.
        let mut greedy = t.connect(0).unwrap();
        wire::encode_pull_runs(greedy.request_buf(), [(6usize, 3usize)].into_iter());
        assert_eq!(greedy.call().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // The server still serves everyone else, and nothing of
        // the torn batch was applied.
        wire::encode_push_shard(good.request_buf(), 0, 0.001, 0.0, &[1.0; 4]);
        assert_eq!(wire::decode_push_ack(good.call().unwrap()), Ok(0));
        let mut again = t.connect(0).unwrap();
        wire::encode_bodyless(again.request_buf(), op::CHECK_FINITE);
        again.call().unwrap();
    }

    #[test]
    fn a_request_that_does_not_fit_closes_only_its_connection() {
        let _deadline = deadline(60);
        for t in both(8, 2, 1) {
            misfit(t.as_ref());
        }
    }

    fn misfit(t: &dyn Transport) {
        let mut a = t.connect(0).unwrap();
        let mut b = t.connect(0).unwrap();
        // Shard 5 of a server that owns 2: refused before the store sees it.
        wire::encode_push_shard(a.request_buf(), 5, 0.001, 0.0, &[1.0; 4]);
        assert_eq!(a.call().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // The event loop every client shares is still serving.
        wire::encode_push_shard(b.request_buf(), 0, 0.001, 0.0, &[1.0; 4]);
        assert_eq!(wire::decode_push_ack(b.call().unwrap()), Ok(0));
    }

    #[test]
    fn drop_shuts_down_event_loops() {
        let _deadline = deadline(60);
        let t = launch(4, 2, 2);
        let mut conn = t.connect(0).unwrap();
        drop(t);
        // The loop is gone: the send (or the reply wait) fails cleanly.
        wire::encode_bodyless(conn.request_buf(), op::CHECK_FINITE);
        assert!(conn.call().is_err());
    }
}
