//! The threadless backend: a connection owns a [`ServerEndpoint`] over the
//! shared [`PsServer`] and serves each request on the caller's thread.
//!
//! Requests are still encoded frames — the same codec, checks, dedup window
//! and request accounting as the channel and TCP backends, without the hop.
//! There is no thread, queue or lock of its own: connections to one server
//! meet on its shard locks, as TCP's handler threads do. A connection
//! reuses one request and one reply buffer, so after warm-up a call
//! allocates nothing. A frame the endpoint rejects closes its connection
//! and nobody else's, as on the other backends.

use std::io;
use std::sync::Arc;

use super::{Conn, Handled, ServerEndpoint, Transport};
use crate::server::PsServer;

/// The direct transport: the servers themselves, reached by method call.
#[derive(Debug)]
pub struct DirectTransport {
    servers: Vec<Arc<PsServer>>,
}

impl DirectTransport {
    /// Serves `servers` on their clients' threads.
    pub(crate) fn new(servers: Vec<Arc<PsServer>>) -> Self {
        DirectTransport { servers }
    }
}

impl Transport for DirectTransport {
    fn connect(&self, server: usize) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(DirectConn {
            endpoint: Some(ServerEndpoint::new(Arc::clone(&self.servers[server]))),
            request: Vec::new(),
            reply: Vec::new(),
        }))
    }
}

/// A client connection on the direct backend: its own endpoint, as each
/// TCP connection has its own handler, and with it its own dedup lease.
struct DirectConn {
    /// `None` once a rejected frame closed the connection.
    endpoint: Option<ServerEndpoint>,
    request: Vec<u8>,
    /// Last reply payload, kept for the caller's borrow.
    reply: Vec<u8>,
}

impl std::fmt::Debug for DirectConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectConn").finish_non_exhaustive()
    }
}

impl Conn for DirectConn {
    fn request_buf(&mut self) -> &mut Vec<u8> {
        self.request.clear();
        &mut self.request
    }

    fn call(&mut self) -> io::Result<&[u8]> {
        let endpoint = self.endpoint.as_mut().ok_or_else(closed)?;
        match endpoint.handle(&self.request, &mut self.reply) {
            Ok(Handled::Reply) => Ok(&self.reply),
            Ok(Handled::Shutdown) | Err(_) => {
                self.endpoint = None;
                self.reply.clear();
                Err(closed())
            }
        }
    }

    fn last_reply(&self) -> &[u8] {
        &self.reply
    }
}

fn closed() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "ps direct connection closed")
}
