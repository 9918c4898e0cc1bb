//! The cross-process TCP backend: a *client-only* transport over a fixed
//! list of server addresses.
//!
//! The in-process backends ([`crate::transport::channel`],
//! [`crate::transport::tcp::TcpTransport`]) own their server instances and
//! their serving threads; this one owns nothing — the servers are separate
//! OS processes (`ps-serve`), each running its own
//! [`crate::transport::tcp::TcpServerHost`], and all this transport holds
//! is where to dial them. Consequently [`Transport::kill_server`] /
//! [`Transport::revive_server`] stay unsupported: killing a remote server
//! is `SIGKILL` on its process and reviving it is respawning the process,
//! both of which belong to the cluster harness. The client-side recovery
//! half is detecting the respawn
//! ([`crate::supervisor::ServerSupervisor::heal_respawned`]) and restoring
//! the tier from the trainer's checkpoint.

use std::io;
use std::net::SocketAddr;

use super::tcp::TcpConn;
use super::{Conn, Transport};

/// A transport that reaches `ps-serve` processes over TCP by address.
#[derive(Debug, Clone)]
pub struct RemoteTcpTransport {
    addrs: Vec<SocketAddr>,
}

impl RemoteTcpTransport {
    /// A transport dialing `addrs[s]` for server `s`. No I/O happens here;
    /// connections open lazily per worker, with the usual retry policy on
    /// top, so constructing the transport before the servers are up is
    /// fine.
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        RemoteTcpTransport { addrs }
    }

    /// The configured server addresses.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }
}

impl Transport for RemoteTcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn server_count(&self) -> usize {
        self.addrs.len()
    }

    fn connect(&self, server: usize) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(TcpConn::connect(self.addrs[server])?))
    }
}
