//! Crash recovery for a transport-backed PS tier: detect a dead
//! [`PsServer`](crate::PsServer), bring a fresh instance up in its place,
//! and replay its state from the last checkpoint.
//!
//! The supervisor is deliberately client-driven — it runs wherever the
//! [`NetRouter`] runs and works entirely through wire frames (`CheckFinite`
//! probes, `Snapshot`, `Restore`, `Drain`), so recovery exercises exactly
//! the protocol a remote control plane would use. Detection is a failed
//! probe: a killed server's listener answers the dial but drops the
//! connection, which the short-budget ping reports as an error.

use std::time::{Duration, Instant};

use sync_switch_telemetry::TraceKind;

use crate::error::PsError;
use crate::transport::NetRouter;

/// Detects and heals dead servers behind a [`NetRouter`].
///
/// Usage pattern: call [`checkpoint`](Self::checkpoint) at a quiescent
/// point (e.g. after a drain, between segments) to capture every server's
/// `(params, velocity)` slice, then [`heal`](Self::heal) whenever a crash
/// is suspected. `heal` probes every server; each one that fails the probe
/// is revived as a fresh instance and re-seeded from its snapshot, then
/// committed so the next pull sees the restored data.
///
/// Recovery is lossy in exactly the way a real PS checkpoint scheme is:
/// pushes applied to a server after its last `checkpoint` die with it.
/// Callers bound the loss by checkpointing at segment boundaries.
#[derive(Debug, Default)]
pub struct ServerSupervisor {
    /// Last checkpointed `(params, velocity)` slice per server; `None`
    /// until the first [`checkpoint`](Self::checkpoint).
    snapshots: Vec<Option<(Vec<f32>, Vec<f32>)>>,
    /// Instance nonce observed at the last checkpoint, per server. A later
    /// probe answering with a *different* nonce is a respawned process with
    /// reset state — the cross-process crash signal, since a respawned
    /// `ps-serve` answers probes happily.
    nonces: Vec<Option<u64>>,
}

impl ServerSupervisor {
    /// A supervisor for a tier of `servers` servers, with no snapshots yet.
    pub fn new(servers: usize) -> Self {
        ServerSupervisor {
            snapshots: (0..servers).map(|_| None).collect(),
            nonces: (0..servers).map(|_| None).collect(),
        }
    }

    /// Snapshots every server's live `(params, velocity)` slice over the
    /// wire, replacing any previous snapshots.
    ///
    /// # Errors
    ///
    /// Propagates the first wire failure; earlier servers' snapshots are
    /// still replaced.
    pub fn checkpoint(&mut self, router: &NetRouter) -> Result<(), PsError> {
        if self.snapshots.len() != router.server_count() {
            self.snapshots = (0..router.server_count()).map(|_| None).collect();
            self.nonces = (0..router.server_count()).map(|_| None).collect();
        }
        for s in 0..router.server_count() {
            let params = router.snapshot_server(s, false)?;
            let velocity = router.snapshot_server(s, true)?;
            self.snapshots[s] = Some((params, velocity));
            // Record who we checkpointed, so a later heal can tell this
            // instance from a respawned replacement. Best-effort: a tier
            // predating HELLO (or a faulty link) just skips the record.
            self.nonces[s] = router.server_info(s).ok().map(|i| i.nonce);
        }
        Ok(())
    }

    /// Probes every server; each one that fails the probe is revived and
    /// re-seeded from its snapshot (fresh zero state if none was taken),
    /// then re-probed. Returns the number of servers healed.
    ///
    /// # Errors
    ///
    /// Returns the revive/restore/re-probe failure of the first server
    /// that could not be brought back.
    pub fn heal(&mut self, router: &NetRouter) -> Result<usize, PsError> {
        let mut healed = 0;
        for s in 0..router.server_count() {
            if router.ping_server(s).is_ok() {
                continue;
            }
            router
                .revive_server(s)
                .map_err(|_| PsError::ConnLost { server: s })?;
            if let Some(Some((params, velocity))) = self.snapshots.get(s) {
                router.restore_server(s, params, velocity)?;
            }
            router.ping_server(s)?;
            // The revived instance has a fresh nonce; record it so a later
            // nonce comparison does not mistake it for a second respawn.
            self.nonces[s] = router.server_info(s).ok().map(|i| i.nonce);
            healed += 1;
        }
        Ok(healed)
    }

    /// The cross-process counterpart of [`heal`](Self::heal), for a tier of
    /// `ps-serve` *processes* reached through [`NetRouter::connect`] — where
    /// the transport cannot revive a server in place, and a crashed server
    /// comes back only when something respawns its process at the same
    /// address.
    ///
    /// For each server this waits (up to `wait`, shared across servers) for
    /// a `Hello` answer, then compares the answering instance's nonce with
    /// the one recorded at the last [`checkpoint`](Self::checkpoint): a
    /// changed (or never-recorded) nonce means a fresh instance holding
    /// reset state, so its snapshot is replayed and committed. Returns the
    /// number of servers healed.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::ConnLost`] for a server nobody respawned within
    /// `wait`, or the restore failure of a server that answered but could
    /// not be re-seeded.
    pub fn heal_respawned(&mut self, router: &NetRouter, wait: Duration) -> Result<usize, PsError> {
        let t = router.telemetry();
        let start = Instant::now();
        let mut healed = 0;
        for s in 0..router.server_count() {
            let info = loop {
                match router.server_info(s) {
                    Ok(info) => break info,
                    Err(_) => {
                        if start.elapsed() >= wait {
                            return Err(PsError::ConnLost { server: s });
                        }
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            };
            if self.nonces.get(s).copied().flatten() == Some(info.nonce) {
                continue; // same instance we checkpointed — state intact
            }
            // A changed nonce is how a cross-process crash is *observed*:
            // nobody on this side called kill/revive, so the supervisor is
            // the only place the death and the re-seed can be recorded.
            t.metrics.counter("fault.server_kills").inc();
            t.trace.instant(TraceKind::ServerKill { server: s as u64 });
            if let Some(Some((params, velocity))) = self.snapshots.get(s) {
                router.restore_server(s, params, velocity)?;
            }
            self.nonces[s] = Some(info.nonce);
            healed += 1;
            t.metrics.counter("fault.server_heals").inc();
            t.trace.instant(TraceKind::ServerHeal { server: s as u64 });
        }
        Ok(healed)
    }

    /// Whether server `s` has a snapshot to restore from.
    pub fn has_snapshot(&self, s: usize) -> bool {
        matches!(self.snapshots.get(s), Some(Some(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServerTopology, TransportKind};
    use crate::store::PullBuffer;
    use crate::transport::NetPort;

    #[test]
    fn heal_is_a_no_op_on_a_healthy_tier() {
        let net = NetPort::launch(
            &[1.0f32; 16],
            4,
            ServerTopology::new(2, 1).with_transport(TransportKind::Tcp),
        );
        let mut sup = ServerSupervisor::new(net.router().server_count());
        sup.checkpoint(net.router()).expect("checkpoint");
        assert!(sup.has_snapshot(0) && sup.has_snapshot(1));
        assert_eq!(sup.heal(net.router()).expect("heal"), 0);
    }

    #[test]
    fn kill_then_heal_restores_the_checkpointed_state() {
        let initial: Vec<f32> = (0..24).map(|i| i as f32 * 0.1).collect();
        let net = NetPort::launch(
            &initial,
            4,
            ServerTopology::new(2, 1).with_transport(TransportKind::Tcp),
        );
        let r = net.router();
        for g in 0..r.shard_count() {
            let (_, l) = r.shard_range(g);
            net.apply_shard_update(g, &vec![1.0; l], 0.1, 0.9);
        }
        r.complete_push(0);
        r.drain();
        let expected = r.snapshot_params();
        let mut sup = ServerSupervisor::new(r.server_count());
        sup.checkpoint(r).expect("checkpoint");

        r.kill_server(1).expect("kill");
        assert!(r.ping_server(1).is_err(), "killed server must fail probes");
        assert_eq!(sup.heal(r).expect("heal"), 1);

        assert_eq!(r.snapshot_params(), expected, "state replayed on revive");
        let mut buf = PullBuffer::new();
        net.pull_into(&mut buf);
        assert_eq!(buf.params(), &expected[..], "restored state is committed");
    }
}
