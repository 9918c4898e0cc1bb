//! Crash recovery for a transport-backed PS tier: detect a dead or
//! replaced [`PsServer`](crate::PsServer) and bring a fresh instance up in
//! its place.
//!
//! The supervisor holds no parameters. A healed server serves reset state
//! until the caller restores the whole tier from its own
//! [`Trainer::checkpoint`](crate::Trainer::checkpoint), so every server
//! lands on one consistent checkpoint instead of the healed server's old
//! slice beside its peers' newer ones.
//!
//! The supervisor is deliberately client-driven — it runs wherever the
//! [`NetRouter`] runs and works entirely through wire frames (`CheckFinite`
//! probes, `Hello`), so recovery exercises exactly the protocol a remote
//! control plane would use. Detection is a failed probe — a killed server's
//! listener answers the dial but drops the connection, which the
//! short-budget ping reports as an error — or, across processes, a changed
//! instance nonce.

use std::time::{Duration, Instant};

use sync_switch_telemetry::TraceKind;

use crate::error::PsError;
use crate::transport::NetRouter;

/// Detects and heals dead servers behind a [`NetRouter`].
///
/// Usage pattern: [`record`](Self::record) every server's instance nonce
/// once the tier is up, then [`heal`](Self::heal) (an in-process tier) or
/// [`heal_respawned`](Self::heal_respawned) (a tier of `ps-serve`
/// processes) whenever a crash is suspected, and follow every heal with
/// [`Trainer::restore`](crate::Trainer::restore) of the caller's last
/// checkpoint.
///
/// Recovery is lossy in exactly the way a real PS checkpoint scheme is:
/// pushes applied after that checkpoint die with the server. Callers bound
/// the loss by checkpointing at segment boundaries.
#[derive(Debug, Default)]
pub struct ServerSupervisor {
    /// Instance nonce per server, as last recorded or healed; empty until
    /// [`record`](Self::record). A `Hello` answering with a *different*
    /// nonce is a respawned process with reset state — the cross-process
    /// crash signal, since a respawned `ps-serve` answers probes happily.
    nonces: Vec<u64>,
}

impl ServerSupervisor {
    /// Records the instance nonce of every server behind `router`,
    /// replacing any previous record.
    ///
    /// # Errors
    ///
    /// Returns the first server's `Hello` failure; nothing is recorded then.
    pub fn record(&mut self, router: &NetRouter) -> Result<(), PsError> {
        self.nonces = (0..router.server_count())
            .map(|s| router.server_info(s).map(|info| info.nonce))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Probes every server; each one that fails the probe is revived as a
    /// fresh, zero-initialised instance and re-probed. Returns the number
    /// of servers healed.
    ///
    /// # Errors
    ///
    /// Returns the revive or re-probe failure of the first server that
    /// could not be brought back.
    pub fn heal(&mut self, router: &NetRouter) -> Result<usize, PsError> {
        let mut healed = 0;
        for s in 0..router.server_count() {
            if router.ping_server(s).is_ok() {
                continue;
            }
            router
                .revive_server(s)
                .map_err(|_| PsError::ConnLost { server: s })?;
            let nonce = router.server_info(s)?.nonce;
            // Keep a recorded nonce current, so a later comparison does not
            // take the revived instance for a second respawn.
            if let Some(recorded) = self.nonces.get_mut(s) {
                *recorded = nonce;
            }
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
    /// the recorded one: a changed nonce means a fresh instance holding
    /// reset state, which is counted healed and recorded. Returns the
    /// number of servers healed.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] when no nonces were
    /// [`record`](Self::record)ed for this tier, and [`PsError::ConnLost`]
    /// for a server nobody respawned within `wait`.
    pub fn heal_respawned(&mut self, router: &NetRouter, wait: Duration) -> Result<usize, PsError> {
        if self.nonces.len() != router.server_count() {
            return Err(PsError::InvalidConfig(format!(
                "no instance nonces recorded for this {}-server tier",
                router.server_count()
            )));
        }
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
            if self.nonces[s] == info.nonce {
                continue; // the instance we recorded — state intact
            }
            // A changed nonce is how a cross-process crash is *observed*:
            // nobody on this side called kill/revive, so the supervisor is
            // the only place the death and the heal can be recorded.
            t.metrics.counter("fault.server_kills").inc();
            t.trace.instant(TraceKind::ServerKill { server: s as u64 });
            self.nonces[s] = info.nonce;
            healed += 1;
            t.metrics.counter("fault.server_heals").inc();
            t.trace.instant(TraceKind::ServerHeal { server: s as u64 });
        }
        Ok(healed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServerTopology, TrainerConfig, TransportKind};
    use crate::engine::Trainer;
    use crate::router::WorkerPort;
    use crate::store::PullBuffer;
    use crate::transport::NetPort;
    use sync_switch_nn::{Dataset, Network};
    use sync_switch_workloads::SyncProtocol;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn heal_is_a_no_op_on_a_healthy_tier() {
        let net = NetPort::launch(
            &[1.0f32; 16],
            4,
            ServerTopology::new(2, 1).with_transport(TransportKind::Tcp),
        );
        let mut sup = ServerSupervisor::default();
        sup.record(net.router()).expect("record");
        assert_eq!(sup.heal(net.router()).expect("heal"), 0);
        assert_eq!(
            sup.heal_respawned(net.router(), Duration::from_secs(1))
                .expect("heal_respawned"),
            0
        );
    }

    #[test]
    fn kill_heal_restore_lands_every_server_on_the_checkpoint() {
        // A default supervisor (nothing recorded) heals an in-process
        // revive; the trainer's restore then puts every server — the
        // revived one and its live peers — on the checkpoint, bit for bit.
        let data = Dataset::gaussian_blobs(4, 96, 6, 0.35, 11);
        let (train, test) = data.split(0.25);
        let model = Network::mlp(6, &[12], 4, 11);
        let topology = ServerTopology::new(2, 1).with_transport(TransportKind::Tcp);
        let cfg = TrainerConfig::new(2, 8, 0.05, 0.9).with_topology(topology);
        let port = NetPort::launch(&model.params_flat(), cfg.shards, topology);
        let view = port.clone();
        let mut t = Trainer::with_port(model, train, test, cfg, WorkerPort::Net(port));
        t.run_segment(SyncProtocol::Asp, 20).expect("segment");
        t.drain_sync();
        let ck = t.checkpoint();
        // Move every server past the checkpoint, then crash one.
        t.run_segment(SyncProtocol::Asp, 20).expect("segment");
        let r = view.router();
        r.kill_server(1).expect("kill");
        assert!(r.ping_server(1).is_err(), "killed server must fail probes");

        let mut sup = ServerSupervisor::default();
        assert_eq!(sup.heal(r).expect("heal"), 1);
        t.restore(&ck).expect("restore");

        assert_eq!(bits(&r.snapshot_params()), bits(&ck.params), "params");
        assert_eq!(bits(&r.snapshot_velocity()), bits(&ck.velocity), "velocity");
        let mut buf = PullBuffer::new();
        view.pull_into(&mut buf);
        assert_eq!(bits(buf.params()), bits(&ck.params), "committed view");
    }

    #[test]
    fn heal_respawned_without_a_recorded_nonce_is_an_error() {
        let net = NetPort::launch(
            &[1.0f32; 16],
            4,
            ServerTopology::new(2, 1).with_transport(TransportKind::Channel),
        );
        let r = net.router();
        let mut sup = ServerSupervisor::default();
        assert!(matches!(
            sup.heal_respawned(r, Duration::from_millis(200)),
            Err(PsError::InvalidConfig(_))
        ));
        let snap = r.telemetry().metrics.snapshot();
        let kills = snap.counters.get("fault.server_kills").copied();
        assert_eq!(kills.unwrap_or(0), 0, "a phantom respawn was counted");
    }
}
