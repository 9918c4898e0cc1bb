//! Training-segment configuration.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::transport::faulty::FaultPlan;

/// Client-side resilience knobs for the wire transports: how long one
/// request/reply round trip may block, and how a failed operation is
/// retried.
///
/// Retries use exponential backoff with deterministic jitter:
/// attempt `k` sleeps `min(backoff_base_ms << k, backoff_max_ms)` plus a
/// jitter drawn from a process-local stream. Mutating requests are
/// re-sent under a sequence header ([`crate::transport::wire::op::SEQUENCED`])
/// so a retry whose original actually executed is applied at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Per-operation timeout, milliseconds. One round trip blocking longer
    /// than this counts as a failed attempt. Must be positive: there is no
    /// "never time out" value.
    pub op_timeout_ms: u64,
    /// Retries after the initial attempt before the operation fails with
    /// [`crate::PsError::RetriesExhausted`].
    pub max_retries: u32,
    /// First backoff sleep, milliseconds; doubles per subsequent attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            op_timeout_ms: 5_000,
            max_retries: 4,
            backoff_base_ms: 5,
            backoff_max_ms: 200,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Refuses a zero `op_timeout_ms`. The transports cannot agree on what
    /// it means: a TCP socket refuses a zero timeout and would block
    /// forever, while the channel transport would time out every call.
    pub fn validate(&self) -> Result<(), String> {
        if self.op_timeout_ms == 0 {
            return Err("op_timeout_ms must be positive".into());
        }
        Ok(())
    }
}

/// How workers reach the parameter-server tier.
///
/// `InProcess` keeps the servers in the caller's threads: one server is the
/// single store, reached by method call; several are reached through the
/// direct transport, which encodes each request, serves it and decodes the
/// reply on the caller's thread — no thread or queue hop, but the codec's
/// cost stays, and the time it books is codec and server work, not a
/// wire's. `Channel` and `Tcp` put
/// every push, pull, and sync round across a real hop — the boundary that
/// makes the network cost of the paper's BSP/ASP tradeoff real and
/// measurable ([`crate::profiler::TransportStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process servers, no hop (the default).
    #[default]
    InProcess,
    /// Encoded frames over in-memory queues; one event-loop thread per
    /// server drains its request queue.
    Channel,
    /// Encoded frames over loopback TCP; one listener per server, blocking
    /// I/O, one connection per worker.
    Tcp,
}

impl TransportKind {
    /// Short lowercase name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProcess => "inprocess",
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the parameter-server tier is laid out across server instances.
///
/// Which data plane a trainer builds depends on the pair
/// `(servers, transport)`, `servers` counted after clamping to the shard
/// and parameter counts:
///
/// | `transport` | `servers` | data plane |
/// |---|---|---|
/// | `InProcess` | 1 | the single [`crate::ShardedStore`], no stage 2 |
/// | `InProcess` | ≥ 2 | a [`crate::NetRouter`] over the threadless direct transport |
/// | `Channel` or `Tcp` | any, 1 included | a [`crate::NetRouter`] whose servers sit behind that transport |
///
/// On every plane but the single store the shards are partitioned across
/// the servers and synchronization is OSP-style two-stage: pushes apply
/// immediately on the owning server (stage 1), and a periodic cross-server
/// reconciliation round publishes the owners' shard deltas into the
/// committed view that workers pull (stage 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTopology {
    /// Number of parameter-server instances. Clamped at construction to
    /// the shard count, which is itself clamped to the parameter count
    /// ([`crate::Tier::new`]): a server with no shards would be idle.
    pub servers: usize,
    /// Stage-2 reconciliation period, in pushes: each server counts the
    /// requests that carry pushes to it, from every client, and commits its
    /// slice right behind the applies of every `sync_every`-th one. `1`
    /// commits after every push (tightest cross-server bound); BSP ignores
    /// this and reconciles at every barrier round.
    pub sync_every: u64,
    /// How workers reach the servers. With [`TransportKind::InProcess`] a
    /// single-server topology gets the direct-store fast path; any other
    /// kind puts the tier (even one server) behind the wire protocol, so
    /// pulls always read the committed view.
    pub transport: TransportKind,
    /// Client-side timeout/retry/backoff policy of the [`crate::NetRouter`]
    /// — every plane but the single store. In-process the direct transport
    /// has no timeout to honour; the budget still bounds the re-sends after
    /// an injected fault or a rejected frame.
    pub retry: RetryPolicy,
    /// Optional fault-injection plan: when set on any plane but the single
    /// store — the in-process direct tier included — the backend is wrapped
    /// in a [`crate::transport::FaultyTransport`] and every connection is
    /// perturbed per the plan (chaos testing).
    pub faults: Option<FaultPlan>,
}

impl ServerTopology {
    /// Single-server topology (the default): no stage-2 rounds needed.
    pub fn single() -> Self {
        ServerTopology {
            servers: 1,
            sync_every: 1,
            transport: TransportKind::InProcess,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }

    /// Multi-server topology with `servers` instances reconciling every
    /// `sync_every` pushes.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `sync_every == 0`.
    pub fn new(servers: usize, sync_every: u64) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(sync_every > 0, "sync_every must be positive");
        ServerTopology {
            servers,
            sync_every,
            transport: TransportKind::InProcess,
            retry: RetryPolicy::default(),
            faults: None,
        }
    }

    /// Selects the worker↔server transport backend.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the client-side timeout/retry policy for the wire transports.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs a fault-injection plan on the wire transport.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers == 0 {
            return Err("topology needs at least one server".into());
        }
        if self.sync_every == 0 {
            return Err("stage-2 sync period must be positive".into());
        }
        self.retry.validate()
    }
}

impl Default for ServerTopology {
    fn default() -> Self {
        ServerTopology::single()
    }
}

/// Configuration for the parameter-server trainer.
///
/// The Sync-Switch configuration policy mutates `learning_rate`,
/// `per_worker_batch`, and `momentum` between segments when the protocol
/// switches; `straggler_delay` injects transient slowness into chosen
/// workers (the paper emulates stragglers with added network latency).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of worker threads (the paper collocates one PS per worker;
    /// here shards play the PS role).
    pub workers: usize,
    /// Per-worker mini-batch size.
    pub per_worker_batch: usize,
    /// Learning rate applied at the parameter store.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Number of parameter shards (defaults to `workers`, mirroring the
    /// paper's equal PS/worker split).
    pub shards: usize,
    /// Parameter-server tier layout (defaults to a single server).
    pub topology: ServerTopology,
    /// Per-worker artificial delay injected before every gradient push;
    /// `None` entries are fast workers.
    pub straggler_delay: Vec<Option<Duration>>,
    /// Workers excluded from this segment (elastic policy evictions).
    pub excluded_workers: Vec<usize>,
    /// Whether a step may use the model's sparsity on the wire, in both
    /// directions (embedding workloads). When the model reports that a
    /// batch reads only some runs of the parameter vector, the worker pulls
    /// and installs only those runs — the values a full pull would have
    /// delivered there, so nothing numerical changes — and an asynchronous
    /// push ships only the same rows per shard, numerically identical to
    /// the dense push of those rows scattered into a zero gradient. Disable
    /// to force full pulls and dense pushes everywhere — the reference arm
    /// of the sparse-vs-dense equivalence tests and wire-byte comparisons.
    /// BSP uses the pull half only (barrier aggregation is inherently
    /// dense).
    pub sparse_push: bool,
    /// Base seed for batch sampling (combined with worker id and step).
    pub seed: u64,
}

impl TrainerConfig {
    /// Creates a configuration with `workers` workers and sensible defaults
    /// (one shard per worker, no stragglers, seed 0).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `per_worker_batch == 0`.
    pub fn new(workers: usize, per_worker_batch: usize, learning_rate: f64, momentum: f64) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(per_worker_batch > 0, "batch must be positive");
        TrainerConfig {
            workers,
            per_worker_batch,
            learning_rate,
            momentum,
            shards: workers,
            topology: ServerTopology::single(),
            straggler_delay: vec![None; workers],
            excluded_workers: Vec::new(),
            sparse_push: true,
            seed: 0,
        }
    }

    /// Sets the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the sparse pull/push path (enabled by default).
    pub fn with_sparse_push(mut self, sparse_push: bool) -> Self {
        self.sparse_push = sparse_push;
        self
    }

    /// Sets the parameter-server tier layout.
    pub fn with_topology(mut self, topology: ServerTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Marks `worker` as a straggler with the given per-step delay.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn with_straggler(mut self, worker: usize, delay: Duration) -> Self {
        assert!(worker < self.workers, "worker {worker} out of range");
        self.straggler_delay[worker] = Some(delay);
        self
    }

    /// Clears all injected stragglers.
    pub fn clear_stragglers(&mut self) {
        self.straggler_delay.iter_mut().for_each(|d| *d = None);
    }

    /// The worker indices that actually participate in a segment.
    pub fn active_workers(&self) -> Vec<usize> {
        (0..self.workers)
            .filter(|w| !self.excluded_workers.contains(w))
            .collect()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be positive".into());
        }
        if self.active_workers().is_empty() {
            return Err("all workers excluded".into());
        }
        if self.per_worker_batch == 0 {
            return Err("batch must be positive".into());
        }
        if self.shards == 0 {
            return Err("shards must be positive".into());
        }
        self.topology.validate()?;
        if self.straggler_delay.len() != self.workers {
            return Err(format!(
                "straggler_delay has {} entries for {} workers",
                self.straggler_delay.len(),
                self.workers
            ));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err("learning rate must be positive".into());
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err("momentum must be in [0,1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let cfg = TrainerConfig::new(4, 32, 0.1, 0.9);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.active_workers(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sparse_push_defaults_on_and_toggles() {
        let cfg = TrainerConfig::new(2, 8, 0.1, 0.9);
        assert!(cfg.sparse_push);
        let cfg = cfg.with_sparse_push(false);
        assert!(!cfg.sparse_push);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn straggler_builder() {
        let cfg = TrainerConfig::new(3, 8, 0.1, 0.9).with_straggler(1, Duration::from_millis(5));
        assert!(cfg.straggler_delay[1].is_some());
        assert!(cfg.straggler_delay[0].is_none());
    }

    #[test]
    fn exclusion_shrinks_active_set() {
        let mut cfg = TrainerConfig::new(4, 8, 0.1, 0.9);
        cfg.excluded_workers = vec![2];
        assert_eq!(cfg.active_workers(), vec![0, 1, 3]);
        cfg.excluded_workers = vec![0, 1, 2, 3];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn transport_defaults_in_process_and_builds() {
        assert_eq!(ServerTopology::single().transport, TransportKind::InProcess);
        assert_eq!(
            ServerTopology::new(2, 4).transport,
            TransportKind::InProcess
        );
        let t = ServerTopology::new(2, 4).with_transport(TransportKind::Tcp);
        assert_eq!(t.transport, TransportKind::Tcp);
        assert!(t.validate().is_ok());
        // Names are stable: reports carry them.
        assert_eq!(TransportKind::InProcess.to_string(), "inprocess");
        assert_eq!(TransportKind::Channel.to_string(), "channel");
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
    }

    #[test]
    fn topology_defaults_and_validation() {
        let cfg = TrainerConfig::new(4, 8, 0.1, 0.9);
        assert_eq!(cfg.topology, ServerTopology::single());
        let cfg = cfg.with_topology(ServerTopology::new(2, 4));
        assert_eq!(cfg.topology.servers, 2);
        assert_eq!(cfg.topology.sync_every, 4);
        assert!(cfg.validate().is_ok());
        let mut bad = cfg.clone();
        bad.topology.servers = 0;
        assert!(bad.validate().is_err());
        let mut bad = cfg.clone();
        bad.topology.sync_every = 0;
        assert!(bad.validate().is_err());
        // A zero op timeout would block forever on TCP and fail every call
        // on the channel transport.
        let mut bad = cfg;
        bad.topology.retry.op_timeout_ms = 0;
        assert!(bad.topology.validate().is_err());
        assert!(bad.validate().is_err());
    }

    #[test]
    fn retry_and_fault_builders() {
        let t = ServerTopology::new(2, 4)
            .with_retry(RetryPolicy {
                op_timeout_ms: 100,
                max_retries: 2,
                backoff_base_ms: 1,
                backoff_max_ms: 10,
            })
            .with_faults(FaultPlan::seeded(9));
        assert_eq!(t.retry.max_retries, 2);
        assert_eq!(t.faults.unwrap().seed, 9);
        assert!(t.validate().is_ok());
        // Defaults: no faults, a positive retry budget.
        let d = ServerTopology::single();
        assert!(d.faults.is_none());
        assert!(d.retry.max_retries > 0);
        assert!(d.retry.op_timeout_ms > 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = TrainerConfig::new(2, 8, 0.1, 0.9);
        cfg.momentum = 1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = TrainerConfig::new(2, 8, 0.1, 0.9);
        cfg.learning_rate = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = TrainerConfig::new(2, 8, 0.1, 0.9);
        cfg.straggler_delay.pop();
        assert!(cfg.validate().is_err());
    }
}
