//! Multi-process cluster orchestration: spawn a tier of `ps-serve`
//! processes and a set of `ps-worker` processes from one [`ClusterSpec`],
//! wait for readiness, inject crashes, collect worker reports, and tear
//! everything down leak-free.
//!
//! The harness is deliberately dumb about training — it never touches the
//! wire protocol beyond a TCP connect probe. Layout validation is the
//! workers' job (`NetRouter::handshake`), and so is crash recovery (the
//! same handshake finds a respawned instance); the harness only manages
//! *processes*: fork, SIGKILL, respawn, reap. That split mirrors a real
//! deployment, where the cluster manager restarts containers and the
//! training job is responsible for its own state.

use std::fs::{self, File};
use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::deploy::{ClusterSpec, WorkerReport};

/// A child process that is guaranteed dead once this guard drops.
///
/// `Drop` sends SIGKILL and reaps the zombie, so a panicking test (or a
/// harness abandoned halfway through a scenario) cannot leak `ps-serve`
/// listeners that poison later runs by squatting on their ports.
#[derive(Debug)]
pub struct ChildGuard {
    /// Display name, e.g. `ps-serve-0`.
    name: String,
    child: Child,
    /// Combined stdout+stderr log of the child.
    log_path: PathBuf,
}

impl ChildGuard {
    /// Spawns `cmd` with stdout and stderr appended to `log_path`.
    ///
    /// When `PS_CLUSTER_PID_FILE` names a file, the new child's PID is
    /// appended to it (one per line). CI uses this ledger to scope its
    /// exit-trap cleanup to processes *this* run spawned, instead of
    /// pattern-killing every `ps-serve`/`ps-worker` on the machine.
    fn spawn(name: String, mut cmd: Command, log_path: PathBuf) -> io::Result<Self> {
        let log = File::create(&log_path)?;
        let log2 = log.try_clone()?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(log2))
            .spawn()?;
        if let Ok(ledger) = std::env::var("PS_CLUSTER_PID_FILE") {
            if !ledger.is_empty() {
                use std::io::Write;
                if let Ok(mut f) = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&ledger)
                {
                    let _ = writeln!(f, "{}", child.id());
                }
            }
        }
        Ok(ChildGuard {
            name,
            child,
            log_path,
        })
    }

    /// The child's OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Path of the child's combined stdout+stderr log.
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// Whether the child is still running (non-blocking).
    pub fn is_running(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// SIGKILLs the child and reaps it. Idempotent.
    pub fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The tail of the child's log, for failure diagnostics.
    fn log_tail(&self, lines: usize) -> String {
        let text = fs::read_to_string(&self.log_path).unwrap_or_default();
        let all: Vec<&str> = text.lines().collect();
        let start = all.len().saturating_sub(lines);
        all[start..].join("\n")
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// Orchestrates one multi-process cluster run.
///
/// # Example shape (as the gated integration tests use it)
///
/// ```no_run
/// # use std::time::Duration;
/// # use sync_switch::deploy::ClusterSpec;
/// # use sync_switch::harness::ClusterHarness;
/// # use sync_switch::workloads::TrainableKind;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let addrs = vec!["127.0.0.1:7701".to_string(), "127.0.0.1:7702".to_string()];
/// # let spec = ClusterSpec::standard(TrainableKind::MlpBlobs, addrs, 1);
/// # let (serve_bin, worker_bin, dir) = ("ps-serve", "ps-worker", "cluster-run");
/// let mut h = ClusterHarness::new(spec, serve_bin, worker_bin, dir)?;
/// h.spawn_servers()?;
/// h.wait_servers_ready(Duration::from_secs(10))?;
/// h.spawn_workers(2)?;
/// h.sigkill_server(0);           // mid-run crash
/// h.respawn_server(0)?;          // "the cluster manager restarts it"
/// let reports = h.wait_workers(Duration::from_secs(120))?;
/// assert_eq!(reports.len(), 2);
/// # Ok(())
/// # }
/// ```
///
/// Dropping the harness kills every remaining child.
#[derive(Debug)]
pub struct ClusterHarness {
    spec: ClusterSpec,
    dir: PathBuf,
    spec_path: PathBuf,
    serve_bin: PathBuf,
    worker_bin: PathBuf,
    servers: Vec<Option<ChildGuard>>,
    workers: Vec<ChildGuard>,
}

impl ClusterHarness {
    /// Prepares a harness in `dir` (created if missing): validates the
    /// spec and writes it to `dir/spec.json` for the children to read.
    ///
    /// `serve_bin` / `worker_bin` are the `ps-serve` / `ps-worker`
    /// executables (tests pass `env!("CARGO_BIN_EXE_ps-serve")`).
    ///
    /// # Errors
    ///
    /// Returns spec-validation failures as [`io::ErrorKind::InvalidInput`]
    /// and filesystem failures verbatim.
    pub fn new(
        spec: ClusterSpec,
        serve_bin: impl Into<PathBuf>,
        worker_bin: impl Into<PathBuf>,
        dir: impl Into<PathBuf>,
    ) -> io::Result<Self> {
        let dir = dir.into();
        spec.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        fs::create_dir_all(&dir)?;
        let spec_path = dir.join("spec.json");
        fs::write(&spec_path, spec.to_json())?;
        let server_count = spec.servers.len();
        Ok(ClusterHarness {
            spec,
            dir,
            spec_path,
            serve_bin: serve_bin.into(),
            worker_bin: worker_bin.into(),
            servers: (0..server_count).map(|_| None).collect(),
            workers: Vec::new(),
        })
    }

    /// The run directory (spec, logs, reports).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The spec this harness was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Spawns (or respawns) server `i` as a `ps-serve` process on the
    /// spec's `servers[i]` address. Any previous incarnation is killed
    /// first, and the new one logs to `ps-serve-<i>.<gen>.log` so crash
    /// forensics keep both incarnations' output.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure.
    pub fn spawn_server(&mut self, i: usize) -> io::Result<()> {
        assert!(i < self.servers.len(), "server {i} out of range");
        if let Some(old) = self.servers[i].take() {
            drop(old); // kill + reap
        }
        let gen = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("ps-serve-{i}."))
            })
            .count();
        let log = self.dir.join(format!("ps-serve-{i}.{gen}.log"));
        let mut cmd = Command::new(&self.serve_bin);
        cmd.arg("--spec")
            .arg(&self.spec_path)
            .arg("--index")
            .arg(i.to_string());
        self.servers[i] = Some(ChildGuard::spawn(format!("ps-serve-{i}"), cmd, log)?);
        Ok(())
    }

    /// Spawns every server of the tier.
    ///
    /// # Errors
    ///
    /// Propagates the first spawn failure.
    pub fn spawn_servers(&mut self) -> io::Result<()> {
        for i in 0..self.servers.len() {
            self.spawn_server(i)?;
        }
        Ok(())
    }

    /// Waits until every spawned server's listener accepts a TCP
    /// connection — the harness-level readiness handshake. (Workers
    /// additionally run the wire-level `Hello` handshake that validates
    /// layout; this probe only proves the ports are live.)
    ///
    /// # Errors
    ///
    /// Names the first server that did not come up within `deadline`,
    /// with its log tail.
    pub fn wait_servers_ready(&mut self, deadline: Duration) -> Result<(), String> {
        let addrs = self.spec.server_addrs().map_err(|e| e.to_string())?;
        let start = Instant::now();
        for (i, addr) in addrs.iter().enumerate() {
            if self.servers[i].is_none() {
                continue; // not spawned (deliberately late) — not ours to wait on
            }
            loop {
                if TcpStream::connect_timeout(addr, Duration::from_millis(250)).is_ok() {
                    break;
                }
                let guard = self.servers[i].as_mut().expect("spawned");
                if !guard.is_running() {
                    return Err(format!(
                        "{} exited before binding {addr}\n--- log tail ---\n{}",
                        guard.name(),
                        guard.log_tail(30)
                    ));
                }
                if start.elapsed() >= deadline {
                    return Err(format!(
                        "server {i} not ready on {addr} within {deadline:?}"
                    ));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        Ok(())
    }

    /// Spawns `n` `ps-worker` processes; worker `w` writes its report to
    /// `worker-<w>.report.json` and logs to `ps-worker-<w>.log`.
    ///
    /// # Errors
    ///
    /// Propagates the first spawn failure.
    pub fn spawn_workers(&mut self, n: usize) -> io::Result<()> {
        for _ in 0..n {
            let w = self.workers.len();
            let log = self.dir.join(format!("ps-worker-{w}.log"));
            let mut cmd = Command::new(&self.worker_bin);
            cmd.arg("--spec")
                .arg(&self.spec_path)
                .arg("--report")
                .arg(self.report_path(w));
            self.workers
                .push(ChildGuard::spawn(format!("ps-worker-{w}"), cmd, log)?);
        }
        Ok(())
    }

    /// Report path of worker `w`.
    pub fn report_path(&self, w: usize) -> PathBuf {
        self.dir.join(format!("worker-{w}.report.json"))
    }

    /// Chrome-trace path of worker `w` (written by `ps-worker` next to its
    /// report; load it in `chrome://tracing` or Perfetto).
    pub fn worker_trace_path(&self, w: usize) -> PathBuf {
        self.dir.join(format!("worker-{w}.trace.json"))
    }

    /// SIGKILLs server `i` — the mid-run crash. The listener vanishes with
    /// the process; workers' in-flight operations fail and their
    /// handshakes start waiting for a respawn.
    pub fn sigkill_server(&mut self, i: usize) {
        if let Some(guard) = self.servers[i].as_mut() {
            guard.kill_now();
        }
    }

    /// Respawns server `i` at its spec address (fresh instance, fresh
    /// nonce, spec-initial state) and waits for its listener.
    ///
    /// # Errors
    ///
    /// Propagates spawn and readiness failures.
    pub fn respawn_server(&mut self, i: usize) -> Result<(), String> {
        self.spawn_server(i).map_err(|e| e.to_string())?;
        self.wait_servers_ready(Duration::from_secs(10))
    }

    /// Waits for every worker process to exit, then parses their reports.
    /// Servers keep running (they serve forever) — call
    /// [`shutdown`](Self::shutdown) or drop the harness to stop them.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic (with log tails) if a worker exits nonzero,
    /// fails to produce a parseable report, or the deadline passes.
    pub fn wait_workers(&mut self, deadline: Duration) -> Result<Vec<WorkerReport>, String> {
        let start = Instant::now();
        loop {
            let all_done = self.workers.iter_mut().all(|w| !w.is_running());
            if all_done {
                break;
            }
            if start.elapsed() >= deadline {
                let stuck: Vec<&str> = self
                    .workers
                    .iter_mut()
                    .filter_map(|w| {
                        if w.is_running() {
                            Some(w.name.as_str())
                        } else {
                            None
                        }
                    })
                    .collect();
                return Err(format!(
                    "workers {stuck:?} still running after {deadline:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut reports = Vec::new();
        for w in 0..self.workers.len() {
            let guard = &mut self.workers[w];
            let status = guard.child.wait().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!(
                    "{} exited with {status}\n--- log tail ---\n{}",
                    guard.name,
                    guard.log_tail(40)
                ));
            }
            let path = self.report_path(w);
            let json = fs::read_to_string(&path)
                .map_err(|e| format!("worker {w} wrote no report at {}: {e}", path.display()))?;
            reports.push(
                WorkerReport::from_json(&json)
                    .map_err(|e| format!("worker {w} report unparseable: {e}"))?,
            );
        }
        Ok(reports)
    }

    /// Kills every remaining child (servers and workers). Also run by
    /// `Drop`; exposed so tests can assert the post-shutdown state.
    pub fn shutdown(&mut self) {
        for guard in self.servers.iter_mut().flatten() {
            guard.kill_now();
        }
        for guard in &mut self.workers {
            guard.kill_now();
        }
    }

    /// Pids of all children ever spawned and not yet respawned-over, for
    /// leak checks.
    pub fn child_pids(&self) -> Vec<u32> {
        self.servers
            .iter()
            .flatten()
            .map(ChildGuard::pid)
            .chain(self.workers.iter().map(ChildGuard::pid))
            .collect()
    }
}

impl Drop for ClusterHarness {
    fn drop(&mut self) {
        self.shutdown();
    }
}
