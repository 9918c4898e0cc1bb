//! `ps-serve` — one parameter-server process of a real Sync-Switch
//! cluster.
//!
//! Reads a [`ClusterSpec`] JSON file, builds the spec's seeded workload
//! model to obtain the tier's initial parameters (every process of the
//! cluster builds the same model, so no parameter shipping is needed at
//! startup), builds its server from the spec's tier — the
//! `sync_switch::ps::Tier::remote` every `ps-worker` derives too, so a
//! shape that would need clamping is refused here as it is there — binds
//! the spec address for its server index, prints a readiness line, and
//! serves the full wire protocol — pushes, pulls,
//! the stage-2 commits its push count makes due, snapshot/restore, and the
//! `Hello` identity handshake — until killed. There is no graceful-shutdown path on
//! purpose: the process *is* the server, and the harness stops it the way
//! a cluster manager would, with a signal. Its request accounting is read
//! over the wire, by the `Stats` frame every `ps-worker` scrapes into its
//! report.
//!
//! ```text
//! ps-serve --spec cluster.json --index 0
//! ```

use std::process::ExitCode;

use sync_switch::deploy::ClusterSpec;
use sync_switch::ps::TcpServerHost;

/// Parsed command line of `ps-serve`.
///
/// The binary deliberately takes almost nothing on the command line: the
/// entire tier layout lives in the spec file, shared verbatim with every
/// other process of the cluster, and the only per-process fact is *which*
/// server this one is.
#[derive(Debug)]
struct ServeConfig {
    /// Path of the [`ClusterSpec`] JSON file.
    spec_path: String,
    /// This process's server index into the spec's `servers` list — it
    /// binds `servers[index]` and owns that index's shard range.
    index: usize,
}

impl ServeConfig {
    /// Parses `--spec <path> --index <n>` (both required).
    fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut spec_path = None;
        let mut index = None;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--spec" => spec_path = Some(args.next().ok_or("--spec needs a path")?),
                "--index" => {
                    let v = args.next().ok_or("--index needs a number")?;
                    index = Some(
                        v.parse::<usize>()
                            .map_err(|e| format!("bad --index: {e}"))?,
                    );
                }
                other => {
                    return Err(format!(
                        "unknown argument {other:?} (usage: ps-serve --spec <file> --index <n>)"
                    ))
                }
            }
        }
        Ok(ServeConfig {
            spec_path: spec_path.ok_or("missing --spec <file>")?,
            index: index.ok_or("missing --index <n>")?,
        })
    }
}

fn run() -> Result<(), String> {
    let cfg = ServeConfig::from_args(std::env::args().skip(1))?;
    let json = std::fs::read_to_string(&cfg.spec_path)
        .map_err(|e| format!("cannot read spec {}: {e}", cfg.spec_path))?;
    let spec = ClusterSpec::from_json(&json)?;
    let addrs = spec.server_addrs()?;
    if cfg.index >= addrs.len() {
        return Err(format!(
            "--index {} out of range: spec names {} servers",
            cfg.index,
            addrs.len()
        ));
    }
    // Every process builds the same seeded model; its flattened parameters
    // are the tier's agreed initial state.
    let kind = spec.workload_kind()?;
    let (model, _train, _test) = kind.build(spec.seed);
    let initial = model.params_flat();
    let mut host = TcpServerHost::bind(
        addrs[cfg.index],
        &initial,
        spec.shards,
        addrs.len(),
        cfg.index,
        spec.sync_every,
    )
    .map_err(|e| format!("cannot bind {}: {e}", addrs[cfg.index]))?;
    // The readiness line: printed only after the listener is accepting.
    // The harness and the workers do not parse it (readiness is probed
    // over the wire), but the log line pins down startup timing.
    println!(
        "ps-serve ready server={} addr={} workload={} params={} shards={} nonce={:#018x}",
        cfg.index,
        host.local_addr(),
        spec.workload,
        initial.len(),
        spec.shards,
        host.nonce(),
    );
    // Serve until killed. The accept loop runs on its own thread and only
    // returns if the listener fails, and then this process serves nobody.
    host.wait();
    Err(format!(
        "accept loop on {} exited; no longer serving",
        host.local_addr()
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ps-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
