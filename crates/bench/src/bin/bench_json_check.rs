//! CI gate for machine-readable bench output: validates that a
//! `BENCH_ps_throughput.json` exists, parses, and carries a well-formed
//! headline + sweep. Exits non-zero on any violation so `ci.sh` fails when
//! the perf trajectory stops being recorded.
//!
//! With `--baseline` it additionally compares the sweep against a committed
//! baseline file and flags configurations whose throughput regressed beyond
//! the tolerance:
//!
//! ```text
//! bench_json_check [path]
//! bench_json_check [path] --baseline BENCH_ps_throughput.json \
//!     [--tolerance-pct 25] [--report-only]
//! ```
//!
//! `--report-only` downgrades regressions to warnings (exit 0). Compare
//! like with like: a `PS_BENCH_FAST=1` smoke (one cold 40-step segment per
//! sweep point) is not comparable with a full-profile baseline, which is
//! why `ci.sh` validates its smoke without `--baseline`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::exit;

use serde_json::Value;
use sync_switch_bench::output::load_json;

struct Options {
    path: String,
    baseline: Option<String>,
    tolerance_pct: f64,
    report_only: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        path: "BENCH_ps_throughput.json".to_string(),
        baseline: None,
        tolerance_pct: 25.0,
        report_only: false,
    };
    let mut args = std::env::args().skip(1);
    let mut saw_path = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("--baseline requires a file")?);
            }
            "--tolerance-pct" => {
                let raw = args.next().ok_or("--tolerance-pct requires a number")?;
                opts.tolerance_pct = raw
                    .parse::<f64>()
                    .map_err(|_| format!("bad tolerance: {raw}"))?;
                if !(opts.tolerance_pct.is_finite() && opts.tolerance_pct >= 0.0) {
                    return Err(format!("tolerance must be non-negative: {raw}"));
                }
            }
            "--report-only" => opts.report_only = true,
            other if !other.starts_with("--") && !saw_path => {
                opts.path = other.to_string();
                saw_path = true;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!(
                "usage: bench_json_check [path] [--baseline FILE] \
                 [--tolerance-pct N] [--report-only]"
            );
            exit(2);
        }
    };
    let current = match validate(Path::new(&opts.path)) {
        Ok((v, headline, points)) => {
            println!(
                "{}: ok ({headline} headline entries, {points} sweep points)",
                opts.path
            );
            v
        }
        Err(e) => {
            eprintln!("{}: {e}", opts.path);
            exit(1);
        }
    };
    let Some(baseline_path) = &opts.baseline else {
        return;
    };
    let baseline = match load_json(Path::new(baseline_path)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{baseline_path}: {e}");
            exit(1);
        }
    };
    let regressions = compare_sweeps(&baseline, &current, opts.tolerance_pct);
    match regressions {
        Ok(0) => {}
        Ok(n) if opts.report_only => {
            eprintln!(
                "warning: {n} configuration(s) regressed beyond {}% vs {baseline_path} \
                 (report-only mode, not failing)",
                opts.tolerance_pct
            );
        }
        Ok(n) => {
            eprintln!(
                "{n} configuration(s) regressed beyond {}% vs {baseline_path}",
                opts.tolerance_pct
            );
            exit(1);
        }
        Err(e) => {
            eprintln!("baseline comparison failed: {e}");
            exit(1);
        }
    }
}

/// A sweep point's identity: everything but the measurements. Baselines
/// recorded before the multi-server axis existed default to 1 server, and
/// baselines recorded before the transport axis default to in-process.
fn sweep_key(point: &Value) -> Option<String> {
    let protocol = point.get("protocol")?.as_str()?;
    let workers = point.get("workers")?.as_u64()?;
    let shards = point.get("shards")?.as_u64()?;
    let servers = point.get("servers").and_then(Value::as_u64).unwrap_or(1);
    let transport = point
        .get("transport")
        .and_then(Value::as_str)
        .unwrap_or("inprocess");
    Some(format!(
        "{protocol} workers={workers} shards={shards} servers={servers} transport={transport}"
    ))
}

fn sweep_throughputs(v: &Value) -> Result<BTreeMap<String, f64>, String> {
    let sweep = v
        .get("sweep")
        .and_then(Value::as_array)
        .ok_or("missing \"sweep\" array")?;
    let mut out = BTreeMap::new();
    for (i, point) in sweep.iter().enumerate() {
        let key = sweep_key(point).ok_or(format!("sweep[{i}]: malformed key fields"))?;
        let sps = positive_f64(point, "steps_per_sec").map_err(|e| format!("sweep[{i}]: {e}"))?;
        out.insert(key, sps);
    }
    Ok(out)
}

/// Compares every configuration present in both sweeps; returns how many
/// regressed (current throughput below baseline by more than the
/// tolerance). Configurations unique to either side are reported but never
/// counted — axes are allowed to grow.
fn compare_sweeps(baseline: &Value, current: &Value, tolerance_pct: f64) -> Result<usize, String> {
    let base = sweep_throughputs(baseline)?;
    let cur = sweep_throughputs(current)?;
    let mut compared = 0usize;
    let mut regressions = 0usize;
    for (key, &base_sps) in &base {
        let Some(&cur_sps) = cur.get(key) else {
            println!("  [baseline-only] {key}: not in current sweep");
            continue;
        };
        compared += 1;
        let floor = base_sps * (1.0 - tolerance_pct / 100.0);
        if cur_sps < floor {
            regressions += 1;
            println!(
                "  [REGRESSION] {key}: {cur_sps:.0} steps/s vs baseline {base_sps:.0} \
                 (floor {floor:.0})"
            );
        }
    }
    for key in cur.keys() {
        if !base.contains_key(key) {
            println!("  [new] {key}: not in baseline, skipped");
        }
    }
    println!(
        "baseline check: {compared} configuration(s) compared, {regressions} regression(s) \
         at {tolerance_pct}% tolerance"
    );
    Ok(regressions)
}

fn validate(path: &Path) -> Result<(Value, usize, usize), String> {
    let v = load_json(path).map_err(|e| e.to_string())?;
    let headline = v
        .get("headline")
        .and_then(Value::as_array)
        .ok_or("missing \"headline\" array")?;
    if headline.is_empty() {
        return Err("empty \"headline\" array".into());
    }
    for (i, entry) in headline.iter().enumerate() {
        entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("headline[{i}]: missing \"name\""))?;
        positive_f64(entry, "steps_per_sec").map_err(|e| format!("headline[{i}]: {e}"))?;
    }
    let sweep = v
        .get("sweep")
        .and_then(Value::as_array)
        .ok_or("missing \"sweep\" array")?;
    if sweep.is_empty() {
        return Err("empty \"sweep\" array".into());
    }
    for (i, point) in sweep.iter().enumerate() {
        for key in ["workers", "shards", "steps"] {
            let n = point
                .get(key)
                .and_then(Value::as_u64)
                .ok_or(format!("sweep[{i}]: missing \"{key}\""))?;
            if n == 0 {
                return Err(format!("sweep[{i}]: \"{key}\" is zero"));
            }
        }
        // The servers axis arrived with the multi-server data plane; older
        // artifacts without it are treated as single-server, but when
        // present it must be a positive integer.
        if let Some(servers) = point.get("servers") {
            if servers.as_u64().is_none_or(|n| n == 0) {
                return Err(format!("sweep[{i}]: \"servers\" is not a positive integer"));
            }
        }
        // Same for the transport axis: optional for back-compat, but when
        // present it must be a known backend name.
        if let Some(transport) = point.get("transport") {
            let known = transport
                .as_str()
                .is_some_and(|t| ["inprocess", "channel", "tcp"].contains(&t));
            if !known {
                return Err(format!("sweep[{i}]: \"transport\" is not a known backend"));
            }
        }
        positive_f64(point, "steps_per_sec").map_err(|e| format!("sweep[{i}]: {e}"))?;
    }
    // The dedicated transport-axis entries (headline shape, every backend):
    // optional for older artifacts, shape-checked when present.
    if let Some(transport) = v.get("transport") {
        let entries = transport
            .as_array()
            .ok_or("\"transport\" is not an array")?;
        for (i, entry) in entries.iter().enumerate() {
            entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or(format!("transport[{i}]: missing \"name\""))?;
            let known = entry
                .get("transport")
                .and_then(Value::as_str)
                .is_some_and(|t| ["inprocess", "channel", "tcp"].contains(&t));
            if !known {
                return Err(format!("transport[{i}]: missing/unknown \"transport\""));
            }
            positive_f64(entry, "steps_per_sec").map_err(|e| format!("transport[{i}]: {e}"))?;
            // The retry machinery must be free on the clean loopback
            // network the bench runs on: any nonzero count means spurious
            // timeouts or reconnects are eating into the headline numbers.
            for key in ["wire_retries", "wire_reconnects"] {
                if let Some(raw) = entry.get(key) {
                    let n = raw
                        .as_u64()
                        .ok_or(format!("transport[{i}]: \"{key}\" is not an integer"))?;
                    if n != 0 {
                        return Err(format!(
                            "transport[{i}]: \"{key}\" = {n} on a fault-free bench run"
                        ));
                    }
                }
            }
        }
    }
    // The sparse-vs-dense pair (sparse-embedding workload, channel tier):
    // optional for older artifacts. When present, each entry must be
    // well-formed, and if both modes are recorded the sparse push volume
    // must actually undercut the dense one — the structural property the
    // sparse push path exists for, gated here so a regression that quietly
    // ships dense payloads cannot keep emitting a green-looking JSON.
    if let Some(sparse) = v.get("sparse") {
        let entries = sparse.as_array().ok_or("\"sparse\" is not an array")?;
        let mut bytes_by_mode: BTreeMap<String, f64> = BTreeMap::new();
        for (i, entry) in entries.iter().enumerate() {
            entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or(format!("sparse[{i}]: missing \"name\""))?;
            let mode = entry
                .get("mode")
                .and_then(Value::as_str)
                .filter(|m| ["sparse", "dense"].contains(m))
                .ok_or(format!("sparse[{i}]: missing/unknown \"mode\""))?;
            positive_f64(entry, "steps_per_sec").map_err(|e| format!("sparse[{i}]: {e}"))?;
            let bytes = positive_f64(entry, "wire_push_bytes_out")
                .map_err(|e| format!("sparse[{i}]: {e}"))?;
            bytes_by_mode.insert(mode.to_string(), bytes);
        }
        if let (Some(&s), Some(&d)) = (bytes_by_mode.get("sparse"), bytes_by_mode.get("dense")) {
            if s >= d {
                return Err(format!(
                    "sparse pushes moved {s} bytes, not below the dense {d} — the sparse path \
                     is not saving wire volume"
                ));
            }
        }
    }
    // The telemetry on/off pair: optional for older artifacts. When both
    // arms are recorded, the on-arm mean must stay within 5% of the
    // off-arm — the bus is a handful of relaxed atomics per step and is on
    // by default, so measurable overhead is a regression, gated hard here.
    if let Some(telemetry) = v.get("telemetry") {
        let entries = telemetry
            .as_array()
            .ok_or("\"telemetry\" is not an array")?;
        let mut mean_by_mode: BTreeMap<String, f64> = BTreeMap::new();
        let mut min_by_mode: BTreeMap<String, f64> = BTreeMap::new();
        let mut paired_pct: Option<f64> = None;
        for (i, entry) in entries.iter().enumerate() {
            entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or(format!("telemetry[{i}]: missing \"name\""))?;
            let mode = entry
                .get("mode")
                .and_then(Value::as_str)
                .filter(|m| ["on", "off"].contains(m))
                .ok_or(format!("telemetry[{i}]: missing/unknown \"mode\""))?;
            let mean =
                positive_f64(entry, "mean_us").map_err(|e| format!("telemetry[{i}]: {e}"))?;
            positive_f64(entry, "steps_per_sec").map_err(|e| format!("telemetry[{i}]: {e}"))?;
            if let Some(min) = entry.get("min_us") {
                let min = min
                    .as_f64()
                    .filter(|m| m.is_finite() && *m > 0.0)
                    .ok_or(format!("telemetry[{i}]: \"min_us\" is not positive/finite"))?;
                min_by_mode.insert(mode.to_string(), min);
            }
            if let Some(raw) = entry.get("paired_median_overhead_pct") {
                let pct = raw.as_f64().filter(|p| p.is_finite()).ok_or(format!(
                    "telemetry[{i}]: \"paired_median_overhead_pct\" is not a finite number"
                ))?;
                paired_pct = Some(pct);
            }
            mean_by_mode.insert(mode.to_string(), mean);
        }
        if let (Some(&on), Some(&off)) = (mean_by_mode.get("on"), mean_by_mode.get("off")) {
            let mean_pct = (on / off - 1.0) * 100.0;
            let min_pct = match (min_by_mode.get("on"), min_by_mode.get("off")) {
                (Some(&on_min), Some(&off_min)) => Some((on_min / off_min - 1.0) * 100.0),
                _ => None,
            };
            // Real recording cost is deterministic per step, so it shows up
            // in *every* robust statistic at once; scheduler noise on a
            // shared box (A/A runs of this bench swing individual statistics
            // by ±15%) rarely inflates two independent ones in the same
            // run. The gate therefore fails only when BOTH the paired
            // per-pair median (drift-cancelling) and the best-case min
            // ratio (noise only ever adds time) exceed the budget — i.e.
            // the overhead claim is corroborated. Artifacts from older runs
            // without those fields fall back to the raw mean comparison.
            let overhead_pct = match (paired_pct, min_pct) {
                (Some(p), Some(m)) => p.min(m),
                (Some(p), None) => p,
                (None, Some(m)) => m,
                (None, None) => mean_pct,
            };
            println!(
                "telemetry overhead: paired median {}, min ratio {}, arm means on {on:.2} µs \
                 vs off {off:.2} µs ({mean_pct:+.2}%)",
                paired_pct.map_or("n/a".to_string(), |p| format!("{p:+.2}%")),
                min_pct.map_or("n/a".to_string(), |m| format!("{m:+.2}%")),
            );
            if overhead_pct > 5.0 {
                return Err(format!(
                    "telemetry-on overhead {overhead_pct:.2}% exceeds the 5% budget \
                     (on {on:.2} µs vs off {off:.2} µs) — the bus is no longer cheap \
                     enough to leave on by default"
                ));
            }
        }
    }
    let counts = (headline.len(), sweep.len());
    Ok((v, counts.0, counts.1))
}

fn positive_f64(entry: &Value, key: &str) -> Result<f64, String> {
    let x = entry
        .get(key)
        .and_then(Value::as_f64)
        .ok_or(format!("missing \"{key}\""))?;
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("\"{key}\" = {x} is not positive/finite"))
    }
}
