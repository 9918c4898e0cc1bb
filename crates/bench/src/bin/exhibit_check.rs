//! CI golden gate for the paper exhibits: regenerates selected exhibits
//! in-process and compares their JSON payloads against committed goldens
//! under `goldens/`, with per-field tolerances so the gate pins the
//! *science* (knee position, search costs, headline speedups) without being
//! brittle about the last floating-point digit.
//!
//! ```text
//! exhibit_check                     # check the default exhibits vs goldens/
//! exhibit_check --goldens DIR       # goldens live elsewhere
//! exhibit_check --update            # (re)write the goldens instead
//! exhibit_check fig5                # check a subset
//! ```
//!
//! The default exhibits are `fig5` (impact-of-synchronicity knee),
//! `table2` (binary-search cost analysis), `fig8` (batch-size scaling +
//! momentum-scaling variants), `table1` (the paper's headline:
//! throughput and time-to-accuracy speedups of Sync-Switch over BSP and
//! ASP per setup), and the three exhibits that run the simulator's
//! asynchronous event loop: `fig1` (BSP/SSP/ASP/Sync-Switch trade-off),
//! `fig4` (ASP-over-BSP throughput per setup and straggler scenario) and
//! `fig15` (the Greedy/Elastic straggler policies). All are seeded and
//! deterministic, so any drift is a real behaviour change in the
//! policy/sim stack, not noise.

use std::path::PathBuf;
use std::process::exit;

use serde_json::Value;
use sync_switch_bench::exhibits;
use sync_switch_bench::output::load_json;

/// Exhibits gated by default: cheap, deterministic, and covering the
/// convergence claim (fig5), the cost analysis (table2), the
/// hyper-parameter configuration comparison (fig8), the headline
/// speedups (table1), and the simulator's SSP (fig1) and ASP (fig4, fig15)
/// schedules.
const DEFAULT_IDS: &[&str] = &["fig5", "table2", "fig8", "table1", "fig1", "fig4", "fig15"];

fn main() {
    let mut goldens_dir = PathBuf::from("goldens");
    let mut update = false;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--goldens" => match args.next() {
                Some(dir) => goldens_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--goldens requires a directory");
                    exit(2);
                }
            },
            "--update" => update = true,
            other if !other.starts_with("--") => ids.push(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: exhibit_check [--goldens DIR] [--update] [exhibit ids...]");
                exit(2);
            }
        }
    }
    if ids.is_empty() {
        ids = DEFAULT_IDS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !exhibits::all_ids().contains(&id.as_str()) {
            eprintln!("unknown exhibit '{id}'");
            exit(2);
        }
    }

    let mut failures = 0usize;
    for id in &ids {
        let started = std::time::Instant::now();
        let exhibit = exhibits::run(id);
        let golden_path = goldens_dir.join(format!("{id}.json"));
        if update {
            if let Err(e) = exhibit.save(&goldens_dir) {
                eprintln!("{id}: could not write golden: {e}");
                exit(1);
            }
            println!(
                "{id}: golden updated at {} ({:.1}s)",
                golden_path.display(),
                started.elapsed().as_secs_f64()
            );
            continue;
        }
        let golden = match load_json(&golden_path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "{id}: cannot read golden {}: {e} (run `exhibit_check --update` to create it)",
                    golden_path.display()
                );
                exit(1);
            }
        };
        let mut mismatches = Vec::new();
        compare(id, "", &golden, &exhibit.json, &mut mismatches);
        if mismatches.is_empty() {
            println!(
                "{id}: matches golden within tolerances ({:.1}s)",
                started.elapsed().as_secs_f64()
            );
        } else {
            failures += 1;
            eprintln!(
                "{id}: {} mismatch(es) vs {}:",
                mismatches.len(),
                golden_path.display()
            );
            for m in &mismatches {
                eprintln!("  {m}");
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures} exhibit(s) drifted from their goldens. If the change is intentional, \
             refresh with `exhibit_check --update` and commit the new goldens."
        );
        exit(1);
    }
}

/// Per-field comparison policy. Fields not listed must match exactly
/// (identifiers, settings, counts); listed fields carry the measurement
/// noise floor of their exhibit.
enum Tolerance {
    Exact,
    /// |golden − actual| ≤ eps.
    Abs(f64),
    /// |golden − actual| ≤ eps · max(|golden|, |actual|).
    Rel(f64),
}

fn tolerance_for(field: &str, path: &str) -> Tolerance {
    // table1 repeats the paper's own numbers next to the regenerated ones,
    // under the same field names: those are constants.
    if path.contains(".paper.") {
        return Tolerance::Exact;
    }
    match field {
        // fig5/fig8: converged accuracies (deterministic seeds; the
        // tolerance absorbs float-association drift while still pinning
        // the knee, whose features are ~0.015-0.03 wide, and fig8's
        // momentum-variant ordering, whose spread is ~0.04).
        "mean" | "std" | "accuracy" => Tolerance::Abs(0.01),
        // fig8 panel (a): simulated BSP throughput at two global batch
        // sizes — deterministic, but ratio (not digits) is the claim.
        "throughput_img_s" => Tolerance::Rel(0.05),
        // table2: Monte-Carlo cost ratios over 1000 trials.
        "search_cost" | "amortized" | "effective_training" => Tolerance::Rel(0.10),
        "success_probability" => Tolerance::Abs(0.05),
        // table1: speedup ratios of simulated runs — deterministic, and
        // the ratio is the claim.
        "throughput_vs_asp" | "throughput_vs_bsp" | "tta_vs_bsp" => Tolerance::Rel(0.05),
        _ => Tolerance::Exact,
    }
}

/// Recursively compares `golden` and `actual`, appending human-readable
/// mismatch descriptions (with JSON paths) to `out`.
fn compare(field: &str, path: &str, golden: &Value, actual: &Value, out: &mut Vec<String>) {
    match (golden, actual) {
        (Value::Object(g), Value::Object(a)) => {
            for (k, gv) in g {
                match actual.get(k) {
                    Some(av) => compare(k, &format!("{path}.{k}"), gv, av, out),
                    None => out.push(format!("{path}.{k}: missing from regenerated exhibit")),
                }
            }
            for (k, _) in a {
                if golden.get(k).is_none() {
                    out.push(format!("{path}.{k}: not present in golden"));
                }
            }
        }
        (Value::Array(g), Value::Array(a)) => {
            if g.len() != a.len() {
                out.push(format!(
                    "{path}: length {} in golden vs {} regenerated",
                    g.len(),
                    a.len()
                ));
                return;
            }
            for (i, (gv, av)) in g.iter().zip(a).enumerate() {
                compare(field, &format!("{path}[{i}]"), gv, av, out);
            }
        }
        // Numbers compare under the field's tolerance, whether the exact
        // JSON representation is integral or floating.
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let (Some(gx), Some(ax)) = (golden.as_f64(), actual.as_f64()) else {
                unreachable!("numeric variants always convert to f64");
            };
            let ok = match tolerance_for(field, path) {
                Tolerance::Exact => gx == ax,
                Tolerance::Abs(eps) => (gx - ax).abs() <= eps,
                Tolerance::Rel(eps) => (gx - ax).abs() <= eps * gx.abs().max(ax.abs()),
            };
            if !ok {
                out.push(format!("{path}: golden {gx} vs regenerated {ax}"));
            }
        }
        _ => {
            if golden != actual {
                out.push(format!(
                    "{path}: golden {golden:?} vs regenerated {actual:?}"
                ));
            }
        }
    }
}
