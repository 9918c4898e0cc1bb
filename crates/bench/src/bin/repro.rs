//! Regenerates the Sync-Switch paper's tables and figures, or checks them
//! against their committed goldens.
//!
//! ```text
//! repro all                 # every exhibit
//! repro fig11 table2        # specific exhibits
//! repro --out DIR all       # write the JSON payloads to DIR
//! repro --check             # every exhibit against goldens/
//! repro --check fig5        # a subset against goldens/
//! repro --list              # available ids
//! ```
//!
//! Rendered text goes to stdout; JSON payloads are written to `results/`.
//! `--check` writes nothing: it compares each payload against its golden
//! under the per-field tolerances of `sync_switch_bench::golden` and exits
//! 1 naming every drifted field. After an intentional behaviour change,
//! `repro --out goldens all` (from the workspace root) refreshes them.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sync_switch_bench::{exhibits, golden};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _) in exhibits::ALL {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let mut out_dir = PathBuf::from("results");
    let mut check = false;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--check" => check = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown argument: {flag}");
                return usage();
            }
            _ => ids.push(arg),
        }
    }
    if ids.is_empty() && !check {
        return usage();
    }
    let selected: Vec<_> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        exhibits::ALL.iter().collect()
    } else {
        match ids.iter().map(|id| exhibits::find(id).ok_or(id)).collect() {
            Ok(selected) => selected,
            Err(id) => {
                eprintln!("unknown exhibit '{id}'; use --list");
                return ExitCode::from(2);
            }
        }
    };

    let mut drifted = 0usize;
    for &(id, run) in selected {
        let started = Instant::now();
        let exhibit = run();
        let secs = started.elapsed().as_secs_f64();
        if !check {
            exhibit.print();
            if let Err(e) = exhibit.save(&out_dir) {
                eprintln!("warning: could not save {id}: {e}");
            }
            eprintln!("[{id} regenerated in {secs:.1}s]");
            continue;
        }
        match golden::check(&exhibit) {
            Ok(mismatches) if mismatches.is_empty() => {
                println!("{id}: matches golden within tolerances ({secs:.1}s)");
            }
            Ok(mismatches) => {
                drifted += 1;
                eprintln!(
                    "{id}: {} field(s) drifted from its golden:",
                    mismatches.len()
                );
                for m in &mismatches {
                    eprintln!("  {m}");
                }
            }
            Err(e) => {
                drifted += 1;
                eprintln!("{id}: cannot read goldens/{id}.json: {e}");
            }
        }
    }
    if drifted > 0 {
        eprintln!(
            "{drifted} exhibit(s) drifted from their goldens. If the change is intentional, \
             refresh with `repro --out goldens all` from the workspace root and commit them."
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: repro [--list] [--out DIR] <exhibit id | all>...");
    eprintln!("       repro --check [exhibit id]...");
    let ids: Vec<&str> = exhibits::ALL.iter().map(|&(id, _)| id).collect();
    eprintln!("exhibits: {}", ids.join(", "));
    ExitCode::from(2)
}
