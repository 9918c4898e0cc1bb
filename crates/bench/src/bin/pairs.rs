//! Turns the runs of `./ci.sh --pairs` into the verdict table, appends the
//! session to the bench history, and exits non-zero when a run is not
//! `correct`, a run failed jobs, or a median left its bound.
//!
//! ```text
//! pairs --workloads BENCHMARK.json         # the declared workloads, one a line
//! pairs --run-seconds BENCHMARK.json       # how long one run measures
//! pairs --runs FILE --manifest BENCHMARK.json --parent SHA --parent-code TREE \
//!       --change SHA --change-code TREE --change-label LABEL \
//!       [--history FILE --date DATE --nproc N --seed S]
//! ```
//!
//! `--parent-code` and `--change-code` are the tree ids of each side's
//! build inputs (see `Session`); the table names the parent by its short
//! sha and the change by `--change-label`.
//!
//! The runs file holds one run a line,
//! `side<TAB>workload<TAB>summary<TAB>result`, where `side` is `parent` or
//! `change`, `summary` the path of a copy of the summary the run wrote and
//! `result` the benchmark's last stdout line. See
//! `sync_switch_bench::pairs`.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::process::ExitCode;

use serde_json::Value;
use sync_switch_bench::pairs::{history, judge, manifest, markdown, parse_runs, Session};

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run(argv: &[String]) -> Result<bool, String> {
    let mut opts: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                opts.insert(key.as_str(), value.as_str());
            }
            _ => return Err(format!("expected `--option value` pairs, got {pair:?}")),
        }
    }
    let json = |path: &str| -> Result<Value, String> {
        serde_json::from_str(&read(path)?).map_err(|e| format!("{path}: {e:?}"))
    };
    if let Some(path) = opts.get("--workloads") {
        for w in manifest(&json(path)?)?.workloads {
            println!("{w}");
        }
        return Ok(true);
    }
    if let Some(path) = opts.get("--run-seconds") {
        println!("{}", manifest(&json(path)?)?.run_seconds);
        return Ok(true);
    }
    let need = |key: &str| opts.get(key).copied().ok_or(format!("missing {key}"));
    let number = |key: &str| -> Result<u64, String> {
        need(key)?.parse().map_err(|e| format!("{key}: {e}"))
    };
    let manifest = manifest(&json(need("--manifest")?)?)?;
    let runs = parse_runs(&read(need("--runs")?)?, |path| read(path).ok())?;
    let verdict = judge(&runs, &manifest.workloads, &manifest.metrics);
    let parent = need("--parent")?;
    let short = &parent[..parent.len().min(7)];
    print!("{}", markdown(&verdict, short, need("--change-label")?));
    if let Some(path) = opts.get("--history") {
        let session = Session {
            parent_sha: parent.to_string(),
            parent_code: need("--parent-code")?.to_string(),
            change_sha: need("--change")?.to_string(),
            change_code: need("--change-code")?.to_string(),
            date: need("--date")?.to_string(),
            nproc: number("--nproc")?,
            seed: number("--seed")?,
            seconds: manifest.run_seconds,
        };
        let mut file = (OpenOptions::new().create(true).append(true).open(path))
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        for line in history(&verdict, &runs, &session) {
            writeln!(file, "{line}").map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    for failure in &verdict.failures {
        eprintln!("FAILED: {failure}");
    }
    Ok(verdict.failures.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("pairs: {why}");
            ExitCode::from(2)
        }
    }
}
