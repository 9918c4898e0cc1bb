//! Benchmark harness regenerating every table and figure of the
//! Sync-Switch paper's evaluation (§VI).
//!
//! Each `figXX` / `tableX` module reproduces one exhibit: it runs the same
//! experiment grid the paper ran (on the simulation substrates), prints the
//! same rows/series the paper reports, and returns a JSON value that the
//! `repro` binary writes under `results/`. [`exhibits::ALL`] lists them all,
//! and [`golden`] pins each one's JSON to its committed golden.
//!
//! Run `cargo run -p sync-switch-bench --bin repro -- all` to regenerate
//! everything, pass exhibit ids (e.g. `fig11`, `table2`) for a subset, or
//! `--check` to compare against `goldens/` instead of writing.

pub mod exhibits;
pub mod golden;
pub mod output;
pub mod pairs;
pub mod runner;

pub use output::Exhibit;
pub use runner::{mean_std, repeat_reports, run_order, run_report, OrderKind, RunSummary};
