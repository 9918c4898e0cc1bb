//! Benchmark harness regenerating every table and figure of the
//! Sync-Switch paper's evaluation (§VI).
//!
//! Each `figXX` / `tableX` module reproduces one exhibit: it runs the same
//! experiment grid the paper ran (on the simulation substrates), prints the
//! same rows/series the paper reports, and returns a JSON value that the
//! `repro` binary writes under `results/`.
//!
//! Run `cargo run -p sync-switch-bench --bin repro -- all` to regenerate
//! everything, or pass an exhibit id (e.g. `fig11`, `table2`).

pub mod exhibits;
pub mod output;
pub mod pairs;
pub mod runner;

pub use output::Exhibit;
pub use runner::{mean_std, repeat_reports, run_order, run_report, OrderKind, RunSummary};
