//! End-to-end and layer-by-layer benchmark of the Sync-Switch
//! parameter-server tier. See `README.md` for the load model, the workload
//! and metric tables, and how to read the output.
//!
//! One process measures one workload, so peak memory and CPU are the
//! workload's own:
//!
//! ```text
//! sync-switch-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! sync-switch-benchmark --manifest        # prints BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result object; the table of
//! metrics and any warning go to standard error, and the full summary
//! (quartiles, job counts, flags) to `out/<workload>.summary.json`.

#![forbid(unsafe_code)]

mod job;
mod metrics;
mod probes;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use job::{run_job, JobOutcome, JobStats, LayerTotals};
use metrics::{END_TO_END, PER_LAYER};
use probes::Rows;
use spans::Recorder;
use stats::{median, observe_host, percentile, quartiles, spread, HostState};
use workloads::{Workload, MIN_JOBS, WORKERS, WORKLOADS};

/// A run that has not finished by then stops adding jobs, whatever the
/// minimum job count says: the driver kills a run at 180 s.
const HARD_STOP: Duration = Duration::from_secs(150);
/// Jobs per pass in smoke mode, which also cuts a job to a tenth of its
/// steps.
const SMOKE_JOBS: usize = 3;
/// Spans written per recorder to the trace file.
const TRACE_FILE_SPANS: usize = 10_000;
/// Replay steps kept in memory (a dozen spans each).
const REPLAY_MAX_STEPS: u64 = 30_000;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    /// Steps of one job: the workload's budget, a tenth of it in smoke mode.
    fn job_steps(&self) -> u64 {
        if self.smoke {
            self.workload.steps / 10
        } else {
            self.workload.steps
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] | --manifest",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::by_name(value).ok_or_else(bad)?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The jobs of one pass plus what failed.
#[derive(Default)]
struct Tally {
    jobs: Vec<JobSample>,
    attempted: u64,
    failures: Vec<String>,
}

/// What is kept of one finished job (the trainer is dropped): its numbers
/// as the clock read them and what the host did meanwhile.
/// [`JobSample::time`] and [`JobSample::rate`] bring a number to the
/// reference host speed.
struct JobSample {
    seed: u64,
    host: HostState,
    stats: JobStats,
}

impl JobSample {
    /// A duration of this job at the reference host speed.
    fn time(&self, raw: f64) -> f64 {
        raw / self.host.speed_index
    }

    /// A rate of this job at the reference host speed.
    fn rate(&self, raw: f64) -> f64 {
        raw * self.host.speed_index
    }
}

impl Tally {
    /// Runs one job with the host observed around it and files the result.
    fn run(
        &mut self,
        w: &Workload,
        seed: u64,
        steps: u64,
        rec: &mut Recorder,
        totals: &mut LayerTotals,
    ) -> Option<JobOutcome> {
        self.attempted += 1;
        let (result, host) = observe_host(|| run_job(w, seed, steps, WORKERS, rec, totals));
        match result {
            Ok(job) => {
                self.jobs.push(JobSample {
                    seed,
                    host,
                    stats: job.stats,
                });
                Some(job)
            }
            Err(why) => {
                eprintln!("job seed {seed} FAILED: {why}");
                self.failures.push(format!("job seed {seed}: {why}"));
                None
            }
        }
    }

    /// The jobs timings are taken over: those the hypervisor left alone,
    /// or all of them when it left fewer than half alone.
    fn timed(&self) -> Vec<&JobSample> {
        let clean: Vec<&JobSample> = self.jobs.iter().filter(|j| j.host.clean()).collect();
        if 2 * clean.len() >= self.jobs.len() {
            clean
        } else {
            self.jobs.iter().collect()
        }
    }

    fn column(&self, f: impl Fn(&JobSample) -> f64) -> Vec<f64> {
        self.timed().into_iter().map(f).collect()
    }

    /// Share of the jobs during which the hypervisor stole CPU.
    fn disturbed_share(&self) -> f64 {
        let disturbed = self.jobs.iter().filter(|j| !j.host.clean()).count();
        disturbed as f64 / self.jobs.len().max(1) as f64
    }

    /// Why this pass's timings cannot be trusted, if they cannot: the host
    /// changed speed between the first and the last job, stole CPU from
    /// most jobs, or the jobs disagree among themselves.
    fn unresolved(&self) -> Vec<String> {
        let mut out = Vec::new();
        let indices: Vec<f64> = self.jobs.iter().map(|j| j.host.speed_index).collect();
        let (first, second) = indices.split_at(indices.len() / 2);
        let (a, b) = (median(first), median(second));
        if !first.is_empty() && (b - a).abs() / a > 0.25 {
            out.push(format!(
                "host.speed_index moved from {a:.3} in the first half of the run to {b:.3} in the second"
            ));
        }
        if self.disturbed_share() > 0.5 {
            out.push(format!(
                "the hypervisor stole CPU during {:.0}% of the jobs; timings are over all jobs",
                self.disturbed_share() * 100.0
            ));
        }
        let job_spread = spread(&self.column(|j| j.rate(j.stats.steps_per_s())));
        if job_spread > 0.5 {
            out.push(format!(
                "loadgen.job_spread {job_spread:.3} is over 0.5: jobs of this run disagree"
            ));
        }
        out
    }
}

/// Whether a pass that started at `start` has run its jobs.
fn pass_done(args: &Args, start: Instant, budget_s: f64, jobs: usize, min_jobs: usize) -> bool {
    if args.smoke {
        return jobs >= SMOKE_JOBS;
    }
    let elapsed = start.elapsed();
    (elapsed.as_secs_f64() >= budget_s && jobs >= min_jobs) || elapsed >= HARD_STOP
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Everything a run found out, ready to print.
struct Outcome {
    rows: Rows,
    /// `(name, q1, median, q3, n, median as the clock read it)` of the
    /// timings reported as medians over jobs.
    quartile_rows: Vec<(&'static str, f64, f64, f64, usize, f64)>,
    tally: Tally,
    /// Run-level checks that did not hold.
    violations: Vec<String>,
    unresolved: Vec<String>,
}

/// The untraced pass: one discarded warm-up job, then measured jobs for
/// `--seconds`; every end-to-end metric comes from here.
fn run_untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let steps = args.job_steps();
    let mut rec = Recorder::disabled();
    let mut totals = LayerTotals::default();
    let mut violations = Vec::new();

    // The warm-up job has the seed of measured job 0, so under BSP the two
    // must end on the same parameters.
    let warm = run_job(w, args.seed, steps, WORKERS, &mut rec, &mut totals);
    let warm_params = match warm {
        Ok(job) => Some(job.trainer.checkpoint().params),
        Err(why) => {
            violations.push(format!("warm-up job failed: {why}"));
            None
        }
    };

    let mut tally = Tally::default();
    let start = Instant::now();
    while !pass_done(args, start, args.seconds, tally.jobs.len(), MIN_JOBS) {
        let r = tally.attempted;
        let seed = args.seed + r;
        let job = tally.run(w, seed, steps, &mut rec, &mut totals);
        if let (0, Some(job), Some(warm), workloads::Drive::Pure(p)) =
            (r, &job, &warm_params, w.drive)
        {
            if p.is_synchronous() {
                let diff = max_abs_diff(warm, &job.trainer.checkpoint().params);
                if diff > 1e-4 {
                    violations.push(format!(
                        "two BSP jobs with seed {seed} ended {diff} apart (max abs), over 1e-4"
                    ));
                }
            }
        }
    }

    let mut quartile_rows = Vec::new();
    let mut rows: Rows = Vec::new();
    type Column = fn(&JobSample) -> f64;
    let timings: [(&str, Column, Column); 4] = [
        ("setup_s", |j| j.time(j.stats.setup_s), |j| j.stats.setup_s),
        (
            "steps_per_s",
            |j| j.rate(j.stats.steps_per_s()),
            |j| j.stats.steps_per_s(),
        ),
        ("tta_s", |j| j.time(j.stats.tta_s), |j| j.stats.tta_s),
        (
            "cpu_ms_per_kstep",
            |j| j.time(j.stats.cpu_ms_per_kstep()),
            |j| j.stats.cpu_ms_per_kstep(),
        ),
    ];
    for (name, at_reference, clocked) in timings {
        let values = tally.column(at_reference);
        let (q1, med, q3) = quartiles(&values);
        quartile_rows.push((
            name,
            q1,
            med,
            q3,
            values.len(),
            median(&tally.column(clocked)),
        ));
        rows.push((name, med));
    }
    // Accuracy moves in steps of one test example, so its median over jobs
    // sits on a coarse grid; the mean does not. It does not depend on the
    // host, so it is taken over every job.
    let accuracy: f64 = tally.jobs.iter().map(|j| j.stats.accuracy).sum();
    rows.push(("test_accuracy", accuracy / tally.jobs.len().max(1) as f64));

    let unresolved = tally.unresolved();
    Outcome {
        rows,
        quartile_rows,
        tally,
        violations,
        unresolved,
    }
}

/// The traced pass: pairs of untraced and traced jobs, probes on the last
/// traced job's trainer, the single-worker baseline, the replay loop and
/// the isolated probes; every per-layer metric comes from here, as the
/// clock read it.
fn run_traced(args: &Args) -> Outcome {
    let w = args.workload;
    let steps = args.job_steps();
    let epoch = Instant::now();
    let mut off = Recorder::disabled();
    let mut rec = Recorder::new(true, epoch, 0);
    let mut totals = LayerTotals::default();
    let mut unused = LayerTotals::default();
    let mut violations = Vec::new();
    let mut rows: Rows = Vec::new();

    if let Err(why) = run_job(w, args.seed, steps, WORKERS, &mut off, &mut unused) {
        violations.push(format!("warm-up job failed: {why}"));
    }

    // Each pair runs one seed untraced, then traced: the difference in job
    // wall is what the benchmark's own spans and bookkeeping cost.
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let mut last_traced = None;
    let start = Instant::now();
    while !pass_done(args, start, 0.45 * args.seconds, traced.jobs.len(), 2) {
        let seed = args.seed + plain.attempted;
        plain.run(w, seed, steps, &mut off, &mut unused);
        last_traced = traced.run(w, seed, steps, &mut rec, &mut totals);
    }
    // Before the probes and the replay, whose spans would be most of it.
    rows.push(("peak_rss_mb", stats::peak_rss_mb()));
    match last_traced.as_mut() {
        Some(job) => probes::on_trainer(&mut job.trainer, &mut rows),
        None => violations.push("no traced job finished, so no trainer to probe".into()),
    }
    drop(last_traced);

    match job::single_worker_steps_per_s(w, args.seed, steps / 10) {
        Ok(v) => rows.push(("baseline.single_worker_steps_per_s", v)),
        Err(why) => violations.push(format!("single-worker baseline failed: {why}")),
    }

    let replay_budget = Duration::from_secs_f64(if args.smoke { 0.3 } else { 0.25 * args.seconds });
    let replay = replay::run(w, args.seed, replay_budget, REPLAY_MAX_STEPS, epoch);
    replay_rows(&replay, &mut rows);
    probes::store_and_codec(w, args.seed, &mut rows);

    layer_rows(&totals, &mut rows);
    let walls = |t: &Tally| median(&t.column(|j| j.time(j.stats.wall_s)));
    let indices: Vec<f64> = traced.jobs.iter().map(|j| j.host.speed_index).collect();
    let censored = traced.jobs.iter().filter(|j| j.stats.censored).count();
    rows.extend([
        (
            "quality.tta_censored_share",
            censored as f64 / traced.jobs.len().max(1) as f64,
        ),
        (
            "quality.final_loss",
            median(
                &traced
                    .jobs
                    .iter()
                    .map(|j| j.stats.final_loss)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "loadgen.job_spread",
            spread(&traced.column(|j| j.rate(j.stats.steps_per_s()))),
        ),
        ("loadgen.jobs", traced.jobs.len() as f64),
        ("host.speed_index", median(&indices)),
        ("host.speed_index_spread", spread(&indices)),
        ("host.disturbed_share", traced.disturbed_share()),
        (
            "trace.overhead_share",
            (walls(&traced) - walls(&plain)) / walls(&plain).max(f64::MIN_POSITIVE),
        ),
        (
            "trace.spans",
            (rec.spans().len() + replay.iter().map(|r| r.spans().len()).sum::<usize>()) as f64,
        ),
    ]);

    let mut recorders = vec![&rec];
    recorders.extend(&replay);
    let trace = spans::chrome_trace(&recorders, TRACE_FILE_SPANS);
    write_out(
        w.name,
        "trace.json",
        &serde_json::to_string(&trace).expect("serialize trace"),
    );

    let unresolved = traced.unresolved();
    let mut tally = traced;
    tally.attempted += plain.attempted;
    tally.failures.extend(plain.failures);
    Outcome {
        rows,
        quartile_rows: Vec::new(),
        tally,
        violations,
        unresolved,
    }
}

/// The `T` rows: ratios and means over what the traced jobs' reports,
/// metrics registry and server scrapes said.
fn layer_rows(t: &LayerTotals, rows: &mut Rows) {
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let steps = t.steps as f64;
    let jobs = t.jobs as f64;
    let worker_wall_s = WORKERS as f64 * t.segment_wall.as_secs_f64();
    let busy_share = per(t.busy.as_secs_f64(), worker_wall_s);
    let barrier_share = per(t.barrier_wait_ns as f64 / 1e9, worker_wall_s);
    let wire_ops = t.wire_push.ops + t.wire_pull.ops + t.wire_sync.ops;
    let bytes_in = t.wire_push.bytes_in + t.wire_pull.bytes_in + t.wire_sync.bytes_in;
    let bytes_out = t.wire_push.bytes_out + t.wire_pull.bytes_out + t.wire_sync.bytes_out;
    // A p99 needs ten samples beyond it; with fewer it falls back to the
    // highest percentile that has them.
    let n = t.step_busy_us.len();
    let tail = if n >= 1_000 { 0.99 } else { 0.9 };
    rows.extend([
        (
            "server.apply_mean_ns",
            per(t.server_apply_ns as f64, t.server_applies as f64),
        ),
        (
            "server.requests_per_step",
            per(t.server_requests as f64, steps),
        ),
        ("server.dedup_hits", t.server_dedup_hits as f64),
        (
            "port.sync_rounds_per_step",
            per(t.sync_rounds as f64, steps),
        ),
        ("wire.pull_mean_us", t.wire_pull.mean_us()),
        ("wire.push_mean_us", t.wire_push.mean_us()),
        ("wire.sync_mean_us", t.wire_sync.mean_us()),
        ("wire.bytes_in_per_step", per(bytes_in as f64, steps)),
        ("wire.bytes_out_per_step", per(bytes_out as f64, steps)),
        ("wire.ops_per_step", per(wire_ops as f64, steps)),
        ("wire.retries", t.wire_retries as f64),
        ("wire.reconnects", t.wire_reconnects as f64),
        ("engine.busy_share", busy_share),
        ("engine.barrier_wait_share", barrier_share),
        (
            "engine.barrier_wait_mean_us",
            per(t.barrier_wait_ns as f64 / 1e3, t.barrier_waits as f64),
        ),
        ("engine.segment_overhead_us", median(&t.segment_overhead_us)),
        ("engine.step_busy_p50_us", median(&t.step_busy_us)),
        ("engine.step_busy_p99_us", percentile(&t.step_busy_us, tail)),
        (
            "engine.staleness_mean",
            per(t.staleness_sum, t.staleness_pushes as f64),
        ),
        ("engine.staleness_max", t.staleness_max as f64),
        (
            "engine.unattributed_share",
            (1.0 - busy_share - barrier_share).max(0.0),
        ),
        ("controller.overhead_us", median(&t.controller_overhead_us)),
        ("controller.switches_per_job", per(t.switches as f64, jobs)),
        ("controller.bsp_step_share", per(t.bsp_steps as f64, steps)),
        ("watchdog.trips_per_job", per(t.watchdog_trips as f64, jobs)),
        ("telemetry.trace_dropped", t.trace_dropped as f64),
        ("setup.job_build_ms", median(&t.setup_ms)),
    ]);
}

/// The `R` rows: medians per call from the replay spans, and the step
/// budget (mean self time per step of every layer).
fn replay_rows(replay: &[Recorder], rows: &mut Rows) {
    let pooled =
        |name: &str| -> Vec<f64> { replay.iter().flat_map(|r| r.durations_us(name)).collect() };
    let steps = pooled("step");
    let n = steps.len().max(1) as f64;
    // `port.sync_us` is the cost of a stage-2 round: only the hook calls
    // during which a round completed count.
    let sync_rounds: Vec<f64> = replay
        .iter()
        .flat_map(|r| r.spans())
        .filter(|s| s.name == "sync" && !s.args.is_empty())
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    let span_s = replay
        .iter()
        .flat_map(|r| r.spans())
        .filter(|s| s.name == "step")
        .fold((u64::MAX, 0), |(lo, hi), s| {
            (lo.min(s.start_ns), hi.max(s.end_ns))
        });
    let loop_s = span_s.1.saturating_sub(span_s.0) as f64 / 1e9;
    let cover: Vec<f64> = replay.iter().flat_map(|r| r.cover_shares("step")).collect();
    rows.extend([
        ("nn.compute_us", median(&pooled("compute"))),
        ("nn.set_params_us", median(&pooled("set_params"))),
        ("nn.sample_batch_us", median(&pooled("sample_batch"))),
        ("port.pull_us", median(&pooled("pull"))),
        ("port.push_us", median(&pooled("push"))),
        ("port.push_shard_us", median(&pooled("push_shard"))),
        ("port.sync_us", median(&sync_rounds)),
        (
            "port.sync_us_per_step",
            pooled("sync").iter().sum::<f64>() / n,
        ),
        ("replay.step_us", median(&steps)),
        (
            "replay.steps_per_s",
            if loop_s > 0.0 {
                steps.len() as f64 / loop_s
            } else {
                0.0
            },
        ),
        ("replay.cover_share", median(&cover)),
    ]);
    let self_us = |names: &[&str]| -> f64 {
        let ns: u64 = replay
            .iter()
            .map(|r| {
                let by_name = r.self_time_ns();
                names
                    .iter()
                    .map(|n| by_name.get(n).copied().unwrap_or(0))
                    .sum::<u64>()
            })
            .sum();
        ns as f64 / 1e3 / n
    };
    rows.extend([
        ("replay.self.pull_us", self_us(&["pull"])),
        ("replay.self.set_params_us", self_us(&["set_params"])),
        ("replay.self.sample_batch_us", self_us(&["sample_batch"])),
        ("replay.self.compute_us", self_us(&["compute"])),
        (
            "replay.self.push_us",
            self_us(&["push", "push_shard", "complete_push"]),
        ),
        ("replay.self.sync_us", self_us(&["sync"])),
        ("replay.self.step_us", self_us(&["step"])),
    ]);
}

/// Writes `content` to `out/<workload>.<suffix>` of the package the binary
/// was built from.
fn write_out(workload: &str, suffix: &str, content: &str) {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("{workload}.{suffix}"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, content)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Checks the rows against the declared metric list, prints the table and
/// the summary, and returns the contract's result object.
fn report(args: &Args, outcome: &Outcome) -> (Value, bool) {
    let declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut violations = outcome.violations.clone();
    let mut metrics = Vec::new();
    eprintln!(
        "# {} seed {} trace {} jobs {} failed {}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        outcome.tally.attempted,
        outcome.tally.failures.len()
    );
    for (name, unit) in declared {
        let found = outcome.rows.iter().find(|r| r.0 == name).map(|r| r.1);
        let value = match found {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                violations.push(format!("metric {name} is {v}"));
                0.0
            }
            None => {
                violations.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        eprintln!("{name:<40} {value:>16.4} {unit}");
        metrics.push((name.to_string(), json!({ "value": value, "unit": unit })));
    }
    for u in &outcome.unresolved {
        eprintln!("UNRESOLVED: {u}");
    }
    for v in &violations {
        eprintln!("CHECK FAILED: {v}");
    }

    let failed = outcome.tally.failures.len() as u64;
    let correct = failed == 0 && violations.is_empty();
    let quartile_rows: Vec<Value> = outcome
        .quartile_rows
        .iter()
        .map(|&(name, q1, med, q3, n, clocked)| {
            eprintln!("{name:<40} q1 {q1:.6} median {med:.6} q3 {q3:.6} over {n} jobs; as clocked {clocked:.6}");
            json!({ "name": name, "q1": q1, "median": med, "q3": q3, "jobs": n as u64, "median_as_clocked": clocked })
        })
        .collect();
    let jobs: Vec<Value> = outcome
        .tally
        .jobs
        .iter()
        .map(|j| {
            json!({
                "seed": j.seed,
                "setup_s": j.stats.setup_s,
                "wall_s": j.stats.wall_s,
                "steps_per_s": j.stats.steps_per_s(),
                "tta_s": j.stats.tta_s,
                "tta_censored": j.stats.censored,
                "test_accuracy": j.stats.accuracy,
                "final_loss": j.stats.final_loss,
                "cpu_ms_per_kstep": j.stats.cpu_ms_per_kstep(),
                "host_speed_index": j.host.speed_index,
                "steal_ticks": j.host.steal_ticks,
            })
        })
        .collect();
    let summary = json!({
        "workload": args.workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "threads": std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        "peak_rss_mb": stats::peak_rss_mb(),
        "jobs_attempted": outcome.tally.attempted,
        "jobs_failed": failed,
        "failures": outcome.tally.failures.clone(),
        "checks_failed": violations,
        "unresolved": outcome.unresolved.clone(),
        "metrics": Value::Object(metrics.clone()),
        "quartiles": quartile_rows,
        "jobs": jobs,
        "claim": null,
    });
    let suffix = if args.trace {
        "traced.summary.json"
    } else {
        "summary.json"
    };
    write_out(
        args.workload.name,
        suffix,
        &serde_json::to_string_pretty(&summary).expect("serialize summary"),
    );
    let result = json!({
        "correct": correct,
        "attempted": outcome.tally.attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    (result, correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        let text = serde_json::to_string_pretty(&metrics::manifest()).expect("serialize manifest");
        println!("{text}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let (result, correct) = report(&args, &outcome);
    println!(
        "{}",
        serde_json::to_string(&result).expect("serialize result")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
