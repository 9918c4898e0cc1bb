//! The verdict on a perf change: alternating parent/change benchmark runs,
//! reduced to the table a claim cites.
//!
//! `./ci.sh --pairs <rev>` builds the benchmark (`benchmark/`, declared by
//! `BENCHMARK.json`) at `<rev>` and at the working tree, runs the two
//! binaries alternately — the order flips every pair, so drift on the host
//! lands on both sides — and hands each run's result line to the `pairs`
//! bin, which calls into this module. For every workload and end-to-end
//! metric it reports the parent's median and quartiles, the change's, the
//! change in the median, and in how many pairs the change won; it judges
//! each median against the metric's bound in `BENCHMARK.json`, and calls a
//! metric better only as the repo's claims do: at least 9 wins in 10 with
//! the median beyond the parent's quartiles, neither side's spread wider
//! than the bound.

use serde_json::{json, Value};

/// Which binary a run came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Parent,
    Change,
}

impl Side {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "parent" => Ok(Side::Parent),
            "change" => Ok(Side::Change),
            other => Err(format!("unknown side '{other}'")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Side::Parent => "parent",
            Side::Change => "change",
        }
    }
}

/// One benchmark run: the result object its last stdout line carried, and
/// the summary it wrote (`benchmark/out/<workload>.summary.json`), whose
/// per-job `host_speed_index` and `steal_ticks` say how loaded the host
/// was.
#[derive(Debug, Clone)]
pub struct Run {
    pub side: Side,
    pub workload: String,
    pub result: Value,
    pub summary: Value,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub lower_is_better: bool,
    /// The largest relative worsening of the median that is not a
    /// regression (`0.25` is 25 %).
    pub bound: f64,
}

/// What `BENCHMARK.json` declares that a session needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub metrics: Vec<Metric>,
    /// How long one run measures; both sides run exactly this long.
    pub run_seconds: u64,
}

/// Reads the workloads, the end-to-end metrics and the run length.
pub fn manifest(json: &Value) -> Result<Manifest, String> {
    let list = |key: &str| {
        json.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("manifest has no '{key}' list"))
    };
    let name = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| "manifest entry without a name".to_string())
    };
    let workloads = list("workloads")?
        .iter()
        .map(name)
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: name(m)?,
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: (m.get("bound").and_then(Value::as_f64))
                    .ok_or_else(|| "end-to-end metric without a bound".to_string())?,
            })
        })
        .collect::<Result<_, String>>()?;
    let run_seconds = (json.get("run_seconds").and_then(Value::as_u64))
        .ok_or_else(|| "manifest has no 'run_seconds'".to_string())?;
    Ok(Manifest {
        workloads,
        metrics,
        run_seconds,
    })
}

/// Parses the runs file `./ci.sh --pairs` writes: one run a line, as
/// `side<TAB>workload<TAB>summary path<TAB>result line`, in run order.
/// `read` fetches a summary's text, `None` when there is none.
pub fn parse_runs(text: &str, read: impl Fn(&str) -> Option<String>) -> Result<Vec<Run>, String> {
    let json = |text: &str| serde_json::from_str(text).unwrap_or(Value::Null);
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let cols: Vec<&str> = line.splitn(4, '\t').collect();
            let [side, workload, summary, result] = cols[..] else {
                return Err(format!("malformed run line: {line}"));
            };
            Ok(Run {
                side: Side::parse(side)?,
                workload: workload.to_string(),
                // A run that crashed leaves no result line: it counts as
                // not `correct`.
                result: json(result),
                summary: read(summary).map_or(Value::Null, |text| json(&text)),
            })
        })
        .collect()
}

/// Median and quartiles, linearly interpolated between order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "quartiles of nothing");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// One workload × metric line of the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: Metric,
    /// The per-pair values, pair `i` at index `i` on both sides.
    pub parent: Vec<f64>,
    pub change: Vec<f64>,
}

impl Row {
    pub fn parent_quartiles(&self) -> Quartiles {
        Quartiles::of(&self.parent)
    }

    pub fn change_quartiles(&self) -> Quartiles {
        Quartiles::of(&self.change)
    }

    /// The change in the median, relative to the parent's.
    pub fn delta(&self) -> f64 {
        let (p, c) = (
            self.parent_quartiles().median,
            self.change_quartiles().median,
        );
        (c - p) / p
    }

    /// The change's median worsening as a positive fraction of the
    /// parent's (negative when it improved).
    fn worsening(&self) -> f64 {
        if self.metric.lower_is_better {
            self.delta()
        } else {
            -self.delta()
        }
    }

    /// Pairs in which the change's run was strictly better.
    pub fn wins(&self) -> usize {
        let better = |p: f64, c: f64| {
            if self.metric.lower_is_better {
                c < p
            } else {
                c > p
            }
        };
        (self.parent.iter().zip(&self.change))
            .filter(|&(&p, &c)| better(p, c))
            .count()
    }

    /// Whether the change's median is worse than the parent's by more than
    /// the metric's bound.
    pub fn outside_bound(&self) -> bool {
        self.worsening() > self.metric.bound
    }

    /// Whether either side's interquartile range, relative to its median,
    /// is wider than the metric's bound: the runs then spread too widely to
    /// tell a move inside the bound from noise, unless every change run
    /// reads better than every parent run.
    pub fn unresolved(&self) -> bool {
        let wide = [self.parent_quartiles(), self.change_quartiles()]
            .iter()
            .any(|q| (q.q3 - q.q1) > self.metric.bound * q.median.abs());
        let (p, c) = (&self.parent, &self.change);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let separated = if self.metric.lower_is_better {
            max(c) < min(p)
        } else {
            min(c) > max(p)
        };
        wide && !separated
    }

    /// Whether the change won at least 9 pairs in 10.
    fn wins_nine_in_ten(&self) -> bool {
        10 * self.wins() >= 9 * self.parent.len()
    }

    /// The row's verdict, in words. Only a median beyond the parent's
    /// quartiles that won at least 9 pairs in 10, with neither side's
    /// spread wider than the bound, is "better".
    pub fn verdict(&self) -> &'static str {
        let p = self.parent_quartiles();
        let c = self.change_quartiles().median;
        if self.outside_bound() {
            "**outside bound**"
        } else if self.unresolved() {
            "unresolved, IQR wider than bound"
        } else if (p.q1..=p.q3).contains(&c) {
            "inside parent IQR"
        } else if self.worsening() > 0.0 {
            "worse, within bound"
        } else if self.wins_nine_in_ten() {
            "better, ≥ 9/10 wins, beyond parent IQR"
        } else {
            "better median, < 9/10 wins"
        }
    }
}

/// Everything one `--pairs` session found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub rows: Vec<Row>,
    /// Why the session fails: runs that are not `correct`, failed jobs,
    /// medians outside their bounds, unpaired runs.
    pub failures: Vec<String>,
}

/// Pairs the runs of each workload in `workloads` (the `k`-th parent run
/// with the `k`-th change run) and judges every metric.
pub fn judge(runs: &[Run], workloads: &[String], metrics: &[Metric]) -> Verdict {
    let mut verdict = Verdict::default();
    for workload in workloads {
        let side = |s: Side| -> Vec<&Run> {
            (runs.iter())
                .filter(|r| r.side == s && &r.workload == workload)
                .collect()
        };
        let (parent, change) = (side(Side::Parent), side(Side::Change));
        if parent.is_empty() && change.is_empty() {
            continue;
        }
        if parent.len() != change.len() {
            verdict.failures.push(format!(
                "{workload}: {} parent runs against {} change runs",
                parent.len(),
                change.len()
            ));
            continue;
        }
        for run in parent.iter().chain(&change) {
            let r = &run.result;
            if r.get("correct").and_then(Value::as_bool) != Some(true) {
                verdict.failures.push(format!(
                    "{workload}: a {} run is not correct",
                    run.side.name()
                ));
            }
            if r.get("failed").and_then(Value::as_f64).unwrap_or(0.0) > 0.0 {
                verdict
                    .failures
                    .push(format!("{workload}: a {} run failed jobs", run.side.name()));
            }
        }
        for metric in metrics {
            let values = |runs: &[&Run]| -> Vec<f64> {
                (runs.iter())
                    .map(|r| r.result["metrics"][metric.name.as_str()]["value"].as_f64())
                    .map(|v| v.unwrap_or(f64::NAN))
                    .collect()
            };
            let row = Row {
                workload: workload.clone(),
                metric: metric.clone(),
                parent: values(&parent),
                change: values(&change),
            };
            if row.parent.iter().chain(&row.change).any(|v| v.is_nan()) {
                verdict
                    .failures
                    .push(format!("{workload}: {} missing from a run", metric.name));
                continue;
            }
            if row.outside_bound() {
                verdict.failures.push(format!(
                    "{workload}: {} median {:+.1} % is outside its {:.0} % bound",
                    metric.name,
                    row.delta() * 100.0,
                    metric.bound * 100.0
                ));
            }
            verdict.rows.push(row);
        }
    }
    verdict
}

/// Four significant digits, without an exponent.
fn sig(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (3 - digits).max(0) as usize)
}

/// The verdict as CHANGES.md's Markdown table, then the raw values.
pub fn markdown(verdict: &Verdict, parent: &str, change: &str) -> String {
    let mut out = format!(
        "| workload | metric | parent {parent} median [Q1, Q3] | change {change} median [Q1, Q3] | Δ median | change wins | verdict |\n\
         |---|---|---|---|---|---|---|\n"
    );
    let quart = |q: Quartiles| format!("{} [{}, {}]", sig(q.median), sig(q.q1), sig(q.q3));
    for row in &verdict.rows {
        out += &format!(
            "| `{}` | `{}` | {} | {} | {:+.1} % | {}/{} | {} |\n",
            row.workload,
            row.metric.name,
            quart(row.parent_quartiles()),
            quart(row.change_quartiles()),
            row.delta() * 100.0,
            row.wins(),
            row.parent.len(),
            row.verdict()
        );
    }
    out += "\nPer pair, parent/change:\n\n";
    for row in &verdict.rows {
        let pairs: Vec<String> = (row.parent.iter().zip(&row.change))
            .map(|(p, c)| format!("{}/{}", sig(*p), sig(*c)))
            .collect();
        out += &format!(
            "- `{}` `{}`: {}\n",
            row.workload,
            row.metric.name,
            pairs.join(", ")
        );
    }
    out
}

/// What a session measured, and where and when, for its history rows.
///
/// A side's `sha` is the commit it was built from (`HEAD` for the working
/// tree) and its `code` the git tree id of the benchmark's build inputs in
/// that tree (`./ci.sh`'s `code_tree`). A working tree with edits has its
/// own code id, and the commit that lands those edits has the same one.
#[derive(Debug, Clone)]
pub struct Session {
    pub parent_sha: String,
    pub parent_code: String,
    pub change_sha: String,
    pub change_code: String,
    pub date: String,
    pub nproc: u64,
    pub seed: u64,
    pub seconds: u64,
}

/// The median over every job of one side's runs of a workload of the
/// per-job summary field `key`; `None` when no summary holds one.
fn job_median(runs: &[Run], side: Side, workload: &str, key: &str) -> Option<f64> {
    let values: Vec<f64> = (runs.iter())
        .filter(|r| r.side == side && r.workload == workload)
        .filter_map(|r| r.summary["jobs"].as_array())
        .flatten()
        .filter_map(|job| job[key].as_f64())
        .collect();
    (!values.is_empty()).then(|| Quartiles::of(&values).median)
}

/// One `BENCH_history.jsonl` line per side and workload: the commit, the
/// session, the side's median of every metric, and the host's state over
/// the side's runs — the median per-job `host_speed_index` and
/// `steal_ticks` (`null` where no run left a summary).
pub fn history(verdict: &Verdict, runs: &[Run], session: &Session) -> Vec<String> {
    let mut lines = Vec::new();
    let mut workloads: Vec<&str> = verdict.rows.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    for workload in workloads {
        let rows: Vec<&Row> = (verdict.rows.iter())
            .filter(|r| r.workload == workload)
            .collect();
        for side in [Side::Parent, Side::Change] {
            let medians: Vec<(String, Value)> = (rows.iter())
                .map(|r| {
                    let q = match side {
                        Side::Parent => r.parent_quartiles(),
                        Side::Change => r.change_quartiles(),
                    };
                    (r.metric.name.clone(), json!(q.median))
                })
                .collect();
            let (sha, code) = match side {
                Side::Parent => (&session.parent_sha, &session.parent_code),
                Side::Change => (&session.change_sha, &session.change_code),
            };
            let row = json!({
                "sha": sha,
                "code": code,
                "side": side.name(),
                "date": session.date,
                "nproc": session.nproc,
                "workload": workload,
                "runs": rows[0].parent.len() as u64,
                "seed": session.seed,
                "seconds": session.seconds,
                "medians": Value::Object(medians),
                "host_speed_index": job_median(runs, side, workload, "host_speed_index"),
                "steal_ticks": job_median(runs, side, workload, "steal_ticks"),
            });
            lines.push(serde_json::to_string(&row).expect("serialize history row"));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, lower_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: name.into(),
            lower_is_better,
            bound,
        }
    }

    fn row(m: Metric, parent: &[f64], change: &[f64]) -> Row {
        Row {
            workload: "w".into(),
            metric: m,
            parent: parent.to_vec(),
            change: change.to_vec(),
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        let q = Quartiles::of(&[10.0, 30.0, 20.0, 50.0, 40.0]);
        assert_eq!((q.q1, q.median, q.q3), (20.0, 30.0, 40.0));
        assert_eq!(Quartiles::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn wins_delta_and_verdict_follow_the_metric_direction() {
        let parent = [100.0, 104.0, 98.0, 102.0, 96.0];
        let faster = row(
            metric("steps_per_s", false, 0.25),
            &parent,
            &[120.0, 119.0, 97.0, 125.0, 121.0],
        );
        assert_eq!(faster.wins(), 4);
        assert!((faster.delta() - 0.2).abs() < 1e-12);
        assert!(!faster.outside_bound());
        assert!(!faster.unresolved());
        // 4 wins in 5 is short of 9 in 10, however far the median moved.
        assert_eq!(faster.verdict(), "better median, < 9/10 wins");
        let every_pair = row(
            metric("steps_per_s", false, 0.25),
            &parent,
            &[120.0, 119.0, 105.0, 125.0, 121.0],
        );
        assert_eq!(
            every_pair.verdict(),
            "better, ≥ 9/10 wins, beyond parent IQR"
        );

        // The same numbers for a time: now every rise is a loss, and a
        // 20 % rise sits inside a 25 % bound.
        let slower = row(metric("tta_s", true, 0.25), &parent, &faster.change);
        assert_eq!(slower.wins(), 1);
        assert!(!slower.outside_bound());
        assert_eq!(slower.verdict(), "worse, within bound");

        let flat = row(
            metric("tta_s", true, 0.25),
            &parent,
            &[101.0, 99.0, 100.0, 103.0, 97.0],
        );
        assert_eq!(flat.verdict(), "inside parent IQR");
        // A tie is not a win.
        assert_eq!(row(metric("x", true, 0.1), &[1.0], &[1.0]).wins(), 0);
    }

    #[test]
    fn nine_wins_in_ten_and_a_spread_inside_the_bound_make_a_gain() {
        // Ten 20 s pairs of `bsp_inproc_mlp` `steps_per_s`, 10/10 wins.
        let bsp = row(
            metric("steps_per_s", false, 0.25),
            &[
                121763.0, 124061.0, 120401.0, 119598.0, 123834.0, 119917.0, 121570.0, 126163.0,
                120854.0, 122994.0,
            ],
            &[
                150592.0, 151127.0, 151622.0, 152065.0, 149133.0, 152537.0, 151340.0, 147983.0,
                142453.0, 150415.0,
            ],
        );
        assert_eq!(bsp.wins(), 10);
        assert_eq!(bsp.verdict(), "better, ≥ 9/10 wins, beyond parent IQR");
        // Ten pairs of `switch_chan_conv` `tta_s`: the change median is
        // beyond the parent's quartiles and won 7/10, but three slow change
        // runs spread its IQR over 68 % of its median against a 25 % bound.
        let conv = row(
            metric("tta_s", true, 0.25),
            &[
                0.008089, 0.008218, 0.008232, 0.008526, 0.008285, 0.01082, 0.007909, 0.008119,
                0.008066, 0.007830,
            ],
            &[
                0.007597, 0.007508, 0.02332, 0.02737, 0.007818, 0.01414, 0.007296, 0.007347,
                0.007427, 0.007334,
            ],
        );
        assert_eq!(conv.wins(), 7);
        assert!(conv.unresolved());
        assert!(!conv.outside_bound());
        assert_eq!(conv.verdict(), "unresolved, IQR wider than bound");
        // Either side's spread is enough: the same rows, sides swapped.
        let swapped = row(conv.metric.clone(), &conv.change, &conv.parent);
        assert!(swapped.unresolved());
        // A wide spread is resolved when every change run beats every
        // parent run.
        let apart = row(
            metric("tta_s", true, 0.25),
            &[10.0, 20.0, 30.0],
            &[1.0, 5.0, 9.0],
        );
        assert!(!apart.unresolved());
        assert_eq!(apart.verdict(), "better, ≥ 9/10 wins, beyond parent IQR");
    }

    #[test]
    fn a_median_past_its_bound_fails_the_session() {
        // Accuracy may lose 5 %: 0.94 against 1.0 is 6 %.
        let acc = metric("test_accuracy", false, 0.05);
        assert!(row(acc.clone(), &[1.0, 1.0], &[0.94, 0.94]).outside_bound());
        assert!(!row(acc, &[1.0, 1.0], &[0.96, 0.96]).outside_bound());
        let lower = metric("tta_s", true, 0.25);
        assert!(row(lower.clone(), &[2.0], &[2.6]).outside_bound());
        assert!(!row(lower, &[2.0], &[1.0]).outside_bound());
    }

    #[test]
    fn judge_pairs_runs_and_collects_every_failure() {
        let result = |correct: bool, failed: u64, tta: f64| json!({"correct": correct, "failed": failed, "metrics": {"tta_s": {"value": tta}}});
        let run = |side, result| Run {
            side,
            workload: "w".into(),
            result,
            summary: Value::Null,
        };
        let metrics = [metric("tta_s", true, 0.25)];
        let workloads = ["w".to_string()];
        let runs = vec![
            run(Side::Parent, result(true, 0, 1.0)),
            run(Side::Change, result(true, 0, 0.5)),
            run(Side::Change, result(true, 0, 0.6)),
            run(Side::Parent, result(true, 0, 1.2)),
        ];
        let verdict = judge(&runs, &workloads, &metrics);
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        assert_eq!(verdict.rows[0].parent, [1.0, 1.2]);
        assert_eq!(verdict.rows[0].change, [0.5, 0.6]);
        assert_eq!(verdict.rows[0].wins(), 2);

        let bad = vec![
            run(Side::Parent, result(true, 0, 1.0)),
            run(Side::Change, result(false, 2, 1.5)),
        ];
        let verdict = judge(&bad, &workloads, &metrics);
        assert_eq!(verdict.failures.len(), 3, "{:?}", verdict.failures);

        let unpaired = vec![run(Side::Parent, result(true, 0, 1.0))];
        assert_eq!(judge(&unpaired, &workloads, &metrics).failures.len(), 1);
    }

    #[test]
    fn runs_file_and_manifest_parse() {
        let read = |path: &str| (path == "s.json").then(|| r#"{"jobs": []}"#.to_string());
        let text = "parent\tw\ts.json\t{\"correct\":true}\n\nchange\tw\tgone.json\tnot json\n";
        let runs = parse_runs(text, read).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].result["correct"].as_bool(), Some(true));
        assert!(runs[0].summary["jobs"].as_array().is_some());
        assert!(runs[1].result.is_null() && runs[1].summary.is_null());
        assert!(parse_runs("sideways\tw\ts.json\t{}", read).is_err());
        assert!(parse_runs("parent\tw\t{}", read).is_err());

        let json = json!({
            "workloads": [{"name": "a"}, {"name": "b"}],
            "end_to_end": [{"name": "tta_s", "better": "lower", "bound": 0.25}],
            "run_seconds": 20,
        });
        let m = manifest(&json).unwrap();
        assert_eq!(m.workloads, ["a", "b"]);
        assert_eq!(m.metrics, [metric("tta_s", true, 0.25)]);
        assert_eq!(m.run_seconds, 20);
    }

    #[test]
    fn history_has_one_line_per_side_and_workload() {
        let verdict = Verdict {
            rows: vec![row(metric("tta_s", true, 0.25), &[1.0, 3.0], &[2.0, 2.0])],
            failures: Vec::new(),
        };
        let session = Session {
            parent_sha: "p".into(),
            parent_code: "pt".into(),
            change_sha: "c".into(),
            change_code: "ct".into(),
            date: "d".into(),
            nproc: 2,
            seed: 1,
            seconds: 20,
        };
        // Two parent runs of one and two jobs, and a change run that left
        // no summary.
        let jobs = |host: &[(f64, u64)]| {
            let jobs: Vec<Value> = (host.iter())
                .map(|&(speed, steal)| json!({"host_speed_index": speed, "steal_ticks": steal}))
                .collect();
            json!({ "jobs": jobs })
        };
        let run = |side, summary| Run {
            side,
            workload: "w".into(),
            result: Value::Null,
            summary,
        };
        let runs = [
            run(Side::Parent, jobs(&[(1.0, 0)])),
            run(Side::Parent, jobs(&[(1.2, 4), (3.0, 9)])),
            run(Side::Change, Value::Null),
        ];
        let lines = history(&verdict, &runs, &session);
        assert_eq!(lines.len(), 2);
        let parent: Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(parent["sha"].as_str(), Some("p"));
        assert_eq!(parent["code"].as_str(), Some("pt"));
        assert_eq!(parent["host_speed_index"].as_f64(), Some(1.2));
        assert_eq!(parent["steal_ticks"].as_f64(), Some(4.0));
        let change: Value = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(change["code"].as_str(), Some("ct"));
        assert!(change["host_speed_index"].is_null() && change["steal_ticks"].is_null());
        assert_eq!(parent["medians"]["tta_s"].as_f64(), Some(2.0));
        assert!(markdown(&verdict, "p", "c").contains("| `w` | `tta_s` |"));
    }
}
