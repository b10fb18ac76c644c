//! The reductions of a run's outcomes and the tables that render them:
//! [`summarize`] per method (the paper's tables filter by task group
//! first), and the `metrics.json` rows [`latency_rows`] and
//! [`lint_counts`], which `summary.txt` and `correctbench-report` render
//! through [`render_latency_table`] and [`render_lint_rules`].

use crate::plan::RunPlan;
use crate::scheduler::RunResult;
use crate::worker::TaskOutcome;
use correctbench::Method;
use correctbench_verilog::Rule;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Bytes per mebibyte, for the peak-RSS line.
const MIB: f64 = 1024.0 * 1024.0;

/// Aggregated statistics of a set of runs: one method's, or one
/// method's within a task group.
#[derive(Clone, Copy, Debug, Default)]
pub struct MethodSummary {
    /// Number of (task, rep) runs.
    pub runs: usize,
    /// Repetitions: one more than the highest `rep` among the runs (0
    /// when there are none).
    pub reps: u64,
    /// Runs whose highest level is Failed / Eval0 / Eval1 / Eval2.
    pub at_level: [usize; 4],
    /// Validated (CorrectBench) runs.
    pub validated: usize,
    /// Budget-exhausted (gave-up) runs.
    pub gave_up: usize,
    /// Mean input tokens per run.
    pub mean_input_tokens: f64,
    /// Mean output tokens per run.
    pub mean_output_tokens: f64,
}

impl MethodSummary {
    /// Runs reaching at least `level_idx` (0 ⇒ Eval0 …).
    pub fn at_least(&self, level_idx: usize) -> usize {
        self.at_level[level_idx + 1..].iter().sum()
    }

    /// Pass ratio at `level_idx` (0 ⇒ Eval0 …).
    pub fn ratio(&self, level_idx: usize) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.at_least(level_idx) as f64 / self.runs as f64
        }
    }

    /// Average number of runs passing `level_idx` per repetition (the
    /// paper's "#Tasks" columns).
    pub fn avg_tasks(&self, level_idx: usize) -> f64 {
        if self.reps == 0 {
            0.0
        } else {
            self.at_least(level_idx) as f64 / self.reps as f64
        }
    }
}

/// Aggregates `outcomes`, which the caller has already filtered to the
/// runs it summarizes.
pub fn summarize<'a>(outcomes: impl IntoIterator<Item = &'a TaskOutcome>) -> MethodSummary {
    let mut s = MethodSummary::default();
    let mut in_tok = 0u64;
    let mut out_tok = 0u64;
    for o in outcomes {
        s.runs += 1;
        s.reps = s.reps.max(o.rep + 1);
        s.at_level[o.level as usize] += 1;
        s.validated += o.validated as usize;
        s.gave_up += o.gave_up as usize;
        in_tok += o.tokens.input_tokens;
        out_tok += o.tokens.output_tokens;
    }
    if s.runs > 0 {
        s.mean_input_tokens = in_tok as f64 / s.runs as f64;
        s.mean_output_tokens = out_tok as f64 / s.runs as f64;
    }
    s
}

/// One `(problem, method)` group's job latency, in microseconds: a row
/// of `metrics.json`'s `latency` array and of the latency table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyRow {
    /// The problem.
    pub problem: String,
    /// The method's name.
    pub method: String,
    /// Jobs in the group.
    pub count: u64,
    /// Median job wall.
    pub p50_us: u64,
    /// 90th-percentile job wall.
    pub p90_us: u64,
    /// 99th-percentile job wall.
    pub p99_us: u64,
    /// Longest job wall.
    pub max_us: u64,
    /// Mean job wall, rounded.
    pub mean_us: u64,
}

/// The latency rows of `outcomes`, one per `(problem, method)` group in
/// first-appearance order over the canonical job list (deterministic
/// structure, measured values), with exact nearest-rank percentiles.
pub fn latency_rows(outcomes: &[TaskOutcome]) -> Vec<LatencyRow> {
    let mut slot: HashMap<(&str, Method), usize> = HashMap::new();
    let mut groups: Vec<(&TaskOutcome, Vec<u64>)> = Vec::new();
    for o in outcomes {
        let i = *slot.entry((&o.problem, o.method)).or_insert_with(|| {
            groups.push((o, Vec::new()));
            groups.len() - 1
        });
        groups[i].1.push(o.wall.as_nanos() as u64);
    }
    groups
        .into_iter()
        .map(|(first, mut walls)| {
            walls.sort_unstable();
            let n = walls.len();
            LatencyRow {
                problem: first.problem.clone(),
                method: first.method.name().to_string(),
                count: n as u64,
                p50_us: nearest_rank_us(&walls, 50),
                p90_us: nearest_rank_us(&walls, 90),
                p99_us: nearest_rank_us(&walls, 99),
                max_us: walls[n - 1] / 1_000,
                mean_us: (walls.iter().sum::<u64>() as f64 / n as f64 / 1_000.0).round() as u64,
            }
        })
        .collect()
}

/// The `pct`-th percentile of the sorted nanosecond `walls`, in
/// microseconds: the ⌈pct·n/100⌉-th smallest, at least the first.
fn nearest_rank_us(walls: &[u64], pct: usize) -> u64 {
    walls[(pct * walls.len()).div_ceil(100).max(1) - 1] / 1_000
}

/// Renders the job-latency percentile table (p50/p90/p99/max in
/// milliseconds).
pub fn render_latency_table(rows: &[LatencyRow]) -> String {
    let ms = |us: u64| us as f64 / 1e3;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "job latency percentiles (ms)\n{:<18} {:<13} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "problem", "method", "runs", "p50", "p90", "p99", "max"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<18} {:<13} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            r.problem,
            r.method,
            r.count,
            ms(r.p50_us),
            ms(r.p90_us),
            ms(r.p99_us),
            ms(r.max_us),
        );
    }
    s
}

/// Static-analysis findings per rule over `outcomes`, in [`Rule::ALL`]
/// order; the total is their sum.
pub fn lint_counts(outcomes: &[TaskOutcome]) -> [usize; Rule::ALL.len()] {
    let mut counts = [0; Rule::ALL.len()];
    for d in outcomes.iter().flat_map(|o| &o.lint) {
        counts[d.rule.index()] += 1;
    }
    counts
}

/// Renders one line per rule with findings, in taxonomy order, with its
/// severity (the zero-filled table lives in `metrics.json`).
pub fn render_lint_rules(counts: &[usize; Rule::ALL.len()]) -> String {
    let mut s = String::new();
    for (rule, n) in Rule::ALL.iter().zip(counts) {
        if *n > 0 {
            let _ = writeln!(
                s,
                "  {:<24} {:>6}  ({})",
                rule.name(),
                n,
                rule.severity().name()
            );
        }
    }
    s
}

/// Renders the run summary: per-method evaluation table, token costs,
/// and the engine's wall-clock / cache measurements.
pub fn render_summary(plan: &RunPlan, result: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "plan `{}`: {} problems x {} methods x {} reps = {} jobs ({} model, seed {})",
        plan.name,
        plan.problems.len(),
        plan.methods.len(),
        plan.reps,
        plan.num_jobs(),
        plan.model,
        plan.base_seed,
    );
    let _ = writeln!(
        s,
        "method         runs  Eval2%   Eval1%   Eval0%   validated  gave-up  in-tok/run  out-tok/run"
    );
    for &method in &plan.methods {
        let m = summarize(result.outcomes.iter().filter(|o| o.method == method));
        let _ = writeln!(
            s,
            "{:<13} {:>5}  {:>6.2}%  {:>6.2}%  {:>6.2}%  {:>9}  {:>7}  {:>10.1}  {:>11.1}",
            method.name(),
            m.runs,
            m.ratio(2) * 100.0,
            m.ratio(1) * 100.0,
            m.ratio(0) * 100.0,
            m.validated,
            m.gave_up,
            m.mean_input_tokens,
            m.mean_output_tokens,
        );
    }
    let _ = writeln!(s, "wall: {:?} on {} threads", result.wall, result.threads);
    match result.peak_rss_bytes {
        Some(bytes) => {
            let _ = writeln!(s, "peak RSS: {:.1} MiB", bytes as f64 / MIB);
        }
        None => {
            let _ = writeln!(s, "peak RSS: unavailable");
        }
    }
    let lint = lint_counts(&result.outcomes);
    let _ = writeln!(
        s,
        "lint ({}): {} diagnostics",
        plan.lint.name(),
        lint.iter().sum::<usize>()
    );
    s.push_str(&render_lint_rules(&lint));
    // One line per stack layer, in the canonical StackStats order —
    // summary.txt and timings.jsonl share the same layer enumeration.
    for (label, stats) in result.caches.layers() {
        match stats {
            Some(stats) => {
                let _ = writeln!(s, "{label}: {stats}");
            }
            None => {
                let _ = writeln!(s, "{label}: disabled");
            }
        }
    }
    // The persistent store is the one reuse layer that outlives the
    // process; it reports after the in-memory stack.
    match result.store {
        Some(stats) => {
            let _ = writeln!(s, "outcome store: {stats}");
        }
        None => {
            let _ = writeln!(s, "outcome store: off");
        }
    }
    s.push_str(&render_latency_table(&latency_rows(&result.outcomes)));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_ranks() {
        // The ⌈q·n⌉-th smallest: of ten walls, p50 is the 5th, p90 the
        // 9th and p99 the 10th; one wall is every percentile.
        let walls: Vec<u64> = (1..=10).map(|ms| ms * 1_000_000).collect();
        let ranks = [50, 90, 99].map(|pct| nearest_rank_us(&walls, pct));
        assert_eq!(ranks, [5_000, 9_000, 10_000]);
        assert_eq!(nearest_rank_us(&[7_999], 99), 7);
    }
}
