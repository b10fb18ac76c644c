//! Aggregate summaries of a run's outcome stream.

use crate::plan::RunPlan;
use crate::scheduler::RunResult;
use crate::worker::TaskOutcome;
use correctbench::Method;
use correctbench_autoeval::EvalLevel;
use correctbench_obs::Histogram;
use std::fmt::Write as _;

/// Bytes per mebibyte, for the peak-RSS line.
const MIB: f64 = 1024.0 * 1024.0;

/// Aggregated statistics of one method across a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MethodSummary {
    /// Number of (task, rep) runs.
    pub runs: usize,
    /// Runs whose highest level is Failed / Eval0 / Eval1 / Eval2.
    pub at_level: [usize; 4],
    /// Runs reaching at least Eval0 / Eval1 / Eval2.
    pub at_least: [usize; 3],
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
    /// Pass ratio at `level_idx` (0 ⇒ Eval0 …).
    pub fn ratio(&self, level_idx: usize) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.at_least[level_idx] as f64 / self.runs as f64
        }
    }
}

/// Aggregates `outcomes` for one method.
pub fn summarize(outcomes: &[TaskOutcome], method: Method) -> MethodSummary {
    let selected: Vec<&TaskOutcome> = outcomes.iter().filter(|o| o.method == method).collect();
    let mut s = MethodSummary {
        runs: selected.len(),
        ..MethodSummary::default()
    };
    let mut in_tok = 0u64;
    let mut out_tok = 0u64;
    for o in &selected {
        s.at_level[o.level as usize] += 1;
        for (i, lvl) in [EvalLevel::Eval0, EvalLevel::Eval1, EvalLevel::Eval2]
            .iter()
            .enumerate()
        {
            if o.level >= *lvl {
                s.at_least[i] += 1;
            }
        }
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

/// Groups job wall times into one latency [`Histogram`] per
/// `(problem, method)` cell, in first-appearance order over the
/// canonical job list — the grouping itself is deterministic even
/// though the recorded times are measurements. Shared by the
/// `summary.txt` percentile table and the `metrics.json` artifact.
pub fn latency_groups(outcomes: &[TaskOutcome]) -> Vec<(String, String, Histogram)> {
    let mut groups: Vec<(String, String, Histogram)> = Vec::new();
    for o in outcomes {
        let method = o.method.name().to_string();
        let slot = groups
            .iter()
            .position(|(p, m, _)| *p == o.problem && *m == method);
        let hist = match slot {
            Some(i) => &mut groups[i].2,
            None => {
                groups.push((o.problem.clone(), method, Histogram::new()));
                &mut groups.last_mut().expect("just pushed").2
            }
        };
        hist.record(o.wall.as_nanos() as u64);
    }
    groups
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the per-`(problem, method)` job-latency percentile table
/// (p50/p90/p99/max in milliseconds) that `render_summary` appends.
pub fn render_latency_table(outcomes: &[TaskOutcome]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "job latency percentiles (ms)\n{:<18} {:<13} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "problem", "method", "runs", "p50", "p90", "p99", "max"
    );
    for (problem, method, hist) in latency_groups(outcomes) {
        let _ = writeln!(
            s,
            "{:<18} {:<13} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            problem,
            method,
            hist.count(),
            ns_to_ms(hist.percentile(0.50)),
            ns_to_ms(hist.percentile(0.90)),
            ns_to_ms(hist.percentile(0.99)),
            ns_to_ms(hist.max()),
        );
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
        let m = summarize(&result.outcomes, method);
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
    // Static-analysis rollup: total findings plus per-rule counts in
    // taxonomy order (nonzero rules only — the full zero-filled table
    // lives in metrics.json).
    let lint_total: usize = result.outcomes.iter().map(|o| o.lint.len()).sum();
    let _ = writeln!(s, "lint ({}): {} diagnostics", plan.lint.name(), lint_total);
    for rule in correctbench_verilog::Rule::ALL {
        let n: usize = result
            .outcomes
            .iter()
            .map(|o| o.lint.iter().filter(|d| d.rule == rule).count())
            .sum();
        if n > 0 {
            let _ = writeln!(
                s,
                "  {:<24} {:>6}  ({})",
                rule.name(),
                n,
                rule.severity().name()
            );
        }
    }
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
    s.push_str(&render_latency_table(&result.outcomes));
    s
}
