//! The experiment front end: builds declarative plans for the paper's
//! (method × problem × repetition) sweeps, submits them to the parallel
//! harness ([`correctbench_harness::Engine`]), and aggregates the
//! outcomes into the paper's tables and figures.

use correctbench::{Config, Method};
use correctbench_autoeval::EvalLevel;
use correctbench_dataset::{CircuitKind, Problem};
use correctbench_harness::{Engine, RunPlan, RunResult, TaskOutcome};
use correctbench_llm::{ModelKind, SimulatedClientFactory};

/// Builds the declarative plan of a sweep over problems × methods ×
/// repetitions.
pub fn sweep_plan(
    name: &str,
    problems: &[Problem],
    methods: &[Method],
    model: ModelKind,
    reps: u64,
    cfg: &Config,
    base_seed: u64,
) -> RunPlan {
    let mut plan = RunPlan::new(name, problems.to_vec());
    plan.methods = methods.to_vec();
    plan.model = model;
    plan.reps = reps;
    plan.base_seed = base_seed;
    plan.config = cfg.clone();
    plan
}

/// Executes a plan on the parallel harness (shared simulation cache,
/// per-job clients) and returns its result: the outcomes in canonical
/// job order, and what artifact writing needs.
pub fn run_plan(plan: &RunPlan, threads: usize) -> RunResult {
    let engine = Engine::new(threads).with_progress(true);
    let factory = SimulatedClientFactory::for_model(plan.model);
    engine.execute(plan, &factory)
}

/// Runs a sweep over problems × methods × repetitions on the parallel
/// harness, reporting simulation-cache effectiveness on stderr.
pub fn run_sweep(
    problems: &[Problem],
    methods: &[Method],
    model: ModelKind,
    reps: u64,
    cfg: &Config,
    base_seed: u64,
    threads: usize,
) -> Vec<TaskOutcome> {
    let plan = sweep_plan(
        "bench-sweep",
        problems,
        methods,
        model,
        reps,
        cfg,
        base_seed,
    );
    let result = run_plan(&plan, threads);
    let layers: Vec<String> = result
        .caches
        .layers()
        .iter()
        .filter_map(|(label, stats)| stats.map(|s| format!("{label}: {s}")))
        .collect();
    if !layers.is_empty() {
        eprintln!(
            "sweep: {} jobs in {:?}; {}",
            result.outcomes.len(),
            result.wall,
            layers.join("; ")
        );
    }
    result.outcomes
}

/// Task-group filter used by the paper's tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    /// All 156 tasks.
    Total,
    /// The 81 combinational tasks.
    Cmb,
    /// The 75 sequential tasks.
    Seq,
}

impl Group {
    /// Row order of Table I.
    pub const ALL: [Group; 3] = [Group::Total, Group::Cmb, Group::Seq];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Group::Total => "Total",
            Group::Cmb => "CMB",
            Group::Seq => "SEQ",
        }
    }

    /// Whether `kind` belongs to the group.
    pub fn contains(self, kind: CircuitKind) -> bool {
        match self {
            Group::Total => true,
            Group::Cmb => kind == CircuitKind::Combinational,
            Group::Seq => kind == CircuitKind::Sequential,
        }
    }
}

/// Aggregated statistics of one (group, method) cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellStats {
    /// Number of (task, rep) runs in the cell.
    pub runs: usize,
    /// Number of distinct tasks.
    pub tasks: usize,
    /// Repetitions.
    pub reps: u64,
    /// Runs reaching at least Eval0 / Eval1 / Eval2.
    pub at_least: [usize; 3],
    /// Mean input/output tokens per run.
    pub mean_input_tokens: f64,
    /// Mean output tokens per run.
    pub mean_output_tokens: f64,
}

impl CellStats {
    /// Pass ratio at a level (`0` ⇒ Eval0 …).
    pub fn ratio(&self, level_idx: usize) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.at_least[level_idx] as f64 / self.runs as f64
        }
    }

    /// Average number of passing tasks per repetition (the paper's
    /// "#Tasks" columns).
    pub fn avg_tasks(&self, level_idx: usize) -> f64 {
        if self.reps == 0 {
            0.0
        } else {
            self.at_least[level_idx] as f64 / self.reps as f64
        }
    }
}

/// Aggregates outcomes into a (group, method) cell.
pub fn aggregate(records: &[TaskOutcome], group: Group, method: Method) -> CellStats {
    let selected: Vec<&TaskOutcome> = records
        .iter()
        .filter(|r| r.method == method && group.contains(r.kind))
        .collect();
    let mut stats = CellStats {
        runs: selected.len(),
        ..CellStats::default()
    };
    let mut names = std::collections::HashSet::new();
    let mut max_rep = 0;
    let mut in_tok = 0u64;
    let mut out_tok = 0u64;
    for r in &selected {
        names.insert(&r.problem);
        max_rep = max_rep.max(r.rep + 1);
        in_tok += r.tokens.input_tokens;
        out_tok += r.tokens.output_tokens;
        for (i, lvl) in [EvalLevel::Eval0, EvalLevel::Eval1, EvalLevel::Eval2]
            .iter()
            .enumerate()
        {
            if r.level >= *lvl {
                stats.at_least[i] += 1;
            }
        }
    }
    stats.tasks = names.len();
    stats.reps = max_rep;
    if stats.runs > 0 {
        stats.mean_input_tokens = in_tok as f64 / stats.runs as f64;
        stats.mean_output_tokens = out_tok as f64 / stats.runs as f64;
    }
    stats
}

/// Renders Table I from a sweep's outcomes.
pub fn render_table1(records: &[TaskOutcome]) -> String {
    let mut s = String::new();
    s.push_str("TABLE I: MAIN RESULTS (reproduction)\n");
    s.push_str("Group  Metric  CorrectBench        AutoBench           Baseline\n");
    for group in Group::ALL {
        for (i, metric) in ["Eval2", "Eval1", "Eval0"].iter().enumerate() {
            let idx = 2 - i;
            let cells: Vec<String> = Method::ALL
                .iter()
                .map(|&m| {
                    let c = aggregate(records, group, m);
                    format!("{:6.2}% ({:6.1})", c.ratio(idx) * 100.0, c.avg_tasks(idx))
                })
                .collect();
            s.push_str(&format!(
                "{:<6} {:<7} {}\n",
                group.name(),
                metric,
                cells.join("  ")
            ));
        }
    }
    s
}

/// Table III: contributions of validator and corrector.
pub fn render_table3(records: &[TaskOutcome]) -> String {
    let mut s = String::new();
    s.push_str("TABLE III: CONTRIBUTIONS OF VALIDATOR AND CORRECTOR (avg Eval2-passed tasks per repetition)\n");
    s.push_str("Group  CorrectBench  AutoBench  Gain   Val.   Corr.\n");
    for group in Group::ALL {
        let cb = aggregate(records, group, Method::CorrectBench);
        let ab = aggregate(records, group, Method::AutoBench);
        let reps = cb.reps.max(1) as f64;
        let passed: Vec<&TaskOutcome> = records
            .iter()
            .filter(|r| {
                r.method == Method::CorrectBench
                    && group.contains(r.kind)
                    && r.level >= EvalLevel::Eval2
            })
            .collect();
        let val = passed.iter().filter(|r| r.validator_intervened).count() as f64 / reps;
        let corr = passed.iter().filter(|r| r.final_from_corrector).count() as f64 / reps;
        s.push_str(&format!(
            "{:<6} {:<13.1} {:<10.1} {:<6.1} {:<6.1} {:<6.1}\n",
            group.name(),
            cb.avg_tasks(2),
            ab.avg_tasks(2),
            cb.avg_tasks(2) - ab.avg_tasks(2),
            val,
            corr
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> Vec<TaskOutcome> {
        let problems: Vec<Problem> = ["and_8", "counter_8"]
            .iter()
            .map(|n| correctbench_dataset::problem(n).expect("problem"))
            .collect();
        run_sweep(
            &problems,
            &Method::ALL,
            ModelKind::Gpt4o,
            1,
            &Config::default(),
            99,
            2,
        )
    }

    #[test]
    fn sweep_covers_all_cells() {
        let records = tiny_sweep();
        assert_eq!(records.len(), 2 * 3);
        for m in Method::ALL {
            assert!(records.iter().any(|r| r.method == m));
        }
    }

    #[test]
    fn sweep_deterministic() {
        let a = tiny_sweep();
        let b = tiny_sweep();
        let la: Vec<_> = a
            .iter()
            .map(|r| (r.problem.clone(), r.method, r.level))
            .collect();
        let lb: Vec<_> = b
            .iter()
            .map(|r| (r.problem.clone(), r.method, r.level))
            .collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn aggregation_counts() {
        let records = tiny_sweep();
        let total = aggregate(&records, Group::Total, Method::CorrectBench);
        assert_eq!(total.runs, 2);
        assert_eq!(total.tasks, 2);
        let cmb = aggregate(&records, Group::Cmb, Method::CorrectBench);
        assert_eq!(cmb.runs, 1);
        // at_least is monotone decreasing.
        assert!(total.at_least[0] >= total.at_least[1]);
        assert!(total.at_least[1] >= total.at_least[2]);
    }

    #[test]
    fn tables_render() {
        let records = tiny_sweep();
        let t1 = render_table1(&records);
        assert!(t1.contains("CorrectBench"));
        assert!(t1.contains("SEQ"));
        let t3 = render_table3(&records);
        assert!(t3.contains("Gain"));
    }
}
