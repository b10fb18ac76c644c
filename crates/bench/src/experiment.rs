//! The experiment front end: builds declarative plans for the paper's
//! (method × problem × repetition) sweeps, submits them to the parallel
//! harness ([`correctbench_harness::Engine`]), and renders the paper's
//! tables from [`correctbench_harness::summarize`] over each task
//! group's outcomes.

use correctbench::{Config, Method};
use correctbench_autoeval::EvalLevel;
use correctbench_dataset::{CircuitKind, Problem};
use correctbench_harness::{summarize, Engine, RunPlan, RunResult, TaskOutcome};
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
                    let c = summarize(
                        records
                            .iter()
                            .filter(|r| r.method == m && group.contains(r.kind)),
                    );
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
        let runs = |m: Method| {
            records
                .iter()
                .filter(move |r| r.method == m && group.contains(r.kind))
        };
        let cb = summarize(runs(Method::CorrectBench));
        let ab = summarize(runs(Method::AutoBench));
        let reps = cb.reps.max(1) as f64;
        let passed: Vec<&TaskOutcome> = runs(Method::CorrectBench)
            .filter(|r| r.level >= EvalLevel::Eval2)
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
    fn group_filters_feed_summarize() {
        let records = tiny_sweep();
        let cell = |group: Group| {
            summarize(
                records
                    .iter()
                    .filter(|r| r.method == Method::CorrectBench && group.contains(r.kind)),
            )
        };
        let total = cell(Group::Total);
        assert_eq!((total.runs, total.reps), (2, 1));
        assert_eq!(cell(Group::Cmb).runs, 1);
        // at_least is monotone decreasing.
        assert!(total.at_least(0) >= total.at_least(1));
        assert!(total.at_least(1) >= total.at_least(2));
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
