//! Declarative run plans and their expansion into job graphs.
//!
//! A [`RunPlan`] names *what* to evaluate — problems × methods × reps
//! under one config and model — without saying how. [`RunPlan::jobs`]
//! expands it into the flat, canonically-ordered job list the scheduler
//! executes; every [`Job`] carries its own derived seed so any worker
//! can run any job and the artifact stream is identical regardless of
//! thread count or execution order.

use correctbench::{Config, Method};
use correctbench_dataset::Problem;
use correctbench_llm::ModelKind;

/// Whether the run records static-analysis diagnostics from
/// `verilog::lint` (`--lint=off|warn`). Findings never block a job.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LintMode {
    /// Skip the lint pass entirely.
    Off,
    /// Lint every job's RTL and record diagnostics in the
    /// `diagnostics.jsonl` sidecar (the default).
    #[default]
    Warn,
}

impl LintMode {
    /// Every mode, in flag order.
    pub const ALL: [LintMode; 2] = [LintMode::Off, LintMode::Warn];

    /// The stable flag/manifest name.
    pub fn name(self) -> &'static str {
        match self {
            LintMode::Off => "off",
            LintMode::Warn => "warn",
        }
    }

    /// The mode with flag name `name`, if any.
    pub fn from_name(name: &str) -> Option<LintMode> {
        LintMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl std::fmt::Display for LintMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative evaluation sweep: the cross product of problems,
/// methods and repetitions under one configuration.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Plan name (stamped into artifacts).
    pub name: String,
    /// Problems to evaluate.
    pub problems: Vec<Problem>,
    /// Methods to compare.
    pub methods: Vec<Method>,
    /// The model profile driving generation.
    pub model: ModelKind,
    /// Repetitions per (problem, method) cell.
    pub reps: u64,
    /// Base seed; every job derives its own seed from it.
    pub base_seed: u64,
    /// Pipeline configuration shared by all jobs.
    pub config: Config,
    /// Per-simulation instruction cap (`--sim-budget`): clamps the step
    /// limit (instructions retired) of every simulation a job runs.
    /// When the cap binds (it is lower than the natural limit) and a
    /// simulation exhausts it, the job aborts with
    /// `sim_budget_exhausted` — deterministically, since the budget is a
    /// pure function of the plan. `None` = natural limits only.
    pub sim_budget: Option<u64>,
    /// Static-analysis mode (`--lint`): whether each job's RTL runs
    /// through `verilog::lint`. The pass is pure, so the
    /// `diagnostics.jsonl` sidecar it feeds is as deterministic as
    /// `outcomes.jsonl`.
    pub lint: LintMode,
    /// Persistent outcome-store attachment (`--store DIR`), recorded in
    /// the manifest so `--resume` reattaches the same store. `None` =
    /// no store. Pure memoization: the store never changes an outcome
    /// byte, so it is deliberately *excluded* from the config
    /// fingerprint.
    pub store: Option<StoreConfig>,
}

/// How a run attaches to a persistent outcome store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Store directory.
    pub dir: String,
    /// `--store-readonly`: consult the store but never publish to it.
    pub readonly: bool,
}

impl RunPlan {
    /// A plan over `problems` with the paper's default configuration.
    pub fn new(name: impl Into<String>, problems: Vec<Problem>) -> Self {
        RunPlan {
            name: name.into(),
            problems,
            methods: Method::ALL.to_vec(),
            model: ModelKind::Gpt4o,
            reps: 1,
            base_seed: 2025,
            config: Config::default(),
            sim_budget: None,
            lint: LintMode::default(),
            store: None,
        }
    }

    /// Number of jobs this plan expands to.
    pub fn num_jobs(&self) -> usize {
        self.problems.len() * self.methods.len() * self.reps as usize
    }

    /// Expands the plan into its canonical job list: problems in plan
    /// order, then methods, then repetitions. Job ids index this list.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.num_jobs());
        for problem in &self.problems {
            for &method in &self.methods {
                for rep in 0..self.reps {
                    jobs.push(Job {
                        id: jobs.len(),
                        problem: problem.clone(),
                        method,
                        model: self.model,
                        rep,
                        seed: mix_seed(self.base_seed, problem.name.as_bytes(), method as u64, rep),
                        // The Eval2 mutant set is shared across methods and
                        // reps (seeded by the problem alone) so comparisons
                        // are apples-to-apples.
                        eval_seed: mix_seed(self.base_seed, problem.name.as_bytes(), 0, 0),
                    });
                }
            }
        }
        jobs
    }
}

/// One schedulable unit: a single (problem, method, repetition) run with
/// every seed it needs already derived.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into the plan's canonical job list.
    pub id: usize,
    /// The task.
    pub problem: Problem,
    /// The generation method.
    pub method: Method,
    /// The model profile (artifact metadata).
    pub model: ModelKind,
    /// Repetition index.
    pub rep: u64,
    /// Seed for this job's client and RNG.
    pub seed: u64,
    /// Seed fixing the AutoEval mutant set (problem-specific).
    pub eval_seed: u64,
}

/// Derives a job seed from the base seed, the problem name and the
/// (method, rep) coordinates — an FNV-style mix, stable across runs.
pub fn mix_seed(base: u64, name: &[u8], a: u64, b: u64) -> u64 {
    let mut h =
        base ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    for &byte in name {
        h = h.wrapping_mul(0x100_0000_01b3) ^ byte as u64;
    }
    h
}

/// The problem set experiments run on: all 156, or a stratified subset
/// that preserves the CMB/SEQ ratio and the difficulty spread.
pub fn problem_subset(n: Option<usize>) -> Vec<Problem> {
    let all = correctbench_dataset::all_problems();
    match n {
        None => all,
        Some(n) if n >= all.len() => all,
        Some(n) => {
            let cmb: Vec<Problem> = all
                .iter()
                .filter(|p| p.kind.is_combinational())
                .cloned()
                .collect();
            let seq: Vec<Problem> = all
                .iter()
                .filter(|p| !p.kind.is_combinational())
                .cloned()
                .collect();
            let n_cmb = (n * cmb.len()).div_ceil(all.len());
            let n_seq = n.saturating_sub(n_cmb);
            let mut out = stratified(&cmb, n_cmb);
            out.extend(stratified(&seq, n_seq));
            out
        }
    }
}

fn stratified(pool: &[Problem], n: usize) -> Vec<Problem> {
    if n == 0 || pool.is_empty() {
        return Vec::new();
    }
    let step = pool.len() as f64 / n.min(pool.len()) as f64;
    (0..n.min(pool.len()))
        .map(|i| pool[(i as f64 * step) as usize].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> RunPlan {
        let problems = ["and_8", "counter_8"]
            .iter()
            .map(|n| correctbench_dataset::problem(n).expect("problem"))
            .collect();
        RunPlan {
            reps: 2,
            ..RunPlan::new("tiny", problems)
        }
    }

    #[test]
    fn expansion_is_canonical_and_complete() {
        let plan = tiny_plan();
        let jobs = plan.jobs();
        assert_eq!(jobs.len(), plan.num_jobs());
        assert_eq!(jobs.len(), 2 * 3 * 2);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, i);
        }
        // Same plan, same jobs (ids, seeds, order).
        let again = plan.jobs();
        let sig = |js: &[Job]| -> Vec<(usize, u64, u64)> {
            js.iter().map(|j| (j.id, j.seed, j.eval_seed)).collect()
        };
        assert_eq!(sig(&jobs), sig(&again));
    }

    #[test]
    fn seeds_separate_cells_but_share_eval_seed() {
        let plan = tiny_plan();
        let jobs = plan.jobs();
        let mut seeds = std::collections::HashSet::new();
        for j in &jobs {
            assert!(seeds.insert(j.seed), "duplicate job seed");
        }
        // All jobs of one problem share the eval seed.
        for p in &plan.problems {
            let evals: std::collections::HashSet<u64> = jobs
                .iter()
                .filter(|j| j.problem.name == p.name)
                .map(|j| j.eval_seed)
                .collect();
            assert_eq!(evals.len(), 1);
        }
    }

    #[test]
    fn subset_preserves_ratio() {
        let set = problem_subset(Some(30));
        assert_eq!(set.len(), 30);
        let cmb = set.iter().filter(|p| p.kind.is_combinational()).count();
        assert!((14..=18).contains(&cmb), "cmb count {cmb}");
        let names: std::collections::HashSet<_> = set.iter().map(|p| &p.name).collect();
        assert_eq!(names.len(), 30, "a problem was picked twice");
        assert_eq!(problem_subset(None).len(), 156);
    }
}
