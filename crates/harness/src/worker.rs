//! Job execution: one (problem, method, rep) cell, start to finish.
//!
//! Every job builds its own LLM client and RNG from the job seed (see
//! [`correctbench_llm::ClientFactory`]), runs the method, and evaluates
//! the resulting testbench with AutoEval, all in one [`EvalContext`]:
//! the engine's shared reuse layers plus the plan's simulation budget.
//! Nothing escapes the job except its [`TaskOutcome`] (the layers only
//! memoize pure results), so jobs commute: any worker may run any job in
//! any order and the collected outcomes are identical.

use crate::fault::{FaultKind, FAULT_EXIT_CODE};
use crate::plan::{Job, LintMode, RunPlan};
use correctbench::Method;
use correctbench::{run_method, Action, Config};
use correctbench_autoeval::{evaluate, EvalLevel};
use correctbench_dataset::CircuitKind;
use correctbench_llm::{ClientFactory, ModelKind, TokenUsage};
use correctbench_obs::Counter;
use correctbench_tbgen::{AbortKind, Driver, EvalContext, JobAbort};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::Diagnostic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

/// The structured record a job leaves behind — the unit of the JSONL
/// artifact stream. Everything except [`TaskOutcome::wall`] is a pure
/// function of the job (deterministic across runs and thread counts);
/// wall time is measured and therefore written to the separate timing
/// sidecar, never the deterministic artifact.
#[derive(Clone, Debug)]
pub struct TaskOutcome {
    /// Job id (index into the plan's canonical job list).
    pub job_id: usize,
    /// Problem name.
    pub problem: String,
    /// Combinational or sequential.
    pub kind: CircuitKind,
    /// Generation method.
    pub method: Method,
    /// Model profile.
    pub model: ModelKind,
    /// Repetition index.
    pub rep: u64,
    /// The job's derived seed (artifact reproducibility).
    pub seed: u64,
    /// AutoEval level reached.
    pub level: EvalLevel,
    /// Why the job aborted, when it did not run to completion
    /// ([`run_job_guarded`]'s failure taxonomy). `None` = the job
    /// finished normally (`status: ok` in artifacts); aborted jobs carry
    /// deterministic placeholder values in every pipeline field (level
    /// `Failed`, empty trace, zero tokens).
    pub failure: Option<AbortKind>,
    /// Final validator verdict was "correct" (CorrectBench only).
    pub validated: bool,
    /// The loop exhausted its budgets with a wrong verdict standing.
    pub gave_up: bool,
    /// Correction rounds performed.
    pub corrections: u32,
    /// Reboots performed.
    pub reboots: u32,
    /// The final checker came from the corrector.
    pub final_from_corrector: bool,
    /// The validator rejected at least one candidate.
    pub validator_intervened: bool,
    /// The agent's action trace in order.
    pub trace: Vec<Action>,
    /// Token usage of the run.
    pub tokens: TokenUsage,
    /// Measured wall time of the job (non-deterministic; timing sidecar
    /// only).
    pub wall: Duration,
    /// The job's drained observability measurements (per-phase
    /// self-times and counters) — `None` when no collector was armed
    /// (`--no-obs`, or callers outside the engine). Measured data:
    /// emitted only into `timings.jsonl`/`metrics.json`, never
    /// `outcomes.jsonl`.
    pub obs: Option<correctbench_obs::JobObs>,
    /// Static-analysis diagnostics for the job's RTL (empty under
    /// `--lint=off` or when the source does not parse). Deterministic —
    /// a pure function of the job and the lint mode — but emitted into
    /// the separate `diagnostics.jsonl` sidecar so the `outcomes.jsonl`
    /// schema stays fixed.
    pub lint: Vec<Diagnostic>,
}

/// Lints the job's combined RTL — the golden DUT's parse plus the
/// candidate driver's, as one file — filtering findings the problem's
/// allowlist marks intentional. Findings are recorded, never acted on.
/// `golden` is `None` under `--lint=off`, which skips the pass. A driver
/// that does not parse is skipped too: syntax failures are AutoEval's
/// `Failed` verdict, not lint subjects.
fn lint_pass(job: &Job, golden: Option<&SourceFile>, driver: &Driver) -> Vec<Diagnostic> {
    let Some(golden) = golden else {
        return Vec::new();
    };
    let _span = correctbench_obs::span(correctbench_obs::Phase::Lint);
    let Some(driver) = driver.parsed() else {
        return Vec::new();
    };
    let report = correctbench_verilog::lint_files(&[golden, driver]);
    let diags: Vec<Diagnostic> = report
        .diagnostics
        .into_iter()
        .filter(|d| !job.problem.lint_allowed(d.rule.name(), &d.signal))
        .collect();
    correctbench_obs::add(Counter::LintDiags, diags.len() as u64);
    diags
}

/// Runs the job to its outcome.
fn run_job_inner(
    job: &Job,
    cfg: &Config,
    factory: &dyn ClientFactory,
    lint_mode: LintMode,
    ctx: &EvalContext,
) -> TaskOutcome {
    let t0 = Instant::now();
    // Parsed before generation: a job's parse work then does not depend
    // on how far it gets before a budget abort.
    let golden = (lint_mode == LintMode::Warn)
        .then(|| correctbench_verilog::parse(&job.problem.golden_rtl).ok())
        .flatten();
    let mut llm = factory.client(job.seed);
    let mut rng = StdRng::seed_from_u64(job.seed ^ 0x777);
    let outcome = run_method(job.method, &job.problem, &mut *llm, cfg, &mut rng, ctx);
    let lint = lint_pass(job, golden.as_ref(), &outcome.tb.driver);
    let level = evaluate(&job.problem, &outcome.tb, job.eval_seed, ctx);
    TaskOutcome {
        job_id: job.id,
        problem: job.problem.name.clone(),
        kind: job.problem.kind,
        method: job.method,
        model: job.model,
        rep: job.rep,
        seed: job.seed,
        level,
        failure: None,
        validated: outcome.validated,
        gave_up: outcome.gave_up(),
        corrections: outcome.corrections,
        reboots: outcome.reboots,
        final_from_corrector: outcome.final_from_corrector,
        validator_intervened: outcome.validator_intervened,
        trace: outcome.trace,
        tokens: outcome.tokens,
        wall: t0.elapsed(),
        // Drain (and rearm) the thread's collector while this job's
        // guard is still installed — the snapshot is exactly this job's
        // spans and counters.
        obs: correctbench_obs::take_job(),
        lint,
    }
}

thread_local! {
    /// `true` while this thread is inside a guarded job — the quiet
    /// panic hook's signal that an unwind is about to be absorbed into
    /// a structured outcome and the default backtrace spew would only
    /// corrupt the progress display.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Chains a panic hook that stays silent for panics the job guard will
/// catch (structured [`JobAbort`]s and injected faults included) while
/// leaving every other thread's panics as loud as before.
fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_JOB.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

struct InJobGuard;

impl InJobGuard {
    fn enter() -> InJobGuard {
        IN_JOB.with(|f| f.set(true));
        InJobGuard
    }
}

impl Drop for InJobGuard {
    fn drop(&mut self) {
        IN_JOB.with(|f| f.set(false));
    }
}

/// The deterministic record of a job that did not finish: every
/// pipeline field takes its inert default, so the line depends only on
/// the job and the failure kind — never on how far the job got before
/// dying.
fn aborted_outcome(job: &Job, kind: AbortKind, wall: Duration) -> TaskOutcome {
    correctbench_obs::add(Counter::JobAborts, 1);
    TaskOutcome {
        job_id: job.id,
        problem: job.problem.name.clone(),
        kind: job.problem.kind,
        method: job.method,
        model: job.model,
        rep: job.rep,
        seed: job.seed,
        level: EvalLevel::Failed,
        failure: Some(kind),
        validated: false,
        gave_up: false,
        corrections: 0,
        reboots: 0,
        final_from_corrector: false,
        validator_intervened: false,
        trace: Vec::new(),
        tokens: TokenUsage::default(),
        wall,
        obs: correctbench_obs::take_job(),
        lint: Vec::new(),
    }
}

/// Runs one job of `plan` inside a fault barrier, under the plan's
/// config, simulation budget and lint mode.
///
/// * Any unwind is caught and classified: a typed [`JobAbort`] payload
///   carries its own [`AbortKind`]; anything else is `panic`. Either
///   way the job becomes a deterministic `status: aborted` outcome
///   instead of taking down the worker.
/// * The job runs on a clone of `shared` whose
///   [`EvalContext::sim_budget`] is the plan's `sim_budget`; tbgen
///   clamps every simulation with it and aborts the job when a binding
///   budget is exhausted.
/// * An injected `fault` (test-only) panics, sleeps or exits the
///   process at job start.
/// * Cache hygiene is structural: every reuse layer inserts only after
///   a simulation completes, so an aborted job leaves no trace in the
///   layers it shares through `shared`.
pub fn run_job_guarded(
    job: &Job,
    plan: &RunPlan,
    factory: &dyn ClientFactory,
    shared: &EvalContext,
    fault: Option<FaultKind>,
) -> TaskOutcome {
    install_quiet_panic_hook();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _in_job = InJobGuard::enter();
        let ctx = EvalContext {
            sim_budget: plan.sim_budget,
            ..shared.clone()
        };
        match fault {
            Some(FaultKind::Panic) => panic!("injected fault: panic at job {}", job.id),
            Some(FaultKind::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultKind::Exit) => {
                eprintln!("injected fault: exiting process at job {}", job.id);
                std::process::exit(FAULT_EXIT_CODE);
            }
            None => {}
        }
        run_job_inner(job, &plan.config, factory, plan.lint, &ctx)
    }));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let kind = payload
                .downcast_ref::<JobAbort>()
                .map_or(AbortKind::Panic, |a| a.kind);
            if kind == AbortKind::Panic {
                // Structured aborts are expected and speak through the
                // artifact; a raw panic is a bug worth one stderr line
                // even though the run survives it.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                eprintln!("job {}: aborted by panic: {msg}", job.id);
            }
            aborted_outcome(job, kind, t0.elapsed())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunPlan;
    use correctbench_llm::SimulatedClientFactory;

    #[test]
    fn job_outcome_is_deterministic() {
        let problems = vec![correctbench_dataset::problem("and_8").expect("problem")];
        let plan = RunPlan::new("det", problems);
        let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
        let job = &plan.jobs()[0];
        let a = run_job_guarded(job, &plan, &factory, &EvalContext::default(), None);
        let b = run_job_guarded(job, &plan, &factory, &EvalContext::default(), None);
        assert_eq!(a.level, b.level);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.seed, b.seed);
    }
}
