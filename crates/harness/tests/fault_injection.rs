//! Fault isolation and budget enforcement.
//!
//! The robustness contract: a job that panics, exhausts a budget, or
//! fails the lint gate becomes a structured `status: aborted` outcome
//! line — and *nothing else changes*. Every other job's line stays
//! byte-identical across thread counts and cache layers, because
//! aborted jobs never publish into the shared reuse layers.

use correctbench_harness::json::{parse, Value};
use correctbench_harness::{
    outcomes_jsonl, AbortKind, Engine, EvalContext, FaultPlan, LintMode, RunPlan, TaskOutcome,
};
use correctbench_llm::{ModelKind, SimulatedClientFactory};

fn plan() -> RunPlan {
    let problems = ["and_8", "mux4_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    RunPlan::new("faults", problems) // 2 problems x 3 methods = 6 jobs
}

fn run(engine: Engine, plan: &RunPlan) -> Vec<TaskOutcome> {
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    engine.execute(plan, &factory).outcomes
}

fn stream(engine: Engine, plan: &RunPlan) -> String {
    outcomes_jsonl(&run(engine, plan))
}

#[test]
fn panic_fault_leaves_every_other_line_byte_identical() {
    let plan = plan();
    let clean = stream(Engine::new(2), &plan);
    for threads in [2, 4, 8] {
        let faulted = stream(
            Engine::new(threads).with_faults(FaultPlan::parse("panic@2").expect("spec")),
            &plan,
        );
        assert_eq!(clean.lines().count(), faulted.lines().count());
        for (i, (clean_line, faulted_line)) in clean.lines().zip(faulted.lines()).enumerate() {
            if i == 2 {
                let v = parse(faulted_line).expect("aborted line parses");
                assert_eq!(v.get("status").and_then(Value::as_str), Some("aborted"));
                assert_eq!(v.get("failure").and_then(Value::as_str), Some("panic"));
                assert_eq!(v.get("eval").and_then(Value::as_str), Some("Failed"));
                assert_eq!(v.get("requests").and_then(Value::as_u64), Some(0));
            } else {
                assert_eq!(
                    clean_line, faulted_line,
                    "job {i} disturbed by the panic at job 2 ({threads} threads)"
                );
            }
        }
    }
}

#[test]
fn binding_sim_budget_aborts_deterministically_across_threads_and_caches() {
    let mut plan = plan();
    plan.sim_budget = Some(10);
    let baseline = stream(Engine::new(1), &plan);
    let aborted = baseline
        .lines()
        .filter(|l| l.contains("\"failure\":\"sim_budget_exhausted\""))
        .count();
    assert!(aborted > 0, "a 10-event budget must bind:\n{baseline}");
    for engine in [
        Engine::new(4),
        Engine::new(8),
        Engine::new(4).without_cache(),
    ] {
        let other = stream(engine, &plan);
        assert!(
            baseline == other,
            "budget exhaustion is not deterministic:\n--- 1 thread ---\n{baseline}\n--- variant ---\n{other}"
        );
    }
}

#[test]
fn aborted_jobs_never_poison_the_shared_cache_stack() {
    // First pass: every job dies on a binding simulation budget, with
    // every reuse layer (sim cache, golden cache) enabled and shared.
    // Second pass: the *same* layers run the plan cleanly. If any abort
    // had published a poisoned entry — a partial simulation, a
    // half-built golden bundle — the reused layers would diverge from
    // fresh ones.
    let mut starved = plan();
    starved.sim_budget = Some(10);
    let ctx = EvalContext::cached();
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let first = Engine::new(4)
        .with_context(ctx.clone())
        .execute(&starved, &factory);
    assert!(
        first.outcomes.iter().any(|o| o.failure.is_some()),
        "the starvation pass must abort jobs for this test to mean anything"
    );
    let reused = outcomes_jsonl(
        &Engine::new(4)
            .with_context(ctx)
            .execute(&plan(), &factory)
            .outcomes,
    );
    let fresh = stream(Engine::new(4), &plan());
    assert!(
        reused == fresh,
        "shared layers poisoned by aborted jobs:\n--- reused layers ---\n{reused}\n--- fresh layers ---\n{fresh}"
    );
}

/// A plan whose first problem's golden RTL carries a deny-level
/// `multiple-drivers` finding (a second continuous driver on `y`).
fn dirty_plan(lint: LintMode) -> RunPlan {
    let mut plan = plan();
    plan.lint = lint;
    let p = &mut plan.problems[0];
    p.golden_rtl = p
        .golden_rtl
        .replace("endmodule", "assign y = a;\nendmodule");
    plan
}

#[test]
fn lint_gate_aborts_with_lint_rejected_deterministically() {
    // Every job of the dirty problem must abort with the structured
    // `lint_rejected` kind — carrying the findings that condemned it —
    // while the clean problem's jobs stay untouched; and the whole
    // stream must be byte-identical across thread counts and caches.
    let plan = dirty_plan(LintMode::Gate);
    let outcomes = run(Engine::new(2), &plan);
    let dirty_name = &plan.problems[0].name;
    for o in &outcomes {
        if &o.problem == dirty_name {
            assert_eq!(o.failure, Some(AbortKind::LintRejected), "job {}", o.job_id);
            assert!(
                o.lint.iter().any(|d| d.rule.name() == "multiple-drivers"),
                "job {}: gate abort lost its findings: {:?}",
                o.job_id,
                o.lint
            );
        } else {
            assert!(
                o.failure.is_none(),
                "clean problem disturbed: job {}",
                o.job_id
            );
        }
    }
    let baseline = outcomes_jsonl(&outcomes);
    for engine in [
        Engine::new(4),
        Engine::new(8),
        Engine::new(4).without_cache(),
    ] {
        let other = stream(engine, &plan);
        assert!(
            baseline == other,
            "gate aborts are not deterministic:\n--- 2 threads ---\n{baseline}\n--- variant ---\n{other}"
        );
    }
}

#[test]
fn lint_warn_records_findings_without_aborting() {
    // A warning-level defect (a driven-but-never-read scratch wire):
    // warn mode records it on every job and aborts none.
    let mut plan = plan();
    plan.lint = LintMode::Warn;
    let p = &mut plan.problems[0];
    p.golden_rtl = p.golden_rtl.replace(
        "endmodule",
        "wire [7:0] scratch;\nassign scratch = a;\nendmodule",
    );
    let outcomes = run(Engine::new(2), &plan);
    assert!(
        outcomes.iter().all(|o| o.failure.is_none()),
        "warn mode must never abort: {:?}",
        outcomes.iter().map(|o| o.failure).collect::<Vec<_>>()
    );
    let dirty_name = &plan.problems[0].name;
    for o in outcomes.iter().filter(|o| &o.problem == dirty_name) {
        assert!(
            o.lint
                .iter()
                .any(|d| d.rule.name() == "unused-signal" && d.signal == "scratch"),
            "job {}: warn mode lost the finding: {:?}",
            o.job_id,
            o.lint
        );
    }
}

#[test]
fn lint_gate_aborts_never_poison_the_shared_cache_stack() {
    // Same shape as the budget-starvation poison test: a gate pass that
    // rejects every job of the dirty problem shares its layers with a
    // later clean pass. The aborted jobs must leave nothing behind —
    // not even lint-report entries keyed on fingerprints the clean pass
    // will also compute.
    let ctx = EvalContext::cached();
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let first = Engine::new(4)
        .with_context(ctx.clone())
        .execute(&dirty_plan(LintMode::Gate), &factory);
    assert!(
        first
            .outcomes
            .iter()
            .any(|o| o.failure == Some(AbortKind::LintRejected)),
        "the gate pass must reject jobs for this test to mean anything"
    );
    let reused = outcomes_jsonl(
        &Engine::new(4)
            .with_context(ctx)
            .execute(&plan(), &factory)
            .outcomes,
    );
    let fresh = stream(Engine::new(4), &plan());
    assert!(
        reused == fresh,
        "shared layers poisoned by lint-gate aborts:\n--- reused layers ---\n{reused}\n--- fresh layers ---\n{fresh}"
    );
}

#[test]
fn aborted_outcomes_round_trip_through_the_journal_codec() {
    use correctbench_harness::{outcome_json, parse_outcome_line};
    // A binding budget aborts every job that simulates; the injected
    // panic aborts job 0 first, so two failure names cross the codec.
    let mut plan = plan();
    plan.sim_budget = Some(10);
    let outcomes = run(
        Engine::new(2).with_faults(FaultPlan::parse("panic@0").expect("spec")),
        &plan,
    );
    for kind in [AbortKind::Panic, AbortKind::SimBudgetExhausted] {
        assert!(
            outcomes.iter().any(|o| o.failure == Some(kind)),
            "no {kind} outcome to round-trip"
        );
    }
    for o in &outcomes {
        let line = outcome_json(o);
        let back = parse_outcome_line(&line).expect("line parses back");
        assert_eq!(outcome_json(&back), line, "codec not a round trip");
        assert_eq!(back.failure, o.failure);
        assert_eq!(back.seed, o.seed, "seed must round-trip all 64 bits");
    }
}
