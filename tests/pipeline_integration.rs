//! End-to-end pipeline integration: runs all three methods over a mixed
//! task slice and checks the paper's *orderings* (not absolute numbers):
//! CorrectBench ≥ AutoBench ≥ Baseline on Eval2, and the attribution
//! invariants behind Table III.

use correctbench_suite::autoeval::{evaluate, EvalLevel};
use correctbench_suite::core::{run_method, Config, EvalContext, Method};
use correctbench_suite::llm::{ModelKind, ModelProfile, SimulatedLlm};
use rand::SeedableRng;

const TASKS: [&str; 5] = ["adder_8", "alu_8", "counter_8", "sipo_8", "seq_det_101"];

fn eval2_count(method: Method, seeds: std::ops::Range<u64>) -> usize {
    // A reduced reboot budget keeps debug-mode runtime sane; the ordering
    // under test is budget-independent.
    let cfg = Config {
        max_reboots: 2,
        ..Config::default()
    };
    let ctx = EvalContext::default();
    let mut passed = 0;
    for name in TASKS {
        let problem = correctbench_suite::dataset::problem(name).expect("known problem");
        for seed in seeds.clone() {
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc);
            let out = run_method(method, &problem, &mut llm, &cfg, &mut rng, &ctx);
            if evaluate(&problem, &out.tb, 1, &ctx) >= EvalLevel::Eval2 {
                passed += 1;
            }
        }
    }
    passed
}

#[test]
fn method_ordering_holds() {
    let cb = eval2_count(Method::CorrectBench, 0..2);
    let ab = eval2_count(Method::AutoBench, 0..2);
    let base = eval2_count(Method::Baseline, 0..2);
    assert!(
        cb >= ab,
        "CorrectBench ({cb}) must not lose to AutoBench ({ab})"
    );
    assert!(
        ab >= base,
        "AutoBench ({ab}) must not lose to the baseline ({base})"
    );
    assert!(
        cb > base,
        "CorrectBench ({cb}) must strictly beat the baseline ({base})"
    );
}

#[test]
fn correctbench_outcome_invariants() {
    let cfg = Config::default();
    let ctx = EvalContext::default();
    for name in ["alu_8", "seq_det_101"] {
        let problem = correctbench_suite::dataset::problem(name).expect("known problem");
        for seed in 0..2u64 {
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let out = run_method(
                Method::CorrectBench,
                &problem,
                &mut llm,
                &cfg,
                &mut rng,
                &ctx,
            );
            // The trace always ends with a terminal action, and Pass is
            // reserved for a validated testbench.
            use correctbench_suite::core::Action;
            let last = out.trace.last().copied();
            assert!(matches!(last, Some(Action::Pass | Action::GiveUp)));
            assert_eq!(last == Some(Action::Pass), out.validated);
            assert_eq!(out.gave_up(), !out.validated);
            // Budgets respected.
            assert!(out.corrections <= cfg.max_corrections);
            assert!(out.reboots <= cfg.max_reboots);
            // Tokens were spent.
            assert!(out.tokens.requests >= 3, "{name}/{seed}");
        }
    }
}

#[test]
fn validated_testbenches_usually_pass_eval2() {
    // The validator's acceptance should be a strong signal: among
    // validated outcomes, most pass Eval2 (the paper's 88.85% validation
    // accuracy makes this the expected behaviour).
    let cfg = Config {
        max_reboots: 2,
        ..Config::default()
    };
    let ctx = EvalContext::default();
    let mut validated = 0;
    let mut validated_and_passed = 0;
    for name in TASKS {
        let problem = correctbench_suite::dataset::problem(name).expect("known problem");
        for seed in 10..12u64 {
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let out = run_method(
                Method::CorrectBench,
                &problem,
                &mut llm,
                &cfg,
                &mut rng,
                &ctx,
            );
            if !out.validated {
                continue;
            }
            validated += 1;
            if evaluate(&problem, &out.tb, 1, &ctx) >= EvalLevel::Eval2 {
                validated_and_passed += 1;
            }
        }
    }
    assert!(validated > 0, "nothing validated at all");
    assert!(
        validated_and_passed * 10 >= validated * 6,
        "only {validated_and_passed}/{validated} validated TBs passed Eval2"
    );
}
