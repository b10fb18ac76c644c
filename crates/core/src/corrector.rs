//! The two-stage LLM corrector (paper Section III-C).
//!
//! Stage 1 walks the model through *why / where / how* over the
//! validator's bug information; stage 2 asks for the corrected checker
//! code in a fixed format. Only the checker track is corrected — in
//! AutoBench the reference-model track is where functional testbench
//! bugs live.

use correctbench_dataset::Problem;
use correctbench_llm::{BugReport, HybridTb, LlmClient, LlmRequest, LlmResponse};

/// Runs one correction round, returning the corrected testbench. The
/// driver is carried over unchanged, parse included.
pub fn correct(
    problem: &Problem,
    tb: &HybridTb,
    report: &BugReport,
    llm: &mut dyn LlmClient,
) -> HybridTb {
    // Stage 1: heuristic chain-of-thought reasoning.
    let reasoning = match llm.request(&LlmRequest::ReasonAboutBugs {
        problem,
        checker: &tb.checker,
        report,
    }) {
        LlmResponse::Reasoning(t) => t,
        other => unreachable!("reasoning request returned {other:?}"),
    };

    // Stage 2: corrected checker in the fixed output format.
    let checker = match llm.request(&LlmRequest::CorrectChecker {
        problem,
        checker: &tb.checker,
        report,
        reasoning: &reasoning,
    }) {
        LlmResponse::Checker(c) => c,
        other => unreachable!("correction request returned {other:?}"),
    };

    HybridTb {
        scenarios: tb.scenarios.clone(),
        driver: tb.driver.clone(),
        checker,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctbench_checker::compile_module;
    use correctbench_llm::{CheckerArtifact, ModelKind, ModelProfile, SimulatedLlm};
    use correctbench_tbgen::{generate_driver, generate_scenarios, Driver};
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn correction_reduces_defects_on_average() {
        let p = correctbench_dataset::problem("alu_8").expect("problem");
        let scenarios = generate_scenarios(&p, 31);
        let driver = Driver::new(generate_driver(&p, &scenarios));
        let golden = compile_module(&p.golden_module()).expect("checker");

        let mut before = 0usize;
        let mut after = 0usize;
        for seed in 0..30u64 {
            let mut program = golden.clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let defects = correctbench_checker::mutate_ir(&mut program, &mut rng, 2)
                .into_iter()
                .map(|mutation| correctbench_llm::Defect {
                    mutation,
                    fixable: true,
                })
                .collect();
            let tb = HybridTb {
                scenarios: scenarios.clone(),
                driver: driver.clone(),
                checker: CheckerArtifact {
                    program,
                    defects,
                    broken: false,
                },
            };
            let report = BugReport {
                wrong: vec![1, 2],
                correct: vec![3],
                uncertain: vec![],
            };
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let fixed = correct(&p, &tb, &report, &mut llm);
            before += tb.checker.defects.len();
            after += fixed.checker.defects.len();
            // Two requests per round: reasoning + correction.
            assert_eq!(llm.usage().requests, 2);
        }
        assert!(
            after * 3 < before * 2,
            "correction should clear a substantial defect fraction ({after} of {before} left)"
        );
    }

    #[test]
    fn corrected_testbench_shares_the_driver_parse() {
        // Only the checker is rewritten: the driver travels on with the
        // parse it already carries, so later validation rounds never
        // re-parse it.
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let scenarios = generate_scenarios(&p, 5);
        let tb = HybridTb {
            driver: Driver::new(generate_driver(&p, &scenarios)),
            scenarios,
            checker: CheckerArtifact::clean(compile_module(&p.golden_module()).expect("checker")),
        };
        let report = BugReport {
            wrong: vec![1],
            correct: vec![],
            uncertain: vec![],
        };
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 3);
        let fixed = correct(&p, &tb, &report, &mut llm);
        assert_eq!(fixed.driver.text(), tb.driver.text());
        assert!(Arc::ptr_eq(
            fixed.driver.parsed().expect("corrected driver parses"),
            tb.driver.parsed().expect("driver parses"),
        ));
    }
}
