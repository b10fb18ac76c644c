//! Testbench generators: the AutoBench pipeline and the direct baseline.
//!
//! AutoBench (paper Fig. 2, used as CorrectBench's generator F_g):
//!
//! 1. scenario list from the spec;
//! 2. Verilog driver applying the scenarios;
//! 3. checker (reference model);
//! 4. self-enhancement: syntax auto-debug (bounded repair rounds),
//!    scenario-list checking (regenerate the driver when a scenario's
//!    stanza is missing), and code standardisation.
//!
//! The baseline asks the model for the whole testbench in one shot with
//! no enhancement — the paper's "directly asking LLM" comparator.

use correctbench_dataset::Problem;
use correctbench_llm::{ArtifactKind, HybridTb, LlmClient, LlmRequest, LlmResponse};
use correctbench_tbgen::Driver;
use rand::Rng;

/// Syntax auto-debug rounds per artifact.
const SYNTAX_DEBUG_ROUNDS: u32 = 3;

/// Probability that the scenario-list check notices a scenario missing
/// from the driver (the paper reports the stage exists but not a success
/// rate; this models its imperfection).
const SCENARIO_CHECK_RECALL: f64 = 0.6;

/// Runs the AutoBench generation pipeline once.
///
/// Every driver text the model returns is parsed exactly once, into a
/// [`Driver`]; the syntax checks here and every later consumer of the
/// testbench read that parse.
pub fn generate_autobench(
    problem: &Problem,
    llm: &mut dyn LlmClient,
    rng: &mut impl Rng,
) -> HybridTb {
    let scenarios = match llm.request(&LlmRequest::GenerateScenarios { problem }) {
        LlmResponse::Scenarios(s) => s,
        other => unreachable!("scenario request returned {other:?}"),
    };
    let mut driver = match llm.request(&LlmRequest::GenerateDriver {
        problem,
        scenarios: &scenarios,
    }) {
        LlmResponse::Source(s) => Driver::new(s),
        other => unreachable!("driver request returned {other:?}"),
    };
    let mut checker = match llm.request(&LlmRequest::GenerateChecker { problem }) {
        LlmResponse::Checker(c) => c,
        other => unreachable!("checker request returned {other:?}"),
    };

    // Self-enhancement 1: syntax auto-debug.
    for _ in 0..SYNTAX_DEBUG_ROUNDS {
        if driver.parsed().is_some() {
            break;
        }
        driver = match llm.request(&LlmRequest::FixSyntax {
            problem,
            kind: ArtifactKind::Driver,
            broken_source: driver.text(),
        }) {
            LlmResponse::Source(s) => Driver::new(s),
            other => unreachable!("fix request returned {other:?}"),
        };
    }
    for _ in 0..SYNTAX_DEBUG_ROUNDS {
        if !checker.broken {
            break;
        }
        checker = match llm.request(&LlmRequest::FixBrokenChecker {
            problem,
            artifact: &checker,
        }) {
            LlmResponse::Checker(c) => c,
            other => unreachable!("fix request returned {other:?}"),
        };
    }

    // Self-enhancement 2: scenario-list checking. The check itself is
    // imperfect (a static scan by the LLM); when it notices a missing
    // scenario it regenerates the driver.
    let mut tb = HybridTb {
        scenarios,
        driver,
        checker,
    };
    if tb.driver.parsed().is_some() {
        let covered = tb.driver_scenario_coverage();
        if covered.len() < tb.scenarios.len() && rng.gen_bool(SCENARIO_CHECK_RECALL) {
            if let LlmResponse::Source(s) = llm.request(&LlmRequest::GenerateDriver {
                problem,
                scenarios: &tb.scenarios,
            }) {
                // Keep the regenerated driver only if it is no worse.
                let old = std::mem::replace(&mut tb.driver, Driver::new(s));
                if tb.driver.parsed().is_none()
                    || tb.driver_scenario_coverage().len() < covered.len()
                {
                    tb.driver = old;
                }
            }
        }
    }

    // Self-enhancement 3: code standardisation is a formatting pass in the
    // paper; the simulated artifacts are already canonically formatted, so
    // this stage is a no-op here.
    tb
}

/// Runs the single-shot baseline generation.
pub fn generate_direct(problem: &Problem, llm: &mut dyn LlmClient) -> HybridTb {
    match llm.request(&LlmRequest::GenerateDirectTestbench { problem }) {
        LlmResponse::DirectTestbench {
            scenarios,
            driver,
            checker,
        } => HybridTb {
            scenarios,
            driver: Driver::new(driver),
            checker,
        },
        other => unreachable!("direct request returned {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctbench_llm::{ModelKind, ModelProfile, SimulatedLlm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn autobench_usually_produces_valid_syntax() {
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let mut ok = 0;
        for seed in 0..30 {
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let tb = generate_autobench(&p, &mut llm, &mut rng);
            if tb.is_syntactically_valid() {
                ok += 1;
            }
        }
        // With auto-debug the Eval0 rate should be very high (paper: ~95%).
        assert!(ok >= 26, "only {ok}/30 syntactically valid");
    }

    #[test]
    fn direct_baseline_is_worse_on_syntax() {
        let p = correctbench_dataset::problem("seq_det_1101").expect("problem");
        let mut auto_ok = 0;
        let mut direct_ok = 0;
        for seed in 0..40 {
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            if generate_autobench(&p, &mut llm, &mut rng).is_syntactically_valid() {
                auto_ok += 1;
            }
            let mut llm2 =
                SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed + 1000);
            if generate_direct(&p, &mut llm2).is_syntactically_valid() {
                direct_ok += 1;
            }
        }
        assert!(
            auto_ok > direct_ok,
            "auto-debug must beat direct on syntax ({auto_ok} vs {direct_ok})"
        );
    }
}
