//! The LLM client abstraction.
//!
//! The pipeline talks to a model exclusively through [`LlmClient`], with
//! typed requests mirroring the paper's prompt stages (scenario list,
//! driver, checker, imperfect RTL for the validator, syntax repair, the
//! two-stage corrector, and the single-shot baseline). A production
//! implementation would render these into prompts for a real API; the
//! offline reproduction uses [`crate::SimulatedLlm`].

use crate::tokens::TokenUsage;
use correctbench_checker::{CheckerProgram, IrMutation};
use correctbench_dataset::Problem;
use correctbench_tbgen::{Driver, ScenarioSet};

/// What kind of artifact a syntax-repair request concerns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArtifactKind {
    /// A generated RTL design.
    Rtl,
    /// A generated Verilog driver.
    Driver,
    /// A generated checker.
    Checker,
}

/// One injected defect with its repairability.
///
/// `fixable: false` models a *systematic misunderstanding*: the model
/// keeps re-deriving the same wrong logic no matter how precisely the
/// bug report points at it, so correction rounds never remove it.
#[derive(Clone, Debug)]
pub struct Defect {
    /// The revertible IR change.
    pub mutation: IrMutation,
    /// Whether the corrector can in principle remove it.
    pub fixable: bool,
}

/// A generated checker artifact.
///
/// `defects` is generation *provenance*: the simulated LLM remembers what
/// it broke so its corrector can plausibly fix it. The pipeline never
/// reads it — it only round-trips the artifact through [`LlmClient`]
/// requests, exactly as it would round-trip opaque Python source.
#[derive(Clone, Debug)]
pub struct CheckerArtifact {
    /// The executable reference model.
    pub program: CheckerProgram,
    /// Injected defects still present in `program`.
    pub defects: Vec<Defect>,
    /// `true` when the artifact is syntactically broken (fails Eval0
    /// before any simulation can run).
    pub broken: bool,
}

impl CheckerArtifact {
    /// A pristine artifact with no defects.
    pub fn clean(program: CheckerProgram) -> Self {
        CheckerArtifact {
            program,
            defects: Vec::new(),
            broken: false,
        }
    }
}

/// A complete hybrid testbench — the artifact the pipeline produces,
/// validates, corrects and AutoEval judges: the scenario list, the
/// Verilog driver (with its parse, see [`Driver`]) and the checker
/// (reference model).
#[derive(Clone, Debug)]
pub struct HybridTb {
    /// The test scenarios the testbench claims to cover.
    pub scenarios: ScenarioSet,
    /// The Verilog driver (its text may be syntactically broken).
    pub driver: Driver,
    /// Checker artifact (may be flagged broken).
    pub checker: CheckerArtifact,
}

impl HybridTb {
    /// `true` when both tracks are syntactically sound (the Eval0
    /// condition): the driver parses and the checker is not broken.
    pub fn is_syntactically_valid(&self) -> bool {
        !self.checker.broken && self.driver.parsed().is_some()
    }

    /// Scenario indexes (1-based) whose stimulus stanza is present in the
    /// driver source — used by AutoBench's scenario-list checking.
    pub fn driver_scenario_coverage(&self) -> Vec<usize> {
        (1..=self.scenarios.len())
            .filter(|i| self.driver.text().contains(&format!("// Scenario {i}:")))
            .collect()
    }
}

/// The validator's per-scenario bug information handed to the corrector
/// (Section III-C: wrong, correct and uncertain scenario indexes).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BugReport {
    /// 1-based indexes of scenarios judged wrong.
    pub wrong: Vec<usize>,
    /// Indexes judged correct.
    pub correct: Vec<usize>,
    /// Indexes with insufficient information.
    pub uncertain: Vec<usize>,
}

/// A typed request to the model.
#[derive(Debug)]
pub enum LlmRequest<'a> {
    /// AutoBench stage 1: produce the test-scenario list from the spec.
    GenerateScenarios {
        /// The task.
        problem: &'a Problem,
    },
    /// AutoBench stage 2: produce the Verilog driver for the scenarios.
    GenerateDriver {
        /// The task.
        problem: &'a Problem,
        /// The scenario list the driver must apply.
        scenarios: &'a ScenarioSet,
    },
    /// AutoBench stage 3: produce the checker (reference model).
    GenerateChecker {
        /// The task.
        problem: &'a Problem,
    },
    /// Validator support: generate one "imperfect" RTL design from the
    /// spec (paper Section III-B).
    GenerateRtl {
        /// The task.
        problem: &'a Problem,
    },
    /// Baseline: generate a complete testbench in one shot.
    GenerateDirectTestbench {
        /// The task.
        problem: &'a Problem,
    },
    /// AutoBench self-enhancement: repair a syntactically broken source.
    FixSyntax {
        /// The task.
        problem: &'a Problem,
        /// Artifact class being repaired.
        kind: ArtifactKind,
        /// The broken source text.
        broken_source: &'a str,
    },
    /// Repair a syntactically broken checker artifact.
    FixBrokenChecker {
        /// The task.
        problem: &'a Problem,
        /// The broken artifact.
        artifact: &'a CheckerArtifact,
    },
    /// Corrector stage 1 (reasoning): why / where / how.
    ReasonAboutBugs {
        /// The task.
        problem: &'a Problem,
        /// The checker under correction.
        checker: &'a CheckerArtifact,
        /// The validator's bug information.
        report: &'a BugReport,
    },
    /// Corrector stage 2: emit the corrected checker.
    CorrectChecker {
        /// The task.
        problem: &'a Problem,
        /// The checker under correction.
        checker: &'a CheckerArtifact,
        /// The validator's bug information.
        report: &'a BugReport,
        /// Stage-1 reasoning text (round-tripped into the prompt).
        reasoning: &'a str,
    },
}

/// A typed response.
#[derive(Clone, Debug)]
pub enum LlmResponse {
    /// A scenario list.
    Scenarios(ScenarioSet),
    /// Verilog source (driver or RTL; possibly syntactically broken).
    Source(String),
    /// A checker artifact.
    Checker(CheckerArtifact),
    /// A complete single-shot testbench.
    DirectTestbench {
        /// Scenario list embedded in the testbench.
        scenarios: ScenarioSet,
        /// Driver source.
        driver: String,
        /// Checker artifact.
        checker: CheckerArtifact,
    },
    /// Free-text reasoning (corrector stage 1).
    Reasoning(String),
}

/// A conversational LLM client.
pub trait LlmClient {
    /// Issues one request and returns the model's response.
    fn request(&mut self, req: &LlmRequest<'_>) -> LlmResponse;

    /// Cumulative token usage of this client.
    fn usage(&self) -> TokenUsage;
}

impl<C: LlmClient + ?Sized> LlmClient for Box<C> {
    fn request(&mut self, req: &LlmRequest<'_>) -> LlmResponse {
        (**self).request(req)
    }

    fn usage(&self) -> TokenUsage {
        (**self).usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctbench_checker::compile_module;
    use correctbench_tbgen::{generate_driver, generate_scenarios};

    fn sample_tb() -> HybridTb {
        let p = correctbench_dataset::problem("and_8").expect("problem");
        let scenarios = generate_scenarios(&p, 4);
        let driver = Driver::new(generate_driver(&p, &scenarios));
        let checker =
            CheckerArtifact::clean(compile_module(&p.golden_module()).expect("golden checker"));
        HybridTb {
            scenarios,
            driver,
            checker,
        }
    }

    #[test]
    fn golden_tb_is_valid() {
        let tb = sample_tb();
        assert!(tb.is_syntactically_valid());
        assert_eq!(tb.driver_scenario_coverage().len(), tb.scenarios.len());
    }

    #[test]
    fn broken_driver_invalid() {
        let mut tb = sample_tb();
        tb.driver = Driver::new(tb.driver.text().replace("endmodule", ""));
        assert!(!tb.is_syntactically_valid());
    }

    #[test]
    fn broken_checker_invalid() {
        let mut tb = sample_tb();
        tb.checker.broken = true;
        assert!(!tb.is_syntactically_valid());
    }
}
