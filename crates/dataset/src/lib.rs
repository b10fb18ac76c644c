//! The 156-problem HDL task suite.
//!
//! The paper evaluates on 156 Verilog problems (81 combinational, 75
//! sequential) extended from VerilogEval-Human / HDLBits. This crate is the
//! reproduction's equivalent: 156 problems spanning the same circuit
//! classes, each carrying
//!
//! * a natural-language **spec** — the *only* input the pipeline sees;
//! * the **golden RTL** — used exclusively by AutoEval (Eval1/Eval2) and
//!   as the seed the simulated LLM perturbs;
//! * a **port list** and **scenario sizing** for driver generation;
//! * a **difficulty** class that scales simulated-LLM error rates.
//!
//! # Examples
//!
//! ```
//! let problems = correctbench_dataset::all_problems();
//! assert_eq!(problems.len(), 156);
//! let cmb = problems.iter().filter(|p| p.kind.is_combinational()).count();
//! assert_eq!(cmb, 81);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cmb;
mod seq;

use correctbench_verilog::ast::Module;
use correctbench_verilog::parse;

/// Combinational or sequential.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CircuitKind {
    /// Pure function of the inputs.
    Combinational,
    /// Clocked state machine (single clock named `clk`).
    Sequential,
}

impl CircuitKind {
    /// `true` for [`CircuitKind::Combinational`].
    pub fn is_combinational(self) -> bool {
        self == CircuitKind::Combinational
    }
}

/// Difficulty class; the simulated LLM makes more mistakes on harder tasks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Difficulty {
    /// Single-operator circuits, simple registers.
    Easy,
    /// Multi-operator datapaths, counters with controls.
    Medium,
    /// FSMs, sequence detectors, multi-feature designs.
    Hard,
}

impl Difficulty {
    /// A scale factor applied to simulated-LLM error rates.
    pub fn error_scale(self) -> f64 {
        match self {
            Difficulty::Easy => 0.55,
            Difficulty::Medium => 1.0,
            Difficulty::Hard => 1.7,
        }
    }
}

/// Direction of a DUT port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PortDir {
    /// Driven by the testbench.
    Input,
    /// Observed by the testbench.
    Output,
}

/// One DUT port as the testbench generator sees it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PortSpec {
    /// Port name.
    pub name: String,
    /// Bit width.
    pub width: usize,
    /// Direction.
    pub dir: PortDir,
}

impl PortSpec {
    /// An input port.
    pub fn input(name: &str, width: usize) -> Self {
        PortSpec {
            name: name.to_string(),
            width,
            dir: PortDir::Input,
        }
    }

    /// An output port.
    pub fn output(name: &str, width: usize) -> Self {
        PortSpec {
            name: name.to_string(),
            width,
            dir: PortDir::Output,
        }
    }
}

/// Sizing of the canonical scenario list for a problem.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScenarioSpec {
    /// Number of test scenarios (the paper's NS, set by task complexity).
    pub scenarios: usize,
    /// Stimulus vectors per scenario.
    pub stimuli_per_scenario: usize,
}

/// One benchmark problem.
///
/// Derives `Hash`, so its [`fingerprint`](correctbench_verilog::fingerprint)
/// covers every field, `spec` and `golden_rtl` as raw text: it moves
/// when *anything* about the problem moves, even a comment in the golden
/// RTL. The golden-artifact cache and the persistent store key on it.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct Problem {
    /// Unique short name; also the golden RTL module name.
    pub name: String,
    /// Circuit class.
    pub kind: CircuitKind,
    /// Natural-language specification — the pipeline's sole input.
    pub spec: String,
    /// Golden RTL source (never shown to the pipeline).
    pub golden_rtl: String,
    /// All DUT ports, `clk` included for sequential designs.
    pub ports: Vec<PortSpec>,
    /// Difficulty class.
    pub difficulty: Difficulty,
    /// Canonical scenario sizing.
    pub scenario_spec: ScenarioSpec,
    /// Intentional lint findings in the golden RTL, as `"rule:signal"`
    /// entries (e.g. `"unused-signal:arg"`). The static-analysis gate
    /// over the golden dataset skips allowlisted findings; anything else
    /// it reports is a real defect.
    pub lint_allow: Vec<String>,
}

impl Problem {
    /// The golden RTL parsed into a module.
    ///
    /// # Panics
    ///
    /// Panics if the stored golden RTL does not parse — the dataset's own
    /// tests guarantee it does.
    pub fn golden_module(&self) -> Module {
        let file = parse(&self.golden_rtl)
            .unwrap_or_else(|e| panic!("golden RTL of `{}` must parse: {e}", self.name));
        file.modules
            .into_iter()
            .find(|m| m.name == self.name)
            .unwrap_or_else(|| panic!("golden RTL of `{}` must define that module", self.name))
    }

    /// Input ports that testbench stimuli must drive (excludes `clk`,
    /// which the driver's clock generator owns).
    pub fn stimulus_inputs(&self) -> Vec<&PortSpec> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Input && p.name != "clk")
            .collect()
    }

    /// Output ports observed by the checker.
    pub fn outputs(&self) -> Vec<&PortSpec> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Output)
            .collect()
    }

    /// `true` when the DUT has a `clk` input.
    pub fn has_clock(&self) -> bool {
        self.ports.iter().any(|p| p.name == "clk")
    }

    /// `true` when the golden-dataset allowlist covers a finding of
    /// `rule` against `signal`.
    pub fn lint_allowed(&self, rule: &str, signal: &str) -> bool {
        self.lint_allow
            .iter()
            .any(|entry| entry == &format!("{rule}:{signal}"))
    }
}

/// Scenario sizing derived from difficulty (NS grows with complexity, as
/// the paper's generator does).
pub(crate) fn scenario_spec_for(difficulty: Difficulty, kind: CircuitKind) -> ScenarioSpec {
    let base = match difficulty {
        Difficulty::Easy => 8,
        Difficulty::Medium => 11,
        Difficulty::Hard => 14,
    };
    let stimuli = match kind {
        CircuitKind::Combinational => 4,
        CircuitKind::Sequential => 6,
    };
    ScenarioSpec {
        scenarios: base,
        stimuli_per_scenario: stimuli,
    }
}

/// All 156 problems: 81 combinational followed by 75 sequential.
pub fn all_problems() -> Vec<Problem> {
    let mut v = cmb::problems();
    v.extend(seq::problems());
    v
}

/// The 81 combinational problems.
pub fn combinational_problems() -> Vec<Problem> {
    cmb::problems()
}

/// The 75 sequential problems.
pub fn sequential_problems() -> Vec<Problem> {
    seq::problems()
}

/// Looks up a problem by name.
pub fn problem(name: &str) -> Option<Problem> {
    all_problems().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counts_match_paper() {
        assert_eq!(combinational_problems().len(), 81);
        assert_eq!(sequential_problems().len(), 75);
        assert_eq!(all_problems().len(), 156);
    }

    #[test]
    fn names_unique() {
        let names: HashSet<String> = all_problems().into_iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 156);
    }

    #[test]
    fn kinds_consistent() {
        for p in combinational_problems() {
            assert_eq!(p.kind, CircuitKind::Combinational, "{}", p.name);
            assert!(!p.has_clock(), "{} should not have clk", p.name);
        }
        for p in sequential_problems() {
            assert_eq!(p.kind, CircuitKind::Sequential, "{}", p.name);
            assert!(p.has_clock(), "{} must have clk", p.name);
        }
    }

    #[test]
    fn golden_rtl_parses_and_elaborates() {
        for p in all_problems() {
            let file = correctbench_verilog::parse(&p.golden_rtl)
                .unwrap_or_else(|e| panic!("{}: parse failed: {e}\n{}", p.name, p.golden_rtl));
            correctbench_verilog::elaborate(&file, &p.name)
                .unwrap_or_else(|e| panic!("{}: elaboration failed: {e}", p.name));
        }
    }

    #[test]
    fn ports_match_golden_rtl() {
        for p in all_problems() {
            let m = p.golden_module();
            for port in &p.ports {
                let decl = m
                    .ports
                    .iter()
                    .find(|d| d.name == port.name)
                    .unwrap_or_else(|| panic!("{}: port `{}` missing in RTL", p.name, port.name));
                assert_eq!(
                    decl.width(),
                    port.width,
                    "{}: port `{}` width mismatch",
                    p.name,
                    port.name
                );
            }
            assert_eq!(
                m.ports.len(),
                p.ports.len(),
                "{}: port count mismatch",
                p.name
            );
        }
    }

    #[test]
    fn specs_are_nonempty_and_descriptive() {
        for p in all_problems() {
            assert!(
                p.spec.len() > 60,
                "{}: spec too short to drive generation",
                p.name
            );
            assert!(
                p.spec.contains("module"),
                "{}: spec lacks module info",
                p.name
            );
        }
    }

    #[test]
    fn scenario_specs_sane() {
        for p in all_problems() {
            assert!(p.scenario_spec.scenarios >= 6, "{}", p.name);
            assert!(p.scenario_spec.stimuli_per_scenario >= 3, "{}", p.name);
        }
    }
}
