//! Canonical test-scenario generation.
//!
//! In AutoBench the LLM first emits a *scenario list* — named groups of
//! stimuli — and then a Verilog driver that applies them (Fig. 3 of the
//! paper). Here the scenario list is generated deterministically from the
//! problem's port spec and a seed: corner patterns first, then seeded
//! random vectors, with reset-framed scenarios for sequential DUTs.

use correctbench_dataset::{PortSpec, Problem};
use correctbench_verilog::logic::LogicVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One stimulus vector: a value for every (non-clock) input port.
#[derive(Clone, PartialEq, Debug)]
pub struct Stimulus {
    /// `(port name, value)` pairs in the problem's port order.
    pub values: Vec<(String, LogicVec)>,
}

impl Stimulus {
    /// The value driven on `port`, if present.
    pub fn value(&self, port: &str) -> Option<&LogicVec> {
        self.values.iter().find(|(n, _)| n == port).map(|(_, v)| v)
    }
}

/// A named group of stimuli (the paper's "test scenario").
#[derive(Clone, PartialEq, Debug)]
pub struct Scenario {
    /// 1-based scenario index, as printed in driver records.
    pub index: usize,
    /// Short description (goes into driver comments).
    pub description: String,
    /// The stimuli applied in order.
    pub stimuli: Vec<Stimulus>,
}

/// The full scenario list of one testbench.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ScenarioSet {
    /// Scenarios in index order.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// Number of scenarios (the paper's NS).
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when there are no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Total stimulus count across scenarios.
    pub fn total_stimuli(&self) -> usize {
        self.scenarios.iter().map(|s| s.stimuli.len()).sum()
    }
}

/// Generates the canonical scenario list for `problem`.
///
/// The list is deterministic in `(problem, seed)`. Sequential problems
/// with a `rst` port get a reset stimulus at the start of every scenario
/// (so per-scenario verdicts localise bugs) plus one dedicated mid-stream
/// reset scenario.
pub fn generate_scenarios(problem: &Problem, seed: u64) -> ScenarioSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5ce0);
    let spec = problem.scenario_spec;
    let inputs: Vec<&PortSpec> = problem.stimulus_inputs();
    let has_rst = inputs.iter().any(|p| p.name == "rst");
    let mut scenarios = Vec::with_capacity(spec.scenarios);
    for index in 1..=spec.scenarios {
        let description = scenario_description(index, spec.scenarios);
        let mut stimuli = Vec::with_capacity(spec.stimuli_per_scenario + 1);
        if has_rst {
            stimuli.push(reset_stimulus(&inputs));
        }
        // Scenarios are *focused*: narrow control ports (mode selects,
        // enables) are frozen to a per-scenario value, so a design bug in
        // one mode reddens only the scenarios exercising that mode. This
        // is what makes RS-matrix columns informative — the paper's
        // "unlikely for most RTL designs to have the same mistakes in the
        // exact scenarios" assumption.
        let controls: Vec<(String, LogicVec)> = inputs
            .iter()
            .filter(|p| p.name != "rst" && p.width <= 3 && !is_data_port(&p.name))
            .map(|p| {
                let combos = 1u64 << p.width;
                let fixed = if index <= 4 {
                    // Corner scenarios keep deterministic control values.
                    ((index - 1) as u64) % combos
                } else {
                    rng.gen_range(0..combos)
                };
                (p.name.clone(), LogicVec::from_u64(p.width, fixed))
            })
            .collect();
        let pattern = pattern_for(index, spec.scenarios);
        for k in 0..spec.stimuli_per_scenario {
            let mut values = Vec::with_capacity(inputs.len());
            for port in &inputs {
                let v = if port.name == "rst" {
                    // One dedicated scenario exercises a mid-stream reset.
                    let mid_reset = index == spec.scenarios && k == spec.stimuli_per_scenario / 2;
                    LogicVec::from_u64(1, mid_reset as u64)
                } else if let Some((_, fixed)) = controls.iter().find(|(n, _)| n == &port.name) {
                    // Mostly hold the scenario's control value, with an
                    // occasional excursion so load-then-operate sequences
                    // still happen inside one scenario.
                    if rng.gen_bool(0.25) {
                        gen_value(port.width, Pattern::Random, &mut rng)
                    } else {
                        fixed.clone()
                    }
                } else {
                    gen_value(port.width, pattern, &mut rng)
                };
                values.push((port.name.clone(), v));
            }
            stimuli.push(Stimulus { values });
        }
        scenarios.push(Scenario {
            index,
            description,
            stimuli,
        });
    }
    ScenarioSet { scenarios }
}

/// Ports that carry data streams rather than mode controls; these are
/// never frozen per scenario (a frozen serial input would hide all
/// sequence behaviour).
fn is_data_port(name: &str) -> bool {
    matches!(
        name,
        "d" | "din"
            | "dout"
            | "data"
            | "a"
            | "b"
            | "c"
            | "x"
            | "v"
            | "g"
            | "t"
            | "tick"
            | "req"
            | "bump_left"
            | "bump_right"
            | "nickel"
            | "dime"
    )
}

fn scenario_description(index: usize, total: usize) -> String {
    match index {
        1 => "all-zero corner stimuli".to_string(),
        2 => "all-one corner stimuli".to_string(),
        3 => "alternating-bit patterns".to_string(),
        i if i == total => "mid-stream reset behaviour".to_string(),
        i => format!("randomised stimuli group {i}"),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pattern {
    Zeros,
    Ones,
    Alternating,
    OneHot,
    Random,
}

fn pattern_for(index: usize, total: usize) -> Pattern {
    match index {
        1 => Pattern::Zeros,
        2 => Pattern::Ones,
        3 => Pattern::Alternating,
        4 => Pattern::OneHot,
        i if i == total => Pattern::Random,
        _ => Pattern::Random,
    }
}

fn gen_value(width: usize, pattern: Pattern, rng: &mut StdRng) -> LogicVec {
    match pattern {
        Pattern::Zeros => LogicVec::zeros(width),
        Pattern::Ones => LogicVec::ones(width),
        Pattern::Alternating => {
            let mut v = LogicVec::zeros(width);
            for i in (0..width).step_by(2) {
                v.set_bit(i, correctbench_verilog::Bit::One);
            }
            v
        }
        Pattern::OneHot => {
            let mut v = LogicVec::zeros(width);
            v.set_bit(rng.gen_range(0..width), correctbench_verilog::Bit::One);
            v
        }
        Pattern::Random => {
            let mut v = LogicVec::zeros(width);
            for i in 0..width {
                if rng.gen_bool(0.5) {
                    v.set_bit(i, correctbench_verilog::Bit::One);
                }
            }
            v
        }
    }
}

fn reset_stimulus(inputs: &[&PortSpec]) -> Stimulus {
    let values = inputs
        .iter()
        .map(|p| {
            let v = if p.name == "rst" {
                LogicVec::from_u64(1, 1)
            } else {
                LogicVec::zeros(p.width)
            };
            (p.name.clone(), v)
        })
        .collect();
    Stimulus { values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctbench_dataset::problem;

    #[test]
    fn deterministic_in_seed() {
        let p = problem("alu_8").expect("problem");
        let a = generate_scenarios(&p, 7);
        let b = generate_scenarios(&p, 7);
        let c = generate_scenarios(&p, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn scenario_count_matches_spec() {
        for name in ["adder_8", "counter_8", "seq_det_101"] {
            let p = problem(name).expect("problem");
            let s = generate_scenarios(&p, 1);
            assert_eq!(s.len(), p.scenario_spec.scenarios, "{name}");
        }
    }

    #[test]
    fn sequential_scenarios_start_with_reset() {
        let p = problem("counter_8").expect("problem");
        let s = generate_scenarios(&p, 3);
        for sc in &s.scenarios {
            let first = &sc.stimuli[0];
            assert_eq!(
                first.value("rst").and_then(|v| v.to_u64()),
                Some(1),
                "scenario {} must start with reset",
                sc.index
            );
        }
    }

    #[test]
    fn no_clk_in_stimuli() {
        let p = problem("counter_8").expect("problem");
        let s = generate_scenarios(&p, 3);
        for sc in &s.scenarios {
            for st in &sc.stimuli {
                assert!(st.value("clk").is_none());
            }
        }
    }

    #[test]
    fn corner_patterns_present() {
        let p = problem("and_8").expect("problem");
        let s = generate_scenarios(&p, 5);
        let sc1 = &s.scenarios[0].stimuli[0];
        assert_eq!(sc1.value("a").and_then(|v| v.to_u64()), Some(0));
        let sc2 = &s.scenarios[1].stimuli[0];
        assert_eq!(sc2.value("a").and_then(|v| v.to_u64()), Some(0xff));
    }
}
