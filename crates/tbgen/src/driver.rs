//! Verilog driver code generation.
//!
//! The driver is a real Verilog testbench module (the front half of the
//! paper's hybrid testbench): it instantiates the DUT, generates a clock
//! for sequential designs, applies each scenario's stimuli with `#10`
//! steps, and `$fdisplay`s one record per stimulus in exactly the Fig. 3
//! format:
//!
//! ```text
//! scenario: 1, a = 3, b = 5, y = 8
//! ```
//!
//! The generated source is parsed and simulated by
//! [`correctbench_verilog`]; nothing here is interpreted directly.
//! A [`Driver`] carries a driver text together with its parse.

use crate::scenarios::ScenarioSet;
use correctbench_dataset::{PortDir, Problem};
use correctbench_verilog::ast::SourceFile;
use std::fmt::Write as _;
use std::sync::Arc;

/// Name of the generated testbench module.
pub const TB_MODULE: &str = "tb";

/// A driver's source text and its parse, made once by [`Driver::new`].
///
/// The pipeline re-checks the same driver many times — the syntax gate,
/// every validation round (the corrector rewrites only the checker), the
/// lint pass and AutoEval — and each of them reads the carried parse.
/// Clones share it.
#[derive(Clone, Debug)]
pub struct Driver {
    text: String,
    parsed: Option<Arc<SourceFile>>,
}

impl Driver {
    /// Parses `text`. A text with syntax errors carries no parse.
    pub fn new(text: String) -> Driver {
        let parsed = correctbench_verilog::parse(&text).ok().map(Arc::new);
        Driver { text, parsed }
    }

    /// The Verilog source.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parse of [`Driver::text`]; `None` when the text does not parse.
    pub fn parsed(&self) -> Option<&Arc<SourceFile>> {
        self.parsed.as_ref()
    }
}

/// Generates Verilog driver source for `problem` applying `scenarios`.
///
/// The driver instantiates the module named by `problem.name`; callers
/// provide the DUT source separately (golden, mutant, or LLM-generated —
/// the driver does not care).
pub fn generate_driver(problem: &Problem, scenarios: &ScenarioSet) -> String {
    let mut s = String::with_capacity(4096);
    let _ = writeln!(s, "module {TB_MODULE};");

    // Declarations.
    let seq = problem.has_clock();
    if seq {
        s.push_str("    reg clk;\n");
    }
    for port in &problem.ports {
        if port.name == "clk" {
            continue;
        }
        let range = if port.width == 1 {
            String::new()
        } else {
            format!("[{}:0] ", port.width - 1)
        };
        match port.dir {
            PortDir::Input => {
                let _ = writeln!(s, "    reg {range}{};", port.name);
            }
            PortDir::Output => {
                let _ = writeln!(s, "    wire {range}{};", port.name);
            }
        }
    }
    s.push_str("    integer file;\n");

    // DUT instantiation with named connections.
    let conns: Vec<String> = problem
        .ports
        .iter()
        .map(|p| format!(".{}({})", p.name, p.name))
        .collect();
    let _ = writeln!(s, "    {} dut ({});", problem.name, conns.join(", "));

    // Clock generator: period 10, first rising edge at t=5, so inputs
    // applied at t=10k are stable across the edge at 10k+5 and records at
    // 10k+10 sample post-edge values.
    if seq {
        s.push_str("    initial clk = 0;\n");
        s.push_str("    always #5 clk = ~clk;\n");
    }

    // Stimulus process.
    s.push_str("    initial begin\n");
    s.push_str("        file = 1;\n");
    let inputs = problem.stimulus_inputs();
    let fmt = record_format(problem);
    let args: Vec<String> = record_args(problem);
    for sc in &scenarios.scenarios {
        let _ = writeln!(s, "        // Scenario {}: {}", sc.index, sc.description);
        for stim in &sc.stimuli {
            for port in &inputs {
                if let Some(v) = stim.value(&port.name) {
                    let _ = writeln!(
                        s,
                        "        {} = {}'b{};",
                        port.name,
                        port.width,
                        v.to_binary_string()
                    );
                }
            }
            let _ = writeln!(
                s,
                "        #10 $fdisplay(file, \"{fmt}\", {index}, {});",
                args.join(", "),
                index = sc.index,
            );
        }
    }
    s.push_str("        $finish;\n");
    s.push_str("    end\n");
    s.push_str("endmodule\n");
    s
}

/// The `$fdisplay` format string for `problem`'s record lines.
pub fn record_format(problem: &Problem) -> String {
    let mut fmt = String::from("scenario: %0d");
    for port in problem.ports.iter().filter(|p| p.name != "clk") {
        let _ = write!(fmt, ", {} = %0d", port.name);
    }
    fmt
}

fn record_args(problem: &Problem) -> Vec<String> {
    problem
        .ports
        .iter()
        .filter(|p| p.name != "clk")
        .map(|p| p.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::generate_scenarios;
    use correctbench_dataset::problem;

    #[test]
    fn driver_parses() {
        for name in ["adder_8", "counter_8", "shift18", "mux6_4"] {
            let p = problem(name).expect("problem");
            let scen = generate_scenarios(&p, 1);
            let src = generate_driver(&p, &scen);
            correctbench_verilog::parse(&src)
                .unwrap_or_else(|e| panic!("{name}: driver does not parse: {e}\n{src}"));
        }
    }

    #[test]
    fn driver_runs_against_golden_dut() {
        let p = problem("adder_8").expect("problem");
        let scen = generate_scenarios(&p, 2);
        let driver = generate_driver(&p, &scen);
        let full = format!("{}\n{}", p.golden_rtl, driver);
        let out = correctbench_verilog::run_source(&full, TB_MODULE).expect("simulate");
        assert!(out.finished, "driver must reach $finish");
        let lines = out.lines();
        assert_eq!(lines.len(), scen.total_stimuli());
        assert!(lines[0].starts_with("scenario: 1, "));
    }

    #[test]
    fn sequential_driver_has_clock() {
        let p = problem("counter_8").expect("problem");
        let scen = generate_scenarios(&p, 2);
        let src = generate_driver(&p, &scen);
        assert!(src.contains("always #5 clk = ~clk;"));
        let full = format!("{}\n{}", p.golden_rtl, src);
        let out = correctbench_verilog::run_source(&full, TB_MODULE).expect("simulate");
        assert!(out.finished);
    }

    #[test]
    fn driver_carries_its_parse_and_clones_share_it() {
        let p = problem("adder_8").expect("problem");
        let text = generate_driver(&p, &generate_scenarios(&p, 3));
        let driver = Driver::new(text.clone());
        assert_eq!(driver.text(), text);
        let parsed = driver.parsed().expect("generated driver parses");
        assert_eq!(
            **parsed,
            correctbench_verilog::parse(&text).expect("parses")
        );
        let copy = driver.clone();
        assert!(Arc::ptr_eq(parsed, copy.parsed().expect("shared")));
        assert!(Driver::new(text.replace("endmodule", ""))
            .parsed()
            .is_none());
    }

    #[test]
    fn record_format_lists_all_ports() {
        let p = problem("mux6_4").expect("problem");
        let fmt = record_format(&p);
        for port in &p.ports {
            assert!(fmt.contains(&format!("{} = ", port.name)), "{fmt}");
        }
    }
}
