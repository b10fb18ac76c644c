//! Lint robustness and sensitivity.
//!
//! Two properties back the `--lint` pass and AutoEval's lint
//! pre-screen:
//!
//! 1. **Totality** — `lint_file` is called by the harness on whatever
//!    the parser accepts, including corrupted and mutated sources; it
//!    must never panic (a panicking lint pass would misclassify an
//!    ordinary dirty input as a harness crash).
//! 2. **Sensitivity** — for every rule in the closed taxonomy there is
//!    a seeded fixture (a driver/width/reset-altering mutation of a
//!    clean module) that the rule catches. A rule that fires on nothing
//!    is dead weight in the taxonomy.

use correctbench_verilog::corrupt::corrupt_source;
use correctbench_verilog::lint_file;
use correctbench_verilog::mutate::mutate_module;
use correctbench_verilog::parser::parse;
use correctbench_verilog::Rule;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corrupted golden sources that still parse never panic the lint
    /// pass, and its report is deterministic for the same input.
    #[test]
    fn lint_never_panics_on_corrupted_sources(problem_idx in 0usize..156, seed: u64, rounds in 1usize..4) {
        let problems = correctbench_dataset::all_problems();
        let p = &problems[problem_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut src = p.golden_rtl.clone();
        for _ in 0..rounds {
            src = corrupt_source(&src, &mut rng);
        }
        if let Ok(file) = parse(&src) {
            let a = lint_file(&file);
            let b = lint_file(&file);
            prop_assert_eq!(a.signature(), b.signature(), "lint is not pure");
        }
    }

    /// AST-level mutants (the Eval2 population) never panic the lint
    /// pass either — these always parse, so lint sees every one.
    #[test]
    fn lint_never_panics_on_mutants(problem_idx in 0usize..156, seed: u64) {
        let problems = correctbench_dataset::all_problems();
        let p = &problems[problem_idx];
        let mut file = parse(&p.golden_rtl).expect("golden RTL parses");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1 + rng.gen_range(0..3usize);
        if let Some(m) = file.module_mut(&p.name) {
            mutate_module(m, &mut rng, n);
        }
        let _ = lint_file(&file);
    }
}

/// One seeded fixture per rule: a clean base module plus the minimal
/// driver/width/control mutation that the rule exists to catch.
#[test]
fn every_rule_catches_its_seeded_fixture() {
    let fixtures: [(Rule, &str); 8] = [
        (
            Rule::MultipleDrivers,
            "module m(input a, b, output y);\nassign y = a;\nassign y = b;\nendmodule",
        ),
        (
            Rule::LatchInferred,
            "module m(input s, input a, output reg y);\nalways @(*) begin if (s) y = a; end\nendmodule",
        ),
        (
            Rule::BlockingNonblockingMix,
            "module m(input clk, input a, output reg y);\nreg t;\n\
             always @(posedge clk) begin t = a; y <= t; end\nendmodule",
        ),
        (
            Rule::CombLoop,
            "module m(input a, output x, output y);\nassign x = y & a;\nassign y = x | a;\nendmodule",
        ),
        (
            Rule::WidthMismatch,
            "module m(input [7:0] a, b, output [3:0] y);\nassign y = a + b;\nendmodule",
        ),
        (
            Rule::UndrivenSignal,
            "module m(input a, output y);\nwire t;\nassign y = t & a;\nendmodule",
        ),
        (
            Rule::UnusedSignal,
            "module m(input a, input b, output y);\nassign y = a;\nendmodule",
        ),
        (
            Rule::NonResetRegister,
            "module m(input clk, input d, output reg q);\nalways @(posedge clk) q <= d;\nendmodule",
        ),
    ];
    for (rule, src) in fixtures {
        let file = parse(src).expect("fixture parses");
        let report = lint_file(&file);
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule),
            "rule {} missed its fixture:\n{src}\nreport: {:?}",
            rule.name(),
            report.diagnostics
        );
    }
}

/// A mutation that deletes a register's driver is caught by the
/// dataflow rules on a real dataset problem — the lint signal the
/// AutoEval static pre-screen leans on.
#[test]
fn driver_deleting_mutation_is_caught_on_a_dataset_problem() {
    let p = correctbench_dataset::problem("counter_8").expect("problem");
    let clean = parse(&p.golden_rtl).expect("golden RTL parses");
    let clean_sig = lint_file(&clean).signature();
    let mut mutant = clean.clone();
    let m = mutant.module_mut(&p.name).expect("module");
    for item in &mut m.items {
        if let correctbench_verilog::ast::Item::Always(always) = item {
            always.body = correctbench_verilog::ast::Stmt::Block(Vec::new());
        }
    }
    let report = lint_file(&mutant);
    assert!(
        !report.is_clean(),
        "an emptied always block must lint dirty"
    );
    assert_ne!(
        report.signature(),
        clean_sig,
        "signature must distinguish the mutant"
    );
}
