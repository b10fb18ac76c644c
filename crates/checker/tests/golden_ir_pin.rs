//! Pins the exact checker IR of every golden design.
//!
//! The only RTL that reaches `compile_module` in production is the
//! dataset's golden designs, so the compiler is correct exactly when
//! each of them compiles to the same `CheckerProgram`, node for node.
//! Every golden checker's fingerprint goes into one digest: a change to
//! the compiler that moves any node, node order, width, register
//! update, output binding or input order of any golden moves it. A
//! deliberate change to golden IR is a reviewed edit of the two pins
//! below (and moves every outcome digest that the checker feeds).

use correctbench_checker::compile_module;
use correctbench_verilog::hash::fnv1a64;

/// `fnv1a64` of the `{name} {fingerprint}` lines, one per golden.
const GOLDEN_IR_DIGEST: &str = "2a33f32b2dccdf02";
/// The total node count of the 156 golden checkers.
const GOLDEN_IR_NODES: usize = 1962;

#[test]
fn every_golden_checker_compiles_to_the_pinned_ir() {
    let problems = correctbench_dataset::all_problems();
    assert_eq!(problems.len(), 156);
    let mut nodes = 0;
    let lines: Vec<String> = problems
        .iter()
        .map(|p| {
            let prog = compile_module(&p.golden_module())
                .unwrap_or_else(|e| panic!("{}: golden checker does not compile: {e}", p.name));
            nodes += prog.len();
            format!("{} {}", p.name, prog.fingerprint())
        })
        .collect();
    let digest = format!("{:016x}", fnv1a64(lines.join("\n").as_bytes()));
    assert_eq!(
        (digest.as_str(), nodes),
        (GOLDEN_IR_DIGEST, GOLDEN_IR_NODES),
        "golden checker IR moved"
    );
}
