//! Cross-crate keystone test: for every one of the 156 dataset problems,
//! the event-driven simulation of the golden RTL and the checker-IR
//! interpretation of the same design agree on every scenario — i.e. the
//! golden testbench passes Eval1 dataset-wide. This pins the two
//! independent execution semantics (simulator vs. checker interpreter)
//! to each other. The runs go through `reference_run`, whose judge is the
//! checker interpreter. The judge jobs use (`JudgeSession`) evaluates
//! every operation node through the interpreter's own code, so this pins
//! those operations to the simulator too; what the session does its own
//! way (slot file, positional inputs, the pruned post-edge pass) is
//! pinned to the interpreter separately
//! (`crates/checker/tests/exec_diff.rs`).

use correctbench_suite::checker::{compile_module, CheckerProgram};
use correctbench_suite::dataset::{all_problems, Problem};
use correctbench_suite::tbgen::{
    generate_driver, generate_scenarios, reference_run, ScenarioSet, TbError, TbRun,
};
use correctbench_suite::verilog::{parse, VerilogError};

/// The golden RTL of `p` under `driver`, run through the reference.
fn run_golden(
    p: &Problem,
    driver: &str,
    checker: &CheckerProgram,
    scenarios: &ScenarioSet,
) -> Result<TbRun, TbError> {
    let dut = parse(&p.golden_rtl).map_err(VerilogError::from)?;
    let driver = parse(driver).map_err(VerilogError::from)?;
    reference_run(&dut, &driver, checker, p, scenarios)
}

#[test]
fn golden_testbench_passes_on_all_156_problems() {
    let problems = all_problems();
    assert_eq!(problems.len(), 156);
    let mut failures = Vec::new();
    for p in &problems {
        let scenarios = generate_scenarios(p, 0xa9ee);
        let driver = generate_driver(p, &scenarios);
        let checker = match compile_module(&p.golden_module()) {
            Ok(c) => c,
            Err(e) => {
                failures.push(format!("{}: checker compile: {e}", p.name));
                continue;
            }
        };
        match run_golden(p, &driver, &checker, &scenarios) {
            Ok(run) => {
                if !run.all_pass() {
                    failures.push(format!(
                        "{}: scenarios {:?} disagree",
                        p.name,
                        run.failing_scenarios()
                    ));
                }
            }
            Err(e) => failures.push(format!("{}: run: {e}", p.name)),
        }
    }
    assert!(
        failures.is_empty(),
        "golden disagreements on {} problems:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn golden_agreement_across_multiple_seeds() {
    // A second seed catches stimulus-dependent divergence the first seed
    // might miss; restricted to a representative slice for runtime.
    let names = [
        "alu_16",
        "clz_8",
        "gray_decode_8",
        "shift18",
        "bcd_counter_8",
        "seq_det_1101",
        "vending_15",
        "arbiter_2",
        "traffic_light",
        "debounce_3",
        "timer_en_8",
        "lfsr_8",
    ];
    for name in names {
        let p = correctbench_suite::dataset::problem(name).expect("known problem");
        let checker = compile_module(&p.golden_module()).expect("checker");
        for seed in [1u64, 2, 3, 4, 5] {
            let scenarios = generate_scenarios(&p, seed);
            let driver = generate_driver(&p, &scenarios);
            let run = run_golden(&p, &driver, &checker, &scenarios)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert!(
                run.all_pass(),
                "{name} seed {seed}: scenarios {:?} disagree",
                run.failing_scenarios()
            );
        }
    }
}
