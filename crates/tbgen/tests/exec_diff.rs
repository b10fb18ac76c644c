//! Design-level differential test: the bytecode executor must reproduce
//! the tree-walker's behaviour — `$display` stream, end time, finish
//! flag, and error classification — on real hybrid-testbench designs:
//! golden DUTs and randomly mutated ones across the dataset.
//!
//! The expression-level equivalence is pinned by the proptests inside
//! `correctbench-verilog`; this test closes the loop over whole
//! event-driven runs (process scheduling, NBA commits, watchers, case
//! dispatch, lvalue writes through dynamic indices). It is also the
//! reference for the bytecode's runaway-loop detector: the tree-walker
//! runs every loop to the step budget.

use correctbench_obs::{Counter, ObsStack};
use correctbench_tbgen::{compile_pair, generate_driver, generate_scenarios, limits_for};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::{
    parse, CompiledDesign, ExecMode, SimError, SimLimits, SimOutput, Simulator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn compiled(dut: &SourceFile, driver: &SourceFile) -> CompiledDesign {
    compile_pair(dut, driver).expect("elaborate")
}

/// One run under an armed collector: the result and the instructions it
/// retired, cross-checked against the wasted-work counters.
fn run_observed(
    compiled: &CompiledDesign,
    limits: SimLimits,
    mode: ExecMode,
) -> (Result<SimOutput, SimError>, u64) {
    let _obs = ObsStack::enabled().install();
    let out = Simulator::from_compiled_with_limits(compiled, limits)
        .with_mode(mode)
        .run();
    let obs = correctbench_obs::take_job().expect("collector armed");
    let instrs = obs.counter(Counter::SimInstrs);
    let tripped = matches!(out, Err(SimError::EventBudgetExhausted));
    assert_eq!(obs.counter(Counter::SimBudgetTrips), u64::from(tripped));
    assert_eq!(
        obs.counter(Counter::SimTripInstrs),
        if tripped { instrs } else { 0 }
    );
    (out, instrs)
}

fn assert_same_result(
    byte: Result<SimOutput, SimError>,
    tree: Result<SimOutput, SimError>,
    what: &str,
) {
    match (byte, tree) {
        (Ok(b), Ok(t)) => {
            assert_eq!(b.lines, t.lines, "{what}: output lines differ");
            assert_eq!(b.end_time, t.end_time, "{what}: end time differs");
            assert_eq!(b.finished, t.finished, "{what}: finish flag differs");
        }
        (Err(b), Err(t)) => {
            assert_eq!(b, t, "{what}: errors differ");
        }
        (b, t) => panic!("{what}: one mode errored and the other did not: {b:?} vs {t:?}"),
    }
}

fn assert_modes_agree(compiled: &CompiledDesign, limits: SimLimits, what: &str) {
    let byte = Simulator::from_compiled_with_limits(compiled, limits).run();
    let tree = Simulator::from_compiled_with_limits(compiled, limits)
        .with_mode(ExecMode::TreeWalk)
        .run();
    assert_same_result(byte, tree, what);
}

/// Every `n`-th problem of the dataset (full golden coverage is the
/// slower harness suites' job; a stride keeps this differential fast
/// while still touching cmb and seq designs of every family).
fn sampled_problems(stride: usize) -> Vec<correctbench_dataset::Problem> {
    correctbench_dataset::all_problems()
        .into_iter()
        .step_by(stride)
        .collect()
}

#[test]
fn golden_designs_agree_across_modes() {
    for (i, p) in sampled_problems(9).iter().enumerate() {
        let scenarios = generate_scenarios(p, 11 + i as u64);
        let driver = parse(&generate_driver(p, &scenarios)).expect("driver parses");
        let dut = parse(&p.golden_rtl).expect("golden parses");
        let compiled = compiled(&dut, &driver);
        assert_modes_agree(&compiled, limits_for(&scenarios), &p.name);
    }
}

#[test]
fn mutant_designs_agree_across_modes() {
    for (i, p) in sampled_problems(13).iter().enumerate() {
        let scenarios = generate_scenarios(p, 5 + i as u64);
        let driver = parse(&generate_driver(p, &scenarios)).expect("driver parses");
        for seed in 0..3u64 {
            let mut file = parse(&p.golden_rtl).expect("golden parses");
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ i as u64);
            let m = file.module_mut(&p.name).expect("module");
            correctbench_verilog::mutate::mutate_module(m, &mut rng, 2);
            let mutant = correctbench_verilog::pretty::print_file(&file);
            let dut = parse(&mutant).expect("mutant parses");
            let compiled = compiled(&dut, &driver);
            assert_modes_agree(
                &compiled,
                limits_for(&scenarios),
                &format!("{} mutant {seed}", p.name),
            );
        }
    }
}

/// Mutants per looped problem, and how many of them also run at the
/// natural `limits_for` budget (where the reference retires up to a few
/// million instructions per runaway).
const LOOP_MUTANTS: u64 = 40;
const NATURAL_BUDGET_MUTANTS: u64 = 3;

/// A budget tight enough to move long but finite loops (a bit-flipped
/// bound such as `i < 131080`) across the trip boundary.
const TIGHT_STEPS: u64 = 20_000;

#[test]
fn runaway_loop_mutants_agree_with_the_reference() {
    let looped: Vec<_> = correctbench_dataset::all_problems()
        .into_iter()
        .filter(|p| p.golden_rtl.contains("for ("))
        .collect();
    assert_eq!(looped.len(), 9, "problems whose golden RTL has a loop");
    let (mut runs, mut trips, mut early) = (0u64, 0u64, 0u64);
    let (mut byte_trip_instrs, mut tree_trip_instrs) = (0u64, 0u64);
    for (i, p) in looped.iter().enumerate() {
        let scenarios = generate_scenarios(p, 17 + i as u64);
        let driver = parse(&generate_driver(p, &scenarios)).expect("driver parses");
        let natural = limits_for(&scenarios);
        let tight = SimLimits {
            max_steps: TIGHT_STEPS,
            ..natural
        };
        for seed in 0..LOOP_MUTANTS {
            // The operators Eval2 and the validator's RTL groups use,
            // at one to three sites.
            let mut file = parse(&p.golden_rtl).expect("golden parses");
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491) ^ i as u64);
            let m = file.module_mut(&p.name).expect("module");
            correctbench_verilog::mutate::mutate_module(m, &mut rng, 1 + (seed % 3) as usize);
            let mutant = correctbench_verilog::pretty::print_file(&file);
            let dut = parse(&mutant).expect("mutant parses");
            let compiled = compiled(&dut, &driver);
            let budgets: &[SimLimits] = if seed < NATURAL_BUDGET_MUTANTS {
                &[tight, natural]
            } else {
                &[tight]
            };
            for limits in budgets {
                let what = format!("{} mutant {seed} at {} steps", p.name, limits.max_steps);
                let (byte, byte_instrs) = run_observed(&compiled, *limits, ExecMode::Bytecode);
                let (tree, tree_instrs) = run_observed(&compiled, *limits, ExecMode::TreeWalk);
                runs += 1;
                if matches!(tree, Err(SimError::EventBudgetExhausted)) {
                    trips += 1;
                    assert_eq!(tree_instrs, limits.max_steps + 1, "{what}");
                    assert!(byte_instrs <= tree_instrs, "{what}");
                    early += u64::from(byte_instrs < tree_instrs);
                    byte_trip_instrs += byte_instrs;
                    tree_trip_instrs += tree_instrs;
                } else {
                    assert_eq!(byte_instrs, tree_instrs, "{what}: same work");
                }
                assert_same_result(byte, tree, &what);
            }
        }
    }
    assert_eq!(runs, 9 * (LOOP_MUTANTS + NATURAL_BUDGET_MUTANTS));
    assert!(early > 0, "no runaway caught early in {trips} trips");
    assert!(
        byte_trip_instrs < tree_trip_instrs,
        "bytecode retired {byte_trip_instrs} instructions in {trips} trips, the reference {tree_trip_instrs}"
    );
    eprintln!(
        "{runs} runs, {trips} trips, {early} caught early: {byte_trip_instrs} vs {tree_trip_instrs} trip instructions"
    );
}
