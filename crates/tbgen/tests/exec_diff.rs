//! Design-level differential test of the simulator's runaway-loop
//! detector: with detection on, a run must reproduce the run with
//! detection off — `$display` stream, end time, finish flag and error
//! classification — on real hybrid-testbench designs, seeded mutants of
//! the dataset's looped problems. With detection off every runaway runs
//! to the step budget, so the off run is the detector's reference.

use correctbench_obs::{Counter, ObsStack};
use correctbench_tbgen::{elaborate_pair, generate_driver, generate_scenarios, limits_for};
use correctbench_verilog::{parse, Design, SimError, SimLimits, SimOutput, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One run under an armed collector: the result and the instructions it
/// retired, cross-checked against the wasted-work counters.
fn run_observed(
    design: &Arc<Design>,
    limits: SimLimits,
    detect: bool,
) -> (Result<SimOutput, SimError>, u64) {
    let _obs = ObsStack::enabled().install();
    let out = Simulator::with_limits(Arc::clone(design), limits)
        .detect_runaways(detect)
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
    on: Result<SimOutput, SimError>,
    off: Result<SimOutput, SimError>,
    what: &str,
) {
    match (on, off) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.lines, b.lines, "{what}: output lines differ");
            assert_eq!(a.end_time, b.end_time, "{what}: end time differs");
            assert_eq!(a.finished, b.finished, "{what}: finish flag differs");
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{what}: errors differ");
        }
        (a, b) => panic!("{what}: detection changed whether the run errored: {a:?} vs {b:?}"),
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
    let (mut on_trip_instrs, mut off_trip_instrs) = (0u64, 0u64);
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
            let design = Arc::new(elaborate_pair(&dut, &driver).expect("elaborate"));
            let budgets: &[SimLimits] = if seed < NATURAL_BUDGET_MUTANTS {
                &[tight, natural]
            } else {
                &[tight]
            };
            for limits in budgets {
                let what = format!("{} mutant {seed} at {} steps", p.name, limits.max_steps);
                let (on, on_instrs) = run_observed(&design, *limits, true);
                let (off, off_instrs) = run_observed(&design, *limits, false);
                runs += 1;
                if matches!(off, Err(SimError::EventBudgetExhausted)) {
                    trips += 1;
                    assert_eq!(off_instrs, limits.max_steps + 1, "{what}");
                    assert!(on_instrs <= off_instrs, "{what}");
                    early += u64::from(on_instrs < off_instrs);
                    on_trip_instrs += on_instrs;
                    off_trip_instrs += off_instrs;
                } else {
                    assert_eq!(on_instrs, off_instrs, "{what}: same work");
                }
                assert_same_result(on, off, &what);
            }
        }
    }
    assert_eq!(runs, 9 * (LOOP_MUTANTS + NATURAL_BUDGET_MUTANTS));
    assert!(early > 0, "no runaway caught early in {trips} trips");
    assert!(
        on_trip_instrs < off_trip_instrs,
        "detection on retired {on_trip_instrs} instructions in {trips} trips, off {off_trip_instrs}"
    );
    eprintln!(
        "{runs} runs, {trips} trips, {early} caught early: {on_trip_instrs} vs {off_trip_instrs} trip instructions"
    );
}
