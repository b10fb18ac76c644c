//! Design-level differential tests of the simulator's runaway-loop
//! detector and its fast-forward of dead loop tails, on real
//! hybrid-testbench designs: seeded mutants of the dataset's looped
//! problems, and bit-flipped loop bounds. Each design runs three ways:
//! detection off, detection on with the fast-forward off, and both on.
//!
//! - With detection off every runaway runs to the step budget, so that
//!   run is the detector's reference: a run with detection on must
//!   reproduce its `$display` stream, end time, finish flag and error
//!   classification.
//! - With the fast-forward off every loop iteration is walked, so that
//!   run is the fast-forward's reference: a run with it on must
//!   reproduce all of the above and every simulator counter, tripped
//!   runs included, because the fast-forward charges what it skips
//!   exactly.

use correctbench_obs::{Counter, ObsStack};
use correctbench_tbgen::{elaborate_pair, generate_driver, generate_scenarios, limits_for};
use correctbench_verilog::{parse, Design, SimError, SimLimits, SimOutput, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One run's result and its simulator counters.
struct Observed {
    out: Result<SimOutput, SimError>,
    /// `sim_instrs`, `sim_events`, `nba_commits` and `sim_trip_instrs`.
    counters: [u64; 4],
    /// `sim_skipped_instrs`.
    skipped: u64,
}

impl Observed {
    fn instrs(&self) -> u64 {
        self.counters[0]
    }

    fn tripped(&self) -> bool {
        matches!(self.out, Err(SimError::EventBudgetExhausted))
    }
}

/// One run under an armed collector, cross-checked against the
/// wasted-work counters.
fn run_observed(
    design: &Arc<Design>,
    limits: SimLimits,
    detect: bool,
    fast_forward: bool,
) -> Observed {
    let _obs = ObsStack::enabled().install();
    let out = Simulator::with_limits(Arc::clone(design), limits)
        .detect_runaways(detect)
        .fast_forward_loops(fast_forward)
        .run();
    let obs = correctbench_obs::take_job().expect("collector armed");
    let instrs = obs.counter(Counter::SimInstrs);
    let tripped = matches!(out, Err(SimError::EventBudgetExhausted));
    assert_eq!(obs.counter(Counter::SimBudgetTrips), u64::from(tripped));
    let trip_instrs = obs.counter(Counter::SimTripInstrs);
    assert_eq!(trip_instrs, if tripped { instrs } else { 0 });
    let skipped = obs.counter(Counter::SimSkippedInstrs);
    assert!(
        skipped <= instrs,
        "skipped work is part of the retired work"
    );
    if !(detect && fast_forward) {
        assert_eq!(skipped, 0, "only the fast-forward skips");
    }
    Observed {
        counters: [
            instrs,
            obs.counter(Counter::SimEvents),
            obs.counter(Counter::NbaCommits),
            trip_instrs,
        ],
        skipped,
        out,
    }
}

fn assert_same_result(
    on: &Result<SimOutput, SimError>,
    off: &Result<SimOutput, SimError>,
    what: &str,
) {
    match (on, off) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.lines(), b.lines(), "{what}: output lines differ");
            assert_eq!(a.end_time, b.end_time, "{what}: end time differs");
            assert_eq!(a.finished, b.finished, "{what}: finish flag differs");
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{what}: errors differ");
        }
        (a, b) => panic!("{what}: detection changed whether the run errored: {a:?} vs {b:?}"),
    }
}

/// The three runs of one design: detection off, detection on with the
/// fast-forward off, and both on. Asserts that the last reproduces the
/// second exactly, counters included, and that both reproduce the first's
/// result, with no more work. Returns the detection-off run and the
/// fully-on run.
fn run_three_ways(design: &Arc<Design>, limits: SimLimits, what: &str) -> (Observed, Observed) {
    let off = run_observed(design, limits, false, false);
    let walked = run_observed(design, limits, true, false);
    let on = run_observed(design, limits, true, true);
    assert_same_result(&on.out, &walked.out, what);
    assert_eq!(
        on.counters, walked.counters,
        "{what}: counters (instrs, events, NBA commits, trip instrs) moved"
    );
    assert_same_result(&walked.out, &off.out, what);
    if off.tripped() {
        assert_eq!(off.instrs(), limits.max_steps + 1, "{what}");
        assert!(on.instrs() <= off.instrs(), "{what}");
    } else {
        assert_eq!(on.instrs(), off.instrs(), "{what}: same work");
    }
    (off, on)
}

/// Mutants per looped problem, and how many of them also run at the
/// natural `limits_for` budget (where the reference retires up to a few
/// million instructions per runaway).
const LOOP_MUTANTS: u64 = 40;
const NATURAL_BUDGET_MUTANTS: u64 = 3;

/// A budget tight enough to move long but finite loops (a bit-flipped
/// bound such as `i < 131080`) across the trip boundary.
const TIGHT_STEPS: u64 = 20_000;

fn looped_problems() -> Vec<correctbench_dataset::Problem> {
    let looped: Vec<_> = correctbench_dataset::all_problems()
        .into_iter()
        .filter(|p| p.golden_rtl.contains("for ("))
        .collect();
    assert_eq!(looped.len(), 9, "problems whose golden RTL has a loop");
    looped
}

fn problem(name: &str) -> correctbench_dataset::Problem {
    looped_problems()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no looped problem `{name}`"))
}

/// The problem's golden RTL with `from` replaced (exactly once) by `to`.
fn edited_rtl(p: &correctbench_dataset::Problem, from: &str, to: &str) -> String {
    assert_eq!(
        p.golden_rtl.matches(from).count(),
        1,
        "{}: `{from}`",
        p.name
    );
    p.golden_rtl.replace(from, to)
}

/// `dut` against the problem's generated driver, with the driver's
/// natural budget and `TIGHT_STEPS`.
fn with_driver(
    p: &correctbench_dataset::Problem,
    dut: &str,
    seed: u64,
) -> (Arc<Design>, [SimLimits; 2]) {
    let scenarios = generate_scenarios(p, seed);
    let driver = parse(&generate_driver(p, &scenarios)).expect("driver parses");
    let dut = parse(dut).expect("DUT parses");
    let design = Arc::new(elaborate_pair(&dut, &driver).expect("elaborate"));
    let natural = limits_for(&scenarios);
    let tight = SimLimits {
        max_steps: TIGHT_STEPS,
        ..natural
    };
    (design, [tight, natural])
}

#[test]
fn runaway_loop_mutants_agree_with_the_reference() {
    let looped = looped_problems();
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
                let (off, on) = run_three_ways(&design, *limits, &what);
                runs += 1;
                if off.tripped() {
                    trips += 1;
                    early += u64::from(on.instrs() < off.instrs());
                    on_trip_instrs += on.instrs();
                    off_trip_instrs += off.instrs();
                }
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

#[test]
fn bit_flipped_loop_bounds_fast_forward_exactly() {
    // The mutation that makes the dead tails: a bound with bit 14 or 17
    // flipped on, so every activation runs thousands of iterations past
    // the design's width.
    let cases = [
        ("priority_enc_8", 8),
        ("clz_8", 8),
        ("popcount_8", 8),
        ("majority_5", 5),
        ("reverse_16", 16),
    ];
    let (mut runs, mut fired, mut trips) = (0u64, 0u64, 0u64);
    let (mut skipped, mut instrs) = (0u64, 0u64);
    for (i, (name, width)) in cases.into_iter().enumerate() {
        let p = problem(name);
        let from = format!("i < {width};");
        for bit in [14, 17] {
            let dut = edited_rtl(&p, &from, &format!("i < {};", width | 1 << bit));
            let (design, budgets) = with_driver(&p, &dut, 41 + i as u64);
            for limits in budgets {
                let what = format!("{name} bit {bit} at {} steps", limits.max_steps);
                let (_, on) = run_three_ways(&design, limits, &what);
                runs += 1;
                fired += u64::from(on.skipped > 0);
                trips += u64::from(on.tripped());
                skipped += on.skipped;
                instrs += on.instrs();
            }
        }
    }
    assert_eq!(runs, 20);
    assert!(fired > 0, "the fast-forward never fired in {runs} runs");
    eprintln!(
        "{runs} runs, {trips} trips, the fast-forward fired in {fired}: {skipped} of {instrs} instructions skipped"
    );
}

#[test]
fn live_or_changing_loop_tails_are_walked() {
    // `gray_decode_8` counting down from 16390: the dead stretch comes
    // first, and the iterations at `i <= 7` are live.
    let p = problem("gray_decode_8");
    let dut = edited_rtl(&p, "i = 6;", "i = 16390;");
    let (design, budgets) = with_driver(&p, &dut, 5);
    for limits in budgets {
        let what = format!("gray_decode_8 from 16390 at {} steps", limits.max_steps);
        let (_, on) = run_three_ways(&design, limits, &what);
        assert_eq!(on.skipped, 0, "{what}: the fast-forward skipped");
    }
    // `clz_8` with a bit-flipped bound and `d == 0`: no bit is found, so
    // `n = n + 1` changes `n` on every iteration. Each change queues the
    // port connection's assign, so the delta limit is raised to let the
    // run end cleanly.
    let p = problem("clz_8");
    let dut = edited_rtl(&p, "i < 8;", "i < 16392;");
    let tb = "module tb;\n    reg [7:0] d;\n    wire [3:0] n;\n    clz_8 dut (.d(d), .n(n));\n    initial begin\n        #1 d = 8'h00;\n        #1 $display(\"n=%0d\", n);\n        $finish;\n    end\nendmodule\n";
    let file = parse(&format!("{dut}{tb}")).expect("parses");
    let design = Arc::new(correctbench_verilog::elaborate(&file, "tb").expect("elaborates"));
    let limits = SimLimits {
        max_deltas: 1 << 16,
        ..SimLimits::default()
    };
    let (_, on) = run_three_ways(&design, limits, "clz_8 with d == 0");
    assert!(on.out.is_ok_and(|o| o.finished), "clz_8 with d == 0");
    assert_eq!(on.skipped, 0, "clz_8 with d == 0: the fast-forward skipped");
}
