//! A session judges a run's records from the values its record displays
//! were captured as, not from their text. Reading those values must give
//! exactly the records that rendering them and parsing the lines back
//! gives, and judging them must give exactly the reference run's
//! verdicts — pinned here for every problem's generated driver at two
//! scenario seeds and for its syntax-corrupted variants that still parse
//! and elaborate, against the golden DUT and a seeded mutant.

use correctbench_suite::checker::compile_module;
use correctbench_suite::dataset::all_problems;
use correctbench_suite::tbgen::{
    elaborate_pair, generate_driver, generate_scenarios, limits_for, parse_records, record_format,
    reference_run, typed_records, EvalContext, EvalSession,
};
use correctbench_suite::verilog::corrupt::{corrupt_source, corrupt_source_with, CorruptionKind};
use correctbench_suite::verilog::mutate::mutate_module;
use correctbench_suite::verilog::{parse, Printed, RecordFormat, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Corrupted variants tried per driver: of each random kind, and of a
/// mangled identifier, which often lands inside the record format and
/// leaves the driver parsing and elaborating.
const RANDOM_CORRUPTIONS: usize = 2;
const MANGLED_IDENTS: usize = 3;

#[test]
fn the_typed_view_reads_and_judges_like_the_text_view() {
    let problems = all_problems();
    assert_eq!(problems.len(), 156);
    let mut rng = StdRng::seed_from_u64(0x7e_c0);
    let ctx = EvalContext::default();
    let (mut runs, mut corrupted_runs, mut typed, mut rendered) = (0, 0, 0, 0);
    for p in &problems {
        let names: Vec<&str> = p
            .ports
            .iter()
            .filter(|port| port.name != "clk")
            .map(|port| port.name.as_str())
            .collect();
        let format = RecordFormat::parse(&record_format(p))
            .unwrap_or_else(|| panic!("{}: the record format is not recognised", p.name));
        assert_eq!(format.names, names, "{}", p.name);

        let checker = compile_module(&p.golden_module()).expect("checker");
        let golden = parse(&p.golden_rtl).expect("golden parses");
        let mut mutant = golden.clone();
        mutate_module(mutant.module_mut(&p.name).expect("module"), &mut rng, 2);
        let mut session = EvalSession::new(p, &checker, &ctx).expect("session");
        for seed in [0x5eed, 7] {
            let scenarios = generate_scenarios(p, seed);
            let clean = generate_driver(p, &scenarios);
            let mut drivers = vec![clean.clone()];
            drivers.extend((0..RANDOM_CORRUPTIONS).map(|_| corrupt_source(&clean, &mut rng)));
            drivers.extend(
                (0..MANGLED_IDENTS)
                    .map(|_| corrupt_source_with(&clean, CorruptionKind::MangleIdent, &mut rng)),
            );
            for (i, text) in drivers.iter().enumerate() {
                let Ok(driver) = parse(text) else {
                    continue;
                };
                for (what, dut) in [("golden", &golden), ("mutant", &mutant)] {
                    let Ok(design) = elaborate_pair(dut, &driver) else {
                        assert!(i > 0 || what == "mutant", "{}: {what} fails", p.name);
                        continue;
                    };
                    runs += 1;
                    corrupted_runs += usize::from(i > 0);
                    if let Ok(out) = Simulator::with_limits(design, limits_for(&scenarios)).run() {
                        for printed in out.printed() {
                            match printed {
                                Printed::Record { .. } => typed += 1,
                                Printed::Line(_) => rendered += 1,
                            }
                        }
                        let records = typed_records(&out);
                        let parsed = parse_records(&out.lines());
                        assert_eq!(records.len(), parsed.len(), "{} ({what})", p.name);
                        for (k, (a, b)) in records.iter().zip(&parsed).enumerate() {
                            assert_eq!(a, b, "{} ({what}, driver {i}): record {k}", p.name);
                        }
                    }
                    assert_eq!(
                        session.run(dut, &driver, &scenarios),
                        reference_run(dut, &driver, &checker, p, &scenarios),
                        "{} ({what}, driver {i}, seed {seed})",
                        p.name
                    );
                }
            }
        }
    }
    assert!(runs > 4 * problems.len(), "only {runs} runs");
    assert!(
        corrupted_runs > problems.len(),
        "only {corrupted_runs} runs of corrupted drivers"
    );
    // A mangled format name leaves its display to the text path.
    assert!(
        typed > 10 * rendered && rendered > 0,
        "{typed} displays captured as values, {rendered} rendered"
    );
}
