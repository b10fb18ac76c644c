//! A testbench run elaborates the DUT and the driver from their own
//! parses (`elaborate_files`) instead of joining the two ASTs into one
//! file. The design must be exactly the one elaborating the joined text
//! gives — pinned here for every problem, with the golden DUT and with a
//! seeded mutant, and, for a driver that redefines the DUT's module or
//! instantiates an unknown one, the error must be the same.

use correctbench_suite::dataset::all_problems;
use correctbench_suite::tbgen::{generate_driver, generate_scenarios, TB_MODULE};
use correctbench_suite::verilog::mutate::mutate_module;
use correctbench_suite::verilog::pretty::print_file;
use correctbench_suite::verilog::{elaborate, elaborate_files, parse};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn elaborating_handed_parses_equals_elaborating_the_joined_text() {
    let problems = all_problems();
    assert_eq!(problems.len(), 156);
    let mut rng = StdRng::seed_from_u64(0xe1ab);
    let mut mutants_elaborated = 0;
    for p in &problems {
        let scenarios = generate_scenarios(p, 0x5eed);
        let driver_text = generate_driver(p, &scenarios);
        let driver = parse(&driver_text).expect("driver parses");
        let golden = parse(&p.golden_rtl).expect("golden parses");
        let mut mutant = golden.clone();
        mutate_module(mutant.module_mut(&p.name).expect("module"), &mut rng, 2);
        for (what, dut_text) in [
            ("golden", p.golden_rtl.clone()),
            ("mutant", print_file(&mutant)),
        ] {
            let dut = parse(&dut_text).expect("dut parses");
            let joined = parse(&format!("{dut_text}\n{driver_text}")).expect("joined parses");
            let handed = elaborate_files(&[&dut, &driver], TB_MODULE);
            assert!(
                handed.is_ok() || what == "mutant",
                "{} ({what}): {handed:?}",
                p.name
            );
            mutants_elaborated += usize::from(what == "mutant" && handed.is_ok());
            assert!(
                handed == elaborate(&joined, TB_MODULE),
                "{} ({what}): the design differs from the joined text's",
                p.name
            );
        }

        let redefining = format!("{driver_text}\nmodule {};\nendmodule\n", p.name);
        let instance = format!("    {} dut (", p.name);
        assert!(driver_text.contains(&instance), "{}: instance line", p.name);
        let unknown = driver_text.replacen(&instance, "    no_such_module dut (", 1);
        for (what, text) in [
            ("redefines the DUT", redefining),
            ("unknown module", unknown),
        ] {
            let driver = parse(&text).expect("driver parses");
            let joined = parse(&format!("{}\n{text}", p.golden_rtl)).expect("joined parses");
            let handed = elaborate_files(&[&golden, &driver], TB_MODULE);
            assert!(handed.is_err(), "{} ({what}): elaborated", p.name);
            assert_eq!(
                handed.err(),
                elaborate(&joined, TB_MODULE).err(),
                "{} ({what}): errors differ",
                p.name
            );
        }
    }
    assert!(
        mutants_elaborated > problems.len() / 2,
        "only {mutants_elaborated} mutants elaborated"
    );
}
