//! A testbench run elaborates the DUT and the driver from their own
//! parses (`elaborate_files`) instead of joining the two ASTs into one
//! file. The design must be exactly the one elaborating the joined text
//! gives — pinned here for every problem, with the golden DUT and with a
//! seeded mutant, and, for a driver that redefines the DUT's module or
//! instantiates an unknown one, the error must be the same.
//!
//! A session goes one step further: it elaborates a driver's testbench
//! once, with the DUT instance left as a hole (`TbTemplate`), and links
//! each DUT into it. The linked design, or the error, must be exactly
//! what `elaborate_files` gives for the pair — pinned here for every
//! problem's clean and syntax-corrupted drivers against golden, mutant,
//! corrupted and hand-broken DUTs.

use correctbench_suite::dataset::{all_problems, Problem};
use correctbench_suite::tbgen::{generate_driver, generate_scenarios, TB_MODULE};
use correctbench_suite::verilog::ast::SourceFile;
use correctbench_suite::verilog::corrupt::{corrupt_source, corrupt_source_with, CorruptionKind};
use correctbench_suite::verilog::mutate::mutate_module;
use correctbench_suite::verilog::pretty::print_file;
use correctbench_suite::verilog::{elaborate, elaborate_files, parse, TbTemplate};
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

/// Seeded corruptions tried per driver (of each random kind, and of a
/// mangled identifier, which often leaves a driver elaborating) and per
/// golden DUT; those that still parse join the matrix.
const CORRUPTIONS: usize = 3;

/// `text` with `line` inserted before its last `endmodule`.
fn before_endmodule(text: &str, line: &str) -> String {
    let end = text.rfind("endmodule").expect("a module");
    format!("{}{line}\n{}", &text[..end], &text[end..])
}

/// The DUTs every driver of `p` is linked with: the golden DUT, two
/// seeded mutants, the corruptions that still parse, and three made by
/// hand: one that reads an undeclared name, one whose `$display` has the
/// record grammar (it interns a record format before the testbench's),
/// and a file that also defines `tb`.
fn duts(p: &Problem, rng: &mut StdRng) -> Vec<(String, SourceFile)> {
    let golden = parse(&p.golden_rtl).expect("golden parses");
    let mut duts = vec![("golden".to_string(), golden.clone())];
    for k in 0..2 {
        let mut mutant = golden.clone();
        mutate_module(mutant.module_mut(&p.name).expect("module"), rng, 2);
        duts.push((format!("mutant {k}"), mutant));
    }
    for k in 0..CORRUPTIONS {
        if let Ok(dut) = parse(&corrupt_source(&p.golden_rtl, rng)) {
            duts.push((format!("corruption {k}"), dut));
        }
    }
    for (what, text) in [
        (
            "undeclared read",
            before_endmodule(&p.golden_rtl, "wire probe;\nassign probe = no_such_signal;"),
        ),
        (
            "record display",
            before_endmodule(
                &p.golden_rtl,
                "initial $display(\"scenario: %0d, probe = %0d\", 0, 1'b1);",
            ),
        ),
        (
            "defines tb",
            format!("{}\nmodule {TB_MODULE};\nendmodule\n", p.golden_rtl),
        ),
    ] {
        let dut = parse(&text).expect("hand-made DUT parses");
        duts.push((what.to_string(), dut));
    }
    duts
}

#[test]
fn linking_into_the_template_equals_elaborating_the_pair() {
    let problems = all_problems();
    let mut rng = StdRng::seed_from_u64(0x11_4c);
    let (mut drivers, mut templates, mut designs, mut errors) = (0, 0, 0, 0);
    for p in &problems {
        let scenarios = generate_scenarios(p, 0x5eed);
        let clean = generate_driver(p, &scenarios);
        let instance = format!("    {} dut (", p.name);
        let mut texts = vec![
            ("clean".to_string(), clean.clone()),
            (
                "redefines the DUT".to_string(),
                format!("{clean}\nmodule {};\nendmodule\n", p.name),
            ),
            (
                "unknown module".to_string(),
                clean.replacen(&instance, "    no_such_module dut (", 1),
            ),
        ];
        for k in 0..CORRUPTIONS {
            let random = corrupt_source(&clean, &mut rng);
            let mangled = corrupt_source_with(&clean, CorruptionKind::MangleIdent, &mut rng);
            texts.push((format!("corruption {k}"), random));
            texts.push((format!("mangled identifier {k}"), mangled));
        }
        let duts = duts(p, &mut rng);
        for (what, text) in &texts {
            let Ok(driver) = parse(text) else {
                continue;
            };
            drivers += 1;
            let template = TbTemplate::new(&driver, TB_MODULE, &p.name);
            let clean = what == "clean";
            if clean || what == "redefines the DUT" || what == "unknown module" {
                assert_eq!(template.is_some(), clean, "{} ({what}): template", p.name);
            }
            let Some(template) = template else {
                continue;
            };
            templates += 1;
            for (dut_what, dut) in &duts {
                let linked = template.link(dut, &driver);
                assert!(
                    linked == elaborate_files(&[dut, &driver], TB_MODULE),
                    "{} ({what} driver, {dut_what} DUT): linking differs from the pair",
                    p.name
                );
                if clean {
                    let ok = matches!(dut_what.as_str(), "golden" | "record display");
                    let err = matches!(dut_what.as_str(), "undeclared read" | "defines tb");
                    assert!(
                        (!ok || linked.is_ok()) && (!err || linked.is_err()),
                        "{} ({dut_what} DUT): {linked:?}",
                        p.name
                    );
                }
                match linked {
                    Ok(_) => designs += 1,
                    Err(_) => errors += 1,
                }
            }
        }
    }
    assert!(
        templates > 2 * problems.len(),
        "only {templates} of {drivers} drivers have a template"
    );
    assert!(
        designs > 8 * problems.len(),
        "only {designs} linked designs"
    );
    assert!(errors > 3 * problems.len(), "only {errors} linking errors");
}
