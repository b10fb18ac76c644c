//! Property tests over real dataset-shaped modules: pretty-printing is a
//! parser fixpoint, and stays one under arbitrary semantic mutation.

use correctbench_verilog::mutate::mutate_module;
use correctbench_verilog::parser::parse;
use correctbench_verilog::pretty::print_file;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A corpus of golden sources spanning every construct the printer and
/// parser must agree on (pulled from the dataset at test time so the
/// corpus tracks the real workload).
fn corpus() -> Vec<String> {
    correctbench_dataset::all_problems()
        .into_iter()
        .map(|p| p.golden_rtl)
        .collect()
}

#[test]
fn print_is_parser_fixpoint_for_all_golden_rtl() {
    for src in corpus() {
        let f1 = parse(&src).expect("golden parses");
        let p1 = print_file(&f1);
        let f2 = parse(&p1).unwrap_or_else(|e| panic!("reprint does not parse: {e}\n{p1}"));
        let p2 = print_file(&f2);
        assert_eq!(p1, p2, "printer not a fixpoint for:\n{src}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn mutants_roundtrip(problem_idx in 0usize..156, seed: u64, n in 1usize..4) {
        let problems = correctbench_dataset::all_problems();
        let p = &problems[problem_idx];
        let mut file = parse(&p.golden_rtl).expect("golden parses");
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(m) = file.module_mut(&p.name) {
            mutate_module(m, &mut rng, n);
        }
        let printed = print_file(&file);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("mutant does not reparse: {e}\n{printed}"));
        let reprinted = print_file(&reparsed);
        prop_assert_eq!(printed, reprinted);
    }

}

/// Every golden, mutated at 32 seeds once with one mutation and once with
/// two: each mutant prints, reparses and elaborates.
#[test]
fn mutants_still_elaborate() {
    for p in correctbench_dataset::all_problems() {
        let golden = parse(&p.golden_rtl).expect("golden parses");
        for seed in 0..32u64 {
            for n in [1, 2] {
                let mut file = golden.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                if let Some(m) = file.module_mut(&p.name) {
                    mutate_module(m, &mut rng, n);
                }
                let printed = print_file(&file);
                let at = format!("{} seed {seed}, {n} mutations", p.name);
                let reparsed = parse(&printed)
                    .unwrap_or_else(|e| panic!("{at}: mutant does not reparse: {e}\n{printed}"));
                correctbench_verilog::elaborate(&reparsed, &p.name)
                    .unwrap_or_else(|e| panic!("{at}: mutant does not elaborate: {e}\n{printed}"));
            }
        }
    }
}
