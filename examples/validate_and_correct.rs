//! The paper's Fig. 5 scenario on the `shift18` arithmetic shifter: a
//! testbench whose checker mishandles the arithmetic right shift is
//! caught by the RS-matrix validator (the wrong scenarios light up as red
//! columns) and repaired by the two-stage corrector using the bug report.
//!
//! ```text
//! cargo run --release --example validate_and_correct
//! ```

use correctbench_suite::checker::compile_module;
use correctbench_suite::core::{
    build_rs_matrix, correct, generate_rtl_group, judge, Config, EvalContext, HybridTb, Verdict,
};
use correctbench_suite::llm::{CheckerArtifact, ModelKind, ModelProfile, SimulatedLlm};
use correctbench_suite::tbgen::{generate_driver, generate_scenarios, Driver};

fn main() {
    let problem = correctbench_suite::dataset::problem("shift18").expect("shift18 in dataset");
    let cfg = Config::default();

    // A testbench whose checker carries injected defects — the stand-in
    // for the LLM's buggy Python checker in Fig. 5.
    let scenarios = generate_scenarios(&problem, 99);
    let driver = Driver::new(generate_driver(&problem, &scenarios));
    let mut checker =
        CheckerArtifact::clean(compile_module(&problem.golden_module()).expect("golden checker"));
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let defects = correctbench_suite::checker::mutate_ir(&mut checker.program, &mut rng, 2);
    println!("injected checker defects:");
    for d in &defects {
        println!("  - {}", d.description);
    }
    checker.defects = defects
        .into_iter()
        .map(|mutation| correctbench_suite::llm::Defect {
            mutation,
            fixable: true,
        })
        .collect();
    let tb = HybridTb {
        scenarios,
        driver,
        checker,
    };

    // Validate: build the RS matrix from 20 imperfect RTL generations.
    let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 77);
    let rtls = generate_rtl_group(&problem, &mut llm, &cfg);
    let ctx = EvalContext::cached();
    let matrix = build_rs_matrix(&problem, &tb, &rtls, &ctx);
    println!(
        "\nRS matrix ({} RTLs x {} scenarios):",
        matrix.num_rtls(),
        matrix.num_scenarios()
    );
    print!("{}", matrix.to_ascii());

    let verdict = judge(&matrix, &cfg);
    match &verdict {
        Verdict::Correct => {
            println!("validator says: correct (the defects were unobservable this time)");
        }
        Verdict::Wrong(report) => {
            println!("validator says: WRONG");
            println!("  wrong scenarios     : {:?}", report.wrong);
            println!("  correct scenarios   : {:?}", report.correct);
            println!("  uncertain scenarios : {:?}", report.uncertain);

            // Correct using the bug information (two-stage conversation).
            let fixed = correct(&problem, &tb, report, &mut llm);
            println!(
                "\nafter correction: {} of {} defects remain",
                fixed.checker.defects.len(),
                tb.checker.defects.len()
            );
            let matrix2 = build_rs_matrix(&problem, &fixed, &rtls, &ctx);
            let verdict2 = judge(&matrix2, &cfg);
            println!(
                "re-validation verdict: {}",
                if verdict2.is_correct() {
                    "correct"
                } else {
                    "still wrong"
                }
            );
            print!("{}", matrix2.to_ascii());
        }
    }
}
