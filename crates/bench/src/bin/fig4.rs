//! Regenerates **Fig. 4** (example RS matrices): ASCII renderings of the
//! RTL–Scenario matrices of two correct testbenches and one wrong one,
//! showing the column signature that drives validation (`.` = green /
//! correct, `#` = red / wrong, `?` = no verdict).
//! Usage: `fig4 [--help] [SEED]`, the scenario and LLM seed (default
//! 2025); any other argument is a usage error (exit 2).

use correctbench::{build_rs_matrix, generate_rtl_group, judge, Config, EvalContext, HybridTb};
use correctbench_checker::compile_module;
use correctbench_harness::cli::print_or_exit;
use correctbench_llm::{CheckerArtifact, LlmClient, ModelKind, ModelProfile, SimulatedLlm};
use correctbench_tbgen::{generate_driver, generate_scenarios, Driver};
use rand::SeedableRng;

const USAGE: &str = "usage: fig4 [--help] [SEED]";

/// The seed the command line names, 2025 when it names none; anything
/// else is a usage error.
fn parse_seed() -> u64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let error = match args.as_slice() {
        [] => return 2025,
        [help, ..] if help == "--help" || help == "-h" => {
            print_or_exit(&format!("{USAGE}\n"));
            std::process::exit(0)
        }
        [seed, rest @ ..] => match (seed.parse(), rest.first()) {
            (Ok(seed), None) => return seed,
            (Ok(_), Some(extra)) => format!("unexpected argument `{extra}`"),
            (Err(_), _) => format!("`{seed}` is not a seed"),
        },
    };
    eprintln!("error: {error}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let cfg = Config::default();
    let seed = parse_seed();

    // Both `alu_8` panels share one RTL group's worth of simulations:
    // the simulation cache answers the repeats.
    let ctx = EvalContext {
        golden: None,
        ..EvalContext::cached()
    };

    for (title, name, inject) in [
        ("Correct TB (combinational task `alu_8`)", "alu_8", 0usize),
        ("Correct TB (sequential task `shift18`)", "shift18", 0),
        (
            "Wrong TB (checker with 2 injected defects, `alu_8`)",
            "alu_8",
            2,
        ),
    ] {
        let problem = correctbench_dataset::problem(name).expect("known problem");
        let scenarios = generate_scenarios(&problem, seed);
        let driver = Driver::new(generate_driver(&problem, &scenarios));
        let mut checker = CheckerArtifact::clean(
            compile_module(&problem.golden_module()).expect("golden checker"),
        );
        if inject > 0 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbad);
            correctbench_checker::mutate_ir(&mut checker.program, &mut rng, inject);
        }
        let tb = HybridTb {
            scenarios,
            driver,
            checker,
        };
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
        let rtls = generate_rtl_group(&problem, &mut llm, &cfg);
        let matrix = build_rs_matrix(&problem, &tb, &rtls, &ctx);
        let verdict = judge(&matrix, &cfg);
        print_or_exit(&format!(
            "== {title} ==\n{} RTL rows x {} scenario columns; verdict: {}\n{}\n",
            matrix.num_rtls(),
            matrix.num_scenarios(),
            if verdict.is_correct() {
                "correct"
            } else {
                "wrong"
            },
            matrix.to_ascii()
        ));
        let _ = llm.usage();
    }
    let stats = ctx.stats().sim.expect("sim layer");
    eprintln!("simulation cache: {stats}");
}
