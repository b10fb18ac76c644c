//! Quickstart: run the full CorrectBench loop on one task and evaluate
//! the resulting testbench.
//!
//! ```text
//! cargo run --release --example quickstart [problem-name]
//! ```

use correctbench_suite::autoeval::evaluate;
use correctbench_suite::core::{run_correctbench, Config, EvalContext};
use correctbench_suite::llm::{LlmClient, ModelKind, ModelProfile, SimulatedLlm};
use rand::SeedableRng;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "shift18".to_string());
    let problem = correctbench_suite::dataset::problem(&name)
        .unwrap_or_else(|| panic!("unknown problem `{name}`; see `dataset::all_problems()`"));

    println!(
        "== task: {} ({:?}, {:?}) ==",
        problem.name, problem.kind, problem.difficulty
    );
    println!("{}\n", problem.spec);

    let cfg = Config::default();
    let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 2025);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2025);
    let ctx = EvalContext::cached();
    let outcome = run_correctbench(&problem, &mut llm, &cfg, &mut rng, &ctx);

    println!("pipeline finished:");
    println!("  actions            : {:?}", outcome.trace);
    println!("  corrections        : {}", outcome.corrections);
    println!("  reboots            : {}", outcome.reboots);
    println!("  validator accepted : {}", outcome.validated);
    println!(
        "  tokens             : {} in / {} out over {} requests",
        outcome.tokens.input_tokens, outcome.tokens.output_tokens, outcome.tokens.requests
    );

    let level = evaluate(&problem, &outcome.tb, 2025, &ctx);
    println!("  AutoEval level     : {}", level.name());

    println!("\ngenerated driver (first 30 lines):");
    for line in outcome.tb.driver.text().lines().take(30) {
        println!("  {line}");
    }
    let _ = llm.usage();
}
