//! Compares the three generation methods (CorrectBench / AutoBench /
//! direct baseline) on a handful of tasks — a miniature Table I.
//!
//! ```text
//! cargo run --release --example compare_methods
//! ```

use correctbench_suite::autoeval::evaluate;
use correctbench_suite::core::{run_method, Config, EvalContext, Method};
use correctbench_suite::llm::{ModelKind, ModelProfile, SimulatedLlm};
use rand::SeedableRng;

fn main() {
    let names = [
        "adder_8",
        "mux6_4",
        "priority_enc_8",
        "counter_8",
        "shift18",
        "seq_det_101",
    ];
    let cfg = Config::default();
    // One context for the whole table: its caches share the golden
    // fixtures and repeated simulations across methods and tasks.
    let ctx = EvalContext::cached();

    println!(
        "{:<16} {:<14} {:<12} {:<10} (AutoEval level per method)",
        "task", "CorrectBench", "AutoBench", "Baseline"
    );
    for name in names {
        let problem = correctbench_suite::dataset::problem(name).expect("known problem");
        let mut cells = Vec::new();
        for (i, method) in Method::ALL.iter().enumerate() {
            let mut llm =
                SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 42 + i as u64);
            let mut rng = rand::rngs::StdRng::seed_from_u64(42 + i as u64);
            let outcome = run_method(*method, &problem, &mut llm, &cfg, &mut rng, &ctx);
            cells.push(evaluate(&problem, &outcome.tb, 42, &ctx).name().to_string());
        }
        println!(
            "{:<16} {:<14} {:<12} {:<10}",
            name, cells[0], cells[1], cells[2]
        );
    }
    println!("\nEval2 = discriminates like the golden testbench (the paper's pass metric).");
}
