//! Regenerates **Table III** (contributions of validator and corrector):
//! the CorrectBench-vs-AutoBench gain in average Eval2-passed tasks,
//! split into tasks where the validator intervened ("Val.") and tasks
//! whose final testbench came from the corrector ("Corr.").

use correctbench::{Config, Method};
use correctbench_bench::experiment::{render_table3, run_sweep};
use correctbench_bench::RunArgs;
use correctbench_harness::cli::print_or_exit;
use correctbench_llm::ModelKind;

fn main() {
    let args = RunArgs::parse(Some(48), 2);
    let problems = args.problem_set();
    eprintln!(
        "table3: {} problems x {} reps on {} threads",
        problems.len(),
        args.reps,
        args.threads
    );
    let records = run_sweep(
        &problems,
        &[Method::CorrectBench, Method::AutoBench],
        ModelKind::Gpt4o,
        args.reps,
        &Config::default(),
        args.seed,
        args.threads,
    );
    print_or_exit(&format!("{}\n", render_table3(&records)));
}
