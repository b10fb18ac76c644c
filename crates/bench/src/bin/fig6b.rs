//! Regenerates **Fig. 6(b)** (framework performance and token cost per
//! validation criterion): runs the whole CorrectBench loop under each
//! criterion and reports the Eval2 pass ratio together with mean
//! input/output tokens per task.

use correctbench::{Config, Method, ValidationCriterion};
use correctbench_bench::experiment::run_sweep;
use correctbench_bench::RunArgs;
use correctbench_harness::cli::print_or_exit;
use correctbench_harness::summarize;
use correctbench_llm::ModelKind;

fn main() {
    let args = RunArgs::parse(Some(36), 2);
    let problems = args.problem_set();
    eprintln!(
        "fig6b: {} problems x {} reps x 3 criteria on {} threads",
        problems.len(),
        args.reps,
        args.threads
    );
    print_or_exit(
        "FIG 6(b): CORRECTBENCH PERFORMANCE WITH DIFFERENT VALIDATION CRITERIA\ncriterion    Eval2-pass   in-tokens/task  out-tokens/task\n",
    );
    for criterion in [
        ValidationCriterion::Wrong100,
        ValidationCriterion::Wrong70,
        ValidationCriterion::Wrong50,
    ] {
        let cfg = Config {
            criterion,
            ..Config::default()
        };
        let records = run_sweep(
            &problems,
            &[Method::CorrectBench],
            ModelKind::Gpt4o,
            args.reps,
            &cfg,
            args.seed,
            args.threads,
        );
        let cell = summarize(&records);
        print_or_exit(&format!(
            "{:<12} {:>8.2}%   {:>12.1}k  {:>13.1}k\n",
            criterion.name(),
            cell.ratio(2) * 100.0,
            cell.mean_input_tokens / 1000.0,
            cell.mean_output_tokens / 1000.0
        ));
    }
}
