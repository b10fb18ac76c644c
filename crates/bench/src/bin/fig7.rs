//! Regenerates **Fig. 7** (performance on different LLMs): the stacked
//! Eval2 / Eval1 / Eval0 / Failed distribution of each method under the
//! gpt-4o, claude-3.5-sonnet and gpt-4o-mini profiles.

use correctbench::{Config, Method};
use correctbench_autoeval::EvalLevel;
use correctbench_bench::experiment::run_sweep;
use correctbench_bench::RunArgs;
use correctbench_harness::cli::print_or_exit;
use correctbench_harness::summarize;
use correctbench_llm::ModelKind;

fn main() {
    let args = RunArgs::parse(Some(36), 1);
    let problems = args.problem_set();
    eprintln!(
        "fig7: {} problems x {} reps x 3 methods x 3 models on {} threads",
        problems.len(),
        args.reps,
        args.threads
    );
    print_or_exit("FIG 7: PERFORMANCE OF CORRECTBENCH ON DIFFERENT LLMS\n");
    for model in ModelKind::ALL {
        print_or_exit(&format!(
            "\n-- {model} --\nmethod        Eval2    Eval1    Eval0    Failed\n"
        ));
        let records = run_sweep(
            &problems,
            &Method::ALL,
            model,
            args.reps,
            &Config::default(),
            args.seed,
            args.threads,
        );
        for method in Method::ALL {
            let m = summarize(records.iter().filter(|r| r.method == method));
            let pct =
                |lvl: EvalLevel| m.at_level[lvl as usize] as f64 / m.runs.max(1) as f64 * 100.0;
            print_or_exit(&format!(
                "{:<13} {:>5.1}%  {:>6.1}%  {:>6.1}%  {:>6.1}%\n",
                method.name(),
                pct(EvalLevel::Eval2),
                pct(EvalLevel::Eval1),
                pct(EvalLevel::Eval0),
                pct(EvalLevel::Failed)
            ));
        }
    }
}
