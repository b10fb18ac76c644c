//! Ablation: the agent's iteration budgets I_C^max (corrections per
//! reboot cycle; paper 3) and I_R^max (reboots; paper 10). Reports the
//! Eval2 pass ratio and token cost per configuration — correction is the
//! cheap knob, rebooting the expensive one.

use correctbench::{Config, Method};
use correctbench_bench::experiment::run_sweep;
use correctbench_bench::RunArgs;
use correctbench_harness::cli::print_or_exit;
use correctbench_harness::summarize;
use correctbench_llm::ModelKind;

fn main() {
    let args = RunArgs::parse(Some(24), 2);
    let problems = args.problem_set();
    print_or_exit("ABLATION: AGENT ITERATION BUDGETS\nI_C  I_R  Eval2-pass  tokens/task\n");
    for (ic, ir) in [(0u32, 10u32), (1, 10), (3, 10), (3, 3), (3, 0), (6, 10)] {
        let cfg = Config {
            max_corrections: ic,
            max_reboots: ir,
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
            "{:<4} {:<4} {:>8.2}%  {:>9.1}k\n",
            ic,
            ir,
            cell.ratio(2) * 100.0,
            (cell.mean_input_tokens + cell.mean_output_tokens) / 1000.0
        ));
    }
}
