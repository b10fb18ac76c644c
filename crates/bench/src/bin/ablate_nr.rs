//! Ablation: validator RTL-group size NR (paper fixes NR = 20). Sweeps
//! NR and reports validation accuracy of the 70%-wrong criterion — more
//! rows mean more voting evidence per column.

use correctbench::{Config, ValidationCriterion};
use correctbench_bench::valacc::{collect_corpus, criterion_accuracy};
use correctbench_bench::RunArgs;
use correctbench_harness::cli::print_or_exit;
use correctbench_llm::ModelKind;

fn main() {
    let args = RunArgs::parse(Some(24), 4);
    let problems = args.problem_set();
    print_or_exit(
        "ABLATION: VALIDATOR RTL GROUP SIZE (criterion 70%-wrong)\nNR   total-acc  correct-TB-acc  wrong-TB-acc\n",
    );
    for nr in [5usize, 10, 20, 40] {
        let cfg = Config {
            num_validation_rtls: nr,
            ..Config::default()
        };
        let corpora = collect_corpus(
            &problems,
            args.reps as usize,
            ModelKind::Gpt4o,
            &cfg,
            args.seed,
            args.threads,
        );
        let acc = criterion_accuracy(&corpora, ValidationCriterion::Wrong70);
        print_or_exit(&format!(
            "{:<4} {:>8.2}%  {:>13.2}%  {:>11.2}%\n",
            nr,
            acc.total() * 100.0,
            acc.on_correct() * 100.0,
            acc.on_wrong() * 100.0
        ));
    }
}
