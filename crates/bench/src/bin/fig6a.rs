//! Regenerates **Fig. 6(a)** (validation accuracy among validators):
//! collects a corpus of AutoBench testbenches (the paper collects 1560 —
//! 10 per task), labels them with Eval2, and reports every criterion's
//! accuracy on all / correct / wrong testbenches. Pass `--full` for the
//! complete 156-task, 10-per-task corpus.
//!
//! An extra `no-row-rule` row ablates the 25%-green-row override of the
//! 70% criterion (see `ValidationCriterion::green_row_rule` in
//! `crates/core/src/config.rs`).

use correctbench::{Config, ValidationCriterion};
use correctbench_bench::valacc::{collect_corpus, criterion_accuracy};
use correctbench_bench::RunArgs;
use correctbench_llm::ModelKind;

fn main() {
    let args = RunArgs::parse(Some(48), 4);
    let problems = args.problem_set();
    let per_task = (args.reps as usize).max(1);
    eprintln!(
        "fig6a: {} problems x {} TBs each on {} threads",
        problems.len(),
        per_task,
        args.threads
    );
    let cfg = Config::default();
    let corpora = collect_corpus(
        &problems,
        per_task,
        ModelKind::Gpt4o,
        &cfg,
        args.seed,
        args.threads,
    );
    let total_tbs: usize = corpora.iter().map(|c| c.tbs.len()).sum();
    let correct_tbs: usize = corpora
        .iter()
        .map(|c| c.tbs.iter().filter(|t| t.correct).count())
        .sum();
    println!(
        "corpus: {total_tbs} testbenches ({correct_tbs} labelled correct, {} labelled wrong)\n",
        total_tbs - correct_tbs
    );
    println!("FIG 6(a): VALIDATION ACCURACY AMONG VALIDATORS");
    println!("criterion       total    correct-TBs  wrong-TBs");
    let criteria = [
        ValidationCriterion::Wrong100,
        ValidationCriterion::Wrong70,
        ValidationCriterion::Wrong50,
        ValidationCriterion::Custom {
            wrong_fraction: 0.7,
            green_row_rule: false,
        },
    ];
    for criterion in criteria {
        let acc = criterion_accuracy(&corpora, criterion);
        println!(
            "{:<15} {:>6.2}%  {:>10.2}%  {:>8.2}%",
            criterion.name(),
            acc.total() * 100.0,
            acc.on_correct() * 100.0,
            acc.on_wrong() * 100.0
        );
    }
}
