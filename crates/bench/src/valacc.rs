//! Validator-accuracy experiments (paper Fig. 6a).
//!
//! A corpus of AutoBench-generated testbenches is labelled correct/wrong
//! by Eval2 (the paper labels its 1560 collected testbenches the same
//! way), then each validation criterion judges every testbench from the
//! *same* per-task RTL group, and accuracy is reported for all / correct /
//! wrong testbenches.

use correctbench::{
    build_rs_matrix, generate_autobench, generate_rtl_group, judge, Config, EvalContext, HybridTb,
    RsMatrix, ValidationCriterion,
};
use correctbench_autoeval::{evaluate, EvalLevel};
use correctbench_dataset::Problem;
use correctbench_harness::parallel_map;
use correctbench_llm::{ClientFactory, ModelKind, SimulatedClientFactory};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One labelled testbench with its precomputed RS matrix.
pub struct LabeledTb {
    /// The testbench (kept for diagnostics).
    pub tb: HybridTb,
    /// Eval2-based ground-truth label: `true` = correct.
    pub correct: bool,
    /// RS matrix against the task's shared RTL group.
    pub matrix: RsMatrix,
    /// `true` when the testbench is syntactically broken (validated wrong
    /// regardless of criterion).
    pub broken: bool,
}

/// The labelled corpus for one task.
pub struct TaskCorpus {
    /// The task.
    pub problem: Problem,
    /// Labelled testbenches.
    pub tbs: Vec<LabeledTb>,
}

/// Builds the labelled corpus: `per_task` AutoBench testbenches per
/// problem, labelled by Eval2, with RS matrices from one shared
/// 20-design RTL group per task.
pub fn collect_corpus(
    problems: &[Problem],
    per_task: usize,
    model: ModelKind,
    cfg: &Config,
    base_seed: u64,
    threads: usize,
) -> Vec<TaskCorpus> {
    let factory = SimulatedClientFactory::for_model(model);
    let ctx = EvalContext::cached();
    let mut corpora = parallel_map(threads, problems, |i, problem| {
        let seed = base_seed ^ (i as u64).wrapping_mul(0x9e37_79b9);
        let mut llm = factory.client(seed);
        // One shared RTL group per task, as in the paper, parsed once
        // for every testbench of the task.
        let rtls = generate_rtl_group(problem, &mut *llm, cfg);
        let mut tbs = Vec::with_capacity(per_task);
        for k in 0..per_task {
            let mut rng = StdRng::seed_from_u64(seed ^ (k as u64) << 32);
            let tb = generate_autobench(problem, &mut *llm, &mut rng);
            let correct = evaluate(problem, &tb, base_seed, &ctx) >= EvalLevel::Eval2;
            let broken = !tb.is_syntactically_valid();
            let matrix = if broken {
                RsMatrix::default()
            } else {
                build_rs_matrix(problem, &tb, &rtls, &ctx)
            };
            tbs.push(LabeledTb {
                tb,
                correct,
                matrix,
                broken,
            });
        }
        TaskCorpus {
            problem: problem.clone(),
            tbs,
        }
    });
    eprintln!("corpus: {}", ctx.stats());
    corpora.sort_by(|a, b| a.problem.name.cmp(&b.problem.name));
    corpora
}

/// Validation accuracies of one criterion over a corpus.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accuracy {
    /// Labelled-correct testbenches validated correct.
    pub true_correct: usize,
    /// Labelled-correct total.
    pub total_correct: usize,
    /// Labelled-wrong testbenches validated wrong.
    pub true_wrong: usize,
    /// Labelled-wrong total.
    pub total_wrong: usize,
}

impl Accuracy {
    /// Accuracy over all testbenches.
    pub fn total(&self) -> f64 {
        let n = self.total_correct + self.total_wrong;
        if n == 0 {
            0.0
        } else {
            (self.true_correct + self.true_wrong) as f64 / n as f64
        }
    }

    /// Accuracy over labelled-correct testbenches.
    pub fn on_correct(&self) -> f64 {
        if self.total_correct == 0 {
            0.0
        } else {
            self.true_correct as f64 / self.total_correct as f64
        }
    }

    /// Accuracy over labelled-wrong testbenches.
    pub fn on_wrong(&self) -> f64 {
        if self.total_wrong == 0 {
            0.0
        } else {
            self.true_wrong as f64 / self.total_wrong as f64
        }
    }
}

/// Judges every corpus testbench with `criterion` and tallies accuracy.
pub fn criterion_accuracy(corpora: &[TaskCorpus], criterion: ValidationCriterion) -> Accuracy {
    let cfg = Config {
        criterion,
        ..Config::default()
    };
    let mut acc = Accuracy::default();
    for corpus in corpora {
        for l in &corpus.tbs {
            let validated_correct = !l.broken && judge(&l.matrix, &cfg).is_correct();
            if l.correct {
                acc.total_correct += 1;
                if validated_correct {
                    acc.true_correct += 1;
                }
            } else {
                acc.total_wrong += 1;
                if !validated_correct {
                    acc.true_wrong += 1;
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_and_accuracy_smoke() {
        let problems: Vec<Problem> = ["and_8", "counter_8"]
            .iter()
            .map(|n| correctbench_dataset::problem(n).expect("problem"))
            .collect();
        let cfg = Config::default();
        let corpora = collect_corpus(&problems, 3, ModelKind::Gpt4o, &cfg, 5, 2);
        assert_eq!(corpora.len(), 2);
        assert_eq!(corpora[0].tbs.len(), 3);
        let acc = criterion_accuracy(&corpora, ValidationCriterion::Wrong70);
        assert_eq!(acc.total_correct + acc.total_wrong, 6);
        assert!(acc.total() > 0.0, "validator should get something right");
    }

    #[test]
    fn stricter_criterion_catches_more_wrong_tbs() {
        let problems: Vec<Problem> = ["alu_8", "lfsr_8", "mux4_8", "seq_det_101"]
            .iter()
            .map(|n| correctbench_dataset::problem(n).expect("problem"))
            .collect();
        let cfg = Config::default();
        let corpora = collect_corpus(&problems, 6, ModelKind::Gpt4oMini, &cfg, 11, 2);
        let a100 = criterion_accuracy(&corpora, ValidationCriterion::Wrong100);
        let a50 = criterion_accuracy(&corpora, ValidationCriterion::Wrong50);
        // Lower threshold => more aggressive wrong-flagging.
        assert!(
            a50.on_wrong() >= a100.on_wrong(),
            "50%-wrong {:.2} should catch at least as many wrong TBs as 100%-wrong {:.2}",
            a50.on_wrong(),
            a100.on_wrong()
        );
    }
}
