//! The CorrectBench action-agent loop (paper Algorithm 1).
//!
//! ```text
//! TB ← F_g(SPEC)
//! while action ≠ Pass:
//!     verdict, bugs ← F_v(TB)
//!     if wrong and I_C < I_C^max:  action = Correcting; TB ← F_c(TB, bugs)
//!     elif wrong and I_R < I_R^max: action = Rebooting;  TB ← F_g(SPEC)
//!     else:                         action = Pass
//! ```

use crate::config::Config;
use crate::corrector::correct;
use crate::generator::{generate_autobench, generate_direct};
use crate::validator::{validate, Verdict};
use correctbench_dataset::Problem;
use correctbench_llm::{HybridTb, LlmClient, TokenUsage};
use correctbench_tbgen::EvalContext;
use rand::Rng;

/// The agent's actions, recorded for tracing and attribution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Action {
    /// The corrector was invoked.
    Correcting,
    /// Generation was restarted from scratch.
    Rebooting,
    /// The loop ended with the validator judging the testbench correct
    /// (or the method never validates, as for AutoBench / Baseline).
    Pass,
    /// The loop ended because the correction and reboot budgets were
    /// exhausted while the verdict was still wrong.
    GiveUp,
}

impl Action {
    /// Short stable name used in artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Action::Correcting => "correct",
            Action::Rebooting => "reboot",
            Action::Pass => "pass",
            Action::GiveUp => "give_up",
        }
    }
}

/// Which generation method produced a testbench (the paper's three
/// comparison columns).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// The full framework with validation and correction.
    CorrectBench,
    /// The prior-work generator alone.
    AutoBench,
    /// Single-shot direct generation.
    Baseline,
}

impl Method {
    /// All three methods in paper column order.
    pub const ALL: [Method; 3] = [Method::CorrectBench, Method::AutoBench, Method::Baseline];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::CorrectBench => "CorrectBench",
            Method::AutoBench => "AutoBench",
            Method::Baseline => "Baseline",
        }
    }
}

/// The result of running a generation method on one task.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The final testbench.
    pub tb: HybridTb,
    /// `true` when the last validation said "correct" (CorrectBench only;
    /// other methods never validate).
    pub validated: bool,
    /// Number of correction rounds performed.
    pub corrections: u32,
    /// Number of reboots performed.
    pub reboots: u32,
    /// `true` when the final testbench's checker came out of the
    /// corrector (Table III "Corr." attribution).
    pub final_from_corrector: bool,
    /// `true` when the validator rejected at least one candidate along
    /// the way (Table III "Val." attribution). Set directly when a
    /// [`Verdict::Wrong`] is observed — including a final wrong verdict
    /// with exhausted budgets, where the trace alone could not tell.
    pub validator_intervened: bool,
    /// Action trace in order.
    pub trace: Vec<Action>,
    /// Token usage attributable to this task.
    pub tokens: TokenUsage,
}

impl Outcome {
    /// `true` when the loop ended by exhausting its budgets rather than
    /// by a validated pass (always `false` for non-validating methods).
    pub fn gave_up(&self) -> bool {
        self.trace.last() == Some(&Action::GiveUp)
    }
}

/// Runs the full CorrectBench loop on one task; every validation runs
/// in `ctx`.
pub fn run_correctbench(
    problem: &Problem,
    llm: &mut dyn LlmClient,
    cfg: &Config,
    rng: &mut impl Rng,
    ctx: &EvalContext,
) -> Outcome {
    let start = llm.usage();
    let mut corrections = 0u32;
    let mut reboots = 0u32;
    let mut trace = Vec::new();
    let mut final_from_corrector = false;

    let mut tb = generate_autobench(problem, llm, rng);
    let mut validated = false;
    let mut validator_intervened = false;
    loop {
        let v = validate(problem, &tb, llm, cfg, ctx);
        match v.verdict {
            Verdict::Correct => {
                validated = true;
                trace.push(Action::Pass);
                break;
            }
            Verdict::Wrong(report) => {
                validator_intervened = true;
                if corrections < cfg.max_corrections {
                    trace.push(Action::Correcting);
                    corrections += 1;
                    tb = correct(problem, &tb, &report, llm);
                    final_from_corrector = true;
                } else if reboots < cfg.max_reboots {
                    trace.push(Action::Rebooting);
                    reboots += 1;
                    corrections = 0;
                    tb = generate_autobench(problem, llm, rng);
                    final_from_corrector = false;
                } else {
                    trace.push(Action::GiveUp);
                    break;
                }
            }
        }
    }

    Outcome {
        tb,
        validated,
        corrections,
        reboots,
        final_from_corrector,
        validator_intervened,
        trace,
        tokens: llm.usage().since(start),
    }
}

/// Runs plain AutoBench (generation + self-enhancement, no validation).
pub fn run_autobench(problem: &Problem, llm: &mut dyn LlmClient, rng: &mut impl Rng) -> Outcome {
    let start = llm.usage();
    let tb = generate_autobench(problem, llm, rng);
    Outcome {
        tb,
        validated: false,
        corrections: 0,
        reboots: 0,
        final_from_corrector: false,
        validator_intervened: false,
        trace: vec![Action::Pass],
        tokens: llm.usage().since(start),
    }
}

/// Runs the single-shot baseline.
pub fn run_baseline(problem: &Problem, llm: &mut dyn LlmClient) -> Outcome {
    let start = llm.usage();
    let tb = generate_direct(problem, llm);
    Outcome {
        tb,
        validated: false,
        corrections: 0,
        reboots: 0,
        final_from_corrector: false,
        validator_intervened: false,
        trace: vec![Action::Pass],
        tokens: llm.usage().since(start),
    }
}

/// Dispatches on [`Method`]; only CorrectBench runs testbenches, in
/// `ctx`.
pub fn run_method(
    method: Method,
    problem: &Problem,
    llm: &mut dyn LlmClient,
    cfg: &Config,
    rng: &mut impl Rng,
    ctx: &EvalContext,
) -> Outcome {
    match method {
        Method::CorrectBench => run_correctbench(problem, llm, cfg, rng, ctx),
        Method::AutoBench => run_autobench(problem, llm, rng),
        Method::Baseline => run_baseline(problem, llm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctbench_llm::{ModelKind, ModelProfile, SimulatedLlm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correctbench_terminates_and_traces() {
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let cfg = Config {
            max_reboots: 2,
            ..Config::default()
        };
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 41);
        let mut rng = StdRng::seed_from_u64(41);
        let out = run_correctbench(&p, &mut llm, &cfg, &mut rng, &EvalContext::default());
        let last = *out.trace.last().expect("trace");
        assert!(matches!(last, Action::Pass | Action::GiveUp));
        assert_eq!(last == Action::Pass, out.validated);
        assert_eq!(last == Action::GiveUp, out.gave_up());
        assert!(out.tokens.requests > 0);
        assert!(out.corrections <= cfg.max_corrections);
        assert!(out.reboots <= cfg.max_reboots);
    }

    #[test]
    fn easy_task_usually_validates() {
        let p = correctbench_dataset::problem("and_8").expect("problem");
        // Small reboot budget keeps the (rare) confused seeds cheap.
        let cfg = Config {
            max_reboots: 2,
            ..Config::default()
        };
        let mut validated = 0;
        for seed in 0..10u64 {
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            if run_correctbench(&p, &mut llm, &cfg, &mut rng, &EvalContext::default()).validated {
                validated += 1;
            }
        }
        assert!(validated >= 8, "only {validated}/10 validated");
    }

    #[test]
    fn methods_differ_in_token_cost() {
        let p = correctbench_dataset::problem("seq_det_101").expect("problem");
        let cfg = Config::default();
        let ctx = EvalContext::default();
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 5);
        let mut rng = StdRng::seed_from_u64(5);
        let cb = run_method(Method::CorrectBench, &p, &mut llm, &cfg, &mut rng, &ctx);
        let mut llm2 = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 5);
        let base = run_method(Method::Baseline, &p, &mut llm2, &cfg, &mut rng, &ctx);
        assert!(cb.tokens.total() > base.tokens.total());
    }

    #[test]
    fn attribution_flags_consistent() {
        let p = correctbench_dataset::problem("lfsr_8").expect("problem");
        let cfg = Config {
            max_reboots: 3,
            ..Config::default()
        };
        for seed in 0..6u64 {
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = run_correctbench(&p, &mut llm, &cfg, &mut rng, &EvalContext::default());
            if out.final_from_corrector {
                assert!(out.validator_intervened);
                assert!(out.corrections > 0);
            }
            if !out.validator_intervened {
                assert_eq!(out.corrections, 0);
                assert_eq!(out.reboots, 0);
            }
        }
    }
}
