//! The calibrated stochastic LLM.
//!
//! [`SimulatedLlm`] answers [`LlmRequest`]s by perturbing golden
//! artifacts: generated RTL is the golden module with a geometric number
//! of AST mutations (and occasional source-level syntax corruption);
//! generated checkers are the compiled golden IR with injected
//! [`correctbench_checker::IrMutation`]s; drivers occasionally drop a
//! scenario or break
//! syntactically. Rates come from the [`ModelProfile`] scaled by task
//! difficulty.
//!
//! The corrector model is *mechanistic*, not oracular: when the pipeline
//! hands back the validator's bug report, each remaining defect is
//! independently repaired with the profile's fix probability, and fresh
//! defects occasionally slip in — matching how a real LLM patches the
//! flagged lines of its Python checker, usually but not always correctly.

use crate::client::Defect;
use crate::client::*;
use crate::profile::ModelProfile;
use crate::tokens::{estimate_tokens, TokenUsage};
use correctbench_checker::{compile_module, mutate_ir_once};
use correctbench_dataset::Problem;
use correctbench_tbgen::{generate_driver, generate_scenarios, ScenarioSet};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::corrupt::corrupt_source;
use correctbench_verilog::mutate::mutate_module;
use correctbench_verilog::pretty::print_file;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The offline stand-in for a commercial LLM.
pub struct SimulatedLlm {
    profile: ModelProfile,
    rng: StdRng,
    usage: TokenUsage,
    /// Maps hash(broken source) → pristine source so syntax repair can
    /// return the same artifact with the damage undone.
    repair_cache: HashMap<u64, String>,
    /// Per-task systematic-misunderstanding state, drawn once per task.
    confusion: HashMap<String, bool>,
    /// The last golden RTL text served and its parse: every RTL and
    /// checker request of a task starts from the same golden design, so
    /// it is parsed once per task, not once per request. Keyed on the
    /// text itself, so an edited golden is never served a stale parse.
    golden: Option<(String, SourceFile)>,
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

impl SimulatedLlm {
    /// Creates a simulated model with `profile`, deterministic in `seed`.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        SimulatedLlm {
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x11_a6_0d_e1),
            usage: TokenUsage::new(),
            repair_cache: HashMap::new(),
            confusion: HashMap::new(),
            golden: None,
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Geometric sample with mean `lambda` (capped).
    fn sample_defects(&mut self, lambda: f64) -> usize {
        let p_more = lambda / (1.0 + lambda);
        let mut k = 0;
        while k < 5 && self.rng.gen_bool(p_more) {
            k += 1;
        }
        k
    }

    fn account(&mut self, input: u64, output: u64) {
        self.usage.add(TokenUsage {
            input_tokens: input,
            output_tokens: output,
            requests: 1,
        });
    }

    fn maybe_corrupt(&mut self, pristine: String, rate: f64) -> String {
        if self.rng.gen_bool(rate.clamp(0.0, 0.99)) {
            let broken = corrupt_source(&pristine, &mut self.rng);
            self.repair_cache.insert(hash_str(&broken), pristine);
            broken
        } else {
            pristine
        }
    }

    /// The parse of `problem`'s golden RTL (see [`SimulatedLlm::golden`]).
    fn golden(&mut self, problem: &Problem) -> &SourceFile {
        if self
            .golden
            .as_ref()
            .is_some_and(|(text, _)| *text != problem.golden_rtl)
        {
            self.golden = None;
        }
        let (_, file) = self.golden.get_or_insert_with(|| {
            let file = correctbench_verilog::parse(&problem.golden_rtl)
                .expect("golden RTL parses by dataset invariant");
            (problem.golden_rtl.clone(), file)
        });
        file
    }

    fn gen_rtl(&mut self, problem: &Problem, lambda: f64, syntax_rate: f64) -> String {
        let mut file = self.golden(problem).clone();
        let k = self.sample_defects(lambda);
        if let Some(m) = file.module_mut(&problem.name) {
            mutate_module(m, &mut self.rng, k);
        }
        let pristine = print_file(&file);
        self.maybe_corrupt(pristine, syntax_rate)
    }

    /// Whether this client systematically misunderstands `problem`
    /// (drawn once per task; persists across corrections and reboots).
    fn is_confused(&mut self, problem: &Problem) -> bool {
        if let Some(&c) = self.confusion.get(&problem.name) {
            return c;
        }
        let p = self.profile.confusion_for(problem);
        let c = self.rng.gen_bool(p.clamp(0.0, 0.99));
        self.confusion.insert(problem.name.clone(), c);
        c
    }

    fn gen_checker(&mut self, problem: &Problem, lambda: f64, syntax_rate: f64) -> CheckerArtifact {
        let golden = self
            .golden(problem)
            .module(&problem.name)
            .expect("golden RTL defines the problem's module by dataset invariant");
        let mut program =
            compile_module(golden).expect("golden RTL compiles to checker IR by dataset invariant");
        let k = self.sample_defects(lambda);
        let mut defects = Vec::new();
        if self.is_confused(problem) {
            // The same misunderstanding every time: a defect chosen
            // deterministically from the task name, unfixable by
            // correction (regenerations re-derive it identically).
            let mut det = StdRng::seed_from_u64(hash_str(&problem.name) ^ 0xc0f);
            if let Some(m) = mutate_ir_once(&mut program, &mut det) {
                defects.push(Defect {
                    mutation: m,
                    fixable: false,
                });
            }
        }
        for _ in 0..k {
            if let Some(m) = mutate_ir_once(&mut program, &mut self.rng) {
                defects.push(Defect {
                    mutation: m,
                    fixable: true,
                });
            }
        }
        let broken = self.rng.gen_bool(syntax_rate.clamp(0.0, 0.99));
        CheckerArtifact {
            program,
            defects,
            broken,
        }
    }

    fn gen_driver(
        &mut self,
        problem: &Problem,
        scenarios: &ScenarioSet,
        drop_rate: f64,
        syntax_rate: f64,
    ) -> String {
        let mut pristine = generate_driver(problem, scenarios);
        if scenarios.len() >= 3 && self.rng.gen_bool(drop_rate.clamp(0.0, 0.99)) {
            // The model "forgets" one or two scenarios: excise the stanzas.
            let drops = 1 + self.rng.gen_range(0..2);
            for _ in 0..drops {
                let victim = self.rng.gen_range(1..=scenarios.len());
                pristine = drop_scenario_stanza(&pristine, victim, scenarios.len());
            }
        }
        self.maybe_corrupt(pristine, syntax_rate)
    }
}

/// Removes scenario `victim`'s stimulus block from driver source.
fn drop_scenario_stanza(src: &str, victim: usize, total: usize) -> String {
    let start_marker = format!("// Scenario {victim}:");
    let Some(start) = src.find(&start_marker) else {
        return src.to_string();
    };
    let end = if victim == total {
        src[start..]
            .find("$finish;")
            .map(|o| start + o)
            .unwrap_or(src.len())
    } else {
        let next_marker = format!("// Scenario {}:", victim + 1);
        src[start..]
            .find(&next_marker)
            .map(|o| start + o)
            .unwrap_or(src.len())
    };
    format!("{}{}", &src[..start], &src[end..])
}

impl LlmClient for SimulatedLlm {
    fn request(&mut self, req: &LlmRequest<'_>) -> LlmResponse {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Llm);
        match req {
            LlmRequest::GenerateScenarios { problem } => {
                let seed = self.rng.gen();
                let scenarios = generate_scenarios(problem, seed);
                let out = (scenarios.total_stimuli() as u64) * 12;
                self.account(estimate_tokens(&problem.spec), out);
                LlmResponse::Scenarios(scenarios)
            }
            LlmRequest::GenerateDriver { problem, scenarios } => {
                let src = self.gen_driver(
                    problem,
                    scenarios,
                    self.profile.scenario_drop_rate,
                    self.profile
                        .syntax_rate_for(self.profile.driver_syntax_error_rate, problem),
                );
                self.account(
                    estimate_tokens(&problem.spec) + scenarios.total_stimuli() as u64 * 12,
                    estimate_tokens(&src),
                );
                LlmResponse::Source(src)
            }
            LlmRequest::GenerateChecker { problem } => {
                let lambda = self.profile.checker_lambda_for(problem);
                let rate = self
                    .profile
                    .syntax_rate_for(self.profile.checker_syntax_error_rate, problem);
                let art = self.gen_checker(problem, lambda, rate);
                let out = (art.program.len() as u64) * 8;
                self.account(estimate_tokens(&problem.spec), out);
                LlmResponse::Checker(art)
            }
            LlmRequest::GenerateRtl { problem } => {
                let lambda = self.profile.rtl_lambda_for(problem);
                let rate = self
                    .profile
                    .syntax_rate_for(self.profile.rtl_syntax_error_rate, problem);
                let src = self.gen_rtl(problem, lambda, rate);
                self.account(estimate_tokens(&problem.spec), estimate_tokens(&src));
                LlmResponse::Source(src)
            }
            LlmRequest::GenerateDirectTestbench { problem } => {
                // Single-shot generation: no structured prompting, so the
                // scenario list is thinner and everything is buggier.
                let seed = self.rng.gen();
                let mut scenarios = generate_scenarios(problem, seed);
                let keep = (scenarios.len() * 5).div_ceil(10).max(3);
                scenarios.scenarios.truncate(keep);
                let driver = self.gen_driver(
                    problem,
                    &scenarios,
                    (self.profile.scenario_drop_rate * 2.5).min(0.6),
                    self.profile.syntax_rate_for(
                        self.profile.driver_syntax_error_rate
                            * self.profile.direct_syntax_multiplier,
                        problem,
                    ),
                );
                let checker = self.gen_checker(
                    problem,
                    self.profile.checker_lambda_for(problem)
                        * self.profile.direct_defect_multiplier,
                    self.profile.syntax_rate_for(
                        self.profile.checker_syntax_error_rate
                            * self.profile.direct_syntax_multiplier,
                        problem,
                    ),
                );
                let out = estimate_tokens(&driver) + (checker.program.len() as u64) * 8;
                self.account(estimate_tokens(&problem.spec), out);
                LlmResponse::DirectTestbench {
                    scenarios,
                    driver,
                    checker,
                }
            }
            LlmRequest::FixSyntax {
                problem,
                kind: _,
                broken_source,
            } => {
                let pristine = self.repair_cache.get(&hash_str(broken_source)).cloned();
                let fixed = if self.rng.gen_bool(self.profile.fix_syntax_success_rate) {
                    pristine.unwrap_or_else(|| broken_source.to_string())
                } else {
                    // The repair attempt produced another broken variant.
                    match pristine {
                        Some(p) => {
                            let again = corrupt_source(&p, &mut self.rng);
                            self.repair_cache.insert(hash_str(&again), p);
                            again
                        }
                        None => broken_source.to_string(),
                    }
                };
                self.account(
                    estimate_tokens(&problem.spec) + estimate_tokens(broken_source),
                    estimate_tokens(&fixed),
                );
                LlmResponse::Source(fixed)
            }
            LlmRequest::FixBrokenChecker { problem, artifact } => {
                let mut fixed = (*artifact).clone();
                if self.rng.gen_bool(self.profile.fix_syntax_success_rate) {
                    fixed.broken = false;
                }
                let out = (fixed.program.len() as u64) * 8;
                self.account(estimate_tokens(&problem.spec) + out, out);
                LlmResponse::Checker(fixed)
            }
            LlmRequest::ReasonAboutBugs {
                problem,
                checker,
                report,
            } => {
                // Stage 1 of the corrector: why / where / how. The text
                // itself only matters for token accounting.
                let text = format!(
                    "1. The failing scenarios {:?} share a root cause in the \
                     reference model for `{}`. 2. The affected logic is in \
                     the checker's datapath nodes. 3. Recompute the \
                     reference values for the flagged scenarios; scenarios \
                     {:?} are consistent and {:?} lack information.",
                    report.wrong, problem.name, report.correct, report.uncertain
                );
                let input = estimate_tokens(&problem.spec)
                    + (checker.program.len() as u64) * 8
                    + (report.wrong.len() + report.correct.len() + report.uncertain.len()) as u64
                        * 3;
                self.account(input, estimate_tokens(&text));
                LlmResponse::Reasoning(text)
            }
            LlmRequest::CorrectChecker {
                problem,
                checker,
                report,
                reasoning,
            } => {
                let mut fixed = (*checker).clone();
                // Bug information makes repair effective; without any
                // flagged scenario the model is patching blind.
                let p_fix = if report.wrong.is_empty() {
                    self.profile.fix_defect_success_rate * 0.3
                } else {
                    self.profile.fix_defect_success_rate
                };
                // Revert in reverse injection order: mutations overlapping
                // on one node only restore last-in-first-out.
                let defects: Vec<Defect> = fixed.defects.drain(..).collect();
                let mut remaining = Vec::new();
                for defect in defects.into_iter().rev() {
                    if defect.fixable && self.rng.gen_bool(p_fix) {
                        defect.mutation.revert(&mut fixed.program);
                    } else {
                        remaining.push(defect);
                    }
                }
                remaining.reverse();
                fixed.defects = remaining;
                if self.rng.gen_bool(self.profile.fix_new_defect_rate) {
                    if let Some(m) = mutate_ir_once(&mut fixed.program, &mut self.rng) {
                        fixed.defects.push(Defect {
                            mutation: m,
                            fixable: true,
                        });
                    }
                }
                let out = (fixed.program.len() as u64) * 8;
                self.account(
                    estimate_tokens(&problem.spec) + estimate_tokens(reasoning) + out,
                    out,
                );
                LlmResponse::Checker(fixed)
            }
        }
    }

    fn usage(&self) -> TokenUsage {
        self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelKind;
    use correctbench_dataset::problem;

    fn client(seed: u64) -> SimulatedLlm {
        SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed)
    }

    #[test]
    fn rtl_generation_is_imperfect_but_mostly_parseable() {
        let p = problem("alu_8").expect("problem");
        let mut c = client(1);
        let mut parse_ok = 0;
        let mut differs = 0;
        for _ in 0..40 {
            let LlmResponse::Source(src) = c.request(&LlmRequest::GenerateRtl { problem: &p })
            else {
                panic!("wrong response kind");
            };
            if correctbench_verilog::parse(&src).is_ok() {
                parse_ok += 1;
            }
            if !src.contains("assign y = ") || src != p.golden_rtl {
                differs += 1;
            }
        }
        assert!(parse_ok >= 25, "only {parse_ok}/40 parsed");
        assert!(differs > 0);
    }

    #[test]
    fn checker_defects_follow_difficulty() {
        let easy = problem("and_8").expect("cmb");
        let hard = problem("seq_det_1101").expect("seq");
        let mut c = client(2);
        let count = |c: &mut SimulatedLlm, p: &Problem| -> usize {
            (0..60)
                .map(|_| {
                    let LlmResponse::Checker(a) =
                        c.request(&LlmRequest::GenerateChecker { problem: p })
                    else {
                        panic!("wrong response kind");
                    };
                    a.defects.len()
                })
                .sum()
        };
        let easy_total = count(&mut c, &easy);
        let hard_total = count(&mut c, &hard);
        assert!(
            hard_total > easy_total * 2,
            "hard {hard_total} vs easy {easy_total}"
        );
    }

    #[test]
    fn syntax_repair_round_trips() {
        let p = problem("counter_8").expect("problem");
        let mut c = SimulatedLlm::new(
            ModelProfile {
                driver_syntax_error_rate: 1.0,
                fix_syntax_success_rate: 1.0,
                ..ModelProfile::for_model(ModelKind::Gpt4o)
            },
            3,
        );
        let scenarios = generate_scenarios(&p, 9);
        let LlmResponse::Source(broken) = c.request(&LlmRequest::GenerateDriver {
            problem: &p,
            scenarios: &scenarios,
        }) else {
            panic!("wrong response kind");
        };
        assert!(correctbench_verilog::parse(&broken).is_err() || !broken.is_empty());
        let LlmResponse::Source(fixed) = c.request(&LlmRequest::FixSyntax {
            problem: &p,
            kind: ArtifactKind::Driver,
            broken_source: &broken,
        }) else {
            panic!("wrong response kind");
        };
        correctbench_verilog::parse(&fixed).expect("repaired driver parses");
    }

    #[test]
    fn corrector_fixes_with_bug_info() {
        let p = problem("alu_8").expect("problem");
        let mut c = SimulatedLlm::new(
            ModelProfile {
                checker_defect_lambda: 3.0,
                fix_defect_success_rate: 1.0,
                fix_new_defect_rate: 0.0,
                checker_syntax_error_rate: 0.0,
                confusion_rate: 0.0,
                ..ModelProfile::for_model(ModelKind::Gpt4o)
            },
            4,
        );
        let LlmResponse::Checker(art) = c.request(&LlmRequest::GenerateChecker { problem: &p })
        else {
            panic!("wrong response kind");
        };
        assert!(!art.defects.is_empty());
        let report = BugReport {
            wrong: vec![2, 5],
            correct: vec![1, 3],
            uncertain: vec![],
        };
        let LlmResponse::Checker(fixed) = c.request(&LlmRequest::CorrectChecker {
            problem: &p,
            checker: &art,
            report: &report,
            reasoning: "scenario 2 and 5 relate to the add path",
        }) else {
            panic!("wrong response kind");
        };
        assert!(fixed.defects.is_empty(), "p_fix = 1 must clear all defects");
        // Fully reverted program equals the golden compile.
        let golden = compile_module(&p.golden_module()).expect("golden checker");
        assert_eq!(fixed.program, golden);
    }

    #[test]
    fn direct_testbench_is_thinner() {
        let p = problem("counter_8").expect("problem");
        let mut c = client(5);
        let LlmResponse::DirectTestbench { scenarios, .. } =
            c.request(&LlmRequest::GenerateDirectTestbench { problem: &p })
        else {
            panic!("wrong response kind");
        };
        assert!(scenarios.len() < p.scenario_spec.scenarios);
    }

    #[test]
    fn tokens_accumulate() {
        let p = problem("and_8").expect("problem");
        let mut c = client(6);
        assert_eq!(c.usage().requests, 0);
        let _ = c.request(&LlmRequest::GenerateScenarios { problem: &p });
        let _ = c.request(&LlmRequest::GenerateChecker { problem: &p });
        let u = c.usage();
        assert_eq!(u.requests, 2);
        assert!(u.input_tokens > 0 && u.output_tokens > 0);
    }

    #[test]
    fn confusion_persists_across_generations_and_corrections() {
        // A confused task re-derives the same unfixable defect in every
        // generation, and corrections never remove it.
        let p = problem("seq_det_1101").expect("problem");
        let mut c = SimulatedLlm::new(
            ModelProfile {
                confusion_rate: 10.0, // clamped to certainty
                checker_defect_lambda: 0.0,
                checker_syntax_error_rate: 0.0,
                fix_defect_success_rate: 1.0,
                fix_new_defect_rate: 0.0,
                ..ModelProfile::for_model(ModelKind::Gpt4o)
            },
            9,
        );
        let mut first_desc = None;
        for _ in 0..4 {
            let LlmResponse::Checker(a) = c.request(&LlmRequest::GenerateChecker { problem: &p })
            else {
                panic!("wrong response kind");
            };
            assert_eq!(a.defects.len(), 1);
            assert!(!a.defects[0].fixable);
            let desc = a.defects[0].mutation.description.clone();
            match &first_desc {
                None => first_desc = Some(desc),
                Some(d) => assert_eq!(&desc, d, "systematic defect must repeat"),
            }
            // Correction with perfect fix rate still cannot remove it.
            let report = BugReport {
                wrong: vec![1],
                correct: vec![],
                uncertain: vec![],
            };
            let LlmResponse::Checker(fixed) = c.request(&LlmRequest::CorrectChecker {
                problem: &p,
                checker: &a,
                report: &report,
                reasoning: "",
            }) else {
                panic!("wrong response kind");
            };
            assert_eq!(fixed.defects.len(), 1, "unfixable defect survives");
        }
    }

    #[test]
    fn unconfused_client_generates_clean_checkers_sometimes() {
        let p = problem("and_8").expect("problem");
        let mut c = SimulatedLlm::new(
            ModelProfile {
                confusion_rate: 0.0,
                ..ModelProfile::for_model(ModelKind::Gpt4o)
            },
            10,
        );
        let clean = (0..30)
            .filter(|_| {
                let LlmResponse::Checker(a) =
                    c.request(&LlmRequest::GenerateChecker { problem: &p })
                else {
                    panic!("wrong response kind");
                };
                a.defects.is_empty()
            })
            .count();
        assert!(clean >= 15, "only {clean}/30 clean for an easy task");
    }

    #[test]
    fn golden_parse_follows_an_edited_golden() {
        // The client keeps one golden parse, keyed on the golden text:
        // a problem whose golden RTL changed between requests (as under
        // `--mutate-golden`) is served from the new text.
        let p = problem("and_8").expect("problem");
        let mut edited = p.clone();
        edited.golden_rtl = p.golden_rtl.replace('&', "|");
        assert_ne!(edited.golden_rtl, p.golden_rtl);
        let mut c = SimulatedLlm::new(
            ModelProfile {
                rtl_defect_lambda: 0.0,
                rtl_syntax_error_rate: 0.0,
                ..ModelProfile::for_model(ModelKind::Gpt4o)
            },
            11,
        );
        for golden in [&p, &edited, &p] {
            let LlmResponse::Source(src) = c.request(&LlmRequest::GenerateRtl { problem: golden })
            else {
                panic!("wrong response kind");
            };
            let expected =
                print_file(&correctbench_verilog::parse(&golden.golden_rtl).expect("parses"));
            assert_eq!(src, expected);
        }
    }

    #[test]
    fn hash_str_is_pinned() {
        // `hash_str` seeds a confused task's unfixable defect, so the
        // outcome digests rest on it. It uses std's `DefaultHasher`,
        // whose output std does not promise across releases: a toolchain
        // that moves it fails here instead of moving every digest with
        // nothing pointing at the cause.
        assert_eq!(hash_str("and_8"), 7584082820148334490);
        assert_eq!(hash_str("counter_8"), 8853505055396346708);
    }

    #[test]
    fn deterministic_in_seed() {
        let p = problem("alu_8").expect("problem");
        let run = |seed| {
            let mut c = client(seed);
            let LlmResponse::Source(s) = c.request(&LlmRequest::GenerateRtl { problem: &p }) else {
                panic!("wrong response kind");
            };
            s
        };
        assert_eq!(run(7), run(7));
    }
}
