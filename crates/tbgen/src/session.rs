//! Session-oriented evaluation: the way every testbench runs.
//!
//! Every experiment in the reproduction bottoms out in *sweeps* — the
//! validator's RS matrix runs one driver against a whole RTL group,
//! Eval2 replays one testbench against ten mutants, repetition sweeps
//! re-run near-identical pairs. An [`EvalSession`] is pinned to one
//! `(problem, checker)` pair and owns, across arbitrarily many runs:
//!
//! * the **judging checker** ([`JudgeSession`]) — the IR's slot file
//!   allocated and its inputs resolved to positions once, stepped
//!   positionally ever after;
//! * the **record bindings** — each checker input and output given a
//!   slot once, with its port width;
//! * the **judging buffers** (per-scenario flags, positional inputs).
//!
//! A session takes the [`SimCache`] and the simulation budget of the
//! [`EvalContext`] it is built with: [`EvalSession::run`] consults the
//! cache first, so a repeated pair costs one lookup. The [`CacheKey`]
//! holds the pair's fingerprints, two fixed for the session (the
//! checker's and the module interface's) and the two counts of the
//! scenario schedule a run reads; the stimuli themselves are in the
//! driver. A miss clamps the
//! run's limits to the budget, elaborates the pair and runs one fresh
//! [`Simulator`] — the simulation half [`crate::reference_run`] runs too
//! — and judges the records with the session's checker.
//!
//! The judge reads the run's typed view ([`SimOutput::printed`]), not its
//! text. Each record format's field names are resolved to binding slots
//! once per run, the first occurrence of a name winning as in
//! [`Record::field`], and each record display's values are read with the
//! text semantics, as [`typed_records`] reads them. The rare line of any
//! other display goes through [`parse_record`] and a per-record binding,
//! in print order. So no record is rendered, parsed or looked up by name.
//! The results equal [`crate::reference_run`]'s (the same simulation, its
//! text view parsed, the interpreted checker), which this module's tests
//! and `tests/typed_records.rs` pin run by run.
//!
//! [`Simulator`]: correctbench_verilog::Simulator
//! [`Record::field`]: crate::Record::field
//! [`typed_records`]: crate::typed_records

use crate::cache::{CacheKey, SimCache};
use crate::context::EvalContext;
use crate::record::{parse_record, read_values, FieldValue, RecordBinding};
use crate::runner::{limits_for, simulate_records, ScenarioResult, TbError, TbRun};
use crate::scenarios::ScenarioSet;
use correctbench_checker::{CheckerProgram, JudgeSession};
use correctbench_dataset::Problem;
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::{fingerprint, Fingerprint};
use correctbench_verilog::{LogicVec, Printed, SimLimits, SimOutput};
use std::sync::Arc;

/// A reusable evaluation session for one `(problem, checker)` pair.
///
/// # Examples
///
/// Sweep one driver across an RTL group (the RS-matrix shape):
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use correctbench_tbgen::{generate_driver, generate_scenarios, EvalContext, EvalSession};
///
/// let problem = correctbench_dataset::problem("adder_8").expect("known problem");
/// let scenarios = generate_scenarios(&problem, 42);
/// let driver = correctbench_verilog::parse(&generate_driver(&problem, &scenarios))?;
/// let checker = correctbench_checker::compile_module(&problem.golden_module())?;
/// let dut = correctbench_verilog::parse(&problem.golden_rtl)?;
///
/// let mut session = EvalSession::new(&problem, &checker, &EvalContext::default())?;
/// for run in session.sweep_mutants(std::slice::from_ref(&dut), &driver, &scenarios) {
///     assert!(run?.all_pass());
/// }
/// # Ok(())
/// # }
/// ```
pub struct EvalSession {
    /// [`CacheKey`] components fixed for the session, computed once in
    /// [`EvalSession::new`].
    checker_fp: Fingerprint,
    problem_fp: Fingerprint,
    /// The context's simulation cache, consulted before every run.
    cache: Option<Arc<SimCache>>,
    /// The context's simulation budget, clamping every run's limits.
    sim_budget: Option<u64>,
    /// Record-field resolution for the checker's inputs and outputs
    /// (first-occurrence semantics, exactly like [`Record::field`]).
    ///
    /// [`Record::field`]: crate::Record::field
    binding: RecordBinding,
    /// The current record display's field values.
    fields: Vec<FieldValue>,
    verdicts: Verdicts,
}

/// The judging checker and the verdicts of the stream it is judging.
struct Verdicts {
    judge: JudgeSession,
    /// Per checker input: its binding slot and the port width the
    /// record prints it at.
    input_slots: Vec<(usize, usize)>,
    /// Binding slot per checker output.
    output_slots: Vec<usize>,
    /// Positional step buffer, `input_slots`-parallel.
    input_buf: Vec<LogicVec>,
    seen: Vec<bool>,
    failed: Vec<bool>,
}

impl EvalSession {
    /// Builds a session: prepares the checker's slot file, resolves the
    /// record bindings, and keeps `ctx`'s simulation cache and budget.
    /// One-time cost, amortized over every subsequent run.
    ///
    /// # Errors
    ///
    /// [`TbError::Checker`] when the checker program is malformed (the
    /// same class the interpreter rejects at judge time).
    pub fn new(
        problem: &Problem,
        checker: &CheckerProgram,
        ctx: &EvalContext,
    ) -> Result<EvalSession, TbError> {
        let judge = JudgeSession::new(checker)?;
        let mut binding = RecordBinding::default();
        let input_slots = crate::runner::bind_inputs(&mut binding, checker, &problem.ports);
        let output_slots = checker
            .outputs
            .iter()
            .map(|o| binding.slot(&o.name))
            .collect();
        let input_buf = input_slots
            .iter()
            .map(|(_, w)| LogicVec::filled_x((*w).max(1)))
            .collect();
        Ok(EvalSession {
            checker_fp: checker.fingerprint(),
            problem_fp: fingerprint(&(&problem.name, &problem.ports)),
            cache: ctx.sim.clone(),
            sim_budget: ctx.sim_budget,
            binding,
            fields: Vec::new(),
            verdicts: Verdicts {
                judge,
                input_slots,
                output_slots,
                input_buf,
                seen: Vec::new(),
                failed: Vec::new(),
            },
        })
    }

    /// Runs the hybrid testbench against one DUT, with the same result
    /// as [`crate::reference_run`] when no budget binds. Consults the
    /// session's simulation cache first and stores misses back.
    ///
    /// # Errors
    ///
    /// As [`crate::reference_run`].
    pub fn run(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let Some(cache) = self.cache.clone() else {
            return self.run_once(dut, driver, scenarios);
        };
        let key = CacheKey {
            dut: dut.fingerprint(),
            driver: driver.fingerprint(),
            checker: self.checker_fp,
            num_scenarios: scenarios.len(),
            total_stimuli: scenarios.total_stimuli(),
            problem: self.problem_fp,
        };
        if let Some(cached) = cache.get(&key) {
            return cached;
        }
        let result = self.run_once(dut, driver, scenarios);
        cache.put(key, result.clone());
        result
    }

    /// Sweeps one driver across many DUTs — the RS-matrix / Eval2 shape —
    /// sharing the session's setup (the checker's slot file, bindings).
    pub fn sweep_mutants<'d>(
        &mut self,
        duts: impl IntoIterator<Item = &'d SourceFile>,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Vec<Result<TbRun, TbError>> {
        duts.into_iter()
            .map(|dut| self.run(dut, driver, scenarios))
            .collect()
    }

    /// The uncached run: clamp the limits to the budget, simulate
    /// ([`simulate_records`]) and judge ([`JudgeSession`]).
    fn run_once(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let (limits, binding) = clamp(self.sim_budget, limits_for(scenarios));
        let out = simulate_records(dut, driver, limits, binding)?;
        let results = self.judge(&out, scenarios.len())?;
        Ok(TbRun { results })
    }

    /// Judges a run's typed view with the [`JudgeSession`] — the session
    /// counterpart of [`crate::judge_records`] over the text view, with
    /// the same verdicts. Checker state is rewound first, so one session
    /// judges arbitrarily many runs.
    fn judge(
        &mut self,
        out: &SimOutput,
        num_scenarios: usize,
    ) -> Result<Vec<ScenarioResult>, TbError> {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Judge);
        let verdicts = &mut self.verdicts;
        verdicts.reset(num_scenarios);
        let layouts: Vec<Vec<Option<u32>>> = out
            .record_formats()
            .iter()
            .map(|f| self.binding.resolve(f.names.iter().map(String::as_str)))
            .collect();
        for printed in out.printed() {
            match printed {
                Printed::Record { format, values } => {
                    let Some(scenario) = read_values(values, &mut self.fields) else {
                        continue;
                    };
                    let (found, fields) = (&layouts[format], &self.fields);
                    verdicts.record(scenario, |slot| found[slot].map(|fi| &fields[fi as usize]))?;
                }
                Printed::Line(line) => {
                    let Some(rec) = parse_record(line) else {
                        continue;
                    };
                    self.binding.bind(&rec);
                    let binding = &self.binding;
                    verdicts.record(rec.scenario, |slot| binding.field(slot, &rec))?;
                }
            }
        }
        correctbench_obs::add(
            correctbench_obs::Counter::JudgeCommits,
            verdicts.judge.take_commits_retired(),
        );
        Ok(verdicts.results())
    }
}

impl Verdicts {
    /// Rewinds the checker and clears the verdicts for a stream of
    /// `num_scenarios` scenarios.
    fn reset(&mut self, num_scenarios: usize) {
        self.judge.reset();
        self.seen.clear();
        self.seen.resize(num_scenarios, false);
        self.failed.clear();
        self.failed.resize(num_scenarios, false);
    }

    /// Steps the checker over one record of `scenario`, whose field
    /// bound to a slot `field` answers, and marks the scenario seen and,
    /// on a mismatching output, failed.
    fn record<'f>(
        &mut self,
        scenario: usize,
        field: impl Fn(usize) -> Option<&'f FieldValue>,
    ) -> Result<(), TbError> {
        for ((slot, width), buf) in self.input_slots.iter().zip(self.input_buf.iter_mut()) {
            match field(*slot) {
                Some(fv) => *buf = fv.to_logic(*width),
                None => *buf = LogicVec::filled_x((*width).max(1)),
            }
        }
        self.judge.step(&self.input_buf)?;

        let num_scenarios = self.seen.len();
        if scenario == 0 || scenario > num_scenarios {
            return Ok(());
        }
        self.seen[scenario - 1] = true;
        for (oi, slot) in self.output_slots.iter().enumerate() {
            if !crate::runner::output_ok(self.judge.output(oi), field(*slot)) {
                self.failed[scenario - 1] = true;
            }
        }
        Ok(())
    }

    /// The verdict per scenario of the stream judged since the reset.
    fn results(&self) -> Vec<ScenarioResult> {
        self.seen
            .iter()
            .zip(&self.failed)
            .map(|(seen, failed)| match (seen, failed) {
                (false, _) => ScenarioResult::Missing,
                (true, true) => ScenarioResult::Fail,
                (true, false) => ScenarioResult::Pass,
            })
            .collect()
    }
}

/// Applies a job's simulation budget to one run's limits: lowers
/// `max_steps` when the budget undercuts the natural limit. Returns the
/// clamped limits and whether the budget binds — the flag that decides
/// whether an exhaustion is a natural, cacheable `Err` or a structured
/// job abort.
fn clamp(sim_budget: Option<u64>, mut limits: SimLimits) -> (SimLimits, bool) {
    let binding = sim_budget.filter(|b| *b < limits.max_steps);
    if let Some(b) = binding {
        limits.max_steps = b;
    }
    (limits, binding.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::generate_driver;
    use crate::runner::reference_run;
    use crate::scenarios::generate_scenarios;
    use correctbench_checker::compile_module;
    use correctbench_verilog::{parse, SimError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The problems both sweep tests below run: a combinational ALU, a
    /// counter, a wide shift register, and the [`LOOPED`] designs.
    const SWEEP_PROBLEMS: [&str; 5] = [
        "alu_8",
        "counter_8",
        "shift18",
        "priority_enc_8",
        "reverse_16",
    ];

    /// The `for`-loop designs of [`SWEEP_PROBLEMS`]: some of their
    /// seeded mutants run away into `EventBudgetExhausted`.
    const LOOPED: [&str; 2] = ["priority_enc_8", "reverse_16"];

    /// One problem's sweep inputs: the golden testbench (scenarios,
    /// parsed driver, checker) and a DUT sequence of the golden DUT plus
    /// three seeded two-site mutants, with the golden DUT repeated in
    /// between so a cached sweep answers repeats within one pass. Each
    /// entry carries its design's index (0 = golden).
    struct SweepInputs {
        problem: Problem,
        scenarios: ScenarioSet,
        driver: SourceFile,
        checker: CheckerProgram,
        duts: Vec<(usize, SourceFile)>,
    }

    fn sweep_inputs(name: &str) -> SweepInputs {
        let problem = correctbench_dataset::problem(name).expect("problem");
        let scenarios = generate_scenarios(&problem, 33);
        let driver = parse(&generate_driver(&problem, &scenarios)).expect("driver");
        let checker = compile_module(&problem.golden_module()).expect("checker");
        let golden = parse(&problem.golden_rtl).expect("golden");
        let mut duts = vec![(0, golden.clone()), (0, golden.clone())];
        for seed in 0..3u64 {
            let mut file = golden.clone();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
            if let Some(m) = file.module_mut(&problem.name) {
                correctbench_verilog::mutate::mutate_module(m, &mut rng, 2);
            }
            duts.push((seed as usize + 1, file));
            duts.push((0, golden.clone()));
        }
        SweepInputs {
            problem,
            scenarios,
            driver,
            checker,
            duts,
        }
    }

    /// Session runs must match [`reference_run`] exactly, errors
    /// included — on golden DUTs, mutants, runaway mutants and repeated
    /// DUTs — in three passes: with no cache, then a cold and a warm pass
    /// through one simulation cache, so cached `Err`s replay too. The
    /// warm pass must be answered by the cache alone.
    #[test]
    fn session_matches_the_reference_across_a_sweep() {
        for name in SWEEP_PROBLEMS {
            let SweepInputs {
                problem: p,
                scenarios: scen,
                driver,
                checker,
                duts,
            } = sweep_inputs(name);
            let references: Vec<_> = duts
                .iter()
                .map(|(_, dut)| reference_run(dut, &driver, &checker, &p, &scen))
                .collect();
            let runaway = Err(TbError::Verilog(SimError::EventBudgetExhausted.into()));
            assert!(
                references.contains(&runaway) || !LOOPED.contains(&name),
                "{name}: no mutant ran away"
            );
            let uncached = EvalContext::default();
            let cached = EvalContext::cached();
            let misses = || cached.stats().sim.expect("sim layer").misses;
            for (pass, ctx) in [
                ("uncached", &uncached),
                ("cold", &cached),
                ("warm", &cached),
            ] {
                let misses_before = misses();
                let mut session = EvalSession::new(&p, &checker, ctx).expect("session");
                let swept = session.sweep_mutants(duts.iter().map(|(_, f)| f), &driver, &scen);
                for (((design, _), reference), via_session) in
                    duts.iter().zip(&references).zip(swept)
                {
                    assert_eq!(
                        &via_session, reference,
                        "{name}: design {design} diverged from the reference ({pass} pass)"
                    );
                }
                if pass == "warm" {
                    assert_eq!(misses(), misses_before, "{name}: the warm pass missed");
                }
            }
        }
    }

    /// Drivers whose records take the unusual routes through the judge:
    /// a record display that repeats a field with a wrong value last,
    /// and record lines printed as text (a trailing space keeps the
    /// format out of the record grammar) between record displays. On a
    /// sequential problem the checker steps through the records in
    /// print order, so any reordering fails the golden DUT. Each run must
    /// match [`reference_run`], which renders every record and parses it
    /// back, and the golden DUT must pass.
    /// `text` with its `k`-th `$fdisplay` line (from 0) replaced by
    /// `edit(k, line)`.
    fn rewrite_displays(text: &str, mut edit: impl FnMut(usize, &str) -> String) -> String {
        let mut k = 0;
        let lines: Vec<String> = text
            .lines()
            .map(|l| {
                if !l.contains("$fdisplay") {
                    return l.to_string();
                }
                k += 1;
                edit(k - 1, l)
            })
            .collect();
        lines.join("\n")
    }

    #[test]
    fn session_judges_repeated_names_and_text_lines_like_the_reference() {
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let scen = generate_scenarios(&p, 21);
        let checker = compile_module(&p.golden_module()).expect("checker");
        let golden = parse(&p.golden_rtl).expect("golden");
        let clean = generate_driver(&p, &scen);
        let fmt = format!("\"{}\"", crate::record_format(&p));
        // The format without its closing quote.
        let open = &fmt[..fmt.len() - 1];
        let repeated = rewrite_displays(&clean, |_, l| {
            l.replace(&fmt, &format!("{open}, rst = %0d\""))
                .replace(");", ", ~rst);")
        });
        let interleaved = rewrite_displays(&clean, |k, l| match k % 2 {
            0 => l.replace(&fmt, &format!("{open} \"")),
            _ => l.to_string(),
        });
        let displays = clean.matches("$fdisplay").count();
        let mut session = EvalSession::new(&p, &checker, &EvalContext::default()).expect("session");
        for (what, text, typed) in [
            ("repeated name", repeated, displays),
            ("interleaved text", interleaved, displays / 2),
        ] {
            let driver = parse(&text).expect("driver parses");
            let out = simulate_records(&golden, &driver, limits_for(&scen), false).expect("runs");
            let records = out
                .printed()
                .filter(|p| matches!(p, Printed::Record { .. }))
                .count();
            assert_eq!(records, typed, "{what}: displays captured as values");
            let via_session = session.run(&golden, &driver, &scen);
            assert_eq!(
                via_session,
                reference_run(&golden, &driver, &checker, &p, &scen),
                "{what}"
            );
            assert!(via_session.expect("run").all_pass(), "{what}");
        }
    }

    #[test]
    fn session_uses_sim_cache() {
        let p = correctbench_dataset::problem("and_8").expect("problem");
        let scen = generate_scenarios(&p, 5);
        let driver = parse(&generate_driver(&p, &scen)).expect("driver");
        let checker = compile_module(&p.golden_module()).expect("checker");
        let dut = parse(&p.golden_rtl).expect("golden");
        let ctx = EvalContext::cached();
        let mut session = EvalSession::new(&p, &checker, &ctx).expect("session");
        let a = session.run(&dut, &driver, &scen).expect("first");
        let b = session.run(&dut, &driver, &scen).expect("second");
        assert_eq!(a, b);
        let stats = ctx.stats().sim.expect("sim layer");
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    fn natural() -> SimLimits {
        SimLimits {
            max_steps: 1000,
            ..SimLimits::default()
        }
    }

    #[test]
    fn clamp_without_a_budget_changes_nothing() {
        let (limits, binding) = clamp(None, natural());
        assert_eq!((limits.max_steps, binding), (1000, false));
    }

    #[test]
    fn clamp_binds_a_step_budget_below_the_natural_limit() {
        let (limits, binding) = clamp(Some(999), natural());
        assert_eq!((limits.max_steps, binding), (999, true));
    }

    #[test]
    fn clamp_leaves_a_step_budget_at_or_above_the_natural_limit_unbound() {
        // Exhausting the natural limit stays a cacheable `Err`, not an
        // abort.
        for steps in [1000, 1001] {
            let (limits, binding) = clamp(Some(steps), natural());
            assert_eq!((limits.max_steps, binding), (1000, false), "budget {steps}");
        }
    }
}
