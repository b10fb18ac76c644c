//! Session-oriented evaluation: the way every testbench runs.
//!
//! Every experiment in the reproduction bottoms out in *sweeps* — the
//! validator's RS matrix runs one driver against a whole RTL group,
//! Eval2 replays one testbench against ten mutants, repetition sweeps
//! re-run near-identical pairs. An [`EvalSession`] is pinned to one
//! `(problem, checker)` pair and owns, across arbitrarily many runs:
//!
//! * the **compiled checker** ([`JudgeSession`]) — IR flattened to slot
//!   bytecode once, stepped positionally ever after;
//! * the **record bindings** — `(checker input → record field, port
//!   width)` resolved to indices once, not string-searched per record;
//! * the **judging buffers** (per-scenario flags, positional inputs).
//!
//! A session takes the [`SimCache`] and the [`JobBudget`] of the
//! [`EvalContext`] it is built with: [`EvalSession::run`] consults the
//! cache first, so a repeated pair costs one lookup. A miss clamps the
//! run's limits to the budget, elaborates the pair and runs one fresh
//! [`Simulator`] — the simulation half [`crate::reference_run`] runs too
//! — and judges the records with the compiled checker. Its results equal
//! [`crate::reference_run`]'s (the same simulation, the interpreted
//! checker), which this module's tests pin run by run.
//!
//! [`Simulator`]: correctbench_verilog::Simulator

use crate::cache::{module_interface_fingerprint, CacheKey, SimCache};
use crate::context::{EvalContext, JobBudget};
use crate::record::{Record, RecordBinding};
use crate::runner::{limits_for, simulate_records, ScenarioResult, TbError, TbRun};
use crate::scenarios::ScenarioSet;
use correctbench_checker::{CheckerProgram, JudgeSession};
use correctbench_dataset::Problem;
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::Fingerprint;
use correctbench_verilog::LogicVec;
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
    /// [`EvalSession::new`] — visitor fingerprints are cheap enough to
    /// take eagerly.
    checker_fp: Fingerprint,
    problem_fp: Fingerprint,
    /// The context's simulation cache, consulted before every run.
    cache: Option<Arc<SimCache>>,
    /// The context's job budget, clamping every run's limits.
    budget: JobBudget,
    judge: JudgeSession,
    /// Record-field resolution for the checker's inputs and outputs,
    /// re-indexed per record (first-occurrence semantics, exactly like
    /// [`Record::field`]).
    binding: RecordBinding,
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
    /// Builds a session: compiles the checker, resolves the record
    /// bindings, and keeps `ctx`'s simulation cache and job budget.
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
        let output_slots = judge
            .compiled()
            .output_names()
            .map(|name| binding.slot(name))
            .collect();
        let input_buf = input_slots
            .iter()
            .map(|(_, w)| LogicVec::filled_x((*w).max(1)))
            .collect();
        Ok(EvalSession {
            checker_fp: checker.fingerprint(),
            problem_fp: module_interface_fingerprint(&problem.name, &problem.ports),
            cache: ctx.sim.clone(),
            budget: ctx.budget,
            judge,
            binding,
            input_slots,
            output_slots,
            input_buf,
            seen: Vec::new(),
            failed: Vec::new(),
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
        self.run_keyed(dut, driver, scenarios, &mut None)
    }

    /// Sweeps one driver across many DUTs — the RS-matrix / Eval2 shape.
    /// Setup (checker compilation, bindings) is shared, and the scenario
    /// schedule is hashed at most once per sweep.
    pub fn sweep_mutants<'d>(
        &mut self,
        duts: impl IntoIterator<Item = &'d SourceFile>,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Vec<Result<TbRun, TbError>> {
        let mut scenarios_fp = None;
        duts.into_iter()
            .map(|dut| self.run_keyed(dut, driver, scenarios, &mut scenarios_fp))
            .collect()
    }

    /// [`EvalSession::run`], taking the schedule's fingerprint from
    /// `scenarios_fp` and filling it on the first cache probe: nothing is
    /// hashed when the session has no simulation cache.
    fn run_keyed(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
        scenarios_fp: &mut Option<Fingerprint>,
    ) -> Result<TbRun, TbError> {
        let Some(cache) = self.cache.clone() else {
            return self.run_once(dut, driver, scenarios);
        };
        let key = CacheKey {
            dut: dut.fingerprint(),
            driver: driver.fingerprint(),
            checker: self.checker_fp,
            scenarios: *scenarios_fp.get_or_insert_with(|| scenarios.fingerprint()),
            problem: self.problem_fp,
        };
        if let Some(cached) = cache.get(&key) {
            return cached;
        }
        let result = self.run_once(dut, driver, scenarios);
        cache.put(key, result.clone());
        result
    }

    /// The uncached run: clamp the limits to the budget, simulate
    /// ([`simulate_records`]) and judge (compiled checker).
    fn run_once(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let (limits, binding) = self.budget.clamp(limits_for(scenarios));
        let records = simulate_records(dut, driver, limits, binding)?;
        let results = self.judge(&records, scenarios.len())?;
        Ok(TbRun { results })
    }

    /// Judges a pre-captured record stream with the compiled checker —
    /// the session counterpart of [`crate::judge_records`], same verdicts
    /// (pinned by the checker differential suite), no per-record maps or
    /// name lookups. Checker state is rewound first, so one session
    /// judges arbitrarily many streams.
    ///
    /// # Errors
    ///
    /// [`TbError::Checker`] when the stream cannot be stepped.
    pub fn judge(
        &mut self,
        records: &[Record],
        num_scenarios: usize,
    ) -> Result<Vec<ScenarioResult>, TbError> {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Judge);
        self.judge.reset();
        self.seen.clear();
        self.seen.resize(num_scenarios, false);
        self.failed.clear();
        self.failed.resize(num_scenarios, false);

        for rec in records {
            self.binding.bind(rec);
            for ((slot, width), buf) in self.input_slots.iter().zip(self.input_buf.iter_mut()) {
                match self.binding.field(*slot, rec) {
                    Some(fv) => *buf = fv.to_logic(*width),
                    None => *buf = LogicVec::filled_x((*width).max(1)),
                }
            }
            self.judge.step(&self.input_buf)?;

            let idx = rec.scenario;
            if idx == 0 || idx > num_scenarios {
                continue;
            }
            self.seen[idx - 1] = true;
            for (oi, slot) in self.output_slots.iter().enumerate() {
                let reference = self.judge.output(oi);
                if !crate::runner::output_ok(reference, self.binding.field(*slot, rec)) {
                    self.failed[idx - 1] = true;
                }
            }
        }

        correctbench_obs::add(
            correctbench_obs::Counter::JudgeCommits,
            self.judge.take_commits_retired(),
        );

        Ok((0..num_scenarios)
            .map(|i| {
                if !self.seen[i] {
                    ScenarioResult::Missing
                } else if self.failed[i] {
                    ScenarioResult::Fail
                } else {
                    ScenarioResult::Pass
                }
            })
            .collect())
    }
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
}
