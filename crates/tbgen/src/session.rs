//! Session-oriented evaluation: the batch surface of the runner.
//!
//! Every experiment in the reproduction bottoms out in *sweeps* — the
//! validator's RS matrix runs one driver against a whole RTL group,
//! Eval2 replays one testbench against ten mutants, repetition sweeps
//! re-run near-identical pairs — yet the one-shot entry points
//! ([`crate::run_testbench_parsed`] and friends) rebuild everything per
//! run: a fresh [`Simulator`] value table, a fresh judging pass that
//! re-interprets the checker IR with name-keyed maps.
//!
//! An [`EvalSession`] is the amortized form. It is pinned to one
//! `(problem, checker)` pair and owns, across arbitrarily many runs:
//!
//! * the **compiled checker** ([`JudgeSession`]) — IR flattened to slot
//!   bytecode once, stepped positionally ever after;
//! * the **record bindings** — `(checker input → record field, port
//!   width)` resolved to indices once, not string-searched per record;
//! * the **simulator** — kept while consecutive runs execute the same
//!   [`CompiledDesign`] (by `Arc` identity, which the session's design
//!   memo makes common for repeated pairs) and rewound with
//!   [`Simulator::reset`] instead of reconstructed;
//! * the **judging buffers** (per-scenario flags, positional inputs).
//!
//! [`EvalSession::run`] consults the thread's
//! [`SimCache`](crate::SimCache) under the same content key as the
//! one-shot path. Results are byte-identical to the one-shot path (the
//! harness determinism suite pins session vs one-shot artifact
//! equality), so the free functions are now thin wrappers over a
//! throwaway session.

use crate::cache::{module_interface_fingerprint, CacheKey};
use crate::record::{parse_records, Record, RecordBinding};
use crate::runner::{compile_pair, limits_for, ScenarioResult, TbError, TbRun};
use crate::scenarios::ScenarioSet;
use correctbench_checker::{CheckerProgram, JudgeSession};
use correctbench_dataset::Problem;
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::Fingerprint;
use correctbench_verilog::{CompiledDesign, LogicVec, Simulator};
use std::sync::Arc;

/// A reusable evaluation session for one `(problem, checker)` pair.
///
/// # Examples
///
/// Sweep one driver across an RTL group (the RS-matrix shape):
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use correctbench_tbgen::{generate_driver, generate_scenarios, EvalSession};
///
/// let problem = correctbench_dataset::problem("adder_8").expect("known problem");
/// let scenarios = generate_scenarios(&problem, 42);
/// let driver = correctbench_verilog::parse(&generate_driver(&problem, &scenarios))?;
/// let checker = correctbench_checker::compile_module(&problem.golden_module())?;
/// let dut = correctbench_verilog::parse(&problem.golden_rtl)?;
///
/// let mut session = EvalSession::new(&problem, &checker)?;
/// for run in session.sweep_mutants(std::slice::from_ref(&dut), &driver, &scenarios) {
///     assert!(run?.all_pass());
/// }
/// # Ok(())
/// # }
/// ```
pub struct EvalSession {
    /// The checker IR (the one-shot fallback interprets it directly).
    checker: CheckerProgram,
    /// [`CacheKey`] components fixed for the session, computed once in
    /// [`EvalSession::new`] — visitor fingerprints are cheap enough to
    /// take eagerly.
    checker_fp: Fingerprint,
    problem_fp: Fingerprint,
    /// The one piece of the problem judging still reads per record —
    /// a session does not hold the spec, name or golden RTL (the
    /// problem's identity lives in `problem_fp`).
    ports: Vec<correctbench_dataset::PortSpec>,
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
    /// Kept while consecutive runs share a compiled design.
    sim: Option<Simulator<'static>>,
    /// The session's own level-0 design memo: fingerprints of the last
    /// (DUT, driver) pair and its compiled form. Repeated pairs — the
    /// defining shape of a sweep — reuse the simulator instead of
    /// recompiling. Keyed on [`SourceFile::fingerprint`]: the caller's
    /// files cache their own fingerprint, so a repeated probe is two u64
    /// compares. Only the last pair is held, so a session's memory
    /// stays bounded by one design.
    last_dut: Option<Fingerprint>,
    last_driver: Option<Fingerprint>,
    last_compiled: Option<Arc<CompiledDesign>>,
}

impl EvalSession {
    /// Builds a session: compiles the checker and resolves the record
    /// bindings. One-time cost, amortized over every subsequent run.
    ///
    /// # Errors
    ///
    /// [`TbError::Checker`] when the checker program is malformed (the
    /// same class the interpreter rejects at judge time).
    pub fn new(problem: &Problem, checker: &CheckerProgram) -> Result<EvalSession, TbError> {
        Self::with_fingerprints(
            problem,
            checker,
            module_interface_fingerprint(&problem.name, &problem.ports),
            checker.fingerprint(),
        )
    }

    /// [`EvalSession::new`] with the `(problem, checker)` fingerprints
    /// already in hand — the runner's cached path computes them for its
    /// [`CacheKey`] and must not pay the visitor walks twice on a miss.
    pub(crate) fn with_fingerprints(
        problem: &Problem,
        checker: &CheckerProgram,
        problem_fp: Fingerprint,
        checker_fp: Fingerprint,
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
            checker: checker.clone(),
            checker_fp,
            problem_fp,
            ports: problem.ports.clone(),
            judge,
            binding,
            input_slots,
            output_slots,
            input_buf,
            seen: Vec::new(),
            failed: Vec::new(),
            sim: None,
            last_dut: None,
            last_driver: None,
            last_compiled: None,
        })
    }

    /// The compiled pair: the session memo when the pair repeats, a fresh
    /// [`compile_pair`] otherwise. Compilation is a pure function of the
    /// two sources, so a memo hit is semantically identical to
    /// recompiling.
    fn compiled(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
    ) -> Result<Arc<CompiledDesign>, TbError> {
        let dut_fp = dut.fingerprint();
        let driver_fp = driver.fingerprint();
        if self.last_dut == Some(dut_fp) && self.last_driver == Some(driver_fp) {
            if let Some(cd) = &self.last_compiled {
                return Ok(Arc::clone(cd));
            }
        }
        let cd = Arc::new(compile_pair(dut, driver)?);
        self.last_dut = Some(dut_fp);
        self.last_driver = Some(driver_fp);
        self.last_compiled = Some(Arc::clone(&cd));
        Ok(cd)
    }

    /// Runs the hybrid testbench against one DUT — the session
    /// counterpart of [`crate::run_testbench_parsed`], byte-identical
    /// results included. Consults the thread's simulation cache first and
    /// stores misses back, so batched and one-shot execution share one
    /// memo table.
    ///
    /// # Errors
    ///
    /// As [`crate::run_testbench`].
    pub fn run(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let key = crate::cache::with_active(|_| CacheKey {
            dut: dut.fingerprint(),
            driver: driver.fingerprint(),
            checker: self.checker_fp,
            scenarios: scenarios.fingerprint(),
            problem: self.problem_fp,
        });
        if let Some(key) = key {
            if let Some(cached) = crate::cache::with_active(|c| c.get(&key)).flatten() {
                return cached;
            }
            let result = self.run_once(dut, driver, scenarios);
            crate::cache::with_active(|c| c.put(key, result.clone()));
            return result;
        }
        self.run_once(dut, driver, scenarios)
    }

    /// Sweeps one driver across many DUTs — the RS-matrix / Eval2 shape.
    /// Setup (checker compilation, bindings) is shared; the simulator is
    /// reused whenever consecutive DUTs compile to the same design.
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

    /// Sweeps one DUT across many stimulus schedules (each a driver with
    /// its scenario set) — the repetition-sweep shape.
    pub fn sweep_schedules<'d>(
        &mut self,
        dut: &SourceFile,
        schedules: impl IntoIterator<Item = &'d (SourceFile, ScenarioSet)>,
    ) -> Vec<Result<TbRun, TbError>> {
        schedules
            .into_iter()
            .map(|(driver, scenarios)| self.run(dut, driver, scenarios))
            .collect()
    }

    /// The uncached run: simulate (session simulator) and judge (compiled
    /// checker). The one-shot escape hatch (see [`force_one_shot`])
    /// instead takes the legacy fresh-everything path — the determinism
    /// suite runs whole plans both ways and compares artifacts.
    pub(crate) fn run_once(
        &mut self,
        dut: &SourceFile,
        driver: &SourceFile,
        scenarios: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        if one_shot_active() {
            let (records, end_time) =
                crate::runner::simulate_records_limited(dut, driver, limits_for(scenarios))?;
            let results = crate::runner::judge_records_with_ports(
                &records,
                &self.checker,
                &self.ports,
                scenarios.len(),
            )?;
            return Ok(TbRun { results, end_time });
        }
        let compiled = self.compiled(dut, driver)?;
        let (limits, binding) = crate::runner::budgeted_limits(limits_for(scenarios));
        let sim = match &mut self.sim {
            Some(sim) if sim.shares(&compiled) => {
                sim.reset();
                sim.set_limits(limits);
                sim
            }
            slot => slot.insert(Simulator::from_shared_with_limits(compiled, limits)),
        };
        let out = sim
            .run()
            .map_err(|e| crate::runner::classify_sim_err(e, binding))?;
        let records = parse_records(&out.lines);
        let results = self.judge(&records, scenarios.len())?;
        Ok(TbRun {
            results,
            end_time: out.end_time,
        })
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

/// `true` while a [`force_one_shot`] guard is live on this thread.
pub(crate) fn one_shot_active() -> bool {
    crate::install::ONE_SHOT.with(|f| f.get())
}

/// Forces every session on the current thread onto the legacy one-shot
/// path — fresh simulator per run, interpreted judging — until the guard
/// drops. Exists for the determinism suite (session-batched vs one-shot
/// artifact equality) and A/B benchmarking; never needed for correctness.
pub fn force_one_shot() -> OneShotGuard {
    let prev = crate::install::ONE_SHOT.with(|f| f.replace(true));
    OneShotGuard { prev }
}

/// Restores the previous execution path when dropped.
pub struct OneShotGuard {
    prev: bool,
}

impl Drop for OneShotGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        crate::install::ONE_SHOT.with(|f| f.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::generate_driver;
    use crate::runner::run_testbench_parsed;
    use crate::scenarios::generate_scenarios;
    use correctbench_checker::compile_module;
    use correctbench_verilog::{parse, VerilogError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The problems both sweep tests below run: a combinational ALU, a
    /// counter and a wide shift register.
    const SWEEP_PROBLEMS: [&str; 3] = ["alu_8", "counter_8", "shift18"];

    /// One problem's sweep inputs: the golden testbench (scenarios,
    /// parsed driver, checker) and a DUT sequence of the golden DUT plus
    /// three seeded two-site mutants, with the golden DUT repeated in
    /// between so a sweep exercises reset-reuse *and* reconstruction.
    /// Each entry carries its design's index (0 = golden).
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

    /// Session runs must match the one-shot free function exactly — on
    /// golden DUTs, mutants, repeated DUTs (simulator reuse via reset),
    /// and interleavings that force simulator reconstruction.
    #[test]
    fn session_matches_one_shot_across_a_sweep() {
        for name in SWEEP_PROBLEMS {
            let SweepInputs {
                problem: p,
                scenarios: scen,
                driver,
                checker,
                duts,
            } = sweep_inputs(name);
            let mut session = EvalSession::new(&p, &checker).expect("session");
            let swept = session.sweep_mutants(duts.iter().map(|(_, f)| f), &driver, &scen);
            for ((_, dut), via_session) in duts.iter().zip(swept) {
                let one_shot = {
                    let _guard = force_one_shot();
                    run_testbench_parsed(dut, &driver, &checker, &p, &scen)
                };
                match (via_session, one_shot) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}: session diverged from one-shot"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{name}: one path errored: {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// The record-level oracle for simulator reuse: a [`Simulator`] kept
    /// per design and rewound with `reset()` between runs must capture
    /// the same record stream and end time as a fresh
    /// `simulate_records_limited` — run by run, over the same sweep
    /// inputs as the test above, walked twice so every design (mutants
    /// included) is replayed through a reset at least once. Verdicts
    /// alone could hide a reset bug that happens not to flip a scenario.
    #[test]
    fn reset_reuse_captures_the_same_records_as_a_fresh_simulator() {
        for name in SWEEP_PROBLEMS {
            let inputs = sweep_inputs(name);
            let limits = limits_for(&inputs.scenarios);
            let mut sims: Vec<Option<Simulator<'static>>> = Vec::new();
            for (round, (design, dut)) in inputs.duts.iter().chain(&inputs.duts).enumerate() {
                let what = format!("{name}: run {round} (design {design})");
                let fresh = crate::runner::simulate_records_limited(dut, &inputs.driver, limits);
                let Ok(compiled) = compile_pair(dut, &inputs.driver) else {
                    assert!(fresh.is_err(), "{what}: only the fresh path elaborated");
                    continue;
                };
                if sims.len() <= *design {
                    sims.resize_with(*design + 1, || None);
                }
                let sim = match &mut sims[*design] {
                    Some(sim) => {
                        sim.reset();
                        sim
                    }
                    slot => slot.insert(Simulator::from_shared_with_limits(
                        Arc::new(compiled),
                        limits,
                    )),
                };
                match (sim.run(), fresh) {
                    (Ok(out), Ok((records, end_time))) => {
                        assert_eq!(parse_records(&out.lines), records, "{what}: records differ");
                        assert_eq!(out.end_time, end_time, "{what}: end time differs");
                    }
                    (Err(reused), Err(TbError::Verilog(VerilogError::Sim(fresh)))) => {
                        assert_eq!(reused, fresh, "{what}: errors differ");
                    }
                    (reused, fresh) => {
                        panic!("{what}: one path errored: {reused:?} vs {fresh:?}")
                    }
                }
            }
            assert!(
                sims.iter().flatten().count() >= 2,
                "{name}: the sweep reused fewer than two designs"
            );
        }
    }

    #[test]
    fn sweep_schedules_matches_one_shot() {
        let p = correctbench_dataset::problem("counter_8").expect("problem");
        let checker = compile_module(&p.golden_module()).expect("checker");
        let dut = parse(&p.golden_rtl).expect("golden");
        let schedules: Vec<(SourceFile, ScenarioSet)> = (0..3u64)
            .map(|seed| {
                let scen = generate_scenarios(&p, 100 + seed);
                let driver = parse(&generate_driver(&p, &scen)).expect("driver");
                (driver, scen)
            })
            .collect();
        let mut session = EvalSession::new(&p, &checker).expect("session");
        for ((driver, scen), run) in schedules
            .iter()
            .zip(session.sweep_schedules(&dut, schedules.iter()))
        {
            let reference = {
                let _guard = force_one_shot();
                run_testbench_parsed(&dut, driver, &checker, &p, scen).expect("one-shot")
            };
            assert_eq!(run.expect("session run"), reference);
        }
    }

    #[test]
    fn session_uses_sim_cache() {
        let p = correctbench_dataset::problem("and_8").expect("problem");
        let scen = generate_scenarios(&p, 5);
        let driver = parse(&generate_driver(&p, &scen)).expect("driver");
        let checker = compile_module(&p.golden_module()).expect("checker");
        let dut = parse(&p.golden_rtl).expect("golden");
        let cache = crate::SimCache::new();
        let _guard = cache.install();
        let mut session = EvalSession::new(&p, &checker).expect("session");
        let a = session.run(&dut, &driver, &scen).expect("first");
        let b = session.run(&dut, &driver, &scen).expect("second");
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // And the one-shot wrapper hits the very same entry.
        let c = crate::run_testbench_parsed(&dut, &driver, &checker, &p, &scen).expect("wrapper");
        assert_eq!(a, c);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn one_shot_guard_is_scoped() {
        assert!(!one_shot_active());
        {
            let _g = force_one_shot();
            assert!(one_shot_active());
            {
                let _g2 = force_one_shot();
                assert!(one_shot_active());
            }
            assert!(one_shot_active());
        }
        assert!(!one_shot_active());
    }
}
