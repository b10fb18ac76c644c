//! What a testbench run produces and the pieces every run shares: the
//! verdict types, [`elaborate_pair`] (the design a run executes),
//! [`limits_for`] (its simulation bounds), the simulation half of every
//! run (`simulate`: run one fresh [`Simulator`] over the design, capture
//! what its displays print), the interpreted checker judge
//! [`judge_records`], and [`reference_run`], the uncached, unbudgeted
//! run that [`crate::EvalSession`] (the way jobs execute: the
//! validator's RS-matrix rows, Eval1/Eval2) is tested against. The
//! session links each DUT into its driver's testbench template and
//! judges a run's records from their values; the reference elaborates
//! the pair, renders the records to text and parses them back, as the
//! paper's Python checker reads the Verilog driver's output.

use crate::record::{parse_records, FieldValue, Record};
use crate::scenarios::ScenarioSet;
use correctbench_checker::{step, CheckerProgram, CheckerRunError, CheckerState};
use correctbench_dataset::Problem;
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::{
    elaborate_files, Design, SimError, SimLimits, SimOutput, Simulator, VerilogError,
};
use std::collections::HashMap;
use std::fmt;

/// Per-scenario outcome of a testbench run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioResult {
    /// Every record of the scenario matched the reference.
    Pass,
    /// At least one record mismatched.
    Fail,
    /// The driver produced no records for the scenario.
    Missing,
}

/// Result of running a hybrid testbench against one DUT: the verdicts,
/// not the record stream they were judged from, so a
/// [`crate::SimCache`] entry and every hit's clone stay small.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TbRun {
    /// Verdict per scenario (index 0 holds scenario 1).
    pub results: Vec<ScenarioResult>,
}

impl TbRun {
    /// `true` when every scenario passed.
    pub fn all_pass(&self) -> bool {
        self.results.iter().all(|r| *r == ScenarioResult::Pass)
    }

    /// Indices (1-based) of failing scenarios.
    pub fn failing_scenarios(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == ScenarioResult::Fail)
            .map(|(i, _)| i + 1)
            .collect()
    }
}

/// A testbench run failure.
#[derive(Clone, PartialEq, Debug)]
pub enum TbError {
    /// The DUT or driver failed to parse, elaborate or simulate.
    Verilog(VerilogError),
    /// The checker program itself failed at runtime.
    Checker(CheckerRunError),
}

impl fmt::Display for TbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TbError::Verilog(e) => write!(f, "{e}"),
            TbError::Checker(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TbError {}

impl From<VerilogError> for TbError {
    fn from(e: VerilogError) -> Self {
        TbError::Verilog(e)
    }
}

impl From<CheckerRunError> for TbError {
    fn from(e: CheckerRunError) -> Self {
        TbError::Checker(e)
    }
}

/// Simulates a testbench run's `design` under `limits` and returns what
/// its displays printed: the simulation half of every run,
/// [`crate::EvalSession`]'s and [`reference_run`]'s alike. Every call
/// runs one fresh [`Simulator`], which captures each record display as
/// values and renders every other display. The session judges the typed
/// view ([`SimOutput::printed`]); [`reference_run`] parses the text view
/// ([`SimOutput::lines`]). `binding` says whether a job budget lowered
/// `limits.max_steps` ([`classify_sim_err`]).
///
/// # Errors
///
/// Simulation failure.
pub(crate) fn simulate(
    design: Design,
    limits: SimLimits,
    binding: bool,
) -> Result<SimOutput, TbError> {
    Ok(Simulator::with_limits(design, limits)
        .run()
        .map_err(|e| classify_sim_err(e, binding))?)
}

/// Classifies a simulation error under a budgeted run: a *binding*
/// step-budget exhaustion aborts the job (unwinding before any cache
/// `put`, so the abort can never be memoized); everything else stays an
/// ordinary error.
pub(crate) fn classify_sim_err(err: SimError, binding: bool) -> VerilogError {
    match err {
        SimError::EventBudgetExhausted if binding => {
            crate::abort::abort_job(crate::abort::AbortKind::SimBudgetExhausted)
        }
        e => VerilogError::Sim(e),
    }
}

/// Elaborates a DUT and a driver as one file under
/// [`crate::driver::TB_MODULE`], without joining their ASTs: the single
/// definition of "the design a testbench run executes". [`reference_run`]
/// and the differential tests run it; [`crate::EvalSession`] links the
/// same design from its driver's testbench template, and takes this path
/// for a driver that has none.
///
/// # Errors
///
/// Elaboration failure of the combined design.
pub fn elaborate_pair(dut: &SourceFile, driver: &SourceFile) -> Result<Design, TbError> {
    elaborate_files(&[dut, driver], crate::driver::TB_MODULE)
        .map_err(|e| TbError::Verilog(e.into()))
}

/// The simulation-time bound implied by a scenario schedule: every
/// stimulus takes one `#10` step, plus slack for resets and trailing
/// activity.
pub fn limits_for(scenarios: &ScenarioSet) -> SimLimits {
    let stimuli = scenarios.total_stimuli() as u64;
    SimLimits {
        max_time: (stimuli + scenarios.len() as u64 + 32) * 10,
        // Generated DUT mutants can contain runaway procedural loops
        // (e.g. an inverted for-loop step); a tight per-run instruction
        // budget keeps each RS-matrix row cheap. Honest runs use a few
        // hundred instructions per stimulus.
        max_steps: 200_000 + stimuli * 20_000,
        ..SimLimits::default()
    }
}

/// The executable reference for one testbench run: a fresh
/// [`elaborate_pair`], the session's simulation half under
/// [`limits_for`] (a fresh [`Simulator`]), its text view parsed
/// ([`parse_records`]) and the checker interpreter ([`judge_records`]),
/// with no session, no template, no cache and no budget. Jobs run
/// through [`crate::EvalSession`]; the session tests and the golden
/// keystone test compare against this.
///
/// # Errors
///
/// [`TbError::Verilog`] when the DUT/driver pair fails elaboration or
/// simulation; [`TbError::Checker`] when the checker program is broken.
pub fn reference_run(
    dut: &SourceFile,
    driver: &SourceFile,
    checker: &CheckerProgram,
    problem: &Problem,
    scenarios: &ScenarioSet,
) -> Result<TbRun, TbError> {
    let out = simulate(elaborate_pair(dut, driver)?, limits_for(scenarios), false)?;
    let records = parse_records(&out.lines());
    let results = judge_records(&records, checker, problem, scenarios.len())?;
    Ok(TbRun { results })
}

/// The width a record prints `name` at: its port width, defaulting to 1
/// — the single definition shared by the interpreter and session
/// judges.
pub(crate) fn port_width(ports: &[correctbench_dataset::PortSpec], name: &str) -> usize {
    ports.iter().find(|p| p.name == name).map_or(1, |p| p.width)
}

/// Registers every checker input in `binding`, returning its `(slot,
/// printed width)` pairs — the binding-table construction shared by both
/// judges so their record resolution cannot drift.
pub(crate) fn bind_inputs(
    binding: &mut crate::record::RecordBinding,
    checker: &CheckerProgram,
    ports: &[correctbench_dataset::PortSpec],
) -> Vec<(usize, usize)> {
    checker
        .inputs
        .iter()
        .map(|name| (binding.slot(name), port_width(ports, name)))
        .collect()
}

/// The verdict rule for one printed output against its reference value —
/// shared by both judges: a missing field fails, a known value must
/// match exactly, and a printed `x`/`z` is right iff the reference is
/// not fully known.
pub(crate) fn output_ok(
    reference: &correctbench_verilog::LogicVec,
    printed: Option<&FieldValue>,
) -> bool {
    match printed {
        None => false,
        Some(FieldValue::Known(v)) => reference.to_u128() == Some(*v),
        Some(FieldValue::Unknown) => !reference.is_fully_known(),
    }
}

/// Judges already-captured records against the checker, interpreting the
/// IR with [`step`] — the semantic reference the session judge
/// ([`crate::EvalSession`]) is differentially tested against.
///
/// The checker consumes the *input fields of the records* — what the DUT
/// actually saw — so driver bugs (wrong stimuli, missing scenarios) are
/// observable as `Missing` scenarios rather than silently compensated.
///
/// # Errors
///
/// [`TbError::Checker`] when the stream cannot be stepped.
pub fn judge_records(
    records: &[Record],
    checker: &CheckerProgram,
    problem: &Problem,
    num_scenarios: usize,
) -> Result<Vec<ScenarioResult>, TbError> {
    let _span = correctbench_obs::span(correctbench_obs::Phase::Judge);
    let mut state = CheckerState::new(checker);
    let mut seen = vec![false; num_scenarios];
    let mut failed = vec![false; num_scenarios];

    // Binding table, resolved once for the whole stream: each checker
    // input and output gets a slot keyed by name plus its port width;
    // per record one pass over the printed fields fills the slots
    // (first occurrence, exactly like `Record::field`) instead of one
    // linear name search per signal per record.
    let mut binding = crate::record::RecordBinding::default();
    let in_binds = bind_inputs(&mut binding, checker, &problem.ports);
    let out_slots: Vec<usize> = checker
        .outputs
        .iter()
        .map(|o| binding.slot(&o.name))
        .collect();

    // One reusable input table: the key set is fixed (the checker's
    // declared inputs), so per record only the values change — no
    // per-record map or key-string allocation.
    let mut inputs: HashMap<String, correctbench_verilog::LogicVec> = HashMap::new();
    for rec in records {
        binding.bind(rec);
        // Build checker inputs from the record's input fields.
        for (name, (slot, width)) in checker.inputs.iter().zip(in_binds.iter()) {
            let v = match binding.field(*slot, rec) {
                Some(fv) => fv.to_logic(*width),
                None => correctbench_verilog::LogicVec::filled_x(*width),
            };
            match inputs.get_mut(name) {
                Some(entry) => *entry = v,
                None => {
                    inputs.insert(name.clone(), v);
                }
            }
        }
        let expected = step(checker, &mut state, &inputs)?;

        let idx = rec.scenario;
        if idx == 0 || idx > num_scenarios {
            continue;
        }
        seen[idx - 1] = true;
        for (out, slot) in checker.outputs.iter().zip(out_slots.iter()) {
            if !output_ok(&expected[&out.name], binding.field(*slot, rec)) {
                failed[idx - 1] = true;
            }
        }
    }

    Ok((0..num_scenarios)
        .map(|i| {
            if !seen[i] {
                ScenarioResult::Missing
            } else if failed[i] {
                ScenarioResult::Fail
            } else {
                ScenarioResult::Pass
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::generate_driver;
    use crate::scenarios::generate_scenarios;
    use correctbench_checker::compile_module;
    use correctbench_dataset::problem;

    fn golden_setup(name: &str, seed: u64) -> (Problem, ScenarioSet, String, CheckerProgram) {
        let p = problem(name).expect("problem");
        let scen = generate_scenarios(&p, seed);
        let driver = generate_driver(&p, &scen);
        let checker = compile_module(&p.golden_module()).expect("checker");
        (p, scen, driver, checker)
    }

    /// [`reference_run`] over source texts; a parse failure is a
    /// [`TbError::Verilog`] like any other front-end failure.
    fn run_src(
        dut: &str,
        driver: &str,
        checker: &CheckerProgram,
        p: &Problem,
        scen: &ScenarioSet,
    ) -> Result<TbRun, TbError> {
        let dut = correctbench_verilog::parse(dut).map_err(VerilogError::from)?;
        let driver = correctbench_verilog::parse(driver).map_err(VerilogError::from)?;
        reference_run(&dut, &driver, checker, p, scen)
    }

    #[test]
    fn golden_dut_passes_combinational() {
        let (p, scen, driver, checker) = golden_setup("alu_8", 11);
        let run = run_src(&p.golden_rtl, &driver, &checker, &p, &scen).expect("run");
        assert!(run.all_pass(), "results: {:?}", run.results);
    }

    #[test]
    fn golden_dut_passes_sequential() {
        let (p, scen, driver, checker) = golden_setup("counter_8", 13);
        let run = run_src(&p.golden_rtl, &driver, &checker, &p, &scen).expect("run");
        assert!(run.all_pass(), "results: {:?}", run.results);
    }

    #[test]
    fn mutant_dut_fails_somewhere() {
        use rand::SeedableRng;
        let (p, scen, driver, checker) = golden_setup("alu_8", 17);
        let mut file = correctbench_verilog::parse(&p.golden_rtl).expect("parse");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = file.module_mut(&p.name).expect("module");
        correctbench_verilog::mutate::mutate_module(m, &mut rng, 2);
        let mutant_src = correctbench_verilog::pretty::print_file(&file);
        let run = run_src(&mutant_src, &driver, &checker, &p, &scen).expect("run");
        assert!(
            !run.all_pass(),
            "a 2-site ALU mutant should fail some scenario"
        );
    }

    #[test]
    fn broken_dut_is_verilog_error() {
        let (p, scen, driver, checker) = golden_setup("and_8", 3);
        let broken = p.golden_rtl.replace(';', "");
        let r = run_src(&broken, &driver, &checker, &p, &scen);
        assert!(matches!(r, Err(TbError::Verilog(_))));
    }

    #[test]
    fn missing_scenarios_detected() {
        let (p, scen, driver, checker) = golden_setup("and_8", 9);
        // Truncate the driver's stimulus block: drop lines for the last
        // scenario by cutting the source at its comment.
        let marker = format!("// Scenario {}", scen.len());
        let cut = driver.find(&marker).expect("marker");
        let truncated = format!("{}\n$finish;\nend\nendmodule\n", &driver[..cut]);
        let run = run_src(&p.golden_rtl, &truncated, &checker, &p, &scen).expect("run");
        assert_eq!(*run.results.last().expect("last"), ScenarioResult::Missing);
        assert!(!run.all_pass());
    }
}
