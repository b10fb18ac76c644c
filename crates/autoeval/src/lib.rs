//! AutoEval: the paper's testbench evaluation harness (Table II).
//!
//! | level | definition |
//! |---|---|
//! | Failed | codes have syntax errors |
//! | Eval0  | codes have no syntax errors |
//! | Eval1  | passed Eval0; the testbench reports *passed* with the golden RTL as DUT |
//! | Eval2  | passed Eval1; over 10 mutants of the golden RTL, the testbench's pass/fail reports agree with the golden testbench's on ≥80% |
//!
//! Eval2 is the paper's headline "pass ratio" metric: it measures whether
//! a generated testbench *discriminates* like a trusted one, not merely
//! whether it flatters the golden design.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use correctbench_checker::compile_module;
use correctbench_dataset::Problem;
use correctbench_llm::{CheckerArtifact, HybridTb};
use correctbench_tbgen::{
    abort_job, generate_driver, generate_scenarios, AbortKind, Driver, EvalContext, EvalSession,
    GoldenArtifacts, GoldenCache, GoldenKey, ScenarioResult, TbError, TbRun,
};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::mutate::mutate_module;
use correctbench_verilog::pretty::print_file;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The evaluation outcome, ordered `Failed < Eval0 < Eval1 < Eval2`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EvalLevel {
    /// Syntax errors in driver or checker.
    Failed,
    /// Syntactically sound.
    Eval0,
    /// Reports "passed" on the golden DUT.
    Eval1,
    /// Mutant reports agree with the golden testbench on ≥80% of mutants.
    Eval2,
}

impl EvalLevel {
    /// All levels in ascending order.
    pub const ALL: [EvalLevel; 4] = [
        EvalLevel::Failed,
        EvalLevel::Eval0,
        EvalLevel::Eval1,
        EvalLevel::Eval2,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EvalLevel::Failed => "Failed",
            EvalLevel::Eval0 => "Eval0",
            EvalLevel::Eval1 => "Eval1",
            EvalLevel::Eval2 => "Eval2",
        }
    }
}

/// Number of mutant DUTs used by Eval2 (paper: 10).
pub const EVAL2_MUTANTS: usize = 10;

/// Required report-agreement fraction (paper: 80%).
pub const EVAL2_AGREEMENT: f64 = 0.8;

/// The testbench's own pass/fail report from one run: "passed" means no
/// scenario *failed* (missing scenarios cannot fail a report — the
/// testbench does not know what it does not test, which is exactly why
/// Eval1 is not exhaustive).
fn tb_report(run: Result<TbRun, TbError>) -> Option<bool> {
    match run {
        Ok(run) => {
            let any_seen = run
                .results
                .iter()
                .any(|r| !matches!(r, ScenarioResult::Missing));
            if !any_seen {
                return None;
            }
            Some(
                !run.results
                    .iter()
                    .any(|r| matches!(r, ScenarioResult::Fail)),
            )
        }
        Err(_) => None,
    }
}

/// Parses source the dataset invariant (or the golden generator)
/// guarantees is well-formed. If the invariant is ever violated, the
/// job aborts with a structured `parse_error` instead of panicking the
/// worker — one bad fixture must not read as a harness crash.
fn parse_trusted(src: &str, what: &str) -> SourceFile {
    match correctbench_verilog::parse(src) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("trusted {what} failed to parse: {e}");
            abort_job(AbortKind::ParseError)
        }
    }
}

/// Generates the `EVAL2_MUTANTS` mutant DUTs of `problem`'s parsed
/// golden RTL, deterministic in `seed`. Each mutant is printed and kept
/// as the parse that verifies it (it must also elaborate), so it is
/// never parsed again.
pub fn eval2_mutants(problem: &Problem, golden: &SourceFile, seed: u64) -> Vec<SourceFile> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000e_7a12);
    let mut mutants = Vec::with_capacity(EVAL2_MUTANTS);
    let mut guard = 0;
    while mutants.len() < EVAL2_MUTANTS && guard < EVAL2_MUTANTS * 20 {
        guard += 1;
        let mut file = golden.clone();
        let n = 1 + rng.gen_range(0..2usize);
        if let Some(m) = file.module_mut(&problem.name) {
            if mutate_module(m, &mut rng, n).is_empty() {
                continue;
            }
        }
        let parsed = correctbench_verilog::parse(&print_file(&file))
            .ok()
            .filter(|f| correctbench_verilog::elaborate(f, &problem.name).is_ok());
        if let Some(mutant) = parsed {
            mutants.push(mutant);
        }
    }
    mutants
}

/// The golden (trusted) testbench for a problem: canonical scenarios,
/// generated driver, checker compiled from the golden RTL.
pub fn golden_testbench(problem: &Problem, seed: u64) -> HybridTb {
    golden_testbench_of(
        problem,
        &parse_trusted(&problem.golden_rtl, "golden RTL"),
        seed,
    )
}

/// [`golden_testbench`] with the checker compiled from an
/// already-parsed golden DUT.
fn golden_testbench_of(problem: &Problem, golden: &SourceFile, seed: u64) -> HybridTb {
    let scenarios = generate_scenarios(problem, seed ^ 0x601d);
    let driver = Driver::new(generate_driver(problem, &scenarios));
    let Some(module) = golden.module(&problem.name) else {
        eprintln!("golden RTL does not define `{}`", problem.name);
        abort_job(AbortKind::ParseError)
    };
    let checker = CheckerArtifact::clean(match compile_module(module) {
        Ok(program) => program,
        Err(e) => {
            eprintln!("golden RTL failed to compile to checker IR: {e:?}");
            abort_job(AbortKind::ParseError)
        }
    });
    HybridTb {
        scenarios,
        driver,
        checker,
    }
}

/// Derives the full golden fixture bundle for one `(problem, eval
/// seed)` pair from scratch: parses the golden RTL once, derives the
/// golden testbench ([`golden_testbench`]) and the parsed Eval2 mutant
/// set ([`eval2_mutants`]) from that parse, and runs the static
/// pre-screen over the mutants. Pure in its inputs — the cached and
/// uncached evaluation paths produce identical fixtures by construction.
///
/// The pre-screen drops every mutant whose
/// [`LintReport`](correctbench_verilog::LintReport) signature differs
/// from the golden DUT's: any lint-gated pipeline rejects such a mutant
/// identically for every testbench, so the generated and golden
/// testbenches agree on it by construction and Eval2 need not simulate
/// it. It depends only on the golden DUT and the mutant set, so it runs
/// here, once per bundle, not once per evaluated testbench.
pub fn derive_golden_artifacts(problem: &Problem, seed: u64) -> GoldenArtifacts {
    let dut = parse_trusted(&problem.golden_rtl, "golden RTL");
    let tb = golden_testbench_of(problem, &dut, seed);
    if tb.driver.parsed().is_none() {
        eprintln!("trusted golden driver failed to parse");
        abort_job(AbortKind::ParseError)
    }
    let golden_signature = lint_signature(&dut);
    let (mutants, distinguished): (Vec<_>, Vec<_>) = eval2_mutants(problem, &dut, seed)
        .into_iter()
        .partition(|m| lint_signature(m) == golden_signature);
    GoldenArtifacts {
        dut,
        scenarios: tb.scenarios,
        driver: tb.driver,
        checker: tb.checker.program,
        mutants,
        statically_distinguished: distinguished.len(),
    }
}

/// The golden fixture bundle, through `cache`: every `(method, rep)`
/// cell of a problem shares one eval seed, so only the first call pays
/// [`derive_golden_artifacts`].
pub fn golden_artifacts(cache: &GoldenCache, problem: &Problem, seed: u64) -> Arc<GoldenArtifacts> {
    let key = GoldenKey::for_eval(problem, seed);
    if let Some(hit) = cache.get(&key) {
        return hit;
    }
    // Derivation happens outside the shard lock, so two workers racing
    // the first cell of a problem may both derive; the bundle is a pure
    // function of the key, so either insertion is correct.
    let derived = Arc::new(derive_golden_artifacts(problem, seed));
    cache.put(key, Arc::clone(&derived));
    derived
}

/// The static pre-screen's comparison key (see
/// [`derive_golden_artifacts`]): the file's lint-report signature.
fn lint_signature(file: &SourceFile) -> u64 {
    correctbench_verilog::lint_file(file).signature()
}

/// Evaluates `tb` for `problem`, returning the highest level reached.
/// `seed` fixes the Eval2 mutant set (use the same seed when comparing
/// methods). The driver is judged through the parse it carries. Every
/// run reads `ctx`'s simulation cache and budget, and the golden
/// fixtures come through its golden cache when it has one.
pub fn evaluate(problem: &Problem, tb: &HybridTb, seed: u64, ctx: &EvalContext) -> EvalLevel {
    let _span = correctbench_obs::span(correctbench_obs::Phase::Autoeval);
    // Eval0: syntax.
    let Some(driver) = tb.driver.parsed().filter(|f| {
        f.modules
            .iter()
            .any(|m| m.name == correctbench_tbgen::TB_MODULE)
    }) else {
        return EvalLevel::Failed;
    };
    if tb.checker.broken {
        return EvalLevel::Failed;
    }

    // One session per testbench: checker compiled and record bindings
    // resolved once for the Eval1 report and every Eval2 mutant run of
    // this call.
    let Ok(mut session) = EvalSession::new(problem, &tb.checker.program, ctx) else {
        return EvalLevel::Failed; // checker program the judge cannot run
    };

    // With a golden cache the whole fixture bundle is fetched (or
    // derived once) up front. Without one, stay lazy: an Eval0/Eval1
    // exit must not pay for mutants it will never sweep.
    let cached = ctx
        .golden
        .as_deref()
        .map(|cache| golden_artifacts(cache, problem, seed));

    // Eval1: the golden DUT must elaborate with the driver and report pass.
    let local_dut;
    let golden_dut = match &cached {
        Some(golden) => &golden.dut,
        None => {
            local_dut = parse_trusted(&problem.golden_rtl, "golden RTL");
            &local_dut
        }
    };
    match tb_report(session.run(golden_dut, driver, &tb.scenarios)) {
        Some(true) => {}
        Some(false) => return EvalLevel::Eval0,
        None => return EvalLevel::Failed, // driver does not even elaborate
    }

    // Eval2: agreement with the golden testbench over mutant DUTs — the
    // canonical mutant sweep: each session replays its own driver against
    // the shared, once-parsed mutant set.
    let golden = match cached {
        Some(golden) => golden,
        None => Arc::new(derive_golden_artifacts(problem, seed)),
    };
    // Mutants the static pre-screen told apart count as agreements
    // without simulation and are absent from *both* sweeps.
    let static_agree = golden.statically_distinguished;
    if golden.mutants.is_empty() && static_agree == 0 {
        return EvalLevel::Eval2; // no usable mutants: vacuous agreement
    }
    let mine = session.sweep_mutants(&golden.mutants, driver, &tb.scenarios);
    let golden_reports: Vec<Option<bool>> = match (
        EvalSession::new(problem, &golden.checker, ctx),
        golden.driver.parsed(),
    ) {
        (Ok(mut golden_session), Some(golden_driver)) => golden_session
            .sweep_mutants(&golden.mutants, golden_driver, &golden.scenarios)
            .into_iter()
            .map(tb_report)
            .collect(),
        // Unreachable for derived bundles (the golden checker compiles
        // and the golden driver parses); degrade to per-run "no
        // report" like the interpreter would.
        _ => vec![None; golden.mutants.len()],
    };
    let mut agree = static_agree;
    let mut counted = static_agree;
    for (mine, golden) in mine.into_iter().zip(golden_reports) {
        match (tb_report(mine), golden) {
            (Some(a), Some(b)) => {
                counted += 1;
                if a == b {
                    agree += 1;
                }
            }
            (None, None) => {
                counted += 1;
                agree += 1;
            }
            _ => counted += 1,
        }
    }
    if counted == 0 || (agree as f64 / counted as f64) >= EVAL2_AGREEMENT {
        EvalLevel::Eval2
    } else {
        EvalLevel::Eval1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use correctbench_dataset::problem;

    /// [`evaluate`] with no reuse layer and no budget.
    fn eval(p: &Problem, tb: &HybridTb, seed: u64) -> EvalLevel {
        evaluate(p, tb, seed, &EvalContext::default())
    }

    #[test]
    fn golden_testbench_reaches_eval2() {
        for name in ["alu_8", "counter_8", "seq_det_101", "mux6_4"] {
            let p = problem(name).expect("problem");
            let tb = golden_testbench(&p, 3);
            assert_eq!(eval(&p, &tb, 3), EvalLevel::Eval2, "{name}");
        }
    }

    #[test]
    fn broken_driver_fails() {
        let p = problem("and_8").expect("problem");
        let mut tb = golden_testbench(&p, 3);
        tb.driver = Driver::new(tb.driver.text().replace("endmodule", ""));
        assert_eq!(eval(&p, &tb, 3), EvalLevel::Failed);
    }

    #[test]
    fn broken_checker_fails() {
        let p = problem("and_8").expect("problem");
        let mut tb = golden_testbench(&p, 3);
        tb.checker.broken = true;
        assert_eq!(eval(&p, &tb, 3), EvalLevel::Failed);
    }

    #[test]
    fn buggy_checker_stops_at_eval0() {
        use rand::SeedableRng;
        let p = problem("alu_8").expect("problem");
        let mut stopped = 0;
        for seed in 0..10u64 {
            let mut tb = golden_testbench(&p, 3);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            correctbench_checker::mutate_ir(&mut tb.checker.program, &mut rng, 2);
            let lvl = eval(&p, &tb, 3);
            if lvl <= EvalLevel::Eval0 {
                stopped += 1;
            }
        }
        // Most 2-defect checkers should disagree with the golden DUT.
        assert!(stopped >= 7, "only {stopped}/10 buggy checkers caught");
    }

    #[test]
    fn thin_testbench_passes_eval1_fails_eval2() {
        // Keep only the first scenario: the golden DUT still "passes",
        // but mutants are no longer killed like the golden TB kills them.
        let p = problem("alu_8").expect("problem");
        let mut caught_gap = false;
        for seed in 0..8u64 {
            let mut tb = golden_testbench(&p, seed);
            tb.scenarios.scenarios.truncate(1);
            tb.driver = Driver::new(generate_driver(&p, &tb.scenarios));
            let lvl = eval(&p, &tb, seed);
            assert!(lvl >= EvalLevel::Eval1, "thin TB must still pass Eval1");
            if lvl == EvalLevel::Eval1 {
                caught_gap = true;
            }
        }
        assert!(
            caught_gap,
            "a one-scenario TB should fail Eval2 for at least one mutant set"
        );
    }

    #[test]
    fn mutants_are_deterministic_and_valid() {
        let p = problem("counter_8").expect("problem");
        let golden = parse_trusted(&p.golden_rtl, "golden RTL");
        let a = eval2_mutants(&p, &golden, 9);
        let b = eval2_mutants(&p, &golden, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), EVAL2_MUTANTS);
        for m in &a {
            correctbench_verilog::elaborate(m, &p.name).expect("mutant elaborates");
        }
    }

    #[test]
    fn golden_cache_is_transparent_and_hits_on_reuse() {
        let p = problem("alu_8").expect("problem");
        let tb = golden_testbench(&p, 5);
        let uncached = eval(&p, &tb, 5);
        let ctx = EvalContext::cached();
        let golden = ctx.golden.as_ref().expect("layer");
        assert_eq!(
            evaluate(&p, &tb, 5, &ctx),
            uncached,
            "cache must not change levels"
        );
        let s = golden.stats();
        assert_eq!(
            (s.hits, s.misses, s.entries),
            (0, 1, 1),
            "first cell derives"
        );
        assert_eq!(evaluate(&p, &tb, 5, &ctx), uncached);
        let s = golden.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1), "second cell hits");
        // A different eval seed is a different derivation.
        let tb7 = golden_testbench(&p, 7);
        evaluate(&p, &tb7, 7, &ctx);
        assert_eq!(golden.stats().misses, 2);
    }

    #[test]
    fn cached_and_derived_bundles_are_identical() {
        let p = problem("counter_8").expect("problem");
        let derived = derive_golden_artifacts(&p, 9);
        let cache = GoldenCache::new();
        let first = golden_artifacts(&cache, &p, 9);
        let second = golden_artifacts(&cache, &p, 9);
        assert!(Arc::ptr_eq(&first, &second), "second call shares the entry");
        assert_eq!(first.driver.text(), derived.driver.text());
        assert_eq!(first.scenarios, derived.scenarios);
        assert_eq!(first.dut, derived.dut);
        assert_eq!(first.driver.parsed(), derived.driver.parsed());
        assert_eq!(first.mutants, derived.mutants);
        assert_eq!(
            first.statically_distinguished,
            derived.statically_distinguished
        );
        assert_eq!(
            first.mutants.len() + first.statically_distinguished,
            EVAL2_MUTANTS
        );
    }

    #[test]
    fn dropped_driver_mutant_is_statically_distinguished() {
        // Deleting a register's driving statement changes the dataflow
        // shape (undriven/unused findings appear), so the lint
        // signatures diverge and the mutant never reaches a simulator.
        let p = problem("counter_8").expect("problem");
        let dut = parse_trusted(&p.golden_rtl, "golden RTL");
        let mut mutant = dut.clone();
        let m = mutant.module_mut(&p.name).expect("module");
        for item in &mut m.items {
            if let correctbench_verilog::ast::Item::Always(always) = item {
                always.body = correctbench_verilog::ast::Stmt::Block(Vec::new());
            }
        }
        assert_ne!(lint_signature(&dut), lint_signature(&mutant));
        // Identical sources carry identical signatures: the pre-screen
        // must never fabricate agreement for an unchanged DUT.
        assert_eq!(lint_signature(&dut), lint_signature(&dut.clone()));
    }

    #[test]
    fn levels_ordered() {
        assert!(EvalLevel::Failed < EvalLevel::Eval0);
        assert!(EvalLevel::Eval0 < EvalLevel::Eval1);
        assert!(EvalLevel::Eval1 < EvalLevel::Eval2);
    }
}
