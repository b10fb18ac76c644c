//! `bench_sim`: the simulation-core micro-benchmark behind the
//! `BENCH_sim.json` perf trajectory.
//!
//! Measures the end-to-end testbench hot path — combine DUT + driver,
//! elaborate, execute, judge against the checker — on representative
//! combinational and sequential problems, in three configurations:
//!
//! * `tree_walk_ns` — re-elaborate every run (no compile stage — the
//!   pre-bytecode pipeline had none) and execute with the tree-walking
//!   interpreter: the shape of the pre-bytecode hot path (which
//!   additionally deep-cloned each executed instruction, so the
//!   historical baseline was strictly slower than this arm).
//! * `bytecode_ns` — re-elaborate *and recompile* every run, execute
//!   bytecode: the path every freshly generated design takes.
//! * `bytecode_cached_ns` — execute bytecode against the pre-compiled
//!   design: the steady state an `EvalSession` reaches when its design
//!   memo holds the pair (repeated runs of one DUT + driver).
//!
//! Two further interleaved comparisons capture the session API:
//!
//! * `one_shot_sweep_ns` vs `session_sweep_ns` — a repeated-pair sweep
//!   (the RS-matrix / Eval2 shape) through the legacy one-shot path
//!   (per-run elaborate + compile, fresh simulator, interpreted judge)
//!   and through one reusable `EvalSession` (simulator reset, compiled
//!   judge, session design memo).
//! * `judge_interp_ns` vs `judge_session_ns` — judging one pre-captured
//!   record stream with the interpreter (`judge_records`) and with the
//!   session's compiled checker.
//! * `key_debug_hash_ns` vs `key_fingerprint_ns` — building one full
//!   simulation-cache key with the retired rendering hashes
//!   (pretty-print / `Debug` FNV) and with the `StructuralHash` visitor
//!   fingerprints (computed fresh, i.e. the `OnceLock` miss cost; a
//!   steady-state probe on a cached `SourceFile` is two u64 reads).
//! * `bytecode_cached_ns` vs `hot_path_obs_ns` — the same steady-state
//!   hot path with no observability collector armed (spans and counter
//!   probes short-circuit on the thread-local check) and with a live
//!   per-job collector installed (`ObsStack::enabled`), pinning the
//!   enabled-span overhead the harness pays per job.
//! * `golden_derive_ns` vs `golden_cached_ns` — acquiring the
//!   per-problem golden evaluation bundle (golden testbench generation,
//!   golden DUT/driver parses, Eval2 mutant set) by deriving it from
//!   scratch (the per-cell cost AutoEval paid before the golden cache)
//!   and by fetching it from an installed `GoldenCache` (steady state:
//!   every cell of a problem after the first).
//! * `store_cold_job_ns` vs `store_warm_hit_ns` — one full evaluation
//!   job of the problem (CorrectBench method, rep 0) executed from
//!   scratch and replayed from a primed persistent outcome store
//!   (probe + cell decode): the cost a warm `correctbench-run --store`
//!   restart pays per content-identical cell instead of re-executing it.
//! * `lint_warn_ns` — the absolute per-job cost `--lint=warn` adds on
//!   top of a job (combine the sources, parse, run `lint_file`). Its
//!   *relative* overhead only means something against a full job,
//!   which this micro-benchmark does not run, so the end-to-end number
//!   is measured on the harness itself
//!   (the `lint` phase's share of total phase-attributed time in a real
//!   sweep's `metrics.json`) and recorded via `--lint-warn-overhead`.
//!
//! ```text
//! bench_sim [--quick] [--samples N] [--out FILE]
//!           [--baseline NAME=NS]... [--baseline-commit HASH]
//!           [--lint-warn-overhead PCT]
//! ```
//!
//! Writes `BENCH_sim.json` (default, in the working directory) with the
//! per-problem medians in nanoseconds and the speedup of the new hot
//! path over the tree-walker. `--quick` is the CI smoke mode.
//!
//! The *pre-PR* simulator (per-step instruction deep-clones, heap-backed
//! `LogicVec`) no longer exists in this tree, so it cannot be re-run
//! here; `--baseline NAME=NS` records an externally measured end-to-end
//! `run_testbench_parsed` median (e.g. from a `git worktree` checkout of
//! the pre-PR commit running the same workload on the same machine), and
//! the report then includes `speedup_vs_pre_pr` per problem. The
//! committed `BENCH_sim.json` documents the exact command used.

use correctbench_autoeval::{derive_golden_artifacts, golden_artifacts};
use correctbench_checker::CheckerProgram;
use correctbench_dataset::Problem;
use correctbench_harness::{
    cell_key, config_fingerprint, decode_cell, encode_cell, run_job, OutcomeStore, RunPlan,
};
use correctbench_llm::SimulatedClientFactory;
use correctbench_obs::ObsStack;
use correctbench_tbgen::{
    compile_pair, force_one_shot, generate_driver, generate_scenarios, judge_records, limits_for,
    module_interface_fingerprint, run_testbench_parsed, EvalSession, GoldenCache, ScenarioSet,
};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::{debug_hash, structural_hash, StructuralHash};
use correctbench_verilog::{
    elaborate, lint_file, parse, CompiledDesign, ExecMode, SimLimits, Simulator,
};
use std::fmt::Write as _;
use std::time::Instant;

const PROBLEMS: &[&str] = &["alu_8", "mux4_8", "counter_8", "shift18"];

/// Runs per sweep sample: enough repetition for the session's amortized
/// costs to show as they do in a real RS-matrix / Eval2 batch.
const SWEEP: usize = 4;

/// Eval seed of the golden-artifact arms (any fixed value: the bundle's
/// cost, not its content, is what the arms measure).
const GOLDEN_SEED: u64 = 2025;

struct Case {
    problem: Problem,
    scenarios: ScenarioSet,
    dut: SourceFile,
    driver: SourceFile,
    checker: CheckerProgram,
    limits: SimLimits,
}

fn case_for(name: &str) -> Case {
    let problem = correctbench_dataset::problem(name).expect("known problem");
    let scenarios = generate_scenarios(&problem, 7);
    let driver = parse(&generate_driver(&problem, &scenarios)).expect("driver parses");
    let dut = parse(&problem.golden_rtl).expect("golden parses");
    let checker =
        correctbench_checker::compile_module(&problem.golden_module()).expect("golden checker");
    let limits = limits_for(&scenarios);
    Case {
        problem,
        scenarios,
        dut,
        driver,
        checker,
        limits,
    }
}

/// The pre-PR pipeline's per-run front-end cost: combine + elaborate,
/// no compile stage. The result is only a cost model (execution itself
/// runs on the case's shared compiled design, which `compile_pair` —
/// the runner's own helper — produced).
fn elaborate_cost(dut: &SourceFile, driver: &SourceFile) {
    let mut file = dut.clone();
    file.modules.extend(driver.modules.iter().cloned());
    std::hint::black_box(elaborate(&file, correctbench_tbgen::TB_MODULE).expect("elaborate"));
}

/// One full run: simulate `compiled` and judge the records — everything
/// `run_testbench_parsed` does after elaboration.
fn simulate_and_judge(case: &Case, compiled: &CompiledDesign, mode: ExecMode) {
    let out = Simulator::from_compiled_with_limits(compiled, case.limits)
        .with_mode(mode)
        .run()
        .expect("simulation ok");
    let records = correctbench_tbgen::parse_records(&out.lines);
    let verdicts = judge_records(&records, &case.checker, &case.problem, case.scenarios.len())
        .expect("judge ok");
    std::hint::black_box(verdicts);
}

/// Median wall times of `samples` *interleaved* runs of each arm, in
/// nanoseconds. Interleaving matters on shared machines: measuring the
/// arms back-to-back lets a load spike land entirely on one arm and
/// skew the ratio; round-robin sampling spreads drift across all of
/// them.
fn medians_interleaved<const N: usize>(
    samples: usize,
    arms: &mut [&mut dyn FnMut(); N],
) -> [u64; N] {
    for arm in arms.iter_mut() {
        arm(); // warm up
    }
    let mut times = vec![Vec::with_capacity(samples); N];
    for _ in 0..samples {
        for (arm, t) in arms.iter_mut().zip(times.iter_mut()) {
            let t0 = Instant::now();
            arm();
            t.push(t0.elapsed().as_nanos() as u64);
        }
    }
    std::array::from_fn(|i| {
        times[i].sort_unstable();
        times[i][samples / 2]
    })
}

struct Row {
    name: String,
    kind: &'static str,
    tree_walk_ns: u64,
    bytecode_ns: u64,
    bytecode_cached_ns: u64,
    hot_path_obs_ns: u64,
    one_shot_sweep_ns: u64,
    session_sweep_ns: u64,
    judge_interp_ns: u64,
    judge_session_ns: u64,
    key_debug_hash_ns: u64,
    key_fingerprint_ns: u64,
    golden_derive_ns: u64,
    golden_cached_ns: u64,
    lint_warn_ns: u64,
    store_cold_job_ns: u64,
    store_warm_hit_ns: u64,
    pre_pr_ns: Option<u64>,
}

impl Row {
    /// Conservative speedup: new hot path vs. the *current* tree-walker
    /// (itself already sped up by the inline `LogicVec` and the clone
    /// removal).
    fn speedup_vs_tree_walk(&self) -> f64 {
        self.tree_walk_ns as f64 / self.bytecode_cached_ns.max(1) as f64
    }

    /// Session batch vs. legacy one-shot on the repeated-pair sweep.
    fn speedup_session(&self) -> f64 {
        self.one_shot_sweep_ns as f64 / self.session_sweep_ns.max(1) as f64
    }

    /// Compiled checker vs. interpreted judging of one record stream.
    fn speedup_judge(&self) -> f64 {
        self.judge_interp_ns as f64 / self.judge_session_ns.max(1) as f64
    }

    /// Visitor-fingerprint key construction vs. the rendering hashes.
    fn speedup_fingerprint(&self) -> f64 {
        self.key_debug_hash_ns as f64 / self.key_fingerprint_ns.max(1) as f64
    }

    /// Cached golden-bundle fetch vs. deriving the bundle from scratch.
    fn speedup_golden(&self) -> f64 {
        self.golden_derive_ns as f64 / self.golden_cached_ns.max(1) as f64
    }

    /// Persistent-store cell replay vs. executing the job from scratch.
    fn speedup_store(&self) -> f64 {
        self.store_cold_job_ns as f64 / self.store_warm_hit_ns.max(1) as f64
    }

    /// Cost of a live observability collector on the steady-state hot
    /// path, in percent over the unobserved run.
    fn obs_overhead_pct(&self) -> f64 {
        (self.hot_path_obs_ns as f64 / self.bytecode_cached_ns.max(1) as f64 - 1.0) * 100.0
    }

    /// Speedup vs. the externally measured pre-PR baseline, when given.
    fn speedup_vs_pre_pr(&self) -> Option<f64> {
        self.pre_pr_ns
            .map(|b| b as f64 / self.bytecode_cached_ns.max(1) as f64)
    }
}

fn median_f64(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(xs[xs.len() / 2])
}

fn main() {
    let mut samples = 40usize;
    let mut out_path = "BENCH_sim.json".to_string();
    let mut baselines: Vec<(String, u64)> = Vec::new();
    let mut baseline_commit = String::new();
    let mut lint_warn_overhead: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => samples = 9,
            "--samples" => {
                samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| usage("--samples needs a positive number"))
            }
            "--out" => out_path = it.next().unwrap_or_else(|| usage("--out needs a path")),
            "--baseline" => {
                let spec = it
                    .next()
                    .unwrap_or_else(|| usage("--baseline needs NAME=NS"));
                let (name, ns) = spec
                    .split_once('=')
                    .and_then(|(n, v)| v.parse().ok().map(|ns| (n.to_string(), ns)))
                    .unwrap_or_else(|| usage("--baseline needs NAME=NS"));
                baselines.push((name, ns));
            }
            "--baseline-commit" => {
                baseline_commit = it
                    .next()
                    .unwrap_or_else(|| usage("--baseline-commit needs a hash"))
            }
            "--lint-warn-overhead" => {
                lint_warn_overhead = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--lint-warn-overhead needs a percentage")),
                )
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    let mut rows = Vec::new();
    for name in PROBLEMS {
        let case = case_for(name);
        let compiled = compile_pair(&case.dut, &case.driver).expect("elaborate");
        // One pre-captured record stream for the judge-only arms.
        let records = {
            let out = Simulator::from_compiled_with_limits(&compiled, case.limits)
                .run()
                .expect("simulation ok");
            correctbench_tbgen::parse_records(&out.lines)
        };
        let mut sweep_session =
            EvalSession::new(&case.problem, &case.checker).expect("checker compiles");
        let mut judge_session =
            EvalSession::new(&case.problem, &case.checker).expect("checker compiles");
        let golden_cache = GoldenCache::new();
        let _golden_guard = golden_cache.install();
        // Prime the golden shard so the cached arm measures steady-state
        // hits, not the first derivation.
        std::hint::black_box(golden_artifacts(&case.problem, GOLDEN_SEED));
        // The driver text the worker's lint pass combines with the
        // golden DUT, as it does per job.
        let driver_text = generate_driver(&case.problem, &case.scenarios);
        // The persistent-store pair: one full job of this problem
        // (CorrectBench, rep 0) executed cold vs replayed from a store
        // primed with its published cell.
        let store_plan = RunPlan::new("bench-store", vec![case.problem.clone()]);
        let store_jobs = store_plan.jobs();
        let store_job = &store_jobs[0];
        let store_factory = SimulatedClientFactory::for_model(store_plan.model);
        let store_dir = std::env::temp_dir().join(format!(
            "correctbench_bench_store_{}_{}",
            std::process::id(),
            case.problem.name
        ));
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = OutcomeStore::open(&store_dir).expect("open store");
        let store_key = cell_key(store_job, config_fingerprint(&store_plan));
        let primed = run_job(store_job, &store_plan.config, &store_factory);
        store
            .put(&store_key, &encode_cell(&primed))
            .expect("publish primed cell");
        let [tree_walk_ns, bytecode_ns, bytecode_cached_ns, hot_path_obs_ns, one_shot_sweep_ns, session_sweep_ns, judge_interp_ns, judge_session_ns, key_debug_hash_ns, key_fingerprint_ns, golden_derive_ns, golden_cached_ns, lint_warn_ns, store_cold_job_ns, store_warm_hit_ns] =
            medians_interleaved(
                samples,
                &mut [
                    &mut || {
                        elaborate_cost(&case.dut, &case.driver);
                        simulate_and_judge(&case, &compiled, ExecMode::TreeWalk);
                    },
                    &mut || {
                        let fresh = compile_pair(&case.dut, &case.driver).expect("elaborate");
                        simulate_and_judge(&case, &fresh, ExecMode::Bytecode);
                    },
                    &mut || {
                        simulate_and_judge(&case, &compiled, ExecMode::Bytecode);
                    },
                    &mut || {
                        // The identical hot path with a collector armed:
                        // every span and counter flush does real work.
                        let _obs = ObsStack::enabled().install();
                        simulate_and_judge(&case, &compiled, ExecMode::Bytecode);
                    },
                    &mut || {
                        // The legacy one-shot path, as a sweep caller pays it
                        // without a session: per-run front end, fresh
                        // simulator, interpreted judge. (No sim cache is
                        // installed in this process.)
                        let _guard = force_one_shot();
                        for _ in 0..SWEEP {
                            std::hint::black_box(
                                run_testbench_parsed(
                                    &case.dut,
                                    &case.driver,
                                    &case.checker,
                                    &case.problem,
                                    &case.scenarios,
                                )
                                .expect("run ok"),
                            );
                        }
                    },
                    &mut || {
                        for _ in 0..SWEEP {
                            std::hint::black_box(
                                sweep_session
                                    .run(&case.dut, &case.driver, &case.scenarios)
                                    .expect("run ok"),
                            );
                        }
                    },
                    &mut || {
                        std::hint::black_box(
                            judge_records(
                                &records,
                                &case.checker,
                                &case.problem,
                                case.scenarios.len(),
                            )
                            .expect("judge ok"),
                        );
                    },
                    &mut || {
                        std::hint::black_box(
                            judge_session
                                .judge(&records, case.scenarios.len())
                                .expect("judge ok"),
                        );
                    },
                    &mut || {
                        // One full cache key the retired way: render the
                        // artifacts and FNV the streams.
                        std::hint::black_box((
                            structural_hash(&case.dut),
                            structural_hash(&case.driver),
                            debug_hash(&case.checker),
                            debug_hash(&case.scenarios),
                            debug_hash(&(case.problem.name.as_str(), &case.problem.ports)),
                        ));
                    },
                    &mut || {
                        // The same key via visitor fingerprints, computed
                        // fresh (trait call bypasses the SourceFile cache).
                        std::hint::black_box((
                            StructuralHash::fingerprint(&case.dut),
                            StructuralHash::fingerprint(&case.driver),
                            case.checker.fingerprint(),
                            case.scenarios.fingerprint(),
                            module_interface_fingerprint(&case.problem.name, &case.problem.ports),
                        ));
                    },
                    &mut || {
                        // The per-cell golden cost AutoEval paid before
                        // the cache: full bundle derivation.
                        std::hint::black_box(derive_golden_artifacts(&case.problem, GOLDEN_SEED));
                    },
                    &mut || {
                        // Fetch the primed bundle from the installed
                        // golden cache (steady state: every cell after
                        // the first).
                        std::hint::black_box(golden_artifacts(&case.problem, GOLDEN_SEED));
                    },
                    &mut || {
                        // Exactly what `--lint=warn` adds per job:
                        // combine, parse, lint.
                        let combined = format!("{}\n{}", case.problem.golden_rtl, driver_text);
                        let parsed = parse(&combined).expect("combined parses");
                        std::hint::black_box(lint_file(&parsed));
                    },
                    &mut || {
                        // The cold side: the full job a warm restart
                        // gets to skip.
                        std::hint::black_box(run_job(
                            store_job,
                            &store_plan.config,
                            &store_factory,
                        ));
                    },
                    &mut || {
                        // The warm side: probe the open store and decode
                        // the cell back into a TaskOutcome.
                        let payload = store.get(&store_key).expect("primed cell");
                        std::hint::black_box(
                            decode_cell(&payload, store_job, false).expect("cell decodes"),
                        );
                    },
                ],
            );
        let _ = std::fs::remove_dir_all(&store_dir);
        let row = Row {
            name: case.problem.name.clone(),
            kind: if case.problem.kind.is_combinational() {
                "cmb"
            } else {
                "seq"
            },
            tree_walk_ns,
            bytecode_ns,
            bytecode_cached_ns,
            hot_path_obs_ns,
            one_shot_sweep_ns,
            session_sweep_ns,
            judge_interp_ns,
            judge_session_ns,
            key_debug_hash_ns,
            key_fingerprint_ns,
            golden_derive_ns,
            golden_cached_ns,
            lint_warn_ns,
            store_cold_job_ns,
            store_warm_hit_ns,
            pre_pr_ns: baselines
                .iter()
                .find(|(n, _)| n == &case.problem.name)
                .map(|(_, ns)| *ns),
        };
        let vs_pre_pr = row
            .speedup_vs_pre_pr()
            .map(|s| format!(" | vs pre-PR {s:.2}x"))
            .unwrap_or_default();
        eprintln!(
            "{:<12} tree-walk {:>9} ns | bytecode {:>9} ns | precompiled {:>9} ns | vs tree {:.2}x | session sweep {:.2}x | judge {:.2}x | key fp {:.2}x | golden {:.2}x | lint warn {:>7} ns | store warm {:.0}x | obs {:+.2}%{vs_pre_pr}",
            row.name, row.tree_walk_ns, row.bytecode_ns, row.bytecode_cached_ns,
            row.speedup_vs_tree_walk(), row.speedup_session(), row.speedup_judge(),
            row.speedup_fingerprint(), row.speedup_golden(), row.lint_warn_ns,
            row.speedup_store(), row.obs_overhead_pct(),
        );
        rows.push(row);
    }

    let median_vs_tree =
        median_f64(rows.iter().map(Row::speedup_vs_tree_walk).collect()).expect("rows");
    let median_session = median_f64(rows.iter().map(Row::speedup_session).collect()).expect("rows");
    let median_judge = median_f64(rows.iter().map(Row::speedup_judge).collect()).expect("rows");
    let median_fingerprint =
        median_f64(rows.iter().map(Row::speedup_fingerprint).collect()).expect("rows");
    let median_golden = median_f64(rows.iter().map(Row::speedup_golden).collect()).expect("rows");
    let median_store = median_f64(rows.iter().map(Row::speedup_store).collect()).expect("rows");
    let median_obs = median_f64(rows.iter().map(Row::obs_overhead_pct).collect()).expect("rows");
    let median_vs_pre_pr = median_f64(rows.iter().filter_map(Row::speedup_vs_pre_pr).collect());

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sim_exec\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(
        json,
        "  \"median_speedup_vs_tree_walk\": {median_vs_tree:.2},"
    );
    let _ = writeln!(json, "  \"sweep_runs_per_sample\": {SWEEP},");
    let _ = writeln!(
        json,
        "  \"median_speedup_session_vs_one_shot\": {median_session:.2},"
    );
    let _ = writeln!(
        json,
        "  \"median_speedup_judge_compiled_vs_interp\": {median_judge:.2},"
    );
    let _ = writeln!(
        json,
        "  \"median_speedup_key_fingerprint_vs_debug_hash\": {median_fingerprint:.2},"
    );
    let _ = writeln!(
        json,
        "  \"median_speedup_golden_cached_vs_derived\": {median_golden:.2},"
    );
    let _ = writeln!(
        json,
        "  \"median_speedup_store_warm_vs_cold\": {median_store:.2},"
    );
    if let Some(pct) = lint_warn_overhead {
        let _ = writeln!(json, "  \"lint_warn_overhead_pct\": {pct:.2},");
        let _ = writeln!(
            json,
            "  \"lint_warn_overhead_method\": \"lint-phase share of total phase-attributed time in metrics.json over a correctbench-run sweep (--problems 24 --reps 2 --lint warn), same machine and binary\","
        );
    }
    let _ = writeln!(json, "  \"median_obs_overhead_pct\": {median_obs:.2},");
    if let Some(m) = median_vs_pre_pr {
        let _ = writeln!(json, "  \"median_speedup_vs_pre_pr\": {m:.2},");
        let _ = writeln!(
            json,
            "  \"pre_pr_baseline\": {{\"commit\": \"{}\", \"method\": \"end-to-end run_testbench_parsed equivalent (elaborate + simulate + parse records + judge) measured at the pre-PR commit via git worktree, same machine and flags\"}},",
            if baseline_commit.is_empty() { "unspecified" } else { &baseline_commit },
        );
    }
    let _ = writeln!(json, "  \"problems\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let pre = match (r.pre_pr_ns, r.speedup_vs_pre_pr()) {
            (Some(ns), Some(s)) => format!(",\"pre_pr_ns\":{ns},\"speedup_vs_pre_pr\":{s:.2}"),
            _ => String::new(),
        };
        let _ = writeln!(
            json,
            "    {{\"name\":\"{}\",\"kind\":\"{}\",\"tree_walk_ns\":{},\"bytecode_ns\":{},\"bytecode_cached_ns\":{},\"speedup_vs_tree_walk\":{:.2},\"one_shot_sweep_ns\":{},\"session_sweep_ns\":{},\"speedup_session_vs_one_shot\":{:.2},\"judge_interp_ns\":{},\"judge_session_ns\":{},\"speedup_judge_compiled_vs_interp\":{:.2},\"key_debug_hash_ns\":{},\"key_fingerprint_ns\":{},\"speedup_key_fingerprint\":{:.2},\"golden_derive_ns\":{},\"golden_cached_ns\":{},\"speedup_golden_cached\":{:.2},\"lint_warn_ns\":{},\"store_cold_job_ns\":{},\"store_warm_hit_ns\":{},\"speedup_store_warm_vs_cold\":{:.2},\"hot_path_obs_ns\":{},\"obs_overhead_pct\":{:.2}{pre}}}{comma}",
            r.name, r.kind, r.tree_walk_ns, r.bytecode_ns, r.bytecode_cached_ns,
            r.speedup_vs_tree_walk(), r.one_shot_sweep_ns, r.session_sweep_ns,
            r.speedup_session(), r.judge_interp_ns, r.judge_session_ns, r.speedup_judge(),
            r.key_debug_hash_ns, r.key_fingerprint_ns, r.speedup_fingerprint(),
            r.golden_derive_ns, r.golden_cached_ns, r.speedup_golden(),
            r.lint_warn_ns,
            r.store_cold_job_ns, r.store_warm_hit_ns, r.speedup_store(),
            r.hot_path_obs_ns, r.obs_overhead_pct(),
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    let tail = match median_vs_pre_pr {
        Some(m) => format!(", {m:.2}x vs pre-PR"),
        None => String::new(),
    };
    let lint_tail = match lint_warn_overhead {
        Some(pct) => format!(", lint warn overhead {pct:+.2}%"),
        None => String::new(),
    };
    eprintln!(
        "median speedups: {median_vs_tree:.2}x vs tree-walk, session sweep {median_session:.2}x, compiled judge {median_judge:.2}x, fingerprint keys {median_fingerprint:.2}x, cached golden {median_golden:.2}x, warm store {median_store:.2}x, obs overhead {median_obs:+.2}%{lint_tail}{tail} -> {out_path}"
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bench_sim [--quick] [--samples N] [--out FILE] [--baseline NAME=NS]... [--baseline-commit HASH] [--lint-warn-overhead PCT]"
    );
    std::process::exit(2)
}
