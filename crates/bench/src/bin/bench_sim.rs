//! `bench_sim`: the simulation-core micro-benchmark behind the
//! `BENCH_sim.json` perf trajectory.
//!
//! Measures the testbench hot path on representative combinational and
//! sequential problems, with interleaved comparisons:
//!
//! * `fresh_design_ns` vs `hot_path_obs_ns` — one uncached run
//!   (elaborate DUT + driver, simulate, judge against the checker: what
//!   every job's session does on a cache miss) with no observability
//!   collector armed (spans and counter probes short-circuit on the
//!   thread-local check) and with a live per-job collector installed
//!   (`ObsStack::enabled`), pinning the enabled-span overhead the
//!   harness pays per job.
//! * `judge_interp_ns` vs `judge_session_ns` — judging one pre-captured
//!   record stream with the interpreter (`judge_records`) and with the
//!   session's compiled checker.
//! * `golden_derive_ns` vs `golden_cached_ns` — acquiring the
//!   per-problem golden evaluation bundle (golden testbench generation,
//!   golden DUT/driver parses, Eval2 mutant set) by deriving it from
//!   scratch (the per-cell cost AutoEval paid before the golden cache)
//!   and by fetching it from a primed `GoldenCache` (steady state:
//!   every cell of a problem after the first).
//! * `store_cold_job_ns` vs `store_warm_hit_ns` — one full evaluation
//!   job of the problem (CorrectBench method, rep 0) executed from
//!   scratch and replayed from a primed persistent outcome store
//!   (probe + cell decode): the cost a warm `correctbench-run --store`
//!   restart pays per content-identical cell instead of re-executing it.
//! * `lint_warn_ns` — the absolute per-job cost `--lint=warn` adds on
//!   top of a job (parse the golden DUT, run `lint_files` over it and
//!   the driver's carried parse; the driver is not parsed again). Its
//!   *relative* overhead only means something against a full job,
//!   which this micro-benchmark does not run, so the end-to-end number
//!   is measured on the harness itself
//!   (the `lint` phase's share of total phase-attributed time in a real
//!   sweep's `metrics.json`) and recorded via `--lint-warn-overhead`.
//!
//! ```text
//! bench_sim [--quick] [--samples N] [--out FILE] [--lint-warn-overhead PCT]
//! ```
//!
//! Writes `BENCH_sim.json` (default, in the working directory) with the
//! per-problem medians in nanoseconds and, for each ratio, its median
//! over the problems with the per-problem min and max beside it.
//! `--quick` is the CI smoke mode.

use correctbench_autoeval::{derive_golden_artifacts, golden_artifacts};
use correctbench_checker::CheckerProgram;
use correctbench_dataset::Problem;
use correctbench_harness::{
    cell_key, config_fingerprint, decode_cell, encode_cell, run_job, OutcomeStore, RunPlan,
};
use correctbench_llm::SimulatedClientFactory;
use correctbench_obs::ObsStack;
use correctbench_tbgen::{
    elaborate_pair, generate_driver, generate_scenarios, judge_records, limits_for, EvalContext,
    EvalSession, GoldenCache, ScenarioSet,
};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::{lint_files, parse, SimLimits, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const PROBLEMS: &[&str] = &["alu_8", "mux4_8", "counter_8", "shift18"];

/// Eval seed of the golden-artifact arms (any fixed value: the bundle's
/// cost, not its content, is what the arms measure).
const GOLDEN_SEED: u64 = 2025;

/// Seed of the per-sample arm-order shuffle.
const ARM_ORDER_SEED: u64 = 0x5eed_0a12;

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

/// The pair's captured record stream: elaborate it and simulate it.
fn simulate(case: &Case) -> Vec<correctbench_tbgen::Record> {
    let design = elaborate_pair(&case.dut, &case.driver).expect("elaborate");
    let out = Simulator::with_limits(design, case.limits)
        .run()
        .expect("simulation ok");
    correctbench_tbgen::parse_records(&out.lines)
}

/// One full uncached run: elaborate, simulate and judge the records.
fn run_fresh(case: &Case) {
    let records = simulate(case);
    let verdicts = judge_records(&records, &case.checker, &case.problem, case.scenarios.len())
        .expect("judge ok");
    std::hint::black_box(verdicts);
}

/// Median wall times of `samples` *interleaved* runs of each arm, in
/// nanoseconds. Interleaving matters on shared machines: measuring the
/// arms back-to-back lets a load spike land entirely on one arm and
/// skew the ratio; round-robin sampling spreads drift across all of
/// them. Each sample runs the arms in a fresh order, shuffled from a
/// fixed seed: in a fixed order every arm would always inherit the
/// cache and allocator state of the same predecessor, which biases the
/// ratio of two arms that differ only in their position.
fn medians_interleaved<const N: usize>(
    samples: usize,
    arms: &mut [&mut dyn FnMut(); N],
) -> [u64; N] {
    for arm in arms.iter_mut() {
        arm(); // warm up
    }
    let mut rng = StdRng::seed_from_u64(ARM_ORDER_SEED);
    let mut order: [usize; N] = std::array::from_fn(|i| i);
    let mut times = vec![Vec::with_capacity(samples); N];
    for _ in 0..samples {
        for i in (1..N).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &i in &order {
            let t0 = Instant::now();
            arms[i]();
            times[i].push(t0.elapsed().as_nanos() as u64);
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
    fresh_design_ns: u64,
    hot_path_obs_ns: u64,
    judge_interp_ns: u64,
    judge_session_ns: u64,
    golden_derive_ns: u64,
    golden_cached_ns: u64,
    lint_warn_ns: u64,
    store_cold_job_ns: u64,
    store_warm_hit_ns: u64,
}

impl Row {
    /// Compiled checker vs. interpreted judging of one record stream.
    fn speedup_judge(&self) -> f64 {
        self.judge_interp_ns as f64 / self.judge_session_ns.max(1) as f64
    }

    /// Cached golden-bundle fetch vs. deriving the bundle from scratch.
    fn speedup_golden(&self) -> f64 {
        self.golden_derive_ns as f64 / self.golden_cached_ns.max(1) as f64
    }

    /// Persistent-store cell replay vs. executing the job from scratch.
    fn speedup_store(&self) -> f64 {
        self.store_cold_job_ns as f64 / self.store_warm_hit_ns.max(1) as f64
    }

    /// Cost of a live observability collector on an uncached run, in
    /// percent over the unobserved run.
    fn obs_overhead_pct(&self) -> f64 {
        (self.hot_path_obs_ns as f64 / self.fresh_design_ns.max(1) as f64 - 1.0) * 100.0
    }
}

/// A per-problem ratio summarized over the problems: its median, with
/// the min and max beside it (a median of four values hides their
/// spread).
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(rows: &[Row], ratio: fn(&Row) -> f64) -> Spread {
        let mut xs: Vec<f64> = rows.iter().map(ratio).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Spread {
            median: xs[xs.len() / 2],
            min: xs[0],
            max: xs[xs.len() - 1],
        }
    }

    /// One `BENCH_sim.json` line: `median_NAME`, `min_NAME`, `max_NAME`.
    fn json_line(&self, name: &str) -> String {
        format!(
            "  \"median_{name}\": {:.2}, \"min_{name}\": {:.2}, \"max_{name}\": {:.2},",
            self.median, self.min, self.max
        )
    }
}

fn main() {
    let mut samples = 40usize;
    let mut out_path = "BENCH_sim.json".to_string();
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
        // One pre-captured record stream for the judge-only arms.
        let records = simulate(&case);
        let mut judge_session =
            EvalSession::new(&case.problem, &case.checker, &EvalContext::default())
                .expect("checker compiles");
        let golden_cache = GoldenCache::new();
        // Prime the golden shard so the cached arm measures steady-state
        // hits, not the first derivation.
        std::hint::black_box(golden_artifacts(&golden_cache, &case.problem, GOLDEN_SEED));
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
        let [fresh_design_ns, hot_path_obs_ns, judge_interp_ns, judge_session_ns, golden_derive_ns, golden_cached_ns, lint_warn_ns, store_cold_job_ns, store_warm_hit_ns] =
            medians_interleaved(
                samples,
                &mut [
                    &mut || run_fresh(&case),
                    &mut || {
                        // The identical run with a collector armed:
                        // every span and counter flush does real work.
                        let _obs = ObsStack::enabled().install();
                        run_fresh(&case);
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
                        // The per-cell golden cost AutoEval paid before
                        // the cache: full bundle derivation.
                        std::hint::black_box(derive_golden_artifacts(&case.problem, GOLDEN_SEED));
                    },
                    &mut || {
                        // Fetch the primed bundle from the golden cache
                        // (steady state: every cell after the first).
                        std::hint::black_box(golden_artifacts(
                            &golden_cache,
                            &case.problem,
                            GOLDEN_SEED,
                        ));
                    },
                    &mut || {
                        // Exactly what `--lint=warn` adds per job: parse
                        // the golden DUT and lint it with the driver's
                        // carried parse as one file.
                        let golden = parse(&case.problem.golden_rtl).expect("golden parses");
                        std::hint::black_box(lint_files(&[&golden, &case.driver]));
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
            fresh_design_ns,
            hot_path_obs_ns,
            judge_interp_ns,
            judge_session_ns,
            golden_derive_ns,
            golden_cached_ns,
            lint_warn_ns,
            store_cold_job_ns,
            store_warm_hit_ns,
        };
        eprintln!(
            "{:<12} fresh design {:>9} ns | judge {:.2}x | golden {:.2}x | lint warn {:>7} ns | store warm {:.0}x | obs {:+.2}%",
            row.name, row.fresh_design_ns,
            row.speedup_judge(), row.speedup_golden(),
            row.lint_warn_ns, row.speedup_store(), row.obs_overhead_pct(),
        );
        rows.push(row);
    }

    let judge = Spread::of(&rows, Row::speedup_judge);
    let golden = Spread::of(&rows, Row::speedup_golden);
    let store = Spread::of(&rows, Row::speedup_store);
    let obs = Spread::of(&rows, Row::obs_overhead_pct);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sim_exec\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(
        json,
        "{}",
        judge.json_line("speedup_judge_compiled_vs_interp")
    );
    let _ = writeln!(
        json,
        "{}",
        golden.json_line("speedup_golden_cached_vs_derived")
    );
    let _ = writeln!(json, "{}", store.json_line("speedup_store_warm_vs_cold"));
    if let Some(pct) = lint_warn_overhead {
        let _ = writeln!(json, "  \"lint_warn_overhead_pct\": {pct:.2},");
        let _ = writeln!(
            json,
            "  \"lint_warn_overhead_method\": \"lint-phase share of total phase-attributed time in metrics.json over a correctbench-run sweep (--problems 24 --reps 2 --lint warn), same machine and binary\","
        );
    }
    let _ = writeln!(json, "{}", obs.json_line("obs_overhead_pct"));
    let _ = writeln!(json, "  \"problems\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\":\"{}\",\"kind\":\"{}\",\"fresh_design_ns\":{},\"judge_interp_ns\":{},\"judge_session_ns\":{},\"speedup_judge_compiled_vs_interp\":{:.2},\"golden_derive_ns\":{},\"golden_cached_ns\":{},\"speedup_golden_cached\":{:.2},\"lint_warn_ns\":{},\"store_cold_job_ns\":{},\"store_warm_hit_ns\":{},\"speedup_store_warm_vs_cold\":{:.2},\"hot_path_obs_ns\":{},\"obs_overhead_pct\":{:.2}}}{comma}",
            r.name, r.kind, r.fresh_design_ns,
            r.judge_interp_ns, r.judge_session_ns, r.speedup_judge(),
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
    let lint_tail = match lint_warn_overhead {
        Some(pct) => format!(", lint warn overhead {pct:+.2}%"),
        None => String::new(),
    };
    eprintln!(
        "median speedups: compiled judge {:.2}x, cached golden {:.2}x, warm store {:.2}x, obs overhead {:+.2}%{lint_tail} -> {out_path}",
        judge.median, golden.median, store.median, obs.median
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: bench_sim [--quick] [--samples N] [--out FILE] [--lint-warn-overhead PCT]");
    std::process::exit(2)
}
