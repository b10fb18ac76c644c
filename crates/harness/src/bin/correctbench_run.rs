//! `correctbench-run`: execute a declarative evaluation plan in parallel.
//!
//! ```text
//! correctbench-run [--full] [--problems N] [--reps N] [--seed N]
//!                  [--threads N] [--methods cb,ab,base] [--model NAME]
//!                  [--out DIR] [--resume DIR] [--sim-budget N]
//!                  [--lint off|warn] [--store DIR] [--store-readonly]
//!                  [--faults SPEC]
//!                  [--mutate-golden NAME] [--no-cache] [--no-sim-cache]
//!                  [--no-golden-cache] [--no-obs] [--progress] [--quiet]
//! ```
//!
//! Expands (problems × methods × reps) into a job graph and runs it on a
//! worker pool with one shared `EvalContext` (simulation cache,
//! golden-artifact cache). Each layer has its own `--no-*-cache`
//! switch; `--no-cache` is the alias that disables both. The retired
//! layer switches `--no-elab-cache`, `--no-session-pool` and
//! `--no-lint-cache` are still accepted and do nothing: their layers
//! were deleted. Prints the aggregate summary,
//! and (with `--out`) writes `outcomes.jsonl` (deterministic,
//! thread-count and cache independent), `diagnostics.jsonl` (the
//! equally deterministic static-analysis findings), `timings.jsonl`
//! (measured: peak RSS and per-layer cache counters plus per-job phase
//! self-times and work counters), `metrics.json` (aggregated
//! phase/counter totals, peak RSS, per-rule lint counts and latency
//! percentiles) and `summary.txt`.
//! `--lint` selects the static-analysis mode: `warn` (default) records
//! `verilog::lint` findings for every job and never blocks one, `off`
//! skips the pass. `--no-obs` disarms the per-job
//! observability collectors; `--progress` draws a live
//! done/throughput/ETA line on stderr (only when stderr is a terminal).
//!
//! # Persistent store
//!
//! `--store DIR` attaches the on-disk content-addressed outcome store:
//! before scheduling, every job is probed by its `(job fingerprint,
//! config fingerprint)` cell key and content-identical cells replay
//! from disk instead of executing — across processes, run directories
//! and plan shapes. Replayed lines flow through the same journal, so a
//! warm run's `outcomes.jsonl` and `diagnostics.jsonl` are
//! byte-identical to a cold run's. Completed (never aborted) outcomes
//! the run executes are published back as they finish.
//! `--store-readonly` probes without publishing. `--resume` reattaches
//! the store its manifest recorded. The test-only
//! `--mutate-golden NAME` appends a comment to that problem's golden
//! RTL, moving exactly its cells' fingerprints — the selective
//! re-execution smoke.
//!
//! # Robustness
//!
//! Every job runs inside a fault barrier: a panic (or a structured
//! abort from an exhausted budget) becomes a `status: "aborted"`
//! outcome line with a stable `failure` taxonomy instead of killing the
//! run. `--sim-budget N` caps the instructions any one simulation
//! retires. Every bound is an instruction count, never wall time, so
//! no outcome depends on machine speed. With `--out` the outcome stream
//! is journaled — appended and flushed per line as jobs complete — and
//! a `plan.json` manifest is written up front, so a run killed at any
//! instant can be finished with `--resume DIR` (replays the journal,
//! skips completed jobs, appends the rest; the final file is
//! byte-identical to an uninterrupted run). The manifest records the
//! plan's config fingerprint; `--resume` recomputes it and refuses a
//! directory whose problems or configuration drifted since the
//! interrupted run. `--faults` injects test-only failures (`panic@`,
//! `slow@`, `exit@`; see the fault module docs for the grammar).
//!
//! Exit codes: 0 all jobs ok; 1 infrastructure/IO failure; 2 usage
//! error; 3 run completed but at least one job aborted. The artifacts
//! are written before the summary goes to stdout, and a closed stdout
//! changes no exit code.

use correctbench::Method;
use correctbench_harness::cli::{numeric_flag, usage, write_stdout, RunArgs};
use correctbench_harness::storebridge::{cell_key, config_fingerprint, decode_cell, encode_cell};
use correctbench_harness::{
    manifest_fingerprint, parse_plan_manifest, plan_fingerprint, plan_manifest_json,
    render_summary, replay_journal, write_atomic, write_sidecars, CellKey, Engine, FaultPlan,
    LintMode, OutcomeJournal, OutcomeStore, RunPlan, RunResult, StoreConfig, TaskOutcome,
};
use correctbench_llm::{ModelKind, SimulatedClientFactory};
use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const EXTRA_USAGE: &str =
    "[--out DIR] [--methods cb,ab,base] [--model gpt-4o|claude-3.5-sonnet|gpt-4o-mini] \
     [--resume DIR] [--sim-budget N] [--lint off|warn] \
     [--store DIR] [--store-readonly] [--faults SPEC] [--mutate-golden NAME] \
     [--no-cache] [--no-sim-cache] [--no-golden-cache] [--no-obs] [--progress] [--quiet]\n\
     retired no-ops (their layers were deleted): --no-elab-cache --no-session-pool --no-lint-cache";

fn parse_methods(spec: &str) -> Vec<Method> {
    let methods: Vec<Method> = spec
        .split(',')
        .map(|m| match m.trim() {
            "cb" | "correctbench" => Method::CorrectBench,
            "ab" | "autobench" => Method::AutoBench,
            "base" | "baseline" => Method::Baseline,
            other => usage(&format!("unknown method `{other}`"), EXTRA_USAGE),
        })
        .collect();
    if methods.is_empty() {
        usage("--methods needs at least one method", EXTRA_USAGE);
    }
    methods
}

fn parse_model(spec: &str) -> ModelKind {
    match spec {
        "gpt-4o" => ModelKind::Gpt4o,
        "claude-3.5-sonnet" | "claude" => ModelKind::Claude35Sonnet,
        "gpt-4o-mini" | "mini" => ModelKind::Gpt4oMini,
        other => usage(&format!("unknown model `{other}`"), EXTRA_USAGE),
    }
}

/// Aborts with exit code 1 — an infrastructure failure, as opposed to a
/// usage error (2) or aborted jobs (3).
fn infra(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn main() {
    let mut methods = Method::ALL.to_vec();
    let mut model = ModelKind::Gpt4o;
    let mut sim_cache = true;
    let mut golden_cache = true;
    let mut obs = true;
    let mut progress = false;
    let mut quiet = false;
    let mut sim_budget: Option<u64> = None;
    let mut lint = LintMode::default();
    let mut faults = FaultPlan::none();
    let mut resume: Option<PathBuf> = None;
    let mut store_dir: Option<String> = None;
    let mut store_readonly = false;
    let mut mutate_golden: Option<String> = None;
    let args = RunArgs::parse_with(Some(48), 2, EXTRA_USAGE, |flag, it| match flag {
        "--methods" => {
            methods = parse_methods(
                &it.next()
                    .unwrap_or_else(|| usage("--methods needs a list", EXTRA_USAGE)),
            );
            true
        }
        "--model" => {
            model = parse_model(
                &it.next()
                    .unwrap_or_else(|| usage("--model needs a name", EXTRA_USAGE)),
            );
            true
        }
        "--sim-budget" => {
            sim_budget = Some(numeric_flag("--sim-budget", it, EXTRA_USAGE));
            true
        }
        "--lint" => {
            let spec = it
                .next()
                .unwrap_or_else(|| usage("--lint needs a mode (off|warn)", EXTRA_USAGE));
            lint = LintMode::from_name(&spec)
                .unwrap_or_else(|| usage(&format!("unknown lint mode `{spec}`"), EXTRA_USAGE));
            true
        }
        "--faults" => {
            let spec = it
                .next()
                .unwrap_or_else(|| usage("--faults needs a spec", EXTRA_USAGE));
            faults = FaultPlan::parse(&spec).unwrap_or_else(|e| usage(&e, EXTRA_USAGE));
            true
        }
        "--resume" => {
            resume = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                usage("--resume needs a run directory", EXTRA_USAGE)
            })));
            true
        }
        "--store" => {
            store_dir = Some(
                it.next()
                    .unwrap_or_else(|| usage("--store needs a store directory", EXTRA_USAGE)),
            );
            true
        }
        "--store-readonly" => {
            store_readonly = true;
            true
        }
        // Test-only: appends a comment to one problem's golden RTL so
        // exactly that problem's cell fingerprints move (the selective
        // re-execution smoke). The comment never reaches simulation, so
        // artifacts stay byte-identical.
        "--mutate-golden" => {
            mutate_golden = Some(
                it.next()
                    .unwrap_or_else(|| usage("--mutate-golden needs a problem name", EXTRA_USAGE)),
            );
            true
        }
        // The alias: disable every cache layer at once.
        "--no-cache" => {
            sim_cache = false;
            golden_cache = false;
            true
        }
        "--no-sim-cache" => {
            sim_cache = false;
            true
        }
        "--no-golden-cache" => {
            golden_cache = false;
            true
        }
        // Retired: these layers were deleted. Still accepted so scripts
        // that pass them keep working; the run is the same without them.
        "--no-elab-cache" | "--no-session-pool" | "--no-lint-cache" => true,
        "--no-obs" => {
            obs = false;
            true
        }
        "--progress" => {
            progress = true;
            true
        }
        "--quiet" => {
            quiet = true;
            true
        }
        _ => false,
    });

    // `--resume DIR` rebuilds the plan from DIR's manifest (the sweep
    // flags of the original invocation win over any given now) and
    // replays the journal; a fresh run shapes the plan from the flags.
    let (mut plan, prior, recorded_fingerprint) = match &resume {
        Some(dir) => {
            let manifest_path = dir.join("plan.json");
            let manifest = std::fs::read_to_string(&manifest_path).unwrap_or_else(|e| {
                infra(&format!("cannot read {}: {e}", manifest_path.display()))
            });
            let plan = parse_plan_manifest(&manifest)
                .unwrap_or_else(|e| infra(&format!("{}: {e}", manifest_path.display())));
            let recorded = manifest_fingerprint(&manifest).unwrap_or_else(|| {
                infra(&format!(
                    "{}: manifest records no config fingerprint, so the dataset and \
                     configuration it ran under cannot be checked; refusing to mix outcomes",
                    manifest_path.display()
                ))
            });
            let prior = replay_journal(&dir.join("outcomes.jsonl"))
                .unwrap_or_else(|e| infra(&format!("cannot replay journal: {e}")));
            if prior.len() > plan.num_jobs() {
                infra(&format!(
                    "journal has {} outcomes but the plan only has {} jobs",
                    prior.len(),
                    plan.num_jobs()
                ));
            }
            (plan, prior, Some(recorded))
        }
        None => {
            let mut plan = RunPlan::new("correctbench-run", args.problem_set());
            plan.methods = methods;
            plan.model = model;
            plan.reps = args.reps;
            plan.base_seed = args.seed;
            plan.sim_budget = sim_budget;
            plan.lint = lint;
            (plan, Vec::new(), None)
        }
    };

    // Store attachment: explicit flags win; a resumed manifest's
    // attachment is honored otherwise.
    if let Some(dir) = store_dir {
        plan.store = Some(StoreConfig {
            dir,
            readonly: store_readonly,
        });
    } else if store_readonly {
        match &mut plan.store {
            Some(cfg) => cfg.readonly = true,
            None => usage("--store-readonly needs --store DIR", EXTRA_USAGE),
        }
    }

    if let Some(name) = &mutate_golden {
        let p = plan
            .problems
            .iter_mut()
            .find(|p| &p.name == name)
            .unwrap_or_else(|| {
                usage(
                    &format!("--mutate-golden: unknown problem `{name}`"),
                    EXTRA_USAGE,
                )
            });
        p.golden_rtl.push_str("\n// mutation probe\n");
    }

    // The fingerprint check runs after any mutation, so resuming a
    // mutated run with the same --mutate-golden flag still matches —
    // and resuming it *without* the flag is correctly refused.
    if let (Some(dir), Some(recorded)) = (&resume, &recorded_fingerprint) {
        let current = plan_fingerprint(&plan).to_string();
        if *recorded != current {
            infra(&format!(
                "{}: config fingerprint mismatch (manifest {recorded}, current {current}): \
                 the dataset or configuration changed since this run was interrupted; \
                 refusing to mix outcomes",
                dir.join("plan.json").display()
            ));
        }
    }

    let out = resume.clone().or_else(|| args.out.clone());

    // The run's wall clock starts here: a warm run's work is opening the
    // store and probing and decoding its cells, all outside the engine.
    let started = Instant::now();

    // Open the store (if any) and probe every scheduled job's cell key
    // before the engine sees the plan.
    let store: Option<Arc<OutcomeStore>> = plan.store.as_ref().map(|cfg| {
        let dir = Path::new(&cfg.dir);
        let handle = if cfg.readonly {
            OutcomeStore::open_readonly(dir)
        } else {
            OutcomeStore::open(dir)
        }
        .unwrap_or_else(|e| infra(&format!("cannot open store {}: {e}", dir.display())));
        for w in handle.warnings() {
            eprintln!("warning: store: {w}");
        }
        Arc::new(handle)
    });
    // Each job's cell key is computed once: the probe below reads it,
    // and the publish hook indexes it by job id.
    let mut keys: Vec<CellKey> = Vec::new();
    let mut replayed: Vec<TaskOutcome> = Vec::new();
    if let Some(store) = &store {
        let config_fp = config_fingerprint(&plan);
        let jobs = plan.jobs();
        keys = jobs.iter().map(|j| cell_key(j, config_fp)).collect();
        for (job, key) in jobs.iter().zip(&keys).skip(prior.len()) {
            let Some(payload) = store.get(key) else {
                continue;
            };
            match decode_cell(&payload, job, obs) {
                Ok(outcome) => replayed.push(outcome),
                Err(e) => {
                    // A cell that cannot replay reads as a miss and the
                    // job executes (then republishes over the bad cell).
                    eprintln!("warning: store: cell {key} unusable ({e}); re-executing");
                    store.discount_hit(key);
                }
            }
        }
    }

    if !quiet {
        eprintln!(
            "correctbench-run: {} problems x {} methods x {} reps = {} jobs on {} threads ({}, lint {}, caches {}, store {}){}{}",
            plan.problems.len(),
            plan.methods.len(),
            plan.reps,
            plan.num_jobs(),
            args.threads,
            plan.model,
            plan.lint,
            if sim_cache || golden_cache {
                format!(
                    "sim:{} golden:{}",
                    if sim_cache { "on" } else { "off" },
                    if golden_cache { "on" } else { "off" },
                )
            } else {
                "off".to_string()
            },
            match &plan.store {
                Some(cfg) if cfg.readonly => format!("{} (readonly)", cfg.dir),
                Some(cfg) => cfg.dir.clone(),
                None => "off".to_string(),
            },
            if prior.is_empty() {
                String::new()
            } else {
                format!(", resuming after {} journaled jobs", prior.len())
            },
            if replayed.is_empty() {
                String::new()
            } else {
                format!(", {} cells replayed from the store", replayed.len())
            },
        );
    }

    // The progress line is interactive chrome: draw it only when asked
    // for and stderr is actually a terminal, so piped/CI runs stay clean.
    let live = progress && std::io::stderr().is_terminal();
    let mut engine = Engine::new(args.threads)
        .with_progress(live && !quiet)
        .with_faults(faults)
        .with_store_active(store.is_some());
    if !obs {
        engine = engine.without_obs();
    }
    if !sim_cache {
        engine = engine.without_sim_cache();
    }
    if !golden_cache {
        engine = engine.without_golden_cache();
    }
    // The publish path: as each executed job completes, its cell is
    // appended to the store — crash-safe incremental warming. Aborted
    // outcomes are never published (the never-poison rule on disk).
    if let Some(store) = &store {
        if !store.readonly() {
            let store = Arc::clone(store);
            engine = engine.with_outcome_hook(Box::new(move |o: &TaskOutcome| {
                if o.failure.is_none() {
                    if let Err(e) = store.put(&keys[o.job_id], &encode_cell(o)) {
                        eprintln!("warning: store publish failed: {e}");
                    }
                }
            }));
        }
    }
    let factory = SimulatedClientFactory::for_model(plan.model);

    // With an output directory the outcome stream goes through the
    // crash-safe journal: manifest first (atomically), then one flushed
    // line per completed job. Without one, everything stays in memory.
    let journal = out.as_ref().map(|dir| {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| infra(&format!("cannot create {}: {e}", dir.display())));
        let outcomes_path = dir.join("outcomes.jsonl");
        if resume.is_some() {
            OutcomeJournal::resume(&outcomes_path, prior.len())
                .unwrap_or_else(|e| infra(&format!("cannot reopen journal: {e}")))
        } else {
            write_atomic(&dir.join("plan.json"), &plan_manifest_json(&plan))
                .unwrap_or_else(|e| infra(&format!("cannot write plan manifest: {e}")));
            OutcomeJournal::create(&outcomes_path)
                .unwrap_or_else(|e| infra(&format!("cannot create journal: {e}")))
        }
    });

    let result = engine.execute_replayed(&plan, &factory, journal.as_ref(), prior.len(), replayed);
    if let Some(e) = journal.as_ref().and_then(|j| j.take_error()) {
        infra(&format!("journal write failed: {e}"));
    }
    // Make the cells this run published durable and pick up the
    // store's final counters for the summary and metrics.
    let store_stats = store.as_ref().map(|s| {
        if let Err(e) = s.flush() {
            eprintln!("warning: store flush failed: {e}");
        }
        s.stats()
    });

    // Replayed outcomes rejoin the fresh ones so the summary and the
    // sidecars describe the whole run (their wall times are unknown —
    // measured data from a previous process — and read as zero). The
    // run's wall covers the store work around the engine too.
    let result = RunResult {
        outcomes: prior.into_iter().chain(result.outcomes).collect(),
        store: store_stats,
        wall: started.elapsed(),
        ..result
    };
    let summary = render_summary(&plan, &result);
    if live && !quiet {
        eprintln!();
    }

    // The artifacts are written before the summary is printed, so a
    // closed or failing stdout (`| head -3`) loses only the printed copy:
    // its error is ignored.
    if let Some(dir) = &out {
        let paths = write_sidecars(dir, &result, &summary).unwrap_or_else(|e| {
            infra(&format!(
                "failed to write artifacts to {}: {e}",
                dir.display()
            ))
        });
        if !quiet {
            eprintln!(
                "artifacts: {} | {} | {} | {}",
                paths.outcomes.display(),
                paths.diagnostics.display(),
                paths.timings.display(),
                paths.summary.display()
            );
        }
    }
    let _ = write_stdout(&summary);

    let aborted = result
        .outcomes
        .iter()
        .filter(|o| o.failure.is_some())
        .count();
    if aborted > 0 {
        eprintln!("{aborted} job(s) aborted (see the `failure` field in outcomes)");
        std::process::exit(3);
    }
}
