//! The parallel evaluation engine.
//!
//! Every experiment in the paper is a sweep of *problems × methods ×
//! seeds*; this crate is the layer that runs such sweeps fast and
//! reproducibly for every experiment binary at once:
//!
//! * [`plan`] — declarative [`RunPlan`]s and their expansion into a
//!   canonical job list;
//! * [`scheduler`] — the work-stealing worker pool ([`Engine`]); outcome
//!   order is restored by job id, so results are byte-identical
//!   regardless of thread count;
//! * [`worker`] — single-job execution with per-job clients and RNGs;
//! * [`cache`] — re-exports of the [`CacheStack`] reuse layers the
//!   engine installs on every worker (simulation cache, golden-artifact
//!   cache);
//! * [`artifact`] — deterministic `outcomes.jsonl` and
//!   `diagnostics.jsonl` plus the measured `timings.jsonl` sidecar and
//!   the aggregated `metrics.json`;
//! * [`report`] — aggregate summaries and latency percentile tables;
//! * [`storebridge`] — content fingerprints and the cell payload codec
//!   connecting runs to the persistent on-disk outcome store
//!   (`correctbench_store`), which replays content-identical cells
//!   across processes and run directories;
//! * [`json`] — the minimal JSON reader matching the artifact encoder.
//!
//! Observability (`correctbench_obs`) is threaded through the whole
//! stack: the engine arms one collector per job, `TaskOutcome::obs`
//! carries the drained per-phase self-times and counters, and the
//! artifacts above join them to the measured wall times. `--no-obs`
//! (or [`Engine::without_obs`]) turns all of it off; `outcomes.jsonl`
//! is byte-identical either way.
//!
//! The `correctbench-run` binary drives all of it from the command
//! line; `correctbench-report` re-aggregates any `timings.jsonl` into
//! percentile tables offline.
//!
//! # Examples
//!
//! ```
//! use correctbench_harness::{Engine, RunPlan};
//! use correctbench_llm::{ModelKind, SimulatedClientFactory};
//!
//! let problems = vec![correctbench_dataset::problem("and_8").expect("known problem")];
//! let plan = RunPlan::new("doc", problems);
//! let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
//! let result = Engine::new(2).execute(&plan, &factory);
//! assert_eq!(result.outcomes.len(), plan.num_jobs());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod cli;
pub mod fault;
pub mod json;
pub mod plan;
pub mod report;
pub mod scheduler;
pub mod storebridge;
pub mod worker;

/// The cache-stack layers shared by worker threads.
///
/// The layers live in `correctbench_tbgen` — the crate that owns the
/// testbench runner they hook — and are re-exported here because the
/// harness is what installs, shares and reports them (as one
/// [`CacheStack`]).
pub mod cache {
    pub use correctbench_tbgen::cache::{with_active, CacheKey, CacheStats, SimCache};
    pub use correctbench_tbgen::golden::{
        with_active as with_active_golden, GoldenArtifacts, GoldenCache, GoldenKey,
    };
    pub use correctbench_tbgen::{CacheStack, StackGuard, StackStats};
}

pub use artifact::{
    diagnostic_json, diagnostics_jsonl, manifest_fingerprint, metrics_json, outcome_json,
    outcomes_jsonl, parse_diagnostic_line, parse_outcome_line, parse_plan_manifest,
    plan_manifest_json, replay_journal, timings_jsonl, write_artifacts, write_atomic,
    write_sidecars, ArtifactPaths, OutcomeJournal,
};
pub use cache::{CacheStack, CacheStats, GoldenCache, SimCache, StackStats};
pub use cli::RunArgs;
pub use correctbench_obs::{Histogram, JobObs, ObsStack};
pub use correctbench_store::{CellKey, OutcomeStore, StoreStats};
pub use correctbench_tbgen::AbortKind;
pub use fault::{FaultKind, FaultPlan, FAULT_EXIT_CODE};
pub use plan::{mix_seed, problem_subset, Job, LintMode, RunPlan, StoreConfig};
pub use report::{latency_groups, render_latency_table, render_summary, summarize, MethodSummary};
pub use scheduler::{parallel_map, Engine, OutcomeHook, RunResult};
pub use storebridge::{cell_key, config_fingerprint, decode_cell, encode_cell, plan_fingerprint};
pub use worker::{run_job, run_job_guarded, TaskOutcome};
