//! Regenerates **Table I** (main results): Eval0/1/2 pass ratios and
//! average passed-task counts for CorrectBench vs AutoBench vs the
//! direct baseline, over Total / CMB / SEQ groups.
//!
//! Runs on the parallel harness: the sweep is submitted as a declarative
//! `RunPlan`, executed on a worker pool with a shared content-addressed
//! simulation cache, and `--out DIR` additionally writes the harness's
//! deterministic `outcomes.jsonl` / measured `timings.jsonl` artifacts.
//!
//! ```text
//! cargo run --release -p correctbench-bench --bin table1 -- --full
//! ```

use correctbench::{Config, Method};
use correctbench_bench::experiment::{render_table1, run_plan, sweep_plan};
use correctbench_bench::RunArgs;
use correctbench_harness::cli::{print_or_exit, write_artifacts_or_exit};
use correctbench_harness::render_summary;
use correctbench_llm::ModelKind;

fn main() {
    // The one paper binary that writes artifacts, so the one that takes
    // `--out`.
    let args = RunArgs::parse_with(Some(48), 2, "[--out DIR]", |_, _| false);
    let problems = args.problem_set();
    eprintln!(
        "table1: {} problems x {} reps x 3 methods on {} threads (gpt-4o profile)",
        problems.len(),
        args.reps,
        args.threads
    );
    let plan = sweep_plan(
        "table1",
        &problems,
        &Method::ALL,
        ModelKind::Gpt4o,
        args.reps,
        &Config::default(),
        args.seed,
    );
    let result = run_plan(&plan, args.threads);
    // Artifacts first: a closed stdout must not lose them.
    if let Some(dir) = &args.out {
        let summary = render_summary(&plan, &result);
        let paths = write_artifacts_or_exit(dir, &result, &summary);
        eprintln!("artifacts: {}", paths.outcomes.display());
    }
    print_or_exit(&format!("{}\n", render_table1(&result.outcomes)));
    eprintln!("elapsed: {:?}", result.wall);
    for (label, stats) in result.caches.layers() {
        if let Some(stats) = stats {
            eprintln!("{label}: {stats}");
        }
    }
}
