//! End-to-end observability: a real sweep under the engine must leave
//! every job with a drained collector whose phase self-times add up to
//! a meaningful share of the job's measured wall time (exclusive
//! attribution can never exceed it) and whose work counters reflect the
//! simulation the job actually ran.

use correctbench_harness::{Engine, RunPlan};
use correctbench_llm::{ModelKind, SimulatedClientFactory};
use correctbench_obs::{Counter, Phase};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Held by every test that runs an engine. Side by side, their six
/// workers would share the machine's cores, and a worker preempted
/// outside every span stretches its job's wall past what the spans
/// cover; one engine at a time keeps the wall-clock bounds meaningful.
static ENGINE: Mutex<()> = Mutex::new(());

/// A test that fails while holding the lock poisons it; it guards no
/// data, so the next test takes it all the same.
fn engine_lock() -> MutexGuard<'static, ()> {
    ENGINE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn plan() -> RunPlan {
    let problems = ["and_8", "mux4_8", "counter_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    let mut plan = RunPlan::new("obs", problems);
    plan.reps = 2;
    plan
}

#[test]
fn every_job_carries_phase_times_that_sum_close_to_wall() {
    let _engine = engine_lock();
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let result = Engine::new(4).execute(&plan(), &factory);
    for o in &result.outcomes {
        let obs = o.obs.as_ref().expect("engine arms obs by default");
        let wall_ns = o.wall.as_nanos() as u64;
        let covered = obs.total_phase_ns();
        // Exclusive attribution: no double counting, so coverage can
        // only exceed wall by clock-read jitter. The lower bound is
        // deliberately loose for CI noise on very fast jobs; the
        // acceptance smoke run checks the tight 10% criterion.
        assert!(
            covered <= wall_ns + wall_ns / 10,
            "job {}: phases sum past wall: {covered} > {wall_ns}",
            o.job_id
        );
        assert!(
            covered * 2 >= wall_ns,
            "job {}: spans cover under half the wall: {covered} of {wall_ns}",
            o.job_id
        );
    }
}

#[test]
fn work_counters_track_the_simulation() {
    let _engine = engine_lock();
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let result = Engine::new(2).execute(&plan(), &factory);
    let mut totals = correctbench_obs::JobObs::default();
    for o in &result.outcomes {
        totals.merge(o.obs.as_ref().expect("obs on"));
    }
    for c in [
        Counter::SimEvents,
        Counter::SimInstrs,
        Counter::JudgeCommits,
    ] {
        assert!(totals.counter(c) > 0, "{c:?} never counted: {totals:?}");
    }
    // Per-job cache attribution must agree with the run-level stack
    // totals: every hit/miss the layers counted happened under exactly
    // one job's collector.
    let sim = result.caches.sim.expect("sim layer on");
    assert_eq!(
        (
            totals.counter(Counter::SimCacheHits),
            totals.counter(Counter::SimCacheMisses)
        ),
        (sim.hits, sim.misses),
        "per-job sim-cache attribution drifted from the layer's own counters"
    );
    let golden = result.caches.golden.expect("golden layer on");
    assert_eq!(
        (
            totals.counter(Counter::GoldenHits),
            totals.counter(Counter::GoldenMisses)
        ),
        (golden.hits, golden.misses),
        "per-job golden-cache attribution drifted from the layer's own counters"
    );
    // Every phase of the taxonomy sees real time somewhere in a full
    // sweep (validators, LLM rounds, the Eval ladder, the simulator) —
    // except `compile`, which keeps its place in the taxonomy but reads 0
    // now that the simulator walks the elaborated design directly.
    for p in Phase::ALL {
        if p == Phase::Compile {
            assert_eq!(totals.phase(p), 0, "nothing compiles a design: {totals:?}");
        } else {
            assert!(
                totals.phase(p) > 0,
                "phase {p:?} never saw time across the sweep: {totals:?}"
            );
        }
    }
}

#[test]
fn disabled_obs_leaves_outcomes_unobserved() {
    let _engine = engine_lock();
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    let result = Engine::new(2).without_obs().execute(&plan(), &factory);
    assert!(
        result.outcomes.iter().all(|o| o.obs.is_none()),
        "--no-obs must not arm any collector"
    );
}
