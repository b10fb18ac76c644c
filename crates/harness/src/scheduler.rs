//! The worker pool: executes a plan's job graph in parallel.
//!
//! Scheduling is a lock-free ticket counter over the canonical job list —
//! fine-grained (one ticket per job, not per problem) so a straggler
//! problem cannot idle the pool. Results land in a per-slot table indexed
//! by job id, which restores canonical order no matter which worker
//! finished what when: the outcome vector is byte-for-byte independent of
//! the thread count.

use crate::artifact::{outcome_json, OutcomeJournal};
use crate::fault::FaultPlan;
use crate::plan::RunPlan;
use crate::worker::{run_job_guarded, TaskOutcome};
use correctbench_llm::ClientFactory;
use correctbench_obs::{Counter, ObsStack};
use correctbench_tbgen::{EvalContext, GoldenCache, SimCache, StackStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A per-outcome callback installed with [`Engine::with_outcome_hook`]:
/// runs on the worker thread that executed the job.
pub type OutcomeHook = Box<dyn Fn(&TaskOutcome) + Send + Sync>;

/// Executes [`RunPlan`]s over a worker pool with one shared
/// [`EvalContext`]: the simulation cache (per-scenario verdicts of whole
/// testbench runs) and the golden-artifact cache (per-problem
/// evaluation fixtures, derived once per eval seed). Every job runs on
/// a clone that shares both layers and carries the job's own budget;
/// layers can be disabled individually.
pub struct Engine {
    threads: usize,
    ctx: EvalContext,
    obs: ObsStack,
    progress: bool,
    faults: FaultPlan,
    /// Called once per *executed* (never replayed) outcome, from the
    /// worker that produced it — the persistent store's publish path.
    outcome_hook: Option<OutcomeHook>,
    /// Whether a persistent store is consulted for this run: executed
    /// jobs then count one `store_misses` each (a replayed job's
    /// fragment, from [`crate::storebridge::decode_cell`], holds only
    /// its one `store_hits`).
    store_active: bool,
}

impl Engine {
    /// An engine with `threads` workers and a fresh, fully-enabled
    /// shared [`EvalContext`].
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
            ctx: EvalContext::cached(),
            obs: ObsStack::enabled(),
            progress: false,
            faults: FaultPlan::none(),
            outcome_hook: None,
            store_active: false,
        }
    }

    /// Installs a per-outcome hook, called from the worker thread for
    /// every outcome this engine *executes* (replayed outcomes never
    /// reach it). The run binary publishes completed cells to the
    /// persistent store through this — as each job finishes, not at run
    /// end, so a killed warm run has already banked everything it
    /// executed.
    pub fn with_outcome_hook(mut self, hook: OutcomeHook) -> Self {
        self.outcome_hook = Some(hook);
        self
    }

    /// Marks a persistent outcome store as attached to this run, so
    /// executed jobs each count one `store_misses` in their
    /// observability fragment.
    pub fn with_store_active(mut self, active: bool) -> Self {
        self.store_active = active;
        self
    }

    /// Injects a test-only [`FaultPlan`]: the listed jobs are broken on
    /// purpose at job start (or through their LLM transport) so the
    /// fault-isolation and crash-recovery suites have something to
    /// survive. Production runs keep the default empty plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the shared context (give several engines clones of one
    /// context to memoize across their plans). Its budget is ignored:
    /// each job's budget comes from the plan.
    pub fn with_context(mut self, ctx: EvalContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// Disables every reuse layer (simulation cache, golden cache) — the
    /// harness `--no-cache` behavior.
    pub fn without_cache(self) -> Self {
        self.without_sim_cache().without_golden_cache()
    }

    /// Disables only the simulation cache.
    pub fn without_sim_cache(mut self) -> Self {
        self.ctx.sim = None;
        self
    }

    /// Disables only the golden-artifact cache.
    pub fn without_golden_cache(mut self) -> Self {
        self.ctx.golden = None;
        self
    }

    /// Enables per-job progress output on stderr.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Disables observability — the `--no-obs` behavior: no collector
    /// is armed, every span and counter probe short-circuits, and
    /// [`TaskOutcome::obs`] is `None`.
    pub fn without_obs(mut self) -> Self {
        self.obs = ObsStack::disabled();
        self
    }

    /// Runs every job of `plan`, returning outcomes in canonical job
    /// order plus run-level measurements.
    pub fn execute(&self, plan: &RunPlan, factory: &dyn ClientFactory) -> RunResult {
        self.execute_replayed(plan, factory, None, 0, Vec::new())
    }

    /// Like [`Engine::execute`], but skips the first `skip` jobs of the
    /// canonical list (they are already in the journal a `--resume`
    /// replayed) and, when `journal` is given, streams every completed
    /// outcome line into it the moment its canonical predecessors are
    /// done — so an interrupted run leaves a usable prefix on disk
    /// instead of nothing. Outcomes `replayed` from the persistent store
    /// (job ids within the scheduled tail) go straight to the journal —
    /// the reorder buffer interleaves them with executed lines in
    /// canonical order — and only the remaining jobs are scheduled. The
    /// returned outcome vector is the canonical merge of both, so every
    /// artifact downstream is byte-identical to a run that executed
    /// everything.
    pub fn execute_replayed(
        &self,
        plan: &RunPlan,
        factory: &dyn ClientFactory,
        journal: Option<&OutcomeJournal>,
        skip: usize,
        replayed: Vec<TaskOutcome>,
    ) -> RunResult {
        let t0 = Instant::now();
        let jobs = plan.jobs();
        let tail = &jobs[skip.min(jobs.len())..];
        let mut replayed_by_id: std::collections::HashMap<usize, TaskOutcome> =
            replayed.into_iter().map(|o| (o.job_id, o)).collect();
        if let Some(journal) = journal {
            for (id, o) in &replayed_by_id {
                journal.push(*id, outcome_json(o));
            }
        }
        let to_run: Vec<&crate::plan::Job> = tail
            .iter()
            .filter(|j| !replayed_by_id.contains_key(&j.id))
            .collect();
        let total = to_run.len();
        let done = AtomicUsize::new(0);
        let executed = parallel_map(self.threads, &to_run, |_, job| {
            let job: &crate::plan::Job = job;
            // One collector per job (not per worker): the worker drains
            // it at job end, so measurements are attributed to the job
            // that incurred them no matter which worker ran it.
            let _obs_guard = self.obs.install();
            if self.store_active {
                // Reaching a worker means the store probe missed; the
                // count lands in this job's own collector.
                correctbench_obs::add(Counter::StoreMisses, 1);
            }
            let outcome = run_job_guarded(job, plan, factory, &self.ctx, self.faults.get(job.id));
            if let Some(hook) = &self.outcome_hook {
                hook(&outcome);
            }
            if let Some(journal) = journal {
                journal.push(outcome.job_id, outcome_json(&outcome));
            }
            if self.progress {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                let rate = n as f64 / secs;
                let eta = (total - n) as f64 / rate.max(1e-9);
                eprint!(
                    "\r[{n}/{total}] {:>6.1} jobs/s  eta {:>4.0}s  {:<24}",
                    rate, eta, job.problem.name
                );
                if n == total {
                    eprintln!();
                }
            }
            outcome
        });
        // Merge executed and replayed outcomes back into canonical job
        // order (both sides are already internally ordered).
        let mut executed = executed.into_iter();
        let outcomes: Vec<TaskOutcome> = tail
            .iter()
            .map(|job| match replayed_by_id.remove(&job.id) {
                Some(o) => o,
                None => executed.next().expect("one executed outcome per job"),
            })
            .collect();
        RunResult {
            outcomes,
            threads: self.threads,
            caches: self.ctx.stats(),
            store: None,
            wall: t0.elapsed(),
            peak_rss_bytes: peak_rss_bytes(),
        }
    }

    /// The engine's shared simulation cache, if enabled.
    pub fn cache(&self) -> Option<&Arc<SimCache>> {
        self.ctx.sim.as_ref()
    }

    /// The engine's shared golden-artifact cache, if enabled.
    pub fn golden_cache(&self) -> Option<&Arc<GoldenCache>> {
        self.ctx.golden.as_ref()
    }
}

/// Everything one engine run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-job outcomes in canonical job order (thread-count
    /// independent).
    pub outcomes: Vec<TaskOutcome>,
    /// Worker count the run used (timing sidecar metadata).
    pub threads: usize,
    /// Per-layer counters of the engine's [`EvalContext`] at the end of
    /// the run (`None` per layer that was disabled).
    pub caches: StackStats,
    /// Persistent outcome-store counters (`None` when no store was
    /// attached). The engine itself never touches the store — the run
    /// binary owns the handle and fills this in after flushing it.
    pub store: Option<correctbench_store::StoreStats>,
    /// Total wall time of the run.
    pub wall: Duration,
    /// The process's peak resident set size in bytes when the run
    /// ended (`VmHWM` from `/proc/self/status`; `None` where that file
    /// does not exist). A high-water mark: it covers everything the
    /// process did before the run too.
    pub peak_rss_bytes: Option<u64>,
}

/// The process's peak resident set size (`VmHWM`) in bytes, read from
/// `/proc/self/status`; `None` where the file or the field is absent.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    // The line reads `VmHWM:    12345 kB`.
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Order-preserving parallel map over `items` with work-stealing
/// scheduling: applies `f(index, item)` on a pool of `threads` workers
/// and returns results in item order regardless of completion order.
pub fn parallel_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every ticket was claimed and completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 3, 8] {
            let out = parallel_map(threads, &items, |i, x| {
                assert_eq!(i, *x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_share_the_stack() {
        use correctbench_tbgen::cache::CacheKey;
        use correctbench_verilog::Fingerprint;
        let ctx = EvalContext::cached();
        let key = CacheKey {
            dut: Fingerprint(1),
            driver: Fingerprint(2),
            checker: Fingerprint(3),
            scenarios: Fingerprint(4),
            problem: Fingerprint(5),
        };
        // Prime the table once, then have every worker probe the same
        // key through its own clone of the context: all 64 lookups must
        // hit, which only holds when clones share one table.
        ctx.sim.as_ref().expect("sim layer").put(
            key,
            Ok(correctbench_tbgen::TbRun {
                results: Vec::new(),
            }),
        );
        let items: Vec<u64> = (0..64).collect();
        let found = parallel_map(4, &items, |_, _| {
            let clone = ctx.clone();
            clone.sim.expect("sim layer").get(&key).is_some()
        });
        assert!(found.iter().all(|f| *f), "every worker sees the entry");
        let stats = ctx.stats().sim.expect("sim layer");
        assert_eq!((stats.hits, stats.misses, stats.entries), (64, 0, 1));
    }

    #[test]
    fn engine_layer_toggles_mask_the_stack() {
        let e = Engine::new(2).without_sim_cache();
        assert!(e.cache().is_none());
        assert!(e.golden_cache().is_some());
        let e = Engine::new(2).without_golden_cache();
        assert!(e.cache().is_some());
        assert!(e.golden_cache().is_none());
        let all_off = Engine::new(2).without_cache();
        assert!(all_off.cache().is_none() && all_off.golden_cache().is_none());
    }
}
