//! Thread-local installation and the unified [`CacheStack`] handle.
//!
//! The per-worker reuse layers — the simulation cache and the
//! golden-artifact cache — follow one pattern: a shared `Arc` is
//! *installed* on the current thread so the layers between the harness
//! and the runner stay oblivious, lookups consult the active instance
//! transparently, and a guard restores the previous instance (usually
//! none) on drop — so installs nest. This module owns **every**
//! thread-local slot (the source-scan test `tests/key_path_scan.rs`
//! forbids cache slots anywhere else) and the [`CacheStack`]: the
//! explicit, shareable bundle of both layers that a harness installs
//! once per worker with a single guard.

use crate::cache::{CacheStats, SimCache};
use crate::golden::GoldenCache;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::thread::LocalKey;

/// One layer's thread-local slot: the active shared instance, if any.
pub(crate) type Slot<T> = LocalKey<RefCell<Option<Arc<T>>>>;

thread_local! {
    /// The active simulation cache (consulted by the runner and
    /// [`crate::EvalSession::run`]).
    pub(crate) static SIM: RefCell<Option<Arc<SimCache>>> = const { RefCell::new(None) };
    /// The active golden-artifact cache (consulted by
    /// `correctbench_autoeval::golden_artifacts`).
    pub(crate) static GOLDEN: RefCell<Option<Arc<GoldenCache>>> = const { RefCell::new(None) };
    /// The one-shot escape hatch (see [`crate::force_one_shot`]) — not a
    /// cache slot, but thread-local session state lives here with the
    /// rest of the install machinery.
    pub(crate) static ONE_SHOT: Cell<bool> = const { Cell::new(false) };
    /// The active per-job execution budget (see [`JobBudget`]) —
    /// consulted by every simulation entry point to clamp
    /// [`correctbench_verilog::sim::SimLimits`].
    pub(crate) static BUDGET: Cell<JobBudget> = const { Cell::new(JobBudget::none()) };
}

/// Per-job execution budgets a harness installs around one job. Both
/// knobs are enforced at the simulation entry points
/// ([`crate::simulate_records_limited`] and the session runner), which
/// clamp every run's [`SimLimits`](correctbench_verilog::sim::SimLimits)
/// against them:
///
/// * `max_sim_steps` — a **per-simulation-run** instruction budget.
///   When it undercuts a run's natural step limit ("binding") and the
///   run exhausts it, the job aborts with
///   [`AbortKind::SimBudgetExhausted`](crate::abort::AbortKind). The
///   budget is process-global and sims are deterministic, so whether a
///   given (design, testbench, scenarios) key completes or aborts under
///   a fixed budget never depends on thread count or cache warmth —
///   aborted runs are never cached, completed runs replay identically.
/// * `deadline` — a wall-clock cutoff for the whole job; exceeding it
///   aborts with [`AbortKind::DeadlineExceeded`](crate::abort::AbortKind).
///   Inherently non-deterministic; meant as a last-resort guard, not a
///   reproducible outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobBudget {
    /// Per-simulation-run step ceiling, if any.
    pub max_sim_steps: Option<u64>,
    /// Wall-clock deadline for the job, if any.
    pub deadline: Option<std::time::Instant>,
}

impl JobBudget {
    /// No budget: natural limits apply unchanged.
    pub const fn none() -> JobBudget {
        JobBudget {
            max_sim_steps: None,
            deadline: None,
        }
    }

    /// Whether any knob is set.
    pub fn is_some(&self) -> bool {
        self.max_sim_steps.is_some() || self.deadline.is_some()
    }
}

/// Makes `budget` the active job budget on the current thread until the
/// returned guard drops (restoring the previous budget, usually none).
pub fn install_budget(budget: JobBudget) -> BudgetGuard {
    let prev = BUDGET.with(|b| b.replace(budget));
    BudgetGuard { prev }
}

/// The budget active on the current thread.
pub fn active_budget() -> JobBudget {
    BUDGET.with(Cell::get)
}

/// Restores the previously active [`JobBudget`] when dropped.
pub struct BudgetGuard {
    prev: JobBudget,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        BUDGET.with(|b| b.set(self.prev));
    }
}

/// Makes `value` the active instance of `slot` on the current thread
/// until the returned guard drops.
pub(crate) fn install<T>(slot: &'static Slot<T>, value: &Arc<T>) -> InstallGuard<T> {
    let prev = slot.with(|a| a.borrow_mut().replace(Arc::clone(value)));
    InstallGuard { slot, prev }
}

/// Runs `f` with the slot's active instance, if one is installed.
pub(crate) fn with_active<T, R>(slot: &'static Slot<T>, f: impl FnOnce(&T) -> R) -> Option<R> {
    slot.with(|a| a.borrow().as_ref().map(|c| f(c)))
}

/// The slot's active instance itself, if one is installed.
pub(crate) fn active<T>(slot: &'static Slot<T>) -> Option<Arc<T>> {
    slot.with(|a| a.borrow().clone())
}

/// Re-activates the previously installed instance (usually none) when
/// dropped.
pub struct InstallGuard<T: 'static> {
    slot: &'static Slot<T>,
    prev: Option<Arc<T>>,
}

impl<T> Drop for InstallGuard<T> {
    fn drop(&mut self) {
        let prev = self.prev.take();
        self.slot.with(|a| *a.borrow_mut() = prev);
    }
}

/// The bundle of per-worker reuse layers, each individually optional:
///
/// | layer | type | memoizes |
/// |---|---|---|
/// | simulation cache | [`SimCache`] | per-scenario verdicts of whole testbench runs |
/// | golden cache | [`GoldenCache`] | per-problem golden artifacts |
///
/// A `CacheStack` is the *handle* a harness holds and shares: build one
/// ([`CacheStack::full`] or [`CacheStack::empty`] plus the `with_*` /
/// `without_*` builders), clone it into every worker (clones share the
/// underlying layers — they are `Arc`s), and [`install`](Self::install)
/// it once per worker thread with a single guard. Layer stats aggregate
/// through [`stats`](Self::stats).
///
/// # Examples
///
/// ```
/// use correctbench_tbgen::CacheStack;
///
/// let stack = CacheStack::full().without_golden_cache();
/// let _guard = stack.install();
/// // Runner calls on this thread now consult the simulation cache; the
/// // guard restores the previous (usually empty) layers on drop.
/// assert!(stack.stats().golden.is_none());
/// ```
#[derive(Clone, Default)]
pub struct CacheStack {
    sim: Option<Arc<SimCache>>,
    golden: Option<Arc<GoldenCache>>,
}

impl CacheStack {
    /// A stack with both layers enabled and fresh.
    pub fn full() -> CacheStack {
        CacheStack {
            sim: Some(SimCache::new()),
            golden: Some(GoldenCache::new()),
        }
    }

    /// A stack with every layer disabled (installing it is a no-op
    /// beyond masking outer layers).
    pub fn empty() -> CacheStack {
        CacheStack::default()
    }

    /// Replaces the simulation-cache layer (pass an externally-shared
    /// cache to memoize across several plans).
    pub fn with_sim_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.sim = Some(cache);
        self
    }

    /// Replaces the golden-artifact-cache layer.
    pub fn with_golden_cache(mut self, cache: Arc<GoldenCache>) -> Self {
        self.golden = Some(cache);
        self
    }

    /// Disables the simulation-cache layer.
    pub fn without_sim_cache(mut self) -> Self {
        self.sim = None;
        self
    }

    /// Disables the golden-artifact-cache layer.
    pub fn without_golden_cache(mut self) -> Self {
        self.golden = None;
        self
    }

    /// The simulation-cache layer, if enabled.
    pub fn sim_cache(&self) -> Option<&Arc<SimCache>> {
        self.sim.as_ref()
    }

    /// The golden-artifact-cache layer, if enabled.
    pub fn golden_cache(&self) -> Option<&Arc<GoldenCache>> {
        self.golden.as_ref()
    }

    /// Makes every enabled layer the active instance of its slot on the
    /// *current thread* until the returned guard drops. Disabled layers
    /// leave their slots untouched, so a partial stack can be nested
    /// inside a fuller one (the usual case is installing onto empty
    /// slots). One guard restores all of them, in reverse order.
    pub fn install(&self) -> StackGuard {
        StackGuard {
            _golden: self.golden.as_ref().map(|c| install(&GOLDEN, c)),
            _sim: self.sim.as_ref().map(|c| install(&SIM, c)),
        }
    }

    /// Point-in-time counters of every enabled layer.
    pub fn stats(&self) -> StackStats {
        StackStats {
            sim: self.sim.as_ref().map(|c| c.stats()),
            golden: self.golden.as_ref().map(|c| c.stats()),
            ..StackStats::default()
        }
    }
}

/// Re-activates the previous instance of every layer a
/// [`CacheStack::install`] replaced (field drop order is declaration
/// order, the reverse of installation).
pub struct StackGuard {
    _golden: Option<InstallGuard<GoldenCache>>,
    _sim: Option<InstallGuard<SimCache>>,
}

/// Aggregated per-layer counters of one [`CacheStack`] — `None` marks a
/// disabled layer. This is the unified shape harnesses report: each
/// layer keeps its own [`CacheStats`], the stack snapshots them all.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StackStats {
    /// Simulation-cache counters, when the layer is enabled.
    pub sim: Option<CacheStats>,
    /// Golden-artifact-cache counters, when the layer is enabled.
    pub golden: Option<CacheStats>,
    /// Retired: the elaboration cache was deleted. Always `None`; kept
    /// only so existing readers of `RunResult::caches` still compile.
    pub elab: Option<CacheStats>,
    /// Retired: the session pool was deleted. Always `None`; kept only
    /// so existing readers of `RunResult::caches` still compile.
    pub sessions: Option<CacheStats>,
    /// Retired: the lint-report cache was deleted. Always `None`; kept
    /// only so existing readers of `RunResult::caches` still compile.
    pub lint: Option<CacheStats>,
}

impl StackStats {
    /// The live layers in canonical order with their display labels —
    /// the single definition reports and artifacts iterate so layer
    /// naming cannot drift between `summary.txt` and `timings.jsonl`.
    pub fn layers(&self) -> [(&'static str, Option<CacheStats>); 2] {
        [
            ("simulation cache", self.sim),
            ("golden cache", self.golden),
        ]
    }
}

impl std::fmt::Display for StackStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (label, stats) in self.layers() {
            if !first {
                write!(f, "; ")?;
            }
            first = false;
            match stats {
                Some(s) => write!(f, "{label}: {s}")?,
                None => write!(f, "{label}: disabled")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stack_installs_every_layer_under_one_guard() {
        let stack = CacheStack::full();
        assert!(crate::cache::with_active(|_| ()).is_none());
        {
            let _guard = stack.install();
            assert!(crate::cache::with_active(|_| ()).is_some());
            assert!(crate::golden::with_active(|_| ()).is_some());
        }
        assert!(crate::cache::with_active(|_| ()).is_none());
        assert!(crate::golden::with_active(|_| ()).is_none());
    }

    #[test]
    fn partial_stack_leaves_other_slots_untouched() {
        let outer = CacheStack::full();
        let inner = CacheStack::empty().with_golden_cache(GoldenCache::new());
        let _outer_guard = outer.install();
        {
            let _inner_guard = inner.install();
            // The inner stack only replaced the golden layer; the
            // outer sim cache stays visible through the nesting.
            assert!(crate::cache::with_active(|_| ()).is_some());
            let inner_golden = crate::golden::active().expect("golden installed");
            assert!(Arc::ptr_eq(
                &inner_golden,
                inner.golden_cache().expect("layer")
            ));
        }
        let restored = crate::golden::active().expect("outer restored");
        assert!(Arc::ptr_eq(&restored, outer.golden_cache().expect("layer")));
    }

    #[test]
    fn stats_report_disabled_layers_as_none() {
        let stack = CacheStack::full().without_sim_cache();
        let stats = stack.stats();
        assert!(stats.sim.is_none());
        assert_eq!(stats.golden, Some(CacheStats::default()));
        // The retired layers never report.
        assert!(stats.elab.is_none() && stats.sessions.is_none() && stats.lint.is_none());
        let rendered = stats.to_string();
        assert!(rendered.contains("simulation cache: disabled"));
        assert!(rendered.contains("golden cache: 0 hits"));
    }

    #[test]
    fn clones_share_layers() {
        let stack = CacheStack::full();
        let clone = stack.clone();
        assert!(Arc::ptr_eq(
            stack.sim_cache().expect("sim"),
            clone.sim_cache().expect("sim")
        ));
    }
}
