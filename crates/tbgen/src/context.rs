//! The explicit evaluation context every testbench run reads.
//!
//! An [`EvalContext`] carries what a run consults beyond its own inputs:
//! the two optional reuse layers and the job's [`JobBudget`].
//!
//! | field | type | memoizes |
//! |---|---|---|
//! | `sim` | [`SimCache`] | per-scenario verdicts of whole testbench runs |
//! | `golden` | [`GoldenCache`] | per-problem golden artifacts |
//!
//! It is passed by reference down the evaluation path — harness,
//! pipeline, validator and AutoEval, then
//! [`EvalSession::new`](crate::EvalSession::new) — and nothing on that
//! path keeps per-thread state. Clones share the layers (they are
//! `Arc`s), so a harness builds one context and runs each job on a clone
//! that carries the job's own budget.

use crate::cache::SimCache;
use crate::golden::GoldenCache;
use crate::memo::CacheStats;
use correctbench_verilog::SimLimits;
use std::sync::Arc;
use std::time::Instant;

/// Per-job execution budgets, enforced by [`crate::EvalSession::run`],
/// which clamps every run's [`SimLimits`] against them:
///
/// * `max_sim_steps` — a **per-simulation-run** instruction budget.
///   When it undercuts a run's natural step limit ("binding") and the
///   run exhausts it, the job aborts with
///   [`AbortKind::SimBudgetExhausted`](crate::abort::AbortKind). Sims
///   are deterministic, so whether a given (design, testbench,
///   scenarios) key completes or aborts under a fixed budget never
///   depends on thread count or cache warmth — aborted runs are never
///   cached, completed runs replay identically.
/// * `deadline` — a wall-clock cutoff for the whole job; exceeding it
///   aborts with [`AbortKind::DeadlineExceeded`](crate::abort::AbortKind).
///   Inherently non-deterministic; meant as a last-resort guard, not a
///   reproducible outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobBudget {
    /// Per-simulation-run step ceiling, if any.
    pub max_sim_steps: Option<u64>,
    /// Wall-clock deadline for the job, if any.
    pub deadline: Option<Instant>,
}

impl JobBudget {
    /// Applies the budget to one run's limits: lowers `max_steps` when
    /// the step budget undercuts the natural limit and threads the wall
    /// deadline through. Returns the clamped limits and whether the step
    /// budget binds — the flag that decides whether an exhaustion is a
    /// natural, cacheable `Err` or a structured job abort.
    pub(crate) fn clamp(&self, mut limits: SimLimits) -> (SimLimits, bool) {
        let binding = self.max_sim_steps.filter(|b| *b < limits.max_steps);
        if let Some(b) = binding {
            limits.max_steps = b;
        }
        limits.deadline = self.deadline.or(limits.deadline);
        (limits, binding.is_some())
    }
}

/// What a testbench run reads beyond its inputs: each reuse layer, when
/// enabled, and the job budget. `Default` is no layer and no budget.
///
/// # Examples
///
/// ```
/// use correctbench_tbgen::EvalContext;
///
/// let ctx = EvalContext { golden: None, ..EvalContext::cached() };
/// let job = ctx.clone(); // shares ctx's simulation cache
/// assert!(job.sim.is_some() && ctx.stats().golden.is_none());
/// ```
#[derive(Clone, Default)]
pub struct EvalContext {
    /// The simulation cache, when enabled.
    pub sim: Option<Arc<SimCache>>,
    /// The golden-artifact cache, when enabled.
    pub golden: Option<Arc<GoldenCache>>,
    /// The job's execution budget.
    pub budget: JobBudget,
}

impl EvalContext {
    /// Both layers enabled and fresh, with no budget.
    pub fn cached() -> EvalContext {
        EvalContext {
            sim: Some(SimCache::new()),
            golden: Some(GoldenCache::new()),
            budget: JobBudget::default(),
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

/// Aggregated per-layer counters of one [`EvalContext`] — `None` marks
/// a disabled layer. This is the unified shape harnesses report: each
/// layer keeps its own [`CacheStats`], the context snapshots them all.
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
    use std::time::Duration;

    #[test]
    fn stats_report_disabled_layers_as_none() {
        let ctx = EvalContext {
            sim: None,
            ..EvalContext::cached()
        };
        let stats = ctx.stats();
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
        let ctx = EvalContext::cached();
        let clone = ctx.clone();
        assert!(Arc::ptr_eq(
            ctx.sim.as_ref().expect("sim"),
            clone.sim.as_ref().expect("sim")
        ));
        assert!(Arc::ptr_eq(
            ctx.golden.as_ref().expect("golden"),
            clone.golden.as_ref().expect("golden")
        ));
    }

    fn natural() -> SimLimits {
        SimLimits {
            max_steps: 1000,
            ..SimLimits::default()
        }
    }

    #[test]
    fn clamp_without_a_budget_changes_nothing() {
        let (limits, binding) = JobBudget::default().clamp(natural());
        assert_eq!(
            (limits.max_steps, limits.deadline, binding),
            (1000, None, false)
        );
    }

    #[test]
    fn clamp_binds_a_step_budget_below_the_natural_limit() {
        let budget = JobBudget {
            max_sim_steps: Some(999),
            deadline: None,
        };
        let (limits, binding) = budget.clamp(natural());
        assert_eq!((limits.max_steps, binding), (999, true));
    }

    #[test]
    fn clamp_leaves_a_step_budget_at_or_above_the_natural_limit_unbound() {
        // Exhausting the natural limit stays a cacheable `Err`, not an
        // abort.
        for steps in [1000, 1001] {
            let budget = JobBudget {
                max_sim_steps: Some(steps),
                deadline: None,
            };
            let (limits, binding) = budget.clamp(natural());
            assert_eq!((limits.max_steps, binding), (1000, false), "budget {steps}");
        }
    }

    #[test]
    fn clamp_copies_the_deadline() {
        let deadline = Instant::now() + Duration::from_secs(60);
        let budget = JobBudget {
            max_sim_steps: None,
            deadline: Some(deadline),
        };
        let (limits, binding) = budget.clamp(natural());
        assert_eq!((limits.max_steps, limits.deadline), (1000, Some(deadline)));
        assert!(!binding, "a deadline alone never binds the step budget");
    }
}
