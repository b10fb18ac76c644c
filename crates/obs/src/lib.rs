//! Zero-dependency observability: phase-scoped spans and counter
//! metrics, drained per job into a [`JobObs`].
//!
//! The engine's measurement substrate. A worker installs a thread-local
//! `Collector` per job via [`ObsStack::install`], a guard that
//! restores the previous collector on drop; instrumented code anywhere
//! below records into it through two free functions:
//!
//! * [`span`] opens a phase-scoped span ([`Phase`] names the taxonomy).
//!   Attribution is **exclusive** (self-time): entering a nested span
//!   pauses the parent, so a job's per-phase nanoseconds sum to the
//!   wall time actually covered by spans — never double-counted.
//! * [`add`] bumps a [`Counter`] (simulation events, retired process
//!   instructions, NBA commits, budget-exhausted runs and their
//!   instructions, display text rendered, judge slot commits, bytes
//!   parsed, per-layer cache hits and misses)
//!   for the job that incurred it.
//!
//! [`take_job`] drains the collector into a [`JobObs`] snapshot and
//! rearms it for the next job. With no collector installed — or one
//! installed by [`ObsStack::disabled`] — every call is a thread-local
//! probe plus a branch: observability is free when off and cheap when
//! on (priced on whole plans by the `no-obs` arm of
//! `perfbench/run.py --ablate`).
//!
//! Nothing here feeds back into evaluation: collectors only absorb
//! measurements, so `outcomes.jsonl` is byte-identical with
//! observability on or off (pinned by the harness determinism suite).

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::time::Instant;

/// The phase taxonomy: one variant per instrumented stage of the
/// evaluation pipeline, from source text to verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Verilog source → AST (`verilog::parse`).
    Parse,
    /// AST → elaborated design (`verilog::elaborate`).
    Elab,
    /// Reads 0: nothing compiles an elaborated design any more, since the
    /// simulator walks it directly. The phase stays because
    /// `perfbench-trace` reads it.
    Compile,
    /// Event-driven simulation (`Simulator::run`), including capturing
    /// what the displays print: a record display's values, any other
    /// display's rendered line.
    Simulate,
    /// Checker judging, by session or interpreter.
    Judge,
    /// LLM request round-trips.
    Llm,
    /// CorrectBench validator verdicts: the self time of the validator's
    /// RS matrix around the runs it makes. A generated driver's records
    /// reach the judge as values, so no record parsing lands here.
    Validate,
    /// AutoEval Eval0/1/2 ladder.
    Autoeval,
    /// Static RTL analysis (`verilog::lint`).
    Lint,
}

impl Phase {
    /// Number of phases (array-index domain).
    pub const COUNT: usize = 9;

    /// Every phase, in canonical (artifact) order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Parse,
        Phase::Elab,
        Phase::Compile,
        Phase::Simulate,
        Phase::Judge,
        Phase::Llm,
        Phase::Validate,
        Phase::Autoeval,
        Phase::Lint,
    ];

    /// The artifact field name of this phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Elab => "elab",
            Phase::Compile => "compile",
            Phase::Simulate => "simulate",
            Phase::Judge => "judge",
            Phase::Llm => "llm",
            Phase::Validate => "validate",
            Phase::Autoeval => "autoeval",
            Phase::Lint => "lint",
        }
    }
}

/// The counter taxonomy: work volumes and cache traffic, attributed to
/// the job whose collector was installed when they happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Simulator activations processed (process + assign wake-ups).
    SimEvents,
    /// Process instructions retired by the simulator.
    SimInstrs,
    /// Non-blocking assignment commits applied.
    NbaCommits,
    /// Simulations that ended in `EventBudgetExhausted`.
    SimBudgetTrips,
    /// Process instructions retired by those simulations.
    SimTripInstrs,
    /// Process instructions the simulator charged without walking them:
    /// the fast-forwarded dead tails of counted loops (part of
    /// `SimInstrs`).
    SimSkippedInstrs,
    /// Bytes of display text the simulator rendered, as line lengths
    /// without newlines. A record display captured as values renders
    /// nothing, so this counts only the other displays' lines.
    RenderBytes,
    /// Compiled-judge register slot commits.
    JudgeCommits,
    /// Source bytes handed to the Verilog parser.
    ParseBytes,
    /// Simulation-cache hits.
    SimCacheHits,
    /// Simulation-cache misses.
    SimCacheMisses,
    /// Golden-artifact-cache hits.
    GoldenHits,
    /// Golden-artifact-cache misses (bundle derived).
    GoldenMisses,
    /// Retired: the LLM retry layer was deleted, so this always reads 0.
    /// Kept only because the benchmark's `perfbench-trace` reads it.
    LlmRetries,
    /// Jobs that ended in a structured abort instead of an outcome.
    JobAborts,
    /// Static-analysis diagnostics emitted for the job's RTL.
    LintDiags,
    /// Jobs replayed from the persistent outcome store.
    StoreHits,
    /// Jobs the persistent outcome store could not serve.
    StoreMisses,
}

impl Counter {
    /// Number of counters (array-index domain).
    pub const COUNT: usize = 18;

    /// Every counter, in canonical (artifact) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::SimEvents,
        Counter::SimInstrs,
        Counter::NbaCommits,
        Counter::SimBudgetTrips,
        Counter::SimTripInstrs,
        Counter::SimSkippedInstrs,
        Counter::RenderBytes,
        Counter::JudgeCommits,
        Counter::ParseBytes,
        Counter::SimCacheHits,
        Counter::SimCacheMisses,
        Counter::GoldenHits,
        Counter::GoldenMisses,
        Counter::LlmRetries,
        Counter::JobAborts,
        Counter::LintDiags,
        Counter::StoreHits,
        Counter::StoreMisses,
    ];

    /// The artifact field name of this counter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SimEvents => "sim_events",
            Counter::SimInstrs => "sim_instrs",
            Counter::NbaCommits => "nba_commits",
            Counter::SimBudgetTrips => "sim_budget_trips",
            Counter::SimTripInstrs => "sim_trip_instrs",
            Counter::SimSkippedInstrs => "sim_skipped_instrs",
            Counter::RenderBytes => "render_bytes",
            Counter::JudgeCommits => "judge_commits",
            Counter::ParseBytes => "parse_bytes",
            Counter::SimCacheHits => "sim_cache_hits",
            Counter::SimCacheMisses => "sim_cache_misses",
            Counter::GoldenHits => "golden_hits",
            Counter::GoldenMisses => "golden_misses",
            Counter::LlmRetries => "llm_retries",
            Counter::JobAborts => "job_aborts",
            Counter::LintDiags => "lint_diags",
            Counter::StoreHits => "store_hits",
            Counter::StoreMisses => "store_misses",
        }
    }
}

/// One job's drained measurements: exclusive per-phase nanoseconds and
/// counter totals, in the canonical [`Phase::ALL`]/[`Counter::ALL`]
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobObs {
    /// Exclusive (self-time) nanoseconds per phase.
    pub phase_ns: [u64; Phase::COUNT],
    /// Counter totals.
    pub counters: [u64; Counter::COUNT],
}

impl JobObs {
    /// `(name, exclusive nanoseconds)` per phase, canonical order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Phase::ALL
            .iter()
            .map(move |p| (p.name(), self.phase_ns[*p as usize]))
    }

    /// `(name, total)` per counter, canonical order.
    pub fn counter_values(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL
            .iter()
            .map(move |c| (c.name(), self.counters[*c as usize]))
    }

    /// Sum of all phase self-times: the span-covered share of a job's
    /// wall time.
    pub fn total_phase_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// One phase's exclusive nanoseconds.
    pub fn phase(&self, p: Phase) -> u64 {
        self.phase_ns[p as usize]
    }

    /// One counter's total.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Accumulates `other` into `self` (run-level aggregation).
    pub fn merge(&mut self, other: &JobObs) {
        for (a, b) in self.phase_ns.iter_mut().zip(other.phase_ns.iter()) {
            *a += b;
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
    }
}

/// The thread-local measurement sink one job records into. Spans use a
/// pause-the-parent stack: `mark` is the instant of the last span edge,
/// and every edge charges the elapsed interval to the phase on top of
/// the stack — so time lands in exactly one phase and the per-phase sum
/// equals the span-covered wall time.
struct Collector {
    phase_ns: [u64; Phase::COUNT],
    counters: [u64; Counter::COUNT],
    stack: Vec<Phase>,
    mark: Instant,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            phase_ns: [0; Phase::COUNT],
            counters: [0; Counter::COUNT],
            stack: Vec::with_capacity(8),
            mark: Instant::now(),
        }
    }

    /// Charges the time since `mark` to the phase on top of the stack
    /// (time with an empty stack is uncovered and charged nowhere).
    fn charge_to_top(&mut self, now: Instant) {
        if let Some(top) = self.stack.last() {
            self.phase_ns[*top as usize] += now.duration_since(self.mark).as_nanos() as u64;
        }
        self.mark = now;
    }
}

thread_local! {
    /// The thread's collector — `None` means observability is off for
    /// this thread (or this job, under `ObsStack::disabled`).
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// The observability switch a worker installs per job:
/// [`ObsStack::enabled`] arms a fresh collector, [`ObsStack::disabled`]
/// guarantees none is active (the `--no-obs` path), and the returned
/// guard restores the previous state on drop.
#[derive(Clone, Copy, Debug)]
pub struct ObsStack {
    enabled: bool,
}

impl ObsStack {
    /// A stack that installs a live collector.
    pub fn enabled() -> ObsStack {
        ObsStack { enabled: true }
    }

    /// A stack that installs nothing — every probe short-circuits.
    pub fn disabled() -> ObsStack {
        ObsStack { enabled: false }
    }

    /// Arms (or disarms) the thread's collector; the guard restores the
    /// previous collector when dropped. Install once per job so
    /// [`take_job`] snapshots exactly that job's measurements.
    pub fn install(self) -> ObsGuard {
        COLLECTOR.with(|c| {
            *c.borrow_mut() = self.enabled.then(Collector::new);
        });
        ObsGuard { _priv: () }
    }
}

/// Restores the thread to "no collector" when dropped (jobs never nest,
/// so the previous state is always empty).
pub struct ObsGuard {
    _priv: (),
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        COLLECTOR.with(|c| *c.borrow_mut() = None);
    }
}

/// Opens a phase span. Exclusive attribution: the parent span (if any)
/// is paused until the returned guard drops. With no collector armed
/// this is a thread-local probe and a branch — keep call sites
/// unconditional.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    let active = COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        match c.as_mut() {
            Some(col) => {
                let now = Instant::now();
                col.charge_to_top(now);
                col.stack.push(phase);
                true
            }
            None => false,
        }
    });
    SpanGuard { active }
}

/// Closes its span on drop, charging the span's own (exclusive) time
/// and resuming the parent.
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            if let Some(col) = c.as_mut() {
                let now = Instant::now();
                col.charge_to_top(now);
                col.stack.pop();
            }
        });
    }
}

/// Adds `n` to `counter` on the armed collector, if any.
#[inline]
pub fn add(counter: Counter, n: u64) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.counters[counter as usize] += n;
        }
    });
}

/// Whether a collector is armed on this thread (cheap pre-flight for
/// call sites that would otherwise compute a counter value for nothing).
#[inline]
pub fn armed() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Drains the armed collector into a [`JobObs`] snapshot and rearms a
/// fresh one for the next job; `None` when observability is off. Call
/// at job end, while every span guard has dropped.
pub fn take_job() -> Option<JobObs> {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        let col = c.as_mut()?;
        let obs = JobObs {
            phase_ns: col.phase_ns,
            counters: col.counters,
        };
        *col = Collector::new();
        Some(obs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_collector_means_every_probe_is_inert() {
        assert!(!armed());
        let _s = span(Phase::Simulate);
        add(Counter::SimEvents, 10);
        assert_eq!(take_job(), None);
    }

    #[test]
    fn disabled_stack_installs_nothing() {
        let _g = ObsStack::disabled().install();
        assert!(!armed());
        add(Counter::SimEvents, 1);
        assert_eq!(take_job(), None);
    }

    #[test]
    fn guard_drop_disarms_the_thread() {
        {
            let _g = ObsStack::enabled().install();
            assert!(armed());
        }
        assert!(!armed());
    }

    #[test]
    fn counters_accumulate_and_take_job_rearms() {
        let _g = ObsStack::enabled().install();
        add(Counter::SimEvents, 3);
        add(Counter::SimEvents, 4);
        add(Counter::GoldenMisses, 1);
        let obs = take_job().expect("armed");
        assert_eq!(obs.counter(Counter::SimEvents), 7);
        assert_eq!(obs.counter(Counter::GoldenMisses), 1);
        // Drained and rearmed: the next job starts from zero.
        let obs2 = take_job().expect("still armed");
        assert_eq!(obs2.counter(Counter::SimEvents), 0);
    }

    #[test]
    fn nested_spans_attribute_exclusively() {
        let _g = ObsStack::enabled().install();
        {
            let _outer = span(Phase::Autoeval);
            busy(2);
            {
                let _inner = span(Phase::Simulate);
                busy(2);
            }
            busy(2);
        }
        let obs = take_job().expect("armed");
        let auto_ns = obs.phase(Phase::Autoeval);
        let sim_ns = obs.phase(Phase::Simulate);
        assert!(auto_ns > 0 && sim_ns > 0, "both phases saw time: {obs:?}");
        // Exclusive attribution: the inner span's time is not also in
        // the outer phase, so the total is the covered wall time, not
        // double that. The outer phase ran busy() twice, the inner once.
        assert!(
            auto_ns > sim_ns / 4,
            "outer self-time vanished: {auto_ns} vs {sim_ns}"
        );
        assert_eq!(obs.total_phase_ns(), auto_ns + sim_ns);
    }

    #[test]
    fn sibling_spans_sum_to_cover() {
        let _g = ObsStack::enabled().install();
        for phase in [Phase::Parse, Phase::Elab, Phase::Compile] {
            let _s = span(phase);
            busy(1);
        }
        let obs = take_job().expect("armed");
        for phase in [Phase::Parse, Phase::Elab, Phase::Compile] {
            assert!(obs.phase(phase) > 0, "{phase:?} saw no time: {obs:?}");
        }
        assert_eq!(obs.phase(Phase::Llm), 0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = JobObs::default();
        a.phase_ns[0] = 5;
        a.counters[1] = 7;
        let mut b = JobObs::default();
        b.phase_ns[0] = 10;
        b.counters[1] = 1;
        a.merge(&b);
        assert_eq!(a.phase_ns[0], 15);
        assert_eq!(a.counters[1], 8);
    }

    #[test]
    fn names_align_with_canonical_order() {
        let phases: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(phases[0], "parse");
        assert_eq!(phases[Phase::Autoeval as usize], "autoeval");
        assert_eq!(phases[Phase::Lint as usize], "lint");
        let counters: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(counters[0], "sim_events");
        assert_eq!(counters[Counter::RenderBytes as usize], "render_bytes");
        assert_eq!(counters[Counter::ParseBytes as usize], "parse_bytes");
        assert_eq!(counters[Counter::GoldenMisses as usize], "golden_misses");
        assert_eq!(counters[Counter::LintDiags as usize], "lint_diags");
        assert_eq!(counters[Counter::StoreHits as usize], "store_hits");
        assert_eq!(counters[Counter::StoreMisses as usize], "store_misses");
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "Phase::ALL order matches discriminants");
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "Counter::ALL order matches discriminants");
        }
    }

    /// A tiny deterministic spin so span tests accumulate measurable
    /// time without sleeping.
    fn busy(units: u64) {
        let mut acc = 0u64;
        for i in 0..units * 20_000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
    }
}
