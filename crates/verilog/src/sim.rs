//! Event-driven simulation of an elaborated [`Design`].
//!
//! The scheduler follows the usual stratified event regions: at each
//! simulation time, *active* events (process resumptions and continuous
//! assignment re-evaluations) run to exhaustion, then queued non-blocking
//! assignments commit as one batch (possibly waking more active events —
//! a delta cycle), and only when both are empty does time advance to the
//! next scheduled delay. Combinational oscillation is caught by a
//! delta-cycle limit; runaway testbenches by a global instruction budget.
//!
//! # Execution modes
//!
//! The simulator runs a [`CompiledDesign`] in one of two modes:
//!
//! * [`ExecMode::Bytecode`] (the default) executes the compile-once
//!   register bytecode of [`crate::compile`]: no per-step instruction
//!   cloning, no per-node allocation — the scratch register file is
//!   preallocated once and every op mutates it in place.
//! * [`ExecMode::TreeWalk`] interprets the elaborated `RExpr` trees
//!   directly. It is the executable semantic reference the differential
//!   tests compare the bytecode against, and the baseline the benchmarks
//!   measure the speedup from.
//!
//! Both modes share the scheduler, the commit/wake machinery and the
//! system-task handling; a run's [`SimOutput`] is identical by
//! construction of the bytecode and verified by the differential
//! proptests in [`crate::compile`] and the whole-design differential
//! suite `crates/tbgen/tests/exec_diff.rs`.
//!
//! # Runaway loops
//!
//! A mutated `for` loop (`i = i - 1`, `i = i | 1`, …) never ends, and
//! would retire the whole step budget before failing. The bytecode mode
//! fails such a run with the same [`SimError::EventBudgetExhausted`] as
//! soon as it is proven, at the loop's back-edge ([`CInstr::LoopBack`]).
//! Within one process activation nothing else runs — continuous assigns,
//! wake-ups and NBAs are only queued, `$time` stands still — so the
//! activation is a deterministic function of the pc and the values of the
//! signals the process writes with blocking assignments. Two checks run
//! at back-edges once an activation has taken [`LOOP_WATCH_GRACE`] of
//! them:
//!
//! 1. **State cycle.** Brent's cycle detection over the pairs (pc,
//!    written values) seen at back-edges: a repeated pair means the
//!    activation can never end.
//! 2. **Counted loop.** For a loop with a [`CountedGuard`], the loop test
//!    is shown to hold for the next ⌊(max_steps − steps)/3⌋ + 1 head tests
//!    (each iteration retires at least three instructions), evaluating it
//!    at both ends of every stretch in which the loop variable stays in
//!    one half of its range, where the compared value is monotone.
//!
//! Either check fires only in an activation that would exhaust the budget
//! anyway, so the error and every artifact are unchanged; only the
//! instructions retired before it fall. The tree-walk mode runs such
//! loops to the budget and is the detector's reference.

use crate::compile::{
    exec_unit, CInstr, CLValue, CSysArg, CompiledDesign, CountedGuard, ExprId, ValueStore,
};
use crate::design::*;
use crate::error::SimError;
use crate::logic::{Bit, LogicVec};
use crate::sysfmt::format_display;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Limits protecting the simulator from pathological generated code.
#[derive(Clone, Copy, Debug)]
pub struct SimLimits {
    /// Max delta cycles within one simulation time before
    /// [`SimError::DeltaOverflow`].
    pub max_deltas: usize,
    /// Max total executed instructions before
    /// [`SimError::EventBudgetExhausted`].
    pub max_steps: u64,
    /// Simulation stops (cleanly) at this time if `$finish` never runs.
    pub max_time: u64,
    /// Optional wall-clock deadline: the run fails with
    /// [`SimError::DeadlineExceeded`] once this instant passes. Checked
    /// every few thousand executed instructions, so enforcement is
    /// approximate — and inherently non-deterministic, unlike the step
    /// budget above.
    pub deadline: Option<std::time::Instant>,
}

impl Default for SimLimits {
    fn default() -> Self {
        SimLimits {
            max_deltas: 4096,
            max_steps: 10_000_000,
            max_time: 1_000_000,
            deadline: None,
        }
    }
}

/// How the simulator executes process bodies and expressions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Register bytecode over a preallocated scratch file (fast path).
    #[default]
    Bytecode,
    /// Direct interpretation of the `RExpr` trees (semantic reference).
    TreeWalk,
}

/// The result of a completed simulation.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Lines captured from `$display`/`$fdisplay`/`$write`/`$fwrite`.
    pub lines: Vec<String>,
    /// Final simulation time.
    pub end_time: u64,
    /// `true` when the run ended via `$finish` (vs. event exhaustion or
    /// hitting `max_time`).
    pub finished: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProcStatus {
    Ready,
    Waiting,
    Done,
}

struct ProcState {
    pc: usize,
    status: ProcStatus,
}

/// Back-edge visits one activation makes before the runaway checks start:
/// honest loops end well before this and pay only a counter.
const LOOP_WATCH_GRACE: u64 = 64;

/// Stretches (runs of head tests within one half of the loop variable's
/// range) the counted-loop check evaluates before giving up.
const MAX_STRETCHES: usize = 16;

/// One activation's runaway-detector state (the saved pair itself lives
/// in [`SimState`], so activations reuse its allocation).
struct LoopWatch {
    /// Back-edge visits in this activation.
    visits: u64,
    /// Brent's cycle detection: the pair is re-saved after `power` more
    /// checked visits, and `power` doubles each time.
    power: u64,
    /// Checked visits since the last save.
    lam: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Activation {
    Process(usize),
    Assign(usize),
}

/// Watcher entry: who wakes when a signal changes.
#[derive(Clone, Copy, Debug)]
enum Watcher {
    /// Continuous assignment index (level-sensitive, permanent).
    Assign(usize),
    /// Process waiting on an edge (one-shot; re-armed by `WaitEvent`).
    Process { idx: usize, edge: crate::ast::Edge },
}

/// Either a borrowed, pre-compiled design (the run-many hot path), one
/// compiled and owned by this simulator (the convenience constructors),
/// or a shared handle (the session hot path: the simulator owns an `Arc`
/// so it is `'static` and can live inside a long-lived session next to
/// the cache entry it executes).
enum DesignRef<'d> {
    Borrowed(&'d CompiledDesign),
    Owned(Box<CompiledDesign>),
    Shared(Arc<CompiledDesign>),
}

impl DesignRef<'_> {
    fn get(&self) -> &CompiledDesign {
        match self {
            DesignRef::Borrowed(cd) => cd,
            DesignRef::Owned(cd) => cd,
            DesignRef::Shared(cd) => cd,
        }
    }
}

/// An event-driven simulator over an elaborated design.
///
/// # Examples
///
/// One-shot simulation from a [`Design`]:
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use correctbench_verilog::{parse, elaborate, Simulator};
///
/// let src = "
///   module tb;
///     reg [3:0] a;
///     wire [3:0] y;
///     assign y = a + 4'd1;
///     initial begin
///       a = 4'd2;
///       #1 $display(\"y=%0d\", y);
///       $finish;
///     end
///   endmodule";
/// let design = elaborate(&parse(src)?, "tb")?;
/// let out = Simulator::new(&design).run()?;
/// assert_eq!(out.lines, vec!["y=3".to_string()]);
/// # Ok(())
/// # }
/// ```
///
/// Compile once, run many (the harness hot path — repeated runs reuse
/// the bytecode, the literal pool and the flattened design):
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use correctbench_verilog::{compile, parse, elaborate, Simulator};
///
/// let src = "module tb; initial begin $display(\"hi\"); $finish; end endmodule";
/// let compiled = compile(&elaborate(&parse(src)?, "tb")?);
/// for _ in 0..3 {
///     assert_eq!(Simulator::from_compiled(&compiled).run()?.lines, vec!["hi"]);
/// }
/// # Ok(())
/// # }
/// ```
pub struct Simulator<'d> {
    compiled: DesignRef<'d>,
    state: SimState,
    mode: ExecMode,
}

impl<'d> Simulator<'d> {
    /// Creates a simulator with default [`SimLimits`], compiling the
    /// design. Prefer [`Simulator::from_compiled`] when the same design
    /// is simulated more than once.
    pub fn new(design: &'d Design) -> Self {
        Self::with_limits(design, SimLimits::default())
    }

    /// Creates a simulator with explicit limits, compiling the design.
    pub fn with_limits(design: &'d Design, limits: SimLimits) -> Self {
        let compiled = Box::new(CompiledDesign::new(design.clone()));
        let state = SimState::new(&compiled, limits);
        Simulator {
            compiled: DesignRef::Owned(compiled),
            state,
            mode: ExecMode::default(),
        }
    }

    /// Creates a simulator over a pre-compiled design with default
    /// limits. Construction allocates only the value and scratch tables.
    pub fn from_compiled(compiled: &'d CompiledDesign) -> Self {
        Self::from_compiled_with_limits(compiled, SimLimits::default())
    }

    /// [`Simulator::from_compiled`] with explicit limits.
    pub fn from_compiled_with_limits(compiled: &'d CompiledDesign, limits: SimLimits) -> Self {
        let state = SimState::new(compiled, limits);
        Simulator {
            compiled: DesignRef::Borrowed(compiled),
            state,
            mode: ExecMode::default(),
        }
    }

    /// Creates a `'static` simulator that co-owns a shared compiled
    /// design: the session constructor. Pair with [`Simulator::reset`] to
    /// sweep many runs over one design without reconstructing the value
    /// table, the scratch file, or the scheduler queues.
    pub fn from_shared(compiled: Arc<CompiledDesign>) -> Simulator<'static> {
        Self::from_shared_with_limits(compiled, SimLimits::default())
    }

    /// [`Simulator::from_shared`] with explicit limits.
    pub fn from_shared_with_limits(
        compiled: Arc<CompiledDesign>,
        limits: SimLimits,
    ) -> Simulator<'static> {
        let state = SimState::new(&compiled, limits);
        Simulator {
            compiled: DesignRef::Shared(compiled),
            state,
            mode: ExecMode::default(),
        }
    }

    /// Selects the execution mode (default [`ExecMode::Bytecode`]).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the simulation limits for the next run (sessions bound
    /// `max_time` per scenario schedule).
    pub fn set_limits(&mut self, limits: SimLimits) {
        self.state.limits = limits;
    }

    /// `true` when this simulator executes `compiled` (sessions use this
    /// to decide between [`Simulator::reset`] and reconstruction).
    pub fn shares(&self, compiled: &Arc<CompiledDesign>) -> bool {
        match &self.compiled {
            DesignRef::Shared(cd) => Arc::ptr_eq(cd, compiled),
            _ => false,
        }
    }

    /// Reads a signal's current value (test and harness access).
    pub fn value(&self, sig: SignalId) -> &LogicVec {
        &self.state.values[sig.0 as usize]
    }

    /// Runs to `$finish`, event exhaustion, or `max_time`.
    ///
    /// Runs continue from the current state: a freshly constructed (or
    /// [`reset`](Simulator::reset)) simulator performs a whole
    /// simulation; calling `run` again after completion without a reset
    /// observes the final state and returns immediately-empty output.
    ///
    /// # Errors
    ///
    /// [`SimError::DeltaOverflow`] on combinational loops,
    /// [`SimError::EventBudgetExhausted`] when the instruction budget runs
    /// out (runaway zero-delay loops), or as soon as a loop provably
    /// would exhaust it (see the module docs).
    pub fn run(&mut self) -> Result<SimOutput, SimError> {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Simulate);
        let Simulator {
            compiled,
            state,
            mode,
        } = self;
        let steps_before = state.steps;
        let out = state.run(compiled.get(), *mode);
        // Flush the run's work volumes to the job's collector (inert
        // when none is armed). The accumulators are pure measurement
        // fields, zeroed after flush so a session's next run reports its
        // own delta.
        let instrs = state.steps - steps_before;
        correctbench_obs::add(correctbench_obs::Counter::SimInstrs, instrs);
        if matches!(out, Err(SimError::EventBudgetExhausted)) {
            // Wasted work: the run buys no output, early trip or not.
            correctbench_obs::add(correctbench_obs::Counter::SimBudgetTrips, 1);
            correctbench_obs::add(correctbench_obs::Counter::SimTripInstrs, instrs);
        }
        correctbench_obs::add(
            correctbench_obs::Counter::SimEvents,
            std::mem::take(&mut state.events),
        );
        correctbench_obs::add(
            correctbench_obs::Counter::NbaCommits,
            std::mem::take(&mut state.nba_commits),
        );
        out
    }

    /// Rewinds every piece of mutable simulation state to power-on —
    /// value table back to all-x, scratch registers to their compiled
    /// widths, scheduler queues, watcher lists, captured lines, time and
    /// budgets all cleared — **without releasing any allocation** that
    /// still fits. A reset simulator is observationally identical to a
    /// newly constructed one (pinned by `reset_replays_identically`); the
    /// point is that a session sweeping N runs pays the table setup once,
    /// not N times.
    pub fn reset(&mut self) {
        let Simulator {
            compiled, state, ..
        } = self;
        state.reset(compiled.get());
    }
}

/// All mutable simulation state, split from the (shared, immutable)
/// compiled design so the executor borrows instead of cloning: an
/// instruction reference from the design and mutable access to values,
/// scratch registers and scheduler queues coexist without any per-step
/// `Instr`/`RExpr` clone.
struct SimState {
    values: Vec<LogicVec>,
    /// Bytecode scratch registers, preallocated at their compiled widths.
    scratch: Vec<LogicVec>,
    time: u64,
    procs: Vec<ProcState>,
    sig_watchers: Vec<Vec<Watcher>>,
    active: VecDeque<Activation>,
    /// Pending NBA commits: (signal, low bit, value).
    nba: Vec<(SignalId, usize, LogicVec)>,
    /// Drain buffer the NBA queue swaps into each delta, so neither
    /// vector ever gives its capacity back mid-run.
    nba_scratch: Vec<(SignalId, usize, LogicVec)>,
    timed: BinaryHeap<std::cmp::Reverse<(u64, u64, usize)>>,
    seq: u64,
    lines: Vec<String>,
    finished: bool,
    limits: SimLimits,
    steps: u64,
    /// Activations processed since the last observability flush
    /// (measurement only — never read by simulation logic).
    events: u64,
    /// NBA commits applied since the last observability flush
    /// (measurement only).
    nba_commits: u64,
    /// The runaway detector's saved back-edge pair: the pc and the values
    /// of the running process's blocking-written signals. Only read
    /// within the activation that saved it.
    saved_pc: usize,
    saved_values: Vec<LogicVec>,
}

impl SimState {
    fn new(cd: &CompiledDesign, limits: SimLimits) -> SimState {
        let design = cd.design();
        let values = design
            .signals
            .iter()
            .map(|s| LogicVec::filled_x(s.width))
            .collect();
        let procs = design
            .processes
            .iter()
            .map(|_| ProcState {
                pc: 0,
                status: ProcStatus::Ready,
            })
            .collect();
        let mut sig_watchers: Vec<Vec<Watcher>> = vec![Vec::new(); design.signals.len()];
        for (i, a) in design.assigns.iter().enumerate() {
            for s in &a.reads {
                sig_watchers[s.0 as usize].push(Watcher::Assign(i));
            }
        }
        SimState {
            values,
            scratch: cd.new_scratch(),
            time: 0,
            procs,
            sig_watchers,
            active: VecDeque::new(),
            nba: Vec::new(),
            nba_scratch: Vec::new(),
            timed: BinaryHeap::new(),
            seq: 0,
            lines: Vec::new(),
            finished: false,
            limits,
            steps: 0,
            events: 0,
            nba_commits: 0,
            saved_pc: 0,
            saved_values: Vec::new(),
        }
    }

    /// Rewinds to power-on state in place, preserving allocations: value
    /// and scratch vectors keep their buffers (widths are re-pinned —
    /// an errored run can abandon a placeholder in a scratch slot),
    /// watcher lists are rebuilt with their capacity, queues are cleared.
    fn reset(&mut self, cd: &CompiledDesign) {
        let design = cd.design();
        for (slot, sig) in self.values.iter_mut().zip(design.signals.iter()) {
            debug_assert_eq!(slot.width(), sig.width.max(1));
            slot.set_all_x();
        }
        for (slot, w) in self.scratch.iter_mut().zip(cd.reg_widths.iter()) {
            let w = (*w as usize).max(1);
            if slot.width() != w {
                *slot = LogicVec::zeros(w);
            }
        }
        self.time = 0;
        for p in &mut self.procs {
            p.pc = 0;
            p.status = ProcStatus::Ready;
        }
        for ws in &mut self.sig_watchers {
            ws.clear();
        }
        for (i, a) in design.assigns.iter().enumerate() {
            for s in &a.reads {
                self.sig_watchers[s.0 as usize].push(Watcher::Assign(i));
            }
        }
        self.active.clear();
        self.nba.clear();
        self.nba_scratch.clear();
        self.timed.clear();
        self.seq = 0;
        self.lines.clear();
        self.finished = false;
        self.steps = 0;
        self.events = 0;
        self.nba_commits = 0;
    }

    /// Fails the run if the optional wall-clock deadline has passed.
    /// Called at a coarse cadence (every 4096 executed instructions and
    /// once per simulated time step) so the `Instant::now()` cost stays
    /// off the hot path when no deadline is set.
    fn check_deadline(&self) -> Result<(), SimError> {
        match self.limits.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(SimError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    fn run(&mut self, cd: &CompiledDesign, mode: ExecMode) -> Result<SimOutput, SimError> {
        // Time zero: all continuous assignments evaluate once, every
        // process starts.
        for i in 0..cd.design().assigns.len() {
            self.active.push_back(Activation::Assign(i));
        }
        for i in 0..cd.design().processes.len() {
            self.active.push_back(Activation::Process(i));
        }
        self.settle(cd, mode)?;
        while !self.finished {
            let Some(std::cmp::Reverse((t, _, proc))) = self.timed.pop() else {
                break;
            };
            if t > self.limits.max_time {
                break;
            }
            if self.limits.deadline.is_some() {
                self.check_deadline()?;
            }
            self.time = t;
            self.procs[proc].status = ProcStatus::Ready;
            self.active.push_back(Activation::Process(proc));
            // Pull in everything else scheduled for the same instant.
            while let Some(std::cmp::Reverse((t2, _, _))) = self.timed.peek() {
                if *t2 != t {
                    break;
                }
                let Some(std::cmp::Reverse((_, _, p2))) = self.timed.pop() else {
                    break;
                };
                self.procs[p2].status = ProcStatus::Ready;
                self.active.push_back(Activation::Process(p2));
            }
            self.settle(cd, mode)?;
        }
        Ok(SimOutput {
            lines: std::mem::take(&mut self.lines),
            end_time: self.time,
            finished: self.finished,
        })
    }

    /// Runs the active/NBA delta loop at the current time.
    fn settle(&mut self, cd: &CompiledDesign, mode: ExecMode) -> Result<(), SimError> {
        let design = cd.design();
        let mut deltas = 0usize;
        // Oscillation through continuous assignments alone never touches
        // the NBA queue, so the activation count itself must be bounded.
        let mut activations = 0usize;
        let activation_budget = self
            .limits
            .max_deltas
            .saturating_mul(design.assigns.len() + design.processes.len() + 1);
        loop {
            while let Some(act) = self.active.pop_front() {
                if self.finished {
                    return Ok(());
                }
                activations += 1;
                self.events += 1;
                if activations > activation_budget {
                    return Err(SimError::DeltaOverflow { time: self.time });
                }
                match (act, mode) {
                    (Activation::Assign(i), ExecMode::Bytecode) => self.eval_assign(cd, i)?,
                    (Activation::Assign(i), ExecMode::TreeWalk) => self.eval_assign_tree(cd, i)?,
                    (Activation::Process(i), ExecMode::Bytecode) => self.run_process(cd, i)?,
                    (Activation::Process(i), ExecMode::TreeWalk) => self.run_process_tree(cd, i)?,
                }
            }
            if self.nba.is_empty() {
                return Ok(());
            }
            deltas += 1;
            if deltas > self.limits.max_deltas {
                return Err(SimError::DeltaOverflow { time: self.time });
            }
            std::mem::swap(&mut self.nba, &mut self.nba_scratch);
            self.nba_commits += self.nba_scratch.len() as u64;
            for i in 0..self.nba_scratch.len() {
                let (sig, lo, value) = std::mem::replace(
                    &mut self.nba_scratch[i],
                    (SignalId(0), 0, LogicVec::zeros(1)),
                );
                self.commit_bits(sig, lo, &value);
            }
            self.nba_scratch.clear();
        }
    }

    // ---- bytecode execution ----

    /// Runs expression unit `id` and returns its output register index.
    /// The borrow-split here is the core of the zero-clone design: the
    /// bytecode lives in `cd`, the registers and signal values in `self`,
    /// so execution needs no cloning and no interior mutability.
    fn exec(&mut self, cd: &CompiledDesign, id: ExprId) -> usize {
        exec_unit(cd, id, &mut self.scratch, &self.values, self.time);
        cd.out_reg(id)
    }

    /// Moves an evaluated value out of its scratch register (swapping in
    /// a 1-bit placeholder) so the write walk can borrow `self` mutably;
    /// [`SimState::untake`] restores it afterwards, keeping the register
    /// file's preallocated widths intact.
    fn take(&mut self, reg: usize) -> LogicVec {
        std::mem::replace(&mut self.scratch[reg], LogicVec::zeros(1))
    }

    fn untake(&mut self, reg: usize, value: LogicVec) {
        self.scratch[reg] = value;
    }

    fn eval_assign(&mut self, cd: &CompiledDesign, i: usize) -> Result<(), SimError> {
        let a = &cd.assigns[i];
        let out = self.exec(cd, a.rhs);
        let value = self.take(out);
        self.write_lvalue(cd, &a.lhs, &value)?;
        self.untake(out, value);
        Ok(())
    }

    fn run_process(&mut self, cd: &CompiledDesign, i: usize) -> Result<(), SimError> {
        let mut watch = LoopWatch {
            visits: 0,
            power: 1,
            lam: 0,
        };
        loop {
            self.steps += 1;
            if self.steps > self.limits.max_steps {
                return Err(SimError::EventBudgetExhausted);
            }
            if self.steps & 0xFFF == 0 {
                self.check_deadline()?;
            }
            let code = &cd.processes[i].code;
            let pc = self.procs[i].pc;
            let Some(instr) = code.get(pc) else {
                self.procs[i].status = ProcStatus::Done;
                return Ok(());
            };
            match instr {
                CInstr::Assign { lhs, rhs } => {
                    let out = self.exec(cd, *rhs);
                    let value = self.take(out);
                    self.write_lvalue(cd, lhs, &value)?;
                    self.untake(out, value);
                    self.procs[i].pc = pc + 1;
                }
                CInstr::NbAssign { lhs, rhs } => {
                    let out = self.exec(cd, *rhs);
                    let value = self.take(out);
                    self.schedule_nba(cd, lhs, &value)?;
                    self.untake(out, value);
                    self.procs[i].pc = pc + 1;
                }
                CInstr::JumpIfFalse { cond, target } => {
                    let out = self.exec(cd, *cond);
                    let t = self.scratch[out].truthy();
                    self.procs[i].pc = if t == Bit::One { pc + 1 } else { *target };
                }
                CInstr::Jump(target) => {
                    self.procs[i].pc = *target;
                }
                CInstr::LoopBack { head, guard } => {
                    self.procs[i].pc = *head;
                    watch.visits += 1;
                    if watch.visits > LOOP_WATCH_GRACE
                        && self.loop_runs_away(cd, i, pc, *head, guard.as_ref(), &mut watch)
                    {
                        return Err(SimError::EventBudgetExhausted);
                    }
                }
                CInstr::CaseJump {
                    sel,
                    kind,
                    arms,
                    default,
                } => {
                    let sel_reg = self.exec(cd, *sel);
                    let mut target = *default;
                    'arms: for (labels, t) in arms {
                        for l in labels {
                            let l_reg = self.exec(cd, *l);
                            let selv = &self.scratch[sel_reg];
                            let lv = &self.scratch[l_reg];
                            let hit = match kind {
                                crate::ast::CaseKind::Case => selv.eq_case(lv) == Bit::One,
                                crate::ast::CaseKind::Casez => selv.casez_match(lv),
                                crate::ast::CaseKind::Casex => selv.casex_match(lv),
                            };
                            if hit {
                                target = *t;
                                break 'arms;
                            }
                        }
                    }
                    self.procs[i].pc = target;
                }
                CInstr::Delay(d) => {
                    self.procs[i].pc = pc + 1;
                    self.procs[i].status = ProcStatus::Waiting;
                    self.seq += 1;
                    self.timed
                        .push(std::cmp::Reverse((self.time + d, self.seq, i)));
                    return Ok(());
                }
                CInstr::WaitEvent(edges) => {
                    self.procs[i].pc = pc + 1;
                    self.procs[i].status = ProcStatus::Waiting;
                    for (edge, sig) in edges {
                        self.sig_watchers[sig.0 as usize].push(Watcher::Process {
                            idx: i,
                            edge: *edge,
                        });
                    }
                    return Ok(());
                }
                CInstr::SysCall { name, args } => {
                    if is_display(name) {
                        let line = self.render(cd, args, display_skip(name));
                        self.lines.push(line);
                    }
                    self.syscall_effect(name);
                    if self.finished {
                        return Ok(());
                    }
                    self.procs[i].pc = pc + 1;
                }
                CInstr::Halt => {
                    self.procs[i].status = ProcStatus::Done;
                    return Ok(());
                }
            }
        }
    }

    // ---- runaway detection (see the module docs) ----

    /// Runs the runaway checks at the back-edge `pc` of process `i`, just
    /// after it jumped to `head`: `true` when the activation provably
    /// exhausts the step budget.
    fn loop_runs_away(
        &mut self,
        cd: &CompiledDesign,
        i: usize,
        pc: usize,
        head: usize,
        guard: Option<&CountedGuard>,
        watch: &mut LoopWatch,
    ) -> bool {
        let written = &cd.processes[i].written;
        // Nothing is saved before the first save doubles `power`.
        if watch.power > 1
            && self.saved_pc == pc
            && written
                .iter()
                .zip(&self.saved_values)
                .all(|(s, v)| self.values[s.0 as usize] == *v)
        {
            return true;
        }
        watch.lam += 1;
        if watch.lam < watch.power {
            return false;
        }
        self.saved_pc = pc;
        self.saved_values.clear();
        self.saved_values
            .extend(written.iter().map(|s| self.values[s.0 as usize].clone()));
        watch.power *= 2;
        watch.lam = 0;
        // The counted check rides on the saves, at geometrically spaced
        // visits: the remaining budget shrinks, so a later try can succeed.
        let (Some(g), CInstr::JumpIfFalse { cond, .. }) = (guard, &cd.processes[i].code[head])
        else {
            return false;
        };
        self.counted_loop_outlives_budget(cd, *cond, g)
    }

    /// Whether the loop test `cond` of a counted loop holds for the next
    /// ⌊(max_steps − steps)/3⌋ + 1 head tests. Each iteration retires at
    /// least three instructions (head test, step, back-edge), so the loop
    /// cannot exit before the budget runs out.
    ///
    /// The loop variable visits `v, v + step, …` modulo 2^width. While it
    /// stays within one half of its range, its value read at any width
    /// and signedness is monotone, so the test (a relation against a
    /// loop-invariant bound) holds throughout a stretch when it holds at
    /// both ends. The orbit repeats after 2^width / gcd(step, 2^width)
    /// tests, which bounds the tests worth checking.
    fn counted_loop_outlives_budget(
        &mut self,
        cd: &CompiledDesign,
        cond: ExprId,
        g: &CountedGuard,
    ) -> bool {
        let slot = g.var.0 as usize;
        let Some(mut v) = self.values[slot].to_u64() else {
            return false;
        };
        let width = self.values[slot].width() as u32;
        let mut left = (self.limits.max_steps.saturating_sub(self.steps) / 3).saturating_add(1);
        let period_log2 = width - g.step.trailing_zeros().min(width);
        if period_log2 < 64 {
            left = left.min(1 << period_log2);
        }
        let mask = u64::MAX >> (64 - width);
        let low = mask >> 1;
        let up = g.step <= low;
        let delta = if up {
            g.step
        } else {
            g.step.wrapping_neg() & mask
        };
        for _ in 0..MAX_STRETCHES {
            let room = if up { (v | low) - v } else { v & low };
            let n = room.checked_div(delta).map_or(left, |q| (q + 1).min(left));
            let last = if up {
                v + (n - 1) * delta
            } else {
                v - (n - 1) * delta
            };
            if !self.cond_holds_at(cd, cond, g.var, v) || !self.cond_holds_at(cd, cond, g.var, last)
            {
                return false;
            }
            left -= n;
            if left == 0 {
                return true;
            }
            v = if up {
                last.wrapping_add(delta)
            } else {
                last.wrapping_sub(delta)
            } & mask;
        }
        false
    }

    /// Evaluates the loop test `cond` with `var` read as `value`, leaving
    /// the signal as it was.
    fn cond_holds_at(
        &mut self,
        cd: &CompiledDesign,
        cond: ExprId,
        var: SignalId,
        value: u64,
    ) -> bool {
        let slot = var.0 as usize;
        let probe = LogicVec::from_u64(self.values[slot].width(), value);
        let actual = std::mem::replace(&mut self.values[slot], probe);
        let out = self.exec(cd, cond);
        self.values[slot] = actual;
        self.scratch[out].truthy() == Bit::One
    }

    fn render(&mut self, cd: &CompiledDesign, args: &[CSysArg], skip: usize) -> String {
        let args = &args[skip.min(args.len())..];
        let (fmt, rest): (&str, &[CSysArg]) = match args.first() {
            Some(CSysArg::Str(s)) => (s, &args[1..]),
            _ => {
                // No format string: default-format every argument.
                let mut parts = Vec::new();
                for a in args {
                    if let CSysArg::Expr(e) = a {
                        let out = self.exec(cd, *e);
                        parts.push(self.scratch[out].to_decimal_string());
                    }
                }
                return parts.join(" ");
            }
        };
        let mut values: Vec<LogicVec> = Vec::with_capacity(rest.len());
        for a in rest {
            if let CSysArg::Expr(e) = a {
                let out = self.exec(cd, *e);
                values.push(self.scratch[out].clone());
            }
        }
        format_display(fmt, &values, self.time)
    }

    /// Immediately writes `value` through an lvalue (blocking semantics).
    /// Dynamic indices are evaluated lazily, in target order, exactly as
    /// the tree-walker does.
    fn write_lvalue(
        &mut self,
        cd: &CompiledDesign,
        lhs: &CLValue,
        value: &LogicVec,
    ) -> Result<(), SimError> {
        match lhs {
            CLValue::Sig(s) => {
                self.commit_bits(*s, 0, value);
                Ok(())
            }
            CLValue::Part(s, lo, w) => {
                self.commit_bits(*s, *lo, &value.slice(0, *w));
                Ok(())
            }
            CLValue::Bit(s, idx) => {
                let out = self.exec(cd, *idx);
                if let Some(i) = self.scratch[out].to_u64() {
                    let width = cd.design().signal(*s).width;
                    if (i as usize) < width {
                        self.commit_bits(*s, i as usize, &value.slice(0, 1));
                    }
                }
                Ok(())
            }
            CLValue::IndexedPart(s, base, w) => {
                let out = self.exec(cd, *base);
                if let Some(lo) = self.scratch[out].to_u64() {
                    self.commit_bits(*s, lo as usize, &value.slice(0, *w));
                }
                Ok(())
            }
            CLValue::Concat(parts) => {
                // MSB-first: the last part takes the low bits.
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = part.width(cd.design());
                    let chunk = value.slice(lo, w);
                    self.write_lvalue(cd, part, &chunk)?;
                    lo += w;
                }
                Ok(())
            }
        }
    }

    /// Schedules an NBA update.
    fn schedule_nba(
        &mut self,
        cd: &CompiledDesign,
        lhs: &CLValue,
        value: &LogicVec,
    ) -> Result<(), SimError> {
        match lhs {
            CLValue::Sig(s) => {
                self.nba.push((*s, 0, value.clone()));
                Ok(())
            }
            CLValue::Part(s, lo, w) => {
                self.nba.push((*s, *lo, value.slice(0, *w)));
                Ok(())
            }
            CLValue::Bit(s, idx) => {
                let out = self.exec(cd, *idx);
                if let Some(i) = self.scratch[out].to_u64() {
                    let width = cd.design().signal(*s).width;
                    if (i as usize) < width {
                        self.nba.push((*s, i as usize, value.slice(0, 1)));
                    }
                }
                Ok(())
            }
            CLValue::IndexedPart(s, base, w) => {
                let out = self.exec(cd, *base);
                if let Some(lo) = self.scratch[out].to_u64() {
                    self.nba.push((*s, lo as usize, value.slice(0, *w)));
                }
                Ok(())
            }
            CLValue::Concat(parts) => {
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = part.width(cd.design());
                    let chunk = value.slice(lo, w);
                    self.schedule_nba(cd, part, &chunk)?;
                    lo += w;
                }
                Ok(())
            }
        }
    }

    // ---- tree-walk execution (semantic reference) ----

    fn eval_assign_tree(&mut self, cd: &CompiledDesign, i: usize) -> Result<(), SimError> {
        let a = &cd.design().assigns[i];
        let lhs_width = a.lhs.width(cd.design());
        let value = {
            let store = ValueStore {
                values: &self.values,
                time: self.time,
            };
            eval(&a.rhs, lhs_width.max(a.rhs.width), &store).resize(lhs_width, a.rhs.signed)
        };
        self.write_lvalue_tree(cd, &a.lhs, value)
    }

    fn run_process_tree(&mut self, cd: &CompiledDesign, i: usize) -> Result<(), SimError> {
        let design = cd.design();
        loop {
            self.steps += 1;
            if self.steps > self.limits.max_steps {
                return Err(SimError::EventBudgetExhausted);
            }
            if self.steps & 0xFFF == 0 {
                self.check_deadline()?;
            }
            let pc = self.procs[i].pc;
            let Some(instr) = design.processes[i].code.get(pc) else {
                self.procs[i].status = ProcStatus::Done;
                return Ok(());
            };
            match instr {
                Instr::Assign(lhs, rhs) => {
                    let lhs_width = lhs.width(design);
                    let v = {
                        let store = ValueStore {
                            values: &self.values,
                            time: self.time,
                        };
                        eval(rhs, lhs_width.max(rhs.width), &store).resize(lhs_width, rhs.signed)
                    };
                    self.write_lvalue_tree(cd, lhs, v)?;
                    self.procs[i].pc = pc + 1;
                }
                Instr::NbAssign(lhs, rhs) => {
                    let lhs_width = lhs.width(design);
                    let v = {
                        let store = ValueStore {
                            values: &self.values,
                            time: self.time,
                        };
                        eval(rhs, lhs_width.max(rhs.width), &store).resize(lhs_width, rhs.signed)
                    };
                    self.schedule_nba_tree(cd, lhs, v)?;
                    self.procs[i].pc = pc + 1;
                }
                Instr::JumpIfFalse(cond, target) => {
                    let store = ValueStore {
                        values: &self.values,
                        time: self.time,
                    };
                    let t = eval(cond, cond.width, &store).truthy();
                    self.procs[i].pc = if t == Bit::One { pc + 1 } else { *target };
                }
                Instr::Jump(target) => {
                    self.procs[i].pc = *target;
                }
                Instr::CaseJump {
                    expr,
                    kind,
                    arms,
                    default,
                } => {
                    let store = ValueStore {
                        values: &self.values,
                        time: self.time,
                    };
                    let sel_w = arms
                        .iter()
                        .flat_map(|(ls, _)| ls.iter().map(|l| l.width))
                        .fold(expr.width, usize::max);
                    let sel = eval(expr, sel_w, &store);
                    let mut target = *default;
                    'arms: for (labels, t) in arms {
                        for l in labels {
                            let lv = eval(l, sel_w, &store);
                            let hit = match kind {
                                crate::ast::CaseKind::Case => sel.eq_case(&lv) == Bit::One,
                                crate::ast::CaseKind::Casez => sel.casez_match(&lv),
                                crate::ast::CaseKind::Casex => sel.casex_match(&lv),
                            };
                            if hit {
                                target = *t;
                                break 'arms;
                            }
                        }
                    }
                    self.procs[i].pc = target;
                }
                Instr::Delay(d) => {
                    self.procs[i].pc = pc + 1;
                    self.procs[i].status = ProcStatus::Waiting;
                    self.seq += 1;
                    self.timed
                        .push(std::cmp::Reverse((self.time + d, self.seq, i)));
                    return Ok(());
                }
                Instr::WaitEvent(edges) => {
                    self.procs[i].pc = pc + 1;
                    self.procs[i].status = ProcStatus::Waiting;
                    for (edge, sig) in edges {
                        self.sig_watchers[sig.0 as usize].push(Watcher::Process {
                            idx: i,
                            edge: *edge,
                        });
                    }
                    return Ok(());
                }
                Instr::SysCall { name, args } => {
                    if is_display(name) {
                        let line = self.render_tree(args, display_skip(name));
                        self.lines.push(line);
                    }
                    self.syscall_effect(name);
                    if self.finished {
                        return Ok(());
                    }
                    self.procs[i].pc = pc + 1;
                }
                Instr::Halt => {
                    self.procs[i].status = ProcStatus::Done;
                    return Ok(());
                }
            }
        }
    }

    fn render_tree(&self, args: &[RSysArg], skip: usize) -> String {
        let store = ValueStore {
            values: &self.values,
            time: self.time,
        };
        let args = &args[skip.min(args.len())..];
        let (fmt, rest): (&str, &[RSysArg]) = match args.first() {
            Some(RSysArg::Str(s)) => (s, &args[1..]),
            _ => {
                // No format string: default-format every argument.
                let mut parts = Vec::new();
                for a in args {
                    if let RSysArg::Expr(e) = a {
                        parts.push(eval(e, e.width, &store).to_decimal_string());
                    }
                }
                return parts.join(" ");
            }
        };
        let values: Vec<LogicVec> = rest
            .iter()
            .filter_map(|a| match a {
                RSysArg::Expr(e) => Some(eval(e, e.width, &store)),
                RSysArg::Str(_) => None,
            })
            .collect();
        format_display(fmt, &values, self.time)
    }

    fn write_lvalue_tree(
        &mut self,
        cd: &CompiledDesign,
        lhs: &RLValue,
        value: LogicVec,
    ) -> Result<(), SimError> {
        match lhs {
            RLValue::Sig(s) => {
                self.commit_bits(*s, 0, &value);
                Ok(())
            }
            RLValue::Part(s, lo, w) => {
                self.commit_bits(*s, *lo, &value.slice(0, *w));
                Ok(())
            }
            RLValue::Bit(s, idx) => {
                let i = {
                    let store = ValueStore {
                        values: &self.values,
                        time: self.time,
                    };
                    eval(idx, idx.width, &store)
                };
                if let Some(i) = i.to_u64() {
                    let width = cd.design().signal(*s).width;
                    if (i as usize) < width {
                        self.commit_bits(*s, i as usize, &value.slice(0, 1));
                    }
                }
                Ok(())
            }
            RLValue::IndexedPart(s, base, w) => {
                let b = {
                    let store = ValueStore {
                        values: &self.values,
                        time: self.time,
                    };
                    eval(base, base.width, &store)
                };
                if let Some(lo) = b.to_u64() {
                    self.commit_bits(*s, lo as usize, &value.slice(0, *w));
                }
                Ok(())
            }
            RLValue::Concat(parts) => {
                // MSB-first: the last part takes the low bits.
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = part.width(cd.design());
                    let chunk = value.slice(lo, w);
                    self.write_lvalue_tree(cd, part, chunk)?;
                    lo += w;
                }
                Ok(())
            }
        }
    }

    fn schedule_nba_tree(
        &mut self,
        cd: &CompiledDesign,
        lhs: &RLValue,
        value: LogicVec,
    ) -> Result<(), SimError> {
        match lhs {
            RLValue::Sig(s) => {
                self.nba.push((*s, 0, value));
                Ok(())
            }
            RLValue::Part(s, lo, w) => {
                self.nba.push((*s, *lo, value.slice(0, *w)));
                Ok(())
            }
            RLValue::Bit(s, idx) => {
                let i = {
                    let store = ValueStore {
                        values: &self.values,
                        time: self.time,
                    };
                    eval(idx, idx.width, &store)
                };
                if let Some(i) = i.to_u64() {
                    let width = cd.design().signal(*s).width;
                    if (i as usize) < width {
                        self.nba.push((*s, i as usize, value.slice(0, 1)));
                    }
                }
                Ok(())
            }
            RLValue::IndexedPart(s, base, w) => {
                let b = {
                    let store = ValueStore {
                        values: &self.values,
                        time: self.time,
                    };
                    eval(base, base.width, &store)
                };
                if let Some(lo) = b.to_u64() {
                    self.nba.push((*s, lo as usize, value.slice(0, *w)));
                }
                Ok(())
            }
            RLValue::Concat(parts) => {
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = part.width(cd.design());
                    let chunk = value.slice(lo, w);
                    self.schedule_nba_tree(cd, part, chunk)?;
                    lo += w;
                }
                Ok(())
            }
        }
    }

    // ---- shared machinery ----

    /// Applies a system task's scheduler effect (display rendering is
    /// handled by the callers, which own the mode-specific argument
    /// evaluation).
    fn syscall_effect(&mut self, name: &str) {
        match name {
            "$finish" | "$stop" => {
                self.finished = true;
            }
            "$monitor" | "$fopen" | "$fclose" | "$dumpfile" | "$dumpvars" => {
                // Accepted but inert: generated testbenches sometimes emit
                // these; Icarus would honour them, we do not need to.
            }
            _ => {}
        }
    }

    /// Writes `bits` into `sig` starting at `lo`, firing watchers when the
    /// stored value actually changes. In place — no clone of the stored
    /// value, no allocation.
    fn commit_bits(&mut self, sig: SignalId, lo: usize, bits: &LogicVec) {
        let slot = &mut self.values[sig.0 as usize];
        if lo >= slot.width() {
            return;
        }
        let old_lsb = slot.bit(0);
        if !slot.write_range(lo, bits, bits.width()) {
            return;
        }
        let new_lsb = slot.bit(0);

        // Wake watchers. Edge-qualified watchers look at bit 0 (clocks and
        // resets are 1-bit in practice). The list is compacted in place —
        // taken out for the duration of the walk (wakes mutate other
        // state), then put back with its allocation intact.
        let mut watchers = std::mem::take(&mut self.sig_watchers[sig.0 as usize]);
        let mut kept = 0usize;
        for i in 0..watchers.len() {
            let w = watchers[i];
            let keep = match w {
                Watcher::Assign(i) => {
                    self.active.push_back(Activation::Assign(i));
                    true
                }
                Watcher::Process { idx, edge } => {
                    let fire = match edge {
                        crate::ast::Edge::Any => true,
                        crate::ast::Edge::Pos => old_lsb != Bit::One && new_lsb == Bit::One,
                        crate::ast::Edge::Neg => old_lsb != Bit::Zero && new_lsb == Bit::Zero,
                    };
                    if fire && self.procs[idx].status == ProcStatus::Waiting {
                        self.procs[idx].status = ProcStatus::Ready;
                        self.active.push_back(Activation::Process(idx));
                        self.remove_process_watchers(idx, sig);
                        false
                    } else {
                        // A firing watcher whose process already woke via
                        // another signal this delta is stale either way.
                        !fire
                    }
                }
            };
            if keep {
                watchers[kept] = w;
                kept += 1;
            }
        }
        watchers.truncate(kept);
        self.sig_watchers[sig.0 as usize] = watchers;
    }

    /// Removes the remaining one-shot watchers of `proc` from every other
    /// signal (it woke via `except`, whose list is being rebuilt by the
    /// caller).
    fn remove_process_watchers(&mut self, proc: usize, except: SignalId) {
        for (s, ws) in self.sig_watchers.iter_mut().enumerate() {
            if s == except.0 as usize {
                continue;
            }
            ws.retain(|w| !matches!(w, Watcher::Process { idx, .. } if *idx == proc));
        }
    }
}

/// Display-family system tasks that render a line.
fn is_display(name: &str) -> bool {
    matches!(name, "$display" | "$write" | "$fdisplay" | "$fwrite")
}

/// `$fdisplay`/`$fwrite` take a file descriptor first; we capture
/// everything into one stream.
fn display_skip(name: &str) -> usize {
    match name {
        "$fdisplay" | "$fwrite" => 1,
        _ => 0,
    }
}

/// Convenience: parse, elaborate and simulate `src` with `top` as the root.
///
/// # Errors
///
/// Any [`crate::error::VerilogError`] from the front end or the run.
pub fn run_source(src: &str, top: &str) -> Result<SimOutput, crate::error::VerilogError> {
    let file = crate::parser::parse(src)?;
    let design = crate::elaborate::elaborate(&file, top)?;
    Ok(Simulator::new(&design).run()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, top: &str) -> SimOutput {
        run_source(src, top).expect("simulation ok")
    }

    /// Runs `src` in both modes and checks they agree before returning
    /// the bytecode output — every legacy simulator test doubles as a
    /// tree-vs-bytecode differential check.
    fn run_both(src: &str, top: &str) -> SimOutput {
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, top).expect("elab");
        let compiled = CompiledDesign::new(design);
        let byte = Simulator::from_compiled(&compiled).run().expect("bytecode");
        let tree = Simulator::from_compiled(&compiled)
            .with_mode(ExecMode::TreeWalk)
            .run()
            .expect("tree");
        assert_eq!(byte.lines, tree.lines, "modes disagree on output");
        assert_eq!(byte.end_time, tree.end_time, "modes disagree on time");
        assert_eq!(byte.finished, tree.finished);
        byte
    }

    #[test]
    fn combinational_assign() {
        let out = run_both(
            "module tb;\nreg [3:0] a, b;\nwire [3:0] y;\nassign y = a + b;\ninitial begin\na = 4'd3; b = 4'd4;\n#1 $display(\"y=%0d\", y);\na = 4'd9;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["y=7", "y=13"]);
        assert!(out.finished);
    }

    #[test]
    fn clocked_register() {
        let out = run_both(
            "module tb;\nreg clk, d;\nreg q;\nalways @(posedge clk) q <= d;\ninitial begin\nclk = 0; d = 1;\n#1 $display(\"q=%b\", q);\n#4 clk = 1;\n#1 $display(\"q=%b\", q);\nd = 0;\n#4 clk = 0;\n#5 clk = 1;\n#1 $display(\"q=%b\", q);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["q=x", "q=1", "q=0"]);
    }

    #[test]
    fn nonblocking_swap() {
        let out = run_both(
            "module tb;\nreg clk;\nreg [3:0] a, b;\nalways @(posedge clk) begin a <= b; b <= a; end\ninitial begin\nclk = 0; a = 4'd1; b = 4'd2;\n#5 clk = 1;\n#1 $display(\"a=%0d b=%0d\", a, b);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["a=2 b=1"]);
    }

    #[test]
    fn clock_generator_and_counter() {
        let out = run_both(
            "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [7:0] n = 0;\nalways @(posedge clk) n <= n + 8'd1;\ninitial begin\n#52 $display(\"n=%0d\", n);\n$finish;\nend\nendmodule",
            "tb",
        );
        // Posedges at 5,15,25,35,45 -> n == 5 at t=52.
        assert_eq!(out.lines, vec!["n=5"]);
    }

    #[test]
    fn dut_instance() {
        let out = run_both(
            "module add1(input [3:0] a, output [3:0] y);\nassign y = a + 4'd1;\nendmodule\nmodule tb;\nreg [3:0] a;\nwire [3:0] y;\nadd1 dut(.a(a), .y(y));\ninitial begin\na = 4'd7;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["y=8"]);
    }

    #[test]
    fn always_star_mux() {
        let out = run_both(
            "module tb;\nreg s;\nreg [3:0] a, b;\nreg [3:0] y;\nalways @(*) begin if (s) y = a; else y = b; end\ninitial begin\na = 4'd10; b = 4'd5; s = 0;\n#1 $display(\"y=%0d\", y);\ns = 1;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["y=5", "y=10"]);
    }

    #[test]
    fn combinational_loop_detected() {
        let r = run_source(
            "module tb;\nwire a, b;\nassign a = ~b;\nassign b = ~a;\ninitial #1 $finish;\nendmodule",
            "tb",
        );
        // a and b start x; ~x = x, so this particular loop actually
        // settles. Make a real oscillator with known values instead.
        assert!(r.is_ok());
        // A ring that escapes the x fixpoint via ===, then oscillates.
        let r2 = run_source(
            "module tb;\nwire a, b;\nassign a = (b === 1'bx) ? 1'b0 : ~b;\nassign b = a;\ninitial #1 $finish;\nendmodule",
            "tb",
        );
        match r2 {
            Err(crate::error::VerilogError::Sim(SimError::DeltaOverflow { .. })) => {}
            other => panic!("expected delta overflow, got {other:?}"),
        }
    }

    #[test]
    fn zero_delay_runaway_caught_in_both_modes() {
        let src =
            "module tb;\nreg x;\ninitial begin x = 0; forever begin #0; x = ~x; end end\nendmodule";
        // #0 delays still advance the queue at the same time; the step
        // budget eventually trips.
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, "tb").expect("elab");
        let compiled = CompiledDesign::new(design);
        let limits = SimLimits {
            max_steps: 10_000,
            ..SimLimits::default()
        };
        for mode in [ExecMode::Bytecode, ExecMode::TreeWalk] {
            let r = Simulator::from_compiled_with_limits(&compiled, limits)
                .with_mode(mode)
                .run();
            assert!(matches!(r, Err(SimError::EventBudgetExhausted)), "{mode:?}");
        }
    }

    /// How a runaway-detector case must end in both modes.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ends {
        /// Budget exhausted, the bytecode retiring a small fraction of it.
        EarlyTrip,
        /// Budget exhausted with the whole budget retired in both modes.
        FullBudget,
        /// `$finish` within the budget.
        Finishes,
    }

    fn compile_src(src: &str) -> CompiledDesign {
        let file = crate::parser::parse(src).expect("parse");
        CompiledDesign::new(crate::elaborate::elaborate(&file, "tb").expect("elab"))
    }

    /// Runs `compiled` to completion; returns the result and the
    /// instructions it retired.
    fn run_counted(
        compiled: &CompiledDesign,
        mode: ExecMode,
        max_steps: u64,
    ) -> (Result<SimOutput, SimError>, u64) {
        let limits = SimLimits {
            max_steps,
            ..SimLimits::default()
        };
        let mut sim = Simulator::from_compiled_with_limits(compiled, limits).with_mode(mode);
        let out = sim.run();
        (out, sim.state.steps)
    }

    /// Per zero-time back-edge of the design, whether it carries a
    /// counted-loop guard.
    fn loop_guards(compiled: &CompiledDesign) -> Vec<bool> {
        compiled
            .processes
            .iter()
            .flat_map(|p| &p.code)
            .filter_map(|i| match i {
                CInstr::LoopBack { guard, .. } => Some(guard.is_some()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn runaway_loop_boundaries_in_both_modes() {
        use Ends::*;
        const BUDGET: u64 = 250_000;
        let tb = |decls: &str, body: &str| {
            format!(
                "module tb;\n{decls}\ninitial begin\n{body}\n$display(\"done\");\n$finish;\nend\nendmodule"
            )
        };
        // (name, source, guard per zero-time back-edge, expected end)
        let cases: Vec<(&str, String, Vec<bool>, Ends)> = vec![
            (
                "or step settles into a state cycle",
                tb("integer i;", "for (i = 0; i < 8; i = i | 1) ;"),
                vec![false],
                EarlyTrip,
            ),
            (
                "integer count-down proven by the counted check",
                tb("integer i;", "for (i = 0; i < 8; i = i - 1) ;"),
                vec![true],
                EarlyTrip,
            ),
            (
                "4-bit counter wraps below its bound",
                tb("reg [3:0] i;", "for (i = 0; i < 16; i = i + 1) ;"),
                vec![true],
                EarlyTrip,
            ),
            (
                "unsigned count-down crosses into the upper half",
                tb("reg [31:0] u;", "for (u = 7; u >= 0; u = u - 1) ;"),
                vec![true],
                EarlyTrip,
            ),
            (
                "signed counter leaves its bound at the sign flip",
                tb(
                    "reg signed [7:0] s;",
                    "for (s = 0; s > -8'sd5; s = s + 8'sd1) ;",
                ),
                vec![true],
                Finishes,
            ),
            (
                "inner loop of a nest runs away",
                tb(
                    "integer i, j;\nreg [31:0] n;",
                    "n = 0;\nfor (i = 0; i < 4; i = i + 1)\nfor (j = 0; j < 4; j = j - 1) n = n + 1;",
                ),
                vec![true, true],
                EarlyTrip,
            ),
            (
                "outer loop of a nest runs away",
                tb(
                    "integer i, j;\nreg [31:0] n;",
                    "n = 0;\nfor (i = 0; i < 8; i = i - 1)\nfor (j = 0; j < 4; j = j + 1) n = n + 1;",
                ),
                vec![true, true],
                EarlyTrip,
            ),
            (
                "a delay in the body makes the loop timed",
                tb("integer i;", "for (i = 0; i < 8; i = i - 1) #1;"),
                vec![],
                FullBudget,
            ),
            (
                "$finish in the body ends the run",
                tb(
                    "integer i;",
                    "for (i = 0; i < 8; i = i - 1) if (i == -300) $finish;",
                ),
                vec![false],
                Finishes,
            ),
            (
                "a bound the body writes is not loop-invariant",
                tb(
                    "integer i, n;",
                    "n = 100000;\nfor (i = 0; i < n; i = i + 1) n = n - 1;",
                ),
                vec![false],
                Finishes,
            ),
            (
                "a bound the body writes keeps growing",
                tb("integer i, n;", "n = 8;\nfor (i = 0; i < n; i = i + 1) n = n + 1;"),
                vec![false],
                FullBudget,
            ),
        ];
        for (name, src, guards, ends) in cases {
            let compiled = compile_src(&src);
            assert_eq!(loop_guards(&compiled), guards, "{name}: classification");
            let (byte, byte_steps) = run_counted(&compiled, ExecMode::Bytecode, BUDGET);
            let (tree, tree_steps) = run_counted(&compiled, ExecMode::TreeWalk, BUDGET);
            match (&byte, &tree) {
                (Ok(b), Ok(t)) => {
                    assert_eq!(b.lines, t.lines, "{name}: lines");
                    assert_eq!((b.end_time, b.finished), (t.end_time, t.finished), "{name}");
                }
                (Err(b), Err(t)) => assert_eq!(b, t, "{name}: errors"),
                _ => panic!("{name}: modes disagree: {byte:?} vs {tree:?}"),
            }
            match ends {
                EarlyTrip => {
                    assert!(
                        matches!(tree, Err(SimError::EventBudgetExhausted)),
                        "{name}"
                    );
                    assert_eq!(
                        tree_steps,
                        BUDGET + 1,
                        "{name}: reference retires the budget"
                    );
                    assert!(
                        byte_steps < BUDGET / 50,
                        "{name}: tripped after {byte_steps}"
                    );
                }
                FullBudget => {
                    assert!(
                        matches!(tree, Err(SimError::EventBudgetExhausted)),
                        "{name}"
                    );
                    assert_eq!((byte_steps, tree_steps), (BUDGET + 1, BUDGET + 1), "{name}");
                }
                Finishes => {
                    let out = byte.expect("finishes");
                    assert!(out.finished, "{name}");
                    assert_eq!(byte_steps, tree_steps, "{name}: same work");
                }
            }
        }
    }

    #[test]
    fn counted_loop_at_the_exact_budget() {
        // Three instructions per iteration, the counted check's tightest
        // case. With exactly the instructions the run needs it completes;
        // with one or two fewer it trips after the loop (at `$finish` or
        // at the failing head test), so the loop must run out in full;
        // with three fewer the last back-edge trips, inside the loop, and
        // the bytecode proves it early.
        let compiled = compile_src(
            "module tb;\ninteger i;\ninitial begin\nfor (i = 0; i < 1000; i = i + 1) ;\n$finish;\nend\nendmodule",
        );
        assert_eq!(loop_guards(&compiled), vec![true]);
        let (out, needed) = run_counted(&compiled, ExecMode::TreeWalk, 1_000_000);
        assert!(out.expect("finite loop").finished);
        for mode in [ExecMode::Bytecode, ExecMode::TreeWalk] {
            let (out, steps) = run_counted(&compiled, mode, needed);
            assert!(out.expect("exact budget completes").finished, "{mode:?}");
            assert_eq!(steps, needed, "{mode:?}");
            for short in 1..=3 {
                let budget = needed - short;
                let (out, steps) = run_counted(&compiled, mode, budget);
                assert!(
                    matches!(out, Err(SimError::EventBudgetExhausted)),
                    "{mode:?} {budget}: {out:?}"
                );
                if mode == ExecMode::Bytecode && short == 3 {
                    assert!(steps < budget / 10, "{mode:?} {budget}: tripped at {steps}");
                } else {
                    assert_eq!(steps, budget + 1, "{mode:?} {budget}: ran to the budget");
                }
            }
        }
    }

    #[test]
    fn for_loop_popcount() {
        let out = run_both(
            "module tb;\nreg [7:0] v;\nreg [3:0] n;\ninteger i;\ninitial begin\nv = 8'b1011_0110;\nn = 0;\nfor (i = 0; i < 8; i = i + 1) if (v[i]) n = n + 1;\n$display(\"n=%0d\", n);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["n=5"]);
    }

    #[test]
    fn case_statement() {
        let out = run_both(
            "module tb;\nreg [1:0] s;\nreg [3:0] y;\nalways @(*) begin\ncase (s)\n2'd0: y = 4'd1;\n2'd1: y = 4'd2;\ndefault: y = 4'd15;\nendcase\nend\ninitial begin\ns = 2'd0; #1 $display(\"%0d\", y);\ns = 2'd1; #1 $display(\"%0d\", y);\ns = 2'd3; #1 $display(\"%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["1", "2", "15"]);
    }

    #[test]
    fn event_wait_in_initial() {
        let out = run_both(
            "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\ninitial begin\n@(posedge clk);\n$display(\"t=%0d\", $time);\n@(posedge clk);\n$display(\"t=%0d\", $time);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["t=5", "t=15"]);
    }

    #[test]
    fn part_select_write() {
        let out = run_both(
            "module tb;\nreg [7:0] v;\ninitial begin\nv = 8'h00;\nv[3:0] = 4'hf;\nv[6] = 1'b1;\n$display(\"%h\", v);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["4f"]);
    }

    #[test]
    fn concat_lvalue() {
        let out = run_both(
            "module tb;\nreg [3:0] hi, lo;\ninitial begin\n{hi, lo} = 8'hA5;\n$display(\"%h %h\", hi, lo);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["a 5"]);
    }

    #[test]
    fn max_time_stops_unfinished_run() {
        let src = "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nendmodule";
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, "tb").expect("elab");
        let limits = SimLimits {
            max_time: 100,
            ..SimLimits::default()
        };
        let out = Simulator::with_limits(&design, limits).run().expect("run");
        assert!(!out.finished);
        assert!(out.end_time <= 105);
    }

    #[test]
    fn sequential_sr_with_sync_reset() {
        let out = run_both(
            "module tb;\nreg clk = 0, rst;\nalways #5 clk = ~clk;\nreg [3:0] q;\nalways @(posedge clk) begin\nif (rst) q <= 4'd0; else q <= q + 4'd1;\nend\ninitial begin\nrst = 1;\n#12 rst = 0;\n#40 $display(\"q=%0d\", q);\n$finish;\nend\nendmodule",
            "tb",
        );
        // Posedges: 5 (rst), 15,25,35,45 counting -> q=4 at t=52.
        assert_eq!(out.lines, vec!["q=4"]);
    }

    #[test]
    fn wide_arithmetic_and_selects() {
        let out = run_both(
            "module tb;\nreg [99:0] a, b;\nwire [99:0] s;\nassign s = a + b;\ninitial begin\na = 100'd1;\nb = 100'd0;\na = a << 64;\nb = 100'd5;\n#1 $display(\"%0d %0d\", s[99:60], s[7:0]);\n$display(\"%b\", s[64]);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["16 5", "1"]);
    }

    #[test]
    fn hot_path_has_no_per_step_clones() {
        // The pre-bytecode simulator deep-cloned every executed `Instr`
        // and the continuous-assign target. Both borrow now; this source
        // scan keeps the regression from sneaking back in either
        // execution mode. (The needles are assembled at runtime so the
        // scan does not match its own source.)
        let src = include_str!("sim.rs");
        for needle in [
            format!("instr{}", ".clone"),
            format!("lhs{}", ".clone"),
            format!("code{}", ".clone"),
        ] {
            assert!(
                src.matches(&needle).count() == 0,
                "per-step clone `{needle}` reintroduced in the simulator hot path"
            );
        }
    }

    #[test]
    fn reset_replays_identically() {
        // A reset simulator must be observationally identical to a fresh
        // one — including after runs that *errored* (scratch placeholders
        // abandoned mid-write) or hit limits. Sequential design with NBA
        // traffic, event waits and timed activity exercises every queue.
        let src = "module tb;\nreg clk = 0, rst;\nalways #5 clk = ~clk;\nreg [7:0] q;\nwire [7:0] y;\nassign y = q ^ 8'h0f;\nalways @(posedge clk) begin\nif (rst) q <= 8'd0; else q <= q + 8'd3;\nend\ninitial begin\nrst = 1;\n#12 rst = 0;\n#40 $display(\"q=%0d y=%0d t=%0d\", q, y, $time);\n$finish;\nend\nendmodule";
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, "tb").expect("elab");
        let compiled = std::sync::Arc::new(CompiledDesign::new(design));

        let reference = Simulator::from_compiled(&compiled).run().expect("fresh");
        let mut sim = Simulator::from_shared(Arc::clone(&compiled));
        assert!(sim.shares(&compiled));
        for round in 0..3 {
            let out = sim.run().expect("session run");
            assert_eq!(out.lines, reference.lines, "round {round}");
            assert_eq!(out.end_time, reference.end_time, "round {round}");
            assert_eq!(out.finished, reference.finished, "round {round}");
            sim.reset();
        }

        // Interleave an errored run (step budget) and confirm reset still
        // restores a clean replay afterwards.
        sim.set_limits(SimLimits {
            max_steps: 10,
            ..SimLimits::default()
        });
        assert!(sim.run().is_err(), "tiny budget must trip");
        sim.set_limits(SimLimits::default());
        sim.reset();
        let after_err = sim.run().expect("post-error run");
        assert_eq!(after_err.lines, reference.lines);
        assert_eq!(after_err.end_time, reference.end_time);
    }

    #[test]
    fn run_after_completion_without_reset_is_inert() {
        let src = "module tb;\ninitial begin $display(\"once\"); $finish; end\nendmodule";
        let file = crate::parser::parse(src).expect("parse");
        let design = crate::elaborate::elaborate(&file, "tb").expect("elab");
        let compiled = std::sync::Arc::new(CompiledDesign::new(design));
        let mut sim = Simulator::from_shared(Arc::clone(&compiled));
        assert_eq!(sim.run().expect("first").lines, vec!["once"]);
        // No reset: the finished flag stands, nothing re-executes.
        assert!(sim.run().expect("second").lines.is_empty());
        sim.reset();
        assert_eq!(sim.run().expect("third").lines, vec!["once"]);
    }

    #[test]
    fn simulator_run_keeps_old_api_shape() {
        let out = run(
            "module tb;\ninitial begin $display(\"ok\"); $finish; end\nendmodule",
            "tb",
        );
        assert_eq!(out.lines, vec!["ok"]);
    }
}
