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
//! Processes execute by walking their instruction lists ([`Instr`]) and
//! evaluating the elaborated `RExpr` trees with [`eval`], borrowing both
//! from the shared design: no step clones an instruction or an expression.
//! A [`Simulator`] co-owns its design and performs one run:
//! [`Simulator::run`] consumes it, so every run starts from power-on.
//!
//! # Display capture
//!
//! The displays' output is captured once, in print order, into the
//! [`SimOutput`]. A display the elaborator marked as a record display
//! (its literal format is a [`RecordFormat`]) is captured as its
//! evaluated argument values and renders nothing; every other display
//! renders its line through [`format_display`] and adds its length to
//! the `render_bytes` counter. [`SimOutput::lines`] is the text view of
//! the capture: it renders each record through [`format_display`] too,
//! so the lines equal what the displays print. [`SimOutput::printed`] is
//! the typed view, which hands the records' values to whoever judges
//! them. Capturing a record display is otherwise the display it
//! replaces: the same instruction, the same step, the same place in
//! every loop analysis.
//!
//! # Runaway loops
//!
//! A mutated `for` loop (`i = i - 1`, `i = i | 1`, …) never ends, and
//! would retire the whole step budget before failing. The simulator fails
//! such a run with the same [`SimError::EventBudgetExhausted`] as soon as
//! it is proven, at the loop's back-edge ([`Instr::LoopBack`], marked at
//! elaboration). Within one process activation nothing else runs —
//! continuous assigns, wake-ups and NBAs are only queued, time stands
//! still — so the activation is a deterministic function of the pc and
//! the values of the signals the process writes with blocking
//! assignments ([`ProcessDef::written`]). Two checks run at back-edges
//! once an activation has taken `LOOP_WATCH_GRACE` of them:
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
//! instructions retired before it fall. The detector's reference is the
//! same simulator with detection off, which runs such loops to the budget.
//!
//! A loop whose bound is merely large (a bit-flipped `i < 16392`) ends
//! within each activation, and past the design's width its iterations
//! change nothing but the loop variable. A third mechanism skips them:
//!
//! 3. **Fast-forward.** After a save of the state-cycle check at a
//!    counted loop's back-edge, the next back-edge visit reads the
//!    iteration in between, once both checks have declined. Say it ran
//!    with the loop variable `v` at `u` and retired k instructions. If
//!    - `v` was the only stored value to change (one value-changing
//!      commit, the step's), and nothing watches `v`;
//!    - the path ran no NBA, system task or other back-edge, and read `v`
//!      only in the head test, in the step and as the whole index of a
//!      bit or indexed-part select, as `v`, `v ± c` or `c − v` for a
//!      literal `c`;
//!    - each such index is out of range for `u` and for the n values
//!      after it that pass the head test before one fails (checked at both
//!      ends of each stretch, where the index is monotone unless it
//!      wraps, which is checked too); and
//!    - the remaining budget pays for n·k instructions,
//!
//!    then each of those n iterations takes the same path, retires k
//!    instructions and changes only `v`: an out-of-range select reads `x`
//!    or drops its write whatever its index, and nothing else the path
//!    reads changes. So the simulator charges n·k instructions, sets `v`
//!    to its exit value, and replays what the n back-edges would have
//!    done to the state-cycle check: their saves, O(log n) of them. No
//!    skipped compare could match, because the saved pair is the armed
//!    back-edge's or one saved among the skipped ones, and `v` takes no
//!    value twice before the loop exits. No skipped counted check could
//!    fire, because the loop exits within the budget.
//!
//! The fast-forward is exact: every trip lands on the same instruction,
//! and every other counter reads as if the iterations were walked,
//! `sim_instrs` included; only the walked work and the time fall, and
//! `sim_skipped_instrs` counts what was charged unwalked. Its reference is
//! the same simulator with the fast-forward off, which walks them.

use crate::ast::BinaryOp;
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
}

impl Default for SimLimits {
    fn default() -> Self {
        SimLimits {
            max_deltas: 4096,
            max_steps: 10_000_000,
            max_time: 1_000_000,
        }
    }
}

/// The result of a completed simulation: what its displays
/// (`$display`/`$fdisplay`/`$write`/`$fwrite`) printed, captured once in
/// print order, with two views of that capture.
///
/// A record display ([`RecordFormat`]) is captured as its evaluated
/// argument values, and every other display as its rendered line. The
/// text view [`SimOutput::lines`] renders each record through
/// [`format_display`], as the display itself would have; the typed view
/// [`SimOutput::printed`] hands out the values.
#[derive(Clone)]
pub struct SimOutput {
    captures: Vec<Capture>,
    /// Every record's values, one record after another.
    values: Vec<LogicVec>,
    /// The design the run executed, for its record formats.
    design: Arc<Design>,
    /// Final simulation time.
    pub end_time: u64,
    /// `true` when the run ended via `$finish` (vs. event exhaustion or
    /// hitting `max_time`).
    pub finished: bool,
}

/// One display's capture.
#[derive(Clone)]
enum Capture {
    /// A display rendered as text.
    Line(String),
    /// A record display: its format's index in [`Design::records`] and
    /// the position of its first value (the scenario) in
    /// [`SimOutput`]'s values.
    Record { format: usize, start: usize },
}

/// One display's output in [`SimOutput::printed`], the typed view.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Printed<'a> {
    /// The rendered line of a display that is not a record display.
    Line(&'a str),
    /// A record display's argument values, the scenario first, then one
    /// per field of its format.
    Record {
        /// The format's index in [`SimOutput::record_formats`].
        format: usize,
        /// The evaluated arguments, each at its self-determined width.
        values: &'a [LogicVec],
    },
}

impl SimOutput {
    /// The text view: one line per display, in print order, each record
    /// rendered through [`format_display`], so the lines are exactly the
    /// text the displays print.
    pub fn lines(&self) -> Vec<String> {
        self.printed()
            .map(|p| match p {
                Printed::Line(line) => line.to_string(),
                // A record format has no `%t`, so the time goes unread.
                Printed::Record { format, values } => {
                    format_display(&self.design.records[format].format, values, 0)
                }
            })
            .collect()
    }

    /// The typed view: the same displays in the same order, with each
    /// record display's values instead of its text.
    pub fn printed(&self) -> impl Iterator<Item = Printed<'_>> {
        self.captures.iter().map(|c| match c {
            Capture::Line(line) => Printed::Line(line),
            Capture::Record { format, start } => {
                let len = self.design.records[*format].names.len() + 1;
                Printed::Record {
                    format: *format,
                    values: &self.values[*start..*start + len],
                }
            }
        })
    }

    /// The record formats that [`Printed::Record`]'s `format` indexes.
    pub fn record_formats(&self) -> &[RecordFormat] {
        &self.design.records
    }
}

impl std::fmt::Debug for SimOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimOutput")
            .field("lines", &self.lines())
            .field("end_time", &self.end_time)
            .field("finished", &self.finished)
            .finish()
    }
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
    /// Set at a save made at a counted loop's back-edge and taken at the
    /// next back-edge visit, so the fast-forward reads the iteration in
    /// between.
    armed: Option<Armed>,
}

/// A counted loop's back-edge visit that the fast-forward measures the
/// next iteration from.
#[derive(Clone, Copy)]
struct Armed {
    /// The back-edge.
    pc: usize,
    /// [`SimState::steps`] at the visit.
    steps: u64,
    /// [`SimState::changes`] at the visit.
    changes: u64,
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
    Process { idx: usize, edge: Edge },
}

/// An event-driven simulator over an elaborated design.
///
/// # Examples
///
/// One-shot simulation of a [`Design`]:
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
/// let out = Simulator::new(design).run()?;
/// assert_eq!(out.lines(), vec!["y=3".to_string()]);
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    design: Arc<Design>,
    state: SimState,
}

impl Simulator {
    /// Creates a simulator with default [`SimLimits`].
    pub fn new(design: impl Into<Arc<Design>>) -> Self {
        Self::with_limits(design, SimLimits::default())
    }

    /// Creates a simulator with explicit limits. Construction allocates
    /// only the value table and the scheduler state; the design is shared.
    pub fn with_limits(design: impl Into<Arc<Design>>, limits: SimLimits) -> Self {
        let design = design.into();
        let state = SimState::new(&design, limits);
        Simulator { design, state }
    }

    /// Switches the runaway detector (on by default). With it off, a
    /// runaway loop runs to the step budget: the detector's reference in
    /// the differential tests, and nothing else.
    #[doc(hidden)]
    pub fn detect_runaways(mut self, on: bool) -> Self {
        self.state.detect_runaways = on;
        self
    }

    /// Switches the detector's fast-forward of counted loops' dead tails
    /// (on by default). With it off, those iterations are walked: the
    /// fast-forward's reference in the differential tests, and nothing
    /// else.
    #[doc(hidden)]
    pub fn fast_forward_loops(mut self, on: bool) -> Self {
        self.state.fast_forward = on;
        self
    }

    /// Runs to `$finish`, event exhaustion, or `max_time`: a simulator
    /// performs one whole simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::DeltaOverflow`] on combinational loops,
    /// [`SimError::EventBudgetExhausted`] when the instruction budget runs
    /// out (runaway zero-delay loops), or as soon as a loop provably
    /// would exhaust it (see the module docs).
    pub fn run(self) -> Result<SimOutput, SimError> {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Simulate);
        let Simulator { design, mut state } = self;
        let out = state.run(&design);
        // Flush the run's work volumes to the job's collector (inert
        // when none is armed).
        correctbench_obs::add(correctbench_obs::Counter::SimInstrs, state.steps);
        if matches!(out, Err(SimError::EventBudgetExhausted)) {
            // Wasted work: the run buys no output, early trip or not.
            correctbench_obs::add(correctbench_obs::Counter::SimBudgetTrips, 1);
            correctbench_obs::add(correctbench_obs::Counter::SimTripInstrs, state.steps);
        }
        correctbench_obs::add(correctbench_obs::Counter::SimSkippedInstrs, state.skipped);
        correctbench_obs::add(correctbench_obs::Counter::RenderBytes, state.render_bytes);
        correctbench_obs::add(correctbench_obs::Counter::SimEvents, state.events);
        correctbench_obs::add(correctbench_obs::Counter::NbaCommits, state.nba_commits);
        out.map(|()| SimOutput {
            captures: state.captures,
            values: state.record_values,
            design,
            end_time: state.time,
            finished: state.finished,
        })
    }
}

/// All mutable simulation state, split from the (shared, immutable)
/// design so the executor borrows instead of cloning: an instruction
/// reference from the design and mutable access to values and scheduler
/// queues coexist without any per-step `Instr`/`RExpr` clone.
struct SimState {
    values: Vec<LogicVec>,
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
    /// The displays' output so far, in print order.
    captures: Vec<Capture>,
    /// The values of the record displays in `captures`.
    record_values: Vec<LogicVec>,
    /// Bytes of display text rendered (measurement only).
    render_bytes: u64,
    finished: bool,
    limits: SimLimits,
    steps: u64,
    /// Activations processed (measurement only — never read by
    /// simulation logic).
    events: u64,
    /// NBA commits applied (measurement only).
    nba_commits: u64,
    /// Whether back-edges run the runaway checks.
    detect_runaways: bool,
    /// Whether the runaway detector fast-forwards dead loop tails.
    fast_forward: bool,
    /// Commits that changed a stored value: how the fast-forward knows
    /// that an iteration changed nothing but its loop variable.
    changes: u64,
    /// Instructions charged to `steps` without being walked (measurement
    /// only).
    skipped: u64,
    /// The runaway detector's saved back-edge pair: the pc and the values
    /// of the running process's blocking-written signals. Only read
    /// within the activation that saved it.
    saved_pc: usize,
    saved_values: Vec<LogicVec>,
}

impl SimState {
    fn new(design: &Design, limits: SimLimits) -> SimState {
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
            time: 0,
            procs,
            sig_watchers,
            active: VecDeque::new(),
            nba: Vec::new(),
            nba_scratch: Vec::new(),
            timed: BinaryHeap::new(),
            seq: 0,
            captures: Vec::new(),
            record_values: Vec::new(),
            render_bytes: 0,
            finished: false,
            limits,
            steps: 0,
            events: 0,
            nba_commits: 0,
            detect_runaways: true,
            fast_forward: true,
            changes: 0,
            skipped: 0,
            saved_pc: 0,
            saved_values: Vec::new(),
        }
    }

    fn run(&mut self, design: &Design) -> Result<(), SimError> {
        // Time zero: all continuous assignments evaluate once, every
        // process starts.
        for i in 0..design.assigns.len() {
            self.active.push_back(Activation::Assign(i));
        }
        for i in 0..design.processes.len() {
            self.active.push_back(Activation::Process(i));
        }
        self.settle(design)?;
        while !self.finished {
            let Some(std::cmp::Reverse((t, _, proc))) = self.timed.pop() else {
                break;
            };
            if t > self.limits.max_time {
                break;
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
            self.settle(design)?;
        }
        Ok(())
    }

    /// Runs the active/NBA delta loop at the current time.
    fn settle(&mut self, design: &Design) -> Result<(), SimError> {
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
                match act {
                    Activation::Assign(i) => self.eval_assign(design, i)?,
                    Activation::Process(i) => self.run_process(design, i)?,
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

    fn eval_assign(&mut self, design: &Design, i: usize) -> Result<(), SimError> {
        let a = &design.assigns[i];
        let lhs_width = a.lhs.width(design);
        let value =
            eval(&a.rhs, lhs_width.max(a.rhs.width), &self.values).resize(lhs_width, a.rhs.signed);
        self.write_lvalue(design, &a.lhs, value)
    }

    fn run_process(&mut self, design: &Design, i: usize) -> Result<(), SimError> {
        let mut watch = LoopWatch {
            visits: 0,
            power: 1,
            lam: 0,
            armed: None,
        };
        loop {
            self.steps += 1;
            if self.steps > self.limits.max_steps {
                return Err(SimError::EventBudgetExhausted);
            }
            let pc = self.procs[i].pc;
            let Some(instr) = design.processes[i].code.get(pc) else {
                self.procs[i].status = ProcStatus::Done;
                return Ok(());
            };
            match instr {
                Instr::Assign(lhs, rhs) => {
                    let lhs_width = lhs.width(design);
                    let v = eval(rhs, lhs_width.max(rhs.width), &self.values)
                        .resize(lhs_width, rhs.signed);
                    self.write_lvalue(design, lhs, v)?;
                    self.procs[i].pc = pc + 1;
                }
                Instr::NbAssign(lhs, rhs) => {
                    let lhs_width = lhs.width(design);
                    let v = eval(rhs, lhs_width.max(rhs.width), &self.values)
                        .resize(lhs_width, rhs.signed);
                    self.schedule_nba(design, lhs, v)?;
                    self.procs[i].pc = pc + 1;
                }
                Instr::JumpIfFalse(cond, target) => {
                    let t = eval(cond, cond.width, &self.values).truthy();
                    self.procs[i].pc = if t == Bit::One { pc + 1 } else { *target };
                }
                Instr::Jump(target) => {
                    self.procs[i].pc = *target;
                }
                Instr::LoopBack { head, guard } => {
                    self.procs[i].pc = *head;
                    watch.visits += 1;
                    if self.detect_runaways && watch.visits > LOOP_WATCH_GRACE {
                        let armed = watch.armed.take();
                        if self.loop_runs_away(design, i, pc, *head, guard.as_ref(), &mut watch) {
                            return Err(SimError::EventBudgetExhausted);
                        }
                        if let (Some(a), Some(g)) = (armed, guard) {
                            if a.pc == pc {
                                self.skip_dead_tail(design, i, *head, g, a, &mut watch);
                            }
                        }
                    }
                }
                Instr::CaseJump {
                    expr,
                    arms,
                    default,
                } => {
                    self.procs[i].pc = self.case_target(expr, arms, *default);
                }
                Instr::Delay(d) => {
                    self.procs[i].pc = pc + 1;
                    self.procs[i].status = ProcStatus::Waiting;
                    self.seq += 1;
                    // A wake-up beyond `u64::MAX` waits there instead of
                    // wrapping time backwards: past `max_time`, where the
                    // run ends.
                    self.timed.push(std::cmp::Reverse((
                        self.time.saturating_add(*d),
                        self.seq,
                        i,
                    )));
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
                Instr::SysCall { name, args, record } => {
                    if let Some(skip) = display_skip(name) {
                        self.print(&args[skip.min(args.len())..], *record);
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

    /// The target of a `case` dispatch: the first arm with a label that
    /// matches exactly, else `default`.
    fn case_target(&self, expr: &RExpr, arms: &[(Vec<RExpr>, usize)], default: usize) -> usize {
        let store = &self.values;
        let sel_w = arms
            .iter()
            .flat_map(|(ls, _)| ls.iter().map(|l| l.width))
            .fold(expr.width, usize::max);
        let sel = eval(expr, sel_w, store);
        for (labels, t) in arms {
            for l in labels {
                if sel.eq_case(&eval(l, sel_w, store)) == Bit::One {
                    return *t;
                }
            }
        }
        default
    }

    // ---- runaway detection (see the module docs) ----

    /// Runs the runaway checks at the back-edge `pc` of process `i`, just
    /// after it jumped to `head`: `true` when the activation provably
    /// exhausts the step budget.
    fn loop_runs_away(
        &mut self,
        design: &Design,
        i: usize,
        pc: usize,
        head: usize,
        guard: Option<&CountedGuard>,
        watch: &mut LoopWatch,
    ) -> bool {
        let process = &design.processes[i];
        // Nothing is saved before the first save doubles `power`.
        if watch.power > 1
            && self.saved_pc == pc
            && process
                .written
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
        self.saved_values.extend(
            process
                .written
                .iter()
                .map(|s| self.values[s.0 as usize].clone()),
        );
        watch.power *= 2;
        watch.lam = 0;
        // The counted check rides on the saves, at geometrically spaced
        // visits: the remaining budget shrinks, so a later try can succeed.
        let (Some(g), Instr::JumpIfFalse(cond, _)) = (guard, &process.code[head]) else {
            return false;
        };
        if self.fast_forward {
            watch.armed = Some(Armed {
                pc,
                steps: self.steps,
                changes: self.changes,
            });
        }
        self.counted_loop_outlives_budget(cond, g)
    }

    /// Whether the loop test `cond` of a counted loop holds for the next
    /// ⌊(max_steps − steps)/3⌋ + 1 head tests. Each iteration retires at
    /// least three instructions (head test, step, back-edge), so the loop
    /// cannot exit before the budget runs out. The test is a relation
    /// against a loop-invariant bound, so it holds throughout a
    /// [`Stretch`] when it holds at both ends.
    fn counted_loop_outlives_budget(&mut self, cond: &RExpr, g: &CountedGuard) -> bool {
        let slot = g.var.0 as usize;
        let Some(v) = self.values[slot].to_u64() else {
            return false;
        };
        let tests = (self.limits.max_steps.saturating_sub(self.steps) / 3).saturating_add(1);
        let mut stretches = Stretches::new(v, self.values[slot].width(), g.step, tests);
        for s in stretches.by_ref().take(MAX_STRETCHES) {
            if !self.cond_holds_at(cond, g.var, s.first)
                || !self.cond_holds_at(cond, g.var, s.last())
            {
                return false;
            }
        }
        stretches.left == 0
    }

    /// The fast-forward (see the module docs), at the back-edge
    /// `armed.pc` of the counted loop `g` whose head is `head`: when the
    /// iteration that just ended there provably repeats unchanged until
    /// the loop exits, and the budget pays for every repeat, charges them
    /// without walking them, moves the loop variable to its exit value
    /// and advances `watch` as the walked back-edges would have.
    fn skip_dead_tail(
        &mut self,
        design: &Design,
        i: usize,
        head: usize,
        g: &CountedGuard,
        armed: Armed,
        watch: &mut LoopWatch,
    ) {
        let slot = g.var.0 as usize;
        // The step changed the variable, nothing else changed, and no
        // write to the variable wakes anything.
        if g.step == 0 || self.changes != armed.changes + 1 || !self.sig_watchers[slot].is_empty() {
            return;
        }
        let Some(now) = self.values[slot].to_u64() else {
            return;
        };
        let width = self.values[slot].width();
        let mask = u64::MAX >> (64 - width);
        // The value the iteration ran with, and the value `p` steps on.
        let first = now.wrapping_sub(g.step) & mask;
        let at = |p: u64| first.wrapping_add(p.wrapping_mul(g.step)) & mask;
        let k = self.steps - armed.steps;
        let code = &design.processes[i].code;
        let Instr::JumpIfFalse(cond, _) = &code[head] else {
            return;
        };
        let mut indices = Vec::new();
        if self.dead_path(code, head, armed.pc, g.var, first, &mut indices) != Some(k) {
            return;
        }
        let Some(n) = self
            .dead_tail_exit(cond, g, first, k, &indices)
            .and_then(|exit| exit.checked_sub(1))
            .filter(|&n| n > 0)
        else {
            return;
        };
        // Walked, the n skipped back-edge visits (the j-th with the
        // variable at `at(j + 1)`) would only replay Brent's saves, and
        // those are O(log n).
        let written = &design.processes[i].written;
        let var_at = written
            .binary_search(&g.var)
            .expect("the step writes the loop variable");
        debug_assert!(
            self.saved_pc == armed.pc && self.saved_values[var_at].to_u64() == Some(first),
            "the saved pair is the armed visit's"
        );
        let mut done = 0;
        while watch.power - watch.lam <= n - done {
            done += watch.power - watch.lam;
            watch.power *= 2;
            watch.lam = 0;
            self.saved_values[var_at] = LogicVec::from_u64(width, at(done + 1));
        }
        watch.lam += n - done;
        watch.visits += n;
        self.values[slot] = LogicVec::from_u64(width, at(n + 1));
        self.steps += n * k;
        self.skipped += n * k;
    }

    /// Walks the path that the iteration from `head` to the back-edge
    /// `back` took, reading `var` as `first`, the value it ran with (the
    /// caller has shown that nothing else changed), and returns the
    /// instructions it retires. `None` unless the path runs forward to
    /// `back` with no NBA, system task or other back-edge, reading `var`
    /// only in the head test, in the step and as a select index of a
    /// shape that [`index_reads`] pushes onto `indices`.
    fn dead_path<'d>(
        &mut self,
        code: &'d [Instr],
        head: usize,
        back: usize,
        var: SignalId,
        first: u64,
        indices: &mut Vec<(&'d RExpr, SignalId)>,
    ) -> Option<u64> {
        let slot = var.0 as usize;
        let probe = LogicVec::from_u64(self.values[slot].width(), first);
        let actual = std::mem::replace(&mut self.values[slot], probe);
        let mut pc = head;
        let mut walked = 1;
        let path = loop {
            if pc == back {
                break Some(walked);
            }
            walked += 1;
            let next = match &code[pc] {
                Instr::JumpIfFalse(cond, target) => {
                    if pc != head && !reads_only_as_index(cond, var, indices) {
                        break None;
                    }
                    let t = eval(cond, cond.width, &self.values).truthy();
                    if t == Bit::One {
                        pc + 1
                    } else {
                        *target
                    }
                }
                Instr::Assign(lhs, rhs) => {
                    let is_step = pc == back - 1;
                    let reads_ok = is_step
                        || (lvalue_reads_only_as_index(lhs, var, indices)
                            && reads_only_as_index(rhs, var, indices));
                    if !reads_ok {
                        break None;
                    }
                    pc + 1
                }
                Instr::Jump(target) => *target,
                Instr::CaseJump {
                    expr,
                    arms,
                    default,
                } => {
                    let labels = arms.iter().flat_map(|(ls, _)| ls);
                    if !reads_only_as_index(expr, var, indices)
                        || !labels
                            .into_iter()
                            .all(|l| reads_only_as_index(l, var, indices))
                    {
                        break None;
                    }
                    self.case_target(expr, arms, *default)
                }
                _ => break None,
            };
            if next <= pc || next > back {
                break None;
            }
            pc = next;
        };
        self.values[slot] = actual;
        path
    }

    /// The orbit position (from `first` at 0) of the counted loop's first
    /// failing head test, when it is at most one past the iterations the
    /// remaining budget pays for at `k` instructions each, and every
    /// select index in `indices` is out of range from `first` up to it.
    /// Within a [`Stretch`] the test flips at most once, so a stretch
    /// whose test holds at its start and fails at its end is bisected.
    fn dead_tail_exit(
        &mut self,
        cond: &RExpr,
        g: &CountedGuard,
        first: u64,
        k: u64,
        indices: &[(&RExpr, SignalId)],
    ) -> Option<u64> {
        let width = self.values[g.var.0 as usize].width();
        let pay = (self.limits.max_steps - self.steps) / k;
        let mut seen = 0;
        for s in Stretches::new(first, width, g.step, pay.saturating_add(2)).take(MAX_STRETCHES) {
            let exit = if !self.cond_holds_at(cond, g.var, s.first) {
                Some(0)
            } else if self.cond_holds_at(cond, g.var, s.last()) {
                None
            } else {
                let (mut holds, mut fails) = (0, s.count - 1);
                while fails - holds > 1 {
                    let mid = holds + (fails - holds) / 2;
                    if self.cond_holds_at(cond, g.var, s.at(mid)) {
                        holds = mid;
                    } else {
                        fails = mid;
                    }
                }
                Some(fails)
            };
            // The stretch's values whose iterations run.
            let live = exit.unwrap_or(s.count);
            if live > 0 {
                let span = (live - 1) * s.delta;
                for (idx, sig) in indices {
                    if !self.index_out_of_range(idx, *sig, g.var, s.first, s.at(live - 1), span) {
                        return None;
                    }
                }
            }
            if let Some(p) = exit {
                return Some(seen + p);
            }
            seen += s.count;
        }
        None
    }

    /// Whether the select index `idx` into `sig` is at or past the
    /// signal's width, where a read is `x` and a write is dropped, for
    /// every value of `var` in a stretch from `first` to `last`, `span`
    /// apart. [`index_reads`] admits only `var` plus or minus a literal
    /// or a literal minus `var`, at a width at least `var`'s, so the
    /// index moves by exactly `span` between the ends unless it wraps.
    fn index_out_of_range(
        &mut self,
        idx: &RExpr,
        sig: SignalId,
        var: SignalId,
        first: u64,
        last: u64,
        span: u64,
    ) -> bool {
        if !(self.values[var.0 as usize].width()..=64).contains(&idx.width) {
            return false;
        }
        let width = self.values[sig.0 as usize].width() as u64;
        let ends = (
            self.eval_at(idx, var, first).to_u64(),
            self.eval_at(idx, var, last).to_u64(),
        );
        matches!(ends, (Some(a), Some(b)) if a >= width && b >= width && a.abs_diff(b) == span)
    }

    /// Whether the loop test `cond` holds with `var` read as `value`.
    fn cond_holds_at(&mut self, cond: &RExpr, var: SignalId, value: u64) -> bool {
        self.eval_at(cond, var, value).truthy() == Bit::One
    }

    /// Evaluates `e` self-determined with `var` read as `value`, leaving
    /// the signal as it was.
    fn eval_at(&mut self, e: &RExpr, var: SignalId, value: u64) -> LogicVec {
        let slot = var.0 as usize;
        let probe = LogicVec::from_u64(self.values[slot].width(), value);
        let actual = std::mem::replace(&mut self.values[slot], probe);
        let out = eval(e, e.width, &self.values);
        self.values[slot] = actual;
        out
    }

    /// Captures one display's output from its arguments after the file
    /// descriptor: a record display's argument values, or any other
    /// display's rendered line.
    fn print(&mut self, args: &[RSysArg], record: Option<usize>) {
        let capture = match record {
            Some(format) => {
                let store = &self.values;
                let start = self.record_values.len();
                // The elaborator marks a record display only when every
                // argument after its format is an expression.
                self.record_values
                    .extend(args[1..].iter().filter_map(|a| match a {
                        RSysArg::Expr(e) => Some(eval(e, e.width, store)),
                        RSysArg::Str(_) => None,
                    }));
                Capture::Record { format, start }
            }
            None => {
                let line = self.render(args);
                self.render_bytes += line.len() as u64;
                Capture::Line(line)
            }
        };
        self.captures.push(capture);
    }

    fn render(&self, args: &[RSysArg]) -> String {
        let store = &self.values;
        let (fmt, rest): (&str, &[RSysArg]) = match args.first() {
            Some(RSysArg::Str(s)) => (s, &args[1..]),
            _ => {
                // No format string: default-format every argument.
                let mut parts = Vec::new();
                for a in args {
                    if let RSysArg::Expr(e) = a {
                        parts.push(eval(e, e.width, store).to_decimal_string());
                    }
                }
                return parts.join(" ");
            }
        };
        let values: Vec<LogicVec> = rest
            .iter()
            .filter_map(|a| match a {
                RSysArg::Expr(e) => Some(eval(e, e.width, store)),
                RSysArg::Str(_) => None,
            })
            .collect();
        format_display(fmt, &values, self.time)
    }

    /// Immediately writes `value` through an lvalue (blocking semantics).
    /// Dynamic indices are evaluated lazily, in target order.
    fn write_lvalue(
        &mut self,
        design: &Design,
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
                let i = eval(idx, idx.width, &self.values);
                if let Some(i) = i.to_u64() {
                    let width = design.signal(*s).width;
                    if (i as usize) < width {
                        self.commit_bits(*s, i as usize, &value.slice(0, 1));
                    }
                }
                Ok(())
            }
            RLValue::IndexedPart(s, base, w) => {
                let b = eval(base, base.width, &self.values);
                if let Some(lo) = b.to_u64() {
                    self.commit_bits(*s, lo as usize, &value.slice(0, *w));
                }
                Ok(())
            }
            RLValue::Concat(parts) => {
                // MSB-first: the last part takes the low bits.
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = part.width(design);
                    let chunk = value.slice(lo, w);
                    self.write_lvalue(design, part, chunk)?;
                    lo += w;
                }
                Ok(())
            }
        }
    }

    /// Schedules an NBA update.
    fn schedule_nba(
        &mut self,
        design: &Design,
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
                let i = eval(idx, idx.width, &self.values);
                if let Some(i) = i.to_u64() {
                    let width = design.signal(*s).width;
                    if (i as usize) < width {
                        self.nba.push((*s, i as usize, value.slice(0, 1)));
                    }
                }
                Ok(())
            }
            RLValue::IndexedPart(s, base, w) => {
                let b = eval(base, base.width, &self.values);
                if let Some(lo) = b.to_u64() {
                    self.nba.push((*s, lo as usize, value.slice(0, *w)));
                }
                Ok(())
            }
            RLValue::Concat(parts) => {
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = part.width(design);
                    let chunk = value.slice(lo, w);
                    self.schedule_nba(design, part, chunk)?;
                    lo += w;
                }
                Ok(())
            }
        }
    }

    // ---- shared machinery ----

    /// Applies a system task's scheduler effect (display rendering is
    /// handled by the caller).
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
        self.changes += 1;

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
                        Edge::Any => true,
                        Edge::Pos => old_lsb != Bit::One && new_lsb == Bit::One,
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

/// The values `v, v + step, v + 2·step, …` (mod 2^width) that a counted
/// loop's variable walks, cut into [`Stretch`]es.
struct Stretches {
    /// First value of the next stretch.
    next: u64,
    /// Values not yet covered.
    left: u64,
    /// `2^width − 1`.
    mask: u64,
    /// Whether the walk counts up, by `delta`; else down.
    up: bool,
    delta: u64,
}

impl Stretches {
    /// The first `left` values of the walk from `v`, capped at its
    /// period: the walk repeats after 2^width / gcd(step, 2^width) values.
    fn new(v: u64, width: usize, step: u64, left: u64) -> Self {
        let width = width as u32;
        let mask = u64::MAX >> (64 - width);
        let up = step <= mask >> 1;
        let delta = if up { step } else { step.wrapping_neg() & mask };
        let period_log2 = width - step.trailing_zeros().min(width);
        let left = if period_log2 < 64 {
            left.min(1 << period_log2)
        } else {
            left
        };
        Stretches {
            next: v,
            left,
            mask,
            up,
            delta,
        }
    }
}

impl Iterator for Stretches {
    type Item = Stretch;

    fn next(&mut self) -> Option<Stretch> {
        if self.left == 0 {
            return None;
        }
        let v = self.next;
        let low = self.mask >> 1;
        let room = if self.up { (v | low) - v } else { v & low };
        let count = room
            .checked_div(self.delta)
            .map_or(self.left, |q| (q + 1).min(self.left));
        let s = Stretch {
            first: v,
            count,
            up: self.up,
            delta: self.delta,
        };
        self.left -= count;
        self.next = if self.up {
            s.last().wrapping_add(self.delta)
        } else {
            s.last().wrapping_sub(self.delta)
        } & self.mask;
        Some(s)
    }
}

/// A run of `count` values of a counted loop's walk, `delta` apart, that
/// stays within one half of the variable's range. There the variable's
/// value, read at any width and signedness, is monotone.
#[derive(Clone, Copy)]
struct Stretch {
    first: u64,
    count: u64,
    up: bool,
    delta: u64,
}

impl Stretch {
    /// The value `j` steps after `first` (`j < count`).
    fn at(&self, j: u64) -> u64 {
        if self.up {
            self.first + j * self.delta
        } else {
            self.first - j * self.delta
        }
    }

    fn last(&self) -> u64 {
        self.at(self.count - 1)
    }
}

/// Whether `e` reads `var` only as a whole select index that
/// [`index_reads`] admits, pushing each such index onto `indices`.
fn reads_only_as_index<'d>(
    e: &'d RExpr,
    var: SignalId,
    indices: &mut Vec<(&'d RExpr, SignalId)>,
) -> bool {
    match &e.kind {
        RExprKind::Lit(_) => true,
        RExprKind::Sig(s) | RExprKind::Part(s, ..) => *s != var,
        RExprKind::Bit(s, idx) | RExprKind::IndexedPart(s, idx, _) => {
            *s != var && index_reads(*s, idx, var, indices)
        }
        RExprKind::Unary(_, a) | RExprKind::Repl(_, a) => reads_only_as_index(a, var, indices),
        RExprKind::Binary(_, a, b) => {
            reads_only_as_index(a, var, indices) && reads_only_as_index(b, var, indices)
        }
        RExprKind::Ternary(c, a, b) => [c, a, b]
            .into_iter()
            .all(|e| reads_only_as_index(e, var, indices)),
        RExprKind::Concat(es) => es.iter().all(|e| reads_only_as_index(e, var, indices)),
    }
}

/// [`reads_only_as_index`] for an assignment target.
fn lvalue_reads_only_as_index<'d>(
    lv: &'d RLValue,
    var: SignalId,
    indices: &mut Vec<(&'d RExpr, SignalId)>,
) -> bool {
    match lv {
        RLValue::Sig(_) | RLValue::Part(..) => true,
        RLValue::Bit(s, idx) | RLValue::IndexedPart(s, idx, _) => {
            index_reads(*s, idx, var, indices)
        }
        RLValue::Concat(parts) => parts
            .iter()
            .all(|p| lvalue_reads_only_as_index(p, var, indices)),
    }
}

/// Whether the index `idx` of a select into `sig` reads `var` only in an
/// admitted shape. An index of the shape `var`, `var ± c`, `c + var` or
/// `c − var`, for a literal `c`, is admitted whole and pushed onto
/// `indices`; any other index must read `var` only as admitted indices.
fn index_reads<'d>(
    sig: SignalId,
    idx: &'d RExpr,
    var: SignalId,
    indices: &mut Vec<(&'d RExpr, SignalId)>,
) -> bool {
    let is_var = |e: &RExpr| matches!(e.kind, RExprKind::Sig(s) if s == var);
    let is_lit = |e: &RExpr| matches!(e.kind, RExprKind::Lit(_));
    let offset = match &idx.kind {
        RExprKind::Sig(s) => *s == var,
        RExprKind::Binary(BinaryOp::Add | BinaryOp::Sub, a, b) => {
            (is_var(a) && is_lit(b)) || (is_lit(a) && is_var(b))
        }
        _ => false,
    };
    if offset {
        indices.push((idx, sig));
        true
    } else {
        reads_only_as_index(idx, var, indices)
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
    Ok(Simulator::new(design).run()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, top: &str) -> SimOutput {
        run_source(src, top).expect("simulation ok")
    }

    #[test]
    fn combinational_assign() {
        let out = run(
            "module tb;\nreg [3:0] a, b;\nwire [3:0] y;\nassign y = a + b;\ninitial begin\na = 4'd3; b = 4'd4;\n#1 $display(\"y=%0d\", y);\na = 4'd9;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["y=7", "y=13"]);
        assert!(out.finished);
    }

    #[test]
    fn clocked_register() {
        let out = run(
            "module tb;\nreg clk, d;\nreg q;\nalways @(posedge clk) q <= d;\ninitial begin\nclk = 0; d = 1;\n#1 $display(\"q=%b\", q);\n#4 clk = 1;\n#1 $display(\"q=%b\", q);\nd = 0;\n#4 clk = 0;\n#5 clk = 1;\n#1 $display(\"q=%b\", q);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["q=x", "q=1", "q=0"]);
    }

    #[test]
    fn nonblocking_swap() {
        let out = run(
            "module tb;\nreg clk;\nreg [3:0] a, b;\nalways @(posedge clk) begin a <= b; b <= a; end\ninitial begin\nclk = 0; a = 4'd1; b = 4'd2;\n#5 clk = 1;\n#1 $display(\"a=%0d b=%0d\", a, b);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["a=2 b=1"]);
    }

    #[test]
    fn clock_generator_and_counter() {
        let out = run(
            "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [7:0] n = 0;\nalways @(posedge clk) n <= n + 8'd1;\ninitial begin\n#52 $display(\"n=%0d\", n);\n$finish;\nend\nendmodule",
            "tb",
        );
        // Posedges at 5,15,25,35,45 -> n == 5 at t=52.
        assert_eq!(out.lines(), vec!["n=5"]);
    }

    #[test]
    fn dut_instance() {
        let out = run(
            "module add1(input [3:0] a, output [3:0] y);\nassign y = a + 4'd1;\nendmodule\nmodule tb;\nreg [3:0] a;\nwire [3:0] y;\nadd1 dut(.a(a), .y(y));\ninitial begin\na = 4'd7;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["y=8"]);
    }

    #[test]
    fn always_star_mux() {
        let out = run(
            "module tb;\nreg s;\nreg [3:0] a, b;\nreg [3:0] y;\nalways @(*) begin if (s) y = a; else y = b; end\ninitial begin\na = 4'd10; b = 4'd5; s = 0;\n#1 $display(\"y=%0d\", y);\ns = 1;\n#1 $display(\"y=%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["y=5", "y=10"]);
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
        // A NAND ring: a known `en = 0` lifts `a` out of x, and `en = 1`
        // at time 1 makes it oscillate.
        let r2 = run_source(
            "module tb;\nreg en;\nwire a;\nassign a = ~(a & en);\ninitial begin en = 0; #1 en = 1; end\ninitial #2 $finish;\nendmodule",
            "tb",
        );
        match r2 {
            Err(crate::error::VerilogError::Sim(SimError::DeltaOverflow { time: 1 })) => {}
            other => panic!("expected delta overflow at time 1, got {other:?}"),
        }
    }

    #[test]
    fn zero_delay_runaway_caught_with_detection_on_and_off() {
        let src = "module tb;\nreg x;\ninitial x = 0;\nalways #0 x = ~x;\nendmodule";
        // #0 delays still advance the queue at the same time; the step
        // budget eventually trips.
        let design = design_of(src);
        for detect in [true, false] {
            let (r, steps) = run_counted(&design, detect, 10_000);
            assert!(matches!(r, Err(SimError::EventBudgetExhausted)), "{detect}");
            assert_eq!(steps, 10_001, "a timed loop runs to the budget: {detect}");
        }
    }

    /// How a runaway-detector case must end, with detection on and off.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ends {
        /// Budget exhausted, the detector retiring a small fraction of it.
        EarlyTrip,
        /// Budget exhausted with the whole budget retired either way.
        FullBudget,
        /// `$finish` within the budget.
        Finishes,
    }

    fn design_of(src: &str) -> Arc<Design> {
        let file = crate::parser::parse(src).expect("parse");
        Arc::new(crate::elaborate::elaborate(&file, "tb").expect("elab"))
    }

    /// Runs `design` to completion with the runaway detector on or off,
    /// under an armed collector; returns the result and the instructions
    /// it retired.
    fn run_counted(
        design: &Arc<Design>,
        detect: bool,
        max_steps: u64,
    ) -> (Result<SimOutput, SimError>, u64) {
        let (out, instrs, _) = run_switched(design, detect, true, max_steps);
        (out, instrs)
    }

    /// [`run_counted`] with the fast-forward switched too; also returns
    /// the instructions charged without being walked.
    fn run_switched(
        design: &Arc<Design>,
        detect: bool,
        fast_forward: bool,
        max_steps: u64,
    ) -> (Result<SimOutput, SimError>, u64, u64) {
        use correctbench_obs::Counter;
        let limits = SimLimits {
            max_steps,
            ..SimLimits::default()
        };
        let _obs = correctbench_obs::ObsStack::enabled().install();
        let out = Simulator::with_limits(Arc::clone(design), limits)
            .detect_runaways(detect)
            .fast_forward_loops(fast_forward)
            .run();
        let obs = correctbench_obs::take_job().expect("collector armed");
        let skipped = obs.counter(Counter::SimSkippedInstrs);
        if !(detect && fast_forward) {
            assert_eq!(skipped, 0, "only the fast-forward skips");
        }
        (out, obs.counter(Counter::SimInstrs), skipped)
    }

    /// Asserts two runs of one design ended alike.
    fn assert_same_end(
        a: &Result<SimOutput, SimError>,
        b: &Result<SimOutput, SimError>,
        what: &str,
    ) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.lines(), b.lines(), "{what}: lines");
                assert_eq!((a.end_time, a.finished), (b.end_time, b.finished), "{what}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}: errors"),
            _ => panic!("{what}: the runs ended differently: {a:?} vs {b:?}"),
        }
    }

    /// Per zero-time back-edge of the design, whether it carries a
    /// counted-loop guard.
    fn loop_guards(design: &Design) -> Vec<bool> {
        design
            .processes
            .iter()
            .flat_map(|p| p.code.iter())
            .filter_map(|i| match i {
                Instr::LoopBack { guard, .. } => Some(guard.is_some()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn runaway_loop_boundaries_with_detection_on_and_off() {
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
            let design = design_of(&src);
            assert_eq!(loop_guards(&design), guards, "{name}: classification");
            let (on, on_steps) = run_counted(&design, true, BUDGET);
            let (off, off_steps) = run_counted(&design, false, BUDGET);
            assert_same_end(&on, &off, name);
            let (walked, walked_steps, _) = run_switched(&design, true, false, BUDGET);
            assert_same_end(&on, &walked, name);
            assert_eq!(
                on_steps, walked_steps,
                "{name}: the fast-forward charges exactly"
            );
            match ends {
                EarlyTrip => {
                    assert!(matches!(off, Err(SimError::EventBudgetExhausted)), "{name}");
                    assert_eq!(
                        off_steps,
                        BUDGET + 1,
                        "{name}: reference retires the budget"
                    );
                    assert!(on_steps < BUDGET / 50, "{name}: tripped after {on_steps}");
                }
                FullBudget => {
                    assert!(matches!(off, Err(SimError::EventBudgetExhausted)), "{name}");
                    assert_eq!((on_steps, off_steps), (BUDGET + 1, BUDGET + 1), "{name}");
                }
                Finishes => {
                    let out = on.expect("finishes");
                    assert!(out.finished, "{name}");
                    assert_eq!(on_steps, off_steps, "{name}: same work");
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
        // the detector proves it early.
        // The fast-forward skips the loop's empty tail whenever the budget
        // pays for all of it, and charges it exactly.
        let design = design_of(
            "module tb;\ninteger i;\ninitial begin\nfor (i = 0; i < 1000; i = i + 1) ;\n$finish;\nend\nendmodule",
        );
        assert_eq!(loop_guards(&design), vec![true]);
        let (out, needed) = run_counted(&design, false, 1_000_000);
        assert!(out.expect("finite loop").finished);
        for (detect, fast_forward) in [(true, true), (true, false), (false, false)] {
            let what = format!("detect {detect}, fast-forward {fast_forward}");
            let (out, steps, skipped) = run_switched(&design, detect, fast_forward, needed);
            assert!(out.expect("exact budget completes").finished, "{what}");
            assert_eq!(steps, needed, "{what}");
            assert_eq!(skipped > 0, fast_forward, "{what}: skipped {skipped}");
            for short in 1..=3 {
                let budget = needed - short;
                let (out, steps, skipped) = run_switched(&design, detect, fast_forward, budget);
                assert!(
                    matches!(out, Err(SimError::EventBudgetExhausted)),
                    "{what} {budget}: {out:?}"
                );
                if detect && short == 3 {
                    assert!(steps < budget / 10, "{what} {budget}: tripped at {steps}");
                    assert_eq!(skipped, 0, "{what} {budget}: the counted check trips first");
                } else {
                    assert_eq!(steps, budget + 1, "{what} {budget}: ran to the budget");
                    assert_eq!(
                        skipped > 0,
                        fast_forward,
                        "{what} {budget}: skipped {skipped}"
                    );
                }
            }
        }
    }

    #[test]
    fn dead_loop_tails_fast_forward_exactly_or_not_at_all() {
        const BUDGET: u64 = 1_000_000;
        let tb = |decls: &str, body: &str| {
            format!(
                "module tb;\nreg [7:0] d;\nreg [15:0] r;\nreg [2:0] y;\ninteger i;\n{decls}\ninitial begin\nd = 8'h24;\nr = 16'h0;\ny = 3'd0;\n{body}\n$display(\"y=%0d r=%h\", y, r);\n$finish;\nend\nendmodule"
            )
        };
        // (name, source, whether the fast-forward skips)
        let cases: Vec<(&str, String, bool)> = vec![
            (
                "bit-flipped bound past a bit select",
                tb(
                    "",
                    "for (i = 0; i < 16392; i = i + 1) if (d[i]) y = i[2:0];",
                ),
                true,
            ),
            (
                "reversal writes and reads out of range",
                tb("", "for (i = 0; i < 32784; i = i + 1) r[i] = d[15 - i];"),
                true,
            ),
            (
                "step of three",
                tb("", "for (i = 0; i < 8200; i = i + 3) if (!d[i]) y = 3'd7;"),
                true,
            ),
            (
                "indexed part select and an offset index",
                tb(
                    "",
                    "for (i = 0; i < 9000; i = i + 1) r[i +: 2] = {d[i + 1], d[i - 1]};",
                ),
                true,
            ),
            (
                "count-down that leaves the range",
                tb("", "for (i = 9000; i > 3; i = i - 1) if (d[i]) y = 3'd1;"),
                false,
            ),
            (
                "a $display in the body",
                tb(
                    "",
                    "for (i = 0; i < 300; i = i + 1) $display(\"%b\", d[i]);",
                ),
                false,
            ),
            (
                "an NBA in the body",
                tb("reg q;", "for (i = 0; i < 9000; i = i + 1) q <= d[i];"),
                false,
            ),
            (
                "an in-range read of the variable on the taken path",
                tb(
                    "",
                    "for (i = 0; i < 9000; i = i + 1) if (d[i - 8992]) y = 3'd1;",
                ),
                false,
            ),
            (
                "an index that wraps through the range between a stretch's ends",
                tb(
                    "",
                    "for (i = 0; i < 9100; i = i + 1) if (d[i - 8992]) y = 3'd1;",
                ),
                false,
            ),
            (
                "a read of the variable outside an index",
                tb(
                    "",
                    "for (i = 0; i < 9000; i = i + 1) if (d[i] ^ i[0]) y = 3'd1;",
                ),
                false,
            ),
            (
                "a comparison with the variable",
                tb(
                    "",
                    "for (i = 0; i < 16392; i = i + 1) if (i == 12000) y = 3'd5;",
                ),
                false,
            ),
            (
                // The first armed iteration runs with `i == 65` (after the
                // 64-visit grace) and reads `d[7]`, in range; the fast-forward
                // declines it and fires at the next save.
                "the armed iteration reads in range, later ones out of range",
                tb(
                    "",
                    "y = 3'd1;\nfor (i = 0; i < 9000; i = i + 1) if (!d[i - 58]) y = 3'd1;",
                ),
                true,
            ),
            (
                "a continuous assign reads the variable",
                tb(
                    "wire [31:0] w;\nassign w = i;",
                    "for (i = 0; i < 9000; i = i + 1) if (d[i]) y = 3'd1;",
                ),
                false,
            ),
            (
                "the body changes another signal",
                tb(
                    "reg [31:0] n;",
                    "n = 0;\nfor (i = 0; i < 9000; i = i + 1) if (d[i]) n = 0; else n = n + 1;",
                ),
                false,
            ),
            (
                "the body changes and restores another signal",
                tb(
                    "reg t;",
                    "for (i = 0; i < 9000; i = i + 1) begin t = d[i]; t = 0; end",
                ),
                false,
            ),
        ];
        for (name, src, skips) in cases {
            let design = design_of(&src);
            let (on, on_steps, skipped) = run_switched(&design, true, true, BUDGET);
            let (walked, walked_steps, _) = run_switched(&design, true, false, BUDGET);
            let (off, _, _) = run_switched(&design, false, false, BUDGET);
            assert!(on.as_ref().is_ok_and(|o| o.finished), "{name}: {on:?}");
            assert_same_end(&on, &walked, name);
            assert_same_end(&on, &off, name);
            assert_eq!(on_steps, walked_steps, "{name}: the charge is exact");
            assert_eq!(
                skipped > 0,
                skips,
                "{name}: skipped {skipped} of {on_steps}"
            );
            if skips {
                assert!(
                    skipped > on_steps / 2,
                    "{name}: skipped {skipped} of {on_steps}"
                );
            }
        }
    }

    #[test]
    fn fast_forwarded_inner_loop_then_outer_runaway_trips_on_the_same_instruction() {
        // The outer loop is a state cycle (`i | 1` from 1). The inner
        // loop's tail past `d`'s width is dead, so the fast-forward skips
        // it in every pass that an armed back-edge reaches. The state-cycle
        // check saves a pair inside the first pass's skipped tail, and the
        // second pass repeats it: the cycle must be found on the same
        // instruction as when every iteration is walked.
        const BUDGET: u64 = 1_000_000;
        let design = design_of(
            "module tb;\nreg [7:0] d;\nreg [2:0] y;\ninteger i, j;\ninitial begin\nd = 8'h05;\ny = 3'd0;\nfor (i = 1; i < 8; i = i | 1)\nfor (j = 0; j < 20000; j = j + 1) if (d[j]) y = j[2:0];\n$finish;\nend\nendmodule",
        );
        assert_eq!(loop_guards(&design), vec![true, false]);
        let (on, on_steps, skipped) = run_switched(&design, true, true, BUDGET);
        let (walked, walked_steps, _) = run_switched(&design, true, false, BUDGET);
        assert!(matches!(on, Err(SimError::EventBudgetExhausted)), "{on:?}");
        assert_same_end(&on, &walked, "nest");
        assert_eq!(on_steps, walked_steps, "trips on the same instruction");
        assert!(on_steps < BUDGET / 2, "caught early: {on_steps}");
        assert!(skipped > 0, "the inner tail was skipped");
    }

    #[test]
    fn huge_delay_saturates_instead_of_wrapping_time() {
        // `5 + (2^64 - 1)` would wrap to 4 and run time backwards; the
        // wake-up lands past `max_time` instead, where the run ends.
        let out = run(
            "module tb;\nreg a;\ninitial begin\na = 0;\n#5 a = 1;\n#18446744073709551615 a = 0;\n$display(\"t=%0t\");\n$finish;\nend\nendmodule",
            "tb",
        );
        assert!(out.lines().is_empty(), "{:?}", out.lines());
        assert!(!out.finished);
        assert_eq!(out.end_time, 5);
    }

    #[test]
    fn for_loop_popcount() {
        let out = run(
            "module tb;\nreg [7:0] v;\nreg [3:0] n;\ninteger i;\ninitial begin\nv = 8'b1011_0110;\nn = 0;\nfor (i = 0; i < 8; i = i + 1) if (v[i]) n = n + 1;\n$display(\"n=%0d\", n);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["n=5"]);
    }

    #[test]
    fn case_statement() {
        let out = run(
            "module tb;\nreg [1:0] s;\nreg [3:0] y;\nalways @(*) begin\ncase (s)\n2'd0: y = 4'd1;\n2'd1: y = 4'd2;\ndefault: y = 4'd15;\nendcase\nend\ninitial begin\ns = 2'd0; #1 $display(\"%0d\", y);\ns = 2'd1; #1 $display(\"%0d\", y);\ns = 2'd3; #1 $display(\"%0d\", y);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["1", "2", "15"]);
    }

    #[test]
    fn part_select_write() {
        let out = run(
            "module tb;\nreg [7:0] v;\ninitial begin\nv = 8'h00;\nv[3:0] = 4'hf;\nv[6] = 1'b1;\n$display(\"%h\", v);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["4f"]);
    }

    #[test]
    fn concat_lvalue() {
        let out = run(
            "module tb;\nreg [3:0] hi, lo;\ninitial begin\n{hi, lo} = 8'hA5;\n$display(\"%h %h\", hi, lo);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["a 5"]);
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
        let out = Simulator::with_limits(design, limits).run().expect("run");
        assert!(!out.finished);
        assert!(out.end_time <= 105);
    }

    #[test]
    fn sequential_sr_with_sync_reset() {
        let out = run(
            "module tb;\nreg clk = 0, rst;\nalways #5 clk = ~clk;\nreg [3:0] q;\nalways @(posedge clk) begin\nif (rst) q <= 4'd0; else q <= q + 4'd1;\nend\ninitial begin\nrst = 1;\n#12 rst = 0;\n#40 $display(\"q=%0d\", q);\n$finish;\nend\nendmodule",
            "tb",
        );
        // Posedges: 5 (rst), 15,25,35,45 counting -> q=4 at t=52.
        assert_eq!(out.lines(), vec!["q=4"]);
    }

    #[test]
    fn wide_arithmetic_and_selects() {
        let out = run(
            "module tb;\nreg [99:0] a, b;\nwire [99:0] s;\nassign s = a + b;\ninitial begin\na = 100'd1;\nb = 100'd0;\na = a << 64;\nb = 100'd5;\n#1 $display(\"%0d %0d\", s[99:60], s[7:0]);\n$display(\"%b\", s[64]);\n$finish;\nend\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["16 5", "1"]);
    }

    #[test]
    fn hot_path_has_no_per_step_clones() {
        // The simulator once deep-cloned every executed `Instr` and the
        // continuous-assign target. Both borrow now; this source scan
        // keeps the regression from sneaking back in. (The needles are
        // assembled at runtime so the scan does not match its own
        // source.)
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
    fn record_displays_are_captured_as_values_in_print_order() {
        use correctbench_obs::{Counter, ObsStack};
        // Record displays in all four forms, interleaved with a text
        // line that is itself a well-formed record line and with another
        // display.
        let src = "module tb;\nreg [3:0] a;\ninteger file;\ninitial begin\nfile = 1; a = 4'd3;\n\
                   $fdisplay(file, \"scenario: %0d, a = %0d\", 1, a);\n\
                   $display(\"scenario: 2, a = 7\");\n\
                   a = 4'b1x0z;\n$write(\"scenario: %0d, a = %0d\", 3, a);\n\
                   $display(\"a=%b\", a);\n\
                   $fwrite(file, \"scenario: %0d\", 4);\n\
                   $display(\"scenario: %0d, a = %0d\", 5, 4'bz);\n$finish;\nend\nendmodule";
        let _obs = ObsStack::enabled().install();
        let out = run(src, "tb");
        let rendered = correctbench_obs::take_job()
            .expect("collector armed")
            .counter(Counter::RenderBytes);
        assert_eq!(
            out.lines(),
            vec![
                "scenario: 1, a = 3",
                "scenario: 2, a = 7",
                "scenario: 3, a = X",
                "a=1x0z",
                "scenario: 4",
                "scenario: 5, a = z",
            ]
        );
        let printed: Vec<Printed> = out.printed().collect();
        assert_eq!(printed.len(), 6);
        let record = |i: usize| match printed[i] {
            Printed::Record { format, values } => (format, values.to_vec()),
            Printed::Line(line) => panic!("display {i} was rendered: {line}"),
        };
        let known = |w, v| LogicVec::from_u64(w, v);
        assert_eq!(record(0), (0, vec![known(32, 1), known(4, 3)]));
        assert_eq!(printed[1], Printed::Line("scenario: 2, a = 7"));
        assert_eq!(record(2).1[1].to_binary_string(), "1x0z");
        assert_eq!(printed[3], Printed::Line("a=1x0z"));
        assert_eq!(record(4), (1, vec![known(32, 4)]));
        assert_eq!(record(5).1[1], LogicVec::filled_z(4));
        let names: Vec<&[String]> = out.record_formats().iter().map(|f| &f.names[..]).collect();
        assert_eq!(names, [&["a".to_string()][..], &[]]);
        // Only the two text lines were rendered.
        assert_eq!(
            rendered,
            ("scenario: 2, a = 7".len() + "a=1x0z".len()) as u64
        );
    }

    #[test]
    fn simulator_run_keeps_old_api_shape() {
        let out = run(
            "module tb;\ninitial begin $display(\"ok\"); $finish; end\nendmodule",
            "tb",
        );
        assert_eq!(out.lines(), vec!["ok"]);
    }
}
