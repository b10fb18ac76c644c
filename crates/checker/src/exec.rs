//! Compile-once execution of [`CheckerProgram`]s.
//!
//! The interpreter in [`crate::eval`] re-resolves every step: it builds a
//! fresh `Vec` of node values, looks inputs up in a `HashMap<String,
//! LogicVec>` by name, reads register state through another hash map, and
//! returns outputs as a freshly allocated name-keyed map. None of that
//! resolution depends on the step — the program is fixed — so a
//! [`JudgeSession`] does it once, compiling the program to register
//! bytecode:
//!
//! * every node gets a **slot** in a preallocated value file at its
//!   compiled width (registers live *in* their slots — state is a region
//!   of the file, not a side map);
//! * inputs are bound **positionally**: [`JudgeSession::step`] takes a
//!   `&[LogicVec]` in [`CheckerProgram::inputs`] order, no name lookups;
//! * constants are pre-extended into a literal pool;
//! * outputs are read back by slot index via [`JudgeSession::output`].
//!
//! The interpreter [`crate::step`] remains the semantic reference: each
//! compiled op mirrors one `eval_all` arm and calls the same [`LogicVec`]
//! primitives (the binary/unary kernels are literally shared), and the
//! differential suite `crates/checker/tests/exec_diff.rs` pins verdict
//! equality over golden checkers, IR mutants and random x/z input
//! streams.

use crate::eval::{eval_bin, eval_un, CheckerRunError};
use crate::ir::*;
use correctbench_verilog::logic::{Bit, LogicVec};

/// One compiled node: operands are slot indices of strictly earlier
/// nodes, so a single forward pass over the slot file evaluates the
/// combinational part — the checker analog of the simulator's register
/// bytecode.
#[derive(Clone, Debug)]
enum COp {
    /// Copy input `idx` (positional) into the slot, zero-extended.
    Input { idx: u32 },
    /// State node: the slot *is* the register — nothing to evaluate.
    Reg,
    /// Copy a pre-extended literal from the pool.
    Const { lit: u32 },
    /// Binary op; non-comparisons resize both operands first.
    Bin {
        op: IrBinOp,
        a: u32,
        b: u32,
        signed: bool,
    },
    /// Unary op.
    Un { op: IrUnOp, a: u32 },
    /// 2:1 mux with Verilog x-merge on unknown select.
    Mux { sel: u32, t: u32, f: u32 },
    /// Static slice.
    Slice { a: u32, lo: u32, width: u32 },
    /// Dynamic-low slice.
    DynSlice { a: u32, lo: u32, width: u32 },
    /// Dynamic bit/part overwrite.
    DynInsert { a: u32, lo: u32, b: u32, width: u32 },
    /// Concatenation, MSB first.
    Concat(Vec<u32>),
    /// Replication.
    Repl { a: u32, n: u32 },
    /// Resize with optional sign extension.
    Ext { a: u32, signed: bool },
}

/// The operand [`NodeId`]s a node reads.
fn operands(node: &Node) -> impl Iterator<Item = NodeId> + '_ {
    let fixed: [Option<NodeId>; 3] = match node {
        Node::Input { .. } | Node::Reg { .. } | Node::Const(_) => [None, None, None],
        Node::Bin { a, b, .. } => [Some(*a), Some(*b), None],
        Node::Un { a, .. } | Node::Slice { a, .. } | Node::Repl { a, .. } | Node::Ext { a, .. } => {
            [Some(*a), None, None]
        }
        Node::Mux { sel, t, f } => [Some(*sel), Some(*t), Some(*f)],
        Node::DynSlice { a, lo, .. } => [Some(*a), Some(*lo), None],
        Node::DynInsert { a, lo, b, .. } => [Some(*a), Some(*lo), Some(*b)],
        Node::Concat(_) => [None, None, None],
    };
    let parts = match node {
        Node::Concat(parts) => parts.as_slice(),
        _ => &[],
    };
    fixed.into_iter().flatten().chain(parts.iter().copied())
}

/// A clocked update in slot terms: `reg` takes `next`'s value (through
/// a width-`w` zero-extension) when the edge commits.
#[derive(Clone, Copy, Debug)]
struct CCommit {
    reg: u32,
    next: u32,
}

/// A [`CheckerProgram`] flattened for repeated execution. Build once via
/// [`CompiledChecker::compile`], run via [`JudgeSession`].
#[derive(Clone, Debug)]
pub struct CompiledChecker {
    ops: Vec<COp>,
    /// Result width of every slot.
    widths: Vec<usize>,
    /// Power-on slot contents (x for combinational slots — overwritten
    /// before first read — register `init`s at register width).
    init: Vec<LogicVec>,
    /// Pre-extended constants.
    lits: Vec<LogicVec>,
    commits: Vec<CCommit>,
    /// The post-edge re-evaluation set: output-cone nodes whose value
    /// depends on a register, in topological order. Every other slot
    /// already holds its final value after pass 1 (non-state nodes) or
    /// the commit (registers) — on register-out designs like a shift
    /// register this set is *empty* and a step is one pass plus the
    /// commit, where the interpreter always re-evaluates everything.
    pass2: Vec<u32>,
    /// `(port name, slot)` in program output order.
    outputs: Vec<(String, u32)>,
    /// Input port order the positional step expects.
    inputs: Vec<String>,
}

impl CompiledChecker {
    /// Flattens `prog`. The one-time resolution work: input names to
    /// positions, constants to pool entries, state to slots.
    ///
    /// # Errors
    ///
    /// [`CheckerRunError`] when the program is malformed in a way the
    /// interpreter would also reject at runtime: an input node naming a
    /// port absent from [`CheckerProgram::inputs`] (the interpreter's
    /// "missing input"), or an operand referencing a later node (the
    /// interpreter's out-of-bounds).
    pub fn compile(prog: &CheckerProgram) -> Result<CompiledChecker, CheckerRunError> {
        let n = prog.nodes.len();
        let before = |id: NodeId, i: usize| -> Result<u32, CheckerRunError> {
            if (id.0 as usize) < i {
                Ok(id.0)
            } else {
                Err(CheckerRunError {
                    message: format!("node {i} references later node {}", id.0),
                })
            }
        };
        let mut ops = Vec::with_capacity(n);
        let mut widths = Vec::with_capacity(n);
        let mut init = Vec::with_capacity(n);
        let mut lits: Vec<LogicVec> = Vec::new();
        for (i, def) in prog.nodes.iter().enumerate() {
            let w = def.width;
            let op = match &def.node {
                Node::Input { name } => {
                    let idx = prog.inputs.iter().position(|p| p == name).ok_or_else(|| {
                        CheckerRunError {
                            message: format!("missing input `{name}`"),
                        }
                    })?;
                    COp::Input { idx: idx as u32 }
                }
                Node::Reg { .. } => COp::Reg,
                Node::Const(c) => {
                    let lit = lits.len() as u32;
                    lits.push(c.zero_extend(w.max(1)));
                    COp::Const { lit }
                }
                Node::Bin { op, a, b, signed } => COp::Bin {
                    op: *op,
                    a: before(*a, i)?,
                    b: before(*b, i)?,
                    signed: *signed,
                },
                Node::Un { op, a } => COp::Un {
                    op: *op,
                    a: before(*a, i)?,
                },
                Node::Mux { sel, t, f } => COp::Mux {
                    sel: before(*sel, i)?,
                    t: before(*t, i)?,
                    f: before(*f, i)?,
                },
                Node::Slice { a, lo, width } => COp::Slice {
                    a: before(*a, i)?,
                    lo: *lo as u32,
                    width: *width as u32,
                },
                Node::DynSlice { a, lo, width } => COp::DynSlice {
                    a: before(*a, i)?,
                    lo: before(*lo, i)?,
                    width: *width as u32,
                },
                Node::DynInsert { a, lo, b, width } => COp::DynInsert {
                    a: before(*a, i)?,
                    lo: before(*lo, i)?,
                    b: before(*b, i)?,
                    width: *width as u32,
                },
                Node::Concat(parts) => {
                    let mut ps = Vec::with_capacity(parts.len());
                    for p in parts {
                        ps.push(before(*p, i)?);
                    }
                    COp::Concat(ps)
                }
                Node::Repl { a, n } => COp::Repl {
                    a: before(*a, i)?,
                    n: *n as u32,
                },
                Node::Ext { a, signed } => COp::Ext {
                    a: before(*a, i)?,
                    signed: *signed,
                },
            };
            // Register slots power on at `init` brought to slot width —
            // exactly the value the interpreter's first read produces.
            init.push(match &def.node {
                Node::Reg { init, .. } => init.zero_extend(w.max(1)),
                _ => LogicVec::filled_x(w.max(1)),
            });
            ops.push(op);
            widths.push(w);
        }
        let mut commits = Vec::with_capacity(prog.reg_updates.len());
        for ru in &prog.reg_updates {
            if ru.reg.0 as usize >= n || ru.next.0 as usize >= n {
                return Err(CheckerRunError {
                    message: format!(
                        "register update references node {} outside the program",
                        ru.reg.0.max(ru.next.0)
                    ),
                });
            }
            commits.push(CCommit {
                reg: ru.reg.0,
                next: ru.next.0,
            });
        }
        let mut outputs = Vec::with_capacity(prog.outputs.len());
        for o in &prog.outputs {
            if o.node.0 as usize >= n {
                return Err(CheckerRunError {
                    message: format!(
                        "output `{}` references node {} outside the program",
                        o.name, o.node.0
                    ),
                });
            }
            outputs.push((o.name.clone(), o.node.0));
        }
        // Dependency analysis for the post-edge pass. Forward: which
        // nodes transitively read a register. Backward from the outputs:
        // which nodes the sampled values are built from.
        let mut reg_dep = vec![false; n];
        for (i, def) in prog.nodes.iter().enumerate() {
            reg_dep[i] = matches!(def.node, Node::Reg { .. })
                || operands(&def.node).any(|id| reg_dep[id.0 as usize]);
        }
        let mut needed = vec![false; n];
        for (_, slot) in &outputs {
            needed[*slot as usize] = true;
        }
        for (i, def) in prog.nodes.iter().enumerate().rev() {
            if needed[i] {
                for id in operands(&def.node) {
                    needed[id.0 as usize] = true;
                }
            }
        }
        let pass2 = (0..n)
            .filter(|&i| needed[i] && reg_dep[i] && !matches!(prog.nodes[i].node, Node::Reg { .. }))
            .map(|i| i as u32)
            .collect();
        Ok(CompiledChecker {
            ops,
            widths,
            init,
            lits,
            commits,
            pass2,
            outputs,
            inputs: prog.inputs.clone(),
        })
    }

    /// Input port order [`JudgeSession::step`] expects.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Output port names in program order.
    pub fn output_names(&self) -> impl Iterator<Item = &str> {
        self.outputs.iter().map(|(n, _)| n.as_str())
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }
}

/// Reusable execution state over a [`CompiledChecker`]: the slot file,
/// the commit scratch, nothing else. One session judges arbitrarily many
/// record streams; [`JudgeSession::reset`] rewinds to power-on without
/// releasing an allocation.
#[derive(Clone, Debug)]
pub struct JudgeSession {
    compiled: CompiledChecker,
    slots: Vec<LogicVec>,
    /// Staging for register next-values: updates read pass-1 values, so
    /// commits must not observe each other (`q2 <= q1; q1 <= d`).
    commit: Vec<LogicVec>,
    /// Register slot commits applied since the last
    /// [`JudgeSession::take_commits_retired`] — a pure measurement,
    /// drained by the caller so this crate needs no observability
    /// dependency.
    commits_retired: u64,
}

impl JudgeSession {
    /// Compiles `prog` and allocates the slot file.
    ///
    /// # Errors
    ///
    /// As [`CompiledChecker::compile`].
    pub fn new(prog: &CheckerProgram) -> Result<JudgeSession, CheckerRunError> {
        Ok(Self::over(CompiledChecker::compile(prog)?))
    }

    /// A session over an already compiled checker.
    pub fn over(compiled: CompiledChecker) -> JudgeSession {
        let slots = compiled.init.clone();
        let commit = compiled
            .commits
            .iter()
            .map(|c| LogicVec::zeros(compiled.widths[c.reg as usize].max(1)))
            .collect();
        JudgeSession {
            compiled,
            slots,
            commit,
            commits_retired: 0,
        }
    }

    /// The compiled program.
    pub fn compiled(&self) -> &CompiledChecker {
        &self.compiled
    }

    /// Rewinds register state to power-on. In place — the slot file and
    /// its allocations survive.
    pub fn reset(&mut self) {
        for (slot, init) in self.slots.iter_mut().zip(self.compiled.init.iter()) {
            if slot.width() == init.width() {
                slot.copy_from(init);
            } else {
                *slot = init.clone();
            }
        }
    }

    /// Evaluates one step — the compiled counterpart of [`crate::step`]:
    /// inputs applied, edge committed, outputs sampled post-edge. Read
    /// results via [`JudgeSession::output`].
    ///
    /// # Errors
    ///
    /// When `inputs` does not carry one value per declared input.
    pub fn step(&mut self, inputs: &[LogicVec]) -> Result<(), CheckerRunError> {
        if inputs.len() != self.compiled.inputs.len() {
            return Err(CheckerRunError {
                message: format!(
                    "expected {} inputs, got {}",
                    self.compiled.inputs.len(),
                    inputs.len()
                ),
            });
        }
        // Pass 1: combinational values from current state.
        eval_pass(&self.compiled, &mut self.slots, inputs);
        if self.compiled.commits.is_empty() {
            return Ok(());
        }
        // Commit register updates from pass-1 values (staged: no commit
        // observes another), then re-evaluate from the new state.
        self.commits_retired += self.compiled.commits.len() as u64;
        for (stage, c) in self.commit.iter_mut().zip(self.compiled.commits.iter()) {
            stage.assign_resize(&self.slots[c.next as usize], false);
        }
        for (stage, c) in self.commit.iter().zip(self.compiled.commits.iter()) {
            let slot = &mut self.slots[c.reg as usize];
            if slot.width() == stage.width() {
                slot.copy_from(stage);
            } else {
                *slot = stage.clone();
            }
        }
        for &i in &self.compiled.pass2 {
            eval_node(&self.compiled, i as usize, &mut self.slots, inputs);
        }
        Ok(())
    }

    /// Drains the register-slot-commit counter: commits applied since
    /// the last drain (or construction). A take-style measurement hook —
    /// callers with an observability collector flush it after a judging
    /// sweep.
    pub fn take_commits_retired(&mut self) -> u64 {
        std::mem::take(&mut self.commits_retired)
    }

    /// Output `i` (program order, matching
    /// [`CompiledChecker::output_names`]) after the last step.
    pub fn output(&self, i: usize) -> &LogicVec {
        &self.slots[self.compiled.outputs[i].1 as usize]
    }
}

/// One full forward evaluation over the slot file.
fn eval_pass(cd: &CompiledChecker, slots: &mut [LogicVec], inputs: &[LogicVec]) {
    for i in 0..cd.ops.len() {
        eval_node(cd, i, slots, inputs);
    }
}

/// Evaluates node `i` into its slot. Every arm mirrors the corresponding
/// `eval_all` arm in [`crate::eval`] — the slot file plays the
/// interpreter's `vals` vector, with register slots standing in for the
/// state map (so a register node needs no evaluation at all).
fn eval_node(cd: &CompiledChecker, i: usize, slots: &mut [LogicVec], inputs: &[LogicVec]) {
    let op = &cd.ops[i];
    if matches!(op, COp::Reg) {
        return;
    }
    let w = cd.widths[i];
    let (vals, rest) = slots.split_at_mut(i);
    let dst = &mut rest[0];
    let v = match op {
        COp::Reg => unreachable!("register slots are skipped"),
        COp::Input { idx } => inputs[*idx as usize].zero_extend(w),
        COp::Const { lit } => cd.lits[*lit as usize].clone(),
        COp::Bin { op, a, b, signed } => match op {
            // Comparisons consume their operands at full width (the
            // compiler already extended both sides); resizing to the
            // 1-bit result would truncate.
            IrBinOp::Eq | IrBinOp::CaseEq | IrBinOp::LtU | IrBinOp::LtS => {
                eval_bin(*op, &vals[*a as usize], &vals[*b as usize], w)
            }
            _ => {
                let va = vals[*a as usize].resize(w.max(1), *signed);
                let vb = vals[*b as usize].resize(w.max(1), *signed);
                eval_bin(*op, &va, &vb, w)
            }
        },
        COp::Un { op, a } => eval_un(*op, &vals[*a as usize], w),
        COp::Mux { sel, t, f } => {
            let s = vals[*sel as usize].truthy();
            let tv = vals[*t as usize].zero_extend(w);
            let fv = vals[*f as usize].zero_extend(w);
            match s {
                Bit::One => tv,
                Bit::Zero => fv,
                _ => {
                    let mut out = LogicVec::filled_x(w);
                    for i in 0..w {
                        let (a, b) = (tv.bit(i), fv.bit(i));
                        if a == b && a.is_known() {
                            out.set_bit(i, a);
                        }
                    }
                    out
                }
            }
        }
        COp::Slice { a, lo, width } => vals[*a as usize]
            .slice(*lo as usize, *width as usize)
            .zero_extend(w),
        COp::DynSlice { a, lo, width } => {
            let base = &vals[*a as usize];
            match vals[*lo as usize].to_u64() {
                Some(l) => base.slice(l as usize, *width as usize).zero_extend(w),
                None => LogicVec::filled_x(w),
            }
        }
        COp::DynInsert { a, lo, b, width } => {
            let mut base = vals[*a as usize].zero_extend(w);
            if let Some(l) = vals[*lo as usize].to_u64() {
                let l = l as usize;
                let repl = &vals[*b as usize];
                for i in 0..*width as usize {
                    if l + i < w {
                        let bit = if i < repl.width() {
                            repl.bit(i)
                        } else {
                            Bit::Zero
                        };
                        base.set_bit(l + i, bit);
                    }
                }
            }
            base
        }
        COp::Concat(parts) => {
            let mut acc: Option<LogicVec> = None;
            for p in parts {
                let v = vals[*p as usize].clone();
                acc = Some(match acc {
                    None => v,
                    Some(hi) => hi.concat(&v),
                });
            }
            acc.map(|v| v.zero_extend(w))
                .unwrap_or_else(|| LogicVec::filled_x(w))
        }
        COp::Repl { a, n } => vals[*a as usize]
            .repeat((*n as usize).max(1))
            .zero_extend(w),
        COp::Ext { a, signed } => vals[*a as usize].resize(w, *signed),
    };
    debug_assert_eq!(v.width(), w, "slot {i} width mismatch");
    *dst = v;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{step, CheckerState};
    use std::collections::HashMap;

    /// Steps the interpreter and the session side by side and asserts
    /// every output matches.
    fn assert_steps_agree(prog: &CheckerProgram, stream: &[Vec<LogicVec>]) {
        let mut state = CheckerState::new(prog);
        let mut session = JudgeSession::new(prog).expect("compiles");
        for (k, inputs) in stream.iter().enumerate() {
            let map: HashMap<String, LogicVec> = prog
                .inputs
                .iter()
                .cloned()
                .zip(inputs.iter().cloned())
                .collect();
            let expected = step(prog, &mut state, &map).expect("interpreter step");
            session.step(inputs).expect("compiled step");
            for (i, (name, _)) in session.compiled.outputs.iter().enumerate() {
                assert_eq!(
                    session.output(i),
                    &expected[name],
                    "step {k}, output `{name}`"
                );
            }
        }
    }

    fn counter_with_feedback() -> CheckerProgram {
        // q' = q + in; y = q ^ in — sequential with an input-dependent
        // next state, sampled post-edge.
        let mut p = CheckerProgram::default();
        let q = p.push(
            Node::Reg {
                name: "q".into(),
                init: LogicVec::from_u64(4, 0),
            },
            4,
        );
        let d = p.push(Node::Input { name: "d".into() }, 4);
        let next = p.push(
            Node::Bin {
                op: IrBinOp::Add,
                a: q,
                b: d,
                signed: false,
            },
            4,
        );
        let y = p.push(
            Node::Bin {
                op: IrBinOp::Xor,
                a: q,
                b: d,
                signed: false,
            },
            4,
        );
        p.reg_updates.push(RegUpdate { reg: q, next });
        p.outputs.push(OutputDef {
            name: "y".into(),
            node: y,
        });
        p.outputs.push(OutputDef {
            name: "q".into(),
            node: q,
        });
        p.inputs = vec!["d".into()];
        p.sequential = true;
        p
    }

    #[test]
    fn sequential_program_matches_interpreter() {
        let p = counter_with_feedback();
        let stream: Vec<Vec<LogicVec>> = [3u64, 0, 15, 7, 1]
            .iter()
            .map(|v| vec![LogicVec::from_u64(4, *v)])
            .collect();
        assert_steps_agree(&p, &stream);
    }

    #[test]
    fn x_inputs_match_interpreter() {
        let p = counter_with_feedback();
        let stream = vec![
            vec![LogicVec::filled_x(4)],
            vec![LogicVec::from_u64(4, 5)],
            vec![LogicVec::filled_z(4)],
        ];
        assert_steps_agree(&p, &stream);
    }

    #[test]
    fn staged_commit_shift_register() {
        // q2 <= q1; q1 <= d — the classic commit-ordering trap: a
        // sequential in-place commit would let q2 observe the new q1.
        let mut p = CheckerProgram::default();
        let q1 = p.push(
            Node::Reg {
                name: "q1".into(),
                init: LogicVec::from_u64(4, 1),
            },
            4,
        );
        let q2 = p.push(
            Node::Reg {
                name: "q2".into(),
                init: LogicVec::from_u64(4, 2),
            },
            4,
        );
        let d = p.push(Node::Input { name: "d".into() }, 4);
        p.reg_updates.push(RegUpdate { reg: q2, next: q1 });
        p.reg_updates.push(RegUpdate { reg: q1, next: d });
        p.outputs.push(OutputDef {
            name: "q2".into(),
            node: q2,
        });
        p.inputs = vec!["d".into()];
        p.sequential = true;
        let stream: Vec<Vec<LogicVec>> = [9u64, 4, 6]
            .iter()
            .map(|v| vec![LogicVec::from_u64(4, *v)])
            .collect();
        assert_steps_agree(&p, &stream);
        // And pin the absolute behaviour: after one step q2 holds old q1.
        let mut s = JudgeSession::new(&p).expect("compiles");
        s.step(&[LogicVec::from_u64(4, 9)]).expect("step");
        assert_eq!(s.output(0).to_u64(), Some(1));
    }

    #[test]
    fn reset_rewinds_to_power_on() {
        let p = counter_with_feedback();
        let mut s = JudgeSession::new(&p).expect("compiles");
        let first: Vec<LogicVec> = {
            s.step(&[LogicVec::from_u64(4, 7)]).expect("step");
            (0..s.compiled.num_outputs())
                .map(|i| s.output(i).clone())
                .collect()
        };
        s.step(&[LogicVec::from_u64(4, 2)]).expect("step");
        s.reset();
        s.step(&[LogicVec::from_u64(4, 7)]).expect("step");
        let replay: Vec<LogicVec> = (0..s.compiled.num_outputs())
            .map(|i| s.output(i).clone())
            .collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn wrong_arity_is_error() {
        let p = counter_with_feedback();
        let mut s = JudgeSession::new(&p).expect("compiles");
        assert!(s.step(&[]).is_err());
    }

    #[test]
    fn unknown_input_name_is_compile_error() {
        let mut p = CheckerProgram::default();
        let a = p.push(Node::Input { name: "a".into() }, 4);
        p.outputs.push(OutputDef {
            name: "y".into(),
            node: a,
        });
        // `inputs` does not declare `a`: the interpreter fails the step,
        // the compiler fails the build — same observable error class.
        assert!(JudgeSession::new(&p).is_err());
    }

    #[test]
    fn forward_reference_is_compile_error() {
        let mut p = CheckerProgram::default();
        p.push(
            Node::Un {
                op: IrUnOp::Not,
                a: NodeId(5),
            },
            4,
        );
        assert!(CompiledChecker::compile(&p).is_err());
    }
}
