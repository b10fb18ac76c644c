//! The judging executor: a [`JudgeSession`] steps a [`CheckerProgram`]'s
//! own nodes over a preallocated slot file.
//!
//! The interpreter in [`crate::eval`] re-resolves every step: it builds a
//! fresh `Vec` of node values, looks inputs up in a `HashMap<String,
//! LogicVec>` by name, reads register state through another hash map, and
//! returns outputs as a freshly allocated name-keyed map. None of that
//! resolution depends on the step — the program is fixed — so a session
//! does it once:
//!
//! * every node gets a **slot** in a preallocated value file at its
//!   width; constants sit in their slots from power-on and registers live
//!   in theirs (state is a region of the file, not a side map);
//! * inputs are bound **positionally**: [`JudgeSession::step`] takes a
//!   `&[LogicVec]` in [`CheckerProgram::inputs`] order, no name lookups;
//! * a step evaluates only the operation nodes, each through the
//!   interpreter's own `eval_op`, so every operation exists once;
//! * register commits are staged, and the post-edge pass re-evaluates
//!   only the output-cone nodes that depend on a register;
//! * outputs are read back by slot via [`JudgeSession::output`], in
//!   [`CheckerProgram::outputs`] order.
//!
//! The interpreter [`crate::step`] stays the reference for what the
//! session does its own way (name binding, the state map, the full second
//! pass): the differential suite `crates/checker/tests/exec_diff.rs` pins
//! output equality over every golden checker, IR mutants and random x/z
//! input streams.

use crate::eval::{eval_op, CheckerRunError};
use crate::ir::*;
use correctbench_verilog::logic::LogicVec;

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

/// Reusable execution state over one [`CheckerProgram`]: the slot file,
/// the commit staging, nothing else. One session judges arbitrarily many
/// record streams; [`JudgeSession::reset`] rewinds to power-on without
/// releasing an allocation.
#[derive(Clone, Debug)]
pub struct JudgeSession {
    prog: CheckerProgram,
    /// The operation nodes in program order: pass 1. A leaf is never
    /// evaluated — its slot is written by [`JudgeSession::step`] (inputs),
    /// a commit (registers) or nothing at all (constants).
    ops: Vec<u32>,
    /// The post-edge pass: output-cone nodes whose value depends on a
    /// register, in program order. Every other slot already holds its
    /// final value after pass 1 or the commit — on register-out designs
    /// like a shift register this pass is *empty*, where the interpreter
    /// always re-evaluates everything.
    pass2: Vec<u32>,
    /// `(slot, position in the step's inputs)` of every input node.
    input_slots: Vec<(u32, u32)>,
    /// Power-on slot contents: constants and register `init`s at slot
    /// width, x everywhere else.
    init: Vec<LogicVec>,
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
    /// Checks `prog` and allocates the slot file: the one-time
    /// resolution of input names to positions, constants and state to
    /// slots, and the post-edge pass.
    ///
    /// # Errors
    ///
    /// [`CheckerRunError`] when the program is malformed: an input node
    /// naming a port absent from [`CheckerProgram::inputs`] (the
    /// interpreter's "missing input"), an operand, update or output
    /// referencing a node that is not earlier in (or not in) the program
    /// (the interpreter's out-of-bounds), or an update whose target is
    /// not a [`Node::Reg`] (a commit into a resident constant or input
    /// would persist).
    pub fn new(prog: &CheckerProgram) -> Result<JudgeSession, CheckerRunError> {
        let fail = |message: String| Err(CheckerRunError { message });
        let n = prog.nodes.len();
        let (mut ops, mut input_slots, mut init) = (Vec::new(), Vec::new(), Vec::with_capacity(n));
        for (i, def) in prog.nodes.iter().enumerate() {
            if let Some(later) = operands(&def.node).find(|id| id.0 as usize >= i) {
                return fail(format!("node {i} references later node {}", later.0));
            }
            let w = def.width.max(1);
            init.push(match &def.node {
                Node::Input { name } => {
                    let Some(pos) = prog.inputs.iter().position(|p| p == name) else {
                        return fail(format!("missing input `{name}`"));
                    };
                    input_slots.push((i as u32, pos as u32));
                    LogicVec::filled_x(w)
                }
                // At slot width: the values the interpreter's reads produce.
                Node::Const(c) => c.zero_extend(w),
                Node::Reg { init, .. } => init.zero_extend(w),
                _ => {
                    ops.push(i as u32);
                    LogicVec::filled_x(w)
                }
            });
        }
        for ru in &prog.reg_updates {
            let target = prog.nodes.get(ru.reg.0 as usize).map(|d| &d.node);
            if !matches!(target, Some(Node::Reg { .. })) {
                return fail(format!(
                    "register update targets node {}, not a register",
                    ru.reg.0
                ));
            }
            if ru.next.0 as usize >= n {
                return fail(format!(
                    "register update reads node {} outside the program",
                    ru.next.0
                ));
            }
        }
        if let Some(o) = prog.outputs.iter().find(|o| o.node.0 as usize >= n) {
            return fail(format!(
                "output `{}` references node {} outside the program",
                o.name, o.node.0
            ));
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
        for o in &prog.outputs {
            needed[o.node.0 as usize] = true;
        }
        for (i, def) in prog.nodes.iter().enumerate().rev() {
            if needed[i] {
                for id in operands(&def.node) {
                    needed[id.0 as usize] = true;
                }
            }
        }
        let pass2 = ops
            .iter()
            .copied()
            .filter(|&i| needed[i as usize] && reg_dep[i as usize])
            .collect();
        let commit = prog
            .reg_updates
            .iter()
            .map(|ru| init[ru.reg.0 as usize].clone())
            .collect();
        Ok(JudgeSession {
            prog: prog.clone(),
            ops,
            pass2,
            input_slots,
            slots: init.clone(),
            init,
            commit,
            commits_retired: 0,
        })
    }

    /// Rewinds the slot file, register state included, to power-on. In
    /// place — the slot file and its allocations survive.
    pub fn reset(&mut self) {
        for (slot, init) in self.slots.iter_mut().zip(&self.init) {
            slot.copy_from(init);
        }
    }

    /// Evaluates one step — the session counterpart of [`crate::step`]:
    /// inputs applied, edge committed, outputs sampled post-edge. Read
    /// results via [`JudgeSession::output`].
    ///
    /// # Errors
    ///
    /// When `inputs` does not carry one value per declared input.
    pub fn step(&mut self, inputs: &[LogicVec]) -> Result<(), CheckerRunError> {
        if inputs.len() != self.prog.inputs.len() {
            return Err(CheckerRunError {
                message: format!(
                    "expected {} inputs, got {}",
                    self.prog.inputs.len(),
                    inputs.len()
                ),
            });
        }
        for &(slot, pos) in &self.input_slots {
            self.slots[slot as usize].assign_resize(&inputs[pos as usize], false);
        }
        // Pass 1: combinational values from current state.
        run_pass(&self.prog.nodes, &mut self.slots, &self.ops);
        if self.commit.is_empty() {
            return Ok(());
        }
        // Commit register updates from pass-1 values (staged: no commit
        // observes another), then re-evaluate from the new state.
        self.commits_retired += self.commit.len() as u64;
        for (stage, ru) in self.commit.iter_mut().zip(&self.prog.reg_updates) {
            stage.assign_resize(&self.slots[ru.next.0 as usize], false);
        }
        for (stage, ru) in self.commit.iter().zip(&self.prog.reg_updates) {
            self.slots[ru.reg.0 as usize].copy_from(stage);
        }
        run_pass(&self.prog.nodes, &mut self.slots, &self.pass2);
        Ok(())
    }

    /// Drains the register-slot-commit counter: commits applied since
    /// the last drain (or construction). A take-style measurement hook —
    /// callers with an observability collector flush it after a judging
    /// sweep.
    pub fn take_commits_retired(&mut self) -> u64 {
        std::mem::take(&mut self.commits_retired)
    }

    /// Output `i` ([`CheckerProgram::outputs`] order) after the last
    /// step.
    pub fn output(&self, i: usize) -> &LogicVec {
        &self.slots[self.prog.outputs[i].node.0 as usize]
    }
}

/// Evaluates the operation nodes `order` into their slots, in order.
fn run_pass(nodes: &[NodeDef], slots: &mut [LogicVec], order: &[u32]) {
    for &i in order {
        let def = &nodes[i as usize];
        let (vals, rest) = slots.split_at_mut(i as usize);
        rest[0] = eval_op(&def.node, def.width, vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{step, CheckerState};
    use std::collections::HashMap;

    /// Steps the interpreter and the session side by side and asserts
    /// every output matches; then resets the session and replays the
    /// stream against a fresh interpreter state.
    fn assert_steps_agree(prog: &CheckerProgram, stream: &[Vec<LogicVec>]) {
        let mut session = JudgeSession::new(prog).expect("session builds");
        for round in 0..2 {
            let mut state = CheckerState::new(prog);
            for (k, inputs) in stream.iter().enumerate() {
                let map: HashMap<String, LogicVec> = prog
                    .inputs
                    .iter()
                    .cloned()
                    .zip(inputs.iter().cloned())
                    .collect();
                let expected = step(prog, &mut state, &map).expect("interpreter step");
                session.step(inputs).expect("session step");
                for (i, o) in prog.outputs.iter().enumerate() {
                    assert_eq!(
                        session.output(i),
                        &expected[&o.name],
                        "round {round}, step {k}, output `{}`",
                        o.name
                    );
                }
            }
            session.reset();
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
        // sequential in-place commit would let q2 observe the new q1
        // (when q1's update comes first, so both orders are checked).
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
        for _ in 0..2 {
            assert_steps_agree(&p, &stream);
            // And pin the absolute behaviour: after one step q2 holds
            // old q1.
            let mut s = JudgeSession::new(&p).expect("session builds");
            s.step(&[LogicVec::from_u64(4, 9)]).expect("step");
            assert_eq!(s.output(0).to_u64(), Some(1));
            p.reg_updates.reverse();
        }
    }

    #[test]
    fn reset_rewinds_to_power_on() {
        let p = counter_with_feedback();
        let mut s = JudgeSession::new(&p).expect("session builds");
        let first: Vec<LogicVec> = {
            s.step(&[LogicVec::from_u64(4, 7)]).expect("step");
            (0..p.outputs.len()).map(|i| s.output(i).clone()).collect()
        };
        s.step(&[LogicVec::from_u64(4, 2)]).expect("step");
        s.reset();
        s.step(&[LogicVec::from_u64(4, 7)]).expect("step");
        let replay: Vec<LogicVec> = (0..p.outputs.len()).map(|i| s.output(i).clone()).collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn wrong_arity_is_error() {
        let p = counter_with_feedback();
        let mut s = JudgeSession::new(&p).expect("session builds");
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
        // the session fails to build — same observable error class.
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
        assert!(JudgeSession::new(&p).is_err());
    }

    /// Leaves whose values are narrower than their nodes (a constant, a
    /// register `init`) next to an input fed at other widths: both
    /// executors must bring each to its node width the same way.
    fn mixed_width_leaves() -> CheckerProgram {
        // q' = q + d; y = c ^ d; every leaf is also an output.
        let mut p = CheckerProgram::default();
        let d = p.push(Node::Input { name: "d".into() }, 8);
        let c = p.push(Node::Const(LogicVec::from_u64(4, 0b1011)), 8);
        let q = p.push(
            Node::Reg {
                name: "q".into(),
                init: LogicVec::from_u64(4, 0b1001),
            },
            8,
        );
        let next = p.push(
            Node::Bin {
                op: IrBinOp::Add,
                a: q,
                b: d,
                signed: false,
            },
            8,
        );
        let y = p.push(
            Node::Bin {
                op: IrBinOp::Xor,
                a: c,
                b: d,
                signed: false,
            },
            8,
        );
        p.reg_updates.push(RegUpdate { reg: q, next });
        for (name, node) in [("d", d), ("c", c), ("q", q), ("y", y)] {
            p.outputs.push(OutputDef {
                name: name.into(),
                node,
            });
        }
        p.inputs = vec!["d".into()];
        p.sequential = true;
        p
    }

    #[test]
    fn leaves_off_their_node_width_match_interpreter() {
        let p = mixed_width_leaves();
        // Input values narrower (4 bits) and wider (12 bits) than the
        // 8-bit input node, x included.
        let stream = vec![
            vec![LogicVec::from_u64(4, 0b0110)],
            vec![LogicVec::from_u64(12, 0xabc)],
            vec![LogicVec::filled_x(4)],
            vec![LogicVec::from_u64(12, 0xf05)],
            vec![LogicVec::filled_x(12)],
        ];
        assert_steps_agree(&p, &stream);
    }

    #[test]
    fn update_of_a_constant_or_input_is_an_error() {
        let p = mixed_width_leaves();
        for target in [NodeId(0), NodeId(1)] {
            let mut bad = p.clone();
            bad.reg_updates.push(RegUpdate {
                reg: target,
                next: NodeId(3),
            });
            assert!(
                JudgeSession::new(&bad).is_err(),
                "update of node {}",
                target.0
            );
        }
    }
}
