//! Cycle-stepping interpreter for [`CheckerProgram`]s.
//!
//! The step semantics mirror the hybrid-testbench sampling protocol used by
//! the generated Verilog drivers: inputs are applied at the top of a cycle,
//! the clock edge commits register updates mid-cycle, and outputs are
//! sampled at the end of the cycle — i.e. reference outputs are computed
//! from the *new* state and the *current* inputs. For combinational DUTs a
//! step is just one evaluation pass.
//!
//! Every operation node is evaluated by one function, `eval_op`, which
//! [`crate::JudgeSession`] calls too: the two executors differ only in
//! how they hold values and read leaves (here inputs by name, registers
//! from [`CheckerState`], every node on both passes).

use crate::ir::*;
use correctbench_verilog::logic::{Bit, LogicVec};
use std::collections::HashMap;

/// Runtime state of a checker between steps (register contents).
#[derive(Clone, PartialEq, Debug)]
pub struct CheckerState {
    regs: HashMap<u32, LogicVec>,
}

impl CheckerState {
    /// Power-on state for `prog` (registers at their `init`, usually all-x).
    pub fn new(prog: &CheckerProgram) -> Self {
        let mut regs = HashMap::new();
        for (i, def) in prog.nodes.iter().enumerate() {
            if let Node::Reg { init, .. } = &def.node {
                regs.insert(i as u32, init.clone());
            }
        }
        CheckerState { regs }
    }

    /// The current value of a register node.
    pub fn reg(&self, id: NodeId) -> Option<&LogicVec> {
        self.regs.get(&id.0)
    }
}

/// An evaluation failure (malformed program, usually after a bad mutation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckerRunError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CheckerRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checker runtime error: {}", self.message)
    }
}

impl std::error::Error for CheckerRunError {}

/// Evaluates one step: applies `inputs`, commits register updates, and
/// returns the reference outputs (port name → value).
///
/// # Errors
///
/// Returns [`CheckerRunError`] when an input named by the program is
/// missing from `inputs`.
pub fn step(
    prog: &CheckerProgram,
    state: &mut CheckerState,
    inputs: &HashMap<String, LogicVec>,
) -> Result<HashMap<String, LogicVec>, CheckerRunError> {
    // Pass 1: combinational values from current state.
    let pre = eval_all(prog, state, inputs)?;
    // Commit register updates.
    for ru in &prog.reg_updates {
        let next = pre[ru.next.0 as usize].clone();
        let width = prog.width(ru.reg);
        state.regs.insert(ru.reg.0, next.zero_extend(width));
    }
    // Pass 2: outputs from the new state.
    let post = if prog.reg_updates.is_empty() {
        pre
    } else {
        eval_all(prog, state, inputs)?
    };
    let mut out = HashMap::new();
    for o in &prog.outputs {
        out.insert(o.name.clone(), post[o.node.0 as usize].clone());
    }
    Ok(out)
}

fn eval_all(
    prog: &CheckerProgram,
    state: &CheckerState,
    inputs: &HashMap<String, LogicVec>,
) -> Result<Vec<LogicVec>, CheckerRunError> {
    let mut vals: Vec<LogicVec> = Vec::with_capacity(prog.nodes.len());
    for (i, def) in prog.nodes.iter().enumerate() {
        let w = def.width;
        let v = match &def.node {
            Node::Input { name } => inputs
                .get(name)
                .ok_or_else(|| CheckerRunError {
                    message: format!("missing input `{name}`"),
                })?
                .zero_extend(w),
            Node::Reg { init, .. } => state.regs.get(&(i as u32)).unwrap_or(init).zero_extend(w),
            Node::Const(c) => c.zero_extend(w),
            op => eval_op(op, w, &vals),
        };
        vals.push(v);
    }
    Ok(vals)
}

/// Evaluates the operation `node` at result width `w` from `vals`, the
/// values of the nodes before it. The one copy of every operation's
/// semantics: the interpreter and [`crate::JudgeSession`] both call it,
/// each after reading the leaves (inputs, registers, constants) its own
/// way.
///
/// # Panics
///
/// On a leaf, and on an operand that is not an earlier node.
pub(crate) fn eval_op(node: &Node, w: usize, vals: &[LogicVec]) -> LogicVec {
    let val = |id: &NodeId| &vals[id.0 as usize];
    // A known dynamic index; one past `usize` is out of range like any
    // other.
    let index = |id: &NodeId| {
        val(id)
            .to_u64()
            .map(|l| usize::try_from(l).unwrap_or(usize::MAX))
    };
    let v = match node {
        Node::Input { .. } | Node::Reg { .. } | Node::Const(_) => {
            unreachable!("leaves are read by the executor")
        }
        Node::Bin { op, a, b, signed } => match op {
            // Comparisons consume their operands at full width (the
            // compiler already extended both sides to a common width);
            // resizing to the 1-bit result would truncate.
            IrBinOp::Eq | IrBinOp::CaseEq | IrBinOp::LtU | IrBinOp::LtS => {
                eval_bin(*op, val(a), val(b), w)
            }
            _ => {
                let va = val(a).resize(w.max(1), *signed);
                let vb = val(b).resize(w.max(1), *signed);
                eval_bin(*op, &va, &vb, w)
            }
        },
        Node::Un { op, a } => eval_un(*op, val(a), w),
        Node::Mux { sel, t, f } => {
            let tv = val(t).zero_extend(w);
            let fv = val(f).zero_extend(w);
            match val(sel).truthy() {
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
        Node::Slice { a, lo, width } => val(a).slice(*lo, *width).zero_extend(w),
        Node::DynSlice { a, lo, width } => match index(lo) {
            Some(l) => val(a).slice(l, *width).zero_extend(w),
            None => LogicVec::filled_x(w),
        },
        Node::DynInsert { a, lo, b, width } => {
            let mut base = val(a).zero_extend(w);
            if let Some(l) = index(lo) {
                // Bits at or past `w` are dropped, as the simulator drops
                // an out-of-range write, however large `l` is.
                base.write_range(l, &val(b).zero_extend(w), *width);
            }
            base
        }
        Node::Concat(parts) => parts
            .iter()
            .map(val)
            .cloned()
            .reduce(|hi, lo| hi.concat(&lo))
            .map_or_else(|| LogicVec::filled_x(w), |v| v.zero_extend(w)),
        Node::Repl { a, n } => val(a).repeat((*n).max(1)).zero_extend(w),
        Node::Ext { a, signed } => val(a).resize(w, *signed),
    };
    debug_assert_eq!(v.width(), w, "operation width mismatch");
    v
}

/// One binary IR op at result width `w`.
fn eval_bin(op: IrBinOp, a: &LogicVec, b: &LogicVec, w: usize) -> LogicVec {
    match op {
        IrBinOp::Add => a.add(b).zero_extend(w),
        IrBinOp::Sub => a.sub(b).zero_extend(w),
        IrBinOp::Mul => a.mul(b).zero_extend(w),
        IrBinOp::Div => a.div(b).zero_extend(w),
        IrBinOp::Mod => a.rem(b).zero_extend(w),
        IrBinOp::And => a.and(b).zero_extend(w),
        IrBinOp::Or => a.or(b).zero_extend(w),
        IrBinOp::Xor => a.xor(b).zero_extend(w),
        IrBinOp::Eq => LogicVec::from_bit(a.eq_logic(b)).zero_extend(w),
        IrBinOp::CaseEq => LogicVec::from_bit(a.eq_case(b)).zero_extend(w),
        IrBinOp::LtU => LogicVec::from_bit(a.lt(b, false)).zero_extend(w),
        IrBinOp::LtS => LogicVec::from_bit(a.lt(b, true)).zero_extend(w),
        IrBinOp::Shl => a.shl(b).zero_extend(w),
        IrBinOp::Shr => a.shr(b).zero_extend(w),
        IrBinOp::AShr => a.ashr(b).zero_extend(w),
    }
}

/// One unary IR op at result width `w`.
fn eval_un(op: IrUnOp, a: &LogicVec, w: usize) -> LogicVec {
    match op {
        IrUnOp::Not => a.zero_extend(w).not(),
        IrUnOp::Neg => a.zero_extend(w).neg(),
        IrUnOp::RedAnd => LogicVec::from_bit(a.reduce_and()).zero_extend(w),
        IrUnOp::RedOr => LogicVec::from_bit(a.reduce_or()).zero_extend(w),
        IrUnOp::RedXor => LogicVec::from_bit(a.reduce_xor()).zero_extend(w),
        IrUnOp::LogicNot => {
            let b = match a.truthy() {
                Bit::One => Bit::Zero,
                Bit::Zero => Bit::One,
                _ => Bit::X,
            };
            LogicVec::from_bit(b).zero_extend(w)
        }
        IrUnOp::Bool => LogicVec::from_bit(a.truthy()).zero_extend(w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(pairs: &[(&str, u64, usize)]) -> HashMap<String, LogicVec> {
        pairs
            .iter()
            .map(|(n, v, w)| (n.to_string(), LogicVec::from_u64(*w, *v)))
            .collect()
    }

    #[test]
    fn combinational_adder() {
        let mut p = CheckerProgram::default();
        let a = p.push(Node::Input { name: "a".into() }, 4);
        let b = p.push(Node::Input { name: "b".into() }, 4);
        let ax = p.push(Node::Ext { a, signed: false }, 5);
        let bx = p.push(
            Node::Ext {
                a: b,
                signed: false,
            },
            5,
        );
        let sum = p.push(
            Node::Bin {
                op: IrBinOp::Add,
                a: ax,
                b: bx,
                signed: false,
            },
            5,
        );
        p.outputs.push(OutputDef {
            name: "y".into(),
            node: sum,
        });
        p.inputs = vec!["a".into(), "b".into()];

        let mut st = CheckerState::new(&p);
        let out = step(&p, &mut st, &inputs(&[("a", 9, 4), ("b", 8, 4)])).expect("step");
        assert_eq!(out["y"].to_u64(), Some(17));
    }

    #[test]
    fn register_counter_post_edge_sampling() {
        // q' = q + 1; output y = q (sampled post-edge).
        let mut p = CheckerProgram::default();
        let q = p.push(
            Node::Reg {
                name: "q".into(),
                init: LogicVec::from_u64(4, 0),
            },
            4,
        );
        let one = p.push(Node::Const(LogicVec::from_u64(4, 1)), 4);
        let next = p.push(
            Node::Bin {
                op: IrBinOp::Add,
                a: q,
                b: one,
                signed: false,
            },
            4,
        );
        p.reg_updates.push(RegUpdate { reg: q, next });
        p.outputs.push(OutputDef {
            name: "y".into(),
            node: q,
        });
        p.sequential = true;

        let mut st = CheckerState::new(&p);
        let empty = HashMap::new();
        // Post-edge sampling: after the first step, y reads 1.
        let out1 = step(&p, &mut st, &empty).expect("step");
        assert_eq!(out1["y"].to_u64(), Some(1));
        let out2 = step(&p, &mut st, &empty).expect("step");
        assert_eq!(out2["y"].to_u64(), Some(2));
    }

    #[test]
    fn x_state_propagates() {
        // Register with x init: output is x until something defines it.
        let mut p = CheckerProgram::default();
        let q = p.push(
            Node::Reg {
                name: "q".into(),
                init: LogicVec::filled_x(4),
            },
            4,
        );
        let d = p.push(Node::Input { name: "d".into() }, 4);
        p.reg_updates.push(RegUpdate { reg: q, next: d });
        p.outputs.push(OutputDef {
            name: "q".into(),
            node: q,
        });
        let mut st = CheckerState::new(&p);
        assert!(st.reg(q).expect("reg").is_fully_unknown());
        let out = step(&p, &mut st, &inputs(&[("d", 5, 4)])).expect("step");
        assert_eq!(out["q"].to_u64(), Some(5));
    }

    #[test]
    fn missing_input_is_error() {
        let mut p = CheckerProgram::default();
        let a = p.push(Node::Input { name: "a".into() }, 4);
        p.outputs.push(OutputDef {
            name: "y".into(),
            node: a,
        });
        let mut st = CheckerState::new(&p);
        assert!(step(&p, &mut st, &HashMap::new()).is_err());
    }

    #[test]
    fn mux_x_merge() {
        let mut p = CheckerProgram::default();
        let sel = p.push(Node::Const(LogicVec::filled_x(1)), 1);
        let t = p.push(Node::Const(LogicVec::from_u64(2, 0b10)), 2);
        let f = p.push(Node::Const(LogicVec::from_u64(2, 0b11)), 2);
        let m = p.push(Node::Mux { sel, t, f }, 2);
        p.outputs.push(OutputDef {
            name: "y".into(),
            node: m,
        });
        let mut st = CheckerState::new(&p);
        let out = step(&p, &mut st, &HashMap::new()).expect("step");
        assert_eq!(out["y"].bit(1), Bit::One);
        assert_eq!(out["y"].bit(0), Bit::X);
    }
}
