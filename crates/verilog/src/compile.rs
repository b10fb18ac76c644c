//! Compile-once execution form of an elaborated [`Design`].
//!
//! The tree-walking evaluator in [`crate::design`] re-dispatches on every
//! `RExpr` node and allocates a fresh [`LogicVec`] per node, and the
//! original simulator additionally deep-cloned each [`Instr`] it executed.
//! This module flattens every expression of a design — continuous-assign
//! right-hand sides, process-instruction operands, case labels, dynamic
//! lvalue indices, system-task arguments — into a linear, register-based
//! op sequence ([`EOp`]) over a shared scratch file whose slot widths are
//! known at compile time. The executor writes each op's result into its
//! preallocated register with the in-place `LogicVec` ops, so steady-state
//! evaluation of ≤64-bit designs performs **zero heap allocations** and
//! zero instruction cloning.
//!
//! Semantic equivalence with the tree-walker is load-bearing (the
//! simulation cache and the differential tests both rely on it): each op
//! mirrors one `eval` case and calls the same `LogicVec` primitives, and
//! the rare constructs whose *runtime* result width can diverge from the
//! static prediction (exponentiation with a widened base, ternaries with
//! width-mismatched branches) compile to a [`EOp::Fallback`] that invokes
//! the tree-walker for exactly that node.

use crate::ast::{BinaryOp, CaseKind, Edge, UnaryOp};
use crate::design::{
    eval, invert, signed_divmod, Design, Instr, RExpr, RExprKind, RLValue, RSysArg, SigRead,
    SignalId,
};
use crate::logic::{Bit, LogicVec};

/// Index of a compiled expression unit in [`CompiledDesign`]'s pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExprId(pub(crate) u32);

/// One compiled expression: a linear op sequence leaving its result in
/// register `out`.
#[derive(Clone, Debug)]
pub(crate) struct ExprUnit {
    pub(crate) ops: Vec<EOp>,
    pub(crate) out: u32,
}

/// A register-based expression op. `dst` is always a register strictly
/// greater than every operand register (registers are allocated in
/// post-order), which lets the executor borrow-split the scratch file.
#[derive(Clone, Debug)]
pub(crate) enum EOp {
    /// Copy a pre-resized literal from the pool.
    Lit { dst: u32, lit: u32 },
    /// Load a signal, resized to the register width.
    Sig {
        dst: u32,
        sig: SignalId,
        signed: bool,
    },
    /// `$time`, zero-extended to the register width (≥ 64).
    Time { dst: u32 },
    /// Unary operator (`Plus` is never emitted — it aliases its operand).
    Unary { op: UnaryOp, dst: u32, a: u32 },
    /// Binary operator. `signed` carries the operator-specific signedness
    /// (node signedness for `Div`/`Mod`, operand signedness for `AShr`,
    /// joint signedness for comparisons); `ctx` the evaluation context
    /// width where the tree-walker consults it (`Div`/`Mod`/`Pow`).
    Binary {
        op: BinaryOp,
        signed: bool,
        ctx: u32,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `cond ? t : f` with Verilog X-merge semantics (both branches are
    /// pre-evaluated; expression evaluation is side-effect free).
    Ternary { dst: u32, cond: u32, t: u32, f: u32 },
    /// Concatenation of part registers, MSB first.
    Concat { dst: u32, parts: Vec<u32> },
    /// Replication of a part register.
    Repl { dst: u32, a: u32, n: u32 },
    /// Dynamic bit select on a signal.
    BitSel { dst: u32, sig: SignalId, idx: u32 },
    /// Constant part select on a signal.
    PartSel {
        dst: u32,
        sig: SignalId,
        lo: u32,
        w: u32,
    },
    /// Indexed part select `sig[base +: w]`.
    IndexedPart {
        dst: u32,
        sig: SignalId,
        base: u32,
        w: u32,
    },
    /// Final width adjustment (assignment contexts).
    Resize { dst: u32, a: u32, signed: bool },
    /// Tree-walk escape hatch for width-dynamic nodes.
    Fallback { dst: u32, fb: u32 },
}

/// A compiled assignment target. Dynamic indices are expression units
/// evaluated lazily during the write walk, mirroring the tree-walker's
/// evaluation order for concatenated targets.
#[derive(Clone, Debug)]
pub(crate) enum CLValue {
    /// Whole signal.
    Sig(SignalId),
    /// One dynamically-selected bit.
    Bit(SignalId, ExprId),
    /// Constant slice: low bit (rebased) and width.
    Part(SignalId, usize, usize),
    /// Indexed part select.
    IndexedPart(SignalId, ExprId, usize),
    /// Concatenation of targets, MSB first.
    Concat(Vec<CLValue>),
}

impl CLValue {
    /// Total width of the target.
    pub(crate) fn width(&self, design: &Design) -> usize {
        match self {
            CLValue::Sig(s) => design.signal(*s).width,
            CLValue::Bit(_, _) => 1,
            CLValue::Part(_, _, w) | CLValue::IndexedPart(_, _, w) => *w,
            CLValue::Concat(parts) => parts.iter().map(|p| p.width(design)).sum(),
        }
    }
}

/// A compiled system-task argument.
#[derive(Clone, Debug)]
pub(crate) enum CSysArg {
    /// String literal (format strings).
    Str(String),
    /// Expression argument.
    Expr(ExprId),
}

/// One compiled process instruction. Control flow mirrors
/// [`crate::design::Instr`]; every embedded expression is an [`ExprId`].
#[derive(Clone, Debug)]
pub(crate) enum CInstr {
    /// Blocking assignment.
    Assign { lhs: CLValue, rhs: ExprId },
    /// Non-blocking assignment.
    NbAssign { lhs: CLValue, rhs: ExprId },
    /// Jump to `target` if the condition is not true.
    JumpIfFalse { cond: ExprId, target: usize },
    /// Unconditional jump.
    Jump(usize),
    /// Backward jump closing a zero-time loop: no `Delay` or `WaitEvent`
    /// lies between `head` and this instruction. The simulator's runaway
    /// detector runs here; `guard` is set when the loop has the counted
    /// shape (see [`CountedGuard`]).
    LoopBack {
        head: usize,
        guard: Option<CountedGuard>,
    },
    /// Multi-way branch for `case`/`casez`/`casex`.
    CaseJump {
        sel: ExprId,
        kind: CaseKind,
        arms: Vec<(Vec<ExprId>, usize)>,
        default: usize,
    },
    /// Suspend for `n` ticks.
    Delay(u64),
    /// Suspend until one of the edges occurs.
    WaitEvent(Vec<(Edge, SignalId)>),
    /// Invoke a system task.
    SysCall { name: String, args: Vec<CSysArg> },
    /// Terminate the process.
    Halt,
}

/// A compiled continuous assignment (the trigger list stays in the
/// underlying [`Design`]).
#[derive(Clone, Debug)]
pub(crate) struct CAssign {
    pub(crate) lhs: CLValue,
    pub(crate) rhs: ExprId,
}

/// A counted zero-time loop, as laid out by the elaborator's `for`/`while`
/// lowering:
///
/// ```text
/// H:    if !(v REL k) goto B+1     REL ∈ {<, <=, >, >=}, either operand order
///       …body…                     no suspension, no $finish/$stop, no write
///                                  to v, every jump lands inside the body
/// B-1:  v = v ± c  (or c + v)      c a literal
/// B:    goto H                     the LoopBack carrying this guard
/// ```
///
/// where `k` reads no signal the loop writes. Within one activation `v`
/// then walks `v, v + step, v + 2·step, …` (mod 2^width) and `k` is
/// constant, which is what lets the simulator prove the loop outlives its
/// step budget without running it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CountedGuard {
    /// The loop variable.
    pub(crate) var: SignalId,
    /// What one execution of the step adds to `var`, modulo 2^width.
    pub(crate) step: u64,
}

/// A compiled process body.
#[derive(Clone, Debug)]
pub(crate) struct CProcess {
    pub(crate) code: Vec<CInstr>,
    /// Signals the process writes with blocking assignments: together
    /// with the pc, the state of an activation that the runaway detector
    /// compares. Left empty for processes without a [`CInstr::LoopBack`].
    pub(crate) written: Box<[SignalId]>,
}

/// An elaborated design together with its compile-once execution form:
/// bytecode for every expression and process, a literal pool, and the
/// scratch-register layout the executor preallocates.
///
/// Build one with [`compile`] (or [`CompiledDesign::new`] to consume the
/// design) and run it many times via
/// [`Simulator::from_compiled`](crate::sim::Simulator::from_compiled) —
/// the compile step happens once per design, not once per simulation.
#[derive(Clone, Debug)]
pub struct CompiledDesign {
    pub(crate) design: Design,
    pub(crate) assigns: Vec<CAssign>,
    pub(crate) processes: Vec<CProcess>,
    pub(crate) exprs: Vec<ExprUnit>,
    pub(crate) lits: Vec<LogicVec>,
    /// `(expression, eval context)` pairs for [`EOp::Fallback`].
    pub(crate) fallbacks: Vec<(RExpr, usize)>,
    /// Width of each scratch register.
    pub(crate) reg_widths: Vec<u32>,
}

impl CompiledDesign {
    /// Compiles `design`, consuming it.
    pub fn new(design: Design) -> CompiledDesign {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Compile);
        let mut c = Compiler {
            design: &design,
            exprs: Vec::new(),
            lits: Vec::new(),
            fallbacks: Vec::new(),
            reg_widths: Vec::new(),
        };
        let assigns = design
            .assigns
            .iter()
            .map(|a| CAssign {
                lhs: c.compile_lvalue(&a.lhs),
                rhs: c.compile_assign_rhs(&a.rhs, a.lhs.width(c.design)),
            })
            .collect();
        let processes = design
            .processes
            .iter()
            .map(|p| c.compile_process(&p.code))
            .collect();
        let Compiler {
            exprs,
            lits,
            fallbacks,
            reg_widths,
            ..
        } = c;
        CompiledDesign {
            design,
            assigns,
            processes,
            exprs,
            lits,
            fallbacks,
            reg_widths,
        }
    }

    /// The underlying elaborated design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The output register of expression unit `id`.
    pub(crate) fn out_reg(&self, id: ExprId) -> usize {
        self.exprs[id.0 as usize].out as usize
    }

    /// A fresh scratch register file sized for this design's bytecode.
    pub(crate) fn new_scratch(&self) -> Vec<LogicVec> {
        self.reg_widths
            .iter()
            .map(|&w| LogicVec::zeros((w as usize).max(1)))
            .collect()
    }
}

/// Compiles a borrowed design (clones it into the result).
pub fn compile(design: &Design) -> CompiledDesign {
    CompiledDesign::new(design.clone())
}

// ---- compilation ----

struct Compiler<'d> {
    design: &'d Design,
    exprs: Vec<ExprUnit>,
    lits: Vec<LogicVec>,
    fallbacks: Vec<(RExpr, usize)>,
    reg_widths: Vec<u32>,
}

impl<'d> Compiler<'d> {
    fn alloc(&mut self, width: usize) -> u32 {
        let r = self.reg_widths.len() as u32;
        self.reg_widths.push(width.max(1) as u32);
        r
    }

    /// Compiles `e` evaluated at context `ctx` into a standalone unit.
    fn compile_unit(&mut self, e: &RExpr, ctx: usize) -> ExprId {
        let mut ops = Vec::new();
        let node = self.compile_node(&mut ops, e, ctx);
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(ExprUnit { ops, out: node.reg });
        id
    }

    /// Compiles an assignment RHS: evaluated at `max(lhs_width, e.width)`
    /// then resized to the target width, exactly as the tree-walker does.
    fn compile_assign_rhs(&mut self, e: &RExpr, lhs_width: usize) -> ExprId {
        let ctx = lhs_width.max(e.width);
        let mut ops = Vec::new();
        let Node {
            reg: val,
            rw,
            dynamic,
        } = self.compile_node(&mut ops, e, ctx);
        let out = if rw == lhs_width && !dynamic {
            // resize() at the value's own (static) width is the identity.
            val
        } else {
            let dst = self.alloc(lhs_width);
            ops.push(EOp::Resize {
                dst,
                a: val,
                signed: e.signed,
            });
            dst
        };
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(ExprUnit { ops, out });
        id
    }

    fn compile_lvalue(&mut self, lv: &RLValue) -> CLValue {
        match lv {
            RLValue::Sig(s) => CLValue::Sig(*s),
            RLValue::Part(s, lo, w) => CLValue::Part(*s, *lo, *w),
            RLValue::Bit(s, idx) => CLValue::Bit(*s, self.compile_unit(idx, idx.width)),
            RLValue::IndexedPart(s, base, w) => {
                CLValue::IndexedPart(*s, self.compile_unit(base, base.width), *w)
            }
            RLValue::Concat(parts) => {
                CLValue::Concat(parts.iter().map(|p| self.compile_lvalue(p)).collect())
            }
        }
    }

    /// Compiles a process body, turning the back-edge of every zero-time
    /// loop into a [`CInstr::LoopBack`]. Processes without one skip the
    /// loop analysis and carry no written-signal set.
    fn compile_process(&mut self, code: &[Instr]) -> CProcess {
        let mut out: Vec<CInstr> = code.iter().map(|i| self.compile_instr(i)).collect();
        let mut looped = false;
        for (back, head) in zero_time_back_edges(code) {
            out[back] = CInstr::LoopBack {
                head,
                guard: counted_guard(self.design, code, head, back),
            };
            looped = true;
        }
        let mut written = Vec::new();
        if looped {
            for instr in code {
                if let Instr::Assign(lhs, _) = instr {
                    lhs.collect_sigs(&mut written);
                }
            }
            written.sort();
            written.dedup();
        }
        CProcess {
            code: out,
            written: written.into_boxed_slice(),
        }
    }

    fn compile_instr(&mut self, instr: &Instr) -> CInstr {
        match instr {
            Instr::Assign(lhs, rhs) => CInstr::Assign {
                rhs: self.compile_assign_rhs(rhs, lhs.width(self.design)),
                lhs: self.compile_lvalue(lhs),
            },
            Instr::NbAssign(lhs, rhs) => CInstr::NbAssign {
                rhs: self.compile_assign_rhs(rhs, lhs.width(self.design)),
                lhs: self.compile_lvalue(lhs),
            },
            Instr::JumpIfFalse(cond, target) => CInstr::JumpIfFalse {
                cond: self.compile_unit(cond, cond.width),
                target: *target,
            },
            Instr::Jump(t) => CInstr::Jump(*t),
            Instr::CaseJump {
                expr,
                kind,
                arms,
                default,
            } => {
                let sel_w = arms
                    .iter()
                    .flat_map(|(ls, _)| ls.iter().map(|l| l.width))
                    .fold(expr.width, usize::max);
                CInstr::CaseJump {
                    sel: self.compile_unit(expr, sel_w),
                    kind: *kind,
                    arms: arms
                        .iter()
                        .map(|(labels, t)| {
                            (
                                labels.iter().map(|l| self.compile_unit(l, sel_w)).collect(),
                                *t,
                            )
                        })
                        .collect(),
                    default: *default,
                }
            }
            Instr::Delay(d) => CInstr::Delay(*d),
            Instr::WaitEvent(edges) => CInstr::WaitEvent(edges.clone()),
            Instr::SysCall { name, args } => CInstr::SysCall {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| match a {
                        RSysArg::Str(s) => CSysArg::Str(s.clone()),
                        RSysArg::Expr(e) => CSysArg::Expr(self.compile_unit(e, e.width)),
                    })
                    .collect(),
            },
            Instr::Halt => CInstr::Halt,
        }
    }

    /// Emits ops computing `e` at context `ctx`; returns the result
    /// register, its static result width, and whether the *runtime* width
    /// can diverge from that prediction (possible only downstream of a
    /// [`EOp::Fallback`]).
    fn compile_node(&mut self, ops: &mut Vec<EOp>, e: &RExpr, ctx: usize) -> Node {
        let ctx = ctx.max(e.width);
        match &e.kind {
            RExprKind::Lit(v) => {
                let lit = self.lits.len() as u32;
                self.lits.push(v.resize(ctx, e.signed));
                let dst = self.alloc(ctx);
                ops.push(EOp::Lit { dst, lit });
                Node::fixed(dst, ctx)
            }
            RExprKind::Sig(s) => {
                let dst = self.alloc(ctx);
                ops.push(EOp::Sig {
                    dst,
                    sig: *s,
                    signed: e.signed,
                });
                Node::fixed(dst, ctx)
            }
            RExprKind::Time => {
                let w = ctx.max(64);
                let dst = self.alloc(w);
                ops.push(EOp::Time { dst });
                Node::fixed(dst, w)
            }
            RExprKind::Unary(op, a) => match op {
                UnaryOp::Plus => self.compile_node(ops, a, ctx),
                UnaryOp::Neg | UnaryOp::Not => {
                    let na = self.compile_node(ops, a, ctx);
                    let dst = self.alloc(na.rw);
                    ops.push(EOp::Unary {
                        op: *op,
                        dst,
                        a: na.reg,
                    });
                    Node {
                        reg: dst,
                        rw: na.rw,
                        dynamic: na.dynamic,
                    }
                }
                _ => {
                    // Logical not and the reductions are self-determined
                    // and produce a bit extended to the context.
                    let na = self.compile_node(ops, a, a.width);
                    let dst = self.alloc(ctx);
                    ops.push(EOp::Unary {
                        op: *op,
                        dst,
                        a: na.reg,
                    });
                    Node::fixed(dst, ctx)
                }
            },
            RExprKind::Binary(op, a, b) => self.compile_binary(ops, e, *op, a, b, ctx),
            RExprKind::Ternary(c, t, f) => {
                if result_width(t, ctx) != ctx || result_width(f, ctx) != ctx {
                    // Branch widths diverge from the context (only possible
                    // through `$time` widening): runtime width depends on
                    // which branch is taken — fall back to the tree-walker.
                    return self.fallback(ops, e, ctx);
                }
                let nc = self.compile_node(ops, c, c.width);
                let nt = self.compile_node(ops, t, ctx);
                let nf = self.compile_node(ops, f, ctx);
                let dst = self.alloc(ctx);
                ops.push(EOp::Ternary {
                    dst,
                    cond: nc.reg,
                    t: nt.reg,
                    f: nf.reg,
                });
                // A known condition hands through the branch value at its
                // runtime width.
                Node {
                    reg: dst,
                    rw: ctx,
                    dynamic: nt.dynamic || nf.dynamic,
                }
            }
            RExprKind::Concat(parts) => {
                let regs: Vec<u32> = parts
                    .iter()
                    .map(|p| self.compile_node(ops, p, p.width).reg)
                    .collect();
                let dst = self.alloc(ctx);
                ops.push(EOp::Concat { dst, parts: regs });
                Node::fixed(dst, ctx)
            }
            RExprKind::Repl(n, inner) => {
                let na = self.compile_node(ops, inner, inner.width);
                let dst = self.alloc(ctx);
                ops.push(EOp::Repl {
                    dst,
                    a: na.reg,
                    n: *n as u32,
                });
                Node::fixed(dst, ctx)
            }
            RExprKind::Bit(s, idx) => {
                let ni = self.compile_node(ops, idx, idx.width);
                let dst = self.alloc(ctx);
                ops.push(EOp::BitSel {
                    dst,
                    sig: *s,
                    idx: ni.reg,
                });
                Node::fixed(dst, ctx)
            }
            RExprKind::Part(s, lo, w) => {
                let dst = self.alloc(ctx);
                ops.push(EOp::PartSel {
                    dst,
                    sig: *s,
                    lo: *lo as u32,
                    w: *w as u32,
                });
                Node::fixed(dst, ctx)
            }
            RExprKind::IndexedPart(s, base, w) => {
                let nb = self.compile_node(ops, base, base.width);
                let dst = self.alloc(ctx);
                ops.push(EOp::IndexedPart {
                    dst,
                    sig: *s,
                    base: nb.reg,
                    w: *w as u32,
                });
                Node::fixed(dst, ctx)
            }
        }
    }

    fn compile_binary(
        &mut self,
        ops: &mut Vec<EOp>,
        e: &RExpr,
        op: BinaryOp,
        a: &RExpr,
        b: &RExpr,
        ctx: usize,
    ) -> Node {
        use BinaryOp::*;
        let (signed, actx, bctx) = match op {
            Div | Mod => (e.signed, ctx, ctx),
            AShr => (a.signed, ctx, b.width),
            Shl | AShl | Shr => (false, ctx, b.width),
            Pow => (false, ctx, b.width),
            Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => {
                let w = a.width.max(b.width);
                (a.signed && b.signed, w, w)
            }
            LogicAnd | LogicOr => (false, a.width, b.width),
            _ => (false, ctx, ctx),
        };
        if op == Pow && result_width(a, ctx) != ctx {
            // `x ** 0` yields a ctx-width 1 while other exponents keep the
            // base's width: runtime-dynamic when they differ.
            return self.fallback(ops, e, ctx);
        }
        let na = self.compile_node(ops, a, actx);
        let nb = self.compile_node(ops, b, bctx);
        let (w, dynamic) = match op {
            Add | Sub | Mul | And | Or | Xor | Xnor => (na.rw.max(nb.rw), na.dynamic || nb.dynamic),
            Div | Mod => {
                if e.signed {
                    (ctx, false)
                } else {
                    (na.rw.max(nb.rw), na.dynamic || nb.dynamic)
                }
            }
            // The shift amount never affects the result width.
            Shl | AShl | Shr | AShr => (na.rw, na.dynamic),
            // `exec_pow` widens to the base's runtime width.
            Pow => (ctx, na.dynamic),
            _ => (ctx, false),
        };
        let dst = self.alloc(w);
        ops.push(EOp::Binary {
            op,
            signed,
            ctx: ctx as u32,
            dst,
            a: na.reg,
            b: nb.reg,
        });
        Node {
            reg: dst,
            rw: w,
            dynamic,
        }
    }

    fn fallback(&mut self, ops: &mut Vec<EOp>, e: &RExpr, ctx: usize) -> Node {
        let fb = self.fallbacks.len() as u32;
        self.fallbacks.push((e.clone(), ctx));
        let rw = result_width(e, ctx);
        let dst = self.alloc(rw);
        ops.push(EOp::Fallback { dst, fb });
        Node {
            reg: dst,
            rw,
            dynamic: true,
        }
    }
}

/// One compiled expression node: its result register, the statically
/// predicted result width, and whether the runtime width can diverge.
struct Node {
    reg: u32,
    rw: usize,
    dynamic: bool,
}

impl Node {
    fn fixed(reg: u32, rw: usize) -> Node {
        Node {
            reg,
            rw,
            dynamic: false,
        }
    }
}

/// The width `eval(e, ctx, _)` returns. For the two runtime-dynamic cases
/// (see [`Compiler::fallback`]) this returns the widest possibility; the
/// compiler checks the exact condition before relying on it.
fn result_width(e: &RExpr, ctx: usize) -> usize {
    use BinaryOp::*;
    let ctx = ctx.max(e.width);
    match &e.kind {
        RExprKind::Time => ctx.max(64),
        RExprKind::Unary(UnaryOp::Plus | UnaryOp::Neg | UnaryOp::Not, a) => result_width(a, ctx),
        RExprKind::Binary(op, a, b) => match op {
            Add | Sub | Mul | And | Or | Xor | Xnor => {
                result_width(a, ctx).max(result_width(b, ctx))
            }
            Div | Mod => {
                if e.signed {
                    ctx
                } else {
                    result_width(a, ctx).max(result_width(b, ctx))
                }
            }
            Shl | AShl | Shr | AShr => result_width(a, ctx),
            Pow => result_width(a, ctx).max(ctx),
            _ => ctx,
        },
        RExprKind::Ternary(_, t, f) => result_width(t, ctx).max(result_width(f, ctx)).max(ctx),
        _ => ctx,
    }
}

// ---- loop analysis ----

/// `(back, head)` of every backward jump whose loop cannot suspend: no
/// `Delay` or `WaitEvent` in `code[head..=back]`. The jump of an `always`
/// block back to its event control is not one of them.
fn zero_time_back_edges(code: &[Instr]) -> impl Iterator<Item = (usize, usize)> + '_ {
    code.iter()
        .enumerate()
        .filter_map(|(back, instr)| match instr {
            Instr::Jump(head)
                if *head <= back
                    && !code[*head..=back]
                        .iter()
                        .any(|i| matches!(i, Instr::Delay(_) | Instr::WaitEvent(_))) =>
            {
                Some((back, *head))
            }
            _ => None,
        })
}

/// The [`CountedGuard`] of the zero-time loop `code[head..=back]`, when
/// the loop has the counted shape.
fn counted_guard(
    design: &Design,
    code: &[Instr],
    head: usize,
    back: usize,
) -> Option<CountedGuard> {
    if back < head + 2 {
        return None;
    }
    let (Instr::JumpIfFalse(cond, exit), Instr::Assign(RLValue::Sig(var), step)) =
        (&code[head], &code[back - 1])
    else {
        return None;
    };
    let var = *var;
    let is_var = |e: &RExpr| matches!(e.kind, RExprKind::Sig(s) if s == var);
    let RExprKind::Binary(BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge, a, b) =
        &cond.kind
    else {
        return None;
    };
    let bound = match (is_var(a), is_var(b)) {
        (true, false) => b,
        (false, true) => a,
        _ => return None,
    };
    if *exit != back + 1 {
        return None;
    }
    let step = affine_step(design, var, step)?;
    let in_body = |t: usize| head < t && t < back;
    let mut writes = Vec::new();
    for instr in &code[head + 1..back - 1] {
        let stays = match instr {
            Instr::Assign(lhs, _) => {
                lhs.collect_sigs(&mut writes);
                true
            }
            Instr::NbAssign(..) => true,
            Instr::Jump(t) | Instr::JumpIfFalse(_, t) => in_body(*t),
            Instr::CaseJump { arms, default, .. } => {
                in_body(*default) && arms.iter().all(|(_, t)| in_body(*t))
            }
            Instr::SysCall { name, .. } => !matches!(name.as_str(), "$finish" | "$stop"),
            Instr::Delay(_) | Instr::WaitEvent(_) | Instr::Halt => false,
        };
        if !stays {
            return None;
        }
    }
    if writes.contains(&var) {
        return None;
    }
    writes.push(var);
    let mut reads = Vec::new();
    bound.collect_sigs(&mut reads);
    if reads.iter().any(|s| writes.contains(s)) {
        return None;
    }
    Some(CountedGuard { var, step })
}

/// What the step `var = rhs` adds to `var`, modulo 2^width, when `rhs` is
/// `var + c`, `c + var` or `var - c` for a known literal `c` and `var` is
/// at most 64 bits wide. The low `width` bits of a sum or difference
/// depend only on the low `width` bits of its operands, so the step maps
/// every known `var` to `var + step`, where `step` is what the
/// assignment stores for `var = 0`.
fn affine_step(design: &Design, var: SignalId, rhs: &RExpr) -> Option<u64> {
    let RExprKind::Binary(op, a, b) = &rhs.kind else {
        return None;
    };
    let is_var = |e: &RExpr| matches!(e.kind, RExprKind::Sig(s) if s == var);
    let is_lit = |e: &RExpr| matches!(e.kind, RExprKind::Lit(_));
    let affine = match op {
        BinaryOp::Add => (is_var(a) && is_lit(b)) || (is_lit(a) && is_var(b)),
        BinaryOp::Sub => is_var(a) && is_lit(b),
        _ => false,
    };
    let width = design.signal(var).width;
    if !affine || !(1..=64).contains(&width) {
        return None;
    }
    let zero = OneSignal(LogicVec::zeros(width));
    eval(rhs, width.max(rhs.width), &zero)
        .resize(width, rhs.signed)
        .to_u64()
}

/// A store answering every read with one value: enough for an
/// expression that reads a single signal.
struct OneSignal(LogicVec);

impl SigRead for OneSignal {
    fn read(&self, _: SignalId) -> &LogicVec {
        &self.0
    }
    fn now(&self) -> u64 {
        0
    }
}

// ---- execution ----

/// Signal-value view the executor and the fallback evaluator read from.
pub(crate) struct ValueStore<'a> {
    pub(crate) values: &'a [LogicVec],
    pub(crate) time: u64,
}

impl SigRead for ValueStore<'_> {
    fn read(&self, id: SignalId) -> &LogicVec {
        &self.values[id.0 as usize]
    }
    fn now(&self) -> u64 {
        self.time
    }
}

/// Splits the register file at `dst`: operand registers always precede
/// their consumer, so the destination can be borrowed mutably while the
/// operands stay readable.
#[inline]
fn dst_ops(regs: &mut [LogicVec], dst: u32) -> (&mut LogicVec, &[LogicVec]) {
    let (lo, hi) = regs.split_at_mut(dst as usize);
    (&mut hi[0], lo)
}

/// Stores `v` into `dst`, in place when the widths line up.
#[inline]
fn store_bit(dst: &mut LogicVec, b: Bit) {
    // from_bit(..).resize(w, false): bit 0, zeros above.
    dst.set_all_zero();
    if dst.width() >= 1 {
        dst.set_bit(0, b);
    }
}

/// Executes expression unit `id`, leaving the result in (and returning a
/// reference to) its output register.
pub(crate) fn exec_unit<'r>(
    cd: &CompiledDesign,
    id: ExprId,
    regs: &'r mut [LogicVec],
    values: &[LogicVec],
    time: u64,
) -> &'r LogicVec {
    let unit = &cd.exprs[id.0 as usize];
    for op in &unit.ops {
        exec_op(cd, op, regs, values, time);
    }
    &regs[unit.out as usize]
}

fn exec_op(cd: &CompiledDesign, op: &EOp, regs: &mut [LogicVec], values: &[LogicVec], time: u64) {
    match op {
        EOp::Lit { dst, lit } => {
            let lit = &cd.lits[*lit as usize];
            let d = &mut regs[*dst as usize];
            if d.width() == lit.width() {
                d.copy_from(lit);
            } else {
                *d = lit.clone();
            }
        }
        EOp::Sig { dst, sig, signed } => {
            regs[*dst as usize].assign_resize(&values[sig.0 as usize], *signed);
        }
        EOp::Time { dst } => {
            regs[*dst as usize].assign_resize(&LogicVec::from_u64(64, time), false);
        }
        EOp::Unary { op, dst, a } => {
            let (d, lo) = dst_ops(regs, *dst);
            let va = &lo[*a as usize];
            match op {
                UnaryOp::Plus => unreachable!("unary plus aliases its operand"),
                UnaryOp::Neg => {
                    if d.width() == va.width() {
                        d.copy_from(va);
                        d.neg_assign();
                    } else {
                        *d = va.neg();
                    }
                }
                UnaryOp::Not => {
                    if d.width() == va.width() {
                        d.copy_from(va);
                        d.not_assign();
                    } else {
                        *d = va.not();
                    }
                }
                UnaryOp::LogicNot => {
                    let b = match va.truthy() {
                        Bit::One => Bit::Zero,
                        Bit::Zero => Bit::One,
                        _ => Bit::X,
                    };
                    store_bit(d, b);
                }
                UnaryOp::RedAnd => store_bit(d, va.reduce_and()),
                UnaryOp::RedOr => store_bit(d, va.reduce_or()),
                UnaryOp::RedXor => store_bit(d, va.reduce_xor()),
                UnaryOp::RedNand => store_bit(d, invert(va.reduce_and())),
                UnaryOp::RedNor => store_bit(d, invert(va.reduce_or())),
                UnaryOp::RedXnor => store_bit(d, invert(va.reduce_xor())),
            }
        }
        EOp::Binary {
            op,
            signed,
            ctx,
            dst,
            a,
            b,
        } => {
            let (d, lo) = dst_ops(regs, *dst);
            let va = &lo[*a as usize];
            let vb = &lo[*b as usize];
            exec_binary(*op, *signed, *ctx as usize, d, va, vb);
        }
        EOp::Ternary { dst, cond, t, f } => {
            let (d, lo) = dst_ops(regs, *dst);
            let (tv, fv) = (&lo[*t as usize], &lo[*f as usize]);
            match lo[*cond as usize].truthy() {
                Bit::One => {
                    if d.width() == tv.width() {
                        d.copy_from(tv);
                    } else {
                        *d = tv.clone();
                    }
                }
                Bit::Zero => {
                    if d.width() == fv.width() {
                        d.copy_from(fv);
                    } else {
                        *d = fv.clone();
                    }
                }
                _ => {
                    // X condition: merge branch bits, X where they differ.
                    let ctx = d.width();
                    d.set_all_x();
                    for i in 0..ctx {
                        let (a, b) = (tv.bit(i), fv.bit(i));
                        if a == b && a.is_known() {
                            d.set_bit(i, a);
                        }
                    }
                }
            }
        }
        EOp::Concat { dst, parts } => {
            let (d, lo) = dst_ops(regs, *dst);
            d.set_all_zero();
            let mut at = 0usize;
            for p in parts.iter().rev() {
                let v = &lo[*p as usize];
                d.write_range(at, v, v.width());
                at += v.width();
            }
        }
        EOp::Repl { dst, a, n } => {
            let (d, lo) = dst_ops(regs, *dst);
            let v = &lo[*a as usize];
            d.set_all_zero();
            let w = v.width();
            for k in 0..*n as usize {
                if k * w >= d.width() {
                    break;
                }
                d.write_range(k * w, v, w);
            }
        }
        EOp::BitSel { dst, sig, idx } => {
            let (d, lo) = dst_ops(regs, *dst);
            let sigv = &values[sig.0 as usize];
            let b = match lo[*idx as usize].to_u64() {
                Some(i) if (i as usize) < sigv.width() => sigv.bit(i as usize),
                _ => Bit::X,
            };
            store_bit(d, b);
        }
        EOp::PartSel { dst, sig, lo, w } => {
            regs[*dst as usize].assign_slice_ext(
                &values[sig.0 as usize],
                *lo as usize,
                *w as usize,
            );
        }
        EOp::IndexedPart { dst, sig, base, w } => {
            let (d, lo) = dst_ops(regs, *dst);
            let sigv = &values[sig.0 as usize];
            match lo[*base as usize].to_u64() {
                Some(b) => d.assign_slice_ext(sigv, b as usize, *w as usize),
                None => {
                    let x = LogicVec::filled_x(*w as usize);
                    d.assign_slice_ext(&x, 0, *w as usize);
                }
            }
        }
        EOp::Resize { dst, a, signed } => {
            let (d, lo) = dst_ops(regs, *dst);
            d.assign_resize(&lo[*a as usize], *signed);
        }
        EOp::Fallback { dst, fb } => {
            let (e, ctx) = &cd.fallbacks[*fb as usize];
            let store = ValueStore { values, time };
            regs[*dst as usize] = eval(e, *ctx, &store);
        }
    }
}

fn exec_binary(
    op: BinaryOp,
    signed: bool,
    ctx: usize,
    d: &mut LogicVec,
    va: &LogicVec,
    vb: &LogicVec,
) {
    use BinaryOp::*;
    let same = d.width() == va.width() && va.width() == vb.width();
    match op {
        Add if same => {
            d.copy_from(va);
            d.add_assign(vb);
        }
        Sub if same => {
            d.copy_from(va);
            d.sub_assign(vb);
        }
        And if same => {
            d.copy_from(va);
            d.and_assign(vb);
        }
        Or if same => {
            d.copy_from(va);
            d.or_assign(vb);
        }
        Xor if same => {
            d.copy_from(va);
            d.xor_assign(vb);
        }
        Xnor if same => {
            d.copy_from(va);
            d.xnor_assign(vb);
        }
        Add => *d = va.add(vb),
        Sub => *d = va.sub(vb),
        Mul => *d = va.mul(vb),
        And => *d = va.and(vb),
        Or => *d = va.or(vb),
        Xor => *d = va.xor(vb),
        Xnor => *d = va.xnor(vb),
        Div => {
            *d = if signed {
                signed_divmod(va, vb, ctx, true)
            } else {
                va.div(vb)
            }
        }
        Mod => {
            *d = if signed {
                signed_divmod(va, vb, ctx, false)
            } else {
                va.rem(vb)
            }
        }
        Pow => *d = exec_pow(va, vb, ctx),
        LogicAnd | LogicOr => {
            let (ta, tb) = (va.truthy(), vb.truthy());
            let r = if op == LogicAnd {
                match (ta, tb) {
                    (Bit::Zero, _) | (_, Bit::Zero) => Bit::Zero,
                    (Bit::One, Bit::One) => Bit::One,
                    _ => Bit::X,
                }
            } else {
                match (ta, tb) {
                    (Bit::One, _) | (_, Bit::One) => Bit::One,
                    (Bit::Zero, Bit::Zero) => Bit::Zero,
                    _ => Bit::X,
                }
            };
            store_bit(d, r);
        }
        Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => {
            let r = match op {
                Eq => va.eq_logic(vb),
                Ne => invert(va.eq_logic(vb)),
                CaseEq => va.eq_case(vb),
                CaseNe => invert(va.eq_case(vb)),
                Lt => va.lt(vb, signed),
                Ge => invert(va.lt(vb, signed)),
                Gt => vb.lt(va, signed),
                Le => invert(vb.lt(va, signed)),
                _ => unreachable!(),
            };
            store_bit(d, r);
        }
        Shl | AShl => *d = va.shl(vb),
        Shr => *d = va.shr(vb),
        AShr => {
            *d = if signed { va.ashr(vb) } else { va.shr(vb) };
        }
    }
}

/// Mirrors the tree-walker's exponentiation (square-and-multiply over
/// `LogicVec::mul`, all-`x` on unknown inputs).
fn exec_pow(base: &LogicVec, exp: &LogicVec, ctx: usize) -> LogicVec {
    match exp.to_u64() {
        None => LogicVec::filled_x(ctx),
        Some(mut e) => {
            if !base.is_fully_known() {
                return LogicVec::filled_x(ctx);
            }
            let mut acc = LogicVec::from_u64(ctx, 1);
            let mut sq = base.clone();
            while e > 0 {
                if e & 1 == 1 {
                    acc = acc.mul(&sq);
                }
                e >>= 1;
                if e > 0 {
                    sq = sq.mul(&sq);
                }
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{SignalDef, SignalKind};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Signal widths straddling the inline/spilled LogicVec boundary.
    const SIG_WIDTHS: &[usize] = &[1, 7, 8, 16, 33, 63, 64, 65, 80, 100];

    fn test_design() -> Design {
        Design {
            signals: SIG_WIDTHS
                .iter()
                .enumerate()
                .map(|(i, &w)| SignalDef {
                    name: format!("s{i}"),
                    width: w,
                    signed: i % 3 == 0,
                    lsb: 0,
                    kind: SignalKind::Reg,
                })
                .collect(),
            assigns: Vec::new(),
            processes: Vec::new(),
        }
    }

    fn rand_logic(rng: &mut StdRng, width: usize) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        // Mostly-known values with occasional x/z islands, so arithmetic
        // stays interesting while x-propagation is still exercised.
        let unknowns = rng.gen_bool(0.4);
        for i in 0..width {
            let b = if unknowns && rng.gen_bool(0.15) {
                if rng.gen_bool(0.5) {
                    Bit::X
                } else {
                    Bit::Z
                }
            } else if rng.gen_bool(0.5) {
                Bit::One
            } else {
                Bit::Zero
            };
            v.set_bit(i, b);
        }
        v
    }

    fn rand_values(rng: &mut StdRng) -> Vec<LogicVec> {
        SIG_WIDTHS.iter().map(|&w| rand_logic(rng, w)).collect()
    }

    const UNARY_OPS: &[UnaryOp] = &[
        UnaryOp::Plus,
        UnaryOp::Neg,
        UnaryOp::Not,
        UnaryOp::LogicNot,
        UnaryOp::RedAnd,
        UnaryOp::RedOr,
        UnaryOp::RedXor,
        UnaryOp::RedNand,
        UnaryOp::RedNor,
        UnaryOp::RedXnor,
    ];

    const BINARY_OPS: &[BinaryOp] = &[
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Mod,
        BinaryOp::Pow,
        BinaryOp::And,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Xnor,
        BinaryOp::LogicAnd,
        BinaryOp::LogicOr,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::CaseEq,
        BinaryOp::CaseNe,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::Shl,
        BinaryOp::Shr,
        BinaryOp::AShl,
        BinaryOp::AShr,
    ];

    /// A random expression tree over the test signal table. Node width
    /// annotations follow the elaborator's sizing rules most of the time
    /// but are randomly perturbed, which exercises every context-widening
    /// path (and routinely drives the Pow/Ternary fallback cases).
    fn rand_expr(rng: &mut StdRng, depth: usize) -> RExpr {
        let signed = rng.gen_bool(0.3);
        let leaf = depth == 0 || rng.gen_bool(0.25);
        let mut e = if leaf {
            match rng.gen_range(0u32..8) {
                0 | 1 => {
                    let w = rng.gen_range(1usize..=100);
                    RExpr {
                        width: w,
                        signed,
                        kind: RExprKind::Lit(rand_logic(rng, w)),
                    }
                }
                2 => RExpr {
                    width: 64,
                    signed: false,
                    kind: RExprKind::Time,
                },
                _ => {
                    let s = rng.gen_range(0usize..SIG_WIDTHS.len());
                    RExpr {
                        width: SIG_WIDTHS[s],
                        signed,
                        kind: RExprKind::Sig(SignalId(s as u32)),
                    }
                }
            }
        } else {
            match rng.gen_range(0u32..8) {
                0 => {
                    let op = UNARY_OPS[rng.gen_range(0usize..UNARY_OPS.len())];
                    let a = rand_expr(rng, depth - 1);
                    let width = match op {
                        UnaryOp::Plus | UnaryOp::Neg | UnaryOp::Not => a.width,
                        _ => 1,
                    };
                    RExpr {
                        width,
                        signed,
                        kind: RExprKind::Unary(op, Box::new(a)),
                    }
                }
                1 | 2 => {
                    let op = BINARY_OPS[rng.gen_range(0usize..BINARY_OPS.len())];
                    let a = rand_expr(rng, depth - 1);
                    let b = rand_expr(rng, depth - 1);
                    use BinaryOp::*;
                    let width = match op {
                        LogicAnd | LogicOr | Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => 1,
                        Shl | AShl | Shr | AShr | Pow => a.width,
                        _ => a.width.max(b.width),
                    };
                    RExpr {
                        width,
                        signed,
                        kind: RExprKind::Binary(op, Box::new(a), Box::new(b)),
                    }
                }
                3 => {
                    let c = rand_expr(rng, depth - 1);
                    let t = rand_expr(rng, depth - 1);
                    let f = rand_expr(rng, depth - 1);
                    RExpr {
                        width: t.width.max(f.width),
                        signed,
                        kind: RExprKind::Ternary(Box::new(c), Box::new(t), Box::new(f)),
                    }
                }
                4 => {
                    let n = rng.gen_range(1usize..=3);
                    let parts: Vec<RExpr> = (0..n).map(|_| rand_expr(rng, depth - 1)).collect();
                    RExpr {
                        width: parts.iter().map(|p| p.width).sum(),
                        signed: false,
                        kind: RExprKind::Concat(parts),
                    }
                }
                5 => {
                    let n = rng.gen_range(1usize..=3);
                    let inner = rand_expr(rng, depth - 1);
                    RExpr {
                        width: n * inner.width,
                        signed: false,
                        kind: RExprKind::Repl(n, Box::new(inner)),
                    }
                }
                6 => {
                    let s = rng.gen_range(0usize..SIG_WIDTHS.len());
                    let idx = rand_expr(rng, depth - 1);
                    RExpr {
                        width: 1,
                        signed: false,
                        kind: RExprKind::Bit(SignalId(s as u32), Box::new(idx)),
                    }
                }
                _ => {
                    let s = rng.gen_range(0usize..SIG_WIDTHS.len());
                    let w = rng.gen_range(1usize..=80);
                    if rng.gen_bool(0.5) {
                        let lo = rng.gen_range(0usize..120);
                        RExpr {
                            width: w,
                            signed: false,
                            kind: RExprKind::Part(SignalId(s as u32), lo, w),
                        }
                    } else {
                        let base = rand_expr(rng, depth - 1);
                        RExpr {
                            width: w,
                            signed: false,
                            kind: RExprKind::IndexedPart(SignalId(s as u32), Box::new(base), w),
                        }
                    }
                }
            }
        };
        if rng.gen_bool(0.2) {
            e.width = rng.gen_range(1usize..=110);
        }
        e
    }

    fn compile_standalone(
        design: &Design,
        f: impl FnOnce(&mut Compiler) -> ExprId,
    ) -> (CompiledDesign, ExprId) {
        let mut c = Compiler {
            design,
            exprs: Vec::new(),
            lits: Vec::new(),
            fallbacks: Vec::new(),
            reg_widths: Vec::new(),
        };
        let id = f(&mut c);
        let cd = CompiledDesign {
            design: design.clone(),
            assigns: Vec::new(),
            processes: Vec::new(),
            exprs: c.exprs,
            lits: c.lits,
            fallbacks: c.fallbacks,
            reg_widths: c.reg_widths,
        };
        (cd, id)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The core differential property: on random expression trees
        /// (x/z values, widths straddling 64 bits, perturbed sizing
        /// annotations) the bytecode executor computes bit-for-bit the
        /// same `LogicVec` — width included — as the tree-walking `eval`,
        /// and keeps doing so when the scratch registers are reused
        /// across runs with fresh stimulus.
        #[test]
        fn bytecode_matches_tree_walker(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let design = test_design();
            let e = rand_expr(&mut rng, 4);
            let ctx = if rng.gen_bool(0.5) { e.width } else { rng.gen_range(1usize..=110) };
            let (cd, unit) = compile_standalone(&design, |c| c.compile_unit(&e, ctx));
            let mut scratch = cd.new_scratch();
            for round in 0..3 {
                let values = rand_values(&mut rng);
                let time = rng.gen_range(0u64..1_000);
                let store = ValueStore { values: &values, time };
                let want = eval(&e, ctx, &store);
                let got = exec_unit(&cd, unit, &mut scratch, &values, time);
                prop_assert_eq!(got, &want, "round {} ctx {} expr {:?}", round, ctx, e);
            }
        }

        /// The assignment path (context widening + final resize, with the
        /// identity-resize elision) matches the tree-walker's
        /// `eval(rhs, max(lhs, rhs)).resize(lhs, signed)`.
        #[test]
        fn assign_rhs_matches_tree_walker(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let design = test_design();
            let e = rand_expr(&mut rng, 3);
            let lhs_width = rng.gen_range(1usize..=110);
            let (cd, unit) = compile_standalone(&design, |c| c.compile_assign_rhs(&e, lhs_width));
            let mut scratch = cd.new_scratch();
            for round in 0..3 {
                let values = rand_values(&mut rng);
                let time = rng.gen_range(0u64..1_000);
                let store = ValueStore { values: &values, time };
                let want = eval(&e, lhs_width.max(e.width), &store).resize(lhs_width, e.signed);
                let got = exec_unit(&cd, unit, &mut scratch, &values, time);
                prop_assert_eq!(got, &want, "round {} lhs_width {} expr {:?}", round, lhs_width, e);
            }
        }
    }

    #[test]
    fn time_widening_and_pow_fallback() {
        // `$time`-rooted widths and `**` with a widened base drive the
        // fallback path deterministically.
        let design = test_design();
        let time_e = RExpr {
            width: 64,
            signed: false,
            kind: RExprKind::Time,
        };
        let pow = RExpr {
            width: 8,
            signed: false,
            kind: RExprKind::Binary(
                BinaryOp::Pow,
                Box::new(time_e),
                Box::new(RExpr::lit(LogicVec::from_u64(4, 2), false)),
            ),
        };
        let (cd, unit) = compile_standalone(&design, |c| c.compile_unit(&pow, 8));
        assert!(
            !cd.fallbacks.is_empty(),
            "a widened pow base must compile to a fallback"
        );
        let values: Vec<LogicVec> = SIG_WIDTHS.iter().map(|&w| LogicVec::zeros(w)).collect();
        let mut scratch = cd.new_scratch();
        for time in [0u64, 3, 77] {
            let store = ValueStore {
                values: &values,
                time,
            };
            let want = eval(&pow, 8, &store);
            let got = exec_unit(&cd, unit, &mut scratch, &values, time);
            assert_eq!(got, &want, "time {time}");
        }
    }

    #[test]
    fn compiled_design_reports_layout() {
        let src = "module tb;\nreg [7:0] a;\nwire [7:0] y;\nassign y = a + 8'd1;\ninitial begin a = 8'd1; #1 $finish; end\nendmodule";
        let design = crate::elaborate::elaborate(&crate::parser::parse(src).expect("parse"), "tb")
            .expect("elab");
        let cd = CompiledDesign::new(design);
        assert_eq!(cd.assigns.len(), 1);
        assert_eq!(cd.processes.len(), 1);
        assert!(!cd.exprs.is_empty());
        assert!(!cd.reg_widths.is_empty());
        // Registers are allocated in post-order: every op's operands
        // precede its destination, the invariant the executor's
        // borrow-split relies on.
        for unit in &cd.exprs {
            for op in &unit.ops {
                let (dst, operands): (u32, Vec<u32>) = match op {
                    EOp::Lit { dst, .. }
                    | EOp::Sig { dst, .. }
                    | EOp::Time { dst }
                    | EOp::PartSel { dst, .. }
                    | EOp::Fallback { dst, .. } => (*dst, vec![]),
                    EOp::Unary { dst, a, .. }
                    | EOp::Resize { dst, a, .. }
                    | EOp::Repl { dst, a, .. } => (*dst, vec![*a]),
                    EOp::Binary { dst, a, b, .. } => (*dst, vec![*a, *b]),
                    EOp::Ternary { dst, cond, t, f } => (*dst, vec![*cond, *t, *f]),
                    EOp::Concat { dst, parts } => (*dst, parts.clone()),
                    EOp::BitSel { dst, idx, .. } => (*dst, vec![*idx]),
                    EOp::IndexedPart { dst, base, .. } => (*dst, vec![*base]),
                };
                for o in operands {
                    assert!(o < dst, "operand {o} not before dst {dst}");
                }
            }
        }
    }
}
