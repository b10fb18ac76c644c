//! Compiles a Verilog module (AST) into a [`CheckerProgram`].
//!
//! This is how the reproduction *generates* checkers: the golden RTL is
//! compiled into an independent word-level reference model (standing in for
//! AutoBench's LLM-written Python checker), and the simulated LLM then
//! injects IR mutations to model checker bugs.
//!
//! The only RTL this compiler ever sees is the dataset's 156 golden
//! designs (mutated and LLM-written RTL reaches only the elaborator and
//! the simulator), so it accepts exactly the subset they are written in:
//!
//! * one module: no instances or initialised declarations;
//! * `assign` to whole wires, or to concatenations of whole wires;
//! * `always @(*)` blocks with blocking assignments (combinational);
//! * `always @(posedge clk)` blocks with non-blocking assignments (and
//!   blocking temporaries): one clock, named `clk`, the only clock the
//!   dataset and its driver generator know; resets are synchronous;
//! * `if`, `case` (exact match), and bounded `for` loops, unrolled at
//!   compile time; a constant part select of the loop variable folds to
//!   a constant;
//! * the operators `+ - * / %` and unary `-`, `~ & | ^`, the reductions
//!   `& | ^`, `! && ||`, `== != < <= > >=`, `<< >> >>>`, `?:`,
//!   concatenation, replication, and bit, part and indexed part selects.
//!
//! Everything else returns a [`CompileError`] that names the construct.
//! Most of what no golden uses the front end already refuses (see
//! [`correctbench_verilog::parser`]); of what it accepts, these would each
//! need lowering or sizing code of their own and are refused here: the
//! operator `~^` (`^~`), a bit or indexed part select of a loop variable,
//! a read of a loop variable after its loop, and a clock named anything
//! but `clk`. The two loop variable reads compiled to checkers that
//! disagreed with the simulator (they saw the variable's value from
//! before the loop), so a golden that needs one adds its lowering
//! together with a differential test against the simulator.

use crate::ir::*;
use correctbench_verilog::ast::*;
use correctbench_verilog::logic::LogicVec;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A compilation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompileError {
    /// What went wrong.
    pub message: String,
}

impl CompileError {
    fn new(m: impl Into<String>) -> Self {
        CompileError { message: m.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checker compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// The refusal of a construct outside the accepted subset.
fn unsupported(construct: impl fmt::Display) -> CompileError {
    CompileError::new(format!("{construct} is not supported in checkers"))
}

/// The name of the one clock port: the dataset, the driver generator and
/// the scenario generator know no other.
const CLOCK: &str = "clk";

#[derive(Clone)]
struct SymInfo {
    width: usize,
    signed: bool,
    lsb: i64,
}

/// Compiles `module` into a checker program.
///
/// # Errors
///
/// [`CompileError`] when the module uses a construct outside the accepted
/// subset (see the module documentation).
pub fn compile_module(module: &Module) -> Result<CheckerProgram, CompileError> {
    Compiler::new(module)?.run()
}

struct Compiler<'a> {
    module: &'a Module,
    prog: CheckerProgram,
    syms: HashMap<String, SymInfo>,
    /// The variables of the `for` loops being unrolled, each bound to its
    /// value in the current pass (a signed constant).
    loop_vars: HashMap<String, LogicVec>,
    /// The variables of the loops already unrolled. The combinational
    /// view never held their values, so a read of one outside its loop
    /// would see a stale value where the simulator sees the loop's.
    spent_loop_vars: HashSet<String>,
    /// Current combinational view of every signal.
    env: HashMap<String, NodeId>,
    /// The pending next value of every register a non-blocking assignment
    /// wrote on the current path.
    nba: HashMap<String, NodeId>,
    regs: HashMap<String, NodeId>,
}

/// A definition unit for topological ordering.
enum Def<'a> {
    Assign(&'a AssignItem),
    CombAlways(&'a Stmt),
}

/// Where a write lands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum To {
    /// A continuous assign: whole signals only, into the combinational
    /// view.
    Assign,
    /// A blocking assignment, into the combinational view.
    Blocking,
    /// A non-blocking assignment, into the registers' next values.
    Nba,
}

impl<'a> Compiler<'a> {
    fn new(module: &'a Module) -> Result<Self, CompileError> {
        let mut c = Compiler {
            module,
            prog: CheckerProgram::default(),
            syms: HashMap::new(),
            loop_vars: HashMap::new(),
            spent_loop_vars: HashSet::new(),
            env: HashMap::new(),
            nba: HashMap::new(),
            regs: HashMap::new(),
        };
        for p in &module.ports {
            c.syms.insert(
                p.name.clone(),
                SymInfo {
                    width: p.width(),
                    signed: p.signed,
                    lsb: p.range.map_or(0, |r| r.lsb),
                },
            );
        }
        for item in &module.items {
            match item {
                Item::Net(d) => {
                    let width = d.range.map_or(1, |r| r.width());
                    let lsb = d.range.map_or(0, |r| r.lsb);
                    for (n, init) in &d.names {
                        if init.is_some() {
                            return Err(unsupported(format!("initialised declaration `{n}`")));
                        }
                        c.syms.entry(n.clone()).or_insert(SymInfo {
                            width,
                            signed: d.signed,
                            lsb,
                        });
                    }
                }
                Item::Instance(_) => return Err(unsupported("an instance")),
                Item::Initial(_) => return Err(unsupported("an initial block")),
                _ => {}
            }
        }
        Ok(c)
    }

    fn run(mut self) -> Result<CheckerProgram, CompileError> {
        // 1. Sort the processes: every edge-triggered block is clocked by
        // `posedge clk`.
        let mut clocked_bodies: Vec<&Stmt> = Vec::new();
        let mut comb_defs: Vec<Def<'a>> = Vec::new();
        for item in &self.module.items {
            match item {
                Item::Assign(a) => comb_defs.push(Def::Assign(a)),
                Item::Always(blk) => match &blk.event {
                    Some(EventControl::Star) => comb_defs.push(Def::CombAlways(&blk.body)),
                    Some(EventControl::Posedge(signals)) => {
                        if let Some(signal) = signals.iter().find(|s| *s != CLOCK) {
                            return Err(CompileError::new(format!(
                                "`posedge {signal}` is not supported in checkers: the only \
                                 clock is `{CLOCK}`, and resets are synchronous"
                            )));
                        }
                        clocked_bodies.push(&blk.body);
                    }
                    None => return Err(unsupported("a free-running always block")),
                },
                _ => {}
            }
        }
        let clocked = !clocked_bodies.is_empty();

        // 2. Create Input nodes (clock excluded — it is implicit in step()).
        for p in &self.module.ports {
            if p.dir != Direction::Input || (clocked && p.name == CLOCK) {
                continue;
            }
            let id = self.prog.push(
                Node::Input {
                    name: p.name.clone(),
                },
                p.width(),
            );
            self.env.insert(p.name.clone(), id);
            self.prog.inputs.push(p.name.clone());
        }

        // 3. Create Reg nodes for every signal written by NBAs in clocked
        // blocks.
        let mut reg_names = Vec::new();
        for body in &clocked_bodies {
            collect_targets(body, To::Nba, &mut reg_names);
        }
        reg_names.sort();
        reg_names.dedup();
        for name in &reg_names {
            let info = self
                .syms
                .get(name)
                .ok_or_else(|| CompileError::new(format!("undeclared register `{name}`")))?
                .clone();
            let id = self.prog.push(
                Node::Reg {
                    name: name.clone(),
                    init: LogicVec::filled_x(info.width),
                },
                info.width,
            );
            self.env.insert(name.clone(), id);
            self.regs.insert(name.clone(), id);
        }
        self.prog.sequential = clocked;

        // 4. Topologically order combinational definitions.
        let order = self.topo_order(&comb_defs)?;

        // 5. Compile combinational definitions in order.
        for idx in order {
            match &comb_defs[idx] {
                Def::Assign(a) => self.assign(&a.lhs, &a.rhs, To::Assign)?,
                Def::CombAlways(body) => {
                    // Latch-free requirement: pre-seed targets with x so an
                    // incomplete path yields x (detectably wrong) rather
                    // than silently reusing stale values.
                    let mut targets = Vec::new();
                    collect_targets(body, To::Blocking, &mut targets);
                    targets.sort();
                    targets.dedup();
                    for t in &targets {
                        let info = self
                            .syms
                            .get(t)
                            .ok_or_else(|| CompileError::new(format!("undeclared `{t}`")))?;
                        let x = self
                            .prog
                            .push(Node::Const(LogicVec::filled_x(info.width)), info.width);
                        self.env.insert(t.clone(), x);
                    }
                    self.exec_stmt(body, false)?;
                }
            }
        }

        // 6. Compile clocked bodies: blocking temps + NBA next-values.
        for body in &clocked_bodies {
            self.exec_stmt(body, true)?;
        }
        let mut updates: Vec<(NodeId, NodeId)> = self
            .nba
            .drain()
            .map(|(name, next)| (self.regs[&name], next))
            .collect();
        updates.sort_unstable();
        for (reg, next) in updates {
            let next = self.extend(next, self.prog.width(reg), false);
            self.prog.reg_updates.push(RegUpdate { reg, next });
        }

        // 7. Bind outputs.
        for p in &self.module.ports {
            if p.dir != Direction::Output {
                continue;
            }
            let node = *self
                .env
                .get(&p.name)
                .ok_or_else(|| CompileError::new(format!("output `{}` is never driven", p.name)))?;
            let node = self.extend(node, p.width(), false);
            self.prog.outputs.push(OutputDef {
                name: p.name.clone(),
                node,
            });
        }
        Ok(self.prog)
    }

    /// Orders combinational definitions so every use follows its def.
    fn topo_order(&self, defs: &[Def<'a>]) -> Result<Vec<usize>, CompileError> {
        let n = defs.len();
        // defined-by: signal -> def index
        let mut def_of: HashMap<String, usize> = HashMap::new();
        let mut writes: Vec<Vec<String>> = Vec::with_capacity(n);
        let mut reads: Vec<Vec<String>> = Vec::with_capacity(n);
        for (i, d) in defs.iter().enumerate() {
            let (mut w, r) = match d {
                Def::Assign(a) => {
                    let mut r = Vec::new();
                    a.rhs.collect_reads(&mut r);
                    (a.lhs.targets().iter().map(|s| s.to_string()).collect(), r)
                }
                Def::CombAlways(body) => {
                    let mut w = Vec::new();
                    collect_targets(body, To::Blocking, &mut w);
                    let mut r = Vec::new();
                    body.collect_reads(&mut r);
                    (w, r)
                }
            };
            w.sort();
            w.dedup();
            for t in &w {
                if def_of.insert(t.clone(), i).is_some() {
                    return Err(CompileError::new(format!("`{t}` has multiple drivers")));
                }
            }
            writes.push(w);
            reads.push(r);
        }
        // Edges: def(read) -> def
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, rs) in reads.iter().enumerate() {
            let mut preds: Vec<usize> = rs
                .iter()
                .filter_map(|r| def_of.get(r).copied())
                .filter(|&p| p != i)
                .collect();
            preds.sort_unstable();
            preds.dedup();
            for p in preds {
                succ[p].push(i);
                indeg[i] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(i);
            for &s in &succ[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() != n {
            return Err(CompileError::new("combinational cycle"));
        }
        Ok(order)
    }

    fn extend(&mut self, node: NodeId, width: usize, signed: bool) -> NodeId {
        if self.prog.width(node) == width {
            return node;
        }
        self.prog.push(Node::Ext { a: node, signed }, width)
    }

    fn const_expr(&self, e: &Expr) -> Option<(LogicVec, bool)> {
        match e {
            Expr::Literal { value, signed } => Some((value.clone(), *signed)),
            Expr::Ident(n) => self.loop_vars.get(n).map(|v| (v.clone(), true)),
            Expr::Unary(UnaryOp::Neg, a) => {
                let (v, s) = self.const_expr(a)?;
                Some((v.neg(), s))
            }
            Expr::Binary(op, a, b) => {
                let (va, sa) = self.const_expr(a)?;
                let (vb, sb) = self.const_expr(b)?;
                let w = va.width().max(vb.width());
                let v = match op {
                    BinaryOp::Add => va.zero_extend(w).add(&vb.zero_extend(w)),
                    BinaryOp::Sub => va.zero_extend(w).sub(&vb.zero_extend(w)),
                    BinaryOp::Mul => va.zero_extend(w).mul(&vb.zero_extend(w)),
                    _ => return None,
                };
                Some((v, sa && sb))
            }
            _ => None,
        }
    }

    // ---- expression sizing (mirrors the elaborator) ----

    fn expr_width(&self, e: &Expr) -> Result<usize, CompileError> {
        Ok(match e {
            Expr::Literal { value, .. } => value.width(),
            Expr::Ident(n) => match self.loop_vars.get(n) {
                Some(v) => v.width(),
                None => self.syms.get(n).map_or(1, |s| s.width),
            },
            Expr::Unary(op, a) => match op {
                UnaryOp::Plus | UnaryOp::Neg | UnaryOp::Not => self.expr_width(a)?,
                _ => 1,
            },
            Expr::Binary(op, a, b) => {
                if op.is_comparison() {
                    1
                } else if op.is_shift() {
                    self.expr_width(a)?
                } else {
                    self.expr_width(a)?.max(self.expr_width(b)?)
                }
            }
            Expr::Ternary(_, t, f) => self.expr_width(t)?.max(self.expr_width(f)?),
            Expr::Concat(parts) => parts
                .iter()
                .map(|p| self.expr_width(p))
                .sum::<Result<usize, _>>()?,
            Expr::Repl(n, inner) => n * self.expr_width(inner)?,
            Expr::Bit(_, _) => 1,
            Expr::Part(name, msb, lsb) => self.part_select(name, *msb, *lsb)?.1,
            Expr::IndexedPart(_, _, w) => *w,
        })
    }

    /// The offset into `name` and the width of the part select
    /// `name[msb:lsb]`. A reversed range, or an `lsb` below the declared
    /// range, is an error, as it is to the elaborator.
    fn part_select(&self, name: &str, msb: i64, lsb: i64) -> Result<(usize, usize), CompileError> {
        let decl_lsb = if self.loop_vars.contains_key(name) {
            0
        } else {
            self.syms.get(name).map_or(0, |s| s.lsb)
        };
        let lo = lsb
            .checked_sub(decl_lsb)
            .and_then(|d| usize::try_from(d).ok());
        let span = msb.checked_sub(lsb).and_then(|d| usize::try_from(d).ok());
        match (lo, span) {
            (Some(lo), Some(span)) => Ok((lo, span + 1)),
            _ => Err(CompileError::new(format!(
                "bad part select [{msb}:{lsb}] on `{name}`"
            ))),
        }
    }

    fn expr_signed(&self, e: &Expr) -> bool {
        match e {
            Expr::Literal { signed, .. } => *signed,
            Expr::Ident(n) => {
                self.loop_vars.contains_key(n) || self.syms.get(n).is_some_and(|s| s.signed)
            }
            Expr::Unary(UnaryOp::Plus | UnaryOp::Neg | UnaryOp::Not, a) => self.expr_signed(a),
            Expr::Unary(_, _) => false,
            Expr::Binary(op, a, b) => {
                if op.is_comparison() {
                    false
                } else if op.is_shift() {
                    self.expr_signed(a)
                } else {
                    self.expr_signed(a) && self.expr_signed(b)
                }
            }
            Expr::Ternary(_, t, f) => self.expr_signed(t) && self.expr_signed(f),
            _ => false,
        }
    }

    // ---- expression compilation ----

    /// Compiles `e` in a `ctx`-bit context, mirroring
    /// `correctbench_verilog::design::eval`.
    fn compile_expr(&mut self, e: &Expr, ctx: usize) -> Result<NodeId, CompileError> {
        let ctx = ctx.max(self.expr_width(e)?);
        Ok(match e {
            Expr::Literal { value, signed } => {
                let v = value.resize(ctx, *signed);
                self.prog.push(Node::Const(v), ctx)
            }
            Expr::Ident(n) => {
                if let Some(v) = self.loop_vars.get(n) {
                    let v = v.resize(ctx, true);
                    return Ok(self.prog.push(Node::Const(v), ctx));
                }
                let signed = self.expr_signed(e);
                let node = self.lookup_env(n)?;
                self.extend(node, ctx, signed)
            }
            Expr::Unary(op, a) => {
                let (op, self_determined) = match op {
                    UnaryOp::Plus => return self.compile_expr(a, ctx),
                    UnaryOp::Neg => (IrUnOp::Neg, false),
                    UnaryOp::Not => (IrUnOp::Not, false),
                    UnaryOp::LogicNot => (IrUnOp::LogicNot, true),
                    UnaryOp::RedAnd => (IrUnOp::RedAnd, true),
                    UnaryOp::RedOr => (IrUnOp::RedOr, true),
                    UnaryOp::RedXor => (IrUnOp::RedXor, true),
                };
                if self_determined {
                    let n = self.compile_self(a)?;
                    let b = self.prog.push(Node::Un { op, a: n }, 1);
                    self.extend(b, ctx, false)
                } else {
                    let n = self.compile_expr(a, ctx)?;
                    self.prog.push(Node::Un { op, a: n }, ctx)
                }
            }
            Expr::Binary(op, a, b) => self.compile_binary(*op, a, b, ctx)?,
            Expr::Ternary(c, t, f) => {
                let sel = self.truth(c)?;
                let tn = self.compile_expr(t, ctx)?;
                let fn_ = self.compile_expr(f, ctx)?;
                self.prog.push(Node::Mux { sel, t: tn, f: fn_ }, ctx)
            }
            Expr::Concat(parts) => {
                let mut nodes = Vec::new();
                let mut width = 0;
                for p in parts {
                    let n = self.compile_self(p)?;
                    width += self.prog.width(n);
                    nodes.push(n);
                }
                let c = self.prog.push(Node::Concat(nodes), width);
                self.extend(c, ctx, false)
            }
            Expr::Repl(n, inner) => {
                let a = self.compile_self(inner)?;
                let width = n * self.prog.width(a);
                let r = self.prog.push(Node::Repl { a, n: *n }, width);
                self.extend(r, ctx, false)
            }
            Expr::Bit(name, idx) => {
                if self.loop_vars.contains_key(name) {
                    return Err(unsupported(format!(
                        "a bit select of loop variable `{name}`"
                    )));
                }
                let base = self.lookup_env(name)?;
                let lsb = self.syms.get(name).map_or(0, |s| s.lsb);
                let idx_node = self.compile_index(idx, lsb)?;
                let s = self.prog.push(
                    Node::DynSlice {
                        a: base,
                        lo: idx_node,
                        width: 1,
                    },
                    1,
                );
                self.extend(s, ctx, false)
            }
            Expr::Part(name, msb, lsb) => {
                let (lo, w) = self.part_select(name, *msb, *lsb)?;
                if let Some(v) = self.loop_vars.get(name) {
                    let c = self.prog.push(Node::Const(v.slice(lo, w)), w);
                    return Ok(self.extend(c, ctx, false));
                }
                let base = self.lookup_env(name)?;
                let s = self.prog.push(
                    Node::Slice {
                        a: base,
                        lo,
                        width: w,
                    },
                    w,
                );
                self.extend(s, ctx, false)
            }
            Expr::IndexedPart(name, idx, w) => {
                if self.loop_vars.contains_key(name) {
                    return Err(unsupported(format!(
                        "an indexed part select of loop variable `{name}`"
                    )));
                }
                let base = self.lookup_env(name)?;
                let lsb = self.syms.get(name).map_or(0, |s| s.lsb);
                let idx_node = self.compile_index(idx, lsb)?;
                let s = self.prog.push(
                    Node::DynSlice {
                        a: base,
                        lo: idx_node,
                        width: *w,
                    },
                    *w,
                );
                self.extend(s, ctx, false)
            }
        })
    }

    fn lookup_env(&self, name: &str) -> Result<NodeId, CompileError> {
        if self.spent_loop_vars.contains(name) && !self.loop_vars.contains_key(name) {
            return Err(unsupported(format!(
                "a read of loop variable `{name}` after its loop"
            )));
        }
        self.env
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::new(format!("use of undefined `{name}`")))
    }

    /// Self-determined compilation.
    fn compile_self(&mut self, e: &Expr) -> Result<NodeId, CompileError> {
        let w = self.expr_width(e)?;
        self.compile_expr(e, w)
    }

    /// The 1-bit truth value of `e` (a condition or a ternary select).
    fn truth(&mut self, e: &Expr) -> Result<NodeId, CompileError> {
        let n = self.compile_self(e)?;
        if self.prog.width(n) == 1 {
            return Ok(n);
        }
        Ok(self.prog.push(
            Node::Un {
                op: IrUnOp::Bool,
                a: n,
            },
            1,
        ))
    }

    fn compile_index(&mut self, idx: &Expr, lsb: i64) -> Result<NodeId, CompileError> {
        let node = self.compile_self(idx)?;
        if lsb == 0 {
            return Ok(node);
        }
        let w = self.prog.width(node).max(32);
        let node = self.extend(node, w, false);
        let c = self
            .prog
            .push(Node::Const(LogicVec::from_u64(w, lsb as u64)), w);
        Ok(self.prog.push(
            Node::Bin {
                op: IrBinOp::Sub,
                a: node,
                b: c,
                signed: false,
            },
            w,
        ))
    }

    fn compile_binary(
        &mut self,
        op: BinaryOp,
        a: &Expr,
        b: &Expr,
        ctx: usize,
    ) -> Result<NodeId, CompileError> {
        use BinaryOp as B;
        let bin = |op, a, b| Node::Bin {
            op,
            a,
            b,
            signed: false,
        };
        Ok(match op {
            B::Add | B::Sub | B::Mul | B::Div | B::Mod | B::And | B::Or | B::Xor => {
                let an = self.compile_expr(a, ctx)?;
                let bn = self.compile_expr(b, ctx)?;
                let irop = match op {
                    B::Add => IrBinOp::Add,
                    B::Sub => IrBinOp::Sub,
                    B::Mul => IrBinOp::Mul,
                    B::Div => IrBinOp::Div,
                    B::Mod => IrBinOp::Mod,
                    B::And => IrBinOp::And,
                    B::Or => IrBinOp::Or,
                    _ => IrBinOp::Xor,
                };
                self.prog.push(bin(irop, an, bn), ctx)
            }
            B::LogicAnd | B::LogicOr => {
                let an = self.compile_self(a)?;
                let bn = self.compile_self(b)?;
                let ab = self.prog.push(
                    Node::Un {
                        op: IrUnOp::Bool,
                        a: an,
                    },
                    1,
                );
                let bb = self.prog.push(
                    Node::Un {
                        op: IrUnOp::Bool,
                        a: bn,
                    },
                    1,
                );
                let irop = if op == B::LogicAnd {
                    IrBinOp::And
                } else {
                    IrBinOp::Or
                };
                let r = self.prog.push(bin(irop, ab, bb), 1);
                self.extend(r, ctx, false)
            }
            B::Eq | B::Ne | B::Lt | B::Le | B::Gt | B::Ge => {
                let signed_pair = self.expr_signed(a) && self.expr_signed(b);
                let w = self.expr_width(a)?.max(self.expr_width(b)?);
                let an = self.compile_expr(a, w)?;
                let bn = self.compile_expr(b, w)?;
                let lt = if signed_pair {
                    IrBinOp::LtS
                } else {
                    IrBinOp::LtU
                };
                // `a <= b` is `!(b < a)`, `a >= b` is `!(a < b)`.
                let (irop, x, y, invert) = match op {
                    B::Eq => (IrBinOp::Eq, an, bn, false),
                    B::Ne => (IrBinOp::Eq, an, bn, true),
                    B::Lt => (lt, an, bn, false),
                    B::Ge => (lt, an, bn, true),
                    B::Gt => (lt, bn, an, false),
                    _ => (lt, bn, an, true),
                };
                let mut r = self.prog.push(bin(irop, x, y), 1);
                if invert {
                    r = self.prog.push(
                        Node::Un {
                            op: IrUnOp::Not,
                            a: r,
                        },
                        1,
                    );
                }
                self.extend(r, ctx, false)
            }
            B::Shl | B::Shr | B::AShr => {
                let an = self.compile_expr(a, ctx)?;
                let bn = self.compile_self(b)?;
                let irop = match op {
                    B::Shl => IrBinOp::Shl,
                    B::AShr if self.expr_signed(a) => IrBinOp::AShr,
                    _ => IrBinOp::Shr,
                };
                // The amount is self-determined: the node resizes both
                // operands to the left width, so zero-extend the amount
                // first to keep its value.
                let bn = self.extend(bn, ctx, false);
                self.prog.push(
                    Node::Bin {
                        op: irop,
                        a: an,
                        b: bn,
                        signed: irop == IrBinOp::AShr,
                    },
                    ctx,
                )
            }
            B::Xnor => return Err(unsupported("operator `~^`")),
        })
    }

    // ---- statement symbolic execution ----

    /// Executes a statement, updating the blocking view and, when
    /// `clocked`, the registers' next values.
    fn exec_stmt(&mut self, s: &Stmt, clocked: bool) -> Result<(), CompileError> {
        match s {
            Stmt::Block(stmts) => {
                for st in stmts {
                    self.exec_stmt(st, clocked)?;
                }
                Ok(())
            }
            Stmt::Blocking(lv, e) => self.assign(lv, e, To::Blocking),
            Stmt::NonBlocking(lv, e) if clocked => self.assign(lv, e, To::Nba),
            Stmt::NonBlocking(..) => Err(CompileError::new(
                "non-blocking assignment outside a clocked block",
            )),
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                let sel = self.truth(cond)?;
                self.branch(&[(sel, then_stmt)], else_stmt.as_deref(), clocked)
            }
            Stmt::Case { expr, arms } => self.exec_case(expr, arms, clocked),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => self.exec_for(init, cond, step, body, clocked),
            Stmt::Delay { .. } => Err(unsupported("a timing control")),
            Stmt::SysCall { .. } | Stmt::Empty => Ok(()),
        }
    }

    /// Compiles `e` in the context of `lv`'s width and writes it there.
    fn assign(&mut self, lv: &LValue, e: &Expr, to: To) -> Result<(), CompileError> {
        let lw = self.lvalue_width(lv)?;
        let node = self.compile_expr(e, lw)?;
        let signed = self.expr_signed(e);
        let node = self.extend(node, lw, signed);
        self.write(lv, node, to)
    }

    fn lvalue_width(&self, lv: &LValue) -> Result<usize, CompileError> {
        Ok(match lv {
            LValue::Ident(n) => {
                self.syms
                    .get(n)
                    .ok_or_else(|| CompileError::new(format!("undeclared `{n}`")))?
                    .width
            }
            LValue::Bit(_, _) => 1,
            LValue::Part(n, msb, lsb) => self.part_select(n, *msb, *lsb)?.1,
            LValue::IndexedPart(_, _, w) => *w,
            LValue::Concat(parts) => {
                let mut w = 0;
                for p in parts {
                    w += self.lvalue_width(p)?;
                }
                w
            }
        })
    }

    /// The map a write lands in.
    fn slot(&mut self, to: To) -> &mut HashMap<String, NodeId> {
        match to {
            To::Nba => &mut self.nba,
            To::Assign | To::Blocking => &mut self.env,
        }
    }

    /// Writes `value` to `lv`. A concatenation is written part by part,
    /// from its LSB up; a continuous assign writes whole signals only.
    fn write(&mut self, lv: &LValue, value: NodeId, to: To) -> Result<(), CompileError> {
        match lv {
            LValue::Ident(n) => {
                if to == To::Nba && !self.regs.contains_key(n) {
                    return Err(CompileError::new(format!("`{n}` is not a register")));
                }
                if !self.syms.contains_key(n) {
                    return Err(CompileError::new(format!("undeclared `{n}`")));
                }
                self.slot(to).insert(n.clone(), value);
                Ok(())
            }
            LValue::Concat(parts) => {
                let mut lo = 0usize;
                for part in parts.iter().rev() {
                    let w = self.lvalue_width(part)?;
                    let slice = self.prog.push(
                        Node::Slice {
                            a: value,
                            lo,
                            width: w,
                        },
                        w,
                    );
                    self.write(part, slice, to)?;
                    lo += w;
                }
                Ok(())
            }
            other if to == To::Assign => Err(CompileError::new(format!(
                "assign target must be whole signals, got {other:?}"
            ))),
            LValue::Bit(n, idx) => self.insert_bits(n, idx, value, 1, to),
            LValue::Part(n, msb, lsb) => {
                let (lo, w) = self.part_select(n, *msb, *lsb)?;
                let lit = Expr::literal_u64(32, lo as u64);
                self.insert_bits(n, &lit, value, w, to)
            }
            LValue::IndexedPart(n, base, w) => self.insert_bits(n, base, value, *w, to),
        }
    }

    /// Read-modify-write for bit/part targets. A non-blocking write
    /// modifies the register's pending next value, or its current value.
    fn insert_bits(
        &mut self,
        name: &str,
        idx: &Expr,
        value: NodeId,
        width: usize,
        to: To,
    ) -> Result<(), CompileError> {
        let info = self
            .syms
            .get(name)
            .cloned()
            .ok_or_else(|| CompileError::new(format!("undeclared `{name}`")))?;
        let base = match to {
            To::Nba => *self
                .nba
                .get(name)
                .or_else(|| self.regs.get(name))
                .ok_or_else(|| CompileError::new(format!("`{name}` is not a register")))?,
            To::Assign | To::Blocking => self.lookup_env(name)?,
        };
        let lo = self.compile_index(idx, info.lsb)?;
        let out = self.prog.push(
            Node::DynInsert {
                a: base,
                lo,
                b: value,
                width,
            },
            info.width,
        );
        self.slot(to).insert(name.to_string(), out);
        Ok(())
    }

    /// Joins the two sides of a select: a name they hold at different
    /// values becomes a `Mux` under `sel`, in sorted name order. A name
    /// one side lacks keeps the other side's value, except in an NBA join
    /// (`hold`), where the side that did not assign a register holds it
    /// at its current value.
    fn join(
        &mut self,
        sel: NodeId,
        t: HashMap<String, NodeId>,
        f: HashMap<String, NodeId>,
        hold: bool,
    ) -> HashMap<String, NodeId> {
        let mut keys: Vec<&String> = t.keys().chain(f.keys()).collect();
        keys.sort();
        keys.dedup();
        let mut joined = HashMap::new();
        for k in keys {
            let held = if hold {
                self.regs.get(k).copied()
            } else {
                None
            };
            let (a, b) = (t.get(k).copied().or(held), f.get(k).copied().or(held));
            let (Some(a), Some(b)) = (a.or(b), b.or(a)) else {
                continue;
            };
            let v = if a == b {
                a
            } else {
                let w = self.prog.width(a).max(self.prog.width(b));
                let a = self.extend(a, w, false);
                let b = self.extend(b, w, false);
                self.prog.push(Node::Mux { sel, t: a, f: b }, w)
            };
            joined.insert(k.clone(), v);
        }
        joined
    }

    /// Executes the first of `arms` whose select is 1, or `otherwise`:
    /// an `if` is one arm, a `case` one per labelled arm. Each side of a
    /// select runs from the same state, and the two are then joined.
    fn branch(
        &mut self,
        arms: &[(NodeId, &Stmt)],
        otherwise: Option<&Stmt>,
        clocked: bool,
    ) -> Result<(), CompileError> {
        let Some(((sel, then), rest)) = arms.split_first() else {
            return otherwise.map_or(Ok(()), |s| self.exec_stmt(s, clocked));
        };
        let env0 = self.env.clone();
        let nba0 = self.nba.clone();
        self.exec_stmt(then, clocked)?;
        let env_t = std::mem::replace(&mut self.env, env0);
        let nba_t = std::mem::replace(&mut self.nba, nba0);
        self.branch(rest, otherwise, clocked)?;
        let env_f = std::mem::take(&mut self.env);
        self.env = self.join(*sel, env_t, env_f, false);
        let nba_f = std::mem::take(&mut self.nba);
        self.nba = self.join(*sel, nba_t, nba_f, true);
        Ok(())
    }

    fn exec_case(
        &mut self,
        expr: &Expr,
        arms: &[CaseArm],
        clocked: bool,
    ) -> Result<(), CompileError> {
        // Lower to an if-else chain; the default is the trailing else.
        let mut sel_w = self.expr_width(expr)?;
        for label in arms.iter().flat_map(|a| &a.labels) {
            sel_w = sel_w.max(self.expr_width(label)?);
        }
        let sel = self.compile_expr(expr, sel_w)?;
        let mut default_body: Option<&Stmt> = None;
        let mut cases: Vec<(NodeId, &Stmt)> = Vec::new();
        for arm in arms {
            let mut cond: Option<NodeId> = None;
            for label in &arm.labels {
                let l = self.compile_expr(label, sel_w)?;
                let c = self.prog.push(
                    Node::Bin {
                        op: IrBinOp::CaseEq,
                        a: sel,
                        b: l,
                        signed: false,
                    },
                    1,
                );
                cond = Some(match cond {
                    None => c,
                    Some(prev) => self.prog.push(
                        Node::Bin {
                            op: IrBinOp::Or,
                            a: prev,
                            b: c,
                            signed: false,
                        },
                        1,
                    ),
                });
            }
            match cond {
                Some(cond) => cases.push((cond, &arm.body)),
                None => default_body = Some(&arm.body),
            }
        }
        self.branch(&cases, default_body, clocked)
    }

    fn exec_for(
        &mut self,
        init: &Stmt,
        cond: &Expr,
        step: &Stmt,
        body: &Stmt,
        clocked: bool,
    ) -> Result<(), CompileError> {
        // The loop variable must stay a compile-time constant; unroll.
        let (var, start) = match init {
            Stmt::Blocking(LValue::Ident(v), e) => {
                let (val, _) = self
                    .const_expr(e)
                    .ok_or_else(|| CompileError::new("for-loop start must be constant"))?;
                (v.clone(), val)
            }
            _ => return Err(CompileError::new("for-loop init must assign a variable")),
        };
        let mut current = start;
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > 4096 {
                return Err(CompileError::new("for-loop exceeds 4096 iterations"));
            }
            // Bind the loop variable to its value for this pass.
            self.loop_vars.insert(var.clone(), current.clone());
            let cond_val = self
                .const_expr(cond)
                .map(|(v, _)| v)
                .or_else(|| self.eval_loop_cond(cond))
                .ok_or_else(|| CompileError::new("for-loop condition must be loop-constant"))?;
            if !cond_val.is_true() {
                break;
            }
            self.exec_stmt(body, clocked)?;
            // Step.
            match step {
                Stmt::Blocking(LValue::Ident(v2), e) if *v2 == var => {
                    let (val, _) = self
                        .const_expr(e)
                        .ok_or_else(|| CompileError::new("for-loop step must be constant"))?;
                    current = val;
                }
                _ => {
                    return Err(CompileError::new(
                        "for-loop step must update the loop variable",
                    ))
                }
            }
        }
        self.loop_vars.remove(&var);
        self.spent_loop_vars.insert(var);
        Ok(())
    }

    /// Evaluates simple loop conditions (`i < N`, `i <= N`, `i > N`,
    /// `i >= N`, `i != N`) over the current loop-variable substitution.
    fn eval_loop_cond(&self, cond: &Expr) -> Option<LogicVec> {
        if let Expr::Binary(op, a, b) = cond {
            let (va, sa) = self.const_expr(a)?;
            let (vb, sb) = self.const_expr(b)?;
            let signed = sa && sb;
            let w = va.width().max(vb.width()).max(33);
            let va = va.resize(w, sa);
            let vb = vb.resize(w, sb);
            use correctbench_verilog::logic::Bit;
            let bit = match op {
                BinaryOp::Lt => va.lt(&vb, signed),
                BinaryOp::Le => match vb.lt(&va, signed) {
                    Bit::One => Bit::Zero,
                    Bit::Zero => Bit::One,
                    o => o,
                },
                BinaryOp::Gt => vb.lt(&va, signed),
                BinaryOp::Ge => match va.lt(&vb, signed) {
                    Bit::One => Bit::Zero,
                    Bit::Zero => Bit::One,
                    o => o,
                },
                BinaryOp::Ne => match va.eq_logic(&vb) {
                    Bit::One => Bit::Zero,
                    Bit::Zero => Bit::One,
                    o => o,
                },
                BinaryOp::Eq => va.eq_logic(&vb),
                _ => return None,
            };
            return Some(LogicVec::from_bit(bit));
        }
        None
    }
}

/// Collects the names `s` writes with non-blocking (`To::Nba`) or
/// blocking assignments. A `for` loop's variable is substituted, not
/// assigned, so its init and step are skipped.
fn collect_targets(s: &Stmt, to: To, out: &mut Vec<String>) {
    match s {
        Stmt::Block(stmts) => {
            for st in stmts {
                collect_targets(st, to, out);
            }
        }
        Stmt::Blocking(lv, _) if to == To::Blocking => {
            out.extend(lv.targets().iter().map(|s| s.to_string()))
        }
        Stmt::NonBlocking(lv, _) if to == To::Nba => {
            out.extend(lv.targets().iter().map(|s| s.to_string()))
        }
        Stmt::If {
            then_stmt,
            else_stmt,
            ..
        } => {
            collect_targets(then_stmt, to, out);
            if let Some(e) = else_stmt {
                collect_targets(e, to, out);
            }
        }
        Stmt::Case { arms, .. } => {
            for a in arms {
                collect_targets(&a.body, to, out);
            }
        }
        Stmt::For { body, .. } => collect_targets(body, to, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{step, CheckerState};
    use correctbench_verilog::parse;

    fn compile(src: &str) -> CheckerProgram {
        let f = parse(src).expect("parse");
        compile_module(&f.modules[0]).expect("compile")
    }

    fn inputs(pairs: &[(&str, u64, usize)]) -> HashMap<String, LogicVec> {
        pairs
            .iter()
            .map(|(n, v, w)| (n.to_string(), LogicVec::from_u64(*w, *v)))
            .collect()
    }

    #[test]
    fn compile_adder() {
        let p =
            compile("module add(input [3:0] a, b, output [4:0] s);\nassign s = a + b;\nendmodule");
        assert!(!p.sequential);
        let mut st = CheckerState::new(&p);
        let out = step(&p, &mut st, &inputs(&[("a", 15, 4), ("b", 3, 4)])).expect("step");
        assert_eq!(out["s"].to_u64(), Some(18));
    }

    #[test]
    fn compile_mux_always_star() {
        let p = compile(
            "module mux(input sel, input [7:0] a, b, output reg [7:0] y);\nalways @(*) begin\nif (sel) y = a; else y = b;\nend\nendmodule",
        );
        let mut st = CheckerState::new(&p);
        let out = step(
            &p,
            &mut st,
            &inputs(&[("sel", 1, 1), ("a", 0xaa, 8), ("b", 0x55, 8)]),
        )
        .expect("step");
        assert_eq!(out["y"].to_u64(), Some(0xaa));
    }

    #[test]
    fn compile_counter_with_sync_reset() {
        let p = compile(
            "module cnt(input clk, input rst, output reg [3:0] q);\nalways @(posedge clk) begin\nif (rst) q <= 4'd0; else q <= q + 4'd1;\nend\nendmodule",
        );
        assert!(p.sequential);
        assert!(!p.inputs.contains(&"clk".to_string()));
        let mut st = CheckerState::new(&p);
        let out = step(&p, &mut st, &inputs(&[("rst", 1, 1)])).expect("rst");
        assert_eq!(out["q"].to_u64(), Some(0));
        let out = step(&p, &mut st, &inputs(&[("rst", 0, 1)])).expect("cnt");
        assert_eq!(out["q"].to_u64(), Some(1));
        let out = step(&p, &mut st, &inputs(&[("rst", 0, 1)])).expect("cnt");
        assert_eq!(out["q"].to_u64(), Some(2));
    }

    #[test]
    fn compile_case_fsm() {
        let p = compile(
            "module fsm(input clk, input rst, input x, output y);\nreg [1:0] s;\nalways @(posedge clk) begin\nif (rst) s <= 2'd0;\nelse begin\ncase (s)\n2'd0: if (x) s <= 2'd1;\n2'd1: if (x) s <= 2'd2; else s <= 2'd0;\n2'd2: if (!x) s <= 2'd0;\ndefault: s <= 2'd0;\nendcase\nend\nend\nassign y = s == 2'd2;\nendmodule",
        );
        let mut st = CheckerState::new(&p);
        let r = |st: &mut CheckerState, rst: u64, x: u64| {
            step(&p, st, &inputs(&[("rst", rst, 1), ("x", x, 1)])).expect("step")["y"].to_u64()
        };
        assert_eq!(r(&mut st, 1, 0), Some(0));
        assert_eq!(r(&mut st, 0, 1), Some(0)); // s: 0 -> 1
        assert_eq!(r(&mut st, 0, 1), Some(1)); // s: 1 -> 2
        assert_eq!(r(&mut st, 0, 1), Some(1)); // stays 2 while x
        assert_eq!(r(&mut st, 0, 0), Some(0)); // back to 0
    }

    #[test]
    fn compile_for_loop_popcount() {
        let p = compile(
            "module pc(input [7:0] v, output reg [3:0] n);\ninteger i;\nalways @(*) begin\nn = 4'd0;\nfor (i = 0; i < 8; i = i + 1) begin\nif (v[i]) n = n + 4'd1;\nend\nend\nendmodule",
        );
        let mut st = CheckerState::new(&p);
        let out = step(&p, &mut st, &inputs(&[("v", 0b1101_0110, 8)])).expect("step");
        assert_eq!(out["n"].to_u64(), Some(5));
    }

    /// Each construct the front end accepts outside the compiler's subset
    /// is a `CompileError` that names it, although the simulator runs it.
    /// Two of them once compiled and disagreed with the simulator: at
    /// `a = 1` the read of `i` after its loop adds the exit value 4, the
    /// checker added the stale 9; and the indexed part select inside the
    /// loop sums 0 + 1 + 2 + 3 = 6, the checker summed the stale 0 four
    /// times.
    #[test]
    fn unsupported_constructs_error() {
        let assign = |rhs: &str| {
            format!("module m(input [7:0] a, b, output [7:0] y);\nassign y = {rhs};\nendmodule")
        };
        let comb = |body: &str| {
            format!("module m(input [7:0] a, b, input [1:0] s, output reg [7:0] y);\ninteger i;\nalways @(*) begin\n{body}\nend\nendmodule")
        };
        let clocked = |event: &str| {
            format!("module m(input clk, clock, clk_i, rst, d, output reg q);\nalways @({event}) q <= d;\nendmodule")
        };
        let cases = [
            ("operator `~^`", assign("a ~^ b")),
            ("operator `~^`", assign("a ^~ b")),
            (
                "bit select of loop variable `i`",
                comb("y = 8'd0;\nfor (i = 0; i < 8; i = i + 1) y[i] = i[0];"),
            ),
            (
                "indexed part select of loop variable `i`",
                comb("i = 0;\ny = 8'd0;\nfor (i = 0; i < 4; i = i + 1) y = y + i[0 +: 8];"),
            ),
            (
                "read of loop variable `i` after its loop",
                comb(
                    "i = 9;\ny = a;\nfor (i = 0; i < 4; i = i + 1) y = y + 8'd1;\ny = y + i[7:0];",
                ),
            ),
            ("`posedge clock`", clocked("posedge clock")),
            ("`posedge clk_i`", clocked("posedge clk_i")),
            ("`posedge rst`", clocked("posedge clk or posedge rst")),
        ];
        for (construct, src) in &cases {
            let f = parse(src).unwrap_or_else(|e| panic!("{construct}: {e}"));
            assert!(
                correctbench_verilog::elaborate(&f, "m").is_ok(),
                "{construct}: the simulator refuses it too"
            );
            match compile_module(&f.modules[0]) {
                Ok(_) => panic!("{construct}: compiled"),
                Err(e) => assert!(e.message.contains(construct), "{construct}: {e}"),
            }
        }
        let f = parse("module m(output y);\nwire y;\nsub u(.y(y));\nendmodule").expect("parse");
        let e = compile_module(&f.modules[0]).expect_err("an instance compiled");
        assert!(e.message.contains("instance"), "{e}");
    }

    #[test]
    fn wire_chains_topologically_sorted() {
        // c depends on b depends on a, declared out of order.
        let p = compile(
            "module chain(input [3:0] x, output [3:0] z);\nwire [3:0] b, a;\nassign z = b + 4'd1;\nassign b = a + 4'd1;\nassign a = x + 4'd1;\nendmodule",
        );
        let mut st = CheckerState::new(&p);
        let out = step(&p, &mut st, &inputs(&[("x", 1, 4)])).expect("step");
        assert_eq!(out["z"].to_u64(), Some(4));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let f = parse(
            "module bad(input a, output y);\nwire p, q;\nassign p = q & a;\nassign q = p | a;\nassign y = p;\nendmodule",
        )
        .expect("parse");
        assert!(compile_module(&f.modules[0]).is_err());
    }

    #[test]
    fn multiple_drivers_rejected() {
        let f = parse("module bad(input a, b, output y);\nassign y = a;\nassign y = b;\nendmodule")
            .expect("parse");
        assert!(compile_module(&f.modules[0]).is_err());
    }

    #[test]
    fn shift_register_concat_nba() {
        let p = compile(
            "module sr(input clk, input d, output [3:0] q);\nreg [3:0] r;\nalways @(posedge clk) r <= {r[2:0], d};\nassign q = r;\nendmodule",
        );
        let mut st = CheckerState::new(&p);
        // Registers start x; shift in 1,0,1,1 -> after 4 cycles q=1011.
        for d in [1u64, 0, 1, 1] {
            step(&p, &mut st, &inputs(&[("d", d, 1)])).expect("step");
        }
        let out = step(&p, &mut st, &inputs(&[("d", 0, 1)])).expect("step");
        assert_eq!(out["q"].to_u64(), Some(0b0110));
    }

    #[test]
    fn signed_ashr() {
        let p = compile(
            "module sh(input signed [7:0] a, input [2:0] n, output signed [7:0] y);\nassign y = a >>> n;\nendmodule",
        );
        let mut st = CheckerState::new(&p);
        let out = step(&p, &mut st, &inputs(&[("a", 0x80, 8), ("n", 2, 3)])).expect("step");
        assert_eq!(out["y"].to_u64(), Some(0xe0));
    }
}
