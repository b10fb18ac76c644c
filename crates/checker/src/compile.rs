//! Compiles a Verilog module (AST) into a [`CheckerProgram`].
//!
//! This is how the reproduction *generates* checkers: the golden RTL is
//! compiled into an independent word-level reference model (standing in for
//! AutoBench's LLM-written Python checker), and the simulated LLM then
//! injects IR mutations to model checker bugs.
//!
//! The accepted subset is the clean synchronous-RTL style the dataset's
//! golden designs are written in:
//!
//! * one module, no instances;
//! * `assign` to whole wires;
//! * `always @(*)` blocks with blocking assignments (combinational);
//! * `always @(posedge clk)` blocks with non-blocking assignments, a single
//!   clock, synchronous resets;
//! * `if`/`case`/`casez`/bounded `for` (unrolled at compile time).
//!
//! Everything else returns a [`CompileError`].

use crate::ir::*;
use correctbench_verilog::ast::*;
use correctbench_verilog::logic::LogicVec;
use std::collections::HashMap;
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

/// Name of the clock port recognised by the compiler.
pub const CLOCK_NAMES: [&str; 3] = ["clk", "clock", "clk_i"];

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
/// [`CompileError`] when the module uses constructs outside the supported
/// synchronous subset (instances, multiple clocks, async resets, latches).
pub fn compile_module(module: &Module) -> Result<CheckerProgram, CompileError> {
    Compiler::new(module)?.run()
}

struct Compiler<'a> {
    module: &'a Module,
    prog: CheckerProgram,
    syms: HashMap<String, SymInfo>,
    params: HashMap<String, (LogicVec, bool)>,
    /// Current combinational view of every signal.
    env: HashMap<String, NodeId>,
    clock: Option<String>,
    regs: HashMap<String, NodeId>,
}

/// A definition unit for topological ordering.
enum Def<'a> {
    Assign(&'a AssignItem),
    CombAlways(&'a Stmt),
}

impl<'a> Compiler<'a> {
    fn new(module: &'a Module) -> Result<Self, CompileError> {
        let mut c = Compiler {
            module,
            prog: CheckerProgram::default(),
            syms: HashMap::new(),
            params: HashMap::new(),
            env: HashMap::new(),
            clock: None,
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
                            return Err(CompileError::new(format!(
                                "initialised declaration `{n}` is not supported"
                            )));
                        }
                        c.syms.entry(n.clone()).or_insert(SymInfo {
                            width,
                            signed: d.signed,
                            lsb,
                        });
                    }
                }
                Item::Param(p) => {
                    let v = c.const_expr(&p.value).ok_or_else(|| {
                        CompileError::new(format!("parameter `{}` not constant", p.name))
                    })?;
                    c.params.insert(p.name.clone(), v);
                }
                Item::Instance(_) => {
                    return Err(CompileError::new("instances are not supported in checkers"))
                }
                Item::Initial(_) => {
                    return Err(CompileError::new(
                        "initial blocks are not supported in checkers",
                    ))
                }
                _ => {}
            }
        }
        Ok(c)
    }

    fn run(mut self) -> Result<CheckerProgram, CompileError> {
        // 1. Identify the clock and register set.
        let mut clocked_bodies: Vec<&Stmt> = Vec::new();
        let mut comb_defs: Vec<Def<'a>> = Vec::new();
        for item in &self.module.items {
            match item {
                Item::Assign(a) => comb_defs.push(Def::Assign(a)),
                Item::Always(blk) => match &blk.event {
                    Some(EventControl::Star) => comb_defs.push(Def::CombAlways(&blk.body)),
                    Some(EventControl::List(list)) => {
                        let mut clk = None;
                        for e in list {
                            match e.edge {
                                Edge::Pos => {
                                    if CLOCK_NAMES.contains(&e.signal.as_str()) {
                                        clk = Some(e.signal.clone());
                                    } else {
                                        return Err(CompileError::new(format!(
                                            "async control `posedge {}` is not supported",
                                            e.signal
                                        )));
                                    }
                                }
                                Edge::Neg => {
                                    return Err(CompileError::new(
                                        "negedge sensitivity is not supported",
                                    ))
                                }
                                Edge::Any => {
                                    // Treat a plain list as combinational.
                                }
                            }
                        }
                        match clk {
                            Some(clk) => {
                                if let Some(prev) = &self.clock {
                                    if prev != &clk {
                                        return Err(CompileError::new("multiple clocks"));
                                    }
                                }
                                self.clock = Some(clk);
                                clocked_bodies.push(&blk.body);
                            }
                            None => comb_defs.push(Def::CombAlways(&blk.body)),
                        }
                    }
                    None => {
                        return Err(CompileError::new(
                            "free-running always blocks are not supported",
                        ))
                    }
                },
                _ => {}
            }
        }

        // 2. Create Input nodes (clock excluded — it is implicit in step()).
        for p in &self.module.ports {
            if p.dir != Direction::Input {
                continue;
            }
            if Some(&p.name) == self.clock.as_ref() {
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
            collect_nba_targets(body, &mut reg_names);
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
        self.prog.sequential = !reg_names.is_empty() || self.clock.is_some();

        // 4. Topologically order combinational definitions.
        let order = self.topo_order(&comb_defs)?;

        // 5. Compile combinational definitions in order.
        for idx in order {
            match &comb_defs[idx] {
                Def::Assign(a) => {
                    let lw = self.lvalue_width(&a.lhs)?;
                    let node = self.compile_expr(&a.rhs, lw)?;
                    let node = self.extend(node, lw, self.expr_signed(&a.rhs));
                    self.write_assign(&a.lhs, node)?;
                }
                Def::CombAlways(body) => {
                    // Latch-free requirement: pre-seed targets with x so an
                    // incomplete path yields x (detectably wrong) rather
                    // than silently reusing stale values.
                    let mut targets = Vec::new();
                    collect_blocking_targets(body, &mut targets);
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
                    let mut nba = HashMap::new();
                    self.exec_stmt(body, &mut nba, false)?;
                    if !nba.is_empty() {
                        return Err(CompileError::new(
                            "non-blocking assignment in combinational always block",
                        ));
                    }
                }
            }
        }

        // 6. Compile clocked bodies: blocking temps + NBA next-values.
        let mut nba: HashMap<String, NodeId> = HashMap::new();
        for body in &clocked_bodies {
            self.exec_stmt(body, &mut nba, true)?;
        }
        for (name, next) in &nba {
            let reg = self.regs[name];
            let w = self.prog.width(reg);
            let next = self.extend(*next, w, false);
            self.prog.reg_updates.push(RegUpdate { reg, next });
        }
        self.prog.reg_updates.sort_by_key(|r| r.reg);

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
                    collect_blocking_targets(body, &mut w);
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
            Expr::Ident(n) => self.params.get(n).cloned(),
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
            Expr::Ident(n) => {
                if let Some((v, _)) = self.params.get(n) {
                    v.width()
                } else {
                    self.syms.get(n).map_or(1, |s| s.width)
                }
            }
            Expr::Unary(op, a) => match op {
                UnaryOp::Plus | UnaryOp::Neg | UnaryOp::Not => self.expr_width(a)?,
                _ => 1,
            },
            Expr::Binary(op, a, b) => {
                if op.is_comparison() {
                    1
                } else if op.is_shift() || *op == BinaryOp::Pow {
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
            Expr::SysFunc(name, args) => match name.as_str() {
                "$signed" | "$unsigned" => args.first().map_or(Ok(1), |a| self.expr_width(a))?,
                _ => 32,
            },
        })
    }

    /// The offset into `name` and the width of the part select
    /// `name[msb:lsb]`. A reversed range, or an `lsb` below the declared
    /// range, is an error, as it is to the elaborator.
    fn part_select(&self, name: &str, msb: i64, lsb: i64) -> Result<(usize, usize), CompileError> {
        let decl_lsb = if self.params.contains_key(name) {
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
                if let Some((_, s)) = self.params.get(n) {
                    *s
                } else {
                    self.syms.get(n).is_some_and(|s| s.signed)
                }
            }
            Expr::Unary(UnaryOp::Plus | UnaryOp::Neg | UnaryOp::Not, a) => self.expr_signed(a),
            Expr::Unary(_, _) => false,
            Expr::Binary(op, a, b) => {
                if op.is_comparison() {
                    false
                } else if op.is_shift() || *op == BinaryOp::Pow {
                    self.expr_signed(a)
                } else {
                    self.expr_signed(a) && self.expr_signed(b)
                }
            }
            Expr::Ternary(_, t, f) => self.expr_signed(t) && self.expr_signed(f),
            Expr::SysFunc(name, _) => name == "$signed",
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
                if let Some((v, s)) = self.params.get(n).cloned() {
                    let v = v.resize(ctx, s);
                    return Ok(self.prog.push(Node::Const(v), ctx));
                }
                let signed = self.expr_signed(e);
                let node = *self
                    .env
                    .get(n)
                    .ok_or_else(|| CompileError::new(format!("use of undefined `{n}`")))?;
                self.extend(node, ctx, signed)
            }
            Expr::Unary(op, a) => match op {
                UnaryOp::Plus => self.compile_expr(a, ctx)?,
                UnaryOp::Neg => {
                    let n = self.compile_expr(a, ctx)?;
                    self.prog.push(
                        Node::Un {
                            op: IrUnOp::Neg,
                            a: n,
                        },
                        ctx,
                    )
                }
                UnaryOp::Not => {
                    let n = self.compile_expr(a, ctx)?;
                    self.prog.push(
                        Node::Un {
                            op: IrUnOp::Not,
                            a: n,
                        },
                        ctx,
                    )
                }
                UnaryOp::LogicNot => {
                    let n = self.compile_self(a)?;
                    let b = self.prog.push(
                        Node::Un {
                            op: IrUnOp::LogicNot,
                            a: n,
                        },
                        1,
                    );
                    self.extend(b, ctx, false)
                }
                UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor => {
                    let irop = match op {
                        UnaryOp::RedAnd => IrUnOp::RedAnd,
                        UnaryOp::RedOr => IrUnOp::RedOr,
                        _ => IrUnOp::RedXor,
                    };
                    let n = self.compile_self(a)?;
                    let b = self.prog.push(Node::Un { op: irop, a: n }, 1);
                    self.extend(b, ctx, false)
                }
                UnaryOp::RedNand | UnaryOp::RedNor | UnaryOp::RedXnor => {
                    let irop = match op {
                        UnaryOp::RedNand => IrUnOp::RedAnd,
                        UnaryOp::RedNor => IrUnOp::RedOr,
                        _ => IrUnOp::RedXor,
                    };
                    let n = self.compile_self(a)?;
                    let red = self.prog.push(Node::Un { op: irop, a: n }, 1);
                    let inv = self.prog.push(
                        Node::Un {
                            op: IrUnOp::Not,
                            a: red,
                        },
                        1,
                    );
                    self.extend(inv, ctx, false)
                }
            },
            Expr::Binary(op, a, b) => self.compile_binary(*op, a, b, ctx)?,
            Expr::Ternary(c, t, f) => {
                let sel = self.compile_self(c)?;
                let sel = if self.prog.width(sel) != 1 {
                    self.prog.push(
                        Node::Un {
                            op: IrUnOp::Bool,
                            a: sel,
                        },
                        1,
                    )
                } else {
                    sel
                };
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
                if let Some((pv, _)) = self.params.get(name).cloned() {
                    // Bit select of a parameter (loop variables during
                    // unrolling): fold to a constant.
                    let (iv, _) = self
                        .const_expr(idx)
                        .ok_or_else(|| CompileError::new("non-constant select of parameter"))?;
                    let i = iv
                        .to_u64()
                        .ok_or_else(|| CompileError::new("unknown select of parameter"))?;
                    let bit = if (i as usize) < pv.width() {
                        pv.slice(i as usize, 1)
                    } else {
                        LogicVec::filled_x(1)
                    };
                    let c = self.prog.push(Node::Const(bit), 1);
                    return Ok(self.extend(c, ctx, false));
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
                if let Some((pv, _)) = self.params.get(name) {
                    let c = self.prog.push(Node::Const(pv.slice(lo, w)), w);
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
            Expr::SysFunc(name, args) => match name.as_str() {
                "$signed" | "$unsigned" => {
                    let a = args
                        .first()
                        .ok_or_else(|| CompileError::new(format!("{name} needs an argument")))?;
                    let inner = self.compile_self(a)?;
                    self.extend(inner, ctx, name == "$signed")
                }
                other => {
                    return Err(CompileError::new(format!(
                        "unsupported `{other}` in checker"
                    )))
                }
            },
        })
    }

    fn lookup_env(&self, name: &str) -> Result<NodeId, CompileError> {
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
        let signed_pair = self.expr_signed(a) && self.expr_signed(b);
        Ok(match op {
            B::Add | B::Sub | B::Mul | B::Div | B::Mod | B::And | B::Or | B::Xor | B::Xnor => {
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
                    B::Xor | B::Xnor => IrBinOp::Xor,
                    _ => unreachable!(),
                };
                let n = self.prog.push(
                    Node::Bin {
                        op: irop,
                        a: an,
                        b: bn,
                        signed: false,
                    },
                    ctx,
                );
                if op == B::Xnor {
                    self.prog.push(
                        Node::Un {
                            op: IrUnOp::Not,
                            a: n,
                        },
                        ctx,
                    )
                } else {
                    n
                }
            }
            B::Pow => {
                // Constant exponent only (the dataset never needs more).
                let (exp, _) = self
                    .const_expr(b)
                    .ok_or_else(|| CompileError::new("non-constant `**` exponent"))?;
                let e = exp
                    .to_u64()
                    .ok_or_else(|| CompileError::new("unknown `**` exponent"))?;
                let base = self.compile_expr(a, ctx)?;
                let mut acc = self.prog.push(Node::Const(LogicVec::from_u64(ctx, 1)), ctx);
                for _ in 0..e.min(64) {
                    acc = self.prog.push(
                        Node::Bin {
                            op: IrBinOp::Mul,
                            a: acc,
                            b: base,
                            signed: false,
                        },
                        ctx,
                    );
                }
                acc
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
                let r = self.prog.push(
                    Node::Bin {
                        op: irop,
                        a: ab,
                        b: bb,
                        signed: false,
                    },
                    1,
                );
                self.extend(r, ctx, false)
            }
            B::Eq | B::Ne | B::CaseEq | B::CaseNe | B::Lt | B::Le | B::Gt | B::Ge => {
                let w = self.expr_width(a)?.max(self.expr_width(b)?);
                let an = self.compile_expr(a, w)?;
                let bn = self.compile_expr(b, w)?;
                let lt_op = if signed_pair {
                    IrBinOp::LtS
                } else {
                    IrBinOp::LtU
                };
                let (node, invert) = match op {
                    B::Eq => ((IrBinOp::Eq, an, bn), false),
                    B::Ne => ((IrBinOp::Eq, an, bn), true),
                    B::CaseEq => ((IrBinOp::CaseEq, an, bn), false),
                    B::CaseNe => ((IrBinOp::CaseEq, an, bn), true),
                    B::Lt => ((lt_op, an, bn), false),
                    B::Ge => ((lt_op, an, bn), true),
                    B::Gt => ((lt_op, bn, an), false),
                    B::Le => ((lt_op, bn, an), true),
                    _ => unreachable!(),
                };
                let (irop, x, y) = node;
                let mut r = self.prog.push(
                    Node::Bin {
                        op: irop,
                        a: x,
                        b: y,
                        signed: false,
                    },
                    1,
                );
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
            B::Shl | B::AShl | B::Shr | B::AShr => {
                let an = self.compile_expr(a, ctx)?;
                let bn = self.compile_self(b)?;
                let irop = match op {
                    B::Shl | B::AShl => IrBinOp::Shl,
                    B::Shr => IrBinOp::Shr,
                    B::AShr => {
                        if self.expr_signed(a) {
                            IrBinOp::AShr
                        } else {
                            IrBinOp::Shr
                        }
                    }
                    _ => unreachable!(),
                };
                // Shift amount is self-determined; keep it un-extended by
                // wrapping in a same-width pair via an explicit Bin node
                // whose operands may have different widths (interpreter
                // resizes to the node width, which is the left width — so
                // extend the amount separately to preserve its value).
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
        })
    }

    // ---- statement symbolic execution ----

    /// Executes a statement, updating the blocking env and, when
    /// `clocked`, recording NBA next-values into `nba`.
    fn exec_stmt(
        &mut self,
        s: &Stmt,
        nba: &mut HashMap<String, NodeId>,
        clocked: bool,
    ) -> Result<(), CompileError> {
        match s {
            Stmt::Block(stmts) => {
                for st in stmts {
                    self.exec_stmt(st, nba, clocked)?;
                }
                Ok(())
            }
            Stmt::Blocking(lv, e) => {
                let v = self.compile_rhs_for(lv, e)?;
                self.write_blocking(lv, v)
            }
            Stmt::NonBlocking(lv, e) => {
                if !clocked {
                    return Err(CompileError::new(
                        "non-blocking assignment outside a clocked block",
                    ));
                }
                let v = self.compile_rhs_for(lv, e)?;
                self.write_nba(lv, v, nba)
            }
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                let sel = self.compile_self(cond)?;
                let sel = if self.prog.width(sel) != 1 {
                    self.prog.push(
                        Node::Un {
                            op: IrUnOp::Bool,
                            a: sel,
                        },
                        1,
                    )
                } else {
                    sel
                };
                let env0 = self.env.clone();
                let nba0 = nba.clone();
                self.exec_stmt(then_stmt, nba, clocked)?;
                let env_t = std::mem::replace(&mut self.env, env0.clone());
                let nba_t = std::mem::replace(nba, nba0.clone());
                if let Some(e) = else_stmt {
                    self.exec_stmt(e, nba, clocked)?;
                }
                let env_f = std::mem::replace(&mut self.env, env0);
                let nba_f = std::mem::replace(nba, nba0);
                self.merge_env(sel, env_t, env_f);
                self.merge_nba(sel, nba_t, nba_f, nba);
                Ok(())
            }
            Stmt::Case { kind, expr, arms } => self.exec_case(*kind, expr, arms, nba, clocked),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => self.exec_for(init, cond, step, body, nba, clocked),
            Stmt::While { .. } | Stmt::Repeat { .. } | Stmt::Forever(_) => Err(CompileError::new(
                "unbounded loops are not supported in checkers",
            )),
            Stmt::Delay { .. } | Stmt::EventWait { .. } => Err(CompileError::new(
                "timing controls are not supported in checkers",
            )),
            Stmt::SysCall { .. } | Stmt::Empty => Ok(()),
        }
    }

    fn compile_rhs_for(&mut self, lv: &LValue, e: &Expr) -> Result<NodeId, CompileError> {
        let lw = self.lvalue_width(lv)?;
        let node = self.compile_expr(e, lw)?;
        let signed = self.expr_signed(e);
        Ok(self.extend(node, lw, signed))
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

    /// Continuous-assignment targets: whole signals or concatenations of
    /// whole signals (`assign {cout, sum} = ...`).
    fn write_assign(&mut self, lv: &LValue, value: NodeId) -> Result<(), CompileError> {
        match lv {
            LValue::Ident(n) => {
                if !self.syms.contains_key(n) {
                    return Err(CompileError::new(format!("undeclared `{n}`")));
                }
                self.env.insert(n.clone(), value);
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
                    self.write_assign(part, slice)?;
                    lo += w;
                }
                Ok(())
            }
            other => Err(CompileError::new(format!(
                "assign target must be whole signals, got {other:?}"
            ))),
        }
    }

    fn write_blocking(&mut self, lv: &LValue, value: NodeId) -> Result<(), CompileError> {
        match lv {
            LValue::Ident(n) => {
                if !self.syms.contains_key(n) {
                    return Err(CompileError::new(format!("undeclared `{n}`")));
                }
                self.env.insert(n.clone(), value);
                Ok(())
            }
            LValue::Bit(n, idx) => self.insert_bits(n, idx, value, 1, true, &mut HashMap::new()),
            LValue::Part(n, msb, lsb) => {
                let (lo, w) = self.part_select(n, *msb, *lsb)?;
                let lit = Expr::literal_u64(32, lo as u64);
                self.insert_bits(n, &lit, value, w, true, &mut HashMap::new())
            }
            LValue::IndexedPart(n, base, w) => {
                self.insert_bits(n, base, value, *w, true, &mut HashMap::new())
            }
            LValue::Concat(parts) => {
                let mut lo = 0usize;
                for p in parts.iter().rev() {
                    let w = self.lvalue_width(p)?;
                    let slice = self.prog.push(
                        Node::Slice {
                            a: value,
                            lo,
                            width: w,
                        },
                        w,
                    );
                    self.write_blocking(p, slice)?;
                    lo += w;
                }
                Ok(())
            }
        }
    }

    fn write_nba(
        &mut self,
        lv: &LValue,
        value: NodeId,
        nba: &mut HashMap<String, NodeId>,
    ) -> Result<(), CompileError> {
        match lv {
            LValue::Ident(n) => {
                if !self.regs.contains_key(n) {
                    return Err(CompileError::new(format!("`{n}` is not a register")));
                }
                nba.insert(n.clone(), value);
                Ok(())
            }
            LValue::Bit(n, idx) => self.insert_bits(n, idx, value, 1, false, nba),
            LValue::Part(n, msb, lsb) => {
                let (lo, w) = self.part_select(n, *msb, *lsb)?;
                let lit = Expr::literal_u64(32, lo as u64);
                self.insert_bits(n, &lit, value, w, false, nba)
            }
            LValue::IndexedPart(n, base, w) => self.insert_bits(n, base, value, *w, false, nba),
            LValue::Concat(parts) => {
                let mut lo = 0usize;
                for p in parts.iter().rev() {
                    let w = self.lvalue_width(p)?;
                    let slice = self.prog.push(
                        Node::Slice {
                            a: value,
                            lo,
                            width: w,
                        },
                        w,
                    );
                    self.write_nba(p, slice, nba)?;
                    lo += w;
                }
                Ok(())
            }
        }
    }

    /// Read-modify-write for bit/part targets. For NBAs the base is the
    /// pending next value (or the register's current value).
    fn insert_bits(
        &mut self,
        name: &str,
        idx: &Expr,
        value: NodeId,
        width: usize,
        blocking: bool,
        nba: &mut HashMap<String, NodeId>,
    ) -> Result<(), CompileError> {
        let info = self
            .syms
            .get(name)
            .cloned()
            .ok_or_else(|| CompileError::new(format!("undeclared `{name}`")))?;
        let base = if blocking {
            self.lookup_env(name)?
        } else {
            match nba.get(name) {
                Some(n) => *n,
                None => *self
                    .regs
                    .get(name)
                    .ok_or_else(|| CompileError::new(format!("`{name}` is not a register")))?,
            }
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
        if blocking {
            self.env.insert(name.to_string(), out);
        } else {
            nba.insert(name.to_string(), out);
        }
        Ok(())
    }

    fn merge_env(
        &mut self,
        sel: NodeId,
        env_t: HashMap<String, NodeId>,
        env_f: HashMap<String, NodeId>,
    ) {
        let mut keys: Vec<&String> = env_t.keys().chain(env_f.keys()).collect();
        keys.sort();
        keys.dedup();
        let keys: Vec<String> = keys.into_iter().cloned().collect();
        for k in keys {
            let t = env_t.get(&k).copied();
            let f = env_f.get(&k).copied();
            match (t, f) {
                (Some(t), Some(f)) if t == f => {
                    self.env.insert(k, t);
                }
                (Some(t), Some(f)) => {
                    let w = self.prog.width(t).max(self.prog.width(f));
                    let t = self.extend(t, w, false);
                    let f = self.extend(f, w, false);
                    let m = self.prog.push(Node::Mux { sel, t, f }, w);
                    self.env.insert(k, m);
                }
                (Some(t), None) => {
                    self.env.insert(k, t);
                }
                (None, Some(f)) => {
                    self.env.insert(k, f);
                }
                (None, None) => {}
            }
        }
    }

    fn merge_nba(
        &mut self,
        sel: NodeId,
        nba_t: HashMap<String, NodeId>,
        nba_f: HashMap<String, NodeId>,
        out: &mut HashMap<String, NodeId>,
    ) {
        let mut keys: Vec<&String> = nba_t.keys().chain(nba_f.keys()).collect();
        keys.sort();
        keys.dedup();
        let keys: Vec<String> = keys.into_iter().cloned().collect();
        for k in keys {
            // A branch that did not assign leaves the register at its
            // current value (NBA hold semantics).
            let hold = self.regs.get(&k).copied();
            let t = nba_t.get(&k).copied().or(hold);
            let f = nba_f.get(&k).copied().or(hold);
            match (t, f) {
                (Some(t), Some(f)) if t == f => {
                    out.insert(k, t);
                }
                (Some(t), Some(f)) => {
                    let w = self.prog.width(t).max(self.prog.width(f));
                    let t = self.extend(t, w, false);
                    let f = self.extend(f, w, false);
                    let m = self.prog.push(Node::Mux { sel, t, f }, w);
                    out.insert(k, m);
                }
                _ => {}
            }
        }
    }

    fn exec_case(
        &mut self,
        kind: CaseKind,
        expr: &Expr,
        arms: &[CaseArm],
        nba: &mut HashMap<String, NodeId>,
        clocked: bool,
    ) -> Result<(), CompileError> {
        // Lower to an if-else chain, last arm first.
        let mut sel_w = self.expr_width(expr)?;
        for label in arms.iter().flat_map(|a| &a.labels) {
            sel_w = sel_w.max(self.expr_width(label)?);
        }
        let sel = self.compile_expr(expr, sel_w)?;

        // Build (cond, body) pairs in order; default is the trailing else.
        let mut default_body: Option<&Stmt> = None;
        let mut cases: Vec<(NodeId, &Stmt)> = Vec::new();
        for arm in arms {
            if arm.labels.is_empty() {
                default_body = Some(&arm.body);
                continue;
            }
            let mut cond: Option<NodeId> = None;
            for label in &arm.labels {
                let c = match kind {
                    CaseKind::Case => {
                        let l = self.compile_expr(label, sel_w)?;
                        self.prog.push(
                            Node::Bin {
                                op: IrBinOp::CaseEq,
                                a: sel,
                                b: l,
                                signed: false,
                            },
                            1,
                        )
                    }
                    CaseKind::Casez | CaseKind::Casex => {
                        // Wildcard match against a constant label: compare
                        // the non-wildcard bits only.
                        let (lv, _) = self.const_expr(label).ok_or_else(|| {
                            CompileError::new("casez/casex labels must be constants")
                        })?;
                        let lv = lv.zero_extend(sel_w);
                        let mut mask = LogicVec::zeros(sel_w);
                        let mut want = LogicVec::zeros(sel_w);
                        for i in 0..sel_w {
                            use correctbench_verilog::logic::Bit;
                            match lv.bit(i) {
                                Bit::Zero => mask.set_bit(i, Bit::One),
                                Bit::One => {
                                    mask.set_bit(i, Bit::One);
                                    want.set_bit(i, Bit::One);
                                }
                                Bit::Z => {}
                                Bit::X => {
                                    if kind == CaseKind::Casex {
                                        // wildcard
                                    } else {
                                        mask.set_bit(i, Bit::One);
                                    }
                                }
                            }
                        }
                        let mask_n = self.prog.push(Node::Const(mask), sel_w);
                        let want_n = self.prog.push(Node::Const(want), sel_w);
                        let masked = self.prog.push(
                            Node::Bin {
                                op: IrBinOp::And,
                                a: sel,
                                b: mask_n,
                                signed: false,
                            },
                            sel_w,
                        );
                        self.prog.push(
                            Node::Bin {
                                op: IrBinOp::Eq,
                                a: masked,
                                b: want_n,
                                signed: false,
                            },
                            1,
                        )
                    }
                };
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
            cases.push((cond.expect("non-empty labels"), &arm.body));
        }

        // Execute as nested ifs from the first arm.
        self.exec_case_chain(&cases, default_body, nba, clocked)
    }

    fn exec_case_chain(
        &mut self,
        cases: &[(NodeId, &Stmt)],
        default_body: Option<&Stmt>,
        nba: &mut HashMap<String, NodeId>,
        clocked: bool,
    ) -> Result<(), CompileError> {
        match cases.split_first() {
            None => {
                if let Some(d) = default_body {
                    self.exec_stmt(d, nba, clocked)?;
                }
                Ok(())
            }
            Some(((cond, body), rest)) => {
                let env0 = self.env.clone();
                let nba0 = nba.clone();
                self.exec_stmt(body, nba, clocked)?;
                let env_t = std::mem::replace(&mut self.env, env0.clone());
                let nba_t = std::mem::replace(nba, nba0.clone());
                self.exec_case_chain(rest, default_body, nba, clocked)?;
                let env_f = std::mem::replace(&mut self.env, env0);
                let nba_f = std::mem::replace(nba, nba0);
                self.merge_env(*cond, env_t, env_f);
                self.merge_nba(*cond, nba_t, nba_f, nba);
                Ok(())
            }
        }
    }

    fn exec_for(
        &mut self,
        init: &Stmt,
        cond: &Expr,
        step: &Stmt,
        body: &Stmt,
        nba: &mut HashMap<String, NodeId>,
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
            // Substitute the loop variable as a parameter for this pass.
            self.params.insert(var.clone(), (current.clone(), true));
            let cond_val = self
                .const_expr(cond)
                .map(|(v, _)| v)
                .or_else(|| self.eval_loop_cond(cond))
                .ok_or_else(|| CompileError::new("for-loop condition must be loop-constant"))?;
            if !cond_val.is_true() {
                break;
            }
            self.exec_stmt(body, nba, clocked)?;
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
        self.params.remove(&var);
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

fn collect_nba_targets(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Block(stmts) => {
            for st in stmts {
                collect_nba_targets(st, out);
            }
        }
        Stmt::NonBlocking(lv, _) => out.extend(lv.targets().iter().map(|s| s.to_string())),
        Stmt::If {
            then_stmt,
            else_stmt,
            ..
        } => {
            collect_nba_targets(then_stmt, out);
            if let Some(e) = else_stmt {
                collect_nba_targets(e, out);
            }
        }
        Stmt::Case { arms, .. } => {
            for a in arms {
                collect_nba_targets(&a.body, out);
            }
        }
        Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::Repeat { body, .. } => {
            collect_nba_targets(body, out)
        }
        Stmt::Forever(body) => collect_nba_targets(body, out),
        _ => {}
    }
}

fn collect_blocking_targets(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Block(stmts) => {
            for st in stmts {
                collect_blocking_targets(st, out);
            }
        }
        Stmt::Blocking(lv, _) => out.extend(lv.targets().iter().map(|s| s.to_string())),
        Stmt::If {
            then_stmt,
            else_stmt,
            ..
        } => {
            collect_blocking_targets(then_stmt, out);
            if let Some(e) = else_stmt {
                collect_blocking_targets(e, out);
            }
        }
        Stmt::Case { arms, .. } => {
            for a in arms {
                collect_blocking_targets(&a.body, out);
            }
        }
        Stmt::For {
            init, step, body, ..
        } => {
            // Loop variables are substituted, not assigned; skip init/step
            // targets that match body loop vars is complex — collect all,
            // the compiler pre-seeds them with x harmlessly.
            let _ = init;
            let _ = step;
            collect_blocking_targets(body, out);
        }
        Stmt::While { body, .. } | Stmt::Repeat { body, .. } => collect_blocking_targets(body, out),
        Stmt::Forever(body) => collect_blocking_targets(body, out),
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

    #[test]
    fn unsupported_constructs_error() {
        let f = parse(
            "module m(input clk, output reg q);\nalways @(negedge clk) q <= 1'b1;\nendmodule",
        )
        .expect("parse");
        assert!(compile_module(&f.modules[0]).is_err());
        let f = parse("module m(input clk, rst, output reg q);\nalways @(posedge clk or posedge rst) q <= 1'b1;\nendmodule").expect("parse");
        assert!(compile_module(&f.modules[0]).is_err());
        let f = parse("module m(output y);\nwire y;\nsub u(.y(y));\nendmodule").expect("parse");
        assert!(compile_module(&f.modules[0]).is_err());
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
