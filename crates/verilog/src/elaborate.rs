//! Elaboration: AST → flattened [`Design`].
//!
//! Elaboration resolves names to signal ids, folds parameters into
//! constants, flattens the instance hierarchy with dotted name prefixes,
//! binds instance ports with continuous assignments, annotates expressions
//! with Verilog sizing information, and lowers procedural bodies to the
//! instruction lists the simulator walks. It also marks each process's
//! zero-time loops ([`Instr::LoopBack`], with a [`CountedGuard`] for the
//! counted ones) and the signals it writes, the facts the simulator's
//! runaway detector works from.

use crate::ast::*;
use crate::design::*;
use crate::error::ElabError;
use crate::logic::LogicVec;
use std::collections::{HashMap, HashSet};

/// Elaborates `top` (and everything it instantiates) from `file`.
///
/// # Errors
///
/// Returns [`ElabError`] for unresolved names, assignments to the wrong net
/// kind (`assign` to a `reg`, procedural writes to a `wire`), missing
/// modules, recursive instantiation deeper than 16 levels, bad port
/// bindings, and `always` blocks that could never suspend.
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Design, ElabError> {
    elaborate_files(&[file], top)
}

/// Elaborates `top` from the modules of `files` taken as one file. Module
/// lookup and the duplicate-module check span every file, so this is
/// exactly [`elaborate`] over a parse of their texts joined in order —
/// without building the joined AST.
///
/// # Errors
///
/// As [`elaborate`].
pub fn elaborate_files(files: &[&SourceFile], top: &str) -> Result<Design, ElabError> {
    let _span = correctbench_obs::span(correctbench_obs::Phase::Elab);
    let mut seen = HashSet::new();
    for m in files.iter().flat_map(|f| &f.modules) {
        if !seen.insert(m.name.as_str()) {
            return Err(ElabError::new(format!("duplicate module `{}`", m.name)));
        }
    }
    let mut design = Design::default();
    let mut el = Elaborator {
        files,
        design: &mut design,
        temp_counter: 0,
    };
    let module = el
        .module(top)
        .ok_or_else(|| ElabError::new(format!("top module `{top}` not found")))?;
    el.instantiate(module, "", 0)?;
    Ok(design)
}

#[derive(Clone)]
enum Binding {
    Sig(SignalId),
    Const(LogicVec, bool),
}

struct Scope {
    names: HashMap<String, Binding>,
}

impl Scope {
    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.names.get(name)
    }

    fn sig(&self, name: &str) -> Result<SignalId, ElabError> {
        match self.lookup(name) {
            Some(Binding::Sig(s)) => Ok(*s),
            Some(Binding::Const(_, _)) => Err(ElabError::new(format!(
                "`{name}` is a parameter, not a signal"
            ))),
            None => Err(ElabError::new(format!("undeclared identifier `{name}`"))),
        }
    }
}

/// Upper bound on any signal or expression width the elaborator accepts.
/// Malformed or adversarial generated RTL can declare ranges like
/// `[2000000000:0]` or nest replications whose width product overflows;
/// rejecting them here turns would-be giant allocations (or debug-build
/// arithmetic panics) into ordinary [`ElabError`]s.
const MAX_WIDTH: usize = 1 << 20;

/// Validates a computed width against [`MAX_WIDTH`].
fn checked_width(width: usize, what: &str) -> Result<usize, ElabError> {
    if width > MAX_WIDTH {
        Err(ElabError::new(format!(
            "{what} width {width} exceeds the supported maximum {MAX_WIDTH}"
        )))
    } else {
        Ok(width)
    }
}

struct Elaborator<'a> {
    files: &'a [&'a SourceFile],
    design: &'a mut Design,
    temp_counter: usize,
}

impl<'a> Elaborator<'a> {
    /// The module named `name`, from whichever file defines it.
    fn module(&self, name: &str) -> Option<&'a Module> {
        self.files.iter().find_map(|f| f.module(name))
    }

    /// Appends a process, marking its zero-time loops for the
    /// simulator's runaway detector.
    fn push_process(&mut self, kind: ProcessKind, mut code: Vec<Instr>, name: String) {
        let written = mark_zero_time_loops(self.design, &mut code);
        self.design.processes.push(ProcessDef {
            kind,
            code,
            name,
            written,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn add_signal(
        &mut self,
        scope: &mut Scope,
        prefix: &str,
        name: &str,
        width: usize,
        signed: bool,
        lsb: i64,
        kind: SignalKind,
    ) -> Result<SignalId, ElabError> {
        if scope.names.contains_key(name) {
            return Err(ElabError::new(format!("duplicate declaration of `{name}`")));
        }
        checked_width(width, "signal")?;
        let id = SignalId(self.design.signals.len() as u32);
        self.design.signals.push(SignalDef {
            name: format!("{prefix}{name}"),
            width,
            signed,
            lsb,
            kind,
        });
        scope.names.insert(name.to_string(), Binding::Sig(id));
        Ok(id)
    }

    fn fresh_temp(&mut self, prefix: &str, width: usize) -> SignalId {
        let id = SignalId(self.design.signals.len() as u32);
        self.temp_counter += 1;
        self.design.signals.push(SignalDef {
            name: format!("{prefix}$tmp{}", self.temp_counter),
            width,
            signed: false,
            lsb: 0,
            kind: SignalKind::Reg,
        });
        id
    }

    /// Elaborates one module instance. `prefix` is the hierarchical path
    /// including a trailing dot (empty for the top).
    fn instantiate(
        &mut self,
        module: &Module,
        prefix: &str,
        depth: usize,
    ) -> Result<Scope, ElabError> {
        if depth > 16 {
            return Err(ElabError::new(format!(
                "instantiation of `{}` exceeds depth 16 (recursive hierarchy?)",
                module.name
            )));
        }
        let mut scope = Scope {
            names: HashMap::new(),
        };

        // Header-declared ports.
        for p in &module.ports {
            let kind = match p.net {
                NetKind::Reg | NetKind::Integer => SignalKind::Reg,
                NetKind::Wire => SignalKind::Wire,
            };
            if p.dir == Direction::Input && kind == SignalKind::Reg {
                return Err(ElabError::new(format!(
                    "input port `{}` cannot be a reg",
                    p.name
                )));
            }
            self.add_signal(
                &mut scope,
                prefix,
                &p.name,
                p.width(),
                p.signed,
                p.range.map_or(0, |r| r.lsb),
                kind,
            )?;
        }
        for name in &module.port_order {
            // Non-ANSI headers list names whose declarations arrive in the
            // body; ANSI ones are already bound. Check at the end instead.
            let _ = name;
        }

        // Two passes over items: declarations & parameters first, then
        // everything that references them. (Verilog requires declaration
        // before use in our subset; a single pass with params interleaved
        // would also work, but two passes accept more generated code.)
        let mut initial_inits: Vec<(RLValue, RExpr)> = Vec::new();
        for item in &module.items {
            match item {
                Item::Net(decl) => {
                    let width = checked_width(decl.range.map_or(1, |r| r.width()), "signal")?;
                    let lsb = decl.range.map_or(0, |r| r.lsb);
                    let kind = match decl.kind {
                        NetKind::Wire => SignalKind::Wire,
                        NetKind::Reg | NetKind::Integer => SignalKind::Reg,
                    };
                    for (name, init) in &decl.names {
                        // A body declaration may complete a non-ANSI port.
                        if let Some(Binding::Sig(id)) = scope.lookup(name).cloned() {
                            let def = &mut self.design.signals[id.0 as usize];
                            let port_decl = module.ports.iter().find(|p| &p.name == name);
                            if port_decl.is_some() {
                                if def.width != width && def.width != 1 {
                                    return Err(ElabError::new(format!(
                                        "port `{name}` redeclared with a different range"
                                    )));
                                }
                                def.width = width;
                                def.lsb = lsb;
                                def.signed = def.signed || decl.signed;
                                if kind == SignalKind::Reg {
                                    def.kind = SignalKind::Reg;
                                }
                                continue;
                            }
                            return Err(ElabError::new(format!(
                                "duplicate declaration of `{name}`"
                            )));
                        }
                        let id = self.add_signal(
                            &mut scope,
                            prefix,
                            name,
                            width,
                            decl.signed,
                            lsb,
                            kind,
                        )?;
                        if let Some(e) = init {
                            let rhs = self.resolve_expr(&scope, e)?;
                            initial_inits.push((RLValue::Sig(id), rhs));
                        }
                    }
                }
                Item::Param(p) => {
                    let rexpr = self.resolve_expr(&scope, &p.value)?;
                    let value = const_eval(&rexpr).ok_or_else(|| {
                        ElabError::new(format!("parameter `{}` is not constant", p.name))
                    })?;
                    if scope.names.contains_key(&p.name) {
                        return Err(ElabError::new(format!(
                            "duplicate declaration of `{}`",
                            p.name
                        )));
                    }
                    scope
                        .names
                        .insert(p.name.clone(), Binding::Const(value, rexpr.signed));
                }
                _ => {}
            }
        }

        // Every header port name must be bound by now.
        for name in &module.port_order {
            if scope.lookup(name).is_none() {
                return Err(ElabError::new(format!(
                    "port `{name}` of `{}` is never declared",
                    module.name
                )));
            }
        }

        if !initial_inits.is_empty() {
            let mut code = Vec::new();
            for (lhs, rhs) in initial_inits {
                code.push(Instr::Assign(lhs, rhs));
            }
            code.push(Instr::Halt);
            self.push_process(ProcessKind::Initial, code, format!("{prefix}$decl_init"));
        }

        // Second pass: behaviour.
        for item in &module.items {
            match item {
                Item::Net(_) | Item::Param(_) => {}
                Item::Assign(a) => {
                    let lhs = self.resolve_lvalue(&scope, &a.lhs, SignalKind::Wire)?;
                    let rhs = self.resolve_expr(&scope, &a.rhs)?;
                    let mut reads = Vec::new();
                    rhs.collect_sigs(&mut reads);
                    collect_lvalue_index_reads(&lhs, &mut reads);
                    reads.sort();
                    reads.dedup();
                    self.design.assigns.push(RAssign { lhs, rhs, reads });
                }
                Item::Always(blk) => {
                    let idx = self.design.processes.len();
                    let mut comp = BodyCompiler {
                        el: self,
                        scope: &scope,
                        prefix,
                        code: Vec::new(),
                        write_kind: SignalKind::Reg,
                    };
                    match &blk.event {
                        Some(EventControl::List(list)) => {
                            let edges = resolve_event_list(&scope, list)?;
                            comp.code.push(Instr::WaitEvent(edges));
                            comp.stmt(&blk.body)?;
                            let top = 0;
                            comp.code.push(Instr::Jump(top));
                        }
                        Some(EventControl::Star) => {
                            let mut reads = Vec::new();
                            blk.body.collect_reads(&mut reads);
                            let mut edges = Vec::new();
                            for name in reads {
                                if let Some(Binding::Sig(s)) = scope.lookup(&name) {
                                    edges.push((Edge::Any, *s));
                                }
                            }
                            edges.sort_by_key(|(_, s)| *s);
                            edges.dedup_by_key(|(_, s)| *s);
                            // Run the body once at time zero, then wait.
                            comp.stmt(&blk.body)?;
                            let wait_pc = comp.code.len();
                            comp.code.push(Instr::WaitEvent(edges));
                            comp.stmt(&blk.body)?;
                            comp.code.push(Instr::Jump(wait_pc));
                        }
                        None => {
                            comp.stmt(&blk.body)?;
                            if !comp
                                .code
                                .iter()
                                .any(|i| matches!(i, Instr::Delay(_) | Instr::WaitEvent(_)))
                            {
                                return Err(ElabError::new(
                                    "always block has no event control or delay",
                                ));
                            }
                            comp.code.push(Instr::Jump(0));
                        }
                    }
                    let code = comp.code;
                    self.push_process(ProcessKind::Always, code, format!("{prefix}always#{idx}"));
                }
                Item::Initial(body) => {
                    let idx = self.design.processes.len();
                    let mut comp = BodyCompiler {
                        el: self,
                        scope: &scope,
                        prefix,
                        code: Vec::new(),
                        write_kind: SignalKind::Reg,
                    };
                    comp.stmt(body)?;
                    comp.code.push(Instr::Halt);
                    let code = comp.code;
                    self.push_process(ProcessKind::Initial, code, format!("{prefix}initial#{idx}"));
                }
                Item::Instance(inst) => {
                    self.bind_instance(&scope, prefix, inst, depth)?;
                }
            }
        }

        Ok(scope)
    }

    fn bind_instance(
        &mut self,
        outer: &Scope,
        prefix: &str,
        inst: &Instance,
        depth: usize,
    ) -> Result<(), ElabError> {
        let module = self
            .module(&inst.module)
            .ok_or_else(|| ElabError::new(format!("unknown module `{}`", inst.module)))?;
        let inner_prefix = format!("{prefix}{}.", inst.name);
        let inner_scope = self.instantiate(module, &inner_prefix, depth + 1)?;

        // Pair up connections with ports.
        let pairs: Vec<(String, Option<&Expr>)> = match &inst.conns {
            Connections::Ordered(exprs) => {
                if exprs.len() > module.port_order.len() {
                    return Err(ElabError::new(format!(
                        "instance `{}` has {} connections but `{}` has {} ports",
                        inst.name,
                        exprs.len(),
                        module.name,
                        module.port_order.len()
                    )));
                }
                module
                    .port_order
                    .iter()
                    .zip(exprs.iter().map(Some).chain(std::iter::repeat(None)))
                    .map(|(p, e)| (p.clone(), e))
                    .collect()
            }
            Connections::Named(named) => {
                let mut pairs = Vec::new();
                for (port, expr) in named {
                    if !module.port_order.iter().any(|p| p == port) {
                        return Err(ElabError::new(format!(
                            "`{}` has no port named `{port}`",
                            module.name
                        )));
                    }
                    pairs.push((port.clone(), expr.as_ref()));
                }
                pairs
            }
        };

        for (port_name, conn) in pairs {
            let Some(conn) = conn else { continue };
            let port_decl = module
                .ports
                .iter()
                .find(|p| p.name == port_name)
                .ok_or_else(|| {
                    ElabError::new(format!(
                        "port `{port_name}` of `{}` has no declaration",
                        module.name
                    ))
                })?;
            let inner_sig = inner_scope.sig(&port_name)?;
            match port_decl.dir {
                Direction::Input => {
                    let rhs = self.resolve_expr(outer, conn)?;
                    let mut reads = Vec::new();
                    rhs.collect_sigs(&mut reads);
                    reads.sort();
                    reads.dedup();
                    self.design.assigns.push(RAssign {
                        lhs: RLValue::Sig(inner_sig),
                        rhs,
                        reads,
                    });
                }
                Direction::Output => {
                    let lhs = self.expr_as_lvalue(outer, conn).ok_or_else(|| {
                        ElabError::new(format!(
                            "output port `{port_name}` must connect to a signal"
                        ))
                    })?;
                    let def = self.design.signal(inner_sig);
                    let rhs = RExpr {
                        width: def.width,
                        signed: def.signed,
                        kind: RExprKind::Sig(inner_sig),
                    };
                    self.design.assigns.push(RAssign {
                        lhs,
                        rhs,
                        reads: vec![inner_sig],
                    });
                }
            }
        }
        Ok(())
    }

    fn expr_as_lvalue(&mut self, scope: &Scope, e: &Expr) -> Option<RLValue> {
        match e {
            Expr::Ident(n) => scope.sig(n).ok().map(RLValue::Sig),
            Expr::Bit(n, idx) => {
                let s = scope.sig(n).ok()?;
                let idx = self.resolve_expr(scope, idx).ok()?;
                let idx = self.rebase_index(s, idx);
                Some(RLValue::Bit(s, Box::new(idx)))
            }
            Expr::Part(n, msb, lsb) => {
                let s = scope.sig(n).ok()?;
                let def = self.design.signal(s);
                let lo = lsb - def.lsb;
                if lo < 0 || msb < lsb {
                    return None;
                }
                Some(RLValue::Part(s, lo as usize, (msb - lsb) as usize + 1))
            }
            Expr::Concat(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.push(self.expr_as_lvalue(scope, p)?);
                }
                Some(RLValue::Concat(out))
            }
            _ => None,
        }
    }

    fn rebase_index(&self, sig: SignalId, idx: RExpr) -> RExpr {
        let lsb = self.design.signal(sig).lsb;
        if lsb == 0 {
            return idx;
        }
        let w = idx.width.max(32);
        RExpr {
            width: w,
            signed: true,
            kind: RExprKind::Binary(
                BinaryOp::Sub,
                Box::new(idx),
                Box::new(RExpr::lit(LogicVec::from_u64(32, lsb as u64), false)),
            ),
        }
    }

    fn resolve_expr(&mut self, scope: &Scope, e: &Expr) -> Result<RExpr, ElabError> {
        Ok(match e {
            Expr::Literal { value, signed } => RExpr::lit(value.clone(), *signed),
            Expr::Ident(n) => match scope.lookup(n) {
                Some(Binding::Sig(s)) => {
                    let def = self.design.signal(*s);
                    RExpr {
                        width: def.width,
                        signed: def.signed,
                        kind: RExprKind::Sig(*s),
                    }
                }
                Some(Binding::Const(v, signed)) => RExpr::lit(v.clone(), *signed),
                None => return Err(ElabError::new(format!("undeclared identifier `{n}`"))),
            },
            Expr::Unary(op, a) => {
                let a = self.resolve_expr(scope, a)?;
                let (width, signed) = match op {
                    UnaryOp::Plus | UnaryOp::Neg | UnaryOp::Not => (a.width, a.signed),
                    _ => (1, false),
                };
                RExpr {
                    width,
                    signed,
                    kind: RExprKind::Unary(*op, Box::new(a)),
                }
            }
            Expr::Binary(op, a, b) => {
                let a = self.resolve_expr(scope, a)?;
                let b = self.resolve_expr(scope, b)?;
                let (width, signed) = if op.is_comparison() {
                    (1, false)
                } else if op.is_shift() || *op == BinaryOp::Pow {
                    (a.width, a.signed)
                } else {
                    (a.width.max(b.width), a.signed && b.signed)
                };
                RExpr {
                    width,
                    signed,
                    kind: RExprKind::Binary(*op, Box::new(a), Box::new(b)),
                }
            }
            Expr::Ternary(c, t, f) => {
                let c = self.resolve_expr(scope, c)?;
                let t = self.resolve_expr(scope, t)?;
                let f = self.resolve_expr(scope, f)?;
                let width = t.width.max(f.width);
                let signed = t.signed && f.signed;
                RExpr {
                    width,
                    signed,
                    kind: RExprKind::Ternary(Box::new(c), Box::new(t), Box::new(f)),
                }
            }
            Expr::Concat(parts) => {
                let parts = parts
                    .iter()
                    .map(|p| self.resolve_expr(scope, p))
                    .collect::<Result<Vec<_>, _>>()?;
                let width = parts
                    .iter()
                    .try_fold(0usize, |acc, p| acc.checked_add(p.width))
                    .ok_or_else(|| ElabError::new("concatenation width overflow"))?;
                RExpr {
                    width: checked_width(width, "concatenation")?,
                    signed: false,
                    kind: RExprKind::Concat(parts),
                }
            }
            Expr::Repl(n, inner) => {
                let inner = self.resolve_expr(scope, inner)?;
                let width = n
                    .checked_mul(inner.width)
                    .ok_or_else(|| ElabError::new("replication width overflow"))?;
                RExpr {
                    width: checked_width(width, "replication")?,
                    signed: false,
                    kind: RExprKind::Repl(*n, Box::new(inner)),
                }
            }
            Expr::Bit(n, idx) => {
                let s = scope.sig(n)?;
                let idx = self.resolve_expr(scope, idx)?;
                let idx = self.rebase_index(s, idx);
                RExpr {
                    width: 1,
                    signed: false,
                    kind: RExprKind::Bit(s, Box::new(idx)),
                }
            }
            Expr::Part(n, msb, lsb) => {
                let s = scope.sig(n)?;
                let def = self.design.signal(s);
                if msb < lsb {
                    return Err(ElabError::new(format!(
                        "ascending part select on `{n}` is not supported"
                    )));
                }
                let lo = lsb - def.lsb;
                if lo < 0 {
                    return Err(ElabError::new(format!(
                        "part select [{msb}:{lsb}] below `{n}`'s range"
                    )));
                }
                RExpr {
                    width: (msb - lsb) as usize + 1,
                    signed: false,
                    kind: RExprKind::Part(s, lo as usize, (msb - lsb) as usize + 1),
                }
            }
            Expr::IndexedPart(n, base, w) => {
                let s = scope.sig(n)?;
                let base = self.resolve_expr(scope, base)?;
                let base = self.rebase_index(s, base);
                RExpr {
                    width: *w,
                    signed: false,
                    kind: RExprKind::IndexedPart(s, Box::new(base), *w),
                }
            }
            Expr::SysFunc(name, args) => match name.as_str() {
                "$signed" | "$unsigned" => {
                    if args.len() != 1 {
                        return Err(ElabError::new(format!("{name} takes one argument")));
                    }
                    let mut inner = self.resolve_expr(scope, &args[0])?;
                    inner.signed = name == "$signed";
                    inner
                }
                "$time" | "$stime" => RExpr {
                    width: 64,
                    signed: false,
                    kind: RExprKind::Time,
                },
                "$clog2" => {
                    if args.len() != 1 {
                        return Err(ElabError::new("$clog2 takes one argument"));
                    }
                    let inner = self.resolve_expr(scope, &args[0])?;
                    let v = const_eval(&inner)
                        .ok_or_else(|| ElabError::new("$clog2 argument must be constant"))?;
                    let n = v
                        .to_u128()
                        .ok_or_else(|| ElabError::new("$clog2 argument must be known"))?;
                    let clog2 = (128 - n.saturating_sub(1).leading_zeros()) as u64;
                    RExpr::lit(LogicVec::from_u64(32, clog2), false)
                }
                _ => {
                    return Err(ElabError::new(format!(
                        "unsupported system function `{name}`"
                    )))
                }
            },
        })
    }

    fn resolve_lvalue(
        &mut self,
        scope: &Scope,
        lv: &LValue,
        expect: SignalKind,
    ) -> Result<RLValue, ElabError> {
        let check = |el: &Elaborator, s: SignalId, name: &str| -> Result<(), ElabError> {
            let def = el.design.signal(s);
            if def.kind != expect {
                let (have, want) = match expect {
                    SignalKind::Wire => ("reg", "continuous assignment targets a wire"),
                    SignalKind::Reg => ("wire", "procedural assignment targets a reg"),
                };
                return Err(ElabError::new(format!(
                    "`{name}` is a {have}, but a {want}"
                )));
            }
            Ok(())
        };
        Ok(match lv {
            LValue::Ident(n) => {
                let s = scope.sig(n)?;
                check(self, s, n)?;
                RLValue::Sig(s)
            }
            LValue::Bit(n, idx) => {
                let s = scope.sig(n)?;
                check(self, s, n)?;
                let idx = self.resolve_expr(scope, idx)?;
                let idx = self.rebase_index(s, idx);
                RLValue::Bit(s, Box::new(idx))
            }
            LValue::Part(n, msb, lsb) => {
                let s = scope.sig(n)?;
                check(self, s, n)?;
                let def = self.design.signal(s);
                let lo = lsb - def.lsb;
                if lo < 0 || msb < lsb {
                    return Err(ElabError::new(format!("bad part select on `{n}`")));
                }
                RLValue::Part(s, lo as usize, (msb - lsb) as usize + 1)
            }
            LValue::IndexedPart(n, base, w) => {
                let s = scope.sig(n)?;
                check(self, s, n)?;
                let base = self.resolve_expr(scope, base)?;
                let base = self.rebase_index(s, base);
                RLValue::IndexedPart(s, Box::new(base), *w)
            }
            LValue::Concat(parts) => {
                let parts = parts
                    .iter()
                    .map(|p| self.resolve_lvalue(scope, p, expect))
                    .collect::<Result<Vec<_>, _>>()?;
                RLValue::Concat(parts)
            }
        })
    }
}

fn resolve_event_list(
    scope: &Scope,
    list: &[EventExpr],
) -> Result<Vec<(Edge, SignalId)>, ElabError> {
    list.iter()
        .map(|e| Ok((e.edge, scope.sig(&e.signal)?)))
        .collect()
}

fn collect_lvalue_index_reads(lv: &RLValue, out: &mut Vec<SignalId>) {
    match lv {
        RLValue::Sig(_) | RLValue::Part(_, _, _) => {}
        RLValue::Bit(_, idx) | RLValue::IndexedPart(_, idx, _) => idx.collect_sigs(out),
        RLValue::Concat(parts) => {
            for p in parts {
                collect_lvalue_index_reads(p, out);
            }
        }
    }
}

/// Evaluates an expression containing no signal reads.
pub fn const_eval(e: &RExpr) -> Option<LogicVec> {
    struct NoSigs;
    impl SigRead for NoSigs {
        fn read(&self, _id: SignalId) -> &LogicVec {
            panic!("signal read in constant expression")
        }
        fn now(&self) -> u64 {
            0
        }
    }
    let mut sigs = Vec::new();
    e.collect_sigs(&mut sigs);
    if !sigs.is_empty() {
        return None;
    }
    Some(eval(e, e.width, &NoSigs))
}

/// Statement-to-instruction lowering for one process body.
struct BodyCompiler<'a, 'b> {
    el: &'a mut Elaborator<'b>,
    scope: &'a Scope,
    prefix: &'a str,
    code: Vec<Instr>,
    write_kind: SignalKind,
}

impl BodyCompiler<'_, '_> {
    fn stmt(&mut self, s: &Stmt) -> Result<(), ElabError> {
        match s {
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s)?;
                }
                Ok(())
            }
            Stmt::Blocking(lv, e) => {
                let lhs = self.el.resolve_lvalue(self.scope, lv, self.write_kind)?;
                let rhs = self.el.resolve_expr(self.scope, e)?;
                self.code.push(Instr::Assign(lhs, rhs));
                Ok(())
            }
            Stmt::NonBlocking(lv, e) => {
                let lhs = self.el.resolve_lvalue(self.scope, lv, self.write_kind)?;
                let rhs = self.el.resolve_expr(self.scope, e)?;
                self.code.push(Instr::NbAssign(lhs, rhs));
                Ok(())
            }
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                let cond = self.el.resolve_expr(self.scope, cond)?;
                let branch_pc = self.code.len();
                self.code.push(Instr::JumpIfFalse(cond, usize::MAX));
                self.stmt(then_stmt)?;
                match else_stmt {
                    None => {
                        let end = self.code.len();
                        self.patch_jump(branch_pc, end);
                    }
                    Some(e) => {
                        let skip_pc = self.code.len();
                        self.code.push(Instr::Jump(usize::MAX));
                        let else_start = self.code.len();
                        self.patch_jump(branch_pc, else_start);
                        self.stmt(e)?;
                        let end = self.code.len();
                        self.patch_jump(skip_pc, end);
                    }
                }
                Ok(())
            }
            Stmt::Case { kind, expr, arms } => {
                let expr = self.el.resolve_expr(self.scope, expr)?;
                let case_pc = self.code.len();
                self.code.push(Instr::CaseJump {
                    expr,
                    kind: *kind,
                    arms: Vec::new(),
                    default: usize::MAX,
                });
                let mut resolved_arms = Vec::new();
                let mut default_target = None;
                let mut end_jumps = Vec::new();
                for arm in arms {
                    let target = self.code.len();
                    if arm.labels.is_empty() {
                        default_target = Some(target);
                    } else {
                        let labels = arm
                            .labels
                            .iter()
                            .map(|l| self.el.resolve_expr(self.scope, l))
                            .collect::<Result<Vec<_>, _>>()?;
                        resolved_arms.push((labels, target));
                    }
                    self.stmt(&arm.body)?;
                    end_jumps.push(self.code.len());
                    self.code.push(Instr::Jump(usize::MAX));
                }
                let end = self.code.len();
                for pc in end_jumps {
                    self.patch_jump(pc, end);
                }
                if let Instr::CaseJump { arms, default, .. } = &mut self.code[case_pc] {
                    *arms = resolved_arms;
                    *default = default_target.unwrap_or(end);
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.stmt(init)?;
                let loop_start = self.code.len();
                let cond = self.el.resolve_expr(self.scope, cond)?;
                let exit_pc = self.code.len();
                self.code.push(Instr::JumpIfFalse(cond, usize::MAX));
                self.stmt(body)?;
                self.stmt(step)?;
                self.code.push(Instr::Jump(loop_start));
                let end = self.code.len();
                self.patch_jump(exit_pc, end);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let loop_start = self.code.len();
                let cond = self.el.resolve_expr(self.scope, cond)?;
                let exit_pc = self.code.len();
                self.code.push(Instr::JumpIfFalse(cond, usize::MAX));
                self.stmt(body)?;
                self.code.push(Instr::Jump(loop_start));
                let end = self.code.len();
                self.patch_jump(exit_pc, end);
                Ok(())
            }
            Stmt::Repeat { count, body } => {
                // Lower to a hidden counter:
                //   tmp = count; while (tmp != 0) { body; tmp = tmp - 1; }
                let count = self.el.resolve_expr(self.scope, count)?;
                let slot = self.el.fresh_temp(self.prefix, 32);
                let slot_expr = RExpr {
                    width: 32,
                    signed: false,
                    kind: RExprKind::Sig(slot),
                };
                self.code.push(Instr::Assign(RLValue::Sig(slot), count));
                let loop_start = self.code.len();
                let cond = RExpr {
                    width: 1,
                    signed: false,
                    kind: RExprKind::Binary(
                        BinaryOp::Ne,
                        Box::new(slot_expr.clone()),
                        Box::new(RExpr::lit(LogicVec::from_u64(32, 0), false)),
                    ),
                };
                let exit_pc = self.code.len();
                self.code.push(Instr::JumpIfFalse(cond, usize::MAX));
                self.stmt(body)?;
                let dec = RExpr {
                    width: 32,
                    signed: false,
                    kind: RExprKind::Binary(
                        BinaryOp::Sub,
                        Box::new(slot_expr),
                        Box::new(RExpr::lit(LogicVec::from_u64(32, 1), false)),
                    ),
                };
                self.code.push(Instr::Assign(RLValue::Sig(slot), dec));
                self.code.push(Instr::Jump(loop_start));
                let end = self.code.len();
                self.patch_jump(exit_pc, end);
                Ok(())
            }
            Stmt::Forever(body) => {
                let loop_start = self.code.len();
                self.stmt(body)?;
                let had_suspend = self.code[loop_start..]
                    .iter()
                    .any(|i| matches!(i, Instr::Delay(_) | Instr::WaitEvent(_)));
                if !had_suspend {
                    return Err(ElabError::new("forever loop can never suspend"));
                }
                self.code.push(Instr::Jump(loop_start));
                Ok(())
            }
            Stmt::Delay { delay, stmt } => {
                self.code.push(Instr::Delay(*delay));
                if let Some(s) = stmt {
                    self.stmt(s)?;
                }
                Ok(())
            }
            Stmt::EventWait { event, stmt } => {
                match event {
                    EventControl::List(list) => {
                        let edges = resolve_event_list(self.scope, list)?;
                        self.code.push(Instr::WaitEvent(edges));
                    }
                    EventControl::Star => {
                        return Err(ElabError::new("@(*) is only supported on always blocks"));
                    }
                }
                if let Some(s) = stmt {
                    self.stmt(s)?;
                }
                Ok(())
            }
            Stmt::SysCall { name, args } => {
                match name.as_str() {
                    "$display" | "$fdisplay" | "$write" | "$fwrite" | "$monitor" | "$finish"
                    | "$stop" | "$fopen" | "$fclose" | "$dumpfile" | "$dumpvars" => {}
                    other => {
                        return Err(ElabError::new(format!("unsupported system task `{other}`")))
                    }
                }
                let args = args
                    .iter()
                    .map(|a| {
                        Ok(match a {
                            SysArg::Str(s) => RSysArg::Str(s.clone()),
                            SysArg::Expr(e) => RSysArg::Expr(self.el.resolve_expr(self.scope, e)?),
                        })
                    })
                    .collect::<Result<Vec<_>, ElabError>>()?;
                self.code.push(Instr::SysCall {
                    name: name.clone(),
                    args,
                });
                Ok(())
            }
            Stmt::Empty => Ok(()),
        }
    }

    fn patch_jump(&mut self, pc: usize, target: usize) {
        match &mut self.code[pc] {
            Instr::Jump(t) => *t = target,
            Instr::JumpIfFalse(_, t) => *t = target,
            other => panic!("patch target is not a jump: {other:?}"),
        }
    }
}

// ---- loop analysis ----

/// Turns the back-edge of every zero-time loop in `code` into an
/// [`Instr::LoopBack`] and returns the signals the process writes with
/// blocking assignments, or nothing when it has no such loop.
fn mark_zero_time_loops(design: &Design, code: &mut [Instr]) -> Box<[SignalId]> {
    // Read every guard off the unmarked body: an outer loop sees the
    // back-edge of an inner one as the plain in-body jump it was.
    let loops: Vec<_> = zero_time_back_edges(code)
        .map(|(back, head)| (back, head, counted_guard(design, code, head, back)))
        .collect();
    if loops.is_empty() {
        return Box::default();
    }
    for (back, head, guard) in loops {
        code[back] = Instr::LoopBack { head, guard };
    }
    let mut written = Vec::new();
    for instr in code.iter() {
        if let Instr::Assign(lhs, _) = instr {
            lhs.collect_sigs(&mut written);
        }
    }
    written.sort();
    written.dedup();
    written.into_boxed_slice()
}

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
            Instr::Jump(t) | Instr::JumpIfFalse(_, t) | Instr::LoopBack { head: t, .. } => {
                in_body(*t)
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn elab(src: &str, top: &str) -> Design {
        elaborate(&parse(src).expect("parse"), top).expect("elaborate")
    }

    #[test]
    fn simple_design() {
        let d = elab(
            "module m(input a, b, output y); assign y = a & b; endmodule",
            "m",
        );
        assert_eq!(d.signals.len(), 3);
        assert_eq!(d.assigns.len(), 1);
        assert!(d.signal_by_name("y").is_some());
    }

    #[test]
    fn parameters_fold() {
        let d = elab(
            "module m(input clk, output reg [1:0] s);\nlocalparam RUN = 2'd1;\nalways @(posedge clk) s <= RUN;\nendmodule",
            "m",
        );
        let p = &d.processes[0];
        assert!(matches!(p.code[0], Instr::WaitEvent(_)));
        match &p.code[1] {
            Instr::NbAssign(_, rhs) => match &rhs.kind {
                RExprKind::Lit(v) => assert_eq!(v.to_u64(), Some(1)),
                other => panic!("expected folded literal, got {other:?}"),
            },
            other => panic!("expected nb assign, got {other:?}"),
        }
    }

    #[test]
    fn hierarchy_flattens() {
        let d = elab(
            "module inv(input a, output y); assign y = ~a; endmodule\nmodule top(input x, output z);\nwire mid;\ninv u1(.a(x), .y(mid));\ninv u2(.a(mid), .y(z));\nendmodule",
            "top",
        );
        assert!(d.signal_by_name("u1.a").is_some());
        assert!(d.signal_by_name("u2.y").is_some());
        // 3 top signals + 2*2 instance signals; 2 inner assigns + 4 bindings
        assert_eq!(d.assigns.len(), 6);
    }

    #[test]
    fn undeclared_identifier_errors() {
        let r = elaborate(
            &parse("module m(output y); assign y = nope; endmodule").expect("parse"),
            "m",
        );
        assert!(r.is_err());
    }

    #[test]
    fn assign_to_reg_errors() {
        let r = elaborate(
            &parse("module m(input a, output reg y); assign y = a; endmodule").expect("parse"),
            "m",
        );
        assert!(r.is_err());
    }

    #[test]
    fn procedural_write_to_wire_errors() {
        let r = elaborate(
            &parse("module m(input clk, a, output y); always @(posedge clk) y = a; endmodule")
                .expect("parse"),
            "m",
        );
        assert!(r.is_err());
    }

    #[test]
    fn always_without_suspend_errors() {
        let r = elaborate(
            &parse("module m(output reg y); always y = ~y; endmodule").expect("parse"),
            "m",
        );
        assert!(r.is_err());
    }

    #[test]
    fn missing_module_errors() {
        let r = elaborate(
            &parse("module top; wire y; foo u(.y(y)); endmodule").expect("parse"),
            "top",
        );
        assert!(r.is_err());
        assert!(elaborate(&parse("module a; endmodule").expect("parse"), "b").is_err());
    }

    #[test]
    fn non_zero_lsb_rebases() {
        let d = elab(
            "module m(input [7:4] a, output y); assign y = a[5]; endmodule",
            "m",
        );
        match &d.assigns[0].rhs.kind {
            RExprKind::Bit(_, idx) => {
                // index 5 - lsb 4 = 1 after folding a Sub of literals; the
                // elaborator emits the Sub node, const-evaluable to 1.
                let v = const_eval(idx).expect("const");
                assert_eq!(v.to_u64(), Some(1));
            }
            other => panic!("expected bit select, got {other:?}"),
        }
    }

    #[test]
    fn repeat_lowering() {
        let d = elab(
            "module m;\nreg [3:0] x;\ninitial begin x = 0; repeat (3) begin #1 x = x + 1; end end\nendmodule",
            "m",
        );
        // repeat lowers to a temp counter: a $tmp signal exists.
        assert!(d.signals.iter().any(|s| s.name.contains("$tmp")));
    }

    #[test]
    fn star_sensitivity_collects_reads() {
        let d = elab(
            "module m(input [1:0] s, input a, b, output reg y);\nalways @(*) begin if (s[0]) y = a; else y = b; end\nendmodule",
            "m",
        );
        let p = &d.processes[0];
        // Code shape: body..., WaitEvent, body..., Jump
        let wait = p
            .code
            .iter()
            .find_map(|i| match i {
                Instr::WaitEvent(edges) => Some(edges.clone()),
                _ => None,
            })
            .expect("wait");
        assert_eq!(wait.len(), 3); // s, a, b
    }

    #[test]
    fn clog2() {
        let d = elab(
            "module m(output [31:0] y); assign y = $clog2(13); endmodule",
            "m",
        );
        match &d.assigns[0].rhs.kind {
            RExprKind::Lit(v) => assert_eq!(v.to_u64(), Some(4)),
            other => panic!("expected literal, got {other:?}"),
        }
    }
}
