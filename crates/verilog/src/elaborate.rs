//! Elaboration: AST → flattened [`Design`].
//!
//! Elaboration resolves names to signal ids, flattens the instance
//! hierarchy with dotted name prefixes, binds instance ports with
//! continuous assignments, annotates expressions with Verilog sizing
//! information, and lowers procedural bodies to the instruction lists
//! the simulator walks. It also marks each process's
//! zero-time loops ([`Instr::LoopBack`], with a [`CountedGuard`] for the
//! counted ones) and the signals it writes, the facts the simulator's
//! runaway detector works from, and each display whose literal format is
//! the record grammar ([`RecordFormat`]), which the simulator captures as
//! values instead of text.
//!
//! A testbench runs many DUTs, so its module can be elaborated once with
//! its DUT instance left as a hole ([`TbTemplate`]); each DUT is then
//! elaborated alone and linked in, and the result is the design that
//! elaborating the pair ([`elaborate_files`]) gives.

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
    check_duplicates(files)?;
    let mut design = Design::default();
    let mut el = Elaborator {
        files,
        design: &mut design,
    };
    let module = el
        .module(top)
        .ok_or_else(|| ElabError::new(format!("top module `{top}` not found")))?;
    el.instantiate(module, "", 0)?;
    Ok(design)
}

/// Fails on the first module that `files` define twice, in file order.
fn check_duplicates(files: &[&SourceFile]) -> Result<(), ElabError> {
    let mut seen = HashSet::new();
    for m in files.iter().flat_map(|f| &f.modules) {
        if !seen.insert(m.name.as_str()) {
            return Err(ElabError::new(format!("duplicate module `{}`", m.name)));
        }
    }
    Ok(())
}

/// A testbench module elaborated once, with its one instance of the DUT
/// module left as a hole: what [`TbTemplate::link`] elaborates each DUT
/// into.
///
/// The elaborator declares a module's signals before its behaviour pass,
/// and an instance adds its signals, assigns, processes and record
/// formats at its place in that pass. So in the pair's design the
/// testbench's signals come first, and its assigns, processes and record
/// formats split at the instance item (the splice points) into a head
/// before the DUT's and a tail after them. Nothing of the testbench
/// reads the DUT's part, except a record format that the DUT interns
/// first: that moves the index of every record format after it.
pub struct TbTemplate {
    /// The testbench module's name.
    top: String,
    /// The testbench's part of the design: all its signals, and the
    /// assigns, processes and record formats of its other items.
    design: Design,
    /// The testbench's names, which the hole's connections read.
    scope: Scope,
    /// The hole: the testbench's instance of the DUT module.
    instance: Instance,
    /// The splice points: how many assigns, processes and record
    /// formats `design` had at the instance item.
    assigns: usize,
    /// See `assigns`.
    processes: usize,
    /// See `assigns`.
    records: usize,
}

impl TbTemplate {
    /// Elaborates module `top` of `driver`, leaving its instance of
    /// `dut_module` as a hole. `None` unless that is `top`'s only
    /// instance, `driver` does not define `dut_module` itself, and the
    /// rest of `top` elaborates.
    pub fn new(driver: &SourceFile, top: &str, dut_module: &str) -> Option<TbTemplate> {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Elab);
        let module = driver.module(top)?;
        let mut instances = module
            .items
            .iter()
            .enumerate()
            .filter_map(|(k, item)| match item {
                Item::Instance(inst) => Some((k, inst)),
                _ => None,
            });
        let (hole, instance) = instances.next()?;
        if instances.next().is_some()
            || instance.module != dut_module
            || driver.module(dut_module).is_some()
        {
            return None;
        }
        let mut design = Design::default();
        let files = [driver];
        let mut el = Elaborator {
            files: &files,
            design: &mut design,
        };
        let scope = el.declare(module, "").ok()?;
        for item in &module.items[..hole] {
            el.item(&scope, "", item, 0).ok()?;
        }
        let (assigns, processes, records) = (
            el.design.assigns.len(),
            el.design.processes.len(),
            el.design.records.len(),
        );
        for item in &module.items[hole + 1..] {
            el.item(&scope, "", item, 0).ok()?;
        }
        Some(TbTemplate {
            top: top.to_string(),
            design,
            scope,
            instance: instance.clone(),
            assigns,
            processes,
            records,
        })
    }

    /// Elaborates `dut` into the hole. `driver` is the file the template
    /// was built from, and the result is exactly
    /// `elaborate_files(&[dut, driver], top)`: the duplicate-module check
    /// and module lookup span both files, and a DUT that interns a
    /// record format is elaborated with the driver in full.
    ///
    /// # Errors
    ///
    /// As [`elaborate_files`].
    pub fn link(&self, dut: &SourceFile, driver: &SourceFile) -> Result<Design, ElabError> {
        let _span = correctbench_obs::span(correctbench_obs::Phase::Elab);
        let files = [dut, driver];
        check_duplicates(&files)?;
        let tb = &self.design;
        let mut design = Design {
            signals: tb.signals.clone(),
            assigns: tb.assigns[..self.assigns].to_vec(),
            processes: tb.processes[..self.processes].to_vec(),
            records: tb.records[..self.records].to_vec(),
        };
        Elaborator {
            files: &files,
            design: &mut design,
        }
        .bind_instance(&self.scope, "", &self.instance, 0)?;
        if design.records.len() > self.records {
            return elaborate_files(&files, &self.top);
        }
        design
            .assigns
            .extend_from_slice(&tb.assigns[self.assigns..]);
        design
            .processes
            .extend_from_slice(&tb.processes[self.processes..]);
        design
            .records
            .extend_from_slice(&tb.records[self.records..]);
        Ok(design)
    }
}

/// A module instance's names.
struct Scope {
    names: HashMap<String, SignalId>,
}

impl Scope {
    fn sig(&self, name: &str) -> Result<SignalId, ElabError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| ElabError::new(format!("undeclared identifier `{name}`")))
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
}

impl<'a> Elaborator<'a> {
    /// The module named `name`, from whichever file defines it.
    fn module(&self, name: &str) -> Option<&'a Module> {
        self.files.iter().find_map(|f| f.module(name))
    }

    /// Appends a process, marking its zero-time loops for the
    /// simulator's runaway detector.
    fn push_process(&mut self, mut code: Vec<Instr>) {
        let written = mark_zero_time_loops(self.design, &mut code);
        self.design.processes.push(ProcessDef {
            code: code.into(),
            written,
        });
    }

    /// The index in [`Design::records`] of the record format that the
    /// display `name` prints with `args`, interning the format on first
    /// sight; `None` for any other system task or display.
    fn record_format(&mut self, name: &str, args: &[RSysArg]) -> Option<usize> {
        let skip = display_skip(name)?;
        let Some((RSysArg::Str(format), exprs)) = args[skip.min(args.len())..].split_first() else {
            return None;
        };
        if !exprs.iter().all(|a| matches!(a, RSysArg::Expr(_))) {
            return None;
        }
        let records = &mut self.design.records;
        let index = match records.iter().position(|r| r.format == *format) {
            Some(i) => i,
            None => {
                records.push(RecordFormat::parse(format)?);
                records.len() - 1
            }
        };
        (records[index].names.len() + 1 == exprs.len()).then_some(index)
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
        scope.names.insert(name.to_string(), id);
        Ok(id)
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
        let scope = self.declare(module, prefix)?;
        // The behaviour pass: everything that references the names, so an
        // assign, process or instance may use a name declared after it.
        for item in &module.items {
            self.item(&scope, prefix, item, depth)?;
        }
        Ok(scope)
    }

    /// The declaration pass over `module`: its ports and nets, and the
    /// process of its declaration initialisers.
    fn declare(&mut self, module: &Module, prefix: &str) -> Result<Scope, ElabError> {
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
        let mut initial_inits: Vec<(RLValue, RExpr)> = Vec::new();
        for item in &module.items {
            let Item::Net(decl) = item else {
                continue;
            };
            let width = checked_width(decl.range.map_or(1, |r| r.width()), "signal")?;
            let lsb = decl.range.map_or(0, |r| r.lsb);
            let kind = match decl.kind {
                NetKind::Wire => SignalKind::Wire,
                NetKind::Reg | NetKind::Integer => SignalKind::Reg,
            };
            for (name, init) in &decl.names {
                // A body declaration may complete a non-ANSI port.
                if let Some(&id) = scope.names.get(name) {
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
                    return Err(ElabError::new(format!("duplicate declaration of `{name}`")));
                }
                let id =
                    self.add_signal(&mut scope, prefix, name, width, decl.signed, lsb, kind)?;
                if let Some(e) = init {
                    let rhs = self.resolve_expr(&scope, e)?;
                    initial_inits.push((RLValue::Sig(id), rhs));
                }
            }
        }

        // Every header port name must be bound by now.
        for name in &module.port_order {
            if !scope.names.contains_key(name) {
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
            self.push_process(code);
        }
        Ok(scope)
    }

    /// Elaborates one item of a module instance in the behaviour pass.
    fn item(
        &mut self,
        scope: &Scope,
        prefix: &str,
        item: &Item,
        depth: usize,
    ) -> Result<(), ElabError> {
        match item {
            Item::Net(_) => {}
            Item::Assign(a) => {
                let lhs = self.resolve_lvalue(scope, &a.lhs, SignalKind::Wire)?;
                let rhs = self.resolve_expr(scope, &a.rhs)?;
                let mut reads = Vec::new();
                rhs.collect_sigs(&mut reads);
                collect_lvalue_index_reads(&lhs, &mut reads);
                reads.sort();
                reads.dedup();
                self.design.assigns.push(RAssign { lhs, rhs, reads });
            }
            Item::Always(blk) => {
                let mut comp = BodyCompiler {
                    el: self,
                    scope,
                    code: Vec::new(),
                    write_kind: SignalKind::Reg,
                };
                match &blk.event {
                    Some(EventControl::Posedge(signals)) => {
                        let edges = signals
                            .iter()
                            .map(|s| Ok((Edge::Pos, scope.sig(s)?)))
                            .collect::<Result<_, ElabError>>()?;
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
                            if let Some(&s) = scope.names.get(&name) {
                                edges.push((Edge::Any, s));
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
                        if !comp.code.iter().any(|i| matches!(i, Instr::Delay(_))) {
                            return Err(ElabError::new(
                                "always block has no event control or delay",
                            ));
                        }
                        comp.code.push(Instr::Jump(0));
                    }
                }
                let code = comp.code;
                self.push_process(code);
            }
            Item::Initial(body) => {
                let mut comp = BodyCompiler {
                    el: self,
                    scope,
                    code: Vec::new(),
                    write_kind: SignalKind::Reg,
                };
                comp.stmt(body)?;
                comp.code.push(Instr::Halt);
                let code = comp.code;
                self.push_process(code);
            }
            Item::Instance(inst) => {
                self.bind_instance(scope, prefix, inst, depth)?;
            }
        }
        Ok(())
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
            Expr::Ident(n) => {
                let s = scope.sig(n)?;
                let def = self.design.signal(s);
                RExpr {
                    width: def.width,
                    signed: def.signed,
                    kind: RExprKind::Sig(s),
                }
            }
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
                } else if op.is_shift() {
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

/// Statement-to-instruction lowering for one process body.
struct BodyCompiler<'a, 'b> {
    el: &'a mut Elaborator<'b>,
    scope: &'a Scope,
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
            Stmt::Case { expr, arms } => {
                let expr = self.el.resolve_expr(self.scope, expr)?;
                let case_pc = self.code.len();
                self.code.push(Instr::CaseJump {
                    expr,
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
            Stmt::Delay { delay, stmt } => {
                self.code.push(Instr::Delay(*delay));
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
                let record = self.el.record_format(name, &args);
                self.code.push(Instr::SysCall {
                    name: name.clone(),
                    args,
                    record,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn elab(src: &str, top: &str) -> Design {
        elaborate(&parse(src).expect("parse"), top).expect("elaborate")
    }

    /// Per display of `body` (run in an `initial` block with 4-bit regs
    /// `a`, `b` and an integer `file`), the field names of the record
    /// format it is marked with, or `None`.
    fn record_marks(body: &str) -> Vec<Option<Vec<String>>> {
        let d = elab(
            &format!(
                "module tb; reg [3:0] a, b; integer file;\ninitial begin\n{body}\nend\nendmodule"
            ),
            "tb",
        );
        d.processes
            .iter()
            .flat_map(|p| p.code.iter())
            .filter_map(|i| match i {
                Instr::SysCall { record, .. } => Some(record.map(|r| d.records[r].names.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn record_displays_are_marked_exactly() {
        let names = |ns: &[&str]| Some(ns.iter().map(|n| n.to_string()).collect::<Vec<_>>());
        for (display, want) in [
            (
                r#"$fdisplay(file, "scenario: %0d, a = %0d, b = %0d", 1, a, b);"#,
                names(&["a", "b"]),
            ),
            (
                r#"$display("scenario: %0d, a = %0d", 1, a);"#,
                names(&["a"]),
            ),
            (
                r#"$write("scenario: %0d, _a1$ = %0d", 1, a);"#,
                names(&["_a1$"]),
            ),
            (r#"$fwrite(file, "scenario: %0d", 1);"#, names(&[])),
            (
                r#"$display("scenario: %0d, a = %0d, a = %0d", 1, a, b);"#,
                names(&["a", "a"]),
            ),
        ] {
            assert_eq!(record_marks(display), vec![want], "{display}");
        }
        for display in [
            r#"$display("scenario: %d, a = %0d", 1, a);"#,
            r#"$display("scenario: %0d, a = %d", 1, a);"#,
            r#"$display("scenario: %0d, a = %5d", 1, a);"#,
            r#"$display("scenario: %0d, a = %h", 1, a);"#,
            r#"$display("scenario: %0d, a = %0t", 1, a);"#,
            // A missing, an extra and a string argument.
            r#"$display("scenario: %0d, a = %0d", 1);"#,
            r#"$display("scenario: %0d, a = %0d", 1, a, b);"#,
            r#"$display("scenario: %0d, a = %0d", 1, "a");"#,
            // A trailing space, a name with a space or a `?` (what a
            // mangled identifier leaves), an empty name, a digit first.
            r#"$display("scenario: %0d, a = %0d ", 1, a);"#,
            r#"$display("scenario: %0d, a b = %0d", 1, a);"#,
            r#"$display("scenario: %0d, a?b = %0d", 1, a);"#,
            r#"$display("s?cenario: %0d, a = %0d", 1, a);"#,
            r#"$display("scenario: %0d,  = %0d", 1, a);"#,
            r#"$display("scenario: %0d, 1a = %0d", 1, a);"#,
            // No format: for `$fdisplay` the first argument is the file.
            r#"$display(1, a);"#,
            r#"$fdisplay("scenario: %0d", 1);"#,
        ] {
            assert_eq!(record_marks(display), vec![None], "{display}");
        }
    }

    #[test]
    fn repeated_record_formats_share_one_entry() {
        let d = elab(
            "module tb; reg a; initial begin\n$display(\"scenario: %0d, a = %0d\", 1, a);\n$display(\"scenario: %0d, a = %0d\", 2, a);\n$display(\"a=%0d\", a);\nend\nendmodule",
            "tb",
        );
        assert_eq!(d.records.len(), 1);
        let marks: Vec<_> = d.processes[0]
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::SysCall { record, .. } => Some(*record),
                _ => None,
            })
            .collect();
        assert_eq!(marks, [Some(0), Some(0), None]);
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
                // index 5 - lsb 4: the elaborator emits the Sub node, a
                // literal-only expression that evaluates to 1.
                assert_eq!(eval(idx, idx.width, &Vec::new()).to_u64(), Some(1));
            }
            other => panic!("expected bit select, got {other:?}"),
        }
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
}
