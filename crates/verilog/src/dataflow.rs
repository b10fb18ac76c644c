//! Per-module driver/reader dataflow tables over the parsed AST.
//!
//! This is the analysis substrate of [`crate::lint`]: one deterministic
//! pass over a [`Module`] that records, for every declared signal, who
//! drives it (and from what kind of process), whether anything reads it,
//! and which combinational dependencies exist between signals. The pass
//! is pure — no I/O, no randomness — and every collection it builds
//! iterates in a deterministic order (`BTreeMap`/`BTreeSet`), so anything
//! derived from it is byte-stable.
//!
//! Instances are resolved against sibling modules of the same
//! [`SourceFile`]; a connection to an *unresolvable* module marks every
//! signal it touches as opaque, which downstream rules treat as "assume
//! the instance both drives and reads it".

use crate::ast::*;
use std::collections::{BTreeMap, BTreeSet};

/// The kind of process a driver lives in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DriverKind {
    /// A continuous `assign` item (or a net declaration initializer).
    Continuous,
    /// A combinational always block (`@(*)`).
    AlwaysComb,
    /// An edge-triggered always block (`@(posedge ...)`).
    AlwaysSeq,
    /// An always block with no event control (testbench clock
    /// generators: `always #5 clk = ~clk;`).
    AlwaysTimed,
    /// An `initial` block (testbench initialization idiom).
    Initial,
    /// An output port connection of a resolved module instance.
    Instance,
}

/// One recorded driver of a signal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Driver {
    /// What kind of process drives the signal.
    pub kind: DriverKind,
    /// Index of the driving item in `Module::items`.
    pub item: usize,
    /// `true` when the whole signal is assigned (a plain identifier
    /// target, not a bit/part select).
    pub full: bool,
}

/// Where a signal was declared, rendered deterministically.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeclSite {
    /// Declared in the port list (index into `Module::ports`).
    Port(usize),
    /// Declared by a net item (index into `Module::items`).
    Item(usize),
}

impl DeclSite {
    /// Deterministic rendering, e.g. `port 2` or `item 5`.
    pub fn render(&self) -> String {
        match self {
            DeclSite::Port(i) => format!("port {i}"),
            DeclSite::Item(i) => format!("item {i}"),
        }
    }
}

/// Everything the analysis learned about one declared signal.
#[derive(Clone, Debug)]
pub struct SignalFacts {
    /// Declared bit width.
    pub width: usize,
    /// Port direction, when the signal is a port.
    pub port: Option<Direction>,
    /// Declaration site.
    pub decl: DeclSite,
    /// Every recorded driver, in item order.
    pub drivers: Vec<Driver>,
    /// `true` when any expression (RHS, condition, index, event, system
    /// task argument, instance input) reads the signal.
    pub read: bool,
    /// `true` when the signal is connected to an unresolvable instance:
    /// presence/absence rules must not judge it.
    pub opaque: bool,
    /// `true` when some edge-triggered always assigns the signal under a
    /// reset-like conditional (`rst`/`reset` in the condition cone).
    pub reset_seen: bool,
}

/// Facts about one always block.
#[derive(Clone, Debug)]
pub struct AlwaysFacts {
    /// Index of the always item in `Module::items`.
    pub item: usize,
    /// Classification from the event control.
    pub kind: DriverKind,
    /// Number of blocking assignments in the body.
    pub blocking: usize,
    /// Number of nonblocking assignments in the body.
    pub nonblocking: usize,
    /// Signals assigned on at least one path.
    pub may_assign: BTreeSet<String>,
    /// Signals assigned on every path.
    pub must_assign: BTreeSet<String>,
}

/// The dataflow tables of one module.
#[derive(Clone, Debug)]
pub struct ModuleDataflow {
    /// Module name.
    pub name: String,
    /// Per-signal facts, keyed by signal name (deterministic order).
    pub signals: BTreeMap<String, SignalFacts>,
    /// Per-always-block facts, in item order.
    pub always: Vec<AlwaysFacts>,
    /// Combinational dependency edges `read -> driven`, with the item
    /// index of the driving process.
    pub comb_edges: Vec<(String, String, usize)>,
    /// Statically checkable assignment/connection width deltas:
    /// `(item, target signal, lhs width, rhs width)`.
    pub width_deltas: Vec<(usize, String, usize, usize)>,
}

/// Analyzes every module of `files` as one file, resolving instances
/// against siblings from any of them (a later module shadows an
/// earlier one of the same name, as in a file joining their texts).
/// Modules are returned in file order.
pub fn analyze(files: &[&SourceFile]) -> Vec<ModuleDataflow> {
    let modules = || files.iter().flat_map(|f| &f.modules);
    let siblings: BTreeMap<&str, &Module> = modules().map(|m| (m.name.as_str(), m)).collect();
    modules().map(|m| analyze_module(m, &siblings)).collect()
}

/// Analyzes one module. `siblings` maps module names available for
/// instance resolution (usually every module of the same source file).
pub fn analyze_module(module: &Module, siblings: &BTreeMap<&str, &Module>) -> ModuleDataflow {
    let mut a = Analysis {
        df: ModuleDataflow {
            name: module.name.clone(),
            signals: BTreeMap::new(),
            always: Vec::new(),
            comb_edges: Vec::new(),
            width_deltas: Vec::new(),
        },
    };
    a.declare(module);
    for (idx, item) in module.items.iter().enumerate() {
        a.visit_item(idx, item, siblings);
    }
    a.df
}

struct Analysis {
    df: ModuleDataflow,
}

impl Analysis {
    fn declare(&mut self, module: &Module) {
        for (i, p) in module.ports.iter().enumerate() {
            self.df.signals.insert(
                p.name.clone(),
                SignalFacts {
                    width: p.width(),
                    port: Some(p.dir),
                    decl: DeclSite::Port(i),
                    drivers: Vec::new(),
                    read: false,
                    opaque: false,
                    reset_seen: false,
                },
            );
        }
        for (idx, item) in module.items.iter().enumerate() {
            if let Item::Net(d) = item {
                let width = match d.kind {
                    NetKind::Integer => 32,
                    _ => d.range.map_or(1, |r| r.width()),
                };
                for (name, _) in &d.names {
                    // A net item may restate a port's kind (`output reg y`
                    // parsed as port + net); the port declaration wins.
                    self.df
                        .signals
                        .entry(name.clone())
                        .or_insert_with(|| SignalFacts {
                            width,
                            port: None,
                            decl: DeclSite::Item(idx),
                            drivers: Vec::new(),
                            read: false,
                            opaque: false,
                            reset_seen: false,
                        });
                }
            }
        }
    }

    fn mark_reads(&mut self, names: &[String]) {
        for n in names {
            if let Some(f) = self.df.signals.get_mut(n) {
                f.read = true;
            }
        }
    }

    fn add_driver(&mut self, target: &str, kind: DriverKind, item: usize, full: bool) {
        if let Some(f) = self.df.signals.get_mut(target) {
            f.drivers.push(Driver { kind, item, full });
        }
    }

    /// Records a driver for each target of `lv` and the reads its index
    /// expressions perform.
    fn drive_lvalue(&mut self, lv: &LValue, kind: DriverKind, item: usize) {
        let mut idx_reads = Vec::new();
        lv.collect_index_reads(&mut idx_reads);
        self.mark_reads(&idx_reads);
        match lv {
            LValue::Ident(n) => self.add_driver(n, kind, item, true),
            LValue::Bit(n, _) | LValue::Part(n, _, _) | LValue::IndexedPart(n, _, _) => {
                self.add_driver(n, kind, item, false);
            }
            LValue::Concat(parts) => {
                for p in parts {
                    self.drive_lvalue(p, kind, item);
                }
            }
        }
    }

    /// The statically known width of `lv`, when every component has one.
    fn lvalue_width(&self, lv: &LValue) -> Option<usize> {
        match lv {
            LValue::Ident(n) => self.df.signals.get(n).map(|f| f.width),
            LValue::Bit(_, _) => Some(1),
            LValue::Part(_, msb, lsb) => Some(msb.abs_diff(*lsb) as usize + 1),
            LValue::IndexedPart(_, _, w) => Some(*w),
            LValue::Concat(parts) => parts.iter().map(|p| self.lvalue_width(p)).sum(),
        }
    }

    /// Self-determined width of `e`, with bare literals treated as
    /// context-flexible (`None`) so idioms like `q + 1` never read as a
    /// 32-bit expression. Inside concatenation/replication a literal's
    /// stored width is authoritative.
    fn expr_width(&self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Literal { .. } => None,
            Expr::Ident(n) => self.df.signals.get(n).map(|f| f.width),
            Expr::Unary(op, a) => match op {
                UnaryOp::Plus | UnaryOp::Neg | UnaryOp::Not => self.expr_width(a),
                _ => Some(1), // logical not and reductions
            },
            Expr::Binary(op, a, b) => {
                if op.is_comparison() || matches!(op, BinaryOp::LogicAnd | BinaryOp::LogicOr) {
                    Some(1)
                } else if op.is_shift() {
                    self.expr_width(a)
                } else {
                    match (self.expr_width(a), self.expr_width(b)) {
                        (Some(x), Some(y)) => Some(x.max(y)),
                        (w, None) | (None, w) => w,
                    }
                }
            }
            Expr::Ternary(_, t, f) => match (self.expr_width(t), self.expr_width(f)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (w, None) | (None, w) => w,
            },
            Expr::Concat(parts) => parts.iter().map(|p| self.concat_width(p)).sum(),
            Expr::Repl(n, inner) => self.concat_width(inner).map(|w| w * n),
            Expr::Bit(_, _) => Some(1),
            Expr::Part(_, msb, lsb) => Some(msb.abs_diff(*lsb) as usize + 1),
            Expr::IndexedPart(_, _, w) => Some(*w),
        }
    }

    /// Width of a concatenation operand, where literals keep their
    /// stored width (unsized literals are illegal in concats anyway).
    fn concat_width(&self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Literal { value, .. } => Some(value.width()),
            other => self.expr_width(other),
        }
    }

    /// Records a width delta for an assignment when the RHS is provably
    /// wider than the LHS (a silent truncation).
    fn check_assign_width(&mut self, item: usize, lv: &LValue, rhs: &Expr) {
        let (Some(lw), Some(rw)) = (self.lvalue_width(lv), self.expr_width(rhs)) else {
            return;
        };
        if rw > lw {
            let target = lv
                .targets()
                .first()
                .map_or_else(String::new, |t| t.to_string());
            self.df.width_deltas.push((item, target, lw, rw));
        }
    }

    fn visit_item(&mut self, idx: usize, item: &Item, siblings: &BTreeMap<&str, &Module>) {
        match item {
            Item::Net(d) => {
                for (name, init) in &d.names {
                    if let Some(e) = init {
                        let mut reads = Vec::new();
                        e.collect_reads(&mut reads);
                        self.mark_reads(&reads);
                        self.add_driver(name, DriverKind::Continuous, idx, true);
                        for r in dedup(reads) {
                            self.df.comb_edges.push((r, name.clone(), idx));
                        }
                    }
                }
            }
            Item::Assign(a) => {
                let mut reads = Vec::new();
                a.rhs.collect_reads(&mut reads);
                self.mark_reads(&reads);
                self.drive_lvalue(&a.lhs, DriverKind::Continuous, idx);
                self.check_assign_width(idx, &a.lhs, &a.rhs);
                let targets: Vec<String> = a.lhs.targets().iter().map(|t| t.to_string()).collect();
                for r in dedup(reads) {
                    for t in &targets {
                        self.df.comb_edges.push((r.clone(), t.clone(), idx));
                    }
                }
            }
            Item::Always(b) => self.visit_always(idx, b),
            Item::Initial(s) => {
                let mut reads = Vec::new();
                s.collect_reads(&mut reads);
                self.mark_reads(&reads);
                visit_assignments(s, &mut |lv, rhs, _| {
                    self.drive_lvalue(lv, DriverKind::Initial, idx);
                    self.check_assign_width(idx, lv, rhs);
                });
            }
            Item::Instance(inst) => self.visit_instance(idx, inst, siblings),
        }
    }

    fn visit_always(&mut self, idx: usize, b: &AlwaysBlock) {
        let kind = classify_always(b);
        // Event-list signals (the clock, the resets) are reads.
        if let Some(EventControl::Posedge(signals)) = &b.event {
            self.mark_reads(signals);
        }
        let mut reads = Vec::new();
        b.body.collect_reads(&mut reads);
        self.mark_reads(&reads);

        let mut facts = AlwaysFacts {
            item: idx,
            kind,
            blocking: 0,
            nonblocking: 0,
            may_assign: BTreeSet::new(),
            must_assign: must_assigned(&b.body),
        };
        visit_assignments(&b.body, &mut |lv, rhs, blocking| {
            if blocking {
                facts.blocking += 1;
            } else {
                facts.nonblocking += 1;
            }
            self.drive_lvalue(lv, kind, idx);
            self.check_assign_width(idx, lv, rhs);
            for t in lv.targets() {
                facts.may_assign.insert(t.to_string());
            }
        });

        if kind == DriverKind::AlwaysSeq {
            let mut under_reset = Vec::new();
            collect_reset_assigned(&b.body, false, &mut under_reset);
            for t in under_reset {
                if let Some(f) = self.df.signals.get_mut(&t) {
                    f.reset_seen = true;
                }
            }
        }

        if kind == DriverKind::AlwaysComb {
            // Dependency edges use only *external* reads: a value read
            // after being blocking-assigned on every path to the read is
            // the block's own intermediate, not an input.
            let mut assigned = BTreeSet::new();
            let mut external = BTreeSet::new();
            external_reads(&b.body, &mut assigned, &mut external);
            for r in &external {
                for t in &facts.may_assign {
                    self.df.comb_edges.push((r.clone(), t.clone(), idx));
                }
            }
        }

        self.df.always.push(facts);
    }

    fn visit_instance(&mut self, idx: usize, inst: &Instance, siblings: &BTreeMap<&str, &Module>) {
        let Some(target) = siblings.get(inst.module.as_str()) else {
            // Unresolvable instance: every connected signal may be read
            // and driven by it — mark opaque and move on.
            let mut names = Vec::new();
            match &inst.conns {
                Connections::Ordered(exprs) => {
                    for e in exprs {
                        e.collect_reads(&mut names);
                    }
                }
                Connections::Named(conns) => {
                    for (_, e) in conns {
                        if let Some(e) = e {
                            e.collect_reads(&mut names);
                        }
                    }
                }
            }
            self.mark_reads(&names);
            for n in dedup(names) {
                if let Some(f) = self.df.signals.get_mut(&n) {
                    f.opaque = true;
                }
            }
            return;
        };
        // Resolved: pair each connection with the port it binds.
        let pairs: Vec<(&PortDecl, &Expr)> = match &inst.conns {
            Connections::Ordered(exprs) => target
                .port_order
                .iter()
                .filter_map(|name| target.ports.iter().find(|p| &p.name == name))
                .zip(exprs.iter())
                .collect(),
            Connections::Named(conns) => conns
                .iter()
                .filter_map(|(name, e)| {
                    let port = target.ports.iter().find(|p| &p.name == name)?;
                    Some((port, e.as_ref()?))
                })
                .collect(),
        };
        for (port, expr) in pairs {
            let mut reads = Vec::new();
            expr.collect_reads(&mut reads);
            match port.dir {
                Direction::Input => {
                    self.mark_reads(&reads);
                    if let Some(w) = self.expr_width(expr) {
                        if w > port.width() {
                            self.df
                                .width_deltas
                                .push((idx, port.name.clone(), port.width(), w));
                        }
                    }
                }
                Direction::Output => {
                    // An output connection drives the connected signal;
                    // only identifier-shaped sinks are drivable.
                    match expr {
                        Expr::Ident(n) => {
                            self.add_driver(n, DriverKind::Instance, idx, true);
                            if let Some(f) = self.df.signals.get(n) {
                                if port.width() > f.width {
                                    let (pw, fw) = (port.width(), f.width);
                                    self.df.width_deltas.push((idx, n.clone(), fw, pw));
                                }
                            }
                        }
                        Expr::Bit(n, i) => {
                            let mut idx_reads = Vec::new();
                            i.collect_reads(&mut idx_reads);
                            self.mark_reads(&idx_reads);
                            self.add_driver(n, DriverKind::Instance, idx, false);
                        }
                        Expr::Part(n, _, _) | Expr::IndexedPart(n, _, _) => {
                            self.add_driver(n, DriverKind::Instance, idx, false);
                        }
                        other => {
                            // Expression sinks (concats etc.): treat the
                            // mentioned signals as opaque.
                            let mut names = Vec::new();
                            other.collect_reads(&mut names);
                            for n in dedup(names) {
                                if let Some(f) = self.df.signals.get_mut(&n) {
                                    f.opaque = true;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Classifies an always block by its event control.
pub fn classify_always(b: &AlwaysBlock) -> DriverKind {
    match &b.event {
        None => DriverKind::AlwaysTimed,
        Some(EventControl::Star) => DriverKind::AlwaysComb,
        Some(EventControl::Posedge(_)) => DriverKind::AlwaysSeq,
    }
}

fn dedup(names: Vec<String>) -> Vec<String> {
    let set: BTreeSet<String> = names.into_iter().collect();
    set.into_iter().collect()
}

/// Calls `f(lvalue, rhs, is_blocking)` for every assignment in `s`.
fn visit_assignments(s: &Stmt, f: &mut impl FnMut(&LValue, &Expr, bool)) {
    match s {
        Stmt::Block(stmts) => {
            for st in stmts {
                visit_assignments(st, f);
            }
        }
        Stmt::Blocking(lv, e) => f(lv, e, true),
        Stmt::NonBlocking(lv, e) => f(lv, e, false),
        Stmt::If {
            then_stmt,
            else_stmt,
            ..
        } => {
            visit_assignments(then_stmt, f);
            if let Some(e) = else_stmt {
                visit_assignments(e, f);
            }
        }
        Stmt::Case { arms, .. } => {
            for arm in arms {
                visit_assignments(&arm.body, f);
            }
        }
        Stmt::For {
            init, step, body, ..
        } => {
            visit_assignments(init, f);
            visit_assignments(step, f);
            visit_assignments(body, f);
        }
        Stmt::Delay { stmt, .. } => {
            if let Some(st) = stmt {
                visit_assignments(st, f);
            }
        }
        Stmt::SysCall { .. } | Stmt::Empty => {}
    }
}

/// The set of signals assigned on *every* execution path through `s`.
/// Conservative: a case statement without a default proves nothing.
pub fn must_assigned(s: &Stmt) -> BTreeSet<String> {
    match s {
        Stmt::Block(stmts) => {
            let mut out = BTreeSet::new();
            for st in stmts {
                out.extend(must_assigned(st));
            }
            out
        }
        Stmt::Blocking(lv, _) | Stmt::NonBlocking(lv, _) => {
            lv.targets().iter().map(|t| t.to_string()).collect()
        }
        Stmt::If {
            then_stmt,
            else_stmt: Some(e),
            ..
        } => {
            let a = must_assigned(then_stmt);
            let b = must_assigned(e);
            a.intersection(&b).cloned().collect()
        }
        Stmt::If { .. } => BTreeSet::new(),
        Stmt::Case { arms, .. } => {
            if arms.is_empty() || !arms.iter().any(|a| a.labels.is_empty()) {
                return BTreeSet::new();
            }
            let mut sets = arms.iter().map(|a| must_assigned(&a.body));
            let first = sets.next().unwrap_or_default();
            sets.fold(first, |acc, s| acc.intersection(&s).cloned().collect())
        }
        Stmt::For {
            init, step, body, ..
        } => {
            // Synthesizable for-loops have constant bounds and execute
            // their body; treating them as straight-line code matches
            // what synthesis unrolls.
            let mut out = must_assigned(init);
            out.extend(must_assigned(body));
            out.extend(must_assigned(step));
            out
        }
        Stmt::Delay { stmt, .. } => stmt.as_deref().map(must_assigned).unwrap_or_default(),
        _ => BTreeSet::new(),
    }
}

/// Reads of values produced *outside* the block: a read of a signal that
/// was blocking-assigned on every path reaching it is internal.
fn external_reads(s: &Stmt, assigned: &mut BTreeSet<String>, reads: &mut BTreeSet<String>) {
    let note_expr = |e: &Expr, assigned: &BTreeSet<String>, reads: &mut BTreeSet<String>| {
        let mut names = Vec::new();
        e.collect_reads(&mut names);
        for n in names {
            if !assigned.contains(&n) {
                reads.insert(n);
            }
        }
    };
    match s {
        Stmt::Block(stmts) => {
            for st in stmts {
                external_reads(st, assigned, reads);
            }
        }
        Stmt::Blocking(lv, e) => {
            note_expr(e, assigned, reads);
            let mut idx = Vec::new();
            lv.collect_index_reads(&mut idx);
            for n in idx {
                if !assigned.contains(&n) {
                    reads.insert(n);
                }
            }
            for t in lv.targets() {
                assigned.insert(t.to_string());
            }
        }
        Stmt::NonBlocking(lv, e) => {
            // NBA updates are not visible to later reads in the block.
            note_expr(e, assigned, reads);
            let mut idx = Vec::new();
            lv.collect_index_reads(&mut idx);
            for n in idx {
                if !assigned.contains(&n) {
                    reads.insert(n);
                }
            }
        }
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
        } => {
            note_expr(cond, assigned, reads);
            let mut a = assigned.clone();
            external_reads(then_stmt, &mut a, reads);
            let mut b = assigned.clone();
            if let Some(e) = else_stmt {
                external_reads(e, &mut b, reads);
            }
            *assigned = a.intersection(&b).cloned().collect();
        }
        Stmt::Case { expr, arms, .. } => {
            note_expr(expr, assigned, reads);
            let has_default = arms.iter().any(|a| a.labels.is_empty());
            let mut arm_sets = Vec::new();
            for arm in arms {
                for l in &arm.labels {
                    note_expr(l, assigned, reads);
                }
                let mut a = assigned.clone();
                external_reads(&arm.body, &mut a, reads);
                arm_sets.push(a);
            }
            if has_default {
                if let Some(first) = arm_sets.first().cloned() {
                    *assigned = arm_sets
                        .into_iter()
                        .skip(1)
                        .fold(first, |acc, s| acc.intersection(&s).cloned().collect());
                }
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            external_reads(init, assigned, reads);
            note_expr(cond, assigned, reads);
            external_reads(body, assigned, reads);
            external_reads(step, assigned, reads);
        }
        Stmt::Delay { stmt, .. } => {
            if let Some(st) = stmt {
                external_reads(st, assigned, reads);
            }
        }
        Stmt::SysCall { args, .. } => {
            for a in args {
                if let SysArg::Expr(e) = a {
                    note_expr(e, assigned, reads);
                }
            }
        }
        Stmt::Empty => {}
    }
}

/// Signals assigned somewhere under a reset-like condition (an `if`
/// whose condition cone reads an identifier containing `rst`/`reset`).
fn collect_reset_assigned(s: &Stmt, under_reset: bool, out: &mut Vec<String>) {
    match s {
        Stmt::Block(stmts) => {
            for st in stmts {
                collect_reset_assigned(st, under_reset, out);
            }
        }
        Stmt::Blocking(lv, _) | Stmt::NonBlocking(lv, _) => {
            if under_reset {
                for t in lv.targets() {
                    out.push(t.to_string());
                }
            }
        }
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
        } => {
            let resetish = under_reset || reads_reset_like(cond);
            collect_reset_assigned(then_stmt, resetish, out);
            if let Some(e) = else_stmt {
                // The else of a reset conditional is the non-reset arm,
                // but everything under it is still reset-conditioned
                // state handling — count the whole if as reset-aware.
                collect_reset_assigned(e, resetish, out);
            }
        }
        Stmt::Case { arms, .. } => {
            for arm in arms {
                collect_reset_assigned(&arm.body, under_reset, out);
            }
        }
        Stmt::For {
            init, step, body, ..
        } => {
            collect_reset_assigned(init, under_reset, out);
            collect_reset_assigned(step, under_reset, out);
            collect_reset_assigned(body, under_reset, out);
        }
        Stmt::Delay { stmt, .. } => {
            if let Some(st) = stmt {
                collect_reset_assigned(st, under_reset, out);
            }
        }
        Stmt::SysCall { .. } | Stmt::Empty => {}
    }
}

fn reads_reset_like(cond: &Expr) -> bool {
    let mut names = Vec::new();
    cond.collect_reads(&mut names);
    names.iter().any(|n| {
        let l = n.to_ascii_lowercase();
        l.contains("rst") || l.contains("reset")
    })
}

/// Strongly connected components of the combinational dependency graph,
/// computed with an iterative Tarjan so adversarial inputs cannot
/// overflow the stack. Returns components that form genuine cycles: more
/// than one node, or a single node with a self-edge.
pub fn comb_cycles(edges: &[(String, String, usize)]) -> Vec<Vec<String>> {
    // Index the node set deterministically.
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (a, b, _) in edges {
        nodes.insert(a);
        nodes.insert(b);
    }
    let index: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let names: Vec<&str> = nodes.into_iter().collect();
    let n = names.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for (a, b, _) in edges {
        let (i, j) = (index[a.as_str()], index[b.as_str()]);
        if i == j {
            self_loop[i] = true;
        }
        if !adj[i].contains(&j) {
            adj[i].push(j);
        }
    }

    // Iterative Tarjan.
    const UNSET: usize = usize::MAX;
    let mut idx = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<String>> = Vec::new();
    // (node, next child position)
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if idx[start] != UNSET {
            continue;
        }
        call.push((start, 0));
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child == 0 {
                idx[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if idx[w] == UNSET {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(idx[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == idx[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(names[w].to_string());
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 || self_loop[v] {
                        comp.sort();
                        sccs.push(comp);
                    }
                }
            }
        }
    }
    sccs.sort();
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn df(src: &str) -> ModuleDataflow {
        let file = parse(src).expect("parse");
        analyze(&[&file]).remove(0)
    }

    #[test]
    fn continuous_assign_records_driver_and_reads() {
        let d = df("module m(input [3:0] a, output [3:0] y); assign y = a; endmodule");
        assert_eq!(d.signals["y"].drivers.len(), 1);
        assert_eq!(d.signals["y"].drivers[0].kind, DriverKind::Continuous);
        assert!(d.signals["y"].drivers[0].full);
        assert!(d.signals["a"].read);
        assert!(!d.signals["y"].read);
    }

    #[test]
    fn always_blocks_classified() {
        let d = df(
            "module m(input clk, input a, output reg y, output reg z);\n\
             always @(posedge clk) y <= a;\n\
             always @(*) z = a;\n\
             endmodule",
        );
        assert_eq!(d.always[0].kind, DriverKind::AlwaysSeq);
        assert_eq!(d.always[1].kind, DriverKind::AlwaysComb);
        assert_eq!(d.signals["y"].drivers[0].kind, DriverKind::AlwaysSeq);
        assert!(d.signals["clk"].read, "event list is a read");
    }

    #[test]
    fn must_assign_intersects_branches() {
        let d = df("module m(input s, input a, output reg y, output reg z);\n\
             always @(*) begin\n\
             z = a;\n\
             if (s) y = a; \n\
             end\n\
             endmodule");
        let f = &d.always[0];
        assert!(f.may_assign.contains("y"));
        assert!(!f.must_assign.contains("y"));
        assert!(f.must_assign.contains("z"));
    }

    #[test]
    fn internal_blocking_reads_are_not_edges() {
        let d = df("module m(input [3:0] a, b, output reg [3:0] y);\n\
             always @(*) begin y = a; y = y & b; end\n\
             endmodule");
        assert!(
            !d.comb_edges.iter().any(|(r, t, _)| r == "y" && t == "y"),
            "y read after assignment is internal: {:?}",
            d.comb_edges
        );
    }

    #[test]
    fn reset_detection() {
        let d = df(
            "module m(input clk, input rst, input d, output reg q, output reg p);\n\
             always @(posedge clk) begin\n\
             if (rst) q <= 1'b0; else q <= d;\n\
             end\n\
             always @(posedge clk) p <= d;\n\
             endmodule",
        );
        assert!(d.signals["q"].reset_seen);
        assert!(!d.signals["p"].reset_seen);
    }

    #[test]
    fn unresolved_instance_marks_opaque() {
        let d = df("module tb; reg a; wire y; mystery u(.a(a), .y(y)); endmodule");
        assert!(d.signals["a"].opaque);
        assert!(d.signals["y"].opaque);
        assert!(d.signals["y"].read);
    }

    #[test]
    fn resolved_instance_drives_outputs_reads_inputs() {
        let src = "module leaf(input i, output o); assign o = i; endmodule\n\
                   module top(input x, output w); leaf u(.i(x), .o(w)); endmodule";
        let file = parse(src).expect("parse");
        let d = &analyze(&[&file])[1];
        assert!(d.signals["x"].read);
        assert_eq!(d.signals["w"].drivers[0].kind, DriverKind::Instance);
        assert!(!d.signals["w"].opaque);
    }

    #[test]
    fn truncating_assign_recorded() {
        let d = df("module m(input [7:0] a, b, output [3:0] y); assign y = a + b; endmodule");
        assert_eq!(d.width_deltas.len(), 1);
        assert_eq!(d.width_deltas[0], (0, "y".to_string(), 4, 8));
        // Widening is silent.
        let d2 = df("module m(input [3:0] a, b, output [7:0] y); assign y = a + b; endmodule");
        assert!(d2.width_deltas.is_empty());
    }

    #[test]
    fn flexible_literals_do_not_truncate() {
        let d = df(
            "module m(input clk, output reg [7:0] q); always @(posedge clk) q <= q + 1; endmodule",
        );
        assert!(d.width_deltas.is_empty(), "{:?}", d.width_deltas);
    }

    #[test]
    fn cycles_found_deterministically() {
        let edges = vec![
            ("a".to_string(), "b".to_string(), 0),
            ("b".to_string(), "a".to_string(), 1),
            ("c".to_string(), "c".to_string(), 2),
            ("d".to_string(), "e".to_string(), 3),
        ];
        let cycles = comb_cycles(&edges);
        assert_eq!(
            cycles,
            vec![
                vec!["a".to_string(), "b".to_string()],
                vec!["c".to_string()]
            ]
        );
    }
}
