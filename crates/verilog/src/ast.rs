//! Abstract syntax tree for the supported Verilog subset.
//!
//! Every node derives `Hash`, so a parsed design's [`fingerprint`] is
//! defined by these type definitions alone; [`SourceFile`] hashes its
//! modules and caches the result.

use crate::hash::{fingerprint, Fingerprint};
use crate::logic::LogicVec;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// A parsed source file: one or more module definitions.
///
/// Carries a lazily computed [`Fingerprint`] so repeated cache probes
/// against the same parsed value hash once. The cache is **per value**:
/// cloning yields a fresh, empty cache (clones are routinely mutated
/// into mutants — inheriting the original's fingerprint would silently
/// alias distinct designs), and [`SourceFile::module_mut`] invalidates
/// it. Code that mutates `modules` directly must do so before the first
/// [`SourceFile::fingerprint`] call on that value (every in-tree
/// mutation site operates on a fresh parse or clone).
#[derive(Default)]
pub struct SourceFile {
    /// Modules in source order.
    pub modules: Vec<Module>,
    /// Lazily computed fingerprint of `modules`.
    fp: OnceLock<Fingerprint>,
}

impl SourceFile {
    /// A file over the given modules.
    pub fn new(modules: Vec<Module>) -> SourceFile {
        SourceFile {
            modules,
            fp: OnceLock::new(),
        }
    }

    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Mutable lookup by name. Invalidates the cached fingerprint — the
    /// caller is presumed to mutate the module.
    pub fn module_mut(&mut self, name: &str) -> Option<&mut Module> {
        self.fp.take();
        self.modules.iter_mut().find(|m| m.name == name)
    }

    /// The [`fingerprint`] of this file, computed on first use and
    /// cached for the value's lifetime. Call the free [`fingerprint`] to
    /// force a fresh computation.
    pub fn fingerprint(&self) -> Fingerprint {
        let fp = *self.fp.get_or_init(|| fingerprint(self));
        // The cache's soundness rests on a convention the compiler
        // cannot check (the pub `modules` field must not be mutated
        // after the first fingerprint). Debug builds — including the
        // whole test suite — recompute and compare, so any violation
        // fails loudly at the probe instead of silently aliasing
        // distinct designs in a content-addressed cache.
        debug_assert_eq!(
            fp,
            fingerprint(self),
            "stale cached fingerprint: this SourceFile was mutated through \
             the pub `modules` field after being fingerprinted; mutate via \
             `module_mut` (which invalidates) or before the first \
             `fingerprint()` call"
        );
        fp
    }
}

impl Clone for SourceFile {
    /// Clones the modules with a *fresh* fingerprint cache: clones are
    /// the raw material of mutants, and a copied fingerprint would
    /// outlive the first mutation.
    fn clone(&self) -> Self {
        SourceFile {
            modules: self.modules.clone(),
            fp: OnceLock::new(),
        }
    }
}

impl PartialEq for SourceFile {
    fn eq(&self, other: &Self) -> bool {
        self.modules == other.modules
    }
}

impl Hash for SourceFile {
    /// Hashes the modules, like [`PartialEq`] compares them: the cached
    /// fingerprint is derived from them.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.modules.hash(state);
    }
}

impl fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceFile")
            .field("modules", &self.modules)
            .finish()
    }
}

/// A module definition.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Header port order (names only; full declarations live in `ports`).
    pub port_order: Vec<String>,
    /// Port declarations.
    pub ports: Vec<PortDecl>,
    /// Body items.
    pub items: Vec<Item>,
}

/// Port direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// `input`
    Input,
    /// `output`
    Output,
}

/// Net kind of a declaration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NetKind {
    /// `wire` — driven by continuous assignments / instance outputs.
    Wire,
    /// `reg` — assigned from procedural code.
    Reg,
    /// `integer` — a 32-bit signed reg.
    Integer,
}

/// A `[msb:lsb]` range. Only descending constant ranges are supported
/// (`[7:0]`); the LSB may be non-zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Range {
    /// Most significant bit index.
    pub msb: i64,
    /// Least significant bit index.
    pub lsb: i64,
}

impl Range {
    /// Number of bits covered.
    pub fn width(&self) -> usize {
        (self.msb - self.lsb).unsigned_abs() as usize + 1
    }
}

/// A port declaration.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct PortDecl {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: Direction,
    /// Net kind (`output reg q` vs `output q`).
    pub net: NetKind,
    /// `signed` flag.
    pub signed: bool,
    /// Vector range, or `None` for scalars.
    pub range: Option<Range>,
}

impl PortDecl {
    /// Bit width of the port.
    pub fn width(&self) -> usize {
        self.range.map_or(1, |r| r.width())
    }
}

/// A module body item.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Item {
    /// `wire`/`reg`/`integer` declaration of one or more names.
    Net(NetDecl),
    /// `assign lhs = rhs;`
    Assign(AssignItem),
    /// `always @(...) stmt` (or bare `always stmt`).
    Always(AlwaysBlock),
    /// `initial stmt`.
    Initial(Stmt),
    /// Module instantiation.
    Instance(Instance),
}

/// A net declaration (one statement may declare several names).
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct NetDecl {
    /// Kind of net.
    pub kind: NetKind,
    /// `signed` flag.
    pub signed: bool,
    /// Vector range.
    pub range: Option<Range>,
    /// Declared names with optional initializer (`reg x = 0` in TB code).
    pub names: Vec<(String, Option<Expr>)>,
}

/// A continuous assignment.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct AssignItem {
    /// Left-hand side.
    pub lhs: LValue,
    /// Right-hand side.
    pub rhs: Expr,
}

/// An `always` block.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct AlwaysBlock {
    /// Sensitivity: `None` means a bare `always` (free-running process,
    /// used by TB clock generators as `always #5 clk = ~clk;`).
    pub event: Option<EventControl>,
    /// Body.
    pub body: Stmt,
}

/// The event control of an `always` block.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum EventControl {
    /// `@(*)` / `@*` — sensitive to every signal read by the body.
    Star,
    /// `@(posedge clk or posedge rst)`: the rising edges of the named
    /// signals.
    Posedge(Vec<String>),
}

/// A module instantiation.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct Instance {
    /// Instantiated module name.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// Port connections.
    pub conns: Connections,
}

/// Port connections of an instance.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Connections {
    /// Positional `m u(a, b, c);`
    Ordered(Vec<Expr>),
    /// Named `.port(expr)`; `expr` may be omitted (`.port()`).
    Named(Vec<(String, Option<Expr>)>),
}

/// A procedural statement.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Stmt {
    /// `begin ... end` (optionally named).
    Block(Vec<Stmt>),
    /// Blocking assignment `lhs = rhs;`.
    Blocking(LValue, Expr),
    /// Non-blocking assignment `lhs <= rhs;`.
    NonBlocking(LValue, Expr),
    /// `if (cond) s [else s]`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_stmt: Box<Stmt>,
        /// Optional else-branch.
        else_stmt: Option<Box<Stmt>>,
    },
    /// `case` (exact four-state matching).
    Case {
        /// Selector expression.
        expr: Expr,
        /// Arms: labels (empty = `default`) and body.
        arms: Vec<CaseArm>,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Initialisation assignment.
        init: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
        /// Step assignment.
        step: Box<Stmt>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `#n [stmt]` — delay, then optionally a statement.
    Delay {
        /// Ticks to wait.
        delay: u64,
        /// Statement to run after the delay, if inline.
        stmt: Option<Box<Stmt>>,
    },
    /// A system task call, e.g. `$display("x=%d", x);`.
    SysCall {
        /// Task name including `$`.
        name: String,
        /// Arguments.
        args: Vec<SysArg>,
    },
    /// Empty statement `;`.
    Empty,
}

/// One arm of a case statement.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct CaseArm {
    /// Match labels; empty means `default`.
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Stmt,
}

/// A system-task argument.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum SysArg {
    /// A string literal (usually the format string).
    Str(String),
    /// An expression.
    Expr(Expr),
}

/// An assignable location.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum LValue {
    /// A whole signal.
    Ident(String),
    /// A single bit `sig[i]` (index may be dynamic).
    Bit(String, Box<Expr>),
    /// A constant part select `sig[msb:lsb]`.
    Part(String, i64, i64),
    /// An indexed part select `sig[base +: width]`.
    IndexedPart(String, Box<Expr>, usize),
    /// Concatenation of lvalues `{a, b}` (MSB first).
    Concat(Vec<LValue>),
}

impl LValue {
    /// The identifiers written by this lvalue.
    pub fn targets(&self) -> Vec<&str> {
        match self {
            LValue::Ident(n)
            | LValue::Bit(n, _)
            | LValue::Part(n, _, _)
            | LValue::IndexedPart(n, _, _) => {
                vec![n.as_str()]
            }
            LValue::Concat(parts) => parts.iter().flat_map(|p| p.targets()).collect(),
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// `+`
    Plus,
    /// `-`
    Neg,
    /// `~`
    Not,
    /// `!`
    LogicNot,
    /// `&`
    RedAnd,
    /// `|`
    RedOr,
    /// `^`
    RedXor,
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `~^` (or `^~`)
    Xnor,
    /// `&&`
    LogicAnd,
    /// `||`
    LogicOr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    AShr,
}

impl BinaryOp {
    /// `true` for operators whose result is a single bit.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge | LogicAnd | LogicOr)
    }

    /// `true` for shift operators (context width comes from the left side).
    pub fn is_shift(self) -> bool {
        use BinaryOp::*;
        matches!(self, Shl | Shr | AShr)
    }
}

/// An expression.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Expr {
    /// A literal value.
    Literal {
        /// The four-state value (already sized).
        value: LogicVec,
        /// Whether the literal was marked signed.
        signed: bool,
    },
    /// A signal reference.
    Ident(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Concatenation `{a, b, c}` (MSB first).
    Concat(Vec<Expr>),
    /// Replication `{n{e}}`.
    Repl(usize, Box<Expr>),
    /// Bit select `sig[i]`.
    Bit(String, Box<Expr>),
    /// Constant part select `sig[msb:lsb]`.
    Part(String, i64, i64),
    /// Indexed part select `sig[base +: width]`.
    IndexedPart(String, Box<Expr>, usize),
}

impl Expr {
    /// Convenience constructor for an unsigned literal.
    pub fn literal_u64(width: usize, value: u64) -> Expr {
        Expr::Literal {
            value: LogicVec::from_u64(width, value),
            signed: false,
        }
    }

    /// Collects every identifier read by this expression into `out`.
    pub fn collect_reads(&self, out: &mut Vec<String>) {
        match self {
            Expr::Literal { .. } => {}
            Expr::Ident(n) => out.push(n.clone()),
            Expr::Unary(_, e) => e.collect_reads(out),
            Expr::Binary(_, a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            Expr::Ternary(c, a, b) => {
                c.collect_reads(out);
                a.collect_reads(out);
                b.collect_reads(out);
            }
            Expr::Concat(es) => {
                for e in es {
                    e.collect_reads(out);
                }
            }
            Expr::Repl(_, e) => e.collect_reads(out),
            Expr::Bit(n, i) => {
                out.push(n.clone());
                i.collect_reads(out);
            }
            Expr::Part(n, _, _) => out.push(n.clone()),
            Expr::IndexedPart(n, b, _) => {
                out.push(n.clone());
                b.collect_reads(out);
            }
        }
    }
}

impl Stmt {
    /// Collects every identifier read by this statement (conditions,
    /// right-hand sides, indices) into `out`. Used to build `@(*)`
    /// sensitivity lists.
    pub fn collect_reads(&self, out: &mut Vec<String>) {
        match self {
            Stmt::Block(stmts) => {
                for s in stmts {
                    s.collect_reads(out);
                }
            }
            Stmt::Blocking(lv, e) | Stmt::NonBlocking(lv, e) => {
                lv.collect_index_reads(out);
                e.collect_reads(out);
            }
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                cond.collect_reads(out);
                then_stmt.collect_reads(out);
                if let Some(e) = else_stmt {
                    e.collect_reads(out);
                }
            }
            Stmt::Case { expr, arms, .. } => {
                expr.collect_reads(out);
                for arm in arms {
                    for l in &arm.labels {
                        l.collect_reads(out);
                    }
                    arm.body.collect_reads(out);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                init.collect_reads(out);
                cond.collect_reads(out);
                step.collect_reads(out);
                body.collect_reads(out);
            }
            Stmt::Delay { stmt, .. } => {
                if let Some(s) = stmt {
                    s.collect_reads(out);
                }
            }
            Stmt::SysCall { args, .. } => {
                for a in args {
                    if let SysArg::Expr(e) = a {
                        e.collect_reads(out);
                    }
                }
            }
            Stmt::Empty => {}
        }
    }
}

impl LValue {
    /// Collects identifiers read by dynamic indices inside the lvalue.
    pub fn collect_index_reads(&self, out: &mut Vec<String>) {
        match self {
            LValue::Ident(_) | LValue::Part(_, _, _) => {}
            LValue::Bit(_, i) => i.collect_reads(out),
            LValue::IndexedPart(_, b, _) => b.collect_reads(out),
            LValue::Concat(parts) => {
                for p in parts {
                    p.collect_index_reads(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_width() {
        assert_eq!(Range { msb: 7, lsb: 0 }.width(), 8);
        assert_eq!(Range { msb: 0, lsb: 0 }.width(), 1);
        assert_eq!(Range { msb: 31, lsb: 16 }.width(), 16);
    }

    #[test]
    fn expr_reads() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Ident("a".into())),
            Box::new(Expr::Ternary(
                Box::new(Expr::Ident("sel".into())),
                Box::new(Expr::Bit("v".into(), Box::new(Expr::Ident("i".into())))),
                Box::new(Expr::literal_u64(4, 0)),
            )),
        );
        let mut reads = Vec::new();
        e.collect_reads(&mut reads);
        assert_eq!(reads, vec!["a", "sel", "v", "i"]);
    }

    #[test]
    fn lvalue_targets() {
        let lv = LValue::Concat(vec![
            LValue::Ident("hi".into()),
            LValue::Bit("lo".into(), Box::new(Expr::literal_u64(1, 0))),
        ]);
        assert_eq!(lv.targets(), vec!["hi", "lo"]);
    }
}
