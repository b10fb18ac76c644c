//! Semantic AST mutation.
//!
//! One engine serves three paper roles:
//!
//! * **Eval2 mutants** — small single/double mutations of the golden RTL
//!   used as faulty DUTs;
//! * the **validator's "imperfect" RTL group** — the LLM-generated designs
//!   whose randomly-distributed errors make RS-matrix voting work;
//! * the **simulated LLM** — generated RTL/checker artifacts are golden
//!   artifacts with profile-controlled mutations injected.
//!
//! Mutations are chosen uniformly over *sites* (operator nodes, literals,
//! identifiers, conditions, case arms), so error positions are spread
//! across the design exactly the way Section III-B of the paper assumes.

use crate::ast::*;
use crate::logic::LogicVec;
use rand::Rng;
use std::collections::HashMap;

/// A record of one applied mutation (for logs and debugging).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mutation {
    /// Human-readable description, e.g. `"binary op + -> -"`.
    pub description: String,
}

/// Per-module context used by identifier-swap mutations.
struct ModuleInfo {
    widths: HashMap<String, usize>,
}

impl ModuleInfo {
    fn collect(m: &Module) -> Self {
        let mut widths = HashMap::new();
        for p in &m.ports {
            widths.insert(p.name.clone(), p.width());
        }
        for item in &m.items {
            if let Item::Net(d) = item {
                let w = d.range.map_or(1, |r| r.width());
                for (n, _) in &d.names {
                    widths.insert(n.clone(), w);
                }
            }
        }
        ModuleInfo { widths }
    }

    fn same_width_peer(&self, name: &str, rng: &mut impl Rng) -> Option<String> {
        let w = *self.widths.get(name)?;
        let mut peers: Vec<&String> = self
            .widths
            .iter()
            .filter(|(n, &pw)| pw == w && n.as_str() != name)
            .map(|(n, _)| n)
            .collect();
        if peers.is_empty() {
            return None;
        }
        peers.sort();
        Some(peers[rng.gen_range(0..peers.len())].clone())
    }
}

/// Applies up to `n` random semantic mutations to `module`, returning what
/// was done. Fewer may be applied when the module has few mutation sites.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use rand::SeedableRng;
/// let src = "module m(input [3:0] a, b, output [3:0] y); assign y = a + b; endmodule";
/// let mut file = correctbench_verilog::parse(src)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let muts = correctbench_verilog::mutate::mutate_module(
///     file.module_mut("m").expect("module"), &mut rng, 1);
/// assert_eq!(muts.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn mutate_module(module: &mut Module, rng: &mut impl Rng, n: usize) -> Vec<Mutation> {
    let mut applied = Vec::new();
    for _ in 0..n {
        match mutate_once(module, rng) {
            Some(m) => applied.push(m),
            None => break,
        }
    }
    applied
}

/// Number of mutation sites currently in `module`.
pub fn count_sites(module: &Module) -> usize {
    let info = ModuleInfo::collect(module);
    let mut count = 0usize;
    walk_module(module.items.as_slice(), &mut |site| {
        count += site_weight(site, &info);
    });
    count
}

/// Applies exactly one mutation, or `None` if no sites exist.
pub fn mutate_once(module: &mut Module, rng: &mut impl Rng) -> Option<Mutation> {
    let info = ModuleInfo::collect(module);
    let total = count_sites(module);
    if total == 0 {
        return None;
    }
    let target = rng.gen_range(0..total);
    let mut cursor = 0usize;
    let mut result = None;
    walk_module_mut(module.items.as_mut_slice(), &mut |site| {
        if result.is_some() {
            return;
        }
        let w = site_weight(site.as_ref(), &info);
        if w == 0 {
            return;
        }
        if target < cursor + w {
            result = apply(site, &info, rng);
        }
        cursor += w;
    });
    result
}

/// Read-only view of a mutation site.
enum SiteRef<'a> {
    Expr(&'a Expr),
    IfStmt { has_else: bool },
    CaseArms(&'a [CaseArm]),
}

/// Mutable view of a mutation site.
enum SiteMut<'a> {
    Expr(&'a mut Expr),
    IfStmt(&'a mut Stmt),
    CaseArms(&'a mut Vec<CaseArm>),
}

impl SiteMut<'_> {
    fn as_ref(&self) -> SiteRef<'_> {
        match self {
            SiteMut::Expr(e) => SiteRef::Expr(e),
            SiteMut::IfStmt(s) => SiteRef::IfStmt {
                has_else: matches!(
                    s,
                    Stmt::If {
                        else_stmt: Some(_),
                        ..
                    }
                ),
            },
            SiteMut::CaseArms(arms) => SiteRef::CaseArms(arms),
        }
    }
}

fn site_weight(site: SiteRef<'_>, info: &ModuleInfo) -> usize {
    match site {
        SiteRef::Expr(e) => match e {
            Expr::Binary(..) => 1,
            Expr::Literal { value, .. } if value.is_fully_known() => 1,
            Expr::Unary(UnaryOp::Not | UnaryOp::LogicNot | UnaryOp::Neg, _) => 1,
            Expr::Ternary(_, _, _) => 1,
            Expr::Ident(n) if info.widths.contains_key(n) => 1,
            _ => 0,
        },
        SiteRef::IfStmt { has_else } => {
            // condition inversion always possible; else-drop only with else.
            if has_else {
                2
            } else {
                1
            }
        }
        SiteRef::CaseArms(arms) => {
            if arms.len() >= 2 {
                1
            } else {
                0
            }
        }
    }
}

/// The operators a binary operator site may be swapped to.
fn swap_candidates(op: BinaryOp) -> Vec<BinaryOp> {
    use BinaryOp::*;
    match op {
        Add => vec![Sub, Or],
        Sub => vec![Add],
        Mul => vec![Add],
        Div => vec![Mod],
        Mod => vec![Div],
        And => vec![Or, Xor],
        Or => vec![And, Xor],
        Xor => vec![Xnor, Or, And],
        Xnor => vec![Xor],
        LogicAnd => vec![LogicOr],
        LogicOr => vec![LogicAnd],
        Eq => vec![Ne],
        Ne => vec![Eq],
        Lt => vec![Le, Gt],
        Le => vec![Lt, Ge],
        Gt => vec![Ge, Lt],
        Ge => vec![Gt, Le],
        Shl => vec![Shr],
        Shr => vec![Shl, AShr],
        AShr => vec![Shr],
    }
}

fn apply(site: SiteMut<'_>, info: &ModuleInfo, rng: &mut impl Rng) -> Option<Mutation> {
    match site {
        SiteMut::Expr(e) => apply_expr(e, info, rng),
        SiteMut::IfStmt(s) => {
            let Stmt::If {
                cond,
                then_stmt,
                else_stmt,
            } = s
            else {
                return None;
            };
            let drop_else = else_stmt.is_some() && rng.gen_bool(0.5);
            if drop_else {
                // Model a "forgot the reset/else branch" bug: the whole if
                // collapses to its then branch.
                let body = std::mem::replace(then_stmt.as_mut(), Stmt::Empty);
                *s = body;
                Some(Mutation {
                    description: "dropped else branch of if".to_string(),
                })
            } else {
                let old = std::mem::replace(cond, Expr::literal_u64(1, 0));
                *cond = Expr::Unary(UnaryOp::LogicNot, Box::new(old));
                Some(Mutation {
                    description: "inverted if condition".to_string(),
                })
            }
        }
        SiteMut::CaseArms(arms) => {
            if arms.len() < 2 {
                return None;
            }
            let i = rng.gen_range(0..arms.len());
            let mut j = rng.gen_range(0..arms.len() - 1);
            if j >= i {
                j += 1;
            }
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            let (left, right) = arms.split_at_mut(b);
            std::mem::swap(&mut left[a].body, &mut right[0].body);
            Some(Mutation {
                description: format!("swapped case arm bodies {a} and {b}"),
            })
        }
    }
}

fn apply_expr(e: &mut Expr, info: &ModuleInfo, rng: &mut impl Rng) -> Option<Mutation> {
    match e {
        Expr::Binary(op, _, _) => {
            let cands = swap_candidates(*op);
            let new = cands[rng.gen_range(0..cands.len())];
            let desc = format!("binary op {op:?} -> {new:?}");
            *op = new;
            Some(Mutation { description: desc })
        }
        Expr::Literal { value, signed } => {
            let w = value.width();
            let choice = rng.gen_range(0..3u8);
            let new = match choice {
                0 => value.add(&LogicVec::from_u64(w, 1)),
                1 => value.sub(&LogicVec::from_u64(w, 1)),
                _ => {
                    let bit = rng.gen_range(0..w);
                    let mut v = value.clone();
                    let flipped = match v.bit(bit) {
                        crate::logic::Bit::Zero => crate::logic::Bit::One,
                        _ => crate::logic::Bit::Zero,
                    };
                    v.set_bit(bit, flipped);
                    v
                }
            };
            let desc = format!(
                "literal {} -> {}",
                value.to_decimal_string(),
                new.to_decimal_string()
            );
            *e = Expr::Literal {
                value: new,
                signed: *signed,
            };
            Some(Mutation { description: desc })
        }
        Expr::Unary(op @ (UnaryOp::Not | UnaryOp::LogicNot | UnaryOp::Neg), inner) => {
            let desc = format!("dropped unary {op:?}");
            let inner = std::mem::replace(inner.as_mut(), Expr::literal_u64(1, 0));
            *e = inner;
            Some(Mutation { description: desc })
        }
        Expr::Ternary(_, t, f) => {
            std::mem::swap(t, f);
            Some(Mutation {
                description: "swapped ternary branches".to_string(),
            })
        }
        Expr::Ident(n) => {
            let peer = info.same_width_peer(n, rng)?;
            let desc = format!("signal {n} -> {peer}");
            *n = peer;
            Some(Mutation { description: desc })
        }
        _ => None,
    }
}

// ---- walkers ----

fn walk_module<'a>(items: &'a [Item], f: &mut impl FnMut(SiteRef<'a>)) {
    for item in items {
        match item {
            Item::Assign(a) => walk_expr(&a.rhs, f),
            Item::Always(b) => walk_stmt(&b.body, f),
            Item::Initial(s) => walk_stmt(s, f),
            Item::Net(_) | Item::Instance(_) => {}
        }
    }
}

fn walk_stmt<'a>(s: &'a Stmt, f: &mut impl FnMut(SiteRef<'a>)) {
    match s {
        Stmt::Block(stmts) => {
            for st in stmts {
                walk_stmt(st, f);
            }
        }
        Stmt::Blocking(_, e) | Stmt::NonBlocking(_, e) => walk_expr(e, f),
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
        } => {
            f(SiteRef::IfStmt {
                has_else: else_stmt.is_some(),
            });
            walk_expr(cond, f);
            walk_stmt(then_stmt, f);
            if let Some(e) = else_stmt {
                walk_stmt(e, f);
            }
        }
        Stmt::Case { expr, arms, .. } => {
            f(SiteRef::CaseArms(arms));
            walk_expr(expr, f);
            for arm in arms {
                walk_stmt(&arm.body, f);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            walk_stmt(init, f);
            walk_expr(cond, f);
            walk_stmt(step, f);
            walk_stmt(body, f);
        }
        Stmt::Delay { stmt, .. } => {
            if let Some(st) = stmt {
                walk_stmt(st, f);
            }
        }
        Stmt::SysCall { .. } | Stmt::Empty => {}
    }
}

fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(SiteRef<'a>)) {
    f(SiteRef::Expr(e));
    match e {
        Expr::Unary(_, a) | Expr::Repl(_, a) => walk_expr(a, f),
        Expr::Binary(_, a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Ternary(c, a, b) => {
            walk_expr(c, f);
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Concat(es) => {
            for x in es {
                walk_expr(x, f);
            }
        }
        Expr::Bit(_, i) => walk_expr(i, f),
        Expr::IndexedPart(_, b, _) => walk_expr(b, f),
        Expr::Literal { .. } | Expr::Ident(_) | Expr::Part(_, _, _) => {}
    }
}

fn walk_module_mut(items: &mut [Item], f: &mut impl FnMut(SiteMut<'_>)) {
    for item in items {
        match item {
            Item::Assign(a) => walk_expr_mut(&mut a.rhs, f),
            Item::Always(b) => walk_stmt_mut(&mut b.body, f),
            Item::Initial(s) => walk_stmt_mut(s, f),
            Item::Net(_) | Item::Instance(_) => {}
        }
    }
}

fn walk_stmt_mut(s: &mut Stmt, f: &mut impl FnMut(SiteMut<'_>)) {
    // The If site may replace the whole statement, so offer it first and
    // re-check the shape afterwards.
    if matches!(s, Stmt::If { .. }) {
        f(SiteMut::IfStmt(s));
    }
    match s {
        Stmt::Block(stmts) => {
            for st in stmts {
                walk_stmt_mut(st, f);
            }
        }
        Stmt::Blocking(_, e) | Stmt::NonBlocking(_, e) => walk_expr_mut(e, f),
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
        } => {
            walk_expr_mut(cond, f);
            walk_stmt_mut(then_stmt, f);
            if let Some(e) = else_stmt {
                walk_stmt_mut(e, f);
            }
        }
        Stmt::Case { expr, arms, .. } => {
            f(SiteMut::CaseArms(arms));
            walk_expr_mut(expr, f);
            for arm in arms {
                walk_stmt_mut(&mut arm.body, f);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            walk_stmt_mut(init, f);
            walk_expr_mut(cond, f);
            walk_stmt_mut(step, f);
            walk_stmt_mut(body, f);
        }
        Stmt::Delay { stmt, .. } => {
            if let Some(st) = stmt {
                walk_stmt_mut(st, f);
            }
        }
        Stmt::SysCall { .. } | Stmt::Empty => {}
    }
}

fn walk_expr_mut(e: &mut Expr, f: &mut impl FnMut(SiteMut<'_>)) {
    f(SiteMut::Expr(e));
    match e {
        Expr::Unary(_, a) | Expr::Repl(_, a) => walk_expr_mut(a, f),
        Expr::Binary(_, a, b) => {
            walk_expr_mut(a, f);
            walk_expr_mut(b, f);
        }
        Expr::Ternary(c, a, b) => {
            walk_expr_mut(c, f);
            walk_expr_mut(a, f);
            walk_expr_mut(b, f);
        }
        Expr::Concat(es) => {
            for x in es {
                walk_expr_mut(x, f);
            }
        }
        Expr::Bit(_, i) => walk_expr_mut(i, f),
        Expr::IndexedPart(_, b, _) => walk_expr_mut(b, f),
        Expr::Literal { .. } | Expr::Ident(_) | Expr::Part(_, _, _) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::pretty::{print_expr, print_module};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ADDER: &str =
        "module add(input [3:0] a, b, output [4:0] y);\nassign y = a + b;\nendmodule";

    const FSM: &str = "module fsm(input clk, rst, x, output reg y);\nreg [1:0] s;\nalways @(posedge clk) begin\nif (rst) s <= 2'd0;\nelse begin\ncase (s)\n2'd0: if (x) s <= 2'd1;\n2'd1: if (x) s <= 2'd2; else s <= 2'd0;\ndefault: s <= 2'd0;\nendcase\nend\nend\nalways @(*) y = s == 2'd2;\nendmodule";

    #[test]
    fn sites_counted() {
        let f = parse(ADDER).expect("parse");
        // one binary op + two idents = 3 sites
        assert_eq!(count_sites(&f.modules[0]), 3);
        let f2 = parse(FSM).expect("parse");
        assert!(count_sites(&f2.modules[0]) > 8);
    }

    #[test]
    fn mutation_changes_module() {
        let f = parse(FSM).expect("parse");
        let mut rng = StdRng::seed_from_u64(11);
        for seed in 0..20u64 {
            let mut rng2 = StdRng::seed_from_u64(seed);
            let mut m = f.modules[0].clone();
            let muts = mutate_module(&mut m, &mut rng2, 1);
            assert_eq!(muts.len(), 1, "seed {seed}");
            assert_ne!(m, f.modules[0], "seed {seed}: mutation was a no-op");
        }
        let _ = &mut rng;
    }

    #[test]
    fn mutants_still_parse_and_elaborate() {
        let f = parse(FSM).expect("parse");
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = f.modules[0].clone();
            mutate_module(&mut m, &mut rng, 2);
            let printed = print_module(&m);
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("seed {seed}: mutant no longer parses: {e}\n{printed}"));
            crate::elaborate::elaborate(&reparsed, "fsm")
                .unwrap_or_else(|e| panic!("seed {seed}: mutant no longer elaborates: {e}"));
        }
    }

    /// Every operator `swap_candidates` maps, and every operator it maps
    /// to, prints as text that parses back to that operator.
    #[test]
    fn every_swap_candidate_prints_and_parses() {
        use BinaryOp::*;
        let ops = [
            Add, Sub, Mul, Div, Mod, And, Or, Xor, Xnor, LogicAnd, LogicOr, Eq, Ne, Lt, Le, Gt, Ge,
            Shl, Shr, AShr,
        ];
        let a = || Box::new(Expr::Ident("a".into()));
        for op in ops {
            for to in std::iter::once(op).chain(swap_candidates(op)) {
                let e = Expr::Binary(to, a(), a());
                let src = format!(
                    "module m(input [3:0] a, output [3:0] y); assign y = {}; endmodule",
                    print_expr(&e)
                );
                let f = parse(&src).unwrap_or_else(|err| panic!("{to:?}: {err}\n{src}"));
                match &f.modules[0].items[0] {
                    Item::Assign(it) => assert_eq!(it.rhs, e, "{src}"),
                    other => panic!("expected assign, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn multiple_mutations() {
        let f = parse(FSM).expect("parse");
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = f.modules[0].clone();
        let muts = mutate_module(&mut m, &mut rng, 3);
        assert_eq!(muts.len(), 3);
    }

    #[test]
    fn no_sites_no_mutation() {
        let f = parse("module empty; endmodule").expect("parse");
        let mut m = f.modules[0].clone();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(mutate_once(&mut m, &mut rng).is_none());
    }

    #[test]
    fn mutations_distribute_across_sites() {
        // Over many seeds, both the assign expr and the FSM body receive
        // mutations — errors are randomly distributed (paper Section III-B).
        let f = parse(FSM).expect("parse");
        let mut descriptions = std::collections::HashSet::new();
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = f.modules[0].clone();
            for mu in mutate_module(&mut m, &mut rng, 1) {
                descriptions.insert(mu.description);
            }
        }
        assert!(
            descriptions.len() >= 6,
            "expected diverse mutations, got {descriptions:?}"
        );
    }
}
