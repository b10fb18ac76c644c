//! Operator precedence and associativity. `print_expr` parenthesizes
//! every operator, so a printed parse re-parses to itself however the
//! parser grouped its operands, and the round-trip tests cannot see a
//! precedence or associativity slip. Here random expressions written
//! without redundant parentheses, over the 20 binary operators, the 7
//! unary prefixes, `?:` and parenthesized groups, are parsed and
//! printed, and the print must equal the grouping that a reference
//! parser in this file builds from its own ten-level table.

use correctbench_verilog::ast::Item;
use correctbench_verilog::parser::parse;
use correctbench_verilog::pretty::print_expr;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Binary operators by precedence level, loosest first; every level is
/// left-associative. `^~` is another spelling of `~^`.
const LEVELS: [&[&str]; 10] = [
    &["||"],
    &["&&"],
    &["|"],
    &["^", "~^", "^~"],
    &["&"],
    &["==", "!="],
    &["<", "<=", ">", ">="],
    &["<<", ">>", ">>>"],
    &["+", "-"],
    &["*", "/", "%"],
];

const UNARY: [&str; 7] = ["+", "-", "~", "!", "&", "|", "^"];

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// A random expression as tokens: operands joined by binary operators,
/// sometimes a `?:`, with unary prefixes and parenthesized groups down
/// to `depth` levels.
fn gen_expr(rng: &mut StdRng, depth: u32, out: &mut Vec<String>) {
    gen_operand(rng, depth, out);
    for _ in 0..rng.gen_range(0..6usize) {
        let level = LEVELS[rng.gen_range(0..LEVELS.len())];
        out.push(pick(rng, level).to_string());
        gen_operand(rng, depth, out);
    }
    if depth > 0 && rng.gen_bool(0.2) {
        out.push("?".into());
        gen_expr(rng, depth - 1, out);
        out.push(":".into());
        gen_expr(rng, depth - 1, out);
    }
}

fn gen_operand(rng: &mut StdRng, depth: u32, out: &mut Vec<String>) {
    for _ in 0..rng.gen_range(0..3usize) {
        out.push(pick(rng, &UNARY).to_string());
    }
    if depth > 0 && rng.gen_bool(0.2) {
        out.push("(".into());
        gen_expr(rng, depth - 1, out);
        out.push(")".into());
    } else {
        out.push(pick(rng, &NAMES).to_string());
    }
}

/// The reference: one recursive-descent function per level of
/// [`LEVELS`], rendering what it parses as `print_expr` does.
struct Reference<'t> {
    tokens: &'t [String],
    pos: usize,
}

impl Reference<'_> {
    fn peek(&self) -> Option<&str> {
        self.tokens.get(self.pos).map(String::as_str)
    }

    fn next(&mut self) -> &str {
        self.pos += 1;
        &self.tokens[self.pos - 1]
    }

    fn expr(&mut self) -> String {
        let cond = self.level(0);
        if self.peek() != Some("?") {
            return cond;
        }
        self.next();
        let t = self.expr();
        assert_eq!(self.next(), ":");
        let f = self.expr();
        format!("({cond} ? {t} : {f})")
    }

    fn level(&mut self, level: usize) -> String {
        if level == LEVELS.len() {
            return self.operand();
        }
        let mut lhs = self.level(level + 1);
        while let Some(op) = self.peek().filter(|t| LEVELS[level].contains(t)) {
            let op = if op == "^~" { "~^" } else { op }.to_string();
            self.next();
            let rhs = self.level(level + 1);
            lhs = format!("({lhs} {op} {rhs})");
        }
        lhs
    }

    fn operand(&mut self) -> String {
        match self.next().to_string() {
            t if UNARY.contains(&t.as_str()) => format!("({t}{})", self.operand()),
            t if t == "(" => {
                let inner = self.expr();
                assert_eq!(self.next(), ")");
                inner
            }
            name => name,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn parse_groups_operators_like_the_reference_table(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tokens = Vec::new();
        gen_expr(&mut rng, 3, &mut tokens);
        let text = tokens.join(" ");
        let src = format!(
            "module m(input [7:0] a, b, c, d, output [7:0] y);\nassign y = {text};\nendmodule\n"
        );
        let file = parse(&src).unwrap_or_else(|e| panic!("{text}: {e}"));
        let Item::Assign(assign) = &file.modules[0].items[0] else {
            panic!("{text}: not an assign");
        };
        let mut reference = Reference { tokens: &tokens, pos: 0 };
        let expected = reference.expr();
        prop_assert_eq!(reference.pos, tokens.len());
        prop_assert_eq!(print_expr(&assign.rhs), expected, "{}", text);
    }
}
