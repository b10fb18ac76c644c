//! AST → Verilog source rendering.
//!
//! Mutated and generated artifacts are kept as source text (the same shape
//! an LLM would emit) and re-parsed by consumers, so the printer must
//! produce code the parser accepts; `tests::roundtrip` checks that.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole source file.
pub fn print_file(file: &SourceFile) -> String {
    let mut out = String::new();
    for m in &file.modules {
        out.push_str(&print_module(m));
        out.push('\n');
    }
    out
}

/// Renders one module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    write!(s, "module {}", m.name).expect("write to string");
    if !m.port_order.is_empty() {
        s.push_str(" (\n");
        let decls: Vec<String> = m
            .port_order
            .iter()
            .map(|name| match m.ports.iter().find(|p| &p.name == name) {
                Some(p) => format!("    {}", print_port(p)),
                None => format!("    {name}"),
            })
            .collect();
        s.push_str(&decls.join(",\n"));
        s.push_str("\n)");
    }
    s.push_str(";\n");
    for item in &m.items {
        print_item(&mut s, item, 1);
    }
    s.push_str("endmodule\n");
    s
}

fn indent(s: &mut String, level: usize) {
    for _ in 0..level {
        s.push_str("    ");
    }
}

fn print_port(p: &PortDecl) -> String {
    let dir = match p.dir {
        Direction::Input => "input",
        Direction::Output => "output",
    };
    let net = match p.net {
        NetKind::Reg => " reg",
        NetKind::Wire | NetKind::Integer => "",
    };
    let signed = if p.signed { " signed" } else { "" };
    let range = p
        .range
        .map(|r| format!(" [{}:{}]", r.msb, r.lsb))
        .unwrap_or_default();
    format!("{dir}{net}{signed}{range} {}", p.name)
}

fn print_item(s: &mut String, item: &Item, level: usize) {
    match item {
        Item::Net(d) => {
            indent(s, level);
            let kind = match d.kind {
                NetKind::Wire => "wire",
                NetKind::Reg => "reg",
                NetKind::Integer => "integer",
            };
            let signed = if d.signed && d.kind != NetKind::Integer {
                " signed"
            } else {
                ""
            };
            let range = if d.kind == NetKind::Integer {
                String::new()
            } else {
                d.range
                    .map(|r| format!(" [{}:{}]", r.msb, r.lsb))
                    .unwrap_or_default()
            };
            let names: Vec<String> = d
                .names
                .iter()
                .map(|(n, init)| match init {
                    None => n.clone(),
                    Some(e) => format!("{n} = {}", print_expr(e)),
                })
                .collect();
            let _ = writeln!(s, "{kind}{signed}{range} {};", names.join(", "));
        }
        Item::Assign(a) => {
            indent(s, level);
            let _ = writeln!(
                s,
                "assign {} = {};",
                print_lvalue(&a.lhs),
                print_expr(&a.rhs)
            );
        }
        Item::Always(blk) => {
            indent(s, level);
            match &blk.event {
                None => s.push_str("always "),
                Some(EventControl::Star) => s.push_str("always @(*) "),
                Some(EventControl::Posedge(signals)) => {
                    let _ = write!(s, "always @(posedge {}) ", signals.join(" or posedge "));
                }
            }
            print_stmt(s, &blk.body, level, false);
        }
        Item::Initial(body) => {
            indent(s, level);
            s.push_str("initial ");
            print_stmt(s, body, level, false);
        }
        Item::Instance(i) => {
            indent(s, level);
            let conns = match &i.conns {
                Connections::Ordered(exprs) => {
                    exprs.iter().map(print_expr).collect::<Vec<_>>().join(", ")
                }
                Connections::Named(named) => named
                    .iter()
                    .map(|(p, e)| match e {
                        Some(e) => format!(".{p}({})", print_expr(e)),
                        None => format!(".{p}()"),
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
            };
            let _ = writeln!(s, "{} {} ({conns});", i.module, i.name);
        }
    }
}

/// Renders a statement. `level` is the current indentation; when `inline`
/// the statement continues an existing line (after `#10 ` etc.).
fn print_stmt(s: &mut String, stmt: &Stmt, level: usize, inline: bool) {
    if inline {
        indent(s, level);
    }
    match stmt {
        Stmt::Block(stmts) => {
            s.push_str("begin\n");
            for st in stmts {
                print_stmt(s, st, level + 1, true);
            }
            indent(s, level);
            s.push_str("end\n");
        }
        Stmt::Blocking(lv, e) => {
            let _ = writeln!(s, "{} = {};", print_lvalue(lv), print_expr(e));
        }
        Stmt::NonBlocking(lv, e) => {
            let _ = writeln!(s, "{} <= {};", print_lvalue(lv), print_expr(e));
        }
        Stmt::If {
            cond,
            then_stmt,
            else_stmt,
        } => {
            let _ = write!(s, "if ({}) ", print_expr(cond));
            print_stmt(s, then_stmt, level, false);
            if let Some(e) = else_stmt {
                indent(s, level);
                s.push_str("else ");
                print_stmt(s, e, level, false);
            }
        }
        Stmt::Case { expr, arms } => {
            let _ = writeln!(s, "case ({})", print_expr(expr));
            for arm in arms {
                indent(s, level + 1);
                if arm.labels.is_empty() {
                    s.push_str("default: ");
                } else {
                    let labels: Vec<String> = arm.labels.iter().map(print_expr).collect();
                    let _ = write!(s, "{}: ", labels.join(", "));
                }
                print_stmt(s, &arm.body, level + 1, false);
            }
            indent(s, level);
            s.push_str("endcase\n");
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            let _ = write!(
                s,
                "for ({}; {}; {}) ",
                print_assign_head(init),
                print_expr(cond),
                print_assign_head(step)
            );
            print_stmt(s, body, level, false);
        }
        Stmt::Delay { delay, stmt } => match stmt {
            None => {
                let _ = writeln!(s, "#{delay};");
            }
            Some(st) => {
                let _ = write!(s, "#{delay} ");
                print_stmt(s, st, level, false);
            }
        },
        Stmt::SysCall { name, args } => {
            let rendered: Vec<String> = args
                .iter()
                .map(|a| match a {
                    SysArg::Str(t) => format!("\"{}\"", escape_str(t)),
                    SysArg::Expr(e) => print_expr(e),
                })
                .collect();
            if rendered.is_empty() {
                let _ = writeln!(s, "{name};");
            } else {
                let _ = writeln!(s, "{name}({});", rendered.join(", "));
            }
        }
        Stmt::Empty => s.push_str(";\n"),
    }
}

fn print_assign_head(s: &Stmt) -> String {
    match s {
        Stmt::Blocking(lv, e) => format!("{} = {}", print_lvalue(lv), print_expr(e)),
        Stmt::NonBlocking(lv, e) => format!("{} <= {}", print_lvalue(lv), print_expr(e)),
        other => panic!("for-loop head must be an assignment, got {other:?}"),
    }
}

fn escape_str(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '\n' => vec!['\\', 'n'],
            '\t' => vec!['\\', 't'],
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect()
}

/// Renders an lvalue.
pub fn print_lvalue(lv: &LValue) -> String {
    match lv {
        LValue::Ident(n) => n.clone(),
        LValue::Bit(n, i) => format!("{n}[{}]", print_expr(i)),
        LValue::Part(n, msb, lsb) => format!("{n}[{msb}:{lsb}]"),
        LValue::IndexedPart(n, b, w) => format!("{n}[{} +: {w}]", print_expr(b)),
        LValue::Concat(parts) => {
            let inner: Vec<String> = parts.iter().map(print_lvalue).collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

fn unary_str(op: UnaryOp) -> &'static str {
    match op {
        UnaryOp::Plus => "+",
        UnaryOp::Neg => "-",
        UnaryOp::Not => "~",
        UnaryOp::LogicNot => "!",
        UnaryOp::RedAnd => "&",
        UnaryOp::RedOr => "|",
        UnaryOp::RedXor => "^",
    }
}

fn binary_str(op: BinaryOp) -> &'static str {
    use BinaryOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Mod => "%",
        And => "&",
        Or => "|",
        Xor => "^",
        Xnor => "~^",
        LogicAnd => "&&",
        LogicOr => "||",
        Eq => "==",
        Ne => "!=",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
        Shl => "<<",
        Shr => ">>",
        AShr => ">>>",
    }
}

/// Renders an expression (fully parenthesised; correctness over beauty).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Literal { value, signed } => {
            let s = if *signed { "s" } else { "" };
            format!("{}'{s}b{}", value.width(), value.to_binary_string())
        }
        Expr::Ident(n) => n.clone(),
        Expr::Unary(op, a) => format!("({}{})", unary_str(*op), print_expr(a)),
        Expr::Binary(op, a, b) => {
            format!("({} {} {})", print_expr(a), binary_str(*op), print_expr(b))
        }
        Expr::Ternary(c, t, f) => format!(
            "({} ? {} : {})",
            print_expr(c),
            print_expr(t),
            print_expr(f)
        ),
        Expr::Concat(parts) => {
            let inner: Vec<String> = parts.iter().map(print_expr).collect();
            format!("{{{}}}", inner.join(", "))
        }
        Expr::Repl(n, inner) => format!("{{{n}{{{}}}}}", print_expr(inner)),
        Expr::Bit(n, i) => format!("{n}[{}]", print_expr(i)),
        Expr::Part(n, msb, lsb) => format!("{n}[{msb}:{lsb}]"),
        Expr::IndexedPart(n, b, w) => format!("{n}[{} +: {w}]", print_expr(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn roundtrip(src: &str) {
        let f1 = parse(src).expect("first parse");
        let printed = print_file(&f1);
        let f2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let reprinted = print_file(&f2);
        assert_eq!(printed, reprinted, "printer not a fixpoint");
    }

    #[test]
    fn roundtrip_combinational() {
        roundtrip(
            "module m(input [3:0] a, b, input sel, output [3:0] y);\nassign y = sel ? a + b : a - b;\nendmodule",
        );
    }

    #[test]
    fn roundtrip_sequential() {
        roundtrip(
            "module m(input clk, rst, input [7:0] d, output reg [7:0] q);\nalways @(posedge clk) begin\nif (rst) q <= 8'd0;\nelse q <= d;\nend\nendmodule",
        );
    }

    #[test]
    fn roundtrip_case_fsm() {
        roundtrip(
            "module m(input clk, input rst, input x, output reg [1:0] s);\nalways @(posedge clk or posedge rst) begin\nif (rst) s <= 2'd0;\nelse case (s)\n2'd0: if (x) s <= 2'd1;\n2'd1: s <= 2'd2;\ndefault: s <= 2'd0;\nendcase\nend\nendmodule",
        );
    }

    #[test]
    fn roundtrip_testbench() {
        roundtrip(
            "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [3:0] a;\nwire [3:0] y;\ninteger f;\ninv dut (.a(a), .y(y));\ninitial begin\nf = 1;\na = 4'd0;\n#10 $fdisplay(f, \"scenario: %0d, a = %0d, y = %0d\", 1, a, y);\na = a + 4'd1;\n#10 $fdisplay(f, \"scenario: %0d, a = %0d, y = %0d\", 2, a, y);\n#10;\n$finish;\nend\nendmodule",
        );
    }

    #[test]
    fn roundtrip_selects_and_concats() {
        roundtrip(
            "module m(input [7:0] a, output [7:0] y, output o);\nassign y = {a[3:0], {2{a[7]}}, a[1], a[0]};\nassign o = ^a;\nendmodule",
        );
    }

    #[test]
    fn roundtrip_instances() {
        roundtrip(
            "module inv(input a, output y);\nassign y = ~a;\nendmodule\nmodule top(input x, output z);\nwire m;\ninv u1 (.a(x), .y(m));\ninv u2 (m, z);\nendmodule",
        );
    }

    #[test]
    fn roundtrip_for_and_while() {
        roundtrip(
            "module m(input [7:0] v, output reg [3:0] n);\ninteger i;\nalways @(*) begin\nn = 4'd0;\nfor (i = 0; i < 8; i = i + 1) begin\nif (v[i]) n = n + 4'd1;\nend\nend\nendmodule",
        );
    }

    #[test]
    fn printed_output_simulates() {
        // The printed form must behave identically.
        let src = "module tb;\nreg [3:0] a;\nwire [3:0] y;\nassign y = a * 4'd3;\ninitial begin\na = 4'd5;\n#1 $display(\"%0d\", y);\n$finish;\nend\nendmodule";
        let direct = crate::sim::run_source(src, "tb").expect("direct");
        let printed = print_file(&parse(src).expect("parse"));
        let via_print = crate::sim::run_source(&printed, "tb").expect("printed");
        assert_eq!(direct.lines(), via_print.lines());
    }
}
