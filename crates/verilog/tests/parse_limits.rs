//! Inputs `parse` answers by design rather than by grammar. Nesting past
//! `parser::MAX_DEPTH` is a `ParseError`, not a stack overflow on a job
//! thread, and the deepest nesting accepted passes through every stage a
//! job runs. Non-ASCII text in a string literal, and in an error about an
//! unexpected character, stays the text it was.

use correctbench_verilog::ast::{Item, Stmt, SysArg};
use correctbench_verilog::parser::{parse, MAX_DEPTH};
use correctbench_verilog::pretty::print_file;
use correctbench_verilog::{elaborate, fingerprint, lint_file, run_source};

/// Runs `f` on a thread with the 2 MiB stack a harness job thread has.
fn on_job_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

const SHAPES: [&str; 7] = [
    "parentheses",
    "unary chain",
    "ternary chain",
    "operator chain",
    "begin nest",
    "if nest",
    "lvalue concatenation",
];

/// A testbench whose `initial` block nests `n` levels in `shape`.
fn nest(shape: &str, n: usize) -> String {
    let body = match shape {
        "parentheses" => format!("y = {}a{};", "(".repeat(n), ")".repeat(n)),
        "unary chain" => format!("y = {}a;", "~".repeat(n)),
        "ternary chain" => format!("y = {}a;", "a ? a : ".repeat(n)),
        "operator chain" => format!("y = a{};", " + a".repeat(n)),
        "begin nest" => format!("{}y = a;{}", "begin ".repeat(n), " end".repeat(n)),
        "if nest" => format!("{}y = a;", "if (a) ".repeat(n)),
        "lvalue concatenation" => format!("{}y{} = a;", "{".repeat(n), "}".repeat(n)),
        other => panic!("no shape {other}"),
    };
    format!(
        "module tb;\nreg a;\nreg [7:0] y;\ninitial begin\na = 1'b1;\n{body}\n\
         #1 $display(\"%b\", y);\n$finish;\nend\nendmodule\n"
    )
}

fn refused_for_depth(src: String) -> bool {
    on_job_stack(move || {
        parse(&src).is_err_and(|e| e.message == format!("nesting deeper than {MAX_DEPTH} levels"))
    })
}

#[test]
fn nesting_far_past_the_bound_is_an_error_not_a_stack_overflow() {
    for shape in SHAPES {
        assert!(refused_for_depth(nest(shape, 100_000)), "{shape}");
    }
}

#[test]
fn the_deepest_nesting_accepted_runs_through_every_stage() {
    for shape in SHAPES {
        let deepest = (MAX_DEPTH - 8..=MAX_DEPTH)
            .rev()
            .find(|&n| parse(&nest(shape, n)).is_ok())
            .unwrap_or_else(|| panic!("{shape}: nothing near the bound parses"));
        assert!(refused_for_depth(nest(shape, deepest + 1)), "{shape}");
        let src = nest(shape, deepest);
        let lines = on_job_stack(move || {
            let file = parse(&src).expect("parses");
            elaborate(&file, "tb").expect("elaborates");
            lint_file(&file);
            print_file(&file);
            fingerprint(&file);
            run_source(&src, "tb").expect("simulates").lines()
        });
        assert_eq!(lines.len(), 1, "{shape}");
    }
}

#[test]
fn string_literals_keep_their_utf8_text() {
    let src = "module tb;\ninitial begin\n$display(\"café ✓ \\\"ok\\\"\\t\");\n$finish;\nend\nendmodule\n";
    let out = run_source(src, "tb").expect("simulates");
    assert_eq!(out.lines(), ["café ✓ \"ok\"\t"]);

    let file = parse(src).expect("parses");
    let Item::Initial(Stmt::Block(stmts)) = &file.modules[0].items[0] else {
        panic!("not an initial block");
    };
    let Stmt::SysCall { args, .. } = &stmts[0] else {
        panic!("not a system task");
    };
    assert_eq!(args[0], SysArg::Str("café ✓ \"ok\"\t".into()));
    let printed = print_file(&file);
    let reparsed = parse(&printed).expect("printed text parses");
    assert_eq!(reparsed, file);
    assert_eq!(print_file(&reparsed), printed);
}

#[test]
fn an_unexpected_character_is_named_as_written() {
    let err = parse("module m(output y);\nassign y = é;\nendmodule\n").expect_err("refused");
    assert_eq!(err.message, "unexpected character 'é'");
    assert_eq!((err.span.line, err.span.col), (2, 12));
}
