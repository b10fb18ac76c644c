//! One digest pins what `parse` answers for every source the pipeline
//! can hand it: the fingerprint of each parse, or the `line:col message`
//! of each error. A rewrite of the lexer or the parser must reproduce it
//! exactly, positions and messages included.
//!
//! The sources are the 156 golden RTLs, the generated drivers at two
//! scenario seeds, printed mutants of each golden at two seeds, three
//! seeded corruptions of each of those (some corrupted twice), and a
//! fixed list of lexer edge cases. Every source is ASCII and nests
//! shallowly.

use correctbench_suite::dataset::all_problems;
use correctbench_suite::tbgen::{generate_driver, generate_scenarios};
use correctbench_suite::verilog::corrupt::corrupt_source;
use correctbench_suite::verilog::mutate::mutate_module;
use correctbench_suite::verilog::pretty::print_file;
use correctbench_suite::verilog::{fingerprint, fnv1a64, parse};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sources that reach the lexer's corners: literal forms and their
/// errors, strings, escaped identifiers, directives, unterminated
/// trivia, every binary operator in one unparenthesized chain, and a
/// token the parser refuses.
fn edge_cases() -> Vec<String> {
    let assign = |rhs: &str| {
        format!("module m(input a, b, output [127:0] y);\nassign y = {rhs};\nendmodule\n")
    };
    let mut sources: Vec<String> = [
        "8'bx1z? ^ 'hx ^ 'sb1z ^ 4'sd5 ^ 12'o7x? ^ 8'hz ^ 4'B1X0Z ^ 8'sHfF ^ 100'hx ^ 70'b1",
        "8'hFFF ^ 'h123456789 ^ 3'b1111 ^ 'o7 ^ 'b0 ^ 7'bz1 ^ 5'sd31 ^ 'd7",
        "8 'hA5 + 5 /* size */ 'd 3 + 8'd 255 + 8'h?",
        "16'b1010_1010_1111_0000 + 1_000 + 8'h_f_f",
        "340282366920938463463374607431768211455",
        "1234567890123456789012345678901234567890",
        "4'q1",
        "0'b1",
        "4'b2",
        "8'hG",
        "8'o9",
        "'dx",
        "8'h_",
        "99999999999999999999'b1",
        "2000000'b1",
        "a \u{7} b",
        "\\ ",
        "a || b && a | b ^ a ~^ b & a == b != a < b <= a > b >= a << b >> a >>> b + a - b * a / b % a ^~ b",
        "a ~& b",
        "a 8'hA5",
        "a 12345678901234567890123",
        "a \"s\\tr\\n\"",
        "a $display",
        "a \\esc ",
        "a begin",
    ]
    .iter()
    .map(|rhs| assign(rhs))
    .collect();
    sources.extend(
        [
            "module tb;\nreg [3:0] x;\ninitial begin\nx = 4'd9;\n$display(\"a\\tb\\\\c\\\"d\\q\\n%0d\", x);\n$finish;\nend\nendmodule\n",
            "module m(input \\a$b+c , output y);\nassign y = ~\\a$b+c ;\nendmodule\n",
            "`timescale 1ns/1ps\nmodule m(input a, output y);\r\n\tassign y = a; // trailing\r\nendmodule\n",
            "module m(input a, output y);\nassign y = a;\n/* never closed\nendmodule\n",
            "module tb;\ninitial $display(\"never closed);\nendmodule\n",
            "module m(output [7:0] y);\nassign y = 8'",
            "module m(input a, output y);\nassign y = ",
            "",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    sources
}

fn entry(src: &str) -> String {
    match parse(src) {
        Ok(file) => format!("ok {}", fingerprint(&file)),
        Err(e) => format!("{}:{} {}", e.span.line, e.span.col, e.message),
    }
}

#[test]
fn parse_answers_are_pinned() {
    let problems = all_problems();
    assert_eq!(problems.len(), 156);
    let mut sources: Vec<String> = Vec::new();
    for p in &problems {
        sources.push(p.golden_rtl.clone());
        for seed in [1, 2] {
            sources.push(generate_driver(p, &generate_scenarios(p, seed)));
        }
        let golden = parse(&p.golden_rtl).expect("golden parses");
        for seed in [3, 4] {
            let mut mutant = golden.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            mutate_module(mutant.module_mut(&p.name).expect("module"), &mut rng, 2);
            sources.push(print_file(&mutant));
        }
    }
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let mut corrupted = Vec::new();
    for (i, src) in sources.iter().enumerate() {
        for k in 0..3 {
            let once = corrupt_source(src, &mut rng);
            corrupted.push(if (i + k) % 4 == 0 {
                corrupt_source(&once, &mut rng)
            } else {
                once
            });
        }
    }
    sources.extend(corrupted);
    sources.extend(edge_cases());

    let entries: Vec<String> = sources.iter().map(|s| entry(s)).collect();
    let errors = entries.iter().filter(|e| !e.starts_with("ok ")).count();
    let digest = fnv1a64(entries.join("\n").as_bytes());
    assert_eq!((sources.len(), errors), (3153, 2139), "sources and errors");
    assert_eq!(format!("{digest:016x}"), "4c2e6435b1fbefdf", "parse digest");
}
