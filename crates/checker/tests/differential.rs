//! Differential property test: random combinational modules produce
//! identical outputs through the event simulator and the checker-IR
//! interpreter. This is the semantic contract the whole reproduction
//! rests on (checker = independent reference model of the same RTL).

use correctbench_checker::{compile_module, step, CheckerState, JudgeSession};
use correctbench_verilog::logic::LogicVec;
use proptest::prelude::*;
use std::collections::HashMap;

/// A small expression AST we render to Verilog text.
#[derive(Clone, Debug)]
enum E {
    Var(usize),
    Lit(u8),
    Un(&'static str, Box<E>),
    Bin(&'static str, Box<E>, Box<E>),
    Tern(Box<E>, Box<E>, Box<E>),
}

fn render(e: &E) -> String {
    match e {
        E::Var(i) => format!("i{i}"),
        E::Lit(v) => format!("8'd{v}"),
        E::Un(op, a) => format!("({op}{})", render(a)),
        E::Bin(op, a, b) => format!("({} {op} {})", render(a), render(b)),
        E::Tern(c, t, f) => format!("(({}) ? {} : {})", render(c), render(t), render(f)),
    }
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![(0usize..3).prop_map(E::Var), any::<u8>().prop_map(E::Lit),];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just("~"),
                    Just("-"),
                    Just("!"),
                    Just("&"),
                    Just("|"),
                    Just("^")
                ],
                inner.clone()
            )
                .prop_map(|(op, a)| E::Un(op, Box::new(a))),
            (
                prop_oneof![
                    Just("+"),
                    Just("-"),
                    Just("*"),
                    Just("&"),
                    Just("|"),
                    Just("^"),
                    Just("<<"),
                    Just(">>"),
                    Just("<"),
                    Just(">"),
                    Just("=="),
                    Just("!="),
                    Just("&&"),
                    Just("||"),
                    Just(">="),
                    Just("<=")
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| E::Bin(op, Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, f)| E::Tern(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
        ]
    })
}

fn module_source(e: &E) -> String {
    format!(
        "module m (\n    input [7:0] i0,\n    input [7:0] i1,\n    input [7:0] i2,\n    output [7:0] y\n);\n    assign y = {};\nendmodule\n",
        render(e)
    )
}

fn driver_source(inputs: &[(u8, u8, u8)]) -> String {
    let mut s = String::from(
        "module tb;\n reg [7:0] i0, i1, i2;\n wire [7:0] y;\n m dut(.i0(i0), .i1(i1), .i2(i2), .y(y));\n initial begin\n",
    );
    for (a, b, c) in inputs {
        s.push_str(&format!(" i0 = 8'd{a}; i1 = 8'd{b}; i2 = 8'd{c};\n"));
        s.push_str(" #10 $display(\"y=%0d\", y);\n");
    }
    s.push_str(" $finish;\n end\nendmodule\n");
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn simulator_and_checker_agree(e in expr_strategy(), inputs in proptest::collection::vec(any::<(u8, u8, u8)>(), 1..5)) {
        let src = module_source(&e);
        let file = correctbench_verilog::parse(&src).expect("generated module parses");
        // Simulate through the event simulator.
        let full = format!("{}\n{}", src, driver_source(&inputs));
        let sim = correctbench_verilog::run_source(&full, "tb").expect("simulates").lines();
        // Interpret through the checker IR.
        let checker = compile_module(&file.modules[0]).expect("compiles");
        let mut state = CheckerState::new(&checker);
        for (k, (a, b, c)) in inputs.iter().enumerate() {
            let mut in_map = HashMap::new();
            in_map.insert("i0".to_string(), LogicVec::from_u64(8, *a as u64));
            in_map.insert("i1".to_string(), LogicVec::from_u64(8, *b as u64));
            in_map.insert("i2".to_string(), LogicVec::from_u64(8, *c as u64));
            let out = step(&checker, &mut state, &in_map).expect("steps");
            let expect = out["y"].to_decimal_string();
            let got = sim[k].strip_prefix("y=").expect("record");
            prop_assert_eq!(
                got, expect.as_str(),
                "divergence at step {} of {} for {}", k, src, render(&e)
            );
        }
    }
}

/// A dynamic part write at or past the target's width writes nothing
/// there: the simulator drops those bits, and so must both checker
/// executors — also when the index plus the part width overflows.
#[test]
fn out_of_range_dynamic_part_writes_match_the_simulator() {
    let module = "module m (\n    input [63:0] i,\n    output reg [7:0] y\n);\n    always @(*) begin\n        y = 8'd0;\n        y[i +: 2] = 2'b11;\n    end\nendmodule\n";
    // Far out of range (the index plus one overflows 64 bits), partly in
    // range (only bit 7 is written), and in range.
    let indices = [u64::MAX, 7, 3];
    let mut driver = String::from(
        "module tb;\n reg [63:0] i;\n wire [7:0] y;\n m dut(.i(i), .y(y));\n initial begin\n",
    );
    for i in indices {
        driver.push_str(&format!(" i = 64'd{i};\n #10 $display(\"y=%0d\", y);\n"));
    }
    driver.push_str(" $finish;\n end\nendmodule\n");
    let sim = correctbench_verilog::run_source(&format!("{module}\n{driver}"), "tb")
        .expect("simulates")
        .lines();
    assert_eq!(sim, ["y=0", "y=128", "y=24"]);

    let file = correctbench_verilog::parse(module).expect("module parses");
    let checker = compile_module(&file.modules[0]).expect("compiles");
    let mut state = CheckerState::new(&checker);
    let mut session = JudgeSession::new(&checker).expect("session builds");
    for (k, i) in indices.into_iter().enumerate() {
        let value = LogicVec::from_u64(64, i);
        let inputs = HashMap::from([("i".to_string(), value.clone())]);
        let interpreted =
            step(&checker, &mut state, &inputs).expect("steps")["y"].to_decimal_string();
        session.step(&[value]).expect("session steps");
        let judged = session.output(0).to_decimal_string();
        let want = sim[k].strip_prefix("y=").expect("record");
        assert_eq!(
            (interpreted.as_str(), judged.as_str()),
            (want, want),
            "i = {i}"
        );
    }
}
