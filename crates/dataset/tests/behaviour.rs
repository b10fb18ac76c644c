//! Hand-computed behaviour checks of golden RTL for a representative
//! slice of the dataset: the specs promise concrete behaviour and these
//! vectors pin the golden designs to it (spec/RTL drift would silently
//! corrupt every downstream experiment).

use correctbench_verilog::run_source;

/// Runs a combinational DUT once per input vector and returns the printed
/// outputs.
fn run_cmb(problem: &str, drives: &[(&str, u64)], outputs: &[&str]) -> Vec<String> {
    let p = correctbench_dataset::problem(problem).expect("problem");
    let mut tb = String::from("module tb;\n");
    for port in &p.ports {
        let range = if port.width == 1 {
            String::new()
        } else {
            format!("[{}:0] ", port.width - 1)
        };
        match port.dir {
            correctbench_dataset::PortDir::Input => {
                tb.push_str(&format!("reg {range}{};\n", port.name))
            }
            correctbench_dataset::PortDir::Output => {
                tb.push_str(&format!("wire {range}{};\n", port.name))
            }
        }
    }
    let conns: Vec<String> = p
        .ports
        .iter()
        .map(|q| format!(".{}({})", q.name, q.name))
        .collect();
    tb.push_str(&format!("{} dut({});\n", p.name, conns.join(", ")));
    tb.push_str("initial begin\n");
    for (name, value) in drives {
        tb.push_str(&format!("{name} = {value};\n"));
    }
    let fmt: Vec<String> = outputs.iter().map(|o| format!("{o}=%0d")).collect();
    let args = outputs.join(", ");
    tb.push_str(&format!("#1 $display(\"{}\", {args});\n", fmt.join(" ")));
    tb.push_str("$finish;\nend\nendmodule\n");
    let full = format!("{}\n{}", p.golden_rtl, tb);
    run_source(&full, "tb").expect("simulate").lines()
}

#[test]
fn adder_carry_out() {
    assert_eq!(
        run_cmb("adder_8", &[("a", 200), ("b", 100)], &["sum", "cout"]),
        vec!["sum=44 cout=1"]
    );
    assert_eq!(
        run_cmb("adder_8", &[("a", 1), ("b", 2)], &["sum", "cout"]),
        vec!["sum=3 cout=0"]
    );
}

#[test]
fn mux6_out_of_range_sel() {
    assert_eq!(
        run_cmb(
            "mux6_4",
            &[
                ("sel", 7),
                ("data0", 1),
                ("data1", 2),
                ("data2", 3),
                ("data3", 4),
                ("data4", 5),
                ("data5", 6)
            ],
            &["out"]
        ),
        vec!["out=0"]
    );
    assert_eq!(
        run_cmb(
            "mux6_4",
            &[
                ("sel", 4),
                ("data0", 1),
                ("data1", 2),
                ("data2", 3),
                ("data3", 4),
                ("data4", 5),
                ("data5", 6)
            ],
            &["out"]
        ),
        vec!["out=5"]
    );
}

#[test]
fn abs_most_negative() {
    assert_eq!(run_cmb("abs_8", &[("a", 0x80)], &["y"]), vec!["y=128"]);
    assert_eq!(run_cmb("abs_8", &[("a", 0xff)], &["y"]), vec!["y=1"]);
    assert_eq!(run_cmb("abs_8", &[("a", 5)], &["y"]), vec!["y=5"]);
}

#[test]
fn clz_edge_cases() {
    assert_eq!(run_cmb("clz_8", &[("d", 0)], &["n"]), vec!["n=8"]);
    assert_eq!(run_cmb("clz_8", &[("d", 0x80)], &["n"]), vec!["n=0"]);
    assert_eq!(run_cmb("clz_8", &[("d", 0x01)], &["n"]), vec!["n=7"]);
    assert_eq!(run_cmb("clz_8", &[("d", 0x1f)], &["n"]), vec!["n=3"]);
}

#[test]
fn popcount_values() {
    assert_eq!(run_cmb("popcount_8", &[("d", 0xff)], &["n"]), vec!["n=8"]);
    assert_eq!(
        run_cmb("popcount_16", &[("d", 0xa5a5)], &["n"]),
        vec!["n=8"]
    );
}

#[test]
fn priority_encoder_highest_wins() {
    assert_eq!(
        run_cmb("priority_enc_8", &[("d", 0b1001_0010)], &["y", "valid"]),
        vec!["y=7 valid=1"]
    );
    assert_eq!(
        run_cmb("priority_enc_8", &[("d", 0)], &["y", "valid"]),
        vec!["y=0 valid=0"]
    );
}

#[test]
fn gray_code_roundtrip_values() {
    assert_eq!(run_cmb("gray_encode_8", &[("b", 5)], &["g"]), vec!["g=7"]);
    assert_eq!(run_cmb("gray_decode_8", &[("g", 7)], &["b"]), vec!["b=5"]);
    assert_eq!(
        run_cmb("gray_decode_8", &[("g", 0xff)], &["b"]),
        vec!["b=170"]
    );
}

#[test]
fn sat_add_clamps() {
    assert_eq!(
        run_cmb("sat_add_8", &[("a", 250), ("b", 10)], &["y"]),
        vec!["y=255"]
    );
    assert_eq!(
        run_cmb("sat_add_8", &[("a", 250), ("b", 5)], &["y"]),
        vec!["y=255"]
    );
    assert_eq!(
        run_cmb("sat_add_8", &[("a", 250), ("b", 4)], &["y"]),
        vec!["y=254"]
    );
}

#[test]
fn rotate_wraps() {
    assert_eq!(
        run_cmb("rotl_8", &[("d", 0x81), ("n", 1)], &["y"]),
        vec!["y=3"]
    );
    assert_eq!(
        run_cmb("rotr_8", &[("d", 0x81), ("n", 1)], &["y"]),
        vec!["y=192"]
    );
}

#[test]
fn asr_sign_fills() {
    assert_eq!(
        run_cmb("asr_8", &[("d", 0x80), ("n", 7)], &["y"]),
        vec!["y=255"]
    );
    assert_eq!(
        run_cmb("asr_8", &[("d", 0x40), ("n", 3)], &["y"]),
        vec!["y=8"]
    );
}

/// Drives a sequential DUT with per-cycle values and samples outputs at
/// the end of each cycle.
fn run_seq(problem: &str, cycles: &[&[(&str, u64)]], outputs: &[&str]) -> Vec<String> {
    let p = correctbench_dataset::problem(problem).expect("problem");
    let mut tb = String::from("module tb;\nreg clk;\n");
    for port in &p.ports {
        if port.name == "clk" {
            continue;
        }
        let range = if port.width == 1 {
            String::new()
        } else {
            format!("[{}:0] ", port.width - 1)
        };
        match port.dir {
            correctbench_dataset::PortDir::Input => {
                tb.push_str(&format!("reg {range}{};\n", port.name))
            }
            correctbench_dataset::PortDir::Output => {
                tb.push_str(&format!("wire {range}{};\n", port.name))
            }
        }
    }
    let conns: Vec<String> = p
        .ports
        .iter()
        .map(|q| format!(".{}({})", q.name, q.name))
        .collect();
    tb.push_str(&format!("{} dut({});\n", p.name, conns.join(", ")));
    tb.push_str("initial clk = 0;\nalways #5 clk = ~clk;\ninitial begin\n");
    let fmt: Vec<String> = outputs.iter().map(|o| format!("{o}=%0d")).collect();
    let args = outputs.join(", ");
    for cycle in cycles {
        for (name, value) in *cycle {
            tb.push_str(&format!("{name} = {value};\n"));
        }
        tb.push_str(&format!("#10 $display(\"{}\", {args});\n", fmt.join(" ")));
    }
    tb.push_str("$finish;\nend\nendmodule\n");
    let full = format!("{}\n{}", p.golden_rtl, tb);
    run_source(&full, "tb").expect("simulate").lines()
}

#[test]
fn counter_mod10_wraps_at_nine() {
    let mut cycles: Vec<&[(&str, u64)]> = vec![&[("rst", 1)]];
    for _ in 0..10 {
        cycles.push(&[("rst", 0)]);
    }
    let out = run_seq("counter_mod10", &cycles, &["q"]);
    let values: Vec<&str> = out
        .iter()
        .map(|l| l.strip_prefix("q=").expect("q"))
        .collect();
    assert_eq!(
        values,
        vec!["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "0"]
    );
}

#[test]
fn shift18_matches_paper_demo() {
    // Load 0x8000000000000000 then arithmetic shift right by 8: the sign
    // bit replicates (the paper's Fig. 5 bug is about exactly this).
    let out = run_seq(
        "shift18",
        &[
            &[
                ("load", 1),
                ("ena", 0),
                ("amount", 0),
                ("data", 0x8000_0000_0000_0000),
            ],
            &[("load", 0), ("ena", 1), ("amount", 3)],
        ],
        &["q"],
    );
    assert_eq!(
        out.last().expect("last"),
        &format!("q={}", 0xff80_0000_0000_0000u64)
    );
}

#[test]
fn lfsr_5_cycles_through_31_states() {
    let mut cycles: Vec<&[(&str, u64)]> = vec![&[("rst", 1)]];
    for _ in 0..32 {
        cycles.push(&[("rst", 0)]);
    }
    let out = run_seq("lfsr_5", &cycles, &["q"]);
    let mut seen = std::collections::HashSet::new();
    for line in &out[1..32] {
        let v: u64 = line.strip_prefix("q=").expect("q").parse().expect("num");
        assert_ne!(v, 0, "lfsr must never reach zero");
        seen.insert(v);
    }
    assert_eq!(seen.len(), 31, "maximal-length 5-bit LFSR visits 31 states");
    assert_eq!(out[1], out[32].clone(), "period 31 returns to the start");
}

#[test]
fn seq_det_101_overlapping() {
    // Stream 1 0 1 0 1 -> matches at cycles 3 and 5 (overlap allowed).
    let out = run_seq(
        "seq_det_101",
        &[
            &[("rst", 1), ("din", 0)],
            &[("rst", 0), ("din", 1)],
            &[("din", 0)],
            &[("din", 1)],
            &[("din", 0)],
            &[("din", 1)],
        ],
        &["y"],
    );
    let ys: Vec<&str> = out
        .iter()
        .map(|l| l.strip_prefix("y=").expect("y"))
        .collect();
    assert_eq!(ys, vec!["0", "0", "0", "1", "0", "1"]);
}

#[test]
fn vending_machine_dispenses_at_15() {
    let out = run_seq(
        "vending_15",
        &[
            &[("rst", 1), ("nickel", 0), ("dime", 0)],
            &[("rst", 0), ("nickel", 1), ("dime", 0)], // 5
            &[("nickel", 1), ("dime", 0)],             // 10
            &[("nickel", 1), ("dime", 0)],             // 15 -> dispense
            &[("nickel", 0), ("dime", 0)],
        ],
        &["dispense"],
    );
    let d: Vec<&str> = out
        .iter()
        .map(|l| l.strip_prefix("dispense=").expect("d"))
        .collect();
    assert_eq!(d, vec!["0", "0", "0", "1", "0"]);
}

#[test]
fn edge_capture_accumulates_falls() {
    let out = run_seq(
        "edge_capture_4",
        &[
            &[("rst", 1), ("din", 0b1111)],
            &[("rst", 0), ("din", 0b1101)], // bit1 falls
            &[("din", 0b0101)],             // bit3 falls
            &[("din", 0b0101)],
        ],
        &["q"],
    );
    let q: Vec<&str> = out
        .iter()
        .map(|l| l.strip_prefix("q=").expect("q"))
        .collect();
    assert_eq!(q, vec!["0", "2", "10", "10"]);
}

#[test]
fn arbiter_alternates_on_contention() {
    let out = run_seq(
        "arbiter_2",
        &[
            &[("rst", 1), ("req", 0)],
            &[("rst", 0), ("req", 3)],
            &[("req", 3)],
            &[("req", 3)],
            &[("req", 1)],
            &[("req", 0)],
        ],
        &["grant"],
    );
    let g: Vec<&str> = out
        .iter()
        .map(|l| l.strip_prefix("grant=").expect("g"))
        .collect();
    assert_eq!(g, vec!["0", "2", "1", "2", "1", "0"]);
}

#[test]
fn debounce_needs_three_stable_samples() {
    let out = run_seq(
        "debounce_3",
        &[
            &[("rst", 1), ("din", 0)],
            &[("rst", 0), ("din", 1)], // cnt 1
            &[("din", 1)],             // cnt 2
            &[("din", 1)],             // flips q
            &[("din", 1)],
        ],
        &["q"],
    );
    let q: Vec<&str> = out
        .iter()
        .map(|l| l.strip_prefix("q=").expect("q"))
        .collect();
    assert_eq!(q, vec!["0", "0", "0", "1", "1"]);
}
