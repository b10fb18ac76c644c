//! Regression battery for event-simulation semantics: scheduling regions,
//! non-blocking assignment, sensitivity, selects, and timing corners that
//! generated testbenches rely on.

use correctbench_verilog::run_source;

fn lines(src: &str) -> Vec<String> {
    run_source(src, "tb").expect("simulation ok").lines()
}

#[test]
fn nba_reads_old_values_in_same_edge() {
    // Classic pipeline: both registers update from pre-edge values.
    let out = lines(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [3:0] a, b;\nalways @(posedge clk) begin a <= 4'd1; b <= a; end\ninitial begin\na = 4'd9;\n#6;\n$display(\"a=%0d b=%0d\", a, b);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["a=1 b=9"]);
}

#[test]
fn blocking_then_nba_interleave() {
    // Blocking temp inside a clocked block is visible to later NBAs.
    let out = lines(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg [3:0] t, q;\nalways @(posedge clk) begin\nt = 4'd3;\nq <= t + 4'd1;\nend\ninitial begin\n#6 $display(\"q=%0d\", q);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["q=4"]);
}

#[test]
fn two_always_blocks_nba_swap() {
    // Cross-coupled NBAs in separate blocks still swap atomically.
    let out = lines(
        "module tb;\nreg clk = 0;\nreg [3:0] x, y;\nalways @(posedge clk) x <= y;\nalways @(posedge clk) y <= x;\ninitial begin\nx = 4'd5; y = 4'd7;\n#1 clk = 1;\n#1 $display(\"x=%0d y=%0d\", x, y);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["x=7 y=5"]);
}

#[test]
fn comb_chain_settles_in_one_timestep() {
    let out = lines(
        "module tb;\nreg [7:0] a;\nwire [7:0] b, c, d;\nassign b = a + 8'd1;\nassign c = b * 8'd2;\nassign d = c - 8'd3;\ninitial begin\na = 8'd10;\n#1 $display(\"%0d\", d);\na = 8'd0;\n#1 $display(\"%0d\", d);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["19", "255"]); // (0+1)*2-3 wraps to 255
}

#[test]
fn dynamic_bit_write_and_read() {
    let out = lines(
        "module tb;\nreg [7:0] v;\nreg [2:0] i;\ninitial begin\nv = 8'd0;\nfor (i = 0; i < 3'd7; i = i + 3'd1) begin\nv[i] = i[0];\nend\n$display(\"%b\", v);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["00101010"]);
}

#[test]
fn indexed_part_select_rw() {
    let out = lines(
        "module tb;\nreg [15:0] v;\nreg [1:0] k;\ninitial begin\nv = 16'h0000;\nk = 2'd2;\nv[k * 4 +: 4] = 4'hf;\n#1 $display(\"%h %h\", v, v[4 +: 8]);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["0f00 f0"]);
}

#[test]
fn signed_arithmetic_in_expressions() {
    let out = lines(
        "module tb;\nreg signed [7:0] a;\nreg signed [7:0] b;\nwire signed [7:0] q;\nwire [7:0] u;\nassign q = a / b;\nassign u = q;\ninitial begin\na = -8'd7; b = 8'd2;\n#1 $display(\"%0d\", u);\n$finish;\nend\nendmodule",
    );
    // -7/2 = -3 -> 0xFD = 253 read through the unsigned `u`.
    assert_eq!(out, vec!["253"]);
}

#[test]
fn concat_in_port_connection() {
    let out = lines(
        "module take(input [7:0] x, output [7:0] y);\nassign y = x;\nendmodule\nmodule tb;\nreg [3:0] hi, lo;\nwire [7:0] y;\ntake u(.x({hi, lo}), .y(y));\ninitial begin\nhi = 4'ha; lo = 4'h5;\n#1 $display(\"%h\", y);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["a5"]);
}

#[test]
fn output_to_concat_lvalue() {
    let out = lines(
        "module split(input [7:0] x, output [7:0] y);\nassign y = x;\nendmodule\nmodule tb;\nreg [7:0] v;\nwire [3:0] hi, lo;\nsplit u(.x(v), .y({hi, lo}));\ninitial begin\nv = 8'h3c;\n#1 $display(\"%h %h\", hi, lo);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["3 c"]);
}

#[test]
fn x_propagates_through_uninitialised_reg() {
    let out = lines(
        "module tb;\nreg [3:0] q;\nwire [3:0] y;\nassign y = q + 4'd1;\ninitial begin\n#1 $display(\"%0d\", y);\nq = 4'd1;\n#1 $display(\"%0d\", y);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["x", "2"]);
}

#[test]
fn display_without_format_string() {
    let out = lines(
        "module tb;\nreg [3:0] a;\ninitial begin\na = 4'd9;\n#1 $display(a);\n$finish;\nend\nendmodule",
    );
    assert_eq!(out, vec!["9"]);
}

#[test]
fn finish_stops_clock_immediately() {
    let out = run_source(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\ninitial #12 $finish;\nendmodule",
        "tb",
    )
    .expect("run");
    assert!(out.finished);
    assert_eq!(out.end_time, 12);
}

#[test]
fn sequential_reset_released_mid_stream() {
    let out = lines(
        "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\nreg rst;\nreg [3:0] q;\nalways @(posedge clk) begin\nif (rst) q <= 4'd0; else q <= q + 4'd1;\nend\ninitial begin\nrst = 1;\n#12 rst = 0;\n#20 rst = 1;\n#10 rst = 0;\n#18 $display(\"q=%0d\", q);\n$finish;\nend\nendmodule",
    );
    // Edges: 5(r),15,25,35(r),45,55 -> after reset at 35, counts at 45,55 -> q=2.
    assert_eq!(out, vec!["q=2"]);
}
