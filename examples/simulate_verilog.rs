//! Uses the Verilog substrate standalone: parse, elaborate and simulate a
//! small self-checking testbench and print its `$display` output — the
//! same engine every CorrectBench experiment runs on.
//!
//! ```text
//! cargo run --release --example simulate_verilog
//! ```

use correctbench_suite::verilog::run_source;

const SRC: &str = r#"
module gray_counter (
    input clk,
    input rst,
    output [3:0] g
);
    reg [3:0] b;
    always @(posedge clk) begin
        if (rst) b <= 4'd0;
        else b <= b + 4'd1;
    end
    assign g = b ^ (b >> 1);
endmodule

module tb;
    reg clk = 0;
    reg rst;
    wire [3:0] g;
    gray_counter dut (.clk(clk), .rst(rst), .g(g));
    integer i;
    always #5 clk = ~clk;
    initial begin
        rst = 1;
        #10 rst = 0;
        // `%0t` with no argument left prints the simulation time.
        for (i = 0; i < 8; i = i + 1)
            #10 $display("gray=%b t=%0t", g);
        $finish;
    end
endmodule
"#;

fn main() {
    let out = run_source(SRC, "tb").expect("simulation succeeds");
    let lines = out.lines();
    println!(
        "captured {} lines (finished: {}):",
        lines.len(),
        out.finished
    );
    for line in &lines {
        println!("  {line}");
    }
    // Successive Gray codes differ in exactly one bit.
    let codes: Vec<u32> = lines
        .iter()
        .map(|l| {
            let bits = l.strip_prefix("gray=").and_then(|r| r.split(' ').next());
            u32::from_str_radix(bits.expect("gray field"), 2).expect("binary")
        })
        .collect();
    for w in codes.windows(2) {
        assert_eq!((w[0] ^ w[1]).count_ones(), 1, "gray property violated");
    }
    println!(
        "gray single-bit-change property verified across {} steps",
        codes.len() - 1
    );
}
