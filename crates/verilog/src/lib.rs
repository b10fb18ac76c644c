//! A Verilog-subset front end and event-driven four-state simulator.
//!
//! This crate is the simulation substrate of the CorrectBench
//! reproduction: it plays the role Icarus Verilog plays in the paper.
//! It provides:
//!
//! * [`logic`] — four-state values ([`logic::LogicVec`], inline for
//!   widths ≤ 64, with in-place mutating ops);
//! * [`lexer`] / [`parser`] / [`ast`] — the front end;
//! * [`elaborate`](mod@elaborate) — hierarchy flattening into a [`Design`], with each
//!   process's zero-time loops marked for the runaway detector, and the
//!   testbench template ([`TbTemplate`]) that elaborates a testbench once
//!   and links each DUT into it;
//! * [`sim`] — the event-driven simulator, which walks the elaborated
//!   design directly, with `$display` capture (record displays as values,
//!   other displays as text) and runaway-loop detection;
//! * [`pretty`] — AST → source rendering (artifacts round-trip as text);
//! * [`mutate`] — semantic mutation (Eval2 mutants, validator RTL groups,
//!   simulated-LLM defect injection);
//! * [`corrupt`] — source-level syntax corruption (Eval0 failures);
//! * [`dataflow`] / [`lint`] — per-module driver/reader dataflow tables
//!   and the deterministic static-analysis pass built on them.
//!
//! # Examples
//!
//! Simulate a small testbench and read back its `$display` output:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use correctbench_verilog::run_source;
//!
//! let out = run_source(
//!     "module tb;
//!        reg [7:0] x;
//!        initial begin
//!          x = 8'd41;
//!          #1 $display(\"%0d\", x + 8'd1);
//!          $finish;
//!        end
//!      endmodule",
//!     "tb",
//! )?;
//! assert_eq!(out.lines(), vec!["42".to_string()]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod corrupt;
pub mod dataflow;
pub mod design;
pub mod elaborate;
pub mod error;
pub mod hash;
pub mod lexer;
pub mod lint;
pub mod logic;
pub mod mutate;
pub mod parser;
pub mod pretty;
pub mod sim;
pub mod sysfmt;

pub use design::{Design, RecordFormat, SignalId};
pub use elaborate::{elaborate, elaborate_files, TbTemplate};
pub use error::{ElabError, ParseError, SimError, VerilogError};
pub use hash::{fingerprint, fnv1a64, structural_hash, Fingerprint};
pub use lint::{lint_file, lint_files, Diagnostic, LintReport, Rule, Severity};
pub use logic::{Bit, LogicVec};
pub use parser::parse;
pub use sim::{run_source, Printed, SimLimits, SimOutput, Simulator};
