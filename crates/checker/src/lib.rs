//! Checker IR: the reference-model track of the hybrid testbench.
//!
//! In the paper, AutoBench's testbench is "hybrid": a Verilog driver that
//! stimulates the DUT, plus a *Python checker* that independently computes
//! the reference outputs and judges the DUT's responses. This crate is that
//! second artifact in the reproduction:
//!
//! * [`ir`] — a word-level dataflow program ([`ir::CheckerProgram`]);
//! * [`compile`] — Verilog AST → IR (how golden checkers are derived);
//! * [`eval`] — the cycle-stepping interpreter producing reference outputs
//!   (the semantic reference), and the one evaluation of every operation;
//! * [`exec`] — the judging executor ([`exec::JudgeSession`]): the same
//!   operations stepped over a preallocated slot file with positional
//!   inputs, the judging hot path;
//! * [`mutate`] — revertible IR mutation, the model of LLM checker bugs.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use correctbench_checker::{compile_module, CheckerState, step};
//! use correctbench_verilog::{parse, LogicVec};
//! use std::collections::HashMap;
//!
//! let file = parse(
//!     "module inc(input [3:0] a, output [3:0] y);
//!        assign y = a + 4'd1;
//!      endmodule")?;
//! let checker = compile_module(&file.modules[0])?;
//! let mut state = CheckerState::new(&checker);
//! let mut inputs = HashMap::new();
//! inputs.insert("a".to_string(), LogicVec::from_u64(4, 6));
//! let outputs = step(&checker, &mut state, &inputs)?;
//! assert_eq!(outputs["y"].to_u64(), Some(7));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compile;
pub mod eval;
pub mod exec;
pub mod ir;
pub mod mutate;

pub use compile::{compile_module, CompileError};
pub use eval::{step, CheckerRunError, CheckerState};
pub use exec::JudgeSession;
pub use ir::{CheckerProgram, NodeId};
pub use mutate::{mutate_ir, mutate_ir_once, IrMutation};
