//! Hybrid testbench construction and execution.
//!
//! AutoBench testbenches are *hybrid*: a Verilog driver applies scenario
//! stimuli to the DUT and logs records, and a separate checker computes
//! reference outputs. This crate provides the canonical scenario
//! generator, the driver code generator, record parsing, and the
//! [`EvalSession`] that runs a testbench and produces per-scenario
//! verdicts, with [`reference_run`] as its executable reference. What a
//! run reads beyond its inputs — the reuse layers and the job's
//! per-simulation instruction budget — arrives explicitly in an
//! [`EvalContext`].
//!
//! # Examples
//!
//! Run the golden testbench of one dataset problem end to end:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use correctbench_tbgen::{generate_driver, generate_scenarios, EvalContext, EvalSession};
//!
//! let problem = correctbench_dataset::problem("adder_8").expect("known problem");
//! let scenarios = generate_scenarios(&problem, 42);
//! let driver = correctbench_verilog::parse(&generate_driver(&problem, &scenarios))?;
//! let checker = correctbench_checker::compile_module(&problem.golden_module())?;
//! let dut = correctbench_verilog::parse(&problem.golden_rtl)?;
//! let mut session = EvalSession::new(&problem, &checker, &EvalContext::default())?;
//! let run = session.run(&dut, &driver, &scenarios)?;
//! assert!(run.all_pass());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod abort;
pub mod cache;
mod context;
pub mod coverage;
pub mod driver;
pub mod golden;
pub mod memo;
pub mod record;
pub mod runner;
pub mod scenarios;
pub mod session;

pub use abort::{abort_job, AbortKind, JobAbort};
pub use cache::{CacheKey, SimCache};
pub use context::{EvalContext, StackStats};
pub use coverage::{CoverageReport, SignalCoverage};
pub use driver::{generate_driver, record_format, Driver, TB_MODULE};
pub use golden::{GoldenArtifacts, GoldenCache, GoldenKey};
pub use memo::CacheStats;
pub use record::{parse_record, parse_records, FieldValue, Record, RecordBinding};
pub use runner::{
    elaborate_pair, judge_records, limits_for, reference_run, ScenarioResult, TbError, TbRun,
};
pub use scenarios::{generate_scenarios, Scenario, ScenarioSet, Stimulus};
pub use session::EvalSession;
