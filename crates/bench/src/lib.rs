//! Benchmark harness: experiment engine and helpers used by the
//! table/figure regeneration binaries (`table1`, `table3`, `fig4`,
//! `fig6a`, `fig6b`, `fig7`, `ablate_nr`, `ablate_iters`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiment;
pub mod valacc;

pub use correctbench_harness::cli::RunArgs;
