//! CorrectBench: automatic testbench generation with functional
//! self-validation and self-correction — a from-scratch Rust
//! reproduction of the DATE 2025 paper.
//!
//! The pipeline takes only a natural-language spec
//! ([`correctbench_dataset::Problem::spec`]) and produces a hybrid
//! testbench ([`HybridTb`]): a Verilog driver plus a checker reference
//! model. The novelty over plain generation is the loop in
//! [`pipeline::run_correctbench`]:
//!
//! * the **validator** simulates a group of independently-generated
//!   "imperfect" RTL designs under the candidate testbench and judges
//!   the per-scenario columns of the resulting RS matrix;
//! * the **corrector** feeds the validator's per-scenario bug report
//!   back to the LLM in a two-stage why/where/how conversation;
//! * the **action agent** chooses Correcting / Rebooting / Pass with
//!   the paper's budgets (I_C^max = 3, I_R^max = 10).
//!
//! # Examples
//!
//! ```
//! use correctbench::{Config, EvalContext, run_correctbench};
//! use correctbench_llm::{ModelKind, ModelProfile, SimulatedLlm};
//! use rand::SeedableRng;
//!
//! let problem = correctbench_dataset::problem("and_8").expect("known problem");
//! let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 7);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let ctx = EvalContext::default();
//! let outcome = run_correctbench(&problem, &mut llm, &Config::default(), &mut rng, &ctx);
//! assert!(outcome.tb.scenarios.len() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod corrector;
pub mod generator;
pub mod pipeline;
pub mod validator;

pub use config::{Config, ValidationCriterion};
pub use correctbench_llm::HybridTb;
pub use correctbench_tbgen::EvalContext;
pub use corrector::correct;
pub use generator::{generate_autobench, generate_direct};
pub use pipeline::{
    run_autobench, run_baseline, run_correctbench, run_method, Action, Method, Outcome,
};
pub use validator::{
    build_rs_matrix, generate_rtl_group, judge, validate, RsCell, RsMatrix, Validation, Verdict,
};

// Compile-time contract for the parallel harness: everything a worker
// moves across threads on the pipeline path is Send + Sync, so
// `run_method` can be driven from a worker pool with per-worker clients
// and RNGs. A new non-Send field in any of these breaks the build here,
// not in a race at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Config>();
    assert_send_sync::<Method>();
    assert_send_sync::<Action>();
    assert_send_sync::<Outcome>();
    assert_send_sync::<HybridTb>();
    assert_send_sync::<Validation>();
};
