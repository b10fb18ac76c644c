//! LLM abstraction and calibrated offline simulation.
//!
//! The paper drives everything with commercial LLMs (gpt-4o,
//! claude-3.5-sonnet, gpt-4o-mini). This crate defines the typed client
//! interface the pipeline uses ([`LlmClient`]) and an offline stand-in
//! ([`SimulatedLlm`]) whose error statistics are controlled by
//! per-model [`ModelProfile`]s — the [`profile`] module docs give the
//! calibration that makes the substitution preserve the paper's dynamics.
//!
//! # Examples
//!
//! ```
//! use correctbench_llm::{LlmClient, LlmRequest, LlmResponse, ModelKind, ModelProfile, SimulatedLlm};
//!
//! let problem = correctbench_dataset::problem("adder_8").expect("known problem");
//! let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 42);
//! match llm.request(&LlmRequest::GenerateRtl { problem: &problem }) {
//!     LlmResponse::Source(rtl) => assert!(rtl.contains("module")),
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! assert_eq!(llm.usage().requests, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod factory;
pub mod profile;
pub mod sim;
pub mod tokens;

pub use client::{
    ArtifactKind, BugReport, CheckerArtifact, Defect, HybridTb, LlmClient, LlmRequest, LlmResponse,
};
pub use factory::{ClientFactory, SimulatedClientFactory};
pub use profile::{ModelKind, ModelProfile};
pub use sim::SimulatedLlm;
pub use tokens::{estimate_tokens, TokenUsage};
