//! Structured job aborts: the stable failure taxonomy and the typed
//! panic payload that carries it.
//!
//! A job that cannot produce a result — a panic, a broken trusted
//! artifact, an exhausted simulation budget, a lint-gate rejection —
//! must still produce a deterministic `outcomes.jsonl` line. The
//! harness wraps every job in `catch_unwind`; code below the harness (a
//! trusted artifact that fails to parse, a simulation that exhausts the
//! budget) signals a *classified* abort by unwinding with a [`JobAbort`]
//! payload ([`abort_job`]), which the worker downcasts into
//! [`AbortKind`]. Any other payload classifies as [`AbortKind::Panic`].
//! The lint gate runs in the harness itself, so a lint-gate rejection
//! does not unwind: the worker returns it, with the findings behind it.
//!
//! Unwinding (instead of threading `Result`s through every layer) is
//! deliberate: an abort must cross cache lookups and sessions without
//! leaving half-built state behind — the cache layers only ever `put`
//! *after* a successful computation, and sessions are never shared
//! across jobs, so an aborted job cannot poison any reuse layer.

use std::fmt;

/// Why a job aborted — the stable failure taxonomy. Names are part of
/// the `outcomes.jsonl` schema (the `failure` field) and must not
/// drift.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AbortKind {
    /// An unclassified panic reached the job boundary.
    Panic,
    /// A trusted artifact (golden RTL, generated golden driver) failed
    /// to parse — a dataset-invariant violation, not an evaluation
    /// verdict.
    ParseError,
    /// A binding `--sim-budget` was exhausted by one simulation run.
    SimBudgetExhausted,
    /// The static-analysis gate (`--lint=gate`) found deny-level
    /// diagnostics in the job's RTL before simulation. The harness
    /// returns this kind; nothing unwinds with it.
    LintRejected,
}

impl AbortKind {
    /// Every kind, in taxonomy order.
    pub const ALL: [AbortKind; 4] = [
        AbortKind::Panic,
        AbortKind::ParseError,
        AbortKind::SimBudgetExhausted,
        AbortKind::LintRejected,
    ];

    /// The stable artifact name.
    pub fn name(self) -> &'static str {
        match self {
            AbortKind::Panic => "panic",
            AbortKind::ParseError => "parse_error",
            AbortKind::SimBudgetExhausted => "sim_budget_exhausted",
            AbortKind::LintRejected => "lint_rejected",
        }
    }

    /// The kind with artifact name `name`, if any (the reverse of
    /// [`name`](Self::name), used by journal replay).
    pub fn from_name(name: &str) -> Option<AbortKind> {
        AbortKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for AbortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The typed unwind payload of a classified abort.
#[derive(Clone, Copy, Debug)]
pub struct JobAbort {
    /// The classification.
    pub kind: AbortKind,
}

/// Aborts the current job: unwinds with a [`JobAbort`] payload for the
/// harness's `catch_unwind` boundary to classify. Outside a harness
/// (plain library use) this is an ordinary panic whose payload prints
/// via the [`JobAbort`] debug form.
pub fn abort_job(kind: AbortKind) -> ! {
    std::panic::panic_any(JobAbort { kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in AbortKind::ALL {
            assert_eq!(AbortKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(AbortKind::from_name("nope"), None);
    }

    #[test]
    fn abort_unwinds_with_typed_payload() {
        let err = std::panic::catch_unwind(|| abort_job(AbortKind::SimBudgetExhausted))
            .expect_err("must unwind");
        let abort = err.downcast_ref::<JobAbort>().expect("typed payload");
        assert_eq!(abort.kind, AbortKind::SimBudgetExhausted);
    }
}
