//! Test-only fault injection: break chosen jobs on purpose.
//!
//! The fault-isolation contract ("one crashing job never disturbs any
//! other job's outcome") is only testable if a job can be made to crash
//! on demand. A [`FaultPlan`] maps job ids to [`FaultKind`]s; the
//! worker consults it at job start. Production runs use
//! [`FaultPlan::none`] — the `--faults` flag exists for the
//! fault-injection suite and the CI kill-and-resume smoke, not for
//! experiments.
//!
//! Spec grammar (comma-separated, e.g. `panic@3,slow@5:50,exit@7`):
//!
//! * `panic@ID` — panic at job start (an *unstructured* crash; the
//!   worker's isolation must classify it as `panic`).
//! * `slow@ID:MS` — sleep `MS` milliseconds at job start; it only
//!   widens the window in which a kill-and-resume smoke can SIGKILL the
//!   run.
//! * `exit@ID` — `std::process::exit` at job start: an orderly stand-in
//!   for SIGKILL that the resume integration test can trigger
//!   deterministically (CI also does the real-signal version).

use std::collections::BTreeMap;

/// One injected failure mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Panic at job start.
    Panic,
    /// Sleep this many milliseconds at job start.
    Slow(u64),
    /// Kill the whole process at job start (crash-safety testing).
    Exit,
}

/// Process exit code of an `exit@ID` fault — distinguishable from every
/// real exit path (0 ok, 1 infra, 2 usage, 3 aborted jobs).
pub const FAULT_EXIT_CODE: i32 = 86;

/// Which jobs to break, and how. Empty by default.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: BTreeMap<usize, FaultKind>,
}

impl FaultPlan {
    /// The production fault plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parses a `--faults` spec (see module docs for the grammar).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = BTreeMap::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, at) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault `{entry}`: expected KIND@JOB_ID"))?;
            let (id, arg) = match at.split_once(':') {
                Some((id, arg)) => (id, Some(arg)),
                None => (at, None),
            };
            let id: usize = id
                .parse()
                .map_err(|_| format!("fault `{entry}`: bad job id `{id}`"))?;
            let fault = match (kind, arg) {
                ("panic", None) => FaultKind::Panic,
                ("slow", Some(ms)) => FaultKind::Slow(
                    ms.parse()
                        .map_err(|_| format!("fault `{entry}`: bad duration `{ms}`"))?,
                ),
                ("slow", None) => return Err(format!("fault `{entry}`: slow needs `:MS`")),
                ("exit", None) => FaultKind::Exit,
                _ => return Err(format!("fault `{entry}`: unknown kind `{kind}`")),
            };
            if faults.insert(id, fault).is_some() {
                return Err(format!("fault `{entry}`: job {id} already has a fault"));
            }
        }
        Ok(FaultPlan { faults })
    }

    /// The fault injected at `job_id`, if any.
    pub fn get(&self, job_id: usize) -> Option<FaultKind> {
        self.faults.get(&job_id).copied()
    }

    /// `true` when no job is faulted (the production state).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let plan = FaultPlan::parse("panic@3, slow@5:50,exit@9").expect("parse");
        assert_eq!(plan.get(3), Some(FaultKind::Panic));
        assert_eq!(plan.get(5), Some(FaultKind::Slow(50)));
        assert_eq!(plan.get(9), Some(FaultKind::Exit));
        assert_eq!(plan.get(0), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("").expect("empty spec").is_empty());
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "panic",
            "panic@x",
            "slow@3",
            "slow@3:ms",
            "frob@1",
            "panic@1,exit@1",
            "llm@1",
            "llmfatal@1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
