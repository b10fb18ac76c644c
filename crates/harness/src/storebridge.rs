//! The harness ↔ persistent-store bridge: content fingerprints for
//! [`CellKey`]s and the cell payload codec.
//!
//! # Cell-key anatomy
//!
//! A cell is one completed job, addressed by two fingerprints:
//!
//! * **job fingerprint** — the job's own content: the problem's
//!   *full-content* fingerprint (every field of its derived `Hash`:
//!   spec and golden RTL as raw text, ports, difficulty, scenario
//!   sizing, lint allowlist), the method, the repetition index, and
//!   both derived seeds. Editing anything about a problem — even a
//!   comment in its golden RTL — moves every one of its cells; nothing
//!   else moves.
//! * **config fingerprint** — everything plan-wide that can change an
//!   outcome byte: the payload schema version, model profile, lint
//!   mode, simulation budget, and every pipeline
//!   [`Config`](correctbench::Config) knob. Thread counts, cache
//!   toggles, observability and the store attachment itself are
//!   deliberately excluded — the determinism contract guarantees they
//!   cannot change an outcome byte.
//!
//! The payload behind a key is line-tagged text built from the exact
//! artifact codecs (`O` outcome line, `D` diagnostic lines), so a store
//! replay re-renders byte-for-byte what the executed job wrote — the
//! warm-vs-cold byte-equality guarantee rides entirely on
//! [`crate::artifact`]'s exact-inverse parsers. A cell holds no
//! measurement: the executed run's phase times and counters belong to
//! that run, so a replayed job reports only its own store hit.

use crate::plan::{Job, RunPlan};
use crate::worker::TaskOutcome;
use correctbench_obs::{Counter, JobObs};
use correctbench_store::CellKey;
use correctbench_verilog::{fingerprint, Fingerprint};

/// Version tag of the cell payload encoding below. Folded into the
/// config fingerprint, so bumping it orphans (never mis-reads) every
/// cell written under the old encoding.
pub const CELL_SCHEMA: &str = "correctbench-cell-v5";

/// Fingerprint of everything plan-wide that can change an outcome byte.
/// `f64` knobs go in as their bits.
pub fn config_fingerprint(plan: &RunPlan) -> Fingerprint {
    use correctbench::ValidationCriterion;
    let cfg = &plan.config;
    // A tag per variant, then the variant's knobs.
    let criterion = match cfg.criterion {
        ValidationCriterion::Wrong100 => (0u8, None, None),
        ValidationCriterion::Wrong70 => (1, None, None),
        ValidationCriterion::Wrong50 => (2, None, None),
        ValidationCriterion::Custom {
            wrong_fraction,
            green_row_rule,
        } => (3, Some(wrong_fraction.to_bits()), Some(green_row_rule)),
        ValidationCriterion::Weighted { wrong_fraction } => {
            (4, Some(wrong_fraction.to_bits()), None)
        }
    };
    fingerprint(&(
        (CELL_SCHEMA, plan.model, plan.lint),
        plan.sim_budget,
        (
            cfg.max_corrections,
            cfg.max_reboots,
            cfg.num_validation_rtls,
        ),
        criterion,
        cfg.syntax_debug_rounds,
        cfg.scenario_check_recall.to_bits(),
        cfg.green_row_fraction.to_bits(),
        cfg.min_input_coverage.map(f64::to_bits),
    ))
}

/// Fingerprint of one job's own content (plan-position-free: the job id
/// is *not* hashed, so the same cell is found from any plan shape).
pub fn job_fingerprint(job: &Job) -> Fingerprint {
    fingerprint(&(&job.problem, job.method, job.rep, job.seed, job.eval_seed))
}

/// The content address of `job` under `config` (a precomputed
/// [`config_fingerprint`]).
pub fn cell_key(job: &Job, config: Fingerprint) -> CellKey {
    CellKey {
        job: job_fingerprint(job),
        config,
    }
}

/// Whole-plan fingerprint for the `plan.json` manifest: the config
/// fingerprint plus the full content of every problem and the sweep
/// shape. `--resume` recomputes this from the manifest-rebuilt plan and
/// rejects the run directory on mismatch — which catches dataset
/// content drift and configuration-default drift between the
/// interrupted run and the resuming binary.
pub fn plan_fingerprint(plan: &RunPlan) -> Fingerprint {
    fingerprint(&(
        config_fingerprint(plan),
        &plan.problems,
        &plan.methods,
        plan.reps,
        plan.base_seed,
    ))
}

/// Serializes one *completed* outcome as a cell payload. The caller
/// enforces the never-poison rule (only `failure.is_none()` outcomes
/// are published); the encoding is line-tagged text over the canonical
/// artifact codecs:
///
/// ```text
/// O <outcomes.jsonl line>
/// D <diagnostics.jsonl line>     (one per lint finding)
/// ```
pub fn encode_cell(outcome: &TaskOutcome) -> String {
    let mut s = String::new();
    s.push_str("O ");
    s.push_str(&crate::artifact::outcome_json(outcome));
    s.push('\n');
    for d in &outcome.lint {
        s.push_str("D ");
        s.push_str(&crate::artifact::diagnostic_json(outcome, d));
        s.push('\n');
    }
    s
}

/// Deserializes a cell payload back into the [`TaskOutcome`] for `job`,
/// re-addressed to the current plan (the stored line carries the
/// *original* run's job id; the id is patched and everything else must
/// match `job` exactly — a mismatch means the fingerprint lied and the
/// cell is unusable). The replayed job did no work in this run, so its
/// wall time is zero and, when `obs_enabled`, its observability
/// fragment is empty but for one `store_hits`; with observability off
/// it has none.
///
/// # Errors
///
/// A human-readable message when the payload does not decode to an
/// outcome consistent with `job`; the caller discounts the store hit
/// and executes the job instead.
pub fn decode_cell(payload: &str, job: &Job, obs_enabled: bool) -> Result<TaskOutcome, String> {
    let mut outcome: Option<TaskOutcome> = None;
    let mut diags = Vec::new();
    for line in payload.lines() {
        let (tag, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("untagged payload line `{line}`"))?;
        match tag {
            "O" => {
                if outcome.is_some() {
                    return Err("duplicate outcome line".to_string());
                }
                outcome = Some(crate::artifact::parse_outcome_line(rest)?);
            }
            "D" => diags.push(crate::artifact::parse_diagnostic_line(rest)?),
            other => return Err(format!("unknown payload tag `{other}`")),
        }
    }
    let mut outcome = outcome.ok_or("payload has no outcome line")?;
    outcome.job_id = job.id;
    if outcome.problem != job.problem.name
        || outcome.method != job.method
        || outcome.rep != job.rep
        || outcome.seed != job.seed
    {
        return Err(format!(
            "stored outcome is for {}/{}/rep{} seed {}, not {}/{}/rep{} seed {}",
            outcome.problem,
            outcome.method.name(),
            outcome.rep,
            outcome.seed,
            job.problem.name,
            job.method.name(),
            job.rep,
            job.seed
        ));
    }
    if outcome.failure.is_some() {
        // Publishers must never store aborted outcomes; a store that
        // serves one is poisoned and the cell is refused.
        return Err("stored outcome is aborted (never-poison violation)".to_string());
    }
    outcome.lint = diags;
    outcome.obs = obs_enabled.then(|| {
        let mut obs = JobObs::default();
        obs.counters[Counter::StoreHits as usize] = 1;
        obs
    });
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunPlan;

    fn plan() -> RunPlan {
        let problems = ["and_8", "mux4_8"]
            .iter()
            .map(|n| correctbench_dataset::problem(n).expect("problem"))
            .collect();
        RunPlan::new("bridge", problems)
    }

    #[test]
    fn job_fingerprint_ignores_plan_position() {
        let full = plan();
        let mut solo = plan();
        solo.problems.remove(0); // mux4_8 only: ids shift, content doesn't
        let full_jobs = full.jobs();
        let solo_jobs = solo.jobs();
        let from_full: Vec<Fingerprint> = full_jobs
            .iter()
            .filter(|j| j.problem.name == "mux4_8")
            .map(job_fingerprint)
            .collect();
        let from_solo: Vec<Fingerprint> = solo_jobs.iter().map(job_fingerprint).collect();
        assert_eq!(from_full, from_solo);
    }

    #[test]
    fn job_fingerprint_moves_with_problem_content() {
        let p = plan();
        let mut mutated = plan();
        mutated.problems[0].golden_rtl.push_str("\n// touched\n");
        let before: Vec<Fingerprint> = p.jobs().iter().map(job_fingerprint).collect();
        let after: Vec<Fingerprint> = mutated.jobs().iter().map(job_fingerprint).collect();
        let and_jobs = p
            .jobs()
            .iter()
            .filter(|j| j.problem.name == "and_8")
            .count();
        let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert_eq!(moved, and_jobs, "only the touched problem's cells move");
    }

    #[test]
    fn config_fingerprint_tracks_outcome_knobs_only() {
        let base = plan();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&plan()));
        let mut lint = plan();
        lint.lint = crate::plan::LintMode::Gate;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&lint));
        let mut budget = plan();
        budget.sim_budget = Some(50_000);
        assert_ne!(config_fingerprint(&base), config_fingerprint(&budget));
        // The store attachment itself is pure memoization: not hashed.
        let mut stored = plan();
        stored.store = Some(crate::plan::StoreConfig {
            dir: "/tmp/s".to_string(),
            readonly: false,
        });
        assert_eq!(config_fingerprint(&base), config_fingerprint(&stored));
    }

    #[test]
    fn cell_payload_roundtrips_through_the_artifact_codecs() {
        use correctbench_llm::{ModelKind, SimulatedClientFactory};
        let p = plan();
        let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
        let engine = crate::scheduler::Engine::new(2);
        let result = engine.execute(&p, &factory);
        let jobs = p.jobs();
        for outcome in &result.outcomes {
            if outcome.failure.is_some() {
                continue;
            }
            let job = &jobs[outcome.job_id];
            let payload = encode_cell(outcome);
            let decoded = decode_cell(&payload, job, true).expect("decode");
            assert_eq!(
                crate::artifact::outcome_json(&decoded),
                crate::artifact::outcome_json(outcome),
                "outcome line must replay byte-identically"
            );
            assert_eq!(decoded.lint, outcome.lint, "diagnostics must replay");
            assert!(
                payload
                    .lines()
                    .all(|l| l.starts_with("O ") || l.starts_with("D ")),
                "a cell carries the outcome and its diagnostics only:\n{payload}"
            );
            // The replay reports its own work: one store hit, nothing
            // the executed run measured.
            let mut hit = JobObs::default();
            hit.counters[Counter::StoreHits as usize] = 1;
            assert_eq!(decoded.obs, Some(hit));
            // Replay into an obs-off run has no fragment.
            let blind = decode_cell(&payload, job, false).expect("decode");
            assert!(blind.obs.is_none());
        }
    }
}
