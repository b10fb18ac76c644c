//! The harness ↔ persistent-store bridge: content fingerprints for
//! [`CellKey`]s and the cell payload codec.
//!
//! # Cell-key anatomy
//!
//! A cell is one completed job, addressed by two fingerprints:
//!
//! * **job fingerprint** — the job's own content: the problem's
//!   *full-content* structural hash (spec and golden RTL as raw bytes,
//!   ports, difficulty, scenario sizing, lint allowlist), the method,
//!   the repetition index, and both derived seeds. Editing anything
//!   about a problem — even a comment in its golden RTL — moves every
//!   one of its cells; nothing else moves.
//! * **config fingerprint** — everything plan-wide that can change an
//!   outcome byte: the payload schema version, model profile, lint
//!   mode, simulation budget, job deadline, and every pipeline
//!   [`Config`](correctbench::Config) knob. Thread counts, cache
//!   toggles, observability and the store attachment itself are
//!   deliberately excluded — the determinism contract guarantees they
//!   cannot change an outcome byte.
//!
//! The payload behind a key is line-tagged text built from the exact
//! artifact codecs (`O` outcome line, `D` diagnostic lines, `P`/`C`
//! observability fragments), so a store replay re-renders byte-for-byte
//! what the executed job wrote — the warm-vs-cold byte-equality
//! guarantee rides entirely on [`crate::artifact`]'s exact-inverse
//! parsers.

use crate::plan::{Job, RunPlan};
use crate::worker::TaskOutcome;
use correctbench_obs::{Counter, JobObs, Phase};
use correctbench_store::CellKey;
use correctbench_verilog::{Fingerprint, FingerprintHasher, StructuralHash};

/// Version tag of the cell payload encoding below. Folded into the
/// config fingerprint, so bumping it orphans (never mis-reads) every
/// cell written under the old encoding.
pub const CELL_SCHEMA: &str = "correctbench-cell-v3";

/// Fingerprint of everything plan-wide that can change an outcome byte.
pub fn config_fingerprint(plan: &RunPlan) -> Fingerprint {
    use correctbench::ValidationCriterion;
    let mut h = FingerprintHasher::new();
    h.write_str(CELL_SCHEMA);
    h.write_str(plan.model.as_str());
    h.write_str(plan.lint.name());
    opt_u64(&mut h, plan.sim_budget);
    opt_u64(&mut h, plan.job_deadline_ms);
    let cfg = &plan.config;
    h.write_u64(u64::from(cfg.max_corrections));
    h.write_u64(u64::from(cfg.max_reboots));
    h.write_usize(cfg.num_validation_rtls);
    match cfg.criterion {
        ValidationCriterion::Wrong100 => h.write_u8(0),
        ValidationCriterion::Wrong70 => h.write_u8(1),
        ValidationCriterion::Wrong50 => h.write_u8(2),
        ValidationCriterion::Custom {
            wrong_fraction,
            green_row_rule,
        } => {
            h.write_u8(3);
            h.write_u64(wrong_fraction.to_bits());
            h.write_bool(green_row_rule);
        }
        ValidationCriterion::Weighted { wrong_fraction } => {
            h.write_u8(4);
            h.write_u64(wrong_fraction.to_bits());
        }
    }
    h.write_u64(u64::from(cfg.syntax_debug_rounds));
    h.write_u64(cfg.scenario_check_recall.to_bits());
    h.write_u64(cfg.green_row_fraction.to_bits());
    match cfg.min_input_coverage {
        None => h.write_u8(0),
        Some(f) => {
            h.write_u8(1);
            h.write_u64(f.to_bits());
        }
    }
    h.finish()
}

fn opt_u64(h: &mut FingerprintHasher, v: Option<u64>) {
    match v {
        None => h.write_u8(0),
        Some(n) => {
            h.write_u8(1);
            h.write_u64(n);
        }
    }
}

/// Fingerprint of one job's own content (plan-position-free: the job id
/// is *not* hashed, so the same cell is found from any plan shape).
pub fn job_fingerprint(job: &Job) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    job.problem.hash_structure(&mut h);
    h.write_str(job.method.name());
    h.write_u64(job.rep);
    h.write_u64(job.seed);
    h.write_u64(job.eval_seed);
    h.finish()
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
    let mut h = FingerprintHasher::new();
    h.write_u64(config_fingerprint(plan).0);
    h.write_usize(plan.problems.len());
    for p in &plan.problems {
        p.hash_structure(&mut h);
    }
    h.write_usize(plan.methods.len());
    for m in &plan.methods {
        h.write_str(m.name());
    }
    h.write_u64(plan.reps);
    h.write_u64(plan.base_seed);
    h.finish()
}

/// Serializes one *completed* outcome as a cell payload. The caller
/// enforces the never-poison rule (only `failure.is_none()` outcomes
/// are published); the encoding is line-tagged text over the canonical
/// artifact codecs:
///
/// ```text
/// O <outcomes.jsonl line>
/// D <diagnostics.jsonl line>     (one per lint finding)
/// P <phase ns, space-separated>  (or `P null` when obs was off)
/// C <counter values>             (or `C null`)
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
    match &outcome.obs {
        Some(obs) => {
            let join = |vals: &[u64]| {
                vals.iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            s.push_str("P ");
            s.push_str(&join(&obs.phase_ns));
            s.push_str("\nC ");
            s.push_str(&join(&obs.counters));
            s.push('\n');
        }
        None => s.push_str("P null\nC null\n"),
    }
    s
}

/// Deserializes a cell payload back into the [`TaskOutcome`] for `job`,
/// re-addressed to the current plan (the stored line carries the
/// *original* run's job id; the id is patched and everything else must
/// match `job` exactly — a mismatch means the fingerprint lied and the
/// cell is unusable). Measured wall time is not stored (it belongs to
/// the run that paid it); observability fragments are restored when
/// `obs_enabled`, with the store counters rewritten to one hit.
///
/// # Errors
///
/// A human-readable message when the payload does not decode to an
/// outcome consistent with `job`; the caller discounts the store hit
/// and executes the job instead.
pub fn decode_cell(payload: &str, job: &Job, obs_enabled: bool) -> Result<TaskOutcome, String> {
    let mut outcome: Option<TaskOutcome> = None;
    let mut diags = Vec::new();
    let mut phases: Option<Option<Vec<u64>>> = None;
    let mut counters: Option<Option<Vec<u64>>> = None;
    let ints = |rest: &str| -> Result<Option<Vec<u64>>, String> {
        if rest == "null" {
            return Ok(None);
        }
        rest.split(' ')
            .map(|n| n.parse().map_err(|_| format!("bad obs value `{n}`")))
            .collect::<Result<Vec<u64>, String>>()
            .map(Some)
    };
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
            "P" => phases = Some(ints(rest)?),
            "C" => counters = Some(ints(rest)?),
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
    let phases = phases.ok_or("payload has no P line")?;
    let counters = counters.ok_or("payload has no C line")?;
    outcome.obs = match (phases, counters, obs_enabled) {
        (Some(p), Some(c), true) => {
            if p.len() != Phase::COUNT || c.len() != Counter::COUNT {
                return Err("obs fragment taxonomy mismatch".to_string());
            }
            let mut obs = JobObs {
                phase_ns: [0; Phase::COUNT],
                counters: [0; Counter::COUNT],
            };
            obs.phase_ns.copy_from_slice(&p);
            obs.counters.copy_from_slice(&c);
            // The fragment recorded the *executed* run's store traffic;
            // this job was replayed, so its truth is one hit, no miss.
            obs.counters[Counter::StoreHits as usize] = 1;
            obs.counters[Counter::StoreMisses as usize] = 0;
            Some(obs)
        }
        _ => None,
    };
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
            // Replay into an obs-off run drops the fragments.
            let blind = decode_cell(&payload, job, false).expect("decode");
            assert!(blind.obs.is_none());
        }
    }
}
