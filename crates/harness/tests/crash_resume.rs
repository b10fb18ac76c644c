//! Crash-safe journaling and `--resume`.
//!
//! The journal keeps `outcomes.jsonl` a canonical prefix at every
//! instant (reorder buffer + per-line flush), so a run killed at any
//! point can be finished by `--resume` — and the finished file must be
//! byte-identical to an uninterrupted run's. The binary-level test
//! kills a real `correctbench-run` mid-run with an injected `exit@`
//! fault (CI repeats it with a real SIGKILL) and resumes it.

use correctbench_harness::{
    outcome_json, parse_plan_manifest, plan_manifest_json, replay_journal, OutcomeJournal, RunPlan,
};
use std::path::PathBuf;
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("correctbench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

#[test]
fn journal_writes_a_canonical_prefix_regardless_of_completion_order() {
    let dir = tmpdir("journal_order");
    let path = dir.join("outcomes.jsonl");
    let journal = OutcomeJournal::create(&path).expect("create journal");
    // Jobs finish out of order; the file must never run ahead of the
    // contiguous prefix.
    journal.push(1, "{\"job\":1}".to_string());
    journal.push(2, "{\"job\":2}".to_string());
    assert_eq!(std::fs::read_to_string(&path).expect("read"), "");
    journal.push(0, "{\"job\":0}".to_string());
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        "{\"job\":0}\n{\"job\":1}\n{\"job\":2}\n"
    );
    assert!(journal.take_error().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_discards_a_torn_tail_and_truncates_the_file() {
    let dir = tmpdir("torn_tail");
    let path = dir.join("outcomes.jsonl");
    // Two intact lines from a real run, then a torn third line.
    let plan = RunPlan::new(
        "torn",
        vec![correctbench_dataset::problem("and_8").expect("problem")],
    );
    let factory =
        correctbench_llm::SimulatedClientFactory::for_model(correctbench_llm::ModelKind::Gpt4o);
    let outcomes = correctbench_harness::Engine::new(1)
        .execute(&plan, &factory)
        .outcomes;
    let intact: String = outcomes[..2]
        .iter()
        .map(|o| outcome_json(o) + "\n")
        .collect();
    let torn = format!("{intact}{}", &outcome_json(&outcomes[2])[..40]);
    std::fs::write(&path, &torn).expect("write journal");
    let replayed = replay_journal(&path).expect("replay");
    assert_eq!(replayed.len(), 2);
    assert_eq!(replayed[1].job_id, 1);
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        intact,
        "torn tail must be truncated away"
    );
    // A corrupt line *before* the tail is a hard error, not a truncation.
    std::fs::write(&path, format!("{{broken}}\n{intact}")).expect("write");
    assert!(replay_journal(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_manifest_round_trips_the_job_list() {
    let problems = ["and_8", "counter_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    let mut plan = RunPlan::new("manifest", problems);
    plan.reps = 3;
    plan.base_seed = 0xdead_beef_cafe_f00d;
    plan.sim_budget = Some(5000);
    let back = parse_plan_manifest(&plan_manifest_json(&plan)).expect("manifest parses");
    assert_eq!(back.name, plan.name);
    assert_eq!(back.sim_budget, plan.sim_budget);
    let sig = |p: &RunPlan| -> Vec<(usize, u64, u64)> {
        p.jobs()
            .iter()
            .map(|j| (j.id, j.seed, j.eval_seed))
            .collect()
    };
    assert_eq!(
        sig(&back),
        sig(&plan),
        "manifest must rebuild identical jobs"
    );
}

#[test]
fn plan_manifest_without_lint_or_store_is_refused() {
    let problems = vec![correctbench_dataset::problem("and_8").expect("problem")];
    let plan = RunPlan::new("manifest", problems);
    let manifest = plan_manifest_json(&plan);
    let lint = format!("\"lint\":\"{}\",", plan.lint.name());
    for field in [lint.as_str(), ",\"store\":null"] {
        assert!(manifest.contains(field), "{field} not in {manifest}");
        let err = parse_plan_manifest(&manifest.replace(field, ""))
            .err()
            .unwrap_or_else(|| panic!("a manifest without {field} parsed"));
        assert!(err.starts_with("missing"), "{field}: {err}");
    }
}

fn run_binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_correctbench-run"))
        .args(args)
        .output()
        .expect("run correctbench-run")
}

#[test]
fn killed_run_resumes_to_a_byte_identical_outcome_stream() {
    let clean_dir = tmpdir("resume_clean");
    let killed_dir = tmpdir("resume_killed");
    // 2^53 + 1 is the first integer an f64 cannot hold: the manifest
    // must read the budget back exactly, or the recomputed plan
    // fingerprint differs from the recorded one and the resume is
    // refused. The budget is far above every natural limit, so it binds
    // nothing.
    let sweep = [
        "--problems",
        "2",
        "--reps",
        "1",
        "--seed",
        "7",
        "--threads",
        "2",
        "--quiet",
        "--sim-budget",
        "9007199254740993",
    ];

    // Reference: the same plan, uninterrupted.
    let clean = run_binary(
        &[
            &sweep[..],
            &["--out", clean_dir.to_str().expect("utf8 path")],
        ]
        .concat(),
    );
    assert!(clean.status.success(), "clean run failed: {clean:?}");

    // The victim dies at job 3 (std::process::exit stands in for
    // SIGKILL deterministically; CI also does the real-signal version).
    let killed = run_binary(
        &[
            &sweep[..],
            &[
                "--out",
                killed_dir.to_str().expect("utf8 path"),
                "--faults",
                "exit@3",
            ],
        ]
        .concat(),
    );
    assert_eq!(
        killed.status.code(),
        Some(correctbench_harness::FAULT_EXIT_CODE),
        "fault exit code: {killed:?}"
    );
    let partial = std::fs::read_to_string(killed_dir.join("outcomes.jsonl")).expect("journal");
    assert!(
        partial.lines().count() < 6,
        "the killed run should not have finished:\n{partial}"
    );

    // Resume and compare byte-for-byte.
    let resumed = run_binary(&[
        "--resume",
        killed_dir.to_str().expect("utf8 path"),
        "--quiet",
    ]);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let resumed_outcomes = std::fs::read(killed_dir.join("outcomes.jsonl")).expect("resumed");
    let clean_outcomes = std::fs::read(clean_dir.join("outcomes.jsonl")).expect("clean");
    assert!(
        resumed_outcomes == clean_outcomes,
        "resumed run diverged from the uninterrupted run:\n--- resumed ---\n{}\n--- clean ---\n{}",
        String::from_utf8_lossy(&resumed_outcomes),
        String::from_utf8_lossy(&clean_outcomes),
    );
    // The sidecars and summary exist after a resume, too.
    for file in ["timings.jsonl", "metrics.json", "summary.txt", "plan.json"] {
        assert!(
            killed_dir.join(file).is_file(),
            "{file} missing after resume"
        );
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
}

#[test]
fn resume_rejects_a_run_dir_whose_fingerprint_drifted() {
    let dir = tmpdir("resume_fp_drift");
    let out = run_binary(&[
        "--problems",
        "1",
        "--reps",
        "1",
        "--threads",
        "2",
        "--quiet",
        "--out",
        dir.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "seed run failed: {out:?}");

    // Tamper the recorded fingerprint: the manifest now claims the run
    // was produced under a different dataset/configuration, and resume
    // must refuse rather than silently mix outcome streams.
    let manifest_path = dir.join("plan.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest");
    let marker = "\"config_fingerprint\":\"";
    let at = manifest.find(marker).expect("manifest has a fingerprint") + marker.len();
    let mut tampered = manifest.clone();
    tampered.replace_range(at..at + 16, "0123456789abcdef");
    assert_ne!(tampered, manifest, "tampering must change the manifest");
    std::fs::write(&manifest_path, &tampered).expect("write tampered manifest");

    let resumed = run_binary(&["--resume", dir.to_str().expect("utf8 path"), "--quiet"]);
    assert_eq!(
        resumed.status.code(),
        Some(1),
        "drifted fingerprint must be an infra error: {resumed:?}"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("config fingerprint mismatch"),
        "stderr must explain the refusal:\n{stderr}"
    );

    // A manifest that predates fingerprints (no field at all) cannot be
    // checked against the current dataset and configuration, so resume
    // refuses it the same way.
    let legacy = manifest.replace(
        &manifest[at - marker.len()..at + 16 + 1],
        "\"legacy_probe\":\"x\"",
    );
    std::fs::write(&manifest_path, &legacy).expect("write legacy manifest");
    let resumed = run_binary(&["--resume", dir.to_str().expect("utf8 path"), "--quiet"]);
    assert_eq!(
        resumed.status.code(),
        Some(1),
        "a manifest without a fingerprint must be an infra error: {resumed:?}"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("records no config fingerprint"),
        "stderr must explain the refusal:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborted_jobs_set_exit_code_three() {
    let out = run_binary(&[
        "--problems",
        "1",
        "--reps",
        "1",
        "--threads",
        "2",
        "--quiet",
        "--faults",
        "panic@0",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "aborted jobs must exit 3: {out:?}"
    );
}
