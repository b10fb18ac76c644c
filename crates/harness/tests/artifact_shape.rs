//! Golden-shape tests for the artifact schemas: the exact field set and
//! ordering of `outcomes.jsonl`, `timings.jsonl` (v2) and `metrics.json`
//! are a contract — downstream joins and the offline report CLI depend
//! on them — so schema drift must show up as a reviewed diff here, not
//! as an accident.

use correctbench_harness::json::{parse, Value};
use correctbench_harness::{
    metrics_json, outcomes_jsonl, timings_jsonl, Engine, RunPlan, RunResult,
};
use correctbench_llm::{ModelKind, SimulatedClientFactory};

fn smoke_result(engine: Engine) -> RunResult {
    let problems = ["and_8", "mux4_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    let plan = RunPlan::new("shape", problems);
    let factory = SimulatedClientFactory::for_model(ModelKind::Gpt4o);
    engine.execute(&plan, &factory)
}

#[test]
fn outcomes_lines_pin_field_set_and_order() {
    let result = smoke_result(Engine::new(2));
    let stream = outcomes_jsonl(&result.outcomes);
    assert_eq!(stream.lines().count(), result.outcomes.len());
    for line in stream.lines() {
        let v = parse(line).expect("outcomes line parses");
        assert_eq!(
            v.keys(),
            vec![
                "job",
                "problem",
                "kind",
                "method",
                "model",
                "rep",
                "seed",
                "eval",
                "status",
                "failure",
                "validated",
                "gave_up",
                "corrections",
                "reboots",
                "final_from_corrector",
                "validator_intervened",
                "trace",
                "input_tokens",
                "output_tokens",
                "requests",
            ],
            "outcomes.jsonl field drift:\n{line}"
        );
    }
}

#[test]
fn timings_lines_pin_field_set_and_order() {
    let result = smoke_result(Engine::new(2));
    let stream = timings_jsonl(&result);
    let mut lines = stream.lines();
    let run = parse(lines.next().expect("run line")).expect("run line parses");
    assert_eq!(
        run.keys(),
        vec![
            "run_wall_ms",
            "threads",
            "jobs",
            "peak_rss_bytes",
            "sim_cache",
            "golden_cache",
            "outcome_store",
        ],
        "timings.jsonl run-line field drift"
    );
    assert_eq!(
        run.get("peak_rss_bytes").and_then(Value::as_u64),
        result.peak_rss_bytes,
        "the run line carries the run's peak RSS"
    );
    let mut jobs = 0;
    for line in lines {
        let v = parse(line).expect("job line parses");
        jobs += 1;
        assert_eq!(
            v.keys(),
            vec!["job", "problem", "method", "rep", "seed", "wall_us", "phases", "counters"],
            "timings.jsonl job-line field drift:\n{line}"
        );
        // The default engine arms observability: both objects present,
        // with the canonical phase/counter taxonomies in order.
        let phases = v.get("phases").expect("phases");
        assert_eq!(
            phases.keys(),
            vec![
                "parse", "elab", "compile", "simulate", "judge", "llm", "validate", "autoeval",
                "lint",
            ],
            "phase taxonomy drift:\n{line}"
        );
        let counters = v.get("counters").expect("counters");
        assert_eq!(
            counters.keys(),
            vec![
                "sim_events",
                "sim_instrs",
                "nba_commits",
                "sim_budget_trips",
                "sim_trip_instrs",
                "sim_skipped_instrs",
                "render_bytes",
                "judge_commits",
                "parse_bytes",
                "sim_cache_hits",
                "sim_cache_misses",
                "golden_hits",
                "golden_misses",
                "llm_retries",
                "job_aborts",
                "lint_diags",
                "store_hits",
                "store_misses",
            ],
            "counter taxonomy drift:\n{line}"
        );
    }
    assert_eq!(jobs, result.outcomes.len());
}

#[test]
fn timings_job_lines_are_null_padded_without_obs() {
    let result = smoke_result(Engine::new(2).without_obs());
    for line in timings_jsonl(&result).lines().skip(1) {
        let v = parse(line).expect("job line parses");
        assert_eq!(
            v.get("phases"),
            Some(&Value::Null),
            "phases not null: {line}"
        );
        assert_eq!(
            v.get("counters"),
            Some(&Value::Null),
            "counters not null: {line}"
        );
    }
}

#[test]
fn metrics_json_pins_field_set_and_order() {
    let result = smoke_result(Engine::new(2));
    let v = parse(&metrics_json(&result)).expect("metrics.json parses");
    assert_eq!(
        v.keys(),
        vec![
            "schema",
            "run_wall_ms",
            "threads",
            "jobs",
            "observed_jobs",
            "peak_rss_bytes",
            "phase_totals_us",
            "counter_totals",
            "caches",
            "lint",
            "latency",
        ],
        "metrics.json field drift"
    );
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some("correctbench-metrics-v2")
    );
    assert_eq!(
        v.get("caches").expect("caches").keys(),
        vec!["sim_cache", "golden_cache", "outcome_store"]
    );
    assert_eq!(
        v.get("peak_rss_bytes").and_then(Value::as_u64),
        result.peak_rss_bytes
    );
    // The lint rollup is zero-filled over the whole rule taxonomy so
    // downstream joins never branch on key presence.
    let lint = v.get("lint").expect("lint");
    assert_eq!(lint.keys(), vec!["diagnostics", "rules"]);
    assert_eq!(
        lint.get("rules").expect("rules").keys(),
        correctbench_verilog::Rule::ALL
            .iter()
            .map(|r| r.name())
            .collect::<Vec<_>>()
    );
    let Some(Value::Arr(latency)) = v.get("latency") else {
        panic!("latency is not an array");
    };
    // One cell per (problem, method): 2 problems x 3 methods.
    assert_eq!(latency.len(), 6);
    for cell in latency {
        assert_eq!(
            cell.keys(),
            vec!["problem", "method", "count", "p50_us", "p90_us", "p99_us", "max_us", "mean_us"],
            "latency cell field drift"
        );
        assert_eq!(cell.get("count").and_then(Value::as_u64), Some(1));
    }
}

#[test]
fn diagnostics_lines_pin_field_set_and_order() {
    let result = smoke_result(Engine::new(2));
    let stream = correctbench_harness::diagnostics_jsonl(&result.outcomes);
    let total: usize = result.outcomes.iter().map(|o| o.lint.len()).sum();
    assert_eq!(stream.lines().count(), total);
    for line in stream.lines() {
        let v = parse(line).expect("diagnostics line parses");
        assert_eq!(
            v.keys(),
            vec![
                "job", "problem", "method", "rep", "rule", "severity", "module", "signal",
                "location", "message",
            ],
            "diagnostics.jsonl field drift:\n{line}"
        );
        let rule = v.get("rule").and_then(Value::as_str).expect("rule");
        assert!(
            correctbench_verilog::Rule::ALL
                .iter()
                .any(|r| r.name() == rule),
            "rule outside the closed taxonomy: {rule}"
        );
        let severity = v.get("severity").and_then(Value::as_str).expect("severity");
        assert!(
            matches!(severity, "warning" | "error"),
            "bad severity: {severity}"
        );
    }
}

#[test]
fn summary_contains_latency_percentile_table() {
    let result = smoke_result(Engine::new(2));
    let problems = ["and_8", "mux4_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    let plan = RunPlan::new("shape", problems);
    let summary = correctbench_harness::render_summary(&plan, &result);
    for needle in ["job latency percentiles (ms)", "p50", "p90", "p99"] {
        assert!(
            summary.contains(needle),
            "summary missing `{needle}`:\n{summary}"
        );
    }
}

#[test]
fn report_reads_sidecars_from_before_the_wasted_work_counters() {
    // Counters are read by name, so a sidecar written before
    // `sim_budget_trips`/`sim_trip_instrs`, `sim_skipped_instrs`,
    // `render_bytes` or `parse_bytes` existed still reports, with the
    // missing counters at zero.
    let dir = std::env::temp_dir().join(format!("correctbench_old_sidecar_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("timings.jsonl");
    std::fs::write(
        &path,
        "{\"run_wall_ms\":5,\"threads\":1,\"jobs\":1}\n\
         {\"job\":0,\"problem\":\"and_8\",\"method\":\"Baseline\",\"rep\":0,\"seed\":1,\"wall_us\":1500,\
         \"phases\":{\"parse\":1,\"elab\":1,\"compile\":1,\"simulate\":7,\"judge\":1,\"llm\":1,\"validate\":0,\"autoeval\":1,\"lint\":0},\
         \"counters\":{\"sim_events\":12,\"sim_instrs\":345,\"nba_commits\":6,\"judge_commits\":3}}\n",
    )
    .expect("write sidecar");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_correctbench-report"))
        .arg(&path)
        .output()
        .expect("run correctbench-report");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "report refused an old sidecar: {out:?}"
    );
    let text = String::from_utf8(out.stdout).expect("UTF-8 report");
    let counter = |name: &str| {
        text.lines()
            .find_map(|l| {
                let mut words = l.split_whitespace();
                (words.next() == Some(name)).then(|| words.next().map(str::to_string))
            })
            .flatten()
    };
    assert_eq!(counter("sim_instrs").as_deref(), Some("345"), "{text}");
    assert_eq!(counter("sim_budget_trips").as_deref(), Some("0"), "{text}");
    assert_eq!(counter("sim_trip_instrs").as_deref(), Some("0"), "{text}");
    // Nor did `sim_skipped_instrs`.
    assert_eq!(
        counter("sim_skipped_instrs").as_deref(),
        Some("0"),
        "{text}"
    );
    // Nor did `render_bytes`.
    assert_eq!(counter("render_bytes").as_deref(), Some("0"), "{text}");
    // Nor did `parse_bytes`.
    assert_eq!(counter("parse_bytes").as_deref(), Some("0"), "{text}");
    // The run line predates `peak_rss_bytes`: reported without it.
    assert!(
        text.starts_with("run: 1 jobs on 1 threads, wall 5 ms\n"),
        "{text}"
    );
}

#[test]
fn report_refuses_a_job_line_without_method_or_wall_us() {
    // Job lines have carried `method` and `wall_us` since schema v2, so a
    // line without either is damaged, not old: the report names it.
    let dir = std::env::temp_dir().join(format!("correctbench_bad_job_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("timings.jsonl");
    for (field, job) in [
        (
            "method",
            "{\"job\":0,\"problem\":\"and_8\",\"rep\":0,\"seed\":1,\"wall_us\":1500}",
        ),
        (
            "wall_us",
            "{\"job\":0,\"problem\":\"and_8\",\"method\":\"Baseline\",\"rep\":0,\"seed\":1,\"wall_ms\":1}",
        ),
    ] {
        std::fs::write(
            &path,
            format!("{{\"run_wall_ms\":5,\"threads\":1,\"jobs\":1}}\n{job}\n{job}\n"),
        )
        .expect("write sidecar");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_correctbench-report"))
            .arg(&path)
            .output()
            .expect("run correctbench-report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!(":2: job line without `{field}`")),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_reports_its_peak_rss() {
    let result = smoke_result(Engine::new(2));
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(
            result.peak_rss_bytes.is_some_and(|b| b > 0),
            "VmHWM is readable here, so the run must report it: {:?}",
            result.peak_rss_bytes
        );
    }
    let problems = ["and_8", "mux4_8"]
        .iter()
        .map(|n| correctbench_dataset::problem(n).expect("problem"))
        .collect();
    let summary = correctbench_harness::render_summary(&RunPlan::new("shape", problems), &result);
    assert!(summary.contains("\npeak RSS: "), "{summary}");

    // The offline report prints the run line's peak RSS when present.
    let dir = std::env::temp_dir().join(format!("correctbench_rss_sidecar_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("timings.jsonl");
    std::fs::write(
        &path,
        "{\"run_wall_ms\":5,\"threads\":1,\"jobs\":0,\"peak_rss_bytes\":20971520}\n",
    )
    .expect("write sidecar");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_correctbench-report"))
        .arg(&path)
        .output()
        .expect("run correctbench-report");
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("UTF-8 report");
    assert!(
        text.starts_with("run: 0 jobs on 1 threads, wall 5 ms, peak RSS 20.0 MiB\n"),
        "{text}"
    );
}
