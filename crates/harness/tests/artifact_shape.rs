//! Golden-shape tests for the artifact schemas: the exact field set and
//! ordering of `outcomes.jsonl`, `timings.jsonl` (v2) and `metrics.json`
//! are a contract — downstream joins and `correctbench-report`, which
//! renders `metrics.json`, depend on them — so schema drift must show up
//! as a reviewed diff here, not as an accident.

use correctbench_harness::json::{parse, Value};
use correctbench_harness::{
    metrics_json, outcomes_jsonl, timings_jsonl, Engine, RunPlan, RunResult,
};
use correctbench_llm::{ModelKind, SimulatedClientFactory};
use correctbench_obs::{Counter, Phase};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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

/// A fresh directory under the system temp dir, unique to this test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("correctbench_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `correctbench-report DIR`.
fn report(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_correctbench-report"))
        .arg(dir)
        .output()
        .expect("run correctbench-report")
}

/// Runs `correctbench-run` on a two-problem plan with `--out DIR`.
fn run_plan(dir: &Path, extra: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_correctbench-run"))
        .args([
            "--problems",
            "2",
            "--reps",
            "2",
            "--threads",
            "2",
            "--quiet",
        ])
        .args(extra)
        .arg("--out")
        .arg(dir)
        .output()
        .expect("run correctbench-run");
    assert!(out.status.success(), "{out:?}");
}

/// The value printed after `name` on the report line that starts with it.
fn reported(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let mut words = l.split_whitespace();
        (words.next() == Some(name)).then(|| words.next()?.parse().ok())?
    })
}

#[test]
fn report_renders_the_summary_latency_table_and_the_metrics_totals() {
    let dir = temp_dir("report_matches_run");
    run_plan(&dir, &[]);
    let out = report(&dir);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("UTF-8 report");
    let summary = std::fs::read_to_string(dir.join("summary.txt")).expect("summary.txt");
    let metrics = parse(&std::fs::read_to_string(dir.join("metrics.json")).expect("metrics.json"))
        .expect("metrics.json parses");
    std::fs::remove_dir_all(&dir).ok();
    // Two problems x three methods: a header line, a column line and six
    // rows, byte for byte the table `summary.txt` ends with.
    let table = |t: &str| {
        let start = t.find("job latency percentiles").expect("latency table");
        t[start..].lines().take(8).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(table(&text), table(&summary), "{text}");
    assert!(summary.ends_with(&format!("{}\n", table(&summary))));
    for (object, names) in [
        ("phase_totals_us", Phase::ALL.map(Phase::name).to_vec()),
        ("counter_totals", Counter::ALL.map(Counter::name).to_vec()),
    ] {
        for name in names {
            let want = metrics.get(object).and_then(|o| o.get(name));
            let want = want.and_then(Value::as_u64);
            assert_eq!(reported(&text, name), want, "{object}.{name}:\n{text}");
        }
    }
}

#[test]
fn report_reads_a_metrics_json_without_the_newer_phases_and_counters() {
    // Totals are read by name, so a rollup written before the `lint`
    // phase or the wasted-work counters existed still reports, with the
    // missing ones at zero.
    let dir = temp_dir("old_metrics");
    std::fs::write(
        dir.join("metrics.json"),
        r#"{"schema":"correctbench-metrics-v2","run_wall_ms":5,"threads":1,"jobs":1,"observed_jobs":1,
            "phase_totals_us":{"parse":1,"simulate":7},
            "counter_totals":{"sim_events":12,"sim_instrs":345},
            "lint":{"diagnostics":0,"rules":{}},"latency":[]}"#,
    )
    .expect("write metrics.json");
    let out = report(&dir);
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("UTF-8 report");
    assert_eq!(reported(&text, "simulate"), Some(7), "{text}");
    assert_eq!(reported(&text, "lint"), Some(0), "{text}");
    assert_eq!(reported(&text, "sim_instrs"), Some(345), "{text}");
    for counter in [
        "sim_budget_trips",
        "sim_trip_instrs",
        "sim_skipped_instrs",
        "render_bytes",
        "parse_bytes",
    ] {
        assert_eq!(reported(&text, counter), Some(0), "{counter}:\n{text}");
    }
}

#[test]
fn report_prints_peak_rss_only_when_the_run_recorded_it() {
    let dir = temp_dir("rss_metrics");
    for (peak, run_line) in [
        (
            r#""peak_rss_bytes":20971520,"#,
            "run: 0 jobs on 1 threads, wall 5 ms, peak RSS 20.0 MiB\n",
        ),
        (
            r#""peak_rss_bytes":null,"#,
            "run: 0 jobs on 1 threads, wall 5 ms\n",
        ),
        ("", "run: 0 jobs on 1 threads, wall 5 ms\n"),
    ] {
        std::fs::write(
            dir.join("metrics.json"),
            format!(r#"{{"run_wall_ms":5,"threads":1,"jobs":0,{peak}"observed_jobs":0}}"#),
        )
        .expect("write metrics.json");
        let out = report(&dir);
        assert!(out.status.success(), "{out:?}");
        let text = String::from_utf8(out.stdout).expect("UTF-8 report");
        assert!(text.starts_with(run_line), "{peak}:\n{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_without_metrics_json_exits_1_naming_the_path() {
    let dir = temp_dir("no_metrics");
    let out = report(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&dir.join("metrics.json").display().to_string()),
        "{stderr}"
    );
}

#[test]
fn report_renders_unobserved_and_store_replayed_runs() {
    let no_obs = temp_dir("report_no_obs");
    run_plan(&no_obs, &["--no-obs"]);
    let out = report(&no_obs);
    std::fs::remove_dir_all(&no_obs).ok();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("UTF-8 report");
    assert!(text.contains("no observability data"), "{text}");

    let store = temp_dir("report_store");
    let cold = temp_dir("report_cold");
    let warm = temp_dir("report_warm");
    let store_flag = store.display().to_string();
    run_plan(&cold, &["--store", &store_flag]);
    run_plan(&warm, &["--store", &store_flag]);
    let out = report(&warm);
    for dir in [&store, &cold, &warm] {
        std::fs::remove_dir_all(dir).ok();
    }
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("UTF-8 report");
    // Every one of the 12 jobs replayed: observed, with no phase time.
    assert!(
        text.contains("phase totals (12/12 jobs observed)"),
        "{text}"
    );
    assert_eq!(reported(&text, "store_hits"), Some(12), "{text}");
    assert_eq!(reported(&text, "simulate"), Some(0), "{text}");
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
}
