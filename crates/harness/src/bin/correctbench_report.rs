//! `correctbench-report`: offline re-aggregation of a timing sidecar.
//!
//! ```text
//! correctbench-report [--help] TIMINGS.JSONL
//! ```
//!
//! Reads a `timings.jsonl` produced by `correctbench-run --out` (schema
//! v2: a run line followed by one line per job) and re-renders what a
//! live run puts in `summary.txt`/`metrics.json`: per-`(problem,
//! method)` job-latency percentiles (p50/p90/p99/max, from the same
//! deterministic-structure log-bucketed histogram) plus phase and
//! counter totals when the sidecar carries observability data, and the
//! run's peak resident set when the run line records it. When a
//! `diagnostics.jsonl` sits next to the timings file (as `--out` writes
//! it), its static-analysis findings are re-aggregated per rule too.
//! Works on any past run's artifact — no re-execution.

use correctbench_harness::json::{parse, Value};
use correctbench_obs::{Counter, Histogram, Phase};

const USAGE: &str = "usage: correctbench-report [--help] TIMINGS.JSONL";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut path = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other if other.starts_with("--") => fail(&format!("unknown flag `{other}`")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    fail("exactly one timings.jsonl path expected");
                }
            }
        }
    }
    let path = path.unwrap_or_else(|| fail("a timings.jsonl path is required"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1)
    });

    // (problem, method) -> latency histogram, first-appearance order —
    // the same grouping a live run writes into metrics.json.
    let mut groups: Vec<(String, String, Histogram)> = Vec::new();
    let mut phase_us = [0u64; Phase::COUNT];
    let mut counters = [0u64; Counter::COUNT];
    let mut observed = 0usize;
    let mut jobs = 0usize;
    let mut run_line: Option<Value> = None;

    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .collect();
    let last = lines.len().saturating_sub(1);
    for (i, &(lineno, line)) in lines.iter().enumerate() {
        let v = match parse(line) {
            Ok(v) => v,
            // A broken *final* line is what a SIGKILLed run leaves
            // behind (the journal flushes per line, so at most the tail
            // is torn): report the rest instead of refusing the file.
            Err(e) if i == last => {
                eprintln!(
                    "warning: {path}:{}: skipping truncated trailing line ({e})",
                    lineno + 1
                );
                continue;
            }
            Err(e) => {
                eprintln!("error: {path}:{}: {e}", lineno + 1);
                std::process::exit(1)
            }
        };
        if v.get("run_wall_ms").is_some() {
            run_line = Some(v);
            continue;
        }
        let Some(problem) = v.get("problem").and_then(Value::as_str) else {
            eprintln!("error: {path}:{}: job line without `problem`", lineno + 1);
            std::process::exit(1)
        };
        jobs += 1;
        // v1 sidecars lack `method`/`wall_us`; degrade gracefully so the
        // report still works on pre-v2 artifacts.
        let method = v.get("method").and_then(Value::as_str).unwrap_or("?");
        let wall_us = v
            .get("wall_us")
            .and_then(Value::as_u64)
            .or_else(|| v.get("wall_ms").and_then(Value::as_u64).map(|ms| ms * 1000))
            .unwrap_or(0);
        let slot = groups
            .iter()
            .position(|(p, m, _)| p == problem && m == method);
        let hist = match slot {
            Some(i) => &mut groups[i].2,
            None => {
                groups.push((problem.to_string(), method.to_string(), Histogram::new()));
                &mut groups.last_mut().expect("just pushed").2
            }
        };
        hist.record(wall_us * 1_000); // histograms store nanoseconds
        if let Some(phases @ Value::Obj(_)) = v.get("phases") {
            observed += 1;
            for p in Phase::ALL {
                phase_us[p as usize] += phases.get(p.name()).and_then(Value::as_u64).unwrap_or(0);
            }
        }
        if let Some(cs @ Value::Obj(_)) = v.get("counters") {
            for c in Counter::ALL {
                counters[c as usize] += cs.get(c.name()).and_then(Value::as_u64).unwrap_or(0);
            }
        }
    }

    if let Some(run) = &run_line {
        // Sidecars written before the run line carried `peak_rss_bytes`
        // (and runs where the platform could not report it) print
        // without it.
        let peak = run
            .get("peak_rss_bytes")
            .and_then(Value::as_u64)
            .map(|b| format!(", peak RSS {:.1} MiB", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_default();
        println!(
            "run: {} jobs on {} threads, wall {} ms{peak}",
            run.get("jobs").and_then(Value::as_u64).unwrap_or(0),
            run.get("threads").and_then(Value::as_u64).unwrap_or(0),
            run.get("run_wall_ms").and_then(Value::as_u64).unwrap_or(0),
        );
    }
    println!(
        "job latency percentiles (ms)\n{:<18} {:<13} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "problem", "method", "runs", "p50", "p90", "p99", "max"
    );
    for (problem, method, hist) in &groups {
        println!(
            "{:<18} {:<13} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            problem,
            method,
            hist.count(),
            hist.percentile(0.50) as f64 / 1e6,
            hist.percentile(0.90) as f64 / 1e6,
            hist.percentile(0.99) as f64 / 1e6,
            hist.max() as f64 / 1e6,
        );
    }
    if observed > 0 {
        println!("phase totals ({observed}/{jobs} jobs observed)");
        for p in Phase::ALL {
            println!("  {:<10} {:>12} us", p.name(), phase_us[p as usize]);
        }
        println!("counter totals");
        for c in Counter::ALL {
            println!("  {:<18} {:>14}", c.name(), counters[c as usize]);
        }
    } else {
        println!("no observability data in this sidecar (run without --no-obs to collect it)");
    }
    report_diagnostics(&path);
}

/// Re-aggregates the `diagnostics.jsonl` sibling of the timings file,
/// when present: one count per lint rule plus a total. A run with
/// `--lint=off` writes the file empty, so "0 diagnostics" and "no
/// sidecar" are distinguishable states.
fn report_diagnostics(timings_path: &str) {
    let diag_path = std::path::Path::new(timings_path).with_file_name("diagnostics.jsonl");
    let Ok(text) = std::fs::read_to_string(&diag_path) else {
        return;
    };
    let mut rules: Vec<(String, u64)> = Vec::new();
    let mut total = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "warning: {}:{}: skipping bad diagnostics line ({e})",
                    diag_path.display(),
                    lineno + 1
                );
                continue;
            }
        };
        let rule = v.get("rule").and_then(Value::as_str).unwrap_or("?");
        total += 1;
        match rules.iter_mut().find(|(r, _)| r == rule) {
            Some((_, n)) => *n += 1,
            None => rules.push((rule.to_string(), 1)),
        }
    }
    println!("lint diagnostics: {total}");
    for (rule, n) in &rules {
        println!("  {rule:<24} {n:>6}");
    }
}
