//! `correctbench-report`: renders a finished run's rollup.
//!
//! ```text
//! correctbench-report [--help] RUN_DIR
//! ```
//!
//! Reads `RUN_DIR/metrics.json`, the rollup `correctbench-run --out`
//! writes, and prints the run line (jobs, threads, wall, and the peak
//! resident set when the run recorded one), the job-latency table of
//! `summary.txt` (the same rows through the same renderer), the phase
//! and counter totals when the run observed its jobs, and the per-rule
//! lint totals. It reads no other file and aggregates nothing, so two
//! runs compare by their `metrics.json` alone. A phase, counter or rule
//! missing from an older `metrics.json` reads 0. A directory without a
//! readable `metrics.json` exits 1 and names the path. A closed stdout
//! ends the report quietly with exit 0; any other stdout failure exits 1.

use correctbench_harness::cli::{print_or_exit, write_stdout};
use correctbench_harness::json::{parse, Value};
use correctbench_harness::report::{render_latency_table, render_lint_rules, LatencyRow};
use correctbench_obs::{Counter, Phase};
use correctbench_verilog::Rule;
use std::fmt::Write as _;
use std::path::Path;

const USAGE: &str = "usage: correctbench-report [--help] RUN_DIR";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut dir = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => {
                let _ = write_stdout(&format!("{USAGE}\n"));
                std::process::exit(0)
            }
            other if other.starts_with("--") => fail(&format!("unknown flag `{other}`")),
            other => {
                if dir.replace(other.to_string()).is_some() {
                    fail("exactly one run directory expected");
                }
            }
        }
    }
    let path =
        Path::new(&dir.unwrap_or_else(|| fail("a run directory is required"))).join("metrics.json");
    let metrics = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse(&text).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(1)
        });
    let num = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap_or(0);
    let field = |object: &str, key: &str| num(metrics.get(object).and_then(|o| o.get(key)));

    let mut out = String::new();
    let jobs = num(metrics.get("jobs"));
    let peak = metrics
        .get("peak_rss_bytes")
        .and_then(Value::as_u64)
        .map(|b| format!(", peak RSS {:.1} MiB", b as f64 / (1024.0 * 1024.0)))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "run: {jobs} jobs on {} threads, wall {} ms{peak}",
        num(metrics.get("threads")),
        num(metrics.get("run_wall_ms")),
    );
    let rows: Vec<LatencyRow> = match metrics.get("latency") {
        Some(Value::Arr(cells)) => cells
            .iter()
            .map(|c| {
                let text = |key: &str| c.get(key).and_then(Value::as_str).unwrap_or("?");
                LatencyRow {
                    problem: text("problem").to_string(),
                    method: text("method").to_string(),
                    count: num(c.get("count")),
                    p50_us: num(c.get("p50_us")),
                    p90_us: num(c.get("p90_us")),
                    p99_us: num(c.get("p99_us")),
                    max_us: num(c.get("max_us")),
                    mean_us: num(c.get("mean_us")),
                }
            })
            .collect(),
        _ => Vec::new(),
    };
    out.push_str(&render_latency_table(&rows));
    let observed = num(metrics.get("observed_jobs"));
    if observed > 0 {
        let _ = writeln!(out, "phase totals ({observed}/{jobs} jobs observed)");
        for p in Phase::ALL {
            let us = field("phase_totals_us", p.name());
            let _ = writeln!(out, "  {:<10} {us:>12} us", p.name());
        }
        let _ = writeln!(out, "counter totals");
        for c in Counter::ALL {
            let n = field("counter_totals", c.name());
            let _ = writeln!(out, "  {:<18} {n:>14}", c.name());
        }
    } else {
        let _ = writeln!(
            out,
            "no observability data in this run (run without --no-obs to collect it)"
        );
    }
    let rules = metrics.get("lint").and_then(|l| l.get("rules"));
    let counts = Rule::ALL.map(|r| num(rules.and_then(|rs| rs.get(r.name()))) as usize);
    let _ = writeln!(out, "lint: {} diagnostics", field("lint", "diagnostics"));
    out.push_str(&render_lint_rules(&counts));
    print_or_exit(&out);
}
