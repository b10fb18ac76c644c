//! Structured JSONL artifacts.
//!
//! A run writes four machine-readable files plus a human summary:
//!
//! * `outcomes.jsonl` — one JSON object per job in canonical job order.
//!   Every field is a pure function of the plan, so the file is
//!   **byte-identical across thread counts, cache layers, re-runs and
//!   observability settings** (the determinism contract the harness
//!   integration tests pin down).
//! * `diagnostics.jsonl` — one JSON object per static-analysis finding
//!   (`verilog::lint`), jobs in canonical order, each job's findings in
//!   the report's sorted order. The lint pass is pure, so this file
//!   shares the determinism contract above.
//! * `timings.jsonl` (schema v2) — measured run metadata and per-job
//!   wall times. The first line describes the run (`run_wall_ms`,
//!   `threads`, `jobs`, one counter object or `null` per cache layer);
//!   every following line is one job, in canonical job order, carrying
//!   the join keys `job`/`problem`/`method`/`rep`/`seed` (so joining
//!   against `outcomes.jsonl` no longer needs lockstep reads), the
//!   measured `wall_us`, and — when observability is on —
//!   a `phases` object (exclusive per-phase microseconds, `obs::Phase`
//!   taxonomy) plus a `counters` object (`obs::Counter` taxonomy);
//!   both are `null` under `--no-obs`. Honest measurements are not
//!   deterministic, so they live in this sidecar, never in
//!   `outcomes.jsonl`.
//! * `metrics.json` — the run's one rollup: phase totals, counter
//!   totals, cache-layer counters, the per-rule lint counts and
//!   per-`(problem, method)` job latency (exact nearest-rank
//!   p50/p90/p99, max and mean; [`crate::report::latency_rows`]).
//!   `correctbench-report RUN_DIR` renders this file and reads no other.
//! * `summary.txt` — the rendered [`crate::report`] tables.
//!
//! No external JSON dependency exists in this offline workspace, so the
//! tiny encoder below handles the shapes we emit: flat objects of
//! strings, integers, floats, booleans, string arrays and one level of
//! nested objects ([`crate::json`] is the matching reader).

use crate::scheduler::RunResult;
use crate::worker::TaskOutcome;
use correctbench_dataset::CircuitKind;
use correctbench_obs::JobObs;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Escapes `s` as a JSON string body (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn kind_name(kind: CircuitKind) -> &'static str {
    match kind {
        CircuitKind::Combinational => "cmb",
        CircuitKind::Sequential => "seq",
    }
}

/// Renders one outcome as its canonical JSONL line (no trailing newline).
pub fn outcome_json(o: &TaskOutcome) -> String {
    let trace: Vec<String> = o
        .trace
        .iter()
        .map(|a| format!("\"{}\"", a.name()))
        .collect();
    let failure = match o.failure {
        Some(kind) => format!("\"{}\"", kind.name()),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"job\":{},\"problem\":\"{}\",\"kind\":\"{}\",\"method\":\"{}\",",
            "\"model\":\"{}\",\"rep\":{},\"seed\":{},\"eval\":\"{}\",",
            "\"status\":\"{}\",\"failure\":{},",
            "\"validated\":{},\"gave_up\":{},\"corrections\":{},\"reboots\":{},",
            "\"final_from_corrector\":{},\"validator_intervened\":{},",
            "\"trace\":[{}],\"input_tokens\":{},\"output_tokens\":{},\"requests\":{}}}"
        ),
        o.job_id,
        json_escape(&o.problem),
        kind_name(o.kind),
        o.method.name(),
        o.model.as_str(),
        o.rep,
        o.seed,
        o.level.name(),
        if o.failure.is_none() { "ok" } else { "aborted" },
        failure,
        o.validated,
        o.gave_up,
        o.corrections,
        o.reboots,
        o.final_from_corrector,
        o.validator_intervened,
        trace.join(","),
        o.tokens.input_tokens,
        o.tokens.output_tokens,
        o.tokens.requests,
    )
}

/// Parses one `outcomes.jsonl` line back into its [`TaskOutcome`] — the
/// exact inverse of [`outcome_json`] over the deterministic fields
/// (`wall` and `obs` are measured, not journaled, so they come back
/// zero/`None`). This is what `--resume` replays a journal with.
///
/// # Errors
///
/// A human-readable message when the line is not a well-formed outcome
/// object (the resume path treats a broken *last* line as a torn write
/// and truncates it; a broken earlier line is a corrupt journal).
pub fn parse_outcome_line(line: &str) -> Result<TaskOutcome, String> {
    use correctbench::{Action, Method};
    use correctbench_autoeval::EvalLevel;
    use correctbench_llm::{ModelKind, TokenUsage};
    let v = crate::json::parse(line).map_err(|e| e.to_string())?;
    let num = |key: &str| {
        v.get(key)
            .and_then(crate::json::Value::as_u64)
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    let string = |key: &str| {
        v.get(key)
            .and_then(crate::json::Value::as_str)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let boolean = |key: &str| match v.get(key) {
        Some(crate::json::Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean field `{key}`")),
    };
    let kind = match string("kind")? {
        "cmb" => CircuitKind::Combinational,
        "seq" => CircuitKind::Sequential,
        other => return Err(format!("unknown kind `{other}`")),
    };
    let method_name = string("method")?;
    let method = Method::ALL
        .into_iter()
        .find(|m| m.name() == method_name)
        .ok_or_else(|| format!("unknown method `{method_name}`"))?;
    let model_name = string("model")?;
    let model = [
        ModelKind::Gpt4o,
        ModelKind::Claude35Sonnet,
        ModelKind::Gpt4oMini,
    ]
    .into_iter()
    .find(|m| m.as_str() == model_name)
    .ok_or_else(|| format!("unknown model `{model_name}`"))?;
    let level_name = string("eval")?;
    let level = EvalLevel::ALL
        .into_iter()
        .find(|l| l.name() == level_name)
        .ok_or_else(|| format!("unknown eval level `{level_name}`"))?;
    let failure = match v.get("failure") {
        Some(crate::json::Value::Null) => None,
        Some(crate::json::Value::Str(name)) => Some(
            correctbench_tbgen::AbortKind::from_name(name)
                .ok_or_else(|| format!("unknown failure kind `{name}`"))?,
        ),
        _ => return Err("missing field `failure`".to_string()),
    };
    let trace = match v.get("trace") {
        Some(crate::json::Value::Arr(actions)) => actions
            .iter()
            .map(|a| {
                let name = a.as_str().ok_or("non-string trace action")?;
                [
                    Action::Correcting,
                    Action::Rebooting,
                    Action::Pass,
                    Action::GiveUp,
                ]
                .into_iter()
                .find(|action| action.name() == name)
                .ok_or_else(|| format!("unknown action `{name}`"))
            })
            .collect::<Result<Vec<Action>, String>>()?,
        _ => return Err("missing field `trace`".to_string()),
    };
    Ok(TaskOutcome {
        job_id: num("job")? as usize,
        problem: string("problem")?.to_string(),
        kind,
        method,
        model,
        rep: num("rep")?,
        seed: num("seed")?,
        level,
        failure,
        validated: boolean("validated")?,
        gave_up: boolean("gave_up")?,
        corrections: num("corrections")? as u32,
        reboots: num("reboots")? as u32,
        final_from_corrector: boolean("final_from_corrector")?,
        validator_intervened: boolean("validator_intervened")?,
        trace,
        tokens: TokenUsage {
            input_tokens: num("input_tokens")?,
            output_tokens: num("output_tokens")?,
            requests: num("requests")?,
        },
        wall: std::time::Duration::ZERO,
        obs: None,
        lint: Vec::new(),
    })
}

/// Renders the deterministic outcome stream: one line per job, canonical
/// order, trailing newline.
pub fn outcomes_jsonl(outcomes: &[TaskOutcome]) -> String {
    let mut s = String::new();
    for o in outcomes {
        s.push_str(&outcome_json(o));
        s.push('\n');
    }
    s
}

/// Renders one lint diagnostic as its canonical `diagnostics.jsonl`
/// line (no trailing newline). Split out of [`diagnostics_jsonl`] so
/// the persistent outcome store serializes sidecar fragments with the
/// exact same codec the artifact stream uses — one renderer, no second
/// copy to drift.
pub fn diagnostic_json(o: &TaskOutcome, d: &correctbench_verilog::Diagnostic) -> String {
    format!(
        "{{\"job\":{},\"problem\":\"{}\",\"method\":\"{}\",\"rep\":{},\"rule\":\"{}\",\"severity\":\"{}\",\"module\":\"{}\",\"signal\":\"{}\",\"location\":\"{}\",\"message\":\"{}\"}}",
        o.job_id,
        json_escape(&o.problem),
        o.method.name(),
        o.rep,
        d.rule.name(),
        d.severity.name(),
        json_escape(&d.module),
        json_escape(&d.signal),
        json_escape(&d.location),
        json_escape(&d.message),
    )
}

/// Parses one `diagnostics.jsonl` line back into its [`correctbench_verilog::Diagnostic`] —
/// the exact inverse of [`diagnostic_json`] over the diagnostic's own
/// fields (the `job`/`problem`/`method`/`rep` join keys belong to the
/// outcome the line rides with). The persistent outcome store replays
/// stored sidecar fragments through this.
///
/// # Errors
///
/// A human-readable message when the line is not a well-formed
/// diagnostic object.
pub fn parse_diagnostic_line(line: &str) -> Result<correctbench_verilog::Diagnostic, String> {
    use correctbench_verilog::{Rule, Severity};
    let v = crate::json::parse(line).map_err(|e| e.to_string())?;
    let string = |key: &str| {
        v.get(key)
            .and_then(crate::json::Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let rule_name = string("rule")?;
    let rule = Rule::from_name(&rule_name).ok_or_else(|| format!("unknown rule `{rule_name}`"))?;
    let severity = match string("severity")?.as_str() {
        "warning" => Severity::Warning,
        "error" => Severity::Error,
        other => return Err(format!("unknown severity `{other}`")),
    };
    Ok(correctbench_verilog::Diagnostic {
        rule,
        severity,
        module: string("module")?,
        signal: string("signal")?,
        location: string("location")?,
        message: string("message")?,
    })
}

/// Renders the deterministic static-analysis sidecar: one line per lint
/// diagnostic, jobs in canonical order and diagnostics in the report's
/// sorted order within each job. The lint pass is pure, so this file
/// shares `outcomes.jsonl`'s determinism contract (byte-identical
/// across thread counts and cache layers). Empty — but still written —
/// under `--lint=off` or when no job produced findings. Journal-replayed
/// (`--resume`) jobs contribute no lines — diagnostics are not
/// journaled, so the sidecar covers the jobs this process ran — but
/// store-replayed cells do: the persistent store keeps each cell's
/// sidecar fragments, so a warm run's `diagnostics.jsonl` matches the
/// cold run byte for byte.
pub fn diagnostics_jsonl(outcomes: &[TaskOutcome]) -> String {
    let mut s = String::new();
    for o in outcomes {
        for d in &o.lint {
            s.push_str(&diagnostic_json(o, d));
            s.push('\n');
        }
    }
    s
}

/// Renders one cache layer's counters as a JSON object (`null` when the
/// layer was disabled) for the timing sidecar's run line.
fn cache_json(stats: Option<correctbench_tbgen::CacheStats>) -> String {
    match stats {
        Some(s) => format!(
            "{{\"hits\":{},\"misses\":{},\"entries\":{}}}",
            s.hits, s.misses, s.entries
        ),
        None => "null".to_string(),
    }
}

/// Renders an optional count as a JSON number (`null` when absent).
fn optional_json(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Renders the persistent outcome store's counters as a JSON object
/// (`null` when no store was attached to the run) for the timing
/// sidecar's run line and `metrics.json`.
fn store_json(stats: Option<correctbench_store::StoreStats>) -> String {
    match stats {
        Some(s) => format!(
            "{{\"hits\":{},\"misses\":{},\"entries\":{},\"bytes\":{}}}",
            s.hits, s.misses, s.entries, s.bytes
        ),
        None => "null".to_string(),
    }
}

/// Renders a job's (or the run's total) phase breakdown as a JSON object
/// of exclusive per-phase microseconds (`null` when observability was
/// off).
fn phases_json(obs: Option<&JobObs>) -> String {
    match obs {
        Some(obs) => {
            let fields: Vec<String> = obs
                .phases()
                .map(|(name, ns)| format!("\"{name}\":{}", ns / 1_000))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        None => "null".to_string(),
    }
}

/// Renders a job's (or the run's) counter totals as a JSON object
/// (`null` when observability was off).
fn counters_json(obs: Option<&JobObs>) -> String {
    match obs {
        Some(obs) => {
            let fields: Vec<String> = obs
                .counter_values()
                .map(|(name, n)| format!("\"{name}\":{n}"))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        None => "null".to_string(),
    }
}

/// Renders the measured timing sidecar for one run (schema v2: job
/// lines carry the `method`/`rep`/`seed` join keys and, with
/// observability on, per-phase self-times and counters). Cache counters
/// and the process's peak resident set live on the run line, not in
/// `outcomes.jsonl`: they depend on worker interleaving, so they are
/// measurements, like wall times — the sidecar is where sweeps
/// attribute their wall-time and memory wins to the cache-stack layers
/// and the pipeline phases.
pub fn timings_jsonl(result: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\"run_wall_ms\":{},\"threads\":{},\"jobs\":{},\"peak_rss_bytes\":{},\"sim_cache\":{},\"golden_cache\":{},\"outcome_store\":{}}}",
        result.wall.as_millis(),
        result.threads,
        result.outcomes.len(),
        optional_json(result.peak_rss_bytes),
        cache_json(result.caches.sim),
        cache_json(result.caches.golden),
        store_json(result.store),
    );
    for o in &result.outcomes {
        let _ = writeln!(
            s,
            "{{\"job\":{},\"problem\":\"{}\",\"method\":\"{}\",\"rep\":{},\"seed\":{},\"wall_us\":{},\"phases\":{},\"counters\":{}}}",
            o.job_id,
            json_escape(&o.problem),
            o.method.name(),
            o.rep,
            o.seed,
            o.wall.as_micros(),
            phases_json(o.obs.as_ref()),
            counters_json(o.obs.as_ref()),
        );
    }
    s
}

/// Renders the run-level `metrics.json` artifact: run metadata, phase
/// and counter totals aggregated over every job's collector, the
/// cache-layer counters, the lint rollup and the latency rows of
/// [`crate::report::latency_rows`].
pub fn metrics_json(result: &RunResult) -> String {
    let mut totals = JobObs::default();
    let mut observed = 0usize;
    for o in &result.outcomes {
        if let Some(obs) = &o.obs {
            totals.merge(obs);
            observed += 1;
        }
    }
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"correctbench-metrics-v2\",");
    let _ = writeln!(s, "  \"run_wall_ms\": {},", result.wall.as_millis());
    let _ = writeln!(s, "  \"threads\": {},", result.threads);
    let _ = writeln!(s, "  \"jobs\": {},", result.outcomes.len());
    let _ = writeln!(s, "  \"observed_jobs\": {observed},");
    let _ = writeln!(
        s,
        "  \"peak_rss_bytes\": {},",
        optional_json(result.peak_rss_bytes)
    );
    let _ = writeln!(s, "  \"phase_totals_us\": {},", phases_json(Some(&totals)));
    let _ = writeln!(s, "  \"counter_totals\": {},", counters_json(Some(&totals)));
    let _ = writeln!(
        s,
        "  \"caches\": {{\"sim_cache\":{},\"golden_cache\":{},\"outcome_store\":{}}},",
        cache_json(result.caches.sim),
        cache_json(result.caches.golden),
        store_json(result.store),
    );
    // Per-rule diagnostic totals over the deterministic lint findings,
    // every rule of the taxonomy present (zeros included) so consumers
    // never need to guess the rule set.
    let lint = crate::report::lint_counts(&result.outcomes);
    let rule_fields: Vec<String> = correctbench_verilog::Rule::ALL
        .iter()
        .zip(lint)
        .map(|(rule, n)| format!("\"{}\":{n}", rule.name()))
        .collect();
    let _ = writeln!(
        s,
        "  \"lint\": {{\"diagnostics\":{},\"rules\":{{{}}}}},",
        lint.iter().sum::<usize>(),
        rule_fields.join(",")
    );
    let _ = writeln!(s, "  \"latency\": [");
    let rows = crate::report::latency_rows(&result.outcomes);
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"problem\":\"{}\",\"method\":\"{}\",\"count\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{},\"mean_us\":{}}}{comma}",
            json_escape(&r.problem),
            r.method,
            r.count,
            r.p50_us,
            r.p90_us,
            r.p99_us,
            r.max_us,
            r.mean_us,
        );
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

/// Paths of the files one run writes.
#[derive(Clone, Debug)]
pub struct ArtifactPaths {
    /// Deterministic outcome stream.
    pub outcomes: PathBuf,
    /// Deterministic static-analysis diagnostic stream.
    pub diagnostics: PathBuf,
    /// Measured timing sidecar.
    pub timings: PathBuf,
    /// Run-level aggregated metrics.
    pub metrics: PathBuf,
    /// Human-readable summary.
    pub summary: PathBuf,
}

/// Writes `contents` to `path` atomically: a sibling temp file is
/// written, flushed, and renamed over the destination, so a crash at
/// any instant leaves either the old file or the new one — never a
/// truncated hybrid.
///
/// # Errors
///
/// Any filesystem failure writing or renaming the temp file.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn artifact_paths(dir: &Path) -> ArtifactPaths {
    ArtifactPaths {
        outcomes: dir.join("outcomes.jsonl"),
        diagnostics: dir.join("diagnostics.jsonl"),
        timings: dir.join("timings.jsonl"),
        metrics: dir.join("metrics.json"),
        summary: dir.join("summary.txt"),
    }
}

/// Writes the artifact set of `result` under `dir` (created if
/// missing). Every file is written atomically ([`write_atomic`]).
///
/// # Errors
///
/// Any filesystem failure creating `dir` or writing a file.
pub fn write_artifacts(dir: &Path, result: &RunResult, summary: &str) -> io::Result<ArtifactPaths> {
    std::fs::create_dir_all(dir)?;
    let paths = artifact_paths(dir);
    write_atomic(&paths.outcomes, &outcomes_jsonl(&result.outcomes))?;
    write_sidecars(dir, result, summary)
}

/// Like [`write_artifacts`] but leaves `outcomes.jsonl` alone — the
/// tail of a journaled run, where the [`OutcomeJournal`] already wrote
/// (and never rewrites) the outcome stream.
///
/// # Errors
///
/// Any filesystem failure creating `dir` or writing a file.
pub fn write_sidecars(dir: &Path, result: &RunResult, summary: &str) -> io::Result<ArtifactPaths> {
    std::fs::create_dir_all(dir)?;
    let paths = artifact_paths(dir);
    write_atomic(&paths.diagnostics, &diagnostics_jsonl(&result.outcomes))?;
    write_atomic(&paths.timings, &timings_jsonl(result))?;
    write_atomic(&paths.metrics, &metrics_json(result))?;
    write_atomic(&paths.summary, summary)?;
    Ok(paths)
}

/// An append-only, per-line-flushed `outcomes.jsonl` writer.
///
/// Workers finish jobs in arbitrary order but the journal file must be
/// a prefix of the canonical stream at every instant (that is what
/// makes `--resume` sound): completed lines are parked in a reorder
/// buffer and the contiguous run starting at the next expected job id
/// is written and flushed line by line. After a SIGKILL the file is a
/// canonical prefix plus at most one torn trailing line.
///
/// IO errors are latched instead of panicking — a full disk must not
/// look like a job crash — and surfaced through
/// [`OutcomeJournal::take_error`] when the run finishes.
pub struct OutcomeJournal {
    inner: std::sync::Mutex<JournalInner>,
}

struct JournalInner {
    file: std::fs::File,
    /// Next job id to hit the file.
    next: usize,
    /// Completed lines waiting for their predecessors.
    pending: std::collections::BTreeMap<usize, String>,
    error: Option<io::Error>,
}

impl OutcomeJournal {
    /// Creates (or truncates) `path`, expecting job ids from 0.
    ///
    /// # Errors
    ///
    /// Any filesystem failure creating the file.
    pub fn create(path: &Path) -> io::Result<OutcomeJournal> {
        Self::with_file(std::fs::File::create(path)?, 0)
    }

    /// Opens `path` for append, expecting job ids from `completed` —
    /// the `--resume` constructor, called after the replay pass
    /// verified (and possibly truncated) the existing prefix.
    ///
    /// # Errors
    ///
    /// Any filesystem failure opening the file.
    pub fn resume(path: &Path, completed: usize) -> io::Result<OutcomeJournal> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Self::with_file(file, completed)
    }

    fn with_file(file: std::fs::File, next: usize) -> io::Result<OutcomeJournal> {
        Ok(OutcomeJournal {
            inner: std::sync::Mutex::new(JournalInner {
                file,
                next,
                pending: std::collections::BTreeMap::new(),
                error: None,
            }),
        })
    }

    /// Records job `job_id`'s rendered line and drains every line that
    /// is now contiguous, flushing after each so the on-disk file never
    /// runs ahead of what the OS was asked to persist.
    pub fn push(&self, job_id: usize, line: String) {
        use std::io::Write as _;
        let mut inner = self.inner.lock().expect("journal lock poisoned");
        if inner.error.is_some() {
            return;
        }
        inner.pending.insert(job_id, line);
        loop {
            let next = inner.next;
            let Some(line) = inner.pending.remove(&next) else {
                break;
            };
            let wrote = inner
                .file
                .write_all(line.as_bytes())
                .and_then(|()| inner.file.write_all(b"\n"))
                .and_then(|()| inner.file.flush());
            if let Err(e) = wrote {
                inner.error = Some(e);
                return;
            }
            inner.next += 1;
        }
    }

    /// The first IO error the journal hit, if any (taking it).
    pub fn take_error(&self) -> Option<io::Error> {
        self.inner
            .lock()
            .expect("journal lock poisoned")
            .error
            .take()
    }
}

/// Replays an interrupted run's `outcomes.jsonl`: parses the completed
/// prefix, discards a torn trailing line (truncating the file to the
/// last intact line, with a stderr warning), and verifies the lines are
/// exactly jobs `0..n` in order. The returned outcomes are what
/// `--resume` skips re-running.
///
/// # Errors
///
/// IO failures, or `InvalidData` when the journal is corrupt beyond a
/// torn tail (a broken or out-of-order line with more lines after it).
pub fn replay_journal(path: &Path) -> io::Result<Vec<TaskOutcome>> {
    let corrupt = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let bytes = std::fs::read(path)?;
    let text = String::from_utf8_lossy(&bytes);
    let mut outcomes: Vec<TaskOutcome> = Vec::new();
    // Byte offset after the last intact line — where a torn tail gets
    // truncated back to.
    let mut good_end = 0u64;
    let mut pos = 0usize;
    for chunk in text.split_inclusive('\n') {
        let start = pos;
        pos += chunk.len();
        let is_last = pos >= text.len();
        let line = chunk.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            good_end = pos as u64;
            continue;
        }
        let parsed = if chunk.ends_with('\n') {
            // A line without its newline is a torn write even if the
            // JSON happens to close.
            parse_outcome_line(line)
        } else {
            Err("no trailing newline".to_string())
        };
        match parsed {
            Ok(o) => {
                if o.job_id != outcomes.len() {
                    return Err(corrupt(format!(
                        "{}: line {} has job id {}, expected {}",
                        path.display(),
                        outcomes.len() + 1,
                        o.job_id,
                        outcomes.len()
                    )));
                }
                outcomes.push(o);
                good_end = pos as u64;
            }
            Err(e) if is_last => {
                eprintln!(
                    "warning: {}: discarding torn trailing line at byte {start} ({e})",
                    path.display()
                );
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(good_end)?;
                break;
            }
            Err(e) => {
                return Err(corrupt(format!(
                    "{}: corrupt journal line at byte {start}: {e}",
                    path.display()
                )));
            }
        }
    }
    Ok(outcomes)
}

/// Renders the `plan.json` run manifest: everything `--resume` needs to
/// rebuild the interrupted run's plan (problems by name, methods,
/// model, seeds, simulation budget, store attachment). The pipeline
/// `Config` is not recorded — the run binary always uses the default
/// configuration, whose knobs the recorded `config_fingerprint` covers:
/// `--resume` recomputes the fingerprint from the rebuilt plan and
/// refuses to replay a directory whose manifest fingerprint no longer
/// matches (problem content, defaults or schema drifted since the
/// original run).
pub fn plan_manifest_json(plan: &crate::plan::RunPlan) -> String {
    let problems: Vec<String> = plan
        .problems
        .iter()
        .map(|p| format!("\"{}\"", json_escape(&p.name)))
        .collect();
    let methods: Vec<String> = plan
        .methods
        .iter()
        .map(|m| format!("\"{}\"", m.name()))
        .collect();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
    let store = match &plan.store {
        Some(s) => format!(
            "{{\"dir\":\"{}\",\"readonly\":{}}}",
            json_escape(&s.dir),
            s.readonly
        ),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"schema\":\"correctbench-plan-v1\",\"name\":\"{}\",",
            "\"problems\":[{}],\"methods\":[{}],\"model\":\"{}\",",
            "\"reps\":{},\"base_seed\":{},\"sim_budget\":{},",
            "\"lint\":\"{}\",\"config_fingerprint\":\"{}\",\"store\":{}}}\n"
        ),
        json_escape(&plan.name),
        problems.join(","),
        methods.join(","),
        plan.model.as_str(),
        plan.reps,
        plan.base_seed,
        opt(plan.sim_budget),
        plan.lint.name(),
        crate::storebridge::plan_fingerprint(plan),
        store,
    )
}

/// The `config_fingerprint` a manifest recorded; `None` when it records
/// none (as manifests written before the persistent store existed do),
/// which `--resume` refuses like a mismatch.
pub fn manifest_fingerprint(src: &str) -> Option<String> {
    let v = crate::json::parse(src.trim_end()).ok()?;
    v.get("config_fingerprint")
        .and_then(crate::json::Value::as_str)
        .map(str::to_string)
}

/// Parses a `plan.json` manifest back into the [`crate::plan::RunPlan`] it recorded.
///
/// # Errors
///
/// A human-readable message on schema mismatch, malformed JSON, or a
/// problem name the dataset does not know.
pub fn parse_plan_manifest(src: &str) -> Result<crate::plan::RunPlan, String> {
    use correctbench::Method;
    use correctbench_llm::ModelKind;
    let v = crate::json::parse(src.trim_end()).map_err(|e| e.to_string())?;
    if v.get("schema").and_then(crate::json::Value::as_str) != Some("correctbench-plan-v1") {
        return Err("not a correctbench-plan-v1 manifest".to_string());
    }
    let string = |key: &str| {
        v.get(key)
            .and_then(crate::json::Value::as_str)
            .ok_or_else(|| format!("missing string field `{key}`"))
    };
    let names = |key: &str| match v.get(key) {
        Some(crate::json::Value::Arr(items)) => items
            .iter()
            .map(|i| {
                i.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("non-string entry in `{key}`"))
            })
            .collect::<Result<Vec<String>, String>>(),
        _ => Err(format!("missing array field `{key}`")),
    };
    let opt = |key: &str| match v.get(key) {
        Some(crate::json::Value::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("bad field `{key}`")),
        None => Err(format!("missing field `{key}`")),
    };
    let problems = names("problems")?
        .iter()
        .map(|name| {
            correctbench_dataset::problem(name).ok_or_else(|| format!("unknown problem `{name}`"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let methods = names("methods")?
        .iter()
        .map(|name| {
            Method::ALL
                .into_iter()
                .find(|m| m.name() == *name)
                .ok_or_else(|| format!("unknown method `{name}`"))
        })
        .collect::<Result<Vec<Method>, String>>()?;
    let model_name = string("model")?;
    let model = [
        ModelKind::Gpt4o,
        ModelKind::Claude35Sonnet,
        ModelKind::Gpt4oMini,
    ]
    .into_iter()
    .find(|m| m.as_str() == model_name)
    .ok_or_else(|| format!("unknown model `{model_name}`"))?;
    let mut plan = crate::plan::RunPlan::new(string("name")?.to_string(), problems);
    plan.methods = methods;
    plan.model = model;
    plan.reps = opt("reps")?.ok_or("null field `reps`")?;
    plan.base_seed = opt("base_seed")?.ok_or("null field `base_seed`")?;
    plan.sim_budget = opt("sim_budget")?;
    let lint = string("lint")?;
    plan.lint = crate::plan::LintMode::from_name(lint)
        .ok_or_else(|| format!("unknown lint mode `{lint}`"))?;
    plan.store = match v.get("store") {
        None => return Err("missing field `store`".to_string()),
        Some(crate::json::Value::Null) => None,
        Some(store @ crate::json::Value::Obj(_)) => {
            let dir = store
                .get("dir")
                .and_then(crate::json::Value::as_str)
                .ok_or("bad field `store.dir`")?
                .to_string();
            let readonly = match store.get("readonly") {
                Some(crate::json::Value::Bool(b)) => *b,
                _ => return Err("bad field `store.readonly`".to_string()),
            };
            Some(crate::plan::StoreConfig { dir, readonly })
        }
        Some(_) => return Err("bad field `store`".to_string()),
    };
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_handles_controls_and_quotes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\u{1}"), "x\\n\\t\\u0001");
    }
}
