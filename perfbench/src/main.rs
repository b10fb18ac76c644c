//! `perfbench-trace`: one traced in-process run of a benchmark plan through
//! the harness's public API.
//!
//! ```text
//! perfbench-trace [--full] [--problems N] [--reps N] [--seed N] [--threads N]
//!                 --out DIR [--methods cb,ab,base] [--store DIR]
//! ```
//!
//! The run takes the steps `correctbench-run` takes — plan expansion, the
//! store probe loop, `Engine::execute_replayed` behind a journal, the store
//! flush, the summary and the sidecars — and records a span around each of
//! those public calls. Spans carry name, start, end, parent and job id;
//! they stay in memory and are written to `DIR/spans.jsonl` when the run
//! ends. Job spans come from an outcome hook (end = when the hook ran,
//! start = end minus `TaskOutcome::wall`); LLM request spans come from a
//! `ClientFactory` wrapper and are children of their job's span.
//!
//! Layers that cannot be wrapped from outside the program (verilog,
//! checker, core, autoeval and the tbgen caches) are read from each
//! executed job's `TaskOutcome::obs` fragment and from the run's
//! `CacheStack` stats. Replayed cells carry the fragment of the process
//! that executed them, so only executed jobs count toward those layers.
//!
//! Prints the per-layer metrics on stdout as one JSON object.

#![forbid(unsafe_code)]

use correctbench::{Action, Method};
use correctbench_harness::cli::{usage, RunArgs};
use correctbench_harness::{
    cell_key, config_fingerprint, decode_cell, encode_cell, plan_manifest_json, problem_subset,
    render_summary, write_atomic, write_sidecars, CellKey, Engine, OutcomeJournal, OutcomeStore,
    RunPlan, RunResult, StoreConfig, TaskOutcome,
};
use correctbench_llm::{
    ClientFactory, LlmClient, LlmRequest, LlmResponse, ModelKind, SimulatedClientFactory,
    TokenUsage,
};
use correctbench_obs::{Counter, JobObs, Phase};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

const EXTRA_USAGE: &str = "--out DIR [--methods cb,ab,base] [--store DIR]";

/// One recorded span; times are nanoseconds since the trace's epoch.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    /// Index of the parent span. LLM request spans leave it empty and
    /// name their job instead: the job's span only exists once the job
    /// has ended, so the link is made when the spans are written.
    parent: Option<usize>,
    job: Option<usize>,
    /// Worker (0-based, in order of first job end) that ran a job span.
    worker: Option<usize>,
}

/// The in-memory span recorder.
struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    workers: Mutex<HashMap<ThreadId, usize>>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            workers: Mutex::new(HashMap::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that will have children; [`Trace::close`] ends it.
    fn open(&self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = self.now();
        Some(self.push(Span {
            name,
            start: now,
            end: now,
            parent,
            job: None,
            worker: None,
        }))
    }

    fn close(&self, span: Option<usize>) {
        if let Some(i) = span {
            let now = self.now();
            self.spans.lock().expect("span buffer poisoned")[i].end = now;
        }
    }

    /// Runs `f` inside a leaf span.
    fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        self.push(Span {
            name,
            start,
            end: self.now(),
            parent,
            job,
            worker: None,
        });
        r
    }

    fn worker_index(&self, id: ThreadId) -> usize {
        let mut workers = self.workers.lock().expect("worker table poisoned");
        let next = workers.len();
        *workers.entry(id).or_insert(next)
    }

    /// Total duration of the spans named `name`, in seconds.
    fn total_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span buffer poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum::<u64>() as f64
            / 1e9
    }

    fn count(&self, name: &str) -> usize {
        let spans = self.spans.lock().expect("span buffer poisoned");
        spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON line, linking LLM request spans to
    /// their job's span.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let job_span: HashMap<usize, usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "harness.worker.job")
            .filter_map(|(i, s)| s.job.map(|j| (j, i)))
            .collect();
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
        let mut text = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.or_else(|| {
                s.job
                    .and_then(|j| job_span.get(&j).copied())
                    .filter(|p| *p != i)
            });
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{},\"worker\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(parent),
                opt(s.job),
                opt(s.worker)
            );
        }
        std::fs::write(path, text)
    }
}

/// A [`ClientFactory`] whose clients time every request into the trace.
struct TracedFactory {
    inner: SimulatedClientFactory,
    trace: Arc<Trace>,
    /// Job seeds are unique within a plan, so the seed a client is built
    /// from names the job it serves.
    job_of_seed: HashMap<u64, usize>,
}

impl ClientFactory for TracedFactory {
    fn client(&self, seed: u64) -> Box<dyn LlmClient + Send> {
        Box::new(TracedClient {
            inner: self.inner.client(seed),
            trace: Arc::clone(&self.trace),
            job: self.job_of_seed.get(&seed).copied(),
        })
    }

    fn model(&self) -> ModelKind {
        self.inner.model()
    }
}

struct TracedClient {
    inner: Box<dyn LlmClient + Send>,
    trace: Arc<Trace>,
    job: Option<usize>,
}

impl LlmClient for TracedClient {
    fn request(&mut self, req: &LlmRequest<'_>) -> LlmResponse {
        let inner = &mut self.inner;
        self.trace
            .time("llm.request", None, self.job, || inner.request(req))
    }

    fn usage(&self) -> TokenUsage {
        self.inner.usage()
    }
}

fn parse_methods(spec: &str) -> Vec<Method> {
    spec.split(',')
        .map(|m| match m.trim() {
            "cb" | "correctbench" => Method::CorrectBench,
            "ab" | "autobench" => Method::AutoBench,
            "base" | "baseline" => Method::Baseline,
            other => usage(&format!("unknown method `{other}`"), EXTRA_USAGE),
        })
        .collect()
}

fn infra(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn main() {
    let mut methods = Method::ALL.to_vec();
    let mut store_dir: Option<PathBuf> = None;
    let args = RunArgs::parse_with(Some(48), 2, EXTRA_USAGE, |flag, it| match flag {
        "--methods" => {
            let spec = it
                .next()
                .unwrap_or_else(|| usage("--methods needs a list", EXTRA_USAGE));
            methods = parse_methods(&spec);
            true
        }
        "--store" => {
            store_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                usage("--store needs a store directory", EXTRA_USAGE)
            })));
            true
        }
        _ => false,
    });
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| usage("--out is required", EXTRA_USAGE));

    let trace = Arc::new(Trace::new());
    let root = trace.open("run", None);

    let problems = trace.time("harness.plan.problem_subset", root, None, || {
        problem_subset(args.problems)
    });
    let mut plan = RunPlan::new("correctbench-run", problems);
    plan.methods = methods;
    plan.reps = args.reps;
    plan.base_seed = args.seed;
    plan.store = store_dir.as_ref().map(|dir| StoreConfig {
        dir: dir.display().to_string(),
        readonly: false,
    });

    let store: Option<Arc<OutcomeStore>> = store_dir.as_ref().map(|dir| {
        let handle = trace
            .time("store.open", root, None, || OutcomeStore::open(dir))
            .unwrap_or_else(|e| infra(&format!("cannot open store {}: {e}", dir.display())));
        for w in handle.warnings() {
            eprintln!("warning: store: {w}");
        }
        Arc::new(handle)
    });
    let config_fp = config_fingerprint(&plan);
    let jobs = trace.time("harness.plan.jobs", root, None, || plan.jobs());

    // The store probe loop of `correctbench-run`, call for call.
    let mut replayed: Vec<TaskOutcome> = Vec::new();
    if let Some(store) = &store {
        let probe = trace.open("harness.storebridge.probe", root);
        for job in &jobs {
            let id = Some(job.id);
            let key = trace.time("harness.storebridge.cell_key", probe, id, || {
                cell_key(job, config_fp)
            });
            let Some(payload) = trace.time("store.get", probe, id, || store.get(&key)) else {
                continue;
            };
            match trace.time("harness.storebridge.decode", probe, id, || {
                decode_cell(&payload, job, true)
            }) {
                Ok(outcome) => replayed.push(outcome),
                Err(e) => {
                    eprintln!("warning: store: cell {key} unusable ({e}); re-executing");
                    store.discount_hit(&key);
                }
            }
        }
        trace.close(probe);
    }
    let replayed_ids: HashSet<usize> = replayed.iter().map(|o| o.job_id).collect();

    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| infra(&format!("cannot create {}: {e}", out.display())));
    write_atomic(&out.join("plan.json"), &plan_manifest_json(&plan))
        .unwrap_or_else(|e| infra(&format!("cannot write plan manifest: {e}")));
    let journal = OutcomeJournal::create(&out.join("outcomes.jsonl"))
        .unwrap_or_else(|e| infra(&format!("cannot create journal: {e}")));

    let exec = trace.open("harness.scheduler.execute", root);
    // One hook stamps the job spans and serves the store's publish path,
    // as in `correctbench-run`.
    let publish = store.as_ref().map(|store| {
        let keys: Vec<CellKey> = jobs.iter().map(|j| cell_key(j, config_fp)).collect();
        (Arc::clone(store), keys)
    });
    let hook_trace = Arc::clone(&trace);
    let engine = Engine::new(args.threads)
        .with_store_active(store.is_some())
        .with_outcome_hook(Box::new(move |o: &TaskOutcome| {
            let end = hook_trace.now();
            let worker = hook_trace.worker_index(std::thread::current().id());
            hook_trace.push(Span {
                name: "harness.worker.job",
                start: end.saturating_sub(o.wall.as_nanos() as u64),
                end,
                parent: exec,
                job: Some(o.job_id),
                worker: Some(worker),
            });
            if let Some((store, keys)) = &publish {
                if o.failure.is_none() {
                    if let Err(e) = store.put(&keys[o.job_id], &encode_cell(o)) {
                        eprintln!("warning: store publish failed: {e}");
                    }
                }
            }
        }));
    let factory = TracedFactory {
        inner: SimulatedClientFactory::for_model(plan.model),
        trace: Arc::clone(&trace),
        job_of_seed: jobs.iter().map(|j| (j.seed, j.id)).collect(),
    };
    let result = engine.execute_replayed(&plan, &factory, Some(&journal), 0, replayed);
    trace.close(exec);
    if let Some(e) = journal.take_error() {
        infra(&format!("journal write failed: {e}"));
    }

    let store_stats = store.as_ref().map(|s| {
        if let Err(e) = trace.time("store.flush", root, None, || s.flush()) {
            eprintln!("warning: store flush failed: {e}");
        }
        s.stats()
    });
    let result = RunResult {
        store: store_stats,
        ..result
    };
    let summary = trace.time("harness.report.summary", root, None, || {
        render_summary(&plan, &result)
    });
    trace
        .time("harness.artifact.sidecars", root, None, || {
            write_sidecars(&out, &result, &summary)
        })
        .unwrap_or_else(|e| infra(&format!("failed to write artifacts: {e}")));
    trace.close(root);

    let executed: Vec<&TaskOutcome> = result
        .outcomes
        .iter()
        .filter(|o| !replayed_ids.contains(&o.job_id))
        .collect();
    let metrics = layer_metrics(&trace, &result, &executed, &out, args.threads);
    trace
        .write(&out.join("spans.jsonl"))
        .unwrap_or_else(|e| infra(&format!("cannot write spans: {e}")));
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    println!("{{{}}}", fields.join(","));
}

/// The per-layer metrics of a traced run, in a fixed order.
fn layer_metrics(
    trace: &Trace,
    result: &RunResult,
    executed: &[&TaskOutcome],
    out: &Path,
    threads: usize,
) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));
    let secs = |ns: u64| ns as f64 / 1e9;

    let (exec_start, exec_end, job_ends) = {
        let spans = trace.spans.lock().expect("span buffer poisoned");
        let exec = spans
            .iter()
            .find(|s| s.name == "harness.scheduler.execute")
            .expect("the execute span is always recorded");
        let mut last_end: HashMap<usize, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.name == "harness.worker.job") {
            let w = s.worker.expect("job spans name their worker");
            let e = last_end.entry(w).or_insert(0);
            *e = (*e).max(s.end);
        }
        (exec.start, exec.end, last_end)
    };
    let exec_s = secs(exec_end - exec_start);
    let busy_s: f64 = executed.iter().map(|o| o.wall.as_secs_f64()).sum();
    // Workers that never finished a job idled for the whole execution.
    let tail_idle_s: f64 = (0..threads)
        .map(|w| secs(exec_end - job_ends.get(&w).copied().unwrap_or(exec_start)))
        .sum();

    put(
        "harness.plan.expand_s",
        trace.total_s("harness.plan.problem_subset") + trace.total_s("harness.plan.jobs"),
    );
    put(
        "harness.scheduler.utilization",
        if exec_s > 0.0 {
            busy_s / (threads as f64 * exec_s)
        } else {
            0.0
        },
    );
    put("harness.scheduler.tail_idle_s", tail_idle_s);
    put("harness.worker.busy_s", busy_s);
    put(
        "harness.worker.aborts",
        executed.iter().filter(|o| o.failure.is_some()).count() as f64,
    );
    put(
        "harness.artifact.sidecars_s",
        trace.total_s("harness.artifact.sidecars"),
    );
    let artifact_bytes: u64 = [
        "outcomes.jsonl",
        "plan.json",
        "diagnostics.jsonl",
        "timings.jsonl",
        "metrics.json",
        "summary.txt",
    ]
    .iter()
    .filter_map(|f| std::fs::metadata(out.join(f)).ok())
    .map(|md| md.len())
    .sum();
    put("harness.artifact.bytes", artifact_bytes as f64);
    put(
        "harness.storebridge.cell_key_s",
        trace.total_s("harness.storebridge.cell_key"),
    );
    put(
        "harness.storebridge.decode_s",
        trace.total_s("harness.storebridge.decode"),
    );
    put("store.open_s", trace.total_s("store.open"));
    put("store.get_s", trace.total_s("store.get"));
    put("store.flush_s", trace.total_s("store.flush"));
    let store = result.store.unwrap_or_default();
    put("store.hits", store.hits as f64);
    put("store.misses", store.misses as f64);
    put("store.bytes", store.bytes as f64);

    let mut obs = JobObs::default();
    for o in executed {
        if let Some(job_obs) = &o.obs {
            obs.merge(job_obs);
        }
    }
    let phase = |p: Phase| secs(obs.phase(p));
    let counter = |c: Counter| obs.counter(c) as f64;
    put("llm.requests", trace.count("llm.request") as f64);
    put("llm.busy_s", trace.total_s("llm.request"));
    put(
        "llm.tokens_in",
        executed.iter().map(|o| o.tokens.input_tokens).sum::<u64>() as f64,
    );
    put(
        "llm.tokens_out",
        executed.iter().map(|o| o.tokens.output_tokens).sum::<u64>() as f64,
    );
    put("llm.retries", counter(Counter::LlmRetries));

    let correctbench: Vec<&&TaskOutcome> = executed
        .iter()
        .filter(|o| o.method == Method::CorrectBench)
        .collect();
    put("core.validate.self_s", phase(Phase::Validate));
    // Every validator verdict appends exactly one action to the trace.
    put(
        "core.validations",
        correctbench.iter().map(|o| o.trace.len()).sum::<usize>() as f64,
    );
    // `TaskOutcome::corrections` restarts at zero on every reboot; the
    // trace keeps every correction round.
    put(
        "core.corrections",
        correctbench
            .iter()
            .map(|o| o.trace.iter().filter(|a| **a == Action::Correcting).count())
            .sum::<usize>() as f64,
    );
    put(
        "core.reboots",
        correctbench.iter().map(|o| o.reboots as u64).sum::<u64>() as f64,
    );
    put("autoeval.self_s", phase(Phase::Autoeval));
    put("verilog.lint.busy_s", phase(Phase::Lint));
    put("verilog.lint.diags", counter(Counter::LintDiags));
    put("verilog.parse.busy_s", phase(Phase::Parse));
    put("verilog.elab.busy_s", phase(Phase::Elab));
    put("verilog.compile.busy_s", phase(Phase::Compile));
    put("checker.judge.busy_s", phase(Phase::Judge));
    put("checker.judge.commits", counter(Counter::JudgeCommits));
    let sim_s = phase(Phase::Simulate);
    let events = counter(Counter::SimEvents);
    let instrs = counter(Counter::SimInstrs);
    put("verilog.sim.busy_s", sim_s);
    put("verilog.sim.events", events);
    put("verilog.sim.instrs", instrs);
    put("verilog.sim.nba_commits", counter(Counter::NbaCommits));
    put(
        "verilog.sim.instrs_per_event",
        if events > 0.0 { instrs / events } else { 0.0 },
    );
    put(
        "verilog.sim.events_per_s",
        if sim_s > 0.0 { events / sim_s } else { 0.0 },
    );

    let caches = &result.caches;
    for (layer, stats) in [
        ("sim_cache", caches.sim),
        ("elab_cache", caches.elab),
        ("session_pool", caches.sessions),
        ("golden_cache", caches.golden),
        ("lint_cache", caches.lint),
    ] {
        let s = stats.unwrap_or_default();
        let probes = s.hits + s.misses;
        put(&format!("tbgen.{layer}.hits"), s.hits as f64);
        put(&format!("tbgen.{layer}.misses"), s.misses as f64);
        put(
            &format!("tbgen.{layer}.hit_ratio"),
            if probes > 0 {
                s.hits as f64 / probes as f64
            } else {
                0.0
            },
        );
        put(&format!("tbgen.{layer}.entries"), s.entries as f64);
    }
    put(
        "obs.uncovered_s",
        executed
            .iter()
            .filter_map(|o| {
                o.obs.as_ref().map(|obs| {
                    secs((o.wall.as_nanos() as u64).saturating_sub(obs.total_phase_ns()))
                })
            })
            .sum(),
    );
    m
}
