//! The persistent outcome store's end-to-end contract, driven through
//! the real `correctbench-run` binary:
//!
//! * a warm re-run of an unchanged plan replays every cell (hits ==
//!   jobs, nothing executes) and its `outcomes.jsonl` /
//!   `diagnostics.jsonl` are byte-identical to the cold run's — at any
//!   thread count — while its `timings.jsonl` reports only the warm
//!   run's own work: no phase time, no simulator counters, one store
//!   hit per job — and it leaves the store directory byte-identical;
//! * mutating one problem's source moves exactly that problem's cell
//!   fingerprints, so only its cells re-execute;
//! * `--store-readonly` replays without ever writing to the store.

use correctbench_harness::json::{parse, Value};
use correctbench_harness::{problem_subset, JobObs};
use correctbench_obs::{Counter, Phase};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("correctbench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn run_binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_correctbench-run"))
        .args(args)
        .output()
        .expect("run correctbench-run")
}

/// The smoke sweep every test here uses: 2 problems x 3 methods x 1 rep
/// = 6 jobs.
const JOBS: usize = 6;

fn sweep(threads: &str, out: &Path, store: &Path) -> Vec<String> {
    [
        "--problems",
        "2",
        "--reps",
        "1",
        "--seed",
        "11",
        "--quiet",
        "--threads",
        threads,
        "--out",
        out.to_str().expect("utf8 path"),
        "--store",
        store.to_str().expect("utf8 path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("read {file}: {e}"))
}

fn summary_store_line(dir: &Path) -> String {
    let summary = String::from_utf8(read(dir, "summary.txt")).expect("summary utf8");
    summary
        .lines()
        .find(|l| l.starts_with("outcome store: "))
        .unwrap_or_else(|| panic!("no store line in summary:\n{summary}"))
        .to_string()
}

/// Every job line's phases and counters in `timings.jsonl`, read back
/// by name and merged (phases are whole microseconds there).
fn merged_obs(dir: &Path) -> JobObs {
    let timings = String::from_utf8(read(dir, "timings.jsonl")).expect("timings utf8");
    let field = |v: &Value, key: &str, name: &str| -> u64 {
        v.get(key)
            .and_then(|o| o.get(name))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no {key}.{name} in timings job line"))
    };
    let mut total = JobObs::default();
    for line in timings.lines().skip(1) {
        let v = parse(line).expect("job line parses");
        let mut job = JobObs::default();
        for p in Phase::ALL {
            job.phase_ns[p as usize] = field(&v, "phases", p.name()) * 1_000;
        }
        for c in Counter::ALL {
            job.counters[c as usize] = field(&v, "counters", c.name());
        }
        total.merge(&job);
    }
    total
}

/// Every file of the store (top level and segments) with its bytes.
fn snapshot(store: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = [store.to_path_buf(), store.join("segments")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("read store dir"))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.is_file())
        .map(|path| (path.clone(), std::fs::read(&path).expect("read store file")))
        .collect();
    files.sort();
    files
}

fn assert_same_artifacts(cold: &Path, warm: &Path) {
    for file in ["outcomes.jsonl", "diagnostics.jsonl"] {
        let (c, w) = (read(cold, file), read(warm, file));
        assert!(
            c == w,
            "{file} diverged between cold and warm runs:\n--- cold ---\n{}\n--- warm ---\n{}",
            String::from_utf8_lossy(&c),
            String::from_utf8_lossy(&w),
        );
    }
}

#[test]
fn warm_rerun_replays_every_cell_byte_identically_across_thread_counts() {
    let store = tmpdir("store_warm");
    let cold_dir = tmpdir("store_cold_out");
    let cold = run_binary(
        &sweep("2", &cold_dir, &store)
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    // The cold run saw an empty store: every cell missed, then published.
    assert_eq!(
        summary_store_line(&cold_dir)
            .split(" hits")
            .next()
            .expect("split"),
        "outcome store: 0",
        "cold run must start from zero hits"
    );
    // The manifest records the attachment.
    let manifest = String::from_utf8(read(&cold_dir, "plan.json")).expect("manifest utf8");
    assert!(
        manifest.contains("\"store\":{\"dir\":") && manifest.contains("\"readonly\":false"),
        "plan.json must record the store attachment:\n{manifest}"
    );
    assert!(
        !store.join("hits.tsv").exists(),
        "the store keeps no hit ledger"
    );
    let filled = snapshot(&store);

    for threads in ["1", "4", "8"] {
        let warm_dir = tmpdir(&format!("store_warm_out_{threads}"));
        let warm = run_binary(
            &sweep(threads, &warm_dir, &store)
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
        );
        assert!(warm.status.success(), "warm run failed: {warm:?}");
        let line = summary_store_line(&warm_dir);
        assert!(
            line.starts_with(&format!("outcome store: {JOBS} hits / 0 misses")),
            "warm run on {threads} threads must replay all {JOBS} cells: {line}"
        );
        assert_same_artifacts(&cold_dir, &warm_dir);
        // A replayed job did no work in this run, and says so.
        let obs = merged_obs(&warm_dir);
        assert_eq!(obs.total_phase_ns(), 0, "warm phases: {obs:?}");
        assert_eq!(obs.counter(Counter::SimInstrs), 0, "warm counters: {obs:?}");
        assert_eq!(obs.counter(Counter::StoreHits), JOBS as u64);
        assert!(
            snapshot(&store) == filled,
            "a fully warm run on {threads} threads wrote to the store"
        );
        let _ = std::fs::remove_dir_all(&warm_dir);
    }
    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn mutating_one_problem_reexecutes_only_its_cells() {
    let store = tmpdir("store_mutate");
    let cold_dir = tmpdir("store_mutate_cold");
    let cold = run_binary(
        &sweep("2", &cold_dir, &store)
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(cold.status.success(), "cold run failed: {cold:?}");

    // Appending a comment to one problem's golden RTL moves its job
    // fingerprints without changing behavior: its 3 cells (one per
    // method) miss, the other problem's 3 still hit, and the artifacts
    // stay byte-identical because comments never reach simulation.
    let victim = problem_subset(Some(2))[0].name.clone();
    let warm_dir = tmpdir("store_mutate_warm");
    let mut args = sweep("2", &warm_dir, &store);
    args.push("--mutate-golden".to_string());
    args.push(victim.clone());
    let warm = run_binary(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(warm.status.success(), "mutated warm run failed: {warm:?}");
    let line = summary_store_line(&warm_dir);
    assert!(
        line.starts_with(&format!("outcome store: {} hits / 3 misses", JOBS - 3)),
        "mutating `{victim}` must re-execute exactly its 3 cells: {line}"
    );
    assert_same_artifacts(&cold_dir, &warm_dir);

    // The re-executed cells were republished under the new fingerprints:
    // repeating the mutated run is now fully warm again.
    let warm2_dir = tmpdir("store_mutate_warm2");
    let mut args = sweep("2", &warm2_dir, &store);
    args.push("--mutate-golden".to_string());
    args.push(victim);
    let warm2 = run_binary(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        warm2.status.success(),
        "second mutated run failed: {warm2:?}"
    );
    let line = summary_store_line(&warm2_dir);
    assert!(
        line.starts_with(&format!("outcome store: {JOBS} hits / 0 misses")),
        "republished cells must hit on the next run: {line}"
    );
    for dir in [&store, &cold_dir, &warm_dir, &warm2_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn readonly_attachment_replays_without_writing() {
    let store = tmpdir("store_ro");
    let cold_dir = tmpdir("store_ro_cold");
    let cold = run_binary(
        &sweep("2", &cold_dir, &store)
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(cold.status.success(), "cold run failed: {cold:?}");

    // Snapshot every store file before the readonly run.
    let snapshot = |dir: &Path| -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).expect("read_dir") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let bytes = std::fs::read(&path).expect("read store file");
                    files.push((path, bytes));
                }
            }
        }
        files.sort();
        files
    };
    let before = snapshot(&store);

    let warm_dir = tmpdir("store_ro_warm");
    let mut args = sweep("2", &warm_dir, &store);
    args.push("--store-readonly".to_string());
    let warm = run_binary(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(warm.status.success(), "readonly run failed: {warm:?}");
    let line = summary_store_line(&warm_dir);
    assert!(
        line.starts_with(&format!("outcome store: {JOBS} hits / 0 misses")),
        "readonly warm run must still replay everything: {line}"
    );
    assert_same_artifacts(&cold_dir, &warm_dir);
    assert_eq!(
        snapshot(&store),
        before,
        "a readonly attachment must not modify the store"
    );
    // The readonly flag is recorded in the manifest, too.
    let manifest = String::from_utf8(read(&warm_dir, "plan.json")).expect("manifest utf8");
    assert!(
        manifest.contains("\"readonly\":true"),
        "plan.json must record the readonly attachment:\n{manifest}"
    );
    for dir in [&store, &cold_dir, &warm_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
