//! `correctbench-store ls` and `verify` with a closed stdout (`ls DIR |
//! head -3`) stop writing quietly and exit 0 on an intact store, instead
//! of panicking on the `BrokenPipe`.

use correctbench_store::{CellKey, OutcomeStore};
use correctbench_verilog::Fingerprint;
use std::process::{Command, Output, Stdio};

/// Runs `correctbench-store COMMAND DIR` with the read end of its stdout
/// closed right after spawn, so its writes to stdout fail with
/// `BrokenPipe`.
fn run_with_closed_stdout(command: &str, dir: &std::path::Path) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_correctbench-store"))
        .arg(command)
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    child.wait_with_output().expect("wait")
}

#[test]
fn ls_and_verify_with_a_closed_stdout_exit_0() {
    let dir = std::env::temp_dir().join(format!(
        "correctbench_closed_stdout_store_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = OutcomeStore::open(&dir).expect("open store");
    for i in 0..64 {
        let key = CellKey {
            job: Fingerprint(i),
            config: Fingerprint(7),
        };
        store.put(&key, "{\"job\":0}\n").expect("put");
    }
    store.flush().expect("flush");
    drop(store);
    for command in ["ls", "verify"] {
        let out = run_with_closed_stdout(command, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && !stderr.contains("panicked"),
            "correctbench-store {command} with a closed stdout: {:?}\n{stderr}",
            out.status
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
