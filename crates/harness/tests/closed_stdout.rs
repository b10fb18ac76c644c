//! A closed stdout (`correctbench-run … | head -3`, or a reader that has
//! what it wants and exits) must neither panic a command nor lose a
//! run's artifacts: a run writes its artifacts before its summary, and
//! every command stops writing quietly at a `BrokenPipe`, with the exit
//! code its work earned.

use std::process::{Command, Stdio};

/// Runs `cmd` with the read end of its stdout closed right after spawn,
/// so its writes to stdout fail with `BrokenPipe`, and asserts that it
/// exits 0 without panicking.
fn assert_quiet_success_with_closed_stdout(what: &str, cmd: &mut Command) {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && !stderr.contains("panicked"),
        "{what} with a closed stdout: {:?}\n{stderr}",
        out.status
    );
}

#[test]
fn a_closed_stdout_loses_no_artifact_and_panics_no_command() {
    let dir =
        std::env::temp_dir().join(format!("correctbench_closed_stdout_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    assert_quiet_success_with_closed_stdout(
        "correctbench-run",
        Command::new(env!("CARGO_BIN_EXE_correctbench-run"))
            .args(["--problems", "2", "--reps", "1", "--threads", "1"])
            .arg("--out")
            .arg(&dir),
    );
    for artifact in [
        "plan.json",
        "outcomes.jsonl",
        "diagnostics.jsonl",
        "timings.jsonl",
        "metrics.json",
        "summary.txt",
    ] {
        assert!(dir.join(artifact).is_file(), "{artifact} missing");
    }
    assert_quiet_success_with_closed_stdout(
        "correctbench-report",
        Command::new(env!("CARGO_BIN_EXE_correctbench-report")).arg(&dir),
    );
    std::fs::remove_dir_all(&dir).ok();
}
