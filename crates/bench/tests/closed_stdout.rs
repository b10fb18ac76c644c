//! A closed stdout (`fig7 | head -1`, or a reader that has what it wants
//! and exits) must not panic a paper binary: each writes through
//! `harness::cli::print_or_exit`, which exits 0 at the first write that
//! meets a `BrokenPipe`, without running the work whose output nobody
//! reads.

use std::process::{Command, Stdio};

const SMOKE: &[&str] = &["--problems", "2", "--reps", "1", "--threads", "2"];

#[test]
fn paper_binaries_exit_0_with_a_closed_stdout() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_table1"), SMOKE),
        (env!("CARGO_BIN_EXE_table3"), SMOKE),
        (env!("CARGO_BIN_EXE_fig4"), &["7"][..]),
        (env!("CARGO_BIN_EXE_fig6a"), SMOKE),
        (env!("CARGO_BIN_EXE_fig6b"), SMOKE),
        (env!("CARGO_BIN_EXE_fig7"), SMOKE),
        (env!("CARGO_BIN_EXE_ablate_nr"), SMOKE),
        (env!("CARGO_BIN_EXE_ablate_iters"), SMOKE),
    ] {
        let stderr = run_with_closed_stdout(bin, args);
        assert!(!stderr.contains("panicked"), "{bin}:\n{stderr}");
    }
}

/// `fig7` prints its title before its first sweep, so with its stdout
/// closed it stops there and runs none of its three sweeps.
#[test]
fn fig7_runs_no_sweep_with_a_closed_stdout() {
    let stderr = run_with_closed_stdout(env!("CARGO_BIN_EXE_fig7"), SMOKE);
    assert!(!stderr.contains("sweep:"), "fig7 ran a sweep:\n{stderr}");
}

/// Runs `bin` with the read end of its stdout closed before it writes
/// anything, requires exit 0 and returns its stderr.
fn run_with_closed_stdout(bin: &str, args: &[&str]) -> String {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{bin} with a closed stdout: {:?}\n{stderr}",
        out.status
    );
    stderr
}
