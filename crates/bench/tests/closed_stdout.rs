//! A closed stdout (`fig7 | head -1`, or a reader that has what it wants
//! and exits) must not panic a paper binary: each writes through
//! `harness::cli::print_or_exit`, which skips a write that meets a
//! `BrokenPipe`, and exits 0.

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
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        // Close the read end before the binary writes anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && !stderr.contains("panicked"),
            "{bin} with a closed stdout: {:?}\n{stderr}",
            out.status
        );
    }
}
