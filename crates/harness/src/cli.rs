//! Shared command-line parsing for experiment binaries.
//!
//! Every regeneration binary and `correctbench-run` takes the same core
//! sweep flags; parsing them once here keeps the binaries from drifting
//! apart. A binary that writes artifacts parses through
//! [`RunArgs::parse_with`], which also takes `--out DIR` and the
//! binary's own flags; the others parse through [`RunArgs::parse`],
//! which refuses `--out` like any flag it does not know.

use crate::plan::problem_subset;
use correctbench_dataset::Problem;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The core command-line options of every sweep binary.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Number of problems (stratified subset of the 156); `None` = all.
    pub problems: Option<usize>,
    /// Repetitions per (method, task) cell.
    pub reps: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Artifact directory (harness JSONL output), when requested.
    pub out: Option<PathBuf>,
}

/// The usage line of the core flags (binaries append their own, and the
/// artifact writers `--out DIR`).
pub const CORE_USAGE: &str = "[--full] [--problems N] [--reps N] [--seed N] [--threads N]";

/// The full usage line: the command's name (the file name of
/// `argv[0]`), the core flags and a binary's extra flags.
pub fn usage_line(extra_usage: &str) -> String {
    let argv0 = std::env::args_os().next().unwrap_or_default();
    let name = Path::new(&argv0).file_name().unwrap_or_default();
    let mut line = format!("usage: {} {CORE_USAGE}", name.to_string_lossy());
    if !extra_usage.is_empty() {
        line.push(' ');
        line.push_str(extra_usage);
    }
    line
}

/// Aborts with a usage message. `extra_usage` is appended to the core
/// flag list (empty for binaries with no extra flags).
pub fn usage(msg: &str, extra_usage: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{}", usage_line(extra_usage));
    std::process::exit(2)
}

/// Parses the next argument as a number or aborts.
pub fn numeric_flag(flag: &str, it: &mut dyn Iterator<Item = String>, extra_usage: &str) -> u64 {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number"), extra_usage))
}

impl RunArgs {
    /// Parses the core flags from `std::env::args` for a binary that
    /// writes no artifacts. Unknown flags, `--out` among them, abort with
    /// a usage message.
    pub fn parse(default_problems: Option<usize>, default_reps: u64) -> RunArgs {
        let args = Self::parse_with(default_problems, default_reps, "", |_, _| false);
        if args.out.is_some() {
            usage("unknown flag `--out`", "")
        }
        args
    }

    /// Like [`RunArgs::parse`], for a binary that writes artifacts: it
    /// also takes `--out DIR`, and `extra` sees every flag the core
    /// parser does not know (with the argument iterator, so it can
    /// consume values) and returns whether it handled it; `extra_usage`
    /// documents `--out` and those flags in the abort message.
    pub fn parse_with(
        default_problems: Option<usize>,
        default_reps: u64,
        extra_usage: &str,
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> bool,
    ) -> RunArgs {
        let mut args = RunArgs {
            problems: default_problems,
            reps: default_reps,
            seed: 2025,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--help" | "-h" => {
                    // Help goes to stdout with a success exit so `--help`
                    // output can be piped and asserted on in tests.
                    let _ = write_stdout(&format!("{}\n", usage_line(extra_usage)));
                    std::process::exit(0)
                }
                "--full" => {
                    args.problems = None;
                    args.reps = 5;
                }
                "--problems" => {
                    args.problems = Some(numeric_flag("--problems", &mut it, extra_usage) as usize)
                }
                "--reps" => args.reps = numeric_flag("--reps", &mut it, extra_usage),
                "--seed" => args.seed = numeric_flag("--seed", &mut it, extra_usage),
                "--threads" => {
                    args.threads = (numeric_flag("--threads", &mut it, extra_usage) as usize).max(1)
                }
                "--out" => {
                    args.out = Some(PathBuf::from(
                        it.next()
                            .unwrap_or_else(|| usage("--out needs a path", extra_usage)),
                    ))
                }
                other => {
                    if !extra(other, &mut it) {
                        usage(&format!("unknown flag `{other}`"), extra_usage)
                    }
                }
            }
        }
        args
    }

    /// The problem set this run uses: all 156 or a stratified subset that
    /// preserves the CMB/SEQ ratio and the difficulty mix (see
    /// [`problem_subset`]).
    pub fn problem_set(&self) -> Vec<Problem> {
        problem_subset(self.problems)
    }
}

/// Writes `text` to stdout and flushes it, without panicking.
fn write_all_stdout(text: &str) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes()).and_then(|()| out.flush())
}

/// Writes `text` to stdout and flushes it, without panicking. A closed
/// pipe (`BrokenPipe`) is not an error: whoever read the output stopped
/// reading, and the work the text reports is done. Any other failure is
/// returned.
pub fn write_stdout(text: &str) -> std::io::Result<()> {
    match write_all_stdout(text) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        r => r,
    }
}

/// Writes the output of a command whose stdout is its product. At a
/// closed stdout (`BrokenPipe`) the command exits 0 at once: nobody reads
/// what the rest of its work would print. Any other failure exits 1.
pub fn print_or_exit(text: &str) {
    match write_all_stdout(text) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes run artifacts or aborts the process with exit code 1 — the
/// shared tail of every artifact-writing binary.
pub fn write_artifacts_or_exit(
    dir: &std::path::Path,
    result: &crate::scheduler::RunResult,
    summary: &str,
) -> crate::artifact::ArtifactPaths {
    match crate::artifact::write_artifacts(dir, result, summary) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("error: failed to write artifacts to {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}
