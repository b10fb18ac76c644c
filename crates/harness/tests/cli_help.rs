//! `correctbench-run --help` documents every cache-layer flag.
//!
//! The per-layer switches (`--no-sim-cache`, `--no-golden-cache`), their
//! `--no-cache` alias and the retired no-op switches of deleted layers
//! (`--no-elab-cache`, `--no-session-pool`, `--no-lint-cache`) are part
//! of the binary's contract — CI's cache-layer matrix, the benchmark's
//! ablation arms and the README all lean on them — so the help text is
//! pinned here by running the real binary. So is the usage-error exit of
//! flags and fault kinds that were deleted.

use std::process::Command;

fn help_output() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_correctbench-run"))
        .arg("--help")
        .output()
        .expect("run correctbench-run --help");
    assert!(
        out.status.success(),
        "--help must exit 0, got {:?}",
        out.status
    );
    String::from_utf8(out.stdout).expect("help text is UTF-8")
}

#[test]
fn help_lists_every_cache_layer_flag() {
    let help = help_output();
    for flag in ["--no-cache", "--no-sim-cache", "--no-golden-cache"] {
        assert!(
            help.contains(flag),
            "--help output is missing `{flag}`:\n{help}"
        );
    }
}

#[test]
fn help_lists_the_retired_layer_flags_as_no_ops() {
    // The benchmark's ablation arms still pass these; the binary accepts
    // them and says they do nothing.
    let help = help_output();
    let retired = help
        .lines()
        .find(|l| l.starts_with("retired no-ops"))
        .unwrap_or_else(|| panic!("--help has no retired-flags line:\n{help}"));
    for flag in ["--no-elab-cache", "--no-session-pool", "--no-lint-cache"] {
        assert!(
            retired.contains(flag),
            "retired-flags line is missing `{flag}`:\n{help}"
        );
    }
}

#[test]
fn help_lists_the_observability_flags() {
    let help = help_output();
    for flag in ["--no-obs", "--progress"] {
        assert!(
            help.contains(flag),
            "--help output is missing `{flag}`:\n{help}"
        );
    }
}

#[test]
fn report_binary_documents_its_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_correctbench-report"))
        .arg("--help")
        .output()
        .expect("run correctbench-report --help");
    assert!(
        out.status.success(),
        "--help must exit 0, got {:?}",
        out.status
    );
    let help = String::from_utf8(out.stdout).expect("help text is UTF-8");
    assert!(
        help.contains("correctbench-report") && help.contains("TIMINGS.JSONL"),
        "report --help missing usage line:\n{help}"
    );
}

#[test]
fn help_lists_the_robustness_flags() {
    let help = help_output();
    for flag in ["--sim-budget", "--faults", "--resume"] {
        assert!(
            help.contains(flag),
            "--help output is missing robustness flag `{flag}`:\n{help}"
        );
    }
}

#[test]
fn removed_robustness_flags_and_faults_are_usage_errors() {
    // The wall-clock deadline and the LLM fault kinds are gone. A script
    // that still passes them must fail loudly (exit 2, naming what it
    // passed) instead of running without them.
    for (args, named) in [
        (["--job-deadline-ms", "5"], "`--job-deadline-ms`"),
        (["--faults", "llm@1"], "`llm`"),
        (["--faults", "llmfatal@1"], "`llmfatal`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_correctbench-run"))
            .args(["--problems", "1", "--reps", "1", "--quiet"])
            .args(args)
            .output()
            .expect("run correctbench-run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must be a usage error:\n{stderr}"
        );
        assert!(
            stderr.contains(named),
            "{args:?}: stderr does not name {named}:\n{stderr}"
        );
    }
}

#[test]
fn help_documents_the_lint_gate() {
    // `--lint` and its three modes are the static-analysis gate's CLI
    // contract; the golden-dataset CI gate scripts against them.
    let help = help_output();
    assert!(
        help.contains("--lint"),
        "--help output is missing `--lint`:\n{help}"
    );
    for mode in ["off", "warn", "gate"] {
        assert!(
            help.contains(mode),
            "--help output is missing lint mode `{mode}`:\n{help}"
        );
    }
}

#[test]
fn help_lists_the_store_flags() {
    // The persistent-store attachment flags are the warm-restart CLI
    // contract; CI's store matrix smoke scripts against them.
    let help = help_output();
    for flag in ["--store", "--no-store", "--store-readonly"] {
        assert!(
            help.contains(flag),
            "--help output is missing store flag `{flag}`:\n{help}"
        );
    }
}

#[test]
fn help_lists_the_core_sweep_flags() {
    let help = help_output();
    for flag in [
        "--full",
        "--problems",
        "--reps",
        "--seed",
        "--threads",
        "--out",
    ] {
        assert!(
            help.contains(flag),
            "--help output is missing core flag `{flag}`:\n{help}"
        );
    }
}
