//! The paper binaries refuse the arguments they would ignore: only
//! `table1` writes artifacts, so only it takes `--out DIR`, and `fig4`
//! takes one seed and nothing else. Each refusal is a usage error (exit
//! 2) that names what was passed, before any work runs. Every usage
//! line names the binary it documents.

use std::path::Path;
use std::process::Command;

/// `usage: NAME `, where NAME is the file name of `bin`.
fn usage_prefix(bin: &str) -> String {
    let name = Path::new(bin).file_name().expect("binary file name");
    format!("usage: {} ", name.to_string_lossy())
}

fn assert_usage_error(bin: &str, args: &[&str], named: &str) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} must be a usage error:\n{stderr}"
    );
    assert!(
        stderr.contains(named),
        "{bin} {args:?}: stderr does not name {named}:\n{stderr}"
    );
    assert!(
        stderr.contains(&usage_prefix(bin)),
        "{bin} {args:?}: the usage line does not name the binary:\n{stderr}"
    );
}

fn help(bin: &str) -> String {
    let out = Command::new(bin)
        .arg("--help")
        .output()
        .expect("run --help");
    assert!(out.status.success(), "{bin} --help: {:?}", out.status);
    let help = String::from_utf8(out.stdout).expect("UTF-8 help");
    assert!(
        help.starts_with(&usage_prefix(bin)),
        "{bin} --help does not name the binary:\n{help}"
    );
    help
}

/// `--out DIR` is refused, and `--help` does not offer it.
fn assert_refuses_out(bin: &str) {
    assert_usage_error(bin, &["--problems", "2", "--out", "runs/x"], "`--out`");
    let help = help(bin);
    assert!(
        !help.contains("--out"),
        "{bin} --help offers --out:\n{help}"
    );
}

#[test]
fn table1_takes_out() {
    let help = help(env!("CARGO_BIN_EXE_table1"));
    assert!(help.contains("[--out DIR]"), "{help}");
}

#[test]
fn table3_refuses_out() {
    assert_refuses_out(env!("CARGO_BIN_EXE_table3"));
}

#[test]
fn fig6a_refuses_out() {
    assert_refuses_out(env!("CARGO_BIN_EXE_fig6a"));
}

#[test]
fn fig6b_refuses_out() {
    assert_refuses_out(env!("CARGO_BIN_EXE_fig6b"));
}

#[test]
fn fig7_refuses_out() {
    assert_refuses_out(env!("CARGO_BIN_EXE_fig7"));
}

#[test]
fn ablate_nr_refuses_out() {
    assert_refuses_out(env!("CARGO_BIN_EXE_ablate_nr"));
}

#[test]
fn ablate_iters_refuses_out() {
    assert_refuses_out(env!("CARGO_BIN_EXE_ablate_iters"));
}

#[test]
fn fig4_takes_one_seed_and_nothing_else() {
    let fig4 = env!("CARGO_BIN_EXE_fig4");
    for (args, named) in [
        (&["--problems", "2"][..], "`--problems`"),
        (&["seven"], "`seven`"),
        (&["7", "8"], "`8`"),
    ] {
        assert_usage_error(fig4, args, named);
    }
    assert!(help(fig4).contains("[SEED]"));
}
