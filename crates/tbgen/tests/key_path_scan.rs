//! Source-scan guards over every tbgen source file: no thread-local
//! state, and no rendering hash on any runtime path.
//!
//! The reuse layers and the job budget reach a run through an explicit
//! `EvalContext`; a `thread_local!` anywhere in the crate would be
//! implicit per-thread state sneaking back onto the evaluation path.
//!
//! The fingerprint migration's acceptance criterion is that cache
//! probes never render an AST again — neither through `debug_hash`
//! (FNV over the `Debug` stream) nor through `print_file` /
//! `structural_hash` (FNV over the pretty-print). Those functions
//! survive as test-only oracles, so the type system cannot enforce the
//! boundary; this scan does: the runtime half of no file may mention
//! them.
//!
//! The files are listed from `src/` when the test runs, so a new module
//! is scanned without anyone having to add it here.

use std::path::Path;

/// Every `src/*.rs` file of the crate, as `(file name, contents)`.
fn sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("src/ lists")
        .map(|entry| entry.expect("src/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            let src = std::fs::read_to_string(&path).expect("source reads");
            (name.into_owned(), src)
        })
        .collect();
    files.sort();
    assert!(
        files.iter().any(|(name, _)| name == "session.rs"),
        "the scan found no sources in {}",
        dir.display()
    );
    files
}

/// The non-test half of a source file (everything before its
/// `#[cfg(test)]` module).
fn runtime_half(src: &str) -> &str {
    src.split("#[cfg(test)]").next().unwrap_or(src)
}

#[test]
fn no_thread_local_anywhere_in_tbgen() {
    for (name, src) in sources() {
        assert!(
            !src.contains("thread_local!"),
            "{name}: `thread_local!` in tbgen; the reuse layers and the \
             job budget travel in the explicit EvalContext"
        );
    }
}

#[test]
fn no_rendering_hash_on_key_paths() {
    for (name, src) in sources() {
        let runtime = runtime_half(&src);
        for oracle in ["debug_hash", "print_file", "structural_hash"] {
            assert!(
                !runtime.contains(oracle),
                "{name}: `{oracle}` reappeared in a runtime half; \
                 rendering hashes are test-only oracles — key paths use \
                 `verilog::fingerprint` over derived `Hash`"
            );
        }
    }
}
