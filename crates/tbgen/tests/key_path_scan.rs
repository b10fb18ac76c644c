//! Source-scan guards: no rendering hash on any cache-key path, and no
//! thread-local cache slots outside `install.rs`.
//!
//! The fingerprint migration's acceptance criterion is that cache
//! probes never render an AST again — neither through `debug_hash`
//! (FNV over the `Debug` stream) nor through `print_file` /
//! `structural_hash` (FNV over the pretty-print). Those functions
//! survive as test-only oracles, so the type system cannot enforce the
//! boundary; this scan does: the runtime halves of every file that
//! builds cache keys must not mention them.

const KEY_PATH_SOURCES: &[(&str, &str)] = &[
    ("cache.rs", include_str!("../src/cache.rs")),
    ("golden.rs", include_str!("../src/golden.rs")),
    ("session.rs", include_str!("../src/session.rs")),
    ("runner.rs", include_str!("../src/runner.rs")),
];

/// Every tbgen source file except `install.rs` — the one module allowed
/// to declare thread-local slots.
const NON_INSTALL_SOURCES: &[(&str, &str)] = &[
    ("lib.rs", include_str!("../src/lib.rs")),
    ("abort.rs", include_str!("../src/abort.rs")),
    ("cache.rs", include_str!("../src/cache.rs")),
    ("coverage.rs", include_str!("../src/coverage.rs")),
    ("driver.rs", include_str!("../src/driver.rs")),
    ("golden.rs", include_str!("../src/golden.rs")),
    ("record.rs", include_str!("../src/record.rs")),
    ("runner.rs", include_str!("../src/runner.rs")),
    ("scenarios.rs", include_str!("../src/scenarios.rs")),
    ("session.rs", include_str!("../src/session.rs")),
];

/// The non-test half of a source file (everything before its
/// `#[cfg(test)]` module).
fn runtime_half(src: &str) -> &str {
    src.split("#[cfg(test)]").next().unwrap_or(src)
}

/// The CacheStack refactor's acceptance criterion: every thread-local
/// cache slot lives in `install.rs`, where the `CacheStack` install
/// machinery owns save/restore. A `thread_local!` anywhere else in the
/// crate is a new hand-rolled slot sneaking past the unified handle.
#[test]
fn no_thread_local_slots_outside_install() {
    for (name, src) in NON_INSTALL_SOURCES {
        assert!(
            !src.contains("thread_local!"),
            "{name}: `thread_local!` outside install.rs; per-worker state \
             goes through the CacheStack slots in install.rs"
        );
    }
}

#[test]
fn no_rendering_hash_on_key_paths() {
    for (name, src) in KEY_PATH_SOURCES {
        let runtime = runtime_half(src);
        for oracle in ["debug_hash", "print_file", "structural_hash"] {
            assert!(
                !runtime.contains(oracle),
                "{name}: `{oracle}` reappeared on a cache-key path; \
                 rendering hashes are test-only oracles — key paths use \
                 the StructuralHash visitor fingerprints"
            );
        }
    }
}
