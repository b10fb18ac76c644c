//! Maintenance CLI for the persistent outcome store.
//!
//! ```text
//! correctbench-store verify DIR          # checksum every record; exit 1 on corruption
//! correctbench-store ls DIR              # list live cells (key, bytes), oldest first
//! correctbench-store gc DIR --max-bytes N  # evict oldest first, compact segments
//! ```
//!
//! Exit codes follow the suite convention: 0 ok, 1 infra/corruption,
//! 2 usage. A closed stdout (`ls DIR | head`) ends the output quietly
//! and changes no exit code; any other stdout failure exits 1.

use correctbench_store::{gc, verify, OutcomeStore, ScanStop};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: correctbench-store <command> DIR [options]

commands:
  verify DIR             rescan every segment, checking record checksums;
                         reports per-segment totals, exits 1 on corruption
  ls DIR                 list live cells, oldest first:
                         <job-config key> <payload bytes>
  gc DIR --max-bytes N   evict the oldest cells until the store fits in
                         N bytes, then compact the survivors into one
                         segment
";

fn usage(msg: &str) -> ExitCode {
    eprintln!("correctbench-store: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn infra(msg: String) -> ExitCode {
    eprintln!("correctbench-store: {msg}");
    ExitCode::from(1)
}

/// Writes `text` to stdout. A closed pipe is not an error: whoever read
/// the output stopped reading.
fn emit(text: &str) -> Result<(), ExitCode> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(infra(format!("cannot write to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return emit(USAGE).err().unwrap_or(ExitCode::SUCCESS);
    }
    let Some(command) = args.first() else {
        return usage("missing command");
    };
    let Some(dir) = args.get(1) else {
        return usage("missing store directory");
    };
    let dir = Path::new(dir);
    match command.as_str() {
        "verify" => cmd_verify(dir),
        "ls" => cmd_ls(dir),
        "gc" => cmd_gc(dir, &args[2..]),
        other => usage(&format!("unknown command `{other}`")),
    }
}

fn cmd_verify(dir: &Path) -> ExitCode {
    let report = match verify(dir) {
        Ok(r) => r,
        Err(e) => return infra(format!("verify {}: {e}", dir.display())),
    };
    let mut text = String::new();
    let mut records = 0usize;
    let mut corrupt = 0usize;
    for seg in &report.segments {
        let status = match seg.stop {
            None => "ok".to_string(),
            Some(ScanStop::Torn) => format!(
                "torn tail at byte {} (crash artifact; next rw open truncates)",
                seg.good_bytes
            ),
            Some(ScanStop::Corrupt) => format!(
                "CORRUPT at byte {} ({} trailing bytes unreadable)",
                seg.good_bytes,
                seg.total_bytes - seg.good_bytes
            ),
        };
        let _ = writeln!(
            text,
            "{}: {} records, {}/{} bytes, {status}",
            seg.name, seg.records, seg.good_bytes, seg.total_bytes
        );
        records += seg.records;
        if seg.stop == Some(ScanStop::Corrupt) {
            corrupt += 1;
        }
    }
    let _ = writeln!(
        text,
        "{} segments, {} intact records, {} corrupt segment(s)",
        report.segments.len(),
        records,
        corrupt
    );
    if let Err(code) = emit(&text) {
        return code;
    }
    if report.corrupt() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_ls(dir: &Path) -> ExitCode {
    let store = match OutcomeStore::open_readonly(dir) {
        Ok(s) => s,
        Err(e) => return infra(format!("open {}: {e}", dir.display())),
    };
    for w in store.warnings() {
        eprintln!("correctbench-store: warning: {w}");
    }
    let cells = store.cells();
    let mut text = String::new();
    for (key, bytes) in &cells {
        let _ = writeln!(text, "{key} {bytes}");
    }
    if let Err(code) = emit(&text) {
        return code;
    }
    let stats = store.stats();
    eprintln!("{} cells, {} bytes on disk", cells.len(), stats.bytes);
    ExitCode::SUCCESS
}

fn cmd_gc(dir: &Path, rest: &[String]) -> ExitCode {
    let mut max_bytes: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--max-bytes" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    return usage("--max-bytes needs an integer byte count");
                };
                max_bytes = Some(v);
            }
            other => return usage(&format!("unknown gc flag `{other}`")),
        }
    }
    let Some(max_bytes) = max_bytes else {
        return usage("gc requires --max-bytes N");
    };
    match gc(dir, max_bytes) {
        Ok(report) => emit(&format!(
            "gc: kept {} cells, evicted {}, {} -> {} bytes\n",
            report.kept, report.evicted, report.before_bytes, report.after_bytes
        ))
        .err()
        .unwrap_or(ExitCode::SUCCESS),
        Err(e) => infra(format!("gc {}: {e}", dir.display())),
    }
}
