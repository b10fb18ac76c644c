//! On-disk, content-addressed, crash-safe outcome store.
//!
//! The in-memory reuse layers (the caches of a `tbgen::EvalContext`)
//! die with the process; this crate is the layer that survives it. Each completed
//! job's artifact payload is keyed by a [`CellKey`] — the job's content
//! fingerprint paired with the run-configuration fingerprint — and
//! appended to checksummed, append-only **segment files**. Any later
//! run that expands a content-identical cell (same problem content,
//! method, rep, seeds, same outcome-affecting configuration) replays
//! the stored payload instead of re-executing the job, no matter which
//! run directory or plan shape produced it.
//!
//! # On-disk layout
//!
//! ```text
//! DIR/
//!   store.json          # schema marker, written atomically at creation
//!   segments/
//!     seg-00000.log     # append-only records, rotated by size
//!     seg-00001.log
//! ```
//!
//! One record is a header line plus the raw payload bytes:
//!
//! ```text
//! @ <job:016x> <config:016x> <payload_len> <fnv1a64(payload):016x>\n
//! <payload bytes>\n
//! ```
//!
//! The payload length frames the record (payloads may contain
//! newlines); the FNV-1a checksum rejects bit flips — for any
//! single-byte corruption at equal length the checksum is guaranteed to
//! change, because each FNV step is a bijection on the running state.
//! Records are written with one `write_all` + flush, so a crash leaves
//! at most one torn record at the tail of the last segment; opening the
//! store read-write truncates that tail (the same discipline as the
//! harness outcome journal). A checksum mismatch **inside** a segment
//! is corruption, not a crash artifact: the broken record and everything
//! after it in that segment are ignored (framing past a damaged header
//! cannot be trusted), reported through [`OutcomeStore::warnings`] and
//! by `correctbench-store verify`.
//!
//! Duplicate keys are resolved last-write-wins (scan order is segment
//! order), which makes `gc` compaction crash-safe: survivors are first
//! compacted into a fresh, higher-numbered segment (temp + rename),
//! then the old segments are deleted — a crash between the two steps
//! only leaves duplicates the next scan resolves.
//!
//! The store never holds aborted outcomes: *callers* publish only
//! completed jobs (the harness's never-poison rule extended to disk),
//! and the store itself is agnostic about payload contents beyond the
//! checksum.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use correctbench_verilog::{fnv1a64, Fingerprint};
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The store's schema marker (contents of `store.json`).
pub const STORE_SCHEMA: &str = "correctbench-store-v1";

/// Segment size at which appends rotate to a fresh segment file.
const ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// The content address of one completed cell: the job fingerprint
/// (problem content + method + rep + seeds) paired with the
/// configuration fingerprint (everything plan-wide that can change an
/// outcome byte). Two runs that agree on both replay each other's
/// outcomes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CellKey {
    /// Fingerprint of the job's own content (problem, method, rep,
    /// seeds).
    pub job: Fingerprint,
    /// Fingerprint of the outcome-affecting run configuration.
    pub config: Fingerprint,
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.job, self.config)
    }
}

/// Counters of one store handle's session, plus the size of what it
/// holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Probes answered from the store this session.
    pub hits: u64,
    /// Probes that found nothing this session.
    pub misses: u64,
    /// Live cells (duplicates resolved).
    pub entries: usize,
    /// Segment bytes on disk (dead duplicate records included until gc).
    pub bytes: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.hits + self.misses;
        let ratio = if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64 * 100.0
        };
        write!(
            f,
            "{} hits / {} misses ({ratio:.1}% hit ratio, {} entries, {} bytes on disk)",
            self.hits, self.misses, self.entries, self.bytes
        )
    }
}

/// Renders one record: header line, payload bytes, trailing newline.
pub fn encode_record(key: &CellKey, payload: &str) -> Vec<u8> {
    let header = format!(
        "@ {} {} {} {:016x}\n",
        key.job,
        key.config,
        payload.len(),
        fnv1a64(payload.as_bytes())
    );
    let mut out = Vec::with_capacity(header.len() + payload.len() + 1);
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
    out
}

/// Why a segment scan stopped before the end of the file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanStop {
    /// The tail is an incomplete record — a crash artifact; a
    /// read-write open truncates it away.
    Torn,
    /// A framed record failed its checksum (or its framing is
    /// malformed mid-file): corruption, not a crash. The rest of the
    /// segment is unreadable.
    Corrupt,
}

/// One decoded record plus its byte extent in the segment.
#[derive(Clone, Debug)]
pub struct ScannedRecord {
    /// The record's cell key.
    pub key: CellKey,
    /// The record's payload.
    pub payload: String,
    /// Byte offset one past the record's trailing newline.
    pub end: usize,
}

/// Scans one segment's bytes: returns every intact record in order,
/// the byte offset after the last intact record, and why the scan
/// stopped early (if it did).
pub fn scan_segment(bytes: &[u8]) -> (Vec<ScannedRecord>, usize, Option<ScanStop>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        // Header line.
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            // No newline before EOF: an incomplete header is a torn
            // tail by construction (records are single-write appends).
            return (records, pos, Some(ScanStop::Torn));
        };
        let header = match std::str::from_utf8(&rest[..nl]) {
            Ok(h) => h,
            Err(_) => return (records, pos, Some(ScanStop::Corrupt)),
        };
        let Some((key, len, crc)) = parse_header(header) else {
            return (records, pos, Some(ScanStop::Corrupt));
        };
        let payload_start = nl + 1;
        let payload_end = payload_start + len;
        if payload_end + 1 > rest.len() {
            // The header promised more bytes than the file has: the
            // record was cut off mid-write.
            return (records, pos, Some(ScanStop::Torn));
        }
        let payload = &rest[payload_start..payload_end];
        if rest[payload_end] != b'\n' || fnv1a64(payload) != crc {
            return (records, pos, Some(ScanStop::Corrupt));
        }
        let Ok(payload) = std::str::from_utf8(payload) else {
            return (records, pos, Some(ScanStop::Corrupt));
        };
        pos += payload_end + 1;
        records.push(ScannedRecord {
            key,
            payload: payload.to_string(),
            end: pos,
        });
    }
    (records, pos, None)
}

fn parse_header(header: &str) -> Option<(CellKey, usize, u64)> {
    let rest = header.strip_prefix("@ ")?;
    let mut it = rest.split(' ');
    let job = it.next()?;
    let config = it.next()?;
    let len = it.next()?;
    let crc = it.next()?;
    if it.next().is_some() || job.len() != 16 || config.len() != 16 || crc.len() != 16 {
        return None;
    }
    Some((
        CellKey {
            job: Fingerprint(u64::from_str_radix(job, 16).ok()?),
            config: Fingerprint(u64::from_str_radix(config, 16).ok()?),
        },
        len.parse().ok()?,
        u64::from_str_radix(crc, 16).ok()?,
    ))
}

struct Entry {
    payload: String,
    /// Scan/append order — the gc eviction order (oldest first).
    seq: u64,
}

struct Inner {
    entries: HashMap<CellKey, Entry>,
    hits: u64,
    misses: u64,
    /// Total segment bytes on disk (post-truncation, including dead
    /// duplicates).
    disk_bytes: u64,
    /// Index of the segment appends go to.
    seg_index: u64,
    /// Size of that segment.
    seg_bytes: u64,
    /// The segment this handle appends to, opened by its first append.
    file: Option<std::fs::File>,
    next_seq: u64,
    warnings: Vec<String>,
}

/// A handle on one store directory. Cheap to probe (payloads are held
/// in memory after the opening scan), crash-safe to publish to (one
/// flushed append per record). Interior-mutable: one handle can be
/// shared across worker threads.
pub struct OutcomeStore {
    dir: PathBuf,
    readonly: bool,
    inner: Mutex<Inner>,
}

fn segments_dir(dir: &Path) -> PathBuf {
    dir.join("segments")
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    segments_dir(dir).join(format!("seg-{index:05}.log"))
}

/// The segment files of `dir` in scan (= age) order, with their indices.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let seg_dir = segments_dir(dir);
    if !seg_dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(&seg_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((index, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Writes `contents` via a sibling temp file + rename (atomic on POSIX).
fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

impl OutcomeStore {
    /// Opens `dir` read-write, creating the store if it does not exist.
    /// Scans every segment into memory; a torn tail on the last segment
    /// (crash artifact) is truncated away, corruption inside a segment
    /// is skipped and reported through [`OutcomeStore::warnings`].
    ///
    /// # Errors
    ///
    /// Filesystem failures, or `InvalidData` when `store.json` carries
    /// an unknown schema.
    pub fn open(dir: &Path) -> io::Result<OutcomeStore> {
        std::fs::create_dir_all(segments_dir(dir))?;
        let meta = dir.join("store.json");
        if meta.exists() {
            check_schema(&meta)?;
        } else {
            write_atomic(
                &meta,
                format!("{{\"schema\":\"{STORE_SCHEMA}\"}}\n").as_bytes(),
            )?;
        }
        Self::open_scanned(dir, false)
    }

    /// Opens an existing store without ever writing to it: torn tails
    /// are ignored (not truncated) and [`OutcomeStore::put`] /
    /// [`OutcomeStore::flush`] become no-ops.
    ///
    /// # Errors
    ///
    /// Filesystem failures, `NotFound` when `dir` is not a store, or
    /// `InvalidData` on a schema mismatch.
    pub fn open_readonly(dir: &Path) -> io::Result<OutcomeStore> {
        let meta = dir.join("store.json");
        if !meta.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} is not an outcome store (no store.json)", dir.display()),
            ));
        }
        check_schema(&meta)?;
        Self::open_scanned(dir, true)
    }

    fn open_scanned(dir: &Path, readonly: bool) -> io::Result<OutcomeStore> {
        let mut entries: HashMap<CellKey, Entry> = HashMap::new();
        let mut warnings = Vec::new();
        let mut disk_bytes = 0u64;
        let mut next_seq = 0u64;
        let segments = list_segments(dir)?;
        let last_index = segments.last().map(|(i, _)| *i);
        let mut seg_index = last_index.unwrap_or(0);
        let mut seg_bytes = 0u64;
        for (index, path) in &segments {
            let bytes = std::fs::read(path)?;
            let (records, good_end, stop) = scan_segment(&bytes);
            let mut kept = good_end as u64;
            match stop {
                Some(ScanStop::Torn) if !readonly => {
                    warnings.push(format!(
                        "{}: truncating torn record tail at byte {good_end}",
                        path.display()
                    ));
                    std::fs::OpenOptions::new()
                        .write(true)
                        .open(path)?
                        .set_len(good_end as u64)?;
                }
                Some(ScanStop::Torn) => {
                    warnings.push(format!(
                        "{}: ignoring torn record tail at byte {good_end}",
                        path.display()
                    ));
                }
                Some(ScanStop::Corrupt) => {
                    // Framing past the damage is untrusted; the dead
                    // bytes stay (gc compaction drops them) and the
                    // whole file still counts toward disk size.
                    warnings.push(format!(
                        "{}: corrupt record at byte {good_end}; ignoring the rest of the segment",
                        path.display()
                    ));
                    kept = bytes.len() as u64;
                }
                None => {}
            }
            disk_bytes += kept;
            if Some(*index) == last_index {
                seg_bytes = kept;
            }
            for record in records {
                entries.insert(
                    record.key,
                    Entry {
                        payload: record.payload,
                        seq: next_seq,
                    },
                );
                next_seq += 1;
            }
        }
        // A corrupted last segment must not take appends after its dead
        // bytes; rotate past it.
        if !readonly
            && warnings
                .iter()
                .any(|w| w.contains("corrupt") && w.contains(&format!("seg-{seg_index:05}.log")))
        {
            seg_index += 1;
            seg_bytes = 0;
        }
        Ok(OutcomeStore {
            dir: dir.to_path_buf(),
            readonly,
            inner: Mutex::new(Inner {
                entries,
                hits: 0,
                misses: 0,
                disk_bytes,
                seg_index,
                seg_bytes,
                file: None,
                next_seq,
                warnings,
            }),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether this handle was opened read-only.
    pub fn readonly(&self) -> bool {
        self.readonly
    }

    /// Looks up `key`, counting a hit (payload cloned out) or a miss.
    pub fn get(&self, key: &CellKey) -> Option<String> {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        match inner.entries.get(key) {
            Some(entry) => {
                let payload = entry.payload.clone();
                inner.hits += 1;
                Some(payload)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Reclassifies the most recent hit as a miss — the caller fetched
    /// a payload it could not use (decode drift), which must read as a
    /// cell the store failed to serve. Only the session counters move:
    /// the store keeps no per-cell counts, so `_key` is not read.
    pub fn discount_hit(&self, _key: &CellKey) {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        inner.hits = inner.hits.saturating_sub(1);
        inner.misses += 1;
    }

    /// Publishes `payload` under `key`: one flushed append to the open
    /// segment (rotating by size), then the in-memory table. No-op on a
    /// read-only handle.
    ///
    /// # Errors
    ///
    /// Any filesystem failure appending the record.
    pub fn put(&self, key: &CellKey, payload: &str) -> io::Result<()> {
        if self.readonly {
            return Ok(());
        }
        let record = encode_record(key, payload);
        let mut inner = self.inner.lock().expect("store lock poisoned");
        if inner.file.is_none() || inner.seg_bytes + record.len() as u64 > ROTATE_BYTES {
            if let Some(full) = inner.file.take() {
                // `flush` syncs only the open segment: sync a full one
                // before leaving it.
                full.sync_data()?;
                if inner.seg_bytes > 0 {
                    inner.seg_index += 1;
                    inner.seg_bytes = 0;
                }
            }
            let path = segment_path(&self.dir, inner.seg_index);
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            inner.seg_bytes = file.metadata()?.len();
            inner.file = Some(file);
        }
        let file = inner.file.as_mut().expect("segment just opened");
        file.write_all(&record)?;
        file.flush()?;
        inner.seg_bytes += record.len() as u64;
        inner.disk_bytes += record.len() as u64;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.insert(
            *key,
            Entry {
                payload: payload.to_string(),
                seq,
            },
        );
        Ok(())
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .entries
            .len()
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This session's probe counters plus store size.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock poisoned");
        StoreStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.entries.len(),
            bytes: inner.disk_bytes,
        }
    }

    /// Warnings the opening scan produced (torn tails healed, corrupt
    /// records skipped).
    pub fn warnings(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .warnings
            .clone()
    }

    /// Every live cell as `(key, payload bytes)`, oldest first — the
    /// `correctbench-store ls` view and the gc eviction order.
    pub fn cells(&self) -> Vec<(CellKey, usize)> {
        let inner = self.inner.lock().expect("store lock poisoned");
        let mut cells: Vec<(u64, CellKey, usize)> = inner
            .entries
            .iter()
            .map(|(k, e)| (e.seq, *k, e.payload.len()))
            .collect();
        cells.sort();
        cells.into_iter().map(|(_, k, l)| (k, l)).collect()
    }

    /// Syncs the segment this handle appends to, so every record it
    /// published survives a power loss. Does nothing when the handle
    /// appended nothing (a read-only handle never does).
    ///
    /// # Errors
    ///
    /// Any filesystem failure syncing the segment.
    pub fn flush(&self) -> io::Result<()> {
        let inner = self.inner.lock().expect("store lock poisoned");
        match &inner.file {
            Some(file) => file.sync_data(),
            None => Ok(()),
        }
    }
}

fn check_schema(meta: &Path) -> io::Result<()> {
    let text = std::fs::read_to_string(meta)?;
    if !text.contains(&format!("\"schema\":\"{STORE_SCHEMA}\"")) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: unknown store schema: {}", meta.display(), text.trim()),
        ));
    }
    Ok(())
}

/// One segment's verification result.
#[derive(Clone, Debug)]
pub struct SegmentReport {
    /// Segment file name.
    pub name: String,
    /// Intact records.
    pub records: usize,
    /// Bytes covered by intact records.
    pub good_bytes: u64,
    /// Total file bytes.
    pub total_bytes: u64,
    /// How the scan ended, when not cleanly.
    pub stop: Option<ScanStop>,
}

/// The whole store's verification result.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Per-segment results in scan order.
    pub segments: Vec<SegmentReport>,
}

impl VerifyReport {
    /// Whether any segment holds corruption (torn tails are crash
    /// artifacts, not corruption, and do not fail verification).
    pub fn corrupt(&self) -> bool {
        self.segments
            .iter()
            .any(|s| s.stop == Some(ScanStop::Corrupt))
    }
}

/// Checks every record of every segment against its checksum without
/// modifying anything.
///
/// # Errors
///
/// Filesystem failures reading the store.
pub fn verify(dir: &Path) -> io::Result<VerifyReport> {
    let mut report = VerifyReport::default();
    for (_, path) in list_segments(dir)? {
        let bytes = std::fs::read(&path)?;
        let (records, good_end, stop) = scan_segment(&bytes);
        report.segments.push(SegmentReport {
            name: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            records: records.len(),
            good_bytes: good_end as u64,
            total_bytes: bytes.len() as u64,
            stop,
        });
    }
    Ok(report)
}

/// What one gc pass did.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcReport {
    /// Segment bytes before the pass.
    pub before_bytes: u64,
    /// Segment bytes after the pass.
    pub after_bytes: u64,
    /// Cells kept.
    pub kept: usize,
    /// Cells evicted.
    pub evicted: usize,
}

/// Shrinks the store under `max_bytes`: evicts the oldest cells first
/// (append order) until the surviving records fit, compacts the
/// survivors into one fresh higher-numbered segment (temp + rename — a
/// crash mid-pass leaves recoverable duplicates, never a broken store)
/// and deletes the old segments. Also a pure compaction when the store
/// already fits (dead duplicate records are dropped either way).
///
/// # Errors
///
/// Filesystem failures reading or rewriting the store.
pub fn gc(dir: &Path, max_bytes: u64) -> io::Result<GcReport> {
    let store = OutcomeStore::open(dir)?;
    let before_bytes = store.stats().bytes;
    let records: Vec<Vec<u8>> = store
        .cells() // oldest first
        .iter()
        .map(|(k, _)| encode_record(k, &store.get(k).expect("listed cell present")))
        .collect();
    drop(store);
    let mut total: u64 = records.iter().map(|r| r.len() as u64).sum();
    let mut evicted = 0usize;
    for record in &records {
        if total <= max_bytes {
            break;
        }
        total -= record.len() as u64;
        evicted += 1;
    }
    let compacted = records[evicted..].concat();
    let old = list_segments(dir)?;
    let next = old.iter().map(|(i, _)| i + 1).max().unwrap_or(0);
    write_atomic(&segment_path(dir, next), &compacted)?;
    for (_, path) in &old {
        std::fs::remove_file(path)?;
    }
    Ok(GcReport {
        before_bytes,
        after_bytes: compacted.len() as u64,
        kept: records.len() - evicted,
        evicted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("correctbench_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(a: u64, b: u64) -> CellKey {
        CellKey {
            job: Fingerprint(a),
            config: Fingerprint(b),
        }
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let store = OutcomeStore::open(&dir).expect("open");
        store.put(&key(1, 2), "hello\nworld").expect("put");
        store.put(&key(3, 4), "").expect("put empty");
        assert_eq!(store.get(&key(1, 2)).as_deref(), Some("hello\nworld"));
        assert_eq!(store.get(&key(9, 9)), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 2));
        drop(store);
        let again = OutcomeStore::open(&dir).expect("reopen");
        assert_eq!(again.len(), 2);
        assert_eq!(again.get(&key(1, 2)).as_deref(), Some("hello\nworld"));
        assert_eq!(again.get(&key(3, 4)).as_deref(), Some(""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_keys_resolve_last_write_wins() {
        let dir = tmpdir("dup");
        let store = OutcomeStore::open(&dir).expect("open");
        store.put(&key(1, 1), "old").expect("put");
        store.put(&key(1, 1), "new").expect("put");
        assert_eq!(store.get(&key(1, 1)).as_deref(), Some("new"));
        drop(store);
        let again = OutcomeStore::open(&dir).expect("reopen");
        assert_eq!(again.get(&key(1, 1)).as_deref(), Some("new"));
        assert_eq!(again.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_rw_open() {
        let dir = tmpdir("torn");
        let store = OutcomeStore::open(&dir).expect("open");
        store.put(&key(1, 1), "intact").expect("put");
        store.put(&key(2, 2), "doomed").expect("put");
        drop(store);
        let seg = segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).expect("seg").len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open seg")
            .set_len(len - 3)
            .expect("truncate");
        let again = OutcomeStore::open(&dir).expect("reopen");
        assert_eq!(again.len(), 1, "torn record dropped");
        assert_eq!(again.get(&key(1, 1)).as_deref(), Some("intact"));
        assert!(again.get(&key(2, 2)).is_none());
        assert!(!again.warnings().is_empty());
        // The truncation healed the file: a further reopen is clean.
        again.put(&key(3, 3), "after").expect("append after heal");
        drop(again);
        let healed = OutcomeStore::open(&dir).expect("reopen healed");
        assert!(healed.warnings().is_empty());
        assert_eq!(healed.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_rejected_and_reported() {
        let dir = tmpdir("flip");
        let store = OutcomeStore::open(&dir).expect("open");
        store.put(&key(1, 1), "payload-under-test").expect("put");
        drop(store);
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).expect("read");
        let flip = bytes.len() - 5; // inside the payload
        bytes[flip] ^= 0x40;
        std::fs::write(&seg, &bytes).expect("write");
        let report = verify(&dir).expect("verify");
        assert!(report.corrupt(), "checksum must reject the flipped record");
        let again = OutcomeStore::open(&dir).expect("reopen");
        assert!(again.get(&key(1, 1)).is_none(), "corrupt record not served");
        assert!(again.warnings().iter().any(|w| w.contains("corrupt")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_corruption_rotate_to_a_fresh_segment() {
        let dir = tmpdir("rotate");
        let store = OutcomeStore::open(&dir).expect("open");
        store.put(&key(1, 1), "x".repeat(64).as_str()).expect("put");
        drop(store);
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&seg, &bytes).expect("write");
        let store = OutcomeStore::open(&dir).expect("reopen");
        store
            .put(&key(2, 2), "fresh")
            .expect("put after corruption");
        drop(store);
        assert!(segment_path(&dir, 1).exists(), "rotated past the damage");
        let again = OutcomeStore::open(&dir).expect("reopen");
        assert_eq!(again.get(&key(2, 2)).as_deref(), Some("fresh"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_the_oldest_cells_first() {
        let dir = tmpdir("gc");
        let store = OutcomeStore::open(&dir).expect("open");
        for i in 0..4u64 {
            store
                .put(&key(i, 0), &format!("payload-{i}-{}", "x".repeat(100)))
                .expect("put");
        }
        // Hits do not protect a cell: the two oldest go, hit or not.
        store.get(&key(0, 0)).expect("hit");
        store.flush().expect("flush");
        drop(store);
        let before = verify(&dir).expect("verify");
        let total: u64 = before.segments.iter().map(|s| s.total_bytes).sum();
        let report = gc(&dir, total / 2).expect("gc");
        assert_eq!(report.kept, 2);
        assert_eq!(report.evicted, 2);
        assert!(report.after_bytes <= total / 2);
        let again = OutcomeStore::open(&dir).expect("reopen");
        assert!(again.get(&key(0, 0)).is_none(), "oldest evicted");
        assert!(again.get(&key(1, 0)).is_none(), "oldest evicted");
        assert!(again.get(&key(2, 0)).is_some(), "newer cell survives");
        assert!(again.get(&key(3, 0)).is_some(), "newer cell survives");
        assert_eq!(
            again.cells().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![key(2, 0), key(3, 0)],
            "survivors keep their append order"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readonly_handle_never_writes() {
        let dir = tmpdir("ro");
        let store = OutcomeStore::open(&dir).expect("open");
        store.put(&key(1, 1), "cell").expect("put");
        drop(store);
        let ro = OutcomeStore::open_readonly(&dir).expect("open ro");
        ro.put(&key(2, 2), "ignored").expect("no-op put");
        ro.flush().expect("no-op flush");
        assert_eq!(ro.len(), 1);
        drop(ro);
        let again = OutcomeStore::open(&dir).expect("reopen");
        assert!(again.get(&key(2, 2)).is_none(), "read-only put dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_readonly_requires_a_store() {
        let dir = tmpdir("ro_missing");
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(OutcomeStore::open_readonly(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
