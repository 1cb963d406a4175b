//! The journaled run manifest: `run.journal`.
//!
//! A ParaHash run on a big input takes hours; without a durable record
//! of progress, any process death throws away every completed partition
//! and subgraph. The journal is that record: an **append-only** file in
//! the work directory, one CRC-framed record per event. Each append call
//! writes its records whole and fsyncs once, after the last, before it
//! returns; a record either survives whole or not at all, and one a call
//! returned from is durable.
//!
//! ```text
//! record  := u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//! payload := one UTF-8 line (no trailing newline):
//!     "config <k> <p> <partitions> <input-digest-hex>"   (first record)
//!     "partition-sealed <i>"
//!     "subgraph-committed <i>"
//!     "quarantined <i> <reason…>"
//!     "run-complete"
//! ```
//!
//! Replay reads the longest valid prefix: the *final* record of a
//! crashed run is routinely torn (the process died mid-append), so a
//! short or checksum-failing record **at the tail** is tolerated and
//! reported via [`JournalState::torn_tail`]; resume truncates the file
//! back to the valid prefix before appending. The framing reuses the
//! partition-file CRC-32 ([`msp::crc32`]), and the full format is
//! documented in `docs/FORMATS.md` / `docs/RECOVERY.md`.
//!
//! Events may be appended from multiple threads (Step 1's sealing and
//! Step 2's output stage in a fused run, a sharded parent's connection
//! handlers); the journal serialises appends behind a mutex, and
//! `sub-split` lands right before its partition's `subgraph-committed`.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use pipeline::{commit, failpoint};

use crate::{ParaHashError, Result};

/// File name of the journal inside the work directory.
pub const JOURNAL_FILE: &str = "run.journal";

/// Identity of a run: the parameters and input whose artifacts the
/// journal describes. Resuming under a different fingerprint is refused
/// ([`ParaHashError::FingerprintMismatch`]) — partition files cut for a
/// different `k`/`p`/`partitions`/input would silently corrupt the
/// graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// K-mer length.
    pub k: usize,
    /// Minimizer length.
    pub p: usize,
    /// Number of partitions.
    pub partitions: usize,
    /// FNV-1a digest of the input (see [`Fingerprint::digest_bytes`]).
    pub input_digest: u64,
}

/// Tiny FNV-1a (64-bit) accumulator backing the fingerprint digests.
struct Fnv(u64);

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Chunk separator so `["ab","c"] != ["a","bc"]`.
    fn sep(&mut self) {
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }
}

impl Fingerprint {
    /// FNV-1a (64-bit) over a byte stream — stable, dependency-free, and
    /// plenty for distinguishing "same input" from "different input"
    /// (this is a config check, not an integrity check; artifact
    /// integrity is CRC-verified separately).
    pub fn digest_bytes<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
        let mut h = Fnv::new();
        for chunk in chunks {
            h.update(chunk);
            h.sep();
        }
        h.0
    }

    /// Digest of an in-memory read set: every read's id, length and
    /// packed sequence words, in order. Reordering, renaming or editing
    /// any read changes the digest.
    pub fn digest_reads(reads: &[dna::SeqRead]) -> u64 {
        let mut h = Fnv::new();
        for r in reads {
            h.update(r.id().as_bytes());
            h.sep();
            h.update(&(r.len() as u64).to_le_bytes());
            for w in r.seq().words() {
                h.update(&w.to_le_bytes());
            }
            h.sep();
        }
        h.0
    }

    /// Digest of a streamed input file the run never holds in memory:
    /// the canonical path (absolute, symlinks and `.`/`..` resolved) plus
    /// the file length. Deliberately cheap — a streamed input is exactly
    /// the input too big to re-read for a checksum — so this catches
    /// "pointed the resume at a different file", not in-place edits that
    /// preserve the length. The same file named another way (relative,
    /// through `./`, from another working directory) digests the same.
    ///
    /// An input that is not a regular file — an anonymous pipe
    /// (`/dev/stdin`, `/proc/self/fd/N`), a FIFO — has no such identity:
    /// it digests as a stream marker plus the path as given, and cannot
    /// be resumed from ([`crate::ParaHashError::UnresumableInput`]).
    ///
    /// # Errors
    ///
    /// Propagates the `metadata` or `canonicalize` failure when the file
    /// is missing or unreadable.
    pub fn digest_path(path: &Path) -> std::io::Result<u64> {
        let meta = std::fs::metadata(path)?;
        let mut h = Fnv::new();
        if meta.is_file() {
            h.update(std::fs::canonicalize(path)?.to_string_lossy().as_bytes());
            h.sep();
            h.update(&meta.len().to_le_bytes());
        } else {
            h.update(b"stream");
            h.sep();
            h.update(path.as_os_str().as_encoded_bytes());
        }
        h.sep();
        Ok(h.0)
    }

    /// 16-hex-digit run-scope token derived from the fingerprint. Used
    /// to suffix long-lived staging files (`part-*.skm.{token}.tmp`) so
    /// recovery sweeps reclaim only *this* run's leftovers and never a
    /// concurrent run's live staging in a shared output directory.
    /// Stable across a crash + resume of the same run (same parameters,
    /// same input → same token); two runs with identical fingerprints in
    /// one directory remain unsupported, as before.
    pub fn token(&self) -> String {
        let mut h = Fnv::new();
        for field in [self.k as u64, self.p as u64, self.partitions as u64, self.input_digest] {
            h.update(&field.to_le_bytes());
            h.sep();
        }
        format!("{:016x}", h.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(k={}, p={}, partitions={}, input={:016x})",
            self.k, self.p, self.partitions, self.input_digest
        )
    }
}

/// One journal event (everything after the leading `config` record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEvent {
    /// Partition `i`'s superkmer file (or resident payload) is complete
    /// and its bytes are committed/consumable.
    PartitionSealed(usize),
    /// Partition `i`'s subgraph file is committed on disk (atomic
    /// rename completed). Only recorded when subgraph persistence is on.
    SubgraphCommitted(usize),
    /// Partition `i` was quarantined (non-strict mode) with a reason.
    Quarantined(usize, String),
    /// Partition `i`'s projected table busted the memory budget and its
    /// build went out of core through `fanout` second-level
    /// sub-partitions. Appended when the partition settles, right before
    /// its `subgraph-committed`. Informational: the merged subgraph is
    /// byte-identical either way, so resume needs no special handling —
    /// the record explains memory behaviour post hoc and lets reports
    /// attribute the extra split work.
    SubSplit(usize, usize),
    /// The sharded Step 2 leased partition `i` to worker `w`. Appended
    /// by the parent *before* the assignment is sent, so a journal
    /// replay after a crash shows exactly which partitions were in
    /// flight (their `subgraph-committed` records are what prove
    /// completion, exactly as in-process).
    WorkerLease(usize, usize),
    /// The run finished; every artifact the config asked for exists.
    RunComplete,
}

impl JournalEvent {
    fn to_line(&self) -> String {
        match self {
            JournalEvent::PartitionSealed(i) => format!("partition-sealed {i}"),
            JournalEvent::SubgraphCommitted(i) => format!("subgraph-committed {i}"),
            JournalEvent::Quarantined(i, reason) => {
                // Keep the line-oriented payload parseable.
                format!("quarantined {i} {}", reason.replace(['\n', '\r'], " "))
            }
            JournalEvent::SubSplit(i, fanout) => format!("sub-split {i} {fanout}"),
            JournalEvent::WorkerLease(worker, i) => format!("worker-lease {worker} {i}"),
            JournalEvent::RunComplete => "run-complete".to_string(),
        }
    }
}

/// What a journal replay found: the run's fingerprint plus the set of
/// durable progress marks, ready for resume planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalState {
    /// Fingerprint from the leading `config` record.
    pub fingerprint: Fingerprint,
    /// Partitions with a `partition-sealed` record.
    pub sealed: BTreeSet<usize>,
    /// Partitions with a `subgraph-committed` record.
    pub committed: BTreeSet<usize>,
    /// Quarantine marks, in append order (later marks for the same
    /// partition override earlier ones).
    pub quarantined: Vec<(usize, String)>,
    /// `sub-split` marks in append order: `(partition, fanout)` pairs
    /// recording which partitions went out of core (a later mark for the
    /// same partition overrides an earlier one, e.g. a retry that picked
    /// a different fanout).
    pub sub_splits: Vec<(usize, usize)>,
    /// `worker-lease` marks in append order: `(worker, partition)` pairs
    /// from the sharded Step 2's assignment log.
    pub leases: Vec<(usize, usize)>,
    /// Whether a `run-complete` record was found.
    pub complete: bool,
    /// Length of the valid record prefix, in bytes. Equal to the file
    /// length for a cleanly-written journal.
    pub valid_bytes: u64,
    /// `true` when bytes beyond `valid_bytes` existed but did not form a
    /// whole valid record — the expected signature of a crash
    /// mid-append. Resume truncates them.
    pub torn_tail: bool,
}

/// Append-only, CRC-framed run journal, fsynced once per append call;
/// its records are listed in the repository's `docs/FORMATS.md`.
#[derive(Debug)]
pub struct RunJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl RunJournal {
    /// The journal path for a work directory.
    pub fn path_in(work_dir: &Path) -> PathBuf {
        work_dir.join(JOURNAL_FILE)
    }

    /// Starts a fresh journal for a new run: truncates any previous
    /// journal and durably writes the `config` fingerprint record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including an armed `journal.append`
    /// failpoint).
    pub fn create(work_dir: &Path, fingerprint: Fingerprint) -> Result<RunJournal> {
        std::fs::create_dir_all(work_dir)?;
        let path = Self::path_in(work_dir);
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        let journal = RunJournal { path, file: Mutex::new(file) };
        journal.append_lines([format!(
            "config {} {} {} {:016x}",
            fingerprint.k, fingerprint.p, fingerprint.partitions, fingerprint.input_digest
        )])?;
        if let Some(dir) = journal.path.parent() {
            commit::sync_dir(dir);
        }
        Ok(journal)
    }

    /// Reopens an existing journal for appending after a replay:
    /// truncates the file to `state.valid_bytes` (dropping a torn tail)
    /// and positions the cursor at the end.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn reopen(work_dir: &Path, state: &JournalState) -> Result<RunJournal> {
        let path = Self::path_in(work_dir);
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(state.valid_bytes)?;
        file.sync_all()?;
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(RunJournal { path, file: Mutex::new(file) })
    }

    /// Appends one event record and fsyncs it. Thread-safe.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including an armed `journal.append`
    /// failpoint).
    pub fn append(&self, event: &JournalEvent) -> Result<()> {
        self.append_all([event])
    }

    /// Appends `events` in order, with no other thread's record between
    /// them, and fsyncs once for all of them: each record is written
    /// whole, after its own pass through the `journal.append` failpoint,
    /// and the one `fdatasync` follows the last. A call appending nothing
    /// syncs nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including an armed `journal.append`
    /// failpoint: the records before it are synced, and it and those
    /// after it are not written).
    pub(crate) fn append_all<'e>(
        &self,
        events: impl IntoIterator<Item = &'e JournalEvent>,
    ) -> Result<()> {
        self.append_lines(events.into_iter().map(JournalEvent::to_line))
    }

    fn append_lines(&self, lines: impl IntoIterator<Item = String>) -> Result<()> {
        let file = self.file.lock();
        let mut f = &*file;
        let mut written = false;
        let mut appended = Ok(());
        for line in lines {
            appended = failpoint::hit("journal.append");
            if appended.is_err() {
                break;
            }
            let mut record = Vec::with_capacity(msp::FRAME_HEADER_LEN + line.len());
            msp::append_frame(&mut record, line.as_bytes());
            f.write_all(&record)?;
            written = true;
        }
        if written {
            f.sync_data()?;
        }
        Ok(appended?)
    }

    /// Reopens the journal in `work_dir` when it belongs to this run
    /// (same fingerprint, replayable), otherwise starts a fresh one.
    /// This is how a *reconnecting* shard worker keeps its committed
    /// records across connection drops: `create` would truncate them,
    /// destroying exactly the evidence cluster-wide resume aggregates.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of whichever path is taken.
    pub fn open_or_create(work_dir: &Path, fingerprint: Fingerprint) -> Result<RunJournal> {
        if Self::exists(work_dir) {
            if let Ok(state) = Self::replay(work_dir) {
                if state.fingerprint == fingerprint {
                    return Self::reopen(work_dir, &state);
                }
            }
        }
        Self::create(work_dir, fingerprint)
    }

    /// Whether a journal exists in `work_dir`.
    pub fn exists(work_dir: &Path) -> bool {
        Self::path_in(work_dir).is_file()
    }

    /// Whether the journal in `work_dir` holds no complete record — the
    /// signature of a crash during creation, before even the `config`
    /// record became durable. A vacant journal carries no information,
    /// so resume treats it exactly like a missing one.
    ///
    /// # Errors
    ///
    /// Propagates the read failure when the file cannot be opened.
    pub fn is_vacant(work_dir: &Path) -> std::io::Result<bool> {
        let mut bytes = Vec::new();
        File::open(Self::path_in(work_dir))?.read_to_end(&mut bytes)?;
        let (lines, _, _) = scan_records(&bytes);
        Ok(lines.is_empty())
    }

    /// Replays the journal in `work_dir`: parses the longest valid
    /// record prefix into a [`JournalState`], tolerating a torn final
    /// record — the signature of a crash mid-append.
    ///
    /// # Errors
    ///
    /// [`ParaHashError::Io`] when the journal cannot be read, and
    /// [`ParaHashError::Journal`] when a *valid-CRC* record is
    /// malformed (unknown event, missing `config` header, out-of-range
    /// index) — damage a crash cannot explain.
    pub fn replay(work_dir: &Path) -> Result<JournalState> {
        let path = Self::path_in(work_dir);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let (lines, valid_bytes, torn_tail) = scan_records(&bytes);

        let journal_err = |offset: u64, reason: String| ParaHashError::Journal { offset, reason };
        let mut it = lines.into_iter();
        let Some((off0, config_line)) = it.next() else {
            return Err(journal_err(0, "journal holds no complete record".into()));
        };
        let fields: Vec<&str> = config_line.split_whitespace().collect();
        let fingerprint = match fields.as_slice() {
            ["config", k, p, n, digest] => {
                let parse = |s: &str, what: &str| -> Result<usize> {
                    s.parse().map_err(|e| journal_err(off0, format!("bad {what}: {e}")))
                };
                Fingerprint {
                    k: parse(k, "k")?,
                    p: parse(p, "p")?,
                    partitions: parse(n, "partitions")?,
                    input_digest: u64::from_str_radix(digest, 16)
                        .map_err(|e| journal_err(off0, format!("bad input digest: {e}")))?,
                }
            }
            _ => {
                return Err(journal_err(
                    off0,
                    format!("first record must be `config <k> <p> <partitions> <digest>`, got {config_line:?}"),
                ))
            }
        };

        let mut state = JournalState {
            fingerprint,
            sealed: BTreeSet::new(),
            committed: BTreeSet::new(),
            quarantined: Vec::new(),
            sub_splits: Vec::new(),
            leases: Vec::new(),
            complete: false,
            valid_bytes,
            torn_tail,
        };
        let index_in_range = |idx: &str, off: u64, what: &str| -> Result<usize> {
            let i: usize =
                idx.parse().map_err(|e| journal_err(off, format!("bad {what} index: {e}")))?;
            if i >= fingerprint.partitions {
                return Err(journal_err(
                    off,
                    format!("{what} index {i} out of range (partitions {})", fingerprint.partitions),
                ));
            }
            Ok(i)
        };
        for (off, line) in it {
            if let Some(rest) = line.strip_prefix("partition-sealed ") {
                state.sealed.insert(index_in_range(rest.trim(), off, "partition-sealed")?);
            } else if let Some(rest) = line.strip_prefix("subgraph-committed ") {
                state.committed.insert(index_in_range(rest.trim(), off, "subgraph-committed")?);
            } else if let Some(rest) = line.strip_prefix("quarantined ") {
                let (idx, reason) = rest.split_once(' ').unwrap_or((rest, ""));
                let i = index_in_range(idx, off, "quarantined")?;
                state.quarantined.push((i, reason.to_string()));
            } else if let Some(rest) = line.strip_prefix("sub-split ") {
                let (idx, fanout) = rest
                    .split_once(' ')
                    .ok_or_else(|| journal_err(off, format!("bad sub-split record {rest:?}")))?;
                let i = index_in_range(idx, off, "sub-split")?;
                let fanout: usize = fanout
                    .trim()
                    .parse()
                    .map_err(|e| journal_err(off, format!("bad sub-split fanout: {e}")))?;
                if fanout < 2 {
                    return Err(journal_err(off, format!("sub-split fanout {fanout} below 2")));
                }
                state.sub_splits.push((i, fanout));
            } else if let Some(rest) = line.strip_prefix("worker-lease ") {
                let (worker, idx) = rest
                    .split_once(' ')
                    .ok_or_else(|| journal_err(off, format!("bad worker-lease record {rest:?}")))?;
                let worker: usize = worker
                    .parse()
                    .map_err(|e| journal_err(off, format!("bad worker-lease worker: {e}")))?;
                let i = index_in_range(idx.trim(), off, "worker-lease")?;
                state.leases.push((worker, i));
            } else if line == "run-complete" {
                state.complete = true;
            } else {
                return Err(journal_err(off, format!("unknown journal event {line:?}")));
            }
        }
        Ok(state)
    }
}

/// Aggregates the per-worker journals under `work_dir` (every
/// `worker-<id>/run.journal` the sharded Step 2 leaves behind) into the
/// set of partitions those workers durably committed, filtered to
/// journals whose fingerprint matches `fingerprint`.
///
/// This is the cluster-wide half of resume: when the *parent* crashed
/// mid-distribution, its own `run.journal` may be missing
/// `subgraph-committed` records for partitions a worker finished and
/// journaled but never got to report. Merging the worker journals in
/// means those partitions are not re-shipped or rebuilt — the committed
/// subgraph files are still re-verified byte-for-byte by the resume
/// planner before being trusted, exactly like the parent's own records.
///
/// Best-effort by design: an unreadable, torn-beyond-repair, or
/// foreign-fingerprint worker journal contributes nothing (resume then
/// simply rebuilds those partitions), so this never fails.
pub fn worker_committed(work_dir: &Path, fingerprint: &Fingerprint) -> BTreeSet<usize> {
    let mut committed = BTreeSet::new();
    let Ok(entries) = std::fs::read_dir(work_dir) else { return committed };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with("worker-") || !name["worker-".len()..].chars().all(|c| c.is_ascii_digit())
        {
            continue;
        }
        let dir = entry.path();
        if !RunJournal::exists(&dir) {
            continue;
        }
        if let Ok(state) = RunJournal::replay(&dir) {
            if state.fingerprint == *fingerprint {
                committed.extend(state.committed.iter().copied());
            }
        }
    }
    committed
}

/// Frame-scans raw journal bytes with [`msp::walk_frames`]: returns the
/// longest valid record prefix as `(byte offset, payload line)` pairs,
/// the prefix length in bytes, and whether trailing bytes beyond it were
/// refused (the torn tail). Pure framing — no semantic interpretation of
/// the lines.
fn scan_records(bytes: &[u8]) -> (Vec<(u64, String)>, u64, bool) {
    let mut lines = Vec::new();
    let mut valid_bytes = 0;
    // A record that does not verify, or is not text, is by definition the
    // torn tail: stop trusting the file there.
    for (offset, payload) in msp::walk_frames(bytes, None).map_while(|frame| frame.ok()) {
        let Ok(line) = std::str::from_utf8(payload) else { break };
        lines.push((offset as u64, line.to_string()));
        valid_bytes = offset + msp::FRAME_HEADER_LEN + payload.len();
    }
    (lines, valid_bytes as u64, valid_bytes < bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("parahash-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fp() -> Fingerprint {
        Fingerprint { k: 7, p: 4, partitions: 6, input_digest: 0xDEAD_BEEF_0123_4567 }
    }

    #[test]
    fn roundtrip_events() {
        let dir = tmpdir("roundtrip");
        let j = RunJournal::create(&dir, fp()).unwrap();
        j.append(&JournalEvent::PartitionSealed(0)).unwrap();
        j.append(&JournalEvent::PartitionSealed(3)).unwrap();
        j.append(&JournalEvent::SubgraphCommitted(0)).unwrap();
        j.append(&JournalEvent::Quarantined(2, "checksum mismatch\nmultiline".into())).unwrap();
        j.append(&JournalEvent::RunComplete).unwrap();
        drop(j);
        let state = RunJournal::replay(&dir).unwrap();
        assert_eq!(state.fingerprint, fp());
        assert_eq!(state.sealed, BTreeSet::from([0, 3]));
        assert_eq!(state.committed, BTreeSet::from([0]));
        assert_eq!(state.quarantined, vec![(2, "checksum mismatch multiline".to_string())]);
        assert!(state.complete);
        assert!(!state.torn_tail);
        assert_eq!(state.valid_bytes, std::fs::metadata(RunJournal::path_in(&dir)).unwrap().len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sub_split_and_worker_lease_roundtrip() {
        let dir = tmpdir("shard-events");
        let j = RunJournal::create(&dir, fp()).unwrap();
        j.append(&JournalEvent::WorkerLease(0, 5)).unwrap();
        j.append(&JournalEvent::WorkerLease(1, 2)).unwrap();
        j.append(&JournalEvent::SubSplit(5, 4)).unwrap();
        j.append(&JournalEvent::WorkerLease(0, 2)).unwrap(); // reassignment after death
        drop(j);
        let state = RunJournal::replay(&dir).unwrap();
        assert_eq!(state.sub_splits, vec![(5, 4)]);
        assert_eq!(state.leases, vec![(0, 5), (1, 2), (0, 2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_shard_records_are_hard_errors() {
        // CRC-valid but semantically bad records are damage a crash
        // cannot explain; replay must refuse them like any other event.
        for bad in
            ["sub-split 0", "sub-split 9 4", "sub-split 0 1", "worker-lease 0", "worker-lease 0 9"]
        {
            let dir = tmpdir(&format!("shard-bad-{}", bad.len()));
            let j = RunJournal::create(&dir, fp()).unwrap();
            j.append_lines([bad.to_string()]).unwrap();
            drop(j);
            assert!(
                matches!(RunJournal::replay(&dir), Err(ParaHashError::Journal { .. })),
                "accepted {bad:?}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let dir = tmpdir("torn");
        let j = RunJournal::create(&dir, fp()).unwrap();
        j.append(&JournalEvent::PartitionSealed(1)).unwrap();
        drop(j);
        let full = std::fs::read(RunJournal::path_in(&dir)).unwrap();
        let intact = RunJournal::replay(&dir).unwrap();
        assert_eq!(intact.valid_bytes, full.len() as u64);
        // Cut the file anywhere inside the *last* record: replay keeps
        // the config record and reports a torn tail.
        let first_record_len = full.len() - intact_second_record_len(&full);
        for cut in first_record_len + 1..full.len() {
            std::fs::write(RunJournal::path_in(&dir), &full[..cut]).unwrap();
            let state = RunJournal::replay(&dir).unwrap();
            assert!(state.torn_tail, "cut {cut}");
            assert_eq!(state.valid_bytes, first_record_len as u64, "cut {cut}");
            assert!(state.sealed.is_empty(), "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Length of the final record in a two-record journal buffer.
    fn intact_second_record_len(bytes: &[u8]) -> usize {
        let first_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize + 8;
        bytes.len() - first_len
    }

    #[test]
    fn reopen_truncates_torn_tail_and_appends() {
        let dir = tmpdir("reopen");
        let j = RunJournal::create(&dir, fp()).unwrap();
        j.append(&JournalEvent::PartitionSealed(1)).unwrap();
        drop(j);
        // Simulate a crash mid-append of a third record.
        let mut bytes = std::fs::read(RunJournal::path_in(&dir)).unwrap();
        bytes.extend_from_slice(&[17, 0, 0, 0, 9]); // header fragment
        std::fs::write(RunJournal::path_in(&dir), &bytes).unwrap();

        let state = RunJournal::replay(&dir).unwrap();
        assert!(state.torn_tail);
        let j = RunJournal::reopen(&dir, &state).unwrap();
        j.append(&JournalEvent::SubgraphCommitted(1)).unwrap();
        drop(j);
        let state = RunJournal::replay(&dir).unwrap();
        assert!(!state.torn_tail, "truncation must remove the fragment");
        assert_eq!(state.sealed, BTreeSet::from([1]));
        assert_eq!(state.committed, BTreeSet::from([1]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_stops_trust_at_the_flip() {
        let dir = tmpdir("interior");
        let j = RunJournal::create(&dir, fp()).unwrap();
        j.append(&JournalEvent::PartitionSealed(0)).unwrap();
        j.append(&JournalEvent::PartitionSealed(1)).unwrap();
        drop(j);
        let mut bytes = std::fs::read(RunJournal::path_in(&dir)).unwrap();
        let config_len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize + 8;
        // Flip a byte inside record 1 (the first sealed event).
        bytes[config_len + 10] ^= 0x40;
        std::fs::write(RunJournal::path_in(&dir), &bytes).unwrap();
        let state = RunJournal::replay(&dir).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.valid_bytes, config_len as u64);
        assert!(state.sealed.is_empty(), "events after the flip are untrusted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_valid_crc_record_is_an_error() {
        let dir = tmpdir("malformed");
        // A journal whose first (CRC-valid) record is not a config line.
        let payload = b"partition-sealed 0";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&msp::crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(RunJournal::path_in(&dir), &bytes).unwrap();
        let err = RunJournal::replay(&dir).unwrap_err();
        assert!(matches!(err, ParaHashError::Journal { .. }), "{err}");

        // Out-of-range partition index in a valid record.
        let j = RunJournal::create(&dir, fp()).unwrap();
        j.append(&JournalEvent::PartitionSealed(5)).unwrap();
        drop(j);
        let mut bytes = std::fs::read(RunJournal::path_in(&dir)).unwrap();
        let payload = b"partition-sealed 99";
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&msp::crc32(payload.as_slice()).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(RunJournal::path_in(&dir), &bytes).unwrap();
        let err = RunJournal::replay(&dir).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_distinguishes_chunk_boundaries() {
        let a = Fingerprint::digest_bytes([b"ab".as_slice(), b"c".as_slice()]);
        let b = Fingerprint::digest_bytes([b"a".as_slice(), b"bc".as_slice()]);
        let c = Fingerprint::digest_bytes([b"abc".as_slice()]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a, Fingerprint::digest_bytes([b"ab".as_slice(), b"c".as_slice()]));
    }

    #[test]
    fn open_or_create_preserves_matching_journals_only() {
        let dir = tmpdir("open-or-create");
        let j = RunJournal::create(&dir, fp()).unwrap();
        j.append(&JournalEvent::SubgraphCommitted(2)).unwrap();
        drop(j);
        // Same fingerprint: records survive the reopen (and more append).
        let j = RunJournal::open_or_create(&dir, fp()).unwrap();
        j.append(&JournalEvent::SubgraphCommitted(3)).unwrap();
        drop(j);
        let state = RunJournal::replay(&dir).unwrap();
        assert_eq!(state.committed, BTreeSet::from([2, 3]));
        // Different fingerprint: the stale journal is replaced.
        let other = Fingerprint { k: 11, ..fp() };
        drop(RunJournal::open_or_create(&dir, other).unwrap());
        let state = RunJournal::replay(&dir).unwrap();
        assert_eq!(state.fingerprint, other);
        assert!(state.committed.is_empty(), "stale records must not leak into a new run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_journals_aggregate_by_fingerprint() {
        let dir = tmpdir("aggregate");
        let j = RunJournal::create(&dir.join("worker-0"), fp()).unwrap();
        j.append(&JournalEvent::SubgraphCommitted(1)).unwrap();
        j.append(&JournalEvent::SubgraphCommitted(4)).unwrap();
        drop(j);
        let j = RunJournal::create(&dir.join("worker-1"), fp()).unwrap();
        j.append(&JournalEvent::SubgraphCommitted(2)).unwrap();
        drop(j);
        // A worker journal from a *different* run contributes nothing.
        let foreign = Fingerprint { input_digest: 99, ..fp() };
        let j = RunJournal::create(&dir.join("worker-2"), foreign).unwrap();
        j.append(&JournalEvent::SubgraphCommitted(5)).unwrap();
        drop(j);
        // Non-worker directories and junk are ignored.
        std::fs::create_dir_all(dir.join("worker-x")).unwrap();
        std::fs::create_dir_all(dir.join("subgraphs")).unwrap();
        assert_eq!(worker_committed(&dir, &fp()), BTreeSet::from([1, 2, 4]));
        assert_eq!(worker_committed(&dir.join("nonexistent"), &fp()), BTreeSet::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_io_error() {
        let dir = tmpdir("missing");
        assert!(!RunJournal::exists(&dir));
        assert!(matches!(RunJournal::replay(&dir), Err(ParaHashError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
