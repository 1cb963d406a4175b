use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use pipeline::{commit, failpoint};

use crate::frame::{write_frame, DEFAULT_FRAME_TARGET};
use crate::{MspError, PartitionStats, Result};

/// Writes encoded superkmer records into a directory of partition files
/// (`part-00000.skm` …) plus a `manifest.txt` describing them.
///
/// Records are buffered per partition and flushed as CRC32-checksummed
/// frames (see [`crate::frame`]'s module docs) cut at record boundaries,
/// so readers detect interior bit-flips, not just truncation, while the
/// zero-copy Step-2 replay still borrows records straight from the file
/// buffer.
///
/// One writer owns all `n` partition files — the paper notes the OS
/// file-handle cap (1000 on their platform) as the practical limit on `n`.
///
/// # Examples
///
/// ```no_run
/// use dna::PackedSeq;
/// use msp::{PartitionSlices, PartitionWriter};
///
/// # fn main() -> msp::Result<()> {
/// let mut writer = PartitionWriter::create("/tmp/parts", 64, 27, 11)?;
/// let reads = [PackedSeq::from_ascii(b"...")];
/// for (i, records) in msp::partition_in_memory(&reads, 27, 11, 64)?.iter().enumerate() {
///     let slices = PartitionSlices::index(records, 27, 11)?;
///     writer.append_encoded(i, records, slices.len() as u64, slices.total_kmers() as u64)?;
/// }
/// let manifest = writer.finish()?;
/// assert_eq!(manifest.num_partitions(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PartitionWriter {
    dir: PathBuf,
    k: usize,
    p: usize,
    files: Vec<BufWriter<File>>,
    stats: Vec<PartitionStats>,
    /// Whole records awaiting their next checksummed frame, per partition.
    pending: Vec<Vec<u8>>,
    /// Flush a partition's pending buffer once it reaches this many bytes.
    frame_target: usize,
    /// Run-scope token carried by the staged `*.tmp` names (empty =
    /// unscoped). See [`pipeline::commit::tmp_path_scoped`].
    run_token: String,
}

impl PartitionWriter {
    /// Creates the directory (if needed) and opens `num_partitions` fresh
    /// partition files inside it.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::NoPartitions`] for `num_partitions == 0`,
    /// [`MspError::InvalidParams`] for bad `k`/`p`, or an I/O error if the
    /// directory or files cannot be created.
    pub fn create(dir: impl AsRef<Path>, num_partitions: usize, k: usize, p: usize) -> Result<PartitionWriter> {
        PartitionWriter::create_scoped(dir, num_partitions, k, p, "")
    }

    /// [`create`](Self::create) with a run-scope token: the long-lived
    /// staging files are named `part-NNNNN.skm.{token}.tmp`, so a resume
    /// of *this* run can reclaim them while sweeps scoped to other runs
    /// in the same directory leave them alone
    /// ([`pipeline::commit::sweep_tmp_scoped`]). An empty token keeps the
    /// plain `.tmp` names.
    ///
    /// # Errors
    ///
    /// Same as [`create`](Self::create).
    pub fn create_scoped(
        dir: impl AsRef<Path>,
        num_partitions: usize,
        k: usize,
        p: usize,
        run_token: &str,
    ) -> Result<PartitionWriter> {
        if p < 1 || p > k || k > dna::MAX_K {
            return Err(MspError::InvalidParams { k, p });
        }
        if num_partitions == 0 {
            return Err(MspError::NoPartitions);
        }
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Partition files are staged as `*.skm[.{token}].tmp` and only
        // renamed to their final names (fsync file, rename, fsync dir) in
        // [`finish`](Self::finish) — a crash mid-run can never leave a
        // half-written file at a name recovery would trust.
        let mut files = Vec::with_capacity(num_partitions);
        for i in 0..num_partitions {
            let staged = commit::tmp_path_scoped(&partition_path(&dir, i), run_token);
            files.push(BufWriter::new(File::create(staged)?));
        }
        Ok(PartitionWriter {
            dir,
            k,
            p,
            files,
            stats: vec![PartitionStats::default(); num_partitions],
            pending: vec![Vec::new(); num_partitions],
            frame_target: DEFAULT_FRAME_TARGET,
            run_token: run_token.to_owned(),
        })
    }

    /// Overrides the frame flush threshold (default
    /// [`DEFAULT_FRAME_TARGET`]). Smaller targets produce more frames —
    /// useful for tests that need multi-frame files from tiny inputs.
    pub fn set_frame_target(&mut self, bytes: usize) {
        self.frame_target = bytes.max(1);
    }

    /// Appends already-encoded superkmer records to a partition file. The
    /// pipeline's compute stage encodes on whichever processor ran the
    /// scan; the output stage only appends bytes. `superkmers` and `kmers`
    /// are the record counts the caller tallied while encoding. The whole
    /// records join the partition's pending buffer (stats count payload
    /// bytes, excluding frame headers), which is flushed as a checksummed
    /// frame once it crosses the target.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn append_encoded(
        &mut self,
        partition: usize,
        bytes: &[u8],
        superkmers: u64,
        kmers: u64,
    ) -> Result<()> {
        self.pending[partition].extend_from_slice(bytes);
        let s = &mut self.stats[partition];
        s.superkmers += superkmers;
        s.kmers += kmers;
        s.bytes += bytes.len() as u64;
        if self.pending[partition].len() >= self.frame_target {
            self.flush_frame(partition)?;
        }
        Ok(())
    }

    /// Writes the partition's pending records as one checksummed frame.
    fn flush_frame(&mut self, partition: usize) -> Result<()> {
        let payload = &self.pending[partition];
        if payload.is_empty() {
            return Ok(());
        }
        failpoint::hit("msp.frame.append")?;
        write_frame(&mut self.files[partition], payload)?;
        self.pending[partition].clear();
        Ok(())
    }

    /// Flushes every pending frame and file, atomically commits each
    /// staged `*.skm.tmp` to its final `part-NNNNN.skm` name (fsync,
    /// rename, dir fsync), writes `manifest.txt` (also atomically), and
    /// returns the manifest. Until this returns, the directory holds
    /// only obviously-uncommitted `*.tmp` files and no manifest — a
    /// crash anywhere before the manifest commit leaves nothing a later
    /// run could mistake for a complete Step-1 output.
    ///
    /// # Errors
    ///
    /// Propagates flush/fsync/rename failures.
    pub fn finish(mut self) -> Result<PartitionManifest> {
        for i in 0..self.files.len() {
            self.flush_frame(i)?;
        }
        // A batched `commit::commit_staged`: N fsyncs and N renames under
        // *one* directory fsync, instead of one directory fsync per file.
        for (i, f) in self.files.drain(..).enumerate() {
            let file = f.into_inner().map_err(|e| MspError::Io(e.into()))?;
            file.sync_all()?;
            drop(file);
            let path = partition_path(&self.dir, i);
            fs::rename(commit::tmp_path_scoped(&path, &self.run_token), &path)?;
        }
        commit::sync_dir(&self.dir);
        PartitionManifest::commit(self.dir.clone(), self.k, self.p, std::mem::take(&mut self.stats))
    }
}

/// Metadata for a directory of superkmer partitions: the `k`/`p`
/// parameters and per-partition statistics — all that Step 1 tells
/// Step 2 beyond the partition bytes. Persisted as a small text file so
/// Step 2 (possibly a different process) can size its hash tables from
/// the kmer counts without rescanning. The file is written once, by the
/// Step-1 sink that finished the directory ([`PartitionWriter::finish`]
/// or [`PartitionStore::finish_manifest`](crate::PartitionStore::finish_manifest)),
/// and never rewritten: what Step 2 later does with a partition is
/// recorded in the run journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionManifest {
    dir: PathBuf,
    k: usize,
    p: usize,
    stats: Vec<PartitionStats>,
}

impl PartitionManifest {
    /// The directory holding the partition files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// K-mer length the partitions were cut for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Minimizer length used for routing.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.stats.len()
    }

    /// Per-partition statistics.
    pub fn stats(&self) -> &[PartitionStats] {
        &self.stats
    }

    /// Path of partition `index`'s file.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn partition_path(&self, index: usize) -> PathBuf {
        assert!(index < self.stats.len(), "partition {index} out of range");
        partition_path(&self.dir, index)
    }

    /// Total kmers across all partitions.
    pub fn total_kmers(&self) -> u64 {
        self.stats.iter().map(|s| s.kmers).sum()
    }

    /// Total superkmers across all partitions.
    pub fn total_superkmers(&self) -> u64 {
        self.stats.iter().map(|s| s.superkmers).sum()
    }

    /// Total encoded bytes across all partitions.
    pub fn total_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.bytes).sum()
    }

    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("manifest.txt")
    }

    /// A finished partition directory's manifest, written to its
    /// `manifest.txt` atomically: the full contents are staged to
    /// `manifest.txt.tmp`, fsynced, and renamed into place, so a reader
    /// sees a whole manifest or none. The two Step-1 sinks call this once
    /// each, as their last act.
    pub(crate) fn commit(
        dir: PathBuf,
        k: usize,
        p: usize,
        stats: Vec<PartitionStats>,
    ) -> Result<PartitionManifest> {
        let mut out = Vec::with_capacity(64 + 32 * stats.len());
        writeln!(out, "parahash-msp-manifest v1")?;
        writeln!(out, "k {k}")?;
        writeln!(out, "p {p}")?;
        writeln!(out, "partitions {}", stats.len())?;
        for (i, s) in stats.iter().enumerate() {
            writeln!(out, "part {i} {} {} {}", s.superkmers, s.kmers, s.bytes)?;
        }
        commit::commit_bytes(&Self::manifest_path(&dir), &out)?;
        Ok(PartitionManifest { dir, k, p, stats })
    }

    /// Loads the manifest from a partition directory.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::CorruptRecord`] on a malformed manifest and
    /// [`MspError::Io`] if the file cannot be read.
    pub fn load(dir: impl AsRef<Path>) -> Result<PartitionManifest> {
        let dir = dir.as_ref().to_path_buf();
        let file = BufReader::new(File::open(Self::manifest_path(&dir))?);
        let corrupt = |line: u64, reason: String| MspError::CorruptRecord { offset: line, reason };
        let mut lines = file.lines();
        let mut next = |n: u64| -> Result<String> {
            lines
                .next()
                .transpose()?
                .ok_or_else(|| corrupt(n, "manifest truncated".into()))
        };
        let magic = next(0)?;
        if magic != "parahash-msp-manifest v1" {
            return Err(corrupt(0, format!("bad magic {magic:?}")));
        }
        let field = |line: String, n: u64, name: &str| -> Result<usize> {
            let rest = line
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| corrupt(n, format!("expected '{name} <value>', got {line:?}")))?;
            rest.trim().parse().map_err(|e| corrupt(n, format!("bad {name}: {e}")))
        };
        let k = field(next(1)?, 1, "k")?;
        let p = field(next(2)?, 2, "p")?;
        let n = field(next(3)?, 3, "partitions")?;
        // Nothing is reserved from the header's word: a count the file
        // does not back fails as truncation at the first missing line.
        let mut stats = Vec::new();
        for i in 0..n {
            let line = next(4 + i as u64)?;
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 5 || parts[0] != "part" || parts[1] != i.to_string() {
                return Err(corrupt(4 + i as u64, format!("bad partition line {line:?}")));
            }
            let parse = |s: &str| -> Result<u64> {
                s.parse().map_err(|e| corrupt(4 + i as u64, format!("bad count: {e}")))
            };
            stats.push(PartitionStats {
                superkmers: parse(parts[2])?,
                kmers: parse(parts[3])?,
                bytes: parse(parts[4])?,
            });
        }
        // The `part` block ends the manifest: anything but blank lines
        // after it is corruption.
        for (line, lineno) in lines.zip(4 + n as u64..) {
            let line = line?;
            if !line.trim().is_empty() {
                return Err(corrupt(lineno, format!("unexpected trailing line {line:?}")));
            }
        }
        Ok(PartitionManifest { dir, k, p, stats })
    }
}

pub(crate) fn partition_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("part-{index:05}.skm"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::records_of;
    use crate::{PartitionRouter, PartitionSlices};
    use dna::PackedSeq;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("msp-writer-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Routes `read`'s records over the writer's partitions and appends
    /// them one at a time; returns what each partition was given.
    fn write_read(w: &mut PartitionWriter, read: &PackedSeq) -> Vec<Vec<u8>> {
        let router = PartitionRouter::new(w.files.len()).unwrap();
        let mut given = vec![Vec::new(); w.files.len()];
        for (minimizer, record, kmers) in records_of(read, w.k, w.p) {
            let part = router.route_minimizer(&minimizer);
            w.append_encoded(part, &record, 1, kmers).unwrap();
            given[part].extend_from_slice(&record);
        }
        given
    }

    #[test]
    fn write_finish_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut w = PartitionWriter::create(&dir, 8, 7, 4).unwrap();
        let read = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT");
        let given = write_read(&mut w, &read);
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.total_superkmers(), records_of(&read, 7, 4).len() as u64);
        assert_eq!(manifest.total_kmers(), (read.len() - 7 + 1) as u64);
        assert!(manifest.total_bytes() > 0);
        // Each file deframes to exactly the records its partition was
        // given, in order, and indexes to the manifest's counts.
        for (i, want) in given.iter().enumerate() {
            let framed = fs::read(manifest.partition_path(i)).unwrap();
            assert_eq!(&crate::deframe(&framed).unwrap(), want, "partition {i}");
            let slices = PartitionSlices::index_framed(&framed, 7, 4).unwrap();
            let stat = &manifest.stats()[i];
            assert_eq!((slices.len() as u64, slices.total_kmers() as u64), (stat.superkmers, stat.kmers));
        }

        let loaded = PartitionManifest::load(&dir).unwrap();
        assert_eq!(loaded, manifest);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_partitions_produce_empty_files() {
        let dir = tmpdir("empty");
        let w = PartitionWriter::create(&dir, 4, 5, 3).unwrap();
        let manifest = w.finish().unwrap();
        for i in 0..4 {
            let meta = fs::metadata(manifest.partition_path(i)).unwrap();
            assert_eq!(meta.len(), 0);
        }
        assert_eq!(manifest.total_kmers(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let dir = tmpdir("invalid");
        assert!(matches!(PartitionWriter::create(&dir, 0, 5, 3), Err(MspError::NoPartitions)));
        assert!(matches!(PartitionWriter::create(&dir, 4, 3, 5), Err(MspError::InvalidParams { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_manifest_is_rejected() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("manifest.txt"), "not a manifest\n").unwrap();
        assert!(matches!(PartitionManifest::load(&dir), Err(MspError::CorruptRecord { .. })));
        fs::write(dir.join("manifest.txt"), "parahash-msp-manifest v1\nk 27\np 11\npartitions 2\npart 0 1 2 3\n").unwrap();
        let err = PartitionManifest::load(&dir).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_frame_target_produces_multiple_valid_frames() {
        let dir = tmpdir("multiframe");
        let mut w = PartitionWriter::create(&dir, 1, 7, 4).unwrap();
        w.set_frame_target(1); // flush a frame after every record
        let read = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT");
        write_read(&mut w, &read);
        let manifest = w.finish().unwrap();
        let bytes = fs::read(manifest.partition_path(0)).unwrap();
        let payloads = crate::frame_payloads(&bytes).unwrap();
        assert_eq!(payloads.len(), records_of(&read, 7, 4).len(), "one frame per record");
        // Stats count payload bytes only, never framing overhead.
        let payload_total: usize = payloads.iter().map(|p| p.len()).sum();
        assert_eq!(manifest.total_bytes(), payload_total as u64);
        assert_eq!(
            bytes.len(),
            payload_total + payloads.len() * crate::FRAME_HEADER_LEN
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partitions_are_staged_as_tmp_until_finish() {
        let dir = tmpdir("staged");
        let mut w = PartitionWriter::create(&dir, 2, 7, 4).unwrap();
        write_read(&mut w, &PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGG"));
        // Before finish: only obviously-uncommitted tmp files, no manifest.
        for i in 0..2 {
            let final_path = partition_path(&dir, i);
            assert!(!final_path.exists(), "final name must not exist pre-commit");
            assert!(pipeline::commit::tmp_path(&final_path).exists());
        }
        assert!(!dir.join("manifest.txt").exists());
        let manifest = w.finish().unwrap();
        // After finish: committed names only, no tmp leftovers.
        for i in 0..2 {
            assert!(manifest.partition_path(i).exists());
            assert!(!pipeline::commit::tmp_path(&manifest.partition_path(i)).exists());
        }
        assert!(dir.join("manifest.txt").exists());
        assert!(!dir.join("manifest.txt.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    // NOTE: arming the real `msp.frame.append` site in a unit test would
    // race with sibling tests flushing frames on other threads (the
    // registry is process-global); real-site coverage lives in the
    // crash-recovery integration suite, which arms sites in forked child
    // processes via PARAHASH_FAILPOINTS.

    /// Step-2 outcomes are journal records, not manifest lines: a
    /// manifest carrying one of the four retired marks (or anything else
    /// after its `part` block) is corrupt, and the error names the line.
    #[test]
    fn lines_after_the_part_block_are_rejected_with_their_line_number() {
        let dir = tmpdir("trailing");
        fs::create_dir_all(&dir).unwrap();
        let head = "parahash-msp-manifest v1\nk 5\np 3\npartitions 1\npart 0 0 0 0\n";
        for retired in ["resident 0", "spilled 0", "quarantined 0 checksum mismatch", "sub-split 0 4"] {
            fs::write(dir.join("manifest.txt"), format!("{head}\n{retired}\n")).unwrap();
            match PartitionManifest::load(&dir) {
                Err(MspError::CorruptRecord { offset: 6, reason }) => {
                    assert!(reason.contains(retired), "{reason}")
                }
                other => panic!("{retired:?}: {other:?}"),
            }
        }
        fs::write(dir.join("manifest.txt"), format!("{head}\n\n")).unwrap();
        assert_eq!(PartitionManifest::load(&dir).unwrap().num_partitions(), 1, "blank lines pass");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The header's partition count is a claim, not a length to allocate:
    /// a count the file does not back is truncation at the first missing
    /// `part` line.
    #[test]
    fn a_partition_count_the_file_does_not_back_is_truncation() {
        let dir = tmpdir("hostile-count");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("manifest.txt"),
            "parahash-msp-manifest v1\nk 5\np 3\npartitions 1152921504606846975\npart 0 0 0 0\n",
        )
        .unwrap();
        match PartitionManifest::load(&dir) {
            Err(MspError::CorruptRecord { offset: 5, reason }) => {
                assert!(reason.contains("truncated"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_io_error() {
        let dir = tmpdir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(PartitionManifest::load(&dir), Err(MspError::Io(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
