//! Budget-governed partition staging: the one Step-1 sink.
//!
//! [`PartitionStore`] accepts encoded superkmer records, cuts them into
//! CRC32-checksummed frames (see [`crate::frame`]'s module docs) at record
//! boundaries, and produces the partition manifest. Partitions stay
//! **resident** (framed byte buffers) until a configurable byte budget is
//! exceeded, at which point the largest resident partitions are
//! **spilled** to their `part-NNNNN.skm` files. Because spilled bytes keep
//! the exact in-memory frame format,
//! [`PartitionSlices::index_framed`](crate::PartitionSlices) consumes both
//! residencies unchanged.
//!
//! The budget invariant — *resident payload bytes (including the frame
//! header reserved for each partition's pending buffer) never exceed the
//! budget* — holds after **every** append, not just at flush points:
//! frame headers are accounted the moment a pending buffer becomes
//! non-empty, so flushing pending records into the resident backing is
//! cost-neutral. A huge budget keeps Step 2 entirely off the disk. A
//! budget of `0` is the paper's two-phase data path: every partition's
//! file is opened at creation, so every partition — one no record was
//! routed to included — ends up committed as a file when it is sealed.
//!
//! Spilled partitions retain only a bounded pending buffer (at most the
//! frame target); that working memory is not counted against the budget,
//! which governs resident partition *payloads*.
//!
//! A frame that goes to disk holds each superkmer once: identical
//! records in it **combine** into one record whose flag bit 6 is set and
//! whose copy count follows the core as a LEB128 suffix (see
//! [`encode_superkmer_slice`](crate::encode_superkmer_slice)), in the
//! order of their first copies. A spilled partition's pending buffer is
//! combined as it is framed, and a resident partition's frames are
//! combined on their way to its spill file. Records combine one frame at
//! a time — one partition's records, through one scratch
//! [`RecordCollapse`](crate::RecordCollapse) the whole store reuses — so
//! no record combines across a frame boundary; a partition that spans
//! many frames may hold a record once per frame, and Step 2's collapse
//! sums those. A frame that stays resident keeps its records as
//! appended: it never crosses the disk, and Step 2's collapse combines
//! it on the cores that build it. The manifest's `superkmers`/`kmers`
//! count every copy Step 1 scanned; its `bytes` is the payload as
//! stored.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use pipeline::{commit, failpoint};

use crate::frame::{append_frame, write_frame, DEFAULT_FRAME_TARGET, FRAME_HEADER_LEN};
use crate::record::write_record;
use crate::view::RecordKey;
use crate::writer::partition_path;
use crate::{MspError, PartitionManifest, PartitionRouter, PartitionStats, RecordCollapse, Result};

/// How Step 1 hands encoded superkmer records to [`PartitionStore`],
/// partition by partition.
pub trait PartitionSink {
    /// Appends already-encoded superkmer records to a partition.
    /// `superkmers` and `kmers` are the record counts the caller tallied
    /// while encoding — every copy, whatever the sink combines.
    ///
    /// # Errors
    ///
    /// Propagates write failures (spill and frame I/O).
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range or already sealed.
    fn append_encoded(
        &mut self,
        partition: usize,
        bytes: &[u8],
        superkmers: u64,
        kmers: u64,
    ) -> Result<()>;
}

/// Where a sealed partition's framed bytes live.
#[derive(Debug)]
pub enum SealedPayload {
    /// The partition stayed within the budget: its framed bytes are handed
    /// over directly, no disk round-trip.
    Resident(Vec<u8>),
    /// The partition was spilled: read the framed bytes back from this
    /// file (the same framed bytes a resident payload holds).
    Spilled(PathBuf),
}

/// One partition sealed by [`PartitionStore::seal`], ready for Step 2.
#[derive(Debug)]
pub struct SealedPartition {
    /// Partition index.
    pub index: usize,
    /// Superkmer records appended to the partition, every copy counted.
    pub superkmers: u64,
    /// Total k-mer occurrences across those records.
    pub kmers: u64,
    /// Payload bytes as stored (excluding frame headers), as in the
    /// manifest.
    pub bytes: u64,
    /// The framed bytes, resident or on disk.
    pub payload: SealedPayload,
}

#[derive(Debug)]
enum Backing {
    /// Framed bytes accumulating in memory.
    Resident(Vec<u8>),
    /// Framed bytes streaming to the partition file.
    Spilled(BufWriter<File>),
    /// Handed off via [`PartitionStore::seal`].
    Sealed,
}

#[derive(Debug)]
struct Slot {
    backing: Backing,
    /// Whole records awaiting their next checksummed frame, as
    /// appended.
    pending: Vec<u8>,
}

impl Slot {
    /// Budget cost of a resident slot: backing + pending + the frame
    /// header already reserved for the pending records (so flushing
    /// pending into backing never changes the cost).
    fn resident_cost(&self) -> u64 {
        let backing = match &self.backing {
            Backing::Resident(v) => v.len(),
            _ => return 0,
        };
        let pend = self.pending.len();
        let header = if pend == 0 { 0 } else { FRAME_HEADER_LEN };
        (backing + pend + header) as u64
    }
}

/// Budget-governed partition staging: resident framed buffers with
/// spill-to-disk overflow — the largest resident partitions spill first
/// once the byte budget is exceeded.
///
/// # Examples
///
/// ```no_run
/// use msp::{PartitionSink, PartitionStore, SealedPayload};
///
/// # fn main() -> msp::Result<()> {
/// let mut store = PartitionStore::create("/tmp/parts", 4, 27, 11, 1 << 20)?;
/// let read = dna::PackedSeq::from_ascii(b"TGATGGATGAACCAGTTTGAGGCATTAGCCAGT");
/// let records = msp::partition_in_memory(std::slice::from_ref(&read), 27, 11, 1)?.remove(0);
/// let slices = msp::PartitionSlices::index(&records, 27, 11)?;
/// store.append_encoded(0, &records, slices.len() as u64, slices.total_kmers() as u64)?;
/// let manifest = store.finish_manifest()?;
/// let sealed = store.seal(0)?;
/// assert!(matches!(sealed.payload, SealedPayload::Resident(_)));
/// # let _ = manifest;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PartitionStore {
    dir: PathBuf,
    k: usize,
    p: usize,
    /// Resident payload budget in bytes. `0` = spill everything.
    budget: u64,
    frame_target: usize,
    stats: Vec<PartitionStats>,
    slots: Vec<Slot>,
    /// `residency[i]` is false once partition `i` has spilled.
    residency: Vec<bool>,
    resident_bytes: u64,
    peak_resident_bytes: u64,
    spills: u64,
    /// Run-scope token carried by the staged spill `*.tmp` names (empty
    /// = unscoped). See [`pipeline::commit::tmp_path_scoped`].
    run_token: String,
    /// Whether a frame bound for disk combines identical records (false
    /// only for the [`PartitionWriter`](crate::PartitionWriter)).
    combine: bool,
    /// Scratch of the combining: the distinct records of the frame being
    /// combined, and the frame they make.
    collapse: RecordCollapse,
    frame: Vec<u8>,
}

impl PartitionStore {
    /// Creates the directory. Spill files are created when a partition
    /// exceeds the budget — at creation, for every partition, when the
    /// budget is `0`.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::NoPartitions`] for `num_partitions == 0`,
    /// [`MspError::InvalidParams`] for bad `k`/`p`, or an I/O error if the
    /// directory cannot be created.
    pub fn create(
        dir: impl AsRef<Path>,
        num_partitions: usize,
        k: usize,
        p: usize,
        budget_bytes: u64,
    ) -> Result<PartitionStore> {
        PartitionStore::create_scoped(dir, num_partitions, k, p, budget_bytes, "")
    }

    /// [`create`](Self::create) with a run-scope token: spill files are
    /// staged as `part-NNNNN.skm.{token}.tmp`, so sweeps scoped to other
    /// runs sharing the directory cannot delete this run's live staging
    /// ([`pipeline::commit::sweep_tmp_scoped`]). An empty token keeps
    /// the plain `.tmp` names.
    ///
    /// # Errors
    ///
    /// Same as [`create`](Self::create).
    pub fn create_scoped(
        dir: impl AsRef<Path>,
        num_partitions: usize,
        k: usize,
        p: usize,
        budget_bytes: u64,
        run_token: &str,
    ) -> Result<PartitionStore> {
        if p < 1 || p > k || k > dna::MAX_K {
            return Err(MspError::InvalidParams { k, p });
        }
        let _ = PartitionRouter::new(num_partitions)?;
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let slots = (0..num_partitions)
            .map(|_| Slot { backing: Backing::Resident(Vec::new()), pending: Vec::new() })
            .collect();
        let mut store = PartitionStore {
            dir,
            k,
            p,
            budget: budget_bytes,
            frame_target: DEFAULT_FRAME_TARGET,
            stats: vec![PartitionStats::default(); num_partitions],
            slots,
            residency: vec![true; num_partitions],
            resident_bytes: 0,
            peak_resident_bytes: 0,
            spills: 0,
            run_token: run_token.to_owned(),
            combine: true,
            collapse: RecordCollapse::default(),
            frame: Vec::new(),
        };
        if budget_bytes == 0 {
            for i in 0..num_partitions {
                store.spill(i)?;
            }
        }
        Ok(store)
    }

    /// This store with combining off: records are framed exactly as
    /// appended, copies and all.
    pub(crate) fn without_combining(mut self) -> PartitionStore {
        self.combine = false;
        self
    }

    /// The partition directory (holds spill files and the manifest).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.slots.len()
    }

    /// Overrides the frame flush threshold (default
    /// [`DEFAULT_FRAME_TARGET`](crate::DEFAULT_FRAME_TARGET)).
    pub fn set_frame_target(&mut self, bytes: usize) {
        self.frame_target = bytes.max(1);
    }

    /// Current resident payload bytes (always `<=` the budget).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// High-water mark of [`resident_bytes`](Self::resident_bytes).
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes
    }

    /// How many partitions have been spilled to disk.
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Whether partition `index` is still resident (never spilled).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn is_resident(&self, index: usize) -> bool {
        self.residency[index]
    }

    /// Per-partition statistics accumulated so far.
    pub fn stats(&self) -> &[PartitionStats] {
        &self.stats
    }

    /// [`PartitionSink::append_encoded`]: the records join the
    /// partition's pending buffer, which is flushed as a checksummed
    /// frame once it crosses the frame target, spilling as needed to
    /// keep resident bytes within the budget. Stats count the payload
    /// bytes a frame stores (excluding frame headers) when it is
    /// written.
    fn push_bytes(
        &mut self,
        partition: usize,
        bytes: &[u8],
        superkmers: u64,
        kmers: u64,
    ) -> Result<()> {
        if !bytes.is_empty() {
            if matches!(self.slots[partition].backing, Backing::Resident(_)) {
                // Cost delta of appending `bytes` to this slot's pending
                // buffer: the payload plus the frame header reserved when
                // the buffer first becomes non-empty.
                let header = if self.slots[partition].pending.is_empty() {
                    FRAME_HEADER_LEN as u64
                } else {
                    0
                };
                let delta = bytes.len() as u64 + header;
                if self.slots[partition].resident_cost() + delta > self.budget {
                    // This partition alone can no longer fit: spill it
                    // directly rather than evicting everyone else first.
                    self.spill(partition)?;
                } else {
                    while self.resident_bytes + delta > self.budget {
                        let victim = self.largest_resident().expect(
                            "resident_bytes > 0 implies a resident slot exists",
                        );
                        self.spill(victim)?;
                        if victim == partition {
                            break;
                        }
                    }
                }
            }
            let slot = &mut self.slots[partition];
            if matches!(slot.backing, Backing::Resident(_)) && slot.pending.is_empty() {
                self.resident_bytes += FRAME_HEADER_LEN as u64;
            }
            if matches!(slot.backing, Backing::Resident(_)) {
                self.resident_bytes += bytes.len() as u64;
            }
            slot.pending.extend_from_slice(bytes);
            self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
            debug_assert!(
                self.resident_bytes <= self.budget,
                "budget invariant violated: {} > {}",
                self.resident_bytes,
                self.budget
            );
        }
        let s = &mut self.stats[partition];
        s.superkmers += superkmers;
        s.kmers += kmers;
        if self.slots[partition].pending.len() >= self.frame_target {
            self.flush_frame(partition)?;
        }
        Ok(())
    }

    /// Largest resident slot by cost; ties broken towards the lowest
    /// index so spill order is deterministic.
    fn largest_resident(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.backing, Backing::Resident(_)))
            .max_by(|(ia, a), (ib, b)| {
                a.resident_cost().cmp(&b.resident_cost()).then(ib.cmp(ia))
            })
            .map(|(i, _)| i)
    }

    /// Converts a resident slot to a spill file: the already-framed
    /// backing frames go out one by one, each combined (or verbatim, for
    /// a store that does not combine); pending records stay buffered
    /// (they keep framing as usual, just to disk now).
    ///
    /// The spill file is staged as `part-NNNNN.skm.tmp` and only renamed
    /// to its final name (fsync, rename, dir fsync) when the partition is
    /// [sealed](Self::seal) — a crash mid-spill leaves an obviously
    /// uncommitted `*.tmp`, never a plausible-looking partial partition.
    fn spill(&mut self, partition: usize) -> Result<()> {
        failpoint::hit("msp.store.spill")?;
        let cost = self.slots[partition].resident_cost();
        let slot = &mut self.slots[partition];
        let backing = match std::mem::replace(&mut slot.backing, Backing::Sealed) {
            Backing::Resident(v) => v,
            other => {
                slot.backing = other;
                panic!("spill of non-resident partition {partition}");
            }
        };
        let staged = commit::tmp_path_scoped(&partition_path(&self.dir, partition), &self.run_token);
        let mut file = BufWriter::new(File::create(staged)?);
        if self.combine {
            // The resident frames hold the records as appended: combine
            // each on its way to disk.
            let mut at = 0;
            while at < backing.len() {
                let len = u32::from_le_bytes(backing[at..at + 4].try_into().expect("4 bytes")) as usize;
                let raw = &backing[at + FRAME_HEADER_LEN..at + FRAME_HEADER_LEN + len];
                combine_frame(&mut self.collapse, self.k, raw, &mut self.frame)?;
                write_frame(&mut file, &self.frame)?;
                self.stats[partition].bytes -= (len - self.frame.len()) as u64;
                at += FRAME_HEADER_LEN + len;
            }
        } else {
            file.write_all(&backing)?;
        }
        slot.backing = Backing::Spilled(file);
        self.residency[partition] = false;
        self.resident_bytes -= cost;
        self.spills += 1;
        Ok(())
    }

    /// Writes the partition's pending records as one checksummed frame:
    /// as appended into the resident backing (cost-neutral: the header
    /// was reserved at append time), or combined — each distinct record
    /// once, weighted by its copies — into the spill file.
    ///
    /// # Errors
    ///
    /// [`MspError::CorruptRecord`] when the pending bytes are not
    /// records (offsets relative to the pending frame), and write
    /// failures.
    fn flush_frame(&mut self, partition: usize) -> Result<()> {
        let slot = &mut self.slots[partition];
        if slot.pending.is_empty() {
            return Ok(());
        }
        failpoint::hit("msp.frame.append")?;
        let payload = if self.combine && matches!(slot.backing, Backing::Spilled(_)) {
            combine_frame(&mut self.collapse, self.k, &slot.pending, &mut self.frame)?;
            &self.frame
        } else {
            &slot.pending
        };
        match &mut slot.backing {
            Backing::Resident(backing) => append_frame(backing, payload),
            Backing::Spilled(file) => write_frame(file, payload)?,
            Backing::Sealed => panic!("write to sealed partition {partition}"),
        }
        self.stats[partition].bytes += payload.len() as u64;
        slot.pending.clear();
        Ok(())
    }

    /// Frames every partition's pending records, so the stats hold the
    /// bytes each partition stores. Sealing frames them too; call this
    /// first to order partitions by their final sizes.
    ///
    /// # Errors
    ///
    /// Propagates frame and I/O failures.
    pub fn frame_pending(&mut self) -> Result<()> {
        (0..self.slots.len()).try_for_each(|i| self.flush_frame(i))
    }

    /// Frames every partition's pending records, then builds and saves
    /// the manifest from the stats. Call once appends are complete.
    ///
    /// # Errors
    ///
    /// Propagates frame and I/O failures, those from writing
    /// `manifest.txt` included.
    pub fn finish_manifest(&mut self) -> Result<PartitionManifest> {
        self.frame_pending()?;
        let (manifest, staged) =
            PartitionManifest::stage(self.dir.clone(), self.k, self.p, self.stats.clone())?;
        commit::commit_batch(&[staged])?;
        Ok(manifest)
    }

    /// Flushes and hands off one partition for Step 2: resident bytes
    /// move out by value (no disk round-trip), spilled partitions flush
    /// their file, commit it (fsync, rename `*.skm.tmp` → `*.skm`, fsync
    /// the directory) and return its path.
    ///
    /// # Errors
    ///
    /// Propagates flush and commit failures.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or already sealed.
    pub fn seal(&mut self, index: usize) -> Result<SealedPartition> {
        let (sealed, staged) = self.take(index)?;
        commit::commit_batch(staged.as_slice())?;
        Ok(sealed)
    }

    /// Seals every partition, handed off in `order`, and writes the
    /// manifest, as one group commit: the manifest is staged beside the
    /// spill files, then one fsync pass over them all, one rename pass
    /// (partitions in `order`, the manifest last) and one fsync of the
    /// directory ([`commit::commit_batch`]). A partition file's final
    /// name is durable only once this returns, for every spilled
    /// partition at once. What each partition hands off is as from
    /// [`seal`](Self::seal).
    ///
    /// # Errors
    ///
    /// Propagates frame, write, fsync and rename failures; staged files
    /// not yet renamed stay staged.
    ///
    /// # Panics
    ///
    /// Panics if `order` names a partition out of range or twice.
    pub fn seal_all(&mut self, order: &[usize]) -> Result<(PartitionManifest, Vec<SealedPartition>)> {
        self.frame_pending()?;
        let mut staged = Vec::new();
        let mut sealed = Vec::with_capacity(order.len());
        for &index in order {
            let (partition, file) = self.take(index)?;
            staged.extend(file);
            sealed.push(partition);
        }
        let (manifest, file) =
            PartitionManifest::stage(self.dir.clone(), self.k, self.p, self.stats.clone())?;
        staged.push(file);
        commit::commit_batch(&staged)?;
        Ok((manifest, sealed))
    }

    /// Seals partition `index` up to its commit: its last frame written,
    /// its payload moved out — and, for a spilled partition, its file
    /// flushed and handed back staged, for the caller to commit before
    /// the path it returns names anything.
    fn take(&mut self, index: usize) -> Result<(SealedPartition, Option<commit::Staged>)> {
        self.flush_frame(index)?;
        let cost = self.slots[index].resident_cost();
        let slot = &mut self.slots[index];
        // A sealed slot takes no more records: free its pending buffer's
        // capacity now rather than when the store is dropped.
        slot.pending = Vec::new();
        let (payload, staged) = match std::mem::replace(&mut slot.backing, Backing::Sealed) {
            Backing::Resident(v) => {
                self.resident_bytes -= cost;
                (SealedPayload::Resident(v), None)
            }
            Backing::Spilled(file) => {
                let file = file.into_inner().map_err(|e| MspError::Io(e.into()))?;
                let path = partition_path(&self.dir, index);
                let tmp = commit::tmp_path_scoped(&path, &self.run_token);
                (SealedPayload::Spilled(path.clone()), Some(commit::Staged { file, tmp, path }))
            }
            Backing::Sealed => panic!("partition {index} sealed twice"),
        };
        let s = &self.stats[index];
        let sealed = SealedPartition {
            index,
            superkmers: s.superkmers,
            kmers: s.kmers,
            bytes: s.bytes,
            payload,
        };
        Ok((sealed, staged))
    }
}

/// Writes the records of the frame payload `raw` into `frame`, each
/// distinct record once with its copies as its weight, in the order of
/// their first copies.
fn combine_frame(
    collapse: &mut RecordCollapse,
    k: usize,
    raw: &[u8],
    frame: &mut Vec<u8>,
) -> Result<()> {
    frame.clear();
    for &(at, weight) in collapse.collapse_bytes(raw, k)? {
        write_record(&RecordKey::at(&raw[at as usize..]), weight, frame);
    }
    Ok(())
}

impl PartitionSink for PartitionStore {
    fn append_encoded(
        &mut self,
        partition: usize,
        bytes: &[u8],
        superkmers: u64,
        kmers: u64,
    ) -> Result<()> {
        self.push_bytes(partition, bytes, superkmers, kmers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::records_of;
    use crate::PartitionSlices;
    use dna::PackedSeq;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("msp-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A valid `len`-byte record (k = 7): a `4·(len − 3)`-base core of
    /// `fill` bytes and no extensions.
    fn blob(len: usize, fill: u8) -> Vec<u8> {
        let mut record = ((4 * (len - 3)) as u16).to_le_bytes().to_vec();
        record.push(0);
        record.resize(len, fill);
        record
    }

    /// The framed payload of a sealed partition, wherever it waited.
    fn sealed_bytes(sealed: &SealedPartition) -> Vec<u8> {
        match &sealed.payload {
            SealedPayload::Resident(v) => v.clone(),
            SealedPayload::Spilled(path) => fs::read(path).unwrap(),
        }
    }

    /// `(record key bytes, weight)` of every record in framed `bytes`.
    fn weighted_records(bytes: &[u8]) -> Vec<(Vec<u8>, u32)> {
        let slices = PartitionSlices::index_framed(bytes, 7, 4).unwrap();
        slices
            .iter()
            .map(|v| {
                let key = v.key();
                ([&key.head[..], key.payload].concat(), v.weight())
            })
            .collect()
    }

    fn encoded_corpus(k: usize, p: usize, parts: usize) -> Vec<(usize, Vec<u8>, u64)> {
        let router = PartitionRouter::new(parts).unwrap();
        let read = PackedSeq::from_ascii(
            b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTTGCATGGAACGTAGCATCAGGATCCA",
        );
        records_of(&read, k, p)
            .into_iter()
            .map(|(minimizer, record, kmers)| (router.route_minimizer(&minimizer), record, kmers))
            .collect()
    }

    #[test]
    fn huge_budget_keeps_everything_resident() {
        let dir = tmpdir("resident");
        let mut store = PartitionStore::create(&dir, 4, 7, 4, u64::MAX).unwrap();
        for (part, bytes, kmers) in encoded_corpus(7, 4, 4) {
            store.append_encoded(part, &bytes, 1, kmers).unwrap();
        }
        assert_eq!(store.spill_count(), 0);
        for i in 0..4 {
            assert!(store.is_resident(i));
            assert!(!partition_path(&dir, i).exists(), "no spill file for {i}");
        }
        let manifest = store.finish_manifest().unwrap();
        assert!(manifest.total_kmers() > 0);
        // Sealed resident payloads index exactly like writer output.
        for i in 0..4 {
            let sealed = store.seal(i).unwrap();
            let SealedPayload::Resident(bytes) = sealed.payload else {
                panic!("expected resident payload");
            };
            let slices = PartitionSlices::index_framed(&bytes, 7, 4).unwrap();
            assert_eq!(slices.len() as u64, sealed.superkmers);
        }
        assert_eq!(store.resident_bytes(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn equal_cost_spill_ties_break_by_partition_id() {
        // Spill-largest must be a total order: when two resident slots
        // cost exactly the same, the lower partition id is evicted, so
        // spill order — and with it the largest-first Step-2 dispatch
        // order derived from residency — is identical run to run.
        let dir = tmpdir("spilltie");
        let payload = blob(100, 0);
        let per_slot = payload.len() as u64 + FRAME_HEADER_LEN as u64;
        let mut store = PartitionStore::create(&dir, 4, 7, 4, 2 * per_slot + 1).unwrap();
        // Fill partitions 2 then 1 to identical cost (order deliberately
        // reversed from the tie-break order).
        store.append_encoded(2, &payload, 1, 1).unwrap();
        store.append_encoded(1, &payload, 1, 1).unwrap();
        assert!(store.is_resident(1) && store.is_resident(2));
        // One more byte of anything overflows the budget; of the tied
        // victims {1, 2}, partition 1 must be the one spilled.
        store.append_encoded(3, &payload, 1, 1).unwrap();
        assert!(!store.is_resident(1), "lowest-id tie loser must spill");
        assert!(store.is_resident(2), "higher-id tie peer must stay");
        assert!(store.is_resident(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_budget_spills_everything() {
        let dir = tmpdir("allspill");
        let mut store = PartitionStore::create(&dir, 4, 7, 4, 0).unwrap();
        let corpus = encoded_corpus(7, 4, 4);
        let mut touched = [false; 4];
        for (part, bytes, kmers) in &corpus {
            store.append_encoded(*part, bytes, 1, *kmers).unwrap();
            touched[*part] = true;
            assert_eq!(store.resident_bytes(), 0, "zero budget must stay at zero");
        }
        assert_eq!(store.peak_resident_bytes(), 0);
        for (i, &hit) in touched.iter().enumerate() {
            if hit {
                assert!(!store.is_resident(i));
                // Spills stage to `*.tmp`; the final name appears at seal.
                let final_path = partition_path(&dir, i);
                assert!(commit::tmp_path(&final_path).exists());
                assert!(!final_path.exists(), "final name must wait for seal");
                let sealed = store.seal(i).unwrap();
                assert!(matches!(sealed.payload, SealedPayload::Spilled(_)));
                assert!(final_path.exists());
                assert!(!commit::tmp_path(&final_path).exists());
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_invariant_holds_after_every_append() {
        for budget in [0u64, 16, 64, 200, 1 << 20] {
            let dir = tmpdir(&format!("budget-{budget}"));
            let mut store = PartitionStore::create(&dir, 4, 7, 4, budget).unwrap();
            for (part, bytes, kmers) in encoded_corpus(7, 4, 4) {
                store.append_encoded(part, &bytes, 1, kmers).unwrap();
                assert!(
                    store.resident_bytes() <= budget,
                    "resident {} exceeds budget {budget}",
                    store.resident_bytes()
                );
            }
            assert!(store.peak_resident_bytes() <= budget);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn sealed_output_matches_partition_writer_counts() {
        // Whatever the budget, the store's manifest keeps the writer's
        // occurrence counts, and the copies visible through
        // index_framed — the records' weights summed — are the writer's
        // records. The corpus goes in twice, so the copies of a partition
        // that reaches the disk combine; a resident one keeps them.
        let corpus = [encoded_corpus(7, 4, 4), encoded_corpus(7, 4, 4)].concat();
        let dir_w = tmpdir("parity-writer");
        let mut writer = crate::PartitionWriter::create(&dir_w, 4, 7, 4).unwrap();
        for (part, bytes, kmers) in &corpus {
            crate::PartitionWriter::append_encoded(&mut writer, *part, bytes, 1, *kmers).unwrap();
        }
        let wm = writer.finish().unwrap();

        for budget in [0u64, 100, u64::MAX] {
            let dir_s = tmpdir(&format!("parity-{budget}"));
            let mut store = PartitionStore::create(&dir_s, 4, 7, 4, budget).unwrap();
            for (part, bytes, kmers) in &corpus {
                store.append_encoded(*part, bytes, 1, *kmers).unwrap();
            }
            let sm = store.finish_manifest().unwrap();
            for (i, (s, w)) in sm.stats().iter().zip(wm.stats()).enumerate() {
                assert_eq!((s.superkmers, s.kmers), (w.superkmers, w.kmers), "budget {budget} part {i}");
                if store.is_resident(i) {
                    assert_eq!(s.bytes, w.bytes, "budget {budget} part {i}: resident");
                } else {
                    assert!(s.bytes < w.bytes, "budget {budget} part {i}: nothing combined");
                }
            }
            // One manifest format, whatever the budget: it loads back to
            // what was saved.
            assert_eq!(PartitionManifest::load(&dir_s).unwrap(), sm);
            for i in 0..4 {
                let sealed = store.seal(i).unwrap();
                let bytes = sealed_bytes(&sealed);
                let stored: usize = crate::frame_payloads(&bytes).unwrap().iter().map(|f| f.len()).sum();
                assert_eq!(stored as u64, sealed.bytes, "budget {budget} part {i}");
                let slices = PartitionSlices::index_framed(&bytes, 7, 4).unwrap();
                let copies: u64 = slices.iter().map(|v| u64::from(v.weight())).sum();
                assert_eq!(copies, wm.stats()[i].superkmers, "budget {budget} part {i}");
                assert_eq!(slices.total_kmers() as u64, wm.stats()[i].kmers, "budget {budget} part {i}");
            }
            fs::remove_dir_all(&dir_s).unwrap();
        }
        fs::remove_dir_all(&dir_w).unwrap();
    }

    #[test]
    fn repeated_records_come_out_as_one_weighted_record() {
        let dir = tmpdir("combine");
        let mut store = PartitionStore::create(&dir, 1, 7, 4, 0).unwrap();
        let (r, s) = (blob(12, 0x1b), blob(9, 0xe4));
        // Three copies of r and one of s in one append, a fourth r in the
        // next: the store counts five superkmers and keeps two records.
        store.append_encoded(0, &[&r[..], &r, &s, &r].concat(), 4, 4).unwrap();
        store.append_encoded(0, &r, 1, 1).unwrap();
        let sealed = store.seal(0).unwrap();
        assert_eq!((sealed.superkmers, sealed.kmers), (5, 5));
        assert_eq!(sealed.bytes, (r.len() + 1 + s.len()) as u64, "one weight byte");
        let bytes = sealed_bytes(&sealed);
        assert_eq!(weighted_records(&bytes), vec![(r.clone(), 4), (s.clone(), 1)]);
        // On the wire: r with flag bit 6 and the weight byte, s verbatim.
        let payload = &bytes[FRAME_HEADER_LEN..];
        assert_eq!(payload[2], crate::record::WEIGHTED);
        assert_eq!(&payload[3..r.len()], &r[3..]);
        assert_eq!(payload[r.len()], 4);
        assert_eq!(&payload[r.len() + 1..], &s[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resident_frames_keep_their_copies() {
        // A frame that never reaches the disk holds the records as
        // appended; Step 2's collapse combines them.
        let dir = tmpdir("resident-copies");
        let mut store = PartitionStore::create(&dir, 1, 7, 4, u64::MAX).unwrap();
        let r = blob(12, 0x1b);
        store.append_encoded(0, &r.repeat(3), 3, 3).unwrap();
        let sealed = store.seal(0).unwrap();
        assert!(matches!(sealed.payload, SealedPayload::Resident(_)));
        assert_eq!(sealed.bytes, 3 * r.len() as u64);
        assert_eq!(weighted_records(&sealed_bytes(&sealed)), vec![(r.clone(), 1); 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_invariant_holds_as_weights_grow() {
        // 200 copies of one record, one append each, 128 to a frame. With
        // room for all of them the partition stays resident, and costs
        // exactly the copies as appended (plus frame headers). With room
        // for 130 its first frame is resident when it spills, and is
        // combined on its way to disk; with room for 2 it spills at the
        // third copy and every frame is combined as it is written. Either
        // way the weights on disk grow 1 → 2 → 128 within a frame, and
        // resident bytes stay within the budget after every append.
        let r = blob(12, 0x6c);
        for room in [200usize, 130, 2] {
            let dir = tmpdir(&format!("weights-{room}"));
            // Two frame headers: a full frame and a pending one.
            let budget = (2 * FRAME_HEADER_LEN + room * r.len()) as u64;
            let mut store = PartitionStore::create(&dir, 1, 7, 4, budget).unwrap();
            store.set_frame_target(128 * r.len());
            for copies in 1..=200usize {
                store.append_encoded(0, &r, 1, 1).unwrap();
                assert!(store.resident_bytes() <= budget, "room {room}, {copies} copies");
                assert_eq!(store.is_resident(0), copies <= room, "room {room}, {copies} copies");
                if store.is_resident(0) {
                    let (framed, pending) = (copies / 128 * 128, copies % 128);
                    let headers = FRAME_HEADER_LEN * (copies / 128 + usize::from(pending > 0));
                    let cost = (headers + (framed + pending) * r.len()) as u64;
                    assert_eq!(store.resident_bytes(), cost, "room {room}, {copies} copies");
                }
            }
            assert_eq!(store.spill_count(), u64::from(room < 200), "room {room}");
            let sealed = store.seal(0).unwrap();
            let records = weighted_records(&sealed_bytes(&sealed));
            if room == 200 {
                assert_eq!(records, vec![(r.clone(), 1); 200]);
                assert_eq!(sealed.bytes, 200 * r.len() as u64);
            } else {
                // Weight 128 takes two suffix bytes, 72 one.
                assert_eq!(records, vec![(r.clone(), 128), (r.clone(), 72)], "room {room}");
                assert_eq!(sealed.bytes, 2 * r.len() as u64 + 3, "room {room}");
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn combining_never_crosses_a_frame_flush() {
        let dir = tmpdir("frames");
        let (r, s) = (blob(12, 0x1b), blob(9, 0xe4));
        for budget in [0, 80] {
            // At budget 80 the first frame is framed resident, as
            // appended, and the sixth append spills it, combined.
            let mut store = PartitionStore::create(&dir, 1, 7, 4, budget).unwrap();
            // r, r, s and r pass the frame target: one frame of r
            // (weight 3) and s. The two r after the flush start a record
            // of the second frame.
            store.set_frame_target(3 * r.len());
            for record in [&r, &r, &s, &r, &r, &r] {
                store.append_encoded(0, record, 1, 1).unwrap();
            }
            assert!(!store.is_resident(0), "budget {budget}");
            let bytes = sealed_bytes(&store.seal(0).unwrap());
            let frames: Vec<_> =
                crate::frame_payloads(&bytes).unwrap().iter().map(|f| f.to_vec()).collect();
            assert_eq!(frames.len(), 2, "budget {budget}");
            let framed = |frame: &[u8]| {
                let mut one = Vec::new();
                append_frame(&mut one, frame);
                weighted_records(&one)
            };
            assert_eq!(framed(&frames[0]), vec![(r.clone(), 3), (s.clone(), 1)], "budget {budget}");
            assert_eq!(framed(&frames[1]), vec![(r.clone(), 2)], "budget {budget}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn spills_largest_partition_first() {
        let dir = tmpdir("largest");
        // Budget fits ~2 small appends; partition 0 gets a big record so
        // it must be the first victim when partition 1 needs room.
        let mut store = PartitionStore::create(&dir, 3, 7, 4, 128).unwrap();
        store.append_encoded(0, &blob(80, 7), 1, 1).unwrap();
        store.append_encoded(1, &blob(24, 9), 1, 1).unwrap();
        // 80+8 + 24+8 = 120 resident; appending 24 more to partition 2
        // (24+8=32) busts 128 → partition 0 (cost 88) spills.
        store.append_encoded(2, &blob(24, 5), 1, 1).unwrap();
        assert!(!store.is_resident(0), "largest partition spills first");
        assert!(store.is_resident(1));
        assert!(store.is_resident(2));
        assert_eq!(store.spill_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_spills_its_own_partition() {
        let dir = tmpdir("oversized");
        let mut store = PartitionStore::create(&dir, 2, 7, 4, 64).unwrap();
        store.append_encoded(0, &blob(16, 1), 1, 1).unwrap();
        // 200 bytes can never fit partition 1 in a 64-byte budget: spill
        // partition 1 directly, leave partition 0 resident.
        store.append_encoded(1, &blob(200, 2), 1, 1).unwrap();
        assert!(store.is_resident(0));
        assert!(!store.is_resident(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let dir = tmpdir("invalid");
        assert!(matches!(
            PartitionStore::create(&dir, 0, 5, 3, 0),
            Err(MspError::NoPartitions)
        ));
        assert!(matches!(
            PartitionStore::create(&dir, 4, 3, 5, 0),
            Err(MspError::InvalidParams { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
