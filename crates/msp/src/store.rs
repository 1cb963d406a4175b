//! Budget-governed partition staging for the fused Step-1→Step-2 pipeline.
//!
//! [`PartitionStore`] is the in-memory sibling of
//! [`PartitionWriter`](crate::PartitionWriter): it accepts the same
//! encoded superkmer records, cuts the same CRC32-checksummed frames, and
//! produces the same manifest — but partitions stay **resident** (framed
//! byte buffers) until a configurable byte budget is exceeded, at which
//! point the largest resident partitions are **spilled** to the usual
//! `part-NNNNN.skm` files. Because spilled bytes keep the exact on-disk
//! frame format, [`PartitionSlices::index_framed`](crate::PartitionSlices)
//! consumes both backends unchanged.
//!
//! The budget invariant — *resident payload bytes (including the frame
//! header reserved for each partition's pending buffer) never exceed the
//! budget* — holds after **every** append, not just at flush points:
//! frame headers are accounted the moment a pending buffer becomes
//! non-empty, so flushing pending records into the resident backing is
//! cost-neutral. A budget of `0` therefore degenerates to the classic
//! all-on-disk behaviour (every partition spills on first touch), and a
//! huge budget keeps Step 2 entirely off the disk.
//!
//! Spilled partitions retain only a bounded pending buffer (at most the
//! frame target, same as `PartitionWriter`); that working memory is not
//! counted against the budget, which governs resident partition
//! *payloads*.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use pipeline::{commit, failpoint};

use crate::frame::{append_frame, write_frame, DEFAULT_FRAME_TARGET, FRAME_HEADER_LEN};
use crate::writer::partition_path;
use crate::{MspError, PartitionManifest, PartitionRouter, PartitionStats, Result};

/// Destination-agnostic Step-1 output: both the all-disk
/// [`PartitionWriter`](crate::PartitionWriter) and the budget-governed
/// [`PartitionStore`] accept encoded superkmer records through this
/// trait, so the Step-1 pipeline is written once against the sink.
pub trait PartitionSink {
    /// Appends already-encoded superkmer records to a partition.
    /// `superkmers` and `kmers` are the record counts the caller tallied
    /// while encoding.
    ///
    /// # Errors
    ///
    /// Propagates write failures (spill I/O for stores, file I/O for
    /// writers).
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
    /// file (identical format to `PartitionWriter` output).
    Spilled(PathBuf),
}

/// One partition sealed by [`PartitionStore::seal`], ready for Step 2.
#[derive(Debug)]
pub struct SealedPartition {
    /// Partition index.
    pub index: usize,
    /// Superkmer records in the partition.
    pub superkmers: u64,
    /// Total k-mers across those records.
    pub kmers: u64,
    /// Payload bytes (excluding frame headers), as in the manifest.
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
    /// Whole records awaiting their next checksummed frame.
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
/// spill-to-disk overflow. See the [module docs](self) for the policy.
///
/// # Examples
///
/// ```no_run
/// use msp::{PartitionSink, PartitionStore, SealedPayload};
///
/// # fn main() -> msp::Result<()> {
/// let mut store = PartitionStore::create("/tmp/parts", 4, 27, 11, 1 << 20)?;
/// store.append_encoded(0, &[0u8; 16], 1, 3)?;
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
}

impl PartitionStore {
    /// Creates the directory (spill files are created lazily, only when a
    /// partition actually exceeds the budget).
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
        // Validates num_partitions > 0 exactly like the writer.
        let _ = PartitionRouter::new(num_partitions)?;
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let slots = (0..num_partitions)
            .map(|_| Slot { backing: Backing::Resident(Vec::new()), pending: Vec::new() })
            .collect();
        Ok(PartitionStore {
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
        })
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

    /// Appends records to partition `partition`, spilling as needed to
    /// keep resident bytes within the budget.
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
        s.bytes += bytes.len() as u64;
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
    /// backing bytes stream straight out; pending records stay buffered
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
        file.write_all(&backing)?;
        slot.backing = Backing::Spilled(file);
        self.residency[partition] = false;
        self.resident_bytes -= cost;
        self.spills += 1;
        Ok(())
    }

    /// Writes the partition's pending records as one checksummed frame —
    /// into the resident backing or the spill file. Cost-neutral for
    /// resident slots (the header was reserved at append time).
    fn flush_frame(&mut self, partition: usize) -> Result<()> {
        let slot = &mut self.slots[partition];
        if slot.pending.is_empty() {
            return Ok(());
        }
        match &mut slot.backing {
            Backing::Resident(backing) => append_frame(backing, &slot.pending),
            Backing::Spilled(file) => write_frame(file, &slot.pending)?,
            Backing::Sealed => panic!("write to sealed partition {partition}"),
        }
        slot.pending.clear();
        Ok(())
    }

    /// Builds and saves the manifest from the stats accumulated so far —
    /// the same file [`PartitionWriter::finish`](crate::PartitionWriter::finish)
    /// writes for these records, wherever the bytes wait. Call once
    /// appends are complete.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from writing `manifest.txt`.
    pub fn finish_manifest(&self) -> Result<PartitionManifest> {
        PartitionManifest::commit(self.dir.clone(), self.k, self.p, self.stats.clone())
    }

    /// Flushes and hands off one partition for Step 2: resident bytes
    /// move out by value (no disk round-trip), spilled partitions flush
    /// their file and return its path.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or already sealed.
    pub fn seal(&mut self, index: usize) -> Result<SealedPartition> {
        self.flush_frame(index)?;
        let cost = self.slots[index].resident_cost();
        let slot = &mut self.slots[index];
        let payload = match std::mem::replace(&mut slot.backing, Backing::Sealed) {
            Backing::Resident(v) => {
                self.resident_bytes -= cost;
                SealedPayload::Resident(v)
            }
            Backing::Spilled(file) => {
                // Commit the staged spill: flush buffers, then fsync the
                // data, rename `*.skm.tmp` → `*.skm`, fsync the directory.
                // Only now does the final name exist.
                drop(file.into_inner().map_err(|e| MspError::Io(e.into()))?);
                let path = partition_path(&self.dir, index);
                commit::commit_staged(&commit::tmp_path_scoped(&path, &self.run_token), &path)?;
                SealedPayload::Spilled(path)
            }
            Backing::Sealed => panic!("partition {index} sealed twice"),
        };
        let s = &self.stats[index];
        Ok(SealedPartition {
            index,
            superkmers: s.superkmers,
            kmers: s.kmers,
            bytes: s.bytes,
            payload,
        })
    }
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

impl PartitionSink for crate::PartitionWriter {
    fn append_encoded(
        &mut self,
        partition: usize,
        bytes: &[u8],
        superkmers: u64,
        kmers: u64,
    ) -> Result<()> {
        crate::PartitionWriter::append_encoded(self, partition, bytes, superkmers, kmers)
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
        let payload = vec![0u8; 100];
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
        // Whatever the budget, the total records visible through
        // index_framed must equal the writer's.
        let corpus = encoded_corpus(7, 4, 4);
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
            assert_eq!(sm.stats(), wm.stats(), "budget {budget}");
            // One manifest format: the file says nothing of where the
            // bytes waited, and loads back to what was saved.
            let on_disk = |dir: &Path| fs::read(dir.join("manifest.txt")).unwrap();
            assert_eq!(on_disk(&dir_s), on_disk(&dir_w), "budget {budget}");
            assert_eq!(PartitionManifest::load(&dir_s).unwrap(), sm);
            for i in 0..4 {
                let sealed = store.seal(i).unwrap();
                let bytes = match &sealed.payload {
                    SealedPayload::Resident(v) => v.clone(),
                    SealedPayload::Spilled(path) => fs::read(path).unwrap(),
                };
                let slices = PartitionSlices::index_framed(&bytes, 7, 4).unwrap();
                assert_eq!(slices.len() as u64, wm.stats()[i].superkmers, "budget {budget} part {i}");
            }
            fs::remove_dir_all(&dir_s).unwrap();
        }
        fs::remove_dir_all(&dir_w).unwrap();
    }

    #[test]
    fn spills_largest_partition_first() {
        let dir = tmpdir("largest");
        // Budget fits ~2 small appends; partition 0 gets a big record so
        // it must be the first victim when partition 1 needs room.
        let mut store = PartitionStore::create(&dir, 3, 7, 4, 128).unwrap();
        store.append_encoded(0, &[7u8; 80], 1, 1).unwrap();
        store.append_encoded(1, &[9u8; 24], 1, 1).unwrap();
        // 80+8 + 24+8 = 120 resident; appending 24 more to partition 2
        // (24+8=32) busts 128 → partition 0 (cost 88) spills.
        store.append_encoded(2, &[5u8; 24], 1, 1).unwrap();
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
        store.append_encoded(0, &[1u8; 16], 1, 1).unwrap();
        // 200 bytes can never fit partition 1 in a 64-byte budget: spill
        // partition 1 directly, leave partition 0 resident.
        store.append_encoded(1, &[2u8; 200], 1, 1).unwrap();
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
