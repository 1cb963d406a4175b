use std::borrow::Cow;
use std::ops::Range;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dna::{Kmer, PackedSeq, SeqRead};
use hetsim::{Device, DeviceKind};
use msp::{
    encode_superkmer_slice, FastqChunks, PartitionManifest, PartitionRouter, PartitionSink,
    PartitionStore, SealedPartition, SealedPayload, SuperkmerScanner,
};
use parking_lot::Mutex;
use pipeline::{run_pipeline, CancelToken, SharedCounterQueue, ThrottledIo};

use crate::journal::{JournalEvent, RunJournal};
use crate::staging::{ShardPool, ShardRoster, StagingShard, WriteOnceSlots};
use crate::{ParaHashConfig, ParaHashError, Result, Step1Stats, StepReport};

/// Output of one Step-1 compute launch: the worker shards holding the
/// per-partition encoded superkmer bytes and `(superkmers, kmers)`
/// counts, plus the number of input bases the launch consumed. The
/// output stage drains the shards into the partition store and returns
/// them to the [`ShardPool`] so their capacity is reused.
struct Batch1Out {
    shards: Vec<StagingShard>,
    bases: u64,
}

/// Boundary runs of one read: `(first kmer, last kmer, minimizer)`.
type BoundaryRuns = Vec<(usize, usize, Kmer)>;

/// Splits reads into the "equal-size input partitions" of Fig 3 by
/// cumulative byte size.
fn batch_ranges(reads: &[SeqRead], batch_bytes: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, r) in reads.iter().enumerate() {
        acc += r.approx_bytes();
        if acc >= batch_bytes {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < reads.len() {
        ranges.push(start..reads.len());
    }
    ranges
}

/// What a run builds its graph from.
#[derive(Clone, Copy)]
pub(crate) enum Input<'a> {
    /// A read set already in memory, cut into the "equal-size input
    /// partitions" of Fig 3 by [`batch_ranges`].
    Reads(&'a [SeqRead]),
    /// A FASTQ file (plain or gzip), cut into record-aligned chunks by
    /// [`FastqChunks`] and parsed one worker slice at a time, so the
    /// decoded read set is **never resident in memory** — the property the
    /// paper's partition-by-partition workflow depends on for big genomes.
    Fastq(&'a Path),
}

/// An opened [`Input`], cut into batches. Which arm runs depends on the
/// input kind alone — never on the device roster or the kernel selection.
enum Source<'a> {
    Reads(&'a [SeqRead], Vec<Range<usize>>),
    /// The chunks, and the idle text buffers their readers reuse: one a
    /// device parsing at once.
    Fastq(FastqChunks, Mutex<Vec<Vec<u8>>>),
}

impl<'a> Source<'a> {
    fn open(input: Input<'a>, batch_bytes: usize) -> Result<Source<'a>> {
        Ok(match input {
            Input::Reads(reads) => Source::Reads(reads, batch_ranges(reads, batch_bytes)),
            Input::Fastq(path) => {
                Source::Fastq(FastqChunks::open(path, batch_bytes)?, Mutex::new(Vec::new()))
            }
        })
    }

    fn n_batches(&self) -> usize {
        match self {
            Source::Reads(_, ranges) => ranges.len(),
            Source::Fastq(chunks, _) => chunks.n_chunks(),
        }
    }

    fn batch(&self, i: usize) -> Batch<'_> {
        match self {
            Source::Reads(reads, ranges) => Batch::Reads(&reads[ranges[i].clone()]),
            Source::Fastq(chunks, texts) => Batch::Text { chunks, texts, index: i },
        }
    }
}

/// One input batch, as its [`Source`] holds it.
enum Batch<'a> {
    Reads(&'a [SeqRead]),
    /// Chunk `index` of a FASTQ file, read when a device parses it into
    /// a buffer from `texts`.
    Text { chunks: &'a FastqChunks, texts: &'a Mutex<Vec<Vec<u8>>>, index: usize },
}

impl<'a> Batch<'a> {
    /// The input I/O this batch is charged for.
    fn input_bytes(&self) -> u64 {
        match self {
            Batch::Reads(reads) => reads.iter().map(SeqRead::approx_bytes).sum::<usize>() as u64,
            Batch::Text { chunks, index, .. } => chunks.range(*index).len() as u64,
        }
    }

    /// Hands every read of the batch to `f` as a 2-bit sequence: borrowed
    /// from memory, or parsed from the chunk's text and packed into one
    /// reused scratch sequence.
    ///
    /// # Errors
    ///
    /// A chunk that cannot be read, or a malformed record, ends the
    /// batch; the record's line number counts from the file's start.
    fn for_each_read(&self, mut f: impl FnMut(&PackedSeq)) -> Result<()> {
        match self {
            Batch::Reads(reads) => reads.iter().for_each(|r| f(r.seq())),
            Batch::Text { chunks, texts, index } => {
                let mut text = texts.lock().pop().unwrap_or_default();
                let parsed = parse_chunk(chunks, *index, &mut text, f);
                texts.lock().push(text);
                parsed?;
            }
        }
        Ok(())
    }

    /// The whole batch as the 2-bit reads a device receives; a text batch
    /// is parsed and packed on the host first.
    fn packed(&self) -> Result<Vec<Cow<'a, PackedSeq>>> {
        match self {
            Batch::Reads(reads) => Ok(reads.iter().map(|r| Cow::Borrowed(r.seq())).collect()),
            Batch::Text { .. } => {
                let mut reads = Vec::new();
                self.for_each_read(|read| reads.push(Cow::Owned(read.clone())))?;
                Ok(reads)
            }
        }
    }
}

/// Step 1 into a [`PartitionStore`] of `budget` resident bytes, then every
/// partition sealed onto a finished Step-2 feed. The run driver starts
/// Step 2 only after this returns, so Step 2's report window — and its
/// device-metric baselines — exclude Step 1, and a run that crashes in
/// Step 2 has journaled every partition it can have sealed: at budget 0,
/// all of them, which is what lets its resume skip Step 1.
///
/// # Errors
///
/// Step-1 and sealing failures; the partition directory, covering an
/// unknown prefix of the input, is removed.
pub(crate) fn step1_sealed(
    config: &ParaHashConfig,
    input: Input<'_>,
    budget: u64,
    io: &ThrottledIo,
    journal: &RunJournal,
) -> Result<(PartitionManifest, StepReport, SharedCounterQueue<SealedPartition>)> {
    let dir = config.work_dir.join("superkmers");
    let n = config.partitions;
    let mut store =
        PartitionStore::create_scoped(&dir, n, config.k, config.p, budget, &config.run_token)?;
    let sealed = step1_into(config, input, io, &CancelToken::new(), &mut store).and_then(|mut step1| {
        let started = Instant::now();
        let (manifest, feed) = seal_all(&mut store, journal)?;
        if let Some(stats) = &mut step1.step1_stats {
            stats.stored_bytes = manifest.total_bytes();
        }
        step1.seal = started.elapsed();
        Ok((manifest, step1, SharedCounterQueue::filled(feed)))
    });
    drop(store);
    sealed.inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&dir);
    })
}

/// Seals every partition of `store` and commits its manifest in one
/// group commit ([`PartitionStore::seal_all`]), then journals every
/// durable partition in one append — only a *spilled* partition is: a
/// resident one's bytes exist nowhere but in this process's memory. The
/// records follow the directory fsync that makes every rename durable.
/// Returns the manifest and Step 2's feed.
///
/// Hand-over order is chosen, not index order: spilled partitions first
/// (their loads overlap compute on the resident ones, hiding T_IO per §IV
/// Case 2), largest first within each residency class
/// (longest-processing-time ordering tightens the Eq. 1 makespan), index
/// as the deterministic tiebreak. Order affects only scheduling — each
/// partition's subgraph is canonical regardless.
fn seal_all(
    store: &mut PartitionStore,
    journal: &RunJournal,
) -> Result<(PartitionManifest, Vec<SealedPartition>)> {
    store.frame_pending()?;
    let mut order: Vec<usize> = (0..store.num_partitions()).collect();
    order.sort_by_key(|&i| (store.is_resident(i), std::cmp::Reverse(store.stats()[i].bytes), i));
    let (manifest, feed) = store.seal_all(&order)?;
    let durable: Vec<JournalEvent> = feed
        .iter()
        .filter(|sealed| matches!(sealed.payload, SealedPayload::Spilled(_)))
        .map(|sealed| JournalEvent::PartitionSealed(sealed.index))
        .collect();
    journal.append_all(&durable)?;
    Ok((manifest, feed))
}

/// The one body of Step 1: opens `input`, cuts it into batches — index
/// ranges of ~`read_batch_bytes` over reads in memory, or the
/// record-aligned chunks of a FASTQ file, cut over a mapping that is
/// dropped before the first batch runs (or over the inflated text, for
/// gzip), each chunk read by the device that parses it — and streams them
/// through the three-stage pipeline
/// into `store`. Returns the step report, its device times measured over
/// this call alone; the caller owns sealing, manifest finalisation and
/// error cleanup.
///
/// Every roster and every kernel selection runs this same ingest. The
/// CPU core that claims a batch parses *and* scans it, streaming every
/// read through one [`StagingShard`]'s reusable minimizer cursor and
/// encoding every superkmer straight into the shard's partition buffers
/// — no lock and no allocation per read; a simulated GPU instead
/// receives the batch 2-bit packed, one lane per read. Per-partition
/// output multisets do not depend on the cut: batch boundaries land only
/// between reads, every read is scanned exactly once, and superkmer
/// routing is order-independent.
///
/// # Errors
///
/// Partition-store I/O failures, and FASTQ parse failures — which poison
/// the stream (the position is lost) and surface as
/// [`crate::ParaHashError::InvalidConfig`] with the parser's message and
/// the record's line in the whole file.
pub(crate) fn step1_into(
    config: &ParaHashConfig,
    input: Input<'_>,
    io: &ThrottledIo,
    cancel: &CancelToken,
    store: &mut PartitionStore,
) -> Result<StepReport> {
    let source = Source::open(input, config.read_batch_bytes)?;
    let scanner = SuperkmerScanner::new(config.k, config.p)?;
    let router = PartitionRouter::new(config.partitions)?;
    let k = config.k;
    let write_error: OnceLock<msp::MspError> = OnceLock::new();
    let parse_failure: OnceLock<ParaHashError> = OnceLock::new();
    let mut stats = Step1Stats::default();
    let mut peak_batch = 0u64;
    // One device roster serves both steps of a run; Step 2's device work
    // starts only after this returns.
    let baselines = device_baselines(config);

    // All staging capacity lives in these two pools and is recycled
    // across batches: at steady state the compute stage allocates
    // nothing per read. Both free lists are locked once per batch.
    let shard_pool = ShardPool::new(config.partitions, config.k, config.p);
    let boundary_pool: Mutex<Vec<BoundaryRuns>> = Mutex::new(Vec::new());

    let pipeline_report = {
        let (source, scanner, router) = (&source, &scanner, &router);
        let (write_error, parse_failure) = (&write_error, &parse_failure);
        let (shard_pool, boundary_pool) = (&shard_pool, &boundary_pool);
        let (store, stats, peak_batch) = (&mut *store, &mut stats, &mut peak_batch);
        run_pipeline(
            &SharedCounterQueue::filled(0..source.n_batches()),
            config.devices(),
            cancel,
            // Stage 1: one batch, paying its input I/O.
            |i| {
                let batch = source.batch(i);
                let bytes = batch.input_bytes();
                *peak_batch = (*peak_batch).max(bytes);
                io.charge(bytes);
                (i, batch)
            },
            // Stage 2: scan + encode on an idle device. Emits go to
            // thread-private shards — no locks, no per-read allocation.
            |device: &dyn Device, _idx, batch: Batch<'_>| {
                // Stop feeding the pipeline rather than scanning whatever
                // follows the lost position.
                let poison = |e| {
                    let _ = parse_failure.set(e);
                    cancel.cancel();
                };
                let (shards, reads, bases) = if device.kind() == DeviceKind::SimGpu {
                    // The paper's §III-D split: reads travel to the device
                    // 2-bit encoded (¼ byte per base), the *kernel* only
                    // computes superkmer ids and offsets (regular,
                    // fixed-width output: one write-once slot per read),
                    // and the irregular memory movement — materialising
                    // and encoding superkmers — stays on the host.
                    let seqs = batch.packed().unwrap_or_else(|e| {
                        poison(e);
                        Vec::new()
                    });
                    let n_workers = device.parallelism().min(seqs.len()).max(1);
                    let roster = ShardRoster::new(shard_pool.take(n_workers));
                    device.transfer_to_device(seqs.iter().map(|r| r.len() as u64 / 4 + 1).sum());
                    let slots =
                        WriteOnceSlots::new(take_boundary_slots(boundary_pool, seqs.len()));
                    device.execute(seqs.len(), &|i| {
                        // Work item i writes slot i — disjoint by
                        // construction, so no lock is needed; the cursor
                        // comes from a checked-out shard.
                        let mut shard = roster.checkout();
                        slots.with_mut(i, |runs| {
                            scanner.scan_runs_into(&seqs[i], &mut shard.cursor, runs);
                        });
                    });
                    // Host half: encode the runs into one shard's buffers.
                    let boundaries = slots.into_inner();
                    {
                        let mut shard = roster.checkout();
                        let StagingShard { buffers, counts, .. } = &mut *shard;
                        for (read, runs) in seqs.iter().zip(&boundaries) {
                            for &(first, last, m) in runs {
                                emit_run(router, k, read, (first, last), &m, buffers, counts);
                            }
                        }
                    }
                    boundary_pool.lock().extend(boundaries);
                    let shards = roster.into_shards();
                    device.transfer_from_device(shards.iter().map(StagingShard::staged_bytes).sum());
                    (shards, seqs.len() as u64, seqs.iter().map(|r| r.len() as u64).sum())
                } else {
                    // One core scans the whole batch through one staging
                    // shard; the launch is what meters the core's time.
                    let staged = Mutex::new((shard_pool.take(1), 0u64, 0u64));
                    device.execute(1, &|_| {
                        let (shards, reads, bases) = &mut *staged.lock();
                        let StagingShard { buffers, counts, cursor } = &mut shards[0];
                        let parsed = batch.for_each_read(|read| {
                            *reads += 1;
                            *bases += read.len() as u64;
                            scanner.scan_runs(read, cursor, |first, last, m| {
                                emit_run(router, k, read, (first, last), &m, buffers, counts);
                            });
                        });
                        if let Err(e) = parsed {
                            poison(e);
                        }
                    });
                    staged.into_inner()
                };
                (Batch1Out { shards, bases }, reads)
            },
            // Stage 3: drain the shards into the partition files in bulk,
            // then hand them back to the pool for the next batch.
            |_idx, out: Batch1Out| {
                drain_batch(out, stats, io, store, write_error, cancel, shard_pool);
            },
        )
    };

    if let Some(e) = parse_failure.into_inner() {
        return Err(e);
    }
    if let Some(e) = write_error.into_inner() {
        return Err(e.into());
    }
    let deltas = device_deltas(config, &baselines);
    let (cpu_compute, gpu_compute) = split_device_times(config, &pipeline_report.shares, &deltas);
    Ok(StepReport {
        step: 1,
        pipeline: pipeline_report,
        cpu_compute,
        gpu_compute,
        device_metrics: deltas,
        contention: None,
        replayed_kmers: 0,
        step1_stats: Some(stats),
        resizes: 0,
        peak_partition_bytes: peak_batch,
        peak_table_bytes: 0, // Step 1 allocates no hash tables
        peak_table_slots: 0,
        peak_resident_store_bytes: store.peak_resident_bytes(),
        seal: Duration::ZERO,
        quarantined: Vec::new(),
        sub_splits: Vec::new(),
    })
}

/// Reads chunk `index` of `chunks` into `text` and hands each read to `f`,
/// packed into one reused scratch sequence; a malformed record's line
/// counts from the file's start.
fn parse_chunk(
    chunks: &FastqChunks,
    index: usize,
    text: &mut Vec<u8>,
    mut f: impl FnMut(&PackedSeq),
) -> Result<()> {
    let bytes = chunks.chunk(index, text)?;
    let mut reader = dna::FastqSliceReader::with_base_line(bytes, chunks.first_line(index));
    let mut scratch = PackedSeq::new();
    while let Some(view) = reader.read_record_view().map_err(parse_error)? {
        scratch.clear();
        scratch.extend_from_ascii(view.seq);
        f(&scratch);
    }
    Ok(())
}

fn parse_error(e: dna::DnaError) -> ParaHashError {
    match e {
        dna::DnaError::Io(io) => ParaHashError::Io(io),
        other => ParaHashError::InvalidConfig(format!("bad fastq input: {other}")),
    }
}

/// Routes and encodes one boundary run (`first..=last`, `minimizer`) of
/// `read` into a shard's partition buffer: the single emit primitive of
/// the Step-1 hot path. Zero allocation (buffer growth amortises to
/// nothing once the shard is warm) and zero synchronisation — the caller
/// holds the shard exclusively.
#[inline]
fn emit_run(
    router: &PartitionRouter,
    k: usize,
    read: &PackedSeq,
    (first, last): (usize, usize),
    minimizer: &Kmer,
    buffers: &mut [Vec<u8>],
    counts: &mut [(u64, u64)],
) {
    let part = router.route_minimizer(minimizer);
    let left_ext = first.checked_sub(1).map(|i| read.base(i));
    let right_ext = (last + k < read.len()).then(|| read.base(last + k));
    encode_superkmer_slice(read, first, last, k, left_ext, right_ext, &mut buffers[part]);
    counts[part].0 += 1;
    counts[part].1 += (last - first + 1) as u64;
}

/// The output stage's drain:
/// flushes every shard's partition buffers into the store, tallies the
/// emit stats, and recycles the shards into the pool.
fn drain_batch(
    out: Batch1Out,
    stats: &mut Step1Stats,
    io: &ThrottledIo,
    store: &mut PartitionStore,
    write_error: &OnceLock<msp::MspError>,
    cancel: &CancelToken,
    shard_pool: &ShardPool,
) {
    stats.batches += 1;
    stats.bases += out.bases;
    for shard in &out.shards {
        for (part, bytes) in shard.buffers.iter().enumerate() {
            if bytes.is_empty() {
                continue;
            }
            let (sks, kms) = shard.counts[part];
            stats.superkmers += sks;
            stats.kmers += kms;
            stats.staging_bytes += bytes.len() as u64;
            stats.merge_flushes += 1;
            io.charge(bytes.len() as u64);
            // `step1.staging.flush` is the canonical crash site *before*
            // any partition data reaches the store — everything staged so
            // far is discarded.
            let appended = pipeline::failpoint::hit("step1.staging.flush")
                .map_err(msp::MspError::Io)
                .and_then(|()| store.append_encoded(part, bytes, sks, kms));
            if let Err(e) = appended {
                // A failed append means the partition data no longer
                // matches the stats; abandon the run now rather than
                // scanning the remaining batches.
                let _ = write_error.set(e);
                cancel.cancel();
            }
        }
    }
    shard_pool.put(out.shards);
}

/// Checks `n` boundary-run vectors out of the recycle pool (topping up
/// with fresh empties only while the pool is cold).
fn take_boundary_slots(pool: &Mutex<Vec<BoundaryRuns>>, n: usize) -> Vec<BoundaryRuns> {
    let mut free = pool.lock();
    (0..n).map(|_| free.pop().unwrap_or_default()).collect()
}

/// Snapshot of every device's cumulative metrics, taken at step start so
/// per-step times can be diffed out with
/// [`hetsim::DeviceMetrics::delta_since`] (one device roster serves both
/// steps of a run).
pub(crate) fn device_baselines(config: &ParaHashConfig) -> Vec<hetsim::DeviceMetrics> {
    config.devices().iter().map(|d| d.metrics()).collect()
}

/// Per-device metric deltas for one step window: current meters minus the
/// `baselines` snapshot.
pub(crate) fn device_deltas(
    config: &ParaHashConfig,
    baselines: &[hetsim::DeviceMetrics],
) -> Vec<hetsim::DeviceMetrics> {
    config
        .devices()
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let baseline = baselines.get(i).copied().unwrap_or_default();
            d.metrics().delta_since(&baseline)
        })
        .collect()
}

/// Splits per-device time into the model's `T_CPU` and `T_GPU`: each the
/// makespan of its processor kind, the max over its devices (paper
/// §IV-B). A CPU is one device per core, which run side by side, so their
/// busy times overlap — summing them would charge one wall-clock second
/// once per core.
///
/// `T_GPU` is taken from the device's **own meters** for the step window
/// (`deltas`, see [`device_deltas`]): kernel time plus host↔device
/// transfer time — exactly the paper's
/// `T_GPU = T_GPU_compute + T_DH_transfer`. Charging transfers to the
/// device (instead of letting them blur into the stage wall-clock along
/// with host-side work) is what lets the regime classifier see a
/// transfer-starved GPU as a device problem rather than disk I/O.
pub(crate) fn split_device_times(
    config: &ParaHashConfig,
    shares: &[pipeline::DeviceShare],
    deltas: &[hetsim::DeviceMetrics],
) -> (Duration, Duration) {
    let mut cpu = Duration::ZERO;
    let mut gpu = Duration::ZERO;
    for (i, (device, share)) in config.devices().iter().zip(shares).enumerate() {
        match device.kind() {
            DeviceKind::Cpu => cpu = cpu.max(share.busy),
            DeviceKind::SimGpu => {
                let metered = deltas.get(i).copied().unwrap_or_default().occupied();
                gpu = gpu.max(metered);
            }
        }
    }
    (cpu, gpu)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::journal::Fingerprint;
    use pipeline::IoMode;

    /// Step 1 of a fresh two-phase run of `reads` — every partition
    /// sealed into its file and journaled — as its manifest, its report
    /// and the run's journal, for Step 2 to append to.
    pub(crate) fn step1(
        cfg: &ParaHashConfig,
        reads: &[SeqRead],
    ) -> (PartitionManifest, StepReport, RunJournal) {
        let fingerprint =
            Fingerprint { k: cfg.k, p: cfg.p, partitions: cfg.partitions, input_digest: 0 };
        let journal = RunJournal::create(&cfg.work_dir, fingerprint).unwrap();
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, report, _) =
            step1_sealed(cfg, Input::Reads(reads), 0, &io, &journal).unwrap();
        (manifest, report, journal)
    }

    fn reads() -> Vec<SeqRead> {
        vec![
            SeqRead::from_ascii("a", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
            SeqRead::from_ascii("b", b"TGATGGATGATGGATGGTAGCATACGTTGCAT"),
            SeqRead::from_ascii("c", b"GGCATTAGCCAGTACGGATCACCGTATGCAAT"),
            SeqRead::from_ascii("d", b"TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA"),
        ]
    }

    fn config(dir: &str) -> ParaHashConfig {
        ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(8)
            .cpu_threads(2)
            .read_batch_bytes(64)
            .work_dir(std::env::temp_dir().join(dir))
            .build()
            .unwrap()
    }

    #[test]
    fn batch_ranges_cover_everything_once() {
        let rs = reads();
        for bytes in [1, 40, 1000] {
            let ranges = batch_ranges(&rs, bytes);
            let mut covered = Vec::new();
            for r in &ranges {
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..rs.len()).collect::<Vec<_>>(), "batch_bytes={bytes}");
        }
        assert!(batch_ranges(&[], 100).is_empty());
    }

    #[test]
    fn step1_writes_all_kmers() {
        let cfg = config("parahash-step1-all");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let rs = reads();
        let (manifest, report, _) = step1(&cfg, &rs);
        let expected_kmers: u64 = rs.iter().map(|r| (r.len() - 7 + 1) as u64).sum();
        assert_eq!(manifest.total_kmers(), expected_kmers);
        assert_eq!(report.pipeline.total_work(), rs.len() as u64);
        assert!(report.peak_partition_bytes > 0);
        assert_eq!(report.step, 1);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn step1_matches_in_memory_partitioning() {
        let cfg = config("parahash-step1-match");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let rs = reads();
        let (manifest, _, _) = step1(&cfg, &rs);

        // The pipeline may interleave batches; compare as record
        // multisets, a record of weight w counted w times.
        let records = |slices: msp::PartitionSlices<'_>| {
            let mut all: Vec<_> = slices
                .iter()
                .flat_map(|v| {
                    let record =
                        (v.bases().collect::<PackedSeq>().to_string(), v.left_ext(), v.right_ext());
                    std::iter::repeat_n(record, v.weight() as usize)
                })
                .collect();
            all.sort();
            all
        };
        let seqs: Vec<dna::PackedSeq> = rs.iter().map(|r| r.seq().clone()).collect();
        let expected = msp::partition_in_memory(&seqs, 7, 4, 8).unwrap();
        for (i, want) in expected.iter().enumerate() {
            let framed = std::fs::read(manifest.partition_path(i)).unwrap();
            let got = records(msp::PartitionSlices::index_framed(&framed, 7, 4).unwrap());
            assert_eq!(got, records(msp::PartitionSlices::index(want, 7, 4).unwrap()), "partition {i}");
        }
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn step1_with_gpu_transfers_bytes() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(4)
            .cpu_threads(1)
            .sim_gpu(hetsim::SimGpuConfig {
                transfer: hetsim::TransferModel::new(100_000_000, Duration::from_micros(1)),
                ..Default::default()
            })
            .read_batch_bytes(32)
            .work_dir(std::env::temp_dir().join("parahash-step1-gpu"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let (_, report, _) = step1(&cfg, &reads());
        let gpu_metrics = cfg.devices()[1].metrics();
        let gpu_share = &report.pipeline.shares[1];
        if gpu_share.partitions > 0 {
            assert!(gpu_metrics.bytes_to_device > 0, "gpu must pay input transfers");
            assert!(gpu_metrics.transfer_time > Duration::ZERO);
            // T_GPU = T_GPU_compute + T_DH_transfer: the metered transfer
            // time is charged to the device term, not folded into I/O.
            assert!(
                report.gpu_compute >= gpu_metrics.transfer_time,
                "report gpu time {:?} must include transfer time {:?}",
                report.gpu_compute,
                gpu_metrics.transfer_time
            );
            assert_eq!(report.gpu_compute, gpu_metrics.occupied());
        }
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn short_reads_are_skipped_cleanly() {
        let cfg = config("parahash-step1-short");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let rs = vec![SeqRead::from_ascii("tiny", b"ACG"), SeqRead::from_ascii("ok", b"ACGTTGCAT")];
        let (manifest, _, _) = step1(&cfg, &rs);
        assert_eq!(manifest.total_kmers(), 3); // only the 9-mer read yields 9−7+1
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn step1_report_carries_emit_stats() {
        let cfg = config("parahash-step1-stats");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let rs = reads();
        let (manifest, report, _) = step1(&cfg, &rs);
        let stats = report.step1_stats.expect("step 1 must report emit stats");
        assert_eq!(stats.kmers, manifest.total_kmers());
        assert_eq!(stats.superkmers, manifest.total_superkmers());
        assert!(stats.superkmers > 0);
        assert!(stats.staging_bytes > 0);
        assert_eq!(stats.stored_bytes, manifest.total_bytes());
        assert!(stats.stored_bytes <= stats.staging_bytes);
        assert!(stats.merge_flushes >= 1);
        assert!(stats.batches >= 1);
        assert!(
            stats.merge_flushes <= stats.batches * cfg.partitions() as u64 * 8,
            "flushes bounded by batches × partitions × shards"
        );
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }
}
