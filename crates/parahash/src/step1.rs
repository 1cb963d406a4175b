use std::borrow::Cow;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use dna::{Kmer, PackedSeq, SeqRead};
use hetsim::{Device, DeviceKind};
use msp::{
    encode_superkmer_slice, FastqChunks, PartitionManifest, PartitionRouter, PartitionSink,
    PartitionWriter, SuperkmerScanner,
};
use parking_lot::Mutex;
use pipeline::{run_pipeline, CancelToken, PipelineReport, SharedCounterQueue, ThrottledIo};

use crate::staging::{ShardPool, ShardRoster, StagingShard, WriteOnceSlots};
use crate::{ParaHashConfig, ParaHashError, Result, Step1Stats, StepReport};

/// Output of one Step-1 compute launch: the worker shards holding the
/// per-partition encoded superkmer bytes and `(superkmers, kmers)`
/// counts, plus the number of input bases the launch consumed. The
/// output stage drains the shards into the partition writer and returns
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
    Fastq(FastqChunks),
}

impl<'a> Source<'a> {
    fn open(input: Input<'a>, batch_bytes: usize) -> Result<Source<'a>> {
        Ok(match input {
            Input::Reads(reads) => Source::Reads(reads, batch_ranges(reads, batch_bytes)),
            Input::Fastq(path) => Source::Fastq(FastqChunks::open(path, batch_bytes)?),
        })
    }

    fn n_batches(&self) -> usize {
        match self {
            Source::Reads(_, ranges) => ranges.len(),
            Source::Fastq(chunks) => chunks.n_chunks(),
        }
    }

    fn batch(&self, i: usize) -> Batch<'_> {
        match self {
            Source::Reads(reads, ranges) => Batch::Reads(&reads[ranges[i].clone()]),
            Source::Fastq(chunks) => {
                Batch::Text { file: chunks.bytes(), at: chunks.ranges()[i].clone() }
            }
        }
    }
}

/// One input batch, as its [`Source`] holds it.
enum Batch<'a> {
    Reads(&'a [SeqRead]),
    /// The record-aligned range `at` of the FASTQ text `file`. The whole
    /// file rides along so a parse error can name its absolute line.
    Text { file: &'a [u8], at: Range<usize> },
}

impl<'a> Batch<'a> {
    /// The input I/O this batch is charged for.
    fn input_bytes(&self) -> u64 {
        match self {
            Batch::Reads(reads) => reads.iter().map(SeqRead::approx_bytes).sum::<usize>() as u64,
            Batch::Text { at, .. } => at.len() as u64,
        }
    }

    /// Cuts the batch into at most `n` parts of about equal size, one per
    /// worker: read-index ranges, or record-aligned byte ranges of the
    /// text (the cut search yields at most `n` ranges for this target).
    fn parts(&self, n: usize) -> Vec<Range<usize>> {
        match self {
            Batch::Reads(reads) => {
                let per = reads.len().div_ceil(n).max(1);
                (0..reads.len()).step_by(per).map(|lo| lo..(lo + per).min(reads.len())).collect()
            }
            Batch::Text { file, at } => {
                let text = &file[at.clone()];
                dna::chunk_record_ranges(text, text.len().div_ceil(n).max(1))
            }
        }
    }

    /// Hands every read of `part` to `f` as a 2-bit sequence: borrowed
    /// from memory, or parsed from the text and packed into one reused
    /// scratch sequence, so every record is parsed by exactly one worker.
    ///
    /// # Errors
    ///
    /// A malformed record ends the part; its line number is rebased from
    /// the slice the parser saw onto the whole file.
    fn for_each_read(&self, part: Range<usize>, mut f: impl FnMut(&PackedSeq)) -> Result<()> {
        match self {
            Batch::Reads(reads) => reads[part].iter().for_each(|r| f(r.seq())),
            Batch::Text { file, at } => {
                let start = at.start + part.start;
                let mut reader = dna::FastqSliceReader::new(&file[start..at.start + part.end]);
                let rebase = |e| parse_error(offset_parse_lines(e, &file[..start]));
                let mut scratch = PackedSeq::new();
                while let Some(view) = reader.read_record_view().map_err(rebase)? {
                    scratch.clear();
                    scratch.extend_from_ascii(view.seq);
                    f(&scratch);
                }
            }
        }
        Ok(())
    }

    /// The whole batch as the 2-bit reads a device receives; a text batch
    /// is parsed and packed on the host first.
    fn packed(&self) -> Result<Vec<Cow<'a, PackedSeq>>> {
        match self {
            Batch::Reads(reads) => Ok(reads.iter().map(|r| Cow::Borrowed(r.seq())).collect()),
            Batch::Text { at, .. } => {
                let mut reads = Vec::new();
                self.for_each_read(0..at.len(), |read| reads.push(Cow::Owned(read.clone())))?;
                Ok(reads)
            }
        }
    }
}

/// Step 1 of ParaHash: pipelined, co-processed MSP partitioning of an
/// in-memory read set.
///
/// Input batches flow through the three-stage pipeline; whichever device
/// is idle scans a batch into superkmers (one GPU lane per read, one CPU
/// thread per contiguous group of reads, as in §III-D), encodes them to
/// the 2-bit record format, and the output stage appends the bytes to the
/// per-partition files.
///
/// The compute stage is **allocation- and lock-free per read**: each
/// worker takes one [`StagingShard`] for its whole part of the batch,
/// streams every read through the shard's reusable minimizer cursor, and
/// encodes every superkmer straight from the read's packed words into the
/// shard's thread-private partition buffer.
///
/// Returns the partition manifest (input to Step 2) and the step report.
///
/// # Errors
///
/// Propagates partition-file I/O failures and invalid parameters.
pub fn run_step1(
    config: &ParaHashConfig,
    reads: &[SeqRead],
    io: &ThrottledIo,
) -> Result<(PartitionManifest, StepReport)> {
    step1_to_disk(config, Input::Reads(reads), io)
}

/// Step 1 with the classic disk handoff: `input` is partitioned into the
/// files of `work_dir/superkmers`, which only leave their staging names
/// when the returned manifest is finished.
///
/// # Errors
///
/// As [`step1_into`]; the partial partition directory is removed.
pub(crate) fn step1_to_disk(
    config: &ParaHashConfig,
    input: Input<'_>,
    io: &ThrottledIo,
) -> Result<(PartitionManifest, StepReport)> {
    let dir = config.work_dir.join("superkmers");
    let mut writer = PartitionWriter::create_scoped(&dir, config.partitions, config.k, config.p, &config.run_token)?;
    let cancel = CancelToken::new();
    let baselines = device_baselines(config);
    match step1_into(config, input, io, &cancel, &mut writer) {
        Ok((stats, pipeline_report, peak_batch)) => {
            let deltas = device_deltas(config, &baselines);
            let manifest = writer.finish()?;
            Ok((manifest, step1_report(config, stats, pipeline_report, peak_batch, &deltas)))
        }
        Err(e) => {
            // The partition directory holds an inconsistent prefix of the
            // input — remove it so Step 2 can never be pointed at it.
            drop(writer);
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

/// The one body of Step 1: opens `input`, cuts it into batches — index
/// ranges of ~`read_batch_bytes` over reads in memory, or the
/// record-aligned chunks of a FASTQ file that is mapped (or inflated, for
/// gzip) exactly once — and streams them through the three-stage pipeline
/// into any [`PartitionSink`] (the classic all-disk writer or the fused
/// pipeline's budget-governed [`msp::PartitionStore`]). Returns the emit
/// stats, the pipeline report and the peak in-flight batch bytes; the
/// caller owns manifest finalisation and error cleanup.
///
/// Every roster and every kernel selection runs this same ingest. The
/// compute stage re-splits its batch across the device's workers, so every
/// worker parses *and* scans its own reads; a simulated GPU instead
/// receives the batch 2-bit packed, one lane per read. Per-partition
/// output multisets do not depend on the cut: batch and part boundaries
/// land only between reads, every read is scanned by exactly one worker,
/// and superkmer routing is order-independent.
///
/// # Errors
///
/// Partition-sink I/O failures, and FASTQ parse failures — which poison
/// the stream (the position is lost) and surface as
/// [`crate::ParaHashError::InvalidConfig`] with the parser's message and
/// the record's line in the whole file.
pub(crate) fn step1_into<S: PartitionSink + Send>(
    config: &ParaHashConfig,
    input: Input<'_>,
    io: &ThrottledIo,
    cancel: &CancelToken,
    sink: &mut S,
) -> Result<(Step1Stats, PipelineReport, u64)> {
    let source = Source::open(input, config.read_batch_bytes)?;
    let scanner = SuperkmerScanner::new(config.k, config.p)?;
    let router = PartitionRouter::new(config.partitions)?;
    let k = config.k;
    let write_error: OnceLock<msp::MspError> = OnceLock::new();
    let parse_failure: OnceLock<ParaHashError> = OnceLock::new();
    let mut stats = Step1Stats::default();
    let mut peak_batch = 0u64;

    // All staging capacity lives in these two pools and is recycled
    // across batches: at steady state the compute stage allocates
    // nothing per read. Both free lists are locked once per batch.
    let shard_pool = ShardPool::new(config.partitions, config.k, config.p);
    let boundary_pool: Mutex<Vec<BoundaryRuns>> = Mutex::new(Vec::new());

    let pipeline_report = {
        let (source, scanner, router) = (&source, &scanner, &router);
        let (write_error, parse_failure) = (&write_error, &parse_failure);
        let (shard_pool, boundary_pool) = (&shard_pool, &boundary_pool);
        let (sink, stats, peak_batch) = (&mut *sink, &mut stats, &mut peak_batch);
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
                    let parts = batch.parts(device.parallelism().max(1));
                    let roster = ShardRoster::new(shard_pool.take(parts.len()));
                    let (reads, bases) = (AtomicU64::new(0), AtomicU64::new(0));
                    device.execute(parts.len(), &|w| {
                        let mut shard = roster.checkout();
                        let StagingShard { buffers, counts, cursor } = &mut *shard;
                        let (mut part_reads, mut part_bases) = (0u64, 0u64);
                        let parsed = batch.for_each_read(parts[w].clone(), |read| {
                            part_reads += 1;
                            part_bases += read.len() as u64;
                            scanner.scan_runs(read, cursor, |first, last, m| {
                                emit_run(router, k, read, (first, last), &m, buffers, counts);
                            });
                        });
                        if let Err(e) = parsed {
                            poison(e);
                        }
                        reads.fetch_add(part_reads, Ordering::Relaxed);
                        bases.fetch_add(part_bases, Ordering::Relaxed);
                    });
                    (roster.into_shards(), reads.into_inner(), bases.into_inner())
                };
                (Batch1Out { shards, bases }, reads)
            },
            // Stage 3: drain the shards into the partition files in bulk,
            // then hand them back to the pool for the next batch.
            |_idx, out: Batch1Out| {
                drain_batch(out, stats, io, sink, write_error, cancel, shard_pool);
            },
        )
    };

    if let Some(e) = parse_failure.into_inner() {
        return Err(e);
    }
    if let Some(e) = write_error.into_inner() {
        return Err(e.into());
    }
    Ok((stats, pipeline_report, peak_batch))
}

fn parse_error(e: dna::DnaError) -> ParaHashError {
    match e {
        dna::DnaError::Io(io) => ParaHashError::Io(io),
        other => ParaHashError::InvalidConfig(format!("bad fastq input: {other}")),
    }
}

/// Rebases a chunk-relative [`dna::DnaError::MalformedRecord`] line
/// number onto the whole file by counting the newlines before the chunk.
/// Only runs on the (already doomed) error path.
fn offset_parse_lines(e: dna::DnaError, prefix: &[u8]) -> dna::DnaError {
    match e {
        dna::DnaError::MalformedRecord { line, reason } => {
            let before = prefix.iter().filter(|&&b| b == b'\n').count() as u64;
            dna::DnaError::MalformedRecord { line: before + line, reason }
        }
        other => other,
    }
}

/// Assembles Step 1's [`StepReport`] from the pipeline outputs.
/// `deltas` are the per-device metric deltas for the step window (see
/// [`device_deltas`]).
pub(crate) fn step1_report(
    config: &ParaHashConfig,
    stats: Step1Stats,
    pipeline_report: PipelineReport,
    peak_batch: u64,
    deltas: &[hetsim::DeviceMetrics],
) -> StepReport {
    let (cpu_compute, gpu_compute) =
        split_device_times(config, &pipeline_report.shares, deltas);
    StepReport {
        step: 1,
        pipeline: pipeline_report,
        cpu_compute,
        gpu_compute,
        contention: None,
        step1_stats: Some(stats),
        resizes: 0,
        peak_partition_bytes: peak_batch,
        peak_table_bytes: 0, // Step 1 allocates no hash tables
        peak_resident_store_bytes: 0, // filled in by the fused driver
        quarantined: Vec::new(),
        sub_splits: Vec::new(),
        exhausted_leases: Vec::new(),
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
/// flushes every shard's partition buffers into the sink, tallies the
/// emit stats, and recycles the shards into the pool.
fn drain_batch<S: PartitionSink>(
    out: Batch1Out,
    stats: &mut Step1Stats,
    io: &ThrottledIo,
    sink: &mut S,
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
            // any partition data reaches its sink — everything staged so
            // far is discarded.
            let appended = pipeline::failpoint::hit("step1.staging.flush")
                .map_err(msp::MspError::Io)
                .and_then(|()| sink.append_encoded(part, bytes, sks, kms));
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
/// `baselines` snapshot. Callers capture the deltas at the *end* of their
/// device work (not at report time) so a concurrently running other step
/// — the fused flow runs both on one roster — cannot leak into the
/// window.
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

/// Splits per-device time into the model's `T_CPU` (sum of wall busy over
/// CPU devices) and `T_GPU` (max over GPU devices, paper §IV-B).
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
            DeviceKind::Cpu => cpu += share.busy,
            DeviceKind::SimGpu => {
                let metered = deltas.get(i).copied().unwrap_or_default().occupied();
                gpu = gpu.max(metered);
            }
        }
    }
    (cpu, gpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::IoMode;

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
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, report) = run_step1(&cfg, &rs, &io).unwrap();
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
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();

        // The pipeline may interleave batches; compare as record multisets.
        let records = |slices: msp::PartitionSlices<'_>| {
            let mut all: Vec<_> = slices
                .iter()
                .map(|v| (v.bases().collect::<PackedSeq>().to_string(), v.left_ext(), v.right_ext()))
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
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (_, report) = run_step1(&cfg, &reads(), &io).unwrap();
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
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = vec![SeqRead::from_ascii("tiny", b"ACG"), SeqRead::from_ascii("ok", b"ACGTTGCAT")];
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();
        assert_eq!(manifest.total_kmers(), 3); // only the 9-mer read yields 9−7+1
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn step1_report_carries_emit_stats() {
        let cfg = config("parahash-step1-stats");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, report) = run_step1(&cfg, &rs, &io).unwrap();
        let stats = report.step1_stats.expect("step 1 must report emit stats");
        assert_eq!(stats.kmers, manifest.total_kmers());
        assert_eq!(stats.superkmers, manifest.total_superkmers());
        assert!(stats.superkmers > 0);
        assert!(stats.staging_bytes > 0);
        assert!(stats.merge_flushes >= 1);
        assert!(stats.batches >= 1);
        assert!(
            stats.merge_flushes <= stats.batches * cfg.partitions() as u64 * 8,
            "flushes bounded by batches × partitions × shards"
        );
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }
}
