use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dna::{Kmer, PackedSeq, SeqRead};
use hetsim::{Device, DeviceKind};
use msp::{
    encode_superkmer_slice, PartitionManifest, PartitionRouter, PartitionSink, PartitionWriter,
    SuperkmerScanner,
};
use parking_lot::Mutex;
use pipeline::{run_pipeline, CancelToken, PipelineReport, SharedCounterQueue, ThrottledIo};

use crate::once_error::OnceError;
use crate::staging::{ShardPool, StagingShard, WorkerShards, WriteOnceSlots};
use crate::{ParaHashConfig, Result, Step1Stats, StepReport};

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
fn batch_ranges(reads: &[SeqRead], batch_bytes: usize) -> Vec<std::ops::Range<usize>> {
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
    /// A FASTQ file (plain or gzip), parsed one batch at a time so the
    /// whole read set is **never resident in memory** — the property the
    /// paper's partition-by-partition workflow depends on for big genomes.
    Fastq(&'a Path),
}

/// Step 1 of ParaHash: pipelined, co-processed MSP partitioning of an
/// in-memory read set.
///
/// Input batches flow through the three-stage pipeline; whichever device
/// is idle scans a batch into superkmers (each read's scan is one
/// data-parallel item — one GPU lane per read, one CPU thread per group,
/// as in §III-D), encodes them to the 2-bit record format, and the output
/// stage appends the bytes to the per-partition files.
///
/// The compute stage is **allocation- and lock-free per read**: each
/// worker checks a [`StagingShard`] out of a roster (one atomic CAS),
/// streams the read through a reusable minimizer cursor, and encodes every
/// superkmer straight from the read's packed words into the shard's
/// thread-private partition buffer.
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

/// The sink-agnostic body of Step 1: streams `input` through the Step-1
/// pipeline into any [`PartitionSink`] (the classic all-disk writer or
/// the fused pipeline's budget-governed [`msp::PartitionStore`]). Returns
/// the emit stats, the pipeline report and the peak in-flight batch
/// bytes; the caller owns manifest finalisation and error cleanup.
///
/// A FASTQ file is read **exactly once**. On an all-CPU roster every
/// worker parses its own record-aligned slice of the mapped file
/// ([`step1_fastq_chunks`]); simulated GPUs meter per-batch transfers and
/// `PARAHASH_FORCE_SCALAR` pins every fallback path, so those runs keep
/// the sequential reader, whose input stage cuts a batch as soon as
/// ~`read_batch_bytes` of sequence has been parsed.
///
/// # Errors
///
/// Partition-sink I/O failures, and FASTQ parse failures — which poison
/// the stream (the position is lost) and surface as
/// [`crate::ParaHashError::InvalidConfig`] with the parser's message.
pub(crate) fn step1_into<S: PartitionSink + Send>(
    config: &ParaHashConfig,
    input: Input<'_>,
    io: &ThrottledIo,
    cancel: &CancelToken,
    sink: &mut S,
) -> Result<(Step1Stats, PipelineReport, u64)> {
    match input {
        Input::Reads(reads) => {
            let ranges = batch_ranges(reads, config.read_batch_bytes);
            let batch = |i: usize| &reads[ranges[i].clone()];
            run_step1_batches(config, ranges.len(), batch, io, cancel, sink)
        }
        Input::Fastq(path)
            if !dna::simd::force_scalar()
                && config.devices().iter().all(|d| d.kind() == DeviceKind::Cpu) =>
        {
            step1_fastq_chunks(config, path, io, cancel, sink)
        }
        Input::Fastq(path) => step1_fastq_sequential(config, path, io, cancel, sink),
    }
}

/// Sequential FASTQ ingest: one reader on the input stage, cutting a
/// batch of owned reads as soon as ~`read_batch_bytes` of sequence has
/// been parsed.
fn step1_fastq_sequential<S: PartitionSink + Send>(
    config: &ParaHashConfig,
    path: &Path,
    io: &ThrottledIo,
    cancel: &CancelToken,
    sink: &mut S,
) -> Result<(Step1Stats, PipelineReport, u64)> {
    // Gzip inputs are inflated up front so the sequential path accepts
    // exactly the same files as the chunked one — the scalar escape
    // hatch (and the GPU rosters) must not change which inputs parse,
    // only how fast.
    let inflated: Option<Vec<u8>> = {
        use std::io::Read;
        let mut magic = [0u8; 2];
        let n = std::fs::File::open(path)?.read(&mut magic)?;
        if n == 2 && dna::gzip::is_gzip(&magic) {
            Some(dna::gzip::decompress(&std::fs::read(path)?).map_err(parse_error)?)
        } else {
            None
        }
    };
    let (mut reader, text_len): (Box<dyn Iterator<Item = dna::Result<SeqRead>> + Send + '_>, u64) =
        match &inflated {
            Some(text) => (Box::new(dna::FastqSliceReader::new(text)), text.len() as u64),
            None => {
                let file = std::fs::File::open(path)?;
                let len = file.metadata()?.len();
                (Box::new(dna::FastqReader::new(std::io::BufReader::new(file))), len)
            }
        };
    // The batch count only has to *bound* the number of batches the input
    // stage will produce. A FASTQ record spends at least its sequence
    // length in file bytes (plus header, '+' line and qualities), so
    // `text_len / read_batch_bytes + 1` batches of ~`read_batch_bytes` of
    // sequence each can never fall short; the surplus batches parse
    // nothing and flow through as empty.
    let n_batches = (text_len / config.read_batch_bytes.max(1) as u64) as usize + 1;
    let parse_failure: OnceError<crate::ParaHashError> = OnceError::new();
    let next_batch = |_| {
        let mut batch = Vec::new();
        let mut bytes = 0usize;
        while bytes < config.read_batch_bytes {
            match reader.next() {
                Some(Ok(read)) => {
                    bytes += read.approx_bytes();
                    batch.push(read);
                }
                None => break,
                Some(Err(e)) => {
                    // Stop feeding the pipeline rather than scanning
                    // whatever follows the lost position.
                    parse_failure.set(parse_error(e));
                    cancel.cancel();
                    break;
                }
            }
        }
        batch
    };
    let result = run_step1_batches(config, n_batches, next_batch, io, cancel, sink);
    match parse_failure.into_inner() {
        Some(e) => Err(e),
        None => result,
    }
}

fn parse_error(e: dna::DnaError) -> crate::ParaHashError {
    match e {
        dna::DnaError::Io(io) => crate::ParaHashError::Io(io),
        other => crate::ParaHashError::InvalidConfig(format!("bad fastq input: {other}")),
    }
}

/// Parallel chunked FASTQ ingest: the whole file is mapped (or inflated,
/// for gzip) once, split into record-aligned chunks of
/// ~`read_batch_bytes`, and each chunk flows through the pipeline as one
/// batch whose compute stage re-splits it across the device's workers —
/// every Step-1 worker parses *and* scans its own byte slice, so ingest
/// is no longer serialised on one parser thread.
///
/// Per-partition output multisets are identical to the sequential path:
/// chunk and sub-chunk cuts land only on record boundaries, every record
/// is parsed by exactly one worker, and superkmer routing is
/// order-independent. Batch *counts* differ from the sequential path
/// (chunks replace byte-budget batches), which no consumer observes —
/// stats are cross-checked against manifest totals only.
fn step1_fastq_chunks<S: PartitionSink + Send>(
    config: &ParaHashConfig,
    path: &Path,
    io: &ThrottledIo,
    cancel: &CancelToken,
    sink: &mut S,
) -> Result<(Step1Stats, PipelineReport, u64)> {
    let chunks = msp::FastqChunks::open(path, config.read_batch_bytes.max(1))?;
    let scanner = SuperkmerScanner::new(config.k, config.p)?;
    let router = PartitionRouter::new(config.partitions)?;
    let k = config.k;
    let write_error: OnceError<msp::MspError> = OnceError::new();
    let parse_failure: OnceError<crate::ParaHashError> = OnceError::new();
    let mut stats = Step1Stats::default();
    let mut peak_batch = 0u64;
    let shard_pool = ShardPool::new(config.partitions, config.k, config.p);

    let pipeline_report = {
        let chunks = &chunks;
        let scanner = &scanner;
        let router = &router;
        let sink = &mut *sink;
        let write_error = &write_error;
        let parse_failure = &parse_failure;
        let shard_pool = &shard_pool;
        let stats = &mut stats;
        let peak_batch = &mut peak_batch;
        run_pipeline(
            &SharedCounterQueue::filled(0..chunks.n_chunks()),
            config.devices(),
            cancel,
            |i| {
                let len = chunks.ranges()[i].len() as u64;
                *peak_batch = (*peak_batch).max(len);
                io.charge(len);
                (i, i)
            },
            |device: &dyn Device, _idx, chunk_idx: usize| {
                let chunk = chunks.chunk(chunk_idx);
                let n_workers = device.parallelism().max(1);
                // Re-split the chunk at record boundaries, one sub-slice
                // per worker (the cut search yields at most `n_workers`
                // ranges for this target).
                let subs =
                    dna::chunk_record_ranges(chunk, chunk.len().div_ceil(n_workers).max(1));
                debug_assert!(subs.len() <= n_workers);
                let roster = WorkerShards::new(shard_pool.take(n_workers));
                let records = AtomicU64::new(0);
                let bases = AtomicU64::new(0);
                device.execute(subs.len(), &|w| {
                    let sub = &chunk[subs[w].clone()];
                    let mut shard = roster.checkout();
                    let mut reader = dna::FastqSliceReader::new(sub);
                    let mut scratch = PackedSeq::new();
                    let mut sub_records = 0u64;
                    let mut sub_bases = 0u64;
                    loop {
                        match reader.read_record_view() {
                            Ok(Some(view)) => {
                                sub_records += 1;
                                sub_bases += view.seq.len() as u64;
                                scratch.clear();
                                scratch.extend_from_ascii(view.seq);
                                let read = &scratch;
                                let StagingShard { buffers, counts, cursor } = &mut *shard;
                                scanner.scan_runs(read, cursor, |first, last, m| {
                                    emit_run(router, k, read, (first, last), &m, buffers, counts);
                                });
                            }
                            Ok(None) => break,
                            Err(e) => {
                                // Report the line relative to the whole
                                // file: the slice parser only knows its
                                // own offset.
                                let sub_start = chunks.ranges()[chunk_idx].start + subs[w].start;
                                parse_failure.set(parse_error(offset_parse_lines(
                                    e,
                                    &chunks.bytes()[..sub_start],
                                )));
                                cancel.cancel();
                                break;
                            }
                        }
                    }
                    records.fetch_add(sub_records, Ordering::Relaxed);
                    bases.fetch_add(sub_bases, Ordering::Relaxed);
                });
                let out =
                    Batch1Out { shards: roster.into_shards(), bases: bases.into_inner() };
                (out, records.into_inner())
            },
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

/// The shared Step-1 pipeline over any batch source (in-memory slices or
/// a streaming parser) and any [`PartitionSink`] (disk writer or the
/// fused pipeline's budget-governed store). The input stage charges each
/// batch's bytes to `io` and tracks the peak batch, returned last.
fn run_step1_batches<B, FP, S>(
    config: &ParaHashConfig,
    n_batches: usize,
    mut produce: FP,
    io: &ThrottledIo,
    cancel: &CancelToken,
    sink: &mut S,
) -> Result<(Step1Stats, PipelineReport, u64)>
where
    B: AsRef<[SeqRead]> + Send,
    FP: FnMut(usize) -> B + Send,
    S: PartitionSink + Send,
{
    let scanner = SuperkmerScanner::new(config.k, config.p)?;
    let router = PartitionRouter::new(config.partitions)?;
    let k = config.k;
    let write_error: OnceError<msp::MspError> = OnceError::new();
    let mut stats = Step1Stats::default();
    let mut peak_batch = 0u64;

    // All staging capacity lives in these two pools and is recycled
    // across batches: at steady state the compute stage allocates
    // nothing. Both free lists are locked once per batch, never per read.
    let shard_pool = ShardPool::new(config.partitions, config.k, config.p);
    let boundary_pool: Mutex<Vec<BoundaryRuns>> = Mutex::new(Vec::new());

    let pipeline_report = {
        let scanner = &scanner;
        let router = &router;
        let sink = &mut *sink;
        let write_error = &write_error;
        let shard_pool = &shard_pool;
        let boundary_pool = &boundary_pool;
        let stats = &mut stats;
        let peak_batch = &mut peak_batch;
        run_pipeline(
            &SharedCounterQueue::filled(0..n_batches),
            config.devices(),
            cancel,
            // Stage 1: one batch of reads, paying its input I/O.
            |i| {
                let batch = produce(i);
                let bytes: usize = batch.as_ref().iter().map(SeqRead::approx_bytes).sum();
                *peak_batch = (*peak_batch).max(bytes as u64);
                io.charge(bytes as u64);
                (i, batch)
            },
            // Stage 2: scan + encode on an idle device. Emits go to
            // thread-private shards — no locks, no per-read allocation.
            |device: &dyn Device, _idx, batch: B| {
                let batch = batch.as_ref();
                let bases: u64 = batch.iter().map(|r| r.len() as u64).sum();
                let n_workers = device.parallelism().min(batch.len()).max(1);
                let roster = WorkerShards::new(shard_pool.take(n_workers));
                if device.kind() == DeviceKind::SimGpu {
                    // The paper's §III-D split: reads travel to the device
                    // 2-bit encoded (¼ byte per base), the *kernel* only
                    // computes superkmer ids and offsets (regular,
                    // fixed-width output: one write-once slot per read),
                    // and the irregular memory movement — materialising
                    // and encoding superkmers — stays on the host.
                    let encoded: u64 = batch.iter().map(|r| r.len() as u64 / 4 + 1).sum();
                    device.transfer_to_device(encoded);
                    let slots = WriteOnceSlots::new(take_boundary_slots(
                        boundary_pool,
                        batch.len(),
                    ));
                    device.execute(batch.len(), &|i| {
                        // Work item i writes slot i — disjoint by
                        // construction, so no lock is needed; the cursor
                        // comes from a CAS-checked-out shard.
                        let mut shard = roster.checkout();
                        slots.with_mut(i, |runs| {
                            scanner.scan_runs_into(batch[i].seq(), &mut shard.cursor, runs);
                        });
                    });
                    // Host half: encode the runs into one shard's buffers.
                    let boundaries = slots.into_inner();
                    {
                        let mut shard = roster.checkout();
                        let StagingShard { buffers, counts, .. } = &mut *shard;
                        for (read, runs) in batch.iter().zip(&boundaries) {
                            let read = read.seq();
                            for &(first, last, m) in runs {
                                emit_run(router, k, read, (first, last), &m, buffers, counts);
                            }
                        }
                    }
                    boundary_pool.lock().extend(boundaries);
                } else {
                    device.execute(batch.len(), &|i| {
                        let mut shard = roster.checkout();
                        let read = batch[i].seq();
                        let StagingShard { buffers, counts, cursor } = &mut *shard;
                        scanner.scan_runs(read, cursor, |first, last, m| {
                            emit_run(router, k, read, (first, last), &m, buffers, counts);
                        });
                    });
                }
                let shards = roster.into_shards();
                if device.kind() == DeviceKind::SimGpu {
                    let out_bytes: u64 =
                        shards.iter().map(StagingShard::staged_bytes).sum();
                    device.transfer_from_device(out_bytes);
                }
                let work = batch.len() as u64;
                (Batch1Out { shards, bases }, work)
            },
            // Stage 3: drain the shards into the partition files in bulk,
            // then hand them back to the pool for the next batch.
            |_idx, out: Batch1Out| {
                drain_batch(out, stats, io, sink, write_error, cancel, shard_pool);
            },
        )
    };

    if let Some(e) = write_error.into_inner() {
        return Err(e.into());
    }
    Ok((stats, pipeline_report, peak_batch))
}

/// Output-stage drain shared by the batched and chunked Step-1 pipelines:
/// flushes every shard's partition buffers into the sink, tallies the
/// emit stats, and recycles the shards into the pool.
fn drain_batch<S: PartitionSink>(
    out: Batch1Out,
    stats: &mut Step1Stats,
    io: &ThrottledIo,
    sink: &mut S,
    write_error: &OnceError<msp::MspError>,
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
                write_error.set(e);
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
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        out.push(free.pop().unwrap_or_default());
    }
    out
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
