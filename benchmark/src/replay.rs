//! The layer replay of a traced run: single-threaded, it drives a
//! workload's own input through the layers' public functions in pipeline
//! order, one span per call batch, and must rebuild the oracle's graph —
//! or its numbers describe another program.
//!
//! The replay mirrors `parahash::step1`/`step2`/`system` from outside
//! (in-program tracing is a later change): chunked FASTQ ingest or
//! in-memory batches, scan, encode, the workload's partition sink, seal
//! or finish, then per partition load, optional sub-split, deframe, pooled
//! table, replay kernel, snapshot, encode, atomic commit, journal,
//! absorb. Each chunk runs phase by phase (parse all, pack all, scan
//! all, encode all) so every span is one contiguous interval.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use dna::{Kmer, PackedSeq, SeqRead};
use hashgraph::{
    table_capacity_for, DeBruijnGraph, HashGraphError, ReplayKernel, ReplayPipeline, SizingParams,
    SubGraph, TablePool, VertexTable,
};
use msp::{
    PartitionManifest, PartitionRouter, PartitionSink, PartitionSlices, PartitionStore,
    PartitionWriter, SealedPayload, SuperkmerScanner,
};
use parahash::{
    decode_subgraph_checked, encode_subgraph, Fingerprint, JournalEvent, ParaHashConfig, RunJournal,
};
use pipeline::{IoMode, ThrottledIo};

use crate::sample::Input;
use crate::spec::{Mode, K, P, PARTITIONS};
use crate::trace::Tracer;

/// `ParaHashConfigBuilder`'s default `read_batch_bytes`, which every
/// workload uses.
const READ_BATCH_BYTES: usize = 1 << 20;

type Error = Box<dyn std::error::Error + Send + Sync>;
type Runs = Vec<(usize, usize, Kmer)>;

/// What the replay learned beyond its spans.
pub struct Replayed {
    /// The graph it rebuilt.
    pub graph: DeBruijnGraph,
    /// Payload bytes of every partition (what CRC framing covered).
    pub partition_bytes: u64,
    /// Distinct table capacities the pool was asked for.
    pub capacities: BTreeSet<usize>,
    /// Sizes of the subgraph files it committed.
    pub subgraph_sizes: Vec<usize>,
}

/// Where Step 1's records go.
enum Sink {
    Writer(PartitionWriter),
    Store(PartitionStore),
}

/// Per-partition staging buffers of the one replay "worker".
struct Staging {
    buffers: Vec<Vec<u8>>,
    counts: Vec<(u64, u64)>,
}

/// Replays `mode` over `input` into `config.work_dir()` under a `replay`
/// span of `t`.
///
/// # Errors
///
/// Any layer's failure.
pub fn replay(
    t: &mut Tracer,
    mode: Mode,
    config: &ParaHashConfig,
    input: &Input,
) -> Result<Replayed, Error> {
    t.span("replay", |t| replay_inner(t, mode, config, input))
}

fn replay_inner(
    t: &mut Tracer,
    mode: Mode,
    config: &ParaHashConfig,
    input: &Input,
) -> Result<Replayed, Error> {
    let work_dir = config.work_dir();
    let fused = matches!(mode, Mode::FusedFastq | Mode::FusedReads | Mode::BoundedMem);
    let io = ThrottledIo::new(IoMode::Unthrottled);

    let input_digest = t.span("parahash.journal.fingerprint", |_| match input {
        Input::Fastq(path) => Fingerprint::digest_path(path),
        Input::Reads(reads) => Ok(Fingerprint::digest_reads(reads)),
    })?;
    let fingerprint = Fingerprint {
        k: K,
        p: P,
        partitions: PARTITIONS,
        input_digest,
    };
    let token = fingerprint.token();

    // The resume decision `ParaHash` makes before any step runs.
    let mut committed = BTreeSet::new();
    let mut skip_step1 = false;
    let journal = if config.resume() && RunJournal::exists(work_dir) {
        let state = t.span("parahash.journal.replay", |_| RunJournal::replay(work_dir))?;
        if state.fingerprint != fingerprint {
            return Err("the crashed directory belongs to another run".into());
        }
        skip_step1 = (0..PARTITIONS).all(|i| state.sealed.contains(&i));
        for &i in &state.committed {
            if read_committed(t, work_dir, i).is_ok() {
                committed.insert(i);
            }
        }
        RunJournal::reopen(work_dir, &state)?
    } else {
        t.span("parahash.journal.append", |t| {
            t.count("parahash.journal.records", 1.0);
            RunJournal::create(work_dir, fingerprint)
        })?
    };
    let append = |t: &mut Tracer, events: &[JournalEvent]| -> Result<(), Error> {
        t.span("parahash.journal.append", |t| {
            t.count("parahash.journal.records", events.len() as f64);
            events.iter().try_for_each(|e| journal.append(e))
        })?;
        Ok(())
    };

    // Step 1.
    let parts_dir = work_dir.join("superkmers");
    let mut sealed_payloads: Vec<Option<SealedPayload>> = (0..PARTITIONS).map(|_| None).collect();
    let mut order: Vec<usize> = (0..PARTITIONS).collect();
    let manifest = if skip_step1 {
        PartitionManifest::load(&parts_dir)?
    } else {
        let mut sink = match fused {
            true => Sink::Store(PartitionStore::create_scoped(
                &parts_dir,
                PARTITIONS,
                K,
                P,
                config.partition_memory_budget(),
                &token,
            )?),
            false => Sink::Writer(PartitionWriter::create_scoped(
                &parts_dir, PARTITIONS, K, P, &token,
            )?),
        };
        step1(t, input, &mut sink)?;
        match sink {
            Sink::Writer(writer) => {
                let manifest = t.span("msp.writer.finish", |_| writer.finish())?;
                let sealed: Vec<JournalEvent> =
                    (0..PARTITIONS).map(JournalEvent::PartitionSealed).collect();
                append(t, &sealed)?;
                manifest
            }
            Sink::Store(mut store) => {
                let manifest = t.span("msp.store.seal", |t| -> Result<_, Error> {
                    t.count("msp.store.spills", store.spill_count() as f64);
                    t.count(
                        "msp.store.peak_resident_bytes",
                        store.peak_resident_bytes() as f64,
                    );
                    let manifest = store.finish_manifest()?;
                    // The fused driver's dispatch order: spilled first,
                    // largest first.
                    order.sort_by_key(|&i| {
                        (
                            store.is_resident(i),
                            std::cmp::Reverse(store.stats()[i].bytes),
                            i,
                        )
                    });
                    for &i in &order {
                        sealed_payloads[i] = Some(store.seal(i)?.payload);
                    }
                    Ok(manifest)
                })?;
                // Only a spilled partition is durable.
                let durable: Vec<JournalEvent> = order
                    .iter()
                    .filter(|&&i| matches!(sealed_payloads[i], Some(SealedPayload::Spilled(_))))
                    .map(|&i| JournalEvent::PartitionSealed(i))
                    .collect();
                if !durable.is_empty() {
                    append(t, &durable)?;
                }
                manifest
            }
        }
    };
    let sizes: Vec<u64> = manifest.stats().iter().map(|s| s.bytes).collect();
    // A resumed run frames nothing: its partitions were written before
    // the crash.
    let partition_bytes: u64 = if skip_step1 { 0 } else { sizes.iter().sum() };
    if sizes.iter().any(|&b| b > 0) {
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        let max = sizes.iter().copied().max().unwrap_or(0) as f64;
        t.count("msp.partition.bytes_max_over_mean", max / mean);
    }

    // Step 2.
    let sub_dir = work_dir.join("subgraphs");
    std::fs::create_dir_all(&sub_dir)?;
    let mut step2 = Step2 {
        pool: TablePool::new(K),
        kernel: ReplayKernel::new(K),
        sizing: SizingParams::default(),
        capacities: BTreeSet::new(),
    };
    let mut graph = DeBruijnGraph::new(K);
    let mut subgraph_sizes = Vec::new();
    for &i in order.iter().filter(|i| !committed.contains(i)) {
        let bytes = match sealed_payloads[i].take() {
            Some(SealedPayload::Resident(bytes)) => bytes,
            Some(SealedPayload::Spilled(path)) => {
                t.span("msp.reader.load", |_| io.read_file(path))?
            }
            None => t.span("msp.reader.load", |_| {
                io.read_file(manifest.partition_path(i))
            })?,
        };
        let n_kmers = manifest.stats()[i].kmers;
        let projected = hashgraph::projected_table_bytes(n_kmers, step2.sizing);
        let budget = config.table_memory_budget();
        let subgraph = if projected > budget {
            // `step2::MAX_SUB_FANOUT`.
            let fanout = projected.div_ceil(budget.max(1)).clamp(2, 256) as usize;
            let subs = t.span("msp.subsplit.split", |t| {
                t.count("msp.subsplit.fanout_sum", fanout as f64);
                msp::split_framed(&bytes, K, P, fanout, i)
            })?;
            append(t, &[JournalEvent::SubSplit(i, fanout)])?;
            let mut entries = Vec::new();
            for sub in subs.iter().filter(|s| s.superkmers > 0) {
                entries.extend(step2.build(t, &sub.bytes, sub.kmers)?.into_entries());
            }
            SubGraph::new(K, entries)
        } else {
            step2.build(t, &bytes, n_kmers)?
        };
        drop(bytes);
        let encoded = t.span("parahash.step2.encode_subgraph", |t| {
            let encoded = encode_subgraph(&subgraph);
            t.count("parahash.step2.subgraph_bytes", encoded.len() as f64);
            encoded
        });
        t.span("pipeline.commit.commit_bytes", |t| {
            t.count("pipeline.commit.files", 1.0);
            io.commit_file(sub_dir.join(format!("sub-{i:05}.dbg")), &encoded)
        })?;
        subgraph_sizes.push(encoded.len());
        append(t, &[JournalEvent::SubgraphCommitted(i)])?;
        t.span("hashgraph.graph.absorb", |_| graph.absorb(subgraph));
    }
    for &i in &committed {
        let subgraph = read_committed(t, work_dir, i)?;
        t.span("hashgraph.graph.absorb", |_| graph.absorb(subgraph));
    }
    append(t, &[JournalEvent::RunComplete])?;
    Ok(Replayed {
        graph,
        partition_bytes,
        capacities: step2.capacities,
        subgraph_sizes,
    })
}

/// Reads and verifies one committed subgraph, as the resume plan does
/// once to trust it and once more to absorb it.
fn read_committed(t: &mut Tracer, work_dir: &Path, i: usize) -> Result<SubGraph, Error> {
    t.span(
        "parahash.step2.decode_subgraph",
        |_| -> Result<SubGraph, Error> {
            let bytes = std::fs::read(work_dir.join("subgraphs").join(format!("sub-{i:05}.dbg")))?;
            Ok(decode_subgraph_checked(&bytes, Some(i))?)
        },
    )
}

/// Step 1 over either input kind into `sink`.
fn step1(t: &mut Tracer, input: &Input, sink: &mut Sink) -> Result<(), Error> {
    let scanner = SuperkmerScanner::new(K, P)?;
    let router = PartitionRouter::new(PARTITIONS)?;
    let mut cursor = scanner.cursor();
    let mut staging = Staging {
        buffers: (0..PARTITIONS).map(|_| Vec::new()).collect(),
        counts: vec![(0, 0); PARTITIONS],
    };
    let mut runs: Vec<Runs> = Vec::new();
    match input {
        Input::Fastq(path) => {
            let mapped = t.span("dna.input.map", |_| dna::InputBytes::open(path))?;
            let bytes = mapped.as_bytes();
            let chunks = t.span("dna.fastq.parse", |_| {
                dna::chunk_record_ranges(bytes, READ_BATCH_BYTES)
            });
            let mut packed: Vec<PackedSeq> = Vec::new();
            for range in chunks {
                let seqs = t.span("dna.fastq.parse", |t| -> Result<Vec<&[u8]>, Error> {
                    let mut reader = dna::FastqSliceReader::new(&bytes[range]);
                    let mut seqs = Vec::new();
                    while let Some(view) = reader.read_record_view()? {
                        seqs.push(view.seq);
                    }
                    t.count("dna.fastq.records", seqs.len() as f64);
                    Ok(seqs)
                })?;
                t.span("dna.simd.pack", |t| {
                    if packed.len() < seqs.len() {
                        packed.resize_with(seqs.len(), PackedSeq::new);
                    }
                    let mut bases = 0usize;
                    for (slot, seq) in packed.iter_mut().zip(&seqs) {
                        slot.clear();
                        slot.extend_from_ascii(seq);
                        bases += seq.len();
                    }
                    t.count("dna.simd.bases", bases as f64);
                });
                let reads: Vec<&PackedSeq> = packed[..seqs.len()].iter().collect();
                scan_encode_append(
                    t,
                    &scanner,
                    &router,
                    &mut cursor,
                    &reads,
                    &mut runs,
                    &mut staging,
                    sink,
                )?;
            }
        }
        Input::Reads(all) => {
            for batch in batches(all) {
                let reads: Vec<&PackedSeq> = batch.iter().map(SeqRead::seq).collect();
                scan_encode_append(
                    t,
                    &scanner,
                    &router,
                    &mut cursor,
                    &reads,
                    &mut runs,
                    &mut staging,
                    sink,
                )?;
            }
        }
    }
    Ok(())
}

/// `step1::batch_ranges`: cuts of about `READ_BATCH_BYTES` of reads.
fn batches(reads: &[SeqRead]) -> impl Iterator<Item = &[SeqRead]> {
    let mut rest = reads;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut bytes = 0usize;
        let cut = rest
            .iter()
            .position(|r| {
                bytes += r.approx_bytes();
                bytes >= READ_BATCH_BYTES
            })
            .map_or(rest.len(), |i| i + 1);
        let (batch, tail) = rest.split_at(cut);
        rest = tail;
        Some(batch)
    })
}

/// One batch through scan, encode and the sink, a span each.
#[allow(clippy::too_many_arguments)]
fn scan_encode_append(
    t: &mut Tracer,
    scanner: &SuperkmerScanner,
    router: &PartitionRouter,
    cursor: &mut msp::MinimizerCursor,
    reads: &[&PackedSeq],
    runs: &mut Vec<Runs>,
    staging: &mut Staging,
    sink: &mut Sink,
) -> Result<(), Error> {
    t.span("msp.minimizer.scan", |t| {
        if runs.len() < reads.len() {
            runs.resize_with(reads.len(), Vec::new);
        }
        let (mut superkmers, mut kmers) = (0usize, 0usize);
        for (read, out) in reads.iter().zip(runs.iter_mut()) {
            scanner.scan_runs_into(read, cursor, out);
            superkmers += out.len();
            kmers += out
                .iter()
                .map(|&(first, last, _)| last - first + 1)
                .sum::<usize>();
        }
        t.count("msp.minimizer.superkmers", superkmers as f64);
        t.count("msp.minimizer.kmers", kmers as f64);
    });
    t.span("msp.record.encode", |t| {
        for (read, read_runs) in reads.iter().zip(runs.iter()) {
            for &(first, last, ref minimizer) in read_runs {
                let part = router.route_minimizer(minimizer);
                let left = first.checked_sub(1).map(|i| read.base(i));
                let right = (last + K < read.len()).then(|| read.base(last + K));
                msp::encode_superkmer_slice(
                    read,
                    first,
                    last,
                    K,
                    left,
                    right,
                    &mut staging.buffers[part],
                );
                staging.counts[part].0 += 1;
                staging.counts[part].1 += (last - first + 1) as u64;
            }
        }
        let encoded: usize = staging.buffers.iter().map(Vec::len).sum();
        t.count("msp.record.encoded_bytes", encoded as f64);
    });
    let name = match sink {
        Sink::Writer(_) => "msp.writer.append",
        Sink::Store(_) => "msp.store.append",
    };
    t.span(name, |t| -> Result<(), Error> {
        for (part, buffer) in staging.buffers.iter_mut().enumerate() {
            if buffer.is_empty() {
                continue;
            }
            let (superkmers, kmers) = std::mem::take(&mut staging.counts[part]);
            match sink {
                Sink::Writer(writer) => writer.append_encoded(part, buffer, superkmers, kmers)?,
                Sink::Store(store) => {
                    // An append that pushes the store over its budget
                    // spills inside the call: that call is the spill.
                    let spills = store.spill_count();
                    let started = Instant::now();
                    store.append_encoded(part, buffer, superkmers, kmers)?;
                    if store.spill_count() > spills {
                        t.record("msp.store.spill", started, Instant::now());
                    }
                }
            }
            buffer.clear();
        }
        Ok(())
    })
}

/// The per-run state of Step 2's compute stage.
struct Step2 {
    pool: TablePool,
    kernel: ReplayKernel,
    sizing: SizingParams,
    capacities: BTreeSet<usize>,
}

impl Step2 {
    /// `step2::build_one_table`: index the framed bytes, check a table
    /// out of the pool, replay every record, retry one class up when the
    /// Property-1 estimate under-sized it, snapshot.
    fn build(&mut self, t: &mut Tracer, bytes: &[u8], n_kmers: u64) -> Result<SubGraph, Error> {
        let slices = t.span("msp.frame.deframe", |_| {
            PartitionSlices::index_framed(bytes, K, P)
        })?;
        let mut capacity = table_capacity_for(n_kmers, self.sizing);
        loop {
            let table = t.span("hashgraph.pool.checkout", |t| {
                let table = self.pool.checkout(capacity);
                t.count("hashgraph.table.slots", table.capacity() as f64);
                table
            });
            self.capacities.insert(table.capacity());
            let replayed = t.span("hashgraph.build.replay", |_| {
                let mut pipe = ReplayPipeline::new(self.kernel, &*table);
                for i in 0..slices.len() {
                    pipe.record_view(&slices.view(i))?;
                }
                pipe.flush()
            });
            let outcome = match replayed {
                Ok(()) => Some(t.span("hashgraph.table.snapshot", |t| {
                    let stats = table.contention();
                    t.count("hashgraph.build.insertions", stats.insertions as f64);
                    t.count("hashgraph.build.updates", stats.updates as f64);
                    t.count("hashgraph.build.probe_steps", stats.probe_steps as f64);
                    t.count("hashgraph.build.tag_rejects", stats.tag_rejects as f64);
                    t.count("hashgraph.build.cas_failures", stats.cas_failures as f64);
                    t.count("hashgraph.build.lock_waits", stats.lock_waits as f64);
                    table.snapshot()
                })),
                Err(HashGraphError::CapacityExhausted { .. }) => {
                    capacity = table.capacity().saturating_mul(2).max(32);
                    None
                }
                Err(e) => return Err(e.into()),
            };
            // Shelving the table (and the reset the next checkout pays
            // for) belongs to the pool.
            t.span("hashgraph.pool.checkout", |_| drop(table));
            if let Some(subgraph) = outcome {
                return Ok(subgraph);
            }
        }
    }
}
