//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root lists the same names; `tests/contract.rs` holds the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` says `regressed`.
    pub bound: f64,
}

/// The end-to-end metrics, in print order. `setup_s` is global to a
/// run; the rest are per workload. The timing bounds are the widest a
/// driver accepts because the host's own speed drifts by 5-15 % between
/// runs (README.md, "How steady the host is").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "build_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "kmers_per_s",
        unit: "kmers/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "core-s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "io_write_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One workload: a name, the reason it exists, and what it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Workload name, as printed.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Which corpus it builds.
    pub corpus: CorpusKind,
    /// Which `ParaHash::run_*` entry point and knobs it uses.
    pub mode: Mode,
}

/// The two generated corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// `human_chr14_mini`-shaped reads at 42x: ~88 % of table operations
    /// hit an existing vertex.
    Chr14,
    /// 3x coverage, one error per read: most table operations insert.
    Distinct,
}

impl CorpusKind {
    /// File stem of the corpus FASTQ inside the work root.
    pub fn stem(self) -> &'static str {
        match self {
            CorpusKind::Chr14 => "chr14",
            CorpusKind::Distinct => "distinct",
        }
    }
}

/// How a workload drives `ParaHash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run_fused_fastq`, every partition resident.
    FusedFastq,
    /// `run_fastq_streaming`: partitions round-trip through the disk.
    TwoPhaseFastq,
    /// `run_fused(&reads)` over reads parsed before the clock starts.
    FusedReads,
    /// `run_fused_fastq` with a partition budget of a quarter of the
    /// partition bytes and a table budget that sub-splits every
    /// partition.
    BoundedMem,
    /// `run_fastq_streaming` with `workers(2)`, one thread each.
    Sharded,
    /// `run_fastq_streaming` with `resume(true)` over a copy of a work
    /// directory crashed halfway through Step 2.
    ResumeHalf,
}

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "fused_fastq",
        why: "north-star path: FASTQ to committed subgraphs with partitions handed over in memory; 88% table hits; disk handoff layers idle",
        corpus: CorpusKind::Chr14,
        mode: Mode::FusedFastq,
    },
    Workload {
        name: "two_phase_fastq",
        why: "same file through the dbg-build path: partitions round-trip PartitionWriter and read-back; PartitionStore and streaming scheduler idle",
        corpus: CorpusKind::Chr14,
        mode: Mode::TwoPhaseFastq,
    },
    Workload {
        name: "distinct_reads",
        why: "3x coverage, one error per read, reads in memory: 60-70% of table operations insert, 5x the output bytes per k-mer; dna ingest idle",
        corpus: CorpusKind::Distinct,
        mode: Mode::FusedReads,
    },
    Workload {
        name: "bounded_mem",
        why: "fused build under a quarter-size partition budget and a table budget that sub-splits every partition: spill, split_framed, merge",
        corpus: CorpusKind::Chr14,
        mode: Mode::BoundedMem,
    },
    Workload {
        name: "sharded_w2",
        why: "two-phase build with Step 2 on two worker processes over the Unix-socket lease protocol: spawn, handshake, re-read, re-verify",
        corpus: CorpusKind::Chr14,
        mode: Mode::Sharded,
    },
    Workload {
        name: "resume_half",
        why: "resume of a build crashed after half its subgraphs: journal replay, decode and absorb of the committed half, rebuild of the rest",
        corpus: CorpusKind::Chr14,
        mode: Mode::ResumeHalf,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One per-layer metric: `<crate>.<module>.<what>` and its unit.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics a traced run emits for every workload (0 where
/// the layer does nothing on that workload).
pub const PER_LAYER: [PerLayer; 73] = [
    // dna: ingest.
    lower("dna.input.map_s", "s"),
    lower("dna.fastq.parse_s", "s"),
    higher("dna.fastq.records", "count"),
    lower("dna.simd.pack_s", "s"),
    higher("dna.simd.bases", "count"),
    // msp: scan, encode, frame, stage, write, read back, sub-split.
    lower("msp.minimizer.scan_s", "s"),
    lower("msp.minimizer.superkmers", "count"),
    higher("msp.minimizer.kmers", "count"),
    lower("msp.record.encode_s", "s"),
    lower("msp.record.encoded_bytes", "bytes"),
    lower("msp.frame.append_s", "s"),
    lower("msp.frame.deframe_s", "s"),
    lower("msp.store.append_s", "s"),
    lower("msp.store.seal_s", "s"),
    lower("msp.store.spill_s", "s"),
    lower("msp.store.spills", "count"),
    lower("msp.store.peak_resident_bytes", "bytes"),
    lower("msp.writer.append_s", "s"),
    lower("msp.writer.finish_s", "s"),
    lower("msp.reader.load_s", "s"),
    lower("msp.partition.bytes_max_over_mean", "ratio"),
    lower("msp.subsplit.split_s", "s"),
    lower("msp.subsplit.fanout_sum", "count"),
    // hashgraph: table lifecycle, replay, snapshot, absorb, store.
    lower("hashgraph.table.alloc_s", "s"),
    lower("hashgraph.pool.checkout_s", "s"),
    lower("hashgraph.table.slots", "count"),
    lower("hashgraph.build.replay_s", "s"),
    lower("hashgraph.build.insertions", "count"),
    higher("hashgraph.build.updates", "count"),
    lower("hashgraph.build.probe_steps", "count"),
    lower("hashgraph.build.tag_rejects", "count"),
    lower("hashgraph.build.cas_failures", "count"),
    lower("hashgraph.build.lock_waits", "count"),
    lower("hashgraph.build.insert_share", "ratio"),
    lower("hashgraph.table.snapshot_s", "s"),
    lower("hashgraph.graph.absorb_s", "s"),
    lower("hashgraph.store.write_graph_s", "s"),
    // parahash: subgraph codec, journal, step reports, sharding.
    lower("parahash.step2.encode_subgraph_s", "s"),
    lower("parahash.step2.subgraph_bytes", "bytes"),
    lower("parahash.step2.decode_subgraph_s", "s"),
    lower("parahash.journal.fingerprint_s", "s"),
    lower("parahash.journal.append_s", "s"),
    lower("parahash.journal.records", "count"),
    lower("parahash.journal.replay_s", "s"),
    lower("parahash.journal.disk_us_per_append", "us"),
    lower("pipeline.commit.commit_bytes_s", "s"),
    lower("pipeline.commit.files", "count"),
    lower("pipeline.commit.disk_us_per_file", "us"),
    lower("parahash.step1.elapsed_s", "s"),
    lower("parahash.step1.input_s", "s"),
    lower("parahash.step1.output_s", "s"),
    lower("parahash.step1.cpu_compute_s", "s"),
    lower("parahash.step1.eq1_s", "s"),
    higher("parahash.step1.model_accuracy", "ratio"),
    lower("parahash.step2.elapsed_s", "s"),
    lower("parahash.step2.input_s", "s"),
    lower("parahash.step2.output_s", "s"),
    lower("parahash.step2.cpu_compute_s", "s"),
    lower("parahash.step2.eq1_s", "s"),
    higher("parahash.step2.model_accuracy", "ratio"),
    lower("parahash.step2.resizes", "count"),
    lower("parahash.step2.sub_splits", "count"),
    higher("hetsim.cpu.busy_share", "ratio"),
    // pipeline: scheduler and queue.
    higher("pipeline.scheduler.stage_overlap", "ratio"),
    higher("pipeline.scheduler.speedup_tN_over_t1", "ratio"),
    lower("pipeline.queue.handoff_ns", "ns"),
    lower("parahash.shard.overhead_s", "s"),
    lower("parahash.shard.spawn_s", "s"),
    // The accounting itself.
    lower("trace.e2e_t1_s", "s"),
    lower("trace.layers_sum_s", "s"),
    lower("trace.replay_glue_s", "s"),
    lower("trace.unattributed_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// k-mer length every workload uses (the paper's default).
pub const K: usize = 27;
/// Minimizer length every workload uses.
pub const P: usize = 11;
/// Partition count every workload uses.
pub const PARTITIONS: usize = 64;
