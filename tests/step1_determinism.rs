//! Step-1 differential suite: production Step 1 — `msp::partition_in_memory`
//! and the pipelined, sharded `parahash::run_step1` at 1/2/4/8 CPU
//! threads — must emit, partition by partition, exactly the record
//! multiset of an independent implementation: the sort-merge oracle's own
//! allocating two-strand scan (`baselines::reference_partition`), which
//! shares only the routing hash with `msp`. Fuzzed corpora; narrow and
//! wide k (k = 33 included); p = k. A root test: it is the one suite that
//! sees both `parahash` and `baselines`.

use baselines::reference_partition;
use datagen::{GenomeSpec, Sequencer, SequencingSpec};
use dna::{Base, PackedSeq, SeqRead};
use msp::PartitionSlices;
use parahash::{run_step1, ParaHashConfig};
use pipeline::{IoMode, ThrottledIo};

const PARTS: usize = 16;

fn corpus(seed: u64) -> Vec<SeqRead> {
    let genome = GenomeSpec::new(4_000).seed(seed).repeat_fraction(0.3).generate();
    let spec = SequencingSpec {
        read_len: 80,
        coverage: 6.0,
        lambda: 1.0,
        reverse_strand_prob: 0.5,
        seed,
    };
    Sequencer::new(spec).sequence(&genome)
}

/// One superkmer as both sides can spell it: core text and the two
/// extension bases.
type Record = (String, Option<Base>, Option<Base>);

/// One partition's identity: its records as a sorted multiset (order
/// inside a partition is scheduling-dependent; content is not).
fn sorted(mut records: Vec<Record>) -> Vec<Record> {
    records.sort();
    records
}

fn records_of(slices: &PartitionSlices<'_>) -> Vec<Record> {
    sorted(
        slices
            .iter()
            .map(|v| (v.bases().collect::<PackedSeq>().to_string(), v.left_ext(), v.right_ext()))
            .collect(),
    )
}

/// The independent implementation's partitioning of `reads`.
fn reference(reads: &[SeqRead], k: usize, p: usize) -> Vec<Vec<Record>> {
    let seqs: Vec<PackedSeq> = reads.iter().map(|r| r.seq().clone()).collect();
    reference_partition(&seqs, k, p, PARTS)
        .unwrap()
        .into_iter()
        .map(|part| {
            sorted(part.into_iter().map(|sk| (sk.core.to_string(), sk.left_ext, sk.right_ext)).collect())
        })
        .collect()
}

/// Step 1 without the pipeline.
fn in_memory(reads: &[SeqRead], k: usize, p: usize) -> Vec<Vec<Record>> {
    let seqs: Vec<PackedSeq> = reads.iter().map(|r| r.seq().clone()).collect();
    msp::partition_in_memory(&seqs, k, p, PARTS)
        .unwrap()
        .iter()
        .map(|bytes| records_of(&PartitionSlices::index(bytes, k, p).unwrap()))
        .collect()
}

/// Runs pipelined Step 1 with `threads` CPU workers and reads every
/// partition file back, checking the manifest's counts on the way.
fn pipelined(reads: &[SeqRead], k: usize, p: usize, threads: usize, dir: &str) -> Vec<Vec<Record>> {
    let cfg = ParaHashConfig::builder()
        .k(k)
        .p(p)
        .partitions(PARTS)
        .cpu_threads(threads)
        .read_batch_bytes(1024)
        .work_dir(std::env::temp_dir().join(format!("{dir}-{}", std::process::id())))
        .build()
        .unwrap();
    let _ = std::fs::remove_dir_all(cfg.work_dir());
    let io = ThrottledIo::new(IoMode::Unthrottled);
    let (manifest, report) = run_step1(&cfg, reads, &io).unwrap();
    let stats = report.step1_stats.expect("step1 reports emit stats");
    assert_eq!(stats.kmers, manifest.total_kmers(), "threads={threads}");
    assert_eq!(stats.superkmers, manifest.total_superkmers(), "threads={threads}");
    let mut out = Vec::with_capacity(PARTS);
    for i in 0..PARTS {
        let framed = std::fs::read(manifest.partition_path(i)).unwrap();
        let slices = PartitionSlices::index_framed(&framed, k, p).unwrap();
        let stat = &manifest.stats()[i];
        assert_eq!(
            (stat.superkmers, stat.kmers),
            (slices.len() as u64, slices.total_kmers() as u64),
            "partition {i} manifest counts at {threads} threads"
        );
        out.push(records_of(&slices));
    }
    let _ = std::fs::remove_dir_all(cfg.work_dir());
    out
}

fn assert_same(want: &[Vec<Record>], have: &[Vec<Record>], what: &str) {
    assert_eq!(want.len(), have.len(), "{what}: partition count");
    for (i, (want, have)) in want.iter().zip(have).enumerate() {
        assert_eq!(want.len(), have.len(), "{what}: partition {i} record count");
        assert_eq!(want, have, "{what}: partition {i} records");
    }
}

#[test]
fn step1_output_is_thread_count_invariant() {
    let reads = corpus(42);
    let one = pipelined(&reads, 15, 7, 1, "parahash-det-t1");
    assert!(one.iter().map(Vec::len).sum::<usize>() > reads.len(), "reads must fragment");
    for threads in [2, 4, 8] {
        let got = pipelined(&reads, 15, 7, threads, &format!("parahash-det-t{threads}"));
        assert_same(&one, &got, &format!("{threads} threads vs 1"));
    }
}

#[test]
fn production_step1_matches_the_reference_partitioner() {
    // Narrow k, the first wide k, and p = k (every run a single canonical
    // k-mer's worth of minimizer).
    for (k, p) in [(15, 7), (33, 13), (21, 21)] {
        for seed in [7u64, 99, 1234] {
            let reads = corpus(seed);
            let want = reference(&reads, k, p);
            let what = format!("k={k} p={p} seed={seed}");
            assert_same(&want, &in_memory(&reads, k, p), &format!("partition_in_memory, {what}"));
            for threads in [1, 2, 4, 8] {
                let dir = format!("parahash-det-ref-{k}-{p}-{seed}-{threads}");
                let got = pipelined(&reads, k, p, threads, &dir);
                assert_same(&want, &got, &format!("run_step1 at {threads} threads, {what}"));
            }
        }
    }
}
