//! The word-parallel kernels at the system level: every fast path
//! (word-parallel packing, single-word minimizer scan and replay,
//! prefetched table probes, chunked parallel FASTQ ingest) must leave the
//! final graph equal to `baselines::reference_graph`, which uses none of
//! them (it walks `PackedSeq::kmers` and `Kmer::canonical`), across the
//! k/p word boundaries, thread counts and input framings (plain, gzip,
//! BGZF). Each kernel's fast path meets its scalar twin in that kernel's
//! own unit tests.
//!
//! `fastq_ingest_matches_the_streaming_parser` holds every roster
//! (CPU × 1/2/4, CPU + SimGpu, SimGpu only) × framing cell of the one
//! chunked ingest to the streaming `dna::FastqReader`, the reference
//! parser — graph and partition record multisets alike.

use datagen::{GenomeSpec, Sequencer, SequencingSpec};
use dna::{Base, PackedSeq, SeqRead};
use hetsim::{SimGpuConfig, TransferModel};
use parahash::{ParaHash, ParaHashConfig, RunOutcome};
use pipeline::IoMode;

const K: usize = 15;
const P: usize = 7;
const PARTS: usize = 12;

fn corpus() -> Vec<SeqRead> {
    let genome = GenomeSpec::new(3_000).seed(1117).repeat_fraction(0.3).generate();
    let spec = SequencingSpec {
        read_len: 80,
        coverage: 5.0,
        lambda: 1.0,
        reverse_strand_prob: 0.5,
        seed: 1117,
    };
    Sequencer::new(spec).sequence(&genome)
}

fn config(dir: &str, threads: usize) -> ParaHashConfig {
    let cfg = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTS)
        .cpu_threads(threads)
        .read_batch_bytes(2048)
        .io_mode(IoMode::Unthrottled)
        .work_dir(std::env::temp_dir().join(dir))
        .build()
        .unwrap();
    let _ = std::fs::remove_dir_all(cfg.work_dir());
    cfg
}

fn write_fastq(path: &std::path::Path, reads: &[SeqRead]) {
    let mut w = dna::FastqWriter::new(std::fs::File::create(path).unwrap());
    for r in reads {
        w.write_record(r).unwrap();
    }
    w.into_inner().unwrap();
}

fn run_streaming(dir: &str, threads: usize, path: &std::path::Path) -> RunOutcome {
    let ph = ParaHash::new(config(dir, threads)).unwrap();
    let out = ph.run_fastq_streaming(path).unwrap();
    std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    out
}

/// The boundary-fuzz corpus: the random read set plus low-complexity
/// reads (homopolymers, dinucleotide and triplet repeats) whose rolling
/// forward/reverse words are maximally self-similar — the inputs most
/// likely to expose an off-by-one in the k≤32 replay fast path — and
/// reads of exactly k and k±1 bases at the widest boundary.
fn boundary_corpus() -> Vec<SeqRead> {
    let mut reads = corpus();
    for (i, base) in ["A", "C", "G", "T"].iter().enumerate() {
        reads.push(SeqRead::from_ascii(format!("homo{i}"), base.repeat(70).as_bytes()));
    }
    reads.push(SeqRead::from_ascii("at", "AT".repeat(40).as_bytes()));
    reads.push(SeqRead::from_ascii("ta", "TA".repeat(40).as_bytes()));
    reads.push(SeqRead::from_ascii("gc", "GC".repeat(40).as_bytes()));
    reads.push(SeqRead::from_ascii("acg", "ACG".repeat(25).as_bytes()));
    let cycle = b"ACGT".repeat(9);
    for len in [32usize, 33, 34] {
        reads.push(SeqRead::from_ascii(format!("len{len}"), &cycle[..len]));
    }
    reads
}

/// Full run that persists subgraphs; returns the final graph and every
/// partition subgraph file's raw bytes.
fn run_with_subgraphs(
    dir: &str,
    k: usize,
    p: usize,
    threads: usize,
    reads: &[SeqRead],
) -> (hashgraph::DeBruijnGraph, Vec<Vec<u8>>) {
    let cfg = ParaHashConfig::builder()
        .k(k)
        .p(p)
        .partitions(PARTS)
        .cpu_threads(threads)
        .read_batch_bytes(2048)
        .io_mode(IoMode::Unthrottled)
        .write_subgraphs(true)
        .work_dir(std::env::temp_dir().join(dir))
        .build()
        .unwrap();
    let _ = std::fs::remove_dir_all(cfg.work_dir());
    let work = cfg.work_dir().to_path_buf();
    let ph = ParaHash::new(cfg).unwrap();
    let out = ph.run(reads).unwrap();
    let subs = (0..PARTS)
        .map(|i| std::fs::read(work.join("subgraphs").join(format!("sub-{i:05}.dbg"))).unwrap())
        .collect();
    std::fs::remove_dir_all(&work).unwrap();
    (out.graph, subs)
}

/// Differential fuzz across the narrow-word boundary: k = 31 (tail
/// slack), k = 32 (the single-u64 fast path completely full) and k = 33
/// (first width that must take the multi-word cursor), crossed with
/// minimizer lengths at the same boundary. Every build must equal the
/// reference graph; k = 32 is additionally swept over 1/4/8 threads,
/// which must also persist the same subgraph bytes.
#[test]
fn k_p_boundary_builds_equal_the_reference_graph() {
    let reads = boundary_corpus();
    for (k, p) in [(31, 31), (32, 31), (32, 32), (33, 31), (33, 32), (33, 33)] {
        let want = baselines::reference_graph(&reads, k);
        assert!(want.distinct_vertices() > 100, "corpus too small at k={k}");
        let threads_list: &[usize] = if k == 32 && p == 32 { &[1, 4, 8] } else { &[4] };
        let mut first_subs = None;
        for &threads in threads_list {
            let (graph, subs) = run_with_subgraphs(
                &format!("parahash-kp-fast-{k}-{p}-t{threads}"),
                k,
                p,
                threads,
                &reads,
            );
            assert_eq!(graph, want, "graph diverged at k={k} p={p} threads={threads}");
            let first = first_subs.get_or_insert_with(|| subs.clone());
            assert_eq!(&subs, first, "subgraph bytes diverged at k={k} p={p} threads={threads}");
        }
    }
}

#[test]
fn streaming_fastq_graph_equals_the_reference_graph() {
    let reads = corpus();
    let path = std::env::temp_dir().join(format!("parahash-simd-{}.fastq", std::process::id()));
    write_fastq(&path, &reads);

    let want = baselines::reference_graph(&reads, K);
    assert!(want.distinct_vertices() > 100, "corpus too small to be meaningful");
    for threads in [1usize, 4, 8] {
        let built = run_streaming(&format!("parahash-simd-t{threads}"), threads, &path);
        assert_eq!(built.graph, want, "run at {threads} threads diverged from the reference graph");
        let stats = built.report.step1.step1_stats.expect("step1 reports stats");
        let expected_bases: u64 = reads.iter().map(|r| r.len() as u64).sum();
        assert_eq!(stats.bases, expected_bases, "ingest base tally (threads={threads})");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn gzip_framings_match_plain_input() {
    let reads = corpus();
    let pid = std::process::id();
    let plain = std::env::temp_dir().join(format!("parahash-simd-gz-{pid}.fastq"));
    write_fastq(&plain, &reads);
    let text = std::fs::read(&plain).unwrap();

    let gz = std::env::temp_dir().join(format!("parahash-simd-gz-{pid}.fastq.gz"));
    std::fs::write(&gz, dna::gzip::compress_stored(&text)).unwrap();
    let bgzf = std::env::temp_dir().join(format!("parahash-simd-bgzf-{pid}.fastq.gz"));
    std::fs::write(&bgzf, dna::gzip::compress_bgzf(&text)).unwrap();

    let reference = run_streaming("parahash-simd-plain", 4, &plain);
    let via_gz = run_streaming("parahash-simd-gzip", 4, &gz);
    let via_bgzf = run_streaming("parahash-simd-bgzf", 4, &bgzf);

    assert_eq!(via_gz.graph, reference.graph, "single-member gzip diverged");
    assert_eq!(via_bgzf.graph, reference.graph, "multi-member BGZF diverged");
    for p in [plain, gz, bgzf] {
        std::fs::remove_file(p).unwrap();
    }
}

/// One partition's identity: its `(core, left, right)` records as a
/// sorted multiset, a record of weight w counted w times (order inside
/// a partition, and which copies Step 1 combined, is
/// scheduling-dependent; content is not).
type Records = Vec<(String, Option<Base>, Option<Base>)>;

/// Every partition file a finished run left in `work`, as record
/// multisets (a fused run spills no file for a partition it never fed).
fn partition_records(work: &std::path::Path) -> Vec<Records> {
    (0..PARTS)
        .map(|i| {
            let path = work.join("superkmers").join(format!("part-{i:05}.skm"));
            let framed = std::fs::read(path).unwrap_or_default();
            let slices = msp::PartitionSlices::index_framed(&framed, K, P).unwrap();
            let mut records: Records = slices
                .iter()
                .flat_map(|v| {
                    let record =
                        (v.bases().collect::<PackedSeq>().to_string(), v.left_ext(), v.right_ext());
                    std::iter::repeat_n(record, v.weight() as usize)
                })
                .collect();
            records.sort();
            records
        })
        .collect()
}

/// The FASTQ ingest is one body: whatever the roster or the framing, `run_fastq_streaming` and `run_fused_fastq` cut the file
/// with `msp::FastqChunks` and must leave the graph and every partition's
/// record multiset of (a) the same corpus parsed by the streaming
/// `dna::FastqReader` — the reference parser — and built through `run`.
#[test]
fn fastq_ingest_matches_the_streaming_parser() {
    const BATCH: usize = 2048;
    let pid = std::process::id();
    let tmp = std::env::temp_dir();
    let plain = tmp.join(format!("parahash-ingest-{pid}.fastq"));
    write_fastq(&plain, &corpus());
    let text = std::fs::read(&plain).unwrap();
    let gz = tmp.join(format!("parahash-ingest-{pid}.fastq.gz"));
    std::fs::write(&gz, dna::gzip::compress_stored(&text)).unwrap();
    let bgzf = tmp.join(format!("parahash-ingest-bgzf-{pid}.fastq.gz"));
    std::fs::write(&bgzf, dna::gzip::compress_bgzf(&text)).unwrap();

    // (name, CPU threads — `None` for `no_cpu()` —, with a SimGpu).
    let rosters = [
        ("cpu1", Some(1), false),
        ("cpu2", Some(2), false),
        ("cpu4", Some(4), false),
        ("cpu2+gpu", Some(2), true),
        ("gpu", None, true),
    ];
    let runner = |(_, cpu, gpu): (&str, Option<usize>, bool), tag: &str| {
        // Budget 0 spills every fused partition, so both entry points
        // leave partition files to compare.
        let builder = ParaHashConfig::builder()
            .k(K)
            .p(P)
            .partitions(PARTS)
            .read_batch_bytes(BATCH)
            .partition_memory_budget(0)
            .work_dir(tmp.join(format!("parahash-ingest-{pid}-{tag}")));
        let builder = match cpu {
            Some(threads) => builder.cpu_threads(threads),
            None => builder.no_cpu(),
        };
        let sim = SimGpuConfig { sm_count: 2, transfer: TransferModel::instant(), ..Default::default() };
        let cfg = if gpu { builder.sim_gpu(sim) } else { builder }.build().unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        ParaHash::new(cfg).unwrap()
    };

    // (a) The reference: the streaming parser's reads, through `run`.
    let parsed: Vec<SeqRead> = dna::FastqReader::new(&text[..]).collect::<Result<_, _>>().unwrap();
    assert_eq!(parsed.len(), corpus().len());
    let reference = runner(rosters[0], "ref");
    let want_graph = reference.run(&parsed).unwrap().graph;
    let want_parts = partition_records(reference.config().work_dir());
    assert!(want_graph.distinct_vertices() > 100, "corpus too small to be meaningful");
    std::fs::remove_dir_all(reference.config().work_dir()).unwrap();
    // What the chunked ingest cuts this text into. Its input stage charges
    // a batch its chunk's text bytes (a reader handing over parsed reads
    // could only charge their decoded size), so the batch tally and the
    // peak batch below say which ingest a cell ran.
    let chunks = dna::chunk_record_ranges(&text, BATCH);
    let peak_chunk = chunks.iter().map(|r| r.len() as u64).max().unwrap();

    // (b) Every cell of the FASTQ path.
    for roster in rosters {
        for (framing, path) in [("plain", &plain), ("gzip", &gz), ("bgzf", &bgzf)] {
            let cell = format!("{}, {framing}", roster.0);
            for fused in [false, true] {
                let ph = runner(roster, "cell");
                let out = if fused { ph.run_fused_fastq(path) } else { ph.run_fastq_streaming(path) }
                    .unwrap_or_else(|e| panic!("{cell}, fused={fused}: {e}"));
                assert_eq!(out.graph, want_graph, "graph diverged: {cell}, fused={fused}");
                let parts = partition_records(ph.config().work_dir());
                for (i, (want, have)) in want_parts.iter().zip(&parts).enumerate() {
                    assert_eq!(want, have, "partition {i} records: {cell}, fused={fused}");
                }
                let stats = out.report.step1.step1_stats.expect("step1 reports stats");
                assert_eq!(
                    (stats.batches, out.report.step1.peak_partition_bytes),
                    (chunks.len() as u64, peak_chunk),
                    "not the chunked ingest: {cell}, fused={fused}"
                );
                assert_eq!(out.report.step1.pipeline.total_work(), parsed.len() as u64);
                std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
            }
        }
    }
    for p in [plain, gz, bgzf] {
        std::fs::remove_file(p).unwrap();
    }
}
