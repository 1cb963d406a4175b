//! SIMD/scalar equivalence at the system level: every vectorized kernel
//! (word-parallel packing, single-word minimizer scan, prefetched table
//! probes, chunked parallel FASTQ ingest) must leave the final graph
//! **byte-identical** to the forced-scalar fallbacks, across thread
//! counts and input framings (plain, gzip, BGZF). The acceptance gate of
//! the SIMD work: `PARAHASH_FORCE_SCALAR=1` is a pure performance knob.
//!
//! The flag selects kernels *below* the ingest — scalar packer,
//! monotone-deque scan, `read` instead of `mmap`, single-threaded inflate
//! — never a second FASTQ reader: `fastq_ingest_matches_the_streaming_parser`
//! holds every roster (CPU × 1/2/4, CPU + SimGpu, SimGpu only) × kernel ×
//! framing cell of the one chunked ingest to the streaming
//! `dna::FastqReader`, the reference parser — graph and partition record
//! multisets alike.

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
/// minimizer lengths at the same boundary. The fast path must leave the
/// graph *and the persisted subgraph bytes* identical to
/// `PARAHASH_FORCE_SCALAR=1`; k = 32 is additionally swept over 1/4/8
/// threads.
#[test]
fn replay_fast_path_matches_scalar_at_k_boundaries() {
    let _guard = dna::simd::override_guard();
    let reads = boundary_corpus();
    for (k, p) in [(31, 31), (32, 31), (32, 32), (33, 31), (33, 32), (33, 33)] {
        dna::simd::set_force_scalar_override(Some(true));
        let (scalar_graph, scalar_subs) =
            run_with_subgraphs(&format!("parahash-kp-scalar-{k}-{p}"), k, p, 4, &reads);
        assert!(scalar_graph.distinct_vertices() > 100, "corpus too small at k={k}");
        dna::simd::set_force_scalar_override(Some(false));
        let threads_list: &[usize] = if k == 32 && p == 32 { &[1, 4, 8] } else { &[4] };
        for &threads in threads_list {
            let (graph, subs) = run_with_subgraphs(
                &format!("parahash-kp-fast-{k}-{p}-t{threads}"),
                k,
                p,
                threads,
                &reads,
            );
            assert_eq!(graph, scalar_graph, "graph diverged at k={k} p={p} threads={threads}");
            assert_eq!(
                subs, scalar_subs,
                "subgraph bytes diverged at k={k} p={p} threads={threads}"
            );
        }
        dna::simd::set_force_scalar_override(None);
    }
}

#[test]
fn graph_is_identical_with_and_without_simd() {
    let _guard = dna::simd::override_guard();
    let reads = corpus();
    let path = std::env::temp_dir().join(format!("parahash-simd-{}.fastq", std::process::id()));
    write_fastq(&path, &reads);

    dna::simd::set_force_scalar_override(Some(true));
    let scalar = run_streaming("parahash-simd-scalar", 4, &path);
    dna::simd::set_force_scalar_override(None);

    assert!(scalar.graph.distinct_vertices() > 100, "corpus too small to be meaningful");
    for threads in [1usize, 4, 8] {
        dna::simd::set_force_scalar_override(Some(false));
        let simd = run_streaming(&format!("parahash-simd-t{threads}"), threads, &path);
        dna::simd::set_force_scalar_override(None);
        assert_eq!(
            simd.graph, scalar.graph,
            "SIMD run at {threads} threads diverged from forced-scalar"
        );
        let stats = simd.report.step1.step1_stats.expect("step1 reports stats");
        let expected_bases: u64 = reads.iter().map(|r| r.len() as u64).sum();
        assert_eq!(stats.bases, expected_bases, "ingest base tally (threads={threads})");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn gzip_framings_match_plain_input() {
    let _guard = dna::simd::override_guard();
    let reads = corpus();
    let pid = std::process::id();
    let plain = std::env::temp_dir().join(format!("parahash-simd-gz-{pid}.fastq"));
    write_fastq(&plain, &reads);
    let text = std::fs::read(&plain).unwrap();

    let gz = std::env::temp_dir().join(format!("parahash-simd-gz-{pid}.fastq.gz"));
    std::fs::write(&gz, dna::gzip::compress_stored(&text)).unwrap();
    let bgzf = std::env::temp_dir().join(format!("parahash-simd-bgzf-{pid}.fastq.gz"));
    std::fs::write(&bgzf, dna::gzip::compress_bgzf(&text)).unwrap();

    dna::simd::set_force_scalar_override(Some(false));
    let reference = run_streaming("parahash-simd-plain", 4, &plain);
    let via_gz = run_streaming("parahash-simd-gzip", 4, &gz);
    let via_bgzf = run_streaming("parahash-simd-bgzf", 4, &bgzf);
    // Gzip must also parse over the forced-scalar kernels (`read` instead
    // of `mmap`, single-threaded inflate): the scalar escape hatch may not
    // change which inputs are accepted.
    dna::simd::set_force_scalar_override(Some(true));
    let scalar_gz = run_streaming("parahash-simd-gzip-scalar", 4, &gz);
    dna::simd::set_force_scalar_override(None);

    assert_eq!(via_gz.graph, reference.graph, "single-member gzip diverged");
    assert_eq!(via_bgzf.graph, reference.graph, "multi-member BGZF diverged");
    assert_eq!(scalar_gz.graph, reference.graph, "forced-scalar gzip diverged");
    for p in [plain, gz, bgzf] {
        std::fs::remove_file(p).unwrap();
    }
}

/// One partition's identity: its `(core, left, right)` records as a
/// sorted multiset (order inside a partition is scheduling-dependent;
/// content is not).
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
                .map(|v| (v.bases().collect::<PackedSeq>().to_string(), v.left_ext(), v.right_ext()))
                .collect();
            records.sort();
            records
        })
        .collect()
}

/// The FASTQ ingest is one body: whatever the roster, the kernel selection
/// or the framing, `run_fastq_streaming` and `run_fused_fastq` cut the file
/// with `msp::FastqChunks` and must leave the graph and every partition's
/// record multiset of (a) the same corpus parsed by the streaming
/// `dna::FastqReader` — the reference parser — and built through `run`.
#[test]
fn fastq_ingest_matches_the_streaming_parser() {
    const BATCH: usize = 2048;
    let _guard = dna::simd::override_guard();
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
    dna::simd::set_force_scalar_override(Some(false));
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
    for scalar in [false, true] {
        dna::simd::set_force_scalar_override(Some(scalar));
        for roster in rosters {
            for (framing, path) in [("plain", &plain), ("gzip", &gz), ("bgzf", &bgzf)] {
                let cell = format!("{}, scalar={scalar}, {framing}", roster.0);
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
    }
    dna::simd::set_force_scalar_override(None);
    for p in [plain, gz, bgzf] {
        std::fs::remove_file(p).unwrap();
    }
}
