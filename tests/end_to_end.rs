//! Cross-crate integration: every construction strategy — ParaHash under
//! any device mix and I/O regime, both baselines, and the single-threaded
//! reference — must produce the identical De Bruijn graph.

use baselines::{reference_graph, DbgBuilder, SoapBuilder, SortMergeBuilder};
use datagen::DatasetProfile;
use hetsim::SimGpuConfig;
use parahash::{ParaHash, ParaHashConfig, ParaHashConfigBuilder};
use pipeline::IoMode;

const K: usize = 27;
const P: usize = 11;

fn data() -> datagen::ProfileData {
    DatasetProfile::human_chr14_mini().scale(0.05).materialize()
}

fn base_config(tag: &str) -> ParaHashConfigBuilder {
    let dir = std::env::temp_dir().join(format!("parahash-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ParaHashConfig::builder().k(K).p(P).partitions(16).work_dir(dir)
}

fn run(builder: ParaHashConfigBuilder, reads: &[dna::SeqRead]) -> parahash::RunOutcome {
    let ph = ParaHash::new(builder.build().expect("valid config")).expect("work dir");
    let outcome = ph.run(reads).expect("run succeeds");
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
    outcome
}

#[test]
fn parahash_matches_reference_on_profile_data() {
    let d = data();
    let reference = reference_graph(&d.reads, K);
    let outcome = run(base_config("cpu"), &d.reads);
    assert_eq!(outcome.graph, reference);
    assert_eq!(outcome.report.distinct_vertices, reference.distinct_vertices());
}

/// Step 1 stores each superkmer in one orientation, so a corpus and its
/// reverse-complemented copy hand Step 2 the same records: the same
/// subgraph files byte for byte, and as many k-mers replayed. The two
/// together replay no more k-mers than either alone: every superkmer
/// and its reverse complement combine into one record.
#[test]
fn a_corpus_and_its_reverse_complement_build_the_same_files() {
    let d = data();
    let flipped: Vec<dna::SeqRead> =
        d.reads.iter().map(|r| dna::SeqRead::new(r.id().to_owned(), r.seq().revcomp())).collect();
    let build = |tag: &str, reads: &[dna::SeqRead]| {
        let config =
            base_config(tag).cpu_threads(1).write_subgraphs(true).build().expect("valid config");
        let ph = ParaHash::new(config).expect("work dir");
        let report = ph.run(reads).expect("run succeeds").report;
        let sub = ph.config().work_dir().join("subgraphs");
        let mut files: Vec<(std::path::PathBuf, Vec<u8>)> = std::fs::read_dir(&sub)
            .expect("subgraphs/")
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path.strip_prefix(&sub).unwrap().to_path_buf(), bytes)
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(ph.config().work_dir());
        (files, report.step2.replayed_kmers, report.step2.contention.expect("contention"))
    };
    let (files, replayed, ops) = build("orient-fwd", &d.reads);
    let (flipped_files, flipped_replayed, flipped_ops) = build("orient-rev", &flipped);
    assert_eq!(files.len(), 16);
    assert!(files == flipped_files, "subgraph files differ");
    assert_eq!(replayed, flipped_replayed);
    assert_eq!((ops.insertions, ops.updates), (flipped_ops.insertions, flipped_ops.updates));
    assert!(replayed < ops.operations(), "copies combine: {replayed} of {}", ops.operations());
    let both: Vec<dna::SeqRead> = d.reads.iter().chain(&flipped).cloned().collect();
    let (_, both_replayed, both_ops) = build("orient-both", &both);
    assert_eq!(both_ops.operations(), 2 * ops.operations());
    assert_eq!(both_replayed, replayed, "twins combine");
}

#[test]
fn device_mixes_agree() {
    let d = data();
    let reference = reference_graph(&d.reads, K);
    let gpu = SimGpuConfig { sm_count: 2, warp_size: 8, ..Default::default() };

    let gpu_only = run(base_config("gpu").no_cpu().sim_gpu(gpu), &d.reads);
    assert_eq!(gpu_only.graph, reference, "gpu-only differs");

    let mixed = run(base_config("mixed").cpu_threads(2).sim_gpu(gpu).sim_gpu(gpu), &d.reads);
    assert_eq!(mixed.graph, reference, "cpu+2gpu differs");
}

#[test]
fn io_regimes_agree() {
    let d = DatasetProfile::human_chr14_mini().scale(0.02).materialize();
    let reference = reference_graph(&d.reads, K);
    let throttled = run(
        base_config("throttled").io_mode(IoMode::Throttled { bytes_per_sec: 300_000 }),
        &d.reads,
    );
    assert_eq!(throttled.graph, reference);
}

#[test]
fn baselines_agree_with_parahash() {
    let d = data();
    let reference = reference_graph(&d.reads, K);
    let (soap, _) = SoapBuilder::new(K, 3).build(&d.reads).expect("soap builds");
    assert_eq!(soap, reference, "soap differs");
    let (sm, _) = SortMergeBuilder::new(K, P, 16).expect("params").build(&d.reads).expect("sm builds");
    assert_eq!(sm, reference, "sort-merge differs");
}

#[test]
fn partition_count_does_not_change_the_graph() {
    let d = DatasetProfile::human_chr14_mini().scale(0.02).materialize();
    let reference = reference_graph(&d.reads, K);
    for partitions in [1usize, 3, 64, 200] {
        let outcome = run(base_config(&format!("np{partitions}")).partitions(partitions), &d.reads);
        assert_eq!(outcome.graph, reference, "partitions={partitions}");
    }
}

#[test]
fn minimizer_length_does_not_change_the_graph() {
    let d = DatasetProfile::human_chr14_mini().scale(0.02).materialize();
    let reference = reference_graph(&d.reads, K);
    for p in [1usize, 5, 11, 19, K] {
        let outcome = run(base_config(&format!("p{p}")).p(p), &d.reads);
        assert_eq!(outcome.graph, reference, "p={p}");
    }
}

#[test]
fn edge_weights_sum_matches_adjacent_pairs() {
    // Every adjacent k-mer pair in a read contributes exactly two edge
    // increments (one on each endpoint), so total edge multiplicity =
    // 2 × Σ (len − k) over reads.
    let d = DatasetProfile::tiny().materialize();
    let k = 13;
    let outcome = run(base_config("weights").k(k).p(7), &d.reads);
    let expected: u64 = d
        .reads
        .iter()
        .map(|r| (r.len().saturating_sub(k)) as u64 * 2)
        .sum();
    assert_eq!(outcome.graph.total_edge_multiplicity(), expected);
}

#[test]
fn report_accounts_for_all_work() {
    let d = data();
    let outcome = run(base_config("report"), &d.reads);
    let r = &outcome.report;
    // Step 1 work units are reads; Step 2 work units are distinct vertices.
    assert_eq!(r.step1.pipeline.total_work(), d.reads.len() as u64);
    assert_eq!(r.step2.pipeline.total_work(), r.distinct_vertices as u64);
    // Contention ledger covers every k-mer occurrence.
    let c = r.step2.contention.expect("step 2 has contention stats");
    assert_eq!(c.operations(), r.total_kmers);
    assert_eq!(c.insertions, r.distinct_vertices as u64);
    // The distinct:total ratio drives the ~80% lock reduction claim.
    assert!(c.lock_reduction() > 0.5, "lock reduction {:.2}", c.lock_reduction());
}

#[test]
fn multi_word_keys_work_end_to_end() {
    // The paper's whole point vs machine-word CAS tables: k-mers that
    // span several 64-bit words. k = 63 (2 words) and k = 101 (4 words)
    // exercise the multi-word compare/write paths everywhere.
    let d = DatasetProfile::human_chr14_mini().scale(0.01).materialize();
    for k in [63usize, 101] {
        let reference = reference_graph(&d.reads, k);
        assert!(reference.distinct_vertices() > 0, "k={k} must produce vertices");
        let outcome = run(base_config(&format!("bigk{k}")).k(k).p(21), &d.reads);
        assert_eq!(outcome.graph, reference, "k={k}");
        // Occurrence arithmetic with 101-bp reads: k=101 leaves exactly
        // one kmer per read.
        if k == 101 {
            assert_eq!(outcome.graph.total_kmer_occurrences(), d.reads.len() as u64);
        }
    }
}

#[test]
fn stored_graph_roundtrips_through_the_full_system() {
    let d = data();
    let outcome = run(base_config("store"), &d.reads);
    let path = std::env::temp_dir().join(format!("parahash-it-store-{}.dbg", std::process::id()));
    hashgraph::save_graph(&outcome.graph, &path).expect("save");
    let reloaded = hashgraph::load_graph(&path).expect("load");
    assert_eq!(reloaded, outcome.graph);

    // One vertex-run container: the graph of a one-partition build is
    // stored as the bytes of its `sub-00000.dbg`, and that file opens as
    // a graph.
    let cfg = base_config("store-one").partitions(1).write_subgraphs(true).build().unwrap();
    let ph = ParaHash::new(cfg).expect("work dir");
    let outcome = ph.run(&d.reads).expect("run succeeds");
    let sub = ph.config().work_dir().join("subgraphs").join("sub-00000.dbg");
    hashgraph::save_graph(&outcome.graph, &path).expect("save");
    assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&sub).unwrap());
    assert_eq!(hashgraph::load_graph(&sub).expect("load"), outcome.graph);
    std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    std::fs::remove_file(path).unwrap();
}

#[test]
fn spectrum_error_threshold_recovers_genomic_core() {
    // The spectrum-driven filter must keep roughly the genome's kmer
    // count and drop the error cloud.
    let d = DatasetProfile::human_chr14_mini().scale(0.1).materialize();
    let outcome = run(base_config("spectrum"), &d.reads);
    let spectrum = hashgraph::Spectrum::of(&outcome.graph);
    let threshold = spectrum.error_threshold().expect("bimodal spectrum expected");
    assert!(threshold > 1, "threshold {threshold}");
    let mut g = outcome.graph;
    g.filter_min_count(threshold);
    let genomic = d.profile.genome_size - K + 1;
    let kept = g.distinct_vertices();
    assert!(
        kept as f64 > genomic as f64 * 0.6 && (kept as f64) < genomic as f64 * 1.4,
        "filtered graph has {kept} vertices, genome has ~{genomic} kmers"
    );
}
