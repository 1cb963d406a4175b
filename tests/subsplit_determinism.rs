//! Out-of-core Step 2: a run whose per-table memory budget forces
//! second-level sub-partitioning must produce a graph — and persisted
//! subgraph files — **byte-identical** to the unconstrained build's,
//! across thread counts (1/4/8), pathological skew, the single-minimizer
//! worst case (length-K reads) and fuzzed corpora. Also pins the failure
//! mode the feature replaces: with `out_of_core(false)` the same budget
//! aborts with [`ParaHashError::TableOverBudget`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dna::SeqRead;
use parahash::{ParaHash, ParaHashConfig, ParaHashError, RunJournal};
use proptest::prelude::*;

const K: usize = 15;
const P: usize = 5;
const PARTITIONS: usize = 6;

/// A budget small enough that every non-trivial partition's projected
/// Property-1 table busts it (98 bytes/slot × a few hundred slots is
/// already tens of kilobytes), yet large enough for sane fanouts.
const TIGHT_BUDGET: u64 = 16 << 10;

fn reads(n: usize, len: usize, seed: u64) -> Vec<SeqRead> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..n)
        .map(|i| {
            let seq: Vec<u8> = (0..len).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
            SeqRead::from_ascii(format!("r{i}"), &seq)
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-subsplit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, threads: usize, partitions: usize, budget: Option<u64>) -> ParaHashConfig {
    let mut b = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(partitions)
        .cpu_threads(threads)
        .write_subgraphs(true)
        .work_dir(dir.to_path_buf());
    if let Some(budget) = budget {
        b = b.table_memory_budget(budget);
    }
    b.build().expect("valid config")
}

fn subgraph_bytes(dir: &Path, partitions: usize) -> BTreeMap<usize, Vec<u8>> {
    (0..partitions)
        .map(|i| {
            let path = dir.join("subgraphs").join(format!("sub-{i:05}.dbg"));
            (i, std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        })
        .collect()
}

/// The tentpole guarantee: for each thread count, the forced-split run
/// equals the unsplit reference byte for byte, and the split actually
/// happened (the run journal records it).
#[test]
fn forced_split_is_byte_identical_to_unsplit_build() {
    let rs = reads(300, 80, 0x5eed);
    for threads in [1usize, 4, 8] {
        let ref_dir = fresh_dir(&format!("ref-{threads}"));
        let reference = ParaHash::new(config(&ref_dir, threads, PARTITIONS, None))
            .unwrap()
            .run(&rs)
            .unwrap();
        let ref_bytes = subgraph_bytes(&ref_dir, PARTITIONS);
        assert!(
            reference.report.step2.sub_splits.is_empty(),
            "unconstrained run must not split"
        );

        // Both handoffs: partitions on disk between the steps, or fused.
        for fused in [false, true] {
            let split_dir = fresh_dir(&format!("split-{threads}-{fused}"));
            let ph = ParaHash::new(config(&split_dir, threads, PARTITIONS, Some(TIGHT_BUDGET))).unwrap();
            let split = if fused { ph.run_fused(&rs) } else { ph.run(&rs) }.unwrap();

            assert_eq!(split.graph, reference.graph, "graph must survive the split ({threads} threads)");
            assert_eq!(
                subgraph_bytes(&split_dir, PARTITIONS),
                ref_bytes,
                "subgraph files must be byte-identical ({threads} threads)"
            );
            assert!(
                !split.report.step2.sub_splits.is_empty(),
                "tight budget must actually force sub-partitioning"
            );
            for &(i, fanout) in &split.report.step2.sub_splits {
                assert!(fanout >= 2, "partition {i} reports fanout {fanout}");
            }
            // The report is sorted by partition index regardless of the
            // nondeterministic build completion order.
            let indices: Vec<usize> = split.report.step2.sub_splits.iter().map(|&(i, _)| i).collect();
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "{indices:?}");

            // The split is durable state: the run journal records it.
            let state = RunJournal::replay(&split_dir).unwrap();
            let journaled: Vec<(usize, usize)> = {
                let mut v = state.sub_splits.clone();
                v.sort_unstable();
                v
            };
            assert_eq!(
                journaled, split.report.step2.sub_splits,
                "journal and report must agree (fused: {fused})"
            );

            let _ = std::fs::remove_dir_all(&split_dir);
        }
        let _ = std::fs::remove_dir_all(&ref_dir);
    }
}

/// The failure the feature replaces, and the completion it buys: with
/// out-of-core disabled the tight budget aborts with a diagnosable
/// error; flipping it back on (the default) completes the same run.
#[test]
fn over_budget_aborts_without_out_of_core_and_completes_with_it() {
    let rs = reads(300, 80, 0xabcd);
    let dir = fresh_dir("abort");
    let cfg = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .table_memory_budget(TIGHT_BUDGET)
        .out_of_core(false)
        .work_dir(&dir)
        .build()
        .unwrap();
    let err = ParaHash::new(cfg).unwrap().run(&rs).unwrap_err();
    match err {
        ParaHashError::TableOverBudget { projected_bytes, budget, .. } => {
            assert!(projected_bytes > budget, "{projected_bytes} must exceed {budget}");
            assert_eq!(budget, TIGHT_BUDGET);
        }
        other => panic!("expected TableOverBudget, got: {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Same budget, out-of-core left at its default (on): completes.
    let dir = fresh_dir("complete");
    let outcome =
        ParaHash::new(config(&dir, 2, PARTITIONS, Some(TIGHT_BUDGET))).unwrap().run(&rs).unwrap();
    assert!(!outcome.report.step2.sub_splits.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Worst-case skew by construction: one partition owns *everything*
/// (`partitions(1)`), so the whole input funnels through one projected
/// table that dwarfs the budget.
#[test]
fn single_partition_skew_splits_and_merges_identically() {
    let rs = reads(250, 60, 0xf00d);
    for threads in [1usize, 4, 8] {
        let ref_dir = fresh_dir(&format!("skewref-{threads}"));
        let reference =
            ParaHash::new(config(&ref_dir, threads, 1, None)).unwrap().run(&rs).unwrap();
        let ref_bytes = subgraph_bytes(&ref_dir, 1);

        let dir = fresh_dir(&format!("skew-{threads}"));
        let split =
            ParaHash::new(config(&dir, threads, 1, Some(TIGHT_BUDGET))).unwrap().run(&rs).unwrap();
        assert_eq!(split.graph, reference.graph, "skewed split graph ({threads} threads)");
        assert_eq!(subgraph_bytes(&dir, 1), ref_bytes, "skewed split bytes ({threads} threads)");
        assert_eq!(split.report.step2.sub_splits.len(), 1, "the lone partition must split");

        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Single-minimizer worst case: every read is exactly one k-mer, so
/// each superkmer carries one k-mer and a partition can be dominated by
/// one hot minimizer. The split must stay correct when sub-routing has
/// almost nothing to spread.
#[test]
fn reads_of_length_k_split_correctly() {
    let rs = reads(600, K, 0xbeef);
    let ref_dir = fresh_dir("kref");
    let reference = ParaHash::new(config(&ref_dir, 4, PARTITIONS, None)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir, PARTITIONS);

    let dir = fresh_dir("klen");
    // A budget of 1 byte forces the maximum clamped fanout everywhere.
    let split = ParaHash::new(config(&dir, 4, PARTITIONS, Some(1))).unwrap().run(&rs).unwrap();
    assert_eq!(split.graph, reference.graph);
    assert_eq!(subgraph_bytes(&dir, PARTITIONS), ref_bytes);

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: whatever the read set and however skewed the routing,
    /// a budget-constrained build equals the unconstrained one.
    #[test]
    fn random_skewed_inputs_split_byte_identically(
        seed in 0u64..u64::MAX,
        n in 40usize..160,
        len in (K..60),
        partitions in 1usize..4,
        thread_pick in 0usize..3,
    ) {
        let threads = [1usize, 4, 8][thread_pick];
        let rs = reads(n, len, seed);
        let tag = format!("prop-{seed:x}-{n}-{len}-{partitions}-{threads}");
        let ref_dir = fresh_dir(&format!("{tag}-ref"));
        let reference =
            ParaHash::new(config(&ref_dir, threads, partitions, None)).unwrap().run(&rs).unwrap();
        let ref_bytes = subgraph_bytes(&ref_dir, partitions);

        let dir = fresh_dir(&tag);
        let split = ParaHash::new(config(&dir, threads, partitions, Some(2 << 10)))
            .unwrap()
            .run(&rs)
            .unwrap();
        prop_assert_eq!(&split.graph, &reference.graph);
        prop_assert_eq!(subgraph_bytes(&dir, partitions), ref_bytes);

        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
