//! The graph a build returns is its committed subgraph files: with
//! `write_subgraphs(true)` each partition's run is a read-only mapping of
//! its `sub-*.dbg`, which nothing in the build reads, which outlives the
//! work directory, and which a later build into that directory leaves
//! alone.

mod common;

use std::path::Path;

use dna::Kmer;
use hashgraph::{DeBruijnGraph, VertexData};
use parahash::{ParaHash, RunOutcome};

/// The vertices, sorted: equal for equal graphs however they are held.
fn vertices(graph: &DeBruijnGraph) -> Vec<(Kmer, VertexData)> {
    let mut vertices: Vec<_> = graph.iter().collect();
    vertices.sort_unstable_by_key(|entry| entry.0);
    vertices
}

/// How many committed files under `dir` hold at least one vertex: the
/// runs a graph of that build has (an empty partition adds none).
fn nonempty_subgraphs(dir: &Path) -> usize {
    common::subgraph_bytes(dir)
        .values()
        .filter(|bytes| !hashgraph::decode_subgraph(bytes).unwrap().is_empty())
        .count()
}

/// Builds `common::corpus` into `dir` with persisted subgraphs.
fn build(dir: &Path, fused: bool) -> RunOutcome {
    let ph = ParaHash::new(common::builder(dir).build().unwrap()).unwrap();
    let rs = common::corpus();
    if fused { ph.run_fused(&rs) } else { ph.run(&rs) }.unwrap()
}

/// Without `write_subgraphs` the runs stay owned — in process, and when
/// worker processes commit files only as their result channel — and with
/// it a sharded build's parent maps what its workers committed.
#[test]
fn runs_are_mapped_exactly_when_the_subgraphs_are_kept() {
    let oracle = baselines::reference_graph(&common::corpus(), common::K);
    for (workers, keep) in [(0, false), (1, false), (1, true)] {
        let dir = common::fresh_dir(&format!("mapped-keep-{workers}-{keep}"));
        let config = common::builder(&dir).workers(workers).write_subgraphs(keep).build().unwrap();
        let graph = ParaHash::new(config).unwrap().run(&common::corpus()).unwrap().graph;
        assert_eq!(graph.approx_bytes() == 0, keep, "workers={workers} keep={keep}");
        #[cfg(target_os = "linux")]
        assert_eq!(common::mapped_subgraphs(&dir).is_empty(), !keep, "workers={workers}");
        assert_eq!(graph, oracle, "workers={workers} keep={keep}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every run of the returned graph is a mapping with no page resident
/// when the build returns — nothing in it read one, the k-mer total
/// included — and the graph's own memory counts none of them; then the
/// graph is the reference's, read through those mappings.
#[cfg(target_os = "linux")]
#[test]
fn a_built_graph_maps_its_committed_files_and_reads_none() {
    let oracle = baselines::reference_graph(&common::corpus(), common::K);
    for fused in [false, true] {
        let dir = common::fresh_dir(&format!("mapped-build-{fused}"));
        let outcome = build(&dir, fused);
        let mapped = common::mapped_subgraphs(&dir);
        assert_eq!(mapped.len(), nonempty_subgraphs(&dir), "fused={fused}: {mapped:?}");
        assert!(mapped.iter().all(|(_, rss)| *rss == 0), "fused={fused}: {mapped:?}");
        assert_eq!(outcome.graph.approx_bytes(), 0, "fused={fused}");
        assert_eq!(outcome.report.total_kmers, oracle.total_kmer_occurrences(), "fused={fused}");
        assert_eq!(outcome.graph, oracle, "fused={fused}");
        drop(outcome);
        assert!(common::mapped_subgraphs(&dir).is_empty(), "fused={fused}: dropped, unmapped");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A mapping outlives its file's unlink and a rename over it: the graph
/// reads the same after its work directory is removed, and after two
/// fresh builds into that directory commit new files over the old names.
#[test]
fn a_built_graph_outlives_its_work_dir_and_the_builds_after_it() {
    let dir = common::fresh_dir("mapped-outlive");
    let first = build(&dir, false).graph;
    let want = vertices(&first);
    assert!(!want.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(vertices(&first), want, "after the work dir is removed");
    let second = build(&dir, false).graph;
    let third = build(&dir, true).graph;
    for (graph, which) in [(&first, "first"), (&second, "second"), (&third, "third")] {
        assert_eq!(vertices(graph), want, "{which} build, after the third");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
