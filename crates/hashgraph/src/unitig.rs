//! Unitig compaction over a finished De Bruijn graph.
//!
//! This is the natural next step after construction (what bcalm2, the
//! paper's partition-based comparator, ultimately produces) and is
//! included as the "extension" deliverable: maximal non-branching paths
//! of the bi-directed graph are compacted into sequences.

use std::collections::HashSet;

use dna::{Kmer, Orientation, PackedSeq};

use crate::DeBruijnGraph;

/// A maximal non-branching path of the bi-directed De Bruijn graph,
/// compacted to a sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unitig {
    seq: PackedSeq,
    vertices: usize,
    min_count: u32,
    total_count: u64,
}

impl Unitig {
    /// The compacted sequence (`vertices + k − 1` bases).
    pub fn seq(&self) -> &PackedSeq {
        &self.seq
    }

    /// Number of vertices (k-mers) on the path.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// Minimum vertex occurrence count along the path (coverage floor).
    pub fn min_count(&self) -> u32 {
        self.min_count
    }

    /// Mean vertex occurrence count along the path.
    pub fn mean_count(&self) -> f64 {
        self.total_count as f64 / self.vertices as f64
    }

    /// Sequence length in base pairs.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the unitig is empty (never produced by [`unitigs`]).
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// Successors that actually lead somewhere: edges whose multiplicity
/// meets the threshold **and** whose target vertex is still in the graph.
/// Error filtering removes vertices but leaves their edges dangling on
/// the survivors (as the paper's output does); a unitig walk must ignore
/// those.
pub(crate) fn live_successors(
    graph: &DeBruijnGraph,
    kmer: &Kmer,
    orient: Orientation,
    min_weight: u32,
) -> Vec<(Kmer, Orientation)> {
    graph
        .successors(kmer, orient)
        .into_iter()
        .filter(|(next, _, mult)| *mult >= min_weight && graph.get(next).is_some())
        .map(|(next, o, _)| (next, o))
        .collect()
}

/// Mirror of [`live_successors`] for predecessors.
pub(crate) fn live_predecessors(
    graph: &DeBruijnGraph,
    kmer: &Kmer,
    orient: Orientation,
    min_weight: u32,
) -> Vec<(Kmer, Orientation)> {
    graph
        .predecessors(kmer, orient)
        .into_iter()
        .filter(|(prev, _, mult)| *mult >= min_weight && graph.get(prev).is_some())
        .map(|(prev, o, _)| (prev, o))
        .collect()
}

/// The unique next oriented vertex of `(kmer, orient)`, if the walk is
/// unambiguous in both directions: exactly one live successor, which has
/// exactly one live predecessor.
fn unique_next(
    graph: &DeBruijnGraph,
    kmer: &Kmer,
    orient: Orientation,
    min_weight: u32,
) -> Option<(Kmer, Orientation)> {
    let succ = live_successors(graph, kmer, orient, min_weight);
    if succ.len() != 1 {
        return None;
    }
    let (next, next_orient) = succ[0];
    // The join must be simple from the other side too.
    if live_predecessors(graph, &next, next_orient, min_weight).len() != 1 {
        return None;
    }
    Some((next, next_orient))
}

/// Compacts `graph` into its maximal unitigs.
///
/// Every vertex is assigned to exactly one unitig. Palindromic k-mers
/// (possible only for even `k`) and branching vertices terminate paths;
/// cycles are broken at an arbitrary vertex.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use hashgraph::{build_subgraph_with, unitigs, ConcurrentDbgTable, DeBruijnGraph, VertexTable};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // One linear sequence, full coverage, no errors ⇒ one unitig.
/// let genome = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGG");
/// let records = msp::partition_in_memory(&[genome.clone()], 9, 5, 1)?.remove(0);
/// let slices = msp::PartitionSlices::index(&records, 9, 5)?;
/// let table = ConcurrentDbgTable::new(2 * slices.total_kmers(), 9);
/// build_subgraph_with(&table, &slices, 1)?;
/// let mut g = DeBruijnGraph::new(9);
/// g.absorb(table.snapshot());
/// let us = unitigs(&g);
/// assert_eq!(us.len(), 1);
/// let s = us[0].seq();
/// assert!(*s == genome || *s == genome.revcomp());
/// # Ok(())
/// # }
/// ```
pub fn unitigs(graph: &DeBruijnGraph) -> Vec<Unitig> {
    unitigs_with(graph, 1)
}

/// [`unitigs`] with an edge-multiplicity threshold: edges observed fewer
/// than `min_edge_weight` times are treated as absent. After
/// [`DeBruijnGraph::filter_min_count`], a matching threshold suppresses
/// the spurious branches that lone sequencing errors leave between
/// genuine vertices.
pub fn unitigs_with(graph: &DeBruijnGraph, min_edge_weight: u32) -> Vec<Unitig> {
    let mut visited: HashSet<Kmer> = HashSet::with_capacity(graph.distinct_vertices());
    let mut out = Vec::new();
    // Deterministic start order helps test reproducibility.
    let mut starts: Vec<Kmer> = graph.iter().map(|(k, _)| *k).collect();
    starts.sort();
    for start in starts {
        if visited.contains(&start) {
            continue;
        }
        // Walk backward from (start, Forward) to the path's beginning.
        let mut path: Vec<(Kmer, Orientation)> = vec![(start, Orientation::Forward)];
        let mut seen_on_path: HashSet<Kmer> = [start].into();
        loop {
            let (cur, orient) = *path.last().expect("path non-empty");
            // Walking backward = following the unique predecessor whose
            // own successor set is simple.
            let pred = live_predecessors(graph, &cur, orient, min_edge_weight);
            if pred.len() != 1 {
                break;
            }
            let (prev, prev_orient) = pred[0];
            if live_successors(graph, &prev, prev_orient, min_edge_weight).len() != 1 {
                break;
            }
            if seen_on_path.contains(&prev) || visited.contains(&prev) {
                break; // cycle or an already-claimed vertex
            }
            seen_on_path.insert(prev);
            path.push((prev, prev_orient));
        }
        path.reverse(); // now front-to-back
        // Extend forward from the back.
        loop {
            let (cur, orient) = *path.last().expect("path non-empty");
            match unique_next(graph, &cur, orient, min_edge_weight) {
                Some((next, next_orient))
                    if !seen_on_path.contains(&next) && !visited.contains(&next) =>
                {
                    seen_on_path.insert(next);
                    path.push((next, next_orient));
                }
                _ => break,
            }
        }
        // Emit the path as a sequence.
        let k = graph.k();
        let mut seq = PackedSeq::with_capacity(path.len() + k - 1);
        let mut min_count = u32::MAX;
        let mut total_count = 0u64;
        for (i, (canon, orient)) in path.iter().enumerate() {
            let oriented = match orient {
                Orientation::Forward => *canon,
                Orientation::Reverse => canon.revcomp(),
            };
            if i == 0 {
                seq.extend(oriented.bases());
            } else {
                seq.push(oriented.last_base());
            }
            let count = graph.get(canon).expect("path vertices exist").count;
            min_count = min_count.min(count);
            total_count += count as u64;
            visited.insert(*canon);
        }
        out.push(Unitig { seq, vertices: path.len(), min_count, total_count });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(reads: &[&str], k: usize) -> DeBruijnGraph {
        let seqs: Vec<PackedSeq> = reads.iter().map(|s| PackedSeq::from_ascii(s.as_bytes())).collect();
        crate::build::graph_of_reads(&seqs, k, (k / 2).max(1), 4, 1)
    }

    #[test]
    fn linear_sequence_is_one_unitig() {
        let genome = "ACGTTGCATGGACCAGTTACGGATCAGG";
        let g = graph_of(&[genome], 9);
        let us = unitigs(&g);
        assert_eq!(us.len(), 1);
        let got = us[0].seq().to_string();
        let rc = PackedSeq::from_ascii(genome.as_bytes()).revcomp().to_string();
        assert!(got == genome || got == rc, "got {got}");
        assert_eq!(us[0].vertices(), genome.len() - 9 + 1);
        assert_eq!(us[0].min_count(), 1);
        assert_eq!(us[0].mean_count(), 1.0);
    }

    #[test]
    fn overlapping_reads_still_one_unitig() {
        // Tile a genome with overlapping reads; coverage varies but the
        // path is unbranched.
        let genome = "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCC";
        let reads: Vec<String> = (0..=genome.len() - 20).step_by(4).map(|i| genome[i..i + 20].to_string()).collect();
        let refs: Vec<&str> = reads.iter().map(String::as_str).collect();
        let g = graph_of(&refs, 9);
        let us = unitigs(&g);
        assert_eq!(us.len(), 1, "unbranched coverage must compact to one unitig");
        let got = us[0].seq().to_string();
        let rc = PackedSeq::from_ascii(genome.as_bytes()).revcomp().to_string();
        assert!(got == genome || got == rc);
        assert!(us[0].mean_count() > 1.0, "overlaps create coverage > 1");
    }

    #[test]
    fn branch_splits_unitigs() {
        // Two reads sharing a prefix then diverging: the shared part and
        // the two branches are separate unitigs.
        let g = graph_of(&["AAACCCGGGTTACGA", "AAACCCGGGTAGCTC"], 7);
        let us = unitigs(&g);
        assert!(us.len() >= 3, "expected >= 3 unitigs at a branch, got {}", us.len());
        // Every vertex appears in exactly one unitig.
        let total: usize = us.iter().map(Unitig::vertices).sum();
        assert_eq!(total, g.distinct_vertices());
    }

    #[test]
    fn cycle_is_compacted_without_looping_forever() {
        // A circular sequence: a cycle in the graph.
        let cyc = "ACGTTGCATGGAC";
        let doubled = format!("{cyc}{cyc}");
        let g = graph_of(&[&doubled], 7);
        let us = unitigs(&g);
        let total: usize = us.iter().map(Unitig::vertices).sum();
        assert_eq!(total, g.distinct_vertices(), "every vertex claimed exactly once");
    }

    #[test]
    fn empty_graph_has_no_unitigs() {
        let g = DeBruijnGraph::new(7);
        assert!(unitigs(&g).is_empty());
    }

    #[test]
    fn unitigs_cover_every_vertex_exactly_once() {
        let g = graph_of(
            &["ACGTTGCATGGACCAGTTACGG", "TTACGGATCAGGCATTAGCCAG", "GGCATTAGCCAGTACGGATCAC"],
            9,
        );
        let us = unitigs(&g);
        let total: usize = us.iter().map(Unitig::vertices).sum();
        assert_eq!(total, g.distinct_vertices());
        // Each unitig's kmers are in the graph.
        for u in &us {
            for kmer in u.seq().kmers(9) {
                assert!(g.get(&kmer.canonical().0).is_some());
            }
            assert_eq!(u.len(), u.vertices() + 9 - 1);
            assert!(!u.is_empty());
        }
    }
}
