//! Error-removal transformations on a finished De Bruijn graph: tip
//! clipping and bubble popping — the standard cleanup an assembler
//! applies between construction (this paper's contribution) and contig
//! extraction. Both operate on the bi-directed graph through the unitig
//! machinery.

use dna::{Kmer, Orientation};

use crate::unitig::{live_predecessors, live_successors};
use crate::{unitigs_with, DeBruijnGraph};

/// A compacted path with its endpoint context, the unit both cleaners
/// reason about.
struct Path {
    vertices: Vec<Kmer>,
    len_bp: usize,
    mean_count: f64,
    /// Live neighbours just before the path's first vertex.
    before: Vec<(Kmer, Orientation)>,
    /// Live neighbours just after the path's last vertex.
    after: Vec<(Kmer, Orientation)>,
}

/// Re-derives each unitig's vertex list and endpoint context.
fn paths(graph: &DeBruijnGraph, min_edge_weight: u32) -> Vec<Path> {
    let k = graph.k();
    unitigs_with(graph, min_edge_weight)
        .into_iter()
        .map(|u| {
            let seq = u.seq();
            let first = seq.kmer_at(0, k).expect("unitig holds >= 1 kmer");
            let last = seq.kmer_at(seq.len() - k, k).expect("unitig holds >= 1 kmer");
            let (first_c, first_o) = first.canonical();
            let (last_c, last_o) = last.canonical();
            let vertices = seq.kmers(k).map(|km| km.canonical().0).collect();
            Path {
                vertices,
                len_bp: u.len(),
                mean_count: u.mean_count(),
                before: live_predecessors(graph, &first_c, first_o, min_edge_weight),
                after: live_successors(graph, &last_c, last_o, min_edge_weight),
            }
        })
        .collect()
}

fn remove_path(graph: &mut DeBruijnGraph, path: &Path) -> usize {
    let mut removed = 0;
    for v in &path.vertices {
        if graph.remove_vertex(v) {
            removed += 1;
        }
    }
    removed
}

/// Clips *tips*: short dead-end unitigs hanging off the graph, the
/// signature of sequencing errors near read ends. A unitig is a tip when
/// it is at most `max_len` bases long, dead on at least one end, and
/// attached to the rest of the graph on the other (so isolated short
/// contigs — which may be real, small sequence — are left alone).
///
/// Returns the number of vertices removed. Iterates to a fixed point:
/// clipping one tip can expose another.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use hashgraph::{
///     build_subgraph_with, clip_tips, unitigs, ConcurrentDbgTable, DeBruijnGraph, VertexTable,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A clean path plus a short erroneous dead-end branch.
/// let reads = vec![
///     PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGG"),
///     PackedSeq::from_ascii(b"ACGTTGCATGGACCAATG"), // diverges, then stops
/// ];
/// let records = msp::partition_in_memory(&reads, 9, 4, 1)?.remove(0);
/// let slices = msp::PartitionSlices::index(&records, 9, 4)?;
/// let table = ConcurrentDbgTable::new(2 * slices.total_kmers(), 9);
/// build_subgraph_with(&table, &slices, 1)?;
/// let mut g = DeBruijnGraph::new(9);
/// g.absorb(table.snapshot());
/// assert!(unitigs(&g).len() > 1);
/// let removed = clip_tips(&mut g, 2 * 9);
/// assert!(removed > 0);
/// // The main path compacts back into one unitig.
/// assert_eq!(unitigs(&g).len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn clip_tips(graph: &mut DeBruijnGraph, max_len: usize) -> usize {
    let mut total = 0;
    loop {
        let mut candidates: Vec<Path> = paths(graph, 1)
            .into_iter()
            .filter(|p| {
                // Tip: short, dead on exactly one side, attached on the
                // other.
                p.len_bp <= max_len && (p.before.is_empty() != p.after.is_empty())
            })
            .collect();
        if candidates.is_empty() {
            return total;
        }
        // Shortest first, and at most one clip per anchor vertex per
        // round: when an error tip and the genuine path start share a
        // branch vertex, the (shorter) error tip goes first and the
        // genuine segment merges back into a long unitig before it can be
        // misjudged.
        candidates.sort_by_key(|p| p.len_bp);
        let mut touched: std::collections::HashSet<Kmer> = std::collections::HashSet::new();
        let mut removed_this_round = 0;
        for path in &candidates {
            let anchors: Vec<Kmer> = path
                .before
                .iter()
                .chain(path.after.iter())
                .map(|(kmer, _)| *kmer)
                .collect();
            // Skip anything adjacent to an earlier clip this round — the
            // neighbourhood changed, so re-evaluate after re-compaction.
            if anchors.iter().chain(path.vertices.iter()).any(|v| touched.contains(v)) {
                continue;
            }
            touched.extend(anchors);
            touched.extend(path.vertices.iter().copied());
            removed_this_round += remove_path(graph, path);
        }
        total += removed_this_round;
        if removed_this_round == 0 {
            return total;
        }
    }
}

/// Pops simple *bubbles*: pairs of short parallel unitigs that leave and
/// rejoin the graph at the same anchor vertices — the signature of a
/// substitution error (or SNP) in the middle of reads. Of each parallel
/// group the highest-mean-coverage path survives; the rest are removed.
///
/// `max_len` bounds the branch length considered (errors produce branches
/// of at most `k` vertices ≈ `2k − 1` bases).
///
/// Returns the number of vertices removed.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use hashgraph::{
///     build_subgraph_with, pop_bubbles, unitigs, ConcurrentDbgTable, DeBruijnGraph, VertexTable,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let clean = b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCC";
/// let mut snp = *clean;
/// snp[17] = b'C'; // one substitution mid-read
/// let mut reads: Vec<PackedSeq> = (0..5)
///     .map(|_| PackedSeq::from_ascii(clean))
///     .collect();
/// reads.push(PackedSeq::from_ascii(&snp));
/// let records = msp::partition_in_memory(&reads, 9, 4, 1)?.remove(0);
/// let slices = msp::PartitionSlices::index(&records, 9, 4)?;
/// let table = ConcurrentDbgTable::new(2 * slices.total_kmers(), 9);
/// build_subgraph_with(&table, &slices, 1)?;
/// let mut g = DeBruijnGraph::new(9);
/// g.absorb(table.snapshot());
/// assert!(unitigs(&g).len() > 1, "the SNP opens a bubble");
/// pop_bubbles(&mut g, 3 * 9);
/// assert_eq!(unitigs(&g).len(), 1, "popping restores one contig");
/// # Ok(())
/// # }
/// ```
pub fn pop_bubbles(graph: &mut DeBruijnGraph, max_len: usize) -> usize {
    let mut total = 0;
    loop {
        let candidate_paths = paths(graph, 1);
        // Group short branches by their unordered anchor pair.
        let mut groups: std::collections::HashMap<(Kmer, Kmer), Vec<usize>> =
            std::collections::HashMap::new();
        for (i, p) in candidate_paths.iter().enumerate() {
            if p.len_bp > max_len || p.before.len() != 1 || p.after.len() != 1 {
                continue;
            }
            let a = p.before[0].0;
            let b = p.after[0].0;
            let key = if a <= b { (a, b) } else { (b, a) };
            groups.entry(key).or_default().push(i);
        }
        let mut removed_this_round = 0;
        for ((a, b), members) in groups {
            if members.len() < 2 {
                continue;
            }
            // Anchors must still exist (a previous pop may have cascaded).
            if graph.get(&a).is_none() || graph.get(&b).is_none() {
                continue;
            }
            // Keep the best-covered branch, drop the rest.
            let keep = members
                .iter()
                .copied()
                .max_by(|&x, &y| {
                    candidate_paths[x]
                        .mean_count
                        .total_cmp(&candidate_paths[y].mean_count)
                })
                .expect("group non-empty");
            for &i in &members {
                if i != keep {
                    removed_this_round += remove_path(graph, &candidate_paths[i]);
                }
            }
        }
        total += removed_this_round;
        if removed_this_round == 0 {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unitigs;
    use dna::PackedSeq;

    fn graph_of(reads: &[&[u8]], k: usize) -> DeBruijnGraph {
        let seqs: Vec<PackedSeq> = reads.iter().map(|s| PackedSeq::from_ascii(s)).collect();
        crate::build::graph_of_reads(&seqs, k, (k / 2).max(1), 4, 1)
    }

    #[test]
    fn clean_linear_graph_is_untouched() {
        let mut g = graph_of(&[b"ACGTTGCATGGACCAGTTACGGATCAGG"], 9);
        let before = g.distinct_vertices();
        assert_eq!(clip_tips(&mut g, 18), 0);
        assert_eq!(pop_bubbles(&mut g, 27), 0);
        assert_eq!(g.distinct_vertices(), before);
    }

    #[test]
    fn tip_is_clipped_but_long_branch_survives() {
        let main: &[u8] = b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCC";
        let tip: &[u8] = b"ACGTTGCATGGACCAATG"; // short divergence
        let mut g = graph_of(&[main, tip], 9);
        let removed = clip_tips(&mut g, 18);
        assert!(removed > 0);
        let us = unitigs(&g);
        assert_eq!(us.len(), 1, "main path must re-compact: {}", us.len());
        // Every k-mer of the main read survives.
        let seq = PackedSeq::from_ascii(main);
        for km in seq.kmers(9) {
            assert!(g.get(&km.canonical().0).is_some(), "main-path vertex lost");
        }
    }

    #[test]
    fn isolated_short_contig_is_not_a_tip() {
        let mut g = graph_of(&[b"ACGTTGCATGGAC"], 9); // 5 vertices, dead both ends
        assert_eq!(clip_tips(&mut g, 100), 0);
        assert_eq!(g.distinct_vertices(), 5);
    }

    #[test]
    fn bubble_pops_to_the_covered_branch() {
        let clean: &[u8] = b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCC";
        let mut snp = clean.to_vec();
        snp[17] = b'C';
        let reads: Vec<&[u8]> = vec![clean, clean, clean, &snp];
        let mut g = graph_of(&reads, 9);
        assert!(unitigs(&g).len() > 1);
        let removed = pop_bubbles(&mut g, 27);
        assert!(removed > 0);
        assert_eq!(unitigs(&g).len(), 1);
        // The surviving sequence is the triple-covered clean one.
        let seq = PackedSeq::from_ascii(clean);
        for km in seq.kmers(9) {
            assert!(g.get(&km.canonical().0).is_some(), "clean vertex popped");
        }
    }

    #[test]
    fn cascading_tips_are_clipped_to_fixed_point() {
        // Error near a read end: the erroneous suffix is a chain of tips.
        let main: &[u8] = b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCC";
        let err: &[u8] = b"ACGTTGCATGGACCAGTTACGGATCTGG"; // diverges near end
        let mut g = graph_of(&[main, main, err], 9);
        clip_tips(&mut g, 20);
        assert_eq!(unitigs(&g).len(), 1);
    }
}
