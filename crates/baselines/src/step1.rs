//! The sort-merge baseline's own Step 1: an allocating, two-strand
//! minimizer scan that shares no code with `msp`'s streaming
//! `MinimizerCursor` (only the routing hash, so partition ids line up).
//!
//! It exists so that [`SortMergeBuilder`](crate::SortMergeBuilder) — the
//! oracle every `parabench` sample and the differential suites are held
//! to — cannot inherit a bug from the production scan it checks: reads
//! are cut by materialising both strands' windowed p-mer minima, grouping
//! equal neighbours, and copying each run out as an owned sequence.

use std::collections::VecDeque;

use dna::{Base, Kmer, PackedSeq};
use msp::PartitionRouter;

use crate::{BaselineError, Result};

/// A maximal run of adjacent k-mers sharing one minimizer (the paper's
/// Definition 2), copied out of its read, plus the read bases just
/// outside the run (the adjacency extensions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSuperkmer {
    /// The run's bases: `k − 1` more than it has k-mers.
    pub core: PackedSeq,
    /// The canonical minimizer every k-mer of the core shares.
    pub minimizer: Kmer,
    /// The read base immediately left of the core, if any.
    pub left_ext: Option<Base>,
    /// The read base immediately right of the core, if any.
    pub right_ext: Option<Base>,
}

/// Scans every read and groups its superkmers by
/// `hash(minimizer) mod partitions` — what production Step 1 writes as
/// encoded records, here as owned values in read order.
///
/// # Errors
///
/// Returns [`BaselineError::InvalidParams`] unless `1 ≤ p ≤ k ≤ MAX_K`,
/// and [`BaselineError::Msp`] for zero partitions.
pub fn reference_partition(
    reads: &[PackedSeq],
    k: usize,
    p: usize,
    partitions: usize,
) -> Result<Vec<Vec<OwnedSuperkmer>>> {
    if p == 0 || p > k || k > dna::MAX_K {
        return Err(BaselineError::InvalidParams(format!("k={k}, p={p}")));
    }
    let router = PartitionRouter::new(partitions)?;
    let mut parts = vec![Vec::new(); partitions];
    for read in reads {
        for (first, last, minimizer) in cut_runs(&minimizers(read, k, p)) {
            parts[router.route_minimizer(&minimizer)].push(OwnedSuperkmer {
                core: read.slice(first, last - first + k),
                minimizer,
                left_ext: first.checked_sub(1).map(|i| read.base(i)),
                right_ext: (last + k < read.len()).then(|| read.base(last + k)),
            });
        }
    }
    Ok(parts)
}

/// One canonical minimizer per k-mer position (empty if the read is
/// shorter than `k`): the forward strand's windowed minima against the
/// reverse-complement read's, position by position.
fn minimizers(read: &PackedSeq, k: usize, p: usize) -> Vec<Kmer> {
    if read.len() < k {
        return Vec::new();
    }
    let window = k - p + 1;
    let fwd = window_minima(read, p, window);
    let rc = window_minima(&read.revcomp(), p, window);
    let n = read.len() - k + 1;
    debug_assert_eq!((fwd.len(), rc.len()), (n, n));
    (0..n).map(|i| fwd[i].min(rc[n - 1 - i])).collect()
}

/// Minimum p-mer in every length-`window` window of p-mer positions, via
/// a monotone deque: `len − p − window + 2` values.
fn window_minima(seq: &PackedSeq, p: usize, window: usize) -> Vec<Kmer> {
    let n_pmers = seq.len() + 1 - p;
    let mut out = Vec::with_capacity(n_pmers + 1 - window);
    // Deque of (position, pmer); values increase from front to back.
    let mut deque: VecDeque<(usize, Kmer)> = VecDeque::new();
    for (i, pmer) in seq.kmers(p).enumerate() {
        while deque.back().is_some_and(|&(_, back)| back > pmer) {
            deque.pop_back();
        }
        deque.push_back((i, pmer));
        // Window covering p-mer positions [i + 1 − window, i].
        if i + 1 >= window {
            let start = i + 1 - window;
            while deque.front().is_some_and(|&(pos, _)| pos < start) {
                deque.pop_front();
            }
            out.push(deque.front().expect("deque non-empty").1);
        }
    }
    out
}

/// Groups a per-kmer minimizer sequence into maximal equal runs
/// `(first kmer index, last kmer index, minimizer)`.
fn cut_runs(mins: &[Kmer]) -> Vec<(usize, usize, Kmer)> {
    let mut out = Vec::new();
    let mut run_start = 0usize;
    for pos in 1..=mins.len() {
        if pos == mins.len() || mins[pos] != mins[run_start] {
            out.push((run_start, pos - 1, mins[run_start]));
            run_start = pos;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp::minimizer_of_kmer;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes())
    }

    #[test]
    fn deque_scan_matches_the_brute_force_definition() {
        for r in [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCA",
            "AAAAAAAAAAAAAAAAAAAA",
            "TGATGGATGATGGATGGTAGCAT",
            "ACGT",
        ] {
            let read = seq(r);
            for (k, p) in [(4, 1), (4, 4), (5, 3), (7, 4), (15, 11)] {
                let want: Vec<Kmer> = read.kmers(k).map(|km| minimizer_of_kmer(&km, p)).collect();
                assert_eq!(minimizers(&read, k, p), want, "read={r} k={k} p={p}");
            }
        }
    }

    #[test]
    fn superkmers_tile_the_read_with_its_neighbours_as_extensions() {
        let text = "TGATGGATGAACCAGTTTGAGGCATTAGGC";
        let parts = reference_partition(&[seq(text)], 5, 3, 1).unwrap();
        assert!(parts[0].len() >= 2, "test needs a read that fragments");
        let mut offset = 0usize;
        for sk in &parts[0] {
            let end = offset + sk.core.len();
            assert_eq!(sk.core.to_string(), text[offset..end]);
            assert_eq!(sk.left_ext, offset.checked_sub(1).map(|i| Base::from_ascii(text.as_bytes()[i])));
            assert_eq!(sk.right_ext, text.as_bytes().get(end).map(|&b| Base::from_ascii(b)));
            for km in sk.core.kmers(5) {
                assert_eq!(minimizer_of_kmer(&km, 3), sk.minimizer);
            }
            offset = end - 4; // cores overlap by k − 1
        }
        assert_eq!(offset + 4, text.len());
        for w in parts[0].windows(2) {
            assert_ne!(w[0].minimizer, w[1].minimizer, "runs must be maximal");
        }
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let reads = [seq("ACGTACGT")];
        assert!(matches!(reference_partition(&reads, 5, 6, 4), Err(BaselineError::InvalidParams(_))));
        assert!(matches!(reference_partition(&reads, 5, 0, 4), Err(BaselineError::InvalidParams(_))));
        assert!(matches!(reference_partition(&reads, 5, 3, 0), Err(BaselineError::Msp(_))));
        assert!(reference_partition(&reads, 9, 3, 2).unwrap().iter().all(Vec::is_empty));
    }
}
