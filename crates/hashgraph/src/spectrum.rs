//! K-mer multiplicity spectrum analysis.
//!
//! The spectrum — how many vertices were seen exactly `m` times — is the
//! standard diagnostic behind the paper's Property 1: erroneous k-mers
//! pile up at multiplicity 1–2 while genuine ones form a peak near the
//! sequencing coverage. This module computes the spectrum and derives the
//! coverage estimate and an error-filter threshold from it, which is what
//! a downstream assembler does right after construction.

use crate::DeBruijnGraph;

/// The multiplicity spectrum of a De Bruijn graph.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use hashgraph::{
///     build_subgraph_with, ConcurrentDbgTable, DeBruijnGraph, Spectrum, VertexTable,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reads: Vec<PackedSeq> = (0..4).map(|_| PackedSeq::from_ascii(b"ACGTTGCATGGAC")).collect();
/// let records = msp::partition_in_memory(&reads, 7, 4, 1)?.remove(0);
/// let slices = msp::PartitionSlices::index(&records, 7, 4)?;
/// let table = ConcurrentDbgTable::new(2 * slices.total_kmers(), 7);
/// build_subgraph_with(&table, &slices, 1)?;
/// let mut g = DeBruijnGraph::new(7);
/// g.absorb(table.snapshot());
/// let spectrum = Spectrum::of(&g);
/// // Every vertex was seen exactly 4 times (4 identical reads).
/// assert_eq!(spectrum.vertices_with_multiplicity(4), 7);
/// assert_eq!(spectrum.coverage_peak(), Some(4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spectrum {
    /// `histogram[m]` = number of distinct vertices with count `m`
    /// (`histogram[0]` is always 0; the last bucket aggregates overflow).
    histogram: Vec<u64>,
}

/// Highest multiplicity tracked exactly; larger counts fold into the last
/// bucket.
const MAX_TRACKED: usize = 1024;

impl Spectrum {
    /// Computes the spectrum of `graph`.
    pub fn of(graph: &DeBruijnGraph) -> Spectrum {
        let mut histogram = vec![0u64; 2];
        for (_, data) in graph.iter() {
            let m = (data.count as usize).min(MAX_TRACKED);
            if m >= histogram.len() {
                histogram.resize(m + 1, 0);
            }
            histogram[m] += 1;
        }
        Spectrum { histogram }
    }

    /// Number of distinct vertices seen exactly `multiplicity` times
    /// (values above the tracked maximum are folded together).
    pub fn vertices_with_multiplicity(&self, multiplicity: u32) -> u64 {
        let m = (multiplicity as usize).min(MAX_TRACKED);
        self.histogram.get(m).copied().unwrap_or(0)
    }

    /// The raw histogram (index = multiplicity).
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Total distinct vertices.
    pub fn distinct(&self) -> u64 {
        self.histogram.iter().sum()
    }

    /// Total k-mer occurrences represented.
    pub fn total_occurrences(&self) -> u64 {
        self.histogram.iter().enumerate().map(|(m, &n)| m as u64 * n).sum()
    }

    /// The multiplicity of the *coverage peak*: the most common
    /// multiplicity above the error valley. Looks for the first local
    /// minimum after multiplicity 1, then the maximum beyond it; `None`
    /// for an empty spectrum or one with no structure (monotone decay).
    pub fn coverage_peak(&self) -> Option<u32> {
        let h = &self.histogram;
        if h.len() <= 1 || self.distinct() == 0 {
            return None;
        }
        // Find the error valley: first index (>= 2) where counts stop
        // falling.
        let mut valley = None;
        for m in 2..h.len() {
            if h[m] >= h[m - 1] {
                valley = Some(m);
                break;
            }
        }
        match valley {
            None => {
                // Monotone decay: if everything sits at one multiplicity
                // (error-free uniform coverage), that is the peak.
                let nonzero: Vec<usize> =
                    (1..h.len()).filter(|&m| h[m] > 0).collect();
                if nonzero.len() == 1 {
                    Some(nonzero[0] as u32)
                } else {
                    None
                }
            }
            Some(v) => (v..h.len()).max_by_key(|&m| h[m]).map(|m| m as u32),
        }
    }

    /// A multiplicity threshold separating errors from genuine vertices:
    /// the valley floor between the error spike and the coverage peak
    /// (the `min_count` to feed [`DeBruijnGraph::filter_min_count`]).
    /// `None` when no coverage peak exists.
    pub fn error_threshold(&self) -> Option<u32> {
        let peak = self.coverage_peak()? as usize;
        let h = &self.histogram;
        (1..=peak).min_by_key(|&m| h.get(m).copied().unwrap_or(0)).map(|m| m as u32)
    }

    /// Fraction of distinct vertices below the error threshold — an
    /// empirical estimate of how error-dominated the graph is (Property 1
    /// predicts this grows with λ·L·N / Ge).
    pub fn error_fraction(&self) -> f64 {
        let distinct = self.distinct();
        if distinct == 0 {
            return 0.0;
        }
        let Some(threshold) = self.error_threshold() else {
            return 0.0;
        };
        let errors: u64 = self.histogram.iter().take(threshold as usize).sum();
        errors as f64 / distinct as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexData;
    use dna::{Kmer, PackedSeq};

    fn graph_with_counts(counts: &[(&str, u32)]) -> DeBruijnGraph {
        let mut g = DeBruijnGraph::new(5);
        for (s, c) in counts {
            let kmer: Kmer = s.parse().unwrap();
            g.merge_vertex(kmer.canonical().0, VertexData { count: *c, edges: [0; 8] });
        }
        g
    }

    #[test]
    fn empty_graph_spectrum() {
        let s = Spectrum::of(&DeBruijnGraph::new(5));
        assert_eq!(s.distinct(), 0);
        assert_eq!(s.total_occurrences(), 0);
        assert_eq!(s.coverage_peak(), None);
        assert_eq!(s.error_threshold(), None);
        assert_eq!(s.error_fraction(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_exact() {
        let g = graph_with_counts(&[("AAACA", 1), ("AACCA", 1), ("ACCCA", 30), ("CCACA", 30), ("CACAA", 30)]);
        let s = Spectrum::of(&g);
        assert_eq!(s.vertices_with_multiplicity(1), 2);
        assert_eq!(s.vertices_with_multiplicity(30), 3);
        assert_eq!(s.vertices_with_multiplicity(2), 0);
        assert_eq!(s.distinct(), 5);
        assert_eq!(s.total_occurrences(), 2 + 90);
    }

    #[test]
    fn bimodal_spectrum_finds_peak_and_threshold() {
        // 100 error vertices at 1, a valley, genuine peak at 20.
        let mut g = DeBruijnGraph::new(5);
        let mut insert = |count: u32, n: usize, tag: usize| {
            for i in 0..n {
                // Unique kmers via base-4 digits of the index.
                let mut bases = Vec::new();
                let mut v = i * 7 + tag * 1000;
                for _ in 0..5 {
                    bases.push(dna::Base::from_code((v % 4) as u8));
                    v /= 4;
                }
                let kmer = Kmer::from_bases(5, bases).unwrap().canonical().0;
                g.merge_vertex(kmer, VertexData { count, edges: [0; 8] });
            }
        };
        insert(1, 60, 0);
        insert(2, 10, 1);
        insert(19, 20, 2);
        insert(20, 35, 3);
        insert(21, 18, 4);
        let s = Spectrum::of(&g);
        assert_eq!(s.coverage_peak(), Some(20));
        let threshold = s.error_threshold().unwrap();
        assert!((3..=18).contains(&threshold), "threshold {threshold}");
        assert!(s.error_fraction() > 0.3);
    }

    #[test]
    fn uniform_coverage_without_errors() {
        let reads: Vec<PackedSeq> =
            (0..8).map(|_| PackedSeq::from_ascii(b"ACGTTGCATGGACCAGT")).collect();
        let g = crate::build::graph_of_reads(&reads, 7, 4, 1, 1);
        let s = Spectrum::of(&g);
        assert_eq!(s.coverage_peak(), Some(8));
        assert_eq!(s.total_occurrences(), g.total_kmer_occurrences());
    }

    #[test]
    fn overflow_counts_fold_into_last_bucket() {
        let g = graph_with_counts(&[("AAACA", 5000)]);
        let s = Spectrum::of(&g);
        assert_eq!(s.vertices_with_multiplicity(5000), 1);
        assert_eq!(s.vertices_with_multiplicity(2000), 1, "folded bucket");
        assert_eq!(s.distinct(), 1);
    }
}
