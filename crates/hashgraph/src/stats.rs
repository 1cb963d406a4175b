//! Assembly-level statistics over a set of unitigs/contigs: the N50-style
//! numbers every assembler reports and that downstream users of the
//! constructed graph ask for first.

use crate::Unitig;

/// Length statistics of a contig set.
///
/// # Examples
///
/// ```
/// use hashgraph::AssemblyStats;
///
/// let s = AssemblyStats::from_lengths(&[100, 50, 30, 20]);
/// assert_eq!(s.contigs, 4);
/// assert_eq!(s.total_bp, 200);
/// assert_eq!(s.longest, 100);
/// assert_eq!(s.n50, 100); // the 100 bp contig alone covers >= half
/// assert_eq!(s.n90, 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AssemblyStats {
    /// Number of contigs.
    pub contigs: usize,
    /// Total assembled base pairs.
    pub total_bp: u64,
    /// Longest contig length.
    pub longest: usize,
    /// Shortest contig length.
    pub shortest: usize,
    /// N50: the length `L` such that contigs of length ≥ L cover at least
    /// half of `total_bp`.
    pub n50: usize,
    /// N90: as N50 at the 90 % mark.
    pub n90: usize,
}

impl AssemblyStats {
    /// Computes statistics from raw contig lengths. Returns the zero
    /// stats for an empty set.
    pub fn from_lengths(lengths: &[usize]) -> AssemblyStats {
        if lengths.is_empty() {
            return AssemblyStats::default();
        }
        let mut sorted: Vec<usize> = lengths.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total_bp: u64 = sorted.iter().map(|&l| l as u64).sum();
        let nx = |fraction: f64| -> usize {
            let target = (total_bp as f64 * fraction).ceil() as u64;
            let mut acc = 0u64;
            for &l in &sorted {
                acc += l as u64;
                if acc >= target {
                    return l;
                }
            }
            *sorted.last().expect("non-empty")
        };
        AssemblyStats {
            contigs: sorted.len(),
            total_bp,
            longest: sorted[0],
            shortest: *sorted.last().expect("non-empty"),
            n50: nx(0.5),
            n90: nx(0.9),
        }
    }

    /// Computes statistics from unitigs.
    pub fn of(unitigs: &[Unitig]) -> AssemblyStats {
        let lengths: Vec<usize> = unitigs.iter().map(Unitig::len).collect();
        AssemblyStats::from_lengths(&lengths)
    }

    /// One-line report.
    pub fn summary(&self) -> String {
        format!(
            "{} contigs, {} bp, longest {} bp, N50 {} bp, N90 {} bp",
            self.contigs, self.total_bp, self.longest, self.n50, self.n90
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_all_zero() {
        let s = AssemblyStats::from_lengths(&[]);
        assert_eq!(s, AssemblyStats::default());
        assert_eq!(AssemblyStats::of(&[]), AssemblyStats::default());
    }

    #[test]
    fn single_contig() {
        let s = AssemblyStats::from_lengths(&[42]);
        assert_eq!(s.contigs, 1);
        assert_eq!(s.n50, 42);
        assert_eq!(s.n90, 42);
        assert_eq!(s.longest, 42);
        assert_eq!(s.shortest, 42);
    }

    #[test]
    fn textbook_n50() {
        // Lengths 8,7,5,4,3,2,1 → total 30; cumulative 8,15 ≥ 15 → N50=7.
        let s = AssemblyStats::from_lengths(&[2, 8, 4, 7, 3, 5, 1]);
        assert_eq!(s.total_bp, 30);
        assert_eq!(s.n50, 7);
        // 90% target = 27; cumulative 8,15,20,24,27 → N90 = 3.
        assert_eq!(s.n90, 3);
        assert_eq!(s.shortest, 1);
    }

    #[test]
    fn uniform_lengths() {
        let s = AssemblyStats::from_lengths(&[10; 10]);
        assert_eq!(s.n50, 10);
        assert_eq!(s.n90, 10);
        assert_eq!(s.total_bp, 100);
    }

    #[test]
    fn of_unitigs_matches_lengths() {
        let reads = vec![dna::PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGG")];
        let g = crate::build::graph_of_reads(&reads, 9, 5, 1, 1);
        let us = crate::unitigs(&g);
        let s = AssemblyStats::of(&us);
        assert_eq!(s.contigs, us.len());
        assert_eq!(s.total_bp, us.iter().map(|u| u.len() as u64).sum::<u64>());
        assert!(s.summary().contains("N50"));
    }
}
