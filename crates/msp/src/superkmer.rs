use dna::{Kmer, PackedSeq};

use crate::{MinimizerCursor, MspError, Result};

/// Cuts reads into superkmers (Step 1's compute kernel): the validated
/// `(k, p)` pair plus the streaming scan over a per-worker
/// [`MinimizerCursor`].
///
/// A superkmer is a maximal run of adjacent k-mers from one read that
/// share a common minimizer (Definition 2 of the paper). The scan reports
/// each as `(first k-mer index, last k-mer index, minimizer)`; for a run
/// covering k-mer positions `i..=j` of read `S` the core is
/// `S[i, j+K−1]`, and ParaHash's *adjacency extensions* are `S[i−1]` and
/// `S[j+K]` where they exist. [`encode_superkmer_slice`](crate::encode_superkmer_slice)
/// writes exactly that as one partition record, on whichever strand
/// makes it canonical.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::SuperkmerScanner;
///
/// # fn main() -> msp::Result<()> {
/// let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGT");
/// let scanner = SuperkmerScanner::new(5, 3)?;
/// let mut runs = Vec::new();
/// scanner.scan_runs_into(&read, &mut scanner.cursor(), &mut runs);
/// // Runs tile the read's k-mer positions: cores overlap by K−1 bases.
/// assert_eq!(runs.first().unwrap().0, 0);
/// assert_eq!(runs.last().unwrap().1, read.len() - 5);
/// for w in runs.windows(2) {
///     assert_eq!(w[0].1 + 1, w[1].0);
///     assert_ne!(w[0].2, w[1].2, "runs are maximal");
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SuperkmerScanner {
    k: usize,
    p: usize,
}

impl SuperkmerScanner {
    /// Creates a scanner for k-mers of length `k` and minimizers of
    /// length `p`.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::InvalidParams`] unless `1 ≤ p ≤ k ≤ MAX_K`.
    pub fn new(k: usize, p: usize) -> Result<SuperkmerScanner> {
        if p < 1 || p > k || k > dna::MAX_K {
            return Err(MspError::InvalidParams { k, p });
        }
        Ok(SuperkmerScanner { k, p })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimizer length.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Creates a reusable streaming cursor for this scanner's parameters
    /// (one per worker thread; see [`MinimizerCursor::scan_runs`]).
    pub fn cursor(&self) -> MinimizerCursor {
        MinimizerCursor::new(self.k, self.p).expect("scanner params already validated")
    }

    /// Streaming scan: invokes `emit(first, last, minimizer)` per maximal
    /// equal-minimizer run, with zero heap allocation per read (the
    /// `cursor` carries all reusable state).
    pub fn scan_runs<F: FnMut(usize, usize, Kmer)>(
        &self,
        read: &PackedSeq,
        cursor: &mut MinimizerCursor,
        emit: F,
    ) {
        debug_assert_eq!(cursor.k(), self.k());
        debug_assert_eq!(cursor.p(), self.p());
        cursor.scan_runs(read, emit);
    }

    /// [`scan_runs`](Self::scan_runs) into a caller-owned buffer that is
    /// cleared first, so the run list's allocation is reused across reads.
    ///
    /// This is exactly what the paper's Step-1 GPU kernel computes
    /// ("computing superkmer ids and offsets in reads", §III-D): fixed-size
    /// output per run, no irregular memory movement. The movement —
    /// encoding the variable-length records — the paper leaves to the CPU.
    pub fn scan_runs_into(
        &self,
        read: &PackedSeq,
        cursor: &mut MinimizerCursor,
        out: &mut Vec<(usize, usize, Kmer)>,
    ) {
        out.clear();
        self.scan_runs(read, cursor, |first, last, m| out.push((first, last, m)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer_of_kmer;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes())
    }

    fn runs(s: &str, k: usize, p: usize) -> Vec<(usize, usize, Kmer)> {
        let sc = SuperkmerScanner::new(k, p).unwrap();
        let mut out = vec![(99, 99, "A".parse().unwrap())]; // must be cleared
        sc.scan_runs_into(&seq(s), &mut sc.cursor(), &mut out);
        out
    }

    #[test]
    fn runs_tile_the_read_and_share_the_defined_minimizer() {
        let text = "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT";
        let read = seq(text);
        for (k, p) in [(5, 3), (7, 4), (15, 11), (5, 5)] {
            let runs = runs(text, k, p);
            assert_eq!(runs[0].0, 0, "k={k} p={p}");
            assert_eq!(runs.last().unwrap().1, text.len() - k, "k={k} p={p}");
            for w in runs.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0, "runs must be contiguous (k={k} p={p})");
                assert_ne!(w[0].2, w[1].2, "runs must be maximal (k={k} p={p})");
            }
            for &(first, last, m) in &runs {
                for i in first..=last {
                    assert_eq!(minimizer_of_kmer(&read.kmer_at(i, k).unwrap(), p), m);
                }
            }
        }
    }

    #[test]
    fn single_kmer_read_is_one_run() {
        let runs = runs("GATTA", 5, 2);
        assert_eq!(runs.len(), 1);
        assert_eq!((runs[0].0, runs[0].1), (0, 0));
    }

    #[test]
    fn short_read_yields_nothing() {
        assert!(runs("ACG", 5, 3).is_empty());
    }

    #[test]
    fn homopolymer_read_is_one_run() {
        let runs = runs(&"A".repeat(30), 5, 3);
        assert_eq!(runs.len(), 1);
        assert_eq!((runs[0].0, runs[0].1), (0, 25));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(matches!(SuperkmerScanner::new(5, 0), Err(MspError::InvalidParams { .. })));
        assert!(matches!(SuperkmerScanner::new(5, 6), Err(MspError::InvalidParams { .. })));
        assert!(matches!(
            SuperkmerScanner::new(dna::MAX_K + 1, 3),
            Err(MspError::InvalidParams { .. })
        ));
        assert!(SuperkmerScanner::new(1, 1).is_ok());
    }
}
