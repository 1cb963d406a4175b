use dna::{Base, Kmer, PackedSeq};

use crate::{MinimizerScanner, Result};

/// A maximal run of adjacent k-mers from one read that share a common
/// minimizer (Definition 2 of the paper), plus the two *adjacency
/// extension* bases ParaHash appends so edges crossing the superkmer
/// boundary survive partitioning.
///
/// For a run covering k-mer positions `i..=j` of read `S`, the core
/// sequence is `S[i, j+K−1]`, `left_ext` is `S[i−1]` (when `i > 0`) and
/// `right_ext` is `S[j+K]` (when it exists).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Superkmer {
    core: PackedSeq,
    minimizer: Kmer,
    k: usize,
    left_ext: Option<Base>,
    right_ext: Option<Base>,
}

impl Superkmer {
    /// Assembles a superkmer from parts. Intended for decoders and tests;
    /// scanning a read with [`SuperkmerScanner`] is the normal source.
    ///
    /// # Panics
    ///
    /// Panics if the core is shorter than `k`.
    pub fn new(
        core: PackedSeq,
        minimizer: Kmer,
        k: usize,
        left_ext: Option<Base>,
        right_ext: Option<Base>,
    ) -> Superkmer {
        assert!(core.len() >= k, "superkmer core of {} bases cannot hold a {k}-mer", core.len());
        Superkmer { core, minimizer, k, left_ext, right_ext }
    }

    /// The core sequence `S[i, j+K−1]` (without extensions).
    pub fn core(&self) -> &PackedSeq {
        &self.core
    }

    /// The shared minimizer of every k-mer in this superkmer.
    pub fn minimizer(&self) -> &Kmer {
        &self.minimizer
    }

    /// The k-mer length this superkmer was cut for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The read base immediately left of the core, if any.
    pub fn left_ext(&self) -> Option<Base> {
        self.left_ext
    }

    /// The read base immediately right of the core, if any.
    pub fn right_ext(&self) -> Option<Base> {
        self.right_ext
    }

    /// Number of k-mers the superkmer contains (`M = core_len − K + 1`).
    pub fn kmer_count(&self) -> usize {
        self.core.len() - self.k + 1
    }

    /// Iterates over the k-mers of the core, left to right.
    pub fn kmers(&self) -> impl Iterator<Item = Kmer> + '_ {
        self.core.kmers(self.k)
    }

    /// The core plus both extension bases, i.e. the exact read substring
    /// this superkmer witnessed. Every consecutive k-mer pair of *this*
    /// sequence is an observed De Bruijn edge.
    pub fn extended_seq(&self) -> PackedSeq {
        let mut out = PackedSeq::with_capacity(self.core.len() + 2);
        if let Some(b) = self.left_ext {
            out.push(b);
        }
        out.extend(self.core.bases());
        if let Some(b) = self.right_ext {
            out.push(b);
        }
        out
    }

    /// Space saving of the superkmer representation vs. storing its k-mers
    /// separately: `M·K` bases compacted into `M + K − 1 (+2)` bases.
    pub fn compaction_ratio(&self) -> f64 {
        let expanded = self.kmer_count() * self.k;
        let stored = self.core.len() + self.left_ext.map_or(0, |_| 1) + self.right_ext.map_or(0, |_| 1);
        expanded as f64 / stored as f64
    }
}

/// Cuts reads into superkmers (Step 1's compute kernel).
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::SuperkmerScanner;
///
/// # fn main() -> msp::Result<()> {
/// let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGT");
/// let superkmers = SuperkmerScanner::new(5, 3)?.scan(&read);
/// // Superkmers tile the read: cores overlap by K−1 bases.
/// let covered: usize = superkmers.iter().map(|s| s.kmer_count()).sum();
/// assert_eq!(covered, read.len() - 5 + 1);
/// // Each one knows the base beyond each end (except at read borders).
/// assert!(superkmers.first().unwrap().left_ext().is_none());
/// assert!(superkmers.last().unwrap().right_ext().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SuperkmerScanner {
    scanner: MinimizerScanner,
}

impl SuperkmerScanner {
    /// Creates a scanner for k-mers of length `k` and minimizers of
    /// length `p`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MspError::InvalidParams`] unless `1 ≤ p ≤ k ≤ MAX_K`.
    pub fn new(k: usize, p: usize) -> Result<SuperkmerScanner> {
        Ok(SuperkmerScanner { scanner: MinimizerScanner::new(k, p)? })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.scanner.k()
    }

    /// The minimizer length.
    pub fn p(&self) -> usize {
        self.scanner.p()
    }

    /// Scans one read into superkmers (empty if shorter than `k`).
    pub fn scan(&self, read: &PackedSeq) -> Vec<Superkmer> {
        self.superkmers_from_boundaries(read, &self.scan_boundaries(read))
    }

    /// Scans with the naive minimizer search; identical output to
    /// [`SuperkmerScanner::scan`], used by tests.
    pub fn scan_naive(&self, read: &PackedSeq) -> Vec<Superkmer> {
        let mins = self.scanner.scan_naive(read);
        self.superkmers_from_boundaries(read, &cut_runs(&mins))
    }

    /// Creates a reusable streaming cursor for this scanner's parameters
    /// (one per worker thread; see [`crate::MinimizerCursor::scan_runs`]).
    pub fn cursor(&self) -> crate::MinimizerCursor {
        self.scanner.cursor()
    }

    /// Streaming scan: invokes `emit(first, last, minimizer)` per maximal
    /// equal-minimizer run, identical runs to
    /// [`scan_boundaries`](Self::scan_boundaries) but with zero heap
    /// allocation per read (the `cursor` carries all reusable state).
    pub fn scan_runs<F: FnMut(usize, usize, Kmer)>(
        &self,
        read: &PackedSeq,
        cursor: &mut crate::MinimizerCursor,
        emit: F,
    ) {
        debug_assert_eq!(cursor.k(), self.k());
        debug_assert_eq!(cursor.p(), self.p());
        cursor.scan_runs(read, emit);
    }

    /// Streaming variant of [`scan_boundaries`](Self::scan_boundaries)
    /// that clears and fills a caller-owned buffer, so the boundary
    /// allocation is reused across reads (the SimGpu kernel path).
    pub fn scan_runs_into(
        &self,
        read: &PackedSeq,
        cursor: &mut crate::MinimizerCursor,
        out: &mut Vec<(usize, usize, Kmer)>,
    ) {
        out.clear();
        self.scan_runs(read, cursor, |first, last, m| out.push((first, last, m)));
    }

    /// The *offsets-only* half of the scan: the `(first kmer index,
    /// last kmer index, minimizer)` of each maximal equal-minimizer run.
    ///
    /// This is exactly what the paper's Step-1 GPU kernel computes
    /// ("computing superkmer ids and offsets in reads", §III-D): fixed-size
    /// output per run, no irregular memory movement. The movement —
    /// materialising the variable-length superkmers — is
    /// [`superkmers_from_boundaries`](Self::superkmers_from_boundaries),
    /// which the paper leaves to the CPU.
    pub fn scan_boundaries(&self, read: &PackedSeq) -> Vec<(usize, usize, Kmer)> {
        cut_runs(&self.scanner.scan(read))
    }

    /// Materialises the superkmers described by
    /// [`scan_boundaries`](Self::scan_boundaries) output.
    ///
    /// # Panics
    ///
    /// Panics if a boundary range does not fit the read.
    pub fn superkmers_from_boundaries(
        &self,
        read: &PackedSeq,
        boundaries: &[(usize, usize, Kmer)],
    ) -> Vec<Superkmer> {
        let k = self.scanner.k();
        boundaries
            .iter()
            .map(|&(first, last, minimizer)| {
                let core = read.slice(first, last - first + k);
                let left_ext = first.checked_sub(1).map(|i| read.base(i));
                let right_ext = (last + k < read.len()).then(|| read.base(last + k));
                Superkmer { core, minimizer, k, left_ext, right_ext }
            })
            .collect()
    }
}

/// Groups a per-kmer minimizer sequence into maximal equal runs.
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
    use dna::Kmer;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes())
    }

    fn scan(s: &str, k: usize, p: usize) -> Vec<Superkmer> {
        SuperkmerScanner::new(k, p).unwrap().scan(&seq(s))
    }

    #[test]
    fn superkmers_tile_the_read() {
        let read = "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT";
        for (k, p) in [(5, 3), (7, 4), (15, 11), (5, 5)] {
            let sks = scan(read, k, p);
            let total: usize = sks.iter().map(Superkmer::kmer_count).sum();
            assert_eq!(total, read.len() - k + 1, "k={k} p={p}");
            // Reassembling consecutive cores with K−1 overlap gives the read.
            let mut rebuilt = sks[0].core().to_string();
            for s in &sks[1..] {
                let c = s.core().to_string();
                rebuilt.push_str(&c[k - 1..]);
            }
            assert_eq!(rebuilt, read, "k={k} p={p}");
        }
    }

    #[test]
    fn kmers_in_superkmer_share_its_minimizer() {
        for s in scan("TGATGGATGAACCAGTTTGAGGCATTA", 5, 3) {
            for km in s.kmers() {
                assert_eq!(crate::minimizer_of_kmer(&km, 3), *s.minimizer());
            }
        }
    }

    #[test]
    fn adjacent_superkmers_have_distinct_minimizers() {
        let sks = scan("TGATGGATGAACCAGTTTGAGGCATTAGGC", 5, 3);
        for w in sks.windows(2) {
            assert_ne!(w[0].minimizer(), w[1].minimizer());
        }
    }

    #[test]
    fn extensions_record_boundary_bases() {
        let read = "TGATGGATGAACCAGTTTGA";
        let sks = scan(read, 5, 3);
        assert!(sks.len() >= 2, "test needs a read that fragments");
        let bytes = read.as_bytes();
        let mut offset = 0usize;
        for s in &sks {
            if offset == 0 {
                assert_eq!(s.left_ext(), None);
            } else {
                assert_eq!(s.left_ext().unwrap().to_ascii(), bytes[offset - 1]);
            }
            let end = offset + s.kmer_count() + s.k() - 1;
            if end == read.len() {
                assert_eq!(s.right_ext(), None);
            } else {
                assert_eq!(s.right_ext().unwrap().to_ascii(), bytes[end]);
            }
            offset += s.kmer_count();
        }
    }

    #[test]
    fn extended_seq_restores_read_edges() {
        let read = "TGATGGATGAACCAGTTTGA";
        let k = 5;
        let sks = scan(read, k, 3);
        // Collect every consecutive-kmer edge from the original read...
        let all_edges: Vec<(Kmer, Kmer)> = {
            let s = seq(read);
            let v: Vec<Kmer> = s.kmers(k).collect();
            v.windows(2).map(|w| (w[0], w[1])).collect()
        };
        // ...and from the extended superkmer sequences.
        let mut from_sks: Vec<(Kmer, Kmer)> = Vec::new();
        for s in &sks {
            let ext = s.extended_seq();
            let v: Vec<Kmer> = ext.kmers(k).collect();
            from_sks.extend(v.windows(2).map(|w| (w[0], w[1])));
        }
        // Every read edge appears (possibly twice: once in each adjacent
        // superkmer's extension).
        for e in &all_edges {
            assert!(from_sks.contains(e), "edge {:?} lost by partitioning", e);
        }
        // And no invented edges.
        for e in &from_sks {
            assert!(all_edges.contains(e), "edge {:?} fabricated", e);
        }
    }

    #[test]
    fn single_kmer_read() {
        let sks = scan("GATTA", 5, 2);
        assert_eq!(sks.len(), 1);
        assert_eq!(sks[0].kmer_count(), 1);
        assert_eq!(sks[0].left_ext(), None);
        assert_eq!(sks[0].right_ext(), None);
        assert_eq!(sks[0].compaction_ratio(), 1.0);
    }

    #[test]
    fn short_read_yields_nothing() {
        assert!(scan("ACG", 5, 3).is_empty());
    }

    #[test]
    fn naive_and_fast_scans_agree() {
        let sc = SuperkmerScanner::new(7, 4).unwrap();
        let read = seq("ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCA");
        assert_eq!(sc.scan(&read), sc.scan_naive(&read));
    }

    #[test]
    fn boundaries_split_equals_direct_scan() {
        // The paper's GPU/CPU split: offsets on one processor, movement on
        // the other, must compose to the same superkmers.
        let sc = SuperkmerScanner::new(7, 4).unwrap();
        let read = seq("ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT");
        let boundaries = sc.scan_boundaries(&read);
        assert!(!boundaries.is_empty());
        // Boundaries tile the kmer index range contiguously.
        assert_eq!(boundaries[0].0, 0);
        for w in boundaries.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0);
        }
        assert_eq!(boundaries.last().unwrap().1, read.len() - 7);
        assert_eq!(sc.superkmers_from_boundaries(&read, &boundaries), sc.scan(&read));
    }

    #[test]
    fn scan_runs_into_equals_scan_boundaries() {
        let sc = SuperkmerScanner::new(7, 4).unwrap();
        let mut cursor = sc.cursor();
        let mut buf = Vec::new();
        for r in [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT",
            "TTTTTTTTTTTTTTT",
            "GATTACA",
            "ACG", // shorter than k: both empty
        ] {
            let read = seq(r);
            buf.push((99, 99, "A".parse().unwrap())); // must be cleared
            sc.scan_runs_into(&read, &mut cursor, &mut buf);
            assert_eq!(buf, sc.scan_boundaries(&read), "read={r}");
        }
    }

    #[test]
    fn homopolymer_read_is_one_superkmer() {
        let sks = scan(&"A".repeat(30), 5, 3);
        assert_eq!(sks.len(), 1);
        assert_eq!(sks[0].kmer_count(), 26);
        assert!(sks[0].compaction_ratio() > 4.0);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn new_rejects_short_core() {
        Superkmer::new(seq("ACG"), "AC".parse().unwrap(), 5, None, None);
    }
}
