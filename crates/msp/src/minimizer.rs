use std::collections::VecDeque;

use dna::{CanonicalKmerCursor, Kmer, PackedSeq};

use crate::{MspError, Result};

/// Computes the minimizer of a single k-mer: the lexicographically minimal
/// length-`p` substring over the k-mer **and its reverse complement** (the
/// canonical pair — see the crate docs for why both strands are needed).
///
/// This is the O(K·P) brute force the paper describes, and the
/// *definition* both scan paths are tested against; the sliding-window
/// [`MinimizerCursor`] produces identical results in O(L) per read and is
/// what the system uses. It also serves the `p > 32` /
/// `PARAHASH_FORCE_SCALAR` path of the out-of-core record router
/// ([`split_framed`](crate::split_framed)).
///
/// # Examples
///
/// ```
/// use dna::Kmer;
/// use msp::minimizer_of_kmer;
///
/// # fn main() -> Result<(), dna::DnaError> {
/// let k: Kmer = "TGATG".parse()?;
/// // Substrings of TGATG: TGA, GAT, ATG; of CATCA: CAT, ATC, TCA.
/// assert_eq!(minimizer_of_kmer(&k, 3).to_string(), "ATC");
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `p` is 0 or exceeds the k-mer length.
pub fn minimizer_of_kmer(kmer: &Kmer, p: usize) -> Kmer {
    assert!(p >= 1 && p <= kmer.k(), "invalid minimizer length {p} for k={}", kmer.k());
    let strand_min = |km: &Kmer| (0..=km.k() - p).map(|i| km.sub(i, p)).min().expect("k >= p");
    strand_min(kmer).min(strand_min(&kmer.revcomp()))
}

/// [`minimizer_of_kmer`] for `p ≤ 32` without materialising either
/// k-mer: the canonical minimizer of the k-mer spelled by the first `k`
/// codes of `codes`, as the p-mer's MSB-aligned packed word
/// (`Kmer::words()[0]` of the minimizer; words 1–3 are zero).
///
/// The forward and reverse-complement p-mers roll in two `u64`s, two
/// shifts and an OR per base — the single-word trick of
/// [`MinimizerCursor`]'s fast path, whose ordering argument applies
/// unchanged: the top word of a left-aligned p-mer orders exactly like
/// the four-word key. O(k) per call where the brute force is O(k·p)
/// sub-k-mer extractions.
pub(crate) fn minimizer_word_of_first_kmer(
    mut codes: crate::view::CodeWords<'_>,
    k: usize,
    p: usize,
) -> u64 {
    debug_assert!((1..=32).contains(&p) && p <= k, "invalid p={p} for k={k}");
    // As in `scan_runs_fast`: a new forward base lands at bits
    // [64−2p, 66−2p), the expiring one shifts out of the top.
    let shift = 64 - 2 * p;
    let pmask = !0u64 << shift;
    let (mut fwd, mut rc, mut min) = (0u64, 0u64, u64::MAX);
    let mut seen = 0usize;
    while seen < k {
        let mut chunk = codes.next_chunk();
        for _ in 0..(k - seen).min(32) {
            let code = chunk & 3;
            chunk >>= 2;
            fwd = (fwd << 2) | (code << shift);
            rc = ((rc >> 2) & pmask) | ((code ^ 3) << 62);
            seen += 1;
            if seen >= p {
                min = min.min(fwd.min(rc));
            }
        }
    }
    min
}

/// Reusable per-worker state for the streaming minimizer scan.
///
/// For a read of length `L` the scan visits each of the `L−K+1` k-mer
/// positions' canonical minimizer without materialising the read's
/// reverse complement or any per-position vector: the cursor rolls the
/// forward p-mer window *and its reverse complement* incrementally (a
/// [`CanonicalKmerCursor`] of length `p` — the rc p-mer is derived
/// arithmetically from the forward window, never from a `revcomp()` copy
/// of the read) and maintains a single monotone deque of **canonical**
/// p-mers. The canonical minimizer of the k-mer at position
/// `i` equals
///
/// ```text
/// min over j in [i, i+K−P] of min(pmer_j, revcomp(pmer_j))
/// ```
///
/// i.e. the windowed minimum of canonical p-mers — exactly what one deque
/// over canonical p-mers yields — because the rc read's p-mers inside the
/// rc k-mer window are the reverse complements of the forward p-mers
/// inside the forward window. That collapses the two-strand scan into one
/// deque with no second pass.
///
/// **Deque invariant:** entries are `(position, canonical p-mer)` with
/// positions strictly increasing and values non-decreasing front-to-back;
/// the front is the window minimum. Each p-mer enters and leaves at most
/// once, so a read of `L` bases is scanned in O(L) with **zero heap
/// allocation** after construction: the deque's capacity (at most
/// `K−P+2` live entries) is reserved up front and reused across reads.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::{minimizer_of_kmer, MinimizerCursor};
///
/// # fn main() -> msp::Result<()> {
/// let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGT");
/// let mut cursor = MinimizerCursor::new(5, 3)?;
/// let mut runs = Vec::new();
/// cursor.scan_runs(&read, |first, last, m| runs.push((first, last, m)));
/// // Runs tile the k-mer index range and match the brute force at
/// // every position.
/// assert_eq!(runs.first().unwrap().0, 0);
/// assert_eq!(runs.last().unwrap().1, read.len() - 5);
/// for &(first, last, m) in &runs {
///     for i in first..=last {
///         assert_eq!(minimizer_of_kmer(&read.kmer_at(i, 5).unwrap(), 3), m);
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MinimizerCursor {
    k: usize,
    p: usize,
    /// Number of p-mer positions under one k-mer: `k − p + 1`.
    window: usize,
    /// Rolling forward + reverse-complement p-mer windows.
    pcur: CanonicalKmerCursor,
    /// Monotone deque of `(p-mer position, canonical p-mer)`.
    deque: VecDeque<(u32, Kmer)>,
    /// Single-word fast path: `p ≤ 32` and the scalar escape hatch is
    /// off. Captured at construction so a cursor never switches paths
    /// mid-stream.
    fast: bool,
    /// Ring buffer of the last `window` canonical p-mers (as MSB-aligned
    /// `u64`s) for the fast path's lazy window minimum: slot `j mod
    /// window` holds position `j`'s p-mer, read only on the rare rescans
    /// after the tracked minimum falls out of the window.
    ring64: Vec<u64>,
}

impl MinimizerCursor {
    /// Creates a cursor for k-mers of length `k` and minimizers of length
    /// `p`, reserving all memory the scan will ever need.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::InvalidParams`] unless `1 ≤ p ≤ k ≤ MAX_K`.
    pub fn new(k: usize, p: usize) -> Result<MinimizerCursor> {
        if p < 1 || p > k || k > dna::MAX_K {
            return Err(MspError::InvalidParams { k, p });
        }
        let window = k - p + 1;
        Ok(MinimizerCursor {
            k,
            p,
            window,
            pcur: CanonicalKmerCursor::new(p).expect("1 <= p <= MAX_K"),
            // At most `window + 1` entries are live between the push of a
            // new p-mer and the expiry pop that follows it.
            deque: VecDeque::with_capacity(window + 2),
            fast: p <= 32 && !dna::simd::force_scalar(),
            ring64: vec![0; window],
        })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimizer length.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Streams `read` once, invoking `emit(first, last, minimizer)` for
    /// each **maximal equal-minimizer run** of k-mer positions — the
    /// superkmer boundaries of the paper's Definition 2: per-position
    /// [`minimizer_of_kmer`] grouped by equality, computed without
    /// allocating (no `revcomp` copy, no minima vectors, no output `Vec`).
    ///
    /// Emits nothing for reads shorter than `k`. The cursor resets itself,
    /// so it can be reused across reads (and that reuse is what makes the
    /// per-read hot loop allocation-free).
    pub fn scan_runs<F: FnMut(usize, usize, Kmer)>(&mut self, read: &PackedSeq, mut emit: F) {
        if read.len() < self.k {
            return;
        }
        if self.fast {
            return self.scan_runs_fast(read, &mut emit);
        }
        self.pcur.reset();
        self.deque.clear();
        let n_kmers = read.len() - self.k + 1;
        let mut run_start = 0usize;
        // Placeholder until the first window completes (kpos == 0 path).
        let mut run_min: Kmer = Kmer::from_bases(1, [dna::Base::A]).expect("valid 1-mer");
        for (i, base) in read.bases().enumerate() {
            self.pcur.push(base);
            if i + 1 < self.p {
                continue;
            }
            let j = i + 1 - self.p; // p-mer position
            let (canon, _) = self.pcur.canonical();
            while self.deque.back().is_some_and(|&(_, back)| back > canon) {
                self.deque.pop_back();
            }
            self.deque.push_back((j as u32, canon));
            if j + 1 >= self.window {
                let kpos = j + 1 - self.window; // k-mer position
                while self.deque.front().is_some_and(|&(pos, _)| (pos as usize) < kpos) {
                    self.deque.pop_front();
                }
                let m = self.deque.front().expect("deque non-empty").1;
                if kpos == 0 {
                    run_min = m;
                } else if m != run_min {
                    emit(run_start, kpos - 1, run_min);
                    run_start = kpos;
                    run_min = m;
                }
            }
        }
        emit(run_start, n_kmers - 1, run_min);
    }

    /// Word-at-a-time scan for `p ≤ 32`: the canonical p-mer fits one
    /// MSB-aligned `u64`, so both strands roll with two shifts and an OR
    /// per base, comparisons are plain integer compares, and the packed
    /// read is consumed a 64-bit word (32 bases) at a time instead of
    /// through the per-base iterator. Bitwise-identical to the generic
    /// path — a `u64` holding the top word of a left-aligned [`Kmer`]
    /// orders exactly like the four-word key (words 1..3 are zero for
    /// `p ≤ 32`), and the update steps are the one-word instances of
    /// [`CanonicalKmerCursor`]'s shift loops.
    ///
    /// The window minimum here is *lazy* rather than the generic path's
    /// monotone deque: track the current minimum's value and (latest)
    /// position, and only when that position slides out of the window
    /// rescan the `window` buffered p-mers in [`ring64`](Self::ring64).
    /// The common per-base cost is one ring store plus one compare; the
    /// O(window) rescan fires only when the minimum expires (≈ 1/window
    /// of positions on random sequence). Both strategies compute the same
    /// windowed minimum *value*, and runs depend only on values, so the
    /// emitted runs are identical.
    fn scan_runs_fast<F: FnMut(usize, usize, Kmer)>(&mut self, read: &PackedSeq, emit: &mut F) {
        let p = self.p;
        let window = self.window;
        // New forward base lands at bits [64−2p, 65−2p); the expiring one
        // shifts out of the top. `p = 32` makes the mask a no-op `!0`.
        let shift = 64 - 2 * p;
        let pmask = !0u64 << shift;
        let materialise = |v: u64| {
            Kmer::from_words([v, 0, 0, 0], p).expect("p-mer tail bits are zero")
        };
        let ring = &mut self.ring64[..window];
        let len = read.len();
        let n_kmers = len - self.k + 1;
        let mut fwd = 0u64;
        let mut rc = 0u64;
        let mut run_start = 0usize;
        let mut run_min = 0u64; // placeholder until kpos == 0 assigns
        let mut min_val = u64::MAX;
        let mut min_pos = 0usize;
        let mut slot = 0usize; // == j mod window
        let mut seen = 0usize; // bases consumed so far
        for (w, &packed) in read.words().iter().enumerate() {
            let mut word = packed;
            let in_word = (len - w * 32).min(32);
            for _ in 0..in_word {
                let code = word & 3;
                word >>= 2;
                fwd = (fwd << 2) | (code << shift);
                rc = ((rc >> 2) & pmask) | ((code ^ 3) << 62);
                seen += 1;
                if seen < p {
                    continue;
                }
                let j = seen - p; // p-mer position
                let canon = fwd.min(rc);
                ring[slot] = canon;
                // `<=` keeps min_pos at the *latest* minimal position,
                // postponing expiry rescans as long as possible.
                if canon <= min_val {
                    min_val = canon;
                    min_pos = j;
                } else if min_pos + window <= j {
                    // The minimum fell out of the window [j+1−window, j]:
                    // rescan the ring oldest-first (the rescan only fires
                    // once j ≥ window, so every slot holds an in-window
                    // p-mer).
                    min_val = u64::MAX;
                    let mut s = slot + 1;
                    for d in 0..window {
                        if s >= window {
                            s = 0;
                        }
                        let v = ring[s];
                        if v <= min_val {
                            min_val = v;
                            min_pos = j + 1 - window + d;
                        }
                        s += 1;
                    }
                }
                slot += 1;
                if slot == window {
                    slot = 0;
                }
                if j + 1 >= window {
                    let kpos = j + 1 - window; // k-mer position
                    if kpos == 0 {
                        run_min = min_val;
                    } else if min_val != run_min {
                        emit(run_start, kpos - 1, materialise(run_min));
                        run_start = kpos;
                        run_min = min_val;
                    }
                }
            }
        }
        emit(run_start, n_kmers - 1, materialise(run_min));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes())
    }

    #[test]
    fn brute_force_on_known_example() {
        let k: Kmer = "GATTACA".parse().unwrap();
        // fwd 2-mers: GA AT TT TA AC CA ; rc = TGTAATC: TG GT TA AA AT TC.
        assert_eq!(minimizer_of_kmer(&k, 2).to_string(), "AA");
        assert_eq!(minimizer_of_kmer(&k, 7).to_string(), "GATTACA");
        assert_eq!(minimizer_of_kmer(&k, 1).to_string(), "A");
    }

    #[test]
    fn minimizer_is_strand_invariant() {
        for s in ["ACGTTGCA", "TGATGGATG", "CCCCCGGGG"] {
            let k: Kmer = s.parse().unwrap();
            for p in 1..=s.len() {
                assert_eq!(
                    minimizer_of_kmer(&k, p),
                    minimizer_of_kmer(&k.revcomp(), p),
                    "s={s} p={p}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid minimizer length")]
    fn brute_force_rejects_p_zero() {
        minimizer_of_kmer(&"ACGT".parse().unwrap(), 0);
    }

    /// The definition the scan is held to: per-position
    /// [`minimizer_of_kmer`], cut into maximal equal runs.
    fn runs_by_definition(read: &PackedSeq, k: usize, p: usize) -> Vec<(usize, usize, Kmer)> {
        let mins: Vec<Kmer> = read.kmers(k).map(|km| minimizer_of_kmer(&km, p)).collect();
        let mut out = Vec::new();
        let mut start = 0usize;
        for pos in 1..=mins.len() {
            if pos == mins.len() || mins[pos] != mins[start] {
                out.push((start, pos - 1, mins[start]));
                start = pos;
            }
        }
        out
    }

    fn collect_runs(cursor: &mut MinimizerCursor, read: &PackedSeq) -> Vec<(usize, usize, Kmer)> {
        let mut runs = Vec::new();
        cursor.scan_runs(read, |f, l, m| runs.push((f, l, m)));
        runs
    }

    #[test]
    fn scan_runs_matches_the_definition() {
        let reads = [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCA",
            "AAAAAAAAAAAAAAAAAAAA",
            "ATATATATATATATATATAT",
            "TGATGGATGATGGATGGTAGCAT",
            "GATTACA",
            "ACGT",
        ];
        for r in reads {
            let read = seq(r);
            for (k, p) in [(4, 1), (4, 4), (5, 3), (7, 4), (7, 7), (15, 11), (20, 1)] {
                let got = collect_runs(&mut MinimizerCursor::new(k, p).unwrap(), &read);
                assert_eq!(got, runs_by_definition(&read, k, p), "read={r} k={k} p={p}");
            }
        }
    }

    #[test]
    fn p_equal_k_minimizer_is_canonical_kmer() {
        let read = seq("TGATGGA");
        for (first, last, m) in collect_runs(&mut MinimizerCursor::new(5, 5).unwrap(), &read) {
            for i in first..=last {
                assert_eq!(m, read.kmer_at(i, 5).unwrap().canonical().0);
            }
        }
    }

    #[test]
    fn cursor_is_reusable_across_reads() {
        let mut cursor = MinimizerCursor::new(7, 4).unwrap();
        for r in ["ACGTTGCATGGACCAGTTACGGATCA", "TTTTTTTTTT", "GATTACAGATTACA"] {
            let read = seq(r);
            assert_eq!(collect_runs(&mut cursor, &read), runs_by_definition(&read, 7, 4), "read={r}");
        }
    }

    #[test]
    fn scan_runs_short_read_emits_nothing() {
        let mut cursor = MinimizerCursor::new(10, 4).unwrap();
        assert!(collect_runs(&mut cursor, &seq("ACGT")).is_empty());
        assert!(collect_runs(&mut cursor, &seq("")).is_empty());
    }

    #[test]
    fn scan_runs_exactly_k_read_is_one_run() {
        let read = seq("GATTAC");
        let runs = collect_runs(&mut MinimizerCursor::new(6, 3).unwrap(), &read);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs[0].1, 0);
        assert_eq!(runs[0].2, minimizer_of_kmer(&read.kmer_at(0, 6).unwrap(), 3));
    }

    #[test]
    fn scan_runs_homopolymer_is_one_run() {
        // Every k-mer shares the same minimizer: exactly one run.
        let read = seq(&"A".repeat(40));
        let runs = collect_runs(&mut MinimizerCursor::new(9, 4).unwrap(), &read);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].0, 0);
        assert_eq!(runs[0].1, 40 - 9);
    }

    #[test]
    fn cursor_rejects_invalid_params() {
        assert!(matches!(MinimizerCursor::new(5, 0), Err(MspError::InvalidParams { .. })));
        assert!(matches!(MinimizerCursor::new(5, 6), Err(MspError::InvalidParams { .. })));
        assert!(matches!(
            MinimizerCursor::new(dna::MAX_K + 1, 3),
            Err(MspError::InvalidParams { .. })
        ));
        assert!(MinimizerCursor::new(dna::MAX_K, dna::MAX_K).is_ok());
        assert!(MinimizerCursor::new(1, 1).is_ok());
    }

    #[test]
    fn fast_and_generic_paths_match_the_definition() {
        let _guard = dna::simd::override_guard();
        // Deterministic xorshift corpus: varied lengths straddling word
        // boundaries plus low-complexity tails.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut read_of = |len: usize, tail_a: usize| {
            let mut s = String::new();
            for i in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let ch = if i + tail_a >= len {
                    'A'
                } else {
                    ['A', 'C', 'G', 'T'][(state >> 33) as usize % 4]
                };
                s.push(ch);
            }
            s
        };
        let reads: Vec<String> = [31, 32, 33, 63, 64, 65, 200]
            .iter()
            .flat_map(|&len| [read_of(len, 0), read_of(len, len / 3)])
            .collect();
        for (k, p) in [(5, 1), (7, 7), (15, 7), (31, 16), (33, 32), (64, 32), (45, 13)] {
            dna::simd::set_force_scalar_override(Some(true));
            let mut generic = MinimizerCursor::new(k, p).unwrap();
            dna::simd::set_force_scalar_override(Some(false));
            let mut fast = MinimizerCursor::new(k, p).unwrap();
            dna::simd::set_force_scalar_override(None);
            assert!(!generic.fast && fast.fast, "construction must capture the mode");
            for r in &reads {
                let read = seq(r);
                let want = runs_by_definition(&read, k, p);
                assert_eq!(collect_runs(&mut fast, &read), want, "fast k={k} p={p} read={r}");
                assert_eq!(collect_runs(&mut generic, &read), want, "generic k={k} p={p} read={r}");
            }
        }
    }

    #[test]
    fn wide_p_uses_generic_path() {
        let cursor = MinimizerCursor::new(80, 40).unwrap();
        assert!(!cursor.fast, "p > 32 cannot take the single-word path");
    }

    #[test]
    fn larger_p_fragments_runs_more() {
        // The paper's Fig 6 observation: larger P ⇒ more, shorter superkmer
        // runs. Here: more distinct adjacent-minimizer changes.
        let read = seq(&"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT".repeat(4));
        let changes = |p: usize| collect_runs(&mut MinimizerCursor::new(15, p).unwrap(), &read).len();
        assert!(changes(13) >= changes(5), "larger P should fragment at least as much");
    }
}
