//! Rolling canonical k-mer scanning.
//!
//! The Step-2 kernel visits every k-mer of a superkmer core and needs its
//! *canonical* form (vertex identity in the bi-directed graph). Doing that
//! with [`Kmer::sub`] + [`Kmer::revcomp`] + [`Kmer::canonical`] costs O(k)
//! work per position — `revcomp` alone walks all k bases. The
//! [`CanonicalKmerCursor`] replaces that with the classic rolling scheme:
//! it maintains *both* the forward window and its reverse complement as
//! packed word arrays and updates each with a constant number of word
//! operations per base pushed, so a whole core of `L` bases is scanned in
//! O(L · ⌈k/32⌉) word ops instead of O(L · k) base ops.
//!
//! Invariants maintained by [`push`](CanonicalKmerCursor::push):
//!
//! * `fwd` holds the last `min(filled, k)` bases, left-aligned MSB-first
//!   (the same layout as [`Kmer`]), tail bits zero;
//! * `rc` holds the reverse complement of that window, same layout;
//! * once `filled ≥ k`, both windows cover exactly the last `k` bases.
//!
//! Because [`Kmer`]'s `Ord` is lexicographic via numeric word comparison,
//! choosing the canonical side is a single array compare — no
//! materialisation needed until the caller asks for the [`Kmer`].

use crate::{Base, DnaError, Kmer, Orientation, MAX_K};

const WORDS: usize = 4;
const BASES_PER_WORD: usize = 32;

/// Incrementally tracks the canonical form of a sliding k-mer window.
///
/// # Examples
///
/// ```
/// use dna::{Base, CanonicalKmerCursor, Kmer, PackedSeq};
///
/// # fn main() -> Result<(), dna::DnaError> {
/// let seq = PackedSeq::from_ascii(b"TGATGGATG");
/// let mut cursor = CanonicalKmerCursor::new(5)?;
/// let mut rolled = Vec::new();
/// for b in seq.bases() {
///     cursor.push(b);
///     if cursor.is_full() {
///         rolled.push(cursor.canonical());
///     }
/// }
/// let direct: Vec<_> = seq.kmers(5).map(|k| k.canonical()).collect();
/// assert_eq!(rolled, direct);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CanonicalKmerCursor {
    /// Forward window, [`Kmer`]-layout packed.
    fwd: [u64; WORDS],
    /// Reverse complement of the window, [`Kmer`]-layout packed.
    rc: [u64; WORDS],
    k: usize,
    /// Bases pushed since the last reset, saturating at `k`.
    filled: usize,
    /// Words actually used: `⌈k/32⌉` — the rolling loops stop here.
    nwords: usize,
    /// Word index of base `k−1`.
    last_word: usize,
    /// Bit shift of base `k−1` within its word.
    last_shift: u32,
    /// Mask clearing bits beyond base `k−1` in word `nwords−1`.
    tail_mask: u64,
    /// Single-word fast path, taken whenever `k ≤ 32`: the specialised
    /// rolls are the exact `nwords == 1` instance of the generic loops,
    /// so both paths are bit-identical by construction (the unit tests
    /// clear this flag to run the generic twin on the same input).
    narrow: bool,
}

impl CanonicalKmerCursor {
    /// Creates a cursor for k-mers of length `k`.
    ///
    /// # Errors
    ///
    /// Returns [`DnaError::InvalidK`] if `k` is 0 or exceeds [`MAX_K`].
    pub fn new(k: usize) -> Result<CanonicalKmerCursor, DnaError> {
        if k == 0 || k > MAX_K {
            return Err(DnaError::InvalidK { k });
        }
        let rem = k % BASES_PER_WORD;
        Ok(CanonicalKmerCursor {
            fwd: [0; WORDS],
            rc: [0; WORDS],
            k,
            filled: 0,
            nwords: k.div_ceil(BASES_PER_WORD),
            last_word: (k - 1) / BASES_PER_WORD,
            last_shift: 62 - 2 * ((k - 1) % BASES_PER_WORD) as u32,
            tail_mask: if rem == 0 { u64::MAX } else { u64::MAX << (64 - 2 * rem) },
            narrow: k <= BASES_PER_WORD,
        })
    }

    /// The window length `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bases pushed since the last reset, saturating at `k`.
    #[inline]
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Whether a full k-mer window is available.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.filled >= self.k
    }

    /// Empties the window so the cursor can scan a new sequence.
    #[inline]
    pub fn reset(&mut self) {
        self.fwd = [0; WORDS];
        self.rc = [0; WORDS];
        self.filled = 0;
    }

    /// Slides the window one base to the right.
    ///
    /// Constant number of word operations: `⌈k/32⌉` shifts per window
    /// plus one masked insert each — no O(k) re-derivation.
    #[inline]
    pub fn push(&mut self, base: Base) {
        if self.narrow {
            // k ≤ 32: both windows live in word 0 — no carry loops, no
            // indexing. Identical arithmetic to the generic path below
            // with `n == 1` (all carries are zero).
            self.fwd[0] = (self.fwd[0] << 2) | ((base.code() as u64) << self.last_shift);
            self.rc[0] = ((self.rc[0] >> 2) & self.tail_mask)
                | ((base.complement().code() as u64) << 62);
            if self.filled < self.k {
                self.filled += 1;
            }
            return;
        }
        let n = self.nwords;
        // Forward: drop the leftmost base, append `base` at position k−1.
        // Tail bits stay zero: position k−1 receives old position k, which
        // the invariant guarantees is zero, so a plain OR inserts cleanly.
        for i in 0..n {
            let carry = if i + 1 < n { self.fwd[i + 1] >> 62 } else { 0 };
            self.fwd[i] = (self.fwd[i] << 2) | carry;
        }
        self.fwd[self.last_word] |= (base.code() as u64) << self.last_shift;
        // Reverse complement: the same slide seen from the other strand —
        // drop the rightmost base (old position k−1 shifts past the tail
        // mask), prepend the complement at position 0.
        for i in (0..n).rev() {
            let carry = if i > 0 { self.rc[i - 1] << 62 } else { 0 };
            self.rc[i] = (self.rc[i] >> 2) | carry;
        }
        self.rc[n - 1] &= self.tail_mask;
        self.rc[0] |= (base.complement().code() as u64) << 62;
        if self.filled < self.k {
            self.filled += 1;
        }
    }

    /// The forward (as-read) k-mer of the current window.
    ///
    /// # Panics
    ///
    /// Panics unless [`is_full`](Self::is_full).
    #[inline]
    pub fn forward(&self) -> Kmer {
        assert!(self.is_full(), "cursor holds {} of {} bases", self.filled, self.k);
        Kmer::from_words_unchecked(self.fwd, self.k)
    }

    /// The reverse complement of the current window.
    ///
    /// # Panics
    ///
    /// Panics unless [`is_full`](Self::is_full).
    #[inline]
    pub fn reverse_complement(&self) -> Kmer {
        assert!(self.is_full(), "cursor holds {} of {} bases", self.filled, self.k);
        Kmer::from_words_unchecked(self.rc, self.k)
    }

    /// The canonical k-mer of the current window and its orientation,
    /// decided by one word-array comparison (ties break Forward, exactly
    /// like [`Kmer::canonical`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`is_full`](Self::is_full).
    #[inline]
    pub fn canonical(&self) -> (Kmer, Orientation) {
        assert!(self.is_full(), "cursor holds {} of {} bases", self.filled, self.k);
        // Narrow windows decide on word 0 alone (words 1..4 stay zero).
        let use_fwd =
            if self.narrow { self.fwd[0] <= self.rc[0] } else { self.fwd <= self.rc };
        if use_fwd {
            (Kmer::from_words_unchecked(self.fwd, self.k), Orientation::Forward)
        } else {
            (Kmer::from_words_unchecked(self.rc, self.k), Orientation::Reverse)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedSeq;

    /// Rolls the cursor over `seq` and checks every full window against
    /// the O(k) reference path.
    fn check_matches_reference(seq: &str, k: usize) {
        let s = PackedSeq::from_ascii(seq.as_bytes());
        let mut cursor = CanonicalKmerCursor::new(k).unwrap();
        let mut rolled = Vec::new();
        for b in s.bases() {
            cursor.push(b);
            if cursor.is_full() {
                rolled.push(cursor.canonical());
            }
        }
        let direct: Vec<_> = s.kmers(k).map(|km| km.canonical()).collect();
        assert_eq!(rolled, direct, "k={k} seq={seq}");
    }

    #[test]
    fn matches_reference_across_word_boundaries() {
        let seq = "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCAGGCATTAGCCAGTACGTTGCA\
                   TGGACCAGTTACGGATCAGGCATTAGCCAGT";
        for k in [1, 2, 5, 31, 32, 33, 63, 64, 65, 95, 96, 97] {
            check_matches_reference(seq, k);
        }
    }

    #[test]
    fn palindromes_tie_forward() {
        // ACGT is its own reverse complement; canonical() must report
        // Forward, matching Kmer::canonical's tie-break.
        let s = PackedSeq::from_ascii(b"ACGTACGT");
        let mut cursor = CanonicalKmerCursor::new(4).unwrap();
        for b in s.bases() {
            cursor.push(b);
            if cursor.is_full() && cursor.forward() == cursor.reverse_complement() {
                assert_eq!(cursor.canonical().1, Orientation::Forward);
            }
        }
    }

    #[test]
    fn forward_and_rc_track_window() {
        let s = PackedSeq::from_ascii(b"GATTACAGATTACA");
        let mut cursor = CanonicalKmerCursor::new(7).unwrap();
        let kmers: Vec<Kmer> = s.kmers(7).collect();
        let mut i = 0;
        for b in s.bases() {
            cursor.push(b);
            if cursor.is_full() {
                assert_eq!(cursor.forward(), kmers[i]);
                assert_eq!(cursor.reverse_complement(), kmers[i].revcomp());
                i += 1;
            }
        }
        assert_eq!(i, kmers.len());
    }

    #[test]
    fn reset_restarts_cleanly() {
        let mut cursor = CanonicalKmerCursor::new(5).unwrap();
        for b in PackedSeq::from_ascii(b"TTTTTTT").bases() {
            cursor.push(b);
        }
        cursor.reset();
        assert!(!cursor.is_full());
        assert_eq!(cursor.filled(), 0);
        for b in PackedSeq::from_ascii(b"ACGTA").bases() {
            cursor.push(b);
        }
        assert_eq!(cursor.forward().to_string(), "ACGTA");
    }

    #[test]
    fn not_full_until_k_bases() {
        let mut cursor = CanonicalKmerCursor::new(3).unwrap();
        cursor.push(Base::A);
        cursor.push(Base::C);
        assert!(!cursor.is_full());
        assert_eq!(cursor.filled(), 2);
        cursor.push(Base::G);
        assert!(cursor.is_full());
        assert_eq!(cursor.forward().to_string(), "ACG");
    }

    #[test]
    #[should_panic(expected = "cursor holds")]
    fn canonical_before_full_panics() {
        let mut cursor = CanonicalKmerCursor::new(4).unwrap();
        cursor.push(Base::T);
        let _ = cursor.canonical();
    }

    #[test]
    fn invalid_k_rejected() {
        assert!(CanonicalKmerCursor::new(0).is_err());
        assert!(CanonicalKmerCursor::new(MAX_K + 1).is_err());
        assert!(CanonicalKmerCursor::new(MAX_K).is_ok());
    }

    #[test]
    fn narrow_and_generic_paths_agree() {
        let s = PackedSeq::from_ascii(
            b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCAGGCATTAGCCAGT",
        );
        for k in [1usize, 2, 5, 16, 31, 32] {
            let mut narrow = CanonicalKmerCursor::new(k).unwrap();
            let mut generic = CanonicalKmerCursor { narrow: false, ..narrow.clone() };
            assert!(narrow.narrow, "k={k} ≤ 32 must take the narrow path");
            for b in s.bases() {
                generic.push(b);
                narrow.push(b);
                if generic.is_full() {
                    assert_eq!(generic.canonical(), narrow.canonical(), "k={k}");
                }
            }
        }
    }

    #[test]
    fn long_homopolymer_window_is_stable() {
        // A run of T's: canonical is always AAAA… (the revcomp side).
        let mut cursor = CanonicalKmerCursor::new(33).unwrap();
        for _ in 0..100 {
            cursor.push(Base::T);
            if cursor.is_full() {
                let (canon, orient) = cursor.canonical();
                assert_eq!(orient, Orientation::Reverse);
                assert!(canon.bases().all(|b| b == Base::A));
            }
        }
    }
}
