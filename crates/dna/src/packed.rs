use std::cmp::Ordering;
use std::fmt;

use crate::{Base, DnaError, Kmer};

const BASES_PER_WORD: usize = 32;

/// An arbitrary-length DNA sequence, 2-bit packed into 64-bit words.
///
/// This is the in-memory representation of reads and superkmers throughout
/// the workspace: four bases per byte, an 8–16× reduction over the ASCII
/// FASTQ text, which is the encoding optimisation the paper uses to cut
/// both disk I/O and host↔device transfer volume.
///
/// Unlike [`Kmer`], a `PackedSeq` heap-allocates and has no length limit.
/// Bases are packed LSB-first within each word (base `i` occupies bits
/// `2(i mod 32)..` of word `i / 32`).
///
/// # Examples
///
/// ```
/// use dna::{Base, PackedSeq};
///
/// let mut s = PackedSeq::from_ascii(b"ACGT");
/// s.push(Base::G);
/// assert_eq!(s.to_string(), "ACGTG");
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.get(2), Some(Base::G));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// Creates an empty sequence.
    pub fn new() -> PackedSeq {
        PackedSeq::default()
    }

    /// Creates an empty sequence with room for `bases` bases before
    /// reallocating.
    pub fn with_capacity(bases: usize) -> PackedSeq {
        PackedSeq { words: Vec::with_capacity(bases.div_ceil(BASES_PER_WORD)), len: 0 }
    }

    /// Builds a sequence from ASCII characters; unknown characters
    /// normalise to `A` (see [`Base::from_ascii`]).
    ///
    /// Packs a whole word (32 bases) per step through the SWAR kernel in
    /// [`crate::simd`].
    pub fn from_ascii(ascii: &[u8]) -> PackedSeq {
        let mut s = PackedSeq::new();
        s.extend_from_ascii(ascii);
        s
    }

    /// Empties the sequence, keeping the word allocation — the reuse
    /// primitive that lets parsing hot loops recycle one `PackedSeq`
    /// across records instead of allocating per record.
    #[inline]
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends ASCII characters (unknown normalise to `A`), using the
    /// word-parallel packer when the current length is word-aligned —
    /// in particular always after [`clear`](Self::clear).
    pub fn extend_from_ascii(&mut self, ascii: &[u8]) {
        if self.len.is_multiple_of(BASES_PER_WORD) {
            crate::simd::pack_ascii(ascii, &mut self.words);
            self.len += ascii.len();
        } else {
            for &ch in ascii {
                self.push(Base::from_ascii(ch));
            }
        }
    }

    /// Number of bases in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence contains no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let w = self.len / BASES_PER_WORD;
        if w == self.words.len() {
            self.words.push(0);
        }
        let shift = 2 * (self.len % BASES_PER_WORD);
        self.words[w] |= (base.code() as u64) << shift;
        self.len += 1;
    }

    /// The base at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<Base> {
        if index >= self.len {
            return None;
        }
        Some(self.base(index))
    }

    /// The base at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn base(&self, index: usize) -> Base {
        assert!(index < self.len, "index {index} out of bounds for length {}", self.len);
        let word = self.words[index / BASES_PER_WORD];
        Base::from_code((word >> (2 * (index % BASES_PER_WORD))) as u8)
    }

    /// Iterates over the bases from left to right.
    pub fn bases(&self) -> Bases<'_> {
        Bases { seq: self, index: 0, word: 0 }
    }

    /// Iterates over every k-mer of the sequence with a rolling window.
    ///
    /// Yields `len − k + 1` k-mers, or nothing if the sequence is shorter
    /// than `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`crate::MAX_K`].
    pub fn kmers(&self, k: usize) -> Kmers<'_> {
        assert!((1..=crate::MAX_K).contains(&k), "invalid k {k}");
        Kmers { seq: self, k, next: 0, current: None }
    }

    /// Extracts the k-mer of length `k` starting at `start`.
    ///
    /// # Errors
    ///
    /// Returns [`DnaError::InvalidK`] for an out-of-range `k` and
    /// [`DnaError::SequenceTooShort`] if the window does not fit.
    pub fn kmer_at(&self, start: usize, k: usize) -> Result<Kmer, DnaError> {
        if start + k > self.len {
            return Err(DnaError::SequenceTooShort { len: self.len, needed: start + k });
        }
        Kmer::from_bases(k, (start..start + k).map(|i| self.base(i)))
    }

    /// The reverse complement of the whole sequence.
    pub fn revcomp(&self) -> PackedSeq {
        let mut out = PackedSeq::with_capacity(self.len);
        for i in (0..self.len).rev() {
            out.push(self.base(i).complement());
        }
        out
    }

    /// A contiguous subsequence `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    pub fn slice(&self, start: usize, len: usize) -> PackedSeq {
        assert!(start + len <= self.len, "slice({start}, {len}) out of bounds for length {}", self.len);
        let mut out = PackedSeq::with_capacity(len);
        for i in start..start + len {
            out.push(self.base(i));
        }
        out
    }

    /// Converts to upper-case ASCII.
    pub fn to_ascii(&self) -> Vec<u8> {
        self.bases().map(Base::to_ascii).collect()
    }

    /// The packed words backing this sequence (LSB-first layout; the last
    /// word's unused high bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends the 2-bit codes of bases `[start, start+len)` to `out`,
    /// packed four bases per byte LSB-first — the partition record payload
    /// layout. The final byte's unused high bits are zero.
    ///
    /// This is a bit-shift copy straight out of the packed words: no
    /// per-base decode, no intermediate sequence. It is what lets Step 1
    /// serialise a superkmer core directly from the read
    /// (`msp::encode_superkmer_slice`) without materialising a slice.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn write_packed_range(&self, start: usize, len: usize, out: &mut Vec<u8>) {
        assert!(
            start + len <= self.len,
            "write_packed_range({start}, {len}) out of bounds for length {}",
            self.len
        );
        out.reserve(len.div_ceil(4));
        // Word-batched shift-and-merge: every start offset (aligned or
        // not) emits 8 output bytes (32 bases) per step by splicing two
        // adjacent words, and the sub-word tail is one masked word load
        // instead of a base-at-a-time loop. 32-base steps keep the byte
        // stream aligned (bytes hold 4 bases each).
        let mut pos = start;
        let mut remaining = len;
        while remaining >= BASES_PER_WORD {
            out.extend_from_slice(&self.load_codes(pos).to_le_bytes());
            pos += BASES_PER_WORD;
            remaining -= BASES_PER_WORD;
        }
        if remaining > 0 {
            let chunk = self.load_codes(pos) & ((1u64 << (2 * remaining)) - 1);
            out.extend_from_slice(&chunk.to_le_bytes()[..remaining.div_ceil(4)]);
        }
    }

    /// Appends the 2-bit codes of whichever of bases `[start, start+len)`
    /// and their reverse complement is the smaller string, in the
    /// [`write_packed_range`](Self::write_packed_range) layout, and
    /// returns how the range compares with its reverse complement:
    /// `Greater` when it wrote the reverse complement, `Less` when it
    /// wrote the range, `Equal` for a reverse-complement palindrome (the
    /// two are the same bases).
    ///
    /// Neither orientation is copied out first. Each 32-base step loads
    /// the range's next codes from the left and, for the reverse
    /// complement, the codes ending where the previous step's began,
    /// reversed with [`reverse_codes`](crate::simd::reverse_codes) and
    /// complemented by one XOR; the first step's pair, compared field by
    /// field, decides the orientation on all but ranges that open with 32
    /// palindromic bases, and a mask then selects the word to write — no
    /// branch on the orientation. This is how Step 1 writes every
    /// superkmer in canonical orientation (`msp::encode_superkmer_slice`).
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    #[inline]
    pub fn write_canonical_range(&self, start: usize, len: usize, out: &mut Vec<u8>) -> Ordering {
        assert!(
            start + len <= self.len,
            "write_canonical_range({start}, {len}) out of bounds for length {}",
            self.len
        );
        if len == 0 {
            return Ordering::Equal;
        }
        let end = start + len;
        let mut n = len.min(BASES_PER_WORD);
        let mut fwd = self.load_codes(start) & low_fields(n);
        let mut rev = self.load_revcomp_codes(end, n);
        let order = if fwd == rev {
            self.cmp_revcomp_after(start, len, n)
        } else {
            first_field_order(fwd, rev)
        };
        let reverse = u64::from(order == Ordering::Greater).wrapping_neg();
        let mut at = 0;
        loop {
            let codes = (rev & reverse) | (fwd & !reverse);
            // A whole word stored, then the length cut back to the range's
            // bytes: a fixed-size store rather than a variable-length copy.
            let written = out.len() + n.div_ceil(4);
            out.extend_from_slice(&codes.to_le_bytes());
            out.truncate(written);
            at += n;
            if at == len {
                return order;
            }
            n = (len - at).min(BASES_PER_WORD);
            fwd = self.load_codes(start + at) & low_fields(n);
            rev = self.load_revcomp_codes(end - at, n);
        }
    }

    /// How bases `[start, start+len)` compare with their reverse
    /// complement, given that their first `at` bases compare equal.
    fn cmp_revcomp_after(&self, start: usize, len: usize, mut at: usize) -> Ordering {
        while at < len {
            let n = (len - at).min(BASES_PER_WORD);
            let fwd = self.load_codes(start + at) & low_fields(n);
            let rev = self.load_revcomp_codes(start + len - at, n);
            if fwd != rev {
                return first_field_order(fwd, rev);
            }
            at += n;
        }
        Ordering::Equal
    }

    /// The reverse complement of the `n ≤ 32` bases ending before `end`,
    /// as codes LSB-first with the fields past `n` zero: their codes
    /// reversed and complemented.
    #[inline]
    fn load_revcomp_codes(&self, end: usize, n: usize) -> u64 {
        let mask = low_fields(n);
        let reversed = crate::simd::reverse_codes(self.load_codes(end - n) & mask);
        (reversed >> (2 * (BASES_PER_WORD - n))) ^ mask
    }

    /// Up to 32 base codes starting at `pos`, LSB-first in a single word:
    /// the shift-and-merge load shared by the word-batched serializer.
    /// Codes past the end of the sequence read as zero.
    #[inline]
    fn load_codes(&self, pos: usize) -> u64 {
        let bit = 2 * pos;
        let (w, sh) = (bit / 64, (bit % 64) as u32);
        let next = self.words.get(w + 1).copied().unwrap_or(0);
        // `next << (64 − sh)` in two shifts, so `sh = 0` shifts it out
        // instead of overflowing.
        (self.words[w] >> sh) | ((next << 1) << (63 - sh))
    }
}

/// How two unequal words of LSB-first base codes compare as strings: by
/// their lowest differing two-bit field.
#[inline]
fn first_field_order(a: u64, b: u64) -> Ordering {
    let shift = (a ^ b).trailing_zeros() & !1;
    ((a >> shift) & 3).cmp(&((b >> shift) & 3))
}

/// A word whose low `n` two-bit fields (`n ≤ 32`) are all ones.
#[inline]
fn low_fields(n: usize) -> u64 {
    if n >= BASES_PER_WORD {
        u64::MAX
    } else {
        (1u64 << (2 * n)) - 1
    }
}

impl fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bases() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> PackedSeq {
        let mut s = PackedSeq::new();
        s.extend(iter);
        s
    }
}

impl Extend<Base> for PackedSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl PartialOrd for PackedSeq {
    fn partial_cmp(&self, other: &PackedSeq) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PackedSeq {
    /// Lexicographic base-by-base order (the packing is LSB-first, so word
    /// comparison would be wrong; we walk the bases).
    fn cmp(&self, other: &PackedSeq) -> std::cmp::Ordering {
        self.bases().cmp(other.bases())
    }
}

/// Iterator over the bases of a [`PackedSeq`], created by
/// [`PackedSeq::bases`].
///
/// Streams the packed words directly: one word load every 32 bases, one
/// shift+mask per base — no per-base division or bounds re-check. This is
/// the decode path under every scanning hot loop (minimizer scan, k-mer
/// roll), so it matters that it compiles down to register arithmetic.
#[derive(Debug, Clone)]
pub struct Bases<'a> {
    seq: &'a PackedSeq,
    index: usize,
    /// Remaining bits of the current word, shifted so the next base's
    /// 2-bit code sits at bits 0..2. Refilled every `BASES_PER_WORD`.
    word: u64,
}

impl Iterator for Bases<'_> {
    type Item = Base;

    #[inline]
    fn next(&mut self) -> Option<Base> {
        if self.index >= self.seq.len {
            return None;
        }
        if self.index.is_multiple_of(BASES_PER_WORD) {
            self.word = self.seq.words[self.index / BASES_PER_WORD];
        }
        let b = Base::from_code((self.word & 0b11) as u8);
        self.word >>= 2;
        self.index += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.seq.len().saturating_sub(self.index);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Bases<'_> {}

/// Rolling-window iterator over the k-mers of a [`PackedSeq`], created by
/// [`PackedSeq::kmers`]. Each step is O(1): one shift plus one base fetch.
#[derive(Debug, Clone)]
pub struct Kmers<'a> {
    seq: &'a PackedSeq,
    k: usize,
    next: usize,
    current: Option<Kmer>,
}

impl Iterator for Kmers<'_> {
    type Item = Kmer;

    fn next(&mut self) -> Option<Kmer> {
        if self.next + self.k > self.seq.len() {
            return None;
        }
        let kmer = match self.current {
            None => self.seq.kmer_at(0, self.k).ok()?,
            Some(prev) => prev.push_right(self.seq.base(self.next + self.k - 1)),
        };
        self.current = Some(kmer);
        self.next += 1;
        Some(kmer)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.seq.len() + 1).saturating_sub(self.k).saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Kmers<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_roundtrip() {
        for s in ["", "A", "ACGT", "GATTACAGATTACAGATTACAGATTACAGATTACAGATTACA"] {
            let p = PackedSeq::from_ascii(s.as_bytes());
            assert_eq!(p.to_string(), s);
            assert_eq!(p.to_ascii(), s.as_bytes());
            assert_eq!(p.len(), s.len());
        }
    }

    #[test]
    fn unknown_bases_become_a() {
        assert_eq!(PackedSeq::from_ascii(b"ANNGT-").to_string(), "AAAGTA");
    }

    #[test]
    fn push_and_get() {
        let mut s = PackedSeq::new();
        assert!(s.is_empty());
        for (i, b) in [Base::T, Base::G, Base::A].into_iter().enumerate() {
            s.push(b);
            assert_eq!(s.get(i), Some(b));
        }
        assert_eq!(s.get(3), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn kmers_rolling_equals_direct_extraction() {
        let s = PackedSeq::from_ascii(b"ACGTTGCATTGACCAGTTACGGATCAGTTACGGATCA");
        for k in [1, 2, 5, 31, 32, 33, 37] {
            let rolled: Vec<Kmer> = s.kmers(k).collect();
            let direct: Vec<Kmer> =
                (0..=s.len() - k).map(|i| s.kmer_at(i, k).unwrap()).collect();
            assert_eq!(rolled, direct, "k={k}");
            assert_eq!(rolled.len(), s.len() - k + 1);
        }
    }

    #[test]
    fn kmers_shorter_than_k_is_empty() {
        let s = PackedSeq::from_ascii(b"ACG");
        assert_eq!(s.kmers(4).count(), 0);
        assert_eq!(s.kmers(4).size_hint(), (0, Some(0)));
    }

    #[test]
    fn kmer_at_bounds() {
        let s = PackedSeq::from_ascii(b"ACGTA");
        assert!(s.kmer_at(3, 3).is_err());
        assert_eq!(s.kmer_at(2, 3).unwrap().to_string(), "GTA");
    }

    #[test]
    fn revcomp_involution() {
        let s = PackedSeq::from_ascii(b"ACGTTGCATTGACCAGT");
        assert_eq!(s.revcomp().revcomp(), s);
        assert_eq!(PackedSeq::from_ascii(b"AACG").revcomp().to_string(), "CGTT");
    }

    #[test]
    fn slice_extracts_window() {
        let s = PackedSeq::from_ascii(b"ACGTTGCA");
        assert_eq!(s.slice(2, 4).to_string(), "GTTG");
        assert_eq!(s.slice(0, 0).len(), 0);
        assert_eq!(s.slice(8, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        PackedSeq::from_ascii(b"ACGT").slice(2, 3);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mk = |s: &str| PackedSeq::from_ascii(s.as_bytes());
        assert!(mk("AAA") < mk("AAC"));
        assert!(mk("AA") < mk("AAA"));
        assert!(mk("T") > mk("GGGG"));
    }

    #[test]
    fn collect_and_extend() {
        let s: PackedSeq = [Base::G, Base::A, Base::T].into_iter().collect();
        assert_eq!(s.to_string(), "GAT");
        let mut s2 = s.clone();
        s2.extend([Base::C]);
        assert_eq!(s2.to_string(), "GATC");
    }

    #[test]
    fn write_packed_range_matches_per_base_packing() {
        // 70 bases so ranges cross both word boundaries.
        let s = PackedSeq::from_ascii(
            b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGAGGCTAT",
        );
        let reference = |start: usize, len: usize| -> Vec<u8> {
            let mut out = Vec::new();
            let mut byte = 0u8;
            for i in 0..len {
                byte |= s.base(start + i).code() << (2 * (i % 4));
                if i % 4 == 3 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if !len.is_multiple_of(4) {
                out.push(byte);
            }
            out
        };
        for start in [0, 1, 2, 3, 4, 30, 31, 32, 33, 61, 63, 64, 65] {
            for len in [0, 1, 2, 3, 4, 5, 6] {
                if start + len > s.len() {
                    continue;
                }
                let mut got = vec![0xAB]; // pre-existing bytes are appended to
                s.write_packed_range(start, len, &mut got);
                assert_eq!(got[0], 0xAB);
                assert_eq!(&got[1..], reference(start, len), "start={start} len={len}");
            }
        }
        // Whole-sequence range hits the tail word.
        let mut got = Vec::new();
        s.write_packed_range(0, s.len(), &mut got);
        assert_eq!(got, reference(0, s.len()));
    }

    /// The one-byte-per-step reference serializer (4 bases per
    /// iteration) that the word-batched
    /// [`write_packed_range`](PackedSeq::write_packed_range) must match.
    fn write_packed_range_scalar(s: &PackedSeq, start: usize, len: usize, out: &mut Vec<u8>) {
        let mut produced = 0usize;
        while produced < len {
            let take = (len - produced).min(4);
            let bit = 2 * (start + produced);
            let (w, sh) = (bit / 64, (bit % 64) as u32);
            let mut chunk = s.words[w] >> sh;
            if sh > 56 && w + 1 < s.words.len() {
                chunk |= s.words[w + 1] << (64 - sh);
            }
            let mask: u8 = if take == 4 { 0xFF } else { (1u8 << (2 * take)) - 1 };
            out.push((chunk as u8) & mask);
            produced += take;
        }
    }

    #[test]
    fn write_packed_range_fast_path_matches_scalar() {
        // 150 bases: long ranges hit the 32-base word-batched path.
        let ascii: Vec<u8> = (0..150).map(|i| b"ACGTTGCATGGACCAGT"[i % 17]).collect();
        let s = PackedSeq::from_ascii(&ascii);
        for start in [0, 1, 3, 31, 32, 33, 63, 64, 65, 100] {
            for len in [0, 1, 2, 3, 5, 7, 15, 30, 31, 32, 33, 50, 64, 65, 85] {
                if start + len > s.len() {
                    continue;
                }
                let mut fast = Vec::new();
                s.write_packed_range(start, len, &mut fast);
                let mut scalar = Vec::new();
                write_packed_range_scalar(&s, start, len, &mut scalar);
                assert_eq!(fast, scalar, "start={start} len={len}");
            }
        }
    }

    /// The base-at-a-time reverse-complement serializer that the
    /// word-batched reverse-complement steps of
    /// [`write_canonical_range`](PackedSeq::write_canonical_range) must
    /// match: read the range from its right end, complement each base,
    /// pack four to a byte.
    fn write_revcomp_range_scalar(s: &PackedSeq, start: usize, len: usize, out: &mut Vec<u8>) {
        let mut byte = 0u8;
        for i in 0..len {
            byte |= s.base(start + len - 1 - i).complement().code() << (2 * (i % 4));
            if i % 4 == 3 {
                out.push(byte);
                byte = 0;
            }
        }
        if !len.is_multiple_of(4) {
            out.push(byte);
        }
    }

    /// 100 bases: a range of any start and length up to 96 within it
    /// spans up to four words, and every alignment occurs.
    fn three_words() -> PackedSeq {
        let ascii: Vec<u8> = (0..100).map(|i| b"ACGTTGCATGGACCAGTTA"[(i * 7 + i / 3) % 19]).collect();
        PackedSeq::from_ascii(&ascii)
    }

    /// What `write_canonical_range` writes and returns, by the
    /// definition: the range and its reverse complement copied out and
    /// compared, the smaller packed a base at a time.
    fn write_canonical_range_scalar(
        s: &PackedSeq,
        start: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Ordering {
        let range = s.slice(start, len);
        let order = range.cmp(&range.revcomp());
        if order == Ordering::Greater {
            write_revcomp_range_scalar(s, start, len, out);
        } else {
            write_packed_range_scalar(s, start, len, out);
        }
        order
    }

    #[test]
    fn write_canonical_range_matches_scalar_at_every_start_and_length() {
        // The sequence and its reverse complement: a range written forward
        // in one is written reverse complemented in the other, so both
        // word paths run at every start and length.
        for s in [three_words(), three_words().revcomp()] {
            let mut flipped = 0;
            for start in 0..=s.len() {
                for len in 0..=(s.len() - start).min(96) {
                    let mut fast = vec![0xCD]; // pre-existing bytes are appended to
                    let order = s.write_canonical_range(start, len, &mut fast);
                    let mut scalar = vec![0xCD];
                    let want = write_canonical_range_scalar(&s, start, len, &mut scalar);
                    assert_eq!(order, want, "start={start} len={len}");
                    assert_eq!(fast, scalar, "start={start} len={len}");
                    flipped += usize::from(order == Ordering::Greater);
                }
            }
            assert!(flipped > 1000, "{flipped} ranges reverse complemented");
        }
    }

    #[test]
    fn write_canonical_range_writes_a_range_and_its_reverse_complement_alike() {
        let s = three_words();
        let twin = s.revcomp();
        for start in 0..=s.len() {
            for len in 0..=(s.len() - start).min(96) {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let order = s.write_canonical_range(start, len, &mut a);
                let mirror = s.len() - start - len;
                assert_eq!(twin.write_canonical_range(mirror, len, &mut b), order.reverse());
                assert_eq!(a, b, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn palindromes_compare_equal_past_the_first_word() {
        // Palindromes whose first word is equal to its twin's, the last
        // word part-filled or whole; one base more in front breaks them.
        let word = "ACGTTGCATGGACCAGTTACGGATCAGGCATT";
        for half in ["A", "ACG", &word[..31], word, &format!("{word}AGC")] {
            let left = PackedSeq::from_ascii(half.as_bytes());
            let mut pal = PackedSeq::from_ascii(b"G");
            pal.extend(left.bases().chain(left.revcomp().bases()));
            let mut out = Vec::new();
            assert_eq!(pal.write_canonical_range(1, pal.len() - 1, &mut out), Ordering::Equal, "{pal}");
            let mut forward = Vec::new();
            pal.write_packed_range(1, pal.len() - 1, &mut forward);
            assert_eq!(out, forward, "{pal}");
            let whole = pal.write_canonical_range(0, pal.len(), &mut Vec::new());
            assert_ne!(whole, Ordering::Equal, "{pal}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_canonical_range_rejects_overrun() {
        PackedSeq::from_ascii(b"ACGT").write_canonical_range(1, 4, &mut Vec::new());
    }

    #[test]
    fn extend_from_ascii_matches_push_loop() {
        let chunks: [&[u8]; 4] = [b"ACGT", b"NNNNNNNNNNNNNNNNNNNNNNNNNNNN", b"acgtacgt", b"T"];
        let mut fast = PackedSeq::new();
        let mut slow = PackedSeq::new();
        for chunk in chunks {
            fast.extend_from_ascii(chunk);
            for &ch in chunk {
                slow.push(Base::from_ascii(ch));
            }
        }
        assert_eq!(fast, slow);
        fast.clear();
        assert!(fast.is_empty());
        fast.extend_from_ascii(b"GATTACA");
        assert_eq!(fast.to_string(), "GATTACA");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_packed_range_rejects_overrun() {
        let mut out = Vec::new();
        PackedSeq::from_ascii(b"ACGT").write_packed_range(2, 3, &mut out);
    }

    #[test]
    fn bases_iterator_is_exact_size() {
        let s = PackedSeq::from_ascii(b"ACGTACGT");
        let mut it = s.bases();
        assert_eq!(it.len(), 8);
        it.next();
        assert_eq!(it.len(), 7);
    }
}
