use std::cmp::Ordering;

use dna::{Base, PackedSeq};

use crate::view::RecordKey;

/// Number of bytes [`encode_superkmer_slice`] produces for a core of
/// `core_len` bases: a 3-byte header plus 2-bit packed bases.
///
/// The 2-bit packing is the paper's I/O optimisation: roughly ¼ of the
/// byte-per-base representation, which shrinks both the partition files on
/// disk and the host↔device transfers.
pub fn encoded_len(core_len: usize) -> usize {
    3 + core_len.div_ceil(4)
}

/// Flag bit 6: a LEB128 `u32` copy count follows the packed core. A
/// record without it stands for one copy.
pub(crate) const WEIGHTED: u8 = 1 << 6;

/// Flag bit 7: reserved; a record that sets it is rejected.
pub(crate) const RESERVED: u8 = 1 << 7;

/// Appends the record `key` names to `out` as a record of `weight`
/// copies: the paper's record for one copy, flag bit 6 and the LEB128
/// suffix otherwise.
pub(crate) fn write_record(key: &RecordKey<'_>, weight: u32, out: &mut Vec<u8>) {
    let [lo, hi, flags] = key.head;
    out.extend_from_slice(&[lo, hi, if weight > 1 { flags | WEIGHTED } else { flags }]);
    out.extend_from_slice(key.payload);
    if weight <= 1 {
        return;
    }
    let mut w = weight;
    while w >= 0x80 {
        out.push(w as u8 | 0x80);
        w >>= 7;
    }
    out.push(w as u8);
}

/// Serialises the superkmer covering k-mer positions `first..=last` of
/// `read` into `out` (appending) in the compact partition record format:
///
/// | bytes | content |
/// |---|---|
/// | 0–1 | core length in bases, little-endian `u16` |
/// | 2 | flags: bit 0 = has left ext, bit 1 = has right ext, bits 2–3 = left base code, bits 4–5 = right base code, bit 6 = weighted, bit 7 reserved |
/// | 3… | core bases, 2-bit packed, 4 per byte, LSB-first |
/// | then | weighted records only: the copy count, a LEB128 `u32` ≥ 1 |
///
/// This function writes one copy (bit 6 clear, no suffix): the record
/// Step 1 scans. [`PartitionStore`](crate::PartitionStore) combines
/// identical records into one weighted record.
///
/// At odd `k` the record is written in **canonical orientation**: the
/// superkmer read on the other strand — core reversed and complemented,
/// the left extension the complement of the right one and the right the
/// complement of the left, a missing one moving sides the same way — is
/// the same superkmer, and of the two the one whose core is the smaller
/// string is written (on a palindromic core, the smaller
/// `(left, right)` extension pair, a missing extension below every
/// base). So a superkmer and its reverse complement encode to the same
/// bytes, and combine. Minimizers are canonical, so both strands route
/// it to the same partition; Step 2 canonicalises every k-mer and edge,
/// so the graph does not depend on which orientation a record is in,
/// and readers accept either. At even `k` a k-mer can be its own
/// reverse complement, and the graph records such a k-mer's edges in
/// the orientation it is read in, so there a record keeps the read's
/// orientation.
///
/// The minimizer is *not* stored: every k-mer of the superkmer shares it,
/// so a consumer that needs it recomputes it from the first k-mer, and
/// partition membership is implied by the file the record lives in.
/// [`SuperkmerView::parse`](crate::SuperkmerView::parse) is the reader.
///
/// This is Step 1's emit primitive, with **zero intermediate
/// allocation**: the core's 2-bit payload is bit-shifted straight out of
/// the read's packed words, in the orientation it chooses
/// ([`PackedSeq::write_canonical_range`]; at even `k`,
/// [`PackedSeq::write_packed_range`]), and no branch depends on that
/// orientation.
///
/// `left_ext`/`right_ext` are the adjacency extension bases; callers
/// scanning a whole read derive them as `read[first−1]` / `read[last+k]`
/// when those positions exist (see [`crate::SuperkmerScanner`]).
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::{encode_superkmer_slice, encoded_len, SuperkmerView};
///
/// # fn main() -> msp::Result<()> {
/// let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGTTTGA");
/// // K-mer positions 0..=2 at k = 5: the core is read[0..7], TGATGGA, with
/// // no left extension and the right extension T.
/// let mut record = Vec::new();
/// encode_superkmer_slice(&read, 0, 2, 5, None, Some(read.base(7)), &mut record);
/// assert_eq!(record.len(), encoded_len(7));
/// let (view, used) = SuperkmerView::parse(&record, 5)?;
/// assert_eq!(used, record.len());
/// // Its reverse complement TCCATCA is the smaller string, so the record
/// // holds that: left extension A (the complement of T), no right one.
/// assert_eq!(view.bases().collect::<PackedSeq>(), read.slice(0, 7).revcomp());
/// assert_eq!((view.left_ext(), view.right_ext()), (Some(dna::Base::A), None));
///
/// // The same superkmer read off the other strand encodes identically.
/// let twin = read.revcomp();
/// let mut twin_record = Vec::new();
/// encode_superkmer_slice(&twin, 13, 15, 5, Some(twin.base(12)), None, &mut twin_record);
/// assert_eq!(twin_record, record);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if the run does not fit the read (`last + k > read.len()` or
/// `first > last`) or the core exceeds 65 535 bases (no realistic read is
/// close).
pub fn encode_superkmer_slice(
    read: &PackedSeq,
    first: usize,
    last: usize,
    k: usize,
    left_ext: Option<Base>,
    right_ext: Option<Base>,
    out: &mut Vec<u8>,
) {
    assert!(first <= last, "empty superkmer run {first}..={last}");
    let core_len = last - first + k;
    let len = u16::try_from(core_len).expect("superkmer core exceeds u16 length");
    let flags =
        left_ext.map_or(0, |b| 1 | (b.code() << 2)) | right_ext.map_or(0, |b| 2 | (b.code() << 4));
    let [lo, hi] = len.to_le_bytes();
    out.extend_from_slice(&[lo, hi, flags]);
    if k.is_multiple_of(2) {
        read.write_packed_range(first, core_len, out);
        return;
    }
    let order = read.write_canonical_range(first, core_len, out);
    // A palindromic core is the same bases either way: the extension
    // pair decides. `|` rather than `||`, so no branch waits on `order`.
    let twin_exts = || (right_ext.map(Base::complement), left_ext.map(Base::complement));
    let flip = (order == Ordering::Greater)
        | (order == Ordering::Equal && twin_exts() < (left_ext, right_ext));
    // Selected by a mask, not a branch: `flip` is a coin toss per record.
    let at = out.len() - encoded_len(core_len);
    out[at + 2] = flags ^ ((flags ^ twin_flags(flags)) & u8::from(flip).wrapping_neg());
}

/// The flags byte of a record's reverse complement, extension bits only:
/// the left and right presence bits and base fields swap sides, and a
/// present base is complemented (a missing one stays zero).
#[inline]
fn twin_flags(flags: u8) -> u8 {
    let swapped =
        ((flags & 1) << 1) | ((flags >> 1) & 1) | ((flags & 0b1100) << 2) | ((flags >> 2) & 0b1100);
    swapped ^ ((swapped & 1) * 0b1100) ^ (((swapped >> 1) & 1) * 0b11_0000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuperkmerView;

    /// The superkmer `(core, left, right)` as a record of odd `k` holds
    /// it, by the definition: it or its reverse complement (core reversed
    /// and complemented, extensions complemented and swapped), whichever
    /// is smaller — core first, then the extension pair.
    fn canonical_by_definition(
        core: &str,
        left: Option<Base>,
        right: Option<Base>,
    ) -> (String, Option<Base>, Option<Base>) {
        let twin_core: String =
            core.bytes().rev().map(|b| Base::from_ascii(b).complement().to_ascii() as char).collect();
        let twin = (twin_core, right.map(Base::complement), left.map(Base::complement));
        (core.to_owned(), left, right).min(twin)
    }

    /// The format spelled out base by base — what the word-shifting
    /// encoder must reproduce at every alignment.
    fn encode_by_definition(core: &str, left: Option<Base>, right: Option<Base>) -> Vec<u8> {
        let mut out = (core.len() as u16).to_le_bytes().to_vec();
        out.push(
            left.map_or(0, |b| 1 | (b.code() << 2)) | right.map_or(0, |b| 2 | (b.code() << 4)),
        );
        for chunk in core.as_bytes().chunks(4) {
            let byte = chunk.iter().enumerate().fold(0u8, |acc, (i, &ch)| {
                acc | (Base::from_ascii(ch).code() << (2 * i))
            });
            out.push(byte);
        }
        out
    }

    #[test]
    fn slice_encoding_follows_the_format_at_every_alignment() {
        // Cores starting at every offset mod 32 and crossing word
        // boundaries, with every extension combination.
        let text: String = (0..150).map(|i| "ACGTTGCA".as_bytes()[(i * 7 + i / 5) % 8] as char).collect();
        let read = PackedSeq::from_ascii(text.as_bytes());
        let exts = [(None, None), (Some(Base::G), None), (None, Some(Base::T)), (Some(Base::C), Some(Base::A))];
        for k in [5usize, 21, 33] {
            for first in 0..40 {
                for span in [0usize, 1, 3, 30, 70] {
                    let last = first + span;
                    let (left, right) = exts[(first + span) % 4];
                    let mut buf = Vec::new();
                    encode_superkmer_slice(&read, first, last, k, left, right, &mut buf);
                    let (core, left, right) =
                        canonical_by_definition(&text[first..last + k], left, right);
                    let want = encode_by_definition(&core, left, right);
                    assert_eq!(buf, want, "k={k} first={first} last={last}");
                    assert_eq!(buf.len(), encoded_len(core.len()));
                    let (view, used) = SuperkmerView::parse(&buf, k).unwrap();
                    assert_eq!(used, buf.len());
                    assert_eq!(view.bases().collect::<PackedSeq>().to_string(), core);
                    assert_eq!((view.left_ext(), view.right_ext()), (left, right));
                    assert_eq!(view.kmer_count(), span + 1);
                }
            }
        }
    }

    /// Every run of `read`, encoded with its extensions as Step 1 emits
    /// it, in scan order.
    fn encode_runs(read: &PackedSeq, k: usize, p: usize) -> Vec<Vec<u8>> {
        crate::testutil::records_of(read, k, p).into_iter().map(|(_, record, _)| record).collect()
    }

    #[test]
    fn a_run_and_its_reverse_complement_encode_to_the_same_bytes() {
        // Reads of both parities, with runs at both ends (one extension
        // missing) and, at k = p, single-k-mer runs.
        let reads = [
            "TGATGGATGAACCAGTTTGAGGCATTAGGC",
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATG",
            "GATTACA",
        ];
        for text in reads {
            let read = PackedSeq::from_ascii(text.as_bytes());
            let twin = read.revcomp();
            for (k, p) in [(5, 3), (7, 4), (5, 5), (7, 7)] {
                let forward = encode_runs(&read, k, p);
                let mut backward = encode_runs(&twin, k, p);
                backward.reverse(); // the twin's runs come in mirror order
                assert_eq!(forward, backward, "{text} k={k} p={p}");
                // The first and last runs each lack an extension.
                assert!(forward.len() >= 2 || text.len() == 7, "{text} k={k} p={p}");
            }
        }
        // An even-length palindromic core (ACGCGT is its own reverse
        // complement) of two 5-mers between unequal extensions, between
        // equal ones, and with one missing.
        for (text, first) in [("GACGCGTA", 1), ("CACGCGTG", 1), ("TACGCGTC", 1), ("ACGCGTAA", 0)] {
            let read = PackedSeq::from_ascii(text.as_bytes());
            let twin = read.revcomp();
            let encode = |read: &PackedSeq, first: usize| {
                let left = first.checked_sub(1).map(|i| read.base(i));
                let right = (first + 6 < read.len()).then(|| read.base(first + 6));
                let mut out = Vec::new();
                encode_superkmer_slice(read, first, first + 1, 5, left, right, &mut out);
                (out, left, right)
            };
            let (record, left, right) = encode(&read, first);
            let (twin_record, ..) = encode(&twin, read.len() - 6 - first);
            assert_eq!(record, twin_record, "{text}");
            let (want_core, want_left, want_right) = canonical_by_definition("ACGCGT", left, right);
            assert_eq!(record, encode_by_definition(&want_core, want_left, want_right), "{text}");
        }
    }

    #[test]
    fn twin_flags_swap_and_complement_the_extensions() {
        let exts = [None, Some(Base::A), Some(Base::C), Some(Base::G), Some(Base::T)];
        let flags = |left: Option<Base>, right: Option<Base>| {
            left.map_or(0, |b| 1 | (b.code() << 2)) | right.map_or(0, |b| 2 | (b.code() << 4))
        };
        for left in exts {
            for right in exts {
                let twin = flags(right.map(Base::complement), left.map(Base::complement));
                assert_eq!(twin_flags(flags(left, right)), twin, "{left:?} {right:?}");
            }
        }
    }

    #[test]
    fn at_even_k_a_record_keeps_the_read_orientation() {
        // TGATGGA's reverse complement is the smaller string, yet at
        // k = 4 the record spells the read.
        let read = PackedSeq::from_ascii(b"TGATGGATGA");
        let mut record = Vec::new();
        encode_superkmer_slice(&read, 0, 3, 4, None, Some(read.base(7)), &mut record);
        assert_eq!(record, encode_by_definition("TGATGGA", None, Some(Base::T)));
    }

    #[test]
    fn a_read_and_its_reverse_complement_partition_to_equal_record_multisets() {
        let text = "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGAGGCTATTTGACC";
        let read = PackedSeq::from_ascii(text.as_bytes());
        for (k, p) in [(7, 4), (15, 7), (33, 11)] {
            let sorted = |read: PackedSeq| {
                crate::partition_in_memory(&[read], k, p, 8)
                    .unwrap()
                    .iter()
                    .map(|part| {
                        let mut records: Vec<_> = crate::PartitionSlices::index(part, k, p)
                            .unwrap()
                            .iter()
                            .map(|v| (v.bases().collect::<PackedSeq>(), v.left_ext(), v.right_ext()))
                            .collect();
                        records.sort();
                        records
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(sorted(read.clone()), sorted(read.revcomp()), "k={k} p={p}");
        }
    }

    #[test]
    fn weights_round_trip_through_the_suffix() {
        let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGTTTGA");
        let mut record = Vec::new();
        encode_superkmer_slice(&read, 2, 4, 5, Some(read.base(1)), None, &mut record);
        let suffixes = [(1u32, 0), (2, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3), (u32::MAX, 5)];
        for (weight, suffix) in suffixes {
            let mut out = Vec::new();
            write_record(&SuperkmerView::parse(&record, 5).unwrap().0.key(), weight, &mut out);
            assert_eq!(out.len(), record.len() + suffix, "weight {weight}");
            assert_eq!(out[2] & WEIGHTED != 0, weight > 1, "weight {weight}");
            let (view, used) = SuperkmerView::parse(&out, 5).unwrap();
            assert_eq!((view.weight(), used), (weight, out.len()), "weight {weight}");
            assert_eq!(view.left_ext(), Some(read.base(1)));
            assert_eq!(view.right_ext(), None);
            assert_eq!(view.bases().collect::<PackedSeq>(), read.slice(2, 7));
        }
    }

    #[test]
    fn encoding_is_compact() {
        // ~¼ of byte-per-base, the paper's claim for the encoded output.
        for core_len in [31usize, 40, 101] {
            let text_size = core_len + 2;
            assert!(encoded_len(core_len) <= text_size / 3, "encoding not compact enough");
        }
    }

    #[test]
    #[should_panic(expected = "empty superkmer run")]
    fn slice_encoding_rejects_inverted_run() {
        let read = PackedSeq::from_ascii(b"ACGTACGT");
        encode_superkmer_slice(&read, 2, 1, 4, None, None, &mut Vec::new());
    }
}
