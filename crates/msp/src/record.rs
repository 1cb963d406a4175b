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
/// The minimizer is *not* stored: every k-mer of the superkmer shares it,
/// so a consumer that needs it recomputes it from the first k-mer, and
/// partition membership is implied by the file the record lives in.
/// [`SuperkmerView::parse`](crate::SuperkmerView::parse) is the reader.
///
/// This is Step 1's emit primitive, with **zero intermediate
/// allocation**: the core's 2-bit payload is bit-shifted straight out of
/// the read's packed words ([`PackedSeq::write_packed_range`]).
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
/// // K-mer positions 2..=4 at k = 5: the core is read[2..9].
/// let mut record = Vec::new();
/// encode_superkmer_slice(&read, 2, 4, 5, Some(read.base(1)), Some(read.base(9)), &mut record);
/// assert_eq!(record.len(), encoded_len(7));
/// let (view, used) = SuperkmerView::parse(&record, 5)?;
/// assert_eq!(used, record.len());
/// assert_eq!(view.bases().collect::<PackedSeq>(), read.slice(2, 7));
/// assert_eq!(view.left_ext(), Some(read.base(1)));
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
    out.extend_from_slice(&len.to_le_bytes());
    let mut flags = 0u8;
    if let Some(b) = left_ext {
        flags |= 1 | (b.code() << 2);
    }
    if let Some(b) = right_ext {
        flags |= 2 | (b.code() << 4);
    }
    out.push(flags);
    read.write_packed_range(first, core_len, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuperkmerView;

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
                    let core = &text[first..last + k];
                    assert_eq!(buf, encode_by_definition(core, left, right), "k={k} first={first} last={last}");
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
