//! Zero-copy decoding of encoded partition buffers.
//!
//! The record bytes are the only superkmer representation: the
//! hash-graph kernel only ever *reads* the core bases left to right, so
//! the loaded partition buffer itself is the backing store and nothing is
//! materialised per record.
//!
//! This module provides the borrowed view API Step 2 replays through:
//!
//! * [`SuperkmerView`] — a non-owning record view (a slice into the
//!   partition buffer plus the decoded 3-byte header). Base access is one
//!   shift/mask on the packed payload; nothing is copied.
//! * [`PartitionSlices`] — a record index over a whole partition buffer,
//!   built in one validating pass. Provides O(1) random access to views,
//!   which the data-parallel device kernels need (`execute(n, |i| …)`),
//!   at a cost of 4 bytes per record.
//!
//! Validation happens once, at indexing time ([`PartitionSlices::index`]
//! checks every header against the buffer length and `core_len ≥ k`), so
//! view accessors can be panic-free simple arithmetic afterwards.

use dna::Base;

use crate::{MspError, Result};

/// A borrowed, validated view of one encoded superkmer record.
///
/// Lifetime-bound to the partition byte buffer it was cut from; holds the
/// decoded header fields and a slice of the 2-bit packed core payload.
/// Copy-cheap (one slice + three small integers) and allocation-free.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::PartitionSlices;
///
/// # fn main() -> msp::Result<()> {
/// let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGTTTGA");
/// let buf = msp::partition_in_memory(std::slice::from_ref(&read), 5, 3, 1)?.remove(0);
/// let slices = PartitionSlices::index(&buf, 5, 3)?;
/// let total: usize = slices.iter().map(|v| v.kmer_count()).sum();
/// assert_eq!(total, read.len() - 5 + 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SuperkmerView<'a> {
    /// 2-bit packed core bases, 4 per byte, LSB-first; `ceil(core_len/4)`
    /// bytes, validated at construction.
    payload: &'a [u8],
    core_len: usize,
    k: usize,
    flags: u8,
}

impl<'a> SuperkmerView<'a> {
    /// Cuts one record view from the front of `bytes`, returning it and
    /// the encoded length consumed — the reader of the format
    /// [`encode_superkmer_slice`](crate::encode_superkmer_slice) writes,
    /// with no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::CorruptRecord`] if `bytes` is too short for
    /// the header or the declared payload, or the core cannot hold one
    /// k-mer. Offsets are relative to `bytes`; callers add their own.
    pub fn parse(bytes: &'a [u8], k: usize) -> Result<(SuperkmerView<'a>, usize)> {
        if bytes.len() < 3 {
            return Err(MspError::CorruptRecord {
                offset: 0,
                reason: format!("{} bytes left, header needs 3", bytes.len()),
            });
        }
        let core_len = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let flags = bytes[2];
        let payload_len = core_len.div_ceil(4);
        let total = 3 + payload_len;
        if bytes.len() < total {
            return Err(MspError::CorruptRecord {
                offset: 0,
                reason: format!(
                    "payload of {payload_len} bytes truncated to {}",
                    bytes.len() - 3
                ),
            });
        }
        if core_len < k {
            return Err(MspError::CorruptRecord {
                offset: 0,
                reason: format!("core of {core_len} bases cannot hold a {k}-mer"),
            });
        }
        Ok((
            SuperkmerView { payload: &bytes[3..total], core_len, k, flags },
            total,
        ))
    }

    /// Number of bases in the core.
    #[inline]
    pub fn core_len(&self) -> usize {
        self.core_len
    }

    /// The k-mer length this record was encoded for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of k-mers the record contains (`core_len − k + 1`).
    #[inline]
    pub fn kmer_count(&self) -> usize {
        self.core_len - self.k + 1
    }

    /// Core base `i`, decoded straight from the packed payload.
    ///
    /// # Panics
    ///
    /// Panics (in debug; reads garbage-free but wrong in release only if
    /// the index check is elided — it is not: slice indexing stays
    /// checked) if `i ≥ core_len()`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        debug_assert!(i < self.core_len, "base index {i} out of {}", self.core_len);
        // `Base::from_code` masks to two bits, so no pre-masking needed.
        Base::from_code(self.payload[i >> 2] >> (2 * (i & 3)))
    }

    /// The read base immediately left of the core, if recorded.
    #[inline]
    pub fn left_ext(&self) -> Option<Base> {
        (self.flags & 1 != 0).then(|| Base::from_code(self.flags >> 2))
    }

    /// The read base immediately right of the core, if recorded.
    #[inline]
    pub fn right_ext(&self) -> Option<Base> {
        (self.flags & 2 != 0).then(|| Base::from_code(self.flags >> 4))
    }

    /// Iterates the core bases left to right without allocating.
    pub fn bases(&self) -> impl Iterator<Item = Base> + 'a {
        let payload = self.payload;
        (0..self.core_len).map(move |i| Base::from_code(payload[i >> 2] >> (2 * (i & 3))))
    }

    /// The raw 2-bit packed core payload (4 bases per byte, LSB-first;
    /// `ceil(core_len/4)` bytes, final byte zero-padded).
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Word-at-a-time payload decoder: yields the core's 2-bit codes in
    /// `u64` chunks of 32 codes, LSB-first in push order (code `i` of a
    /// chunk at bits `2i..2i+2`), with the final chunk zero-padded. One
    /// 8-byte load replaces 32 per-base byte-index/shift/mask round
    /// trips — the decode half of the Step-2 word-parallel replay.
    ///
    /// The payload layout makes this a straight memory copy: byte `b`
    /// holds codes `4b..4b+4` LSB-first, so `u64::from_le_bytes` over 8
    /// consecutive payload bytes is exactly 32 consecutive codes.
    #[inline]
    pub fn code_words(&self) -> CodeWords<'a> {
        CodeWords { payload: self.payload }
    }
}

/// Iterator over a superkmer core's packed codes in 32-code `u64` chunks,
/// created by [`SuperkmerView::code_words`]. Past the end of the payload
/// it keeps yielding `0` — consumers that eagerly refill one chunk ahead
/// of the cursor (the replay kernel) never need an end check.
#[derive(Debug, Clone, Copy)]
pub struct CodeWords<'a> {
    payload: &'a [u8],
}

impl CodeWords<'_> {
    /// The next 32 codes (zero-padded past the payload end). Infinite by
    /// design; the caller bounds consumption by `core_len`.
    #[inline]
    pub fn next_chunk(&mut self) -> u64 {
        if self.payload.len() >= 8 {
            let chunk = u64::from_le_bytes(self.payload[..8].try_into().expect("8 bytes"));
            self.payload = &self.payload[8..];
            chunk
        } else {
            let mut buf = [0u8; 8];
            buf[..self.payload.len()].copy_from_slice(self.payload);
            self.payload = &[];
            u64::from_le_bytes(buf)
        }
    }
}

/// A validated record index over one encoded partition buffer.
///
/// Built in a single pass that checks every record header, after which
/// [`view`](Self::view) is unconditional O(1) arithmetic — exactly what
/// the index-parallel Step-2 kernels (`device.execute(n, |i| …)`) need.
///
/// Memory cost is 4 bytes per record (a `u32` start offset).
#[derive(Debug)]
pub struct PartitionSlices<'a> {
    bytes: &'a [u8],
    /// Start offset of each record. `u32` suffices: partitions are sized
    /// to fit in memory and the format caps cores at 64 KiB anyway;
    /// [`index`](Self::index) rejects buffers over 4 GiB.
    offsets: Vec<u32>,
    k: usize,
    p: usize,
}

impl<'a> PartitionSlices<'a> {
    /// Indexes an encoded partition buffer, validating every record.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::InvalidParams`] for bad `k`/`p`,
    /// [`MspError::CorruptRecord`] (with an absolute byte offset) for a
    /// truncated or inconsistent record, and rejects buffers ≥ 4 GiB.
    pub fn index(bytes: &'a [u8], k: usize, p: usize) -> Result<PartitionSlices<'a>> {
        if p < 1 || p > k || k > dna::MAX_K {
            return Err(MspError::InvalidParams { k, p });
        }
        if u32::try_from(bytes.len()).is_err() {
            return Err(MspError::CorruptRecord {
                offset: 0,
                reason: format!("partition buffer of {} bytes exceeds u32 indexing", bytes.len()),
            });
        }
        let mut offsets = Vec::with_capacity(bytes.len() / 16);
        let mut offset = 0usize;
        while offset < bytes.len() {
            match SuperkmerView::parse(&bytes[offset..], k) {
                Ok((_, used)) => {
                    offsets.push(offset as u32);
                    offset += used;
                }
                Err(MspError::CorruptRecord { offset: rel, reason }) => {
                    return Err(MspError::CorruptRecord {
                        offset: rel + offset as u64,
                        reason,
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(PartitionSlices { bytes, offsets, k, p })
    }

    /// Indexes a CRC32-*framed* partition file buffer (the on-disk format
    /// [`PartitionWriter`](crate::PartitionWriter) produces) without
    /// copying the payload out of the frames. Every frame's checksum is
    /// verified, then records are indexed within each frame — the writer
    /// cuts frames at record boundaries, so no record straddles a frame
    /// and each view still borrows straight from `bytes`.
    ///
    /// This is the zero-copy replay entry point for Step 2 when it loads
    /// whole partition files; use [`index`](Self::index) for raw
    /// (already-deframed or never-framed) record buffers.
    ///
    /// # Errors
    ///
    /// Returns [`MspError::InvalidParams`] for bad `k`/`p`, and
    /// [`MspError::CorruptRecord`] (with an absolute byte offset into the
    /// framed buffer) for a truncated frame, a checksum mismatch, or a
    /// record that is inconsistent within its frame.
    pub fn index_framed(bytes: &'a [u8], k: usize, p: usize) -> Result<PartitionSlices<'a>> {
        Self::index_framed_in(bytes, k, p, None)
    }

    /// [`index_framed`](Self::index_framed) with a partition id baked
    /// into error payloads, so recovery logs name the damaged artifact
    /// (partition id, frame index, byte offset, truncated-tail vs
    /// interior-corruption — see [`crate::frame_payloads_in`]).
    ///
    /// # Errors
    ///
    /// Same classes as [`index_framed`](Self::index_framed).
    pub fn index_framed_in(
        bytes: &'a [u8],
        k: usize,
        p: usize,
        partition: Option<usize>,
    ) -> Result<PartitionSlices<'a>> {
        if p < 1 || p > k || k > dna::MAX_K {
            return Err(MspError::InvalidParams { k, p });
        }
        if u32::try_from(bytes.len()).is_err() {
            return Err(MspError::CorruptRecord {
                offset: 0,
                reason: format!("partition buffer of {} bytes exceeds u32 indexing", bytes.len()),
            });
        }
        let mut offsets = Vec::with_capacity(bytes.len() / 16);
        // Verify all frame checksums up front; offsets below are absolute
        // because each payload is a sub-slice of `bytes`.
        let base = bytes.as_ptr() as usize;
        for payload in crate::frame::frame_payloads_in(bytes, partition)? {
            let frame_start = payload.as_ptr() as usize - base;
            let mut offset = 0usize;
            while offset < payload.len() {
                match SuperkmerView::parse(&payload[offset..], k) {
                    Ok((_, used)) => {
                        offsets.push((frame_start + offset) as u32);
                        offset += used;
                    }
                    Err(MspError::CorruptRecord { offset: rel, reason }) => {
                        return Err(MspError::CorruptRecord {
                            offset: rel + (frame_start + offset) as u64,
                            reason,
                        });
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(PartitionSlices { bytes, offsets, k, p })
    }

    /// Number of records in the partition.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the partition holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The k-mer length the buffer was encoded for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimizer length the buffer was encoded for.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Total k-mers across all records (the kernel's work-item count).
    pub fn total_kmers(&self) -> usize {
        self.iter().map(|v| v.kmer_count()).sum()
    }

    /// Record `i` as a borrowed view. O(1), allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn view(&self, i: usize) -> SuperkmerView<'a> {
        let start = self.offsets[i] as usize;
        // Records were validated by `index`; re-parsing the header is two
        // loads and stays branch-predictable.
        let (view, _) = SuperkmerView::parse(&self.bytes[start..], self.k)
            .expect("record validated at index time");
        view
    }

    /// Iterates every record view in file order without re-validating.
    pub fn iter(&self) -> impl Iterator<Item = SuperkmerView<'a>> + '_ {
        (0..self.offsets.len()).map(|i| self.view(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna::PackedSeq;

    /// All of one read's records, in scan order.
    fn encode_all(read: &str, k: usize, p: usize) -> Vec<u8> {
        let read = PackedSeq::from_ascii(read.as_bytes());
        crate::partition_in_memory(&[read], k, p, 1).unwrap().remove(0)
    }

    /// Record `i`'s encoded bytes.
    fn record_bytes<'a>(slices: &PartitionSlices<'a>, i: usize) -> &'a [u8] {
        let start = slices.offsets[i] as usize;
        &slices.bytes[start..start + crate::encoded_len(slices.view(i).core_len())]
    }

    #[test]
    fn code_words_match_per_base_decode() {
        // Core lengths around every chunk boundary: sub-word, exactly one
        // word, one word + tail, several words.
        for core_len in [5usize, 31, 32, 33, 63, 64, 65, 97] {
            let read: String =
                (0..core_len + 2).map(|i| "ACGT".as_bytes()[(i * 7 + 3) % 4] as char).collect();
            let buf = encode_all(&read, 5, 3);
            let slices = PartitionSlices::index(&buf, 5, 3).unwrap();
            for v in slices.iter() {
                let mut words = v.code_words();
                let mut chunk = 0u64;
                for i in 0..v.core_len() {
                    if i % 32 == 0 {
                        chunk = words.next_chunk();
                    }
                    assert_eq!(
                        (chunk >> (2 * (i % 32))) & 3,
                        v.base(i).code() as u64,
                        "core_len={core_len} i={i}"
                    );
                }
                // Padding past the payload reads as zero, forever.
                assert_eq!(words.next_chunk(), 0);
                assert_eq!(words.next_chunk(), 0);
            }
        }
    }

    #[test]
    fn views_spell_the_read_they_were_cut_from() {
        let read = "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCA";
        let text = read.as_bytes();
        for (k, p) in [(5, 3), (7, 4), (15, 11)] {
            let buf = encode_all(read, k, p);
            let slices = PartitionSlices::index(&buf, k, p).unwrap();
            assert_eq!(slices.total_kmers(), read.len() - k + 1, "k={k} p={p}");
            let mut first = 0usize; // k-mer index of the record's first k-mer
            for v in slices.iter() {
                let core: String = v.bases().map(|b| b.to_ascii() as char).collect();
                assert_eq!(core, read[first..first + v.core_len()], "k={k} p={p}");
                for (i, b) in v.bases().enumerate() {
                    assert_eq!(v.base(i), b);
                }
                assert_eq!(v.k(), k);
                assert_eq!(v.left_ext(), first.checked_sub(1).map(|i| Base::from_ascii(text[i])));
                assert_eq!(
                    v.right_ext(),
                    text.get(first + v.core_len()).map(|&b| Base::from_ascii(b))
                );
                first += v.kmer_count();
            }
        }
    }

    #[test]
    fn random_access_matches_iteration() {
        let buf = encode_all("TGATGGATGAACCAGTTTGAGGCATTAGGCAT", 5, 3);
        let slices = PartitionSlices::index(&buf, 5, 3).unwrap();
        assert!(slices.len() >= 2);
        let seq: Vec<usize> = slices.iter().map(|v| v.core_len()).collect();
        for i in (0..slices.len()).rev() {
            assert_eq!(slices.view(i).core_len(), seq[i]);
        }
        assert_eq!(slices.total_kmers(), 32 - 5 + 1);
    }

    #[test]
    fn parse_rejects_truncated_header_and_payload() {
        assert!(matches!(SuperkmerView::parse(&[5, 0], 3), Err(MspError::CorruptRecord { .. })));
        assert!(SuperkmerView::parse(&[], 3).is_err());
        let buf = encode_all("GATTACAGATTACA", 5, 3);
        let (first, used) = SuperkmerView::parse(&buf, 5).unwrap();
        assert_eq!(used, crate::encoded_len(first.core_len()));
        let err = SuperkmerView::parse(&buf[..used - 1], 5).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // A record whose core (4 bases) is shorter than k = 5.
        let err = SuperkmerView::parse(&[4u8, 0, 0, 0b0001_1011], 5).unwrap_err();
        assert!(err.to_string().contains("cannot hold"), "{err}");
    }

    #[test]
    fn truncated_buffer_reports_absolute_offset() {
        let buf = encode_all("ACGTTGCATGGACCAGTTACGGATCAGG", 5, 3);
        let cut = &buf[..buf.len() - 1];
        let err = PartitionSlices::index(cut, 5, 3).unwrap_err();
        match err {
            MspError::CorruptRecord { offset, .. } => {
                assert!(offset > 0, "offset should point at the failing record");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn framed_index_matches_raw_index() {
        let read = "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCA";
        let raw = encode_all(read, 7, 4);
        let slices_raw = PartitionSlices::index(&raw, 7, 4).unwrap();

        // Re-frame the records in several small frames, cut at record
        // boundaries exactly as the writer does.
        let mut framed = Vec::new();
        let mut pending = Vec::new();
        for i in 0..slices_raw.len() {
            pending.extend_from_slice(record_bytes(&slices_raw, i));
            if pending.len() >= 20 {
                crate::append_frame(&mut framed, &pending);
                pending.clear();
            }
        }
        crate::append_frame(&mut framed, &pending);
        assert!(crate::frame_payloads(&framed).unwrap().len() >= 2, "test needs several frames");

        let slices = PartitionSlices::index_framed(&framed, 7, 4).unwrap();
        assert!(framed.len() > raw.len(), "framing adds headers");
        assert_eq!(slices.len(), slices_raw.len());
        assert_eq!(slices.total_kmers(), slices_raw.total_kmers());
        // Random access works across frame boundaries.
        for i in (0..slices.len()).rev() {
            assert_eq!(record_bytes(&slices, i), record_bytes(&slices_raw, i), "record {i}");
        }
    }

    #[test]
    fn framed_index_detects_interior_bit_flip() {
        let raw = encode_all("ACGTTGCATGGACCAGTTACGGATCAGG", 5, 3);
        let mut framed = Vec::new();
        crate::append_frame(&mut framed, &raw);
        assert!(PartitionSlices::index_framed(&framed, 5, 3).is_ok());
        // Flip one payload bit: raw indexing would happily accept the
        // altered DNA; the framed index must reject it.
        let mut bad = framed.clone();
        let victim = crate::FRAME_HEADER_LEN + raw.len() / 2;
        bad[victim] ^= 0x04;
        let err = PartitionSlices::index_framed(&bad, 5, 3).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn framed_index_of_empty_buffer_is_empty() {
        let slices = PartitionSlices::index_framed(&[], 5, 3).unwrap();
        assert!(slices.is_empty());
        assert!(matches!(
            PartitionSlices::index_framed(&[], 3, 5),
            Err(MspError::InvalidParams { .. })
        ));
    }

    #[test]
    fn core_shorter_than_k_rejected() {
        let buf = [4u8, 0, 0, 0b0001_1011];
        assert!(matches!(
            PartitionSlices::index(&buf, 5, 3),
            Err(MspError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(matches!(
            PartitionSlices::index(&[], 3, 5),
            Err(MspError::InvalidParams { .. })
        ));
    }

    #[test]
    fn empty_buffer_is_empty_index() {
        let slices = PartitionSlices::index(&[], 5, 3).unwrap();
        assert!(slices.is_empty());
        assert_eq!(slices.len(), 0);
    }
}
