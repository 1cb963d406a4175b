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
//! * [`RecordCollapse`] — the partition's distinct records with their
//!   multiplicities, so Step 2 replays each distinct record once.
//!
//! A record may stand for several identical copies: flag bit 6 set, a
//! LEB128 weight after the core ([`SuperkmerView::weight`]).
//!
//! Validation happens once, at indexing time ([`PartitionSlices::index`]
//! checks every header against the buffer length and `core_len ≥ k`), so
//! view accessors can be panic-free simple arithmetic afterwards.

use dna::Base;

use crate::record::{RESERVED, WEIGHTED};
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
    /// Copies of the record this one stands for (≥ 1).
    weight: u32,
}

/// A [`MspError::CorruptRecord`] at `offset` into the record.
fn corrupt(offset: usize, reason: String) -> MspError {
    MspError::CorruptRecord { offset: offset as u64, reason }
}

/// Decodes the LEB128 `u32` weight starting at `at`, returning it and the
/// record's end.
fn parse_weight(bytes: &[u8], at: usize) -> Result<(u32, usize)> {
    let mut value = 0u64;
    for i in 0..5 {
        let Some(&byte) = bytes.get(at + i) else {
            return Err(corrupt(at + i, "weight suffix missing or truncated".into()));
        };
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return match u32::try_from(value) {
                Ok(0) => Err(corrupt(at, "weight 0".into())),
                Ok(weight) => Ok((weight, at + i + 1)),
                Err(_) => Err(corrupt(at, format!("weight {value} exceeds u32"))),
            };
        }
    }
    Err(corrupt(at, "weight varint longer than 5 bytes".into()))
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
    /// the header or the declared payload, the core cannot hold one
    /// k-mer, flag bit 7 is set, or a weighted record's suffix is
    /// missing, longer than 5 bytes, 0 or above `u32::MAX`. Offsets are
    /// relative to `bytes`; callers add their own.
    pub fn parse(bytes: &'a [u8], k: usize) -> Result<(SuperkmerView<'a>, usize)> {
        if bytes.len() < 3 {
            return Err(corrupt(0, format!("{} bytes left, header needs 3", bytes.len())));
        }
        let core_len = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let flags = bytes[2];
        if flags & RESERVED != 0 {
            return Err(corrupt(2, format!("flags {flags:#04x} set reserved bit 7")));
        }
        let payload_len = core_len.div_ceil(4);
        let end = 3 + payload_len;
        if bytes.len() < end {
            return Err(corrupt(
                0,
                format!("payload of {payload_len} bytes truncated to {}", bytes.len() - 3),
            ));
        }
        if core_len < k {
            return Err(corrupt(0, format!("core of {core_len} bases cannot hold a {k}-mer")));
        }
        let (weight, total) =
            if flags & WEIGHTED == 0 { (1, end) } else { parse_weight(bytes, end)? };
        Ok((
            SuperkmerView { payload: &bytes[3..end], core_len, k, flags, weight },
            total,
        ))
    }

    /// How many identical copies of this record it stands for: 1 unless
    /// flag bit 6 is set, then its LEB128 suffix.
    #[inline]
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// The record with its weight dropped: what two copies share.
    #[inline]
    pub(crate) fn key(&self) -> RecordKey<'a> {
        let [lo, hi] = (self.core_len as u16).to_le_bytes();
        RecordKey { head: [lo, hi, self.flags & !WEIGHTED], payload: self.payload }
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

    /// Bytes of the buffer the index covers, frame headers included.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
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

    /// Total k-mer occurrences across all records, each record counted
    /// [`weight`](SuperkmerView::weight) times.
    pub fn total_kmers(&self) -> usize {
        self.iter().map(|v| v.kmer_count() * v.weight() as usize).sum()
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

    /// Record `i`'s key and weight, read without re-validating the
    /// record: the collapse's per-record read.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    fn key_weight(&self, i: usize) -> (RecordKey<'a>, u32) {
        let start = self.offsets[i] as usize;
        let weight = if self.bytes[start + 2] & WEIGHTED == 0 { 1 } else { self.view(i).weight() };
        (RecordKey::at(&self.bytes[start..]), weight)
    }

    /// Record `i`'s encoded bytes, weight suffix included.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[cfg(test)]
    pub(crate) fn record_bytes(&self, i: usize) -> &'a [u8] {
        let start = self.offsets[i] as usize;
        let (_, used) = SuperkmerView::parse(&self.bytes[start..], self.k)
            .expect("record validated at index time");
        &self.bytes[start..start + used]
    }
}

/// A partition's distinct superkmer records, each with its multiplicity.
///
/// A record is a pure function of its key — core length, extension
/// flags, payload — so two records with equal keys add exactly the same
/// k-mers and edges per copy. [`collapse`](Self::collapse) keys one
/// open-addressing pass on those keys (the record with flag bit 6
/// masked and its weight suffix dropped) and returns `(first
/// index, weight)` pairs: the index of the record's first copy in the
/// partition and how many copies there are — the sum of the copies'
/// [`weight`](SuperkmerView::weight)s — in first-occurrence order.
/// Replaying each pair once with its weight fills a table exactly as
/// replaying every copy does, and — because every k-mer's first
/// occurrence lies in the first copy of its record — inserts vertices in
/// the same order.
///
/// [`PartitionStore`](crate::PartitionStore) combines each frame it
/// writes to disk with this same collapse; the pass over a whole
/// partition stays because frames kept in memory hold every copy, and a
/// partition that spans several frames holds a record once per frame it
/// occurs in.
///
/// The scratch (a `u64` slot array and the pairs, about 20 bytes a
/// record) is kept between calls, so a warm collapse allocates nothing.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use msp::{PartitionSlices, RecordCollapse};
///
/// # fn main() -> msp::Result<()> {
/// let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGTTTGA");
/// let once = msp::partition_in_memory(std::slice::from_ref(&read), 5, 3, 1)?.remove(0);
/// let thrice = once.repeat(3);
/// let slices = PartitionSlices::index(&thrice, 5, 3)?;
/// let mut collapse = RecordCollapse::default();
/// let distinct = collapse.collapse(&slices);
/// assert!(distinct.len() <= slices.len() / 3);
/// assert_eq!(distinct.iter().map(|&(_, w)| w as usize).sum::<usize>(), slices.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct RecordCollapse {
    /// Open-addressing set over the distinct records: 0 is empty, else
    /// `tag << 32 | (d + 1)`, the high 32 bits of the record's key hash
    /// and `distinct[d]`. The tag spares a key comparison on almost
    /// every slot a probe passes, and growth re-places entries by their
    /// tags alone. At most two thirds full.
    slots: Vec<u64>,
    /// `(first index, weight)` per distinct record, in first-occurrence
    /// order.
    distinct: Vec<(u32, u32)>,
}

impl RecordCollapse {
    /// Collapses `slices` into `(first index, weight)` pairs in
    /// first-occurrence order; the weights sum to the records' weights.
    /// A record whose copies number more than `u32::MAX` takes one more
    /// pair for the excess.
    pub fn collapse(&mut self, slices: &PartitionSlices<'_>) -> &[(u32, u32)] {
        self.clear(slices.len());
        for i in 0..slices.len() {
            let (key, weight) = slices.key_weight(i);
            self.add(i as u32, key, weight, |first| slices.key_weight(first as usize).0);
        }
        &self.distinct
    }

    /// [`collapse`](Self::collapse) over a raw buffer of records cut for
    /// `k`: `(offset, weight)` pairs, each offset that of a distinct
    /// record's first copy in `bytes`.
    ///
    /// # Errors
    ///
    /// [`MspError::CorruptRecord`] for a record that does not parse, its
    /// offset relative to `bytes`.
    pub(crate) fn collapse_bytes(&mut self, bytes: &[u8], k: usize) -> Result<&[(u32, u32)]> {
        self.clear(bytes.len() / 16);
        let mut at = 0;
        while at < bytes.len() {
            let (view, used) = SuperkmerView::parse(&bytes[at..], k).map_err(|e| match e {
                MspError::CorruptRecord { offset, reason } => {
                    MspError::CorruptRecord { offset: offset + at as u64, reason }
                }
                other => other,
            })?;
            self.add(at as u32, view.key(), view.weight(), |first| RecordKey::at(&bytes[first as usize..]));
            at += used;
        }
        Ok(&self.distinct)
    }

    /// Empties the scratch, sized to take `n` distinct records without
    /// growing.
    fn clear(&mut self, n: usize) {
        let size = (n + n / 2).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(size, 0);
        self.distinct.clear();
    }

    /// Counts `weight` copies of the record `key`: onto its distinct
    /// record's weight when one holds the key — `key_of(first)` resolving
    /// a pair's key — or as a new pair `(first, weight)`.
    fn add<'k>(
        &mut self,
        first: u32,
        key: RecordKey<'_>,
        weight: u32,
        key_of: impl Fn(u32) -> RecordKey<'k>,
    ) {
        let tag = key.hash() >> 32;
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tag);
        while self.slots[slot] != 0 {
            let entry = self.slots[slot];
            let d = (entry as u32 - 1) as usize;
            if entry >> 32 == tag && key_of(self.distinct[d].0) == key {
                let sum = &mut self.distinct[d].1;
                match sum.checked_add(weight) {
                    Some(total) => *sum = total,
                    None => self.distinct.push((first, weight)),
                }
                return;
            }
            slot = (slot + 1) & mask;
        }
        self.distinct.push((first, weight));
        self.slots[slot] = tag << 32 | self.distinct.len() as u64;
        if self.distinct.len() * 3 > self.slots.len() * 2 {
            let size = 2 * self.slots.len();
            let old = std::mem::replace(&mut self.slots, vec![0; size]);
            for entry in old.into_iter().filter(|&entry| entry != 0) {
                let mut slot = self.home(entry >> 32);
                while self.slots[slot] != 0 {
                    slot = (slot + 1) & (self.slots.len() - 1);
                }
                self.slots[slot] = entry;
            }
        }
    }

    /// The home slot of a tag: its high bits.
    #[inline]
    fn home(&self, tag: u64) -> usize {
        (tag << 32 >> (64 - self.slots.len().trailing_zeros())) as usize
    }
}

/// A record's identity with its weight dropped: the 3-byte header with
/// flag bit 6 clear, and the packed core. Equal keys add equal k-mers
/// and edges per copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordKey<'a> {
    pub(crate) head: [u8; 3],
    pub(crate) payload: &'a [u8],
}

impl<'a> RecordKey<'a> {
    /// The key of the record `bytes` starts with, which has been parsed
    /// before.
    #[inline]
    pub(crate) fn at(bytes: &'a [u8]) -> RecordKey<'a> {
        let payload_len = (u16::from_le_bytes([bytes[0], bytes[1]]) as usize).div_ceil(4);
        RecordKey { head: [bytes[0], bytes[1], bytes[2] & !WEIGHTED], payload: &bytes[3..3 + payload_len] }
    }

    /// The header as the first word, then the payload 8 bytes a step
    /// and its tail as one more word, multiply-rotate mixing; the high
    /// bits pick the slot. The header leads with the core length, which
    /// fixes the payload's length, so the tail word (two overlapping
    /// loads, no byte loop) is unambiguous. Like the table's k-mer hash
    /// it is unkeyed: colliding records cost probes, never a wrong
    /// weight, because a hit compares the keys.
    #[inline]
    fn hash(&self) -> u64 {
        const M: u64 = 0x9E37_79B9_7F4A_7C15;
        let mix = |h: u64, word: u64| (h.rotate_left(26) ^ word).wrapping_mul(M);
        let [a, b, c] = self.head;
        let mut h = mix(0, u64::from(a) | u64::from(b) << 8 | u64::from(c) << 16);
        let mut words = self.payload.chunks_exact(8);
        for word in &mut words {
            h = mix(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        mix(h, tail_word(words.remainder()))
    }
}

/// Up to 7 bytes as one word, without a byte loop: two overlapping
/// 4-byte loads, or for 1–3 bytes the first, middle and last.
#[inline]
fn tail_word(tail: &[u8]) -> u64 {
    let n = tail.len();
    let u32_at = |i: usize| u64::from(u32::from_le_bytes(tail[i..i + 4].try_into().expect("4 bytes")));
    match n {
        0 => 0,
        1..=3 => u64::from(tail[0]) | u64::from(tail[n / 2]) << 8 | u64::from(tail[n - 1]) << 16,
        _ => u32_at(0) | u32_at(n - 4) << 32,
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

    /// Every vertex of a partition lies in some record, and every copy of
    /// a record holds the same k-mers, so the k-mers of the distinct
    /// records bound the partition's distinct vertices — the bound Step 2
    /// sizes its tables by. Fixed seeds, a repeat-rich genome, errors and
    /// both strands; both sides of the 32-base word.
    #[test]
    fn distinct_records_hold_every_distinct_vertex() {
        let (p, partitions) = (11, 8);
        for seed in 1..=3 {
            let genome =
                datagen::GenomeSpec::new(4_000).seed(seed).repeat_fraction(0.3).generate();
            let spec = datagen::SequencingSpec {
                read_len: 100,
                coverage: 8.0,
                lambda: 1.0,
                reverse_strand_prob: 0.5,
                seed,
            };
            let reads: Vec<PackedSeq> = datagen::Sequencer::new(spec)
                .sequence(&genome)
                .into_iter()
                .map(|read| read.seq().clone())
                .collect();
            for k in [21, 27, 33, 40] {
                let parts = crate::partition_in_memory(&reads, k, p, partitions).unwrap();
                let mut collapse = RecordCollapse::default();
                for (i, bytes) in parts.iter().enumerate() {
                    let slices = PartitionSlices::index(bytes, k, p).unwrap();
                    let bound: usize = collapse
                        .collapse(&slices)
                        .iter()
                        .map(|&(r, _)| slices.view(r as usize).kmer_count())
                        .sum();
                    let vertices: std::collections::HashSet<dna::Kmer> = slices
                        .iter()
                        .flat_map(|v| {
                            let core: PackedSeq = v.bases().collect();
                            core.kmers(k).map(|kmer| kmer.canonical().0).collect::<Vec<_>>()
                        })
                        .collect();
                    let what = format!("seed {seed} k {k} partition {i}");
                    assert!(!vertices.is_empty(), "{what}: empty partition");
                    assert!(bound >= vertices.len(), "{what}: {bound} < {}", vertices.len());
                    assert!(bound <= slices.total_kmers(), "{what}");
                }
            }
        }
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
                // The read's span, and the record's spelling of it on the
                // strand where its core is the smaller string.
                let span = PackedSeq::from_ascii(&text[first..first + v.core_len()]);
                let left = first.checked_sub(1).map(|i| Base::from_ascii(text[i]));
                let right = text.get(first + v.core_len()).map(|&b| Base::from_ascii(b));
                let twin = (span.revcomp(), right.map(Base::complement), left.map(Base::complement));
                let want = (span, left, right).min(twin);
                let record = (v.bases().collect::<PackedSeq>(), v.left_ext(), v.right_ext());
                assert_eq!(record, want, "k={k} p={p}");
                for (i, b) in v.bases().enumerate() {
                    assert_eq!(v.base(i), b);
                }
                assert_eq!(v.k(), k);
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

    /// A frame payload of weighted records — weights 1, 2, 127, 128,
    /// 300 and `u32::MAX`, so suffixes of every length — under every
    /// truncation and every single-bit flip: indexing either fails with
    /// a `CorruptRecord` naming an offset inside the bytes, or yields
    /// records in range (a core that holds a k-mer, a weight ≥ 1).
    #[test]
    fn hostile_bytes_at_the_weight_suffix_fail_cleanly() {
        let raw = encode_all("ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCA", 5, 3);
        let slices = PartitionSlices::index(&raw, 5, 3).unwrap();
        let weights = [1u32, 2, 127, 128, 300, u32::MAX];
        assert!(slices.len() >= weights.len());
        let mut payload = Vec::new();
        for i in 0..slices.len() {
            crate::record::write_record(&slices.view(i).key(), weights[i % weights.len()], &mut payload);
        }
        let check = |bytes: &[u8], what: &str| match PartitionSlices::index(bytes, 5, 3) {
            Ok(got) => {
                for v in got.iter() {
                    assert!(v.weight() >= 1 && v.core_len() >= 5, "{what}");
                    assert_eq!(v.bases().count(), v.core_len(), "{what}");
                }
            }
            Err(MspError::CorruptRecord { offset, .. }) => {
                assert!(offset <= bytes.len() as u64, "{what}: offset {offset} of {}", bytes.len());
            }
            Err(e) => panic!("{what}: {e}"),
        };
        for cut in 0..payload.len() {
            check(&payload[..cut], &format!("cut at {cut}"));
        }
        for bit in 0..8 * payload.len() {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped, &format!("bit {bit} flipped"));
        }
        let slices = PartitionSlices::index(&payload, 5, 3).unwrap();
        let got: Vec<u32> = slices.iter().map(|v| v.weight()).collect();
        let want: Vec<u32> = (0..slices.len()).map(|i| weights[i % weights.len()]).collect();
        assert_eq!(got, want);
    }

    /// Each malformed weight suffix by name, and the widest legal one.
    #[test]
    fn parse_rejects_bad_weight_suffixes() {
        let raw = encode_all("GATTACAGATTACA", 5, 3);
        let (_, used) = SuperkmerView::parse(&raw, 5).unwrap();
        let weighted = |suffix: &[u8]| {
            let mut record = raw[..used].to_vec();
            record[2] |= WEIGHTED;
            record.extend_from_slice(suffix);
            record
        };
        let rejects = |bytes: &[u8]| match SuperkmerView::parse(bytes, 5) {
            Err(MspError::CorruptRecord { offset, reason }) => (offset, reason),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("accepted {bytes:?}"),
        };
        let at = used as u64;
        assert_eq!(rejects(&weighted(&[0])), (at, "weight 0".into()));
        let (offset, why) = rejects(&weighted(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]));
        assert_eq!(offset, at);
        assert!(why.contains("longer than 5 bytes"), "{why}");
        let (offset, why) = rejects(&weighted(&[0xff, 0xff, 0xff, 0xff, 0x1f]));
        assert_eq!(offset, at);
        assert!(why.contains("exceeds u32"), "{why}");
        let (offset, why) = rejects(&weighted(&[]));
        assert_eq!(offset, at);
        assert!(why.contains("missing"), "{why}");
        let (offset, why) = rejects(&weighted(&[0x85]));
        assert_eq!(offset, at + 1);
        assert!(why.contains("truncated"), "{why}");
        let mut reserved = raw[..used].to_vec();
        reserved[2] |= RESERVED;
        let (offset, why) = rejects(&reserved);
        assert_eq!(offset, 2);
        assert!(why.contains("reserved bit 7"), "{why}");
        let widest = weighted(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        let (view, consumed) = SuperkmerView::parse(&widest, 5).unwrap();
        assert_eq!((view.weight(), consumed), (u32::MAX, used + 5));
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
            pending.extend_from_slice(slices_raw.record_bytes(i));
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
            assert_eq!(slices.record_bytes(i), slices_raw.record_bytes(i), "record {i}");
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
        assert!(RecordCollapse::default().collapse(&slices).is_empty());
    }

    /// A weighted copy and a plain copy of one record are one distinct
    /// record: the collapse keys on the record without its weight and
    /// sums the copies' weights.
    #[test]
    fn collapse_sums_the_weights_of_weighted_copies() {
        let raw = encode_all("ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCA", 7, 3);
        let slices = PartitionSlices::index(&raw, 7, 3).unwrap();
        let mut collapse = RecordCollapse::default();
        let once = collapse.collapse(&slices).to_vec();
        let mut mixed = Vec::new();
        for weight in [3, 1, 2] {
            for i in 0..slices.len() {
                crate::record::write_record(&slices.view(i).key(), weight, &mut mixed);
            }
        }
        let mixed = PartitionSlices::index(&mixed, 7, 3).unwrap();
        let want: Vec<(u32, u32)> = once.iter().map(|&(i, w)| (i, 6 * w)).collect();
        assert_eq!(collapse.collapse(&mixed), want.as_slice());
        assert_eq!(mixed.total_kmers(), 6 * slices.total_kmers());
    }

    /// The collapse against a map keyed on record bytes: the same
    /// distinct records, each at its first index, in first-occurrence
    /// order, with weights summing to the record count — on a partition
    /// where records repeat unevenly, and again (warm scratch) on one
    /// where none repeat.
    #[test]
    fn collapse_keeps_first_occurrence_order_and_counts_copies() {
        let reads: Vec<PackedSeq> = (0..12)
            .map(|i| {
                let base = |j: usize| "ACGT".as_bytes()[(j * (i % 3 + 5) + i) % 4] as char;
                let read: String = (0..40 + i % 5).map(base).collect();
                PackedSeq::from_ascii(read.as_bytes())
            })
            .collect();
        let mut collapse = RecordCollapse::default();
        for copies in [4usize, 1] {
            let mut buf = Vec::new();
            for c in 0..copies {
                // Uneven repeats: copy c holds the first reads.len() − c reads.
                let part = crate::partition_in_memory(&reads[..reads.len() - c], 7, 3, 1).unwrap();
                buf.extend_from_slice(&part[0]);
            }
            let slices = PartitionSlices::index(&buf, 7, 3).unwrap();
            let mut want: Vec<(u32, u32)> = Vec::new();
            let mut seen = std::collections::HashMap::<&[u8], usize>::new();
            for i in 0..slices.len() {
                match seen.entry(slices.record_bytes(i)) {
                    std::collections::hash_map::Entry::Occupied(e) => want[*e.get()].1 += 1,
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(want.len());
                        want.push((i as u32, 1));
                    }
                }
            }
            let got = collapse.collapse(&slices);
            assert_eq!(got, want.as_slice(), "copies={copies}");
            assert_eq!(got.iter().map(|&(_, w)| w as usize).sum::<usize>(), slices.len());
            assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "first-occurrence order");
            if copies > 1 {
                let (distinct, records) = (got.len(), slices.len());
                assert!(distinct < records / 2, "copies={copies}: {distinct} of {records}");
            }
        }
    }
}
