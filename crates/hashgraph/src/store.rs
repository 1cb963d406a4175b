//! On-disk storage for constructed De Bruijn graphs: the **vertex-run
//! container**.
//!
//! A graph is nothing but its sorted vertex runs, so one container holds
//! a partition's subgraph (`subgraphs/sub-NNNNN.dbg`, the shard wire
//! payload) and a whole graph (`dbg build --out`) alike:
//!
//! ```text
//! u64 vertex count | u8 k | u8 w
//! per vertex: ⌈k/32⌉×u64 key words | count | 8 edges   (counters w bytes each)
//! trailer: u32 CRC-32 of everything before it
//! ```
//!
//! All integers little-endian; vertices in ascending k-mer order. The
//! counter width `w ∈ {1, 2, 4}` is the smallest that holds the file's
//! largest counter, so it follows from the data: equal vertex sets
//! serialise to identical bytes, and every record of a file has the same
//! width (`8·⌈k/32⌉ + 9·w` bytes — 17 at k ≤ 32 with counters under 256).
//!
//! The record layout is also how a [`DeBruijnGraph`] holds its vertices
//! in memory: one [`Codec`] packs and unpacks records for the file
//! encoder, the file decoder and the graph alike.

use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::Path;

use dna::Kmer;

use crate::cells::cell_key;
use crate::{DeBruijnGraph, SubGraph, VertexCells, VertexData};

/// `u64 count | u8 k | u8 w`.
const HEADER_BYTES: usize = 10;
/// The CRC-32 trailer.
const TRAILER_BYTES: usize = 4;

/// Bytes of one record of a `k`-mer file with `w`-byte counters.
fn record_bytes(k: usize, w: usize) -> usize {
    k.div_ceil(32) * 8 + 9 * w
}

/// The OR of a vertex's nine counters: its bit length is the width the
/// largest of them needs.
pub(crate) fn counter_bits(data: &VertexData) -> u32 {
    data.edges.iter().fold(data.count, |acc, &e| acc | e)
}

/// The narrowest counter width, in bytes, that holds a counter of `bits`.
pub(crate) fn width_of(bits: u32) -> usize {
    match bits {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        _ => 4,
    }
}

/// The record codec of one run shape — `N = ⌈k/32⌉` key words and counter
/// width `W` — as functions monomorphic in both. It is chosen once per
/// run ([`Codec::new`]), so a walk over a run's records never branches on
/// the shape: each record costs one call through a function pointer whose
/// body knows every offset.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Codec {
    k: usize,
    w: usize,
    len: usize,
    read: fn(&[u8], usize) -> (Kmer, VertexData),
    key: fn(&[u8], usize) -> Kmer,
    write: fn(&mut [u8], &Kmer, &VertexData),
    pack: fn(&mut [u8], &VertexCells, bool),
    sum: fn(&[u8], Range<usize>) -> u64,
}

impl Codec {
    /// The codec of `k`-mer records with `w`-byte counters.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ MAX_K` and `w ∈ {1, 2, 4}` — a container's
    /// header is checked before it gets here.
    pub(crate) fn new(k: usize, w: usize) -> Codec {
        fn widths<const N: usize>(k: usize, w: usize) -> Codec {
            match w {
                1 => Codec::of::<N, 1>(k),
                2 => Codec::of::<N, 2>(k),
                4 => Codec::of::<N, 4>(k),
                _ => unreachable!("counter width {w} is not 1, 2 or 4"),
            }
        }
        assert!((1..=dna::MAX_K).contains(&k), "k={k} out of range");
        match k.div_ceil(32) {
            1 => widths::<1>(k, w),
            2 => widths::<2>(k, w),
            3 => widths::<3>(k, w),
            _ => widths::<4>(k, w),
        }
    }

    fn of<const N: usize, const W: usize>(k: usize) -> Codec {
        Codec {
            k,
            w: W,
            len: 8 * N + 9 * W,
            read: read_record::<N, W>,
            key: read_key::<N>,
            write: write_record::<N, W>,
            pack: pack_cells::<N, W>,
            sum: sum_counters::<N, W>,
        }
    }

    /// The k-mer length.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Counter width in bytes.
    pub(crate) fn w(&self) -> usize {
        self.w
    }

    /// Bytes per record.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The vertex in `record`.
    #[inline]
    pub(crate) fn read(&self, record: &[u8]) -> (Kmer, VertexData) {
        (self.read)(record, self.k)
    }

    /// The k-mer in `record`, its counters unread.
    #[inline]
    pub(crate) fn key(&self, record: &[u8]) -> Kmer {
        (self.key)(record, self.k)
    }

    /// Writes `(kmer, data)` over `record`. Counters must fit the width.
    #[inline]
    pub(crate) fn write(&self, record: &mut [u8], kmer: &Kmer, data: &VertexData) {
        debug_assert!(width_of(counter_bits(data)) <= self.w, "{data:?} overflows w={}", self.w);
        (self.write)(record, kmer, data)
    }

    /// Σ over whole records of counters `counters` (0 is the count, 1..9
    /// the edges): a strided read of those columns, no k-mer built.
    pub(crate) fn sum(&self, records: &[u8], counters: Range<usize>) -> u64 {
        (self.sum)(records, counters)
    }

    /// Writes `cells` over `records`, one record each: in canonical
    /// (sorted-by-k-mer) order when `canonical`, in cell order otherwise.
    /// Counters must fit the width.
    pub(crate) fn pack(&self, records: &mut [u8], cells: &VertexCells, canonical: bool) {
        debug_assert_eq!((cells.k(), records.len()), (self.k, cells.len() * self.len));
        (self.pack)(records, cells, canonical)
    }
}

/// Counter `i` of a record with `N` key words and `W`-byte counters.
#[inline(always)]
fn counter<const N: usize, const W: usize>(record: &[u8], i: usize) -> u32 {
    let at = 8 * N + W * i;
    let mut le = [0u8; 4];
    le[..W].copy_from_slice(&record[at..at + W]);
    u32::from_le_bytes(le)
}

fn read_key<const N: usize>(record: &[u8], k: usize) -> Kmer {
    let mut words = [0u64; 4];
    for (word, src) in words[..N].iter_mut().zip(record[..8 * N].chunks_exact(8)) {
        *word = u64::from_le_bytes(src.try_into().expect("8 bytes"));
    }
    Kmer::from_words(words, k).expect("a codec's k is in range")
}

fn read_record<const N: usize, const W: usize>(record: &[u8], k: usize) -> (Kmer, VertexData) {
    let record = &record[..8 * N + 9 * W];
    let data = VertexData {
        count: counter::<N, W>(record, 0),
        edges: std::array::from_fn(|e| counter::<N, W>(record, e + 1)),
    };
    (read_key::<N>(record, k), data)
}

fn write_record<const N: usize, const W: usize>(record: &mut [u8], kmer: &Kmer, data: &VertexData) {
    let (keys, counters) = record[..8 * N + 9 * W].split_at_mut(8 * N);
    for (dst, word) in keys.chunks_exact_mut(8).zip(kmer.words()) {
        dst.copy_from_slice(&word.to_le_bytes());
    }
    let values = std::iter::once(&data.count).chain(&data.edges);
    for (dst, c) in counters.chunks_exact_mut(W).zip(values) {
        dst.copy_from_slice(&c.to_le_bytes()[..W]);
    }
}

/// One record from a cell: its key halves and counters, little-endian.
#[inline(always)]
fn write_cell<const N: usize, const W: usize>(record: &mut [u8], cell: &[u32]) {
    let (keys, counters) = record[..8 * N + 9 * W].split_at_mut(8 * N);
    for (dst, half) in keys.chunks_exact_mut(4).zip(&cell[..2 * N]) {
        dst.copy_from_slice(&half.to_le_bytes());
    }
    for (dst, c) in counters.chunks_exact_mut(W).zip(&cell[2 * N..2 * N + 9]) {
        dst.copy_from_slice(&c.to_le_bytes()[..W]);
    }
}

fn pack_cells<const N: usize, const W: usize>(
    records: &mut [u8],
    cells: &VertexCells,
    canonical: bool,
) {
    let records = records.chunks_exact_mut(8 * N + 9 * W);
    if !canonical {
        records.zip(cells.cells()).for_each(|(record, cell)| write_cell::<N, W>(record, cell));
        return;
    }
    // Keys are distinct, so an unstable sort on the key alone is
    // deterministic; only the key and the cell's index move.
    let mut order: Vec<([u64; N], usize)> = cells
        .cells()
        .enumerate()
        .map(|(i, cell)| (cell_key(cell, N)[..N].try_into().expect("N key words"), i))
        .collect();
    order.sort_unstable_by_key(|entry| entry.0);
    let stride = cells.stride();
    for (record, (_, i)) in records.zip(order) {
        write_cell::<N, W>(record, &cells.words[i * stride..][..stride]);
    }
}

fn sum_counters<const N: usize, const W: usize>(records: &[u8], counters: Range<usize>) -> u64 {
    records
        .chunks_exact(8 * N + 9 * W)
        .map(|record| counters.clone().map(|i| u64::from(counter::<N, W>(record, i))).sum::<u64>())
        .sum()
}

/// `cells` as records at the narrowest counter width that holds every
/// one of them — canonical order or cell order, see [`Codec::pack`] —
/// after `head` zero bytes, in `out`'s allocation (its bytes discarded)
/// with room for `tail` more: the one packer of a container image and of
/// a graph's run.
pub(crate) fn pack_run(
    cells: &VertexCells,
    canonical: bool,
    head: usize,
    tail: usize,
    mut out: Vec<u8>,
) -> (Vec<u8>, Codec) {
    let width = cells.width();
    let bits = cells.cells().fold(0, |acc, cell| cell[2 * width..].iter().fold(acc, |a, &c| a | c));
    let codec = Codec::new(cells.k(), width_of(bits));
    let len = head + cells.len() * codec.len;
    out.clear();
    out.reserve_exact(len + tail);
    out.resize(len, 0);
    codec.pack(&mut out[head..], cells, canonical);
    (out, codec)
}

/// Errors from reading a stored graph.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The bytes are not one whole container. `reason` classifies the
    /// damage: a **truncated tail** (the buffer ends before the bytes its
    /// header promises — a torn write) or **interior corruption** (the
    /// length bookkeeping is intact but the content is not: CRC-32
    /// mismatch, k or counter width out of range, undeclared trailing
    /// bytes).
    Corrupt {
        /// Byte offset at which the damage was detected.
        offset: u64,
        /// The classification and what exactly was found.
        reason: String,
    },
    /// An underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Corrupt { offset, reason } => {
                write!(f, "corrupt graph file: byte {offset}: {reason}")
            }
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The one container encoder ([`VertexCells::encode_into`] and
/// [`VertexCells::pack_into`]): `cells` as records, canonical order or
/// cell order, under the header and over the CRC-32 trailer, in
/// `buffer`'s allocation shrunk to fit. The counter width is that of the
/// largest counter.
pub(crate) fn encode(cells: &VertexCells, canonical: bool, buffer: Vec<u8>) -> Vec<u8> {
    let (mut out, codec) = pack_run(cells, canonical, HEADER_BYTES, TRAILER_BYTES, buffer);
    out[..8].copy_from_slice(&(cells.len() as u64).to_le_bytes());
    out[8..HEADER_BYTES].copy_from_slice(&[cells.k() as u8, codec.w() as u8]);
    let crc = msp::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.shrink_to_fit();
    out
}

/// Serialises a subgraph as one vertex-run container: a `u64` vertex
/// count, a `u8` k and a `u8` counter width, the fixed-width records, and
/// a `u32` CRC-32 trailer over everything before it (so bit-rot in a
/// persisted subgraph is detected on reload, as in the partition-file
/// frames) — all little-endian. See the module docs for the record.
///
/// Records are written in **canonical (sorted-by-k-mer) order**, not the
/// hash table's order: a table's order depends on insertion interleaving
/// under multithreaded construction, and the crash-recovery guarantee is
/// that a resumed run's subgraph files are *byte-identical* to an
/// uninterrupted run's — only a canonical order survives that comparison.
/// The subgraph's entries are encoded as [`VertexCells`], by
/// [`VertexCells::encode`].
pub fn encode_subgraph(sub: &SubGraph) -> Vec<u8> {
    VertexCells::from(sub).encode()
}

/// [`encode_subgraph`] without the canonical sort: the same container,
/// records in the snapshot's own order ([`VertexCells::pack`]). Only
/// canonical order gives equal vertex sets equal bytes, so this is never a
/// file.
pub fn pack_subgraph(sub: &SubGraph) -> Vec<u8> {
    VertexCells::from(sub).pack()
}

/// A [`StoreError::Corrupt`] at `offset`: `fault` classifies it, `detail`
/// says what was found.
fn corrupt(offset: usize, fault: &str, detail: String) -> StoreError {
    StoreError::Corrupt { offset: offset as u64, reason: format!("{fault} — {detail}") }
}

/// The header and length checks, O(1): k and the counter width in range,
/// and the header's count times the record width (overflow included)
/// exactly the buffer's length between header and trailer. Returns the
/// codec of the records.
fn header(bytes: &[u8]) -> Result<Codec, StoreError> {
    if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(corrupt(
            bytes.len(),
            "truncated tail",
            format!("{} bytes is shorter than the minimal (14-byte) empty encoding", bytes.len()),
        ));
    }
    let n = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
    let (k, w) = (bytes[8] as usize, bytes[9] as usize);
    if k == 0 || k > dna::MAX_K {
        return Err(corrupt(8, "interior corruption", format!("k={k} out of range")));
    }
    if !matches!(w, 1 | 2 | 4) {
        let detail = format!("counter width {w} is not 1, 2 or 4");
        return Err(corrupt(9, "interior corruption", detail));
    }
    let len = record_bytes(k, w);
    let expected = usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(len))
        .and_then(|body| body.checked_add(HEADER_BYTES + TRAILER_BYTES));
    let Some(expected) = expected.filter(|&expected| expected <= bytes.len()) else {
        return Err(corrupt(
            bytes.len(),
            "truncated tail",
            format!(
                "header declares {n} {len}-byte record(s) but the buffer holds {} bytes",
                bytes.len()
            ),
        ));
    };
    if bytes.len() > expected {
        return Err(corrupt(
            expected,
            "interior corruption",
            format!("{} byte(s) beyond the declared {n} record(s)", bytes.len() - expected),
        ));
    }
    Ok(Codec::new(k, w))
}

/// [`header`], then the CRC-32 trailer.
fn checked(bytes: &[u8]) -> Result<Codec, StoreError> {
    let codec = header(bytes)?;
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_BYTES);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = msp::crc32(body);
    if computed != stored {
        return Err(corrupt(
            body.len(),
            "interior corruption",
            format!("CRC32 trailer mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        ));
    }
    Ok(codec)
}

/// Where a checked container image's records are, and their codec. Only
/// the header is read; the caller has checked the rest.
pub(crate) fn records_span(image: &[u8]) -> Result<(Range<usize>, Codec), StoreError> {
    let codec = header(image)?;
    Ok((HEADER_BYTES..image.len() - TRAILER_BYTES, codec))
}

/// The checks every reader makes before it trusts a vertex-run container,
/// trusting nothing: k and the counter width are range-checked, the
/// header's count is checked against the buffer's length (overflow
/// included), then the CRC-32 trailer. Allocates nothing, so no length
/// the header claims is ever allocated. A buffer that passes can be
/// handed to [`DeBruijnGraph::absorb_encoded`] as it is.
///
/// # Errors
///
/// [`StoreError::Corrupt`] with the byte offset and the classification
/// described there.
pub fn check_subgraph(bytes: &[u8]) -> Result<(), StoreError> {
    checked(bytes).map(|_| ())
}

/// Parses one vertex-run container: [`check_subgraph`], then every
/// record materialised.
///
/// # Errors
///
/// As [`check_subgraph`].
pub fn decode_subgraph(bytes: &[u8]) -> Result<SubGraph, StoreError> {
    let codec = checked(bytes)?;
    let records = &bytes[HEADER_BYTES..bytes.len() - TRAILER_BYTES];
    let entries = records.chunks_exact(codec.len()).map(|r| codec.read(r)).collect();
    Ok(SubGraph::new(codec.k(), entries))
}

/// Writes the whole graph to `w` as one vertex-run container — for a
/// graph of one partition, the bytes of its `sub-00000.dbg`.
///
/// A shared or mutable reference can be passed wherever `W: Write` is
/// required.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_graph<W: Write>(graph: &DeBruijnGraph, mut w: W) -> Result<(), StoreError> {
    let mut cells = VertexCells::new(graph.k());
    for (kmer, data) in graph.iter() {
        cells.push(&kmer, &data);
    }
    w.write_all(&cells.encode())?;
    w.flush()?;
    Ok(())
}

/// Reads a graph from `r`: everything `r` holds must be one vertex-run
/// container ([`check_subgraph`]), so a `sub-*.dbg` file opens as readily
/// as a whole-graph file. The checked bytes become the graph's one run.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on malformed input and [`StoreError::Io`] on
/// read failures.
pub fn read_graph<R: Read>(mut r: R) -> Result<DeBruijnGraph, StoreError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let mut graph = DeBruijnGraph::new(checked(&bytes)?.k());
    graph.absorb_encoded(bytes);
    Ok(graph)
}

/// Convenience: [`write_graph`] to a file.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn save_graph(graph: &DeBruijnGraph, path: impl AsRef<Path>) -> Result<(), StoreError> {
    write_graph(graph, std::fs::File::create(path)?)
}

/// Convenience: [`read_graph`] from a file.
///
/// # Errors
///
/// Propagates open/read/validation failures.
pub fn load_graph(path: impl AsRef<Path>) -> Result<DeBruijnGraph, StoreError> {
    read_graph(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna::PackedSeq;

    fn sample_graph() -> DeBruijnGraph {
        let reads = vec![
            PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
            PackedSeq::from_ascii(b"TGATGGATGATGGATGGTAGCATACGTTGCAT"),
        ];
        crate::build::graph_of_reads(&reads, 9, 5, 3, 1)
    }

    #[test]
    fn roundtrip_in_memory() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let back = read_graph(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn roundtrip_on_disk() {
        let g = sample_graph();
        let path = std::env::temp_dir().join(format!("graph-store-test-{}.dbg", std::process::id()));
        save_graph(&g, &path).unwrap();
        let back = load_graph(&path).unwrap();
        assert_eq!(back, g);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn serialisation_is_canonical() {
        let g = sample_graph();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_graph(&g, &mut a).unwrap();
        write_graph(&g.clone(), &mut b).unwrap();
        assert_eq!(a, b, "equal graphs must serialise identically");
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = DeBruijnGraph::new(27);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let back = read_graph(&buf[..]).unwrap();
        assert_eq!(back.k(), 27);
        assert_eq!(back.distinct_vertices(), 0);
    }

    #[test]
    fn truncation_rejected() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        for cut in [buf.len() - 1, buf.len() / 2, 10, 0] {
            let err = read_graph(&buf[..cut]).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt { offset, reason }
                    if *offset == cut as u64 && reason.starts_with("truncated tail")),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bitflip_caught_by_checksum() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        // Flip a bit inside a record's edge counters (keeps the kmer
        // decodable but changes content).
        let victim = buf.len() - 20;
        buf[victim] ^= 0x01;
        let err = read_graph(&buf[..]).unwrap_err().to_string();
        assert!(err.contains("interior corruption") && err.contains("CRC32"), "{err}");
    }

    #[test]
    fn invalid_k_rejected() {
        for k in [0u8, dna::MAX_K as u8 + 1] {
            let mut buf = 0u64.to_le_bytes().to_vec();
            buf.extend_from_slice(&[k, 1]);
            let crc = msp::crc32(&buf);
            buf.extend_from_slice(&crc.to_le_bytes());
            let err = read_graph(&buf[..]).unwrap_err().to_string();
            assert!(err.contains("byte 8") && err.contains("out of range"), "{err}");
        }
    }

    /// The header's count is checked against the bytes in hand before
    /// anything is sized from it: a count no buffer could back — here one
    /// whose product with the 17-byte record overflows — is a truncated
    /// tail at the buffer's end, not an allocation.
    #[test]
    fn a_vertex_count_the_buffer_does_not_back_is_truncation() {
        for n in [u64::MAX / 17 + 1, u64::MAX / 128, 2] {
            let mut buf = n.to_le_bytes().to_vec();
            buf.extend_from_slice(&[27, 1]);
            buf.extend_from_slice(&[0u8; 17 + 4]);
            match read_graph(&buf[..]) {
                Err(StoreError::Corrupt { offset, reason }) => {
                    assert_eq!(offset, buf.len() as u64);
                    assert!(reason.starts_with("truncated tail"), "{reason}");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// A file of the earlier layout (`u64 count | u8 k`, then 4×`u64` key
    /// words and nine `u32` counters per vertex) is refused, never misread:
    /// its byte 9 is the low byte of the first key word, zero for any
    /// k < 29 (the k-mer is left-aligned), so the width check names it.
    #[test]
    fn a_68_byte_record_file_is_rejected() {
        let g = sample_graph();
        let mut old = (g.distinct_vertices() as u64).to_le_bytes().to_vec();
        old.push(g.k() as u8);
        let mut entries: Vec<_> = g.iter().collect();
        entries.sort_unstable_by_key(|entry| entry.0);
        for (kmer, data) in entries {
            kmer.words().iter().for_each(|w| old.extend_from_slice(&w.to_le_bytes()));
            old.extend_from_slice(&data.count.to_le_bytes());
            data.edges.iter().for_each(|e| old.extend_from_slice(&e.to_le_bytes()));
        }
        let crc = msp::crc32(&old);
        old.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(old.len(), 13 + 68 * g.distinct_vertices());
        let path = std::env::temp_dir().join(format!("graph-store-old-{}.dbg", std::process::id()));
        std::fs::write(&path, &old).unwrap();
        let err = load_graph(&path).unwrap_err();
        std::fs::remove_file(path).unwrap();
        assert!(
            matches!(&err, StoreError::Corrupt { offset: 9, reason }
                if reason.contains("counter width 0")),
            "{err:?}"
        );
    }

    /// Counters pick the narrowest width holding the largest of them, and
    /// every width round-trips.
    #[test]
    fn counter_width_follows_the_largest_counter() {
        let kmer: Kmer = "ACGTACGTA".parse().unwrap();
        for (max, w) in [(0, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4), (u32::MAX, 4)] {
            let mut data = VertexData { count: 1, edges: [0; 8] };
            data.edges[5] = max;
            let sub = SubGraph::new(9, vec![(kmer, data)]);
            let bytes = encode_subgraph(&sub);
            assert_eq!(bytes[9], w, "max counter {max}");
            assert_eq!(bytes.len(), 10 + 8 + 9 * w as usize + 4);
            assert_eq!(decode_subgraph(&bytes).unwrap().entries(), sub.entries());
        }
    }

    /// One container: a graph of one subgraph is written as that
    /// subgraph's bytes, and those bytes read back as the graph.
    #[test]
    fn a_graph_file_is_a_subgraph_container() {
        let g = sample_graph();
        let sub = SubGraph::new(g.k(), g.iter().collect());
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        assert_eq!(buf, encode_subgraph(&sub));
        assert_eq!(decode_subgraph(&buf).unwrap().len(), g.distinct_vertices());
        assert_eq!(read_graph(&buf[..]).unwrap(), g);
    }

    use proptest::prelude::*;

    /// `n` random distinct vertices of length `k` (an LCG over `seed`)
    /// whose counters stay below `limit`.
    fn random_subgraph(k: usize, n: usize, limit: u64, seed: u64) -> SubGraph {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let mut vertices = std::collections::BTreeMap::new();
        for _ in 0..n {
            let kmer = Kmer::from_words(std::array::from_fn(|_| next()), k).unwrap();
            let mut counter = || (next() >> 32) % limit;
            let data = VertexData {
                count: counter() as u32,
                edges: std::array::from_fn(|_| counter() as u32),
            };
            vertices.insert(kmer, data);
        }
        SubGraph::new(k, vertices.into_iter().collect())
    }

    /// `bytes` through both readers: the `Corrupt` error's offset and
    /// reason when [`check_subgraph`] and [`decode_subgraph`] report the
    /// same one at an offset inside the buffer, `None` otherwise.
    fn corrupt_within(bytes: &[u8]) -> Option<(u64, String)> {
        let corrupt = |result: Result<(), StoreError>| match result {
            Err(StoreError::Corrupt { offset, reason }) => Some((offset, reason)),
            _ => None,
        };
        let checked = corrupt(check_subgraph(bytes))?;
        let decoded = corrupt(decode_subgraph(bytes).map(|_| ()))?;
        (checked == decoded && checked.0 <= bytes.len() as u64).then_some(checked)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Hostile bytes: every truncation, every single bit flip, every
        /// counter width outside {1, 2, 4}, every k outside 1..=MAX_K, and
        /// counts whose record bytes overflow are `Corrupt` at an offset
        /// inside the buffer — never a panic, never a graph — and the
        /// check alone reports exactly what the decoder does. The clean
        /// image decodes, and is absorbed as it is, to the vertices it was
        /// encoded from, at every k and counter width.
        #[test]
        fn hostile_bytes_are_corrupt_at_an_in_buffer_offset(
            k in 1usize..=dna::MAX_K,
            n in 0usize..6,
            limit in prop_oneof![Just(256u64), Just(65_536u64), Just(1u64 << 32)],
            seed in 0u64..u64::MAX,
        ) {
            let sub = random_subgraph(k, n, limit, seed);
            let bytes = encode_subgraph(&sub);
            prop_assert!(check_subgraph(&bytes).is_ok());
            let back = decode_subgraph(&bytes).unwrap();
            prop_assert_eq!(back.entries(), sub.entries());
            let mut graph = DeBruijnGraph::new(k);
            graph.absorb_encoded(bytes.clone());
            let absorbed: Vec<_> = graph.iter().collect();
            prop_assert_eq!(&absorbed[..], sub.entries());
            for cut in 0..bytes.len() {
                let (offset, reason) =
                    corrupt_within(&bytes[..cut]).expect("a cut buffer is corrupt");
                prop_assert!(offset == cut as u64 && reason.starts_with("truncated tail"));
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(corrupt_within(&flipped).is_some());
            }
            let mut hostile = bytes.clone();
            for w in (0..=u8::MAX).filter(|w| !matches!(w, 1 | 2 | 4)) {
                hostile[9] = w;
                let (offset, _) = corrupt_within(&hostile).unwrap();
                prop_assert_eq!(offset, 9);
            }
            let mut hostile = bytes.clone();
            for k in std::iter::once(0).chain(dna::MAX_K as u8 + 1..=u8::MAX) {
                hostile[8] = k;
                let (offset, _) = corrupt_within(&hostile).unwrap();
                prop_assert_eq!(offset, 8);
            }
            let record = record_bytes(k, bytes[9] as usize) as u64;
            let mut hostile = bytes.clone();
            for count in [u64::MAX / record + 1, u64::MAX] {
                hostile[..8].copy_from_slice(&count.to_le_bytes());
                let (offset, reason) = corrupt_within(&hostile).unwrap();
                prop_assert!(offset == bytes.len() as u64 && reason.starts_with("truncated tail"));
            }
        }
    }
}
