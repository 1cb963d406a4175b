//! On-disk storage for constructed De Bruijn graphs: the **vertex-run
//! container**.
//!
//! A graph is nothing but its sorted vertex runs, so one container holds
//! a partition's subgraph (`subgraphs/sub-NNNNN.dbg`, the shard wire
//! payload) and a whole graph (`dbg build --out`) alike:
//!
//! ```text
//! u64 vertex count | u8 k
//! per vertex: 4×u64 key words | u32 count | 8×u32 edges   (fixed 68 B)
//! trailer: u32 CRC-32 of everything before it
//! ```
//!
//! All integers little-endian; vertices in ascending k-mer order, so
//! equal vertex sets serialise to identical bytes.

use std::io::{self, Read, Write};
use std::path::Path;

use dna::Kmer;

use crate::{DeBruijnGraph, SubGraph, VertexData};

/// Bytes per vertex record (4 × u64 key words, count, 8 edge counters).
pub const VERTEX_BYTES: usize = 32 + 4 + 32;
/// `u64 count | u8 k`.
const HEADER_BYTES: usize = 9;
/// The CRC-32 trailer.
const TRAILER_BYTES: usize = 4;

/// Errors from reading a stored graph.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The bytes are not one whole container. `reason` classifies the
    /// damage: a **truncated tail** (the buffer ends before the bytes its
    /// header promises — a torn write) or **interior corruption** (the
    /// length bookkeeping is intact but the content is not: CRC-32
    /// mismatch, invalid k-mer, undeclared trailing bytes).
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

/// One container over `entries`, which it sorts. Keys are distinct, so an
/// unstable sort on the key alone is deterministic.
fn encode_run(k: usize, mut entries: Vec<&(Kmer, VertexData)>) -> Vec<u8> {
    entries.sort_unstable_by_key(|entry| entry.0);
    let mut out =
        Vec::with_capacity(HEADER_BYTES + entries.len() * VERTEX_BYTES + TRAILER_BYTES);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    out.push(k as u8);
    for (kmer, data) in entries {
        let mut record = [0u8; VERTEX_BYTES];
        for (dst, w) in record[..32].chunks_exact_mut(8).zip(kmer.words()) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        record[32..36].copy_from_slice(&data.count.to_le_bytes());
        for (dst, e) in record[36..].chunks_exact_mut(4).zip(&data.edges) {
            dst.copy_from_slice(&e.to_le_bytes());
        }
        out.extend_from_slice(&record);
    }
    let crc = msp::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Serialises a subgraph as one vertex-run container: a `u64` vertex
/// count and a `u8` k, the fixed-width ([`VERTEX_BYTES`]) records, and a
/// `u32` CRC-32 trailer over everything before it (so bit-rot in a
/// persisted subgraph is detected on reload, as in the partition-file
/// frames) — all little-endian.
///
/// Records are written in **canonical (sorted-by-k-mer) order**, not the
/// hash table's slot order: slot order depends on insertion interleaving
/// under multithreaded construction, and the crash-recovery guarantee is
/// that a resumed run's subgraph files are *byte-identical* to an
/// uninterrupted run's — only a canonical order survives that comparison.
pub fn encode_subgraph(sub: &SubGraph) -> Vec<u8> {
    encode_run(sub.k(), sub.entries().iter().collect())
}

/// Parses one vertex-run container, trusting nothing: the header's count
/// is checked against the buffer's length before anything is allocated
/// for it, then the CRC-32 trailer, then every k-mer.
///
/// # Errors
///
/// [`StoreError::Corrupt`] with the byte offset and the classification
/// described there.
pub fn decode_subgraph(bytes: &[u8]) -> Result<SubGraph, StoreError> {
    let bad = |offset: usize, fault: &str, detail: String| StoreError::Corrupt {
        offset: offset as u64,
        reason: format!("{fault} — {detail}"),
    };
    if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(bad(
            bytes.len(),
            "truncated tail",
            format!("{} bytes is shorter than the minimal (13-byte) empty encoding", bytes.len()),
        ));
    }
    let n = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
    let k = bytes[8] as usize;
    let expected =
        HEADER_BYTES.saturating_add(n.saturating_mul(VERTEX_BYTES)).saturating_add(TRAILER_BYTES);
    if bytes.len() < expected {
        return Err(bad(
            bytes.len(),
            "truncated tail",
            format!(
                "header declares {n} record(s) ({expected} bytes total) but the buffer holds {}",
                bytes.len()
            ),
        ));
    }
    if bytes.len() > expected {
        return Err(bad(
            expected,
            "interior corruption",
            format!("{} byte(s) beyond the declared {n} record(s)", bytes.len() - expected),
        ));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_BYTES);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = msp::crc32(body);
    if computed != stored {
        return Err(bad(
            body.len(),
            "interior corruption",
            format!("CRC32 trailer mismatch (stored {stored:#010x}, computed {computed:#010x})"),
        ));
    }
    if k == 0 || k > dna::MAX_K {
        return Err(bad(8, "interior corruption", format!("k={k} out of range")));
    }
    let mut entries = Vec::with_capacity(n);
    for (rec, record) in body[HEADER_BYTES..].chunks_exact(VERTEX_BYTES).enumerate() {
        let word = |j: usize| u64::from_le_bytes(record[j * 8..j * 8 + 8].try_into().expect("8 bytes"));
        let kmer = Kmer::from_words([word(0), word(1), word(2), word(3)], k).map_err(|e| {
            let at = HEADER_BYTES + rec * VERTEX_BYTES;
            bad(at, "interior corruption", format!("record {rec}: invalid k-mer: {e}"))
        })?;
        let half = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes"));
        let data = VertexData { count: half(32), edges: std::array::from_fn(|e| half(36 + e * 4)) };
        entries.push((kmer, data));
    }
    Ok(SubGraph::new(k, entries))
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
    w.write_all(&encode_run(graph.k(), graph.entries().collect()))?;
    w.flush()?;
    Ok(())
}

/// Reads a graph from `r`: everything `r` holds must be one vertex-run
/// container ([`decode_subgraph`]), so a `sub-*.dbg` file opens as readily
/// as a whole-graph file.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on malformed input and [`StoreError::Io`] on
/// read failures.
pub fn read_graph<R: Read>(mut r: R) -> Result<DeBruijnGraph, StoreError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let sub = decode_subgraph(&bytes)?;
    let mut graph = DeBruijnGraph::new(sub.k());
    graph.absorb(sub);
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
            buf.push(k);
            let crc = msp::crc32(&buf);
            buf.extend_from_slice(&crc.to_le_bytes());
            let err = read_graph(&buf[..]).unwrap_err().to_string();
            assert!(err.contains("byte 8") && err.contains("out of range"), "{err}");
        }
    }

    /// The header's count is checked against the bytes in hand before
    /// anything is sized from it: a count no buffer could back is a
    /// truncated tail at the buffer's end, not an allocation.
    #[test]
    fn a_vertex_count_the_buffer_does_not_back_is_truncation() {
        let mut buf = (u64::MAX / 128).to_le_bytes().to_vec();
        buf.push(27);
        buf.extend_from_slice(&[0u8; VERTEX_BYTES + 4]);
        match read_graph(&buf[..]) {
            Err(StoreError::Corrupt { offset, reason }) => {
                assert_eq!(offset, buf.len() as u64);
                assert!(reason.starts_with("truncated tail"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }

    /// One container: a graph of one subgraph is written as that
    /// subgraph's bytes, and those bytes read back as the graph.
    #[test]
    fn a_graph_file_is_a_subgraph_container() {
        let g = sample_graph();
        let sub = SubGraph::new(g.k(), g.iter().map(|(k, v)| (*k, *v)).collect());
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        assert_eq!(buf, encode_subgraph(&sub));
        assert_eq!(decode_subgraph(&buf).unwrap().len(), g.distinct_vertices());
        assert_eq!(read_graph(&buf[..]).unwrap(), g);
    }
}
