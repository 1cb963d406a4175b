//! On-disk storage for constructed De Bruijn graphs.
//!
//! ParaHash's output — the thing a downstream assembler consumes — is the
//! full vertex/adjacency map. This module gives it a versioned,
//! checksummed binary format:
//!
//! ```text
//! magic "PHDBG1\n"  |  u8 k  |  u64 vertex count
//! per vertex: 4×u64 key words | u32 count | 8×u32 edges   (fixed 68 B)
//! trailer: u64 FNV-1a checksum of everything before it
//! ```
//!
//! All integers little-endian. The per-vertex record matches the layout
//! the Step-2 pipeline streams between devices, so persisting costs one
//! sequential write.

use std::io::{self, Read, Write};
use std::path::Path;

use dna::Kmer;

use crate::{DeBruijnGraph, SubGraph, VertexData};

const MAGIC: &[u8; 7] = b"PHDBG1\n";
const RECORD_BYTES: usize = 32 + 4 + 32;

/// Errors from reading a stored graph.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The stream does not start with the format magic.
    BadMagic,
    /// The header or a record was malformed (bad k, short read).
    Corrupt(String),
    /// The trailing checksum did not match the content.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
    /// An underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a parahash graph file (bad magic)"),
            StoreError::Corrupt(msg) => write!(f, "corrupt graph file: {msg}"),
            StoreError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Streaming FNV-1a over written bytes.
struct Checksummed<W> {
    inner: W,
    hash: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl<W: Write> Checksummed<W> {
    fn new(inner: W) -> Self {
        Checksummed { inner, hash: FNV_OFFSET }
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.inner.write_all(bytes)
    }
}

fn fnv_update(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Writes a graph to `w` in the `PHDBG1` format. Vertices are emitted in
/// sorted key order, so equal graphs serialise to identical bytes.
///
/// A shared or mutable reference can be passed wherever `W: Write` is
/// required.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_graph<W: Write>(graph: &DeBruijnGraph, w: W) -> Result<(), StoreError> {
    let mut out = Checksummed::new(w);
    out.write(MAGIC)?;
    out.write(&[graph.k() as u8])?;
    out.write(&(graph.distinct_vertices() as u64).to_le_bytes())?;
    let mut entries: Vec<(&Kmer, &VertexData)> = graph.iter().collect();
    // Keys are distinct, so an unstable sort on the key alone is
    // deterministic.
    entries.sort_unstable_by_key(|entry| entry.0);
    for (kmer, data) in entries {
        for word in kmer.words() {
            out.write(&word.to_le_bytes())?;
        }
        out.write(&data.count.to_le_bytes())?;
        for e in &data.edges {
            out.write(&e.to_le_bytes())?;
        }
    }
    let checksum = out.hash;
    out.inner.write_all(&checksum.to_le_bytes())?;
    out.inner.flush()?;
    Ok(())
}

/// Reads a graph from `r`, verifying magic, structure and checksum.
///
/// # Errors
///
/// Returns [`StoreError::BadMagic`] / [`StoreError::Corrupt`] /
/// [`StoreError::ChecksumMismatch`] on malformed input and
/// [`StoreError::Io`] on read failures.
pub fn read_graph<R: Read>(mut r: R) -> Result<DeBruijnGraph, StoreError> {
    let mut hash = FNV_OFFSET;
    let mut magic = [0u8; 7];
    r.read_exact(&mut magic).map_err(short_read)?;
    if &magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    fnv_update(&mut hash, &magic);

    let mut header = [0u8; 9];
    r.read_exact(&mut header).map_err(short_read)?;
    fnv_update(&mut hash, &header);
    let k = header[0] as usize;
    if k == 0 || k > dna::MAX_K {
        return Err(StoreError::Corrupt(format!("k={k} out of range")));
    }
    let n = u64::from_le_bytes(header[1..9].try_into().expect("9-byte header")) as usize;

    let mut entries = Vec::with_capacity(n);
    let mut record = [0u8; RECORD_BYTES];
    for i in 0..n {
        r.read_exact(&mut record).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StoreError::Corrupt(format!("file ends inside record {i} of {n}"))
            } else {
                StoreError::Io(e)
            }
        })?;
        fnv_update(&mut hash, &record);
        let mut words = [0u64; 4];
        for (j, word) in words.iter_mut().enumerate() {
            *word = u64::from_le_bytes(record[j * 8..j * 8 + 8].try_into().expect("in range"));
        }
        let kmer = Kmer::from_words(words, k)
            .map_err(|e| StoreError::Corrupt(format!("record {i}: {e}")))?;
        let count = u32::from_le_bytes(record[32..36].try_into().expect("in range"));
        let mut edges = [0u32; 8];
        for (j, e) in edges.iter_mut().enumerate() {
            *e = u32::from_le_bytes(record[36 + j * 4..40 + j * 4].try_into().expect("in range"));
        }
        entries.push((kmer, VertexData { count, edges }));
    }

    let mut trailer = [0u8; 8];
    r.read_exact(&mut trailer).map_err(short_read)?;
    let stored = u64::from_le_bytes(trailer);
    if stored != hash {
        return Err(StoreError::ChecksumMismatch { stored, computed: hash });
    }

    let mut graph = DeBruijnGraph::new(k);
    graph.absorb(SubGraph::new(k, entries));
    Ok(graph)
}

fn short_read(e: io::Error) -> StoreError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        StoreError::Corrupt("file truncated".into())
    } else {
        StoreError::Io(e)
    }
}

/// Convenience: [`write_graph`] to a buffered file.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn save_graph(graph: &DeBruijnGraph, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let file = std::fs::File::create(path)?;
    write_graph(graph, io::BufWriter::new(file))
}

/// Convenience: [`read_graph`] from a buffered file.
///
/// # Errors
///
/// Propagates open/read/validation failures.
pub fn load_graph(path: impl AsRef<Path>) -> Result<DeBruijnGraph, StoreError> {
    let file = std::fs::File::open(path)?;
    read_graph(io::BufReader::new(file))
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
        let path = std::env::temp_dir().join(format!("phdbg-test-{}.dbg", std::process::id()));
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
    fn bad_magic_rejected() {
        assert!(matches!(read_graph(&b"NOTDBG1rest"[..]), Err(StoreError::BadMagic)));
        assert!(matches!(read_graph(&b""[..]), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn truncation_rejected() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        for cut in [buf.len() - 9, buf.len() / 2, 10] {
            let err = read_graph(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "cut at {cut}: expected Corrupt, got {err:?}"
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
        let err = read_graph(&buf[..]).unwrap_err();
        assert!(
            matches!(err, StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn invalid_k_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(0); // k = 0
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // bogus checksum
        assert!(matches!(read_graph(&buf[..]), Err(StoreError::Corrupt(_))));
    }
}
