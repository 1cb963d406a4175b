//! A partition's vertices as dense cells: what a table holds, what a
//! snapshot copies out, and what the one container encoder packs.
//!
//! A cell is `u32` words: the ⌈k/32⌉ key words as little-endian halves
//! (low half first), then the duplicity count and the eight edge
//! counters — [`cell_bytes`] in all, 44 at k ≤ 32.

use dna::Kmer;

use crate::{store, SubGraph, VertexData};

/// `u32` words one vertex cell of `k`-mers spans: two per key word, the
/// count and eight edge counters.
pub(crate) const fn cell_words(k: usize) -> usize {
    2 * k.div_ceil(32) + 9
}

/// Bytes one vertex cell of `k`-mers costs: ⌈k/32⌉ 8-byte key words and
/// the 36-byte counter cell — 44 at k ≤ 32, then 52, 60 and 68.
///
/// # Examples
///
/// ```
/// use hashgraph::cell_bytes;
///
/// assert_eq!(cell_bytes(27), 44);
/// assert_eq!(cell_bytes(33), 52);
/// assert_eq!(cell_bytes(128), 68);
/// ```
pub const fn cell_bytes(k: usize) -> usize {
    4 * cell_words(k)
}

/// The key words of `cell` (`n` of them), zero-padded to a [`Kmer`]'s four.
#[inline]
pub(crate) fn cell_key(cell: &[u32], n: usize) -> [u64; 4] {
    let mut words = [0u64; 4];
    for (word, halves) in words[..n].iter_mut().zip(cell.chunks_exact(2)) {
        *word = u64::from(halves[0]) | u64::from(halves[1]) << 32;
    }
    words
}

/// Vertices as dense cells, in the order they were added — for a table's
/// snapshot ([`ConcurrentDbgTable::snapshot_cells`]), the order its
/// vertices were claimed. [`encode`](Self::encode) and
/// [`pack`](Self::pack) are the one way vertices become a vertex-run
/// container; [`SubGraph`]s are encoded by way of these cells.
///
/// [`ConcurrentDbgTable::snapshot_cells`]: crate::ConcurrentDbgTable::snapshot_cells
///
/// # Examples
///
/// ```
/// use dna::Kmer;
/// use hashgraph::{decode_subgraph, VertexCells, VertexData};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cells = VertexCells::new(5);
/// let (a, b): (Kmer, Kmer) = ("CCCAA".parse()?, "AACGT".parse()?);
/// cells.push(&a, &VertexData { count: 2, edges: [0; 8] });
/// cells.push(&b, &VertexData { count: 1, edges: [1, 0, 0, 0, 0, 0, 0, 0] });
/// let sub = decode_subgraph(&cells.encode())?;
/// assert_eq!(sub.entries()[0].0, b); // canonical order
/// assert_eq!(sub.entries()[1].1.count, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexCells {
    k: usize,
    /// Key words a cell holds: ⌈k/32⌉.
    width: usize,
    /// The cells back to back, [`cell_words`] each.
    pub(crate) words: Vec<u32>,
}

impl VertexCells {
    /// No vertices of `k`-mers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`dna::MAX_K`].
    pub fn new(k: usize) -> VertexCells {
        assert!((1..=dna::MAX_K).contains(&k), "invalid k {k}");
        VertexCells { k, width: k.div_ceil(32), words: Vec::new() }
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride()
    }

    /// Whether there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Bytes the cells occupy: [`cell_bytes`] a vertex.
    pub fn approx_bytes(&self) -> usize {
        4 * self.words.len()
    }

    /// Appends one vertex. Keys must stay distinct for the container to
    /// be one.
    ///
    /// # Panics
    ///
    /// Panics if `kmer` is not a `k`-mer.
    pub fn push(&mut self, kmer: &Kmer, data: &VertexData) {
        assert_eq!(kmer.k(), self.k, "a {}-mer among {}-mer cells", kmer.k(), self.k);
        for word in &kmer.words()[..self.width] {
            self.words.extend([*word as u32, (word >> 32) as u32]);
        }
        self.words.push(data.count);
        self.words.extend_from_slice(&data.edges);
    }

    /// `u32` words a cell spans.
    pub(crate) fn stride(&self) -> usize {
        cell_words(self.k)
    }

    /// Key words a cell holds.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The cells, in order.
    pub(crate) fn cells(&self) -> std::slice::ChunksExact<'_, u32> {
        self.words.chunks_exact(self.stride())
    }

    /// Every vertex, in cell order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Kmer, VertexData)> + '_ {
        let (k, n) = (self.k, self.width);
        self.cells().map(move |cell| {
            let kmer = Kmer::from_words(cell_key(cell, n), k).expect("cells hold valid k-mers");
            let counters = &cell[2 * n..];
            let edges = std::array::from_fn(|e| counters[e + 1]);
            (kmer, VertexData { count: counters[0], edges })
        })
    }

    /// The vertices as a [`SubGraph`], in cell order.
    pub fn to_subgraph(&self) -> SubGraph {
        SubGraph::new(self.k, self.iter().collect())
    }

    /// The vertex-run container of these vertices in canonical
    /// (sorted-by-k-mer) order: a persisted `sub-*.dbg` file, whose bytes
    /// depend on the vertex set alone (see [`crate::encode_subgraph`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(Vec::new())
    }

    /// The same container with the records in cell order — what a graph
    /// holds when no file is written ([`crate::DeBruijnGraph::absorb_encoded`]
    /// takes it). Only canonical order gives equal vertex sets equal
    /// bytes, so this is never a file.
    pub fn pack(&self) -> Vec<u8> {
        self.pack_into(Vec::new())
    }

    /// [`encode`](Self::encode) written over `buffer`: its bytes are
    /// discarded and its allocation holds the container, grown if it is
    /// short and shrunk to fit. Step 2 writes a partition's image over
    /// the partition's own buffer, so the image costs no new memory.
    pub fn encode_into(&self, buffer: Vec<u8>) -> Vec<u8> {
        store::encode(self, true, buffer)
    }

    /// [`pack`](Self::pack) written over `buffer`, as
    /// [`encode_into`](Self::encode_into).
    pub fn pack_into(&self, buffer: Vec<u8>) -> Vec<u8> {
        store::encode(self, false, buffer)
    }
}

impl From<&SubGraph> for VertexCells {
    fn from(sub: &SubGraph) -> VertexCells {
        let mut cells = VertexCells::new(sub.k());
        cells.words.reserve(sub.len() * cells.stride());
        for (kmer, data) in sub.entries() {
            cells.push(kmer, data);
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kmer(s: &str) -> Kmer {
        s.parse().unwrap()
    }

    #[test]
    fn cells_round_trip_at_every_key_width() {
        for k in [5usize, 32, 33, 64, 65, 96, 97, 128] {
            let seq: String = (0..k).map(|i| ['A', 'C', 'G', 'T'][(i * 7 + i / 3) % 4]).collect();
            let other: String = seq.chars().rev().collect();
            let entries = vec![
                (kmer(&seq), VertexData { count: 300, edges: [1, 2, 3, 4, 5, 6, 7, 8] }),
                (kmer(&other), VertexData { count: 1, edges: [0; 8] }),
            ];
            let sub = SubGraph::new(k, entries.clone());
            let cells = VertexCells::from(&sub);
            assert_eq!(cells.len(), 2, "k={k}");
            assert_eq!(cells.approx_bytes(), 2 * cell_bytes(k), "k={k}");
            assert_eq!(cells.to_subgraph(), sub, "k={k}");
        }
    }

    /// Written over a buffer, long or short, the container is the one
    /// written fresh, and no bigger than it.
    #[test]
    fn a_container_written_over_a_buffer_reuses_it() {
        let mut cells = VertexCells::new(5);
        for (i, s) in ["ACGTA", "CCATG", "AAAAC", "GTTTA"].into_iter().enumerate() {
            cells.push(&kmer(s), &VertexData { count: 1 + i as u32, edges: [i as u32; 8] });
        }
        let image = cells.encode_into(vec![0xAB; 4096]);
        assert_eq!(image, cells.encode());
        assert_eq!(image.capacity(), image.len(), "shrunk to fit");
        assert_eq!(cells.pack_into(vec![1; 3]), cells.pack());
    }

    #[test]
    fn cell_bytes_are_the_key_words_and_counters() {
        for (k, bytes) in [(1, 44), (32, 44), (33, 52), (64, 52), (65, 60), (96, 60), (97, 68)] {
            assert_eq!(cell_bytes(k), bytes, "k={k}");
            assert_eq!(cell_bytes(k), 8 * k.div_ceil(32) + 36, "k={k}");
        }
    }
}
