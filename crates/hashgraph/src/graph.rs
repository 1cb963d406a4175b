use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dna::{Base, Kmer, Orientation};

/// Hasher of the merged graph's map: the splitmix-style word mixer of
/// [`Kmer::hash64_of_words`], one round per 8 key bytes, in place of
/// SipHash — absorbing a subgraph is one probe per vertex, and hashing
/// the 41-byte key cost 2.5× more keyed than mixed.
///
/// **Seed rule:** the state starts from a constant *different from* the
/// vertex table's (`hash64_of_words` starts from the golden-ratio
/// constant). A table snapshot lists its entries in slot order, i.e.
/// sorted by the table hash's high bits; a map hashing with that same
/// function would be fed in its own bucket order, the insertion pattern
/// under which open-addressing maps cluster while they grow. A distinct
/// seed makes the two orders independent.
///
/// Unkeyed, like the vertex table's slot hash: k-mers crafted to collide
/// here could as well be crafted to collide there, so the map adds no
/// exposure the construction did not already have.
#[derive(Debug, Clone, Copy)]
struct KmerHasher(u64);

impl Default for KmerHasher {
    fn default() -> KmerHasher {
        KmerHasher(0xD1B5_4A32_D192_ED03)
    }
}

impl Hasher for KmerHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let mut h = self.0 ^ word;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type KmerMap = HashMap<Kmer, VertexData, BuildHasherDefault<KmerHasher>>;

/// Which side of a canonical vertex an edge leaves from.
///
/// A vertex of the bi-directed De Bruijn graph stores eight edge
/// multiplicities: for each base `x`, how often the canonical k-mer was
/// observed extended on the right by `x` ([`EdgeDir::Out`]) and how often
/// it was preceded on the left by `x` ([`EdgeDir::In`]). This is the
/// paper's `<vertex, list of edges>` entry with the adjacent vertex
/// represented by its one non-overlapping character.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeDir {
    /// Right extension of the canonical k-mer.
    Out,
    /// Left extension of the canonical k-mer.
    In,
}

impl EdgeDir {
    /// The slot index (0–7) of `(self, base)` in a [`VertexData::edges`]
    /// array.
    #[inline]
    pub fn slot(self, base: Base) -> usize {
        match self {
            EdgeDir::Out => base.code() as usize,
            EdgeDir::In => 4 + base.code() as usize,
        }
    }
}

/// Per-vertex payload: occurrence count plus the eight edge multiplicities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VertexData {
    /// How many k-mer occurrences merged into this vertex (its
    /// *duplicity*; used post-construction to filter sequencing errors).
    pub count: u32,
    /// Edge multiplicities, indexed by [`EdgeDir::slot`].
    pub edges: [u32; 8],
}

impl VertexData {
    /// Multiplicity of the edge `(dir, base)`.
    pub fn edge(&self, dir: EdgeDir, base: Base) -> u32 {
        self.edges[dir.slot(base)]
    }

    /// Number of distinct outgoing (right) neighbours.
    pub fn out_degree(&self) -> usize {
        self.edges[..4].iter().filter(|&&c| c > 0).count()
    }

    /// Number of distinct incoming (left) neighbours.
    pub fn in_degree(&self) -> usize {
        self.edges[4..].iter().filter(|&&c| c > 0).count()
    }

    /// Sum of all eight edge multiplicities.
    pub fn total_edge_multiplicity(&self) -> u64 {
        self.edges.iter().map(|&c| c as u64).sum()
    }

    /// Adds another vertex record (same vertex seen in another subgraph or
    /// by another builder).
    pub fn merge(&mut self, other: &VertexData) {
        self.count += other.count;
        for (a, b) in self.edges.iter_mut().zip(other.edges.iter()) {
            *a += b;
        }
    }
}

/// One partition's constructed subgraph: the contents of a hash table
/// after Step 2, in no particular order.
///
/// All subgraphs of a run together constitute the entire De Bruijn graph
/// (the MSP cut keeps duplicate vertices within one partition, so keys are
/// disjoint across subgraphs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubGraph {
    k: usize,
    entries: Vec<(Kmer, VertexData)>,
}

impl SubGraph {
    /// Wraps a list of `(canonical k-mer, data)` entries.
    pub fn new(k: usize, entries: Vec<(Kmer, VertexData)>) -> SubGraph {
        SubGraph { k, entries }
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct vertices in this subgraph.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the subgraph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, unordered.
    pub fn entries(&self) -> &[(Kmer, VertexData)] {
        &self.entries
    }

    /// Consumes the subgraph, returning its entries.
    pub fn into_entries(self) -> Vec<(Kmer, VertexData)> {
        self.entries
    }
}

/// The full De Bruijn graph: canonical k-mer → vertex data, assembled by
/// absorbing per-partition [`SubGraph`]s.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use hashgraph::{build_subgraph_serial, DeBruijnGraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reads = vec![PackedSeq::from_ascii(b"ACGTACGTAC")];
/// let parts = msp::partition_in_memory(&reads, 4, 2, 2)?;
/// let mut g = DeBruijnGraph::new(4);
/// for p in &parts {
///     g.absorb(build_subgraph_serial(p, 4)?);
/// }
/// // 7 k-mer occurrences; ACGT-periodic so few distinct vertices.
/// assert_eq!(g.total_kmer_occurrences(), 7);
/// assert!(g.distinct_vertices() < 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeBruijnGraph {
    k: usize,
    map: KmerMap,
}

impl DeBruijnGraph {
    /// An empty graph for k-mers of length `k`.
    pub fn new(k: usize) -> DeBruijnGraph {
        DeBruijnGraph { k, map: KmerMap::default() }
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Merges a subgraph into the graph. Vertices already present (only
    /// possible when two builders are combined on overlapping inputs) have
    /// their counts merged.
    ///
    /// # Panics
    ///
    /// Panics if the subgraph was built for a different `k`.
    pub fn absorb(&mut self, sub: SubGraph) {
        assert_eq!(sub.k(), self.k, "cannot absorb a k={} subgraph into a k={} graph", sub.k(), self.k);
        // Subgraphs of one run are key-disjoint, so every entry is new.
        self.map.reserve(sub.len());
        for (kmer, data) in sub.into_entries() {
            self.map.entry(kmer).or_default().merge(&data);
        }
    }

    /// Makes room for at least `additional` more distinct vertices, so
    /// that absorbing them does not regrow the map — for a caller that
    /// knows what is coming and would rather pay the regrowth (old and
    /// new table side by side) now than at a worse moment.
    pub fn reserve(&mut self, additional: usize) {
        self.map.reserve(additional);
    }

    /// Merges one vertex record.
    pub fn merge_vertex(&mut self, kmer: Kmer, data: VertexData) {
        debug_assert!(kmer.is_canonical(), "vertices must be canonical k-mers");
        self.map.entry(kmer).or_default().merge(&data);
    }

    /// The data for a canonical k-mer, if present.
    pub fn get(&self, kmer: &Kmer) -> Option<&VertexData> {
        self.map.get(kmer)
    }

    /// Number of distinct vertices (the paper's graph-size metric).
    pub fn distinct_vertices(&self) -> usize {
        self.map.len()
    }

    /// Total k-mer occurrences merged into the graph.
    pub fn total_kmer_occurrences(&self) -> u64 {
        self.map.values().map(|v| v.count as u64).sum()
    }

    /// Occurrences that were duplicates of an already-present vertex
    /// (Table I's "# Duplicate vertices").
    pub fn duplicate_vertices(&self) -> u64 {
        self.total_kmer_occurrences() - self.distinct_vertices() as u64
    }

    /// Sum of all edge multiplicities over all vertices.
    pub fn total_edge_multiplicity(&self) -> u64 {
        self.map.values().map(VertexData::total_edge_multiplicity).sum()
    }

    /// Iterates over `(canonical k-mer, data)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Kmer, &VertexData)> {
        self.map.iter()
    }

    /// The canonical successors of `kmer` when read in orientation
    /// `orient`, with edge multiplicities: follows the recorded
    /// right-extensions of the oriented string.
    ///
    /// Successor vertices are returned in canonical form with the
    /// orientation the walk continues in.
    pub fn successors(&self, kmer: &Kmer, orient: Orientation) -> Vec<(Kmer, Orientation, u32)> {
        let Some(data) = self.map.get(kmer) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for base in Base::ALL {
            // Right-extension of the oriented string maps to Out for
            // forward reading, In (complemented) for reverse reading.
            let mult = match orient {
                Orientation::Forward => data.edge(EdgeDir::Out, base),
                Orientation::Reverse => data.edge(EdgeDir::In, base.complement()),
            };
            if mult == 0 {
                continue;
            }
            let oriented = match orient {
                Orientation::Forward => *kmer,
                Orientation::Reverse => kmer.revcomp(),
            };
            let next = oriented.push_right(base);
            let (canon, o) = next.canonical();
            out.push((canon, o, mult));
        }
        out
    }

    /// The canonical predecessors of `kmer` read in orientation `orient`.
    pub fn predecessors(&self, kmer: &Kmer, orient: Orientation) -> Vec<(Kmer, Orientation, u32)> {
        let Some(data) = self.map.get(kmer) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for base in Base::ALL {
            let mult = match orient {
                Orientation::Forward => data.edge(EdgeDir::In, base),
                Orientation::Reverse => data.edge(EdgeDir::Out, base.complement()),
            };
            if mult == 0 {
                continue;
            }
            let oriented = match orient {
                Orientation::Forward => *kmer,
                Orientation::Reverse => kmer.revcomp(),
            };
            let prev = oriented.push_left(base);
            let (canon, o) = prev.canonical();
            out.push((canon, o, mult));
        }
        out
    }

    /// Removes one vertex, returning whether it was present. Edges on
    /// other vertices that referenced it become dangling, exactly as with
    /// [`filter_min_count`](Self::filter_min_count); traversals ignore
    /// them.
    pub fn remove_vertex(&mut self, kmer: &Kmer) -> bool {
        self.map.remove(kmer).is_some()
    }

    /// Removes vertices whose occurrence count is below `min_count` (the
    /// post-construction error filter the paper describes), returning how
    /// many were removed. Edges referencing removed vertices remain as
    /// dangling multiplicities on the survivors, as in the paper's output
    /// ("invalid vertices filtered").
    pub fn filter_min_count(&mut self, min_count: u32) -> usize {
        let before = self.map.len();
        self.map.retain(|_, v| v.count >= min_count);
        before - self.map.len()
    }

    /// Approximate in-memory footprint in bytes (used by the memory
    /// accounting in the Table III experiment).
    pub fn approx_bytes(&self) -> usize {
        self.map.len() * (std::mem::size_of::<Kmer>() + std::mem::size_of::<VertexData>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn km(s: &str) -> Kmer {
        s.parse().unwrap()
    }

    #[test]
    fn edge_slot_layout() {
        assert_eq!(EdgeDir::Out.slot(Base::A), 0);
        assert_eq!(EdgeDir::Out.slot(Base::T), 3);
        assert_eq!(EdgeDir::In.slot(Base::A), 4);
        assert_eq!(EdgeDir::In.slot(Base::T), 7);
    }

    #[test]
    fn vertex_data_degrees_and_merge() {
        let mut v = VertexData { count: 3, ..Default::default() };
        v.edges[EdgeDir::Out.slot(Base::G)] = 2;
        v.edges[EdgeDir::In.slot(Base::A)] = 1;
        assert_eq!(v.out_degree(), 1);
        assert_eq!(v.in_degree(), 1);
        assert_eq!(v.total_edge_multiplicity(), 3);
        assert_eq!(v.edge(EdgeDir::Out, Base::G), 2);

        let mut w = VertexData { count: 1, ..Default::default() };
        w.edges[EdgeDir::Out.slot(Base::G)] = 5;
        v.merge(&w);
        assert_eq!(v.count, 4);
        assert_eq!(v.edge(EdgeDir::Out, Base::G), 7);
    }

    #[test]
    fn absorb_merges_disjoint_and_overlapping() {
        let mut g = DeBruijnGraph::new(3);
        let a = km("AAC").canonical().0;
        let b = km("ACC").canonical().0;
        assert_ne!(a, b, "test requires two distinct canonical vertices");
        let data = VertexData { count: 2, edges: [0; 8] };
        g.absorb(SubGraph::new(3, vec![(a, data), (b, data)]));
        assert_eq!(g.distinct_vertices(), 2);
        g.absorb(SubGraph::new(3, vec![(a, data)]));
        assert_eq!(g.distinct_vertices(), 2);
        assert_eq!(g.get(&a).unwrap().count, 4);
        assert_eq!(g.total_kmer_occurrences(), 6);
        assert_eq!(g.duplicate_vertices(), 4);
    }

    /// Distinct canonical-looking k = 27 keys from a fixed xorshift
    /// stream, recorded into a vertex table so the snapshot comes back in
    /// the table's own slot order.
    fn slot_ordered_subgraph(n: usize) -> SubGraph {
        use crate::{ConcurrentDbgTable, VertexTable};
        let table = ConcurrentDbgTable::new(2 * n, 27);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = Kmer::from_words([state, 0, 0, 0], 27).unwrap();
            table.record(&key, [Some((i % 8) as u8), None]).unwrap();
        }
        table.snapshot()
    }

    #[test]
    fn absorb_order_does_not_change_the_graph() {
        let slot_order = slot_ordered_subgraph(5_000).into_entries();
        let mut canonical = slot_order.clone();
        canonical.sort_unstable_by_key(|entry| entry.0);
        let reversed: Vec<_> = canonical.iter().rev().copied().collect();
        let build = |entries: &[(Kmer, VertexData)]| {
            let mut g = DeBruijnGraph::new(27);
            // Several subgraphs, as a run absorbs them.
            for chunk in entries.chunks(700) {
                g.absorb(SubGraph::new(27, chunk.to_vec()));
            }
            g
        };
        let a = build(&slot_order);
        assert_eq!(a.distinct_vertices(), slot_order.len());
        assert_eq!(a, build(&canonical));
        assert_eq!(a, build(&reversed));
    }

    /// The adversarial feed the graph hasher's seed rule exists for: a
    /// table snapshot, i.e. entries sorted by the *table's* hash. The
    /// map's own hash must see that order as noise — half of the
    /// neighbouring pairs ascend, in the bits that pick the bucket and in
    /// the top bits alike — and absorbing it must cost what absorbing
    /// the same entries in key order costs.
    #[test]
    fn slot_order_feed_is_not_bucket_order() {
        use std::hash::BuildHasher;
        let slot_order = slot_ordered_subgraph(200_000).into_entries();
        let table_hashes: Vec<u64> = slot_order.iter().map(|(k, _)| k.hash64()).collect();
        let in_order = table_hashes.windows(2).filter(|w| w[0] <= w[1]).count() as f64;
        assert!(
            in_order > 0.75 * table_hashes.len() as f64,
            "the fixture must really be in table-hash order (linear-probe displacement \
             aside): {in_order} of {} neighbours ascend",
            table_hashes.len()
        );
        let hasher = BuildHasherDefault::<KmerHasher>::default();
        let graph_hashes: Vec<u64> = slot_order.iter().map(|(k, _)| hasher.hash_one(k)).collect();
        for (what, shift, mask) in [("bucket bits", 0, 0xF_FFFFu64), ("top bits", 44, !0u64)] {
            let ascending = graph_hashes
                .windows(2)
                .filter(|w| (w[0] >> shift) & mask <= (w[1] >> shift) & mask)
                .count() as f64;
            let share = ascending / (graph_hashes.len() - 1) as f64;
            assert!((0.48..0.52).contains(&share), "{what}: {share} of neighbours ascend");
        }

        let mut canonical = slot_order.clone();
        canonical.sort_unstable_by_key(|entry| entry.0);
        let time = |entries: Vec<(Kmer, VertexData)>| {
            let started = std::time::Instant::now();
            let mut g = DeBruijnGraph::new(27);
            g.absorb(SubGraph::new(27, entries));
            assert_eq!(g.distinct_vertices(), 200_000);
            started.elapsed()
        };
        // Warm the allocator, then the best of three each: clustering
        // would cost orders of magnitude, not a factor of four.
        time(canonical.clone());
        let best = |entries: &Vec<(Kmer, VertexData)>| {
            (0..3).map(|_| time(entries.clone())).min().unwrap()
        };
        let (slot, key) = (best(&slot_order), best(&canonical));
        assert!(slot < 4 * key, "slot-order absorb {slot:?} vs key-order {key:?}");
    }

    #[test]
    #[should_panic(expected = "cannot absorb")]
    fn absorb_rejects_mismatched_k() {
        DeBruijnGraph::new(3).absorb(SubGraph::new(4, Vec::new()));
    }

    #[test]
    fn successors_follow_out_edges() {
        // Record the edge TGATG → GATGG (paper's Fig 1): canonical form of
        // TGATG is CATCA (orientation Reverse), so the right-extension by G
        // lands in slot In(complement(G)) = In(C).
        let mut g = DeBruijnGraph::new(5);
        let (canon, orient) = km("TGATG").canonical();
        assert_eq!(orient, Orientation::Reverse);
        let mut data = VertexData { count: 2, edges: [0; 8] };
        data.edges[EdgeDir::In.slot(Base::G.complement())] = 2;
        g.merge_vertex(canon, data);

        // Walking TGATG forward (i.e. the canonical CATCA in Reverse).
        let succ = g.successors(&canon, Orientation::Reverse);
        assert_eq!(succ.len(), 1);
        let (next, _, mult) = succ[0];
        assert_eq!(next, km("GATGG").canonical().0);
        assert_eq!(mult, 2);
    }

    #[test]
    fn predecessors_mirror_successors() {
        // Edge ACGTA → CGTAT recorded on both endpoints.
        let u = km("ACGTA");
        let v = km("CGTAT");
        let (cu, ou) = u.canonical();
        let (cv, ov) = v.canonical();
        let mut g = DeBruijnGraph::new(5);

        let mut du = VertexData { count: 1, edges: [0; 8] };
        let slot_u = match ou {
            Orientation::Forward => EdgeDir::Out.slot(Base::T),
            Orientation::Reverse => EdgeDir::In.slot(Base::T.complement()),
        };
        du.edges[slot_u] = 1;
        g.merge_vertex(cu, du);

        let mut dv = VertexData { count: 1, edges: [0; 8] };
        let slot_v = match ov {
            Orientation::Forward => EdgeDir::In.slot(Base::A),
            Orientation::Reverse => EdgeDir::Out.slot(Base::A.complement()),
        };
        dv.edges[slot_v] = 1;
        g.merge_vertex(cv, dv);

        let succ = g.successors(&cu, ou);
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].0, cv);
        let pred = g.predecessors(&cv, ov);
        assert_eq!(pred.len(), 1);
        assert_eq!(pred[0].0, cu);
    }

    #[test]
    fn filter_removes_low_count_vertices() {
        let mut g = DeBruijnGraph::new(3);
        g.merge_vertex(km("AAC").canonical().0, VertexData { count: 10, edges: [0; 8] });
        g.merge_vertex(km("ACG").canonical().0, VertexData { count: 1, edges: [0; 8] });
        assert_eq!(g.filter_min_count(2), 1);
        assert_eq!(g.distinct_vertices(), 1);
        assert_eq!(g.filter_min_count(2), 0);
    }

    #[test]
    fn missing_vertex_has_no_neighbours() {
        let g = DeBruijnGraph::new(5);
        assert!(g.successors(&km("ACGTA"), Orientation::Forward).is_empty());
        assert!(g.predecessors(&km("ACGTA"), Orientation::Forward).is_empty());
        assert!(g.get(&km("ACGTA")).is_none());
    }

    #[test]
    fn approx_bytes_scales_with_vertices() {
        let mut g = DeBruijnGraph::new(3);
        let empty = g.approx_bytes();
        g.merge_vertex(km("AAC").canonical().0, VertexData::default());
        assert!(g.approx_bytes() > empty);
    }
}
