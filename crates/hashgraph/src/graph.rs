use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use dna::{Base, Kmer, Orientation};

/// Hasher of the graph's position index: the splitmix-style word mixer of
/// [`Kmer::hash64_of_words`], one round per 8 key bytes, in place of
/// SipHash — indexing is one probe per vertex, and hashing the 41-byte
/// key cost 2.5× more keyed than mixed.
///
/// **Seed rule:** the state starts from a constant *different from* the
/// vertex table's (`hash64_of_words` starts from the golden-ratio
/// constant). A table snapshot lists its entries in slot order, i.e.
/// sorted by the table hash's high bits, and the index is filled run by
/// run in that order; a map hashing with that same function would be fed
/// in its own bucket order, the insertion pattern under which
/// open-addressing maps cluster. A distinct seed makes the two orders
/// independent.
///
/// Unkeyed, like the vertex table's slot hash: k-mers crafted to collide
/// here could as well be crafted to collide there, so the index adds no
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

/// Where each vertex sits: canonical k-mer → `(run, position in run)`.
type KmerIndex = HashMap<Kmer, (u32, u32), BuildHasherDefault<KmerHasher>>;

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

/// The full De Bruijn graph, held the way Step 2 produces it: a list of
/// key-disjoint vertex *runs* (one per absorbed [`SubGraph`], entries in
/// the order they arrived) plus a position index, canonical k-mer →
/// `(run, position)`, that exists only once somebody asks for a vertex
/// by key.
///
/// Assembling a graph and walking all of it — [`absorb`](Self::absorb),
/// [`iter`](Self::iter), the totals, [`crate::write_graph`] — never
/// hashes a k-mer. The first keyed access ([`get`](Self::get),
/// [`successors`](Self::successors) / [`predecessors`](Self::predecessors),
/// `==`, [`merge_vertex`](Self::merge_vertex),
/// [`remove_vertex`](Self::remove_vertex)) builds the index in one pass
/// at its exact final capacity, and that pass is where the disjointness
/// [`absorb`](Self::absorb) relies on is checked.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use hashgraph::{build_subgraph_with, ConcurrentDbgTable, DeBruijnGraph, VertexTable};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reads = vec![PackedSeq::from_ascii(b"ACGTACGTAC")];
/// let mut g = DeBruijnGraph::new(4);
/// for records in msp::partition_in_memory(&reads, 4, 2, 2)? {
///     let slices = msp::PartitionSlices::index(&records, 4, 2)?;
///     let table = ConcurrentDbgTable::new(2 * slices.total_kmers() + 16, 4);
///     build_subgraph_with(&table, &slices, 1)?;
///     g.absorb(table.snapshot());
/// }
/// // 7 k-mer occurrences; ACGT-periodic so few distinct vertices.
/// assert_eq!(g.total_kmer_occurrences(), 7);
/// assert!(g.distinct_vertices() < 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeBruijnGraph {
    k: usize,
    /// The vertices. No key occurs twice, within a run or across runs.
    runs: Vec<Vec<(Kmer, VertexData)>>,
    /// Σ run lengths.
    len: usize,
    /// Position of every vertex in `runs`. Unset until the first keyed
    /// access; every `&mut` method either keeps it exact or unsets it.
    index: OnceLock<KmerIndex>,
}

impl PartialEq for DeBruijnGraph {
    /// Set equality: the same `k` and the same vertices with the same
    /// data, however they are split into runs and whatever the order.
    fn eq(&self, other: &DeBruijnGraph) -> bool {
        self.k == other.k
            && self.len == other.len
            && self.iter().all(|(kmer, data)| other.get(kmer) == Some(data))
    }
}

impl Eq for DeBruijnGraph {}

impl DeBruijnGraph {
    /// An empty graph for k-mers of length `k`.
    pub fn new(k: usize) -> DeBruijnGraph {
        DeBruijnGraph { k, runs: Vec::new(), len: 0, index: OnceLock::new() }
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Takes a subgraph's vertices into the graph: its entry vector
    /// becomes one more run — O(1), nothing is copied or hashed.
    ///
    /// Every key of `sub` must be **new to the graph** (and distinct
    /// within `sub`). Subgraphs of one run are, by the MSP cut: every
    /// copy of a canonical k-mer lands in one partition. To combine
    /// records that may repeat a vertex, use
    /// [`merge_vertex`](Self::merge_vertex).
    ///
    /// # Panics
    ///
    /// Panics if the subgraph was built for a different `k`. A repeated
    /// key panics at the next keyed access (see [`DeBruijnGraph`]), with
    /// the k-mer in the message.
    pub fn absorb(&mut self, sub: SubGraph) {
        assert_eq!(sub.k(), self.k, "cannot absorb a k={} subgraph into a k={} graph", sub.k(), self.k);
        if sub.is_empty() {
            return;
        }
        self.index.take();
        self.len += sub.len();
        self.runs.push(sub.into_entries());
    }

    /// The position index, built on first use: one pass over the runs
    /// into a map allocated at its final size.
    fn index(&self) -> &KmerIndex {
        self.index.get_or_init(|| {
            // No run is longer than `len`, so both halves of a position fit.
            let fits = |n: usize| u32::try_from(n).is_ok();
            assert!(fits(self.runs.len()) && fits(self.len), "positions are (u32 run, u32 pos)");
            let mut index = KmerIndex::with_capacity_and_hasher(self.len, Default::default());
            for (r, run) in self.runs.iter().enumerate() {
                for (pos, (kmer, _)) in run.iter().enumerate() {
                    let clash = index.insert(*kmer, (r as u32, pos as u32));
                    assert!(
                        clash.is_none(),
                        "k-mer {kmer} was absorbed twice: `absorb` takes vertices new to the \
                         graph, overlapping records go through `merge_vertex`"
                    );
                }
            }
            index
        })
    }

    /// Whether the position index exists. Building and writing out a
    /// graph never needs it.
    pub fn is_indexed(&self) -> bool {
        self.index.get().is_some()
    }

    /// Merges one vertex record: added to the vertex's data if the graph
    /// has it, a new vertex otherwise.
    pub fn merge_vertex(&mut self, kmer: Kmer, data: VertexData) {
        debug_assert!(kmer.is_canonical(), "vertices must be canonical k-mers");
        self.index();
        let index = self.index.get_mut().expect("built on the line above");
        if let Some(&(r, pos)) = index.get(&kmer) {
            self.runs[r as usize][pos as usize].1.merge(&data);
            return;
        }
        assert!(self.len < u32::MAX as usize, "positions are (u32 run, u32 pos)");
        if self.runs.is_empty() {
            self.runs.push(Vec::new());
        }
        let r = self.runs.len() - 1;
        index.insert(kmer, (r as u32, self.runs[r].len() as u32));
        self.runs[r].push((kmer, data));
        self.len += 1;
    }

    /// The data for a canonical k-mer, if present.
    pub fn get(&self, kmer: &Kmer) -> Option<&VertexData> {
        let &(r, pos) = self.index().get(kmer)?;
        Some(&self.runs[r as usize][pos as usize].1)
    }

    /// Number of distinct vertices (the paper's graph-size metric).
    pub fn distinct_vertices(&self) -> usize {
        self.len
    }

    /// Total k-mer occurrences merged into the graph.
    pub fn total_kmer_occurrences(&self) -> u64 {
        self.iter().map(|(_, v)| v.count as u64).sum()
    }

    /// Occurrences that were duplicates of an already-present vertex
    /// (Table I's "# Duplicate vertices").
    pub fn duplicate_vertices(&self) -> u64 {
        self.total_kmer_occurrences() - self.distinct_vertices() as u64
    }

    /// Sum of all edge multiplicities over all vertices.
    pub fn total_edge_multiplicity(&self) -> u64 {
        self.iter().map(|(_, v)| v.total_edge_multiplicity()).sum()
    }

    /// Iterates over `(canonical k-mer, data)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Kmer, &VertexData)> {
        self.entries().map(|(kmer, data)| (kmer, data))
    }

    /// The vertices as the runs hold them — what the store's encoder
    /// takes from a [`SubGraph`] too.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &(Kmer, VertexData)> {
        self.runs.iter().flatten()
    }

    /// The canonical successors of `kmer` when read in orientation
    /// `orient`, with edge multiplicities: follows the recorded
    /// right-extensions of the oriented string.
    ///
    /// Successor vertices are returned in canonical form with the
    /// orientation the walk continues in.
    pub fn successors(&self, kmer: &Kmer, orient: Orientation) -> Vec<(Kmer, Orientation, u32)> {
        let Some(data) = self.get(kmer) else {
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
        let Some(data) = self.get(kmer) else {
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
        self.index();
        let index = self.index.get_mut().expect("built on the line above");
        let Some((r, pos)) = index.remove(kmer) else {
            return false;
        };
        let run = &mut self.runs[r as usize];
        run.swap_remove(pos as usize);
        // The run's last vertex now sits where the removed one was.
        if let Some((moved, _)) = run.get(pos as usize) {
            index.insert(*moved, (r, pos));
        }
        self.len -= 1;
        true
    }

    /// Removes vertices whose occurrence count is below `min_count` (the
    /// post-construction error filter the paper describes), returning how
    /// many were removed. Edges referencing removed vertices remain as
    /// dangling multiplicities on the survivors, as in the paper's output
    /// ("invalid vertices filtered").
    pub fn filter_min_count(&mut self, min_count: u32) -> usize {
        let before = self.len;
        for run in &mut self.runs {
            run.retain(|(_, v)| v.count >= min_count);
        }
        self.len = self.runs.iter().map(Vec::len).sum();
        if self.len != before {
            self.index.take();
        }
        before - self.len
    }

    /// Approximate in-memory footprint in bytes (used by the memory
    /// accounting in the Table III experiment): what the runs have
    /// allocated, plus the index once it exists.
    pub fn approx_bytes(&self) -> usize {
        let vertex = std::mem::size_of::<(Kmer, VertexData)>();
        // A map bucket: the entry and its control byte.
        let bucket = std::mem::size_of::<(Kmer, (u32, u32))>() + 1;
        self.runs.iter().map(|run| run.capacity() * vertex).sum::<usize>()
            + self.index.get().map_or(0, |index| index.capacity() * bucket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn absorb_takes_disjoint_runs_and_merge_vertex_takes_overlap() {
        let mut g = DeBruijnGraph::new(3);
        let a = km("AAC").canonical().0;
        let b = km("ACC").canonical().0;
        let c = km("AGC").canonical().0;
        let data = VertexData { count: 2, edges: [0; 8] };
        g.absorb(SubGraph::new(3, vec![(a, data), (b, data)]));
        g.absorb(SubGraph::new(3, vec![(c, data)]));
        g.absorb(SubGraph::new(3, Vec::new()));
        assert_eq!(g.distinct_vertices(), 3);
        assert!(!g.is_indexed(), "assembling and counting never index");
        // A record for a vertex the graph already has is a merge.
        g.merge_vertex(a, data);
        assert!(g.is_indexed());
        assert_eq!(g.distinct_vertices(), 3);
        assert_eq!(g.get(&a).unwrap().count, 4);
        assert_eq!(g.total_kmer_occurrences(), 8);
        assert_eq!(g.duplicate_vertices(), 5);
    }

    #[test]
    #[should_panic(expected = "k-mer AAC was absorbed twice")]
    fn a_repeated_key_panics_at_the_first_keyed_access() {
        let mut g = DeBruijnGraph::new(3);
        let a = km("AAC").canonical().0;
        let data = VertexData { count: 1, edges: [0; 8] };
        g.absorb(SubGraph::new(3, vec![(a, data), (km("ACC").canonical().0, data)]));
        g.absorb(SubGraph::new(3, vec![(a, data)]));
        assert_eq!(g.distinct_vertices(), 3, "not noticed while nothing is looked up");
        g.get(&a);
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
    fn equality_ignores_how_vertices_are_split_into_runs_and_their_order() {
        let slot_order = slot_ordered_subgraph(5_000).into_entries();
        let mut canonical = slot_order.clone();
        canonical.sort_unstable_by_key(|entry| entry.0);
        let reversed: Vec<_> = canonical.iter().rev().copied().collect();
        let build = |entries: &[(Kmer, VertexData)], run: usize| {
            let mut g = DeBruijnGraph::new(27);
            for chunk in entries.chunks(run) {
                g.absorb(SubGraph::new(27, chunk.to_vec()));
            }
            g
        };
        let a = build(&slot_order, 700);
        assert_eq!(a.distinct_vertices(), slot_order.len());
        assert_eq!(a, build(&canonical, 5_000));
        assert_eq!(a, build(&reversed, 1));
        assert_eq!(build(&reversed, 33), a);
        // Same keys, one vertex's data off by one; one vertex fewer.
        let mut off = canonical.clone();
        off[17].1.count += 1;
        assert_ne!(a, build(&off, 700));
        assert_ne!(a, build(&canonical[1..], 700));
        assert_ne!(build(&canonical[1..], 700), a);
    }

    /// The adversarial feed the index hasher's seed rule exists for: a
    /// table snapshot, i.e. entries sorted by the *table's* hash, which
    /// is the order the index build inserts a run in. The index's own
    /// hash must see that order as noise — half of the neighbouring pairs
    /// ascend, in the bits that pick the bucket and in the top bits
    /// alike.
    #[test]
    fn slot_order_feed_is_not_bucket_order() {
        use std::hash::BuildHasher;
        // One run: `iter` walks it in the order the index build will.
        let mut g = DeBruijnGraph::new(27);
        g.absorb(slot_ordered_subgraph(200_000));
        let slot_order: Vec<(&Kmer, &VertexData)> = g.iter().collect();
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
        // And the index built from that feed finds every vertex where it is.
        assert!(!g.is_indexed());
        for (kmer, data) in slot_order {
            assert_eq!(g.get(kmer), Some(data));
        }
    }

    /// What the model test does to the graph and to its `BTreeMap` twin.
    #[derive(Debug, Clone)]
    enum Op {
        /// Absorb these keys as one run (those the graph lacks — `absorb`
        /// takes new keys only), each with this count.
        Absorb(Vec<usize>, u32),
        Merge(usize, u32),
        Remove(usize),
        Filter(u32),
        /// Look every key of the domain up, which builds the index.
        Lookup,
    }

    /// 48 distinct canonical 5-mers: few enough that operations collide.
    fn key_domain() -> Vec<Kmer> {
        let mut keys: Vec<Kmer> = (0u32..1024)
            .map(|code| {
                let bases = (0..5).map(|i| Base::ALL[(code >> (2 * i)) as usize & 3]);
                Kmer::from_bases(5, bases).unwrap().canonical().0
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(48);
        keys
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (prop::collection::vec(0usize..48, 0..12), 1u32..6).prop_map(|(keys, n)| Op::Absorb(keys, n)),
            (0usize..48, 1u32..6).prop_map(|(key, n)| Op::Merge(key, n)),
            (0usize..48).prop_map(Op::Remove),
            (0u32..5).prop_map(Op::Filter),
            Just(Op::Lookup),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random interleavings of every mutation against a `BTreeMap`:
        /// the unkeyed view (`iter`, the totals) agrees after every step
        /// whether or not the index exists at that moment, the keyed view
        /// whenever it is asked — so an index that survived a mutation it
        /// should not have (`absorb`, `filter_min_count`), or that
        /// `remove_vertex`'s swap left pointing at the wrong position,
        /// shows up as a wrong `get`.
        #[test]
        fn graph_agrees_with_a_btreemap_model(ops in prop::collection::vec(op(), 1..40)) {
            use std::collections::BTreeMap;
            let keys = key_domain();
            let data = |count: u32| VertexData { count, edges: [count; 8] };
            let mut g = DeBruijnGraph::new(5);
            let mut model: BTreeMap<Kmer, VertexData> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Absorb(mut ids, n) => {
                        ids.sort_unstable();
                        ids.dedup();
                        ids.retain(|&i| !model.contains_key(&keys[i]));
                        let run: Vec<_> = ids.iter().map(|&i| (keys[i], data(n))).collect();
                        model.extend(run.iter().copied());
                        let grew = !run.is_empty();
                        g.absorb(SubGraph::new(5, run));
                        prop_assert!(!(grew && g.is_indexed()));
                    }
                    Op::Merge(i, n) => {
                        model.entry(keys[i]).or_default().merge(&data(n));
                        g.merge_vertex(keys[i], data(n));
                    }
                    Op::Remove(i) => {
                        prop_assert_eq!(g.remove_vertex(&keys[i]), model.remove(&keys[i]).is_some());
                    }
                    Op::Filter(min) => {
                        let before = model.len();
                        model.retain(|_, v| v.count >= min);
                        prop_assert_eq!(g.filter_min_count(min), before - model.len());
                    }
                    Op::Lookup => {
                        for key in &keys {
                            prop_assert_eq!(g.get(key), model.get(key));
                        }
                        prop_assert!(g.is_indexed());
                    }
                }
                let mut seen: Vec<(Kmer, VertexData)> = g.iter().map(|(k, v)| (*k, *v)).collect();
                seen.sort_unstable_by_key(|entry| entry.0);
                let want: Vec<(Kmer, VertexData)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(seen, want);
                prop_assert_eq!(g.distinct_vertices(), model.len());
                let occurrences: u64 = model.values().map(|v| v.count as u64).sum();
                prop_assert_eq!(g.total_kmer_occurrences(), occurrences);
            }
            for key in &keys {
                prop_assert_eq!(g.get(key), model.get(key));
            }
        }
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
    fn approx_bytes_counts_the_runs_and_the_index_once_built() {
        let mut g = DeBruijnGraph::new(3);
        assert_eq!(g.approx_bytes(), 0);
        let run = vec![(km("AAC").canonical().0, VertexData::default()); 1];
        g.absorb(SubGraph::new(3, run));
        let unindexed = g.approx_bytes();
        assert!(unindexed >= std::mem::size_of::<(Kmer, VertexData)>());
        assert!(g.get(&km("AAC").canonical().0).is_some());
        assert!(g.approx_bytes() > unindexed, "the index is memory too");
    }
}
