use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use dna::{Base, InputBytes, Kmer, Orientation};

use crate::store::{self, Codec};

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

/// The full De Bruijn graph, held the way Step 2 commits it: a list of
/// key-disjoint vertex *runs*, each in the record layout of a `sub-*.dbg`
/// file ([`crate::encode_subgraph`]) — ⌈k/32⌉ little-endian key words, then the
/// count and eight edge counters at one width `w ∈ {1, 2, 4}` per run,
/// 17 bytes a vertex at k ≤ 32 with counters under 256 — plus a position
/// index, canonical k-mer → `(run, position)`, that exists only once
/// somebody asks for a vertex by key.
///
/// A committed subgraph file *is* a run: [`absorb_file`](Self::absorb_file)
/// maps the file read-only and keeps the mapping, so the graph a build
/// returns holds no second copy of what it committed; the page cache holds
/// the bytes, and nothing reads them until somebody walks or looks up the
/// graph. [`absorb_encoded`](Self::absorb_encoded) keeps a container
/// image's bytes, header and trailer trimmed, without a copy.
/// [`absorb`](Self::absorb) packs a table snapshot into the same layout.
/// Vertices come out by value ([`iter`](Self::iter), [`get`](Self::get)),
/// decoded by a codec chosen once per run. A mutation copies a mapped run
/// to an owned buffer first, and never writes to the file. The files a
/// graph maps must not be cut short in place while it lives (reading
/// past the new end faults with `SIGBUS`); unlinking them, or renaming
/// another file over them, leaves the mapping as it was.
///
/// Assembling a graph and counting it — the `absorb`s,
/// [`distinct_vertices`](Self::distinct_vertices),
/// [`total_kmer_occurrences`](Self::total_kmer_occurrences) — reads no
/// run, mapped or owned: the totals are kept as runs come and go.
/// Walking all of it ([`iter`](Self::iter), [`crate::write_graph`]) never
/// hashes a k-mer. The first keyed access ([`get`](Self::get),
/// [`successors`](Self::successors) / [`predecessors`](Self::predecessors),
/// `==`, [`merge_vertex`](Self::merge_vertex),
/// [`remove_vertex`](Self::remove_vertex)) builds the index in one pass
/// at its exact final capacity, and that pass is where the disjointness
/// the `absorb`s rely on is checked.
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
    runs: Vec<Run>,
    /// Σ run lengths.
    len: usize,
    /// Σ vertex counts, kept by every absorb and mutation.
    kmers: u64,
    /// Position of every vertex in `runs`. Unset until the first keyed
    /// access; every `&mut` method either keeps it exact or unsets it.
    index: OnceLock<KmerIndex>,
}

/// One run of vertices: `bytes[start..end]` is a whole number of records
/// of `codec`'s shape. `start` skips the header of an absorbed container
/// image and `end` its trailer; a run packed here spans its whole buffer.
/// The bytes are owned, or a private read-only mapping of a committed
/// file ([`DeBruijnGraph::absorb_file`]); the first mutation turns a
/// mapped run into an owned one ([`bytes_mut`](Self::bytes_mut)). An
/// owned run's records end where its buffer does.
#[derive(Debug)]
struct Run {
    bytes: InputBytes,
    start: usize,
    end: usize,
    codec: Codec,
}

impl Clone for Run {
    /// An owned copy of the records, a mapped run's read from its mapping.
    fn clone(&self) -> Run {
        Run::owned(self.records().to_vec(), 0, self.codec)
    }
}

impl Run {
    /// A run over `bytes[start..]`, owned.
    fn owned(bytes: Vec<u8>, start: usize, codec: Codec) -> Run {
        let end = bytes.len();
        Run { bytes: InputBytes::from_vec(bytes), start, end, codec }
    }

    fn records(&self) -> &[u8] {
        &self.bytes.as_bytes()[self.start..self.end]
    }

    fn len(&self) -> usize {
        (self.end - self.start) / self.codec.len()
    }

    /// Where record `pos` sits in `bytes`.
    fn span(&self, pos: usize) -> std::ops::Range<usize> {
        let at = self.start + pos * self.codec.len();
        at..at + self.codec.len()
    }

    fn vertex(&self, pos: usize) -> (Kmer, VertexData) {
        self.codec.read(&self.bytes.as_bytes()[self.span(pos)])
    }

    fn iter(&self) -> impl Iterator<Item = (Kmer, VertexData)> + '_ {
        let codec = self.codec;
        self.records().chunks_exact(codec.len()).map(move |record| codec.read(record))
    }

    /// The bytes to change, owned: a mapped run is copied out of its
    /// mapping first (nothing is written through to the file) and its
    /// trailer dropped. A caller that changes the length sets `end`.
    fn bytes_mut(&mut self) -> &mut Vec<u8> {
        let bytes = self.bytes.to_mut();
        bytes.truncate(self.end);
        bytes
    }

    /// Repacks the run at the width `data`'s counters need, if that is
    /// wider than the run's.
    fn fit(&mut self, data: &VertexData) {
        let w = store::width_of(store::counter_bits(data));
        if w <= self.codec.w() {
            return;
        }
        let wider = Codec::new(self.codec.k(), w);
        let mut bytes = vec![0; self.len() * wider.len()];
        let records = self.records().chunks_exact(self.codec.len());
        for (dst, src) in bytes.chunks_exact_mut(wider.len()).zip(records) {
            let (kmer, vertex) = self.codec.read(src);
            wider.write(dst, &kmer, &vertex);
        }
        *self = Run::owned(bytes, 0, wider);
    }

    /// Overwrites record `pos`, widening the run first if need be.
    fn set(&mut self, pos: usize, kmer: &Kmer, data: &VertexData) {
        self.fit(data);
        let (span, codec) = (self.span(pos), self.codec);
        codec.write(&mut self.bytes_mut()[span], kmer, data);
    }

    /// Appends a record, widening the run first if need be.
    fn push(&mut self, kmer: Kmer, data: VertexData) {
        self.fit(&data);
        let codec = self.codec;
        let bytes = self.bytes_mut();
        let at = bytes.len();
        bytes.resize(at + codec.len(), 0);
        codec.write(&mut bytes[at..], &kmer, &data);
        self.end = bytes.len();
    }

    /// Removes record `pos` by moving the last record into its place;
    /// returns the moved record's k-mer, if one moved.
    fn swap_remove(&mut self, pos: usize) -> Option<Kmer> {
        let (hole, last, codec) = (self.span(pos), self.span(self.len() - 1), self.codec);
        let bytes = self.bytes_mut();
        let moved = (hole != last).then(|| {
            bytes.copy_within(last.clone(), hole.start);
            codec.key(&bytes[hole])
        });
        bytes.truncate(last.start);
        self.end = last.start;
        moved
    }

    /// Keeps the records whose count is at least `min_count`, compacted
    /// in place in their order; returns the occurrences dropped. A run
    /// that keeps every record is left as it is, mapped or not.
    fn retain(&mut self, min_count: u32) -> u64 {
        let (len, codec) = (self.codec.len(), self.codec);
        let count = |record: &[u8]| codec.sum(record, 0..1);
        let min_count = u64::from(min_count);
        let Some(first) = self.records().chunks_exact(len).position(|r| count(r) < min_count) else {
            return 0;
        };
        let mut kept = self.start + first * len;
        let (bytes, mut dropped) = (self.bytes_mut(), 0);
        for at in (kept..bytes.len()).step_by(len) {
            let n = count(&bytes[at..at + len]);
            if n >= min_count {
                bytes.copy_within(at..at + len, kept);
                kept += len;
            } else {
                dropped += n;
            }
        }
        bytes.truncate(kept);
        self.end = kept;
        dropped
    }
}

impl PartialEq for DeBruijnGraph {
    /// Set equality: the same `k` and the same vertices with the same
    /// data, however they are split into runs and whatever the order.
    fn eq(&self, other: &DeBruijnGraph) -> bool {
        self.k == other.k
            && self.len == other.len
            && self.iter().all(|(kmer, data)| other.get(&kmer) == Some(data))
    }
}

impl Eq for DeBruijnGraph {}

impl DeBruijnGraph {
    /// An empty graph for k-mers of length `k`.
    pub fn new(k: usize) -> DeBruijnGraph {
        DeBruijnGraph { k, runs: Vec::new(), len: 0, kmers: 0, index: OnceLock::new() }
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Takes a subgraph's vertices into the graph as one more run, packed
    /// in the snapshot's order at the narrowest counter width that holds
    /// them ([`crate::pack_subgraph`]'s records). Nothing is hashed.
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
        let kmers = sub.entries().iter().map(|(_, data)| u64::from(data.count)).sum();
        let cells = crate::VertexCells::from(&sub);
        let (bytes, codec) = store::pack_run(&cells, false, 0, 0, Vec::new());
        self.push_run(Run::owned(bytes, 0, codec), kmers);
    }

    /// Takes one vertex-run container image — a committed `sub-*.dbg`
    /// file's bytes, [`crate::encode_subgraph`]'s or
    /// [`crate::pack_subgraph`]'s — into the graph as one more run: the
    /// header and CRC trailer are trimmed off, the records stay where
    /// they are. Nothing is copied, decoded or hashed; the count column
    /// is summed once for [`total_kmer_occurrences`](Self::total_kmer_occurrences).
    ///
    /// The caller has checked the image ([`crate::check_subgraph`], or it
    /// encoded the image itself); only the header is read here, and the
    /// trailer is not recomputed. Keys must be new to the graph, as for
    /// [`absorb`](Self::absorb).
    ///
    /// # Panics
    ///
    /// Panics if the header is malformed or does not match the image's
    /// length, or declares a different `k`.
    pub fn absorb_encoded(&mut self, mut image: Vec<u8>) {
        let (records, codec) = self.checked_span(&image);
        let kmers = codec.sum(&image[records.clone()], 0..1);
        image.truncate(records.end);
        self.push_run(Run::owned(image, records.start, codec), kmers);
    }

    /// Takes a committed container file into the graph as one more run,
    /// mapped: `image` is the file's bytes, checked, as the caller read
    /// or wrote them through `file`. The header, the records' span and
    /// the k-mer total come from `image`; the run's bytes are a private
    /// read-only mapping of `file` — the same handle, so no other file can
    /// take its place in between — which nothing here reads. Once this
    /// returns the caller may drop or reuse `image`. Where `file` cannot
    /// be mapped (no `mmap`, a refused syscall) or no longer has
    /// `image`'s length, the run is an owned copy of `image`.
    ///
    /// Keys must be new to the graph, as for [`absorb`](Self::absorb).
    ///
    /// # Panics
    ///
    /// As [`absorb_encoded`](Self::absorb_encoded).
    pub fn absorb_file(&mut self, file: &std::fs::File, image: &[u8]) {
        let (records, codec) = self.checked_span(image);
        let kmers = codec.sum(&image[records.clone()], 0..1);
        let mapped = InputBytes::map(file).ok().flatten();
        let bytes = mapped
            .filter(|bytes| bytes.as_bytes().len() == image.len())
            .unwrap_or_else(|| InputBytes::from_vec(image[..records.end].to_vec()));
        self.push_run(Run { bytes, start: records.start, end: records.end, codec }, kmers);
    }

    /// The records' span and codec of a checked container image for this
    /// graph's `k`.
    fn checked_span(&self, image: &[u8]) -> (std::ops::Range<usize>, Codec) {
        let (records, codec) = store::records_span(image)
            .unwrap_or_else(|e| panic!("the graph takes a checked container: {e}"));
        let k = codec.k();
        assert_eq!(k, self.k, "cannot absorb a k={k} subgraph into a k={} graph", self.k);
        (records, codec)
    }

    /// Adds `run`, holding `kmers` occurrences, unless it is empty.
    fn push_run(&mut self, run: Run, kmers: u64) {
        if run.len() == 0 {
            return;
        }
        self.index.take();
        self.len += run.len();
        self.kmers += kmers;
        self.runs.push(run);
    }

    /// The position index, built on first use: one pass over the runs'
    /// keys into a map allocated at its final size.
    fn index(&self) -> &KmerIndex {
        self.index.get_or_init(|| {
            // No run is longer than `len`, so both halves of a position fit.
            let fits = |n: usize| u32::try_from(n).is_ok();
            assert!(fits(self.runs.len()) && fits(self.len), "positions are (u32 run, u32 pos)");
            let mut index = KmerIndex::with_capacity_and_hasher(self.len, Default::default());
            for (r, run) in self.runs.iter().enumerate() {
                for (pos, record) in run.records().chunks_exact(run.codec.len()).enumerate() {
                    let kmer = run.codec.key(record);
                    let clash = index.insert(kmer, (r as u32, pos as u32));
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
    /// has it, a new vertex at the end of the last run otherwise. A
    /// counter that outgrows its run's width repacks that run wider.
    pub fn merge_vertex(&mut self, kmer: Kmer, data: VertexData) {
        debug_assert!(kmer.is_canonical(), "vertices must be canonical k-mers");
        self.index();
        let index = self.index.get_mut().expect("built on the line above");
        if let Some(&(r, pos)) = index.get(&kmer) {
            let run = &mut self.runs[r as usize];
            let mut merged = run.vertex(pos as usize).1;
            merged.merge(&data);
            run.set(pos as usize, &kmer, &merged);
            self.kmers += u64::from(data.count);
            return;
        }
        assert!(self.len < u32::MAX as usize, "positions are (u32 run, u32 pos)");
        if self.runs.is_empty() {
            self.runs.push(Run::owned(Vec::new(), 0, Codec::new(self.k, 1)));
        }
        let r = self.runs.len() - 1;
        index.insert(kmer, (r as u32, self.runs[r].len() as u32));
        self.runs[r].push(kmer, data);
        self.len += 1;
        self.kmers += u64::from(data.count);
    }

    /// The data for a canonical k-mer, if present.
    pub fn get(&self, kmer: &Kmer) -> Option<VertexData> {
        let &(r, pos) = self.index().get(kmer)?;
        Some(self.runs[r as usize].vertex(pos as usize).1)
    }

    /// Number of distinct vertices (the paper's graph-size metric).
    pub fn distinct_vertices(&self) -> usize {
        self.len
    }

    /// Total k-mer occurrences merged into the graph: a total kept as
    /// runs are absorbed and vertices change, so no run is read.
    pub fn total_kmer_occurrences(&self) -> u64 {
        self.kmers
    }

    /// Occurrences that were duplicates of an already-present vertex
    /// (Table I's "# Duplicate vertices").
    pub fn duplicate_vertices(&self) -> u64 {
        self.total_kmer_occurrences() - self.distinct_vertices() as u64
    }

    /// Sum of all edge multiplicities over all vertices: a read of the
    /// eight edge columns, no vertex decoded.
    pub fn total_edge_multiplicity(&self) -> u64 {
        self.runs.iter().map(|run| run.codec.sum(run.records(), 1..9)).sum()
    }

    /// Iterates over `(canonical k-mer, data)` in arbitrary order, each
    /// vertex decoded from its record.
    pub fn iter(&self) -> impl Iterator<Item = (Kmer, VertexData)> + '_ {
        self.runs.iter().flat_map(Run::iter)
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
        self.kmers -= u64::from(run.vertex(pos as usize).1.count);
        // The run's last vertex now sits where the removed one was.
        if let Some(moved) = run.swap_remove(pos as usize) {
            index.insert(moved, (r, pos));
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
            self.kmers -= run.retain(min_count);
        }
        self.len = self.runs.iter().map(Run::len).sum();
        if self.len != before {
            self.index.take();
        }
        before - self.len
    }

    /// Approximate in-memory footprint in bytes (used by the memory
    /// accounting in the Table III experiment): the owned runs' bytes,
    /// plus the index once it exists. A mapped run counts nothing: its
    /// pages are the file's clean page cache, which the kernel can take
    /// back.
    pub fn approx_bytes(&self) -> usize {
        // A map bucket: the entry and its control byte.
        let bucket = std::mem::size_of::<(Kmer, (u32, u32))>() + 1;
        let owned = |run: &Run| if run.bytes.is_mapped() { 0 } else { run.bytes.as_bytes().len() };
        self.runs.iter().map(owned).sum::<usize>()
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
    /// stream, recorded into a vertex table, the snapshot sorted into the
    /// table's home-slot order (the order of the table's hash).
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
        let mut entries = table.snapshot().into_entries();
        entries.sort_by_key(|(kmer, _)| kmer.hash64());
        SubGraph::new(27, entries)
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
        let slot_order: Vec<(Kmer, VertexData)> = g.iter().collect();
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
            assert_eq!(g.get(&kmer), Some(data));
        }
    }

    /// How a model-test run enters the graph.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        /// [`DeBruijnGraph::absorb`] of the snapshot.
        Snapshot,
        /// [`DeBruijnGraph::absorb_encoded`] of the committed file image.
        File,
        /// [`DeBruijnGraph::absorb_encoded`] of the unsorted packing.
        Packed,
        /// [`DeBruijnGraph::absorb_file`] of the committed file, unlinked
        /// once absorbed.
        Mapped,
    }

    /// What the model test does to the graph and to its `BTreeMap` twin.
    /// Every vertex is [`vertex`]`(n, hot)`.
    #[derive(Debug, Clone)]
    enum Op {
        /// Absorb these keys as one run (those the graph lacks — the
        /// `absorb`s take new keys only).
        Absorb(Vec<usize>, u32, usize, Entry),
        Merge(usize, u32, usize),
        Remove(usize),
        Filter(u32),
        /// Look every key of the domain up, which builds the index.
        Lookup,
    }

    /// Counter `hot` (0 the count, 1..9 an edge) is `n`, the others 1:
    /// a large `n` widens a run through the count alone or one edge alone.
    fn vertex(n: u32, hot: usize) -> VertexData {
        let mut counters = [1u32; 9];
        counters[hot] = n;
        VertexData { count: counters[0], edges: std::array::from_fn(|e| counters[e + 1]) }
    }

    /// 48 distinct canonical `k`-mers from a fixed stream: few enough that
    /// operations collide.
    fn key_domain(k: usize) -> Vec<Kmer> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut keys = std::collections::BTreeSet::new();
        while keys.len() < 48 {
            let bases: Vec<Base> = (0..k)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    Base::ALL[(state >> 62) as usize]
                })
                .collect();
            keys.insert(Kmer::from_bases(k, bases).unwrap().canonical().0);
        }
        keys.into_iter().collect()
    }

    /// Small amounts, and amounts that take a counter past 255 and 65 535
    /// on their own or in a few merges.
    fn amount() -> impl Strategy<Value = u32> {
        prop_oneof![1u32..6, Just(200), Just(300), Just(65_000), Just(70_000)]
    }

    fn op() -> impl Strategy<Value = Op> {
        let entry = prop_oneof![
            Just(Entry::Snapshot),
            Just(Entry::File),
            Just(Entry::Packed),
            Just(Entry::Mapped)
        ];
        prop_oneof![
            (prop::collection::vec(0usize..48, 0..12), amount(), 0usize..9, entry)
                .prop_map(|(keys, n, hot, entry)| Op::Absorb(keys, n, hot, entry)),
            (0usize..48, amount(), 0usize..9).prop_map(|(key, n, hot)| Op::Merge(key, n, hot)),
            (0usize..48).prop_map(Op::Remove),
            prop_oneof![0u32..5, Just(256), Just(65_536)].prop_map(Op::Filter),
            Just(Op::Lookup),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random interleavings of every mutation against a `BTreeMap`, at
        /// k = 5 (one key word) and k = 65 (three): the unkeyed view
        /// (`iter`, the totals) agrees after every step whether or not the
        /// index exists at that moment, the keyed view whenever it is
        /// asked — so an index that survived a mutation it should not have
        /// (an `absorb`, `filter_min_count`), or that `remove_vertex`'s
        /// swap left pointing at the wrong position, shows up as a wrong
        /// `get`. Runs enter as snapshots and as container images, and
        /// merges widen them from 1- to 2- to 4-byte counters between
        /// removals and filters — a mapped run's first change copying it.
        #[test]
        fn graph_agrees_with_a_btreemap_model(ops in prop::collection::vec(op(), 1..40)) {
            use std::collections::BTreeMap;
            for k in [5, 65] {
                let keys = key_domain(k);
                let mut g = DeBruijnGraph::new(k);
                let mut model: BTreeMap<Kmer, VertexData> = BTreeMap::new();
                for op in ops.iter().cloned() {
                    match op {
                        Op::Absorb(mut ids, n, hot, entry) => {
                            ids.sort_unstable();
                            ids.dedup();
                            ids.retain(|&i| !model.contains_key(&keys[i]));
                            let run: Vec<_> =
                                ids.iter().map(|&i| (keys[i], vertex(n, hot))).collect();
                            model.extend(run.iter().copied());
                            let grew = !run.is_empty();
                            let sub = SubGraph::new(k, run);
                            match entry {
                                Entry::Snapshot => g.absorb(sub),
                                Entry::File => g.absorb_encoded(crate::encode_subgraph(&sub)),
                                Entry::Packed => g.absorb_encoded(crate::pack_subgraph(&sub)),
                                Entry::Mapped => {
                                    let (file, image) = committed(&sub, "model");
                                    g.absorb_file(&file, &image);
                                }
                            }
                            prop_assert!(!(grew && g.is_indexed()));
                        }
                        Op::Merge(i, n, hot) => {
                            model.entry(keys[i]).or_default().merge(&vertex(n, hot));
                            g.merge_vertex(keys[i], vertex(n, hot));
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
                                prop_assert_eq!(g.get(key), model.get(key).copied());
                            }
                            prop_assert!(g.is_indexed());
                        }
                    }
                    let mut seen: Vec<(Kmer, VertexData)> = g.iter().collect();
                    seen.sort_unstable_by_key(|entry| entry.0);
                    let want: Vec<(Kmer, VertexData)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(seen, want);
                    prop_assert_eq!(g.distinct_vertices(), model.len());
                    let occurrences: u64 = model.values().map(|v| v.count as u64).sum();
                    prop_assert_eq!(g.total_kmer_occurrences(), occurrences);
                    let edges: u64 = model.values().map(VertexData::total_edge_multiplicity).sum();
                    prop_assert_eq!(g.total_edge_multiplicity(), edges);
                }
                for key in &keys {
                    prop_assert_eq!(g.get(key), model.get(key).copied());
                }
            }
        }
    }

    /// The widths the model test passes through, pinned: a merge that
    /// takes a counter past 255 repacks its run at 2 bytes, past 65 535
    /// at 4, every other vertex of the run keeping its value; removal and
    /// the filter then work on the 4-byte records.
    #[test]
    fn merge_vertex_repacks_its_run_wider() {
        let keys = key_domain(27);
        let mut g = DeBruijnGraph::new(27);
        g.absorb(SubGraph::new(27, keys[..6].iter().map(|&k| (k, vertex(2, 0))).collect()));
        let widths = |g: &DeBruijnGraph| g.runs.iter().map(|run| run.codec.w()).collect::<Vec<_>>();
        assert_eq!(widths(&g), [1]);
        g.merge_vertex(keys[1], vertex(300, 4));
        assert_eq!(widths(&g), [2]);
        assert_eq!(g.get(&keys[1]).unwrap().edges[3], 301);
        g.merge_vertex(keys[6], vertex(70_000, 0));
        assert_eq!(widths(&g), [4], "a new vertex lands in the last run");
        assert_eq!(g.runs[0].records().len(), 7 * (8 + 9 * 4));
        assert!(g.remove_vertex(&keys[0]));
        assert_eq!(g.get(&keys[6]), Some(vertex(70_000, 0)), "the swapped-in vertex is found");
        assert_eq!(g.filter_min_count(3), 4);
        let left: Vec<_> = g.iter().map(|(k, _)| k).collect();
        assert_eq!(left, [keys[6], keys[1]]);
        assert_eq!(g.total_kmer_occurrences(), 70_000 + 3);
    }

    /// `sub`'s committed container written to a file named after `tag`,
    /// opened for reading and unlinked: the handle and the bytes written.
    fn committed(sub: &SubGraph, tag: &str) -> (std::fs::File, Vec<u8>) {
        let (pid, thread) = (std::process::id(), std::thread::current().id());
        let path = std::env::temp_dir().join(format!("hashgraph-mapped-{tag}-{pid}-{thread:?}"));
        let image = crate::encode_subgraph(sub);
        std::fs::write(&path, &image).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (file, image)
    }

    /// A run absorbed from its file is the file's mapping: the graph's
    /// own memory does not count it and the totals do not read it, and
    /// merging into it, widening it, removing from it and filtering it
    /// change the graph's copy only — the committed file keeps its bytes.
    #[test]
    fn a_mapped_run_is_copied_before_it_changes_and_the_file_never_is() {
        let keys = key_domain(27);
        let sub = SubGraph::new(27, keys[..40].iter().map(|&k| (k, vertex(2, 0))).collect());
        let path = std::env::temp_dir().join(format!("hashgraph-mapped-cow-{}", std::process::id()));
        let image = crate::encode_subgraph(&sub);
        std::fs::write(&path, &image).unwrap();
        let mut g = DeBruijnGraph::new(27);
        g.absorb_file(&std::fs::File::open(&path).unwrap(), &image);
        let mapped = g.runs[0].bytes.is_mapped();
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped, "a committed file maps");
        assert_eq!(g.approx_bytes(), if mapped { 0 } else { 40 * (8 + 9) });
        assert_eq!((g.distinct_vertices(), g.total_kmer_occurrences()), (40, 80));
        let mut model: std::collections::BTreeMap<_, _> = sub.entries().iter().copied().collect();
        // A merge, a merge that widens, a removal, a filter.
        let step = |g: &mut DeBruijnGraph, step: usize| match step {
            0 => g.merge_vertex(keys[3], vertex(1, 2)),
            1 => g.merge_vertex(keys[4], vertex(300, 0)),
            2 => assert!(g.remove_vertex(&keys[5])),
            _ => assert!(g.filter_min_count(3) > 0),
        };
        model.get_mut(&keys[3]).unwrap().merge(&vertex(1, 2));
        model.get_mut(&keys[4]).unwrap().merge(&vertex(300, 0));
        model.remove(&keys[5]);
        model.retain(|_, v| v.count >= 3);
        for i in 0..4 {
            let mut copy = DeBruijnGraph::new(27);
            copy.absorb_file(&std::fs::File::open(&path).unwrap(), &image);
            step(&mut copy, i);
            assert!(!copy.runs[0].bytes.is_mapped(), "step {i} changed the run, so copied it");
            step(&mut g, i);
            assert_eq!(std::fs::read(&path).unwrap(), image, "step {i}: the file is untouched");
        }
        assert_eq!((g.runs[0].codec.w(), g.distinct_vertices()), (2, 2), "widened, filtered");
        let got: std::collections::BTreeMap<_, _> = g.iter().collect();
        assert_eq!(got, model);
        let occurrences: u64 = model.values().map(|v| u64::from(v.count)).sum();
        assert_eq!(g.total_kmer_occurrences(), occurrences);
        std::fs::remove_file(&path).unwrap();
    }

    /// A filter that keeps every vertex of a run leaves the run mapped.
    #[test]
    fn a_filter_that_drops_nothing_keeps_the_mapping() {
        let keys = key_domain(27);
        let sub = SubGraph::new(27, keys[..8].iter().map(|&k| (k, vertex(3, 0))).collect());
        let (file, image) = committed(&sub, "keep");
        let mut g = DeBruijnGraph::new(27);
        g.absorb_file(&file, &image);
        let mapped = g.runs[0].bytes.is_mapped();
        assert_eq!(g.filter_min_count(3), 0);
        assert_eq!(g.runs[0].bytes.is_mapped(), mapped);
        assert_eq!(g.clone(), g, "a clone is an owned copy of the same vertices");
        assert!(!g.clone().runs[0].bytes.is_mapped());
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
        assert_eq!(unindexed, 8 + 9, "one record: a key word and nine 1-byte counters");
        assert!(g.get(&km("AAC").canonical().0).is_some());
        assert!(g.approx_bytes() > unindexed, "the index is memory too");
    }
}
