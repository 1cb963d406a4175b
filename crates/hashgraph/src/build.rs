use std::ops::Range;

use dna::{Base, CanonicalKmerCursor, Kmer, Orientation};
use msp::{PartitionSlices, SuperkmerView};

use crate::{EdgeDir, HashGraphError, Result, VertexTable};

/// Maps an observed occurrence's read-text neighbours onto the canonical
/// vertex's edge slots.
///
/// In the read, the k-mer `u` is preceded by base `left` and followed by
/// base `right`. If `u`'s canonical form is `u` itself, those are an
/// `In(left)` and an `Out(right)` edge; if the canonical form is the
/// reverse complement, sides swap and bases complement.
///
/// Public so that every builder in the workspace — ParaHash, the SOAP and
/// sort-merge baselines, reference implementations in tests — shares one
/// definition of edge semantics and their outputs are directly comparable.
pub fn edge_slots_for(
    orient: Orientation,
    left: Option<Base>,
    right: Option<Base>,
) -> [Option<u8>; 2] {
    let left_slot = left.map(|b| match orient {
        Orientation::Forward => EdgeDir::In.slot(b),
        Orientation::Reverse => EdgeDir::Out.slot(b.complement()),
    } as u8);
    let right_slot = right.map(|b| match orient {
        Orientation::Forward => EdgeDir::Out.slot(b),
        Orientation::Reverse => EdgeDir::In.slot(b.complement()),
    } as u8);
    [left_slot, right_slot]
}

/// Replays one borrowed superkmer record ([`SuperkmerView`]) into a vertex
/// table — [`ReplayPipeline`]'s path for wide k and forced-scalar
/// kernels: each of its k-mers becomes a `record` of the canonical vertex
/// with up to two edge increments (its neighbours inside the core, or the
/// adjacency-extension bases at the boundaries). This is the
/// `<kmer, edge>` pair generation of §III-C.2.
///
/// Bases are decoded straight from the partition byte buffer and
/// canonical forms roll incrementally in a [`CanonicalKmerCursor`] — O(1)
/// amortised work per position instead of the O(k)
/// `sub`+`revcomp`+`canonical` chain the unit tests check it against,
/// and nothing touches the heap.
///
/// # Errors
///
/// Propagates table errors ([`HashGraphError::CapacityExhausted`],
/// [`HashGraphError::WrongK`]).
fn record_core<T: VertexTable + ?Sized>(table: &T, view: &SuperkmerView<'_>) -> Result<()> {
    let k = view.k();
    let last = view.core_len() - k;
    let mut cursor = CanonicalKmerCursor::new(k).expect("superkmer k validated upstream");
    for i in 0..k - 1 {
        cursor.push(view.base(i));
    }
    for i in 0..=last {
        cursor.push(view.base(i + k - 1));
        let left = if i > 0 { Some(view.base(i - 1)) } else { view.left_ext() };
        let right = if i < last { Some(view.base(i + k)) } else { view.right_ext() };
        let (canon, orient) = cursor.canonical();
        table.record(&canon, edge_slots_for(orient, left, right))?;
    }
    Ok(())
}

/// The Step-2 replay mode, consumed by [`ReplayPipeline`]: a
/// word-parallel single-`u64` fast path for k ≤ 32, with the rolling
/// cursor replay as the scalar reference for wide k (or when
/// `PARAHASH_FORCE_SCALAR` is set).
///
/// The narrow path mirrors `MinimizerCursor`'s p ≤ 32 trick on the
/// *replay* side: the superkmer core is decoded 32 bases per 8-byte load
/// ([`SuperkmerView::code_words`]), both strands roll in one `u64` each
/// (two shifts + OR per base), canonical choice is a single integer
/// compare, and the table is fed through
/// [`VertexTable::record_narrow_hashed`] — no `Kmer` is materialised per
/// position. Output (graph bytes *and* contention counters) is identical
/// to the cursor path: same canonical words, same hash, same probe walk.
///
/// Like every vectorized kernel in the workspace, the mode is captured at
/// construction from [`dna::simd::force_scalar`], so a kernel built under
/// `PARAHASH_FORCE_SCALAR=1` replays through the scalar cursor for its
/// whole lifetime.
#[derive(Debug, Clone, Copy)]
pub struct ReplayKernel {
    k: usize,
    /// Single-word fast path enabled (k ≤ 32 and not forced scalar).
    narrow: bool,
}

impl ReplayKernel {
    /// Builds a kernel for k-mer length `k`, capturing the scalar
    /// override at construction.
    pub fn new(k: usize) -> ReplayKernel {
        ReplayKernel { k, narrow: (1..=32).contains(&k) && !dna::simd::force_scalar() }
    }
}

/// Branchless [`edge_slots_for`] over raw base codes: with `rev` the
/// canonical orientation as a flag, the slot arithmetic (`Out(b)` = code,
/// `In(b)` = 4 + code, reverse complements = code ^ 3 and side swap)
/// folds into two masked adds — no data-dependent branch on the ~50/50
/// orientation, which the predictor cannot learn.
#[inline]
fn edge_slots_narrow(rev: bool, left: Option<u8>, right: Option<u8>) -> [Option<u8>; 2] {
    let r = rev as u8;
    let m = r * 3;
    [left.map(|c| (c ^ m) + ((r ^ 1) << 2)), right.map(|c| (c ^ m) + (r << 2))]
}

/// [`ReplayPipeline`]'s single-`u64` two-strand rolling scan: decodes
/// `view`'s core 32 bases per 8-byte load and emits `(canonical word,
/// hash, edge slots)` for every position, in scan order. Caller
/// guarantees `view.k() == k ≤ 32`.
#[inline]
fn scan_narrow_view<E>(k: usize, view: &SuperkmerView<'_>, mut emit: E) -> Result<()>
where
    E: FnMut(u64, u64, [Option<u8>; 2]) -> Result<()>,
{
    let core_len = view.core_len();
    let last = core_len - k; // start index of the final k-mer
    // `Kmer` word layout: base 0 in the top two bits, so base k−1 of
    // the window sits at this shift and the tail below it stays zero.
    let last_shift = (64 - 2 * k) as u32;
    let tail_mask = u64::MAX << last_shift;
    let mut words = view.code_words();
    let w0 = words.next_chunk();
    // Seed the first window straight from the payload word instead of
    // rolling k−1 warm-up bases (superkmers average only a handful of
    // k-mers, so the warm-up would dominate): the LSB-first payload
    // order reversed per 2-bit field *is* the MSB-first forward strand,
    // and the complemented payload left-shifted into alignment is the
    // reverse strand (complement = code ^ 3 for every field at once).
    let mut fwd = dna::simd::reverse_codes(w0) & tail_mask;
    let mut rc = (!w0) << last_shift;
    // Position the chunk cursor on base k, mirroring the rolling loop's
    // eager-refill cadence (refill after consuming base 31 of a word).
    let mut chunk = if k == 32 { words.next_chunk() } else { w0 >> (2 * k) };
    {
        let right =
            if last > 0 { Some((chunk & 3) as u8) } else { view.right_ext().map(|b| b.code()) };
        // Numeric word compare = lexicographic; ties Forward, exactly
        // like `CanonicalKmerCursor::canonical`.
        let rev = fwd > rc;
        let word = if rev { rc } else { fwd };
        let hash = Kmer::hash64_of_words(&[word, 0, 0, 0], k);
        emit(word, hash, edge_slots_narrow(rev, view.left_ext().map(|b| b.code()), right))?;
    }
    for j in k..core_len {
        let code = chunk & 3;
        chunk >>= 2;
        if (j + 1) % 32 == 0 {
            // Eager refill: `chunk & 3` below is always base j+1
            // (zero-padded past the core, where right_ext wins).
            chunk = words.next_chunk();
        }
        // Base j−k — the new window's left neighbour — is about to
        // shift out of fwd's top two bits; capture it first.
        let left = Some((fwd >> 62) as u8);
        fwd = (fwd << 2) | (code << last_shift);
        rc = ((rc >> 2) & tail_mask) | ((code ^ 3) << 62);
        let right = if j - (k - 1) < last {
            Some((chunk & 3) as u8)
        } else {
            view.right_ext().map(|b| b.code())
        };
        let rev = fwd > rc;
        let word = if rev { rc } else { fwd };
        let hash = Kmer::hash64_of_words(&[word, 0, 0, 0], k);
        emit(word, hash, edge_slots_narrow(rev, left, right))?;
    }
    Ok(())
}

/// Prefetch lookahead of [`ReplayPipeline`]'s drain loop, in k-mer
/// positions. Deep enough that a slot's three cache lines (state word,
/// key cell, counter line) have a DRAM round-trip's worth of probe
/// compute to arrive in.
const PIPE: usize = 16;

/// Buffered positions per [`ReplayPipeline`] drain. Large enough that
/// the un-prefetched tail of each drain ([`PIPE`] positions) is noise,
/// small enough that the buffer (24 bytes per entry, 6 KiB total) stays
/// resident in L1 alongside the scan state.
const BUF: usize = 256;

/// Software-pipelined Step-2 replay over a stream of superkmer records.
///
/// The probe's table lines (state word, key cell, counter line) are
/// random-access and usually cold, while the decode scan is pure
/// register arithmetic — interleaving them in one loop makes the scan's
/// rolling state spill and starves the probe of lookahead. The pipeline
/// therefore splits the phases: [`record_view`](Self::record_view)
/// appends each position's `(canonical word, hash, edge slots)` to a
/// [`BUF`]-entry buffer, and whenever the buffer fills, a tight drain
/// loop walks it, prefetching position `i + `[`PIPE`]'s home slot
/// ([`VertexTable::prefetch_narrow`]) before recording position `i`
/// ([`VertexTable::record_narrow_hashed`]) — by the time each probe
/// runs, its lines have been in flight for [`PIPE`] probes' worth of
/// work. The buffer carries over between records, so batches stay full
/// across superkmer boundaries (partition superkmers average only a
/// handful of k-mers each). Call [`flush`](Self::flush) after the last
/// record; records land in scan order, so graph bytes and contention
/// counters are identical to the unpipelined path. A table error for a
/// buffered position surfaces on the push or flush that drains it.
///
/// Wide k (or forced-scalar kernels) fall back to the cursor replay
/// record-by-record.
pub struct ReplayPipeline<'t, T: VertexTable + ?Sized> {
    kernel: ReplayKernel,
    table: &'t T,
    buf: [(u64, u64, [Option<u8>; 2]); BUF],
    len: usize,
}

impl<'t, T: VertexTable + ?Sized> ReplayPipeline<'t, T> {
    /// A pipeline feeding `table`, dispatching per `kernel`'s mode.
    pub fn new(kernel: ReplayKernel, table: &'t T) -> ReplayPipeline<'t, T> {
        ReplayPipeline { kernel, table, buf: [(0, 0, [None, None]); BUF], len: 0 }
    }

    /// Enqueues one record's k-mers, draining the buffer whenever it
    /// fills. A table error for a buffered position surfaces on the
    /// push or [`flush`](Self::flush) that drains it.
    ///
    /// # Errors
    ///
    /// Propagates table errors ([`HashGraphError::CapacityExhausted`],
    /// [`HashGraphError::WrongK`]).
    pub fn record_view(&mut self, view: &SuperkmerView<'_>) -> Result<()> {
        if !self.kernel.narrow || view.k() != self.kernel.k {
            return record_core(self.table, view);
        }
        scan_narrow_view(self.kernel.k, view, |word, hash, edges| self.push(word, hash, edges))
    }

    #[inline]
    fn push(&mut self, word: u64, hash: u64, edges: [Option<u8>; 2]) -> Result<()> {
        self.buf[self.len] = (word, hash, edges);
        self.len += 1;
        if self.len == BUF {
            self.drain()?;
        }
        Ok(())
    }

    /// The prefetch-ahead probe loop over the buffered positions. On
    /// error the rest of the batch is dropped (table errors are
    /// terminal: the run aborts and rebuilds with a larger capacity).
    fn drain(&mut self) -> Result<()> {
        let n = std::mem::take(&mut self.len);
        for i in 0..n {
            if i + PIPE < n {
                self.table.prefetch_narrow(self.buf[i + PIPE].1);
            }
            let (w, h, e) = self.buf[i];
            self.table.record_narrow_hashed(w, h, e)?;
        }
        Ok(())
    }

    /// Drains every still-buffered position. Must be called after the
    /// last [`record_view`](Self::record_view); dropping an unflushed
    /// pipeline silently discards its pending records.
    ///
    /// # Errors
    ///
    /// Propagates table errors ([`HashGraphError::CapacityExhausted`],
    /// [`HashGraphError::WrongK`]).
    pub fn flush(&mut self) -> Result<()> {
        self.drain()
    }
}

/// Replays an indexed partition into a prepared table with `threads`
/// workers: the records are split into contiguous chunks, each chunk runs
/// through a [`ReplayPipeline`] of its own — the replay every build
/// executes — and the shared table is the only point of synchronisation.
/// Generic over [`VertexTable`], so the full-locking ablation table rides
/// the trait's default narrow methods.
///
/// # Errors
///
/// Returns [`HashGraphError::WrongK`] if the partition was cut for another
/// `k` than the table's, otherwise the first table error any worker hit.
///
/// # Examples
///
/// ```
/// use dna::PackedSeq;
/// use hashgraph::{build_subgraph_with, ConcurrentDbgTable, VertexTable};
/// use msp::PartitionSlices;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let read = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCA");
/// let records = msp::partition_in_memory(&[read], 7, 4, 1)?.remove(0);
/// let slices = PartitionSlices::index(&records, 7, 4)?;
/// let table = ConcurrentDbgTable::new(2 * slices.total_kmers(), 7);
/// build_subgraph_with(&table, &slices, 2)?;
/// assert_eq!(table.contention().operations(), 20); // 26 − 7 + 1 kmers
/// assert!(table.snapshot().len() > 0);
/// # Ok(())
/// # }
/// ```
pub fn build_subgraph_with<T: VertexTable + ?Sized>(
    table: &T,
    slices: &PartitionSlices<'_>,
    threads: usize,
) -> Result<()> {
    if slices.k() != table.k() {
        return Err(HashGraphError::WrongK { expected: table.k(), got: slices.k() });
    }
    let kernel = ReplayKernel::new(slices.k());
    let replay = |records: Range<usize>| -> Result<()> {
        let mut pipe = ReplayPipeline::new(kernel, table);
        for i in records {
            pipe.record_view(&slices.view(i))?;
        }
        pipe.flush()
    };
    let n = slices.len();
    let threads = threads.max(1);
    if threads == 1 || n < 2 {
        return replay(0..n);
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let replay = &replay;
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| s.spawn(move || replay(start..(start + chunk).min(n))))
            .collect();
        for h in handles {
            h.join().expect("worker panicked")?;
        }
        Ok(())
    })
}

/// Fixture for this crate's unit tests: Step 1 in memory over `n`
/// partitions, each replayed by `threads` workers into a table that cannot
/// fill up, merged into one graph.
#[cfg(test)]
pub(crate) fn graph_of_reads(
    reads: &[dna::PackedSeq],
    k: usize,
    p: usize,
    n: usize,
    threads: usize,
) -> crate::DeBruijnGraph {
    let mut g = crate::DeBruijnGraph::new(k);
    for part in msp::partition_in_memory(reads, k, p, n).unwrap() {
        let slices = PartitionSlices::index(&part, k, p).unwrap();
        let table = crate::ConcurrentDbgTable::new(2 * slices.total_kmers() + 16, k);
        build_subgraph_with(&table, &slices, threads).unwrap();
        g.absorb(table.snapshot());
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcurrentDbgTable, VertexData};
    use dna::{Kmer, PackedSeq};
    use std::collections::HashMap;

    /// Ground truth: replay raw reads into a HashMap with the same edge
    /// semantics, without any MSP or concurrency.
    fn reference_graph(reads: &[PackedSeq], k: usize) -> HashMap<Kmer, VertexData> {
        let mut map: HashMap<Kmer, VertexData> = HashMap::new();
        for read in reads {
            if read.len() < k {
                continue;
            }
            for (i, kmer) in read.kmers(k).enumerate() {
                let left = (i > 0).then(|| read.base(i - 1));
                let right = (i + k < read.len()).then(|| read.base(i + k));
                let (canon, orient) = kmer.canonical();
                let slots = edge_slots_for(orient, left, right);
                let v = map.entry(canon).or_default();
                v.count += 1;
                for s in slots.into_iter().flatten() {
                    v.edges[s as usize] += 1;
                }
            }
        }
        map
    }

    /// The reference the rolling replay is checked against: derives each
    /// position's canonical k-mer from scratch (`kmers` iterator + O(k)
    /// `canonical`) over an owned copy of the core.
    fn record_view_naive<T: VertexTable + ?Sized>(table: &T, view: &SuperkmerView<'_>) -> Result<()> {
        let k = view.k();
        let core: PackedSeq = view.bases().collect();
        let last = core.len() - k;
        for (i, kmer) in core.kmers(k).enumerate() {
            let left = if i > 0 { Some(core.base(i - 1)) } else { view.left_ext() };
            let right = if i < last { Some(core.base(i + k)) } else { view.right_ext() };
            let (canon, orient) = kmer.canonical();
            table.record(&canon, edge_slots_for(orient, left, right))?;
        }
        Ok(())
    }

    /// One record through a pipeline of its own, drained at once: the
    /// per-record reference [`ReplayPipeline`]'s carried-over buffer is
    /// checked against.
    fn record_view_drained<T: VertexTable + ?Sized>(
        kernel: ReplayKernel,
        table: &T,
        view: &SuperkmerView<'_>,
    ) -> Result<()> {
        let mut pipe = ReplayPipeline::new(kernel, table);
        pipe.record_view(view)?;
        pipe.flush()
    }

    fn test_reads() -> Vec<PackedSeq> {
        [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT",
            "TGATGGATGATGGATGGTAGCATACGTTGCATGGACCAG",
            "GGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGAT",
        ]
        .iter()
        .map(|s| PackedSeq::from_ascii(s.as_bytes()))
        .collect()
    }

    /// The test reads as one partition's record bytes.
    fn test_records(k: usize, p: usize) -> Vec<u8> {
        msp::partition_in_memory(&test_reads(), k, p, 1).unwrap().remove(0)
    }

    #[test]
    fn partitioned_build_matches_reference() {
        let reads = test_reads();
        for (k, p, n, threads) in [(5, 3, 4, 1), (7, 4, 8, 2), (15, 11, 3, 4), (33, 11, 2, 2)] {
            let reference = reference_graph(&reads, k);
            let g = graph_of_reads(&reads, k, p, n, threads);
            assert_eq!(g.distinct_vertices(), reference.len(), "k={k} p={p} n={n}");
            for (kmer, data) in reference {
                assert_eq!(g.get(&kmer), Some(&data), "vertex {kmer} differs (k={k})");
            }
        }
    }

    #[test]
    fn reverse_complement_reads_merge_into_same_graph() {
        // A read and its reverse complement describe the same molecule;
        // their graphs must coincide (with doubled counts).
        let fwd = vec![PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCA")];
        let both = vec![fwd[0].clone(), fwd[0].revcomp()];
        let g1 = graph_of_reads(&fwd, 7, 4, 4, 1);
        let g2 = graph_of_reads(&both, 7, 4, 4, 1);
        assert_eq!(g1.distinct_vertices(), g2.distinct_vertices());
        for (kmer, data) in g1.iter() {
            let d2 = g2.get(kmer).expect("vertex must exist in doubled graph");
            assert_eq!(d2.count, 2 * data.count);
        }
    }

    #[test]
    fn edge_slots_match_figure_one() {
        // Paper Fig 1: TGATG → GATGG observed twice, TGATG → GATGA once.
        let reads = vec![
            PackedSeq::from_ascii(b"TGATGG"),
            PackedSeq::from_ascii(b"TGATGG"),
            PackedSeq::from_ascii(b"TGATGA"),
        ];
        let g = graph_of_reads(&reads, 5, 3, 2, 1);
        let (canon, _) = "TGATG".parse::<Kmer>().unwrap().canonical();
        let v = g.get(&canon).unwrap();
        assert_eq!(v.count, 3, "TGATG seen three times");
        // Walking TGATG forward = canonical CATCA in Reverse orientation.
        let succ = g.successors(&canon, Orientation::Reverse);
        let mut mults: Vec<(String, u32)> = succ
            .iter()
            .map(|(kmer, _, m)| (kmer.to_string(), *m))
            .collect();
        mults.sort();
        let gatgg = "GATGG".parse::<Kmer>().unwrap().canonical().0.to_string();
        let gatga = "GATGA".parse::<Kmer>().unwrap().canonical().0.to_string();
        let mut expected = vec![(gatgg, 2u32), (gatga, 1u32)];
        expected.sort();
        assert_eq!(mults, expected);
    }

    #[test]
    fn multithreaded_build_is_deterministic_up_to_order() {
        let reads = test_reads();
        let a = graph_of_reads(&reads, 7, 4, 2, 1);
        let b = graph_of_reads(&reads, 7, 4, 2, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn contention_reflects_duplicate_ratio() {
        // High-coverage duplicated reads: updates should dwarf insertions.
        let read = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATT");
        let reads: Vec<PackedSeq> = (0..10).map(|_| read.clone()).collect();
        let records = msp::partition_in_memory(&reads, 7, 4, 1).unwrap().remove(0);
        let slices = PartitionSlices::index(&records, 7, 4).unwrap();
        let table = ConcurrentDbgTable::new(1024, 7);
        build_subgraph_with(&table, &slices, 2).unwrap();
        let c = table.contention();
        assert!(c.lock_reduction() > 0.85, "10× coverage should reduce locks ~90%, got {}", c.lock_reduction());
        assert_eq!(c.operations(), 10 * (read.len() as u64 - 7 + 1));
    }

    #[test]
    fn empty_partition_builds_empty_subgraph() {
        let slices = PartitionSlices::index(&[], 7, 4).unwrap();
        let table = ConcurrentDbgTable::new(16, 7);
        build_subgraph_with(&table, &slices, 4).unwrap();
        assert!(table.snapshot().is_empty());
    }

    #[test]
    fn partition_cut_for_another_k_is_rejected() {
        let records = test_records(7, 4);
        let slices = PartitionSlices::index(&records, 7, 4).unwrap();
        for threads in [1, 3] {
            let table = ConcurrentDbgTable::new(1024, 9);
            assert!(matches!(
                build_subgraph_with(&table, &slices, threads),
                Err(HashGraphError::WrongK { expected: 9, got: 7 })
            ));
            assert_eq!(table.distinct(), 0);
        }
    }

    #[test]
    fn rolling_replay_matches_naive_replay() {
        for k in [5, 7, 31, 32, 33] {
            let p = 3.min(k);
            let records = test_records(k, p);
            let slices = PartitionSlices::index(&records, k, p).unwrap();
            let fast = ConcurrentDbgTable::new(4096, k);
            let naive = ConcurrentDbgTable::new(4096, k);
            for view in slices.iter() {
                record_core(&fast, &view).unwrap();
                record_view_naive(&naive, &view).unwrap();
            }
            let mut a = fast.snapshot().into_entries();
            let mut b = naive.snapshot().into_entries();
            a.sort_by_key(|x| x.0);
            b.sort_by_key(|x| x.0);
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn replay_kernel_matches_scalar_cursor_exactly() {
        // The word-parallel kernel must match the cursor replay on graph
        // content *and* contention counters, for narrow k, the k = 32
        // boundary, and the k = 33 fallback; extension flags included.
        let _guard = dna::simd::override_guard();
        for (k, p) in [(5, 3), (7, 4), (15, 11), (31, 11), (32, 11), (32, 32), (33, 11)] {
            let records = test_records(k, p);
            let slices = PartitionSlices::index(&records, k, p).unwrap();

            dna::simd::set_force_scalar_override(Some(false));
            let kernel = ReplayKernel::new(k);
            dna::simd::set_force_scalar_override(None);
            assert_eq!(kernel.narrow, k <= 32, "k={k}");

            let via_kernel = ConcurrentDbgTable::new(4096, k);
            let via_cursor = ConcurrentDbgTable::new(4096, k);
            for view in slices.iter() {
                record_view_drained(kernel, &via_kernel, &view).unwrap();
                record_core(&via_cursor, &view).unwrap();
            }
            assert_eq!(via_kernel.snapshot(), via_cursor.snapshot(), "k={k} p={p}");
            let (a, b) = (via_kernel.contention(), via_cursor.contention());
            assert_eq!(
                (a.insertions, a.updates, a.probe_steps, a.tag_rejects),
                (b.insertions, b.updates, b.probe_steps, b.tag_rejects),
                "k={k} p={p}"
            );
        }
    }

    #[test]
    fn forced_scalar_kernel_takes_cursor_path() {
        let _guard = dna::simd::override_guard();
        dna::simd::set_force_scalar_override(Some(true));
        let kernel = ReplayKernel::new(15);
        dna::simd::set_force_scalar_override(None);
        assert!(!kernel.narrow, "forced-scalar kernels must not use the word path");
        // Captured at construction: the kernel stays scalar even after
        // the override is lifted, and still produces the same graph.
        let records = test_records(15, 11);
        let slices = PartitionSlices::index(&records, 15, 11).unwrap();
        let scalar = ConcurrentDbgTable::new(4096, 15);
        let reference = ConcurrentDbgTable::new(4096, 15);
        for view in slices.iter() {
            record_view_drained(kernel, &scalar, &view).unwrap();
            record_core(&reference, &view).unwrap();
        }
        assert_eq!(scalar.snapshot(), reference.snapshot());
    }

    #[test]
    fn pipeline_matches_kernel_across_record_boundaries() {
        // The buffered pipeline defers records and carries its buffer
        // across superkmer boundaries; graph bytes and every contention
        // counter must still match the per-record kernel replay, for
        // narrow k, the k = 32 boundary, and the k = 33 fallback. Many
        // short reads keep records tiny so the buffer crosses hundreds
        // of record boundaries per drain.
        let _guard = dna::simd::override_guard();
        dna::simd::set_force_scalar_override(Some(false));
        for (k, p) in [(5, 3), (15, 11), (31, 11), (32, 11), (33, 11)] {
            let records = test_records(k, p);
            let slices = PartitionSlices::index(&records, k, p).unwrap();
            let kernel = ReplayKernel::new(k);
            let via_pipe = ConcurrentDbgTable::new(4096, k);
            let via_kernel = ConcurrentDbgTable::new(4096, k);
            let mut pipe = ReplayPipeline::new(kernel, &via_pipe);
            for view in slices.iter() {
                pipe.record_view(&view).unwrap();
                record_view_drained(kernel, &via_kernel, &view).unwrap();
            }
            pipe.flush().unwrap();
            assert_eq!(via_pipe.snapshot(), via_kernel.snapshot(), "k={k} p={p}");
            let (a, b) = (via_pipe.contention(), via_kernel.contention());
            assert_eq!(
                (a.insertions, a.updates, a.probe_steps, a.tag_rejects),
                (b.insertions, b.updates, b.probe_steps, b.tag_rejects),
                "k={k} p={p}"
            );
        }
        dna::simd::set_force_scalar_override(None);
    }

    #[test]
    fn pipeline_surfaces_capacity_errors() {
        // A deferred record's CapacityExhausted must surface on the push
        // or flush that drains it, never be swallowed.
        let _guard = dna::simd::override_guard();
        dna::simd::set_force_scalar_override(Some(false));
        let kernel = ReplayKernel::new(7);
        dna::simd::set_force_scalar_override(None);
        let records = test_records(7, 4);
        let slices = PartitionSlices::index(&records, 7, 4).unwrap();
        let tiny = ConcurrentDbgTable::new(2, 7);
        let mut pipe = ReplayPipeline::new(kernel, &tiny);
        let mut result = Ok(());
        for view in slices.iter() {
            result = pipe.record_view(&view);
            if result.is_err() {
                break;
            }
        }
        if result.is_ok() {
            result = pipe.flush();
        }
        assert!(
            matches!(result, Err(HashGraphError::CapacityExhausted { .. })),
            "expected CapacityExhausted, got {result:?}"
        );
    }
}
