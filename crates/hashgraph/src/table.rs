use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use dna::Kmer;

use crate::cells::cell_words;
use crate::{cell_bytes, ContentionStats, HashGraphError, Result, SubGraph, VertexCells};

/// Occupancy states of a hash slot (the paper's Fig 4: white / gray /
/// black), stored in the low byte of the slot word. The next byte holds
/// an 8-bit *fingerprint tag* of the key's hash, and the rest the index
/// of the vertex's cell — all published with one atomic store, so probe
/// mismatches are rejected without touching any cell at all.
const EMPTY: u64 = 0;
const LOCKED: u64 = 1;
const OCCUPIED: u64 = 2;
/// Mask selecting the occupancy state from a slot word.
const STATE_MASK: u64 = 0x00FF;
/// Mask selecting the fingerprint tag from a slot word.
const TAG_MASK: u64 = 0xFF00;
/// Where an `OCCUPIED` slot word keeps its cell index.
const CELL_SHIFT: u32 = 16;
/// Bytes of one slot word.
pub(crate) const SLOT_WORD_BYTES: usize = std::mem::size_of::<AtomicU64>();

/// How many spins on a `locked` slot before yielding the CPU. Keeps the
/// wait cheap on real contention but avoids livelock when the locking
/// thread is descheduled (important on machines with few cores).
const SPINS_BEFORE_YIELD: u32 = 64;

/// Abstraction over vertex tables so builders, baselines and the
/// full-locking ablation share one construction path.
///
/// Implementations must be safe for concurrent `record` calls from many
/// threads.
pub trait VertexTable: Sync {
    /// The k-mer length this table stores.
    fn k(&self) -> usize;

    /// Records one occurrence of canonical vertex `key`: increments its
    /// duplicity count and each listed edge slot
    /// (see [`crate::EdgeDir::slot`]).
    ///
    /// # Errors
    ///
    /// Implementations return [`HashGraphError::CapacityExhausted`] when
    /// they cannot accept new distinct vertices, and
    /// [`HashGraphError::WrongK`] for a key of the wrong length.
    fn record(&self, key: &Kmer, edge_slots: [Option<u8>; 2]) -> Result<()>;

    /// Records `weight` occurrences of `key` at once: the vertex's count
    /// and each listed edge slot grow by `weight`. Exactly what `weight`
    /// calls of [`record`](Self::record) leave in the table — that is the
    /// default; tables that can add a weight in one step override it.
    ///
    /// # Errors
    ///
    /// Same as [`record`](Self::record).
    fn record_weighted(&self, key: &Kmer, edge_slots: [Option<u8>; 2], weight: u32) -> Result<()> {
        (0..weight).try_for_each(|_| self.record(key, edge_slots))
    }

    /// Hint that a narrow key whose [`Kmer::hash64_of_words`] value is
    /// `hash` will shortly be recorded. Tables backed by hash-addressed
    /// storage may start pulling the target slot's cache lines toward
    /// the core; a pure performance hint with no observable effect. The
    /// default does nothing.
    fn prefetch_narrow(&self, hash: u64) {
        let _ = hash;
    }

    /// [`record_weighted`](Self::record_weighted) for a canonical k-mer of k ≤ 32 whose
    /// packed bases fit entirely in `word` (left-aligned MSB-first, tail
    /// bits zero — the layout of `Kmer`'s first word), with the key's
    /// [`Kmer::hash64_of_words`] value supplied by the caller. The
    /// word-parallel Step-2 replay feeds the table through this: it
    /// never materialises a `Kmer` per position, and it already computed
    /// the hash to issue [`prefetch_narrow`](Self::prefetch_narrow) a few
    /// positions ahead, so the table need not re-run the mix chain.
    /// `hash` **must** equal `Kmer::hash64_of_words(&[word, 0, 0, 0], k)`.
    ///
    /// The default implementation reassembles the `Kmer`, ignores the
    /// hash and delegates to [`record_weighted`](Self::record_weighted),
    /// so every table is automatically correct; tables with a cheaper
    /// route may override it, provided the observable behaviour stays
    /// identical.
    ///
    /// # Errors
    ///
    /// Same as [`record`](Self::record).
    fn record_narrow_hashed(
        &self,
        word: u64,
        hash: u64,
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> Result<()> {
        let _ = hash;
        debug_assert!(self.k() <= 32, "narrow keys require k <= 32, got {}", self.k());
        let key = Kmer::from_words([word, 0, 0, 0], self.k()).expect("1 <= k <= 32");
        self.record_weighted(&key, edge_slots, weight)
    }

    /// Copies the current contents out as a subgraph.
    fn snapshot(&self) -> SubGraph;

    /// Number of distinct vertices currently stored.
    fn distinct(&self) -> usize;

    /// Concurrency-behaviour counters accumulated so far.
    fn contention(&self) -> ContentionStats;
}

/// Where [`ReplayPipeline`](crate::ReplayPipeline) records: a table and
/// the kind of access it has to it. `&T` for any [`VertexTable`] shares
/// the table with other writers — for [`ConcurrentDbgTable`] that is the
/// paper's state-transfer protocol, its counters bumped by `weight` in one
/// atomic add; tables without a weighted add (the full-locking
/// [`MutexDbgTable`](crate::MutexDbgTable)) record `weight` single
/// occurrences. `&mut ConcurrentDbgTable` owns the table: the same probe
/// walk over plain memory, for a table with one writer.
pub trait Recorder {
    /// [`VertexTable::prefetch_narrow`].
    fn prefetch(&self, hash: u64);

    /// [`VertexTable::record_narrow_hashed`].
    ///
    /// # Errors
    ///
    /// Same as [`VertexTable::record`].
    fn record_narrow(
        &mut self,
        word: u64,
        hash: u64,
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> Result<()>;

    /// [`VertexTable::record_weighted`].
    ///
    /// # Errors
    ///
    /// Same as [`VertexTable::record`].
    fn record_wide(&mut self, key: &Kmer, edge_slots: [Option<u8>; 2], weight: u32) -> Result<()>;
}

impl<T: VertexTable + ?Sized> Recorder for &T {
    #[inline]
    fn prefetch(&self, hash: u64) {
        self.prefetch_narrow(hash);
    }

    #[inline]
    fn record_narrow(
        &mut self,
        word: u64,
        hash: u64,
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> Result<()> {
        self.record_narrow_hashed(word, hash, edge_slots, weight)
    }

    fn record_wide(&mut self, key: &Kmer, edge_slots: [Option<u8>; 2], weight: u32) -> Result<()> {
        self.record_weighted(key, edge_slots, weight)
    }
}

/// Key words a `k`-mer occupies: ⌈k/32⌉, the words a [`Kmer`] of that
/// length uses (the rest of its four are zero).
const fn key_words(k: usize) -> usize {
    k.div_ceil(32)
}

/// Bytes one slot of the paper's slot-for-slot table costs at `k`: a
/// 2-byte tagged state word, ⌈k/32⌉ 8-byte key words and a 36-byte
/// counter cell — 46 at k ≤ 32, then 54, 62 and, past k = 96,
/// [`SLOT_BYTES`]. Admission prices a slot at [`slot_price`]; a
/// [`ConcurrentDbgTable`] keeps its vertices densely instead and costs an
/// 8-byte slot word a slot plus a [`cell_bytes`] cell a vertex
/// ([`ConcurrentDbgTable::approx_bytes`]).
///
/// # Examples
///
/// ```
/// use hashgraph::{slot_bytes, SLOT_BYTES};
///
/// assert_eq!(slot_bytes(27), 46);
/// assert_eq!(slot_bytes(33), 54);
/// assert_eq!(slot_bytes(128), SLOT_BYTES);
/// ```
pub const fn slot_bytes(k: usize) -> usize {
    2 + 8 * key_words(k) + 36
}

/// Bytes a slot with a four-word key costs — 70, [`slot_bytes`] of
/// [`dna::MAX_K`]. Admission prices every slot at this up to k = 96
/// ([`slot_price`]), where a table costs at most 8 + [`cell_bytes`] ≤ 68
/// a slot however full it is.
pub const SLOT_BYTES: usize = slot_bytes(dna::MAX_K);

/// Bytes admission prices a slot of a `k`-mer table at
/// ([`crate::projected_table_bytes_for`]): [`SLOT_BYTES`], or past
/// k = 96, where a full slot of a [`ConcurrentDbgTable`] — its word and a
/// four-key-word cell — costs 76, that. No table holds more than this a
/// slot, however full.
///
/// # Examples
///
/// ```
/// use hashgraph::{slot_price, SLOT_BYTES};
///
/// assert_eq!(slot_price(27), SLOT_BYTES);
/// assert_eq!(slot_price(96), SLOT_BYTES);
/// assert_eq!(slot_price(97), 76);
/// ```
pub const fn slot_price(k: usize) -> usize {
    let full = SLOT_WORD_BYTES + cell_bytes(k);
    if full > SLOT_BYTES {
        full
    } else {
        SLOT_BYTES
    }
}

/// Best-effort prefetch of the cache line holding `ptr` into all levels.
/// A no-op on non-x86 targets.
#[inline]
fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure performance hint; it cannot fault and
    // places no validity requirements on the address.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// The paper's concurrent open-addressing De Bruijn hash table.
///
/// One table serves every worker building a partition: every SM of a
/// simulated GPU, every thread of
/// [`build_subgraph_with`](crate::build_subgraph_with) — or one core in
/// a production CPU build (each core is its own device), which records
/// through `&mut` (the [`Recorder`] for `&mut ConcurrentDbgTable`): the
/// same probe walk with every atomic turned into plain memory.
///
/// Each slot is one 64-bit word: the occupancy state in the low byte, an
/// 8-bit hash *fingerprint tag* in the next, and — once occupied — the
/// index of the vertex's **cell**. The cells are a dense array beside the
/// slots, one per distinct vertex in the order they were claimed: the key
/// in ⌈k/32⌉ words, a duplicity counter and eight edge-multiplicity
/// counters ([`cell_bytes`]). Empty slots cost their word and nothing
/// else, and the cells are the snapshot. Concurrency control is
/// **state-transfer partial locking**:
///
/// * a thread that finds `empty` CASes it to `locked | tag`, takes the
///   next cell (a `fetch_add` on the claimed count), stores the key words
///   and zeroes the counters (Relaxed — the only key write the cell will
///   ever see), and publishes with a release-store of
///   `occupied | tag | cell`;
/// * a thread that finds `locked` spins until the key is published;
/// * a thread that finds `occupied` first compares the 8-bit tag that
///   arrived with the very same atomic load — a mismatch rejects the
///   slot without loading its cell (no extra cache line touched); on a
///   tag match it loads the cell's key words (Relaxed: the Acquire of
///   `occupied` orders them after the claimant's stores, and the key can
///   never change again) and on a key match bumps the cell's counters
///   with atomic adds, otherwise probes the next slot linearly.
///
/// The home slot is derived by multiply-shift range reduction
/// (`(hash × capacity) >> 64`) rather than `hash % capacity`, replacing
/// the 64-bit division on every record with one widening multiply; the
/// replay kernel prefetches it a few k-mers ahead.
///
/// Capacity is fixed at construction (sized via Property 1 — see
/// [`crate::table_capacity_for`]); exceeding it returns
/// [`HashGraphError::CapacityExhausted`] rather than resizing. The cell
/// array is allocated with the table, one cell a slot, as
/// [`dna::ZeroedWords`] whose pages are touched only as vertices claim
/// cells, so the memory a table holds follows its distinct vertices, not
/// its slots ([`held_bytes`](ConcurrentDbgTable::held_bytes)), and a
/// replay allocates nothing.
///
/// # Examples
///
/// ```
/// use dna::Kmer;
/// use hashgraph::{ConcurrentDbgTable, VertexTable};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = ConcurrentDbgTable::new(16, 5);
/// let v: Kmer = "ACGTA".parse()?;
/// let (canon, _) = v.canonical();
/// table.record(&canon, [Some(0), None])?; // out-edge by A
/// table.record(&canon, [Some(0), None])?;
/// let sub = table.snapshot();
/// assert_eq!(sub.len(), 1);
/// assert_eq!(sub.entries()[0].1.count, 2);
/// assert_eq!(sub.entries()[0].1.edges[0], 2);
/// # Ok(())
/// # }
/// ```
pub struct ConcurrentDbgTable {
    k: usize,
    capacity: usize,
    /// Per-slot `state | tag << 8 | cell << 16` words; see the type-level
    /// docs.
    slots: Box<[AtomicU64]>,
    /// The vertices' cells, in claim order.
    cells: Cells,
    /// Cells claimed so far: the next claim takes this index.
    claimed: AtomicUsize,
    /// The most cells any earlier tenant claimed: the cells a pooled
    /// table has touched before its current tenant.
    touched: usize,
    stats: Counters,
}

/// A table's cell array: [`cell_words`] `u32` words a vertex, room for
/// one cell a slot, allocated with the table as [`dna::ZeroedWords`] —
/// zero pages until written, so the memory a table holds follows the
/// cells claimed, not the slots. A pooled table keeps the cells its
/// earlier tenants touched; `claim` overwrites whatever a cell's last
/// tenant left.
struct Cells {
    /// Key words a cell holds: ⌈k/32⌉.
    width: usize,
    /// `u32` words a cell spans.
    stride: usize,
    words: dna::ZeroedWords,
}

impl Cells {
    /// Room for `capacity` cells of `k`-mers — every slot's.
    fn new(capacity: usize, k: usize) -> Cells {
        let stride = cell_words(k);
        Cells { width: key_words(k), stride, words: dna::ZeroedWords::new(capacity * stride) }
    }

    /// Cell `index`.
    #[inline(always)]
    fn get(&self, index: usize) -> &[AtomicU32] {
        &self.words[index * self.stride..][..self.stride]
    }

    /// [`get`](Self::get) for a writer that owns the table.
    #[inline(always)]
    fn get_mut(&mut self, index: usize) -> &mut [AtomicU32] {
        &mut self.words[index * self.stride..][..self.stride]
    }

    /// The first `n` cells' words, in order.
    fn claimed(&self, n: usize) -> &[AtomicU32] {
        &self.words[..n * self.stride]
    }
}

/// Table-wide behaviour counters. `updates` is **derived** at read time
/// (Σ cell duplicity counts − insertions) rather than maintained as its
/// own atomic: every successful record already bumps its cell's count,
/// so keeping a second shared-line RMW per k-mer in the hot path would
/// only re-count what the cells record. See
/// [`ConcurrentDbgTable::contention`].
#[derive(Default)]
struct Counters {
    insertions: AtomicU64,
    cas_failures: AtomicU64,
    lock_waits: AtomicU64,
    probe_steps: AtomicU64,
    tag_rejects: AtomicU64,
}

impl std::fmt::Debug for ConcurrentDbgTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentDbgTable")
            .field("k", &self.k)
            .field("capacity", &self.capacity)
            .field("distinct", &self.distinct())
            .finish()
    }
}

impl ConcurrentDbgTable {
    /// Allocates a table with room for `capacity` distinct `k`-mers: the
    /// slot words, and a zeroed cell a slot whose pages vertices touch as
    /// they claim them.
    ///
    /// A minimum capacity of 16 is enforced so tiny partitions still
    /// leave probe headroom.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`dna::MAX_K`].
    pub fn new(capacity: usize, k: usize) -> ConcurrentDbgTable {
        assert!((1..=dna::MAX_K).contains(&k), "invalid k {k}");
        let capacity = capacity.max(16);
        ConcurrentDbgTable {
            k,
            capacity,
            slots: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            cells: Cells::new(capacity, k),
            claimed: AtomicUsize::new(0),
            touched: 0,
            stats: Counters::default(),
        }
    }

    /// The slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Approximate size in bytes, for memory accounting: an 8-byte word a
    /// slot plus a [`cell_bytes`] cell a claimed vertex.
    pub fn approx_bytes(&self) -> usize {
        self.capacity * SLOT_WORD_BYTES + self.distinct() * cell_bytes(self.k)
    }

    /// Bytes of memory the table holds: its slot words, and a cell for
    /// each of the most vertices any of its tenants — the current one
    /// included — claimed. The cells past those are zero pages no claim
    /// has touched. At least [`approx_bytes`](Self::approx_bytes); more
    /// for a pooled table whose earlier tenant was bigger.
    pub fn held_bytes(&self) -> usize {
        let cells = self.touched.max(self.distinct());
        self.capacity * SLOT_WORD_BYTES + cells * cell_bytes(self.k)
    }

    /// Clears the table for reuse without touching its allocations — the
    /// [`TablePool`](crate::TablePool) reset. Exclusive access (`&mut`)
    /// makes every atomic plain memory, so this is one memset of the
    /// 8-byte slot words and a zero claimed count.
    ///
    /// The cells are deliberately *not* cleared: a cell is only ever read
    /// through an `OCCUPIED` slot word that names it, or as one of the
    /// first `claimed` cells, and the thread that next claims a cell
    /// overwrites its key and zeroes its counters before it publishes
    /// the slot word naming it (see `Shared::claim`). A stale cell is
    /// unreachable until then.
    pub fn reset(&mut self) {
        for s in self.slots.iter_mut() {
            *s.get_mut() = EMPTY;
        }
        self.touched = self.touched.max(std::mem::take(self.claimed.get_mut()));
        self.stats = Counters::default();
    }

    fn check_k(&self, key: &Kmer) -> Result<()> {
        if key.k() != self.k {
            return Err(HashGraphError::WrongK { expected: self.k, got: key.k() });
        }
        Ok(())
    }

    /// The key words of a narrow record (see
    /// [`VertexTable::record_narrow_hashed`]).
    fn narrow_words(&self, word: u64, hash: u64) -> [u64; 4] {
        debug_assert!(self.k <= 32, "narrow keys require k <= 32, got {}", self.k);
        let words = [word, 0, 0, 0];
        debug_assert_eq!(
            hash,
            Kmer::hash64_of_words(&words, self.k),
            "caller-supplied hash must match the key"
        );
        words
    }

    /// The probe walk over the shared protocol: [`VertexTable::record`]
    /// and [`VertexTable::record_narrow_hashed`] land here. `words` must
    /// be the tail-clean packed key and `hash` its
    /// [`Kmer::hash64_of_words`] value, so both entry points take the
    /// same slot, tag, and probe sequence.
    fn probe_record<const NARROW: bool>(
        &self,
        words: [u64; 4],
        hash: u64,
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> Result<()> {
        probe_walk::<_, NARROW>(Shared(self), words, hash, edge_slots, weight)
    }

    /// The same walk through `&mut self`: one writer, so every slot word
    /// and cell is plain memory ([`Owned`]).
    fn probe_record_owned<const NARROW: bool>(
        &mut self,
        words: [u64; 4],
        hash: u64,
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> Result<()> {
        probe_walk::<_, NARROW>(Owned(self), words, hash, edge_slots, weight)
    }

    /// Appends every vertex to `out`, in claim order, and returns the
    /// table's counters — [`contention`](VertexTable::contention) on a
    /// quiescent table — from the same pass: Σ cell counts is all
    /// `contention` reads the cells for. One copy of the dense cells; no
    /// slot is visited. Step 2 appends the sub-tables of a split
    /// partition into one `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds another k's cells.
    pub fn snapshot_cells(&self, out: &mut VertexCells) -> ContentionStats {
        assert_eq!(out.k(), self.k, "{}-mer cells for a {}-mer table", out.k(), self.k);
        let n = self.claimed.load(Ordering::Acquire);
        let start = out.words.len();
        out.words.reserve(n * self.cells.stride);
        out.words.extend(self.cells.claimed(n).iter().map(|word| word.load(Ordering::Relaxed)));
        let count = 2 * self.cells.width;
        let occurrences = out.words[start..]
            .chunks_exact(self.cells.stride)
            .map(|cell| u64::from(cell[count]))
            .sum();
        self.contention_given(occurrences)
    }

    /// [`snapshot`](VertexTable::snapshot) and
    /// [`contention`](VertexTable::contention) from one pass over the
    /// cells ([`snapshot_cells`](Self::snapshot_cells)) — the same values
    /// the two calls return on a quiescent table.
    pub fn snapshot_with_contention(&self) -> (SubGraph, ContentionStats) {
        let mut cells = VertexCells::new(self.k);
        let stats = self.snapshot_cells(&mut cells);
        (cells.to_subgraph(), stats)
    }

    /// The table-wide counters, with `updates` derived from the Σ of cell
    /// duplicity counts the caller summed.
    fn contention_given(&self, occurrences: u64) -> ContentionStats {
        let r = Ordering::Relaxed;
        let insertions = self.stats.insertions.load(r);
        ContentionStats {
            insertions,
            // Every successful record bumps its cell's duplicity count
            // exactly once, so Σ counts = insertions + updates; the
            // subtraction saturates because a record in flight bumps its
            // cell count before the insertions counter.
            updates: occurrences.saturating_sub(insertions),
            cas_failures: self.stats.cas_failures.load(r),
            lock_waits: self.stats.lock_waits.load(r),
            probe_steps: self.stats.probe_steps.load(r),
            tag_rejects: self.stats.tag_rejects.load(r),
        }
    }
}

/// Home slot of `hash` in a table of `capacity` slots: multiply-shift
/// range reduction maps the full 64-bit hash onto `[0, capacity)` with one
/// widening multiply — no division.
#[inline]
fn home_slot(hash: u64, capacity: usize) -> usize {
    ((hash as u128 * capacity as u128) >> 64) as usize
}

/// The cell index an `OCCUPIED` slot word names.
#[inline(always)]
fn cell_of(word: u64) -> usize {
    (word >> CELL_SHIFT) as usize
}

/// A table-wide behaviour counter, as [`SlotAccess::count`] names it.
#[derive(Clone, Copy)]
enum Stat {
    Insertion,
    CasFailure,
    LockWait,
    ProbeStep,
    TagReject,
}

impl Counters {
    fn get_mut(&mut self, stat: Stat) -> &mut AtomicU64 {
        match stat {
            Stat::Insertion => &mut self.insertions,
            Stat::CasFailure => &mut self.cas_failures,
            Stat::LockWait => &mut self.lock_waits,
            Stat::ProbeStep => &mut self.probe_steps,
            Stat::TagReject => &mut self.tag_rejects,
        }
    }

    fn get(&self, stat: Stat) -> &AtomicU64 {
        match stat {
            Stat::Insertion => &self.insertions,
            Stat::CasFailure => &self.cas_failures,
            Stat::LockWait => &self.lock_waits,
            Stat::ProbeStep => &self.probe_steps,
            Stat::TagReject => &self.tag_rejects,
        }
    }
}

/// How [`probe_walk`] reads and claims slots. The walk — home slot, tag,
/// linear step — is written once; [`Shared`] runs it over the
/// state-transfer protocol, [`Owned`] over plain memory. Every probe
/// *decision* is the walk's, so both count the same `probe_steps`,
/// `tag_rejects` and `insertions` and leave the same slots and cells.
trait SlotAccess {
    fn capacity(&self) -> usize;
    /// The slot's `state | tag | cell` word.
    fn state(&mut self, slot: usize) -> u64;
    /// If cell `cell` holds the key `words` — with `NARROW` (k ≤ 32: one
    /// key word) word 0 alone decides — records the occurrence there:
    /// `weight` added to the count and to each listed edge counter,
    /// wrapping on overflow.
    fn record_if_match<const NARROW: bool>(
        &mut self,
        cell: usize,
        words: &[u64; 4],
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> bool;
    /// Claims an `EMPTY` slot for `words`: takes the next cell, stores
    /// its ⌈k/32⌉ key words and the occurrence's counters over whatever
    /// its last tenant left, publishes `OCCUPIED | tag | cell`. `false`
    /// when another writer got to the slot first.
    fn claim(
        &mut self,
        slot: usize,
        tag: u64,
        words: &[u64; 4],
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> bool;
    fn count(&mut self, stat: Stat);
    /// Waits out a `LOCKED` slot (`spins` so far).
    fn wait_locked(&mut self, spins: u32);
}

/// Records `weight` occurrences of the key `words` (hash `hash`): the one
/// probe walk of both access kinds. See [`ConcurrentDbgTable`] for the
/// protocol.
#[inline(always)]
fn probe_walk<A: SlotAccess, const NARROW: bool>(
    mut access: A,
    words: [u64; 4],
    hash: u64,
    edge_slots: [Option<u8>; 2],
    weight: u32,
) -> Result<()> {
    let capacity = access.capacity();
    let mut slot = home_slot(hash, capacity);
    // 8-bit fingerprint from the hash's low byte (the reduction above
    // consumes mostly high bits, keeping tag and slot independent).
    let tag = (hash & 0xFF) << 8;
    for _probe in 0..capacity {
        let mut spins = 0u32;
        loop {
            let word = access.state(slot);
            match word & STATE_MASK {
                OCCUPIED => {
                    if word & TAG_MASK != tag {
                        // Fingerprint mismatch: provably a different key.
                        // Reject on the slot word alone — the cell is
                        // never loaded.
                        access.count(Stat::TagReject);
                        break; // probe onwards
                    }
                    if access.record_if_match::<NARROW>(cell_of(word), &words, edge_slots, weight) {
                        return Ok(());
                    }
                    break; // tag collision, different key: probe on
                }
                EMPTY => {
                    if access.claim(slot, tag, &words, edge_slots, weight) {
                        access.count(Stat::Insertion);
                        return Ok(());
                    }
                    // Someone else claimed it between our load and CAS;
                    // re-examine the same slot.
                    access.count(Stat::CasFailure);
                }
                _locked => {
                    // Writer is publishing the key; wait for it.
                    access.count(Stat::LockWait);
                    spins += 1;
                    access.wait_locked(spins);
                }
            }
        }
        slot = (slot + 1) % capacity;
        access.count(Stat::ProbeStep);
    }
    Err(HashGraphError::CapacityExhausted { capacity })
}

/// Whether a cell's key halves spell the first `n` of `words`. Relaxed
/// loads: a shared reader's Acquire of `OCCUPIED` ordered the key's
/// stores before them, and to an owning writer they are plain loads.
#[inline(always)]
fn key_is(key: &[AtomicU32], n: usize, words: &[u64; 4]) -> bool {
    let half = |i: usize| u64::from(key[i].load(Ordering::Relaxed));
    words[..n].iter().enumerate().all(|(i, &word)| half(2 * i) | half(2 * i + 1) << 32 == word)
}

/// [`SlotAccess`] through `&ConcurrentDbgTable`: the paper's
/// state-transfer protocol, for tables whose writers share them.
struct Shared<'t>(&'t ConcurrentDbgTable);

impl SlotAccess for Shared<'_> {
    #[inline(always)]
    fn capacity(&self) -> usize {
        self.0.capacity
    }

    #[inline(always)]
    fn state(&mut self, slot: usize) -> u64 {
        // SAFETY: the walk's multiply-shift reduction and `% capacity`
        // advance keep `slot` in `[0, capacity)`, and `slots` has
        // `capacity` entries. Dropping the bounds check matters here:
        // this runs once per probe of the whole build.
        unsafe { self.0.slots.get_unchecked(slot) }.load(Ordering::Acquire)
    }

    #[inline(always)]
    fn record_if_match<const NARROW: bool>(
        &mut self,
        cell: usize,
        words: &[u64; 4],
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> bool {
        let relaxed = Ordering::Relaxed;
        let width = if NARROW { 1 } else { self.0.cells.width };
        let (key, counters) = self.0.cells.get(cell).split_at(2 * self.0.cells.width);
        if !key_is(key, width, words) {
            return false;
        }
        counters[0].fetch_add(weight, relaxed);
        for e in edge_slots.into_iter().flatten() {
            debug_assert!(e < 8, "edge slot {e} out of range");
            // `& 7` keeps the index provably in range (and is a no-op
            // for every slot `EdgeDir::slot` can produce).
            counters[1 + (e & 7) as usize].fetch_add(weight, relaxed);
        }
        true
    }

    #[inline(always)]
    fn claim(
        &mut self,
        slot: usize,
        tag: u64,
        words: &[u64; 4],
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> bool {
        let relaxed = Ordering::Relaxed;
        let table = self.0;
        let state = &table.slots[slot];
        if state.compare_exchange(EMPTY, LOCKED | tag, Ordering::AcqRel, Ordering::Acquire).is_err()
        {
            return false;
        }
        // We own the slot, and with it the next cell: one claim per
        // EMPTY slot keeps the index below `capacity`. The single key
        // write of the cell's tenancy — and, since a recycled table's
        // `reset` leaves cells alone, the overwriting of the counters its
        // last tenant left behind. A cell is read only after an Acquire
        // load of a slot word naming it read OCCUPIED
        // (`record_if_match`), or by `snapshot_cells` on a quiescent
        // table, and these Relaxed stores are sequenced before the
        // Release store that publishes the name, so every such access
        // happens-after them. Pinned by
        // `recycled_table_with_stale_counter_lines_equals_fresh`.
        let index = table.claimed.fetch_add(1, relaxed);
        let (key, counters) = table.cells.get(index).split_at(2 * table.cells.width);
        for (halves, &word) in key.chunks_exact(2).zip(words) {
            halves[0].store(word as u32, relaxed);
            halves[1].store((word >> 32) as u32, relaxed);
        }
        counters[0].store(weight, relaxed);
        for edge in &counters[1..] {
            edge.store(0, relaxed);
        }
        for e in edge_slots.into_iter().flatten() {
            // Still ours alone: a plain add, for a slot listed twice.
            let edge = &counters[1 + (e & 7) as usize];
            edge.store(edge.load(relaxed).wrapping_add(weight), relaxed);
        }
        state.store(OCCUPIED | tag | (index as u64) << CELL_SHIFT, Ordering::Release);
        true
    }

    #[inline(always)]
    fn count(&mut self, stat: Stat) {
        self.0.stats.get(stat).fetch_add(1, Ordering::Relaxed);
    }

    fn wait_locked(&mut self, spins: u32) {
        if spins.is_multiple_of(SPINS_BEFORE_YIELD) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// [`SlotAccess`] through `&mut ConcurrentDbgTable`: the table has one
/// writer, so `get_mut` turns every atomic into plain memory — no CAS, no
/// lock-prefixed add, no shared statistics line. A claim publishes
/// `OCCUPIED` at once, so no slot is ever `LOCKED`, and CAS failures and
/// lock waits stay 0.
struct Owned<'t>(&'t mut ConcurrentDbgTable);

/// Adds `weight` to a plain cell's count and listed edge counters.
#[inline(always)]
fn bump_owned(counters: &mut [AtomicU32], edge_slots: [Option<u8>; 2], weight: u32) {
    let count = counters[0].get_mut();
    *count = count.wrapping_add(weight);
    for e in edge_slots.into_iter().flatten() {
        debug_assert!(e < 8, "edge slot {e} out of range");
        let edge = counters[1 + (e & 7) as usize].get_mut();
        *edge = edge.wrapping_add(weight);
    }
}

impl SlotAccess for Owned<'_> {
    #[inline(always)]
    fn capacity(&self) -> usize {
        self.0.capacity
    }

    #[inline(always)]
    fn state(&mut self, slot: usize) -> u64 {
        *self.0.slots[slot].get_mut()
    }

    #[inline(always)]
    fn record_if_match<const NARROW: bool>(
        &mut self,
        cell: usize,
        words: &[u64; 4],
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> bool {
        let cells_width = self.0.cells.width;
        let width = if NARROW { 1 } else { cells_width };
        let (key, counters) = self.0.cells.get_mut(cell).split_at_mut(2 * cells_width);
        if !key_is(key, width, words) {
            return false;
        }
        bump_owned(counters, edge_slots, weight);
        true
    }

    #[inline(always)]
    fn claim(
        &mut self,
        slot: usize,
        tag: u64,
        words: &[u64; 4],
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> bool {
        let table = &mut *self.0;
        let claimed = table.claimed.get_mut();
        let index = *claimed;
        *claimed += 1;
        let width = table.cells.width;
        let (key, counters) = table.cells.get_mut(index).split_at_mut(2 * width);
        for (halves, &word) in key.chunks_exact_mut(2).zip(words) {
            *halves[0].get_mut() = word as u32;
            *halves[1].get_mut() = (word >> 32) as u32;
        }
        for counter in counters.iter_mut() {
            *counter.get_mut() = 0;
        }
        bump_owned(counters, edge_slots, weight);
        *table.slots[slot].get_mut() = OCCUPIED | tag | (index as u64) << CELL_SHIFT;
        true
    }

    #[inline(always)]
    fn count(&mut self, stat: Stat) {
        *self.0.stats.get_mut(stat).get_mut() += 1;
    }

    fn wait_locked(&mut self, _spins: u32) {
        unreachable!("an owned table has no claim in flight");
    }
}

impl VertexTable for ConcurrentDbgTable {
    fn k(&self) -> usize {
        self.k
    }

    fn record(&self, key: &Kmer, edge_slots: [Option<u8>; 2]) -> Result<()> {
        self.record_weighted(key, edge_slots, 1)
    }

    /// One probe walk whatever the weight: the counters grow by `weight`
    /// with a single atomic add each.
    fn record_weighted(&self, key: &Kmer, edge_slots: [Option<u8>; 2], weight: u32) -> Result<()> {
        self.check_k(key)?;
        self.probe_record::<false>(*key.words(), key.hash64(), edge_slots, weight)
    }

    /// Pulls the home slot's word toward the core. Issued by the replay
    /// kernel several positions before the matching
    /// [`record_narrow_hashed`](VertexTable::record_narrow_hashed), so
    /// the (random-access) slot line arrives while the rolling scan is
    /// still chewing through the next few bases.
    fn prefetch_narrow(&self, hash: u64) {
        prefetch(&self.slots[home_slot(hash, self.capacity)]);
    }

    /// The narrow fast path: the caller hashed the single-word key array
    /// directly — [`Kmer::hash64_of_words`] is the same function
    /// `Kmer::hash64` delegates to, so slot, fingerprint tag, probe order,
    /// and every contention counter are bit-identical to
    /// [`record`](Self::record).
    fn record_narrow_hashed(
        &self,
        word: u64,
        hash: u64,
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> Result<()> {
        self.probe_record::<true>(self.narrow_words(word, hash), hash, edge_slots, weight)
    }

    fn snapshot(&self) -> SubGraph {
        self.snapshot_with_contention().0
    }

    /// The cells claimed so far.
    fn distinct(&self) -> usize {
        self.claimed.load(Ordering::Relaxed)
    }

    fn contention(&self) -> ContentionStats {
        let n = self.claimed.load(Ordering::Acquire);
        let (stride, count) = (self.cells.stride, 2 * self.cells.width);
        let occurrences = self
            .cells
            .claimed(n)
            .chunks_exact(stride)
            .map(|cell| u64::from(cell[count].load(Ordering::Relaxed)))
            .sum();
        self.contention_given(occurrences)
    }
}

impl Recorder for &mut ConcurrentDbgTable {
    #[inline]
    fn prefetch(&self, hash: u64) {
        self.prefetch_narrow(hash);
    }

    #[inline]
    fn record_narrow(
        &mut self,
        word: u64,
        hash: u64,
        edge_slots: [Option<u8>; 2],
        weight: u32,
    ) -> Result<()> {
        let words = self.narrow_words(word, hash);
        self.probe_record_owned::<true>(words, hash, edge_slots, weight)
    }

    fn record_wide(&mut self, key: &Kmer, edge_slots: [Option<u8>; 2], weight: u32) -> Result<()> {
        self.check_k(key)?;
        self.probe_record_owned::<false>(*key.words(), key.hash64(), edge_slots, weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna::PackedSeq;

    fn canon(s: &str) -> Kmer {
        s.parse::<Kmer>().unwrap().canonical().0
    }

    #[test]
    fn insert_then_update_counts() {
        let t = ConcurrentDbgTable::new(16, 5);
        let v = canon("ACGTA");
        t.record(&v, [Some(2), None]).unwrap();
        t.record(&v, [Some(2), Some(5)]).unwrap();
        t.record(&v, [None, None]).unwrap();
        let sub = t.snapshot();
        assert_eq!(sub.len(), 1);
        let (k, d) = &sub.entries()[0];
        assert_eq!(k, &v);
        assert_eq!(d.count, 3);
        assert_eq!(d.edges[2], 2);
        assert_eq!(d.edges[5], 1);
        let c = t.contention();
        assert_eq!(c.insertions, 1);
        assert_eq!(c.updates, 2);
    }

    #[test]
    fn one_walk_matches_the_two_calls() {
        let t = ConcurrentDbgTable::new(64, 6);
        // Before any record, and after: the combined walk returns what
        // `snapshot` and `contention` return separately.
        assert_eq!(t.snapshot_with_contention(), (t.snapshot(), t.contention()));
        let seq = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGACGTTGCATGG");
        for (i, kmer) in seq.kmers(6).enumerate() {
            t.record(&kmer.canonical().0, [Some((i % 8) as u8), None]).unwrap();
        }
        let (sub, stats) = t.snapshot_with_contention();
        assert_eq!(sub, t.snapshot());
        assert_eq!(stats, t.contention());
        assert_eq!(stats.insertions as usize, sub.len());
        assert!(stats.updates > 0, "the fixture repeats k-mers");
        assert_eq!(stats.operations(), (seq.len() - 6 + 1) as u64);
    }

    #[test]
    fn distinct_keys_occupy_distinct_slots() {
        let t = ConcurrentDbgTable::new(64, 4);
        let seq = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAG");
        let mut expected = std::collections::HashMap::new();
        for kmer in seq.kmers(4) {
            let c = kmer.canonical().0;
            t.record(&c, [None, None]).unwrap();
            *expected.entry(c).or_insert(0u32) += 1;
        }
        let sub = t.snapshot();
        assert_eq!(sub.len(), expected.len());
        for (k, d) in sub.entries() {
            assert_eq!(d.count, expected[k], "count mismatch for {k}");
        }
        assert_eq!(t.distinct(), expected.len());
    }

    #[test]
    fn record_narrow_hashed_matches_record_exactly() {
        // Same key stream through both entry points: identical snapshot
        // *and* identical contention counters (same hash → same slots,
        // tags, and probe walks).
        for k in [4usize, 31, 32] {
            let via_kmer = ConcurrentDbgTable::new(64, k);
            let via_word = ConcurrentDbgTable::new(64, k);
            let seq = PackedSeq::from_ascii(
                b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGAGGCTAT",
            );
            for (i, kmer) in seq.kmers(k).enumerate() {
                let c = kmer.canonical().0;
                let edges = [Some((i % 8) as u8), if i % 3 == 0 { None } else { Some(7) }];
                via_kmer.record(&c, edges).unwrap();
                let word = c.words()[0];
                let hash = Kmer::hash64_of_words(&[word, 0, 0, 0], k);
                via_word.record_narrow_hashed(word, hash, edges, 1).unwrap();
            }
            assert_eq!(via_kmer.snapshot(), via_word.snapshot(), "k={k}");
            let (a, b) = (via_kmer.contention(), via_word.contention());
            assert_eq!(a.insertions, b.insertions, "k={k}");
            assert_eq!(a.updates, b.updates, "k={k}");
            assert_eq!(a.probe_steps, b.probe_steps, "k={k}");
            assert_eq!(a.tag_rejects, b.tag_rejects, "k={k}");
        }
    }

    #[test]
    fn wrong_k_rejected() {
        let t = ConcurrentDbgTable::new(16, 5);
        let err = t.record(&canon("ACG"), [None, None]).unwrap_err();
        assert!(matches!(err, HashGraphError::WrongK { expected: 5, got: 3 }));
    }

    #[test]
    fn capacity_exhaustion_reported() {
        let t = ConcurrentDbgTable::new(16, 6); // min capacity is 16
        let seq = PackedSeq::from_ascii(
            b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGATTAAC",
        );
        let mut result = Ok(());
        let mut distinct = std::collections::HashSet::new();
        for kmer in seq.kmers(6) {
            let c = kmer.canonical().0;
            distinct.insert(c);
            result = t.record(&c, [None, None]);
            if result.is_err() {
                break;
            }
        }
        assert!(distinct.len() > 16, "test needs more distinct kmers than capacity");
        assert!(matches!(result, Err(HashGraphError::CapacityExhausted { capacity: 16 })));
    }

    #[test]
    fn collisions_probe_linearly() {
        // Fill a tiny table almost full; all entries must still be found.
        let t = ConcurrentDbgTable::new(16, 8);
        let seq = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACG");
        let kmers: Vec<Kmer> = seq.kmers(8).map(|k| k.canonical().0).collect();
        let distinct: std::collections::HashSet<_> = kmers.iter().collect();
        assert!(distinct.len() <= 16);
        for c in &kmers {
            t.record(c, [None, None]).unwrap();
        }
        // Second pass: every record is an update, no new insertions.
        let before = t.contention().insertions;
        for c in &kmers {
            t.record(c, [None, None]).unwrap();
        }
        assert_eq!(t.contention().insertions, before);
        assert_eq!(t.snapshot().len(), distinct.len());
    }

    #[test]
    fn concurrent_records_are_linearizable() {
        use std::sync::Arc;
        let t = Arc::new(ConcurrentDbgTable::new(4096, 9));
        let seq = PackedSeq::from_ascii(
            &"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATG"
                .repeat(4)
                .into_bytes(),
        );
        let kmers: Vec<Kmer> = seq.kmers(9).map(|k| k.canonical().0).collect();
        let threads = 8;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = Arc::clone(&t);
                let kmers = &kmers;
                s.spawn(move || {
                    // Each thread records every kmer, rotated to create
                    // maximal same-slot contention.
                    for i in 0..kmers.len() {
                        let c = &kmers[(i + tid * 7) % kmers.len()];
                        t.record(c, [Some((i % 8) as u8), None]).unwrap();
                    }
                });
            }
        });
        let mut expected = std::collections::HashMap::new();
        for c in &kmers {
            *expected.entry(*c).or_insert(0u64) += threads as u64;
        }
        let sub = t.snapshot();
        assert_eq!(sub.len(), expected.len());
        let mut total_edges = 0u64;
        for (k, d) in sub.entries() {
            assert_eq!(d.count as u64, expected[k], "lost updates for {k}");
            total_edges += d.total_edge_multiplicity();
        }
        assert_eq!(total_edges, (threads * kmers.len()) as u64);
        let c = t.contention();
        assert_eq!(c.insertions, expected.len() as u64);
        assert_eq!(c.updates, (threads * kmers.len()) as u64 - expected.len() as u64);
        // One cell per insertion, and each vertex in exactly one of them.
        assert_eq!(t.distinct() as u64, c.insertions);
        let mut cells = VertexCells::new(9);
        assert_eq!(t.snapshot_cells(&mut cells), c);
        let keys: std::collections::HashSet<Kmer> = cells.iter().map(|(k, _)| k).collect();
        assert_eq!((cells.len(), keys.len()), (expected.len(), expected.len()));
    }

    /// Read while writers claim cells, a table reports what it can —
    /// never more vertices than it has slots — and never panics on a
    /// cell a claim in flight is still writing.
    #[test]
    fn reading_a_table_while_it_is_written_never_panics() {
        let t = ConcurrentDbgTable::new(1 << 14, 11);
        let seq = PackedSeq::from_ascii(
            &(0..6000).map(|i| b"ACGT"[(i * i / 5 + i / 3) % 4]).collect::<Vec<u8>>(),
        );
        let kmers: Vec<Kmer> = seq.kmers(11).map(|k| k.canonical().0).collect();
        let (start, finished) = (std::sync::Barrier::new(4), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for tid in 0..3 {
                let (t, kmers, start, finished) = (&t, &kmers, &start, &finished);
                s.spawn(move || {
                    start.wait();
                    for c in kmers.iter().skip(tid) {
                        t.record(c, [Some(1), None]).unwrap();
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            let mut cells = VertexCells::new(11);
            start.wait();
            while finished.load(Ordering::Acquire) < 3 {
                let _ = t.contention();
                cells.words.clear();
                let _ = t.snapshot_cells(&mut cells);
                assert!(cells.len() <= t.capacity());
            }
        });
        let distinct: std::collections::HashSet<_> = kmers.iter().collect();
        assert_eq!(t.distinct(), distinct.len());
    }

    #[test]
    fn tag_rejects_accumulate_on_probe_collisions() {
        // Cram many distinct kmers into a near-full table: linear probing
        // must walk over foreign occupied slots, and almost all of those
        // walks should be settled by the fingerprint tag (only a ~1/256
        // fraction of mismatching keys shares the tag by chance).
        let t = ConcurrentDbgTable::new(64, 8);
        let seq = PackedSeq::from_ascii(
            &"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATG"
                .repeat(2)
                .into_bytes(),
        );
        for kmer in seq.kmers(8) {
            t.record(&kmer.canonical().0, [None, None]).unwrap();
        }
        let c = t.contention();
        assert!(c.probe_steps > 0, "test needs collisions to be meaningful");
        assert!(
            c.tag_rejects > 0,
            "probe collisions should mostly resolve via the tag: {c:?}"
        );
        // Every probe step passed over an occupied-or-locked slot; tag
        // rejects can never exceed the occupied-slot rejections.
        assert!(c.tag_rejects <= c.probe_steps);
    }

    #[test]
    fn reset_table_behaves_like_fresh() {
        let seq = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAG");
        let record_all = |t: &ConcurrentDbgTable| {
            for (i, kmer) in seq.kmers(6).enumerate() {
                t.record(&kmer.canonical().0, [Some((i % 8) as u8), None]).unwrap();
            }
        };
        let fresh = ConcurrentDbgTable::new(64, 6);
        record_all(&fresh);

        let mut reused = ConcurrentDbgTable::new(64, 6);
        // Dirty it with a different workload, then reset.
        let other = PackedSeq::from_ascii(b"TTTTTTAAAAAACCCCCCGGGGGGTTTTTT");
        for kmer in other.kmers(6) {
            reused.record(&kmer.canonical().0, [Some(7), Some(3)]).unwrap();
        }
        reused.reset();
        assert_eq!(reused.distinct(), 0);
        assert_eq!(reused.contention().insertions, 0);
        record_all(&reused);

        let mut a = fresh.snapshot().into_entries();
        let mut b = reused.snapshot().into_entries();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        assert_eq!(a, b, "reset table must reproduce a fresh table's contents");
    }

    /// `reset` leaves every counter line as its last tenant left it; the
    /// thread that claims a slot zeroes the line before it publishes
    /// `OCCUPIED` (the `SAFETY` argument in `Shared::claim`). So:
    /// fill a table densely with partition A — every occupied line holds
    /// counts well above anything B will reach — `reset`, replay a
    /// different partition B through the production pipeline with 1, 2
    /// and 8 threads, and demand a fresh
    /// table's result: same entries, same insertions and updates (the
    /// interleaving-free counters), and on one thread — where the probe
    /// walk is deterministic — the same snapshot order and the same
    /// contention counters throughout.
    #[test]
    fn recycled_table_with_stale_counter_lines_equals_fresh() {
        const K: usize = 15;
        const P: usize = 7;
        let partition = |seed: u64, copies: usize| {
            let mut state = seed;
            let reads: Vec<PackedSeq> = (0..40)
                .map(|_| {
                    let ascii: Vec<u8> = (0..150)
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            b"ACGT"[(state >> 33) as usize & 3]
                        })
                        .collect();
                    PackedSeq::from_ascii(&ascii)
                })
                .collect();
            msp::partition_in_memory(&reads, K, P, 1).unwrap().remove(0).repeat(copies)
        };
        let (a, b) = (partition(0x9E37_79B9_7F4A_7C15, 9), partition(0x2545_F491_4F6C_DD1D, 2));
        let replay = |table: &ConcurrentDbgTable, bytes: &[u8], threads: usize| {
            let slices = msp::PartitionSlices::index(bytes, K, P).unwrap();
            crate::build_subgraph_with(table, &slices, threads).unwrap();
        };
        let sorted = |sub: SubGraph| {
            let mut entries = sub.into_entries();
            entries.sort_unstable_by_key(|entry| entry.0);
            entries
        };
        for threads in [1, 2, 8] {
            // 40 × 136 k-mers, nearly all distinct, in 8 192 slots.
            let mut recycled = ConcurrentDbgTable::new(8192, K);
            replay(&recycled, &a, 2);
            assert!(recycled.distinct() > 8192 * 6 / 10, "A must leave most lines dirty");
            assert!(recycled.snapshot().entries().iter().all(|(_, d)| d.count >= 9));
            recycled.reset();
            assert_eq!(recycled.distinct(), 0);
            let fresh = ConcurrentDbgTable::new(8192, K);
            replay(&recycled, &b, threads);
            replay(&fresh, &b, threads);
            let (got, got_stats) = recycled.snapshot_with_contention();
            let (want, want_stats) = fresh.snapshot_with_contention();
            let what = format!("threads={threads}");
            assert_eq!(got_stats, recycled.contention(), "{what}");
            assert_eq!(
                (got_stats.insertions, got_stats.updates),
                (want_stats.insertions, want_stats.updates),
                "{what}"
            );
            if threads == 1 {
                assert_eq!((&got, got_stats), (&want, want_stats), "{what}");
            }
            assert!(want.entries().iter().all(|(_, d)| d.count < 9), "B stays below A's counts");
            assert_eq!(sorted(got), sorted(want), "{what}");
        }
    }

    #[test]
    fn minimum_capacity_is_enforced() {
        let t = ConcurrentDbgTable::new(0, 3);
        assert_eq!(t.capacity(), 16);
        assert_eq!(t.distinct(), 0);
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "invalid k")]
    fn zero_k_panics() {
        ConcurrentDbgTable::new(16, 0);
    }

    #[test]
    fn table_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ConcurrentDbgTable>();
    }

    /// Admission still prices the paper's slot — the state word, ⌈k/32⌉
    /// key words and the counter cell — while a table costs its 8-byte
    /// slot words plus a cell per claimed vertex: nothing for an empty
    /// slot, and never more than admission's [`slot_price`] a slot
    /// however full. Reset, it prices only its slot words again, while
    /// it still holds the cells its tenant touched.
    #[test]
    fn a_table_costs_its_slot_words_and_claimed_cells() {
        assert_eq!(SLOT_BYTES, 70);
        for (k, bytes) in [(1, 46), (32, 46), (33, 54), (64, 54), (65, 62), (96, 62), (97, 70)] {
            assert_eq!(slot_bytes(k), bytes, "k={k}");
            let price = if k > 96 { 76 } else { SLOT_BYTES };
            assert_eq!(slot_price(k), price, "k={k}");
        }
        assert_eq!(slot_bytes(128), SLOT_BYTES);
        for k in [3usize, 32, 33, 40, 64, 65, 96, 97, 128] {
            let mut table = ConcurrentDbgTable::new(200, k);
            assert_eq!(table.approx_bytes(), 200 * 8, "k={k}: an empty table is its slot words");
            let seq = PackedSeq::from_ascii(
                &(0..k + 400).map(|i| b"ACGT"[(i * i / 7 + i / 3) % 4]).collect::<Vec<u8>>(),
            );
            let kmers: std::collections::BTreeSet<Kmer> =
                seq.kmers(k).map(|kmer| kmer.canonical().0).collect();
            for kmer in kmers.iter().take(200) {
                (&mut table).record_wide(kmer, [None, None], 1).unwrap();
                let bytes = 200 * 8 + table.distinct() * cell_bytes(k);
                assert_eq!((table.approx_bytes(), table.held_bytes()), (bytes, bytes), "k={k}");
            }
            assert_eq!(table.distinct(), kmers.len().min(200), "k={k}");
            assert!(table.held_bytes() <= 200 * slot_price(k), "k={k}: {}", table.held_bytes());
            let held = table.held_bytes();
            table.reset();
            assert_eq!(table.approx_bytes(), 200 * 8, "k={k}: reset releases the cells' price");
            assert_eq!(table.held_bytes(), held, "k={k}: not the cells it touched");
        }
    }

    /// Keys of two, three and four words live in their cells whole: the
    /// shared and the owned walk agree with a map of the stream, vertex
    /// for vertex and in claim order.
    #[test]
    fn wide_keys_fill_their_cells() {
        let seq = PackedSeq::from_ascii(
            &"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATGCCGGATTAACGTA"
                .repeat(3)
                .into_bytes(),
        );
        for k in [33usize, 40, 64, 65, 100] {
            let shared = ConcurrentDbgTable::new(512, k);
            let mut owned = ConcurrentDbgTable::new(512, k);
            let mut expected = std::collections::HashMap::new();
            for (i, kmer) in seq.kmers(k).enumerate() {
                let c = kmer.canonical().0;
                let edges = [Some((i % 8) as u8), None];
                shared.record(&c, edges).unwrap();
                (&mut owned).record_wide(&c, edges, 1).unwrap();
                *expected.entry(c).or_insert(0u32) += 1;
            }
            let (a, b) = (shared.snapshot(), owned.snapshot());
            assert_eq!(a, b, "k={k}");
            assert_eq!(a.len(), expected.len(), "k={k}");
            for (kmer, data) in a.entries() {
                assert_eq!(kmer.k(), k);
                assert_eq!(data.count, expected[kmer], "k={k} {kmer}");
            }
            assert_eq!(shared.contention(), owned.contention(), "k={k}");
        }
    }
}
