use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU16, AtomicU32, Ordering};

use dna::Kmer;

use crate::{ContentionStats, HashGraphError, Result, SubGraph, VertexData};

/// Occupancy states of a hash slot (the paper's Fig 4: white / gray /
/// black), stored in the low byte of the slot word. The high byte holds
/// an 8-bit *fingerprint tag* of the key's hash, published atomically
/// with the state so probe mismatches can be rejected without touching
/// the 32-byte key cell at all.
const EMPTY: u16 = 0;
const LOCKED: u16 = 1;
const OCCUPIED: u16 = 2;
/// Mask selecting the occupancy state from a slot word.
const STATE_MASK: u16 = 0x00FF;
/// Mask selecting the fingerprint tag from a slot word.
const TAG_MASK: u16 = 0xFF00;

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

    /// Hint that a narrow key whose [`Kmer::hash64_of_words`] value is
    /// `hash` will shortly be recorded. Tables backed by hash-addressed
    /// storage may start pulling the target slot's cache lines toward
    /// the core; a pure performance hint with no observable effect. The
    /// default does nothing.
    fn prefetch_narrow(&self, hash: u64) {
        let _ = hash;
    }

    /// [`record`](Self::record) for a canonical k-mer of k ≤ 32 whose
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
    /// hash and delegates to [`record`](Self::record), so every table is
    /// automatically correct; tables with a cheaper route may override
    /// it, provided the observable behaviour stays identical.
    ///
    /// # Errors
    ///
    /// Same as [`record`](Self::record).
    fn record_narrow_hashed(&self, word: u64, hash: u64, edge_slots: [Option<u8>; 2]) -> Result<()> {
        let _ = hash;
        debug_assert!(self.k() <= 32, "narrow keys require k <= 32, got {}", self.k());
        let key = Kmer::from_words([word, 0, 0, 0], self.k()).expect("1 <= k <= 32");
        self.record(&key, edge_slots)
    }

    /// Copies the current contents out as a subgraph.
    fn snapshot(&self) -> SubGraph;

    /// Number of distinct vertices currently stored.
    fn distinct(&self) -> usize;

    /// Concurrency-behaviour counters accumulated so far.
    fn contention(&self) -> ContentionStats;
}

/// Per-slot duplicity count and eight edge-multiplicity counters, padded
/// to one cache line. Packing them together (instead of two slot-major
/// arrays) means the counter bumps after a successful probe touch exactly
/// one line, and the line never straddles two slots — so concurrent bumps
/// on different slots never false-share.
#[repr(align(64))]
struct SlotCounters {
    count: AtomicU32,
    edges: [AtomicU32; 8],
}

impl SlotCounters {
    fn new() -> SlotCounters {
        SlotCounters { count: AtomicU32::new(0), edges: std::array::from_fn(|_| AtomicU32::new(0)) }
    }
}

/// Bytes one table slot costs: the 2-byte tagged state word, the 32-byte
/// key cell, and the 64-byte-aligned [`SlotCounters`] cache line. This is
/// the unit price behind [`ConcurrentDbgTable::approx_bytes`] and the
/// pre-allocation projection [`crate::projected_table_bytes`] — keep the
/// two accountings on the same constant so a budget check made before a
/// table exists agrees with the meter charged after it does.
pub const SLOT_BYTES: usize = 2 + 32 + std::mem::size_of::<SlotCounters>();

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

/// Key storage cell: written exactly once while the slot is `locked`,
/// immutable (and therefore safely shared) once the slot is `occupied`.
struct KeyCell(UnsafeCell<[u64; 4]>);

// SAFETY: the state-transfer protocol guarantees a single writer (the
// CAS winner, while the slot is LOCKED) and readers only after the
// Release store of OCCUPIED, which the writer performs after the write.
unsafe impl Sync for KeyCell {}

/// The paper's concurrent open-addressing De Bruijn hash table.
///
/// One table is shared by every thread working on a partition. Each slot
/// holds a 16-bit state word (occupancy flag in the low byte, an 8-bit
/// hash *fingerprint tag* in the high byte), the multi-word k-mer key, a
/// duplicity counter and eight edge-multiplicity counters. Concurrency
/// control is **state-transfer partial locking**:
///
/// * a thread that finds `empty` CASes it to `locked | tag`, writes the
///   key (the only multi-word write the slot will ever see), and
///   publishes with a release-store of `occupied | tag`;
/// * a thread that finds `locked` spins until the key is published;
/// * a thread that finds `occupied` first compares the 8-bit tag that
///   arrived with the very same atomic load — a mismatch rejects the
///   slot without reading its 32-byte key cell (no extra cache line
///   touched); on a tag match it compares keys lock-free — the key can
///   never change again — and on a key match bumps counters with atomic
///   adds, otherwise probes the next slot linearly.
///
/// The home slot is derived by multiply-shift range reduction
/// (`(hash × capacity) >> 64`) rather than `hash % capacity`, replacing
/// the 64-bit division on every record with one widening multiply.
///
/// Each slot's duplicity count and eight edge counters live together in
/// one 64-byte-aligned [`SlotCounters`] cache line, and the record path
/// issues software prefetches for the home slot's key and counter lines
/// the moment the slot index is known — the probe's dependent loads then
/// mostly hit L1. `PARAHASH_FORCE_SCALAR` disables the prefetch hints
/// along with every other vectorized path.
///
/// Capacity is fixed at construction (sized via Property 1 — see
/// [`crate::table_capacity_for`]); exceeding it returns
/// [`HashGraphError::CapacityExhausted`] rather than resizing.
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
    /// Per-slot `state | tag << 8` words; see the type-level docs.
    states: Box<[AtomicU16]>,
    keys: Box<[KeyCell]>,
    /// One cache line of counters per slot (count + 8 edge counters).
    counters: Box<[SlotCounters]>,
    /// Issue software prefetches for the home slot's key and counter
    /// lines as soon as the slot index is known. Captured at construction
    /// from the scalar escape hatch so forced-scalar runs exercise the
    /// plain load path.
    prefetch: bool,
    stats: Counters,
}

/// Table-wide behaviour counters. `updates` is **derived** at read time
/// (Σ slot duplicity counts − insertions) rather than maintained as its
/// own atomic: every successful record already bumps its slot's count,
/// so keeping a second shared-line RMW per k-mer in the hot path would
/// only re-count what the slots record. See
/// [`ConcurrentDbgTable::contention`].
#[derive(Default)]
struct Counters {
    insertions: std::sync::atomic::AtomicU64,
    cas_failures: std::sync::atomic::AtomicU64,
    lock_waits: std::sync::atomic::AtomicU64,
    probe_steps: std::sync::atomic::AtomicU64,
    tag_rejects: std::sync::atomic::AtomicU64,
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
    /// Allocates a table with room for `capacity` distinct `k`-mers.
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
            states: (0..capacity).map(|_| AtomicU16::new(EMPTY)).collect(),
            keys: (0..capacity).map(|_| KeyCell(UnsafeCell::new([0; 4]))).collect(),
            counters: (0..capacity).map(|_| SlotCounters::new()).collect(),
            prefetch: !dna::simd::force_scalar(),
            stats: Counters::default(),
        }
    }

    /// The slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current load factor (distinct vertices / capacity).
    pub fn load_factor(&self) -> f64 {
        self.distinct() as f64 / self.capacity as f64
    }

    /// Approximate allocation size in bytes, for memory accounting
    /// (2-byte tagged state word + 32-byte key + one 64-byte counter
    /// cache line per slot).
    pub fn approx_bytes(&self) -> usize {
        self.capacity * SLOT_BYTES
    }

    /// Clears the table for reuse without touching its allocations — the
    /// [`TablePool`](crate::TablePool) reset. Exclusive access (`&mut`)
    /// makes every atomic plain memory, so this is one memset of the
    /// 2-byte state words.
    ///
    /// Key cells and counter lines are deliberately *not* cleared: both
    /// are only ever read after observing `OCCUPIED` on their slot's state
    /// word, every state word returns to `EMPTY` here, and the thread
    /// that next claims a slot overwrites its key and zeroes its counter
    /// line under the slot lock, before it publishes `OCCUPIED` (see
    /// the claim arm of `probe_record_impl`). A stale line is
    /// unreachable until then — 2 bytes per slot to wipe instead of 66.
    pub fn reset(&mut self) {
        for s in self.states.iter_mut() {
            *s.get_mut() = EMPTY;
        }
        self.stats = Counters::default();
    }

    /// Reads the key in `slot`; caller must have observed `OCCUPIED` with
    /// acquire ordering.
    #[inline]
    fn read_key(&self, slot: usize) -> [u64; 4] {
        // SAFETY: key cells are written only between the EMPTY→LOCKED CAS
        // and the Release store of OCCUPIED; after our Acquire load of
        // OCCUPIED the cell is immutable.
        unsafe { *self.keys[slot].0.get() }
    }

    #[inline]
    fn bump(&self, slot: usize, edge_slots: [Option<u8>; 2]) {
        // SAFETY: `slot` comes from the probe walk, which reduces every
        // index mod `capacity`, and `counters` has `capacity` entries.
        let counters = unsafe { self.counters.get_unchecked(slot) };
        counters.count.fetch_add(1, Ordering::Relaxed);
        for e in edge_slots.into_iter().flatten() {
            debug_assert!(e < 8, "edge slot {e} out of range");
            // `& 7` keeps the index provably in range (and is a no-op
            // for every slot `EdgeDir::slot` can produce) so the
            // compiler drops the bounds check from the hot loop.
            counters.edges[(e & 7) as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The state-transfer probe loop shared by [`VertexTable::record`]
    /// and [`VertexTable::record_narrow_hashed`]: `words` must be the tail-clean
    /// packed key and `hash` its [`Kmer::hash64_of_words`] value, so both
    /// entry points take the same slot, tag, and probe sequence.
    fn probe_record(&self, words: [u64; 4], hash: u64, edge_slots: [Option<u8>; 2]) -> Result<()> {
        self.probe_record_impl::<false>(words, hash, edge_slots)
    }

    /// [`probe_record`](Self::probe_record) monomorphised over the key
    /// width. With `NARROW` (k ≤ 32, so every key the table will ever
    /// hold is tail-clean with words 1–3 zero) key equality is decided
    /// on word 0 alone — one 8-byte load instead of four. The probe
    /// *decisions* are identical either way, so slot walk, tag rejects
    /// and every other counter match the wide path bit for bit.
    #[inline]
    fn probe_record_impl<const NARROW: bool>(
        &self,
        words: [u64; 4],
        hash: u64,
        edge_slots: [Option<u8>; 2],
    ) -> Result<()> {
        // Multiply-shift range reduction: maps the full 64-bit hash onto
        // [0, capacity) with one widening multiply — no division.
        let mut slot = ((hash as u128 * self.capacity as u128) >> 64) as usize;
        if self.prefetch {
            // Pull the home slot's key and counter lines toward the core
            // while the state-word load below is still in flight — on a
            // hit (the common, update-heavy case) both are needed within
            // a few instructions.
            prefetch(&self.keys[slot]);
            prefetch(&self.counters[slot]);
        }
        // 8-bit fingerprint from the hash's low byte (the reduction above
        // consumes mostly high bits, keeping tag and slot independent).
        let tag = ((hash & 0xFF) as u16) << 8;
        let relaxed = Ordering::Relaxed;
        for _probe in 0..self.capacity {
            let mut spins = 0u32;
            // SAFETY (all `get_unchecked` below): the multiply-shift
            // reduction and the `% capacity` advance keep `slot` in
            // `[0, capacity)`, and `states`/`keys` both have `capacity`
            // entries. Dropping the bounds checks matters here: this
            // loop runs once per k-mer occurrence of the whole build.
            let state = unsafe { self.states.get_unchecked(slot) };
            loop {
                let word = state.load(Ordering::Acquire);
                match word & STATE_MASK {
                    OCCUPIED => {
                        if word & TAG_MASK != tag {
                            // Fingerprint mismatch: provably a different
                            // key. Reject on the state word alone — the
                            // key cell is never loaded.
                            self.stats.tag_rejects.fetch_add(1, relaxed);
                            break; // probe onwards
                        }
                        let matches = if NARROW {
                            // SAFETY: as for `read_key` — the cell is
                            // immutable after the Acquire load of
                            // OCCUPIED; only word 0 is inspected.
                            unsafe { (*self.keys.get_unchecked(slot).0.get())[0] == words[0] }
                        } else {
                            self.read_key(slot) == words
                        };
                        if matches {
                            self.bump(slot, edge_slots);
                            return Ok(());
                        }
                        break; // tag collision, different key: probe on
                    }
                    EMPTY => {
                        match state.compare_exchange(
                            EMPTY,
                            LOCKED | tag,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                // We own the slot: the single multi-word
                                // write of its lifetime — and, since a
                                // recycled table's `reset` clears state
                                // words only, the zeroing of the counter
                                // line its last tenant left behind.
                                // SAFETY: see KeyCell — we hold the lock,
                                // and `slot < capacity` as above. The
                                // counter line rides on the key's argument:
                                // `bump`, `snapshot_with_contention` and
                                // `contention` touch a slot's line only
                                // after an Acquire load of its state word
                                // read OCCUPIED (`distinct` reads state
                                // words alone), and these Relaxed stores
                                // are sequenced before the Release store
                                // that publishes OCCUPIED, so every such
                                // access happens-after the zeroing. Pinned
                                // by `recycled_table_with_stale_counter_
                                // lines_equals_fresh`.
                                unsafe { *self.keys.get_unchecked(slot).0.get() = words };
                                let line = unsafe { self.counters.get_unchecked(slot) };
                                line.count.store(0, relaxed);
                                for edge in &line.edges {
                                    edge.store(0, relaxed);
                                }
                                state.store(OCCUPIED | tag, Ordering::Release);
                                self.bump(slot, edge_slots);
                                self.stats.insertions.fetch_add(1, relaxed);
                                return Ok(());
                            }
                            Err(_) => {
                                // Someone else claimed it between our load
                                // and CAS; re-examine the same slot.
                                self.stats.cas_failures.fetch_add(1, relaxed);
                                continue;
                            }
                        }
                    }
                    _locked => {
                        // Writer is publishing the key; wait for it.
                        self.stats.lock_waits.fetch_add(1, relaxed);
                        spins += 1;
                        if spins.is_multiple_of(SPINS_BEFORE_YIELD) {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                        continue;
                    }
                }
            }
            slot = (slot + 1) % self.capacity;
            self.stats.probe_steps.fetch_add(1, relaxed);
        }
        Err(HashGraphError::CapacityExhausted { capacity: self.capacity })
    }

    /// [`snapshot`](VertexTable::snapshot) and
    /// [`contention`](VertexTable::contention) from **one** walk of the
    /// table — the same values the two calls return on a quiescent
    /// table. The snapshot already loads every occupied slot's duplicity
    /// count, and Σ counts is all `contention` walks the table for, so
    /// Step 2 (which wants both, once per partition) pays for the
    /// counter lines once. The entry vector is sized up front from the
    /// insertions counter.
    pub fn snapshot_with_contention(&self) -> (SubGraph, ContentionStats) {
        let r = Ordering::Relaxed;
        let mut entries = Vec::with_capacity(self.stats.insertions.load(r) as usize);
        let mut occurrences = 0u64;
        for slot in 0..self.capacity {
            if self.states[slot].load(Ordering::Acquire) & STATE_MASK != OCCUPIED {
                continue;
            }
            let kmer = Kmer::from_words(self.read_key(slot), self.k)
                .expect("stored keys are valid k-mers");
            let counters = &self.counters[slot];
            let mut edges = [0u32; 8];
            for (e, out) in edges.iter_mut().enumerate() {
                *out = counters.edges[e].load(r);
            }
            let count = counters.count.load(r);
            occurrences += count as u64;
            entries.push((kmer, VertexData { count, edges }));
        }
        (SubGraph::new(self.k, entries), self.contention_given(occurrences))
    }

    /// The table-wide counters, with `updates` derived from the Σ of slot
    /// duplicity counts the caller walked the table for.
    fn contention_given(&self, occurrences: u64) -> ContentionStats {
        let r = Ordering::Relaxed;
        let insertions = self.stats.insertions.load(r);
        ContentionStats {
            insertions,
            // Every successful record bumps its slot's duplicity count
            // exactly once, so Σ counts = insertions + updates; the
            // subtraction saturates because a record in flight bumps its
            // slot count before the insertions counter.
            updates: occurrences.saturating_sub(insertions),
            cas_failures: self.stats.cas_failures.load(r),
            lock_waits: self.stats.lock_waits.load(r),
            probe_steps: self.stats.probe_steps.load(r),
            tag_rejects: self.stats.tag_rejects.load(r),
        }
    }
}

impl VertexTable for ConcurrentDbgTable {
    fn k(&self) -> usize {
        self.k
    }

    fn record(&self, key: &Kmer, edge_slots: [Option<u8>; 2]) -> Result<()> {
        if key.k() != self.k {
            return Err(HashGraphError::WrongK { expected: self.k, got: key.k() });
        }
        self.probe_record(*key.words(), key.hash64(), edge_slots)
    }

    /// Pulls the home slot's state, key and counter lines toward the
    /// core. Issued by the replay kernel several positions before the
    /// matching [`record_narrow_hashed`](VertexTable::record_narrow_hashed),
    /// so the (random-access) table lines arrive while the rolling scan
    /// is still chewing through the next few bases.
    fn prefetch_narrow(&self, hash: u64) {
        if self.prefetch {
            let slot = ((hash as u128 * self.capacity as u128) >> 64) as usize;
            prefetch(&self.states[slot]);
            prefetch(&self.keys[slot]);
            prefetch(&self.counters[slot]);
        }
    }

    /// The narrow fast path: the caller hashed the single-word key array
    /// directly — [`Kmer::hash64_of_words`] is the same function
    /// `Kmer::hash64` delegates to, so slot, fingerprint tag, probe order,
    /// and every contention counter are bit-identical to
    /// [`record`](Self::record).
    fn record_narrow_hashed(&self, word: u64, hash: u64, edge_slots: [Option<u8>; 2]) -> Result<()> {
        debug_assert!(self.k <= 32, "narrow keys require k <= 32, got {}", self.k);
        let words = [word, 0, 0, 0];
        debug_assert_eq!(
            hash,
            Kmer::hash64_of_words(&words, self.k),
            "caller-supplied hash must match the key"
        );
        self.probe_record_impl::<true>(words, hash, edge_slots)
    }

    fn snapshot(&self) -> SubGraph {
        self.snapshot_with_contention().0
    }

    fn distinct(&self) -> usize {
        (0..self.capacity)
            .filter(|&s| self.states[s].load(Ordering::Relaxed) & STATE_MASK == OCCUPIED)
            .count()
    }

    fn contention(&self) -> ContentionStats {
        let r = Ordering::Relaxed;
        // A slot's count is only ever bumped once its state word reads
        // OCCUPIED, so the 2-byte state array says which 64-byte counter
        // lines are worth loading at all — and, on a recycled table, which
        // are not stale: the Acquire pairs with the claimant's Release.
        let occurrences: u64 = self
            .states
            .iter()
            .zip(self.counters.iter())
            .filter(|(state, _)| state.load(Ordering::Acquire) & STATE_MASK == OCCUPIED)
            .map(|(_, c)| c.count.load(r) as u64)
            .sum();
        self.contention_given(occurrences)
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
                via_word.record_narrow_hashed(word, hash, edges).unwrap();
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
    /// `OCCUPIED` (the `SAFETY` argument in `probe_record_impl`). So:
    /// fill a table densely with partition A — every occupied line holds
    /// counts well above anything B will reach — `reset`, replay a
    /// different partition B through the production pipeline with 1, 2
    /// and 8 threads, vectorized and forced-scalar, and demand a fresh
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
        let _guard = dna::simd::override_guard();
        for scalar in [false, true] {
            dna::simd::set_force_scalar_override(Some(scalar));
            for threads in [1, 2, 8] {
                // 40 × 136 k-mers, nearly all distinct, in 8 192 slots.
                let mut recycled = ConcurrentDbgTable::new(8192, K);
                replay(&recycled, &a, 2);
                assert!(recycled.load_factor() > 0.6, "A must leave most lines dirty");
                assert!(recycled.snapshot().entries().iter().all(|(_, d)| d.count >= 9));
                recycled.reset();
                assert_eq!(recycled.distinct(), 0);
                let fresh = ConcurrentDbgTable::new(8192, K);
                replay(&recycled, &b, threads);
                replay(&fresh, &b, threads);
                let (got, got_stats) = recycled.snapshot_with_contention();
                let (want, want_stats) = fresh.snapshot_with_contention();
                let what = format!("scalar={scalar} threads={threads}");
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
        dna::simd::set_force_scalar_override(None);
    }

    #[test]
    fn minimum_capacity_is_enforced() {
        let t = ConcurrentDbgTable::new(0, 3);
        assert_eq!(t.capacity(), 16);
        assert_eq!(t.load_factor(), 0.0);
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

    #[test]
    fn slot_counters_fill_exactly_one_cache_line() {
        assert_eq!(std::mem::size_of::<SlotCounters>(), 64);
        assert_eq!(std::mem::align_of::<SlotCounters>(), 64);
    }

    #[test]
    fn scalar_override_disables_prefetch() {
        let _guard = dna::simd::override_guard();
        dna::simd::set_force_scalar_override(Some(true));
        let scalar = ConcurrentDbgTable::new(16, 5);
        dna::simd::set_force_scalar_override(Some(false));
        let vector = ConcurrentDbgTable::new(16, 5);
        dna::simd::set_force_scalar_override(None);
        assert!(!scalar.prefetch && vector.prefetch);
        // Either way the table behaves identically.
        for t in [&scalar, &vector] {
            let v = canon("ACGTA");
            t.record(&v, [Some(1), None]).unwrap();
            assert_eq!(t.snapshot().entries()[0].1.edges[1], 1);
        }
    }
}
