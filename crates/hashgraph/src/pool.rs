//! Table memory pooling for the fused pipeline.
//!
//! Step 2 allocates (and zeroes) one [`ConcurrentDbgTable`] per partition
//! — [`slot_bytes`](crate::slot_bytes)`(k)` per slot — and throws it away
//! after the snapshot. Across hundreds of partitions (plus the occasional
//! capacity-retry rebuild) that alloc+zero churn is pure overhead: the
//! table shapes repeat, because partition sizes cluster. [`TablePool`]
//! recycles the backing allocations: tables are checked out by
//! **capacity class**, wiped with [`ConcurrentDbgTable::reset`] (one
//! memset of the 2-byte state words, no allocation — a slot's stale key
//! and counter cell are overwritten by whoever claims it next) and
//! returned to their shelf on drop.
//!
//! A class is the requested capacity rounded up to a multiple of an
//! eighth of its next power of two — four classes an octave, so a table
//! is at most 25 % over its request and nearby sizes still share a
//! shelf.
//!
//! A checkout that misses its shelf first drops one shelved table, the
//! largest class first, then allocates. Tables alive — checked out plus
//! shelved — therefore never exceed the peak number of concurrent
//! checkouts, however many classes a run passes through: a table no
//! device will ask for again is not kept on a shelf. Step 2 hands
//! partitions over largest first, so each device's classes mostly go
//! down and a miss evicts the class it just outgrew.
//!
//! The pool is shared across device driver threads — checkout and return
//! take one short mutex each, trivially amortised against the work of
//! building a partition's subgraph.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::ConcurrentDbgTable;

/// A pool of [`ConcurrentDbgTable`] backing allocations, shelved by
/// capacity class: a checkout reuses a shelved allocation of its class
/// when there is one, and dropping the guard shelves it again.
///
/// # Examples
///
/// ```
/// use hashgraph::{TablePool, VertexTable};
///
/// let pool = TablePool::new(5);
/// {
///     let table = pool.checkout(1000);
///     assert!(table.capacity() >= 1000);
/// } // drop returns the table to the pool …
/// let again = pool.checkout(900); // … and the same class is reused
/// assert_eq!(pool.allocations(), 1);
/// assert_eq!(pool.reuses(), 1);
/// # drop(again);
/// ```
#[derive(Debug)]
pub struct TablePool {
    k: usize,
    /// Idle tables by capacity class. A class whose shelf empties keeps
    /// its (empty) entry, so a warm checkout/return cycle allocates no
    /// map node.
    shelves: Mutex<BTreeMap<usize, Vec<ConcurrentDbgTable>>>,
    allocations: AtomicU64,
    reuses: AtomicU64,
}

impl TablePool {
    /// An empty pool for `k`-mer tables.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`dna::MAX_K`] (checked on first
    /// checkout, by [`ConcurrentDbgTable::new`]).
    pub fn new(k: usize) -> TablePool {
        TablePool {
            k,
            shelves: Mutex::new(BTreeMap::new()),
            allocations: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// The shelf a requested capacity maps to: at least the table's
    /// 16-slot minimum, rounded up to a multiple of an eighth of its next
    /// power of two, so partitions of similar size recycle the same
    /// allocation while no table is more than 25 % over its request.
    ///
    /// # Examples
    ///
    /// ```
    /// use hashgraph::TablePool;
    ///
    /// assert_eq!(TablePool::capacity_class(3), 16);
    /// assert_eq!(TablePool::capacity_class(100), 112); // 7 × 128/8
    /// assert_eq!(TablePool::capacity_class(75_354), 81_920); // 5 × 131 072/8
    /// ```
    pub fn capacity_class(capacity: usize) -> usize {
        let capacity = capacity.max(16);
        let step = capacity.next_power_of_two() / 8;
        capacity.div_ceil(step) * step
    }

    /// Checks out a table with room for at least `capacity` distinct
    /// vertices: a reset shelf table when its class has one; otherwise a
    /// fresh allocation, made after dropping one shelved table of another
    /// class (the largest). The table returns to its shelf when the guard
    /// drops.
    pub fn checkout(&self, capacity: usize) -> PooledTable<'_> {
        let class = Self::capacity_class(capacity);
        let (shelved, evicted) = {
            let mut shelves = self.shelves.lock();
            match shelves.get_mut(&class).and_then(Vec::pop) {
                Some(table) => (Some(table), None),
                None => (None, shelves.values_mut().rev().find_map(Vec::pop)),
            }
        };
        // Freed outside the lock, and before the replacement exists.
        drop(evicted);
        let table = match shelved {
            Some(mut t) => {
                t.reset();
                self.reuses.fetch_add(1, Ordering::Relaxed);
                t
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                ConcurrentDbgTable::new(class, self.k)
            }
        };
        PooledTable { pool: self, table: Some(table) }
    }

    /// Fresh table allocations performed so far.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Checkouts satisfied from a shelf (no allocation).
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Bytes currently shelved (idle tables awaiting reuse): their slot
    /// words and the cells their tenants touched
    /// ([`ConcurrentDbgTable::held_bytes`]).
    pub fn shelved_bytes(&self) -> usize {
        self.shelves
            .lock()
            .values()
            .flat_map(|shelf| shelf.iter())
            .map(ConcurrentDbgTable::held_bytes)
            .sum()
    }

    fn put_back(&self, table: ConcurrentDbgTable) {
        self.shelves.lock().entry(table.capacity()).or_default().push(table);
    }
}

/// A checked-out table; dereferences to [`ConcurrentDbgTable`] and
/// returns the allocation to its pool shelf on drop.
#[derive(Debug)]
pub struct PooledTable<'a> {
    pool: &'a TablePool,
    table: Option<ConcurrentDbgTable>,
}

impl Deref for PooledTable<'_> {
    type Target = ConcurrentDbgTable;

    fn deref(&self) -> &ConcurrentDbgTable {
        self.table.as_ref().expect("table present until drop")
    }
}

impl DerefMut for PooledTable<'_> {
    fn deref_mut(&mut self) -> &mut ConcurrentDbgTable {
        self.table.as_mut().expect("table present until drop")
    }
}

impl Drop for PooledTable<'_> {
    fn drop(&mut self) {
        if let Some(table) = self.table.take() {
            self.pool.put_back(table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, VertexTable};
    use dna::{Kmer, PackedSeq};

    /// A tenant after a bigger one: the reset table snapshots the second
    /// tenant's vertices alone, though the first one's cells are still
    /// there (and held), and is priced at its own.
    #[test]
    fn a_smaller_tenant_snapshots_only_its_own_vertices() {
        let pool = TablePool::new(9);
        let big = PackedSeq::from_ascii(
            &"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATG".repeat(6).into_bytes(),
        );
        let small = PackedSeq::from_ascii(b"TTGACCAGTACGGATCACCGTATGC");
        let record = |table: &mut ConcurrentDbgTable, seq: &PackedSeq| {
            for kmer in seq.kmers(9) {
                (&mut *table).record_wide(&kmer.canonical().0, [Some(3), None], 1).unwrap();
            }
        };
        {
            let mut first = pool.checkout(200);
            record(&mut first, &big);
            assert!(first.distinct() > 40);
        }
        let held = pool.shelved_bytes();
        let mut second = pool.checkout(200);
        assert_eq!(pool.reuses(), 1);
        record(&mut second, &small);
        let fresh = ConcurrentDbgTable::new(second.capacity(), 9);
        for kmer in small.kmers(9) {
            fresh.record(&kmer.canonical().0, [Some(3), None]).unwrap();
        }
        assert_eq!(second.snapshot(), fresh.snapshot());
        assert_eq!(second.contention(), fresh.contention());
        assert_eq!(second.approx_bytes(), fresh.approx_bytes());
        assert_eq!(second.held_bytes(), held, "the first tenant's cells are held");
    }

    #[test]
    fn checkout_allocates_then_reuses() {
        let pool = TablePool::new(7);
        let a = pool.checkout(100);
        assert_eq!(a.capacity(), 112);
        drop(a);
        let b = pool.checkout(97); // same class (112)
        assert_eq!(b.capacity(), 112);
        drop(b);
        assert_eq!(pool.allocations(), 1);
        assert_eq!(pool.reuses(), 1);
        assert!(pool.shelved_bytes() > 0);
    }

    #[test]
    fn distinct_classes_get_distinct_tables() {
        let pool = TablePool::new(7);
        let small = pool.checkout(10);
        let big = pool.checkout(5000);
        assert_eq!(small.capacity(), 16);
        assert_eq!(big.capacity(), 5120);
        drop(small);
        drop(big);
        assert_eq!(pool.allocations(), 2);
        // Each class reuses its own shelf.
        let small2 = pool.checkout(16);
        let big2 = pool.checkout(4097);
        assert_eq!(small2.capacity(), 16);
        assert_eq!(big2.capacity(), 5120);
        assert_eq!(pool.allocations(), 2);
        assert_eq!(pool.reuses(), 2);
    }

    #[test]
    fn classes_stay_within_a_quarter_of_the_request() {
        for capacity in (1..5000).chain([65_537, 75_354, 131_072, 1 << 20, (1 << 20) + 1]) {
            let class = TablePool::capacity_class(capacity);
            assert!(class >= capacity.max(16), "capacity {capacity} → {class}");
            assert!(4 * class <= 5 * capacity.max(16), "capacity {capacity} → {class}");
            assert_eq!(TablePool::capacity_class(class), class, "classes are fixed points");
        }
    }

    /// One device walking down the classes, as Step 2's largest-first
    /// hand-over makes it: every miss evicts the class it outgrew, so the
    /// pool never holds more tables than the one checked out.
    #[test]
    fn a_miss_evicts_the_largest_shelved_class() {
        // Nothing is recorded, so a table is its slot words.
        let pool = TablePool::new(7);
        let slot = crate::table::SLOT_WORD_BYTES;
        for capacity in [8192, 4096, 2048] {
            let table = pool.checkout(capacity);
            assert_eq!(table.capacity(), capacity);
            assert_eq!(pool.shelved_bytes(), 0, "the previous class was evicted");
        }
        assert_eq!(pool.allocations(), 3);
        assert_eq!(pool.shelved_bytes(), 2048 * slot, "only the last class stays");
        // Two tenants at once: the second misses an empty shelf set
        // and allocates; both come back, and a third class evicts the
        // larger of them first.
        let a = pool.checkout(2048);
        let b = pool.checkout(1024);
        drop((a, b));
        assert_eq!(pool.shelved_bytes(), 3072 * slot);
        let c = pool.checkout(512);
        assert_eq!(pool.shelved_bytes(), 1024 * slot, "2048 went first");
        drop(c);
        assert_eq!(pool.allocations(), 5);
    }

    #[test]
    fn reused_table_is_indistinguishable_from_fresh() {
        let pool = TablePool::new(6);
        let seq = PackedSeq::from_ascii(b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAG");
        {
            let dirty = pool.checkout(64);
            for kmer in seq.kmers(6) {
                dirty.record(&kmer.canonical().0, [Some(1), Some(6)]).unwrap();
            }
            assert!(dirty.distinct() > 0);
        }
        let fresh = ConcurrentDbgTable::new(64, 6);
        let reused = pool.checkout(64);
        assert_eq!(pool.reuses(), 1);
        assert_eq!(reused.distinct(), 0);
        let other = PackedSeq::from_ascii(b"TTGACCAGTACGGATCACCGTATGCAATGCCGG");
        for kmer in other.kmers(6) {
            fresh.record(&kmer.canonical().0, [Some(2), None]).unwrap();
            reused.record(&kmer.canonical().0, [Some(2), None]).unwrap();
        }
        let sort = |mut v: Vec<(Kmer, crate::VertexData)>| {
            v.sort_by_key(|x| x.0);
            v
        };
        assert_eq!(
            sort(fresh.snapshot().into_entries()),
            sort(reused.snapshot().into_entries())
        );
    }

    #[test]
    fn concurrent_checkouts_are_independent() {
        let pool = TablePool::new(5);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..20 {
                        let table = pool.checkout(256);
                        let kmer: Kmer = "ACGTA".parse().unwrap();
                        table.record(&kmer.canonical().0, [Some(t as u8), None]).unwrap();
                        assert_eq!(table.distinct(), 1);
                    }
                });
            }
        });
        // Never more live tables than threads.
        assert!(pool.allocations() <= 4, "allocations {}", pool.allocations());
        assert_eq!(pool.allocations() + pool.reuses(), 80);
    }

    /// Eight threads hammer one capacity class. Each checkout writes a
    /// thread-unique k-mer set and then audits the table: any extra entry
    /// would mean the pool handed the same table to two threads at once,
    /// any *stale* entry that [`ConcurrentDbgTable::reset`] missed a state
    /// word, and a count or edge surviving from a previous tenant that a
    /// claimant published its slot without zeroing the counter line.
    #[test]
    fn stress_no_table_is_handed_out_twice_and_reset_is_complete() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        let pool = TablePool::new(9);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = &pool;
                s.spawn(move || {
                    // A thread-unique 9-mer alphabet: the base pattern is
                    // salted with the thread id so overlapping tenancy
                    // becomes visible as foreign entries.
                    let salt = b"ACGT"[t % 4];
                    let seq: Vec<u8> = (0..40)
                        .map(|i| if i % 5 == t % 5 { salt } else { b"ACGT"[(i * 7 + t) % 4] })
                        .collect();
                    let packed = PackedSeq::from_ascii(&seq);
                    let own: Vec<Kmer> =
                        packed.kmers(9).map(|kmer| kmer.canonical().0).collect();
                    for round in 0..ROUNDS {
                        let table = pool.checkout(512);
                        // Reset must leave no slot occupied.
                        assert_eq!(
                            table.distinct(),
                            0,
                            "thread {t} round {round}: stale entries survived reset"
                        );
                        let exts = [Some((t % 4) as u8), Some(((t + round) % 4) as u8)];
                        for kmer in &own {
                            table.record(kmer, exts).unwrap();
                        }
                        std::thread::yield_now();
                        // Audit: exactly our own writes, nothing foreign,
                        // and each vertex counted from zero — every tenant
                        // of this class records every one of its k-mers
                        // with two edge slots, so a line a claimant did
                        // not zero would show a previous tenant's counts.
                        let entries = table.snapshot().into_entries();
                        for (kmer, data) in &entries {
                            let times = own.iter().filter(|o| *o == kmer).count() as u64;
                            let what = format!("thread {t} round {round}: {kmer}");
                            assert_eq!(data.count as u64, times, "{what}");
                            assert_eq!(data.total_edge_multiplicity(), 2 * times);
                        }
                        let mut got: Vec<Kmer> = entries.into_iter().map(|e| e.0).collect();
                        got.sort_unstable();
                        got.dedup();
                        let mut want = own.clone();
                        want.sort_unstable();
                        want.dedup();
                        assert_eq!(
                            got, want,
                            "thread {t} round {round}: table shared with another tenant"
                        );
                    }
                });
            }
        });
        // Every round either allocated or reused; the shelf never hands
        // out more tables than there are concurrent tenants.
        assert_eq!(pool.allocations() + pool.reuses(), (THREADS * ROUNDS) as u64);
        assert!(
            pool.allocations() <= THREADS as u64,
            "more live tables than threads: {}",
            pool.allocations()
        );
    }

    /// A reused table reports per-vertex data counted from zero, not just
    /// an empty index: `reset` clears the state words, and whoever claims
    /// a slot zeroes its counter line. Re-record one k-mer after heavy
    /// prior use and demand the fresh-table vertex payload (counts and
    /// edge sets) byte-for-byte.
    #[test]
    fn reuse_counts_and_edges_from_zero() {
        let pool = TablePool::new(7);
        let seq = PackedSeq::from_ascii(b"ACGTACGTTGCAGGCATCAGGCATTAGACCA");
        {
            let dirty = pool.checkout(128);
            // Saturate counts and set many edge bits.
            for _ in 0..300 {
                for kmer in seq.kmers(7) {
                    dirty.record(&kmer.canonical().0, [Some(0), Some(3)]).unwrap();
                }
            }
        }
        let reused = pool.checkout(128);
        assert_eq!(pool.reuses(), 1);
        let kmer: Kmer = "ACGTACG".parse().unwrap();
        reused.record(&kmer.canonical().0, [None, Some(2)]).unwrap();
        let fresh = ConcurrentDbgTable::new(128, 7);
        fresh.record(&kmer.canonical().0, [None, Some(2)]).unwrap();
        assert_eq!(
            reused.snapshot().into_entries(),
            fresh.snapshot().into_entries(),
            "vertex payload after reuse must match a fresh table exactly"
        );
    }
}
