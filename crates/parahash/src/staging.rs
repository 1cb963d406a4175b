//! Per-worker staging for the Step-1 emit path.
//!
//! The seed Step-1 kernel funnelled every superkmer through a
//! `Vec<Mutex<Vec<u8>>>` of shared partition buffers — one lock
//! acquisition *per superkmer*, straight across every worker thread. The
//! KMC 2/3 shape adopted here instead gives each worker an exclusive
//! [`StagingShard`]: one flat byte buffer plus counts per partition, and
//! the worker's reusable [`msp::MinimizerCursor`]. A CPU core takes one
//! shard for its whole batch; every per-superkmer emit is then a plain
//! append into memory no other thread touches. After the kernel, the
//! output stage drains the shards into the partition store in bulk and
//! returns them to the [`ShardPool`], so all buffer capacity (and the
//! cursor's deque) is reused across batches — zero heap allocation and
//! zero cross-thread locks on the per-read path.
//!
//! The pool's free list is locked twice per *batch* (take/put); only the
//! SimGpu boundary kernel, whose work item is one read and whose SMs run
//! side by side, checks a shard out of a [`ShardRoster`] per read.

use std::cell::UnsafeCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

use msp::MinimizerCursor;
use parking_lot::{Mutex, MutexGuard};

/// One worker's private staging area: per-partition encoded superkmer
/// bytes, per-partition `(superkmers, kmers)` counts, and the worker's
/// streaming minimizer cursor. All allocations are retained across
/// batches (`clear` keeps capacity).
#[derive(Debug)]
pub(crate) struct StagingShard {
    /// Encoded records staged for each partition.
    pub buffers: Vec<Vec<u8>>,
    /// `(superkmers, kmers)` staged per partition.
    pub counts: Vec<(u64, u64)>,
    /// Reusable streaming scan state (monotone deque + p-mer windows).
    pub cursor: MinimizerCursor,
}

impl StagingShard {
    fn new(n_parts: usize, k: usize, p: usize) -> StagingShard {
        StagingShard {
            buffers: vec![Vec::new(); n_parts],
            counts: vec![(0, 0); n_parts],
            cursor: MinimizerCursor::new(k, p).expect("validated by caller"),
        }
    }

    /// Total staged payload bytes across partitions.
    pub fn staged_bytes(&self) -> u64 {
        self.buffers.iter().map(|b| b.len() as u64).sum()
    }

    /// Empties buffers and counts, retaining every allocation.
    pub fn clear(&mut self) {
        for b in &mut self.buffers {
            b.clear();
        }
        for c in &mut self.counts {
            *c = (0, 0);
        }
    }
}

/// Recycles [`StagingShard`]s across batches so their buffer capacity and
/// cursor state amortise to zero allocation at steady state. The free
/// list is locked once per take/put — strictly off the emit path.
#[derive(Debug)]
pub(crate) struct ShardPool {
    n_parts: usize,
    k: usize,
    p: usize,
    free: Mutex<Vec<StagingShard>>,
}

impl ShardPool {
    pub fn new(n_parts: usize, k: usize, p: usize) -> ShardPool {
        ShardPool { n_parts, k, p, free: Mutex::new(Vec::new()) }
    }

    /// Checks out `n` shards, creating fresh ones only when the pool has
    /// fewer than `n` warm shards (first batches only, at steady state
    /// every shard is recycled).
    pub fn take(&self, n: usize) -> Vec<StagingShard> {
        let mut free = self.free.lock();
        let fresh = || StagingShard::new(self.n_parts, self.k, self.p);
        (0..n).map(|_| free.pop().unwrap_or_else(fresh)).collect()
    }

    /// Returns drained shards to the pool, clearing them (capacity kept).
    pub fn put(&self, mut shards: Vec<StagingShard>) {
        shards.iter_mut().for_each(StagingShard::clear);
        self.free.lock().append(&mut shards);
    }
}

/// Roster of shards shared by the worker threads of one kernel launch:
/// a mutex per shard, so exclusivity is the lock's own.
pub(crate) struct ShardRoster(Vec<Mutex<StagingShard>>);

impl ShardRoster {
    /// Wraps `shards` for concurrent checkout. Size the roster to the
    /// kernel's parallelism: checkout spins only if more workers than
    /// shards run simultaneously.
    pub fn new(shards: Vec<StagingShard>) -> ShardRoster {
        ShardRoster(shards.into_iter().map(Mutex::new).collect())
    }

    /// Acquires an idle shard — a `try_lock` scan, so a worker never
    /// sleeps behind another's shard — released when the guard drops.
    pub fn checkout(&self) -> MutexGuard<'_, StagingShard> {
        loop {
            if let Some(shard) = self.0.iter().find_map(Mutex::try_lock) {
                return shard;
            }
            // More concurrent workers than shards — only possible if the
            // roster was under-sized for the device's parallelism.
            std::hint::spin_loop();
        }
    }

    /// Unwraps the shards once the kernel has completed (single owner
    /// again).
    pub fn into_shards(self) -> Vec<StagingShard> {
        self.0.into_iter().map(Mutex::into_inner).collect()
    }
}

/// A pre-sized slot array where each index is written by **exactly one**
/// kernel invocation — the shape of the SimGpu boundaries kernel, whose
/// work items are the reads of a batch and whose outputs are disjoint by
/// construction. Replaces the seed's per-read `Mutex<Vec<_>>` staging
/// with plain unsynchronised writes (the kernel launch itself is the
/// happens-before edge: `Device::execute` joins its workers before
/// returning, so the host reads the slots strictly after every write).
pub(crate) struct WriteOnceSlots<T> {
    slots: Vec<UnsafeCell<T>>,
    #[cfg(debug_assertions)]
    written: Vec<AtomicBool>,
}

// SAFETY: callers uphold the write-once-per-index contract of `with_mut`
// (each index touched by exactly one kernel work item), so no two threads
// alias a slot. Debug builds check the contract with the `written` flags;
// `tests::write_once_double_write_panics_in_debug` holds that check.
unsafe impl<T: Send> Sync for WriteOnceSlots<T> {}

impl<T> WriteOnceSlots<T> {
    /// Wraps a pre-sized slot vector (one element per kernel work item).
    pub fn new(slots: Vec<T>) -> WriteOnceSlots<T> {
        WriteOnceSlots {
            #[cfg(debug_assertions)]
            written: slots.iter().map(|_| AtomicBool::new(false)).collect(),
            slots: slots.into_iter().map(UnsafeCell::new).collect(),
        }
    }

    /// Grants mutable access to slot `index`.
    ///
    /// # Contract
    ///
    /// Each index must be passed by at most one concurrent caller over
    /// the structure's lifetime (kernel item `i` writes slot `i`).
    /// Violations are caught by a panic in debug builds.
    pub fn with_mut(&self, index: usize, f: impl FnOnce(&mut T)) {
        #[cfg(debug_assertions)]
        assert!(
            !self.written[index].swap(true, Ordering::AcqRel),
            "write-once slot {index} written twice"
        );
        // SAFETY: the write-once contract makes this the only reference to
        // the slot; the debug-build assertion above (tested by
        // `write_once_double_write_panics_in_debug`) catches a second one.
        f(unsafe { &mut *self.slots[index].get() });
    }

    /// Reclaims the slot vector after the kernel launch completed.
    pub fn into_inner(self) -> Vec<T> {
        self.slots.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn shard_pool_recycles_capacity() {
        let pool = ShardPool::new(4, 7, 3);
        let mut shards = pool.take(2);
        shards[0].buffers[1].extend_from_slice(b"abcdef");
        shards[0].counts[1] = (1, 3);
        let cap = shards[0].buffers[1].capacity();
        assert_eq!(shards[0].staged_bytes(), 6);
        pool.put(shards);
        let again = pool.take(2);
        // Cleared but capacity retained on the recycled shard.
        assert!(again.iter().all(|s| s.staged_bytes() == 0));
        assert!(again.iter().any(|s| s.buffers[1].capacity() == cap));
        pool.put(again);
    }

    #[test]
    fn worker_shards_are_mutually_exclusive() {
        let pool = ShardPool::new(1, 5, 2);
        let roster = ShardRoster::new(pool.take(4));
        let max_seen = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..500 {
                        let mut g = roster.checkout();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        g.buffers[0].push(i as u8);
                        g.counts[0].0 += 1;
                        live.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                    }
                });
            }
        });
        assert!(max_seen.load(Ordering::SeqCst) <= 4, "more holders than shards");
        let shards = roster.into_shards();
        let total: u64 = shards.iter().map(|s| s.counts[0].0).sum();
        assert_eq!(total, 8 * 500, "no emit lost");
        let bytes: u64 = shards.iter().map(StagingShard::staged_bytes).sum();
        assert_eq!(bytes, 8 * 500);
    }

    #[test]
    fn write_once_slots_collect_parallel_results() {
        let slots = WriteOnceSlots::new(vec![0usize; 64]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let slots = &slots;
                s.spawn(move || {
                    for i in (t..64).step_by(4) {
                        slots.with_mut(i, |v| *v = i * 10);
                    }
                });
            }
        });
        let out = slots.into_inner();
        assert_eq!(out.len(), 64);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 10));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "written twice")]
    fn write_once_double_write_panics_in_debug() {
        let slots = WriteOnceSlots::new(vec![0u8; 1]);
        slots.with_mut(0, |_| {});
        slots.with_mut(0, |_| {});
    }
}
