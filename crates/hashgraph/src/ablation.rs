use parking_lot::Mutex;

use dna::Kmer;

use crate::{ContentionStats, HashGraphError, Result, SubGraph, VertexData, VertexTable};

/// The full-locking ablation baseline: the same open-addressing layout as
/// [`crate::ConcurrentDbgTable`], but *every* access — key compare, count
/// bump, edge bump — takes the slot's mutex, which is what a
/// straightforward "lock the multi-word entry whenever you touch it"
/// implementation does.
///
/// The paper's state-transfer design exists to beat exactly this: it locks
/// only the one insertion per distinct vertex (~20 % of operations on real
/// read sets) instead of 100 %. The `lockstats` experiment runs both
/// tables on identical input to quantify the difference.
pub struct MutexDbgTable {
    k: usize,
    slots: Box<[Mutex<Slot>]>,
    lock_acquisitions: std::sync::atomic::AtomicU64,
    operations: std::sync::atomic::AtomicU64,
}

#[derive(Default)]
struct Slot {
    used: bool,
    key: [u64; 4],
    data: VertexData,
}

impl std::fmt::Debug for MutexDbgTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutexDbgTable")
            .field("k", &self.k)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl MutexDbgTable {
    /// Allocates a table with room for `capacity` distinct `k`-mers
    /// (minimum 16, like the production table).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`dna::MAX_K`].
    pub fn new(capacity: usize, k: usize) -> MutexDbgTable {
        assert!((1..=dna::MAX_K).contains(&k), "invalid k {k}");
        let capacity = capacity.max(16);
        MutexDbgTable {
            k,
            slots: (0..capacity).map(|_| Mutex::new(Slot::default())).collect(),
            lock_acquisitions: Default::default(),
            operations: Default::default(),
        }
    }

    /// The slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl VertexTable for MutexDbgTable {
    fn k(&self) -> usize {
        self.k
    }

    fn record(&self, key: &Kmer, edge_slots: [Option<u8>; 2]) -> Result<()> {
        if key.k() != self.k {
            return Err(HashGraphError::WrongK { expected: self.k, got: key.k() });
        }
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        self.operations.fetch_add(1, relaxed);
        let words = *key.words();
        let capacity = self.slots.len();
        let mut slot = (key.hash64() % capacity as u64) as usize;
        for _ in 0..capacity {
            // Full locking: even the key comparison holds the mutex.
            self.lock_acquisitions.fetch_add(1, relaxed);
            let mut guard = self.slots[slot].lock();
            if !guard.used {
                guard.used = true;
                guard.key = words;
            }
            if guard.key == words {
                guard.data.count += 1;
                for e in edge_slots.into_iter().flatten() {
                    guard.data.edges[e as usize] += 1;
                }
                return Ok(());
            }
            drop(guard);
            slot = (slot + 1) % capacity;
        }
        Err(HashGraphError::CapacityExhausted { capacity })
    }

    fn snapshot(&self) -> SubGraph {
        let mut entries = Vec::new();
        for slot in self.slots.iter() {
            let guard = slot.lock();
            if guard.used {
                let kmer = Kmer::from_words(guard.key, self.k).expect("stored keys are valid");
                entries.push((kmer, guard.data));
            }
        }
        SubGraph::new(self.k, entries)
    }

    fn distinct(&self) -> usize {
        self.slots.iter().filter(|s| s.lock().used).count()
    }

    fn contention(&self) -> ContentionStats {
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        let locks = self.lock_acquisitions.load(relaxed);
        let ops = self.operations.load(relaxed);
        let distinct = self.distinct() as u64;
        // Every operation locks at least once; report the honest ledger:
        // insertions = distinct vertices, everything else was an update
        // that *still* locked (the lock_waits field carries the excess).
        ContentionStats {
            insertions: distinct.min(ops),
            updates: ops.saturating_sub(distinct),
            cas_failures: 0,
            lock_waits: locks,
            probe_steps: locks.saturating_sub(ops),
            // The mutex table has no fingerprint fast path: every probe
            // pays the full key comparison under the lock.
            tag_rejects: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_subgraph_with, ConcurrentDbgTable};
    use dna::PackedSeq;
    use msp::PartitionSlices;

    /// Two reads as one partition's record bytes.
    fn test_partition() -> Vec<u8> {
        let reads: Vec<PackedSeq> = [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT",
            "TGATGGATGATGGATGGTAGCATACGTTGCATGGACCAG",
        ]
        .iter()
        .map(|s| PackedSeq::from_ascii(s.as_bytes()))
        .collect();
        msp::partition_in_memory(&reads, 7, 4, 1).unwrap().remove(0)
    }

    #[test]
    fn mutex_table_matches_concurrent_table() {
        let part = test_partition();
        let slices = PartitionSlices::index(&part, 7, 4).unwrap();
        let mutex = MutexDbgTable::new(1024, 7);
        let lockfree = ConcurrentDbgTable::new(1024, 7);
        build_subgraph_with(&mutex, &slices, 4).unwrap();
        build_subgraph_with(&lockfree, &slices, 4).unwrap();
        let mut a = mutex.snapshot().into_entries();
        let mut b = lockfree.snapshot().into_entries();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        assert_eq!(a, b);
    }

    #[test]
    fn every_operation_locks() {
        let part = test_partition();
        let slices = PartitionSlices::index(&part, 7, 4).unwrap();
        let t = MutexDbgTable::new(1024, 7);
        build_subgraph_with(&t, &slices, 1).unwrap();
        let c = t.contention();
        let total_kmers = slices.total_kmers() as u64;
        assert_eq!(c.operations(), total_kmers);
        // Lock count ≥ one per operation (more with probing).
        assert!(c.lock_waits >= total_kmers);
    }

    #[test]
    fn capacity_exhaustion_reported() {
        let t = MutexDbgTable::new(16, 7);
        let part = test_partition();
        assert!(
            matches!(
                build_subgraph_with(&t, &PartitionSlices::index(&part, 7, 4).unwrap(), 1),
                Err(HashGraphError::CapacityExhausted { .. })
            ),
            "16 slots must overflow on this input"
        );
    }

    #[test]
    fn wrong_k_rejected() {
        let t = MutexDbgTable::new(16, 5);
        let key: Kmer = "ACG".parse().unwrap();
        assert!(matches!(
            t.record(&key, [None, None]),
            Err(HashGraphError::WrongK { .. })
        ));
    }
}
