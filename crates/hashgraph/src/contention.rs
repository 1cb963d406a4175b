/// Concurrency-behaviour counters for a vertex table, used to reproduce
/// the paper's §III-C claim: with state-transfer partial locking, only the
/// *insertion* of each distinct vertex takes the lock, so the locked
/// fraction of operations ≈ distinct/total ≈ 20 % on real read sets — an
/// ~80 % reduction over locking every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContentionStats {
    /// Operations that created a vertex (each acquired the slot lock once).
    pub insertions: u64,
    /// Operations that updated an existing vertex (lock-free key read +
    /// atomic counter adds).
    pub updates: u64,
    /// `empty → locked` CAS attempts that lost a race.
    pub cas_failures: u64,
    /// Times a thread observed a `locked` slot and had to wait.
    pub lock_waits: u64,
    /// Linear-probe advances past a mismatching occupied slot.
    pub probe_steps: u64,
    /// Occupied slots rejected on the 8-bit fingerprint tag alone,
    /// without loading the slot's key words. Each one is a probe
    /// collision resolved from the state word's cache line.
    pub tag_rejects: u64,
}

impl ContentionStats {
    /// Total record operations.
    pub fn operations(&self) -> u64 {
        self.insertions + self.updates
    }

    /// Fraction of operations that acquired the slot lock
    /// (`insertions / operations`); the paper's headline metric.
    /// Returns 0.0 when no operations have happened.
    pub fn locked_fraction(&self) -> f64 {
        let ops = self.operations();
        if ops == 0 {
            0.0
        } else {
            self.insertions as f64 / ops as f64
        }
    }

    /// Lock-contention reduction relative to a scheme that locks every
    /// operation: `1 − locked_fraction`. The paper reports ≈ 0.8 on its
    /// datasets.
    pub fn lock_reduction(&self) -> f64 {
        if self.operations() == 0 {
            0.0
        } else {
            1.0 - self.locked_fraction()
        }
    }

    /// Element-wise sum, for aggregating across partitions.
    pub fn merge(&mut self, other: &ContentionStats) {
        self.insertions += other.insertions;
        self.updates += other.updates;
        self.cas_failures += other.cas_failures;
        self.lock_waits += other.lock_waits;
        self.probe_steps += other.probe_steps;
        self.tag_rejects += other.tag_rejects;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locked_fraction_matches_distinct_ratio() {
        let s = ContentionStats { insertions: 20, updates: 80, ..Default::default() };
        assert_eq!(s.operations(), 100);
        assert!((s.locked_fraction() - 0.2).abs() < 1e-12);
        assert!((s.lock_reduction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ContentionStats::default();
        assert_eq!(s.operations(), 0);
        assert_eq!(s.locked_fraction(), 0.0);
        assert_eq!(s.lock_reduction(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = ContentionStats {
            insertions: 1,
            updates: 2,
            cas_failures: 3,
            lock_waits: 4,
            probe_steps: 5,
            tag_rejects: 6,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            ContentionStats {
                insertions: 2,
                updates: 4,
                cas_failures: 6,
                lock_waits: 8,
                probe_steps: 10,
                tag_rejects: 12,
            }
        );
    }
}
