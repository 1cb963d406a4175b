use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use dna::{Kmer, SeqRead};

use crate::{BaselineError, BaselineReport, DbgBuilder, Result};

/// A Jellyfish-style lock-free k-mer *counter*: open addressing with
/// compare-and-swap directly on a single machine-word key.
///
/// This is the related-work design the paper contrasts itself against
/// (§I, §II): because the key must fit one atomic word, `k ≤ 31`, and
/// because a slot holds only `<key, count>`, **edges cannot be recorded**
/// — the output is a k-mer multiset, not a De Bruijn graph. ParaHash's
/// state-transfer table exists precisely to lift both limits (multi-word
/// keys, per-edge multiplicities) while keeping updates lock-free.
///
/// Included as a baseline/ablation: the `counting` experiment compares
/// its raw counting throughput against the full graph table.
///
/// # Examples
///
/// ```
/// use baselines::LockFreeCounter;
/// use dna::SeqRead;
///
/// # fn main() -> baselines::Result<()> {
/// let reads = vec![SeqRead::from_ascii("r", b"ACGTACGTAC")];
/// let counter = LockFreeCounter::new(9, 64)?;
/// counter.count_reads(&reads, 2);
/// // 2 k-mer occurrences, at most 2 distinct canonical 9-mers.
/// assert_eq!(counter.total(), 2);
/// assert!(counter.distinct() <= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LockFreeCounter {
    k: usize,
    /// Keys, one atomic word each. `EMPTY_KEY` marks a free slot.
    keys: Box<[AtomicU64]>,
    counts: Box<[AtomicU32]>,
}

/// Sentinel for an unoccupied slot. `u64::MAX` cannot collide with a real
/// key: a k-mer of `k ≤ 31` occupies at most 62 bits, and we reserve one
/// extra low bit pattern by storing `code + 1`.
const EMPTY_KEY: u64 = 0;

impl LockFreeCounter {
    /// Allocates a counter for canonical `k`-mers (`k ≤ 31`) with
    /// `capacity` slots (minimum 16).
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidParams`] for `k` of 0 or above 31 —
    /// the single-machine-word limit this design cannot exceed.
    pub fn new(k: usize, capacity: usize) -> Result<LockFreeCounter> {
        if k == 0 || k > 31 {
            return Err(BaselineError::InvalidParams(format!(
                "lock-free CAS counting needs the key in one machine word: k={k} > 31"
            )));
        }
        let capacity = capacity.max(16);
        Ok(LockFreeCounter {
            k,
            keys: (0..capacity).map(|_| AtomicU64::new(EMPTY_KEY)).collect(),
            counts: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
        })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The slot capacity.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Counts one canonical k-mer occurrence. Lock-free: a single CAS
    /// claims an empty slot, and counting is an atomic add.
    ///
    /// Returns `false` if the table is full (the caller should have sized
    /// it with the Property-1 estimate).
    ///
    /// # Panics
    ///
    /// Panics if the k-mer length differs from the counter's `k`.
    pub fn count(&self, canonical: &Kmer) -> bool {
        assert_eq!(canonical.k(), self.k, "k mismatch");
        // +1 keeps a real key distinct from EMPTY_KEY.
        let key = canonical.to_u64() + 1;
        let capacity = self.capacity();
        let mut slot = (canonical.hash64() % capacity as u64) as usize;
        for _ in 0..capacity {
            let current = self.keys[slot].load(Ordering::Acquire);
            if current == key {
                self.counts[slot].fetch_add(1, Ordering::Relaxed);
                return true;
            }
            if current == EMPTY_KEY {
                match self.keys[slot].compare_exchange(
                    EMPTY_KEY,
                    key,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.counts[slot].fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(raced) if raced == key => {
                        self.counts[slot].fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(_) => continue, // someone else took it: re-examine
                }
            }
            slot = (slot + 1) % capacity;
        }
        false
    }

    /// Counts every canonical k-mer of every read, with `threads` workers.
    pub fn count_reads(&self, reads: &[SeqRead], threads: usize) {
        let threads = threads.max(1);
        let chunk = reads.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for chunk in reads.chunks(chunk) {
                s.spawn(move || {
                    for read in chunk {
                        for kmer in read.seq().kmers(self.k) {
                            let ok = self.count(&kmer.canonical().0);
                            assert!(ok, "counter capacity exhausted");
                        }
                    }
                });
            }
        });
    }

    /// Number of distinct k-mers counted.
    pub fn distinct(&self) -> usize {
        self.keys.iter().filter(|k| k.load(Ordering::Relaxed) != EMPTY_KEY).count()
    }

    /// Total occurrences counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed) as u64).sum()
    }

    /// The `(canonical k-mer, count)` entries, unordered.
    pub fn entries(&self) -> Vec<(Kmer, u32)> {
        let mut out = Vec::new();
        for (slot, key) in self.keys.iter().enumerate() {
            let key = key.load(Ordering::Acquire);
            if key == EMPTY_KEY {
                continue;
            }
            let kmer = kmer_from_u64(key - 1, self.k);
            out.push((kmer, self.counts[slot].load(Ordering::Relaxed)));
        }
        out
    }
}

/// Inverse of [`Kmer::to_u64`].
fn kmer_from_u64(value: u64, k: usize) -> Kmer {
    let bases = (0..k).rev().map(|i| dna::Base::from_code((value >> (2 * i)) as u8));
    Kmer::from_bases(k, bases).expect("k validated at construction")
}

/// [`DbgBuilder`]-shaped wrapper so the counter can sit in comparison
/// tables — but note it cannot actually produce a graph: `build` returns
/// [`BaselineError::InvalidParams`] explaining the limitation, which *is*
/// the paper's point about this family of tools.
#[derive(Debug, Clone)]
pub struct CounterBuilder {
    k: usize,
    threads: usize,
}

impl CounterBuilder {
    /// A counting-only builder.
    pub fn new(k: usize, threads: usize) -> CounterBuilder {
        CounterBuilder { k, threads: threads.max(1) }
    }

    /// Counts the reads, returning `(distinct, total, report)`.
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::InvalidParams`] for `k > 31`.
    pub fn count(&self, reads: &[SeqRead]) -> Result<(usize, u64, BaselineReport)> {
        let started = Instant::now();
        let n_kmers: usize = reads.iter().map(|r| (r.len() + 1).saturating_sub(self.k)).sum();
        let counter = LockFreeCounter::new(self.k, n_kmers + n_kmers / 4 + 16)?;
        counter.count_reads(reads, self.threads);
        let report = BaselineReport {
            name: "kmer-counter".into(),
            elapsed: started.elapsed(),
            peak_bytes: (counter.capacity() * 12) as u64,
            phases: vec![("count".into(), started.elapsed())],
        };
        Ok((counter.distinct(), counter.total(), report))
    }
}

impl DbgBuilder for CounterBuilder {
    fn name(&self) -> &str {
        "kmer-counter"
    }

    fn build(&self, _reads: &[SeqRead]) -> Result<(hashgraph::DeBruijnGraph, BaselineReport)> {
        Err(BaselineError::InvalidParams(
            "a machine-word CAS counter stores <kmer, count> only; it cannot record the \
             adjacency lists a De Bruijn graph needs (the limitation ParaHash's multi-word \
             state-transfer table removes)"
                .into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn reads() -> Vec<SeqRead> {
        vec![
            SeqRead::from_ascii("a", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
            SeqRead::from_ascii("b", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
            SeqRead::from_ascii("c", b"TGATGGATGATGGATGGTAGCATACGTTGCAT"),
        ]
    }

    fn expected_counts(reads: &[SeqRead], k: usize) -> HashMap<Kmer, u32> {
        let mut map = HashMap::new();
        for r in reads {
            for kmer in r.seq().kmers(k) {
                *map.entry(kmer.canonical().0).or_insert(0) += 1;
            }
        }
        map
    }

    #[test]
    fn counts_match_reference_hashmap() {
        let rs = reads();
        let expected = expected_counts(&rs, 15);
        let counter = LockFreeCounter::new(15, 256).unwrap();
        counter.count_reads(&rs, 4);
        assert_eq!(counter.distinct(), expected.len());
        assert_eq!(counter.total(), expected.values().map(|&c| c as u64).sum::<u64>());
        for (kmer, count) in counter.entries() {
            assert_eq!(expected[&kmer], count, "count mismatch for {kmer}");
        }
    }

    #[test]
    fn kmer_u64_roundtrip() {
        for s in ["A", "ACGT", "TTTTGGGGCCCCAAA", "GATTACAGATTACAGATTACAGATTACAGAT"] {
            let k: Kmer = s.parse().unwrap();
            assert_eq!(kmer_from_u64(k.to_u64(), k.k()), k);
        }
    }

    #[test]
    fn machine_word_limit_enforced() {
        assert!(LockFreeCounter::new(31, 16).is_ok());
        assert!(matches!(LockFreeCounter::new(32, 16), Err(BaselineError::InvalidParams(_))));
        assert!(LockFreeCounter::new(0, 16).is_err());
    }

    #[test]
    fn full_table_returns_false() {
        let counter = LockFreeCounter::new(9, 1).unwrap(); // min 16 slots
        let seq = dna::PackedSeq::from_ascii(
            b"ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGTACGGATCACCGTATGCAATG",
        );
        let mut full = false;
        for kmer in seq.kmers(9) {
            if !counter.count(&kmer.canonical().0) {
                full = true;
                break;
            }
        }
        assert!(full, "17+ distinct 9-mers must overflow 16 slots");
    }

    #[test]
    fn concurrent_counting_loses_nothing() {
        let rs: Vec<SeqRead> = (0..20).map(|i| SeqRead::from_ascii(format!("r{i}"), b"ACGTTGCATGGACCAGTTACGGATCAGG")).collect();
        let expected = expected_counts(&rs, 11);
        let counter = LockFreeCounter::new(11, 4096).unwrap();
        counter.count_reads(&rs, 8);
        assert_eq!(counter.total(), 20 * (28 - 11 + 1));
        assert_eq!(counter.distinct(), expected.len());
    }

    #[test]
    fn builder_refuses_to_build_a_graph() {
        let err = CounterBuilder::new(15, 2).build(&reads()).unwrap_err();
        assert!(err.to_string().contains("adjacency"), "{err}");
        let (distinct, total, report) = CounterBuilder::new(15, 2).count(&reads()).unwrap();
        assert!(distinct > 0);
        assert!(total >= distinct as u64);
        assert_eq!(report.name, "kmer-counter");
    }
}
