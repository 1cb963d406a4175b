//! Concurrency stress and model-equivalence tests for the state-transfer
//! table — the invariants that make the paper's single-shared-table
//! design safe.

use std::collections::HashMap;
use std::sync::Arc;

use dna::{Base, Kmer, PackedSeq};
use hashgraph::{ConcurrentDbgTable, MutexDbgTable, VertexTable};
use proptest::prelude::*;

fn base() -> impl Strategy<Value = Base> {
    prop_oneof![Just(Base::A), Just(Base::C), Just(Base::G), Just(Base::T)]
}

/// A random workload: keys with per-key operation counts and edge slots.
fn workload() -> impl Strategy<Value = Vec<(Kmer, u8)>> {
    prop::collection::vec(
        (prop::collection::vec(base(), 7..8), 0u8..8),
        1..200,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(bases, slot)| {
                (Kmer::from_bases(7, bases).unwrap().canonical().0, slot)
            })
            .collect()
    })
}

fn model(ops: &[(Kmer, u8)]) -> HashMap<Kmer, (u32, [u32; 8])> {
    let mut m: HashMap<Kmer, (u32, [u32; 8])> = HashMap::new();
    for (k, slot) in ops {
        let e = m.entry(*k).or_insert((0, [0; 8]));
        e.0 += 1;
        e.1[*slot as usize] += 1;
    }
    m
}

fn check_table<T: VertexTable>(table: &T, ops: &[(Kmer, u8)]) {
    let expected = model(ops);
    let snap = table.snapshot();
    assert_eq!(snap.len(), expected.len());
    for (k, data) in snap.entries() {
        let (count, edges) = expected[k];
        assert_eq!(data.count, count, "count mismatch for {k}");
        assert_eq!(data.edges, edges, "edges mismatch for {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn single_threaded_table_equals_hashmap_model(ops in workload()) {
        let table = ConcurrentDbgTable::new(ops.len() * 2, 7);
        for (k, slot) in &ops {
            table.record(k, [Some(*slot), None]).unwrap();
        }
        check_table(&table, &ops);
    }

    #[test]
    fn concurrent_table_equals_hashmap_model(ops in workload(), threads in 2usize..6) {
        let table = Arc::new(ConcurrentDbgTable::new(ops.len() * 2, 7));
        let chunk = ops.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for chunk in ops.chunks(chunk) {
                let table = Arc::clone(&table);
                s.spawn(move || {
                    for (k, slot) in chunk {
                        table.record(k, [Some(*slot), None]).unwrap();
                    }
                });
            }
        });
        check_table(table.as_ref(), &ops);
    }

    /// At ≥ 2/3 load factor the probe chains are long and most collisions
    /// are resolved by the 8-bit fingerprint alone. Whatever the tag
    /// traffic, the table must still match the HashMap model exactly —
    /// tags may only *reject* slots, never skip a true match.
    #[test]
    fn crowded_table_with_tag_pressure_equals_model(ops in workload()) {
        let capacity = (model(&ops).len() * 3).div_ceil(2).max(16);
        let table = ConcurrentDbgTable::new(capacity, 7);
        for (k, slot) in &ops {
            table.record(k, [Some(*slot), None]).unwrap();
        }
        check_table(&table, &ops);
        let c = table.contention();
        prop_assert_eq!(c.operations(), ops.len() as u64);
        // A tag reject is one kind of probe collision; it can never
        // outnumber the probe steps that contain it.
        prop_assert!(c.tag_rejects <= c.probe_steps);
    }

    #[test]
    fn mutex_and_lockfree_tables_agree(ops in workload()) {
        let a = ConcurrentDbgTable::new(ops.len() * 2, 7);
        let b = MutexDbgTable::new(ops.len() * 2, 7);
        for (k, slot) in &ops {
            a.record(k, [Some(*slot), None]).unwrap();
            b.record(k, [Some(*slot), None]).unwrap();
        }
        let mut sa = a.snapshot().into_entries();
        let mut sb = b.snapshot().into_entries();
        sa.sort_by_key(|x| x.0);
        sb.sort_by_key(|x| x.0);
        prop_assert_eq!(sa, sb);
    }

    #[test]
    fn graph_store_roundtrips_random_graphs(reads in prop::collection::vec(prop::collection::vec(base(), 0..80), 0..8)) {
        let seqs: Vec<PackedSeq> = reads.into_iter().map(|v| v.into_iter().collect()).collect();
        let mut g = hashgraph::DeBruijnGraph::new(9);
        for records in msp::partition_in_memory(&seqs, 9, 5, 2).unwrap() {
            let slices = msp::PartitionSlices::index(&records, 9, 5).unwrap();
            let table = ConcurrentDbgTable::new(2 * slices.total_kmers() + 16, 9);
            hashgraph::build_subgraph_with(&table, &slices, 2).unwrap();
            g.absorb(table.snapshot());
        }
        let mut buf = Vec::new();
        hashgraph::write_graph(&g, &mut buf).unwrap();
        prop_assert_eq!(hashgraph::read_graph(&buf[..]).unwrap(), g);
    }
}

/// Deterministic high-contention hammer: all threads fight over very few
/// slots to maximise CAS races and lock waits.
#[test]
fn hammer_few_keys_many_threads() {
    let keys: Vec<Kmer> = ["AACCGGT", "ACGTACG", "TTGGCCA", "GATTACA"]
        .iter()
        .map(|s| s.parse::<Kmer>().unwrap().canonical().0)
        .collect();
    let table = Arc::new(ConcurrentDbgTable::new(64, 7));
    let per_thread = 20_000usize;
    let threads = 8;
    std::thread::scope(|s| {
        for t in 0..threads {
            let table = Arc::clone(&table);
            let keys = keys.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    let k = &keys[(i + t) % keys.len()];
                    table.record(k, [Some((i % 8) as u8), None]).unwrap();
                }
            });
        }
    });
    let snap = table.snapshot();
    let distinct: std::collections::HashSet<_> = keys.iter().collect();
    assert_eq!(snap.len(), distinct.len());
    let total: u64 = snap.entries().iter().map(|(_, d)| d.count as u64).sum();
    assert_eq!(total, (threads * per_thread) as u64, "no update may be lost");
    let c = table.contention();
    assert_eq!(c.operations(), (threads * per_thread) as u64);
    assert_eq!(c.insertions, distinct.len() as u64);
}

/// 8-thread stress at ~85 % load factor: thousands of distinct 10-mers,
/// every key recorded by every thread, so each slot sees one insertion
/// race followed by 7 lock-free updates — while long probe chains keep
/// the fingerprint path hot. The final table must match the serial
/// full-locking ablation exactly.
#[test]
fn stress_tagged_probing_under_concurrency() {
    // Deterministic pseudo-random distinct keys: enumerate 10-mers from a
    // weyl sequence and canonicalise; dedup to get the exact key set.
    let k = 10;
    let mut keys = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    while keys.len() < 4000 {
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(0x94D0_49BB_1331_11EB);
        let mut bases = Vec::with_capacity(k);
        for i in 0..k {
            bases.push(match (x >> (2 * i)) & 3 {
                0 => Base::A,
                1 => Base::C,
                2 => Base::G,
                _ => Base::T,
            });
        }
        let canon = Kmer::from_bases(k, bases).unwrap().canonical().0;
        if seen.insert(canon) {
            keys.push(canon);
        }
    }
    let capacity = keys.len() * 100 / 85; // ~85 % full
    let table = Arc::new(ConcurrentDbgTable::new(capacity, k));
    let threads = 8;
    std::thread::scope(|s| {
        for t in 0..threads {
            let table = Arc::clone(&table);
            let keys = &keys;
            s.spawn(move || {
                // Each thread walks the key set from a different offset so
                // insertion races are spread across the whole table.
                for i in 0..keys.len() {
                    let key = &keys[(i + t * keys.len() / threads) % keys.len()];
                    table.record(key, [Some((i % 8) as u8), None]).unwrap();
                }
            });
        }
    });
    // Serial full-locking reference over the identical multiset of ops.
    let reference = MutexDbgTable::new(capacity, k);
    for t in 0..threads {
        for i in 0..keys.len() {
            let key = &keys[(i + t * keys.len() / threads) % keys.len()];
            reference.record(key, [Some((i % 8) as u8), None]).unwrap();
        }
    }
    let mut got = table.snapshot().into_entries();
    let mut want = reference.snapshot().into_entries();
    got.sort_by_key(|x| x.0);
    want.sort_by_key(|x| x.0);
    assert_eq!(got, want);
    let c = table.contention();
    assert_eq!(c.operations(), (threads * keys.len()) as u64);
    assert_eq!(c.insertions, keys.len() as u64, "exactly one insertion per distinct key");
    assert!(
        c.tag_rejects > 0,
        "an 85%-full table must resolve some collisions on the fingerprint"
    );
    assert!(c.tag_rejects <= c.probe_steps);
    // The paper's headline: locked fraction ≈ distinct/total = 1/8 here.
    assert!((c.locked_fraction() - 1.0 / threads as f64).abs() < 1e-9);
}
