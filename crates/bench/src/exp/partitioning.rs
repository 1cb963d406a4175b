//! Step-1 parameter studies: Fig 6 (partition distribution vs P),
//! Table II (hash table size vs partition count), and the 2-bit encoding
//! ablation.

use hashgraph::{table_capacity_for, SizingParams};
use msp::DistributionSummary;

use crate::exp::{header, paper_note};
use crate::fmt::{bytes, count, Table};
use crate::workloads;

/// Per-partition superkmer/kmer counts for a read set at `(workloads::K, p, n)`.
fn partition_counts(data: &datagen::ProfileData, p: usize, n: usize) -> (Vec<u64>, Vec<u64>) {
    let parts = workloads::partitions(&data.reads, p, n);
    let indexed = workloads::indexed(&parts, p);
    let sks: Vec<u64> = indexed.iter().map(|s| s.len() as u64).collect();
    let kms: Vec<u64> = indexed.iter().map(|s| s.total_kmers() as u64).collect();
    (sks, kms)
}

/// Fig 6: distribution of superkmers and kmers per partition as the
/// minimizer length P varies (32 partitions, Chr14).
pub fn fig6(scale: f64) {
    header("Fig 6", "superkmer/kmer distribution vs minimizer length P (32 partitions)");
    let data = workloads::chr14(scale);
    let mut t = Table::new(&[
        "P",
        "total superkmers",
        "kmers/part CV",
        "kmers/part max",
        "kmers/part min",
        "sk/part CV",
    ]);
    for p in [5, 8, 11, 14, 17] {
        let (sks, kms) = partition_counts(&data, p, 32);
        let sk_sum: u64 = sks.iter().sum();
        let km = DistributionSummary::from_counts(&kms);
        let sk = DistributionSummary::from_counts(&sks);
        t.row_owned(vec![
            p.to_string(),
            count(sk_sum),
            format!("{:.3}", km.coefficient_of_variation()),
            count(km.max),
            count(km.min),
            format!("{:.3}", sk.coefficient_of_variation()),
        ]);
    }
    print!("{}", t.render());
    paper_note(
        "As P grows from 5 to 17, the variance of partition sizes drops sharply (more \
         balanced partitions) while the total number of superkmers rises (shorter, more \
         fragmented superkmers). The paper picks P >= 11 for balance.",
    );
}

/// Table II: per-partition kmer count and maximum hash table size as the
/// number of superkmer partitions varies (Chr14, P = 11).
pub fn table2(scale: f64) {
    header("Table II", "hash table size vs number of partitions (Chr14, P=11)");
    let data = workloads::chr14(scale);
    let mut t = Table::new(&["# partitions", "kmers/partition (mean)", "max table size"]);
    for n in [16usize, 32, 64, 128, 256, 512, 960] {
        let (_, kms) = partition_counts(&data, workloads::P, n);
        let summary = DistributionSummary::from_counts(&kms);
        // Table bytes: capacity from the Property-1 rule x per-slot cost
        // (1 state + 32 key + 4 count + 32 edges).
        let capacity = table_capacity_for(summary.max, SizingParams::default());
        t.row_owned(vec![
            n.to_string(),
            count(summary.mean as u64),
            bytes(capacity as u64 * 69),
        ]);
    }
    print!("{}", t.render());
    paper_note(
        "Paper (Table II): 16 partitions -> 170 M kmers, 5400 MB max table; 960 partitions \
         -> 3 M kmers, 90 MB. Doubling partitions roughly halves the per-partition table; \
         sub-1GB tables keep hashing fast (Fig 7). The same inverse scaling should appear \
         here at mini scale.",
    );
}

/// Encoding ablation: 2-bit encoded partition bytes vs plain-text bytes.
pub fn encoding(scale: f64) {
    header("encoding", "2-bit encoded superkmer output vs plain text (§III-B)");
    let data = workloads::chr14(scale);
    let parts = workloads::partitions(&data.reads, workloads::P, 64);
    let encoded: u64 = parts.iter().map(|part| part.len() as u64).sum();
    // Text form: one byte per base, two extension chars, newline.
    let text: u64 = workloads::indexed(&parts, workloads::P)
        .iter()
        .flat_map(|slices| slices.iter())
        .map(|record| record.core_len() as u64 + 3)
        .sum();
    let mut t = Table::new(&["representation", "partition bytes", "ratio vs text"]);
    t.row_owned(vec!["plain text".into(), bytes(text), "1.00".into()]);
    t.row_owned(vec![
        "2-bit encoded".into(),
        bytes(encoded),
        format!("{:.2}", encoded as f64 / text as f64),
    ]);
    print!("{}", t.render());
    paper_note(
        "The encoded MSP output is about 1/4 the size of the non-encoded representation, \
         cutting disk I/O and host-device transfer volume proportionally.",
    );
}
