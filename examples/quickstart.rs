//! Quickstart: build a De Bruijn graph from a handful of reads.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use parahash_repro::dna::SeqRead;
use parahash_repro::parahash::{ParaHash, ParaHashConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A few short reads (in practice these come from a FASTQ file; see
    // `ParaHash::run_fastq_streaming`). Note the third read repeats the first —
    // its k-mers will merge into the same vertices with count 2.
    let reads = vec![
        SeqRead::from_ascii("read/1", b"TGATGGATGAACCAGTTTGAGGCATTAGCC"),
        SeqRead::from_ascii("read/2", b"CCAGTTTGAGGCATTAGCCAGTACGGATCA"),
        SeqRead::from_ascii("read/3", b"TGATGGATGAACCAGTTTGAGGCATTAGCC"),
    ];

    let config = ParaHashConfig::builder()
        .k(11) // vertex length
        .p(5) // minimizer length
        .partitions(8) // superkmer partitions (subgraphs)
        .work_dir(std::env::temp_dir().join("parahash-quickstart"))
        .build()?;
    let outcome = ParaHash::new(config)?.run(&reads)?;

    let graph = &outcome.graph;
    println!("distinct vertices : {}", graph.distinct_vertices());
    println!("kmer occurrences  : {}", graph.total_kmer_occurrences());
    println!("duplicates merged : {}", graph.duplicate_vertices());
    println!("edge multiplicity : {}", graph.total_edge_multiplicity());
    println!("{}", outcome.report.summary());

    // Follow an edge: the most frequent vertex and its successors.
    let (kmer, data) = outcome
        .graph
        .iter()
        .max_by_key(|(_, d)| d.count)
        .expect("graph is non-empty");
    println!("\nbusiest vertex {kmer} (count {}):", data.count);
    for (succ, _, mult) in graph.successors(&kmer, parahash_repro::dna::Orientation::Forward) {
        println!("  -> {succ} (weight {mult})");
    }
    Ok(())
}
