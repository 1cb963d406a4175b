//! Seeded corpora, their FASTQ files, and the sort-merge oracle every
//! sample's graph is checked against.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use baselines::{DbgBuilder, SortMergeBuilder};
use datagen::DatasetProfile;
use dna::{FastqReader, FastqWriter, SeqRead};
use hashgraph::DeBruijnGraph;

use crate::json::{obj, Value};
use crate::spec::{CorpusKind, K, P, PARTITIONS};

/// Genome size of the `Chr14` corpus at scale 1: `human_chr14_mini` x 2.
/// Chosen so one build takes 0.6-1.6 s on two cores and a run fits seven
/// or more samples (see README.md, "Sizes").
const CHR14_GENOME: usize = 176_000;
/// Genome size of the `Distinct` corpus at scale 1.
const DISTINCT_GENOME: usize = 500_000;

/// FNV-1a over a byte stream: the digest of FASTQ files and graphs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Digest of a graph as a multiset of `(k-mer, count, edges)` vertices:
/// each vertex is mixed to 64 bits and the mixes are summed and xor-ed,
/// so the digest needs no sort and is independent of table order. (The
/// digest of the `write_graph` bytes, which sorts, took 0.3 s on a 0.7 s
/// build and halved the samples a run fits; it stays as the per-layer
/// number `hashgraph.store.write_graph_s`.)
pub fn graph_digest(graph: &DeBruijnGraph) -> String {
    // The SplitMix64 finaliser: every input bit reaches every output bit.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let (mut sum, mut xor) = (0u64, 0u64);
    for (kmer, data) in graph.iter() {
        let mut h = mix(u64::from(data.count));
        for word in kmer.words() {
            h = mix(h ^ word);
        }
        for pair in data.edges.chunks(2) {
            h = mix(h ^ (u64::from(pair[0]) << 32 | u64::from(pair[1])));
        }
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left(32);
    }
    format!(
        "k{}-n{}-{sum:016x}{xor:016x}",
        graph.k(),
        graph.distinct_vertices()
    )
}

/// The dataset recipe of a corpus: `seed` picks the genome and the
/// reads, `scale` multiplies the genome size (`--quick` passes 0.25).
pub fn profile(kind: CorpusKind, seed: u64, scale: f64) -> DatasetProfile {
    let (base, genome) = match kind {
        CorpusKind::Chr14 => (DatasetProfile::human_chr14_mini(), CHR14_GENOME),
        CorpusKind::Distinct => (
            DatasetProfile {
                name: "distinct",
                genome_size: 0,
                read_len: 101,
                coverage: 3.0,
                lambda: 1.0,
                repeat_fraction: 0.0,
                seed: 0,
            },
            DISTINCT_GENOME,
        ),
    };
    DatasetProfile {
        genome_size: ((genome as f64) * scale) as usize,
        // Distinct streams per corpus from one benchmark seed.
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ base.seed,
        ..base
    }
}

/// A generated corpus on disk plus what the oracle says about it.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Which corpus.
    pub kind: CorpusKind,
    /// The FASTQ file.
    pub fastq: PathBuf,
    /// Its size in bytes.
    pub fastq_bytes: u64,
    /// FNV-1a of its bytes.
    pub fastq_digest: String,
    /// Read count.
    pub reads: u64,
    /// Input k-mer occurrences (the numerator of `kmers_per_s`).
    pub kmers: u64,
    /// Distinct vertices of the oracle graph.
    pub distinct: u64,
    /// Digest of the oracle graph.
    pub graph_digest: String,
}

impl Corpus {
    /// Generates the corpus from `seed`, writes `<dir>/<stem>.fastq`
    /// and builds the oracle graph with `baselines::SortMergeBuilder`,
    /// which shares no code with any hash path.
    ///
    /// # Errors
    ///
    /// File-system failures; an oracle failure is reported as
    /// `InvalidData`.
    pub fn generate(kind: CorpusKind, seed: u64, scale: f64, dir: &Path) -> io::Result<Corpus> {
        let reads = profile(kind, seed, scale).materialize().reads;
        let fastq = dir.join(format!("{}.fastq", kind.stem()));
        // The oracle is CPU-bound and single-threaded, the FASTQ write
        // waits on the disk: overlap them.
        let (written, oracle) = std::thread::scope(|s| {
            let oracle = s.spawn(|| {
                SortMergeBuilder::new(K, P, PARTITIONS)
                    .and_then(|b| b.build(&reads))
                    .map_err(invalid)
            });
            (write_fastq(&fastq, &reads), oracle.join())
        });
        let (fastq_bytes, fastq_digest) = written?;
        let (graph, _) = oracle.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        Ok(Corpus {
            kind,
            fastq,
            fastq_bytes,
            fastq_digest,
            reads: reads.len() as u64,
            kmers: graph.total_kmer_occurrences(),
            distinct: graph.distinct_vertices() as u64,
            graph_digest: graph_digest(&graph),
        })
    }

    /// The corpus as it appears in the `host` record.
    pub fn to_json(&self) -> Value {
        obj([
            ("fastq_bytes", Value::from(self.fastq_bytes)),
            ("fastq_digest", Value::from(self.fastq_digest.as_str())),
            ("reads", Value::from(self.reads)),
            ("kmers", Value::from(self.kmers)),
            ("distinct", Value::from(self.distinct)),
            ("graph_digest", Value::from(self.graph_digest.as_str())),
        ])
    }
}

/// Writes `reads` to `path` and syncs the file, so its write-back does
/// not land on the first samples; returns its length and FNV-1a digest.
fn write_fastq(path: &Path, reads: &[SeqRead]) -> io::Result<(u64, String)> {
    let mut writer = FastqWriter::new(BufWriter::new(File::create(path)?));
    for read in reads {
        writer.write_record(read).map_err(invalid)?;
    }
    let file = writer
        .into_inner()
        .map_err(invalid)?
        .into_inner()
        .map_err(|e| e.into_error())?;
    file.sync_all()?;
    let mut fnv = Fnv::default();
    io::copy(&mut File::open(path)?, &mut fnv)?;
    Ok((file.metadata()?.len(), format!("{:016x}", fnv.value())))
}

/// Parses a FASTQ file into memory (the `distinct_reads` input, loaded
/// before the clock starts).
///
/// # Errors
///
/// Open and parse failures.
pub fn load_reads(path: &Path) -> io::Result<Vec<SeqRead>> {
    FastqReader::new(BufReader::new(File::open(path)?))
        .collect::<Result<Vec<_>, _>>()
        .map_err(invalid)
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}
