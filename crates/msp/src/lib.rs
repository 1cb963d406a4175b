//! Minimum Substring Partitioning (MSP) — Step 1 of ParaHash.
//!
//! Partitions the De Bruijn graph *before it exists* by cutting each read
//! into *superkmers*: maximal runs of adjacent k-mers that share one
//! *minimizer* (the minimal length-`P` substring, Definition 1 of the
//! paper). All duplicates of a vertex share its minimizer, so routing
//! superkmers by `hash(minimizer) mod n` sends every duplicate — and its
//! recorded neighbours — to the same partition, allowing each partition's
//! subgraph to be built independently in Step 2.
//!
//! Two paper-specific refinements are implemented here:
//!
//! * **Adjacency extensions** — each superkmer carries up to two extra
//!   base pairs (the read base immediately before and after it), restoring
//!   the edge information that plain MSP k-mer counting loses.
//! * **2-bit encoding** — partition files store packed records
//!   ([`encode_superkmer_slice`]), about ¼ the size of the textual
//!   representation, cutting disk and host↔device transfer volume.
//!
//! The encoded record is the *only* superkmer representation in this
//! crate: Step 1 writes records straight out of the read's packed words
//! and Step 2 replays them through borrowed [`SuperkmerView`]s, so no
//! owned per-superkmer value exists between the two.
//!
//! One deliberate deviation from the paper's Definition 1: minimizers are
//! computed over the *canonical pair* (the k-mer and its reverse
//! complement). The paper's correctness argument — "identical vertices
//! share the same minimizer" — only holds for bi-directed graphs when both
//! strands are considered, since a vertex is a canonical k-mer and its two
//! textual appearances are reverse complements of each other.
//!
//! # Examples
//!
//! ```
//! use dna::PackedSeq;
//! use msp::PartitionSlices;
//!
//! # fn main() -> msp::Result<()> {
//! let read = PackedSeq::from_ascii(b"TGATGGATGAACCAGTTTGA");
//! // Step 1 in memory: scan, route by minimizer, encode — 4 partitions.
//! let parts = msp::partition_in_memory(std::slice::from_ref(&read), 5, 3, 4)?;
//! // Every k-mer of the read appears in exactly one record:
//! let mut total = 0;
//! for records in &parts {
//!     total += PartitionSlices::index(records, 5, 3)?.total_kmers();
//! }
//! assert_eq!(total, read.len() - 5 + 1);
//! # Ok(())
//! # }
//! ```

mod frame;
mod minimizer;
mod partition;
mod reader;
mod record;
mod stats;
mod store;
mod subsplit;
mod superkmer;
mod view;
mod writer;

pub use frame::{
    append_frame, crc32, deframe, deframe_in, frame_payloads, frame_payloads_in, FrameFault,
    DEFAULT_FRAME_TARGET, FRAME_HEADER_LEN,
};
pub use minimizer::{minimizer_of_kmer, MinimizerCursor};
pub use partition::{partition_in_memory, PartitionRouter};
pub use reader::FastqChunks;
pub use record::{encode_superkmer_slice, encoded_len};
pub use stats::{DistributionSummary, PartitionStats};
pub use store::{PartitionSink, PartitionStore, SealedPartition, SealedPayload};
pub use subsplit::{split_framed, sub_route, SubPartition};
pub use superkmer::SuperkmerScanner;
pub use view::{CodeWords, PartitionSlices, SuperkmerView};
pub use writer::{PartitionManifest, PartitionWriter};

/// Errors from MSP partition I/O and parameter validation.
#[derive(Debug)]
#[non_exhaustive]
pub enum MspError {
    /// `P` or `K` out of range (`1 ≤ P ≤ K ≤ dna::MAX_K`).
    InvalidParams {
        /// The k-mer length.
        k: usize,
        /// The minimizer length.
        p: usize,
    },
    /// The number of partitions was zero.
    NoPartitions,
    /// A partition file ended in the middle of a record, or a record
    /// header was internally inconsistent.
    CorruptRecord {
        /// Byte offset at which the problem was detected.
        offset: u64,
        /// Description of the inconsistency.
        reason: String,
    },
    /// An underlying I/O operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for MspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MspError::InvalidParams { k, p } => {
                write!(f, "invalid msp parameters: k={k}, p={p} (need 1 <= p <= k <= {})", dna::MAX_K)
            }
            MspError::NoPartitions => write!(f, "number of partitions must be at least 1"),
            MspError::CorruptRecord { offset, reason } => {
                write!(f, "corrupt superkmer record at byte {offset}: {reason}")
            }
            MspError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for MspError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MspError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MspError {
    fn from(e: std::io::Error) -> Self {
        MspError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MspError>;

#[cfg(test)]
mod testutil;
