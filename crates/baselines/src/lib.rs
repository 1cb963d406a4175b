//! Baseline De Bruijn graph builders for the paper's end-to-end
//! comparisons (Table III, Fig 10).
//!
//! The paper compares ParaHash against two shared-memory assemblers:
//!
//! * **SOAPdenovo** — reproduced by [`SoapBuilder`]: all k-mers of the
//!   input are generated into main memory first, then each thread builds
//!   its own *local* hash table over the k-mers routed to it by
//!   `hash mod threads`. Parallelism is capped by the table count and the
//!   entire graph (plus the raw k-mer list) must fit in memory — which is
//!   why SOAP cannot run the big dataset on a 64 GB host in Table III.
//!   A configurable memory budget reproduces that failure mode.
//! * **bcalm2** — reproduced by [`SortMergeBuilder`]: minimizer-based
//!   partitioning followed by per-partition *sort-merge* counting
//!   (generate `<vertex, edge>` pairs, sort by vertex, merge duplicates).
//!   Its partitioning is an independent Step 1 ([`reference_partition`]:
//!   an allocating two-strand scan into [`OwnedSuperkmer`]s) that shares
//!   only the routing hash with `msp`, so the builder can serve as the
//!   oracle production Step 1 and Step 2 are checked against.
//!   Memory-lean — one partition in flight at a time — but pays an
//!   `O(n log n)` sort per partition, the "memory-efficient but slow"
//!   corner the paper contrasts hashing against.
//!
//! All builders implement [`DbgBuilder`] and must produce graphs
//! *identical* to ParaHash's (tested; they share edge semantics through
//! [`hashgraph::edge_slots_for`]).

mod common;
mod counter;
mod soap;
mod sortmerge;
mod step1;

pub use common::{reference_graph, BaselineReport, DbgBuilder};
pub use counter::{CounterBuilder, LockFreeCounter};
pub use soap::SoapBuilder;
pub use sortmerge::SortMergeBuilder;
pub use step1::{reference_partition, OwnedSuperkmer};

/// Errors from baseline builders.
#[derive(Debug)]
#[non_exhaustive]
pub enum BaselineError {
    /// The builder's estimated working set exceeded its memory budget
    /// (the paper's "SOAP cannot run Bumblebee in 64 GB" failure).
    OutOfMemory {
        /// Bytes the build would need.
        required: u64,
        /// The configured budget.
        budget: u64,
    },
    /// Parameters out of range.
    InvalidParams(String),
    /// An MSP error while partitioning (sort-merge baseline).
    Msp(msp::MspError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::OutOfMemory { required, budget } => {
                write!(f, "estimated working set {required} bytes exceeds the {budget}-byte memory budget")
            }
            BaselineError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            BaselineError::Msp(e) => write!(f, "partitioning failed: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BaselineError::Msp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<msp::MspError> for BaselineError {
    fn from(e: msp::MspError) -> Self {
        BaselineError::Msp(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, BaselineError>;
