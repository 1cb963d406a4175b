//! ParaHash — the end-to-end system of the paper: partition-by-partition
//! De Bruijn graph construction on heterogeneous processors.
//!
//! A run executes the paper's two-step workflow (Fig 3):
//!
//! 1. **Step 1 — MSP.** The input read set is cut into equal-size input
//!    batches; each batch flows through the three-stage pipeline (read →
//!    scan on an idle CPU/GPU → append encoded superkmers to the partition
//!    files on disk).
//! 2. **Step 2 — Hashing.** Each superkmer partition flows through the
//!    pipeline again (read partition file → concurrent hash construction
//!    on an idle CPU/GPU, with the table sized by Property 1 → subgraph
//!    absorbed into the final graph, optionally persisted).
//!
//! Both steps, in every mode, share the work-stealing scheduler of the
//! `pipeline` crate — whichever processor is idle claims the next
//! partition, so "don't offload" is a roster without a GPU — and the
//! (possibly throttled) I/O channel, so the Case-1/Case-2 regimes of §IV
//! are directly reproducible; [`StepReport`] evaluates the §IV model
//! against each finished step.
//!
//! Beyond the two-phase flow above, [`ParaHash::run_fused`] runs the
//! steps **fused**: Step 1 stages partitions in a budget-governed
//! in-memory [`msp::PartitionStore`] (spilling the largest to disk only
//! when
//! [`partition_memory_budget`](ParaHashConfigBuilder::partition_memory_budget)
//! is exceeded) while Step 2 consumes sealed partitions concurrently
//! from a streaming queue, recycling hash-table allocations through a
//! [`hashgraph::TablePool`]. The fused result is byte-identical to the
//! two-phase one — only where the partition bytes live changes.
//!
//! # Examples
//!
//! ```
//! use dna::SeqRead;
//! use parahash::{ParaHash, ParaHashConfig};
//!
//! # fn main() -> Result<(), parahash::ParaHashError> {
//! let reads = vec![
//!     SeqRead::from_ascii("r0", b"TGATGGATGAACCAGTTTGAGGC"),
//!     SeqRead::from_ascii("r1", b"ACCAGTTTGAGGCATTAGGCATT"),
//! ];
//! let config = ParaHashConfig::builder()
//!     .k(7)
//!     .p(4)
//!     .partitions(4)
//!     .cpu_threads(2)
//!     .work_dir(std::env::temp_dir().join("parahash-doc"))
//!     .build()?;
//! let outcome = ParaHash::new(config)?.run(&reads)?;
//! assert_eq!(outcome.graph.total_kmer_occurrences(), 2 * (23 - 7 + 1));
//! # Ok(())
//! # }
//! ```

mod config;
mod journal;
mod report;
mod shard;
mod staging;
mod step1;
mod step2;
mod system;

pub use config::{ConfigError, ParaHashConfig, ParaHashConfigBuilder};
pub use journal::{Fingerprint, JournalEvent, JournalState, RunJournal};
pub use report::{QuarantinedPartition, RunReport, Step1Stats, StepReport};
pub use shard::{run_remote_worker, worker_from_env};
pub use step1::run_step1;
pub use step2::{decode_subgraph, decode_subgraph_checked, encode_subgraph, run_step2};
pub use system::{ParaHash, RunOutcome};

/// Errors from a ParaHash run.
#[derive(Debug)]
#[non_exhaustive]
pub enum ParaHashError {
    /// Configuration rejected at build time.
    InvalidConfig(String),
    /// A specific configuration parameter rejected at build time (see
    /// [`ConfigError`] for the precise rule that was violated).
    Config(ConfigError),
    /// Step-1 partitioning failure.
    Msp(msp::MspError),
    /// Step-2 construction failure.
    HashGraph(hashgraph::HashGraphError),
    /// Simulated-device failure (e.g. device memory exhausted).
    Device(hetsim::HetsimError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// `run.journal` could not be replayed (malformed record that is not
    /// a torn tail, or an event that contradicts the run shape).
    Journal {
        /// Byte offset of the offending record.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
    /// A resume was requested but the journal's config fingerprint does
    /// not match the current configuration/input — resuming would mix
    /// artifacts from two different runs.
    FingerprintMismatch {
        /// Fingerprint recorded in the journal.
        journal: Fingerprint,
        /// Fingerprint of the config/input the resume was asked to use.
        current: Fingerprint,
    },
    /// A partition's projected Property-1 table exceeds
    /// [`table_memory_budget`](ParaHashConfigBuilder::table_memory_budget)
    /// and out-of-core sub-partitioning is disabled
    /// ([`out_of_core(false)`](ParaHashConfigBuilder::out_of_core)).
    TableOverBudget {
        /// The over-budget partition.
        partition: usize,
        /// Bytes the §IV-A sizing rule projects for its table.
        projected_bytes: u64,
        /// The configured per-table budget it busted.
        budget: u64,
    },
    /// The multi-process sharded Step 2 failed: a wire-protocol fault,
    /// or a partition that exhausted its worker attempts in strict mode.
    Shard(String),
}

impl std::fmt::Display for ParaHashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParaHashError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ParaHashError::Config(e) => write!(f, "invalid configuration: {e}"),
            ParaHashError::Msp(e) => write!(f, "msp step failed: {e}"),
            ParaHashError::HashGraph(e) => write!(f, "hashing step failed: {e}"),
            ParaHashError::Device(e) => write!(f, "device failure: {e}"),
            ParaHashError::Io(e) => write!(f, "i/o failure: {e}"),
            ParaHashError::Journal { offset, reason } => {
                write!(f, "corrupt run journal at byte {offset}: {reason}")
            }
            ParaHashError::FingerprintMismatch { journal, current } => write!(
                f,
                "refusing to resume: journal fingerprint {journal} does not match the \
                 current run's fingerprint {current} (config or input changed since the \
                 interrupted run — start a fresh run instead)"
            ),
            ParaHashError::TableOverBudget { partition, projected_bytes, budget } => write!(
                f,
                "partition {partition}'s projected hash table of {projected_bytes} bytes \
                 exceeds the {budget}-byte table budget and out-of-core sub-partitioning \
                 is disabled"
            ),
            ParaHashError::Shard(msg) => write!(f, "sharded step 2 failed: {msg}"),
        }
    }
}

impl std::error::Error for ParaHashError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParaHashError::Msp(e) => Some(e),
            ParaHashError::HashGraph(e) => Some(e),
            ParaHashError::Device(e) => Some(e),
            ParaHashError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ParaHashError {
    fn from(e: ConfigError) -> Self {
        ParaHashError::Config(e)
    }
}

impl From<msp::MspError> for ParaHashError {
    fn from(e: msp::MspError) -> Self {
        ParaHashError::Msp(e)
    }
}

impl From<hashgraph::HashGraphError> for ParaHashError {
    fn from(e: hashgraph::HashGraphError) -> Self {
        ParaHashError::HashGraph(e)
    }
}

impl From<hetsim::HetsimError> for ParaHashError {
    fn from(e: hetsim::HetsimError) -> Self {
        ParaHashError::Device(e)
    }
}

impl From<std::io::Error> for ParaHashError {
    fn from(e: std::io::Error) -> Self {
        ParaHashError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ParaHashError>;
