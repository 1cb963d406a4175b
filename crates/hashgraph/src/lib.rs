//! Hash-based De Bruijn subgraph construction — Step 2 of ParaHash and the
//! paper's core contribution.
//!
//! The centrepiece is [`ConcurrentDbgTable`]: a single open-addressing hash
//! table shared by *all* threads (unlike the per-thread local tables of
//! SOAP-style assemblers, whose parallelism is capped by the table count).
//! Its concurrency control is the paper's **state-transfer partial
//! locking**:
//!
//! * each slot is one word: an occupancy flag — `empty`, `locked`,
//!   `occupied` — a hash tag, and the index of the vertex's cell;
//! * the multi-word k-mer key is written exactly once, into the next free
//!   cell, by the thread that wins the `empty → locked` CAS, and becomes
//!   immutable the moment the flag turns `occupied`;
//! * every later visit to the slot is a lock-free read of the cell's key
//!   plus atomic increments on its edge-multiplicity counters.
//!
//! The cells are dense — one per distinct vertex, in claim order — so a
//! table costs a word a slot plus a cell a vertex, and its cells are its
//! snapshot ([`VertexCells`], which the one container encoder packs).
//!
//! A table with one writer — a CPU core building a partition on its own —
//! is written through `&mut` instead ([`Recorder`]): the same probe walk
//! over plain memory. Step 2 also replays each distinct superkmer record
//! of a partition once, weighted by its copies
//! ([`ReplayPipeline::record_weighted`]).
//!
//! Since the number of distinct vertices is roughly ⅕ of all k-mer
//! occurrences in real read sets, only ~20 % of operations ever take the
//! lock — the paper's "80 % contention reduction" (reproduced by the
//! `lockstats` experiment, with [`MutexDbgTable`] as the full-locking
//! ablation baseline).
//!
//! Resizing is avoided by sizing tables up front from the expected number
//! of distinct vertices (Property 1, [`expected_distinct_vertices`]).
//!
//! # Examples
//!
//! ```
//! use dna::PackedSeq;
//! use hashgraph::{build_subgraph_with, ConcurrentDbgTable, DeBruijnGraph, VertexTable};
//! use msp::PartitionSlices;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Step 1: four partitions of encoded superkmer records.
//! let parts = msp::partition_in_memory(
//!     &[PackedSeq::from_ascii(b"TGATGGATGAACCAGTTTGA")], 5, 3, 4)?;
//! // Step 2: one table per partition, replayed and merged.
//! let mut graph = DeBruijnGraph::new(5);
//! for part in &parts {
//!     let slices = PartitionSlices::index(part, 5, 3)?;
//!     let table = ConcurrentDbgTable::new(2 * slices.total_kmers() + 16, 5);
//!     build_subgraph_with(&table, &slices, 1)?;
//!     graph.absorb(table.snapshot());
//! }
//! assert_eq!(graph.total_kmer_occurrences(), 20 - 5 + 1);
//! # Ok(())
//! # }
//! ```

mod ablation;
mod build;
mod cells;
mod cleaning;
mod contention;
mod estimate;
mod graph;
mod pool;
mod spectrum;
mod stats;
mod store;
mod table;
mod unitig;

pub use ablation::MutexDbgTable;
pub use build::{build_subgraph_with, edge_slots_for, ReplayKernel, ReplayPipeline};
pub use cells::{cell_bytes, VertexCells};
pub use cleaning::{clip_tips, pop_bubbles};
pub use contention::ContentionStats;
pub use estimate::{
    expected_distinct_vertices, projected_table_bytes, projected_table_bytes_for,
    table_capacity_for, SizingParams,
};
pub use graph::{DeBruijnGraph, EdgeDir, SubGraph, VertexData};
pub use pool::{PooledTable, TablePool};
pub use spectrum::Spectrum;
pub use stats::AssemblyStats;
pub use store::{
    check_subgraph, decode_subgraph, encode_subgraph, load_graph, pack_subgraph, read_graph,
    save_graph, write_graph, StoreError,
};
pub use table::{slot_bytes, slot_price, ConcurrentDbgTable, Recorder, VertexTable, SLOT_BYTES};
pub use unitig::{unitigs, unitigs_with, Unitig};

/// Errors from subgraph construction.
#[derive(Debug)]
#[non_exhaustive]
pub enum HashGraphError {
    /// The open-addressing table ran out of slots: the distinct-vertex
    /// estimate was too low for this partition. Callers may rebuild with a
    /// larger capacity (the costly resize the up-front estimate exists to
    /// avoid).
    CapacityExhausted {
        /// The capacity that was exhausted.
        capacity: usize,
    },
    /// A k-mer of the wrong length was offered to a table.
    WrongK {
        /// Length the table was built for.
        expected: usize,
        /// Length that was offered.
        got: usize,
    },
}

impl std::fmt::Display for HashGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HashGraphError::CapacityExhausted { capacity } => {
                write!(f, "hash table capacity {capacity} exhausted; distinct-vertex estimate too low")
            }
            HashGraphError::WrongK { expected, got } => {
                write!(f, "table built for k={expected} was offered a {got}-mer")
            }
        }
    }
}

impl std::error::Error for HashGraphError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, HashGraphError>;
