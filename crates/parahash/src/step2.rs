use std::collections::BTreeSet;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

pub use hashgraph::encode_subgraph;
use hashgraph::{
    cell_bytes, table_capacity_for, ContentionStats, DeBruijnGraph, HashGraphError, Recorder,
    ReplayKernel, ReplayPipeline, SubGraph, TablePool, VertexCells,
};
use hetsim::{Device, DeviceKind};
use msp::{PartitionManifest, PartitionSlices, RecordCollapse, SealedPartition, SealedPayload};
use parking_lot::Mutex;
use pipeline::{failpoint, CancelToken, PipelineReport, Roster, SharedCounterQueue, ThrottledIo};

use crate::journal::{JournalEvent, RunJournal};
use crate::step1::{device_baselines, device_deltas, split_device_times};
use crate::{ParaHashConfig, ParaHashError, QuarantinedPartition, Result, StepReport};

/// What [`PartitionBuilder::build`] measured while building one
/// partition — what [`Step2Shared::settle`] folds into the step and
/// hands to the graph.
#[derive(Default)]
pub(crate) struct Built {
    /// The partition's vertices as one vertex-run container image: the
    /// finished `sub-XXXXX.dbg` file ([`VertexCells::encode`]: canonical
    /// order, CRC trailer) when
    /// [`write_subgraphs`](crate::ParaHashConfigBuilder::write_subgraphs)
    /// is on, the cells packed in claim order ([`VertexCells::pack`])
    /// when nothing will persist it.
    pub image: Vec<u8>,
    /// Vertices in the image: the work the scheduler's model is fed.
    pub vertices: u64,
    pub contention: ContentionStats,
    /// K-mer positions the table probed: the k-mers of the partition's
    /// distinct records (see [`StepReport::replayed_kmers`]).
    pub replayed_kmers: u64,
    /// Capacity-retry rebuilds this partition needed.
    pub resizes: usize,
    /// Peak hash-table bytes held, as each table finished: its slot words
    /// and the cells its tenants touched
    /// ([`ConcurrentDbgTable::held_bytes`](hashgraph::ConcurrentDbgTable::held_bytes);
    /// the largest sub-table when split).
    pub peak_table_bytes: u64,
    /// Slots of the largest table the partition's build checked out.
    pub peak_table_slots: u64,
    /// Out-of-core fanout: 0 when the partition fit its budget and was
    /// built in one table, ≥ 2 when it was sub-partitioned.
    pub fanout: usize,
    /// Bytes of the partition it was built from.
    pub partition_bytes: u64,
    /// The partition's `sub-<i>.dbg`, open, when `image` is already
    /// committed there — by a worker on this filesystem, or by this
    /// process from a wire worker's payload — and was read and checked
    /// through this handle ([`read_committed`]): settling it commits
    /// nothing and maps this handle.
    pub on_disk: Option<File>,
}

/// Why a partition did not build or settle, classed by how far it
/// reaches.
pub(crate) struct Failure {
    pub error: ParaHashError,
    /// `false`: this partition's own bytes are at fault — unreadable or
    /// corrupt frames, a failed split, a failed commit — which a
    /// non-strict run quarantines. `true`: the run environment is —
    /// device memory, a table error, an over-budget partition without
    /// out-of-core, a journal that cannot be written — which aborts
    /// every run.
    pub fatal: bool,
}

impl Failure {
    pub(crate) fn local(error: ParaHashError) -> Failure {
        Failure { error, fatal: false }
    }

    fn fatal(error: ParaHashError) -> Failure {
        Failure { error, fatal: true }
    }
}

/// Hard cap on the out-of-core sub-partition fanout. A tiny table budget
/// against a huge partition would otherwise ask for thousands of
/// sub-buffers whose per-sub framing and bookkeeping dwarf the split's
/// benefit; past this point each sub-table simply runs over budget (the
/// split is best-effort, never recursive — see
/// [`PartitionBuilder::build_split`]).
const MAX_SUB_FANOUT: usize = 256;

/// Parses the format written by [`encode_subgraph`]. Used by tests and by
/// downstream consumers of persisted subgraphs.
///
/// Returns `None` when the buffer is truncated, fails its CRC32 trailer,
/// declares an invalid k-mer, or carries trailing bytes beyond the
/// declared record count — a short count with appended garbage is
/// corruption, not a smaller subgraph. When the caller needs to know
/// *why* a buffer was rejected, use [`decode_subgraph_checked`].
pub fn decode_subgraph(bytes: &[u8]) -> Option<SubGraph> {
    decode_subgraph_checked(bytes, None).ok()
}

/// [`hashgraph::decode_subgraph`] as this crate's error: names the
/// partition the subgraph belongs to (when the caller supplies it) ahead
/// of the decoder's byte offset and damage classification (truncated
/// tail / interior corruption — see [`hashgraph::StoreError::Corrupt`]).
///
/// # Errors
///
/// [`ParaHashError::Msp`] wrapping [`msp::MspError::CorruptRecord`] with
/// the offset and classification above.
pub fn decode_subgraph_checked(bytes: &[u8], partition: Option<usize>) -> Result<SubGraph> {
    hashgraph::decode_subgraph(bytes).map_err(|e| store_error(e, partition))
}

/// [`hashgraph::check_subgraph`] on partition `i`'s committed file, as
/// this crate's error (see [`decode_subgraph_checked`]).
pub(crate) fn check_committed(bytes: &[u8], i: usize) -> Result<()> {
    hashgraph::check_subgraph(bytes).map_err(|e| store_error(e, Some(i)))
}

/// Partition `i`'s committed subgraph file at `path`, read into `image`
/// (cleared first) and checked ([`check_committed`]): the open handle it
/// was read through, which the resume plan and the sharded parent hand
/// with `image` to [`DeBruijnGraph::absorb_file`] — the graph maps the
/// very file that was checked, and nothing is decoded.
pub(crate) fn read_committed(path: &Path, i: usize, image: &mut Vec<u8>) -> Result<File> {
    let mut file = File::open(path)?;
    image.clear();
    file.read_to_end(image)?;
    check_committed(image, i)?;
    Ok(file)
}

fn store_error(e: hashgraph::StoreError, partition: Option<usize>) -> ParaHashError {
    match e {
        hashgraph::StoreError::Corrupt { offset, reason } => {
            let whose = partition.map_or(String::new(), |i| format!("subgraph for partition {i}, "));
            let reason = format!("{whose}byte {offset}: {reason}");
            ParaHashError::Msp(msp::MspError::CorruptRecord { offset, reason })
        }
        other => ParaHashError::Io(std::io::Error::other(other)),
    }
}

/// Where partition `i`'s committed subgraph lives under `work_dir`.
pub(crate) fn subgraph_path(work_dir: &Path, i: usize) -> PathBuf {
    work_dir.join("subgraphs").join(format!("sub-{i:05}.dbg"))
}

/// What an interrupted run already finished, as the resume plan verified
/// it: the partitions whose subgraph files are committed and whole, and
/// the graph holding those files' bytes. Step 2 skips the former and
/// merges everything it builds into the latter — the persisted half of a
/// resumed build is read, checked and absorbed exactly once.
pub(crate) struct Resumed {
    pub committed: BTreeSet<usize>,
    pub graph: DeBruijnGraph,
}

impl Resumed {
    /// A run that starts from scratch.
    pub(crate) fn nothing(k: usize) -> Resumed {
        Resumed { committed: BTreeSet::new(), graph: DeBruijnGraph::new(k) }
    }
}

/// A finished manifest as a Step-2 feed: every partition as a payload to
/// read back from its file — exactly what a [`msp::PartitionStore`] seals
/// for a partition it spilled — largest first, index breaking ties, as
/// Step 1 seals them. This is how a resumed run that skips Step 1 feeds
/// Step 2.
pub(crate) fn manifest_feed(manifest: &PartitionManifest) -> SharedCounterQueue<SealedPartition> {
    let stats = manifest.stats();
    let mut order: Vec<usize> = (0..stats.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(stats[i].bytes), i));
    SharedCounterQueue::filled(order.into_iter().map(|index| SealedPartition {
        index,
        superkmers: stats[index].superkmers,
        kmers: stats[index].kmers,
        bytes: stats[index].bytes,
        payload: SealedPayload::Spilled(manifest.partition_path(index)),
    }))
}

/// What Step 2's input stage hands a device: a partition's bytes and its
/// k-mer count, or `None` for a partition already settled (a resumed
/// one, or one whose read failed and was routed).
pub(crate) type Input = Option<(Vec<u8>, u64)>;

/// Step 2's roster: the config's devices, and a driver per worker
/// connection when the build is sharded.
pub(crate) type Step2Roster<'a> = Roster<'a, Input, Option<Built>>;

/// Step 2 of ParaHash, the one in-process runner: pipelined,
/// co-processed construction of the subgraph of every
/// [`SealedPartition`] arriving on `feed`. The handoff between the steps
/// is a storage choice carried by the payload, not a second algorithm —
/// resident payloads are used by value and skip the disk entirely;
/// spilled payloads (a partition the store spilled, or every partition of
/// a [`manifest_feed`]) are read back with the usual retry policy, their
/// checksummed frames verified in place. Each partition is replayed into
/// a table sized by the Property-1 rule from its k-mer count; on a GPU
/// device the encoded partition pays the host→device transfer and the
/// table reserves device memory, and the snapshot pays the device→host
/// transfer.
///
/// Failure handling is two-tier:
///
/// * **Strict mode** (the default): the first fatal error cancels the
///   pipeline — remaining partitions are abandoned, partial subgraph
///   output is deleted, and the error is returned.
/// * **Non-strict mode**
///   ([`strict(false)`](crate::ParaHashConfigBuilder::strict)): a
///   partition whose file cannot be read (after
///   [`pipeline::RetryPolicy`] retries), fails its checksums or cannot be
///   committed is *quarantined* — recorded in the step report and the
///   journal — and the run completes without its k-mers. Device and
///   hash-table failures stay fatal in both modes: they indicate the run
///   environment, not one bad file.
///
/// Crash-recovery hooks: `journal` receives, as each partition settles,
/// its `sub-split` record (when split) and a `subgraph-committed` record
/// after its atomic subgraph commit (and `quarantined` records at the
/// end); partitions in [`Resumed::committed`] — their subgraphs
/// were committed by an interrupted run and are already in
/// [`Resumed::graph`] — flow through as no-ops. The caller owns `feed`.
///
/// Given [`workers`](crate::ParaHashConfigBuilder::workers) or
/// [`listen`](crate::ParaHashConfigBuilder::listen), each worker
/// connection joins the roster as one more device beside the config's
/// ([`crate::shard`]); what a worker builds settles here like the rest.
///
/// # Errors
///
/// Partition-file corruption and I/O failures (strict mode only),
/// device-memory exhaustion, and a sharded build's socket and spawn
/// failures.
pub(crate) fn step2_feed(
    config: &ParaHashConfig,
    feed: &SharedCounterQueue<SealedPartition>,
    io: &ThrottledIo,
    journal: &RunJournal,
    resumed: Resumed,
) -> Result<(DeBruijnGraph, StepReport)> {
    let Resumed { committed: skip, mut graph } = resumed;
    // A resumed run with every partition committed has nothing to lease.
    let sharded = config.sharded() && skip.len() < feed.capacity();
    let sub_dir = config.work_dir.join("subgraphs");
    if config.write_subgraphs || sharded {
        // A worker's committed file is its result, whatever the user keeps.
        std::fs::create_dir_all(&sub_dir)?;
    }
    let cancel = CancelToken::new();
    let shared = Step2Shared::new(config, &cancel, journal);
    let roster = Step2Roster::new(config.devices(), &cancel, feed.capacity());
    let mut run = || shared.run(&roster, feed, io, &skip, &mut graph);
    let pipeline_report =
        if sharded { crate::shard::with_workers(config, &shared, &roster, &mut run)? } else { run() };
    let finished = shared.finish(pipeline_report, graph);
    if sharded && !config.write_subgraphs {
        // The files were only ever the workers' result channel.
        let _ = std::fs::remove_dir_all(&sub_dir);
    }
    finished
}

/// Builds a partition on whichever device it is handed (several at once
/// when several devices share it): admit it against the per-table memory budget, hash-construct — in one
/// table when the Property-1 projection fits, out of core through
/// second-level sub-partitions when it does not — and format the result
/// as a container image. It journals nothing and touches no shared
/// counter; what it measured comes back in [`Built`]. The in-process
/// engine keeps one per step, a shard worker one per session, so the
/// partitions each of them builds share one [`TablePool`].
pub(crate) struct PartitionBuilder<'a> {
    config: &'a ParaHashConfig,
    /// Recycles table allocations across partitions (and across the
    /// capacity-retry rebuilds): the alloc+zero churn of one fresh
    /// `ConcurrentDbgTable` per partition becomes a handful of
    /// allocations total, because partition sizes cluster into a few
    /// capacity classes.
    pub(crate) pool: TablePool,
    /// The replay dispatcher: word-parallel single-`u64` fast path for
    /// k ≤ 32, the rolling cursor otherwise.
    kernel: ReplayKernel,
    /// Idle record-collapse scratch, one per device building at once,
    /// reused across partitions like the tables.
    collapses: Mutex<Vec<RecordCollapse>>,
}

impl<'a> PartitionBuilder<'a> {
    pub(crate) fn new(config: &'a ParaHashConfig) -> PartitionBuilder<'a> {
        let (pool, kernel) = (TablePool::new(config.k), ReplayKernel::new(config.k));
        PartitionBuilder { config, pool, kernel, collapses: Mutex::new(Vec::new()) }
    }

    /// Builds partition `idx` from its framed `bytes` holding `n_kmers`
    /// k-mers on `device`, and formats it: canonical sort, record encode
    /// and CRC trailer when subgraphs are persisted, the record packing
    /// alone otherwise. That is CPU work, so it runs on the device
    /// driver's thread (one per device, overlapping the previous
    /// partition's commit) and leaves the output stage nothing to do but
    /// write and hand over.
    pub(crate) fn build(
        &self,
        device: &dyn Device,
        idx: usize,
        bytes: Vec<u8>,
        n_kmers: u64,
    ) -> std::result::Result<Built, Failure> {
        let mut built = Built { partition_bytes: bytes.len() as u64, ..Built::default() };
        let projected_bytes =
            hashgraph::projected_table_bytes_for(n_kmers, self.config.k, self.config.sizing);
        let budget = self.config.table_memory_budget;
        let mut cells = VertexCells::new(self.config.k);
        if projected_bytes <= budget {
            self.build_one_table(device, &bytes, n_kmers, &mut built, &mut cells)?;
        } else if self.config.out_of_core {
            self.build_split(device, idx, &bytes, projected_bytes, &mut built, &mut cells)?;
        } else {
            let error = ParaHashError::TableOverBudget { partition: idx, projected_bytes, budget };
            return Err(Failure::fatal(error));
        }
        built.vertices = cells.len() as u64;
        // The partition buffer has been replayed: the image is written
        // over it, so the memory the partition held is what the graph
        // holds next, not a second allocation beside freed pages. The
        // cells — 44 bytes a vertex at k ≤ 32 — end here, on this thread;
        // the image keeps each vertex as one record (17 bytes at k ≤ 32
        // with counters under 256).
        built.image = if self.config.write_subgraphs {
            cells.encode_into(bytes)
        } else {
            cells.pack_into(bytes)
        };
        Ok(built)
    }

    /// Out-of-core build of one over-budget partition: split its records
    /// by the second-level minimizer hash ([`msp::split_framed`]), build
    /// each sub-partition with its own budget-sized table (one live at a
    /// time — that is the point), and append each sub-table's cells to
    /// `cells`. The sub-tables are key-disjoint because every copy of a
    /// k-mer shares a minimizer, so the concatenated vertex set — and
    /// after the one canonical sort in [`VertexCells::encode`], the
    /// persisted bytes — is identical to the unsplit build's.
    ///
    /// The fanout is `ceil(projected / budget)`, clamped to
    /// [`MAX_SUB_FANOUT`]; splitting happens **exactly once** (sub-builds
    /// are never re-admitted against the budget), because a single
    /// minimizer's load is the atomic unit of routing — a sub-partition
    /// that is still over budget (one pathologically hot minimizer, or a
    /// fanout clamped by the cap) builds with an over-budget table rather
    /// than recursing forever.
    fn build_split(
        &self,
        device: &dyn Device,
        idx: usize,
        bytes: &[u8],
        projected: u64,
        built: &mut Built,
        cells: &mut VertexCells,
    ) -> std::result::Result<(), Failure> {
        let fanout = projected
            .div_ceil(self.config.table_memory_budget.max(1))
            .clamp(2, MAX_SUB_FANOUT as u64) as usize;
        let subs = msp::split_framed(bytes, self.config.k, self.config.p, fanout, idx)
            .map_err(|e| Failure::local(e.into()))?;
        built.fanout = fanout;
        for sub in subs.iter().filter(|sub| sub.superkmers > 0) {
            self.build_one_table(device, &sub.bytes, sub.kmers, built, cells)?;
        }
        Ok(())
    }

    /// One table build: index the framed bytes and collapse identical
    /// records once, then hash-construct with pooled tables sized from
    /// the collapsed records, retrying with a bigger checkout if the
    /// sizing fell short. The cost lands in `built`, the vertices in
    /// `cells`.
    fn build_one_table(
        &self,
        device: &dyn Device,
        bytes: &[u8],
        n_kmers: u64,
        built: &mut Built,
        cells: &mut VertexCells,
    ) -> std::result::Result<(), Failure> {
        // Zero-copy decode of the framed bytes: verify every frame's
        // CRC32 once, index the record boundaries, then replay borrowed
        // `SuperkmerView`s straight out of the partition buffer — no
        // per-record heap allocation. Indexing happens once, *outside*
        // the capacity-retry loop — a retry re-reads nothing and
        // re-verifies nothing, it only swaps in a bigger table.
        let slices = PartitionSlices::index_framed(bytes, self.config.k, self.config.p)
            .map_err(|e| Failure::local(e.into()))?;
        let mut collapse = self.collapses.lock().pop().unwrap_or_default();
        let records = collapse.collapse(&slices);
        let replayed = self.replay(device, &slices, records, n_kmers, built, cells);
        self.collapses.lock().push(collapse);
        replayed
    }

    /// Replays each distinct record of `slices` once with its weight
    /// (`records`: [`RecordCollapse`] pairs) — counts and edges are sums,
    /// so the table ends up exactly as if every copy were replayed. A
    /// one-core device owns its checkout and records through `&mut`,
    /// plain memory; a device whose workers share the table runs the
    /// state-transfer protocol. The table's cells are appended to
    /// `cells`. A GPU pays for the host→device copy of the partition's
    /// bytes.
    fn replay(
        &self,
        device: &dyn Device,
        slices: &PartitionSlices<'_>,
        records: &[(u32, u32)],
        n_kmers: u64,
        built: &mut Built,
        cells: &mut VertexCells,
    ) -> std::result::Result<(), Failure> {
        let replayed: u64 =
            records.iter().map(|&(i, _)| slices.view(i as usize).kmer_count() as u64).sum();
        // Every vertex lies in some distinct record, so `replayed` bounds
        // the partition's vertices and a table of `replayed / α` slots
        // holds them at load ≤ α. Property 1 stays the cap, so the table
        // is never bigger than admission projected; when it binds and
        // under-sizes, the retry below doubles.
        let collapsed = (replayed as f64 / self.config.sizing.alpha).ceil() as usize;
        let mut capacity = table_capacity_for(n_kmers, self.config.sizing).min(collapsed);
        loop {
            // Checked out from the pool: a recycled allocation when one
            // of this capacity class is shelved, a fresh one otherwise.
            // Dropping the guard (every exit path below) shelves it.
            let mut table = self.pool.checkout(capacity);
            // A device sizes its cell array before the kernel runs: every
            // vertex lies in some replayed k-mer, and in some slot.
            let vertices = (replayed as usize).min(table.capacity());
            let reserved = (table.approx_bytes() + vertices * cell_bytes(self.config.k)) as u64;
            let is_gpu = device.kind() == DeviceKind::SimGpu;
            if is_gpu {
                device.alloc(reserved).map_err(|e| Failure::fatal(e.into()))?;
                device.transfer_to_device(slices.byte_len() as u64);
            }
            // The kernel: one distinct record per data-parallel item,
            // decoded in place from the partition buffer. Each worker's
            // chunk is replayed through one software-pipelined
            // [`ReplayPipeline`], so the slot-prefetch lookahead spans
            // superkmer boundaries.
            let kernel_error: OnceLock<HashGraphError> = OnceLock::new();
            let (kernel, error) = (self.kernel, &kernel_error);
            if device.parallelism() == 1 {
                // One worker, one chunk: the lock is taken once.
                let owned = Mutex::new(&mut *table);
                device.execute_chunks(records.len(), &|range| {
                    let mut table = owned.lock();
                    let pipe = ReplayPipeline::new(kernel, &mut **table);
                    replay_chunk(pipe, slices, &records[range], error);
                });
            } else {
                let shared = &*table;
                device.execute_chunks(records.len(), &|range| {
                    let pipe = ReplayPipeline::new(kernel, shared);
                    replay_chunk(pipe, slices, &records[range], error);
                });
            }
            built.peak_table_bytes = built.peak_table_bytes.max(table.held_bytes() as u64);
            built.peak_table_slots = built.peak_table_slots.max(table.capacity() as u64);
            match kernel_error.into_inner() {
                None => {
                    let before = cells.approx_bytes();
                    let contention = table.snapshot_cells(cells);
                    if is_gpu {
                        device.transfer_from_device((cells.approx_bytes() - before) as u64);
                        device.free(reserved);
                    }
                    built.contention.merge(&contention);
                    built.replayed_kmers += replayed;
                    return Ok(());
                }
                Some(HashGraphError::CapacityExhausted { .. }) => {
                    if is_gpu {
                        device.free(reserved);
                    }
                    built.resizes += 1;
                    // Double from the capacity actually granted (the pool
                    // rounds up to its class), so the retry is guaranteed
                    // a strictly larger class.
                    capacity = table.capacity().saturating_mul(2).max(32);
                }
                Some(e) => {
                    if is_gpu {
                        device.free(reserved);
                    }
                    return Err(Failure::fatal(e.into()));
                }
            }
        }
    }
}

/// Replays `records` — `(index, weight)` pairs into `slices` — through
/// `pipe`. The first error any chunk hits lands in `error`, and the
/// `OnceLock` check lets surviving chunks bail out cheaply.
fn replay_chunk<R: Recorder>(
    mut pipe: ReplayPipeline<R>,
    slices: &PartitionSlices<'_>,
    records: &[(u32, u32)],
    error: &OnceLock<HashGraphError>,
) {
    for &(i, weight) in records {
        if error.get().is_some() {
            return;
        }
        if let Err(e) = pipe.record_weighted(&slices.view(i as usize), weight) {
            let _ = error.set(e);
            return;
        }
    }
    if let Err(e) = pipe.flush() {
        let _ = error.set(e);
    }
}

/// The durable half of settling partition `idx`, in this order: commit
/// `image` as `work_dir`'s `sub-<idx>.dbg` when one is given, then
/// journal — back to back, no other record between them — the
/// `sub-split` a fanout ≥ 2 build made and, when `kept` (the file is on
/// disk, committed here or before), `subgraph-committed`. The record is
/// written strictly *after* the rename: `subgraph-committed` in a journal
/// implies the file is durable and whole (the converse is allowed — a
/// file with no record is re-verified or redone on resume). The engine's
/// [`settle`](Step2Shared::settle) and a shard worker on the parent's
/// filesystem (into its own journal) both persist through here.
pub(crate) fn persist(
    io: &ThrottledIo,
    journal: &RunJournal,
    work_dir: &Path,
    idx: usize,
    image: Option<&[u8]>,
    fanout: usize,
    kept: bool,
) -> std::result::Result<(), Failure> {
    if let Some(bytes) = image {
        // Atomic commit (tmp + fsync + rename + dir fsync): a crash
        // anywhere in here leaves either no `sub-XXXXX.dbg` or a
        // complete, checksummed one — never a torn file.
        failpoint::hit("step2.subgraph.write")
            .and_then(|()| io.commit_file(subgraph_path(work_dir, idx), bytes))
            .map_err(|e| Failure::local(ParaHashError::Io(e)))?;
    }
    let split = (fanout >= 2).then_some(JournalEvent::SubSplit(idx, fanout));
    let committed = kept.then_some(JournalEvent::SubgraphCommitted(idx));
    journal.append_all(split.iter().chain(&committed)).map_err(Failure::fatal)
}

/// The Step-2 engine's state, one per step: the partition builder, the
/// failure routing (strict / quarantine / fatal), the one output path
/// ([`settle`](Self::settle)), the accounting and report assembly.
/// [`step2_feed`] is [`run`](Self::run) then [`finish`](Self::finish); a
/// worker connection's driver ([`crate::shard`]) builds what its worker
/// lost through the same [`build`](Self::build), and what it built
/// settles through the same [`settle`](Self::settle).
pub(crate) struct Step2Shared<'a> {
    config: &'a ParaHashConfig,
    cancel: &'a CancelToken,
    builder: PartitionBuilder<'a>,
    total_contention: Mutex<ContentionStats>,
    total_replayed: AtomicU64,
    total_resizes: AtomicUsize,
    peak_table: AtomicU64,
    peak_table_slots: AtomicU64,
    peak_partition: AtomicU64,
    first_error: OnceLock<ParaHashError>,
    quarantined: Mutex<Vec<QuarantinedPartition>>,
    /// `(partition, fanout)` for every settled partition whose projected
    /// table busted [`table_memory_budget`](crate::ParaHashConfigBuilder::table_memory_budget)
    /// and was built out of core through second-level sub-partitions.
    sub_splits: Mutex<Vec<(usize, usize)>>,
    /// Every durable state change (subgraph committed, partition split
    /// or quarantined, worker leased) is appended here so a crashed run
    /// can be resumed without redoing the work.
    journal: &'a RunJournal,
    /// Device-metric snapshots taken at construction: every driver builds
    /// this struct after Step 1 has returned, so Step 1's meters stay out
    /// of this step's window.
    baselines: Vec<hetsim::DeviceMetrics>,
}

impl<'a> Step2Shared<'a> {
    /// The caller creates `work_dir/subgraphs` before anything commits
    /// there.
    pub(crate) fn new(
        config: &'a ParaHashConfig,
        cancel: &'a CancelToken,
        journal: &'a RunJournal,
    ) -> Step2Shared<'a> {
        Step2Shared {
            config,
            cancel,
            journal,
            builder: PartitionBuilder::new(config),
            total_contention: Mutex::new(ContentionStats::default()),
            total_replayed: AtomicU64::new(0),
            total_resizes: AtomicUsize::new(0),
            peak_table: AtomicU64::new(0),
            peak_table_slots: AtomicU64::new(0),
            peak_partition: AtomicU64::new(0),
            first_error: OnceLock::new(),
            quarantined: Mutex::new(Vec::new()),
            sub_splits: Mutex::new(Vec::new()),
            baselines: device_baselines(config),
        }
    }

    /// The three stages over `feed` on `roster`, merging into `graph`;
    /// partitions in `skip` flow through as no-ops.
    pub(crate) fn run(
        &self,
        roster: &Step2Roster<'_>,
        feed: &SharedCounterQueue<SealedPartition>,
        io: &ThrottledIo,
        skip: &BTreeSet<usize>,
        graph: &mut DeBruijnGraph,
    ) -> PipelineReport {
        roster.run(
            feed,
            // Stage 1: materialise the sealed payload (spilled ones pay
            // input I/O, with transient-error retries inside
            // `ThrottledIo`). `None` is the sentinel for an
            // already-recorded failure — or for a partition in `skip`.
            |sealed: SealedPartition| {
                let idx = sealed.index;
                if skip.contains(&idx) {
                    return (idx, None);
                }
                let bytes = match sealed.payload {
                    SealedPayload::Resident(bytes) => Some(bytes),
                    SealedPayload::Spilled(path) => match io.read_file(&path) {
                        Ok(bytes) => Some(bytes),
                        Err(e) => {
                            self.fail(idx, Failure::local(ParaHashError::Io(e)));
                            None
                        }
                    },
                };
                (idx, bytes.map(|b| (b, sealed.kmers)))
            },
            // Stage 2: build and format the partition on an idle device.
            |device: &dyn Device, idx, input: Input| self.build(device, idx, input),
            // Stage 3: settle what built; failure sentinels are skipped
            // outright — an error partition must never leave a bogus
            // `sub-XXXXX.dbg` behind or leak empty entries into the graph.
            |idx, built: Option<Built>| {
                if let Some(built) = built {
                    self.settle(io, graph, idx, built);
                }
            },
        )
    }

    /// Builds partition `idx` from `input` on `device`, routing a failure
    /// through [`fail`](Self::fail): what built, and its vertices — the
    /// work units of the Fig 11 accounting.
    pub(crate) fn build(&self, device: &dyn Device, idx: usize, input: Input) -> (Option<Built>, u64) {
        let Some((bytes, kmers)) = input else {
            return (None, 0);
        };
        match self.builder.build(device, idx, bytes, kmers) {
            Ok(built) => {
                let work = built.vertices;
                (Some(built), work)
            }
            Err(failure) => {
                self.fail(idx, failure);
                (None, 0)
            }
        }
    }

    /// Routes partition `idx`'s failure: a fatal one — or any, in a
    /// strict run — becomes the run's first error and cancels the
    /// pipeline, so remaining partitions are abandoned instead of
    /// processed to completion; a partition-local one in a non-strict
    /// run sets the partition aside and the run goes on.
    pub(crate) fn fail(&self, idx: usize, failure: Failure) {
        if failure.fatal || self.config.strict {
            let _ = self.first_error.set(failure.error);
            self.cancel.cancel();
        } else {
            let reason = failure.error.to_string();
            self.quarantined.lock().push(QuarantinedPartition { index: idx, reason });
        }
    }

    /// Whether the run was cancelled (it turned fatal).
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Appends `event`, about partition `idx`, to the run journal. A
    /// journal that cannot be written no longer describes the work
    /// directory, so the failure is fatal in strict and non-strict runs
    /// alike. Returns whether the run may go on.
    pub(crate) fn journaled(&self, idx: usize, event: JournalEvent) -> bool {
        let appended = self.journal.append(&event);
        appended.map_err(|e| self.fail(idx, Failure::fatal(e))).is_ok()
    }

    /// [`subgraph_path`] in this step's work directory.
    pub(crate) fn subgraph_path(&self, idx: usize) -> PathBuf {
        subgraph_path(&self.config.work_dir, idx)
    }

    /// The one output path, for a partition built here or by another
    /// process: [`persist`] it — the image committed unless it is
    /// [`on_disk`](Built::on_disk) already or the user keeps no subgraph
    /// files, then its
    /// `sub-split` and `subgraph-committed` journaled — fold what
    /// building it measured into this step's accounting, and hand the
    /// partition to the graph (the MSP cut makes every partition's keys
    /// new to it), nothing decoded or hashed. A committed partition
    /// enters as its file's mapping ([`DeBruijnGraph::absorb_file`]:
    /// through the handle it was checked by, or the file reopened right
    /// after its rename) and the image is dropped, so the graph holds no
    /// second copy of the file. Without `write_subgraphs` the image
    /// itself enters, one `Vec` changing owner
    /// ([`DeBruijnGraph::absorb_encoded`]).
    /// A partition that fails to persist is routed through
    /// [`fail`](Self::fail) and stays out of the graph and the counts.
    pub(crate) fn settle(
        &self,
        io: &ThrottledIo,
        graph: &mut DeBruijnGraph,
        idx: usize,
        built: Built,
    ) {
        let keep = self.config.write_subgraphs;
        let image = (keep && built.on_disk.is_none()).then_some(built.image.as_slice());
        let work_dir = &self.config.work_dir;
        if let Err(failure) = persist(io, self.journal, work_dir, idx, image, built.fanout, keep) {
            return self.fail(idx, failure);
        }
        self.total_contention.lock().merge(&built.contention);
        self.total_replayed.fetch_add(built.replayed_kmers, Ordering::Relaxed);
        self.total_resizes.fetch_add(built.resizes, Ordering::Relaxed);
        self.peak_table.fetch_max(built.peak_table_bytes, Ordering::Relaxed);
        self.peak_table_slots.fetch_max(built.peak_table_slots, Ordering::Relaxed);
        self.peak_partition.fetch_max(built.partition_bytes, Ordering::Relaxed);
        if built.fanout >= 2 {
            self.sub_splits.lock().push((idx, built.fanout));
        }
        // Without `write_subgraphs` a worker's file is only its result
        // channel, removed after the step: the run stays owned.
        let committed = match (keep, built.on_disk) {
            (true, Some(file)) => Some(file),
            (true, None) => File::open(self.subgraph_path(idx)).ok(),
            (false, _) => None,
        };
        match committed {
            Some(file) => graph.absorb_file(&file, &built.image),
            None => graph.absorb_encoded(built.image),
        }
    }

    /// Turns the accumulated counters into the step report — or, on the
    /// abort path, deletes partial subgraph output and surfaces the first
    /// fatal error.
    pub(crate) fn finish(
        self,
        pipeline_report: PipelineReport,
        graph: DeBruijnGraph,
    ) -> Result<(DeBruijnGraph, StepReport)> {
        let quarantined = self.quarantined.into_inner();
        // Output-stage completion order is nondeterministic under
        // multithreading; the report must not be.
        let mut sub_splits = self.sub_splits.into_inner();
        sub_splits.sort_unstable();
        if let Some(e) = self.first_error.into_inner() {
            // Abort path: whatever subgraph files were persisted describe
            // a partial run — delete them so nothing downstream mistakes
            // them for a complete graph.
            if self.config.write_subgraphs {
                let _ = std::fs::remove_dir_all(self.config.work_dir.join("subgraphs"));
            }
            return Err(e);
        }
        // Quarantine marks are durable state too: record them so a
        // resumed run knows these partitions were *examined and set
        // aside*, not merely unprocessed.
        for q in &quarantined {
            self.journal.append(&JournalEvent::Quarantined(q.index, q.reason.clone()))?;
        }
        let deltas = device_deltas(self.config, &self.baselines);
        let (cpu_compute, gpu_compute) =
            split_device_times(self.config, &pipeline_report.shares, &deltas);
        let report = StepReport {
            step: 2,
            pipeline: pipeline_report,
            cpu_compute,
            gpu_compute,
            device_metrics: deltas,
            contention: Some(self.total_contention.into_inner()),
            replayed_kmers: self.total_replayed.into_inner(),
            step1_stats: None,
            resizes: self.total_resizes.into_inner(),
            peak_partition_bytes: self.peak_partition.into_inner(),
            peak_table_bytes: self.peak_table.into_inner(),
            peak_table_slots: self.peak_table_slots.into_inner(),
            peak_resident_store_bytes: 0,
            seal: Duration::ZERO,
            quarantined,
            sub_splits,
        };
        Ok((graph, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step1::tests::step1;
    use dna::SeqRead;
    use pipeline::IoMode;

    /// Step 2 over every partition file of `manifest`, journaled.
    fn step2(
        cfg: &ParaHashConfig,
        manifest: &PartitionManifest,
        journal: &RunJournal,
        io: &ThrottledIo,
    ) -> Result<(DeBruijnGraph, StepReport)> {
        step2_feed(cfg, &manifest_feed(manifest), io, journal, Resumed::nothing(cfg.k))
    }

    fn reads() -> Vec<SeqRead> {
        vec![
            SeqRead::from_ascii("a", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
            SeqRead::from_ascii("b", b"TGATGGATGATGGATGGTAGCATACGTTGCAT"),
            SeqRead::from_ascii("c", b"GGCATTAGCCAGTACGGATCACCGTATGCAAT"),
        ]
    }

    fn config(dir: &str) -> ParaHashConfig {
        ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(6)
            .cpu_threads(2)
            .work_dir(std::env::temp_dir().join(dir))
            .build()
            .unwrap()
    }

    /// Ground truth without MSP, tables or replay: every k-mer of every
    /// read merged straight into the graph.
    fn reference(reads: &[SeqRead], k: usize) -> DeBruijnGraph {
        let mut g = DeBruijnGraph::new(k);
        for seq in reads.iter().map(SeqRead::seq) {
            for (i, kmer) in seq.kmers(k).enumerate() {
                let left = i.checked_sub(1).map(|j| seq.base(j));
                let right = (i + k < seq.len()).then(|| seq.base(i + k));
                let (canon, orient) = kmer.canonical();
                let mut data = hashgraph::VertexData { count: 1, edges: [0; 8] };
                for slot in hashgraph::edge_slots_for(orient, left, right).into_iter().flatten() {
                    data.edges[slot as usize] += 1;
                }
                g.merge_vertex(canon, data);
            }
        }
        g
    }

    #[test]
    fn step2_reconstructs_reference_graph() {
        let cfg = config("parahash-step2-ref");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, _, journal) = step1(&cfg, &rs);
        let (graph, report) = step2(&cfg, &manifest, &journal, &io).unwrap();
        assert_eq!(graph, reference(&rs, 7));
        assert_eq!(report.step, 2);
        assert_eq!(report.pipeline.partitions, 6);
        let c = report.contention.unwrap();
        assert_eq!(c.operations(), manifest.total_kmers());
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn step2_with_gpu_pays_transfers_and_memory() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(4)
            .no_cpu()
            .sim_gpu(hetsim::SimGpuConfig::default())
            .work_dir(std::env::temp_dir().join("parahash-step2-gpu"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, _, journal) = step1(&cfg, &rs);
        let (graph, _) = step2(&cfg, &manifest, &journal, &io).unwrap();
        assert_eq!(graph, reference(&rs, 7));
        let m = cfg.devices()[0].metrics();
        assert!(m.bytes_to_device > 0);
        assert!(m.bytes_from_device > 0);
        assert!(m.peak_memory > 0, "hash tables must reserve device memory");
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// The simulated GPU's device→host copy of each snapshot is metered
    /// at the slot's key width: ⌈k/32⌉ key words, the count and eight
    /// edge counters a vertex — on both sides of the 32-base word.
    #[test]
    fn gpu_snapshot_copy_follows_the_key_width() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let reads: Vec<SeqRead> = (0..40)
            .map(|i| {
                let ascii: Vec<u8> = (0..100)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        b"ACGT"[(state >> 33) as usize & 3]
                    })
                    .collect();
                SeqRead::from_ascii(format!("r{i}"), &ascii)
            })
            .collect();
        for (k, width) in [(27, 44), (33, 52)] {
            let cfg = ParaHashConfig::builder()
                .k(k)
                .p(11)
                .partitions(4)
                .no_cpu()
                .sim_gpu(hetsim::SimGpuConfig::default())
                .work_dir(std::env::temp_dir().join(format!("parahash-step2-gpu-width-{k}")))
                .build()
                .unwrap();
            let _ = std::fs::remove_dir_all(cfg.work_dir());
            let outcome = crate::ParaHash::new(cfg.clone()).unwrap().run(&reads).unwrap();
            let report = &outcome.report;
            assert_eq!(report.distinct_vertices, reference(&reads, k).distinct_vertices());
            let [gpu] = report.step2.device_metrics.as_slice() else {
                panic!("k={k}: one device, got {:?}", report.step2.device_metrics)
            };
            assert_eq!(gpu.bytes_from_device, report.distinct_vertices as u64 * width, "k={k}");
            std::fs::remove_dir_all(cfg.work_dir()).unwrap();
        }
    }

    #[test]
    fn subgraph_encoding_roundtrips() {
        let cfg = config("parahash-step2-enc");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _, journal) = step1(&cfg, &reads());
        let (graph, _) = step2(&cfg, &manifest, &journal, &io).unwrap();
        // Round-trip the whole graph as one subgraph.
        let entries: Vec<_> = graph.iter().collect();
        let sub = SubGraph::new(7, entries);
        let decoded = decode_subgraph(&encode_subgraph(&sub)).unwrap();
        let mut a = sub.into_entries();
        let mut b = decoded.into_entries();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        assert_eq!(a, b);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// The on-disk format is frozen, whatever sorts and checksums it:
    /// these are the bytes of five shuffled vertices at k = 27, 40 and 65
    /// (one, two and three key words) with counters of width 1, 2 and 4
    /// (count `base + i` for `base` = 10, 1000, 100 000; edges `10·i + e`).
    ///
    /// Derivation, independent of this encoder: the previous (68-byte
    /// record) encoder wrote the same vertices; each of its files was
    /// narrowed by inserting `w` after `k`, keeping each record's first
    /// ⌈k/32⌉ key words and each `u32` counter's low `w` bytes (the
    /// dropped bytes all zero), and recomputing the CRC-32. Its `w = 2`
    /// k = 27 and 40 files were this test's earlier fixtures. Equal
    /// leading bases tie the sort across key words: the k = 40 order is
    /// decided in the second word, the k = 65 order in the third.
    #[test]
    fn encoding_matches_golden_bytes() {
        let (head_a, head_b) =
            ("ACGTACGTACGTACGTACGTACGTACGTACGT", "ACGTACGTACGTACGTACGTACGTACGTACGA");
        let (long_a, long_b) = (head_a.repeat(2), format!("{head_a}{head_b}"));
        let kmers = |k: usize| -> Vec<String> {
            match k {
                27 => [
                    "GATTACAGATTACAGATTACAGATTAC",
                    "ACGTACGTACGTACGTACGTACGTACG",
                    "TTTTTTTTTTTTTTTTTTTTTTTTTTT",
                    "ACGTACGTACGTACGTACGTACGTACC",
                    "CCCCCCCCCCCCCCCCCCCCCCCCCCA",
                ]
                .map(String::from)
                .to_vec(),
                40 => vec![
                    format!("{head_a}TTTTTTTT"),
                    format!("{head_b}GGGGGGGG"),
                    format!("{head_a}AAAAAAAC"),
                    format!("{head_b}GGGGGGGA"),
                    format!("{head_a}AAAAAAAA"),
                ],
                _ => vec![
                    format!("{long_a}T"),
                    format!("{long_b}G"),
                    format!("{long_a}C"),
                    format!("{long_b}A"),
                    format!("{long_a}A"),
                ],
            }
        };
        let encode = |w: usize, k: usize| {
            let base = [10, 1000, 100_000][w.trailing_zeros() as usize];
            let entries = kmers(k)
                .iter()
                .zip(0u32..)
                .map(|(s, i)| {
                    let edges = std::array::from_fn(|e| i * 10 + e as u32);
                    (s.parse::<dna::Kmer>().unwrap(), hashgraph::VertexData { count: base + i, edges })
                })
                .collect();
            encode_subgraph(&SubGraph::new(k, entries))
        };
        let golden: [(usize, usize, u32, &[&str]); 9] = [
            (1, 27, 0xAACE_6D86, &[
                "05000000000000001b0100141b1b1b1b1b1b0d1e1f20212223242500181b1b1b1b1b1b0b0a0b0c0d0e0f1011",
                "00505555555555550e28292a2b2c2d2e2f00c423f1483c128f0a000102030405060700fcffffffffffff0c14",
                "15161718191a1b866dceaa",
            ]),
            (1, 40, 0xD85F_DA64, &[
                "05000000000000002801181b1b1b1b1b1b1b000000000000a8aa0d1e1f202122232425181b1b1b1b1b1b1b00",
                "0000000000aaaa0b0a0b0c0d0e0f10111b1b1b1b1b1b1b1b00000000000000000e28292a2b2c2d2e2f1b1b1b",
                "1b1b1b1b1b00000000000001000c1415161718191a1b1b1b1b1b1b1b1b1b000000000000ffff0a0001020304",
                "05060764da5fd8",
            ]),
            (1, 65, 0x7957_3FC0, &[
                "050000000000000041011b1b1b1b1b1b1b1b181b1b1b1b1b1b1b00000000000000000d1e1f2021222324251b",
                "1b1b1b1b1b1b1b181b1b1b1b1b1b1b00000000000000800b0a0b0c0d0e0f10111b1b1b1b1b1b1b1b1b1b1b1b",
                "1b1b1b1b00000000000000000e28292a2b2c2d2e2f1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b00000000000000",
                "400c1415161718191a1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b00000000000000c00a0001020304050607c0",
                "3f5779",
            ]),
            (2, 27, 0xC04F_D90B, &[
                "05000000000000001b0200141b1b1b1b1b1beb031e001f0020002100220023002400250000181b1b1b1b1b1b",
                "e9030a000b000c000d000e000f00100011000050555555555555ec03280029002a002b002c002d002e002f00",
                "00c423f1483c128fe8030000010002000300040005000600070000fcffffffffffffea031400150016001700",
                "180019001a001b000bd94fc0",
            ]),
            (2, 40, 0x76FE_40D8, &[
                "05000000000000002802181b1b1b1b1b1b1b000000000000a8aaeb031e001f00200021002200230024002500",
                "181b1b1b1b1b1b1b000000000000aaaae9030a000b000c000d000e000f00100011001b1b1b1b1b1b1b1b0000",
                "000000000000ec03280029002a002b002c002d002e002f001b1b1b1b1b1b1b1b0000000000000100ea031400",
                "150016001700180019001a001b001b1b1b1b1b1b1b1b000000000000ffffe803000001000200030004000500",
                "06000700d840fe76",
            ]),
            (2, 65, 0x5446_B723, &[
                "050000000000000041021b1b1b1b1b1b1b1b181b1b1b1b1b1b1b0000000000000000eb031e001f0020002100",
                "22002300240025001b1b1b1b1b1b1b1b181b1b1b1b1b1b1b0000000000000080e9030a000b000c000d000e00",
                "0f00100011001b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b0000000000000000ec03280029002a002b002c002d00",
                "2e002f001b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b0000000000000040ea031400150016001700180019001a00",
                "1b001b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b00000000000000c0e80300000100020003000400050006000700",
                "23b74654",
            ]),
            (4, 27, 0x2519_E830, &[
                "05000000000000001b0400141b1b1b1b1b1ba38601001e0000001f0000002000000021000000220000002300",
                "0000240000002500000000181b1b1b1b1b1ba18601000a0000000b0000000c0000000d0000000e0000000f00",
                "000010000000110000000050555555555555a486010028000000290000002a0000002b0000002c0000002d00",
                "00002e0000002f00000000c423f1483c128fa086010000000000010000000200000003000000040000000500",
                "0000060000000700000000fcffffffffffffa286010014000000150000001600000017000000180000001900",
                "00001a0000001b00000030e81925",
            ]),
            (4, 40, 0xFA49_D99C, &[
                "05000000000000002804181b1b1b1b1b1b1b000000000000a8aaa38601001e0000001f000000200000002100",
                "000022000000230000002400000025000000181b1b1b1b1b1b1b000000000000aaaaa18601000a0000000b00",
                "00000c0000000d0000000e0000000f00000010000000110000001b1b1b1b1b1b1b1b0000000000000000a486",
                "010028000000290000002a0000002b0000002c0000002d0000002e0000002f0000001b1b1b1b1b1b1b1b0000",
                "000000000100a28601001400000015000000160000001700000018000000190000001a0000001b0000001b1b",
                "1b1b1b1b1b1b000000000000ffffa08601000000000001000000020000000300000004000000050000000600",
                "0000070000009cd949fa",
            ]),
            (4, 65, 0xCC05_9825, &[
                "050000000000000041041b1b1b1b1b1b1b1b181b1b1b1b1b1b1b0000000000000000a38601001e0000001f00",
                "00002000000021000000220000002300000024000000250000001b1b1b1b1b1b1b1b181b1b1b1b1b1b1b0000",
                "000000000080a18601000a0000000b0000000c0000000d0000000e0000000f00000010000000110000001b1b",
                "1b1b1b1b1b1b1b1b1b1b1b1b1b1b0000000000000000a486010028000000290000002a0000002b0000002c00",
                "00002d0000002e0000002f0000001b1b1b1b1b1b1b1b1b1b1b1b1b1b1b1b0000000000000040a28601001400",
                "000015000000160000001700000018000000190000001a0000001b0000001b1b1b1b1b1b1b1b1b1b1b1b1b1b",
                "1b1b00000000000000c0a0860100000000000100000002000000030000000400000005000000060000000700",
                "0000259805cc",
            ]),
        ];
        for (w, k, crc, lines) in golden {
            let hex = lines.concat();
            let bytes: Vec<u8> =
                (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect();
            assert_eq!(encode(w, k), bytes, "w={w} k={k}");
            assert_eq!((bytes[8], bytes[9]), (k as u8, w as u8));
            assert_eq!(bytes.len(), 10 + 5 * (k.div_ceil(32) * 8 + 9 * w) + 4, "w={w} k={k}");
            assert_eq!(&bytes[bytes.len() - 4..], &crc.to_le_bytes(), "w={w} k={k}");
        }
    }

    /// Formatting is compute-stage work, and only a subgraph that will be
    /// persisted is sorted: with `write_subgraphs(false)` a built
    /// partition carries its vertices packed in table order, with it on
    /// exactly [`encode_subgraph`]'s bytes of the same vertices.
    #[test]
    fn compute_stage_sorts_only_what_is_persisted() {
        let images = |write: bool| {
            let cfg = ParaHashConfig::builder()
                .k(7)
                .p(4)
                .partitions(3)
                .cpu_threads(2)
                .write_subgraphs(write)
                .work_dir(std::env::temp_dir().join(format!("parahash-step2-encodes-{write}")))
                .build()
                .unwrap();
            let _ = std::fs::remove_dir_all(cfg.work_dir());
            let (manifest, _, _) = step1(&cfg, &reads());
            let builder = PartitionBuilder::new(&cfg);
            let images: Vec<(Vec<u8>, u64)> = (0..manifest.num_partitions())
                .map(|i| {
                    let bytes = std::fs::read(manifest.partition_path(i)).unwrap();
                    let kmers = manifest.stats()[i].kmers;
                    let built = builder.build(cfg.devices()[0].as_ref(), i, bytes, kmers);
                    let built = built.unwrap_or_else(|_| panic!("clean partition {i} builds"));
                    (built.image, built.vertices)
                })
                .collect();
            std::fs::remove_dir_all(cfg.work_dir()).unwrap();
            images
        };
        let both = images(false).into_iter().zip(images(true));
        for (i, ((packed, work), (encoded, _))) in both.enumerate() {
            let vertices = decode_subgraph(&packed).expect("a packed image is a whole container");
            assert_eq!(work, vertices.len() as u64);
            assert_eq!(encoded, encode_subgraph(&vertices), "partition {i}");
        }
    }

    /// A subgraph whose commit fails in a non-strict run is quarantined
    /// *before* the merge: no file, and none of its vertices in the graph.
    #[test]
    fn non_strict_commit_failure_keeps_the_partition_out_of_the_graph() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(6)
            .cpu_threads(2)
            .strict(false)
            .write_subgraphs(true)
            .work_dir(std::env::temp_dir().join("parahash-step2-commitfail"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, _, journal) = step1(&cfg, &rs);
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].kmers)
            .unwrap();
        let victim_file = format!("sub-{victim:05}.dbg");
        let doomed = victim_file.clone();
        io.set_fault_hook(Box::new(move |path, op, _| {
            (op == pipeline::IoOp::Write && path.ends_with(&doomed)).then(|| {
                std::io::Error::new(std::io::ErrorKind::PermissionDenied, "injected commit failure")
            })
        }));
        let (graph, report) = step2(&cfg, &manifest, &journal, &io).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, victim);
        assert!(report.quarantined[0].reason.contains("injected commit failure"));
        assert_eq!(
            graph.total_kmer_occurrences(),
            manifest.total_kmers() - manifest.stats()[victim].kmers,
            "the graph must miss exactly the uncommitted partition"
        );
        let sub_dir = cfg.work_dir().join("subgraphs");
        assert!(!sub_dir.join(&victim_file).exists());
        assert_eq!(std::fs::read_dir(&sub_dir).unwrap().count(), 5, "the other five committed");
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn decode_rejects_truncated_input() {
        assert!(decode_subgraph(&[]).is_none());
        assert!(decode_subgraph(&[1, 0, 0, 0, 0, 0, 0, 0, 7]).is_none(), "promises 1 entry, has none");
        // Promises 1 entry, has none, but carries a (valid) CRC trailer.
        let mut short = vec![1u8, 0, 0, 0, 0, 0, 0, 0, 7];
        let crc = msp::crc32(&short);
        short.extend_from_slice(&crc.to_le_bytes());
        assert!(decode_subgraph(&short).is_none());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let cfg = config("parahash-step2-trailing");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _, journal) = step1(&cfg, &reads());
        let (graph, _) = step2(&cfg, &manifest, &journal, &io).unwrap();
        let entries: Vec<_> = graph.iter().collect();
        assert!(entries.len() >= 2, "need several records for this test");
        let sub = SubGraph::new(7, entries.clone());
        let encoded = encode_subgraph(&sub);
        assert!(decode_subgraph(&encoded).is_some(), "sanity: clean input decodes");

        // (a) Appended garbage breaks the CRC trailer.
        let mut appended = encoded.clone();
        appended.extend_from_slice(b"junk");
        assert!(decode_subgraph(&appended).is_none(), "appended bytes must be rejected");

        // (b) The adversarial case the CRC alone cannot catch: decrement
        // the record count and *recompute a valid trailer*, so the file
        // checksums cleanly but carries one whole record of trailing
        // bytes. Only the `offset == body.len()` check rejects this.
        let mut body = encoded[..encoded.len() - 4].to_vec();
        let n = u64::from_le_bytes(body[..8].try_into().unwrap());
        body[..8].copy_from_slice(&(n - 1).to_le_bytes());
        let crc = msp::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(
            decode_subgraph(&body).is_none(),
            "undeclared trailing record must be rejected even with a valid CRC"
        );
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn non_strict_run_quarantines_corrupt_partition() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(6)
            .cpu_threads(2)
            .strict(false)
            .work_dir(std::env::temp_dir().join("parahash-step2-quarantine"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let rs = reads();
        let (manifest, _, journal) = step1(&cfg, &rs);
        // Flip one payload byte in the largest partition: the frame
        // checksum catches it and the partition is set aside.
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].bytes)
            .unwrap();
        let path = manifest.partition_path(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = msp::FRAME_HEADER_LEN + (bytes.len() - msp::FRAME_HEADER_LEN) / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (graph, report) = step2(&cfg, &manifest, &journal, &io).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, victim);
        assert!(
            report.quarantined[0].reason.contains("checksum mismatch"),
            "{}",
            report.quarantined[0].reason
        );
        // The graph is missing exactly the victim's k-mers.
        let full = reference(&rs, 7);
        assert!(graph.total_kmer_occurrences() < full.total_kmer_occurrences());
        assert_eq!(
            graph.total_kmer_occurrences(),
            manifest.total_kmers() - manifest.stats()[victim].kmers
        );
        // The report and the journal record it; the manifest on disk is
        // still what Step 1 wrote.
        let journaled = RunJournal::replay(cfg.work_dir()).unwrap().quarantined;
        assert_eq!(journaled.iter().map(|q| q.0).collect::<Vec<_>>(), [victim]);
        assert_eq!(PartitionManifest::load(manifest.dir()).unwrap(), manifest);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn strict_abort_deletes_partial_subgraph_output() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(6)
            .cpu_threads(1)
            .write_subgraphs(true)
            .work_dir(std::env::temp_dir().join("parahash-step2-abortclean"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _, journal) = step1(&cfg, &reads());
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].bytes)
            .unwrap();
        let path = manifest.partition_path(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();

        assert!(step2(&cfg, &manifest, &journal, &io).is_err());
        let sub_dir = cfg.work_dir().join("subgraphs");
        assert!(
            !sub_dir.exists(),
            "aborted run must not leave partial subgraph files behind"
        );
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn write_subgraphs_persists_files() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(3)
            .cpu_threads(1)
            .write_subgraphs(true)
            .work_dir(std::env::temp_dir().join("parahash-step2-persist"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _, journal) = step1(&cfg, &reads());
        let (graph, _) = step2(&cfg, &manifest, &journal, &io).unwrap();
        // Reload all persisted subgraphs; their union is the graph.
        let mut reloaded = DeBruijnGraph::new(7);
        for i in 0..3 {
            let bytes = std::fs::read(cfg.work_dir().join("subgraphs").join(format!("sub-{i:05}.dbg"))).unwrap();
            reloaded.absorb(decode_subgraph(&bytes).unwrap());
        }
        assert_eq!(reloaded, graph);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn corrupt_partition_file_surfaces_error() {
        let cfg = config("parahash-step2-corrupt");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _, journal) = step1(&cfg, &reads());
        // Truncate the largest partition file mid-record.
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].bytes)
            .unwrap();
        let path = manifest.partition_path(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(step2(&cfg, &manifest, &journal, &io).is_err());
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }
}
