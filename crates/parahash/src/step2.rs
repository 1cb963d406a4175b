use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

pub use hashgraph::encode_subgraph;
use hashgraph::{
    table_capacity_for, ContentionStats, DeBruijnGraph, HashGraphError, ReplayKernel, SubGraph,
    TablePool, VERTEX_BYTES,
};
use hetsim::{Device, DeviceKind};
use msp::{PartitionManifest, PartitionSlices, SealedPartition, SealedPayload};
use parking_lot::Mutex;
use pipeline::{
    failpoint, run_pipeline, CancelToken, PipelineReport, SharedCounterQueue, ThrottledIo,
};

use crate::journal::{JournalEvent, RunJournal};
use crate::step1::{device_baselines, device_deltas, split_device_times};
use crate::{ParaHashConfig, ParaHashError, QuarantinedPartition, Result, StepReport};

/// Output of one Step-2 compute launch. `None` marks a partition whose
/// failure was already recorded (fatal error or quarantine) — the output
/// stage must neither absorb nor persist it.
struct Part2Out {
    subgraph: SubGraph,
    /// The finished `sub-XXXXX.dbg` file image ([`encode_subgraph`]'s
    /// bytes, CRC trailer included), formatted by the compute stage so
    /// the output stage only writes. `None` iff
    /// [`write_subgraphs`](crate::ParaHashConfigBuilder::write_subgraphs)
    /// is off — nothing is encoded that nothing will persist.
    encoded: Option<Vec<u8>>,
    contention: ContentionStats,
    resizes: usize,
}

/// What one table build (or the merge of a split partition's sub-builds)
/// yields: the entries in no particular order, and what building cost.
type Built = (SubGraph, ContentionStats, usize);

/// Hard cap on the out-of-core sub-partition fanout. A tiny table budget
/// against a huge partition would otherwise ask for thousands of
/// sub-buffers whose per-sub framing and bookkeeping dwarf the split's
/// benefit; past this point each sub-table simply runs over budget (the
/// split is best-effort, never recursive — see
/// [`Step2Shared::build_split`]).
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
    hashgraph::decode_subgraph(bytes).map_err(|e| match e {
        hashgraph::StoreError::Corrupt { offset, reason } => {
            let whose = partition.map_or(String::new(), |i| format!("subgraph for partition {i}, "));
            let reason = format!("{whose}byte {offset}: {reason}");
            ParaHashError::Msp(msp::MspError::CorruptRecord { offset, reason })
        }
        other => ParaHashError::Io(std::io::Error::other(other)),
    })
}

/// Step 2 of ParaHash: pipelined, co-processed subgraph construction.
///
/// Each superkmer partition is read from disk (checksummed frames are
/// verified in place), decoded, and replayed into a
/// [`hashgraph::ConcurrentDbgTable`] sized by the Property-1 rule from
/// the manifest's per-partition k-mer count. On a GPU device, the encoded
/// partition pays the host→device transfer and the table reserves device
/// memory; the snapshot pays the device→host transfer.
///
/// Failure handling is two-tier:
///
/// * **Strict mode** (the default): the first fatal error cancels the
///   pipeline — remaining partitions are abandoned, partial subgraph
///   output is deleted, and the error is returned.
/// * **Non-strict mode**
///   ([`strict(false)`](crate::ParaHashConfigBuilder::strict)): a
///   partition whose file
///   cannot be read (after [`pipeline::RetryPolicy`] retries) or fails
///   its checksums is *quarantined* — recorded in the step report — and
///   the run completes without its k-mers. Device and hash-table
///   failures stay fatal in both modes: they indicate the run
///   environment, not one bad file.
///
/// Returns the merged De Bruijn graph and the step report. This
/// step-level entry keeps no journal: quarantines and sub-splits are in
/// the returned [`StepReport`] only. The durable record is the run
/// journal the [`ParaHash`](crate::ParaHash) `run*` drivers write.
///
/// # Errors
///
/// Propagates partition-file corruption, I/O failures, and device-memory
/// exhaustion (the first two only in strict mode).
pub fn run_step2(
    config: &ParaHashConfig,
    manifest: &PartitionManifest,
    io: &ThrottledIo,
) -> Result<(DeBruijnGraph, StepReport)> {
    let feed = manifest_feed(manifest);
    let cancel = CancelToken::new();
    run_step2_feed(config, &feed, io, &cancel, None, Resumed::nothing(config.k))
}

/// Where partition `i`'s committed subgraph lives under `work_dir`.
pub(crate) fn subgraph_path(work_dir: &Path, i: usize) -> PathBuf {
    work_dir.join("subgraphs").join(format!("sub-{i:05}.dbg"))
}

/// What an interrupted run already finished, as the resume plan verified
/// it: the partitions whose subgraph files are committed and whole, and
/// the graph those files were decoded into. Step 2 skips the former and
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

/// The disk handoff as a Step-2 feed: every partition of a finished
/// manifest, in index order, as a payload to read back from its file —
/// exactly what a [`msp::PartitionStore`] seals for a partition it
/// spilled.
pub(crate) fn manifest_feed(manifest: &PartitionManifest) -> SharedCounterQueue<SealedPartition> {
    SharedCounterQueue::filled(manifest.stats().iter().enumerate().map(|(index, stats)| {
        SealedPartition {
            index,
            superkmers: stats.superkmers,
            kmers: stats.kmers,
            bytes: stats.bytes,
            payload: SealedPayload::Spilled(manifest.partition_path(index)),
        }
    }))
}

/// The one Step-2 runner: builds the subgraph of every
/// [`SealedPartition`] arriving on `feed`. The handoff between the steps
/// is a storage choice carried by the payload, not a second algorithm —
/// resident payloads (the fused pipeline's in-memory handoff) are used by
/// value and skip the disk entirely; spilled payloads (a partition the
/// store spilled, or every partition of a [`manifest_feed`]) are read
/// back with the usual retry policy. The feed may still be growing: the
/// fused driver pushes partitions as Step 1 seals them.
///
/// Crash-recovery hooks: an optional [`RunJournal`] receives a
/// `subgraph-committed` record after every atomic subgraph commit (and
/// `quarantined` records at the end); partitions in
/// [`Resumed::committed`] — their subgraphs were committed by an
/// interrupted run and are already in [`Resumed::graph`] — flow through
/// as no-ops.
///
/// The caller owns `feed` (finish it at end of stream, close it to
/// abort) and `cancel`; a fatal error in here cancels the token, which a
/// concurrent Step 1 must observe.
///
/// # Errors
///
/// Same as [`run_step2`].
pub(crate) fn run_step2_feed(
    config: &ParaHashConfig,
    feed: &SharedCounterQueue<SealedPartition>,
    io: &ThrottledIo,
    cancel: &CancelToken,
    journal: Option<&RunJournal>,
    resumed: Resumed,
) -> Result<(DeBruijnGraph, StepReport)> {
    if config.write_subgraphs {
        std::fs::create_dir_all(config.work_dir.join("subgraphs"))?;
    }
    let shared = Step2Shared::new(config, cancel, journal);
    let Resumed { committed: skip, mut graph } = resumed;
    let pipeline_report = shared.run(feed, io, &skip, &mut graph);
    shared.finish(pipeline_report, graph)
}

/// The Step-2 engine's state, one per step: failure routing
/// (fatal-vs-quarantine), the pooled capacity-retry hash construction,
/// subgraph persistence and absorption, and report assembly.
/// [`run_step2_feed`] is [`run`](Self::run) then [`finish`](Self::finish);
/// the sharded driver ([`crate::shard`]) puts a lease phase in front —
/// partitions built by other processes enter through
/// [`absorb_verified`](Self::absorb_verified) — and a shard worker builds
/// one lease at a time through [`build_lease`].
pub(crate) struct Step2Shared<'a> {
    config: &'a ParaHashConfig,
    cancel: &'a CancelToken,
    /// Recycles table allocations across partitions (and across the
    /// capacity-retry rebuilds): the alloc+zero churn of one fresh
    /// `ConcurrentDbgTable` per partition becomes a handful of
    /// allocations total, because partition sizes cluster into a few
    /// capacity classes.
    pool: TablePool,
    total_contention: Mutex<ContentionStats>,
    total_resizes: AtomicUsize,
    peak_table: AtomicU64,
    peak_partition: AtomicU64,
    first_error: OnceLock<ParaHashError>,
    quarantined: Mutex<Vec<QuarantinedPartition>>,
    /// `(partition, fanout)` for every partition whose projected table
    /// busted [`table_memory_budget`](crate::ParaHashConfigBuilder::table_memory_budget)
    /// and was built out of core through second-level sub-partitions.
    sub_splits: Mutex<Vec<(usize, usize)>>,
    sub_dir: PathBuf,
    /// When set, every durable state change (subgraph committed,
    /// partition quarantined) is appended to the run journal so a
    /// crashed run can be resumed without redoing the work.
    journal: Option<&'a RunJournal>,
    /// The replay dispatcher, built once per step: word-parallel
    /// single-`u64` fast path for k ≤ 32, scalar cursor otherwise (and
    /// under `PARAHASH_FORCE_SCALAR`, captured at construction).
    kernel: ReplayKernel,
    /// Device-metric snapshots taken at the *first* compute launch (not
    /// at construction): in the fused flow this struct exists while
    /// Step 1 still owns the shared device roster, but Step 2's first
    /// build strictly follows Step 1's last device call — so a lazy
    /// baseline fences Step 1's meters out of this step's window.
    baselines: OnceLock<Vec<hetsim::DeviceMetrics>>,
}

impl<'a> Step2Shared<'a> {
    /// The caller creates `work_dir/subgraphs` before anything commits
    /// there (a wire worker never does, and must not touch its disk).
    pub(crate) fn new(
        config: &'a ParaHashConfig,
        cancel: &'a CancelToken,
        journal: Option<&'a RunJournal>,
    ) -> Step2Shared<'a> {
        Step2Shared {
            config,
            cancel,
            journal,
            pool: TablePool::new(config.k),
            total_contention: Mutex::new(ContentionStats::default()),
            total_resizes: AtomicUsize::new(0),
            peak_table: AtomicU64::new(0),
            peak_partition: AtomicU64::new(0),
            first_error: OnceLock::new(),
            quarantined: Mutex::new(Vec::new()),
            sub_splits: Mutex::new(Vec::new()),
            sub_dir: config.work_dir.join("subgraphs"),
            kernel: ReplayKernel::new(config.k),
            baselines: OnceLock::new(),
        }
    }

    /// The three stages over `feed`, merging into `graph`; partitions in
    /// `skip` flow through as no-ops.
    pub(crate) fn run(
        &self,
        feed: &SharedCounterQueue<SealedPartition>,
        io: &ThrottledIo,
        skip: &BTreeSet<usize>,
        graph: &mut DeBruijnGraph,
    ) -> PipelineReport {
        run_pipeline(
            feed,
            self.config.devices(),
            self.cancel,
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
                            self.partition_failed(idx, ParaHashError::Io(e));
                            None
                        }
                    },
                };
                (idx, bytes.map(|b| (b, sealed.kmers)))
            },
            // Stage 2: hash-construct the subgraph on an idle device and
            // format it (canonical sort, record encode, CRC trailer).
            |device: &dyn Device, idx, input: Option<(Vec<u8>, u64)>| {
                let Some((bytes, kmers)) = input else {
                    return (None, 0);
                };
                self.build(device, idx, bytes, kmers)
            },
            // Stage 3: commit the formatted bytes, journal, merge.
            |idx, out: Option<Part2Out>| self.consume(io, graph, idx, out),
        )
    }

    /// The first *fatal* error cancels the whole pipeline so remaining
    /// partitions are abandoned instead of processed to completion.
    pub(crate) fn fatal(&self, e: ParaHashError) {
        let _ = self.first_error.set(e);
        self.cancel.cancel();
    }

    /// Appends `event` to the run journal, if there is one. A journal
    /// that cannot be written no longer describes the work directory, so
    /// the failure is fatal in strict and non-strict runs alike. Returns
    /// whether the run may go on.
    pub(crate) fn journaled(&self, event: JournalEvent) -> bool {
        match self.journal.map(|journal| journal.append(&event)) {
            Some(Err(e)) => {
                self.fatal(e);
                false
            }
            _ => true,
        }
    }

    /// Partition-local failures (unreadable or corrupt file) either abort
    /// (strict) or set the partition aside and keep going.
    pub(crate) fn partition_failed(&self, idx: usize, e: ParaHashError) {
        if self.config.strict {
            self.fatal(e);
        } else {
            self.quarantined
                .lock()
                .push(QuarantinedPartition { index: idx, reason: e.to_string() });
        }
    }

    /// The compute stage: admit the partition against the per-table
    /// memory budget, hash-construct — in one table when the Property-1
    /// projection fits, or out of core through second-level
    /// sub-partitions when it does not — and, when subgraphs are
    /// persisted, format the result: canonical sort, record encode and
    /// CRC trailer are CPU work, so they run here, on the device driver's
    /// thread (one per device, overlapping the previous partition's
    /// commit), and leave the output stage nothing to do but write.
    fn build(
        &self,
        device: &dyn Device,
        idx: usize,
        bytes: Vec<u8>,
        n_kmers: u64,
    ) -> (Option<Part2Out>, u64) {
        self.baselines.get_or_init(|| device_baselines(self.config));
        self.peak_partition.fetch_max(bytes.len() as u64, Ordering::Relaxed);
        let projected = hashgraph::projected_table_bytes(n_kmers, self.config.sizing);
        let budget = self.config.table_memory_budget;
        let built = if projected <= budget {
            self.build_one_table(device, idx, &bytes, n_kmers)
        } else if self.config.out_of_core {
            self.build_split(device, idx, &bytes, projected)
        } else {
            self.fatal(ParaHashError::TableOverBudget {
                partition: idx,
                projected_bytes: projected,
                budget,
            });
            None
        };
        // The partition buffer has been replayed: release it before the
        // encoded copy of the subgraph is allocated, not after.
        drop(bytes);
        let Some((subgraph, contention, resizes)) = built else {
            return (None, 0);
        };
        let work = subgraph.len() as u64;
        let encoded = self.config.write_subgraphs.then(|| encode_subgraph(&subgraph));
        (Some(Part2Out { subgraph, encoded, contention, resizes }), work)
    }

    /// Out-of-core build of one over-budget partition: split its records
    /// by the second-level minimizer hash ([`msp::split_framed`]), build
    /// each sub-partition with its own budget-sized table (one live at a
    /// time — that is the point), and concatenate the sub-entries. The
    /// sub-tables are key-disjoint because every copy of a k-mer shares a
    /// minimizer, so the merged entry set — and after the canonical sort
    /// in [`encode_subgraph`], the persisted bytes — is identical to the
    /// unsplit build's.
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
    ) -> Option<Built> {
        let fanout = projected
            .div_ceil(self.config.table_memory_budget.max(1))
            .clamp(2, MAX_SUB_FANOUT as u64) as usize;
        let subs = match msp::split_framed(bytes, self.config.k, self.config.p, fanout, idx) {
            Ok(subs) => subs,
            Err(e) => {
                self.partition_failed(idx, e.into());
                return None;
            }
        };
        self.sub_splits.lock().push((idx, fanout));
        if !self.journaled(JournalEvent::SubSplit(idx, fanout)) {
            return None;
        }
        let mut entries = Vec::new();
        let mut contention = ContentionStats::default();
        let mut resizes = 0usize;
        for sub in &subs {
            if sub.superkmers == 0 {
                continue;
            }
            let (subgraph, sub_contention, sub_resizes) =
                self.build_one_table(device, idx, &sub.bytes, sub.kmers)?;
            contention.merge(&sub_contention);
            resizes += sub_resizes;
            entries.extend(subgraph.into_entries());
        }
        // The merged entries wait in the output queue next: don't let
        // the growth slack of `extend` (up to 2×) wait with them.
        entries.shrink_to_fit();
        Some((SubGraph::new(self.config.k, entries), contention, resizes))
    }

    /// One table build: index the framed bytes once, then hash-construct
    /// with pooled tables, retrying with a bigger checkout if the
    /// Property-1 estimate under-sized the table. `None` means the
    /// failure was already routed through
    /// [`partition_failed`](Self::partition_failed) / [`fatal`](Self::fatal).
    fn build_one_table(
        &self,
        device: &dyn Device,
        idx: usize,
        bytes: &[u8],
        n_kmers: u64,
    ) -> Option<Built> {
        let transfer_in = bytes.len() as u64;
        // Zero-copy decode of the framed bytes: verify every frame's
        // CRC32 once, index the record boundaries, then replay borrowed
        // `SuperkmerView`s straight out of the partition buffer — no
        // per-record heap allocation. Indexing happens once, *outside*
        // the capacity-retry loop — a retry re-reads nothing and
        // re-verifies nothing, it only swaps in a bigger table.
        let slices = match PartitionSlices::index_framed(bytes, self.config.k, self.config.p) {
            Ok(slices) => slices,
            Err(e) => {
                self.partition_failed(idx, e.into());
                return None;
            }
        };
        let mut capacity = table_capacity_for(n_kmers, self.config.sizing);
        let mut resizes = 0usize;
        loop {
            // Checked out from the pool: a recycled allocation when one
            // of this capacity class is shelved, a fresh one otherwise.
            // Dropping the guard (every exit path below) shelves it.
            let table = self.pool.checkout(capacity);
            let table_bytes = table.approx_bytes() as u64;
            self.peak_table.fetch_max(table_bytes, Ordering::Relaxed);
            let is_gpu = device.kind() == DeviceKind::SimGpu;
            if is_gpu {
                if let Err(e) = device.alloc(table_bytes) {
                    self.fatal(e.into());
                    return None;
                }
                device.transfer_to_device(transfer_in);
            }
            // The kernel: one superkmer per data-parallel item, decoded
            // in place from the partition buffer. Each worker's chunk is
            // replayed through one software-pipelined [`ReplayPipeline`],
            // so the slot-prefetch lookahead spans superkmer boundaries.
            // The `OnceLock` check lets surviving chunks bail out
            // cheaply once any item has failed.
            let kernel_error: OnceLock<HashGraphError> = OnceLock::new();
            device.execute_chunks(slices.len(), &|range| {
                let mut pipe = hashgraph::ReplayPipeline::new(self.kernel, &*table);
                for i in range {
                    if kernel_error.get().is_some() {
                        return;
                    }
                    if let Err(e) = pipe.record_view(&slices.view(i)) {
                        let _ = kernel_error.set(e);
                        return;
                    }
                }
                if let Err(e) = pipe.flush() {
                    let _ = kernel_error.set(e);
                }
            });
            match kernel_error.into_inner() {
                None => {
                    let (subgraph, contention) = table.snapshot_with_contention();
                    if is_gpu {
                        device.transfer_from_device((subgraph.len() * VERTEX_BYTES) as u64);
                        device.free(table_bytes);
                    }
                    return Some((subgraph, contention, resizes));
                }
                Some(HashGraphError::CapacityExhausted { .. }) => {
                    if is_gpu {
                        device.free(table_bytes);
                    }
                    resizes += 1;
                    // Double from the capacity actually granted (the pool
                    // rounds up to its class), so the retry is guaranteed
                    // a strictly larger class.
                    capacity = table.capacity().saturating_mul(2).max(32);
                }
                Some(e) => {
                    if is_gpu {
                        device.free(table_bytes);
                    }
                    self.fatal(e.into());
                    return None;
                }
            }
        }
    }

    /// The output stage, I/O only: commit the bytes the compute stage
    /// formatted, journal the commit, hand the subgraph's vertices to the
    /// graph — one `Vec` changing owner ([`DeBruijnGraph::absorb`]; the
    /// MSP cut makes every partition's keys new to it), nothing hashed or
    /// copied. Failure sentinels are skipped outright — an error
    /// partition must never leave a bogus `sub-XXXXX.dbg` behind or leak
    /// empty entries into the graph.
    fn consume(
        &self,
        io: &ThrottledIo,
        graph: &mut DeBruijnGraph,
        idx: usize,
        out: Option<Part2Out>,
    ) {
        let Some(out) = out else {
            return;
        };
        self.total_contention.lock().merge(&out.contention);
        self.total_resizes.fetch_add(out.resizes, Ordering::Relaxed);
        if let Some(bytes) = out.encoded {
            if !self.commit(io, idx, bytes) {
                return; // quarantined partitions stay out of the graph
            }
        }
        graph.absorb(out.subgraph);
    }

    /// [`subgraph_path`] in this step's work directory.
    pub(crate) fn subgraph_path(&self, idx: usize) -> PathBuf {
        subgraph_path(&self.config.work_dir, idx)
    }

    /// Commits one formatted subgraph as `sub-<idx>.dbg` and journals the
    /// commit. `false` means the failure was already routed through
    /// [`partition_failed`](Self::partition_failed) / [`fatal`](Self::fatal).
    fn commit(&self, io: &ThrottledIo, idx: usize, bytes: Vec<u8>) -> bool {
        let path = self.subgraph_path(idx);
        // Atomic commit (tmp + fsync + rename + dir fsync): a crash
        // anywhere in here leaves either no `sub-XXXXX.dbg` or a
        // complete, checksummed one — never a torn file.
        let committed =
            failpoint::hit("step2.subgraph.write").and_then(|()| io.commit_file(&path, &bytes));
        if let Err(e) = committed {
            self.partition_failed(idx, ParaHashError::Io(e));
            return false;
        }
        // The file image is on disk; don't hold it across the journal
        // fsync.
        drop(bytes);
        // The journal record is written strictly *after* the rename:
        // `subgraph-committed` in the journal implies the file is
        // durable and whole. (The converse is allowed — a file with no
        // record is simply re-verified or redone on resume.)
        self.journaled(JournalEvent::SubgraphCommitted(idx))
    }

    /// The output stage for a partition another process built: `subgraph`
    /// is what this process decoded from the committed, CRC-checked
    /// `sub-<idx>.dbg`, `built` what the builder measured. Journals the
    /// builder's sub-split (this journal is the run's record of it — a
    /// wire worker keeps none) and the commit, in the order
    /// [`build_split`](Self::build_split) and [`commit`](Self::commit)
    /// write them, folds the accounting into this step's and hands the
    /// vertices over — the tail of [`consume`](Self::consume), the file
    /// being on disk already.
    pub(crate) fn absorb_verified(
        &self,
        graph: &mut DeBruijnGraph,
        idx: usize,
        subgraph: SubGraph,
        partition_bytes: u64,
        built: Option<LeaseOutcome>,
    ) {
        let fanout = built.as_ref().map_or(0, |built| built.fanout);
        if fanout >= 2 && !self.journaled(JournalEvent::SubSplit(idx, fanout)) {
            return;
        }
        if !self.journaled(JournalEvent::SubgraphCommitted(idx)) {
            return;
        }
        self.peak_partition.fetch_max(partition_bytes, Ordering::Relaxed);
        if let Some(built) = built {
            self.total_resizes.fetch_add(built.resizes, Ordering::Relaxed);
            self.peak_table.fetch_max(built.peak_table_bytes, Ordering::Relaxed);
            if fanout >= 2 {
                self.sub_splits.lock().push((idx, fanout));
            }
        }
        graph.absorb(subgraph);
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
        // Compute-stage completion order is nondeterministic under
        // multithreading; the report must not be.
        let mut sub_splits = self.sub_splits.into_inner();
        sub_splits.sort_unstable();
        if let Some(e) = self.first_error.into_inner() {
            // Abort path: whatever subgraph files were persisted describe
            // a partial run — delete them so nothing downstream mistakes
            // them for a complete graph.
            if self.config.write_subgraphs {
                let _ = std::fs::remove_dir_all(&self.sub_dir);
            }
            return Err(e);
        }
        // Quarantine marks are durable state too: record them so a
        // resumed run knows these partitions were *examined and set
        // aside*, not merely unprocessed.
        if let Some(journal) = self.journal {
            for q in &quarantined {
                journal.append(&JournalEvent::Quarantined(q.index, q.reason.clone()))?;
            }
        }
        let deltas = match self.baselines.get() {
            Some(baselines) => device_deltas(self.config, baselines),
            // No partition ever reached the compute stage: the step did
            // no device work, so its window is empty.
            None => Vec::new(),
        };
        let (cpu_compute, gpu_compute) =
            split_device_times(self.config, &pipeline_report.shares, &deltas);
        let report = StepReport {
            step: 2,
            pipeline: pipeline_report,
            cpu_compute,
            gpu_compute,
            contention: Some(self.total_contention.into_inner()),
            step1_stats: None,
            resizes: self.total_resizes.into_inner(),
            peak_partition_bytes: self.peak_partition.into_inner(),
            peak_table_bytes: self.peak_table.into_inner(),
            peak_resident_store_bytes: 0,
            quarantined,
            sub_splits,
            exhausted_leases: Vec::new(),
        };
        Ok((graph, report))
    }
}

/// What [`build_lease`] measured while building one partition — the
/// payload of a shard worker's `result` wire message.
pub(crate) struct LeaseOutcome {
    /// Capacity-retry rebuilds this partition needed.
    pub resizes: usize,
    /// Peak hash-table bytes (the largest sub-table when split).
    pub peak_table_bytes: u64,
    /// Out-of-core fanout: 0 when the partition fit its budget and was
    /// built in one table, ≥ 2 when it was sub-partitioned.
    pub fanout: usize,
}

/// Builds **one** leased partition — budget-admit (splitting out of core
/// if projected over budget), hash-construct, format — outside any
/// pipeline: the unit of work of a shard worker. The lease is the
/// engine's own [`SealedPayload`]. `Spilled(path)` is a worker on the
/// parent's filesystem: it reads the partition file and commits
/// `subgraphs/sub-<idx>.dbg` (journaling into `journal`, its own), and the
/// committed file is the result channel. `Resident(bytes)` is a wire
/// worker: it builds from the bytes it was sent and gets the formatted
/// subgraph back to ship — it writes nothing. Either way no graph is
/// merged here; that is the parent's job. The caller's config must have
/// `write_subgraphs` on (the formatted bytes are the product) and `strict`
/// on, so every failure surfaces as an error: the parent owns quarantine
/// policy, not the worker.
///
/// # Errors
///
/// Any read, frame, device, or commit failure for this partition.
pub(crate) fn build_lease(
    config: &ParaHashConfig,
    idx: usize,
    payload: SealedPayload,
    n_kmers: u64,
    io: &ThrottledIo,
    journal: Option<&RunJournal>,
) -> Result<(LeaseOutcome, Option<Vec<u8>>)> {
    debug_assert!(config.strict && config.write_subgraphs);
    let cancel = CancelToken::new();
    let shared = Step2Shared::new(config, &cancel, journal);
    let (bytes, ship) = match payload {
        SealedPayload::Resident(bytes) => (bytes, true),
        SealedPayload::Spilled(path) => (io.read_file(path).map_err(ParaHashError::Io)?, false),
    };
    let (out, _) = shared.build(config.devices()[0].as_ref(), idx, bytes, n_kmers);
    let (resizes, mut encoded) = out.map_or((0, None), |out| (out.resizes, out.encoded));
    if !ship {
        if let Some(bytes) = encoded.take() {
            shared.commit(io, idx, bytes);
        }
    }
    if let Some(e) = shared.first_error.into_inner() {
        return Err(e);
    }
    let outcome = LeaseOutcome {
        resizes,
        peak_table_bytes: shared.peak_table.into_inner(),
        fanout: shared.sub_splits.into_inner().first().map_or(0, |&(_, f)| f),
    };
    Ok((outcome, encoded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_step1;
    use dna::SeqRead;
    use pipeline::IoMode;

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
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();
        let (graph, report) = run_step2(&cfg, &manifest, &io).unwrap();
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
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();
        let (graph, _) = run_step2(&cfg, &manifest, &io).unwrap();
        assert_eq!(graph, reference(&rs, 7));
        let m = cfg.devices()[0].metrics();
        assert!(m.bytes_to_device > 0);
        assert!(m.bytes_from_device > 0);
        assert!(m.peak_memory > 0, "hash tables must reserve device memory");
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn subgraph_encoding_roundtrips() {
        let cfg = config("parahash-step2-enc");
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let (graph, _) = run_step2(&cfg, &manifest, &io).unwrap();
        // Round-trip the whole graph as one subgraph.
        let entries: Vec<_> = graph.iter().map(|(k, v)| (*k, *v)).collect();
        let sub = SubGraph::new(7, entries);
        let decoded = decode_subgraph(&encode_subgraph(&sub)).unwrap();
        let mut a = sub.into_entries();
        let mut b = decoded.into_entries();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        assert_eq!(a, b);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// The bytes the previous encoder (reference-vector `sort_by_key`,
    /// byte-wise CRC) wrote for these two shuffled subgraphs, captured
    /// from it verbatim: the on-disk format is frozen, whatever sorts and
    /// checksums it. In the k = 40 case the first 32 bases tie pairwise,
    /// so the order is decided in the second key word.
    #[test]
    fn encoding_matches_golden_bytes() {
        fn data(i: u32) -> hashgraph::VertexData {
            hashgraph::VertexData {
                count: 1000 + i,
                edges: std::array::from_fn(|e| i * 10 + e as u32),
            }
        }
        fn unhex(lines: &[&str]) -> Vec<u8> {
            let hex = lines.concat();
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        }
        let encode = |k: usize, kmers: &[String]| {
            let entries = kmers
                .iter()
                .enumerate()
                .map(|(i, s)| (s.parse::<dna::Kmer>().unwrap(), data(i as u32)))
                .collect();
            encode_subgraph(&SubGraph::new(k, entries))
        };

        let narrow = [
            "GATTACAGATTACAGATTACAGATTAC",
            "ACGTACGTACGTACGTACGTACGTACG",
            "TTTTTTTTTTTTTTTTTTTTTTTTTTT",
            "ACGTACGTACGTACGTACGTACGTACC",
            "CCCCCCCCCCCCCCCCCCCCCCCCCCA",
        ]
        .map(String::from);
        let golden27 = unhex(&[
            "05000000000000001b00141b1b1b1b1b1b000000000000000000000000000000000000000000000000eb0300",
            "001e0000001f00000020000000210000002200000023000000240000002500000000181b1b1b1b1b1b000000",
            "000000000000000000000000000000000000000000e90300000a0000000b0000000c0000000d0000000e0000",
            "000f000000100000001100000000505555555555550000000000000000000000000000000000000000000000",
            "00ec03000028000000290000002a0000002b0000002c0000002d0000002e0000002f00000000c423f1483c12",
            "8f000000000000000000000000000000000000000000000000e8030000000000000100000002000000030000",
            "000400000005000000060000000700000000fcffffffffffff00000000000000000000000000000000000000",
            "0000000000ea0300001400000015000000160000001700000018000000190000001a0000001b000000304f16",
            "1b",
        ]);
        assert_eq!(encode(27, &narrow), golden27);
        assert_eq!(&golden27[golden27.len() - 4..], &0x1B16_4F30u32.to_le_bytes());

        let (head_a, head_b) =
            ("ACGTACGTACGTACGTACGTACGTACGTACGT", "ACGTACGTACGTACGTACGTACGTACGTACGA");
        let wide = [
            format!("{head_a}TTTTTTTT"),
            format!("{head_b}GGGGGGGG"),
            format!("{head_a}AAAAAAAC"),
            format!("{head_b}GGGGGGGA"),
            format!("{head_a}AAAAAAAA"),
        ];
        let golden40 = unhex(&[
            "050000000000000028181b1b1b1b1b1b1b000000000000a8aa00000000000000000000000000000000eb0300",
            "001e0000001f000000200000002100000022000000230000002400000025000000181b1b1b1b1b1b1b000000",
            "000000aaaa00000000000000000000000000000000e90300000a0000000b0000000c0000000d0000000e0000",
            "000f00000010000000110000001b1b1b1b1b1b1b1b0000000000000000000000000000000000000000000000",
            "00ec03000028000000290000002a0000002b0000002c0000002d0000002e0000002f0000001b1b1b1b1b1b1b",
            "1b000000000000010000000000000000000000000000000000ea030000140000001500000016000000170000",
            "0018000000190000001a0000001b0000001b1b1b1b1b1b1b1b000000000000ffff0000000000000000000000",
            "0000000000e8030000000000000100000002000000030000000400000005000000060000000700000018a06d",
            "7f",
        ]);
        assert_eq!(encode(40, &wide), golden40);
        assert_eq!(&golden40[golden40.len() - 4..], &0x7F6D_A018u32.to_le_bytes());
    }

    /// Formatting is compute-stage work and only happens for subgraphs
    /// that will be persisted: with `write_subgraphs(false)` a built
    /// partition carries no bytes, with it on it carries exactly
    /// [`encode_subgraph`]'s.
    #[test]
    fn compute_stage_encodes_iff_subgraphs_are_persisted() {
        for write in [false, true] {
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
            let io = ThrottledIo::new(IoMode::Unthrottled);
            let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
            let cancel = CancelToken::new();
            let shared = Step2Shared::new(&cfg, &cancel, None);
            for i in 0..manifest.num_partitions() {
                let bytes = std::fs::read(manifest.partition_path(i)).unwrap();
                let (out, work) =
                    shared.build(cfg.devices()[0].as_ref(), i, bytes, manifest.stats()[i].kmers);
                let out = out.expect("clean partition builds");
                assert_eq!(work, out.subgraph.len() as u64);
                assert_eq!(out.encoded, write.then(|| encode_subgraph(&out.subgraph)), "partition {i}");
            }
            std::fs::remove_dir_all(cfg.work_dir()).unwrap();
        }
    }

    /// A lease is the engine's sealed payload: a spilled one is read,
    /// built and committed in place (the file is the result), a resident
    /// one is built from the bytes in hand and comes back formatted — the
    /// same bytes — with nothing written anywhere.
    #[test]
    fn a_resident_lease_ships_the_bytes_a_spilled_lease_commits() {
        let cfg = ParaHashConfig::builder()
            .k(7)
            .p(4)
            .partitions(3)
            .cpu_threads(2)
            .write_subgraphs(true)
            .work_dir(std::env::temp_dir().join("parahash-step2-lease"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let sub_dir = cfg.work_dir().join("subgraphs");
        for i in 0..manifest.num_partitions() {
            let kmers = manifest.stats()[i].kmers;
            let bytes = std::fs::read(manifest.partition_path(i)).unwrap();
            let (_, shipped) =
                build_lease(&cfg, i, SealedPayload::Resident(bytes), kmers, &io, None).unwrap();
            assert!(!sub_dir.exists(), "a wire worker touches no disk");
            let shipped = shipped.expect("a resident lease returns its subgraph");

            std::fs::create_dir_all(&sub_dir).unwrap();
            let spilled = SealedPayload::Spilled(manifest.partition_path(i));
            let (_, kept) = build_lease(&cfg, i, spilled, kmers, &io, None).unwrap();
            assert!(kept.is_none(), "a committed lease ships nothing");
            let file = sub_dir.join(format!("sub-{i:05}.dbg"));
            assert_eq!(std::fs::read(&file).unwrap(), shipped, "partition {i}");
            std::fs::remove_dir_all(&sub_dir).unwrap();
        }
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
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
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();
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
        let (graph, report) = run_step2(&cfg, &manifest, &io).unwrap();
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
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let (graph, _) = run_step2(&cfg, &manifest, &io).unwrap();
        let entries: Vec<_> = graph.iter().map(|(k, v)| (*k, *v)).collect();
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
        let (manifest, _) = run_step1(&cfg, &rs, &io).unwrap();
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

        let (graph, report) = run_step2(&cfg, &manifest, &io).unwrap();
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
        // The report is this un-journaled entry's record of it; the
        // manifest on disk is still what Step 1 wrote.
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
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].bytes)
            .unwrap();
        let path = manifest.partition_path(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();

        assert!(run_step2(&cfg, &manifest, &io).is_err());
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
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        let (graph, _) = run_step2(&cfg, &manifest, &io).unwrap();
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
        let (manifest, _) = run_step1(&cfg, &reads(), &io).unwrap();
        // Truncate the largest partition file mid-record.
        let victim = (0..manifest.num_partitions())
            .max_by_key(|&i| manifest.stats()[i].bytes)
            .unwrap();
        let path = manifest.partition_path(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(run_step2(&cfg, &manifest, &io).is_err());
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }
}
