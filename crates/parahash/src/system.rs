use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dna::SeqRead;
use hashgraph::DeBruijnGraph;
use msp::{PartitionManifest, SealedPayload};
use pipeline::{CancelToken, SharedCounterQueue, ThrottledIo};

use crate::journal::{Fingerprint, JournalEvent, RunJournal};
use crate::step1::{device_baselines, device_deltas, step1_into, step1_report, step1_to_disk, Input};
use crate::step2::{
    decode_subgraph_checked, manifest_feed, run_step2_feed, subgraph_path, Resumed,
};
use crate::{ParaHashConfig, ParaHashError, Result, RunReport, Step1Stats, StepReport};

/// The assembled system: run both steps against a read set and collect
/// the full report.
///
/// One driver serves every entry point; the four `run*` cells differ only
/// in where the input comes from (reads in memory, or a FASTQ file
/// ingested one record-aligned chunk at a time) and where the partitions
/// wait between the steps (on disk, or in a budget-governed in-memory
/// store). The graph, and every persisted subgraph file, is
/// byte-identical across all four.
///
/// Every run journals its progress to `work_dir/run.journal`. A config
/// built with [`resume(true)`](crate::ParaHashConfigBuilder::resume)
/// picks an interrupted run up from that journal instead of starting
/// over; a journal written under a different config or input is refused
/// with [`ParaHashError::FingerprintMismatch`], and without a journal a
/// resume is simply a fresh run.
///
/// See the crate docs for the workflow; construction only validates that
/// the working directory can be created.
#[derive(Debug)]
pub struct ParaHash {
    config: ParaHashConfig,
}

/// What a full run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// The complete De Bruijn graph (union of all subgraphs).
    pub graph: DeBruijnGraph,
    /// Timing, workload-distribution and memory accounting.
    pub report: RunReport,
}

/// Where the partitions wait between Step 1 and Step 2.
#[derive(Clone, Copy)]
enum Handoff {
    /// In the partition files of `work_dir/superkmers`: Step 2 starts
    /// once Step 1 has finished them (and may run as worker processes).
    Disk,
    /// In a [`msp::PartitionStore`] holding up to
    /// [`partition_memory_budget`](crate::ParaHashConfigBuilder::partition_memory_budget)
    /// bytes and spilling the rest: Step 2 runs concurrently, fed as
    /// Step 1 seals partitions.
    Memory,
}

/// What the two-arm middle of [`ParaHash::execute`] hands to its tail.
type Built = (PartitionManifest, StepReport, DeBruijnGraph, StepReport);

impl ParaHash {
    /// Creates a runner, ensuring the working directory exists.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ParaHashError::Io`] if the directory cannot be
    /// created.
    pub fn new(config: ParaHashConfig) -> Result<ParaHash> {
        std::fs::create_dir_all(config.work_dir())?;
        Ok(ParaHash { config })
    }

    /// The configuration this runner was built with.
    pub fn config(&self) -> &ParaHashConfig {
        &self.config
    }

    /// Constructs the De Bruijn graph of `reads`, running the two
    /// pipelined steps one after the other with the partitions handed
    /// over on disk.
    ///
    /// # Errors
    ///
    /// Propagates any step failure (I/O, corruption, device memory);
    /// when resuming, [`ParaHashError::FingerprintMismatch`] and
    /// [`ParaHashError::Journal`] for a journal whose valid-CRC records
    /// are malformed.
    pub fn run(&self, reads: &[SeqRead]) -> Result<RunOutcome> {
        self.execute(Input::Reads(reads), Handoff::Disk, &self.io())
    }

    /// [`run`](Self::run) streamed from a FASTQ file (plain, gzip or
    /// BGZF) **without loading the decoded read set into memory**: the
    /// file is mapped once and cut into record-aligned chunks of
    /// ~`read_batch_bytes`, and every Step-1 worker parses, packs and
    /// scans its own slice of the chunk in flight (the paper's
    /// partition-by-partition workflow for inputs that exceed host
    /// memory). Every device roster runs this same ingest; a simulated
    /// GPU receives its chunk parsed and 2-bit packed by the host.
    ///
    /// # Errors
    ///
    /// Propagates parse failures and every [`run`](Self::run) failure.
    pub fn run_fastq_streaming(&self, path: impl AsRef<Path>) -> Result<RunOutcome> {
        self.execute(Input::Fastq(path.as_ref()), Handoff::Disk, &self.io())
    }

    /// **Fused** construction: Step 1 stages partitions in a
    /// budget-governed in-memory [`msp::PartitionStore`] (spilling the
    /// largest to disk only when
    /// [`partition_memory_budget`](crate::ParaHashConfigBuilder::partition_memory_budget)
    /// is exceeded) and Step 2 runs *concurrently on its own thread*,
    /// consuming sealed partitions from a streaming queue the moment
    /// Step 1 hands them over — no full-dataset disk round-trip and no
    /// inter-step barrier. The result is byte-identical to
    /// [`run`](Self::run): only where the partition bytes live changes,
    /// never what they contain.
    ///
    /// The manifest is still written to `work_dir/superkmers/manifest.txt`
    /// — the same bytes the two-phase flow writes for this input — and
    /// which partitions spilled, split or were quarantined is in
    /// `run.journal`, as in the two-phase flow.
    ///
    /// A resumed fused run always redoes Step 1 (resident partition
    /// payloads died with the crashed process), but partitions whose
    /// subgraphs were journaled as committed and still verify on disk are
    /// skipped by Step 2 and absorbed directly.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run); a Step-1 failure takes precedence and
    /// cleans up the partial partition directory.
    pub fn run_fused(&self, reads: &[SeqRead]) -> Result<RunOutcome> {
        self.run_fused_with_io(reads, &self.io())
    }

    /// [`run_fused`](Self::run_fused) against a caller-owned I/O channel —
    /// the fused analogue of handing [`crate::run_step1`] /
    /// [`crate::run_step2`] your own [`ThrottledIo`], so fault-injection
    /// hooks and retry counters remain observable across the fused run.
    ///
    /// # Errors
    ///
    /// Same as [`run_fused`](Self::run_fused).
    pub fn run_fused_with_io(&self, reads: &[SeqRead], io: &ThrottledIo) -> Result<RunOutcome> {
        self.execute(Input::Reads(reads), Handoff::Memory, io)
    }

    /// Fused construction streamed from a FASTQ file: combines
    /// [`run_fused`](Self::run_fused)'s in-memory partition handoff with
    /// [`run_fastq_streaming`](Self::run_fastq_streaming)'s chunk-at-a-time
    /// ingest, so neither the decoded read set nor (within budget) the
    /// partitions are ever materialised.
    ///
    /// # Errors
    ///
    /// Propagates parse failures and every [`run_fused`](Self::run_fused)
    /// failure.
    pub fn run_fused_fastq(&self, path: impl AsRef<Path>) -> Result<RunOutcome> {
        self.execute(Input::Fastq(path.as_ref()), Handoff::Memory, &self.io())
    }

    fn io(&self) -> ThrottledIo {
        ThrottledIo::new(self.config.io_mode)
    }

    /// The one run driver: a preamble that fixes the run's identity and
    /// resume plan, the handoff's own way of getting from input to
    /// subgraphs, and a tail that makes the result durable and reports
    /// it.
    fn execute(&self, input: Input<'_>, handoff: Handoff, io: &ThrottledIo) -> Result<RunOutcome> {
        let started = Instant::now();
        let mut config = self.config.clone();
        let input_digest = match input {
            Input::Reads(reads) => Fingerprint::digest_reads(reads),
            // The streamed input is never all in hand, so its digest is
            // the cheap path+length one.
            Input::Fastq(path) => Fingerprint::digest_path(path)?,
        };
        // This run's identity: the parameters whose artifacts a journal
        // describes, plus the input digest.
        let fingerprint =
            Fingerprint { k: config.k, p: config.p, partitions: config.partitions, input_digest };
        config.run_token = fingerprint.token();
        config.input_digest = input_digest;
        let (plan, resumed) = ResumePlan::prepare(&config, fingerprint)?;

        let (manifest, step1, graph, step2) = match handoff {
            Handoff::Disk => disk_handoff(&config, input, io, &plan, resumed)?,
            Handoff::Memory => memory_handoff(&config, input, io, &plan, resumed)?,
        };

        plan.recheck_committed(&config)?;
        plan.journal.append(&JournalEvent::RunComplete)?;
        let report = RunReport {
            // Resident partitions coexist with both the in-flight Step-1
            // batch and Step 2's buffer + table (which coexist during a
            // launch, so they add), so the store's peak *adds* to the
            // larger of the two steps' transients.
            peak_host_bytes: graph.approx_bytes() as u64
                + step1.peak_resident_store_bytes
                + step1
                    .peak_partition_bytes
                    .max(step2.peak_partition_bytes + step2.peak_table_bytes),
            partition_bytes: manifest.total_bytes(),
            distinct_vertices: graph.distinct_vertices(),
            total_kmers: graph.total_kmer_occurrences(),
            step1,
            step2,
            total_elapsed: started.elapsed(),
        };
        Ok(RunOutcome { graph, report })
    }
}

/// The resume decision made before any step runs: the (created or
/// reopened) journal, whether Step 1's artifacts survived whole, and
/// which committed subgraphs verified on disk.
struct ResumePlan {
    journal: RunJournal,
    /// Every partition was journaled as sealed *and* the manifest loads:
    /// Step 1's output is complete on disk, skip the step.
    skip_step1: bool,
    /// Subgraphs journaled as committed whose files decoded cleanly, with
    /// the byte length each file had when it was read: Step 2 skips
    /// these partitions (their vertices are already in the
    /// [`Resumed::graph`] handed out beside this plan). A committed
    /// record whose file is missing or damaged is silently left out —
    /// the partition simply re-runs.
    committed: BTreeMap<usize, u64>,
}

impl ResumePlan {
    /// Opens the run's journal: a fresh one, unless the config asks to
    /// [`resume`](crate::ParaHashConfigBuilder::resume) and an
    /// interrupted run's journal exists, in which case
    ///
    /// * the journal is replayed (a torn final record — the signature of
    ///   a crash mid-append — is dropped);
    /// * if its config fingerprint (k, p, partitions, input digest)
    ///   differs from this run's, the resume is refused with
    ///   [`ParaHashError::FingerprintMismatch`];
    /// * Step 1's artifacts count as surviving iff every partition was
    ///   journaled as sealed and the manifest loads;
    /// * subgraphs journaled as committed *and* still decoding cleanly on
    ///   disk are absorbed into the returned [`Resumed::graph`] right
    ///   here — each file is read, CRC-checked and decoded once — instead
    ///   of being rebuilt.
    fn prepare(config: &ParaHashConfig, fingerprint: Fingerprint) -> Result<(ResumePlan, Resumed)> {
        let fresh = |journal| {
            let plan = ResumePlan { journal, skip_step1: false, committed: BTreeMap::new() };
            (plan, Resumed::nothing(config.k))
        };
        // A vacant journal (zero complete records) is the signature of a
        // crash at creation: nothing was journaled, nothing was done —
        // treat it exactly like a missing journal.
        if !config.resume
            || !RunJournal::exists(&config.work_dir)
            || RunJournal::is_vacant(&config.work_dir)?
        {
            return Ok(fresh(RunJournal::create(&config.work_dir, fingerprint)?));
        }
        let state = RunJournal::replay(&config.work_dir)?;
        if state.fingerprint != fingerprint {
            return Err(ParaHashError::FingerprintMismatch {
                journal: state.fingerprint,
                current: fingerprint,
            });
        }
        if state.complete {
            // The previous run finished; there is nothing to resume.
            // Start over with a fresh journal.
            return Ok(fresh(RunJournal::create(&config.work_dir, fingerprint)?));
        }
        let journal = RunJournal::reopen(&config.work_dir, &state)?;
        // Staged-but-uncommitted artifacts from the crashed run are dead
        // weight (every live artifact lost its `.tmp` suffix at commit):
        // sweep them so they cannot be mistaken for real files. The sweep
        // is scoped by the fingerprint token so a concurrent run's live
        // partition staging in a shared output directory survives.
        let token = fingerprint.token();
        pipeline::commit::sweep_tmp_scoped(&config.work_dir.join("superkmers"), &token);
        pipeline::commit::sweep_tmp_scoped(&config.work_dir.join("subgraphs"), &token);
        let skip_step1 = (0..config.partitions).all(|i| state.sealed.contains(&i))
            && PartitionManifest::load(config.work_dir.join("superkmers")).is_ok();
        // Cluster-wide resume: a sharded parent that crashed
        // mid-distribution may have workers whose own journals recorded
        // commits the parent never saw (the worker journaled and
        // committed, the parent died before its `subgraph-committed`
        // record). Aggregate every same-fingerprint `worker-<id>`
        // journal under the work directory into the committed set —
        // each candidate still has to pass the on-disk verification
        // below, so a stale or lying record costs nothing but a check.
        let mut claimed = state.committed.clone();
        claimed.extend(crate::journal::worker_committed(&config.work_dir, &fingerprint));
        // Only trust commit records whose files verify end-to-end right
        // now: the journal says the rename happened, the CRC trailer
        // says the bytes are still whole. What verifies goes straight
        // into the graph.
        let mut committed = BTreeMap::new();
        let mut resumed = Resumed::nothing(config.k);
        if config.write_subgraphs {
            for i in claimed {
                let verified = std::fs::read(subgraph_path(&config.work_dir, i)).ok().and_then(|bytes| {
                    let sub = decode_subgraph_checked(&bytes, Some(i)).ok()?;
                    Some((sub, bytes.len() as u64))
                });
                if let Some((sub, len)) = verified {
                    resumed.graph.absorb(sub);
                    resumed.committed.insert(i);
                    committed.insert(i, len);
                }
            }
        }
        Ok((ResumePlan { journal, skip_step1, committed }, resumed))
    }

    /// The tail's look at the subgraph files [`prepare`](Self::prepare)
    /// absorbed: the finished work directory must still hold every one of
    /// them. The files are not read again — a `stat` per file — unless
    /// one changed size since it was verified, in which case decoding it
    /// names the damage.
    ///
    /// # Errors
    ///
    /// [`ParaHashError::Io`] for a file that vanished while the run was
    /// rebuilding the rest, the decoder's corruption error for one that
    /// was cut or extended.
    fn recheck_committed(&self, config: &ParaHashConfig) -> Result<()> {
        for (&i, &verified_len) in &self.committed {
            let path = subgraph_path(&config.work_dir, i);
            if std::fs::metadata(&path)?.len() != verified_len {
                decode_subgraph_checked(&std::fs::read(&path)?, Some(i))?;
            }
        }
        Ok(())
    }
}

/// Step-1 report for a resumed run that skipped Step 1 entirely: every
/// counter is zero — the work was done (and reported) by the interrupted
/// run, not this one.
fn skipped_step1_report() -> StepReport {
    StepReport { step1_stats: Some(Step1Stats::default()), ..StepReport::idle(1) }
}

/// The disk handoff: Step 1 into partition files (unless the resume plan
/// says they survived whole), then Step 2 over the finished manifest.
fn disk_handoff(
    config: &ParaHashConfig,
    input: Input<'_>,
    io: &ThrottledIo,
    plan: &ResumePlan,
    resumed: Resumed,
) -> Result<Built> {
    let (manifest, step1) = if plan.skip_step1 {
        (PartitionManifest::load(config.work_dir.join("superkmers"))?, skipped_step1_report())
    } else {
        let out = step1_to_disk(config, input, io)?;
        // Step 1 to disk is all-or-nothing (partition files only leave
        // their `.tmp` names at `finish()`), so every partition seals at
        // once, right here.
        for i in 0..config.partitions {
            plan.journal.append(&JournalEvent::PartitionSealed(i))?;
        }
        out
    };
    // `workers(N)` swaps the in-process Step 2 for the multi-process
    // shard; the two produce byte-identical subgraphs and graphs (see
    // `crate::shard`), so everything downstream is oblivious.
    let journal = Some(&plan.journal);
    let (graph, step2) = if config.workers > 0 || config.listen.is_some() {
        crate::shard::run_step2_sharded(config, &manifest, io, journal, resumed)?
    } else {
        let feed = manifest_feed(&manifest);
        run_step2_feed(config, &feed, io, &CancelToken::new(), journal, resumed)?
    };
    Ok((manifest, step1, graph, step2))
}

/// The memory handoff: Step 1 feeds a [`msp::PartitionStore`] on the
/// calling thread while Step 2 consumes sealed partitions from a
/// [`SharedCounterQueue`] on a second thread. A shared [`CancelToken`]
/// links the two — a fatal error on either side drains the other.
fn memory_handoff(
    config: &ParaHashConfig,
    input: Input<'_>,
    io: &ThrottledIo,
    plan: &ResumePlan,
    resumed: Resumed,
) -> Result<Built> {
    let cancel = CancelToken::new();
    // Capacity = partition count: Step 1 seals each partition exactly
    // once, so the queue never wraps and `push` never blocks.
    let feed: SharedCounterQueue<msp::SealedPartition> =
        SharedCounterQueue::new(config.partitions);
    let dir = config.work_dir.join("superkmers");
    // A resumed run always redoes Step 1 here: resident payloads died
    // with the crashed process, so `skip_step1` cannot be honoured. The
    // committed-subgraph skips still apply — re-partitioning the same
    // input yields the same per-partition k-mer content, and the
    // canonical subgraph encoding makes the surviving files exact.
    let journal = &plan.journal;
    let (step1_out, step2_out) = std::thread::scope(|s| {
        let step2_handle = s.spawn(|| {
            run_step2_feed(config, &feed, io, &cancel, Some(journal), resumed)
        });
        let step1_out = (|| -> Result<Option<(PartitionManifest, StepReport)>> {
            let mut store = msp::PartitionStore::create_scoped(
                &dir,
                config.partitions,
                config.k,
                config.p,
                config.partition_memory_budget,
                &config.run_token,
            )?;
            // One device roster serves both steps. Step 2's device work
            // only begins once sealed partitions appear on the feed
            // (below), so the window between these two snapshots is
            // exclusively Step 1's.
            let baselines = device_baselines(config);
            let (stats, preport, peak_batch) = step1_into(config, input, io, &cancel, &mut store)?;
            let deltas = device_deltas(config, &baselines);
            if cancel.is_cancelled() {
                // Step 2 failed underneath us; its error wins below.
                return Ok(None);
            }
            let mut step1 = step1_report(config, stats, preport, peak_batch, &deltas);
            step1.peak_resident_store_bytes = store.peak_resident_bytes();
            let manifest = store.finish_manifest()?;
            // Hand every partition over — resident ones by value, spilled
            // ones as their file path — then mark end-of-stream so the
            // Step-2 input stage terminates once the queue drains.
            //
            // Hand-over order is chosen, not index order: spilled
            // partitions first (their loads overlap compute on the
            // resident ones, hiding T_IO per §IV Case 2), largest first
            // within each residency class (longest-processing-time
            // ordering tightens the Eq. 1 makespan), index as the
            // deterministic tiebreak. Order affects only scheduling —
            // each partition's subgraph is canonical regardless.
            let mut order: Vec<usize> = (0..config.partitions).collect();
            {
                let stats = store.stats();
                order.sort_by_key(|&i| {
                    (store.is_resident(i), std::cmp::Reverse(stats[i].bytes), i)
                });
            }
            for i in order {
                let sealed = store.seal(i)?;
                // Only a *spilled* partition is durable: journaling a
                // resident one as sealed would claim bytes that exist
                // nowhere but in this process's memory.
                let durable = matches!(sealed.payload, SealedPayload::Spilled(_));
                feed.push(sealed);
                if durable {
                    journal.append(&JournalEvent::PartitionSealed(i))?;
                }
            }
            feed.finish();
            Ok(Some((manifest, step1)))
        })();
        if !matches!(step1_out, Ok(Some(_))) {
            // Step-1 failure (or observed cancellation): wake the Step-2
            // side so its input stage stops waiting and the thread exits.
            cancel.cancel();
            feed.close();
        }
        let step2_out = match step2_handle.join() {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (step1_out, step2_out)
    });

    match (step1_out, step2_out) {
        (Ok(Some((manifest, step1))), Ok((graph, step2))) => Ok((manifest, step1, graph, step2)),
        (Ok(Some(_)), Err(e)) => Err(e),
        (step1_out, step2_out) => {
            // Step 1 failed, or was cancelled by a Step-2 fatal error
            // (which then wins): the partition directory covers an
            // unknown prefix of the input.
            let _ = std::fs::remove_dir_all(&dir);
            Err(step1_out.err().or(step2_out.err()).unwrap_or_else(|| {
                ParaHashError::InvalidConfig("fused run cancelled without a recorded error".into())
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::IoMode;

    fn reads() -> Vec<SeqRead> {
        vec![
            SeqRead::from_ascii("a", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
            SeqRead::from_ascii("b", b"TGATGGATGATGGATGGTAGCATACGTTGCAT"),
            SeqRead::from_ascii("c", b"GGCATTAGCCAGTACGGATCACCGTATGCAAT"),
            SeqRead::from_ascii("d", b"ACGTTGCATGGACCAGTTACGGATCAGGCATT"),
        ]
    }

    fn runner(dir: &str, io: IoMode) -> ParaHash {
        let cfg = ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(5)
            .cpu_threads(2)
            .io_mode(io)
            .work_dir(std::env::temp_dir().join(dir))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        ParaHash::new(cfg).unwrap()
    }

    #[test]
    fn end_to_end_counts_are_consistent() {
        let ph = runner("parahash-sys-e2e", IoMode::Unthrottled);
        let rs = reads();
        let outcome = ph.run(&rs).unwrap();
        let expected_kmers: u64 = rs.iter().map(|r| (r.len() - 9 + 1) as u64).sum();
        assert_eq!(outcome.graph.total_kmer_occurrences(), expected_kmers);
        assert_eq!(outcome.report.total_kmers, expected_kmers);
        assert_eq!(outcome.report.distinct_vertices, outcome.graph.distinct_vertices());
        assert!(outcome.report.duplicate_vertices() > 0, "read d duplicates read a");
        assert!(outcome.report.partition_bytes > 0);
        assert!(outcome.report.total_elapsed >= outcome.report.steps_elapsed());
        assert!(outcome.report.summary().contains("distinct"));
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    #[test]
    fn throttled_run_produces_identical_graph() {
        let fast = runner("parahash-sys-fast", IoMode::Unthrottled);
        let slow = runner("parahash-sys-slow", IoMode::Throttled { bytes_per_sec: 200_000 });
        let rs = reads();
        let a = fast.run(&rs).unwrap();
        let b = slow.run(&rs).unwrap();
        assert_eq!(a.graph, b.graph, "I/O regime must not change the result");
        std::fs::remove_dir_all(fast.config().work_dir()).unwrap();
        std::fs::remove_dir_all(slow.config().work_dir()).unwrap();
    }

    #[test]
    fn streaming_fastq_matches_in_memory() {
        let ph = runner("parahash-sys-stream", IoMode::Unthrottled);
        let path = std::env::temp_dir().join(format!("parahash-stream-{}.fastq", std::process::id()));
        {
            let mut w = dna::FastqWriter::new(std::fs::File::create(&path).unwrap());
            for r in reads() {
                w.write_record(&r).unwrap();
            }
            w.into_inner().unwrap().sync_all().unwrap();
        }
        let streamed = ph.run_fastq_streaming(&path).unwrap();
        let in_memory = ph.run(&reads()).unwrap();
        assert_eq!(streamed.graph, in_memory.graph);
        assert_eq!(
            streamed.report.step1.pipeline.total_work(),
            reads().len() as u64,
            "every read must flow through the streaming input stage"
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    #[test]
    fn streaming_small_batches_use_many_input_partitions() {
        // Tiny batch size forces several pipeline input partitions.
        let cfg = ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(4)
            .read_batch_bytes(24)
            .work_dir(std::env::temp_dir().join("parahash-sys-smallbatch"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let ph = ParaHash::new(cfg).unwrap();
        let path = std::env::temp_dir().join(format!("parahash-smallbatch-{}.fastq", std::process::id()));
        {
            let mut w = dna::FastqWriter::new(std::fs::File::create(&path).unwrap());
            for r in reads() {
                w.write_record(&r).unwrap();
            }
            w.into_inner().unwrap().sync_all().unwrap();
        }
        let outcome = ph.run_fastq_streaming(&path).unwrap();
        assert!(outcome.report.step1.pipeline.partitions >= 3, "expected several input batches");
        assert_eq!(outcome.graph, ph.run(&reads()).unwrap().graph);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    #[test]
    fn fused_all_resident_matches_two_phase() {
        let cfg = ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(5)
            .cpu_threads(2)
            .partition_memory_budget(u64::MAX)
            .work_dir(std::env::temp_dir().join("parahash-sys-fused-resident"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let ph = ParaHash::new(cfg).unwrap();
        let rs = reads();
        let fused = ph.run_fused(&rs).unwrap();
        let two_phase = ph.run(&rs).unwrap();
        assert_eq!(fused.graph, two_phase.graph, "fusion must not change the result");
        assert!(
            fused.report.step1.peak_resident_store_bytes > 0,
            "a huge budget must keep partitions resident"
        );
        assert_eq!(fused.report.step2.pipeline.partitions, 5);
        assert_eq!(fused.report.total_kmers, two_phase.report.total_kmers);
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    #[test]
    fn fused_zero_budget_spills_and_still_matches() {
        let cfg = ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(5)
            .cpu_threads(2)
            .partition_memory_budget(0)
            .work_dir(std::env::temp_dir().join("parahash-sys-fused-spill"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let ph = ParaHash::new(cfg).unwrap();
        let rs = reads();
        let fused = ph.run_fused(&rs).unwrap();
        assert_eq!(
            fused.report.step1.peak_resident_store_bytes, 0,
            "budget 0 means nothing is ever resident"
        );
        // Every non-empty partition left a spill file behind.
        let dir = ph.config().work_dir().join("superkmers");
        let spilled = (0..5)
            .filter(|&i| dir.join(format!("part-{i:05}.skm")).exists())
            .count();
        assert!(spilled > 0, "zero budget must produce spill files");
        let two_phase = ph.run(&rs).unwrap();
        assert_eq!(fused.graph, two_phase.graph);
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    /// Five good records (lines 1–20), then a line that is no header: the
    /// error names line 21 of the *file* — not of the 64-byte chunk or the
    /// worker slice that met it — whichever roster or kernels parse it.
    #[test]
    fn streaming_malformed_fastq_is_rejected() {
        let path = std::env::temp_dir().join(format!("parahash-streambad-{}.fastq", std::process::id()));
        let good = "@ok\nACGTACGTACGT\n+\nIIIIIIIIIIII\n".repeat(5);
        std::fs::write(&path, good + "not-a-header\nACGT\n+\nIIII\n").unwrap();
        let _guard = dna::simd::override_guard();
        for (gpu, scalar) in [(false, false), (true, false), (false, true), (true, true)] {
            dna::simd::set_force_scalar_override(Some(scalar));
            let builder = ParaHashConfig::builder()
                .k(9)
                .p(5)
                .partitions(5)
                .read_batch_bytes(64)
                .work_dir(std::env::temp_dir().join("parahash-sys-streambad"));
            let builder = if gpu {
                let transfer = hetsim::TransferModel::instant();
                builder.no_cpu().sim_gpu(hetsim::SimGpuConfig { transfer, ..Default::default() })
            } else {
                builder.cpu_threads(2)
            };
            let ph = ParaHash::new(builder.build().unwrap()).unwrap();
            let err = ph.run_fastq_streaming(&path).unwrap_err().to_string();
            assert!(
                err.contains("bad fastq input") && err.contains("at line 21:"),
                "gpu={gpu} scalar={scalar}: {err}"
            );
            std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        }
        dna::simd::set_force_scalar_override(None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_fastq_is_io_error() {
        let ph = runner("parahash-sys-missing", IoMode::Unthrottled);
        assert!(matches!(
            ph.run_fastq_streaming("/no/such/file.fastq"),
            Err(crate::ParaHashError::Io(_))
        ));
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    /// A resumed run reads each committed subgraph once, in
    /// [`ResumePlan::prepare`]: what verifies is absorbed there and
    /// skipped by Step 2, what is damaged drops out and rebuilds, and the
    /// tail still notices a file that vanished or was cut in between.
    #[test]
    fn resume_absorbs_committed_subgraphs_once_and_rechecks_them() {
        let cfg = ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(5)
            .cpu_threads(2)
            .write_subgraphs(true)
            .resume(true)
            .work_dir(std::env::temp_dir().join("parahash-sys-resume-once"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let ph = ParaHash::new(cfg.clone()).unwrap();
        let rs = reads();
        let full = ph.run(&rs).unwrap();
        let sub = |i: usize| subgraph_path(cfg.work_dir(), i);
        let pristine: Vec<Vec<u8>> = (0..5).map(|i| std::fs::read(sub(i)).unwrap()).collect();

        // Tear the journal's final `run-complete` record: the run now
        // looks interrupted right after its last commit.
        let interrupt = || {
            let journal = RunJournal::path_in(cfg.work_dir());
            let len = std::fs::metadata(&journal).unwrap().len();
            std::fs::OpenOptions::new().write(true).open(&journal).unwrap().set_len(len - 1).unwrap();
        };
        interrupt();
        // Bit-rot in one committed file: it must drop out of the plan.
        let mut rotten = pristine[0].clone();
        rotten[20] ^= 1;
        std::fs::write(sub(0), &rotten).unwrap();

        let fingerprint =
            Fingerprint { k: 9, p: 5, partitions: 5, input_digest: Fingerprint::digest_reads(&rs) };
        let (plan, resumed) = ResumePlan::prepare(&cfg, fingerprint).unwrap();
        assert_eq!(resumed.committed, (1..5).collect());
        assert_eq!(plan.committed.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let lost = crate::decode_subgraph(&pristine[0]).unwrap().len();
        assert_eq!(resumed.graph.distinct_vertices() + lost, full.graph.distinct_vertices());
        plan.recheck_committed(&cfg).unwrap();

        // Cut short after verification: the decoder names the damage.
        std::fs::write(sub(1), &pristine[1][..pristine[1].len() - 1]).unwrap();
        let err = plan.recheck_committed(&cfg).unwrap_err().to_string();
        assert!(err.contains("partition 1") && err.contains("truncated tail"), "{err}");
        std::fs::write(sub(1), &pristine[1]).unwrap();
        // Gone after verification: the I/O error a second read gave.
        std::fs::remove_file(sub(2)).unwrap();
        assert!(matches!(plan.recheck_committed(&cfg), Err(ParaHashError::Io(_))));
        std::fs::write(sub(2), &pristine[2]).unwrap();
        drop(plan);

        // End to end: the resumed run rebuilds the rotten partition and
        // lands on the uninterrupted run's graph and files.
        let again = ph.run(&rs).unwrap();
        assert!(!again.graph.is_indexed(), "resuming looks no k-mer up");
        assert_eq!(again.graph, full.graph);
        for (i, bytes) in pristine.iter().enumerate() {
            assert_eq!(&std::fs::read(sub(i)).unwrap(), bytes, "sub-{i:05}.dbg");
        }
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// Building a graph and writing it out — all `dbg build` and the
    /// benchmark do with one — hands vertex runs over and walks them; the
    /// k-mer index is for whoever looks a vertex up.
    #[test]
    fn a_build_that_is_only_saved_never_indexes_the_graph() {
        let cfg = ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(4)
            .cpu_threads(2)
            .write_subgraphs(true)
            .work_dir(std::env::temp_dir().join("parahash-sys-unindexed"))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let ph = ParaHash::new(cfg.clone()).unwrap();
        let fused = ph.run_fused(&reads()).unwrap();
        assert!(fused.graph.distinct_vertices() > 0 && !fused.graph.is_indexed());
        let saved = cfg.work_dir().join("graph.dbg");
        hashgraph::save_graph(&fused.graph, &saved).unwrap();
        assert!(!fused.graph.is_indexed(), "saving sorts the runs, it looks nothing up");
        assert_eq!(hashgraph::load_graph(&saved).unwrap(), fused.graph);
        assert!(fused.graph.is_indexed(), "`==` is a keyed access");
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn empty_input_builds_empty_graph() {
        let ph = runner("parahash-sys-empty", IoMode::Unthrottled);
        let outcome = ph.run(&[]).unwrap();
        assert_eq!(outcome.graph.distinct_vertices(), 0);
        assert_eq!(outcome.report.total_kmers, 0);
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }
}
