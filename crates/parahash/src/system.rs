use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dna::SeqRead;
use hashgraph::DeBruijnGraph;
use msp::PartitionManifest;
use pipeline::ThrottledIo;

use crate::journal::{Fingerprint, JournalEvent, RunJournal};
use crate::step1::{step1_sealed, Input};
use crate::step2::{
    check_committed, manifest_feed, read_committed, step2_feed, subgraph_path, Resumed,
};
use crate::{ParaHashConfig, ParaHashError, Result, RunReport, Step1Stats, StepReport};

/// The assembled system: run both steps against a read set and collect
/// the full report.
///
/// One driver serves every entry point; the four `run*` cells differ only
/// in where the input comes from (reads in memory, or a FASTQ file
/// ingested one record-aligned chunk at a time) and in the resident-byte
/// budget of the [`msp::PartitionStore`] the partitions wait in between
/// the steps: `0` for the two-phase entry points, which puts every
/// partition in its file, and
/// [`partition_memory_budget`](crate::ParaHashConfigBuilder::partition_memory_budget)
/// for the fused ones. The graph, and every persisted subgraph file, is
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
    /// over on disk: the fused build at partition budget `0`. Given
    /// [`workers`](crate::ParaHashConfigBuilder::workers) or
    /// [`listen`](crate::ParaHashConfigBuilder::listen), worker processes
    /// claim partition files in Step 2 beside this process's devices.
    ///
    /// # Errors
    ///
    /// Propagates any step failure (I/O, corruption, device memory);
    /// when resuming, [`ParaHashError::FingerprintMismatch`] and
    /// [`ParaHashError::Journal`] for a journal whose valid-CRC records
    /// are malformed.
    pub fn run(&self, reads: &[SeqRead]) -> Result<RunOutcome> {
        self.execute(Input::Reads(reads), 0, &self.io())
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
        self.execute(Input::Fastq(path.as_ref()), 0, &self.io())
    }

    /// **Fused** construction: Step 1 stages partitions in a
    /// budget-governed in-memory [`msp::PartitionStore`] (spilling the
    /// largest to disk only when
    /// [`partition_memory_budget`](crate::ParaHashConfigBuilder::partition_memory_budget)
    /// is exceeded), and Step 2 takes the resident partitions over by
    /// value — no full-dataset disk round-trip. The result is
    /// byte-identical to [`run`](Self::run): only where the partition
    /// bytes live changes, never what they contain.
    ///
    /// The manifest is still written to `work_dir/superkmers/manifest.txt`
    /// — the same bytes the two-phase flow writes for this input — and
    /// which partitions spilled, split or were quarantined is in
    /// `run.journal`, as in the two-phase flow.
    ///
    /// A resumed fused run skips Step 1 under the same rule as every
    /// entry point — every partition journaled as sealed (only a spilled
    /// partition is) and the manifest loads — and otherwise redoes it;
    /// either way, partitions whose subgraphs were journaled as committed
    /// and still verify on disk are skipped by Step 2 and absorbed
    /// directly.
    ///
    /// # Errors
    ///
    /// [`ParaHashError::InvalidConfig`] for a config that asks for worker
    /// processes ([`workers`](crate::ParaHashConfigBuilder::workers) or
    /// [`listen`](crate::ParaHashConfigBuilder::listen)), which only the
    /// two-phase entry points lease to; otherwise as [`run`](Self::run),
    /// a Step-1 failure taking precedence and cleaning up the partial
    /// partition directory.
    pub fn run_fused(&self, reads: &[SeqRead]) -> Result<RunOutcome> {
        self.run_fused_with_io(reads, &self.io())
    }

    /// [`run_fused`](Self::run_fused) against a caller-owned I/O channel,
    /// so fault-injection hooks and retry counters remain observable
    /// across the run. At
    /// [`partition_memory_budget(0)`](crate::ParaHashConfigBuilder::partition_memory_budget)
    /// this is the two-phase build: every partition is written to its
    /// file and read back through `io`.
    ///
    /// # Errors
    ///
    /// Same as [`run_fused`](Self::run_fused).
    pub fn run_fused_with_io(&self, reads: &[SeqRead], io: &ThrottledIo) -> Result<RunOutcome> {
        self.execute(Input::Reads(reads), self.fused_budget()?, io)
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
        self.execute(Input::Fastq(path.as_ref()), self.fused_budget()?, &self.io())
    }

    fn io(&self) -> ThrottledIo {
        ThrottledIo::new(self.config.io_mode)
    }

    /// The fused entry points' partition budget, refusing a config that
    /// asks for worker processes: only the two-phase build leases its
    /// partitions, and a fused run must not drop the setting silently.
    fn fused_budget(&self) -> Result<u64> {
        if !self.config.sharded() {
            return Ok(self.config.partition_memory_budget);
        }
        let setting = if self.config.workers > 0 { "workers" } else { "listen" };
        Err(ParaHashError::InvalidConfig(format!(
            "`{setting}` runs Step 2 on worker processes, which only the two-phase entry \
             points (`run`, `run_fastq_streaming`) do; the fused ones cannot honour it"
        )))
    }

    /// The one run driver: a preamble that fixes the run's identity and
    /// resume plan, Step 1 into a store of `budget` resident bytes (unless
    /// the plan says its output survived whole), Step 2 over the sealed
    /// partitions (with worker processes beside the devices when the
    /// config asks for them — only a two-phase run gets this far with such
    /// a config), and a tail that makes the result durable and reports it.
    fn execute(&self, input: Input<'_>, budget: u64, io: &ThrottledIo) -> Result<RunOutcome> {
        let started = Instant::now();
        let mut config = self.config.clone();
        let input_digest = match input {
            Input::Reads(reads) => Fingerprint::digest_reads(reads),
            // The streamed input is never all in hand, so its digest is
            // the cheap path+length one. A stream is read once, so a
            // resume could never see its bytes again.
            Input::Fastq(path) => {
                if config.resume && !std::fs::metadata(path)?.is_file() {
                    return Err(ParaHashError::UnresumableInput { path: path.to_path_buf() });
                }
                Fingerprint::digest_path(path)?
            }
        };
        // This run's identity: the parameters whose artifacts a journal
        // describes, plus the input digest.
        let fingerprint =
            Fingerprint { k: config.k, p: config.p, partitions: config.partitions, input_digest };
        config.run_token = fingerprint.token();
        config.input_digest = input_digest;
        let (plan, resumed) = ResumePlan::prepare(&config, fingerprint)?;

        let (manifest, step1, feed) = if plan.skip_step1 {
            let manifest = PartitionManifest::load(config.work_dir.join("superkmers"))?;
            let feed = manifest_feed(&manifest);
            (manifest, skipped_step1_report(), feed)
        } else {
            step1_sealed(&config, input, budget, io, &plan.journal)?
        };
        let (graph, step2) = step2_feed(&config, &feed, io, &plan.journal, resumed)?;

        plan.recheck_committed(&config)?;
        plan.journal.append(&JournalEvent::RunComplete)?;
        // Each device of Step 2's roster builds its own partition in its
        // own table at once (a core is a device), so the step's transient
        // — buffer + table, which coexist during a launch — is held once
        // per device that had a partition to build.
        let step2_builders = step2.device_metrics.len().min(step2.pipeline.partitions) as u64;
        let step2_transient =
            step2_builders * (step2.peak_partition_bytes + step2.peak_table_bytes);
        let report = RunReport {
            // Resident partitions coexist with both the in-flight Step-1
            // batch and Step 2's transients, so the store's peak *adds*
            // to the larger of the two steps' transients.
            peak_host_bytes: graph.approx_bytes() as u64
                + step1.peak_resident_store_bytes
                + step1.peak_partition_bytes.max(step2_transient),
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
    /// Subgraphs journaled as committed whose files checked clean, with
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
    /// * subgraphs journaled as committed *and* still checking clean on
    ///   disk are absorbed into the returned [`Resumed::graph`] right
    ///   here — each file is read and checked (header, length, CRC) once,
    ///   into one reused buffer, and the file checked becomes a mapped run
    ///   of the graph — instead of being rebuilt.
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
            // One buffer for every check: what verifies enters the graph
            // as its file's mapping, not as the bytes read.
            let mut image = Vec::new();
            for i in claimed {
                let path = subgraph_path(&config.work_dir, i);
                if let Ok(file) = read_committed(&path, i, &mut image) {
                    committed.insert(i, image.len() as u64);
                    resumed.graph.absorb_file(&file, &image);
                    resumed.committed.insert(i);
                }
            }
        }
        Ok((ResumePlan { journal, skip_step1, committed }, resumed))
    }

    /// The tail's look at the subgraph files [`prepare`](Self::prepare)
    /// absorbed: the finished work directory must still hold every one of
    /// them. The files are not read again — a `stat` per file — unless
    /// one changed size since it was verified, in which case checking it
    /// names the damage.
    ///
    /// # Errors
    ///
    /// [`ParaHashError::Io`] for a file that vanished while the run was
    /// rebuilding the rest, the check's corruption error for one that was
    /// cut or extended.
    fn recheck_committed(&self, config: &ParaHashConfig) -> Result<()> {
        for (&i, &verified_len) in &self.committed {
            let path = subgraph_path(&config.work_dir, i);
            if std::fs::metadata(&path)?.len() != verified_len {
                check_committed(&std::fs::read(&path)?, i)?;
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

    /// Every entry point's report adds up — Step 2's window starts when
    /// Step 1 returns, so the steps never sum past the whole run. The
    /// throttle makes Step 1 long enough that counting it twice shows.
    #[test]
    fn end_to_end_counts_are_consistent() {
        let ph = runner("parahash-sys-e2e", IoMode::Throttled { bytes_per_sec: 50_000 });
        let rs = reads();
        let path = ph.config().work_dir().join("reads.fastq");
        let mut w = dna::FastqWriter::new(std::fs::File::create(&path).unwrap());
        rs.iter().for_each(|r| w.write_record(r).unwrap());
        w.into_inner().unwrap().sync_all().unwrap();
        let expected_kmers: u64 = rs.iter().map(|r| (r.len() - 9 + 1) as u64).sum();
        for (entry, outcome) in [
            ("run", ph.run(&rs)),
            ("run_fastq_streaming", ph.run_fastq_streaming(&path)),
            ("run_fused", ph.run_fused(&rs)),
            ("run_fused_fastq", ph.run_fused_fastq(&path)),
        ] {
            let outcome = outcome.unwrap();
            let report = &outcome.report;
            assert_eq!(outcome.graph.total_kmer_occurrences(), expected_kmers, "{entry}");
            assert_eq!(report.total_kmers, expected_kmers, "{entry}");
            assert_eq!(report.distinct_vertices, outcome.graph.distinct_vertices(), "{entry}");
            assert!(report.duplicate_vertices() > 0, "{entry}: read d duplicates read a");
            assert!(report.partition_bytes > 0, "{entry}");
            assert!(
                report.total_elapsed >= report.steps_elapsed() + report.step1.seal,
                "{entry}: {:?} total < {:?} + {:?} + {:?} sealing",
                report.total_elapsed,
                report.step1.pipeline.elapsed,
                report.step2.pipeline.elapsed,
                report.step1.seal
            );
            // Every entry point seals its partitions between the clocks.
            assert!(!report.step1.seal.is_zero(), "{entry}: the seal is timed");
            assert!(report.summary().contains("distinct"), "{entry}");
        }
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
        // Every partition left its file behind, empty or not.
        let dir = ph.config().work_dir().join("superkmers");
        let spilled = (0..5)
            .filter(|&i| dir.join(format!("part-{i:05}.skm")).exists())
            .count();
        assert_eq!(spilled, 5, "zero budget must put every partition in its file");
        let two_phase = ph.run(&rs).unwrap();
        assert_eq!(fused.graph, two_phase.graph);
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    /// Five good records (lines 1–20), then a line that is no header: the
    /// error names line 21 of the *file* — not of the 64-byte chunk or the
    /// worker slice that met it — whichever roster parses it.
    #[test]
    fn streaming_malformed_fastq_is_rejected() {
        let path = std::env::temp_dir().join(format!("parahash-streambad-{}.fastq", std::process::id()));
        let good = "@ok\nACGTACGTACGT\n+\nIIIIIIIIIIII\n".repeat(5);
        std::fs::write(&path, good + "not-a-header\nACGT\n+\nIIII\n").unwrap();
        for gpu in [false, true] {
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
                "gpu={gpu}: {err}"
            );
            std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        }
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
        // An owned copy: the run's graph maps the files damaged in place below.
        let full = ph.run(&rs).unwrap().graph.clone();
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
        assert_eq!(resumed.graph.distinct_vertices() + lost, full.distinct_vertices());
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert_eq!(resumed.graph.approx_bytes(), 0, "the committed files are mapped, not read in");
        plan.recheck_committed(&cfg).unwrap();

        // Cut short after verification: the check names the damage.
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
        assert_eq!(again.graph, full);
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

    /// The resident graph is the committed records: a fused build of the
    /// determinism matrix's corpus (`tests/determinism.rs`: 3 kb genome,
    /// 30 % repeats, 80 bp reads at 5×, K 15, P 7, 12 partitions) holds
    /// every vertex at the `sub-*.dbg` record width — ⌈k/32⌉ key words and
    /// nine counters at the widest run's width — plus each run's container
    /// header and trailer, and no index, whether or not the subgraphs are
    /// written.
    #[test]
    fn a_fused_build_holds_its_graph_at_the_record_width() {
        let reads = repeat_rich_reads();
        for write in [true, false] {
            let cfg = corpus_builder(&format!("parahash-sys-record-width-{write}"))
                .write_subgraphs(write)
                .build()
                .unwrap();
            let outcome = ParaHash::new(cfg.clone()).unwrap().run_fused(&reads).unwrap();
            let graph = &outcome.graph;
            assert!(!graph.is_indexed(), "write_subgraphs({write})");
            let bits = graph
                .iter()
                .fold(0, |acc, (_, data)| data.edges.iter().fold(acc | data.count, |a, &e| a | e));
            let w_max = [1, 2, 4].into_iter().find(|&w| u64::from(bits) >> (8 * w) == 0).unwrap();
            let record = 8 * 15usize.div_ceil(32) + 9 * w_max;
            let slack = 12 * (10 + 4);
            assert!(graph.distinct_vertices() > 1_000, "corpus too small to be meaningful");
            assert!(
                graph.approx_bytes() <= graph.distinct_vertices() * record + slack,
                "write_subgraphs({write}): {} bytes for {} vertices of {record}",
                graph.approx_bytes(),
                graph.distinct_vertices()
            );
            std::fs::remove_dir_all(cfg.work_dir()).unwrap();
        }
    }

    /// A 3 kb genome, 30 % repeats, 80 bp reads at 5× with one error a
    /// read, both strands: a few thousand vertices over 12 partitions.
    fn repeat_rich_reads() -> Vec<SeqRead> {
        let genome = datagen::GenomeSpec::new(3_000).seed(42).repeat_fraction(0.3).generate();
        let spec = datagen::SequencingSpec {
            read_len: 80,
            coverage: 5.0,
            lambda: 1.0,
            reverse_strand_prob: 0.5,
            seed: 42,
        };
        datagen::Sequencer::new(spec).sequence(&genome)
    }

    /// K 15, P 7, 12 partitions on two one-core CPU devices, in a fresh
    /// `dir` under the temp dir.
    fn corpus_builder(dir: &str) -> crate::ParaHashConfigBuilder {
        let dir = std::env::temp_dir().join(dir);
        let _ = std::fs::remove_dir_all(&dir);
        ParaHashConfig::builder().k(15).p(7).partitions(12).cpu_threads(2).work_dir(dir)
    }

    /// Eq. 1's `T_CPU` is the CPU's makespan. With one device per core
    /// the cores' busy times overlap, so their sum would exceed the step
    /// they ran in; the max never can.
    #[test]
    fn cpu_compute_is_the_makespan_of_the_cores() {
        let cfg = corpus_builder("parahash-sys-cpu-makespan").read_batch_bytes(2_000);
        let ph = ParaHash::new(cfg.build().unwrap()).unwrap();
        let report = ph.run(&repeat_rich_reads()).unwrap().report;
        for step in [&report.step1, &report.step2] {
            let busy: Vec<_> = step.pipeline.shares.iter().map(|s| s.busy).collect();
            assert_eq!(busy.len(), 2, "step {}: two one-core devices", step.step);
            assert!(
                step.cpu_compute <= step.pipeline.elapsed,
                "step {}: T_CPU {:?} > elapsed {:?} (device busy {busy:?})",
                step.step,
                step.cpu_compute,
                step.pipeline.elapsed
            );
            assert_eq!(Some(step.cpu_compute), busy.into_iter().max(), "step {}", step.step);
        }
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    /// The admission check prices the table Step 2 actually checks out:
    /// at a budget equal to the largest partition's projection, nothing
    /// splits and no table exceeds the budget — pool rounding included.
    #[test]
    fn a_budget_at_the_largest_projection_bounds_every_table() {
        let reads = repeat_rich_reads();
        let probe = corpus_builder("parahash-sys-budget-probe").build().unwrap();
        let (manifest, _, _) = crate::step1::tests::step1(&probe, &reads);
        let largest = manifest.stats().iter().map(|s| s.kmers).max().unwrap();
        std::fs::remove_dir_all(probe.work_dir()).unwrap();
        let budget = hashgraph::projected_table_bytes_for(largest, probe.k, probe.sizing);
        let ph = ParaHash::new(
            corpus_builder("parahash-sys-budget").table_memory_budget(budget).build().unwrap(),
        )
        .unwrap();
        let step2 = ph.run(&reads).unwrap().report.step2;
        assert!(step2.sub_splits.is_empty(), "every partition fits: {:?}", step2.sub_splits);
        assert_eq!(step2.resizes, 0, "Property 1 sized every table");
        assert!(
            step2.peak_table_bytes <= budget,
            "a {} B table under a {budget} B budget",
            step2.peak_table_bytes
        );
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    /// A core is a device: a fused CPU-only build on two cores hands each
    /// partition to exactly one of them, and each table has one writer —
    /// no lost claim race, no wait on a locked slot.
    #[test]
    fn each_core_builds_whole_partitions_alone() {
        let cfg = corpus_builder("parahash-sys-core-device").build().unwrap();
        let ph = ParaHash::new(cfg).unwrap();
        let step2 = ph.run_fused(&repeat_rich_reads()).unwrap().report.step2;
        let mut built: Vec<usize> = step2
            .pipeline
            .spans
            .iter()
            .filter(|s| s.stage == pipeline::Stage::Compute)
            .map(|s| s.partition)
            .collect();
        built.sort_unstable();
        assert_eq!(built, (0..12).collect::<Vec<_>>(), "one compute span per partition");
        let contention = step2.contention.expect("Step 2 reports contention");
        assert!(contention.insertions > 0);
        assert_eq!((contention.cas_failures, contention.lock_waits), (0, 0), "{contention:?}");
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }

    /// Step 2 sizes each table from its partition's distinct records:
    /// every vertex lies in one, so a fused build of the corpus never
    /// rebuilds a table, and its largest table is smaller than the
    /// Property-1 projection admission priced for its largest partition.
    #[test]
    fn tables_are_sized_from_the_collapsed_partition() {
        let reads = repeat_rich_reads();
        let cfg = corpus_builder("parahash-sys-collapsed-sizing").build().unwrap();
        let (manifest, _, _) = crate::step1::tests::step1(&cfg, &reads);
        let largest = manifest.stats().iter().map(|s| s.kmers).max().unwrap();
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
        let projected = hashgraph::projected_table_bytes_for(largest, cfg.k, cfg.sizing);
        let step2 = ParaHash::new(cfg.clone()).unwrap().run_fused(&reads).unwrap().report.step2;
        assert_eq!(step2.resizes, 0, "every table held its partition");
        assert!(
            step2.peak_table_bytes < projected,
            "largest table {} B, Property-1 projection {projected} B",
            step2.peak_table_bytes
        );
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// Each core builds its own partition in its own table at once, so
    /// the host peak holds one table and one partition buffer per core.
    #[test]
    fn peak_host_bytes_holds_a_table_and_a_partition_per_core() {
        let cfg = corpus_builder("parahash-sys-peak-host").build().unwrap();
        let outcome = ParaHash::new(cfg.clone()).unwrap().run_fused(&repeat_rich_reads()).unwrap();
        let report = &outcome.report;
        let per_core = report.step2.peak_table_bytes + report.step2.peak_partition_bytes;
        let floor = outcome.graph.approx_bytes() as u64
            + report.step1.peak_resident_store_bytes
            + 2 * per_core;
        assert!(report.peak_host_bytes >= floor, "{} < {floor}", report.peak_host_bytes);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// Worker processes are a two-phase setting: a fused entry point
    /// refuses a config that asks for them before doing any work, rather
    /// than building in process as if the setting were not there.
    #[test]
    fn fused_entry_points_reject_worker_settings() {
        for (setting, builder) in [
            ("workers", corpus_builder("parahash-sys-fused-workers").workers(1)),
            ("listen", corpus_builder("parahash-sys-fused-listen").listen("127.0.0.1:0")),
        ] {
            let ph = ParaHash::new(builder.build().unwrap()).unwrap();
            let fastq = ph.config().work_dir().join("never-read.fastq");
            for err in [ph.run_fused(&reads()).unwrap_err(), ph.run_fused_fastq(&fastq).unwrap_err()] {
                let named = matches!(&err, ParaHashError::InvalidConfig(msg) if msg.contains(setting));
                assert!(named, "{setting}: {err}");
            }
            assert!(!RunJournal::exists(ph.config().work_dir()), "{setting}: no run started");
            std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        }
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
