//! Crash-safety: kill a run at every registered failpoint site, resume
//! it, and demand the final graph *and the persisted subgraph files* are
//! byte-identical to an uninterrupted run's.
//!
//! The kill is a real one: the parent re-execs this test binary as a
//! child process (`child_runner`), arms one failpoint site with the
//! `abort` action via `PARAHASH_FAILPOINTS`, and lets the child die by
//! `SIGABRT` mid-run — fsyncs and atomic renames are exercised for
//! real, not simulated. The parent then resumes in the same work
//! directory and compares against a reference run.
//!
//! Sites are crossed with several trigger counts ("seeds") so the crash
//! lands at different points of each run, at partition budget 0 (the
//! two-phase flow) and at a partial budget (the fused flow, some
//! partitions resident and some spilled).

mod common;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};

use common::{K, P};
use dna::SeqRead;
use parahash::{
    Fingerprint, ParaHash, ParaHashConfig, ParaHashError, Result, RunJournal, RunOutcome, Step1Stats,
};
use pipeline::{IoMode, IoOp, ThrottledIo};

const PARTITIONS: usize = 6;

/// The fused flow's partition budget: over [`reads`], four of the six
/// partitions spill — so `msp.store.spill` fires at triggers 1–3 — and
/// two stay resident.
const PARTIAL_BUDGET: u64 = 6 << 10;

/// Which entry point, at which partition budget, a crashed run and its
/// resume build with.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Flow {
    /// `run`: budget 0, every partition a file.
    TwoPhase,
    /// `run_fused` at [`PARTIAL_BUDGET`].
    Fused,
    /// `run_fused` at budget 0: the two-phase data path, fused entry.
    FusedSpill,
    /// `run` over [`MANY`] partitions: the benchmark's `resume_half`
    /// shape, a seal batch of 64 files.
    TwoPhaseMany,
}

impl Flow {
    const ALL: [Flow; 4] = [Flow::TwoPhase, Flow::Fused, Flow::FusedSpill, Flow::TwoPhaseMany];

    fn name(self) -> &'static str {
        match self {
            Flow::TwoPhase => "two-phase",
            Flow::Fused => "fused",
            Flow::FusedSpill => "fused-spill",
            Flow::TwoPhaseMany => "two-phase-many",
        }
    }

    fn build(self, ph: &ParaHash, rs: &[SeqRead]) -> Result<RunOutcome> {
        match self {
            Flow::TwoPhase | Flow::TwoPhaseMany => ph.run(rs),
            Flow::Fused | Flow::FusedSpill => ph.run_fused(rs),
        }
    }
}

/// [`Flow::TwoPhaseMany`]'s partition count.
const MANY: usize = 64;

/// The sites each flow passes, every one a crash point below; together
/// they are `pipeline::failpoint::SITES`.
const TWO_PHASE_SITES: &[&str] =
    &["step1.staging.flush", "msp.frame.append", "step2.subgraph.write", "journal.append"];
const FUSED_SITES: &[&str] =
    &["step1.staging.flush", "msp.store.spill", "step2.subgraph.write", "journal.append"];

/// Identical in the parent, the child, and every resume — the whole
/// point of the fingerprint check.
fn reads() -> Vec<SeqRead> {
    common::reads(200, 80, 0x9E37_79B9_7F4A_7C15)
}

fn config(dir: &Path, flow: Flow) -> ParaHashConfig {
    builder(dir, flow).build().expect("valid config")
}

/// A runner over `dir` that picks an interrupted run up from its journal.
fn resuming(dir: &Path, flow: Flow) -> ParaHash {
    ParaHash::new(builder(dir, flow).resume(true).build().expect("valid config")).unwrap()
}

fn builder(dir: &Path, flow: Flow) -> parahash::ParaHashConfigBuilder {
    let b = common::builder(dir).partitions(PARTITIONS);
    match flow {
        Flow::TwoPhase => b,
        Flow::Fused => b.partition_memory_budget(PARTIAL_BUDGET),
        Flow::FusedSpill => b.partition_memory_budget(0),
        Flow::TwoPhaseMany => b.partitions(MANY),
    }
}

/// Runs the reference (uninterrupted) flow and returns its graph and
/// subgraph bytes.
fn reference(flow: Flow, tag: &str) -> (hashgraph::DeBruijnGraph, BTreeMap<String, Vec<u8>>) {
    let dir = common::fresh_dir(tag);
    let ph = ParaHash::new(config(&dir, flow)).unwrap();
    let outcome = flow.build(&ph, &reads()).unwrap();
    let bytes = common::subgraph_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    (outcome.graph, bytes)
}

/// Spawns this test binary as a child that runs the pipeline with one
/// failpoint armed to `abort`. Returns whether the child terminated
/// abnormally (it should — the abort fires mid-run).
fn spawn_crashing_child(dir: &Path, flow: Flow, site: &str, trigger: u32) -> bool {
    let exe = std::env::current_exe().expect("own test binary");
    let status = Command::new(exe)
        .args(["child_runner", "--exact", "--nocapture"])
        .env("PARAHASH_CRASH_CHILD_DIR", dir)
        .env("PARAHASH_CRASH_CHILD_MODE", flow.name())
        .env("PARAHASH_FAILPOINTS", format!("{site}=abort@{trigger}"))
        .status()
        .expect("spawn child");
    !status.success()
}

/// The child half of the harness: does nothing unless the parent set the
/// environment up, in which case it runs the pipeline and (with an
/// `abort` failpoint armed) dies partway through.
#[test]
fn child_runner() {
    let Ok(dir) = std::env::var("PARAHASH_CRASH_CHILD_DIR") else { return };
    let mode = std::env::var("PARAHASH_CRASH_CHILD_MODE").unwrap();
    let flow = Flow::ALL.into_iter().find(|flow| flow.name() == mode).unwrap();
    let ph = ParaHash::new(config(Path::new(&dir), flow)).unwrap();
    // With an `abort` failpoint armed the process dies inside here; if
    // the trigger count exceeds the site's hits, the run completes and
    // the parent's assertion on the exit status catches the misfire.
    let _ = flow.build(&ph, &reads());
}

/// The matrix driver: crash at `site` under several trigger counts,
/// resume, compare with the reference.
fn crash_matrix(flow: Flow, sites: &[&str], triggers: &[u32]) {
    let mode = flow.name();
    let (ref_graph, ref_bytes) = reference(flow, &format!("ref-{mode}"));
    for site in sites {
        for &trigger in triggers {
            let tag = format!("{mode}-{}-{trigger}", site.replace('.', "_"));
            let dir = common::fresh_dir(&tag);
            assert!(
                spawn_crashing_child(&dir, flow, site, trigger),
                "child must die at {site}@{trigger} ({mode})"
            );
            let outcome = flow
                .build(&resuming(&dir, flow), &reads())
                .unwrap_or_else(|e| panic!("resume after {site}@{trigger} ({mode}): {e}"));
            assert_eq!(outcome.graph, ref_graph, "graph after {site}@{trigger} ({mode})");
            assert_eq!(
                common::subgraph_bytes(&dir),
                ref_bytes,
                "subgraph files must be byte-identical after {site}@{trigger} ({mode})"
            );
            let state = RunJournal::replay(&dir).unwrap();
            assert!(state.complete, "resumed journal must end complete ({site}@{trigger} {mode})");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn two_phase_crash_at_every_site_resumes_byte_identical() {
    crash_matrix(Flow::TwoPhase, TWO_PHASE_SITES, &[1, 2, 3]);
}

#[test]
fn fused_crash_at_every_site_resumes_byte_identical() {
    crash_matrix(Flow::Fused, FUSED_SITES, &[1, 2, 3]);
}

/// Step 1 seals a budget-0 run's partitions as one group commit — every
/// file renamed, then one directory fsync — and journals them in one
/// append. Killed after the renames, before the first `partition-sealed`
/// record (the 2nd `journal.append`; `config` is the 1st), the run has
/// every file at its final name and none journaled; killed amid the
/// records (the 33rd), it has the first 31 journaled. Either way the
/// resume re-runs Step 1 and ends byte-identical.
#[test]
fn a_crash_in_the_batched_seal_resumes_byte_identical() {
    let flow = Flow::TwoPhaseMany;
    let (ref_graph, ref_bytes) = reference(flow, "ref-seal-batch");
    for (trigger, journaled) in [(2, 0), (33, 31)] {
        let dir = common::fresh_dir(&format!("seal-batch-{trigger}"));
        assert!(spawn_crashing_child(&dir, flow, "journal.append", trigger), "child must die");
        let state = RunJournal::replay(&dir).unwrap();
        assert_eq!(state.sealed.len(), journaled, "journal.append@{trigger}");
        let parts = dir.join("superkmers");
        assert!(parts.join("manifest.txt").exists(), "journal.append@{trigger}: the batch committed");
        for i in 0..MANY {
            let part = parts.join(format!("part-{i:05}.skm"));
            assert!(part.exists(), "journal.append@{trigger}: part {i}");
        }
        let outcome = flow.build(&resuming(&dir, flow), &reads()).unwrap();
        assert!(outcome.report.step1.step1_stats.unwrap().superkmers > 0, "Step 1 re-ran");
        assert_eq!(outcome.graph, ref_graph, "graph after journal.append@{trigger}");
        assert_eq!(common::subgraph_bytes(&dir), ref_bytes, "files after journal.append@{trigger}");
        assert!(RunJournal::replay(&dir).unwrap().complete);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The benchmark's `resume_half` set-up contract: a two-phase build of 64
/// partitions killed at its 33rd subgraph write has journaled all 64
/// partitions sealed and exactly 32 subgraphs committed — the same in
/// every repetition.
#[test]
fn a_crash_at_the_33rd_subgraph_write_leaves_64_sealed_and_32_committed() {
    for rep in 0..3 {
        let dir = common::fresh_dir(&format!("half-crash-{rep}"));
        let died = spawn_crashing_child(&dir, Flow::TwoPhaseMany, "step2.subgraph.write", 33);
        assert!(died, "child must die");
        let state = RunJournal::replay(&dir).unwrap();
        assert_eq!(state.sealed, (0..MANY).collect(), "repetition {rep}");
        assert_eq!(state.committed.len(), 32, "repetition {rep}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One resume rule for every entry point: a fused run at budget 0 killed
/// in Step 2 has journaled every partition sealed, so its resume skips
/// Step 1 — an idle Step-1 report — and still ends byte-identical.
#[test]
fn a_fused_run_whose_partitions_all_spilled_resumes_without_step1() {
    let flow = Flow::FusedSpill;
    let (ref_graph, ref_bytes) = reference(flow, "ref-fused-spill");
    let dir = common::fresh_dir("fused-spill-skip");
    assert!(spawn_crashing_child(&dir, flow, "step2.subgraph.write", 2), "child must die");
    let outcome = flow.build(&resuming(&dir, flow), &reads()).unwrap();
    assert_eq!(outcome.report.step1.step1_stats, Some(Step1Stats::default()), "Step 1 ran");
    assert_eq!(outcome.graph, ref_graph);
    assert_eq!(common::subgraph_bytes(&dir), ref_bytes);
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A budget-0 run commits a file for every partition — one no record was
/// routed to included — and journals each sealed, so a resume skips
/// Step 1 and builds every partition from its file, whether a worker
/// process leases it or the parent's cores claim it.
#[test]
fn every_partition_of_a_budget_0_run_is_a_sealed_file() {
    let dir = common::fresh_dir("budget0-every-file");
    let builder = || common::builder(&dir).partitions(MANY);
    let rs = reads();
    let full = ParaHash::new(builder().build().unwrap()).unwrap().run(&rs).unwrap();
    let manifest = msp::PartitionManifest::load(dir.join("superkmers")).unwrap();
    let empty = manifest.stats().iter().filter(|stats| stats.bytes == 0).count();
    assert!(empty > 0 && empty < MANY, "{empty} of {MANY} partitions empty");
    for i in 0..MANY {
        assert!(manifest.partition_path(i).exists(), "part-{i:05}.skm");
    }
    assert_eq!(RunJournal::replay(&dir).unwrap().sealed, (0..MANY).collect());
    let before = common::subgraph_bytes(&dir);

    // Interrupted with nothing of Step 2 left: every partition goes to the
    // one worker or to a parent core, read from its file.
    drop_final_journal_record(&dir);
    std::fs::remove_dir_all(dir.join("subgraphs")).unwrap();
    let resumed = builder().workers(1).resume(true).build().unwrap();
    let outcome = ParaHash::new(resumed).unwrap().run(&rs).unwrap();
    assert_eq!(outcome.report.step1.step1_stats, Some(Step1Stats::default()), "Step 1 ran");
    assert_eq!(outcome.graph, full.graph);
    assert_eq!(common::subgraph_bytes(&dir), before);
    let journal = RunJournal::replay(&dir).unwrap();
    let leased: std::collections::BTreeSet<usize> = journal.leases.iter().map(|&(_, p)| p).collect();
    assert!(!leased.is_empty() && leased.len() == journal.leases.len(), "{:?}", journal.leases);
    let claimed: usize = outcome.report.step2.pipeline.shares.iter().map(|s| s.partitions).sum();
    assert_eq!(claimed, MANY, "every partition claimed once");
    assert_eq!(journal.committed, (0..MANY).collect(), "every partition committed");
    assert!(journal.complete);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A work dir written before Step 1 combined copies — one weight-1
/// record per superkmer, as `msp::PartitionWriter` still writes them —
/// resumes as it is: Step 1 skipped, every subgraph rebuilt from the old
/// files byte-identical to a combined run's.
#[test]
fn partition_files_of_unweighted_records_resume_byte_identical() {
    let dir = common::fresh_dir("unweighted-parts");
    // Every read twice, so the combined run holds weighted records.
    let rs: Vec<SeqRead> = [reads(), reads()].concat();
    let full = ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap().run(&rs).unwrap();
    let before = common::subgraph_bytes(&dir);
    let weights = |dir: &Path| -> Vec<u32> {
        let manifest = msp::PartitionManifest::load(dir.join("superkmers")).unwrap();
        (0..PARTITIONS)
            .flat_map(|i| {
                let framed = std::fs::read(manifest.partition_path(i)).unwrap();
                let slices = msp::PartitionSlices::index_framed(&framed, K, P).unwrap();
                slices.iter().map(|v| v.weight()).collect::<Vec<_>>()
            })
            .collect()
    };
    assert!(weights(&dir).iter().any(|&w| w > 1), "the combined run holds weighted records");

    // Overwrite Step 1's output with the uncombined records of the same
    // reads, the way the writer lays them out.
    let seqs: Vec<dna::PackedSeq> = rs.iter().map(|r| r.seq().clone()).collect();
    let mut writer = msp::PartitionWriter::create(dir.join("superkmers"), PARTITIONS, K, P).unwrap();
    for (i, records) in msp::partition_in_memory(&seqs, K, P, PARTITIONS).unwrap().iter().enumerate() {
        let slices = msp::PartitionSlices::index(records, K, P).unwrap();
        writer.append_encoded(i, records, slices.len() as u64, slices.total_kmers() as u64).unwrap();
    }
    writer.finish().unwrap();
    let old = weights(&dir);
    assert!(old.iter().all(|&w| w == 1), "the writer combines nothing");
    assert_eq!(old.len() as u64, full.report.step1.step1_stats.unwrap().superkmers);

    drop_final_journal_record(&dir);
    std::fs::remove_dir_all(dir.join("subgraphs")).unwrap();
    let outcome = resuming(&dir, Flow::TwoPhase).run(&rs).unwrap();
    assert_eq!(outcome.report.step1.step1_stats, Some(Step1Stats::default()), "Step 1 ran");
    assert_eq!(outcome.graph, full.graph);
    assert_eq!(common::subgraph_bytes(&dir), before);
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A site registered but in neither list would never be crashed at.
#[test]
fn the_flows_cover_every_registered_site() {
    let mut covered: Vec<&str> = TWO_PHASE_SITES.iter().chain(FUSED_SITES).copied().collect();
    covered.sort_unstable();
    covered.dedup();
    let mut registered = pipeline::failpoint::SITES.to_vec();
    registered.sort_unstable();
    assert_eq!(covered, registered);
}

#[test]
fn resume_refuses_a_mismatched_fingerprint() {
    let dir = common::fresh_dir("fpr-mismatch");
    let ph = ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap();
    ph.run(&reads()).unwrap();
    // Same work dir, different input: the journal belongs to another run.
    let other = vec![SeqRead::from_ascii("x", b"ACGTACGTACGTACGTACGT")];
    match resuming(&dir, Flow::TwoPhase).run(&other) {
        Err(ParaHashError::FingerprintMismatch { .. }) => {}
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    // A non-resume run in the same dir simply starts fresh.
    ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap().run(&other).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A streamed input is fingerprinted by its canonical path, so the same
/// FASTQ named another way (`dir/./reads.fastq`, as a resume from another
/// working directory or through a relative path would name it) resumes
/// the build of `dir/reads.fastq` and skips everything it committed.
#[test]
fn a_resume_may_name_the_same_fastq_by_another_path() {
    let dir = common::fresh_dir("fastq-alias");
    let fastq = dir.with_extension("fastq");
    let mut w = dna::FastqWriter::new(std::fs::File::create(&fastq).unwrap());
    for r in &reads() {
        w.write_record(r).unwrap();
    }
    w.into_inner().unwrap().sync_all().unwrap();
    let full = ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap().run_fastq_streaming(&fastq).unwrap();
    let before = common::subgraph_bytes(&dir);
    drop_final_journal_record(&dir);

    let alias = fastq.parent().unwrap().join(".").join(fastq.file_name().unwrap());
    let resumed = resuming(&dir, Flow::TwoPhase)
        .run_fastq_streaming(&alias)
        .unwrap_or_else(|e| panic!("resume through {alias:?}: {e}"));
    assert_eq!(resumed.graph, full.graph);
    assert_eq!(resumed.report.step1.step1_stats, Some(Step1Stats::default()), "Step 1 ran");
    assert_eq!(resumed.report.step2.pipeline.total_work(), 0, "a committed subgraph was rebuilt");
    assert_eq!(common::subgraph_bytes(&dir), before);
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&fastq);
}

/// `reads` as FASTQ text.
fn fastq_text(reads: &[SeqRead]) -> Vec<u8> {
    let mut w = dna::FastqWriter::new(Vec::new());
    for r in reads {
        w.write_record(r).unwrap();
    }
    w.into_inner().unwrap()
}

/// An anonymous pipe (`/dev/stdin`, `<(zcat …)`) builds like the file it
/// carries. It has no identity a rerun could read again, so a resume
/// from one is refused up front, by name, before the pipe is read.
#[cfg(target_os = "linux")]
#[test]
fn an_anonymous_pipe_builds_and_refuses_to_resume() {
    use std::io::Write;
    use std::os::fd::AsRawFd;
    let dir = common::fresh_dir("pipe");
    let (reference, _) = reference(Flow::TwoPhase, "pipe-ref");
    let (reader, mut writer) = std::io::pipe().unwrap();
    let text = fastq_text(&reads());
    let feeder = std::thread::spawn(move || writer.write_all(&text));
    let path = format!("/proc/self/fd/{}", reader.as_raw_fd());
    let built = ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap().run_fastq_streaming(&path);
    feeder.join().unwrap().unwrap();
    assert_eq!(built.unwrap_or_else(|e| panic!("build from {path}: {e}")).graph, reference);

    let (reader, _writer) = std::io::pipe().unwrap();
    let path = format!("/proc/self/fd/{}", reader.as_raw_fd());
    match resuming(&dir, Flow::TwoPhase).run_fastq_streaming(&path) {
        Err(e @ ParaHashError::UnresumableInput { .. }) => {
            let message = e.to_string();
            assert!(message.contains(&path) && message.contains("not a regular file"), "{message}");
        }
        other => panic!("expected UnresumableInput, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume keeps the committed subgraphs that check clean as mappings:
/// the graph it returns holds every committed file mapped, none of it
/// resident, and is the uninterrupted run's graph.
#[test]
fn a_resumed_graph_maps_the_subgraphs_it_kept() {
    let dir = common::fresh_dir("resume-mapped");
    let rs = reads();
    // An owned copy, so that only the resumed graph maps files here.
    let full = ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap().run(&rs).unwrap().graph.clone();
    drop_final_journal_record(&dir);
    for i in (0..PARTITIONS).step_by(2) {
        std::fs::remove_file(dir.join("subgraphs").join(format!("sub-{i:05}.dbg"))).unwrap();
    }
    let resumed = resuming(&dir, Flow::TwoPhase).run(&rs).unwrap();
    assert!(resumed.report.step2.pipeline.total_work() > 0, "half was rebuilt");
    #[cfg(target_os = "linux")]
    {
        let mapped = common::mapped_subgraphs(&dir);
        assert_eq!(mapped.len(), PARTITIONS, "{mapped:?}");
        assert!(mapped.iter().all(|(_, rss)| *rss == 0), "{mapped:?}");
        assert_eq!(resumed.graph.approx_bytes(), 0);
    }
    assert_eq!(resumed.graph, full);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kept subgraph cut short in place while the resumed run rebuilds the
/// rest — after the plan checked and mapped it, before the run's tail
/// looks at it again — fails the run with the damage named. Nothing in
/// the run reads the mapping past the cut, which would fault.
#[test]
fn a_kept_subgraph_cut_short_mid_run_fails_the_resume() {
    let dir = common::fresh_dir("resume-cut");
    let rs = reads();
    ParaHash::new(config(&dir, Flow::FusedSpill)).unwrap().run_fused(&rs).unwrap();
    drop_final_journal_record(&dir);
    let sub = |i: usize| dir.join("subgraphs").join(format!("sub-{i:05}.dbg"));
    std::fs::remove_file(sub(0)).unwrap();
    let victim = sub(1);
    // The first read through the run's I/O is Step 2 loading partition
    // 0's file, which the resume rebuilds.
    let io = ThrottledIo::new(IoMode::Unthrottled);
    let cut = AtomicBool::new(false);
    io.set_fault_hook(Box::new(move |_, op, _| {
        if op == IoOp::Read && !cut.swap(true, Ordering::Relaxed) {
            let bytes = std::fs::read(&victim).unwrap();
            std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        }
        None
    }));
    let err = resuming(&dir, Flow::FusedSpill).run_fused_with_io(&rs, &io).map(|_| ()).unwrap_err();
    let err = err.to_string();
    assert!(err.contains("partition 1") && err.contains("truncated tail"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_a_journal_is_a_fresh_run() {
    let dir = common::fresh_dir("no-journal");
    let (ref_graph, _) = reference(Flow::TwoPhase, "ref-nojournal");
    let outcome = resuming(&dir, Flow::TwoPhase).run(&reads()).unwrap();
    assert_eq!(outcome.graph, ref_graph);
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_verified_subgraphs_and_redoes_damaged_ones() {
    let dir = common::fresh_dir("partial");
    let ph = ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap();
    let rs = reads();
    // An owned copy: the run's graph maps the files damaged in place below.
    let full = ph.run(&rs).unwrap().graph.clone();
    let before = common::subgraph_bytes(&dir);

    // Simulate the interruption: drop the journal's trailing
    // `run-complete` record (frame-aware cut), then damage one committed
    // subgraph file. Resume must redo exactly that partition.
    drop_final_journal_record(&dir);
    let victim = dir.join("subgraphs").join("sub-00002.dbg");
    let mut damaged = std::fs::read(&victim).unwrap();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x20;
    std::fs::write(&victim, &damaged).unwrap();

    let resumed = resuming(&dir, Flow::TwoPhase).run(&rs).unwrap();
    assert_eq!(resumed.graph, full);
    assert_eq!(common::subgraph_bytes(&dir), before, "damaged partition must be rewritten identically");
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Subgraph files in the earlier 68-byte-record layout no longer decode,
/// so resume finds every committed partition unverified and rebuilds it:
/// the run ends byte-identical to a fresh one.
#[test]
fn resume_rebuilds_subgraphs_of_the_68_byte_record_layout() {
    let dir = common::fresh_dir("old-layout");
    let rs = reads();
    // An owned copy: the run's graph maps the files rewritten in place below.
    let full = ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap().run(&rs).unwrap().graph.clone();
    let before = common::subgraph_bytes(&dir);
    drop_final_journal_record(&dir);
    for (name, bytes) in &before {
        let old = old_layout(&hashgraph::decode_subgraph(bytes).unwrap());
        assert!(hashgraph::decode_subgraph(&old).is_err(), "{name}");
        std::fs::write(dir.join("subgraphs").join(name), old).unwrap();
    }
    let resumed = resuming(&dir, Flow::TwoPhase).run(&rs).unwrap();
    assert_eq!(resumed.graph, full);
    assert_eq!(common::subgraph_bytes(&dir), before, "every partition must be rewritten identically");
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The earlier vertex-run layout: `u64 count | u8 k`, then per vertex
/// 4×`u64` key words, a `u32` count and 8×`u32` edges, then the CRC-32.
fn old_layout(sub: &hashgraph::SubGraph) -> Vec<u8> {
    let mut out = (sub.len() as u64).to_le_bytes().to_vec();
    out.push(sub.k() as u8);
    for (kmer, data) in sub.entries() {
        kmer.words().iter().for_each(|w| out.extend_from_slice(&w.to_le_bytes()));
        out.extend_from_slice(&data.count.to_le_bytes());
        data.edges.iter().for_each(|e| out.extend_from_slice(&e.to_le_bytes()));
    }
    let crc = msp::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Frame-aware cut of the journal's trailing `run-complete` record, so
/// the directory reads as an interrupted (resumable) run.
fn drop_final_journal_record(dir: &Path) {
    let journal_path = dir.join("run.journal");
    let bytes = std::fs::read(&journal_path).unwrap();
    let last = journal_records(&bytes).last().expect("a journal has records").0;
    std::fs::write(&journal_path, &bytes[..last]).unwrap();
}

/// Frame-aware walk of a journal: `(offset, payload line)` per record.
fn journal_records(bytes: &[u8]) -> Vec<(usize, String)> {
    msp::walk_frames(bytes, None)
        .map(|frame| {
            let (at, payload) = frame.unwrap();
            (at, String::from_utf8(payload.to_vec()).unwrap())
        })
        .collect()
}

/// The journal grammar is what docs/FORMATS.md says: a completed fused
/// run writes one `config`, one `partition-sealed` per *spilled*
/// partition, one `subgraph-committed` per partition and one
/// `run-complete` — nothing derived from timings, so two builds of the
/// same input write the same records (commits land in completion order,
/// hence multiset rather than byte equality).
#[test]
fn fused_journal_holds_exactly_the_documented_records() {
    let rs = reads();
    for (tag, budget) in [("spill", 0u64), ("resident", u64::MAX)] {
        let build = |n: usize| {
            let dir = common::fresh_dir(&format!("grammar-{tag}-{n}"));
            let cfg = builder(&dir, Flow::TwoPhase).partition_memory_budget(budget).build().unwrap();
            ParaHash::new(cfg).unwrap().run_fused(&rs).unwrap();
            let bytes = std::fs::read(dir.join("run.journal")).unwrap();
            let state = RunJournal::replay(&dir).unwrap();
            let spilled: Vec<usize> = (0..PARTITIONS)
                .filter(|i| dir.join("superkmers").join(format!("part-{i:05}.skm")).exists())
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            (bytes, state, spilled)
        };
        let (bytes, state, spilled) = build(0);
        assert!(state.complete && !state.torn_tail, "{tag}");
        assert_eq!(state.sealed.iter().copied().collect::<Vec<_>>(), spilled, "{tag}");
        assert_eq!(spilled.is_empty(), budget == u64::MAX, "{tag}");
        assert_eq!(state.committed.len(), PARTITIONS, "{tag}");
        let sorted_lines = |bytes: &[u8]| {
            let mut lines: Vec<String> =
                journal_records(bytes).into_iter().map(|(_, line)| line).collect();
            lines.sort_unstable();
            lines
        };
        let lines = sorted_lines(&bytes);
        assert_eq!(
            lines.len(),
            1 + spilled.len() + PARTITIONS + 1,
            "{tag}: config + spilled seals + commits + run-complete, got {lines:?}"
        );

        let (again, ..) = build(1);
        assert_eq!(again.len(), bytes.len(), "{tag}: identical builds, identical journal length");
        assert_eq!(lines, sorted_lines(&again), "{tag}");
    }
}

/// Two runs interleaved in one output directory: resuming run A must
/// reclaim only *A's* stale partition staging, never run B's live
/// staging (scoped `*.{token}.tmp` with a different fingerprint token).
/// Before sweeps were token-scoped, A's recovery deleted B's open
/// staging files out from under it.
#[test]
fn resume_sweep_spares_a_concurrent_runs_staging() {
    let dir = common::fresh_dir("scoped-sweep");
    let ph = ParaHash::new(config(&dir, Flow::TwoPhase)).unwrap();
    let rs = reads();
    let full = ph.run(&rs).unwrap();
    drop_final_journal_record(&dir);

    // Plant the two kinds of staging a shared directory can hold at
    // resume time: a leftover scoped to *this* run's token (dead weight
    // from its crash) and one scoped to a different fingerprint (run B,
    // still live). Tokens are derived exactly as the system derives them.
    let own =
        Fingerprint { k: K, p: P, partitions: PARTITIONS, input_digest: Fingerprint::digest_reads(&rs) }
            .token();
    let other = Fingerprint {
        k: K,
        p: P,
        partitions: PARTITIONS,
        input_digest: !Fingerprint::digest_reads(&rs),
    }
    .token();
    assert_ne!(own, other);
    let sup = dir.join("superkmers");
    let stale = pipeline::commit::tmp_path_scoped(&sup.join("part-00000.skm"), &own);
    let live = pipeline::commit::tmp_path_scoped(&sup.join("part-00001.skm"), &other);
    std::fs::write(&stale, b"run A's crashed staging").unwrap();
    std::fs::write(&live, b"run B's live staging").unwrap();

    let resumed = resuming(&dir, Flow::TwoPhase).run(&rs).unwrap();
    assert_eq!(resumed.graph, full.graph);
    assert!(!stale.exists(), "own-token leftover must be reclaimed by the resume sweep");
    assert!(live.exists(), "another run's scoped staging must survive the resume sweep");
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}

