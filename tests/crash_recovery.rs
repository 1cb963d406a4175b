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
//! lands at different points of each run, and both the two-phase and the
//! fused flow are covered.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use dna::SeqRead;
use parahash::{Fingerprint, ParaHash, ParaHashConfig, ParaHashError, RunJournal};

const K: usize = 15;
const P: usize = 5;
const PARTITIONS: usize = 6;

/// Deterministic pseudo-random read set (simple LCG): identical in the
/// parent, the child, and every resume — the whole point of the
/// fingerprint check.
fn reads() -> Vec<SeqRead> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..200)
        .map(|i| {
            let seq: Vec<u8> = (0..80).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
            SeqRead::from_ascii(format!("r{i}"), &seq)
        })
        .collect()
}

fn config(dir: &Path, fused: bool) -> ParaHashConfig {
    builder(dir, fused).build().expect("valid config")
}

/// A runner over `dir` that picks an interrupted run up from its journal.
fn resuming(dir: &Path, fused: bool) -> ParaHash {
    ParaHash::new(builder(dir, fused).resume(true).build().expect("valid config")).unwrap()
}

fn builder(dir: &Path, fused: bool) -> parahash::ParaHashConfigBuilder {
    let mut b = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .write_subgraphs(true)
        .work_dir(dir.to_path_buf());
    if fused {
        // Budget 0 forces every partition through the spill path, so the
        // `msp.store.spill` site is guaranteed to fire.
        b = b.partition_memory_budget(0);
    }
    b
}

/// The subgraph files of a finished run, keyed by partition index.
fn subgraph_bytes(dir: &Path) -> BTreeMap<usize, Vec<u8>> {
    (0..PARTITIONS)
        .map(|i| {
            let path = dir.join("subgraphs").join(format!("sub-{i:05}.dbg"));
            (i, std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the reference (uninterrupted) flow and returns its graph and
/// subgraph bytes.
fn reference(fused: bool, tag: &str) -> (hashgraph::DeBruijnGraph, BTreeMap<usize, Vec<u8>>) {
    let dir = fresh_dir(tag);
    let ph = ParaHash::new(config(&dir, fused)).unwrap();
    let rs = reads();
    let outcome =
        if fused { ph.run_fused(&rs).unwrap() } else { ph.run(&rs).unwrap() };
    let bytes = subgraph_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    (outcome.graph, bytes)
}

/// Spawns this test binary as a child that runs the pipeline with one
/// failpoint armed to `abort`. Returns whether the child terminated
/// abnormally (it should — the abort fires mid-run).
fn spawn_crashing_child(dir: &Path, fused: bool, site: &str, trigger: u32) -> bool {
    let exe = std::env::current_exe().expect("own test binary");
    let status = Command::new(exe)
        .args(["child_runner", "--exact", "--nocapture"])
        .env("PARAHASH_CRASH_CHILD_DIR", dir)
        .env("PARAHASH_CRASH_CHILD_MODE", if fused { "fused" } else { "two-phase" })
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
    let fused = std::env::var("PARAHASH_CRASH_CHILD_MODE").as_deref() == Ok("fused");
    let ph = ParaHash::new(config(Path::new(&dir), fused)).unwrap();
    let rs = reads();
    // With an `abort` failpoint armed the process dies inside here; if
    // the trigger count exceeds the site's hits, the run completes and
    // the parent's assertion on the exit status catches the misfire.
    let _ = if fused { ph.run_fused(&rs) } else { ph.run(&rs) };
}

/// The matrix driver: crash at `site` under several trigger counts,
/// resume, compare with the reference.
fn crash_matrix(fused: bool, sites: &[&str], triggers: &[u32]) {
    let mode = if fused { "fused" } else { "two-phase" };
    let (ref_graph, ref_bytes) = reference(fused, &format!("ref-{mode}"));
    for site in sites {
        for &trigger in triggers {
            let tag = format!("{mode}-{}-{trigger}", site.replace('.', "_"));
            let dir = fresh_dir(&tag);
            assert!(
                spawn_crashing_child(&dir, fused, site, trigger),
                "child must die at {site}@{trigger} ({mode})"
            );
            let ph = resuming(&dir, fused);
            let rs = reads();
            let outcome = if fused { ph.run_fused(&rs) } else { ph.run(&rs) }
                .unwrap_or_else(|e| panic!("resume after {site}@{trigger} ({mode}): {e}"));
            assert_eq!(outcome.graph, ref_graph, "graph after {site}@{trigger} ({mode})");
            assert_eq!(
                subgraph_bytes(&dir),
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
    crash_matrix(
        false,
        &["step1.staging.flush", "msp.frame.append", "step2.subgraph.write", "journal.append"],
        &[1, 2, 3],
    );
}

#[test]
fn fused_crash_at_every_site_resumes_byte_identical() {
    crash_matrix(
        true,
        &["step1.staging.flush", "msp.store.spill", "step2.subgraph.write", "journal.append"],
        &[1, 2, 3],
    );
}

#[test]
fn resume_refuses_a_mismatched_fingerprint() {
    let dir = fresh_dir("fpr-mismatch");
    let ph = ParaHash::new(config(&dir, false)).unwrap();
    ph.run(&reads()).unwrap();
    // Same work dir, different input: the journal belongs to another run.
    let other = vec![SeqRead::from_ascii("x", b"ACGTACGTACGTACGTACGT")];
    match resuming(&dir, false).run(&other) {
        Err(ParaHashError::FingerprintMismatch { .. }) => {}
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    // A non-resume run in the same dir simply starts fresh.
    ParaHash::new(config(&dir, false)).unwrap().run(&other).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_a_journal_is_a_fresh_run() {
    let dir = fresh_dir("no-journal");
    let (ref_graph, _) = reference(false, "ref-nojournal");
    let outcome = resuming(&dir, false).run(&reads()).unwrap();
    assert_eq!(outcome.graph, ref_graph);
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_verified_subgraphs_and_redoes_damaged_ones() {
    let dir = fresh_dir("partial");
    let ph = ParaHash::new(config(&dir, false)).unwrap();
    let rs = reads();
    let full = ph.run(&rs).unwrap();
    let before = subgraph_bytes(&dir);

    // Simulate the interruption: drop the journal's trailing
    // `run-complete` record (frame-aware cut), then damage one committed
    // subgraph file. Resume must redo exactly that partition.
    drop_final_journal_record(&dir);
    let victim = dir.join("subgraphs").join("sub-00002.dbg");
    let mut damaged = std::fs::read(&victim).unwrap();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x20;
    std::fs::write(&victim, &damaged).unwrap();

    let resumed = resuming(&dir, false).run(&rs).unwrap();
    assert_eq!(resumed.graph, full.graph);
    assert_eq!(subgraph_bytes(&dir), before, "damaged partition must be rewritten identically");
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
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
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        records.push((at, String::from_utf8(bytes[at + 8..at + 8 + len].to_vec()).unwrap()));
        at += 8 + len;
    }
    records
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
            let dir = fresh_dir(&format!("grammar-{tag}-{n}"));
            let cfg = builder(&dir, false).partition_memory_budget(budget).build().unwrap();
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
    let dir = fresh_dir("scoped-sweep");
    let ph = ParaHash::new(config(&dir, false)).unwrap();
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

    let resumed = resuming(&dir, false).run(&rs).unwrap();
    assert_eq!(resumed.graph, full.graph);
    assert!(!stale.exists(), "own-token leftover must be reclaimed by the resume sweep");
    assert!(live.exists(), "another run's scoped staging must survive the resume sweep");
    assert!(RunJournal::replay(&dir).unwrap().complete);
    let _ = std::fs::remove_dir_all(&dir);
}
