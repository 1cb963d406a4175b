//! Multi-process Step 2 (`workers(N)`): the sharded build — real child
//! processes claiming partitions over the Unix-socket lease protocol —
//! must produce a graph and persisted subgraph files **byte-identical**
//! to the in-process build's, for every worker count, with and without
//! a table budget that forces out-of-core sub-partitioning inside the
//! workers. It also holds the one-status-board contract for all three
//! flows (two-phase, fused, sharded): Step 2's outcomes are journal
//! records that agree with the step report, and `manifest.txt` stays what
//! Step 1 wrote.
//!
//! Workers are this test binary re-exec'ed with
//! `shard_worker_entry --exact` (the `crash_recovery.rs` self-exec
//! pattern): the parent passes socket/worker-id through the
//! environment, and [`parahash::worker_from_env`] routes the child into
//! the worker loop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dna::SeqRead;
use parahash::{ParaHash, ParaHashConfig, RunJournal};
use pipeline::{IoMode, IoOp, ThrottledIo};

const K: usize = 15;
const P: usize = 5;
const PARTITIONS: usize = 8;

/// The worker half: a no-op when run as an ordinary test, the shard
/// worker loop when the parent's environment says so.
#[test]
fn shard_worker_entry() {
    parahash::worker_from_env().expect("worker run");
}

fn reads() -> Vec<SeqRead> {
    let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..400)
        .map(|i| {
            let seq: Vec<u8> = (0..90).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
            SeqRead::from_ascii(format!("r{i}"), &seq)
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, workers: usize, budget: Option<u64>) -> ParaHashConfig {
    let mut b = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .write_subgraphs(true)
        .workers(workers)
        .worker_spawn_args(["shard_worker_entry", "--exact", "--nocapture"])
        .work_dir(dir.to_path_buf());
    if let Some(budget) = budget {
        b = b.table_memory_budget(budget);
    }
    b.build().expect("valid config")
}

fn subgraph_bytes(dir: &Path) -> BTreeMap<usize, Vec<u8>> {
    (0..PARTITIONS)
        .map(|i| {
            let path = dir.join("subgraphs").join(format!("sub-{i:05}.dbg"));
            (i, std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        })
        .collect()
}

#[test]
fn sharded_build_is_byte_identical_to_in_process() {
    let rs = reads();
    let ref_dir = fresh_dir("ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    for workers in [1usize, 2, 4] {
        let dir = fresh_dir(&format!("w{workers}"));
        let sharded = ParaHash::new(config(&dir, workers, None)).unwrap().run(&rs).unwrap();
        assert_eq!(sharded.graph, reference.graph, "graph with {workers} worker(s)");
        assert_eq!(
            subgraph_bytes(&dir),
            ref_bytes,
            "subgraph files with {workers} worker(s) must be byte-identical"
        );
        assert!(sharded.report.step2.quarantined.is_empty());
        assert_eq!(sharded.report.step2.pipeline.partitions, PARTITIONS);

        // The parent's journal carries the lease log: every partition
        // was leased at least once, to a real worker id.
        let state = RunJournal::replay(&dir).unwrap();
        let leased: std::collections::BTreeSet<usize> =
            state.leases.iter().map(|&(_, p)| p).collect();
        assert_eq!(leased.len(), PARTITIONS, "every partition must appear in the lease log");
        assert!(state.leases.iter().all(|&(w, _)| w < workers), "{:?}", state.leases);
        assert!(state.complete, "sharded run must journal run-complete");

        // Each worker left its own journal behind — except over TCP
        // (the CI loopback rerun sets PARAHASH_SHARD_TRANSPORT=tcp),
        // where workers are treated as remote: diskless, so they keep
        // no journal at all.
        let tcp = std::env::var("PARAHASH_SHARD_TRANSPORT").is_ok_and(|v| v == "tcp");
        for w in 0..workers {
            assert!(
                tcp || RunJournal::exists(&dir.join(format!("worker-{w}"))),
                "worker {w} journal missing"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Sharding composed with the out-of-core path: a budget that forces
/// sub-partitioning *inside the workers* must still match the
/// unconstrained in-process reference byte for byte, and the sub-split
/// marks must flow back into the parent's report and journal.
#[test]
fn sharded_build_with_forced_splits_matches_reference() {
    let rs = reads();
    let ref_dir = fresh_dir("budget-ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    let dir = fresh_dir("budget-w2");
    let sharded = ParaHash::new(config(&dir, 2, Some(16 << 10))).unwrap().run(&rs).unwrap();
    assert_eq!(sharded.graph, reference.graph);
    assert_eq!(subgraph_bytes(&dir), ref_bytes);
    assert!(
        !sharded.report.step2.sub_splits.is_empty(),
        "tight budget must force sub-partitioning in the workers"
    );
    assert_eq!(journaled_sub_splits(&dir), sharded.report.step2.sub_splits);
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `sub-split` records of `dir`'s run journal, sorted by partition as
/// the step report sorts them.
fn journaled_sub_splits(dir: &Path) -> Vec<(usize, usize)> {
    let mut marks = RunJournal::replay(dir).unwrap().sub_splits;
    marks.sort_unstable();
    marks
}

/// One status board: what Step 2 did with a partition — set it aside,
/// built it out of core — is a `run.journal` record and a line of the
/// step report, which agree; `manifest.txt` is Step 1's output, byte for
/// byte the one a healthy unconstrained run over the same input writes.
/// Two-phase, fused and sharded, each non-strict with one corrupted
/// partition and a table budget that splits the rest.
#[test]
fn step2_outcomes_are_journaled_and_the_manifest_stays_step1s() {
    let rs = reads();
    let ref_dir = fresh_dir("board-ref");
    ParaHash::new(config(&ref_dir, 0, None)).unwrap().run(&rs).unwrap();
    let manifest_file =
        |dir: &Path| std::fs::read_to_string(dir.join("superkmers/manifest.txt")).unwrap();
    let manifest = msp::PartitionManifest::load(ref_dir.join("superkmers")).unwrap();
    let victim = (0..PARTITIONS).max_by_key(|&i| manifest.stats()[i].bytes).unwrap();
    let corrupt = |path: &Path| {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[msp::FRAME_HEADER_LEN] ^= 0xff;
        std::fs::write(path, bytes).unwrap();
    };

    for flow in ["two-phase", "fused", "workers-2"] {
        let dir = fresh_dir(&format!("board-{flow}"));
        let builder = || {
            ParaHashConfig::builder()
                .k(K)
                .p(P)
                .partitions(PARTITIONS)
                .cpu_threads(2)
                .write_subgraphs(true)
                .worker_spawn_args(["shard_worker_entry", "--exact", "--nocapture"])
                .work_dir(&dir)
        };
        let unhealthy = builder().strict(false).table_memory_budget(16 << 10);
        let outcome = if flow == "fused" {
            // Every partition spills; the victim's file is damaged as
            // Step 2 first reads it back.
            let ph = ParaHash::new(unhealthy.partition_memory_budget(0).build().unwrap()).unwrap();
            let io = ThrottledIo::new(IoMode::Unthrottled);
            let part = format!("part-{victim:05}.skm");
            io.set_fault_hook(Box::new(move |path, op, attempt| {
                if op == IoOp::Read && attempt == 1 && path.ends_with(&part) {
                    corrupt(path);
                }
                None
            }));
            ph.run_fused_with_io(&rs, &io).unwrap()
        } else {
            // A first run that dies in Step 2 (a 1-byte table budget it
            // may not split under) leaves Step 1's output sealed; the
            // victim is damaged on disk; the resumed run is the one under
            // test.
            let doomed = builder().table_memory_budget(1).out_of_core(false).build().unwrap();
            ParaHash::new(doomed).unwrap().run(&rs).expect_err("over budget");
            corrupt(&dir.join("superkmers").join(format!("part-{victim:05}.skm")));
            let workers = if flow == "workers-2" { 2 } else { 0 };
            let resumed = unhealthy.resume(true).workers(workers).build().unwrap();
            ParaHash::new(resumed).unwrap().run(&rs).unwrap()
        };

        assert_eq!(manifest_file(&dir), manifest_file(&ref_dir), "{flow}: manifest.txt");
        let step2 = &outcome.report.step2;
        assert_eq!(step2.quarantined.len(), 1, "{flow}: {:?}", step2.quarantined);
        assert_eq!(step2.quarantined[0].index, victim, "{flow}");
        assert!(!step2.sub_splits.is_empty(), "{flow}: the budget must split");
        assert!(step2.sub_splits.iter().all(|&(i, _)| i != victim), "{flow}");
        let state = RunJournal::replay(&dir).unwrap();
        let set_aside: Vec<_> =
            step2.quarantined.iter().map(|q| (q.index, q.reason.clone())).collect();
        assert_eq!(state.quarantined, set_aside, "{flow}: journal and report");
        assert_eq!(journaled_sub_splits(&dir), step2.sub_splits, "{flow}: journal and report");
        assert!(state.complete, "{flow}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}
