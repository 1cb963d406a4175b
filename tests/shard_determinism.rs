//! One status board for all three Step-2 flows (two-phase, fused,
//! sharded in either transfer mode, also under network chaos): what Step 2
//! did with a partition is a journal record that agrees with the step
//! report, and `manifest.txt` stays what Step 1 wrote. (The sharded
//! build's byte-identity across worker counts, transfer modes and budgets is
//! a set of rows of `tests/determinism.rs`.)

mod common;

use std::path::Path;

use common::{DELAY, DROP, GARBLE, NET_DEADLINES, PARTITIONS, TIGHT_TABLE_BUDGET};
use parahash::{ParaHash, RunJournal};
use pipeline::{IoMode, IoOp, ThrottledIo};

/// The `sub-split` records of `dir`'s run journal, sorted by partition as
/// the step report sorts them.
fn journaled_sub_splits(dir: &Path) -> Vec<(usize, usize)> {
    let mut marks = RunJournal::replay(dir).unwrap().sub_splits;
    marks.sort_unstable();
    marks
}

/// How a board run builds Step 2.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Flow {
    TwoPhase,
    Fused,
    /// Two worker processes on the parent's filesystem (`transfer fs`).
    Workers,
    /// Two diskless wire workers under `listen("127.0.0.1:0")`.
    WorkersWire,
}

/// One status board: what Step 2 did with a partition — set it aside,
/// built it out of core — is a `run.journal` record and a line of the
/// step report, which agree; `manifest.txt` is Step 1's output, byte for
/// byte the one a healthy unconstrained run over the same input writes.
/// Two-phase, fused and sharded in both transfer modes, each non-strict
/// with one corrupted partition and a table budget that splits the rest.
#[test]
fn step2_outcomes_are_journaled_and_the_manifest_stays_step1s() {
    board(&[Flow::TwoPhase, Flow::Fused, Flow::Workers, Flow::WorkersWire]);
}

/// A sharded build reports what its workers' tables did: the same Step-2
/// insertions, updates, probe steps, tag rejects and replayed k-mers as
/// the in-process build of the same input. Either way each partition is
/// built by one core, into a table of the same capacity.
#[test]
fn sharded_step2_reports_its_workers_table_counters() {
    let rs = common::corpus();
    let step2 = |tag: &str, workers: usize| {
        let dir = common::fresh_dir(tag);
        let config = common::builder(&dir).workers(workers).build().unwrap();
        let outcome = ParaHash::new(config).unwrap().run(&rs).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        outcome.report.step2
    };
    let (inproc, sharded) = (step2("counters-inproc", 0), step2("counters-w2", 2));
    let (want, got) = (inproc.contention.unwrap(), sharded.contention.unwrap());
    assert!(want.insertions > 0 && want.updates > 0, "{want:?}");
    assert_eq!(got, want);
    assert_eq!(sharded.replayed_kmers, inproc.replayed_kmers);
}

/// The sharded flows' board with network chaos armed in every process,
/// parent and workers: a dropped, delayed or damaged frame costs a
/// connection, never a line of the board. The environment reaches the
/// workers through a child of this binary.
fn sharded_board_under(test: &str, failpoints: &'static str) {
    let mut env = NET_DEADLINES.to_vec();
    env.push(("PARAHASH_FAILPOINTS", failpoints));
    if !common::rerun_in_child(test, &env) {
        board(&[Flow::Workers, Flow::WorkersWire]);
    }
}

#[test]
fn sharded_board_under_dropped_frames() {
    sharded_board_under("sharded_board_under_dropped_frames", DROP);
}

#[test]
fn sharded_board_under_delayed_frames() {
    sharded_board_under("sharded_board_under_delayed_frames", DELAY);
}

#[test]
fn sharded_board_under_garbled_frames() {
    sharded_board_under("sharded_board_under_garbled_frames", GARBLE);
}

/// Builds `common::corpus` once healthy, then each flow's unhealthy run,
/// and checks its board against the healthy run's manifest.
fn board(flows: &[Flow]) {
    let rs = common::corpus();
    let ref_dir = common::fresh_dir("board-ref");
    ParaHash::new(common::builder(&ref_dir).build().unwrap()).unwrap().run(&rs).unwrap();
    let manifest_file =
        |dir: &Path| std::fs::read_to_string(dir.join("superkmers/manifest.txt")).unwrap();
    let manifest = msp::PartitionManifest::load(ref_dir.join("superkmers")).unwrap();
    let victim = (0..PARTITIONS).max_by_key(|&i| manifest.stats()[i].bytes).unwrap();
    let corrupt = |path: &Path| {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[msp::FRAME_HEADER_LEN] ^= 0xff;
        std::fs::write(path, bytes).unwrap();
    };

    for &flow in flows {
        let dir = common::fresh_dir(&format!("board-{flow:?}"));
        let unhealthy = common::builder(&dir).strict(false).table_memory_budget(TIGHT_TABLE_BUDGET);
        let outcome = if flow == Flow::Fused {
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
            let doomed = common::builder(&dir).table_memory_budget(1).out_of_core(false);
            ParaHash::new(doomed.build().unwrap()).unwrap().run(&rs).expect_err("over budget");
            corrupt(&dir.join("superkmers").join(format!("part-{victim:05}.skm")));
            let resumed = match flow {
                Flow::Workers => unhealthy.workers(2),
                Flow::WorkersWire => unhealthy.workers(2).listen("127.0.0.1:0"),
                _ => unhealthy,
            };
            ParaHash::new(resumed.resume(true).build().unwrap()).unwrap().run(&rs).unwrap()
        };

        assert_eq!(manifest_file(&dir), manifest_file(&ref_dir), "{flow:?}: manifest.txt");
        let step2 = &outcome.report.step2;
        assert_eq!(step2.quarantined.len(), 1, "{flow:?}: {:?}", step2.quarantined);
        assert_eq!(step2.quarantined[0].index, victim, "{flow:?}");
        assert!(!step2.sub_splits.is_empty(), "{flow:?}: the budget must split");
        assert!(step2.sub_splits.iter().all(|&(i, _)| i != victim), "{flow:?}");
        let state = RunJournal::replay(&dir).unwrap();
        let set_aside: Vec<_> =
            step2.quarantined.iter().map(|q| (q.index, q.reason.clone())).collect();
        assert_eq!(state.quarantined, set_aside, "{flow:?}: journal and report");
        assert_eq!(journaled_sub_splits(&dir), step2.sub_splits, "{flow:?}: journal and report");
        assert!(state.complete, "{flow:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}
