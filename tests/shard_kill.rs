//! Worker-death recovery for the sharded Step 2: a worker that aborts
//! mid-lease (a real `SIGABRT`, injected through `PARAHASH_SHARD_KILL`)
//! must not cost the run anything — the parent observes the dropped
//! connection, requeues the dead worker's partitions, and the final
//! graph and subgraph files stay byte-identical to an undisturbed run,
//! with nothing quarantined and the reassignment witnessed in the lease
//! log.
//!
//! Lives in its own test binary because the kill spec travels through
//! the process environment (workers inherit it), and the other shard
//! tests must not see it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dna::SeqRead;
use parahash::{ParaHash, ParaHashConfig, RunJournal};

const K: usize = 15;
const P: usize = 5;
const PARTITIONS: usize = 8;

/// The worker half (see `shard_determinism.rs`).
#[test]
fn kill_worker_entry() {
    parahash::worker_from_env().expect("worker run");
}

fn reads() -> Vec<SeqRead> {
    let mut state: u64 = 0x00DD_BA11_5EED_CAFE;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..350)
        .map(|i| {
            let seq: Vec<u8> = (0..85).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
            SeqRead::from_ascii(format!("r{i}"), &seq)
        })
        .collect()
}

fn config(dir: &Path, workers: usize) -> ParaHashConfig {
    ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .write_subgraphs(true)
        .workers(workers)
        .worker_spawn_args(["kill_worker_entry", "--exact", "--nocapture"])
        .work_dir(dir.to_path_buf())
        .build()
        .expect("valid config")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-shardkill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn subgraph_bytes(dir: &Path) -> BTreeMap<usize, Vec<u8>> {
    (0..PARTITIONS)
        .map(|i| {
            let path = dir.join("subgraphs").join(format!("sub-{i:05}.dbg"));
            (i, std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        })
        .collect()
}

/// Kill worker 1 the moment it receives its first assignment, twice
/// over the matrix: the surviving worker (or the parent's in-process
/// fallback) must finish the job with an identical result.
#[test]
fn killed_worker_is_reassigned_byte_identically() {
    let rs = reads();
    let ref_dir = fresh_dir("ref");
    // Reference: plain in-process run, no kill spec in scope yet.
    let reference = ParaHash::new(config(&ref_dir, 0)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    // `1@1`: worker 1 aborts right before building its first lease.
    // The whole run (and its worker children) sees this environment;
    // worker 0 never matches the spec and does all the work.
    std::env::set_var("PARAHASH_SHARD_KILL", "1@1");
    let dir = fresh_dir("kill");
    let outcome = ParaHash::new(config(&dir, 2)).unwrap().run(&rs).unwrap();
    std::env::remove_var("PARAHASH_SHARD_KILL");

    assert_eq!(outcome.graph, reference.graph, "graph must survive the worker kill");
    assert_eq!(
        subgraph_bytes(&dir),
        ref_bytes,
        "subgraph files must be byte-identical after the kill"
    );
    assert!(outcome.report.step2.quarantined.is_empty(), "nothing may be quarantined");

    // The lease log witnesses the reassignment: some partition was
    // leased more than once (to the dead worker, then again), and the
    // run still completed.
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete);
    let mut per_partition: BTreeMap<usize, usize> = BTreeMap::new();
    for &(_, p) in &state.leases {
        *per_partition.entry(p).or_default() += 1;
    }
    assert!(
        per_partition.values().any(|&n| n >= 2),
        "at least one partition must have been re-leased after the kill: {:?}",
        state.leases
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
