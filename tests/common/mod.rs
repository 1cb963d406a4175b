//! What the root suites share: the corpus, the base configuration, the
//! shard-worker entry its spawn args name, the child-process rerun that
//! carries an environment to worker processes, and the output readers.

// Each suite uses a subset.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use dna::SeqRead;
use parahash::{ParaHashConfig, ParaHashConfigBuilder};

pub const K: usize = 15;
pub const P: usize = 5;
pub const PARTITIONS: usize = 8;

/// A per-table budget small enough that every partition of [`corpus`]
/// projects a table over it (70 bytes/slot × a few hundred slots), so
/// Step 2 builds each one out of core.
pub const TIGHT_TABLE_BUDGET: u64 = 16 << 10;

/// Network chaos, armed in every process of a sharded run: a frame
/// vanishes, a send stalls 100 ms, a frame arrives with a flipped byte.
pub const DROP: &str = "shard.net.drop=io-error@5";
pub const DELAY: &str = "shard.net.delay=io-error@3";
pub const GARBLE: &str = "shard.net.garble=io-error@4";

/// Shard deadlines short enough for network chaos to play out in test
/// time: a worker waiting on a vanished frame gives up after 1.5 s, a
/// silent one is evicted after 2 s.
pub const NET_DEADLINES: &[(&str, &str)] =
    &[("PARAHASH_SHARD_REQUEST_TIMEOUT_MS", "1500"), ("PARAHASH_SHARD_TIMEOUT_MS", "2000")];

/// Set in the children [`rerun_in_child`] spawns.
const CHILD: &str = "PARAHASH_TEST_CHILD";

/// The worker half of every sharded run in a binary that includes this
/// module: a no-op as an ordinary test, the shard worker loop in a
/// process a parent spawned with [`builder`]'s spawn args.
#[test]
fn worker_entry() {
    parahash::worker_from_env().expect("worker run");
}

/// `n` uniformly random reads of `len` bases (an LCG, so identical in
/// the parent, its children and every resume).
pub fn reads(n: usize, len: usize, seed: u64) -> Vec<SeqRead> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..n)
        .map(|i| {
            let seq: Vec<u8> = (0..len).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
            SeqRead::from_ascii(format!("r{i}"), &seq)
        })
        .collect()
}

/// The shard and determinism suites' read set.
pub fn corpus() -> Vec<SeqRead> {
    reads(400, 90, 0xDEAD_BEEF_CAFE_F00D)
}

/// An empty directory under the temp dir, unique to `tag` and this
/// process.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// [`K`], [`P`], [`PARTITIONS`], two CPU threads, persisted subgraphs and
/// workers routed into [`worker_entry`], in `dir`.
pub fn builder(dir: &Path) -> ParaHashConfigBuilder {
    ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .write_subgraphs(true)
        .worker_spawn_args(["common::worker_entry", "--exact", "--nocapture"])
        .work_dir(dir.to_path_buf())
}

/// Every file of `dir/subgraphs`, by name.
pub fn subgraph_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let sub = dir.join("subgraphs");
    let entries = std::fs::read_dir(&sub).unwrap_or_else(|e| panic!("{}: {e}", sub.display()));
    entries
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
        })
        .collect()
}

/// Runs test `name` of this binary again as a child process whose
/// environment adds `env` (the `crash_recovery.rs` idiom) and asserts it
/// passed: the way an environment reaches the worker processes a run
/// spawns without touching this process's own, and a private failpoint
/// registry. Returns `false` inside that child, where the caller runs
/// the body.
pub fn rerun_in_child(name: &str, env: &[(&str, &str)]) -> bool {
    if std::env::var_os(CHILD).is_some() {
        return false;
    }
    let status = Command::new(std::env::current_exe().expect("own test binary"))
        .args([name, "--exact", "--nocapture"])
        .env(CHILD, "1")
        .envs(env.iter().copied())
        .status()
        .expect("spawn child");
    assert!(status.success(), "`{name}` failed in its child process ({status})");
    true
}

/// Every `sub-*.dbg` file of `dir`'s `subgraphs/` this process has
/// mapped, with how much of it is resident (the `Rss` of its
/// `/proc/self/smaps` entry, in kB). A file unlinked or renamed over
/// since it was mapped is listed under its old path.
#[cfg(target_os = "linux")]
pub fn mapped_subgraphs(dir: &Path) -> Vec<(String, u64)> {
    let sub_dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf()).join("subgraphs");
    let prefix = format!("{}/sub-", sub_dir.display());
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("/proc/self/smaps");
    let mut mapped = Vec::new();
    let mut current = None;
    for line in smaps.lines() {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("Rss:") => {
                if let Some(path) = current.take() {
                    let kb = fields.next().and_then(|kb| kb.parse().ok()).expect("Rss in kB");
                    mapped.push((path, kb));
                }
            }
            // A mapping's header line: address range, perms, offset,
            // device, inode, then the path.
            Some(range) if range.contains('-') && !range.ends_with(':') => {
                let path = fields.skip(4).collect::<Vec<_>>().join(" ");
                current = path.starts_with(&prefix).then_some(path);
            }
            _ => {}
        }
    }
    mapped
}
