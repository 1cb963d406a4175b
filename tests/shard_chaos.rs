//! Network-chaos and multi-node robustness for the sharded Step 2:
//! loopback-TCP builds must be byte-identical to the in-process and
//! Unix-socket builds; a worker that *hangs* (heartbeat loss) is
//! evicted and its partition re-leased; a worker killed over TCP is
//! recovered exactly like the Unix-socket case; injected frame drops
//! and garbles cost a reconnect, never the run; a parent restart
//! mid-distribution resumes from the aggregated per-worker journals
//! without re-leasing (or re-shipping) committed partitions; a cluster
//! that drains before building anything degrades to the in-process
//! engine, quarantine rules included; wire workers leave nothing on
//! disk; and a parent whose journal fails aborts in either mode.
//!
//! Lives in its own test binary because the chaos knobs travel through
//! the process environment (workers inherit them), so tests that set
//! them must be serialised against every other test that spawns
//! workers — `ENV_LOCK` below does that within this binary, and the
//! other shard suites run as separate processes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dna::SeqRead;
use parahash::{JournalEvent, ParaHash, ParaHashConfig, ParaHashConfigBuilder, RunJournal};
use pipeline::failpoint;

const K: usize = 15;
const P: usize = 5;
const PARTITIONS: usize = 8;

/// Serialises tests: chaos env vars are process-global and inherited
/// by spawned workers, so no two tests in this binary may overlap.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Removes its env vars when dropped, panic or not.
struct EnvGuard(Vec<&'static str>);

impl EnvGuard {
    fn set(pairs: &[(&'static str, &str)]) -> EnvGuard {
        for (k, v) in pairs {
            std::env::set_var(k, v);
        }
        EnvGuard(pairs.iter().map(|&(k, _)| k).collect())
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        for k in &self.0 {
            std::env::remove_var(k);
        }
    }
}

/// The worker half (see `shard_determinism.rs`): a no-op as an
/// ordinary test, the shard worker loop when the environment says so.
#[test]
fn chaos_worker_entry() {
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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, workers: usize, budget: Option<u64>, tcp: bool) -> ParaHashConfig {
    let mut b = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .write_subgraphs(true)
        .workers(workers)
        .worker_spawn_args(["chaos_worker_entry", "--exact", "--nocapture"])
        .work_dir(dir.to_path_buf());
    if tcp {
        // Port 0: the kernel picks a free loopback port, workers get
        // the resolved address through the environment.
        b = b.listen("127.0.0.1:0");
    }
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

/// How many times each partition appears in the parent's lease log.
fn lease_counts(state: &parahash::JournalState) -> BTreeMap<usize, usize> {
    let mut counts = BTreeMap::new();
    for &(_, p) in &state.leases {
        *counts.entry(p).or_insert(0) += 1;
    }
    counts
}

/// The acceptance matrix: loopback-TCP builds across worker counts and
/// table budgets are byte-identical to the in-process reference *and*
/// to a Unix-socket sharded build — the transport must be invisible in
/// the output. TCP workers run in wire mode (payloads shipped both
/// ways, nothing on the worker's disk, no shared filesystem
/// assumptions), so this is the full remote path on one machine.
#[test]
fn tcp_loopback_matrix_is_byte_identical() {
    let _guard = lock();
    let rs = reads();
    let ref_dir = fresh_dir("tcp-ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None, false)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    let unix_dir = fresh_dir("tcp-unix");
    let unix = ParaHash::new(config(&unix_dir, 2, None, false)).unwrap().run(&rs).unwrap();
    assert_eq!(unix.graph, reference.graph, "unix-socket baseline");
    assert_eq!(subgraph_bytes(&unix_dir), ref_bytes, "unix-socket subgraphs");
    let _ = std::fs::remove_dir_all(&unix_dir);

    for workers in [1usize, 2, 4] {
        for budget in [None, Some(64u64 << 10)] {
            let tag = format!("tcp-w{workers}-b{}", budget.unwrap_or(0));
            let dir = fresh_dir(&tag);
            let sharded =
                ParaHash::new(config(&dir, workers, budget, true)).unwrap().run(&rs).unwrap();
            assert_eq!(sharded.graph, reference.graph, "{tag}: graph");
            assert_eq!(subgraph_bytes(&dir), ref_bytes, "{tag}: subgraph files");
            assert!(sharded.report.step2.quarantined.is_empty(), "{tag}");
            assert!(sharded.report.step2.exhausted_leases.is_empty(), "{tag}");

            let state = RunJournal::replay(&dir).unwrap();
            assert!(state.complete, "{tag}: run-complete journaled");
            let leased: BTreeSet<usize> = state.leases.iter().map(|&(_, p)| p).collect();
            assert_eq!(leased.len(), PARTITIONS, "{tag}: every partition leased");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Heartbeat-loss eviction: worker 1 stalls silently (failpoint-armed
/// `shard.net.delay` before its first build — no heartbeats, no EOF)
/// for far longer than the parent's deadline. The parent must evict it
/// as hung, re-lease the partition, and finish byte-identically with
/// zero quarantines; the lease log shows the requeue.
#[test]
fn stalled_worker_is_evicted_and_its_partition_releases() {
    let _guard = lock();
    let rs = reads();
    let ref_dir = fresh_dir("stall-ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None, false)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    let env = EnvGuard::set(&[
        ("PARAHASH_SHARD_HEARTBEAT_MS", "100"),
        ("PARAHASH_SHARD_TIMEOUT_MS", "600"),
        ("PARAHASH_SHARD_DELAY_MS", "2500"),
        ("PARAHASH_SHARD_STALL", "1@1"),
    ]);
    let dir = fresh_dir("stall");
    let sharded = ParaHash::new(config(&dir, 2, None, false)).unwrap().run(&rs).unwrap();
    drop(env);

    assert_eq!(sharded.graph, reference.graph);
    assert_eq!(subgraph_bytes(&dir), ref_bytes);
    assert!(sharded.report.step2.quarantined.is_empty(), "eviction must not quarantine");
    assert!(sharded.report.step2.exhausted_leases.is_empty(), "one eviction never exhausts");

    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete);
    assert!(
        lease_counts(&state).values().any(|&n| n >= 2),
        "the evicted worker's partition must re-lease: {:?}",
        state.leases
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Worker death over TCP: the `shard_kill.rs` scenario on the remote
/// transport. The abort drops the TCP connection mid-lease; recovery
/// (EOF, requeue, rebuild elsewhere) must work exactly as on the Unix
/// socket, wire payloads and all.
#[test]
fn killed_worker_over_tcp_is_reassigned_byte_identically() {
    let _guard = lock();
    let rs = reads();
    let ref_dir = fresh_dir("kill-ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None, false)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    let env = EnvGuard::set(&[("PARAHASH_SHARD_KILL", "1@1")]);
    let dir = fresh_dir("kill-tcp");
    let sharded = ParaHash::new(config(&dir, 2, None, true)).unwrap().run(&rs).unwrap();
    drop(env);

    assert_eq!(sharded.graph, reference.graph);
    assert_eq!(subgraph_bytes(&dir), ref_bytes);
    assert!(sharded.report.step2.quarantined.is_empty());
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete);
    assert!(
        lease_counts(&state).values().any(|&n| n >= 2),
        "the killed worker's partition must re-lease: {:?}",
        state.leases
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Frame drop and frame garble on the parent's send side: the armed
/// frame vanishes (or arrives corrupt and is rejected by CRC), the
/// affected worker times out or errors, reconnects with backoff, and
/// the run still completes byte-identically with zero quarantines —
/// chaos costs a connection, never the result.
#[test]
fn dropped_and_garbled_parent_frames_recover() {
    let _guard = lock();
    let rs = reads();
    let ref_dir = fresh_dir("net-ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None, false)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    // Short request deadlines so a worker waiting on a vanished frame
    // gives up (and reconnects) in test time, not in 30 s.
    let env = EnvGuard::set(&[("PARAHASH_SHARD_REQUEST_TIMEOUT_MS", "1500")]);
    for (site, trigger) in [("shard.net.drop", 3u64), ("shard.net.garble", 4u64)] {
        // Armed in the parent process only: the parent's Nth outgoing
        // frame (config / assign / finished) is sabotaged. Workers run
        // clean — their direction is covered by the CI env-spec runs.
        failpoint::arm(site, failpoint::FailAction::ReturnError, trigger);
        let dir = fresh_dir(&format!("net-{}", site.rsplit('.').next().unwrap()));
        let sharded = ParaHash::new(config(&dir, 2, None, false)).unwrap().run(&rs).unwrap();
        failpoint::disarm(site);

        assert_eq!(sharded.graph, reference.graph, "{site}: graph");
        assert_eq!(subgraph_bytes(&dir), ref_bytes, "{site}: subgraph files");
        assert!(sharded.report.step2.quarantined.is_empty(), "{site}");
        assert!(RunJournal::replay(&dir).unwrap().complete, "{site}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    drop(env);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Cluster-wide resume: the parent crashes mid-distribution — after
/// sealing Step 1, before recording any `subgraph-committed` of its
/// own — while the workers' journals (and their committed subgraph
/// files) survive. The restarted parent must aggregate the per-worker
/// journals, verify the files, and finish without re-leasing a single
/// partition.
#[test]
fn parent_restart_resumes_from_aggregated_worker_journals() {
    let _guard = lock();
    let rs = reads();
    let dir = fresh_dir("resume");
    let first = ParaHash::new(config(&dir, 2, None, false)).unwrap().run(&rs).unwrap();
    let first_bytes = subgraph_bytes(&dir);
    let fingerprint = RunJournal::replay(&dir).unwrap().fingerprint;

    // Rewind the *parent's* journal to the crash point: Step 1 sealed,
    // zero subgraph commits recorded. Worker journals and subgraph
    // files on disk are untouched — exactly what a parent crash during
    // distribution leaves behind.
    let journal = RunJournal::create(&dir, fingerprint).unwrap();
    for i in 0..PARTITIONS {
        journal.append(&JournalEvent::PartitionSealed(i)).unwrap();
    }
    drop(journal);

    let mut builder = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .write_subgraphs(true)
        .workers(2)
        .worker_spawn_args(["chaos_worker_entry", "--exact", "--nocapture"])
        .work_dir(dir.clone());
    builder = builder.resume(true);
    let resumed = ParaHash::new(builder.build().unwrap()).unwrap().run(&rs).unwrap();

    assert_eq!(resumed.graph, first.graph, "resumed graph");
    assert_eq!(subgraph_bytes(&dir), first_bytes, "subgraph files untouched by resume");
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete, "resumed run journals run-complete");
    assert!(
        state.leases.is_empty(),
        "committed partitions must not be re-leased or re-shipped: {:?}",
        state.leases
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A non-strict Unix-socket sharded configuration, still open for the
/// knobs `config` does not take.
fn lenient(dir: &Path, workers: usize) -> ParaHashConfigBuilder {
    ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTITIONS)
        .cpu_threads(2)
        .write_subgraphs(true)
        .strict(false)
        .workers(workers)
        .worker_spawn_args(["chaos_worker_entry", "--exact", "--nocapture"])
        .work_dir(dir.to_path_buf())
}

/// How many `subgraph-committed` records the parent's journal holds
/// (records are plain text lines inside their frames; a replayed
/// [`parahash::JournalState`] would fold duplicates into a set).
fn committed_records(dir: &Path) -> usize {
    let bytes = std::fs::read(RunJournal::path_in(dir)).unwrap();
    let needle = b"subgraph-committed ";
    bytes.windows(needle.len()).filter(|w| w == needle).count()
}

/// The cluster drains before it builds anything: the only worker dies
/// on its first assignment. Everything falls back to the in-process
/// engine — pipelined, journaled, byte-identical to a run that never
/// asked for workers — and the report counts those builds.
#[test]
fn drained_cluster_falls_back_to_the_engine() {
    let _guard = lock();
    let rs = reads();
    let ref_dir = fresh_dir("fallback-ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None, false)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    let env = EnvGuard::set(&[("PARAHASH_SHARD_KILL", "0@1")]);
    let dir = fresh_dir("fallback");
    let sharded = ParaHash::new(config(&dir, 1, None, false)).unwrap().run(&rs).unwrap();
    drop(env);

    assert_eq!(sharded.graph, reference.graph);
    assert_eq!(subgraph_bytes(&dir), ref_bytes);
    let step2 = &sharded.report.step2;
    assert_eq!(step2.pipeline.partitions, PARTITIONS, "fallback builds are counted");
    assert!(step2.quarantined.is_empty() && step2.exhausted_leases.is_empty());
    assert!(step2.pipeline.elapsed >= step2.pipeline.output_time, "elapsed spans the step");
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete);
    assert_eq!(state.leases.len(), 1, "one lease went out before the worker died");
    assert_eq!(state.committed.len(), PARTITIONS);
    assert_eq!(committed_records(&dir), PARTITIONS, "one record per partition");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// The same drained cluster over a damaged partition file, non-strict:
/// the fallback quarantines by the engine's own rule — exactly the
/// partition whose frames fail their checksum, nothing else.
#[test]
fn fallback_quarantines_exactly_the_corrupt_partition() {
    let _guard = lock();
    let rs = reads();
    let dir = fresh_dir("fallback-quarantine");
    let reference = ParaHash::new(config(&dir, 0, None, false)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&dir);
    let fingerprint = RunJournal::replay(&dir).unwrap().fingerprint;

    // Rewind to "Step 1 sealed, Step 2 not begun", then flip one payload
    // byte of the largest partition file.
    std::fs::remove_dir_all(dir.join("subgraphs")).unwrap();
    let journal = RunJournal::create(&dir, fingerprint).unwrap();
    for i in 0..PARTITIONS {
        journal.append(&JournalEvent::PartitionSealed(i)).unwrap();
    }
    drop(journal);
    let manifest = msp::PartitionManifest::load(dir.join("superkmers")).unwrap();
    let victim = (0..PARTITIONS).max_by_key(|&i| manifest.stats()[i].bytes).unwrap();
    let path = manifest.partition_path(victim);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = msp::FRAME_HEADER_LEN + (bytes.len() - msp::FRAME_HEADER_LEN) / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let env = EnvGuard::set(&[("PARAHASH_SHARD_KILL", "0@1")]);
    let resumed = lenient(&dir, 1).resume(true).build().unwrap();
    let outcome = ParaHash::new(resumed).unwrap().run(&rs).unwrap();
    drop(env);

    let quarantined: Vec<usize> =
        outcome.report.step2.quarantined.iter().map(|q| q.index).collect();
    assert_eq!(quarantined, [victim]);
    assert!(
        outcome.report.step2.quarantined[0].reason.contains("checksum mismatch"),
        "{}",
        outcome.report.step2.quarantined[0].reason
    );
    assert_eq!(
        outcome.graph.total_kmer_occurrences(),
        reference.graph.total_kmer_occurrences() - manifest.stats()[victim].kmers
    );
    for (i, bytes) in &ref_bytes {
        let path = dir.join("subgraphs").join(format!("sub-{i:05}.dbg"));
        if *i == victim {
            assert!(!path.exists(), "a quarantined partition commits nothing");
        } else {
            assert_eq!(&std::fs::read(&path).unwrap(), bytes, "partition {i}");
        }
    }
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete);
    assert_eq!(state.quarantined.len(), 1);
    assert_eq!(state.quarantined[0].0, victim);
    assert_eq!(committed_records(&dir), PARTITIONS - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wire workers are diskless: a loopback-TCP build stays byte-identical
/// to the in-process one while its workers leave no scratch directory
/// under the temp dir, no journal of their own, and nothing in the
/// parent's work directory but what the parent wrote there.
#[test]
fn wire_workers_leave_nothing_on_disk() {
    let _guard = lock();
    let rs = reads();
    let ref_dir = fresh_dir("diskless-ref");
    let reference = ParaHash::new(config(&ref_dir, 0, None, false)).unwrap().run(&rs).unwrap();
    let ref_bytes = subgraph_bytes(&ref_dir);

    let ours = |name: &str| name.starts_with("parahash-");
    let listing = |dir: &Path| -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };
    let dir = fresh_dir("diskless");
    let before = listing(&std::env::temp_dir());
    let sharded = ParaHash::new(config(&dir, 2, None, true)).unwrap().run(&rs).unwrap();
    let after = listing(&std::env::temp_dir());

    assert_eq!(sharded.graph, reference.graph);
    assert_eq!(subgraph_bytes(&dir), ref_bytes);
    let new: Vec<&String> = after.difference(&before).filter(|n| ours(n)).collect();
    assert_eq!(new, [dir.file_name().unwrap().to_str().unwrap()], "only the parent's work dir");
    assert!(!after.iter().any(|n| n.starts_with("parahash-remote-")), "{after:?}");
    assert_eq!(
        listing(&dir),
        BTreeSet::from(["run.journal", "subgraphs", "superkmers"].map(String::from)),
        "no worker journal, no scratch"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A parent-side journal failure is fatal in strict and non-strict runs
/// alike, sharded exactly as in-process: the run aborts and deletes its
/// partial `subgraphs/`. (The journal sees `config`, then one
/// `partition-sealed` per partition, before Step 2's first record.)
#[test]
fn journal_failure_aborts_a_non_strict_sharded_run() {
    let _guard = lock();
    let rs = reads();
    let step2_first = 1 + PARTITIONS as u64 + 1;
    // In-process the first Step-2 record is a `subgraph-committed`;
    // sharded it is the `worker-lease`, and the commit record the next.
    for (tag, workers, trigger) in [
        ("inproc", 0, step2_first),
        ("lease", 1, step2_first),
        ("commit", 1, step2_first + 1),
    ] {
        let dir = fresh_dir(&format!("journal-{tag}"));
        failpoint::arm("journal.append", failpoint::FailAction::ReturnError, trigger);
        let result = ParaHash::new(lenient(&dir, workers).build().unwrap()).unwrap().run(&rs);
        failpoint::disarm("journal.append");
        let err = result.expect_err("a journal that cannot be written must abort the run");
        assert!(err.to_string().contains("journal.append"), "{tag}: {err}");
        assert!(!dir.join("subgraphs").exists(), "{tag}: partial subgraphs must be deleted");
        assert!(!RunJournal::replay(&dir).unwrap().complete, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
