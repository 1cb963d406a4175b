//! Multi-node robustness scenarios for the sharded Step 2, each with
//! assertions of its own (the byte-identity matrix over transfer modes,
//! worker counts, budgets, kills, stalls and network chaos is
//! `tests/determinism.rs`): a stranger on the loopback port is denied
//! without a lease; parent-side frame drops and garbles cost a
//! reconnect, never the run; a parent restart mid-distribution resumes
//! from the aggregated per-worker journals without re-leasing committed
//! partitions; a cluster whose only worker dies costs that worker's one
//! lease, which the parent builds by the engine's rules, quarantine
//! included; a listen-only parent with no joiner starts at once and
//! builds everything itself; wire workers leave nothing on disk; and a
//! parent whose journal fails aborts in either mode.
//!
//! The tests hold one lock: they arm the process-global failpoint
//! registry, and one of them lists the temp dir. A test whose workers
//! need an environment reruns itself as a child with it
//! ([`common::rerun_in_child`]).

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Mutex;

use common::PARTITIONS;
use hashgraph::DeBruijnGraph;
use parahash::{JournalEvent, ParaHash, RunJournal};
use pipeline::failpoint;
use pipeline::shard::{Connection, Recv, WireMsg, MAX_FRAME, PROTO_VERSION};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The only worker dies on its first lease, before it builds anything.
const KILL_ONLY_WORKER: (&str, &str) = ("PARAHASH_FAILPOINTS", "shard.worker0.lease=abort@1");

/// An in-process build of the corpus in `dir`: its graph and subgraph
/// files.
fn reference(dir: &Path) -> (DeBruijnGraph, BTreeMap<String, Vec<u8>>) {
    let config = common::builder(dir).build().unwrap();
    let outcome = ParaHash::new(config).unwrap().run(&common::corpus()).unwrap();
    (outcome.graph, common::subgraph_bytes(dir))
}

/// The loopback ports this process listens on, from `/proc/self/net/tcp`
/// (`LISTEN` rows whose socket inode is one of this process's fds).
fn own_listening_ports() -> BTreeSet<u16> {
    let inodes: BTreeSet<String> = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter_map(|link| {
            let link = link.to_string_lossy().into_owned();
            Some(link.strip_prefix("socket:[")?.strip_suffix(']')?.to_string())
        })
        .collect();
    let table = std::fs::read_to_string("/proc/self/net/tcp").unwrap();
    table
        .lines()
        .skip(1)
        .filter_map(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let (local, state, inode) = (cols.get(1)?, cols.get(3)?, cols.get(9)?);
            let (ip, port) = local.split_once(':')?;
            let mine = *state == "0A" && ip == "0100007F" && inodes.contains(*inode);
            mine.then(|| u16::from_str_radix(port, 16).ok()).flatten()
        })
        .collect()
}

/// A stranger on the loopback port: during a `workers(2)` build without
/// `listen`, this process connects to the parent's listener and says
/// `hello` without the run's token, then with a wrong one. Each gets
/// `deny` and no `config`, no lease is journaled under its id, and the
/// build stays byte-identical to the in-process one. (Worker 1 holds its
/// first lease until it is evicted, so the listener is up for at least
/// that deadline.)
#[test]
fn a_stranger_on_the_loopback_port_is_denied() {
    let _guard = lock();
    let env = [
        ("PARAHASH_FAILPOINTS", "shard.worker1.lease=io-error@1"),
        ("PARAHASH_SHARD_HEARTBEAT_MS", "100"),
        ("PARAHASH_SHARD_TIMEOUT_MS", "1000"),
    ];
    if common::rerun_in_child("a_stranger_on_the_loopback_port_is_denied", &env) {
        return;
    }
    const STRANGER: usize = 7;
    let ref_dir = common::fresh_dir("chaos-stranger-ref");
    let (ref_graph, ref_bytes) = reference(&ref_dir);
    let dir = common::fresh_dir("chaos-stranger");
    let config = common::builder(&dir).workers(2).build().unwrap();
    let before = own_listening_ports();
    let sharded = std::thread::scope(|s| {
        let build = s.spawn(|| ParaHash::new(config).unwrap().run(&common::corpus()).unwrap());
        let started = std::time::Instant::now();
        let port = loop {
            if let Some(&port) = own_listening_ports().difference(&before).next() {
                break port;
            }
            assert!(started.elapsed().as_secs() < 30, "the parent never listened");
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        let addr = format!("127.0.0.1:{port}");
        let mut conns: Vec<Connection> =
            (0..2).map(|_| Connection::connect(&addr).unwrap()).collect();
        let tokens = [None, Some("0123456789abcdef0123456789abcdef".to_string())];
        for (conn, token) in conns.iter_mut().zip(tokens) {
            conn.send(&WireMsg::Hello(STRANGER, PROTO_VERSION, token.clone()).encode()).unwrap();
            let wait = Some(std::time::Duration::from_secs(10));
            match conn.recv(MAX_FRAME, wait).unwrap() {
                Recv::Frame(frame) => {
                    let reply = WireMsg::decode(&frame).unwrap();
                    assert!(matches!(reply, WireMsg::Deny(_)), "token {token:?}: {reply:?}");
                }
                other => panic!("token {token:?}: {other:?}"),
            }
            let after = conn.recv(MAX_FRAME, wait).unwrap();
            assert_eq!(after, Recv::Eof, "token {token:?}: no config");
        }
        build.join().unwrap()
    });

    assert_eq!(sharded.graph, ref_graph);
    assert_eq!(common::subgraph_bytes(&dir), ref_bytes);
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete);
    assert!(state.leases.iter().all(|&(w, _)| w != STRANGER), "{:?}", state.leases);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Frame drop and frame garble on the parent's send side: the armed
/// frame vanishes (or arrives corrupt and is rejected by CRC), the
/// affected worker times out or errors, reconnects with backoff, and
/// the run still completes byte-identically with zero quarantines —
/// chaos costs a connection, never the result. (The determinism matrix
/// arms the same sites in every process.)
#[test]
fn dropped_and_garbled_parent_frames_recover() {
    let _guard = lock();
    // Short request deadlines so a worker waiting on a vanished frame
    // gives up (and reconnects) in test time, not in 30 s.
    let env = [("PARAHASH_SHARD_REQUEST_TIMEOUT_MS", "1500")];
    if common::rerun_in_child("dropped_and_garbled_parent_frames_recover", &env) {
        return;
    }
    let rs = common::corpus();
    let ref_dir = common::fresh_dir("chaos-net-ref");
    let (ref_graph, ref_bytes) = reference(&ref_dir);
    for (site, trigger) in [("shard.net.drop", 3u64), ("shard.net.garble", 4u64)] {
        // Armed in this process only: the parent's Nth outgoing frame
        // (config / assign / finished) is sabotaged; workers run clean.
        failpoint::arm(site, failpoint::FailAction::ReturnError, trigger);
        let dir = common::fresh_dir(&format!("chaos-net-{}", site.rsplit('.').next().unwrap()));
        let config = common::builder(&dir).workers(2).build().unwrap();
        let sharded = ParaHash::new(config).unwrap().run(&rs).unwrap();
        failpoint::disarm(site);

        assert_eq!(sharded.graph, ref_graph, "{site}: graph");
        assert_eq!(common::subgraph_bytes(&dir), ref_bytes, "{site}: subgraph files");
        assert!(sharded.report.step2.quarantined.is_empty(), "{site}");
        assert!(RunJournal::replay(&dir).unwrap().complete, "{site}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Cluster-wide resume: the parent crashes mid-distribution — after
/// sealing Step 1 and committing what its own cores built, before
/// recording the `subgraph-committed` of any partition a worker built —
/// while the workers' journals (and their committed subgraph files)
/// survive. The restarted parent must aggregate the per-worker journals,
/// verify the files, and finish without re-leasing a single partition.
#[test]
fn parent_restart_resumes_from_aggregated_worker_journals() {
    let _guard = lock();
    let rs = common::corpus();
    let dir = common::fresh_dir("chaos-resume");
    let config = common::builder(&dir).workers(2).build().unwrap();
    let first = ParaHash::new(config).unwrap().run(&rs).unwrap();
    let first_bytes = common::subgraph_bytes(&dir);
    let fingerprint = RunJournal::replay(&dir).unwrap().fingerprint;

    // Rewind the *parent's* journal to the crash point: Step 1 sealed,
    // the commits of the partitions no worker was leased recorded, none
    // of the leased ones. Worker journals and subgraph files on disk are
    // untouched — exactly what a parent crash during distribution leaves
    // behind.
    let first_run = RunJournal::replay(&dir).unwrap();
    let leased: BTreeSet<usize> = first_run.leases.iter().map(|&(_, p)| p).collect();
    assert!(!leased.is_empty(), "the workers built something");
    let journal = RunJournal::create(&dir, fingerprint).unwrap();
    for i in 0..PARTITIONS {
        journal.append(&JournalEvent::PartitionSealed(i)).unwrap();
    }
    for i in (0..PARTITIONS).filter(|i| !leased.contains(i)) {
        journal.append(&JournalEvent::SubgraphCommitted(i)).unwrap();
    }
    drop(journal);

    let resumed = common::builder(&dir).workers(2).resume(true).build().unwrap();
    let resumed = ParaHash::new(resumed).unwrap().run(&rs).unwrap();

    assert_eq!(resumed.graph, first.graph, "resumed graph");
    assert_eq!(common::subgraph_bytes(&dir), first_bytes, "subgraph files untouched by resume");
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete, "resumed run journals run-complete");
    assert!(
        state.leases.is_empty(),
        "committed partitions must not be re-leased or re-shipped: {:?}",
        state.leases
    );
    let _ = std::fs::remove_dir_all(&dir);
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
/// on its first assignment. The parent builds that lease on the
/// connection's driver thread and its cores build the rest, all through
/// the engine — journaled, byte-identical to a run that never asked for
/// workers — and the report counts every build, the lost lease under the
/// connection that claimed it.
#[test]
fn drained_cluster_falls_back_to_the_engine() {
    let _guard = lock();
    if common::rerun_in_child("drained_cluster_falls_back_to_the_engine", &[KILL_ONLY_WORKER]) {
        return;
    }
    let ref_dir = common::fresh_dir("chaos-fallback-ref");
    let (ref_graph, ref_bytes) = reference(&ref_dir);
    let dir = common::fresh_dir("chaos-fallback");
    let config = common::builder(&dir).workers(1).build().unwrap();
    let sharded = ParaHash::new(config).unwrap().run(&common::corpus()).unwrap();

    assert_eq!(sharded.graph, ref_graph);
    assert_eq!(common::subgraph_bytes(&dir), ref_bytes);
    let step2 = &sharded.report.step2;
    assert_eq!(step2.pipeline.partitions, PARTITIONS, "the parent's builds are counted");
    let worker = step2.pipeline.shares.iter().find(|s| s.name == "worker0").expect("a seat");
    assert_eq!(worker.partitions, 1, "the lost lease, built by the parent");
    assert!(step2.quarantined.is_empty());
    assert!(step2.pipeline.elapsed >= step2.pipeline.output_time, "elapsed spans the step");
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete);
    assert_eq!(state.leases.len(), 1, "one lease went out before the worker died");
    assert_eq!(state.committed.len(), PARTITIONS);
    assert_eq!(committed_records(&dir), PARTITIONS, "one record per partition");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A worker that hangs on its first lease — silent for eight idle
/// deadlines, 4.8 s — is evicted at the deadline, its lease built by the
/// parent, and it does not hold the finished build: the parent waits one
/// more deadline for it to exit, then kills it. The build returns well
/// before the worker would wake, byte-identical.
#[test]
fn a_hung_worker_does_not_hold_a_finished_build() {
    let _guard = lock();
    let env = [
        ("PARAHASH_FAILPOINTS", "shard.worker1.lease=io-error@1"),
        ("PARAHASH_SHARD_HEARTBEAT_MS", "100"),
        ("PARAHASH_SHARD_TIMEOUT_MS", "600"),
    ];
    if common::rerun_in_child("a_hung_worker_does_not_hold_a_finished_build", &env) {
        return;
    }
    let ref_dir = common::fresh_dir("chaos-hung-ref");
    let (ref_graph, ref_bytes) = reference(&ref_dir);
    let dir = common::fresh_dir("chaos-hung");
    let config = common::builder(&dir).workers(2).build().unwrap();
    let started = std::time::Instant::now();
    let sharded = ParaHash::new(config).unwrap().run(&common::corpus()).unwrap();
    let took = started.elapsed();

    assert_eq!(sharded.graph, ref_graph);
    assert_eq!(common::subgraph_bytes(&dir), ref_bytes);
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.leases.iter().any(|&(w, _)| w == 1), "worker 1 was leased a partition");
    let bound = std::time::Duration::from_millis(3500);
    assert!(took < bound, "the hung worker held the build: {took:?}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// The same drained cluster over a damaged partition file, non-strict:
/// the parent quarantines by the engine's own rule — exactly the
/// partition whose frames fail their checksum, nothing else — whether it
/// was the dead worker's lease (the largest partition is claimed first)
/// or the parent's own.
#[test]
fn fallback_quarantines_exactly_the_corrupt_partition() {
    let _guard = lock();
    let name = "fallback_quarantines_exactly_the_corrupt_partition";
    if common::rerun_in_child(name, &[KILL_ONLY_WORKER]) {
        return;
    }
    let dir = common::fresh_dir("chaos-fallback-quarantine");
    let (ref_graph, ref_bytes) = reference(&dir);
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

    let resumed = common::builder(&dir).strict(false).workers(1).resume(true).build().unwrap();
    let outcome = ParaHash::new(resumed).unwrap().run(&common::corpus()).unwrap();

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
        ref_graph.total_kmer_occurrences() - manifest.stats()[victim].kmers
    );
    let mut want = ref_bytes;
    want.remove(&format!("sub-{victim:05}.dbg")).expect("the victim had a subgraph");
    assert_eq!(common::subgraph_bytes(&dir), want, "a quarantined partition commits nothing");
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete);
    assert_eq!(state.quarantined.len(), 1);
    assert_eq!(state.quarantined[0].0, victim);
    assert_eq!(committed_records(&dir), PARTITIONS - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A listen-only parent — `listen` with no spawned worker, and no remote
/// one joining — starts Step 2 at once instead of waiting for a first
/// joiner: its cores build every partition, byte-identical to a run that
/// never listened, and nothing is leased.
#[test]
fn a_listen_only_parent_starts_at_once() {
    let _guard = lock();
    let ref_dir = common::fresh_dir("chaos-listen-only-ref");
    let (ref_graph, ref_bytes) = reference(&ref_dir);
    let dir = common::fresh_dir("chaos-listen-only");
    let config = common::builder(&dir).workers(0).listen("127.0.0.1:0").build().unwrap();
    let started = std::time::Instant::now();
    let outcome = ParaHash::new(config).unwrap().run(&common::corpus()).unwrap();
    let took = started.elapsed();

    assert!(took < std::time::Duration::from_secs(10), "waited {took:?} for a joiner");
    assert_eq!(outcome.graph, ref_graph);
    assert_eq!(common::subgraph_bytes(&dir), ref_bytes);
    let shares = &outcome.report.step2.pipeline.shares;
    assert!(shares.iter().all(|s| s.name.starts_with("cpu")), "only the parent's cores: {shares:?}");
    assert_eq!(shares.iter().map(|s| s.partitions).sum::<usize>(), PARTITIONS);
    let state = RunJournal::replay(&dir).unwrap();
    assert!(state.complete && state.leases.is_empty(), "leased {:?}", state.leases);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Wire workers are diskless: a loopback-TCP build stays byte-identical
/// to the in-process one while its workers leave no scratch directory
/// under the temp dir, no journal of their own, and nothing in the
/// parent's work directory but what the parent wrote there.
#[test]
fn wire_workers_leave_nothing_on_disk() {
    let _guard = lock();
    let ref_dir = common::fresh_dir("chaos-diskless-ref");
    let (ref_graph, ref_bytes) = reference(&ref_dir);

    let ours = |name: &str| name.starts_with("parahash-");
    let listing = |dir: &Path| -> BTreeSet<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };
    let dir = common::fresh_dir("chaos-diskless");
    let config = common::builder(&dir).workers(2).listen("127.0.0.1:0").build().unwrap();
    let before = listing(&std::env::temp_dir());
    let sharded = ParaHash::new(config).unwrap().run(&common::corpus()).unwrap();
    let after = listing(&std::env::temp_dir());

    assert_eq!(sharded.graph, ref_graph);
    assert_eq!(common::subgraph_bytes(&dir), ref_bytes);
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
    let rs = common::corpus();
    let step2_first = 1 + PARTITIONS as u64 + 1;
    // In-process the first Step-2 record is a `subgraph-committed`;
    // sharded it is the `worker-lease` of the worker's first claim, which
    // Step 2 waits for, and the commit record the next.
    for (tag, workers, trigger) in [
        ("inproc", 0, step2_first),
        ("lease", 1, step2_first),
        ("commit", 1, step2_first + 1),
    ] {
        let dir = common::fresh_dir(&format!("chaos-journal-{tag}"));
        let config = common::builder(&dir).strict(false).workers(workers).build().unwrap();
        failpoint::arm("journal.append", failpoint::FailAction::ReturnError, trigger);
        let result = ParaHash::new(config).unwrap().run(&rs);
        failpoint::disarm("journal.append");
        let err = result.expect_err("a journal that cannot be written must abort the run");
        assert!(err.to_string().contains("journal.append"), "{tag}: {err}");
        assert!(!dir.join("subgraphs").exists(), "{tag}: partial subgraphs must be deleted");
        assert!(!RunJournal::replay(&dir).unwrap().complete, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
