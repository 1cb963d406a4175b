//! Failure-injection integration tests: truncated partition files,
//! undersized estimates, device-memory exhaustion, malformed input,
//! transient-I/O retry recovery, poisoned-partition quarantine, interior
//! bit-flips caught by the frame checksums, and pipeline fail-fast
//! cancellation.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use datagen::DatasetProfile;
use hashgraph::SizingParams;
use hetsim::{SimGpuConfig, TransferModel};
use msp::PartitionManifest;
use parahash::{ParaHash, ParaHashConfig, ParaHashError, RunJournal};
use pipeline::{IoMode, IoOp, RetryPolicy, ThrottledIo};

fn dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("parahash-fail-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A two-phase build (partition budget 0: every partition is written to
/// its file and read back) of `partitions` partitions, for
/// [`ParaHash::run_fused_with_io`] to drive through a hooked I/O channel.
fn two_phase(tag: &str, partitions: usize, strict: bool) -> ParaHash {
    let config = ParaHashConfig::builder()
        .k(13)
        .p(7)
        .partitions(partitions)
        .partition_memory_budget(0)
        .strict(strict)
        .work_dir(dir(tag))
        .build()
        .unwrap();
    ParaHash::new(config).unwrap()
}

/// Installs a fault hook on `io` that fails nothing but first hands the
/// first partition file Step 2 reads — the largest: spilled partitions
/// are handed over largest first — to `damage`, so the build finds the
/// file as if it had been damaged on disk between the steps.
fn damage_first_read(io: &ThrottledIo, damage: impl Fn(&Path) + Send + Sync + 'static) {
    let done = AtomicBool::new(false);
    io.set_fault_hook(Box::new(move |path, op, _| {
        if op == IoOp::Read && !done.swap(true, Ordering::Relaxed) {
            damage(path);
        }
        None
    }));
}

/// The run's partition manifest, as Step 1 left it in the work dir.
fn manifest(ph: &ParaHash) -> PartitionManifest {
    PartitionManifest::load(ph.config().work_dir().join("superkmers")).unwrap()
}

#[test]
fn truncated_partition_file_fails_loudly_not_silently() {
    let data = DatasetProfile::tiny().materialize();
    let ph = two_phase("truncate", 4, true);
    let io = ThrottledIo::new(IoMode::Unthrottled);
    damage_first_read(&io, |path| {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    });
    match ph.run_fused_with_io(&data.reads, &io) {
        Err(ParaHashError::Msp(msp::MspError::CorruptRecord { .. })) => {}
        other => panic!("expected CorruptRecord, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn deleted_partition_file_is_an_io_error() {
    let data = DatasetProfile::tiny().materialize();
    let ph = two_phase("delete", 3, true);
    let io = ThrottledIo::new(IoMode::Unthrottled);
    damage_first_read(&io, |path| std::fs::remove_file(path).unwrap());
    assert!(matches!(ph.run_fused_with_io(&data.reads, &io), Err(ParaHashError::Io(_))));
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn hopeless_sizing_estimate_recovers_via_resizes() {
    // λ near zero ⇒ floor-sized tables ⇒ every partition must regrow,
    // but the run still completes with the right answer.
    let data = DatasetProfile::tiny().materialize();
    let config = ParaHashConfig::builder()
        .k(13)
        .p(7)
        .partitions(4)
        .sizing(SizingParams { lambda: 1e-9, alpha: 1.0 })
        .work_dir(dir("resize"))
        .build()
        .unwrap();
    let ph = ParaHash::new(config).unwrap();
    let outcome = ph.run(&data.reads).unwrap();
    assert!(outcome.report.step2.resizes > 0, "expected forced resizes");
    let reference = baselines::reference_graph(&data.reads, 13);
    assert_eq!(outcome.graph, reference);
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn gpu_with_too_little_memory_fails_with_device_error() {
    let data = DatasetProfile::tiny().materialize();
    let config = ParaHashConfig::builder()
        .k(13)
        .p(7)
        .partitions(2)
        .no_cpu()
        .sim_gpu(SimGpuConfig {
            memory_bytes: 64, // nowhere near a table
            transfer: TransferModel::instant(),
            ..Default::default()
        })
        .work_dir(dir("oom"))
        .build()
        .unwrap();
    let ph = ParaHash::new(config).unwrap();
    match ph.run(&data.reads) {
        Err(ParaHashError::Device(hetsim::HetsimError::OutOfDeviceMemory { .. })) => {}
        other => panic!("expected OutOfDeviceMemory, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

/// The context is the record's line in the whole file: 40 good records
/// put the bad line at 161, deep inside a later 256-byte chunk, and the
/// fused and two-phase entry points and a GPU-only roster all run the one
/// ingest that reports it.
#[test]
fn malformed_fastq_is_rejected_with_context() {
    let path = std::env::temp_dir().join(format!("parahash-fail-bad-{}.fastq", std::process::id()));
    let good = "@ok\nACGTTGCATGGACCAGTTACGG\n+\nIIIIIIIIIIIIIIIIIIIIII\n".repeat(40);
    std::fs::write(&path, good + "not-a-header\nACGT\n+\nIIII\n").unwrap();
    for gpu in [false, true] {
        let builder =
            ParaHashConfig::builder().k(13).p(7).partitions(2).read_batch_bytes(256).work_dir(dir("badfastq"));
        let builder = if gpu {
            builder.no_cpu().sim_gpu(SimGpuConfig { transfer: TransferModel::instant(), ..Default::default() })
        } else {
            builder
        };
        let ph = ParaHash::new(builder.build().unwrap()).unwrap();
        for fused in [false, true] {
            let run = if fused { ph.run_fused_fastq(&path) } else { ph.run_fastq_streaming(&path) };
            let err = run.map(|_| ()).unwrap_err().to_string();
            assert!(
                err.contains("bad fastq input") && err.contains("at line 161:"),
                "gpu={gpu} fused={fused}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(ph.config().work_dir());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn transient_read_faults_are_retried_to_success() {
    let data = DatasetProfile::tiny().materialize();
    let ph = two_phase("retry-ok", 4, true);
    let io = ThrottledIo::with_retry(
        IoMode::Unthrottled,
        RetryPolicy { attempts: 3, backoff: std::time::Duration::ZERO, max_backoff: std::time::Duration::ZERO },
    );
    // Every partition read fails its first two attempts with a transient
    // error; the third attempt reaches the filesystem.
    io.set_fault_hook(Box::new(|_, op, attempt| {
        (op == IoOp::Read && attempt < 3).then(|| {
            std::io::Error::new(std::io::ErrorKind::Interrupted, "injected EINTR")
        })
    }));
    let outcome = ph.run_fused_with_io(&data.reads, &io).unwrap();
    assert!(io.retries() >= 2 * 4, "retries: {}", io.retries());
    assert!(outcome.report.step2.quarantined.is_empty());
    assert_eq!(outcome.graph, baselines::reference_graph(&data.reads, 13));
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn exhausted_retries_poison_the_partition_in_non_strict_mode() {
    let data = DatasetProfile::tiny().materialize();
    let ph = two_phase("quarantine", 4, false);
    let io = ThrottledIo::with_retry(
        IoMode::Unthrottled,
        RetryPolicy { attempts: 3, backoff: std::time::Duration::ZERO, max_backoff: std::time::Duration::ZERO },
    );
    // Partition 0 never recovers: every read attempt fails transiently,
    // so the retry budget runs dry.
    io.set_fault_hook(Box::new(move |path, op, _| {
        (op == IoOp::Read && path.ends_with("part-00000.skm")).then(|| {
            std::io::Error::new(std::io::ErrorKind::TimedOut, "injected persistent timeout")
        })
    }));
    let outcome = ph.run_fused_with_io(&data.reads, &io).unwrap();
    let report = &outcome.report.step2;
    assert_eq!(report.quarantined.len(), 1, "exactly the poisoned partition");
    assert_eq!(report.quarantined[0].index, 0);
    assert!(report.quarantined[0].reason.contains("timeout"), "{}", report.quarantined[0].reason);
    let manifest = manifest(&ph);
    assert_eq!(
        outcome.graph.total_kmer_occurrences(),
        manifest.total_kmers() - manifest.stats()[0].kmers,
        "graph must be missing exactly the quarantined partition's kmers"
    );
    // The journal records the quarantine beside the report.
    let journaled = RunJournal::replay(ph.config().work_dir()).unwrap().quarantined;
    assert_eq!(journaled.iter().map(|q| q.0).collect::<Vec<_>>(), [0]);
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn interior_byte_flip_is_caught_by_frame_checksum() {
    let data = DatasetProfile::tiny().materialize();
    let ph = two_phase("bitflip", 4, true);
    let io = ThrottledIo::new(IoMode::Unthrottled);
    // Flip a single payload bit in the middle of the file. The record
    // still decodes as plausible DNA — without checksums this would be
    // silently absorbed into the graph as wrong k-mers.
    damage_first_read(&io, |path| {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = msp::FRAME_HEADER_LEN + (bytes.len() - msp::FRAME_HEADER_LEN) / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(path, &bytes).unwrap();
    });
    match ph.run_fused_with_io(&data.reads, &io) {
        Err(ParaHashError::Msp(msp::MspError::CorruptRecord { reason, .. })) => {
            assert!(reason.contains("checksum mismatch"), "{reason}");
        }
        other => panic!("expected checksum CorruptRecord, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn fatal_error_in_first_partition_abandons_the_rest() {
    // The fail-fast acceptance check: a permanent failure on the first
    // partition Step 2 reads must cancel the pipeline — the input stage
    // must not go on to read (and the compute stages must not process)
    // every remaining partition.
    let data = DatasetProfile::tiny().materialize();
    let n = 16;
    let ph = two_phase("failfast", n, true);
    let io = ThrottledIo::new(IoMode::Unthrottled);
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let seen_hook = std::sync::Arc::clone(&seen);
    io.set_fault_hook(Box::new(move |path, op, _| {
        if op != IoOp::Read {
            return None;
        }
        let mut seen = seen_hook.lock().unwrap();
        seen.push(path.to_path_buf());
        (seen.len() == 1)
            .then(|| std::io::Error::new(std::io::ErrorKind::NotFound, "injected permanent loss"))
    }));
    assert!(matches!(ph.run_fused_with_io(&data.reads, &io), Err(ParaHashError::Io(_))));
    let attempted = seen.lock().unwrap().len();
    assert!(
        attempted < n,
        "cancel must stop the input stage early: read {attempted} of {n} partitions"
    );
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn queue_close_under_contention_releases_every_consumer() {
    // Stress the fail-fast primitive itself: many producers and consumers
    // hammer a SharedCounterQueue while another thread slams it shut.
    // Every blocked pop must return None promptly — no deadlock, no lost
    // wakeups — and every popped item must be one that was pushed.
    use pipeline::SharedCounterQueue;
    use std::sync::atomic::{AtomicUsize, Ordering};
    for round in 0..20 {
        // Capacity is the total item count — the queue is a one-shot
        // stream, exactly as the scheduler uses it.
        let q: SharedCounterQueue<usize> = SharedCounterQueue::new(3000);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..3 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..1000 {
                        if q.is_closed() {
                            break;
                        }
                        q.push(p * 1000 + i);
                    }
                });
            }
            for _ in 0..4 {
                let q = &q;
                let popped = &popped;
                s.spawn(move || {
                    while let Some(v) = q.pop() {
                        assert!(v < 3000, "popped value {v} was never pushed");
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Close from outside mid-flight, like the cancel path does.
            std::thread::sleep(std::time::Duration::from_micros(50 * (round % 4)));
            q.close();
            // scope join: if a consumer is stuck in pop() this test hangs
            // and the harness times out — that IS the regression signal.
        });
        assert!(popped.load(Ordering::Relaxed) <= 3000);
    }
}

#[test]
fn reads_shorter_than_k_are_survivable_everywhere() {
    let reads = vec![
        dna::SeqRead::from_ascii("empty", b""),
        dna::SeqRead::from_ascii("short", b"ACGT"),
        dna::SeqRead::from_ascii("exact", b"ACGTACGTACGTA"), // == k
    ];
    let config = ParaHashConfig::builder()
        .k(13)
        .p(7)
        .partitions(2)
        .work_dir(dir("short"))
        .build()
        .unwrap();
    let ph = ParaHash::new(config).unwrap();
    let outcome = ph.run(&reads).unwrap();
    assert_eq!(outcome.graph.total_kmer_occurrences(), 1, "only the k-length read yields a kmer");
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}
