//! Fused-vs-two-phase equivalence: the fused Step-1→Step-2 pipeline
//! (in-memory partition handoff with bounded spill, streaming Step-2
//! scheduler, pooled hash tables) must build a graph **byte-identical**
//! to the classic two-phase flow — graph and every persisted
//! `sub-*.dbg` — across device rosters (CPU-only, CPU + simulated GPU,
//! GPU-only), CPU thread counts and the whole budget spectrum
//! (all-spill, mixed, all-resident) — while honouring the resident-byte
//! budget, and must preserve the two-phase quarantine semantics when a
//! spilled partition file is corrupted mid-run. Which processor claims a
//! partition may only change when it is built, never what it contains.

use std::path::PathBuf;
use std::sync::Mutex;

use datagen::{GenomeSpec, Sequencer, SequencingSpec};
use dna::SeqRead;
use hetsim::SimGpuConfig;
use parahash::{ParaHash, ParaHashConfig, ParaHashConfigBuilder, RunJournal, RunOutcome};
use pipeline::{IoMode, IoOp, ThrottledIo};

const K: usize = 15;
const P: usize = 7;
const PARTS: usize = 12;

fn corpus() -> Vec<SeqRead> {
    let genome = GenomeSpec::new(3_000).seed(42).repeat_fraction(0.3).generate();
    let spec = SequencingSpec {
        read_len: 80,
        coverage: 5.0,
        lambda: 1.0,
        reverse_strand_prob: 0.5,
        seed: 42,
    };
    Sequencer::new(spec).sequence(&genome)
}

/// Which processors are in the run's roster.
#[derive(Debug, Clone, Copy)]
enum Roster {
    Cpu,
    CpuGpu,
    /// `no_cpu()` + one simulated GPU: the thread count is moot.
    Gpu,
}

impl Roster {
    fn apply(self, builder: ParaHashConfigBuilder) -> ParaHashConfigBuilder {
        match self {
            Roster::Cpu => builder,
            Roster::CpuGpu => builder.sim_gpu(SimGpuConfig::default()),
            Roster::Gpu => builder.no_cpu().sim_gpu(SimGpuConfig::default()),
        }
    }
}

fn config(dir: &str, threads: usize, budget: u64, strict: bool) -> ParaHashConfig {
    roster_config(dir, Roster::Cpu, threads, budget, strict)
}

fn roster_config(
    dir: &str,
    roster: Roster,
    threads: usize,
    budget: u64,
    strict: bool,
) -> ParaHashConfig {
    let builder = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTS)
        .cpu_threads(threads)
        .read_batch_bytes(1024)
        .partition_memory_budget(budget)
        .strict(strict)
        .write_subgraphs(true)
        .io_mode(IoMode::Unthrottled)
        .work_dir(std::env::temp_dir().join(dir));
    let cfg = roster.apply(builder).build().unwrap();
    let _ = std::fs::remove_dir_all(cfg.work_dir());
    cfg
}

/// Reads every persisted subgraph file back, in partition order.
fn subgraph_bytes(cfg: &ParaHashConfig) -> Vec<Vec<u8>> {
    let dir = cfg.work_dir().join("subgraphs");
    (0..PARTS).map(|i| std::fs::read(dir.join(format!("sub-{i:05}.dbg"))).unwrap()).collect()
}

fn spill_files(cfg: &ParaHashConfig) -> Vec<usize> {
    let dir = cfg.work_dir().join("superkmers");
    (0..PARTS).filter(|i| dir.join(format!("part-{i:05}.skm")).exists()).collect()
}

#[test]
fn fused_matches_two_phase_across_threads_and_budgets() {
    let reads = corpus();
    let (reference, reference_subs) = {
        let cfg = config("parahash-fused-ref", 4, 0, true);
        let ph = ParaHash::new(cfg).unwrap();
        let out = ph.run(&reads).unwrap();
        let subs = subgraph_bytes(ph.config());
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        (out, subs)
    };
    assert!(reference.graph.distinct_vertices() > 100, "corpus too small to be meaningful");

    let cells = [Roster::Cpu, Roster::CpuGpu]
        .into_iter()
        .flat_map(|roster| [1usize, 2, 4, 8].map(|threads| (roster, threads)))
        .chain([(Roster::Gpu, 1)]);
    for (roster, threads) in cells {
        for (name, budget) in [("spill", 0u64), ("tiny", 1024), ("huge", u64::MAX)] {
            let cell = format!("{roster:?}, threads={threads}, budget={name}");
            let dir = format!("parahash-fused-{roster:?}-t{threads}-{name}");
            let ph = ParaHash::new(roster_config(&dir, roster, threads, budget, true)).unwrap();
            let fused: RunOutcome = ph.run_fused(&reads).unwrap();
            assert_eq!(fused.graph, reference.graph, "fused ({cell}) diverged from two-phase");
            assert_eq!(
                subgraph_bytes(ph.config()),
                reference_subs,
                "fused ({cell}) changed a subgraph file"
            );
            let step2 = &fused.report.step2;
            let claimed: usize = step2.pipeline.shares.iter().map(|s| s.partitions).sum();
            assert_eq!(claimed, PARTS, "{cell}");
            // Work a GPU claimed accrues GPU time; a roster without one has none.
            let (cpu_busy, gpu_busy) = (!step2.cpu_compute.is_zero(), !step2.gpu_compute.is_zero());
            match roster {
                Roster::Cpu => assert!(cpu_busy && !gpu_busy, "{cell}"),
                Roster::CpuGpu => {}
                Roster::Gpu => assert!(gpu_busy && !cpu_busy, "{cell}"),
            }

            // The budget invariant, as observed by the run report.
            let peak = fused.report.step1.peak_resident_store_bytes;
            assert!(
                peak <= budget,
                "resident peak {peak} exceeds budget {budget} (threads={threads})"
            );
            let spilled = spill_files(ph.config());
            match budget {
                0 => {
                    assert_eq!(peak, 0, "budget 0 must never hold resident bytes");
                    assert!(!spilled.is_empty(), "budget 0 must leave spill files");
                }
                1024 => {
                    assert!(peak > 0, "a non-zero budget should stage some bytes");
                    assert!(!spilled.is_empty(), "a tiny budget must spill the overflow");
                }
                _ => {
                    assert!(peak > 0);
                    assert!(
                        spilled.is_empty(),
                        "unbounded budget must not touch the disk, found {spilled:?}"
                    );
                    // ... and no partition was journaled as sealed to disk.
                    let state = RunJournal::replay(ph.config().work_dir()).unwrap();
                    assert!(state.sealed.is_empty(), "all partitions resident: {:?}", state.sealed);
                }
            }
            std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        }
    }
}

#[test]
fn fused_fastq_matches_two_phase_streaming() {
    let reads = corpus();
    let path = std::env::temp_dir().join(format!("parahash-fused-{}.fastq", std::process::id()));
    {
        let mut w = dna::FastqWriter::new(std::fs::File::create(&path).unwrap());
        for r in &reads {
            w.write_record(r).unwrap();
        }
        w.into_inner().unwrap().sync_all().unwrap();
    }
    let two_phase = {
        let cfg = config("parahash-fusedfq-ref", 2, 0, true);
        let ph = ParaHash::new(cfg).unwrap();
        let out = ph.run_fastq_streaming(&path).unwrap();
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
        out
    };
    for budget in [0u64, 1024, u64::MAX] {
        let cfg = config(&format!("parahash-fusedfq-{budget:x}"), 2, budget, true);
        let ph = ParaHash::new(cfg).unwrap();
        let fused = ph.run_fused_fastq(&path).unwrap();
        assert_eq!(fused.graph, two_phase.graph, "fastq fused diverged at budget {budget}");
        std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

/// A fault hook that corrupts the *first* spilled partition file it sees
/// being read back (flips one payload byte, breaking the frame CRC32),
/// then lets the read proceed. Returns which file was hit.
fn corrupt_first_spill_read(io: &ThrottledIo) -> std::sync::Arc<Mutex<Option<PathBuf>>> {
    let victim: std::sync::Arc<Mutex<Option<PathBuf>>> =
        std::sync::Arc::new(Mutex::new(None));
    let seen = victim.clone();
    io.set_fault_hook(Box::new(move |path, op, attempt| {
        if op != IoOp::Read || attempt != 1 {
            return None;
        }
        let is_part = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("part-") && n.ends_with(".skm"));
        if !is_part {
            return None;
        }
        let mut guard = seen.lock().unwrap();
        if guard.is_none() {
            let mut bytes = std::fs::read(path).expect("victim spill file readable");
            assert!(bytes.len() > msp::FRAME_HEADER_LEN, "victim must hold a frame");
            bytes[msp::FRAME_HEADER_LEN] ^= 0xff;
            std::fs::write(path, &bytes).expect("victim spill file writable");
            *guard = Some(path.to_path_buf());
        }
        None
    }));
    victim
}

#[test]
fn fused_quarantines_corrupted_spill_in_non_strict_mode() {
    let reads = corpus();
    let cfg = config("parahash-fused-quarantine", 2, 0, false);
    let ph = ParaHash::new(cfg).unwrap();
    let io = ThrottledIo::new(IoMode::Unthrottled);
    let victim = corrupt_first_spill_read(&io);

    let fused = ph.run_fused_with_io(&reads, &io).unwrap();
    let victim = victim.lock().unwrap().clone().expect("a spill file must have been read");
    assert_eq!(fused.report.step2.quarantined.len(), 1, "exactly one partition set aside");
    let q = &fused.report.step2.quarantined[0];
    assert!(q.reason.contains("checksum mismatch"), "{}", q.reason);
    assert_eq!(
        victim.file_name().and_then(|n| n.to_str()).unwrap(),
        format!("part-{:05}.skm", q.index),
        "quarantined index must match the corrupted file"
    );

    // The graph is missing exactly the victim's k-mers, and the fused
    // driver journaled the quarantine.
    let state = RunJournal::replay(ph.config().work_dir()).unwrap();
    assert_eq!(state.quarantined, vec![(q.index, q.reason.clone())]);
    let manifest = msp::PartitionManifest::load(ph.config().work_dir().join("superkmers")).unwrap();
    assert_eq!(
        fused.graph.total_kmer_occurrences(),
        manifest.total_kmers() - manifest.stats()[q.index].kmers
    );
    assert!(fused.report.summary().contains("QUARANTINED"));
    std::fs::remove_dir_all(ph.config().work_dir()).unwrap();
}

#[test]
fn fused_strict_mode_aborts_on_corrupted_spill() {
    let reads = corpus();
    let cfg = config("parahash-fused-strictspill", 2, 0, true);
    let ph = ParaHash::new(cfg).unwrap();
    let io = ThrottledIo::new(IoMode::Unthrottled);
    let victim = corrupt_first_spill_read(&io);

    let result = ph.run_fused_with_io(&reads, &io);
    assert!(result.is_err(), "strict mode must surface spill corruption as an error");
    assert!(victim.lock().unwrap().is_some(), "the fault must actually have fired");
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn fused_step2_gives_the_faster_device_more_partitions() {
    // Fig 11's property in the fused flow: both drivers pop the one work
    // queue, so a GPU paying 50 µs per superkmer on one SM (the CPU
    // replays one in well under 5 µs) gets back to the queue rarely and
    // the CPU claims most of the burst Step 1 hands over. (Kept out of
    // `tests/pipeline_regimes.rs`: its Eq. 1 accuracy checks are timed,
    // and this GPU busy-spins.)
    let data = datagen::DatasetProfile::human_chr14_mini().scale(0.05).materialize();
    let dir = std::env::temp_dir().join(format!("parahash-fused-shares-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let slow_gpu = SimGpuConfig {
        sm_count: 1,
        warp_size: 8,
        transfer: hetsim::TransferModel::instant(),
        compute_cost_per_item: std::time::Duration::from_micros(50),
        ..Default::default()
    };
    let config = ParaHashConfig::builder()
        .k(27)
        .p(11)
        .partitions(24)
        .cpu_threads(1)
        .sim_gpu(slow_gpu)
        .work_dir(&dir)
        .build()
        .expect("valid config");
    let outcome = ParaHash::new(config).unwrap().run_fused(&data.reads).expect("run succeeds");
    let step2 = &outcome.report.step2.pipeline;
    let mut claimed: Vec<usize> = step2
        .spans
        .iter()
        .filter(|s| s.stage == pipeline::Stage::Compute)
        .map(|s| s.partition)
        .collect();
    claimed.sort_unstable();
    assert_eq!(claimed, (0..24).collect::<Vec<_>>(), "every partition claimed exactly once");
    let (cpu, gpu) = (&step2.shares[0], &step2.shares[1]);
    assert_eq!(cpu.partitions + gpu.partitions, 24);
    assert!(
        cpu.partitions > gpu.partitions,
        "the fast CPU must out-claim the slow GPU: cpu={} gpu={}",
        cpu.partitions,
        gpu.partitions
    );
    let _ = std::fs::remove_dir_all(&dir);
}
