//! The fused Step-1→Step-2 pipeline's own scenarios: it preserves the
//! two-phase quarantine semantics when a spilled partition file is
//! corrupted mid-run, and its Step 2 gives the faster device more
//! partitions. (Fused ≡ two-phase byte for byte across rosters, thread
//! counts and budgets is a set of rows of the root
//! `tests/determinism.rs`.)

use std::path::PathBuf;
use std::sync::Mutex;

use datagen::{GenomeSpec, Sequencer, SequencingSpec};
use dna::SeqRead;
use hetsim::SimGpuConfig;
use parahash::{ParaHash, ParaHashConfig, RunJournal};
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

/// Every partition spills, so Step 2 reads each one back from disk.
fn config(dir: &str, strict: bool) -> ParaHashConfig {
    let config = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(PARTS)
        .cpu_threads(2)
        .read_batch_bytes(1024)
        .partition_memory_budget(0)
        .strict(strict)
        .write_subgraphs(true)
        .io_mode(IoMode::Unthrottled)
        .work_dir(std::env::temp_dir().join(dir))
        .build()
        .unwrap();
    let _ = std::fs::remove_dir_all(config.work_dir());
    config
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
    let cfg = config("parahash-fused-quarantine", false);
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
    let manifest = ph.config().work_dir().join("superkmers");
    let manifest = msp::PartitionManifest::load(manifest).unwrap();
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
    let cfg = config("parahash-fused-strictspill", true);
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
