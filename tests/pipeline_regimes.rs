//! Integration tests for the §IV performance model against real runs:
//! regime classification, pipelining savings, and Eq.-1/Eq.-2 agreement.

use datagen::DatasetProfile;
use parahash::{ParaHash, ParaHashConfig, StepReport};
use pipeline::perfmodel::Regime;
use pipeline::IoMode;

fn runner(tag: &str, io: IoMode) -> ParaHash {
    let dir = std::env::temp_dir().join(format!("parahash-regime-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ParaHashConfig::builder()
        .k(27)
        .p(11)
        .partitions(24)
        .cpu_threads(2)
        .read_batch_bytes(32 << 10)
        .io_mode(io)
        .work_dir(dir)
        .build()
        .expect("valid config");
    ParaHash::new(config).expect("work dir")
}

/// Builds the graph (the two-phase build) and returns its two step
/// reports.
fn steps(ph: &ParaHash, data: &datagen::ProfileData) -> (StepReport, StepReport) {
    let report = ph.run(&data.reads).expect("build").report;
    (report.step1, report.step2)
}

#[test]
fn throttled_io_flips_step2_into_the_io_bound_regime() {
    let data = DatasetProfile::human_chr14_mini().scale(0.05).materialize();
    let io_mode = IoMode::Throttled { bytes_per_sec: 150_000 };
    let ph = runner("case2", io_mode);
    let (_, s2) = steps(&ph, &data);
    // With a 150 kB/s disk, partition input dominates hashing.
    assert!(
        s2.pipeline.input_time > s2.cpu_compute,
        "input {:?} must dominate compute {:?}",
        s2.pipeline.input_time,
        s2.cpu_compute
    );
    assert_eq!(s2.regime(), Regime::IoBound);
    // Eq. 1 in the I/O-bound regime predicts within 2x (generous for CI).
    let acc = s2.model_accuracy();
    assert!(acc > 0.5 && acc < 2.0, "model accuracy {acc}");
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn unthrottled_io_keeps_step2_out_of_the_io_bound_regime() {
    let data = DatasetProfile::human_chr14_mini().scale(0.05).materialize();
    let ph = runner("case1", IoMode::Unthrottled);
    let (_, s2) = steps(&ph, &data);
    assert_ne!(s2.regime(), Regime::IoBound, "page-cache files must not be the bottleneck");
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn eq1_estimate_tracks_real_elapsed_in_both_regimes() {
    let data = DatasetProfile::human_chr14_mini().scale(0.05).materialize();
    for (tag, io_mode) in [
        ("acc-fast", IoMode::Unthrottled),
        ("acc-slow", IoMode::Throttled { bytes_per_sec: 400_000 }),
    ] {
        let ph = runner(tag, io_mode);
        let (s1, s2) = steps(&ph, &data);
        for step in [&s1, &s2] {
            let acc = step.model_accuracy();
            assert!(
                acc > 0.4 && acc < 2.5,
                "{tag} step{}: eq1 accuracy {acc} out of range (real {:?}, est {:?})",
                step.step,
                step.pipeline.elapsed,
                step.eq1_estimate()
            );
        }
        let _ = std::fs::remove_dir_all(ph.config().work_dir());
    }
}

#[test]
fn pipelined_elapsed_beats_stage_sum_under_throttled_io() {
    // With metered I/O on both ends, overlap must hide a chunk of the
    // accumulated stage time (Fig 12's effect).
    let data = DatasetProfile::human_chr14_mini().scale(0.05).materialize();
    let io_mode = IoMode::Throttled { bytes_per_sec: 400_000 };
    let ph = runner("overlap", io_mode);
    let (_, s2) = steps(&ph, &data);
    let stage_sum = s2.pipeline.input_time + s2.cpu_compute.max(s2.gpu_compute) + s2.pipeline.output_time;
    assert!(
        s2.pipeline.elapsed < stage_sum,
        "pipelined {:?} should be under the stage sum {:?}",
        s2.pipeline.elapsed,
        stage_sum
    );
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

#[test]
fn work_stealing_gives_every_device_a_share_on_big_runs() {
    let data = DatasetProfile::human_chr14_mini().scale(0.1).materialize();
    let dir = std::env::temp_dir().join(format!("parahash-regime-shares-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ParaHashConfig::builder()
        .k(27)
        .p(11)
        .partitions(48)
        .cpu_threads(1)
        .sim_gpu(hetsim::SimGpuConfig { sm_count: 2, warp_size: 8, ..Default::default() })
        .work_dir(&dir)
        .build()
        .expect("valid config");
    let ph = ParaHash::new(config).expect("work dir");
    let outcome = ph.run(&data.reads).expect("run succeeds");
    let shares = &outcome.report.step2.pipeline.shares;
    assert_eq!(shares.len(), 2);
    assert!(
        shares.iter().all(|s| s.partitions > 0),
        "both devices should claim step-2 partitions: {shares:?}"
    );
    // Real shares sum to 1.
    let fr = outcome.report.step2.pipeline.work_fractions();
    assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let _ = std::fs::remove_dir_all(&dir);
}
