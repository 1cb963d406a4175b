//! Dataset and device setups shared by all experiments.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use datagen::{DatasetProfile, ProfileData};
use dna::SeqRead;
use hetsim::{CpuDevice, Device, SimGpuConfig, SimGpuDevice, TransferModel};
use msp::PartitionSlices;
use parahash::{ParaHash, ParaHashConfig};
use pipeline::IoMode;

/// The paper's two datasets, scaled (see `DESIGN.md` §2). `scale`
/// multiplies the profile genome size; 1.0 is the default mini scale.
pub fn datasets(scale: f64) -> Vec<ProfileData> {
    vec![
        DatasetProfile::human_chr14_mini().scale(scale).materialize(),
        DatasetProfile::bumblebee_mini().scale(scale).materialize(),
    ]
}

/// Just the medium dataset (most single-parameter sweeps use it, as the
/// paper does).
pub fn chr14(scale: f64) -> ProfileData {
    DatasetProfile::human_chr14_mini().scale(scale).materialize()
}

/// Just the big dataset.
pub fn bumblebee(scale: f64) -> ProfileData {
    DatasetProfile::bumblebee_mini().scale(scale).materialize()
}

/// Default k and p used by experiments, mirroring §V-B's defaults
/// (paper: K = 27 for both datasets, P = 11 / 19). At mini scale the
/// genome is 1000× smaller, so we keep K = 27 — read lengths are
/// unchanged — and P = 11.
pub const K: usize = 27;
/// Default minimizer length.
pub const P: usize = 11;

/// Step 1 without the pipeline, at [`K`]: the reads' superkmer records,
/// one encoded buffer per partition (`msp::partition_in_memory` — the
/// scan, routing and encoding every build runs).
pub fn partitions(reads: &[SeqRead], p: usize, n: usize) -> Vec<Vec<u8>> {
    let seqs: Vec<dna::PackedSeq> = reads.iter().map(|r| r.seq().clone()).collect();
    msp::partition_in_memory(&seqs, K, p, n).expect("valid params")
}

/// Indexes each partition buffer of [`partitions`] for replay, as Step 2
/// does after loading one.
pub fn indexed(parts: &[Vec<u8>], p: usize) -> Vec<PartitionSlices<'_>> {
    parts.iter().map(|part| PartitionSlices::index(part, K, p).expect("own records")).collect()
}

/// A table capacity the partition cannot exhaust: one slot per k-mer
/// occurrence plus headroom, so experiments never time a resize.
pub fn roomy_capacity(slices: &PartitionSlices<'_>) -> usize {
    let n = slices.total_kmers();
    n + n / 4 + 16
}

/// Simulated-GPU configuration used across experiments: a K40m-ish card
/// whose per-item cost and link speed are scaled so that, at mini-dataset
/// size, compute and transfer are both visible (as they are at full scale
/// in the paper's Fig 8).
pub fn experiment_gpu() -> SimGpuConfig {
    SimGpuConfig {
        sm_count: 4,
        warp_size: 32,
        memory_bytes: 2 << 30,
        transfer: TransferModel::new(150_000_000, Duration::from_micros(40)),
        compute_cost_per_item: Duration::from_micros(2),
        track_divergence: false,
    }
}

/// Number of CPU cores experiments give the host (the paper uses its 20
/// cores; we use what the machine offers).
pub fn cpu_threads() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Processor configurations of §V-C/D: CPU-only, GPU offload, and
/// co-processing rosters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// ParaHash-CPU.
    CpuOnly,
    /// Offload to one simulated GPU.
    OneGpu,
    /// Offload to two simulated GPUs.
    TwoGpu,
    /// CPU + 1 GPU co-processing.
    CpuOneGpu,
    /// CPU + 2 GPUs co-processing (the paper's full configuration).
    CpuTwoGpu,
}

impl Setup {
    /// All five configurations in the order Figs 13–14 report them.
    pub const ALL: [Setup; 5] =
        [Setup::CpuOnly, Setup::OneGpu, Setup::TwoGpu, Setup::CpuOneGpu, Setup::CpuTwoGpu];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Setup::CpuOnly => "CPU-only",
            Setup::OneGpu => "1 GPU",
            Setup::TwoGpu => "2 GPU",
            Setup::CpuOneGpu => "CPU+1GPU",
            Setup::CpuTwoGpu => "CPU+2GPU",
        }
    }

    /// Builds the device roster for this setup. The CPU is one device
    /// per core (`cpu0`, `cpu1`, …), as
    /// `ParaHashConfigBuilder::cpu_threads` builds it in production.
    pub fn devices(self) -> Vec<Arc<dyn Device>> {
        let mut out: Vec<Arc<dyn Device>> = Vec::new();
        let (cpu, gpus) = match self {
            Setup::CpuOnly => (true, 0),
            Setup::OneGpu => (false, 1),
            Setup::TwoGpu => (false, 2),
            Setup::CpuOneGpu => (true, 1),
            Setup::CpuTwoGpu => (true, 2),
        };
        if cpu {
            for i in 0..cpu_threads() {
                out.push(Arc::new(CpuDevice::new(format!("cpu{i}"))));
            }
        }
        for i in 0..gpus {
            out.push(Arc::new(SimGpuDevice::new(format!("gpu{i}"), experiment_gpu())));
        }
        out
    }
}

/// A fresh working directory under the system temp dir.
pub fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parahash-exp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a ParaHash runner for a dataset and setup.
///
/// # Panics
///
/// Panics on invalid configuration (experiment parameters are static).
pub fn runner(tag: &str, setup: Setup, partitions: usize, io_mode: IoMode) -> ParaHash {
    let mut builder = ParaHashConfig::builder()
        .k(K)
        .p(P)
        .partitions(partitions)
        .read_batch_bytes(128 << 10)
        .io_mode(io_mode)
        .work_dir(work_dir(tag))
        .no_cpu();
    for d in setup.devices() {
        builder = builder.device(d);
    }
    ParaHash::new(builder.build().expect("experiment config is valid")).expect("work dir creatable")
}

/// Removes a runner's working directory.
pub fn cleanup(ph: &ParaHash) {
    let _ = std::fs::remove_dir_all(ph.config().work_dir());
}

/// The throttled bandwidth used for Case-2 (I/O-bound) experiments:
/// low enough that partition I/O dominates mini-scale compute.
pub fn case2_io() -> IoMode {
    IoMode::Throttled { bytes_per_sec: 2_000_000 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_assemble_expected_rosters() {
        let cores = cpu_threads();
        assert_eq!(Setup::CpuOnly.devices().len(), cores);
        assert!(Setup::CpuOnly.devices().iter().all(|d| d.parallelism() == 1));
        assert_eq!(Setup::TwoGpu.devices().len(), 2);
        assert_eq!(Setup::CpuTwoGpu.devices().len(), cores + 2);
        assert_eq!(Setup::ALL.len(), 5);
        assert_eq!(Setup::CpuOneGpu.label(), "CPU+1GPU");
    }

    #[test]
    fn tiny_scale_datasets_materialize() {
        let d = datasets(0.02);
        assert_eq!(d.len(), 2);
        assert!(d[0].reads.len() > 10);
        assert!(d[1].profile.genome_size > d[0].profile.genome_size);
    }

    #[test]
    fn runner_builds_and_runs_tiny() {
        let data = chr14(0.02);
        let ph = runner("workloads-test", Setup::CpuOnly, 4, IoMode::Unthrottled);
        let outcome = ph.run(&data.reads).unwrap();
        assert!(outcome.graph.distinct_vertices() > 0);
        cleanup(&ph);
    }
}
