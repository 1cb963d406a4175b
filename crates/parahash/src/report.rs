use std::time::Duration;

use hashgraph::ContentionStats;
use pipeline::perfmodel::{self, Regime, StepComponents};
use pipeline::PipelineReport;

/// Step-1 emit-path counters: how much work the sharded staging layer
/// moved and how often the output stage flushed staged bytes into the
/// partition store. The Step-1 analogue of Step 2's
/// [`ContentionStats`] — cheap (tallied once per batch on the output
/// stage, never on the per-superkmer emit path) and useful for spotting
/// skew: `staging_bytes / merge_flushes` is the mean flush size, and a
/// `merge_flushes` near `batches × partitions` means every batch touched
/// every partition (dense routing), while far fewer means sparse batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step1Stats {
    /// Superkmers emitted across all batches.
    pub superkmers: u64,
    /// K-mer occurrences covered by those superkmers.
    pub kmers: u64,
    /// Encoded bytes staged by workers and merged into partition files.
    pub staging_bytes: u64,
    /// Partition payload bytes as stored: the staged bytes after the
    /// partition store combined identical records into weighted ones
    /// (frame headers excluded, as in the manifest).
    pub stored_bytes: u64,
    /// Non-empty per-partition buffer drains performed by the output
    /// stage (each is one bulk `append_encoded` call).
    pub merge_flushes: u64,
    /// Compute batches that reached the output stage.
    pub batches: u64,
    /// Input bases consumed (sequence characters parsed and scanned).
    /// Divided by Step 1's elapsed time this is the ingest throughput.
    pub bases: u64,
}

/// One partition that repeatedly failed in Step 2 and was set aside
/// instead of aborting the whole run (non-strict mode): the graph is
/// missing its k-mers. Journaled as a `quarantined` record by the
/// [`ParaHash`](crate::ParaHash) drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedPartition {
    /// Which partition failed.
    pub index: usize,
    /// Human-readable description of the final failure.
    pub reason: String,
}

/// Timing and accounting of one pipelined step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Which step this is (1 = MSP, 2 = hashing).
    pub step: u8,
    /// The scheduler's run report (elapsed, stage times, device shares).
    pub pipeline: PipelineReport,
    /// The CPU's makespan: max of CPU-device busy time. The CPU devices
    /// (one per core) run side by side, so this — not their sum — is the
    /// wall-clock the CPU spent computing, Eq. 1's `T_CPU`.
    pub cpu_compute: Duration,
    /// Max of GPU-device busy time (includes metered transfers), 0 when
    /// no GPU ran.
    pub gpu_compute: Duration,
    /// Each device's meters over this step's window alone, in roster
    /// order: kernel time, transfer time and bytes, the split behind
    /// [`gpu_compute`](Self::gpu_compute) (`peak_memory` stays the
    /// device's absolute peak). Empty for a skipped step.
    pub device_metrics: Vec<hetsim::DeviceMetrics>,
    /// Step-2 only: aggregated hash table contention counters.
    pub contention: Option<ContentionStats>,
    /// Step-2 only: k-mer positions the tables actually probed. Step 2
    /// replays each distinct superkmer record of a partition once,
    /// weighted by its copies, so this is at most
    /// [`contention`](Self::contention)`.operations()`, the k-mer
    /// occurrences recorded; their ratio is the collapse factor.
    pub replayed_kmers: u64,
    /// Step-1 only: sharded-staging emit/merge counters.
    pub step1_stats: Option<Step1Stats>,
    /// Step-2 only: how many tables had to be rebuilt bigger.
    pub resizes: usize,
    /// Peak in-flight partition buffer bytes: the largest loaded
    /// partition file (Step 2) or input batch (Step 1).
    pub peak_partition_bytes: u64,
    /// Step-2 only: peak single-partition hash table bytes (0 in Step 1,
    /// which allocates no tables). Kept separate from
    /// [`peak_partition_bytes`](Self::peak_partition_bytes) because the
    /// buffer and the table coexist during a launch — host-memory
    /// accounting must *add* them, not take the max.
    pub peak_table_bytes: u64,
    /// Step-2 only: slots of the largest hash table (0 in Step 1).
    pub peak_table_slots: u64,
    /// Step-1 only: peak bytes held by the resident
    /// [`msp::PartitionStore`] (0 at partition budget 0 — every two-phase
    /// run — and in Step-2 reports). Resident partitions coexist with the in-flight
    /// batch and, later, with Step-2's tables — host-memory accounting
    /// must *add* this component.
    pub peak_resident_store_bytes: u64,
    /// Step-1 only: the time between the two step clocks — the partition
    /// manifest finished and every partition sealed onto Step 2's feed,
    /// each spilled one's commit journaled. Counted in
    /// [`RunReport::total_elapsed`], not in either step's
    /// [`pipeline`](Self::pipeline)`.elapsed`.
    pub seal: Duration,
    /// Partitions set aside after repeated failures instead of aborting
    /// the run (non-strict mode only; always empty in strict mode).
    pub quarantined: Vec<QuarantinedPartition>,
    /// Step-2 only: `(partition, fanout)` for every partition whose
    /// projected Property-1 table busted
    /// [`table_memory_budget`](crate::ParaHashConfigBuilder::table_memory_budget)
    /// and was built out of core through second-level sub-partitions.
    /// Sorted by partition index (the build order is nondeterministic
    /// under multithreading; the report is not).
    pub sub_splits: Vec<(usize, usize)>,
}

impl StepReport {
    /// The report of a step that did nothing: every counter zero, every
    /// list empty. A step that was skipped reports exactly this; a driver
    /// that assembles its report from parts starts from it.
    pub fn idle(step: u8) -> StepReport {
        StepReport {
            step,
            pipeline: PipelineReport {
                elapsed: Duration::ZERO,
                input_time: Duration::ZERO,
                output_time: Duration::ZERO,
                shares: Vec::new(),
                partitions: 0,
                spans: Vec::new(),
                cancelled: false,
            },
            cpu_compute: Duration::ZERO,
            gpu_compute: Duration::ZERO,
            device_metrics: Vec::new(),
            contention: None,
            replayed_kmers: 0,
            step1_stats: None,
            resizes: 0,
            peak_partition_bytes: 0,
            peak_table_bytes: 0,
            peak_table_slots: 0,
            peak_resident_store_bytes: 0,
            seal: Duration::ZERO,
            quarantined: Vec::new(),
            sub_splits: Vec::new(),
        }
    }

    /// The measured components in the shape the §IV model consumes.
    pub fn components(&self) -> StepComponents {
        StepComponents {
            cpu_compute: self.cpu_compute,
            gpu: self.gpu_compute,
            input: self.pipeline.input_time,
            output: self.pipeline.output_time,
            partitions: self.pipeline.partitions,
        }
    }

    /// Eq.-1 estimate for this step from its own measured components.
    pub fn eq1_estimate(&self) -> Duration {
        perfmodel::eq1_step_time(&self.components())
    }

    /// Which regime (Case 1 / Case 2 / mixed) the step ran in.
    pub fn regime(&self) -> Regime {
        perfmodel::classify_regime(&self.components())
    }

    /// Ratio of real elapsed time to the Eq.-1 estimate (1.0 = the model
    /// is exact; Figs 13–14 report this agreement).
    pub fn model_accuracy(&self) -> f64 {
        let est = self.eq1_estimate().as_secs_f64();
        if est == 0.0 {
            return 1.0;
        }
        self.pipeline.elapsed.as_secs_f64() / est
    }
}

/// Full-run accounting: both steps plus graph-level statistics.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Step 1 (MSP partitioning).
    pub step1: StepReport,
    /// Step 2 (hash construction).
    pub step2: StepReport,
    /// End-to-end wall-clock of the `ParaHash::run*` call, measured from
    /// entry for every entry point: it covers the input digest, resume
    /// planning (journal replay and re-verification of committed
    /// subgraphs), both steps — Step 2 starting once Step 1 has sealed
    /// every partition — and the closing journal records, so it is never
    /// less than [`steps_elapsed`](Self::steps_elapsed).
    pub total_elapsed: Duration,
    /// Distinct vertices in the final graph.
    pub distinct_vertices: usize,
    /// Total k-mer occurrences merged.
    pub total_kmers: u64,
    /// Approximate peak host memory: the final graph's owned bytes (a
    /// run mapped from its committed file counts nothing,
    /// [`DeBruijnGraph::approx_bytes`](hashgraph::DeBruijnGraph::approx_bytes))
    /// plus the largest in-flight table/batch (ParaHash never holds the
    /// whole input).
    pub peak_host_bytes: u64,
    /// Total superkmer partition bytes written and re-read.
    pub partition_bytes: u64,
}

impl RunReport {
    /// Sum of both steps' elapsed times.
    pub fn steps_elapsed(&self) -> Duration {
        self.step1.pipeline.elapsed + self.step2.pipeline.elapsed
    }

    /// Duplicate vertices (total occurrences − distinct).
    pub fn duplicate_vertices(&self) -> u64 {
        self.total_kmers - self.distinct_vertices as u64
    }

    /// Partitions quarantined across both steps (in practice only Step 2
    /// quarantines; Step 1 failures abort before a manifest exists).
    pub fn quarantined_partitions(&self) -> usize {
        self.step1.quarantined.len() + self.step2.quarantined.len()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "step1 {:.3}s + step2 {:.3}s = {:.3}s | {} distinct vertices, {} kmers, {} partition bytes, ~{} MiB peak",
            self.step1.pipeline.elapsed.as_secs_f64(),
            self.step2.pipeline.elapsed.as_secs_f64(),
            self.total_elapsed.as_secs_f64(),
            self.distinct_vertices,
            self.total_kmers,
            self.partition_bytes,
            self.peak_host_bytes >> 20,
        );
        if !self.step1.seal.is_zero() {
            s.push_str(&format!(" | sealed in {:.3}s", self.step1.seal.as_secs_f64()));
        }
        if let Some(stats) = &self.step1.step1_stats {
            if stats.bases > 0 {
                let secs = self.step1.pipeline.elapsed.as_secs_f64();
                let rate = if secs > 0.0 { stats.bases as f64 / secs } else { 0.0 };
                s.push_str(&format!(
                    " | ingest {} bases @ {:.1} Mbases/s",
                    stats.bases,
                    rate / 1e6,
                ));
            }
            if stats.staging_bytes > 0 {
                s.push_str(&format!(
                    " | staged {} B, stored {} B",
                    stats.staging_bytes, stats.stored_bytes
                ));
            }
        }
        if let Some(contention) = &self.step2.contention {
            s.push_str(&format!(
                " | replayed {} of {} k-mers",
                self.step2.replayed_kmers,
                contention.operations()
            ));
        }
        let q = self.quarantined_partitions();
        if q > 0 {
            s.push_str(&format!(" | {q} partition(s) QUARANTINED — graph is incomplete"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::DeviceShare;

    fn fake_step(cpu_ms: u64, gpu_ms: u64, in_ms: u64, out_ms: u64, n: usize) -> StepReport {
        StepReport {
            step: 1,
            pipeline: PipelineReport {
                elapsed: Duration::from_millis(cpu_ms.max(gpu_ms).max(in_ms)),
                input_time: Duration::from_millis(in_ms),
                output_time: Duration::from_millis(out_ms),
                shares: vec![DeviceShare {
                    name: "cpu0".into(),
                    partitions: n,
                    work_units: 100,
                    busy: Duration::from_millis(cpu_ms),
                }],
                partitions: n,
                spans: Vec::new(),
                cancelled: false,
            },
            cpu_compute: Duration::from_millis(cpu_ms),
            gpu_compute: Duration::from_millis(gpu_ms),
            device_metrics: Vec::new(),
            contention: None,
            replayed_kmers: 0,
            step1_stats: None,
            resizes: 0,
            peak_partition_bytes: 0,
            peak_table_bytes: 0,
            peak_table_slots: 0,
            peak_resident_store_bytes: 0,
            seal: Duration::ZERO,
            quarantined: Vec::new(),
            sub_splits: Vec::new(),
        }
    }

    #[test]
    fn components_mirror_measurements() {
        let s = fake_step(100, 50, 10, 5, 4);
        let c = s.components();
        assert_eq!(c.cpu_compute, Duration::from_millis(100));
        assert_eq!(c.gpu, Duration::from_millis(50));
        assert_eq!(c.partitions, 4);
        assert!(s.eq1_estimate() >= Duration::from_millis(100));
        assert_eq!(s.regime(), Regime::ComputeBound);
    }

    #[test]
    fn model_accuracy_near_one_when_exact() {
        let s = fake_step(100, 0, 1, 1, 100);
        let acc = s.model_accuracy();
        assert!(acc > 0.9 && acc < 1.1, "accuracy {acc}");
    }

    #[test]
    fn run_report_aggregates() {
        let r = RunReport {
            step1: fake_step(10, 0, 1, 1, 2),
            step2: fake_step(20, 0, 1, 1, 2),
            total_elapsed: Duration::from_millis(35),
            distinct_vertices: 10,
            total_kmers: 50,
            peak_host_bytes: 4 << 20,
            partition_bytes: 1234,
        };
        assert_eq!(r.duplicate_vertices(), 40);
        assert!(r.steps_elapsed() <= r.total_elapsed);
        let s = r.summary();
        assert!(s.contains("10 distinct"));
        assert!(s.contains("1234 partition bytes"));
        assert!(!s.contains("QUARANTINED"), "healthy runs stay quiet: {s}");
    }

    /// An idle step is a whole report: the model helpers and the summary
    /// line take it without dividing by its zeros.
    #[test]
    fn idle_steps_summarise_without_panicking() {
        let r = RunReport {
            step1: StepReport::idle(1),
            step2: StepReport::idle(2),
            total_elapsed: Duration::ZERO,
            distinct_vertices: 0,
            total_kmers: 0,
            peak_host_bytes: 0,
            partition_bytes: 0,
        };
        assert_eq!((r.step1.step, r.step2.step), (1, 2));
        for step in [&r.step1, &r.step2] {
            assert_eq!(step.model_accuracy(), 1.0);
            assert_eq!(step.eq1_estimate(), Duration::ZERO);
        }
        let s = r.summary();
        assert!(s.starts_with("step1 0.000s + step2 0.000s = 0.000s | 0 distinct"), "{s}");
        assert!(!s.contains("ingest") && !s.contains("QUARANTINED"), "{s}");
    }

    #[test]
    fn summary_reports_ingest_throughput() {
        let mut r = RunReport {
            step1: fake_step(10, 0, 1, 1, 2),
            step2: fake_step(20, 0, 1, 1, 2),
            total_elapsed: Duration::from_millis(35),
            distinct_vertices: 10,
            total_kmers: 50,
            peak_host_bytes: 4 << 20,
            partition_bytes: 1234,
        };
        assert!(!r.summary().contains("ingest"), "no stats, no ingest line");
        r.step1.step1_stats = Some(Step1Stats { bases: 2_000_000, ..Default::default() });
        let s = r.summary();
        assert!(s.contains("ingest 2000000 bases @"), "{s}");
        assert!(s.contains("Mbases/s"), "{s}");
        assert!(!s.contains("staged"), "nothing staged, no staging line: {s}");
        r.step1.step1_stats =
            Some(Step1Stats { staging_bytes: 9000, stored_bytes: 3000, ..Default::default() });
        let s = r.summary();
        assert!(s.contains("staged 9000 B, stored 3000 B"), "{s}");
        assert!(!s.contains("sealed"), "no seal time, no seal line: {s}");
        r.step1.seal = Duration::from_millis(46);
        let s = r.summary();
        assert!(s.contains("~4 MiB peak | sealed in 0.046s |"), "{s}");
    }

    #[test]
    fn summary_reports_replayed_kmers() {
        let mut r = RunReport {
            step1: fake_step(10, 0, 1, 1, 2),
            step2: fake_step(20, 0, 1, 1, 2),
            total_elapsed: Duration::from_millis(35),
            distinct_vertices: 10,
            total_kmers: 50,
            peak_host_bytes: 4 << 20,
            partition_bytes: 1234,
        };
        assert!(!r.summary().contains("replayed"), "no Step-2 counters, no replay line");
        let contention = ContentionStats { insertions: 10, updates: 40, ..Default::default() };
        r.step2.contention = Some(contention);
        r.step2.replayed_kmers = 18;
        let s = r.summary();
        assert!(s.contains(" | replayed 18 of 50 k-mers"), "{s}");
    }

    #[test]
    fn summary_flags_quarantined_partitions() {
        let mut r = RunReport {
            step1: fake_step(10, 0, 1, 1, 2),
            step2: fake_step(20, 0, 1, 1, 2),
            total_elapsed: Duration::from_millis(35),
            distinct_vertices: 10,
            total_kmers: 50,
            peak_host_bytes: 4 << 20,
            partition_bytes: 1234,
        };
        r.step2.quarantined.push(QuarantinedPartition {
            index: 1,
            reason: "checksum mismatch after 3 attempts".into(),
        });
        assert_eq!(r.quarantined_partitions(), 1);
        let s = r.summary();
        assert!(s.contains("1 partition(s) QUARANTINED"), "{s}");
    }
}
