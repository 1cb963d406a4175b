//! One timed build: the body of the `parabench sample` child process.
//!
//! The child loads its input, starts the clock immediately before the one
//! `ParaHash::run_*` call, stops it when `RunOutcome` is returned, and
//! only then digests the graph and reads `/proc/self`. A fresh process
//! per sample is the protocol: users pay process start, thread spin-up
//! and first-touch page faults on every build.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dna::SeqRead;
use hashgraph::SizingParams;
use parahash::{ParaHash, ParaHashConfig, ParaHashError, RunOutcome};

use crate::corpus::{graph_digest, load_reads};
use crate::json::{obj, Value};
use crate::procfs;
use crate::spec::{Mode, Workload, K, P, PARTITIONS};

/// Worker processes of the `sharded_w2` workload.
pub const SHARD_WORKERS: usize = 2;

/// Everything a sample needs to know; travels as argv to the child.
#[derive(Debug, Clone)]
pub struct SampleArgs {
    /// The workload to build.
    pub workload: &'static Workload,
    /// The corpus FASTQ.
    pub fastq: PathBuf,
    /// A work directory of this sample's own (absent or empty).
    pub work_dir: PathBuf,
    /// `cpu_threads` for in-process modes: `min(nproc, 4)`.
    pub threads: usize,
    /// Input k-mer occurrences of the corpus (sizes the `bounded_mem`
    /// budgets).
    pub kmers: u64,
    /// The crashed work directory `resume_half` copies.
    pub crashed: Option<PathBuf>,
}

impl SampleArgs {
    /// The argv tail after `parabench sample|trace`.
    pub fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![
            self.workload.name.to_owned(),
            self.fastq.display().to_string(),
            self.work_dir.display().to_string(),
            self.threads.to_string(),
            self.kmers.to_string(),
        ];
        argv.extend(self.crashed.iter().map(|p| p.display().to_string()));
        argv
    }

    /// Parses what [`to_argv`](Self::to_argv) wrote.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn from_argv(argv: &[String]) -> Result<SampleArgs, String> {
        let usage = "usage: <workload> <fastq> <work-dir> <threads> <kmers> [<crashed-dir>]";
        let [name, fastq, work_dir, threads, kmers, rest @ ..] = argv else {
            return Err(usage.into());
        };
        Ok(SampleArgs {
            workload: crate::spec::workload(name).ok_or(format!("unknown workload `{name}`"))?,
            fastq: fastq.into(),
            work_dir: work_dir.into(),
            threads: threads.parse().map_err(|_| usage)?,
            kmers: kmers.parse().map_err(|_| usage)?,
            crashed: rest.first().map(PathBuf::from),
        })
    }

    /// The workload's configuration. `threads` and `workers` are
    /// parameters because the traced run also builds at one thread.
    ///
    /// # Errors
    ///
    /// Propagates `ParaHashConfigBuilder::build` rejections.
    pub fn config(&self, threads: usize, workers: usize) -> Result<ParaHashConfig, ParaHashError> {
        let builder = ParaHashConfig::builder()
            .k(K)
            .p(P)
            .partitions(PARTITIONS)
            .cpu_threads(threads)
            .workers(workers)
            // The crash-safe build is the product.
            .write_subgraphs(true)
            .work_dir(&self.work_dir);
        match self.workload.mode {
            Mode::BoundedMem => {
                let (partition, table) = bounded_budgets(self.kmers);
                builder
                    .partition_memory_budget(partition)
                    .table_memory_budget(table)
                    .out_of_core(true)
                    .build()
            }
            Mode::ResumeHalf => builder.resume(true).build(),
            _ => builder.build(),
        }
    }

    /// `(cpu_threads, workers)` of the workload as users run it.
    pub fn shape(&self) -> (usize, usize) {
        match self.workload.mode {
            Mode::Sharded => (1, SHARD_WORKERS),
            _ => (self.threads, 0),
        }
    }
}

/// The `bounded_mem` budgets for a corpus of `kmers` occurrences:
/// a partition budget of about a quarter of the partition bytes (encoded
/// superkmers take ~1.6 bytes per k-mer at k = 27, p = 11) and a table
/// budget of a third of the mean partition's projected table, so a
/// partition between 0.34x and 1.33x the mean splits at fanout 2-4.
pub fn bounded_budgets(kmers: u64) -> (u64, u64) {
    let mean_table =
        hashgraph::projected_table_bytes(kmers / PARTITIONS as u64, SizingParams::default());
    (kmers * 2 / 5, (mean_table / 3).max(1))
}

/// What a build consumes.
pub enum Input {
    /// A FASTQ path (streamed by ParaHash itself).
    Fastq(PathBuf),
    /// Reads held in memory.
    Reads(Vec<SeqRead>),
}

/// Everything a sample does before the clock starts: parse the reads of
/// an in-memory workload, copy the crashed directory of `resume_half`.
///
/// # Errors
///
/// File-system and parse failures.
pub fn prepare(args: &SampleArgs) -> io::Result<Input> {
    if let Some(crashed) = &args.crashed {
        copy_tree(crashed, &args.work_dir)?;
    }
    Ok(match args.workload.mode {
        Mode::FusedReads => Input::Reads(load_reads(&args.fastq)?),
        _ => Input::Fastq(args.fastq.clone()),
    })
}

/// The one `ParaHash::run_*` call a workload times.
///
/// # Errors
///
/// Whatever the build reports.
pub fn build(
    mode: Mode,
    config: ParaHashConfig,
    input: &Input,
) -> Result<RunOutcome, ParaHashError> {
    let runner = ParaHash::new(config)?;
    match (mode, input) {
        (Mode::FusedReads, Input::Reads(reads)) => runner.run_fused(reads),
        (Mode::FusedFastq | Mode::BoundedMem, Input::Fastq(path)) => runner.run_fused_fastq(path),
        (Mode::TwoPhaseFastq | Mode::Sharded | Mode::ResumeHalf, Input::Fastq(path)) => {
            runner.run_fastq_streaming(path)
        }
        _ => Err(ParaHashError::InvalidConfig(
            "input does not match the workload's mode".into(),
        )),
    }
}

/// One build's measurements, taken around the call and from `/proc/self`
/// after it.
#[derive(Debug)]
pub struct Timed {
    /// What the build returned.
    pub outcome: RunOutcome,
    /// Wall seconds of the `ParaHash::run_*` call.
    pub build_s: f64,
    /// User + system CPU seconds over the call, children included.
    pub cpu_s: f64,
    /// `wchar` delta over the call.
    pub io_write_bytes: u64,
    /// `VmHWM` when the call returned, in MiB (on `sharded_w2` the
    /// parent process only).
    pub peak_rss_mib: f64,
}

/// Times one build.
///
/// # Errors
///
/// Whatever the build reports.
pub fn timed_build(
    mode: Mode,
    config: ParaHashConfig,
    input: &Input,
) -> Result<Timed, ParaHashError> {
    let cpu0 = procfs::cpu_seconds();
    let io0 = procfs::write_bytes();
    let started = Instant::now();
    let outcome = build(mode, config, input)?;
    let build_s = started.elapsed().as_secs_f64();
    Ok(Timed {
        outcome,
        build_s,
        cpu_s: procfs::cpu_seconds() - cpu0,
        io_write_bytes: procfs::write_bytes() - io0,
        peak_rss_mib: procfs::peak_rss_kib() as f64 / 1024.0,
    })
}

/// The whole `parabench sample` child: one JSON object describing one
/// build, `{"ok": false, "error": ...}` when it failed.
pub fn run_sample(args: &SampleArgs) -> Value {
    let result = (|| -> Result<Value, String> {
        let input = prepare(args).map_err(|e| format!("prepare: {e}"))?;
        let (threads, workers) = args.shape();
        let config = args.config(threads, workers).map_err(|e| e.to_string())?;
        let timed = timed_build(args.workload.mode, config, &input).map_err(|e| e.to_string())?;
        Ok(obj([
            ("ok", Value::from(true)),
            ("build_s", Value::from(timed.build_s)),
            ("cpu_s", Value::from(timed.cpu_s)),
            ("io_write_bytes", Value::from(timed.io_write_bytes)),
            ("peak_rss_mib", Value::from(timed.peak_rss_mib)),
            ("digest", Value::from(graph_digest(&timed.outcome.graph))),
        ]))
    })();
    result.unwrap_or_else(|e| obj([("ok", Value::from(false)), ("error", Value::from(e))]))
}

/// Recursively copies `from` into `to` (created).
///
/// # Errors
///
/// File-system failures.
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
