use std::path::PathBuf;
use std::sync::Arc;

use hashgraph::SizingParams;
use hetsim::{CpuDevice, Device, SimGpuConfig, SimGpuDevice};
use pipeline::IoMode;

use crate::Result;

/// A specific configuration rule violated at
/// [`ParaHashConfigBuilder::build`] time. Each variant names the
/// offending values and the rule, so the rejection is actionable
/// instead of surfacing later as a panic or debug assertion deep in the
/// pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `k` is zero or exceeds the packed-word maximum [`dna::MAX_K`].
    KOutOfRange {
        /// The rejected k-mer length.
        k: usize,
    },
    /// The minimizer length must satisfy `1 <= p <= k`: a minimizer is
    /// a substring of the k-mer, so `p > k` has no substring to
    /// minimise over and `p == 0` selects nothing. (`p == k` is legal —
    /// the minimizer is the whole canonical k-mer, every k-mer becomes
    /// its own superkmer — just slow.)
    MinimizerNotShorter {
        /// The rejected minimizer length.
        p: usize,
        /// The k-mer length it was checked against.
        k: usize,
    },
    /// `partitions` must be at least 1.
    NoPartitions,
    /// No `work_dir` was provided.
    MissingWorkDir,
    /// The device roster ended up empty (`no_cpu()` without any GPU or
    /// extra device).
    NoDevices,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::KOutOfRange { k } => {
                write!(f, "k={k} out of range 1..={} (packed-word maximum)", dna::MAX_K)
            }
            ConfigError::MinimizerNotShorter { p, k } => write!(
                f,
                "p={p} must satisfy 1 <= p <= k (k={k}): minimizers are substrings of k-mers"
            ),
            ConfigError::NoPartitions => write!(f, "partitions must be >= 1"),
            ConfigError::MissingWorkDir => write!(f, "work_dir is required"),
            ConfigError::NoDevices => write!(f, "at least one compute device is required"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete configuration of a ParaHash run. Construct through
/// [`ParaHashConfig::builder`].
#[derive(Clone)]
pub struct ParaHashConfig {
    pub(crate) k: usize,
    pub(crate) p: usize,
    pub(crate) partitions: usize,
    pub(crate) sizing: SizingParams,
    pub(crate) read_batch_bytes: usize,
    pub(crate) io_mode: IoMode,
    pub(crate) work_dir: PathBuf,
    pub(crate) write_subgraphs: bool,
    pub(crate) strict: bool,
    pub(crate) partition_memory_budget: u64,
    pub(crate) table_memory_budget: u64,
    pub(crate) out_of_core: bool,
    pub(crate) workers: usize,
    /// TCP listen address for the sharded Step 2 (`None` = Unix socket
    /// in the work directory). `host:0` binds an ephemeral port. With a
    /// listen address the parent also accepts *remote* workers
    /// (`dbg worker --connect <addr>`) beyond its spawned children.
    pub(crate) listen: Option<String>,
    /// Argv passed to the self-exec'ed worker processes of the sharded
    /// Step 2 (after the program path). Empty for production binaries
    /// whose `main` calls [`crate::worker_from_env`] first; test binaries
    /// set it to route the child into their worker-entry test.
    pub(crate) worker_args: Vec<String>,
    pub(crate) resume: bool,
    pub(crate) devices: Vec<Arc<dyn Device>>,
    /// Run-scope token for long-lived staging files; set by the system
    /// entry points from the run fingerprint, empty until then.
    pub(crate) run_token: String,
    /// Input digest of the run's fingerprint; set alongside
    /// [`run_token`](Self::run_token) by the system entry points so the
    /// sharded Step 2 can embed the full fingerprint in worker journals.
    /// Zero until then.
    pub(crate) input_digest: u64,
}

impl std::fmt::Debug for ParaHashConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParaHashConfig")
            .field("k", &self.k)
            .field("p", &self.p)
            .field("partitions", &self.partitions)
            .field("devices", &self.devices.iter().map(|d| d.name().to_owned()).collect::<Vec<_>>())
            .field("io_mode", &self.io_mode)
            .field("work_dir", &self.work_dir)
            .finish()
    }
}

impl ParaHashConfig {
    /// Starts a builder with the paper's defaults: K = 27, P = 11,
    /// 64 partitions (paper default 512, scaled with the mini datasets),
    /// λ = 2, α = 0.65, unthrottled I/O, one CPU device using all
    /// available cores, no GPUs.
    pub fn builder() -> ParaHashConfigBuilder {
        ParaHashConfigBuilder::default()
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The minimizer length.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of superkmer partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The configured devices.
    pub fn devices(&self) -> &[Arc<dyn Device>] {
        &self.devices
    }

    /// The working directory for partition files.
    pub fn work_dir(&self) -> &std::path::Path {
        &self.work_dir
    }

    /// The I/O regime.
    pub fn io_mode(&self) -> IoMode {
        self.io_mode
    }

    /// Whether a persistently failing partition aborts the run (`true`,
    /// the default) or is quarantined (`false`).
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// Byte budget for resident partitions in the fused pipeline (see
    /// [`ParaHashConfigBuilder::partition_memory_budget`]).
    pub fn partition_memory_budget(&self) -> u64 {
        self.partition_memory_budget
    }

    /// Byte budget for one partition's Property-1 hash table (see
    /// [`ParaHashConfigBuilder::table_memory_budget`]).
    pub fn table_memory_budget(&self) -> u64 {
        self.table_memory_budget
    }

    /// Whether over-budget partitions are sub-partitioned out of core
    /// (see [`ParaHashConfigBuilder::out_of_core`]).
    pub fn out_of_core(&self) -> bool {
        self.out_of_core
    }

    /// Number of Step-2 worker processes (see
    /// [`ParaHashConfigBuilder::workers`]); `0` = in-process Step 2.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether runs should resume from the work directory's `run.journal`
    /// when one exists (see [`ParaHashConfigBuilder::resume`]).
    pub fn resume(&self) -> bool {
        self.resume
    }
}

/// Builder for [`ParaHashConfig`].
///
/// # Examples
///
/// ```
/// use parahash::ParaHashConfig;
/// use hetsim::SimGpuConfig;
///
/// # fn main() -> Result<(), parahash::ParaHashError> {
/// let config = ParaHashConfig::builder()
///     .k(27)
///     .p(11)
///     .partitions(128)
///     .cpu_threads(8)
///     .sim_gpu(SimGpuConfig::default())
///     .sim_gpu(SimGpuConfig::default())
///     .work_dir("/tmp/parahash-run")
///     .build()?;
/// assert_eq!(config.devices().len(), 3); // cpu + 2 gpus
/// # Ok(())
/// # }
/// ```
pub struct ParaHashConfigBuilder {
    k: usize,
    p: usize,
    partitions: usize,
    sizing: SizingParams,
    read_batch_bytes: usize,
    io_mode: IoMode,
    work_dir: Option<PathBuf>,
    write_subgraphs: bool,
    strict: bool,
    partition_memory_budget: u64,
    table_memory_budget: u64,
    out_of_core: bool,
    workers: usize,
    listen: Option<String>,
    worker_args: Vec<String>,
    resume: bool,
    cpu_threads: Option<usize>,
    gpus: Vec<SimGpuConfig>,
    extra_devices: Vec<Arc<dyn Device>>,
}

impl Default for ParaHashConfigBuilder {
    fn default() -> ParaHashConfigBuilder {
        ParaHashConfigBuilder {
            k: 27,
            p: 11,
            partitions: 64,
            sizing: SizingParams::default(),
            read_batch_bytes: 1 << 20,
            io_mode: IoMode::Unthrottled,
            work_dir: None,
            write_subgraphs: false,
            strict: true,
            partition_memory_budget: 256 << 20, // 256 MiB resident by default
            table_memory_budget: u64::MAX,      // unlimited: never sub-partition
            out_of_core: true,
            workers: 0,
            listen: None,
            worker_args: Vec::new(),
            resume: false,
            cpu_threads: Some(0), // 0 = all available
            gpus: Vec::new(),
            extra_devices: Vec::new(),
        }
    }
}

impl ParaHashConfigBuilder {
    /// Sets the k-mer length (1..=[`dna::MAX_K`]).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the minimizer length (1..=k).
    pub fn p(mut self, p: usize) -> Self {
        self.p = p;
        self
    }

    /// Sets the number of superkmer partitions.
    pub fn partitions(mut self, n: usize) -> Self {
        self.partitions = n;
        self
    }

    /// Sets the Property-1 sizing parameters (λ, α).
    pub fn sizing(mut self, sizing: SizingParams) -> Self {
        self.sizing = sizing;
        self
    }

    /// Sets the approximate byte size of one Step-1 input batch (the
    /// "equal-size input partitions" of Fig 3).
    pub fn read_batch_bytes(mut self, bytes: usize) -> Self {
        self.read_batch_bytes = bytes.max(1);
        self
    }

    /// Sets the I/O regime (unthrottled = Case 1; a bandwidth cap = Case 2).
    pub fn io_mode(mut self, mode: IoMode) -> Self {
        self.io_mode = mode;
        self
    }

    /// Sets the directory for superkmer partition files (required).
    pub fn work_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.work_dir = Some(dir.into());
        self
    }

    /// Persist each constructed subgraph to `work_dir/subgraphs/` (off by
    /// default; the comparison methodology in §V-A excludes this write).
    pub fn write_subgraphs(mut self, yes: bool) -> Self {
        self.write_subgraphs = yes;
        self
    }

    /// Strict mode (`true`, the default): the first unrecoverable
    /// partition failure aborts the whole run. Non-strict mode
    /// quarantines the failing partition instead (a `quarantined` record
    /// in the run journal, an entry in the step report) and
    /// finishes the run without its k-mers — the paper's workloads
    /// (terabyte read sets on shared clusters) often prefer a flagged
    /// partial graph over losing a multi-hour run.
    pub fn strict(mut self, yes: bool) -> Self {
        self.strict = yes;
        self
    }

    /// Sets the byte budget for **resident** partitions in the fused
    /// pipeline ([`crate::ParaHash::run_fused`] /
    /// [`crate::ParaHash::run_fused_fastq`]):
    /// Step-1 partitions accumulate in memory until the budget is
    /// exceeded, then the largest are spilled to the usual partition
    /// files. `0` forces every partition to disk (the classic two-phase
    /// data path, still fused in time); a huge budget keeps the whole
    /// Step-1→Step-2 handoff off the disk. Default: 256 MiB. The
    /// two-phase entry points ([`crate::run_step1`] + [`crate::run_step2`])
    /// ignore this setting.
    pub fn partition_memory_budget(mut self, bytes: u64) -> Self {
        self.partition_memory_budget = bytes;
        self
    }

    /// Sets the byte budget for a single partition's Property-1 hash
    /// table in Step 2. A partition whose projected table
    /// ([`hashgraph::projected_table_bytes`] from its manifest k-mer
    /// count) exceeds this budget is split by a second-level minimizer
    /// hash into sub-partitions, each built with its own (budget-sized)
    /// table and merged — byte-identical to the unsplit build. The
    /// default (`u64::MAX`) never splits. With
    /// [`out_of_core(false)`](Self::out_of_core), an over-budget
    /// partition aborts the run with
    /// [`crate::ParaHashError::TableOverBudget`] instead.
    pub fn table_memory_budget(mut self, bytes: u64) -> Self {
        self.table_memory_budget = bytes;
        self
    }

    /// Enables (`true`, the default) or disables out-of-core
    /// sub-partitioning of partitions whose projected table exceeds
    /// [`table_memory_budget`](Self::table_memory_budget). When disabled,
    /// an over-budget partition is a hard
    /// [`crate::ParaHashError::TableOverBudget`] error — the pre-PR-9
    /// behaviour of any run that outgrew its memory.
    pub fn out_of_core(mut self, yes: bool) -> Self {
        self.out_of_core = yes;
        self
    }

    /// Runs Step 2 across `n` child **worker processes** instead of in
    /// process: the parent runs Step 1, seals the partitions, then
    /// spawns `n` self-exec'ed workers that claim partitions
    /// largest-first over a Unix-socket protocol, build subgraphs
    /// locally (each with its own journal), and commit them to
    /// `work_dir/subgraphs/`; the parent verifies and absorbs the
    /// committed files and reassigns the leases of any worker that dies.
    /// `0` (the default) keeps the classic in-process Step 2. Applies to
    /// the two-phase flows ([`crate::ParaHash::run`]); the fused
    /// pipeline ignores it. The process `main` (or test harness entry)
    /// of the spawned binary must call [`crate::worker_from_env`] before
    /// doing anything else — see
    /// [`worker_spawn_args`](Self::worker_spawn_args).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Serves the sharded Step 2 over **TCP** at `addr` (for example
    /// `0.0.0.0:7700`, or `127.0.0.1:0` to pick a free loopback port)
    /// instead of the default Unix socket. Spawned child workers connect
    /// to the resolved address like remote ones would; additional
    /// machines join with `dbg worker --connect <addr>` and get their
    /// partition payloads shipped over the wire (and ship their subgraph
    /// results back). Implies the sharded Step 2 even when
    /// [`workers`](Self::workers) is `0` — a listen-only parent waits
    /// 30 s for the first remote worker and falls back to the
    /// in-process build if none shows up.
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = Some(addr.into());
        self
    }

    /// Extra argv for the self-exec'ed worker processes. Production
    /// binaries need none (their `main` calls [`crate::worker_from_env`]
    /// unconditionally); test binaries pass
    /// `["<worker-entry-test>", "--exact", "--nocapture"]` so the libtest
    /// harness routes the child into the test function that hosts the
    /// worker loop — the `tests/crash_recovery.rs` self-exec idiom.
    pub fn worker_spawn_args<I, S>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.worker_args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Makes the run entry points ([`crate::ParaHash::run`] /
    /// [`run_fused`](crate::ParaHash::run_fused) and the FASTQ variants)
    /// resume from `work_dir/run.journal` when one exists: the journal
    /// is replayed, surviving artifacts are CRC-verified, committed
    /// subgraphs are reloaded instead of rebuilt, and only
    /// missing/invalid partitions are re-run. A journal written under a
    /// different config/input fingerprint is refused with
    /// [`crate::ParaHashError::FingerprintMismatch`]; without a journal
    /// the run simply starts fresh. Off by default — a fresh run
    /// truncates any previous journal.
    pub fn resume(mut self, yes: bool) -> Self {
        self.resume = yes;
        self
    }

    /// Uses a CPU device with `threads` workers (0 = all available cores).
    /// This is the default; call [`no_cpu`](Self::no_cpu) for GPU-only runs.
    pub fn cpu_threads(mut self, threads: usize) -> Self {
        self.cpu_threads = Some(threads);
        self
    }

    /// Removes the CPU compute device (GPU-only configurations; the host
    /// still runs the input/output stages, as in the paper).
    pub fn no_cpu(mut self) -> Self {
        self.cpu_threads = None;
        self
    }

    /// Adds one simulated GPU.
    pub fn sim_gpu(mut self, config: SimGpuConfig) -> Self {
        self.gpus.push(config);
        self
    }

    /// Adds a pre-built device (e.g. a custom [`Device`] implementation).
    pub fn device(mut self, device: Arc<dyn Device>) -> Self {
        self.extra_devices.push(device);
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ParaHashError::Config`] — with the specific
    /// [`ConfigError`] rule — when parameters are out of range
    /// (`k` beyond [`dna::MAX_K`], `p > k` or `p == 0`, zero partitions), the work
    /// dir is missing, or no compute device is configured.
    pub fn build(self) -> Result<ParaHashConfig> {
        if self.k == 0 || self.k > dna::MAX_K {
            return Err(ConfigError::KOutOfRange { k: self.k }.into());
        }
        if self.p == 0 || self.p > self.k {
            return Err(ConfigError::MinimizerNotShorter { p: self.p, k: self.k }.into());
        }
        if self.partitions == 0 {
            return Err(ConfigError::NoPartitions.into());
        }
        let work_dir = self.work_dir.ok_or(ConfigError::MissingWorkDir)?;

        let mut devices: Vec<Arc<dyn Device>> = Vec::new();
        if let Some(threads) = self.cpu_threads {
            let threads = if threads == 0 {
                std::thread::available_parallelism().map(usize::from).unwrap_or(1)
            } else {
                threads
            };
            devices.push(Arc::new(CpuDevice::new("cpu0", threads)));
        }
        for (i, gpu) in self.gpus.into_iter().enumerate() {
            devices.push(Arc::new(SimGpuDevice::new(format!("gpu{i}"), gpu)));
        }
        devices.extend(self.extra_devices);
        if devices.is_empty() {
            return Err(ConfigError::NoDevices.into());
        }
        Ok(ParaHashConfig {
            k: self.k,
            p: self.p,
            partitions: self.partitions,
            sizing: self.sizing,
            read_batch_bytes: self.read_batch_bytes,
            io_mode: self.io_mode,
            work_dir,
            write_subgraphs: self.write_subgraphs,
            strict: self.strict,
            partition_memory_budget: self.partition_memory_budget,
            table_memory_budget: self.table_memory_budget,
            out_of_core: self.out_of_core,
            workers: self.workers,
            listen: self.listen,
            worker_args: self.worker_args,
            resume: self.resume,
            devices,
            run_token: String::new(),
            input_digest: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParaHashError;

    fn base() -> ParaHashConfigBuilder {
        ParaHashConfig::builder().work_dir("/tmp/parahash-config-test")
    }

    #[test]
    fn defaults_match_paper() {
        let c = base().build().unwrap();
        assert_eq!(c.k(), 27);
        assert_eq!(c.p(), 11);
        assert_eq!(c.partitions(), 64);
        assert_eq!(c.devices().len(), 1);
        assert_eq!(c.io_mode(), IoMode::Unthrottled);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(base().k(0).build().is_err());
        assert!(base().k(dna::MAX_K + 1).build().is_err());
        assert!(base().p(0).build().is_err());
        assert!(base().k(5).p(6).build().is_err());
        assert!(base().partitions(0).build().is_err());
        assert!(ParaHashConfig::builder().build().is_err(), "work_dir required");
        assert!(base().no_cpu().build().is_err(), "needs a device");
    }

    fn config_err(result: Result<ParaHashConfig>) -> ConfigError {
        match result {
            Err(ParaHashError::Config(e)) => e,
            Err(other) => panic!("expected ParaHashError::Config, got {other}"),
            Ok(_) => panic!("expected rejection"),
        }
    }

    #[test]
    fn k_beyond_packed_word_maximum_is_named() {
        let e = config_err(base().k(dna::MAX_K + 1).p(11).build());
        assert_eq!(e, ConfigError::KOutOfRange { k: dna::MAX_K + 1 });
        assert!(e.to_string().contains("packed-word maximum"), "{e}");
        assert_eq!(config_err(base().k(0).build()), ConfigError::KOutOfRange { k: 0 });
    }

    #[test]
    fn minimizer_length_is_validated_at_build_time() {
        // p > k is rejected here, not deep in the scanner.
        let e = config_err(base().k(7).p(9).build());
        assert_eq!(e, ConfigError::MinimizerNotShorter { p: 9, k: 7 });
        assert!(e.to_string().contains("1 <= p <= k"), "{e}");
        assert!(matches!(
            config_err(base().k(7).p(0).build()),
            ConfigError::MinimizerNotShorter { p: 0, k: 7 }
        ));
        assert!(base().k(7).p(7).build().is_ok(), "p == k is the degenerate-but-legal maximum");
        assert!(base().k(7).p(6).build().is_ok());
    }

    #[test]
    fn zero_partitions_and_missing_pieces_are_named() {
        assert_eq!(config_err(base().partitions(0).build()), ConfigError::NoPartitions);
        assert_eq!(config_err(ParaHashConfig::builder().build()), ConfigError::MissingWorkDir);
        assert_eq!(config_err(base().no_cpu().build()), ConfigError::NoDevices);
    }

    #[test]
    fn resume_flag_roundtrips() {
        assert!(!base().build().unwrap().resume(), "fresh runs by default");
        assert!(base().resume(true).build().unwrap().resume());
    }

    #[test]
    fn out_of_core_and_sharding_knobs() {
        let c = base().build().unwrap();
        assert_eq!(c.table_memory_budget(), u64::MAX, "unlimited by default");
        assert!(c.out_of_core(), "splitting enabled by default");
        assert_eq!(c.workers(), 0, "in-process Step 2 by default");
        let c = base()
            .table_memory_budget(64 << 10)
            .out_of_core(false)
            .workers(4)
            .worker_spawn_args(["worker_entry", "--exact"])
            .build()
            .unwrap();
        assert_eq!(c.table_memory_budget(), 64 << 10);
        assert!(!c.out_of_core());
        assert_eq!(c.workers(), 4);
        assert_eq!(c.worker_args, ["worker_entry", "--exact"]);
    }

    #[test]
    fn strict_knob() {
        assert!(base().build().unwrap().strict(), "strict is the default");
        assert!(!base().strict(false).build().unwrap().strict());
    }

    #[test]
    fn device_roster_assembles() {
        let c = base()
            .cpu_threads(4)
            .sim_gpu(SimGpuConfig::default())
            .sim_gpu(SimGpuConfig::default())
            .build()
            .unwrap();
        let names: Vec<_> = c.devices().iter().map(|d| d.name().to_owned()).collect();
        assert_eq!(names, ["cpu0", "gpu0", "gpu1"]);
        let gpu_only = base().no_cpu().sim_gpu(SimGpuConfig::default()).build().unwrap();
        assert_eq!(gpu_only.devices().len(), 1);
    }

    #[test]
    fn debug_output_names_devices() {
        let c = base().cpu_threads(2).build().unwrap();
        let dbg = format!("{c:?}");
        assert!(dbg.contains("cpu0"), "{dbg}");
    }
}
