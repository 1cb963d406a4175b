//! The parent side of the protocol: set-up, one fresh child process per
//! sample, round-robin across workloads, the oracle check, and the
//! per-workload results.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::corpus::Corpus;
use crate::json::{self, obj, Value};
use crate::sample::SampleArgs;
use crate::spec::{CorpusKind, Mode, Workload, END_TO_END, PARTITIONS};
use crate::stats::{median, Summary};

/// Environment variables that would make the children silently measure
/// another program.
pub const FORBIDDEN_ENV: [&str; 3] = [
    "PARAHASH_FORCE_SCALAR",
    "PARAHASH_FAILPOINTS",
    "PARAHASH_SPLIT",
];
/// The failpoint that crashes the `resume_half` set-up build when the
/// 33rd subgraph is about to be written: Step 1 sealed, 32 of 64
/// subgraphs committed.
const CRASH_SPEC: &str = "step2.subgraph.write=abort@33";
/// A sample that takes longer than this counts as failed.
const SAMPLE_TIMEOUT: Duration = Duration::from_secs(60);
/// Set-up runs this many times per invocation; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// Timed samples every workload gets whatever the time budget says.
const MIN_TIMED_SAMPLES: usize = 3;

static CHILD_EXE: OnceLock<PathBuf> = OnceLock::new();

/// Makes every child this process starts run `exe` instead of the
/// current executable. The integration tests call it with the
/// `parabench` binary, since their own executable is the test harness.
pub fn set_child_exe(exe: PathBuf) {
    let _ = CHILD_EXE.set(exe);
}

fn child_exe() -> io::Result<PathBuf> {
    CHILD_EXE
        .get()
        .cloned()
        .map_or_else(std::env::current_exe, Ok)
}

/// `min(nproc, 4)`: closed loop, never more runnable threads than cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// The directory every file of a run lives in, removed on drop — and so
/// on every exit path that unwinds or returns.
#[derive(Debug)]
pub struct WorkRoot(PathBuf);

impl WorkRoot {
    /// Creates `<benchmark>/out/work-<pid>` and sweeps the roots dead
    /// harness processes left behind (a kill skips `Drop`).
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn create() -> io::Result<WorkRoot> {
        let out = out_dir();
        fs::create_dir_all(&out)?;
        for entry in fs::read_dir(&out)?.flatten() {
            let name = entry.file_name();
            let owner = name.to_str().and_then(|n| n.strip_prefix("work-"));
            if owner.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
        let root = out.join(format!("work-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root)?;
        Ok(WorkRoot(root))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// `<benchmark>/out`, where work roots, traces and result files go. The
/// package directory is fixed at compile time: the binary is built and
/// run in the same checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What set-up leaves behind for the samples.
#[derive(Debug)]
pub struct Setup {
    /// The corpora the chosen workloads need.
    pub corpora: Vec<Corpus>,
    /// The crashed work directory of `resume_half` and how many
    /// subgraphs it committed.
    pub crashed: Option<(PathBuf, usize)>,
    /// Seconds each repetition of the set-up took.
    pub seconds: Vec<f64>,
}

impl Setup {
    /// The corpus of `kind`.
    ///
    /// # Panics
    ///
    /// If set-up was not asked for a workload over that corpus.
    pub fn corpus(&self, kind: CorpusKind) -> &Corpus {
        self.corpora
            .iter()
            .find(|c| c.kind == kind)
            .expect("set-up generated the corpus")
    }
}

/// Generates the corpora from `plan.seed`, builds their oracles and, when
/// `resume_half` is among the workloads, crashes one build halfway.
/// Repeated `plan.setup_reps` times so `setup_s` is a median; every
/// repetition must reproduce the first one's digests.
///
/// # Errors
///
/// File-system failures, a non-deterministic corpus, or a crash child
/// that did not crash where it was told to.
pub fn set_up(root: &Path, plan: &Plan) -> io::Result<Setup> {
    let mut kinds: Vec<CorpusKind> = plan.workloads.iter().map(|w| w.corpus).collect();
    kinds.sort_by_key(|k| k.stem());
    kinds.dedup();
    let crash_of = plan
        .workloads
        .iter()
        .find(|w| w.mode == Mode::ResumeHalf)
        .map(|w| w.corpus);
    let mut first: Option<Setup> = None;
    let mut seconds = Vec::new();
    for _ in 0..plan.setup_reps.max(1) {
        let started = Instant::now();
        let corpora = kinds
            .iter()
            .map(|&kind| Corpus::generate(kind, plan.seed, plan.scale, root))
            .collect::<io::Result<Vec<_>>>()?;
        let crashed = match crash_of {
            Some(kind) => {
                let corpus = corpora.iter().find(|c| c.kind == kind);
                Some(crash_half(root, corpus.expect("generated above"))?)
            }
            None => None,
        };
        seconds.push(started.elapsed().as_secs_f64());
        match &first {
            None => {
                first = Some(Setup {
                    corpora,
                    crashed,
                    seconds: Vec::new(),
                })
            }
            Some(first) => {
                let same = first.corpora.iter().zip(&corpora).all(|(a, b)| {
                    a.fastq_digest == b.fastq_digest && a.graph_digest == b.graph_digest
                });
                if !same || first.crashed != crashed {
                    return Err(other("set-up is not deterministic: two repetitions differ"));
                }
            }
        }
    }
    let mut setup = first.expect("at least one repetition ran");
    setup.seconds = seconds;
    Ok(setup)
}

/// Runs a two-phase build of `corpus` in a child armed with
/// [`CRASH_SPEC`] and returns the work directory it died in.
fn crash_half(root: &Path, corpus: &Corpus) -> io::Result<(PathBuf, usize)> {
    let dir = root.join("crashed");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir)?;
    let args = SampleArgs {
        workload: crate::spec::workload("two_phase_fastq").expect("listed in WORKLOADS"),
        fastq: corpus.fastq.clone(),
        work_dir: dir.clone(),
        threads: default_threads(),
        kmers: corpus.kmers,
        crashed: None,
    };
    let status = Command::new(child_exe()?)
        .arg("sample")
        .args(args.to_argv())
        .env("PARAHASH_FAILPOINTS", CRASH_SPEC)
        // A core file, where the host writes them, lands in the work root.
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()?;
    if status.success() {
        return Err(other(
            "the crash child finished its build instead of aborting",
        ));
    }
    let state = parahash::RunJournal::replay(&dir).map_err(other)?;
    let sealed = (0..PARTITIONS).all(|i| state.sealed.contains(&i));
    if !sealed || state.committed.is_empty() || state.committed.len() >= PARTITIONS {
        return Err(other(format!(
            "the crashed directory is not half built: {} sealed, {} committed",
            state.sealed.len(),
            state.committed.len()
        )));
    }
    Ok((dir, state.committed.len()))
}

/// One sample as the parent records it.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Why the sample failed; `None` when it built the oracle's graph.
    pub error: Option<String>,
    /// Wall seconds of the `ParaHash` call.
    pub build_s: f64,
    /// CPU seconds over the call.
    pub cpu_s: f64,
    /// Peak resident set in MiB.
    pub peak_rss_mib: f64,
    /// Bytes written over the call.
    pub io_write_bytes: f64,
}

impl Sample {
    fn failed(error: impl Into<String>) -> Sample {
        Sample {
            error: Some(error.into()),
            ..Sample::default()
        }
    }

    /// Reads the child's JSON line and checks its digest against the
    /// oracle's. A mismatch is a failed sample and contributes no timing.
    pub fn from_child(line: &str, oracle_digest: &str) -> Sample {
        let Ok(v) = json::parse(line) else {
            return Sample::failed(format!("child printed no JSON: `{}`", line.trim()));
        };
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            let error = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown error");
            return Sample::failed(error);
        }
        let digest = v.get("digest").and_then(Value::as_str).unwrap_or("");
        if digest != oracle_digest {
            return Sample::failed(format!(
                "graph digest {digest} differs from the oracle's {oracle_digest}"
            ));
        }
        let num = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        Sample {
            error: None,
            build_s: num("build_s"),
            cpu_s: num("cpu_s"),
            peak_rss_mib: num("peak_rss_mib"),
            io_write_bytes: num("io_write_bytes"),
        }
    }
}

/// Runs `parabench <verb> <args>` as a fresh child with the clean
/// environment and returns its last stdout line; kills it at the
/// timeout.
///
/// # Errors
///
/// A message for spawn failures, a timeout or an unsuccessful exit.
pub fn run_child(verb: &str, args: &SampleArgs, timeout: Duration) -> Result<String, String> {
    let exe = child_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg(verb)
        .args(args.to_argv())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let started = Instant::now();
    // The child's one line is far below the pipe buffer, so it never
    // blocks on a parent that polls instead of reading.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("timed out after {} s", timeout.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(format!("wait: {e}")),
        }
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        io::Read::read_to_string(&mut stdout, &mut out).map_err(|e| e.to_string())?;
    }
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    Ok(out.lines().last().unwrap_or("").to_owned())
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: &'static Workload,
    /// Input k-mer occurrences of its corpus.
    pub kmers: u64,
    /// Every sample in order; sample 0 is the discarded warm-up.
    pub samples: Vec<Sample>,
    /// Per-layer metrics of the traced run, when one was made.
    pub layers: Vec<(String, f64)>,
}

impl WorkloadResult {
    /// Samples (warm-up included) that errored, timed out or mismatched
    /// the oracle.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.error.is_some()).count()
    }

    /// The values of one per-workload end-to-end metric over the timed,
    /// successful samples.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        let kmers = self.kmers as f64;
        self.samples
            .iter()
            .skip(1)
            .filter(|s| s.error.is_none())
            .map(|s| match metric {
                "build_s" => s.build_s,
                "kmers_per_s" => kmers / s.build_s,
                "cpu_s" => s.cpu_s,
                "peak_rss_mib" => s.peak_rss_mib,
                "io_write_bytes" => s.io_write_bytes,
                other => panic!("`{other}` is not a per-workload end-to-end metric"),
            })
            .collect()
    }

    /// One per-layer metric of the traced run; 0 when the layer did
    /// nothing or no traced run was made.
    pub fn layer(&self, metric: &str) -> f64 {
        self.layers
            .iter()
            .find(|(name, _)| name == metric)
            .map_or(0.0, |(_, value)| *value)
    }

    /// Median of one end-to-end metric.
    pub fn median(&self, metric: &str) -> f64 {
        median(&self.values(metric))
    }
}

/// What to measure.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workloads, sampled round-robin.
    pub workloads: Vec<&'static Workload>,
    /// Corpus seed.
    pub seed: u64,
    /// Measuring time per workload.
    pub seconds: f64,
    /// Corpus scale (`--quick` uses 0.25).
    pub scale: f64,
    /// A cap on samples per workload, warm-up included (`--quick`: 2).
    pub max_samples: Option<usize>,
    /// How often set-up runs; `setup_s` is the median ([`SETUP_REPS`]
    /// unless the run is a smoke test).
    pub setup_reps: usize,
}

/// Takes the samples: sample *i* of every workload before sample *i+1*
/// of any, so host drift lands on all workloads alike. A workload stops
/// when its own samples have used `plan.seconds`.
pub fn measure(root: &Path, setup: &Setup, plan: &Plan) -> Vec<WorkloadResult> {
    let mut results: Vec<WorkloadResult> = plan
        .workloads
        .iter()
        .map(|&workload| WorkloadResult {
            workload,
            kmers: setup.corpus(workload.corpus).kmers,
            samples: Vec::new(),
            layers: Vec::new(),
        })
        .collect();
    let mut spent = vec![0.0f64; results.len()];
    loop {
        let mut took_any = false;
        for (result, spent) in results.iter_mut().zip(&mut spent) {
            let n = result.samples.len();
            let done = match plan.max_samples {
                Some(cap) => n >= cap,
                // Stop where one more sample would overshoot the budget
                // by more than it undershoots.
                None => n > MIN_TIMED_SAMPLES && *spent + 0.5 * *spent / n as f64 > plan.seconds,
            };
            if done {
                continue;
            }
            took_any = true;
            let started = Instant::now();
            let args = sample_args(root, setup, result.workload, &format!("s{n}"));
            let corpus = setup.corpus(result.workload.corpus);
            let sample = match run_child("sample", &args, SAMPLE_TIMEOUT) {
                Ok(line) => Sample::from_child(&line, &corpus.graph_digest),
                Err(e) => Sample::failed(e),
            };
            if let Some(e) = &sample.error {
                eprintln!("parabench: {} sample {n} failed: {e}", result.workload.name);
            }
            result.samples.push(sample);
            discard(root, &args.work_dir);
            *spent += started.elapsed().as_secs_f64();
        }
        if !took_any {
            break;
        }
    }
    results
}

/// A traced run takes longer than a sample: four builds and the replay.
const TRACE_TIMEOUT: Duration = Duration::from_secs(150);

/// Makes the traced run of every workload in `results`: one more child
/// each, whose per-layer metrics land in `layers` and whose spans land
/// in `<trace_dir>/trace-<workload>.json` beside the `host` record. A
/// traced run that fails, or builds a graph other than the oracle's, is
/// counted as one more failed sample.
pub fn trace_workloads(
    root: &Path,
    setup: &Setup,
    host: &Value,
    trace_dir: &Path,
    results: &mut [WorkloadResult],
) {
    for result in results {
        let args = sample_args(root, setup, result.workload, "trace");
        let oracle = &setup.corpus(result.workload.corpus).graph_digest;
        let file = trace_dir.join(format!("trace-{}.json", result.workload.name));
        match traced_child(&args, oracle, result.median("build_s"), host, &file) {
            Ok(layers) => result.layers = layers,
            Err(e) => {
                eprintln!("parabench: {} traced run failed: {e}", result.workload.name);
                result.samples.push(Sample::failed(e));
            }
        }
        discard(root, &args.work_dir);
    }
}

/// Removes a finished child's work directory and waits for the file
/// system to settle: an `fsync` of the parent directory commits the
/// journal transaction holding the unlinks, so the next sample does not
/// pay for them inside its clock.
fn discard(root: &Path, work_dir: &Path) {
    let _ = fs::remove_dir_all(work_dir);
    let _ = fs::File::open(root).and_then(|dir| dir.sync_all());
}

fn traced_child(
    args: &SampleArgs,
    oracle: &str,
    untraced_build_s: f64,
    host: &Value,
    file: &Path,
) -> Result<Vec<(String, f64)>, String> {
    let line = run_child("trace", args, TRACE_TIMEOUT)?;
    let v = json::parse(&line).map_err(|e| format!("child printed no JSON: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown error")
            .to_owned());
    }
    let digests = v.get("digests").and_then(Value::as_arr).unwrap_or(&[]);
    if digests.is_empty() || digests.iter().any(|d| d.as_str() != Some(oracle)) {
        return Err(format!("a traced graph differs from the oracle's {oracle}"));
    }
    let traced_build_s = v
        .get("traced_build_s")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let mut layers: Vec<(String, f64)> = v
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, value)| (name.clone(), value.as_f64().unwrap_or(0.0)))
        .collect();
    if untraced_build_s > 0.0 {
        let overhead = traced_build_s / untraced_build_s - 1.0;
        for (name, value) in &mut layers {
            if name == "trace.overhead_share" {
                *value = overhead;
            }
        }
    }
    // Chrome trace-event JSON, object form: unknown members are metadata.
    let events =
        fs::read_to_string(args.work_dir.join("events.json")).map_err(|e| e.to_string())?;
    let metrics = obj(layers
        .iter()
        .map(|(name, value)| (name.as_str(), Value::from(*value))));
    let text = format!(
        "{{\"displayTimeUnit\": \"ms\", \"host\": {}, \"metrics\": {}, \"traceEvents\": {events}}}\n",
        host.to_json(),
        metrics.to_json(),
    );
    fs::write(file, text).map_err(|e| e.to_string())?;
    Ok(layers)
}

/// The arguments of one child over `workload`, with a work directory
/// named after `tag`.
pub fn sample_args(
    root: &Path,
    setup: &Setup,
    workload: &'static Workload,
    tag: &str,
) -> SampleArgs {
    let corpus = setup.corpus(workload.corpus);
    SampleArgs {
        workload,
        fastq: corpus.fastq.clone(),
        work_dir: root.join(format!("{}-{tag}", workload.name)),
        threads: default_threads(),
        kmers: corpus.kmers,
        crashed: match workload.mode {
            Mode::ResumeHalf => setup.crashed.as_ref().map(|(dir, _)| dir.clone()),
            _ => None,
        },
    }
}

/// The end-to-end metrics of one workload as `name -> (value, unit)`,
/// `setup_s` included.
pub fn end_to_end_metrics(
    result: &WorkloadResult,
    setup: &Setup,
) -> Vec<(&'static str, f64, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => median(&setup.seconds),
                name => result.median(name),
            };
            (m.name, value, m.unit)
        })
        .collect()
}

/// One workload's section of a result file: per-metric summaries with
/// every sample's value, so `compare` can tell overlap from separation.
pub fn workload_json(result: &WorkloadResult) -> Value {
    let metrics = END_TO_END
        .iter()
        .filter(|m| m.name != "setup_s")
        .filter_map(|m| {
            let values = result.values(m.name);
            Summary::of(&values).map(|s| (m.name, summary_json(&s, m.unit, &values)))
        });
    obj([
        ("samples", Value::from(result.samples.len())),
        ("failed_samples", Value::from(result.failed())),
        ("kmers", Value::from(result.kmers)),
        ("metrics", obj(metrics)),
        (
            "layers",
            obj(result.layers.iter().map(|(name, value)| {
                let unit = crate::spec::per_layer(name).map_or("", |m| m.unit);
                (
                    name.as_str(),
                    obj([("value", Value::from(*value)), ("unit", Value::from(unit))]),
                )
            })),
        ),
    ])
}

/// A summary with its unit and raw values.
pub fn summary_json(s: &Summary, unit: &str, values: &[f64]) -> Value {
    obj([
        ("unit", Value::from(unit)),
        ("median", Value::from(s.median)),
        ("min", Value::from(s.min)),
        ("max", Value::from(s.max)),
        ("q1", Value::from(s.q1)),
        ("q3", Value::from(s.q3)),
        ("n", Value::from(s.n)),
        (
            "values",
            Value::Arr(values.iter().map(|&v| Value::from(v)).collect()),
        ),
    ])
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}
