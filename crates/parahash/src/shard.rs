//! Multi-process and multi-node Step-2 sharding: the parent/worker
//! drivers behind [`workers(N)`](crate::ParaHashConfigBuilder::workers)
//! and [`listen(addr)`](crate::ParaHashConfigBuilder::listen).
//!
//! A sharded Step 2 is the in-process Step 2 with some partitions built
//! elsewhere. The parent runs Step 1 as usual, seals the partition
//! directory and owns the step's one [`Step2Shared`] — the engine state
//! that decides strict-vs-quarantine, journals, counts and assembles the
//! report. Then, in three phases:
//!
//! 1. **Lease phase.** It binds a listener — a Unix socket in the work
//!    directory, or a TCP socket when remote workers are expected —
//!    spawns `N` copies of its own executable (the
//!    `tests/crash_recovery.rs` self-exec pattern), and leases partitions
//!    to whoever connects, one at a time in LPT (largest-first) order
//!    over the [`pipeline::shard`] wire protocol. Each worker keeps one
//!    [`PartitionBuilder`] — one table pool — for its whole session and
//!    builds every lease with it; a partition a worker reports is read
//!    back from `subgraphs/`, checked **once**, and settled on the spot
//!    through the engine's own [`Step2Shared::settle`]: journaled,
//!    counted and handed to the graph as the checked bytes.
//! 2. **Fallback.** Whatever the cluster left unbuilt — every worker
//!    died, or all drew `finished` while a failure was requeueing — runs
//!    through the engine in this process: pipelined, journaled and
//!    quarantining by the engine's own rules.
//! 3. **Finish.** [`Step2Shared::finish`] turns the counters into the
//!    report, journals the quarantines, or deletes partial output and
//!    returns the first fatal error.
//!
//! **Local (Unix) workers** share the parent's filesystem: they read the
//! partition files, commit `sub-<i>.dbg` themselves and journal into
//! their own `worker-<id>/run.journal`; the committed file is the result
//! channel. **Remote (TCP) workers** are diskless: partition payloads
//! arrive over the wire in the same CRC-framed format the partition store
//! uses on disk, the worker builds from the received bytes and streams
//! the formatted subgraph back, and the parent commits those bytes
//! locally. Either way the parent trusts no subgraph it has not re-read
//! from its own disk and checked end to end, and byte-identity with the
//! in-process build holds by construction — every path funnels through
//! the canonical-order [`crate::encode_subgraph`].
//!
//! Failure handling: a worker that dies mid-lease drops its socket; one
//! that *hangs* mid-lease stops heartbeating and is evicted when the
//! parent's receive deadline lapses. Both requeue the worker's
//! partitions (bounded by the board's attempt cap, so a partition that
//! crashes builders cannot re-lease forever) — except a lease that was
//! built and lost only its `result` frame, which is not a failed build:
//! a local worker's lease whose `sub-<i>.dbg` is committed and verifies
//! completes when its connection is released, and a remote worker's
//! payload that arrives unannounced completes the one lease its
//! connection has out — and a lease lost to a frame that failed its
//! checksum is requeued with its attempt refunded (up to the cap again),
//! since the link failed, not the build. Workers reconnect with
//! bounded exponential backoff and deterministically jittered pacing;
//! a reconnecting local worker's journal is *reopened*, not truncated,
//! so its committed records survive for cluster-wide resume. A partition
//! whose leases burned every attempt fails like an unreadable partition
//! file does in-process: the run aborts (strict) or sets it aside
//! (non-strict). A parent-side journal failure is fatal in both modes.
//!
//! Worker processes are CPU-only and run with unthrottled I/O: the
//! sharded path exists for real multi-process throughput (separate
//! address spaces, separate page caches, overlapped fsyncs), not for
//! the simulated-device regimes, which remain in-process features.

use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hashgraph::{ContentionStats, DeBruijnGraph};
use msp::{PartitionManifest, SealedPayload};
use parking_lot::Mutex;
use pipeline::shard::{
    connect_tcp, connect_unix, decode_blob, encode_blob, FrameSender, LeaseBoard, Recv,
    ShardListener, Transport, WireMsg, BLOB_TAG, MAX_FRAME, MAX_PAYLOAD_FRAME, PROTO_VERSION,
};
use pipeline::{failpoint, CancelToken, IoMode, RetryPolicy, ThrottledIo};

use crate::journal::{Fingerprint, JournalEvent, RunJournal};
use crate::step2::{
    check_committed, manifest_feed, persist, Built, Failure, PartitionBuilder, Resumed,
    Step2Shared,
};
use crate::{ParaHashConfig, ParaHashError, Result, StepReport};

/// Environment variable carrying the parent's Unix socket path into
/// locally spawned workers.
pub(crate) const ENV_SOCKET: &str = "PARAHASH_SHARD_SOCKET";
/// Environment variable carrying the parent's TCP `host:port` into
/// locally spawned workers when the run listens on TCP. Remote workers
/// pass the address explicitly (`dbg worker --connect`).
pub(crate) const ENV_CONNECT: &str = "PARAHASH_SHARD_CONNECT";
/// Environment variable carrying the worker's parent-assigned id.
pub(crate) const ENV_WORKER: &str = "PARAHASH_SHARD_WORKER";

/// How many times one partition may be leased before it is given up on
/// (worker crashes, evictions, and polite failures all consume
/// attempts).
const MAX_LEASE_ATTEMPTS: usize = 2;

/// Socket filename inside the work directory.
const SOCKET_FILE: &str = "shard.sock";

/// Worker reconnect pacing: five consecutive unproductive sessions end
/// the worker; between them it sleeps 100 ms doubling to a 2 s cap,
/// jittered deterministically by worker id so a restarted cluster
/// doesn't stampede.
const RECONNECT: RetryPolicy = RetryPolicy {
    attempts: 5,
    backoff: Duration::from_millis(100),
    max_backoff: Duration::from_secs(2),
};

/// How long a listen-only parent (no spawned children) waits for the
/// first remote worker before building everything itself.
const WAIT_FOR_FIRST: Duration = Duration::from_secs(30);

fn shard_err(msg: impl Into<String>) -> ParaHashError {
    ParaHashError::Shard(msg.into())
}

// ---------------------------------------------------------------------
// Tuning: the deadlines the chaos suites compress from minutes of
// failure detection into milliseconds, environment-overridable without
// touching production defaults.
// ---------------------------------------------------------------------

fn env_ms(var: &str) -> Option<Duration> {
    std::env::var(var).ok().and_then(|v| v.parse().ok()).map(Duration::from_millis)
}

/// The shard protocol's deadlines, shared by both sides.
#[derive(Debug, Clone)]
struct ShardTuning {
    /// Worker → parent liveness pulse period during builds
    /// (`PARAHASH_SHARD_HEARTBEAT_MS`, default 1000).
    heartbeat: Duration,
    /// Parent-side receive deadline between a worker's frames
    /// (`PARAHASH_SHARD_TIMEOUT_MS`, default 5× heartbeat): a worker
    /// silent this long is evicted as hung, not merely slow.
    idle_timeout: Duration,
    /// Deadline on every request-reply exchange — handshake, claim,
    /// payload transfer (`PARAHASH_SHARD_REQUEST_TIMEOUT_MS`,
    /// default 30 000).
    request_timeout: Duration,
}

impl ShardTuning {
    fn from_env() -> ShardTuning {
        let heartbeat = env_ms("PARAHASH_SHARD_HEARTBEAT_MS").unwrap_or(Duration::from_secs(1));
        ShardTuning {
            heartbeat,
            idle_timeout: env_ms("PARAHASH_SHARD_TIMEOUT_MS")
                .unwrap_or(heartbeat.saturating_mul(5)),
            request_timeout: env_ms("PARAHASH_SHARD_REQUEST_TIMEOUT_MS")
                .unwrap_or(Duration::from_secs(30)),
        }
    }
}

// ---------------------------------------------------------------------
// Config blob: how the parent's build configuration crosses the wire.
// ---------------------------------------------------------------------

/// Serialises the subset of the configuration a worker needs, as
/// `key value` lines. Floats travel as `f64::to_bits` hex so the worker
/// reconstructs bit-identical sizing parameters (a decimal round-trip
/// could move a table capacity by one and break byte-identity of the
/// resize accounting). `transfer` says how partition bytes move:
/// `fs` (shared filesystem — Unix workers) or `wire` (shipped in frames
/// — TCP workers, which must not assume the parent's paths exist).
/// `work-dir` is last and consumes the rest of its line — paths may
/// contain spaces.
fn config_blob(config: &ParaHashConfig, wire: bool) -> String {
    let token = if config.run_token.is_empty() { "-" } else { &config.run_token };
    format!(
        "k {}\np {}\npartitions {}\nlambda {:016x}\nalpha {:016x}\n\
         table-memory-budget {}\nout-of-core {}\ndigest {:016x}\n\
         run-token {}\ntransfer {}\nwork-dir {}",
        config.k,
        config.p,
        config.partitions,
        config.sizing.lambda.to_bits(),
        config.sizing.alpha.to_bits(),
        config.table_memory_budget,
        config.out_of_core as u8,
        config.input_digest,
        token,
        if wire { "wire" } else { "fs" },
        config.work_dir.display(),
    )
}

/// Parses [`config_blob`] back into a worker-side configuration: same
/// build parameters, but one CPU core (a worker builds one lease at a
/// time) and with subgraph formatting forced on (the encoded subgraph
/// is the product, committed here or shipped). Every failure a worker
/// meets goes back as a wire `failed` message: quarantine policy belongs
/// to the parent. The third return says whether partition bytes travel
/// over the wire (`transfer wire`).
fn config_from_blob(blob: &str) -> Result<(ParaHashConfig, Fingerprint, bool)> {
    let mut k = None;
    let mut p = None;
    let mut partitions = None;
    let mut lambda = None;
    let mut alpha = None;
    let mut budget = None;
    let mut out_of_core = None;
    let mut digest = None;
    let mut token = None;
    let mut wire = None;
    let mut work_dir = None;
    for line in blob.lines() {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| shard_err(format!("config blob line without a value: `{line}`")))?;
        let int = |what: &str| -> Result<u64> {
            value.parse().map_err(|e| shard_err(format!("config blob: bad {what}: {e}")))
        };
        let bits = |what: &str| -> Result<f64> {
            u64::from_str_radix(value, 16)
                .map(f64::from_bits)
                .map_err(|e| shard_err(format!("config blob: bad {what}: {e}")))
        };
        match key {
            "k" => k = Some(int("k")? as usize),
            "p" => p = Some(int("p")? as usize),
            "partitions" => partitions = Some(int("partitions")? as usize),
            "lambda" => lambda = Some(bits("lambda")?),
            "alpha" => alpha = Some(bits("alpha")?),
            "table-memory-budget" => budget = Some(int("table-memory-budget")?),
            "out-of-core" => out_of_core = Some(int("out-of-core")? != 0),
            "digest" => {
                digest = Some(
                    u64::from_str_radix(value, 16)
                        .map_err(|e| shard_err(format!("config blob: bad digest: {e}")))?,
                )
            }
            "run-token" => token = Some(if value == "-" { String::new() } else { value.into() }),
            "transfer" => {
                wire = Some(match value {
                    "wire" => true,
                    "fs" => false,
                    other => {
                        return Err(shard_err(format!("config blob: unknown transfer `{other}`")))
                    }
                })
            }
            "work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(shard_err(format!("config blob: unknown key `{other}`"))),
        }
    }
    let missing = |what: &str| shard_err(format!("config blob is missing `{what}`"));
    let (k, p, partitions) = (
        k.ok_or_else(|| missing("k"))?,
        p.ok_or_else(|| missing("p"))?,
        partitions.ok_or_else(|| missing("partitions"))?,
    );
    let mut config = ParaHashConfig::builder()
        .k(k)
        .p(p)
        .partitions(partitions)
        .sizing(hashgraph::SizingParams {
            lambda: lambda.ok_or_else(|| missing("lambda"))?,
            alpha: alpha.ok_or_else(|| missing("alpha"))?,
        })
        .table_memory_budget(budget.ok_or_else(|| missing("table-memory-budget"))?)
        .out_of_core(out_of_core.ok_or_else(|| missing("out-of-core"))?)
        .cpu_threads(1)
        .work_dir(work_dir.ok_or_else(|| missing("work-dir"))?)
        .write_subgraphs(true)
        .build()?;
    config.run_token = token.ok_or_else(|| missing("run-token"))?;
    let fingerprint =
        Fingerprint { k, p, partitions, input_digest: digest.ok_or_else(|| missing("digest"))? };
    config.input_digest = fingerprint.input_digest;
    Ok((config, fingerprint, wire.ok_or_else(|| missing("transfer"))?))
}

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

/// Where a worker's parent lives.
enum Endpoint {
    /// Filesystem socket of a same-machine parent.
    Unix(PathBuf),
    /// `host:port` of a (possibly remote) TCP parent.
    Tcp(String),
}

impl Endpoint {
    fn connect(&self) -> std::io::Result<Box<dyn Transport>> {
        match self {
            Endpoint::Unix(path) => connect_unix(path),
            Endpoint::Tcp(addr) => connect_tcp(addr),
        }
    }

    fn describe(&self) -> String {
        match self {
            Endpoint::Unix(path) => path.display().to_string(),
            Endpoint::Tcp(addr) => addr.clone(),
        }
    }
}

/// Routes a process into the shard-worker loop when the parent's
/// environment marks it as one. **Call this first in `main`** (or in
/// the dedicated worker-entry test of a test binary): a production
/// binary spawned as a worker then serves its leases and exits instead
/// of running its own workload.
///
/// Returns `Ok(false)` immediately in an ordinary process (the
/// variables are absent), `Ok(true)` after a completed worker run.
///
/// # Errors
///
/// Connection, protocol, or configuration failures inside the worker
/// loop. Build failures of individual partitions are *not* errors here
/// — they are reported to the parent as `failed` messages and retried
/// or quarantined there.
pub fn worker_from_env() -> Result<bool> {
    let Ok(worker) = std::env::var(ENV_WORKER) else { return Ok(false) };
    let endpoint = if let Ok(addr) = std::env::var(ENV_CONNECT) {
        Endpoint::Tcp(addr)
    } else if let Ok(socket) = std::env::var(ENV_SOCKET) {
        Endpoint::Unix(PathBuf::from(socket))
    } else {
        return Ok(false);
    };
    let worker: usize = worker
        .parse()
        .map_err(|e| shard_err(format!("{ENV_WORKER}=`{worker}` is not a worker id: {e}")))?;
    run_worker_loop(&endpoint, worker, true)?;
    Ok(true)
}

/// Joins a (possibly remote) parent's shard cluster over TCP and serves
/// leases until the parent says `finished`. This is the library half of
/// `dbg worker --connect <addr>`: run it on any machine that can reach
/// the parent's [`listen`](crate::ParaHashConfigBuilder::listen)
/// address; partition payloads and subgraph results travel over the
/// wire, so no shared filesystem is needed — the worker writes nothing
/// to its own disk.
///
/// # Errors
///
/// An unreachable parent (after the bounded reconnect budget), a
/// version-skew denial, or a protocol/configuration failure. Individual
/// partition build failures are reported to the parent, not returned.
pub fn run_remote_worker(addr: &str, worker: usize) -> Result<()> {
    run_worker_loop(&Endpoint::Tcp(addr.to_string()), worker, false)
}

/// Passes `shard.worker<worker>.lease`, the failpoint each assignment
/// hits once before its build starts (see
/// [`pipeline::failpoint::NET_SITES`]). Armed `abort`, the worker dies
/// here as a crashed one would: no unwind, no cleanup, the lease left
/// dangling. Armed `io-error`, it holds the lease in silence — no
/// heartbeats run yet — for twice the parent's idle deadline, so the
/// parent evicts it as hung.
fn lease_failpoint(worker: usize, tuning: &ShardTuning) {
    if failpoint::hit(&format!("shard.worker{worker}.lease")).is_err() {
        std::thread::sleep(tuning.idle_timeout.saturating_mul(2));
    }
}

/// Worker state that must survive reconnects.
struct WorkerSession {
    worker: usize,
    /// Whether any session ever received the config (the parent was
    /// reachable and sane at least once).
    served_any: bool,
    /// Whether the *current* session received the config; a productive
    /// session refunds the reconnect budget.
    progressed: bool,
}

/// How one connected session ended.
enum SessionEnd {
    /// The parent said `finished`: the run is over.
    Finished,
    /// The connection (or the parent) went away; the text says how.
    /// The outer loop decides whether to reconnect.
    Lost(String),
}

/// The worker loop: connect, serve one session, and on connection loss
/// retry with the [`RECONNECT`] backoff — exponential, capped, and
/// jittered by worker id so a cluster restarting against a rebooted
/// parent doesn't stampede. A session that got as far as the config
/// refunds the attempt budget: transient mid-run drops shouldn't
/// accumulate into a permanent exit while the parent keeps coming back.
///
/// A `spawned` worker's parent bound its listener before spawning it, so
/// a refused or missing socket means the parent stopped listening — the
/// lease phase is over, and the worker exits cleanly at once. A remote
/// worker (`dbg worker --connect`) backs off instead: its address may be
/// a typo, or a parent that is not up yet.
fn run_worker_loop(endpoint: &Endpoint, worker: usize, spawned: bool) -> Result<()> {
    let tuning = ShardTuning::from_env();
    let mut sess = WorkerSession { worker, served_any: false, progressed: false };
    let mut failures: u32 = 0;
    loop {
        let end = match endpoint.connect() {
            Ok(conn) => serve_session(conn, &mut sess, &tuning)?,
            Err(e)
                if spawned
                    && matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::NotFound) =>
            {
                return Ok(());
            }
            Err(e) => SessionEnd::Lost(format!("connecting: {e}")),
        };
        let why = match end {
            SessionEnd::Finished => return Ok(()),
            SessionEnd::Lost(why) => why,
        };
        failures = if sess.progressed { 1 } else { failures + 1 };
        // One refund per productive session: a failed *connect* never
        // reaches serve_session (which owns this flag), and a stale
        // `true` here would refund forever — a worker outliving the
        // parent's listener must run out of attempts, not spin.
        sess.progressed = false;
        if failures >= RECONNECT.attempts {
            if sess.served_any {
                // The parent vanished for good after real work was
                // served; its supervision loop already requeued our
                // leases. Exit cleanly — a drained cluster is not a
                // worker bug.
                return Ok(());
            }
            return Err(shard_err(format!(
                "cannot reach shard parent at {}: {why} (after {failures} attempt(s))",
                endpoint.describe()
            )));
        }
        std::thread::sleep(RECONNECT.delay(failures, worker as u64));
    }
}

/// Sends heartbeat frames on a dedicated thread while a build is in
/// flight, so the parent can tell a slow worker (pulsing) from a hung
/// one (silent). Dropping the ticker stops *and joins* the thread —
/// the reply that follows a build must never interleave with a pulse.
struct HeartbeatTicker {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatTicker {
    fn start(mut sender: Box<dyn FrameSender>, worker: usize, period: Duration) -> HeartbeatTicker {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let pulse = WireMsg::Heartbeat(worker).encode();
            loop {
                // Sleep the period in short slices so a finished build
                // reclaims this thread promptly.
                let mut slept = Duration::ZERO;
                while slept < period {
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    let slice = Duration::from_millis(10).min(period - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
                if flag.load(Ordering::SeqCst) {
                    return;
                }
                if sender.send(&pulse).is_err() {
                    // Dead socket: the main loop's next send/recv will
                    // notice and reconnect; pulsing is pointless.
                    return;
                }
            }
        });
        HeartbeatTicker { stop, handle: Some(handle) }
    }
}

impl Drop for HeartbeatTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One request-deadline-bounded receive on the worker side. Anything but
/// a frame ends the session; `what` names the message that never came.
fn recv_or_lost(
    conn: &mut dyn Transport,
    cap: u32,
    tuning: &ShardTuning,
    what: &str,
) -> std::result::Result<Vec<u8>, SessionEnd> {
    let lost = match conn.recv(cap, Some(tuning.request_timeout)) {
        Ok(Recv::Frame(frame)) => return Ok(frame),
        Ok(Recv::Eof) => format!("parent closed before {what}"),
        Ok(Recv::TimedOut) => {
            format!("no {what} within {}ms", tuning.request_timeout.as_millis())
        }
        Ok(Recv::Damaged) => format!("{what} failed its checksum"),
        Err(e) => format!("receiving {what}: {e}"),
    };
    Err(SessionEnd::Lost(lost))
}

/// One connected session: hello/config handshake, then claim-build-
/// report until `finished` or the connection dies. Connection-scoped
/// failures return [`SessionEnd::Lost`] (the caller may reconnect);
/// only non-retryable conditions — a `deny`, a corrupt config, a local
/// setup failure — are `Err`.
fn serve_session(
    mut conn: Box<dyn Transport>,
    sess: &mut WorkerSession,
    tuning: &ShardTuning,
) -> Result<SessionEnd> {
    sess.progressed = false;
    if let Err(e) = conn.send(&WireMsg::Hello(sess.worker, PROTO_VERSION).encode()) {
        return Ok(SessionEnd::Lost(format!("sending hello: {e}")));
    }
    let frame = match recv_or_lost(conn.as_mut(), MAX_FRAME, tuning, "`config`") {
        Ok(frame) => frame,
        Err(end) => return Ok(end),
    };
    let blob = match WireMsg::decode(&frame) {
        Ok(WireMsg::Config(blob)) => blob,
        // A denial is fatal by protocol contract: retrying the same
        // binary against the same parent can only be denied again.
        Ok(WireMsg::Deny(why)) => {
            return Err(shard_err(format!("parent denied worker {}: {why}", sess.worker)))
        }
        Ok(other) => {
            return Ok(SessionEnd::Lost(format!(
                "parent's first message was not `config`: {other:?}"
            )))
        }
        Err(e) => return Ok(SessionEnd::Lost(format!("undecodable `config` frame: {e}"))),
    };
    sess.progressed = true;
    sess.served_any = true;
    let (config, fingerprint, wire) = config_from_blob(&blob)?;
    // A worker on the parent's filesystem reads the partition files the
    // manifest names and keeps its own journal, in its own subdirectory:
    // `sub-split` and `subgraph-committed` records for the leases it
    // built, replayable for post-mortems and aggregated by cluster-wide
    // resume — reopened (not truncated) so records survive reconnects. A
    // wire worker has neither: the parent's paths do not exist here, and
    // it leaves nothing on this machine's disk.
    let local = if wire {
        None
    } else {
        let manifest = PartitionManifest::load(config.work_dir.join("superkmers"))?;
        let journal = RunJournal::open_or_create(
            &config.work_dir.join(format!("worker-{}", sess.worker)),
            fingerprint,
        )?;
        Some((manifest, journal))
    };
    // One builder for the session: its leases share one table pool.
    let builder = PartitionBuilder::new(&config);
    Ok(serve_leases(conn.as_mut(), sess.worker, tuning, &config, &builder, local.as_ref()))
}

/// A configured session's claim-build-report loop, until `finished` or
/// the connection dies. Every lease is built by `builder`. With `local`
/// (a worker on the parent's filesystem) a lease is the partition file
/// to read back, and its subgraph is committed and journaled here by the
/// engine's own [`persist`] — the committed file is the result channel;
/// without, the parent ships the partition's bytes and gets the formatted
/// subgraph back, and nothing is written anywhere.
fn serve_leases(
    conn: &mut dyn Transport,
    worker: usize,
    tuning: &ShardTuning,
    config: &ParaHashConfig,
    builder: &PartitionBuilder,
    local: Option<&(PartitionManifest, RunJournal)>,
) -> SessionEnd {
    let io = ThrottledIo::new(IoMode::Unthrottled);
    loop {
        if let Err(e) = conn.send(&WireMsg::Claim(worker).encode()) {
            return SessionEnd::Lost(format!("sending claim: {e}"));
        }
        let frame = match recv_or_lost(conn, MAX_FRAME, tuning, "a claim reply") {
            Ok(frame) => frame,
            Err(end) => return end,
        };
        let reply = match WireMsg::decode(&frame) {
            Ok(msg) => msg,
            // Desync, not protocol death: a dropped `assign` leaves the
            // next frame on the stream a raw partition blob, which is
            // not a text message. Drop the connection and resync with a
            // fresh session; the parent requeues whatever it leased us.
            Err(e) => return SessionEnd::Lost(format!("undecodable claim reply: {e}")),
        };
        let (p, kmers) = match reply {
            WireMsg::Assign(p, kmers) => (p, kmers),
            WireMsg::Finished => return SessionEnd::Finished,
            other => return SessionEnd::Lost(format!("unexpected message from parent: {other:?}")),
        };
        lease_failpoint(worker, tuning);
        // The lease, in the engine's terms: a partition file to read
        // back, or the bytes the parent ships next.
        let payload = match local {
            Some((manifest, _)) => SealedPayload::Spilled(manifest.partition_path(p)),
            None => {
                let what = format!("partition {p}'s payload");
                let shipped =
                    recv_or_lost(conn, MAX_PAYLOAD_FRAME, tuning, &what).and_then(|frame| {
                        let rejected = |e| SessionEnd::Lost(format!("{what} rejected: {e}"));
                        decode_blob(frame).map_err(rejected)
                    });
                match shipped {
                    Ok(bytes) => SealedPayload::Resident(bytes),
                    Err(end) => return end,
                }
            }
        };
        let ticker = HeartbeatTicker::start(conn.sender(), worker, tuning.heartbeat);
        let bytes = match payload {
            SealedPayload::Resident(bytes) => Ok(bytes),
            SealedPayload::Spilled(path) => {
                io.read_file(path).map_err(|e| Failure::local(ParaHashError::Io(e)))
            }
        };
        let device = config.devices()[0].as_ref();
        let built = bytes.and_then(|bytes| builder.build(device, p, bytes, kmers));
        let built = match local {
            Some((_, journal)) => built.and_then(|built| {
                persist(&io, journal, &config.work_dir, p, Some(&built.image), built.fanout, true)
                    .map(|()| built)
            }),
            None => built,
        };
        // Stop (and join) the pulse *before* replying: a heartbeat must
        // never interleave with the result and its payload.
        drop(ticker);
        let (reply, payload) = match built {
            Ok(built) => {
                let ship = local.is_none().then(|| encode_blob(&built.image));
                (WireMsg::Result(p, outcome_detail(&built)), ship)
            }
            Err(failure) => {
                let why = failure.error.to_string().replace(['\n', '\r'], " ");
                (WireMsg::Failed(p, why), None)
            }
        };
        if conn.send(&reply.encode()).is_err() {
            return SessionEnd::Lost("sending build report".into());
        }
        if let Some(payload) = payload {
            if conn.send(&payload).is_err() {
                return SessionEnd::Lost("sending subgraph payload".into());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------

/// Step 2 as a multi-process (and optionally multi-node) shard: bind a
/// listener, spawn [`workers`](crate::ParaHashConfigBuilder::workers)
/// child processes, accept whoever connects (children and remote
/// `dbg worker` joiners alike), lease them partitions largest-first,
/// verify and merge their committed subgraphs as they are reported, and
/// build whatever the cluster leaves behind through the engine. Drop-in
/// replacement for [`step2_feed`](crate::step2::step2_feed) over
/// a [`manifest_feed`] of sealed partition files — same journal records
/// in the parent's `run.journal` (a worker's sub-split included),
/// byte-identical subgraph files and graph, and the same [`Step2Shared`]
/// deciding what a failure means.
///
/// [`StepReport::pipeline`]'s `elapsed` is the wall-clock of the whole
/// step and `partitions` what it built, here or elsewhere; stage times,
/// shares and spans are the fallback's (empty when the cluster built
/// everything — the device meters of a leased build live in its worker).
///
/// # Errors
///
/// Socket/spawn failures, a partition that exhausted its lease attempts
/// (strict mode), a parent-side journal failure, or any error of the
/// fallback builds.
pub(crate) fn step2_sharded(
    config: &ParaHashConfig,
    manifest: &PartitionManifest,
    io: &ThrottledIo,
    journal: &RunJournal,
    resumed: Resumed,
) -> Result<(DeBruijnGraph, StepReport)> {
    debug_assert!(config.workers > 0 || config.listen.is_some());
    let Resumed { committed: skip, graph } = resumed;
    let started = Instant::now();
    let n = manifest.num_partitions();

    // LPT dispatch order, as in the in-process scheduler: the biggest
    // partitions start first so the tail stays short. Ties break to the
    // lower index for deterministic assignment logs.
    let mut order: Vec<usize> = (0..n).filter(|i| !skip.contains(i)).collect();
    order.sort_by(|&a, &b| {
        manifest.stats()[b].bytes.cmp(&manifest.stats()[a].bytes).then(a.cmp(&b))
    });

    // Nothing left to distribute — a resumed run whose every partition
    // already committed (and re-verified). Don't bind a listener or
    // spawn workers: children of a parent with no work would only wait
    // out their config deadline against a drained cluster.
    if order.is_empty() {
        let mut report = StepReport::idle(2);
        report.pipeline.elapsed = started.elapsed();
        return Ok((graph, report));
    }

    // The committed files are the result channel, whatever the user
    // asked to keep: the engine state persists every subgraph.
    let mut persisting = config.clone();
    persisting.write_subgraphs = true;
    let sub_dir = config.work_dir.join("subgraphs");
    std::fs::create_dir_all(&sub_dir)?;
    let cancel = CancelToken::new();
    let shared = Step2Shared::new(&persisting, &cancel, journal);
    // Whatever is about to be leased has no verified file (the resume
    // plan would have skipped it); an unverified leftover must not pass
    // for this step's work when a lease is released.
    for &p in &order {
        let _ = std::fs::remove_file(shared.subgraph_path(p));
    }

    let tcp = config.listen.is_some();
    let listener = if let Some(bind) = &config.listen {
        ShardListener::bind_tcp(bind)
            .map_err(|e| shard_err(format!("binding worker listener {bind}: {e}")))?
    } else {
        let socket_path = config.work_dir.join(SOCKET_FILE);
        ShardListener::bind_unix(&socket_path).map_err(|e| {
            shard_err(format!("binding worker socket {}: {e}", socket_path.display()))
        })?
    };
    let addr = listener.addr();

    let exe = std::env::current_exe().map_err(ParaHashError::Io)?;
    let mut children = Vec::with_capacity(config.workers);
    for w in 0..config.workers {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&config.worker_args).env(ENV_WORKER, w.to_string());
        if tcp {
            cmd.env(ENV_CONNECT, &addr).env_remove(ENV_SOCKET);
        } else {
            cmd.env(ENV_SOCKET, &addr).env_remove(ENV_CONNECT);
        }
        let child =
            cmd.spawn().map_err(|e| shard_err(format!("spawning worker {w}: {e}")))?;
        children.push(child);
    }

    let phase = LeasePhase {
        shared: &shared,
        cancel: &cancel,
        board: Mutex::new(LeaseBoard::new(order, n, MAX_LEASE_ATTEMPTS)),
        merged: Mutex::new((graph, BTreeSet::new())),
        manifest,
        io,
        tuning: ShardTuning::from_env(),
        fs_blob: config_blob(config, false),
        wire_blob: config_blob(config, true),
    };
    let shutdown = AtomicBool::new(false);
    let active = AtomicUsize::new(0);
    let ever_connected = AtomicBool::new(false);

    std::thread::scope(|s| {
        let accept = s.spawn(|| {
            let mut handlers = Vec::new();
            loop {
                let conn = match listener.accept() {
                    Ok(conn) => conn,
                    Err(_) => break,
                };
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                ever_connected.store(true, Ordering::SeqCst);
                active.fetch_add(1, Ordering::SeqCst);
                handlers.push(s.spawn(|| {
                    phase.serve(conn);
                    active.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            for handler in handlers {
                let _ = handler.join();
            }
        });
        // Supervision: the lease phase ends when the board drains, when
        // the run turns fatal, or when the cluster drains — no live child
        // process and no active connection (remote joiners get
        // `WAIT_FOR_FIRST` to show up when nothing was spawned locally).
        loop {
            if cancel.is_cancelled() || phase.board.lock().remaining() == 0 {
                break;
            }
            let child_alive =
                children.iter_mut().any(|c| matches!(c.try_wait(), Ok(None) | Err(_)));
            if child_alive || active.load(Ordering::SeqCst) > 0 {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            if children.is_empty()
                && !ever_connected.load(Ordering::SeqCst)
                && started.elapsed() < WAIT_FOR_FIRST
            {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            break;
        }
        shutdown.store(true, Ordering::SeqCst);
        listener.unblock();
        let _ = accept.join();
    });
    // Stop listening, then reap every child before trusting shared
    // state: an evicted-but-alive worker could otherwise still be writing
    // under the work directory while the parent builds the leftovers. A
    // worker that reconnects now is refused, runs out of attempts and
    // exits.
    if let ShardListener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    drop(listener);
    for child in &mut children {
        let _ = child.wait();
    }

    let LeasePhase { board, merged, .. } = phase;
    let (mut graph, built) = merged.into_inner();
    // Leases that burned every attempt fail like an unreadable partition
    // file: the engine state aborts (strict) or sets them aside. De-race
    // first: a worker's reconnection can cross its old connection's
    // teardown, letting `release_worker` charge — and even exhaust — a
    // lease whose build actually finished and verified. A partition that
    // is both exhausted-on-paper and verified-built is built.
    let mut exhausted_leases = board.into_inner().exhausted().to_vec();
    exhausted_leases.retain(|x| !built.contains(&x.partition));
    for x in &exhausted_leases {
        let why = format!(
            "partition {} failed {} worker attempt(s): {}",
            x.partition, x.attempts, x.reason
        );
        shared.fail(x.partition, Failure::local(shard_err(why)));
    }

    // Fallback: whatever is neither merged nor given up on — the workers
    // all died or were evicted, or all drew `finished` while a failure
    // was requeueing — goes through the engine here, everything already
    // settled in its skip set. Graceful degradation, not an error.
    let mut settled = skip;
    settled.extend(&built);
    settled.extend(exhausted_leases.iter().map(|x| x.partition));
    let leftover = n - settled.len();
    let mut pipeline = StepReport::idle(2).pipeline;
    if leftover > 0 && !cancel.is_cancelled() {
        let offset = started.elapsed();
        pipeline = shared.run(&manifest_feed(manifest), io, &settled, &mut graph);
        for span in &mut pipeline.spans {
            span.start += offset;
            span.end += offset;
        }
    }
    let (graph, mut report) = shared.finish(pipeline, graph)?;
    if !config.write_subgraphs {
        // The files were only ever the result channel; the user asked
        // for none. (The resume skip-set is always empty in this
        // configuration, so nothing downstream reads them.)
        std::fs::remove_dir_all(&sub_dir)?;
    }
    report.pipeline.elapsed = started.elapsed();
    report.pipeline.partitions = built.len() + leftover;
    report.exhausted_leases = exhausted_leases;
    Ok((graph, report))
}

/// What the lease phase's connection handlers share.
struct LeasePhase<'a> {
    /// The step's engine state: failure policy, journal, counters.
    shared: &'a Step2Shared<'a>,
    cancel: &'a CancelToken,
    board: Mutex<LeaseBoard>,
    /// The graph and the partitions this step has merged into it, under
    /// one lock: a partition is in the set exactly when its vertices are
    /// in the graph.
    merged: Mutex<(DeBruijnGraph, BTreeSet<usize>)>,
    manifest: &'a PartitionManifest,
    io: &'a ThrottledIo,
    tuning: ShardTuning,
    /// [`config_blob`] for workers on this filesystem, and for wire ones.
    fs_blob: String,
    wire_blob: String,
}

impl LeasePhase<'_> {
    /// One connection's server loop: handshake (with version check),
    /// configure the worker, lease it partitions, verify and merge what
    /// it reports back. A connection that closes, stalls past the
    /// heartbeat deadline, or turns to garbage frees the worker's
    /// outstanding leases — the *connection* is expendable.
    fn serve(&self, mut conn: Box<dyn Transport>) {
        let tuning = &self.tuning;
        // Handshake. Nothing is leased yet, so every failure mode here —
        // the shutdown dummy connection, a garbled or dropped hello, a
        // version-skewed worker — just ends the connection.
        let frame = match conn.recv(MAX_FRAME, Some(tuning.request_timeout)) {
            Ok(Recv::Frame(frame)) => frame,
            _ => return,
        };
        let (worker, version) = match WireMsg::decode(&frame) {
            Ok(WireMsg::Hello(worker, version)) => (worker, version),
            _ => return,
        };
        if version != PROTO_VERSION {
            let why = format!(
                "protocol version {version} does not match the parent's {PROTO_VERSION}; \
                 update the worker binary to the parent's build and reconnect"
            );
            let _ = conn.send(&WireMsg::Deny(why).encode());
            return;
        }
        // Remote connections cannot read the parent's filesystem: they
        // get the `transfer wire` config and shipped payloads.
        let wire = conn.remote();
        let blob = if wire { &self.wire_blob } else { &self.fs_blob };
        if conn.send(&WireMsg::Config(blob.clone()).encode()).is_err() {
            return;
        }
        // The lease a wire worker is building for this connection (a
        // worker holds one at a time): the partition a subgraph payload
        // belongs to when the `result` frame announcing it was lost.
        let mut shipping: Option<usize> = None;
        // The loop breaks with why the worker lost whatever it still
        // holds; a lease that failed on its own merits is failed on the
        // board and the connection simply returns.
        let released = loop {
            if self.cancel.is_cancelled() {
                break "was dropped by an aborting run".to_string();
            }
            let cap = if shipping.is_some() { MAX_PAYLOAD_FRAME } else { MAX_FRAME };
            let msg = match conn.recv(cap, Some(tuning.idle_timeout)) {
                // A payload with no `result` ahead of it: the worker
                // built the lease and that one frame went missing. A
                // lost frame is not a failed build — take the payload
                // through the same commit and verification.
                Ok(Recv::Frame(frame)) if frame.first() == Some(&BLOB_TAG) => {
                    let Some(p) = shipping.take() else {
                        break "sent a payload no lease was waiting for".to_string();
                    };
                    self.accept_shipped(worker, p, frame, "");
                    continue;
                }
                Ok(Recv::Frame(frame)) => match WireMsg::decode(&frame) {
                    Ok(msg) => msg,
                    // Garbled traffic costs the connection, never the
                    // run: requeue and let the worker reconnect.
                    Err(e) => break format!("sent an undecodable frame: {e}"),
                },
                // Clean exit and crash look the same from here: requeue
                // whatever the worker still held (crash) — a no-op after
                // a clean `finished` exit (it held nothing).
                Ok(Recv::Eof) => break "disconnected holding the lease".to_string(),
                // The heartbeat deadline lapsed: hung, not slow. Evict.
                Ok(Recv::TimedOut) => {
                    break format!(
                        "sent no heartbeat within {}ms; evicted as hung",
                        tuning.idle_timeout.as_millis()
                    )
                }
                // The link damaged a frame: the connection goes, the
                // attempt it cost comes back.
                Ok(Recv::Damaged) => {
                    return self.release(worker, wire, "sent a frame that failed its checksum", true)
                }
                Err(e) => break format!("connection failed: {e}"),
            };
            // A report is believed only from the connection holding the
            // lease: anything else ends the connection, with nothing
            // written or merged.
            if let WireMsg::Result(p, _) | WireMsg::Failed(p, _) = msg {
                let held = if wire {
                    shipping == Some(p)
                } else {
                    self.board.lock().held_by(worker).contains(&p)
                };
                if !held {
                    break format!("reported partition {p}, which it does not hold");
                }
            }
            match msg {
                // Liveness pulse: its arrival already reset the receive
                // deadline; it carries nothing else.
                WireMsg::Heartbeat(_) => continue,
                // Leased under the hello id, whatever id the claim names:
                // the release at the end frees that id's leases.
                WireMsg::Claim(_) => {
                    let leased = self.board.lock().claim(worker);
                    let Some(p) = leased else {
                        if conn.send(&WireMsg::Finished.encode()).is_err() {
                            return;
                        }
                        continue;
                    };
                    // Journaled *before* the assignment goes out: after
                    // a parent crash, replay shows exactly which
                    // partitions were in flight.
                    if !self.shared.journaled(p, JournalEvent::WorkerLease(worker, p)) {
                        break "was leased a partition the parent could not journal".to_string();
                    }
                    let assign = WireMsg::Assign(p, self.manifest.stats()[p].kmers);
                    if conn.send(&assign.encode()).is_err() {
                        break "disconnected during assignment".to_string();
                    }
                    if wire {
                        let bytes = match self.io.read_file(self.manifest.partition_path(p)) {
                            Ok(bytes) => bytes,
                            Err(e) => {
                                // A parent-side read failure is the
                                // partition's problem, not the worker's
                                // — but the worker is now waiting for a
                                // payload this connection can't deliver.
                                self.board
                                    .lock()
                                    .fail(p, &format!("reading partition to ship: {e}"));
                                return;
                            }
                        };
                        if conn.send(&encode_blob(&bytes)).is_err() {
                            break "disconnected mid-payload".to_string();
                        }
                        shipping = Some(p);
                    }
                }
                WireMsg::Result(p, detail) => {
                    if wire {
                        shipping = None;
                        // The subgraph payload follows the result frame;
                        // a final heartbeat may still be queued ahead of
                        // it.
                        let payload = loop {
                            match conn.recv(MAX_PAYLOAD_FRAME, Some(tuning.request_timeout)) {
                                Ok(Recv::Frame(frame)) => {
                                    if frame.first() == Some(&BLOB_TAG) {
                                        break Some(frame);
                                    }
                                    match WireMsg::decode(&frame) {
                                        Ok(WireMsg::Heartbeat(_)) => continue,
                                        _ => break None,
                                    }
                                }
                                Ok(Recv::Damaged) => {
                                    let why = "sent a subgraph payload that failed its checksum";
                                    return self.release(worker, wire, why, true);
                                }
                                _ => break None,
                            }
                        };
                        let Some(payload) = payload else {
                            self.board.lock().fail(
                                p,
                                &format!(
                                    "worker {worker} reported success but its subgraph payload \
                                     never arrived"
                                ),
                            );
                            return;
                        };
                        self.accept_shipped(worker, p, payload, &detail);
                    } else {
                        self.accept(worker, p, &detail);
                    }
                }
                WireMsg::Failed(p, detail) => {
                    shipping = None;
                    self.board.lock().fail(p, &detail);
                }
                other => break format!("sent an unexpected message: {other:?}"),
            }
        };
        self.release(worker, wire, &released, false);
    }

    /// A connection ended holding leases; `why` says how. A worker on
    /// this filesystem commits `sub-<p>.dbg` *before* it reports, so a
    /// held lease whose file is there and passes [`accept`](Self::accept)'s
    /// verification was built — only its `result` frame was lost — and
    /// completes instead of being charged an attempt: two workers each
    /// losing the `result` of the same partition must not abort a strict
    /// run that has the subgraph on disk twice over. (The file cannot
    /// predate this step: [`step2_sharded`] removes the file of every
    /// partition it is about to lease.) Everything else the worker held —
    /// and everything a wire worker held, whose result *is* the frame —
    /// is requeued by the board: charged, or refunded when the connection
    /// ended on a `damaged` frame ([`LeaseBoard::release_damaged`]) — so
    /// two garbled frames of one wire lease cannot abort a strict run
    /// either.
    fn release(&self, worker: usize, wire: bool, why: &str, damaged: bool) {
        if !wire {
            let held = self.board.lock().held_by(worker);
            for p in held {
                if let Ok(image) = self.verified(p) {
                    self.complete(p, image, "");
                }
            }
        }
        let mut board = self.board.lock();
        if damaged {
            board.release_damaged(worker, why);
        } else {
            board.release_worker(worker, why);
        }
    }

    /// A wire worker's subgraph for `p`, as shipped: commit the bytes to
    /// this process's `subgraphs/`, then [`accept`](Self::accept) them
    /// like any worker's file.
    fn accept_shipped(&self, worker: usize, p: usize, payload: Vec<u8>, detail: &str) {
        let committed = decode_blob(payload).and_then(|bytes| {
            pipeline::commit::commit_bytes(&self.shared.subgraph_path(p), &bytes)
        });
        match committed {
            Ok(()) => self.accept(worker, p, detail),
            // The connection is still framed correctly — only this lease
            // failed.
            Err(e) => self.board.lock().fail(p, &format!("committing shipped subgraph: {e}")),
        }
    }

    /// A worker says partition `p` is built and committed. Trust nothing:
    /// the file must exist in this process's `subgraphs/` and pass its
    /// end-to-end checks before the lease completes — the same seam for
    /// a local worker's commit and for shipped bytes this process just
    /// committed. The file is read and checked once, outside the graph
    /// lock, and the bytes that passed are what the graph absorbs. A
    /// partition two connections report (a requeue race, see
    /// [`step2_sharded`]) is merged — and journaled — the first time
    /// only.
    fn accept(&self, worker: usize, p: usize, detail: &str) {
        match self.verified(p) {
            Ok(image) => self.complete(p, image, detail),
            Err(e) => self.board.lock().fail(
                p,
                &format!("worker {worker} reported success but the file fails: {e}"),
            ),
        }
    }

    /// The one verification: `sub-<p>.dbg` read from this process's
    /// `subgraphs/` and checked — header, length, CRC trailer — but not
    /// decoded: the checked bytes are what the graph keeps.
    fn verified(&self, p: usize) -> Result<Vec<u8>> {
        let bytes = std::fs::read(self.shared.subgraph_path(p)).map_err(ParaHashError::Io)?;
        check_committed(&bytes, p)?;
        Ok(bytes)
    }

    /// Completes `p`'s lease and, the first time only, settles the
    /// verified image — already on disk — with the accounting the
    /// worker's `result` `detail` carries ([`parse_outcome`]; none when
    /// no `result` arrived).
    fn complete(&self, p: usize, image: Vec<u8>, detail: &str) {
        self.board.lock().complete(p);
        let mut merged = self.merged.lock();
        let (graph, built) = &mut *merged;
        if built.insert(p) {
            let mut built = parse_outcome(detail).unwrap_or_default();
            built.image = image;
            built.partition_bytes = self.manifest.stats()[p].bytes;
            self.shared.settle(self.io, graph, p, built, true);
        }
    }
}

/// A worker's `result` detail for what it built: `ok <resizes> <peak
/// table bytes> <fanout> <insertions> <updates> <probe steps> <tag
/// rejects> <replayed k-mers>`. A worker is one core, whose tables take
/// no CAS and wait on no lock, so those two counters are 0 and not sent.
fn outcome_detail(built: &Built) -> String {
    let c = &built.contention;
    format!(
        "ok {} {} {} {} {} {} {} {}",
        built.resizes,
        built.peak_table_bytes,
        built.fanout,
        c.insertions,
        c.updates,
        c.probe_steps,
        c.tag_rejects,
        built.replayed_kmers
    )
}

/// Parses [`outcome_detail`] back into the accounting of a [`Built`]
/// (image and partition bytes left empty); `None` unless all eight
/// counts are there.
fn parse_outcome(detail: &str) -> Option<Built> {
    let mut fields = detail.strip_prefix("ok ")?.split_whitespace().map(str::parse::<u64>);
    let mut next = || fields.next()?.ok();
    let (resizes, peak_table_bytes, fanout) = (next()? as usize, next()?, next()? as usize);
    let contention = ContentionStats {
        insertions: next()?,
        updates: next()?,
        probe_steps: next()?,
        tag_rejects: next()?,
        ..ContentionStats::default()
    };
    let replayed_kmers = next()?;
    Some(Built {
        contention,
        replayed_kmers,
        resizes,
        peak_table_bytes,
        fanout,
        ..Built::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::DeviceKind;

    fn config(dir: &str) -> ParaHashConfig {
        ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(8)
            .cpu_threads(3)
            .table_memory_budget(1 << 20)
            .out_of_core(true)
            .work_dir(std::env::temp_dir().join(dir))
            .build()
            .unwrap()
    }

    #[test]
    fn config_blob_roundtrips_bit_exact() {
        let cfg = config("parahash-shard-blob");
        let (back, fp, wire) = config_from_blob(&config_blob(&cfg, false)).unwrap();
        assert_eq!(back.k, cfg.k);
        assert_eq!(back.p, cfg.p);
        assert_eq!(back.partitions, cfg.partitions);
        assert_eq!(back.sizing.lambda.to_bits(), cfg.sizing.lambda.to_bits());
        assert_eq!(back.sizing.alpha.to_bits(), cfg.sizing.alpha.to_bits());
        assert_eq!(back.table_memory_budget, cfg.table_memory_budget);
        assert_eq!(back.out_of_core, cfg.out_of_core);
        assert_eq!(back.work_dir, cfg.work_dir);
        let cores: Vec<_> = back.devices().iter().map(|d| d.kind()).collect();
        assert_eq!(cores, [DeviceKind::Cpu], "a worker is one core, whatever the parent has");
        assert!(back.write_subgraphs, "a worker's product is the formatted subgraph");
        assert!(!wire, "fs transfer decodes as local");
        assert_eq!(fp.k, 9);
        assert_eq!(fp.input_digest, 0, "no digest set on a bare config");
    }

    #[test]
    fn config_blob_carries_the_transfer_mode() {
        let cfg = config("parahash-shard-blob-wire");
        let (_, _, wire) = config_from_blob(&config_blob(&cfg, true)).unwrap();
        assert!(wire, "wire transfer crosses the blob");
        let blob = config_blob(&cfg, true);
        assert!(config_from_blob(&blob.replace("transfer wire", "transfer carrier-pigeon"))
            .is_err());
        let missing: String =
            blob.lines().filter(|l| !l.starts_with("transfer")).collect::<Vec<_>>().join("\n");
        assert!(config_from_blob(&missing).is_err(), "transfer mode is mandatory");
    }

    #[test]
    fn config_blob_rejects_damage() {
        let cfg = config("parahash-shard-blob-bad");
        let blob = config_blob(&cfg, false);
        assert!(config_from_blob(&blob.replace("k 9", "k nine")).is_err());
        assert!(config_from_blob(&blob.replace("digest", "digets")).is_err());
        let missing: String =
            blob.lines().filter(|l| !l.starts_with("alpha")).collect::<Vec<_>>().join("\n");
        assert!(config_from_blob(&missing).is_err(), "missing key must be rejected");
    }

    /// Four partitions built in process under `dir` — which leaves the
    /// committed `sub-<p>.dbg` files a local worker would — the graph
    /// they add up to, and a fresh journal for the step under test.
    fn built_in_process(
        dir: &str,
    ) -> (ParaHashConfig, ThrottledIo, PartitionManifest, DeBruijnGraph, RunJournal) {
        let cfg = ParaHashConfig::builder()
            .k(9)
            .p(5)
            .partitions(4)
            .cpu_threads(2)
            .write_subgraphs(true)
            .work_dir(std::env::temp_dir().join(dir))
            .build()
            .unwrap();
        let _ = std::fs::remove_dir_all(cfg.work_dir());
        let io = ThrottledIo::new(IoMode::Unthrottled);
        let reads: Vec<dna::SeqRead> = [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT",
            "TGATGGATGATGGATGGTAGCATACGTTGCATGGACCAG",
            "GGCATTAGCCAGTACGGATCACCGTATGCAATTGACCGA",
        ]
        .iter()
        .map(|s| dna::SeqRead::from_ascii("r", s.as_bytes()))
        .collect();
        let reference = crate::ParaHash::new(cfg.clone()).unwrap().run(&reads).unwrap().graph;
        let manifest = PartitionManifest::load(cfg.work_dir().join("superkmers")).unwrap();
        let fingerprint = Fingerprint { k: 9, p: 5, partitions: 4, input_digest: 0 };
        let journal = RunJournal::create(cfg.work_dir(), fingerprint).unwrap();
        (cfg, io, manifest, reference, journal)
    }

    /// The next frame a scripted peer receives, heartbeats skipped.
    fn next_frame(conn: &mut dyn Transport) -> Vec<u8> {
        loop {
            match conn.recv(MAX_PAYLOAD_FRAME, Some(Duration::from_secs(10))) {
                Ok(Recv::Frame(frame)) => {
                    if !matches!(WireMsg::decode(&frame), Ok(WireMsg::Heartbeat(_))) {
                        return frame;
                    }
                }
                other => panic!("expected a frame, got {other:?}"),
            }
        }
    }

    fn lease_phase<'a>(
        shared: &'a Step2Shared<'a>,
        cancel: &'a CancelToken,
        manifest: &'a PartitionManifest,
        io: &'a ThrottledIo,
    ) -> LeasePhase<'a> {
        LeasePhase {
            shared,
            cancel,
            board: Mutex::new(LeaseBoard::new((0..4).collect(), 4, MAX_LEASE_ATTEMPTS)),
            merged: Mutex::new((DeBruijnGraph::new(9), BTreeSet::new())),
            manifest,
            io,
            tuning: ShardTuning::from_env(),
            fs_blob: String::new(),
            wire_blob: String::new(),
        }
    }

    /// A worker's `result` detail carries its partition's table counters
    /// to the parent intact; a detail without them (protocol version 3)
    /// does not parse.
    #[test]
    fn outcome_detail_roundtrips_the_table_counters() {
        let contention = ContentionStats {
            insertions: 7,
            updates: 30,
            probe_steps: 4,
            tag_rejects: 3,
            ..ContentionStats::default()
        };
        let built = Built {
            contention,
            replayed_kmers: 12,
            resizes: 1,
            peak_table_bytes: 4096,
            fanout: 2,
            ..Built::default()
        };
        let back = parse_outcome(&outcome_detail(&built)).expect("own detail parses");
        assert_eq!(back.contention, contention);
        assert_eq!(
            (back.replayed_kmers, back.resizes, back.peak_table_bytes, back.fanout),
            (12, 1, 4096, 2)
        );
        assert!(parse_outcome("ok 0 4096 0").is_none());
    }

    /// A lease two connections report (the requeue race) is verified,
    /// journaled and merged once: the second `result` leaves the graph
    /// and the built set as they were. Every merged subgraph is the image
    /// the verifying check passed, so the graph after one `result` per
    /// partition is the in-process graph.
    #[test]
    fn a_second_result_for_a_built_partition_changes_nothing() {
        let (cfg, io, manifest, reference, journal) = built_in_process("parahash-shard-absorb-once");
        let cancel = CancelToken::new();
        let shared = Step2Shared::new(&cfg, &cancel, &journal);
        let phase = lease_phase(&shared, &cancel, &manifest, &io);
        assert_eq!(phase.board.lock().claim(0), Some(0));
        phase.accept(0, 0, "ok 0 4096 0 0 0 0 0 0");
        let once = phase.merged.lock().clone();
        assert_eq!(once.1, BTreeSet::from([0]));
        assert!(once.0.distinct_vertices() > 0, "partition 0 is not empty");
        // The same lease again, as the other side of the race reports it.
        assert_eq!(phase.board.lock().claim(1), Some(1));
        phase.accept(1, 0, "ok 3 8192 2 0 0 0 0 0");
        assert!(*phase.merged.lock() == once, "graph and built set unchanged");
        assert_eq!(phase.board.lock().remaining(), 3, "only partition 0 completed");

        phase.accept(1, 1, "ok 0 4096 0 0 0 0 0 0");
        for p in 2..4 {
            assert_eq!(phase.board.lock().claim(0), Some(p));
            phase.accept(0, p, "ok 0 4096 0 0 0 0 0 0");
        }
        let LeasePhase { merged, .. } = phase;
        let (graph, built) = merged.into_inner();
        assert_eq!(built.len(), 4);
        assert_eq!(graph, reference);
        let (_, report) =
            shared.finish(StepReport::idle(2).pipeline, DeBruijnGraph::new(9)).unwrap();
        assert_eq!((report.resizes, report.peak_table_bytes), (0, 4096), "counted once");
        assert!(report.sub_splits.is_empty(), "the duplicate's fanout was not recorded");
        let state = RunJournal::replay(cfg.work_dir()).unwrap();
        assert_eq!(state.committed, BTreeSet::from([0, 1, 2, 3]));
        let records = std::fs::read(RunJournal::path_in(cfg.work_dir())).unwrap();
        let needle = b"subgraph-committed ";
        assert_eq!(records.windows(needle.len()).filter(|w| w == needle).count(), 4);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// The dropped-`result` scenario that used to abort strict runs:
    /// partition 0's lease is lost twice — once before its file exists
    /// (a real failure: charged and requeued), once after the worker
    /// committed it and only the `result` frame went missing. The second
    /// loss must complete the lease, not exhaust it; a wire worker's
    /// leases, whose result *is* the frame, are charged as ever.
    #[test]
    fn a_lost_result_frame_completes_the_lease_if_the_file_verifies() {
        let (cfg, io, manifest, reference, journal) = built_in_process("parahash-shard-lost-result");
        let cancel = CancelToken::new();
        let shared = Step2Shared::new(&cfg, &cancel, &journal);
        let phase = lease_phase(&shared, &cancel, &manifest, &io);
        let file = shared.subgraph_path(0);
        let committed = std::fs::read(&file).unwrap();

        // Worker 0 dies holding partition 0 before committing anything.
        std::fs::remove_file(&file).unwrap();
        assert_eq!(phase.board.lock().claim(0), Some(0));
        phase.release(0, false, "disconnected holding the lease", false);
        assert!(phase.merged.lock().1.is_empty());
        // Requeued at the front with one attempt spent; worker 1 takes it
        // (and partition 1), commits partition 0, loses the `result`.
        assert_eq!(phase.board.lock().claim(1), Some(0));
        assert_eq!(phase.board.lock().claim(1), Some(1));
        std::fs::write(&file, &committed).unwrap();
        std::fs::write(shared.subgraph_path(1), b"torn").unwrap();
        phase.release(1, false, "disconnected holding the lease", false);
        assert_eq!(phase.merged.lock().1, BTreeSet::from([0]), "the verified file was merged");
        assert!(phase.board.lock().exhausted().is_empty(), "no attempt charged for partition 0");
        assert_eq!(phase.board.lock().done(), &[0]);
        // Partition 1's file does not verify: charged and requeued.
        assert_eq!(phase.board.lock().claim(2), Some(1));

        // A wire worker's lease is never completed from a local file.
        assert_eq!(phase.board.lock().claim(3), Some(2));
        phase.release(3, true, "disconnected holding the lease", false);
        assert_eq!(phase.merged.lock().1, BTreeSet::from([0]));
        assert_eq!(phase.board.lock().claim(3), Some(2), "requeued, attempt charged");
        phase.release(3, true, "disconnected holding the lease", false);
        let exhausted: Vec<usize> =
            phase.board.lock().exhausted().iter().map(|x| x.partition).collect();
        assert_eq!(exhausted, [2]);

        // What was merged is what the in-process build has for that
        // partition.
        let merged = phase.merged.lock();
        assert!(merged.0.distinct_vertices() > 0);
        assert!(merged.0.iter().all(|(kmer, data)| reference.get(&kmer) == Some(data)));
        drop(merged);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// The wire twin: a diskless worker's `result` frame is lost and its
    /// subgraph payload arrives unannounced. The connection holds one
    /// lease, so the payload is that lease's — committed, verified and
    /// merged like an announced one, no attempt charged. A scripted
    /// worker over loopback TCP plays the frames.
    #[test]
    fn a_wire_payload_whose_result_frame_was_lost_completes_the_lease() {
        let (cfg, io, manifest, reference, journal) = built_in_process("parahash-shard-lost-wire-result");
        let cancel = CancelToken::new();
        let shared = Step2Shared::new(&cfg, &cancel, &journal);
        let phase = lease_phase(&shared, &cancel, &manifest, &io);
        let built = std::fs::read(shared.subgraph_path(0)).unwrap();
        std::fs::remove_file(shared.subgraph_path(0)).unwrap();

        let listener = ShardListener::bind_tcp("127.0.0.1:0").unwrap();
        let mut worker = connect_tcp(&listener.addr()).unwrap();
        let conn = listener.accept().unwrap();
        assert!(conn.remote());
        std::thread::scope(|s| {
            s.spawn(|| phase.serve(conn));
            let expect = |worker: &mut Box<dyn Transport>, cap: u32| {
                match worker.recv(cap, Some(Duration::from_secs(10))) {
                    Ok(Recv::Frame(frame)) => frame,
                    other => panic!("expected a frame, got {other:?}"),
                }
            };
            worker.send(&WireMsg::Hello(7, PROTO_VERSION).encode()).unwrap();
            assert!(matches!(WireMsg::decode(&expect(&mut worker, MAX_FRAME)), Ok(WireMsg::Config(_))));
            worker.send(&WireMsg::Claim(7).encode()).unwrap();
            assert!(matches!(WireMsg::decode(&expect(&mut worker, MAX_FRAME)), Ok(WireMsg::Assign(0, _))));
            assert_eq!(expect(&mut worker, MAX_PAYLOAD_FRAME).first(), Some(&BLOB_TAG), "partition 0's payload");
            // `result 0 ok …` is the frame that goes missing.
            worker.send(&encode_blob(&built)).unwrap();
            // The next claim is answered normally: the stream stayed in
            // step, and partition 0 is not what comes back.
            worker.send(&WireMsg::Claim(7).encode()).unwrap();
            assert!(matches!(WireMsg::decode(&expect(&mut worker, MAX_FRAME)), Ok(WireMsg::Assign(1, _))));
            drop(worker);
        });
        assert_eq!(std::fs::read(shared.subgraph_path(0)).unwrap(), built, "committed by the parent");
        assert_eq!(phase.board.lock().done(), &[0]);
        let merged = phase.merged.lock();
        assert_eq!(merged.1, BTreeSet::from([0]));
        assert!(merged.0.iter().all(|(kmer, data)| reference.get(&kmer) == Some(data)));
        drop(merged);
        // Partition 1 went down with the connection: charged, requeued.
        assert_eq!(phase.board.lock().claim(8), Some(1));
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// A wire lease whose `result` arrives with a flipped byte is lost
    /// with its connection but costs no attempt: one more damaged round
    /// than the attempt cap, and partition 0 is still leasable. A scripted
    /// worker on a raw loopback socket damages the frame.
    #[test]
    fn a_frame_that_fails_its_checksum_costs_no_attempt() {
        use pipeline::shard::{recv_frame, write_frame};
        use std::io::Write;

        let (cfg, io, manifest, _, journal) = built_in_process("parahash-shard-damaged-frame");
        let cancel = CancelToken::new();
        let shared = Step2Shared::new(&cfg, &cancel, &journal);
        let phase = lease_phase(&shared, &cancel, &manifest, &io);
        let listener = ShardListener::bind_tcp("127.0.0.1:0").unwrap();
        for _ in 0..=MAX_LEASE_ATTEMPTS {
            let worker = std::net::TcpStream::connect(listener.addr()).unwrap();
            let conn = listener.accept().unwrap();
            std::thread::scope(|s| {
                s.spawn(|| phase.serve(conn));
                let send = |msg: WireMsg, damage: bool| {
                    let mut frame = Vec::new();
                    write_frame(&mut frame, &msg.encode()).unwrap();
                    frame[8] ^= u8::from(damage);
                    (&worker).write_all(&frame).unwrap();
                };
                send(WireMsg::Hello(7, PROTO_VERSION), false);
                send(WireMsg::Claim(7), false);
                let mut reader = &worker;
                let replies = [("config", MAX_FRAME), ("assign", MAX_FRAME), ("payload", MAX_PAYLOAD_FRAME)];
                for (what, cap) in replies {
                    let frame = recv_frame(&mut reader, cap).unwrap();
                    assert!(matches!(frame, Recv::Frame(_)), "{what}: {frame:?}");
                }
                send(WireMsg::Result(0, "ok 0 4096 0 0 0 0 0 0".into()), true);
            });
        }
        let mut board = phase.board.lock();
        assert!(board.exhausted().is_empty(), "{:?}", board.exhausted());
        assert_eq!(board.claim(8), Some(0), "requeued at the front");
        drop(board);
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// A report for a partition the connection does not hold ends the
    /// connection before anything is written or merged: a wire worker
    /// holding partition 0 — claimed under another id than its hello's —
    /// reports an out-of-range partition 99 with a valid payload, then
    /// partition 2, which nobody holds. Neither file appears, nothing is
    /// merged, and partition 0 is requeued from the hello id's release.
    #[test]
    fn a_report_for_a_partition_not_held_ends_the_connection() {
        let (cfg, io, manifest, _, journal) = built_in_process("parahash-shard-unheld-report");
        let cancel = CancelToken::new();
        let shared = Step2Shared::new(&cfg, &cancel, &journal);
        let phase = lease_phase(&shared, &cancel, &manifest, &io);
        let built = std::fs::read(shared.subgraph_path(2)).unwrap();
        std::fs::remove_file(shared.subgraph_path(2)).unwrap();

        let listener = ShardListener::bind_tcp("127.0.0.1:0").unwrap();
        let mut worker = connect_tcp(&listener.addr()).unwrap();
        let conn = listener.accept().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| phase.serve(conn));
            worker.send(&WireMsg::Hello(7, PROTO_VERSION).encode()).unwrap();
            assert!(matches!(WireMsg::decode(&next_frame(worker.as_mut())), Ok(WireMsg::Config(_))));
            worker.send(&WireMsg::Claim(8).encode()).unwrap();
            assert!(matches!(WireMsg::decode(&next_frame(worker.as_mut())), Ok(WireMsg::Assign(0, _))));
            assert_eq!(next_frame(worker.as_mut()).first(), Some(&BLOB_TAG), "partition 0's payload");
            // The parent may hang up at any point from here on.
            let _ = worker.send(&WireMsg::Result(99, "ok 0 0 0 0 0 0 0 0".into()).encode());
            let _ = worker.send(&encode_blob(&built));
            let _ = worker.send(&WireMsg::Result(2, "ok 0 0 0 0 0 0 0 0".into()).encode());
            let _ = worker.send(&encode_blob(&built));
            drop(worker);
        });
        assert!(!shared.subgraph_path(99).exists() && !shared.subgraph_path(2).exists());
        assert!(phase.merged.lock().1.is_empty(), "nothing merged");
        assert!(phase.board.lock().done().is_empty());
        assert_eq!(phase.board.lock().claim(9), Some(0), "requeued from the hello id's release");
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// One worker session, scripted from the parent's side: two leases
    /// whose tables fall in one capacity class, then `finished`. The
    /// session's one builder checks the second lease's table out of the
    /// shelf the first returned it to — one allocation, one reuse — and
    /// each result is the in-process build's subgraph file: shipped back
    /// by a wire worker, committed and journaled by one on this
    /// filesystem.
    #[test]
    fn a_worker_session_builds_its_leases_from_one_pool() {
        let (cfg, _, manifest, _, _) = built_in_process("parahash-shard-session-pool");
        let class = |p: usize| {
            let kmers = manifest.stats()[p].kmers;
            hashgraph::TablePool::capacity_class(hashgraph::table_capacity_for(kmers, cfg.sizing))
        };
        let (a, b) = (0..4)
            .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
            .find(|&(a, b)| class(a) == class(b))
            .expect("two partitions share a capacity class");
        let sub = |p: usize| crate::step2::subgraph_path(cfg.work_dir(), p);
        let files = [a, b].map(|p| std::fs::read(sub(p)).unwrap());
        for p in [a, b] {
            std::fs::remove_file(sub(p)).unwrap();
        }
        let listener = ShardListener::bind_tcp("127.0.0.1:0").unwrap();
        for wire in [true, false] {
            let (config, fingerprint, _) = config_from_blob(&config_blob(&cfg, wire)).unwrap();
            let worker_dir = cfg.work_dir().join("worker-7");
            let local = (!wire).then(|| {
                (manifest.clone(), RunJournal::create(&worker_dir, fingerprint).unwrap())
            });
            let builder = PartitionBuilder::new(&config);
            let mut worker = connect_tcp(&listener.addr()).unwrap();
            let mut parent = listener.accept().unwrap();
            let tuning = ShardTuning::from_env();
            std::thread::scope(|s| {
                let session = s.spawn(|| {
                    serve_leases(worker.as_mut(), 7, &tuning, &config, &builder, local.as_ref())
                });
                for (p, file) in [a, b].into_iter().zip(&files) {
                    assert!(matches!(WireMsg::decode(&next_frame(parent.as_mut())), Ok(WireMsg::Claim(7))));
                    parent.send(&WireMsg::Assign(p, manifest.stats()[p].kmers).encode()).unwrap();
                    if wire {
                        let bytes = std::fs::read(manifest.partition_path(p)).unwrap();
                        parent.send(&encode_blob(&bytes)).unwrap();
                    }
                    let reply = WireMsg::decode(&next_frame(parent.as_mut())).unwrap();
                    assert!(matches!(&reply, WireMsg::Result(q, d) if *q == p && d.starts_with("ok 0 ")), "{reply:?}");
                    if wire {
                        assert_eq!(&decode_blob(next_frame(parent.as_mut())).unwrap(), file, "shipped {p}");
                        assert!(!sub(p).exists(), "a wire worker writes nothing");
                    } else {
                        assert_eq!(&std::fs::read(sub(p)).unwrap(), file, "committed {p}");
                    }
                }
                assert!(matches!(WireMsg::decode(&next_frame(parent.as_mut())), Ok(WireMsg::Claim(7))));
                parent.send(&WireMsg::Finished.encode()).unwrap();
                assert!(matches!(session.join().unwrap(), SessionEnd::Finished));
            });
            let pool = &builder.pool;
            assert_eq!((pool.allocations(), pool.reuses()), (1, 1), "wire: {wire}");
            if !wire {
                let committed = RunJournal::replay(&worker_dir).unwrap().committed;
                assert_eq!(committed, BTreeSet::from([a, b]));
            }
        }
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// Armed for worker 1, the lease failpoint is passed by worker 0's
    /// assignments without a hit and holds worker 1's first one for twice
    /// the idle deadline.
    #[test]
    fn the_lease_failpoint_is_scoped_to_its_worker() {
        let tuning = ShardTuning {
            heartbeat: Duration::from_millis(1),
            idle_timeout: Duration::from_millis(20),
            request_timeout: Duration::from_secs(1),
        };
        let site = "shard.worker1.lease";
        failpoint::arm(site, failpoint::FailAction::ReturnError, 1);
        lease_failpoint(0, &tuning);
        assert_eq!(failpoint::hits(site), 0, "worker 0 passes another site");
        let started = Instant::now();
        lease_failpoint(1, &tuning);
        assert!(started.elapsed() >= Duration::from_millis(40), "the lease was held");
        assert_eq!(failpoint::hits(site), 1);
        failpoint::disarm(site);
    }

    /// A spawned worker whose parent's socket is gone exits cleanly at
    /// once; a remote worker pointed at a refused port backs off, then
    /// fails naming the address.
    #[test]
    fn only_a_remote_worker_treats_an_unreachable_parent_as_an_error() {
        let gone = Endpoint::Unix(std::env::temp_dir().join("parahash-shard-no-such.sock"));
        let started = Instant::now();
        run_worker_loop(&gone, 0, true).expect("a vanished parent ends a spawned worker");
        assert!(started.elapsed() < RECONNECT.delay(1, 0), "no backoff before exiting");

        let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
        let refused = format!("127.0.0.1:{port}");
        let err = run_remote_worker(&refused, 0).unwrap_err().to_string();
        assert!(err.contains("cannot reach shard parent") && err.contains(&refused), "{err}");
    }

    #[test]
    fn tuning_defaults_are_sane() {
        // No env overrides in a unit-test process (the integration
        // suites set them per-child).
        let t = ShardTuning::from_env();
        assert!(t.idle_timeout >= t.heartbeat.saturating_mul(2), "deadline outlives a pulse");
        const { assert!(RECONNECT.attempts >= 1) };
        assert!(!RECONNECT.delay(1, 0).is_zero(), "reconnects are paced");
    }
}
