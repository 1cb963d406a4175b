//! Multi-process and multi-node Step-2 sharding: the parent/worker
//! drivers behind [`workers(N)`](crate::ParaHashConfigBuilder::workers)
//! and [`listen(addr)`](crate::ParaHashConfigBuilder::listen).
//!
//! A sharded Step 2 is the in-process Step 2 whose roster gains one device
//! per worker connection. The parent runs Step 1 as usual and seals every
//! partition onto Step 2's feed, largest first; then it binds a TCP
//! listener — a free loopback port, or the [`listen`] address when remote
//! workers may join — and spawns `N` copies of its own executable
//! (the `tests/crash_recovery.rs` self-exec pattern) before its pipeline
//! starts. **A connection is a device**: its driver joins the pipeline's
//! roster ([`pipeline::Roster`]) with parallelism 1, beside the parent's
//! cores, and pops the same work queue — the paper's rule that every idle
//! processor claims the next partition (Fig 11). Per claim it journals a
//! `worker-lease`, sends the assignment over the [`pipeline::shard`] wire
//! protocol, awaits the `result` under the heartbeat deadline, and reads
//! the committed subgraph back from `subgraphs/`, checked **once**. What
//! passes settles through the engine's own [`Step2Shared::settle`] like a
//! partition built in process: journaled, counted and handed to the graph
//! as the checked bytes. A worker keeps one [`PartitionBuilder`] — one
//! table pool — for its whole session and builds every lease with it.
//!
//! Admission: the parent draws a token per run and hands it to its
//! children through their environment, never argv; `hello` carries it.
//! Without `listen` only a hello with that token is configured, so a
//! stranger on the loopback port is denied before it learns anything.
//! With `listen`, a tokenless joiner is admitted; a wrong token never is.
//!
//! The config decides how partition bytes move. Without `listen`, every
//! worker is a child on the parent's filesystem (`transfer fs`): it reads
//! the partition files, commits `sub-<i>.dbg` itself and journals into
//! its own `worker-<id>/run.journal`; the committed file is the result
//! channel. Under `listen`, every worker is diskless (`transfer wire`),
//! since a joiner may be on another machine: partition payloads
//! arrive over the wire in the same CRC-framed format the partition store
//! uses on disk, the worker builds from the received bytes and streams
//! the formatted subgraph back, and the parent commits those bytes
//! locally. Either way the parent trusts no subgraph it has not re-read
//! from its own disk and checked end to end, and byte-identity with the
//! in-process build holds by construction — every path funnels through
//! the canonical-order [`crate::encode_subgraph`].
//!
//! Failure handling: a lease that does not come back verified is built
//! by the parent, on that connection's driver thread, through the
//! engine's own builder and failure router — whether the worker died
//! (its connection drops), hung (no heartbeat within the deadline), garbled
//! the link or reported `failed`. A partition that fails there fails as
//! in process: the run aborts (strict) or sets it aside (non-strict). A
//! lease whose `result` frame alone was lost is no failed build: an fs
//! worker's committed file that verifies counts as built, and a wire
//! worker's payload that arrives unannounced is the one lease its
//! connection holds. Workers reconnect with bounded exponential backoff
//! and deterministically jittered pacing; a reconnecting fs worker's
//! journal is *reopened*, not truncated, so its committed records survive
//! for cluster-wide resume. A parent-side journal failure is fatal in
//! both modes.
//!
//! Worker processes are CPU-only and run with unthrottled I/O: the
//! sharded path exists for real multi-process throughput (separate
//! address spaces, separate page caches, overlapped fsyncs), not for
//! the simulated-device regimes, which remain in-process features.
//!
//! [`listen`]: crate::ParaHashConfigBuilder::listen

use std::collections::BTreeSet;
use std::io::{ErrorKind, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hashgraph::ContentionStats;
use hetsim::{CpuDevice, Device};
use msp::{PartitionManifest, SealedPayload};
use pipeline::shard::{
    decode_blob, encode_blob, Connection, FrameSender, Recv, ShardListener, WireMsg, BLOB_TAG,
    MAX_FRAME, MAX_PAYLOAD_FRAME, PROTO_VERSION,
};
use pipeline::{failpoint, IoMode, RetryPolicy, Seat, ThrottledIo};

use crate::journal::{Fingerprint, JournalEvent, RunJournal};
use crate::step2::{
    persist, read_committed, Built, Failure, Input, PartitionBuilder, Step2Roster, Step2Shared,
};
use crate::{ParaHashConfig, ParaHashError, Result};

/// Environment variable carrying `<token>@<host:port>` — the run's
/// token and the parent's listener — into spawned workers. The token
/// travels here and not in argv, which any local user can read. Remote
/// workers pass the address explicitly (`dbg worker --connect`).
pub(crate) const ENV_CONNECT: &str = "PARAHASH_SHARD_CONNECT";
/// Environment variable carrying the worker's parent-assigned id.
pub(crate) const ENV_WORKER: &str = "PARAHASH_SHARD_WORKER";

/// Worker reconnect pacing: five consecutive unproductive sessions end
/// the worker; between them it sleeps 100 ms doubling to a 2 s cap,
/// jittered deterministically by worker id so a restarted cluster
/// doesn't stampede.
const RECONNECT: RetryPolicy = RetryPolicy {
    attempts: 5,
    backoff: Duration::from_millis(100),
    max_backoff: Duration::from_secs(2),
};

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
/// `fs` (shared filesystem — spawned children of a parent without
/// `listen`) or `wire` (shipped in frames — every worker under `listen`,
/// which must not assume the parent's paths exist).
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
/// over the wire (`transfer wire`). Every error names the key it rejects.
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
    let bad = |key: &str, why: String| shard_err(format!("config blob key `{key}`: {why}"));
    for line in blob.lines() {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| shard_err(format!("config blob key `{line}` has no value")))?;
        let int = |what: &str| -> Result<u64> {
            value.parse().map_err(|e| bad(what, format!("bad value `{value}`: {e}")))
        };
        // A sizing parameter: its bits, and a positive finite value.
        let bits = |what: &str| -> Result<f64> {
            let x = u64::from_str_radix(value, 16)
                .map(f64::from_bits)
                .map_err(|e| bad(what, format!("bad value `{value}`: {e}")))?;
            (x.is_finite() && x > 0.0)
                .then_some(x)
                .ok_or_else(|| bad(what, format!("{x} is not a positive finite number")))
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
                        .map_err(|e| bad("digest", format!("bad value `{value}`: {e}")))?,
                )
            }
            "run-token" => token = Some(if value == "-" { String::new() } else { value.into() }),
            "transfer" => {
                wire = Some(match value {
                    "wire" => true,
                    "fs" => false,
                    other => return Err(bad("transfer", format!("unknown value `{other}`"))),
                })
            }
            "work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(bad(other, "unknown key".to_string())),
        }
    }
    let missing = |what: &str| bad(what, "missing".to_string());
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
        .build()
        .map_err(|e| shard_err(format!("config blob keys `k`, `p`, `partitions`: {e}")))?;
    config.run_token = token.ok_or_else(|| missing("run-token"))?;
    let fingerprint =
        Fingerprint { k, p, partitions, input_digest: digest.ok_or_else(|| missing("digest"))? };
    config.input_digest = fingerprint.input_digest;
    Ok((config, fingerprint, wire.ok_or_else(|| missing("transfer"))?))
}

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

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
    let (Ok(worker), Ok(connect)) = (std::env::var(ENV_WORKER), std::env::var(ENV_CONNECT)) else {
        return Ok(false);
    };
    let worker: usize = worker
        .parse()
        .map_err(|e| shard_err(format!("{ENV_WORKER}=`{worker}` is not a worker id: {e}")))?;
    let (token, addr) = match connect.split_once('@') {
        Some((token, addr)) => (Some(token.to_string()), addr),
        None => (None, connect.as_str()),
    };
    run_worker_loop(addr, token, worker, true)?;
    Ok(true)
}

/// Joins a (possibly remote) parent's shard cluster over TCP and serves
/// leases until the parent says `finished`. This is the library half of
/// `dbg worker --connect <addr>`: run it on any machine that can reach
/// the parent's [`listen`](crate::ParaHashConfigBuilder::listen)
/// address; partition payloads and subgraph results travel over the
/// wire, so no shared filesystem is needed — the worker writes nothing
/// to its own disk. It sends no token, so only a parent with
/// `listen` admits it.
///
/// # Errors
///
/// An unreachable parent (after the bounded reconnect budget), a
/// version-skew or admission denial, or a protocol/configuration
/// failure. Individual partition build failures are reported to the
/// parent, not returned.
pub fn run_remote_worker(addr: &str, worker: usize) -> Result<()> {
    run_worker_loop(addr, None, worker, false)
}

/// Passes `shard.worker<worker>.lease`, the failpoint each assignment
/// hits once before its build starts (see
/// [`pipeline::failpoint::NET_SITES`]). Armed `abort`, the worker dies
/// here as a crashed one would: no unwind, no cleanup, the lease left
/// dangling. Armed `io-error`, it holds the lease in silence — no
/// heartbeats run yet — for eight times the parent's idle deadline, so
/// the parent evicts it as hung, and kills it once the build is over.
fn lease_failpoint(worker: usize, tuning: &ShardTuning) {
    if failpoint::hit(&format!("shard.worker{worker}.lease")).is_err() {
        std::thread::sleep(tuning.idle_timeout.saturating_mul(8));
    }
}

/// Worker state that must survive reconnects.
struct WorkerSession {
    worker: usize,
    /// The token this worker was spawned with, sent in every `hello`.
    token: Option<String>,
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
/// a refused connection means the parent stopped listening — its Step 2
/// is over, and the worker exits cleanly at once. A remote worker
/// (`dbg worker --connect`) backs off instead: its address may be a
/// typo, or a parent that is not up yet.
fn run_worker_loop(addr: &str, token: Option<String>, worker: usize, spawned: bool) -> Result<()> {
    let tuning = ShardTuning::from_env();
    let mut sess = WorkerSession { worker, token, served_any: false, progressed: false };
    let mut failures: u32 = 0;
    loop {
        let end = match Connection::connect(addr) {
            Ok(conn) => serve_session(conn, &mut sess, &tuning)?,
            Err(e) if spawned && e.kind() == ErrorKind::ConnectionRefused => return Ok(()),
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
                // served; it built whatever lease we lost. Exit cleanly
                // — a drained cluster is not a worker bug.
                return Ok(());
            }
            return Err(shard_err(format!(
                "cannot reach shard parent at {addr}: {why} (after {failures} attempt(s))"
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
    fn start(mut sender: FrameSender, worker: usize, period: Duration) -> HeartbeatTicker {
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
    conn: &mut Connection,
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
    mut conn: Connection,
    sess: &mut WorkerSession,
    tuning: &ShardTuning,
) -> Result<SessionEnd> {
    sess.progressed = false;
    let hello = WireMsg::Hello(sess.worker, PROTO_VERSION, sess.token.clone());
    if let Err(e) = conn.send(&hello.encode()) {
        return Ok(SessionEnd::Lost(format!("sending hello: {e}")));
    }
    let frame = match recv_or_lost(&mut conn, MAX_FRAME, tuning, "`config`") {
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
    Ok(serve_leases(&mut conn, sess.worker, tuning, &config, &builder, local.as_ref()))
}

/// A configured session's claim-build-report loop, until `finished` or
/// the connection dies. Every lease is built by `builder`. With `local`
/// (a worker on the parent's filesystem) a lease is the partition file
/// to read back, and its subgraph is committed and journaled here by the
/// engine's own [`persist`] — the committed file is the result channel;
/// without, the parent ships the partition's bytes and gets the formatted
/// subgraph back, and nothing is written anywhere.
fn serve_leases(
    conn: &mut Connection,
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
            // fresh session; the parent builds whatever it leased us.
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

/// Runs `run` — Step 2's pipeline on `roster` — with worker processes
/// beside the roster's devices: binds a TCP listener (the
/// [`listen`](crate::ParaHashConfigBuilder::listen) address, or a free
/// loopback port), draws the run's token, spawns
/// [`workers`](crate::ParaHashConfigBuilder::workers) copies of this
/// executable with the token and the address in their environment, and
/// lets every admitted connection — a child or a remote `dbg worker`
/// joiner — join `roster` as a device of parallelism 1
/// ([`Cluster::serve`]). The pipeline starts once every child has claimed
/// its first partition or exited, for at most the request deadline, so
/// `workers(N)` means N workers that build; remote joiners never hold it
/// up. Afterwards the listener closes and every child is reaped, so no
/// worker still writes under the work directory when the step ends.
///
/// # Errors
///
/// Listener, token and spawn failures.
pub(crate) fn with_workers<R>(
    config: &ParaHashConfig,
    shared: &Step2Shared<'_>,
    roster: &Step2Roster<'_>,
    run: impl FnOnce() -> R,
) -> Result<R> {
    let bind = config.listen.as_deref().unwrap_or("127.0.0.1:0");
    let listener = ShardListener::bind(bind)
        .map_err(|e| shard_err(format!("binding worker listener {bind}: {e}")))?;
    let token = secret_token().map_err(|e| shard_err(format!("drawing the shard token: {e}")))?;
    let connect = format!("{token}@{}", listener.addr());
    let exe = std::env::current_exe().map_err(ParaHashError::Io)?;
    let mut children = Vec::with_capacity(config.workers);
    for w in 0..config.workers {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&config.worker_args).env(ENV_WORKER, w.to_string()).env(ENV_CONNECT, &connect);
        let child = cmd.spawn().map_err(|e| shard_err(format!("spawning worker {w}: {e}")))?;
        children.push(child);
    }

    let cluster = &Cluster::new(config, token, shared, roster);
    let shutdown = AtomicBool::new(false);
    let ran = std::thread::scope(|s| {
        let accept = s.spawn(|| {
            let mut handlers = Vec::new();
            while let Ok(conn) = listener.accept() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                handlers.push(s.spawn(move || cluster.serve(conn)));
            }
            for handler in handlers {
                let _ = handler.join();
            }
        });
        // Stops the accept loop however `run` ends, a panic included.
        let stop = StopAccepting { listener: &listener, shutdown: &shutdown };
        cluster.await_children(&mut children);
        let ran = run();
        drop(stop);
        let _ = accept.join();
        ran
    });
    // A worker that reconnects now is refused and exits.
    drop(listener);
    reap(&mut children, cluster.tuning.idle_timeout);
    Ok(ran)
}

/// The run's secret token: 16 bytes of `/dev/urandom`, as hex. Only the
/// parent and the children it spawns know it.
fn secret_token() -> std::io::Result<String> {
    let mut bytes = [0u8; 16];
    std::fs::File::open("/dev/urandom")?.read_exact(&mut bytes)?;
    Ok(bytes.iter().map(|b| format!("{b:02x}")).collect())
}

/// Whether `given` is the run's `token`, in time that does not depend on
/// where the two first differ.
fn token_matches(given: &str, token: &str) -> bool {
    let differ = given.bytes().zip(token.bytes()).fold(0, |d, (a, b)| d | (a ^ b));
    given.len() == token.len() && differ == 0
}

/// Reaps the spawned workers once Step 2 is over. A worker that is done
/// exits at once (its reconnect is refused); one still running when
/// `grace` — the heartbeat deadline — has passed is as hung as the
/// deadline says, and is killed rather than left holding the build.
fn reap(children: &mut [std::process::Child], grace: Duration) {
    let deadline = Instant::now() + grace;
    for child in children {
        while matches!(child.try_wait(), Ok(None)) {
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Ends the accept loop when dropped: flags the shutdown, then wakes the
/// loop's blocked `accept`.
struct StopAccepting<'l> {
    listener: &'l ShardListener,
    shutdown: &'l AtomicBool,
}

impl Drop for StopAccepting<'_> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.listener.unblock();
    }
}

/// What a sharded Step 2's connection drivers share.
struct Cluster<'s, 'a> {
    /// The step's engine state: builder, failure policy, journal, counts.
    shared: &'s Step2Shared<'a>,
    roster: &'s Step2Roster<'a>,
    tuning: ShardTuning,
    /// Whether the run listens for joiners: every worker then gets
    /// `transfer wire`, and a tokenless hello is admitted.
    wire: bool,
    /// What every admitted connection is configured with: [`config_blob`].
    blob: String,
    /// The run's secret token ([`secret_token`]).
    token: String,
    /// Hello ids whose connection has joined the roster and claimed: what
    /// Step 2's start waits for ([`await_children`](Self::await_children)).
    claimed: Mutex<BTreeSet<usize>>,
    claimed_cv: Condvar,
}

impl<'s, 'a> Cluster<'s, 'a> {
    fn new(
        config: &ParaHashConfig,
        token: String,
        shared: &'s Step2Shared<'a>,
        roster: &'s Step2Roster<'a>,
    ) -> Self {
        let wire = config.listen.is_some();
        Cluster {
            shared,
            roster,
            tuning: ShardTuning::from_env(),
            wire,
            blob: config_blob(config, wire),
            token,
            claimed: Mutex::new(BTreeSet::new()),
            claimed_cv: Condvar::new(),
        }
    }

    /// Holds Step 2's start until each spawned child has claimed — its
    /// connection then queues ahead of the devices, which have not
    /// started — or exited, for at most the request deadline.
    fn await_children(&self, children: &mut [std::process::Child]) {
        let deadline = Instant::now() + self.tuning.request_timeout;
        let mut claimed = self.claimed.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let pending = children
                .iter_mut()
                .enumerate()
                .any(|(w, child)| !claimed.contains(&w) && matches!(child.try_wait(), Ok(None)));
            if !pending || Instant::now() >= deadline {
                return;
            }
            // A child's exit wakes nobody; look again shortly.
            let wait = self.claimed_cv.wait_timeout(claimed, Duration::from_millis(5));
            claimed = wait.unwrap_or_else(|e| e.into_inner()).0;
        }
    }

    /// One connection's driver: handshake (version and token checks, see
    /// [`admission`](Self::admission)) and configure the worker; at its
    /// first claim, join the roster as a
    /// device of parallelism 1, then lease it the partition each of its
    /// claims pops from the one work queue. A lease that does not come
    /// back verified is built right here by the engine
    /// ([`collect`](Self::collect)); a connection that closes, stalls past
    /// the heartbeat deadline or turns to garbage ends with its lease.
    fn serve(&self, mut conn: Connection) {
        // Handshake. Nothing is leased yet, so every failure mode here —
        // the shutdown dummy connection, a garbled or dropped hello, a
        // denied worker — just ends the connection.
        let Ok(Recv::Frame(frame)) = conn.recv(MAX_FRAME, Some(self.tuning.request_timeout)) else {
            return;
        };
        let Ok(WireMsg::Hello(worker, version, token)) = WireMsg::decode(&frame) else { return };
        if let Err(why) = self.admission(version, token.as_deref()) {
            let _ = conn.send(&WireMsg::Deny(why).encode());
            return;
        }
        if conn.send(&WireMsg::Config(self.blob.clone()).encode()).is_err() {
            return;
        }
        let name = format!("worker{worker}");
        // Where this process builds a lease the worker loses.
        let device = CpuDevice::new(name.as_str());
        let mut seat = None;
        while self.claimed_next(&mut conn) {
            if seat.is_none() {
                seat = self.roster.join(name.as_str());
                self.claimed.lock().unwrap_or_else(|e| e.into_inner()).insert(worker);
                self.claimed_cv.notify_all();
            }
            let Some((seat, (p, input))) = seat.as_mut().and_then(|s| next_input(s).map(|i| (s, i)))
            else {
                let _ = conn.send(&WireMsg::Finished.encode());
                return;
            };
            // Journaled *before* the assignment goes out: after a parent
            // crash, replay shows exactly which partitions were in flight.
            if !self.shared.journaled(p, JournalEvent::WorkerLease(worker, p)) {
                return seat.deliver(p, None, 0);
            }
            let (detail, in_step) = self.lease(&mut conn, p, &input.0, input.1);
            let (built, units) = self.collect(&device, p, detail, input);
            seat.deliver(p, built, units);
            if !in_step {
                return;
            }
        }
    }

    /// Whether a hello of protocol `version` carrying `token` is admitted;
    /// if not, the `deny` text. A worker of another version is denied
    /// first, whatever it sent. Without `listen` only the run's own
    /// children, which know its token, are admitted; under `listen` a
    /// tokenless joiner is too, but a wrong token is not.
    fn admission(&self, version: u32, token: Option<&str>) -> std::result::Result<(), String> {
        if version != PROTO_VERSION {
            return Err(format!(
                "protocol version {version} does not match the parent's {PROTO_VERSION}; \
                 update the worker binary to the parent's build and reconnect"
            ));
        }
        match token {
            Some(token) if token_matches(token, &self.token) => Ok(()),
            Some(_) => Err("wrong token; only the parent's own workers carry one".into()),
            None if self.wire => Ok(()),
            None => Err("no token; this parent admits only the workers it spawned \
                         (a parent started with `listen` admits joiners)"
                .into()),
        }
    }

    /// Waits, up to the heartbeat deadline, for the worker's next
    /// `claim`, whatever id it names: the connection's hello id is the
    /// one its leases are journaled under.
    fn claimed_next(&self, conn: &mut Connection) -> bool {
        loop {
            let Ok(Recv::Frame(frame)) = conn.recv(MAX_FRAME, Some(self.tuning.idle_timeout)) else {
                return false;
            };
            match WireMsg::decode(&frame) {
                Ok(WireMsg::Claim(_)) => return true,
                Ok(WireMsg::Heartbeat(_)) => {}
                _ => return false,
            }
        }
    }

    /// Leases partition `p` — its `bytes`, of `kmers` k-mers — over
    /// `conn`: the assignment (and, to a wire worker, the payload), then
    /// the reply, each heartbeat resetting the deadline. A wire worker's
    /// subgraph is committed here as it arrives — also one whose `result`
    /// frame was lost: the connection holds this one lease. Returns the
    /// `result` detail (empty when only the payload came) and whether the
    /// connection is still in step — not after EOF, a lapsed deadline, a
    /// damaged or undecodable frame, or a report about another partition.
    fn lease(
        &self,
        conn: &mut Connection,
        p: usize,
        bytes: &[u8],
        kmers: u64,
    ) -> (Option<String>, bool) {
        // No file may pass for this lease's but the one it produces.
        let _ = std::fs::remove_file(self.shared.subgraph_path(p));
        let assigned = conn.send(&WireMsg::Assign(p, kmers).encode());
        if assigned.is_err() || (self.wire && conn.send(&encode_blob(bytes)).is_err()) {
            return (None, false);
        }
        let cap = if self.wire { MAX_PAYLOAD_FRAME } else { MAX_FRAME };
        let mut detail = None;
        loop {
            if self.shared.cancelled() {
                return (None, false);
            }
            let Ok(Recv::Frame(frame)) = conn.recv(cap, Some(self.tuning.idle_timeout)) else {
                return (None, false);
            };
            if frame.first() == Some(&BLOB_TAG) {
                if !self.wire {
                    return (None, false);
                }
                self.commit_shipped(p, frame);
                return (Some(detail.unwrap_or_default()), true);
            }
            match WireMsg::decode(&frame) {
                Ok(WireMsg::Heartbeat(_)) => {}
                Ok(WireMsg::Result(q, reported)) if q == p && detail.is_none() => {
                    if !self.wire {
                        return (Some(reported), true);
                    }
                    // The subgraph payload follows.
                    detail = Some(reported);
                }
                Ok(WireMsg::Failed(q, _)) if q == p && detail.is_none() => return (None, true),
                _ => return (None, false),
            }
        }
    }

    /// A wire worker's subgraph for `p`, committed as shipped to this
    /// process's `subgraphs/`; bytes that fail to commit fail to verify.
    fn commit_shipped(&self, p: usize, payload: Vec<u8>) {
        if let Ok(bytes) = decode_blob(payload) {
            let _ = pipeline::commit::commit_bytes(&self.shared.subgraph_path(p), &bytes);
        }
    }

    /// What lease `p` came to. Trust nothing: `sub-<p>.dbg` is read from
    /// this process's `subgraphs/` and checked once — header, length, CRC
    /// trailer ([`read_committed`]) — and the file that passed, through the
    /// handle it was read by, is what the graph maps,
    /// with the accounting the worker's `result` detail carries
    /// ([`parse_outcome`]; none when that frame was lost). When no file
    /// verifies — the worker died, hung, garbled the link or failed the
    /// build — this process builds the partition from `input` on `device`,
    /// through the engine's builder and failure router.
    fn collect(
        &self,
        device: &dyn Device,
        p: usize,
        detail: Option<String>,
        input: (Vec<u8>, u64),
    ) -> (Option<Built>, u64) {
        let mut image = Vec::new();
        let Ok(file) = read_committed(&self.shared.subgraph_path(p), p, &mut image) else {
            return self.shared.build(device, p, Some(input));
        };
        let mut built = detail.as_deref().and_then(parse_outcome).unwrap_or_default();
        // The checked header leads with the vertex count.
        built.vertices = u64::from_le_bytes(image[..8].try_into().expect("a checked header"));
        built.image = image;
        built.partition_bytes = input.0.len() as u64;
        built.on_disk = Some(file);
        let units = built.vertices;
        (Some(built), units)
    }
}

/// The next partition `seat` claims that has bytes to build, delivering
/// the settled ones (resumed, or a read already routed) on the way.
fn next_input(seat: &mut Seat<'_, '_, Input, Option<Built>>) -> Option<(usize, (Vec<u8>, u64))> {
    loop {
        match seat.claim()? {
            (p, Some(input)) => return Some((p, input)),
            (p, None) => seat.deliver(p, None, 0),
        }
    }
}

/// A worker's `result` detail for what it built: `ok <resizes> <peak
/// table bytes> <peak table slots> <fanout> <insertions> <updates> <probe
/// steps> <tag rejects> <replayed k-mers>`. A worker is one core, whose
/// tables take no CAS and wait on no lock, so those two counters are 0
/// and not sent.
fn outcome_detail(built: &Built) -> String {
    let c = &built.contention;
    format!(
        "ok {} {} {} {} {} {} {} {} {}",
        built.resizes,
        built.peak_table_bytes,
        built.peak_table_slots,
        built.fanout,
        c.insertions,
        c.updates,
        c.probe_steps,
        c.tag_rejects,
        built.replayed_kmers
    )
}

/// Parses [`outcome_detail`] back into the accounting of a [`Built`]
/// (image and partition bytes left empty); `None` unless all nine
/// counts are there.
fn parse_outcome(detail: &str) -> Option<Built> {
    let mut fields = detail.strip_prefix("ok ")?.split_whitespace().map(str::parse::<u64>);
    let mut next = || fields.next()?.ok();
    let (resizes, peak_table_bytes) = (next()? as usize, next()?);
    let (peak_table_slots, fanout) = (next()?, next()? as usize);
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
        peak_table_slots,
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Hostile config blobs: one line's value replaced by random
        /// text, cut short, or with one byte changed; one line dropped or
        /// repeated; or random text as the whole blob. `config_from_blob`
        /// never panics, and when it rejects a damaged line the error
        /// names that line's key.
        #[test]
        fn hostile_config_blobs_fail_naming_the_key(
            line in 0usize..64,
            damage in 0u8..5,
            seed in 0u64..u64::MAX,
            noise in proptest::prop::collection::vec(0u8..=255, 0..80),
        ) {
            let blob = config_blob(&config("parahash-shard-blob-fuzz"), seed & 1 == 1);
            let lines: Vec<&str> = blob.lines().collect();
            let at = line % lines.len();
            let (key, value) = lines[at].split_once(' ').unwrap();
            let text: String = String::from_utf8_lossy(&noise).replace(['\n', '\r'], "");
            let cut = value.char_indices().map(|(i, _)| i).nth(seed as usize % (value.len() + 1));
            let damaged = match damage {
                0 => Some(format!("{key} {text}")),
                1 => Some(format!("{key} {}", &value[..cut.unwrap_or(value.len())])),
                2 => {
                    let mut bytes = value.as_bytes().to_vec();
                    if let Some(b) = bytes.get_mut(seed as usize % (value.len().max(1))) {
                        *b = b"0fz- .9"[(seed >> 8) as usize % 7];
                    }
                    Some(format!("{key} {}", String::from_utf8_lossy(&bytes)))
                }
                3 => None,
                _ => Some(format!("{}\n{key} {value}", lines[at])),
            };
            let mut hostile: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            match damaged {
                Some(l) => hostile[at] = l,
                None => {
                    hostile.remove(at);
                }
            }
            if let Err(e) = config_from_blob(&hostile.join("\n")) {
                let e = e.to_string();
                proptest::prop_assert!(e.contains(&format!("`{key}`")), "{}: {}", lines[at], e);
            }
            let _ = config_from_blob(&String::from_utf8_lossy(&noise));
        }
    }

    /// Four partitions built in process under `dir` — which leaves the
    /// committed `sub-<p>.dbg` files a local worker would — the graph
    /// they add up to, and a fresh journal for the step under test.
    fn built_in_process(dir: &str) -> (ParaHashConfig, PartitionManifest, RunJournal) {
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
        let reads: Vec<dna::SeqRead> = [
            "ACGTTGCATGGACCAGTTACGGATCAGGCATTAGCCAGT",
            "TGATGGATGATGGATGGTAGCATACGTTGCATGGACCAG",
            "GGCATTAGCCAGTACGGATCACCGTATGCAATTGACCGA",
        ]
        .iter()
        .map(|s| dna::SeqRead::from_ascii("r", s.as_bytes()))
        .collect();
        crate::ParaHash::new(cfg.clone()).unwrap().run(&reads).unwrap();
        let manifest = PartitionManifest::load(cfg.work_dir().join("superkmers")).unwrap();
        let fingerprint = Fingerprint { k: 9, p: 5, partitions: 4, input_digest: 0 };
        let journal = RunJournal::create(cfg.work_dir(), fingerprint).unwrap();
        (cfg, manifest, journal)
    }

    /// The next frame a scripted peer receives, heartbeats skipped.
    fn next_frame(conn: &mut Connection) -> Vec<u8> {
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
            peak_table_slots: 512,
            fanout: 2,
            ..Built::default()
        };
        let back = parse_outcome(&outcome_detail(&built)).expect("own detail parses");
        assert_eq!(back.contention, contention);
        assert_eq!(
            (
                back.replayed_kmers,
                back.resizes,
                back.peak_table_bytes,
                back.peak_table_slots,
                back.fanout
            ),
            (12, 1, 4096, 512, 2)
        );
        assert!(parse_outcome("ok 0 4096 0").is_none());
    }

    /// The token of every test cluster.
    const TOKEN: &str = "00ff3c9a5e71d2b8406f1e2d3c4b5a69";

    /// `cfg` listening for joiners: its workers get `transfer wire`.
    fn listening(cfg: &ParaHashConfig) -> ParaHashConfig {
        ParaHashConfig { listen: Some("127.0.0.1:0".into()), ..cfg.clone() }
    }

    /// A cluster over the step of `cfg`, for driving one connection's
    /// handshake or lease without a pipeline.
    fn with_cluster<R>(
        cfg: &ParaHashConfig,
        journal: &RunJournal,
        body: impl FnOnce(&Cluster<'_, '_>) -> R,
    ) -> R {
        let cancel = pipeline::CancelToken::new();
        let shared = Step2Shared::new(cfg, &cancel, journal);
        let roster = Step2Roster::new(cfg.devices(), &cancel, cfg.partitions());
        body(&Cluster::new(cfg, TOKEN.to_string(), &shared, &roster))
    }

    /// A scripted worker's handshake with `cluster`: it sends `hello` and
    /// returns the parent's reply, then hangs up.
    fn handshake(cluster: &Cluster<'_, '_>, hello: WireMsg) -> WireMsg {
        let listener = ShardListener::bind("127.0.0.1:0").unwrap();
        let mut worker = Connection::connect(&listener.addr()).unwrap();
        let conn = listener.accept().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| cluster.serve(conn));
            worker.send(&hello.encode()).unwrap();
            let reply = WireMsg::decode(&next_frame(&mut worker)).unwrap();
            drop(worker);
            reply
        })
    }

    /// Without `listen`, only a hello with the run's token is configured
    /// (as `transfer fs`); a tokenless or wrong-token one is denied, and
    /// a worker of another version is denied whatever it carries. Under
    /// `listen` a tokenless joiner is configured as `transfer wire`, and
    /// a wrong token is still denied.
    #[test]
    fn a_hello_is_admitted_by_its_token_or_by_listen() {
        let (cfg, _, journal) = built_in_process("parahash-shard-admission");
        let hello = |token: Option<&str>| WireMsg::Hello(3, PROTO_VERSION, token.map(String::from));
        let transfer = |reply: WireMsg| match reply {
            WireMsg::Config(blob) => {
                blob.lines().find_map(|l| l.strip_prefix("transfer ")).unwrap().to_string()
            }
            WireMsg::Deny(why) => format!("deny: {why}"),
            other => panic!("{other:?}"),
        };
        with_cluster(&cfg, &journal, |cluster| {
            assert_eq!(transfer(handshake(cluster, hello(Some(TOKEN)))), "fs");
            let tokenless = transfer(handshake(cluster, hello(None)));
            assert!(tokenless.starts_with("deny: no token"), "{tokenless}");
            let wrong = transfer(handshake(cluster, hello(Some("feed"))));
            assert!(wrong.starts_with("deny: wrong token"), "{wrong}");
            let old = transfer(handshake(cluster, WireMsg::Hello(3, 6, Some(TOKEN.into()))));
            assert!(old.starts_with("deny: protocol version 6"), "{old}");
        });
        with_cluster(&listening(&cfg), &journal, |cluster| {
            assert_eq!(transfer(handshake(cluster, hello(None))), "wire");
            assert_eq!(transfer(handshake(cluster, hello(Some(TOKEN)))), "wire");
            let wrong = transfer(handshake(cluster, hello(Some(&TOKEN[1..]))));
            assert!(wrong.starts_with("deny: wrong token"), "{wrong}");
        });
        assert!(RunJournal::replay(cfg.work_dir()).unwrap().leases.is_empty(), "nobody was leased");
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    #[test]
    fn secret_tokens_are_fresh_hex() {
        let (a, b) = (secret_token().unwrap(), secret_token().unwrap());
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()), "{a}");
        assert_ne!(a, b, "a token per run");
        assert!(token_matches(&a, &a.clone()));
        assert!(!token_matches(&a, &b) && !token_matches(&a, &a[1..]) && !token_matches("", &a));
    }

    /// Partition `p` as Step 2's input stage hands it over.
    fn input(manifest: &PartitionManifest, p: usize) -> (Vec<u8>, u64) {
        (std::fs::read(manifest.partition_path(p)).unwrap(), manifest.stats()[p].kmers)
    }

    /// A lease counts as the worker's exactly when its file verifies:
    /// one whose `result` frame was lost but whose committed file checks
    /// clean is taken from disk — no accounting, no rebuild — while a
    /// missing or torn file is built here, by the engine, into the bytes
    /// the worker would have committed.
    #[test]
    fn a_lease_is_the_workers_exactly_when_its_file_verifies() {
        let (cfg, manifest, journal) = built_in_process("parahash-shard-collect");
        let files: Vec<Vec<u8>> =
            (0..3).map(|p| std::fs::read(crate::step2::subgraph_path(cfg.work_dir(), p)).unwrap()).collect();
        with_cluster(&cfg, &journal, |cluster| {
            let device = CpuDevice::new("worker7");
            let path = |p| cluster.shared.subgraph_path(p);
            // Committed, then the `result` frame went missing.
            let (built, units) = cluster.collect(&device, 0, None, input(&manifest, 0));
            let built = built.expect("the committed file is the lease's");
            assert!(built.on_disk.is_some() && built.image == files[0]);
            assert_eq!(units, built.vertices);
            assert!(units > 0 && built.contention == ContentionStats::default());
            // Never committed, or torn: built here.
            std::fs::remove_file(path(1)).unwrap();
            std::fs::write(path(2), b"torn").unwrap();
            for p in [1, 2] {
                let built = cluster.collect(&device, p, Some("ok 0 0 0 0 0 0 0 0".into()), input(&manifest, p));
                let built = built.0.expect("a clean partition builds");
                assert!(built.on_disk.is_none(), "partition {p}");
                assert_eq!(built.image, files[p], "partition {p}: the engine's bytes");
            }
        });
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// A scripted wire worker over loopback TCP, `script` playing its side
    /// of one lease of partition `p` that the cluster — a listening one —
    /// runs against it.
    fn lease_over_tcp(
        cluster: &Cluster<'_, '_>,
        manifest: &PartitionManifest,
        p: usize,
        script: impl FnOnce(std::net::TcpStream) + Send,
    ) -> (Option<String>, bool) {
        let listener = ShardListener::bind("127.0.0.1:0").unwrap();
        let worker = std::net::TcpStream::connect(listener.addr()).unwrap();
        let mut conn = listener.accept().unwrap();
        let (bytes, kmers) = input(manifest, p);
        std::thread::scope(|s| {
            s.spawn(move || script(worker));
            cluster.lease(&mut conn, p, &bytes, kmers)
        })
    }

    /// The worker's side of a scripted lease: the next frame it receives.
    fn expect_frame(worker: &std::net::TcpStream, cap: u32) -> Vec<u8> {
        match pipeline::shard::recv_frame(&mut &*worker, cap).unwrap() {
            Recv::Frame(frame) => frame,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    /// Sends `payload` from a scripted worker, its first byte flipped
    /// after the checksum when `damage`.
    fn send_frame(mut worker: &std::net::TcpStream, payload: &[u8], damage: bool) {
        use std::io::Write;
        let mut frame = Vec::new();
        pipeline::shard::write_frame(&mut frame, payload).unwrap();
        frame[8] ^= u8::from(damage);
        let _ = worker.write_all(&frame);
    }

    /// The wire twin: a diskless worker's `result` frame is lost and its
    /// subgraph payload arrives unannounced. The connection holds one
    /// lease, so the payload is that lease's — committed here, and taken
    /// as the worker's — and the connection stays in step.
    #[test]
    fn a_wire_payload_whose_result_frame_was_lost_completes_the_lease() {
        let (cfg, manifest, journal) = built_in_process("parahash-shard-lost-wire-result");
        let cfg = listening(&cfg);
        let built = std::fs::read(crate::step2::subgraph_path(cfg.work_dir(), 0)).unwrap();
        with_cluster(&cfg, &journal, |cluster| {
            let outcome = lease_over_tcp(cluster, &manifest, 0, |worker| {
                let assign = WireMsg::decode(&expect_frame(&worker, MAX_FRAME)).unwrap();
                assert!(matches!(assign, WireMsg::Assign(0, _)), "{assign:?}");
                assert_eq!(expect_frame(&worker, MAX_PAYLOAD_FRAME).first(), Some(&BLOB_TAG));
                send_frame(&worker, &WireMsg::Heartbeat(7).encode(), false);
                // `result 0 ok …` is the frame that goes missing.
                send_frame(&worker, &encode_blob(&built), false);
            });
            assert_eq!(outcome, (Some(String::new()), true));
            let (taken, _) = cluster.collect(&CpuDevice::new("w"), 0, outcome.0, input(&manifest, 0));
            assert!(taken.is_some_and(|b| b.on_disk.is_some() && b.image == built));
        });
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// A damaged lease is built by the parent: the wire worker's `result`
    /// arrives with a flipped byte, the connection ends, no file is
    /// committed, and the engine builds the partition here into the bytes
    /// the worker would have shipped.
    #[test]
    fn a_damaged_lease_is_built_by_the_parent() {
        let (cfg, manifest, journal) = built_in_process("parahash-shard-damaged-frame");
        let cfg = listening(&cfg);
        let want = std::fs::read(crate::step2::subgraph_path(cfg.work_dir(), 0)).unwrap();
        with_cluster(&cfg, &journal, |cluster| {
            let outcome = lease_over_tcp(cluster, &manifest, 0, |worker| {
                expect_frame(&worker, MAX_FRAME);
                expect_frame(&worker, MAX_PAYLOAD_FRAME);
                send_frame(&worker, &WireMsg::Result(0, "ok 0 4096 0 0 0 0 0 0".into()).encode(), true);
            });
            assert_eq!(outcome, (None, false), "the link is no longer trusted");
            assert!(!cluster.shared.subgraph_path(0).exists(), "nothing committed");
            let (built, _) = cluster.collect(&CpuDevice::new("w"), 0, outcome.0, input(&manifest, 0));
            assert!(built.is_some_and(|b| b.on_disk.is_none() && b.image == want));
        });
        std::fs::remove_dir_all(cfg.work_dir()).unwrap();
    }

    /// A report for a partition the connection does not hold ends the
    /// connection before anything is written: a wire worker holding
    /// partition 0 reports an out-of-range partition 99 with a valid
    /// payload. No file appears — neither 99's nor 0's — and partition 0
    /// is left for the parent to build.
    #[test]
    fn a_report_for_a_partition_not_held_ends_the_connection() {
        let (cfg, manifest, journal) = built_in_process("parahash-shard-unheld-report");
        let cfg = listening(&cfg);
        let built = std::fs::read(crate::step2::subgraph_path(cfg.work_dir(), 2)).unwrap();
        with_cluster(&cfg, &journal, |cluster| {
            let outcome = lease_over_tcp(cluster, &manifest, 0, |worker| {
                expect_frame(&worker, MAX_FRAME);
                expect_frame(&worker, MAX_PAYLOAD_FRAME);
                send_frame(&worker, &WireMsg::Result(99, "ok 0 0 0 0 0 0 0 0".into()).encode(), false);
                send_frame(&worker, &encode_blob(&built), false);
            });
            assert_eq!(outcome, (None, false));
            assert!(!cluster.shared.subgraph_path(99).exists() && !cluster.shared.subgraph_path(0).exists());
        });
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
        let (cfg, manifest, _) = built_in_process("parahash-shard-session-pool");
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
        let listener = ShardListener::bind("127.0.0.1:0").unwrap();
        for wire in [true, false] {
            let (config, fingerprint, _) = config_from_blob(&config_blob(&cfg, wire)).unwrap();
            let worker_dir = cfg.work_dir().join("worker-7");
            let local = (!wire).then(|| {
                (manifest.clone(), RunJournal::create(&worker_dir, fingerprint).unwrap())
            });
            let builder = PartitionBuilder::new(&config);
            let mut worker = Connection::connect(&listener.addr()).unwrap();
            let mut parent = listener.accept().unwrap();
            let tuning = ShardTuning::from_env();
            std::thread::scope(|s| {
                let session = s.spawn(|| {
                    serve_leases(&mut worker, 7, &tuning, &config, &builder, local.as_ref())
                });
                for (p, file) in [a, b].into_iter().zip(&files) {
                    assert!(matches!(WireMsg::decode(&next_frame(&mut parent)), Ok(WireMsg::Claim(7))));
                    parent.send(&WireMsg::Assign(p, manifest.stats()[p].kmers).encode()).unwrap();
                    if wire {
                        let bytes = std::fs::read(manifest.partition_path(p)).unwrap();
                        parent.send(&encode_blob(&bytes)).unwrap();
                    }
                    let reply = WireMsg::decode(&next_frame(&mut parent)).unwrap();
                    assert!(matches!(&reply, WireMsg::Result(q, d) if *q == p && d.starts_with("ok 0 ")), "{reply:?}");
                    if wire {
                        assert_eq!(&decode_blob(next_frame(&mut parent)).unwrap(), file, "shipped {p}");
                        assert!(!sub(p).exists(), "a wire worker writes nothing");
                    } else {
                        assert_eq!(&std::fs::read(sub(p)).unwrap(), file, "committed {p}");
                    }
                }
                assert!(matches!(WireMsg::decode(&next_frame(&mut parent)), Ok(WireMsg::Claim(7))));
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
    /// assignments without a hit and holds worker 1's first one for eight
    /// times the idle deadline.
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
        assert!(started.elapsed() >= Duration::from_millis(160), "the lease was held");
        assert_eq!(failpoint::hits(site), 1);
        failpoint::disarm(site);
    }

    /// A spawned worker whose parent stopped listening exits cleanly at
    /// once; a remote worker pointed at the same refused port backs off,
    /// then fails naming the address.
    #[test]
    fn only_a_remote_worker_treats_an_unreachable_parent_as_an_error() {
        let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
        let refused = format!("127.0.0.1:{port}");
        let started = Instant::now();
        run_worker_loop(&refused, Some(TOKEN.into()), 0, true)
            .expect("a vanished parent ends a spawned worker");
        assert!(started.elapsed() < RECONNECT.delay(1, 0), "no backoff before exiting");

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
