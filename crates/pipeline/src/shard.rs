//! Multi-process Step-2 sharding: the worker connection and the wire
//! protocol.
//!
//! The parent process runs Step 1, seals the partition directory, then
//! accepts worker connections on one TCP [`ShardListener`]: its own child
//! processes over loopback, and remote machines running
//! `dbg worker --connect <addr>`. A connection is a device: its driver
//! joins the Step-2 roster ([`crate::Roster`]) beside the parent's cores
//! and claims from the same work queue, so a worker *claims* partitions
//! one at a time in the order every processor does — largest first.
//!
//! This module is deliberately policy-free plumbing: a length-prefixed,
//! CRC-checked frame codec over any `Read`/`Write` pair, a tiny
//! line-oriented message grammar, and the [`Connection`] that carries
//! them. Everything ParaHash-specific (what a partition *is*, how a
//! worker builds it, who is admitted, journaling, heartbeat and deadline
//! policy) lives in the `parahash` crate; everything here is testable
//! without processes.
//!
//! # Wire format
//!
//! Every message is one frame: `u32 len LE | u32 crc32 LE | payload`,
//! the same framing as the superkmer partition files, checksummed by the
//! same routine ([`crate::crc`]). Zero-length frames are rejected outright; a frame longer
//! than the receiver's cap ([`MAX_FRAME`] for control traffic,
//! [`MAX_PAYLOAD_FRAME`] while expecting a shipped partition or
//! subgraph) is a protocol violation naming the offending size.
//!
//! A *control* payload is UTF-8 text, first line the message tag
//! (protocol version [`PROTO_VERSION`]):
//!
//! ```text
//! hello <worker-id> <version> [<token>]
//!                              worker → parent, once, on connect
//! deny <reason…>               parent → worker: handshake rejected, give up
//! config\n<blob>               parent → worker, once; blob is opaque here
//! claim <worker-id>            worker → parent: give me work
//! assign <partition> <kmers>   parent → worker: build this one (k-mer count hint)
//! heartbeat <worker-id>        worker → parent: still alive mid-build
//! finished                     parent → worker: no work left, exit cleanly
//! result <partition> <detail>  worker → parent: built and committed
//! failed <partition> <detail>  worker → parent: build failed, the parent builds it
//! ```
//!
//! A *blob* payload carries raw bytes (a partition file on its way to a
//! remote worker, a subgraph on its way back): one [`BLOB_TAG`] byte
//! followed by the bytes verbatim. The tag keeps blob frames non-empty
//! and unambiguous against the text grammar (no control tag starts with
//! a NUL byte).
//!
//! A worker that dies mid-lease simply drops its connection; the parent
//! observes EOF and builds the lease itself. A worker that *hangs*
//! mid-lease is caught by the parent's receive deadline (no heartbeat
//! within the timeout) and its lease is built by the parent the same
//! way. A frame that fails its checksum ([`Recv::Damaged`]) ends the
//! connection too, and with it the lease.
//!
//! # Fault injection
//!
//! [`write_frame`] consults the network failpoint sites
//! ([`crate::failpoint::NET_SITES`]): `shard.net.drop` discards the
//! armed frame unsent, `shard.net.delay` stalls the armed send for
//! 100 ms, and `shard.net.garble` flips a payload
//! byte after the checksum is computed so the receiver rejects the
//! frame. All three are deterministic (armed at a 1-based hit count)
//! and exercise exactly the recovery paths a flaky network would.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Version of the control-message grammar. Sent by the worker in
/// `hello`; the parent denies mismatched workers with an actionable
/// error instead of letting skew surface as a confusing parse failure
/// mid-run. Version 1 is the PR-9 grammar (no version field, no
/// heartbeats, no blobs); a v1 `hello` decodes as version 1 and is
/// denied. Version 3 dropped the config blob's `threads` key: a worker
/// is one core. Version 4 appended the table counters (insertions,
/// updates, probe steps, tag rejects, replayed k-mers) to a `result`'s
/// detail. Version 5 ships partition payloads whose records may be
/// weighted (flag bit 6 and a LEB128 copy count), which a version-4
/// worker would misread. Version 6 added the slots of the largest table
/// to a `result`'s detail, after its peak table bytes. Version 7 appends
/// the parent's per-run token to `hello`, when the worker has one: every
/// connection is TCP, and a parent that only spawned its workers admits
/// no hello without it.
pub const PROTO_VERSION: u32 = 7;

/// Upper bound on a single *control* frame. Control messages are short
/// text (the config blob is the largest, well under a kilobyte);
/// anything bigger is a corrupt or hostile peer, not a real message.
pub const MAX_FRAME: u32 = 1 << 20;

/// Upper bound on a *blob* frame (a shipped partition payload or a
/// returned subgraph). Partition files scale with the input genome, so
/// this cap is generous; a receiver only raises it while a blob is
/// actually expected.
pub const MAX_PAYLOAD_FRAME: u32 = 1 << 30;

/// First byte of every blob frame (see the module docs).
pub const BLOB_TAG: u8 = 0x00;

/// How long an armed `shard.net.delay` failpoint stalls a send.
const NET_DELAY: Duration = Duration::from_millis(100);

/// Writes one length-prefixed, checksummed frame, consulting the
/// network failpoints (see the module docs) first.
///
/// # Errors
///
/// Propagates the underlying write failure (typically a broken pipe
/// when the peer died).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if crate::failpoint::hit("shard.net.delay").is_err() {
        std::thread::sleep(NET_DELAY);
    }
    if crate::failpoint::hit("shard.net.drop").is_err() {
        // The frame vanishes on the wire: the sender believes it went
        // out, the receiver waits until its deadline fires.
        return Ok(());
    }
    let garble = crate::failpoint::hit("shard.net.garble").is_err();
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crate::crc::crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    if garble && buf.len() > 8 {
        // Flip one payload byte *after* the checksum was computed: the
        // receiver's CRC check must catch it.
        buf[8] ^= 0x01;
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Outcome of one deadline-aware receive attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// One complete, CRC-verified frame payload.
    Frame(Vec<u8>),
    /// Clean EOF *between* frames — the peer closed deliberately (or
    /// died; the parent treats both the same).
    Eof,
    /// The receive deadline elapsed with no frame started. Only
    /// possible when the connection has a read timeout armed; the peer
    /// is silent, not gone.
    TimedOut,
    /// A whole frame arrived but fails its checksum: damaged in transit.
    /// The link is no longer trusted (the damage may have hit the length
    /// too), so the connection ends as on an error.
    Damaged,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Bytes a frame's payload buffer grows by as its bytes arrive, so a
/// header alone — whatever length up to the cap it claims — never costs
/// the receiver more than this before the bytes are there.
const RECV_STEP: usize = 64 << 10;

/// Reads one frame with an explicit size cap. Timeouts *between*
/// frames surface as [`Recv::TimedOut`], a checksum mismatch as
/// [`Recv::Damaged`]; a timeout, EOF, zero length or over-cap length
/// *inside* a frame is a hard [`std::io::ErrorKind::InvalidData`] error —
/// the stream cannot be resynchronised, so the connection is dead either
/// way. The payload buffer grows 64 KiB at a time as the payload
/// arrives, never by the length a header claims.
///
/// # Errors
///
/// Read failures, torn frames, zero-length frames, lengths over `cap`
/// (the message names the offending size).
pub fn recv_frame(r: &mut impl Read, cap: u32) -> std::io::Result<Recv> {
    let bad = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(Recv::Eof),
            Ok(0) => return Err(bad(format!("torn wire frame: EOF after {filled} of 8 header bytes"))),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => return Ok(Recv::TimedOut),
            Err(e) if is_timeout(&e) => {
                return Err(bad(format!("peer stalled mid-frame ({filled} of 8 header bytes)")))
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let stored = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len == 0 {
        return Err(bad("zero-length wire frame (no message is empty)".to_string()));
    }
    if len > cap {
        return Err(bad(format!("wire frame claims {len} bytes (cap {cap})")));
    }
    let mut payload = Vec::new();
    let mut got = 0;
    while got < len as usize {
        if got == payload.len() {
            payload.resize((got + RECV_STEP).min(len as usize), 0);
        }
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(bad(format!("torn wire frame: EOF after {got} of {len} payload bytes"))),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return Err(bad(format!("peer stalled mid-frame ({got} of {len} payload bytes)")))
            }
            Err(e) => return Err(e),
        }
    }
    if crate::crc::crc32(&payload) != stored {
        return Ok(Recv::Damaged);
    }
    Ok(Recv::Frame(payload))
}

/// Wraps raw bytes as a blob-frame payload (see the module docs).
pub fn encode_blob(bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + bytes.len());
    payload.push(BLOB_TAG);
    payload.extend_from_slice(bytes);
    payload
}

/// Unwraps a blob-frame payload back to its raw bytes.
///
/// # Errors
///
/// [`std::io::ErrorKind::InvalidData`] when the payload is not a blob
/// frame (the peer sent a control message where bytes were expected).
pub fn decode_blob(mut payload: Vec<u8>) -> std::io::Result<Vec<u8>> {
    if payload.first() != Some(&BLOB_TAG) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "expected a binary blob frame, got {}",
                String::from_utf8_lossy(&payload[..payload.len().min(32)])
            ),
        ));
    }
    payload.remove(0);
    Ok(payload)
}

/// A connected, frame-oriented, deadline-aware channel to one peer over
/// TCP (`TCP_NODELAY` set: every frame is a whole message, sent at
/// once). Reads go through the owned handle; writes through a
/// mutex-shared duplicate, so the main thread and the heartbeat ticker
/// ([`sender`](Self::sender)) never interleave frames.
pub struct Connection {
    reader: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    peer: String,
}

impl Connection {
    /// Connects to a parent's listener at `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates the connect/clone failure.
    pub fn connect(addr: &str) -> std::io::Result<Connection> {
        Connection::new(TcpStream::connect(addr)?)
    }

    fn new(stream: TcpStream) -> std::io::Result<Connection> {
        // Latency only: a connection without it still works.
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "tcp".to_string());
        let writer = Arc::new(Mutex::new(stream.try_clone()?));
        Ok(Connection { reader: stream, writer, peer })
    }

    /// Sends one frame (serialised with any live [`FrameSender`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut *self.writer.lock(), payload)
    }

    /// Receives one frame of at most `cap` bytes, waiting at most
    /// `timeout` (`None` = forever) for it to *start*.
    ///
    /// # Errors
    ///
    /// Everything [`recv_frame`] rejects.
    pub fn recv(&mut self, cap: u32, timeout: Option<Duration>) -> std::io::Result<Recv> {
        // `set_read_timeout(Some(ZERO))` is an error by contract; the
        // smallest meaningful deadline stands in for "immediately".
        self.reader.set_read_timeout(timeout.map(|t| t.max(Duration::from_millis(1))))?;
        recv_frame(&mut self.reader, cap)
    }

    /// A sending handle for side-channel frames (heartbeats) from
    /// another thread.
    pub fn sender(&self) -> FrameSender {
        FrameSender(Arc::clone(&self.writer))
    }

    /// The peer's `host:port`, for diagnostics.
    pub fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// Pushes frames to a [`Connection`]'s peer from another thread (the
/// heartbeat ticker), serialised with the connection's own sends.
pub struct FrameSender(Arc<Mutex<TcpStream>>);

impl FrameSender {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn send(&mut self, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut *self.0.lock(), payload)
    }
}

/// The parent's accept side: a TCP listener that spawned children and
/// remote joiners alike connect to at [`addr`](Self::addr).
pub struct ShardListener(TcpListener);

impl ShardListener {
    /// Binds `addr` (e.g. `127.0.0.1:0` — port 0 picks a free port,
    /// readable back via [`addr`](Self::addr)).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> std::io::Result<ShardListener> {
        Ok(ShardListener(TcpListener::bind(addr)?))
    }

    /// Accepts one worker connection.
    ///
    /// # Errors
    ///
    /// Propagates the accept/clone failure.
    pub fn accept(&self) -> std::io::Result<Connection> {
        Connection::new(self.0.accept()?.0)
    }

    /// The resolved `host:port` workers connect to (a requested port 0
    /// reads back as the port picked).
    pub fn addr(&self) -> String {
        self.0.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| "tcp".to_string())
    }

    /// Unblocks a thread parked in [`accept`](Self::accept) by making
    /// (and immediately dropping) a throwaway connection to ourselves.
    pub fn unblock(&self) {
        if let Ok(addr) = self.0.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// The shard protocol's message set. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Worker's first message: its parent-assigned id, its protocol
    /// version (a missing version field decodes as 1 — the PR-9
    /// grammar — so skewed old workers are *denied*, not confused) and
    /// the token its parent spawned it with, if any.
    Hello(usize, u32, Option<String>),
    /// Parent's refusal of a handshake (version skew, a missing or wrong
    /// token); the text says why and what to do. The worker must not
    /// retry.
    Deny(String),
    /// Parent's reply to `hello`: the opaque run-config blob the worker
    /// needs to reconstruct the build configuration.
    Config(String),
    /// Worker asks for its next lease.
    Claim(usize),
    /// Parent leases one partition to the asking worker; the second
    /// field is the partition's k-mer occurrence count (table-sizing
    /// hint, so remote workers don't need the manifest).
    Assign(usize, u64),
    /// Worker's liveness pulse while a build is in flight: resets the
    /// parent's receive deadline without carrying any other meaning.
    Heartbeat(usize),
    /// Parent: nothing left (or nothing this worker may have) — exit.
    Finished,
    /// Worker built and committed the partition; `detail` is opaque
    /// accounting text relayed into the parent's report.
    Result(usize, String),
    /// Worker failed the partition; `detail` says why. The parent builds
    /// it.
    Failed(usize, String),
}

impl WireMsg {
    /// Serialises to the text payload of one wire frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WireMsg::Hello(id, version, None) => format!("hello {id} {version}").into_bytes(),
            WireMsg::Hello(id, version, Some(token)) => {
                format!("hello {id} {version} {token}").into_bytes()
            }
            WireMsg::Deny(why) => format!("deny {why}").into_bytes(),
            WireMsg::Config(blob) => format!("config\n{blob}").into_bytes(),
            WireMsg::Claim(id) => format!("claim {id}").into_bytes(),
            WireMsg::Assign(p, kmers) => format!("assign {p} {kmers}").into_bytes(),
            WireMsg::Heartbeat(id) => format!("heartbeat {id}").into_bytes(),
            WireMsg::Finished => b"finished".to_vec(),
            WireMsg::Result(p, detail) => format!("result {p} {detail}").into_bytes(),
            WireMsg::Failed(p, detail) => format!("failed {p} {detail}").into_bytes(),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidData`] naming the malformed payload —
    /// an unknown tag or a missing/non-numeric field. Version skew is
    /// *not* a parse failure: `hello` tolerates a missing version field
    /// (defaulting to 1) precisely so the parent can reply with an
    /// actionable [`WireMsg::Deny`] instead of a codec error.
    pub fn decode(payload: &[u8]) -> std::io::Result<WireMsg> {
        let bad = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidData, why);
        let text = std::str::from_utf8(payload)
            .map_err(|e| bad(format!("non-UTF-8 wire message: {e}")))?;
        let (first, rest) = match text.split_once('\n') {
            Some((f, r)) => (f, Some(r)),
            None => (text, None),
        };
        let mut words = first.split_whitespace();
        let tag = words.next().unwrap_or("");
        let mut num = |what: &str| -> std::io::Result<usize> {
            words
                .next()
                .ok_or_else(|| bad(format!("wire message `{tag}` is missing its {what}")))?
                .parse()
                .map_err(|e| bad(format!("wire message `{tag}`: bad {what}: {e}")))
        };
        match tag {
            "hello" => {
                let id = num("worker id")?;
                let version = match words.next() {
                    None => 1, // pre-versioning (PR-9) grammar
                    Some(v) => v
                        .parse()
                        .map_err(|e| bad(format!("wire message `hello`: bad version: {e}")))?,
                };
                Ok(WireMsg::Hello(id, version, words.next().map(str::to_string)))
            }
            "deny" => {
                let why = first.strip_prefix("deny").unwrap_or("").trim().to_string();
                Ok(WireMsg::Deny(why))
            }
            "config" => Ok(WireMsg::Config(rest.unwrap_or("").to_string())),
            "claim" => Ok(WireMsg::Claim(num("worker id")?)),
            "assign" => {
                let p = num("partition")?;
                let kmers = match words.next() {
                    None => 0,
                    Some(v) => v
                        .parse()
                        .map_err(|e| bad(format!("wire message `assign`: bad kmer count: {e}")))?,
                };
                Ok(WireMsg::Assign(p, kmers))
            }
            "heartbeat" => Ok(WireMsg::Heartbeat(num("worker id")?)),
            "finished" => Ok(WireMsg::Finished),
            "result" | "failed" => {
                let p = num("partition")?;
                let detail = words.collect::<Vec<_>>().join(" ");
                if tag == "result" {
                    Ok(WireMsg::Result(p, detail))
                } else {
                    Ok(WireMsg::Failed(p, detail))
                }
            }
            other => Err(bad(format!("unknown wire message tag `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The wire bytes of one frame, captured from the bit-at-a-time
    /// checksum this codec used to carry: same polynomial, init and
    /// final complement, so old and new peers agree on every frame.
    #[test]
    fn frame_bytes_match_the_golden_hello() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello 3 2").unwrap();
        let golden = [
            0x09, 0x00, 0x00, 0x00, 0x34, 0x11, 0xb7, 0x6a, b'h', b'e', b'l', b'l', b'o', b' ',
            b'3', b' ', b'2',
        ];
        assert_eq!(buf, golden);
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello 3 2").unwrap();
        write_frame(&mut buf, b"claim 3").unwrap();
        let mut r = &buf[..];
        assert_eq!(recv_frame(&mut r, MAX_FRAME).unwrap(), Recv::Frame(b"hello 3 2".to_vec()));
        assert_eq!(recv_frame(&mut r, MAX_FRAME).unwrap(), Recv::Frame(b"claim 3".to_vec()));
        assert_eq!(recv_frame(&mut r, MAX_FRAME).unwrap(), Recv::Eof, "clean EOF between frames");

        // Flip a payload byte: checksum must catch it.
        let mut bent = buf.clone();
        bent[8] ^= 0x01;
        assert_eq!(recv_frame(&mut &bent[..], MAX_FRAME).unwrap(), Recv::Damaged);

        // Truncate mid-frame: torn, not clean EOF.
        let mut r = &buf[..buf.len() - 3];
        assert!(matches!(recv_frame(&mut r, MAX_FRAME).unwrap(), Recv::Frame(_)));
        let err = recv_frame(&mut r, MAX_FRAME).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn zero_length_and_over_cap_frames_are_rejected_by_size() {
        // Hand-built zero-length frame: valid CRC of nothing, len 0.
        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        zero.extend_from_slice(&crate::crc::crc32(b"").to_le_bytes());
        let err = recv_frame(&mut &zero[..], MAX_FRAME).unwrap_err();
        assert!(err.to_string().contains("zero-length"), "{err}");

        // Over-cap length: rejected before any payload read, naming
        // the offending size and the cap in force.
        let mut big = Vec::new();
        big.extend_from_slice(&(MAX_FRAME + 7).to_le_bytes());
        big.extend_from_slice(&0u32.to_le_bytes());
        let err = recv_frame(&mut &big[..], MAX_FRAME).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&(MAX_FRAME + 7).to_string()) && msg.contains(&MAX_FRAME.to_string()),
            "{msg}"
        );

        // The same length is fine under the payload cap.
        let payload = encode_blob(&vec![0xAB; (MAX_FRAME + 7) as usize - 1]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        match recv_frame(&mut &buf[..], MAX_PAYLOAD_FRAME).unwrap() {
            Recv::Frame(p) => assert_eq!(decode_blob(p).unwrap().len(), (MAX_FRAME + 7) as usize - 1),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn blobs_roundtrip_and_mistagged_payloads_are_rejected() {
        let bytes = b"\x01\x02raw partition bytes\x00\xff".to_vec();
        let payload = encode_blob(&bytes);
        assert_eq!(payload.len(), bytes.len() + 1);
        assert_eq!(decode_blob(payload).unwrap(), bytes);
        // An empty blob is representable: one tag byte, zero content.
        assert_eq!(decode_blob(encode_blob(b"")).unwrap(), b"");
        // A control message where a blob was expected is an error.
        let err = decode_blob(b"result 3 ok".to_vec()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn messages_roundtrip() {
        for m in &every_message() {
            assert_eq!(&WireMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn versionless_hello_decodes_as_version_one() {
        // A PR-9 worker says `hello 3` with no version field; it must
        // decode (as version 1) so the parent can *deny* it politely.
        assert_eq!(WireMsg::decode(b"hello 3").unwrap(), WireMsg::Hello(3, 1, None));
        // Likewise an old parent's kmer-less assign.
        assert_eq!(WireMsg::decode(b"assign 7").unwrap(), WireMsg::Assign(7, 0));
    }

    #[test]
    fn malformed_messages_are_rejected() {
        for bad in
            [&b"launch 3"[..], b"assign", b"claim abc", b"hello -1", b"hello 3 x", b"heartbeat", b"\xff\xfe"]
        {
            assert!(WireMsg::decode(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn a_connection_times_out_then_delivers() {
        let listener = ShardListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let child = std::thread::spawn(move || {
            let mut t = Connection::connect(&addr).unwrap();
            // Wait long enough for the parent's first recv to time out.
            std::thread::sleep(Duration::from_millis(120));
            t.send(&WireMsg::Heartbeat(5).encode()).unwrap();
            // Hold the socket open until the parent is done reading.
            match t.recv(MAX_FRAME, None).unwrap() {
                Recv::Frame(p) => assert_eq!(WireMsg::decode(&p).unwrap(), WireMsg::Finished),
                other => panic!("worker expected finished, got {other:?}"),
            }
        });
        let mut conn = listener.accept().unwrap();
        // First recv: deadline elapses before the peer says anything.
        assert_eq!(conn.recv(MAX_FRAME, Some(Duration::from_millis(20))).unwrap(), Recv::TimedOut);
        // Second recv: generous deadline, the heartbeat arrives.
        match conn.recv(MAX_FRAME, Some(Duration::from_secs(5))).unwrap() {
            Recv::Frame(p) => assert_eq!(WireMsg::decode(&p).unwrap(), WireMsg::Heartbeat(5)),
            other => panic!("expected the heartbeat, got {other:?}"),
        }
        conn.send(&WireMsg::Finished.encode()).unwrap();
        child.join().unwrap();
    }

    #[test]
    fn a_sender_shares_the_connection() {
        let listener = ShardListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let child = std::thread::spawn(move || {
            let t = Connection::connect(&addr).unwrap();
            // Send through a detached sender handle, as the heartbeat
            // ticker does, then drop everything (clean EOF).
            let mut s = t.sender();
            s.send(&WireMsg::Hello(1, PROTO_VERSION, None).encode()).unwrap();
        });
        let mut conn = listener.accept().unwrap();
        assert!(conn.peer().starts_with("127.0.0.1:"), "{}", conn.peer());
        match conn.recv(MAX_FRAME, Some(Duration::from_secs(5))).unwrap() {
            Recv::Frame(p) => {
                assert_eq!(WireMsg::decode(&p).unwrap(), WireMsg::Hello(1, PROTO_VERSION, None))
            }
            other => panic!("expected hello, got {other:?}"),
        }
        assert_eq!(conn.recv(MAX_FRAME, Some(Duration::from_secs(5))).unwrap(), Recv::Eof);
        child.join().unwrap();
    }

    #[test]
    fn net_failpoints_drop_and_garble_frames() {
        use crate::failpoint::{arm, disarm, FailAction};
        // Drop: the armed send writes nothing at all.
        arm("shard.net.drop", FailAction::ReturnError, 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, b"claim 0").unwrap();
        disarm("shard.net.drop");
        assert!(buf.is_empty(), "dropped frame must not reach the wire");
        write_frame(&mut buf, b"claim 0").unwrap();
        assert!(!buf.is_empty(), "disarmed sends flow again");

        // Garble: the armed send arrives but fails the CRC check.
        arm("shard.net.garble", FailAction::ReturnError, 1);
        let mut bent = Vec::new();
        write_frame(&mut bent, b"result 3 ok").unwrap();
        disarm("shard.net.garble");
        assert_eq!(recv_frame(&mut &bent[..], MAX_FRAME).unwrap(), Recv::Damaged);
    }

    /// Every message of the grammar, once.
    fn every_message() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello(2, PROTO_VERSION, None),
            WireMsg::Hello(2, PROTO_VERSION, Some("00ff3c9a5e71d2b8406f1e2d3c4b5a69".to_string())),
            WireMsg::Deny("protocol version 1 != 2; rebuild the worker".to_string()),
            WireMsg::Config("k 31\np 8\nwork-dir /tmp/a b".to_string()),
            WireMsg::Claim(2),
            WireMsg::Assign(17, 90210),
            WireMsg::Heartbeat(2),
            WireMsg::Finished,
            WireMsg::Result(17, "ok 1 4096 0 5 6 7 8 9".to_string()),
            WireMsg::Failed(9, "checksum mismatch".to_string()),
        ]
    }

    /// A wire stream of every message and one blob, as a peer sends it.
    fn wire_stream() -> Vec<u8> {
        let mut buf = Vec::new();
        for msg in every_message() {
            write_frame(&mut buf, &msg.encode()).unwrap();
        }
        write_frame(&mut buf, &encode_blob(b"\x01\x02partition bytes\xff")).unwrap();
        buf
    }

    /// Receives every frame `bytes` holds under each real cap — control
    /// and payload — and decodes each as a message and as a blob, until
    /// EOF or the first error: the receive path a peer's bytes take.
    /// Returns the frames, which must not depend on the cap.
    fn drain(bytes: &[u8]) -> Vec<Vec<u8>> {
        let control = drain_under(bytes, MAX_FRAME);
        assert_eq!(drain_under(bytes, MAX_PAYLOAD_FRAME), control);
        control
    }

    fn drain_under(bytes: &[u8], cap: u32) -> Vec<Vec<u8>> {
        let mut r = bytes;
        let mut frames = Vec::new();
        loop {
            match recv_frame(&mut r, cap) {
                Ok(Recv::Frame(payload)) => {
                    let _ = WireMsg::decode(&payload);
                    let _ = decode_blob(payload.clone());
                    frames.push(payload);
                }
                Ok(Recv::Damaged) => {}
                Ok(Recv::Eof | Recv::TimedOut) | Err(_) => return frames,
            }
        }
    }

    /// A header claiming the payload cap, then EOF: a torn frame, and the
    /// receiver never asked for more than one growth step of buffer.
    #[test]
    fn a_header_alone_reserves_one_step() {
        struct Widest<'a>(&'a [u8], usize);
        impl Read for Widest<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 = self.1.max(buf.len());
                self.0.read(buf)
            }
        }
        let mut bytes = MAX_PAYLOAD_FRAME.to_le_bytes().to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[7; 100_000]);
        for sent in [8, 9, 8 + RECV_STEP, bytes.len()] {
            let mut r = Widest(&bytes[..sent], 0);
            let err = recv_frame(&mut r, MAX_PAYLOAD_FRAME).unwrap_err().to_string();
            let want = format!("torn wire frame: EOF after {} of {MAX_PAYLOAD_FRAME}", sent - 8);
            assert!(err.starts_with(&want), "{sent}: {err}");
            assert!(r.1 <= RECV_STEP, "{sent}: a read into {} bytes", r.1);
        }
    }

    /// Every truncation of a clean stream is a clean prefix of its
    /// frames followed by EOF or a torn-frame error — never a panic, never
    /// a frame that was not sent.
    #[test]
    fn every_truncation_of_a_stream_yields_a_prefix_of_its_frames() {
        let stream = wire_stream();
        let whole = drain(&stream);
        assert_eq!(whole.len(), every_message().len() + 1);
        for (frame, msg) in whole.iter().zip(every_message()) {
            assert_eq!(WireMsg::decode(frame).unwrap(), msg);
        }
        for cut in 0..stream.len() {
            let got = drain(&stream[..cut]);
            assert!(whole.starts_with(&got), "cut at {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile bytes at the shard decoders — a clean stream with one
        /// bit flipped, random bytes as a stream, and random bytes as a
        /// frame's payload, a message and a blob: `recv_frame`,
        /// `WireMsg::decode` and `decode_blob` return or reject, and never
        /// panic. A flipped bit never yields a frame that was not sent
        /// (the checksum or the length check catches it).
        #[test]
        fn hostile_bytes_never_panic_the_shard_decoders(
            at in 0usize..usize::MAX,
            bit in 0u8..8,
            noise in prop::collection::vec(0u8..=255, 0..300),
        ) {
            let stream = wire_stream();
            let mut bent = stream.clone();
            bent[at % stream.len()] ^= 1 << bit;
            let sent = drain(&stream);
            for frame in drain(&bent) {
                prop_assert!(sent.contains(&frame), "a frame nobody sent: {:?}", frame);
            }
            drain(&noise);
            let _ = WireMsg::decode(&noise);
            let _ = decode_blob(noise.clone());
            let mut framed = Vec::new();
            write_frame(&mut framed, &noise).unwrap();
            let got = drain(&framed);
            prop_assert_eq!(got.len(), usize::from(!noise.is_empty()));
        }
    }
}
