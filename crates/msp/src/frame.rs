//! CRC32-checksummed framing for partition files.
//!
//! The raw partition format (a bare concatenation of 2-bit superkmer
//! records) can only detect *truncation*: a record header that runs off
//! the end of the file. A flipped byte in the middle of a record decodes
//! to a different — perfectly plausible — DNA payload and is silently
//! absorbed into the graph. Since Step 2's correctness depends on
//! replaying exactly the bytes Step 1 wrote, partition files are wrapped
//! in checksummed frames:
//!
//! ```text
//! frame := u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//! file  := frame*
//! ```
//!
//! Frames are cut at superkmer-record boundaries (the writer flushes a
//! pending buffer of whole records), so every record is contiguous inside
//! one frame and the zero-copy view replay
//! ([`PartitionSlices::index_framed`](crate::PartitionSlices::index_framed))
//! still borrows straight out of the loaded file buffer.
//!
//! The checksum is CRC-32/ISO-HDLC (the zlib/PNG polynomial), computed by
//! the workspace's one table-driven routine, [`pipeline::crc`] (slicing-by-8,
//! with the byte-at-a-time loop as its tail handler), re-exported here as
//! [`crc32`].

pub use pipeline::crc::crc32;

use crate::{MspError, Result};

/// Bytes of framing overhead per frame (length + checksum words).
pub const FRAME_HEADER_LEN: usize = 8;

/// Default flush threshold for the writer's pending record buffer: big
/// enough that framing overhead is ~0.01%, small enough that a corrupt
/// frame localises the damage.
pub const DEFAULT_FRAME_TARGET: usize = 64 << 10;

/// Writes one frame (header + payload) to `out` — the one place the
/// `len | crc32 | payload` layout is spelled, for memory buffers
/// ([`append_frame`]) and partition files alike. Empty payloads are
/// skipped — a zero-length frame carries no information.
pub(crate) fn write_frame<W: std::io::Write>(out: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&crc32(payload).to_le_bytes())?;
    out.write_all(payload)
}

/// Appends one frame (header + payload) to `out`. Empty payloads are
/// skipped — a zero-length frame carries no information.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_frame(out, payload).expect("writing to a Vec cannot fail");
}

/// How a framed buffer failed verification — recovery treats the two
/// classes very differently (see `docs/RECOVERY.md`): a **truncated
/// tail** is the expected signature of a crash mid-append (the valid
/// prefix is still trustworthy), while **interior corruption** means
/// the medium itself lied and the whole artifact is suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// The buffer ends mid-header or mid-payload: every earlier frame
    /// verified, only the final (partial) frame is damaged.
    TruncatedTail,
    /// A checksum mismatch inside the buffer: bytes after this frame may
    /// also be garbage.
    InteriorCorruption,
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFault::TruncatedTail => write!(f, "truncated tail"),
            FrameFault::InteriorCorruption => write!(f, "interior corruption"),
        }
    }
}

fn frame_error(
    partition: Option<usize>,
    frame: usize,
    pos: usize,
    fault: FrameFault,
    detail: String,
) -> MspError {
    let ctx = match partition {
        Some(p) => format!("partition {p}, "),
        None => String::new(),
    };
    MspError::CorruptRecord {
        offset: pos as u64,
        reason: format!("{ctx}frame {frame} at byte {pos}: {fault} — {detail}"),
    }
}

/// The iterator behind [`walk_frames`].
struct FrameWalk<'a> {
    bytes: &'a [u8],
    /// Offset of the next frame; `bytes.len()` once the walk has ended.
    pos: usize,
    /// Index of the next frame.
    frame: usize,
    partition: Option<usize>,
}

/// The longest-valid-prefix walk every framed artifact is read with:
/// yields `(offset, payload)` for each frame that verifies, front to
/// back, then — when the buffer does not verify to its end — one
/// [`MspError::CorruptRecord`] for the first frame that does not (see
/// [`frame_payloads_in`] for what it names), and nothing after it. A
/// reader that tolerates a torn tail keeps the prefix and stops at the
/// error; [`frame_payloads_in`] fails on it.
pub fn walk_frames(
    bytes: &[u8],
    partition: Option<usize>,
) -> impl Iterator<Item = Result<(usize, &[u8])>> + '_ {
    FrameWalk { bytes, pos: 0, frame: 0, partition }
}

impl<'a> FrameWalk<'a> {
    /// The frame at `pos`'s payload, or why it does not verify.
    fn verify(&self) -> std::result::Result<&'a [u8], (FrameFault, String)> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < FRAME_HEADER_LEN {
            let detail = format!(
                "frame header truncated: {} bytes left, need {FRAME_HEADER_LEN}",
                rest.len()
            );
            return Err((FrameFault::TruncatedTail, detail));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let want = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let body = &rest[FRAME_HEADER_LEN..];
        let Some(payload) = body.get(..len) else {
            let detail = format!("frame payload of {len} bytes truncated to {}", body.len());
            return Err((FrameFault::TruncatedTail, detail));
        };
        let got = crc32(payload);
        if got != want {
            let detail =
                format!("frame checksum mismatch: stored {want:#010x}, computed {got:#010x}");
            return Err((FrameFault::InteriorCorruption, detail));
        }
        Ok(payload)
    }
}

impl<'a> Iterator for FrameWalk<'a> {
    type Item = Result<(usize, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let at = self.pos;
        match self.verify() {
            Ok(payload) => {
                self.pos += FRAME_HEADER_LEN + payload.len();
                self.frame += 1;
                Some(Ok((at, payload)))
            }
            Err((fault, detail)) => {
                // Nothing after a frame that fails is trusted.
                self.pos = self.bytes.len();
                Some(Err(frame_error(self.partition, self.frame, at, fault, detail)))
            }
        }
    }
}

/// Splits a framed buffer into its verified payload slices.
///
/// # Errors
///
/// Returns [`MspError::CorruptRecord`] (with the absolute byte offset of
/// the offending frame) when a header is truncated, a payload runs past
/// the buffer, or a checksum does not match.
pub fn frame_payloads(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    frame_payloads_in(bytes, None)
}

/// [`frame_payloads`] with a partition id baked into error payloads, so
/// recovery logs name the damaged artifact. Errors state the partition
/// id (when given), the zero-based frame index, the absolute byte
/// offset, and whether the damage is a [`FrameFault::TruncatedTail`]
/// (crash signature — valid prefix intact) or
/// [`FrameFault::InteriorCorruption`] (checksum mismatch).
///
/// # Errors
///
/// Same classes as [`frame_payloads`].
pub fn frame_payloads_in(bytes: &[u8], partition: Option<usize>) -> Result<Vec<&[u8]>> {
    walk_frames(bytes, partition).map(|frame| frame.map(|(_, payload)| payload)).collect()
}

/// Verifies every frame and concatenates the payloads into one owned
/// buffer of raw records — the bridge from framed files back to the
/// unframed in-memory record stream the owned decoder consumes.
///
/// # Errors
///
/// Same as [`frame_payloads`].
pub fn deframe(bytes: &[u8]) -> Result<Vec<u8>> {
    deframe_in(bytes, None)
}

/// [`deframe`] with a partition id baked into error payloads (see
/// [`frame_payloads_in`]).
///
/// # Errors
///
/// Same as [`frame_payloads`].
pub fn deframe_in(bytes: &[u8], partition: Option<usize>) -> Result<Vec<u8>> {
    let payloads = frame_payloads_in(bytes, partition)?;
    let total: usize = payloads.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(total);
    for p in payloads {
        out.extend_from_slice(p);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first payload");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"second");
        let payloads = frame_payloads(&buf).unwrap();
        assert_eq!(payloads, vec![b"first payload".as_slice(), b"second".as_slice()]);
        assert_eq!(deframe(&buf).unwrap(), b"first payloadsecond");
    }

    #[test]
    fn empty_buffer_has_no_frames() {
        assert!(frame_payloads(&[]).unwrap().is_empty());
        assert_eq!(deframe(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn interior_bit_flip_is_detected() {
        let mut buf = Vec::new();
        append_frame(&mut buf, &[7u8; 100]);
        for victim in [FRAME_HEADER_LEN, FRAME_HEADER_LEN + 50, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[victim] ^= 0x20;
            let err = deframe(&bad).unwrap_err();
            assert!(err.to_string().contains("checksum mismatch"), "byte {victim}: {err}");
        }
    }

    #[test]
    fn truncation_is_detected_at_any_cut() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"some record bytes");
        for cut in 1..buf.len() {
            let err = deframe(&buf[..cut]).unwrap_err();
            assert!(matches!(err, MspError::CorruptRecord { .. }), "cut {cut}");
        }
    }

    #[test]
    fn second_frame_error_reports_absolute_offset() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"good frame");
        let second_start = buf.len();
        append_frame(&mut buf, b"bad frame");
        buf[second_start + FRAME_HEADER_LEN] ^= 0xFF;
        match deframe(&buf).unwrap_err() {
            MspError::CorruptRecord { offset, .. } => {
                assert_eq!(offset, second_start as u64);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn error_payload_names_partition_frame_offset_and_class() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"frame zero");
        let second_start = buf.len();
        append_frame(&mut buf, b"frame one");

        // Interior corruption in frame 1.
        let mut bad = buf.clone();
        bad[second_start + FRAME_HEADER_LEN] ^= 0xFF;
        let err = deframe_in(&bad, Some(42)).unwrap_err().to_string();
        assert!(err.contains("partition 42"), "{err}");
        assert!(err.contains("frame 1"), "{err}");
        assert!(err.contains(&format!("byte {second_start}")), "{err}");
        assert!(err.contains("interior corruption"), "{err}");

        // Torn tail: cut mid-way through frame 1's payload.
        let cut = &buf[..buf.len() - 3];
        let err = frame_payloads_in(cut, Some(7)).unwrap_err().to_string();
        assert!(err.contains("partition 7"), "{err}");
        assert!(err.contains("frame 1"), "{err}");
        assert!(err.contains("truncated tail"), "{err}");

        // Cut mid-header of frame 1 is also a torn tail.
        let cut = &buf[..second_start + 3];
        let err = frame_payloads_in(cut, None).unwrap_err().to_string();
        assert!(err.contains("truncated tail"), "{err}");
        assert!(!err.contains("partition"), "{err}");
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"tiny");
        let err = frame_payloads(&buf).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }
}
