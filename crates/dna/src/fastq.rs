use std::io::{BufRead, Write};
use std::ops::Range;

use crate::{DnaError, SeqRead};

/// Streaming FASTQ parser.
///
/// Yields one [`SeqRead`] per four-line record. The parser is strict about
/// structure (`@` header, sequence, `+` separator, quality of equal
/// length) but lenient about sequence content: non-ACGT characters
/// normalise to `A`.
///
/// A shared or mutable reference to a reader can be passed wherever
/// `R: BufRead` is required (e.g. `FastqReader::new(&mut file)`).
///
/// # Examples
///
/// ```
/// use dna::FastqReader;
///
/// # fn main() -> Result<(), dna::DnaError> {
/// let text = "@r1\nACGT\n+\nIIII\n@r2\nGGCA\n+\nJJJJ\n";
/// let reads: Result<Vec<_>, _> = FastqReader::new(text.as_bytes()).collect();
/// let reads = reads?;
/// assert_eq!(reads.len(), 2);
/// assert_eq!(reads[1].seq().to_string(), "GGCA");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FastqReader<R> {
    reader: R,
    line: u64,
    buf: Vec<u8>,
}

impl<R: BufRead> FastqReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> FastqReader<R> {
        FastqReader { reader, line: 0, buf: Vec::new() }
    }

    /// Reads the next line into the internal buffer; `Ok(None)` at EOF.
    ///
    /// Lines are raw bytes, exactly as [`FastqSliceReader`] sees them —
    /// sequence and quality strings are not required to be UTF-8, and
    /// both readers must agree on every input.
    fn next_line(&mut self) -> Result<Option<&[u8]>, DnaError> {
        self.buf.clear();
        let n = self.reader.read_until(b'\n', &mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.line += 1;
        let mut line = self.buf.as_slice();
        while let [head @ .., b'\r' | b'\n'] = line {
            line = head;
        }
        Ok(Some(line))
    }

    fn malformed(&self, reason: impl Into<String>) -> DnaError {
        DnaError::MalformedRecord { line: self.line, reason: reason.into() }
    }

    /// Parses one record; `Ok(None)` at a clean EOF.
    ///
    /// # Errors
    ///
    /// Returns [`DnaError::MalformedRecord`] on structural problems
    /// (missing `@`, truncated record, quality/sequence length mismatch)
    /// and [`DnaError::Io`] on read failures.
    pub fn read_record(&mut self) -> Result<Option<SeqRead>, DnaError> {
        let header = loop {
            match self.next_line()? {
                None => return Ok(None),
                Some(b"") => continue, // tolerate blank separator lines
                Some(l) => break l.to_vec(),
            }
        };
        let id = match header.strip_prefix(b"@") {
            Some(id) => String::from_utf8_lossy(id).into_owned(),
            None => {
                return Err(self.malformed(format!(
                    "expected '@' header, got {:?}",
                    String::from_utf8_lossy(&header)
                )));
            }
        };
        let seq = match self.next_line()? {
            Some(l) => l.to_vec(),
            None => return Err(self.malformed("record truncated before sequence line")),
        };
        match self.next_line()? {
            Some(l) if l.first() == Some(&b'+') => {}
            Some(l) => {
                let reason =
                    format!("expected '+' separator, got {:?}", String::from_utf8_lossy(l));
                return Err(self.malformed(reason));
            }
            None => return Err(self.malformed("record truncated before '+' separator")),
        }
        let qual = match self.next_line()? {
            Some(l) => l.to_vec(),
            None => return Err(self.malformed("record truncated before quality line")),
        };
        if qual.len() != seq.len() {
            return Err(self.malformed(format!(
                "quality length {} does not match sequence length {}",
                qual.len(),
                seq.len()
            )));
        }
        Ok(Some(SeqRead::from_ascii(id, &seq).with_quality(qual)))
    }
}

impl<R: BufRead> Iterator for FastqReader<R> {
    type Item = Result<SeqRead, DnaError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

/// Borrowed view of one FASTQ record inside a larger byte slice.
///
/// Produced by [`FastqSliceReader::read_record_view`]; nothing is copied,
/// so parallel ingest can parse straight out of a memory-mapped file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Header line with the leading `@` stripped.
    pub id: &'a [u8],
    /// Raw sequence line (not yet normalised to ACGT).
    pub seq: &'a [u8],
    /// Quality line; always the same length as `seq`.
    pub qual: &'a [u8],
}

/// Zero-copy FASTQ parser over an in-memory byte slice.
///
/// Mirrors [`FastqReader`] exactly — same structural rules, same
/// tolerance for blank lines and CR-LF endings, same error wording — but
/// borrows records out of the slice instead of buffering lines, so the
/// hot ingest path allocates nothing per record.
///
/// # Examples
///
/// ```
/// use dna::FastqSliceReader;
///
/// # fn main() -> Result<(), dna::DnaError> {
/// let text = b"@r1\nACGT\n+\nIIII\n";
/// let mut reader = FastqSliceReader::new(text);
/// let view = reader.read_record_view()?.unwrap();
/// assert_eq!(view.seq, b"ACGT");
/// assert!(reader.read_record_view()?.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FastqSliceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u64,
}

impl<'a> FastqSliceReader<'a> {
    /// Parses from the start of `bytes`, which must be a record boundary.
    pub fn new(bytes: &'a [u8]) -> FastqSliceReader<'a> {
        FastqSliceReader::with_base_line(bytes, 0)
    }

    /// Like [`FastqSliceReader::new`], but error line numbers start after
    /// `base_line` — use when `bytes` is a chunk of a larger file.
    pub fn with_base_line(bytes: &'a [u8], base_line: u64) -> FastqSliceReader<'a> {
        FastqSliceReader { bytes, pos: 0, line: base_line }
    }

    /// Byte offset of the next unparsed line within the slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Lines consumed so far, counted from the base line: the line
    /// number of the last line read.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Next line with trailing `\n`/`\r` trimmed; `None` at EOF.
    fn next_line(&mut self) -> Option<&'a [u8]> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        let (line, advance) = match crate::simd::find_newline(rest) {
            Some(nl) => (&rest[..nl], nl + 1),
            None => (rest, rest.len()),
        };
        self.pos += advance;
        self.line += 1;
        let mut line = line;
        while let [head @ .., b'\r' | b'\n'] = line {
            line = head;
        }
        Some(line)
    }

    fn malformed(&self, reason: impl Into<String>) -> DnaError {
        DnaError::MalformedRecord { line: self.line, reason: reason.into() }
    }

    /// Parses one record without copying; `Ok(None)` at a clean EOF.
    ///
    /// # Errors
    ///
    /// Returns [`DnaError::MalformedRecord`] on the same structural
    /// problems [`FastqReader::read_record`] rejects.
    pub fn read_record_view(&mut self) -> Result<Option<RecordView<'a>>, DnaError> {
        let header = loop {
            match self.next_line() {
                None => return Ok(None),
                Some(b"") => continue, // tolerate blank separator lines
                Some(l) => break l,
            }
        };
        let id = header.strip_prefix(b"@").ok_or_else(|| {
            self.malformed(format!(
                "expected '@' header, got {:?}",
                String::from_utf8_lossy(header)
            ))
        })?;
        let seq = self
            .next_line()
            .ok_or_else(|| self.malformed("record truncated before sequence line"))?;
        match self.next_line() {
            Some(l) if l.first() == Some(&b'+') => {}
            Some(l) => {
                return Err(self.malformed(format!(
                    "expected '+' separator, got {:?}",
                    String::from_utf8_lossy(l)
                )));
            }
            None => return Err(self.malformed("record truncated before '+' separator")),
        }
        let qual = self
            .next_line()
            .ok_or_else(|| self.malformed("record truncated before quality line"))?;
        if qual.len() != seq.len() {
            return Err(self.malformed(format!(
                "quality length {} does not match sequence length {}",
                qual.len(),
                seq.len()
            )));
        }
        Ok(Some(RecordView { id, seq, qual }))
    }

    /// Parses one record into an owned [`SeqRead`]; `Ok(None)` at EOF.
    ///
    /// # Errors
    ///
    /// Same as [`FastqSliceReader::read_record_view`].
    pub fn read_record(&mut self) -> Result<Option<SeqRead>, DnaError> {
        Ok(self.read_record_view()?.map(|v| {
            SeqRead::from_ascii(String::from_utf8_lossy(v.id).into_owned(), v.seq)
                .with_quality(v.qual.to_vec())
        }))
    }
}

impl<'a> Iterator for FastqSliceReader<'a> {
    type Item = Result<SeqRead, DnaError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

/// Index just past the next `\n` at or after `start` (slice length if
/// the last line is unterminated).
fn line_after(bytes: &[u8], start: usize) -> usize {
    match crate::simd::find_newline(&bytes[start.min(bytes.len())..]) {
        Some(nl) => start + nl + 1,
        None => bytes.len(),
    }
}

/// The line beginning at `start`, with the trailing `\n`/`\r` trimmed.
fn line_at(bytes: &[u8], start: usize) -> &[u8] {
    let end = line_after(bytes, start);
    let mut line = &bytes[start.min(end)..end];
    while let [head @ .., b'\r' | b'\n'] = line {
        line = head;
    }
    line
}

/// A line start looks like a record boundary if it begins with `@` and
/// the line two ahead begins with `+` (header/sequence/separator shape),
/// and parsing up to two records from it succeeds. Quality strings can
/// begin with `@`, so the shape check alone is not sufficient; the parse
/// check rejects those impostors for realistic inputs, but a file can be
/// built so that a mid-record offset parses as two clean records (a
/// quality line starting `@` whose following lines happen to line up).
/// This is therefore only a *candidate* test: true boundaries require an
/// anchored parse from a known boundary, which is exactly what
/// [`chunk_record_ranges`] does.
fn is_record_start(bytes: &[u8], start: usize) -> bool {
    let mut reader = FastqSliceReader::new(&bytes[start..]);
    match reader.read_record_view() {
        Ok(Some(_)) => {}
        _ => return false,
    }
    reader.read_record_view().is_ok()
}

/// Finds the first *plausible* FASTQ record boundary at or after byte
/// `from`.
///
/// Scans forward line by line (resynchronising at the next `\n` when
/// `from` lands mid-line), skipping blank lines, and returns the offset
/// of the first line that looks like a record start — an `@` line whose
/// second line ahead begins with `+`, from which up to two records parse.
/// `None` when no
/// boundary exists before the end of the slice.
///
/// Because FASTQ quality strings may contain any character — including a
/// leading `@` or `+` — phase cannot be decided from a mid-file offset
/// alone, and an adversarial file can make this heuristic return a
/// mid-record offset. Callers that hold the bytes back to a *known*
/// boundary must validate candidates against an anchored parse;
/// [`chunk_record_ranges`] does so and is immune to impostors.
pub fn next_record_start(bytes: &[u8], from: usize) -> Option<usize> {
    if from > bytes.len() {
        return None;
    }
    let mut pos = if from == 0 || bytes[from - 1] == b'\n' {
        from
    } else {
        line_after(bytes, from)
    };
    while pos < bytes.len() {
        let line = line_at(bytes, pos);
        if !line.is_empty() && line[0] == b'@' {
            let sep_start = line_after(bytes, line_after(bytes, pos));
            let sep = line_at(bytes, sep_start);
            if sep.first() == Some(&b'+') && is_record_start(bytes, pos) {
                return Some(pos);
            }
        }
        pos = line_after(bytes, pos);
    }
    None
}

/// Splits a FASTQ byte slice into contiguous ranges of roughly
/// `target_bytes` each, cut only at record boundaries.
///
/// The ranges tile `0..bytes.len()` exactly; parsing each range with
/// [`FastqSliceReader`] yields the same records as parsing the whole
/// slice sequentially — including a final record with no trailing
/// newline, and including *adversarial* files whose quality lines start
/// with `@` and mimic record starts. The final range absorbs any tail
/// smaller than `target_bytes`, and a slice with no interior boundary
/// comes back as a single range.
///
/// Every cut is taken from a single forward parse anchored at offset 0 —
/// the one offset known to be a record boundary — so a cut can only land
/// where the sequential parser itself finishes a record; guessing the
/// phase of an `@`-line (header vs quality) never enters into it. A
/// malformed record stops the cutting: the rest of the slice becomes one
/// range, whose consumer then reports the same error a sequential read
/// would.
pub fn chunk_record_ranges(bytes: &[u8], target_bytes: usize) -> Vec<Range<usize>> {
    chunk_records(bytes, target_bytes).into_iter().map(|(range, _)| range).collect()
}

/// [`chunk_record_ranges`], each range with the number of lines before
/// it — what the anchored parse counted on its way there. A reader of
/// one chunk alone reports whole-file line numbers when started there
/// ([`FastqSliceReader::with_base_line`]).
pub fn chunk_records(bytes: &[u8], target_bytes: usize) -> Vec<(Range<usize>, u64)> {
    let mut chunks = Vec::new();
    if bytes.is_empty() {
        return chunks;
    }
    let target = target_bytes.max(1);
    let mut reader = FastqSliceReader::new(bytes);
    let (mut start, mut line) = (0usize, 0u64);
    loop {
        let Some(goal) = start.checked_add(target).filter(|&g| g < bytes.len()) else {
            chunks.push((start..bytes.len(), line));
            return chunks;
        };
        while reader.pos() < goal {
            match reader.read_record_view() {
                Ok(Some(_)) => {}
                // Clean EOF (trailing blank lines) or a malformed record:
                // no further boundary is knowable.
                _ => {
                    chunks.push((start..bytes.len(), line));
                    return chunks;
                }
            }
        }
        let cut = reader.pos();
        if cut >= bytes.len() {
            chunks.push((start..bytes.len(), line));
            return chunks;
        }
        chunks.push((start..cut, line));
        (start, line) = (cut, reader.line());
    }
}

/// FASTQ writer, the inverse of [`FastqReader`].
///
/// Reads without a stored quality string are written with a constant
/// placeholder quality (`I`, Phred 40).
#[derive(Debug)]
pub struct FastqWriter<W> {
    writer: W,
}

impl<W: Write> FastqWriter<W> {
    /// Wraps a writer. Pass `&mut w` to keep ownership at the call site.
    pub fn new(writer: W) -> FastqWriter<W> {
        FastqWriter { writer }
    }

    /// Writes one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying writer.
    pub fn write_record(&mut self, read: &SeqRead) -> Result<(), DnaError> {
        let seq = read.seq().to_ascii();
        writeln!(self.writer, "@{}", read.id())?;
        self.writer.write_all(&seq)?;
        self.writer.write_all(b"\n+\n")?;
        match read.quality() {
            Some(q) => self.writer.write_all(q)?,
            None => self.writer.write_all(&vec![b'I'; seq.len()])?,
        }
        self.writer.write_all(b"\n")?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn into_inner(mut self) -> Result<W, DnaError> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Vec<SeqRead>, DnaError> {
        FastqReader::new(text.as_bytes()).collect()
    }

    #[test]
    fn parses_multiple_records() {
        let reads = parse("@a\nACGT\n+\n!!!!\n@b\nGG\n+anything\nII\n").unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].id(), "a");
        assert_eq!(reads[0].quality(), Some(&b"!!!!"[..]));
        assert_eq!(reads[1].seq().to_string(), "GG");
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("\n\n").unwrap().is_empty());
    }

    #[test]
    fn crlf_line_endings_are_trimmed() {
        let reads = parse("@a\r\nACGT\r\n+\r\nIIII\r\n").unwrap();
        assert_eq!(reads[0].seq().to_string(), "ACGT");
        assert_eq!(reads[0].quality().unwrap().len(), 4);
    }

    #[test]
    fn missing_at_header_is_rejected() {
        let err = parse(">a\nACGT\n+\nIIII\n").unwrap_err();
        assert!(matches!(err, DnaError::MalformedRecord { line: 1, .. }));
    }

    #[test]
    fn truncated_record_is_rejected() {
        assert!(parse("@a\nACGT\n").is_err());
        assert!(parse("@a\nACGT\n+\n").is_err());
        assert!(parse("@a\n").is_err());
    }

    #[test]
    fn quality_length_mismatch_is_rejected() {
        let err = parse("@a\nACGT\n+\nII\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("quality length 2"), "{msg}");
    }

    #[test]
    fn n_bases_normalise_to_a() {
        let reads = parse("@a\nANNT\n+\nIIII\n").unwrap();
        assert_eq!(reads[0].seq().to_string(), "AAAT");
    }

    #[test]
    fn writer_roundtrip() {
        let original = parse("@a\nACGT\n+\nABCD\n@b\nGGTTA\n+\nIIIII\n").unwrap();
        let mut buf = Vec::new();
        let mut w = FastqWriter::new(&mut buf);
        for r in &original {
            w.write_record(r).unwrap();
        }
        w.into_inner().unwrap();
        let reparsed = parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn writer_synthesises_quality_when_absent() {
        let mut buf = Vec::new();
        FastqWriter::new(&mut buf).write_record(&SeqRead::from_ascii("x", b"ACG")).unwrap();
        assert_eq!(std::str::from_utf8(&buf).unwrap(), "@x\nACG\n+\nIII\n");
    }

    fn parse_slice(text: &str) -> Result<Vec<SeqRead>, DnaError> {
        FastqSliceReader::new(text.as_bytes()).collect()
    }

    /// The two parsers' contract: byte-identical outcomes — same records,
    /// or same error Display (text *and* line number) — on any input.
    fn assert_readers_agree(bytes: &[u8]) {
        let via_stream: Result<Vec<_>, _> = FastqReader::new(bytes).collect();
        let via_slice: Result<Vec<_>, _> = FastqSliceReader::new(bytes).collect();
        match (via_stream, via_slice) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "records diverged on {bytes:?}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "errors diverged on {bytes:?}");
            }
            (a, b) => panic!("outcome diverged on {bytes:?}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn slice_reader_matches_streaming_reader() {
        let cases: &[&[u8]] = &[
            b"@a\nACGT\n+\n!!!!\n@b\nGG\n+anything\nII\n",
            b"",
            b"\n\n",
            b"@a\r\nACGT\r\n+\r\nIIII\r\n",
            b"@a\nANNT\n+\nIIII\n",
            b"\n@a\nAC\n+\nII\n\n\n@b\nGT\n+\nII", // blank lines + no final \n
            b">a\nACGT\n+\nIIII\n",
            b"@a\nACGT\n",
            b"@a\nACGT\n+\n",
            b"@a\n",
            b"@a\nACGT\n+\nII\n",
            b"@a\nACGT\nIIII\nIIII\n",
        ];
        for bytes in cases {
            assert_readers_agree(bytes);
        }
    }

    #[test]
    fn readers_agree_on_malformed_and_non_utf8_input() {
        let cases: &[&[u8]] = &[
            // Truncated records, with and without CRLF endings.
            b"@a\r\nACGT\r\n",
            b"@a\r\nACGT\r\n+\r\n",
            b"@a\r\n",
            b"@a\r\nACGT\r\n+\r\nII\r\n", // CRLF quality/sequence mismatch
            // Empty sequence line: the '+' may become the "sequence" or
            // the quality may mismatch — both readers must agree which.
            b"@a\n\n+\n\n",
            b"@a\n\nACGT\n+\nIIII\n",
            b"@a\n\n+\nIIII\n",
            // Non-UTF-8 bytes in sequence, quality, header, separator:
            // neither reader may bail with an encoding error when the
            // other parses (sequence content is bytes, not text).
            b"@a\nAC\xFFGT\n+\nIIIII\n",
            b"@a\xF0\x28\nACGT\n+\nIIII\n",
            b"@a\nACGT\n+\xFF\nIIII\n",
            b"@a\nACGT\n\xFF+\nIIII\n",
            b"\xFFa\nACGT\n+\nIIII\n",
            // Non-UTF-8 *and* truncated mid-record.
            b"@a\nAC\xFFGT\n+\n",
        ];
        for bytes in cases {
            assert_readers_agree(bytes);
        }
    }

    #[test]
    fn rebased_slice_errors_match_streaming_line_numbers() {
        // One good record, then a malformed one: parsing the second
        // record as a chunk with `with_base_line` must reproduce the
        // streaming reader's error verbatim, absolute line number
        // included.
        let text = b"@r0\nACGT\n+\nIIII\n@bad\nACGT\n+\nII\n";
        let stream_err =
            FastqReader::new(&text[..]).collect::<Result<Vec<_>, _>>().unwrap_err();
        let off = text.iter().position(|&b| b == b'b').unwrap() - 1; // "@bad"
        let lines_before = text[..off].iter().filter(|&&b| b == b'\n').count() as u64;
        let chunk_err = FastqSliceReader::with_base_line(&text[off..], lines_before)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(stream_err.to_string(), chunk_err.to_string());
        assert!(stream_err.to_string().contains("line 8"), "{stream_err}");
    }

    #[test]
    fn slice_reader_reports_offset_lines() {
        let err = FastqSliceReader::with_base_line(b">x\nAC\n+\nII\n", 10)
            .read_record_view()
            .unwrap_err();
        assert!(matches!(err, DnaError::MalformedRecord { line: 11, .. }));
    }

    #[test]
    fn record_views_borrow_without_copying() {
        let text = b"@read/1\nACGTN\n+\nIIIII\n";
        let mut r = FastqSliceReader::new(text);
        let v = r.read_record_view().unwrap().unwrap();
        assert_eq!(v.id, b"read/1");
        assert_eq!(v.seq, b"ACGTN");
        assert_eq!(v.qual, b"IIIII");
        assert_eq!(r.pos(), text.len());
        assert!(r.read_record_view().unwrap().is_none());
    }

    /// Corpus with traps: quality lines starting with `@` and `+`, CRLF,
    /// blank lines between records, unterminated final line.
    fn tricky_corpus() -> String {
        let mut s = String::new();
        s.push_str("@r0\nACGTACGT\n+\n@@@@@@@@\n");
        s.push_str("\n@r1\r\nGGGG\r\n+r1\r\n+@+@\r\n");
        s.push_str("@r2\nTTTTTTTTTTTT\n+\nIIIIIIIIIIII\n");
        s.push_str("@r3\nAC\n+\n@I");
        s
    }

    fn record_starts(text: &str) -> Vec<usize> {
        // Every record in `tricky_corpus` begins with "@r<digit>".
        (0..text.len().saturating_sub(2))
            .filter(|&i| {
                (i == 0 || text.as_bytes()[i - 1] == b'\n')
                    && text[i..].starts_with("@r")
                    && text.as_bytes()[i + 2].is_ascii_digit()
            })
            .collect()
    }

    #[test]
    fn next_record_start_finds_every_true_boundary() {
        let text = tricky_corpus();
        let starts = record_starts(&text);
        assert_eq!(starts.len(), 4);
        for from in 0..=text.len() {
            let expected = starts.iter().copied().find(|&s| s >= from);
            assert_eq!(
                next_record_start(text.as_bytes(), from),
                expected,
                "wrong boundary from offset {from}"
            );
        }
    }

    /// Each chunk's line count is the newlines before it, so a reader
    /// started there with that base line names whole-file lines — blank
    /// separator lines and CRLF endings included.
    #[test]
    fn chunk_records_count_the_lines_before_each_chunk() {
        let blanks = "@a\r\nACGT\r\n+\r\nIIII\r\n\n\n@b\nAC\n+\nII\n\n@c\nGGT\n+\nIII";
        for text in [tricky_corpus(), blanks.to_owned()] {
            for target in 1..=text.len() + 4 {
                let chunks = chunk_records(text.as_bytes(), target);
                let ranges: Vec<_> = chunks.iter().map(|(r, _)| r.clone()).collect();
                assert_eq!(ranges, chunk_record_ranges(text.as_bytes(), target));
                for (r, line) in chunks {
                    let before = text.as_bytes()[..r.start].iter().filter(|&&b| b == b'\n');
                    assert_eq!(line, before.count() as u64, "chunk {r:?} at target {target}");
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_tile_and_preserve_records() {
        let text = tricky_corpus();
        let whole = parse_slice(&text).unwrap();
        for target in 1..=text.len() + 4 {
            let ranges = chunk_record_ranges(text.as_bytes(), target);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(text.len()));
            let mut rejoined = Vec::new();
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "ranges must tile at target {target}");
            }
            for r in &ranges {
                rejoined
                    .extend(parse_slice(&text[r.clone()]).unwrap_or_else(|e| {
                        panic!("chunk {r:?} at target {target} failed: {e}")
                    }));
            }
            assert_eq!(rejoined, whole, "records diverged at target {target}");
        }
        assert!(chunk_record_ranges(b"", 64).is_empty());
    }

    /// Adversarial corpus: `@AAA` is record r0's *quality* line, but the
    /// lines after it are laid out so that parsing from `@AAA` yields two
    /// structurally clean records (`@AAA/@r1/+GGG/+ab` and
    /// `@III/@r2/+CGT/+xy`) — the exact impostor the old shape-plus-parse
    /// candidate check accepted, cutting a chunk mid-record.
    fn adversarial_corpus() -> &'static str {
        "@r0\nAAAA\n+\n@AAA\n@r1\n+GGG\n+ab\n@III\n@r2\n+CGT\n+xy\n@@@@\n"
    }

    #[test]
    fn adversarial_quality_header_cannot_split_mid_record() {
        let text = adversarial_corpus();
        // The impostor really does fool the candidate heuristic…
        let fake = text.find("@AAA").unwrap();
        assert!(
            is_record_start(text.as_bytes(), fake),
            "corpus must exercise the impostor path: @AAA parses as two records"
        );
        // …but never the chunker: the anchored parse cuts only where the
        // sequential parser finishes a record.
        let whole = parse_slice(text).unwrap();
        assert_eq!(whole.len(), 3);
        assert_eq!(whole[0].quality(), Some(&b"@AAA"[..]));
        for target in 1..=text.len() + 4 {
            let ranges = chunk_record_ranges(text.as_bytes(), target);
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(text.len()));
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "ranges must tile at target {target}");
                assert_ne!(pair[1].start, fake, "cut on the impostor at target {target}");
            }
            let mut rejoined = Vec::new();
            for r in &ranges {
                rejoined.extend(parse_slice(&text[r.clone()]).unwrap_or_else(|e| {
                    panic!("chunk {r:?} at target {target} split mid-record: {e}")
                }));
            }
            assert_eq!(rejoined, whole, "records diverged at target {target}");
        }
    }

    #[test]
    fn final_record_without_newline_chunks_like_sequential_reader() {
        // The last record ends at EOF with no trailing `\n`; every chunk
        // target must reproduce exactly what the streaming reader sees.
        let text = "@r0\nACGTACGT\n+\n@@@@@@@@\n@r1\nGGGG\n+\nIIII\n@r2\nAC\n+\n@I";
        let sequential = parse(text).unwrap();
        assert_eq!(sequential.len(), 3);
        assert_eq!(sequential[2].quality(), Some(&b"@I"[..]));
        for target in 1..=text.len() + 4 {
            let ranges = chunk_record_ranges(text.as_bytes(), target);
            assert_eq!(ranges.last().map(|r| r.end), Some(text.len()));
            let mut rejoined = Vec::new();
            for r in &ranges {
                rejoined.extend(parse_slice(&text[r.clone()]).unwrap_or_else(|e| {
                    panic!("chunk {r:?} at target {target} failed: {e}")
                }));
            }
            assert_eq!(rejoined, sequential, "diverged from FastqReader at target {target}");
        }
    }

    #[test]
    fn malformed_tail_stays_in_one_chunk() {
        // A malformed record (quality/sequence length mismatch) freezes
        // cutting: everything from the last good cut onward is a single
        // range, so the consumer hits the identical error a sequential
        // parse reports.
        let text = "@r0\nACGT\n+\nIIII\n@bad\nACGT\n+\nII\n@r1\nGG\n+\nII\n";
        let seq_err = parse_slice(text).unwrap_err().to_string();
        for target in 1..=text.len() + 4 {
            let ranges = chunk_record_ranges(text.as_bytes(), target);
            assert_eq!(ranges.last().map(|r| r.end), Some(text.len()));
            let chunk_err = ranges
                .iter()
                .find_map(|r| parse_slice(&text[r.clone()]).err())
                .unwrap_or_else(|| {
                    panic!("malformed record must surface from some chunk at target {target}")
                })
                .to_string();
            // Line numbers are chunk-relative here (callers rebase via
            // `with_base_line`); compare the reason text after "line N: ".
            let reason = |s: &str| s.split_once(": ").map(|(_, r)| r.to_owned());
            assert_eq!(reason(&chunk_err), reason(&seq_err), "error diverged at target {target}");
        }
    }
}
