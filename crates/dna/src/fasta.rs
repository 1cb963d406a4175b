use std::io::{BufRead, Write};

use crate::{DnaError, PackedSeq, SeqRead};

/// Streaming FASTA parser.
///
/// Yields one [`SeqRead`] per `>`-headed record; multi-line sequences are
/// concatenated. Sequence content outside ACGT normalises to `A`.
///
/// # Examples
///
/// ```
/// use dna::FastaReader;
///
/// # fn main() -> Result<(), dna::DnaError> {
/// let text = ">chr1 description\nACGT\nTTGG\n>chr2\nCCAA\n";
/// let recs: Result<Vec<_>, _> = FastaReader::new(text.as_bytes()).collect();
/// let recs = recs?;
/// assert_eq!(recs[0].id(), "chr1 description");
/// assert_eq!(recs[0].seq().to_string(), "ACGTTTGG");
/// assert_eq!(recs[1].len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FastaReader<R> {
    reader: R,
    line: u64,
    pending_header: Option<String>,
    done: bool,
}

impl<R: BufRead> FastaReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> FastaReader<R> {
        FastaReader { reader, line: 0, pending_header: None, done: false }
    }

    /// Parses the next record; `Ok(None)` at a clean EOF.
    ///
    /// # Errors
    ///
    /// Returns [`DnaError::MalformedRecord`] if sequence data precedes the
    /// first header, and [`DnaError::Io`] on read failures.
    pub fn read_record(&mut self) -> Result<Option<SeqRead>, DnaError> {
        if self.done {
            return Ok(None);
        }
        let mut buf = String::new();
        let header = loop {
            match self.pending_header.take() {
                Some(h) => break h,
                None => {
                    buf.clear();
                    if self.reader.read_line(&mut buf)? == 0 {
                        self.done = true;
                        return Ok(None);
                    }
                    self.line += 1;
                    let line = buf.trim_end_matches(['\n', '\r']);
                    if line.is_empty() {
                        continue;
                    }
                    match line.strip_prefix('>') {
                        Some(h) => break h.to_owned(),
                        None => {
                            return Err(DnaError::MalformedRecord {
                                line: self.line,
                                reason: format!("sequence data {line:?} before any '>' header"),
                            })
                        }
                    }
                }
            }
        };
        let mut seq = PackedSeq::new();
        loop {
            buf.clear();
            if self.reader.read_line(&mut buf)? == 0 {
                self.done = true;
                break;
            }
            self.line += 1;
            let line = buf.trim_end_matches(['\n', '\r']);
            if line.is_empty() {
                continue;
            }
            if let Some(h) = line.strip_prefix('>') {
                self.pending_header = Some(h.to_owned());
                break;
            }
            seq.extend_from_ascii(line.as_bytes());
        }
        Ok(Some(SeqRead::new(header, seq)))
    }
}

impl<R: BufRead> Iterator for FastaReader<R> {
    type Item = Result<SeqRead, DnaError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

/// FASTA writer with configurable line wrapping.
#[derive(Debug)]
pub struct FastaWriter<W> {
    writer: W,
    width: usize,
}

impl<W: Write> FastaWriter<W> {
    /// Wraps a writer with the conventional 70-column wrapping.
    pub fn new(writer: W) -> FastaWriter<W> {
        FastaWriter { writer, width: 70 }
    }

    /// Wraps a writer with custom line width (0 means no wrapping).
    pub fn with_width(writer: W, width: usize) -> FastaWriter<W> {
        FastaWriter { writer, width }
    }

    /// Writes one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying writer.
    pub fn write_record(&mut self, read: &SeqRead) -> Result<(), DnaError> {
        writeln!(self.writer, ">{}", read.id())?;
        let ascii = read.seq().to_ascii();
        if self.width == 0 || ascii.is_empty() {
            self.writer.write_all(&ascii)?;
            self.writer.write_all(b"\n")?;
        } else {
            for chunk in ascii.chunks(self.width) {
                self.writer.write_all(chunk)?;
                self.writer.write_all(b"\n")?;
            }
        }
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
        FastaReader::new(text.as_bytes()).collect()
    }

    #[test]
    fn parses_multiline_records() {
        let recs = parse(">a\nAC\nGT\n>b\nGG\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq().to_string(), "ACGT");
        assert_eq!(recs[1].id(), "b");
    }

    #[test]
    fn empty_and_blank_inputs() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("\n\n\n").unwrap().is_empty());
    }

    #[test]
    fn record_with_no_sequence_is_empty_read() {
        let recs = parse(">lonely\n>next\nAC\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].is_empty());
        assert_eq!(recs[1].seq().to_string(), "AC");
    }

    #[test]
    fn leading_sequence_is_rejected() {
        let err = parse("ACGT\n>a\nGG\n").unwrap_err();
        assert!(matches!(err, DnaError::MalformedRecord { line: 1, .. }));
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let recs = parse(">a\nACGT").unwrap();
        assert_eq!(recs[0].seq().to_string(), "ACGT");
    }

    #[test]
    fn writer_roundtrip_with_wrapping() {
        let long = "ACGT".repeat(50);
        let original = vec![SeqRead::from_ascii("long record", long.as_bytes())];
        let mut buf = Vec::new();
        let mut w = FastaWriter::with_width(&mut buf, 7);
        for r in &original {
            w.write_record(r).unwrap();
        }
        w.into_inner().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().skip(1).all(|l| l.len() <= 7));
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn writer_unwrapped() {
        let mut buf = Vec::new();
        FastaWriter::with_width(&mut buf, 0)
            .write_record(&SeqRead::from_ascii("x", b"ACGTACGT"))
            .unwrap();
        assert_eq!(std::str::from_utf8(&buf).unwrap(), ">x\nACGTACGT\n");
    }
}
