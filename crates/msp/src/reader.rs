use std::ops::Range;
use std::path::Path;

use crate::{MspError, Result};

/// A FASTQ input file prepared for parallel ingest: the whole file
/// addressable as one byte slice (memory-mapped when possible, inflated
/// into memory when gzip-compressed) plus precomputed record-aligned
/// chunk ranges that Step-1 workers can parse independently.
///
/// Gzip inputs are detected by magic number. Multi-member streams (BGZF
/// and plain concatenated gzip, the common layout for big sequencing
/// runs) are inflated member-parallel across the machine's cores;
/// single-member streams (and any stream on a one-core machine) inflate
/// sequentially.
///
/// # Examples
///
/// ```no_run
/// use msp::FastqChunks;
///
/// # fn main() -> msp::Result<()> {
/// let chunks = FastqChunks::open("reads.fastq", 8 << 20)?;
/// for i in 0..chunks.n_chunks() {
///     let bytes = chunks.chunk(i); // starts at a record boundary
///     let _ = bytes.len();
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FastqChunks {
    bytes: dna::InputBytes,
    ranges: Vec<Range<usize>>,
}

impl FastqChunks {
    /// Opens `path` and splits it into record-aligned chunks of roughly
    /// `target_bytes` each (after decompression, for gzip inputs).
    ///
    /// # Errors
    ///
    /// Returns [`MspError::Io`] if the file cannot be read or its gzip
    /// framing is invalid.
    pub fn open(path: impl AsRef<Path>, target_bytes: usize) -> Result<FastqChunks> {
        let input = dna::InputBytes::open(path)?;
        let input = if dna::gzip::is_gzip(input.as_bytes()) {
            let inflated = decompress_parallel(input.as_bytes())
                .map_err(|e| MspError::Io(std::io::Error::other(e)))?;
            dna::InputBytes::from_vec(inflated)
        } else {
            input
        };
        let ranges = dna::chunk_record_ranges(input.as_bytes(), target_bytes);
        Ok(FastqChunks { bytes: input, ranges })
    }

    /// The whole (decompressed) file.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.as_bytes()
    }

    /// The record-aligned chunk ranges; they tile `0..bytes().len()`.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of chunks (zero for an empty file).
    pub fn n_chunks(&self) -> usize {
        self.ranges.len()
    }

    /// The bytes of chunk `index`; starts at a record boundary.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn chunk(&self, index: usize) -> &[u8] {
        &self.bytes.as_bytes()[self.ranges[index].clone()]
    }
}

/// Inflates a gzip stream, splitting multi-member streams across threads
/// (each member is an independent deflate stream, so members can inflate
/// concurrently and concatenate in order).
fn decompress_parallel(data: &[u8]) -> std::result::Result<Vec<u8>, dna::DnaError> {
    let members = dna::gzip::member_ranges(data)?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from).min(members.len());
    if threads <= 1 {
        return dna::gzip::decompress(data);
    }
    inflate_members(data, &members, threads)
}

/// Inflates `members` of `data` on `threads` scoped threads, concatenating
/// the parts in member order.
fn inflate_members(
    data: &[u8],
    members: &[Range<usize>],
    threads: usize,
) -> std::result::Result<Vec<u8>, dna::DnaError> {
    let per_thread = members.len().div_ceil(threads);
    let parts: Vec<std::result::Result<Vec<u8>, dna::DnaError>> = std::thread::scope(|s| {
        let handles: Vec<_> = members
            .chunks(per_thread)
            .map(|group| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for r in group {
                        dna::gzip::decompress_member(&data[r.clone()], &mut out)?;
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("gzip worker panicked")).collect()
    });
    let mut out = Vec::new();
    for part in parts {
        out.append(&mut part?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("msp-reader-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Deterministic FASTQ text of `n` records with varied lengths.
    fn fastq_text(n: usize) -> String {
        let mut s = String::new();
        for i in 0..n {
            let len = 40 + (i * 13) % 61;
            let seq: String =
                (0..len).map(|j| ['A', 'C', 'G', 'T'][(i * 7 + j * 3) % 4]).collect();
            s.push_str(&format!("@r{i}\n{seq}\n+\n{}\n", "I".repeat(len)));
        }
        s
    }

    fn slurp_records(bytes: &[u8]) -> Vec<dna::SeqRead> {
        dna::FastqSliceReader::new(bytes).collect::<std::result::Result<_, _>>().unwrap()
    }

    #[test]
    fn fastq_chunks_tile_plain_files() {
        let text = fastq_text(200);
        let path = tmpdir("chunks-plain").with_extension("fastq");
        fs::write(&path, &text).unwrap();
        let chunks = FastqChunks::open(&path, 1024).unwrap();
        assert_eq!(chunks.bytes(), text.as_bytes());
        assert!(chunks.n_chunks() > 3, "1 KiB target must split {} bytes", text.len());
        let whole = slurp_records(text.as_bytes());
        let mut rejoined = Vec::new();
        let mut end = 0;
        for (i, r) in chunks.ranges().iter().enumerate() {
            assert_eq!(r.start, end, "chunks must tile");
            end = r.end;
            rejoined.extend(slurp_records(chunks.chunk(i)));
        }
        assert_eq!(end, text.len());
        assert_eq!(rejoined, whole);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fastq_chunks_inflate_multi_member_gzip() {
        let text = fastq_text(1500); // > 2 BGZF members of 60_000 bytes
        let gz = dna::gzip::compress_bgzf(text.as_bytes());
        assert!(dna::gzip::member_ranges(&gz).unwrap().len() >= 2);
        let path = tmpdir("chunks-bgzf").with_extension("fastq.gz");
        fs::write(&path, &gz).unwrap();
        let chunks = FastqChunks::open(&path, 16 << 10).unwrap();
        assert_eq!(chunks.bytes(), text.as_bytes());
        assert_eq!(
            chunks.ranges().iter().flat_map(|r| slurp_records(&text.as_bytes()[r.clone()])).count(),
            1500
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn member_parallel_inflate_matches_sequential() {
        let text = fastq_text(1500);
        let gz = dna::gzip::compress_bgzf(text.as_bytes());
        let members = dna::gzip::member_ranges(&gz).unwrap();
        assert!(members.len() >= 2);
        let sequential = dna::gzip::decompress(&gz).unwrap();
        assert_eq!(sequential, text.as_bytes());
        for threads in [2, 3] {
            let parallel = inflate_members(&gz, &members, threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn fastq_chunks_inflate_single_member_gzip() {
        let text = fastq_text(30);
        let path = tmpdir("chunks-gz").with_extension("fastq.gz");
        fs::write(&path, dna::gzip::compress_stored(text.as_bytes())).unwrap();
        let chunks = FastqChunks::open(&path, usize::MAX).unwrap();
        assert_eq!(chunks.bytes(), text.as_bytes());
        assert_eq!(chunks.n_chunks(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fastq_chunks_reject_corrupt_gzip() {
        let mut gz = dna::gzip::compress_stored(fastq_text(5).as_bytes());
        let mid = gz.len() / 2;
        gz[mid] ^= 0xFF;
        let path = tmpdir("chunks-bad").with_extension("fastq.gz");
        fs::write(&path, &gz).unwrap();
        assert!(matches!(FastqChunks::open(&path, 1024), Err(MspError::Io(_))));
        fs::remove_file(&path).unwrap();
    }
}
