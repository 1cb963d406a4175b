use std::ops::Range;
use std::path::Path;

use crate::{MspError, Result};

/// A FASTQ input file prepared for parallel ingest: record-aligned chunk
/// ranges that Step-1 workers can parse independently, each with its
/// first line number, and the bytes to read them from.
///
/// The cuts come from one anchored parse of the whole file (see
/// [`dna::chunk_records`]) over a memory mapping, which is dropped as
/// soon as the cutting is done: a mapped file's chunks are then read
/// with positional reads, each into a buffer its reader supplies and
/// reuses, so ingest holds only the chunks in flight. An input that
/// cannot be mapped — a pipe, a FIFO, or a platform without `mmap` — is
/// read into memory once, and its chunks stay there. A gzip input is
/// detected by magic number and inflated into memory, where its chunks
/// stay. Multi-member streams (BGZF and plain concatenated gzip, the
/// common layout for big sequencing runs) are inflated member-parallel
/// across the machine's cores; single-member streams (and any stream on
/// a one-core machine) inflate sequentially.
///
/// # Examples
///
/// ```no_run
/// use msp::FastqChunks;
///
/// # fn main() -> msp::Result<()> {
/// let chunks = FastqChunks::open("reads.fastq", 8 << 20)?;
/// let mut buffer = Vec::new();
/// for i in 0..chunks.n_chunks() {
///     let bytes = chunks.chunk(i, &mut buffer)?; // starts at a record boundary
///     let _ = (bytes.len(), chunks.first_line(i));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FastqChunks {
    text: Text,
    /// Each chunk's byte range and the lines before it.
    chunks: Vec<(Range<usize>, u64)>,
}

/// Where a [`FastqChunks`]' bytes are read from.
#[derive(Debug)]
enum Text {
    /// A file that could be mapped: cut over its mapping, then read at
    /// each chunk's offset.
    #[cfg(all(unix, target_pointer_width = "64"))]
    File(std::fs::File),
    /// The whole text in memory: an inflated gzip stream, or an input
    /// that could not be mapped.
    Memory(dna::InputBytes),
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
        let file = std::fs::File::open(path)?;
        let mut input = dna::InputBytes::from_file(&file)?;
        if dna::gzip::is_gzip(input.as_bytes()) {
            let inflated = decompress_parallel(input.as_bytes())
                .map_err(|e| MspError::Io(std::io::Error::other(e)))?;
            input = dna::InputBytes::from_vec(inflated);
        }
        let chunks = dna::chunk_records(input.as_bytes(), target_bytes);
        #[cfg(all(unix, target_pointer_width = "64"))]
        if input.is_mapped() {
            drop(input);
            return Ok(FastqChunks { text: Text::File(file), chunks });
        }
        Ok(FastqChunks { text: Text::Memory(input), chunks })
    }

    /// Chunk `index`'s byte range. The ranges are record-aligned and
    /// tile the whole (decompressed) file.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn range(&self, index: usize) -> Range<usize> {
        self.chunks[index].0.clone()
    }

    /// Number of chunks (zero for an empty file).
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The lines before chunk `index`: a parser of the chunk alone
    /// reports whole-file line numbers from this base
    /// ([`dna::FastqSliceReader::with_base_line`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn first_line(&self, index: usize) -> u64 {
        self.chunks[index].1
    }

    /// The bytes of chunk `index`, which start at a record boundary:
    /// read into `buffer` (its capacity reused) from a mapped file,
    /// borrowed from memory otherwise.
    ///
    /// # Errors
    ///
    /// The positional read's I/O error — a file that shrank since it was
    /// cut ends early.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn chunk<'s>(&'s self, index: usize, buffer: &'s mut Vec<u8>) -> std::io::Result<&'s [u8]> {
        let range = self.range(index);
        match &self.text {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Text::File(file) => {
                use std::os::unix::fs::FileExt;
                buffer.clear();
                buffer.resize(range.len(), 0);
                file.read_exact_at(buffer, range.start as u64)?;
                Ok(buffer)
            }
            Text::Memory(bytes) => Ok(&bytes.as_bytes()[range]),
        }
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
        assert!(chunks.n_chunks() > 3, "1 KiB target must split {} bytes", text.len());
        let whole = slurp_records(text.as_bytes());
        let mut rejoined = Vec::new();
        let mut end = 0;
        let mut buffer = Vec::new();
        for (i, r) in (0..chunks.n_chunks()).map(|i| (i, chunks.range(i))) {
            assert_eq!(r.start, end, "chunks must tile");
            end = r.end;
            let chunk = chunks.chunk(i, &mut buffer).unwrap();
            assert_eq!(chunk, &text.as_bytes()[r.clone()]);
            let before = text.as_bytes()[..r.start].iter().filter(|&&b| b == b'\n').count();
            assert_eq!(chunks.first_line(i), before as u64);
            rejoined.extend(slurp_records(chunk));
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
        let mut buffer = Vec::new();
        let mut rejoined = Vec::new();
        for i in 0..chunks.n_chunks() {
            rejoined.extend_from_slice(chunks.chunk(i, &mut buffer).unwrap());
        }
        assert_eq!(rejoined, text.as_bytes());
        assert_eq!(
            (0..chunks.n_chunks())
                .flat_map(|i| slurp_records(&text.as_bytes()[chunks.range(i)]))
                .count(),
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
        assert_eq!(chunks.chunk(0, &mut Vec::new()).unwrap(), text.as_bytes());
        assert_eq!(chunks.n_chunks(), 1);
        fs::remove_file(&path).unwrap();
    }

    /// Once cut, a plain file is no longer mapped: the process's maps
    /// name it nowhere while its chunks are still readable.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_cut_file_is_no_longer_mapped() {
        let text = fastq_text(300);
        let path = tmpdir("chunks-unmapped").with_extension("fastq");
        fs::write(&path, &text).unwrap();
        let mapped = || {
            let maps = fs::read_to_string("/proc/self/maps").unwrap();
            maps.lines().any(|line| line.ends_with(path.to_str().unwrap()))
        };
        let input = dna::InputBytes::open(&path).unwrap();
        assert!(input.is_mapped() && mapped(), "the check must see a live mapping");
        drop(input);
        let chunks = FastqChunks::open(&path, 1024).unwrap();
        assert!(chunks.n_chunks() > 3);
        assert!(!mapped(), "the mapping outlived the cut");
        let last = chunks.n_chunks() - 1;
        assert!(chunks.chunk(last, &mut Vec::new()).unwrap().ends_with(b"\n"));
        fs::remove_file(&path).unwrap();
    }

    /// A FIFO cannot be mapped or read at an offset: its bytes are read
    /// once, as it streams, and its chunks are served from memory.
    #[cfg(unix)]
    #[test]
    fn fastq_chunks_read_a_fifo_once() {
        let text = fastq_text(300);
        let path = tmpdir("chunks-fifo").with_extension("fastq");
        let made = std::process::Command::new("mkfifo").arg(&path).status();
        if !made.is_ok_and(|status| status.success()) {
            eprintln!("skipping: mkfifo unavailable");
            return;
        }
        let writer = {
            let (path, text) = (path.clone(), text.clone());
            std::thread::spawn(move || fs::write(path, text).unwrap())
        };
        let chunks = FastqChunks::open(&path, 1024).unwrap();
        writer.join().unwrap();
        assert!(chunks.n_chunks() > 3);
        let mut rejoined = Vec::new();
        let mut buffer = Vec::new();
        for i in 0..chunks.n_chunks() {
            rejoined.extend_from_slice(chunks.chunk(i, &mut buffer).unwrap());
        }
        assert_eq!(rejoined, text.as_bytes());
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
