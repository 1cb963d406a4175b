//! Memory-mapped input files, and zero-filled word arrays whose memory
//! follows what is written to them.
//!
//! Parallel FASTQ ingest wants the whole file addressable as one `&[u8]`
//! so record-boundary chunking can hand disjoint slices to workers
//! without copying. [`InputBytes`] maps the file read-only via `mmap(2)`
//! on 64-bit unix (falling back to an owned `std::fs::read` buffer on
//! other platforms, for empty files, or when the map syscall fails), so
//! the OS pages data in on demand instead of the reader copying it up
//! front. The same mapping holds a graph's committed subgraph files
//! ([`InputBytes::map`], with no read fallback), and [`InputBytes::to_mut`]
//! turns a mapped view into an owned copy before anything changes it.
//!
//! [`ZeroedWords`] maps anonymous memory the same way on 64-bit Linux,
//! so a large array costs pages only where words are written.
//!
//! The `mmap` binding is declared locally against the C runtime that
//! `std` already links — this workspace vendors no external crates.
//!
//! Caveat inherent to mapping: if another process truncates the file
//! while it is mapped, reads past the new end fault (`SIGBUS`). ParaHash
//! treats input files as immutable for the duration of a run, and a
//! graph's subgraph files as immutable while the graph lives; unlinking a
//! mapped file, or renaming another over it, leaves the mapping intact.

use std::io;
use std::path::Path;
use std::sync::atomic::AtomicU32;

/// A read-only byte view of a file: memory-mapped when possible, owned
/// otherwise.
pub struct InputBytes {
    data: Data,
}

enum Data {
    Owned(Vec<u8>),
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(Mapping),
}

impl InputBytes {
    /// Opens `path`, preferring a private read-only mapping.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be opened or
    /// read. A failed `mmap` is not an error — it falls back to reading.
    pub fn open(path: impl AsRef<Path>) -> io::Result<InputBytes> {
        InputBytes::from_file(&std::fs::File::open(path)?)
    }

    /// The bytes of an open `file`, preferring a private read-only
    /// mapping; read to its end otherwise — which consumes a pipe or a
    /// FIFO, whose bytes are then the owned buffer's alone.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be read. A
    /// failed `mmap` is not an error — it falls back to reading.
    pub fn from_file(file: &std::fs::File) -> io::Result<InputBytes> {
        if let Some(mapped) = InputBytes::map(file)? {
            return Ok(mapped);
        }
        let mut bytes = Vec::new();
        io::Read::read_to_end(&mut &*file, &mut bytes)?;
        Ok(InputBytes { data: Data::Owned(bytes) })
    }

    /// A private read-only mapping of the whole of `file`, no byte of it
    /// read; `Ok(None)` where there is none to be had — an empty file, a
    /// pipe, a platform without `mmap`, or a refused syscall (say, the
    /// process's map count at its limit).
    ///
    /// # Errors
    ///
    /// The `metadata` failure, when the file cannot be inspected.
    pub fn map(file: &std::fs::File) -> io::Result<Option<InputBytes>> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        let mapped = Mapping::map(file)?.map(|mapping| InputBytes { data: Data::Mapped(mapping) });
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        let mapped = {
            let _ = file;
            None
        };
        Ok(mapped)
    }

    /// Wraps an already-materialised buffer (e.g. decompressed gzip).
    pub fn from_vec(bytes: Vec<u8>) -> InputBytes {
        InputBytes { data: Data::Owned(bytes) }
    }

    /// The file contents.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.data {
            Data::Owned(v) => v,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Data::Mapped(m) => m.as_bytes(),
        }
    }

    /// The bytes as an owned buffer to change, copied out of the mapping
    /// first if they are mapped: the view becomes owned for good, and no
    /// write ever reaches the file.
    pub fn to_mut(&mut self) -> &mut Vec<u8> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Data::Mapped(mapping) = &self.data {
            self.data = Data::Owned(mapping.as_bytes().to_vec());
        }
        match &mut self.data {
            Data::Owned(bytes) => bytes,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Data::Mapped(_) => unreachable!("copied out above"),
        }
    }

    /// Whether the bytes come from an `mmap` (diagnostics/tests).
    pub fn is_mapped(&self) -> bool {
        match &self.data {
            Data::Owned(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Data::Mapped(_) => true,
        }
    }
}

impl std::fmt::Debug for InputBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputBytes")
            .field("len", &self.as_bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Zero-filled `u32` words for concurrent use: an array whose memory
/// follows the words written, not the words allocated.
///
/// On 64-bit Linux an array of at least 64 KiB is an anonymous private
/// mapping: every page is the kernel's shared zero page until a word in
/// it is first written, and the pages go back to the system when the
/// array drops. Smaller arrays, other platforms and a refused `mmap` get
/// an owned zeroed slice. Either way allocation happens once, in
/// [`new`](Self::new).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::Ordering;
/// use dna::ZeroedWords;
///
/// let words = ZeroedWords::new(1 << 20);
/// assert_eq!(words.len(), 1 << 20);
/// words[7].store(3, Ordering::Relaxed);
/// assert_eq!(words[7].load(Ordering::Relaxed) + words[8].load(Ordering::Relaxed), 3);
/// ```
pub struct ZeroedWords {
    words: Words,
}

enum Words {
    Owned(Box<[AtomicU32]>),
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    Mapped(Mapping),
}

impl ZeroedWords {
    /// Bytes from which an array is mapped rather than allocated.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    const MAP_BYTES: usize = 1 << 16;

    /// `len` zeroed words.
    pub fn new(len: usize) -> ZeroedWords {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if let Some(mapping) = len
            .checked_mul(std::mem::size_of::<AtomicU32>())
            .filter(|&bytes| bytes >= Self::MAP_BYTES)
            .and_then(Mapping::zeroed)
        {
            return ZeroedWords { words: Words::Mapped(mapping) };
        }
        ZeroedWords { words: Words::Owned((0..len).map(|_| AtomicU32::new(0)).collect()) }
    }
}

impl std::ops::Deref for ZeroedWords {
    type Target = [AtomicU32];

    #[inline(always)]
    fn deref(&self) -> &[AtomicU32] {
        match &self.words {
            Words::Owned(words) => words,
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            Words::Mapped(mapping) => mapping.as_slice(),
        }
    }
}

impl std::ops::DerefMut for ZeroedWords {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [AtomicU32] {
        match &mut self.words {
            Words::Owned(words) => words,
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            Words::Mapped(mapping) => mapping.as_mut_slice(),
        }
    }
}

impl std::fmt::Debug for ZeroedWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mapped = !matches!(self.words, Words::Owned(_));
        f.debug_struct("ZeroedWords").field("len", &self.len()).field("mapped", &mapped).finish()
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
struct Mapping {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// SAFETY: a mapping is either PROT_READ over a file — immutable shared
// bytes — or anonymous memory that is only ever viewed as atomics
// (`ZeroedWords`), whose shared access is synchronised word by word.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for Mapping {}
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for Mapping {}

/// What a mapping may be viewed as: types for which every bit pattern is
/// a valid value, aligned to at most a page.
#[cfg(all(unix, target_pointer_width = "64"))]
trait Plain {}
#[cfg(all(unix, target_pointer_width = "64"))]
impl Plain for u8 {}
#[cfg(all(unix, target_pointer_width = "64"))]
impl Plain for AtomicU32 {}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Mapping {
    /// Maps the file read-only; `Ok(None)` means "use the read fallback"
    /// (empty file, a pipe, or syscall refusal), errors are real
    /// metadata failures.
    fn map(file: &std::fs::File) -> io::Result<Option<Mapping>> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        if len == 0 || len > usize::MAX as u64 {
            return Ok(None);
        }
        Ok(Mapping::new(len as usize, sys::PROT_READ, sys::MAP_PRIVATE, file.as_raw_fd()))
    }

    /// `len` bytes of private anonymous memory, zero-filled on first
    /// touch; `None` if the syscall refuses.
    #[cfg(target_os = "linux")]
    fn zeroed(len: usize) -> Option<Mapping> {
        let (prot, flags) =
            (sys::PROT_READ | sys::PROT_WRITE, sys::MAP_PRIVATE | sys::MAP_ANONYMOUS);
        Mapping::new(len, prot, flags, -1)
    }

    /// `mmap` of `len` (> 0) bytes at offset 0 of `fd` (−1 for anonymous
    /// memory), `None` if it failed.
    fn new(
        len: usize,
        prot: core::ffi::c_int,
        flags: core::ffi::c_int,
        fd: core::ffi::c_int,
    ) -> Option<Mapping> {
        // SAFETY: a null hint lets the kernel place a fresh mapping that
        // aliases nothing this process holds. A file mapping is over a
        // file the caller holds open for the duration of the call, and
        // outlives the fd by design (POSIX keeps it valid after close).
        let ptr = unsafe { sys::mmap(std::ptr::null_mut(), len, prot, flags, fd, 0) };
        (!std::ptr::eq(ptr, sys::MAP_FAILED)).then_some(Mapping { ptr, len })
    }

    fn as_bytes(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline(always)]
    fn as_slice<T: Plain>(&self) -> &[T] {
        // SAFETY: ptr/len come from a successful mmap that lives as long
        // as `self`; the pointer is page-aligned, and any bytes are a
        // valid `T`. Only anonymous (writable) mappings are viewed as
        // atomics, so no store lands on a read-only page.
        unsafe {
            std::slice::from_raw_parts(self.ptr as *const T, self.len / std::mem::size_of::<T>())
        }
    }

    #[cfg(target_os = "linux")]
    #[inline(always)]
    fn as_mut_slice<T: Plain>(&mut self) -> &mut [T] {
        // SAFETY: as `as_slice`, and `&mut self` makes the view unique;
        // only anonymous (writable) mappings are viewed mutably.
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr as *mut T, self.len / std::mem::size_of::<T>())
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: unmapping exactly what mmap returned.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use core::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str, contents: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("dna-input-{tag}-{}", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn open_reads_whole_file() {
        let contents: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let p = tmpfile("whole", &contents);
        let input = InputBytes::open(&p).unwrap();
        assert_eq!(input.as_bytes(), &contents[..]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn mapping_matches_the_read_fallback() {
        let contents: Vec<u8> = (0..4096u32).map(|i| (i % 7) as u8).collect();
        let p = tmpfile("gate", &contents);
        let mapped = InputBytes::open(&p).unwrap();
        let owned = InputBytes::from_vec(std::fs::read(&p).unwrap());
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped.is_mapped(), "a non-empty file on 64-bit unix maps");
        assert_eq!(mapped.as_bytes(), owned.as_bytes());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn to_mut_copies_a_mapping_and_leaves_the_file_alone() {
        let contents: Vec<u8> = (0..10_000u32).map(|i| (i % 13) as u8).collect();
        let p = tmpfile("cow", &contents);
        let file = std::fs::File::open(&p).unwrap();
        let mapped = InputBytes::map(&file).unwrap();
        let mut bytes = mapped.unwrap_or_else(|| InputBytes::from_vec(contents.clone()));
        bytes.to_mut()[5] = 0xFF;
        bytes.to_mut().push(7);
        assert!(!bytes.is_mapped(), "an owned copy from the first change on");
        assert_eq!((bytes.as_bytes()[5], bytes.as_bytes().len()), (0xFF, contents.len() + 1));
        assert_eq!(std::fs::read(&p).unwrap(), contents, "the file is untouched");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn empty_file_falls_back_to_owned() {
        let p = tmpfile("empty", b"");
        let input = InputBytes::open(&p).unwrap();
        assert!(input.as_bytes().is_empty());
        assert!(!input.is_mapped());
        assert!(InputBytes::map(&std::fs::File::open(&p).unwrap()).unwrap().is_none());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn from_vec_wraps_buffer() {
        let input = InputBytes::from_vec(b"ACGT".to_vec());
        assert_eq!(input.as_bytes(), b"ACGT");
        assert!(!input.is_mapped());
    }

    #[test]
    fn zeroed_words_start_zero_and_keep_what_is_written() {
        use std::sync::atomic::Ordering::Relaxed;
        for len in [0, 1, 1000, 1 << 14, (1 << 16) + 3] {
            let mut words = ZeroedWords::new(len);
            assert_eq!(words.len(), len);
            assert!(words.iter().all(|w| w.load(Relaxed) == 0), "len={len}");
            for (i, w) in words.iter().enumerate().step_by(977) {
                w.store(i as u32 + 1, Relaxed);
            }
            for (i, w) in words.iter_mut().enumerate().skip(1).step_by(977) {
                *w.get_mut() = !(i as u32);
            }
            for (i, w) in words.iter().enumerate() {
                let expected = match i % 977 {
                    0 => i as u32 + 1,
                    1 => !(i as u32),
                    _ => 0,
                };
                assert_eq!(w.load(Relaxed), expected, "len={len} word {i}");
            }
        }
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn large_zeroed_words_are_mapped() {
        let mapped = |words: &ZeroedWords| format!("{words:?}").contains("mapped: true");
        assert!(mapped(&ZeroedWords::new(1 << 14)), "64 KiB maps");
        assert!(!mapped(&ZeroedWords::new((1 << 14) - 1)), "under 64 KiB is allocated");
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(InputBytes::open("/nonexistent/parahash-input").is_err());
    }
}
