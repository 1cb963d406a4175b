//! Memory-mapped input files.
//!
//! Parallel FASTQ ingest wants the whole file addressable as one `&[u8]`
//! so record-boundary chunking can hand disjoint slices to workers
//! without copying. [`InputBytes`] maps the file read-only via `mmap(2)`
//! on 64-bit unix (falling back to an owned `std::fs::read` buffer on
//! other platforms, for empty files, or when the map syscall fails), so
//! the OS pages data in on demand instead of the reader copying it up
//! front.
//!
//! The `mmap` binding is declared locally against the C runtime that
//! `std` already links — this workspace vendors no external crates.
//!
//! Caveat inherent to mapping: if another process truncates the file
//! while it is mapped, reads past the new end fault (`SIGBUS`). ParaHash
//! treats input files as immutable for the duration of a run.

use std::io;
use std::path::Path;

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
        let path = path.as_ref();
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Some(mapping) = Mapping::open(path)? {
            return Ok(InputBytes { data: Data::Mapped(mapping) });
        }
        Ok(InputBytes { data: Data::Owned(std::fs::read(path)?) })
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

#[cfg(all(unix, target_pointer_width = "64"))]
struct Mapping {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared bytes.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for Mapping {}
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for Mapping {}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Mapping {
    /// Maps the file read-only; `Ok(None)` means "use the read fallback"
    /// (empty file or syscall refusal), errors are real open failures.
    fn open(path: &Path) -> io::Result<Option<Mapping>> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 || len > usize::MAX as u64 {
            return Ok(None);
        }
        let len = len as usize;
        // SAFETY: null hint, read-only private mapping over a file we
        // hold open for the duration of the call; the mapping outlives
        // the fd by design (POSIX keeps it valid after close).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if std::ptr::eq(ptr, sys::MAP_FAILED) {
            return Ok(None);
        }
        Ok(Some(Mapping { ptr, len }))
    }

    fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr/len come from a successful mmap that lives as long
        // as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
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
    pub const MAP_PRIVATE: c_int = 2;
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
    fn empty_file_falls_back_to_owned() {
        let p = tmpfile("empty", b"");
        let input = InputBytes::open(&p).unwrap();
        assert!(input.as_bytes().is_empty());
        assert!(!input.is_mapped());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn from_vec_wraps_buffer() {
        let input = InputBytes::from_vec(b"ACGT".to_vec());
        assert_eq!(input.as_bytes(), b"ACGT");
        assert!(!input.is_mapped());
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(InputBytes::open("/nonexistent/parahash-input").is_err());
    }
}
