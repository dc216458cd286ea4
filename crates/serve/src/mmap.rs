//! Memory-mapped, read-only views of bank shard files.
//!
//! The vendored environment has no `libc` crate, so the `mmap`/`munmap`
//! bindings are hand-rolled `extern "C"` declarations (std already
//! links the platform libc on unix). [`Mmap`] maps a file `PROT_READ` /
//! `MAP_PRIVATE` and derefs to `&[u8]`, so every codec reader
//! ([`crate::codec::Decoder::over`], [`crate::codec::SectionTable::parse`])
//! works over mapped bytes exactly as over a heap buffer — without the
//! intermediate `std::fs::read` copy. On non-unix targets the same API
//! is backed by a plain heap read, so callers never need to gate.
//!
//! Mapping also captures the source file's generation ([`FileGen`]:
//! modification time + length) **from the same file descriptor**, so
//! the generation always describes the bytes actually mapped — the
//! foundation of the store's hot-reload and failure-retry keying.
//!
//! ## Caveats
//!
//! A mapping observes the file's pages, not a snapshot: truncating a
//! mapped file can fault a reader (`SIGBUS`), and in-place rewrites can
//! tear. Shard replacement must therefore be an atomic rename (write to
//! a temp file, `rename(2)` over the shard), which swaps the directory
//! entry while live mappings keep the old inode's pages — exactly the
//! discipline `ftd serve` hot reload documents and CI smokes.

use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;
use std::time::SystemTime;

/// A file's load generation: modification time and byte length. Two
/// observations with equal generations are treated as the same content;
/// a shard slot caches its generation so the store can detect rebuilt
/// (hot reload) or repaired (failure retry) shard files with one `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileGen {
    mtime: SystemTime,
    len: u64,
}

impl FileGen {
    /// The generation recorded in `meta`.
    pub fn from_metadata(meta: &std::fs::Metadata) -> io::Result<FileGen> {
        Ok(FileGen {
            mtime: meta.modified()?,
            len: meta.len(),
        })
    }

    /// Stats `path` and returns its current generation.
    pub fn probe(path: impl AsRef<Path>) -> io::Result<FileGen> {
        FileGen::from_metadata(&std::fs::metadata(path)?)
    }

    /// The file length this generation was observed at.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` for a zero-length file.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Display for FileGen {
    /// Renders `mtime=<unix-secs>.<nanos>,len=<bytes>` — the form the
    /// store's failure attribution embeds in error messages and metric
    /// labels.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mtime.duration_since(SystemTime::UNIX_EPOCH) {
            Ok(d) => write!(
                f,
                "mtime={}.{:09},len={}",
                d.as_secs(),
                d.subsec_nanos(),
                self.len
            ),
            Err(_) => write!(f, "mtime=pre-epoch,len={}", self.len),
        }
    }
}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    // `off_t` is 64-bit on every 64-bit unix; we only ever map from
    // offset 0, so the width never matters in practice.
    pub type OffT = i64;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: OffT,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only memory mapping of a whole file (unix), or a heap copy of
/// it (elsewhere). Derefs to `&[u8]`; safe to share across threads.
pub struct Mmap {
    #[cfg(unix)]
    ptr: *mut std::os::raw::c_void,
    #[cfg(unix)]
    len: usize,
    #[cfg(not(unix))]
    buf: Vec<u8>,
    generation: FileGen,
}

// The mapping is immutable (PROT_READ, MAP_PRIVATE) for its whole
// lifetime, so shared access from any thread is sound.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `path` read-only and records its [`FileGen`] from the opened
    /// descriptor (no stat/map race: the generation describes exactly
    /// the inode that was mapped).
    ///
    /// # Errors
    ///
    /// Any `open`, `fstat`, or `mmap` failure, as `io::Error`.
    pub fn map(path: impl AsRef<Path>) -> io::Result<Mmap> {
        let file = File::open(path)?;
        let meta = file.metadata()?;
        let generation = FileGen::from_metadata(&meta)?;
        Mmap::from_file(&file, generation)
    }

    #[cfg(unix)]
    fn from_file(file: &File, generation: FileGen) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;

        let len = usize::try_from(generation.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::OutOfMemory, "file exceeds address space")
        })?;
        if len == 0 {
            // mmap(len = 0) is EINVAL; an empty file is an empty slice.
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
                generation,
            });
        }
        // SAFETY: fd is a valid open descriptor for at least this call;
        // a PROT_READ + MAP_PRIVATE mapping of it aliases no Rust data.
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
        if ptr == sys::map_failed() {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr,
            len,
            generation,
        })
    }

    #[cfg(not(unix))]
    fn from_file(file: &File, generation: FileGen) -> io::Result<Mmap> {
        use std::io::Read;

        let mut buf = Vec::with_capacity(generation.len() as usize);
        (&*file).take(generation.len()).read_to_end(&mut buf)?;
        Ok(Mmap { buf, generation })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        #[cfg(unix)]
        {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; it is unmapped only in Drop.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
        #[cfg(not(unix))]
        {
            &self.buf
        }
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// `true` when the mapped file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The source file's generation, captured from the descriptor the
    /// mapping was created from.
    pub fn generation(&self) -> FileGen {
        self.generation
    }

    /// `true` when the bytes are a genuine kernel mapping rather than
    /// the heap fallback.
    pub fn is_mapped(&self) -> bool {
        cfg!(unix)
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: ptr/len came from a successful mmap; unmapping at
            // drop ends the only remaining reference to the region.
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

/// Always returns the same slice for the life of the mapping (the pages
/// are fixed at `mmap` and released only in `Drop`) — the stability
/// contract zero-copy trajectory storage relies on.
impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

impl fmt::Debug for Mmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mmap")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_file_contents_exactly() {
        let path = std::env::temp_dir().join("ft_mmap_basic_test.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = Mmap::map(&path).unwrap();
        assert_eq!(&map[..], &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert_eq!(map.generation().len(), payload.len() as u64);
        assert_eq!(map.generation(), FileGen::probe(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = std::env::temp_dir().join("ft_mmap_empty_test.bin");
        std::fs::write(&path, b"").unwrap();
        let map = Mmap::map(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(&map[..], b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(Mmap::map("/nonexistent/shard.ftb").is_err());
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = std::env::temp_dir().join("ft_mmap_threads_test.bin");
        std::fs::write(&path, vec![0x5au8; 4096]).unwrap();
        let map = std::sync::Arc::new(Mmap::map(&path).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let map = std::sync::Arc::clone(&map);
                scope.spawn(move || {
                    assert!(map.iter().all(|&b| b == 0x5a));
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generation_distinguishes_rewrites() {
        let path = std::env::temp_dir().join("ft_mmap_gen_test.bin");
        std::fs::write(&path, b"first contents").unwrap();
        let before = FileGen::probe(&path).unwrap();
        assert_eq!(before.len(), 14);
        assert!(!before.is_empty());
        assert!(before.to_string().starts_with("mtime="));
        assert!(before.to_string().ends_with(",len=14"));
        // A different length always changes the generation, regardless
        // of filesystem timestamp granularity.
        std::fs::write(&path, b"second, longer contents").unwrap();
        let after = FileGen::probe(&path).unwrap();
        assert_ne!(before, after);
        std::fs::remove_file(&path).ok();
    }
}
