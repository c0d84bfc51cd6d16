//! Read-only memory-mapped regions for zero-copy artifact loading.
//!
//! The v2 artifact container ([`crate::artifact::v2`]) lays its table
//! sections out 64-byte-aligned so a serve process can use them straight
//! from the page cache: load = validate header + checksums + `mmap`, not
//! decode. This module owns the mapping itself — a [`MappedRegion`] is the
//! refcounted backing that [`crate::storage::TableStorage`] views borrow
//! from.
//!
//! No external crates: on unix the two syscalls are declared by hand
//! (`std` already links libc, so `mmap`/`munmap` resolve at link time).
//! Everywhere else — and whenever the `CDRIB_NO_MMAP` environment variable
//! is set — [`map_file`] falls back to reading the file into one 64-byte
//! aligned heap buffer with the *same layout*, so every downstream offset
//! computation is identical on both paths and the fallback is exercised by
//! the same parity tests as the map.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

/// Alignment guaranteed for the start of every region (and, by the v2
/// container layout, for the start of every section inside it). Matches a
/// cache line and the widest SIMD load the kernels use.
pub const REGION_ALIGN: usize = 64;

/// How the bytes of a [`MappedRegion`] are backed.
enum Backing {
    /// `mmap(2)` of a file; unmapped on drop.
    #[cfg(unix)]
    Mapped,
    /// One aligned heap buffer (fallback path and in-memory loads);
    /// deallocated on drop.
    Heap(std::alloc::Layout),
    /// Zero-length region; nothing to release.
    Empty,
}

/// An immutable, refcounted byte region with a 64-byte-aligned base.
///
/// Obtained from [`map_file`] (a real `mmap` when available, a heap read
/// otherwise) or [`from_bytes`] (always heap). Shared via `Arc` so any
/// number of borrowed table views can hold the backing alive; the region
/// is read-only for its entire lifetime, which is what makes the
/// `Send + Sync` impls below sound.
pub struct MappedRegion {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

// SAFETY: the region is immutable after construction (PROT_READ mapping or
// a heap buffer that is never written again), so shared references from
// multiple threads never race.
unsafe impl Send for MappedRegion {}
unsafe impl Sync for MappedRegion {}

impl MappedRegion {
    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr` points at `len` initialized, immutable bytes owned
        // by this region (mmap'd file pages or a heap buffer we filled).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Length of the region in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when the bytes come from a real `mmap`, `false` on the heap
    /// fallback. Tests use this to assert which path they exercised.
    pub fn is_mapped(&self) -> bool {
        match self.backing {
            #[cfg(unix)]
            Backing::Mapped => true,
            _ => false,
        }
    }

    /// Base pointer (64-byte aligned for non-empty regions).
    pub(crate) fn base_ptr(&self) -> *const u8 {
        self.ptr
    }

    fn empty() -> Self {
        MappedRegion {
            ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
            len: 0,
            backing: Backing::Empty,
        }
    }

    /// Allocates a 64-byte-aligned heap buffer and fills it from `fill`.
    fn heap_from(len: usize, fill: impl FnOnce(&mut [u8]) -> io::Result<()>) -> io::Result<Self> {
        if len == 0 {
            return Ok(Self::empty());
        }
        let layout = std::alloc::Layout::from_size_align(len, REGION_ALIGN).map_err(io::Error::other)?;
        // SAFETY: `layout` has non-zero size.
        let ptr = unsafe { std::alloc::alloc(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: freshly allocated, exclusively owned `len` bytes.
        let buf = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
        if let Err(e) = fill(buf) {
            // SAFETY: allocated just above with this exact layout.
            unsafe { std::alloc::dealloc(ptr, layout) };
            return Err(e);
        }
        Ok(MappedRegion {
            ptr,
            len,
            backing: Backing::Heap(layout),
        })
    }
}

impl Drop for MappedRegion {
    fn drop(&mut self) {
        match self.backing {
            #[cfg(unix)]
            Backing::Mapped => {
                // SAFETY: `ptr`/`len` are exactly what mmap returned; the
                // region is dropped once (Arc) so no double-unmap.
                unsafe {
                    sys::munmap(self.ptr as *mut core::ffi::c_void, self.len);
                }
            }
            Backing::Heap(layout) => {
                // SAFETY: allocated with this exact layout in `heap_from`.
                unsafe { std::alloc::dealloc(self.ptr as *mut u8, layout) };
            }
            Backing::Empty => {}
        }
    }
}

impl std::fmt::Debug for MappedRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedRegion")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Whether [`map_file`] must take the heap-read fallback.
///
/// Set the `CDRIB_NO_MMAP` environment variable (to anything) to force it —
/// the parity and bench suites use this to exercise both paths on one
/// machine.
pub(crate) fn mmap_disabled() -> bool {
    std::env::var_os("CDRIB_NO_MMAP").is_some()
}

/// Copies `bytes` into a fresh 64-byte-aligned heap region.
///
/// For in-memory loads (e.g. an artifact that was just encoded) where the
/// caller still wants the exact code path of the mapped reader: same
/// alignment guarantees, same borrowed views, one owned buffer.
pub fn from_bytes(bytes: &[u8]) -> Arc<MappedRegion> {
    let region = MappedRegion::heap_from(bytes.len(), |buf| {
        buf.copy_from_slice(bytes);
        Ok(())
    })
    .expect("heap region for in-memory bytes");
    Arc::new(region)
}

/// Maps `path` read-only, or falls back to one aligned heap read when
/// `CDRIB_NO_MMAP` is set or the platform has no `mmap`.
///
/// Both paths produce a byte-identical region, so everything downstream
/// (header validation, section offsets, table views) is oblivious to which
/// one ran.
pub fn map_file(path: impl AsRef<Path>) -> io::Result<Arc<MappedRegion>> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if len > usize::MAX as u64 {
        return Err(io::Error::other("file too large to map on this platform"));
    }
    let len = len as usize;
    if len == 0 {
        return Ok(Arc::new(MappedRegion::empty()));
    }
    #[cfg(unix)]
    if !mmap_disabled() {
        return sys::map(&file, len).map(Arc::new);
    }
    let region = MappedRegion::heap_from(len, |buf| file.read_exact(buf))?;
    Ok(Arc::new(region))
}

#[cfg(unix)]
mod sys {
    //! Hand-declared bindings for the two syscalls this module needs.
    //! `std` links libc on every unix target, so these resolve without any
    //! new dependency.

    use super::{Backing, MappedRegion};
    use core::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    /// `PROT_READ`: pages are readable only.
    const PROT_READ: i32 = 1;
    /// `MAP_PRIVATE`: copy-on-write private mapping (we never write, so
    /// this is simply "not shared with other writers").
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut c_void;
        pub(super) fn munmap(addr: *const c_void, len: usize) -> i32;
    }

    pub(super) fn map(file: &File, len: usize) -> io::Result<MappedRegion> {
        // SAFETY: fd is a valid open file, len > 0; a failed map returns
        // MAP_FAILED which we turn into the errno error below.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        debug_assert_eq!(ptr as usize % super::REGION_ALIGN, 0, "mmap returns page-aligned bases");
        Ok(MappedRegion {
            ptr: ptr as *const u8,
            len,
            backing: Backing::Mapped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_is_aligned_and_identical() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let region = from_bytes(&data);
        assert_eq!(region.as_bytes(), &data[..]);
        assert_eq!(region.base_ptr() as usize % REGION_ALIGN, 0);
        assert!(!region.is_mapped());
    }

    #[test]
    fn empty_region_is_fine() {
        let region = from_bytes(&[]);
        assert!(region.is_empty());
        assert_eq!(region.as_bytes(), &[] as &[u8]);
    }

    #[test]
    fn map_file_roundtrips() {
        let dir = std::env::temp_dir().join("cdrib-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let data: Vec<u8> = (0..4096u32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let region = map_file(&path).unwrap();
        assert_eq!(region.len(), data.len());
        assert_eq!(region.as_bytes(), &data[..]);
        assert_eq!(region.base_ptr() as usize % REGION_ALIGN, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn map_file_empty_file() {
        let dir = std::env::temp_dir().join("cdrib-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let region = map_file(&path).unwrap();
        assert!(region.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
