//! A counting global allocator for allocation-regression tests.
//!
//! Zero-allocation training steps are a *measured* property, not an assumed
//! one: the `alloc_regression` integration test installs [`CountingAlloc`]
//! as the process's global allocator and asserts that the steady-state
//! allocation count of a warm training loop is zero (`bench_suite` installs
//! it too, to report `tensor.allocs_per_epoch`).
//!
//! The module is gated behind the non-default `alloc-track` feature so that
//! normal builds carry neither the type nor the temptation to install it;
//! when compiled, it is inert until a binary opts in with
//! `#[global_allocator]`.
//!
//! ```ignore
//! use cdrib_tensor::alloc_track::{allocation_count, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let before = allocation_count();
//! run_warm_training_epoch();
//! assert_eq!(allocation_count() - before, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation.
///
/// `realloc` counts as one allocation (it may move the block); `dealloc` is
/// not counted — the regression tests care about allocator *requests*, which
/// is what pooling eliminates.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Creates the allocator (const, so it can be a `static`).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: delegates every operation to `System`; the counters are atomics
// and allocate nothing themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Number of allocation requests since process start (0 unless
/// [`CountingAlloc`] is installed as the global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Number of bytes requested since process start (0 unless
/// [`CountingAlloc`] is installed as the global allocator).
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
