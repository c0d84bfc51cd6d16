//! Recyclable tensor storage.
//!
//! CDRIB trains for hundreds of epochs over a graph whose shape never
//! changes, so every forward/backward pass requests exactly the same set of
//! buffer sizes. A [`BufferPool`] keeps the 64-byte-aligned storage of retired
//! tensors keyed by element count and hands it back on the next request,
//! turning the per-step allocator traffic of the [`Tape`](crate::tape::Tape)
//! into plain pointer swaps after a short warm-up.
//!
//! The pool keys on a rounded-up *size class*, not on `(rows, cols)`: a
//! `4 x 6` buffer can serve a later `6 x 4` request because tensors are
//! dense row-major and the storage carries no shape of its own, and a
//! 20 000-row batch buffer can serve next epoch's 20 113-row batch because
//! every class is rounded up in 12.5% steps (the buffer is handed out
//! truncated to the requested length). Without the rounding, batch-length
//! jitter would defeat the pool twice over: the multi-megabyte epoch buffers
//! would be allocated fresh from `mmap` every epoch (paying page faults far
//! costlier than the compute they feed), and the mid-sized per-step buffers
//! whose lengths depend on batch *composition* — how many overlap users a
//! shuffled batch happens to contain — would miss on every step.

use crate::storage::TableStorage;
use crate::tensor::Tensor;
use std::collections::HashMap;

/// Upper bound on retained buffers per size class; beyond it, returned
/// storage is dropped. A training step never holds more than a few dozen
/// same-shaped tensors at once, so this only guards against pathological
/// callers that keep returning without ever taking.
const MAX_PER_CLASS: usize = 256;

/// Smallest rounding step of [`size_class`]; keeps the class count bounded
/// for tiny buffers where proportional steps would degenerate to 1.
const MIN_CLASS_STEP: usize = 8;

/// The size class (storage capacity in elements) serving requests of `len`
/// elements: rounded up to the next 1/8th of the largest power of two at or
/// below `len` (at most 12.5% slack, [`MIN_CLASS_STEP`] elements minimum),
/// so slightly different lengths share storage.
fn size_class(len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let pow2_at_or_below = if len.is_power_of_two() {
        len
    } else {
        len.next_power_of_two() / 2
    };
    let step = (pow2_at_or_below / 8).max(MIN_CLASS_STEP);
    len.div_ceil(step) * step
}

/// Hit/miss counters of a [`BufferPool`] (diagnostics and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from recycled storage.
    pub hits: u64,
    /// Requests that had to allocate fresh storage.
    pub misses: u64,
    /// Buffers currently parked in the pool.
    pub parked: usize,
}

/// A size-class keyed recycler of dense `f32` buffers.
#[derive(Debug, Default)]
pub struct BufferPool {
    buckets: HashMap<usize, Vec<TableStorage<f32>>>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Takes a `rows x cols` tensor whose contents are **unspecified** (the
    /// stale values of whatever tensor last used the storage). Callers must
    /// overwrite every element before reading.
    pub(crate) fn take_uninit(&mut self, rows: usize, cols: usize) -> Tensor {
        let len = rows * cols;
        let class = size_class(len);
        if let Some(mut data) = self.buckets.get_mut(&class).and_then(Vec::pop) {
            self.hits += 1;
            debug_assert_eq!(data.len(), class);
            data.truncate(len);
            return Tensor::from_raw(rows, cols, data);
        }
        self.misses += 1;
        let mut data = TableStorage::filled(class, 0.0);
        data.truncate(len);
        Tensor::from_raw(rows, cols, data)
    }

    /// Takes a `rows x cols` tensor guaranteed to be all zeros (for kernels
    /// that accumulate into their output).
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.take_uninit(rows, cols);
        t.as_mut_slice().fill(0.0);
        t
    }

    /// Returns a tensor's storage to the pool for reuse. Storage whose
    /// capacity falls short of its size class (a caller-built tensor with an
    /// exact-length allocation, or a mapped view) is swapped for a fresh
    /// buffer of full class capacity on the way in — parked contents are
    /// unspecified, so nothing is copied; buffers that cycled through the
    /// pool before re-park without touching the allocator.
    pub fn put(&mut self, tensor: Tensor) {
        let mut data = tensor.into_storage();
        if data.is_empty() {
            return;
        }
        let class = size_class(data.len());
        let bucket = self.buckets.entry(class).or_default();
        if bucket.len() >= MAX_PER_CLASS {
            return;
        }
        if data.capacity() < class {
            data = TableStorage::filled(class, 0.0);
        } else {
            data.resize(class, 0.0);
        }
        bucket.push(data);
    }

    /// Ensures at least `count` buffers of the size class serving `len`
    /// elements are parked, allocating the shortfall now. Callers with a
    /// known steady-state working set (e.g. the delta re-encode's full-table
    /// stages) prewarm their classes up front so even the first post-warm-up
    /// request is a pool hit; the prewarm itself counts as neither hit nor
    /// miss.
    pub fn prewarm(&mut self, len: usize, count: usize) {
        if len == 0 {
            return;
        }
        let class = size_class(len);
        let bucket = self.buckets.entry(class).or_default();
        while bucket.len() < count.min(MAX_PER_CLASS) {
            bucket.push(TableStorage::filled(class, 0.0));
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            parked: self.buckets.values().map(Vec::len).sum(),
        }
    }

    /// Drops all parked buffers (counters are kept).
    pub fn clear(&mut self) {
        self.buckets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_storage_by_element_count() {
        let mut pool = BufferPool::new();
        let a = pool.take_uninit(2, 3);
        assert_eq!(pool.stats().misses, 1);
        pool.put(a);
        assert_eq!(pool.stats().parked, 1);
        // Same element count, different shape: still a hit.
        let b = pool.take_uninit(3, 2);
        assert_eq!(b.shape(), (3, 2));
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().parked, 0);
        pool.put(b);
        // Different size class: a miss.
        let c = pool.take_uninit(4, 4);
        assert_eq!(pool.stats().misses, 2);
        pool.put(c);
        assert_eq!(pool.stats().parked, 2);
    }

    #[test]
    fn size_classes_bound_slack_at_one_eighth() {
        for len in [
            100usize,
            4096,
            4097,
            5000,
            8192,
            8193,
            20_113 * 32,
            650_000,
            1 << 20,
            (1 << 20) + 1,
        ] {
            let class = size_class(len);
            assert!(class >= len, "class {class} must cover len {len}");
            assert!(
                class - len <= (len / 8).max(MIN_CLASS_STEP),
                "len {len}: class {class} wastes {} (> 12.5%)",
                class - len
            );
        }
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(4096), 4096);
        // Nearby lengths share a class (the batch-jitter property) at every
        // scale: multi-megabyte epoch buffers and mid-sized per-step buffers
        // whose lengths depend on batch composition.
        assert_eq!(size_class(650_000), size_class(650_900));
        assert_eq!(size_class(38_400), size_class(38_900));
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let mut pool = BufferPool::new();
        let mut a = pool.take_uninit(2, 2);
        a.as_mut_slice().fill(7.0);
        pool.put(a);
        let b = pool.take_zeroed(2, 2);
        assert_eq!(b.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn empty_tensors_are_not_parked() {
        let mut pool = BufferPool::new();
        let a = pool.take_uninit(0, 5);
        pool.put(a);
        assert_eq!(pool.stats().parked, 0);
    }

    #[test]
    fn prewarm_parks_buffers_ahead_of_takes() {
        let mut pool = BufferPool::new();
        pool.prewarm(6, 3);
        assert_eq!(pool.stats().parked, 3);
        assert_eq!(pool.stats().misses, 0);
        for _ in 0..3 {
            let t = pool.take_uninit(2, 3);
            assert_eq!(t.shape(), (2, 3));
        }
        assert_eq!(pool.stats().hits, 3);
        assert_eq!(pool.stats().misses, 0);
        // Prewarming an already-covered class is a no-op.
        let t = pool.take_uninit(2, 3);
        pool.put(t);
        pool.prewarm(6, 1);
        assert_eq!(pool.stats().parked, 1);
        pool.prewarm(0, 5);
        assert_eq!(pool.stats().parked, 1);
    }

    #[test]
    fn clear_drops_parked_buffers() {
        let mut pool = BufferPool::new();
        let a = pool.take_uninit(2, 2);
        pool.put(a);
        pool.clear();
        assert_eq!(pool.stats().parked, 0);
        let _ = pool.take_uninit(2, 2);
        assert_eq!(pool.stats().misses, 2);
    }
}
