//! The owned-or-mapped storage seam behind every frozen table.
//!
//! [`TableStorage<T>`] is what `Tensor.data`, the quantised table arrays and
//! the serving catalogues hold instead of a bare `Vec<T>`: either an owned
//! vector (training, online updates, v1 decode loads) or a borrowed view
//! into an [`Arc<MappedRegion>`](crate::mmap::MappedRegion) (zero-copy v2
//! loads). It derefs to `&[T]`, so the kernels — which already consume
//! slices — and almost every existing call site are oblivious to which
//! variant they are looking at.
//!
//! The mutability rule is copy-on-write: `Deref` is free on both variants,
//! while `DerefMut`/`TableStorage::make_owned` materialise a mapped view
//! into an owned `Vec<T>` first. That is exactly the semantics the online
//! delta path needs — a serve process patches dirty rows of a mapped base
//! table and only those tables migrate off the map.
//!
//! **Alignment invariant:** the first element of every non-empty table
//! starts on a [`REGION_ALIGN`] (64-byte) boundary, on both variants. A
//! mapped view inherits it from the region base and the v2 section layout;
//! owned storage gets it without `unsafe` from a `Vec<T>` allocated with one
//! line of head room, whose first few elements are slack (at most 60 bytes
//! for `f32`). Every owned constructor keeps it — `from_vec` (which copies a
//! misaligned vector once), `filled`, clone, deserialize, copy-on-write
//! materialisation and growth — so a dim-64 `f32` row is one cache line and
//! the kernels' 64-byte loads never split (`malloc` starts a buffer 16 bytes
//! off a line, and a split load made the spmm gather 2x slower).
//!
//! Serialization is byte-identical to `Vec<T>`'s encoding (u64 length
//! prefix, then elements), so structs that swapped `Vec<T>` for
//! `TableStorage<T>` keep their v1 artifact format bit-for-bit.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::artifact::ArtifactError;
use crate::mmap::{MappedRegion, REGION_ALIGN};

/// Table storage that is either an owned `Vec<T>` or a borrowed view into a
/// mapped artifact region. See the module docs for the semantics.
pub struct TableStorage<T: Copy + 'static> {
    repr: Repr<T>,
}

enum Repr<T: Copy + 'static> {
    Owned(Aligned<T>),
    Mapped(SectionView<T>),
}

/// An owned buffer whose elements start on a [`REGION_ALIGN`] boundary:
/// `buf[start..]`, where `buf` was allocated with one line of extra room and
/// its first `start` elements are slack. Growth moves into a fresh aligned
/// buffer, so `Vec`'s own reallocation never breaks the invariant.
struct Aligned<T> {
    buf: Vec<T>,
    start: usize,
}

impl<T: Copy> Aligned<T> {
    fn empty() -> Self {
        Aligned {
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Room for `capacity` elements past an aligned start; `fill` is what
    /// the slack holds.
    fn with_capacity(capacity: usize, fill: T) -> Self {
        if capacity == 0 {
            return Self::empty();
        }
        let line = REGION_ALIGN / std::mem::size_of::<T>().max(1);
        let mut buf: Vec<T> = Vec::with_capacity(capacity + line);
        // `align_offset` may answer `usize::MAX` ("cannot tell"); the buffer
        // then stays where it is, unaligned but correct.
        let start = buf.as_ptr().align_offset(REGION_ALIGN);
        let start = if start < line { start } else { 0 };
        buf.resize(start, fill);
        Aligned { buf, start }
    }

    fn filled(len: usize, value: T) -> Self {
        let mut owned = Self::with_capacity(len, value);
        owned.buf.resize(owned.start + len, value);
        owned
    }

    fn from_slice(items: &[T]) -> Self {
        let Some(&first) = items.first() else {
            return Self::empty();
        };
        let mut owned = Self::with_capacity(items.len(), first);
        owned.buf.extend_from_slice(items);
        owned
    }

    /// Adopts `vec` if it already starts on a line, copies it otherwise.
    fn from_vec(vec: Vec<T>) -> Self {
        if vec.is_empty() {
            Self::empty()
        } else if vec.as_ptr().align_offset(REGION_ALIGN) == 0 {
            Aligned { buf: vec, start: 0 }
        } else {
            Self::from_slice(&vec)
        }
    }

    fn as_slice(&self) -> &[T] {
        &self.buf[self.start..]
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[self.start..]
    }

    fn capacity(&self) -> usize {
        self.buf.capacity().saturating_sub(self.start)
    }

    /// Makes room for `len` elements, amortised like `Vec`'s growth.
    fn reserve_for(&mut self, len: usize, fill: T) {
        if len > self.capacity() {
            let mut grown = Self::with_capacity(len.max(2 * self.capacity()), fill);
            grown.buf.extend_from_slice(self.as_slice());
            *self = grown;
        }
    }

    fn resize(&mut self, len: usize, value: T) {
        self.reserve_for(len, value);
        self.buf.resize(self.start + len, value);
    }

    fn extend_from_slice(&mut self, items: &[T]) {
        if let Some(&first) = items.first() {
            self.reserve_for(self.buf.len() - self.start + items.len(), first);
            self.buf.extend_from_slice(items);
        }
    }
}

/// A typed view of `len` elements starting `offset` bytes into a region.
/// Construction validates bounds and alignment once; after that `as_slice`
/// is a pointer add.
struct SectionView<T> {
    region: Arc<MappedRegion>,
    offset: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T> SectionView<T> {
    fn as_slice(&self) -> &[T] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: construction checked that `offset` is aligned for `T` on
        // top of the region's 64-byte base alignment and that
        // `offset + len * size_of::<T>()` is in bounds; the region is
        // immutable and kept alive by the Arc.
        unsafe {
            let ptr = self.region.base_ptr().add(self.offset) as *const T;
            std::slice::from_raw_parts(ptr, self.len)
        }
    }
}

impl<T: Copy + 'static> TableStorage<T> {
    /// Owned storage holding `vec`'s elements (copied once when `vec` does
    /// not start on a [`REGION_ALIGN`] boundary).
    pub fn from_vec(vec: Vec<T>) -> Self {
        TableStorage {
            repr: Repr::Owned(Aligned::from_vec(vec)),
        }
    }

    /// Owned storage of `len` copies of `value`.
    pub(crate) fn filled(len: usize, value: T) -> Self {
        TableStorage {
            repr: Repr::Owned(Aligned::filled(len, value)),
        }
    }

    /// A borrowed view of `elems` elements of `T` starting at `byte_offset`
    /// inside `region`.
    ///
    /// Fails (typed, never UB) when the range leaves the region or the
    /// offset is not aligned for `T`. The v2 section reader performs the
    /// richer, name-carrying validation first; this is the load-bearing
    /// final check at the unsafe boundary.
    pub fn mapped(region: Arc<MappedRegion>, byte_offset: usize, elems: usize) -> Result<Self, ArtifactError> {
        let elem = std::mem::size_of::<T>();
        let bytes = elems.checked_mul(elem).ok_or(ArtifactError::Mismatch {
            detail: "mapped table length overflows".to_string(),
        })?;
        let end = byte_offset.checked_add(bytes).ok_or(ArtifactError::Mismatch {
            detail: "mapped table range overflows".to_string(),
        })?;
        if end > region.len() {
            return Err(ArtifactError::Mismatch {
                detail: format!(
                    "mapped table range {byte_offset}..{end} exceeds region of {} bytes",
                    region.len()
                ),
            });
        }
        if !byte_offset.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(ArtifactError::Mismatch {
                detail: format!("mapped table offset {byte_offset} is not aligned for an element size of {elem}"),
            });
        }
        Ok(TableStorage {
            repr: Repr::Mapped(SectionView {
                region,
                offset: byte_offset,
                len: elems,
                _marker: PhantomData,
            }),
        })
    }

    /// The elements as a slice (free on both variants).
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            Repr::Mapped(view) => view.as_slice(),
        }
    }

    /// Mutable access; materialises a mapped view into owned storage first
    /// (the copy-on-write trigger).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.make_owned().as_mut_slice()
    }

    /// Ensures the storage owns its elements, copying them out of the map
    /// on first call.
    fn make_owned(&mut self) -> &mut Aligned<T> {
        if let Repr::Mapped(view) = &self.repr {
            self.repr = Repr::Owned(Aligned::from_slice(view.as_slice()));
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped(_) => unreachable!("just materialised"),
        }
    }

    /// `true` while the elements still live in a mapped region.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped(_))
    }

    /// Resizes to `n` elements filled with `value` (copy-on-write).
    pub fn resize(&mut self, n: usize, value: T) {
        // Resizing to the current length is a no-op for tables that only
        // confirm their size — don't materialise a mapped view for that.
        if n == self.len() {
            return;
        }
        self.make_owned().resize(n, value);
    }

    /// Appends `items` (copy-on-write).
    pub fn extend_from_slice(&mut self, items: &[T]) {
        if items.is_empty() {
            return;
        }
        self.make_owned().extend_from_slice(items);
    }

    /// Shortens to `len` elements (copy-on-write); no-op if already shorter.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len() {
            let owned = self.make_owned();
            owned.buf.truncate(owned.start + len);
        }
    }

    /// Elements the owned buffer holds without growing (0 while mapped).
    pub(crate) fn capacity(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => v.capacity(),
            Repr::Mapped(_) => 0,
        }
    }
}

impl<T: Copy + 'static> From<Vec<T>> for TableStorage<T> {
    fn from(vec: Vec<T>) -> Self {
        TableStorage::from_vec(vec)
    }
}

impl<T: Copy + 'static> FromIterator<T> for TableStorage<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        TableStorage::from_vec(iter.into_iter().collect())
    }
}

impl<T: Copy + 'static> Default for TableStorage<T> {
    fn default() -> Self {
        TableStorage::from_vec(Vec::new())
    }
}

impl<T: Copy + 'static> Deref for TableStorage<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + 'static> DerefMut for TableStorage<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

/// Cloning a mapped table clones the `Arc`, not the elements: the copy
/// borrows the same region and only goes owned if it is later written.
impl<T: Copy + 'static> Clone for TableStorage<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => TableStorage {
                repr: Repr::Owned(Aligned::from_slice(v.as_slice())),
            },
            Repr::Mapped(view) => TableStorage {
                repr: Repr::Mapped(SectionView {
                    region: Arc::clone(&view.region),
                    offset: view.offset,
                    len: view.len,
                    _marker: PhantomData,
                }),
            },
        }
    }
}

/// Equality is by element contents: a mapped table equals its owned copy.
impl<T: Copy + PartialEq + 'static> PartialEq for TableStorage<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + std::fmt::Debug + 'static> std::fmt::Debug for TableStorage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Byte-identical to `Vec<T>`'s encoding so v1 artifacts are unchanged.
impl<T: Copy + serde::Serialize + 'static> serde::Serialize for TableStorage<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        for item in self.as_slice() {
            item.serialize(out);
        }
    }
}

impl<'de, T: Copy + serde::Deserialize<'de> + 'static> serde::Deserialize<'de> for TableStorage<T> {
    fn deserialize(input: &mut &'de [u8]) -> Result<Self, serde::Error> {
        Ok(TableStorage::from_vec(Vec::<T>::deserialize(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmap;

    fn region_of_f32(values: &[f32]) -> Arc<MappedRegion> {
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        mmap::from_bytes(&bytes)
    }

    #[test]
    fn mapped_view_reads_and_cow_writes() {
        let values = [1.0f32, -2.5, 3.25, 0.0];
        let region = region_of_f32(&values);
        let mut table = TableStorage::<f32>::mapped(region, 0, values.len()).unwrap();
        assert!(table.is_mapped());
        assert_eq!(&table[..], &values[..]);

        // First mutation materialises; the map is untouched.
        table[1] = 9.0;
        assert!(!table.is_mapped());
        assert_eq!(table[1], 9.0);
        assert_eq!(table[0], 1.0);
    }

    #[test]
    fn mapped_rejects_out_of_bounds_and_misalignment() {
        let region = region_of_f32(&[1.0, 2.0]);
        assert!(TableStorage::<f32>::mapped(Arc::clone(&region), 0, 3).is_err());
        assert!(TableStorage::<f32>::mapped(Arc::clone(&region), 2, 1).is_err());
        assert!(TableStorage::<f32>::mapped(region, 4, 1).is_ok());
    }

    #[test]
    fn clone_of_mapped_is_cheap_and_equal() {
        let region = region_of_f32(&[1.0, 2.0, 3.0]);
        let table = TableStorage::<f32>::mapped(region, 0, 3).unwrap();
        let cloned = table.clone();
        assert!(cloned.is_mapped());
        assert_eq!(table, cloned);
        // Owned copy of the same contents is also equal.
        let owned = TableStorage::from_vec(vec![1.0f32, 2.0, 3.0]);
        assert_eq!(table, owned);
    }

    #[test]
    fn serde_matches_vec_encoding() {
        let vec = vec![1u32, 2, 3, 400];
        let table = TableStorage::from_vec(vec.clone());
        assert_eq!(serde::to_bytes(&table), serde::to_bytes(&vec));
        let back: TableStorage<u32> = serde::from_bytes(&serde::to_bytes(&vec)).unwrap();
        assert_eq!(&back[..], &vec[..]);

        // A mapped table serializes its viewed elements identically.
        let region = region_of_f32(&[5.0, 6.0]);
        let mapped = TableStorage::<f32>::mapped(region, 0, 2).unwrap();
        assert_eq!(serde::to_bytes(&mapped), serde::to_bytes(&vec![5.0f32, 6.0]));
    }

    fn assert_aligned<T>(table: &[T], what: &str) {
        assert!(
            !table.is_empty(),
            "{what}: alignment is only promised for non-empty tables"
        );
        assert_eq!(
            table.as_ptr() as usize % REGION_ALIGN,
            0,
            "{what}: {} elements",
            table.len()
        );
    }

    #[test]
    fn every_owned_constructor_starts_on_a_cache_line() {
        use crate::pool::BufferPool;
        use crate::tensor::Tensor;
        let mut pool = BufferPool::new();
        for len in (1..=40).chain([63, 64, 65, 1000, 4097, 100_000]) {
            let values: Vec<f32> = (0..len).map(|i| i as f32 - 3.5).collect();
            let tensor = Tensor::from_vec(1, len, values.clone()).unwrap();
            assert_aligned(tensor.as_slice(), "Tensor::from_vec");
            assert_aligned(Tensor::zeros(len, 1).as_slice(), "Tensor::zeros");
            assert_aligned(Tensor::full(1, len, 2.0).as_slice(), "Tensor::full");
            assert_aligned(tensor.clone().as_slice(), "Tensor::clone");
            let back: Tensor = serde::from_bytes(&serde::to_bytes(&tensor)).unwrap();
            assert_eq!(back, tensor);
            assert_aligned(back.as_slice(), "deserialize");
            let taken = pool.take_uninit(len, 1);
            assert_aligned(taken.as_slice(), "BufferPool::take_uninit");
            pool.put(taken);
            assert_aligned(pool.take_zeroed(1, len).as_slice(), "BufferPool::take_zeroed");
            assert_aligned(&TableStorage::from_vec(vec![7u8; len]), "from_vec::<u8>");
            assert_aligned(&TableStorage::from_vec(vec![7u64; len]), "from_vec::<u64>");

            // Copy-on-write out of a view that is itself off the line.
            let region = region_of_f32(&[&[0.0], &values[..]].concat());
            let mut mapped = TableStorage::<f32>::mapped(region, 4, len).unwrap();
            mapped[0] += 1.0;
            assert!(!mapped.is_mapped());
            assert_aligned(&mapped, "make_owned of a mapped view");
            assert_eq!(&mapped[1..], &values[1..]);

            // Growth past the capacity moves into a fresh aligned buffer.
            let mut grown = TableStorage::from_vec(values.clone());
            grown.resize(3 * len + 5, 1.0);
            assert_aligned(&grown, "resize");
            grown.extend_from_slice(&values);
            assert_aligned(&grown, "extend_from_slice");
            assert_eq!(&grown[..len], &values[..]);
            assert_eq!(&grown[3 * len + 5..], &values[..]);
        }
    }

    #[test]
    fn resize_same_len_keeps_map() {
        let region = region_of_f32(&[1.0, 2.0]);
        let mut table = TableStorage::<f32>::mapped(region, 0, 2).unwrap();
        table.resize(2, 0.0);
        assert!(table.is_mapped());
        table.resize(4, 0.0);
        assert!(!table.is_mapped());
        assert_eq!(&table[..], &[1.0, 2.0, 0.0, 0.0]);
    }
}
