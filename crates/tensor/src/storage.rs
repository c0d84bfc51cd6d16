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
//! Serialization is byte-identical to `Vec<T>`'s encoding (u64 length
//! prefix, then elements), so structs that swapped `Vec<T>` for
//! `TableStorage<T>` keep their v1 artifact format bit-for-bit.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::artifact::ArtifactError;
use crate::mmap::MappedRegion;

/// Table storage that is either an owned `Vec<T>` or a borrowed view into a
/// mapped artifact region. See the module docs for the semantics.
pub struct TableStorage<T: Copy + 'static> {
    repr: Repr<T>,
}

enum Repr<T: Copy + 'static> {
    Owned(Vec<T>),
    Mapped(SectionView<T>),
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
    /// Owned storage over `vec`.
    pub fn from_vec(vec: Vec<T>) -> Self {
        TableStorage { repr: Repr::Owned(vec) }
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
            Repr::Owned(v) => v,
            Repr::Mapped(view) => view.as_slice(),
        }
    }

    /// Mutable access; materialises a mapped view into owned storage first
    /// (the copy-on-write trigger).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.make_owned()
    }

    /// Ensures the storage owns its elements, copying them out of the map
    /// on first call, and returns the owned vector for `Vec`-only
    /// operations (`resize`, `extend`, …).
    pub(crate) fn make_owned(&mut self) -> &mut Vec<T> {
        if let Repr::Mapped(view) = &self.repr {
            self.repr = Repr::Owned(view.as_slice().to_vec());
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

    /// Consumes the storage into an owned `Vec<T>` (copies if mapped).
    pub(crate) fn into_vec(self) -> Vec<T> {
        match self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped(view) => view.as_slice().to_vec(),
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
            Repr::Owned(v) => TableStorage::from_vec(v.clone()),
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
