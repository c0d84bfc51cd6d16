//! Dense, row-major `f32` matrices.
//!
//! Everything in the CDRIB computation graph is a rank-2 tensor: embedding
//! tables are `|U| x F`, activations are `batch x F`, and scalars (losses)
//! are `1 x 1`. Keeping a single concrete layout keeps the autodiff engine
//! small and the hot loops cache-friendly.

use crate::error::{Result, TensorError};
use crate::kernels;
use crate::storage::TableStorage;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32` values.
///
/// The buffer behind a tensor is a [`TableStorage`]: owned during training
/// and for v1 artifact loads, a borrowed view into a mapped v2 artifact for
/// frozen serving tables. Reads are free on both; the first mutation of a
/// mapped tensor copies it out of the map (copy-on-write).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: TableStorage<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: TableStorage::filled(rows * cols, 0.0),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor::full(rows, cols, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: TableStorage::filled(rows * cols, value),
        }
    }

    /// Creates a `1 x 1` tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            rows: 1,
            cols: 1,
            data: TableStorage::filled(1, value),
        }
    }

    /// Creates a tensor from an existing buffer in row-major order (copied
    /// once when the buffer does not start on a 64-byte line; see
    /// [`TableStorage`]).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Tensor {
            rows,
            cols,
            data: data.into(),
        })
    }

    /// Crate-internal constructor from storage whose length is already known
    /// to match (used by the [`BufferPool`](crate::pool::BufferPool)).
    pub(crate) fn from_raw(rows: usize, cols: usize, data: TableStorage<f32>) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        Tensor { rows, cols, data }
    }

    /// A tensor whose rows are served directly from table storage (owned or
    /// a zero-copy view into a mapped artifact region). The storage length
    /// must equal `rows * cols`.
    pub fn from_storage(rows: usize, cols: usize, data: TableStorage<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Whether the buffer is still a borrowed view into a mapped region.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Creates a tensor from a slice of rows. All rows must have equal length.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::EmptyTensor { op: "from_rows" });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::LengthMismatch {
                    expected: cols,
                    got: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Tensor {
            rows: rows.len(),
            cols,
            data: data.into(),
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    pub(crate) fn into_storage(self) -> TableStorage<f32> {
        self.data
    }

    /// Element at `(r, c)`. Panics if out of bounds (internal invariant use).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a `1 x 1` tensor.
    pub fn scalar_value(&self) -> Result<f32> {
        if self.rows == 1 && self.cols == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::ShapeMismatch {
                op: "scalar_value",
                lhs: (self.rows, self.cols),
                rhs: (1, 1),
            })
        }
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "add")?;
        Ok(self.zip_map(other, |a, b| a + b))
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "sub")?;
        Ok(self.zip_map(other, |a, b| a - b))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "mul")?;
        Ok(self.zip_map(other, |a, b| a * b))
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        kernels::add_assign(&mut self.data, &other.data);
        Ok(())
    }

    /// In-place scaled addition: `self += alpha * other`.
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        kernels::axpy(alpha, &mut self.data, &other.data);
        Ok(())
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    /// In-place scaling.
    pub(crate) fn scale_in_place(&mut self, alpha: f32) {
        for v in self.data.iter_mut() {
            *v *= alpha;
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element, writing into `out` (shapes already
    /// checked by the caller; `out` is fully overwritten).
    pub(crate) fn map_into<F: Fn(f32) -> f32>(&self, out: &mut Tensor, f: F) {
        debug_assert_eq!(self.len(), out.len());
        for (o, &v) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(v);
        }
    }

    /// Applies `f` to element pairs of `self` and `other`, writing into `out`
    /// (shapes already checked by the caller; `out` is fully overwritten).
    pub(crate) fn zip_map_into<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, out: &mut Tensor, f: F) {
        debug_assert_eq!(self.shape(), other.shape());
        debug_assert_eq!(self.len(), out.len());
        for ((o, &a), &b) in out.data.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = f(a, b);
        }
    }

    /// Overwrites `self` with the contents of an equally sized tensor.
    pub fn copy_from(&mut self, src: &Tensor) {
        debug_assert_eq!(self.len(), src.len());
        self.data.copy_from_slice(&src.data);
    }

    /// Changes the row count in place, keeping the column width. Existing
    /// rows are preserved (the storage is row-major, so growth appends at the
    /// end); new rows are zero-filled. Used by the online-update path to
    /// extend embedding tables when a graph delta introduces new entities —
    /// growth reallocates amortised, shrink-or-equal never touches the
    /// allocator.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.cols, 0.0);
        self.rows = rows;
    }

    /// Applies `f` to element pairs (shapes already checked by the caller).
    pub(crate) fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        debug_assert_eq!(self.shape(), other.shape());
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Matrix multiplication `self (m x k) * other (k x n) -> (m x n)`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        kernels::matmul(m, k, n, &self.data, &other.data, &mut out);
        Ok(Tensor {
            rows: m,
            cols: n,
            data: out.into(),
        })
    }

    /// Matrix multiplication through the single-threaded reference kernel
    /// ([`kernels::matmul_serial`]). Exists so parity tests and benchmarks can
    /// compare the dispatched path against the reference loop.
    pub fn matmul_serial(&self, other: &Tensor) -> Result<Tensor> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_serial",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_serial(m, k, n, &self.data, &other.data, &mut out);
        Ok(Tensor {
            rows: m,
            cols: n,
            data: out.into(),
        })
    }

    /// Matrix multiplication with the transpose of `other`:
    /// `self (m x k) * other^T (k x n)` where `other` is `n x k`. Computed as
    /// transpose + [`matmul`](Tensor::matmul), the route the tape's `Matmul`
    /// backward takes (several times faster than a dot-product kernel at this
    /// graph's short inner dimensions).
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Result<Tensor> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transpose_b",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        self.matmul(&other.transpose())
    }

    /// Matrix multiplication with the transpose of `self`:
    /// `self^T (k x m) * other (m x n)` where `self` is `m x k`.
    pub fn transpose_matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; k * n];
        kernels::transpose_matmul(m, k, n, &self.data, &other.data, &mut out);
        Ok(Tensor {
            rows: k,
            cols: n,
            data: out.into(),
        })
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Tensor) -> Result<Tensor> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "concat_cols",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(Tensor {
            rows: self.rows,
            cols,
            data: data.into(),
        })
    }

    /// Vertical concatenation (stacking rows).
    pub fn concat_rows(&self, other: &Tensor) -> Result<Tensor> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "concat_rows",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Tensor {
            rows: self.rows + other.rows,
            cols: self.cols,
            data: data.into(),
        })
    }

    /// Gathers the rows at `indices` (with repetition allowed).
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Tensor {
            rows: indices.len(),
            cols: self.cols,
            data: data.into(),
        })
    }

    /// Adds each row of `src` into `self` at the destination row given by
    /// `indices` (the scatter-add used by embedding-gradient accumulation).
    pub(crate) fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor) -> Result<()> {
        if src.rows != indices.len() || src.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "scatter_add_rows",
                lhs: (indices.len(), self.cols),
                rhs: src.shape(),
            });
        }
        for (k, &i) in indices.iter().enumerate() {
            if i >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    bound: self.rows,
                });
            }
            let dst = &mut self.data[i * self.cols..(i + 1) * self.cols];
            let s = src.row(k);
            for (d, &v) in dst.iter_mut().zip(s.iter()) {
                *d += v;
            }
        }
        Ok(())
    }

    /// Adds a row vector (`1 x cols`) to every row.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Result<Tensor> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            let dst = out.row_mut(r);
            for (d, &v) in dst.iter_mut().zip(row.data.iter()) {
                *d += v;
            }
        }
        Ok(out)
    }

    /// Row-wise dot products of two equally-shaped matrices, producing a
    /// `rows x 1` column. Used by the inner-product score function.
    pub fn rowwise_dot(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "rowwise_dot")?;
        let mut out = Tensor::zeros(self.rows, 1);
        kernels::rowwise_dot(self.rows, self.cols, &self.data, &other.data, &mut out.data);
        Ok(out)
    }

    /// Sum over all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean over all elements. Errors for empty tensors.
    pub fn mean(&self) -> Result<f32> {
        if self.data.is_empty() {
            return Err(TensorError::EmptyTensor { op: "mean" });
        }
        Ok(self.sum() / self.data.len() as f32)
    }

    /// Sum of squared elements.
    pub fn sum_squares(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Squared L2 distance between corresponding rows, as `rows x 1`.
    pub fn rowwise_sq_dist(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other, "rowwise_sq_dist")?;
        let mut out = Tensor::zeros(self.rows, 1);
        kernels::rowwise_sq_dist(self.rows, self.cols, &self.data, &other.data, &mut out.data);
        Ok(out)
    }

    /// Maximum element (None for empty tensors).
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.max(v)),
        })
    }

    /// Minimum element (None for empty tensors).
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.min(v)),
        })
    }

    /// Clamps all values into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Returns true if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// L2-normalises each row in place; zero rows are left untouched.
    /// Used by metric-learning baselines (CML) that constrain embeddings to
    /// the unit ball.
    pub fn normalize_rows_in_place(&mut self, max_norm: f32) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > max_norm && norm > 0.0 {
                let s = max_norm / norm;
                for v in row.iter_mut() {
                    *v *= s;
                }
            }
        }
    }

    /// Fills the tensor with zeros, keeping its allocation.
    pub(crate) fn fill_zero(&mut self) {
        for v in self.data.iter_mut() {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(2, 3).sum(), 0.0);
        assert_eq!(Tensor::ones(2, 3).sum(), 6.0);
        assert_eq!(Tensor::full(2, 2, 0.5).sum(), 2.0);
        assert_eq!(Tensor::scalar(3.0).scalar_value().unwrap(), 3.0);
        assert!(Tensor::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_checks_lengths() {
        let ok = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.shape(), (2, 2));
        assert!(Tensor::from_rows(&[vec![1.0], vec![2.0, 3.0]]).is_err());
        assert!(Tensor::from_rows(&[]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[5.0, 12.0, 21.0, 32.0]);
        assert!(a.add(&Tensor::zeros(3, 3)).is_err());
    }

    #[test]
    fn matmul_matches_manual() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn matmul_transpose_variants_agree() {
        let a = t(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = t(4, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0]);
        let via_t = a.matmul(&b.transpose()).unwrap();
        let direct = a.matmul_transpose_b(&b).unwrap();
        assert_eq!(via_t, direct);

        let c = t(2, 4, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let via_t2 = a.transpose().matmul(&c).unwrap();
        let direct2 = a.transpose_matmul(&c).unwrap();
        assert_eq!(via_t2, direct2);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn concat_and_slice() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t(2, 1, &[9.0, 9.0]);
        let c = a.concat_cols(&b).unwrap();
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 9.0]);
        let d = a.concat_rows(&a).unwrap();
        assert_eq!(d.shape(), (4, 2));
        assert_eq!(&d.as_slice()[4..], a.as_slice());
        assert!(a.concat_cols(&Tensor::zeros(3, 1)).is_err());
        assert!(a.concat_rows(&Tensor::zeros(1, 3)).is_err());
    }

    #[test]
    fn gather_and_scatter_are_adjoint() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let idx = [2usize, 0, 2];
        let g = a.gather_rows(&idx).unwrap();
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let mut acc = Tensor::zeros(3, 2);
        acc.scatter_add_rows(&idx, &g).unwrap();
        // row 2 gathered twice, so it is accumulated twice.
        assert_eq!(acc.row(2), &[10.0, 12.0]);
        assert_eq!(acc.row(0), &[1.0, 2.0]);
        assert_eq!(acc.row(1), &[0.0, 0.0]);
        assert!(a.gather_rows(&[7]).is_err());
        assert!(acc.scatter_add_rows(&[0], &Tensor::zeros(2, 2)).is_err());
    }

    #[test]
    fn broadcast_and_rowwise() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bias = t(1, 3, &[10.0, 20.0, 30.0]);
        let b = a.add_row_broadcast(&bias).unwrap();
        assert_eq!(b.row(1), &[14.0, 25.0, 36.0]);
        let dots = a.rowwise_dot(&a).unwrap();
        assert_eq!(dots.as_slice(), &[14.0, 77.0]);
        let dist = a.rowwise_sq_dist(&b).unwrap();
        assert_eq!(dist.as_slice(), &[100.0 + 400.0 + 900.0, 100.0 + 400.0 + 900.0]);
    }

    #[test]
    fn reductions() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean().unwrap() - 3.5).abs() < 1e-6);
        assert_eq!(a.sum_squares(), 91.0);
        assert_eq!(a.max(), Some(6.0));
        assert_eq!(a.min(), Some(1.0));
        assert!(Tensor::zeros(0, 0).mean().is_err());
        assert_eq!(Tensor::zeros(0, 0).max(), None);
    }

    #[test]
    fn normalize_rows_caps_norm() {
        let mut a = t(2, 2, &[3.0, 4.0, 0.3, 0.4]);
        a.normalize_rows_in_place(1.0);
        let n0: f32 = a.row(0).iter().map(|v| v * v).sum::<f32>().sqrt();
        let n1: f32 = a.row(1).iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((n0 - 1.0).abs() < 1e-5);
        assert!((n1 - 0.5).abs() < 1e-5);
    }

    #[test]
    fn misc_helpers() {
        let a = t(2, 2, &[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.clamp(-1.0, 1.0).as_slice(), &[1.0, -1.0, 1.0, -1.0]);
        assert!(a.all_finite());
        assert!(!t(1, 1, &[f32::NAN]).all_finite());
        let mut b = a.clone();
        b.fill_zero();
        assert_eq!(b.sum(), 0.0);
        let mut c = a.clone();
        c.axpy(2.0, &a).unwrap();
        assert_eq!(c.as_slice(), &[3.0, -6.0, 9.0, -12.0]);
    }
}
