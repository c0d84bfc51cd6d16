//! Compressed-sparse-row matrices.
//!
//! The adjacency matrices `A^X`, `A^Y` of the user-item bipartite graphs are
//! the only sparse operands in CDRIB's computation graph. They are constants
//! with respect to differentiation (only the dense embeddings flow
//! gradients), so the autodiff tape treats a [`CsrMatrix`] as frozen data and
//! only needs `S * X` (forward) and `S^T * G` (backward). A
//! [`SparseOperand`] carries both matrices, so both directions run the same
//! forward `spmm` kernel.

use crate::error::{Result, TensorError};
use crate::kernels::{self, CsrView};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A constant sparse operand `S` of [`Tape::spmm`](crate::tape::Tape::spmm)
/// together with its transpose `S^T`, materialised once.
///
/// The backward of `Y = S X` is `dX = S^T G`, computed as a forward `spmm`
/// over `S^T`: each output row gathers its nonzeros into register-resident
/// accumulators, where a scatter over `S` read-modify-writes an output row
/// per nonzero. [`CsrMatrix::transpose`] keeps each row's entries in
/// ascending source-row order, so every element is the same
/// `0 + v0 d0 + v1 d1 + ..` fold the scatter computes: bitwise equal on
/// every ISA tier.
#[derive(Debug, Clone)]
pub struct SparseOperand {
    matrix: Arc<CsrMatrix>,
    transpose: Arc<CsrMatrix>,
}

impl SparseOperand {
    /// Pairs `matrix` with its transpose (an `O(nnz)` copy, made here once).
    pub fn new(matrix: Arc<CsrMatrix>) -> Self {
        let transpose = Arc::new(matrix.transpose());
        SparseOperand { matrix, transpose }
    }

    /// `S`, the matrix the forward multiplies by.
    pub fn matrix(&self) -> &Arc<CsrMatrix> {
        &self.matrix
    }

    /// `S^T`, the matrix the backward multiplies by.
    pub fn transpose(&self) -> &Arc<CsrMatrix> {
        &self.transpose
    }

    /// The operand `S^T` (paired with `S`), sharing both matrices.
    pub fn transposed(&self) -> SparseOperand {
        SparseOperand {
            matrix: Arc::clone(&self.transpose),
            transpose: Arc::clone(&self.matrix),
        }
    }
}

/// A sparse matrix in compressed-sparse-row format with `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[r]..indptr[r+1]` is the column/value range of row `r`.
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets. Duplicate entries
    /// are summed. Triplets may arrive in any order.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows {
                return Err(TensorError::IndexOutOfBounds { index: r, bound: rows });
            }
            if c >= cols {
                return Err(TensorError::IndexOutOfBounds { index: c, bound: cols });
            }
        }
        // Counting sort by row.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for r in 0..rows {
            counts[r + 1] += counts[r];
        }
        let mut order: Vec<usize> = vec![0; triplets.len()];
        {
            let mut cursor = counts.clone();
            for (i, &(r, _, _)) in triplets.iter().enumerate() {
                order[cursor[r]] = i;
                cursor[r] += 1;
            }
        }
        let mut indptr = vec![0usize; rows + 1];
        let mut indices: Vec<u32> = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        for r in 0..rows {
            let start = counts[r];
            let end = counts[r + 1];
            let mut row_entries: Vec<(usize, f32)> = order[start..end]
                .iter()
                .map(|&i| (triplets[i].1, triplets[i].2))
                .collect();
            row_entries.sort_unstable_by_key(|&(c, _)| c);
            // merge duplicates
            let mut merged: Vec<(usize, f32)> = Vec::with_capacity(row_entries.len());
            for (c, v) in row_entries {
                match merged.last_mut() {
                    Some((lc, lv)) if *lc == c => *lv += v,
                    _ => merged.push((c, v)),
                }
            }
            for (c, v) in merged {
                indices.push(c as u32);
                values.push(v);
            }
            indptr[r + 1] = indices.len();
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds an unweighted (all ones) CSR matrix from edges.
    pub fn from_edges(rows: usize, cols: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let triplets: Vec<(usize, usize, f32)> = edges.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        Self::from_triplets(rows, cols, &triplets)
    }

    /// An empty matrix with no stored entries.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density of the matrix: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Iterator over the stored entries of row `r` as `(col, value)` pairs.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.indptr[r];
        let end = self.indptr[r + 1];
        self.indices[start..end]
            .iter()
            .zip(self.values[start..end].iter())
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Column indices of row `r`.
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Returns the stored value at `(r, c)` if present.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        if r >= self.rows || c >= self.cols {
            return None;
        }
        let cols = self.row_indices(r);
        cols.binary_search(&(c as u32))
            .ok()
            .map(|k| self.values[self.indptr[r] + k])
    }

    /// Row-normalises the matrix: each stored row sums to one (zero rows stay
    /// zero). This is the `Norm(·)` operator of Eq. (2)/(3).
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let start = self.indptr[r];
            let end = self.indptr[r + 1];
            let s: f32 = self.values[start..end].iter().sum();
            if s != 0.0 {
                for v in &mut out.values[start..end] {
                    *v /= s;
                }
            }
        }
        out
    }

    /// Symmetric (GCN-style) normalisation `D_r^{-1/2} A D_c^{-1/2}`, used by
    /// NGCF/PPGN baselines.
    pub fn sym_normalized(&self) -> CsrMatrix {
        let mut row_deg = vec![0.0f32; self.rows];
        let mut col_deg = vec![0.0f32; self.cols];
        for (r, deg) in row_deg.iter_mut().enumerate() {
            for (c, v) in self.row_iter(r) {
                *deg += v;
                col_deg[c] += v;
            }
        }
        let mut out = self.clone();
        for (r, &deg) in row_deg.iter().enumerate() {
            let start = self.indptr[r];
            let end = self.indptr[r + 1];
            let dr = if deg > 0.0 { deg.sqrt() } else { 1.0 };
            for k in start..end {
                let c = self.indices[k] as usize;
                let dc = if col_deg[c] > 0.0 { col_deg[c].sqrt() } else { 1.0 };
                out.values[k] /= dr * dc;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            counts[c + 1] += counts[c];
        }
        let indptr = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let pos = cursor[c];
                indices[pos] = r as u32;
                values[pos] = v;
                cursor[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Dense copy (for tests and tiny matrices only).
    pub fn to_dense(&self) -> Tensor {
        let mut t = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                t.set(r, c, v);
            }
        }
        t
    }

    /// Borrowed raw-parts view for the [`kernels`] spmm entry points.
    pub fn view(&self) -> CsrView<'_> {
        CsrView {
            rows: self.rows,
            cols: self.cols,
            indptr: &self.indptr,
            indices: &self.indices,
            values: &self.values,
        }
    }

    /// Sparse-dense product `self (r x c) * dense (c x n) -> (r x n)`.
    pub fn spmm(&self, dense: &Tensor) -> Result<Tensor> {
        if self.cols != dense.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "spmm",
                lhs: (self.rows, self.cols),
                rhs: dense.shape(),
            });
        }
        let n = dense.cols();
        let mut out = Tensor::zeros(self.rows, n);
        kernels::spmm(self.view(), n, dense.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// [`CsrMatrix::spmm`] through the single-threaded reference kernel, for
    /// parity tests and benchmarks.
    pub fn spmm_serial(&self, dense: &Tensor) -> Result<Tensor> {
        if self.cols != dense.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "spmm_serial",
                lhs: (self.rows, self.cols),
                rhs: dense.shape(),
            });
        }
        let n = dense.cols();
        let mut out = Tensor::zeros(self.rows, n);
        kernels::spmm_serial(self.view(), n, dense.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Rebuilds the matrix **in place** as the row-normalisation of a binary
    /// adjacency whose row `r` has the sorted column indices `row_cols(r)`:
    /// every stored value of row `r` becomes `1 / row_cols(r).len()` (empty
    /// rows stay empty). This is `Norm(·)` of Eq. (2)/(3) computed without a
    /// fresh allocation: the `indptr`/`indices`/`values` vectors are cleared
    /// and refilled, so once their capacity covers the edge count, delta
    /// batches rebuild the normalised views allocation-free
    /// (`tests/alloc_regression.rs`).
    ///
    /// The values are **bitwise identical** to
    /// `CsrMatrix::from_edges(..).row_normalized()`: that path sums `deg`
    /// ones in `f32` (exact for `deg < 2^24`) and divides, which equals the
    /// `1.0 / deg as f32` computed here.
    pub fn rebuild_row_normalized_uniform<'a, F: Fn(usize) -> &'a [u32]>(
        &mut self,
        rows: usize,
        cols: usize,
        row_cols: F,
    ) {
        self.rebuild_uniform_rows(rows, cols, row_cols, |deg| 1.0 / deg as f32);
    }

    /// Builds the binary (all ones) matrix whose row `r` has the sorted,
    /// deduplicated column indices `row_cols(r)`: `indptr` is the prefix sum
    /// of the row lengths and `indices` their concatenation. Equal to
    /// [`CsrMatrix::from_edges`] over the same entries, without its triplet
    /// buffer and per-row sort.
    pub fn from_sorted_rows<'a, F: Fn(usize) -> &'a [u32]>(rows: usize, cols: usize, row_cols: F) -> CsrMatrix {
        let mut out = CsrMatrix::empty(0, 0);
        out.rebuild_uniform_rows(rows, cols, row_cols, |_| 1.0);
        out
    }

    /// Refills the matrix from sorted, deduplicated rows, every stored value
    /// of a row set to `value(row length)`.
    fn rebuild_uniform_rows<'a, F: Fn(usize) -> &'a [u32]>(
        &mut self,
        rows: usize,
        cols: usize,
        row_cols: F,
        value: impl Fn(usize) -> f32,
    ) {
        self.rows = rows;
        self.cols = cols;
        self.indptr.clear();
        self.indices.clear();
        self.values.clear();
        self.indptr.push(0);
        for r in 0..rows {
            let row = row_cols(r);
            debug_assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {r}: column indices must be sorted and deduplicated"
            );
            debug_assert!(row.iter().all(|&c| (c as usize) < cols), "row {r}: column out of range");
            let v = value(row.len());
            self.indices.extend_from_slice(row);
            self.values.resize(self.indices.len(), v);
            self.indptr.push(self.indices.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0],
        //  [0, 5, 0]]
        CsrMatrix::from_triplets(4, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0), (3, 1, 5.0)]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.get(9, 0), None);
        assert_eq!(m.row_nnz(2), 2);
        assert!((m.density() - 5.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), Some(3.5));
    }

    #[test]
    fn out_of_bounds_triplets_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn row_normalization_sums_to_one() {
        let m = sample().row_normalized();
        let dense = m.to_dense();
        assert!((dense.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(dense.row(1).iter().sum::<f32>(), 0.0);
        assert!((dense.row(2).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sym_normalization_matches_manual() {
        let m = CsrMatrix::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let s = m.sym_normalized();
        // row degrees: [2,1]; col degrees: [2,1]
        assert!((s.get(0, 0).unwrap() - 1.0 / 2.0).abs() < 1e-6);
        assert!((s.get(0, 1).unwrap() - 1.0 / (2.0f32.sqrt())).abs() < 1e-6);
        assert!((s.get(1, 0).unwrap() - 1.0 / (2.0f32.sqrt())).abs() < 1e-6);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        assert_eq!(m.transpose().to_dense(), m.to_dense().transpose());
        assert_eq!(m.transpose().transpose().to_dense(), m.to_dense());
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = sample();
        let x = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let sparse_result = m.spmm(&x).unwrap();
        let dense_result = m.to_dense().matmul(&x).unwrap();
        assert_eq!(sparse_result, dense_result);
        assert!(m.spmm(&Tensor::zeros(5, 2)).is_err());
    }

    #[test]
    fn spmm_transpose_matches_dense() {
        // The backward product `S^T G` is `spmm` over the operand's stored
        // transpose.
        let m = sample();
        let op = SparseOperand::new(Arc::new(m.clone()));
        assert_eq!(op.matrix().as_ref(), &m);
        let g = Tensor::from_vec(4, 2, vec![1.0, 0.5, -1.0, 2.0, 0.0, 1.0, 3.0, -2.0]).unwrap();
        let a = op.transpose().spmm(&g).unwrap();
        let b = m.to_dense().transpose().matmul(&g).unwrap();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
        assert!(op.transpose().spmm(&Tensor::zeros(3, 2)).is_err());
        let back = op.transposed();
        assert!(Arc::ptr_eq(back.matrix(), op.transpose()));
        assert!(Arc::ptr_eq(back.transpose(), op.matrix()));
    }

    #[test]
    fn rebuild_row_normalized_uniform_matches_classic_path() {
        // The in-place rebuild must reproduce `from_edges(..).row_normalized()`
        // bit for bit — the online-update path swaps one for the other.
        let rows: Vec<Vec<u32>> = vec![vec![0, 2, 5], vec![], vec![1], vec![0, 1, 2, 3, 4, 5, 6]];
        let edges: Vec<(usize, usize)> = rows
            .iter()
            .enumerate()
            .flat_map(|(r, cs)| cs.iter().map(move |&c| (r, c as usize)))
            .collect();
        let classic = CsrMatrix::from_edges(4, 7, &edges).unwrap().row_normalized();
        let mut rebuilt = CsrMatrix::empty(1, 1);
        rebuilt.rebuild_row_normalized_uniform(4, 7, |r| &rows[r]);
        assert_eq!(rebuilt, classic);
        // Rebuilding again over the same storage is idempotent and in place.
        rebuilt.rebuild_row_normalized_uniform(4, 7, |r| &rows[r]);
        assert_eq!(rebuilt, classic);
        // Shrinking to a smaller shape works too.
        rebuilt.rebuild_row_normalized_uniform(2, 7, |r| &rows[r]);
        assert_eq!(rebuilt.rows(), 2);
        assert_eq!(rebuilt.nnz(), 3);
        assert_eq!(rebuilt.get(0, 2), Some(1.0 / 3.0));
        // The binary form equals the triplet construction it replaces.
        assert_eq!(
            CsrMatrix::from_sorted_rows(4, 7, |r| &rows[r]),
            CsrMatrix::from_edges(4, 7, &edges).unwrap()
        );
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::empty(3, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        let x = Tensor::ones(4, 2);
        assert_eq!(m.spmm(&x).unwrap().sum(), 0.0);
    }
}
