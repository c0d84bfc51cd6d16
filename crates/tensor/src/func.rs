//! The tape-free functional forward layer.
//!
//! Training (through the autodiff [`Tape`](crate::tape::Tape)) and inference
//! (through frozen-model paths like `cdrib-core`'s `InferenceModel`) must
//! compute *the same* forward pass — down to the bit, so a served score is
//! exactly the score the trainer validated. This module is that single
//! definition: each `*_into` function owns one forward computation
//! (shape checks included) on plain [`Tensor`]s, dispatching into
//! [`kernels`] for the arithmetic. The tape's recording ops call these
//! functions for their values and add only the graph bookkeeping on top;
//! inference callers use them directly through a [`FuncCtx`], whose
//! [`BufferPool`] makes warm forward passes allocation-free.

use crate::error::{Result, TensorError};
use crate::kernels;
use crate::pool::{BufferPool, PoolStats};
use crate::sparse::CsrMatrix;
use crate::tensor::Tensor;

/// Shape-checks and computes `out = a b` (dense matmul).
pub(crate) fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    if k != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (m, k),
            rhs: (kb, n),
        });
    }
    debug_assert_eq!(out.shape(), (m, n));
    kernels::matmul(m, k, n, a.as_slice(), b.as_slice(), out.as_mut_slice());
    Ok(())
}

/// Shape-checks and computes `out = sparse · dense`.
pub(crate) fn spmm_into(sparse: &CsrMatrix, dense: &Tensor, out: &mut Tensor) -> Result<()> {
    let (dr, n) = dense.shape();
    if sparse.cols() != dr {
        return Err(TensorError::ShapeMismatch {
            op: "spmm",
            lhs: (sparse.rows(), sparse.cols()),
            rhs: (dr, n),
        });
    }
    debug_assert_eq!(out.shape(), (sparse.rows(), n));
    kernels::spmm(sparse.view(), n, dense.as_slice(), out.as_mut_slice());
    Ok(())
}

/// Shape-checks and computes the selected `rows` of `sparse · dense`,
/// compacted into `out` (`rows.len() x dense.cols`). Row `i` of `out` is
/// bitwise identical to row `rows[i]` of [`spmm_into`]'s result — the
/// incremental re-encode path's core primitive.
pub(crate) fn spmm_rows_into(sparse: &CsrMatrix, rows: &[u32], dense: &Tensor, out: &mut Tensor) -> Result<()> {
    let (dr, n) = dense.shape();
    if sparse.cols() != dr {
        return Err(TensorError::ShapeMismatch {
            op: "spmm_rows",
            lhs: (sparse.rows(), sparse.cols()),
            rhs: (dr, n),
        });
    }
    for &r in rows {
        if r as usize >= sparse.rows() {
            return Err(TensorError::IndexOutOfBounds {
                index: r as usize,
                bound: sparse.rows(),
            });
        }
    }
    debug_assert_eq!(out.shape(), (rows.len(), n));
    kernels::spmm_rows(sparse.view(), rows, n, dense.as_slice(), out.as_mut_slice());
    Ok(())
}

/// Shape-checks and computes the horizontal concatenation `out = [a | b]`.
pub(crate) fn concat_cols_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (rows, ca) = a.shape();
    let (rb, cb) = b.shape();
    if rows != rb {
        return Err(TensorError::ShapeMismatch {
            op: "concat_cols",
            lhs: (rows, ca),
            rhs: (rb, cb),
        });
    }
    debug_assert_eq!(out.shape(), (rows, ca + cb));
    for r in 0..rows {
        let dst = out.row_mut(r);
        dst[..ca].copy_from_slice(a.row(r));
        dst[ca..].copy_from_slice(b.row(r));
    }
    Ok(())
}

/// Shape-checks and adds a `1 x cols` bias row to every row of `matrix`:
/// `out[r][c] = matrix[r][c] + row[0][c]`.
pub(crate) fn add_row_broadcast_into(matrix: &Tensor, row: &Tensor, out: &mut Tensor) -> Result<()> {
    let (rows, cols) = matrix.shape();
    if row.shape() != (1, cols) {
        return Err(TensorError::ShapeMismatch {
            op: "add_row_broadcast",
            lhs: (rows, cols),
            rhs: row.shape(),
        });
    }
    debug_assert_eq!(out.shape(), (rows, cols));
    let bias = row.as_slice();
    for r in 0..rows {
        for ((o, &v), &b) in out.row_mut(r).iter_mut().zip(matrix.row(r)).zip(bias) {
            *o = v + b;
        }
    }
    Ok(())
}

/// `out = LeakyReLU(x)` with the given negative slope.
pub(crate) fn leaky_relu_into(x: &Tensor, slope: f32, out: &mut Tensor) {
    debug_assert_eq!(out.shape(), x.shape());
    kernels::map(
        x.as_slice(),
        out.as_mut_slice(),
        |v| if v >= 0.0 { v } else { slope * v },
    );
}

/// `out = softplus(x)`, numerically stable at both tails.
pub(crate) fn softplus_into(x: &Tensor, out: &mut Tensor) {
    debug_assert_eq!(out.shape(), x.shape());
    kernels::softplus_forward(x.as_slice(), out.as_mut_slice());
}

/// `out = sigmoid(x)`.
pub(crate) fn sigmoid_into(x: &Tensor, out: &mut Tensor) {
    debug_assert_eq!(out.shape(), x.shape());
    kernels::sigmoid_forward(x.as_slice(), out.as_mut_slice());
}

/// `out = tanh(x)`.
pub(crate) fn tanh_into(x: &Tensor, out: &mut Tensor) {
    debug_assert_eq!(out.shape(), x.shape());
    x.map_into(out, |v| v.tanh());
}

/// A pooled execution context for tape-free forward passes.
///
/// Every op draws its output from the context's [`BufferPool`]; callers hand
/// intermediates back with [`FuncCtx::recycle`] once consumed, so a warm
/// inference pass performs zero allocator requests (enforced by
/// `tests/alloc_regression.rs` at the model level).
#[derive(Debug, Default)]
pub struct FuncCtx {
    pool: BufferPool,
}

impl FuncCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        FuncCtx::default()
    }

    /// Takes a `rows x cols` buffer with unspecified contents from the pool.
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        self.pool.take_uninit(rows, cols)
    }

    /// Returns a tensor's storage to the pool.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.pool.put(tensor);
    }

    /// Pool hit/miss counters (diagnostics and the allocation-regression
    /// tests).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Pooled dense matmul `a b`.
    pub fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let mut out = self.take(a.rows(), b.cols());
        match matmul_into(a, b, &mut out) {
            Ok(()) => Ok(out),
            Err(e) => {
                self.recycle(out);
                Err(e)
            }
        }
    }

    /// Pooled sparse-dense product `sparse · dense`.
    pub fn spmm(&mut self, sparse: &CsrMatrix, dense: &Tensor) -> Result<Tensor> {
        let mut out = self.take(sparse.rows(), dense.cols());
        match spmm_into(sparse, dense, &mut out) {
            Ok(()) => Ok(out),
            Err(e) => {
                self.recycle(out);
                Err(e)
            }
        }
    }

    /// Pooled row-subset sparse-dense product: the selected `rows` of
    /// `sparse · dense`, compacted into a `rows.len() x dense.cols` tensor.
    pub fn spmm_rows(&mut self, sparse: &CsrMatrix, rows: &[u32], dense: &Tensor) -> Result<Tensor> {
        let mut out = self.take(rows.len(), dense.cols());
        match spmm_rows_into(sparse, rows, dense, &mut out) {
            Ok(()) => Ok(out),
            Err(e) => {
                self.recycle(out);
                Err(e)
            }
        }
    }

    /// Pre-parks `count` buffers of the `rows x cols` size class so a later
    /// burst of takes at that shape is pool-served from the first call.
    /// The online-update path uses this to keep even the *first* delta batch
    /// after warm-up off the allocator for its known full-table stages.
    pub fn prewarm(&mut self, rows: usize, cols: usize, count: usize) {
        self.pool.prewarm(rows * cols, count);
    }

    /// Pooled horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let mut out = self.take(a.rows(), a.cols() + b.cols());
        match concat_cols_into(a, b, &mut out) {
            Ok(()) => Ok(out),
            Err(e) => {
                self.recycle(out);
                Err(e)
            }
        }
    }

    /// Pooled bias-row broadcast `matrix + row`.
    pub fn add_row_broadcast(&mut self, matrix: &Tensor, row: &Tensor) -> Result<Tensor> {
        let mut out = self.take(matrix.rows(), matrix.cols());
        match add_row_broadcast_into(matrix, row, &mut out) {
            Ok(()) => Ok(out),
            Err(e) => {
                self.recycle(out);
                Err(e)
            }
        }
    }

    /// Pooled LeakyReLU.
    pub fn leaky_relu(&mut self, x: &Tensor, slope: f32) -> Tensor {
        let mut out = self.take(x.rows(), x.cols());
        leaky_relu_into(x, slope, &mut out);
        out
    }

    /// Pooled softplus.
    pub fn softplus(&mut self, x: &Tensor) -> Tensor {
        let mut out = self.take(x.rows(), x.cols());
        softplus_into(x, &mut out);
        out
    }

    /// Pooled sigmoid.
    pub fn sigmoid(&mut self, x: &Tensor) -> Tensor {
        let mut out = self.take(x.rows(), x.cols());
        sigmoid_into(x, &mut out);
        out
    }

    /// Pooled tanh.
    pub(crate) fn tanh(&mut self, x: &Tensor) -> Tensor {
        let mut out = self.take(x.rows(), x.cols());
        tanh_into(x, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{component_rng, normal_tensor};
    use crate::tape::Tape;

    /// The load-bearing property of the whole layer: for each shared op, the
    /// tape's recorded forward value and the functional result are the same
    /// bytes — no re-derived formula, no drifted epsilon.
    #[test]
    fn functional_ops_match_tape_bitwise() {
        let mut rng = component_rng(0, "func-parity");
        let a = normal_tensor(&mut rng, 17, 9, 1.0);
        let b = normal_tensor(&mut rng, 9, 13, 1.0);
        let bias = normal_tensor(&mut rng, 1, 9, 1.0);
        let sparse = CsrMatrix::from_edges(6, 17, &[(0, 0), (0, 3), (1, 5), (2, 2), (3, 16), (5, 8), (5, 9)])
            .unwrap()
            .row_normalized();

        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let bv = tape.constant(b.clone());
        let biasv = tape.constant(bias.clone());
        let sparse_op = crate::sparse::SparseOperand::new(std::sync::Arc::new(sparse.clone()));

        let mut ctx = FuncCtx::new();

        let t = tape.matmul(av, bv).unwrap();
        assert_eq!(tape.value(t).unwrap(), &ctx.matmul(&a, &b).unwrap());

        let t = tape.spmm(&sparse_op, av).unwrap();
        assert_eq!(tape.value(t).unwrap(), &ctx.spmm(&sparse, &a).unwrap());

        let t = tape.concat_cols(av, av).unwrap();
        assert_eq!(tape.value(t).unwrap(), &ctx.concat_cols(&a, &a).unwrap());

        let t = tape.add_row_broadcast(av, biasv).unwrap();
        assert_eq!(tape.value(t).unwrap(), &ctx.add_row_broadcast(&a, &bias).unwrap());

        let t = tape.leaky_relu(av, 0.1).unwrap();
        assert_eq!(tape.value(t).unwrap(), &ctx.leaky_relu(&a, 0.1));

        let t = tape.softplus(av).unwrap();
        assert_eq!(tape.value(t).unwrap(), &ctx.softplus(&a));

        let t = tape.sigmoid(av).unwrap();
        assert_eq!(tape.value(t).unwrap(), &ctx.sigmoid(&a));

        let t = tape.tanh(av).unwrap();
        assert_eq!(tape.value(t).unwrap(), &ctx.tanh(&a));
    }

    #[test]
    fn shape_mismatches_are_rejected_and_recycled() {
        let mut ctx = FuncCtx::new();
        let a = Tensor::ones(2, 3);
        let b = Tensor::ones(4, 2);
        assert!(ctx.matmul(&a, &b).is_err());
        assert!(ctx.concat_cols(&a, &b).is_err());
        assert!(ctx.add_row_broadcast(&a, &b).is_err());
        let sparse = CsrMatrix::from_edges(2, 5, &[(0, 0)]).unwrap();
        assert!(ctx.spmm(&sparse, &a).is_err());
        // Failed ops must not leak their output buffers: every one of the
        // four rejected outputs went back to the pool (a take that hit the
        // pool consumed one parked buffer, so parked + hits covers all four
        // puts).
        let stats = ctx.pool_stats();
        assert_eq!(stats.parked as u64 + stats.hits, 4);
    }

    #[test]
    fn warm_ctx_serves_from_the_pool() {
        let mut ctx = FuncCtx::new();
        let a = Tensor::ones(8, 8);
        let out = ctx.matmul(&a, &a).unwrap();
        ctx.recycle(out);
        let misses = ctx.pool_stats().misses;
        for _ in 0..10 {
            let out = ctx.matmul(&a, &a).unwrap();
            ctx.recycle(out);
        }
        assert_eq!(ctx.pool_stats().misses, misses, "warm ops must not miss the pool");
    }
}
