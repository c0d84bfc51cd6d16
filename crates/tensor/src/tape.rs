//! Reverse-mode automatic differentiation.
//!
//! The [`Tape`] records every operation of a forward pass as a node holding
//! its output value and enough information to propagate gradients to its
//! parents. Calling [`Tape::backward`] walks the recorded nodes in reverse,
//! accumulates gradients, and finally writes parameter gradients into the
//! [`ParamSet`] that was used during the forward pass.
//!
//! The operation set is exactly what CDRIB and its baselines need: dense and
//! sparse matrix products, row gathering for embedding lookups, the LeakyReLU
//! / Softplus / sigmoid nonlinearities of the VBGE, Gaussian KL divergence
//! for the minimality terms, and binary cross-entropy for the reconstruction
//! and contrastive terms.
//!
//! ## Buffer pooling
//!
//! CDRIB re-records an identical graph every training step, so the tape owns
//! a [`BufferPool`] and draws every node value — and every gradient buffer of
//! the backward pass — from it. [`Tape::reset`] returns all storage to the
//! pool instead of freeing it, which makes a warm training step (hold one
//! tape per run, `reset` between steps) allocation-free: after the first
//! couple of steps every buffer request is served by recycled storage.
//! Gradients are accumulated in place through the fused kernels of
//! [`crate::kernels`]; no intermediate gradient tensors are materialised for
//! the hot backward chains.

use crate::error::{Result, TensorError};
use crate::func;
use crate::kernels;
use crate::params::{ParamId, ParamSet};
use crate::pool::{BufferPool, PoolStats};
use crate::sparse::{CsrMatrix, SparseOperand};
use crate::tensor::Tensor;
use std::sync::Arc;

pub use crate::kernels::sigmoid_scalar;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var {
    index: usize,
    generation: u64,
}

impl Var {
    /// Index of the node inside its tape (primarily for diagnostics).
    pub fn index(&self) -> usize {
        self.index
    }
}

/// The recorded operation of a tape node.
#[derive(Debug, Clone)]
enum Op {
    Constant,
    Param(ParamId),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    AddRowBroadcast {
        matrix: usize,
        row: usize,
    },
    Scale {
        input: usize,
        factor: f32,
    },
    Matmul(usize, usize),
    Spmm {
        sparse_t: Arc<CsrMatrix>,
        dense: usize,
    },
    ConcatCols(usize, usize),
    ConcatRows(usize, usize),
    GatherRows {
        input: usize,
        indices: Arc<Vec<usize>>,
    },
    GatherRowwiseDot {
        a: usize,
        b: usize,
        a_idx: Arc<Vec<usize>>,
        b_idx: Arc<Vec<usize>>,
    },
    LeakyRelu {
        input: usize,
        slope: f32,
    },
    Softplus {
        input: usize,
    },
    Sigmoid {
        input: usize,
    },
    Tanh {
        input: usize,
    },
    Exp {
        input: usize,
    },
    Log {
        input: usize,
    },
    SumAll {
        input: usize,
    },
    MeanAll {
        input: usize,
    },
    SumSquares {
        input: usize,
    },
    Dropout {
        input: usize,
        mask: Tensor,
    },
    RowwiseDot(usize, usize),
    RowwiseSqDist(usize, usize),
    KlStdNormal {
        mu: usize,
        sigma: usize,
    },
    BceWithLogits {
        logits: usize,
        targets: Tensor,
    },
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
    requires_grad: bool,
}

/// A single forward pass worth of recorded operations plus the recycled
/// storage that backs them.
#[derive(Debug)]
pub struct Tape {
    nodes: Vec<Node>,
    generation: u64,
    pool: BufferPool,
    /// Scratch slots of the backward pass, kept across calls so the
    /// `Vec<Option<Tensor>>` itself is allocated once per tape.
    grad_slots: Vec<Option<Tensor>>,
}

/// Small epsilon protecting logs and divisions in the KL term.
const EPS: f32 = 1e-8;

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::new(),
            generation: 1,
            pool: BufferPool::new(),
            grad_slots: Vec::new(),
        }
    }

    /// Clears all recorded nodes so the tape can be reused for the next
    /// forward pass. The node list keeps its capacity and every node's
    /// storage (values, dropout masks, BCE targets) is returned to the
    /// tape's buffer pool for reuse. Outstanding [`Var`] handles become
    /// stale and are rejected by subsequent operations.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            match node.op {
                Op::Dropout { mask, .. } => self.pool.put(mask),
                Op::BceWithLogits { targets, .. } => self.pool.put(targets),
                _ => {}
            }
            self.pool.put(node.value);
        }
        self.generation += 1;
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Hit/miss counters of the tape's buffer pool (diagnostics and the
    /// allocation-regression tests).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Takes a `rows x cols` buffer from the tape's pool. The contents are
    /// **unspecified**; callers must overwrite every element. Intended for
    /// caller-built tensors that end up on the tape anyway (dropout masks,
    /// reparameterisation noise, label columns) so their storage joins the
    /// recycling cycle. Buffers that do not get recorded can be handed back
    /// with [`Tape::recycle`].
    pub fn scratch(&mut self, rows: usize, cols: usize) -> Tensor {
        self.pool.take_uninit(rows, cols)
    }

    /// Returns a tensor's storage to the tape's pool without recording it.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.pool.put(tensor);
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        Var {
            index: self.nodes.len() - 1,
            generation: self.generation,
        }
    }

    fn check(&self, v: Var) -> Result<usize> {
        if v.generation != self.generation {
            return Err(TensorError::StaleVariable {
                var_generation: v.generation,
                tape_generation: self.generation,
            });
        }
        if v.index >= self.nodes.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: v.index,
                bound: self.nodes.len(),
            });
        }
        Ok(v.index)
    }

    fn val(&self, idx: usize) -> &Tensor {
        &self.nodes[idx].value
    }

    fn rg(&self, idx: usize) -> bool {
        self.nodes[idx].requires_grad
    }

    /// Shape of `ia`, after checking both operands have the same shape.
    fn same_shape(&self, op: &'static str, ia: usize, ib: usize) -> Result<(usize, usize)> {
        let (sa, sb) = (self.val(ia).shape(), self.val(ib).shape());
        if sa != sb {
            return Err(TensorError::ShapeMismatch { op, lhs: sa, rhs: sb });
        }
        Ok(sa)
    }

    /// Pooled `1 x 1` tensor holding `value`.
    fn pooled_scalar(&mut self, value: f32) -> Tensor {
        let mut t = self.pool.take_uninit(1, 1);
        t.as_mut_slice()[0] = value;
        t
    }

    /// The value currently held by a node.
    pub fn value(&self, v: Var) -> Result<&Tensor> {
        let idx = self.check(v)?;
        Ok(self.val(idx))
    }

    /// Records a constant (non-differentiable) tensor, taking ownership.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Constant, false)
    }

    /// Records a constant by copying it into pooled storage (the
    /// allocation-free alternative to `constant(value.clone())`).
    pub fn constant_copy(&mut self, value: &Tensor) -> Var {
        let (r, c) = value.shape();
        let mut copied = self.pool.take_uninit(r, c);
        copied.copy_from(value);
        self.push(copied, Op::Constant, false)
    }

    /// Records a trainable parameter leaf. The parameter value is copied onto
    /// the tape (into pooled storage) so later in-place updates do not
    /// invalidate the recording.
    pub fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        let (r, c) = params.value(id).shape();
        let mut value = self.pool.take_uninit(r, c);
        value.copy_from(params.value(id));
        self.push(value, Op::Param(id), true)
    }

    /// Elementwise addition.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        let (r, c) = self.same_shape("add", ia, ib)?;
        let mut out = self.pool.take_uninit(r, c);
        kernels::zip(
            self.val(ia).as_slice(),
            self.val(ib).as_slice(),
            out.as_mut_slice(),
            |x, y| x + y,
        );
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(out, Op::Add(ia, ib), rg))
    }

    /// Elementwise subtraction `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        let (r, c) = self.same_shape("sub", ia, ib)?;
        let mut out = self.pool.take_uninit(r, c);
        kernels::zip(
            self.val(ia).as_slice(),
            self.val(ib).as_slice(),
            out.as_mut_slice(),
            |x, y| x - y,
        );
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(out, Op::Sub(ia, ib), rg))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        let (r, c) = self.same_shape("mul", ia, ib)?;
        let mut out = self.pool.take_uninit(r, c);
        kernels::zip(
            self.val(ia).as_slice(),
            self.val(ib).as_slice(),
            out.as_mut_slice(),
            |x, y| x * y,
        );
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(out, Op::Mul(ia, ib), rg))
    }

    /// Adds a `1 x cols` bias row to every row of `matrix`.
    pub fn add_row_broadcast(&mut self, matrix: Var, row: Var) -> Result<Var> {
        let (im, ir) = (self.check(matrix)?, self.check(row)?);
        let (rows, cols) = self.val(im).shape();
        let mut out = self.pool.take_uninit(rows, cols);
        if let Err(e) = func::add_row_broadcast_into(self.val(im), self.val(ir), &mut out) {
            self.pool.put(out);
            return Err(e);
        }
        let rg = self.rg(im) || self.rg(ir);
        Ok(self.push(out, Op::AddRowBroadcast { matrix: im, row: ir }, rg))
    }

    /// Multiplies every element by a constant factor.
    pub fn scale(&mut self, a: Var, factor: f32) -> Result<Var> {
        let ia = self.check(a)?;
        let (r, c) = self.val(ia).shape();
        let mut out = self.pool.take_uninit(r, c);
        kernels::map(self.val(ia).as_slice(), out.as_mut_slice(), |v| v * factor);
        let rg = self.rg(ia);
        Ok(self.push(out, Op::Scale { input: ia, factor }, rg))
    }

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        let (m, _) = self.val(ia).shape();
        let (_, n) = self.val(ib).shape();
        let mut out = self.pool.take_uninit(m, n);
        if let Err(e) = func::matmul_into(self.val(ia), self.val(ib), &mut out) {
            self.pool.put(out);
            return Err(e);
        }
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(out, Op::Matmul(ia, ib), rg))
    }

    /// Sparse-dense matrix product `S X` with a constant sparse operand; the
    /// backward multiplies by the operand's stored transpose.
    pub fn spmm(&mut self, sparse: &SparseOperand, dense: Var) -> Result<Var> {
        let id = self.check(dense)?;
        let n = self.val(id).cols();
        let mut out = self.pool.take_uninit(sparse.matrix().rows(), n);
        if let Err(e) = func::spmm_into(sparse.matrix(), self.val(id), &mut out) {
            self.pool.put(out);
            return Err(e);
        }
        let rg = self.rg(id);
        Ok(self.push(
            out,
            Op::Spmm {
                sparse_t: Arc::clone(sparse.transpose()),
                dense: id,
            },
            rg,
        ))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        let (rows, ca) = self.val(ia).shape();
        let cb = self.val(ib).cols();
        let mut out = self.pool.take_uninit(rows, ca + cb);
        if let Err(e) = func::concat_cols_into(self.val(ia), self.val(ib), &mut out) {
            self.pool.put(out);
            return Err(e);
        }
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(out, Op::ConcatCols(ia, ib), rg))
    }

    /// Vertical concatenation (stacking `b` below `a`).
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        let (ra, cols) = self.val(ia).shape();
        let (rb, cb) = self.val(ib).shape();
        if cols != cb {
            return Err(TensorError::ShapeMismatch {
                op: "concat_rows",
                lhs: (ra, cols),
                rhs: (rb, cb),
            });
        }
        let mut out = self.pool.take_uninit(ra + rb, cols);
        {
            let split = ra * cols;
            out.as_mut_slice()[..split].copy_from_slice(self.val(ia).as_slice());
            out.as_mut_slice()[split..].copy_from_slice(self.val(ib).as_slice());
        }
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(out, Op::ConcatRows(ia, ib), rg))
    }

    /// Gathers rows of `input` (embedding lookup / sub-batch selection).
    pub fn gather_rows(&mut self, input: Var, indices: &[usize]) -> Result<Var> {
        let shared = Arc::new(indices.to_vec());
        self.gather_rows_shared(input, &shared)
    }

    /// [`Tape::gather_rows`] with caller-owned shared indices: the tape keeps
    /// an `Arc` clone (a refcount bump) instead of copying the index list, so
    /// callers that reuse an index buffer across steps record gathers without
    /// allocating. The caller regains `Arc::get_mut` access after
    /// [`Tape::reset`] drops the tape's clone.
    pub fn gather_rows_shared(&mut self, input: Var, indices: &Arc<Vec<usize>>) -> Result<Var> {
        let ii = self.check(input)?;
        let (src_rows, cols) = self.val(ii).shape();
        for &i in indices.iter() {
            if i >= src_rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    bound: src_rows,
                });
            }
        }
        let mut out = self.pool.take_uninit(indices.len(), cols);
        {
            let src = self.val(ii);
            for (k, &i) in indices.iter().enumerate() {
                out.row_mut(k).copy_from_slice(src.row(i));
            }
        }
        let rg = self.rg(ii);
        Ok(self.push(
            out,
            Op::GatherRows {
                input: ii,
                indices: Arc::clone(indices),
            },
            rg,
        ))
    }

    /// Fused sampled inner products `out[k] = <a[a_idx[k]], b[b_idx[k]]>`
    /// producing a `len x 1` column — `gather_rows` + `rowwise_dot` without
    /// materialising the gathered matrices (the scoring pattern of every
    /// sampled-interaction loss). The index lists must have equal length;
    /// the tape shares them by refcount like [`Tape::gather_rows_shared`].
    pub fn gather_rowwise_dot(
        &mut self,
        a: Var,
        b: Var,
        a_idx: &Arc<Vec<usize>>,
        b_idx: &Arc<Vec<usize>>,
    ) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        if a_idx.len() != b_idx.len() {
            return Err(TensorError::LengthMismatch {
                expected: a_idx.len(),
                got: b_idx.len(),
            });
        }
        let cols = self.val(ia).cols();
        if self.val(ib).cols() != cols {
            return Err(TensorError::ShapeMismatch {
                op: "gather_rowwise_dot",
                lhs: self.val(ia).shape(),
                rhs: self.val(ib).shape(),
            });
        }
        for (&i, bound) in a_idx
            .iter()
            .map(|i| (i, self.val(ia).rows()))
            .chain(b_idx.iter().map(|i| (i, self.val(ib).rows())))
        {
            if i >= bound {
                return Err(TensorError::IndexOutOfBounds { index: i, bound });
            }
        }
        let mut out = self.pool.take_uninit(a_idx.len(), 1);
        kernels::gather_rowwise_dot(
            cols,
            self.val(ia).as_slice(),
            self.val(ib).as_slice(),
            a_idx,
            b_idx,
            out.as_mut_slice(),
        );
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(
            out,
            Op::GatherRowwiseDot {
                a: ia,
                b: ib,
                a_idx: Arc::clone(a_idx),
                b_idx: Arc::clone(b_idx),
            },
            rg,
        ))
    }

    /// LeakyReLU activation with the given negative slope.
    pub fn leaky_relu(&mut self, input: Var, slope: f32) -> Result<Var> {
        let ii = self.check(input)?;
        let (r, c) = self.val(ii).shape();
        let mut out = self.pool.take_uninit(r, c);
        func::leaky_relu_into(self.val(ii), slope, &mut out);
        let rg = self.rg(ii);
        Ok(self.push(out, Op::LeakyRelu { input: ii, slope }, rg))
    }

    /// Softplus activation `ln(1 + exp(x))`, computed stably.
    pub fn softplus(&mut self, input: Var) -> Result<Var> {
        let ii = self.check(input)?;
        let (r, c) = self.val(ii).shape();
        let mut out = self.pool.take_uninit(r, c);
        func::softplus_into(self.val(ii), &mut out);
        let rg = self.rg(ii);
        Ok(self.push(out, Op::Softplus { input: ii }, rg))
    }

    /// Logistic sigmoid activation.
    pub fn sigmoid(&mut self, input: Var) -> Result<Var> {
        let ii = self.check(input)?;
        let (r, c) = self.val(ii).shape();
        let mut out = self.pool.take_uninit(r, c);
        func::sigmoid_into(self.val(ii), &mut out);
        let rg = self.rg(ii);
        Ok(self.push(out, Op::Sigmoid { input: ii }, rg))
    }

    /// Hyperbolic tangent activation.
    pub(crate) fn tanh(&mut self, input: Var) -> Result<Var> {
        let ii = self.check(input)?;
        let (r, c) = self.val(ii).shape();
        let mut out = self.pool.take_uninit(r, c);
        func::tanh_into(self.val(ii), &mut out);
        let rg = self.rg(ii);
        Ok(self.push(out, Op::Tanh { input: ii }, rg))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, input: Var) -> Result<Var> {
        let ii = self.check(input)?;
        let (r, c) = self.val(ii).shape();
        let mut out = self.pool.take_uninit(r, c);
        kernels::exp_forward(self.val(ii).as_slice(), out.as_mut_slice());
        let rg = self.rg(ii);
        Ok(self.push(out, Op::Exp { input: ii }, rg))
    }

    /// Elementwise natural logarithm of `x + EPS` (inputs must be >= 0).
    pub fn log(&mut self, input: Var) -> Result<Var> {
        let ii = self.check(input)?;
        let (r, c) = self.val(ii).shape();
        let mut out = self.pool.take_uninit(r, c);
        kernels::ln_forward(EPS, self.val(ii).as_slice(), out.as_mut_slice());
        let rg = self.rg(ii);
        Ok(self.push(out, Op::Log { input: ii }, rg))
    }

    /// Sum over every element, producing a `1 x 1` scalar node.
    pub fn sum(&mut self, input: Var) -> Result<Var> {
        let ii = self.check(input)?;
        let total = self.val(ii).sum();
        let value = self.pooled_scalar(total);
        let rg = self.rg(ii);
        Ok(self.push(value, Op::SumAll { input: ii }, rg))
    }

    /// Mean over every element, producing a `1 x 1` scalar node.
    pub fn mean(&mut self, input: Var) -> Result<Var> {
        let ii = self.check(input)?;
        let mean = self.val(ii).mean()?;
        let value = self.pooled_scalar(mean);
        let rg = self.rg(ii);
        Ok(self.push(value, Op::MeanAll { input: ii }, rg))
    }

    /// Sum of squared elements (used for explicit L2 regularisation).
    pub fn sum_squares(&mut self, input: Var) -> Result<Var> {
        let ii = self.check(input)?;
        let total = self.val(ii).sum_squares();
        let value = self.pooled_scalar(total);
        let rg = self.rg(ii);
        Ok(self.push(value, Op::SumSquares { input: ii }, rg))
    }

    /// Inverted dropout with the given drop `rate`; the mask is supplied by
    /// the caller (so that the caller owns the RNG stream). Building the mask
    /// in a [`Tape::scratch`] buffer keeps the step allocation-free.
    pub fn dropout(&mut self, input: Var, mask: Tensor) -> Result<Var> {
        let ii = self.check(input)?;
        if mask.shape() != self.val(ii).shape() {
            return Err(TensorError::ShapeMismatch {
                op: "dropout",
                lhs: self.val(ii).shape(),
                rhs: mask.shape(),
            });
        }
        let (r, c) = mask.shape();
        let mut out = self.pool.take_uninit(r, c);
        kernels::zip(self.val(ii).as_slice(), mask.as_slice(), out.as_mut_slice(), |x, m| {
            x * m
        });
        let rg = self.rg(ii);
        Ok(self.push(out, Op::Dropout { input: ii, mask }, rg))
    }

    /// Row-wise inner product producing an `n x 1` column.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        let (rows, cols) = self.same_shape("rowwise_dot", ia, ib)?;
        let mut out = self.pool.take_uninit(rows, 1);
        kernels::rowwise_dot(
            rows,
            cols,
            self.val(ia).as_slice(),
            self.val(ib).as_slice(),
            out.as_mut_slice(),
        );
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(out, Op::RowwiseDot(ia, ib), rg))
    }

    /// Row-wise squared Euclidean distance producing an `n x 1` column.
    pub fn rowwise_sq_dist(&mut self, a: Var, b: Var) -> Result<Var> {
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        let (rows, cols) = self.same_shape("rowwise_sq_dist", ia, ib)?;
        let mut out = self.pool.take_uninit(rows, 1);
        kernels::rowwise_sq_dist(
            rows,
            cols,
            self.val(ia).as_slice(),
            self.val(ib).as_slice(),
            out.as_mut_slice(),
        );
        let rg = self.rg(ia) || self.rg(ib);
        Ok(self.push(out, Op::RowwiseSqDist(ia, ib), rg))
    }

    /// Mean (over rows) KL divergence `KL(N(mu, diag(sigma^2)) || N(0, I))`.
    ///
    /// This is the tractable form of the minimality terms, Eq. (11) of the
    /// paper.
    pub fn kl_std_normal(&mut self, mu: Var, sigma: Var) -> Result<Var> {
        let (im, is) = (self.check(mu)?, self.check(sigma)?);
        self.same_shape("kl_std_normal", im, is)?;
        if self.val(im).rows() == 0 {
            return Err(TensorError::EmptyTensor { op: "kl_std_normal" });
        }
        let total = kernels::kl_std_normal_forward(EPS, self.val(im).as_slice(), self.val(is).as_slice());
        let mean = total / self.val(im).rows() as f32;
        let value = self.pooled_scalar(mean);
        let rg = self.rg(im) || self.rg(is);
        Ok(self.push(value, Op::KlStdNormal { mu: im, sigma: is }, rg))
    }

    /// Mean binary cross-entropy with logits:
    /// `mean( max(x,0) - x*t + ln(1+exp(-|x|)) )`.
    ///
    /// This is the tractable form of the reconstruction (Eq. 13) and
    /// contrastive (Eq. 14) terms, evaluated on sampled positive and negative
    /// pairs.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Tensor) -> Result<Var> {
        let il = self.check(logits)?;
        let x = self.val(il);
        if x.shape() != targets.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "bce_with_logits",
                lhs: x.shape(),
                rhs: targets.shape(),
            });
        }
        if x.is_empty() {
            return Err(TensorError::EmptyTensor { op: "bce_with_logits" });
        }
        let mean = kernels::bce_logits_forward(x.as_slice(), targets.as_slice()) / x.len() as f32;
        let value = self.pooled_scalar(mean);
        let rg = self.rg(il);
        Ok(self.push(value, Op::BceWithLogits { logits: il, targets }, rg))
    }

    /// [`Tape::bce_with_logits`] with the targets copied into pooled storage
    /// (the allocation-free alternative to passing `targets.clone()`).
    pub fn bce_with_logits_copy(&mut self, logits: Var, targets: &Tensor) -> Result<Var> {
        let (r, c) = targets.shape();
        let mut copied = self.pool.take_uninit(r, c);
        copied.copy_from(targets);
        self.bce_with_logits(logits, copied)
    }

    /// Runs the backward pass from the scalar `loss` node and accumulates
    /// parameter gradients into `params`. Returns the loss value.
    ///
    /// Gradient buffers are drawn from (and returned to) the tape's pool and
    /// accumulated in place; nothing is cloned.
    pub fn backward(&mut self, loss: Var, params: &mut ParamSet) -> Result<f32> {
        let il = self.check(loss)?;
        let loss_value = self.val(il).scalar_value()?;
        if !loss_value.is_finite() {
            return Err(TensorError::NonFinite { op: "backward(loss)" });
        }
        // The pool and the slot table are moved out for the duration of the
        // walk so `backprop_node` can borrow the node list immutably while
        // mutating both.
        let mut pool = std::mem::take(&mut self.pool);
        let mut grads = std::mem::take(&mut self.grad_slots);
        grads.clear();
        grads.resize_with(self.nodes.len(), || None);
        let mut seed = pool.take_uninit(1, 1);
        seed.as_mut_slice()[0] = 1.0;
        grads[il] = Some(seed);

        let mut outcome = Ok(());
        for idx in (0..=il).rev() {
            let grad = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            if self.nodes[idx].requires_grad {
                outcome = self.backprop_node(idx, &grad, &mut grads, &mut pool, params);
            }
            pool.put(grad);
            if outcome.is_err() {
                break;
            }
        }
        for slot in grads.iter_mut() {
            if let Some(t) = slot.take() {
                pool.put(t);
            }
        }
        self.pool = pool;
        self.grad_slots = grads;
        outcome.map(|()| loss_value)
    }

    fn backprop_node(
        &self,
        idx: usize,
        grad: &Tensor,
        grads: &mut [Option<Tensor>],
        pool: &mut BufferPool,
        params: &mut ParamSet,
    ) -> Result<()> {
        match &self.nodes[idx].op {
            Op::Constant => {}
            Op::Param(id) => {
                params.accumulate_grad(*id, grad)?;
            }
            Op::Add(a, b) => {
                self.accum_copy(grads, *a, grad, pool);
                self.accum_copy(grads, *b, grad, pool);
            }
            Op::Sub(a, b) => {
                self.accum_copy(grads, *a, grad, pool);
                self.accum_scaled(grads, *b, -1.0, grad, pool);
            }
            Op::Mul(a, b) => {
                self.accum_zip(grads, *a, grad, self.val(*b), pool, |g, o| g * o);
                self.accum_zip(grads, *b, grad, self.val(*a), pool, |g, o| g * o);
            }
            Op::AddRowBroadcast { matrix, row } => {
                self.accum_copy(grads, *matrix, grad, pool);
                if self.rg(*row) {
                    let (rows, cols) = grad.shape();
                    let slot = Self::slot_or_zeroed(grads, *row, 1, cols, pool);
                    for r in 0..rows {
                        for (o, &v) in slot.row_mut(0).iter_mut().zip(grad.row(r)) {
                            *o += v;
                        }
                    }
                }
            }
            Op::Scale { input, factor } => {
                self.accum_scaled(grads, *input, *factor, grad, pool);
            }
            Op::Matmul(a, b) => {
                // y = A B; dA = G B^T, dB = A^T G
                if self.rg(*a) {
                    // Materialise B^T in pooled scratch and run the tiled
                    // matmul: measured ~3x faster than a dot-product
                    // `A * B^T` kernel for the short inner dimensions of
                    // this graph, and B (a weight matrix) is tiny compared
                    // to the activations.
                    let bv = self.val(*b);
                    let (kb, nb) = bv.shape();
                    let (m, n) = grad.shape();
                    debug_assert_eq!(n, nb);
                    let mut bt = pool.take_uninit(nb, kb);
                    {
                        let src = bv.as_slice();
                        let dst = bt.as_mut_slice();
                        for r in 0..kb {
                            for (c, &v) in src[r * nb..(r + 1) * nb].iter().enumerate() {
                                dst[c * kb + r] = v;
                            }
                        }
                    }
                    let mut delta = pool.take_uninit(m, kb);
                    kernels::matmul(m, n, kb, grad.as_slice(), bt.as_slice(), delta.as_mut_slice());
                    pool.put(bt);
                    self.accum_owned(grads, *a, delta, pool);
                }
                if self.rg(*b) {
                    let av = self.val(*a);
                    let (m, k) = av.shape();
                    let n = grad.cols();
                    let mut delta = pool.take_uninit(k, n);
                    kernels::transpose_matmul(m, k, n, av.as_slice(), grad.as_slice(), delta.as_mut_slice());
                    self.accum_owned(grads, *b, delta, pool);
                }
            }
            Op::Spmm { sparse_t, dense } => {
                // y = S X; dX = S^T G, the forward kernel over the stored S^T
                // (it overwrites every element, so the buffer may be stale).
                if self.rg(*dense) {
                    let n = grad.cols();
                    let mut delta = pool.take_uninit(sparse_t.rows(), n);
                    kernels::spmm(sparse_t.view(), n, grad.as_slice(), delta.as_mut_slice());
                    self.accum_owned(grads, *dense, delta, pool);
                }
            }
            Op::ConcatCols(a, b) => {
                let ca = self.val(*a).cols();
                self.accum_col_block(grads, *a, grad, 0, ca, pool);
                self.accum_col_block(grads, *b, grad, ca, grad.cols() - ca, pool);
            }
            Op::ConcatRows(a, b) => {
                let (ra, cols) = self.val(*a).shape();
                let split = ra * cols;
                let g = grad.as_slice();
                self.accum_block(grads, *a, ra, cols, &g[..split], pool);
                self.accum_block(grads, *b, grad.rows() - ra, cols, &g[split..], pool);
            }
            Op::GatherRows { input, indices } => {
                if self.rg(*input) {
                    let (rows, cols) = self.val(*input).shape();
                    let slot = Self::slot_or_zeroed(grads, *input, rows, cols, pool);
                    slot.scatter_add_rows(indices, grad)?;
                }
            }
            Op::GatherRowwiseDot { a, b, a_idx, b_idx } => {
                // out[k] = <A[ai], B[bi]>; dA[ai] += g[k] B[bi], dB[bi] += g[k] A[ai]
                let cols = self.val(*a).cols();
                if self.rg(*a) {
                    let (rows, _) = self.val(*a).shape();
                    let bv = self.val(*b);
                    let slot = Self::slot_or_zeroed(grads, *a, rows, cols, pool);
                    kernels::scatter_scaled_rows(
                        cols,
                        grad.as_slice(),
                        bv.as_slice(),
                        b_idx,
                        slot.as_mut_slice(),
                        a_idx,
                    );
                }
                if self.rg(*b) {
                    let (rows, _) = self.val(*b).shape();
                    let av = self.val(*a);
                    let slot = Self::slot_or_zeroed(grads, *b, rows, cols, pool);
                    kernels::scatter_scaled_rows(
                        cols,
                        grad.as_slice(),
                        av.as_slice(),
                        a_idx,
                        slot.as_mut_slice(),
                        b_idx,
                    );
                }
            }
            Op::LeakyRelu { input, slope } => {
                if self.rg(*input) {
                    let x = self.val(*input);
                    match &mut grads[*input] {
                        Some(e) => {
                            kernels::leaky_relu_backward(true, *slope, x.as_slice(), grad.as_slice(), e.as_mut_slice())
                        }
                        slot @ None => {
                            let mut delta = pool.take_uninit(x.rows(), x.cols());
                            kernels::leaky_relu_backward(
                                false,
                                *slope,
                                x.as_slice(),
                                grad.as_slice(),
                                delta.as_mut_slice(),
                            );
                            *slot = Some(delta);
                        }
                    }
                }
            }
            Op::Softplus { input } => {
                if self.rg(*input) {
                    let x = self.val(*input);
                    match &mut grads[*input] {
                        Some(e) => kernels::softplus_backward(true, x.as_slice(), grad.as_slice(), e.as_mut_slice()),
                        slot @ None => {
                            let mut delta = pool.take_uninit(x.rows(), x.cols());
                            kernels::softplus_backward(false, x.as_slice(), grad.as_slice(), delta.as_mut_slice());
                            *slot = Some(delta);
                        }
                    }
                }
            }
            Op::Sigmoid { input } => {
                let y = self.val(idx);
                self.accum_zip(grads, *input, grad, y, pool, |g, y| g * y * (1.0 - y));
            }
            Op::Tanh { input } => {
                let y = self.val(idx);
                self.accum_zip(grads, *input, grad, y, pool, |g, y| g * (1.0 - y * y));
            }
            Op::Exp { input } => {
                let y = self.val(idx);
                self.accum_zip(grads, *input, grad, y, pool, |g, y| g * y);
            }
            Op::Log { input } => {
                let x = self.val(*input);
                self.accum_zip(grads, *input, grad, x, pool, |g, x| g / (x + EPS));
            }
            Op::SumAll { input } => {
                let gscalar = grad.scalar_value()?;
                let (r, c) = self.val(*input).shape();
                self.accum_fill(grads, *input, r, c, gscalar, pool);
            }
            Op::MeanAll { input } => {
                let x = self.val(*input);
                let gscalar = grad.scalar_value()? / x.len() as f32;
                let (r, c) = x.shape();
                self.accum_fill(grads, *input, r, c, gscalar, pool);
            }
            Op::SumSquares { input } => {
                let gscalar = grad.scalar_value()?;
                let x = self.val(*input);
                self.accum_scaled(grads, *input, 2.0 * gscalar, x, pool);
            }
            Op::Dropout { input, mask } => {
                self.accum_zip(grads, *input, grad, mask, pool, |g, m| g * m);
            }
            Op::RowwiseDot(a, b) => {
                // y_r = <a_r, b_r>; dA_r = g_r * b_r; dB_r = g_r * a_r
                self.accum_scale_rows(grads, *a, self.val(*b), grad, 1.0, pool);
                self.accum_scale_rows(grads, *b, self.val(*a), grad, 1.0, pool);
            }
            Op::RowwiseSqDist(a, b) => {
                // y_r = ||a_r - b_r||^2; dA_r = 2 g_r (a_r - b_r); dB_r = -dA_r
                let (av, bv) = (self.val(*a), self.val(*b));
                let mut diff = pool.take_uninit(av.rows(), av.cols());
                av.zip_map_into(bv, &mut diff, |x, y| x - y);
                self.accum_scale_rows(grads, *a, &diff, grad, 2.0, pool);
                self.accum_scale_rows(grads, *b, &diff, grad, -2.0, pool);
                pool.put(diff);
            }
            Op::KlStdNormal { mu, sigma } => {
                let m = self.val(*mu);
                let scale = grad.scalar_value()? / m.rows() as f32;
                self.accum_scaled(grads, *mu, scale, m, pool);
                if self.rg(*sigma) {
                    let s = self.val(*sigma);
                    match &mut grads[*sigma] {
                        Some(e) => kernels::kl_sigma_backward(true, scale, EPS, s.as_slice(), e.as_mut_slice()),
                        slot @ None => {
                            let mut delta = pool.take_uninit(s.rows(), s.cols());
                            kernels::kl_sigma_backward(false, scale, EPS, s.as_slice(), delta.as_mut_slice());
                            *slot = Some(delta);
                        }
                    }
                }
            }
            Op::BceWithLogits { logits, targets } => {
                if self.rg(*logits) {
                    let x = self.val(*logits);
                    let scale = grad.scalar_value()? / x.len() as f32;
                    match &mut grads[*logits] {
                        Some(e) => kernels::bce_logits_backward(
                            true,
                            scale,
                            x.as_slice(),
                            targets.as_slice(),
                            e.as_mut_slice(),
                        ),
                        slot @ None => {
                            let mut delta = pool.take_uninit(x.rows(), x.cols());
                            kernels::bce_logits_backward(
                                false,
                                scale,
                                x.as_slice(),
                                targets.as_slice(),
                                delta.as_mut_slice(),
                            );
                            *slot = Some(delta);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Moves an owned (pooled) delta into a node's slot, or adds it in place
    /// and recycles the storage when a gradient already arrived.
    fn accum_owned(&self, grads: &mut [Option<Tensor>], idx: usize, delta: Tensor, pool: &mut BufferPool) {
        if !self.rg(idx) {
            pool.put(delta);
            return;
        }
        match &mut grads[idx] {
            Some(existing) => {
                debug_assert_eq!(existing.len(), delta.len(), "gradient shapes for a node must agree");
                kernels::add_assign(existing.as_mut_slice(), delta.as_slice());
                pool.put(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Accumulates `src` (the upstream gradient, unscaled) into a node slot.
    fn accum_copy(&self, grads: &mut [Option<Tensor>], idx: usize, src: &Tensor, pool: &mut BufferPool) {
        let (r, c) = src.shape();
        self.accum_block(grads, idx, r, c, src.as_slice(), pool);
    }

    /// Accumulates a contiguous `rows x cols` block of gradient values.
    fn accum_block(
        &self,
        grads: &mut [Option<Tensor>],
        idx: usize,
        rows: usize,
        cols: usize,
        src: &[f32],
        pool: &mut BufferPool,
    ) {
        if !self.rg(idx) {
            return;
        }
        match &mut grads[idx] {
            Some(existing) => {
                debug_assert_eq!(existing.len(), src.len(), "gradient shapes for a node must agree");
                kernels::add_assign(existing.as_mut_slice(), src);
            }
            slot @ None => {
                let mut t = pool.take_uninit(rows, cols);
                t.as_mut_slice().copy_from_slice(src);
                *slot = Some(t);
            }
        }
    }

    /// Accumulates `alpha * src` into a node slot.
    fn accum_scaled(&self, grads: &mut [Option<Tensor>], idx: usize, alpha: f32, src: &Tensor, pool: &mut BufferPool) {
        if !self.rg(idx) {
            return;
        }
        match &mut grads[idx] {
            Some(existing) => {
                debug_assert_eq!(existing.len(), src.len(), "gradient shapes for a node must agree");
                kernels::axpy(alpha, existing.as_mut_slice(), src.as_slice());
            }
            slot @ None => {
                let mut t = pool.take_uninit(src.rows(), src.cols());
                kernels::map(src.as_slice(), t.as_mut_slice(), |v| alpha * v);
                *slot = Some(t);
            }
        }
    }

    /// Accumulates the constant `value` into every element of a node slot
    /// (backward of the full reductions).
    #[allow(clippy::too_many_arguments)]
    fn accum_fill(
        &self,
        grads: &mut [Option<Tensor>],
        idx: usize,
        rows: usize,
        cols: usize,
        value: f32,
        pool: &mut BufferPool,
    ) {
        if !self.rg(idx) {
            return;
        }
        match &mut grads[idx] {
            Some(existing) => {
                for o in existing.as_mut_slice() {
                    *o += value;
                }
            }
            slot @ None => {
                let mut t = pool.take_uninit(rows, cols);
                t.as_mut_slice().fill(value);
                *slot = Some(t);
            }
        }
    }

    /// Accumulates `f(g, x)` elementwise into a node slot without
    /// materialising the intermediate gradient tensor.
    fn accum_zip<F: Fn(f32, f32) -> f32>(
        &self,
        grads: &mut [Option<Tensor>],
        idx: usize,
        g: &Tensor,
        x: &Tensor,
        pool: &mut BufferPool,
        f: F,
    ) {
        if !self.rg(idx) {
            return;
        }
        debug_assert_eq!(g.len(), x.len());
        match &mut grads[idx] {
            Some(existing) => {
                debug_assert_eq!(existing.len(), g.len(), "gradient shapes for a node must agree");
                kernels::zip_accum(g.as_slice(), x.as_slice(), existing.as_mut_slice(), f);
            }
            slot @ None => {
                let mut t = pool.take_uninit(g.rows(), g.cols());
                kernels::zip(g.as_slice(), x.as_slice(), t.as_mut_slice(), f);
                *slot = Some(t);
            }
        }
    }

    /// Accumulates `factor * row_scales[r] * src[r]` into a node slot (the
    /// backward of the row-wise reductions).
    #[allow(clippy::too_many_arguments)]
    fn accum_scale_rows(
        &self,
        grads: &mut [Option<Tensor>],
        idx: usize,
        src: &Tensor,
        row_scales: &Tensor,
        factor: f32,
        pool: &mut BufferPool,
    ) {
        if !self.rg(idx) {
            return;
        }
        let (rows, cols) = src.shape();
        match &mut grads[idx] {
            Some(existing) => kernels::scale_rows(
                rows,
                cols,
                src.as_slice(),
                row_scales.as_slice(),
                factor,
                true,
                existing.as_mut_slice(),
            ),
            slot @ None => {
                let mut t = pool.take_uninit(rows, cols);
                kernels::scale_rows(
                    rows,
                    cols,
                    src.as_slice(),
                    row_scales.as_slice(),
                    factor,
                    false,
                    t.as_mut_slice(),
                );
                *slot = Some(t);
            }
        }
    }

    /// Accumulates a column block of `grad` (backward of `concat_cols`).
    fn accum_col_block(
        &self,
        grads: &mut [Option<Tensor>],
        idx: usize,
        grad: &Tensor,
        col0: usize,
        width: usize,
        pool: &mut BufferPool,
    ) {
        if !self.rg(idx) {
            return;
        }
        let rows = grad.rows();
        match &mut grads[idx] {
            Some(existing) => {
                for r in 0..rows {
                    let src = &grad.row(r)[col0..col0 + width];
                    for (o, &v) in existing.row_mut(r).iter_mut().zip(src) {
                        *o += v;
                    }
                }
            }
            slot @ None => {
                let mut t = pool.take_uninit(rows, width);
                for r in 0..rows {
                    t.row_mut(r).copy_from_slice(&grad.row(r)[col0..col0 + width]);
                }
                *slot = Some(t);
            }
        }
    }

    /// Returns the node's slot, inserting a pooled zeroed tensor when no
    /// gradient arrived yet (for scatter-style accumulation).
    fn slot_or_zeroed<'g>(
        grads: &'g mut [Option<Tensor>],
        idx: usize,
        rows: usize,
        cols: usize,
        pool: &mut BufferPool,
    ) -> &'g mut Tensor {
        grads[idx].get_or_insert_with(|| pool.take_zeroed(rows, cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::softplus_scalar;
    use crate::rng::component_rng;

    fn finite_diff_check<F>(params: &mut ParamSet, ids: &[ParamId], f: F, tol: f32)
    where
        F: Fn(&mut Tape, &ParamSet) -> Var,
    {
        // Analytic gradients.
        params.zero_grad();
        let mut tape = Tape::new();
        let loss = f(&mut tape, params);
        tape.backward(loss, params).unwrap();
        let analytic: Vec<Tensor> = ids.iter().map(|&id| params.grad(id).clone()).collect();

        // Central finite differences.
        let h = 1e-3f32;
        for (k, &id) in ids.iter().enumerate() {
            let (rows, cols) = params.value(id).shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = params.value(id).get(r, c);
                    params.value_mut(id).set(r, c, orig + h);
                    let mut t1 = Tape::new();
                    let l1 = f(&mut t1, params);
                    let up = t1.value(l1).unwrap().scalar_value().unwrap();
                    params.value_mut(id).set(r, c, orig - h);
                    let mut t2 = Tape::new();
                    let l2 = f(&mut t2, params);
                    let down = t2.value(l2).unwrap().scalar_value().unwrap();
                    params.value_mut(id).set(r, c, orig);
                    let numeric = (up - down) / (2.0 * h);
                    let a = analytic[k].get(r, c);
                    assert!(
                        (numeric - a).abs() < tol + tol * numeric.abs().max(a.abs()),
                        "param {k} ({r},{c}): numeric {numeric} vs analytic {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradcheck_dense_chain() {
        let mut rng = component_rng(1, "gradcheck-dense");
        let mut params = ParamSet::new();
        let w1 = params
            .add("w1", crate::rng::normal_tensor(&mut rng, 3, 4, 0.5))
            .unwrap();
        let w2 = params
            .add("w2", crate::rng::normal_tensor(&mut rng, 4, 2, 0.5))
            .unwrap();
        let b = params.add("b", crate::rng::normal_tensor(&mut rng, 1, 2, 0.5)).unwrap();
        let x = crate::rng::normal_tensor(&mut rng, 5, 3, 1.0);
        let targets = Tensor::from_vec(5, 1, vec![1.0, 0.0, 1.0, 0.0, 1.0]).unwrap();

        finite_diff_check(
            &mut params,
            &[w1, w2, b],
            |tape, params| {
                let xv = tape.constant(x.clone());
                let w1v = tape.param(params, w1);
                let w2v = tape.param(params, w2);
                let bv = tape.param(params, b);
                let h = tape.matmul(xv, w1v).unwrap();
                let h = tape.leaky_relu(h, 0.1).unwrap();
                let o = tape.matmul(h, w2v).unwrap();
                let o = tape.add_row_broadcast(o, bv).unwrap();
                let o = tape.tanh(o).unwrap();
                let dots = tape.rowwise_dot(o, o).unwrap();
                tape.bce_with_logits(dots, targets.clone()).unwrap()
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_vbge_style_chain() {
        // Mimics the VBGE pipeline: spmm -> matmul -> leakyrelu -> concat ->
        // matmul (mu), softplus (sigma) -> KL + reconstruction.
        let mut rng = component_rng(2, "gradcheck-vbge");
        let adj = SparseOperand::new(Arc::new(
            CsrMatrix::from_edges(4, 3, &[(0, 0), (0, 2), (1, 1), (2, 0), (2, 1), (3, 2)])
                .unwrap()
                .row_normalized(),
        ));
        let mut params = ParamSet::new();
        let emb = params
            .add("emb", crate::rng::normal_tensor(&mut rng, 4, 3, 0.5))
            .unwrap();
        let wmu = params
            .add("wmu", crate::rng::normal_tensor(&mut rng, 6, 2, 0.5))
            .unwrap();
        let wsig = params
            .add("wsig", crate::rng::normal_tensor(&mut rng, 6, 2, 0.5))
            .unwrap();
        let eps = crate::rng::normal_tensor(&mut rng, 4, 2, 1.0);
        let item_emb = crate::rng::normal_tensor(&mut rng, 4, 2, 0.7);
        let targets = Tensor::from_vec(4, 1, vec![1.0, 0.0, 1.0, 1.0]).unwrap();
        let adj_t = SparseOperand::new(Arc::new(adj.matrix().transpose()));

        finite_diff_check(
            &mut params,
            &[emb, wmu, wsig],
            |tape, params| {
                let u = tape.param(params, emb);
                let interim = tape.spmm(&adj_t, u).unwrap(); // items x 3
                let back = tape.spmm(&adj, interim).unwrap(); // users x 3
                let back = tape.leaky_relu(back, 0.1).unwrap();
                let cat = tape.concat_cols(back, u).unwrap(); // users x 6
                let wmu_v = tape.param(params, wmu);
                let wsig_v = tape.param(params, wsig);
                let mu = tape.matmul(cat, wmu_v).unwrap();
                let pre_sig = tape.matmul(cat, wsig_v).unwrap();
                let sigma = tape.softplus(pre_sig).unwrap();
                let noise = tape.constant(eps.clone());
                let scaled = tape.mul(sigma, noise).unwrap();
                let z = tape.add(mu, scaled).unwrap();
                let items = tape.constant(item_emb.clone());
                let scores = tape.rowwise_dot(z, items).unwrap();
                let rec = tape.bce_with_logits(scores, targets.clone()).unwrap();
                let kl = tape.kl_std_normal(mu, sigma).unwrap();
                let kl_scaled = tape.scale(kl, 0.7).unwrap();
                tape.add(rec, kl_scaled).unwrap()
            },
            3e-2,
        );
    }

    #[test]
    fn gradcheck_gather_dropout_and_reductions() {
        let mut rng = component_rng(3, "gradcheck-misc");
        let mut params = ParamSet::new();
        let emb = params
            .add("emb", crate::rng::normal_tensor(&mut rng, 5, 3, 0.5))
            .unwrap();
        // Fixed mask so the function stays deterministic across perturbations.
        let mask = Tensor::from_vec(3, 3, vec![2.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.0, 2.0, 2.0]).unwrap();
        let idx = vec![0usize, 2, 4];

        finite_diff_check(
            &mut params,
            &[emb],
            |tape, params| {
                let e = tape.param(params, emb);
                let g = tape.gather_rows(e, &idx).unwrap();
                let d = tape.dropout(g, mask.clone()).unwrap();
                let sq = tape.mul(d, d).unwrap();
                let s = tape.mean(sq).unwrap();
                let reg = tape.sum_squares(e).unwrap();
                let reg = tape.scale(reg, 0.01).unwrap();
                tape.add(s, reg).unwrap()
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_remaining_unary_ops() {
        let mut rng = component_rng(4, "gradcheck-unary");
        let mut params = ParamSet::new();
        let w = params
            .add("w", crate::rng::uniform_tensor(&mut rng, 2, 3, 0.2, 1.5))
            .unwrap();
        finite_diff_check(
            &mut params,
            &[w],
            |tape, params| {
                let x = tape.param(params, w);
                let e = tape.exp(x).unwrap();
                let l = tape.log(e).unwrap();
                let sgm = tape.sigmoid(l).unwrap();
                let sp = tape.softplus(sgm).unwrap();
                let neg = tape.scale(sp, -0.5).unwrap();
                let a = tape.sub(sp, neg).unwrap();
                let d = tape.rowwise_sq_dist(a, sp).unwrap();
                tape.sum(d).unwrap()
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_gather_rowwise_dot() {
        let mut rng = component_rng(9, "gradcheck-grd");
        let mut params = ParamSet::new();
        let ua = params
            .add("ua", crate::rng::normal_tensor(&mut rng, 4, 3, 0.5))
            .unwrap();
        let ub = params
            .add("ub", crate::rng::normal_tensor(&mut rng, 5, 3, 0.5))
            .unwrap();
        let a_idx = Arc::new(vec![0usize, 2, 2, 3]);
        let b_idx = Arc::new(vec![4usize, 1, 0, 2]);
        let targets = Tensor::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]).unwrap();
        finite_diff_check(
            &mut params,
            &[ua, ub],
            |tape, params| {
                let av = tape.param(params, ua);
                let bv = tape.param(params, ub);
                let dots = tape.gather_rowwise_dot(av, bv, &a_idx, &b_idx).unwrap();
                tape.bce_with_logits(dots, targets.clone()).unwrap()
            },
            2e-2,
        );
    }

    #[test]
    fn gather_rowwise_dot_matches_unfused_ops() {
        let mut rng = component_rng(10, "grd-parity");
        let a = crate::rng::normal_tensor(&mut rng, 6, 4, 1.0);
        let b = crate::rng::normal_tensor(&mut rng, 7, 4, 1.0);
        let a_idx = Arc::new(vec![5usize, 0, 3, 3]);
        let b_idx = Arc::new(vec![1usize, 6, 2, 0]);
        let mut tape = Tape::new();
        let av = tape.constant(a.clone());
        let bv = tape.constant(b.clone());
        let fused = tape.gather_rowwise_dot(av, bv, &a_idx, &b_idx).unwrap();
        let ga = tape.gather_rows(av, &a_idx).unwrap();
        let gb = tape.gather_rows(bv, &b_idx).unwrap();
        let unfused = tape.rowwise_dot(ga, gb).unwrap();
        let f = tape.value(fused).unwrap().clone();
        let u = tape.value(unfused).unwrap();
        for (x, y) in f.as_slice().iter().zip(u.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
        // index validation
        let bad = Arc::new(vec![99usize]);
        let one = Arc::new(vec![0usize]);
        assert!(tape.gather_rowwise_dot(av, bv, &bad, &one).is_err());
        assert!(tape.gather_rowwise_dot(av, bv, &one, &bad).is_err());
        let short = Arc::new(vec![0usize, 1]);
        assert!(tape.gather_rowwise_dot(av, bv, &one, &short).is_err());
    }

    #[test]
    fn gradcheck_concat_rows() {
        let mut rng = component_rng(5, "gradcheck-cr");
        let mut params = ParamSet::new();
        let a = params.add("a", crate::rng::normal_tensor(&mut rng, 2, 2, 0.5)).unwrap();
        let b = params.add("b", crate::rng::normal_tensor(&mut rng, 3, 2, 0.5)).unwrap();
        finite_diff_check(
            &mut params,
            &[a, b],
            |tape, params| {
                let av = tape.param(params, a);
                let bv = tape.param(params, b);
                let stacked = tape.concat_rows(av, bv).unwrap();
                let sq = tape.mul(stacked, stacked).unwrap();
                tape.sum(sq).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn stale_variables_are_rejected() {
        let mut tape = Tape::new();
        let v = tape.constant(Tensor::scalar(1.0));
        tape.reset();
        assert!(matches!(tape.sum(v), Err(TensorError::StaleVariable { .. })));
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut tape = Tape::new();
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::ones(2, 2)).unwrap();
        let v = tape.param(&params, w);
        assert!(tape.backward(v, &mut params).is_err());
    }

    #[test]
    fn backward_rejects_nan_loss() {
        let mut tape = Tape::new();
        let mut params = ParamSet::new();
        let v = tape.constant(Tensor::scalar(f32::NAN));
        assert!(matches!(
            tape.backward(v, &mut params),
            Err(TensorError::NonFinite { .. })
        ));
    }

    #[test]
    fn constants_do_not_receive_gradients() {
        let mut tape = Tape::new();
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::full(1, 2, 2.0)).unwrap();
        let wv = tape.param(&params, w);
        let c = tape.constant(Tensor::full(1, 2, 3.0));
        let prod = tape.mul(wv, c).unwrap();
        let loss = tape.sum(prod).unwrap();
        let lv = tape.backward(loss, &mut params).unwrap();
        assert!((lv - 12.0).abs() < 1e-6);
        assert_eq!(params.grad(w).as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn shared_subexpression_accumulates_gradient() {
        // loss = sum(w * w) should give grad 2w even though w is used twice.
        let mut tape = Tape::new();
        let mut params = ParamSet::new();
        let w = params
            .add("w", Tensor::from_vec(1, 2, vec![2.0, -3.0]).unwrap())
            .unwrap();
        let wv = tape.param(&params, w);
        let prod = tape.mul(wv, wv).unwrap();
        let loss = tape.sum(prod).unwrap();
        tape.backward(loss, &mut params).unwrap();
        assert_eq!(params.grad(w).as_slice(), &[4.0, -6.0]);
    }

    #[test]
    fn sigmoid_softplus_scalar_stability() {
        assert!((sigmoid_scalar(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid_scalar(100.0) > 0.999);
        assert!(sigmoid_scalar(-100.0) < 1e-4);
        assert!(sigmoid_scalar(-1000.0).is_finite());
        assert!((softplus_scalar(30.0) - 30.0).abs() < 1e-3);
        assert!(softplus_scalar(-30.0) > 0.0);
        assert!(softplus_scalar(-1000.0).is_finite());
        assert!((softplus_scalar(0.0) - (2.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn bce_matches_manual_value() {
        let mut tape = Tape::new();
        let logits = tape.constant(Tensor::from_vec(2, 1, vec![0.0, 2.0]).unwrap());
        let targets = Tensor::from_vec(2, 1, vec![1.0, 0.0]).unwrap();
        let loss = tape.bce_with_logits(logits, targets).unwrap();
        let expected = ((2.0f32).ln() + (2.0 + (1.0 + (-2.0f32).exp()).ln())) / 2.0;
        assert!((tape.value(loss).unwrap().scalar_value().unwrap() - expected).abs() < 1e-5);
    }

    #[test]
    fn kl_zero_for_standard_normal() {
        let mut tape = Tape::new();
        let mu = tape.constant(Tensor::zeros(3, 4));
        let sigma = tape.constant(Tensor::ones(3, 4));
        let kl = tape.kl_std_normal(mu, sigma).unwrap();
        assert!(tape.value(kl).unwrap().scalar_value().unwrap().abs() < 1e-5);
        // KL grows when the distribution moves away from the prior.
        let mu2 = tape.constant(Tensor::full(3, 4, 1.0));
        let sigma2 = tape.constant(Tensor::full(3, 4, 2.0));
        let kl2 = tape.kl_std_normal(mu2, sigma2).unwrap();
        assert!(tape.value(kl2).unwrap().scalar_value().unwrap() > 1.0);
    }

    #[test]
    fn tape_reset_reuses_allocation() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::ones(2, 2));
        let _ = tape.sum(a).unwrap();
        assert_eq!(tape.len(), 2);
        tape.reset();
        assert!(tape.is_empty());
        let b = tape.constant(Tensor::ones(1, 1));
        assert_eq!(b.index(), 0);
        // The 2x2 node value went back to the pool, so the next same-sized
        // request is served from recycled storage.
        let before = tape.pool_stats();
        let c = tape.constant_copy(&Tensor::ones(2, 2));
        assert_eq!(tape.value(c).unwrap().as_slice(), &[1.0; 4]);
        assert_eq!(tape.pool_stats().hits, before.hits + 1);
    }

    /// Runs one forward + backward of a small mixed graph on the given tape.
    fn run_mixed_step(tape: &mut Tape, params: &mut ParamSet, w: ParamId, x: &Tensor, targets: &Tensor) -> f32 {
        params.zero_grad();
        let xv = tape.constant_copy(x);
        let wv = tape.param(params, w);
        let h = tape.matmul(xv, wv).unwrap();
        let h = tape.leaky_relu(h, 0.1).unwrap();
        let dots = tape.rowwise_dot(h, h).unwrap();
        let rec = tape.bce_with_logits_copy(dots, targets).unwrap();
        let reg = tape.sum_squares(wv).unwrap();
        let reg = tape.scale(reg, 0.01).unwrap();
        let loss = tape.add(rec, reg).unwrap();
        tape.backward(loss, params).unwrap()
    }

    #[test]
    fn reused_tape_matches_fresh_tape_exactly() {
        let mut rng = component_rng(6, "reuse-parity");
        let x = crate::rng::normal_tensor(&mut rng, 4, 3, 1.0);
        let targets = Tensor::from_vec(4, 1, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let make_params = |rng: &mut rand::rngs::StdRng| {
            let mut p = ParamSet::new();
            let w = p.add("w", crate::rng::normal_tensor(rng, 3, 2, 0.5)).unwrap();
            (p, w)
        };
        let mut seed_rng = component_rng(7, "weights");
        let (mut p1, w1) = make_params(&mut seed_rng);
        let mut seed_rng = component_rng(7, "weights");
        let (mut p2, w2) = make_params(&mut seed_rng);

        // Reused tape: warm it up with two resets, then a measured step.
        let mut reused = Tape::new();
        for _ in 0..3 {
            reused.reset();
            run_mixed_step(&mut reused, &mut p1, w1, &x, &targets);
        }
        // Fresh tape every time (the pre-pool behaviour).
        let mut fresh = Tape::new();
        let l2 = run_mixed_step(&mut fresh, &mut p2, w2, &x, &targets);

        reused.reset();
        let l1 = run_mixed_step(&mut reused, &mut p1, w1, &x, &targets);
        assert_eq!(l1, l2, "loss must be identical on a warm tape");
        assert_eq!(
            p1.grad(w1).as_slice(),
            p2.grad(w2).as_slice(),
            "gradients must be bit-identical regardless of buffer reuse"
        );
    }

    #[test]
    fn warm_steps_hit_the_pool_only() {
        let mut rng = component_rng(8, "warm-pool");
        let x = crate::rng::normal_tensor(&mut rng, 4, 3, 1.0);
        let targets = Tensor::from_vec(4, 1, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let mut params = ParamSet::new();
        let w = params.add("w", crate::rng::normal_tensor(&mut rng, 3, 2, 0.5)).unwrap();
        let mut tape = Tape::new();
        for _ in 0..2 {
            tape.reset();
            run_mixed_step(&mut tape, &mut params, w, &x, &targets);
        }
        let misses_after_warmup = tape.pool_stats().misses;
        for _ in 0..3 {
            tape.reset();
            run_mixed_step(&mut tape, &mut params, w, &x, &targets);
        }
        assert_eq!(
            tape.pool_stats().misses,
            misses_after_warmup,
            "a warm step must not allocate any new tensor storage"
        );
    }

    #[test]
    fn scratch_buffers_join_the_recycling_cycle() {
        let mut tape = Tape::new();
        let mut mask = tape.scratch(2, 3);
        mask.as_mut_slice().fill(2.0);
        let input = tape.constant(Tensor::ones(2, 3));
        let dropped = tape.dropout(input, mask).unwrap();
        assert_eq!(tape.value(dropped).unwrap().as_slice(), &[2.0; 6]);
        tape.reset();
        // mask + input + output all recycled.
        let stats = tape.pool_stats();
        assert!(stats.parked >= 3);
        let unused = tape.scratch(5, 5);
        tape.recycle(unused);
        assert_eq!(tape.pool_stats().parked, stats.parked + 1);
    }

    #[test]
    fn non_grad_operands_skip_accumulation() {
        // add/sub with a constant operand: the constant side must not receive
        // (or allocate) a gradient buffer.
        let mut tape = Tape::new();
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::full(1, 3, 2.0)).unwrap();
        let wv = tape.param(&params, w);
        let c = tape.constant(Tensor::full(1, 3, 5.0));
        let s = tape.add(wv, c).unwrap();
        let d = tape.sub(s, c).unwrap();
        let loss = tape.sum(d).unwrap();
        tape.backward(loss, &mut params).unwrap();
        assert_eq!(params.grad(w).as_slice(), &[1.0, 1.0, 1.0]);
    }
}
