//! The Variational Bipartite Graph Encoder (VBGE, §III-B).
//!
//! The VBGE produces Gaussian latent variables for one entity type (users or
//! items) of one domain in two steps per propagation layer:
//!
//! 1. **Interim representations** (Eq. 2): the entity's current
//!    representations are pushed across the bipartite graph to the *other*
//!    side (`Norm(A^T) U W`), so each interim row aggregates information from
//!    its homogeneous even-hop neighbours.
//! 2. **Back propagation + variational heads** (Eq. 3): the interim
//!    representations are pulled back to the entity side (`Norm(A) Û Ŵ`),
//!    concatenated with the raw embeddings, and mapped to the mean and
//!    standard deviation of the latent Gaussian. Latents are sampled with the
//!    reparameterisation trick (Eq. 4).
//!
//! Following the paper's setting (§IV-B3), multiple propagation layers can be
//! stacked and their outputs are concatenated before the variational heads.

use crate::error::{CoreError, Result};
use cdrib_tensor::rng::{fill_dropout_mask, fill_normal};
use cdrib_tensor::{Activation, CsrMatrix, FuncCtx, Linear, ParamSet, SparseOperand, Tape, Tensor, Var};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One propagation layer (the pair of weight matrices of Eq. 2 / Eq. 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PropagationLayer {
    /// `W` of Eq. 2: applied on the push to the other side of the graph.
    push: Linear,
    /// `Ŵ` of Eq. 3: applied on the pull back to the entity side.
    pull: Linear,
}

/// Activation applied to the mean head of the VBGE.
///
/// The paper applies LeakyReLU to the mean (Eq. 3) but notes (footnote 2)
/// that nonlinearities in graph recommenders can hurt; the identity variant
/// is exposed for that ablation and trains noticeably faster on the small
/// synthetic scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeanActivation {
    /// `mu = LeakyReLU(...)` exactly as written in Eq. (3).
    LeakyRelu,
    /// `mu = ...` without a nonlinearity (LightGCN-style linearisation).
    Identity,
}

/// The VBGE for one entity type of one domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VbgeEncoder {
    layers: Vec<PropagationLayer>,
    mu_head: Linear,
    sigma_head: Linear,
    dim: usize,
    leaky_slope: f32,
    mean_activation: MeanActivation,
}

/// The latent variables produced by one VBGE forward pass.
#[derive(Debug, Clone, Copy)]
pub struct VbgeOutput {
    /// Mean of the latent Gaussian (`n x F`).
    pub mu: Var,
    /// Standard deviation of the latent Gaussian (`n x F`).
    pub sigma: Var,
    /// Sampled latent variables (equal to `mu` when no noise is supplied).
    pub z: Var,
}

/// Optional stochastic elements of a training-mode forward pass.
pub struct ForwardNoise<'a> {
    /// Dropout rate applied to each layer output (0 disables dropout).
    pub dropout: f32,
    /// RNG driving dropout masks and reparameterisation noise.
    pub rng: &'a mut StdRng,
}

impl VbgeEncoder {
    /// Registers the encoder's parameters.
    ///
    /// `dim` is the embedding dimension `F`; `layers` the number of
    /// propagation layers whose outputs are concatenated before the heads.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        layers: usize,
        leaky_slope: f32,
    ) -> Result<Self> {
        Self::with_mean_activation(params, rng, name, dim, layers, leaky_slope, MeanActivation::LeakyRelu)
    }

    /// Same as [`VbgeEncoder::new`] with an explicit mean-head activation.
    #[allow(clippy::too_many_arguments)]
    pub fn with_mean_activation(
        params: &mut ParamSet,
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        layers: usize,
        leaky_slope: f32,
        mean_activation: MeanActivation,
    ) -> Result<Self> {
        let mut prop = Vec::with_capacity(layers);
        for l in 0..layers {
            let push = Linear::new(
                params,
                rng,
                &format!("{name}.layer{l}.push"),
                dim,
                dim,
                false,
                Activation::Identity,
            )?;
            let pull = Linear::new(
                params,
                rng,
                &format!("{name}.layer{l}.pull"),
                dim,
                dim,
                false,
                Activation::Identity,
            )?;
            prop.push(PropagationLayer { push, pull });
        }
        let head_in = dim * (layers + 1);
        let mu_head = Linear::new(
            params,
            rng,
            &format!("{name}.mu"),
            head_in,
            dim,
            true,
            Activation::Identity,
        )?;
        let sigma_head = Linear::new(
            params,
            rng,
            &format!("{name}.sigma"),
            head_in,
            dim,
            true,
            Activation::Identity,
        )?;
        Ok(VbgeEncoder {
            layers: prop,
            mu_head,
            sigma_head,
            dim,
            leaky_slope,
            mean_activation,
        })
    }

    /// Latent dimension `F`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of propagation layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Runs the encoder.
    ///
    /// * `embeddings` — the entity's embedding rows (`n x F`).
    /// * `to_other` — normalised adjacency mapping entity rows to the other
    ///   side of the bipartite graph (for users: `Norm(A^T)`, `|V| x |U|`).
    /// * `to_self` — normalised adjacency mapping back (for users:
    ///   `Norm(A)`, `|U| x |V|`). Both carry their transposes, which the
    ///   backward multiplies by.
    /// * `noise` — when `Some`, training mode: applies dropout and samples
    ///   `z = mu + sigma ⊙ eps`; when `None`, inference mode with `z = mu`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        params: &ParamSet,
        embeddings: Var,
        to_other: &SparseOperand,
        to_self: &SparseOperand,
        mut noise: Option<ForwardNoise<'_>>,
    ) -> Result<VbgeOutput> {
        let n = tape.value(embeddings)?.rows();
        let mut h = embeddings;
        let mut concat: Option<Var> = None;
        for layer in &self.layers {
            // Eq. 2: push to the other side and aggregate homogeneous info.
            let pushed = tape.spmm(to_other, h)?;
            let pushed = layer.push.forward(tape, params, pushed)?;
            let interim = tape.leaky_relu(pushed, self.leaky_slope)?;
            // Eq. 3 (inner part): pull back to the entity side.
            let pulled = tape.spmm(to_self, interim)?;
            let pulled = layer.pull.forward(tape, params, pulled)?;
            let mut back = tape.leaky_relu(pulled, self.leaky_slope)?;
            if let Some(fwd) = noise.as_mut() {
                if fwd.dropout > 0.0 {
                    // The mask lives in a pooled scratch buffer, so the same
                    // storage is reused every step once the tape is warm.
                    let mut mask = tape.scratch(n, self.dim);
                    fill_dropout_mask(fwd.rng, mask.as_mut_slice(), fwd.dropout);
                    back = tape.dropout(back, mask)?;
                }
            }
            concat = Some(match concat {
                None => back,
                Some(prev) => tape.concat_cols(prev, back)?,
            });
            h = back;
        }
        // Concatenate the stacked layer outputs with the raw embeddings
        // (the `⊕ U^X` of Eq. 3).
        let combined = match concat {
            Some(c) => tape.concat_cols(c, embeddings)?,
            None => embeddings,
        };
        let mu_lin = self.mu_head.forward(tape, params, combined)?;
        let mu = match self.mean_activation {
            MeanActivation::LeakyRelu => tape.leaky_relu(mu_lin, self.leaky_slope)?,
            MeanActivation::Identity => mu_lin,
        };
        let sigma_lin = self.sigma_head.forward(tape, params, combined)?;
        let sigma = tape.softplus(sigma_lin)?;
        let z = match noise.as_mut() {
            Some(fwd) => {
                let mut eps = tape.scratch(n, self.dim);
                fill_normal(fwd.rng, eps.as_mut_slice(), 1.0);
                let eps = tape.constant(eps);
                let scaled = tape.mul(sigma, eps)?;
                tape.add(mu, scaled)?
            }
            None => mu,
        };
        Ok(VbgeOutput { mu, sigma, z })
    }
}

impl VbgeEncoder {
    /// Tape-free inference forward: computes the latent **mean** path
    /// (Eq. 2-3 with `z = mu`, no dropout, no sigma head) straight through
    /// the shared functional kernel layer ([`cdrib_tensor::func`]).
    ///
    /// Because the tape's forward ops route through the *same* `func`
    /// computations, the result is bitwise identical to the `mu` recorded by
    /// [`VbgeEncoder::forward`] in inference mode — that equality is pinned
    /// by the `inference_matches_tape` tests here and in
    /// `tests/artifact_roundtrip.rs`. All intermediates are drawn from and
    /// recycled into `ctx`'s pool, so warm calls are allocation-free.
    pub(crate) fn forward_mean(
        &self,
        ctx: &mut FuncCtx,
        params: &ParamSet,
        embeddings: &Tensor,
        to_other: &CsrMatrix,
        to_self: &CsrMatrix,
    ) -> Result<Tensor> {
        // `last` is the most recent layer output (the tape's `h`); `acc`
        // accumulates the concatenation of all *earlier* layer outputs in
        // the same left-to-right order as the tape.
        let mut last: Option<Tensor> = None;
        let mut acc: Option<Tensor> = None;
        for layer in &self.layers {
            let h: &Tensor = last.as_ref().unwrap_or(embeddings);
            // Eq. 2: push to the other side and aggregate homogeneous info.
            let pushed = ctx.spmm(to_other, h)?;
            let pushed_lin = layer.push.forward_infer(ctx, params, &pushed)?;
            ctx.recycle(pushed);
            let interim = ctx.leaky_relu(&pushed_lin, self.leaky_slope);
            ctx.recycle(pushed_lin);
            // Eq. 3 (inner part): pull back to the entity side.
            let pulled = ctx.spmm(to_self, &interim)?;
            ctx.recycle(interim);
            let pulled_lin = layer.pull.forward_infer(ctx, params, &pulled)?;
            ctx.recycle(pulled);
            let back = ctx.leaky_relu(&pulled_lin, self.leaky_slope);
            ctx.recycle(pulled_lin);
            if let Some(prev) = last.take() {
                acc = Some(match acc.take() {
                    None => prev,
                    Some(a) => {
                        let joined = ctx.concat_cols(&a, &prev)?;
                        ctx.recycle(a);
                        ctx.recycle(prev);
                        joined
                    }
                });
            }
            last = Some(back);
        }
        // Concatenate the stacked layer outputs with the raw embeddings
        // (the `⊕ U^X` of Eq. 3).
        let combined = match (acc, last) {
            (Some(a), Some(l)) => {
                let layers_cat = ctx.concat_cols(&a, &l)?;
                ctx.recycle(a);
                ctx.recycle(l);
                let combined = ctx.concat_cols(&layers_cat, embeddings)?;
                ctx.recycle(layers_cat);
                combined
            }
            (None, Some(l)) => {
                let combined = ctx.concat_cols(&l, embeddings)?;
                ctx.recycle(l);
                combined
            }
            // Zero propagation layers: the heads read the raw embeddings.
            (_, None) => {
                let mut copy = ctx.take(embeddings.rows(), embeddings.cols());
                copy.copy_from(embeddings);
                copy
            }
        };
        let mu_lin = self.mu_head.forward_infer(ctx, params, &combined)?;
        ctx.recycle(combined);
        Ok(match self.mean_activation {
            MeanActivation::LeakyRelu => {
                let mu = ctx.leaky_relu(&mu_lin, self.leaky_slope);
                ctx.recycle(mu_lin);
                mu
            }
            MeanActivation::Identity => mu_lin,
        })
    }
}

/// Cached per-layer intermediates of one encoder's deterministic mean path,
/// the substrate of incremental re-encoding.
///
/// The mean path of `VbgeEncoder::forward_mean` is a chain of row-local
/// stages: per layer an *interim* table on the other side of the bipartite
/// graph (Eq. 2) and a *back* table on the entity side (Eq. 3), then the
/// final mean table from the concatenation head. When a graph delta lands,
/// only the rows whose inputs changed need recomputing — but recomputing row
/// `r` of a stage needs the **full previous-stage table** (its sparse row
/// mixes clean neighbours too), so the cache keeps every stage materialised.
///
/// Filled by `VbgeEncoder::forward_mean_cached`; patched in place by
/// `VbgeEncoder::reencode_mean_rows`. After any sequence of patches the
/// cache is bitwise identical to a from-scratch
/// `VbgeEncoder::forward_mean_cached` on the post-delta graph
/// (`tests/delta_parity.rs`).
#[derive(Debug)]
pub struct MeanCache {
    /// Interim (other-side) tables, one per propagation layer.
    interims: Vec<Tensor>,
    /// Back (entity-side) tables, one per propagation layer.
    backs: Vec<Tensor>,
    /// The final latent mean table — what serving reads.
    mu: Tensor,
    ready: bool,
}

impl Default for MeanCache {
    fn default() -> Self {
        MeanCache::new()
    }
}

impl MeanCache {
    /// Empty cache; fill it with `VbgeEncoder::forward_mean_cached`.
    pub fn new() -> Self {
        MeanCache {
            interims: Vec::new(),
            backs: Vec::new(),
            mu: Tensor::zeros(0, 0),
            ready: false,
        }
    }

    /// The cached latent mean table.
    pub fn mu(&self) -> &Tensor {
        &self.mu
    }
}

/// Reusable dirty-set storage for `VbgeEncoder::reencode_mean_rows`.
///
/// Membership is tracked with mark-stamped arrays instead of hash sets: a
/// row is in the current set iff its stamp equals the current mark, so
/// "clear" is a counter bump and steady-state delta batches never touch the
/// allocator (`tests/alloc_regression.rs`). The stamp arrays grow with the
/// entity counts; the dirty lists keep their capacity across batches.
#[derive(Debug, Default)]
pub struct DirtyScratch {
    self_stamp: Vec<u32>,
    other_stamp: Vec<u32>,
    mu_stamp: Vec<u32>,
    mark: u32,
    dirty_self: Vec<u32>,
    next_self: Vec<u32>,
    dirty_other: Vec<u32>,
    dirty_mu: Vec<u32>,
}

impl DirtyScratch {
    /// Empty scratch (grows on first use).
    pub fn new() -> Self {
        DirtyScratch::default()
    }

    /// The entity rows the last [`VbgeEncoder::reencode_mean_rows`] call
    /// recomputed in the cached mean table (sorted ascending). The serving
    /// layer patches exactly these rows into its frozen tables.
    pub(crate) fn dirty_mu(&self) -> &[u32] {
        &self.dirty_mu
    }

    /// Bumps the mark that opens a fresh membership set. On the (practically
    /// unreachable) u32 wrap, every stamp array is cleared so stale stamps
    /// can never collide with a recycled mark.
    fn next_mark(&mut self) -> u32 {
        self.mark = self.mark.wrapping_add(1);
        if self.mark == 0 {
            self.self_stamp.fill(0);
            self.other_stamp.fill(0);
            self.mu_stamp.fill(0);
            self.mark = 1;
        }
        self.mark
    }
}

/// Copies `src` row `i` over `dst` row `rows[i]` for every selected row.
fn scatter_rows(src: &Tensor, rows: &[u32], dst: &mut Tensor) {
    debug_assert_eq!(src.rows(), rows.len());
    debug_assert_eq!(src.cols(), dst.cols());
    for (i, &r) in rows.iter().enumerate() {
        dst.row_mut(r as usize).copy_from_slice(src.row(i));
    }
}

impl VbgeEncoder {
    /// Runs the full mean path like [`VbgeEncoder::forward_mean`] but
    /// materialises every stage into `cache` (replacing its contents). The
    /// cached `mu` is bitwise identical to [`VbgeEncoder::forward_mean`]'s
    /// result — the stages run the same kernels on the same operands in the
    /// same order; the cache only keeps what `forward_mean` recycles.
    pub(crate) fn forward_mean_cached(
        &self,
        ctx: &mut FuncCtx,
        params: &ParamSet,
        embeddings: &Tensor,
        to_other: &CsrMatrix,
        to_self: &CsrMatrix,
        cache: &mut MeanCache,
    ) -> Result<()> {
        cache.ready = false;
        for t in cache.interims.drain(..) {
            ctx.recycle(t);
        }
        for t in cache.backs.drain(..) {
            ctx.recycle(t);
        }
        // `h` is the entity-side input of the next layer (a copy of the last
        // `back`, since the cache owns the stage tensors).
        let mut h_owned: Option<Tensor> = None;
        for layer in &self.layers {
            let h: &Tensor = h_owned.as_ref().unwrap_or(embeddings);
            let pushed = ctx.spmm(to_other, h)?;
            let pushed_lin = layer.push.forward_infer(ctx, params, &pushed)?;
            ctx.recycle(pushed);
            let interim = ctx.leaky_relu(&pushed_lin, self.leaky_slope);
            ctx.recycle(pushed_lin);
            let pulled = ctx.spmm(to_self, &interim)?;
            let pulled_lin = layer.pull.forward_infer(ctx, params, &pulled)?;
            ctx.recycle(pulled);
            let back = ctx.leaky_relu(&pulled_lin, self.leaky_slope);
            ctx.recycle(pulled_lin);
            cache.interims.push(interim);
            if let Some(prev) = h_owned.take() {
                ctx.recycle(prev);
            }
            let mut next_h = ctx.take(back.rows(), back.cols());
            next_h.copy_from(&back);
            h_owned = Some(next_h);
            cache.backs.push(back);
        }
        if let Some(h) = h_owned.take() {
            ctx.recycle(h);
        }
        // Head input: [back_0 | ... | back_{L-1} | embeddings] — the same
        // content `forward_mean` assembles incrementally.
        let mut combined = ctx.take(embeddings.rows(), self.dim * (self.layers.len() + 1));
        for r in 0..embeddings.rows() {
            let dst = combined.row_mut(r);
            let mut off = 0;
            for back in &cache.backs {
                dst[off..off + self.dim].copy_from_slice(back.row(r));
                off += self.dim;
            }
            dst[off..].copy_from_slice(embeddings.row(r));
        }
        let mu_lin = self.mu_head.forward_infer(ctx, params, &combined)?;
        ctx.recycle(combined);
        let mu = match self.mean_activation {
            MeanActivation::LeakyRelu => {
                let mu = ctx.leaky_relu(&mu_lin, self.leaky_slope);
                ctx.recycle(mu_lin);
                mu
            }
            MeanActivation::Identity => mu_lin,
        };
        if !cache.mu.is_empty() {
            let old = std::mem::replace(&mut cache.mu, mu);
            ctx.recycle(old);
        } else {
            cache.mu = mu;
        }
        cache.ready = true;
        Ok(())
    }

    /// Incrementally patches a [`MeanCache`] after one *or many* graph deltas,
    /// recomputing **only** the rows whose inputs changed.
    ///
    /// `to_other` / `to_self` are the **post-delta** normalised adjacencies;
    /// `embeddings` the post-delta (row-extended) entity embeddings.
    /// `touched_self` / `touched_other` are the rows whose adjacency rows the
    /// deltas addressed (from `cdrib_graph::DeltaEffect`, new entities
    /// included); `old_self_rows` / `old_other_rows` the entity counts the
    /// cache was last patched (or filled) at.
    ///
    /// The touched sets may be the union over a whole group of deltas: a row
    /// absent from the union has the same adjacency row in the cached and
    /// the final graph, so by induction over the stages it is dirty iff one
    /// of its final-graph neighbours is — which is what the propagation
    /// below computes. Intermediate graphs never enter into it.
    ///
    /// Dirtiness propagates through the stage chain exactly as data does:
    /// an interim row is dirty when its `to_other` row changed or any of its
    /// neighbours' previous-stage rows are dirty; a back row when its
    /// `to_self` row changed or any neighbouring interim row is dirty; the
    /// mean row when any of its layer rows is dirty (or the entity is new).
    /// Each dirty row re-runs the same per-row kernels as the full pass
    /// ([`cdrib_tensor::kernels::spmm_rows`], the dense kernels on gathered
    /// rows), so the patched cache is **bitwise identical** to a full
    /// rebuild. Warm calls are allocation-free.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reencode_mean_rows(
        &self,
        ctx: &mut FuncCtx,
        params: &ParamSet,
        embeddings: &Tensor,
        to_other: &CsrMatrix,
        to_self: &CsrMatrix,
        touched_self: &[u32],
        touched_other: &[u32],
        old_self_rows: usize,
        old_other_rows: usize,
        cache: &mut MeanCache,
        scratch: &mut DirtyScratch,
    ) -> Result<()> {
        if !cache.ready {
            return Err(CoreError::InvalidDelta {
                detail: "mean cache not initialised; run forward_mean_cached first".into(),
            });
        }
        let self_rows = to_self.rows();
        let other_rows = to_other.rows();
        if embeddings.rows() != self_rows || to_other.cols() != self_rows || to_self.cols() != other_rows {
            return Err(CoreError::InvalidDelta {
                detail: format!(
                    "inconsistent post-delta shapes: embeddings {} rows, to_self {}x{}, to_other {}x{}",
                    embeddings.rows(),
                    to_self.rows(),
                    to_self.cols(),
                    to_other.rows(),
                    to_other.cols()
                ),
            });
        }
        if old_self_rows > self_rows || old_other_rows > other_rows {
            return Err(CoreError::InvalidDelta {
                detail: "deltas are additive; entity counts cannot shrink".into(),
            });
        }
        // Grow the cached stages (new rows are recomputed below) and the
        // stamp arrays (new rows stamped 0 = in no set yet).
        for t in cache.interims.iter_mut() {
            t.resize_rows(other_rows);
        }
        for t in cache.backs.iter_mut() {
            t.resize_rows(self_rows);
        }
        cache.mu.resize_rows(self_rows);
        scratch.self_stamp.resize(self_rows, 0);
        scratch.other_stamp.resize(other_rows, 0);
        scratch.mu_stamp.resize(self_rows, 0);

        // Layer-0 entity input is the raw embedding table: dirty only for
        // new rows. The mean set starts with those too (the `⊕ U` concat
        // reads the embedding row even with zero propagation layers).
        let mu_mark = scratch.next_mark();
        scratch.dirty_mu.clear();
        scratch.dirty_self.clear();
        for r in old_self_rows as u32..self_rows as u32 {
            scratch.dirty_self.push(r);
            scratch.mu_stamp[r as usize] = mu_mark;
            scratch.dirty_mu.push(r);
        }
        let MeanCache {
            interims, backs, mu, ..
        } = cache;
        for (l, layer) in self.layers.iter().enumerate() {
            // Interim side: rows whose normalised adjacency row changed, or
            // with a dirty entity-side neighbour.
            let mark = scratch.next_mark();
            scratch.dirty_other.clear();
            for &j in touched_other {
                if scratch.other_stamp[j as usize] != mark {
                    scratch.other_stamp[j as usize] = mark;
                    scratch.dirty_other.push(j);
                }
            }
            for &u in &scratch.dirty_self {
                for &j in to_self.row_indices(u as usize) {
                    if scratch.other_stamp[j as usize] != mark {
                        scratch.other_stamp[j as usize] = mark;
                        scratch.dirty_other.push(j);
                    }
                }
            }
            scratch.dirty_other.sort_unstable();
            if !scratch.dirty_other.is_empty() {
                let h: &Tensor = if l == 0 { embeddings } else { &backs[l - 1] };
                let pushed = ctx.spmm_rows(to_other, &scratch.dirty_other, h)?;
                let lin = layer.push.forward_infer(ctx, params, &pushed)?;
                ctx.recycle(pushed);
                let act = ctx.leaky_relu(&lin, self.leaky_slope);
                ctx.recycle(lin);
                scatter_rows(&act, &scratch.dirty_other, &mut interims[l]);
                ctx.recycle(act);
            }
            // Back side: rows whose adjacency row changed, or with a dirty
            // interim neighbour.
            let mark = scratch.next_mark();
            scratch.next_self.clear();
            for &u in touched_self {
                if scratch.self_stamp[u as usize] != mark {
                    scratch.self_stamp[u as usize] = mark;
                    scratch.next_self.push(u);
                }
            }
            for &j in &scratch.dirty_other {
                for &u in to_other.row_indices(j as usize) {
                    if scratch.self_stamp[u as usize] != mark {
                        scratch.self_stamp[u as usize] = mark;
                        scratch.next_self.push(u);
                    }
                }
            }
            scratch.next_self.sort_unstable();
            if !scratch.next_self.is_empty() {
                let pulled = ctx.spmm_rows(to_self, &scratch.next_self, &interims[l])?;
                let lin = layer.pull.forward_infer(ctx, params, &pulled)?;
                ctx.recycle(pulled);
                let act = ctx.leaky_relu(&lin, self.leaky_slope);
                ctx.recycle(lin);
                scatter_rows(&act, &scratch.next_self, &mut backs[l]);
                ctx.recycle(act);
            }
            for &u in &scratch.next_self {
                if scratch.mu_stamp[u as usize] != mu_mark {
                    scratch.mu_stamp[u as usize] = mu_mark;
                    scratch.dirty_mu.push(u);
                }
            }
            std::mem::swap(&mut scratch.dirty_self, &mut scratch.next_self);
        }
        scratch.dirty_mu.sort_unstable();
        if !scratch.dirty_mu.is_empty() {
            // Assemble the head input rows and re-run the head on exactly
            // the dirty entities.
            let width = self.dim * (self.layers.len() + 1);
            let mut combined = ctx.take(scratch.dirty_mu.len(), width);
            for (idx, &u) in scratch.dirty_mu.iter().enumerate() {
                let dst = combined.row_mut(idx);
                let mut off = 0;
                for back in backs.iter() {
                    dst[off..off + self.dim].copy_from_slice(back.row(u as usize));
                    off += self.dim;
                }
                dst[off..].copy_from_slice(embeddings.row(u as usize));
            }
            let mu_lin = self.mu_head.forward_infer(ctx, params, &combined)?;
            ctx.recycle(combined);
            let fresh = match self.mean_activation {
                MeanActivation::LeakyRelu => {
                    let fresh = ctx.leaky_relu(&mu_lin, self.leaky_slope);
                    ctx.recycle(mu_lin);
                    fresh
                }
                MeanActivation::Identity => mu_lin,
            };
            scatter_rows(&fresh, &scratch.dirty_mu, mu);
            ctx.recycle(fresh);
        }
        Ok(())
    }
}

/// Computes a deterministic (inference-mode) encoding and returns the mean
/// tensors, used when exporting embeddings for ranking.
///
/// Convenience wrapper over `VbgeEncoder::forward_mean` with a throwaway
/// scratch context; hot callers (the serving stack's `InferenceModel`) hold
/// a persistent [`FuncCtx`] instead.
pub fn encode_mean(
    encoder: &VbgeEncoder,
    params: &ParamSet,
    embeddings: &Tensor,
    to_other: &Arc<CsrMatrix>,
    to_self: &Arc<CsrMatrix>,
) -> Result<Tensor> {
    let mut ctx = FuncCtx::new();
    encoder.forward_mean(&mut ctx, params, embeddings, to_other, to_self)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_tensor::rng::component_rng;
    use cdrib_tensor::{Adam, Optimizer};

    fn toy_graph() -> (Arc<CsrMatrix>, Arc<CsrMatrix>) {
        // 5 users x 4 items
        let adj =
            CsrMatrix::from_edges(5, 4, &[(0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 0), (3, 3), (4, 2)]).unwrap();
        let norm_a = Arc::new(adj.row_normalized());
        let norm_at = Arc::new(adj.transpose().row_normalized());
        (norm_a, norm_at)
    }

    /// `m` as a tape operand, paired with its transpose.
    fn op(m: &Arc<CsrMatrix>) -> SparseOperand {
        SparseOperand::new(Arc::clone(m))
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let (norm_a, norm_at) = toy_graph();
        let mut rng = component_rng(0, "vbge");
        let mut params = ParamSet::new();
        let enc = VbgeEncoder::new(&mut params, &mut rng, "user", 8, 2, 0.1).unwrap();
        assert_eq!(enc.dim(), 8);
        assert_eq!(enc.num_layers(), 2);
        let emb = cdrib_tensor::rng::normal_tensor(&mut rng, 5, 8, 0.1);

        let mut tape = Tape::new();
        let e = tape.constant(emb.clone());
        let out = enc
            .forward(&mut tape, &params, e, &op(&norm_at), &op(&norm_a), None)
            .unwrap();
        assert_eq!(tape.value(out.mu).unwrap().shape(), (5, 8));
        assert_eq!(tape.value(out.sigma).unwrap().shape(), (5, 8));
        // inference mode: z == mu
        assert_eq!(tape.value(out.z).unwrap(), tape.value(out.mu).unwrap());
        // sigma is strictly positive (softplus)
        assert!(tape.value(out.sigma).unwrap().as_slice().iter().all(|&v| v > 0.0));

        // Same inputs -> same outputs (no hidden state).
        let m1 = encode_mean(&enc, &params, &emb, &norm_at, &norm_a).unwrap();
        let m2 = encode_mean(&enc, &params, &emb, &norm_at, &norm_a).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn forward_mean_matches_tape_bitwise() {
        // The tape-free inference path and the recorded tape forward must
        // agree to the bit (both route through the shared functional kernel
        // layer), at every stacking depth and for both mean activations.
        let (norm_a, norm_at) = toy_graph();
        for layers in [1usize, 2, 3] {
            for activation in [MeanActivation::LeakyRelu, MeanActivation::Identity] {
                let mut rng = component_rng(layers as u64, "mean-parity");
                let mut params = ParamSet::new();
                let enc = VbgeEncoder::with_mean_activation(&mut params, &mut rng, "user", 8, layers, 0.1, activation)
                    .unwrap();
                let emb = cdrib_tensor::rng::normal_tensor(&mut rng, 5, 8, 0.1);

                let mut tape = Tape::new();
                let e = tape.constant(emb.clone());
                let out = enc
                    .forward(&mut tape, &params, e, &op(&norm_at), &op(&norm_a), None)
                    .unwrap();
                let tape_mu = tape.value(out.mu).unwrap();

                let mut ctx = FuncCtx::new();
                let func_mu = enc.forward_mean(&mut ctx, &params, &emb, &norm_at, &norm_a).unwrap();
                assert_eq!(tape_mu, &func_mu, "layers={layers} activation={activation:?}");

                // Warm repetitions serve everything from the pool.
                ctx.recycle(func_mu);
                let misses = ctx.pool_stats().misses;
                for _ in 0..3 {
                    let again = enc.forward_mean(&mut ctx, &params, &emb, &norm_at, &norm_a).unwrap();
                    assert_eq!(&again, tape_mu);
                    ctx.recycle(again);
                }
                assert_eq!(
                    ctx.pool_stats().misses,
                    misses,
                    "warm forward_mean must not miss the pool"
                );
            }
        }
    }

    #[test]
    fn forward_mean_cached_matches_forward_mean_bitwise() {
        let (norm_a, norm_at) = toy_graph();
        for layers in [0usize, 1, 2, 3] {
            for activation in [MeanActivation::LeakyRelu, MeanActivation::Identity] {
                let mut rng = component_rng(40 + layers as u64, "cache-parity");
                let mut params = ParamSet::new();
                let enc = VbgeEncoder::with_mean_activation(&mut params, &mut rng, "user", 8, layers, 0.1, activation)
                    .unwrap();
                let emb = cdrib_tensor::rng::normal_tensor(&mut rng, 5, 8, 0.1);
                let mut ctx = FuncCtx::new();
                let reference = enc.forward_mean(&mut ctx, &params, &emb, &norm_at, &norm_a).unwrap();
                let mut cache = MeanCache::new();
                enc.forward_mean_cached(&mut ctx, &params, &emb, &norm_at, &norm_a, &mut cache)
                    .unwrap();
                assert!(cache.ready);
                assert_eq!(cache.mu(), &reference, "layers={layers} activation={activation:?}");
                ctx.recycle(reference);
            }
        }
    }

    #[test]
    fn reencode_rows_matches_full_rebuild_bitwise() {
        // Apply a structural change (one new user, one new item, new edges),
        // patch the cache incrementally, and compare against a from-scratch
        // cached forward on the post-delta graph: every stage and the final
        // mean table must be byte-for-byte identical.
        let old_edges = [(0usize, 0usize), (0, 1), (1, 1), (2, 2), (2, 3), (3, 0), (3, 3), (4, 2)];
        let new_edges = [(5usize, 4usize), (5, 1), (0, 2)]; // user 5 and item 4 are new
        for layers in [1usize, 2, 3] {
            let mut rng = component_rng(60 + layers as u64, "reencode-parity");
            let mut params = ParamSet::new();
            let enc = VbgeEncoder::new(&mut params, &mut rng, "user", 8, layers, 0.1).unwrap();
            let old_emb = cdrib_tensor::rng::normal_tensor(&mut rng, 5, 8, 0.1);
            let mut new_emb = old_emb.clone();
            new_emb.resize_rows(6); // the new user's embedding row is zero

            let old_adj = CsrMatrix::from_edges(5, 4, &old_edges).unwrap();
            let all_edges: Vec<(usize, usize)> = old_edges.iter().chain(new_edges.iter()).copied().collect();
            let new_adj = CsrMatrix::from_edges(6, 5, &all_edges).unwrap();
            let (old_a, old_at) = (old_adj.row_normalized(), old_adj.transpose().row_normalized());
            let (new_a, new_at) = (new_adj.row_normalized(), new_adj.transpose().row_normalized());

            let mut ctx = FuncCtx::new();
            let mut cache = MeanCache::new();
            enc.forward_mean_cached(&mut ctx, &params, &old_emb, &old_at, &old_a, &mut cache)
                .unwrap();
            let mut scratch = DirtyScratch::new();
            // Touched = edge endpoints plus the new entities.
            enc.reencode_mean_rows(
                &mut ctx,
                &params,
                &new_emb,
                &new_at,
                &new_a,
                &[0, 5],
                &[1, 2, 4],
                5,
                4,
                &mut cache,
                &mut scratch,
            )
            .unwrap();
            assert!(scratch.dirty_mu().contains(&5));

            let mut reference = MeanCache::new();
            enc.forward_mean_cached(&mut ctx, &params, &new_emb, &new_at, &new_a, &mut reference)
                .unwrap();
            assert_eq!(cache.mu(), reference.mu(), "layers={layers}: mean table diverged");
            for l in 0..layers {
                assert_eq!(cache.interims[l], reference.interims[l], "layers={layers} interim {l}");
                assert_eq!(cache.backs[l], reference.backs[l], "layers={layers} back {l}");
            }
        }
    }

    #[test]
    fn reencode_rows_rejects_stale_or_unprepared_state() {
        let (norm_a, norm_at) = toy_graph();
        let mut rng = component_rng(9, "reencode-errors");
        let mut params = ParamSet::new();
        let enc = VbgeEncoder::new(&mut params, &mut rng, "user", 4, 1, 0.1).unwrap();
        let emb = cdrib_tensor::rng::normal_tensor(&mut rng, 5, 4, 0.1);
        let mut ctx = FuncCtx::new();
        let mut cache = MeanCache::new();
        let mut scratch = DirtyScratch::new();
        // Cache not initialised.
        assert!(enc
            .reencode_mean_rows(
                &mut ctx,
                &params,
                &emb,
                &norm_at,
                &norm_a,
                &[],
                &[],
                5,
                4,
                &mut cache,
                &mut scratch
            )
            .is_err());
        enc.forward_mean_cached(&mut ctx, &params, &emb, &norm_at, &norm_a, &mut cache)
            .unwrap();
        // Shrinking entity counts is rejected.
        assert!(enc
            .reencode_mean_rows(
                &mut ctx,
                &params,
                &emb,
                &norm_at,
                &norm_a,
                &[],
                &[],
                6,
                4,
                &mut cache,
                &mut scratch
            )
            .is_err());
        // Mismatched embedding rows are rejected.
        let wrong = cdrib_tensor::rng::normal_tensor(&mut rng, 4, 4, 0.1);
        assert!(enc
            .reencode_mean_rows(
                &mut ctx,
                &params,
                &wrong,
                &norm_at,
                &norm_a,
                &[],
                &[],
                5,
                4,
                &mut cache,
                &mut scratch
            )
            .is_err());
        // A no-op re-encode (nothing touched, nothing new) changes nothing.
        let before = cache.mu().clone();
        enc.reencode_mean_rows(
            &mut ctx,
            &params,
            &emb,
            &norm_at,
            &norm_a,
            &[],
            &[],
            5,
            4,
            &mut cache,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(cache.mu(), &before);
        assert!(scratch.dirty_mu().is_empty());
    }

    #[test]
    fn training_mode_is_stochastic_but_seeded() {
        let (norm_a, norm_at) = toy_graph();
        let mut rng = component_rng(1, "vbge2");
        let mut params = ParamSet::new();
        let enc = VbgeEncoder::new(&mut params, &mut rng, "user", 4, 1, 0.1).unwrap();
        let emb = cdrib_tensor::rng::normal_tensor(&mut rng, 5, 4, 0.1);

        let run = |seed: u64| -> Tensor {
            let mut noise_rng = component_rng(seed, "noise");
            let mut tape = Tape::new();
            let e = tape.constant(emb.clone());
            let out = enc
                .forward(
                    &mut tape,
                    &params,
                    e,
                    &op(&norm_at),
                    &op(&norm_a),
                    Some(ForwardNoise {
                        dropout: 0.3,
                        rng: &mut noise_rng,
                    }),
                )
                .unwrap();
            tape.value(out.z).unwrap().clone()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same noise seed must reproduce the sample");
        assert_ne!(a, c, "different noise seeds must differ");
    }

    #[test]
    fn vbge_learns_to_reconstruct_interactions() {
        // A small end-to-end check: train a single-domain VBGE with a
        // VGAE-style loss and verify that observed edges end up scoring higher
        // than unobserved ones.
        let (norm_a, norm_at) = toy_graph();
        let edges = [(0usize, 0usize), (0, 1), (1, 1), (2, 2), (2, 3), (3, 0), (3, 3), (4, 2)];
        let non_edges = [(0usize, 2usize), (0, 3), (1, 0), (1, 3), (3, 1), (4, 0), (4, 3), (2, 0)];
        let mut rng = component_rng(2, "vbge-train");
        let mut params = ParamSet::new();
        let user_enc = VbgeEncoder::new(&mut params, &mut rng, "user", 8, 1, 0.1).unwrap();
        let item_enc = VbgeEncoder::new(&mut params, &mut rng, "item", 8, 1, 0.1).unwrap();
        let user_emb = params
            .add("user_emb", cdrib_tensor::rng::normal_tensor(&mut rng, 5, 8, 0.1))
            .unwrap();
        let item_emb = params
            .add("item_emb", cdrib_tensor::rng::normal_tensor(&mut rng, 4, 8, 0.1))
            .unwrap();
        let mut opt = Adam::with_defaults(0.02);
        let users: Vec<usize> = edges.iter().map(|e| e.0).chain(non_edges.iter().map(|e| e.0)).collect();
        let items: Vec<usize> = edges.iter().map(|e| e.1).chain(non_edges.iter().map(|e| e.1)).collect();
        let mut labels = vec![1.0f32; edges.len()];
        labels.extend(vec![0.0f32; non_edges.len()]);
        let labels = Tensor::from_vec(labels.len(), 1, labels).unwrap();

        for step in 0..120 {
            params.zero_grad();
            let mut noise_rng = component_rng(100 + step, "step");
            let mut tape = Tape::new();
            let ue = tape.param(&params, user_emb);
            let ie = tape.param(&params, item_emb);
            let uo = user_enc
                .forward(
                    &mut tape,
                    &params,
                    ue,
                    &op(&norm_at),
                    &op(&norm_a),
                    Some(ForwardNoise {
                        dropout: 0.0,
                        rng: &mut noise_rng,
                    }),
                )
                .unwrap();
            let io = item_enc
                .forward(
                    &mut tape,
                    &params,
                    ie,
                    &op(&norm_a),
                    &op(&norm_at),
                    Some(ForwardNoise {
                        dropout: 0.0,
                        rng: &mut noise_rng,
                    }),
                )
                .unwrap();
            let zu = tape.gather_rows(uo.z, &users).unwrap();
            let zi = tape.gather_rows(io.z, &items).unwrap();
            let logits = tape.rowwise_dot(zu, zi).unwrap();
            let rec = tape.bce_with_logits(logits, labels.clone()).unwrap();
            let klu = tape.kl_std_normal(uo.mu, uo.sigma).unwrap();
            let kli = tape.kl_std_normal(io.mu, io.sigma).unwrap();
            let kl = tape.add(klu, kli).unwrap();
            let kl = tape.scale(kl, 0.01).unwrap();
            let loss = tape.add(rec, kl).unwrap();
            tape.backward(loss, &mut params).unwrap();
            opt.step(&mut params).unwrap();
        }

        // Score with the deterministic means.
        let u_mu = encode_mean(&user_enc, &params, params.value(user_emb), &norm_at, &norm_a).unwrap();
        let i_mu = encode_mean(&item_enc, &params, params.value(item_emb), &norm_a, &norm_at).unwrap();
        let score =
            |u: usize, v: usize| -> f32 { u_mu.row(u).iter().zip(i_mu.row(v).iter()).map(|(a, b)| a * b).sum() };
        let pos_mean: f32 = edges.iter().map(|&(u, v)| score(u, v)).sum::<f32>() / edges.len() as f32;
        let neg_mean: f32 = non_edges.iter().map(|&(u, v)| score(u, v)).sum::<f32>() / non_edges.len() as f32;
        assert!(
            pos_mean > neg_mean + 0.3,
            "positives should score clearly higher: pos {pos_mean} vs neg {neg_mean}"
        );
        assert!(params.all_finite());
    }
}
