//! The CDRIB model (§III).
//!
//! The model holds, per domain, an embedding table for users and items plus a
//! user-VBGE and an item-VBGE, and a shared contrastive discriminator. Its
//! training objective is Eq. (16):
//!
//! * **minimality terms** — KL divergences of every latent Gaussian against
//!   the standard-normal prior, weighted by the Lagrangian multipliers
//!   `beta_1`/`beta_2` (the tractable form of `I(Z; X_u)` etc., Eq. 11);
//! * **reconstruction terms** — binary cross-entropy over sampled positive /
//!   negative interactions (Eq. 13), where interactions of *overlapping*
//!   users are reconstructed with the user latent of the **other** domain
//!   (cross-domain IB regularizer) and interactions of non-overlapping users
//!   with their own domain's latent (in-domain IB regularizer);
//! * **contrastive term** — a discriminator distinguishing aligned from
//!   misaligned overlap-user latent pairs across domains (Eq. 14-15).

use crate::config::CdribConfig;
use crate::error::{CoreError, Result};
use crate::vbge::{ForwardNoise, MeanActivation, VbgeEncoder, VbgeOutput};
use cdrib_data::{CdrScenario, DomainId, EdgeBatch, EpochBatches};
use cdrib_graph::BipartiteGraph;
use cdrib_tensor::rng::{component_rng, shuffle_in_place};
use cdrib_tensor::{Activation, Mlp, ParamId, ParamSet, SparseOperand, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Cached graph views and parameter handles of one domain. Crate-visible so
/// the tape-free [`InferenceModel`](crate::infer::InferenceModel) can clone
/// the pieces it needs when freezing a trained model.
pub(crate) struct DomainState {
    pub(crate) user_emb: ParamId,
    pub(crate) item_emb: ParamId,
    pub(crate) user_encoder: VbgeEncoder,
    pub(crate) item_encoder: VbgeEncoder,
    /// `Norm(A)`, `|U| x |V|`, with its transpose for the spmm backward.
    pub(crate) norm_a: SparseOperand,
    /// `Norm(A^T)`, `|V| x |U|`, with its transpose for the spmm backward.
    pub(crate) norm_a_t: SparseOperand,
}

/// Latent variables of one domain produced during a forward pass.
pub struct DomainEncoding {
    /// User latents.
    pub users: VbgeOutput,
    /// Item latents.
    pub items: VbgeOutput,
}

/// Deterministic embeddings exported after training (the Gaussian means).
#[derive(Debug, Clone)]
pub struct CdribEmbeddings {
    /// User means of domain X.
    pub x_users: Tensor,
    /// Item means of domain X.
    pub x_items: Tensor,
    /// User means of domain Y.
    pub y_users: Tensor,
    /// Item means of domain Y.
    pub y_items: Tensor,
}

impl CdribEmbeddings {
    /// Wraps the embeddings into the shared evaluation scorer.
    pub fn into_scorer(self) -> cdrib_eval::EmbeddingScorer {
        cdrib_eval::EmbeddingScorer::dot(self.x_users, self.x_items, self.y_users, self.y_items)
    }

    /// Borrowing variant of [`CdribEmbeddings::into_scorer`].
    pub fn scorer(&self) -> cdrib_eval::EmbeddingScorer {
        self.clone().into_scorer()
    }
}

/// The CDRIB model.
pub struct CdribModel {
    config: CdribConfig,
    params: ParamSet,
    x: DomainState,
    y: DomainState,
    discriminator: Mlp,
    /// Overlapping users available as cross-domain bridges during training.
    train_overlap: Vec<u32>,
    /// `train_overlap` as a membership table over user ids (see
    /// [`overlap_flags`]): the loss asks once per sampled positive and
    /// negative, ~107k times a step on MusicMovie/Full.
    is_train_overlap: Vec<bool>,
    /// Reusable per-step index/label buffers (see [`StepScratch`]), parked
    /// in an `Option` so each step can move it out and back with
    /// `Option::take` — a plain pointer move. (`std::mem::take` of the
    /// struct itself would build a `StepScratch::default()` per step, which
    /// allocates one `Arc` per index buffer.)
    scratch: Option<StepScratch>,
}

/// Reusable buffers of the per-step loss construction.
///
/// A training step partitions every edge batch into index and label lists
/// and hands gather indices to the tape. Rebuilding those `Vec`s each step
/// is not just allocator traffic: the freed blocks sit at the top of the
/// heap, glibc trims them back to the kernel, and the next step pays the
/// page faults again — measurably slower than the compute it supports. The
/// scratch keeps one copy of every list alive for the lifetime of the model;
/// gather indices are `Arc`s so the tape shares them by refcount
/// ([`Tape::gather_rows_shared`]) and hands back exclusive access after each
/// [`Tape::reset`].
#[derive(Default)]
struct StepScratch {
    // One reconstruction slot per target domain: both run within one step,
    // so the tape still holds the X-slot Arcs when the Y call builds its
    // lists — separate slots keep every buffer exclusively recoverable.
    cross_users: [Arc<Vec<usize>>; 2],
    cross_items: [Arc<Vec<usize>>; 2],
    cross_labels: Vec<f32>,
    in_users: [Arc<Vec<usize>>; 2],
    in_items: [Arc<Vec<usize>>; 2],
    in_labels: Vec<f32>,
    overlap_idx: Arc<Vec<usize>>,
    contrastive_users: Vec<u32>,
    contrastive_idx: Arc<Vec<usize>>,
    contrastive_partner: Arc<Vec<usize>>,
    losses: Vec<Var>,
}

/// Exclusive access to a shared index buffer, recovering it when the tape
/// released its clone (after `reset`) and falling back to a fresh buffer
/// when something still holds one (e.g. an error path skipped the reset).
fn shared_mut(indices: &mut Arc<Vec<usize>>) -> &mut Vec<usize> {
    if Arc::get_mut(indices).is_none() {
        *indices = Arc::new(Vec::new());
    }
    Arc::get_mut(indices).expect("the Arc was just made unique")
}

/// Which of the user ids `0..n_users` are in `users`. An id past the table
/// reads back as "not an overlap user" (no batch of either domain can name
/// it), so one in `users` is dropped here; the loss reports it when it
/// gathers the overlap rows.
fn overlap_flags(n_users: usize, users: &[u32]) -> Vec<bool> {
    let mut flags = vec![false; n_users];
    for &user in users {
        if let Some(flag) = flags.get_mut(user as usize) {
            *flag = true;
        }
    }
    flags
}

/// Internal rescaling of the KL minimality terms.
///
/// The paper's reconstruction term (Eq. 13) is a *sum* over sampled
/// interactions while this implementation averages it over the mini-batch
/// (so the learning rate is batch-size independent). The KL terms are
/// likewise averaged over entities. To keep the `beta` sweep of Fig. 5 on the
/// paper's scale (0.5 .. 2.0) while preserving the balance between the two
/// averaged terms, the KL weight is `beta * KL_SCALE`.
const KL_SCALE: f32 = 0.1;

/// The per-step loss breakdown (useful for diagnostics and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LossBreakdown {
    /// Total objective value.
    pub total: f32,
    /// Weighted KL minimality value.
    pub minimality: f32,
    /// Reconstruction BCE value (cross-domain + in-domain).
    pub reconstruction: f32,
    /// Contrastive BCE value.
    pub contrastive: f32,
}

impl CdribModel {
    /// Builds the model for a scenario.
    pub fn new(config: &CdribConfig, scenario: &CdrScenario) -> Result<Self> {
        config.validate()?;
        if scenario.train_overlap_users.is_empty() {
            return Err(CoreError::InvalidScenario {
                detail: "the scenario has no training overlap users to bridge the domains".into(),
            });
        }
        let mut init_rng = component_rng(config.seed, "cdrib-init");
        let mut params = ParamSet::new();

        let build_domain = |params: &mut ParamSet,
                            rng: &mut StdRng,
                            prefix: &str,
                            dom: &cdrib_data::DomainData|
         -> Result<DomainState> {
            let user_emb = params.add(
                format!("{prefix}.user_emb"),
                cdrib_tensor::init::embedding_normal(rng, dom.n_users, config.dim, 0.1),
            )?;
            let item_emb = params.add(
                format!("{prefix}.item_emb"),
                cdrib_tensor::init::embedding_normal(rng, dom.n_items, config.dim, 0.1),
            )?;
            let mean_activation = if config.nonlinear_mean {
                MeanActivation::LeakyRelu
            } else {
                MeanActivation::Identity
            };
            let user_encoder = VbgeEncoder::with_mean_activation(
                params,
                rng,
                &format!("{prefix}.user_vbge"),
                config.dim,
                config.layers,
                config.leaky_slope,
                mean_activation,
            )?;
            let item_encoder = VbgeEncoder::with_mean_activation(
                params,
                rng,
                &format!("{prefix}.item_vbge"),
                config.dim,
                config.layers,
                config.leaky_slope,
                mean_activation,
            )?;
            Ok(DomainState {
                user_emb,
                item_emb,
                user_encoder,
                item_encoder,
                norm_a: SparseOperand::new(dom.train.norm_adjacency()),
                norm_a_t: SparseOperand::new(dom.train.norm_adjacency_transpose()),
            })
        };

        let x = build_domain(&mut params, &mut init_rng, "x", &scenario.x)?;
        let y = build_domain(&mut params, &mut init_rng, "y", &scenario.y)?;

        // "a three-layer MLP followed by a sigmoid" (Eq. 15); the sigmoid is
        // folded into the BCE-with-logits loss.
        let discriminator = Mlp::new(
            &mut params,
            &mut init_rng,
            "discriminator",
            &[2 * config.dim, 2 * config.dim, config.dim, 1],
            Activation::LeakyRelu(config.leaky_slope),
            Activation::Identity,
        )?;

        Ok(CdribModel {
            config: config.clone(),
            params,
            x,
            y,
            discriminator,
            train_overlap: scenario.train_overlap_users.clone(),
            is_train_overlap: overlap_flags(
                scenario.x.n_users.max(scenario.y.n_users),
                &scenario.train_overlap_users,
            ),
            scratch: Some(StepScratch::default()),
        })
    }

    /// The model's hyperparameters.
    pub fn config(&self) -> &CdribConfig {
        &self.config
    }

    /// Immutable access to the parameter set (used by the trainer/optimizer).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the parameter set (used by the trainer/optimizer).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    pub(crate) fn domain(&self, id: DomainId) -> &DomainState {
        match id {
            DomainId::X => &self.x,
            DomainId::Y => &self.y,
        }
    }

    /// Encodes one domain. `noise_rng` enables training mode (dropout and
    /// reparameterisation sampling).
    pub(crate) fn encode_domain(
        &self,
        tape: &mut Tape,
        id: DomainId,
        mut noise_rng: Option<&mut StdRng>,
    ) -> Result<DomainEncoding> {
        let dom = self.domain(id);
        let user_emb = tape.param(&self.params, dom.user_emb);
        let item_emb = tape.param(&self.params, dom.item_emb);
        let users = dom.user_encoder.forward(
            tape,
            &self.params,
            user_emb,
            &dom.norm_a_t,
            &dom.norm_a,
            noise_rng.as_deref_mut().map(|rng| ForwardNoise {
                dropout: self.config.dropout,
                rng,
            }),
        )?;
        let items = dom.item_encoder.forward(
            tape,
            &self.params,
            item_emb,
            &dom.norm_a,
            &dom.norm_a_t,
            noise_rng.map(|rng| ForwardNoise {
                dropout: self.config.dropout,
                rng,
            }),
        )?;
        Ok(DomainEncoding { users, items })
    }

    /// Builds the reconstruction BCE of one target domain's edge batch,
    /// splitting it into the cross-domain part (overlap users encoded by the
    /// *source* domain) and the in-domain part (everyone else).
    #[allow(clippy::too_many_arguments)]
    fn reconstruction_terms(
        &self,
        tape: &mut Tape,
        batch: &EdgeBatch,
        target_users: &DomainEncoding,
        source_users: &DomainEncoding,
        target_items: &DomainEncoding,
        scratch: &mut StepScratch,
        slot: usize,
    ) -> Result<(f32, f32)> {
        // Partition positives and negatives by whether the user is a training
        // overlap user, into the reusable scratch lists.
        {
            let cross_users = shared_mut(&mut scratch.cross_users[slot]);
            let cross_items = shared_mut(&mut scratch.cross_items[slot]);
            let in_users = shared_mut(&mut scratch.in_users[slot]);
            let in_items = shared_mut(&mut scratch.in_items[slot]);
            let cross_labels = &mut scratch.cross_labels;
            let in_labels = &mut scratch.in_labels;
            cross_users.clear();
            cross_items.clear();
            cross_labels.clear();
            in_users.clear();
            in_items.clear();
            in_labels.clear();
            let mut push = |user: u32, item: u32, label: f32| {
                if self.is_train_overlap.get(user as usize).copied().unwrap_or(false) {
                    cross_users.push(user as usize);
                    cross_items.push(item as usize);
                    cross_labels.push(label);
                } else {
                    in_users.push(user as usize);
                    in_items.push(item as usize);
                    in_labels.push(label);
                }
            };
            for (k, &u) in batch.users.iter().enumerate() {
                push(u, batch.pos_items[k], 1.0);
            }
            for (k, &u) in batch.neg_users.iter().enumerate() {
                push(u, batch.neg_items[k], 0.0);
            }
        }

        let mut cross_value = 0.0f32;
        let mut in_value = 0.0f32;
        if !scratch.cross_users[slot].is_empty() {
            // Fused gather + row-wise dot: scores the sampled (user, item)
            // pairs without materialising the gathered latent matrices.
            let logits = tape.gather_rowwise_dot(
                source_users.users.z,
                target_items.items.z,
                &scratch.cross_users[slot],
                &scratch.cross_items[slot],
            )?;
            let labels = pooled_column(tape, &scratch.cross_labels);
            let bce = tape.bce_with_logits(logits, labels)?;
            cross_value = tape.value(bce)?.scalar_value()?;
            scratch.losses.push(bce);
        }
        if self.config.variant.use_in_domain_ib() && !scratch.in_users[slot].is_empty() {
            let logits = tape.gather_rowwise_dot(
                target_users.users.z,
                target_items.items.z,
                &scratch.in_users[slot],
                &scratch.in_items[slot],
            )?;
            let labels = pooled_column(tape, &scratch.in_labels);
            let bce = tape.bce_with_logits(logits, labels)?;
            in_value = tape.value(bce)?.scalar_value()?;
            scratch.losses.push(bce);
        }
        Ok((cross_value, in_value))
    }

    /// Builds the KL minimality terms.
    fn minimality_terms(
        &self,
        tape: &mut Tape,
        enc_x: &DomainEncoding,
        enc_y: &DomainEncoding,
        scratch: &mut StepScratch,
    ) -> Result<f32> {
        let mut value = 0.0f32;
        let losses = &mut scratch.losses;
        let mut add_kl = |tape: &mut Tape, mu: Var, sigma: Var, weight: f32, value: &mut f32| -> Result<()> {
            let kl = tape.kl_std_normal(mu, sigma)?;
            let kl = tape.scale(kl, weight)?;
            *value += tape.value(kl)?.scalar_value()?;
            losses.push(kl);
            Ok(())
        };
        // User minimality: over all users when the in-domain regularizer is
        // active (Eq. 16), otherwise only over the overlapping users that the
        // cross-domain regularizer constrains (Eq. 7).
        let w1 = self.config.beta1 * KL_SCALE;
        let w2 = self.config.beta2 * KL_SCALE;
        if self.config.variant.use_in_domain_ib() {
            add_kl(tape, enc_x.users.mu, enc_x.users.sigma, w1, &mut value)?;
            add_kl(tape, enc_y.users.mu, enc_y.users.sigma, w2, &mut value)?;
        } else {
            {
                let overlap_idx = shared_mut(&mut scratch.overlap_idx);
                overlap_idx.clear();
                overlap_idx.extend(self.train_overlap.iter().map(|&u| u as usize));
            }
            let mu_xo = tape.gather_rows_shared(enc_x.users.mu, &scratch.overlap_idx)?;
            let sig_xo = tape.gather_rows_shared(enc_x.users.sigma, &scratch.overlap_idx)?;
            add_kl(tape, mu_xo, sig_xo, w1, &mut value)?;
            let mu_yo = tape.gather_rows_shared(enc_y.users.mu, &scratch.overlap_idx)?;
            let sig_yo = tape.gather_rows_shared(enc_y.users.sigma, &scratch.overlap_idx)?;
            add_kl(tape, mu_yo, sig_yo, w2, &mut value)?;
        }
        // Item minimality always applies (items appear in both regularizers).
        add_kl(tape, enc_x.items.mu, enc_x.items.sigma, w1, &mut value)?;
        add_kl(tape, enc_y.items.mu, enc_y.items.sigma, w2, &mut value)?;
        Ok(value)
    }

    /// Builds the contrastive regularizer over overlap users (Eq. 14).
    fn contrastive_term(
        &self,
        tape: &mut Tape,
        enc_x: &DomainEncoding,
        enc_y: &DomainEncoding,
        rng: &mut StdRng,
        scratch: &mut StepScratch,
    ) -> Result<f32> {
        if !self.config.variant.use_contrastive() || self.train_overlap.len() < 2 {
            return Ok(0.0);
        }
        let n_pairs;
        {
            let users = &mut scratch.contrastive_users;
            users.clear();
            users.extend_from_slice(&self.train_overlap);
            shuffle_in_place(rng, users);
            users.truncate(self.config.contrastive_batch);
            n_pairs = users.len();
            let idx = shared_mut(&mut scratch.contrastive_idx);
            idx.clear();
            idx.extend(users.iter().map(|&u| u as usize));
            // Negative partners: a rotation of the batch guarantees a mismatch
            // for every pair (the batch has at least 2 distinct users).
            let partner = shared_mut(&mut scratch.contrastive_partner);
            partner.clear();
            partner.extend_from_slice(idx);
            partner.rotate_left(1);
        }

        let zx = tape.gather_rows_shared(enc_x.users.z, &scratch.contrastive_idx)?;
        let zy_pos = tape.gather_rows_shared(enc_y.users.z, &scratch.contrastive_idx)?;
        let zy_neg = tape.gather_rows_shared(enc_y.users.z, &scratch.contrastive_partner)?;

        let pos_in = tape.concat_cols(zx, zy_pos)?;
        let neg_in = tape.concat_cols(zx, zy_neg)?;
        let all_in = tape.concat_rows(pos_in, neg_in)?;
        let logits = self.discriminator.forward(tape, &self.params, all_in)?;
        // Aligned pairs first, then the rotated (mismatched) pairs.
        let mut labels = tape.scratch(2 * n_pairs, 1);
        labels.as_mut_slice()[..n_pairs].fill(1.0);
        labels.as_mut_slice()[n_pairs..].fill(0.0);
        let bce = tape.bce_with_logits(logits, labels)?;
        let weighted = tape.scale(bce, self.config.contrastive_weight)?;
        let value = tape.value(weighted)?.scalar_value()?;
        scratch.losses.push(weighted);
        Ok(value)
    }

    /// Builds the full training objective for one pair of edge batches and
    /// returns the loss variable together with its breakdown.
    ///
    /// Takes `&mut self` only for the reusable [`StepScratch`] buffers; the
    /// parameters and graph state are not modified.
    pub fn loss(
        &mut self,
        tape: &mut Tape,
        x_batch: &EdgeBatch,
        y_batch: &EdgeBatch,
        rng: &mut StdRng,
    ) -> Result<(Var, LossBreakdown)> {
        let mut scratch = self.scratch.take().unwrap_or_default();
        let result = self.loss_with_scratch(tape, x_batch, y_batch, rng, &mut scratch);
        self.scratch = Some(scratch);
        result
    }

    fn loss_with_scratch(
        &self,
        tape: &mut Tape,
        x_batch: &EdgeBatch,
        y_batch: &EdgeBatch,
        rng: &mut StdRng,
        scratch: &mut StepScratch,
    ) -> Result<(Var, LossBreakdown)> {
        let mut enc_rng_x = component_rng(rng.gen::<u64>(), "encode-x");
        let mut enc_rng_y = component_rng(rng.gen::<u64>(), "encode-y");
        let enc_x = self.encode_domain(tape, DomainId::X, Some(&mut enc_rng_x))?;
        let enc_y = self.encode_domain(tape, DomainId::Y, Some(&mut enc_rng_y))?;

        scratch.losses.clear();
        let minimality = self.minimality_terms(tape, &enc_x, &enc_y, scratch)?;
        // Reconstruction of domain X interactions: overlap users are encoded
        // by domain Y (cross term of L_{o2X}), the rest by domain X itself.
        let (cross_x, in_x) = self.reconstruction_terms(tape, x_batch, &enc_x, &enc_y, &enc_x, scratch, 0)?;
        // Reconstruction of domain Y interactions (L_{o2Y} and L_{y2Y}).
        let (cross_y, in_y) = self.reconstruction_terms(tape, y_batch, &enc_y, &enc_x, &enc_y, scratch, 1)?;
        let contrastive = self.contrastive_term(tape, &enc_x, &enc_y, rng, scratch)?;

        let mut total = scratch.losses[0];
        for &term in &scratch.losses[1..] {
            total = tape.add(total, term)?;
        }
        let breakdown = LossBreakdown {
            total: tape.value(total)?.scalar_value()?,
            minimality,
            reconstruction: cross_x + in_x + cross_y + in_y,
            contrastive,
        };
        Ok((total, breakdown))
    }

    /// Deterministic (mean) embeddings for ranking.
    pub fn infer_embeddings(&self) -> Result<CdribEmbeddings> {
        let mut tape = Tape::new();
        let enc_x = self.encode_domain(&mut tape, DomainId::X, None)?;
        let enc_y = self.encode_domain(&mut tape, DomainId::Y, None)?;
        Ok(CdribEmbeddings {
            x_users: tape.value(enc_x.users.mu)?.clone(),
            x_items: tape.value(enc_x.items.mu)?.clone(),
            y_users: tape.value(enc_y.users.mu)?.clone(),
            y_items: tape.value(enc_y.items.mu)?.clone(),
        })
    }

    /// Samples one epoch of edge batches for both domains. The two domains
    /// have different interaction counts, so the shorter one is cycled.
    ///
    /// Allocating convenience wrapper around
    /// [`CdribModel::make_batches_into`]; steady-state training loops (the
    /// trainer) hold two [`EpochBatches`] and refill them instead.
    pub fn make_batches(&self, scenario: &CdrScenario, rng: &mut StdRng) -> Result<Vec<(EdgeBatch, EdgeBatch)>> {
        let (mut x, mut y) = (EpochBatches::new(), EpochBatches::new());
        self.make_batches_into(scenario, rng, &mut x, &mut y)?;
        Ok(x.batches().iter().cloned().zip(y.batches().iter().cloned()).collect())
    }

    /// Refills `x`/`y` with one epoch of edge batches per domain, reusing
    /// all per-batch storage of previous epochs (zero allocator requests in
    /// steady state; enforced by `tests/alloc_regression.rs`). Each storage
    /// ends up with `batches_per_epoch` batches, or fewer when a degenerate
    /// domain has fewer training edges than that — step loops must iterate
    /// the zip of the two storages, not assume the configured count.
    pub fn make_batches_into(
        &self,
        scenario: &CdrScenario,
        rng: &mut StdRng,
        x: &mut EpochBatches,
        y: &mut EpochBatches,
    ) -> Result<()> {
        let n_batches = self.config.batches_per_epoch;
        make_domain_batches_into(&scenario.x.train, n_batches, self.config.neg_ratio, rng, x)?;
        make_domain_batches_into(&scenario.y.train, n_batches, self.config.neg_ratio, rng, y)?;
        Ok(())
    }
}

/// Copies a label slice into a pooled `n x 1` tape buffer so the label
/// tensor's storage is recycled across steps.
fn pooled_column(tape: &mut Tape, values: &[f32]) -> Tensor {
    let mut col = tape.scratch(values.len(), 1);
    col.as_mut_slice().copy_from_slice(values);
    col
}

/// Splits a domain's training edges into `n_batches` shuffled batches with
/// negatives, refilling `storage` in place.
fn make_domain_batches_into(
    graph: &BipartiteGraph,
    n_batches: usize,
    neg_ratio: usize,
    rng: &mut StdRng,
    storage: &mut EpochBatches,
) -> Result<()> {
    let batch_size = graph.n_edges().div_ceil(n_batches).max(1);
    let batcher = cdrib_data::EdgeBatcher::new(batch_size, neg_ratio)?;
    batcher.epoch_into(graph, rng, storage)?;
    // The division can produce one extra small batch; merge it into the last
    // full batch so every epoch has exactly `n_batches` steps.
    while storage.len() > n_batches {
        storage.merge_tail();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_data::{build_preset, Scale, ScenarioKind};

    fn tiny_scenario() -> CdrScenario {
        build_preset(ScenarioKind::GameVideo, Scale::Tiny, 21).unwrap()
    }

    #[test]
    fn model_construction_and_shapes() {
        let scenario = tiny_scenario();
        let config = CdribConfig::fast_test();
        let model = CdribModel::new(&config, &scenario).unwrap();
        assert!(model.params().num_scalars() > 1000);
        let emb = model.infer_embeddings().unwrap();
        assert_eq!(emb.x_users.shape(), (scenario.x.n_users, config.dim));
        assert_eq!(emb.y_items.shape(), (scenario.y.n_items, config.dim));
        assert!(emb.x_users.all_finite());
        // scorer adapters exist
        let _scorer = emb.scorer();
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let scenario = tiny_scenario();
        let mut bad = CdribConfig::fast_test();
        bad.dim = 0;
        assert!(CdribModel::new(&bad, &scenario).is_err());
        let mut no_overlap = scenario.clone();
        no_overlap.train_overlap_users.clear();
        assert!(CdribModel::new(&CdribConfig::fast_test(), &no_overlap).is_err());
    }

    #[test]
    fn loss_decreases_over_a_few_steps() {
        use cdrib_tensor::{Adam, Optimizer};
        let scenario = tiny_scenario();
        let config = CdribConfig::fast_test();
        let mut model = CdribModel::new(&config, &scenario).unwrap();
        let mut opt = Adam::with_defaults(config.learning_rate);
        let mut rng = component_rng(config.seed, "train");
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..8 {
            let batches = model.make_batches(&scenario, &mut rng).unwrap();
            for (xb, yb) in &batches {
                model.params_mut().zero_grad();
                let mut tape = Tape::new();
                let (loss, breakdown) = model.loss(&mut tape, xb, yb, &mut rng).unwrap();
                assert!(breakdown.total.is_finite());
                assert!(breakdown.minimality >= 0.0);
                assert!(breakdown.reconstruction > 0.0);
                let value = {
                    let params = model.params_mut();
                    tape.backward(loss, params).unwrap()
                };
                opt.step(model.params_mut()).unwrap();
                if first.is_none() {
                    first = Some(value);
                }
                last = value;
            }
        }
        assert!(
            last < first.unwrap(),
            "loss should decrease: first {:?} last {last}",
            first
        );
        assert!(model.params().all_finite());
    }

    #[test]
    fn ablation_variants_change_the_objective() {
        let scenario = tiny_scenario();
        let mut rng = component_rng(3, "ablation");
        let config = CdribConfig::fast_test();
        let mut full = CdribModel::new(&config, &scenario).unwrap();
        let mut wo_con = CdribModel::new(
            &config.with_variant(crate::config::CdribVariant::WithoutContrastive),
            &scenario,
        )
        .unwrap();
        let mut wo_both = CdribModel::new(
            &config.with_variant(crate::config::CdribVariant::WithoutInDomainAndContrastive),
            &scenario,
        )
        .unwrap();
        let batches = full.make_batches(&scenario, &mut rng).unwrap();
        let (xb, yb) = &batches[0];

        let mut t1 = Tape::new();
        let mut r1 = component_rng(9, "s");
        let (_, b_full) = full.loss(&mut t1, xb, yb, &mut r1).unwrap();
        assert!(b_full.contrastive > 0.0);

        let mut t2 = Tape::new();
        let mut r2 = component_rng(9, "s");
        let (_, b_wo_con) = wo_con.loss(&mut t2, xb, yb, &mut r2).unwrap();
        assert_eq!(b_wo_con.contrastive, 0.0);

        let mut t3 = Tape::new();
        let mut r3 = component_rng(9, "s");
        let (_, b_wo_both) = wo_both.loss(&mut t3, xb, yb, &mut r3).unwrap();
        assert_eq!(b_wo_both.contrastive, 0.0);
        // Without the in-domain term, fewer interactions are reconstructed.
        assert!(b_wo_both.reconstruction < b_wo_con.reconstruction + 1e-6);
    }

    #[test]
    fn overlap_list_can_be_replaced() {
        // The Table VIII study thins the bridge users through the scenario.
        let scenario = cdrib_data::with_overlap_ratio(&tiny_scenario(), 0.2, 3).unwrap();
        let config = CdribConfig::fast_test();
        let mut model = CdribModel::new(&config, &scenario).unwrap();
        let mut reduced = scenario.train_overlap_users.clone();
        assert!(!reduced.is_empty());
        let flags = &model.is_train_overlap;
        assert_eq!(flags.len(), scenario.x.n_users.max(scenario.y.n_users));
        let members: Vec<u32> = (0..flags.len() as u32).filter(|&u| flags[u as usize]).collect();
        reduced.sort_unstable();
        assert_eq!(members, reduced, "the membership table must follow the replaced list");
        let mut rng = component_rng(1, "x");
        let batches = model.make_batches(&scenario, &mut rng).unwrap();
        assert_eq!(batches.len(), config.batches_per_epoch);
        let (xb, yb) = &batches[0];
        let mut tape = Tape::new();
        let (_, breakdown) = model.loss(&mut tape, xb, yb, &mut rng).unwrap();
        assert!(breakdown.total.is_finite());
    }
}
