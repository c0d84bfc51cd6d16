//! The frozen, tape-free half of the train/serve split.
//!
//! Training needs the autodiff [`Tape`](cdrib_tensor::Tape); answering the
//! paper's actual query — "recommend K items to this cold-start user" — does
//! not. An [`InferenceModel`] is a [`CdribModel`](crate::model::CdribModel)
//! frozen for serving: the same [`ParamSet`], the same per-domain VBGE
//! encoders and normalised adjacencies, but the forward pass runs the
//! deterministic **mean** path (`VbgeEncoder::forward_mean`) straight
//! through the shared functional kernel layer with pooled scratch — no
//! recording, no gradient slots, zero steady-state allocations
//! (enforced by `tests/alloc_regression.rs`).
//!
//! The produced [`CdribEmbeddings`] are bitwise identical to
//! [`CdribModel::infer_embeddings`] — both paths execute the same kernels in
//! the same order — so a score served from a frozen artifact is exactly the
//! score the trainer validated.

use crate::artifact;
use crate::error::{CoreError, Result};
use crate::model::{CdribEmbeddings, CdribModel};
use crate::vbge::{DirtyScratch, MeanCache, VbgeEncoder};
use cdrib_data::{CdrScenario, DomainId};
use cdrib_graph::{BipartiteGraph, DeltaEffect};
use cdrib_tensor::{ArtifactError, CsrMatrix, FuncCtx, ParamId, ParamSet, Tensor};
use std::sync::Arc;

/// Incremental-update state of one domain: per-stage caches and dirty-set
/// scratch for both of the domain's encoders.
struct DomainOnline {
    user_cache: MeanCache,
    item_cache: MeanCache,
    user_scratch: DirtyScratch,
    item_scratch: DirtyScratch,
}

impl DomainOnline {
    fn new() -> Self {
        DomainOnline {
            user_cache: MeanCache::new(),
            item_cache: MeanCache::new(),
            user_scratch: DirtyScratch::new(),
            item_scratch: DirtyScratch::new(),
        }
    }
}

/// The per-domain state an inference forward needs.
struct InferDomain {
    user_emb: ParamId,
    item_emb: ParamId,
    user_encoder: VbgeEncoder,
    item_encoder: VbgeEncoder,
    /// `Norm(A)`, `|U| x |V|`. Shared with the trainer at freeze time
    /// (zero-copy); the online-update path detaches an owned copy lazily
    /// via `Arc::make_mut` on the first in-place rebuild.
    norm_a: Arc<CsrMatrix>,
    /// `Norm(A^T)`, `|V| x |U|`.
    norm_a_t: Arc<CsrMatrix>,
    /// Present once [`InferenceModel::enable_incremental`] ran.
    online: Option<DomainOnline>,
}

/// What one [`InferenceModel::apply_delta`] call recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReencode {
    /// User rows of the domain whose cached mean embedding was recomputed.
    pub users_reencoded: usize,
    /// Item rows of the domain whose cached mean embedding was recomputed.
    pub items_reencoded: usize,
}

/// A frozen CDRIB model specialised for serving-time encoding.
pub struct InferenceModel {
    params: ParamSet,
    x: InferDomain,
    y: InferDomain,
    /// Pooled scratch shared by all four encoder forwards.
    ctx: FuncCtx,
}

impl InferenceModel {
    /// Freezes a (typically trained) model for inference. The parameter set
    /// is copied, so the training model remains free to keep updating.
    pub fn from_model(model: &CdribModel) -> Self {
        let freeze = |id: DomainId| {
            let dom = model.domain(id);
            InferDomain {
                user_emb: dom.user_emb,
                item_emb: dom.item_emb,
                user_encoder: dom.user_encoder.clone(),
                item_encoder: dom.item_encoder.clone(),
                norm_a: Arc::clone(dom.norm_a.matrix()),
                norm_a_t: Arc::clone(dom.norm_a_t.matrix()),
                online: None,
            }
        };
        InferenceModel {
            params: model.params().clone(),
            x: freeze(DomainId::X),
            y: freeze(DomainId::Y),
            ctx: FuncCtx::new(),
        }
    }

    /// Loads a frozen model from artifact bytes (see
    /// [`save_model_bytes`](crate::save_model_bytes)), returning the scenario
    /// stored alongside it — the id mappings and interaction graphs a serving
    /// process needs.
    pub fn from_artifact_bytes(bytes: &[u8]) -> std::result::Result<(Self, CdrScenario), ArtifactError> {
        let (model, scenario) = artifact::load_model_bytes(bytes)?;
        Ok((InferenceModel::from_model(&model), scenario))
    }

    /// Loads a frozen model from an artifact file.
    pub fn from_artifact_file(
        path: impl AsRef<std::path::Path>,
    ) -> std::result::Result<(Self, CdrScenario), ArtifactError> {
        let (model, scenario) = artifact::load_model_file(path)?;
        Ok((InferenceModel::from_model(&model), scenario))
    }

    /// The frozen parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Pool diagnostics of the shared scratch context.
    pub fn pool_stats(&self) -> cdrib_tensor::PoolStats {
        self.ctx.pool_stats()
    }

    /// Encodes one domain's user and item latent means into pooled tensors.
    /// Callers should [`FuncCtx::recycle`] the results via
    /// [`InferenceModel::recycle`] once consumed.
    pub(crate) fn encode_domain_mean(&mut self, id: DomainId) -> Result<(Tensor, Tensor)> {
        // Destructure for disjoint borrows: the encoders and parameters stay
        // read-only while the scratch context hands out buffers.
        let InferenceModel { params, x, y, ctx } = self;
        let dom = match id {
            DomainId::X => x,
            DomainId::Y => y,
        };
        let users =
            dom.user_encoder
                .forward_mean(ctx, params, params.value(dom.user_emb), &dom.norm_a_t, &dom.norm_a)?;
        let items =
            dom.item_encoder
                .forward_mean(ctx, params, params.value(dom.item_emb), &dom.norm_a, &dom.norm_a_t)?;
        Ok((users, items))
    }

    /// Returns a tensor's storage to the model's scratch pool.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.ctx.recycle(tensor);
    }

    /// Computes all four deterministic embedding tables (fresh storage).
    pub fn embeddings(&mut self) -> Result<CdribEmbeddings> {
        let (x_users, x_items) = self.encode_domain_mean(DomainId::X)?;
        let (y_users, y_items) = self.encode_domain_mean(DomainId::Y)?;
        Ok(CdribEmbeddings {
            x_users,
            x_items,
            y_users,
            y_items,
        })
    }

    /// Enables incremental re-encoding: runs one full forward per encoder
    /// and materialises every stage into per-domain [`MeanCache`]s, the
    /// state [`InferenceModel::apply_delta`] patches. Also prewarms the
    /// scratch pool's full-table size classes so later cache refreshes are
    /// pool-served. Idempotent (re-running refreshes the caches).
    pub fn enable_incremental(&mut self) -> Result<()> {
        let InferenceModel { params, x, y, ctx } = self;
        for dom in [&mut *x, &mut *y] {
            let mut online = dom.online.take().unwrap_or_else(DomainOnline::new);
            let dim = dom.user_encoder.dim();
            ctx.prewarm(dom.norm_a.rows(), dim, 2);
            ctx.prewarm(dom.norm_a.cols(), dim, 2);
            dom.user_encoder.forward_mean_cached(
                ctx,
                params,
                params.value(dom.user_emb),
                &dom.norm_a_t,
                &dom.norm_a,
                &mut online.user_cache,
            )?;
            dom.item_encoder.forward_mean_cached(
                ctx,
                params,
                params.value(dom.item_emb),
                &dom.norm_a,
                &dom.norm_a_t,
                &mut online.item_cache,
            )?;
            dom.online = Some(online);
        }
        Ok(())
    }

    /// Grows a domain's user/item embedding tables to the given entity
    /// counts. New rows are **zero** — a cold entity has no trained
    /// preference vector; its representation comes entirely from
    /// neighbourhood aggregation plus the heads' biases, which is exactly
    /// the paper's cold-start framing. Counts may only grow. The same
    /// deterministic extension runs inside [`InferenceModel::apply_delta`],
    /// so an incrementally updated model and a from-scratch rebuild extend
    /// identically (the differential harness relies on this).
    pub fn extend_entities(&mut self, id: DomainId, n_users: usize, n_items: usize) -> Result<()> {
        let InferenceModel { params, x, y, .. } = self;
        let dom = match id {
            DomainId::X => x,
            DomainId::Y => y,
        };
        let (cur_users, cur_items) = (params.value(dom.user_emb).rows(), params.value(dom.item_emb).rows());
        if n_users < cur_users || n_items < cur_items {
            return Err(CoreError::InvalidDelta {
                detail: format!(
                    "entity counts cannot shrink: {cur_users}x{cur_items} -> {n_users}x{n_items} in {id:?}"
                ),
            });
        }
        params.value_mut(dom.user_emb).resize_rows(n_users);
        params.grad_mut(dom.user_emb).resize_rows(n_users);
        params.value_mut(dom.item_emb).resize_rows(n_items);
        params.grad_mut(dom.item_emb).resize_rows(n_items);
        Ok(())
    }

    /// Zeroes the raw embedding rows of erased users in one domain — the
    /// GDPR guarantee: after erasure no trace of the user's trained
    /// preference vector survives, only the tombstoned index, whose encoded
    /// representation collapses to the same neighbourhood-free cold-start
    /// encoding a brand-new user gets. [`InferenceModel::apply_delta`] runs
    /// this internally for live updates; from-scratch rebuild references
    /// call it between [`InferenceModel::extend_entities`] and
    /// [`InferenceModel::rebind_graph`], so both paths zero identically and
    /// stay bitwise comparable (the differential harness relies on this).
    pub fn erase_user_rows(&mut self, id: DomainId, users: &[u32]) -> Result<()> {
        let InferenceModel { params, x, y, .. } = self;
        let dom = match id {
            DomainId::X => x,
            DomainId::Y => y,
        };
        let table = params.value_mut(dom.user_emb);
        for &u in users {
            if u as usize >= table.rows() {
                return Err(CoreError::InvalidDelta {
                    detail: format!("erased user {u} out of range ({} rows)", table.rows()),
                });
            }
            table.row_mut(u as usize).fill(0.0);
        }
        Ok(())
    }

    /// Rebuilds one domain's normalised adjacencies **from scratch** from
    /// `graph` (whose entity counts must match the embedding tables — run
    /// [`InferenceModel::extend_entities`] first when they grew) and, when
    /// incremental mode is on, refreshes the domain's stage caches with a
    /// full forward. This is the re-freeze path the incremental
    /// [`InferenceModel::apply_delta`] is differentially tested against.
    pub fn rebind_graph(&mut self, id: DomainId, graph: &BipartiteGraph) -> Result<()> {
        let InferenceModel { params, x, y, ctx } = self;
        let dom = match id {
            DomainId::X => x,
            DomainId::Y => y,
        };
        let (users, items) = (params.value(dom.user_emb).rows(), params.value(dom.item_emb).rows());
        if graph.n_users() != users || graph.n_items() != items {
            return Err(CoreError::InvalidDelta {
                detail: format!(
                    "graph is {}x{} but the embedding tables are {users}x{items}; extend_entities first",
                    graph.n_users(),
                    graph.n_items()
                ),
            });
        }
        dom.norm_a = Arc::new(graph.adjacency().row_normalized());
        dom.norm_a_t = Arc::new(graph.adjacency().transpose().row_normalized());
        if let Some(online) = dom.online.as_mut() {
            dom.user_encoder.forward_mean_cached(
                ctx,
                params,
                params.value(dom.user_emb),
                &dom.norm_a_t,
                &dom.norm_a,
                &mut online.user_cache,
            )?;
            dom.item_encoder.forward_mean_cached(
                ctx,
                params,
                params.value(dom.item_emb),
                &dom.norm_a,
                &dom.norm_a_t,
                &mut online.item_cache,
            )?;
        }
        Ok(())
    }

    /// Applies one *or many* graph deltas to one domain **incrementally**:
    /// extends the embedding tables for new entities, zeroes the raw rows of
    /// erased users (see [`InferenceModel::erase_user_rows`]), rebuilds the
    /// domain's normalised adjacencies in place from the post-delta `graph`,
    /// propagates dirtiness through the cached encoder stages and re-encodes
    /// **only** the dirty rows (`VbgeEncoder::reencode_mean_rows`).
    /// Dirty-set propagation is direction-agnostic: a *shrinking*
    /// neighbourhood (edge removal, erasure, delisting) dirties exactly the
    /// rows whose adjacency changed, captured pre-removal in the receipt, so
    /// retraction re-encodes match a full rebuild bitwise just like growth.
    ///
    /// `graph` must be the domain's interaction graph *after* the deltas and
    /// `effect` their receipt: what `BipartiteGraph::apply_delta_into`
    /// produced for a single delta, or what a `cdrib_graph::DeltaGroup`
    /// accumulated for every delta applied since this method last ran on the
    /// domain (counters summed, lists unioned). The encoder is a function of
    /// the final graph, so however many deltas the receipt covers the
    /// patched caches are bitwise identical to a full
    /// [`InferenceModel::rebind_graph`] rebuild (pinned by
    /// `tests/delta_parity.rs` per delta and by `tests/wal_recovery.rs` per
    /// replayed log); steady-state batches (no entity/edge growth) touch the
    /// allocator zero times (`tests/alloc_regression.rs`).
    pub fn apply_delta(&mut self, id: DomainId, graph: &BipartiteGraph, effect: &DeltaEffect) -> Result<DeltaReencode> {
        let InferenceModel { params, x, y, ctx } = self;
        let dom = match id {
            DomainId::X => x,
            DomainId::Y => y,
        };
        let online = dom.online.as_mut().ok_or_else(|| CoreError::InvalidDelta {
            detail: "incremental updates not enabled; call enable_incremental first".into(),
        })?;
        let old_users = params.value(dom.user_emb).rows();
        let old_items = params.value(dom.item_emb).rows();
        if graph.n_users() != old_users + effect.users_added || graph.n_items() != old_items + effect.items_added {
            return Err(CoreError::InvalidDelta {
                detail: format!(
                    "post-delta graph is {}x{} but tables were {old_users}x{old_items} with {}+{} additions",
                    graph.n_users(),
                    graph.n_items(),
                    effect.users_added,
                    effect.items_added
                ),
            });
        }
        params.value_mut(dom.user_emb).resize_rows(graph.n_users());
        params.grad_mut(dom.user_emb).resize_rows(graph.n_users());
        params.value_mut(dom.item_emb).resize_rows(graph.n_items());
        params.grad_mut(dom.item_emb).resize_rows(graph.n_items());
        // Erased users lose their raw rows before any re-encode reads them:
        // the user is in `touched_users`, so every cached stage that
        // concatenates the raw table sees the zeroed row this same call.
        // (In-range per `check_bounds`, which the graph apply already ran.)
        for &u in &effect.erased_users {
            params.value_mut(dom.user_emb).row_mut(u as usize).fill(0.0);
        }
        if effect.structural_change() {
            // Duplicate-only batches leave the graph — and both normalised
            // views — bit-for-bit unchanged, so the rebuild is skipped.
            // `make_mut` detaches from the trainer's Arc on the first
            // rebuild (one copy); afterwards the rebuild is in place.
            graph.norm_adjacency_into(Arc::make_mut(&mut dom.norm_a));
            graph.norm_adjacency_transpose_into(Arc::make_mut(&mut dom.norm_a_t));
        }
        dom.user_encoder.reencode_mean_rows(
            ctx,
            params,
            params.value(dom.user_emb),
            &dom.norm_a_t,
            &dom.norm_a,
            &effect.touched_users,
            &effect.touched_items,
            old_users,
            old_items,
            &mut online.user_cache,
            &mut online.user_scratch,
        )?;
        dom.item_encoder.reencode_mean_rows(
            ctx,
            params,
            params.value(dom.item_emb),
            &dom.norm_a,
            &dom.norm_a_t,
            &effect.touched_items,
            &effect.touched_users,
            old_items,
            old_users,
            &mut online.item_cache,
            &mut online.item_scratch,
        )?;
        Ok(DeltaReencode {
            users_reencoded: online.user_scratch.dirty_mu().len(),
            items_reencoded: online.item_scratch.dirty_mu().len(),
        })
    }

    fn online(&self, id: DomainId) -> Result<&DomainOnline> {
        let dom = match id {
            DomainId::X => &self.x,
            DomainId::Y => &self.y,
        };
        dom.online.as_ref().ok_or_else(|| CoreError::InvalidDelta {
            detail: "incremental updates not enabled; call enable_incremental first".into(),
        })
    }

    /// The incrementally maintained user mean table of a domain.
    pub fn cached_user_table(&self, id: DomainId) -> Result<&Tensor> {
        Ok(self.online(id)?.user_cache.mu())
    }

    /// The incrementally maintained item mean table of a domain.
    pub fn cached_item_table(&self, id: DomainId) -> Result<&Tensor> {
        Ok(self.online(id)?.item_cache.mu())
    }

    /// User rows the last [`InferenceModel::apply_delta`] on this domain
    /// re-encoded (sorted ascending).
    pub fn last_dirty_users(&self, id: DomainId) -> Result<&[u32]> {
        Ok(self.online(id)?.user_scratch.dirty_mu())
    }

    /// Item rows the last [`InferenceModel::apply_delta`] on this domain
    /// re-encoded (sorted ascending).
    pub fn last_dirty_items(&self, id: DomainId) -> Result<&[u32]> {
        Ok(self.online(id)?.item_scratch.dirty_mu())
    }

    /// Current `(users, items)` entity counts of a domain's tables.
    pub fn entity_counts(&self, id: DomainId) -> (usize, usize) {
        let dom = match id {
            DomainId::X => &self.x,
            DomainId::Y => &self.y,
        };
        (
            self.params.value(dom.user_emb).rows(),
            self.params.value(dom.item_emb).rows(),
        )
    }

    /// Recomputes the embedding tables into existing storage. After the
    /// first call (which sizes `out`), refreshes touch the allocator zero
    /// times — the serving-side analogue of the trainer's pooled steps.
    pub fn encode_into(&mut self, out: &mut CdribEmbeddings) -> Result<()> {
        let (x_users, x_items) = self.encode_domain_mean(DomainId::X)?;
        let (y_users, y_items) = self.encode_domain_mean(DomainId::Y)?;
        for (field, fresh) in [
            (&mut out.x_users, x_users),
            (&mut out.x_items, x_items),
            (&mut out.y_users, y_users),
            (&mut out.y_items, y_items),
        ] {
            if field.shape() == fresh.shape() {
                field.copy_from(&fresh);
                self.ctx.recycle(fresh);
            } else {
                *field = fresh;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CdribConfig;
    use cdrib_data::{build_preset, Scale, ScenarioKind};

    fn tiny_model() -> (CdribModel, CdrScenario) {
        let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 21).unwrap();
        let config = CdribConfig {
            layers: 2,
            ..CdribConfig::fast_test()
        };
        let model = CdribModel::new(&config, &scenario).unwrap();
        (model, scenario)
    }

    #[test]
    fn inference_matches_tape_bitwise() {
        let (model, _scenario) = tiny_model();
        let tape_emb = model.infer_embeddings().unwrap();
        let mut inference = InferenceModel::from_model(&model);
        let frozen = inference.embeddings().unwrap();
        assert_eq!(tape_emb.x_users, frozen.x_users);
        assert_eq!(tape_emb.x_items, frozen.x_items);
        assert_eq!(tape_emb.y_users, frozen.y_users);
        assert_eq!(tape_emb.y_items, frozen.y_items);
    }

    #[test]
    fn incremental_caches_match_full_forward_and_deltas_match_rebind() {
        use cdrib_graph::GraphDelta;

        let (model, scenario) = tiny_model();
        let mut inference = InferenceModel::from_model(&model);
        assert!(inference.cached_user_table(DomainId::X).is_err());
        inference.enable_incremental().unwrap();
        let full = inference.embeddings().unwrap();
        assert_eq!(inference.cached_user_table(DomainId::X).unwrap(), &full.x_users);
        assert_eq!(inference.cached_item_table(DomainId::Y).unwrap(), &full.y_items);

        // Apply a delta to domain X: one new user with two edges, one new
        // item, plus an extra edge between existing entities.
        let mut graph = scenario.x.train.clone();
        let (n_users, n_items) = (graph.n_users() as u32, graph.n_items() as u32);
        let delta = GraphDelta {
            add_users: 1,
            add_items: 1,
            edges: vec![(n_users, 0), (n_users, n_items), (0, 1)],
            ..GraphDelta::empty()
        };
        let effect = graph.apply_delta(&delta).unwrap();
        let report = inference.apply_delta(DomainId::X, &graph, &effect).unwrap();
        assert!(report.users_reencoded >= 1);
        assert!(report.items_reencoded >= 1);
        assert!(inference.last_dirty_users(DomainId::X).unwrap().contains(&n_users));
        assert_eq!(inference.entity_counts(DomainId::X), (graph.n_users(), graph.n_items()));

        // Reference: a fresh freeze of the same trained model, extended and
        // rebound to the post-delta graph from scratch.
        let mut reference = InferenceModel::from_model(&model);
        reference
            .extend_entities(DomainId::X, graph.n_users(), graph.n_items())
            .unwrap();
        reference.rebind_graph(DomainId::X, &graph).unwrap();
        let want = reference.embeddings().unwrap();
        assert_eq!(inference.cached_user_table(DomainId::X).unwrap(), &want.x_users);
        assert_eq!(inference.cached_item_table(DomainId::X).unwrap(), &want.x_items);
        // Domain Y is untouched.
        assert_eq!(inference.cached_user_table(DomainId::Y).unwrap(), &full.y_users);

        // The full-forward path sees the same post-delta state.
        let fresh = inference.embeddings().unwrap();
        assert_eq!(&fresh.x_users, inference.cached_user_table(DomainId::X).unwrap());
    }

    #[test]
    fn retraction_deltas_match_rebind_bitwise() {
        use cdrib_graph::GraphDelta;

        let (model, scenario) = tiny_model();
        let mut inference = InferenceModel::from_model(&model);
        inference.enable_incremental().unwrap();

        // Remove an edge, erase a user, delist an item — all in one batch.
        let mut graph = scenario.x.train.clone();
        let erase_target = 1u32;
        let delist_target = 2u32;
        // Pick an existing edge not owned by the erased user.
        let (ru, ri) = graph
            .edges()
            .find(|&(u, i)| u != erase_target && i != delist_target)
            .unwrap();
        let delta = GraphDelta {
            remove_edges: vec![(ru, ri)],
            erase_users: vec![erase_target],
            delist_items: vec![delist_target],
            ..GraphDelta::empty()
        };
        let effect = graph.apply_delta(&delta).unwrap();
        assert!(effect.edges_removed > 0);
        inference.apply_delta(DomainId::X, &graph, &effect).unwrap();

        // Reference: fresh freeze, erase the same rows, rebind from scratch.
        let mut reference = InferenceModel::from_model(&model);
        reference
            .extend_entities(DomainId::X, graph.n_users(), graph.n_items())
            .unwrap();
        reference.erase_user_rows(DomainId::X, &effect.erased_users).unwrap();
        reference.rebind_graph(DomainId::X, &graph).unwrap();
        let want = reference.embeddings().unwrap();
        assert_eq!(inference.cached_user_table(DomainId::X).unwrap(), &want.x_users);
        assert_eq!(inference.cached_item_table(DomainId::X).unwrap(), &want.x_items);

        // The erased user's raw row is gone for good.
        let dom_user_emb = inference.params().value(inference.x.user_emb);
        assert!(dom_user_emb.row(erase_target as usize).iter().all(|&v| v == 0.0));

        // Erasing again is a no-edge change but still applies cleanly and
        // stays bitwise equal to the rebuild.
        let effect2 = graph.apply_delta(&delta).unwrap();
        assert_eq!(effect2.edges_removed, 0);
        inference.apply_delta(DomainId::X, &graph, &effect2).unwrap();
        assert_eq!(inference.cached_user_table(DomainId::X).unwrap(), &want.x_users);

        // Out-of-range erasure targets are rejected.
        assert!(inference
            .erase_user_rows(DomainId::X, &[graph.n_users() as u32])
            .is_err());
    }

    #[test]
    fn apply_delta_validates_state_and_counts() {
        use cdrib_graph::GraphDelta;

        let (model, scenario) = tiny_model();
        let mut inference = InferenceModel::from_model(&model);
        let mut graph = scenario.x.train.clone();
        let effect = graph.apply_delta(&GraphDelta::empty()).unwrap();
        // Not enabled yet.
        assert!(matches!(
            inference.apply_delta(DomainId::X, &graph, &effect),
            Err(crate::error::CoreError::InvalidDelta { .. })
        ));
        inference.enable_incremental().unwrap();
        // Effect/graph count mismatch: pretend a user was added without one.
        let bad = cdrib_graph::DeltaEffect {
            users_added: 3,
            ..cdrib_graph::DeltaEffect::new()
        };
        assert!(inference.apply_delta(DomainId::X, &graph, &bad).is_err());
        // Shrinking via extend_entities is rejected.
        assert!(inference.extend_entities(DomainId::X, 1, 1).is_err());
        // A no-op delta applies cleanly and re-encodes nothing.
        let report = inference.apply_delta(DomainId::X, &graph, &effect).unwrap();
        assert_eq!(report, DeltaReencode::default());
    }

    #[test]
    fn encode_into_is_pool_served_when_warm() {
        let (model, _scenario) = tiny_model();
        let mut inference = InferenceModel::from_model(&model);
        let mut out = inference.embeddings().unwrap();
        let reference = out.clone();
        // Warm-up pass sizes every buffer.
        inference.encode_into(&mut out).unwrap();
        let misses = inference.pool_stats().misses;
        for _ in 0..3 {
            inference.encode_into(&mut out).unwrap();
        }
        assert_eq!(
            inference.pool_stats().misses,
            misses,
            "warm encode_into must be served entirely from the pool"
        );
        assert_eq!(out.x_users, reference.x_users);
        assert_eq!(out.y_items, reference.y_items);
    }
}
