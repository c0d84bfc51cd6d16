//! Shared-parameter cross-domain baselines: CoNet and STAR.
//!
//! Both methods transfer knowledge through parameters that are *shared*
//! between the domains rather than through an explicit mapping function.
//! They are implemented here in simplified bilinear form (documented in
//! DESIGN.md):
//!
//! * **CoNet** (Hu et al., 2018) — a shared user embedding table feeding two
//!   domain towers with cross connections. Here each tower is a bilinear
//!   transform `score_d(u, v) = <U[u] (W_s + W_d), V_d[v]>` where `W_s` is
//!   the shared cross-connection matrix and `W_d` the domain tower.
//! * **STAR** (Sheng et al., 2021) — a shared "centre" user representation
//!   plus domain-specific deviations: `score_d(u, v) = <U_s[u] + U_d[u], V_d[v]>`.
//!   For a cold-start user the domain-specific deviation in the target
//!   domain is (almost) untrained, so the shared centre carries the
//!   prediction — exactly the behaviour the paper discusses for these
//!   multi-domain baselines.

use crate::common::{BaselineOpts, MergedGraph};
use cdrib_data::{CdrScenario, DataError, DomainId, EdgeBatcher, EpochBatches, Result};
use cdrib_eval::EmbeddingScorer;
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{init, Adam, Optimizer, ParamId, ParamSet, Tape, Tensor};

fn to_data_err<E: std::fmt::Display>(e: E) -> DataError {
    DataError::InvalidConfig {
        field: "neural baseline",
        detail: e.to_string(),
    }
}

/// Domain batch data prepared for the shared trainers.
struct DomainBatchCtx {
    merged: MergedGraph,
}

impl DomainBatchCtx {
    fn new(scenario: &CdrScenario) -> Result<Self> {
        Ok(DomainBatchCtx {
            merged: MergedGraph::new(scenario)?,
        })
    }

    /// Maps a domain-local user to the shared (merged) user index.
    fn shared_user(&self, domain: DomainId, user: usize) -> usize {
        self.merged.map_user(domain, user)
    }

    fn n_shared_users(&self) -> usize {
        self.merged.n_users
    }
}

/// Trains the simplified CoNet and returns a cold-start scorer.
pub(crate) fn train_conet(scenario: &CdrScenario, opts: &BaselineOpts) -> Result<EmbeddingScorer> {
    let ctx = DomainBatchCtx::new(scenario)?;
    let mut rng = component_rng(opts.seed, "conet-init");
    let mut params = ParamSet::new();
    let shared_users = params
        .add(
            "shared_users",
            init::embedding_normal(&mut rng, ctx.n_shared_users(), opts.dim, 0.1),
        )
        .expect("fresh set");
    let x_items = params
        .add(
            "x_items",
            init::embedding_normal(&mut rng, scenario.x.n_items, opts.dim, 0.1),
        )
        .expect("fresh set");
    let y_items = params
        .add(
            "y_items",
            init::embedding_normal(&mut rng, scenario.y.n_items, opts.dim, 0.1),
        )
        .expect("fresh set");
    let w_shared = params
        .add("w_shared", init::xavier_uniform(&mut rng, opts.dim, opts.dim))
        .expect("fresh set");
    let w_x = params
        .add("w_x", init::xavier_uniform(&mut rng, opts.dim, opts.dim))
        .expect("fresh set");
    let w_y = params
        .add("w_y", init::xavier_uniform(&mut rng, opts.dim, opts.dim))
        .expect("fresh set");

    let mut opt = Adam::new(opts.learning_rate.min(0.02), 0.9, 0.999, 1e-8, opts.l2);
    let mut rng_train = component_rng(opts.seed, "conet-train");

    let mut tape = Tape::new();
    // One reusable epoch storage per domain so batch buffers are recycled
    // across epochs instead of reallocated.
    let mut epoch_batches = [EpochBatches::new(), EpochBatches::new()];
    for _epoch in 0..opts.epochs {
        for (domain, items_id, w_id) in [(DomainId::X, x_items, w_x), (DomainId::Y, y_items, w_y)] {
            let graph = &scenario.domain(domain).train;
            let batcher = EdgeBatcher::new(graph.n_edges().max(1), opts.neg_ratio)?;
            let storage = &mut epoch_batches[(domain == DomainId::Y) as usize];
            batcher.epoch_into(graph, &mut rng_train, storage)?;
            for batch in storage.batches() {
                params.zero_grad();
                tape.reset();
                let u_table = tape.param(&params, shared_users);
                let i_table = tape.param(&params, items_id);
                let ws = tape.param(&params, w_shared);
                let wd = tape.param(&params, w_id);
                let w = tape.add(ws, wd).map_err(to_data_err)?;
                let transformed = tape.matmul(u_table, w).map_err(to_data_err)?;
                let mut users: Vec<usize> = batch
                    .users
                    .iter()
                    .map(|&u| ctx.shared_user(domain, u as usize))
                    .collect();
                users.extend(batch.neg_users.iter().map(|&u| ctx.shared_user(domain, u as usize)));
                let mut items: Vec<usize> = batch.pos_items.iter().map(|&i| i as usize).collect();
                items.extend(batch.neg_items.iter().map(|&i| i as usize));
                let mut labels = vec![1.0f32; batch.users.len()];
                labels.extend(vec![0.0f32; batch.neg_users.len()]);
                let zu = tape.gather_rows(transformed, &users).map_err(to_data_err)?;
                let zi = tape.gather_rows(i_table, &items).map_err(to_data_err)?;
                let logits = tape.rowwise_dot(zu, zi).map_err(to_data_err)?;
                let labels = Tensor::from_vec(labels.len(), 1, labels).map_err(to_data_err)?;
                let loss = tape.bce_with_logits(logits, labels).map_err(to_data_err)?;
                tape.backward(loss, &mut params).map_err(to_data_err)?;
                opt.step(&mut params).map_err(to_data_err)?;
            }
        }
    }

    // Export per-direction user tables: for X -> Y scoring the user is pushed
    // through the Y tower, and vice versa.
    let transform = |params: &ParamSet, w_id: ParamId| -> Result<Tensor> {
        let u = params.value(shared_users);
        let w = params.value(w_shared).add(params.value(w_id)).map_err(to_data_err)?;
        u.matmul(&w).map_err(to_data_err)
    };
    let through_y = transform(&params, w_y)?;
    let through_x = transform(&params, w_x)?;
    let gather_domain_users = |table: &Tensor, domain: DomainId, n: usize| -> Result<Tensor> {
        let idx: Vec<usize> = (0..n).map(|u| ctx.shared_user(domain, u)).collect();
        table.gather_rows(&idx).map_err(to_data_err)
    };
    Ok(EmbeddingScorer::dot(
        gather_domain_users(&through_y, DomainId::X, scenario.x.n_users)?,
        params.value(x_items).clone(),
        gather_domain_users(&through_x, DomainId::Y, scenario.y.n_users)?,
        params.value(y_items).clone(),
    ))
}

/// Trains the simplified STAR topology and returns a cold-start scorer.
pub(crate) fn train_star(scenario: &CdrScenario, opts: &BaselineOpts) -> Result<EmbeddingScorer> {
    let ctx = DomainBatchCtx::new(scenario)?;
    let mut rng = component_rng(opts.seed, "star-init");
    let mut params = ParamSet::new();
    let shared_users = params
        .add(
            "shared_users",
            init::embedding_normal(&mut rng, ctx.n_shared_users(), opts.dim, 0.1),
        )
        .expect("fresh set");
    let x_users = params
        .add(
            "x_users",
            init::embedding_normal(&mut rng, scenario.x.n_users, opts.dim, 0.05),
        )
        .expect("fresh set");
    let y_users = params
        .add(
            "y_users",
            init::embedding_normal(&mut rng, scenario.y.n_users, opts.dim, 0.05),
        )
        .expect("fresh set");
    let x_items = params
        .add(
            "x_items",
            init::embedding_normal(&mut rng, scenario.x.n_items, opts.dim, 0.1),
        )
        .expect("fresh set");
    let y_items = params
        .add(
            "y_items",
            init::embedding_normal(&mut rng, scenario.y.n_items, opts.dim, 0.1),
        )
        .expect("fresh set");

    let mut opt = Adam::new(opts.learning_rate.min(0.02), 0.9, 0.999, 1e-8, opts.l2);
    let mut rng_train = component_rng(opts.seed, "star-train");

    let mut tape = Tape::new();
    let mut epoch_batches = [EpochBatches::new(), EpochBatches::new()];
    for _epoch in 0..opts.epochs {
        for (domain, users_id, items_id) in [(DomainId::X, x_users, x_items), (DomainId::Y, y_users, y_items)] {
            let graph = &scenario.domain(domain).train;
            let batcher = EdgeBatcher::new(graph.n_edges().max(1), opts.neg_ratio)?;
            let storage = &mut epoch_batches[(domain == DomainId::Y) as usize];
            batcher.epoch_into(graph, &mut rng_train, storage)?;
            for batch in storage.batches() {
                params.zero_grad();
                tape.reset();
                let su = tape.param(&params, shared_users);
                let du = tape.param(&params, users_id);
                let iv = tape.param(&params, items_id);
                let mut shared_idx: Vec<usize> = batch
                    .users
                    .iter()
                    .map(|&u| ctx.shared_user(domain, u as usize))
                    .collect();
                shared_idx.extend(batch.neg_users.iter().map(|&u| ctx.shared_user(domain, u as usize)));
                let mut local_idx: Vec<usize> = batch.users.iter().map(|&u| u as usize).collect();
                local_idx.extend(batch.neg_users.iter().map(|&u| u as usize));
                let mut items: Vec<usize> = batch.pos_items.iter().map(|&i| i as usize).collect();
                items.extend(batch.neg_items.iter().map(|&i| i as usize));
                let mut labels = vec![1.0f32; batch.users.len()];
                labels.extend(vec![0.0f32; batch.neg_users.len()]);
                let zs = tape.gather_rows(su, &shared_idx).map_err(to_data_err)?;
                let zd = tape.gather_rows(du, &local_idx).map_err(to_data_err)?;
                let zu = tape.add(zs, zd).map_err(to_data_err)?;
                let zi = tape.gather_rows(iv, &items).map_err(to_data_err)?;
                let logits = tape.rowwise_dot(zu, zi).map_err(to_data_err)?;
                let labels = Tensor::from_vec(labels.len(), 1, labels).map_err(to_data_err)?;
                let loss = tape.bce_with_logits(logits, labels).map_err(to_data_err)?;
                tape.backward(loss, &mut params).map_err(to_data_err)?;
                opt.step(&mut params).map_err(to_data_err)?;
            }
        }
    }

    // For direction X -> Y the prediction uses the shared centre plus the
    // (mostly untrained for cold users) Y deviation, and symmetrically.
    let shared = params.value(shared_users);
    let combine = |domain_users: &Tensor, source: DomainId, n: usize| -> Result<Tensor> {
        let idx: Vec<usize> = (0..n).map(|u| ctx.shared_user(source, u)).collect();
        let centre = shared.gather_rows(&idx).map_err(to_data_err)?;
        centre.add(domain_users).map_err(to_data_err)
    };
    // x_users table is used when the *source* is X (target Y): centre + Y-deviation rows of the same user indices.
    let y_dev = params.value(y_users);
    let x_dev = params.value(x_users);
    let x_source = {
        // Cold users live in the overlap prefix so their Y rows exist; X-only
        // users beyond Y's range fall back to the centre alone.
        let mut dev = Tensor::zeros(scenario.x.n_users, opts.dim);
        for u in 0..scenario.x.n_users.min(scenario.y.n_users) {
            if u < scenario.n_overlap_total {
                dev.row_mut(u).copy_from_slice(y_dev.row(u));
            }
        }
        combine(&dev, DomainId::X, scenario.x.n_users)?
    };
    let y_source = {
        let mut dev = Tensor::zeros(scenario.y.n_users, opts.dim);
        for u in 0..scenario.y.n_users.min(scenario.x.n_users) {
            if u < scenario.n_overlap_total {
                dev.row_mut(u).copy_from_slice(x_dev.row(u));
            }
        }
        combine(&dev, DomainId::Y, scenario.y.n_users)?
    };
    Ok(EmbeddingScorer::dot(
        x_source,
        params.value(x_items).clone(),
        y_source,
        params.value(y_items).clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_data::{build_preset, Scale, ScenarioKind};
    use cdrib_eval::{evaluate_both_directions, EvalConfig, EvalSplit};

    #[test]
    fn conet_and_star_produce_finite_scorers() {
        let s = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 61).unwrap();
        let opts = BaselineOpts {
            dim: 8,
            epochs: 4,
            ..BaselineOpts::default()
        };
        for scorer in [train_conet(&s, &opts).unwrap(), train_star(&s, &opts).unwrap()] {
            assert_eq!(scorer.x_users.shape(), (s.x.n_users, 8));
            assert_eq!(scorer.y_users.shape(), (s.y.n_users, 8));
            assert!(scorer.x_users.all_finite());
            assert!(scorer.y_items.all_finite());
            let cfg = EvalConfig {
                n_negatives: 30,
                seed: 1,
                max_cases: Some(40),
            };
            let (a, b) = evaluate_both_directions(&scorer, &s, EvalSplit::Test, &cfg).unwrap();
            assert!(a.metrics.mrr > 0.0 && b.metrics.mrr > 0.0);
        }
    }
}
