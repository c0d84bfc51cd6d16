//! Single-domain variational graph baseline ("VBGE" row of the tables).
//!
//! The paper's ablation baseline "VBGE" keeps the variational bipartite graph
//! encoder but replaces all cross-domain regularizers with the plain VGAE
//! objective (reconstruction + KL against the standard-normal prior) on a
//! single (merged) domain. This module reuses the encoder from `cdrib-core`
//! and trains exactly that objective.

use crate::common::BaselineOpts;
use crate::mf::MfModel;
use cdrib_core::{encode_mean, ForwardNoise, MeanActivation, VbgeEncoder};
use cdrib_data::{DataError, EdgeBatcher, EpochBatches, Result};
use cdrib_graph::BipartiteGraph;
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{Adam, Optimizer, ParamSet, SparseOperand, Tape, Tensor};

/// Weight of the KL terms relative to the averaged reconstruction loss
/// (same scaling rationale as in `cdrib-core`).
const KL_WEIGHT: f32 = 0.1;

/// Trains a single-domain VGAE with VBGE encoders and returns the mean
/// embeddings.
pub(crate) fn train_vgae(graph: &BipartiteGraph, opts: &BaselineOpts, layers: usize) -> Result<MfModel> {
    if graph.n_edges() == 0 {
        return Err(DataError::EmptyDataset { stage: "vgae training" });
    }
    let mut rng = component_rng(opts.seed, "vgae-init");
    let mut params = ParamSet::new();
    let user_emb = params
        .add(
            "user_emb",
            cdrib_tensor::init::embedding_normal(&mut rng, graph.n_users(), opts.dim, 0.1),
        )
        .expect("fresh parameter set");
    let item_emb = params
        .add(
            "item_emb",
            cdrib_tensor::init::embedding_normal(&mut rng, graph.n_items(), opts.dim, 0.1),
        )
        .expect("fresh parameter set");
    let user_enc = VbgeEncoder::with_mean_activation(
        &mut params,
        &mut rng,
        "user_vbge",
        opts.dim,
        layers,
        0.1,
        MeanActivation::Identity,
    )
    .map_err(|e| DataError::InvalidConfig {
        field: "vgae",
        detail: e.to_string(),
    })?;
    let item_enc = VbgeEncoder::with_mean_activation(
        &mut params,
        &mut rng,
        "item_vbge",
        opts.dim,
        layers,
        0.1,
        MeanActivation::Identity,
    )
    .map_err(|e| DataError::InvalidConfig {
        field: "vgae",
        detail: e.to_string(),
    })?;
    let norm_a = SparseOperand::new(graph.norm_adjacency());
    let norm_a_t = SparseOperand::new(graph.norm_adjacency_transpose());

    let mut opt = Adam::new(opts.learning_rate.min(0.02), 0.9, 0.999, 1e-8, opts.l2);
    let mut rng_train = component_rng(opts.seed, "vgae-train");
    let batch_size = graph.n_edges().div_ceil(2).max(1);
    let batcher = EdgeBatcher::new(batch_size, opts.neg_ratio)?;
    let mut tape = Tape::new();
    let mut epoch_batches = EpochBatches::new();
    for _epoch in 0..opts.epochs {
        batcher.epoch_into(graph, &mut rng_train, &mut epoch_batches)?;
        for batch in &epoch_batches {
            params.zero_grad();
            tape.reset();
            let ue = tape.param(&params, user_emb);
            let ie = tape.param(&params, item_emb);
            let uo = user_enc
                .forward(
                    &mut tape,
                    &params,
                    ue,
                    &norm_a_t,
                    &norm_a,
                    Some(ForwardNoise {
                        dropout: 0.1,
                        rng: &mut rng_train,
                    }),
                )
                .map_err(to_data_err)?;
            let io = item_enc
                .forward(
                    &mut tape,
                    &params,
                    ie,
                    &norm_a,
                    &norm_a_t,
                    Some(ForwardNoise {
                        dropout: 0.1,
                        rng: &mut rng_train,
                    }),
                )
                .map_err(to_data_err)?;
            let mut users: Vec<usize> = batch.users.iter().map(|&u| u as usize).collect();
            users.extend(batch.neg_users.iter().map(|&u| u as usize));
            let mut items: Vec<usize> = batch.pos_items.iter().map(|&i| i as usize).collect();
            items.extend(batch.neg_items.iter().map(|&i| i as usize));
            let mut labels = vec![1.0f32; batch.users.len()];
            labels.extend(vec![0.0f32; batch.neg_users.len()]);
            let zu = tape.gather_rows(uo.z, &users).map_err(to_data_err)?;
            let zi = tape.gather_rows(io.z, &items).map_err(to_data_err)?;
            let logits = tape.rowwise_dot(zu, zi).map_err(to_data_err)?;
            let labels = Tensor::from_vec(labels.len(), 1, labels).map_err(to_data_err)?;
            let rec = tape.bce_with_logits(logits, labels).map_err(to_data_err)?;
            let klu = tape.kl_std_normal(uo.mu, uo.sigma).map_err(to_data_err)?;
            let kli = tape.kl_std_normal(io.mu, io.sigma).map_err(to_data_err)?;
            let kl = tape.add(klu, kli).map_err(to_data_err)?;
            let kl = tape.scale(kl, KL_WEIGHT).map_err(to_data_err)?;
            let loss = tape.add(rec, kl).map_err(to_data_err)?;
            tape.backward(loss, &mut params).map_err(to_data_err)?;
            opt.step(&mut params).map_err(to_data_err)?;
        }
    }

    let users = encode_mean(
        &user_enc,
        &params,
        params.value(user_emb),
        norm_a_t.matrix(),
        norm_a.matrix(),
    )
    .map_err(to_data_err)?;
    let items = encode_mean(
        &item_enc,
        &params,
        params.value(item_emb),
        norm_a.matrix(),
        norm_a_t.matrix(),
    )
    .map_err(to_data_err)?;
    Ok(MfModel { users, items })
}

fn to_data_err<E: std::fmt::Display>(e: E) -> DataError {
    DataError::InvalidConfig {
        field: "vgae",
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgae_learns_and_exports_mean_embeddings() {
        let mut edges = Vec::new();
        for u in 0..6usize {
            for i in 0..6usize {
                if (u < 3) == (i < 3) && (u + i) % 3 != 2 {
                    edges.push((u, i));
                }
            }
        }
        let g = BipartiteGraph::new(6, 6, &edges).unwrap();
        let opts = BaselineOpts {
            dim: 8,
            epochs: 120,
            learning_rate: 0.02,
            ..BaselineOpts::default()
        };
        let model = train_vgae(&g, &opts, 1).unwrap();
        assert_eq!(model.users.shape(), (6, 8));
        assert!(model.users.all_finite());
        let score = |u: usize, v: usize| -> f32 {
            model
                .users
                .row(u)
                .iter()
                .zip(model.items.row(v).iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        // within-block scores should beat cross-block scores on average
        let mut within = 0.0;
        let mut across = 0.0;
        let mut nw = 0;
        let mut na = 0;
        for u in 0..6 {
            for i in 0..6 {
                if (u < 3) == (i < 3) {
                    within += score(u, i);
                    nw += 1;
                } else {
                    across += score(u, i);
                    na += 1;
                }
            }
        }
        assert!(within / nw as f32 > across / na as f32);
    }

    #[test]
    fn vgae_rejects_empty_graph() {
        let empty = BipartiteGraph::new(2, 2, &[]).unwrap();
        assert!(train_vgae(&empty, &BaselineOpts::fast_test(), 1).is_err());
    }
}
