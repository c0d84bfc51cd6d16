//! Graph-convolutional collaborative filtering (the NGCF / PPGN family).
//!
//! This is a streamlined NGCF (Wang et al., 2019): symmetric-normalised
//! message passing between the user and item sides of the bipartite graph
//! with a per-layer weight matrix and LeakyReLU, and the per-layer outputs
//! concatenated into the final representation (as NGCF and the paper's own
//! setting do). The second-order "element-wise interaction" term of full
//! NGCF is omitted; the simplification is documented in DESIGN.md.
//!
//! PPGN (Zhao et al., 2019) is realised by running the same propagation on
//! the *merged* cross-domain graph, whose shared overlapping users are
//! exactly PPGN's shared user embedding layer (see `registry.rs`).

use crate::common::BaselineOpts;
use crate::mf::MfModel;
use cdrib_data::{DataError, EdgeBatcher, EpochBatches, Result};
use cdrib_graph::BipartiteGraph;
use cdrib_tensor::rng::component_rng;
use cdrib_tensor::{Activation, Adam, Linear, Optimizer, ParamSet, SparseOperand, Tape, Tensor, Var};

/// Trains the GCN recommender and returns the concatenated multi-layer
/// embeddings.
pub(crate) fn train_gcn(graph: &BipartiteGraph, opts: &BaselineOpts, layers: usize) -> Result<MfModel> {
    if graph.n_edges() == 0 {
        return Err(DataError::EmptyDataset { stage: "gcn training" });
    }
    let mut rng = component_rng(opts.seed, "gcn-init");
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
    let mut user_layers = Vec::with_capacity(layers);
    let mut item_layers = Vec::with_capacity(layers);
    for l in 0..layers {
        user_layers.push(
            Linear::new(
                &mut params,
                &mut rng,
                &format!("u{l}"),
                opts.dim,
                opts.dim,
                false,
                Activation::Identity,
            )
            .expect("fresh parameter set"),
        );
        item_layers.push(
            Linear::new(
                &mut params,
                &mut rng,
                &format!("i{l}"),
                opts.dim,
                opts.dim,
                false,
                Activation::Identity,
            )
            .expect("fresh parameter set"),
        );
    }
    // `D_i^{-1/2} A^T D_u^{-1/2}` is the transpose of `sym_a` to the bit
    // (`cdrib-graph`'s `sym_adjacency_transposes_bitwise`), so one pair
    // serves both directions.
    let sym_a = SparseOperand::new(graph.sym_adjacency());
    let sym_a_t = sym_a.transposed();

    // One propagation pass producing concatenated user / item representations.
    let propagate = |tape: &mut Tape, params: &ParamSet| -> cdrib_tensor::Result<(Var, Var)> {
        let mut u = tape.param(params, user_emb);
        let mut i = tape.param(params, item_emb);
        let mut u_cat = u;
        let mut i_cat = i;
        for l in 0..layers {
            let u_msg = tape.spmm(&sym_a, i)?; // users <- items
            let u_msg = user_layers[l].forward(tape, params, u_msg)?;
            let u_next = tape.leaky_relu(u_msg, 0.1)?;
            let i_msg = tape.spmm(&sym_a_t, u)?; // items <- users
            let i_msg = item_layers[l].forward(tape, params, i_msg)?;
            let i_next = tape.leaky_relu(i_msg, 0.1)?;
            u_cat = tape.concat_cols(u_cat, u_next)?;
            i_cat = tape.concat_cols(i_cat, i_next)?;
            u = u_next;
            i = i_next;
        }
        Ok((u_cat, i_cat))
    };

    let mut opt = Adam::new(opts.learning_rate.min(0.02), 0.9, 0.999, 1e-8, opts.l2);
    let mut rng_train = component_rng(opts.seed, "gcn-train");
    let batch_size = graph.n_edges().div_ceil(2).max(1);
    let batcher = EdgeBatcher::new(batch_size, opts.neg_ratio)?;
    let mut tape = Tape::new();
    let mut epoch_batches = EpochBatches::new();
    for _epoch in 0..opts.epochs {
        batcher.epoch_into(graph, &mut rng_train, &mut epoch_batches)?;
        for batch in &epoch_batches {
            params.zero_grad();
            tape.reset();
            let (u_cat, i_cat) = propagate(&mut tape, &params)?;
            let mut users: Vec<usize> = batch.users.iter().map(|&u| u as usize).collect();
            users.extend(batch.neg_users.iter().map(|&u| u as usize));
            let mut items: Vec<usize> = batch.pos_items.iter().map(|&i| i as usize).collect();
            items.extend(batch.neg_items.iter().map(|&i| i as usize));
            let mut labels = vec![1.0f32; batch.users.len()];
            labels.extend(vec![0.0f32; batch.neg_users.len()]);
            let zu = tape.gather_rows(u_cat, &users)?;
            let zi = tape.gather_rows(i_cat, &items)?;
            let logits = tape.rowwise_dot(zu, zi)?;
            let loss = tape.bce_with_logits(logits, Tensor::from_vec(labels.len(), 1, labels)?)?;
            tape.backward(loss, &mut params)?;
            opt.step(&mut params)?;
        }
    }

    // Export the final concatenated embeddings.
    tape.reset();
    let (u_cat, i_cat) = propagate(&mut tape, &params)?;
    Ok(MfModel {
        users: tape.value(u_cat)?.clone(),
        items: tape.value(i_cat)?.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_graph() -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..6usize {
            for i in 0..6usize {
                if (u < 3) == (i < 3) && (u + i) % 3 != 2 {
                    edges.push((u, i));
                }
            }
        }
        BipartiteGraph::new(6, 6, &edges).unwrap()
    }

    #[test]
    fn gcn_learns_block_structure() {
        let g = block_graph();
        let opts = BaselineOpts {
            dim: 8,
            epochs: 80,
            learning_rate: 0.02,
            ..BaselineOpts::default()
        };
        let model = train_gcn(&g, &opts, 2).unwrap();
        // concatenated output: dim * (layers + 1)
        assert_eq!(model.users.cols(), 8 * 3);
        let score = |u: usize, v: usize| -> f32 {
            model
                .users
                .row(u)
                .iter()
                .zip(model.items.row(v).iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let mut correct = 0;
        let mut total = 0;
        for u in 0..6 {
            for i in 0..6 {
                for j in 0..6 {
                    if g.has_edge(u, i) && !g.has_edge(u, j) {
                        total += 1;
                        if score(u, i) > score(u, j) {
                            correct += 1;
                        }
                    }
                }
            }
        }
        let auc = correct as f32 / total as f32;
        assert!(auc > 0.8, "GCN pairwise accuracy too low: {auc}");
    }

    #[test]
    fn gcn_rejects_empty_graph_and_is_deterministic() {
        let empty = BipartiteGraph::new(2, 2, &[]).unwrap();
        assert!(train_gcn(&empty, &BaselineOpts::fast_test(), 1).is_err());
        let g = block_graph();
        let opts = BaselineOpts {
            dim: 4,
            epochs: 2,
            ..BaselineOpts::default()
        };
        let a = train_gcn(&g, &opts, 1).unwrap();
        let b = train_gcn(&g, &opts, 1).unwrap();
        assert_eq!(a.users, b.users);
    }
}
