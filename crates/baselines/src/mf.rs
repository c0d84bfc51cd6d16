//! Matrix-factorisation baselines: BPRMF and CML.
//!
//! Both are trained with plain per-interaction stochastic gradient descent
//! (the classic formulation), which is considerably faster than going through
//! the autodiff tape and matches how these baselines are usually implemented.
//!
//! * **BPRMF** (Rendle et al., 2009): pairwise ranking loss
//!   `-ln sigma(x_ui - x_uj)` over (user, positive, sampled negative) triples
//!   with inner-product scores.
//! * **CML** (Hsieh et al., 2017): metric learning with the hinge loss
//!   `[m + d(u,i)^2 - d(u,j)^2]_+` and embeddings projected onto the unit
//!   ball after every update.

use crate::common::BaselineOpts;
use cdrib_data::{DataError, NegativeSampler, Result};
use cdrib_graph::BipartiteGraph;
use cdrib_tensor::rng::{component_rng, shuffle_in_place};
use cdrib_tensor::{sigmoid_scalar, Tensor};

/// Trained user/item embedding tables.
#[derive(Debug, Clone)]
pub struct MfModel {
    /// User embeddings (`n_users x dim`).
    pub users: Tensor,
    /// Item embeddings (`n_items x dim`).
    pub items: Tensor,
}

fn init_model(graph: &BipartiteGraph, opts: &BaselineOpts, label: &str) -> MfModel {
    let mut rng = component_rng(opts.seed, label);
    MfModel {
        users: cdrib_tensor::init::embedding_normal(&mut rng, graph.n_users(), opts.dim, 0.1),
        items: cdrib_tensor::init::embedding_normal(&mut rng, graph.n_items(), opts.dim, 0.1),
    }
}

fn check_graph(graph: &BipartiteGraph) -> Result<()> {
    if graph.n_edges() == 0 || graph.n_users() == 0 || graph.n_items() < 2 {
        return Err(DataError::EmptyDataset { stage: "mf training" });
    }
    Ok(())
}

/// Trains BPRMF on a bipartite interaction graph.
pub(crate) fn train_bprmf(graph: &BipartiteGraph, opts: &BaselineOpts) -> Result<MfModel> {
    check_graph(graph)?;
    let mut model = init_model(graph, opts, "bprmf-init");
    let mut rng = component_rng(opts.seed, "bprmf-train");
    let sampler = NegativeSampler::new(graph);
    let mut edges: Vec<(u32, u32)> = graph.edges().collect();
    let lr = opts.learning_rate;
    let reg = opts.l2;
    let dim = opts.dim;
    for _epoch in 0..opts.epochs {
        shuffle_in_place(&mut rng, &mut edges);
        for &(u, i) in &edges {
            for _ in 0..opts.neg_ratio {
                let j = sampler.sample_one(graph, u as usize, &mut rng)? as usize;
                let (u, i) = (u as usize, i as usize);
                // x_uij = <p_u, q_i - q_j>
                let mut x = 0.0f32;
                for d in 0..dim {
                    x += model.users.get(u, d) * (model.items.get(i, d) - model.items.get(j, d));
                }
                let g = sigmoid_scalar(-x); // d(-ln sigma(x))/dx = -sigma(-x)
                for d in 0..dim {
                    let pu = model.users.get(u, d);
                    let qi = model.items.get(i, d);
                    let qj = model.items.get(j, d);
                    model.users.set(u, d, pu + lr * (g * (qi - qj) - reg * pu));
                    model.items.set(i, d, qi + lr * (g * pu - reg * qi));
                    model.items.set(j, d, qj + lr * (-g * pu - reg * qj));
                }
            }
        }
    }
    Ok(model)
}

/// Trains CML (collaborative metric learning) on a bipartite graph.
pub(crate) fn train_cml(graph: &BipartiteGraph, opts: &BaselineOpts) -> Result<MfModel> {
    check_graph(graph)?;
    let mut model = init_model(graph, opts, "cml-init");
    let mut rng = component_rng(opts.seed, "cml-train");
    let sampler = NegativeSampler::new(graph);
    let mut edges: Vec<(u32, u32)> = graph.edges().collect();
    let lr = opts.learning_rate;
    let dim = opts.dim;
    let margin = 0.5f32;
    for _epoch in 0..opts.epochs {
        shuffle_in_place(&mut rng, &mut edges);
        for &(u, i) in &edges {
            for _ in 0..opts.neg_ratio {
                let j = sampler.sample_one(graph, u as usize, &mut rng)? as usize;
                let (u, i) = (u as usize, i as usize);
                let mut d_pos = 0.0f32;
                let mut d_neg = 0.0f32;
                for d in 0..dim {
                    let pu = model.users.get(u, d);
                    let dp = pu - model.items.get(i, d);
                    let dn = pu - model.items.get(j, d);
                    d_pos += dp * dp;
                    d_neg += dn * dn;
                }
                if margin + d_pos - d_neg <= 0.0 {
                    continue; // hinge inactive
                }
                for d in 0..dim {
                    let pu = model.users.get(u, d);
                    let qi = model.items.get(i, d);
                    let qj = model.items.get(j, d);
                    // gradient of (d_pos - d_neg) w.r.t. each embedding
                    let g_u = 2.0 * (pu - qi) - 2.0 * (pu - qj);
                    let g_i = -2.0 * (pu - qi);
                    let g_j = 2.0 * (pu - qj);
                    model.users.set(u, d, pu - lr * g_u);
                    model.items.set(i, d, qi - lr * g_i);
                    model.items.set(j, d, qj - lr * g_j);
                }
            }
        }
        // project all embeddings onto the unit ball (the CML constraint)
        model.users.normalize_rows_in_place(1.0);
        model.items.normalize_rows_in_place(1.0);
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny graph with block structure: users 0-4 like items 0-4,
    /// users 5-9 like items 5-9.
    fn block_graph() -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..5usize {
            for i in 0..5usize {
                if (u + i) % 5 != 4 {
                    edges.push((u, i));
                }
            }
        }
        for u in 5..10usize {
            for i in 5..10usize {
                if (u + i) % 5 != 4 {
                    edges.push((u, i));
                }
            }
        }
        BipartiteGraph::new(10, 10, &edges).unwrap()
    }

    fn ranking_quality(model: &MfModel, graph: &BipartiteGraph, metric: bool) -> f32 {
        // fraction of (positive, negative) pairs ranked correctly
        let mut correct = 0usize;
        let mut total = 0usize;
        let score = |u: usize, v: usize| -> f32 {
            if metric {
                -model
                    .users
                    .row(u)
                    .iter()
                    .zip(model.items.row(v).iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
            } else {
                model
                    .users
                    .row(u)
                    .iter()
                    .zip(model.items.row(v).iter())
                    .map(|(a, b)| a * b)
                    .sum()
            }
        };
        for u in 0..graph.n_users() {
            for i in 0..graph.n_items() {
                for j in 0..graph.n_items() {
                    if graph.has_edge(u, i) && !graph.has_edge(u, j) {
                        total += 1;
                        if score(u, i) > score(u, j) {
                            correct += 1;
                        }
                    }
                }
            }
        }
        correct as f32 / total as f32
    }

    #[test]
    fn bprmf_learns_block_structure() {
        let g = block_graph();
        let opts = BaselineOpts {
            dim: 8,
            epochs: 60,
            learning_rate: 0.05,
            ..BaselineOpts::default()
        };
        let model = train_bprmf(&g, &opts).unwrap();
        let auc = ranking_quality(&model, &g, false);
        assert!(auc > 0.85, "BPRMF pairwise accuracy too low: {auc}");
        assert!(model.users.all_finite() && model.items.all_finite());
    }

    #[test]
    fn cml_learns_block_structure_and_respects_unit_ball() {
        let g = block_graph();
        let opts = BaselineOpts {
            dim: 8,
            epochs: 60,
            learning_rate: 0.02,
            ..BaselineOpts::default()
        };
        let model = train_cml(&g, &opts).unwrap();
        let auc = ranking_quality(&model, &g, true);
        assert!(auc > 0.8, "CML pairwise accuracy too low: {auc}");
        for r in 0..model.users.rows() {
            let norm: f32 = model.users.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!(norm <= 1.0 + 1e-4);
        }
    }

    #[test]
    fn empty_graphs_are_rejected() {
        let empty = BipartiteGraph::new(3, 3, &[]).unwrap();
        assert!(train_bprmf(&empty, &BaselineOpts::fast_test()).is_err());
        assert!(train_cml(&empty, &BaselineOpts::fast_test()).is_err());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let g = block_graph();
        let opts = BaselineOpts {
            dim: 4,
            epochs: 3,
            ..BaselineOpts::default()
        };
        let a = train_bprmf(&g, &opts).unwrap();
        let b = train_bprmf(&g, &opts).unwrap();
        assert_eq!(a.users, b.users);
        let c = train_bprmf(&g, &opts.with_seed(9)).unwrap();
        assert_ne!(a.users, c.users);
    }
}
