//! Shared infrastructure of the baseline implementations.
//!
//! The paper's single-domain baselines (CML, BPRMF, NGCF, VBGE/VGAE) are
//! trained on the *merged* graph of both domains ("we merge all interactions
//! of both domains as a single domain", §IV-B2). [`MergedGraph`] builds that
//! graph and keeps the index mappings needed to answer cold-start queries
//! afterwards.

use cdrib_data::{CdrScenario, DataError, DomainId, Result};
use cdrib_graph::BipartiteGraph;
use serde::{Deserialize, Serialize};

/// Budget knobs shared by every baseline trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineOpts {
    /// Embedding dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularisation strength.
    pub l2: f32,
    /// Negative samples per positive.
    pub neg_ratio: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for BaselineOpts {
    fn default() -> Self {
        BaselineOpts {
            dim: 64,
            epochs: 30,
            learning_rate: 0.05,
            l2: 1e-4,
            neg_ratio: 1,
            seed: 2022,
        }
    }
}

impl BaselineOpts {
    /// A fast setting for tests.
    pub fn fast_test() -> Self {
        BaselineOpts {
            dim: 16,
            epochs: 10,
            ..BaselineOpts::default()
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        BaselineOpts { seed, ..*self }
    }
}

/// Both domains merged into one bipartite graph.
///
/// Users: the shared overlap prefix keeps its indices, domain-X-only users
/// follow (at their X indices), then domain-Y-only users are appended with an
/// offset. Items: domain-X items keep their indices, domain-Y items are
/// appended after them.
#[derive(Debug, Clone)]
pub struct MergedGraph {
    /// The merged training graph.
    pub graph: BipartiteGraph,
    /// Total number of merged users.
    pub n_users: usize,
    /// Total number of merged items.
    pub n_items: usize,
    n_overlap: usize,
    x_users: usize,
    x_items: usize,
}

impl MergedGraph {
    /// Builds the merged training graph of a scenario.
    pub fn new(scenario: &CdrScenario) -> Result<Self> {
        let n_overlap = scenario.n_overlap_total;
        let x_users = scenario.x.n_users;
        let y_users = scenario.y.n_users;
        let x_items = scenario.x.n_items;
        let y_items = scenario.y.n_items;
        let n_users = x_users + (y_users - n_overlap);
        let n_items = x_items + y_items;
        let mut edges: Vec<(usize, usize)> =
            Vec::with_capacity(scenario.x.train.n_edges() + scenario.y.train.n_edges());
        for (u, i) in scenario.x.train.edges() {
            edges.push((u as usize, i as usize));
        }
        for (u, i) in scenario.y.train.edges() {
            let mu = Self::map_user_static(u as usize, n_overlap, x_users, DomainId::Y);
            edges.push((mu, i as usize + x_items));
        }
        if edges.is_empty() {
            return Err(DataError::EmptyDataset { stage: "merged graph" });
        }
        let graph = BipartiteGraph::new(n_users, n_items, &edges)?;
        Ok(MergedGraph {
            graph,
            n_users,
            n_items,
            n_overlap,
            x_users,
            x_items,
        })
    }

    fn map_user_static(user: usize, n_overlap: usize, x_users: usize, domain: DomainId) -> usize {
        match domain {
            DomainId::X => user,
            DomainId::Y => {
                if user < n_overlap {
                    user
                } else {
                    user - n_overlap + x_users
                }
            }
        }
    }

    /// Maps a domain-local user index into the merged index space.
    pub(crate) fn map_user(&self, domain: DomainId, user: usize) -> usize {
        Self::map_user_static(user, self.n_overlap, self.x_users, domain)
    }

    /// Maps a domain-local item index into the merged index space.
    pub(crate) fn map_item(&self, domain: DomainId, item: usize) -> usize {
        match domain {
            DomainId::X => item,
            DomainId::Y => item + self.x_items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_data::{build_preset, Scale, ScenarioKind};

    #[test]
    fn merged_graph_preserves_all_training_edges() {
        let s = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 41).unwrap();
        let m = MergedGraph::new(&s).unwrap();
        assert_eq!(m.graph.n_edges(), s.x.train.n_edges() + s.y.train.n_edges());
        assert_eq!(m.n_items, s.x.n_items + s.y.n_items);
        assert_eq!(m.n_users, s.x.n_users + s.y.n_users - s.n_overlap_total);
        // overlap users keep their index in both domains
        let u = s.train_overlap_users[0] as usize;
        assert_eq!(m.map_user(DomainId::X, u), u);
        assert_eq!(m.map_user(DomainId::Y, u), u);
        // non-overlap Y users are offset past all X users
        let y_only = s.n_overlap_total; // first Y-only user index
        assert_eq!(m.map_user(DomainId::Y, y_only), s.x.n_users);
        // items of Y are offset past X items
        assert_eq!(m.map_item(DomainId::Y, 3), s.x.n_items + 3);
        assert_eq!(m.map_item(DomainId::X, 3), 3);
    }

    #[test]
    fn merged_edges_reference_mapped_indices() {
        let s = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 42).unwrap();
        let m = MergedGraph::new(&s).unwrap();
        // every Y training edge must exist at its mapped coordinates
        for (u, i) in s.y.train.edges().take(50) {
            let mu = m.map_user(DomainId::Y, u as usize);
            let mi = m.map_item(DomainId::Y, i as usize);
            assert!(m.graph.has_edge(mu, mi));
        }
        for (u, i) in s.x.train.edges().take(50) {
            assert!(m.graph.has_edge(u as usize, i as usize));
        }
    }

    #[test]
    fn opts_helpers() {
        let o = BaselineOpts::default();
        assert_eq!(o.with_seed(7).seed, 7);
        assert!(BaselineOpts::fast_test().epochs < o.epochs);
    }
}
