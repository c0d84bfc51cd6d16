//! Seen-item filtering over either a materialised graph or a mapped CSR.
//!
//! Request filtering only ever needs one operation — `items_of(user)`, a
//! sorted slice of the user's known interactions — and the serve v2
//! container stores exactly that shape: an offsets section (`u64[n_users+1]`)
//! plus a concatenated sorted-items section (`u32[n_edges]`). [`SeenFilter`]
//! serves `items_of` straight from those mapped sections, so a zero-copy
//! engine filters without decoding a [`BipartiteGraph`] at load time.
//!
//! The full graph is still required by the heavyweight paths — delta ingest
//! mutates it, the online open rebinds the encoder to it, compaction writes
//! it back out as CSR — so the filter materialises one lazily on first
//! demand ([`SeenFilter::graph`]). The
//! first *mutation* ([`SeenFilter::graph_mut`]) drops the CSR view entirely:
//! from then on the graph is authoritative, which is the same copy-on-write
//! contract the mapped embedding tables follow.

use cdrib_graph::BipartiteGraph;
use cdrib_tensor::TableStorage;
use std::sync::OnceLock;

use crate::error::{Result, ServeError};

/// Per-domain seen-item state: a mapped CSR view, a materialised graph, or
/// (transiently) both when the graph was demanded read-only.
pub(crate) struct SeenFilter {
    /// The mapped (or heap-loaded) CSR sections of a v2 container; `None`
    /// for graph-backed filters and after the first mutation.
    csr: Option<SeenCsr>,
    /// The materialised graph; set eagerly by [`SeenFilter::from_graph`],
    /// lazily by [`SeenFilter::graph`].
    graph: OnceLock<BipartiteGraph>,
}

struct SeenCsr {
    /// `n_users + 1` monotone offsets into `items`; `offsets[0] == 0` and
    /// `offsets[n_users] == items.len()` (validated at construction).
    offsets: TableStorage<u64>,
    /// Each user's items, sorted strictly ascending per user.
    items: TableStorage<u32>,
    n_items: usize,
}

impl SeenFilter {
    /// A filter over an already-materialised graph (v1 loads, bare-table
    /// construction).
    pub(crate) fn from_graph(graph: BipartiteGraph) -> Self {
        let lock = OnceLock::new();
        let _ = lock.set(graph);
        SeenFilter { csr: None, graph: lock }
    }

    /// A filter over CSR sections, typically borrowed from a mapped v2
    /// container. Validates the full CSR structure up front — monotone
    /// offsets, strictly ascending per-user item runs, every item below
    /// `n_items` — so `items_of` and the lazy graph build cannot fail later.
    pub(crate) fn from_csr(offsets: TableStorage<u64>, items: TableStorage<u32>, n_items: usize) -> Result<Self> {
        let err = |detail: String| ServeError::ShapeMismatch { detail };
        if offsets.is_empty() {
            return Err(err("seen CSR offsets section is empty".to_string()));
        }
        if offsets[0] != 0 {
            return Err(err(format!("seen CSR offsets start at {}, expected 0", offsets[0])));
        }
        if offsets[offsets.len() - 1] != items.len() as u64 {
            return Err(err(format!(
                "seen CSR offsets end at {} but the items section holds {} entries",
                offsets[offsets.len() - 1],
                items.len()
            )));
        }
        for user in 0..offsets.len() - 1 {
            let (start, end) = (offsets[user], offsets[user + 1]);
            if end < start {
                return Err(err(format!(
                    "seen CSR offsets decrease at user {user}: {start} -> {end}"
                )));
            }
            let run = &items[start as usize..end as usize];
            for pair in run.windows(2) {
                if pair[1] <= pair[0] {
                    return Err(err(format!(
                        "seen CSR items of user {user} are not strictly ascending: {} then {}",
                        pair[0], pair[1]
                    )));
                }
            }
            if let Some(&last) = run.last() {
                if last as usize >= n_items {
                    return Err(err(format!(
                        "seen CSR item {last} of user {user} is outside the {n_items}-item domain"
                    )));
                }
            }
        }
        Ok(SeenFilter {
            csr: Some(SeenCsr {
                offsets,
                items,
                n_items,
            }),
            graph: OnceLock::new(),
        })
    }

    pub(crate) fn n_users(&self) -> usize {
        match &self.csr {
            Some(csr) => csr.offsets.len() - 1,
            None => self.graph().n_users(),
        }
    }

    pub(crate) fn n_items(&self) -> usize {
        match &self.csr {
            Some(csr) => csr.n_items,
            None => self.graph().n_items(),
        }
    }

    pub(crate) fn n_edges(&self) -> usize {
        match &self.csr {
            Some(csr) => csr.items.len(),
            None => self.graph().n_edges(),
        }
    }

    /// The user's known items, sorted ascending — the only operation the
    /// request path needs, free of graph materialisation on a CSR filter.
    pub(crate) fn items_of(&self, user: usize) -> &[u32] {
        match &self.csr {
            Some(csr) => &csr.items[csr.offsets[user] as usize..csr.offsets[user + 1] as usize],
            None => self.graph().items_of(user),
        }
    }

    /// Whether the filter still serves from mapped sections.
    pub(crate) fn is_mapped(&self) -> bool {
        self.csr
            .as_ref()
            .is_some_and(|csr| csr.offsets.is_mapped() || csr.items.is_mapped())
    }

    /// The full graph, materialised from the CSR on first demand.
    pub(crate) fn graph(&self) -> &BipartiteGraph {
        self.graph.get_or_init(|| {
            let csr = self
                .csr
                .as_ref()
                .expect("a filter without a graph always carries a CSR");
            let mut edges = Vec::with_capacity(csr.items.len());
            for user in 0..csr.offsets.len() - 1 {
                for &item in &csr.items[csr.offsets[user] as usize..csr.offsets[user + 1] as usize] {
                    edges.push((user, item as usize));
                }
            }
            BipartiteGraph::new(csr.offsets.len() - 1, csr.n_items, &edges)
                .expect("a validated CSR always builds a graph")
        })
    }

    /// Mutable access to the graph — the copy-on-write trigger. The CSR
    /// view would go stale on the first mutation, so it is dropped and the
    /// graph is authoritative from here on.
    pub(crate) fn graph_mut(&mut self) -> &mut BipartiteGraph {
        self.graph();
        self.csr = None;
        self.graph.get_mut().expect("materialised just above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr_filter() -> SeenFilter {
        // user 0: items 1, 3; user 1: none; user 2: item 0
        let offsets = TableStorage::from_vec(vec![0u64, 2, 2, 3]);
        let items = TableStorage::from_vec(vec![1u32, 3, 0]);
        SeenFilter::from_csr(offsets, items, 4).unwrap()
    }

    #[test]
    fn csr_filter_serves_items_without_a_graph() {
        let filter = csr_filter();
        assert_eq!(filter.n_users(), 3);
        assert_eq!(filter.n_items(), 4);
        assert_eq!(filter.n_edges(), 3);
        assert_eq!(filter.items_of(0), &[1, 3]);
        assert_eq!(filter.items_of(1), &[] as &[u32]);
        assert_eq!(filter.items_of(2), &[0]);
    }

    #[test]
    fn lazy_graph_matches_csr() {
        let filter = csr_filter();
        let graph = filter.graph();
        assert_eq!(graph.n_users(), 3);
        assert_eq!(graph.n_items(), 4);
        assert_eq!(graph.items_of(0), &[1, 3]);
        // The CSR stays authoritative for reads after a read-only demand.
        assert_eq!(filter.items_of(0), &[1, 3]);
    }

    #[test]
    fn mutation_drops_the_csr() {
        let mut filter = csr_filter();
        let delta = cdrib_graph::GraphDelta {
            add_users: 0,
            add_items: 0,
            edges: vec![(1, 2)],
            ..cdrib_graph::GraphDelta::empty()
        };
        filter.graph_mut().apply_delta(&delta).unwrap();
        assert!(filter.csr.is_none());
        assert_eq!(filter.items_of(1), &[2]);
        assert_eq!(filter.n_edges(), 4);
    }

    #[test]
    fn from_csr_rejects_malformed_structure() {
        // Decreasing offsets.
        assert!(SeenFilter::from_csr(
            TableStorage::from_vec(vec![0u64, 2, 1]),
            TableStorage::from_vec(vec![0u32, 1]),
            4
        )
        .is_err());
        // Offsets/items length disagreement.
        assert!(SeenFilter::from_csr(
            TableStorage::from_vec(vec![0u64, 3]),
            TableStorage::from_vec(vec![0u32, 1]),
            4
        )
        .is_err());
        // Unsorted run.
        assert!(SeenFilter::from_csr(
            TableStorage::from_vec(vec![0u64, 2]),
            TableStorage::from_vec(vec![2u32, 1]),
            4
        )
        .is_err());
        // Item outside the domain.
        assert!(SeenFilter::from_csr(
            TableStorage::from_vec(vec![0u64, 1]),
            TableStorage::from_vec(vec![9u32]),
            4
        )
        .is_err());
    }
}
