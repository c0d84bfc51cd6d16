//! Mini-batching and negative sampling.
//!
//! The reconstruction terms (Eq. 13) and the ranking losses of the baselines
//! are optimised over sampled positive interactions paired with uniformly
//! sampled negative items the user has not interacted with. The evaluation
//! protocol (§IV-B1) also needs 999 negative items per test case; that
//! sampler lives in `cdrib-eval`, built on the same primitives.

use crate::error::{DataError, Result};
use cdrib_graph::BipartiteGraph;
use cdrib_tensor::rng::shuffle_in_place;
use rand::rngs::StdRng;
use rand::Rng;

/// Uniform negative-item sampler for a single domain.
#[derive(Debug, Clone)]
pub struct NegativeSampler {
    n_items: usize,
}

impl NegativeSampler {
    /// Creates a sampler over the item universe of `graph`.
    pub fn new(graph: &BipartiteGraph) -> Self {
        NegativeSampler {
            n_items: graph.n_items(),
        }
    }

    /// Creates a sampler over an explicit number of items.
    pub fn with_items(n_items: usize) -> Self {
        NegativeSampler { n_items }
    }

    /// Samples one item the user has not interacted with in `graph`.
    ///
    /// Sparse users use rejection sampling (expected ~1 draw). Users who
    /// interacted with more than half the catalogue would turn rejection
    /// into a near-coupon-collector loop, so they instead draw a uniform
    /// rank among the non-interacted items and resolve it by an order
    /// statistic over the user's sorted neighbour list — O(log degree),
    /// guaranteed to terminate, still exactly uniform.
    pub fn sample_one(&self, graph: &BipartiteGraph, user: usize, rng: &mut StdRng) -> Result<u32> {
        if self.n_items == 0 {
            return Err(DataError::EmptyDataset {
                stage: "negative sampling",
            });
        }
        let degree = graph.user_degree(user);
        if degree >= self.n_items {
            return Err(DataError::EmptyDataset {
                stage: "negative sampling (user interacted with every item)",
            });
        }
        if degree * 2 >= self.n_items {
            let rank = rng.gen_range(0..self.n_items - degree);
            return Ok(nth_non_interacted(graph.items_of(user), rank));
        }
        loop {
            let candidate = rng.gen_range(0..self.n_items);
            if !graph.has_edge(user, candidate) {
                return Ok(candidate as u32);
            }
        }
    }

    /// Appends `min(k, available)` distinct negative items for `user` to
    /// `out`, where `available` counts the items the user never interacted
    /// with (minus `exclude`, when given and not already an interaction).
    ///
    /// This is the sampling routine of the leave-one-out evaluation
    /// protocol in `cdrib-eval`. When `k` is a large share of `available`
    /// — dense users, or the protocol's 999 negatives on a small catalogue —
    /// rejection sampling degenerates into a coupon-collector loop, so this
    /// switches to exhaustive enumeration: collect every candidate, shuffle,
    /// truncate. Returns the number of items appended.
    pub fn sample_up_to(
        &self,
        graph: &BipartiteGraph,
        user: usize,
        k: usize,
        exclude: Option<u32>,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
    ) -> usize {
        let start = out.len();
        let mut available = self.n_items.saturating_sub(graph.user_degree(user));
        if let Some(e) = exclude {
            if (e as usize) < self.n_items && !graph.has_edge(user, e as usize) {
                available = available.saturating_sub(1);
            }
        }
        if available == 0 || k == 0 {
            return 0;
        }
        if k * 2 >= available {
            // Exhaustive fallback: the non-interacted items are exactly the
            // gaps of the user's sorted neighbour list, appended as bulk
            // range extends (O(n_items + degree), no per-item membership
            // test). Ranking and loss terms are order-independent, so a
            // shuffle is only needed when a strict subset is kept — and then
            // a partial Fisher-Yates from the cheaper side suffices.
            let mut gap_start = 0u32;
            for &v in graph.items_of(user) {
                if (v as usize) < self.n_items {
                    out.extend(gap_start..v);
                    gap_start = v + 1;
                }
            }
            out.extend(gap_start..self.n_items as u32);
            if let Some(e) = exclude {
                // The appended run is sorted, so the excluded item (if it
                // was appended at all) sits at a binary-searchable position.
                if let Ok(pos) = out[start..].binary_search(&e) {
                    out.swap_remove(start + pos);
                }
            }
            debug_assert_eq!(out.len() - start, available);
            if k < available {
                // Keep a uniform k-subset (order is irrelevant to both the
                // ranking protocol and the loss terms). Selecting k items
                // equals discarding `available - k`, so run the partial
                // Fisher-Yates from whichever side needs fewer draws.
                let drop = available - k;
                if drop < k {
                    for i in 0..drop {
                        let j = rng.gen_range(0..available - i);
                        out.swap(start + available - 1 - i, start + j);
                    }
                } else {
                    for i in 0..k {
                        let j = rng.gen_range(i..available);
                        out.swap(start + i, start + j);
                    }
                }
                out.truncate(start + k);
            }
        } else {
            // Rejection sampling with a distinctness set; `k` is at most half
            // of `available`, so the expected number of draws is < 2k.
            let mut chosen = std::collections::HashSet::with_capacity(k);
            while out.len() - start < k {
                let candidate = rng.gen_range(0..self.n_items) as u32;
                if Some(candidate) != exclude && !graph.has_edge(user, candidate as usize) && chosen.insert(candidate) {
                    out.push(candidate);
                }
            }
        }
        out.len() - start
    }
}

/// Resolves the `rank`-th (0-based) item index absent from the sorted
/// neighbour list `interacted`. For any neighbour `v_j` the number of
/// non-interacted items below it is `v_j - j`, which is non-decreasing in
/// `j`, so a binary search finds how many neighbours precede the answer.
fn nth_non_interacted(interacted: &[u32], rank: usize) -> u32 {
    let (mut lo, mut hi) = (0usize, interacted.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if (interacted[mid] as usize).saturating_sub(mid) <= rank {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (rank + lo) as u32
}

/// One training mini-batch of positive edges with paired negative items.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeBatch {
    /// Users of the positive interactions.
    pub users: Vec<u32>,
    /// Positively interacted items.
    pub pos_items: Vec<u32>,
    /// Sampled negative items (one per positive, repeated `neg_ratio` times
    /// consecutively when `neg_ratio > 1`).
    pub neg_users: Vec<u32>,
    /// Negative items aligned with `neg_users`.
    pub neg_items: Vec<u32>,
}

impl EdgeBatch {
    /// Number of positive interactions in the batch.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

/// Reusable storage for one epoch of mini-batches.
///
/// [`EdgeBatcher::epoch_into`] refills this in place: the shuffled edge
/// buffer and every batch's four index `Vec`s retain their capacity across
/// epochs, so steady-state epoch construction performs no allocator
/// requests (enforced by `tests/alloc_regression.rs`). The same storage can
/// be reused across graphs; `len` tracks how many batches the most recent
/// epoch produced.
#[derive(Debug, Clone, Default)]
pub struct EpochBatches {
    batches: Vec<EdgeBatch>,
    len: usize,
    edges: Vec<(u32, u32)>,
}

impl EpochBatches {
    /// Creates empty storage.
    pub fn new() -> Self {
        EpochBatches::default()
    }

    /// Number of batches produced by the most recent epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the most recent epoch produced no batches.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The batches of the most recent epoch.
    pub fn batches(&self) -> &[EdgeBatch] {
        &self.batches[..self.len]
    }

    /// Iterates over the batches of the most recent epoch.
    pub fn iter(&self) -> std::slice::Iter<'_, EdgeBatch> {
        self.batches().iter()
    }

    /// Merges the last batch into its predecessor (used by callers that need
    /// a fixed number of steps per epoch regardless of the division split).
    pub fn merge_tail(&mut self) {
        if self.len < 2 {
            return;
        }
        let (head, tail) = self.batches.split_at_mut(self.len - 1);
        let last = &mut head[self.len - 2];
        let extra = &tail[0];
        last.users.extend_from_slice(&extra.users);
        last.pos_items.extend_from_slice(&extra.pos_items);
        last.neg_users.extend_from_slice(&extra.neg_users);
        last.neg_items.extend_from_slice(&extra.neg_items);
        self.len -= 1;
    }
}

impl<'a> IntoIterator for &'a EpochBatches {
    type Item = &'a EdgeBatch;
    type IntoIter = std::slice::Iter<'a, EdgeBatch>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Shuffles a domain's training edges into mini-batches with negatives.
#[derive(Debug, Clone)]
pub struct EdgeBatcher {
    batch_size: usize,
    neg_ratio: usize,
}

impl EdgeBatcher {
    /// Creates a batcher producing batches of `batch_size` positives with
    /// `neg_ratio` negatives per positive.
    pub fn new(batch_size: usize, neg_ratio: usize) -> Result<Self> {
        if batch_size == 0 {
            return Err(DataError::InvalidConfig {
                field: "batch_size",
                detail: "must be positive".into(),
            });
        }
        if neg_ratio == 0 {
            return Err(DataError::InvalidConfig {
                field: "neg_ratio",
                detail: "must be at least 1".into(),
            });
        }
        Ok(EdgeBatcher { batch_size, neg_ratio })
    }

    /// Produces one epoch worth of shuffled batches for `graph`.
    ///
    /// Allocating convenience wrapper around [`EdgeBatcher::epoch_into`];
    /// steady-state training loops should hold an [`EpochBatches`] and call
    /// `epoch_into` instead.
    pub fn epoch(&self, graph: &BipartiteGraph, rng: &mut StdRng) -> Result<Vec<EdgeBatch>> {
        let mut storage = EpochBatches::new();
        self.epoch_into(graph, rng, &mut storage)?;
        storage.batches.truncate(storage.len);
        Ok(storage.batches)
    }

    /// Refills `storage` with one epoch worth of shuffled batches for
    /// `graph`, reusing every buffer a previous epoch left behind. After the
    /// storage warmed up on a graph, subsequent epochs are allocation-free.
    pub fn epoch_into(&self, graph: &BipartiteGraph, rng: &mut StdRng, storage: &mut EpochBatches) -> Result<()> {
        if graph.n_edges() == 0 {
            return Err(DataError::EmptyDataset { stage: "batching" });
        }
        let sampler = NegativeSampler::new(graph);
        let EpochBatches { batches, len, edges } = storage;
        *len = 0;
        edges.clear();
        edges.reserve(graph.n_edges());
        edges.extend(graph.edges());
        shuffle_in_place(rng, edges);
        for chunk in edges.chunks(self.batch_size) {
            if *len == batches.len() {
                batches.push(EdgeBatch {
                    users: Vec::new(),
                    pos_items: Vec::new(),
                    neg_users: Vec::new(),
                    neg_items: Vec::new(),
                });
            }
            let batch = &mut batches[*len];
            *len += 1;
            batch.users.clear();
            batch.pos_items.clear();
            batch.neg_users.clear();
            batch.neg_items.clear();
            for &(u, i) in chunk {
                batch.users.push(u);
                batch.pos_items.push(i);
                for _ in 0..self.neg_ratio {
                    let neg = sampler.sample_one(graph, u as usize, rng)?;
                    batch.neg_users.push(u);
                    batch.neg_items.push(neg);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrib_tensor::rng::component_rng;

    fn graph() -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..20usize {
            for k in 0..5usize {
                edges.push((u, (u * 3 + k * 7) % 50));
            }
        }
        BipartiteGraph::new(20, 50, &edges).unwrap()
    }

    #[test]
    fn negatives_are_never_positives() {
        let g = graph();
        let sampler = NegativeSampler::new(&g);
        let mut rng = component_rng(0, "neg");
        for u in 0..g.n_users() {
            let mut negs = Vec::new();
            assert_eq!(sampler.sample_up_to(&g, u, 10, None, &mut rng, &mut negs), 10);
            let distinct: std::collections::HashSet<_> = negs.iter().collect();
            assert_eq!(distinct.len(), 10);
            for &n in &negs {
                assert!(!g.has_edge(u, n as usize));
            }
            let one = sampler.sample_one(&g, u, &mut rng).unwrap();
            assert!(!g.has_edge(u, one as usize));
        }
    }

    #[test]
    fn sampling_more_than_available_fails() {
        let g = BipartiteGraph::new(1, 3, &[(0, 0), (0, 1)]).unwrap();
        let sampler = NegativeSampler::new(&g);
        let mut rng = component_rng(1, "neg2");
        let mut negs = Vec::new();
        assert_eq!(sampler.sample_up_to(&g, 0, 2, None, &mut rng, &mut negs), 1);
        assert_eq!(negs, vec![2]);
        // a user who interacted with everything cannot get a negative
        let full = BipartiteGraph::new(1, 2, &[(0, 0), (0, 1)]).unwrap();
        let s2 = NegativeSampler::new(&full);
        assert!(s2.sample_one(&full, 0, &mut rng).is_err());
        let empty_items = NegativeSampler::with_items(0);
        assert!(empty_items.sample_one(&full, 0, &mut rng).is_err());
    }

    #[test]
    fn epoch_covers_every_edge_exactly_once() {
        let g = graph();
        let batcher = EdgeBatcher::new(16, 2).unwrap();
        let mut rng = component_rng(2, "batch");
        let batches = batcher.epoch(&g, &mut rng).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, g.n_edges());
        // every batch has neg_ratio negatives per positive
        for b in &batches {
            assert_eq!(b.neg_items.len(), b.len() * 2);
            assert_eq!(b.neg_users.len(), b.neg_items.len());
            assert!(!b.is_empty());
            for (k, &u) in b.neg_users.iter().enumerate() {
                assert!(!g.has_edge(u as usize, b.neg_items[k] as usize));
            }
        }
        // union of positives equals the edge set
        let mut seen: Vec<(u32, u32)> = batches
            .iter()
            .flat_map(|b| b.users.iter().copied().zip(b.pos_items.iter().copied()))
            .collect();
        seen.sort_unstable();
        let expected: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn dense_users_sample_without_degenerating() {
        // A user who interacted with all but two of 1000 items: rejection
        // sampling would need ~500 draws per negative; the order-statistic
        // fallback must return one of the two free items directly.
        let n = 1000usize;
        let free = [137usize, 802];
        let edges: Vec<(usize, usize)> = (0..n).filter(|i| !free.contains(i)).map(|i| (0usize, i)).collect();
        let g = BipartiteGraph::new(1, n, &edges).unwrap();
        let sampler = NegativeSampler::new(&g);
        let mut rng = component_rng(7, "dense");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let s = sampler.sample_one(&g, 0, &mut rng).unwrap() as usize;
            assert!(free.contains(&s), "sampled an interacted item {s}");
            seen.insert(s);
        }
        assert_eq!(seen.len(), 2, "both free items should appear over 64 draws");
        // sample_up_to serves dense users through the exhaustive fallback
        let mut negs = Vec::new();
        sampler.sample_up_to(&g, 0, 2, None, &mut rng, &mut negs);
        let negs: std::collections::HashSet<usize> = negs.iter().map(|&v| v as usize).collect();
        assert_eq!(negs, free.iter().copied().collect());
    }

    #[test]
    fn sample_up_to_caps_at_available_and_respects_exclude() {
        let g = BipartiteGraph::new(1, 6, &[(0, 0), (0, 1)]).unwrap();
        let sampler = NegativeSampler::new(&g);
        let mut rng = component_rng(8, "upto");
        let mut out = vec![99u32]; // pre-existing content must be preserved
        let appended = sampler.sample_up_to(&g, 0, 10, Some(3), &mut rng, &mut out);
        assert_eq!(appended, 3); // items 2, 4, 5
        assert_eq!(out[0], 99);
        let mut rest: Vec<u32> = out[1..].to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![2, 4, 5]);
        // the exact requested count is honoured when enough items exist
        let mut out2 = Vec::new();
        let appended2 = sampler.sample_up_to(&g, 0, 2, None, &mut rng, &mut out2);
        assert_eq!(appended2, 2);
        assert_eq!(out2.len(), 2);
        for &v in &out2 {
            assert!(!g.has_edge(0, v as usize));
        }
    }

    #[test]
    fn nth_non_interacted_order_statistic() {
        assert_eq!(nth_non_interacted(&[], 3), 3);
        assert_eq!(nth_non_interacted(&[0, 1, 2], 0), 3);
        assert_eq!(nth_non_interacted(&[1, 2], 0), 0);
        assert_eq!(nth_non_interacted(&[1, 2], 1), 3);
        assert_eq!(nth_non_interacted(&[0, 2, 4], 0), 1);
        assert_eq!(nth_non_interacted(&[0, 2, 4], 1), 3);
        assert_eq!(nth_non_interacted(&[0, 2, 4], 2), 5);
    }

    #[test]
    fn epoch_into_reuses_storage_and_matches_epoch_contract() {
        let g = graph();
        let batcher = EdgeBatcher::new(16, 2).unwrap();
        let mut rng = component_rng(12, "epoch-into");
        let mut storage = EpochBatches::new();
        batcher.epoch_into(&g, &mut rng, &mut storage).unwrap();
        let first_len = storage.len();
        assert!(first_len > 0);
        let total: usize = storage.iter().map(|b| b.len()).sum();
        assert_eq!(total, g.n_edges());
        for b in &storage {
            assert_eq!(b.neg_items.len(), b.len() * 2);
            for (k, &u) in b.neg_users.iter().enumerate() {
                assert!(!g.has_edge(u as usize, b.neg_items[k] as usize));
            }
        }
        // refill: same batch count, full edge coverage again, new shuffle
        let first_users = storage.batches()[0].users.clone();
        batcher.epoch_into(&g, &mut rng, &mut storage).unwrap();
        assert_eq!(storage.len(), first_len);
        let total2: usize = storage.iter().map(|b| b.len()).sum();
        assert_eq!(total2, g.n_edges());
        assert_ne!(storage.batches()[0].users, first_users);
        // merge_tail folds the last batch into its predecessor
        let before = storage.len();
        let tail_len = storage.batches()[before - 1].len();
        let prev_len = storage.batches()[before - 2].len();
        storage.merge_tail();
        assert_eq!(storage.len(), before - 1);
        assert_eq!(storage.batches()[before - 2].len(), prev_len + tail_len);
    }

    #[test]
    fn shuffling_differs_between_epochs() {
        let g = graph();
        let batcher = EdgeBatcher::new(32, 1).unwrap();
        let mut rng = component_rng(3, "shuffle");
        let a = batcher.epoch(&g, &mut rng).unwrap();
        let b = batcher.epoch(&g, &mut rng).unwrap();
        assert_ne!(a[0].users, b[0].users);
    }

    #[test]
    fn invalid_batcher_configs() {
        assert!(EdgeBatcher::new(0, 1).is_err());
        assert!(EdgeBatcher::new(8, 0).is_err());
        let empty = BipartiteGraph::new(3, 3, &[]).unwrap();
        let batcher = EdgeBatcher::new(4, 1).unwrap();
        let mut rng = component_rng(4, "empty");
        assert!(batcher.epoch(&empty, &mut rng).is_err());
    }
}
