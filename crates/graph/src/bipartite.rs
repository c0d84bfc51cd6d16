//! The user-item interaction bipartite graph.
//!
//! This is the `A^X` / `A^Y` object of the paper (Table I): a binary
//! adjacency matrix between users and items together with the normalised
//! views the VBGE consumes (`Norm(A)` and `Norm(A^T)`, Eq. 2-3) and the
//! neighbour lists used by samplers and baselines.

use crate::delta::{DeltaEffect, GraphDelta};
use crate::error::{GraphError, Result};
use cdrib_tensor::CsrMatrix;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A bipartite interaction graph between `n_users` users and `n_items` items.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BipartiteGraph {
    n_users: usize,
    n_items: usize,
    /// Deduplicated, sorted `(user, item)` interactions.
    edges: Vec<(u32, u32)>,
    /// Per-user sorted item neighbour lists.
    user_items: Vec<Vec<u32>>,
    /// Per-item sorted user neighbour lists.
    item_users: Vec<Vec<u32>>,
}

impl BipartiteGraph {
    /// Builds a graph from raw `(user, item)` pairs. Duplicate edges are
    /// collapsed; indices are validated against the given sizes.
    pub fn new(n_users: usize, n_items: usize, raw_edges: &[(usize, usize)]) -> Result<Self> {
        let mut user_items: Vec<Vec<u32>> = vec![Vec::new(); n_users];
        let mut item_users: Vec<Vec<u32>> = vec![Vec::new(); n_items];
        for &(u, i) in raw_edges {
            if u >= n_users {
                return Err(GraphError::UserOutOfRange { user: u, n_users });
            }
            if i >= n_items {
                return Err(GraphError::ItemOutOfRange { item: i, n_items });
            }
            user_items[u].push(i as u32);
        }
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (u, items) in user_items.iter_mut().enumerate() {
            items.sort_unstable();
            items.dedup();
            for &i in items.iter() {
                edges.push((u as u32, i));
                item_users[i as usize].push(u as u32);
            }
        }
        Ok(BipartiteGraph {
            n_users,
            n_items,
            edges,
            user_items,
            item_users,
        })
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Number of distinct interactions.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The deduplicated edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Density of the interaction matrix.
    pub fn density(&self) -> f64 {
        if self.n_users == 0 || self.n_items == 0 {
            return 0.0;
        }
        self.edges.len() as f64 / (self.n_users as f64 * self.n_items as f64)
    }

    /// Items interacted with by `user` (sorted).
    pub fn items_of(&self, user: usize) -> &[u32] {
        &self.user_items[user]
    }

    /// Users who interacted with `item` (sorted).
    pub fn users_of(&self, item: usize) -> &[u32] {
        &self.item_users[item]
    }

    /// Degree (number of interactions) of a user.
    pub fn user_degree(&self, user: usize) -> usize {
        self.user_items[user].len()
    }

    /// Degree (number of interactions) of an item.
    pub fn item_degree(&self, item: usize) -> usize {
        self.item_users[item].len()
    }

    /// Whether the `(user, item)` interaction exists.
    pub fn has_edge(&self, user: usize, item: usize) -> bool {
        if user >= self.n_users || item >= self.n_items {
            return false;
        }
        self.user_items[user].binary_search(&(item as u32)).is_ok()
    }

    /// The binary adjacency matrix `A` (`n_users x n_items`).
    pub fn adjacency(&self) -> CsrMatrix {
        let edges: Vec<(usize, usize)> = self.edges.iter().map(|&(u, i)| (u as usize, i as usize)).collect();
        CsrMatrix::from_edges(self.n_users, self.n_items, &edges).expect("edges validated at construction")
    }

    /// Row-normalised adjacency `Norm(A)` used to aggregate item information
    /// into users (Eq. 3).
    pub fn norm_adjacency(&self) -> Arc<CsrMatrix> {
        Arc::new(self.adjacency().row_normalized())
    }

    /// Row-normalised transposed adjacency `Norm(A^T)` used to aggregate user
    /// information into items (Eq. 2).
    pub fn norm_adjacency_transpose(&self) -> Arc<CsrMatrix> {
        Arc::new(self.adjacency().transpose().row_normalized())
    }

    /// Symmetrically-normalised adjacency `D_u^{-1/2} A D_i^{-1/2}` used by
    /// GCN-style baselines (NGCF, PPGN).
    pub fn sym_adjacency(&self) -> Arc<CsrMatrix> {
        Arc::new(self.adjacency().sym_normalized())
    }

    /// Symmetrically-normalised transposed adjacency.
    pub fn sym_adjacency_transpose(&self) -> Arc<CsrMatrix> {
        Arc::new(self.adjacency().transpose().sym_normalized())
    }

    /// Users reachable from `user` in exactly two hops (co-interaction
    /// neighbours), excluding the user itself. Used by neighbour-based
    /// mapping supervision (SSCDR-style) and by tests of the "homogeneous
    /// even-hop neighbourhood" claim behind the VBGE.
    pub fn two_hop_users(&self, user: usize) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &item in self.items_of(user) {
            out.extend_from_slice(self.users_of(item as usize));
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&u| u as usize != user);
        out
    }

    /// Per-user degree histogram bucketed as in Table IX of the paper
    /// (`5-10`, `11-20`, `21-30`, `31-40`, `41-50`, `>50`).
    pub fn user_degree_histogram(&self) -> [usize; 6] {
        let mut hist = [0usize; 6];
        for u in 0..self.n_users {
            let d = self.user_degree(u);
            let bucket = match d {
                0..=10 => 0,
                11..=20 => 1,
                21..=30 => 2,
                31..=40 => 3,
                41..=50 => 4,
                _ => 5,
            };
            hist[bucket] += 1;
        }
        hist
    }

    /// Applies a [`GraphDelta`] — growth and retraction — in place, writing
    /// the receipt into reusable `effect` storage (see
    /// [`BipartiteGraph::apply_delta`] for the allocating convenience form).
    /// The receipt is cleared first and describes this one delta. This is
    /// the group-of-one case of [`BipartiteGraph::delta_group`]; a caller
    /// holding several deltas should open one group for all of them.
    ///
    /// Application is **atomic**: every referenced index is validated
    /// against the *post-add* entity ranges before anything is mutated, so a
    /// failed apply leaves the graph untouched (removing a *missing* edge is
    /// a counted no-op, not a failure). Ops apply in a fixed order — add
    /// entities, add edges, remove edges, erase users, delist items.
    /// Removal never shrinks the entity ranges: an erased user keeps its
    /// index with an empty neighbour list, a delisted item keeps its slot.
    /// Afterwards all construction invariants still hold — neighbour lists
    /// sorted and deduplicated, the edge list sorted lexicographically and
    /// consistent with both adjacency sides (the sorted-CSR invariant
    /// `adjacency()` relies on) — which `tests/delta_parity.rs` pins against
    /// arbitrary mixed grow/shrink batches.
    ///
    /// Cost: the adjacency mutation is O(delta), but keeping the flat edge
    /// list sorted is O(E) per call — a whole-list `sort_unstable` after an
    /// insertion, a whole-list rebuild after a removal — and, measured, that
    /// upkeep is nearly all of a call's time: on the benchmark's small engine
    /// (≈ 7 000 edges per domain) a delta of two or three edges costs
    /// ≈ 90–120 µs in a tight loop (`graph.apply_us` ≈ 130–160 µs in
    /// `bench_suite`'s cache-cold walk), against ≈ 0.3 µs for the same delta
    /// through one [`DeltaGroup`], which pays the upkeep once (≈ 2 µs per
    /// record is what a whole grouped log replay costs, publish included).
    /// Duplicate-only and missing-removal-only batches mutate nothing and
    /// the touched lists reuse their capacity, so repeated same-shaped
    /// deltas run allocation-free; structural growth allocates amortised,
    /// like any `Vec` push, and removal only shrinks existing storage (the
    /// edge list rebuild reuses its capacity).
    pub fn apply_delta_into(&mut self, delta: &GraphDelta, effect: &mut DeltaEffect) -> Result<()> {
        self.delta_group(effect).apply(delta)
    }

    /// Opens a group of deltas on this graph: **apply many, normalise
    /// once**. Each [`DeltaGroup::apply`] validates and applies one delta to
    /// the adjacency in O(delta) and *accumulates* its receipt into `effect`
    /// (cleared here); the O(E) edge-list upkeep and the receipt's
    /// sort/dedup run once, when the returned guard is dropped. The guard
    /// holds the graph's `&mut` borrow until then, so no caller can observe
    /// the edge list while it is stale — [`BipartiteGraph::check_invariants`]
    /// holds whenever the graph is reachable again.
    pub fn delta_group<'a>(&'a mut self, effect: &'a mut DeltaEffect) -> DeltaGroup<'a> {
        effect.clear();
        DeltaGroup { graph: self, effect }
    }

    /// Allocating convenience wrapper around
    /// [`BipartiteGraph::apply_delta_into`].
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaEffect> {
        let mut effect = DeltaEffect::new();
        self.apply_delta_into(delta, &mut effect)?;
        Ok(effect)
    }

    /// Checks every structural invariant the rest of the stack relies on:
    /// neighbour lists sorted, deduplicated and in range on both sides, the
    /// two adjacency sides mutually consistent, and the edge list sorted,
    /// unique and equal in both count and content to the per-user lists
    /// (which makes `adjacency()`'s CSR row offsets monotone by
    /// construction). Cheap enough for tests and debug assertions; the
    /// delta-invariant proptests call it after every batch.
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |detail: String| Err(GraphError::InvariantViolation { detail });
        let mut n_edges = 0usize;
        for (u, items) in self.user_items.iter().enumerate() {
            if !items.windows(2).all(|w| w[0] < w[1]) {
                return fail(format!("user {u}: neighbour list not sorted/deduplicated"));
            }
            for &i in items {
                if i as usize >= self.n_items {
                    return fail(format!("user {u}: item {i} out of range"));
                }
                if self.item_users[i as usize].binary_search(&(u as u32)).is_err() {
                    return fail(format!("edge ({u}, {i}) missing from the item side"));
                }
            }
            n_edges += items.len();
        }
        let item_side_edges: usize = self.item_users.iter().map(Vec::len).sum();
        if item_side_edges != n_edges {
            return fail(format!(
                "degree sums disagree: {n_edges} user-side vs {item_side_edges} item-side"
            ));
        }
        for (i, users) in self.item_users.iter().enumerate() {
            if !users.windows(2).all(|w| w[0] < w[1]) {
                return fail(format!("item {i}: neighbour list not sorted/deduplicated"));
            }
            for &u in users {
                if u as usize >= self.n_users {
                    return fail(format!("item {i}: user {u} out of range"));
                }
            }
        }
        if self.edges.len() != n_edges {
            return fail(format!(
                "edge list holds {} entries but the adjacency holds {n_edges}",
                self.edges.len()
            ));
        }
        if !self.edges.windows(2).all(|w| w[0] < w[1]) {
            return fail("edge list not sorted/unique".to_string());
        }
        for &(u, i) in &self.edges {
            if self.user_items[u as usize].binary_search(&i).is_err() {
                return fail(format!("edge ({u}, {i}) missing from the user side"));
            }
        }
        Ok(())
    }

    /// Rebuilds `Norm(A)` **into** existing CSR storage (no allocation once
    /// the storage capacity covers the edge count). Values are bitwise
    /// identical to [`BipartiteGraph::norm_adjacency`] — see
    /// [`CsrMatrix::rebuild_row_normalized_uniform`].
    pub fn norm_adjacency_into(&self, out: &mut CsrMatrix) {
        out.rebuild_row_normalized_uniform(self.n_users, self.n_items, |u| self.user_items[u].as_slice());
    }

    /// Rebuilds `Norm(A^T)` **into** existing CSR storage; bitwise identical
    /// to [`BipartiteGraph::norm_adjacency_transpose`].
    pub fn norm_adjacency_transpose_into(&self, out: &mut CsrMatrix) {
        out.rebuild_row_normalized_uniform(self.n_items, self.n_users, |i| self.item_users[i].as_slice());
    }

    /// Returns a new graph containing only the edges whose user passes the
    /// `keep` predicate (items keep their indices). Used to hide cold-start
    /// users' target-domain interactions during training.
    pub fn filter_users<F: Fn(usize) -> bool>(&self, keep: F) -> BipartiteGraph {
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|&&(u, _)| keep(u as usize))
            .map(|&(u, i)| (u as usize, i as usize))
            .collect();
        BipartiteGraph::new(self.n_users, self.n_items, &edges).expect("filtered edges remain in range")
    }
}

/// An open group of deltas on one [`BipartiteGraph`], created by
/// [`BipartiteGraph::delta_group`]. Dropping it finishes the group: the
/// graph's edge list is brought back in line with the adjacency (once, however
/// many deltas were applied) and the accumulated receipt is normalised.
///
/// The accumulated [`DeltaEffect`] is the receipt of the group as a whole:
/// counters are summed over the applied deltas and the `touched_*` /
/// `erased_users` / `delisted_items` lists are the sorted, deduplicated union
/// of what each delta would have reported on its own (removal endpoints
/// captured against the adjacency as it stood at *that* delta). Consumers
/// that take a receipt — `cdrib_core::InferenceModel::apply_delta` — accept
/// it exactly as they accept a single delta's.
pub struct DeltaGroup<'a> {
    graph: &'a mut BipartiteGraph,
    effect: &'a mut DeltaEffect,
}

impl DeltaGroup<'_> {
    /// Applies one more delta to the group, with the per-delta contract of
    /// [`BipartiteGraph::apply_delta_into`]: bounds are checked against the
    /// graph as the group's earlier deltas left it, and a rejected delta
    /// mutates nothing — the group stays valid and equal to the deltas
    /// applied before it.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<()> {
        let BipartiteGraph {
            n_users,
            n_items,
            edges,
            user_items,
            item_users,
        } = &mut *self.graph;
        let effect = &mut *self.effect;
        delta.check_bounds(*n_users, *n_items)?;
        let new_users = *n_users + delta.add_users;
        let new_items = *n_items + delta.add_items;
        effect.users_added += delta.add_users;
        effect.items_added += delta.add_items;
        user_items.resize_with(new_users, Vec::new);
        item_users.resize_with(new_items, Vec::new);
        // New entities are always "touched": their rows exist now and every
        // derived table must gain one.
        effect.touched_users.extend(*n_users as u32..new_users as u32);
        effect.touched_items.extend(*n_items as u32..new_items as u32);
        *n_users = new_users;
        *n_items = new_items;
        for &(u, i) in &delta.edges {
            effect.touched_users.push(u);
            effect.touched_items.push(i);
            match user_items[u as usize].binary_search(&i) {
                Ok(_) => effect.duplicate_edges += 1,
                Err(pos) => {
                    user_items[u as usize].insert(pos, i);
                    let upos = item_users[i as usize]
                        .binary_search(&u)
                        .expect_err("user/item lists must agree on edge membership");
                    item_users[i as usize].insert(upos, u);
                    edges.push((u, i));
                    effect.edges_added += 1;
                }
            }
        }
        // Retractions. Touched endpoints are recorded against the
        // *pre-removal* adjacency, so the dirty set covers every row whose
        // neighbourhood shrinks — the same over-approximation contract the
        // additive side keeps.
        for &(u, i) in &delta.remove_edges {
            effect.touched_users.push(u);
            effect.touched_items.push(i);
            match user_items[u as usize].binary_search(&i) {
                Err(_) => effect.missing_edges += 1,
                Ok(pos) => {
                    user_items[u as usize].remove(pos);
                    let upos = item_users[i as usize]
                        .binary_search(&u)
                        .expect("user/item lists must agree on edge membership");
                    item_users[i as usize].remove(upos);
                    effect.edges_removed += 1;
                }
            }
        }
        for &u in &delta.erase_users {
            effect.users_erased += 1;
            effect.touched_users.push(u);
            effect.erased_users.push(u);
            for &i in &user_items[u as usize] {
                effect.touched_items.push(i);
                let upos = item_users[i as usize]
                    .binary_search(&u)
                    .expect("user/item lists must agree on edge membership");
                item_users[i as usize].remove(upos);
                effect.edges_removed += 1;
            }
            user_items[u as usize].clear();
        }
        for &i in &delta.delist_items {
            effect.items_delisted += 1;
            effect.touched_items.push(i);
            effect.delisted_items.push(i);
            for &u in &item_users[i as usize] {
                effect.touched_users.push(u);
                let ipos = user_items[u as usize]
                    .binary_search(&i)
                    .expect("user/item lists must agree on edge membership");
                user_items[u as usize].remove(ipos);
                effect.edges_removed += 1;
            }
            item_users[i as usize].clear();
        }
        Ok(())
    }
}

impl Drop for DeltaGroup<'_> {
    fn drop(&mut self) {
        let BipartiteGraph { edges, user_items, .. } = &mut *self.graph;
        let effect = &mut *self.effect;
        if effect.edges_removed > 0 {
            // Rebuild the edge list in place from the user-side adjacency:
            // pushing in user order keeps it lexicographically sorted, and
            // the retained capacity keeps replayed removal batches
            // allocation-free. A removal anywhere in the group forces the
            // rebuild — an edge removed by one delta and re-added by a later
            // one was pushed while its stale entry was still listed, so
            // sorting alone would keep both.
            edges.clear();
            for (u, items) in user_items.iter().enumerate() {
                for &i in items {
                    edges.push((u as u32, i));
                }
            }
        } else if effect.edges_added > 0 {
            // In place (no allocation) but a whole-list pass; entries are
            // unique by the duplicate check in `apply`.
            edges.sort_unstable();
        }
        for list in [
            &mut effect.touched_users,
            &mut effect.touched_items,
            &mut effect.erased_users,
            &mut effect.delisted_items,
        ] {
            list.sort_unstable();
            list.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        // users: 0..4, items: 0..3
        BipartiteGraph::new(
            4,
            3,
            &[(0, 0), (0, 1), (1, 1), (2, 0), (2, 2), (3, 2), (0, 0)], // duplicate (0,0)
        )
        .unwrap()
    }

    #[test]
    fn construction_dedups_and_validates() {
        let g = sample();
        assert_eq!(g.n_users(), 4);
        assert_eq!(g.n_items(), 3);
        assert_eq!(g.n_edges(), 6);
        assert!(g.has_edge(0, 0));
        assert!(!g.has_edge(3, 0));
        assert!(!g.has_edge(10, 0));
        assert!(BipartiteGraph::new(2, 2, &[(5, 0)]).is_err());
        assert!(BipartiteGraph::new(2, 2, &[(0, 5)]).is_err());
    }

    #[test]
    fn neighbour_lists_and_degrees() {
        let g = sample();
        assert_eq!(g.items_of(0), &[0, 1]);
        assert_eq!(g.users_of(2), &[2, 3]);
        assert_eq!(g.user_degree(0), 2);
        assert_eq!(g.item_degree(1), 2);
        assert!((g.density() - 6.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn adjacency_matches_edges() {
        let g = sample();
        let a = g.adjacency();
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.get(0, 1), Some(1.0));
        assert_eq!(a.get(3, 0), None);
        let norm = g.norm_adjacency();
        let row0: f32 = norm.row_iter(0).map(|(_, v)| v).sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        let norm_t = g.norm_adjacency_transpose();
        assert_eq!(norm_t.rows(), 3);
        assert_eq!(norm_t.cols(), 4);
        let sym = g.sym_adjacency();
        assert_eq!(sym.rows(), 4);
        assert_eq!(g.sym_adjacency_transpose().rows(), 3);
    }

    #[test]
    fn two_hop_users_are_co_interactors() {
        let g = sample();
        // user 0 interacted with items 0 and 1; item 0 links to user 2, item 1 to user 1.
        assert_eq!(g.two_hop_users(0), vec![1, 2]);
        // user 3 only shares item 2 with user 2.
        assert_eq!(g.two_hop_users(3), vec![2]);
    }

    #[test]
    fn degree_histogram_buckets() {
        let mut edges = Vec::new();
        // user 0: 12 interactions, user 1: 3 interactions
        for i in 0..12 {
            edges.push((0usize, i));
        }
        for i in 0..3 {
            edges.push((1usize, i));
        }
        let g = BipartiteGraph::new(2, 12, &edges).unwrap();
        let hist = g.user_degree_histogram();
        assert_eq!(hist[0], 1); // user 1 (and user 0 falls in bucket 1)
        assert_eq!(hist[1], 1);
    }

    #[test]
    fn filter_users_removes_their_edges() {
        let g = sample();
        let filtered = g.filter_users(|u| u != 0);
        assert_eq!(filtered.n_edges(), 4);
        assert!(!filtered.has_edge(0, 0));
        assert!(filtered.has_edge(2, 2));
        assert_eq!(filtered.n_users(), g.n_users());
    }

    #[test]
    fn apply_delta_matches_from_scratch_construction() {
        let mut g = sample();
        let delta = GraphDelta {
            add_users: 2, // users 4, 5
            add_items: 1, // item 3
            edges: vec![(4, 3), (0, 2), (4, 3), (0, 0), (5, 1), (1, 3)],
            ..GraphDelta::empty()
        };
        let mut effect = DeltaEffect::new();
        g.apply_delta_into(&delta, &mut effect).unwrap();
        assert_eq!(effect.users_added, 2);
        assert_eq!(effect.items_added, 1);
        assert_eq!(effect.edges_added, 4); // (4,3), (0,2), (5,1), (1,3)
        assert_eq!(effect.duplicate_edges, 2); // (4,3) repeat + existing (0,0)
        assert_eq!(effect.touched_users, vec![0, 1, 4, 5]);
        assert_eq!(effect.touched_items, vec![0, 1, 2, 3]);
        g.check_invariants().unwrap();

        let reference = BipartiteGraph::new(
            6,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 1),
                (2, 0),
                (2, 2),
                (3, 2),
                (4, 3),
                (0, 2),
                (5, 1),
                (1, 3),
            ],
        )
        .unwrap();
        assert_eq!(g.edges(), reference.edges());
        for u in 0..6 {
            assert_eq!(g.items_of(u), reference.items_of(u), "user {u}");
        }
        for i in 0..4 {
            assert_eq!(g.users_of(i), reference.users_of(i), "item {i}");
        }
    }

    #[test]
    fn apply_delta_is_atomic_on_invalid_edges() {
        let mut g = sample();
        let before_edges = g.edges().to_vec();
        let delta = GraphDelta {
            add_users: 1,
            add_items: 0,
            edges: vec![(0, 1), (7, 0)], // user 7 out of range even after the add
            ..GraphDelta::empty()
        };
        let mut effect = DeltaEffect::new();
        assert!(matches!(
            g.apply_delta_into(&delta, &mut effect),
            Err(GraphError::UserOutOfRange { user: 7, n_users: 5 })
        ));
        assert_eq!(g.n_users(), 4);
        assert_eq!(g.edges(), before_edges.as_slice());
        let bad_item = GraphDelta {
            add_users: 0,
            add_items: 0,
            edges: vec![(0, 9)],
            ..GraphDelta::empty()
        };
        assert!(matches!(
            g.apply_delta_into(&bad_item, &mut effect),
            Err(GraphError::ItemOutOfRange { item: 9, n_items: 3 })
        ));
        // Out-of-range removal targets reject the batch just like edges do,
        // with nothing mutated (including the in-range erase listed first).
        let bad_erase = GraphDelta {
            erase_users: vec![0, 9],
            ..GraphDelta::empty()
        };
        assert!(matches!(
            g.apply_delta_into(&bad_erase, &mut effect),
            Err(GraphError::UserOutOfRange { user: 9, n_users: 4 })
        ));
        assert_eq!(g.items_of(0), &[0, 1]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn empty_and_duplicate_deltas_touch_without_mutating() {
        let mut g = sample();
        let mut effect = DeltaEffect::new();
        g.apply_delta_into(&GraphDelta::empty(), &mut effect).unwrap();
        assert!(effect.is_noop());
        // Re-adding an existing edge: no structural change, but the
        // endpoints count as touched (the re-encode treats them as dirty).
        g.apply_delta_into(
            &GraphDelta {
                add_users: 0,
                add_items: 0,
                edges: vec![(0, 0)],
                ..GraphDelta::empty()
            },
            &mut effect,
        )
        .unwrap();
        assert!(!effect.structural_change());
        assert_eq!(effect.duplicate_edges, 1);
        assert_eq!(effect.touched_users, vec![0]);
        assert_eq!(effect.touched_items, vec![0]);
        assert_eq!(g.n_edges(), 6);
        g.check_invariants().unwrap();
    }

    #[test]
    fn norm_into_matches_allocating_norms_bitwise() {
        let mut g = sample();
        let mut norm = CsrMatrix::empty(1, 1);
        let mut norm_t = CsrMatrix::empty(1, 1);
        g.norm_adjacency_into(&mut norm);
        g.norm_adjacency_transpose_into(&mut norm_t);
        assert_eq!(&norm, g.norm_adjacency().as_ref());
        assert_eq!(&norm_t, g.norm_adjacency_transpose().as_ref());
        // Still bitwise after an in-place delta (incl. a new, edge-less user
        // whose normalised row must exist and stay empty).
        g.apply_delta(&GraphDelta {
            add_users: 2,
            add_items: 1,
            edges: vec![(4, 3), (1, 0)],
            ..GraphDelta::empty()
        })
        .unwrap();
        g.norm_adjacency_into(&mut norm);
        g.norm_adjacency_transpose_into(&mut norm_t);
        assert_eq!(&norm, g.norm_adjacency().as_ref());
        assert_eq!(&norm_t, g.norm_adjacency_transpose().as_ref());
        assert_eq!(norm.rows(), 6);
        assert_eq!(norm.row_nnz(5), 0);
        assert_eq!(norm_t.rows(), 4);
    }

    #[test]
    fn removal_matches_from_scratch_construction() {
        let mut g = sample(); // edges: (0,0) (0,1) (1,1) (2,0) (2,2) (3,2)
        let delta = GraphDelta {
            remove_edges: vec![(0, 1), (3, 0), (0, 1)], // (3,0) absent; (0,1) repeated
            erase_users: vec![2],
            delist_items: vec![1],
            ..GraphDelta::empty()
        };
        let mut effect = DeltaEffect::new();
        g.apply_delta_into(&delta, &mut effect).unwrap();
        // (0,1) removed, user 2's edges (2,0)+(2,2) erased, item 1's
        // remaining edge (1,1) delisted.
        assert_eq!(effect.edges_removed, 4);
        assert_eq!(effect.missing_edges, 2);
        assert_eq!(effect.users_erased, 1);
        assert_eq!(effect.items_delisted, 1);
        assert_eq!(effect.erased_users, vec![2]);
        assert_eq!(effect.delisted_items, vec![1]);
        // Touched sets cover pre-removal endpoints: user 1 lost (1,1) to the
        // delisting, items 0 and 2 lost user 2's edges.
        assert_eq!(effect.touched_users, vec![0, 1, 2, 3]);
        assert_eq!(effect.touched_items, vec![0, 1, 2]);
        assert!(effect.structural_change());
        g.check_invariants().unwrap();

        // Entity ranges never shrink (tombstones) and the surviving edges
        // match a from-scratch construction.
        assert_eq!(g.n_users(), 4);
        assert_eq!(g.n_items(), 3);
        let reference = BipartiteGraph::new(4, 3, &[(0, 0), (3, 2)]).unwrap();
        assert_eq!(g.edges(), reference.edges());
        for u in 0..4 {
            assert_eq!(g.items_of(u), reference.items_of(u), "user {u}");
        }
        for i in 0..3 {
            assert_eq!(g.users_of(i), reference.users_of(i), "item {i}");
        }
        // The erased user is a servable tombstone: empty run, in range.
        assert!(g.items_of(2).is_empty());
        assert_eq!(g.user_degree(2), 0);
        assert!(!g.has_edge(2, 0));

        // Erasure and delisting are idempotent; missing removals are
        // counted no-ops with no structural change.
        g.apply_delta_into(&delta, &mut effect).unwrap();
        assert_eq!(effect.edges_removed, 0);
        assert_eq!(effect.missing_edges, 3);
        assert!(!effect.structural_change());
        assert_eq!(effect.erased_users, vec![2]);
        g.check_invariants().unwrap();
        assert_eq!(g.edges(), reference.edges());
    }

    #[test]
    fn grow_then_shrink_round_trips_to_the_original_graph() {
        let mut g = sample();
        let original = g.clone();
        let grow = GraphDelta {
            add_users: 1,
            add_items: 1,
            edges: vec![(4, 3), (0, 3), (4, 0)],
            ..GraphDelta::empty()
        };
        g.apply_delta(&grow).unwrap();
        let shrink = GraphDelta {
            remove_edges: vec![(0, 3)],
            erase_users: vec![4],
            delist_items: vec![3],
            ..GraphDelta::empty()
        };
        g.apply_delta(&shrink).unwrap();
        g.check_invariants().unwrap();
        // Edges and neighbourhoods round-trip exactly; the entity ranges
        // keep the grown tombstones.
        assert_eq!(g.edges(), original.edges());
        for u in 0..original.n_users() {
            assert_eq!(g.items_of(u), original.items_of(u));
        }
        for i in 0..original.n_items() {
            assert_eq!(g.users_of(i), original.users_of(i));
        }
        assert_eq!(g.n_users(), 5);
        assert_eq!(g.n_items(), 4);
        assert!(g.items_of(4).is_empty());
        assert!(g.users_of(3).is_empty());
    }

    #[test]
    fn mixed_grow_shrink_in_one_delta_applies_in_order() {
        let mut g = sample();
        // Adds an edge to user 1 and then erases user 1 in the same batch:
        // the fixed op order means the erase wins.
        let delta = GraphDelta {
            add_users: 1,
            edges: vec![(1, 2), (4, 0)],
            erase_users: vec![1],
            ..GraphDelta::empty()
        };
        let effect = g.apply_delta(&delta).unwrap();
        assert_eq!(effect.edges_added, 2);
        assert_eq!(effect.edges_removed, 2); // (1,1) and the fresh (1,2)
        assert!(g.items_of(1).is_empty());
        assert!(g.has_edge(4, 0));
        g.check_invariants().unwrap();
    }

    #[test]
    fn a_group_normalises_once_and_accumulates_the_receipt() {
        // Un-like then re-like across two deltas of one group: the re-added
        // edge is pushed while its stale entry is still listed, so the edge
        // list must be rebuilt, not merely sorted.
        let mut grouped = sample();
        let mut one_by_one = sample();
        let deltas = [
            GraphDelta {
                remove_edges: vec![(0, 1)],
                ..GraphDelta::empty()
            },
            GraphDelta {
                add_users: 1,
                edges: vec![(0, 1), (4, 2)],
                ..GraphDelta::empty()
            },
            // Out of range even after the growth above: rejected, nothing of
            // it applied, the group stays valid.
            GraphDelta {
                edges: vec![(1, 0), (5, 0)],
                ..GraphDelta::empty()
            },
            GraphDelta {
                erase_users: vec![4],
                ..GraphDelta::empty()
            },
        ];
        let mut effect = DeltaEffect::new();
        {
            let mut group = grouped.delta_group(&mut effect);
            group.apply(&deltas[0]).unwrap();
            group.apply(&deltas[1]).unwrap();
            assert!(matches!(
                group.apply(&deltas[2]),
                Err(GraphError::UserOutOfRange { user: 5, n_users: 5 })
            ));
            group.apply(&deltas[3]).unwrap();
        }
        for d in [&deltas[0], &deltas[1], &deltas[3]] {
            one_by_one.apply_delta(d).unwrap();
        }
        grouped.check_invariants().unwrap();
        assert_eq!(grouped.edges(), one_by_one.edges());
        assert!(grouped.has_edge(0, 1) && !grouped.has_edge(1, 0));
        assert_eq!(
            (
                effect.users_added,
                effect.edges_added,
                effect.edges_removed,
                effect.users_erased
            ),
            (1, 2, 2, 1)
        );
        assert_eq!(effect.touched_users, vec![0, 4]);
        assert_eq!(effect.touched_items, vec![1, 2]);
        assert_eq!(effect.erased_users, vec![4]);
    }

    #[test]
    fn norms_stay_bitwise_after_removal() {
        let mut g = sample();
        g.apply_delta(&GraphDelta {
            remove_edges: vec![(0, 0)],
            erase_users: vec![2],
            ..GraphDelta::empty()
        })
        .unwrap();
        let mut norm = CsrMatrix::empty(1, 1);
        let mut norm_t = CsrMatrix::empty(1, 1);
        g.norm_adjacency_into(&mut norm);
        g.norm_adjacency_transpose_into(&mut norm_t);
        assert_eq!(&norm, g.norm_adjacency().as_ref());
        assert_eq!(&norm_t, g.norm_adjacency_transpose().as_ref());
        // The erased user's normalised row exists and is empty; the
        // remaining rows re-normalise over their shrunken degree.
        assert_eq!(norm.rows(), 4);
        assert_eq!(norm.row_nnz(2), 0);
        let row0: f32 = norm.row_iter(0).map(|(_, v)| v).sum();
        assert!((row0 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn invariants_hold_for_empty_users_and_items() {
        // Satellite audit: a user whose item run is empty (start == end
        // after erasure) must never be conflated with "out of range".
        let mut g = sample();
        g.apply_delta(&GraphDelta {
            erase_users: vec![0],
            delist_items: vec![2],
            ..GraphDelta::empty()
        })
        .unwrap();
        g.check_invariants().unwrap();
        assert!(g.items_of(0).is_empty());
        assert!(g.users_of(2).is_empty());
        assert_eq!(g.two_hop_users(0), Vec::<u32>::new());
        assert_eq!(g.user_degree_histogram()[0], 4);
        // An all-erased graph still checks out.
        g.apply_delta(&GraphDelta {
            erase_users: (0..4).collect(),
            ..GraphDelta::empty()
        })
        .unwrap();
        g.check_invariants().unwrap();
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.n_users(), 4);
    }

    #[test]
    fn empty_graph_behaviour() {
        let g = BipartiteGraph::new(3, 3, &[]).unwrap();
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.density(), 0.0);
        assert!(g.two_hop_users(0).is_empty());
        let a = g.adjacency();
        assert_eq!(a.nnz(), 0);
    }
}
