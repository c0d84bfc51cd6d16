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
///
/// The edge set is held once per side: the per-user lists, concatenated in
/// user order, *are* the lexicographically sorted edge list
/// ([`BipartiteGraph::edges`], the rows of `A`), and the per-item lists are
/// their transpose (the rows of `A^T`).
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    n_users: usize,
    n_items: usize,
    /// Number of distinct interactions, kept in step by every mutation.
    n_edges: usize,
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
        let mut n_edges = 0;
        for (u, items) in user_items.iter_mut().enumerate() {
            items.sort_unstable();
            items.dedup();
            n_edges += items.len();
            for &i in items.iter() {
                item_users[i as usize].push(u as u32);
            }
        }
        Ok(BipartiteGraph {
            n_users,
            n_items,
            n_edges,
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
        self.n_edges
    }

    /// The deduplicated `(user, item)` edges in lexicographic order, walked
    /// off the per-user lists.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.user_items
            .iter()
            .enumerate()
            .flat_map(|(u, items)| items.iter().map(move |&i| (u as u32, i)))
    }

    /// Density of the interaction matrix.
    pub fn density(&self) -> f64 {
        if self.n_users == 0 || self.n_items == 0 {
            return 0.0;
        }
        self.n_edges as f64 / (self.n_users as f64 * self.n_items as f64)
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

    /// The binary adjacency matrix `A` (`n_users x n_items`), its rows the
    /// per-user lists.
    pub fn adjacency(&self) -> CsrMatrix {
        CsrMatrix::from_sorted_rows(self.n_users, self.n_items, |u| self.user_items[u].as_slice())
    }

    /// Row-normalised adjacency `Norm(A)` used to aggregate item information
    /// into users (Eq. 3), built by [`BipartiteGraph::norm_adjacency_into`]
    /// into fresh storage.
    pub fn norm_adjacency(&self) -> Arc<CsrMatrix> {
        let mut out = CsrMatrix::empty(0, 0);
        self.norm_adjacency_into(&mut out);
        Arc::new(out)
    }

    /// Row-normalised transposed adjacency `Norm(A^T)` used to aggregate user
    /// information into items (Eq. 2), built by
    /// [`BipartiteGraph::norm_adjacency_transpose_into`] into fresh storage.
    pub fn norm_adjacency_transpose(&self) -> Arc<CsrMatrix> {
        let mut out = CsrMatrix::empty(0, 0);
        self.norm_adjacency_transpose_into(&mut out);
        Arc::new(out)
    }

    /// Symmetrically-normalised adjacency `D_u^{-1/2} A D_i^{-1/2}` used by
    /// GCN-style baselines (NGCF, PPGN).
    pub fn sym_adjacency(&self) -> Arc<CsrMatrix> {
        Arc::new(self.adjacency().sym_normalized())
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
    /// sorted and deduplicated, the two sides mutually consistent (the
    /// sorted-CSR invariant `adjacency()` relies on), the edge count in step
    /// — which `tests/delta_parity.rs` pins against arbitrary mixed
    /// grow/shrink batches.
    ///
    /// Cost: O(delta) — per edge a `binary_search` and a short `Vec::insert`
    /// / `remove` in one user's and one item's neighbour list; nothing walks
    /// the whole graph. On the benchmark's small engine (≈ 7 000 edges per
    /// domain, 2-vCPU AVX-512 box) `bench_suite`'s cache-cold
    /// `graph.apply_us` is ≈ 3 µs per delta. Duplicate-only and
    /// missing-removal-only batches mutate nothing and the touched lists
    /// reuse their capacity, so repeated same-shaped deltas run
    /// allocation-free; structural growth allocates amortised, like any
    /// `Vec` push, and removal only shrinks existing storage.
    pub fn apply_delta_into(&mut self, delta: &GraphDelta, effect: &mut DeltaEffect) -> Result<()> {
        self.delta_group(effect).apply(delta)
    }

    /// Opens a group of deltas on this graph: **apply many, normalise the
    /// receipt once**. Each [`DeltaGroup::apply`] validates and applies one
    /// delta in O(delta) and *accumulates* its receipt into `effect`
    /// (cleared here); the receipt's sort/dedup runs once, when the returned
    /// guard is dropped. The graph itself is consistent after every apply —
    /// [`BipartiteGraph::check_invariants`] holds whenever it is reachable.
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
    /// one neighbour list per entity, user lists sorted, deduplicated and in
    /// range, the item side exactly the transpose of the user side (which
    /// makes it sorted, deduplicated and in range too, and `adjacency()`'s
    /// CSR row offsets monotone by construction), and the edge counter equal
    /// to the adjacency's size. O(E): walking the users in order hands each
    /// item its users in ascending order, so one cursor per item checks the
    /// item side without a search. The delta-invariant proptests call it
    /// after every batch, and decoding calls it on every graph it reads.
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |detail: String| Err(GraphError::InvariantViolation { detail });
        if self.user_items.len() != self.n_users || self.item_users.len() != self.n_items {
            return fail(format!(
                "{} user / {} item neighbour lists for a {} x {} graph",
                self.user_items.len(),
                self.item_users.len(),
                self.n_users,
                self.n_items
            ));
        }
        let mut cursor = vec![0usize; self.n_items];
        let mut n_edges = 0usize;
        for (u, items) in self.user_items.iter().enumerate() {
            if !items.windows(2).all(|w| w[0] < w[1]) {
                return fail(format!("user {u}: neighbour list not sorted/deduplicated"));
            }
            for &i in items {
                let Some(users) = self.item_users.get(i as usize) else {
                    return fail(format!("user {u}: item {i} out of range"));
                };
                let next = &mut cursor[i as usize];
                if users.get(*next) != Some(&(u as u32)) {
                    return fail(format!("edge ({u}, {i}) out of step with the item side"));
                }
                *next += 1;
            }
            n_edges += items.len();
        }
        for (i, users) in self.item_users.iter().enumerate() {
            if cursor[i] != users.len() {
                return fail(format!(
                    "item {i}: lists {} users, the user side {}",
                    users.len(),
                    cursor[i]
                ));
            }
        }
        if self.n_edges != n_edges {
            return fail(format!(
                "edge counter holds {} but the adjacency holds {n_edges}",
                self.n_edges
            ));
        }
        Ok(())
    }

    /// Rebuilds `Norm(A)` **into** existing CSR storage (no allocation once
    /// the storage capacity covers the edge count). Values are bitwise
    /// identical to `CsrMatrix::from_edges(..).row_normalized()` — see
    /// [`CsrMatrix::rebuild_row_normalized_uniform`].
    pub fn norm_adjacency_into(&self, out: &mut CsrMatrix) {
        out.rebuild_row_normalized_uniform(self.n_users, self.n_items, |u| self.user_items[u].as_slice());
    }

    /// Rebuilds `Norm(A^T)` **into** existing CSR storage; bitwise identical
    /// to the transpose of `CsrMatrix::from_edges(..)`, row-normalised.
    pub fn norm_adjacency_transpose_into(&self, out: &mut CsrMatrix) {
        out.rebuild_row_normalized_uniform(self.n_items, self.n_users, |i| self.item_users[i].as_slice());
    }

    /// Returns a new graph containing only the edges whose user passes the
    /// `keep` predicate (items keep their indices). Used to hide cold-start
    /// users' target-domain interactions during training.
    pub fn filter_users<F: Fn(usize) -> bool>(&self, keep: F) -> BipartiteGraph {
        let edges: Vec<(usize, usize)> = self
            .edges()
            .filter(|&(u, _)| keep(u as usize))
            .map(|(u, i)| (u as usize, i as usize))
            .collect();
        BipartiteGraph::new(self.n_users, self.n_items, &edges).expect("filtered edges remain in range")
    }
}

/// Encodes `n_users`, `n_items`, the sorted `(user, item)` list, the per-user
/// lists and the per-item lists. The flat list duplicates the per-user lists
/// but is part of the format v1 model artifacts carry, so it is written,
/// walked off the per-user lists.
impl Serialize for BipartiteGraph {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.n_users.serialize(out);
        self.n_items.serialize(out);
        self.n_edges.serialize(out);
        for edge in self.edges() {
            edge.serialize(out);
        }
        self.user_items.serialize(out);
        self.item_users.serialize(out);
    }
}

/// Decoding validates what it reads, in O(E): the
/// [`BipartiteGraph::check_invariants`] of the two sides, then the flat list
/// against the per-user lists, which it then drops. A damaged or crafted
/// graph is a [`serde::Error::Custom`], never a panic in its first consumer.
impl<'de> Deserialize<'de> for BipartiteGraph {
    fn deserialize(input: &mut &'de [u8]) -> std::result::Result<Self, serde::Error> {
        let n_users = usize::deserialize(input)?;
        let n_items = usize::deserialize(input)?;
        let flat = Vec::<(u32, u32)>::deserialize(input)?;
        let graph = BipartiteGraph {
            n_users,
            n_items,
            n_edges: flat.len(),
            user_items: Deserialize::deserialize(input)?,
            item_users: Deserialize::deserialize(input)?,
        };
        graph.check_invariants().map_err(serde::Error::custom)?;
        if !graph.edges().eq(flat) {
            return Err(serde::Error::custom(
                "graph edge list disagrees with its neighbour lists",
            ));
        }
        Ok(graph)
    }
}

/// An open group of deltas on one [`BipartiteGraph`], created by
/// [`BipartiteGraph::delta_group`]. Dropping it finishes the group: the
/// accumulated receipt is normalised (the graph needs no finishing).
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
            n_edges,
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
                    *n_edges += 1;
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
                    *n_edges -= 1;
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
            }
            *n_edges -= user_items[u as usize].len();
            effect.edges_removed += user_items[u as usize].len();
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
            }
            *n_edges -= item_users[i as usize].len();
            effect.edges_removed += item_users[i as usize].len();
            item_users[i as usize].clear();
        }
        Ok(())
    }
}

impl Drop for DeltaGroup<'_> {
    fn drop(&mut self) {
        let effect = &mut *self.effect;
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

    fn edge_list(g: &BipartiteGraph) -> Vec<(u32, u32)> {
        g.edges().collect()
    }

    /// `Norm(A)` and `Norm(A^T)` through the triplet construction, the
    /// reference the per-side rebuilds must equal bitwise.
    fn reference_norms(g: &BipartiteGraph) -> (CsrMatrix, CsrMatrix) {
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, i)| (u as usize, i as usize)).collect();
        let a = CsrMatrix::from_edges(g.n_users(), g.n_items(), &edges).unwrap();
        (a.row_normalized(), a.transpose().row_normalized())
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
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, i)| (u as usize, i as usize)).collect();
        assert_eq!(a, CsrMatrix::from_edges(4, 3, &edges).unwrap());
        assert_eq!(edges, [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2), (3, 2)]);
        let norm = g.norm_adjacency();
        let row0: f32 = norm.row_iter(0).map(|(_, v)| v).sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        let norm_t = g.norm_adjacency_transpose();
        assert_eq!(norm_t.rows(), 3);
        assert_eq!(norm_t.cols(), 4);
        let sym = g.sym_adjacency();
        assert_eq!(sym.rows(), 4);
    }

    #[test]
    fn sym_adjacency_transposes_bitwise() {
        // The GCN baselines multiply by the transpose of `sym_adjacency` on
        // the item side; it must equal the symmetric normalisation of `A^T`
        // to the bit (each value is `1 / (sqrt(d_u) sqrt(d_i))` either way).
        let edges: Vec<(usize, usize)> = (0..40usize)
            .flat_map(|u| {
                (0..25usize)
                    .filter(move |i| (u * 7 + i * 3) % 5 < 1 + u % 3)
                    .map(move |i| (u, i))
            })
            .collect();
        let g = BipartiteGraph::new(40, 25, &edges).unwrap();
        let via_transpose = g.sym_adjacency().transpose();
        let direct = g.adjacency().transpose().sym_normalized();
        assert_eq!(via_transpose.rows(), 25);
        for r in 0..25 {
            let a: Vec<(usize, u32)> = via_transpose.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect();
            let b: Vec<(usize, u32)> = direct.row_iter(r).map(|(c, v)| (c, v.to_bits())).collect();
            assert_eq!(a, b, "row {r}");
        }
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
    fn filter_users_removes_their_edges() {
        let g = sample();
        let filtered = g.filter_users(|u| u != 0);
        assert_eq!(filtered.n_edges(), 4);
        assert!(!filtered.has_edge(0, 0));
        assert!(filtered.has_edge(2, 2));
        assert_eq!(filtered.n_users(), g.n_users());
        filtered.check_invariants().unwrap();
        assert_eq!(edge_list(&filtered), [(1, 1), (2, 0), (2, 2), (3, 2)]);
        assert_eq!(filtered.users_of(0), &[2]);
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
        assert_eq!(edge_list(&g), edge_list(&reference));
        assert_eq!(g.n_edges(), reference.n_edges());
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
        let before_edges = edge_list(&g);
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
        assert_eq!(edge_list(&g), before_edges);
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
        assert_eq!(effect, DeltaEffect::new());
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
        let (want, want_t) = reference_norms(&g);
        assert_eq!(norm, want);
        assert_eq!(norm_t, want_t);
        assert_eq!(g.norm_adjacency().as_ref(), &want);
        assert_eq!(g.norm_adjacency_transpose().as_ref(), &want_t);
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
        let (want, want_t) = reference_norms(&g);
        assert_eq!(norm, want);
        assert_eq!(norm_t, want_t);
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
        assert_eq!(edge_list(&g), edge_list(&reference));
        assert_eq!(g.n_edges(), 2);
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
        assert_eq!(edge_list(&g), edge_list(&reference));
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
        assert_eq!(edge_list(&g), edge_list(&original));
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
        // edge must come back exactly once, in place.
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
        assert_eq!(edge_list(&grouped), edge_list(&one_by_one));
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
        let (want, want_t) = reference_norms(&g);
        assert_eq!(norm, want);
        assert_eq!(norm_t, want_t);
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

    /// `serde::to_bytes` of `BipartiteGraph::new(3, 4, &[(0, 1), (2, 3)])`,
    /// captured from the derived encoding of the graph that still stored a
    /// flat edge list. v1 model artifacts carry these bytes, so the
    /// hand-written impls must reproduce them exactly.
    #[rustfmt::skip]
    const GOLDEN_3X4: &[u8] = &[
        3, 0, 0, 0, 0, 0, 0, 0, // n_users
        4, 0, 0, 0, 0, 0, 0, 0, // n_items
        2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, // edges (0, 1) (2, 3)
        3, 0, 0, 0, 0, 0, 0, 0, // 3 user lists
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, // [1]
        0, 0, 0, 0, 0, 0, 0, 0, // []
        1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, // [3]
        4, 0, 0, 0, 0, 0, 0, 0, // 4 item lists
        0, 0, 0, 0, 0, 0, 0, 0, // []
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // [0]
        0, 0, 0, 0, 0, 0, 0, 0, // []
        1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, // [2]
    ];

    /// The same graph after one group that adds `(1, 0)` and removes
    /// `(0, 1)`, captured the same way.
    #[rustfmt::skip]
    const GOLDEN_3X4_AFTER_GROUP: &[u8] = &[
        3, 0, 0, 0, 0, 0, 0, 0, // n_users
        4, 0, 0, 0, 0, 0, 0, 0, // n_items
        2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, // edges (1, 0) (2, 3)
        3, 0, 0, 0, 0, 0, 0, 0, // 3 user lists
        0, 0, 0, 0, 0, 0, 0, 0, // []
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // [0]
        1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, // [3]
        4, 0, 0, 0, 0, 0, 0, 0, // 4 item lists
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, // [1]
        0, 0, 0, 0, 0, 0, 0, 0, // []
        0, 0, 0, 0, 0, 0, 0, 0, // []
        1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, // [2]
    ];

    #[test]
    fn encoding_matches_the_flat_list_layout_byte_for_byte() {
        let mut g = BipartiteGraph::new(3, 4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(serde::to_bytes(&g), GOLDEN_3X4);
        let mut effect = DeltaEffect::new();
        g.delta_group(&mut effect)
            .apply(&GraphDelta {
                edges: vec![(1, 0)],
                remove_edges: vec![(0, 1)],
                ..GraphDelta::empty()
            })
            .unwrap();
        assert_eq!(serde::to_bytes(&g), GOLDEN_3X4_AFTER_GROUP);

        for (bytes, edges) in [
            (GOLDEN_3X4, [(0, 1), (2, 3)]),
            (GOLDEN_3X4_AFTER_GROUP, [(1, 0), (2, 3)]),
        ] {
            let back: BipartiteGraph = serde::from_bytes(bytes).unwrap();
            assert_eq!((back.n_users(), back.n_items(), back.n_edges()), (3, 4, 2));
            assert_eq!(edge_list(&back), edges);
            for (u, i) in edges {
                assert_eq!(back.items_of(u as usize), &[i]);
                assert_eq!(back.users_of(i as usize), &[u]);
            }
            assert_eq!(serde::to_bytes(&back), bytes);
        }
    }

    #[test]
    fn decoding_rejects_graphs_that_break_an_invariant() {
        // (byte offset into GOLDEN_3X4, patched value, expected complaint)
        let cases = [
            (8, 2, "3 user / 4 item neighbour lists for a 3 x 2 graph"),
            (76, 9, "user 2: item 9 out of range"),
            (56, 3, "edge (0, 3) out of step with the item side"),
            (104, 2, "edge (0, 1) out of step with the item side"),
            (124, 1, "edge (2, 3) out of step with the item side"),
            (36, 2, "graph edge list disagrees with its neighbour lists"),
        ];
        for (offset, value, want) in cases {
            let mut bytes = GOLDEN_3X4.to_vec();
            bytes[offset] = value;
            let got = serde::from_bytes::<BipartiteGraph>(&bytes).err();
            assert!(
                matches!(&got, Some(serde::Error::Custom(msg)) if msg.contains(want)),
                "patch {offset} -> {value}: {got:?}"
            );
        }
    }

    #[test]
    fn check_invariants_names_each_broken_invariant() {
        let broken = |edit: fn(&mut BipartiteGraph)| {
            let mut g = sample();
            edit(&mut g);
            match g.check_invariants() {
                Err(GraphError::InvariantViolation { detail }) => detail,
                other => panic!("expected a violation, got {other:?}"),
            }
        };
        assert_eq!(
            broken(|g| g.user_items[0].swap(0, 1)),
            "user 0: neighbour list not sorted/deduplicated"
        );
        assert_eq!(
            broken(|g| g.item_users[0].push(3)),
            "item 0: lists 3 users, the user side 2"
        );
        assert_eq!(
            broken(|g| g.n_edges += 1),
            "edge counter holds 7 but the adjacency holds 6"
        );
    }
}
