//! Incremental graph deltas.
//!
//! A production recommender ingests interactions continuously: a cold-start
//! user arrives with a handful of source-domain clicks and must be servable
//! *now*, not after the next artifact re-freeze. A [`GraphDelta`] is the unit
//! of that ingestion — new users, new items and new edges for **one** domain
//! — and [`DeltaEffect`] is the receipt the rest of the stack consumes: which
//! entity neighbourhoods the delta addressed (the seed of the dirty-set
//! propagation in `cdrib_core::InferenceModel`) and how the graph actually
//! changed (duplicate edges collapse, exactly as they do at construction).
//!
//! Deltas are not only additive. Production systems must also *forget*: a
//! user un-likes an item ([`GraphDelta::remove_edges`]), a user invokes
//! GDPR-style erasure ([`GraphDelta::erase_users`]), an item is delisted
//! ([`GraphDelta::delist_items`]). Removal never shrinks the entity ranges —
//! ids are stable tombstones; an erased user keeps its index with an empty
//! neighbour list, a delisted item keeps its catalogue slot — so every
//! derived table keeps its shape and only the affected rows go dirty.
//! Shrinking a neighbourhood propagates dirty sets exactly like growing one;
//! the receipt records which rows that touched.
//!
//! Deltas also serialize (via the workspace serde stand-in): the serving
//! layer's write-ahead log persists every accepted batch, so the encoded
//! form is a durability format, pinned bitwise by
//! `tests/artifact_roundtrip.rs`.

use crate::error::{GraphError, Result};
use serde::{Deserialize, Serialize};

/// A batch of changes — growth *and* retraction — to one domain's bipartite
/// interaction graph.
///
/// Indices may reference entities the same delta introduces: with
/// `add_users = 2` on a 10-user graph, users `10` and `11` are valid edge
/// endpoints (and valid erasure targets). Within one delta the ops apply in
/// a fixed order: add entities, add edges, remove edges, erase users, delist
/// items — so `edges: [(u, i)]` plus `erase_users: [u]` leaves `u` erased.
/// Application is atomic — any out-of-range index rejects the whole batch
/// before anything is mutated. Removing an interaction that does not exist
/// is a counted no-op (see [`DeltaEffect::missing_edges`]), not an error,
/// mirroring how duplicate additions collapse.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Number of new users appended after the current user range.
    pub add_users: usize,
    /// Number of new items appended after the current item range.
    pub add_items: usize,
    /// New `(user, item)` interactions; duplicates (against the graph or
    /// within the batch) are collapsed, matching construction semantics.
    pub edges: Vec<(u32, u32)>,
    /// `(user, item)` interactions to retract (a user un-likes). Pairs not
    /// present are counted no-ops.
    pub remove_edges: Vec<(u32, u32)>,
    /// Users to erase GDPR-style: every interaction of the user is removed.
    /// The id remains valid (tombstone) and serves an empty neighbourhood;
    /// erasing an already-empty user is idempotent.
    pub erase_users: Vec<u32>,
    /// Items to delist from the catalogue: every interaction of the item is
    /// removed and the serving layer excludes the id from top-K. The id
    /// keeps its slot so served item ids stay stable; idempotent.
    pub delist_items: Vec<u32>,
}

impl GraphDelta {
    /// A delta that changes nothing.
    pub fn empty() -> Self {
        GraphDelta::default()
    }

    /// Whether the delta requests no change at all.
    pub fn is_empty(&self) -> bool {
        self.add_users == 0
            && self.add_items == 0
            && self.edges.is_empty()
            && self.remove_edges.is_empty()
            && self.erase_users.is_empty()
            && self.delist_items.is_empty()
    }

    /// Validates every referenced index — added and removed edges, erased
    /// users, delisted items — against the *post-add* entity ranges of a
    /// graph currently holding `n_users` × `n_items`, without mutating
    /// anything. This is the exact acceptance predicate of
    /// [`apply_delta_into`](crate::BipartiteGraph::apply_delta_into) (whose
    /// atomicity it implements), factored out so a durability layer can
    /// establish *before* appending a delta to its write-ahead log that the
    /// graph will accept it — a logged record must never be one the live
    /// apply would then reject. (Removing a *missing* edge is a counted
    /// no-op, not a bounds failure, so the predicate stays infallible-after.)
    pub fn check_bounds(&self, n_users: usize, n_items: usize) -> Result<()> {
        let new_users = n_users + self.add_users;
        let new_items = n_items + self.add_items;
        let check_user = |u: u32| {
            if u as usize >= new_users {
                Err(GraphError::UserOutOfRange {
                    user: u as usize,
                    n_users: new_users,
                })
            } else {
                Ok(())
            }
        };
        let check_item = |i: u32| {
            if i as usize >= new_items {
                Err(GraphError::ItemOutOfRange {
                    item: i as usize,
                    n_items: new_items,
                })
            } else {
                Ok(())
            }
        };
        for &(u, i) in self.edges.iter().chain(&self.remove_edges) {
            check_user(u)?;
            check_item(i)?;
        }
        for &u in &self.erase_users {
            check_user(u)?;
        }
        for &i in &self.delist_items {
            check_item(i)?;
        }
        Ok(())
    }
}

/// What applying a [`GraphDelta`] did, with reusable storage: the touched
/// lists keep their capacity across batches, so steady-state ingestion of
/// same-shaped deltas never allocates (`tests/alloc_regression.rs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaEffect {
    /// Users appended by the delta.
    pub users_added: usize,
    /// Items appended by the delta.
    pub items_added: usize,
    /// Edges actually inserted (duplicates excluded).
    pub edges_added: usize,
    /// Edges skipped because the interaction already existed (in the graph
    /// or earlier in the same batch).
    pub duplicate_edges: usize,
    /// Edges actually retracted (explicit removals plus edges dropped by
    /// erasures and delistings).
    pub edges_removed: usize,
    /// Removal requests that named an interaction not present (already
    /// removed, or never existed) — counted no-ops, mirroring
    /// [`DeltaEffect::duplicate_edges`] on the additive side.
    pub missing_edges: usize,
    /// Users erased by the delta (counted even when already empty — erasure
    /// is idempotent but the request is acknowledged).
    pub users_erased: usize,
    /// Items delisted by the delta (counted even when already edge-less).
    pub items_delisted: usize,
    /// Sorted, deduplicated users whose neighbourhood the delta addressed:
    /// every added or removed edge endpoint (including duplicates and
    /// missing removals — re-encoding an unchanged row is idempotent, so
    /// over-approximating costs work, never correctness), every newly added
    /// user, every erased user, and every former neighbour of a delisted
    /// item. Removal endpoints are captured against the *pre-removal*
    /// adjacency, so the dirty set covers every row whose neighbourhood
    /// shrank.
    pub touched_users: Vec<u32>,
    /// Sorted, deduplicated items, same notion as
    /// [`DeltaEffect::touched_users`].
    pub touched_items: Vec<u32>,
    /// Sorted, deduplicated users the delta erased. Consumers zero the raw
    /// embedding rows of these ids (the GDPR guarantee: no trace of the
    /// user's representation survives, only the tombstoned index).
    pub erased_users: Vec<u32>,
    /// Sorted, deduplicated items the delta delisted. Consumers add these to
    /// their serving-exclusion sets (catalogue tombstones).
    pub delisted_items: Vec<u32>,
}

impl DeltaEffect {
    /// Fresh, empty effect storage.
    pub fn new() -> Self {
        DeltaEffect::default()
    }

    /// Resets the counters and clears the touched lists, keeping capacity.
    pub fn clear(&mut self) {
        self.users_added = 0;
        self.items_added = 0;
        self.edges_added = 0;
        self.duplicate_edges = 0;
        self.edges_removed = 0;
        self.missing_edges = 0;
        self.users_erased = 0;
        self.items_delisted = 0;
        self.touched_users.clear();
        self.touched_items.clear();
        self.erased_users.clear();
        self.delisted_items.clear();
    }

    /// Whether the graph structure actually changed (entities appended,
    /// edges inserted or edges retracted). A duplicate-only or
    /// missing-removal-only delta leaves the graph — and every normalised
    /// view of it — identical.
    pub fn structural_change(&self) -> bool {
        self.users_added > 0 || self.items_added > 0 || self.edges_added > 0 || self.edges_removed > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_noop_semantics() {
        assert!(GraphDelta::empty().is_empty());
        assert!(!GraphDelta {
            add_users: 1,
            ..GraphDelta::empty()
        }
        .is_empty());
        assert!(!GraphDelta {
            remove_edges: vec![(0, 0)],
            ..GraphDelta::empty()
        }
        .is_empty());
        assert!(!GraphDelta {
            erase_users: vec![2],
            ..GraphDelta::empty()
        }
        .is_empty());
        assert!(!GraphDelta {
            delist_items: vec![1],
            ..GraphDelta::empty()
        }
        .is_empty());

        let mut effect = DeltaEffect::new();
        assert_eq!(effect, DeltaEffect::new());
        effect.duplicate_edges = 1;
        effect.touched_users.push(3);
        assert!(!effect.structural_change());
        effect.clear();
        assert_eq!(effect, DeltaEffect::new());
        effect.edges_added = 2;
        assert!(effect.structural_change());
        effect.clear();
        effect.edges_removed = 1;
        assert!(effect.structural_change());
        effect.clear();
        // An erasure of an already-empty user changes no edge, but the
        // receipt still reports it (the serving layer must zero the row).
        effect.users_erased = 1;
        effect.erased_users.push(4);
        assert!(!effect.structural_change());
        effect.clear();
        assert_eq!(effect, DeltaEffect::new());
    }

    #[test]
    fn check_bounds_covers_removal_ops() {
        let d = GraphDelta {
            add_users: 1, // post-add range 0..4 on a 3-user graph
            remove_edges: vec![(3, 1)],
            erase_users: vec![3],
            delist_items: vec![2],
            ..GraphDelta::empty()
        };
        assert!(d.check_bounds(3, 3).is_ok());
        let bad_remove = GraphDelta {
            remove_edges: vec![(0, 9)],
            ..GraphDelta::empty()
        };
        assert!(matches!(
            bad_remove.check_bounds(3, 3),
            Err(GraphError::ItemOutOfRange { item: 9, n_items: 3 })
        ));
        let bad_erase = GraphDelta {
            erase_users: vec![5],
            ..GraphDelta::empty()
        };
        assert!(matches!(
            bad_erase.check_bounds(3, 3),
            Err(GraphError::UserOutOfRange { user: 5, n_users: 3 })
        ));
        let bad_delist = GraphDelta {
            delist_items: vec![7],
            ..GraphDelta::empty()
        };
        assert!(matches!(
            bad_delist.check_bounds(3, 3),
            Err(GraphError::ItemOutOfRange { item: 7, n_items: 3 })
        ));
    }
}
