//! Raw (pre-split) cross-domain interaction data and the paper's
//! preprocessing pipeline.
//!
//! A [`RawCdrData`] mirrors what one obtains after parsing two Amazon review
//! dumps and intersecting their user sets: two domains whose user index
//! spaces share a common prefix of *overlapping* users, plus an interaction
//! edge list per domain. The paper's preprocessing (§IV-A) — dropping items
//! with fewer than 10 interactions and users with fewer than 5 — is
//! implemented by [`RawCdrData::filtered`].

use crate::error::{DataError, Result};
use serde::{Deserialize, Serialize};

/// Raw interactions of a single domain.
///
/// Users are indexed so that indices `0..n_overlap` (stored on the parent
/// [`RawCdrData`]) refer to the *same* natural users in both domains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RawDomain {
    /// Human-readable domain name (e.g. "Music").
    pub name: String,
    /// Number of users in this domain (overlapping users first).
    pub n_users: usize,
    /// Number of items in this domain.
    pub n_items: usize,
    /// `(user, item)` interaction pairs (may contain duplicates).
    pub edges: Vec<(u32, u32)>,
}

impl RawDomain {
    /// Number of interactions.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Density of the interaction matrix.
    pub fn density(&self) -> f64 {
        if self.n_users == 0 || self.n_items == 0 {
            return 0.0;
        }
        self.edges.len() as f64 / (self.n_users as f64 * self.n_items as f64)
    }
}

/// A pair of domains sharing `n_overlap` users.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RawCdrData {
    /// Domain `X` of the paper.
    pub x: RawDomain,
    /// Domain `Y` of the paper.
    pub y: RawDomain,
    /// Number of overlapping users; they occupy indices `0..n_overlap` in
    /// both domains.
    pub n_overlap: usize,
}

impl RawCdrData {
    /// Validates the basic structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.n_overlap > self.x.n_users || self.n_overlap > self.y.n_users {
            return Err(DataError::InvalidConfig {
                field: "n_overlap",
                detail: format!(
                    "n_overlap={} exceeds a domain's user count ({} / {})",
                    self.n_overlap, self.x.n_users, self.y.n_users
                ),
            });
        }
        for dom in [&self.x, &self.y] {
            for &(u, i) in &dom.edges {
                if u as usize >= dom.n_users {
                    return Err(DataError::IndexOutOfRange {
                        entity: "user",
                        index: u as usize,
                        bound: dom.n_users,
                    });
                }
                if i as usize >= dom.n_items {
                    return Err(DataError::IndexOutOfRange {
                        entity: "item",
                        index: i as usize,
                        bound: dom.n_items,
                    });
                }
            }
        }
        Ok(())
    }

    /// Applies the paper's preprocessing: iteratively drops items with fewer
    /// than `min_item_interactions` interactions and users with fewer than
    /// `min_user_interactions` interactions in their domain, then compacts
    /// the index spaces.
    ///
    /// The overlapping-user prefix is preserved: a formerly-overlapping user
    /// that survives in only one domain becomes a regular non-overlapping
    /// user of that domain. Returns the filtered data together with the
    /// mapping from old overlap indices to new overlap indices.
    pub fn filtered(&self, min_user_interactions: usize, min_item_interactions: usize) -> Result<RawCdrData> {
        self.validate()?;
        let mut keep_user_x = vec![true; self.x.n_users];
        let mut keep_item_x = vec![true; self.x.n_items];
        let mut keep_user_y = vec![true; self.y.n_users];
        let mut keep_item_y = vec![true; self.y.n_items];

        // Iterate the filter until a fixed point: removing an item can push a
        // user below the threshold and vice versa.
        loop {
            let mut changed = false;
            for (dom, keep_user, keep_item) in [
                (&self.x, &mut keep_user_x, &mut keep_item_x),
                (&self.y, &mut keep_user_y, &mut keep_item_y),
            ] {
                let mut user_counts = vec![0usize; dom.n_users];
                let mut item_counts = vec![0usize; dom.n_items];
                for &(u, i) in &dom.edges {
                    if keep_user[u as usize] && keep_item[i as usize] {
                        user_counts[u as usize] += 1;
                        item_counts[i as usize] += 1;
                    }
                }
                for (u, &c) in user_counts.iter().enumerate() {
                    if keep_user[u] && c < min_user_interactions {
                        keep_user[u] = false;
                        changed = true;
                    }
                }
                for (i, &c) in item_counts.iter().enumerate() {
                    if keep_item[i] && c < min_item_interactions {
                        keep_item[i] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Users that survive in both domains stay overlapping; build the new
        // ordering with surviving overlap users first.
        let surviving_overlap: Vec<usize> = (0..self.n_overlap)
            .filter(|&u| keep_user_x[u] && keep_user_y[u])
            .collect();
        let new_overlap = surviving_overlap.len();

        let remap_domain = |dom: &RawDomain,
                            keep_user: &[bool],
                            keep_item: &[bool],
                            surviving_overlap: &[usize]|
         -> Result<RawDomain> {
            let mut user_map = vec![usize::MAX; dom.n_users];
            let mut next = 0usize;
            for &u in surviving_overlap {
                user_map[u] = next;
                next += 1;
            }
            for u in 0..dom.n_users {
                // A previously overlapping user that survives here but not in
                // the other domain becomes a plain domain user.
                if keep_user[u] && user_map[u] == usize::MAX {
                    user_map[u] = next;
                    next += 1;
                }
            }
            let n_users = next;
            let mut item_map = vec![usize::MAX; dom.n_items];
            let mut next_item = 0usize;
            for (i, &k) in keep_item.iter().enumerate() {
                if k {
                    item_map[i] = next_item;
                    next_item += 1;
                }
            }
            let n_items = next_item;
            let edges: Vec<(u32, u32)> = dom
                .edges
                .iter()
                .filter(|&&(u, i)| keep_user[u as usize] && keep_item[i as usize])
                .map(|&(u, i)| (user_map[u as usize] as u32, item_map[i as usize] as u32))
                .collect();
            if edges.is_empty() || n_users == 0 || n_items == 0 {
                return Err(DataError::EmptyDataset { stage: "filter" });
            }
            Ok(RawDomain {
                name: dom.name.clone(),
                n_users,
                n_items,
                edges,
            })
        };

        let x = remap_domain(&self.x, &keep_user_x, &keep_item_x, &surviving_overlap)?;
        let y = remap_domain(&self.y, &keep_user_y, &keep_item_y, &surviving_overlap)?;
        let out = RawCdrData {
            x,
            y,
            n_overlap: new_overlap,
        };
        out.validate()?;
        if out.n_overlap == 0 {
            return Err(DataError::EmptyDataset {
                stage: "filter (overlap users)",
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> RawCdrData {
        // 3 overlap users (0,1,2); X has 1 extra user (3), Y has 2 extra (3,4).
        // Give everyone >= 2 interactions; items have varying popularity.
        RawCdrData {
            x: RawDomain {
                name: "X".into(),
                n_users: 4,
                n_items: 4,
                edges: vec![(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (3, 1), (3, 0), (3, 2)],
            },
            y: RawDomain {
                name: "Y".into(),
                n_users: 5,
                n_items: 3,
                edges: vec![
                    (0, 0),
                    (0, 1),
                    (1, 0),
                    (1, 1),
                    (2, 0),
                    (2, 2),
                    (3, 1),
                    (3, 0),
                    (4, 0),
                    (4, 2),
                ],
            },
            n_overlap: 3,
        }
    }

    #[test]
    fn validate_catches_bad_indices() {
        let mut d = toy();
        assert!(d.validate().is_ok());
        d.x.edges.push((99, 0));
        assert!(d.validate().is_err());
        let mut d2 = toy();
        d2.y.edges.push((0, 99));
        assert!(d2.validate().is_err());
        let mut d3 = toy();
        d3.n_overlap = 100;
        assert!(d3.validate().is_err());
    }

    #[test]
    fn domain_stats() {
        let d = toy();
        assert_eq!(d.x.n_edges(), 9);
        assert!(d.x.density() > 0.0);
        let empty = RawDomain {
            name: "E".into(),
            n_users: 0,
            n_items: 0,
            edges: vec![],
        };
        assert_eq!(empty.density(), 0.0);
    }

    #[test]
    fn filter_removes_rare_items_and_keeps_overlap_prefix() {
        let d = toy();
        // item 3 in X has zero interactions and must disappear; with
        // min_item=2 every other item survives, with min_user=2 all users
        // survive.
        let f = d.filtered(2, 2).unwrap();
        assert_eq!(f.x.n_items, 3);
        assert_eq!(f.n_overlap, 3);
        assert_eq!(f.x.n_users, 4);
        assert_eq!(f.y.n_users, 5);
        assert!(f.validate().is_ok());
        // All edges still reference valid indices after compaction.
        for &(u, i) in &f.x.edges {
            assert!((u as usize) < f.x.n_users && (i as usize) < f.x.n_items);
        }
    }

    #[test]
    fn filter_cascades_until_fixed_point() {
        // user 3 in X only interacts with item 2; item 2 only has users 1 and 3.
        // Requiring 3 interactions per item wipes out item 2, which drops user 3
        // below 2 interactions if we also require 2 per user... construct a chain.
        let d = RawCdrData {
            x: RawDomain {
                name: "X".into(),
                n_users: 3,
                n_items: 2,
                edges: vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)],
            },
            y: RawDomain {
                name: "Y".into(),
                n_users: 3,
                n_items: 2,
                edges: vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
            },
            n_overlap: 3,
        };
        let f = d.filtered(2, 2).unwrap();
        // user 2 in X has only 1 interaction and is dropped there but stays in Y
        // as a non-overlapping user; overlap shrinks to users 0 and 1.
        assert_eq!(f.n_overlap, 2);
        assert_eq!(f.x.n_users, 2);
        assert_eq!(f.y.n_users, 3);
    }

    #[test]
    fn filter_that_wipes_everything_errors() {
        let d = toy();
        assert!(matches!(d.filtered(100, 100), Err(DataError::EmptyDataset { .. })));
    }
}
