//! Generic embedding-based scorers.
//!
//! Almost every method in the paper ultimately ranks items by an inner
//! product (or a negative distance) between a user vector and item vectors.
//! [`EmbeddingScorer`] wraps the four embedding tables of a bi-directional
//! CDR model — users and items of both domains — and implements
//! [`ColdStartScorer`] so the evaluation protocol can be shared by CDRIB and
//! all baselines.

use crate::protocol::ColdStartScorer;
use cdrib_data::{Direction, DomainId};
use cdrib_tensor::{kernels, Tensor};
use serde::{Deserialize, Serialize};

/// How a user vector and an item vector are combined into a score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoreKind {
    /// Inner product (BPRMF, NGCF, CDRIB, ...).
    Dot,
    /// Negative squared Euclidean distance (CML-style metric learning).
    NegativeDistance,
}

/// Embedding tables of both domains with a pluggable score function.
///
/// For a cold-start user evaluated in direction `source -> target`, the user
/// vector is taken from the *source* user table (that is where the user has
/// observed interactions) and item vectors from the *target* item table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingScorer {
    /// User embeddings of domain X (`|U^X| x F`).
    pub x_users: Tensor,
    /// Item embeddings of domain X (`|V^X| x F`).
    pub x_items: Tensor,
    /// User embeddings of domain Y (`|U^Y| x F`).
    pub y_users: Tensor,
    /// Item embeddings of domain Y (`|V^Y| x F`).
    pub y_items: Tensor,
    /// The score function.
    pub kind: ScoreKind,
}

impl EmbeddingScorer {
    /// Creates a dot-product scorer.
    pub fn dot(x_users: Tensor, x_items: Tensor, y_users: Tensor, y_items: Tensor) -> Self {
        EmbeddingScorer {
            x_users,
            x_items,
            y_users,
            y_items,
            kind: ScoreKind::Dot,
        }
    }

    /// Creates a negative-distance scorer (metric learning).
    pub fn negative_distance(x_users: Tensor, x_items: Tensor, y_users: Tensor, y_items: Tensor) -> Self {
        EmbeddingScorer {
            x_users,
            x_items,
            y_users,
            y_items,
            kind: ScoreKind::NegativeDistance,
        }
    }

    /// The user embedding table of a domain.
    pub fn user_table(&self, domain: DomainId) -> &Tensor {
        match domain {
            DomainId::X => &self.x_users,
            DomainId::Y => &self.y_users,
        }
    }

    /// The item embedding table of a domain.
    pub fn item_table(&self, domain: DomainId) -> &Tensor {
        match domain {
            DomainId::X => &self.x_items,
            DomainId::Y => &self.y_items,
        }
    }

    /// A domain's `(user, item)` tables, mutably — the in-place patch point
    /// of online serving updates.
    pub fn tables_mut(&mut self, domain: DomainId) -> (&mut Tensor, &mut Tensor) {
        match domain {
            DomainId::X => (&mut self.x_users, &mut self.x_items),
            DomainId::Y => (&mut self.y_users, &mut self.y_items),
        }
    }

    /// Scores a single `(user_vector, item_vector)` pair with a plain scalar
    /// loop. This is the reference implementation the batched
    /// [`EmbeddingScorer::score_cross_into`] path is parity-tested against
    /// (`tests/score_parity.rs`); production scoring goes through the SIMD
    /// kernels instead.
    pub fn pair_score(&self, user: &[f32], item: &[f32]) -> f32 {
        match self.kind {
            ScoreKind::Dot => user.iter().zip(item.iter()).map(|(a, b)| a * b).sum(),
            ScoreKind::NegativeDistance => -user
                .iter()
                .zip(item.iter())
                .map(|(a, b)| {
                    let d = a - b;
                    d * d
                })
                .sum::<f32>(),
        }
    }

    /// Scores `items` of `item_domain` for the user row taken from
    /// `user_domain`. Exposed for baselines that need in-domain scoring too.
    ///
    /// Allocating convenience wrapper: hot paths hold a reusable buffer and
    /// call [`EmbeddingScorer::score_cross_into`] instead.
    pub fn score_cross(&self, user_domain: DomainId, user: u32, item_domain: DomainId, items: &[u32]) -> Vec<f32> {
        let mut out = vec![0.0; items.len()];
        self.score_cross_into(user_domain, user, item_domain, items, &mut out);
        out
    }

    /// Scalar reference scoring of a full candidate list for a transfer
    /// direction: the pre-batching path (a per-pair
    /// [`EmbeddingScorer::pair_score`] loop), kept as the single definition
    /// of the baseline that benches and parity suites compare the
    /// kernel-backed [`ColdStartScorer::score_into`] route against.
    pub fn score_items_scalar(&self, direction: Direction, user: u32, items: &[u32]) -> Vec<f32> {
        let u = self.user_table(direction.source).row(user as usize);
        let table = self.item_table(direction.target);
        items
            .iter()
            .map(|&i| self.pair_score(u, table.row(i as usize)))
            .collect()
    }

    /// Bulk variant of [`EmbeddingScorer::score_cross`]: scores every
    /// candidate in one fused SIMD kernel pass (`score_candidates_dot` /
    /// `score_candidates_neg_sq_dist`) without allocating.
    pub fn score_cross_into(
        &self,
        user_domain: DomainId,
        user: u32,
        item_domain: DomainId,
        items: &[u32],
        out: &mut [f32],
    ) {
        let users = self.user_table(user_domain);
        let table = self.item_table(item_domain);
        let u = users.row(user as usize);
        match self.kind {
            ScoreKind::Dot => kernels::score_candidates_dot(table.cols(), u, table.as_slice(), items, out),
            ScoreKind::NegativeDistance => {
                kernels::score_candidates_neg_sq_dist(table.cols(), u, table.as_slice(), items, out)
            }
        }
    }
}

impl ColdStartScorer for EmbeddingScorer {
    fn score_into(&self, direction: Direction, user: u32, items: &[u32], out: &mut [f32]) {
        self.score_cross_into(direction.source, user, direction.target, items, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn dot_scorer_uses_source_users_and_target_items() {
        let scorer = EmbeddingScorer::dot(
            t(2, 2, &[1.0, 0.0, 0.0, 1.0]),            // X users
            t(2, 2, &[9.0, 9.0, 9.0, 9.0]),            // X items (should not be used for X->Y)
            t(2, 2, &[5.0, 5.0, 5.0, 5.0]),            // Y users (should not be used for X->Y)
            t(3, 2, &[1.0, 2.0, 3.0, 4.0, 0.5, 0.25]), // Y items
        );
        let s = scorer.score_items(Direction::X_TO_Y, 0, &[0, 1, 2]);
        assert_eq!(s, vec![1.0, 3.0, 0.5]);
        let s2 = scorer.score_items(Direction::X_TO_Y, 1, &[0, 1, 2]);
        assert_eq!(s2, vec![2.0, 4.0, 0.25]);
        // Y -> X uses Y users and X items.
        let s3 = scorer.score_items(Direction::Y_TO_X, 0, &[1]);
        assert_eq!(s3, vec![90.0]);
    }

    #[test]
    fn negative_distance_ranks_closest_first() {
        let scorer = EmbeddingScorer::negative_distance(
            t(1, 2, &[0.0, 0.0]),
            t(2, 2, &[0.1, 0.1, 5.0, 5.0]),
            t(1, 2, &[0.0, 0.0]),
            t(2, 2, &[1.0, 1.0, 0.2, 0.2]),
        );
        let s = scorer.score_items(Direction::X_TO_Y, 0, &[0, 1]);
        assert!(s[1] > s[0], "closer item must score higher: {s:?}");
        let s2 = scorer.score_items(Direction::Y_TO_X, 0, &[0, 1]);
        assert!(s2[0] > s2[1]);
    }

    #[test]
    fn score_cross_supports_in_domain_scoring() {
        let scorer = EmbeddingScorer::dot(t(1, 1, &[2.0]), t(2, 1, &[3.0, -1.0]), t(1, 1, &[4.0]), t(1, 1, &[1.0]));
        assert_eq!(
            scorer.score_cross(DomainId::X, 0, DomainId::X, &[0, 1]),
            vec![6.0, -2.0]
        );
        assert_eq!(scorer.score_cross(DomainId::Y, 0, DomainId::Y, &[0]), vec![4.0]);
    }
}
