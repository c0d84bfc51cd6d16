//! Top-k ranking metrics.
//!
//! The paper evaluates with MRR, NDCG@{5,10} and HR@{1,5,10} computed from
//! the rank of the single ground-truth item among 1000 scored candidates
//! (1 positive + 999 sampled negatives). With a single relevant item the
//! metrics reduce to simple functions of the positive's rank, which is what
//! these helpers compute.

use serde::{Deserialize, Serialize};

/// Reciprocal rank of the positive item (`rank` is 1-based).
pub fn reciprocal_rank(rank: usize) -> f64 {
    debug_assert!(rank >= 1);
    1.0 / rank as f64
}

/// NDCG@k for a single relevant item at 1-based `rank`.
///
/// With one relevant item the ideal DCG is 1, so NDCG@k is
/// `1 / log2(rank + 1)` when `rank <= k` and 0 otherwise.
pub fn ndcg_at_k(rank: usize, k: usize) -> f64 {
    debug_assert!(rank >= 1);
    if rank <= k {
        1.0 / ((rank as f64) + 1.0).log2()
    } else {
        0.0
    }
}

/// Hit rate @k for a single relevant item: 1 if `rank <= k`, else 0.
pub fn hit_rate_at_k(rank: usize, k: usize) -> f64 {
    if rank <= k {
        1.0
    } else {
        0.0
    }
}

/// Computes the 1-based rank of the positive score within a candidate list.
///
/// Ties are broken pessimistically-on-average: items with a strictly higher
/// score always rank above the positive, and half of the equal-scoring items
/// (excluding the positive itself) are counted above it, matching the
/// expected rank under random tie-breaking.
///
/// NaN scores are treated pessimistically so a diverging model can never
/// report perfect metrics: every NaN negative counts as ranking *above* the
/// positive (a plain `>` comparison would silently drop them), and a NaN
/// positive lands at the worst possible rank. Infinite scores order
/// normally under `>`. The evaluation protocol additionally refuses to
/// produce metrics at all when the positive's own score is non-finite
/// (`DataError::NonFiniteScore`).
pub fn rank_of_positive(positive_score: f32, negative_scores: &[f32]) -> usize {
    if positive_score.is_nan() {
        return negative_scores.len() + 1;
    }
    let mut higher = 0usize;
    let mut equal = 0usize;
    for &s in negative_scores {
        if s > positive_score || s.is_nan() {
            higher += 1;
        } else if s == positive_score {
            equal += 1;
        }
    }
    1 + higher + equal / 2
}

/// The metric bundle reported in every table of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RankingMetrics {
    /// Mean reciprocal rank.
    pub mrr: f64,
    /// NDCG@5.
    pub ndcg5: f64,
    /// NDCG@10.
    pub ndcg10: f64,
    /// HR@1.
    pub hr1: f64,
    /// HR@5.
    pub hr5: f64,
    /// HR@10.
    pub hr10: f64,
}

impl RankingMetrics {
    /// Metrics of a single evaluation case given the positive's rank.
    pub fn from_rank(rank: usize) -> RankingMetrics {
        RankingMetrics {
            mrr: reciprocal_rank(rank),
            ndcg5: ndcg_at_k(rank, 5),
            ndcg10: ndcg_at_k(rank, 10),
            hr1: hit_rate_at_k(rank, 1),
            hr5: hit_rate_at_k(rank, 5),
            hr10: hit_rate_at_k(rank, 10),
        }
    }

    /// Elementwise sum (used by accumulators).
    pub fn add(&self, other: &RankingMetrics) -> RankingMetrics {
        RankingMetrics {
            mrr: self.mrr + other.mrr,
            ndcg5: self.ndcg5 + other.ndcg5,
            ndcg10: self.ndcg10 + other.ndcg10,
            hr1: self.hr1 + other.hr1,
            hr5: self.hr5 + other.hr5,
            hr10: self.hr10 + other.hr10,
        }
    }

    /// Elementwise division by a count.
    pub fn divide(&self, n: f64) -> RankingMetrics {
        RankingMetrics {
            mrr: self.mrr / n,
            ndcg5: self.ndcg5 / n,
            ndcg10: self.ndcg10 / n,
            hr1: self.hr1 / n,
            hr5: self.hr5 / n,
            hr10: self.hr10 / n,
        }
    }

    /// True when every field lies in `[0, 1]`.
    pub fn is_normalized(&self) -> bool {
        [self.mrr, self.ndcg5, self.ndcg10, self.hr1, self.hr5, self.hr10]
            .iter()
            .all(|v| (0.0..=1.0).contains(v))
    }
}

/// Streaming accumulator of [`RankingMetrics`] over evaluation cases.
#[derive(Debug, Clone, Default)]
pub struct MetricsAccumulator {
    sum: RankingMetrics,
    count: usize,
}

impl MetricsAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        MetricsAccumulator::default()
    }

    /// Adds the metrics of one evaluation case.
    pub(crate) fn push_rank(&mut self, rank: usize) {
        self.sum = self.sum.add(&RankingMetrics::from_rank(rank));
        self.count += 1;
    }

    /// Adds pre-computed metrics of one case.
    pub fn push(&mut self, m: &RankingMetrics) {
        self.sum = self.sum.add(m);
        self.count += 1;
    }

    /// Number of accumulated cases.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The averaged metrics, or `None` if nothing was accumulated.
    pub fn mean(&self) -> Option<RankingMetrics> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum.divide(self.count as f64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_values_at_known_ranks() {
        assert_eq!(reciprocal_rank(1), 1.0);
        assert_eq!(reciprocal_rank(4), 0.25);
        assert_eq!(ndcg_at_k(1, 5), 1.0);
        assert!((ndcg_at_k(2, 5) - 1.0 / 3.0f64.log2()).abs() < 1e-12);
        assert_eq!(ndcg_at_k(6, 5), 0.0);
        assert_eq!(hit_rate_at_k(1, 1), 1.0);
        assert_eq!(hit_rate_at_k(2, 1), 0.0);
        assert_eq!(hit_rate_at_k(10, 10), 1.0);
        assert_eq!(hit_rate_at_k(11, 10), 0.0);
    }

    #[test]
    fn metrics_are_monotone_in_rank() {
        for k in [1usize, 5, 10] {
            for r in 1..50usize {
                assert!(hit_rate_at_k(r, k) >= hit_rate_at_k(r + 1, k));
                assert!(ndcg_at_k(r, k) >= ndcg_at_k(r + 1, k));
            }
        }
        for r in 1..50usize {
            assert!(reciprocal_rank(r) > reciprocal_rank(r + 1));
        }
    }

    #[test]
    fn rank_of_positive_counts_higher_scores() {
        assert_eq!(rank_of_positive(0.9, &[0.1, 0.2, 0.3]), 1);
        assert_eq!(rank_of_positive(0.1, &[0.2, 0.3, 0.05]), 3);
        assert_eq!(rank_of_positive(0.5, &[0.5, 0.5, 0.1]), 2); // half of the ties above
        assert_eq!(rank_of_positive(0.0, &[]), 1);
        // all negatives higher -> last place
        assert_eq!(rank_of_positive(-1.0, &[0.0; 999]), 1000);
    }

    #[test]
    fn rank_of_positive_is_nan_safe() {
        // NaN negatives rank above the positive instead of vanishing.
        assert_eq!(rank_of_positive(0.5, &[f32::NAN, f32::NAN, 0.1]), 3);
        assert_eq!(rank_of_positive(0.5, &[f32::NAN; 999]), 1000);
        // A NaN positive lands at the worst rank, never at #1.
        assert_eq!(rank_of_positive(f32::NAN, &[0.1, 0.2, 0.3]), 4);
        assert_eq!(rank_of_positive(f32::NAN, &[f32::NAN; 9]), 10);
        assert_eq!(rank_of_positive(f32::NAN, &[]), 1);
        // The regression this guards: an all-NaN score vector used to
        // report rank 1 (MRR = 1) because every `NaN > NaN` compare is false.
        let mrr = reciprocal_rank(rank_of_positive(f32::NAN, &[f32::NAN; 999]));
        assert!(mrr < 0.01, "diverged scores must not look perfect: {mrr}");
    }

    #[test]
    fn from_rank_bundle_consistency() {
        let m = RankingMetrics::from_rank(3);
        assert!((m.mrr - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.hr1, 0.0);
        assert_eq!(m.hr5, 1.0);
        assert_eq!(m.hr10, 1.0);
        assert!(m.ndcg5 > 0.0 && m.ndcg5 < 1.0);
        assert!(m.is_normalized());
        let percent = RankingMetrics { hr5: 100.0, ..m };
        assert!(!percent.is_normalized());
    }

    #[test]
    fn accumulator_averages() {
        let mut acc = MetricsAccumulator::new();
        assert!(acc.mean().is_none());
        acc.push_rank(1);
        acc.push_rank(11);
        let m = acc.mean().unwrap();
        assert_eq!(acc.count(), 2);
        assert!((m.mrr - (1.0 + 1.0 / 11.0) / 2.0).abs() < 1e-12);
        assert!((m.hr10 - 0.5).abs() < 1e-12);
        let mut acc2 = MetricsAccumulator::new();
        acc2.push(&RankingMetrics::from_rank(2));
        assert_eq!(acc2.count(), 1);
    }
}
