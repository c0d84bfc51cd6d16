//! # cdrib-eval
//!
//! The evaluation protocol of the CDRIB paper (§IV-B1): leave-one-out
//! ranking against 999 sampled negatives, the MRR / NDCG@k / HR@k metric
//! bundle, grouped analyses (Table IX), seed aggregation with paired t-tests
//! for the significance stars, and plain-text table rendering used by every
//! experiment runner.
//!
//! Models plug in through the [`ColdStartScorer`] trait (also implemented by
//! closures), so the protocol is shared between CDRIB and all baselines.

#![warn(missing_docs)]

pub mod groups;
pub mod metrics;
pub mod protocol;
pub mod report;
pub mod scoring;
pub mod stats;

pub use groups::{group_by_source_interactions, GroupResult, InteractionBucket};
pub use metrics::{hit_rate_at_k, ndcg_at_k, rank_of_positive, reciprocal_rank, MetricsAccumulator, RankingMetrics};
pub use protocol::{
    evaluate_both_directions, evaluate_cold_start, CaseResult, ColdStartScorer, EvalConfig, EvalOutcome, EvalSplit,
};
pub use report::{pct, TextTable};
pub use scoring::{EmbeddingScorer, ScoreKind};
pub use stats::MeanStd;
