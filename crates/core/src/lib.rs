//! # cdrib-core
//!
//! The CDRIB model of *"Cross-Domain Recommendation to Cold-Start Users via
//! Variational Information Bottleneck"* (ICDE 2022): a variational bipartite
//! graph encoder per entity type and domain, cross-domain and in-domain
//! information-bottleneck regularizers, a contrastive information regularizer
//! over overlapping users, and an Adam trainer with validation-based model
//! selection.
//!
//! ## Quick example
//!
//! ```
//! use cdrib_core::{train, CdribConfig};
//! use cdrib_data::{build_preset, Scale, ScenarioKind};
//! use cdrib_eval::{evaluate_both_directions, EvalConfig, EvalSplit};
//!
//! let scenario = build_preset(ScenarioKind::GameVideo, Scale::Tiny, 7).unwrap();
//! let mut config = CdribConfig::fast_test();
//! config.epochs = 5;
//! let trained = train(&config, &scenario).unwrap();
//! let eval_cfg = EvalConfig { n_negatives: 50, seed: 1, max_cases: Some(50) };
//! let (x2y, _y2x) =
//!     evaluate_both_directions(&trained.scorer(), &scenario, EvalSplit::Test, &eval_cfg).unwrap();
//! assert!(x2y.metrics.mrr > 0.0);
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod config;
pub mod error;
pub mod infer;
pub mod model;
pub mod trainer;
pub mod vbge;

pub use artifact::{
    load_model_bytes, save_model_bytes, save_model_file, save_serve_v2_bytes, save_serve_v2_file, write_serve_v2,
    ServeFold, ServeParts, SERVE_FLAG_MODEL, SERVE_FLAG_QUANT, SERVE_KIND, SERVE_META_FIELDS, SERVE_VERSION,
};
pub use config::{CdribConfig, CdribVariant};
pub use error::{CoreError, Result};
pub use infer::{DeltaReencode, InferenceModel};
pub use model::{CdribEmbeddings, CdribModel, DomainEncoding, LossBreakdown};
pub use trainer::{train, train_model, validation_negatives, EpochStats, TrainReport, TrainedCdrib};
pub use vbge::{encode_mean, DirtyScratch, ForwardNoise, MeanActivation, MeanCache, VbgeEncoder, VbgeOutput};
