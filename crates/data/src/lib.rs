//! # cdrib-data
//!
//! Dataset infrastructure for the CDRIB reproduction: a synthetic
//! cross-domain interaction generator with an explicit shared/specific
//! latent-factor ground truth, the paper's preprocessing pipeline (minimum
//! interaction filters), the cold-start user split of §IV-A, mini-batching
//! with negative sampling, and the overlap-ratio manipulation used by the
//! robustness study (Table VIII).
//!
//! The central type is [`CdrScenario`]: two domains sharing an overlapping
//! user prefix, training graphs with cold-start users' target-domain
//! interactions removed, and per-direction validation/test ground truth.

#![warn(missing_docs)]

pub mod batch;
pub mod error;
pub mod overlap;
pub mod presets;
pub mod raw;
pub mod scenario;
pub mod synthetic;

pub use batch::{EdgeBatch, EdgeBatcher, EpochBatches, NegativeSampler};
pub use error::{DataError, Result};
pub use overlap::{with_overlap_ratio, TABLE8_RATIOS};
pub use presets::{build_preset, Scale, ScenarioKind};
pub use raw::{RawCdrData, RawDomain};
pub use scenario::{
    CdrScenario, ColdStartSet, Direction, DomainData, DomainId, DomainStats, EvalCase, ScenarioStats, SplitConfig,
};
pub use synthetic::{generate_scenario, GroundTruth, SyntheticConfig, SyntheticOutput};
