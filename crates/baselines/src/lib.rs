//! # cdrib-baselines
//!
//! Every comparison method of the CDRIB paper's evaluation (Tables III-VI),
//! implemented from scratch on the same tensor / graph substrate as CDRIB
//! itself:
//!
//! * single-domain CF on the merged graph — CML, BPRMF, NGCF(-style GCN) and
//!   the single-domain VBGE/VGAE;
//! * shared-parameter cross-domain models — CoNet, STAR, PPGN (simplified
//!   bilinear / joint-graph forms, see DESIGN.md);
//! * the embedding-and-mapping family — EMCDR(CML/BPRMF/NGCF), SSCDR, TMCDR
//!   and SA-VAE.
//!
//! All methods expose the same interface: [`Method::train`] returns an
//! [`EmbeddingScorer`](cdrib_eval::EmbeddingScorer) that plugs into the
//! shared leave-one-out evaluation protocol.

#![warn(missing_docs)]

pub mod common;
pub mod emcdr;
pub mod gcn;
pub mod mf;
pub mod neural;
pub mod registry;
pub mod vgae;

pub use common::{BaselineOpts, MergedGraph};
pub use emcdr::{EmcdrConfig, Pretrainer};
pub use mf::MfModel;
pub use registry::Method;
