//! Error type of the serving crate.

use cdrib_tensor::{ArtifactError, QuantTableError};
use std::fmt;

/// Errors produced while building a recommender or answering requests.
#[derive(Debug)]
pub enum ServeError {
    /// The requested user does not exist in the source-domain user table.
    UserOutOfRange {
        /// The requested user id.
        user: u32,
        /// Number of users in the source table.
        bound: usize,
    },
    /// The target domain has no items to recommend.
    EmptyCatalogue,
    /// The embedding tables and interaction graphs disagree on entity
    /// counts, or tables disagree on the embedding width.
    ShapeMismatch {
        /// Human readable detail.
        detail: String,
    },
    /// An embedding table holds non-finite values; serving scores from it
    /// would rank garbage.
    NonFiniteEmbeddings {
        /// Which table.
        table: &'static str,
    },
    /// A serve container's int8 mirror of an item table disagrees with
    /// itself: a bad scale, or row statistics that do not match the codes.
    /// Served, it would rank differently on each ISA tier.
    InvalidQuantMirror {
        /// The mirror's section prefix (`qx` or `qy`).
        prefix: &'static str,
        /// The first inconsistency.
        error: QuantTableError,
    },
    /// Loading a frozen model artifact failed.
    Artifact(ArtifactError),
    /// A graph delta was rejected while updating the seen-item graphs.
    Graph(cdrib_graph::GraphError),
    /// The recommender was built from bare tables (no frozen encoder), so
    /// it cannot ingest deltas; build it with
    /// [`crate::Recommender::from_inference_online`].
    UpdaterMissing,
    /// The incremental re-encode of a delta failed.
    Update {
        /// Human readable detail.
        detail: String,
    },
    /// The write-ahead log failed (append, recovery or compaction).
    Wal(crate::wal::WalError),
    /// The operation needs durable state, but the recommender was not built
    /// through [`crate::Recommender::recover`], so it carries no write-ahead
    /// log.
    DurabilityMissing,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UserOutOfRange { user, bound } => {
                write!(f, "user {user} out of range for a source table of {bound} users")
            }
            ServeError::EmptyCatalogue => write!(f, "the target domain has no items to recommend"),
            ServeError::ShapeMismatch { detail } => write!(f, "recommender shape mismatch: {detail}"),
            ServeError::NonFiniteEmbeddings { table } => {
                write!(f, "embedding table `{table}` holds non-finite values")
            }
            ServeError::InvalidQuantMirror { prefix, error } => {
                write!(f, "int8 mirror `{prefix}_*` is invalid: {error}")
            }
            ServeError::Artifact(e) => write!(f, "artifact load failed: {e}"),
            ServeError::Graph(e) => write!(f, "delta rejected by the interaction graph: {e}"),
            ServeError::UpdaterMissing => write!(
                f,
                "this recommender has no frozen encoder attached; build it with from_inference_online to ingest deltas"
            ),
            ServeError::Update { detail } => write!(f, "incremental update failed: {detail}"),
            ServeError::Wal(e) => write!(f, "write-ahead log failed: {e}"),
            ServeError::DurabilityMissing => write!(
                f,
                "this recommender carries no write-ahead log; build it with Recommender::recover for durable ingest"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::InvalidQuantMirror { error, .. } => Some(error),
            ServeError::Artifact(e) => Some(e),
            ServeError::Graph(e) => Some(e),
            ServeError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::wal::WalError> for ServeError {
    fn from(e: crate::wal::WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> Self {
        ServeError::Artifact(e)
    }
}

impl From<cdrib_graph::GraphError> for ServeError {
    fn from(e: cdrib_graph::GraphError) -> Self {
        ServeError::Graph(e)
    }
}

/// A failed incremental re-encode (or encoder-cache access) of the delta path.
impl From<cdrib_core::CoreError> for ServeError {
    fn from(e: cdrib_core::CoreError) -> Self {
        ServeError::Update { detail: e.to_string() }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ServeError>;
