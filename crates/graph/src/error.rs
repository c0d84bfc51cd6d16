//! Error type for graph construction and queries.

use std::fmt;

/// Errors produced while building or querying interaction graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge references a user index outside `0..n_users`.
    UserOutOfRange {
        /// Offending user index.
        user: usize,
        /// Number of users in the graph.
        n_users: usize,
    },
    /// An edge references an item index outside `0..n_items`.
    ItemOutOfRange {
        /// Offending item index.
        item: usize,
        /// Number of items in the graph.
        n_items: usize,
    },
    /// The graph has no edges where at least one is required.
    EmptyGraph,
    /// A structural invariant was violated (sorted/deduplicated neighbour
    /// lists, consistent adjacency sides, edge counter in step). Only
    /// reachable through [`crate::BipartiteGraph::check_invariants`]; a
    /// violation means a bug in an in-place mutation path, or — when
    /// decoding, which reports it as a `serde::Error` — damaged bytes.
    InvariantViolation {
        /// Human readable detail.
        detail: String,
    },
    /// A lower-level tensor error.
    Tensor(cdrib_tensor::TensorError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UserOutOfRange { user, n_users } => {
                write!(f, "user index {user} out of range (graph has {n_users} users)")
            }
            GraphError::ItemOutOfRange { item, n_items } => {
                write!(f, "item index {item} out of range (graph has {n_items} items)")
            }
            GraphError::EmptyGraph => write!(f, "the interaction graph has no edges"),
            GraphError::InvariantViolation { detail } => {
                write!(f, "graph invariant violated: {detail}")
            }
            GraphError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cdrib_tensor::TensorError> for GraphError {
    fn from(e: cdrib_tensor::TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GraphError::UserOutOfRange { user: 7, n_users: 3 }
            .to_string()
            .contains("7"));
        assert!(GraphError::ItemOutOfRange { item: 9, n_items: 2 }
            .to_string()
            .contains("9"));
        assert!(GraphError::EmptyGraph.to_string().contains("no edges"));
        let te = cdrib_tensor::TensorError::NoGradient;
        let ge: GraphError = te.into();
        assert!(ge.to_string().contains("tensor error"));
        use std::error::Error;
        assert!(ge.source().is_some());
        assert!(GraphError::EmptyGraph.source().is_none());
    }
}
