//! Error type for dataset construction and manipulation.

use std::fmt;

/// Errors produced while generating, preprocessing or splitting CDR data.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A configuration value is invalid (zero sizes, ratios outside `[0,1]`, ...).
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Human readable detail.
        detail: String,
    },
    /// The generated or filtered dataset became empty.
    EmptyDataset {
        /// Which part of the pipeline produced the empty result.
        stage: &'static str,
    },
    /// An index is out of range for the scenario.
    IndexOutOfRange {
        /// What kind of entity the index refers to.
        entity: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound.
        bound: usize,
    },
    /// A model produced a non-finite (NaN or infinite) score for a
    /// ground-truth item during evaluation; the resulting ranks would be
    /// meaningless.
    NonFiniteScore {
        /// The evaluated cold-start user.
        user: u32,
        /// The ground-truth item whose score was non-finite.
        item: u32,
    },
    /// Underlying graph error.
    Graph(cdrib_graph::GraphError),
    /// Underlying tensor error.
    Tensor(cdrib_tensor::TensorError),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::InvalidConfig { field, detail } => {
                write!(f, "invalid configuration for `{field}`: {detail}")
            }
            DataError::EmptyDataset { stage } => {
                write!(f, "the dataset became empty during `{stage}`")
            }
            DataError::IndexOutOfRange { entity, index, bound } => {
                write!(f, "{entity} index {index} out of range (< {bound})")
            }
            DataError::NonFiniteScore { user, item } => {
                write!(
                    f,
                    "the model produced a non-finite score for ground-truth item {item} \
                     of user {user}; ranking metrics are undefined for non-finite scores"
                )
            }
            DataError::Graph(e) => write!(f, "graph error: {e}"),
            DataError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Graph(e) => Some(e),
            DataError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cdrib_graph::GraphError> for DataError {
    fn from(e: cdrib_graph::GraphError) -> Self {
        DataError::Graph(e)
    }
}

impl From<cdrib_tensor::TensorError> for DataError {
    fn from(e: cdrib_tensor::TensorError) -> Self {
        DataError::Tensor(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(DataError::InvalidConfig {
            field: "n_overlap",
            detail: "must be > 0".into()
        }
        .to_string()
        .contains("n_overlap"));
        assert!(DataError::EmptyDataset { stage: "filter" }
            .to_string()
            .contains("filter"));
        assert!(DataError::IndexOutOfRange {
            entity: "user",
            index: 5,
            bound: 3
        }
        .to_string()
        .contains("user"));
        let ge: DataError = cdrib_graph::GraphError::EmptyGraph.into();
        assert!(ge.to_string().contains("graph error"));
        let te: DataError = cdrib_tensor::TensorError::NoGradient.into();
        assert!(te.to_string().contains("tensor error"));
        use std::error::Error;
        assert!(te.source().is_some());
    }
}
