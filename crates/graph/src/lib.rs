//! # cdrib-graph
//!
//! Bipartite user-item interaction graphs for the CDRIB reproduction.
//!
//! The crate wraps the sparse CSR machinery of [`cdrib_tensor`] with the
//! domain objects the recommender stack needs: validated edge lists,
//! neighbour lists, the normalised adjacency views consumed by the
//! variational bipartite graph encoder, and small graph analytics (degree
//! histograms, two-hop neighbourhoods) used by the evaluation protocol and
//! baselines.

#![warn(missing_docs)]

pub mod bipartite;
pub mod delta;
pub mod error;

pub use bipartite::{BipartiteGraph, DeltaGroup};
pub use delta::{DeltaEffect, GraphDelta};
pub use error::{GraphError, Result};
