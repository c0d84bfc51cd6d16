//! # cdrib-tensor
//!
//! The numerical substrate of the CDRIB reproduction: dense row-major `f32`
//! tensors, CSR sparse matrices, a reverse-mode autodiff [`Tape`], small
//! neural-network building blocks and first-order optimizers.
//!
//! The crate deliberately implements only what the paper's computation graph
//! needs — it is not a general deep-learning framework — but each piece is
//! complete, tested (including finite-difference gradient checks) and
//! deterministic given a seed.
//!
//! ## Quick example
//!
//! ```
//! use cdrib_tensor::{ParamSet, Tape, Tensor, Adam, Optimizer, rng};
//!
//! let mut rng = rng::component_rng(0, "demo");
//! let mut params = ParamSet::new();
//! let w = params.add("w", rng::normal_tensor(&mut rng, 2, 1, 0.1)).unwrap();
//! let x = rng::normal_tensor(&mut rng, 8, 2, 1.0);
//! let y = Tensor::ones(8, 1);
//! let mut opt = Adam::with_defaults(0.1);
//! for _ in 0..50 {
//!     params.zero_grad();
//!     let mut tape = Tape::new();
//!     let xv = tape.constant(x.clone());
//!     let wv = tape.param(&params, w);
//!     let pred = tape.matmul(xv, wv).unwrap();
//!     let loss = tape.bce_with_logits(pred, y.clone()).unwrap();
//!     tape.backward(loss, &mut params).unwrap();
//!     opt.step(&mut params).unwrap();
//! }
//! assert!(params.all_finite());
//! ```

#![warn(missing_docs)]

#[cfg(feature = "alloc-track")]
pub mod alloc_track;
pub mod artifact;
pub mod error;
pub mod func;
pub mod init;
pub mod kernels;
pub mod mmap;
pub mod nn;
pub mod optim;
pub mod params;
pub mod pool;
pub mod quant;
pub mod rng;
pub mod sparse;
pub mod storage;
pub mod tape;
pub mod tensor;

pub use artifact::ArtifactError;
pub use error::{Result, TensorError};
pub use func::FuncCtx;
pub use nn::{Activation, Linear, Mlp};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{ParamId, ParamSet};
pub use pool::{BufferPool, PoolStats};
pub use quant::{QuantTableError, QuantizedTable};
pub use sparse::{CsrMatrix, SparseOperand};
pub use storage::TableStorage;
pub use tape::{sigmoid_scalar, Tape, Var};
pub use tensor::Tensor;
