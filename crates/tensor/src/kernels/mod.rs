//! The compute kernels behind every heavy-math inner loop.
//!
//! This module is the single dispatch seam between the numerical API
//! ([`Tensor`](crate::tensor::Tensor), [`CsrMatrix`](crate::sparse::CsrMatrix),
//! [`Tape`](crate::tape::Tape), the optimizers) and the machine: all
//! `O(m·k·n)` loops — dense matmul and its transposed variant, CSR
//! sparse-dense products, row-wise reductions, candidate scoring and the
//! fused Adam update — live here and nowhere else. Later scaling work
//! (sharding, batching, alternative backends) only has to re-target these
//! entry points.
//!
//! Every dispatched kernel is assembled from the same three pieces:
//!
//! 1. **a reference body** — one `#[inline(always)]` function that holds the
//!    loop, written once in safe Rust. Where the loop multiplies and adds, a
//!    `const FUSE: bool` selects `f32::mul_add` (only profitable when the
//!    target has a hardware FMA — a libm call otherwise). The separate
//!    `*_serial` functions are the seed loops that parity tests and the
//!    `kernels` benchmarks compare against.
//! 2. **`dispatch!`** — runs a body on the process's ISA tier, chosen once by
//!    runtime CPU-feature detection (`is_x86_feature_detected!`): the
//!    portable tier calls `body::<false>` as compiled for the baseline
//!    target; the AVX2+FMA and AVX-512 tiers inline `body::<true>` into one
//!    of two generic `#[target_feature]` trampolines, so a baseline `x86-64`
//!    release build still runs fused 256/512-bit loops on capable hardware
//!    (2.5–3.5x over the reference loop on one core). Only the six bodies
//!    written with intrinsics carry a `#[target_feature]` attribute of their
//!    own.
//! 3. **`row_chunked`** — the threaded driver (the `parallel` feature, on by
//!    default): runs a kernel inline below [`PAR_MIN_FLOPS`] and otherwise
//!    splits the *output rows* across `std::thread::scope` threads. Row
//!    chunks are disjoint, so no synchronisation is needed.
//!
//! ## Determinism
//!
//! Every implementation accumulates each output element in the same index
//! order as the reference loop, so for a fixed machine the result is
//! reproducible bit-for-bit regardless of thread count. The fused-multiply-add
//! variants round differently from the reference (they skip the intermediate
//! rounding of `a*b`), which is why parity tests compare against `*_serial`
//! with a `1e-5` relative tolerance rather than exact equality.

// The kernel entry points intentionally take raw dimensions + slices — that
// IS the seam's ABI — so the argument-count lint does not apply here.
#![allow(clippy::too_many_arguments)]

#[macro_use]
mod isa;
mod dense;
mod elementwise;
mod quant;
mod scoring;
mod sparse;
#[cfg(test)]
mod tests;
mod transcendental;

// One flat namespace, as when this was one file: `pub` items keep their `kernels::` path, and
// the `pub(super)` items the families share stay nameable in this module and in `tests`.
pub use dense::*;
pub use elementwise::*;
pub use isa::*;
pub use quant::*;
pub use scoring::*;
pub use sparse::*;
pub use transcendental::*;
