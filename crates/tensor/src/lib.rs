//! # st-tensor
//!
//! Dense `f32` tensor substrate for the ShadowTutor reproduction.
//!
//! The ShadowTutor paper (ICPP 2020) runs its student/teacher networks on
//! PyTorch; this crate provides the minimal-but-complete numerical kernel set
//! needed to train and evaluate the paper's fully-convolutional student model
//! from scratch in Rust, on CPU, deterministically:
//!
//! * [`Tensor`] — a dense, contiguous, row-major NCHW `f32` tensor with shape
//!   bookkeeping and elementwise/reduction operations.
//! * [`conv`] — 2-D convolution forward and backward passes with arbitrary
//!   stride/padding (including the asymmetric 3×1 / 1×3 kernels the student
//!   blocks use), as GEMMs that read the input's column matrix from the
//!   frames without building it; the stored `im2col` lowering is kept as the
//!   reference.
//! * [`matmul`] — blocked GEMM kernels behind the convolutions, and the
//!   transposed products their reference backward uses.
//! * [`pool`] — nearest-neighbour up-sampling and its backward pass (used
//!   by the decoder half of the student).
//! * [`ops`] — activation functions, channel softmax / log-softmax and their
//!   gradients.
//! * [`parallel`] — a chunked parallel-for over one process-wide set of
//!   parked lanes, shared with the server pool's distill crew (it degrades
//!   to serial execution on one core).
//! * [`random`] — deterministic random tensor constructors (uniform, normal,
//!   Kaiming fan-in scaling) seeded with `u64` seeds.
//!
//! Everything is `f32` and row-major: the innermost axis is `W`, then `H`,
//! then `C`, then `N`, matching the memory layout the convolution kernels
//! assume.

// Inside an `unsafe fn`, each unsafe operation still needs its own `unsafe`
// block (and its own SAFETY argument) — the function-level contract does not
// silently bless the body.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod conv;
pub mod error;
pub mod matmul;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod random;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
