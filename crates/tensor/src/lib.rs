//! Dense NCHW `f32` tensor kernel for the Ensembler reproduction.
//!
//! This crate is the numerical substrate that replaces PyTorch in the original
//! paper. It provides a single dense, row-major [`Tensor`] type together with
//! the operations needed by the neural-network layers in `ensembler-nn`:
//! element-wise arithmetic, matrix multiplication, reductions, the
//! `im2col`/`col2im` transformations used to express convolutions as GEMMs,
//! and the zero-haloed copies ([`Halo`], [`QHalo`]) the compiled plans'
//! convolutions read in place instead.
//!
//! Most operations are implemented as straightforward loops over contiguous
//! buffers so the gradient checks in `ensembler-nn` validate against an
//! easily auditable reference. The exception is the hot path: the rank-2
//! matrix products are backed by the blocked, parallel kernel in [`gemm`],
//! and `im2col`/`col2im` parallelise over the batch dimension (see
//! `docs/PERFORMANCE.md` at the repository root for the design and measured
//! numbers).
//!
//! # Examples
//!
//! ```
//! use ensembler_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data(), &[3.0, 3.0, 7.0, 7.0]);
//! # Ok::<(), ensembler_tensor::ShapeError>(())
//! ```

pub mod bytes;
mod conv;
mod error;
pub mod gemm;
mod init;
pub mod json;
mod ops;
pub mod parallel;
pub mod quant;
mod shape;
mod tensor;

pub use conv::{col2im, im2col, im2col_i8, im2col_reusing, Conv2dGeometry, Halo, QHalo};
pub use error::ShapeError;
pub use init::{Init, Rng};
pub use json::{JsonError, JsonValue};
pub use ops::transpose;
pub use parallel::par_map;
pub use quant::{qconv, qconv_map, qgemm_nn, QPanels, QTensor, QTensorBatch};
pub use shape::{broadcast_compatible, stride_for, Layout, Shape};
pub use tensor::Tensor;
