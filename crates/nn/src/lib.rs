//! Neural-network layers, losses and optimizers with manually differentiated
//! backward passes.
//!
//! This crate replaces the role PyTorch plays in the original Ensembler paper.
//! Every layer implements the [`Layer`] trait with an explicit `forward` /
//! `backward` pair; there is no tape-based autograd. The backward passes are
//! validated against finite differences by the [`gradcheck`] helpers, which
//! the unit tests in each module use.
//!
//! The layer set is exactly what the Ensembler pipeline and the model
//! inversion attack need:
//!
//! * [`Conv2d`], [`ConvTranspose2d`], [`Linear`], [`BatchNorm2d`]
//! * [`Relu`], [`LeakyRelu`], [`Sigmoid`], [`Tanh`]
//! * [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`], [`Dropout`]
//! * [`FixedNoise`] (the paper's predefined Gaussian noise) and
//!   [`LearnedNoise`] (the Shredder baseline)
//! * [`Sequential`] and [`ResidualBlock`] containers
//! * [`CrossEntropyLoss`], [`MseLoss`], [`cosine_penalty`]
//! * [`Sgd`] and [`Adam`] optimizers
//! * [`models`] — the `MicroResNet` family used as the stand-in for ResNet-18
//! * [`quant`] — int8 inference: the int8 tier quantizes convolutions
//!   ([`QConv2d`]) and everything else, linears included, stays `f32`;
//!   [`QSequential`] runs a network that way, op by op.
//! * [`graph`] — the lazy graph IR layers lower into, and [`compiler`] —
//!   bit-exact GEMM epilogue fusion producing [`CompiledPlan`] /
//!   [`QCompiledPlan`] fused forward paths with typed shape errors instead
//!   of panics.
//!
//! # Examples
//!
//! ```
//! use ensembler_nn::{Layer, Linear, Mode, Relu, Sequential};
//! use ensembler_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, &mut rng)),
//! ]);
//! let x = Tensor::ones(&[3, 4]);
//! let y = net.forward(&x, Mode::Eval);
//! assert_eq!(y.shape(), &[3, 2]);
//! ```

mod activation;
pub mod artifact;
mod checkpoint;
pub mod compiler;
mod container;
mod conv;
mod dropout;
pub mod gradcheck;
pub mod graph;
mod layer;
mod linear;
mod loss;
pub mod models;
mod noise;
mod norm;
mod optim;
mod pool;
pub mod quant;

pub use activation::{LeakyRelu, Relu, Sigmoid, Tanh};
pub use artifact::{ArtifactError, ArtifactPrecision, ModelArtifact};
pub use checkpoint::{Checkpoint, RestoreCheckpointError};
pub use compiler::{CompiledPlan, FusionConfig, QCompiledPlan};
pub use container::{Flatten, Identity, ResidualBlock, Sequential};
pub use conv::{Conv2d, ConvTranspose2d};
pub use dropout::Dropout;
pub use graph::GraphOp;
pub use layer::{Layer, Mode, Param};
pub use linear::Linear;
pub use loss::{cosine_penalty, softmax, CosinePenalty, CrossEntropyLoss, LossValue, MseLoss};
pub use noise::{FixedNoise, LearnedNoise};
pub use norm::BatchNorm2d;
pub use optim::{Adam, Optimizer, Sgd};
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use quant::{QConv2d, QSequential};
