//! Ensembler: a selective-ensemble defence for collaborative inference
//! against model inversion attacks.
//!
//! This crate is the Rust reproduction of the framework proposed in
//! *"Ensembler: Protect Collaborative Inference Privacy from Model Inversion
//! Attack via Selective Ensemble"* (Liu et al., DAC 2025). It builds on the
//! workspace substrates (`ensembler-tensor`, `ensembler-nn`,
//! `ensembler-data`, `ensembler-metrics`) and provides:
//!
//! * [`artifact`] — export/import of pipelines as versioned, checksummed
//!   binary model artifacts ([`save_pipeline`] / [`load_defense`]), the
//!   boundary between training and the serving tier's model lifecycle.
//! * [`defense`] — the unified [`Defense`] trait: one object-safe,
//!   immutable (`&self`), `Result`-returning inference API
//!   (`client_features` → `server_outputs` → `classify`, plus `predict` and
//!   `evaluate`) implemented by every pipeline in the workspace. Attacks,
//!   benchmarks and the latency model all program against `&dyn Defense`.
//! * [`framework`] — [`EnsemblerPipeline`], the N-network inference pipeline
//!   of Fig. 2, with the server bodies fanned out in parallel from `&self`.
//! * [`defenses`] — the baselines the paper compares against (no protection,
//!   a single noisy network, Shredder-style learned noise and the dropout
//!   defence), all behind the same trait as size-1 ensembles.
//! * [`engine`] — [`InferenceEngine`], the server stage's coalescing queue:
//!   single-sample [`ServerRequest`]s submitted from any thread through
//!   [`InferenceEngine::serve_to`] run as mini-batches over a shared
//!   `Arc<dyn Defense>` — the end-to-end demonstration that Ensembler's
//!   `O(N)` server cost parallelises away.
//! * [`selector`] — the client's private [`Selector`] that activates `P` of
//!   the `N` server networks and concatenates their scaled outputs (Eq. 1).
//! * [`quant`] — [`QuantizedDefense`], the int8 serving wrapper: quantized
//!   server bodies plus per-sample-scaled wire tensors, selectable per sweep
//!   via [`EvalConfig`]'s [`Precision`].
//! * [`request`] — [`ServerRequest`] → [`Maps`], the one request shape of
//!   the server stage (precision and body range are fields, not code paths),
//!   dispatched by [`Defense::serve`].
//! * [`split`] — the byte-level wire format for the transmitted features
//!   (`f32` and quantized variants).
//! * [`trainer`] — the three-stage training procedure (Sec. III-C) including
//!   the cosine-similarity regularizer of Eq. 3.
//!
//! # Examples
//!
//! Train a small Ensembler, evaluate it through the [`Defense`] trait and
//! serve concurrent requests with the [`engine`]:
//!
//! ```
//! use ensembler::{
//!     Defense, EngineConfig, EnsemblerTrainer, EvalConfig, InferenceEngine, TrainConfig,
//! };
//! use ensembler_data::SyntheticSpec;
//! use ensembler_nn::models::ResNetConfig;
//! use std::sync::Arc;
//!
//! let data = SyntheticSpec::tiny_for_tests().generate(1);
//! let trainer = EnsemblerTrainer::new(
//!     ResNetConfig::tiny_for_tests(),
//!     TrainConfig::fast_for_tests(),
//! );
//! let pipeline = trainer.train(3, 2, &data.train)?.into_pipeline();
//!
//! // Inference is immutable: the pipeline evaluates from `&self` ...
//! let accuracy = pipeline.evaluate(&data.test, &EvalConfig::default())?;
//! assert!((0.0..=1.0).contains(&accuracy));
//!
//! // ... so it can be shared behind an Arc and served concurrently.
//! let engine = InferenceEngine::new(Arc::new(pipeline), EngineConfig::default())?;
//! let (image, _) = data.test.batch(0, 1);
//! let logits = engine.predict_one(image.batch_item(0))?;
//! assert_eq!(logits.len(), 3);
//! # Ok::<(), ensembler::EnsemblerError>(())
//! ```

pub mod artifact;
pub mod defense;
pub mod defenses;
pub mod engine;
mod error;
pub mod framework;
pub mod quant;
pub mod request;
pub mod selector;
pub mod split;
pub mod trainer;

pub use artifact::{load_defense, load_pipeline, save_pipeline};
pub use defense::{check_body_range, check_feature_shape, Defense, EvalConfig, Precision};
pub use defenses::{DefenseKind, SinglePipeline};
pub use engine::{EngineConfig, EngineStats, InferenceEngine, Tagged};
pub use error::EnsemblerError;
pub use framework::EnsemblerPipeline;
pub use quant::QuantizedDefense;
pub use request::{Features, Maps, ServerRequest};
pub use selector::Selector;
pub use split::WireBlob;
pub use trainer::{EnsemblerTrainer, StageOneNetwork, TrainConfig, TrainReport, TrainedEnsembler};
