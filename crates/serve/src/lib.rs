//! Networked split-inference serving for the Ensembler reproduction.
//!
//! The paper's threat model is inherently networked: a trusted edge client
//! computes `M_c,h(x) + N(0, σ)` locally and ships the noised features to an
//! untrusted cloud server, which evaluates all `N` ensemble bodies and
//! returns their feature maps. This crate makes that boundary real:
//!
//! * [`protocol`] — a length-framed binary protocol (magic, stamp, message
//!   enum, CRC-32 checksums, exhaustive decode-error handling), specified
//!   byte-for-byte in `docs/WIRE_PROTOCOL.md`. It has one version, 5: the
//!   handshake may name a model, every request carries a request id so one
//!   connection holds many concurrent in-flight requests with out-of-order
//!   responses, and a shard router's sub-range requests are ordinary
//!   requests; a peer offering less is refused with a typed error;
//! * [`ModelRegistry`] — the model-name → pipeline map of a multi-model
//!   server: one `Arc<dyn Defense>` plus one coalescing
//!   [`ensembler::InferenceEngine`] per registered model *version* (built
//!   with the default engine configuration), with a default model for
//!   nameless hellos. Since PR 8 the registry is mutable on
//!   a live server — [`ModelRegistry::swap`] hot-reloads a model with zero
//!   dropped requests and [`ModelRegistry::set_canary`] splits its traffic
//!   with a second version deterministically (`docs/MODEL_ARTIFACTS.md`
//!   covers the artifact files and the rollout lifecycle);
//! * [`DefenseServer`] — a multi-threaded TCP server over a registry:
//!   per-connection reader threads submit to the pinned model's shared
//!   engine through its one entry point, `serve_to`, so single-sample
//!   requests from different connections coalesce into joint mini-batches. Admission control ([`AdmissionConfig`]) bounds
//!   in-flight requests and bytes per connection and per server, answering
//!   over-budget work with typed `Overloaded` frames instead of queueing
//!   it, and [`DefenseServer::shutdown`] drains in-flight batches before
//!   stopping;
//! * [`RemoteDefense`] — a client that implements [`ensembler::Defense`] by
//!   sending the `server_outputs` stage over the wire (optionally pinned to
//!   a named model via [`RemoteDefense::connect_model`]), so every existing
//!   attack, benchmark, latency and example path runs unchanged against a
//!   genuinely remote server;
//! * two binaries, `serve_defense` (with a repeatable `--model name=spec`
//!   flag) and `remote_client`, for running the two halves as separate OS
//!   processes.
//!
//! The request sequence and the crate's place in the workspace are drawn out
//! in `docs/ARCHITECTURE.md`; `docs/SERVING.md` is the operator guide.
//!
//! # Examples
//!
//! A complete loopback deployment in one process:
//!
//! ```
//! use ensembler::Defense;
//! use ensembler_serve::{demo_pipeline, DefenseServer, RemoteDefense, ServerConfig};
//! use ensembler_tensor::Tensor;
//! use std::sync::Arc;
//!
//! let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 42)?);
//! let server = DefenseServer::bind(
//!     Arc::clone(&pipeline),
//!     "127.0.0.1:0",
//!     ServerConfig::default(),
//! )?;
//! let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr())?;
//!
//! let images = Tensor::ones(&[1, 3, 16, 16]);
//! // The networked pipeline is bit-identical to the in-process one.
//! assert_eq!(remote.predict(&images)?, pipeline.predict(&images)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cli;
pub mod client;
pub mod error;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{CompletionSlots, RemoteDefense};
pub use error::ServeError;
pub use protocol::{
    ErrorCode, Hello, HelloAck, Message, MessageType, TaggedMessage, WireError, WIRE_OVERHEAD,
};
pub use registry::{
    CanarySpec, Manifest, ModelRegistry, ModelSlot, ModelSource, ModelSpec, ModelStats, VersionRole,
};
pub use server::{AdmissionConfig, DefenseServer, ServerConfig, ServerStats};

use ensembler::{EnsemblerError, EnsemblerPipeline, Selector};
use ensembler_nn::models::{build_body, build_head, build_tail, ResNetConfig};
use ensembler_nn::FixedNoise;
use ensembler_tensor::Rng;

/// Builds a deterministic (untrained) Ensembler pipeline with `n` server
/// bodies of which `p` are secretly selected, on the CIFAR-10-like backbone.
///
/// Both `serve_defense` and `remote_client` construct their pipeline through
/// this function, so two processes given the same `(n, p, seed)` hold
/// bit-identical weights — the same weight-distribution role a checkpoint
/// file would play in a real deployment, without shipping one.
///
/// # Errors
///
/// Returns an error if `p` is not a valid selection from `n` networks.
pub fn demo_pipeline(n: usize, p: usize, seed: u64) -> Result<EnsemblerPipeline, EnsemblerError> {
    let config = ResNetConfig::cifar10_like();
    let mut rng = Rng::seed_from(seed);
    let head = build_head(&config, &mut rng);
    let noise = FixedNoise::new(&config.head_output_shape(), 0.1, &mut rng);
    let bodies = (0..n).map(|_| build_body(&config, &mut rng)).collect();
    let selector = Selector::random(n, p, &mut rng)?;
    let tail = build_tail(&config, p * config.body_output_features(), &mut rng);
    EnsemblerPipeline::new(config, head, noise, bodies, selector, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler::Defense;

    #[test]
    fn demo_pipeline_is_deterministic_in_the_seed() {
        let a = demo_pipeline(3, 2, 9).unwrap();
        let b = demo_pipeline(3, 2, 9).unwrap();
        let images = ensembler_tensor::Tensor::ones(&[1, 3, 16, 16]);
        assert_eq!(a.predict(&images).unwrap(), b.predict(&images).unwrap());
        assert_eq!(a.ensemble_size(), 3);
        assert_eq!(a.selected_count(), 2);
    }

    #[test]
    fn demo_pipeline_rejects_invalid_selections() {
        assert!(demo_pipeline(2, 3, 0).is_err());
    }
}
