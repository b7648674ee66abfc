//! The unified [`Defense`] trait: one immutable inference API for every
//! split-inference pipeline in the workspace.
//!
//! Before this trait existed, `EnsemblerPipeline` and `SinglePipeline`
//! exposed divergent, `&mut self` inference methods, so the attack crate,
//! the benchmark harness and the examples each hand-rolled their own
//! dispatch. `Defense` fixes both problems at once:
//!
//! * every method takes `&self` and returns `Result`, so a pipeline can be
//!   shared behind an `Arc` and serve concurrent batches (see
//!   [`crate::engine::InferenceEngine`]);
//! * the client/server split is part of the contract
//!   ([`Defense::client_features`] → [`Defense::server_outputs`] →
//!   [`Defense::classify`]), so generic code — attacks, benchmarks, latency
//!   estimation — works against `&dyn Defense` without knowing which defence
//!   it is probing.

use crate::request::{Features, Maps, ServerRequest};
use crate::EnsemblerError;
use ensembler_data::Dataset;
use ensembler_metrics::accuracy;
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::Sequential;
use ensembler_tensor::Tensor;
use std::ops::Range;

/// The numeric mode a pipeline (or an evaluation sweep) runs in.
///
/// `F32` is the reference path. `Int8` quantizes the tensors that cross the
/// client/server split (and, for a pipeline built through
/// [`crate::QuantizedDefense::quantize`], runs the server bodies with
/// `i8×i8→i32` kernels). Quantization scales are always **per sample**, so a
/// sample's int8 result never depends on what else shares its mini-batch —
/// the engine's coalescing guarantee holds within each precision mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-precision `f32` inference (the default).
    #[default]
    F32,
    /// Symmetric int8 inference: quantized split tensors, quantized server
    /// bodies where the pipeline provides them.
    Int8,
}

/// Evaluation parameters shared by every [`Defense::evaluate`]
/// implementation.
///
/// # Examples
///
/// ```
/// use ensembler::{EvalConfig, Precision};
///
/// assert_eq!(EvalConfig::default().batch_size, 32);
/// assert_eq!(EvalConfig::default().precision, Precision::F32);
/// assert_eq!(EvalConfig::with_batch_size(8).batch_size, 8);
/// let int8 = EvalConfig::default().with_precision(Precision::Int8);
/// assert_eq!(int8.precision, Precision::Int8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Mini-batch size used when sweeping a dataset.
    pub batch_size: usize,
    /// Numeric mode of the sweep. With [`Precision::Int8`] the split tensors
    /// cross as an int8 [`ServerRequest`], so the sweep measures exactly what
    /// a quantized wire deployment would serve.
    pub precision: Precision,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            batch_size: 32,
            precision: Precision::F32,
        }
    }
}

impl EvalConfig {
    /// Creates a configuration with the given mini-batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn with_batch_size(batch_size: usize) -> Self {
        assert!(batch_size > 0, "evaluation batch size must be positive");
        Self {
            batch_size,
            precision: Precision::F32,
        }
    }

    /// Returns the configuration with the precision replaced.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// A split-inference pipeline with some protection on the transmitted
/// features.
///
/// The trait is object safe: `&dyn Defense` is the currency the attack
/// crate, the benchmark harness and the latency model trade in. All methods
/// take `&self` — implementations must not mutate state during inference, so
/// an `Arc<dyn Defense>` can serve concurrent requests with results
/// bit-identical to sequential execution.
///
/// # Examples
///
/// Running the three pipeline stages by hand through `&dyn Defense` produces
/// exactly what the composed [`Defense::predict`] does — the contract the
/// networked split in `crates/serve` relies on when it moves the
/// [`Defense::server_outputs`] stage to another machine:
///
/// ```
/// use ensembler::{Defense, DefenseKind, SinglePipeline};
/// use ensembler_nn::models::ResNetConfig;
/// use ensembler_tensor::Tensor;
///
/// let pipeline = SinglePipeline::new(
///     ResNetConfig::tiny_for_tests(),
///     DefenseKind::AdditiveNoise { sigma: 0.1 },
///     42,
/// )?;
/// let defense: &dyn Defense = &pipeline;
///
/// let images = Tensor::ones(&[2, 3, 8, 8]);
/// let transmitted = defense.client_features(&images)?;
/// let maps = defense.server_outputs(&transmitted)?;
/// assert_eq!(maps.len(), defense.ensemble_size());
/// let staged = defense.classify(&maps)?;
///
/// assert_eq!(staged, defense.predict(&images)?);
/// # Ok::<(), ensembler::EnsemblerError>(())
/// ```
pub trait Defense: Send + Sync + std::fmt::Debug {
    /// The backbone configuration shared by the client and the server.
    fn config(&self) -> &ResNetConfig;

    /// Short human-readable name matching the paper's table rows.
    fn label(&self) -> &str;

    /// The server-side networks.
    ///
    /// Under the paper's threat model the adversarial server owns these
    /// weights, so attacks clone them from here into their own mutable
    /// copies.
    fn server_bodies(&self) -> &[Sequential];

    /// Number of server networks (`N`; 1 for the single-network baselines).
    fn ensemble_size(&self) -> usize {
        self.server_bodies().len()
    }

    /// Number of server networks the client secretly consumes (`P`; 1 for
    /// the single-network baselines). The latency model uses this.
    fn selected_count(&self) -> usize;

    /// Computes the (protected) features the client transmits for a batch of
    /// `[B, C, H, W]` images.
    ///
    /// # Errors
    ///
    /// Returns an error when the input is inconsistent with the pipeline.
    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError>;

    /// The numeric mode this pipeline's server bodies run in. `F32` by
    /// default; [`crate::QuantizedDefense`] reports `Int8`, which is what
    /// tells the networked client to use quantized wire frames.
    fn precision(&self) -> Precision {
        Precision::F32
    }

    /// The server stage: evaluates the bodies `request.range` (`None` = all
    /// of them) on `request.features` and answers at the payload's precision,
    /// the maps in body index order.
    ///
    /// This is the one method a pipeline implements for the server stage.
    /// The engine, the wire server, the remote client and the shard router
    /// all speak [`ServerRequest`] and end up here, and so do the provided
    /// conveniences below ([`Defense::server_outputs`],
    /// [`Defense::server_outputs_range`], [`Defense::predict`],
    /// [`Defense::predict_at`]) — a wrapper that overrides `serve` sees every
    /// evaluation. A payload whose precision differs from the backend's
    /// crosses over through [`Features::to_precision`] and
    /// [`Maps::into_precision`], so every pipeline can serve quantized
    /// clients and an int8 backend's `f32` answers are bit-identical in
    /// process and over the wire.
    ///
    /// # Errors
    ///
    /// Returns an error when the range is empty or out of bounds, or when the
    /// features do not match the server input shape.
    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError>;

    /// [`Defense::serve`] for the common case — every body, `f32` features
    /// borrowed from the caller (they are copied into the request once).
    ///
    /// # Errors
    ///
    /// As for [`Defense::serve`].
    fn server_outputs(&self, transmitted: &Tensor) -> Result<Vec<Tensor>, EnsemblerError> {
        self.serve(&ServerRequest::full(Features::F32(transmitted.clone())))?
            .into_f32()
    }

    /// [`Defense::server_outputs`] restricted to the bodies `lo..hi`: the
    /// sub-ensemble serving mode a sharded worker runs in, returning
    /// `hi - lo` feature maps in index order.
    ///
    /// # Errors
    ///
    /// As for [`Defense::serve`].
    fn server_outputs_range(
        &self,
        transmitted: &Tensor,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<Tensor>, EnsemblerError> {
        self.serve(&ServerRequest::ranged(
            lo..hi,
            Features::F32(transmitted.clone()),
        ))?
        .into_f32()
    }

    /// Applies the client-side post-processing (secret selection and tail
    /// classifier) to the server's feature maps, producing class logits.
    ///
    /// # Errors
    ///
    /// Returns an error when the number or shape of the maps is wrong.
    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError>;

    /// Runs the complete collaborative-inference pipeline on a batch of
    /// images and returns class logits.
    ///
    /// # Errors
    ///
    /// Propagates errors from any of the three stages.
    fn predict(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        let request = ServerRequest::full(Features::F32(self.client_features(images)?));
        let maps = self.serve(&request)?.into_f32()?;
        self.classify(&maps)
    }

    /// [`Defense::predict`] at an explicit numeric mode.
    ///
    /// With [`Precision::Int8`] the split tensors are quantized per sample
    /// and [`Defense::serve`] answers an int8 request — byte-for-byte the
    /// path a quantized remote deployment executes, so in-process and
    /// networked int8 predictions agree bit-exactly.
    ///
    /// # Errors
    ///
    /// Propagates errors from any of the three stages.
    fn predict_at(&self, images: &Tensor, precision: Precision) -> Result<Tensor, EnsemblerError> {
        match precision {
            Precision::F32 => self.predict(images),
            Precision::Int8 => {
                let transmitted = Features::F32(self.client_features(images)?);
                let request = ServerRequest::full(transmitted.to_precision(precision).into_owned());
                let maps = self.serve(&request)?.into_precision(Precision::F32);
                self.classify(&maps.into_f32()?)
            }
        }
    }

    /// Top-1 accuracy of the pipeline on a dataset, evaluated in mini-batches
    /// of `eval.batch_size`. Returns 0 for an empty dataset.
    ///
    /// # Errors
    ///
    /// Returns an error if `eval.batch_size` is zero or prediction fails.
    fn evaluate(&self, dataset: &Dataset, eval: &EvalConfig) -> Result<f32, EnsemblerError> {
        if eval.batch_size == 0 {
            return Err(EnsemblerError::InvalidConfig(
                "evaluation batch size must be positive".to_string(),
            ));
        }
        if dataset.is_empty() {
            return Ok(0.0);
        }
        let mut correct_weighted = 0.0f32;
        let mut start = 0usize;
        while start < dataset.len() {
            let (images, labels) = dataset.batch(start, eval.batch_size);
            let logits = self.predict_at(&images, eval.precision)?;
            correct_weighted += accuracy(&logits, &labels) * labels.len() as f32;
            start += eval.batch_size;
        }
        Ok(correct_weighted / dataset.len() as f32)
    }
}

/// Validates a half-open server-body range `lo..hi` against an ensemble of
/// `ensemble_size` bodies: the range must be non-empty and in bounds.
///
/// Shared by every layer that handles sub-range requests (the pipelines, the
/// inference engine, the wire server and the shard router), so they all
/// reject malformed ranges with the same message.
///
/// # Errors
///
/// Returns [`EnsemblerError::InvalidConfig`] when the range is empty or ends
/// past the ensemble.
///
/// # Examples
///
/// ```
/// use ensembler::check_body_range;
///
/// assert!(check_body_range(0, 4, 4).is_ok());
/// assert!(check_body_range(2, 2, 4).is_err()); // empty
/// assert!(check_body_range(2, 5, 4).is_err()); // past the end
/// ```
pub fn check_body_range(lo: usize, hi: usize, ensemble_size: usize) -> Result<(), EnsemblerError> {
    if lo >= hi || hi > ensemble_size {
        return Err(EnsemblerError::InvalidConfig(format!(
            "server body range {lo}..{hi} is invalid for an ensemble of {ensemble_size}"
        )));
    }
    Ok(())
}

/// Validates the shape of a feature batch that crosses the split — the
/// client head's output, or a request arriving at the server — against the
/// backbone: it must be `[B, C, H, W]` with `B ≥ 1` and `[C, H, W]` equal to
/// [`ResNetConfig::head_output_shape`].
///
/// Shared by both pipelines' client stage (on the head's output, before the
/// noise or defence layer, whose per-sample pattern would otherwise be tiled
/// across the wrong elements) and the wire server (before the coalescing
/// queue), so both reject a malformed batch with the same message.
///
/// # Errors
///
/// Returns [`EnsemblerError::ShapeMismatch`] naming both shapes.
///
/// # Examples
///
/// ```
/// use ensembler::check_feature_shape;
/// use ensembler_nn::models::ResNetConfig;
///
/// let config = ResNetConfig::tiny_for_tests(); // head output [4, 8, 8]
/// assert!(check_feature_shape(&[2, 4, 8, 8], &config).is_ok());
/// assert!(check_feature_shape(&[0, 4, 8, 8], &config).is_err()); // no sample
/// assert!(check_feature_shape(&[2, 4, 16, 16], &config).is_err());
/// ```
pub fn check_feature_shape(shape: &[usize], config: &ResNetConfig) -> Result<(), EnsemblerError> {
    let expected = config.head_output_shape();
    match shape.split_first() {
        Some((&batch, sample)) if batch > 0 && sample == expected => Ok(()),
        _ => Err(EnsemblerError::ShapeMismatch(format!(
            "features {shape:?} do not match the head output [B, {}, {}, {}]",
            expected[0], expected[1], expected[2]
        ))),
    }
}

/// The server stage of a pipeline that owns its bodies: validates the
/// request's range against `ensemble_size`, hands `bodies` the payload at the
/// `backend` precision and the body indices to run, and returns its maps at
/// the payload's precision.
pub(crate) fn serve_bodies(
    request: &ServerRequest,
    ensemble_size: usize,
    backend: Precision,
    bodies: impl FnOnce(&Features, Range<usize>) -> Result<Maps, EnsemblerError>,
) -> Result<Maps, EnsemblerError> {
    let range = request.range.clone().unwrap_or(0..ensemble_size);
    check_body_range(range.start, range.end, ensemble_size)?;
    let maps = bodies(&request.features.to_precision(backend), range)?;
    Ok(maps.into_precision(request.features.precision()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::tests::{tiny_pipeline, tiny_pipeline_with};
    use crate::QuantizedDefense;
    use ensembler_nn::{Layer, Mode, QSequential};
    use ensembler_tensor::QTensorBatch;
    use std::sync::Arc;

    #[test]
    fn eval_config_default_batch_size_is_32() {
        assert_eq!(EvalConfig::default().batch_size, 32);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected() {
        let _ = EvalConfig::with_batch_size(0);
    }

    #[test]
    fn a_wrong_size_image_batch_is_a_shape_mismatch_at_the_client_stage() {
        use crate::defenses::{DefenseKind, SinglePipeline};

        // The head is fully convolutional, so an image of the wrong extent
        // runs through it; the noise or defence layer after it then either
        // panicked on the element count or tiled its per-sample pattern
        // across the wrong elements.
        let ensembler: Arc<dyn Defense> = Arc::new(tiny_pipeline(3, 2, 31));
        let mut pipelines: Vec<Arc<dyn Defense>> = vec![
            Arc::clone(&ensembler),
            Arc::new(QuantizedDefense::quantize(ensembler)),
        ];
        for kind in [
            DefenseKind::NoDefense,
            DefenseKind::AdditiveNoise { sigma: 0.1 },
            DefenseKind::Shredder {
                sigma: 0.1,
                expansion: 0.1,
            },
            DefenseKind::Dropout { probability: 0.3 },
        ] {
            let single = SinglePipeline::new(ResNetConfig::tiny_for_tests(), kind, 32).unwrap();
            pipelines.push(Arc::new(single));
        }
        for pipeline in &pipelines {
            let label = pipeline.label();
            for shape in [
                [0, 3, 8, 8],
                [2, 3, 4, 4],
                [1, 3, 6, 6],
                [2, 3, 16, 16],
                [2, 3, 8, 4],
            ] {
                let images = Tensor::ones(&shape);
                let features = pipeline.client_features(&images).map(|_| ());
                let logits = pipeline.predict(&images).map(|_| ());
                for result in [features, logits] {
                    assert!(
                        matches!(result, Err(EnsemblerError::ShapeMismatch(_))),
                        "{label} {shape:?}: {result:?}"
                    );
                }
            }
            let logits = pipeline.predict(&Tensor::ones(&[2, 3, 8, 8])).unwrap();
            assert_eq!(logits.shape(), &[2, 3], "{label}");
        }
    }

    #[test]
    fn every_entry_point_reaches_serve_once_with_its_range_and_precision() {
        use crate::defenses::{DefenseKind, SinglePipeline};
        use ensembler_data::SyntheticSpec;
        use std::sync::Mutex;

        /// Overrides only `serve`, like the serving tests' gated doubles:
        /// every convenience must funnel through it.
        #[derive(Debug)]
        struct Counting(
            SinglePipeline,
            Mutex<Vec<(Option<Range<usize>>, Precision)>>,
        );
        impl Defense for Counting {
            fn config(&self) -> &ResNetConfig {
                self.0.config()
            }
            fn label(&self) -> &str {
                self.0.label()
            }
            fn server_bodies(&self) -> &[Sequential] {
                self.0.server_bodies()
            }
            fn selected_count(&self) -> usize {
                self.0.selected_count()
            }
            fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
                self.0.client_features(images)
            }
            fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
                let seen = (request.range.clone(), request.features.precision());
                self.1.lock().unwrap().push(seen);
                self.0.serve(request)
            }
            fn classify(&self, maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
                self.0.classify(maps)
            }
        }

        let inner =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 5).unwrap();
        let double = Counting(inner, Mutex::new(Vec::new()));
        let seen = || std::mem::take(&mut *double.1.lock().unwrap());
        let images = Tensor::ones(&[2, 3, 8, 8]);
        let features = double.client_features(&images).unwrap();
        let direct = double.0.server_outputs(&features).unwrap();

        assert_eq!(double.server_outputs(&features).unwrap(), direct);
        assert_eq!(seen(), [(None, Precision::F32)]);
        assert_eq!(
            double.server_outputs_range(&features, 0, 1).unwrap(),
            direct
        );
        assert_eq!(seen(), [(Some(0..1), Precision::F32)]);
        double.predict(&images).unwrap();
        assert_eq!(seen(), [(None, Precision::F32)]);
        for precision in [Precision::F32, Precision::Int8] {
            double.predict_at(&images, precision).unwrap();
            assert_eq!(seen(), [(None, precision)]);
            // One request per mini-batch of a sweep.
            let data = SyntheticSpec::tiny_for_tests().generate(3).test;
            let eval = EvalConfig::with_batch_size(4).with_precision(precision);
            double.evaluate(&data, &eval).unwrap();
            assert_eq!(seen(), vec![(None, precision); data.len().div_ceil(4)]);
        }
        // Out-of-bounds and empty ranges are typed errors at both precisions.
        let quantized = QTensorBatch::quantize_batch(&features);
        for payload in [Features::F32(features), Features::Int8(quantized)] {
            assert!(double
                .serve(&ServerRequest::ranged(0..2, payload.clone()))
                .is_err());
            assert!(double.serve(&ServerRequest::ranged(1..1, payload)).is_err());
        }
    }

    /// The reference for every ranged request below: `bodies` is one eager
    /// forward per body, in index order, wrapped in the quantize/dequantize
    /// round trips each precision's contract spells out (an int8 backend
    /// quantizes at both wire crossings even for an `f32` caller). It shares
    /// nothing with the range paths under test — no `server_outputs*`, no
    /// compiled plan, no slicing.
    fn per_body_oracle(
        payload: &Features,
        int8_backend: bool,
        bodies: impl Fn(&Tensor) -> Vec<Tensor>,
    ) -> Maps {
        let round_trip = |t: &Tensor| QTensorBatch::quantize_batch(t).dequantize();
        match payload {
            Features::F32(features) if !int8_backend => Maps::F32(bodies(features)),
            Features::F32(features) => Maps::F32(
                bodies(&round_trip(features))
                    .iter()
                    .map(round_trip)
                    .collect(),
            ),
            Features::Int8(features) => Maps::Int8(
                bodies(&features.dequantize())
                    .iter()
                    .map(QTensorBatch::quantize_batch)
                    .collect(),
            ),
        }
    }

    /// Runs `check` for a 4-body Ensembler, a single-network pipeline and the
    /// int8 wrapper of each × both payload precisions, handing it the
    /// pipeline, a payload and the per-body oracle's answer for it.
    fn for_each_pipeline_and_precision(seed: u64, check: impl Fn(&dyn Defense, &Features, &Maps)) {
        use crate::defenses::{DefenseKind, SinglePipeline};

        let single =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, seed);
        let pipelines: [Arc<dyn Defense>; 2] = [
            Arc::new(tiny_pipeline(4, 2, seed)),
            Arc::new(single.unwrap()),
        ];
        for f32_pipeline in pipelines {
            let int8 = QuantizedDefense::quantize(Arc::clone(&f32_pipeline));
            let images = Tensor::from_fn(&[2, 3, 8, 8], |i| (i as f32 * 0.01).sin());
            let features = f32_pipeline.client_features(&images).unwrap();
            let payloads = [
                Features::Int8(QTensorBatch::quantize_batch(&features)),
                Features::F32(features),
            ];
            for payload in &payloads {
                let reference = per_body_oracle(payload, false, |x| {
                    let bodies = f32_pipeline.server_bodies().iter();
                    bodies.map(|body| body.forward(x, Mode::Eval)).collect()
                });
                check(f32_pipeline.as_ref(), payload, &reference);
                let reference = per_body_oracle(payload, true, |x| {
                    let bodies = f32_pipeline.server_bodies().iter();
                    bodies
                        .map(|body| QSequential::from_sequential(body).forward(x))
                        .collect()
                });
                check(&int8, payload, &reference);
            }
        }
    }

    #[test]
    fn ranged_requests_partition_the_full_evaluation_bit_exactly() {
        for_each_pipeline_and_precision(31, |defense, payload, reference| {
            let what = format!("{} / {:?}", defense.label(), payload.precision());
            let serve = |range| {
                defense
                    .serve(&ServerRequest::ranged(range, payload.clone()))
                    .unwrap()
            };
            let n = defense.ensemble_size();
            assert_eq!(reference.len(), n);
            assert_eq!(
                &defense
                    .serve(&ServerRequest::full(payload.clone()))
                    .unwrap(),
                reference,
                "{what}: full"
            );
            if n == 4 {
                let mut halves = serve(0..2);
                halves.append(serve(2..4)).unwrap();
                assert_eq!(&halves, reference, "{what}: 2+2");
            }
            assert_eq!(&serve(0..n), reference, "{what}: 0..{n}");
        });
    }

    #[test]
    fn a_ranged_request_runs_only_the_bodies_it_names() {
        use ensembler_nn::models::build_body;
        use ensembler_tensor::Rng;

        // Body 3 takes 5 input channels, the head produces 4: any request
        // that evaluates it fails, any request that does not is untouched.
        let config = ResNetConfig::tiny_for_tests();
        let wide = ResNetConfig {
            stem_channels: config.stem_channels + 1,
            ..config
        };
        let poisoned: Arc<dyn Defense> = Arc::new(tiny_pipeline_with(4, 2, 43, |bodies| {
            bodies[3] = build_body(&wide, &mut Rng::seed_from(1));
        }));
        let clean: Arc<dyn Defense> = Arc::new(tiny_pipeline(4, 2, 43));

        let images = Tensor::from_fn(&[2, 3, 8, 8], |i| (i as f32 * 0.01).sin());
        let features = clean.client_features(&images).unwrap();
        let payloads = [
            Features::Int8(QTensorBatch::quantize_batch(&features)),
            Features::F32(features),
        ];
        let int8 = |pipeline: &Arc<dyn Defense>| -> Arc<dyn Defense> {
            Arc::new(QuantizedDefense::quantize(Arc::clone(pipeline)))
        };
        for (poisoned, clean) in [(int8(&poisoned), int8(&clean)), (poisoned, clean)] {
            for payload in &payloads {
                let what = format!("{} / {:?}", poisoned.label(), payload.precision());
                for range in [0..2, 1..3, 0..3] {
                    let request = ServerRequest::ranged(range, payload.clone());
                    assert_eq!(
                        poisoned.serve(&request).expect(&what),
                        clean.serve(&request).unwrap(),
                        "{what}: {:?}",
                        request.range
                    );
                }
                for range in [Some(0..4), Some(3..4), None] {
                    let request = ServerRequest {
                        range,
                        features: payload.clone(),
                    };
                    let err = poisoned.serve(&request).unwrap_err();
                    assert!(
                        matches!(err, EnsemblerError::ShapeMismatch(_)),
                        "{what}: {:?} -> {err}",
                        request.range
                    );
                }
            }
        }
    }

    #[test]
    fn a_slice_of_a_ranged_answer_is_the_ranged_answer_of_the_slice() {
        for_each_pipeline_and_precision(37, |defense, payload, reference| {
            let serve = |range| {
                defense
                    .serve(&ServerRequest::ranged(range, payload.clone()))
                    .unwrap()
            };
            let n = defense.ensemble_size();
            let outers = [(0, n), (1, n), (0, n - 1), (1, n - 1)];
            for (a, b) in outers.into_iter().filter(|(a, b)| a < b) {
                let outer = serve(a..b);
                assert_eq!(outer, reference.clone().slice(a..b), "{a}..{b}");
                for c in 0..b - a {
                    for d in c + 1..=b - a {
                        assert_eq!(
                            outer.clone().slice(c..d),
                            serve(a + c..a + d),
                            "{} / {:?}: ({a}..{b})[{c}..{d}]",
                            defense.label(),
                            payload.precision()
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn empty_and_out_of_bounds_ranges_are_typed_errors() {
        for_each_pipeline_and_precision(41, |defense, payload, _| {
            let reversed = Range { start: 3, end: 1 };
            for range in [1..1, 4..4, 0..5, 2..9, 4..5, reversed] {
                let err = defense
                    .serve(&ServerRequest::ranged(range.clone(), payload.clone()))
                    .unwrap_err();
                assert!(
                    matches!(err, EnsemblerError::InvalidConfig(_)),
                    "{} / {:?}: {range:?} -> {err}",
                    defense.label(),
                    payload.precision()
                );
            }
        });
    }

    #[test]
    fn the_trait_is_object_safe() {
        // Compile-time check: &dyn Defense must be a valid type.
        fn _takes_dyn(_d: &dyn Defense) {}
    }
}
