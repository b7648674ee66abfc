//! [`QuantizedDefense`]: any [`Defense`] re-served with int8 server bodies
//! and quantized split tensors, without touching a single call site.
//!
//! The wrapper quantizes the server bodies once at construction time
//! (weights get per-tensor scales, see [`ensembler_nn::quant`]) and leaves
//! the client-side stages — head, noise, secret selector, tail — on the
//! wrapped pipeline in `f32`: they are tiny next to the `N` server bodies,
//! and keeping the classifier full-precision is what holds the accuracy
//! delta against `f32` to a fraction of a percentage point.
//!
//! The int8 semantics deliberately include the quantize→dequantize round
//! trips at **both** wire crossings, in process or not: an `f32` request is
//! answered as `dequantize ∘ serve ∘ quantize` of the int8 one. A
//! remote client therefore executes byte-for-byte the same arithmetic as an
//! in-process caller — the loopback suite asserts bit-exact agreement —
//! and the protocol's quantized frames carry exactly the tensors the maths
//! consumed.

use crate::defense::{serve_bodies, Defense, Precision};
use crate::{EnsemblerError, Maps, ServerRequest};
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::{FusionConfig, QCompiledPlan, Sequential};
use ensembler_tensor::{QTensorBatch, Tensor};
use std::sync::Arc;

/// A [`Defense`] whose server bodies run `i8×i8→i32` kernels.
///
/// Construct one with [`QuantizedDefense::quantize`]; everything that
/// programs against `&dyn Defense` — the engine, the TCP server, attacks,
/// benchmarks — serves the quantized pipeline unchanged.
///
/// # Examples
///
/// ```
/// use ensembler::{Defense, DefenseKind, Precision, QuantizedDefense, SinglePipeline};
/// use ensembler_nn::models::ResNetConfig;
/// use ensembler_tensor::Tensor;
/// use std::sync::Arc;
///
/// let pipeline: Arc<dyn Defense> = Arc::new(SinglePipeline::new(
///     ResNetConfig::tiny_for_tests(),
///     DefenseKind::NoDefense,
///     3,
/// )?);
/// let int8 = QuantizedDefense::quantize(Arc::clone(&pipeline));
/// assert_eq!(int8.precision(), Precision::Int8);
/// assert_eq!(int8.label(), "None+int8");
///
/// let images = Tensor::ones(&[2, 3, 8, 8]);
/// let logits = int8.predict(&images)?;
/// assert_eq!(logits.shape(), pipeline.predict(&images)?.shape());
/// # Ok::<(), ensembler::EnsemblerError>(())
/// ```
#[derive(Debug)]
pub struct QuantizedDefense {
    inner: Arc<dyn Defense>,
    label: String,
    qplans: Vec<QCompiledPlan>,
}

impl QuantizedDefense {
    /// Quantizes the server bodies of `inner` and compiles them into fused
    /// int8 plans, which reproduce the eager [`ensembler_nn::QSequential`]
    /// forward bit-for-bit.
    ///
    /// The label gains an `+int8` suffix so the serving handshake refuses to
    /// pair an int8 client replica with an `f32` deployment (or vice versa)
    /// — mixing them would silently produce logits that differ from both.
    pub fn quantize(inner: Arc<dyn Defense>) -> Self {
        let qplans = inner
            .server_bodies()
            .iter()
            .map(|body| QCompiledPlan::compile(body, FusionConfig))
            .collect();
        let label = format!("{}+int8", inner.label());
        Self {
            inner,
            label,
            qplans,
        }
    }

    /// The wrapped full-precision pipeline.
    pub fn inner(&self) -> &Arc<dyn Defense> {
        &self.inner
    }
}

impl Defense for QuantizedDefense {
    fn config(&self) -> &ResNetConfig {
        self.inner.config()
    }

    fn label(&self) -> &str {
        &self.label
    }

    /// The wrapped pipeline's `f32` bodies: under the paper's threat model
    /// the adversary owns the server weights, and quantization is not a
    /// defence — attacks keep reading the full-precision parameters.
    fn server_bodies(&self) -> &[Sequential] {
        self.inner.server_bodies()
    }

    fn selected_count(&self) -> usize {
        self.inner.selected_count()
    }

    fn precision(&self) -> Precision {
        Precision::Int8
    }

    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.inner.client_features(images)
    }

    /// Evaluates the requested quantized bodies on the dequantized int8
    /// feature batch, in parallel and from one shared lowering like the
    /// `f32` pipeline ([`QCompiledPlan::run_all`]), re-quantizing each
    /// body's output per sample for the return leg. An `f32` request is quantized on the
    /// way in and dequantized on the way out like any payload crossing to an
    /// int8 backend ([`crate::Features::to_precision`]): the round trips are
    /// part of the definition, so in-process and remote int8 predictions
    /// agree bit-exactly.
    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        serve_bodies(
            request,
            self.qplans.len(),
            Precision::Int8,
            |features, range| {
                let features = features.as_int8()?;
                let maps = QCompiledPlan::run_all(&self.qplans[range], &features.dequantize())?;
                Ok(Maps::Int8(
                    maps.iter().map(QTensorBatch::quantize_batch).collect(),
                ))
            },
        )
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.inner.classify(server_maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::EvalConfig;
    use crate::defenses::{DefenseKind, SinglePipeline};
    use ensembler_data::SyntheticSpec;
    use ensembler_metrics::accuracy;

    fn base() -> Arc<dyn Defense> {
        Arc::new(
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 11)
                .unwrap(),
        )
    }

    fn images(batch: usize) -> Tensor {
        Tensor::from_fn(&[batch, 3, 8, 8], |i| ((i % 89) as f32 * 0.171).sin())
    }

    #[test]
    fn quantized_predict_is_deterministic_and_shaped() {
        let int8 = QuantizedDefense::quantize(base());
        let logits_a = int8.predict(&images(3)).unwrap();
        let logits_b = int8.predict(&images(3)).unwrap();
        assert_eq!(logits_a, logits_b);
        assert_eq!(logits_a.shape(), &[3, 3]);
        assert!(logits_a.is_finite());
    }

    #[test]
    fn predict_at_int8_equals_the_quantized_pipelines_own_predict() {
        let inner = base();
        let int8 = QuantizedDefense::quantize(Arc::clone(&inner));
        let batch = images(2);
        assert_eq!(
            int8.predict_at(&batch, Precision::Int8).unwrap(),
            int8.predict(&batch).unwrap()
        );
        // And on the f32 pipeline, predict_at(Int8) only quantizes the split
        // tensors: it differs from full int8 but stays close to f32.
        let wire_only = inner.predict_at(&batch, Precision::Int8).unwrap();
        assert_eq!(wire_only.shape(), &[2, 3]);
    }

    #[test]
    fn per_sample_results_do_not_depend_on_the_batch() {
        let int8 = QuantizedDefense::quantize(base());
        let five = images(5);
        let alone = int8.predict(&five.batch_item(2)).unwrap();
        let together = int8.predict(&five).unwrap();
        let classes = alone.shape()[1];
        assert_eq!(
            alone.data(),
            &together.data()[2 * classes..3 * classes],
            "a sample's int8 logits must not depend on its batch mates"
        );
    }

    #[test]
    fn quantized_range_outputs_equal_the_sliced_full_evaluation() {
        use crate::{EnsemblerPipeline, Features, Selector};
        use ensembler_nn::models::{build_body, build_head, build_tail};
        use ensembler_nn::FixedNoise;
        use ensembler_tensor::Rng;

        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(19);
        let head = build_head(&config, &mut rng);
        let noise = FixedNoise::new(&config.head_output_shape(), 0.1, &mut rng);
        let bodies = (0..4).map(|_| build_body(&config, &mut rng)).collect();
        let selector = Selector::random(4, 2, &mut rng).unwrap();
        let tail = build_tail(&config, 2 * config.body_output_features(), &mut rng);
        let inner: Arc<dyn Defense> =
            Arc::new(EnsemblerPipeline::new(config, head, noise, bodies, selector, tail).unwrap());
        let int8 = QuantizedDefense::quantize(inner);

        let transmitted = int8.client_features(&images(2)).unwrap();
        let full = int8.server_outputs(&transmitted).unwrap();
        let qf = Features::Int8(QTensorBatch::quantize_batch(&transmitted));
        let qfull = int8.serve(&ServerRequest::full(qf.clone())).unwrap();
        for (lo, hi) in [(0usize, 4usize), (0, 2), (2, 4), (1, 3)] {
            assert_eq!(
                int8.server_outputs_range(&transmitted, lo, hi).unwrap(),
                full[lo..hi],
                "f32 range {lo}..{hi}"
            );
            assert_eq!(
                int8.serve(&ServerRequest::ranged(lo..hi, qf.clone()))
                    .unwrap(),
                qfull.clone().slice(lo..hi),
                "quantized range {lo}..{hi}"
            );
        }
        assert!(int8.serve(&ServerRequest::ranged(3..3, qf)).is_err());
        assert!(int8.server_outputs_range(&transmitted, 2, 9).is_err());
    }

    #[test]
    fn quantized_accuracy_tracks_f32_accuracy() {
        let inner = base();
        let int8 = QuantizedDefense::quantize(Arc::clone(&inner));
        let data = SyntheticSpec::tiny_for_tests().generate(5);
        let f32_acc = inner.evaluate(&data.test, &EvalConfig::default()).unwrap();
        let int8_acc = int8.evaluate(&data.test, &EvalConfig::default()).unwrap();
        assert!(
            (f32_acc - int8_acc).abs() <= 0.25,
            "untrained tiny pipeline: int8 {int8_acc} vs f32 {f32_acc}"
        );
        // Logit-level agreement is the stronger check.
        let (imgs, labels) = data.test.batch(0, data.test.len());
        let f32_logits = inner.predict(&imgs).unwrap();
        let int8_logits = int8.predict(&imgs).unwrap();
        assert_eq!(
            accuracy(&f32_logits, &labels) > 0.0,
            accuracy(&int8_logits, &labels) > 0.0
        );
    }

    #[test]
    fn evaluate_precision_mode_routes_through_the_quantized_stage() {
        let int8 = QuantizedDefense::quantize(base());
        let data = SyntheticSpec::tiny_for_tests().generate(6);
        let cfg = EvalConfig::default();
        let acc_f32_mode = int8.evaluate(&data.test, &cfg).unwrap();
        let acc_int8_mode = int8
            .evaluate(&data.test, &cfg.with_precision(Precision::Int8))
            .unwrap();
        // For a QuantizedDefense both modes run the same int8 arithmetic.
        assert_eq!(acc_f32_mode, acc_int8_mode);
    }
}
