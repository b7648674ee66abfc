//! The Ensembler inference pipeline (Fig. 2 of the paper).

use crate::defense::{check_feature_shape, serve_bodies, Defense, Precision};
use crate::{EnsemblerError, Maps, Selector, ServerRequest};
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::{CompiledPlan, Dropout, FixedNoise, FusionConfig, Layer, Mode, Sequential};
use ensembler_tensor::Tensor;

/// The full Ensembler collaborative-inference pipeline.
///
/// * The **client** holds the head `M_c,h` (one convolution plus optional
///   stem pool), a fixed Gaussian noise pattern, the private [`Selector`]
///   and the tail classifier `M_c,t`.
/// * The **server** holds the `N` body networks `M_s^1..M_s^N`.
///
/// During inference the client sends `M_c,h(x) + N(0, σ)` to the server, the
/// server evaluates all `N` bodies and returns their feature maps, and the
/// client secretly combines `P` of them before running the tail.
///
/// All inference goes through the [`Defense`] trait and takes `&self`: a
/// pipeline can be wrapped in an `Arc`, shared across threads and serve
/// concurrent batches (see [`crate::engine::InferenceEngine`]) — the API
/// realisation of the paper's argument that the `O(N)` server cost
/// parallelises away.
///
/// Inference does not call `Layer::forward` directly: head, bodies and tail
/// are lowered through [`ensembler_nn::graph`] and compiled into fused,
/// bit-exact [`CompiledPlan`]s — once, by [`EnsemblerPipeline::new`]. The
/// pipeline hands out no mutable weights, so those plans never go stale. The
/// plans also validate request shapes, and the client stage checks the
/// head's output against the configured shape
/// ([`crate::check_feature_shape`]), so a malformed batch returns
/// [`EnsemblerError::ShapeMismatch`] instead of panicking.
///
/// The pipeline exposes the pieces an adversarial server legitimately has
/// access to under the paper's threat model — the bodies
/// ([`Defense::server_bodies`]) and the architecture ([`Defense::config`]) —
/// which is what the `ensembler-attack` crate uses to mount model inversion
/// attacks.
#[derive(Debug)]
pub struct EnsemblerPipeline {
    config: ResNetConfig,
    head: Sequential,
    noise: FixedNoise,
    dropout: Option<Dropout>,
    bodies: Vec<Sequential>,
    selector: Selector,
    tail: Sequential,
    head_plan: CompiledPlan,
    tail_plan: CompiledPlan,
    body_plans: Vec<CompiledPlan>,
}

impl EnsemblerPipeline {
    /// Assembles a pipeline from its parts and compiles every plan it runs,
    /// on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns an error if the selector's ensemble size differs from the
    /// number of bodies, or if there are no bodies at all.
    pub fn new(
        config: ResNetConfig,
        head: Sequential,
        noise: FixedNoise,
        bodies: Vec<Sequential>,
        selector: Selector,
        tail: Sequential,
    ) -> Result<Self, EnsemblerError> {
        if bodies.is_empty() {
            return Err(EnsemblerError::InvalidConfig(
                "an Ensembler pipeline needs at least one server body".to_string(),
            ));
        }
        if selector.ensemble_size() != bodies.len() {
            return Err(EnsemblerError::InvalidSelection {
                selected: selector.active_count(),
                available: bodies.len(),
            });
        }
        let head_plan = CompiledPlan::compile(&head, FusionConfig);
        let tail_plan = CompiledPlan::compile(&tail, FusionConfig);
        let body_plans = bodies
            .iter()
            .map(|body| CompiledPlan::compile(body, FusionConfig))
            .collect();
        Ok(Self {
            config,
            head,
            noise,
            dropout: None,
            bodies,
            selector,
            tail,
            head_plan,
            tail_plan,
            body_plans,
        })
    }

    /// Adds an inference-time dropout layer on the transmitted features (the
    /// DR-N baseline defence). The dropout stays active in evaluation mode.
    pub fn with_feature_dropout(mut self, probability: f32, seed: u64) -> Self {
        let mut dropout = Dropout::new(probability, seed);
        dropout.set_active_in_eval(true);
        self.dropout = Some(dropout);
        self
    }

    /// The client's private selector.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// The client head `M_c,h` (artifact export reads its parameters).
    pub fn head(&self) -> &Sequential {
        &self.head
    }

    /// The client tail `M_c,t` (artifact export reads its parameters).
    pub fn tail(&self) -> &Sequential {
        &self.tail
    }

    /// The client's fixed noise layer.
    pub fn noise(&self) -> &FixedNoise {
        &self.noise
    }

    /// The inference-time feature dropout, if the DR-N defence is enabled.
    pub fn feature_dropout(&self) -> Option<&Dropout> {
        self.dropout.as_ref()
    }

    /// The standard deviation of the client's fixed noise.
    pub fn noise_sigma(&self) -> f32 {
        self.noise.sigma()
    }

    /// Total number of trainable scalars across client and server parts.
    pub fn parameter_count(&self) -> usize {
        self.head.parameter_count()
            + self.tail.parameter_count()
            + self
                .bodies
                .iter()
                .map(Layer::parameter_count)
                .sum::<usize>()
    }
}

impl Defense for EnsemblerPipeline {
    fn config(&self) -> &ResNetConfig {
        &self.config
    }

    fn label(&self) -> &str {
        "Ensembler"
    }

    fn server_bodies(&self) -> &[Sequential] {
        &self.bodies
    }

    fn selected_count(&self) -> usize {
        self.selector.active_count()
    }

    /// Computes the features the client transmits for a batch of images:
    /// `M_c,h(x) + N(0, σ)` (plus dropout if the DR-N defence is enabled).
    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        let features = self.head_plan.run(images)?;
        check_feature_shape(features.shape(), &self.config)?;
        let noisy = self.noise.forward(&features, Mode::Eval);
        Ok(match &self.dropout {
            Some(dropout) => dropout.forward(&noisy, Mode::Eval),
            None => noisy,
        })
    }

    /// Evaluates the requested server bodies — all `N`, or the slice a
    /// sharded worker owns — on the transmitted features, returning their
    /// feature maps in index order.
    ///
    /// The bodies are independent, so they are evaluated in parallel from a
    /// shared `&self` — the property the paper uses to argue the `O(N)`
    /// server cost parallelises away in multi-GPU or multi-party deployments
    /// — and a slice is bit-identical to the same slice of a full evaluation.
    /// What they do share, the lowering of the transmitted features for
    /// their first convolution, is done once ([`CompiledPlan::run_all`]).
    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        serve_bodies(
            request,
            self.bodies.len(),
            Precision::F32,
            |features, range| {
                let transmitted = features.as_f32()?;
                Ok(Maps::F32(CompiledPlan::run_all(
                    &self.body_plans[range],
                    transmitted,
                )?))
            },
        )
    }

    /// Applies the private selector and the client tail to the server's
    /// feature maps, producing class logits.
    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        let combined = self.selector.combine(server_maps)?;
        Ok(self.tail_plan.run(&combined)?)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::defense::EvalConfig;
    use ensembler_data::SyntheticSpec;
    use ensembler_nn::models::{build_body, build_head, build_tail};
    use ensembler_tensor::Rng;
    use std::sync::Arc;

    /// An untrained `n`-body, `p`-selected Ensembler on the tiny backbone.
    pub(crate) fn tiny_pipeline(n: usize, p: usize, seed: u64) -> EnsemblerPipeline {
        tiny_pipeline_with(n, p, seed, |_| {})
    }

    /// [`tiny_pipeline`] with `swap` applied to its bodies before the
    /// pipeline is built (and its plans compiled).
    pub(crate) fn tiny_pipeline_with(
        n: usize,
        p: usize,
        seed: u64,
        swap: impl FnOnce(&mut [Sequential]),
    ) -> EnsemblerPipeline {
        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(seed);
        let head = build_head(&config, &mut rng);
        let noise = FixedNoise::new(&config.head_output_shape(), 0.1, &mut rng);
        let mut bodies: Vec<Sequential> = (0..n).map(|_| build_body(&config, &mut rng)).collect();
        swap(&mut bodies);
        let selector = Selector::random(n, p, &mut rng).unwrap();
        let tail = build_tail(&config, p * config.body_output_features(), &mut rng);
        EnsemblerPipeline::new(config, head, noise, bodies, selector, tail).unwrap()
    }

    #[test]
    fn construction_validates_ensemble_consistency() {
        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(0);
        let head = build_head(&config, &mut rng);
        let noise = FixedNoise::disabled(&config.head_output_shape());
        let tail = build_tail(&config, config.body_output_features(), &mut rng);
        let err =
            EnsemblerPipeline::new(config.clone(), head, noise, vec![], Selector::all(1), tail)
                .unwrap_err();
        assert!(matches!(err, EnsemblerError::InvalidConfig(_)));

        let mut rng = Rng::seed_from(1);
        let head = build_head(&config, &mut rng);
        let noise = FixedNoise::disabled(&config.head_output_shape());
        let tail = build_tail(&config, config.body_output_features(), &mut rng);
        let bodies = vec![build_body(&config, &mut rng)];
        let err = EnsemblerPipeline::new(config, head, noise, bodies, Selector::all(3), tail)
            .unwrap_err();
        assert!(matches!(err, EnsemblerError::InvalidSelection { .. }));
    }

    #[test]
    fn end_to_end_prediction_shapes() {
        let pipeline = tiny_pipeline(3, 2, 42);
        let images = Tensor::ones(&[4, 3, 8, 8]);
        let logits = pipeline.predict(&images).unwrap();
        assert_eq!(logits.shape(), &[4, pipeline.config().num_classes]);
        assert!(logits.is_finite());
        assert_eq!(pipeline.label(), "Ensembler");
        assert_eq!(pipeline.selected_count(), 2);
    }

    #[test]
    fn client_features_have_the_documented_shape_and_include_noise() {
        let pipeline = tiny_pipeline(2, 1, 7);
        let expected = pipeline.config().head_output_shape();
        let images = Tensor::zeros(&[2, 3, 8, 8]);
        let features = pipeline.client_features(&images).unwrap();
        assert_eq!(
            features.shape(),
            &[2, expected[0], expected[1], expected[2]]
        );
        // With zero input and biases near zero, the transmitted features are
        // dominated by the fixed noise pattern, so they are not all equal to
        // the raw head output of zeros.
        assert!(features.norm() > 0.0);
        assert!(pipeline.noise_sigma() > 0.0);
    }

    #[test]
    fn server_outputs_are_per_network_and_deterministic() {
        let pipeline = tiny_pipeline(3, 2, 11);
        let images = Tensor::ones(&[2, 3, 8, 8]);
        let transmitted = pipeline.client_features(&images).unwrap();
        let maps_a = pipeline.server_outputs(&transmitted).unwrap();
        let maps_b = pipeline.server_outputs(&transmitted).unwrap();
        assert_eq!(maps_a.len(), 3);
        assert_eq!(maps_a, maps_b, "evaluation must be deterministic");
        let feat = pipeline.config().body_output_features();
        for map in &maps_a {
            assert_eq!(map.shape(), &[2, feat]);
        }
        // Independently initialised bodies produce different feature maps.
        assert_ne!(maps_a[0], maps_a[1]);
    }

    #[test]
    fn range_outputs_equal_the_sliced_full_evaluation() {
        let pipeline = tiny_pipeline(4, 2, 13);
        let images = Tensor::ones(&[2, 3, 8, 8]);
        let transmitted = pipeline.client_features(&images).unwrap();
        let full = pipeline.server_outputs(&transmitted).unwrap();
        for (lo, hi) in [(0usize, 4usize), (0, 2), (2, 4), (1, 3)] {
            assert_eq!(
                pipeline.server_outputs_range(&transmitted, lo, hi).unwrap(),
                full[lo..hi],
                "range {lo}..{hi}"
            );
        }
        // Malformed ranges are typed errors, never silent truncation.
        assert!(pipeline.server_outputs_range(&transmitted, 2, 2).is_err());
        assert!(pipeline.server_outputs_range(&transmitted, 0, 5).is_err());
    }

    #[test]
    fn evaluate_returns_a_probability() {
        let pipeline = tiny_pipeline(2, 1, 3);
        let data = SyntheticSpec::tiny_for_tests().generate(5);
        let acc = pipeline
            .evaluate(&data.test, &EvalConfig::default())
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
        // A custom batch size sweeps the same dataset to the same accuracy.
        let acc_small = pipeline
            .evaluate(&data.test, &EvalConfig::with_batch_size(2))
            .unwrap();
        assert!((acc - acc_small).abs() < 1e-6);
    }

    #[test]
    fn feature_dropout_changes_transmitted_features() {
        let plain = tiny_pipeline(2, 1, 9);
        let defended = tiny_pipeline(2, 1, 9).with_feature_dropout(0.5, 123);
        let images = Tensor::ones(&[1, 3, 8, 8]);
        let a = plain.client_features(&images).unwrap();
        let b = defended.client_features(&images).unwrap();
        assert_eq!(a.shape(), b.shape());
        assert_ne!(a, b, "dropout must perturb the transmitted features");
        let zeros = b.data().iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 0, "some activations must be dropped");
    }

    #[test]
    fn parameter_count_grows_with_ensemble_size() {
        let small = tiny_pipeline(2, 1, 1);
        let large = tiny_pipeline(4, 1, 1);
        assert!(large.parameter_count() > small.parameter_count());
        assert_eq!(small.ensemble_size(), 2);
        assert_eq!(large.ensemble_size(), 4);
    }

    #[test]
    fn concurrent_predictions_match_sequential_ones() {
        // The acceptance test of the immutable-forward redesign: two threads
        // share one pipeline through an Arc and must see exactly the results
        // sequential execution produces.
        let pipeline = Arc::new(tiny_pipeline(3, 2, 21).with_feature_dropout(0.3, 77));
        let images_a = Tensor::from_fn(&[2, 3, 8, 8], |i| (i as f32 * 0.013).sin());
        let images_b = Tensor::from_fn(&[3, 3, 8, 8], |i| (i as f32 * 0.007).cos());

        let sequential_a = pipeline.predict(&images_a).unwrap();
        let sequential_b = pipeline.predict(&images_b).unwrap();

        let (concurrent_a, concurrent_b) = std::thread::scope(|scope| {
            let p_a = Arc::clone(&pipeline);
            let p_b = Arc::clone(&pipeline);
            let ia = &images_a;
            let ib = &images_b;
            let ha = scope.spawn(move || p_a.predict(ia).unwrap());
            let hb = scope.spawn(move || p_b.predict(ib).unwrap());
            (ha.join().unwrap(), hb.join().unwrap())
        });

        assert_eq!(concurrent_a, sequential_a);
        assert_eq!(concurrent_b, sequential_b);
    }
}
