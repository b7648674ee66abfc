//! Baseline defences the paper compares Ensembler against, built around a
//! single (non-ensembled) split network.
//!
//! * **None** — an unprotected split (the "None" row of Table II).
//! * **Single** — a single network trained with a fixed additive Gaussian
//!   noise on the intermediate features (the "Single" baseline, after
//!   differential-privacy-style calibrated noise).
//! * **Shredder** — the learned-noise defence of Mireshghallah et al.: the
//!   additive noise tensor itself is trained to grow while classification
//!   accuracy is preserved.
//! * **DR-single** — the dropout defence of He et al.: inference-time dropout
//!   on the transmitted features.
//!
//! The DR-N (dropout on an ensemble without stage-1 training) baseline is the
//! ensembled analogue and lives in [`crate::trainer::EnsemblerTrainer::train_joint`].

use crate::defense::{check_feature_shape, serve_bodies, Defense, Precision};
use crate::trainer::TrainConfig;
use crate::{EnsemblerError, Maps, ServerRequest};
use ensembler_data::Dataset;
use ensembler_nn::models::{build_body, build_head, build_tail, ResNetConfig};
use ensembler_nn::{
    CompiledPlan, CrossEntropyLoss, Dropout, FixedNoise, FusionConfig, Identity, Layer,
    LearnedNoise, Mode, Optimizer, Param, Sequential, Sgd,
};
use ensembler_tensor::{Rng, Tensor};

/// Which protection a [`SinglePipeline`] applies to the features it transmits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefenseKind {
    /// No protection at all (the "None" baseline).
    NoDefense,
    /// Fixed additive Gaussian noise with the given standard deviation
    /// (the "Single" baseline).
    AdditiveNoise {
        /// Standard deviation of the fixed noise pattern.
        sigma: f32,
    },
    /// Shredder-style learned additive noise.
    Shredder {
        /// Standard deviation used to initialise the noise tensor.
        sigma: f32,
        /// Weight of the noise-expansion objective.
        expansion: f32,
    },
    /// Inference-time dropout on the transmitted features (DR-single).
    Dropout {
        /// Drop probability.
        probability: f32,
    },
}

impl DefenseKind {
    /// Short human-readable name matching the paper's table rows.
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::NoDefense => "None",
            DefenseKind::AdditiveNoise { .. } => "Single",
            DefenseKind::Shredder { .. } => "Shredder",
            DefenseKind::Dropout { .. } => "DR-single",
        }
    }
}

/// The defence layer applied to the intermediate features of a single split
/// network.
#[derive(Debug)]
enum DefenseLayer {
    Identity(Identity),
    Fixed(FixedNoise),
    Learned(LearnedNoise),
    Dropout(Dropout),
}

impl DefenseLayer {
    fn forward(&self, input: &Tensor, mode: Mode) -> Tensor {
        match self {
            DefenseLayer::Identity(l) => l.forward(input, mode),
            DefenseLayer::Fixed(l) => l.forward(input, mode),
            DefenseLayer::Learned(l) => l.forward(input, mode),
            DefenseLayer::Dropout(l) => l.forward(input, mode),
        }
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match self {
            DefenseLayer::Identity(l) => l.forward_cached(input, mode),
            DefenseLayer::Fixed(l) => l.forward_cached(input, mode),
            DefenseLayer::Learned(l) => l.forward_cached(input, mode),
            DefenseLayer::Dropout(l) => l.forward_cached(input, mode),
        }
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        match self {
            DefenseLayer::Identity(l) => l.backward(grad),
            DefenseLayer::Fixed(l) => l.backward(grad),
            DefenseLayer::Learned(l) => l.backward(grad),
            DefenseLayer::Dropout(l) => l.backward(grad),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            DefenseLayer::Learned(l) => l.params_mut(),
            _ => Vec::new(),
        }
    }
}

/// A single split network (client head + defence + server body + client tail)
/// protected by one of the baseline defences.
///
/// Like [`crate::EnsemblerPipeline`], all inference goes through the
/// [`Defense`] trait with `&self`, so baselines and Ensembler are completely
/// interchangeable for attacks, benchmarks and serving. The single body is
/// modelled as an ensemble of size 1.
///
/// # Examples
///
/// ```
/// use ensembler::{Defense, DefenseKind, SinglePipeline, TrainConfig};
/// use ensembler_data::SyntheticSpec;
/// use ensembler_nn::models::ResNetConfig;
///
/// let data = SyntheticSpec::tiny_for_tests().generate(0);
/// let mut pipeline = SinglePipeline::new(
///     ResNetConfig::tiny_for_tests(),
///     DefenseKind::AdditiveNoise { sigma: 0.1 },
///     7,
/// )?;
/// let losses = pipeline.train_supervised(&data.train, &TrainConfig::fast_for_tests())?;
/// assert!(!losses.is_empty());
/// assert_eq!(pipeline.label(), "Single");
/// # Ok::<(), ensembler::EnsemblerError>(())
/// ```
#[derive(Debug)]
pub struct SinglePipeline {
    config: ResNetConfig,
    kind: DefenseKind,
    head: Sequential,
    defense: DefenseLayer,
    body: [Sequential; 1],
    tail: Sequential,
    // Plans for [head, body, tail], compiled by `new` and again at the end of
    // `train_supervised`.
    plans: [CompiledPlan; 3],
}

/// Compiles the plans a [`SinglePipeline`] runs: `[head, body, tail]`.
fn compile_stages(head: &Sequential, body: &Sequential, tail: &Sequential) -> [CompiledPlan; 3] {
    [head, body, tail].map(|net| CompiledPlan::compile(net, FusionConfig))
}

impl SinglePipeline {
    /// Builds an untrained single split network with the given defence.
    ///
    /// # Errors
    ///
    /// Returns an error if the backbone configuration fails validation or the
    /// defence parameters are out of range.
    pub fn new(config: ResNetConfig, kind: DefenseKind, seed: u64) -> Result<Self, EnsemblerError> {
        config.validate().map_err(EnsemblerError::InvalidConfig)?;
        let mut rng = Rng::seed_from(seed);
        let head = build_head(&config, &mut rng);
        let body = build_body(&config, &mut rng);
        let tail = build_tail(&config, config.body_output_features(), &mut rng);
        let head_shape = config.head_output_shape();
        let defense = match kind {
            DefenseKind::NoDefense => DefenseLayer::Identity(Identity::new()),
            DefenseKind::AdditiveNoise { sigma } => {
                if sigma < 0.0 || !sigma.is_finite() {
                    return Err(EnsemblerError::InvalidConfig(
                        "noise sigma must be finite and non-negative".to_string(),
                    ));
                }
                DefenseLayer::Fixed(FixedNoise::new(&head_shape, sigma, &mut rng))
            }
            DefenseKind::Shredder { sigma, expansion } => {
                if sigma < 0.0 || expansion < 0.0 || !(sigma.is_finite() && expansion.is_finite()) {
                    return Err(EnsemblerError::InvalidConfig(
                        "Shredder parameters must be finite and non-negative".to_string(),
                    ));
                }
                DefenseLayer::Learned(LearnedNoise::new(&head_shape, sigma, expansion, &mut rng))
            }
            DefenseKind::Dropout { probability } => {
                if !(0.0..1.0).contains(&probability) {
                    return Err(EnsemblerError::InvalidConfig(
                        "dropout probability must be in [0, 1)".to_string(),
                    ));
                }
                let mut dropout = Dropout::new(probability, seed ^ 0xD20F);
                dropout.set_active_in_eval(true);
                DefenseLayer::Dropout(dropout)
            }
        };
        let plans = compile_stages(&head, &body, &tail);
        Ok(Self {
            config,
            kind,
            head,
            defense,
            body: [body],
            tail,
            plans,
        })
    }

    /// The defence applied to the transmitted features.
    pub fn kind(&self) -> DefenseKind {
        self.kind
    }

    /// Splits the trained pipeline into its parts
    /// `(head, body, tail)`, dropping the defence layer. Used by the
    /// Ensembler trainer to harvest stage-1 networks.
    pub fn into_parts(self) -> (Sequential, Sequential, Sequential) {
        let [body] = self.body;
        (self.head, body, self.tail)
    }

    /// Trains the whole pipeline with cross-entropy, returning the mean loss
    /// of every epoch.
    ///
    /// For the Shredder defence the learned noise additionally receives the
    /// noise-expansion gradient each step, so the noise magnitude grows while
    /// accuracy is maintained. The pipeline's plans are recompiled from the
    /// trained weights before this returns.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::InvalidConfig`] if `train` fails
    /// [`TrainConfig::validate`] and [`EnsemblerError::EmptyDataset`] if
    /// `data` has no samples.
    pub fn train_supervised(
        &mut self,
        data: &Dataset,
        train: &TrainConfig,
    ) -> Result<Vec<f32>, EnsemblerError> {
        train.validate()?;
        if data.is_empty() {
            return Err(EnsemblerError::EmptyDataset);
        }
        let mut rng = Rng::seed_from(train.seed);
        let mut optimizer = Sgd::new(train.learning_rate).with_momentum(0.9);
        let loss_fn = CrossEntropyLoss::new();
        let mut epoch_losses = Vec::with_capacity(train.epochs_stage1);

        for _ in 0..train.epochs_stage1 {
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for (images, labels) in data.batches(train.batch_size, &mut rng) {
                let head_out = self.head.forward_cached(&images, Mode::Train);
                let protected = self.defense.forward_cached(&head_out, Mode::Train);
                let body_out = self.body[0].forward_cached(&protected, Mode::Train);
                let logits = self.tail.forward_cached(&body_out, Mode::Train);
                let out = loss_fn.compute(&logits, &labels);

                let grad_body_out = self.tail.backward(&out.grad);
                let grad_protected = self.body[0].backward(&grad_body_out);
                let grad_head_out = self.defense.backward(&grad_protected);
                let _ = self.head.backward(&grad_head_out);

                if let DefenseLayer::Learned(noise) = &mut self.defense {
                    noise.apply_expansion_grad();
                }

                let mut params = self.head.params_mut();
                params.extend(self.body[0].params_mut());
                params.extend(self.tail.params_mut());
                params.extend(self.defense.params_mut());
                optimizer.step(&mut params);

                epoch_loss += out.loss;
                batches += 1;
            }
            epoch_losses.push(epoch_loss / batches.max(1) as f32);
        }
        self.plans = compile_stages(&self.head, &self.body[0], &self.tail);
        Ok(epoch_losses)
    }
}

impl Defense for SinglePipeline {
    fn config(&self) -> &ResNetConfig {
        &self.config
    }

    fn label(&self) -> &str {
        self.kind.label()
    }

    fn server_bodies(&self) -> &[Sequential] {
        &self.body
    }

    fn selected_count(&self) -> usize {
        1
    }

    /// Computes the features the client transmits (head output plus defence).
    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        let features = self.plans[0].run(images)?;
        check_feature_shape(features.shape(), &self.config)?;
        Ok(self.defense.forward(&features, Mode::Eval))
    }

    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        serve_bodies(request, 1, Precision::F32, |features, _| {
            let map = self.plans[1].run(features.as_f32()?)?;
            Ok(Maps::F32(vec![map]))
        })
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        if server_maps.len() != 1 {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "a single-network pipeline expects 1 feature map, got {}",
                server_maps.len()
            )));
        }
        Ok(self.plans[2].run(&server_maps[0])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::EvalConfig;
    use ensembler_data::SyntheticSpec;

    fn tiny_data() -> ensembler_data::SyntheticDataset {
        SyntheticSpec::tiny_for_tests().generate(2)
    }

    #[test]
    fn defense_labels_match_paper_rows() {
        assert_eq!(DefenseKind::NoDefense.label(), "None");
        assert_eq!(DefenseKind::AdditiveNoise { sigma: 0.1 }.label(), "Single");
        assert_eq!(
            DefenseKind::Shredder {
                sigma: 0.1,
                expansion: 0.1
            }
            .label(),
            "Shredder"
        );
        assert_eq!(
            DefenseKind::Dropout { probability: 0.3 }.label(),
            "DR-single"
        );
    }

    #[test]
    fn construction_validates_defense_parameters() {
        let cfg = ResNetConfig::tiny_for_tests;
        assert!(SinglePipeline::new(cfg(), DefenseKind::AdditiveNoise { sigma: -1.0 }, 0).is_err());
        assert!(SinglePipeline::new(
            cfg(),
            DefenseKind::Shredder {
                sigma: -0.1,
                expansion: 0.0
            },
            0
        )
        .is_err());
        assert!(SinglePipeline::new(cfg(), DefenseKind::Dropout { probability: 1.0 }, 0).is_err());
        assert!(SinglePipeline::new(cfg(), DefenseKind::NoDefense, 0).is_ok());
        // A non-finite sigma or expansion is a typed error, not a panic in
        // the noise layer and not a pipeline that transmits non-finite
        // features.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let noise = DefenseKind::AdditiveNoise { sigma: bad };
            let err = SinglePipeline::new(cfg(), noise, 0).unwrap_err();
            assert!(matches!(err, EnsemblerError::InvalidConfig(_)), "{bad}");
            for (sigma, expansion) in [(bad, 0.0), (0.1, bad)] {
                let shredder = DefenseKind::Shredder { sigma, expansion };
                let err = SinglePipeline::new(cfg(), shredder, 0).unwrap_err();
                assert!(matches!(err, EnsemblerError::InvalidConfig(_)), "{bad}");
            }
        }
    }

    #[test]
    fn invalid_backbone_configuration_is_reported() {
        let mut cfg = ResNetConfig::tiny_for_tests();
        cfg.stage_channels.clear();
        let err = SinglePipeline::new(cfg, DefenseKind::NoDefense, 0).unwrap_err();
        assert!(matches!(err, EnsemblerError::InvalidConfig(_)));
    }

    #[test]
    fn training_reduces_the_loss() {
        let data = tiny_data();
        let mut pipeline =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 1).unwrap();
        let mut cfg = TrainConfig::fast_for_tests();
        cfg.epochs_stage1 = 6;
        let losses = pipeline.train_supervised(&data.train, &cfg).unwrap();
        assert_eq!(losses.len(), 6);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss should decrease: {losses:?}"
        );
    }

    #[test]
    fn training_rejects_invalid_configurations() {
        // A NaN learning rate used to reach `Sgd::new`'s assertion, and a
        // zero batch size the batcher.
        let data = tiny_data();
        let mut pipeline =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 1).unwrap();
        let mut nan_rate = TrainConfig::fast_for_tests();
        nan_rate.learning_rate = f32::NAN;
        let mut no_batch = TrainConfig::fast_for_tests();
        no_batch.batch_size = 0;
        for bad in [nan_rate, no_batch] {
            let err = pipeline.train_supervised(&data.train, &bad).unwrap_err();
            assert!(matches!(err, EnsemblerError::InvalidConfig(_)), "{bad:?}");
        }
    }

    #[test]
    fn training_rejects_empty_datasets() {
        let data = tiny_data();
        let empty = {
            // Build an empty dataset by taking a 1-sample gather and slicing none:
            // simplest is to construct directly.
            ensembler_data::Dataset::new(
                ensembler_tensor::Tensor::zeros(&[0, 3, 8, 8]),
                vec![],
                data.train.num_classes(),
            )
        };
        let mut pipeline =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 1).unwrap();
        assert!(matches!(
            pipeline.train_supervised(&empty, &TrainConfig::fast_for_tests()),
            Err(EnsemblerError::EmptyDataset)
        ));
    }

    #[test]
    fn noise_defense_perturbs_transmitted_features() {
        let plain =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 3).unwrap();
        let noisy = SinglePipeline::new(
            ResNetConfig::tiny_for_tests(),
            DefenseKind::AdditiveNoise { sigma: 0.3 },
            3,
        )
        .unwrap();
        let images = Tensor::ones(&[1, 3, 8, 8]);
        let a = plain.client_features(&images).unwrap();
        let b = noisy.client_features(&images).unwrap();
        assert_eq!(a.shape(), b.shape());
        let diff = a.sub(&b).norm();
        assert!(diff > 0.1, "noise must change the features (diff {diff})");
    }

    #[test]
    fn shredder_noise_grows_during_training() {
        let data = tiny_data();
        let mut pipeline = SinglePipeline::new(
            ResNetConfig::tiny_for_tests(),
            DefenseKind::Shredder {
                sigma: 0.05,
                expansion: 5.0,
            },
            4,
        )
        .unwrap();
        let initial_norm = match &pipeline.defense {
            DefenseLayer::Learned(n) => n.noise().norm(),
            _ => unreachable!(),
        };
        let mut cfg = TrainConfig::fast_for_tests();
        cfg.epochs_stage1 = 4;
        pipeline.train_supervised(&data.train, &cfg).unwrap();
        let final_norm = match &pipeline.defense {
            DefenseLayer::Learned(n) => n.noise().norm(),
            _ => unreachable!(),
        };
        assert!(
            final_norm > initial_norm,
            "expansion objective should grow the noise: {initial_norm} -> {final_norm}"
        );
    }

    #[test]
    fn dropout_defense_stays_active_at_inference() {
        let pipeline = SinglePipeline::new(
            ResNetConfig::tiny_for_tests(),
            DefenseKind::Dropout { probability: 0.5 },
            5,
        )
        .unwrap();
        let images = Tensor::ones(&[1, 3, 8, 8]);
        let features = pipeline.client_features(&images).unwrap();
        let zeros = features.data().iter().filter(|v| **v == 0.0).count();
        assert!(
            zeros as f32 >= 0.2 * features.len() as f32,
            "a substantial fraction of features should be dropped"
        );
    }

    #[test]
    fn predict_and_evaluate_have_consistent_shapes() {
        let data = tiny_data();
        let pipeline =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 6).unwrap();
        let (images, _) = data.test.batch(0, 4);
        let logits = pipeline.predict(&images).unwrap();
        assert_eq!(logits.shape(), &[4, 3]);
        let acc = pipeline
            .evaluate(&data.test, &EvalConfig::default())
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
        // The split API agrees with the fused one.
        let transmitted = pipeline.client_features(&images).unwrap();
        let maps = pipeline.server_outputs(&transmitted).unwrap();
        assert_eq!(maps.len(), 1);
        assert_eq!(pipeline.classify(&maps).unwrap(), logits);
        assert!(pipeline.classify(&[]).is_err());
    }

    #[test]
    fn into_parts_returns_the_trained_components() {
        let pipeline =
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 7).unwrap();
        let (head, body, tail) = pipeline.into_parts();
        assert!(head.parameter_count() > 0);
        assert!(body.parameter_count() > 0);
        assert!(tail.parameter_count() > 0);
    }
}
