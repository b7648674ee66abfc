//! The three-stage Ensembler training procedure (Sec. III-C of the paper).
//!
//! * **Stage 1** trains `N` independent split networks, each with its own
//!   fixed Gaussian noise pattern, so the resulting client heads (and the
//!   server bodies behind them) end up with distinct weights.
//! * **Stage 2** secretly selects `P` of the `N` server networks.
//! * **Stage 3** freezes the selected server bodies and retrains a fresh
//!   client head and tail with the cross-entropy objective of Eq. 3 plus the
//!   cosine-similarity regularizer that keeps the new head quasi-orthogonal
//!   to every stage-1 head.

use crate::defense::{Defense, EvalConfig};
use crate::defenses::{DefenseKind, SinglePipeline};
use crate::framework::EnsemblerPipeline;
use crate::selector::Selector;
use crate::EnsemblerError;
use ensembler_data::Dataset;
use ensembler_nn::models::{build_head, build_tail, ResNetConfig};
use ensembler_nn::{
    cosine_penalty, CrossEntropyLoss, FixedNoise, Layer, Mode, Optimizer, Sequential, Sgd,
};
use ensembler_tensor::{Rng, Tensor};

/// Hyper-parameters of the three-stage training procedure.
///
/// # Examples
///
/// ```
/// use ensembler::TrainConfig;
///
/// let cfg = TrainConfig::paper_like();
/// assert!(cfg.lambda > 0.0);
/// assert!(cfg.epochs_stage1 >= 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Epochs used to train each stage-1 network (and the single-network
    /// baselines).
    pub epochs_stage1: usize,
    /// Epochs used for the stage-3 client retraining.
    pub epochs_stage3: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Strength `λ` of the cosine-similarity regularizer (Eq. 3).
    pub lambda: f32,
    /// Standard deviation `σ` of the fixed Gaussian noise.
    pub sigma: f32,
    /// Seed controlling initialisation, noise patterns, batching and the
    /// secret selector.
    pub seed: u64,
}

impl TrainConfig {
    /// A configuration sized for the scaled-down MicroResNet experiments the
    /// benchmark harness runs (seconds per dataset on a laptop CPU).
    pub fn paper_like() -> Self {
        Self {
            epochs_stage1: 8,
            epochs_stage3: 10,
            batch_size: 32,
            learning_rate: 0.05,
            lambda: 1.0,
            sigma: 0.1,
            seed: 2024,
        }
    }

    /// A deliberately tiny configuration for unit tests.
    pub fn fast_for_tests() -> Self {
        Self {
            epochs_stage1: 2,
            epochs_stage3: 3,
            batch_size: 8,
            learning_rate: 0.05,
            lambda: 0.5,
            sigma: 0.1,
            seed: 42,
        }
    }

    /// Returns a copy with a different regularization strength, used by the
    /// λ-ablation benchmark.
    pub fn with_lambda(mut self, lambda: f32) -> Self {
        self.lambda = lambda;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if any count is zero, a coefficient is negative or
    /// not finite (NaN included), or the learning rate is zero.
    pub fn validate(&self) -> Result<(), EnsemblerError> {
        if self.epochs_stage1 == 0 || self.epochs_stage3 == 0 || self.batch_size == 0 {
            return Err(EnsemblerError::InvalidConfig(
                "epoch and batch counts must be positive".to_string(),
            ));
        }
        let coefficients = [self.learning_rate, self.lambda, self.sigma];
        if self.learning_rate <= 0.0
            || self.lambda < 0.0
            || self.sigma < 0.0
            || !coefficients.iter().all(|c| c.is_finite())
        {
            return Err(EnsemblerError::InvalidConfig(
                "learning rate must be positive; lambda and sigma non-negative; all finite"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// What remains of a stage-1 network once its server body has been handed to
/// the final pipeline: the trained client head, kept so the stage-3
/// regularizer (and analyses) can evaluate `M^i_c,h(x)`.
#[derive(Debug)]
pub struct StageOneNetwork {
    head: Sequential,
    final_loss: f32,
}

impl StageOneNetwork {
    /// The mean training loss of this network's last stage-1 epoch.
    pub fn final_loss(&self) -> f32 {
        self.final_loss
    }

    /// Evaluates the stage-1 client head on a batch of images, returning its
    /// intermediate features (no noise applied).
    pub fn reference_features(&self, images: &Tensor) -> Tensor {
        self.head.forward(images, Mode::Eval)
    }
}

/// Losses and accuracy recorded while training an Ensembler.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-network, per-epoch mean cross-entropy of stage 1.
    pub stage1_losses: Vec<Vec<f32>>,
    /// Per-epoch mean cross-entropy of stage 3.
    pub stage3_losses: Vec<f32>,
    /// Per-epoch mean cosine penalty of stage 3.
    pub stage3_penalties: Vec<f32>,
    /// Top-1 accuracy on the training set after stage 3.
    pub train_accuracy: f32,
}

/// The result of the full three-stage procedure.
#[derive(Debug)]
pub struct TrainedEnsembler {
    pipeline: EnsemblerPipeline,
    stage_one: Vec<StageOneNetwork>,
    report: TrainReport,
}

impl TrainedEnsembler {
    /// The assembled inference pipeline.
    pub fn pipeline(&self) -> &EnsemblerPipeline {
        &self.pipeline
    }

    /// Consumes the result, returning only the pipeline.
    pub fn into_pipeline(self) -> EnsemblerPipeline {
        self.pipeline
    }

    /// The retained stage-1 client heads.
    pub fn stage_one(&self) -> &[StageOneNetwork] {
        &self.stage_one
    }

    /// Losses recorded during training.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }
}

/// Orchestrates the three training stages.
#[derive(Debug, Clone)]
pub struct EnsemblerTrainer {
    config: ResNetConfig,
    train: TrainConfig,
}

impl EnsemblerTrainer {
    /// Creates a trainer for the given backbone and hyper-parameters.
    pub fn new(config: ResNetConfig, train: TrainConfig) -> Self {
        Self { config, train }
    }

    /// The backbone configuration.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }

    /// The training hyper-parameters.
    pub fn train_config(&self) -> &TrainConfig {
        &self.train
    }

    /// The checks [`EnsemblerTrainer::train`] and
    /// [`EnsemblerTrainer::train_joint`] share.
    fn check_inputs(
        &self,
        ensemble_size: usize,
        selected: usize,
        data: &Dataset,
    ) -> Result<(), EnsemblerError> {
        self.train.validate()?;
        self.config
            .validate()
            .map_err(EnsemblerError::InvalidConfig)?;
        if data.is_empty() {
            return Err(EnsemblerError::EmptyDataset);
        }
        if selected == 0 || selected > ensemble_size {
            return Err(EnsemblerError::InvalidSelection {
                selected,
                available: ensemble_size,
            });
        }
        Ok(())
    }

    /// Runs all three stages: trains `ensemble_size` independent networks,
    /// secretly selects `selected` of them, and retrains the client against
    /// the frozen selection.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the selection sizes
    /// are inconsistent, or the dataset is empty.
    pub fn train(
        &self,
        ensemble_size: usize,
        selected: usize,
        data: &Dataset,
    ) -> Result<TrainedEnsembler, EnsemblerError> {
        self.check_inputs(ensemble_size, selected, data)?;

        let mut report = TrainReport::default();
        let mut rng = Rng::seed_from(self.train.seed);

        // ---------------- Stage 1: N independent noisy networks ----------------
        let mut stage_one = Vec::with_capacity(ensemble_size);
        let mut bodies = Vec::with_capacity(ensemble_size);
        for i in 0..ensemble_size {
            let seed = self.train.seed.wrapping_add(1 + i as u64);
            let mut single = SinglePipeline::new(
                self.config.clone(),
                DefenseKind::AdditiveNoise {
                    sigma: self.train.sigma,
                },
                seed,
            )?;
            let losses = single.train_supervised(data, &self.train)?;
            let final_loss = *losses.last().expect("at least one epoch");
            report.stage1_losses.push(losses);
            let (head, mut body, _tail) = single.into_parts();
            stage_one.push(StageOneNetwork { head, final_loss });
            // Stage 3 backpropagates through the bodies and never updates
            // them: they hold no gradient from here on.
            body.freeze();
            bodies.push(body);
        }

        // ---------------- Stage 2: the secret selection ----------------
        let selector = Selector::random(ensemble_size, selected, &mut rng)?;

        // ---------------- Stage 3: retrain the client against the frozen bodies --
        let mut head_rng = Rng::seed_from(self.train.seed.wrapping_add(0x5A5A));
        let mut head = build_head(&self.config, &mut head_rng);
        let mut noise = FixedNoise::new(
            &self.config.head_output_shape(),
            self.train.sigma,
            &mut head_rng,
        );
        let mut tail = build_tail(
            &self.config,
            selected * self.config.body_output_features(),
            &mut head_rng,
        );

        let loss_fn = CrossEntropyLoss::new();
        let mut optimizer = Sgd::new(self.train.learning_rate).with_momentum(0.9);

        for _ in 0..self.train.epochs_stage3 {
            let mut epoch_loss = 0.0f32;
            let mut epoch_penalty = 0.0f32;
            let mut batches = 0usize;
            for (images, labels) in data.batches(self.train.batch_size, &mut rng) {
                let head_out = head.forward_cached(&images, Mode::Train);
                let noisy = noise.forward_cached(&head_out, Mode::Train);
                let combined = selector.forward_bodies(&mut bodies, &noisy, Mode::Eval)?;
                let logits = tail.forward_cached(&combined, Mode::Train);
                let ce = loss_fn.compute(&logits, &labels);

                // Backward: tail -> selector -> frozen bodies -> noise -> head.
                let grad_combined = tail.backward(&ce.grad);
                let grad_noisy = selector.backward_bodies(&mut bodies, &grad_combined)?;
                let grad_head_out_ce = noise.backward(&grad_noisy);

                // Cosine regularizer against every stage-1 head (Eq. 3).
                let references: Vec<Tensor> = stage_one
                    .iter()
                    .map(|net| net.reference_features(&images).flatten_batch())
                    .collect();
                let penalty =
                    cosine_penalty(&head_out.flatten_batch(), &references, self.train.lambda);
                let penalty_grad = penalty
                    .grad
                    .reshape(head_out.shape())
                    .expect("penalty gradient matches the head output element count");

                let total_head_grad = grad_head_out_ce.add(&penalty_grad);
                let _ = head.backward(&total_head_grad);

                let mut params = head.params_mut();
                params.extend(tail.params_mut());
                optimizer.step(&mut params);

                epoch_loss += ce.loss;
                epoch_penalty += penalty.penalty;
                batches += 1;
            }
            report
                .stage3_losses
                .push(epoch_loss / batches.max(1) as f32);
            report
                .stage3_penalties
                .push(epoch_penalty / batches.max(1) as f32);
        }

        let pipeline =
            EnsemblerPipeline::new(self.config.clone(), head, noise, bodies, selector, tail)?;
        report.train_accuracy = pipeline.evaluate(data, &EvalConfig::default())?;

        Ok(TrainedEnsembler {
            pipeline,
            stage_one,
            report,
        })
    }

    /// Trains the DR-N baseline: the same N-network ensemble architecture and
    /// secret selector, but **without** stage-1 training — every component is
    /// trained jointly in one pass and an inference-time dropout layer is
    /// applied to the transmitted features.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as [`EnsemblerTrainer::train`].
    pub fn train_joint(
        &self,
        ensemble_size: usize,
        selected: usize,
        dropout: f32,
        data: &Dataset,
    ) -> Result<EnsemblerPipeline, EnsemblerError> {
        self.check_inputs(ensemble_size, selected, data)?;
        if !(0.0..1.0).contains(&dropout) {
            return Err(EnsemblerError::InvalidConfig(
                "dropout probability must be in [0, 1)".to_string(),
            ));
        }

        let mut rng = Rng::seed_from(self.train.seed.wrapping_add(0xD8));
        let mut head = build_head(&self.config, &mut rng);
        let mut noise =
            FixedNoise::new(&self.config.head_output_shape(), self.train.sigma, &mut rng);
        let mut bodies: Vec<Sequential> = (0..ensemble_size)
            .map(|_| ensembler_nn::models::build_body(&self.config, &mut rng))
            .collect();
        let selector = Selector::random(ensemble_size, selected, &mut rng)?;
        let mut tail = build_tail(
            &self.config,
            selected * self.config.body_output_features(),
            &mut rng,
        );

        let loss_fn = CrossEntropyLoss::new();
        let mut optimizer = Sgd::new(self.train.learning_rate).with_momentum(0.9);

        for _ in 0..self.train.epochs_stage3 {
            for (images, labels) in data.batches(self.train.batch_size, &mut rng) {
                let head_out = head.forward_cached(&images, Mode::Train);
                let noisy = noise.forward_cached(&head_out, Mode::Train);
                let combined = selector.forward_bodies(&mut bodies, &noisy, Mode::Train)?;
                let logits = tail.forward_cached(&combined, Mode::Train);
                let ce = loss_fn.compute(&logits, &labels);

                let grad_combined = tail.backward(&ce.grad);
                let grad_noisy = selector.backward_bodies(&mut bodies, &grad_combined)?;
                let grad_head_out = noise.backward(&grad_noisy);
                let _ = head.backward(&grad_head_out);

                let mut params = head.params_mut();
                let active = bodies
                    .iter_mut()
                    .enumerate()
                    .filter(|(i, _)| selector.is_active(*i));
                params.extend(active.flat_map(|(_, body)| body.params_mut()));
                params.extend(tail.params_mut());
                optimizer.step(&mut params);
            }
        }

        Ok(
            EnsemblerPipeline::new(self.config.clone(), head, noise, bodies, selector, tail)?
                .with_feature_dropout(dropout, self.train.seed ^ 0xD0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_data::SyntheticSpec;

    fn tiny_setup() -> (EnsemblerTrainer, ensembler_data::SyntheticDataset) {
        let data = SyntheticSpec::tiny_for_tests().generate(3);
        let trainer = EnsemblerTrainer::new(
            ResNetConfig::tiny_for_tests(),
            TrainConfig::fast_for_tests(),
        );
        (trainer, data)
    }

    #[test]
    fn config_validation() {
        assert!(TrainConfig::paper_like().validate().is_ok());
        let mut bad = TrainConfig::fast_for_tests();
        bad.epochs_stage1 = 0;
        assert!(bad.validate().is_err());
        let mut bad = TrainConfig::fast_for_tests();
        bad.learning_rate = 0.0;
        assert!(bad.validate().is_err());
        for value in [f32::NAN, f32::INFINITY] {
            let mut bad = TrainConfig::fast_for_tests();
            bad.learning_rate = value;
            assert!(matches!(
                bad.validate(),
                Err(EnsemblerError::InvalidConfig(_))
            ));
            let bad = TrainConfig::fast_for_tests().with_lambda(value);
            assert!(matches!(
                bad.validate(),
                Err(EnsemblerError::InvalidConfig(_))
            ));
            let mut bad = TrainConfig::fast_for_tests();
            bad.sigma = value;
            assert!(matches!(
                bad.validate(),
                Err(EnsemblerError::InvalidConfig(_))
            ));
        }
        let with_lambda = TrainConfig::fast_for_tests().with_lambda(3.0);
        assert!((with_lambda.lambda - 3.0).abs() < f32::EPSILON);
    }

    #[test]
    fn full_three_stage_training_produces_a_working_pipeline() {
        let (trainer, data) = tiny_setup();
        let trained = trainer.train(3, 2, &data.train).unwrap();

        let report = trained.report().clone();
        assert_eq!(report.stage1_losses.len(), 3);
        assert_eq!(
            report.stage3_losses.len(),
            trainer.train_config().epochs_stage3
        );
        assert_eq!(
            report.stage3_penalties.len(),
            trainer.train_config().epochs_stage3
        );
        assert!((0.0..=1.0).contains(&report.train_accuracy));

        let pipeline = trained.into_pipeline();
        assert_eq!(pipeline.ensemble_size(), 3);
        assert_eq!(pipeline.selector().active_count(), 2);
        let acc = pipeline
            .evaluate(&data.test, &EvalConfig::default())
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn stage1_training_reduces_each_network_loss() {
        let (trainer, data) = tiny_setup();
        let trained = trainer.train(2, 1, &data.train).unwrap();
        for losses in &trained.report().stage1_losses {
            assert!(losses.len() >= 2);
            assert!(
                losses.last().unwrap() <= losses.first().unwrap(),
                "stage-1 loss should not increase: {losses:?}"
            );
        }
    }

    #[test]
    fn invalid_selection_sizes_are_rejected() {
        let (trainer, data) = tiny_setup();
        assert!(matches!(
            trainer.train(3, 0, &data.train),
            Err(EnsemblerError::InvalidSelection { .. })
        ));
        assert!(matches!(
            trainer.train(3, 4, &data.train),
            Err(EnsemblerError::InvalidSelection { .. })
        ));
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let (trainer, _) = tiny_setup();
        let empty = Dataset::new(Tensor::zeros(&[0, 3, 8, 8]), vec![], 3);
        assert!(matches!(
            trainer.train(2, 1, &empty),
            Err(EnsemblerError::EmptyDataset)
        ));
    }

    #[test]
    fn stage_one_heads_diverge_from_the_final_head() {
        // The core claim behind Proposition 1: the stage-3 head is not a copy
        // of any stage-1 head, so a shadow reconstruction built from a single
        // server net inverts the "wrong" head.
        let (trainer, data) = tiny_setup();
        let trained = trainer.train(2, 1, &data.train).unwrap();
        let (images, _) = data.train.batch(0, 6);

        let final_features = trained
            .pipeline()
            .client_features(&images)
            .unwrap()
            .flatten_batch();
        for net in trained.stage_one() {
            let reference = net.reference_features(&images).flatten_batch();
            let cs = final_features
                .cosine_similarity_per_sample(&reference)
                .mean();
            assert!(
                cs < 0.95,
                "stage-3 head should not replicate a stage-1 head (cs = {cs})"
            );
            assert!(net.final_loss().is_finite());
        }
    }

    #[test]
    fn joint_training_builds_the_dr_ensemble_baseline() {
        let (trainer, data) = tiny_setup();
        let pipeline = trainer.train_joint(2, 1, 0.3, &data.train).unwrap();
        let acc = pipeline
            .evaluate(&data.test, &EvalConfig::default())
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
        // Dropout must be active on the transmitted features.
        let (images, _) = data.train.batch(0, 2);
        let features = pipeline.client_features(&images).unwrap();
        let zeros = features.data().iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 0);
    }

    #[test]
    fn joint_training_validates_dropout() {
        let (trainer, data) = tiny_setup();
        assert!(trainer.train_joint(2, 1, 1.5, &data.train).is_err());
    }
}
