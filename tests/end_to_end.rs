//! Integration tests spanning the whole stack: data generation, three-stage
//! training, split inference over the wire format, and the model inversion
//! attack against both an unprotected pipeline and Ensembler.

use ensembler_suite::attack::{attack_adaptive, attack_single_pipeline, AttackConfig};
use ensembler_suite::core::{
    Defense, DefenseKind, EnsemblerTrainer, Features, Precision, SinglePipeline, TrainConfig,
    WireBlob,
};
use ensembler_suite::data::SyntheticSpec;
use ensembler_suite::metrics::{accuracy, psnr, ssim};
use ensembler_suite::nn::models::ResNetConfig;
use ensembler_suite::tensor::bytes::Reader;

fn tiny_train_config() -> TrainConfig {
    TrainConfig {
        epochs_stage1: 3,
        epochs_stage3: 4,
        batch_size: 8,
        learning_rate: 0.05,
        lambda: 1.0,
        sigma: 0.1,
        seed: 11,
    }
}

#[test]
fn three_stage_training_learns_something_on_synthetic_data() {
    let data = SyntheticSpec::tiny_for_tests().generate(1);
    let trainer = EnsemblerTrainer::new(ResNetConfig::tiny_for_tests(), tiny_train_config());
    let trained = trainer.train(3, 2, &data.train).expect("training succeeds");
    let report = trained.report().clone();

    // Stage-3 cross-entropy stays finite and its best epoch is no worse than
    // the first one (a handful of epochs on a tiny dataset jitters, so we do
    // not demand strict monotonicity).
    assert!(report.stage3_losses.iter().all(|l| l.is_finite()));
    let first = report.stage3_losses[0];
    let best = report
        .stage3_losses
        .iter()
        .copied()
        .fold(f32::INFINITY, f32::min);
    assert!(
        best <= first * 1.05,
        "stage-3 loss should improve at some point: {:?}",
        report.stage3_losses
    );
    // The pipeline classifies at least at random-chance level on training data.
    let chance = 1.0 / data.train.num_classes() as f32;
    assert!(
        report.train_accuracy >= chance * 0.8,
        "train accuracy {} below chance {chance}",
        report.train_accuracy
    );
}

#[test]
fn split_inference_over_the_wire_matches_local_inference() {
    let data = SyntheticSpec::tiny_for_tests().generate(2);
    let trainer = EnsemblerTrainer::new(ResNetConfig::tiny_for_tests(), tiny_train_config());
    let pipeline = trainer
        .train(2, 1, &data.train)
        .expect("training succeeds")
        .into_pipeline();

    let (images, labels) = data.test.batch(0, 4);

    // Local end-to-end prediction.
    let local_logits = pipeline.predict(&images).expect("prediction succeeds");

    // The same computation, but shipping the features through the wire format.
    let transmitted = pipeline.client_features(&images).expect("client features");
    let mut payload = Vec::new();
    transmitted.put(&mut payload);
    let mut reader = Reader::new(&payload);
    let received = Features::take(Precision::F32, &mut reader).expect("wire round trip succeeds");
    reader.finish("request payload").expect("nothing trails");
    let received = received.as_f32().expect("an f32 payload");
    let maps = pipeline.server_outputs(received).expect("server outputs");
    let remote_logits = pipeline.classify(&maps).expect("classification succeeds");

    for (a, b) in local_logits.data().iter().zip(remote_logits.data()) {
        assert!((a - b).abs() < 1e-5, "wire format must not change results");
    }
    let _ = accuracy(&remote_logits, &labels);
}

#[test]
fn ensembler_defends_at_least_as_well_as_an_unprotected_split() {
    let data = SyntheticSpec::tiny_for_tests().generate(3);
    let config = ResNetConfig::tiny_for_tests();
    let train_cfg = tiny_train_config();
    let attack_cfg = AttackConfig {
        shadow_epochs: 3,
        decoder_epochs: 3,
        batch_size: 8,
        learning_rate: 0.05,
        seed: 3,
    };
    let (private_images, _) = data.test.batch(0, 4);

    // Unprotected victim.
    let mut unprotected = SinglePipeline::new(config.clone(), DefenseKind::NoDefense, 8)
        .expect("valid configuration");
    unprotected
        .train_supervised(&data.train, &train_cfg)
        .expect("training succeeds");
    let unprotected_outcome =
        attack_single_pipeline(&unprotected, &data.train, &private_images, &attack_cfg)
            .expect("attack succeeds");

    // Ensembler victim, attacked adaptively.
    let trainer = EnsemblerTrainer::new(config, train_cfg);
    let protected = trainer
        .train(3, 2, &data.train)
        .expect("training succeeds")
        .into_pipeline();
    let protected_outcome = attack_adaptive(&protected, &data.train, &private_images, &attack_cfg)
        .expect("attack succeeds");

    // At this tiny scale both attacks are noisy, so allow a small margin, but
    // Ensembler must not be meaningfully easier to invert than no defence.
    assert!(
        protected_outcome.ssim <= unprotected_outcome.ssim + 0.15,
        "Ensembler SSIM {} should not exceed the unprotected SSIM {} by a wide margin",
        protected_outcome.ssim,
        unprotected_outcome.ssim
    );
    assert!(protected_outcome.reconstructions.is_finite());
    assert!(unprotected_outcome.reconstructions.is_finite());
}

#[test]
fn reconstruction_metrics_behave_sanely_on_real_pipeline_outputs() {
    let data = SyntheticSpec::tiny_for_tests().generate(4);
    let (images, _) = data.test.batch(0, 2);
    // Identical images: perfect metrics.
    assert!(ssim(&images, &images, 1.0) > 0.999);
    assert_eq!(psnr(&images, &images, 1.0), 60.0);
    // A heavily corrupted copy scores clearly lower.
    let corrupted = images.map(|v| 1.0 - v);
    assert!(ssim(&images, &corrupted, 1.0) < 0.9);
    assert!(psnr(&images, &corrupted, 1.0) < 30.0);
}

#[test]
fn the_secret_selector_is_not_observable_from_server_interactions() {
    // The server sees the transmitted features and is asked to evaluate every
    // body; nothing it receives depends on the client's selection.
    let data = SyntheticSpec::tiny_for_tests().generate(5);
    let config = ResNetConfig::tiny_for_tests();
    let trainer = EnsemblerTrainer::new(config, tiny_train_config());

    let with_p1 = trainer
        .train(3, 1, &data.train)
        .expect("training succeeds")
        .into_pipeline();
    let with_p2 = trainer
        .train(3, 2, &data.train)
        .expect("training succeeds")
        .into_pipeline();

    let (images, _) = data.test.batch(0, 2);
    // Both clients request all N outputs from the server regardless of P.
    let features_p1 = with_p1.client_features(&images).expect("client features");
    let maps_p1 = with_p1
        .server_outputs(&features_p1)
        .expect("server outputs");
    let features_p2 = with_p2.client_features(&images).expect("client features");
    let maps_p2 = with_p2
        .server_outputs(&features_p2)
        .expect("server outputs");
    assert_eq!(maps_p1.len(), 3);
    assert_eq!(maps_p2.len(), 3);
    // The number of possible secret selections the server must brute-force.
    assert_eq!(with_p1.selector().search_space(), 3);
    assert_eq!(with_p2.selector().search_space(), 3);
}
