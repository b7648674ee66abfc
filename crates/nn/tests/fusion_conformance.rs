//! Conformance suite pinning compiled fused plans to the eager layer
//! forwards for every backbone configuration, in `f32` and int8, across
//! batch sizes.
//!
//! The contract enforced here:
//!
//! * The `f32` plans reproduce the eager `Layer::forward` outputs
//!   **bit-exactly** (`assert_eq!` on the raw f32 bits via `Tensor`'s
//!   `PartialEq`).
//! * The int8 plans reproduce the eager [`QSequential`] forward bit-exactly.

use ensembler_nn::compiler::{CompiledPlan, FusionConfig, QCompiledPlan};
use ensembler_nn::models::{build_body, build_full_network, ResNetConfig};
use ensembler_nn::quant::QSequential;
use ensembler_nn::{Layer, Mode};
use ensembler_tensor::{Rng, Tensor};

/// Runs the full fused-vs-eager contract for one backbone configuration.
fn conformance_for(config: &ResNetConfig, batches: &[usize], warm_batchnorm: bool, seed: u64) {
    let name = format!(
        "backbone(stem={}, stages={:?})",
        config.stem_channels, config.stage_channels
    );
    let mut rng = Rng::seed_from(seed);
    let mut net = build_full_network(config, &mut rng);
    let mut body = build_body(config, &mut rng);
    if warm_batchnorm {
        // Drive the batch-norm running statistics away from their (0, 1)
        // init so the merged conv+bn pass is not a near-identity rescale.
        let shape = [
            2,
            config.input_channels,
            config.image_size,
            config.image_size,
        ];
        for _ in 0..3 {
            let warm = Tensor::from_fn(&shape, |_| rng.normal_with(0.3, 1.4));
            let _ = net.forward_cached(&warm, Mode::Train);
        }
        let head = config.head_output_shape();
        for _ in 0..3 {
            let warm = Tensor::from_fn(&[2, head[0], head[1], head[2]], |_| {
                rng.normal_with(-0.2, 0.9)
            });
            let _ = body.forward_cached(&warm, Mode::Train);
        }
    }
    let qbody = QSequential::from_sequential(&body);
    let plan = CompiledPlan::compile(&net, FusionConfig);
    let qplan = QCompiledPlan::compile(&body, FusionConfig);

    let head_shape = config.head_output_shape();
    for &b in batches {
        let x = Tensor::from_fn(
            &[
                b,
                config.input_channels,
                config.image_size,
                config.image_size,
            ],
            |_| rng.uniform(-1.0, 1.0),
        );
        assert_eq!(
            plan.run(&x).unwrap(),
            net.forward(&x, Mode::Eval),
            "{name}, batch {b}: the f32 plan must be bit-exact"
        );

        // int8: the server bodies are the part served quantized.
        let f = Tensor::from_fn(&[b, head_shape[0], head_shape[1], head_shape[2]], |_| {
            rng.uniform(-1.0, 1.0)
        });
        assert_eq!(
            qplan.run(&f).unwrap(),
            qbody.forward(&f),
            "{name}, batch {b}: the int8 plan must match the eager quantized \
             pipeline bit-exactly"
        );
    }
}

#[test]
fn tiny_backbone_fused_matches_eager() {
    conformance_for(&ResNetConfig::tiny_for_tests(), &[1, 2, 3], true, 11);
}

#[test]
fn cifar10_backbone_fused_matches_eager() {
    conformance_for(&ResNetConfig::cifar10_like(), &[1, 2, 3], true, 12);
}

#[test]
fn cifar100_backbone_fused_matches_eager() {
    conformance_for(&ResNetConfig::cifar100_like(), &[1, 2, 3], true, 13);
}

#[test]
fn celeba_backbone_fused_matches_eager() {
    conformance_for(&ResNetConfig::celeba_like(), &[1, 2], true, 14);
}

#[test]
fn paper_resnet18_fused_matches_eager() {
    // The full-width backbone at a reduced image size: deep enough to catch
    // per-stage fusion bugs, small enough for the test suite.
    conformance_for(&ResNetConfig::paper_resnet18(10, 16, true), &[2], false, 15);
}
