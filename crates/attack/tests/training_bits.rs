//! Golden training bits: one FNV-1a-64 hash over what the training paths
//! produce — a single split network trained with `train_supervised`, a
//! three-stage Ensembler trained with `EnsemblerTrainer::train`, and one
//! step of the attack's decoder against the trained head.
//!
//! Training runs the eager layers' `forward_cached` / `backward`, and those
//! are reorganised from time to time under the promise that *what is
//! computed* does not change. This test turns that promise into a tier-1
//! assertion for training, as `golden_bits` (in `ensembler-serve`) does for
//! serving: the constants below were computed before any layer was edited,
//! and a change that alters a single bit of a loss, a weight, a running
//! statistic or a decoder gradient fails here.
//!
//! The blocked f32 GEMM picks its micro-kernel from the host's CPU features
//! (`ensembler_tensor::gemm`, module docs), and the AVX2 kernel contracts
//! multiply-adds with FMA where the portable one rounds twice, so there is
//! one constant per kernel.

use ensembler::{Defense, DefenseKind, EnsemblerTrainer, SinglePipeline, TrainConfig};
use ensembler_attack::Decoder;
use ensembler_data::SyntheticSpec;
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::{Layer, Mode, MseLoss, Optimizer, Sequential, Sgd};
use ensembler_tensor::{Rng, Tensor};

/// Hash on hosts where the 6×16 AVX2+FMA micro-kernel is selected.
const GOLDEN_AVX2_FMA: u64 = 0x8d53_088b_3176_167d;
/// Hash on hosts that run the portable micro-kernel.
const GOLDEN_PORTABLE: u64 = 0x07b6_631b_ffae_6698;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a-64 hash over the little-endian `f32::to_bits` bytes of every
/// value folded into it.
struct Bits(u64);

impl Bits {
    fn values(&mut self, values: &[f32]) {
        for value in values {
            for byte in value.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(FNV_PRIME);
            }
        }
    }

    fn tensor(&mut self, tensor: &Tensor) {
        self.values(tensor.data());
    }

    /// Every parameter value of `net`.
    fn weights(&mut self, net: &Sequential) {
        for param in net.params() {
            self.tensor(&param.value);
        }
    }
}

fn uses_avx2_fma_kernel() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[test]
fn training_is_bit_identical_to_the_pinned_parent() {
    let config = ResNetConfig::tiny_for_tests();
    let train = TrainConfig::fast_for_tests();
    let data = SyntheticSpec::tiny_for_tests().generate(5);
    let (images, _) = data.test.batch(0, data.test.len());
    let mut bits = Bits(FNV_OFFSET);

    // One split network: its epoch losses, its served predictions (which
    // also read the batch norms' running statistics) and its weights.
    let kind = DefenseKind::AdditiveNoise { sigma: train.sigma };
    let mut single = SinglePipeline::new(config.clone(), kind, 3).unwrap();
    bits.values(&single.train_supervised(&data.train, &train).unwrap());
    bits.tensor(&single.predict(&images).unwrap());
    let (head, body, tail) = single.into_parts();
    for net in [&head, &body, &tail] {
        bits.weights(net);
    }

    // A three-stage Ensembler: every recorded loss and penalty, the served
    // predictions, the final weights and the kept stage-1 heads.
    let trained = EnsemblerTrainer::new(config.clone(), train.clone())
        .train(3, 2, &data.train)
        .unwrap();
    let report = trained.report();
    for losses in &report.stage1_losses {
        bits.values(losses);
    }
    bits.values(&report.stage3_losses);
    bits.values(&report.stage3_penalties);
    let pipeline = trained.pipeline();
    bits.tensor(&pipeline.predict(&images).unwrap());
    bits.weights(pipeline.head());
    bits.weights(pipeline.tail());
    for body in pipeline.server_bodies() {
        bits.weights(body);
    }
    for network in trained.stage_one() {
        bits.tensor(&network.reference_features(&images));
    }

    // One decoder step of the model-inversion attack against the trained
    // head: the reconstruction, the loss, the feature gradient, and the
    // weights after the update.
    let mut rng = Rng::seed_from(9);
    let mut decoder = Decoder::new(&config, &mut rng);
    let features = head.forward(&images, Mode::Eval);
    let reconstruction = decoder.forward(&features, Mode::Train);
    let loss = MseLoss::new().compute(&reconstruction, &images);
    bits.tensor(&reconstruction);
    bits.values(&[loss.loss]);
    bits.tensor(&decoder.backward(&loss.grad));
    Sgd::new(train.learning_rate)
        .with_momentum(0.9)
        .step(&mut decoder.params_mut());
    for param in decoder.params_mut() {
        bits.tensor(&param.value);
    }

    let (kernel, golden) = if uses_avx2_fma_kernel() {
        ("avx2+fma", GOLDEN_AVX2_FMA)
    } else {
        ("portable", GOLDEN_PORTABLE)
    };
    assert_eq!(
        bits.0, golden,
        "training bits changed ({kernel} micro-kernel): got {:#018x}, pinned {golden:#018x}",
        bits.0
    );
}
