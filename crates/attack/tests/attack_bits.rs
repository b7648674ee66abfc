//! Golden attack bits: one FNV-1a-64 hash over what the query-free attacks
//! and the DR-N baseline's joint training produce — `attack_single_pipeline`
//! against a split network, `attack_all_single_nets` and `attack_adaptive`
//! against a three-stage Ensembler, and the weights of a `train_joint`
//! pipeline.
//!
//! The attacks backpropagate through server bodies nobody trains (the
//! shadow step of Propositions 1 and 2), and `train_joint` through bodies it
//! does train; `training_bits` covers neither path. The constants below
//! were computed before either path was reorganised, so a change that alters
//! a single bit of a reconstruction, an SSIM or PSNR score, a jointly
//! trained weight or a served prediction fails here.
//!
//! As in `training_bits`, there is one constant per f32 GEMM micro-kernel:
//! the AVX2 kernel contracts multiply-adds with FMA where the portable one
//! rounds twice.

use ensembler::{Defense, DefenseKind, EnsemblerTrainer, SinglePipeline, TrainConfig};
use ensembler_attack::{
    attack_adaptive, attack_all_single_nets, attack_single_pipeline, AttackConfig, AttackOutcome,
};
use ensembler_data::SyntheticSpec;
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::{Layer, Sequential};
use ensembler_tensor::Tensor;

/// Hash on hosts where the 6×16 AVX2+FMA micro-kernel is selected.
const GOLDEN_AVX2_FMA: u64 = 0x9e76_623d_e0bf_1671;
/// Hash on hosts that run the portable micro-kernel.
const GOLDEN_PORTABLE: u64 = 0x8c58_7aa5_ff23_5e58;

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

    /// The reconstructions and both scores of one attack.
    fn outcome(&mut self, outcome: &AttackOutcome) {
        self.tensor(&outcome.reconstructions);
        self.values(&[outcome.ssim, outcome.psnr]);
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
fn attacks_and_joint_training_are_bit_identical_to_the_pinned_parent() {
    let config = ResNetConfig::tiny_for_tests();
    let train = TrainConfig::fast_for_tests();
    let attack = AttackConfig::fast_for_tests();
    let data = SyntheticSpec::tiny_for_tests().generate(11);
    let (private_images, _) = data.test.batch(0, 4);
    let (images, _) = data.test.batch(0, data.test.len());
    let mut bits = Bits(FNV_OFFSET);

    // The baseline attack against one split network's only body.
    let kind = DefenseKind::AdditiveNoise { sigma: train.sigma };
    let mut single = SinglePipeline::new(config.clone(), kind, 3).unwrap();
    single.train_supervised(&data.train, &train).unwrap();
    let outcome = attack_single_pipeline(&single, &data.train, &private_images, &attack).unwrap();
    bits.outcome(&outcome);

    // Proposition 1 (one shadow per server body) and Proposition 2 (one
    // shadow against all bodies under the guessed uniform 1/N selector).
    let trainer = EnsemblerTrainer::new(config, train);
    let ensembler = trainer.train(3, 2, &data.train).unwrap().into_pipeline();
    let per_net = attack_all_single_nets(&ensembler, &data.train, &private_images, &attack);
    for outcome in &per_net.unwrap() {
        bits.outcome(outcome);
    }
    let adaptive = attack_adaptive(&ensembler, &data.train, &private_images, &attack).unwrap();
    bits.outcome(&adaptive);

    // The DR-N baseline: every component trained jointly, selected bodies
    // included. Its served predictions read the bodies' running statistics.
    let joint = trainer.train_joint(3, 2, 0.3, &data.train).unwrap();
    bits.tensor(&joint.predict(&images).unwrap());
    bits.weights(joint.head());
    bits.weights(joint.tail());
    for body in joint.server_bodies() {
        bits.weights(body);
    }

    let (kernel, golden) = if uses_avx2_fma_kernel() {
        ("avx2+fma", GOLDEN_AVX2_FMA)
    } else {
        ("portable", GOLDEN_PORTABLE)
    };
    assert_eq!(
        bits.0, golden,
        "attack bits changed ({kernel} micro-kernel): got {:#018x}, pinned {golden:#018x}",
        bits.0
    );
}
