//! Golden output bits: one FNV-1a-64 hash over every stage of the demo
//! pipeline, at both precisions, on nine seeded batches.
//!
//! The kernels underneath `predict` are reorganised from time to time — who
//! runs a row, how bytes are moved, which loop streams which operand — under
//! the promise that *what is computed* does not change. This test turns that
//! promise into a tier-1 assertion: the constants below were computed on the
//! commit that introduced this file, before any kernel edit, and a change
//! that alters a single output bit of any stage fails here.
//!
//! The blocked f32 GEMM picks its micro-kernel from the host's CPU features
//! (`ensembler_tensor::gemm`, module docs), and the AVX2 kernel contracts
//! multiply-adds with FMA where the portable one rounds twice, so there is
//! one constant per kernel.

use ensembler::{Defense, QuantizedDefense};
use ensembler_serve::demo_pipeline;
use ensembler_tensor::{Rng, Tensor};
use std::sync::Arc;

/// Hash on hosts where the 6×16 AVX2+FMA micro-kernel is selected.
const GOLDEN_AVX2_FMA: u64 = 0xaee6_1143_0ee7_c5f1;
/// Hash on hosts that run the portable micro-kernel.
const GOLDEN_PORTABLE: u64 = 0xc0a1_fd55_1005_fa31;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds the little-endian `f32::to_bits` bytes of `tensor` into `hash`.
fn fold(hash: &mut u64, tensor: &Tensor) {
    for value in tensor.data() {
        for byte in value.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
}

fn seeded_images(batch: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::from_fn(&[batch, 3, 16, 16], |_| rng.uniform(-1.0, 1.0))
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
fn every_stage_is_bit_identical_to_the_pinned_parent() {
    let f32_pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(4, 2, 7).unwrap());
    let int8_pipeline = QuantizedDefense::quantize(Arc::clone(&f32_pipeline));

    let mut hash = FNV_OFFSET;
    for seed in 0..3u64 {
        for batch in [32usize, 1, 5] {
            let images = seeded_images(batch, 1000 * seed + batch as u64);

            let features = f32_pipeline.client_features(&images).unwrap();
            fold(&mut hash, &features);
            for map in f32_pipeline.server_outputs(&features).unwrap() {
                fold(&mut hash, &map);
            }
            for map in f32_pipeline.server_outputs_range(&features, 1, 3).unwrap() {
                fold(&mut hash, &map);
            }
            fold(&mut hash, &f32_pipeline.predict(&images).unwrap());

            fold(&mut hash, &int8_pipeline.predict(&images).unwrap());
            let int8_features = int8_pipeline.client_features(&images).unwrap();
            for map in int8_pipeline.server_outputs(&int8_features).unwrap() {
                fold(&mut hash, &map);
            }
        }
    }

    let (kernel, golden) = if uses_avx2_fma_kernel() {
        ("avx2+fma", GOLDEN_AVX2_FMA)
    } else {
        ("portable", GOLDEN_PORTABLE)
    };
    assert_eq!(
        hash, golden,
        "output bits changed ({kernel} micro-kernel): got {hash:#018x}, pinned {golden:#018x}"
    );
}
