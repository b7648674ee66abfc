//! The input pool: the only thing `--seed` influences. The program under
//! test never sees the seed, only the tensors generated here.

use ensembler_tensor::Tensor;

/// Distinct image batches per pool. Large enough that no batch repeats
/// within ~1.5 s at batch 32, so nothing downstream can serve a request from
/// the previous one's still-warm intermediate buffers by accident.
pub const POOL_SIZE: usize = 64;

/// SplitMix64 — the benchmark's own generator, so the input bytes depend on
/// nothing but `--seed` and this file (not on the `Rng` of the crate under
/// test, which a later change is free to alter).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[-1, 1)` from the top 24 bits.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// `POOL_SIZE` distinct `[batch, 3, 16, 16]` image batches drawn from `seed`.
pub fn image_pool(seed: u64, batch: usize) -> Vec<Tensor> {
    let mut rng = SplitMix64::new(seed);
    (0..POOL_SIZE)
        .map(|_| Tensor::from_fn(&[batch, 3, 16, 16], |_| rng.unit_f32()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(pool: &[Tensor]) -> Vec<u8> {
        pool.iter()
            .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_bytes_and_another_seed_does_not() {
        let a = image_pool(1, 2);
        assert_eq!(bytes(&a), bytes(&image_pool(1, 2)));
        assert_ne!(bytes(&a), bytes(&image_pool(2, 2)));
        assert_eq!(a.len(), POOL_SIZE);
        assert_eq!(a[0].shape(), &[2, 3, 16, 16]);
    }

    #[test]
    fn pool_batches_are_distinct_and_in_range() {
        let pool = image_pool(7, 1);
        for (i, a) in pool.iter().enumerate() {
            assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));
            for b in &pool[i + 1..] {
                assert_ne!(a.data(), b.data());
            }
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }
}
