//! Property-based tests for the selector, the wire format and the training
//! configuration validation.

use ensembler::{EnsemblerError, Features, Precision, Selector, TrainConfig, WireBlob};
use ensembler_tensor::bytes::Reader;
use ensembler_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Reads one `f32` payload that must fill `bytes` exactly, as the protocol
/// decoder reads a request frame's payload.
fn decode(bytes: &[u8]) -> Result<Features, EnsemblerError> {
    let mut reader = Reader::new(bytes);
    let features = Features::take(Precision::F32, &mut reader)?;
    reader.finish("request payload")?;
    Ok(features)
}

fn selection() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..12).prop_flat_map(|n| (Just(n), 1usize..=n, any::<u64>()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_selector_is_always_valid((n, p, seed) in selection()) {
        let mut rng = Rng::seed_from(seed);
        let sel = Selector::random(n, p, &mut rng).expect("valid selection sizes");
        prop_assert_eq!(sel.ensemble_size(), n);
        prop_assert_eq!(sel.active_count(), p);
        prop_assert!(sel.active_indices().iter().all(|&i| i < n));
        prop_assert!(sel.active_indices().windows(2).all(|w| w[0] < w[1]));
        prop_assert!((sel.scale() - 1.0 / p as f32).abs() < 1e-6);
        prop_assert!(sel.search_space() >= 1);
    }

    #[test]
    fn combine_output_scales_like_one_over_p((n, p, seed) in selection()) {
        let mut rng = Rng::seed_from(seed);
        let sel = Selector::random(n, p, &mut rng).unwrap();
        let features = 5usize;
        let maps: Vec<Tensor> = (0..n).map(|_| Tensor::ones(&[2, features])).collect();
        let combined = sel.combine(&maps).expect("consistent maps");
        prop_assert_eq!(combined.shape(), &[2, p * features]);
        for v in combined.data() {
            prop_assert!((v - 1.0 / p as f32).abs() < 1e-6);
        }
    }

    #[test]
    fn combine_and_split_gradient_are_adjoint((n, p, seed) in selection()) {
        let mut rng = Rng::seed_from(seed);
        let sel = Selector::random(n, p, &mut rng).unwrap();
        let features = 4usize;
        let maps: Vec<Tensor> = (0..n)
            .map(|_| Tensor::from_fn(&[3, features], |_| rng.uniform(-1.0, 1.0)))
            .collect();
        let combined = sel.combine(&maps).unwrap();
        let grad = Tensor::from_fn(combined.shape(), |_| rng.uniform(-1.0, 1.0));
        let split = sel.split_gradient(&grad, features).unwrap();
        let lhs = combined.dot(&grad);
        let rhs: f32 = maps.iter().zip(&split).map(|(m, g)| m.dot(g)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
        // Inactive networks receive exactly zero gradient.
        for (idx, g) in split.iter().enumerate() {
            if !sel.is_active(idx) {
                prop_assert_eq!(g.norm(), 0.0);
            }
        }
    }

    #[test]
    fn search_space_is_monotone_in_n(p in 1usize..5, n in 5usize..12) {
        let smaller = Selector::from_indices(n, (0..p).collect()).unwrap();
        let larger = Selector::from_indices(n + 1, (0..p).collect()).unwrap();
        prop_assert!(larger.search_space() >= smaller.search_space());
    }

    #[test]
    fn wire_format_round_trips_any_tensor(
        rank_choice in 0usize..3,
        d0 in 1usize..5,
        d1 in 1usize..5,
        d2 in 1usize..5,
        seed in any::<u64>()
    ) {
        let shape: Vec<usize> = match rank_choice {
            0 => vec![d0],
            1 => vec![d0, d1],
            _ => vec![d0, d1, d2],
        };
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::from_fn(&shape, |_| rng.normal());
        let mut bytes = Vec::new();
        t.put(&mut bytes);
        let back = decode(&bytes).expect("round trip succeeds");
        prop_assert_eq!(back, Features::F32(t));
    }

    #[test]
    fn corrupted_wire_payloads_never_panic(
        seed in any::<u64>(),
        cut in 0usize..64,
        flip in 0usize..64
    ) {
        let mut rng = Rng::seed_from(seed);
        let t = Tensor::from_fn(&[2, 3, 2, 2], |_| rng.normal());
        let mut bytes = Vec::new();
        t.put(&mut bytes);
        if flip < bytes.len() {
            bytes[flip] ^= 0xA5;
        }
        let truncated = &bytes[..bytes.len().saturating_sub(cut)];
        // Must either decode to some tensor or return an error — never panic.
        let _ = decode(truncated);
    }

    #[test]
    fn train_config_validation_accepts_positive_settings(
        epochs in 1usize..10,
        batch in 1usize..64,
        lr in 0.001f32..1.0,
        lambda in 0.0f32..10.0,
        sigma in 0.0f32..1.0
    ) {
        let cfg = TrainConfig {
            epochs_stage1: epochs,
            epochs_stage3: epochs,
            batch_size: batch,
            learning_rate: lr,
            lambda,
            sigma,
            seed: 0,
        };
        prop_assert!(cfg.validate().is_ok());
    }
}
