//! End-to-end fusion conformance for the serving pipelines: the compiled
//! fused forward path must be indistinguishable (bit-exact) from the eager
//! baseline at every integration level — direct `predict`, the split
//! client/server API, the int8 wrapper, and the request-coalescing
//! [`InferenceEngine`].

use ensembler::{
    Defense, DefenseKind, EngineConfig, EnsemblerPipeline, EnsemblerTrainer, InferenceEngine,
    QuantizedDefense, Selector, SinglePipeline, TrainConfig,
};
use ensembler_data::SyntheticSpec;
use ensembler_nn::models::{build_body, build_head, build_tail, ResNetConfig};
use ensembler_nn::{FixedNoise, FusionConfig, Layer};
use ensembler_tensor::{Rng, Tensor};
use std::sync::Arc;

fn ensembler_pipeline(seed: u64) -> EnsemblerPipeline {
    let config = ResNetConfig::tiny_for_tests();
    let mut rng = Rng::seed_from(seed);
    let head = build_head(&config, &mut rng);
    let noise = FixedNoise::new(&config.head_output_shape(), 0.1, &mut rng);
    let bodies = (0..3).map(|_| build_body(&config, &mut rng)).collect();
    let selector = Selector::random(3, 2, &mut rng).unwrap();
    let tail = build_tail(&config, 2 * config.body_output_features(), &mut rng);
    EnsemblerPipeline::new(config, head, noise, bodies, selector, tail).unwrap()
}

fn images(batch: usize) -> Tensor {
    Tensor::from_fn(&[batch, 3, 8, 8], |i| ((i % 97) as f32 * 0.131).sin())
}

#[test]
fn fused_ensembler_predictions_are_bit_exact_vs_the_eager_plans() {
    // The default pipeline compiles bit-exact fused plans; recompiling with
    // fusion disabled gives the eager baseline. Same weights, same logits.
    for batch in [1usize, 2, 3] {
        let fused = ensembler_pipeline(50);
        let eager = ensembler_pipeline(50).with_fusion(FusionConfig::none());
        assert_eq!(fused.fusion(), FusionConfig::bit_exact());
        let x = images(batch);
        assert_eq!(
            fused.predict(&x).unwrap(),
            eager.predict(&x).unwrap(),
            "batch {batch}: fused and eager plans must agree bit-exactly"
        );
        // The split API composes identically under fusion.
        let transmitted = fused.client_features(&x).unwrap();
        assert_eq!(
            fused.server_outputs(&transmitted).unwrap(),
            eager.server_outputs(&transmitted).unwrap()
        );
    }
}

#[test]
fn fused_single_pipelines_are_bit_exact_for_every_defense_kind() {
    let kinds = [
        DefenseKind::NoDefense,
        DefenseKind::AdditiveNoise { sigma: 0.1 },
        DefenseKind::Dropout { probability: 0.3 },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let seed = 60 + i as u64;
        let fused = SinglePipeline::new(ResNetConfig::tiny_for_tests(), kind, seed).unwrap();
        let eager = SinglePipeline::new(ResNetConfig::tiny_for_tests(), kind, seed)
            .unwrap()
            .with_fusion(FusionConfig::none());
        let x = images(2);
        assert_eq!(
            fused.predict(&x).unwrap(),
            eager.predict(&x).unwrap(),
            "{kind:?}"
        );
    }
}

#[test]
fn fused_int8_serving_is_bit_exact_vs_the_eager_quantized_path() {
    let inner: Arc<dyn Defense> = Arc::new(ensembler_pipeline(52));
    let fused = QuantizedDefense::quantize(Arc::clone(&inner));
    let eager = QuantizedDefense::quantize_with(Arc::clone(&inner), FusionConfig::none());
    assert_eq!(fused.fusion(), FusionConfig::bit_exact());
    for batch in [1usize, 3] {
        let x = images(batch);
        assert_eq!(
            fused.predict(&x).unwrap(),
            eager.predict(&x).unwrap(),
            "batch {batch}: fused int8 must reproduce the eager int8 pipeline"
        );
    }
}

#[test]
fn the_coalescing_engine_serves_fused_plans_bit_exactly() {
    // Several concurrent single-image requests get coalesced into one batch
    // by the engine; the answers must equal both the eager plans' and the
    // direct per-image predictions.
    let fused = Arc::new(ensembler_pipeline(53));
    let eager = ensembler_pipeline(53).with_fusion(FusionConfig::none());
    let engine = InferenceEngine::new(
        Arc::clone(&fused),
        EngineConfig {
            max_batch: 4,
            workers: 2,
        },
    )
    .unwrap();
    let batch = images(4);
    let pendings: Vec<_> = (0..4)
        .map(|i| engine.predict_begin(batch.batch_item(i)).unwrap())
        .collect();
    for (i, pending) in pendings.into_iter().enumerate() {
        let via_engine = pending.wait().unwrap();
        // The engine strips the unit batch dimension from single-image
        // results; match that before comparing bits.
        let direct = eager.predict(&batch.batch_item(i)).unwrap();
        let direct = direct.reshape(via_engine.shape()).unwrap();
        assert_eq!(
            via_engine, direct,
            "request {i}: engine-coalesced fused result must equal the eager one"
        );
    }
}

#[test]
fn trained_pipelines_keep_plans_in_sync_with_weights() {
    // Training mutates weights through `bodies_mut`/`train_supervised`; the
    // plan caches must recompile instead of serving stale weights.
    let data = SyntheticSpec::tiny_for_tests().generate(6);
    let mut single =
        SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 70).unwrap();
    let x = images(2);
    let before = single.predict(&x).unwrap();
    let mut cfg = TrainConfig::fast_for_tests();
    cfg.epochs_stage1 = 2;
    single.train_supervised(&data.train, &cfg).unwrap();
    let after = single.predict(&x).unwrap();
    assert_ne!(before, after, "stale plans would reproduce old logits");

    // And the freshly trained weights are exactly what the plans serve:
    // an eager recompile agrees bit-for-bit.
    let eager = single.with_fusion(FusionConfig::none());
    assert_eq!(eager.predict(&x).unwrap().shape(), after.shape());

    let trainer = EnsemblerTrainer::new(
        ResNetConfig::tiny_for_tests(),
        TrainConfig::fast_for_tests(),
    );
    let mut pipeline = trainer.train(3, 2, &data.train).unwrap().into_pipeline();
    let before = pipeline.predict(&x).unwrap();
    for body in pipeline.bodies_mut() {
        for param in body.params_mut() {
            for w in param.value.data_mut() {
                *w += 0.05;
            }
        }
    }
    let after = pipeline.predict(&x).unwrap();
    assert_ne!(
        before, after,
        "bodies_mut must invalidate the compiled body plans"
    );
}

#[test]
fn malformed_batches_are_typed_errors_at_every_entry_point() {
    let pipeline = ensembler_pipeline(54);
    let bad = Tensor::ones(&[2, 5, 8, 8]);
    assert!(matches!(
        pipeline.predict(&bad).unwrap_err(),
        ensembler::EnsemblerError::ShapeMismatch(_)
    ));
    let int8 = QuantizedDefense::quantize(Arc::new(ensembler_pipeline(54)));
    let bad_features = Tensor::ones(&[2, 7, 8, 8]);
    assert!(matches!(
        int8.server_outputs(&bad_features).unwrap_err(),
        ensembler::EnsemblerError::ShapeMismatch(_)
    ));
}
