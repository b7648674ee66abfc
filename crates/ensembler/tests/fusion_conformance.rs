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
use ensembler_nn::{FixedNoise, Layer, Mode, QSequential, Sequential};
use ensembler_tensor::{QTensorBatch, Rng, Tensor};
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

/// The eager oracle the compiled plans are pinned to: a pipeline's parts
/// composed through `Layer::forward` — the server bodies on the
/// `transmitted` features (through `QSequential` and both wire round trips
/// when `int8`), the secret selector, the tail.
fn eager_predict(
    transmitted: &Tensor,
    bodies: &[Sequential],
    int8: bool,
    selector: &Selector,
    tail: &Sequential,
) -> Tensor {
    let maps: Vec<Tensor> = bodies
        .iter()
        .map(|body| {
            if int8 {
                let fed = QTensorBatch::quantize_batch(transmitted).dequantize();
                let map = QSequential::from_sequential(body).forward(&fed);
                QTensorBatch::quantize_batch(&map).dequantize()
            } else {
                body.forward(transmitted, Mode::Eval)
            }
        })
        .collect();
    tail.forward(&selector.combine(&maps).unwrap(), Mode::Eval)
}

/// [`eager_predict`] of an Ensembler pipeline, its client stage included:
/// the head and the fixed noise through `Layer::forward`.
fn eager_ensembler(pipeline: &EnsemblerPipeline, int8: bool, x: &Tensor) -> Tensor {
    let head = pipeline.head().forward(x, Mode::Eval);
    let transmitted = pipeline.noise().forward(&head, Mode::Eval);
    let (bodies, selector) = (pipeline.server_bodies(), pipeline.selector());
    eager_predict(&transmitted, bodies, int8, selector, pipeline.tail())
}

#[test]
fn fused_ensembler_predictions_are_bit_exact_vs_the_eager_plans() {
    // The pipeline serves fused plans; its own parts run through the eager
    // forwards are the baseline. Same weights, same logits.
    for batch in [1usize, 2, 3] {
        let fused = ensembler_pipeline(50);
        let x = images(batch);
        assert_eq!(
            fused.predict(&x).unwrap(),
            eager_ensembler(&fused, false, &x),
            "batch {batch}: fused and eager plans must agree bit-exactly"
        );
        // The split API composes identically under fusion.
        let transmitted = fused.client_features(&x).unwrap();
        let eager: Vec<Tensor> = fused
            .server_bodies()
            .iter()
            .map(|body| body.forward(&transmitted, Mode::Eval))
            .collect();
        assert_eq!(fused.server_outputs(&transmitted).unwrap(), eager);
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
        let twin = SinglePipeline::new(ResNetConfig::tiny_for_tests(), kind, seed).unwrap();
        let (head, body, tail) = twin.into_parts();
        let x = images(2);
        // `into_parts` drops the defence layer, which no plan runs: the eager
        // body and tail take the pipeline's transmitted features, and the
        // eager head is compared where the defence is the identity.
        let transmitted = fused.client_features(&x).unwrap();
        if kind == DefenseKind::NoDefense {
            assert_eq!(transmitted, head.forward(&x, Mode::Eval));
        }
        let eager = eager_predict(&transmitted, &[body], false, &Selector::all(1), &tail);
        assert_eq!(fused.predict(&x).unwrap(), eager, "{kind:?}");
    }
}

#[test]
fn fused_int8_serving_is_bit_exact_vs_the_eager_quantized_path() {
    let inner: Arc<dyn Defense> = Arc::new(ensembler_pipeline(52));
    let eager = ensembler_pipeline(52);
    let fused = QuantizedDefense::quantize(Arc::clone(&inner));
    for batch in [1usize, 3] {
        let x = images(batch);
        assert_eq!(
            fused.predict(&x).unwrap(),
            eager_ensembler(&eager, true, &x),
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
    let engine = InferenceEngine::new(
        Arc::clone(&fused),
        EngineConfig {
            max_batch: 4,
            workers: 2,
        },
    )
    .unwrap();
    let batch = images(4);
    let answers: Vec<_> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..4)
            .map(|i| {
                let (engine, image) = (&engine, batch.batch_item(i));
                scope.spawn(move || engine.predict_one(image).unwrap())
            })
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (i, via_engine) in answers.into_iter().enumerate() {
        // The engine strips the unit batch dimension from single-image
        // results; match that before comparing bits.
        let direct = eager_ensembler(&fused, false, &batch.batch_item(i));
        let direct = direct.reshape(via_engine.shape()).unwrap();
        assert_eq!(
            via_engine, direct,
            "request {i}: engine-coalesced fused result must equal the eager one"
        );
    }
}

#[test]
fn trained_pipelines_keep_plans_in_sync_with_weights() {
    // `train_supervised` mutates a built pipeline's weights; it must
    // recompile the plans instead of serving stale weights.
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
    // the trained parts run eagerly agree bit-for-bit.
    let (head, body, tail) = single.into_parts();
    let transmitted = head.forward(&x, Mode::Eval);
    let eager = eager_predict(&transmitted, &[body], false, &Selector::all(1), &tail);
    assert_eq!(eager, after);

    let trainer = EnsemblerTrainer::new(
        ResNetConfig::tiny_for_tests(),
        TrainConfig::fast_for_tests(),
    );
    // The trainer builds its pipeline after training, so the plans it
    // compiles serve the trained weights.
    let pipeline = trainer.train(3, 2, &data.train).unwrap().into_pipeline();
    assert_eq!(
        pipeline.predict(&x).unwrap(),
        eager_ensembler(&pipeline, false, &x)
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

// ---------------------------------------------------------------------------
// The shared lowering (`CompiledPlan::run_all` / `QCompiledPlan::run_all`) at
// a shape that reaches the blocked GEMM kernel. `tiny_for_tests` bodies lead
// with a `k·n = 36·4` product — the unpacked small path — so nothing above
// meets the kernel the serving benchmark runs on.
// ---------------------------------------------------------------------------

mod shared_lowering {
    use super::*;
    use ensembler::EnsemblerError;
    use ensembler_nn::{CompiledPlan, FusionConfig, QCompiledPlan};

    const N: usize = 4;

    /// An untrained N = 4, P = 2 ensemble on the `cifar10_like` backbone:
    /// every body leads with a `[b·64, 144]·[144, 16]` conv product.
    fn cifar_pipeline(seed: u64) -> EnsemblerPipeline {
        cifar_pipeline_with(seed, |_| {})
    }

    /// [`cifar_pipeline`] with `swap` applied to its bodies before the
    /// pipeline is built (and its plans compiled).
    fn cifar_pipeline_with(seed: u64, swap: impl FnOnce(&mut [Sequential])) -> EnsemblerPipeline {
        let config = ResNetConfig::cifar10_like();
        let mut rng = Rng::seed_from(seed);
        let head = build_head(&config, &mut rng);
        let noise = FixedNoise::new(&config.head_output_shape(), 0.1, &mut rng);
        let mut bodies: Vec<Sequential> = (0..N).map(|_| build_body(&config, &mut rng)).collect();
        swap(&mut bodies);
        let selector = Selector::random(N, 2, &mut rng).unwrap();
        let tail = build_tail(&config, 2 * config.body_output_features(), &mut rng);
        EnsemblerPipeline::new(config, head, noise, bodies, selector, tail).unwrap()
    }

    /// The features a client would transmit for a deterministic image batch.
    fn features(pipeline: &EnsemblerPipeline, batch: usize) -> Tensor {
        let images = Tensor::from_fn(&[batch, 3, 16, 16], |i| ((i % 89) as f32 * 0.173).sin());
        pipeline.client_features(&images).unwrap()
    }

    fn ranges() -> impl Iterator<Item = (usize, usize)> {
        (0..N).flat_map(|lo| (lo + 1..=N).map(move |hi| (lo, hi)))
    }

    fn plans(bodies: &[Sequential]) -> Vec<CompiledPlan> {
        let compile = |body| CompiledPlan::compile(body, FusionConfig);
        bodies.iter().map(compile).collect()
    }

    /// What an `f32` caller of an int8 backend gets for one body, spelled
    /// out: quantize in, the body's own plan, quantize out, dequantize.
    fn int8_round_trip(plan: &QCompiledPlan, x: &Tensor) -> Tensor {
        let fed = QTensorBatch::quantize_batch(x).dequantize();
        QTensorBatch::quantize_batch(&plan.run(&fed).unwrap()).dequantize()
    }

    #[test]
    fn one_lowering_equals_independent_runs_and_the_eager_forwards_on_every_range() {
        let pipeline = cifar_pipeline(80);
        let x = features(&pipeline, 32);
        let bodies = pipeline.server_bodies();

        let plans = plans(bodies);
        let alone: Vec<Tensor> = plans.iter().map(|plan| plan.run(&x).unwrap()).collect();
        for (body, map) in bodies.iter().zip(&alone) {
            assert_eq!(&body.forward(&x, Mode::Eval), map, "plan vs eager forward");
        }
        assert_eq!(pipeline.server_outputs(&x).unwrap(), alone);
        for (lo, hi) in ranges() {
            let shared = CompiledPlan::run_all(&plans[lo..hi], &x).unwrap();
            assert_eq!(shared, alone[lo..hi], "run_all {lo}..{hi}");
            let served = pipeline.server_outputs_range(&x, lo, hi).unwrap();
            assert_eq!(served, alone[lo..hi], "serve {lo}..{hi}");
        }

        let compile = |body| QCompiledPlan::compile(body, FusionConfig);
        let qplans: Vec<QCompiledPlan> = bodies.iter().map(compile).collect();
        let fed = QTensorBatch::quantize_batch(&x).dequantize();
        let qalone: Vec<Tensor> = qplans.iter().map(|plan| plan.run(&fed).unwrap()).collect();
        for (body, map) in bodies.iter().zip(&qalone) {
            let eager = QSequential::from_sequential(body).forward(&fed);
            assert_eq!(&eager, map, "int8 plan vs eager quantized forward");
        }
        let wire: Vec<Tensor> = qplans.iter().map(|p| int8_round_trip(p, &x)).collect();
        let int8 = QuantizedDefense::quantize(Arc::new(cifar_pipeline(80)));
        assert_eq!(int8.server_outputs(&x).unwrap(), wire);
        for (lo, hi) in ranges() {
            let shared = QCompiledPlan::run_all(&qplans[lo..hi], &fed).unwrap();
            assert_eq!(shared, qalone[lo..hi], "int8 run_all {lo}..{hi}");
            let served = int8.server_outputs_range(&x, lo, hi).unwrap();
            assert_eq!(served, wire[lo..hi], "int8 serve {lo}..{hi}");
        }
    }

    #[test]
    fn a_request_served_alone_equals_its_row_of_a_batch_of_32() {
        let f32_pipeline = Arc::new(cifar_pipeline(81));
        let int8 = QuantizedDefense::quantize(Arc::clone(&f32_pipeline) as Arc<dyn Defense>);
        let x = features(&f32_pipeline, 32);
        let pipelines: [&dyn Defense; 2] = [f32_pipeline.as_ref(), &int8];
        for pipeline in pipelines {
            let batch = pipeline.server_outputs(&x).unwrap();
            for row in [0, 31] {
                let alone = pipeline.server_outputs(&x.batch_item(row)).unwrap();
                for (map, one) in batch.iter().zip(&alone) {
                    let width = map.shape()[1];
                    let expected = &map.data()[row * width..(row + 1) * width];
                    assert_eq!(one.data(), expected, "{} row {row}", pipeline.label());
                }
            }
        }
    }

    #[test]
    fn a_body_with_another_leading_conv_is_served_per_body() {
        // Body 2 takes 8 input channels: its leading conv disagrees with the
        // others', so nothing is shared — and it cannot accept the features.
        let other = ResNetConfig {
            stem_channels: 8,
            ..ResNetConfig::cifar10_like()
        };
        let healthy = cifar_pipeline(82);
        let poisoned = cifar_pipeline_with(82, |bodies| {
            bodies[2] = build_body(&other, &mut Rng::seed_from(5));
        });
        let x = features(&healthy, 4);
        let expected = healthy.server_outputs(&x).unwrap();

        let healthy_int8 = QuantizedDefense::quantize(Arc::new(cifar_pipeline(82)));
        let expected_int8 = healthy_int8.server_outputs(&x).unwrap();
        let poisoned_plans = plans(poisoned.server_bodies());
        let poisoned = Arc::new(poisoned);
        let poisoned_int8 = QuantizedDefense::quantize(Arc::clone(&poisoned) as Arc<dyn Defense>);

        for (lo, hi) in ranges() {
            let f32_answer = poisoned.server_outputs_range(&x, lo, hi);
            let int8_answer = poisoned_int8.server_outputs_range(&x, lo, hi);
            let direct = CompiledPlan::run_all(&poisoned_plans[lo..hi], &x);
            if (lo..hi).contains(&2) {
                let expect_channels = |err: EnsemblerError, what: &str| match err {
                    EnsemblerError::ShapeMismatch(message) => assert!(
                        message.contains(what),
                        "{lo}..{hi}: unexpected message {message}"
                    ),
                    other => panic!("{lo}..{hi}: expected a shape mismatch, got {other:?}"),
                };
                expect_channels(
                    f32_answer.unwrap_err(),
                    "conv expected 8 input channels, got 16",
                );
                expect_channels(
                    int8_answer.unwrap_err(),
                    "q_conv expected 8 input channels, got 16",
                );
                assert!(direct.is_err(), "{lo}..{hi}");
            } else {
                assert_eq!(f32_answer.unwrap(), expected[lo..hi], "{lo}..{hi}");
                assert_eq!(int8_answer.unwrap(), expected_int8[lo..hi], "{lo}..{hi}");
                assert_eq!(direct.unwrap(), expected[lo..hi], "{lo}..{hi}");
            }
        }
    }

    #[test]
    fn a_hostile_shape_is_the_per_body_typed_error_not_a_panic() {
        let pipeline = cifar_pipeline(84);
        let plans = plans(pipeline.server_bodies());
        let int8 = QuantizedDefense::quantize(Arc::new(cifar_pipeline(84)));
        for bad in [
            Tensor::ones(&[2, 16]),
            Tensor::ones(&[2, 7, 8, 8]),
            Tensor::ones(&[1, 16, 0, 0]),
            Tensor::ones(&[3, 16, 8, 8, 1]),
        ] {
            let alone = plans[0].run(&bad).unwrap_err();
            let shared = CompiledPlan::run_all(&plans, &bad).unwrap_err();
            assert_eq!(shared.message(), alone.message());
            for served in [pipeline.server_outputs(&bad), int8.server_outputs(&bad)] {
                assert!(
                    matches!(served, Err(EnsemblerError::ShapeMismatch(_))),
                    "{:?}: {served:?}",
                    bad.shape()
                );
            }
        }
    }
}
