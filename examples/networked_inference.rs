//! The paper's deployment, for real: a multi-model `DefenseServer` (the
//! untrusted cloud) serving an f32 and an int8 pipeline from one process,
//! and `RemoteDefense` clients (the trusted edge) picking their model by
//! name in the handshake — then the same client code served
//! through the coalescing `InferenceEngine`, unchanged, because
//! `RemoteDefense` is just another `Defense`.
//!
//! Run with: `cargo run --example networked_inference --release`
//! Add `--int8` to route the engine-composition section through the int8
//! model and its quantized frames (about a quarter of the
//! response bytes). Either way the example cross-checks that both models
//! put the same labels on the demo batch, so it doubles as a quantization
//! smoke test.

use ensembler_suite::core::{Defense, EngineConfig, InferenceEngine, Precision, QuantizedDefense};
use ensembler_suite::latency::{network_cost, LinkProfile};
use ensembler_suite::serve::{
    demo_pipeline, DefenseServer, ModelRegistry, RemoteDefense, ServerConfig, WIRE_OVERHEAD,
};
use ensembler_suite::tensor::{Rng, Tensor};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let int8_engine_demo = std::env::args().any(|a| a == "--int8");

    // Both sides hold the same deterministic weights — the role a shared
    // checkpoint plays in a real deployment. One process serves the same
    // backbone at both precisions, as two named models.
    let (n, p, seed) = (4, 2, 17);
    let f32_pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(n, p, seed)?);
    let int8_pipeline: Arc<dyn Defense> =
        Arc::new(QuantizedDefense::quantize(Arc::clone(&f32_pipeline)));

    let config = ServerConfig::default();
    let registry = ModelRegistry::new("f32", Arc::clone(&f32_pipeline))?;
    registry.register("int8", "4,2,17,int8", Arc::clone(&int8_pipeline))?;
    let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", config)?;
    println!(
        "cloud: serving models [{}] (N={n}, P={p}) on {}",
        server.registry().names().join(", "),
        server.local_addr()
    );

    // The trusted edge: head + noise + secret selector + tail stay local,
    // server_outputs travels the socket — to the model each client names.
    let mut rng = Rng::seed_from(99);
    let images = Tensor::from_fn(&[8, 3, 16, 16], |_| rng.uniform(-1.0, 1.0));
    let mut logits_by_model = Vec::new();
    for (name, local) in [("f32", &f32_pipeline), ("int8", &int8_pipeline)] {
        let remote = RemoteDefense::connect_model(Arc::clone(local), server.local_addr(), name)?;
        println!(
            "edge:  connected to model {:?}{}",
            remote.model().expect("the ack echoes the model"),
            if remote.precision() == Precision::Int8 {
                " (quantized frames)"
            } else {
                ""
            }
        );
        let remote_logits = remote.predict(&images)?;
        assert_eq!(remote_logits, local.predict(&images)?);
        println!("edge:  batch of 8 over the wire, bit-identical to in-process {name}");
        logits_by_model.push(remote_logits);
    }

    // Smoke test for the quantized backend: both models must label the demo
    // batch identically even though one of them served int8 frames.
    assert_eq!(
        logits_by_model[0].argmax_rows(),
        logits_by_model[1].argmax_rows(),
        "f32 and int8 must agree on the demo labels"
    );
    println!("edge:  f32 and int8 agree on all 8 demo labels");

    // What those requests cost on the wire, from the validated cost model.
    let cost = network_cost(f32_pipeline.config());
    for (name, precision) in [("f32", Precision::F32), ("int8", Precision::Int8)] {
        let upload = cost.request_frame_bytes(8, precision, false, &WIRE_OVERHEAD);
        let ret = cost.response_frame_bytes(8, n as u64, precision, &WIRE_OVERHEAD);
        let link = LinkProfile::paper_lan();
        println!(
            "wire:  {name}: {upload} B up + {ret} B down per batch -> {:.1} ms on the paper's LAN",
            link.round_trip_s(upload as f64, ret as f64) * 1e3
        );
    }

    // RemoteDefense is a Defense, so the coalescing engine serves it as-is:
    // many concurrent edge callers, one shared remote connection to the
    // chosen model.
    let engine_model = if int8_engine_demo { "int8" } else { "f32" };
    let engine_replica = if int8_engine_demo {
        &int8_pipeline
    } else {
        &f32_pipeline
    };
    let engine = Arc::new(InferenceEngine::new(
        Arc::new(RemoteDefense::connect_model(
            Arc::clone(engine_replica),
            server.local_addr(),
            engine_model,
        )?),
        EngineConfig::default(),
    )?);
    let answers: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|k| {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let image =
                        Tensor::from_fn(&[3, 16, 16], |i| ((i + 7 * k) as f32 * 0.01).sin());
                    engine.predict_one(image).expect("remote predict")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    println!(
        "edge:  {} concurrent callers served through engine + wire against model {engine_model}",
        answers.len(),
    );

    // Graceful shutdown: in-flight work has drained, the counters survive.
    let stats = server.shutdown();
    println!(
        "cloud: drained and stopped — {} connections, {} requests served, {} rejected",
        stats.connections_accepted, stats.requests_served, stats.requests_rejected
    );
    for model in &stats.per_model {
        println!(
            "cloud:   model {}: {} coalesced requests in {} batches",
            model.model, model.engine.requests_served, model.engine.batches_executed
        );
    }
    Ok(())
}
