//! Domain scenario from the paper's motivation: an edge device holds
//! sensitive face/medical imagery and offloads the heavy layers to an
//! untrusted cloud. This example walks through the complete client/server
//! interaction at the byte level — head inference, noise, wire encoding,
//! server ensemble evaluation, selector, tail — on the CelebA-HQ stand-in.
//!
//! Run with: `cargo run --example private_medical_inference --release`

use ensembler_suite::core::{
    Defense, EngineConfig, EnsemblerTrainer, Features, InferenceEngine, Precision, TrainConfig,
    WireBlob,
};
use ensembler_suite::data::SyntheticSpec;
use ensembler_suite::metrics::accuracy;
use ensembler_suite::nn::models::ResNetConfig;
use ensembler_suite::tensor::bytes::Reader;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Face-attribute classification stands in for any sensitive-image task.
    let data = SyntheticSpec::celeba_hq_like()
        .with_samples(10, 4)
        .generate(33);
    let config = ResNetConfig::celeba_like();
    let trainer = EnsemblerTrainer::new(
        config,
        TrainConfig {
            epochs_stage1: 2,
            epochs_stage3: 3,
            batch_size: 8,
            learning_rate: 0.05,
            lambda: 1.0,
            sigma: 0.1,
            seed: 99,
        },
    );
    let pipeline = trainer.train(4, 2, &data.train)?.into_pipeline();

    // One batch of private patient/user images arrives on the edge device.
    let (images, labels) = data.test.batch(0, 4);

    // Step 1 (client): run the head and add the fixed noise.
    let transmitted = pipeline.client_features(&images)?;
    let mut payload = Vec::new(); // bytes as they appear on the network
    transmitted.put(&mut payload);
    println!(
        "client uploads {} bytes of intermediate features for {} images",
        payload.len(),
        images.shape()[0]
    );
    // The wire encoding round-trips exactly: the server reads it back as
    // the protocol's decoder does.
    let mut reader = Reader::new(&payload);
    let received = Features::take(Precision::F32, &mut reader)?;
    reader.finish("request payload")?;
    let received = received.as_f32()?;
    assert_eq!(received, &transmitted);

    // Step 2 (server): evaluate every ensemble member on the received
    // features — in parallel, from a shared `&self`.
    let server_maps = pipeline.server_outputs(received)?;
    println!(
        "server returns {} feature vectors of {} values each",
        server_maps.len(),
        server_maps[0].shape()[1]
    );

    // Step 3 (client): secret selection + tail classification.
    let logits = pipeline.classify(&server_maps)?;
    println!(
        "prediction accuracy on this private batch: {:.0}%",
        accuracy(&logits, &labels) * 100.0
    );
    println!(
        "the server never learns which {} of the {} networks were used ({} possibilities)",
        pipeline.selector().active_count(),
        pipeline.ensemble_size(),
        pipeline.selector().search_space()
    );

    // Production shape: wrap the pipeline in the inference engine and let
    // several edge devices submit single images concurrently. The engine
    // coalesces them into mini-batches; results are identical to the
    // sequential path because inference is immutable.
    let engine = Arc::new(InferenceEngine::new(
        Arc::new(pipeline),
        EngineConfig::default(),
    )?);
    let served: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..images.shape()[0])
            .map(|i| {
                let engine = Arc::clone(&engine);
                let image = images.batch_item(i);
                scope.spawn(move || engine.predict_one(image).expect("engine serves the image"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = engine.stats();
    println!(
        "engine served {} concurrent requests in {} coalesced batch(es); queue drained to {}",
        stats.requests_served, stats.batches_executed, stats.queue_depth
    );
    assert_eq!(served.len(), images.shape()[0]);
    Ok(())
}
