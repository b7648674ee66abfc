//! Anti-drift tests tying the analytic latency model to the real protocol:
//! the byte counts `ensembler-latency` predicts for upload/return frames
//! must equal the length of frames actually produced by the encoder, for
//! every backbone the workspace ships. If either side changes without the
//! other, these tests fail.

use ensembler::{Defense, Features, Precision, ServerRequest};
use ensembler_latency::network_cost;
use ensembler_nn::models::ResNetConfig;
use ensembler_serve::demo_pipeline;
use ensembler_serve::protocol::{encode_message, encode_tagged, Message, WIRE_OVERHEAD};
use ensembler_tensor::{QTensorBatch, Tensor};

/// The request id every tensor frame below carries — its value cannot change
/// a frame's length.
const ID: u64 = 0x0123_4567_89AB_CDEF;

fn configs() -> Vec<(&'static str, ResNetConfig)> {
    vec![
        ("tiny_for_tests", ResNetConfig::tiny_for_tests()),
        ("cifar10_like", ResNetConfig::cifar10_like()),
        ("cifar100_like", ResNetConfig::cifar100_like()),
        ("paper_resnet18", ResNetConfig::paper_resnet18(10, 32, true)),
    ]
}

#[test]
fn upload_frame_bytes_match_the_encoder_for_every_backbone() {
    for (name, config) in configs() {
        let cost = network_cost(&config);
        let head = config.head_output_shape();
        for batch in [1usize, 8] {
            let transmitted = Tensor::zeros(&[batch, head[0], head[1], head[2]]);
            let frame = encode_tagged(&Message::ServerOutputsRequest { transmitted }, Some(ID));
            assert_eq!(
                frame.len() as u64,
                cost.request_frame_bytes(batch as u64, Precision::F32, false, &WIRE_OVERHEAD),
                "upload frame size drifted from the analytic model for {name} batch {batch}"
            );
        }
    }
}

#[test]
fn return_frame_bytes_match_the_encoder_for_every_backbone() {
    for (name, config) in configs() {
        let cost = network_cost(&config);
        let features = config.body_output_features();
        for batch in [1usize, 8] {
            for ensemble_size in [1usize, 4] {
                let maps: Vec<Tensor> = (0..ensemble_size)
                    .map(|_| Tensor::zeros(&[batch, features]))
                    .collect();
                let frame = encode_tagged(&Message::ServerOutputsResponse { maps }, Some(ID));
                assert_eq!(
                    frame.len() as u64,
                    cost.response_frame_bytes(
                        batch as u64,
                        ensemble_size as u64,
                        Precision::F32,
                        &WIRE_OVERHEAD
                    ),
                    "return frame size drifted from the analytic model for {name} \
                     batch {batch} N {ensemble_size}"
                );
            }
        }
    }
}

#[test]
fn quantized_upload_frame_bytes_match_the_encoder_for_every_backbone() {
    for (name, config) in configs() {
        let cost = network_cost(&config);
        let head = config.head_output_shape();
        for batch in [1usize, 8] {
            let transmitted = QTensorBatch::quantize_batch(&Tensor::from_fn(
                &[batch, head[0], head[1], head[2]],
                |i| (i as f32 * 0.01).sin(),
            ));
            let frame = encode_tagged(&Message::ServerOutputsRequestQ { transmitted }, Some(ID));
            assert_eq!(
                frame.len() as u64,
                cost.request_frame_bytes(batch as u64, Precision::Int8, false, &WIRE_OVERHEAD),
                "quantized upload frame size drifted from the analytic model \
                 for {name} batch {batch}"
            );
        }
    }
}

#[test]
fn quantized_return_frame_bytes_match_the_encoder_for_every_backbone() {
    for (name, config) in configs() {
        let cost = network_cost(&config);
        let features = config.body_output_features();
        for batch in [1usize, 8] {
            for ensemble_size in [1usize, 4] {
                let maps: Vec<QTensorBatch> = (0..ensemble_size)
                    .map(|k| {
                        QTensorBatch::quantize_batch(&Tensor::from_fn(&[batch, features], |i| {
                            ((i + k) as f32 * 0.1).cos()
                        }))
                    })
                    .collect();
                let frame = encode_tagged(&Message::ServerOutputsResponseQ { maps }, Some(ID));
                assert_eq!(
                    frame.len() as u64,
                    cost.response_frame_bytes(
                        batch as u64,
                        ensemble_size as u64,
                        Precision::Int8,
                        &WIRE_OVERHEAD
                    ),
                    "quantized return frame size drifted from the analytic model \
                     for {name} batch {batch} N {ensemble_size}"
                );
            }
        }
    }
}

#[test]
fn range_request_frame_bytes_match_the_encoder_for_every_backbone() {
    // The sub-range requests a shard router fans out cost the full upload
    // plus exactly one `lo..hi` range header — for both wire precisions.
    for (name, config) in configs() {
        let cost = network_cost(&config);
        let head = config.head_output_shape();
        for batch in [1usize, 8] {
            let transmitted = Tensor::zeros(&[batch, head[0], head[1], head[2]]);
            let frame = encode_tagged(
                &Message::ServerOutputsRequestRange {
                    lo: 1,
                    hi: 3,
                    transmitted: transmitted.clone(),
                },
                Some(ID),
            );
            assert_eq!(
                frame.len() as u64,
                cost.request_frame_bytes(batch as u64, Precision::F32, true, &WIRE_OVERHEAD),
                "range upload frame size drifted from the analytic model \
                 for {name} batch {batch}"
            );

            let quantized = QTensorBatch::quantize_batch(&transmitted);
            let frame = encode_tagged(
                &Message::ServerOutputsRequestRangeQ {
                    lo: 1,
                    hi: 3,
                    transmitted: quantized,
                },
                Some(ID),
            );
            assert_eq!(
                frame.len() as u64,
                cost.request_frame_bytes(batch as u64, Precision::Int8, true, &WIRE_OVERHEAD),
                "quantized range upload frame size drifted from the analytic \
                 model for {name} batch {batch}"
            );
        }
    }
}

#[test]
fn the_quantized_response_is_roughly_a_quarter_of_the_f32_one() {
    // The headline byte saving of the quantized frames, from the model.
    let config = ResNetConfig::paper_resnet18(10, 32, true);
    let cost = network_cost(&config);
    let f32_bytes = cost.response_frame_bytes(32, 10, Precision::F32, &WIRE_OVERHEAD) as f64;
    let q_bytes = cost.response_frame_bytes(32, 10, Precision::Int8, &WIRE_OVERHEAD) as f64;
    assert!(
        q_bytes < 0.27 * f32_bytes,
        "quantized response {q_bytes} B should be about a quarter of {f32_bytes} B"
    );
}

#[test]
fn a_live_pipelines_frames_match_the_model_end_to_end() {
    // Not just synthetic zero tensors: run a real pipeline's client and
    // server stages and check the frames they would put on the wire.
    let pipeline = demo_pipeline(3, 2, 77).unwrap();
    let cost = network_cost(pipeline.config());
    let batch = 2usize;
    let images = Tensor::ones(&[batch, 3, 16, 16]);

    let transmitted = pipeline.client_features(&images).unwrap();
    let request = encode_tagged(
        &Message::ServerOutputsRequest {
            transmitted: transmitted.clone(),
        },
        Some(ID),
    );
    assert_eq!(
        request.len() as u64,
        cost.request_frame_bytes(batch as u64, Precision::F32, false, &WIRE_OVERHEAD)
    );

    let maps = pipeline.server_outputs(&transmitted).unwrap();
    let response = encode_tagged(&Message::ServerOutputsResponse { maps }, Some(ID));
    assert_eq!(
        response.len() as u64,
        cost.response_frame_bytes(
            batch as u64,
            pipeline.ensemble_size() as u64,
            Precision::F32,
            &WIRE_OVERHEAD
        )
    );

    // And the same stages through the quantized encoding.
    let qf = QTensorBatch::quantize_batch(&transmitted);
    let request = encode_tagged(
        &Message::ServerOutputsRequestQ {
            transmitted: qf.clone(),
        },
        Some(ID),
    );
    assert_eq!(
        request.len() as u64,
        cost.request_frame_bytes(batch as u64, Precision::Int8, false, &WIRE_OVERHEAD)
    );
    let qmaps = pipeline
        .serve(&ServerRequest::full(Features::Int8(qf)))
        .unwrap();
    let response = encode_tagged(&Message::from(qmaps), Some(ID));
    assert_eq!(
        response.len() as u64,
        cost.response_frame_bytes(
            batch as u64,
            pipeline.ensemble_size() as u64,
            Precision::Int8,
            &WIRE_OVERHEAD
        )
    );
}

#[test]
fn tagged_frames_cost_exactly_the_modelled_request_id_bytes() {
    use ensembler_serve::protocol::{ErrorCode, WireError};

    // `Error` is the one message that exists in both forms: tagged, it is
    // byte-for-byte the untagged frame plus exactly the `request_id_bytes`
    // the analytic model charges every tensor frame above.
    let message = Message::Error(WireError {
        code: ErrorCode::Overloaded,
        message: "per-connection budget".to_string(),
    });
    let untagged = encode_message(&message);
    for id in [0u64, 1, u64::MAX] {
        let tagged = encode_tagged(&message, Some(id));
        assert_eq!(
            tagged.len() as u64,
            untagged.len() as u64 + WIRE_OVERHEAD.request_id_bytes,
            "tagged frame cost drifted from the analytic model for id {id}",
        );
    }
    assert_eq!(
        WIRE_OVERHEAD.request_id_bytes,
        ensembler_serve::protocol::REQUEST_ID_BYTES as u64,
        "the analytic model and the wire constant must agree on the id width"
    );
}

#[test]
fn handshake_frame_bytes_match_the_encoder() {
    use ensembler_serve::protocol::{Hello, HelloAck};

    // Nameless handshake frames.
    let hello = encode_message(&Message::Hello(Hello::legacy(1)));
    assert_eq!(hello.len() as u64, WIRE_OVERHEAD.hello_frame_bytes(None));
    let ack = encode_message(&Message::HelloAck(HelloAck {
        version: 1,
        label: "Ensembler".to_string(),
        ensemble_size: 3,
        selected_count: 2,
        model: None,
    }));
    assert_eq!(
        ack.len() as u64,
        WIRE_OVERHEAD.hello_ack_frame_bytes("Ensembler".len() as u64, None)
    );

    // Handshakes carrying a model name, across name lengths.
    for model in ["a", "alpha", "a-rather-long-model-name"] {
        let hello = encode_message(&Message::Hello(Hello {
            max_version: 3,
            model: Some(model.to_string()),
        }));
        assert_eq!(
            hello.len() as u64,
            WIRE_OVERHEAD.hello_frame_bytes(Some(model.len() as u64)),
            "hello bytes drifted for model {model:?}"
        );
        let ack = encode_message(&Message::HelloAck(HelloAck {
            version: 3,
            label: "Ensembler+int8".to_string(),
            ensemble_size: 4,
            selected_count: 2,
            model: Some(model.to_string()),
        }));
        assert_eq!(
            ack.len() as u64,
            WIRE_OVERHEAD
                .hello_ack_frame_bytes("Ensembler+int8".len() as u64, Some(model.len() as u64)),
            "ack bytes drifted for model {model:?}"
        );
    }
}
