//! End-to-end tests over a real loopback TCP socket: a [`DefenseServer`] in
//! one set of threads, [`RemoteDefense`] clients (or raw protocol frames) on
//! the other side, and bit-identical results as the acceptance bar.

use ensembler::{
    Defense, EngineConfig, EnsemblerError, Features, InferenceEngine, Maps, Precision,
    QuantizedDefense, ServerRequest,
};
use ensembler_serve::protocol::{
    crc32, encode_message, encode_tagged, read_message, read_tagged, write_message, ErrorCode,
    Hello, Message, DEFAULT_MAX_PAYLOAD_BYTES, FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES,
    PROTOCOL_VERSION, REQUEST_ID_BYTES,
};
use ensembler_serve::{
    demo_pipeline, AdmissionConfig, DefenseServer, ModelRegistry, RemoteDefense, ServeError,
    ServerConfig,
};
use ensembler_tensor::{QTensorBatch, Rng, Tensor};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

/// Binds a demo server on an ephemeral loopback port and returns it with the
/// shared pipeline (the test's stand-in for both sides holding the same
/// checkpoint).
fn demo_server(n: usize, p: usize, seed: u64) -> (DefenseServer, Arc<dyn Defense>) {
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(n, p, seed).unwrap());
    let server = DefenseServer::bind(
        Arc::clone(&pipeline),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    (server, pipeline)
}

fn random_images(batch: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::from_fn(&[batch, 3, 16, 16], |_| rng.uniform(-1.0, 1.0))
}

/// Binds a demo server over the int8-quantized demo pipeline.
fn demo_server_int8(n: usize, p: usize, seed: u64) -> (DefenseServer, Arc<dyn Defense>) {
    let pipeline: Arc<dyn Defense> = Arc::new(QuantizedDefense::quantize(Arc::new(
        demo_pipeline(n, p, seed).unwrap(),
    )));
    let server = DefenseServer::bind(
        Arc::clone(&pipeline),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    (server, pipeline)
}

/// Opens a raw socket to `server` and performs the handshake offering
/// `max_version`, returning the stream and the version the ack committed to.
fn raw_handshake(server: &DefenseServer, max_version: u16) -> (TcpStream, u16) {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_message(&mut stream, &Message::Hello(Hello::legacy(max_version))).unwrap();
    match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
        Message::HelloAck(ack) => (stream, ack.version),
        other => panic!("handshake failed: {other:?}"),
    }
}

/// Overwrites the checksum of `frame` with the right one for its bytes.
fn restamp_crc(frame: &mut [u8]) {
    let crc_offset = frame.len() - FRAME_TRAILER_BYTES;
    let crc = crc32(&frame[..crc_offset]);
    frame[crc_offset..].copy_from_slice(&crc.to_be_bytes());
}

/// `message` framed as a v1–v4 peer framed it: no id word, an old stamp, a
/// valid checksum — the request form this protocol no longer has.
fn untagged_frame(message: &Message) -> Vec<u8> {
    let mut frame = encode_tagged(message, Some(0));
    frame.drain(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + REQUEST_ID_BYTES);
    frame[4..6].copy_from_slice(&(PROTOCOL_VERSION - 1).to_be_bytes());
    restamp_crc(&mut frame);
    frame
}

/// The server hung up: the next read is a clean end of stream.
fn assert_hung_up(stream: &mut TcpStream) {
    let err = read_tagged(stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap_err();
    assert!(matches!(err, ServeError::Io(_)), "expected EOF, got {err}");
}

#[test]
fn remote_predict_is_bit_identical_to_in_process() {
    let (server, pipeline) = demo_server(3, 2, 21);
    let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();
    assert_eq!(remote.peer_label(), "Ensembler");

    // Batched request: travels the direct server path.
    let batch = random_images(4, 1);
    assert_eq!(
        remote.predict(&batch).unwrap(),
        pipeline.predict(&batch).unwrap()
    );

    // Single-image request: travels the server's coalescing engine path.
    let single = random_images(1, 2);
    assert_eq!(
        remote.predict(&single).unwrap(),
        pipeline.predict(&single).unwrap()
    );

    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.requests_served, 2);
    assert_eq!(stats.errors_sent, 0);
}

#[test]
fn staged_remote_calls_match_the_composed_predict() {
    // The Defense contract survives the network: running the three stages by
    // hand (with server_outputs remote) equals the composed predict.
    let (server, pipeline) = demo_server(2, 1, 33);
    let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();
    let images = random_images(2, 3);

    let transmitted = remote.client_features(&images).unwrap();
    let maps = remote.server_outputs(&transmitted).unwrap();
    assert_eq!(maps.len(), pipeline.ensemble_size());
    let staged = remote.classify(&maps).unwrap();
    assert_eq!(staged, pipeline.predict(&images).unwrap());
}

/// Binds `pipeline` with a per-connection budget that lets `threads` callers
/// share one multiplexed connection without an `Overloaded` rejection.
fn bind_for_threads(pipeline: &Arc<dyn Defense>, threads: u64) -> DefenseServer {
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_connection_inflight_requests: threads,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    };
    DefenseServer::bind(Arc::clone(pipeline), "127.0.0.1:0", config).unwrap()
}

/// Predicts `random_images(1, seed)` for every seed, one scoped thread per
/// seed, each through the [`RemoteDefense`] that `remote` hands its thread.
fn predict_on_threads(
    seeds: std::ops::Range<u64>,
    remote: impl Fn() -> Arc<RemoteDefense> + Sync,
) -> Vec<Tensor> {
    let remote = &remote;
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .map(|seed| scope.spawn(move || remote().predict(&random_images(1, seed)).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_remote_clients_coalesce_across_connections() {
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 5).unwrap());
    let server = bind_for_threads(&pipeline, 6);
    let addr = server.local_addr();
    let seeds = 100..106;
    let expected: Vec<Tensor> = seeds
        .clone()
        .map(|seed| pipeline.predict(&random_images(1, seed)).unwrap())
        .collect();

    let dialled = predict_on_threads(seeds.clone(), || {
        Arc::new(RemoteDefense::connect(Arc::clone(&pipeline), addr).unwrap())
    });
    assert_eq!(dialled, expected);
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 6);
    assert_eq!(stats.requests_served, 6);
    // All six single-image requests went through the shared engine queue.
    assert_eq!(server.engine_stats().requests_served, 6);

    // The same threads sharing one multiplexed connection get the same bits.
    let shared = Arc::new(RemoteDefense::connect(Arc::clone(&pipeline), addr).unwrap());
    assert_eq!(predict_on_threads(seeds, || Arc::clone(&shared)), expected);
    assert_eq!(server.stats().connections_accepted, 7);
    assert_eq!(server.engine_stats().requests_served, 12);
}

#[test]
fn a_remote_defense_can_sit_behind_a_local_inference_engine() {
    // Full composition: local engine -> RemoteDefense -> socket -> server
    // engine -> pipeline. Existing serving code runs unchanged on a remote.
    let (server, pipeline) = demo_server(2, 1, 8);
    let remote: Arc<dyn Defense> =
        Arc::new(RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap());
    let engine = InferenceEngine::new(remote, EngineConfig::default()).unwrap();

    let image = random_images(1, 9);
    let expected = pipeline.predict(&image).unwrap();
    let logits = engine.predict_one(image.batch_item(0)).unwrap();
    assert_eq!(logits.data(), expected.data());
}

#[test]
fn quantized_remote_predict_is_bit_identical_to_in_process_int8() {
    let (server, int8) = demo_server_int8(3, 2, 41);
    let remote = RemoteDefense::connect(Arc::clone(&int8), server.local_addr()).unwrap();
    assert_eq!(remote.peer_label(), "Ensembler+int8");
    assert_eq!(remote.precision(), Precision::Int8);

    // Batched request (direct server path) and single-image request (the
    // engine's quantized coalescing path): both bit-identical to in-process.
    for (batch, seed) in [(4usize, 51u64), (1, 52)] {
        let images = random_images(batch, seed);
        assert_eq!(
            remote.predict(&images).unwrap(),
            int8.predict(&images).unwrap(),
            "batch {batch}"
        );
    }
    assert_eq!(server.stats().requests_served, 2);
    assert_eq!(server.stats().errors_sent, 0);
}

#[test]
fn concurrent_quantized_clients_coalesce_across_connections() {
    let int8: Arc<dyn Defense> = Arc::new(QuantizedDefense::quantize(Arc::new(
        demo_pipeline(2, 1, 43).unwrap(),
    )));
    let server = bind_for_threads(&int8, 5);
    let addr = server.local_addr();
    let seeds = 200..205;
    let expected: Vec<Tensor> = seeds
        .clone()
        .map(|seed| int8.predict(&random_images(1, seed)).unwrap())
        .collect();

    let dialled = predict_on_threads(seeds.clone(), || {
        Arc::new(RemoteDefense::connect(Arc::clone(&int8), addr).unwrap())
    });
    assert_eq!(dialled, expected);
    // All five quantized single-image requests coalesced through the engine.
    assert_eq!(server.engine_stats().requests_served, 5);

    // The same threads sharing one multiplexed connection get the same bits.
    let shared = Arc::new(RemoteDefense::connect(Arc::clone(&int8), addr).unwrap());
    assert_eq!(predict_on_threads(seeds, || Arc::clone(&shared)), expected);
    assert_eq!(server.stats().connections_accepted, 6);
    assert_eq!(server.engine_stats().requests_served, 10);
}

#[test]
fn f32_client_against_int8_server_fails_the_handshake() {
    // Same architecture, different precision: the label check must refuse to
    // pair them, otherwise predictions silently diverge from both pipelines.
    let (server, _int8) = demo_server_int8(3, 2, 49);
    let f32_replica: Arc<dyn Defense> = Arc::new(demo_pipeline(3, 2, 49).unwrap());
    let err = RemoteDefense::connect(f32_replica, server.local_addr()).unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");
}

#[test]
fn truncated_and_garbage_quantized_requests_get_error_frames() {
    use std::io::Write;

    let (server, int8) = demo_server_int8(2, 1, 53);
    let (mut stream, version) = raw_handshake(&server, PROTOCOL_VERSION);
    assert_eq!(version, PROTOCOL_VERSION);

    // A quantized request whose scale field is garbage (NaN): the frame
    // itself is well-formed (CRC re-stamped), so the decode layer must
    // reject the payload and report a malformed frame.
    let features = int8
        .client_features(&random_images(1, 54))
        .map(|t| QTensorBatch::quantize_batch(&t))
        .unwrap();
    let request = Message::ServerOutputsRequestQ {
        transmitted: features,
    };
    let mut frame = encode_tagged(&request, Some(1));
    let scale_offset = FRAME_HEADER_BYTES + REQUEST_ID_BYTES + 4 + 4 + 4 * 4; // magic+rank+dims
    frame[scale_offset..scale_offset + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    restamp_crc(&mut frame);
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
        Message::Error(wire) => {
            assert_eq!(wire.code, ErrorCode::MalformedFrame);
            assert!(wire.message.contains("finite"), "{}", wire.message);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // A truncated quantized request (payload cut mid-data, framing fixed up)
    // is likewise rejected; the server then still serves honest clients.
    drop(stream);
    let remote = RemoteDefense::connect(Arc::clone(&int8), server.local_addr()).unwrap();
    let images = random_images(1, 55);
    assert_eq!(
        remote.predict(&images).unwrap(),
        int8.predict(&images).unwrap()
    );
}

#[test]
fn quantized_shape_mismatches_are_rejected_before_the_queue() {
    let (server, int8) = demo_server_int8(2, 1, 57);
    let remote = RemoteDefense::connect(Arc::clone(&int8), server.local_addr()).unwrap();
    for bad in [
        Tensor::ones(&[4, 4]),
        Tensor::ones(&[2, 5, 8, 8]),
        Tensor::ones(&[1, 5, 9, 9]),
    ] {
        let err = remote.server_outputs(&bad).unwrap_err();
        assert!(
            err.to_string().contains("head output"),
            "expected an up-front shape rejection, got {err}"
        );
    }
    assert_eq!(server.engine_stats().requests_served, 0);
}

#[test]
fn mismatched_replica_is_rejected_at_connect_time() {
    let (server, _pipeline) = demo_server(3, 2, 11);
    // Same architecture, different selection count: the handshake must fail.
    let wrong: Arc<dyn Defense> = Arc::new(demo_pipeline(3, 1, 11).unwrap());
    let err = RemoteDefense::connect(wrong, server.local_addr()).unwrap_err();
    assert!(matches!(err, ServeError::Protocol(_)), "{err}");
    assert!(err.to_string().contains("does not match"), "{err}");
}

#[test]
fn unsupported_client_version_gets_a_version_error() {
    // A connection is a v5 connection or it is refused: every offer below 5,
    // with or without a model name, gets the typed error frame and a
    // hang-up, and touches no engine.
    let (server, _pipeline) = demo_server(2, 1, 12);
    let hello = |max_version: u16, named: bool| {
        Message::Hello(Hello {
            max_version,
            model: named.then(|| "default".to_string()),
        })
    };
    let mut refused = 0;
    for offer in 0..PROTOCOL_VERSION {
        for named in [false, true] {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            write_message(&mut stream, &hello(offer, named)).unwrap();
            match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
                Message::Error(wire) => {
                    assert_eq!(wire.code, ErrorCode::UnsupportedVersion, "offer {offer}");
                    assert!(
                        wire.message.contains(&format!("v{offer}")),
                        "{}",
                        wire.message
                    );
                }
                other => panic!("offer {offer}: expected an error frame, got {other:?}"),
            }
            assert_hung_up(&mut stream);
            refused += 1;
            assert_eq!(server.stats().errors_sent, refused);
        }
    }
    assert_eq!(server.stats().requests_served, 0);
    assert_eq!(server.engine_stats().requests_served, 0);

    // Offers of 5 and beyond are acked at 5: the version fields stay on the
    // wire so that a future v6 client can still open a v5 connection.
    for offer in [PROTOCOL_VERSION, PROTOCOL_VERSION + 1, u16::MAX] {
        for named in [false, true] {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            write_message(&mut stream, &hello(offer, named)).unwrap();
            match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
                Message::HelloAck(ack) => {
                    assert_eq!(ack.version, PROTOCOL_VERSION, "offer {offer}");
                    assert_eq!(ack.model.is_some(), named);
                }
                other => panic!("offer {offer}: expected an ack, got {other:?}"),
            }
        }
    }
    assert_eq!(server.stats().errors_sent, refused);
}

#[test]
fn garbage_bytes_are_answered_with_a_malformed_frame_error() {
    use std::io::Write;

    let (server, pipeline) = demo_server(2, 1, 13);
    let (mut stream, _) = raw_handshake(&server, PROTOCOL_VERSION);

    stream.write_all(&[0xAB; 32]).unwrap();
    stream.flush().unwrap();
    match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
        Message::Error(wire) => assert_eq!(wire.code, ErrorCode::MalformedFrame),
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The malformed frame closed that connection, but the server is fine.
    drop(stream);
    let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();
    let images = random_images(1, 14);
    assert_eq!(
        remote.predict(&images).unwrap(),
        pipeline.predict(&images).unwrap()
    );
}

#[test]
fn corrupted_checksums_are_detected_and_reported() {
    use std::io::Write;

    let (server, pipeline) = demo_server(2, 1, 15);
    let (mut stream, _) = raw_handshake(&server, PROTOCOL_VERSION);

    let transmitted = pipeline.client_features(&random_images(1, 16)).unwrap();
    let mut frame = encode_tagged(&Message::ServerOutputsRequest { transmitted }, Some(1));
    let flip = frame.len() - FRAME_TRAILER_BYTES - 1;
    frame[flip] ^= 0x01;
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
        Message::Error(wire) => assert_eq!(wire.code, ErrorCode::ChecksumMismatch),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // Consistency: a frame with a correctly re-stamped checksum would have
    // been accepted — prove the test corrupted the payload, not the frame.
    let crc_offset = frame.len() - FRAME_TRAILER_BYTES;
    let fixed = crc32(&frame[..crc_offset]);
    assert_ne!(&frame[crc_offset..], fixed.to_be_bytes().as_slice());
}

#[test]
fn inference_errors_keep_the_connection_alive() {
    let (server, pipeline) = demo_server(2, 1, 17);
    let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();

    // Wrong feature shape: the pipeline rejects (or panics inside) the
    // evaluation; the server must answer with an inference error...
    let bad = Tensor::ones(&[1, 5, 9, 9]);
    let err = remote.server_outputs(&bad).unwrap_err();
    assert!(matches!(err, EnsemblerError::Transport(_)), "{err:?}");

    // ...and still serve the next, valid request on the same connection.
    let images = random_images(1, 18);
    assert_eq!(
        remote.predict(&images).unwrap(),
        pipeline.predict(&images).unwrap()
    );
    assert_eq!(server.stats().errors_sent, 1);
}

#[test]
fn malformed_shapes_are_rejected_before_reaching_the_batch_queue() {
    let (server, pipeline) = demo_server(2, 1, 23);
    let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();

    // Wrong rank, wrong channel count, zero batch: all rejected up front
    // with a shape error naming the served head output — none may reach the
    // coalescing queue where they could poison other connections' batches.
    for bad in [
        Tensor::ones(&[4, 4]),
        Tensor::ones(&[2, 5, 8, 8]),
        Tensor::ones(&[1, 5, 9, 9]),
    ] {
        let err = remote.server_outputs(&bad).unwrap_err();
        assert!(
            err.to_string().contains("head output"),
            "expected an up-front shape rejection, got {err}"
        );
    }
    // The engine never saw any of it.
    assert_eq!(server.engine_stats().requests_served, 0);

    let images = random_images(1, 24);
    assert_eq!(
        remote.predict(&images).unwrap(),
        pipeline.predict(&images).unwrap()
    );
}

#[test]
fn a_raw_bad_shape_frame_gets_a_typed_error_not_a_dropped_connection() {
    use std::io::Write;

    // Regression for the panic-proofed forward path: a hand-rolled client
    // (no RemoteDefense shape validation) ships a malformed-shape request
    // over the wire. The layers no longer panic on bad shapes — the typed
    // ShapeError must come back as an Inference error *frame* naming the
    // shape, with the TCP connection intact and serving afterwards.
    let (server, pipeline) = demo_server(2, 1, 29);
    let (mut stream, _) = raw_handshake(&server, PROTOCOL_VERSION);

    // Wrong channel count for the served head output: would have been a
    // panic inside the conv forward before the typed shape checks.
    let bad = Message::ServerOutputsRequest {
        transmitted: Tensor::ones(&[1, 5, 9, 9]),
    };
    stream.write_all(&encode_tagged(&bad, Some(7))).unwrap();
    stream.flush().unwrap();
    let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
    assert_eq!(answer.request_id, Some(7), "the error names its request");
    match answer.message {
        Message::Error(wire) => {
            assert_eq!(wire.code, ErrorCode::Inference);
            assert!(
                wire.message.contains("[1, 5, 9, 9]"),
                "the typed error must name the offending shape: {}",
                wire.message
            );
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }

    // The SAME connection still serves a well-formed request bit-exactly.
    let transmitted = pipeline.client_features(&random_images(1, 30)).unwrap();
    let expected = pipeline.server_outputs(&transmitted).unwrap();
    let frame = encode_tagged(&Message::ServerOutputsRequest { transmitted }, Some(8));
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
    assert_eq!(answer.request_id, Some(8));
    match answer.message {
        Message::ServerOutputsResponse { maps } => assert_eq!(maps, expected),
        other => panic!("expected a response on the surviving connection, got {other:?}"),
    }
    assert_eq!(server.stats().errors_sent, 1);
    assert_eq!(server.stats().requests_served, 1);
}

#[test]
fn idle_connections_are_closed_after_the_read_timeout() {
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 25).unwrap());
    let server = DefenseServer::bind(
        Arc::clone(&pipeline),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Some(std::time::Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));
    // The server hung up on the idle connection; the next exchange fails.
    let features = pipeline.client_features(&random_images(1, 26)).unwrap();
    assert!(remote.server_outputs(&features).is_err());
}

#[test]
fn a_wildcard_bind_still_drops_cleanly() {
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 27).unwrap());
    let server =
        DefenseServer::bind(Arc::clone(&pipeline), "0.0.0.0:0", ServerConfig::default()).unwrap();
    assert!(server.local_addr().ip().is_unspecified());
    drop(server); // must not hang waiting for the accept loop
}

#[test]
fn dropping_the_server_stops_new_connections() {
    let (server, pipeline) = demo_server(2, 1, 19);
    let addr = server.local_addr();
    let remote = RemoteDefense::connect(Arc::clone(&pipeline), addr).unwrap();
    let images = random_images(1, 20);
    let expected = pipeline.predict(&images).unwrap();
    drop(server);

    // No new connections...
    assert!(RemoteDefense::connect(Arc::clone(&pipeline), addr).is_err());
    // ...but the established connection drains gracefully.
    assert_eq!(remote.predict(&images).unwrap(), expected);
}

// ---------------------------------------------------------------------------
// Multi-model serving, admission control and graceful shutdown
// ---------------------------------------------------------------------------

/// A test-only defense whose `server_outputs` blocks on a gate until the
/// test releases it: the deterministic way to hold a request "in flight" on
/// the server while the test probes admission control, shutdown draining and
/// out-of-order multiplexed completion.
#[derive(Debug)]
struct GatedDefense {
    inner: Arc<dyn Defense>,
    gate: Arc<(Mutex<GateState>, Condvar)>,
    /// Only `server_outputs` calls with at least this many samples block on
    /// the gate; smaller batches pass straight through. `0` gates everything.
    gate_min_batch: usize,
}

#[derive(Debug, Default)]
struct GateState {
    entered: u64,
    released: bool,
}

impl GatedDefense {
    fn new(inner: Arc<dyn Defense>) -> (Arc<Self>, Arc<(Mutex<GateState>, Condvar)>) {
        Self::gating_batches_of_at_least(inner, 0)
    }

    /// Gates only calls whose batch has at least `min_batch` samples — the
    /// deterministic "slow request" for pipelining tests, with smaller
    /// requests staying fast.
    fn gating_batches_of_at_least(
        inner: Arc<dyn Defense>,
        min_batch: usize,
    ) -> (Arc<Self>, Arc<(Mutex<GateState>, Condvar)>) {
        let gate = Arc::new((Mutex::new(GateState::default()), Condvar::new()));
        let defense = Arc::new(Self {
            inner,
            gate: Arc::clone(&gate),
            gate_min_batch: min_batch,
        });
        (defense, gate)
    }
}

/// Blocks until `entered >= n` server_outputs calls are inside the gate.
fn wait_entered(gate: &(Mutex<GateState>, Condvar), n: u64) {
    let (lock, condvar) = gate;
    let mut state = lock.lock().unwrap();
    while state.entered < n {
        state = condvar.wait(state).unwrap();
    }
}

/// Opens the gate for every blocked and future call.
fn release(gate: &(Mutex<GateState>, Condvar)) {
    let (lock, condvar) = gate;
    lock.lock().unwrap().released = true;
    condvar.notify_all();
}

impl Defense for GatedDefense {
    fn config(&self) -> &ensembler_nn::models::ResNetConfig {
        self.inner.config()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn server_bodies(&self) -> &[ensembler_nn::Sequential] {
        self.inner.server_bodies()
    }

    fn selected_count(&self) -> usize {
        self.inner.selected_count()
    }

    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.inner.client_features(images)
    }

    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        if request.features.shape()[0] < self.gate_min_batch {
            return self.inner.serve(request);
        }
        let (lock, condvar) = &*self.gate;
        let mut state = lock.lock().unwrap();
        state.entered += 1;
        condvar.notify_all();
        while !state.released {
            state = condvar.wait(state).unwrap();
        }
        drop(state);
        self.inner.serve(request)
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.inner.classify(server_maps)
    }
}

/// A hosted pipeline that records the range and payload precision of every
/// request that reaches it.
#[derive(Debug)]
struct RecordingDefense {
    inner: Arc<dyn Defense>,
    seen: Mutex<Vec<(Option<std::ops::Range<usize>>, Precision)>>,
}

impl Defense for RecordingDefense {
    fn config(&self) -> &ensembler_nn::models::ResNetConfig {
        self.inner.config()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn server_bodies(&self) -> &[ensembler_nn::Sequential] {
        self.inner.server_bodies()
    }

    fn selected_count(&self) -> usize {
        self.inner.selected_count()
    }

    fn precision(&self) -> Precision {
        self.inner.precision()
    }

    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.inner.client_features(images)
    }

    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        let seen = (request.range.clone(), request.features.precision());
        self.seen.lock().unwrap().push(seen);
        self.inner.serve(request)
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.inner.classify(server_maps)
    }
}

#[test]
fn a_remote_replica_forwards_every_request_kind_with_its_range() {
    // `RemoteDefense` behind `&dyn Defense`, f32 and int8 replica: each of
    // the four request kinds reaches the hosted pipeline as ONE request that
    // still names its range — the server evaluates `hi - lo` bodies and
    // ships `hi - lo` maps, not N to be sliced client-side — and the answer
    // is bit-identical to the pipeline's own `serve`.
    let f32_pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(4, 2, 263).unwrap());
    let int8_pipeline: Arc<dyn Defense> =
        Arc::new(QuantizedDefense::quantize(Arc::clone(&f32_pipeline)));
    let features = f32_pipeline
        .client_features(&random_images(2, 264))
        .unwrap();
    let payloads = [
        Features::Int8(QTensorBatch::quantize_batch(&features)),
        Features::F32(features),
    ];
    for pipeline in [f32_pipeline, int8_pipeline] {
        let hosted = Arc::new(RecordingDefense {
            inner: Arc::clone(&pipeline),
            seen: Mutex::new(Vec::new()),
        });
        let server = DefenseServer::bind(
            Arc::clone(&hosted) as Arc<dyn Defense>,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();
        let remote: &dyn Defense = &remote;
        for payload in &payloads {
            for range in [Some(1..3), None] {
                let request = ServerRequest {
                    range,
                    features: payload.clone(),
                };
                let what = format!("{} / {:?}", pipeline.label(), request.range);
                let answer = remote.serve(&request).expect(&what);
                assert_eq!(answer, pipeline.serve(&request).unwrap(), "{what}");
                assert_eq!(answer.len(), request.range.as_ref().map_or(4, |r| r.len()));
                // An int8 replica is always served in quantized frames.
                let wire = match pipeline.precision() {
                    Precision::Int8 => Precision::Int8,
                    Precision::F32 => payload.precision(),
                };
                let seen = std::mem::take(&mut *hosted.seen.lock().unwrap());
                assert_eq!(seen, [(request.range, wire)], "{what}");
            }
        }
    }
}

#[test]
fn two_models_are_served_bit_identically_from_one_process() {
    // One process, two models at different precisions: clients
    // pick theirs by name and every prediction is bit-identical to the
    // matching in-process pipeline.
    let alpha: Arc<dyn Defense> = Arc::new(demo_pipeline(3, 2, 61).unwrap());
    let beta: Arc<dyn Defense> = Arc::new(QuantizedDefense::quantize(Arc::new(
        demo_pipeline(2, 1, 62).unwrap(),
    )));
    let config = ServerConfig::default();
    let registry = ModelRegistry::new("alpha", Arc::clone(&alpha)).unwrap();
    registry
        .register("beta", "2,1,62,int8", Arc::clone(&beta))
        .unwrap();
    let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", config).unwrap();

    let remote_alpha =
        RemoteDefense::connect_model(Arc::clone(&alpha), server.local_addr(), "alpha").unwrap();
    assert_eq!(remote_alpha.model(), Some("alpha"));

    let remote_beta =
        RemoteDefense::connect_model(Arc::clone(&beta), server.local_addr(), "beta").unwrap();
    assert_eq!(remote_beta.model(), Some("beta"));
    assert_eq!(remote_beta.peer_label(), "Ensembler+int8");

    for seed in [301u64, 302] {
        let images = random_images(2, seed);
        assert_eq!(
            remote_alpha.predict(&images).unwrap(),
            alpha.predict(&images).unwrap(),
            "alpha seed {seed}"
        );
        assert_eq!(
            remote_beta.predict(&images).unwrap(),
            beta.predict(&images).unwrap(),
            "beta seed {seed}"
        );
    }

    // A nameless connect gets the default model ("alpha").
    let legacy = RemoteDefense::connect(Arc::clone(&alpha), server.local_addr()).unwrap();
    assert_eq!(legacy.model(), None);
    let images = random_images(1, 303);
    assert_eq!(
        legacy.predict(&images).unwrap(),
        alpha.predict(&images).unwrap()
    );

    // Per-model engines: the single-image request coalesced through alpha's
    // engine; beta's engine saw nothing (batched requests run direct).
    let stats = server.stats();
    assert_eq!(stats.requests_served, 5);
    assert_eq!(stats.requests_rejected, 0);
    assert_eq!(stats.per_model.len(), 2);
    assert_eq!(stats.per_model[0].model, "alpha");
    assert_eq!(stats.per_model[1].model, "beta");
    assert_eq!(stats.per_model[0].engine.requests_served, 1);
    assert_eq!(stats.per_model[1].engine.requests_served, 0);
}

#[test]
fn unknown_model_requests_get_a_typed_error() {
    let (server, pipeline) = demo_server(2, 1, 63);
    let err = RemoteDefense::connect_model(Arc::clone(&pipeline), server.local_addr(), "nope")
        .unwrap_err();
    match err {
        ServeError::Remote(wire) => {
            assert_eq!(wire.code, ErrorCode::UnknownModel);
            assert!(wire.message.contains("default"), "{}", wire.message);
        }
        other => panic!("expected a typed UnknownModel error, got {other}"),
    }
    // The server is unharmed and still serves known models.
    let remote =
        RemoteDefense::connect_model(Arc::clone(&pipeline), server.local_addr(), "default")
            .unwrap();
    assert_eq!(remote.model(), Some("default"));
    let images = random_images(1, 64);
    assert_eq!(
        remote.predict(&images).unwrap(),
        pipeline.predict(&images).unwrap()
    );
}

#[test]
fn pipelined_requests_on_one_connection_complete_out_of_order() {
    // The multiplexing invariant: one connection, a slow request
    // and a fast request in flight simultaneously, the fast response arriving
    // while the slow request is still blocked on the server — and both
    // answers bit-identical to in-process.
    let inner: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 211).unwrap());
    // Only batch >= 2 calls block on the gate: the slow request is a 2-sample
    // batch, the fast request a single sample.
    let (gated, gate) = GatedDefense::gating_batches_of_at_least(Arc::clone(&inner), 2);
    let server = DefenseServer::bind(gated, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let remote = Arc::new(RemoteDefense::connect(Arc::clone(&inner), server.local_addr()).unwrap());

    let slow_features = inner.client_features(&random_images(2, 212)).unwrap();
    let fast_features = inner.client_features(&random_images(1, 213)).unwrap();
    let expected_slow = inner.server_outputs(&slow_features).unwrap();
    let expected_fast = inner.server_outputs(&fast_features).unwrap();

    // Issue the slow request and wait until it is provably in flight on the
    // server (inside the gate).
    let slow_remote = Arc::clone(&remote);
    let slow = std::thread::spawn(move || slow_remote.server_outputs(&slow_features).unwrap());
    wait_entered(&gate, 1);

    // The fast request goes down the SAME connection and completes while the
    // slow one is still held: out-of-order completion, two requests in
    // flight on one socket.
    let fast_maps = remote.server_outputs(&fast_features).unwrap();
    assert_eq!(fast_maps, expected_fast);
    assert!(
        !slow.is_finished(),
        "the slow request must still be in flight when the fast response lands"
    );

    release(&gate);
    assert_eq!(slow.join().unwrap(), expected_slow);

    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 1, "one multiplexed connection");
    assert_eq!(stats.requests_served, 2);
    assert_eq!(stats.errors_sent, 0);
}

#[test]
fn an_overloaded_rejection_fails_only_its_own_request() {
    // Regression: RemoteDefense used to treat any Error frame as fatal to
    // the connection. On a multiplexed connection a typed Overloaded
    // rejection is per-request — the other in-flight request must complete
    // untouched and the connection must stay usable afterwards.
    let inner: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 221).unwrap());
    let (gated, gate) = GatedDefense::gating_batches_of_at_least(Arc::clone(&inner), 2);
    let server = DefenseServer::bind(
        gated,
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                max_connection_inflight_requests: 1,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let remote = Arc::new(RemoteDefense::connect(Arc::clone(&inner), server.local_addr()).unwrap());

    let slow_features = inner.client_features(&random_images(2, 222)).unwrap();
    let fast_features = inner.client_features(&random_images(1, 223)).unwrap();
    let expected_slow = inner.server_outputs(&slow_features).unwrap();

    // The slow request occupies the connection's whole in-flight budget.
    let slow_remote = Arc::clone(&remote);
    let slow_input = slow_features.clone();
    let slow = std::thread::spawn(move || slow_remote.server_outputs(&slow_input).unwrap());
    wait_entered(&gate, 1);

    // A second request on the same connection is shed with a typed
    // per-request Overloaded frame (via the inherent range call, which keeps
    // the typed ServeError instead of collapsing it to a transport string)...
    match remote
        .server_outputs_range(&fast_features, 0, inner.ensemble_size())
        .unwrap_err()
    {
        ServeError::Remote(wire) => {
            assert_eq!(wire.code, ErrorCode::Overloaded);
            assert!(wire.message.contains("per-connection"), "{}", wire.message);
        }
        other => panic!("expected a typed Overloaded rejection, got {other}"),
    }
    // ...while the slow request it shared the socket with is unharmed.
    assert!(
        !slow.is_finished(),
        "the rejection must not disturb the other in-flight request"
    );
    release(&gate);
    assert_eq!(slow.join().unwrap(), expected_slow);

    // The connection survived the rejection: the same request now succeeds
    // bit-identically (with a bounded retry while the permit drains).
    let mut attempts = 0;
    let maps = loop {
        match remote.server_outputs_range(&fast_features, 0, inner.ensemble_size()) {
            Ok(maps) => break maps,
            Err(ServeError::Remote(wire))
                if wire.code == ErrorCode::Overloaded && attempts < 100 =>
            {
                attempts += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(err) => panic!("unexpected error while retrying: {err}"),
        }
    };
    assert_eq!(maps, inner.server_outputs(&fast_features).unwrap());

    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.requests_served, 2);
    assert!(stats.requests_rejected >= 1);
    assert_eq!(stats.requests_rejected, stats.errors_sent);
}

#[test]
fn over_budget_requests_get_typed_overloaded_rejections() {
    use std::io::Write;

    // Budget: two single-sample requests' worth of bytes per connection, so
    // a batch of 4 must be rejected while singles sail through.
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 71).unwrap());
    let head = pipeline.config().head_output_shape();
    let sample_bytes = 4 * head.iter().product::<usize>() as u64;
    let server = DefenseServer::bind(
        Arc::clone(&pipeline),
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                max_connection_inflight_bytes: 2 * sample_bytes,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let (mut stream, _) = raw_handshake(&server, PROTOCOL_VERSION);

    // Over budget: a 4-sample batch (4 x sample_bytes > 2 x sample_bytes).
    let big = pipeline.client_features(&random_images(4, 72)).unwrap();
    let frame = encode_tagged(&Message::ServerOutputsRequest { transmitted: big }, Some(1));
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
    assert_eq!(answer.request_id, Some(1));
    match answer.message {
        Message::Error(wire) => {
            assert_eq!(wire.code, ErrorCode::Overloaded);
            assert!(wire.message.contains("per-connection"), "{}", wire.message);
        }
        other => panic!("expected a typed Overloaded error, got {other:?}"),
    }

    // The same connection stays open and an in-budget request on it returns
    // the bit-identical answer.
    let transmitted = pipeline.client_features(&random_images(1, 73)).unwrap();
    let expected = pipeline.server_outputs(&transmitted).unwrap();
    let frame = encode_tagged(&Message::ServerOutputsRequest { transmitted }, Some(2));
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
    assert_eq!(answer.request_id, Some(2));
    match answer.message {
        Message::ServerOutputsResponse { maps } => assert_eq!(maps, expected),
        other => panic!("expected a response, got {other:?}"),
    }

    // Bounded settle loop for scheduler noise before asserting the drain.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.stats().inflight_requests > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.requests_rejected, 1);
    assert_eq!(stats.requests_served, 1);
    assert_eq!(stats.errors_sent, 1);
    assert_eq!(stats.inflight_requests, 0);
    assert_eq!(stats.inflight_bytes, 0);
}

#[test]
fn a_saturated_server_rejects_new_work_instead_of_queueing_it() {
    // Server-wide budget of one in-flight request, occupied by a gated
    // request from connection A: connection B must get a typed rejection
    // (never a hang), and A's answer must still be bit-identical once the
    // gate opens.
    let inner: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 75).unwrap());
    let (gated, gate) = GatedDefense::new(Arc::clone(&inner));
    let server = DefenseServer::bind(
        gated,
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                max_inflight_requests: 1,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let images = random_images(2, 76);
    let expected = inner.predict(&images).unwrap();
    let remote_a = RemoteDefense::connect(Arc::clone(&inner), server.local_addr()).unwrap();
    let blocked = std::thread::spawn(move || remote_a.predict(&images).unwrap());
    wait_entered(&gate, 1);

    // The budget is saturated: B's request is rejected, typed, immediately.
    let remote_b = RemoteDefense::connect(Arc::clone(&inner), server.local_addr()).unwrap();
    let features = inner.client_features(&random_images(1, 77)).unwrap();
    let err = remote_b.server_outputs(&features).unwrap_err();
    assert!(
        err.to_string().contains("Overloaded") || err.to_string().contains("budget"),
        "expected an admission rejection, got {err}"
    );
    assert_eq!(server.stats().requests_rejected, 1);
    assert_eq!(server.stats().inflight_requests, 1);

    // Release the gate: A's long-held request completes bit-identically and
    // the budget frees up for B (with a brief, bounded retry for scheduler
    // noise — retrying is the client contract for Overloaded rejections
    // anyway).
    release(&gate);
    assert_eq!(blocked.join().unwrap(), expected);
    let mut attempts = 0;
    let maps = loop {
        match remote_b.server_outputs(&features) {
            Ok(maps) => break maps,
            Err(err) if err.to_string().contains("budget") && attempts < 100 => {
                attempts += 1;
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(err) => panic!("unexpected error while retrying: {err}"),
        }
    };
    assert_eq!(maps, inner.server_outputs(&features).unwrap());
    // Bounded settle loop for scheduler noise before asserting the drain.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.stats().inflight_requests > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.inflight_requests, 0);
    assert_eq!(stats.inflight_bytes, 0);
    assert_eq!(stats.requests_served, 2);
}

#[test]
fn graceful_shutdown_drains_in_flight_batches() {
    let inner: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 81).unwrap());
    let (gated, gate) = GatedDefense::new(Arc::clone(&inner));
    let server = DefenseServer::bind(gated, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A client's request is mid-flight (blocked on the gate) when shutdown
    // begins.
    let images = random_images(2, 82);
    let expected = inner.predict(&images).unwrap();
    let remote = RemoteDefense::connect(Arc::clone(&inner), addr).unwrap();
    let in_flight = std::thread::spawn(move || remote.predict(&images).unwrap());
    wait_entered(&gate, 1);

    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let done_flag = Arc::clone(&done);
    let shutdown = std::thread::spawn(move || {
        let stats = server.shutdown();
        done_flag.store(true, std::sync::atomic::Ordering::SeqCst);
        stats
    });

    // Shutdown must wait for the in-flight batch, not abandon it.
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert!(
        !done.load(std::sync::atomic::Ordering::SeqCst),
        "shutdown returned while a request was still in flight"
    );

    release(&gate);
    // The drained request delivers its complete, bit-identical response...
    assert_eq!(in_flight.join().unwrap(), expected);
    // ...and shutdown then completes with the final counters.
    let stats = shutdown.join().unwrap();
    assert_eq!(stats.requests_served, 1);
    assert_eq!(stats.inflight_requests, 0);
    // The listener is gone: no new connections.
    assert!(RemoteDefense::connect(Arc::clone(&inner), addr).is_err());
}

#[test]
fn shutdown_during_an_in_flight_handshake_yields_a_typed_error() {
    use std::io::Write;

    let (server, _pipeline) = demo_server(2, 1, 95);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Put the handshake in flight: send only half the hello frame, so the
    // server's reader has consumed every byte we sent and is blocked waiting
    // for the rest (an empty receive queue also guarantees the eventual
    // close is a FIN, not a reset).
    let hello = encode_message(&Message::Hello(Hello::legacy(PROTOCOL_VERSION)));
    stream.write_all(&hello[..hello.len() / 2]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Shut down while the hello is half-read. The cut-short handshake must
    // surface to the client as a *typed* retry-elsewhere error frame — not a
    // raw EOF or connection reset.
    let shutdown = std::thread::spawn(move || server.shutdown());
    match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
        Message::Error(wire) => {
            assert_eq!(wire.code, ErrorCode::Overloaded);
            assert!(wire.message.contains("draining"), "{}", wire.message);
        }
        other => panic!("expected a typed draining error, got {other:?}"),
    }
    let stats = shutdown.join().unwrap();
    assert_eq!(stats.requests_served, 0);
    assert_eq!(stats.errors_sent, 1);
}

#[test]
fn connections_over_the_limit_are_rejected_with_a_typed_error() {
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 91).unwrap());
    let server = DefenseServer::bind(
        Arc::clone(&pipeline),
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                max_connections: 1,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // The first connection occupies the only slot...
    let first = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();

    // ...so the second is refused with a typed Overloaded frame before it
    // ever gets a reader thread.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
        Message::Error(wire) => {
            assert_eq!(wire.code, ErrorCode::Overloaded);
            assert!(
                wire.message.contains("connection limit"),
                "{}",
                wire.message
            );
        }
        other => panic!("expected a connection-limit rejection, got {other:?}"),
    }
    drop(stream);

    // The admitted connection is unaffected.
    let images = random_images(1, 92);
    assert_eq!(
        first.predict(&images).unwrap(),
        pipeline.predict(&images).unwrap()
    );

    // Once the slot frees up, new connections are admitted again.
    drop(first);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let second = loop {
        match RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()) {
            Ok(remote) => break remote,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(err) => panic!("slot never freed: {err}"),
        }
    };
    let images = random_images(1, 93);
    assert_eq!(
        second.predict(&images).unwrap(),
        pipeline.predict(&images).unwrap()
    );
}

// ---------------------------------------------------------------------------
// The one connection loop: every request carries an id
// ---------------------------------------------------------------------------

#[test]
fn an_untagged_request_on_a_v5_connection_is_a_malformed_frame_that_spares_requests_in_flight() {
    use std::io::Write;

    // A request without an id is no longer part of the protocol: it is a
    // connection-level error, reported untagged, and the connection closes —
    // but only after the request already in flight on it got its answer.
    let inner: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 241).unwrap());
    // Only batch >= 2 calls block on the gate: the tagged slow request is a
    // 2-sample batch, the untagged one a single sample.
    let (gated, gate) = GatedDefense::gating_batches_of_at_least(Arc::clone(&inner), 2);
    let server = DefenseServer::bind(gated, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (mut stream, version) = raw_handshake(&server, PROTOCOL_VERSION);
    assert_eq!(version, PROTOCOL_VERSION);

    let slow_features = inner.client_features(&random_images(2, 242)).unwrap();
    let fast_features = inner.client_features(&random_images(1, 243)).unwrap();
    let slow_response = Message::ServerOutputsResponse {
        maps: inner.server_outputs(&slow_features).unwrap(),
    };
    let slow_request = Message::ServerOutputsRequest {
        transmitted: slow_features,
    };
    let fast_request = Message::ServerOutputsRequest {
        transmitted: fast_features,
    };

    // Tagged request 41 is provably in flight (inside the gate)...
    stream
        .write_all(&encode_tagged(&slow_request, Some(41)))
        .unwrap();
    wait_entered(&gate, 1);

    // ...when the untagged request arrives and is refused, untagged.
    stream.write_all(&untagged_frame(&fast_request)).unwrap();
    let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
    assert_eq!(answer.request_id, None, "a connection-level report");
    match answer.message {
        Message::Error(wire) => {
            assert_eq!(wire.code, ErrorCode::MalformedFrame);
            assert!(wire.message.contains("request id"), "{}", wire.message);
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }
    assert_eq!(
        server.stats().inflight_requests,
        1,
        "request 41 is still in flight behind the refusal"
    );

    // The reader is gone, the writer is not: 41's answer is still delivered,
    // bit-exactly, and only then does the server hang up.
    release(&gate);
    let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
    assert_eq!(answer.request_id, Some(41));
    assert_eq!(answer.message, slow_response);
    assert_hung_up(&mut stream);

    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.requests_served, 1);
    assert_eq!(stats.errors_sent, 1);
}

#[test]
fn hostile_request_shapes_get_tagged_typed_errors_and_never_reach_an_engine() {
    use std::io::Write;

    // Beside the hostile-*bytes* sweep of `mux_fuzz`: frames that decode
    // cleanly and ask for something the served model cannot do. Each is
    // answered with a typed error carrying its own id, none is enqueued, and
    // the connection keeps serving.
    const N: usize = 3;
    let (server, pipeline) = demo_server(N, 2, 261);
    let (mut stream, _) = raw_handshake(&server, PROTOCOL_VERSION);
    let head = pipeline.config().head_output_shape();
    // A single sample: had a request below been enqueued, the coalescing
    // engine's counters would show it.
    let honest = pipeline.client_features(&random_images(1, 262)).unwrap();

    let mut hostile: Vec<(String, ServerRequest)> = Vec::new();
    let ranges = [
        ("lo > hi", 2, 1),
        ("lo == hi", 1, 1),
        ("hi == N + 1", 0, N + 1),
        ("hi == u32::MAX", 0, u32::MAX as usize),
    ];
    for (name, lo, hi) in ranges {
        let f32 = Features::F32(honest.clone());
        let int8 = Features::Int8(QTensorBatch::quantize_batch(&honest));
        hostile.push((format!("Range {name}"), ServerRequest::ranged(lo..hi, f32)));
        hostile.push((
            format!("RangeQ {name}"),
            ServerRequest::ranged(lo..hi, int8),
        ));
    }
    let shapes = [
        ("rank 2", vec![4, 4]),
        ("rank 3", head.to_vec()),
        ("rank 5", vec![1, 1, head[0], head[1], head[2]]),
        ("wrong channels", vec![1, head[0] + 1, head[1], head[2]]),
        ("batch 0", vec![0, head[0], head[1], head[2]]),
    ];
    for (name, shape) in shapes {
        let full = ServerRequest::full(Features::F32(Tensor::ones(&shape)));
        hostile.push((format!("full request of {name}"), full));
    }

    for (k, (name, request)) in hostile.into_iter().enumerate() {
        let id = 1000 + k as u64;
        stream
            .write_all(&encode_tagged(&Message::from(request), Some(id)))
            .unwrap();
        let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
        assert_eq!(answer.request_id, Some(id), "{name}");
        match answer.message {
            Message::Error(wire) => assert_eq!(wire.code, ErrorCode::Inference, "{name}"),
            other => panic!("{name}: expected a typed error frame, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.errors_sent, k as u64 + 1, "{name}");
        assert_eq!(stats.requests_served, 0, "{name}");
        assert_eq!(server.engine_stats().requests_served, 0, "{name}");
    }

    // An honest request on the SAME connection: reader and writer are both
    // alive, and the answer is bit-identical.
    let expected = pipeline.server_outputs(&honest).unwrap();
    let request = Message::ServerOutputsRequest {
        transmitted: honest,
    };
    stream.write_all(&encode_tagged(&request, Some(7))).unwrap();
    let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
    assert_eq!(answer.request_id, Some(7));
    assert_eq!(
        answer.message,
        Message::ServerOutputsResponse { maps: expected }
    );
    assert_eq!(server.engine_stats().requests_served, 1);
    drop(stream);
    let stats = server.shutdown();
    assert_eq!((stats.requests_served, stats.inflight_requests), (1, 0));
}

/// A test-only defense that answers every pre-batched request with maps far
/// larger than any socket buffer (and no computation), so a client that does
/// not read them provably stalls its connection's writer; single samples
/// pass through to the real pipeline.
#[derive(Debug)]
struct InflatingDefense {
    inner: Arc<dyn Defense>,
}

/// Elements per sample of an inflated map: 1 MiB of `f32`s.
const INFLATED_FEATURES: usize = 1 << 18;

impl Defense for InflatingDefense {
    fn config(&self) -> &ensembler_nn::models::ResNetConfig {
        self.inner.config()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn server_bodies(&self) -> &[ensembler_nn::Sequential] {
        self.inner.server_bodies()
    }

    fn selected_count(&self) -> usize {
        self.inner.selected_count()
    }

    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.inner.client_features(images)
    }

    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        match request.features.shape()[0] {
            1 => self.inner.serve(request),
            batch => Ok(Maps::F32(vec![
                Tensor::zeros(&[batch, INFLATED_FEATURES]);
                self.inner.ensemble_size()
            ])),
        }
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.inner.classify(server_maps)
    }
}

#[test]
fn a_peer_that_stops_reading_stalls_only_its_own_writer() {
    use std::io::Write;

    // One client pipelines pre-batched requests and never reads an answer:
    // 32 MiB of responses against a few MiB of socket buffer, so its
    // connection's writer blocks. Nothing else may — the engine threads only
    // ever hand results to a channel — so a second client's requests keep
    // completing meanwhile.
    const STALLED_REQUESTS: u64 = 16;
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(1, 1, 251).unwrap());
    let inflating = Arc::new(InflatingDefense {
        inner: Arc::clone(&pipeline),
    });
    let server = DefenseServer::bind(
        inflating,
        "127.0.0.1:0",
        ServerConfig {
            admission: AdmissionConfig {
                max_connection_inflight_requests: STALLED_REQUESTS,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let (mut stalled, version) = raw_handshake(&server, PROTOCOL_VERSION);
    assert_eq!(version, PROTOCOL_VERSION);
    let pair = pipeline.client_features(&random_images(2, 252)).unwrap();
    let request = Message::ServerOutputsRequest {
        transmitted: pair.clone(),
    };
    for id in 0..STALLED_REQUESTS {
        stalled
            .write_all(&encode_tagged(&request, Some(id)))
            .unwrap();
    }

    // The healthy client's single samples are served, bit-identically ...
    let healthy = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).unwrap();
    for seed in 0..20 {
        let images = random_images(1, 253 + seed);
        assert_eq!(
            healthy.predict(&images).unwrap(),
            pipeline.predict(&images).unwrap()
        );
    }
    // ... and so is its own pre-batched request, which the engine evaluates
    // in arrival order behind every one of the stalled client's.
    let maps = healthy
        .exchange(ServerRequest::full(Features::F32(pair)))
        .unwrap()
        .into_f32()
        .unwrap();
    assert_eq!(maps[0].shape(), &[2, INFLATED_FEATURES]);
    // So those are all computed by now — and not all answered, because
    // their writer is stuck on the socket: the answers it has not reached
    // still hold their permits.
    let stats = server.stats();
    assert!(
        stats.inflight_requests > 0,
        "the responses fit the socket buffers; the writer never stalled: {stats:?}"
    );
    assert!(stats.requests_served >= 21);

    // Hanging up frees the writer (its write fails) and the connection
    // drains; shutdown is not held hostage.
    drop(stalled);
    drop(healthy);
    let stats = server.shutdown();
    assert_eq!(stats.inflight_requests, 0);
    assert_eq!(stats.inflight_bytes, 0);
}
