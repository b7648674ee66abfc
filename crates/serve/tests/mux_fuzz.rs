//! Adversarial coverage for the multiplexing surfaces: the
//! tagged decoder against random request-id interleavings, duplicate ids,
//! truncated and bit-flipped frames, and outright garbage — every malformed
//! input must come back as a typed [`ServeError`], never a panic — plus the
//! client-side [`CompletionSlots`] demultiplexer against the misuse the wire
//! can inflict on it (duplicate registrations, responses for ids nobody is
//! waiting on, registration after a connection failure).
//!
//! The second half is the hostile-bytes sweep: *restamped* frames (valid
//! magic, version, length and CRC, so only the payload parser stands between
//! the bytes and the caller) of all four request and both response types
//! whose tensor headers declare absurd ranks, extents and counts — and one
//! scripted server that answers a real `RemoteDefense` with such a frame,
//! because in the paper's threat model the adversary *is* the server.

use ensembler::{Defense, Maps};
use ensembler_serve::protocol::{
    crc32, decode_tagged, encode_tagged, read_message, read_tagged, write_message, write_tagged,
    ErrorCode, HelloAck, Message, MessageType, TaggedMessage, WireError, DEFAULT_MAX_PAYLOAD_BYTES,
    FRAME_MAGIC, PROTOCOL_VERSION,
};
use ensembler_serve::{demo_pipeline, CompletionSlots, RemoteDefense, ServeError};
use ensembler_tensor::{QTensorBatch, Rng, Tensor};
use std::net::TcpListener;
use std::sync::Arc;

/// A small pool of non-handshake messages the fuzzers tag and interleave.
fn taggable_messages() -> Vec<Message> {
    vec![
        Message::ServerOutputsRequest {
            transmitted: Tensor::from_fn(&[1, 2, 3, 3], |i| (i as f32 * 0.3).cos()),
        },
        Message::ServerOutputsResponse {
            maps: (0..2)
                .map(|k| Tensor::from_fn(&[1, 4], |i| (i + k) as f32))
                .collect(),
        },
        Message::ServerOutputsRequestRange {
            lo: 1,
            hi: 3,
            transmitted: Tensor::from_fn(&[2, 2, 3, 3], |i| i as f32 * 0.5 - 1.0),
        },
        Message::Error(WireError {
            code: ErrorCode::Overloaded,
            message: "per-connection budget exhausted".to_string(),
        }),
    ]
}

#[test]
fn random_request_id_interleavings_round_trip_through_one_stream() {
    let mut rng = Rng::seed_from(0x5EED);
    let pool = taggable_messages();
    for _ in 0..20 {
        // Build a stream of 1..=12 tagged frames with arbitrary (including
        // duplicate) request ids in arbitrary order, then read it back frame
        // by frame: every id and message must round-trip exactly. Duplicate
        // ids are legal on the wire — rejecting them is the demultiplexer's
        // job, not the framing layer's.
        let count = 1 + rng.below(12);
        let mut expected = Vec::with_capacity(count);
        let mut stream = Vec::new();
        for _ in 0..count {
            let message = pool[rng.below(pool.len())].clone();
            let request_id = match rng.below(4) {
                // Only an `Error` exists without an id (a connection-level one).
                0 if matches!(message, Message::Error(_)) => None,
                1 => Some(rng.next_u64() % 3), // force duplicates
                _ => Some(rng.next_u64()),
            };
            stream.extend_from_slice(&encode_tagged(&message, request_id));
            expected.push(TaggedMessage {
                message,
                request_id,
            });
        }
        let mut reader = stream.as_slice();
        for want in &expected {
            let got = read_tagged(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES)
                .expect("well-formed tagged frame");
            assert_eq!(&got, want);
        }
        assert!(reader.is_empty(), "stream fully consumed");
    }
}

#[test]
fn truncated_tagged_frames_are_typed_errors() {
    for message in taggable_messages() {
        let frame = encode_tagged(&message, Some(0xDEAD_BEEF_CAFE_F00D));
        for len in 0..frame.len() {
            let result = decode_tagged(&frame[..len]);
            assert!(
                result.is_err(),
                "prefix of {len}/{} bytes must not decode",
                frame.len()
            );
        }
        // And the streaming reader must report the truncation as I/O EOF.
        for len in [0, 5, frame.len() / 2, frame.len() - 1] {
            let mut reader = &frame[..len];
            match read_tagged(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES) {
                Err(ServeError::Io(error)) => {
                    assert_eq!(error.kind(), std::io::ErrorKind::UnexpectedEof);
                }
                Err(_) => {} // typed frame error is equally acceptable
                Ok(_) => panic!("truncated stream of {len} bytes must not decode"),
            }
        }
    }
}

#[test]
fn bit_flipped_tagged_frames_never_panic_and_never_misroute() {
    let mut rng = Rng::seed_from(0xF1A5);
    let pool = taggable_messages();
    for round in 0..200 {
        let message = &pool[round % pool.len()];
        let id = rng.next_u64();
        let mut frame = encode_tagged(message, Some(id));
        // Flip one random bit anywhere in the frame.
        let byte = rng.below(frame.len());
        let bit = rng.below(8);
        frame[byte] ^= 1 << bit;
        match decode_tagged(&frame) {
            // A flip the CRC cannot see (inside the checksum trailer itself
            // never collides with a valid frame; flips elsewhere are caught
            // by magic/version/type/length checks or the CRC).
            Ok(decoded) => {
                // The only legal survival is full equality — the flip undone
                // by a second error is impossible with a single flip, so a
                // surviving decode would mean the decoder ignored the bytes.
                assert_eq!(decoded.message, *message);
                assert_eq!(decoded.request_id, Some(id));
                panic!("a single flipped bit must never yield a valid frame");
            }
            Err(
                ServeError::Frame(_)
                | ServeError::Checksum { .. }
                | ServeError::UnsupportedVersion { .. },
            ) => {}
            Err(other) => panic!("unexpected error class for a corrupt frame: {other:?}"),
        }
    }
}

#[test]
fn random_garbage_is_rejected_without_panicking() {
    let mut rng = Rng::seed_from(0x6A5B);
    for _ in 0..500 {
        let len = rng.below(64);
        let garbage: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        assert!(
            decode_tagged(&garbage).is_err(),
            "random bytes must not decode as a frame"
        );
        let mut reader = garbage.as_slice();
        assert!(read_tagged(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES).is_err());
    }
}

#[test]
fn hostile_version_stamps_are_typed_errors() {
    let message = Message::Error(WireError {
        code: ErrorCode::Inference,
        message: "x".to_string(),
    });
    let good = encode_tagged(&message, Some(7));
    for version in [0u16, PROTOCOL_VERSION + 1, u16::MAX] {
        let mut frame = good.clone();
        frame[4..6].copy_from_slice(&version.to_be_bytes());
        match decode_tagged(&frame) {
            Err(ServeError::UnsupportedVersion { offered, supported }) => {
                assert_eq!(offered, version);
                assert_eq!(supported, PROTOCOL_VERSION);
            }
            other => panic!("version {version} must be UnsupportedVersion, got {other:?}"),
        }
    }
    // A frame stamped below PROTOCOL_VERSION has no id word, so the same
    // bytes reparse as payload and the CRC catches the mismatch.
    let mut downgraded = good;
    downgraded[4..6].copy_from_slice(&(PROTOCOL_VERSION - 1).to_be_bytes());
    assert!(decode_tagged(&downgraded).is_err());
}

#[test]
fn completion_slots_reject_duplicate_ids() {
    let slots = CompletionSlots::new();
    let _receiver = slots.register(42).expect("first registration");
    match slots.register(42) {
        Err(ServeError::Protocol(reason)) => assert!(reason.contains("already in flight")),
        other => panic!("duplicate id must be a typed protocol error, got {other:?}"),
    }
    assert_eq!(slots.in_flight(), 1, "failed registration leaves no slot");
}

#[test]
fn completion_slots_reject_responses_for_unknown_ids() {
    let slots = CompletionSlots::new();
    let receiver = slots.register(1).expect("register");
    match slots.complete(
        99,
        Ok(Message::Error(WireError {
            code: ErrorCode::Inference,
            message: "stray".to_string(),
        })),
    ) {
        Err(ServeError::Protocol(reason)) => assert!(reason.contains("unknown request id")),
        other => panic!("unknown id must be a typed protocol error, got {other:?}"),
    }
    // The in-flight request is untouched by the stray response.
    assert_eq!(slots.in_flight(), 1);
    drop(receiver);
}

#[test]
fn completion_slots_fail_all_poisons_later_registrations() {
    let slots = CompletionSlots::new();
    let receiver = slots.register(5).expect("register");
    slots.fail_all("connection lost: simulated");
    // The waiter gets the typed failure...
    match receiver.recv().expect("failure delivered") {
        Err(ServeError::Protocol(reason)) => assert!(reason.contains("simulated")),
        other => panic!("waiter must see the typed failure, got {other:?}"),
    }
    // ...and new registrations are refused, not silently queued forever.
    match slots.register(6) {
        Err(ServeError::Protocol(reason)) => {
            assert!(
                reason.contains("failed") && reason.contains("simulated"),
                "{reason}"
            );
        }
        other => panic!("register after failure must error, got {other:?}"),
    }
    assert_eq!(slots.in_flight(), 0);
}

#[test]
fn untagged_server_error_frames_keep_their_typed_code() {
    // An untagged Error frame (e.g. a server draining mid-handshake) must
    // surface to every waiter — and every later registration — as a typed
    // `ServeError::Remote` with the server's code intact, so a client can
    // match `Overloaded` and retry against another replica.
    let slots = CompletionSlots::new();
    let receiver = slots.register(1).expect("register");
    slots.fail_all_remote(WireError {
        code: ErrorCode::Overloaded,
        message: "server is draining for shutdown; retry against another replica".to_string(),
    });
    for result in [
        receiver.recv().expect("failure delivered"),
        slots
            .register(2)
            .map(|_| unreachable!("registration after failure must error")),
    ] {
        match result {
            Err(ServeError::Remote(wire)) => {
                assert_eq!(wire.code, ErrorCode::Overloaded);
                assert!(wire.message.contains("draining"), "{}", wire.message);
            }
            other => panic!("expected the typed Overloaded report, got {other:?}"),
        }
    }
}

#[test]
fn fuzzed_slot_traffic_never_drops_or_misroutes_a_completion() {
    let mut rng = Rng::seed_from(0xB0A7);
    for _ in 0..50 {
        let slots = CompletionSlots::new();
        let count = 1 + rng.below(16);
        let mut receivers = Vec::new();
        for id in 0..count as u64 {
            receivers.push((id, slots.register(id).expect("register")));
        }
        // Complete in a random order, interleaved with stray unknown ids.
        let mut order: Vec<u64> = (0..count as u64).collect();
        rng.shuffle(&mut order);
        for &id in &order {
            if rng.below(3) == 0 {
                let stray = count as u64 + rng.next_u64() % 7;
                assert!(slots.complete(stray, Ok(error_message(stray))).is_err());
            }
            slots
                .complete(id, Ok(error_message(id)))
                .expect("known id completes");
        }
        assert_eq!(slots.in_flight(), 0);
        // Every waiter got exactly the message carrying its own id.
        for (id, receiver) in receivers {
            let message = receiver
                .recv()
                .expect("completion delivered")
                .expect("Ok result");
            assert_eq!(message, error_message(id));
        }
    }
}

/// A distinguishable per-id message so misrouting is detectable.
fn error_message(id: u64) -> Message {
    Message::Error(WireError {
        code: ErrorCode::Inference,
        message: format!("marker-{id}"),
    })
}

/// One `ServerOutputs*` frame type, described by what its payload holds.
#[derive(Debug, Clone, Copy)]
struct Kind {
    message_type: MessageType,
    /// The payload opens with `lo`, `hi`.
    ranged: bool,
    /// The payload is a counted list of length-prefixed blobs, not one blob.
    listed: bool,
    int8: bool,
}

const KINDS: [Kind; 6] = {
    const fn kind(message_type: MessageType, ranged: bool, listed: bool, int8: bool) -> Kind {
        Kind {
            message_type,
            ranged,
            listed,
            int8,
        }
    }
    [
        kind(MessageType::ServerOutputsRequest, false, false, false),
        kind(MessageType::ServerOutputsRequestQ, false, false, true),
        kind(MessageType::ServerOutputsRequestRange, true, false, false),
        kind(MessageType::ServerOutputsRequestRangeQ, true, false, true),
        kind(MessageType::ServerOutputsResponse, false, true, false),
        kind(MessageType::ServerOutputsResponseQ, false, true, true),
    ]
};

/// A tensor blob written by hand: magic word, rank, dims, then `body`.
fn blob(int8: bool, rank: u32, dims: &[u32], body: &[u8]) -> Vec<u8> {
    let magic: u32 = if int8 { 0x454E_5351 } else { 0x454E_5342 };
    let mut bytes = magic.to_be_bytes().to_vec();
    bytes.extend_from_slice(&rank.to_be_bytes());
    for dim in dims {
        bytes.extend_from_slice(&dim.to_be_bytes());
    }
    bytes.extend_from_slice(body);
    bytes
}

/// The payload of a `kind` frame declaring `count` blobs (ignored by the
/// single-blob request kinds) and carrying `blobs`, each behind a length
/// prefix `len_skew` bytes off the truth.
fn payload(kind: Kind, count: u32, blobs: &[Vec<u8>], len_skew: i64) -> Vec<u8> {
    let mut bytes = Vec::new();
    if kind.ranged {
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
    }
    if kind.listed {
        bytes.extend_from_slice(&count.to_be_bytes());
    }
    for blob in blobs {
        if kind.listed {
            let declared = (blob.len() as i64 + len_skew) as u32;
            bytes.extend_from_slice(&declared.to_be_bytes());
        }
        bytes.extend_from_slice(blob);
    }
    bytes
}

/// A complete frame around `payload` with a truthful header and CRC.
fn stamped_frame(message_type: MessageType, request_id: Option<u64>, payload: &[u8]) -> Vec<u8> {
    // Without an id: the newest stamp that has none, as a v4 peer sent it.
    let version = match request_id {
        Some(_) => PROTOCOL_VERSION,
        None => PROTOCOL_VERSION - 1,
    };
    let mut frame = FRAME_MAGIC.to_be_bytes().to_vec();
    frame.extend_from_slice(&version.to_be_bytes());
    frame.push(message_type as u8);
    frame.push(0);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    if let Some(id) = request_id {
        frame.extend_from_slice(&id.to_be_bytes());
    }
    frame.extend_from_slice(payload);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_be_bytes());
    frame
}

/// Tensor headers no honest peer writes. `scaled` cases carry the one
/// per-sample scale an int8 body with a batch extent of 1 needs, so the
/// header — not a missing scale — is what the decoder has to refuse.
fn hostile_blobs(int8: bool) -> Vec<(&'static str, Vec<u8>)> {
    const MAX: u32 = u32::MAX;
    let one = 1.0f32.to_le_bytes();
    let scale: &[u8] = if int8 { &one } else { &[] };
    let one_element: Vec<u8> = if int8 {
        [&one[..], &[1u8]].concat()
    } else {
        one.to_vec()
    };
    vec![
        ("rank 0 and no data", blob(int8, 0, &[], &[])),
        (
            "rank 9 around one honest element",
            blob(int8, 9, &[1; 9], &one_element),
        ),
        ("rank u32::MAX", blob(int8, MAX, &[], &[])),
        (
            "dims whose product overflows usize",
            blob(int8, 5, &[1, 1 << 16, 1 << 16, 1 << 16, 1 << 16], scale),
        ),
        (
            "the issue's example: [65536; 4] and no data",
            blob(int8, 4, &[1 << 16; 4], &[]),
        ),
        (
            "dims whose product times four overflows",
            blob(int8, 3, &[1, 1 << 31, 1 << 31], scale),
        ),
        (
            "a leading zero dim beside absurd ones",
            blob(int8, 4, &[0, MAX, MAX, MAX], &[]),
        ),
        (
            "a trailing zero dim beside absurd ones",
            blob(int8, 5, &[1, MAX, MAX, MAX, 0], scale),
        ),
        ("an absurd batch extent", blob(int8, 2, &[MAX, 1], &[])),
    ]
}

#[test]
fn restamped_hostile_tensor_headers_are_frame_errors_in_every_frame_type() {
    for kind in KINDS {
        // Control: the hand-built framing is the codec's own, byte for byte,
        // so a rejection below is about the header under test and nothing else.
        let honest = {
            let tensor = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32 - 3.0);
            let body: Vec<u8> = if kind.int8 {
                let q = QTensorBatch::quantize_batch(&tensor);
                let data = q.data().iter().map(|&v| v as u8);
                q.scales()[0]
                    .to_le_bytes()
                    .into_iter()
                    .chain(data)
                    .collect()
            } else {
                tensor.data().iter().flat_map(|v| v.to_le_bytes()).collect()
            };
            blob(kind.int8, 4, &[1, 2, 2, 2], &body)
        };
        for request_id in [None, Some(0xFEED_u64)] {
            let frame = stamped_frame(
                kind.message_type,
                request_id,
                &payload(kind, 1, std::slice::from_ref(&honest), 0),
            );
            match request_id {
                Some(_) => {
                    let decoded = decode_tagged(&frame).expect("the honest control frame decodes");
                    assert_eq!(decoded.message.message_type(), kind.message_type);
                    assert_eq!(encode_tagged(&decoded.message, request_id), frame);
                }
                // A tensor frame without an id is no longer part of the
                // protocol, however honest its payload.
                None => assert!(matches!(decode_tagged(&frame), Err(ServeError::Frame(_)))),
            }

            let mut cases: Vec<(&str, Vec<u8>)> = hostile_blobs(kind.int8)
                .into_iter()
                .map(|(name, blob)| (name, payload(kind, 1, &[blob], 0)))
                .collect();
            if kind.listed {
                let honest = std::slice::from_ref(&honest);
                cases.extend([
                    ("a map count of u32::MAX", payload(kind, u32::MAX, &[], 0)),
                    (
                        "a map count of 2^24 over one map",
                        payload(kind, 1 << 24, honest, 0),
                    ),
                    ("a blob length one byte long", payload(kind, 1, honest, 1)),
                    ("a blob length one byte short", payload(kind, 1, honest, -1)),
                    (
                        "a blob length of u32::MAX",
                        payload(kind, 1, honest, -(honest[0].len() as i64) - 1),
                    ),
                ]);
            }
            for (name, payload) in cases {
                let frame = stamped_frame(kind.message_type, request_id, &payload);
                match decode_tagged(&frame) {
                    Err(ServeError::Frame(_)) => {}
                    other => panic!(
                        "{:?} (id {request_id:?}) with {name} must be a Frame error, got {other:?}",
                        kind.message_type
                    ),
                }
            }
        }
    }
}

#[test]
fn restamped_bit_flips_never_panic_and_reencode_canonically() {
    let transmitted = Tensor::from_fn(&[2, 2, 3, 3], |i| (i as f32 * 0.7).sin());
    let maps: Vec<Tensor> = (0..2)
        .map(|k| Tensor::from_fn(&[2, 4], |i| (i + k) as f32 - 2.0))
        .collect();
    // Every tensor-carrying frame type. (Error frames are left out: unknown
    // error codes decode to `Internal` on purpose, so they are not canonical.)
    let quantized = QTensorBatch::quantize_batch(&transmitted);
    let pool = [
        Message::ServerOutputsRequest {
            transmitted: transmitted.clone(),
        },
        Message::ServerOutputsRequestQ {
            transmitted: quantized.clone(),
        },
        Message::ServerOutputsRequestRange {
            lo: 1,
            hi: 3,
            transmitted,
        },
        Message::ServerOutputsRequestRangeQ {
            lo: 0,
            hi: 2,
            transmitted: quantized,
        },
        Message::ServerOutputsResponseQ {
            maps: maps.iter().map(QTensorBatch::quantize_batch).collect(),
        },
        Message::ServerOutputsResponse { maps },
    ];
    let mut rng = Rng::seed_from(0x5EED_F11D);
    let mut accepted = 0;
    for round in 0..1200 {
        let id = rng.next_u64();
        let mut frame = encode_tagged(&pool[round % pool.len()], Some(id));
        // Flip up to 3 bits ahead of the trailer, then forge the trailer so
        // the parser itself (not the CRC) has to survive the damage.
        let crc_offset = frame.len() - 4;
        for _ in 0..1 + rng.below(3) {
            let byte = rng.below(crc_offset);
            frame[byte] ^= 1 << rng.below(8);
        }
        let crc = crc32(&frame[..crc_offset]);
        frame[crc_offset..].copy_from_slice(&crc.to_be_bytes());
        match decode_tagged(&frame) {
            // Some flips give a different but well-formed frame (a changed
            // value bit, a changed id). Decoding must then be exact: the
            // canonical re-encoding reproduces the corrupted bytes, proving
            // nothing was dropped, invented or misparsed along the way.
            Ok(decoded) => {
                assert_eq!(encode_tagged(&decoded.message, decoded.request_id), frame);
                accepted += 1;
            }
            Err(ServeError::Frame(_) | ServeError::UnsupportedVersion { .. }) => {}
            Err(other) => panic!("restamped flip gave unexpected error {other:?}"),
        }
    }
    assert!(
        accepted > 100,
        "the sweep must reach the tensor decoders: {accepted}"
    );
}

/// What the scripted server does with one connection.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// An honest handshake, then a response whose maps overflow.
    HostileMaps,
    /// An ack pinning this version, then silence.
    Ack(u16),
    Honest,
}

/// The versions a broken or hostile server might pin: none at all, the
/// newest one this client no longer has a transport for, and two it never had.
const HOSTILE_ACKS: [u16; 4] = [0, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1, u16::MAX];

#[test]
fn a_hostile_server_costs_the_client_one_typed_error() {
    // The paper's adversary: a server that completes the handshake honestly
    // and then answers a real request with a well-framed, correctly CRC'd
    // response whose every map declares [65536; 4] elements over no data —
    // or that acks the handshake at a version the client did not offer.
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 23).expect("demo pipeline"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let served = Arc::clone(&pipeline);
    let server = std::thread::spawn(move || {
        let scripts = std::iter::once(Script::HostileMaps)
            .chain(HOSTILE_ACKS.map(Script::Ack))
            .chain([Script::Honest]);
        for script in scripts {
            let (mut stream, _) = listener.accept().expect("accept");
            let hello = match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES) {
                Ok(Message::Hello(hello)) => hello,
                other => panic!("expected a Hello, got {other:?}"),
            };
            let ack = Message::HelloAck(HelloAck {
                version: match script {
                    Script::Ack(version) => version,
                    _ => hello.max_version.min(PROTOCOL_VERSION),
                },
                label: served.label().to_string(),
                ensemble_size: served.ensemble_size() as u32,
                selected_count: served.selected_count() as u32,
                model: None,
            });
            write_message(&mut stream, &ack).expect("ack");
            if let Script::Ack(_) = script {
                // The client must hang up without sending a request.
                let next = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES);
                assert!(
                    matches!(next, Err(ServeError::Io(_))),
                    "{script:?}: {next:?}"
                );
                continue;
            }
            let request = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).expect("request");
            let Message::ServerOutputsRequest { transmitted } = request.message else {
                panic!("expected an f32 request, got {:?}", request.message);
            };
            if let Script::HostileMaps = script {
                let overflowing = blob(false, 4, &[1 << 16; 4], &[]);
                let kind = KINDS[4];
                let count = served.ensemble_size();
                let frame = stamped_frame(
                    kind.message_type,
                    request.request_id,
                    &payload(kind, count as u32, &vec![overflowing; count], 0),
                );
                std::io::Write::write_all(&mut stream, &frame).expect("hostile response");
            } else {
                let maps = served.server_outputs(&transmitted).expect("server outputs");
                write_tagged(&mut stream, &Maps::F32(maps).into(), request.request_id)
                    .expect("honest response");
            }
            // Hold the socket until the client hangs up, so the response is
            // never lost to a reset.
            let _ = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES);
        }
    });

    let images = Tensor::from_fn(&[1, 3, 16, 16], |i| (i as f32 * 0.01).cos());
    let transmitted = pipeline.client_features(&images).expect("client features");

    let victim = RemoteDefense::connect(Arc::clone(&pipeline), addr).expect("handshake");
    let error = victim
        .server_outputs(&transmitted)
        .expect_err("an overflowing response must not come back as maps");
    let text = error.to_string();
    assert!(text.contains("malformed frame"), "{text}");
    drop(victim);

    // An ack of anything but the version offered is refused, typed, before a
    // single request is sent — never run at whatever the server named.
    for version in HOSTILE_ACKS {
        match RemoteDefense::connect(Arc::clone(&pipeline), addr) {
            Err(ServeError::UnsupportedVersion { offered, supported }) => {
                assert_eq!((offered, supported), (version, PROTOCOL_VERSION));
            }
            other => panic!("an ack of {version} must be UnsupportedVersion, got {other:?}"),
        }
    }

    // Nothing in the client process is left poisoned: a fresh connection works.
    let fresh = RemoteDefense::connect(Arc::clone(&pipeline), addr).expect("second handshake");
    assert_eq!(
        fresh.server_outputs(&transmitted).expect("honest exchange"),
        pipeline.server_outputs(&transmitted).expect("local")
    );
    drop(fresh);
    server.join().expect("scripted server");
}
