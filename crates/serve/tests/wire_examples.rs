//! Keeps `docs/WIRE_PROTOCOL.md` byte-exact: every `<!-- wire-example: … -->`
//! block in the document is decoded from its hex listing and compared against
//! the frame the real encoder produces for the same message, and every
//! example this test knows about must appear in the document. Editing either
//! side without the other fails this test.

use ensembler_serve::protocol::{encode_tagged, ErrorCode, Hello, HelloAck, Message, WireError};
use ensembler_tensor::{QTensorBatch, Tensor};
use std::collections::BTreeMap;

/// The example messages the document walks through, by marker name, each
/// with the request id of its extended header (`None` = untagged frame: the
/// handshake, or an error that concerns the whole connection).
fn documented_examples() -> BTreeMap<&'static str, (Message, Option<u64>)> {
    let mut examples: BTreeMap<&'static str, (Message, Option<u64>)> = BTreeMap::new();
    let mut insert = |name: &'static str, message: Message, request_id: Option<u64>| {
        examples.insert(name, (message, request_id));
    };
    insert(
        "error-overloaded",
        Message::Error(WireError {
            code: ErrorCode::Overloaded,
            message: "budget".to_string(),
        }),
        None,
    );
    insert(
        "error-unknown-model",
        Message::Error(WireError {
            code: ErrorCode::UnknownModel,
            message: "model \"beta\" is not served (serving: alpha)".to_string(),
        }),
        None,
    );
    insert(
        "error-unsupported-version",
        Message::Error(WireError {
            code: ErrorCode::UnsupportedVersion,
            message: "server speaks up to v1".to_string(),
        }),
        None,
    );
    // Requests and responses, tagged with request ids.
    insert(
        "server-outputs-request-v5",
        Message::ServerOutputsRequest {
            transmitted: Tensor::from_vec(vec![0.0, 0.5, -1.0, 2.0], &[1, 1, 2, 2]).unwrap(),
        },
        Some(1),
    );
    insert(
        "server-outputs-response-v5",
        Message::ServerOutputsResponse {
            maps: vec![
                Tensor::from_vec(vec![1.0, -0.5], &[1, 2]).unwrap(),
                Tensor::from_vec(vec![0.25, 4.0], &[1, 2]).unwrap(),
            ],
        },
        Some(1),
    );
    insert(
        "error-overloaded-v5",
        Message::Error(WireError {
            code: ErrorCode::Overloaded,
            message: "budget".to_string(),
        }),
        Some(2),
    );
    // The handshake (never tagged), and the quantized and sub-range frames
    // with their ids.
    insert("hello-v5", Message::Hello(Hello::legacy(5)), None);
    insert(
        "hello-v5-model",
        Message::Hello(Hello {
            max_version: 5,
            model: Some("alpha".to_string()),
        }),
        None,
    );
    let ack_v5 = |model: Option<&str>| {
        Message::HelloAck(HelloAck {
            version: 5,
            label: "Ensembler".to_string(),
            ensemble_size: 3,
            selected_count: 2,
            model: model.map(str::to_string),
        })
    };
    insert("hello-ack-v5", ack_v5(None), None);
    insert("hello-ack-v5-model", ack_v5(Some("alpha")), None);
    let quantized = QTensorBatch::quantize_batch(
        &Tensor::from_vec(vec![0.0, 0.5, -1.0, 2.0], &[1, 1, 2, 2]).unwrap(),
    );
    insert(
        "server-outputs-request-q-v5",
        Message::ServerOutputsRequestQ {
            transmitted: quantized.clone(),
        },
        Some(3),
    );
    insert(
        "server-outputs-response-q-v5",
        Message::ServerOutputsResponseQ {
            maps: vec![
                QTensorBatch::quantize_batch(&Tensor::from_vec(vec![1.0, -0.5], &[1, 2]).unwrap()),
                QTensorBatch::quantize_batch(&Tensor::from_vec(vec![0.25, 4.0], &[1, 2]).unwrap()),
            ],
        },
        Some(3),
    );
    insert(
        "server-outputs-request-range-v5",
        Message::ServerOutputsRequestRange {
            lo: 1,
            hi: 3,
            transmitted: Tensor::from_vec(vec![0.0, 0.5, -1.0, 2.0], &[1, 1, 2, 2]).unwrap(),
        },
        Some(4),
    );
    insert(
        "server-outputs-request-range-q-v5",
        Message::ServerOutputsRequestRangeQ {
            lo: 1,
            hi: 3,
            transmitted: quantized,
        },
        Some(5),
    );
    examples
}

/// Extracts `<!-- wire-example: name -->` hex listings from the document.
///
/// The convention: the marker comment is followed (within a few lines) by a
/// fenced code block whose lines contain hex byte pairs, optionally followed
/// by a `|`-separated commentary column.
fn parse_doc_examples(doc: &str) -> BTreeMap<String, Vec<u8>> {
    let mut examples = BTreeMap::new();
    let mut lines = doc.lines().peekable();
    while let Some(line) = lines.next() {
        let trimmed = line.trim();
        let Some(rest) = trimmed.strip_prefix("<!-- wire-example:") else {
            continue;
        };
        let name = rest
            .strip_suffix("-->")
            .map(|n| n.trim().to_string())
            .unwrap_or_else(|| panic!("unterminated wire-example marker: {trimmed}"));

        // Find the opening fence.
        let mut in_block = false;
        let mut bytes = Vec::new();
        for line in lines.by_ref() {
            let trimmed = line.trim();
            if trimmed.starts_with("```") {
                if in_block {
                    break;
                }
                in_block = true;
                continue;
            }
            if !in_block {
                assert!(
                    trimmed.is_empty(),
                    "wire-example {name}: expected a fenced code block, found {trimmed:?}"
                );
                continue;
            }
            let data = trimmed.split('|').next().unwrap_or("");
            for token in data.split_whitespace() {
                let byte = u8::from_str_radix(token, 16)
                    .unwrap_or_else(|_| panic!("wire-example {name}: {token:?} is not a hex byte"));
                bytes.push(byte);
            }
        }
        assert!(
            in_block,
            "wire-example {name}: no fenced code block follows the marker"
        );
        examples.insert(name, bytes);
    }
    examples
}

/// Renders a frame the way the document lists bytes, for error messages.
fn hex_dump(bytes: &[u8]) -> String {
    bytes
        .chunks(16)
        .map(|chunk| {
            chunk
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn protocol_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/WIRE_PROTOCOL.md");
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("docs/WIRE_PROTOCOL.md must exist next to the workspace: {e}"))
}

#[test]
fn documented_frames_match_the_encoder_exactly() {
    let expected = documented_examples();
    let found = parse_doc_examples(&protocol_doc());

    for (name, (message, request_id)) in &expected {
        let frame = encode_tagged(message, *request_id);
        match found.get(*name) {
            Some(documented) => assert_eq!(
                documented,
                &frame,
                "docs/WIRE_PROTOCOL.md example `{name}` drifted from the encoder.\n\
                 The encoder produces:\n{}\n",
                hex_dump(&frame)
            ),
            None => panic!(
                "docs/WIRE_PROTOCOL.md is missing `<!-- wire-example: {name} -->`.\n\
                 The encoder produces:\n{}\n",
                hex_dump(&frame)
            ),
        }
    }
}

#[test]
fn the_document_has_no_unknown_examples() {
    let expected = documented_examples();
    for name in parse_doc_examples(&protocol_doc()).keys() {
        assert!(
            expected.contains_key(name.as_str()),
            "docs/WIRE_PROTOCOL.md documents `{name}`, which this test does not check — \
             add it to documented_examples() so it cannot drift"
        );
    }
}
