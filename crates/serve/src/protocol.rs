//! The length-framed binary protocol spoken between
//! [`RemoteDefense`](crate::RemoteDefense) and
//! [`DefenseServer`](crate::DefenseServer): protocol version 5, the only
//! version a connection can be.
//!
//! Every message travels in one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     frame magic 0x454E5357 ("ENSW"), big-endian
//! 4       2     frame stamp, big-endian (see below)
//! 6       1     message type
//! 7       1     flags (must be zero)
//! 8       4     payload length in bytes, big-endian
//! 12      8     request id, big-endian u64 — present unless the frame is a
//!               handshake message or a connection-level error
//! 12|20   n     payload (layout depends on the message type)
//! ...     4     CRC-32 (IEEE) over everything before it, big-endian
//! ```
//!
//! There is one stamping rule. A frame that carries a request id is stamped
//! [`PROTOCOL_VERSION`] ([`encode_tagged`] with `Some(id)`): every request,
//! every response and every error that answers one request. The id lets one
//! connection hold many requests in flight and return their responses out of
//! order — each response echoes the id of the request it answers; the
//! payload-length field counts only the payload, and the CRC covers header,
//! id and payload alike. The only frames without an id are the handshake
//! ([`Message::Hello`], [`Message::HelloAck`] — never tagged: they are what
//! agrees on the version) and an [`Message::Error`] that concerns the whole
//! connection; those are stamped 1, or 3 when a handshake message carries a
//! model name, exactly as they have been since those versions existed. A
//! tensor-carrying frame without an id is not part of the protocol and is
//! refused at decode.
//!
//! This module frames; it does not know what a tensor looks like. The
//! tensors inside a payload are the blobs of [`ensembler::split`]
//! ([`WireBlob::put`] writes them, [`Features::take`] / [`Maps::take`] read
//! them back): a magic word per payload kind, then the rank, the dimensions
//! (big-endian `u32`) and the little-endian data (`f32`, or per-sample `f32`
//! scales followed by `i8` values). Every field here and there is written by
//! the `put_*` functions and read by the strict [`Reader`] of
//! [`ensembler_tensor::bytes`], the one byte codec the model artifact shares.
//! The byte-exact layout, including worked example frames, is specified in
//! `docs/WIRE_PROTOCOL.md`; the `wire_examples` test encodes the documented
//! frames and fails if document and implementation drift apart.
//!
//! # Examples
//!
//! ```
//! use ensembler_serve::protocol::{decode_message, encode_message, Hello, Message};
//! use ensembler_serve::protocol::PROTOCOL_VERSION;
//!
//! let frame = encode_message(&Message::Hello(Hello::legacy(PROTOCOL_VERSION)));
//! assert_eq!(&frame[..4], &0x454E5357u32.to_be_bytes());
//! match decode_message(&frame)? {
//!     Message::Hello(hello) => assert_eq!(hello.max_version, 5),
//!     other => panic!("unexpected message {other:?}"),
//! }
//! # Ok::<(), ensembler_serve::ServeError>(())
//! ```

use crate::error::ServeError;
use ensembler::{Features, Maps, Precision, ServerRequest, WireBlob};
use ensembler_latency::WireOverhead;
pub use ensembler_tensor::bytes::crc32;
use ensembler_tensor::bytes::{put_string, put_u16, put_u32, put_u64, put_u8, Reader};
use ensembler_tensor::{QTensorBatch, Tensor};

/// Magic word opening every frame ("ENSW", for ENSembler Wire).
pub const FRAME_MAGIC: u32 = 0x454E_5357;

/// The protocol version this build speaks — the only one: a [`Hello`]
/// offering less is refused, a [`HelloAck`] pinning anything else is refused,
/// and every frame that carries a request id is stamped with it.
pub const PROTOCOL_VERSION: u16 = 5;

/// The stamp of a handshake frame that carries a model name (the version
/// that introduced the name); every other frame without a request id is
/// stamped 1.
const NAMED_HANDSHAKE_STAMP: u16 = 3;

/// Fixed frame header size: magic + version + type + flags + payload length.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Fixed frame trailer size: the CRC-32 checksum.
pub const FRAME_TRAILER_BYTES: usize = 4;

/// Size of the request id in the extended header of a tagged (stamped
/// [`PROTOCOL_VERSION`]) frame: one big-endian `u64` between the fixed header
/// and the payload.
pub const REQUEST_ID_BYTES: usize = 8;

/// Default cap on the payload length a peer will accept (64 MiB), protecting
/// the receiver from allocating on behalf of a corrupt or hostile length
/// field.
pub const DEFAULT_MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;

/// The framing overhead of this protocol in the vocabulary of the analytic
/// latency model.
///
/// `crates/latency` computes expected frame sizes from this constant
/// ([`ensembler_latency::NetworkCost::request_frame_bytes`]); the
/// `wire_cost_drift` test asserts those predictions equal the length of
/// frames actually produced by [`encode_tagged`].
pub const WIRE_OVERHEAD: WireOverhead = WireOverhead {
    frame_bytes: (FRAME_HEADER_BYTES + FRAME_TRAILER_BYTES) as u64,
    // Tensor magic word + rank word (see `ensembler::WireBlob::put`; the
    // quantized encoding spends the same header).
    tensor_base_bytes: 8,
    per_dim_bytes: 4,
    list_header_bytes: 4,
    per_tensor_prefix_bytes: 4,
    // One little-endian f32 scale per batch sample in a quantized tensor.
    per_scale_bytes: 4,
    // Wire strings (model names, labels, error text) carry a u32 length.
    per_string_bytes: 4,
    // Sub-range requests prefix the tensor with `lo` and `hi` u32s.
    range_header_bytes: 8,
    // Tagged frames carry a u64 request id between header and payload.
    request_id_bytes: REQUEST_ID_BYTES as u64,
};

/// Message type discriminants as they appear in byte 6 of the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageType {
    /// Client → server: opens a connection and offers a protocol version.
    Hello = 0x01,
    /// Server → client: accepts the connection and pins the version.
    HelloAck = 0x02,
    /// Client → server: a batch of transmitted feature maps to evaluate.
    ServerOutputsRequest = 0x03,
    /// Server → client: the `N` per-network feature maps.
    ServerOutputsResponse = 0x04,
    /// Client → server: a quantized batch of transmitted feature maps
    /// (`i8` payload plus per-sample scales).
    ServerOutputsRequestQ = 0x05,
    /// Server → client: the `N` quantized per-network feature maps.
    ServerOutputsResponseQ = 0x06,
    /// Client → server: a batch of transmitted feature maps to
    /// evaluate on the server bodies `lo..hi` only — the scatter half of
    /// sharded serving. Answered with a [`MessageType::ServerOutputsResponse`]
    /// carrying `hi - lo` maps.
    ServerOutputsRequestRange = 0x07,
    /// Client → server: the quantized sibling of
    /// [`MessageType::ServerOutputsRequestRange`], answered with a
    /// [`MessageType::ServerOutputsResponseQ`] carrying `hi - lo` maps.
    ServerOutputsRequestRangeQ = 0x08,
    /// Either direction: a per-request error report (tagged with the
    /// request's id) or a connection-level one (untagged, terminal).
    Error = 0x7F,
}

impl MessageType {
    fn from_byte(byte: u8) -> Result<Self, ServeError> {
        Ok(match byte {
            0x01 => MessageType::Hello,
            0x02 => MessageType::HelloAck,
            0x03 => MessageType::ServerOutputsRequest,
            0x04 => MessageType::ServerOutputsResponse,
            0x05 => MessageType::ServerOutputsRequestQ,
            0x06 => MessageType::ServerOutputsResponseQ,
            0x07 => MessageType::ServerOutputsRequestRange,
            0x08 => MessageType::ServerOutputsRequestRangeQ,
            0x7F => MessageType::Error,
            other => {
                return Err(ServeError::Frame(format!(
                    "unknown message type {other:#04x}"
                )))
            }
        })
    }

    /// Whether this is a handshake message — the two that are never tagged.
    fn is_handshake(self) -> bool {
        matches!(self, MessageType::Hello | MessageType::HelloAck)
    }

    /// The precision of the tensors a `ServerOutputs*` frame carries.
    fn precision(self) -> Precision {
        match self {
            MessageType::ServerOutputsRequestQ
            | MessageType::ServerOutputsResponseQ
            | MessageType::ServerOutputsRequestRangeQ => Precision::Int8,
            _ => Precision::F32,
        }
    }
}

/// Error codes carried by [`Message::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The peers share no protocol version: a hello offered less than
    /// [`PROTOCOL_VERSION`], or an ack pinned anything else.
    UnsupportedVersion = 1,
    /// A frame could not be parsed (bad magic, bad length, trailing bytes…).
    MalformedFrame = 2,
    /// The frame parsed but its CRC-32 did not match.
    ChecksumMismatch = 3,
    /// The message type was valid but not legal in the current state.
    UnexpectedMessage = 4,
    /// The defense pipeline rejected the request (shape mismatch etc.).
    Inference = 5,
    /// Any other server-side failure.
    Internal = 6,
    /// The handshake requested a model name the server does not serve.
    UnknownModel = 7,
    /// Admission control rejected the work: accepting the request would
    /// exceed an in-flight request/byte budget, or the server is at its
    /// connection limit. On a request rejection the connection stays open
    /// and the client may retry once earlier work drains — unless the
    /// message says the request exceeds a budget *outright*, in which case
    /// no amount of draining helps and the client must split the batch.
    Overloaded = 8,
}

impl ErrorCode {
    /// Parses a wire error code, mapping unknown codes to
    /// [`ErrorCode::Internal`] so newer peers stay readable.
    pub fn from_u16(code: u16) -> Self {
        match code {
            1 => ErrorCode::UnsupportedVersion,
            2 => ErrorCode::MalformedFrame,
            3 => ErrorCode::ChecksumMismatch,
            4 => ErrorCode::UnexpectedMessage,
            5 => ErrorCode::Inference,
            7 => ErrorCode::UnknownModel,
            8 => ErrorCode::Overloaded,
            _ => ErrorCode::Internal,
        }
    }
}

/// Payload of a [`Message::Hello`]: the highest protocol version the client
/// can speak, and optionally the name of the model it wants served. The
/// server acks an offer of at least [`PROTOCOL_VERSION`] at
/// [`PROTOCOL_VERSION`] and answers a lower one with an
/// [`ErrorCode::UnsupportedVersion`] error and a hang-up.
///
/// A hello without a model name travels in a frame stamped 1, a hello *with*
/// one in a frame stamped 3. A server that receives no model name serves its
/// process-default model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Highest protocol version the sender supports.
    pub max_version: u16,
    /// Model the client requests from a multi-model server; `None` selects
    /// the server's default model.
    pub model: Option<String>,
}

impl Hello {
    /// A nameless hello: offer `max_version`, serve the default model.
    pub fn legacy(max_version: u16) -> Self {
        Self {
            max_version,
            model: None,
        }
    }
}

/// Payload of a [`Message::HelloAck`]: the version the connection speaks
/// (always [`PROTOCOL_VERSION`] from this build; a client refuses anything
/// else) plus enough about the served pipeline for the client to check its
/// local replica against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The protocol version both sides will speak from now on.
    pub version: u16,
    /// [`ensembler::Defense::label`] of the served pipeline.
    pub label: String,
    /// Ensemble size `N` of the served pipeline.
    pub ensemble_size: u32,
    /// Selected count `P` of the served pipeline.
    pub selected_count: u32,
    /// The registry name of the model this connection is pinned to. Echoed
    /// only when the hello requested a model by name.
    pub model: Option<String>,
}

/// Payload of a [`Message::Error`]: a machine-readable code and a
/// human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong, coarsely.
    pub code: ErrorCode,
    /// Details for the human reading the logs.
    pub message: String,
}

/// One protocol message, ready to be framed by [`encode_message`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Connection opening offer.
    Hello(Hello),
    /// Connection acceptance.
    HelloAck(HelloAck),
    /// A `[B, C, H, W]` batch of transmitted feature maps to evaluate on all
    /// `N` server bodies.
    ServerOutputsRequest {
        /// The client-protected features, as produced by
        /// [`ensembler::Defense::client_features`].
        transmitted: Tensor,
    },
    /// The `N` per-network feature maps, in index order.
    ServerOutputsResponse {
        /// One `[B, F]` feature map per server body.
        maps: Vec<Tensor>,
    },
    /// A quantized `[B, C, H, W]` batch of transmitted feature maps: `i8`
    /// payload plus one scale per sample, roughly a quarter of the
    /// equivalent [`Message::ServerOutputsRequest`] bytes.
    ServerOutputsRequestQ {
        /// The quantized client-protected features.
        transmitted: QTensorBatch,
    },
    /// The `N` quantized per-network feature maps, in index order.
    ServerOutputsResponseQ {
        /// One quantized `[B, F]` feature map per server body.
        maps: Vec<QTensorBatch>,
    },
    /// A `[B, C, H, W]` batch of transmitted feature maps to evaluate on
    /// the server bodies `lo..hi` only — the scatter half of sharded
    /// serving. The server answers with a
    /// [`Message::ServerOutputsResponse`] of `hi - lo` maps.
    ServerOutputsRequestRange {
        /// First server body index to evaluate (inclusive).
        lo: u32,
        /// One past the last server body index to evaluate (exclusive).
        hi: u32,
        /// The client-protected features, as produced by
        /// [`ensembler::Defense::client_features`].
        transmitted: Tensor,
    },
    /// The quantized sibling of [`Message::ServerOutputsRequestRange`],
    /// answered with a [`Message::ServerOutputsResponseQ`] of `hi - lo` maps.
    ServerOutputsRequestRangeQ {
        /// First server body index to evaluate (inclusive).
        lo: u32,
        /// One past the last server body index to evaluate (exclusive).
        hi: u32,
        /// The quantized client-protected features.
        transmitted: QTensorBatch,
    },
    /// An error report.
    Error(WireError),
}

impl Message {
    /// The header discriminant for this message.
    pub fn message_type(&self) -> MessageType {
        match self {
            Message::Hello(_) => MessageType::Hello,
            Message::HelloAck(_) => MessageType::HelloAck,
            Message::ServerOutputsRequest { .. } => MessageType::ServerOutputsRequest,
            Message::ServerOutputsResponse { .. } => MessageType::ServerOutputsResponse,
            Message::ServerOutputsRequestQ { .. } => MessageType::ServerOutputsRequestQ,
            Message::ServerOutputsResponseQ { .. } => MessageType::ServerOutputsResponseQ,
            Message::ServerOutputsRequestRange { .. } => MessageType::ServerOutputsRequestRange,
            Message::ServerOutputsRequestRangeQ { .. } => MessageType::ServerOutputsRequestRangeQ,
            Message::Error(_) => MessageType::Error,
        }
    }

    /// The stamp of this message's frame when it carries no request id.
    fn untagged_stamp(&self) -> u16 {
        match self {
            Message::Hello(Hello { model: Some(_), .. })
            | Message::HelloAck(HelloAck { model: Some(_), .. }) => NAMED_HANDSHAKE_STAMP,
            _ => 1,
        }
    }
}

/// The frame a request travels in. `range: None` selects the original
/// full-ensemble frames (0x03 `f32`, 0x05 int8), `Some(lo..hi)` the
/// sub-range frames (0x07, 0x08) — so what a client puts on the wire is
/// decided by the request alone, byte for byte.
impl From<ServerRequest> for Message {
    fn from(request: ServerRequest) -> Self {
        // A bound past `u32` saturates, which no server's ensemble can satisfy,
        // so it is refused as out of range rather than silently wrapped.
        let bound = |index: usize| u32::try_from(index).unwrap_or(u32::MAX);
        let bounds = request.range.map(|r| (bound(r.start), bound(r.end)));
        match (request.features, bounds) {
            (Features::F32(transmitted), None) => Message::ServerOutputsRequest { transmitted },
            (Features::Int8(transmitted), None) => Message::ServerOutputsRequestQ { transmitted },
            (Features::F32(transmitted), Some((lo, hi))) => Message::ServerOutputsRequestRange {
                lo,
                hi,
                transmitted,
            },
            (Features::Int8(transmitted), Some((lo, hi))) => Message::ServerOutputsRequestRangeQ {
                lo,
                hi,
                transmitted,
            },
        }
    }
}

/// The request a frame carries: the inverse of `Message::from(request)`.
/// Every other message comes back unchanged as the error.
impl TryFrom<Message> for ServerRequest {
    type Error = Message;

    fn try_from(message: Message) -> Result<Self, Self::Error> {
        let ranged = |lo: u32, hi: u32| Some(lo as usize..hi as usize);
        let (range, features) = match message {
            Message::ServerOutputsRequest { transmitted } => (None, Features::F32(transmitted)),
            Message::ServerOutputsRequestQ { transmitted } => (None, Features::Int8(transmitted)),
            Message::ServerOutputsRequestRange {
                lo,
                hi,
                transmitted,
            } => (ranged(lo, hi), Features::F32(transmitted)),
            Message::ServerOutputsRequestRangeQ {
                lo,
                hi,
                transmitted,
            } => (ranged(lo, hi), Features::Int8(transmitted)),
            other => return Err(other),
        };
        Ok(ServerRequest { range, features })
    }
}

/// The response frame for a request's maps: 0x04 for `f32`, 0x06 for int8,
/// whatever range was asked for.
impl From<Maps> for Message {
    fn from(maps: Maps) -> Self {
        match maps {
            Maps::F32(maps) => Message::ServerOutputsResponse { maps },
            Maps::Int8(maps) => Message::ServerOutputsResponseQ { maps },
        }
    }
}

/// The maps a response frame carries; every other message comes back
/// unchanged as the error.
impl TryFrom<Message> for Maps {
    type Error = Message;

    fn try_from(message: Message) -> Result<Self, Self::Error> {
        match message {
            Message::ServerOutputsResponse { maps } => Ok(Maps::F32(maps)),
            Message::ServerOutputsResponseQ { maps } => Ok(Maps::Int8(maps)),
            other => Err(other),
        }
    }
}

/// What a [`Message`] carries, borrowed in the shape the codec frames: one
/// request, one response, whatever the precision and range. The six
/// `ServerOutputs*` variants fold onto it here for encoding exactly as
/// `From<ServerRequest>` / `From<Maps>` unfold them after decoding.
enum Body<'a> {
    Hello(&'a Hello),
    HelloAck(&'a HelloAck),
    Request(Option<(u32, u32)>, &'a dyn WireBlob),
    Response(&'a dyn WireBlob),
    Error(&'a WireError),
}

impl Message {
    fn body(&self) -> Body<'_> {
        match self {
            Message::Hello(hello) => Body::Hello(hello),
            Message::HelloAck(ack) => Body::HelloAck(ack),
            Message::ServerOutputsRequest { transmitted } => Body::Request(None, transmitted),
            Message::ServerOutputsRequestQ { transmitted } => Body::Request(None, transmitted),
            Message::ServerOutputsRequestRange {
                lo,
                hi,
                transmitted,
            } => Body::Request(Some((*lo, *hi)), transmitted),
            Message::ServerOutputsRequestRangeQ {
                lo,
                hi,
                transmitted,
            } => Body::Request(Some((*lo, *hi)), transmitted),
            Message::ServerOutputsResponse { maps } => Body::Response(maps),
            Message::ServerOutputsResponseQ { maps } => Body::Response(maps),
            Message::Error(error) => Body::Error(error),
        }
    }
}

/// A decoded frame: the message plus the request id its frame carried, if
/// any.
///
/// Produced by [`decode_tagged`] / [`read_tagged`]. The untagged-only
/// [`decode_message`] / [`read_message`] (what a handshake reads with) refuse
/// tagged frames with a typed error instead of silently dropping the id.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedMessage {
    /// The protocol message the frame carried.
    pub message: Message,
    /// The request id from the frame's extended header — `Some` exactly when
    /// the frame was stamped [`PROTOCOL_VERSION`]; `None` only for a
    /// handshake message or a connection-level error.
    pub request_id: Option<u64>,
}

impl TaggedMessage {
    /// The message of a frame read where only untagged frames are legal (the
    /// handshake).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Frame`] for a tagged frame: a request id the
    /// peer is waiting on must never be silently discarded.
    pub fn into_untagged(self) -> Result<Message, ServeError> {
        match self.request_id {
            Some(_) => Err(ServeError::Frame(
                "unexpected tagged (version-5) frame where only an untagged one is legal"
                    .to_string(),
            )),
            None => Ok(self.message),
        }
    }
}

/// Encodes a handshake message or a connection-level error into a complete
/// untagged frame (header, payload, checksum): [`encode_tagged`] with no
/// request id.
pub fn encode_message(message: &Message) -> Vec<u8> {
    encode_tagged(message, None)
}

/// Encodes one message into a complete frame, optionally tagged with a
/// request id.
///
/// With `Some(id)` the frame is stamped [`PROTOCOL_VERSION`] and carries
/// `id` as an 8-byte big-endian word between the fixed header and the
/// payload; the payload-length field still counts only the payload, and the
/// CRC covers header, id and payload alike. With `None` the frame has no id
/// word and is stamped 1 (3 when a handshake message names a model).
///
/// Handshake messages are never tagged and tensor-carrying messages always
/// are — [`decode_tagged`] rejects the other combinations — so tagging a
/// [`Message::Hello`] or [`Message::HelloAck`], or encoding a
/// `ServerOutputs*` message with `None`, is a programming error (it panics
/// in debug builds and produces an undecodable frame in release builds).
/// [`Message::Error`] alone exists in both forms: tagged it fails one
/// request, untagged the whole connection.
pub fn encode_tagged(message: &Message, request_id: Option<u64>) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_tagged_into(&mut frame, message, request_id);
    frame
}

/// Frame buffers a connection keeps between messages are let go once they
/// have grown past this, so one 64 MiB request does not pin 64 MiB for the
/// life of its connection.
const RETAINED_FRAME_BYTES: usize = 1 << 20;

/// Empties a connection-owned frame buffer for its next frame, keeping its
/// allocation unless that has grown past [`RETAINED_FRAME_BYTES`].
fn recycle(frame: &mut Vec<u8>) {
    if frame.capacity() > RETAINED_FRAME_BYTES {
        *frame = Vec::new();
    } else {
        frame.clear();
    }
}

/// [`encode_tagged`] into a caller-owned buffer: `frame` is emptied first and
/// holds exactly the encoded frame afterwards, so a connection that keeps one
/// buffer pays for its allocation once, not per message.
pub fn encode_tagged_into(frame: &mut Vec<u8>, message: &Message, request_id: Option<u64>) {
    debug_assert!(
        matches!(message, Message::Error(_))
            || request_id.is_some() != message.message_type().is_handshake(),
        "handshake messages are never tagged, tensor-carrying messages always are"
    );
    let version = match request_id {
        Some(_) => PROTOCOL_VERSION,
        None => message.untagged_stamp(),
    };
    recycle(frame);
    put_u32(frame, FRAME_MAGIC);
    put_u16(frame, version);
    put_u8(frame, message.message_type() as u8);
    put_u8(frame, 0); // flags
    put_u32(frame, 0); // payload length, known once the payload is written
    if let Some(id) = request_id {
        put_u64(frame, id);
    }
    let payload_offset = frame.len();
    match message.body() {
        Body::Hello(hello) => {
            put_u16(frame, hello.max_version);
            if let Some(model) = &hello.model {
                put_string(frame, model);
            }
        }
        Body::HelloAck(ack) => {
            put_u16(frame, ack.version);
            put_string(frame, &ack.label);
            put_u32(frame, ack.ensemble_size);
            put_u32(frame, ack.selected_count);
            if let Some(model) = &ack.model {
                put_string(frame, model);
            }
        }
        Body::Request(range, features) => {
            if let Some((lo, hi)) = range {
                put_u32(frame, lo);
                put_u32(frame, hi);
            }
            features.put(frame);
        }
        Body::Response(maps) => maps.put(frame),
        Body::Error(error) => {
            put_u16(frame, error.code as u16);
            put_string(frame, &error.message);
        }
    }
    let payload_len = (frame.len() - payload_offset) as u32;
    frame[8..FRAME_HEADER_BYTES].copy_from_slice(&payload_len.to_be_bytes());
    let checksum = crc32(frame);
    put_u32(frame, checksum);
}

/// Decodes one complete *untagged* frame produced by [`encode_message`].
///
/// # Errors
///
/// As for [`decode_tagged`], plus [`ServeError::Frame`] for a tagged frame —
/// a request id the peer is waiting on must never be silently discarded.
pub fn decode_message(frame: &[u8]) -> Result<Message, ServeError> {
    decode_tagged(frame)?.into_untagged()
}

/// Decodes one complete frame produced by [`encode_tagged`], returning the
/// message together with the request id of its extended header when the
/// frame carries one.
///
/// # Errors
///
/// Returns [`ServeError::Frame`] for any structural problem (bad magic,
/// unknown type, non-zero flags, truncation, trailing bytes, malformed
/// tensors, a tagged handshake, a tensor-carrying frame without a request
/// id), [`ServeError::UnsupportedVersion`] for a stamp outside
/// `1..=PROTOCOL_VERSION`, and [`ServeError::Checksum`] when the CRC-32
/// disagrees.
pub fn decode_tagged(frame: &[u8]) -> Result<TaggedMessage, ServeError> {
    if frame.len() < FRAME_HEADER_BYTES + FRAME_TRAILER_BYTES {
        return Err(ServeError::Frame(format!(
            "frame of {} bytes is shorter than header + checksum",
            frame.len()
        )));
    }
    let mut header = Reader::new(frame);
    let magic = header.u32("frame header")?;
    if magic != FRAME_MAGIC {
        return Err(ServeError::Frame(format!(
            "bad frame magic {magic:#010x}, expected {FRAME_MAGIC:#010x}"
        )));
    }
    let version = header.u16("frame header")?;
    if version == 0 || version > PROTOCOL_VERSION {
        return Err(ServeError::UnsupportedVersion {
            offered: version,
            supported: PROTOCOL_VERSION,
        });
    }
    let type_byte = header.u8("frame header")?;
    let message_type = MessageType::from_byte(type_byte)?;
    let flags = header.u8("frame header")?;
    if flags != 0 {
        return Err(ServeError::Frame(format!(
            "non-zero flags {flags:#04x} in a version-{version} frame"
        )));
    }
    // The stamp alone says whether an id follows the fixed header; the one
    // stamping rule says which message types may travel in which form.
    let tagged = version == PROTOCOL_VERSION;
    let handshake = message_type.is_handshake();
    if tagged == handshake && message_type != MessageType::Error {
        return Err(ServeError::Frame(format!(
            "message type {type_byte:#04x} is {} tagged with a request id, but the frame is \
             stamped version {version}",
            if handshake { "never" } else { "always" }
        )));
    }
    let id_bytes = if tagged { REQUEST_ID_BYTES } else { 0 };
    let payload_len = header.u32("frame header")? as usize;
    if frame.len() != FRAME_HEADER_BYTES + id_bytes + payload_len + FRAME_TRAILER_BYTES {
        return Err(ServeError::Frame(format!(
            "frame of {} bytes disagrees with declared payload length {payload_len}",
            frame.len()
        )));
    }
    let (checked, trailer) = frame.split_at(frame.len() - FRAME_TRAILER_BYTES);
    let expected = crc32(checked);
    let found = Reader::new(trailer).u32("checksum")?;
    if expected != found {
        return Err(ServeError::Checksum { expected, found });
    }
    let request_id = if tagged {
        Some(header.u64("request id")?)
    } else {
        None
    };

    let mut reader = Reader::new(header.take(payload_len, "payload")?);
    let message = match message_type {
        MessageType::Hello => {
            let max_version = reader.u16("Hello payload")?;
            // A model name is legal only in a frame stamped for it; in an
            // older frame any extra bytes fall through to the trailing-bytes
            // error.
            let model = if version >= NAMED_HANDSHAKE_STAMP && reader.remaining() != 0 {
                Some(reader.string("Hello model name")?)
            } else {
                None
            };
            reader.finish("Hello payload (a model name requires a version-3 frame)")?;
            Message::Hello(Hello { max_version, model })
        }
        MessageType::HelloAck => {
            let version_field = reader.u16("HelloAck payload")?;
            let label = reader.string("HelloAck label")?;
            let ensemble_size = reader.u32("HelloAck payload")?;
            let selected_count = reader.u32("HelloAck payload")?;
            let model = if version >= NAMED_HANDSHAKE_STAMP && reader.remaining() != 0 {
                Some(reader.string("HelloAck model name")?)
            } else {
                None
            };
            reader.finish("HelloAck payload (a model name requires a version-3 frame)")?;
            Message::HelloAck(HelloAck {
                version: version_field,
                label,
                ensemble_size,
                selected_count,
                model,
            })
        }
        MessageType::ServerOutputsRequest
        | MessageType::ServerOutputsRequestQ
        | MessageType::ServerOutputsRequestRange
        | MessageType::ServerOutputsRequestRangeQ => {
            let ranged = matches!(
                message_type,
                MessageType::ServerOutputsRequestRange | MessageType::ServerOutputsRequestRangeQ
            );
            let range = if ranged {
                let lo = reader.u32("request range")? as usize;
                let hi = reader.u32("request range")? as usize;
                Some(lo..hi)
            } else {
                None
            };
            let features = Features::take(message_type.precision(), &mut reader)?;
            reader.finish("request payload")?;
            ServerRequest { range, features }.into()
        }
        MessageType::ServerOutputsResponse | MessageType::ServerOutputsResponseQ => {
            let maps = Maps::take(message_type.precision(), &mut reader)?;
            reader.finish("response payload")?;
            maps.into()
        }
        MessageType::Error => {
            let code = ErrorCode::from_u16(reader.u16("Error payload")?);
            let message = reader.string("Error message")?;
            reader.finish("Error payload")?;
            Message::Error(WireError { code, message })
        }
    };
    Ok(TaggedMessage {
        message,
        request_id,
    })
}

/// Writes one untagged frame — a handshake message or a connection-level
/// error — to `writer` and flushes it.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_message(
    writer: &mut impl std::io::Write,
    message: &Message,
) -> Result<(), ServeError> {
    write_tagged(writer, message, None)
}

/// Writes one framed message — tagged with `request_id` when given — to
/// `writer` and flushes it.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_tagged(
    writer: &mut impl std::io::Write,
    message: &Message,
    request_id: Option<u64>,
) -> Result<(), ServeError> {
    write_tagged_into(writer, message, request_id, &mut Vec::new())
}

/// [`write_tagged`] encoding into `frame`, the buffer the connection's write
/// half keeps between messages (see [`encode_tagged_into`]).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_tagged_into(
    writer: &mut impl std::io::Write,
    message: &Message,
    request_id: Option<u64>,
    frame: &mut Vec<u8>,
) -> Result<(), ServeError> {
    encode_tagged_into(frame, message, request_id);
    writer.write_all(frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads exactly one framed *untagged* message from `reader`, refusing
/// payloads longer than `max_payload_bytes` before allocating for them.
///
/// # Errors
///
/// Propagates I/O errors (including clean EOF as
/// [`std::io::ErrorKind::UnexpectedEof`]) and every [`decode_message`]
/// error — in particular a typed [`ServeError::Frame`] for a tagged frame,
/// which only [`read_tagged`] accepts.
pub fn read_message(
    reader: &mut impl std::io::Read,
    max_payload_bytes: u32,
) -> Result<Message, ServeError> {
    read_tagged(reader, max_payload_bytes)?.into_untagged()
}

/// Reads exactly one framed message — tagged or untagged — from `reader`,
/// refusing payloads longer than `max_payload_bytes` before allocating for
/// them.
///
/// The stamp in the fixed header decides whether an 8-byte request id follows
/// it: only [`PROTOCOL_VERSION`] is given the extended header, so an unknown
/// future version is rejected by [`decode_tagged`] without guessing at its
/// header shape.
///
/// # Errors
///
/// Propagates I/O errors (including clean EOF as
/// [`std::io::ErrorKind::UnexpectedEof`]) and every [`decode_tagged`] error.
pub fn read_tagged(
    reader: &mut impl std::io::Read,
    max_payload_bytes: u32,
) -> Result<TaggedMessage, ServeError> {
    read_tagged_into(reader, max_payload_bytes, &mut Vec::new())
}

/// [`read_tagged`] reading into `frame`, the buffer the connection's read
/// half keeps between messages: it is emptied first and every byte of the new
/// frame is checked by [`decode_tagged`] as strictly as in a fresh buffer.
///
/// # Errors
///
/// As for [`read_tagged`].
pub fn read_tagged_into(
    reader: &mut impl std::io::Read,
    max_payload_bytes: u32,
    frame: &mut Vec<u8>,
) -> Result<TaggedMessage, ServeError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    reader.read_exact(&mut header)?;
    let version = Reader::new(&header[4..]).u16("frame header")?;
    let payload_len = Reader::new(&header[8..]).u32("frame header")?;
    if payload_len > max_payload_bytes {
        return Err(ServeError::Frame(format!(
            "declared payload of {payload_len} bytes exceeds the {max_payload_bytes}-byte limit"
        )));
    }
    let id_bytes = if version == PROTOCOL_VERSION {
        REQUEST_ID_BYTES
    } else {
        0
    };
    recycle(frame);
    frame.extend_from_slice(&header);
    frame.resize(
        FRAME_HEADER_BYTES + id_bytes + payload_len as usize + FRAME_TRAILER_BYTES,
        0,
    );
    reader.read_exact(&mut frame[FRAME_HEADER_BYTES..])?;
    decode_tagged(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Through the codec and back, in the one form the message travels in:
    /// the handshake untagged, everything else with a request id.
    fn round_trip(message: Message) -> Message {
        let request_id = (!message.message_type().is_handshake()).then_some(9);
        let tagged = decode_tagged(&encode_tagged(&message, request_id)).expect("round trip");
        assert_eq!(tagged.request_id, request_id);
        tagged.message
    }

    /// Rewrites the stamp of `frame` and re-stamps its checksum, so the
    /// check under test — not the CRC — is what fires.
    fn restamp(frame: &mut [u8], version: u16) {
        frame[4..6].copy_from_slice(&version.to_be_bytes());
        let crc_offset = frame.len() - FRAME_TRAILER_BYTES;
        let crc = crc32(&frame[..crc_offset]);
        frame[crc_offset..].copy_from_slice(&crc.to_be_bytes());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_message_kind_round_trips() {
        let messages = vec![
            Message::Hello(Hello::legacy(7)),
            Message::HelloAck(HelloAck {
                version: 1,
                label: "Ensembler".to_string(),
                ensemble_size: 10,
                selected_count: 4,
                model: None,
            }),
            Message::ServerOutputsRequest {
                transmitted: Tensor::from_fn(&[2, 3, 4, 4], |i| (i as f32 * 0.1).sin()),
            },
            Message::ServerOutputsResponse {
                maps: (0..3)
                    .map(|k| Tensor::from_fn(&[2, 5], |i| (i + k) as f32))
                    .collect(),
            },
            Message::Error(WireError {
                code: ErrorCode::Inference,
                message: "shape mismatch".to_string(),
            }),
        ];
        for message in messages {
            assert_eq!(round_trip(message.clone()), message);
        }
    }

    #[test]
    fn empty_response_round_trips() {
        let message = Message::ServerOutputsResponse { maps: Vec::new() };
        assert_eq!(round_trip(message.clone()), message);
    }

    #[test]
    fn legacy_messages_stay_in_version_1_frames() {
        // The frames without a request id — the nameless handshake and a
        // connection-level error — keep the stamp version 1 gave them: those
        // bytes open (or end) every connection.
        for message in [
            Message::Hello(Hello::legacy(2)),
            Message::HelloAck(HelloAck {
                version: 1,
                label: "Ensembler".to_string(),
                ensemble_size: 2,
                selected_count: 1,
                model: None,
            }),
            Message::Error(WireError {
                code: ErrorCode::Internal,
                message: "x".to_string(),
            }),
        ] {
            let frame = encode_message(&message);
            assert_eq!(&frame[4..6], &1u16.to_be_bytes(), "{message:?}");
        }
    }

    #[test]
    fn model_carrying_handshakes_round_trip_in_version_3_frames() {
        let hello = Message::Hello(Hello {
            max_version: 3,
            model: Some("alpha".to_string()),
        });
        let frame = encode_message(&hello);
        assert_eq!(&frame[4..6], &3u16.to_be_bytes(), "v3 frame stamp");
        assert_eq!(round_trip(hello.clone()), hello);

        let ack = Message::HelloAck(HelloAck {
            version: 3,
            label: "Ensembler".to_string(),
            ensemble_size: 4,
            selected_count: 2,
            model: Some("alpha".to_string()),
        });
        let frame = encode_message(&ack);
        assert_eq!(&frame[4..6], &3u16.to_be_bytes(), "v3 frame stamp");
        assert_eq!(round_trip(ack.clone()), ack);
    }

    #[test]
    fn model_names_are_rejected_in_pre_v3_frames() {
        for message in [
            Message::Hello(Hello {
                max_version: 3,
                model: Some("alpha".to_string()),
            }),
            Message::HelloAck(HelloAck {
                version: 3,
                label: "Ensembler".to_string(),
                ensemble_size: 4,
                selected_count: 2,
                model: Some("alpha".to_string()),
            }),
        ] {
            let mut frame = encode_message(&message);
            restamp(&mut frame, 2);
            let err = decode_message(&frame).unwrap_err();
            assert!(
                err.to_string().contains("requires a version-3 frame"),
                "{err}"
            );
        }
    }

    #[test]
    fn new_error_codes_round_trip_and_degrade_gracefully() {
        assert_eq!(ErrorCode::from_u16(7), ErrorCode::UnknownModel);
        assert_eq!(ErrorCode::from_u16(8), ErrorCode::Overloaded);
        // An untagged error frame is stamped 1 whatever its code.
        let message = Message::Error(WireError {
            code: ErrorCode::Overloaded,
            message: "budget".to_string(),
        });
        let frame = encode_message(&message);
        assert_eq!(&frame[4..6], &1u16.to_be_bytes());
        assert_eq!(round_trip(message.clone()), message);
    }

    #[test]
    fn range_requests_cost_exactly_one_range_header_over_the_full_request() {
        let transmitted = Tensor::ones(&[2, 3, 4, 4]);
        let full = encode_tagged(
            &Message::ServerOutputsRequest {
                transmitted: transmitted.clone(),
            },
            Some(1),
        );
        let ranged = encode_tagged(
            &Message::ServerOutputsRequestRange {
                lo: 1,
                hi: 3,
                transmitted,
            },
            Some(1),
        );
        assert_eq!(
            ranged.len() as u64,
            full.len() as u64 + WIRE_OVERHEAD.range_header_bytes
        );
    }

    #[test]
    fn tensor_frames_without_a_request_id_are_rejected() {
        // What a version 1–4 peer used to send: any tensor-carrying message
        // in a frame with no id word, under every stamp that has none.
        let t = Tensor::ones(&[1, 1, 2, 2]);
        let q = QTensorBatch::quantize_batch(&t);
        for message in [
            ServerRequest::full(Features::F32(t.clone())).into(),
            ServerRequest::full(Features::Int8(q.clone())).into(),
            ServerRequest::ranged(0..1, Features::F32(t.clone())).into(),
            ServerRequest::ranged(0..1, Features::Int8(q.clone())).into(),
            Maps::F32(vec![t.clone()]).into(),
            Maps::Int8(vec![q.clone()]).into(),
        ] {
            let tagged = encode_tagged(&message, Some(7));
            for stamp in 1..PROTOCOL_VERSION {
                let mut frame = tagged.clone();
                frame.drain(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + REQUEST_ID_BYTES);
                restamp(&mut frame, stamp);
                match decode_tagged(&frame) {
                    Err(ServeError::Frame(reason)) => {
                        assert!(reason.contains("always tagged"), "{reason}");
                    }
                    other => panic!("{message:?} stamped {stamp}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn truncated_and_garbage_scale_fields_are_rejected() {
        let q = QTensorBatch::quantize_batch(&Tensor::from_fn(&[2, 4], |i| i as f32 + 1.0));
        let good = encode_tagged(
            &Message::ServerOutputsRequestQ {
                transmitted: q.clone(),
            },
            Some(1),
        );
        let payload_offset = FRAME_HEADER_BYTES + REQUEST_ID_BYTES;

        // Truncate inside the scale section: drop the last data bytes so the
        // payload ends mid-scale, re-stamp length and CRC so framing is valid.
        let cut = 8; // removes all 8 i8 values: payload now ends inside scales
        let mut frame = good[..good.len() - FRAME_TRAILER_BYTES - cut].to_vec();
        let payload_len = (frame.len() - payload_offset) as u32;
        frame[8..12].copy_from_slice(&payload_len.to_be_bytes());
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_be_bytes());
        let err = decode_tagged(&frame).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");

        // Garbage scale: an infinite per-sample scale must be rejected.
        let mut frame = good;
        let scale_offset = payload_offset + 4 + 4 + 2 * 4;
        frame[scale_offset..scale_offset + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        restamp(&mut frame, PROTOCOL_VERSION);
        let err = decode_tagged(&frame).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_message(&Message::Hello(Hello::legacy(1)));
        frame[0] ^= 0xFF;
        assert!(matches!(decode_message(&frame), Err(ServeError::Frame(_))));
    }

    #[test]
    fn future_version_is_rejected_as_unsupported() {
        let mut frame = encode_message(&Message::Hello(Hello::legacy(1)));
        frame[4..6].copy_from_slice(&99u16.to_be_bytes());
        // Re-stamp the checksum so the version check is what fires.
        let crc_offset = frame.len() - FRAME_TRAILER_BYTES;
        let crc = crc32(&frame[..crc_offset]);
        frame[crc_offset..].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(
            decode_message(&frame),
            Err(ServeError::UnsupportedVersion {
                offered: 99,
                supported: PROTOCOL_VERSION
            })
        ));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut frame = encode_tagged(
            &Message::ServerOutputsRequest {
                transmitted: Tensor::ones(&[1, 2, 2, 2]),
            },
            Some(1),
        );
        let byte = FRAME_HEADER_BYTES + REQUEST_ID_BYTES + 10;
        frame[byte] ^= 0x01;
        assert!(matches!(
            decode_tagged(&frame),
            Err(ServeError::Checksum { .. })
        ));
    }

    #[test]
    fn unknown_message_type_is_rejected() {
        let mut frame = encode_message(&Message::Hello(Hello::legacy(1)));
        frame[6] = 0x42;
        let crc_offset = frame.len() - FRAME_TRAILER_BYTES;
        let crc = crc32(&frame[..crc_offset]);
        frame[crc_offset..].copy_from_slice(&crc.to_be_bytes());
        let err = decode_message(&frame).unwrap_err();
        assert!(err.to_string().contains("unknown message type"));
    }

    #[test]
    fn nonzero_flags_are_rejected() {
        let mut frame = encode_message(&Message::Hello(Hello::legacy(1)));
        frame[7] = 0x80;
        let crc_offset = frame.len() - FRAME_TRAILER_BYTES;
        let crc = crc32(&frame[..crc_offset]);
        frame[crc_offset..].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(decode_message(&frame), Err(ServeError::Frame(_))));
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let frame = encode_message(&Message::Hello(Hello::legacy(1)));
        assert!(decode_message(&frame[..frame.len() - 1]).is_err());
        assert!(decode_message(&frame[..4]).is_err());
        assert!(decode_message(&[]).is_err());
        let mut padded = frame.clone();
        padded.push(0);
        assert!(decode_message(&padded).is_err());
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // Hand-build a version-1 Hello frame whose payload is one byte too
        // long (in a v3 frame those bytes would parse as a model name).
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC.to_be_bytes());
        frame.extend_from_slice(&1u16.to_be_bytes());
        frame.push(MessageType::Hello as u8);
        frame.push(0);
        frame.extend_from_slice(&3u32.to_be_bytes());
        frame.extend_from_slice(&[0, 1, 0xAA]);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_be_bytes());
        let err = decode_message(&frame).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn absurd_tensor_count_is_rejected_before_allocating() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC.to_be_bytes());
        frame.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        frame.push(MessageType::ServerOutputsResponse as u8);
        frame.push(0);
        frame.extend_from_slice(&4u32.to_be_bytes());
        frame.extend_from_slice(&77u64.to_be_bytes()); // request id
        frame.extend_from_slice(&u32::MAX.to_be_bytes()); // tensor count
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_be_bytes());
        let err = decode_tagged(&frame).unwrap_err();
        assert!(err.to_string().contains("tensors"), "{err}");
    }

    #[test]
    fn read_message_enforces_the_payload_cap() {
        // The handshake reader and the request reader share the check.
        let hello = encode_message(&Message::Hello(Hello::legacy(PROTOCOL_VERSION)));
        let err = read_message(&mut hello.as_slice(), 1).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
        assert!(read_message(&mut hello.as_slice(), DEFAULT_MAX_PAYLOAD_BYTES).is_ok());

        let request = Message::ServerOutputsRequest {
            transmitted: Tensor::ones(&[1, 4, 8, 8]),
        };
        let frame = encode_tagged(&request, Some(1));
        let err = read_tagged(&mut frame.as_slice(), 16).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
        assert!(read_tagged(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD_BYTES).is_ok());
    }

    #[test]
    fn unknown_error_codes_degrade_to_internal() {
        assert_eq!(ErrorCode::from_u16(999), ErrorCode::Internal);
        assert_eq!(ErrorCode::from_u16(5), ErrorCode::Inference);
    }

    #[test]
    fn tagged_frames_round_trip_with_their_request_id() {
        let q = QTensorBatch::quantize_batch(&Tensor::ones(&[1, 1, 2, 2]));
        let messages = vec![
            Message::ServerOutputsRequest {
                transmitted: Tensor::ones(&[1, 1, 2, 2]),
            },
            Message::ServerOutputsResponse {
                maps: vec![Tensor::ones(&[1, 4])],
            },
            Message::ServerOutputsRequestQ {
                transmitted: q.clone(),
            },
            Message::ServerOutputsResponseQ {
                maps: vec![QTensorBatch::quantize_batch(&Tensor::ones(&[1, 4]))],
            },
            Message::ServerOutputsRequestRange {
                lo: 0,
                hi: 1,
                transmitted: Tensor::ones(&[1, 1, 2, 2]),
            },
            Message::ServerOutputsRequestRangeQ {
                lo: 0,
                hi: 1,
                transmitted: q,
            },
            Message::Error(WireError {
                code: ErrorCode::Overloaded,
                message: "busy".to_string(),
            }),
        ];
        for (k, message) in messages.into_iter().enumerate() {
            let id = u64::MAX - k as u64;
            let frame = encode_tagged(&message, Some(id));
            assert_eq!(&frame[4..6], &PROTOCOL_VERSION.to_be_bytes(), "{message:?}");
            let tagged = decode_tagged(&frame).expect("tagged round trip");
            assert_eq!(tagged.request_id, Some(id));
            assert_eq!(tagged.message, message);
        }
    }

    #[test]
    fn tagging_costs_exactly_the_request_id_bytes() {
        // The one message that exists in both forms.
        let message = Message::Error(WireError {
            code: ErrorCode::Overloaded,
            message: "budget".to_string(),
        });
        let untagged = encode_message(&message);
        let tagged = encode_tagged(&message, Some(7));
        assert_eq!(tagged.len(), untagged.len() + REQUEST_ID_BYTES);
        assert_eq!(
            tagged.len() as u64,
            untagged.len() as u64 + WIRE_OVERHEAD.request_id_bytes
        );
        // The payload bytes are identical: only the version stamp, the id
        // word and the checksum differ between the twins.
        assert_eq!(
            &tagged[FRAME_HEADER_BYTES + REQUEST_ID_BYTES..tagged.len() - FRAME_TRAILER_BYTES],
            &untagged[FRAME_HEADER_BYTES..untagged.len() - FRAME_TRAILER_BYTES]
        );
    }

    #[test]
    fn untagged_frames_are_unchanged_through_the_tagged_api() {
        let message = Message::Hello(Hello::legacy(5));
        assert_eq!(encode_tagged(&message, None), encode_message(&message));
        let tagged = decode_tagged(&encode_message(&message)).expect("untagged decode");
        assert_eq!(tagged.request_id, None);
        assert_eq!(tagged.message, message);
    }

    #[test]
    fn lockstep_decoders_reject_tagged_frames() {
        let frame = encode_tagged(&Message::ServerOutputsResponse { maps: vec![] }, Some(3));
        let err = decode_message(&frame).unwrap_err();
        assert!(err.to_string().contains("tagged"), "{err}");
        let mut reader = frame.as_slice();
        let err = read_message(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES).unwrap_err();
        assert!(err.to_string().contains("tagged"), "{err}");
    }

    #[test]
    fn handshake_frames_are_never_tagged() {
        // Hand-build a v5-stamped Hello frame carrying an id: the decoder
        // rejects it before touching the payload.
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC.to_be_bytes());
        frame.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        frame.push(MessageType::Hello as u8);
        frame.push(0);
        frame.extend_from_slice(&2u32.to_be_bytes());
        frame.extend_from_slice(&9u64.to_be_bytes()); // request id
        frame.extend_from_slice(&5u16.to_be_bytes()); // payload: max_version
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_be_bytes());
        let err = decode_tagged(&frame).unwrap_err();
        assert!(err.to_string().contains("never tagged"), "{err}");
    }

    #[test]
    fn read_tagged_reads_the_extended_header() {
        let message = Message::ServerOutputsRequest {
            transmitted: Tensor::ones(&[1, 1, 2, 2]),
        };
        let frame = encode_tagged(&message, Some(42));
        let mut reader = frame.as_slice();
        let tagged = read_tagged(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES).expect("read tagged");
        assert_eq!(tagged.request_id, Some(42));
        assert_eq!(tagged.message, message);
        assert!(reader.is_empty(), "the whole frame is consumed");
        // An untagged frame travels through the same reader unchanged.
        let frame = encode_message(&Message::Hello(Hello::legacy(PROTOCOL_VERSION)));
        let mut reader = frame.as_slice();
        let tagged = read_tagged(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES).expect("read untagged");
        assert_eq!(tagged.request_id, None);
    }

    #[test]
    fn a_reused_frame_buffer_never_leaks_one_frame_into_the_next() {
        let long = Message::ServerOutputsRequest {
            transmitted: Tensor::from_fn(&[32, 16, 8, 8], |i| (i as f32 * 0.01).sin()),
        };
        let short = Message::Error(WireError {
            code: ErrorCode::Overloaded,
            message: "retry".to_string(),
        });

        // Encoding: a long frame, then a short one, into the same buffer —
        // byte for byte what a fresh encode produces, no byte of the first
        // surviving behind it.
        let mut frame = Vec::new();
        encode_tagged_into(&mut frame, &long, Some(7));
        assert_eq!(frame, encode_tagged(&long, Some(7)));
        let capacity = frame.capacity();
        encode_tagged_into(&mut frame, &short, Some(8));
        assert_eq!(frame, encode_tagged(&short, Some(8)));
        assert_eq!(frame.capacity(), capacity, "the allocation is kept");
        encode_tagged_into(&mut frame, &short, None);
        assert_eq!(frame, encode_message(&short));

        // Reading: the same, through a reused read buffer, with the decoder
        // as strict about the short frame's length and checksum as ever.
        let mut wire = encode_tagged(&long, Some(7));
        wire.extend_from_slice(&encode_tagged(&short, Some(8)));
        let mut damaged = encode_tagged(&short, Some(9));
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01;
        wire.extend_from_slice(&damaged);
        let mut reader = std::io::Cursor::new(wire);
        let mut frame = Vec::new();
        let first = read_tagged_into(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES, &mut frame).unwrap();
        assert_eq!((first.request_id, &first.message), (Some(7), &long));
        let second = read_tagged_into(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES, &mut frame).unwrap();
        assert_eq!((second.request_id, &second.message), (Some(8), &short));
        assert_eq!(frame, encode_tagged(&short, Some(8)));
        let err = read_tagged_into(&mut reader, DEFAULT_MAX_PAYLOAD_BYTES, &mut frame).unwrap_err();
        assert!(matches!(err, ServeError::Checksum { .. }), "{err:?}");

        // A buffer that served one outsized frame is let go, not kept for
        // the life of the connection.
        let huge = Message::ServerOutputsRequest {
            transmitted: Tensor::zeros(&[1, RETAINED_FRAME_BYTES / 4 + 1]),
        };
        encode_tagged_into(&mut frame, &huge, Some(1));
        assert!(frame.capacity() > RETAINED_FRAME_BYTES);
        encode_tagged_into(&mut frame, &short, Some(2));
        assert!(frame.capacity() < RETAINED_FRAME_BYTES);
        assert_eq!(frame, encode_tagged(&short, Some(2)));
    }

    #[test]
    fn truncated_tagged_frames_are_rejected() {
        let frame = encode_tagged(&Message::ServerOutputsResponse { maps: vec![] }, Some(1));
        for cut in 1..frame.len() {
            assert!(
                decode_tagged(&frame[..frame.len() - cut]).is_err(),
                "a frame cut {cut} bytes short must not decode"
            );
        }
    }

    #[test]
    fn server_requests_map_onto_exactly_the_four_request_frames() {
        let t = Tensor::ones(&[1, 1, 2, 2]);
        let q = QTensorBatch::quantize_batch(&t);
        let cases = [
            (
                None,
                Features::F32(t.clone()),
                MessageType::ServerOutputsRequest,
            ),
            (
                None,
                Features::Int8(q.clone()),
                MessageType::ServerOutputsRequestQ,
            ),
            (
                Some(1..3),
                Features::F32(t),
                MessageType::ServerOutputsRequestRange,
            ),
            (
                Some(0..2),
                Features::Int8(q),
                MessageType::ServerOutputsRequestRangeQ,
            ),
        ];
        for (range, features, frame_type) in cases {
            let request = ServerRequest { range, features };
            let message = Message::from(request.clone());
            assert_eq!(message.message_type(), frame_type);
            // Through the codec and back: the same request.
            let decoded = round_trip(message);
            assert_eq!(ServerRequest::try_from(decoded), Ok(request));
        }
        // Responses likewise; anything else is handed back untouched.
        let maps = Maps::F32(vec![Tensor::ones(&[1, 4])]);
        let message = Message::from(maps.clone());
        assert_eq!(message.message_type(), MessageType::ServerOutputsResponse);
        assert_eq!(Maps::try_from(message.clone()), Ok(maps));
        assert_eq!(ServerRequest::try_from(message.clone()), Err(message));
        let hello = Message::Hello(Hello::legacy(1));
        assert_eq!(Maps::try_from(hello.clone()), Err(hello));
    }

    #[test]
    fn wire_overhead_constant_matches_the_encoder() {
        // Upload: one rank-4 tensor.
        let transmitted = Tensor::ones(&[2, 3, 4, 4]);
        let frame = encode_tagged(
            &Message::ServerOutputsRequest {
                transmitted: transmitted.clone(),
            },
            Some(1),
        );
        let expected = WIRE_OVERHEAD.frame_bytes
            + WIRE_OVERHEAD.request_id_bytes
            + WIRE_OVERHEAD.tensor_base_bytes
            + 4 * WIRE_OVERHEAD.per_dim_bytes
            + 4 * transmitted.len() as u64;
        assert_eq!(frame.len() as u64, expected);

        // Return: a list of rank-2 tensors.
        let maps: Vec<Tensor> = (0..3).map(|_| Tensor::ones(&[2, 5])).collect();
        let frame = encode_tagged(
            &Message::ServerOutputsResponse { maps: maps.clone() },
            Some(1),
        );
        let per_tensor = WIRE_OVERHEAD.per_tensor_prefix_bytes
            + WIRE_OVERHEAD.tensor_base_bytes
            + 2 * WIRE_OVERHEAD.per_dim_bytes
            + 4 * maps[0].len() as u64;
        let expected = WIRE_OVERHEAD.frame_bytes
            + WIRE_OVERHEAD.request_id_bytes
            + WIRE_OVERHEAD.list_header_bytes
            + 3 * per_tensor;
        assert_eq!(frame.len() as u64, expected);
    }
}
