//! The collaborative-inference split and the wire format for intermediate
//! features.
//!
//! In the paper's setting the client computes `M_c,h(x) + N(0, σ)` locally and
//! ships the resulting feature map to the server. This module provides the
//! byte-level encoding of that payload (used both by the latency accounting in
//! Table III and by tests that exercise a realistic client/server boundary)
//! together with a small wrapper type describing what travels on the wire.
//!
//! This is also where each payload *kind* — the [`Features`] a request
//! carries, the [`Maps`] answering it — meets its bytes: a magic word per
//! kind in front of a tensor body of [`ensembler_tensor::bytes`], which owns
//! the body layout and the strict reader every decode goes through. The wire
//! protocol frames these blobs without knowing what a tensor looks like.

use crate::{EnsemblerError, Features, Maps, Precision};
use ensembler_tensor::bytes::{put_qtensor, put_tensor, put_u32, DecodeError, Reader};
use ensembler_tensor::{QTensorBatch, Tensor};

/// Magic bytes prefixed to every feature payload so stray buffers are
/// rejected early.
const WIRE_MAGIC: u32 = 0x454E_5342; // "ENSB"

/// Magic bytes prefixed to every quantized feature payload ("ENSQ").
const QWIRE_MAGIC: u32 = 0x454E_5351;

/// An intermediate-feature payload as it travels from the client to the
/// server.
///
/// # Examples
///
/// ```
/// use ensembler::SplitFeatures;
/// use ensembler_tensor::Tensor;
///
/// let features = Tensor::ones(&[2, 4, 8, 8]);
/// let payload = SplitFeatures::new(features.clone());
/// // 4-byte magic + 4-byte rank + four 4-byte dims + f32 data
/// assert_eq!(payload.byte_len(), 4 + 4 + 4 * 4 + 4 * features.len());
/// let decoded = payload.round_trip()?;
/// assert_eq!(decoded, features);
/// # Ok::<(), ensembler::EnsemblerError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SplitFeatures {
    features: Tensor,
}

impl SplitFeatures {
    /// Wraps a feature tensor for transmission.
    pub fn new(features: Tensor) -> Self {
        Self { features }
    }

    /// The wrapped feature tensor.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// Consumes the wrapper, returning the tensor.
    pub fn into_features(self) -> Tensor {
        self.features
    }

    /// Number of bytes this payload occupies on the wire.
    pub fn byte_len(&self) -> usize {
        // magic + rank + dims + f32 data
        4 + 4 + 4 * self.features.rank() + 4 * self.features.len()
    }

    /// Encodes the payload into a byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        encode_features(&self.features)
    }

    /// Encodes and immediately decodes the payload, returning the tensor.
    ///
    /// # Errors
    ///
    /// Propagates any [`EnsemblerError::WireFormat`] error from decoding,
    /// which indicates an internal inconsistency.
    pub fn round_trip(&self) -> Result<Tensor, EnsemblerError> {
        decode_features(&self.encode())
    }
}

/// A payload kind as it travels — its magic word, then one of the tensor
/// bodies of [`ensembler_tensor::bytes`] — and, for a `Vec` of them, the list
/// form a response carries: a `u32` count, then each blob behind its `u32`
/// byte length. A further precision tier is one more `impl` here plus its
/// variant of [`Features`] / [`Maps`].
pub trait WireBlob {
    /// Appends the blob (or list of blobs) straight into `buf`.
    fn put(&self, buf: &mut Vec<u8>);
}

impl WireBlob for Tensor {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, WIRE_MAGIC);
        put_tensor(buf, self);
    }
}

impl WireBlob for QTensorBatch {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, QWIRE_MAGIC);
        put_qtensor(buf, self);
    }
}

impl<T: WireBlob> WireBlob for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.len() as u32);
        for blob in self {
            let at = buf.len();
            put_u32(buf, 0); // the blob's length, known once it is written
            blob.put(buf);
            let len = (buf.len() - at - 4) as u32;
            buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
        }
    }
}

fn take_magic(reader: &mut Reader<'_>, magic: u32, what: &str) -> Result<(), DecodeError> {
    let found = reader.u32(what)?;
    if found != magic {
        return Err(DecodeError::new(format!(
            "bad {what} magic word {found:#010x}"
        )));
    }
    Ok(())
}

fn take_tensor(reader: &mut Reader<'_>) -> Result<Tensor, DecodeError> {
    take_magic(reader, WIRE_MAGIC, "tensor")?;
    reader.tensor("tensor")
}

fn take_qtensor(reader: &mut Reader<'_>) -> Result<QTensorBatch, DecodeError> {
    take_magic(reader, QWIRE_MAGIC, "quantized tensor")?;
    reader.qtensor("quantized tensor")
}

type Take<T> = fn(&mut Reader<'_>) -> Result<T, DecodeError>;

/// One value that must fill `bytes` exactly.
fn take_whole<T>(bytes: &[u8], take: Take<T>) -> Result<T, DecodeError> {
    let mut reader = Reader::new(bytes);
    let value = take(&mut reader)?;
    reader.finish("tensor")?;
    Ok(value)
}

/// The inverse of `Vec<T>::put`; every blob must fill its declared length.
fn take_list<T>(reader: &mut Reader<'_>, take: Take<T>) -> Result<Vec<T>, DecodeError> {
    let count = reader.u32("tensor count")? as usize;
    // Each blob costs at least its length prefix, magic word and rank.
    reader.check_count(count, 12, "tensors")?;
    let mut blobs = Vec::with_capacity(count);
    for index in 0..count {
        let len = reader.u32("tensor length")? as usize;
        let blob = take_whole(reader.take(len, "tensor")?, take);
        blobs.push(blob.map_err(|e| DecodeError::new(format!("tensor {index}: {e}")))?);
    }
    Ok(blobs)
}

fn encode(blob: &impl WireBlob) -> Vec<u8> {
    let mut buf = Vec::new();
    blob.put(&mut buf);
    buf
}

/// Serialises a tensor into the client→server wire format: a magic word, the
/// rank, the dimensions and the raw little-endian `f32` data.
pub fn encode_features(features: &Tensor) -> Vec<u8> {
    encode(features)
}

/// Decodes a payload produced by [`encode_features`].
///
/// # Errors
///
/// Returns [`EnsemblerError::WireFormat`] if the buffer is truncated, the
/// magic word is wrong, the rank is implausible, or the declared shape
/// overflows or disagrees with the payload length.
pub fn decode_features(payload: &[u8]) -> Result<Tensor, EnsemblerError> {
    Ok(take_whole(payload, take_tensor)?)
}

/// Serialises a quantized feature batch into the v2 wire format: a magic
/// word, the rank, the dimensions (big-endian `u32`), one little-endian
/// `f32` scale per axis-0 sample, then the raw `i8` data — one byte per
/// element instead of the four [`encode_features`] spends, which is what
/// roughly quarters the v2 response frames.
pub fn encode_qfeatures(features: &QTensorBatch) -> Vec<u8> {
    encode(features)
}

/// Decodes a payload produced by [`encode_qfeatures`].
///
/// # Errors
///
/// Returns [`EnsemblerError::WireFormat`] if the buffer is truncated, the
/// magic word is wrong, the rank is implausible or zero, a scale is not
/// finite and positive, or the declared shape overflows or disagrees with the
/// payload length.
pub fn decode_qfeatures(payload: &[u8]) -> Result<QTensorBatch, EnsemblerError> {
    Ok(take_whole(payload, take_qtensor)?)
}

impl Features {
    /// Reads one blob of the kind `precision` names.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for a wrong magic word or a malformed body.
    pub fn take(precision: Precision, reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match precision {
            Precision::F32 => Features::F32(take_tensor(reader)?),
            Precision::Int8 => Features::Int8(take_qtensor(reader)?),
        })
    }
}

impl Maps {
    /// Reads a list of blobs of the kind `precision` names.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for a count or length the remaining bytes
    /// cannot hold, or any malformed blob.
    pub fn take(precision: Precision, reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match precision {
            Precision::F32 => Maps::F32(take_list(reader, take_tensor)?),
            Precision::Int8 => Maps::Int8(take_list(reader, take_qtensor)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_tensor::Rng;

    #[test]
    fn encode_decode_round_trips_exactly() {
        let mut rng = Rng::seed_from(0);
        let t = Tensor::from_fn(&[2, 3, 4, 4], |_| rng.normal());
        let bytes = encode_features(&t);
        let back = decode_features(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn byte_length_matches_encoding() {
        let t = Tensor::ones(&[1, 16, 8, 8]);
        let payload = SplitFeatures::new(t);
        assert_eq!(payload.encode().len(), payload.byte_len());
    }

    #[test]
    fn paper_sized_payload_is_about_64kib_per_image() {
        // CIFAR-10 intermediate features in the paper are [64, 16, 16] f32,
        // i.e. 64 KiB per image before any compression.
        let t = Tensor::zeros(&[1, 64, 16, 16]);
        let payload = SplitFeatures::new(t);
        let body_bytes = 4 * 64 * 16 * 16;
        assert!(payload.byte_len() >= body_bytes);
        assert!(payload.byte_len() < body_bytes + 64);
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let t = Tensor::ones(&[2, 2]);
        let bytes = encode_features(&t);
        assert!(decode_features(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode_features(&bytes[..5]).is_err());
        assert!(decode_features(&[]).is_err());
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let t = Tensor::ones(&[2, 2]);
        let mut bytes = encode_features(&t);
        bytes[0] ^= 0xFF;
        let err = decode_features(&bytes).unwrap_err();
        assert!(matches!(err, EnsemblerError::WireFormat(_)));
    }

    #[test]
    fn implausible_rank_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&WIRE_MAGIC.to_be_bytes());
        buf.extend_from_slice(&99u32.to_be_bytes());
        let err = decode_features(&buf).unwrap_err();
        assert!(err.to_string().contains("rank"));
    }

    #[test]
    fn quantized_encode_decode_round_trips_exactly() {
        let mut rng = Rng::seed_from(3);
        let t = Tensor::from_fn(&[3, 2, 4, 4], |_| rng.normal());
        let q = QTensorBatch::quantize_batch(&t);
        let back = decode_qfeatures(&encode_qfeatures(&q)).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn quantized_payload_is_roughly_a_quarter_of_f32() {
        let t = Tensor::from_fn(&[1, 16, 8, 8], |i| (i as f32 * 0.01).sin());
        let f32_len = encode_features(&t).len();
        let q_len = encode_qfeatures(&QTensorBatch::quantize_batch(&t)).len();
        assert!(
            (q_len as f64) < 0.3 * f32_len as f64,
            "{q_len} vs {f32_len}"
        );
    }

    #[test]
    fn quantized_decode_rejects_malformed_payloads() {
        let q = QTensorBatch::quantize_batch(&Tensor::ones(&[2, 3]));
        let bytes = encode_qfeatures(&q);
        // Truncated inside the data, the scales and the header.
        assert!(decode_qfeatures(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_qfeatures(&bytes[..10]).is_err());
        assert!(decode_qfeatures(&bytes[..3]).is_err());
        assert!(decode_qfeatures(&[]).is_err());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_qfeatures(&bad).is_err());
        // Garbage scale: NaN is rejected by from_parts.
        let mut bad = bytes.clone();
        let scale_off = 4 + 4 + 2 * 4; // magic + rank + dims
        bad[scale_off..scale_off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = decode_qfeatures(&bad).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        // Zero rank and absurd rank.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&0u32.to_be_bytes());
        assert!(decode_qfeatures(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&99u32.to_be_bytes());
        assert!(decode_qfeatures(&bad).is_err());
        // An absurd batch extent in a tiny payload must be rejected before
        // the scales vector is allocated, not abort on an OOM allocation.
        let mut bad = bytes;
        bad[8..12].copy_from_slice(&u32::MAX.to_be_bytes()); // dim 0
        let err = decode_qfeatures(&bad).unwrap_err();
        assert!(err.to_string().contains("samples"), "{err}");
    }

    #[test]
    fn accessors_expose_the_tensor() {
        let t = Tensor::ones(&[1, 2]);
        let payload = SplitFeatures::new(t.clone());
        assert_eq!(payload.features(), &t);
        assert_eq!(payload.round_trip().unwrap(), t);
        assert_eq!(payload.into_features(), t);
    }
}
