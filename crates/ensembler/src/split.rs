//! The collaborative-inference split and the wire format for intermediate
//! features.
//!
//! In the paper's setting the client computes `M_c,h(x) + N(0, σ)` locally and
//! ships the resulting feature map to the server. This module is the one
//! byte-level encoding of that payload and of the server's answer: the wire
//! protocol writes it with [`WireBlob::put`] and reads it back with
//! [`Features::take`] / [`Maps::take`].
//!
//! This is where each payload *kind* — the [`Features`] a request
//! carries, the [`Maps`] answering it — meets its bytes: a magic word per
//! kind in front of a tensor body of [`ensembler_tensor::bytes`], which owns
//! the body layout and the strict reader every decode goes through. The wire
//! protocol frames these blobs without knowing what a tensor looks like.

use crate::{Features, Maps, Precision};
use ensembler_tensor::bytes::{put_qtensor, put_tensor, put_u32, DecodeError, Reader};
use ensembler_tensor::{QTensorBatch, Tensor};

/// Magic bytes prefixed to every feature payload so stray buffers are
/// rejected early.
const WIRE_MAGIC: u32 = 0x454E_5342; // "ENSB"

/// Magic bytes prefixed to every quantized feature payload ("ENSQ").
const QWIRE_MAGIC: u32 = 0x454E_5351;

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
    use crate::EnsemblerError;
    use ensembler_tensor::Rng;

    fn encode(blob: &impl WireBlob) -> Vec<u8> {
        let mut buf = Vec::new();
        blob.put(&mut buf);
        buf
    }

    /// Reads one payload that must fill `bytes` exactly — what the protocol
    /// decoder does with a request frame's payload.
    fn decode(precision: Precision, bytes: &[u8]) -> Result<Features, EnsemblerError> {
        let mut reader = Reader::new(bytes);
        let features = Features::take(precision, &mut reader)?;
        reader.finish("request payload")?;
        Ok(features)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let mut rng = Rng::seed_from(0);
        let t = Tensor::from_fn(&[2, 3, 4, 4], |_| rng.normal());
        let back = decode(Precision::F32, &encode(&t)).unwrap();
        assert_eq!(back, Features::F32(t));
    }

    #[test]
    fn byte_length_matches_encoding() {
        let t = Tensor::ones(&[1, 16, 8, 8]);
        // magic + rank + dims + f32 data
        assert_eq!(encode(&t).len(), 4 + 4 + 4 * t.rank() + 4 * t.len());
    }

    #[test]
    fn paper_sized_payload_is_about_64kib_per_image() {
        // CIFAR-10 intermediate features in the paper are [64, 16, 16] f32,
        // i.e. 64 KiB per image before any compression.
        let len = encode(&Tensor::zeros(&[1, 64, 16, 16])).len();
        let body_bytes = 4 * 64 * 16 * 16;
        assert!(len >= body_bytes);
        assert!(len < body_bytes + 64);
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let bytes = encode(&Tensor::ones(&[2, 2]));
        assert!(decode(Precision::F32, &bytes[..bytes.len() - 3]).is_err());
        assert!(decode(Precision::F32, &bytes[..5]).is_err());
        assert!(decode(Precision::F32, &[]).is_err());
        // Trailing bytes are refused as firmly as missing ones.
        let mut longer = bytes;
        longer.push(0);
        assert!(decode(Precision::F32, &longer).is_err());
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = encode(&Tensor::ones(&[2, 2]));
        bytes[0] ^= 0xFF;
        let err = decode(Precision::F32, &bytes).unwrap_err();
        assert!(matches!(err, EnsemblerError::WireFormat(_)));
        // Each kind's magic word is its own: an f32 blob is not an int8 one.
        let bytes = encode(&Tensor::ones(&[2, 2]));
        assert!(decode(Precision::Int8, &bytes).is_err());
    }

    #[test]
    fn implausible_rank_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&WIRE_MAGIC.to_be_bytes());
        buf.extend_from_slice(&99u32.to_be_bytes());
        let err = decode(Precision::F32, &buf).unwrap_err();
        assert!(err.to_string().contains("rank"));
    }

    #[test]
    fn quantized_encode_decode_round_trips_exactly() {
        let mut rng = Rng::seed_from(3);
        let t = Tensor::from_fn(&[3, 2, 4, 4], |_| rng.normal());
        let q = QTensorBatch::quantize_batch(&t);
        let back = decode(Precision::Int8, &encode(&q)).unwrap();
        assert_eq!(back, Features::Int8(q));
    }

    #[test]
    fn quantized_payload_is_roughly_a_quarter_of_f32() {
        let t = Tensor::from_fn(&[1, 16, 8, 8], |i| (i as f32 * 0.01).sin());
        let f32_len = encode(&t).len();
        let q_len = encode(&QTensorBatch::quantize_batch(&t)).len();
        assert!(
            (q_len as f64) < 0.3 * f32_len as f64,
            "{q_len} vs {f32_len}"
        );
    }

    #[test]
    fn quantized_decode_rejects_malformed_payloads() {
        let q = QTensorBatch::quantize_batch(&Tensor::ones(&[2, 3]));
        let bytes = encode(&q);
        let decode = |bytes: &[u8]| decode(Precision::Int8, bytes);
        // Truncated inside the data, the scales and the header.
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode(&bytes[..10]).is_err());
        assert!(decode(&bytes[..3]).is_err());
        assert!(decode(&[]).is_err());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_err());
        // Garbage scale: NaN is rejected by from_parts.
        let mut bad = bytes.clone();
        let scale_off = 4 + 4 + 2 * 4; // magic + rank + dims
        bad[scale_off..scale_off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = decode(&bad).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        // Zero rank and absurd rank.
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&0u32.to_be_bytes());
        assert!(decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4..8].copy_from_slice(&99u32.to_be_bytes());
        assert!(decode(&bad).is_err());
        // An absurd batch extent in a tiny payload must be rejected before
        // the scales vector is allocated, not abort on an OOM allocation.
        let mut bad = bytes;
        bad[8..12].copy_from_slice(&u32::MAX.to_be_bytes()); // dim 0
        let err = decode(&bad).unwrap_err();
        assert!(err.to_string().contains("samples"), "{err}");
    }
}
