//! The one byte codec under the wire frame, the feature blob and the model
//! artifact: a CRC-32, big-endian `put_*` writers over a caller-owned
//! `Vec<u8>`, a strict bounds-checked [`Reader`], and the two tensor bodies.
//!
//! Every byte a peer or a file hands the workspace is hostile input — in the
//! paper the adversary *is* the server — so there is exactly one parser for
//! it. The frame (`ensembler_serve::protocol`), the feature blobs
//! (`ensembler::split`) and the artifact container (`ensembler_nn::artifact`)
//! add their own magic words and field order on top; none of them reads a
//! length, multiplies dimensions or indexes a buffer itself.
//!
//! Integers are big-endian; tensor data is little-endian. The two tensor
//! bodies are
//!
//! ```text
//! f32   u32 rank | rank × u32 dims | product(dims) × f32 LE
//! int8  u32 rank | rank × u32 dims | dims[0] × f32 LE scales | product(dims) × i8
//! ```
//!
//! and both decoders enforce the same rules: `rank ≤` [`MAX_TENSOR_RANK`]
//! (int8 additionally `rank ≥ 1`, the batch axis its scales are per), the
//! element count and the byte count computed with checked arithmetic, and no
//! allocation sized by a declared count before the bytes that count implies
//! are known to be present.
//!
//! # Examples
//!
//! ```
//! use ensembler_tensor::bytes::{put_tensor, put_u32, Reader};
//! use ensembler_tensor::Tensor;
//!
//! let tensor = Tensor::from_vec(vec![1.0, 2.0], &[2])?;
//! let mut buf = Vec::new();
//! put_u32(&mut buf, 7);
//! put_tensor(&mut buf, &tensor);
//!
//! let mut reader = Reader::new(&buf);
//! assert_eq!(reader.u32("answer")?, 7);
//! assert_eq!(reader.tensor("tensor")?, tensor);
//! reader.finish("example")?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::shape::checked_len;
use crate::{QTensorBatch, Tensor};
use std::fmt;

/// Tensor rank above which a decoded body is malformed rather than merely
/// exotic (the stack uses at most four axes).
pub const MAX_TENSOR_RANK: usize = 8;

/// Why a byte buffer could not be decoded: truncation, an implausible
/// declared size, bad UTF-8, trailing bytes. Each format converts it into its
/// own typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl DecodeError {
    /// Creates an error carrying a human-readable description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Bytes [`crc32`] folds into its register per step (slice-by-16).
const CRC_SLICES: usize = 16;

/// The lookup tables of [`crc32`], built at compile time: `CRC_TABLES[0]` is
/// the classic byte-at-a-time table, and `CRC_TABLES[k][n]` is the CRC of
/// byte `n` followed by `k` zero bytes, so [`CRC_SLICES`] input bytes fold
/// into the register with as many independent lookups.
const CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut n = 0usize;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut n = 0usize;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into a running (pre-inverted) CRC register one byte at a
/// time: the tail of [`crc32`], and the oracle its tests compare against.
fn crc32_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &byte in bytes {
        crc = CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes` — the trailer of
/// both the wire frame and the model artifact. Sixteen bytes per step
/// through compile-time tables (the register only reaches the first four),
/// the remainder byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(CRC_SLICES);
    for word in &mut words {
        let register = crc.to_le_bytes();
        let mut next = 0u32;
        for (i, &byte) in word.iter().enumerate() {
            let byte = if i < 4 { byte ^ register[i] } else { byte };
            next ^= CRC_TABLES[CRC_SLICES - 1 - i][byte as usize];
        }
        crc = next;
    }
    crc32_bytewise(crc, words.remainder()) ^ 0xFFFF_FFFF
}

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, value: u8) {
    buf.push(value);
}

/// Appends a big-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, value: u16) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends the bit pattern of an `f32` as a big-endian `u32`.
pub fn put_f32(buf: &mut Vec<u8>, value: f32) {
    put_u32(buf, value.to_bits());
}

/// Appends a string as a `u32` byte length followed by its UTF-8 bytes.
pub fn put_string(buf: &mut Vec<u8>, value: &str) {
    put_u32(buf, value.len() as u32);
    buf.extend_from_slice(value.as_bytes());
}

fn put_shape(buf: &mut Vec<u8>, shape: &[usize]) {
    put_u32(buf, shape.len() as u32);
    for &dim in shape {
        put_u32(buf, dim as u32);
    }
}

/// Appends `values` as little-endian `f32`s in one pass: the destination is
/// sized once and filled through fixed 4-byte chunks, which the optimiser
/// turns into a plain copy on little-endian hosts.
fn put_le_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    let start = buf.len();
    buf.resize(start + 4 * values.len(), 0);
    for (chunk, value) in buf[start..].chunks_exact_mut(4).zip(values) {
        chunk.copy_from_slice(&value.to_le_bytes());
    }
}

/// Appends the `f32` tensor body: rank, dims, little-endian data.
pub fn put_tensor(buf: &mut Vec<u8>, tensor: &Tensor) {
    buf.reserve(4 + 4 * tensor.rank() + 4 * tensor.len());
    put_shape(buf, tensor.shape());
    put_le_f32s(buf, tensor.data());
}

/// Appends the int8 tensor body: rank, dims, one little-endian `f32` scale
/// per axis-0 sample, then the `i8` values.
pub fn put_qtensor(buf: &mut Vec<u8>, tensor: &QTensorBatch) {
    buf.reserve(4 + 4 * tensor.shape().len() + 4 * tensor.scales().len() + tensor.len());
    put_shape(buf, tensor.shape());
    put_le_f32s(buf, tensor.scales());
    let start = buf.len();
    buf.resize(start + tensor.len(), 0);
    for (byte, value) in buf[start..].iter_mut().zip(tensor.data()) {
        *byte = *value as u8;
    }
}

/// Decodes little-endian `f32`s in one pass (the mirror of [`put_le_f32s`]).
fn le_f32s(bytes: &[u8]) -> Vec<f32> {
    let mut values = vec![0.0f32; bytes.len() / 4];
    for (value, chunk) in values.iter_mut().zip(bytes.chunks_exact(4)) {
        *value = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    values
}

/// A strict reader over a byte slice: every read is bounds-checked, no
/// allocation is sized by an unchecked declared count, and
/// [`Reader::finish`] rejects trailing bytes, so no malformed buffer decodes
/// by accident. The `what` every method takes names the field in the error.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Consumes exactly `n` bytes; like every read below, a [`DecodeError`]
    /// naming `what` if fewer remain (and nothing is consumed).
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError::new(format!(
                "truncated inside the {what}: need {n} bytes, have {}",
                self.rest.len()
            )));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], DecodeError> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returned N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self, what: &str) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.array(what)?))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array(what)?))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array(what)?))
    }

    /// Reads an `f32` stored as a big-endian bit pattern.
    pub fn f32(&mut self, what: &str) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    /// Reads a `u32` length followed by that many bytes of valid UTF-8.
    pub fn string(&mut self, what: &str) -> Result<String, DecodeError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new(format!("{what} is not valid UTF-8")))
    }

    /// Guards a declared count of `what` against the bytes actually remaining
    /// (each costs at least `min_bytes`), so an absurd count cannot size an
    /// absurd allocation.
    pub fn check_count(
        &self,
        count: usize,
        min_bytes: usize,
        what: &str,
    ) -> Result<(), DecodeError> {
        if count > self.rest.len() / min_bytes.max(1) {
            return Err(DecodeError::new(format!(
                "{count} {what} declared but only {} bytes remain",
                self.rest.len()
            )));
        }
        Ok(())
    }

    /// Succeeds only if every byte was consumed.
    pub fn finish(self, what: &str) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::new(format!(
                "{} trailing bytes after the {what}",
                self.rest.len()
            )))
        }
    }

    /// Reads rank and dims, and returns them with the checked element count.
    fn shape(&mut self, min_rank: usize, what: &str) -> Result<(Vec<usize>, usize), DecodeError> {
        let rank = self.u32(what)? as usize;
        if !(min_rank..=MAX_TENSOR_RANK).contains(&rank) {
            return Err(DecodeError::new(format!(
                "{what} declares implausible tensor rank {rank}"
            )));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(self.u32(what)? as usize);
        }
        let elements = checked_len(&shape).map_err(|e| DecodeError::new(format!("{what}: {e}")))?;
        Ok((shape, elements))
    }

    /// Reads the `f32` tensor body written by [`put_tensor`]: an error for a
    /// rank above [`MAX_TENSOR_RANK`], dims whose product or byte count
    /// overflows `usize`, or truncation.
    pub fn tensor(&mut self, what: &str) -> Result<Tensor, DecodeError> {
        let (shape, elements) = self.shape(0, what)?;
        let byte_len = elements.checked_mul(4).ok_or_else(|| {
            DecodeError::new(format!("{what}: shape {shape:?} overflows usize in bytes"))
        })?;
        let data = le_f32s(self.take(byte_len, what)?);
        Tensor::from_vec(data, &shape).map_err(|e| DecodeError::new(format!("{what}: {e}")))
    }

    /// Reads the int8 tensor body written by [`put_qtensor`]: an error for a
    /// rank of zero or above [`MAX_TENSOR_RANK`], a batch extent the
    /// remaining bytes cannot hold scales for, dims whose product overflows
    /// `usize`, truncation, or a scale that is not finite and positive.
    pub fn qtensor(&mut self, what: &str) -> Result<QTensorBatch, DecodeError> {
        let (shape, elements) = self.shape(1, what)?;
        let batch = shape[0];
        self.check_count(batch, 4, "samples")?;
        let scales = le_f32s(self.take(4 * batch, what)?);
        let bytes = self.take(elements, what)?;
        let mut data = vec![0i8; elements];
        for (value, byte) in data.iter_mut().zip(bytes) {
            *value = *byte as i8;
        }
        QTensorBatch::from_parts(data, &shape, scales)
            .map_err(|e| DecodeError::new(format!("{what}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_strings_round_trip_and_finish_is_strict() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0x0102);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -0.0);
        put_string(&mut buf, "héllo");
        assert_eq!(&buf[1..3], &[1, 2], "big-endian");

        let mut reader = Reader::new(&buf);
        assert_eq!(reader.u8("a").unwrap(), 0xAB);
        assert_eq!(reader.u16("b").unwrap(), 0x0102);
        assert_eq!(reader.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(reader.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(reader.f32("e").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(reader.string("f").unwrap(), "héllo");
        assert_eq!(reader.remaining(), 0);
        reader.finish("buffer").unwrap();

        let mut reader = Reader::new(&buf);
        reader.u8("a").unwrap();
        let err = reader.finish("buffer").unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn truncation_bad_utf8_and_absurd_counts_are_typed_errors() {
        let mut reader = Reader::new(&[1, 2, 3]);
        let err = reader.u32("count").unwrap_err();
        assert!(err.to_string().contains("truncated inside the count"));
        assert_eq!(reader.remaining(), 3, "a failed read consumes nothing");

        // A string whose length field dwarfs the buffer, and one that is not UTF-8.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Reader::new(&buf).string("name").is_err());
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let err = Reader::new(&buf).string("name").unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");

        let reader = Reader::new(&[0; 8]);
        assert!(reader.check_count(2, 4, "entries").is_ok());
        assert!(reader.check_count(3, 4, "entries").is_err());
        assert!(reader.check_count(8, 0, "entries").is_ok());
    }

    #[test]
    fn tensor_bodies_round_trip_at_the_declared_length() {
        let tensor = Tensor::from_fn(&[2, 3], |i| i as f32 - 2.5);
        let mut buf = vec![0xEE];
        put_tensor(&mut buf, &tensor);
        assert_eq!(
            buf.len(),
            1 + 4 + 2 * 4 + 6 * 4,
            "appended, not overwritten"
        );
        let mut reader = Reader::new(&buf[1..]);
        assert_eq!(reader.tensor("t").unwrap(), tensor);
        reader.finish("t").unwrap();

        let quantized = QTensorBatch::quantize_batch(&tensor);
        let mut buf = Vec::new();
        put_qtensor(&mut buf, &quantized);
        assert_eq!(buf.len(), 4 + 2 * 4 + 2 * 4 + 6);
        let mut reader = Reader::new(&buf);
        assert_eq!(reader.qtensor("q").unwrap(), quantized);
        reader.finish("q").unwrap();

        // Rank 0 is a scalar for f32 and malformed for int8.
        let scalar = Tensor::scalar(3.0);
        let mut buf = Vec::new();
        put_tensor(&mut buf, &scalar);
        assert_eq!(Reader::new(&buf).tensor("t").unwrap(), scalar);
        assert!(Reader::new(&buf).qtensor("q").is_err());
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle_at_every_length_and_alignment() {
        let oracle = |bytes: &[u8]| crc32_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the standard check value");
        assert_eq!(crc32(b""), 0);

        // Every length around the 16-byte step at every start offset, so the
        // word loop and the byte tail meet at each possible boundary.
        let bytes: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(197) ^ (i >> 2)) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(crc32(slice), oracle(slice), "offset {offset}, len {len}");
            }
        }

        // Bodies the size of the benchmark's two request frames (one and 32
        // samples of a [16, 8, 8] feature map), behind an odd-length prefix.
        for batch in [1usize, 32] {
            let features = Tensor::from_fn(&[batch, 16, 8, 8], |i| (i as f32 * 0.37).sin());
            let mut frame = vec![0x45, 0x4E, 0x53, 0x57, 0x00, 0x05, 0x09];
            put_tensor(&mut frame, &features);
            assert_eq!(crc32(&frame), oracle(&frame), "batch {batch}");
        }
    }

    #[test]
    fn bulk_tensor_bodies_equal_the_per_element_encoding_bit_for_bit() {
        // Values a careless copy would normalise: NaNs with payloads and
        // both signs, the two zeros, subnormals, the extremes.
        let specials = [
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFFC1_2345),
            f32::from_bits(0x7F80_0001),
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
        ];
        let tensor = Tensor::from_vec(specials.to_vec(), &[1, specials.len()]).unwrap();
        let mut expected = Vec::new();
        put_shape(&mut expected, tensor.shape());
        for value in &specials {
            expected.extend_from_slice(&value.to_le_bytes());
        }
        let mut buf = Vec::new();
        put_tensor(&mut buf, &tensor);
        assert_eq!(buf, expected);
        let decoded = Reader::new(&buf).tensor("t").unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&decoded),
            bits(&tensor),
            "NaN payloads and -0.0 survive"
        );

        // Int8: every byte value, with scales that exercise the f32 path.
        let values: Vec<i8> = (0..=255u8).map(|b| b as i8).collect();
        let scales = vec![f32::MIN_POSITIVE, 3.25];
        let quantized =
            QTensorBatch::from_parts(values.clone(), &[2, 128], scales.clone()).unwrap();
        let mut expected = Vec::new();
        put_shape(&mut expected, quantized.shape());
        for scale in &scales {
            expected.extend_from_slice(&scale.to_le_bytes());
        }
        expected.extend(values.iter().map(|&v| v as u8));
        let mut buf = Vec::new();
        put_qtensor(&mut buf, &quantized);
        assert_eq!(buf, expected);
        assert_eq!(Reader::new(&buf).qtensor("q").unwrap(), quantized);
    }

    /// A body header with the given dims and no data.
    fn header(dims: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, dims.len() as u32);
        for &dim in dims {
            put_u32(&mut buf, dim);
        }
        buf
    }

    #[test]
    fn hostile_headers_are_rejected_by_both_bodies() {
        let big = 1 << 16;
        for dims in [
            // Product overflows usize (2^64 on a 64-bit host).
            vec![big, big, big, big],
            vec![u32::MAX; 8],
            // A zero extent must not launder its neighbours.
            vec![0, u32::MAX, u32::MAX, u32::MAX],
            vec![u32::MAX, u32::MAX, u32::MAX, 0],
            // Fits, but no such data follows.
            vec![u32::MAX, u32::MAX],
            vec![u32::MAX],
            // Rank above the cap.
            vec![1; 9],
        ] {
            let buf = header(&dims);
            assert!(Reader::new(&buf).tensor("t").is_err(), "f32 {dims:?}");
            assert!(Reader::new(&buf).qtensor("q").is_err(), "int8 {dims:?}");
        }
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX); // rank
        assert!(Reader::new(&buf).tensor("t").is_err());
        assert!(Reader::new(&buf).qtensor("q").is_err());
        // An absurd batch extent is refused before the scales are allocated.
        let err = Reader::new(&header(&[u32::MAX, 1]))
            .qtensor("q")
            .unwrap_err();
        assert!(err.to_string().contains("samples"), "{err}");
    }
}
