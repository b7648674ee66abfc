//! Versioned, checksummed binary model artifacts.
//!
//! This is the boundary between training and serving: a trained split
//! pipeline is exported once into a self-describing byte container and every
//! serving binary loads it back without re-running training (or, today,
//! without re-deriving weights from a seed). The container is designed in the
//! spirit of the serving wire codec — a magic word, an explicit format
//! version, length-prefixed fields, and a CRC-32 trailer over everything that
//! precedes it — so a corrupted, truncated or stale file is always rejected
//! with a typed [`ArtifactError`], never loaded as a silently wrong model.
//!
//! Byte layout (all integers big-endian, tensor data little-endian `f32`,
//! matching the wire tensor blobs):
//!
//! ```text
//! u32  magic            0x454E534D ("ENSM")
//! u16  format version   1
//! str  name             u32 length + UTF-8 bytes
//! str  label            u32 length + UTF-8 bytes
//! u32  n                ensemble size
//! u32  p                selected count
//! u8   precision        0 = f32, 1 = int8
//! —    architecture     ResNetConfig fields (see below)
//! u32  selector count   + that many u32 active indices
//! f32  noise sigma      (bit pattern, big-endian)
//! —    noise pattern    one tensor blob
//! u8   dropout flag     0 = none; 1 = f32 probability + u64 seed follow
//! —    head             tensor group (u32 count + tensors)
//! u32  body count       + that many tensor groups
//! —    tail             tensor group
//! u32  CRC-32 trailer   IEEE 802.3, over every byte above
//! ```
//!
//! A tensor blob is `u32 rank + rank × u32 dims + dims-product × f32 LE` — the
//! `f32` body of [`ensembler_tensor::bytes`], whose strict reader does every
//! read here (the wire frame and the feature blobs use the same one).
//! Decoding is structural only — bounds-checked reads, sane rank/count
//! guards, no trailing bytes — while *semantic* validation (does this
//! describe a buildable pipeline?) happens when the `ensembler` crate
//! reconstructs a model from the artifact, so a hand-written tiny artifact
//! still round-trips bytes exactly for documentation and tests.
//!
//! # Examples
//!
//! ```
//! use ensembler_nn::{ArtifactPrecision, ModelArtifact};
//! use ensembler_nn::models::ResNetConfig;
//! use ensembler_tensor::Tensor;
//!
//! let artifact = ModelArtifact {
//!     name: "demo".to_string(),
//!     label: "Ensembler".to_string(),
//!     n: 1,
//!     p: 1,
//!     precision: ArtifactPrecision::F32,
//!     config: ResNetConfig::tiny_for_tests(),
//!     selector: vec![0],
//!     noise_sigma: 0.0,
//!     noise_pattern: Tensor::zeros(&[1]),
//!     dropout: None,
//!     head: vec![Tensor::zeros(&[2])],
//!     bodies: vec![vec![Tensor::zeros(&[2])]],
//!     tail: vec![Tensor::zeros(&[2])],
//! };
//! let bytes = artifact.encode();
//! let back = ModelArtifact::decode(&bytes)?;
//! assert_eq!(back, artifact);
//! # Ok::<(), ensembler_nn::ArtifactError>(())
//! ```

use crate::models::ResNetConfig;
pub use ensembler_tensor::bytes::crc32;
use ensembler_tensor::bytes::{
    put_f32, put_string, put_tensor, put_u16, put_u32, put_u64, put_u8, DecodeError, Reader,
};
use ensembler_tensor::Tensor;
use std::path::Path;

/// Magic word opening every model artifact: `"ENSM"` as a big-endian `u32`.
pub const ARTIFACT_MAGIC: u32 = 0x454E_534D;

/// The current (and only) artifact format version.
pub const ARTIFACT_VERSION: u16 = 1;

/// Numeric precision the artifact's weights are intended to serve at.
///
/// Int8 artifacts still store `f32` tensors: quantization is deterministic
/// from the float weights, so re-quantizing at load time reproduces the
/// exact serving model while keeping one canonical weight encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactPrecision {
    /// Serve the weights as plain `f32`.
    F32,
    /// Quantize the server bodies to int8 at load time.
    Int8,
}

impl ArtifactPrecision {
    fn to_byte(self) -> u8 {
        match self {
            ArtifactPrecision::F32 => 0,
            ArtifactPrecision::Int8 => 1,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, ArtifactError> {
        match byte {
            0 => Ok(ArtifactPrecision::F32),
            1 => Ok(ArtifactPrecision::Int8),
            other => Err(ArtifactError::Malformed(format!(
                "unknown precision byte {other:#04x}"
            ))),
        }
    }
}

/// A decoded (or to-be-encoded) model artifact: metadata, architecture and
/// every parameter tensor of a split-inference pipeline.
///
/// The struct is plain data on purpose — the `ensembler` crate owns the
/// conversion to and from a live pipeline, and tests can hand-craft tiny
/// artifacts without building a real model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Registry name the model is served under.
    pub name: String,
    /// Human-readable defence label (e.g. `"Ensembler"`).
    pub label: String,
    /// Ensemble size `N` (number of server bodies).
    pub n: u32,
    /// Selected count `P` (number of active bodies).
    pub p: u32,
    /// Serving precision the exporter intended.
    pub precision: ArtifactPrecision,
    /// The backbone architecture; rebuilt deterministically at load time.
    pub config: ResNetConfig,
    /// The client's private selector: active body indices, sorted ascending.
    pub selector: Vec<u32>,
    /// Standard deviation the fixed noise pattern was drawn with.
    pub noise_sigma: f32,
    /// The fixed per-sample noise pattern added to transmitted features.
    pub noise_pattern: Tensor,
    /// Optional feature-dropout defence: `(probability, seed)`.
    pub dropout: Option<(f32, u64)>,
    /// Parameter tensors of the client head, in [`crate::Layer::params`]
    /// order.
    pub head: Vec<Tensor>,
    /// Parameter tensors of each server body, one group per body.
    pub bodies: Vec<Vec<Tensor>>,
    /// Parameter tensors of the client tail.
    pub tail: Vec<Tensor>,
}

/// Typed rejection of an artifact that cannot be decoded or loaded.
///
/// Every corruption mode — truncation, bit flips, absurd declared sizes,
/// stale versions — maps to one of these variants; decoding never panics and
/// never returns a partially-filled artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file does not start with [`ARTIFACT_MAGIC`].
    Magic {
        /// The word actually found where the magic should be.
        found: u32,
    },
    /// The format version is newer (or older) than this build understands.
    UnsupportedVersion {
        /// The version stamped on the artifact.
        found: u16,
        /// The version this build supports.
        supported: u16,
    },
    /// The CRC-32 trailer does not match the preceding bytes.
    Checksum {
        /// Checksum recomputed over the received bytes.
        expected: u32,
        /// Checksum stored in the trailer.
        found: u32,
    },
    /// The byte structure is invalid: truncated fields, implausible counts,
    /// bad UTF-8 or trailing garbage.
    Malformed(String),
    /// The bytes decoded cleanly but do not describe a buildable model
    /// (inconsistent architecture, out-of-range selector, shape mismatches).
    Invalid(String),
    /// Reading or writing the artifact file failed.
    Io(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Magic { found } => {
                write!(f, "not a model artifact: magic word {found:#010x}")
            }
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads version {supported})"
            ),
            ArtifactError::Checksum { expected, found } => write!(
                f,
                "artifact checksum mismatch: computed {expected:#010x}, trailer says {found:#010x}"
            ),
            ArtifactError::Malformed(message) => write!(f, "malformed artifact: {message}"),
            ArtifactError::Invalid(message) => write!(f, "invalid model artifact: {message}"),
            ArtifactError::Io(message) => write!(f, "artifact I/O error: {message}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<DecodeError> for ArtifactError {
    fn from(e: DecodeError) -> Self {
        ArtifactError::Malformed(e.to_string())
    }
}

fn put_tensor_group(buf: &mut Vec<u8>, tensors: &[Tensor]) {
    put_u32(buf, tensors.len() as u32);
    for tensor in tensors {
        put_tensor(buf, tensor);
    }
}

fn take_tensor_group(reader: &mut Reader<'_>, what: &str) -> Result<Vec<Tensor>, DecodeError> {
    let count = reader.u32(what)? as usize;
    // Each tensor costs at least its rank word.
    reader.check_count(count, 4, &format!("{what} tensors"))?;
    let mut tensors = Vec::with_capacity(count);
    for index in 0..count {
        let tensor = reader.tensor(what);
        tensors.push(tensor.map_err(|e| DecodeError::new(format!("{what} tensor {index}: {e}")))?);
    }
    Ok(tensors)
}

/// A `u32` count followed by that many `u32` values.
fn take_u32_list(reader: &mut Reader<'_>, what: &str) -> Result<Vec<u32>, DecodeError> {
    let count = reader.u32(what)? as usize;
    reader.check_count(count, 4, what)?;
    (0..count).map(|_| reader.u32(what)).collect()
}

impl ModelArtifact {
    /// Serialises the artifact into its canonical byte form, CRC trailer
    /// included. Encoding is deterministic: the same artifact always produces
    /// the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, ARTIFACT_MAGIC);
        put_u16(&mut buf, ARTIFACT_VERSION);
        put_string(&mut buf, &self.name);
        put_string(&mut buf, &self.label);
        put_u32(&mut buf, self.n);
        put_u32(&mut buf, self.p);
        put_u8(&mut buf, self.precision.to_byte());
        put_u32(&mut buf, self.config.input_channels as u32);
        put_u32(&mut buf, self.config.image_size as u32);
        put_u32(&mut buf, self.config.stem_channels as u32);
        put_u32(&mut buf, self.config.stage_channels.len() as u32);
        for &channels in &self.config.stage_channels {
            put_u32(&mut buf, channels as u32);
        }
        put_u32(&mut buf, self.config.blocks_per_stage as u32);
        put_u32(&mut buf, self.config.num_classes as u32);
        put_u8(&mut buf, u8::from(self.config.use_stem_pool));
        put_u32(&mut buf, self.selector.len() as u32);
        for &index in &self.selector {
            put_u32(&mut buf, index);
        }
        put_f32(&mut buf, self.noise_sigma);
        put_tensor(&mut buf, &self.noise_pattern);
        match self.dropout {
            None => put_u8(&mut buf, 0),
            Some((probability, seed)) => {
                put_u8(&mut buf, 1);
                put_f32(&mut buf, probability);
                put_u64(&mut buf, seed);
            }
        }
        put_tensor_group(&mut buf, &self.head);
        put_u32(&mut buf, self.bodies.len() as u32);
        for body in &self.bodies {
            put_tensor_group(&mut buf, body);
        }
        put_tensor_group(&mut buf, &self.tail);
        let checksum = crc32(&buf);
        put_u32(&mut buf, checksum);
        buf
    }

    /// Decodes an artifact from its byte form.
    ///
    /// Validation here is *structural*: magic, version, checksum and byte
    /// layout. Whether the decoded artifact describes a buildable model is
    /// checked when a pipeline is reconstructed from it.
    ///
    /// # Errors
    ///
    /// Returns the matching [`ArtifactError`] variant for a wrong magic word,
    /// an unsupported format version, a checksum mismatch, or any structural
    /// defect (truncation, implausible counts, trailing bytes).
    pub fn decode(bytes: &[u8]) -> Result<Self, ArtifactError> {
        // magic + version + trailer is the absolute minimum.
        if bytes.len() < 10 {
            return Err(ArtifactError::Malformed(format!(
                "{} bytes is too short for an artifact header and trailer",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let mut reader = Reader::new(body);
        let magic = reader.u32("magic word")?;
        if magic != ARTIFACT_MAGIC {
            return Err(ArtifactError::Magic { found: magic });
        }
        let version = reader.u16("format version")?;
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        let found = Reader::new(trailer).u32("checksum")?;
        let expected = crc32(body);
        if expected != found {
            return Err(ArtifactError::Checksum { expected, found });
        }

        let name = reader.string("model name")?;
        let label = reader.string("model label")?;
        let n = reader.u32("ensemble size")?;
        let p = reader.u32("selected count")?;
        let precision = ArtifactPrecision::from_byte(reader.u8("precision")?)?;

        let input_channels = reader.u32("architecture")? as usize;
        let image_size = reader.u32("architecture")? as usize;
        let stem_channels = reader.u32("architecture")? as usize;
        let stage_channels = take_u32_list(&mut reader, "stage channels")?
            .into_iter()
            .map(|channels| channels as usize)
            .collect();
        let blocks_per_stage = reader.u32("architecture")? as usize;
        let num_classes = reader.u32("architecture")? as usize;
        let use_stem_pool = match reader.u8("stem pool flag")? {
            0 => false,
            1 => true,
            other => {
                return Err(ArtifactError::Malformed(format!(
                    "stem pool flag must be 0 or 1, found {other}"
                )))
            }
        };
        let config = ResNetConfig {
            input_channels,
            image_size,
            stem_channels,
            stage_channels,
            blocks_per_stage,
            num_classes,
            use_stem_pool,
        };

        let selector = take_u32_list(&mut reader, "selector indices")?;
        let noise_sigma = reader.f32("noise sigma")?;
        let noise_pattern = reader.tensor("noise pattern")?;
        let dropout = match reader.u8("dropout flag")? {
            0 => None,
            1 => {
                let probability = reader.f32("dropout probability")?;
                let seed = reader.u64("dropout seed")?;
                Some((probability, seed))
            }
            other => {
                return Err(ArtifactError::Malformed(format!(
                    "dropout flag must be 0 or 1, found {other}"
                )))
            }
        };

        let head = take_tensor_group(&mut reader, "head")?;
        let body_count = reader.u32("body count")? as usize;
        // Each body group costs at least its count word.
        reader.check_count(body_count, 4, "bodies")?;
        let mut bodies = Vec::with_capacity(body_count);
        for index in 0..body_count {
            bodies.push(take_tensor_group(&mut reader, &format!("body {index}"))?);
        }
        let tail = take_tensor_group(&mut reader, "tail")?;
        reader.finish("artifact payload")?;

        Ok(Self {
            name,
            label,
            n,
            p,
            precision,
            config,
            selector,
            noise_sigma,
            noise_pattern,
            dropout,
            head,
            bodies,
            tail,
        })
    }

    /// Writes the encoded artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] if the file cannot be written.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let path = path.as_ref();
        std::fs::write(path, self.encode())
            .map_err(|e| ArtifactError::Io(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads and decodes an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] if the file cannot be read, or any
    /// [`ModelArtifact::decode`] error if its contents are not a valid
    /// artifact.
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io(format!("cannot read {}: {e}", path.display())))?;
        Self::decode(&bytes)
    }

    /// Total number of parameter scalars stored across head, bodies and tail.
    pub fn scalar_count(&self) -> usize {
        let group: usize = self.head.iter().map(Tensor::len).sum::<usize>()
            + self.tail.iter().map(Tensor::len).sum::<usize>();
        group
            + self
                .bodies
                .iter()
                .flat_map(|body| body.iter().map(Tensor::len))
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    fn tiny_artifact() -> ModelArtifact {
        ModelArtifact {
            name: "m".to_string(),
            label: "Ensembler".to_string(),
            n: 2,
            p: 1,
            precision: ArtifactPrecision::Int8,
            config: ResNetConfig::tiny_for_tests(),
            selector: vec![1],
            noise_sigma: 0.25,
            noise_pattern: t(vec![0.5, -0.5], &[2]),
            dropout: Some((0.5, 99)),
            head: vec![t(vec![1.0], &[1])],
            bodies: vec![vec![t(vec![2.0], &[1])], vec![t(vec![3.0], &[1])]],
            tail: vec![t(vec![4.0, 5.0], &[2, 1])],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let artifact = tiny_artifact();
        let bytes = artifact.encode();
        let back = ModelArtifact::decode(&bytes).unwrap();
        assert_eq!(back, artifact);
    }

    #[test]
    fn encoding_is_deterministic() {
        let artifact = tiny_artifact();
        assert_eq!(artifact.encode(), artifact.encode());
    }

    #[test]
    fn wrong_magic_is_a_typed_error() {
        let mut bytes = tiny_artifact().encode();
        bytes[0] = b'X';
        // Re-stamp the trailer so the magic check (not the CRC) fires.
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::Magic { .. })
        ));
    }

    #[test]
    fn stale_version_is_a_typed_error() {
        let mut bytes = tiny_artifact().encode();
        bytes[4..6].copy_from_slice(&(ARTIFACT_VERSION + 1).to_be_bytes());
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::UnsupportedVersion {
                found: ARTIFACT_VERSION + 1,
                supported: ARTIFACT_VERSION
            })
        );
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let mut bytes = tiny_artifact().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::Checksum { .. })
        ));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = tiny_artifact().encode();
        for len in 0..bytes.len() {
            assert!(
                ModelArtifact::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let artifact = tiny_artifact();
        let mut bytes = artifact.encode();
        let len = bytes.len();
        bytes.splice(len - 4..len - 4, [0u8; 4]);
        let crc = crc32(&bytes[..len]);
        bytes[len..].copy_from_slice(&crc.to_be_bytes());
        assert!(matches!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let artifact = tiny_artifact();
        let dir = std::env::temp_dir().join("ensembler-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.bin");
        artifact.write_to_file(&path).unwrap();
        let back = ModelArtifact::read_from_file(&path).unwrap();
        assert_eq!(back, artifact);
        let missing = ModelArtifact::read_from_file(dir.join("nope.bin"));
        assert!(matches!(missing, Err(ArtifactError::Io(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scalar_count_sums_all_groups() {
        assert_eq!(tiny_artifact().scalar_count(), 1 + 1 + 1 + 2);
    }
}
