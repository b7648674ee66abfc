//! The one request shape of the server stage: [`ServerRequest`] in,
//! [`Maps`] out.
//!
//! In the paper the server does exactly one thing — evaluate its bodies on
//! the features the client transmits. Precision (`f32` or int8) and body
//! range (every body, or the slice a sharded worker owns) are *fields* of
//! that one request, not separate code paths: the engine queues it, the wire
//! codec frames it, the remote client ships it and every pipeline answers it
//! in its one [`Defense::serve`](crate::Defense::serve), all without matching
//! on the combination.
//!
//! Everything a layer needs to know *about a payload kind* — its shape, its
//! admission cost, the bytes that identify its content, how to stack
//! single-sample payloads into a mini-batch and split the answer back, and
//! how it crosses to a backend of another precision
//! ([`Features::to_precision`], [`Maps::into_precision`]: the quantize /
//! dequantize round trips of the wire contract, written once) — is a method
//! here, so a further precision tier is one more variant of [`Features`] and
//! [`Maps`] and one more arm of their conversions, not an edit to every layer.

use crate::defense::Precision;
use crate::EnsemblerError;
use ensembler_tensor::{QTensorBatch, Tensor};
use std::borrow::Cow;
use std::ops::Range;

/// The transmitted features of a [`ServerRequest`], at either precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Features {
    /// Full-precision features, `[B, C, H, W]`.
    F32(Tensor),
    /// Per-sample-scaled int8 features, `[B, C, H, W]`.
    Int8(QTensorBatch),
}

/// The per-network feature maps answering a [`ServerRequest`], in body index
/// order, at the precision of the request.
#[derive(Debug, Clone, PartialEq)]
pub enum Maps {
    /// One `f32` `[B, F]` map per evaluated body.
    F32(Vec<Tensor>),
    /// One quantized `[B, F]` map per evaluated body.
    Int8(Vec<QTensorBatch>),
}

/// One unit of server work: evaluate the bodies in `range` (`None` = every
/// body) on `features`.
///
/// `None` and `Some(0..N)` compute the same maps but are distinct requests:
/// the first travels in the original full-ensemble frames, the second in the
/// sub-range frames a shard router sends. Either way a pipeline evaluates
/// only the bodies the request names.
///
/// # Examples
///
/// ```
/// use ensembler::{Defense, DefenseKind, Features, Maps, ServerRequest, SinglePipeline};
/// use ensembler_nn::models::ResNetConfig;
/// use ensembler_tensor::Tensor;
///
/// let pipeline = SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 1)?;
/// let features = pipeline.client_features(&Tensor::ones(&[2, 3, 8, 8]))?;
///
/// let request = ServerRequest::full(Features::F32(features.clone()));
/// assert_eq!(pipeline.serve(&request)?, Maps::F32(pipeline.server_outputs(&features)?));
/// # Ok::<(), ensembler::EnsemblerError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerRequest {
    /// The bodies to evaluate; `None` means the whole ensemble.
    pub range: Option<Range<usize>>,
    /// The transmitted features.
    pub features: Features,
}

impl ServerRequest {
    /// A request for every body of the ensemble.
    pub fn full(features: Features) -> Self {
        Self {
            range: None,
            features,
        }
    }

    /// A request for the bodies `range` only.
    pub fn ranged(range: Range<usize>, features: Features) -> Self {
        Self {
            range: Some(range),
            features,
        }
    }
}

/// The little-endian bit pattern of every value, as a byte stream.
fn le_bits(values: &[f32]) -> impl Iterator<Item = u8> + '_ {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes())
}

impl Features {
    /// The precision of the payload.
    pub fn precision(&self) -> Precision {
        match self {
            Features::F32(_) => Precision::F32,
            Features::Int8(_) => Precision::Int8,
        }
    }

    /// The payload's tensor shape.
    pub fn shape(&self) -> &[usize] {
        match self {
            Features::F32(tensor) => tensor.shape(),
            Features::Int8(batch) => batch.shape(),
        }
    }

    /// Payload bytes a request holds while in flight: four per `f32`
    /// element; one per int8 element plus one four-byte scale per sample.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Features::F32(tensor) => 4 * tensor.len() as u64,
            Features::Int8(batch) => batch.len() as u64 + 4 * batch.batch() as u64,
        }
    }

    /// The bytes that identify the payload's *content*: `f32` bit patterns
    /// little-endian, or the int8 values followed by the scales' bit
    /// patterns. Two payloads of one precision and shape are the same input
    /// to a defense exactly when these streams are equal, which is what the
    /// canary route key hashes.
    pub fn content_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        let (floats, bytes, scales): (&[f32], &[i8], &[f32]) = match self {
            Features::F32(tensor) => (tensor.data(), &[], &[]),
            Features::Int8(batch) => (&[], batch.data(), batch.scales()),
        };
        le_bits(floats)
            .chain(bytes.iter().map(|b| *b as u8))
            .chain(le_bits(scales))
    }

    /// The `f32` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::Engine`] if the payload is quantized.
    pub fn as_f32(&self) -> Result<&Tensor, EnsemblerError> {
        match self {
            Features::F32(tensor) => Ok(tensor),
            Features::Int8(_) => Err(wrong_precision(Precision::F32, Precision::Int8)),
        }
    }

    /// The quantized batch; the int8 twin of [`Features::as_f32`].
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::Engine`] if the payload is `f32`.
    pub fn as_int8(&self) -> Result<&QTensorBatch, EnsemblerError> {
        match self {
            Features::Int8(batch) => Ok(batch),
            Features::F32(_) => Err(wrong_precision(Precision::Int8, Precision::F32)),
        }
    }

    /// The payload as a backend of `precision` consumes it: borrowed when it
    /// already has that precision, quantized per sample on the way to an
    /// int8 backend, dequantized on the way to an `f32` one. Together with
    /// [`Maps::into_precision`] on the way back this *is* the wire contract:
    /// an int8 backend quantizes at both crossings even for an `f32` caller,
    /// an `f32` backend answers an int8 caller by dequantizing, evaluating
    /// and re-quantizing per sample.
    pub fn to_precision(&self, precision: Precision) -> Cow<'_, Features> {
        match (self, precision) {
            (Features::F32(tensor), Precision::Int8) => {
                Cow::Owned(Features::Int8(QTensorBatch::quantize_batch(tensor)))
            }
            (Features::Int8(batch), Precision::F32) => {
                Cow::Owned(Features::F32(batch.dequantize()))
            }
            _ => Cow::Borrowed(self),
        }
    }

    /// Normalises a payload to the single-sample `[1, C, H, W]` form the
    /// coalescing queue stacks: a rank-3 `f32` tensor gains the batch axis,
    /// a `[1, ...]` rank-4 payload passes through.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::ShapeMismatch`] for anything else — a
    /// pre-assembled batch must not enter the queue as one item.
    pub fn into_single(self) -> Result<Self, EnsemblerError> {
        match self {
            Features::F32(tensor) if tensor.rank() == 3 => {
                let mut unsqueezed = vec![1];
                unsqueezed.extend_from_slice(tensor.shape());
                Ok(Features::F32(
                    tensor
                        .reshape(&unsqueezed)
                        .expect("adding a batch axis preserves the element count"),
                ))
            }
            single if single.shape().len() == 4 && single.shape()[0] == 1 => Ok(single),
            other => Err(EnsemblerError::ShapeMismatch(format!(
                "the engine queue expects one [C, H, W] or [1, C, H, W] item, got {:?}",
                other.shape()
            ))),
        }
    }

    /// Stacks same-precision single-sample payloads along the batch axis
    /// (quantized bytes and scales verbatim, so stacking is exact).
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::ShapeMismatch`] when the items differ in
    /// shape or precision.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn stack(items: Vec<Features>) -> Result<Features, EnsemblerError> {
        let first = &items[0];
        if let Some(odd) = items
            .iter()
            .find(|item| item.precision() != first.precision() || item.shape() != first.shape())
        {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "cannot batch {:?} items of shapes {:?} and {:?}",
                first.precision(),
                first.shape(),
                odd.shape()
            )));
        }
        let mut tensors = Vec::new();
        let mut batches = Vec::new();
        for item in items {
            match item {
                Features::F32(tensor) => tensors.push(tensor),
                Features::Int8(batch) => batches.push(batch),
            }
        }
        Ok(if batches.is_empty() {
            Features::F32(Tensor::stack_batch(&tensors))
        } else {
            Features::Int8(QTensorBatch::stack(&batches))
        })
    }
}

impl Maps {
    /// The precision of the maps.
    pub fn precision(&self) -> Precision {
        match self {
            Maps::F32(_) => Precision::F32,
            Maps::Int8(_) => Precision::Int8,
        }
    }

    /// Number of maps (one per evaluated body).
    pub fn len(&self) -> usize {
        match self {
            Maps::F32(maps) => maps.len(),
            Maps::Int8(maps) => maps.len(),
        }
    }

    /// Whether no body was evaluated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `f32` maps.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::Engine`] if the maps are quantized — an
    /// `f32` request is always answered in `f32`, so this only fires on a
    /// [`Defense::serve`](crate::Defense::serve) that broke that contract.
    pub fn into_f32(self) -> Result<Vec<Tensor>, EnsemblerError> {
        match self {
            Maps::F32(maps) => Ok(maps),
            Maps::Int8(_) => Err(wrong_precision(Precision::F32, Precision::Int8)),
        }
    }

    /// The quantized maps; the int8 twin of [`Maps::into_f32`].
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::Engine`] if the maps are `f32`.
    pub fn into_int8(self) -> Result<Vec<QTensorBatch>, EnsemblerError> {
        match self {
            Maps::Int8(maps) => Ok(maps),
            Maps::F32(_) => Err(wrong_precision(Precision::Int8, Precision::F32)),
        }
    }

    /// The maps as a caller of `precision` receives them — the return leg of
    /// [`Features::to_precision`]: unchanged at their own precision, each map
    /// re-quantized per sample for an int8 caller, dequantized for an `f32`
    /// one.
    pub fn into_precision(self, precision: Precision) -> Maps {
        match (self, precision) {
            (Maps::F32(maps), Precision::Int8) => {
                Maps::Int8(maps.iter().map(QTensorBatch::quantize_batch).collect())
            }
            (Maps::Int8(maps), Precision::F32) => {
                Maps::F32(maps.iter().map(QTensorBatch::dequantize).collect())
            }
            (same, _) => same,
        }
    }

    /// The maps at positions `range` of these, in order: the share of a
    /// full answer that a request for the bodies `range` receives.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past [`Maps::len`].
    pub fn slice(self, range: Range<usize>) -> Maps {
        fn cut<T>(mut maps: Vec<T>, range: Range<usize>) -> Vec<T> {
            maps.truncate(range.end);
            maps.split_off(range.start)
        }
        match self {
            Maps::F32(maps) => Maps::F32(cut(maps, range)),
            Maps::Int8(maps) => Maps::Int8(cut(maps, range)),
        }
    }

    /// Appends `more` — the next bodies' maps, at the same precision — in
    /// index order.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::Engine`] when the precisions differ.
    pub fn append(&mut self, more: Maps) -> Result<(), EnsemblerError> {
        match (self, more) {
            (Maps::F32(maps), Maps::F32(more)) => maps.extend(more),
            (Maps::Int8(maps), Maps::Int8(more)) => maps.extend(more),
            (maps, more) => return Err(wrong_precision(maps.precision(), more.precision())),
        }
        Ok(())
    }

    /// Splits the maps of a stacked `rows`-sample evaluation back into one
    /// [`Maps`] per sample, each map keeping a leading batch axis of 1 — the
    /// inverse of [`Features::stack`], byte-exact at both precisions.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::ShapeMismatch`] when a map's batch axis is
    /// not `rows`.
    pub fn split_rows(&self, rows: usize) -> Result<Vec<Maps>, EnsemblerError> {
        let batch_of = |shape: &[usize]| {
            if shape.first() == Some(&rows) {
                Ok(())
            } else {
                Err(EnsemblerError::ShapeMismatch(format!(
                    "server body returned shape {shape:?} for a batch of {rows} feature maps"
                )))
            }
        };
        match self {
            Maps::F32(maps) => {
                maps.iter().try_for_each(|map| batch_of(map.shape()))?;
                Ok((0..rows)
                    .map(|row| {
                        Maps::F32(maps.iter().map(|map| tensor_row(map, row, rows)).collect())
                    })
                    .collect())
            }
            Maps::Int8(maps) => {
                maps.iter().try_for_each(|map| batch_of(map.shape()))?;
                Ok((0..rows)
                    .map(|row| Maps::Int8(maps.iter().map(|map| map.sample(row)).collect()))
                    .collect())
            }
        }
    }
}

fn wrong_precision(expected: Precision, got: Precision) -> EnsemblerError {
    EnsemblerError::Engine(format!("expected {expected:?} tensors, got {got:?}"))
}

/// Row `row` of a `[rows, ...]` tensor, as a `[1, ...]` tensor.
fn tensor_row(map: &Tensor, row: usize, rows: usize) -> Tensor {
    let row_len = map.len() / rows;
    let mut shape = map.shape().to_vec();
    shape[0] = 1;
    let data = map.data()[row * row_len..(row + 1) * row_len].to_vec();
    Tensor::from_vec(data, &shape).expect("row slice matches shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_item(seed: usize) -> Tensor {
        Tensor::from_fn(&[1, 2, 3, 3], |i| ((i + 7 * seed) as f32 * 0.1).sin())
    }

    #[test]
    fn stack_then_split_is_the_identity_at_both_precisions() {
        let tensors: Vec<Tensor> = (0..3).map(f32_item).collect();
        let quantized: Vec<QTensorBatch> =
            tensors.iter().map(QTensorBatch::quantize_batch).collect();

        let stacked = Features::stack(tensors.iter().cloned().map(Features::F32).collect());
        assert_eq!(stacked.unwrap().shape(), &[3, 2, 3, 3]);

        let maps = Maps::F32(vec![Tensor::stack_batch(&tensors); 2]);
        let rows = maps.split_rows(3).unwrap();
        for (row, tensor) in rows.iter().zip(&tensors) {
            assert_eq!(row, &Maps::F32(vec![tensor.clone(); 2]));
        }

        let qmaps = Maps::Int8(vec![QTensorBatch::stack(&quantized)]);
        let qrows = qmaps.split_rows(3).unwrap();
        for (row, q) in qrows.iter().zip(&quantized) {
            assert_eq!(row, &Maps::Int8(vec![q.clone()]));
        }
        assert!(qmaps.split_rows(2).is_err(), "row count must match");
    }

    #[test]
    fn mixed_shapes_and_precisions_do_not_stack() {
        let a = Features::F32(f32_item(0));
        let b = Features::F32(Tensor::ones(&[1, 2, 4, 4]));
        let q = Features::Int8(QTensorBatch::quantize_batch(&f32_item(0)));
        assert!(Features::stack(vec![a.clone(), b]).is_err());
        assert!(Features::stack(vec![a, q]).is_err());
    }

    #[test]
    fn content_bytes_distinguish_every_bit_and_cost_is_per_kind() {
        let zero = Features::F32(Tensor::full(&[1], 0.0));
        let neg_zero = Features::F32(Tensor::full(&[1], -0.0));
        assert!(!zero.content_bytes().eq(neg_zero.content_bytes()));
        assert_eq!(zero.content_bytes().count(), 4);

        let t = f32_item(1);
        let q = QTensorBatch::quantize_batch(&t);
        assert_eq!(Features::F32(t.clone()).payload_bytes(), 4 * 18);
        let int8 = Features::Int8(q);
        assert_eq!(int8.payload_bytes(), 18 + 4);
        assert_eq!(int8.content_bytes().count(), 18 + 4);
    }

    #[test]
    fn crossing_to_another_precision_is_the_wire_round_trip_and_free_otherwise() {
        let t = Tensor::stack_batch(&[f32_item(0), f32_item(1)]);
        let q = QTensorBatch::quantize_batch(&t);
        let (f32, int8) = (Features::F32(t.clone()), Features::Int8(q.clone()));
        assert!(matches!(f32.to_precision(Precision::F32), Cow::Borrowed(_)));
        assert!(matches!(
            int8.to_precision(Precision::Int8),
            Cow::Borrowed(_)
        ));
        assert_eq!(f32.to_precision(Precision::Int8).as_ref(), &int8);
        let dequantized = Features::F32(q.dequantize());
        assert_eq!(int8.to_precision(Precision::F32).as_ref(), &dequantized);
        assert_eq!(f32.as_f32().unwrap(), &t);
        assert!(f32.as_int8().is_err() && int8.as_f32().is_err());

        let maps = Maps::F32(vec![t.clone(), q.dequantize(), t]);
        let qmaps = maps.clone().into_precision(Precision::Int8);
        assert_eq!(qmaps, Maps::Int8(vec![q.clone(), q.clone(), q.clone()]));
        assert_eq!(maps.clone().into_precision(Precision::F32), maps);
        assert_eq!(
            qmaps.clone().into_precision(Precision::F32),
            Maps::F32(vec![q.dequantize(); 3])
        );

        let mut head = maps.clone().slice(0..1);
        assert!(head.append(qmaps).is_err(), "precisions never mix");
        head.append(maps.clone().slice(1..3)).unwrap();
        assert_eq!(head, maps);
    }

    #[test]
    fn maps_convert_only_to_their_own_precision() {
        let maps = Maps::F32(vec![Tensor::ones(&[1, 2])]);
        assert_eq!(maps.len(), 1);
        assert!(maps.clone().into_f32().is_ok());
        assert!(matches!(maps.into_int8(), Err(EnsemblerError::Engine(_))));
    }
}
