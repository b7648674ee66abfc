//! Int8 quantization: per-tensor symmetric scales, quantized tensor types and
//! one blocked `i8×i8→i32` product driver that reads its left operand in
//! place.
//!
//! The quantization scheme is **symmetric, per tensor**: a tensor is stored as
//! `i8` values `q` plus one `f32` scale such that `value ≈ q · scale`, with
//! `scale = absmax / 127`. There is no zero point, so `0.0` always quantizes
//! to `0` — zero padding (im2col borders, the halo of a [`QHalo`]) survives
//! quantization exactly. The round-trip error is at most `scale / 2` per
//! element, which the property suite enforces.
//!
//! Two container types cover the two uses in the stack:
//!
//! * [`QTensor`] — one scale for the whole tensor. Used for **weights**,
//!   which are quantized once, ahead of time.
//! * [`QTensorBatch`] — one scale **per axis-0 sample**. Used for
//!   **activations**: each sample's scale depends only on that sample's
//!   values, so quantizing a coalesced mini-batch equals quantizing each
//!   request alone. This is what lets the inference engine keep its
//!   bit-exactness-across-batch-size guarantee in int8 mode.
//!
//! The product driver mirrors the blocked `f32` kernel of [`crate::gemm`].
//!
//! * **The left operand is read where it lies.** It is a [`QHalo`]: a
//!   haloed NHWC copy of the quantized input in which every byte is the
//!   quantized value **shifted by +128** into `u8` (the halo, the image of
//!   `0`, holds 128), with the channel count rounded up to a multiple of 4
//!   so that channels group into the `u8` quads `vpdpbusd` multiplies. A
//!   convolution's output row is `kernel` contiguous runs of it, one per
//!   `ky`, so [`qconv`] multiplies the column matrix without writing it,
//!   and an `[m, k]` matrix is the 1×1 case ([`qgemm_nn`]). Nothing is
//!   packed per band.
//! * **The right operand is packed** into [`QPanels`]: `i8` weight quads,
//!   plus the per-column correction `−128·Σₖ w` that takes the shift back
//!   out. The accumulators start from it, so
//!   `Σₖ (a + 128)·w − 128·Σₖ w = Σₖ a·w`. A compiled plan packs its
//!   weights, and works out the correction, once.
//! * **Three micro-kernels** over those two layouts, picked at runtime: an
//!   AVX-512 VNNI one (`vpdpbusd`, `u8×i8` quads into `i32`), an AVX2 one
//!   for hosts without VNNI (`vpmaddwd` on the quads widened to `i16`) and a
//!   portable one, all behind one bounds check per tile. Row bands go to
//!   the pool above [`QPAR_THRESHOLD`].
//!
//! Every kernel accumulates with wrapping `i32` arithmetic. The shifted
//! partial sums can pass `i32::MAX` near [`QGEMM_MAX_K`], but every final
//! sum `Σₖ a·w` fits, and a sum computed modulo 2³² that fits is exact. So
//! any order of the shared dimension gives the same sums, and every path —
//! serial, parallel, VNNI, portable, halo or column matrix — produces
//! bit-identical results, which the tests check against a naive oracle
//! under every micro-kernel the host can run.
//!
//! # Examples
//!
//! ```
//! use ensembler_tensor::{QTensor, Tensor};
//!
//! let t = Tensor::from_vec(vec![-1.0, 0.5, 1.27], &[3])?;
//! let q = QTensor::quantize(&t);
//! let back = q.dequantize();
//! for (x, y) in t.data().iter().zip(back.data()) {
//!     assert!((x - y).abs() <= q.scale() / 2.0 + f32::EPSILON);
//! }
//! # Ok::<(), ensembler_tensor::ShapeError>(())
//! ```

use crate::gemm::Parallelism;
use crate::parallel::{chunks_mut, parallelism};
use crate::shape::checked_len;
use crate::{Conv2dGeometry, QHalo, ShapeError, Tensor};

/// Rows of the register tile held by the portable int8 micro-kernel. On
/// x86-64 hosts with AVX2 or AVX-512 VNNI a larger tile is selected at
/// runtime instead.
pub const QMR: usize = 4;
/// Columns of the register tile held by the portable int8 micro-kernel.
pub const QNR: usize = 8;
/// Depth of the shared-dimension cache block (a multiple of 4: the kernels
/// walk `k` in `u8` quads). The VNNI kernel's panel for one block is
/// `QKC × 16` bytes, 8 KB.
pub const QKC: usize = 512;
/// Output rows per parallel band.
pub const QMC: usize = 128;

/// At or above this many multiply-accumulates (`m·k·n`) the kernel splits
/// row bands across cores.
pub const QPAR_THRESHOLD: usize = 1 << 20;

/// Largest shared dimension the kernel accepts: each `k` contributes at most
/// `128 · 127` to a sum of quantized operands (the quantizer's grid is
/// ±127; `−128` may meet `±127`), so `k ≤ 2¹⁷` keeps every final sum inside
/// `i32`. The kernels' shifted partial sums may leave `i32` on the way; they
/// wrap, and the final sum is exact (module docs).
pub const QGEMM_MAX_K: usize = 1 << 17;

/// The scale mapping a tensor's absolute maximum onto the `i8` grid:
/// `absmax / 127`, guarded against two degenerate regions.
///
/// * A quotient that is not positive and finite — an all-zero (or empty)
///   tensor, or a division that underflowed all the way to `0.0` — falls
///   back to `1.0`.
/// * A **positive subnormal** quotient (absmax below ~`1.5e-36`, which
///   conv+bn folding can produce by shrinking a weight tensor's magnitudes)
///   is clamped up to [`f32::MIN_POSITIVE`]. A subnormal scale passes a
///   naive `> 0.0` check, but its reciprocal — the factor the quantization
///   loop multiplies by — overflows to `+inf`, which would send every
///   non-zero value to `±127` regardless of magnitude and break the
///   `scale / 2` round-trip bound.
///
/// Both fallbacks keep every scale valid for the wire codec (which rejects
/// non-positive scales), keep `1 / scale` finite, and still round-trip
/// within the `scale / 2` bound: values that small all quantize to `0`.
pub fn quantization_scale(absmax: f32) -> f32 {
    let scale = absmax / 127.0;
    if scale.is_finite() && scale >= f32::MIN_POSITIVE {
        scale
    } else if scale > 0.0 {
        f32::MIN_POSITIVE
    } else {
        1.0
    }
}

/// Largest absolute value of a slice (0 for an empty slice).
///
/// Computed as an integer maximum over the sign-stripped IEEE bit patterns:
/// for finite floats the unsigned bit order equals the magnitude order, and
/// unlike a float `max` fold the integer reduction vectorises. Non-finite
/// inputs are unsupported (as documented on [`QTensor::quantize`]); a NaN
/// wins the maximum, and [`quantization_scale`] maps it to `1.0`.
pub(crate) fn absmax(values: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature checked above; the function is otherwise safe.
            return unsafe { absmax_avx2(values) };
        }
    }
    absmax_body(values)
}

/// [`absmax`]'s loop compiled for AVX2, where `vpmaxud` takes eight lanes
/// at a time (the baseline target has no unsigned 32-bit `max`). Only
/// called after a runtime feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn absmax_avx2(values: &[f32]) -> f32 {
    absmax_body(values)
}

#[inline(always)]
fn absmax_body(values: &[f32]) -> f32 {
    let bits = values
        .iter()
        .fold(0u32, |m, v| m.max(v.to_bits() & 0x7FFF_FFFF));
    f32::from_bits(bits)
}

/// A quantized value as a quantize loop stores it: the `i8` itself, or the
/// `u8` a [`QHalo`] holds (the value + 128).
pub(crate) trait QuantizedByte: Copy {
    fn from_i8(q: i8) -> Self;
}

impl QuantizedByte for i8 {
    #[inline(always)]
    fn from_i8(q: i8) -> i8 {
        q
    }
}

impl QuantizedByte for u8 {
    #[inline(always)]
    fn from_i8(q: i8) -> u8 {
        crate::conv::shift(q)
    }
}

/// Quantizes `values` onto the `i8` grid defined by `scale`: round half away
/// from zero, saturate at ±127, NaN to 0 — byte for byte what
/// `(v / scale).round().clamp(-127.0, 127.0) as i8` gives, with the division
/// a multiplication by `1 / scale` — and stores each as a `T`. Dispatches to
/// an AVX2-compiled copy of the loop where available: the baseline x86-64
/// target lowers `f32::round` to a libm call per element, while under AVX2
/// the whole loop vectorises.
pub(crate) fn quantize_into<T: QuantizedByte>(values: &[f32], scale: f32, out: &mut [T]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature checked above; the function is otherwise safe.
            unsafe { quantize_into_avx2(values, scale, out) };
            return;
        }
    }
    quantize_into_body(values, scale, out);
}

/// The quantization loop, compiled for AVX2 so it vectorises.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_into_avx2<T: QuantizedByte>(values: &[f32], scale: f32, out: &mut [T]) {
    quantize_into_body(values, scale, out);
}

/// The saturating `as i8` cast of a float is what kept this loop scalar:
/// its NaN and out-of-range cases have no vector instruction. Here NaN is
/// replaced by `0.0` with a select and the clamp has already bounded the
/// rest, so the cast is an in-range conversion that needs no saturation.
#[inline(always)]
fn quantize_into_body<T: QuantizedByte>(values: &[f32], scale: f32, out: &mut [T]) {
    let inv = 1.0 / scale;
    for (slot, &v) in out.iter_mut().zip(values) {
        let r = (v * inv).round().clamp(-127.0, 127.0);
        let r = if r.is_nan() { 0.0 } else { r };
        // SAFETY: `r` is a whole number in [-127, 127], not NaN.
        *slot = T::from_i8(unsafe { r.to_int_unchecked::<i32>() } as i8);
    }
}

/// Dequantizes `q · scale` into `out`.
fn dequantize_into(q: &[i8], scale: f32, out: &mut [f32]) {
    for (slot, &v) in out.iter_mut().zip(q) {
        *slot = v as f32 * scale;
    }
}

/// A dense row-major `i8` tensor with one per-tensor symmetric scale:
/// `value ≈ data · scale`.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::{QTensor, Tensor};
///
/// let w = Tensor::from_vec(vec![2.0, -2.0, 1.0, 0.0], &[2, 2])?;
/// let q = QTensor::quantize(&w);
/// assert_eq!(q.shape(), &[2, 2]);
/// assert_eq!(q.data(), &[127, -127, 64, 0]); // scale = 2/127
/// # Ok::<(), ensembler_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    shape: Vec<usize>,
    data: Vec<i8>,
    scale: f32,
}

impl QTensor {
    /// Quantizes a tensor with one symmetric per-tensor scale computed from
    /// its absolute maximum. Non-finite inputs are unsupported (NaN maps to
    /// 0, infinities saturate).
    pub fn quantize(t: &Tensor) -> Self {
        let scale = quantization_scale(absmax(t.data()));
        let mut data = vec![0i8; t.len()];
        quantize_into(t.data(), scale, &mut data);
        Self {
            shape: t.shape().to_vec(),
            data,
            scale,
        }
    }

    /// Reassembles a quantized tensor from its parts (the wire-decode path).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the data length does not match the shape
    /// (or the shape overflows `usize`) or the scale is not finite and
    /// positive.
    pub fn from_parts(data: Vec<i8>, shape: &[usize], scale: f32) -> Result<Self, ShapeError> {
        let expected = checked_len(shape)?;
        if data.len() != expected {
            return Err(ShapeError::new(format!(
                "expected {expected} i8 elements for shape {shape:?}, got {}",
                data.len()
            )));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(ShapeError::new(format!(
                "quantization scale must be finite and positive, got {scale}"
            )));
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
            scale,
        })
    }

    /// Reconstructs the `f32` tensor `data · scale`.
    pub fn dequantize(&self) -> Tensor {
        let mut out = vec![0.0f32; self.data.len()];
        dequantize_into(&self.data, self.scale, &mut out);
        Tensor::from_vec(out, &self.shape).expect("dequantize preserves the element count")
    }

    /// The shape as a slice of axis extents.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The quantized values in row-major order.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The per-tensor scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A dense row-major `i8` tensor with one symmetric scale **per axis-0
/// sample**.
///
/// Each sample's scale is computed from that sample's values alone, so
/// quantizing a stacked batch produces exactly the bytes and scales of
/// quantizing each sample individually — the property that keeps request
/// coalescing transparent in int8 mode, and the reason the wire protocol
/// ships this type rather than a whole-batch [`QTensor`].
///
/// # Examples
///
/// ```
/// use ensembler_tensor::{QTensorBatch, Tensor};
///
/// let batch = Tensor::from_vec(vec![1.0, -0.5, 10.0, 20.0], &[2, 2])?;
/// let q = QTensorBatch::quantize_batch(&batch);
/// // Each row got its own scale: 1/127 and 20/127.
/// assert_eq!(q.scales().len(), 2);
/// assert!(q.scales()[1] > q.scales()[0]);
/// # Ok::<(), ensembler_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTensorBatch {
    shape: Vec<usize>,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QTensorBatch {
    /// Quantizes a rank-≥1 tensor with one symmetric scale per axis-0 slice.
    ///
    /// # Panics
    ///
    /// Panics if `t` is rank-0.
    pub fn quantize_batch(t: &Tensor) -> Self {
        assert!(t.rank() >= 1, "quantize_batch requires rank >= 1");
        let batch = t.shape()[0];
        let sample_len = t.len().checked_div(batch).unwrap_or(0);
        let mut data = vec![0i8; t.len()];
        let mut scales = Vec::with_capacity(batch);
        for n in 0..batch {
            let span = n * sample_len..(n + 1) * sample_len;
            let sample = &t.data()[span.clone()];
            let scale = quantization_scale(absmax(sample));
            quantize_into(sample, scale, &mut data[span]);
            scales.push(scale);
        }
        Self {
            shape: t.shape().to_vec(),
            data,
            scales,
        }
    }

    /// Reassembles a batch from its parts (the wire-decode path).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shape is rank-0, the data length does
    /// not match the shape (or the shape overflows `usize`), the scale count
    /// differs from the batch extent, or any scale is not finite and positive.
    pub fn from_parts(
        data: Vec<i8>,
        shape: &[usize],
        scales: Vec<f32>,
    ) -> Result<Self, ShapeError> {
        if shape.is_empty() {
            return Err(ShapeError::new(
                "a quantized batch needs at least one axis".to_string(),
            ));
        }
        let expected = checked_len(shape)?;
        if data.len() != expected {
            return Err(ShapeError::new(format!(
                "expected {expected} i8 elements for shape {shape:?}, got {}",
                data.len()
            )));
        }
        if scales.len() != shape[0] {
            return Err(ShapeError::new(format!(
                "expected {} per-sample scales for shape {shape:?}, got {}",
                shape[0],
                scales.len()
            )));
        }
        if let Some(bad) = scales.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
            return Err(ShapeError::new(format!(
                "per-sample scales must be finite and positive, got {bad}"
            )));
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
            scales,
        })
    }

    /// Reconstructs the `f32` tensor, scaling each axis-0 slice by its own
    /// scale.
    pub fn dequantize(&self) -> Tensor {
        let sample_len = self.sample_len();
        let mut out = vec![0.0f32; self.data.len()];
        for (n, &scale) in self.scales.iter().enumerate() {
            let span = n * sample_len..(n + 1) * sample_len;
            dequantize_into(&self.data[span.clone()], scale, &mut out[span]);
        }
        Tensor::from_vec(out, &self.shape).expect("dequantize preserves the element count")
    }

    /// Concatenates batches along axis 0. Bytes and scales are copied
    /// verbatim, so stacking commutes exactly with [`Self::quantize_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or the trailing shapes differ.
    pub fn stack(items: &[QTensorBatch]) -> QTensorBatch {
        assert!(!items.is_empty(), "stack requires at least one batch");
        let tail = &items[0].shape[1..];
        let mut shape = items[0].shape.clone();
        shape[0] = 0;
        let mut data = Vec::new();
        let mut scales = Vec::new();
        for item in items {
            assert_eq!(
                &item.shape[1..],
                tail,
                "stacked quantized batches must share a trailing shape"
            );
            shape[0] += item.shape[0];
            data.extend_from_slice(&item.data);
            scales.extend_from_slice(&item.scales);
        }
        QTensorBatch {
            shape,
            data,
            scales,
        }
    }

    /// Extracts sample `n` as a batch of one (bytes and scale copied
    /// verbatim, the exact inverse of [`Self::stack`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn sample(&self, n: usize) -> QTensorBatch {
        assert!(n < self.batch(), "sample index {n} out of range");
        let sample_len = self.sample_len();
        let mut shape = self.shape.clone();
        shape[0] = 1;
        QTensorBatch {
            shape,
            data: self.data[n * sample_len..(n + 1) * sample_len].to_vec(),
            scales: vec![self.scales[n]],
        }
    }

    /// The shape as a slice of axis extents.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The quantized values in row-major order.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The per-sample scales (one per axis-0 slice).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The axis-0 extent.
    pub fn batch(&self) -> usize {
        self.shape[0]
    }

    /// Elements per axis-0 slice.
    pub fn sample_len(&self) -> usize {
        self.shape[1..].iter().product()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the batch holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// The right operand of an int8 product, packed into the quad panels one
/// micro-kernel reads: `nr`-column panels of `i8`, the shared dimension
/// interleaved in quads, plus the correction that takes the halo's +128
/// shift back out.
///
/// Panel `jp` holds, for each quad `q`, columns `jp·nr..jp·nr+nr` as
/// `[b[4q][j], b[4q+1][j], b[4q+2][j], b[4q+3][j]]` — exactly the signed
/// operand `vpdpbusd` consumes. Ragged edges (`k` not a multiple of 4, `n`
/// not a multiple of `nr`) are zero. Column `j`'s accumulators start from
/// `−128·Σₖ b[k][j]` (wrapping), worked out here, once. A compiled plan packs
/// its conv weights once ([`QPanels::conv`]); [`qgemm_nn`] packs its right
/// operand per call.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::{qconv, Conv2dGeometry, QHalo, QPanels};
///
/// // A 1x1 convolution of one 1x2 image with one channel: a [2,1]x[1,3]
/// // product.
/// let halo = QHalo::lower(&[2, -3], 1, 1, 1, 2, Conv2dGeometry::new(1, 1, 0));
/// let weights = QPanels::conv(&[1, 10, 100], 1, 1, 3);
/// assert_eq!(qconv(&halo, &weights), vec![2, 20, 200, -3, -30, -300]);
/// ```
#[derive(Debug, Clone)]
pub struct QPanels {
    data: Vec<i8>,
    /// `−128·Σₖ b[k][j]` per column, zero past `n` up to a whole panel.
    start: Vec<i32>,
    /// Shared-dimension quads.
    k4: usize,
    n: usize,
    /// Panel width: the `nr` of the micro-kernel these panels feed.
    nr: usize,
}

impl QPanels {
    /// Packs the `[c·kernel², n]` weight matrix of an int8 convolution, its
    /// rows in [`crate::im2col_i8`]'s `(c, ky, kx)` order, for the
    /// `(ky, kx, c)` order of a [`QHalo`] with `c` rounded up to a multiple
    /// of 4 (the extra channels' rows are zero).
    ///
    /// # Panics
    ///
    /// Panics if `weight_t.len() != c·kernel²·n` or the padded shared
    /// dimension `kernel² · (c rounded up to a multiple of 4)` exceeds
    /// [`QGEMM_MAX_K`].
    pub fn conv(weight_t: &[i8], c: usize, kernel: usize, n: usize) -> Self {
        Self::conv_for(qkernel_config().nr, weight_t, c, kernel, n)
    }

    /// Output columns of the product.
    pub fn cols(&self) -> usize {
        self.n
    }

    fn conv_for(nr: usize, weight_t: &[i8], c: usize, kernel: usize, n: usize) -> Self {
        let (taps, quad_c) = (kernel * kernel, c.div_ceil(4) * 4);
        // Refused before the reorder allocates anything.
        check_depth(taps * quad_c);
        assert_eq!(
            weight_t.len(),
            c * taps * n,
            "conv weight length must be c*kernel*kernel*n"
        );
        let mut b = vec![0i8; taps * quad_c * n];
        for ch in 0..c {
            for tap in 0..taps {
                let (src, dst) = (ch * taps + tap, tap * quad_c + ch);
                b[dst * n..(dst + 1) * n].copy_from_slice(&weight_t[src * n..(src + 1) * n]);
            }
        }
        Self::pack_for(nr, &b, taps * quad_c, n)
    }

    /// Packs the row-major `[k, n]` right operand into panels `nr` wide.
    fn pack_for(nr: usize, b: &[i8], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "qgemm_nn rhs length must be k*n");
        check_depth(k.div_ceil(4) * 4);
        let k4 = k.div_ceil(4);
        let panels = n.div_ceil(nr);
        let mut data = vec![0i8; panels * k4 * nr * 4];
        for jp in 0..panels {
            let j0 = jp * nr;
            let cols = nr.min(n - j0);
            let panel = &mut data[jp * k4 * nr * 4..(jp + 1) * k4 * nr * 4];
            for p in 0..k {
                let sliver = &mut panel[(p / 4) * nr * 4..(p / 4 + 1) * nr * 4];
                let row = &b[p * n + j0..p * n + j0 + cols];
                for (slot, &v) in sliver[p % 4..].iter_mut().step_by(4).zip(row) {
                    *slot = v;
                }
            }
        }
        // |Σₖ b| ≤ 2¹⁷·128 fits; only the product with −128 can wrap.
        let mut start = vec![0i32; panels * nr];
        for row in b.chunks_exact(n.max(1)).take(k) {
            for (sum, &v) in start.iter_mut().zip(row) {
                *sum += i32::from(v);
            }
        }
        for sum in &mut start {
            *sum = sum.wrapping_mul(-128);
        }
        Self {
            data,
            start,
            k4,
            n,
            nr,
        }
    }
}

/// Panics if a (padded) shared dimension could overflow an `i32`
/// accumulator.
fn check_depth(k: usize) {
    assert!(
        k <= QGEMM_MAX_K,
        "qgemm shared dimension {k} exceeds the i32-overflow bound {QGEMM_MAX_K}"
    );
}

/// The left operand of one register tile, read in place from a [`QHalo`]:
/// tile row `r` reads shared-dimension quad `p` as the four bytes of quad
/// `rows[r] + (p / run_len) · run_stride + p % run_len`, for `p` in the
/// cache block `p0..p0 + kc4`.
#[derive(Clone, Copy)]
struct QLhs<'a> {
    bytes: &'a [u8],
    /// Each tile row's first quad; rows past the ragged edge repeat the last
    /// valid one.
    rows: &'a [usize],
    run_len: usize,
    run_stride: usize,
    p0: usize,
    kc4: usize,
}

impl QLhs<'_> {
    /// Panics unless every run of every row of the block lies inside
    /// `bytes` — the one check the SIMD kernels' unchecked reads rest on.
    /// A run is never longer than the stride between runs, so the block's
    /// last quad in the farthest row is the farthest quad read.
    fn assert_covers(self) {
        let covered = self.kc4 > 0 && !self.rows.is_empty() && {
            let (far_row, last) = (self.rows.iter().max().copied(), self.p0 + self.kc4 - 1);
            let far = far_row.unwrap_or(0) + (last / self.run_len) * self.run_stride;
            far + last % self.run_len < self.bytes.len() / 4
        };
        assert!(covered, "an int8 lhs tile runs past its halo");
    }

    /// The block as contiguous runs: `(quad offset within a row, quad index
    /// within the block, length)`.
    #[inline(always)]
    fn runs(self) -> impl Iterator<Item = (usize, usize, usize)> {
        let (end, mut p) = (self.p0 + self.kc4, self.p0);
        std::iter::from_fn(move || {
            (p < end).then(|| {
                let (run, at) = (p / self.run_len, p % self.run_len);
                let len = (self.run_len - at).min(end - p);
                let next = (run * self.run_stride + at, p - self.p0, len);
                p += len;
                next
            })
        })
    }
}

/// One register-tile update over the quads of `a`'s block, into `c`
/// (leading dimension `ldc`), valid region `tile_rows x cols`. The B panel
/// holds, per quad, `nr` columns of four `i8`. With `start` (the panel's
/// [`QPanels`] correction, the first cache block) the accumulators begin
/// from it and the tile is stored; without, they begin from zero and the
/// tile is added (wrapping) to what `c` holds.
type QMicroKernelFn = fn(
    a: QLhs,
    bpanel: &[i8],
    start: Option<&[i32]>,
    c: &mut [i32],
    ldc: usize,
    tile_rows: usize,
    cols: usize,
);

/// The micro-kernel picked for this host, with its register-tile geometry.
#[derive(Clone, Copy)]
struct QKernelConfig {
    mr: usize,
    nr: usize,
    micro: QMicroKernelFn,
}

/// The portable int8 kernel: what every host can run, and what hosts without
/// AVX2 do run.
const PORTABLE_QKERNEL: QKernelConfig = QKernelConfig {
    mr: QMR,
    nr: QNR,
    micro: portable_qmicrokernel,
};

/// The AVX2 int8 kernel, if this host reports AVX2.
fn avx2_qkernel() -> Option<QKernelConfig> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(QKernelConfig {
                mr: qavx2::MR,
                nr: qavx2::NR,
                micro: qavx2::microkernel,
            });
        }
    }
    None
}

/// The AVX-512 VNNI int8 kernel, if this host reports it.
fn vnni_qkernel() -> Option<QKernelConfig> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vnni")
        {
            return Some(QKernelConfig {
                mr: qvnni::MR,
                nr: qvnni::NR,
                micro: qvnni::microkernel,
            });
        }
    }
    None
}

/// Picks the widest int8 micro-kernel the host supports.
fn qkernel_config() -> QKernelConfig {
    vnni_qkernel()
        .or_else(avx2_qkernel)
        .unwrap_or(PORTABLE_QKERNEL)
}

/// `C = A·B` for row-major `a: [m,k]` of `i8` and `b: [k,n]` of `i8`,
/// returning row-major `[m,n]` of exact `i32` sums.
///
/// The 1×1 case of the int8 convolution driver ([`qconv`]): `a` is the NHWC
/// batch `[m, 1, 1, k]`. Serial below [`QPAR_THRESHOLD`]
/// multiply-accumulates, parallel above; use [`qgemm_nn_with`] to force
/// either path. Every path produces bit-identical results because integer
/// accumulation is exact.
///
/// # Panics
///
/// Panics if `a.len() != m*k`, `b.len() != k*n`, or `k > `[`QGEMM_MAX_K`]
/// (the bound that keeps `i32` accumulators from overflowing).
///
/// # Examples
///
/// ```
/// use ensembler_tensor::qgemm_nn;
///
/// // [2,2] x [2,2]
/// let c = qgemm_nn(&[1, 2, 3, 4], &[5, 6, 7, 8], 2, 2, 2);
/// assert_eq!(c, vec![19, 22, 43, 50]);
/// ```
pub fn qgemm_nn(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    qgemm_nn_with(a, b, m, k, n, Parallelism::Auto)
}

/// [`qgemm_nn`] with an explicit serial/parallel choice.
///
/// # Panics
///
/// Panics under the same conditions as [`qgemm_nn`].
pub fn qgemm_nn_with(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    par: Parallelism,
) -> Vec<i32> {
    let cfg = qkernel_config();
    let b = QPanels::pack_for(cfg.nr, b, k, n);
    qproduct(cfg, &matrix_halo(a, m, k), &b, par)
}

/// The `[m, k]` matrix `a` as the NHWC batch `[m, 1, 1, k]`.
fn matrix_halo(a: &[i8], m: usize, k: usize) -> QHalo {
    assert_eq!(a.len(), m * k, "qgemm_nn lhs length must be m*k");
    QHalo::lower(a, m, k, 1, 1, Conv2dGeometry::new(1, 1, 0))
}

/// The int8 convolution: `C = A·B` with `A` the column matrix of the halo's
/// convolution read in place (one row per output position `(n, oy, ox)`)
/// and `B` its packed weights, returning row-major `[rows, cols]` of exact
/// `i32` sums — the product [`crate::im2col_i8`] followed by [`qgemm_nn`]
/// computes, without the column matrix.
///
/// # Panics
///
/// Panics if the operands disagree on the shared dimension (the halo's
/// geometry or channel count is not the weights').
pub fn qconv(halo: &QHalo, weights: &QPanels) -> Vec<i32> {
    qproduct(qkernel_config(), halo, weights, Parallelism::Auto)
}

/// [`qconv`] with `epilogue` run on each row band of the product while its
/// accumulators are cache-hot: `epilogue(row0, acc, out)` turns the band's
/// `i32` sums `acc` — product rows `row0..`, `n` to a row — into the band's
/// rows `out` of the returned `[rows, n]` matrix. Each band accumulates in
/// a scratch of its own, so no `i32` product the size of the output is
/// ever written; the sums are [`qconv`]'s.
///
/// # Panics
///
/// Panics under the same conditions as [`qconv`].
pub fn qconv_map(
    halo: &QHalo,
    weights: &QPanels,
    epilogue: impl Fn(usize, &[i32], &mut [f32]) + Sync,
) -> Vec<f32> {
    qproduct_map(qkernel_config(), halo, weights, Parallelism::Auto, epilogue)
}

/// [`qgemm_nn_with`] / [`qconv`] under an explicit micro-kernel.
fn qproduct(cfg: QKernelConfig, a: &QHalo, b: &QPanels, par: Parallelism) -> Vec<i32> {
    qdrive(cfg, a, b, par, |row0, band: &mut [i32]| {
        qgemm_band(cfg, a, b, row0, band);
    })
}

/// [`qconv_map`] under an explicit micro-kernel.
fn qproduct_map(
    cfg: QKernelConfig,
    a: &QHalo,
    b: &QPanels,
    par: Parallelism,
    epilogue: impl Fn(usize, &[i32], &mut [f32]) + Sync,
) -> Vec<f32> {
    qdrive(cfg, a, b, par, |row0, band: &mut [f32]| {
        let mut acc = vec![0i32; band.len()];
        qgemm_band(cfg, a, b, row0, &mut acc);
        epilogue(row0, &acc, band);
    })
}

/// The one int8 product driver: checks that the operands fit, sizes the
/// output and hands each row band (`band(row0, out_rows)`) to the pool or
/// runs it inline. Each band computes its rows with [`qgemm_band`].
fn qdrive<T: Copy + Default + Send>(
    cfg: QKernelConfig,
    a: &QHalo,
    b: &QPanels,
    par: Parallelism,
    band: impl Fn(usize, &mut [T]) + Sync,
) -> Vec<T> {
    assert_eq!(
        a.depth(),
        4 * b.k4,
        "int8 product operands disagree on the shared dimension"
    );
    assert_eq!(b.nr, cfg.nr, "int8 panels packed for another micro-kernel");
    let (m, n) = (a.rows(), b.n);
    let mut out = vec![T::default(); m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let (want_parallel, band_rows) = qband_plan(par, m, a.depth(), n, cfg.mr);
    chunks_mut(&mut out, band_rows * n, want_parallel, |index, rows| {
        band(index * band_rows, rows);
    });
    out
}

/// Whether a blocked int8 product splits its row bands over the pool, and
/// the band height: [`QMC`] rows normally, shrunk (`mr`-aligned) so that a
/// big product with few rows still spreads over every worker.
fn qband_plan(par: Parallelism, m: usize, k: usize, n: usize, mr: usize) -> (bool, usize) {
    let workers = parallelism();
    let want_parallel = match par {
        Parallelism::Serial => false,
        Parallelism::Parallel => true,
        Parallelism::Auto => workers > 1 && m > mr && m * k * n >= QPAR_THRESHOLD,
    };
    let band_rows = if want_parallel && m <= QMC {
        m.div_ceil(workers.max(2)).div_ceil(mr) * mr
    } else {
        QMC
    };
    (want_parallel, band_rows)
}

/// Computes the product rows `row0..` that `band` (`rows x n`, at most
/// [`QMC`] rows) holds, blocking the shared dimension by [`QKC`]. Nothing is
/// copied: each tile's micro-kernel reads the halo where it lies, through
/// the row offsets worked out once here. The first cache block stores its
/// tiles, seeded with the panels' correction; later blocks add theirs.
fn qgemm_band(cfg: QKernelConfig, a: &QHalo, b: &QPanels, row0: usize, band: &mut [i32]) {
    let (mr, nr, n) = (cfg.mr, cfg.nr, b.n);
    let rows = band.len() / n;
    let tiles = rows.div_ceil(mr);
    // Room for a band and a ragged tile of any micro-kernel's height; the
    // missing rows of that tile repeat the last valid one, so every read
    // stays inside what `QLhs::assert_covers` vouches for.
    let mut offsets = [0usize; QMC + 16];
    a.row_offsets(row0, &mut offsets[..rows]);
    let last = offsets[rows - 1];
    offsets[rows..tiles * mr].fill(last);
    let (run_len, run_stride) = a.run_shape();

    let mut p0 = 0; // shared-dimension offset, in quads
    while p0 < b.k4 {
        let kc4 = (QKC / 4).min(b.k4 - p0);
        for jp in 0..n.div_ceil(nr) {
            let panel = &b.data[(jp * b.k4 + p0) * nr * 4..(jp * b.k4 + p0 + kc4) * nr * 4];
            let start = (p0 == 0).then(|| &b.start[jp * nr..(jp + 1) * nr]);
            let j0 = jp * nr;
            for ir in 0..tiles {
                let r0 = ir * mr;
                let tile = QLhs {
                    bytes: a.bytes(),
                    rows: &offsets[r0..r0 + mr],
                    run_len,
                    run_stride,
                    p0,
                    kc4,
                };
                (cfg.micro)(
                    tile,
                    panel,
                    start,
                    &mut band[r0 * n + j0..],
                    n,
                    mr.min(rows - r0),
                    nr.min(n - j0),
                );
            }
        }
        p0 += kc4;
    }
}

/// Accumulates a [`QMR`]`×`[`QNR`] register tile over the quads of `a`'s
/// block and stores or adds the valid region into `c`. Pure safe Rust, in
/// wrapping arithmetic like `vpdpbusd`; it checks its tile like the SIMD
/// kernels do, so all refuse the same operands.
fn portable_qmicrokernel(
    a: QLhs,
    bpanel: &[i8],
    start: Option<&[i32]>,
    c: &mut [i32],
    ldc: usize,
    tile_rows: usize,
    cols: usize,
) {
    a.assert_covers();
    let row: [usize; QMR] = a.rows.try_into().expect("QMR row offsets");
    let init: [i32; QNR] = start.map_or([0; QNR], |s| s.try_into().expect("QNR correction"));
    let mut acc = [init; QMR];
    for (at, bat, len) in a.runs() {
        for q in 0..len {
            let bv: &[i8; QNR * 4] = bpanel[(bat + q) * QNR * 4..(bat + q + 1) * QNR * 4]
                .try_into()
                .expect("QNR sliver");
            for (row_acc, &first) in acc.iter_mut().zip(&row) {
                let at_quad = 4 * (first + at + q);
                let quad: &[u8; 4] = a.bytes[at_quad..at_quad + 4].try_into().expect("quad");
                for (slot, w) in row_acc.iter_mut().zip(bv.chunks_exact(4)) {
                    // Four products of at most 255·128 each: no overflow
                    // before the accumulator.
                    let dot: i32 = quad
                        .iter()
                        .zip(w)
                        .map(|(&u, &v)| i32::from(u) * i32::from(v))
                        .sum();
                    *slot = slot.wrapping_add(dot);
                }
            }
        }
    }
    write_tile(&acc, start.is_some(), c, ldc, tile_rows, cols);
}

/// Writes the valid `tile_rows x cols` region of a finished register tile
/// into `c` (leading dimension `ldc`): over what it holds on the first cache
/// block, added to it (wrapping) on the later ones.
fn write_tile<const NR: usize>(
    tile: &[[i32; NR]],
    first: bool,
    c: &mut [i32],
    ldc: usize,
    tile_rows: usize,
    cols: usize,
) {
    for (r, sums) in tile.iter().enumerate().take(tile_rows) {
        let crow = &mut c[r * ldc..r * ldc + cols];
        if first {
            crow.copy_from_slice(&sums[..cols]);
        } else {
            for (o, &v) in crow.iter_mut().zip(sums) {
                *o = o.wrapping_add(v);
            }
        }
    }
}

/// AVX2 int8 micro-kernel, for hosts without VNNI: a 6×8 register tile over
/// the same two layouts. Each row's `u8` quad is widened to `i16` and
/// multiplied against the panel's `i8` quads, widened the same way, with
/// `vpmaddwd`, so every `i32` lane holds half a quad of one column (two
/// products of at most `255·128` each: exact). The halves are added
/// (`vphaddd`) once per tile, when it is stored.
#[cfg(target_arch = "x86_64")]
mod qavx2 {
    use super::QLhs;
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_cvtepu8_epi16,
        _mm256_hadd_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_permute4x64_epi64,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128, _mm_set1_epi32,
    };

    /// Register-tile rows of the AVX2 int8 kernel.
    pub(super) const MR: usize = 6;
    /// Register-tile columns (two accumulators of four half-quad pairs per
    /// row).
    pub(super) const NR: usize = 8;

    /// Safe entry point matching [`super::QMicroKernelFn`]. Only reachable
    /// through [`super::avx2_qkernel`], which verifies AVX2 first.
    pub(super) fn microkernel(
        a: QLhs,
        bpanel: &[i8],
        start: Option<&[i32]>,
        c: &mut [i32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        a.assert_covers();
        assert!(a.rows.len() == MR && (1..=MR).contains(&tile_rows) && (1..=NR).contains(&cols));
        assert!(bpanel.len() >= a.kc4 * NR * 4 && c.len() >= (tile_rows - 1) * ldc + cols);
        assert!(start.is_none_or(|s| s.len() == NR));
        // SAFETY: AVX2 is present (see above). The asserts are what
        // `microkernel_impl` requires of its caller.
        unsafe { microkernel_impl(a, bpanel, start, c, ldc, tile_rows, cols) }
    }

    /// # Safety
    ///
    /// The host must support AVX2; `a` must cover its block
    /// ([`QLhs::assert_covers`]) with `MR` row offsets and
    /// `1 <= tile_rows <= MR`; `bpanel` must hold `kc4 * NR * 4` values;
    /// `start`, if any, `NR`; and `c` must hold `(tile_rows - 1) * ldc + cols`
    /// with `1 <= cols <= NR`.
    #[target_feature(enable = "avx2")]
    unsafe fn microkernel_impl(
        a: QLhs,
        bpanel: &[i8],
        start: Option<&[i32]>,
        c: &mut [i32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        // Per row: columns 0-3 and 4-7, each column's two half-quad sums in
        // adjacent lanes.
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        let mut row = [a.bytes.as_ptr().cast::<i32>(); MR];
        for (first, &offset) in row.iter_mut().zip(a.rows) {
            *first = first.add(offset);
        }
        let bpp = bpanel.as_ptr();
        for (at, bat, len) in a.runs() {
            for q in 0..len {
                let bq = bpp.add((bat + q) * NR * 4);
                let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bq.cast::<__m128i>()));
                let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bq.add(16).cast::<__m128i>()));
                for (row_acc, first) in acc.iter_mut().zip(row) {
                    let quad = _mm_set1_epi32(first.add(at + q).read_unaligned());
                    let va = _mm256_cvtepu8_epi16(quad);
                    row_acc[0] = _mm256_add_epi32(row_acc[0], _mm256_madd_epi16(va, b0));
                    row_acc[1] = _mm256_add_epi32(row_acc[1], _mm256_madd_epi16(va, b1));
                }
            }
        }
        let init = match start {
            Some(s) => _mm256_loadu_si256(s.as_ptr().cast()),
            None => _mm256_setzero_si256(),
        };
        let mut tile = [[0i32; NR]; MR];
        for (sums, row_acc) in tile.iter_mut().zip(&acc) {
            // [c0 c1 c4 c5 | c2 c3 c6 c7], put back in column order.
            let halves = _mm256_hadd_epi32(row_acc[0], row_acc[1]);
            let ordered = _mm256_permute4x64_epi64::<0b11_01_10_00>(halves);
            let ordered = _mm256_add_epi32(ordered, init);
            _mm256_storeu_si256(sums.as_mut_ptr().cast::<__m256i>(), ordered);
        }
        super::write_tile(&tile, start.is_some(), c, ldc, tile_rows, cols);
    }
}

/// AVX-512 VNNI int8 micro-kernel: an `MR`×16 register tile of `i32`
/// accumulators, one `zmm` per row, fed by `vpdpbusd` — each tile row's `u8`
/// quad broadcast against the panel's 16 columns of `i8` quads, four
/// products summed into each lane. The products (at most `255·128`) and
/// their four-way sums cannot overflow; the accumulation wraps, which the
/// correction makes exact (module docs).
#[cfg(target_arch = "x86_64")]
mod qvnni {
    use super::QLhs;
    use std::arch::x86_64::{
        __mmask16, _mm512_add_epi32, _mm512_dpbusd_epi32, _mm512_loadu_si512,
        _mm512_mask_storeu_epi32, _mm512_maskz_loadu_epi32, _mm512_set1_epi32,
        _mm512_setzero_si512,
    };

    /// Register-tile rows of the VNNI kernel.
    pub(super) const MR: usize = 12;
    /// Register-tile columns (one 16-lane `i32` accumulator per row).
    pub(super) const NR: usize = 16;

    /// Safe entry point matching [`super::QMicroKernelFn`]. Only reachable
    /// through [`super::vnni_qkernel`], which verifies AVX-512F and VNNI
    /// first.
    pub(super) fn microkernel(
        a: QLhs,
        bpanel: &[i8],
        start: Option<&[i32]>,
        c: &mut [i32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        a.assert_covers();
        assert!(a.rows.len() == MR && (1..=MR).contains(&tile_rows) && (1..=NR).contains(&cols));
        assert!(bpanel.len() >= a.kc4 * NR * 4 && c.len() >= (tile_rows - 1) * ldc + cols);
        assert!(start.is_none_or(|s| s.len() == NR));
        // SAFETY: the features are present (see above). The asserts are what
        // `microkernel_impl` requires of its caller.
        unsafe { microkernel_impl(a, bpanel, start, c, ldc, tile_rows, cols) }
    }

    /// # Safety
    ///
    /// The host must support AVX-512F and AVX-512 VNNI; `a` must cover its
    /// block ([`QLhs::assert_covers`]) with `MR` row offsets and
    /// `1 <= tile_rows <= MR`; `bpanel` must hold `kc4 * NR * 4` values;
    /// `start`, if any, `NR`; and `c` must hold `(tile_rows - 1) * ldc + cols`
    /// with `1 <= cols <= NR`.
    #[target_feature(enable = "avx512f,avx512vnni")]
    unsafe fn microkernel_impl(
        a: QLhs,
        bpanel: &[i8],
        start: Option<&[i32]>,
        c: &mut [i32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        let init = match start {
            Some(s) => _mm512_loadu_si512(s.as_ptr().cast()),
            None => _mm512_setzero_si512(),
        };
        let mut acc = [init; MR];
        // Each row's quads as (possibly unaligned) `i32` words, first byte
        // lowest: x86-64 is little-endian.
        let mut row = [a.bytes.as_ptr().cast::<i32>(); MR];
        for (first, &offset) in row.iter_mut().zip(a.rows) {
            *first = first.add(offset);
        }
        let bpp = bpanel.as_ptr();
        for (at, bat, len) in a.runs() {
            for q in 0..len {
                let bq = _mm512_loadu_si512(bpp.add((bat + q) * NR * 4).cast());
                for (row_acc, first) in acc.iter_mut().zip(row) {
                    let va = _mm512_set1_epi32(first.add(at + q).read_unaligned());
                    *row_acc = _mm512_dpbusd_epi32(*row_acc, va, bq);
                }
            }
        }
        let mask: __mmask16 = if cols == NR { !0 } else { (1 << cols) - 1 };
        for (r, row_acc) in acc.iter().enumerate().take(tile_rows) {
            let crow = c.as_mut_ptr().add(r * ldc);
            let sum = match start {
                Some(_) => *row_acc,
                None => _mm512_add_epi32(_mm512_maskz_loadu_epi32(mask, crow), *row_acc),
            };
            _mm512_mask_storeu_epi32(crow, mask, sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_qgemm(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += a[i * k + p] as i32 * b[p * n + j] as i32;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn pseudo_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as i64 % 255 - 127) as i8
            })
            .collect()
    }

    #[test]
    fn quantize_roundtrip_is_within_half_a_step() {
        let t = Tensor::from_fn(&[64], |i| ((i as f32) * 0.37).sin() * 3.0);
        let q = QTensor::quantize(&t);
        let back = q.dequantize();
        for (x, y) in t.data().iter().zip(back.data()) {
            assert!((x - y).abs() <= q.scale() * 0.500001, "{x} vs {y}");
        }
    }

    #[test]
    fn zero_and_extreme_values_quantize_exactly() {
        let t = Tensor::from_vec(vec![0.0, 4.0, -4.0, 2.0], &[4]).unwrap();
        let q = QTensor::quantize(&t);
        assert_eq!(q.data(), &[0, 127, -127, 64]);
        let all_zero = QTensor::quantize(&Tensor::zeros(&[3]));
        assert_eq!(all_zero.scale(), 1.0);
        assert_eq!(all_zero.dequantize().data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn subnormal_absmax_falls_back_to_a_valid_scale() {
        // absmax > 0 but absmax/127 underflows to 0.0: the scale must stay
        // positive (the wire codec rejects non-positive scales) and the
        // values, all far below scale/2, quantize to zero.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        assert_eq!(tiny / 127.0, 0.0, "division underflows by construction");
        let q = QTensor::quantize(&Tensor::from_vec(vec![tiny, -tiny], &[2]).unwrap());
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.data(), &[0, 0]);
        let qb = QTensorBatch::quantize_batch(&Tensor::full(&[2, 2], tiny));
        assert!(qb.scales().iter().all(|s| *s > 0.0));
    }

    #[test]
    fn from_parts_validates() {
        assert!(QTensor::from_parts(vec![1, 2], &[3], 0.5).is_err());
        assert!(QTensor::from_parts(vec![1, 2, 3], &[3], 0.0).is_err());
        assert!(QTensor::from_parts(vec![1, 2, 3], &[3], f32::NAN).is_err());
        assert!(QTensor::from_parts(vec![1, 2, 3], &[3], 0.5).is_ok());
        assert!(QTensorBatch::from_parts(vec![1, 2], &[2, 1], vec![0.5]).is_err());
        assert!(QTensorBatch::from_parts(vec![1, 2], &[], vec![]).is_err());
        assert!(QTensorBatch::from_parts(vec![1, 2], &[2, 1], vec![0.5, -1.0]).is_err());
        assert!(QTensorBatch::from_parts(vec![1, 2], &[2, 1], vec![0.5, 0.25]).is_ok());
    }

    #[test]
    fn from_parts_refuses_shapes_that_wrap_to_the_data_length() {
        // (2^63 + 1) · 2 wraps to 2, the length of the data.
        let wraps_to_two = [usize::MAX / 2 + 2, 2];
        assert!(QTensor::from_parts(vec![1, 2], &wraps_to_two, 0.5).is_err());
        let wraps_to_two = [2, usize::MAX / 2 + 2];
        assert!(QTensorBatch::from_parts(vec![1, 2], &wraps_to_two, vec![0.5, 0.5]).is_err());
    }

    #[test]
    fn batch_quantization_is_per_sample() {
        let t = Tensor::from_vec(vec![1.0, 0.5, 100.0, -50.0], &[2, 2]).unwrap();
        let q = QTensorBatch::quantize_batch(&t);
        // Sample 0 keeps full resolution despite sample 1's large values.
        assert_eq!(q.data()[0], 127);
        assert_eq!(q.data()[2], 127);
        let back = q.dequantize();
        for (n, (x, y)) in t.data().iter().zip(back.data()).enumerate() {
            assert!((x - y).abs() <= q.scales()[n / 2] * 0.500001);
        }
    }

    #[test]
    fn stack_and_sample_commute_with_quantization() {
        let a = Tensor::from_fn(&[1, 3], |i| i as f32 - 1.0);
        let b = Tensor::from_fn(&[2, 3], |i| (i as f32) * 10.0);
        let stacked = QTensorBatch::stack(&[
            QTensorBatch::quantize_batch(&a),
            QTensorBatch::quantize_batch(&b),
        ]);
        let whole =
            Tensor::from_vec(a.data().iter().chain(b.data()).copied().collect(), &[3, 3]).unwrap();
        assert_eq!(stacked, QTensorBatch::quantize_batch(&whole));
        assert_eq!(stacked.sample(0), QTensorBatch::quantize_batch(&a));
        assert_eq!(stacked.batch(), 3);
        assert_eq!(stacked.sample_len(), 3);
    }

    /// Every int8 kernel this host can execute, named. On an AVX2 or a VNNI
    /// host `qkernel_config` hands out only the widest, so only tests that
    /// iterate this list run the others there.
    fn kernels() -> Vec<(&'static str, QKernelConfig)> {
        let mut all = vec![("portable", PORTABLE_QKERNEL)];
        all.extend(avx2_qkernel().map(|cfg| ("avx2", cfg)));
        all.extend(vnni_qkernel().map(|cfg| ("vnni", cfg)));
        all
    }

    /// [`qgemm_nn_with`] under an explicit micro-kernel.
    fn qgemm_under(
        cfg: QKernelConfig,
        a: &[i8],
        b: &[i8],
        (m, k, n): (usize, usize, usize),
        par: Parallelism,
    ) -> Vec<i32> {
        qproduct(
            cfg,
            &matrix_halo(a, m, k),
            &QPanels::pack_for(cfg.nr, b, k, n),
            par,
        )
    }

    #[test]
    fn qgemm_matches_the_naive_oracle_on_blocked_shapes() {
        for (name, cfg) in kernels() {
            for &(m, k, n) in &[(40, 41, 43), (5, QKC + 7, 9), (1, 700, 2), (70, 33, 37)] {
                let a = pseudo_i8(m * k, (m * 31 + k) as u64);
                let b = pseudo_i8(k * n, (n * 17 + k) as u64);
                let want = naive_qgemm(&a, &b, m, k, n);
                for par in [Parallelism::Serial, Parallelism::Parallel] {
                    let got = qgemm_under(cfg, &a, &b, (m, k, n), par);
                    assert_eq!(got, want, "{name} {par:?} mismatch at {m}x{k}x{n}");
                }
            }
        }
        let (a, b) = (pseudo_i8(40 * 41, 1), pseudo_i8(41 * 43, 2));
        assert_eq!(
            qgemm_nn(&a, &b, 40, 41, 43),
            naive_qgemm(&a, &b, 40, 41, 43)
        );
    }

    #[test]
    fn qgemm_empty_dimensions_yield_zero_filled_output() {
        for (name, cfg) in kernels() {
            for (m, k, n) in [(0, 0, 0), (2, 0, 3), (0, 3, 2), (2, 3, 0)] {
                let (a, b) = (pseudo_i8(m * k, 3), pseudo_i8(k * n, 4));
                let got = qgemm_under(cfg, &a, &b, (m, k, n), Parallelism::Serial);
                assert_eq!(got, vec![0; m * n], "{name} {m}x{k}x{n}");
            }
        }
        assert_eq!(qgemm_nn(&[], &[], 2, 0, 3), vec![0; 6]);
    }

    #[test]
    #[should_panic(expected = "i32-overflow bound")]
    fn qgemm_rejects_overflow_prone_k() {
        let _ = qgemm_nn(&[], &[], 0, QGEMM_MAX_K + 1, 0);
    }

    #[test]
    #[should_panic(expected = "i32-overflow bound")]
    fn a_conv_whose_padded_depth_passes_the_bound_is_refused() {
        // 14563 channels x 9 taps = 131067 <= QGEMM_MAX_K, but the halo
        // rounds the channels up to a multiple of 4, 14564, and 9 x 14564 =
        // 131076 is not.
        let c = 14563;
        assert!(9 * c <= QGEMM_MAX_K && 9 * (c + 1) > QGEMM_MAX_K);
        let _ = QPanels::conv(&[], c, 3, 0);
    }

    #[test]
    #[should_panic(expected = "runs past its halo")]
    fn a_tile_reading_past_its_halo_is_refused_before_any_read() {
        // Rows 0 and 4 of a 6-quad halo, quads 0..3 in runs of 2, 3 apart:
        // the last quad of row 4 is quad 4 + 3 + 0 = 7.
        let (bytes, rows) = ([0u8; 24], [0, 4, 4, 4]);
        let tile = QLhs {
            bytes: &bytes,
            rows: &rows,
            run_len: 2,
            run_stride: 3,
            p0: 0,
            kc4: 3,
        };
        portable_qmicrokernel(tile, &[0; 3 * QNR * 4], None, &mut [0; QNR], QNR, 1, QNR);
    }

    /// `im2col_i8` then the naive product: the convolution the halo driver
    /// must reproduce, with `weight_t` in the column matrix's `(c, ky, kx)`
    /// row order.
    fn im2col_oracle(
        x: &[i8],
        [b, c, h, w]: [usize; 4],
        geom: Conv2dGeometry,
        weight_t: &[i8],
        n: usize,
    ) -> Vec<i32> {
        let m = b * geom.output_extent(h) * geom.output_extent(w);
        let k = c * geom.kernel * geom.kernel;
        naive_qgemm(&crate::im2col_i8(x, b, c, h, w, geom), weight_t, m, k, n)
    }

    #[test]
    fn qconv_equals_im2col_i8_then_the_naive_product_under_both_kernels() {
        // Channel counts off a multiple of 4 exercise the quad pad,
        // out-channels the ragged panels of both kernels (8 and 16 wide),
        // spatial extents 1-9 give row counts that are no multiple of either
        // tile height (4, 12), and batch 0 is the empty product.
        let mut seed = 0;
        for (name, cfg) in kernels() {
            for (kernel, stride, padding) in [1, 3].into_iter().flat_map(|k| {
                [1, 2]
                    .into_iter()
                    .flat_map(move |s| [0, 1, 2].map(|p| (k, s, p)))
            }) {
                let geom = Conv2dGeometry::new(kernel, stride, padding);
                for c in [1, 3, 16, 33] {
                    for n in [1, 16, 17, 40] {
                        seed += 1;
                        let weight_t = pseudo_i8(c * kernel * kernel * n, seed);
                        let panels = QPanels::conv_for(cfg.nr, &weight_t, c, kernel, n);
                        // Non-square 1-9 (the width runs 9..1 against the
                        // height), and the one-pixel image.
                        let extents = (1..=9).map(|h| (h, 10 - h)).chain([(1, 1)]);
                        for (spatial, (h, w)) in extents.enumerate() {
                            if h.min(w) + 2 * padding < kernel {
                                continue;
                            }
                            for b in [0, 1, 3] {
                                let x = pseudo_i8(b * c * h * w, seed * 31 + spatial as u64);
                                let halo = QHalo::lower(&x, b, c, h, w, geom);
                                let par = if b == 3 {
                                    Parallelism::Parallel
                                } else {
                                    Parallelism::Serial
                                };
                                assert_eq!(
                                    qproduct(cfg, &halo, &panels, par),
                                    im2col_oracle(&x, [b, c, h, w], geom, &weight_t, n),
                                    "{name} k{kernel} s{stride} p{padding} {b}x{c}x{h}x{w} -> {n}"
                                );
                            }
                        }
                    }
                }
            }
            // Deeper than QKC (9 x 64 = 576): a cache block ends inside a run.
            let (geom, c, n, h, w, b) = (Conv2dGeometry::new(3, 1, 1), 61, 17, 5, 4, 2);
            let (weight_t, x) = (pseudo_i8(c * 9 * n, 7), pseudo_i8(b * c * h * w, 8));
            let panels = QPanels::conv_for(cfg.nr, &weight_t, c, 3, n);
            let halo = QHalo::lower(&x, b, c, h, w, geom);
            assert_eq!(
                qproduct(cfg, &halo, &panels, Parallelism::Serial),
                im2col_oracle(&x, [b, c, h, w], geom, &weight_t, n),
                "{name} deeper than QKC"
            );
        }
    }

    #[test]
    fn quantizing_into_the_halo_equals_quantize_batch_then_lower_under_every_kernel() {
        // The fused lowering reads a pixel-major batch; the two-pass one the
        // same values in NCHW. The product runs on top of it whole and band
        // by band through an epilogue. Channels 1, 3 and 5 leave a part
        // quad, 4 and 32 none; sample 1 of each batch is all zero (scale
        // 1.0) and the rest hold NaN, ±inf and ±0 among values of mixed
        // magnitude.
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-40];
        let mut seed = 0;
        for (name, cfg) in kernels() {
            for (kernel, stride, padding) in [1, 3].into_iter().flat_map(|k| {
                [1, 2]
                    .into_iter()
                    .flat_map(move |s| [0, 1, 2].map(|p| (k, s, p)))
            }) {
                let geom = Conv2dGeometry::new(kernel, stride, padding);
                for c in [1, 3, 4, 5, 32] {
                    seed += 1;
                    let n = 17;
                    let weight_t = pseudo_i8(c * kernel * kernel * n, seed);
                    let panels = QPanels::conv_for(cfg.nr, &weight_t, c, kernel, n);
                    for (b, h, w) in [(0, 3, 3), (1, 1, 1), (3, 3, 5), (3, 6, 4)] {
                        if h.min(w) + 2 * padding < kernel {
                            continue;
                        }
                        let plane = h * w;
                        let noise = pseudo_i8(b * c * plane, seed * 7 + h as u64);
                        let nchw: Vec<f32> = (0..b * c * plane)
                            .map(|i| match (i / (c * plane), i % 13) {
                                (1, _) => 0.0,
                                (_, 5) => special[i / 13 % special.len()],
                                _ => f32::from(noise[i]) * (1.0 + (i % 7) as f32 * 3.5),
                            })
                            .collect();
                        let pixels: Vec<f32> = (0..b * plane * c)
                            .map(|i| {
                                let (n, p, ch) = (i / (plane * c), i / c % plane, i % c);
                                nchw[(n * c + ch) * plane + p]
                            })
                            .collect();
                        let what = format!("{name} k{kernel} s{stride} p{padding} {b}x{c}x{h}x{w}");
                        let t = Tensor::from_vec(nchw, &[b, c, h, w]).unwrap();
                        let q = QTensorBatch::quantize_batch(&t);
                        let want = QHalo::lower(q.data(), b, c, h, w, geom);
                        let (got, scales) = QHalo::quantize(&pixels, [b, h, w, c], geom);
                        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&scales), bits(q.scales()), "{what}");
                        if b == 3 {
                            assert_eq!(scales[1], 1.0, "{what}");
                        }
                        assert_eq!(got.bytes(), want.bytes(), "{what}");
                        assert_eq!(
                            (got.rows(), got.depth(), got.run_shape()),
                            (want.rows(), want.depth(), want.run_shape()),
                            "{what}"
                        );
                        let par = if b == 3 {
                            Parallelism::Parallel
                        } else {
                            Parallelism::Serial
                        };
                        let want = im2col_oracle(q.data(), [b, c, h, w], geom, &weight_t, n);
                        assert_eq!(qproduct(cfg, &got, &panels, par), want, "{what}");
                        // Band by band through an epilogue: the same sums,
                        // each band at its own rows.
                        let mapped = qproduct_map(cfg, &got, &panels, par, |row0, acc, out| {
                            for (i, (out, &a)) in out.iter_mut().zip(acc).enumerate() {
                                *out = (a as f32) + (row0 * n + i) as f32 * 1e-3;
                            }
                        });
                        let want: Vec<f32> = want
                            .iter()
                            .enumerate()
                            .map(|(i, &a)| (a as f32) + i as f32 * 1e-3)
                            .collect();
                        assert_eq!(mapped, want, "banded {what}");
                    }
                }
            }
        }
    }

    /// The quantization expression as a scalar loop: what `quantize_into`
    /// wrote before it vectorised, and must still write byte for byte.
    fn scalar_quantize(v: f32, scale: f32) -> i8 {
        (v * (1.0 / scale)).round().clamp(-127.0, 127.0) as i8
    }

    #[test]
    fn the_vector_quantize_loop_writes_the_scalar_bytes() {
        // A strided sweep of every exponent and sign (65 537 is odd, so the
        // low mantissa bits vary too), then the classes a sweep can miss.
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(65_537).collect();
        bits.extend([
            0x7FC0_0000, // quiet NaN
            0x7F80_0001, // signalling NaN
            0x7FFF_FFFF, // NaN, full payload
            0xFFC0_0000, // negative quiet NaN
            0xFF80_0001, // negative signalling NaN
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x007F_FFFF, // largest subnormal
            0x8000_0001,
            0x807F_FFFF,
            0x0080_0000, // MIN_POSITIVE
        ]);
        let mut values: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        // Ties and the values either side of the ±127.5 saturation edge, as
        // multiples of each scale below.
        let ties = [0.5f32, 1.5, 2.5, 63.5, 126.5, 127.5, 128.5];
        let edges = [127.5f32, 127.49999, 127.50001, 127.0, 128.0, 1e9];
        for scale in [f32::MIN_POSITIVE, 1.0, 0.0137] {
            let mut all = values.clone();
            for t in ties.iter().chain(&edges) {
                for v in [t * scale, -t * scale] {
                    all.extend([
                        v,
                        f32::from_bits(v.to_bits() + 1),
                        f32::from_bits(v.to_bits() - 1),
                    ]);
                }
            }
            // Every length modulo a vector's width meets the tail loop.
            for cut in 0..33 {
                let slice = &all[cut..];
                let mut got = vec![0i8; slice.len()];
                quantize_into(slice, scale, &mut got);
                for (&v, &q) in slice.iter().zip(&got) {
                    assert_eq!(
                        q,
                        scalar_quantize(v, scale),
                        "{v:e} ({:#010x}) at scale {scale:e}",
                        v.to_bits()
                    );
                }
            }
            values.push(scale);
        }
        // absmax: the scalar fold over sign-stripped bits, NaN included.
        for cut in 0..17 {
            let slice = &values[cut..];
            let want = slice
                .iter()
                .fold(0u32, |m, v| m.max(v.to_bits() & 0x7FFF_FFFF));
            assert_eq!(absmax(slice).to_bits(), want, "cut {cut}");
        }
        assert_eq!(absmax(&[]).to_bits(), 0);
        let finite: Vec<f32> = values.iter().copied().filter(|v| v.is_finite()).collect();
        let want = finite
            .iter()
            .fold(0u32, |m, v| m.max(v.to_bits() & 0x7FFF_FFFF));
        assert_eq!(absmax(&finite).to_bits(), want);
    }

    /// The exact product in `i64`, then checked to fit the `i32` it is
    /// returned in.
    fn wide_oracle(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i64; m * n];
        for i in 0..m {
            for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                for (o, &bv) in out[i * n..(i + 1) * n]
                    .iter_mut()
                    .zip(&b[p * n..(p + 1) * n])
                {
                    *o += i64::from(av) * i64::from(bv);
                }
            }
        }
        out.into_iter()
            .map(|v| i32::try_from(v).expect("the oracle's sum fits i32"))
            .collect()
    }

    /// `±127` in one of five patterns along the shared dimension `p` of `k`:
    /// all `+`, all `−`, alternating, `+` then `−` by halves, or scattered.
    fn extreme(pattern: usize, p: usize, k: usize) -> i8 {
        let plus = match pattern % 5 {
            0 => true,
            1 => false,
            2 => p.is_multiple_of(2),
            3 => p < k / 2,
            _ => (p * 0x9E37_79B9) >> 7 & 1 == 0,
        };
        if plus {
            127
        } else {
            -127
        }
    }

    #[test]
    fn the_deepest_products_are_exact_at_the_quantizer_extremes() {
        // k = QGEMM_MAX_K: all-+127 rows against all-+127 columns sum to
        // 2¹⁷·127², just inside i32. Row 5 is zero, the shifted 128 of the
        // halo's frame; column 17 is all -128, whose correction 128·128·2¹⁷
        // = 2³¹ wraps and must come back out exactly.
        let (m, k, n) = (6, QGEMM_MAX_K, 18);
        let a: Vec<i8> = (0..m * k)
            .map(|i| {
                if i / k == 5 {
                    0
                } else {
                    extreme(i / k, i % k, k)
                }
            })
            .collect();
        let b: Vec<i8> = (0..k * n)
            .map(|i| {
                if i % n == 17 {
                    -128
                } else {
                    extreme(i % n, i / n, k)
                }
            })
            .collect();
        let want = wide_oracle(&a, &b, m, k, n);
        assert_eq!(want[0], 127 * 127 * QGEMM_MAX_K as i32);
        for (name, cfg) in kernels() {
            for par in [Parallelism::Serial, Parallelism::Parallel] {
                assert_eq!(
                    qgemm_under(cfg, &a, &b, (m, k, n), par),
                    want,
                    "{name} {par:?}"
                );
            }
        }

        // The deepest 3x3 conv the bound admits: 14 560 channels (a multiple
        // of 4) x 9 taps = 131 040. Padding 1 puts the frame in every
        // border row's runs.
        let (c, geom, (h, w), out) = (14_560, Conv2dGeometry::new(3, 1, 1), (2, 3), 17);
        assert!(9 * c <= QGEMM_MAX_K && 9 * (c + 4) > QGEMM_MAX_K);
        let x: Vec<i8> = (0..2 * c * h * w)
            .map(|i| extreme(i / (c * h * w), i % (c * h * w) / (h * w), c))
            .collect();
        let weight_t: Vec<i8> = (0..c * 9 * out)
            .map(|i| extreme(i % out, i / out, c * 9))
            .collect();
        let cols = crate::im2col_i8(&x, 2, c, h, w, geom);
        let want = wide_oracle(&cols, &weight_t, 2 * h * w, c * 9, out);
        for (name, cfg) in kernels() {
            let panels = QPanels::conv_for(cfg.nr, &weight_t, c, 3, out);
            let halo = QHalo::lower(&x, 2, c, h, w, geom);
            assert_eq!(
                qproduct(cfg, &halo, &panels, Parallelism::Serial),
                want,
                "{name} conv"
            );
        }
    }

    #[test]
    fn positive_subnormal_scale_is_clamped_to_a_normal_float() {
        // absmax/127 lands in the subnormal range: it passes a naive `> 0`
        // check, but its reciprocal is +inf and quantization would saturate
        // every nonzero value to ±127. The clamp keeps 1/scale finite.
        let absmax = f32::MIN_POSITIVE * 64.0; // absmax/127 is subnormal
        let s = absmax / 127.0;
        assert!(s > 0.0 && !s.is_normal(), "subnormal by construction");
        let scale = quantization_scale(absmax);
        assert_eq!(scale, f32::MIN_POSITIVE);
        assert!((1.0 / scale).is_finite());
        let q = QTensor::quantize(&Tensor::from_vec(vec![absmax, -absmax, 0.0], &[3]).unwrap());
        assert!(q.scale() >= f32::MIN_POSITIVE);
        let back = q.dequantize();
        for (x, y) in [absmax, -absmax, 0.0].iter().zip(back.data()) {
            assert!((x - y).abs() <= q.scale() * 0.500001, "{x} vs {y}");
        }
    }
}
