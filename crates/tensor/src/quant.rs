//! Int8 quantization: per-tensor symmetric scales, quantized tensor types and
//! a packed, blocked `i8×i8→i32` GEMM kernel.
//!
//! The quantization scheme is **symmetric, per tensor**: a tensor is stored as
//! `i8` values `q` plus one `f32` scale such that `value ≈ q · scale`, with
//! `scale = absmax / 127`. There is no zero point, so `0.0` always quantizes
//! to `0` — zero padding (im2col borders) survives quantization exactly. The
//! round-trip error is at most `scale / 2` per element, which the property
//! suite enforces.
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
//! [`qgemm_nn`] mirrors the blocked `f32` kernel of [`crate::gemm`]: packed
//! operand panels, a runtime-dispatched AVX2 micro-kernel (`vpmaddwd` over
//! sign-extended `i16` pairs — exact, no saturation) with a portable fallback,
//! and row-band parallelism. Because integer accumulation is exact, every
//! path — serial, parallel, AVX2, portable, small-product — produces
//! bit-identical results, which the oracle property tests assert.
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
use crate::{ShapeError, Tensor};

/// Rows of the register tile held by the portable int8 micro-kernel. On
/// x86-64 hosts with AVX2 a wider 6×16 tile is selected at runtime instead.
pub const QMR: usize = 4;
/// Columns of the register tile held by the portable int8 micro-kernel.
pub const QNR: usize = 8;
/// Depth of the shared-dimension cache block (kept even: the kernel walks
/// `k` in sign-extended `i16` pairs).
pub const QKC: usize = 256;
/// Output rows per parallel band.
pub const QMC: usize = 128;

/// Below this many right-operand elements (`k·n`) the kernel skips packing
/// and runs a plain register-friendly triple loop. Integer accumulation is
/// exact, so unlike the f32 kernel this threshold cannot change results —
/// it exists purely to spare tiny products the packing cost.
pub const QSMALL_THRESHOLD: usize = 32 * 32;

/// At or above this many multiply-accumulates (`m·k·n`) the kernel splits
/// row bands across cores.
pub const QPAR_THRESHOLD: usize = 1 << 20;

/// Largest shared dimension the kernel accepts: each `k`-pair contributes at
/// most `2 · 127² = 32258` to an `i32` accumulator, so `k ≤ 2¹⁷` keeps the
/// worst-case sum below `i32::MAX` with margin.
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
/// unlike a float `max` fold the integer reduction auto-vectorises on the
/// baseline target. Non-finite inputs are unsupported (as documented on
/// [`QTensor::quantize`]).
fn absmax(values: &[f32]) -> f32 {
    let bits = values
        .iter()
        .fold(0u32, |m, v| m.max(v.to_bits() & 0x7FFF_FFFF));
    f32::from_bits(bits)
}

/// Quantizes `values` onto the `i8` grid defined by `scale` (round half away
/// from zero, saturating at ±127). Dispatches to an AVX2-compiled copy of
/// the loop where available: the baseline x86-64 target lowers `f32::round`
/// to a libm call per element, while under AVX2 the whole loop vectorises.
fn quantize_into(values: &[f32], scale: f32, out: &mut [i8]) {
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

/// The quantization loop, compiled for AVX2 so it auto-vectorises. Only
/// called after a runtime feature check.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_into_avx2(values: &[f32], scale: f32, out: &mut [i8]) {
    quantize_into_body(values, scale, out);
}

#[inline(always)]
fn quantize_into_body(values: &[f32], scale: f32, out: &mut [i8]) {
    let inv = 1.0 / scale;
    for (slot, &v) in out.iter_mut().zip(values) {
        *slot = (v * inv).round().clamp(-127.0, 127.0) as i8;
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

/// One register-tile update over packed int8 panels. The A panel stores each
/// row's `k`-pairs as an `i32` word holding two sign-extended `i16` lanes;
/// the B panel stores, per `k`-pair, `nr` column pairs as interleaved `i16`.
type QMicroKernelFn = fn(
    apanel: &[i32],
    bpanel: &[i16],
    kc2: usize,
    c: &mut [i32],
    ldc: usize,
    tile_rows: usize,
    cols: usize,
);

#[derive(Clone, Copy)]
struct QKernelConfig {
    mr: usize,
    nr: usize,
    micro: QMicroKernelFn,
}

/// Picks the widest int8 micro-kernel the host supports.
fn qkernel_config() -> QKernelConfig {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return QKernelConfig {
                mr: qavx2::MR,
                nr: qavx2::NR,
                micro: qavx2::microkernel,
            };
        }
    }
    QKernelConfig {
        mr: QMR,
        nr: QNR,
        micro: portable_qmicrokernel,
    }
}

/// `C = A·B` for row-major `a: [m,k]` of `i8` and `b: [k,n]` of `i8`,
/// returning row-major `[m,n]` of exact `i32` sums.
///
/// Serial below [`QPAR_THRESHOLD`] multiply-accumulates, parallel above; use
/// [`qgemm_nn_with`] to force either path. All code paths (packed AVX2,
/// packed portable, small-product loop, serial, parallel) produce
/// bit-identical results because integer accumulation is exact.
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
    assert_eq!(a.len(), m * k, "qgemm_nn lhs length must be m*k");
    assert_eq!(b.len(), k * n, "qgemm_nn rhs length must be k*n");
    assert!(
        k <= QGEMM_MAX_K,
        "qgemm_nn shared dimension {k} exceeds the i32-overflow bound {QGEMM_MAX_K}"
    );
    let mut out = vec![0i32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    if k * n < QSMALL_THRESHOLD {
        qgemm_small(a, b, m, k, n, &mut out);
        return out;
    }
    let cfg = qkernel_config();
    let bp = pack_b_q(b, k, n, cfg.nr);
    let kc2_total = k.div_ceil(2);

    let (want_parallel, band_rows) = qband_plan(par, m, k, n, cfg.mr);
    chunks_mut(&mut out, band_rows * n, want_parallel, |index, band| {
        let (row0, rows) = (index * band_rows, band.len() / n);
        qgemm_band(a, &bp, row0, rows, k, kc2_total, n, cfg, band);
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

/// The dequantization tail fused onto [`qgemm_nn_dequant`]: per-output-row
/// scales, an optional per-column bias and an optional `max(0, ·)` ReLU,
/// applied to the live `i32` accumulators of each completed row band.
///
/// This is what lets the compiled int8 plan stop round-tripping through
/// separate dequantize / bias / activation passes at every layer boundary:
/// the `i32` sums leave the kernel already converted with
/// `acc as f32 * row_scale + bias` — the exact expression the eager
/// quantized layers use, so fusion is bit-exact.
#[derive(Debug, Clone, Copy)]
pub struct QGemmEpilogue<'a> {
    /// Per-row dequantization factor (length `m`). For the quantized layers
    /// this is `activation_scale(sample) * weight_scale`, precomputed per
    /// output row exactly as the eager dequant loop computes it.
    pub row_scales: &'a [f32],
    /// Per-column `f32` bias added after dequantization (length `n`).
    pub bias: Option<&'a [f32]>,
    /// Apply `max(0.0, v)` after the bias — the formulation the eager
    /// quantized residual blocks use, so folded conv+bn+relu stages match
    /// their f32-bn counterparts' activation semantics.
    pub relu: bool,
}

/// Converts one band of `i32` accumulators (rows `row0..row0+rows` of the
/// product) into `f32` through the fused epilogue.
fn dequant_band(acc: &[i32], row0: usize, n: usize, ep: &QGemmEpilogue, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    for (r, (arow, orow)) in acc.chunks_exact(n).zip(out.chunks_exact_mut(n)).enumerate() {
        let s = ep.row_scales[row0 + r];
        match ep.bias {
            Some(bias) => {
                for ((o, &a), &bv) in orow.iter_mut().zip(arow).zip(bias) {
                    *o = a as f32 * s + bv;
                }
            }
            None => {
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = a as f32 * s;
                }
            }
        }
        if ep.relu {
            for o in orow.iter_mut() {
                *o = o.max(0.0);
            }
        }
    }
}

/// [`qgemm_nn`] with the dequantization fused onto the kernel: returns `f32`
/// directly, converting each row band's `i32` accumulators while they are
/// cache-hot instead of materialising the integer product and running
/// separate dequantize / bias / ReLU passes over memory.
///
/// Bit-identical to [`qgemm_nn_with`] followed by
/// `acc as f32 * row_scales[i] + bias[j]` (and `max(0.0)` when `relu` is
/// set), on every code path — the integer accumulation is exact and the
/// float conversion applies the same expression per element.
///
/// # Panics
///
/// Panics under the same conditions as [`qgemm_nn`], or if
/// `ep.row_scales.len() != m`, or if a bias is present with length other
/// than `n`.
pub fn qgemm_nn_dequant(
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    par: Parallelism,
    ep: QGemmEpilogue,
) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "qgemm_nn lhs length must be m*k");
    assert_eq!(b.len(), k * n, "qgemm_nn rhs length must be k*n");
    assert!(
        k <= QGEMM_MAX_K,
        "qgemm_nn shared dimension {k} exceeds the i32-overflow bound {QGEMM_MAX_K}"
    );
    assert_eq!(
        ep.row_scales.len(),
        m,
        "epilogue row_scales length must be m"
    );
    if let Some(bias) = ep.bias {
        assert_eq!(bias.len(), n, "epilogue bias length must be n");
    }
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    if k == 0 || k * n < QSMALL_THRESHOLD {
        // Small products: integer triple loop into a reusable one-row
        // accumulator, dequantized row by row.
        let mut acc = vec![0i32; n];
        for i in 0..m {
            acc.fill(0);
            qgemm_small(&a[i * k..(i + 1) * k], b, 1, k, n, &mut acc);
            dequant_band(&acc, i, n, &ep, &mut out[i * n..(i + 1) * n]);
        }
        return out;
    }
    let cfg = qkernel_config();
    let bp = pack_b_q(b, k, n, cfg.nr);
    let kc2_total = k.div_ceil(2);

    // Each band accumulates into an i32 scratch of its own and is
    // dequantized into its rows of the output right after (still
    // cache-resident).
    let (want_parallel, band_rows) = qband_plan(par, m, k, n, cfg.mr);
    chunks_mut(&mut out, band_rows * n, want_parallel, |index, band| {
        let (row0, rows) = (index * band_rows, band.len() / n);
        let mut acc = vec![0i32; rows * n];
        qgemm_band(a, &bp, row0, rows, k, kc2_total, n, cfg, &mut acc);
        dequant_band(&acc, row0, n, &ep, band);
    });
    out
}

/// Plain triple loop for products too small to amortise packing.
fn qgemm_small(a: &[i8], b: &[i8], m: usize, k: usize, n: usize, out: &mut [i32]) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a[i * k + p] as i32;
            if a_ip == 0 {
                // Exact in integers: skipping a zero term cannot change the sum.
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * bv as i32;
            }
        }
    }
}

/// Packs the `[k,n]` right operand into `nr`-column panels of sign-extended
/// `i16`, with the `k` dimension interleaved in pairs.
///
/// Panel `jp` occupies `bp[jp*kc2*nr*2..]`; within it, `k`-pair `p` stores
/// columns `jp*nr..jp*nr+nr` as `[b[2p][j], b[2p+1][j]]` pairs — exactly the
/// operand layout `vpmaddwd` consumes. Ragged edges (odd `k`, `n` not a
/// multiple of `nr`) are zero-padded.
fn pack_b_q(b: &[i8], k: usize, n: usize, nr: usize) -> Vec<i16> {
    let kc2 = k.div_ceil(2);
    let panels = n.div_ceil(nr);
    let mut bp = vec![0i16; panels * kc2 * nr * 2];
    for jp in 0..panels {
        let j0 = jp * nr;
        let cols = nr.min(n - j0);
        let panel = &mut bp[jp * kc2 * nr * 2..(jp + 1) * kc2 * nr * 2];
        for p in 0..kc2 {
            let sliver = &mut panel[p * nr * 2..(p + 1) * nr * 2];
            let row0 = &b[(2 * p) * n..(2 * p) * n + n];
            for (c, slot) in sliver.chunks_exact_mut(2).take(cols).enumerate() {
                slot[0] = row0[j0 + c] as i16;
            }
            if 2 * p + 1 < k {
                let row1 = &b[(2 * p + 1) * n..(2 * p + 1) * n + n];
                for (c, slot) in sliver.chunks_exact_mut(2).take(cols).enumerate() {
                    slot[1] = row1[j0 + c] as i16;
                }
            }
        }
    }
    bp
}

/// Computes `rows` output rows starting at `row0` into `band`, blocking the
/// shared dimension by [`QKC`] and packing A row panels on the fly as `i32`
/// words of sign-extended `i16` pairs.
#[allow(clippy::too_many_arguments)]
fn qgemm_band(
    a: &[i8],
    bp: &[i16],
    row0: usize,
    rows: usize,
    k: usize,
    kc2_total: usize,
    n: usize,
    cfg: QKernelConfig,
    band: &mut [i32],
) {
    let (mr, nr) = (cfg.mr, cfg.nr);
    let row_panels = rows.div_ceil(mr);
    let col_panels = n.div_ceil(nr);
    // Sized by the widest block actually packed: the demo bodies' k = 144
    // needs 56 % of a QKC-wide buffer, and a serving thread's arena keeps
    // whatever this scratch peaked at (docs/PERFORMANCE.md, "Memory"). The
    // f32 kernel has no counterpart: it reads its left operand in place.
    let mut apack = vec![0i32; row_panels * QKC.min(k).div_ceil(2) * mr];

    let mut pc = 0; // shared-dimension offset, in k units (always even)
    while pc < k {
        let kc = QKC.min(k - pc);
        let kc2 = kc.div_ceil(2);
        // Pack row-major: each valid row reads its contiguous k-slice once
        // and scatters pair words at stride `mr`, which keeps the per-element
        // cost to a couple of ALU ops (no bounds checks in the pair loop).
        for ir in 0..row_panels {
            let panel = &mut apack[ir * kc2 * mr..(ir + 1) * kc2 * mr];
            for r in 0..mr {
                let i = row0 + ir * mr + r;
                if i >= row0 + rows {
                    for p in 0..kc2 {
                        panel[p * mr + r] = 0;
                    }
                    continue;
                }
                let row = &a[i * k + pc..i * k + pc + kc];
                let mut chunks = row.chunks_exact(2);
                for (p, pair) in chunks.by_ref().enumerate() {
                    let a0 = pair[0] as i16 as u16 as u32;
                    let a1 = pair[1] as i16 as u16 as u32;
                    panel[p * mr + r] = (a0 | (a1 << 16)) as i32;
                }
                if let [last] = *chunks.remainder() {
                    panel[(kc2 - 1) * mr + r] = last as i16 as u16 as u32 as i32;
                }
            }
        }
        let p2_0 = pc / 2; // pair offset of this KC block in the packed B
        for jp in 0..col_panels {
            let panel_base = jp * kc2_total * nr * 2;
            let bpanel = &bp[panel_base + p2_0 * nr * 2..panel_base + (p2_0 + kc2) * nr * 2];
            let j0 = jp * nr;
            let cols = nr.min(n - j0);
            for ir in 0..row_panels {
                let apanel = &apack[ir * kc2 * mr..(ir + 1) * kc2 * mr];
                let r0 = ir * mr;
                let tile_rows = mr.min(rows - r0);
                (cfg.micro)(
                    apanel,
                    bpanel,
                    kc2,
                    &mut band[r0 * n + j0..],
                    n,
                    tile_rows,
                    cols,
                );
            }
        }
        pc += kc;
    }
}

/// Accumulates a [`QMR`]`×`[`QNR`] register tile over `kc2` shared-dimension
/// pairs and adds the valid region into `c`. Pure safe Rust.
fn portable_qmicrokernel(
    apanel: &[i32],
    bpanel: &[i16],
    kc2: usize,
    c: &mut [i32],
    ldc: usize,
    tile_rows: usize,
    cols: usize,
) {
    let mut acc = [[0i32; QNR]; QMR];
    for p in 0..kc2 {
        let av: &[i32; QMR] = apanel[p * QMR..(p + 1) * QMR]
            .try_into()
            .expect("QMR sliver");
        let bv: &[i16; QNR * 2] = bpanel[p * QNR * 2..(p + 1) * QNR * 2]
            .try_into()
            .expect("QNR sliver");
        for r in 0..QMR {
            let a0 = av[r] as i16 as i32;
            let a1 = av[r] >> 16;
            for (j, slot) in acc[r].iter_mut().enumerate() {
                *slot += a0 * bv[2 * j] as i32 + a1 * bv[2 * j + 1] as i32;
            }
        }
    }
    for r in 0..tile_rows {
        let crow = &mut c[r * ldc..r * ldc + cols];
        for (o, &v) in crow.iter_mut().zip(&acc[r][..cols]) {
            *o += v;
        }
    }
}

/// AVX2 int8 micro-kernel: a 6×16 register tile of `i32` accumulators fed by
/// `vpmaddwd` over sign-extended `i16` pairs. Exact — the largest pair sum is
/// `2·127² = 32258`, well inside `i16`-product `i32` range, so unlike the
/// `vpmaddubsw` formulation there is no saturation to work around.
#[cfg(target_arch = "x86_64")]
mod qavx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };

    /// Register-tile rows of the AVX2 int8 kernel.
    pub(super) const MR: usize = 6;
    /// Register-tile columns (two 8-lane `i32` accumulators per row).
    pub(super) const NR: usize = 16;

    /// Safe entry point matching [`super::QMicroKernelFn`]. Only reachable
    /// through [`super::qkernel_config`], which verifies AVX2 first.
    pub(super) fn microkernel(
        apanel: &[i32],
        bpanel: &[i16],
        kc2: usize,
        c: &mut [i32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        debug_assert!(apanel.len() >= kc2 * MR && bpanel.len() >= kc2 * NR * 2);
        unsafe { microkernel_impl(apanel, bpanel, kc2, c, ldc, tile_rows, cols) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn microkernel_impl(
        apanel: &[i32],
        bpanel: &[i16],
        kc2: usize,
        c: &mut [i32],
        ldc: usize,
        tile_rows: usize,
        cols: usize,
    ) {
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        let ap = apanel.as_ptr();
        let bpp = bpanel.as_ptr();
        for p in 0..kc2 {
            // 16 interleaved i16 = 8 column pairs; two loads cover 16 columns.
            let b0 = _mm256_loadu_si256(bpp.add(p * NR * 2) as *const __m256i);
            let b1 = _mm256_loadu_si256(bpp.add(p * NR * 2 + 16) as *const __m256i);
            for (r, row_acc) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_epi32(*ap.add(p * MR + r));
                row_acc[0] = _mm256_add_epi32(row_acc[0], _mm256_madd_epi16(va, b0));
                row_acc[1] = _mm256_add_epi32(row_acc[1], _mm256_madd_epi16(va, b1));
            }
        }
        if tile_rows == MR && cols == NR {
            for (r, row_acc) in acc.iter().enumerate() {
                let crow = c.as_mut_ptr().add(r * ldc);
                let lo = _mm256_loadu_si256(crow as *const __m256i);
                _mm256_storeu_si256(crow as *mut __m256i, _mm256_add_epi32(lo, row_acc[0]));
                let hi = _mm256_loadu_si256(crow.add(8) as *const __m256i);
                _mm256_storeu_si256(
                    crow.add(8) as *mut __m256i,
                    _mm256_add_epi32(hi, row_acc[1]),
                );
            }
        } else {
            let mut spill = [0i32; MR * NR];
            for (r, row_acc) in acc.iter().enumerate() {
                _mm256_storeu_si256(spill.as_mut_ptr().add(r * NR) as *mut __m256i, row_acc[0]);
                _mm256_storeu_si256(
                    spill.as_mut_ptr().add(r * NR + 8) as *mut __m256i,
                    row_acc[1],
                );
            }
            for r in 0..tile_rows {
                let crow = &mut c[r * ldc..r * ldc + cols];
                for (o, &v) in crow.iter_mut().zip(&spill[r * NR..r * NR + cols]) {
                    *o += v;
                }
            }
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

    #[test]
    fn qgemm_matches_the_naive_oracle_on_blocked_shapes() {
        for &(m, k, n) in &[(40, 41, 43), (5, QKC + 7, 9), (1, 700, 2), (70, 33, 37)] {
            let a = pseudo_i8(m * k, (m * 31 + k) as u64);
            let b = pseudo_i8(k * n, (n * 17 + k) as u64);
            let want = naive_qgemm(&a, &b, m, k, n);
            assert_eq!(
                qgemm_nn_with(&a, &b, m, k, n, Parallelism::Serial),
                want,
                "serial mismatch at {m}x{k}x{n}"
            );
            assert_eq!(
                qgemm_nn_with(&a, &b, m, k, n, Parallelism::Parallel),
                want,
                "parallel mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn qgemm_empty_dimensions_yield_zero_filled_output() {
        assert_eq!(qgemm_nn(&[], &[], 0, 0, 0), Vec::<i32>::new());
        assert_eq!(qgemm_nn(&[], &[], 2, 0, 3), vec![0; 6]);
    }

    #[test]
    #[should_panic(expected = "i32-overflow bound")]
    fn qgemm_rejects_overflow_prone_k() {
        let _ = qgemm_nn(&[], &[], 0, QGEMM_MAX_K + 1, 0);
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

    /// The reference the fused kernel must match bit-for-bit: integer
    /// product, then the eager layers' dequant expression per element.
    fn separate_dequant(
        a: &[i8],
        b: &[i8],
        m: usize,
        k: usize,
        n: usize,
        par: Parallelism,
        ep: &QGemmEpilogue,
    ) -> Vec<f32> {
        let acc = qgemm_nn_with(a, b, m, k, n, par);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut v =
                    acc[i * n + j] as f32 * ep.row_scales[i] + ep.bias.map_or(0.0, |bias| bias[j]);
                if ep.relu {
                    v = v.max(0.0);
                }
                out[i * n + j] = v;
            }
        }
        out
    }

    #[test]
    fn fused_dequant_is_bit_exact_on_every_code_path() {
        // Shapes straddle the small-product threshold and the parallel band
        // split; scales/bias exercise every epilogue combination.
        for &(m, k, n) in &[(3, 5, 7), (40, 41, 43), (70, 160, 96), (1, 700, 2)] {
            let a = pseudo_i8(m * k, (m * 13 + n) as u64);
            let b = pseudo_i8(k * n, (k * 29 + m) as u64);
            let row_scales: Vec<f32> = (0..m).map(|i| 0.001 + i as f32 * 1e-4).collect();
            let bias: Vec<f32> = (0..n).map(|j| (j as f32 - n as f32 / 2.0) * 0.3).collect();
            for par in [Parallelism::Serial, Parallelism::Parallel] {
                for (use_bias, relu) in [(false, false), (true, false), (true, true)] {
                    let ep = QGemmEpilogue {
                        row_scales: &row_scales,
                        bias: if use_bias { Some(&bias) } else { None },
                        relu,
                    };
                    assert_eq!(
                        qgemm_nn_dequant(&a, &b, m, k, n, par, ep),
                        separate_dequant(&a, &b, m, k, n, par, &ep),
                        "mismatch at {m}x{k}x{n} par={par:?} bias={use_bias} relu={relu}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_dequant_relu_clamps_negatives_to_positive_zero() {
        // -3 * 1 * 0.5 = -1.5 -> relu -> 0.0 (positive zero, as `max` gives).
        let out = qgemm_nn_dequant(
            &[-3, 3],
            &[1],
            2,
            1,
            1,
            Parallelism::Serial,
            QGemmEpilogue {
                row_scales: &[0.5, 0.5],
                bias: None,
                relu: true,
            },
        );
        assert_eq!(out, vec![0.0, 1.5]);
        assert!(out[0].is_sign_positive());
    }

    #[test]
    #[should_panic(expected = "row_scales length must be m")]
    fn fused_dequant_rejects_mismatched_scales() {
        let _ = qgemm_nn_dequant(
            &[1, 2],
            &[3, 4],
            2,
            1,
            2,
            Parallelism::Serial,
            QGemmEpilogue {
                row_scales: &[1.0],
                bias: None,
                relu: false,
            },
        );
    }

    #[test]
    #[should_panic(expected = "bias length must be n")]
    fn fused_dequant_rejects_mismatched_bias() {
        let _ = qgemm_nn_dequant(
            &[1, 2],
            &[3, 4],
            2,
            1,
            2,
            Parallelism::Serial,
            QGemmEpilogue {
                row_scales: &[1.0, 1.0],
                bias: Some(&[0.0]),
                relu: false,
            },
        );
    }
}
