//! 2-D convolution and transposed convolution layers, the channel-major
//! output pass that writes every NCHW product, and the pixel-major output
//! pass of an int8 plan's conv, whose maps stay `[b, h, w, c]`.

use crate::activation::ReluForm;
use crate::norm::EvalNorm;
use crate::{BatchNorm2d, Layer, Mode, Param};
use ensembler_tensor::gemm::{conv_fused, GemmEpilogue, Parallelism};
use ensembler_tensor::{
    col2im, im2col, im2col_reusing, Conv2dGeometry, Halo, Init, Rng, ShapeError, Tensor,
};

/// Where a channel-major pass finds its source: value `p` of image `n`'s
/// channel `ch` plane lies at `n·image + ch·channel + p·pixel`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    image: usize,
    channel: usize,
    pixel: usize,
}

impl Layout {
    /// `[b·plane, c]` product rows: a pixel's channels lie side by side.
    pub(crate) fn rows(c: usize, plane: usize) -> Self {
        Self {
            image: plane * c,
            channel: 1,
            pixel: c,
        }
    }

    /// An NCHW tensor: a channel is one contiguous plane.
    pub(crate) fn nchw(c: usize, plane: usize) -> Self {
        Self {
            image: c * plane,
            channel: plane,
            pixel: 1,
        }
    }
}

/// The side of one tile of [`nchw_pass`]: `LANES` channels that lie side
/// by side in the source, at `LANES` output positions along a row.
const LANES: usize = 4;

/// The channel-major output pass: builds the `[b, c, h/k, w/k]` NCHW
/// tensor of `f(v)` over the `[b, c, h, w]` values `v` that `src` holds as
/// `layout` says, `f = plane(n, ch)` for plane `(n, ch)` — so a caller works
/// out its per-channel constants once per plane — max-pooled over `k x k`
/// windows when `pool` is `Some(k)` (`k = 1` without a pool).
///
/// Image by image, it walks groups of [`LANES`] channels that lie side by
/// side in the source (the rest one at a time), output row by output row,
/// in tiles of [`LANES`] output positions: a tile reads each pixel's
/// channels as one short vector, maps them lane by lane, and stores one
/// contiguous run per output plane. A pool window starts at `-inf`, visits
/// its taps in `(ky, kx)` order and keeps a value only if it is greater:
/// the eager [`crate::MaxPool2d`] exactly — the first maximum wins, NaN
/// never replaces, and of `±0` the first stays. No full-resolution tensor
/// is built. A window of 1 is a pool too: it maps NaN to `-inf`, as the
/// eager layer does.
///
/// The caller guarantees that `k` divides `h` and `w`.
pub(crate) fn nchw_pass<T: Copy, F: Fn(T) -> f32>(
    src: &[T],
    layout: Layout,
    [b, c, h, w]: [usize; 4],
    pool: Option<usize>,
    plane: impl Fn(usize, usize) -> F,
) -> Tensor {
    let k = pool.unwrap_or(1);
    debug_assert!(k > 0 && h.is_multiple_of(k) && w.is_multiple_of(k));
    let out_plane = (h / k) * (w / k);
    let mut out = vec![0.0f32; b * c * out_plane];
    if out_plane > 0 {
        let grouped = if layout.channel == 1 {
            c - c % LANES
        } else {
            0
        };
        let pass = Pass {
            pixel: layout.pixel,
            w,
            k,
            pooled: pool.is_some(),
        };
        for (n, out) in out.chunks_exact_mut(c * out_plane).enumerate() {
            let image = &src[n * layout.image..];
            let (wide, narrow) = out.split_at_mut(grouped * out_plane);
            for (g, out) in wide.chunks_exact_mut(LANES * out_plane).enumerate() {
                let ch0 = g * LANES;
                let f = std::array::from_fn(|j| plane(n, ch0 + j));
                pass.group::<LANES, _, _>(&image[ch0 * layout.channel..], &f, out);
            }
            for (i, out) in narrow.chunks_exact_mut(out_plane).enumerate() {
                let ch = grouped + i;
                pass.group::<1, _, _>(&image[ch * layout.channel..], &[plane(n, ch)], out);
            }
        }
    }
    Tensor::from_vec(out, &[b, c, h / k, w / k]).expect("output sized to NCHW shape")
}

/// What every tile of one [`nchw_pass`] shares: the source's pixel stride,
/// the source row width, the window extent and whether there is a pool.
#[derive(Clone, Copy)]
struct Pass {
    pixel: usize,
    w: usize,
    k: usize,
    pooled: bool,
}

impl Pass {
    /// The `CH` consecutive output planes `out` of channels that lie side
    /// by side in `src`, whose first value is the first channel's first
    /// pixel, written with `f`.
    fn group<const CH: usize, T: Copy, F: Fn(T) -> f32>(
        self,
        src: &[T],
        f: &[F; CH],
        out: &mut [f32],
    ) {
        let mut planes = out.chunks_exact_mut(out.len() / CH);
        let mut planes: [&mut [f32]; CH] =
            std::array::from_fn(|_| planes.next().expect("CH output planes"));
        let pw = self.w / self.k;
        for py in 0..planes[0].len() / pw {
            let mut px = 0;
            while px + LANES <= pw {
                self.tile::<CH, LANES, _, _>(src, [py, px], f, &mut planes);
                px += LANES;
            }
            for px in px..pw {
                self.tile::<CH, 1, _, _>(src, [py, px], f, &mut planes);
            }
        }
    }

    /// Output positions `px..px + PX` of output row `py`, for `CH`
    /// channels: each position's window read as `CH`-lane vectors, mapped
    /// and (if pooled) max-selected lane by lane, then stored as one run of
    /// `PX` values per channel's plane.
    #[inline(always)]
    fn tile<const CH: usize, const PX: usize, T: Copy, F: Fn(T) -> f32>(
        self,
        src: &[T],
        [py, px]: [usize; 2],
        f: &[F; CH],
        planes: &mut [&mut [f32]; CH],
    ) {
        let Self {
            pixel,
            w,
            k,
            pooled,
        } = self;
        let at = |line: &[T], x: usize| -> [T; CH] {
            line[x * pixel..][..CH]
                .try_into()
                .expect("CH channels side by side")
        };
        let mut best = [[f32::NEG_INFINITY; CH]; PX];
        if !pooled {
            let line = &src[py * w * pixel..];
            for (i, best) in best.iter_mut().enumerate() {
                let v = at(line, px + i);
                *best = std::array::from_fn(|j| f[j](v[j]));
            }
        } else {
            for ky in 0..k {
                let line = &src[(py * k + ky) * w * pixel..];
                for (i, best) in best.iter_mut().enumerate() {
                    for kx in 0..k {
                        let v = at(line, (px + i) * k + kx);
                        for (j, best) in best.iter_mut().enumerate() {
                            let v = f[j](v[j]);
                            *best = if v > *best { v } else { *best };
                        }
                    }
                }
            }
        }
        let start = py * (w / k) + px;
        for (j, plane) in planes.iter_mut().enumerate() {
            let run: [f32; PX] = std::array::from_fn(|i| best[i][j]);
            plane[start..start + PX].copy_from_slice(&run);
        }
    }
}

/// What a conv does after its product and bias, in one channel-major pass
/// over the product rows ([`nchw_pass`]; an int8 plan's conv writes the
/// pixel-major form, [`OutputPass::pixel_epilogue`] then
/// [`OutputPass::pool_pixels`]): an eval-mode batch norm
/// ([`BatchNorm2d::eval_channel`]), then a ReLU, then a max-pool, each if the
/// pipeline has it there. Each applies the per-element expression of the
/// eager layer it stands for, in the eager order, so the pass is bit-exact;
/// the pool writes the pooled tensor directly, with no full-resolution
/// tensor and no argmax. The eager [`Conv2d`] runs the empty pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutputPass {
    pub(crate) bn: Option<BatchNorm2d>,
    pub(crate) relu: Option<ReluForm>,
    /// The max-pool window.
    pub(crate) pool: Option<usize>,
}

impl OutputPass {
    /// Refuses an `oh x ow` product that the pool window does not divide.
    pub(crate) fn check(&self, oh: usize, ow: usize) -> Result<(), ShapeError> {
        self.pool.map_or(Ok(()), |k| check_pool(oh, ow, k))
    }

    /// The NCHW output of `[b·oh·ow, c]` product rows. `value(n, ch)` is
    /// how plane `(n, ch)` turns a row value into the eager conv's output;
    /// what follows it is branched on once per pass, and a batch norm's
    /// per-channel constants are worked out once per pass, not per image.
    pub(crate) fn run<T: Copy, F: Fn(T) -> f32>(
        &self,
        rows: &[T],
        dims @ [_, c, _, _]: [usize; 4],
        value: impl Fn(usize, usize) -> F,
    ) -> Tensor {
        match &self.bn {
            None => relu_pass(rows, dims, self.relu, self.pool, value),
            Some(bn) => {
                let norms: Vec<_> = (0..c).map(|ch| bn.eval_channel(ch)).collect();
                relu_pass(rows, dims, self.relu, self.pool, |n, ch| {
                    let (value, norm) = (value(n, ch), &norms[ch]);
                    move |v| norm(value(v))
                })
            }
        }
    }

    /// The int8 conv's pixel-major form of [`run`](Self::run), before the
    /// pool, for a conv of bias `bias` (one value a channel): what turns its
    /// product rows into pixel-major values, one band of rows at a time, as
    /// the epilogue of the conv's product ([`PixelEpilogue::write`]).
    /// Element `(n, ·, ch)` is dequantized with its bias,
    /// `a as f32 * rescales[n] + bias[ch]`, then the batch norm
    /// ([`BatchNorm2d::eval_norm`]) and the ReLU follow, each with `run`'s
    /// per-element expression in `run`'s order. [`Self::pool_pixels`] takes
    /// the pool window after it. Its constants depend on the conv only, so a
    /// compiled conv builds it once.
    pub(crate) fn pixel_epilogue(&self, bias: &[f32]) -> PixelEpilogue {
        // A run long enough for a few vector iterations per step, of whole
        // pixels.
        let pixels = PIXEL_RUN.div_ceil(bias.len().max(1));
        PixelEpilogue {
            bias: bias.repeat(pixels),
            norm: self.bn.as_ref().map(|bn| bn.eval_norm(pixels)),
            relu: self.relu,
            c: bias.len(),
        }
    }

    /// The pixel-major output of `map`, the `[b, oh, ow, c]` values
    /// ([`Self::pixel_epilogue`]) of the `[b, c, oh, ow]` `dims`: `map`
    /// itself without a pool, and max-pooled over the pass's window with
    /// one: a window starts at `-inf`, visits its taps in `(ky, kx)` order
    /// and keeps a value only if it is greater, [`nchw_pass`]'s selection,
    /// across a pixel's channels at a time.
    pub(crate) fn pool_pixels(&self, map: Vec<f32>, [b, c, oh, ow]: [usize; 4]) -> Tensor {
        let Some(k) = self.pool else {
            return pixels_tensor(map, [b, c, oh, ow]);
        };
        debug_assert!(k > 0 && oh.is_multiple_of(k) && ow.is_multiple_of(k));
        let (ph, pw) = (oh / k, ow / k);
        let mut out = vec![f32::NEG_INFINITY; b * ph * pw * c];
        if ph * pw * c > 0 {
            let images = out
                .chunks_exact_mut(ph * pw * c)
                .zip(map.chunks_exact(oh * ow * c));
            for (out, image) in images {
                for (i, best) in out.chunks_exact_mut(c).enumerate() {
                    let (py, px) = (i / pw, i % pw);
                    for ky in 0..k {
                        for kx in 0..k {
                            let tap = &image[((py * k + ky) * ow + px * k + kx) * c..][..c];
                            for (best, &v) in best.iter_mut().zip(tap) {
                                *best = if v > *best { v } else { *best };
                            }
                        }
                    }
                }
            }
        }
        pixels_tensor(out, [b, c, ph, pw])
    }
}

/// How many values a [`PixelEpilogue`] writes per run, at least: its
/// per-channel constants are repeated for that many values, rounded up to
/// whole pixels.
const PIXEL_RUN: usize = 64;

/// The pixel-major `[b, h, w, c]` tensor of `data`.
fn pixels_tensor(data: Vec<f32>, [b, c, h, w]: [usize; 4]) -> Tensor {
    Tensor::from_vec(data, &[b, h, w, c]).expect("output sized to the pixel-major shape")
}

/// An int8 conv's pixel-major output pass up to its pool
/// ([`OutputPass::pixel_epilogue`]): the per-channel constants, each
/// repeated for a run of whole pixels, and what follows the bias.
#[derive(Debug, Clone)]
pub(crate) struct PixelEpilogue {
    bias: Vec<f32>,
    norm: Option<EvalNorm>,
    relu: Option<ReluForm>,
    c: usize,
}

impl PixelEpilogue {
    /// Writes into `out` the values of `acc`, whole product rows from row
    /// `row0` on, `c` accumulators to a row, of images of `plane` rows
    /// whose activation rescales are `rescales`. Each step is one loop over
    /// a run of pixels of one image that reads its per-channel constants
    /// from slices, so it vectorises across the run; the loops are compiled
    /// for AVX2 where the host has it.
    pub(crate) fn write(
        &self,
        plane: usize,
        rescales: &[f32],
        row0: usize,
        acc: &[i32],
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the host has AVX2, checked on the line above.
                unsafe { self.write_avx2(plane, rescales, row0, acc, out) };
                return;
            }
        }
        self.write_body(plane, rescales, row0, acc, out);
    }

    /// [`Self::write_body`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn write_avx2(
        &self,
        plane: usize,
        rescales: &[f32],
        row0: usize,
        acc: &[i32],
        out: &mut [f32],
    ) {
        self.write_body(plane, rescales, row0, acc, out);
    }

    #[inline(always)]
    fn write_body(
        &self,
        plane: usize,
        rescales: &[f32],
        row0: usize,
        mut acc: &[i32],
        mut out: &mut [f32],
    ) {
        let (c, run) = (self.c, self.bias.len());
        assert!(
            acc.len() == out.len() && acc.len().is_multiple_of(c.max(1)),
            "an output band is whole product rows"
        );
        let mut row = row0;
        while !acc.is_empty() {
            // The rows of the band that belong to image `n`.
            let n = row / plane;
            let rows = ((n + 1) * plane - row).min(acc.len() / c);
            let (image_acc, rest_acc) = acc.split_at(rows * c);
            let (image_out, rest_out) = out.split_at_mut(rows * c);
            for (out, acc) in image_out.chunks_mut(run).zip(image_acc.chunks(run)) {
                self.pixels(acc, rescales[n], out);
            }
            (acc, out, row) = (rest_acc, rest_out, row + rows);
        }
    }

    /// Writes into `out` the values of `acc`, a run of whole pixels of an
    /// image of activation `rescale`: the dequantize and bias, then the batch
    /// norm and the ReLU, each one loop over the run.
    #[inline(always)]
    fn pixels(&self, acc: &[i32], rescale: f32, out: &mut [f32]) {
        for ((out, &a), &bias) in out.iter_mut().zip(acc).zip(&self.bias) {
            *out = a as f32 * rescale + bias;
        }
        if let Some(norm) = &self.norm {
            norm.apply(out);
        }
        match self.relu {
            None => {}
            Some(ReluForm::Mask) => out.iter_mut().for_each(|v| *v = ReluForm::Mask.apply(*v)),
            Some(ReluForm::Max) => out.iter_mut().for_each(|v| *v = ReluForm::Max.apply(*v)),
        }
    }
}

/// [`nchw_pass`] over product rows of plane functions `plane(n, ch)`
/// followed by `relu`, one monomorphic pass per form.
fn relu_pass<T: Copy, F: Fn(T) -> f32>(
    rows: &[T],
    dims @ [_, c, oh, ow]: [usize; 4],
    relu: Option<ReluForm>,
    pool: Option<usize>,
    plane: impl Fn(usize, usize) -> F,
) -> Tensor {
    let layout = Layout::rows(c, oh * ow);
    match relu {
        None => nchw_pass(rows, layout, dims, pool, plane),
        Some(ReluForm::Mask) => nchw_pass(rows, layout, dims, pool, |n, ch| {
            let f = plane(n, ch);
            move |v| ReluForm::Mask.apply(f(v))
        }),
        Some(ReluForm::Max) => nchw_pass(rows, layout, dims, pool, |n, ch| {
            let f = plane(n, ch);
            move |v| ReluForm::Max.apply(f(v))
        }),
    }
}

/// Refuses a max-pool window `k` that does not divide an `h x w` map.
pub(crate) fn check_pool(h: usize, w: usize, k: usize) -> Result<(), ShapeError> {
    if k > 0 && h.is_multiple_of(k) && w.is_multiple_of(k) {
        Ok(())
    } else {
        Err(ShapeError::new(format!(
            "max_pool window {k} must divide spatial dims ({h}x{w})"
        )))
    }
}

/// The `(b, c, h, w)` extents of an NCHW `shape`, or a typed error naming
/// `what`.
pub(crate) fn expect_rank4(
    shape: &[usize],
    what: &str,
) -> Result<(usize, usize, usize, usize), ShapeError> {
    if let [b, c, h, w] = *shape {
        Ok((b, c, h, w))
    } else {
        Err(ShapeError::new(format!(
            "{what} expects NCHW input, got rank-{} shape {shape:?}",
            shape.len()
        )))
    }
}

/// Validates a conv's input and returns `(batch, out_h, out_w)`.
///
/// Besides rank, channels and extents, it refuses any shape whose lowering
/// or output element count does not fit a `usize`: an empty batch of
/// absurdly tall images is constructible (its data is empty), and its
/// per-image sizes would overflow in the halo copy or the output tensor.
pub(crate) fn check_conv_input(
    shape: &[usize],
    in_channels: usize,
    out_channels: usize,
    geometry: Conv2dGeometry,
    what: &str,
) -> Result<(usize, usize, usize), ShapeError> {
    let (b, c, h, w) = expect_rank4(shape, what)?;
    if c != in_channels {
        return Err(ShapeError::new(format!(
            "{what} expected {in_channels} input channels, got {c}"
        )));
    }
    let (k, p) = (geometry.kernel, geometry.padding);
    let too_large = || {
        ShapeError::new(format!(
            "{what} input {shape:?} is too large to lower (padding {p})"
        ))
    };
    let pad = |extent: usize| p.checked_mul(2).and_then(|p2| extent.checked_add(p2));
    let (hp, wp) = (pad(h).ok_or_else(too_large)?, pad(w).ok_or_else(too_large)?);
    if hp < k || wp < k {
        return Err(ShapeError::new(format!(
            "{what} kernel {k} exceeds padded input extent ({h}x{w}, padding {p})"
        )));
    }
    let oh = (hp - k) / geometry.stride + 1;
    let ow = (wp - k) / geometry.stride + 1;
    // An image of the lowering holds `hp·wp` pixels of `c` lanes, rounded
    // up to a multiple of 4 for the int8 copy (its `u8` quads); one of the
    // output `oh·ow` product rows of `out_channels`. Each, times the batch,
    // must fit.
    let lanes = c.div_ceil(4) * 4;
    let fits = [[hp, wp, lanes], [oh, ow, out_channels.max(1)]]
        .iter()
        .all(|dims| {
            dims.iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .and_then(|image| image.checked_mul(b))
                .is_some()
        });
    if !fits {
        return Err(too_large());
    }
    Ok((b, oh, ow))
}

/// The pixel-major `[b, h, w, c]` map of an NCHW `[b, c, h, w]` tensor.
pub(crate) fn to_pixels(t: &Tensor) -> Tensor {
    let dims = [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]];
    to_pixels_with(t.data(), dims, |_| |v| v)
}

/// The `[b·h·w, c]` matrix of an NCHW `[b, c, h, w]` tensor whose rows
/// follow `im2col`'s `(n, y, x)` order: its pixel-major map ([`to_pixels`])
/// as a matrix.
fn pixel_rows(t: &Tensor) -> Tensor {
    let [b, c, h, w] = [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]];
    Tensor::from_vec(to_pixels(t).into_vec(), &[b * h * w, c]).expect("same element count")
}

/// The pixel-major `[b, h, w, c]` map of `image(n)(v)` over the values `v`
/// of image `n` of the NCHW `[b, c, h, w]` batch `src`: pixel by pixel, each
/// gathering its channels from their planes and writing them side by side.
pub(crate) fn to_pixels_with<T: Copy, F: Fn(T) -> f32>(
    src: &[T],
    [b, c, h, w]: [usize; 4],
    image: impl Fn(usize) -> F,
) -> Tensor {
    let (plane, len) = (h * w, c * h * w);
    let mut out = vec![0.0f32; src.len()];
    if len > 0 {
        let images = src.chunks_exact(len).zip(out.chunks_exact_mut(len));
        for (n, (src, dst)) in images.enumerate() {
            let value = image(n);
            for (p, pixel) in dst.chunks_exact_mut(c).enumerate() {
                for (ch, v) in pixel.iter_mut().enumerate() {
                    *v = value(src[ch * plane + p]);
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, h, w, c]).expect("same element count")
}

/// The NCHW tensor of a pixel-major `[b, h, w, c]` map: one channel-major
/// [`nchw_pass`] over the map as product rows.
pub(crate) fn from_pixels(t: &Tensor) -> Tensor {
    let [b, h, w, c] = [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]];
    let layout = Layout::rows(c, h * w);
    nchw_pass(t.data(), layout, [b, c, h, w], None, |_, _| |v| v)
}

/// 2-D convolution with square kernels.
///
/// The forward reads one zero-haloed copy of its input ([`Halo`]) in place
/// through [`conv_fused`], then writes the NCHW output with the bias in one
/// channel-major pass: the same functions a compiled plan's conv stage
/// calls, with nothing fused after the bias. The backward rebuilds the
/// column matrix from the input it kept for the weight gradient, in the
/// allocation of the previous backward's matrix.
///
/// Weight layout is `[out_channels, in_channels * kernel * kernel]`; bias is
/// `[out_channels]`.
///
/// # Examples
///
/// ```
/// use ensembler_nn::{Conv2d, Layer, Mode};
/// use ensembler_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed_from(0);
/// let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let y = conv.forward(&Tensor::ones(&[2, 3, 16, 16]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    geometry: Conv2dGeometry,
    cached_input: Option<Tensor>,
    /// The last backward's column matrix, whose allocation the next one
    /// reuses: a training step would otherwise allocate a fresh matrix
    /// (megabytes) per conv and fault its pages in again.
    col_buffer: Vec<f32>,
}

/// An input batch validated for a [`Conv2d`] (and the pass after it) and
/// lowered, as one zero-haloed copy, for the conv's product, with the output
/// extents the validation worked out.
pub(crate) struct Lowered<'a> {
    halo: Halo<'a>,
    b: usize,
    oh: usize,
    ow: usize,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if a channel count, the kernel size or the stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        let geometry = Conv2dGeometry::new(kernel, stride, padding);
        let fan_in = in_channels * kernel * kernel;
        let weight = Init::KaimingNormal { fan_in }.tensor(&[out_channels, fan_in], rng);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            geometry,
            cached_input: None,
            col_buffer: Vec::new(),
        }
    }

    /// Returns the convolution geometry (kernel, stride, padding).
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geometry
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Immutable view of the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// An inference-only copy for a compiled plan: the weights, no gradient
    /// buffers, no training caches (see [`Param::frozen`]).
    pub(crate) fn frozen(&self) -> Self {
        Self {
            weight: self.weight.frozen(),
            bias: self.bias.frozen(),
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            geometry: self.geometry,
            cached_input: None,
            col_buffer: Vec::new(),
        }
    }

    /// Immutable view of the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Output shape for a given NCHW input shape.
    ///
    /// # Panics
    ///
    /// Panics if `input_shape` is not rank-4 or the channel count differs.
    pub fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(input_shape.len(), 4, "expected NCHW shape");
        assert_eq!(input_shape[1], self.in_channels, "channel mismatch");
        vec![
            input_shape[0],
            self.out_channels,
            self.geometry.output_extent(input_shape[2]),
            self.geometry.output_extent(input_shape[3]),
        ]
    }

    /// Validates `input` for this conv followed by `pass` and lowers it to
    /// the zero-haloed copy the product reads ([`Halo`], which borrows an
    /// input that needs no padding). A typed error, never a panic, for a
    /// shape the conv or the pass's pool window does not fit.
    pub(crate) fn lower_input<'a>(
        &self,
        input: &'a Tensor,
        pass: &OutputPass,
    ) -> Result<Lowered<'a>, ShapeError> {
        let (in_channels, geometry) = (self.in_channels, self.geometry);
        let (b, oh, ow) = check_conv_input(
            input.shape(),
            in_channels,
            self.out_channels,
            geometry,
            "conv",
        )?;
        pass.check(oh, ow)?;
        let (h, w) = (input.shape()[2], input.shape()[3]);
        Ok(Lowered {
            halo: Halo::lower(input.data(), b, in_channels, h, w, geometry),
            b,
            oh,
            ow,
        })
    }

    /// This conv's product over `lowered`, then its bias and `pass` in one
    /// channel-major pass over the product rows. Reads `lowered`, never
    /// changes it, so the bodies of an ensemble can share one lowering.
    pub(crate) fn finish(&self, lowered: &Lowered, pass: &OutputPass) -> Tensor {
        let &Lowered { b, oh, ow, .. } = lowered;
        let n = self.out_channels;
        let weight = self.weight.value.data();
        let ep = GemmEpilogue::none();
        let rows = conv_fused(&lowered.halo, weight, n, Parallelism::Auto, ep);
        let bias = self.bias.value.data();
        pass.run(&rows, [b, n, oh, ow], |_, co| {
            let bias = bias[co];
            move |v: f32| v + bias
        })
    }
}

impl Layer for Conv2d {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        let pass = OutputPass::default();
        let lowered = self
            .lower_input(input, &pass)
            .unwrap_or_else(|err| panic!("{err}"));
        self.finish(&lowered, &pass)
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = self.forward(input, mode);
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward on Conv2d");
        let input_shape = input.shape();
        let buffer = std::mem::take(&mut self.col_buffer);
        let cols = im2col_reusing(input, self.geometry, buffer);
        let grad_rows = pixel_rows(grad_output);
        // dW = dY_rows^T * cols
        let grad_w = grad_rows.matmul_tn(&cols);
        self.weight.grad.add_assign(&grad_w);
        self.bias.grad.add_assign(&grad_output.sum_per_channel());
        // dCols = dY_rows * W ; dX = col2im(dCols)
        let grad_cols = grad_rows.matmul(&self.weight.value);
        let grad_input = col2im(
            &grad_cols,
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
            self.geometry,
        );
        self.col_buffer = cols.into_vec();
        grad_input
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::Conv(self.clone())
    }
}

/// 2-D transposed convolution (a.k.a. deconvolution), the building block of
/// the model-inversion decoder.
///
/// The layer shares its connectivity pattern with a forward [`Conv2d`] of the
/// same geometry: `ConvTranspose2d` maps a `[B, Cin, h, w]` feature map back
/// to the `[B, Cout, H, W]` spatial extent that a forward convolution with
/// this geometry would have consumed to produce `h x w`.
///
/// Weight layout is `[in_channels, out_channels * kernel * kernel]`.
#[derive(Debug, Clone)]
pub struct ConvTranspose2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    geometry: Conv2dGeometry,
    cached_input_rows: Option<Tensor>,
    cached_input_shape: Option<Vec<usize>>,
}

impl ConvTranspose2d {
    /// Creates a transposed convolution with Kaiming-normal weights.
    ///
    /// # Panics
    ///
    /// Panics if a channel count, the kernel size or the stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        let geometry = Conv2dGeometry::new(kernel, stride, padding);
        let fan_in = in_channels;
        let weight = Init::KaimingNormal { fan_in }
            .tensor(&[in_channels, out_channels * kernel * kernel], rng);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            geometry,
            cached_input_rows: None,
            cached_input_shape: None,
        }
    }

    /// Returns the shared geometry.
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geometry
    }

    /// Output shape for a given NCHW input shape.
    ///
    /// # Panics
    ///
    /// Panics if `input_shape` is not rank-4 or the channel count differs.
    pub fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        assert_eq!(input_shape.len(), 4, "expected NCHW shape");
        assert_eq!(input_shape[1], self.in_channels, "channel mismatch");
        vec![
            input_shape[0],
            self.out_channels,
            self.geometry.transposed_output_extent(input_shape[2]),
            self.geometry.transposed_output_extent(input_shape[3]),
        ]
    }

    /// Shared forward computation: returns the output and the input-row
    /// matrix (which the cached path stores for backward).
    fn run(&self, input: &Tensor) -> (Tensor, Tensor) {
        assert_eq!(input.rank(), 4, "ConvTranspose2d expects NCHW input");
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "ConvTranspose2d expected {} input channels, got {}",
            self.in_channels,
            input.shape()[1]
        );
        let out_shape = self.output_shape(input.shape());
        // X_rows: [B*h*w, Cin]; cols = X_rows * W : [B*h*w, Cout*K*K]
        let input_rows = pixel_rows(input);
        let cols = input_rows.matmul(&self.weight.value);
        let out = col2im(
            &cols,
            out_shape[0],
            out_shape[1],
            out_shape[2],
            out_shape[3],
            self.geometry,
        );
        (out.add_channel_bias(&self.bias.value), input_rows)
    }
}

impl Layer for ConvTranspose2d {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        self.run(input).0
    }

    fn forward_cached(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (out, input_rows) = self.run(input);
        self.cached_input_rows = Some(input_rows);
        self.cached_input_shape = Some(input.shape().to_vec());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input_rows = self
            .cached_input_rows
            .as_ref()
            .expect("backward called before forward on ConvTranspose2d");
        let input_shape = self
            .cached_input_shape
            .as_ref()
            .expect("input shape cached by forward");
        // grad wrt cols is im2col(grad_output) because forward used col2im.
        let grad_cols = im2col(grad_output, self.geometry); // [B*h*w, Cout*K*K]
                                                            // dW = X_rows^T * grad_cols
        let grad_w = input_rows.matmul_tn(&grad_cols);
        self.weight.grad.add_assign(&grad_w);
        self.bias.grad.add_assign(&grad_output.sum_per_channel());
        // dX_rows = grad_cols * W^T
        let grad_rows = grad_cols.matmul_nt(&self.weight.value);
        let [b, c, h, w] = input_shape[..] else {
            unreachable!("the cached input is rank 4")
        };
        let grad_pixels = Tensor::from_vec(grad_rows.into_vec(), &[b, h, w, c])
            .expect("row matrix sized to the input");
        from_pixels(&grad_pixels)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> &'static str {
        "conv_transpose2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_input_grad, check_layer_param_grads};

    #[test]
    fn a_frozen_copy_keeps_the_forward_and_drops_what_training_needs() {
        let mut rng = Rng::seed_from(11);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let x = Tensor::from_fn(&[2, 3, 5, 5], |i| (i as f32 * 0.1).sin());
        let y = conv.forward_cached(&x, Mode::Train);
        let frozen = conv.frozen();
        assert_eq!(frozen.forward(&x, Mode::Eval), y);
        assert_eq!(frozen.weight().value, conv.weight().value);
        assert!(frozen.weight().grad.is_empty() && frozen.bias().grad.is_empty());
        assert!(frozen.cached_input.is_none() && conv.cached_input.as_ref() == Some(&x));
        // A backward keeps its column matrix's allocation for the next one,
        // which computes the same gradient in it; a frozen copy has none.
        let g = Tensor::from_fn(y.shape(), |i| (i as f32 * 0.3).cos());
        let first = conv.backward(&g);
        assert!(!conv.col_buffer.is_empty() && conv.frozen().col_buffer.is_empty());
        assert_eq!(conv.backward(&g), first);
    }

    /// The bits of `t`, so that NaN equals NaN and `-0.0` differs from
    /// `+0.0`.
    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn the_pixel_major_output_pass_writes_the_nchw_values_bit_for_bit() {
        // The int8 stage's NCHW pass (nchw_pass over the accumulators with
        // the dequantize and bias as its value) against the pixel-major
        // epilogue and pool, after permuting their output to NCHW: every
        // batch norm / ReLU / pool combination, channel counts that leave a
        // part vector (and runs that end mid-image), one-pixel planes, and
        // NaN, ±inf, ±0 and subnormal scales and constants over extreme
        // accumulators.
        let mut rng = Rng::seed_from(31);
        let odd = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-40,
            -1e-40,
        ];
        let extreme = [0, 1, -1, i32::MAX, i32::MIN, 127 * 128 * 9];
        for c in [1, 3, 4, 5, 16, 33] {
            let mut bn = BatchNorm2d::new(c);
            let warm = Tensor::from_fn(&[4, c, 3, 3], |_| rng.normal_with(0.4, 1.3));
            let _ = bn.forward_cached(&warm, Mode::Train);
            for (i, v) in bn.params_mut()[1].value.data_mut().iter_mut().enumerate() {
                if i % 3 == 1 {
                    *v = odd[i % odd.len()];
                }
            }
            let bias: Vec<f32> = (0..c)
                .map(|i| match i % 4 {
                    1 => odd[(i + c) % odd.len()],
                    _ => rng.uniform(-1.0, 1.0),
                })
                .collect();
            for (b, h, w) in [(3, 4, 6), (2, 1, 1), (1, 2, 2), (0, 2, 2), (1, 18, 20)] {
                let acc: Vec<i32> = (0..b * h * w * c)
                    .map(|i| match i % 9 {
                        4 => extreme[i / 9 % extreme.len()],
                        _ => (rng.uniform(-3000.0, 3000.0)) as i32,
                    })
                    .collect();
                for special in odd {
                    let rescales: Vec<f32> = (0..b)
                        .map(|n| match n {
                            1 => special,
                            _ => rng.uniform(1e-4, 1e-2),
                        })
                        .collect();
                    let norms = [None, Some(bn.clone())];
                    let relus = [None, Some(ReluForm::Mask), Some(ReluForm::Max)];
                    for (bn, relu, pool) in norms.iter().flat_map(|bn| {
                        relus.iter().flat_map(move |&relu| {
                            [None, Some(1), Some(2)].map(|pool| (bn.clone(), relu, pool))
                        })
                    }) {
                        let k = pool.unwrap_or(1);
                        if h % k != 0 || w % k != 0 {
                            continue;
                        }
                        let what = format!("c{c} {b}x{h}x{w} {relu:?} {pool:?} scale {special:e}");
                        let pass = OutputPass { bn, relu, pool };
                        let want = pass.run(&acc, [b, c, h, w], |n, co| {
                            let (rescale, bias) = (rescales[n], bias[co]);
                            move |a: i32| a as f32 * rescale + bias
                        });
                        // Bands of 7 rows, as a product's epilogue gets
                        // them: some cross an image's end.
                        let epilogue = pass.pixel_epilogue(&bias);
                        let mut map = vec![0.0; acc.len()];
                        let bands = acc.chunks(7 * c).zip(map.chunks_mut(7 * c));
                        for (i, (acc, out)) in bands.enumerate() {
                            epilogue.write(h * w, &rescales, 7 * i, acc, out);
                        }
                        // The loops compiled for the baseline target too.
                        let mut portable = vec![0.0; acc.len()];
                        epilogue.write_body(h * w, &rescales, 0, &acc, &mut portable);
                        assert_eq!(bits(&portable), bits(&map), "portable {what}");
                        let got = pass.pool_pixels(map, [b, c, h, w]);
                        let (ph, pw) = (h / k, w / k);
                        assert_eq!(got.shape(), &[b, ph, pw, c], "{what}");
                        let permuted: Vec<f32> = (0..b * c * ph * pw)
                            .map(|i| {
                                let (n, ch, p) =
                                    (i / (c * ph * pw), i / (ph * pw) % c, i % (ph * pw));
                                got.data()[(n * ph * pw + p) * c + ch]
                            })
                            .collect();
                        assert_eq!(bits(&permuted), bits(want.data()), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_conversion_round_trips() {
        let t = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        let pixels = to_pixels(&t);
        assert_eq!(pixels.shape(), &[2, 4, 5, 3]);
        for (i, &v) in pixels.data().iter().enumerate() {
            let (n, p, ch) = (i / 60, i / 3 % 20, i % 3);
            assert_eq!(v, t.data()[n * 60 + ch * 20 + p], "pixel value {i}");
        }
        let rows = pixel_rows(&t);
        assert_eq!(rows.shape(), &[2 * 4 * 5, 3]);
        assert_eq!(rows.data(), pixels.data());
        assert_eq!(from_pixels(&pixels), t);
        let empty = Tensor::from_vec(vec![], &[0, 16, usize::MAX / 16, 1]).unwrap();
        assert_eq!(to_pixels(&empty).shape(), &[0, usize::MAX / 16, 1, 16]);
    }

    #[test]
    fn conv_forward_known_values() {
        // Single 2x2 input, one input channel, one output channel, 2x2 kernel
        // of ones, no padding: output is the sum of the input patch.
        let mut rng = Rng::seed_from(0);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng);
        conv.params_mut()[0].value.fill(1.0);
        conv.params_mut()[1].value.fill(0.5);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.item(), 10.5);

        // Every value, bit for bit, against an oracle that shares none of
        // the forward's code past the kernels: the column matrix, its
        // matrix product, and the per-channel bias added while scattering
        // the product rows to NCHW by hand. 5 output channels are one group
        // of four side by side and one alone; a 7x9 map leaves ragged tiles.
        let mut rng = Rng::seed_from(12);
        for (stride, padding, batch) in [1, 2]
            .into_iter()
            .flat_map(|s| [0, 1].map(|p| (s, p)))
            .flat_map(|(s, p)| [1, 3].map(|b| (s, p, b)))
        {
            let mut conv = Conv2d::new(3, 5, 3, stride, padding, &mut rng);
            conv.params_mut()[1]
                .value
                .data_mut()
                .copy_from_slice(&[0.5, -0.25, 1.5, 0.0, -2.0]);
            let x = Tensor::from_fn(&[batch, 3, 7, 9], |_| rng.uniform(-1.0, 1.0));
            let [_, c, oh, ow] = conv.output_shape(x.shape())[..] else {
                unreachable!("output_shape is rank 4")
            };
            let rows = im2col(&x, conv.geometry()).matmul_nt(&conv.weight().value);
            let bias = conv.bias().value.data();
            let plane = oh * ow;
            let want: Vec<u32> = (0..batch * c * plane)
                .map(|i| {
                    let (n, co, p) = (i / (c * plane), i / plane % c, i % plane);
                    (rows.data()[(n * plane + p) * c + co] + bias[co]).to_bits()
                })
                .collect();
            let y = conv.forward(&x, Mode::Eval);
            assert_eq!(y.shape(), &[batch, c, oh, ow]);
            let got: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "stride {stride} padding {padding} batch {batch}");
        }
    }

    #[test]
    fn conv_same_padding_preserves_spatial_size() {
        let mut rng = Rng::seed_from(1);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let y = conv.forward(&Tensor::ones(&[2, 3, 7, 7]), Mode::Eval);
        assert_eq!(y.shape(), &[2, 8, 7, 7]);
        assert_eq!(conv.output_shape(&[2, 3, 7, 7]), vec![2, 8, 7, 7]);
        assert_eq!(conv.in_channels(), 3);
        assert_eq!(conv.out_channels(), 8);
    }

    #[test]
    fn strided_conv_downsamples() {
        let mut rng = Rng::seed_from(2);
        let conv = Conv2d::new(2, 4, 3, 2, 1, &mut rng);
        let y = conv.forward(&Tensor::ones(&[1, 2, 8, 8]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(3);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        check_layer_input_grad(&mut conv, &[1, 2, 5, 5], 0.0, 3e-2);
        check_layer_param_grads(&mut conv, &[1, 2, 5, 5], 3e-2, 24);
    }

    #[test]
    fn strided_conv_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(4);
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        check_layer_input_grad(&mut conv, &[1, 2, 6, 6], 0.0, 3e-2);
        check_layer_param_grads(&mut conv, &[1, 2, 6, 6], 3e-2, 24);
    }

    #[test]
    fn transposed_conv_inverts_spatial_downsampling() {
        let mut rng = Rng::seed_from(5);
        let deconv = ConvTranspose2d::new(4, 2, 2, 2, 0, &mut rng);
        let y = deconv.forward(&Tensor::ones(&[1, 4, 4, 4]), Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 8, 8]);
        assert_eq!(deconv.output_shape(&[1, 4, 4, 4]), vec![1, 2, 8, 8]);
    }

    #[test]
    fn transposed_conv_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(6);
        let mut deconv = ConvTranspose2d::new(2, 2, 3, 1, 1, &mut rng);
        check_layer_input_grad(&mut deconv, &[1, 2, 4, 4], 0.0, 3e-2);
        check_layer_param_grads(&mut deconv, &[1, 2, 4, 4], 3e-2, 24);
    }

    #[test]
    fn strided_transposed_conv_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(7);
        let mut deconv = ConvTranspose2d::new(3, 2, 2, 2, 0, &mut rng);
        check_layer_input_grad(&mut deconv, &[1, 3, 3, 3], 0.0, 3e-2);
        check_layer_param_grads(&mut deconv, &[1, 3, 3, 3], 3e-2, 24);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv_with_shared_weights() {
        // With the same geometry and tied weights, <conv(x), y> == <x, convT(y)>.
        let mut rng = Rng::seed_from(8);
        let geometry_kernel = 3;
        let mut conv = Conv2d::new(2, 3, geometry_kernel, 1, 1, &mut rng);
        let mut deconv = ConvTranspose2d::new(3, 2, geometry_kernel, 1, 1, &mut rng);
        // Tie weights: conv weight is [Cout, Cin*K*K]; deconv weight is
        // [Cin_deconv=Cout, Cout_deconv*K*K=Cin*K*K]. They share the layout.
        deconv.params_mut()[0]
            .value
            .data_mut()
            .copy_from_slice(conv.params()[0].value.data());
        // Remove biases so the identity is exact.
        conv.params_mut()[1].value.fill_zero();
        deconv.params_mut()[1].value.fill_zero();

        let x = Tensor::from_fn(&[1, 2, 5, 5], |i| ((i % 11) as f32) * 0.3 - 1.0);
        let y = Tensor::from_fn(&[1, 3, 5, 5], |i| ((i % 7) as f32) * 0.2 - 0.5);
        let lhs = conv.forward(&x, Mode::Eval).dot(&y);
        let rhs = x.dot(&deconv.forward(&y, Mode::Eval));
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    #[test]
    #[should_panic(expected = "expected 2 input channels")]
    fn conv_rejects_wrong_channel_count() {
        let mut rng = Rng::seed_from(9);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let _ = conv.forward(&Tensor::ones(&[1, 3, 5, 5]), Mode::Eval);
    }

    #[test]
    fn parameter_counts() {
        let mut rng = Rng::seed_from(10);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        assert_eq!(conv.parameter_count(), 8 * 3 * 9 + 8);
        let deconv = ConvTranspose2d::new(8, 3, 3, 1, 1, &mut rng);
        assert_eq!(deconv.parameter_count(), 8 * 3 * 9 + 3);
        assert_eq!(conv.geometry(), deconv.geometry());
    }
}
