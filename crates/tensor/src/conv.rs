//! `im2col`/`col2im` lowering used to express 2-D (de)convolutions as GEMMs,
//! and the convolution forwards' lowerings that write no column matrix:
//! [`Halo`] for `f32` convolutions, [`QHalo`] for int8 ones. Both are one
//! zero-haloed copy of the input that the product reads in place, and both
//! take the input in whichever [`Layout`] it lies (NCHW for a plan's input
//! and an eager layer's, pixel-major after a compiled conv); `im2col`
//! stays as the convolution backward's lowering, the int8 eager oracle's
//! (`im2col_i8`) and the halos' test oracle. A compiled int8 plan fills its
//! [`QHalo`] with [`QHalo::quantize`], straight from the `f32` map its
//! stages pass along: no `i8` batch in between. An `f32` [`Halo`] keeps the
//! layout of its input, so its copy of a pixel-major map is pixel-major.
//! [`QHalo::lower`], from an NCHW `i8` batch, is that lowering's test oracle
//! and the matrix form of the int8 product.
//!
//! The transforms touch every batch item independently — item `n` only
//! reads/writes rows `n*out_h*out_w..` of the column matrix and plane
//! `n*C*H*W..` of the image — so each item's block is a disjoint chunk of
//! the output. Large lowerings hand those chunks to the persistent pool with
//! [`crate::parallel::par_chunks_mut`] and every item is written in place,
//! in a single pass: there is no per-item buffer and no stitch afterwards.
//! Inside a parallel region (one ensemble body per core) the same loop runs
//! serially on the calling thread.

use crate::parallel::chunks_mut;
use crate::quant::{absmax, quantization_scale, quantize_into};
use crate::{transpose, Layout, Tensor};
use std::borrow::Cow;

/// Below this many elements per transform the batch loop does not go to the
/// pool: handing a job over is a mutex and a wake-up, and the trainer's tiny
/// lowerings are cheaper than even that.
const PAR_ELEMENT_THRESHOLD: usize = 1 << 15;

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
///
/// The same geometry object describes both the forward convolution and the
/// transposed convolution that shares its connectivity pattern, which keeps
/// the decoder used by the model inversion attack symmetric to the encoder it
/// inverts.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 1, 1);
/// assert_eq!(g.output_extent(16), 16); // "same" convolution
/// let s = Conv2dGeometry::new(3, 2, 1);
/// assert_eq!(s.output_extent(16), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding added on every border.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial extent for an input extent under this geometry.
    ///
    /// # Panics
    ///
    /// Panics if the padded input is smaller than the kernel.
    pub fn output_extent(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "padded input {padded} smaller than kernel {}",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Input spatial extent reconstructed by the matching transposed
    /// convolution from an output extent.
    pub fn transposed_output_extent(&self, input: usize) -> usize {
        (input - 1) * self.stride + self.kernel - 2 * self.padding
    }
}

/// Unfolds an NCHW tensor into the column matrix used by GEMM-based
/// convolution.
///
/// The result has shape `[batch * out_h * out_w, channels * kernel * kernel]`:
/// each row is the flattened receptive field of one output position.
///
/// # Panics
///
/// Panics if `input` is not rank-4.
pub fn im2col(input: &Tensor, geom: Conv2dGeometry) -> Tensor {
    im2col_reusing(input, geom, Vec::new())
}

/// [`im2col`] written into `buffer`'s allocation (every value is
/// overwritten), so a caller that lowers a batch every training step can
/// hand back the matrix the previous step returned ([`Tensor::into_vec`])
/// instead of allocating, and faulting in, a new one.
///
/// # Panics
///
/// Panics if `input` is not rank-4.
pub fn im2col_reusing(input: &Tensor, geom: Conv2dGeometry, buffer: Vec<f32>) -> Tensor {
    assert_eq!(input.rank(), 4, "im2col requires an NCHW tensor");
    let [b, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let out = lower(input.data(), b, c, h, w, geom, buffer);
    let cols = c * geom.kernel * geom.kernel;
    Tensor::from_vec(
        out,
        &[b * geom.output_extent(h) * geom.output_extent(w), cols],
    )
    .expect("im2col buffer sized to rows*cols")
}

/// [`im2col`] over raw quantized `i8` data: unfolds an NCHW `i8` buffer into
/// the `[batch * out_h * out_w, channels * kernel * kernel]` column matrix
/// consumed by [`crate::qgemm_nn`].
///
/// Because symmetric quantization maps `0.0` to `0`, zero padding inserted
/// here is exactly the quantization of the zero padding [`im2col`] inserts —
/// lowering commutes with quantization, which the int8 convolution path
/// relies on. Working in `i8` also moves a quarter of the bytes the `f32`
/// lowering moves, which is where much of the int8 speedup on small
/// convolutions comes from.
///
/// # Panics
///
/// Panics if `data.len() != b*c*h*w`.
pub fn im2col_i8(
    data: &[i8],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
) -> Vec<i8> {
    assert_eq!(data.len(), b * c * h * w, "im2col_i8 buffer/shape mismatch");
    lower(data, b, c, h, w, geom, Vec::new())
}

/// An `f32` batch lowered for the convolution product
/// ([`crate::gemm::conv_fused`], [`crate::gemm::conv_map`]) without a column
/// matrix: one copy of the input in the [`Layout`] the input lies in, NCHW
/// `[b, c, h+2p, w+2p]` or pixel-major `[b, h+2p, w+2p, c]`, with a zero
/// halo `padding` pixels wide around every image. The copy is about
/// `(h+2p)(w+2p)/(h·w)` times the input, where the column matrix [`im2col`]
/// writes is `kernel²` times.
///
/// Output position `(n, oy, ox)` reads tap `(c, ky, kx)` at pixel
/// `(oy·s + ky, ox·s + kx)` of channel `c` of image `n`, through the copy's
/// strides ([`Halo::layout`]): the column matrix's row, in its own
/// `(c, ky, kx)` order, read where it lies, in either layout. The halo holds
/// `+0.0`, the zero [`im2col`] pads with, so the product is bit-identical to
/// the column matrix's. Without padding (a 1×1 shortcut) the input is its
/// own halo: it is borrowed, in its own layout, and nothing is copied.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::{Conv2dGeometry, Halo, Layout};
///
/// // One 1-channel 2x2 image under a "same" 3x3 geometry: a 4x4 plane.
/// let geom = Conv2dGeometry::new(3, 1, 1);
/// let halo = Halo::lower(&[1.0, 2.0, 3.0, 4.0], Layout::nchw(1, 4), [1, 1, 2, 2], geom);
/// assert_eq!(
///     halo.data(),
///     &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0]
/// );
/// // Two channels of one pixel, pixel-major, under the same geometry: the
/// // pixel's two values in the middle of a 3x3 frame of zero pixels.
/// let halo = Halo::lower(&[1.0, 2.0], Layout::pixel_major(2, 1), [1, 2, 1, 1], geom);
/// assert_eq!(halo.layout(), Layout::pixel_major(2, 9));
/// assert_eq!(&halo.data()[8..10], &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Halo<'a> {
    /// The haloed batch, as `layout` says.
    data: Cow<'a, [f32]>,
    /// Where value `(n, c, pixel)` of the haloed `hp x wp` planes lies.
    pub(crate) layout: Layout,
    pub(crate) geometry: Conv2dGeometry,
    pub(crate) batch: usize,
    pub(crate) channels: usize,
    /// Haloed row width.
    pub(crate) wp: usize,
    /// Output extents.
    pub(crate) oh: usize,
    pub(crate) ow: usize,
}

impl<'a> Halo<'a> {
    /// Lowers the batch `data`, of logical shape `[b, c, h, w]` and lying as
    /// `layout` says, for a convolution of geometry `geom`, into a copy of
    /// the same layout, borrowing `data` when `geom` has no padding.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != b*c*h*w`, if `layout` is neither
    /// [`Layout::nchw`] nor [`Layout::pixel_major`] of `c` channels of `h·w`
    /// pixels, or if the padded input is smaller than the kernel.
    pub fn lower(
        data: &'a [f32],
        layout: Layout,
        [b, c, h, w]: [usize; 4],
        geom: Conv2dGeometry,
    ) -> Self {
        assert_eq!(data.len(), b * c * h * w, "Halo buffer/shape mismatch");
        let is_pixel_major = layout == Layout::pixel_major(c, h * w);
        assert!(
            is_pixel_major || layout == Layout::nchw(c, h * w),
            "Halo::lower reads a dense NCHW or pixel-major batch"
        );
        let (oh, ow) = (geom.output_extent(h), geom.output_extent(w));
        let p = geom.padding;
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        let layout = if is_pixel_major {
            Layout::pixel_major(c, hp * wp)
        } else {
            Layout::nchw(c, hp * wp)
        };
        let data = if p == 0 {
            Cow::Borrowed(data)
        } else {
            // One image -> its haloed block, a row at a time (of a channel
            // plane, or of pixels); the halo keeps the zero the block was
            // allocated with.
            let item = c * hp * wp;
            let mut out = vec![0.0f32; b * item];
            let parallel = b > 1 && out.len() >= PAR_ELEMENT_THRESHOLD;
            chunks_mut(&mut out, item.max(1), parallel, |n, block| {
                let image = &data[n * c * h * w..(n + 1) * c * h * w];
                if is_pixel_major {
                    for y in 0..h {
                        let src = &image[y * w * c..][..w * c];
                        block[((y + p) * wp + p) * c..][..w * c].copy_from_slice(src);
                    }
                } else {
                    for ch in 0..c {
                        for y in 0..h {
                            let src = &image[(ch * h + y) * w..][..w];
                            block[((ch * hp + y + p) * wp + p)..][..w].copy_from_slice(src);
                        }
                    }
                }
            });
            Cow::Owned(out)
        };
        Self {
            data,
            layout,
            geometry: geom,
            batch: b,
            channels: c,
            wp,
            oh,
            ow,
        }
    }

    /// The haloed batch, as [`Self::layout`] says.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Where value `(n, c, pixel)` of the haloed `(h+2p) x (w+2p)` planes
    /// lies in [`Self::data`]: the layout of the lowered input, over the
    /// haloed extents.
    pub fn layout(&self) -> Layout {
        self.layout
    }
}

/// An NCHW `i8` batch lowered for the int8 product driver
/// ([`crate::quant::qconv`]) without a column matrix: one NHWC copy of the
/// input in which every byte is the value shifted by +128 into `u8`, with a
/// halo `padding` pixels wide around every image holding 128 (the shifted
/// zero) and the channel count rounded up to a multiple of 4. Four adjacent
/// channels are one `u8` quad — the unsigned operand `vpdpbusd` multiplies —
/// so the copy is about `(h+2p)(w+2p)/(h·w)` times the input bytes, where
/// the column matrix [`im2col_i8`] writes is `kernel²` times. The matching
/// weights, [`crate::quant::QPanels`], carry the correction that takes the
/// shift back out.
///
/// Output position `(n, oy, ox)` reads `kernel` contiguous runs of the copy,
/// one per `ky`, each `kernel` pixels of channels long: the column matrix's
/// row, reordered to `(ky, kx, c)`, read where it lies. The matching weights
/// are [`crate::quant::QPanels::conv`].
///
/// # Examples
///
/// ```
/// use ensembler_tensor::{im2col_i8, qconv, qgemm_nn, Conv2dGeometry, QHalo, QPanels};
///
/// // A "same" 3x3 convolution of one 3-channel 3x3 image into 4 channels:
/// // the column matrix's product, without the column matrix.
/// let geom = Conv2dGeometry::new(3, 1, 1);
/// let x: Vec<i8> = (0..27).map(|v| v - 13).collect();
/// let w: Vec<i8> = (0..27 * 4).map(|v| (v % 7) as i8 - 3).collect(); // [c·k², out]
/// let want = qgemm_nn(&im2col_i8(&x, 1, 3, 3, 3, geom), &w, 9, 27, 4);
/// let halo = QHalo::lower(&x, 1, 3, 3, 3, geom);
/// assert_eq!(qconv(&halo, &QPanels::conv(&w, 3, 3, 4)), want);
/// ```
#[derive(Debug, Clone)]
pub struct QHalo {
    /// `[b, hp, wp, 4·quads]` row-major, each byte a value + 128.
    bytes: Vec<u8>,
    geometry: Conv2dGeometry,
    batch: usize,
    /// Channel quads per pixel.
    quads: usize,
    /// Haloed extents.
    hp: usize,
    wp: usize,
    /// Output extents.
    oh: usize,
    ow: usize,
}

/// `v + 128` as a byte: the sign bit flipped.
#[inline(always)]
pub(crate) fn shift(v: i8) -> u8 {
    v as u8 ^ 0x80
}

/// `image`, `c` NCHW channel planes of `plane` pixels, in pixel-major order:
/// itself where a plane or a pixel holds one value, transposed otherwise.
fn pixel_major<T: Copy + Default>(image: &[T], c: usize, plane: usize) -> Cow<'_, [T]> {
    if c == 1 || plane == 1 {
        Cow::Borrowed(image)
    } else {
        Cow::Owned(transpose(image, c, plane))
    }
}

/// Writes `image`, a pixel-major image of `c` channels, `h x w`, into its
/// block of a halo of padding `p` with `write(values, bytes)`: an image row
/// at a time where a pixel fills its quads, a pixel at a time otherwise (a
/// last part-quad's missing channels keep the shifted zero).
fn pixels_into<T>(
    image: &[T],
    [c, h, w]: [usize; 3],
    p: usize,
    block: &mut [u8],
    write: impl Fn(&[T], &mut [u8]),
) {
    let (wp, lanes) = (w + 2 * p, 4 * c.div_ceil(4));
    if c == lanes {
        for y in 0..h {
            let dst = &mut block[((y + p) * wp + p) * lanes..][..w * c];
            write(&image[y * w * c..][..w * c], dst);
        }
    } else {
        for (i, pixel) in image.chunks_exact(c).enumerate() {
            let (y, x) = (i / w, i % w);
            write(pixel, &mut block[((y + p) * wp + p + x) * lanes..][..c]);
        }
    }
}

impl QHalo {
    /// Lowers the NCHW `i8` batch `data` (`[b, c, h, w]`) for a convolution
    /// of geometry `geom`. An `[m, k]` matrix is the `[m, k, 1, 1]` batch
    /// under a 1×1 geometry.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != b*c*h*w` or the padded input is smaller than
    /// the kernel.
    pub fn lower(
        data: &[i8],
        b: usize,
        c: usize,
        h: usize,
        w: usize,
        geom: Conv2dGeometry,
    ) -> Self {
        assert_eq!(data.len(), b * c * h * w, "QHalo buffer/shape mismatch");
        Self::build(b, c, h, w, geom, |n, block| {
            let image = pixel_major(&data[n * c * h * w..(n + 1) * c * h * w], c, h * w);
            pixels_into(&image, [c, h, w], geom.padding, block, |values, bytes| {
                for (byte, &v) in bytes.iter_mut().zip(values) {
                    *byte = shift(v);
                }
            });
        })
    }

    /// Quantizes the `f32` batch `data`, of logical shape `[b, c, h, w]` and
    /// lying as `layout` says, with one scale per sample and lowers it for a
    /// convolution of geometry `geom`: the bytes and scales of
    /// [`QTensorBatch::quantize_batch`](crate::QTensorBatch::quantize_batch)
    /// on the batch in NCHW followed by [`QHalo::lower`], with no `i8` batch
    /// between them. A sample's scale is its absolute maximum's
    /// ([`crate::quant::quantization_scale`]), which no order of its values
    /// changes. Each image is quantized straight into the copy, an NCHW one
    /// after a [`transpose`] to pixel-major, as [`QHalo::lower`] does.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != b*c*h*w`, if `layout` is neither
    /// [`Layout::nchw`] nor [`Layout::pixel_major`] of `c` channels of `h·w`
    /// pixels, or if the padded input is smaller than the kernel.
    pub fn quantize(
        data: &[f32],
        layout: Layout,
        [b, c, h, w]: [usize; 4],
        geom: Conv2dGeometry,
    ) -> (Self, Vec<f32>) {
        let (plane, sample) = (h * w, c * h * w);
        assert_eq!(data.len(), b * sample, "QHalo buffer/shape mismatch");
        let is_pixel_major = layout == Layout::pixel_major(c, plane);
        assert!(
            is_pixel_major || layout == Layout::nchw(c, plane),
            "QHalo::quantize reads a dense NCHW or pixel-major batch"
        );
        let image = |n: usize| &data[n * sample..(n + 1) * sample];
        let scales: Vec<f32> = (0..b)
            .map(|n| quantization_scale(absmax(image(n))))
            .collect();
        let halo = Self::build(b, c, h, w, geom, |n, block| {
            let image = if is_pixel_major {
                Cow::Borrowed(image(n))
            } else {
                pixel_major(image(n), c, plane)
            };
            pixels_into(&image, [c, h, w], geom.padding, block, |values, bytes| {
                quantize_into(values, scales[n], bytes);
            });
        });
        (halo, scales)
    }

    /// A haloed copy of `b` images of `c` channels, `h x w`, for `geom`:
    /// every byte the shifted zero, then `lower_item(n, block)` fills image
    /// `n`'s block — the halo and the channels past `c` keep the shifted
    /// zero — on the pool for a large batch.
    fn build(
        b: usize,
        c: usize,
        h: usize,
        w: usize,
        geom: Conv2dGeometry,
        lower_item: impl Fn(usize, &mut [u8]) + Sync,
    ) -> Self {
        let (oh, ow) = (geom.output_extent(h), geom.output_extent(w));
        let p = geom.padding;
        let (hp, wp, quads) = (h + 2 * p, w + 2 * p, c.div_ceil(4));
        let lanes = 4 * quads;
        let item = (hp * wp * lanes).max(1);
        let mut out = vec![shift(0); b * hp * wp * lanes];
        let parallel = b > 1 && out.len() >= PAR_ELEMENT_THRESHOLD;
        // The pool takes images a few thousand bytes at a time: a hand-off
        // per one-pixel image (a matrix row) costs more than its copy.
        let group = (PAR_ELEMENT_THRESHOLD / 8).div_ceil(item);
        chunks_mut(&mut out, group * item, parallel, |g, images| {
            for (i, block) in images.chunks_mut(item).enumerate() {
                lower_item(g * group + i, block);
            }
        });
        Self {
            bytes: out,
            geometry: geom,
            batch: b,
            quads,
            hp,
            wp,
            oh,
            ow,
        }
    }

    /// Rows of the product: one per output position, `b · oh · ow`.
    pub(crate) fn rows(&self) -> usize {
        self.batch * self.oh * self.ow
    }

    /// The padded shared dimension, `kernel² · 4 · quads`.
    pub(crate) fn depth(&self) -> usize {
        self.geometry.kernel * self.geometry.kernel * 4 * self.quads
    }

    /// The shifted bytes, `[b, hp, wp, 4·quads]` row-major.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Fills `out[r]` with the first quad of product row `row0 + r`, in
    /// quads from the start of [`Self::bytes`]. Rows walk `(n, oy, ox)` like
    /// the column matrix's, so only the first is divided out.
    pub(crate) fn row_offsets(&self, row0: usize, out: &mut [usize]) {
        let (s, plane) = (self.geometry.stride, self.oh * self.ow);
        let (mut n, rest) = (row0 / plane, row0 % plane);
        let (mut oy, mut ox) = (rest / self.ow, rest % self.ow);
        for slot in out {
            *slot = ((n * self.hp + oy * s) * self.wp + ox * s) * self.quads;
            ox += 1;
            if ox == self.ow {
                (ox, oy) = (0, oy + 1);
                if oy == self.oh {
                    (oy, n) = (0, n + 1);
                }
            }
        }
    }

    /// The runs each row reads, in quads: `kernel · quads` long, one haloed
    /// image row (`wp · quads`) apart.
    pub(crate) fn run_shape(&self) -> (usize, usize) {
        (self.geometry.kernel * self.quads, self.wp * self.quads)
    }
}

/// The lowering behind [`im2col`] and [`im2col_i8`]: NCHW `data` to the
/// `[b * out_h * out_w, c * kernel * kernel]` column matrix, padding with
/// `T::default()` (zero), in `out`'s allocation if it is large enough.
fn lower<T: Copy + Default + Send + Sync>(
    data: &[T],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
    mut out: Vec<T>,
) -> Vec<T> {
    let out_h = geom.output_extent(h);
    let out_w = geom.output_extent(w);
    let k = geom.kernel;
    let cols = c * k * k;
    let rows = b * out_h * out_w;
    let item_rows = out_h * out_w;
    let plane = h * w;

    // One batch item -> its `item_rows x cols` block of the column matrix.
    // The inner loop copies whole in-bounds `kx` runs as slices instead of
    // testing every kernel tap: the valid `kx` window depends only on `ox`,
    // and within it the source pixels are contiguous. Taps outside the image
    // keep the zero a fresh block was allocated with; a reused block's rows
    // are cleared first, while they are in cache.
    let reused = out.capacity() >= rows * cols;
    let lower_item = |n: usize, block: &mut [T]| {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_idx = oy * out_w + ox;
                let row = &mut block[row_idx * cols..(row_idx + 1) * cols];
                if reused {
                    row.fill(T::default());
                }
                // kx is valid iff 0 <= ox*stride + kx - padding < w.
                let x0 = ox * geom.stride;
                let kx_lo = geom.padding.saturating_sub(x0).min(k);
                let kx_hi = (w + geom.padding - x0.min(w + geom.padding)).min(k);
                if kx_lo >= kx_hi {
                    continue;
                }
                let ix0 = x0 + kx_lo - geom.padding;
                let run = kx_hi - kx_lo;
                for ky in 0..k {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let src_base = n * c * plane + iy as usize * w + ix0;
                    for ch in 0..c {
                        let col_idx = (ch * k + ky) * k + kx_lo;
                        let src = &data[src_base + ch * plane..src_base + ch * plane + run];
                        row[col_idx..col_idx + run].copy_from_slice(src);
                    }
                }
            }
        }
    };

    if reused {
        // Only a longer matrix than the last one writes its new tail here.
        out.resize(rows * cols, T::default());
    } else {
        out = vec![T::default(); rows * cols];
    }
    let parallel = b > 1 && rows * cols >= PAR_ELEMENT_THRESHOLD;
    chunks_mut(&mut out, item_rows * cols, parallel, lower_item);
    out
}

/// Folds a column matrix back into an NCHW tensor, accumulating overlapping
/// contributions. This is the adjoint of [`im2col`] and is used for the
/// backward pass of convolution and the forward pass of transposed
/// convolution.
///
/// # Panics
///
/// Panics if `cols` does not have shape
/// `[batch * out_h * out_w, channels * kernel * kernel]` for the given
/// geometry and output shape.
pub fn col2im(
    cols: &Tensor,
    batch: usize,
    channels: usize,
    height: usize,
    width: usize,
    geom: Conv2dGeometry,
) -> Tensor {
    let out_h = geom.output_extent(height);
    let out_w = geom.output_extent(width);
    let k = geom.kernel;
    let expected_rows = batch * out_h * out_w;
    let expected_cols = channels * k * k;
    assert_eq!(
        cols.shape(),
        &[expected_rows, expected_cols],
        "col2im input shape mismatch"
    );

    let plane = height * width;
    let item_elems = channels * plane;

    // One batch item -> its accumulated `[C, H, W]` image plane.
    let fold_item = |n: usize, image: &mut [f32]| {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_idx = (n * out_h + oy) * out_w + ox;
                let row = &cols.data()[row_idx * expected_cols..(row_idx + 1) * expected_cols];
                for ch in 0..channels {
                    for ky in 0..k {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        for kx in 0..k {
                            let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                            if iy >= 0 && (iy as usize) < height && ix >= 0 && (ix as usize) < width
                            {
                                let col_idx = (ch * k + ky) * k + kx;
                                image[ch * plane + iy as usize * width + ix as usize] +=
                                    row[col_idx];
                            }
                        }
                    }
                }
            }
        }
    };

    let mut data = vec![0.0f32; batch * item_elems];
    let parallel = batch > 1 && batch * item_elems >= PAR_ELEMENT_THRESHOLD;
    chunks_mut(&mut data, item_elems, parallel, fold_item);
    Tensor::from_vec(data, &[batch, channels, height, width])
        .expect("col2im buffer sized to batch*C*H*W")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_extents() {
        let same = Conv2dGeometry::new(3, 1, 1);
        assert_eq!(same.output_extent(8), 8);
        assert_eq!(same.transposed_output_extent(8), 8);
        let down = Conv2dGeometry::new(2, 2, 0);
        assert_eq!(down.output_extent(8), 4);
        assert_eq!(down.transposed_output_extent(4), 8);
        let valid = Conv2dGeometry::new(3, 1, 0);
        assert_eq!(valid.output_extent(8), 6);
        assert_eq!(valid.transposed_output_extent(6), 8);
    }

    #[test]
    #[should_panic(expected = "kernel size must be positive")]
    fn zero_kernel_rejected() {
        let _ = Conv2dGeometry::new(0, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 and no padding is a pure reshape.
        let input = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let cols = im2col(&input, Conv2dGeometry::new(1, 1, 0));
        assert_eq!(cols.shape(), &[4, 2]);
        // Row layout is (pixel, channel).
        assert_eq!(cols.at2(0, 0), input.at4(0, 0, 0, 0));
        assert_eq!(cols.at2(0, 1), input.at4(0, 1, 0, 0));
        assert_eq!(cols.at2(3, 0), input.at4(0, 0, 1, 1));
    }

    #[test]
    fn im2col_extracts_padded_receptive_fields() {
        let input = Tensor::from_fn(&[1, 1, 3, 3], |i| (i + 1) as f32);
        let cols = im2col(&input, Conv2dGeometry::new(3, 1, 1));
        assert_eq!(cols.shape(), &[9, 9]);
        // Top-left output position: the padded corner, so only the lower-right
        // 2x2 block of the kernel window overlaps the image.
        let first_row = &cols.data()[0..9];
        assert_eq!(first_row, &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 5.0]);
        // Centre output position sees the whole image.
        let centre = &cols.data()[4 * 9..5 * 9];
        assert_eq!(centre, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn a_reused_buffer_lowers_exactly_like_a_fresh_one() {
        // A dirty buffer, larger or smaller than the matrix: the padded taps
        // still read zero, and a large enough allocation is kept.
        let input = Tensor::from_fn(&[2, 3, 5, 4], |i| (i as f32 * 0.3).sin());
        for geom in [Conv2dGeometry::new(3, 1, 1), Conv2dGeometry::new(3, 2, 1)] {
            let fresh = im2col(&input, geom);
            for len in [0, 7, fresh.len(), 2 * fresh.len()] {
                let buffer = vec![f32::NAN; len];
                let ptr = buffer.as_ptr();
                let reused = im2col_reusing(&input, geom, buffer);
                assert_eq!(reused, fresh);
                assert_eq!(ptr == reused.data().as_ptr(), len >= fresh.len());
            }
        }
    }

    #[test]
    fn a_halo_without_padding_borrows_its_input() {
        // The 1x1 shortcut's geometry: the input already is its halo, in
        // either layout. With padding, every image is copied into the middle
        // of a zero frame, in its own layout.
        let input: Vec<f32> = (0..2 * 3 * 4 * 5).map(|v| v as f32).collect();
        let dims = [2, 3, 4, 5];
        for layout in [Layout::nchw(3, 20), Layout::pixel_major(3, 20)] {
            let halo = Halo::lower(&input, layout, dims, Conv2dGeometry::new(1, 2, 0));
            assert!(std::ptr::eq(halo.data(), input.as_slice()));
            assert_eq!(halo.layout(), layout);
            let halo = Halo::lower(&input, layout, dims, Conv2dGeometry::new(3, 1, 1));
            assert_eq!(halo.data().len(), 2 * 3 * 6 * 7);
            let haloed = halo.layout();
            assert_eq!(haloed.pixel == 1, layout.pixel == 1, "{layout:?}");
            for (n, ch) in (0..2).flat_map(|n| (0..3).map(move |ch| (n, ch))) {
                for (y, x) in (0..6).flat_map(|y| (0..7).map(move |x| (y, x))) {
                    let inside = (1..5).contains(&y) && (1..6).contains(&x);
                    let want = if inside {
                        input[layout.at(n, ch, (y - 1) * 5 + x - 1)]
                    } else {
                        0.0
                    };
                    let got = halo.data()[haloed.at(n, ch, y * 7 + x)];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{layout:?} {n} {ch} ({y}, {x})"
                    );
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for any x, y: the defining property
        // of an adjoint pair, and exactly what the conv backward pass relies on.
        let geom = Conv2dGeometry::new(3, 2, 1);
        let x = Tensor::from_fn(&[2, 3, 5, 5], |i| ((i * 37 % 17) as f32) - 8.0);
        let cols_shape_rows = 2 * geom.output_extent(5) * geom.output_extent(5);
        let cols_shape_cols = 3 * 3 * 3;
        let y = Tensor::from_fn(&[cols_shape_rows, cols_shape_cols], |i| {
            ((i * 13 % 29) as f32) * 0.25 - 3.0
        });
        let lhs = im2col(&x, geom).dot(&y);
        let rhs = x.dot(&col2im(&y, 2, 3, 5, 5, geom));
        assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // With a 2x2 kernel, stride 1, no padding on a 3x3 image, the centre
        // pixel is covered by all four receptive fields.
        let geom = Conv2dGeometry::new(2, 1, 0);
        let ones = Tensor::ones(&[4, 4]); // 4 output positions x (1*2*2) cols
        let img = col2im(&ones, 1, 1, 3, 3, geom);
        assert_eq!(img.at4(0, 0, 1, 1), 4.0);
        assert_eq!(img.at4(0, 0, 0, 0), 1.0);
        assert_eq!(img.at4(0, 0, 0, 1), 2.0);
    }
}
