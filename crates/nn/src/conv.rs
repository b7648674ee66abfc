//! 2-D convolution and transposed convolution layers, and the channel-major
//! output pass that writes every NCHW product.

use crate::activation::ReluForm;
use crate::{BatchNorm2d, Layer, Mode, Param};
use ensembler_tensor::gemm::{conv_fused, GemmEpilogue, Parallelism};
use ensembler_tensor::{
    col2im, im2col, im2col_reusing, Conv2dGeometry, Halo, Init, Rng, ShapeError, Tensor,
};

/// Converts a `[B, C, H, W]` tensor into the `[B*H*W, C]` matrix whose rows
/// follow the same `(n, y, x)` ordering as `im2col` output rows.
fn nchw_to_rows(t: &Tensor) -> Tensor {
    let [b, c, h, w] = [t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]];
    let plane = h * w;
    let mut out = vec![0.0f32; b * plane * c];
    for n in 0..b {
        for ch in 0..c {
            for p in 0..plane {
                out[(n * plane + p) * c + ch] = t.data()[n * c * plane + ch * plane + p];
            }
        }
    }
    Tensor::from_vec(out, &[b * plane, c]).expect("row matrix length matches")
}

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
/// over the product rows ([`nchw_pass`]): an eval-mode batch norm
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
    // up to even for the int8 copy; one of the output `oh·ow` product rows
    // of `out_channels`. Each, times the batch, must fit.
    let lanes = c + c % 2;
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

/// Inverse of [`nchw_to_rows`]: one channel-major [`nchw_pass`].
pub(crate) fn rows_to_nchw(rows: &Tensor, b: usize, c: usize, h: usize, w: usize) -> Tensor {
    assert_eq!(rows.shape(), &[b * h * w, c], "row matrix shape mismatch");
    let layout = Layout::rows(c, h * w);
    nchw_pass(rows.data(), layout, [b, c, h, w], None, |_, _| |v| v)
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
        let grad_rows = nchw_to_rows(grad_output);
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

    fn quantize_layer(&self) -> crate::quant::QLayer {
        crate::quant::QLayer::Conv(crate::quant::QConv2d::from_conv(self))
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
        let input_rows = nchw_to_rows(input); // [B*h*w, Cin]
                                              // cols = X_rows * W : [B*h*w, Cout*K*K]
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
        rows_to_nchw(
            &grad_rows,
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        )
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

    #[test]
    fn row_conversion_round_trips() {
        let t = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        let rows = nchw_to_rows(&t);
        assert_eq!(rows.shape(), &[2 * 4 * 5, 3]);
        assert_eq!(rows_to_nchw(&rows, 2, 3, 4, 5), t);
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
