//! `im2col`/`col2im` lowering used to express 2-D (de)convolutions as GEMMs.
//!
//! Both transforms touch every batch item independently — item `n` only
//! reads/writes rows `n*out_h*out_w..` of the column matrix and plane
//! `n*C*H*W..` of the image — so each item's block is a disjoint chunk of
//! the output. Large lowerings hand those chunks to the persistent pool with
//! [`crate::parallel::par_chunks_mut`] and every item is written in place,
//! in a single pass: there is no per-item buffer and no stitch afterwards.
//! Inside a parallel region (one ensemble body per core) the same loop runs
//! serially on the calling thread.

use crate::parallel::chunks_mut;
use crate::Tensor;

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
    assert_eq!(input.rank(), 4, "im2col requires an NCHW tensor");
    let [b, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let out = lower(input.data(), b, c, h, w, geom);
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
    lower(data, b, c, h, w, geom)
}

/// The lowering behind [`im2col`] and [`im2col_i8`]: NCHW `data` to the
/// `[b * out_h * out_w, c * kernel * kernel]` column matrix, padding with
/// `T::default()` (zero).
fn lower<T: Copy + Default + Send + Sync>(
    data: &[T],
    b: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
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
    // keep the zero the block was allocated with.
    let lower_item = |n: usize, block: &mut [T]| {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_idx = oy * out_w + ox;
                let row = &mut block[row_idx * cols..(row_idx + 1) * cols];
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

    let mut out = vec![T::default(); rows * cols];
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
