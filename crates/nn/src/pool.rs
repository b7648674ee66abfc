//! Spatial pooling layers.

use crate::{Layer, Mode};
use ensembler_tensor::{Layout, Tensor};

/// Max pooling with a square window and matching stride (no padding).
///
/// # Examples
///
/// ```
/// use ensembler_nn::{Layer, MaxPool2d, Mode};
/// use ensembler_tensor::Tensor;
///
/// let pool = MaxPool2d::new(2);
/// let y = pool.forward(&Tensor::ones(&[1, 3, 8, 8]), Mode::Eval);
/// assert_eq!(y.shape(), &[1, 3, 4, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    cached_argmax: Option<Vec<usize>>,
    cached_input_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window size (stride = window).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pooling window must be positive");
        Self {
            window,
            cached_argmax: None,
            cached_input_shape: None,
        }
    }

    /// Returns the pooling window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Shared forward computation: returns the output and the argmax map
    /// (which the cached path stores for backward).
    fn run(&self, input: &Tensor) -> (Tensor, Vec<usize>) {
        assert_eq!(input.rank(), 4, "MaxPool2d expects NCHW input");
        let [b, c, h, w] = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        let k = self.window;
        assert!(
            h % k == 0 && w % k == 0,
            "MaxPool2d window {k} must divide spatial dims ({h}x{w})"
        );
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[b, c, oh, ow]);
        let mut argmax = vec![0usize; b * c * oh * ow];
        let plane = h * w;
        for n in 0..b {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        // A window with no value above -inf (all -inf or
                        // NaN) routes its gradient to its own first tap.
                        let mut best_idx = n * c * plane + ch * plane + oy * k * w + ox * k;
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy * k + ky;
                                let ix = ox * k + kx;
                                let idx = n * c * plane + ch * plane + iy * w + ix;
                                let v = input.data()[idx];
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = ((n * c + ch) * oh + oy) * ow + ox;
                        out.data_mut()[out_idx] = best;
                        argmax[out_idx] = best_idx;
                    }
                }
            }
        }
        (out, argmax)
    }
}

impl Layer for MaxPool2d {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        self.run(input).0
    }

    fn forward_cached(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let (out, argmax) = self.run(input);
        self.cached_argmax = Some(argmax);
        self.cached_input_shape = Some(input.shape().to_vec());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let argmax = self
            .cached_argmax
            .as_ref()
            .expect("backward called before forward on MaxPool2d");
        let shape = self
            .cached_input_shape
            .as_ref()
            .expect("input shape cached by forward");
        assert_eq!(grad_output.len(), argmax.len(), "grad_output size mismatch");
        let mut grad_input = Tensor::zeros(shape);
        for (out_idx, &src_idx) in argmax.iter().enumerate() {
            grad_input.data_mut()[src_idx] += grad_output.data()[out_idx];
        }
        grad_input
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "max_pool2d"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::MaxPool(self.window)
    }
}

/// Global average pooling: collapses each feature map to its mean, producing
/// `[B, C]` features for the classifier tail.
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool {
    cached_input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self {
            cached_input_shape: None,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        let &[b, c, h, w] = input.shape() else {
            panic!("GlobalAvgPool expects NCHW input")
        };
        global_avg_pool(input.data(), Layout::nchw(c, h * w), [b, c, h, w])
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.cached_input_shape = Some(input.shape().to_vec());
        self.forward(input, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .cached_input_shape
            .as_ref()
            .expect("backward called before forward on GlobalAvgPool");
        let [b, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
        assert_eq!(grad_output.shape(), &[b, c], "grad_output must be [B, C]");
        let plane = h * w;
        let scale = 1.0 / plane as f32;
        let mut grad_input = Tensor::zeros(shape);
        for n in 0..b {
            for ch in 0..c {
                let g = grad_output.data()[n * c + ch] * scale;
                let base = n * c * plane + ch * plane;
                for v in &mut grad_input.data_mut()[base..base + plane] {
                    *v = g;
                }
            }
        }
        grad_input
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::GlobalAvgPool
    }
}

/// [`GlobalAvgPool`]'s forward over `values`, a map of logical shape
/// `[b, c, h, w]` lying as `layout` says, NCHW or pixel-major: each channel
/// of each image summed pixel by pixel, in pixel order, from the start value
/// of an `f32` iterator sum, then divided by the pixel count — so every mean
/// is that of the channel's NCHW plane summed with `.iter().sum()`, bit for
/// bit, whichever the layout. An NCHW image is read a plane at a time, a
/// pixel-major one a pixel at a time with one running sum per channel.
pub(crate) fn global_avg_pool(values: &[f32], layout: Layout, [b, c, h, w]: [usize; 4]) -> Tensor {
    let plane = h * w;
    let start: f32 = std::iter::empty::<f32>().sum();
    let mut out = vec![start; b * c];
    if plane * c > 0 {
        for (n, sums) in out.chunks_exact_mut(c).enumerate() {
            let image = &values[layout.at(n, 0, 0)..][..c * plane];
            if layout.channel == 1 {
                for pixel in image.chunks_exact(c) {
                    for (sum, &v) in sums.iter_mut().zip(pixel) {
                        *sum += v;
                    }
                }
            } else {
                for (sum, values) in sums.iter_mut().zip(image.chunks_exact(plane)) {
                    *sum = values.iter().fold(*sum, |sum, &v| sum + v);
                }
            }
        }
    }
    let plane = plane as f32;
    for sum in &mut out {
        *sum /= plane;
    }
    Tensor::from_vec(out, &[b, c]).expect("pooled output has B*C elements")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_input_grad;

    #[test]
    fn pixel_major_global_avg_pool_sums_each_channel_in_the_nchw_order() {
        // The one strided pool over the same values in NCHW and pixel-major
        // order, against each plane's `.iter().sum()`. Every channel of image
        // 1 is a plane of -0.0 (whose sum keeps the sign of the start
        // value); the rest mixes magnitudes so that the summation order
        // shows in the last bits, with NaN and ±inf in a few planes.
        // One-pixel planes, a part vector of channels and an empty batch too.
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40];
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for [b, c, h, w] in [[3, 5, 4, 6], [2, 16, 1, 1], [3, 33, 3, 2], [0, 4, 2, 2]] {
            let x = Tensor::from_fn(&[b, c, h, w], |i| match (i / (c * h * w), i % 29) {
                (1, _) => -0.0,
                (_, 7) => special[i / 29 % special.len()],
                _ => (i as f32 * 0.37).sin() * 10f32.powi((i % 7) as i32 - 3),
            });
            let plane = h * w;
            let want: Vec<f32> = x
                .data()
                .chunks_exact(plane)
                .map(|values| values.iter().sum::<f32>() / plane as f32)
                .collect();
            let pixels = crate::conv::pixel_rows(&x);
            for (values, layout) in [
                (x.data(), Layout::nchw(c, plane)),
                (pixels.data(), Layout::pixel_major(c, plane)),
            ] {
                let got = global_avg_pool(values, layout, [b, c, h, w]);
                assert_eq!(got.shape(), &[b, c]);
                assert_eq!(bits(got.data()), bits(&want), "{b}x{c}x{h}x{w} {layout:?}");
            }
            let eager = GlobalAvgPool::new().forward(&x, Mode::Eval);
            assert_eq!(bits(eager.data()), bits(&want), "{b}x{c}x{h}x{w} eager");
        }
    }

    #[test]
    fn max_pool_selects_maxima() {
        let pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 0.75]);
        assert_eq!(pool.window(), 2);
    }

    #[test]
    fn max_pool_backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let _ = pool.forward_cached(&x, Mode::Eval);
        let g = pool.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap());
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn max_pool_backward_keeps_a_window_without_a_maximum_in_its_own_channel() {
        // Channel 1 holds no value above -inf: its gradient stays in
        // channel 1, at the window's first tap, and never lands on index 0
        // of the tensor. Forward values are unchanged: -inf and -inf.
        let g = Tensor::from_vec(vec![1.0, 1.0], &[1, 2, 1, 1]).unwrap();
        for (fill, want) in [
            (f32::NEG_INFINITY, [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
            (f32::NAN, [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        ] {
            let mut pool = MaxPool2d::new(2);
            let first = if fill.is_nan() {
                [fill; 4]
            } else {
                [1.0, 2.0, 3.0, 4.0]
            };
            let mut x = first.to_vec();
            x.extend([fill; 4]);
            let x = Tensor::from_vec(x, &[1, 2, 2, 2]).unwrap();
            let y = pool.forward_cached(&x, Mode::Train);
            assert_eq!(y.data()[1], f32::NEG_INFINITY);
            assert_eq!(pool.backward(&g).data(), &want, "fill {fill}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide spatial dims")]
    fn max_pool_requires_divisible_extent() {
        let pool = MaxPool2d::new(2);
        let _ = pool.forward(&Tensor::ones(&[1, 1, 3, 3]), Mode::Eval);
    }

    #[test]
    fn global_avg_pool_means_and_shape() {
        let pool = GlobalAvgPool::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.at2(0, 0), 1.5); // mean of 0,1,2,3
        assert_eq!(y.at2(1, 2), 21.5); // mean of 20..=23
    }

    #[test]
    fn global_avg_pool_gradient_matches_finite_differences() {
        check_layer_input_grad(&mut GlobalAvgPool::new(), &[2, 3, 3, 3], 0.0, 1e-2);
    }

    #[test]
    fn max_pool_gradient_matches_finite_differences_away_from_ties() {
        // Build an input whose window maxima are separated by much more than
        // the finite-difference step, so perturbations never flip the argmax.
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| i as f32 * 0.5);
        let w = Tensor::from_fn(&[1, 2, 2, 2], |i| 0.3 + 0.1 * i as f32);
        let _ = pool.forward_cached(&x, Mode::Eval);
        let analytic = pool.backward(&w);
        let eps = 1e-2f32;
        for idx in 0..x.len() {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let f_plus = pool.forward(&plus, Mode::Eval).dot(&w);
            let f_minus = pool.forward(&minus, Mode::Eval).dot(&w);
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 1e-3,
                "index {idx}: numeric {numeric} vs analytic {}",
                analytic.data()[idx]
            );
        }
    }
}
