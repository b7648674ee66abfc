//! Batch normalization over NCHW feature maps.

use crate::{Layer, Mode, Param};
use ensembler_tensor::Tensor;

/// Batch normalization for convolutional feature maps (`[B, C, H, W]`).
///
/// In [`Mode::Train`] the layer normalizes with the statistics of the current
/// batch; in [`Mode::Eval`] the running statistics are used. The learnable
/// per-channel scale (`gamma`) and shift (`beta`) follow the usual
/// convention.
///
/// Only [`Layer::forward_cached`] (the training path) updates the exponential
/// running statistics — the pure [`Layer::forward`] never mutates the layer,
/// which is what makes shared-pipeline inference thread-safe.
///
/// # Examples
///
/// ```
/// use ensembler_nn::{BatchNorm2d, Layer, Mode};
/// use ensembler_tensor::Tensor;
///
/// let mut bn = BatchNorm2d::new(4);
/// let x = Tensor::ones(&[2, 4, 3, 3]);
/// let y = bn.forward_cached(&x, Mode::Train);
/// assert_eq!(y.shape(), &[2, 4, 3, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    cache: Option<BnCache>,
}

/// A channel's normalization with constants `mean`, `inv_std`, `gamma` and
/// `beta`: maps `v` to `(x_hat, gamma * x_hat + beta)` with
/// `x_hat = (v - mean) * inv_std`. This is the only place the normalization
/// is written; every forward, eager or fused into a conv's output pass,
/// applies it.
#[inline(always)]
fn normalizer(mean: f32, inv_std: f32, gamma: f32, beta: f32) -> impl Fn(f32) -> (f32, f32) {
    move |v| {
        let x_hat = (v - mean) * inv_std;
        (x_hat, gamma * x_hat + beta)
    }
}

/// A [`BatchNorm2d`]'s eval-mode normalization of every channel, for a
/// run of whole pixels of a pixel-major map ([`BatchNorm2d::eval_norm`]):
/// [`BatchNorm2d::eval_channel`]'s constants, repeated pixel after pixel so
/// that the run normalizes in one loop that vectorises across it.
#[derive(Debug, Clone)]
pub(crate) struct EvalNorm {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

impl EvalNorm {
    /// Normalizes `pixels`, a run of whole pixels (no longer than the
    /// constants were repeated for), in place: each channel's values get
    /// `eval_channel` of that channel, bit for bit.
    #[inline(always)]
    pub(crate) fn apply(&self, pixels: &mut [f32]) {
        let constants = self.mean.iter().zip(&self.inv_std).zip(&self.gamma);
        for ((v, ((&mean, &inv_std), &gamma)), &beta) in
            pixels.iter_mut().zip(constants).zip(&self.beta)
        {
            *v = normalizer(mean, inv_std, gamma, beta)(*v).1;
        }
    }
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    input_shape: Vec<usize>,
    /// Whether the forward pass used batch statistics (training) or the
    /// frozen running statistics (evaluation). The backward formula differs:
    /// in evaluation mode the normalization statistics are constants.
    used_batch_stats: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channel count must be positive");
        Self {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    /// An inference-only copy for a compiled plan: γ, β and the running
    /// statistics, no gradient buffers, no training cache (see
    /// [`Param::frozen`]).
    pub(crate) fn frozen(&self) -> Self {
        Self {
            gamma: self.gamma.frozen(),
            beta: self.beta.frozen(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            momentum: self.momentum,
            eps: self.eps,
            channels: self.channels,
            cache: None,
        }
    }

    /// Whether the layer holds anything only training reads: the last
    /// batch's cache or a γ/β gradient buffer.
    #[cfg(test)]
    pub(crate) fn holds_training_state(&self) -> bool {
        self.cache.is_some() || !self.gamma.grad.is_empty() || !self.beta.grad.is_empty()
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Returns the running mean tracked across training batches.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Returns the running variance tracked across training batches.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// The normalization constant `1 / sqrt(var + eps)` of a channel of
    /// variance `var`.
    fn inv_std(&self, var: f32) -> f32 {
        1.0 / (var + self.eps).sqrt()
    }

    /// Channel `ch`'s normalization ([`normalizer`]) with statistics `mean`
    /// and `var`.
    fn channel(&self, ch: usize, mean: f32, var: f32) -> impl Fn(f32) -> (f32, f32) {
        let inv_std = self.inv_std(var);
        let gamma = self.gamma.value.data()[ch];
        let beta = self.beta.value.data()[ch];
        normalizer(mean, inv_std, gamma, beta)
    }

    /// Channel `ch`'s eval-mode normalization over the running statistics,
    /// as a conv's fused output pass applies it.
    pub(crate) fn eval_channel(&self, ch: usize) -> impl Fn(f32) -> f32 {
        let f = self.channel(
            ch,
            self.running_mean.data()[ch],
            self.running_var.data()[ch],
        );
        move |v| f(v).1
    }

    /// Every channel's eval-mode normalization, for a pass over pixel-major
    /// maps: four slices of per-channel constants, each repeated for
    /// `pixels` consecutive pixels.
    pub(crate) fn eval_norm(&self, pixels: usize) -> EvalNorm {
        let tiled = |v: &[f32]| v.repeat(pixels);
        let var = self.running_var.data();
        let inv_std: Vec<f32> = var.iter().map(|&var| self.inv_std(var)).collect();
        EvalNorm {
            mean: tiled(self.running_mean.data()),
            inv_std: tiled(&inv_std),
            gamma: tiled(self.gamma.value.data()),
            beta: tiled(self.beta.value.data()),
        }
    }

    /// The `[b, c, h, w]` extents of `input`.
    ///
    /// # Panics
    ///
    /// Panics unless `input` is an NCHW batch of this layer's channel count.
    fn check_input(&self, input: &Tensor) -> [usize; 4] {
        let &[b, c, h, w] = input.shape() else {
            panic!("BatchNorm2d expects NCHW input")
        };
        let channels = self.channels;
        assert_eq!(
            c, channels,
            "BatchNorm2d expected {channels} channels, got {c}"
        );
        [b, c, h, w]
    }

    /// Immutable view of the per-channel scale (`gamma`) parameter.
    pub fn gamma(&self) -> &Param {
        &self.gamma
    }

    /// Immutable view of the per-channel shift (`beta`) parameter.
    pub fn beta(&self) -> &Param {
        &self.beta
    }

    fn per_channel_stats(&self, input: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let [b, c, h, w] = self.check_input(input);
        let plane = h * w;
        let count = (b * plane) as f32;
        let mut means = vec![0.0f32; c];
        let mut vars = vec![0.0f32; c];
        for (ch, mean) in means.iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for n in 0..b {
                let base = n * c * plane + ch * plane;
                sum += input.data()[base..base + plane].iter().sum::<f32>();
            }
            *mean = sum / count;
        }
        for ch in 0..c {
            let mut sq = 0.0f32;
            for n in 0..b {
                let base = n * c * plane + ch * plane;
                for &v in &input.data()[base..base + plane] {
                    let d = v - means[ch];
                    sq += d * d;
                }
            }
            vars[ch] = sq / count;
        }
        (means, vars)
    }

    /// Per-channel statistics to normalize with under `mode`.
    fn stats_for(&self, input: &Tensor, mode: Mode) -> (Vec<f32>, Vec<f32>) {
        if mode.is_train() {
            self.per_channel_stats(input)
        } else {
            (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            )
        }
    }

    /// Shared normalization with the given statistics: returns the output
    /// together with the cache a backward pass would need.
    fn normalize(
        &self,
        input: &Tensor,
        means: &[f32],
        vars: &[f32],
        used_batch_stats: bool,
    ) -> (Tensor, BnCache) {
        let [b, c, h, w] = self.check_input(input);
        let plane = h * w;

        let inv_std: Vec<f32> = vars.iter().map(|&v| self.inv_std(v)).collect();
        let mut x_hat = Tensor::zeros(input.shape());
        let mut out = Tensor::zeros(input.shape());
        for n in 0..b {
            for ch in 0..c {
                let base = n * c * plane + ch * plane;
                let f = self.channel(ch, means[ch], vars[ch]);
                for p in base..base + plane {
                    (x_hat.data_mut()[p], out.data_mut()[p]) = f(input.data()[p]);
                }
            }
        }
        let cache = BnCache {
            x_hat,
            inv_std,
            input_shape: input.shape().to_vec(),
            used_batch_stats,
        };
        (out, cache)
    }
}

impl Layer for BatchNorm2d {
    fn forward(&self, input: &Tensor, mode: Mode) -> Tensor {
        let (means, vars) = self.stats_for(input, mode);
        self.normalize(input, &means, &vars, mode.is_train()).0
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (means, vars) = self.stats_for(input, mode);
        if mode.is_train() {
            for ch in 0..self.channels {
                self.running_mean.data_mut()[ch] = (1.0 - self.momentum)
                    * self.running_mean.data()[ch]
                    + self.momentum * means[ch];
                self.running_var.data_mut()[ch] =
                    (1.0 - self.momentum) * self.running_var.data()[ch] + self.momentum * vars[ch];
            }
        }
        let (out, cache) = self.normalize(input, &means, &vars, mode.is_train());
        self.cache = Some(cache);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("backward called before forward on BatchNorm2d");
        assert_eq!(
            grad_output.shape(),
            &cache.input_shape[..],
            "grad_output shape mismatch in BatchNorm2d"
        );
        let [b, c, h, w] = [
            cache.input_shape[0],
            cache.input_shape[1],
            cache.input_shape[2],
            cache.input_shape[3],
        ];
        let plane = h * w;
        let count = (b * plane) as f32;

        // A frozen batch norm (empty γ and β gradients) under running
        // statistics reads no per-channel reduction.
        let trains = !self.gamma.grad.is_empty();
        let mut grad_input = Tensor::zeros(grad_output.shape());
        for ch in 0..c {
            // Per-channel reductions of dY and dY*x_hat.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            if trains || cache.used_batch_stats {
                for n in 0..b {
                    let base = n * c * plane + ch * plane;
                    for p in 0..plane {
                        let dy = grad_output.data()[base + p];
                        sum_dy += dy;
                        sum_dy_xhat += dy * cache.x_hat.data()[base + p];
                    }
                }
            }
            if trains {
                self.gamma.grad.data_mut()[ch] += sum_dy_xhat;
                self.beta.grad.data_mut()[ch] += sum_dy;
            }

            let g = self.gamma.value.data()[ch];
            let inv_std = cache.inv_std[ch];
            for n in 0..b {
                let base = n * c * plane + ch * plane;
                for p in 0..plane {
                    let dy = grad_output.data()[base + p];
                    let xh = cache.x_hat.data()[base + p];
                    grad_input.data_mut()[base + p] = if cache.used_batch_stats {
                        // Standard batch-norm backward (training statistics
                        // depend on the input).
                        g * inv_std * (dy - sum_dy / count - xh * sum_dy_xhat / count)
                    } else {
                        // Evaluation mode: the running statistics are constants.
                        g * inv_std * dy
                    };
                }
            }
        }
        grad_input
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn name(&self) -> &'static str {
        "batch_norm2d"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::BatchNorm(self.frozen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_input_grad;
    use ensembler_tensor::Rng;

    #[test]
    fn train_mode_normalizes_batch_statistics() {
        let bn = BatchNorm2d::new(2);
        let mut rng = Rng::seed_from(0);
        let x = Tensor::from_fn(&[4, 2, 3, 3], |_| rng.normal_with(5.0, 2.0));
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean ~ 0 and variance ~ 1 after normalization.
        let stats = y.sum_per_channel();
        for ch in 0..2 {
            assert!(stats.data()[ch].abs() / (4.0 * 9.0) < 1e-4);
        }
        let var: f32 = y.data().iter().map(|v| v * v).sum::<f32>() / y.len() as f32;
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
        assert_eq!(bn.channels(), 2);
    }

    #[test]
    fn running_statistics_move_toward_batch_statistics() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 10.0);
        for _ in 0..200 {
            let _ = bn.forward_cached(&x, Mode::Train);
        }
        assert!((bn.running_mean().data()[0] - 10.0).abs() < 0.2);
        assert!(bn.running_var().data()[0] < 0.2);
        // Eval mode now maps the constant input close to zero.
        let y = bn.forward(&x, Mode::Eval);
        assert!(y.data().iter().all(|v| v.abs() < 0.5));
        // The pure and the caching eval forward agree bit for bit.
        let mut rng = Rng::seed_from(4);
        let x = Tensor::from_fn(&[2, 1, 3, 3], |_| rng.normal_with(10.0, 1.0));
        let pure = bn.forward(&x, Mode::Eval);
        assert_eq!(bn.forward_cached(&x, Mode::Eval).data(), pure.data());
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let bn = BatchNorm2d::new(3);
        let x = Tensor::from_fn(&[1, 3, 2, 2], |i| i as f32);
        let a = bn.forward(&x, Mode::Eval);
        let b = bn.forward(&x, Mode::Eval);
        assert_eq!(a, b);
    }

    #[test]
    fn pure_forward_never_touches_running_statistics() {
        let bn = BatchNorm2d::new(2);
        let mut rng = Rng::seed_from(9);
        let x = Tensor::from_fn(&[4, 2, 3, 3], |_| rng.normal_with(3.0, 1.5));
        let before = (bn.running_mean().clone(), bn.running_var().clone());
        let _ = bn.forward(&x, Mode::Train);
        let _ = bn.forward(&x, Mode::Eval);
        assert_eq!(bn.running_mean(), &before.0);
        assert_eq!(bn.running_var(), &before.1);
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm2d::new(1);
        bn.params_mut()[0].value.fill(2.0); // gamma
        bn.params_mut()[1].value.fill(1.0); // beta
        let mut rng = Rng::seed_from(1);
        let x = Tensor::from_fn(&[2, 1, 2, 2], |_| rng.normal());
        let y = bn.forward_cached(&x, Mode::Train);
        let mean = y.mean();
        assert!(
            (mean - 1.0).abs() < 1e-4,
            "beta should shift mean to 1, got {mean}"
        );
    }

    #[test]
    fn train_gradients_match_finite_differences() {
        // Gradient check in Eval mode (running stats constant) for the affine
        // part, and a coarse Train-mode check for the full normalization.
        let mut bn = BatchNorm2d::new(2);
        check_layer_input_grad(&mut bn, &[2, 2, 3, 3], 0.0, 3e-2);
    }

    #[test]
    fn train_mode_input_gradient_sums_to_zero_per_channel() {
        // Because the output is invariant to adding a constant per channel in
        // train mode, the input gradient must sum to ~0 per channel.
        let mut bn = BatchNorm2d::new(2);
        let mut rng = Rng::seed_from(2);
        let x = Tensor::from_fn(&[3, 2, 4, 4], |_| rng.normal());
        let _ = bn.forward_cached(&x, Mode::Train);
        let g = Tensor::from_fn(&[3, 2, 4, 4], |_| rng.normal());
        let gi = bn.backward(&g);
        let sums = gi.sum_per_channel();
        for v in sums.data() {
            assert!(v.abs() < 1e-3, "per-channel gradient sum {v} should vanish");
        }
    }

    #[test]
    #[should_panic(expected = "expected 2 channels")]
    fn channel_mismatch_panics() {
        let bn = BatchNorm2d::new(2);
        let _ = bn.forward(&Tensor::ones(&[1, 3, 2, 2]), Mode::Train);
    }
}
