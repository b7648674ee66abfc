//! Element-wise activation layers.

use crate::{Layer, Mode};
use ensembler_tensor::Tensor;

/// Which ReLU formula a fused stage applies. The eager [`Relu`] layer
/// multiplies by a mask; the eager quantized residual block takes
/// `max(0, ·)`. The two differ on `-0.0` and `NaN`, so every fused position
/// applies the formula its eager counterpart does and a plan stays
/// bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReluForm {
    /// `v * (v > 0 ? 1 : 0)`.
    Mask,
    /// `max(0, v)`.
    Max,
}

impl ReluForm {
    pub(crate) fn apply(self, v: f32) -> f32 {
        match self {
            ReluForm::Mask => v * if v > 0.0 { 1.0 } else { 0.0 },
            ReluForm::Max => v.max(0.0),
        }
    }
}

/// Rectified linear unit: `max(0, x)`.
///
/// # Examples
///
/// ```
/// use ensembler_nn::{Layer, Mode, Relu};
/// use ensembler_tensor::Tensor;
///
/// let relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?;
/// assert_eq!(relu.forward(&x, Mode::Eval).data(), &[0.0, 2.0]);
/// # Ok::<(), ensembler_tensor::ShapeError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self { mask: None }
    }

    fn mask_of(input: &Tensor) -> Tensor {
        input.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
    }
}

impl Layer for Relu {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        input.mul(&Self::mask_of(input))
    }

    fn forward_cached(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let mask = Self::mask_of(input);
        let out = input.mul(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward called before forward on Relu");
        grad_output.mul(mask)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::Relu
    }
}

/// Leaky rectified linear unit: `x` for positive inputs, `alpha * x` otherwise.
///
/// Used by the model-inversion decoder, where a hard zero gradient would stall
/// reconstruction training.
#[derive(Debug, Clone)]
pub struct LeakyRelu {
    alpha: f32,
    mask: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative-slope `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative.
    pub fn new(alpha: f32) -> Self {
        assert!(alpha >= 0.0, "negative slope must be non-negative");
        Self { alpha, mask: None }
    }

    /// Returns the negative slope.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    fn mask_of(&self, input: &Tensor) -> Tensor {
        let alpha = self.alpha;
        input.map(|x| if x > 0.0 { 1.0 } else { alpha })
    }
}

impl Default for LeakyRelu {
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl Layer for LeakyRelu {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        input.mul(&self.mask_of(input))
    }

    fn forward_cached(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let mask = self.mask_of(input);
        let out = input.mul(&mask);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward called before forward on LeakyRelu");
        grad_output.mul(mask)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "leaky_relu"
    }
}

/// Logistic sigmoid activation: `1 / (1 + exp(-x))`.
///
/// The model-inversion decoder ends with a sigmoid so reconstructions land in
/// the `[0, 1]` image range.
#[derive(Debug, Default, Clone)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self { output: None }
    }
}

impl Layer for Sigmoid {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        input.map(|x| 1.0 / (1.0 + (-x).exp()))
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = self.forward(input, mode);
        self.output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let y = self
            .output
            .as_ref()
            .expect("backward called before forward on Sigmoid");
        grad_output.zip_map(y, |g, y| g * y * (1.0 - y))
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Default, Clone)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self { output: None }
    }
}

impl Layer for Tanh {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        input.map(f32::tanh)
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let out = self.forward(input, mode);
        self.output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let y = self
            .output
            .as_ref()
            .expect("backward called before forward on Tanh");
        grad_output.zip_map(y, |g, y| g * (1.0 - y * y))
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_input_grad;

    #[test]
    fn relu_forward_and_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 1.5], &[1, 4]).unwrap();
        let y = relu.forward_cached(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 1.5]);
        // The pure forward computes the same output without caching.
        assert_eq!(relu.forward(&x, Mode::Train), y);
        let g = relu.backward(&Tensor::ones(&[1, 4]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_keeps_small_negative_gradient() {
        let mut layer = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        let y = layer.forward_cached(&x, Mode::Train);
        assert!((y.data()[0] + 0.1).abs() < 1e-6);
        let g = layer.backward(&Tensor::ones(&[1, 2]));
        assert!((g.data()[0] - 0.1).abs() < 1e-6);
        assert_eq!(layer.alpha(), 0.1);
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut layer = Sigmoid::new();
        let x = Tensor::from_vec(vec![-10.0, 0.0, 10.0], &[1, 3]).unwrap();
        let y = layer.forward_cached(&x, Mode::Eval);
        assert!(y.data()[0] < 0.01);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 0.99);
        let g = layer.backward(&Tensor::ones(&[1, 3]));
        // Gradient peaks at x = 0 (0.25) and vanishes at the extremes.
        assert!(g.data()[1] > g.data()[0]);
        assert!(g.data()[1] > g.data()[2]);
        assert!((g.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_is_odd_and_bounded() {
        let layer = Tanh::new();
        let x = Tensor::from_vec(vec![-3.0, 0.0, 3.0], &[1, 3]).unwrap();
        let y = layer.forward(&x, Mode::Eval);
        assert!((y.data()[0] + y.data()[2]).abs() < 1e-6);
        assert_eq!(y.data()[1], 0.0);
        assert!(y.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut relu = Relu::new();
        let _ = relu.backward(&Tensor::ones(&[1]));
    }

    #[test]
    fn activation_input_gradients_match_finite_differences() {
        // ReLU/LeakyReLU are not differentiable at 0; keep inputs away from it.
        check_layer_input_grad(&mut LeakyRelu::new(0.2), &[2, 5], 0.3, 1e-2);
        check_layer_input_grad(&mut Sigmoid::new(), &[2, 5], 0.0, 1e-2);
        check_layer_input_grad(&mut Tanh::new(), &[2, 5], 0.0, 1e-2);
    }

    #[test]
    #[should_panic(expected = "negative slope")]
    fn leaky_relu_rejects_negative_alpha() {
        let _ = LeakyRelu::new(-0.5);
    }
}
