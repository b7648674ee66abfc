//! Composite layers: sequential containers, flattening, identity and the
//! residual block used by the MicroResNet backbone.

use crate::{BatchNorm2d, Conv2d, Layer, Mode, Param, Relu};
use ensembler_tensor::{Rng, Tensor};

/// A layer that returns its input unchanged. Used as the shortcut branch of a
/// non-downsampling [`ResidualBlock`] and as a placeholder defence layer.
#[derive(Debug, Default, Clone)]
pub struct Identity;

impl Identity {
    /// Creates an identity layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Identity {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        input.clone()
    }

    fn forward_cached(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        input.clone()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        grad_output.clone()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

/// Flattens `[B, C, H, W]` feature maps into `[B, C*H*W]` vectors.
#[derive(Debug, Default, Clone)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        input.flatten_batch()
    }

    fn forward_cached(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        self.cached_shape = Some(input.shape().to_vec());
        input.flatten_batch()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("backward called before forward on Flatten");
        grad_output
            .reshape(shape)
            .expect("gradient has the same number of elements as the input")
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::Flatten
    }
}

/// An ordered pipeline of layers applied one after another.
///
/// `Sequential` itself implements [`Layer`], so pipelines can be nested.
///
/// # Examples
///
/// ```
/// use ensembler_nn::{Layer, Linear, Mode, Relu, Sequential};
/// use ensembler_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed_from(0);
/// let mlp = Sequential::new(vec![
///     Box::new(Linear::new(8, 16, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Linear::new(16, 2, &mut rng)),
/// ]);
/// assert_eq!(mlp.len(), 3);
/// let y = mlp.forward(&Tensor::ones(&[1, 8]), Mode::Eval);
/// assert_eq!(y.shape(), &[1, 2]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a pipeline from the given layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Creates an empty pipeline.
    pub fn empty() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer to the end of the pipeline.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the pipeline.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the pipeline has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the contained layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the contained layers.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }
}

impl Layer for Sequential {
    fn forward(&self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward_cached(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::Sequence(self.layers.iter().map(|l| l.lower()).collect())
    }
}

/// A basic pre-activation-free residual block: `relu(bn(conv(x)) -> bn(conv) + shortcut(x))`.
///
/// When `stride > 1` or the channel count changes, the shortcut is a strided
/// 1x1 convolution followed by batch norm, matching the ResNet "option B"
/// projection shortcut.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    relu_out_mask: Option<Tensor>,
}

impl ResidualBlock {
    /// Creates a residual block mapping `in_channels` to `out_channels` with
    /// the given stride on the first convolution.
    ///
    /// # Panics
    ///
    /// Panics if a channel count or the stride is zero.
    pub fn new(in_channels: usize, out_channels: usize, stride: usize, rng: &mut Rng) -> Self {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, rng);
        let bn1 = BatchNorm2d::new(out_channels);
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, rng);
        let bn2 = BatchNorm2d::new(out_channels);
        let shortcut = if stride != 1 || in_channels != out_channels {
            Some((
                Conv2d::new(in_channels, out_channels, 1, stride, 0, rng),
                BatchNorm2d::new(out_channels),
            ))
        } else {
            None
        };
        Self {
            conv1,
            bn1,
            relu1: Relu::new(),
            conv2,
            bn2,
            shortcut,
            relu_out_mask: None,
        }
    }

    /// Returns `true` if the block uses a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.shortcut.is_some()
    }
}

impl Layer for ResidualBlock {
    fn forward(&self, input: &Tensor, mode: Mode) -> Tensor {
        let main = self.conv1.forward(input, mode);
        let main = self.bn1.forward(&main, mode);
        let main = self.relu1.forward(&main, mode);
        let main = self.conv2.forward(&main, mode);
        let main = self.bn2.forward(&main, mode);

        let skip = match &self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(input, mode);
                bn.forward(&s, mode)
            }
            None => input.clone(),
        };
        let pre = main.add(&skip);
        let mask = pre.map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        pre.mul(&mask)
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let main = self.conv1.forward_cached(input, mode);
        let main = self.bn1.forward_cached(&main, mode);
        let main = self.relu1.forward_cached(&main, mode);
        let main = self.conv2.forward_cached(&main, mode);
        let main = self.bn2.forward_cached(&main, mode);

        let skip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward_cached(input, mode);
                bn.forward_cached(&s, mode)
            }
            None => input.clone(),
        };
        let pre = main.add(&skip);
        let mask = pre.map(|x| if x > 0.0 { 1.0 } else { 0.0 });
        let out = pre.mul(&mask);
        self.relu_out_mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .relu_out_mask
            .as_ref()
            .expect("backward called before forward on ResidualBlock");
        let grad_pre = grad_output.mul(mask);

        // Main branch.
        let g = self.bn2.backward(&grad_pre);
        let g = self.conv2.backward(&g);
        let g = self.relu1.backward(&g);
        let g = self.bn1.backward(&g);
        let grad_main_input = self.conv1.backward(&g);

        // Shortcut branch.
        let grad_skip_input = match &mut self.shortcut {
            Some((conv, bn)) => {
                let g = bn.backward(&grad_pre);
                conv.backward(&g)
            }
            None => grad_pre,
        };
        grad_main_input.add(&grad_skip_input)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn params(&self) -> Vec<&Param> {
        let mut params = Vec::new();
        params.extend(self.conv1.params());
        params.extend(self.bn1.params());
        params.extend(self.conv2.params());
        params.extend(self.bn2.params());
        if let Some((conv, bn)) = &self.shortcut {
            params.extend(conv.params());
            params.extend(bn.params());
        }
        params
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        params.extend(self.conv1.params_mut());
        params.extend(self.bn1.params_mut());
        params.extend(self.conv2.params_mut());
        params.extend(self.bn2.params_mut());
        if let Some((conv, bn)) = &mut self.shortcut {
            params.extend(conv.params_mut());
            params.extend(bn.params_mut());
        }
        params
    }

    fn name(&self) -> &'static str {
        "residual_block"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        use crate::graph::GraphOp;
        crate::graph::GraphOp::Residual {
            main: vec![
                GraphOp::Conv(self.conv1.clone()),
                GraphOp::BatchNorm(self.bn1.clone()),
                GraphOp::Relu,
                GraphOp::Conv(self.conv2.clone()),
                GraphOp::BatchNorm(self.bn2.clone()),
            ],
            shortcut: self.shortcut.as_ref().map(|(conv, bn)| {
                vec![GraphOp::Conv(conv.clone()), GraphOp::BatchNorm(bn.clone())]
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_input_grad;
    use crate::Linear;

    #[test]
    fn identity_and_flatten() {
        let mut id = Identity::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        assert_eq!(id.forward(&x, Mode::Train), x);
        assert_eq!(id.backward(&x), x);

        let mut flat = Flatten::new();
        let y = flat.forward_cached(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 12]);
        assert_eq!(flat.forward(&x, Mode::Train), y);
        let g = flat.backward(&y);
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut rng = Rng::seed_from(0);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 3, &mut rng)),
        ]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
        assert_eq!(net.params().len(), 4);
        let x = Tensor::ones(&[2, 4]);
        let y = net.forward_cached(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 3]);
        let g = net.backward(&Tensor::ones(&[2, 3]));
        assert_eq!(g.shape(), &[2, 4]);
    }

    #[test]
    fn cloned_sequential_computes_identical_outputs() {
        let mut rng = Rng::seed_from(6);
        let net = Sequential::new(vec![
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 3, &mut rng)),
        ]);
        let copy = net.clone();
        let x = Tensor::from_fn(&[2, 4], |i| (i as f32 * 0.3).cos());
        assert_eq!(net.forward(&x, Mode::Eval), copy.forward(&x, Mode::Eval));
        assert_eq!(copy.parameter_count(), net.parameter_count());
    }

    #[test]
    fn pure_forward_leaves_no_backward_state() {
        let mut rng = Rng::seed_from(8);
        let mut net = Sequential::new(vec![Box::new(Linear::new(3, 2, &mut rng))]);
        let x = Tensor::ones(&[1, 3]);
        let _ = net.forward(&x, Mode::Eval);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.backward(&Tensor::ones(&[1, 2]))
        }));
        assert!(
            result.is_err(),
            "backward must fail after a pure forward: nothing was cached"
        );
    }

    #[test]
    fn sequential_push_and_empty() {
        let mut net = Sequential::empty();
        assert!(net.is_empty());
        net.push(Box::new(Identity::new()));
        assert_eq!(net.len(), 1);
        assert_eq!(net.layers().len(), 1);
        assert_eq!(net.layers_mut().len(), 1);
    }

    #[test]
    fn sequential_gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from(1);
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(5, 7, &mut rng)),
            Box::new(crate::Tanh::new()),
            Box::new(Linear::new(7, 3, &mut rng)),
        ]);
        check_layer_input_grad(&mut net, &[2, 5], 0.0, 2e-2);
    }

    #[test]
    fn residual_block_shapes() {
        let mut rng = Rng::seed_from(2);
        let plain = ResidualBlock::new(4, 4, 1, &mut rng);
        assert!(!plain.has_projection());
        let y = plain.forward(&Tensor::ones(&[1, 4, 8, 8]), Mode::Train);
        assert_eq!(y.shape(), &[1, 4, 8, 8]);

        let down = ResidualBlock::new(4, 8, 2, &mut rng);
        assert!(down.has_projection());
        let y = down.forward(&Tensor::ones(&[1, 4, 8, 8]), Mode::Train);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
    }

    #[test]
    fn residual_block_backward_produces_input_shaped_gradient() {
        let mut rng = Rng::seed_from(3);
        let mut block = ResidualBlock::new(3, 6, 2, &mut rng);
        let x = Tensor::from_fn(&[2, 3, 6, 6], |i| (i as f32 * 0.01).sin());
        let y = block.forward_cached(&x, Mode::Train);
        let g = block.backward(&Tensor::ones(y.shape()));
        assert_eq!(g.shape(), x.shape());
        assert!(g.is_finite());
        // All parameter groups received some gradient signal.
        assert!(block.params().iter().any(|p| p.grad.norm() > 0.0));
    }

    #[test]
    fn residual_block_output_is_nonnegative() {
        let mut rng = Rng::seed_from(4);
        let block = ResidualBlock::new(2, 2, 1, &mut rng);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.1).cos());
        let y = block.forward(&x, Mode::Eval);
        assert!(y.min() >= 0.0, "final ReLU keeps activations non-negative");
    }

    #[test]
    fn residual_block_parameter_count_matches_structure() {
        let mut rng = Rng::seed_from(5);
        let block = ResidualBlock::new(4, 4, 1, &mut rng);
        // conv1: 4*4*9 + 4, bn1: 8, conv2: 4*4*9 + 4, bn2: 8 => 320
        assert_eq!(
            block.parameter_count(),
            4 * 4 * 9 + 4 + 8 + 4 * 4 * 9 + 4 + 8
        );
    }
}
