//! Fully-connected (affine) layer.

use crate::{Layer, Mode, Param};
use ensembler_tensor::gemm::{gemm_nt_fused, GemmEpilogue, Parallelism};
use ensembler_tensor::{Init, Rng, ShapeError, Tensor};

/// Validates a linear layer's input and returns its batch size, or a typed
/// error naming `what`.
fn check_linear_input(
    shape: &[usize],
    in_features: usize,
    what: &str,
) -> Result<usize, ShapeError> {
    if let [batch, features] = *shape {
        if features == in_features {
            Ok(batch)
        } else {
            Err(ShapeError::new(format!(
                "{what} expected {in_features} input features, got {features}"
            )))
        }
    } else {
        Err(ShapeError::new(format!(
            "{what} expects [batch, features] input, got rank-{} shape {shape:?}",
            shape.len()
        )))
    }
}

/// Fully-connected layer computing `y = x W^T + b`.
///
/// Weights are stored as `[out_features, in_features]` and the bias as
/// `[out_features]`, mirroring the usual deep-learning convention. Inputs are
/// `[batch, in_features]`.
///
/// # Examples
///
/// ```
/// use ensembler_nn::{Layer, Linear, Mode};
/// use ensembler_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed_from(1);
/// let fc = Linear::new(3, 2, &mut rng);
/// let y = fc.forward(&Tensor::ones(&[4, 3]), Mode::Eval);
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        assert!(in_features > 0, "in_features must be positive");
        assert!(out_features > 0, "out_features must be positive");
        let weight = Init::KaimingNormal {
            fan_in: in_features,
        }
        .tensor(&[out_features, in_features], rng);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Creates a layer from explicit weight and bias tensors.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not `[out, in]` or `bias` is not `[out]`.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.rank(), 2, "weight must be rank-2");
        let (out_features, in_features) = (weight.shape()[0], weight.shape()[1]);
        assert_eq!(bias.shape(), &[out_features], "bias must be [out_features]");
        Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable view of the weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// An inference-only copy for a compiled plan: the weights, no gradient
    /// buffers, no training cache (see [`Param::frozen`]).
    pub(crate) fn frozen(&self) -> Self {
        Self {
            weight: self.weight.frozen(),
            bias: self.bias.frozen(),
            in_features: self.in_features,
            out_features: self.out_features,
            cached_input: None,
        }
    }

    /// Immutable view of the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// `y = x W^T + b`, then the mask-multiply ReLU if `relu`, with the bias
    /// and the ReLU applied in the product's epilogue: the forward of the
    /// eager layer (without the ReLU) and of a compiled plan's linear stage.
    /// A typed error, never a panic, for an input that is not
    /// `[batch, in_features]`.
    pub(crate) fn product(&self, input: &Tensor, relu: bool) -> Result<Tensor, ShapeError> {
        let m = check_linear_input(input.shape(), self.in_features, "linear")?;
        let (k, n) = (self.in_features, self.out_features);
        let ep = GemmEpilogue {
            bias: Some(self.bias.value.data()),
            relu,
        };
        let weight = self.weight.value.data();
        let out = gemm_nt_fused(input.data(), weight, m, k, n, Parallelism::Auto, ep);
        Ok(Tensor::from_vec(out, &[m, n]).expect("fused output sized m*n"))
    }
}

impl Layer for Linear {
    fn forward(&self, input: &Tensor, _mode: Mode) -> Tensor {
        self.product(input, false)
            .unwrap_or_else(|err| panic!("{err}"))
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
            .expect("backward called before forward on Linear");
        assert_eq!(
            grad_output.shape(),
            &[input.shape()[0], self.out_features],
            "grad_output shape mismatch in Linear"
        );
        // dW = dY^T X, db = sum_batch dY, dX = dY W
        let grad_w = grad_output.matmul_tn(input);
        self.weight.grad.add_assign(&grad_w);
        self.bias.grad.add_assign(&grad_output.sum_axis0());
        grad_output.matmul(&self.weight.value)
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
        "linear"
    }

    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::Linear(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_input_grad, check_layer_param_grads};

    #[test]
    fn forward_matches_manual_affine() {
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let bias = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let fc = Linear::from_parts(weight, bias);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 0.0, 1.0, 0.0], &[2, 3]).unwrap();
        let y = fc.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[6.5, 14.5, 2.5, 4.5]);
        assert_eq!(fc.in_features(), 3);
        assert_eq!(fc.out_features(), 2);
    }

    #[test]
    fn parameter_count_and_access() {
        let mut rng = Rng::seed_from(0);
        let fc = Linear::new(4, 3, &mut rng);
        assert_eq!(fc.parameter_count(), 4 * 3 + 3);
        assert_eq!(fc.weight().value.shape(), &[3, 4]);
        assert_eq!(fc.bias().value.shape(), &[3]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(11);
        let mut fc = Linear::new(5, 3, &mut rng);
        check_layer_input_grad(&mut fc, &[2, 5], 0.0, 2e-2);
        check_layer_param_grads(&mut fc, &[2, 5], 2e-2, 20);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = Rng::seed_from(5);
        let mut fc = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        fc.forward_cached(&x, Mode::Train);
        fc.backward(&g);
        let first = fc.weight().grad.clone();
        fc.forward_cached(&x, Mode::Train);
        fc.backward(&g);
        let doubled = fc.weight().grad.clone();
        assert_eq!(doubled.data(), first.scale(2.0).data());
        fc.zero_grad();
        assert_eq!(fc.weight().grad.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "expected 3 input features")]
    fn wrong_input_width_panics() {
        let mut rng = Rng::seed_from(0);
        let fc = Linear::new(3, 2, &mut rng);
        let _ = fc.forward(&Tensor::ones(&[1, 4]), Mode::Eval);
    }

    #[test]
    #[should_panic(expected = "bias must be [out_features]")]
    fn from_parts_validates_bias() {
        let _ = Linear::from_parts(Tensor::zeros(&[2, 3]), Tensor::zeros(&[3]));
    }
}
