//! The [`Layer`] trait, training mode flag and trainable [`Param`] container.

use ensembler_tensor::Tensor;

/// Whether a forward pass should behave as training or evaluation.
///
/// Layers such as [`crate::Dropout`] and [`crate::BatchNorm2d`] change
/// behaviour between the two modes; all other layers ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: dropout active, batch statistics used and updated.
    Train,
    /// Inference: deterministic behaviour, running statistics used.
    Eval,
}

impl Mode {
    /// Returns `true` for [`Mode::Train`].
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A trainable parameter: a value tensor plus its accumulated gradient.
///
/// # Examples
///
/// ```
/// use ensembler_nn::Param;
/// use ensembler_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::ones(&[2, 2]));
/// assert_eq!(p.grad.sum(), 0.0);
/// p.grad.fill(1.0);
/// p.zero_grad();
/// assert_eq!(p.grad.sum(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass(es).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }

    /// A copy of the value with an *empty* gradient, for a layer frozen into
    /// an execution plan: a plan is never trained, and a gradient buffer per
    /// parameter would double what it keeps resident.
    pub(crate) fn frozen(&self) -> Self {
        Self {
            value: self.value.clone(),
            grad: Tensor::zeros(&[0]),
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable computation stage with explicit forward and backward
/// passes.
///
/// The trait distinguishes two forward entry points:
///
/// * [`Layer::forward`] is **pure**: it takes `&self`, never mutates layer
///   state and is safe to call from many threads at once. This is the path
///   every inference API in the workspace uses — it is what lets a whole
///   pipeline be shared behind an `Arc` and serve concurrent batches.
/// * [`Layer::forward_cached`] takes `&mut self` and additionally stores
///   whatever activations the subsequent [`Layer::backward`] call needs.
///   Training loops use this path; callers must invoke `backward` with the
///   gradient of the *most recent* cached forward call.
///
/// Both entry points compute identical outputs for identical inputs.
/// Parameter gradients are **accumulated** into [`Param::grad`]; call
/// [`Layer::zero_grad`] (or an optimizer that does it) between steps.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Computes the layer output for `input` without touching layer state.
    fn forward(&self, input: &Tensor, mode: Mode) -> Tensor;

    /// Computes the layer output for `input`, caching the activations that
    /// [`Layer::backward`] needs.
    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates `grad_output` (gradient of the loss with respect to this
    /// layer's output) back to the input, accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward_cached` or with a
    /// gradient whose shape does not match the cached forward output.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Clones the layer behind a fresh box.
    ///
    /// This is what lets [`crate::Sequential`] (a vector of boxed layers) be
    /// `Clone`, which the attack crate relies on: under the paper's threat
    /// model the adversarial server *owns* the body weights, so it clones
    /// them out of a shared pipeline into its own mutable copies.
    fn clone_layer(&self) -> Box<dyn Layer>;

    /// Immutable access to the trainable parameters (empty by default).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the trainable parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Clears the accumulated gradients of every parameter.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Short human-readable layer name used in summaries.
    fn name(&self) -> &'static str;

    /// Total number of trainable scalars in the layer.
    fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Lowers this layer to a node of the lazy compute-graph IR.
    ///
    /// Layers with a typed graph representation (convolutions, batch norm,
    /// ReLU, pooling, flatten, linear, the containers) override this so the
    /// [`crate::compiler`] can validate shapes and fuse across op
    /// boundaries; every other layer becomes a [`crate::graph::GraphOp::Opaque`]
    /// node whose plan stage runs the layer's own `forward` unchanged.
    fn lower(&self) -> crate::graph::GraphOp {
        crate::graph::GraphOp::Opaque(self.clone_layer())
    }
}

/// Boxed layers can be used wherever a layer is expected, which is what
/// [`crate::Sequential`] relies on.
impl Layer for Box<dyn Layer> {
    fn forward(&self, input: &Tensor, mode: Mode) -> Tensor {
        self.as_ref().forward(input, mode)
    }

    fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.as_mut().forward_cached(input, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.as_mut().backward(grad_output)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        self.as_ref().clone_layer()
    }

    fn params(&self) -> Vec<&Param> {
        self.as_ref().params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.as_mut().params_mut()
    }

    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn lower(&self) -> crate::graph::GraphOp {
        self.as_ref().lower()
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.as_ref().clone_layer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_flags() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }

    #[test]
    fn param_construction_and_zeroing() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.grad.shape(), &[2]);
        p.grad.fill(3.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn boxed_layer_delegates() {
        let boxed: Box<dyn Layer> = Box::new(crate::Relu::new());
        assert_eq!(boxed.name(), "relu");
        assert_eq!(boxed.parameter_count(), 0);
    }
}
