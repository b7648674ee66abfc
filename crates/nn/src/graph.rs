//! Lazy compute-graph IR over the layer zoo.
//!
//! Instead of walking `Box<dyn Layer>` chains and calling
//! [`Layer::forward`] eagerly, a pipeline can be **lowered** into a vector
//! of typed [`GraphOp`] nodes once, handed to the
//! [`crate::compiler`], and executed through a fused
//! [`crate::compiler::CompiledPlan`] on every subsequent request. The IR is
//! deliberately tiny: it only distinguishes the ops the fusion passes care
//! about (convolution, batch norm, ReLU, pooling, flatten, linear, residual
//! blocks); everything else stays an opaque node that runs the original
//! layer unchanged, so lowering is always total and never changes semantics.
//!
//! Lowering happens through [`Layer::lower`], which each typed layer
//! overrides; the default implementation produces [`GraphOp::Opaque`].
//!
//! # Examples
//!
//! ```
//! use ensembler_nn::graph::{lower_sequential, GraphOp};
//! use ensembler_nn::{Conv2d, Relu, Sequential};
//! use ensembler_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Sequential::new(vec![
//!     Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)),
//!     Box::new(Relu::new()),
//! ]);
//! let ops = lower_sequential(&net);
//! assert!(matches!(ops[0], GraphOp::Conv(_)));
//! assert!(matches!(ops[1], GraphOp::Relu));
//! ```

use crate::{BatchNorm2d, Conv2d, Layer, Linear, Sequential};

/// One node of the lazy compute-graph IR.
///
/// Typed variants own a clone of the layer they were lowered from, so a
/// compiled plan is self-contained and immune to later mutation of the
/// source network (whoever mutates it compiles a new plan).
#[derive(Debug, Clone)]
pub enum GraphOp {
    /// 2-D convolution (weights and bias owned by the node).
    Conv(Conv2d),
    /// Batch normalization, executed with its frozen running statistics
    /// (plans are inference-only).
    BatchNorm(BatchNorm2d),
    /// ReLU in the mask-multiply formulation the eager [`crate::Relu`]
    /// layer uses: `v * (v > 0 ? 1 : 0)`.
    Relu,
    /// Square max pooling with the given window (stride = window).
    MaxPool(usize),
    /// Global average pooling, `[B, C, H, W] -> [B, C]`.
    GlobalAvgPool,
    /// Flattens feature maps to `[B, features]`.
    Flatten,
    /// Fully-connected layer (weights and bias owned by the node).
    Linear(Linear),
    /// A residual block: the main branch, an optional projection shortcut
    /// (`None` means identity), and the implicit `relu(main + shortcut)`
    /// terminator.
    Residual {
        /// Ops of the main branch, applied in order.
        main: Vec<GraphOp>,
        /// Ops of the projection shortcut, or `None` for identity.
        shortcut: Option<Vec<GraphOp>>,
    },
    /// A nested sequence of ops. [`lower_sequential`] and the compiler
    /// flatten sequences away; the variant only exists so
    /// [`crate::Sequential::lower`](Layer::lower) can return one node.
    Sequence(Vec<GraphOp>),
    /// A layer with no typed IR representation; the plan runs the layer's
    /// own [`Layer::forward`] (inference mode) unchanged.
    Opaque(Box<dyn Layer>),
}

impl GraphOp {
    /// Short human-readable op name for summaries and debugging.
    pub fn name(&self) -> &'static str {
        match self {
            GraphOp::Conv(_) => "conv",
            GraphOp::BatchNorm(_) => "batch_norm",
            GraphOp::Relu => "relu",
            GraphOp::MaxPool(_) => "max_pool",
            GraphOp::GlobalAvgPool => "global_avg_pool",
            GraphOp::Flatten => "flatten",
            GraphOp::Linear(_) => "linear",
            GraphOp::Residual { .. } => "residual",
            GraphOp::Sequence(_) => "sequence",
            GraphOp::Opaque(l) => l.name(),
        }
    }
}

/// Lowers a [`Sequential`] pipeline into a flat op list, recursively
/// flattening nested sequences so peephole fusion sees adjacent ops.
pub fn lower_sequential(net: &Sequential) -> Vec<GraphOp> {
    let mut ops = Vec::with_capacity(net.len());
    for layer in net.layers() {
        flatten_into(layer.lower(), &mut ops);
    }
    ops
}

fn flatten_into(op: GraphOp, out: &mut Vec<GraphOp>) {
    match op {
        GraphOp::Sequence(ops) => {
            for op in ops {
                flatten_into(op, out);
            }
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Flatten, GlobalAvgPool, MaxPool2d, Relu, ResidualBlock, Sigmoid};
    use ensembler_tensor::Rng;

    #[test]
    fn typed_layers_lower_to_typed_ops() {
        let mut rng = Rng::seed_from(0);
        let net = Sequential::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4, 2, &mut rng)),
        ]);
        let ops = lower_sequential(&net);
        let names: Vec<_> = ops.iter().map(GraphOp::name).collect();
        assert_eq!(
            names,
            [
                "conv",
                "batch_norm",
                "relu",
                "max_pool",
                "global_avg_pool",
                "flatten",
                "linear"
            ]
        );
    }

    #[test]
    fn untyped_layers_lower_to_opaque() {
        let op = Sigmoid::new().lower();
        assert!(matches!(op, GraphOp::Opaque(_)));
        assert_eq!(op.name(), "sigmoid");
    }

    #[test]
    fn nested_sequentials_flatten() {
        let mut rng = Rng::seed_from(1);
        let inner = Sequential::new(vec![
            Box::new(Linear::new(4, 4, &mut rng)),
            Box::new(Relu::new()),
        ]);
        let outer = Sequential::new(vec![Box::new(inner), Box::new(Linear::new(4, 2, &mut rng))]);
        let ops = lower_sequential(&outer);
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[0], GraphOp::Linear(_)));
        assert!(matches!(ops[2], GraphOp::Linear(_)));
    }

    #[test]
    fn residual_blocks_lower_with_branch_structure() {
        let mut rng = Rng::seed_from(2);
        let plain = ResidualBlock::new(4, 4, 1, &mut rng).lower();
        match &plain {
            GraphOp::Residual { main, shortcut } => {
                assert_eq!(main.len(), 5, "conv, bn, relu, conv, bn");
                assert!(shortcut.is_none(), "identity shortcut stays None");
            }
            other => panic!("expected residual, got {}", other.name()),
        }
        let down = ResidualBlock::new(4, 8, 2, &mut rng).lower();
        match &down {
            GraphOp::Residual { shortcut, .. } => {
                assert_eq!(shortcut.as_ref().map(Vec::len), Some(2), "conv + bn");
            }
            other => panic!("expected residual, got {}", other.name()),
        }
    }
}
