//! Int8 inference: the quantized convolution, and the eager int8 pipeline
//! every compiled int8 plan is checked against.
//!
//! The quantization scheme (see [`ensembler_tensor::quant`]) is symmetric:
//! weights carry one per-tensor scale fixed at quantization time; activations
//! are quantized on the fly with one scale **per batch sample**, so a
//! sample's int8 result never depends on what else shares its mini-batch —
//! the inference engine's coalescing guarantee carries over to int8
//! unchanged.
//!
//! The int8 tier quantizes convolutions ([`QConv2d`], the convolutions
//! inside a [`crate::ResidualBlock`] included); everything else, linears
//! included, stays `f32`. An Ensembler's server bodies — what the int8 tier
//! serves — are conv stacks ending in a global average pool, so the convs
//! are where their arithmetic is; batch norm, activations, pooling, noise
//! and a linear run their `f32` layers between the quantized convs.
//!
//! [`QSequential`] is that network as an eager pipeline: it walks the graph
//! IR both compiled plans are built from ([`crate::graph::lower_sequential`]),
//! quantizes each conv once, and runs every op unfused, in NCHW.
//!
//! # Examples
//!
//! ```
//! use ensembler_nn::quant::QSequential;
//! use ensembler_nn::{Conv2d, Layer, Mode, Relu, Sequential};
//! use ensembler_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Sequential::new(vec![
//!     Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Conv2d::new(8, 4, 3, 1, 1, &mut rng)),
//! ]);
//! let qnet = QSequential::from_sequential(&net);
//! let x = Tensor::from_fn(&[2, 3, 6, 6], |_| rng.uniform(-1.0, 1.0));
//! let (y, qy) = (net.forward(&x, Mode::Eval), qnet.forward(&x));
//! assert_eq!(y.shape(), qy.shape());
//! // Quantized outputs track the f32 ones to within a few quantization steps.
//! for (a, b) in y.data().iter().zip(qy.data()) {
//!     assert!((a - b).abs() < 0.1, "{a} vs {b}");
//! }
//! ```

use crate::graph::{lower_sequential, GraphOp};
use crate::{Conv2d, Flatten, GlobalAvgPool, Layer, MaxPool2d, Mode, Relu, Sequential};
use ensembler_tensor::{im2col_i8, qgemm_nn, Conv2dGeometry, QTensor, QTensorBatch, Tensor};

/// Transposes a row-major `[rows, cols]` `i8` matrix into `[cols, rows]`.
///
/// Weight matrices are transposed once at quantization time so every int8
/// product runs through the one packed [`qgemm_nn`] kernel layout.
fn transpose_i8(data: &[i8], rows: usize, cols: usize) -> Vec<i8> {
    let mut out = vec![0i8; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = data[r * cols + c];
        }
    }
    out
}

/// Int8 counterpart of [`Conv2d`]: the input is quantized per sample, lowered
/// with the `i8` `im2col`, multiplied through [`qgemm_nn`] against the
/// pre-quantized (transposed) weight and dequantized straight into NCHW with
/// the bias added in `f32`.
#[derive(Debug, Clone)]
pub struct QConv2d {
    /// Quantized weight, stored transposed as `[in_channels*k*k, out_channels]`.
    weight_t: Vec<i8>,
    weight_scale: f32,
    bias: Tensor,
    in_channels: usize,
    out_channels: usize,
    geometry: Conv2dGeometry,
}

impl QConv2d {
    /// Quantizes a trained [`Conv2d`] layer's weights for int8 inference.
    pub fn from_conv(layer: &Conv2d) -> Self {
        let q = QTensor::quantize(&layer.weight().value);
        let geometry = layer.geometry();
        let fan_in = layer.in_channels() * geometry.kernel * geometry.kernel;
        Self {
            weight_t: transpose_i8(q.data(), layer.out_channels(), fan_in),
            weight_scale: q.scale(),
            bias: layer.bias().value.clone(),
            in_channels: layer.in_channels(),
            out_channels: layer.out_channels(),
            geometry,
        }
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

    /// Transposed quantized weight (`[fan_in, out]`), for the fused plan
    /// stages.
    pub(crate) fn weight_t(&self) -> &[i8] {
        &self.weight_t
    }

    /// Per-tensor weight scale.
    pub(crate) fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    /// Full-precision bias.
    pub(crate) fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Number of input channels.
    pub(crate) fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub(crate) fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The convolution geometry.
    pub(crate) fn geometry(&self) -> Conv2dGeometry {
        self.geometry
    }

    /// Runs the int8 convolution on an NCHW batch.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not rank-4 or its channel count differs.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.rank(), 4, "QConv2d expects NCHW input");
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "QConv2d expected {} input channels, got {}",
            self.in_channels,
            input.shape()[1]
        );
        let [b, c, h, w] = [
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        ];
        let out_shape = self.output_shape(input.shape());
        let (out_c, out_h, out_w) = (out_shape[1], out_shape[2], out_shape[3]);
        let plane = out_h * out_w;
        let fan_in = c * self.geometry.kernel * self.geometry.kernel;

        // Per-sample quantization, then an i8 lowering: zero padding maps to
        // quantized zero, so lowering commutes with quantization exactly.
        let q = QTensorBatch::quantize_batch(input);
        let cols = im2col_i8(q.data(), b, c, h, w, self.geometry);
        let acc = qgemm_nn(&cols, &self.weight_t, b * plane, fan_in, out_c);

        // Dequantize + bias, transposing the [B*OH*OW, Cout] rows into NCHW.
        let mut out = vec![0.0f32; b * out_c * plane];
        let bias = self.bias.data();
        for n in 0..b {
            let rescale = q.scales()[n] * self.weight_scale;
            for p in 0..plane {
                let row = &acc[(n * plane + p) * out_c..(n * plane + p + 1) * out_c];
                for (co, &a) in row.iter().enumerate() {
                    out[n * out_c * plane + co * plane + p] = a as f32 * rescale + bias[co];
                }
            }
        }
        Tensor::from_vec(out, &out_shape).expect("output sized to NCHW shape")
    }
}

/// One op of a quantized network: a conv quantized once, a residual block
/// over ops of its own, a ReLU inside one, or any other op of the graph IR
/// as its `f32` layer.
#[derive(Debug, Clone)]
enum QOp {
    Conv(QConv2d),
    Residual {
        main: Vec<QOp>,
        shortcut: Option<Vec<QOp>>,
    },
    /// A ReLU inside a residual branch: `max(0, ·)`, like the block's merge.
    ResidualRelu,
    F32(Box<dyn Layer>),
}

/// Quantizes the convs of `ops`; `in_residual` says whether they sit inside
/// a residual branch, which decides a ReLU's formula.
fn quantize_ops(ops: Vec<GraphOp>, in_residual: bool) -> Vec<QOp> {
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        out.push(match op {
            GraphOp::Conv(conv) => QOp::Conv(QConv2d::from_conv(&conv)),
            GraphOp::Residual { main, shortcut } => QOp::Residual {
                main: quantize_ops(main, true),
                shortcut: shortcut.map(|ops| quantize_ops(ops, true)),
            },
            GraphOp::Sequence(ops) => {
                out.extend(quantize_ops(ops, in_residual));
                continue;
            }
            GraphOp::Relu if in_residual => QOp::ResidualRelu,
            GraphOp::Relu => QOp::F32(Box::new(Relu::new())),
            GraphOp::BatchNorm(bn) => QOp::F32(Box::new(bn)),
            GraphOp::MaxPool(k) => QOp::F32(Box::new(MaxPool2d::new(k))),
            GraphOp::GlobalAvgPool => QOp::F32(Box::new(GlobalAvgPool::new())),
            GraphOp::Flatten => QOp::F32(Box::new(Flatten::new())),
            GraphOp::Linear(linear) => QOp::F32(Box::new(linear)),
            GraphOp::Opaque(layer) => QOp::F32(layer),
        });
    }
    out
}

/// Runs `ops` in order on `input`.
fn run_ops(ops: &[QOp], input: &Tensor) -> Tensor {
    let mut x = input.clone();
    for op in ops {
        x = match op {
            QOp::Conv(conv) => conv.forward(&x),
            QOp::Residual { main, shortcut } => {
                let main = run_ops(main, &x);
                let skip = match shortcut {
                    Some(ops) => run_ops(ops, &x),
                    None => x,
                };
                main.add(&skip).map(|v| v.max(0.0))
            }
            QOp::ResidualRelu => x.map(|v| v.max(0.0)),
            QOp::F32(layer) => layer.forward(&x, Mode::Eval),
        };
    }
    x
}

/// The int8 counterpart of [`Sequential`]: the network's graph IR with each
/// conv quantized into a [`QConv2d`], run op by op. It is the reference
/// every [`crate::QCompiledPlan`] reproduces bit for bit.
///
/// Inference-only and immutable: `forward` takes `&self`, so a quantized
/// pipeline can be shared behind an `Arc` and serve concurrent batches under
/// the same contract as the `f32` [`crate::Layer::forward`] path.
#[derive(Debug, Clone)]
pub struct QSequential {
    ops: Vec<QOp>,
}

impl QSequential {
    /// Quantizes every conv of a pipeline (weights are quantized once,
    /// here; activations are quantized per batch at inference time).
    pub fn from_sequential(net: &Sequential) -> Self {
        Self {
            ops: quantize_ops(lower_sequential(net), false),
        }
    }

    /// Runs the pipeline on an NCHW `input` (inference only): each conv
    /// through [`QConv2d::forward`], every other op through its `f32`
    /// layer, and a ReLU inside a residual branch, and the branch merge, as
    /// `max(0, ·)`.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        run_ops(&self.ops, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_body, ResNetConfig};
    use crate::{Linear, ResidualBlock};
    use ensembler_tensor::Rng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn qconv_tracks_the_f32_forward() {
        let mut rng = Rng::seed_from(4);
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::from_fn(&[2, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let qconv = QConv2d::from_conv(&conv);
        assert_eq!(qconv.output_shape(&[2, 3, 8, 8]), vec![2, 8, 8, 8]);
        assert_close(&qconv.forward(&x), &conv.forward(&x, Mode::Eval), 0.08);
    }

    #[test]
    fn strided_qconv_matches_shapes_and_values() {
        let mut rng = Rng::seed_from(5);
        let conv = Conv2d::new(2, 4, 3, 2, 1, &mut rng);
        let x = Tensor::from_fn(&[1, 2, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let qconv = QConv2d::from_conv(&conv);
        assert_close(&qconv.forward(&x), &conv.forward(&x, Mode::Eval), 0.08);
    }

    #[test]
    fn quantized_outputs_are_independent_of_batch_composition() {
        // The coalescing guarantee: a sample's int8 result must not depend on
        // its batch mates, even though activation scales are data-dependent.
        let mut rng = Rng::seed_from(6);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let qconv = QConv2d::from_conv(&conv);
        let small = Tensor::from_fn(&[1, 2, 6, 6], |_| rng.uniform(-0.1, 0.1));
        let huge = Tensor::from_fn(&[1, 2, 6, 6], |_| rng.uniform(-50.0, 50.0));
        let alone = qconv.forward(&small);
        let together = qconv.forward(&Tensor::stack_batch(&[small, huge]));
        assert_eq!(alone.data(), &together.data()[..alone.len()]);
    }

    #[test]
    fn qresidual_block_tracks_the_f32_block() {
        let mut rng = Rng::seed_from(7);
        let block = ResidualBlock::new(4, 8, 2, &mut rng);
        let x = Tensor::from_fn(&[2, 4, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let qblock = QSequential::from_sequential(&Sequential::new(vec![Box::new(block.clone())]));
        assert_close(&qblock.forward(&x), &block.forward(&x, Mode::Eval), 0.15);
    }

    #[test]
    fn qsequential_quantizes_gemm_layers_and_falls_back_elsewhere() {
        // Only the conv runs int8: the ReLU, the flatten and the linear run
        // their f32 layers on the quantized conv's output, bit for bit.
        let mut rng = Rng::seed_from(8);
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let linear = Linear::new(4 * 36, 5, &mut rng);
        let net = Sequential::new(vec![
            Box::new(conv.clone()),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(linear.clone()),
        ]);
        let qnet = QSequential::from_sequential(&net);
        let x = Tensor::from_fn(&[3, 2, 6, 6], |_| rng.uniform(-1.0, 1.0));
        let features = Relu::new().forward(&QConv2d::from_conv(&conv).forward(&x), Mode::Eval);
        let want = linear.forward(&features.flatten_batch(), Mode::Eval);
        assert_eq!(qnet.forward(&x), want);
        assert_close(&qnet.forward(&x), &net.forward(&x, Mode::Eval), 0.15);
    }

    #[test]
    fn a_quantized_body_tracks_the_f32_body() {
        let config = ResNetConfig::cifar10_like();
        let mut rng = Rng::seed_from(9);
        let body = build_body(&config, &mut rng);
        let qbody = QSequential::from_sequential(&body);
        let head = config.head_output_shape();
        let x = Tensor::from_fn(&[2, head[0], head[1], head[2]], |_| rng.uniform(-1.0, 1.0));
        let (want, got) = (body.forward(&x, Mode::Eval), qbody.forward(&x));
        assert_ne!(got, want, "the body's convs run int8");
        assert_close(&got, &want, 0.25);
    }
}
