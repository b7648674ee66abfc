//! Compilation of the lazy graph IR into fused, panic-free execution plans.
//!
//! [`CompiledPlan::compile`] lowers a [`Sequential`] pipeline through
//! [`crate::graph`] and runs one fusion pass over the op list, **epilogue
//! fusion** ([`FusionConfig::fuse_epilogue`]): the bias add and a directly
//! following ReLU are applied inside the GEMM epilogue while the output band
//! is cache-hot ([`ensembler_tensor::gemm::gemm_nt_fused`]), an eval-mode
//! batch norm (and the ReLU after it) directly following a conv is merged
//! into the conv's single output pass, and the int8 conv stages dequantize
//! their `i32` accumulators, apply bias, the merged batch norm and ReLU, and
//! transpose into NCHW in one pass (the int8 linear stages keep the
//! dequantize in the qgemm epilogue, [`ensembler_tensor::qgemm_nn_dequant`]).
//! Epilogue fusion performs exactly the eager per-element expressions, so it
//! is bit-exact.
//!
//! Every typed stage validates its input shape first and returns a
//! [`ShapeError`] instead of panicking, so a hostile or corrupt request
//! shape surfaces as a typed error at the pipeline boundary rather than
//! unwinding a server thread.
//!
//! # Examples
//!
//! ```
//! use ensembler_nn::compiler::{CompiledPlan, FusionConfig};
//! use ensembler_nn::{Conv2d, Layer, Mode, Relu, Sequential};
//! use ensembler_tensor::{Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let net = Sequential::new(vec![
//!     Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)),
//!     Box::new(Relu::new()),
//! ]);
//! let plan = CompiledPlan::compile(&net, FusionConfig::bit_exact());
//! let x = Tensor::ones(&[2, 3, 8, 8]);
//! let fused = plan.run(&x).unwrap();
//! assert_eq!(fused, net.forward(&x, Mode::Eval));
//! // A hostile shape is a typed error, not a panic:
//! assert!(plan.run(&Tensor::ones(&[2, 5, 8, 8])).is_err());
//! ```

use crate::conv::rows_to_nchw;
use crate::graph::{lower_sequential, GraphOp};
use crate::quant::{QConv2d, QLinear};
use crate::{BatchNorm2d, Conv2d, Layer, Linear, MaxPool2d, Mode, Sequential};
use ensembler_tensor::gemm::{gemm_nt_fused, GemmEpilogue, Parallelism};
use ensembler_tensor::{
    im2col, im2col_i8, par_map, qgemm_nn, qgemm_nn_dequant, Conv2dGeometry, QGemmEpilogue,
    QTensorBatch, ShapeError, Tensor,
};
use std::borrow::Cow;

/// Whether a compiled plan fuses epilogues or runs each layer eagerly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionConfig {
    /// Apply bias (and a directly following batch norm and ReLU) in the
    /// conv/GEMM output pass and keep int8 `i32` accumulators live through
    /// a fused dequantize. Bit-exact with respect to the eager pipeline.
    pub fuse_epilogue: bool,
}

impl FusionConfig {
    /// No fusion: the plan validates shapes and then runs each layer's own
    /// eager forward. The oracle the bit-exact suites compare against.
    pub fn none() -> Self {
        Self {
            fuse_epilogue: false,
        }
    }

    /// Epilogue fusion — bit-exact with the eager pipeline. The default for
    /// serving pipelines.
    pub fn bit_exact() -> Self {
        Self {
            fuse_epilogue: true,
        }
    }
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self::bit_exact()
    }
}

// ---------------------------------------------------------------------------
// Shared shape validation (typed errors instead of the eager asserts)
// ---------------------------------------------------------------------------

fn expect_rank4(shape: &[usize], what: &str) -> Result<(usize, usize, usize, usize), ShapeError> {
    if let [b, c, h, w] = *shape {
        Ok((b, c, h, w))
    } else {
        Err(ShapeError::new(format!(
            "{what} expects NCHW input, got rank-{} shape {shape:?}",
            shape.len()
        )))
    }
}

fn check_conv_input(
    shape: &[usize],
    in_channels: usize,
    geometry: Conv2dGeometry,
    what: &str,
) -> Result<(usize, usize, usize), ShapeError> {
    let (b, c, h, w) = expect_rank4(shape, what)?;
    if c != in_channels {
        return Err(ShapeError::new(format!(
            "{what} expected {in_channels} input channels, got {c}"
        )));
    }
    let k = geometry.kernel;
    let p = geometry.padding;
    if h + 2 * p < k || w + 2 * p < k {
        return Err(ShapeError::new(format!(
            "{what} kernel {k} exceeds padded input extent ({h}x{w}, padding {p})"
        )));
    }
    let oh = (h + 2 * p - k) / geometry.stride + 1;
    let ow = (w + 2 * p - k) / geometry.stride + 1;
    Ok((b, oh, ow))
}

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

/// The eager ReLU's mask multiply, `v * (v > 0 ? 1 : 0)`, per element.
fn relu_mask(v: f32) -> f32 {
    v * if v > 0.0 { 1.0 } else { 0.0 }
}

/// What the `f32` and the int8 stages have in common, so that a chain, a
/// residual block and a whole ensemble are each evaluated by one function.
trait PlanStage: Sized + Sync {
    /// This precision's fused conv stage.
    type Conv: LoweredConv;

    fn run(&self, input: &Tensor, config: FusionConfig) -> Result<Tensor, ShapeError>;

    /// A residual block's add and its ReLU, per element.
    fn merge(main: f32, skip: f32) -> f32;

    /// The main branch and the shortcut (`None`: identity) of a residual
    /// stage.
    fn as_residual(&self) -> Option<(&[Self], Option<&[Self]>)>;

    fn as_conv(&self) -> Option<&Self::Conv>;
}

/// A fused conv stage split at the one point an ensemble can share:
/// [`lower`](Self::lower) depends on the input and on [`key`](Self::key)
/// only, [`finish`](Self::finish) on the lowered input and this stage's own
/// weights only — so bodies whose keys agree can borrow one lowering.
trait LoweredConv: Sync {
    /// The validated input as the GEMM reads it (the column matrix).
    type Lowered: Sync;

    /// Everything besides the input that the lowering depends on: the conv
    /// geometry and the input channel count.
    fn key(&self) -> (Conv2dGeometry, usize);

    fn lower(&self, input: &Tensor) -> Result<Self::Lowered, ShapeError>;

    /// The stage's GEMM and output pass. Reads `lowered`, never changes it.
    fn finish(&self, lowered: &Self::Lowered) -> Tensor;
}

/// Runs `stages` in order. The first stage reads `input` in place, so an
/// empty chain is the only case that hands the borrow back.
fn run_chain<'a, S: PlanStage>(
    stages: &[S],
    input: &'a Tensor,
    config: FusionConfig,
) -> Result<Cow<'a, Tensor>, ShapeError> {
    let mut x = Cow::Borrowed(input);
    for stage in stages {
        x = Cow::Owned(stage.run(&x, config)?);
    }
    Ok(x)
}

/// Evaluates both branches of a residual block on `input` and merges them.
fn run_residual<S: PlanStage>(
    main: &[S],
    shortcut: Option<&[S]>,
    input: &Tensor,
    config: FusionConfig,
) -> Result<Tensor, ShapeError> {
    let x = run_chain(main, input, config)?;
    merge_residual(&x, shortcut, input, config)
}

/// Evaluates the shortcut of a residual block on `input` (an identity skip
/// borrows it) and merges it element-wise into the finished main branch `x`
/// — the add and the block's ReLU in one pass.
fn merge_residual<S: PlanStage>(
    x: &Tensor,
    shortcut: Option<&[S]>,
    input: &Tensor,
    config: FusionConfig,
) -> Result<Tensor, ShapeError> {
    let skip = match shortcut {
        Some(stages) => run_chain(stages, input, config)?,
        None => Cow::Borrowed(input),
    };
    if x.shape() != skip.shape() {
        return Err(ShapeError::new(format!(
            "residual branches disagree: main {:?} vs shortcut {:?}",
            x.shape(),
            skip.shape()
        )));
    }
    Ok(x.zip_map(&skip, S::merge))
}

/// One plan as the ensemble entry points hand it to [`run_ensemble`].
type PlanRef<'a, S> = (&'a [S], FusionConfig);

fn run_plan<S: PlanStage>(
    &(stages, config): &PlanRef<S>,
    input: &Tensor,
) -> Result<Tensor, ShapeError> {
    run_chain(stages, input, config).map(Cow::into_owned)
}

/// The conv that reads a plan's input: its first stage, or the first stage
/// of the main branch of a leading residual block.
fn leading_conv<S: PlanStage>(stages: &[S]) -> Option<&S::Conv> {
    let first = stages.first()?;
    match first.as_residual() {
        Some((main, _)) => main.first()?.as_conv(),
        None => first.as_conv(),
    }
}

/// Runs every plan on the one `input`, in parallel, answers in plan order.
///
/// When all plans are fused and lead with convs of one geometry over one
/// channel count — an ensemble's bodies do, by construction — the input is
/// validated and lowered **once** and every leading conv multiplies from a
/// borrow of that column matrix: its own GEMM call with its own weights,
/// so each answer is bit-identical to `run` on that plan. The matrix is
/// the largest buffer of a body run; it is freed before the rest of the
/// bodies run so that N bodies never hold it next to their own second-layer
/// matrices. Anything else (one plan, unfused plans, a leading stage that is
/// not a conv, bodies that disagree) is the independent `run` per plan.
fn run_ensemble<S: PlanStage>(
    plans: &[PlanRef<S>],
    input: &Tensor,
) -> Result<Vec<Tensor>, ShapeError> {
    let shared = || {
        let convs: Vec<&S::Conv> = plans
            .iter()
            .map(|&(stages, config)| leading_conv(stages).filter(|_| config.fuse_epilogue))
            .collect::<Option<_>>()?;
        let same = convs.len() > 1 && convs.iter().all(|conv| conv.key() == convs[0].key());
        same.then_some(convs)
    };
    let Some(convs) = shared() else {
        return par_map(plans, |plan| run_plan(plan, input))
            .into_iter()
            .collect();
    };
    let lowered = convs[0].lower(input)?;
    let led = par_map(&convs, |conv| conv.finish(&lowered));
    drop(lowered);
    let rest: Vec<(&PlanRef<S>, Tensor)> = plans.iter().zip(led).collect();
    par_map(&rest, |(&(stages, config), led)| {
        let (head, tail) = stages.split_first().expect("a leading conv has a stage");
        match head.as_residual() {
            None => run_chain(tail, led, config).map(Cow::into_owned),
            Some((main, shortcut)) => {
                let x = run_chain(&main[1..], led, config)?;
                let block = merge_residual(&x, shortcut, input, config)?;
                run_chain(tail, &block, config).map(Cow::into_owned)
            }
        }
    })
    .into_iter()
    .collect()
}

/// An eval-mode batch norm merged into a conv's output pass, with the
/// per-channel `1/sqrt(var + eps)` worked out when the plan is compiled —
/// by the eager layer's expression, so the merge stays bit-exact.
#[derive(Debug, Clone)]
struct MergedBn {
    bn: BatchNorm2d,
    inv_std: Vec<f32>,
}

impl MergedBn {
    fn new(bn: &BatchNorm2d) -> Self {
        let inv_std = bn
            .running_var()
            .data()
            .iter()
            .map(|v| 1.0 / (v + bn.eps()).sqrt())
            .collect();
        Self {
            bn: bn.clone(),
            inv_std,
        }
    }

    /// Per-channel `(mean, inv_std, gamma, beta)`: channel `ch` maps `v` to
    /// `gamma[ch] * ((v - mean[ch]) * inv_std[ch]) + beta[ch]`, the eager
    /// [`BatchNorm2d`] expression.
    fn params(&self) -> (&[f32], &[f32], &[f32], &[f32]) {
        (
            self.bn.running_mean().data(),
            &self.inv_std,
            self.bn.gamma().value.data(),
            self.bn.beta().value.data(),
        )
    }
}

/// Turns `[b*oh*ow, c]` GEMM rows into an NCHW tensor while applying a merged
/// eval-mode batch norm (and optionally the mask-multiply ReLU) in the same
/// pass. Every per-element expression matches the standalone
/// [`BatchNorm2d`]/ReLU forwards exactly, so the merge is bit-exact; the win
/// is running one pass over the feature map instead of three.
fn bn_relu_rows_to_nchw(
    rows: &[f32],
    b: usize,
    c: usize,
    oh: usize,
    ow: usize,
    bn: &MergedBn,
    relu: bool,
) -> Tensor {
    let plane = oh * ow;
    debug_assert_eq!(rows.len(), b * plane * c);
    let (mean, inv_std, gamma, beta) = bn.params();
    let mut out = vec![0.0f32; b * c * plane];
    for n in 0..b {
        for p in 0..plane {
            let row = &rows[(n * plane + p) * c..(n * plane + p + 1) * c];
            for (ch, &v) in row.iter().enumerate() {
                let mut t = gamma[ch] * ((v - mean[ch]) * inv_std[ch]) + beta[ch];
                if relu {
                    t *= if t > 0.0 { 1.0 } else { 0.0 };
                }
                out[n * c * plane + ch * plane + p] = t;
            }
        }
    }
    Tensor::from_vec(out, &[b, c, oh, ow]).expect("output sized to NCHW shape")
}

// ---------------------------------------------------------------------------
// f32 plan
// ---------------------------------------------------------------------------

/// Convolution; `bn` records a directly following eval-mode batch norm and
/// `relu` a ReLU after it, both fused into the conv's output pass. The batch
/// norm applies the eager per-element expression
/// `gamma*((x-mean)*inv_std)+beta` and the ReLU the eager mask multiply, so
/// the merge is bit-exact with the standalone layers.
#[derive(Debug, Clone)]
struct ConvStage {
    conv: Conv2d,
    bn: Option<Box<MergedBn>>,
    relu: bool,
}

/// An input batch lowered for a conv's GEMM, with the output extents the
/// validation worked out.
struct Lowered {
    cols: Tensor,
    b: usize,
    oh: usize,
    ow: usize,
}

impl LoweredConv for ConvStage {
    type Lowered = Lowered;

    fn key(&self) -> (Conv2dGeometry, usize) {
        (self.conv.geometry(), self.conv.in_channels())
    }

    fn lower(&self, input: &Tensor) -> Result<Lowered, ShapeError> {
        let (geometry, in_channels) = self.key();
        let (b, oh, ow) = check_conv_input(input.shape(), in_channels, geometry, "conv")?;
        Ok(Lowered {
            cols: im2col(input, geometry),
            b,
            oh,
            ow,
        })
    }

    fn finish(&self, lowered: &Lowered) -> Tensor {
        let Self { conv, bn, relu } = self;
        let &Lowered { b, oh, ow, .. } = lowered;
        let g = conv.geometry();
        let m = b * oh * ow;
        let k = conv.in_channels() * g.kernel * g.kernel;
        let n = conv.out_channels();
        let rows = gemm_nt_fused(
            lowered.cols.data(),
            conv.weight().value.data(),
            m,
            k,
            n,
            Parallelism::Auto,
            GemmEpilogue {
                bias: Some(conv.bias().value.data()),
                // With a merged batch norm the ReLU comes after it, so it
                // moves out of the GEMM epilogue into the combined output
                // pass below.
                relu: *relu && bn.is_none(),
            },
        );
        match bn {
            None => {
                let rows = Tensor::from_vec(rows, &[m, n]).expect("fused rows sized m*n");
                rows_to_nchw(&rows, b, n, oh, ow)
            }
            Some(bn) => bn_relu_rows_to_nchw(&rows, b, n, oh, ow, bn, *relu),
        }
    }
}

#[derive(Debug, Clone)]
enum Stage {
    Conv(ConvStage),
    BatchNorm(BatchNorm2d),
    Relu,
    MaxPool(MaxPool2d),
    GlobalAvgPool,
    Flatten,
    Linear {
        linear: Linear,
        relu: bool,
    },
    Residual {
        main: Vec<Stage>,
        shortcut: Option<Vec<Stage>>,
    },
    Opaque(Box<dyn Layer>),
}

impl PlanStage for Stage {
    type Conv = ConvStage;

    fn run(&self, input: &Tensor, config: FusionConfig) -> Result<Tensor, ShapeError> {
        match self {
            Stage::Conv(stage) => {
                if config.fuse_epilogue {
                    return Ok(stage.finish(&stage.lower(input)?));
                }
                let (geometry, in_channels) = stage.key();
                check_conv_input(input.shape(), in_channels, geometry, "conv")?;
                Ok(stage.conv.forward(input, Mode::Eval))
            }
            Stage::BatchNorm(bn) => {
                let (_, c, _, _) = expect_rank4(input.shape(), "batch_norm")?;
                if c != bn.channels() {
                    return Err(ShapeError::new(format!(
                        "batch_norm expected {} channels, got {c}",
                        bn.channels()
                    )));
                }
                Ok(bn.forward(input, Mode::Eval))
            }
            Stage::Relu => Ok(input.map(relu_mask)),
            Stage::MaxPool(pool) => {
                let (_, _, h, w) = expect_rank4(input.shape(), "max_pool")?;
                let k = pool.window();
                if h % k != 0 || w % k != 0 {
                    return Err(ShapeError::new(format!(
                        "max_pool window {k} must divide spatial dims ({h}x{w})"
                    )));
                }
                Ok(pool.forward(input, Mode::Eval))
            }
            Stage::GlobalAvgPool => {
                expect_rank4(input.shape(), "global_avg_pool")?;
                Ok(crate::GlobalAvgPool::new().forward(input, Mode::Eval))
            }
            Stage::Flatten => {
                if input.rank() < 1 {
                    return Err(ShapeError::new("flatten expects at least rank-1 input"));
                }
                Ok(input.flatten_batch())
            }
            Stage::Linear { linear, relu } => {
                let m = check_linear_input(input.shape(), linear.in_features(), "linear")?;
                if !config.fuse_epilogue {
                    return Ok(linear.forward(input, Mode::Eval));
                }
                let n = linear.out_features();
                let out = gemm_nt_fused(
                    input.data(),
                    linear.weight().value.data(),
                    m,
                    linear.in_features(),
                    n,
                    Parallelism::Auto,
                    GemmEpilogue {
                        bias: Some(linear.bias().value.data()),
                        relu: *relu,
                    },
                );
                Ok(Tensor::from_vec(out, &[m, n]).expect("fused output sized m*n"))
            }
            Stage::Residual { main, shortcut } => {
                run_residual(main, shortcut.as_deref(), input, config)
            }
            Stage::Opaque(layer) => Ok(layer.forward(input, Mode::Eval)),
        }
    }

    fn merge(main: f32, skip: f32) -> f32 {
        relu_mask(main + skip)
    }

    fn as_residual(&self) -> Option<(&[Self], Option<&[Self]>)> {
        match self {
            Stage::Residual { main, shortcut } => Some((main, shortcut.as_deref())),
            _ => None,
        }
    }

    fn as_conv(&self) -> Option<&ConvStage> {
        match self {
            Stage::Conv(stage) => Some(stage),
            _ => None,
        }
    }
}

fn build_stages(ops: &[GraphOp], config: FusionConfig) -> Vec<Stage> {
    let mut stages = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let fused_relu = config.fuse_epilogue && matches!(ops.get(i + 1), Some(GraphOp::Relu));
        match &ops[i] {
            GraphOp::Conv(conv) => {
                // Merge a following batch norm (channel counts permitting)
                // and then a following ReLU into the conv's output pass.
                let fused_bn = if config.fuse_epilogue {
                    match ops.get(i + 1) {
                        Some(GraphOp::BatchNorm(bn)) if bn.channels() == conv.out_channels() => {
                            Some(Box::new(MergedBn::new(bn)))
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                let after_bn = i + 1 + usize::from(fused_bn.is_some());
                let fused_relu =
                    config.fuse_epilogue && matches!(ops.get(after_bn), Some(GraphOp::Relu));
                stages.push(Stage::Conv(ConvStage {
                    conv: conv.frozen(),
                    bn: fused_bn,
                    relu: fused_relu,
                }));
                i = after_bn + usize::from(fused_relu);
                continue;
            }
            GraphOp::Linear(linear) => {
                stages.push(Stage::Linear {
                    linear: linear.frozen(),
                    relu: fused_relu,
                });
                i += 1 + usize::from(fused_relu);
                continue;
            }
            GraphOp::BatchNorm(bn) => stages.push(Stage::BatchNorm(bn.clone())),
            GraphOp::Relu => stages.push(Stage::Relu),
            GraphOp::MaxPool(k) => stages.push(Stage::MaxPool(MaxPool2d::new(*k))),
            GraphOp::GlobalAvgPool => stages.push(Stage::GlobalAvgPool),
            GraphOp::Flatten => stages.push(Stage::Flatten),
            GraphOp::Residual { main, shortcut } => stages.push(Stage::Residual {
                main: build_stages(main, config),
                shortcut: shortcut.as_ref().map(|s| build_stages(s, config)),
            }),
            GraphOp::Sequence(seq) => stages.extend(build_stages(seq, config)),
            GraphOp::Opaque(layer) => stages.push(Stage::Opaque(layer.clone())),
        }
        i += 1;
    }
    stages
}

/// A fused `f32` execution plan, compiled once per pipeline and shared
/// (immutably) across request threads.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    stages: Vec<Stage>,
    config: FusionConfig,
}

impl CompiledPlan {
    /// Lowers `net` to the graph IR and returns the executable plan, fused
    /// as `config` selects.
    pub fn compile(net: &Sequential, config: FusionConfig) -> Self {
        let ops = lower_sequential(net);
        Self {
            stages: build_stages(&ops, config),
            config,
        }
    }

    /// Runs the plan on an input batch (inference semantics).
    ///
    /// Returns a [`ShapeError`] — never panics — when the input shape does
    /// not fit the pipeline's typed stages.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, ShapeError> {
        run_plan(&self.parts(), input)
    }

    /// Runs every plan of an ensemble on the one input they share, in
    /// parallel, and returns their outputs in plan order — each bit-identical
    /// to [`run`](Self::run) on that plan, and the first failing plan's
    /// [`ShapeError`] if any fails.
    ///
    /// Same-shape bodies (fused plans whose leading convs agree on geometry
    /// and input channels) have the input validated and lowered by `im2col`
    /// once, and each body's first GEMM borrows that column matrix; any other
    /// set of plans is run independently.
    pub fn run_all(plans: &[CompiledPlan], input: &Tensor) -> Result<Vec<Tensor>, ShapeError> {
        let plans: Vec<_> = plans.iter().map(Self::parts).collect();
        run_ensemble(&plans, input)
    }

    fn parts(&self) -> PlanRef<'_, Stage> {
        (&self.stages, self.config)
    }

    /// The fusion configuration the plan was compiled with.
    pub fn config(&self) -> FusionConfig {
        self.config
    }

    /// Number of top-level stages after fusion (a fused conv+relu counts
    /// once).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }
}

// ---------------------------------------------------------------------------
// int8 plan
// ---------------------------------------------------------------------------

/// Which ReLU formulation (if any) is merged into a fused int8 conv's
/// output pass. The eager quantized pipeline runs standalone ReLUs as the
/// `f32` mask multiply but residual-internal ones as `max(0,·)`; the merged
/// pass replicates whichever applies so the plan stays bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QRelu {
    None,
    Mask,
    Max,
}

/// Int8 convolution with the dequantize, bias, a merged eval-mode batch norm
/// and the following ReLU all applied in one pass over the `i32`
/// accumulators while transposing into NCHW — the eager pipeline's
/// per-element expressions, one feature-map pass instead of up to four.
#[derive(Debug, Clone)]
struct QConvStage {
    conv: QConv2d,
    bn: Option<MergedBn>,
    relu: QRelu,
}

/// An input batch quantized per sample and lowered for a conv's `qgemm`.
struct QLowered {
    cols: Vec<i8>,
    /// The per-sample activation scales of the quantization.
    scales: Vec<f32>,
    b: usize,
    oh: usize,
    ow: usize,
}

impl LoweredConv for QConvStage {
    type Lowered = QLowered;

    fn key(&self) -> (Conv2dGeometry, usize) {
        (self.conv.geometry(), self.conv.in_channels())
    }

    fn lower(&self, input: &Tensor) -> Result<QLowered, ShapeError> {
        let (geometry, in_channels) = self.key();
        let (b, oh, ow) = check_conv_input(input.shape(), in_channels, geometry, "q_conv")?;
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let q = QTensorBatch::quantize_batch(input);
        Ok(QLowered {
            cols: im2col_i8(q.data(), b, in_channels, h, w, geometry),
            scales: q.scales().to_vec(),
            b,
            oh,
            ow,
        })
    }

    fn finish(&self, lowered: &QLowered) -> Tensor {
        let Self { conv, bn, relu } = self;
        let &QLowered { b, oh, ow, .. } = lowered;
        let g = conv.geometry();
        let plane = oh * ow;
        let fan_in = conv.in_channels() * g.kernel * g.kernel;
        let out_c = conv.out_channels();
        let acc = qgemm_nn(&lowered.cols, conv.weight_t(), b * plane, fan_in, out_c);

        // One pass over the i32 accumulators: dequantize, bias, the merged
        // batch norm and ReLU, transposed straight into NCHW. Each
        // expression matches the eager stage it replaces.
        let bias = conv.bias().data();
        let bn_params = bn.as_ref().map(MergedBn::params);
        let mut out = vec![0.0f32; b * out_c * plane];
        for n in 0..b {
            let rescale = lowered.scales[n] * conv.weight_scale();
            for p in 0..plane {
                let row = &acc[(n * plane + p) * out_c..(n * plane + p + 1) * out_c];
                for (co, &a) in row.iter().enumerate() {
                    let mut t = a as f32 * rescale + bias[co];
                    if let Some((mean, inv_std, gamma, beta)) = bn_params {
                        t = gamma[co] * ((t - mean[co]) * inv_std[co]) + beta[co];
                    }
                    t = match relu {
                        QRelu::None => t,
                        QRelu::Mask => t * if t > 0.0 { 1.0 } else { 0.0 },
                        QRelu::Max => t.max(0.0),
                    };
                    out[n * out_c * plane + co * plane + p] = t;
                }
            }
        }
        Tensor::from_vec(out, &[b, out_c, oh, ow]).expect("output sized to NCHW shape")
    }
}

#[derive(Debug, Clone)]
enum QStage {
    Conv(QConvStage),
    Linear {
        linear: QLinear,
        relu: bool,
    },
    BatchNorm(BatchNorm2d),
    /// Standalone ReLU in the mask-multiply formulation, matching the
    /// `f32` fallback layer the eager quantized pipeline runs.
    ReluMask,
    /// ReLU as `max(0, ·)`, matching the eager quantized residual block.
    ReluMax,
    MaxPool(MaxPool2d),
    GlobalAvgPool,
    Flatten,
    Residual {
        main: Vec<QStage>,
        shortcut: Option<Vec<QStage>>,
    },
    Opaque(Box<dyn Layer>),
}

impl PlanStage for QStage {
    type Conv = QConvStage;

    fn run(&self, input: &Tensor, config: FusionConfig) -> Result<Tensor, ShapeError> {
        match self {
            QStage::Conv(stage) => {
                if config.fuse_epilogue {
                    return Ok(stage.finish(&stage.lower(input)?));
                }
                let (geometry, in_channels) = stage.key();
                check_conv_input(input.shape(), in_channels, geometry, "q_conv")?;
                Ok(stage.conv.forward(input))
            }
            QStage::Linear { linear, relu } => {
                let batch = check_linear_input(input.shape(), linear.in_features(), "q_linear")?;
                if !config.fuse_epilogue {
                    return Ok(linear.forward(input));
                }
                let q = QTensorBatch::quantize_batch(input);
                let row_scales: Vec<f32> = q
                    .scales()
                    .iter()
                    .map(|s| s * linear.weight_scale())
                    .collect();
                let out = qgemm_nn_dequant(
                    q.data(),
                    linear.weight_t(),
                    batch,
                    linear.in_features(),
                    linear.out_features(),
                    Parallelism::Auto,
                    QGemmEpilogue {
                        row_scales: &row_scales,
                        bias: Some(linear.bias().data()),
                        relu: *relu,
                    },
                );
                Ok(Tensor::from_vec(out, &[batch, linear.out_features()])
                    .expect("fused output sized batch*out"))
            }
            QStage::BatchNorm(bn) => {
                let (_, c, _, _) = expect_rank4(input.shape(), "batch_norm")?;
                if c != bn.channels() {
                    return Err(ShapeError::new(format!(
                        "batch_norm expected {} channels, got {c}",
                        bn.channels()
                    )));
                }
                Ok(bn.forward(input, Mode::Eval))
            }
            QStage::ReluMask => Ok(input.map(relu_mask)),
            QStage::ReluMax => Ok(input.map(|v| v.max(0.0))),
            QStage::MaxPool(pool) => {
                let (_, _, h, w) = expect_rank4(input.shape(), "max_pool")?;
                let k = pool.window();
                if h % k != 0 || w % k != 0 {
                    return Err(ShapeError::new(format!(
                        "max_pool window {k} must divide spatial dims ({h}x{w})"
                    )));
                }
                Ok(pool.forward(input, Mode::Eval))
            }
            QStage::GlobalAvgPool => {
                expect_rank4(input.shape(), "global_avg_pool")?;
                Ok(crate::GlobalAvgPool::new().forward(input, Mode::Eval))
            }
            QStage::Flatten => {
                if input.rank() < 1 {
                    return Err(ShapeError::new("flatten expects at least rank-1 input"));
                }
                Ok(input.flatten_batch())
            }
            QStage::Residual { main, shortcut } => {
                run_residual(main, shortcut.as_deref(), input, config)
            }
            QStage::Opaque(layer) => Ok(layer.forward(input, Mode::Eval)),
        }
    }

    fn merge(main: f32, skip: f32) -> f32 {
        (main + skip).max(0.0)
    }

    fn as_residual(&self) -> Option<(&[Self], Option<&[Self]>)> {
        match self {
            QStage::Residual { main, shortcut } => Some((main, shortcut.as_deref())),
            _ => None,
        }
    }

    fn as_conv(&self) -> Option<&QConvStage> {
        match self {
            QStage::Conv(stage) => Some(stage),
            _ => None,
        }
    }
}

/// Builds int8 stages. `in_residual` tracks whether we are inside a
/// residual branch, where the eager quantized block runs its ReLUs as
/// `max(0, ·)` while standalone ReLUs use the `f32` layer's mask multiply —
/// the merged conv output pass replicates whichever flavor applies, so the
/// int8 plan reproduces [`crate::quant::QSequential`] bit-for-bit either
/// way. A directly following eval-mode batch norm is merged into the same
/// pass (the linear stages keep the dequantize in the qgemm epilogue
/// instead — nothing follows the classifier head).
fn build_qstages(ops: &[GraphOp], config: FusionConfig, in_residual: bool) -> Vec<QStage> {
    let mut stages = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        match &ops[i] {
            GraphOp::Conv(conv) => {
                let fused_bn = if config.fuse_epilogue {
                    match ops.get(i + 1) {
                        Some(GraphOp::BatchNorm(bn)) if bn.channels() == conv.out_channels() => {
                            Some(MergedBn::new(bn))
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                let after_bn = i + 1 + usize::from(fused_bn.is_some());
                let fused_relu =
                    config.fuse_epilogue && matches!(ops.get(after_bn), Some(GraphOp::Relu));
                stages.push(QStage::Conv(QConvStage {
                    conv: QConv2d::from_conv(conv),
                    bn: fused_bn,
                    relu: match (fused_relu, in_residual) {
                        (false, _) => QRelu::None,
                        (true, true) => QRelu::Max,
                        (true, false) => QRelu::Mask,
                    },
                }));
                i = after_bn + usize::from(fused_relu);
                continue;
            }
            GraphOp::Linear(linear) => {
                let fused_relu = config.fuse_epilogue
                    && in_residual
                    && matches!(ops.get(i + 1), Some(GraphOp::Relu));
                stages.push(QStage::Linear {
                    linear: QLinear::from_linear(linear),
                    relu: fused_relu,
                });
                i += 1 + usize::from(fused_relu);
                continue;
            }
            GraphOp::BatchNorm(bn) => stages.push(QStage::BatchNorm(bn.clone())),
            GraphOp::Relu => stages.push(if in_residual {
                QStage::ReluMax
            } else {
                QStage::ReluMask
            }),
            GraphOp::MaxPool(k) => stages.push(QStage::MaxPool(MaxPool2d::new(*k))),
            GraphOp::GlobalAvgPool => stages.push(QStage::GlobalAvgPool),
            GraphOp::Flatten => stages.push(QStage::Flatten),
            GraphOp::Residual { main, shortcut } => stages.push(QStage::Residual {
                main: build_qstages(main, config, true),
                shortcut: shortcut.as_ref().map(|s| build_qstages(s, config, true)),
            }),
            GraphOp::Sequence(seq) => stages.extend(build_qstages(seq, config, in_residual)),
            GraphOp::Opaque(layer) => stages.push(QStage::Opaque(layer.clone())),
        }
        i += 1;
    }
    stages
}

/// A fused int8 execution plan: the quantized counterpart of
/// [`CompiledPlan`], with weights quantized once at compile time and the
/// dequantize kept in the GEMM epilogue.
#[derive(Debug, Clone)]
pub struct QCompiledPlan {
    stages: Vec<QStage>,
    config: FusionConfig,
}

impl QCompiledPlan {
    /// Lowers `net` to the graph IR and quantizes the weights into int8
    /// stages, fused as `config` selects.
    pub fn compile(net: &Sequential, config: FusionConfig) -> Self {
        let ops = lower_sequential(net);
        Self {
            stages: build_qstages(&ops, config, false),
            config,
        }
    }

    /// Runs the plan on an input batch (inference semantics).
    ///
    /// Returns a [`ShapeError`] — never panics — when the input shape does
    /// not fit the pipeline's typed stages.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, ShapeError> {
        run_plan(&self.parts(), input)
    }

    /// The int8 counterpart of [`CompiledPlan::run_all`]: same-shape bodies
    /// share one per-sample quantization and one `im2col_i8` of the input,
    /// and each answer is bit-identical to [`run`](Self::run) on that plan.
    pub fn run_all(plans: &[QCompiledPlan], input: &Tensor) -> Result<Vec<Tensor>, ShapeError> {
        let plans: Vec<_> = plans.iter().map(Self::parts).collect();
        run_ensemble(&plans, input)
    }

    fn parts(&self) -> PlanRef<'_, QStage> {
        (&self.stages, self.config)
    }

    /// The fusion configuration the plan was compiled with.
    pub fn config(&self) -> FusionConfig {
        self.config
    }

    /// Number of top-level stages after fusion.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_body, ResNetConfig};
    use crate::quant::QSequential;
    use crate::{Flatten, GlobalAvgPool, Relu, ResidualBlock};
    use ensembler_tensor::Rng;

    /// A small conv net exercising every typed stage.
    fn small_net(rng: &mut Rng) -> Sequential {
        Sequential::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(ResidualBlock::new(8, 16, 2, rng)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(16, 5, rng)),
        ])
    }

    #[test]
    fn bit_exact_plan_matches_eager_forward_exactly() {
        let mut rng = Rng::seed_from(0);
        let net = small_net(&mut rng);
        let x = Tensor::from_fn(&[3, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let eager = net.forward(&x, Mode::Eval);
        for config in [FusionConfig::none(), FusionConfig::bit_exact()] {
            let plan = CompiledPlan::compile(&net, config);
            assert_eq!(
                plan.run(&x).unwrap(),
                eager,
                "config {config:?} must be bit-exact"
            );
        }
    }

    #[test]
    fn fusion_merges_conv_relu_pairs() {
        let mut rng = Rng::seed_from(1);
        let net = small_net(&mut rng);
        let unfused = CompiledPlan::compile(&net, FusionConfig::none());
        let fused = CompiledPlan::compile(&net, FusionConfig::bit_exact());
        // conv+relu merge into one stage; everything else stays.
        assert_eq!(unfused.stage_count(), 7);
        assert_eq!(fused.stage_count(), 6);
        assert_eq!(fused.config(), FusionConfig::bit_exact());
    }

    #[test]
    fn fusion_merges_conv_bn_relu_triples_bit_exactly() {
        // A conv -> bn -> relu chain collapses into ONE stage under
        // bit_exact (the bn is merged into the conv output pass) and still
        // reproduces eager bit-for-bit.
        let mut rng = Rng::seed_from(9);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Relu::new()),
        ]);
        // Non-trivial running stats, so the merged bn is not an identity.
        let warm = Tensor::from_fn(&[4, 3, 8, 8], |_| rng.normal_with(0.4, 1.3));
        let _ = net.forward_cached(&warm, Mode::Train);
        let fused = CompiledPlan::compile(&net, FusionConfig::bit_exact());
        assert_eq!(fused.stage_count(), 1);
        assert_eq!(
            CompiledPlan::compile(&net, FusionConfig::none()).stage_count(),
            3
        );
        let x = Tensor::from_fn(&[2, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        assert_eq!(fused.run(&x).unwrap(), net.forward(&x, Mode::Eval));
        // Same for the quantized plan vs the eager quantized pipeline.
        let qfused = QCompiledPlan::compile(&net, FusionConfig::bit_exact());
        assert_eq!(qfused.stage_count(), 1);
        assert_eq!(
            qfused.run(&x).unwrap(),
            QSequential::from_sequential(&net).forward(&x)
        );
    }

    #[test]
    fn quantized_plan_matches_eager_quantized_forward_exactly() {
        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(4);
        let body = build_body(&config, &mut rng);
        let qbody = QSequential::from_sequential(&body);
        let head = config.head_output_shape();
        let x = Tensor::from_fn(&[3, head[0], head[1], head[2]], |_| rng.uniform(-1.0, 1.0));
        let eager = qbody.forward(&x);
        for config in [FusionConfig::none(), FusionConfig::bit_exact()] {
            let plan = QCompiledPlan::compile(&body, config);
            assert_eq!(
                plan.run(&x).unwrap(),
                eager,
                "config {config:?} must reproduce the eager int8 pipeline"
            );
        }
    }

    #[test]
    fn run_all_equals_run_on_shared_and_unshared_sets_of_plans() {
        let mut rng = Rng::seed_from(11);
        // Lead with a plain conv, a residual block, a 1x1 conv and a
        // non-conv stage; every net maps [b, 3, 8, 8] to something.
        let plain = small_net(&mut rng);
        let plain_too = small_net(&mut rng);
        let block = Sequential::new(vec![Box::new(ResidualBlock::new(3, 8, 1, &mut rng))]);
        let block_too = Sequential::new(vec![Box::new(ResidualBlock::new(3, 6, 1, &mut rng))]);
        let pointwise = Sequential::new(vec![Box::new(Conv2d::new(3, 4, 1, 1, 0, &mut rng))]);
        let pool = Sequential::new(vec![Box::new(MaxPool2d::new(2))]);
        let x = Tensor::from_fn(&[3, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let sets: [&[&Sequential]; 6] = [
            &[&plain, &plain_too],             // shared, leading conv
            &[&block, &block_too, &plain],     // shared across block and conv
            &[&pointwise, &pointwise],         // shared, nothing after the conv
            &[&plain, &pointwise, &plain_too], // geometries disagree: unshared
            &[&plain, &pool],                  // a leading stage is no conv
            &[&block],                         // one plan
        ];
        for config in [FusionConfig::none(), FusionConfig::bit_exact()] {
            for (i, nets) in sets.iter().enumerate() {
                let plans: Vec<_> = nets
                    .iter()
                    .map(|net| CompiledPlan::compile(net, config))
                    .collect();
                let alone: Vec<_> = plans.iter().map(|p| p.run(&x).unwrap()).collect();
                assert_eq!(
                    CompiledPlan::run_all(&plans, &x).unwrap(),
                    alone,
                    "{config:?} set {i}"
                );
                let qplans: Vec<_> = nets
                    .iter()
                    .map(|net| QCompiledPlan::compile(net, config))
                    .collect();
                let alone: Vec<_> = qplans.iter().map(|p| p.run(&x).unwrap()).collect();
                assert_eq!(
                    QCompiledPlan::run_all(&qplans, &x).unwrap(),
                    alone,
                    "int8 {config:?} set {i}"
                );
            }
        }
        assert!(CompiledPlan::run_all(&[], &x).unwrap().is_empty());
    }

    #[test]
    fn hostile_shapes_return_typed_errors_not_panics() {
        let mut rng = Rng::seed_from(6);
        let net = small_net(&mut rng);
        for config in [FusionConfig::none(), FusionConfig::bit_exact()] {
            let plan = CompiledPlan::compile(&net, config);
            let qplan = QCompiledPlan::compile(&net, config);
            // Wrong rank, wrong channel count, pool-indivisible extent and
            // a kernel larger than the padded input.
            for bad in [
                Tensor::ones(&[2, 3]),
                Tensor::ones(&[1, 5, 8, 8]),
                Tensor::ones(&[1, 3, 5, 5]),
                Tensor::ones(&[1, 3, 0, 0]),
            ] {
                let err = plan.run(&bad).unwrap_err();
                assert!(!err.message().is_empty());
                let qerr = qplan.run(&bad).unwrap_err();
                assert!(!qerr.message().is_empty());
            }
        }
    }

    #[test]
    fn shape_errors_carry_descriptive_messages() {
        let mut rng = Rng::seed_from(7);
        let net = Sequential::new(vec![Box::new(Conv2d::new(1, 2, 1, 1, 0, &mut rng))]);
        let plan = CompiledPlan::compile(&net, FusionConfig::bit_exact());
        let err = plan.run(&Tensor::ones(&[1, 2, 4, 4])).unwrap_err();
        assert!(
            err.message().contains("expected 1 input channels"),
            "unexpected message: {}",
            err.message()
        );
    }
}
