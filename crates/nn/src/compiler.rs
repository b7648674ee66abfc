//! Compilation of the lazy graph IR into fused, panic-free execution plans.
//!
//! [`CompiledPlan::compile`] lowers a [`Sequential`] pipeline through
//! [`crate::graph`] and runs one fusion pass over the op list. An `f32`
//! stage computes nothing of its own: it calls the forward of the eager
//! layer it stands for, and differs from the eager pipeline only in what
//! that forward is handed to fuse. A linear stage takes a directly following
//! ReLU into its product's epilogue ([`Linear`]'s forward applies the bias
//! there already). A conv stage hands [`Conv2d`]'s output pass an eval-mode
//! batch norm directly following the conv (applied with the
//! [`BatchNorm2d`]'s own per-channel function), the ReLU after it and a
//! max-pool after that, so that one channel-major pass writes the (pooled)
//! NCHW output straight from the product rows. A max-pool that follows no
//! conv runs the same argmax-free pass. And the bodies of an ensemble share
//! one lowering of their common input ([`CompiledPlan::run_all`]). Each
//! fused step performs exactly the eager per-element expression, in the
//! eager order, so a plan is bit-exact with [`Layer::forward`]; plans have
//! no other mode.
//!
//! [`QCompiledPlan`] is the same plan at int8, bit-exact with
//! [`crate::quant::QSequential`]. The int8 tier quantizes convolutions;
//! everything else, linears included, stays `f32`. One stage list, one
//! builder and one evaluator serve both precisions, generic over a private
//! trait that states only what differs between them: the conv stage, and
//! which ReLU formula a position inside a residual block gets.
//!
//! A value passed between two stages is a feature map of logical NCHW shape
//! together with its [`Layout`], the one description of where each of its
//! values lies, and the stage that writes a map decides its layout: an int8
//! conv writes pixel-major, the order of its product rows, and every other
//! stage NCHW, and every stage reads the layout its input has. An int8
//! conv quantizes its input per sample straight into one zero-haloed copy
//! ([`ensembler_tensor::QHalo::quantize`]) — the plan's NCHW input and a
//! conv's pixel-major map alike — that its product reads in place, against
//! weights packed once, at compile time ([`ensembler_tensor::QPanels`]),
//! and dequantizes each band of its `i32` accumulators in the product's
//! epilogue ([`ensembler_tensor::qconv_map`]): no pass converts the plan's
//! input, or a map between two convs. The max-pool and the global average
//! pool read either layout through its strides, a residual block's merge
//! transposes a skip that lies otherwise an image at a time, and a stage
//! with only an NCHW form (batch norm, flatten, linear, an opaque layer)
//! has its input gathered to NCHW once; nothing converts back. A plan takes
//! and returns NCHW tensors. No conv of either precision writes a column
//! matrix.
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
//! let plan = CompiledPlan::compile(&net, FusionConfig::default());
//! let x = Tensor::ones(&[2, 3, 8, 8]);
//! let fused = plan.run(&x).unwrap();
//! assert_eq!(fused, net.forward(&x, Mode::Eval));
//! // A hostile shape is a typed error, not a panic:
//! assert!(plan.run(&Tensor::ones(&[2, 5, 8, 8])).is_err());
//! ```

use crate::activation::ReluForm;
use crate::conv::{
    check_conv_input, check_pool, expect_rank4, nchw_pass, Lowered, OutputPass, PixelEpilogue,
};
use crate::graph::{lower_sequential, GraphOp};
use crate::pool::global_avg_pool;
use crate::quant::QConv2d;
use crate::{BatchNorm2d, Conv2d, Layer, Linear, Mode, Sequential};
use ensembler_tensor::{
    par_map, qconv_map, transpose, Conv2dGeometry, Layout, QHalo, QPanels, ShapeError, Tensor,
};
use std::borrow::Cow;
use std::fmt::Debug;

/// The second argument of the two `compile` functions. It carries no
/// setting — a plan has one mode, epilogue fusion, bit-exact with the eager
/// pipeline — and remains so that existing callers keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusionConfig;

/// What differs between the `f32` and the int8 plan. Everything else — the
/// stage list, its builder, chains, residual blocks and the shared lowering
/// of an ensemble — is written once, generic over this trait.
trait Precision {
    /// This precision's fused conv stage.
    type Conv: LoweredConv + Debug + Clone;

    /// The ReLU formula inside a residual branch, and of the block's
    /// `relu(main + skip)` merge. Outside a residual branch both precisions
    /// run the `f32` layer's mask multiply.
    const RESIDUAL_RELU: ReluForm;

    /// A conv stage finished by `pass`.
    fn conv(conv: &Conv2d, pass: OutputPass) -> Self::Conv;
}

/// A fused conv stage split at the one point an ensemble can share:
/// [`lower`](Self::lower) depends on the input and on [`key`](Self::key)
/// only, [`finish`](Self::finish) on the lowered input and this stage's own
/// weights only — so bodies whose keys agree can borrow one lowering.
trait LoweredConv: Sync {
    /// The validated input as the product reads it: a zero-haloed copy, of
    /// the `f32` input ([`Conv2d`]'s own lowering) or of its int8
    /// quantization ([`QHalo`]).
    type Lowered<'a>: Sync;

    /// Everything besides the input that the lowering and its validation
    /// depend on: the conv geometry, the input channel count and the window
    /// of a folded max-pool.
    fn key(&self) -> (Conv2dGeometry, usize, Option<usize>);

    /// Validates and lowers `input`.
    fn lower<'a>(&self, input: &'a Map<'_>) -> Result<Self::Lowered<'a>, ShapeError>;

    /// The stage's product and output pass, as the map this precision's
    /// conv writes. Reads `lowered`, never changes it.
    fn finish(&self, lowered: &Self::Lowered<'_>) -> Result<Map<'static>, ShapeError>;
}

/// A map passed between a plan's stages: its values under their logical
/// shape (NCHW `[b, c, h, w]` for a feature map, whatever order the values
/// lie in) and the [`Layout`] that says where each lies. Only a feature map
/// can lie out of the order of its shape, and only [`Map::nchw`] hands the
/// values to code that reads them in that order.
struct Map<'a> {
    values: Cow<'a, Tensor>,
    layout: Layout,
}

impl<'a> Map<'a> {
    /// `values` in the order of their shape. A typed error if one image of
    /// them holds more values than a `usize` counts: an empty batch of such
    /// images is constructible, and no stage can read it through strides.
    fn in_order(values: Cow<'a, Tensor>) -> Result<Self, ShapeError> {
        let shape = values.shape();
        let c = shape.get(1).copied().unwrap_or(1);
        let pixels = shape.get(2..).unwrap_or_default();
        let plane = pixels.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        match plane.filter(|plane| plane.checked_mul(c).is_some()) {
            Some(plane) => Ok(Self {
                layout: Layout::nchw(c, plane),
                values,
            }),
            None => Err(ShapeError::new(format!(
                "map {shape:?} is too large to index"
            ))),
        }
    }

    /// A stage's output, NCHW.
    fn output(values: Tensor) -> Result<Map<'static>, ShapeError> {
        Map::in_order(Cow::Owned(values))
    }

    fn shape(&self) -> &[usize] {
        self.values.shape()
    }

    /// This map, borrowed.
    fn view(&self) -> Map<'_> {
        Map {
            values: Cow::Borrowed(&self.values),
            layout: self.layout,
        }
    }

    /// The values in NCHW order: borrowed if they lie so, gathered
    /// otherwise.
    fn nchw(&self) -> Cow<'_, Tensor> {
        match *self.shape() {
            [b, c, h, w] if self.layout != Layout::nchw(c, h * w) => {
                Cow::Owned(self.pooled([b, c, h, w], None))
            }
            _ => Cow::Borrowed(&self.values),
        }
    }

    /// The NCHW tensor of this feature map, of shape `dims`, max-pooled
    /// over `k x k` windows if `pool` is `Some(k)`: one channel-major pass
    /// through the strides ([`nchw_pass`]).
    fn pooled(&self, dims: [usize; 4], pool: Option<usize>) -> Tensor {
        nchw_pass(self.values.data(), self.layout, dims, pool, |_, _| |v| v)
    }

    /// [`Self::nchw`], owned: what a plan returns.
    fn into_nchw(self) -> Tensor {
        if let Cow::Owned(values) = self.nchw() {
            return values;
        }
        self.values.into_owned()
    }

    /// `f` of every value, in this map's layout.
    fn map(&self, f: impl Fn(f32) -> f32) -> Map<'static> {
        Map {
            values: Cow::Owned(self.values.map(f)),
            layout: self.layout,
        }
    }

    /// `f(v, u)` of the values `v` of this map and `u` of `other`, a map of
    /// the same shape, at each logical position, in this map's layout. The
    /// two layouts a map can lie in are each other's transpose image by
    /// image, so an `other` that lies otherwise is transposed an image at a
    /// time first.
    fn zip_map(&self, other: &Map, f: impl Fn(f32, f32) -> f32) -> Map<'static> {
        let values = match *self.shape() {
            [_, c, h, w] if other.layout != self.layout => {
                let (rows, cols) = if other.layout.pixel == 1 {
                    (c, h * w)
                } else {
                    (h * w, c)
                };
                let image = (c * h * w).max(1);
                let theirs = other.values.data().chunks(image);
                let images = self.values.data().chunks(image).zip(theirs);
                let mut out = Vec::with_capacity(self.values.len());
                for (ours, theirs) in images {
                    let theirs = transpose(theirs, rows, cols);
                    out.extend(ours.iter().zip(&theirs).map(|(&v, &u)| f(v, u)));
                }
                Tensor::from_vec(out, self.shape()).expect("sized to the map")
            }
            _ => self.values.zip_map(&other.values, f),
        };
        Map {
            values: Cow::Owned(values),
            layout: self.layout,
        }
    }
}

#[derive(Debug, Clone)]
enum Stage<P: Precision> {
    Conv(P::Conv),
    BatchNorm(Box<BatchNorm2d>),
    Relu(ReluForm),
    MaxPool(usize),
    GlobalAvgPool,
    Flatten,
    /// The `f32` [`Linear`] at either precision, with the mask-multiply
    /// ReLU after it in its product's epilogue if `relu`.
    Linear {
        linear: Box<Linear>,
        relu: bool,
    },
    Residual {
        main: Vec<Stage<P>>,
        shortcut: Option<Vec<Stage<P>>>,
    },
    Opaque(Box<dyn Layer>),
}

impl<P: Precision> Stage<P> {
    fn run(&self, input: &Map) -> Result<Map<'static>, ShapeError> {
        match self {
            Stage::Conv(stage) => stage.finish(&stage.lower(input)?),
            Stage::BatchNorm(bn) => {
                let input = input.nchw();
                let (_, c, _, _) = expect_rank4(input.shape(), "batch_norm")?;
                if c != bn.channels() {
                    return Err(ShapeError::new(format!(
                        "batch_norm expected {} channels, got {c}",
                        bn.channels()
                    )));
                }
                Map::output(bn.forward(&input, Mode::Eval))
            }
            &Stage::Relu(form) => Ok(input.map(|v| form.apply(v))),
            &Stage::MaxPool(k) => {
                let (b, c, h, w) = expect_rank4(input.shape(), "max_pool")?;
                check_pool(h, w, k)?;
                Map::output(input.pooled([b, c, h, w], Some(k)))
            }
            Stage::GlobalAvgPool => {
                let (b, c, h, w) = expect_rank4(input.shape(), "global_avg_pool")?;
                let data = input.values.data();
                Map::output(global_avg_pool(data, input.layout, [b, c, h, w]))
            }
            Stage::Flatten => {
                if input.shape().is_empty() {
                    return Err(ShapeError::new("flatten expects at least rank-1 input"));
                }
                Map::output(input.nchw().flatten_batch())
            }
            Stage::Linear { linear, relu } => Map::output(linear.product(&input.nchw(), *relu)?),
            Stage::Residual { main, shortcut } => {
                let x = run_chain(main, input.view())?;
                merge_residual(&x, shortcut.as_deref(), input)
            }
            Stage::Opaque(layer) => Map::output(layer.forward(&input.nchw(), Mode::Eval)),
        }
    }
}

/// Builds the stage list of `ops`, fusing as it goes. `in_residual` tracks
/// whether the ops sit inside a residual branch, which decides the ReLU
/// formula ([`Precision::RESIDUAL_RELU`]) — so the int8 plan reproduces
/// [`crate::quant::QSequential`] bit-for-bit, where a ReLU inside a
/// residual branch is `max(0, ·)` and any other ReLU the `f32` layer's mask
/// multiply.
fn build_stages<P: Precision>(ops: &[GraphOp], in_residual: bool) -> Vec<Stage<P>> {
    let relu = if in_residual {
        P::RESIDUAL_RELU
    } else {
        ReluForm::Mask
    };
    let mut stages = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        match &ops[i] {
            GraphOp::Conv(conv) => {
                // Merge a following batch norm (channel counts permitting),
                // then a following ReLU, then a following max-pool into the
                // conv's output pass.
                let bn = match ops.get(i + 1) {
                    Some(GraphOp::BatchNorm(bn)) if bn.channels() == conv.out_channels() => {
                        Some(bn.frozen())
                    }
                    _ => None,
                };
                i += 1 + usize::from(bn.is_some());
                let fused_relu = matches!(ops.get(i), Some(GraphOp::Relu));
                i += usize::from(fused_relu);
                let pool = match ops.get(i) {
                    Some(&GraphOp::MaxPool(k)) => {
                        i += 1;
                        Some(k)
                    }
                    _ => None,
                };
                let relu = fused_relu.then_some(relu);
                stages.push(Stage::Conv(P::conv(conv, OutputPass { bn, relu, pool })));
                continue;
            }
            GraphOp::Linear(linear) => {
                // The product's epilogue applies the mask multiply, so a
                // ReLU that must be `max(0, ·)` stays a stage of its own.
                let fused_relu =
                    relu == ReluForm::Mask && matches!(ops.get(i + 1), Some(GraphOp::Relu));
                stages.push(Stage::Linear {
                    linear: Box::new(linear.frozen()),
                    relu: fused_relu,
                });
                i += 1 + usize::from(fused_relu);
                continue;
            }
            GraphOp::BatchNorm(bn) => stages.push(Stage::BatchNorm(Box::new(bn.frozen()))),
            GraphOp::Relu => stages.push(Stage::Relu(relu)),
            GraphOp::MaxPool(k) => stages.push(Stage::MaxPool(*k)),
            GraphOp::GlobalAvgPool => stages.push(Stage::GlobalAvgPool),
            GraphOp::Flatten => stages.push(Stage::Flatten),
            GraphOp::Residual { main, shortcut } => stages.push(Stage::Residual {
                main: build_stages(main, true),
                shortcut: shortcut.as_ref().map(|s| build_stages(s, true)),
            }),
            GraphOp::Sequence(seq) => stages.extend(build_stages(seq, in_residual)),
            GraphOp::Opaque(layer) => stages.push(Stage::Opaque(layer.clone())),
        }
        i += 1;
    }
    stages
}

/// Runs `stages` in order on `input`, which an empty chain hands back.
fn run_chain<'a, P: Precision>(stages: &[Stage<P>], input: Map<'a>) -> Result<Map<'a>, ShapeError> {
    let mut x = input;
    for stage in stages {
        x = stage.run(&x)?;
    }
    Ok(x)
}

/// Evaluates the shortcut of a residual block on `input` (an identity skip
/// borrows it) and merges it element-wise into the finished main branch `x`
/// — the add and the block's ReLU in one pass, in `x`'s layout
/// ([`Map::zip_map`]).
fn merge_residual<P: Precision>(
    x: &Map,
    shortcut: Option<&[Stage<P>]>,
    input: &Map,
) -> Result<Map<'static>, ShapeError> {
    let skip = match shortcut {
        Some(stages) => run_chain(stages, input.view())?,
        None => input.view(),
    };
    if x.shape() != skip.shape() {
        return Err(ShapeError::new(format!(
            "residual branches disagree: main {:?} vs shortcut {:?}",
            x.shape(),
            skip.shape()
        )));
    }
    Ok(x.zip_map(&skip, |main, skip| P::RESIDUAL_RELU.apply(main + skip)))
}

/// Runs `stages` on `input` and returns the output in NCHW.
fn run_plan<P: Precision>(stages: &[Stage<P>], input: Map) -> Result<Tensor, ShapeError> {
    Ok(run_chain(stages, input)?.into_nchw())
}

/// The conv that reads a plan's input: its first stage, or the first stage
/// of the main branch of a leading residual block.
fn leading_conv<P: Precision>(stages: &[Stage<P>]) -> Option<&P::Conv> {
    let first = match stages.first()? {
        Stage::Residual { main, .. } => main.first()?,
        first => first,
    };
    match first {
        Stage::Conv(conv) => Some(conv),
        _ => None,
    }
}

/// Runs every plan on the one NCHW `input`, in parallel, answers in plan
/// order.
///
/// When all plans lead with convs of one geometry over one channel count —
/// an ensemble's bodies do, by construction — the input is validated and
/// lowered **once** and every leading conv multiplies from a borrow of that
/// lowering (the zero-haloed copy, `f32` or int8): its own product with its
/// own weights, so each answer is bit-identical to `run` on that plan. The
/// lowering is freed before the rest of the bodies run so that N bodies
/// never hold it next to their own second-layer lowerings. Anything else
/// (one plan, a leading stage that is not a conv, bodies that disagree) is
/// the independent `run` per plan.
fn run_ensemble<P: Precision>(
    plans: &[&[Stage<P>]],
    input: &Tensor,
) -> Result<Vec<Tensor>, ShapeError> {
    let input = Map::in_order(Cow::Borrowed(input))?;
    let shared = || {
        let convs: Vec<&P::Conv> = plans
            .iter()
            .map(|stages| leading_conv(stages))
            .collect::<Option<_>>()?;
        let same = convs.len() > 1 && convs.iter().all(|conv| conv.key() == convs[0].key());
        same.then_some(convs)
    };
    let Some(convs) = shared() else {
        return par_map(plans, |stages| run_plan(stages, input.view()))
            .into_iter()
            .collect();
    };
    let lowered = convs[0].lower(&input)?;
    let led = par_map(&convs, |conv| conv.finish(&lowered));
    drop(lowered);
    let led = led.into_iter().collect::<Result<Vec<_>, _>>()?;
    let rest: Vec<(&[Stage<P>], Map)> = plans.iter().copied().zip(led).collect();
    par_map(&rest, |(stages, led)| {
        let (head, tail) = stages.split_first().expect("a leading conv has a stage");
        match head {
            Stage::Residual { main, shortcut } => {
                let x = run_chain(&main[1..], led.view())?;
                run_plan(tail, merge_residual(&x, shortcut.as_deref(), &input)?)
            }
            _ => run_plan(tail, led.view()),
        }
    })
    .into_iter()
    .collect()
}

// ---------------------------------------------------------------------------
// f32: the eager layers' own forwards
// ---------------------------------------------------------------------------

/// The `f32` plan.
#[derive(Debug, Clone)]
struct F32;

impl Precision for F32 {
    type Conv = ConvStage;
    const RESIDUAL_RELU: ReluForm = ReluForm::Mask;

    fn conv(conv: &Conv2d, pass: OutputPass) -> ConvStage {
        ConvStage {
            conv: conv.frozen(),
            pass,
        }
    }
}

/// A [`Conv2d`] and the [`OutputPass`] its forward is handed: the conv's
/// own lowering, product and bias, with the plan's fusions after them.
#[derive(Debug, Clone)]
struct ConvStage {
    conv: Conv2d,
    pass: OutputPass,
}

impl LoweredConv for ConvStage {
    type Lowered<'a> = Lowered<'a>;

    fn key(&self) -> (Conv2dGeometry, usize, Option<usize>) {
        (
            self.conv.geometry(),
            self.conv.in_channels(),
            self.pass.pool,
        )
    }

    fn lower<'a>(&self, input: &'a Map<'_>) -> Result<Lowered<'a>, ShapeError> {
        match input.nchw() {
            Cow::Borrowed(input) => self.conv.lower_input(input, &self.pass),
            Cow::Owned(_) => unreachable!("only an int8 conv writes a map out of NCHW order"),
        }
    }

    fn finish(&self, lowered: &Lowered) -> Result<Map<'static>, ShapeError> {
        Map::output(self.conv.finish(lowered, &self.pass))
    }
}

/// A fused `f32` execution plan, compiled once per pipeline and shared
/// (immutably) across request threads.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    stages: Vec<Stage<F32>>,
}

impl CompiledPlan {
    /// Lowers `net` to the graph IR and returns the fused executable plan.
    pub fn compile(net: &Sequential, _fusion: FusionConfig) -> Self {
        Self {
            stages: build_stages(&lower_sequential(net), false),
        }
    }

    /// Runs the plan on an input batch (inference semantics).
    ///
    /// Returns a [`ShapeError`] — never panics — when the input shape does
    /// not fit the pipeline's typed stages.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, ShapeError> {
        run_plan(&self.stages, Map::in_order(Cow::Borrowed(input))?)
    }

    /// Runs every plan of an ensemble on the one input they share, in
    /// parallel, and returns their outputs in plan order — each bit-identical
    /// to [`run`](Self::run) on that plan, and the first failing plan's
    /// [`ShapeError`] if any fails.
    ///
    /// Same-shape bodies (plans whose leading convs agree on geometry and
    /// input channels) have the input validated and lowered to one
    /// zero-haloed copy ([`ensembler_tensor::Halo`]) once, and each body's
    /// first product reads that copy in place; any other set of plans is run
    /// independently.
    pub fn run_all(plans: &[CompiledPlan], input: &Tensor) -> Result<Vec<Tensor>, ShapeError> {
        let plans: Vec<_> = plans.iter().map(|plan| plan.stages.as_slice()).collect();
        run_ensemble(&plans, input)
    }

    /// Number of top-level stages after fusion (a fused conv+relu counts
    /// once).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }
}

// ---------------------------------------------------------------------------
// int8 kernels
// ---------------------------------------------------------------------------

/// The int8 plan: weights quantized once at compile time, activations per
/// sample.
#[derive(Debug, Clone)]
struct Int8;

impl Precision for Int8 {
    type Conv = QConvStage;
    const RESIDUAL_RELU: ReluForm = ReluForm::Max;

    fn conv(conv: &Conv2d, pass: OutputPass) -> QConvStage {
        let q = QConv2d::from_conv(conv);
        let geometry = q.geometry();
        QConvStage {
            weights: QPanels::conv(
                q.weight_t(),
                q.in_channels(),
                geometry.kernel,
                q.out_channels(),
            ),
            weight_scale: q.weight_scale(),
            epilogue: pass.pixel_epilogue(q.bias().data()),
            geometry,
            in_channels: q.in_channels(),
            pass,
        }
    }
}

/// Int8 convolution: its input, in whichever layout it lies, quantized per
/// sample straight into the zero-haloed copy its product reads
/// ([`QHalo::quantize`]), and the dequantize and bias, then its
/// [`OutputPass`], applied to each band of `i32` accumulators while it is
/// cache-hot ([`OutputPass::pixel_epilogue`], through [`qconv_map`]), a
/// pool window after that ([`OutputPass::pool_pixels`]) — the eager
/// pipeline's per-element expressions, no pass over memory of their own
/// (but a pool's), no `i32` product the size of the output, and no
/// transpose on either side: the map it writes is pixel-major, the order of
/// its product rows.
///
/// The weights are those [`QConv2d::from_conv`] quantizes, reordered to the
/// halo's `(ky, kx, c)` order and packed into the host kernel's quad panels,
/// with the correction for the halo's +128 shift, once, here. Integer
/// accumulation is exact, so that order changes no bit.
#[derive(Debug, Clone)]
struct QConvStage {
    weights: QPanels,
    weight_scale: f32,
    /// The output pass up to its pool, with the bias, built once here.
    epilogue: PixelEpilogue,
    geometry: Conv2dGeometry,
    in_channels: usize,
    pass: OutputPass,
}

/// An input batch quantized per sample and lowered, as one zero-haloed
/// copy, for a conv's int8 product.
struct QLowered {
    halo: QHalo,
    /// The per-sample activation scales of the quantization.
    scales: Vec<f32>,
    b: usize,
    oh: usize,
    ow: usize,
}

impl LoweredConv for QConvStage {
    type Lowered<'a> = QLowered;

    fn key(&self) -> (Conv2dGeometry, usize, Option<usize>) {
        (self.geometry, self.in_channels, self.pass.pool)
    }

    fn lower(&self, input: &Map) -> Result<QLowered, ShapeError> {
        let (geometry, in_channels, _) = self.key();
        let out_channels = self.weights.cols();
        let shape = input.shape();
        let (b, oh, ow) = check_conv_input(shape, in_channels, out_channels, geometry, "q_conv")?;
        self.pass.check(oh, ow)?;
        let dims = [b, in_channels, shape[2], shape[3]];
        let data = input.values.data();
        let (halo, scales) = QHalo::quantize(data, input.layout, dims, geometry);
        Ok(QLowered {
            halo,
            scales,
            b,
            oh,
            ow,
        })
    }

    fn finish(&self, lowered: &QLowered) -> Result<Map<'static>, ShapeError> {
        let &QLowered { b, oh, ow, .. } = lowered;
        let c = self.weights.cols();
        let rescales: Vec<f32> = lowered
            .scales
            .iter()
            .map(|scale| scale * self.weight_scale)
            .collect();
        let map = qconv_map(&lowered.halo, &self.weights, |row0, acc, out| {
            self.epilogue.write(oh * ow, &rescales, row0, acc, out);
        });
        let k = self.pass.pool.unwrap_or(1);
        let (ph, pw) = (oh / k, ow / k);
        let values = self.pass.pool_pixels(map, [b, c, oh, ow]);
        Ok(Map {
            values: Cow::Owned(
                Tensor::from_vec(values, &[b, c, ph, pw]).expect("sized to the map"),
            ),
            layout: Layout::pixel_major(c, ph * pw),
        })
    }
}

/// A fused int8 execution plan: the quantized counterpart of
/// [`CompiledPlan`], with weights quantized once at compile time and the
/// dequantize kept in the GEMM epilogue.
#[derive(Debug, Clone)]
pub struct QCompiledPlan {
    stages: Vec<Stage<Int8>>,
}

impl QCompiledPlan {
    /// Lowers `net` to the graph IR and quantizes its convs' weights into
    /// fused int8 stages; every other stage runs at `f32`.
    pub fn compile(net: &Sequential, _fusion: FusionConfig) -> Self {
        Self {
            stages: build_stages(&lower_sequential(net), false),
        }
    }

    /// Runs the plan on an input batch (inference semantics).
    ///
    /// Returns a [`ShapeError`] — never panics — when the input shape does
    /// not fit the pipeline's typed stages.
    pub fn run(&self, input: &Tensor) -> Result<Tensor, ShapeError> {
        run_plan(&self.stages, Map::in_order(Cow::Borrowed(input))?)
    }

    /// The int8 counterpart of [`CompiledPlan::run_all`]: same-shape bodies
    /// share one per-sample quantization of the NCHW input and one
    /// zero-haloed copy ([`QHalo`]) of it, and each answer is bit-identical
    /// to [`run`](Self::run) on that plan.
    pub fn run_all(plans: &[QCompiledPlan], input: &Tensor) -> Result<Vec<Tensor>, ShapeError> {
        let plans: Vec<_> = plans.iter().map(|plan| plan.stages.as_slice()).collect();
        run_ensemble(&plans, input)
    }

    /// Number of top-level stages after fusion.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_body, build_head, ResNetConfig};
    use crate::quant::QSequential;
    use crate::{Flatten, GlobalAvgPool, MaxPool2d, Relu, ResidualBlock, Tanh};
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

    fn compile(net: &Sequential) -> CompiledPlan {
        CompiledPlan::compile(net, FusionConfig)
    }

    fn qcompile(net: &Sequential) -> QCompiledPlan {
        QCompiledPlan::compile(net, FusionConfig)
    }

    #[test]
    fn bit_exact_plan_matches_eager_forward_exactly() {
        let mut rng = Rng::seed_from(0);
        let net = small_net(&mut rng);
        let x = Tensor::from_fn(&[3, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        assert_eq!(compile(&net).run(&x).unwrap(), net.forward(&x, Mode::Eval));
    }

    #[test]
    fn fusion_merges_conv_relu_pairs() {
        let mut rng = Rng::seed_from(1);
        let net = small_net(&mut rng);
        // conv+relu+max-pool merge into one stage; everything else stays.
        assert_eq!(compile(&net).stage_count(), 5);
    }

    #[test]
    fn fusion_merges_conv_bn_relu_triples_bit_exactly() {
        // A conv -> bn -> relu chain collapses into ONE stage (the bn is
        // merged into the conv output pass) and still reproduces eager
        // bit-for-bit.
        let mut rng = Rng::seed_from(9);
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Relu::new()),
        ]);
        // Non-trivial running stats, so the merged bn is not an identity.
        let warm = Tensor::from_fn(&[4, 3, 8, 8], |_| rng.normal_with(0.4, 1.3));
        let _ = net.forward_cached(&warm, Mode::Train);
        let fused = compile(&net);
        assert_eq!(fused.stage_count(), 1);
        let x = Tensor::from_fn(&[2, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        assert_eq!(fused.run(&x).unwrap(), net.forward(&x, Mode::Eval));
        // Same for the quantized plan vs the eager quantized pipeline.
        let qfused = qcompile(&net);
        assert_eq!(qfused.stage_count(), 1);
        assert_eq!(
            qfused.run(&x).unwrap(),
            QSequential::from_sequential(&net).forward(&x)
        );
    }

    #[test]
    fn a_plan_compiled_after_training_holds_no_cache_or_gradient() {
        // A Mode::Train forward and a backward fill every layer's cache and
        // gradient buffers; the plan compiled afterwards keeps the weights
        // and running statistics only, in a merged and a standalone batch
        // norm, inside a residual block, and in its conv and linear stages.
        fn check(stages: &[Stage<F32>], norms: &mut usize) {
            for stage in stages {
                let params = match stage {
                    Stage::Conv(stage) => {
                        if let Some(bn) = &stage.pass.bn {
                            *norms += 1;
                            assert!(!bn.holds_training_state());
                        }
                        stage.conv.params()
                    }
                    Stage::BatchNorm(bn) => {
                        *norms += 1;
                        assert!(!bn.holds_training_state());
                        bn.params()
                    }
                    Stage::Linear { linear, .. } => linear.params(),
                    Stage::Residual { main, shortcut } => {
                        check(main, norms);
                        check(shortcut.as_deref().unwrap_or_default(), norms);
                        Vec::new()
                    }
                    _ => Vec::new(),
                };
                assert!(params.iter().all(|p| p.grad.is_empty()));
            }
        }
        let mut rng = Rng::seed_from(23);
        let mut net = Sequential::new(vec![
            Box::new(BatchNorm2d::new(3)),
            Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(8)),
            Box::new(Relu::new()),
            Box::new(ResidualBlock::new(8, 16, 2, &mut rng)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(16, 5, &mut rng)),
        ]);
        let x = Tensor::from_fn(&[4, 3, 8, 8], |_| rng.normal_with(0.4, 1.3));
        let y = net.forward_cached(&x, Mode::Train);
        let _ = net.backward(&Tensor::ones(y.shape()));
        assert!(net.params().iter().all(|p| !p.grad.is_empty()));
        let mut norms = 0;
        check(&compile(&net).stages, &mut norms);
        assert_eq!(
            norms, 5,
            "standalone, merged, and the residual block's three"
        );
    }

    #[test]
    fn standalone_batch_norm_and_relu_stages_match_both_eager_pipelines() {
        // No backbone has a batch norm that does not follow a same-width
        // conv, or a ReLU that follows neither a conv nor a linear: this net
        // is where those stages run on their own.
        let mut rng = Rng::seed_from(17);
        let mut net = Sequential::new(vec![
            Box::new(BatchNorm2d::new(3)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(3, 8, 3, 1, 1, &mut rng)),
            Box::new(MaxPool2d::new(2)),
            Box::new(Relu::new()),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(8, 5, &mut rng)),
        ]);
        let warm = Tensor::from_fn(&[4, 3, 8, 8], |_| rng.normal_with(0.4, 1.3));
        let _ = net.forward_cached(&warm, Mode::Train);
        let plan = compile(&net);
        let qplan = qcompile(&net);
        // Only the max-pool fuses, into the conv it follows: every other
        // layer is a stage of its own.
        assert_eq!(plan.stage_count(), 7);
        assert_eq!(qplan.stage_count(), 7);

        let x = Tensor::from_fn(&[3, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        assert_eq!(plan.run(&x).unwrap(), net.forward(&x, Mode::Eval));
        assert_eq!(
            qplan.run(&x).unwrap(),
            QSequential::from_sequential(&net).forward(&x)
        );

        let bad = Tensor::ones(&[2, 5, 8, 8]);
        for err in [plan.run(&bad).unwrap_err(), qplan.run(&bad).unwrap_err()] {
            assert_eq!(err.message(), "batch_norm expected 3 channels, got 5");
        }
    }

    /// The shape and the bits of `t`, so that NaN equals NaN and `-0.0`
    /// differs from `+0.0`.
    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (
            t.shape().to_vec(),
            t.data().iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn a_folded_or_standalone_max_pool_matches_both_eager_pipelines_bit_for_bit() {
        // Windows 1-3 over a 6x12 map (pooled rows of 12, 6 and 4 positions:
        // whole tiles and ragged tails), 5 output channels (one group side
        // by side plus one alone), a conv with and without a merged batch
        // norm and ReLU, batches 0, 1 and 3, and inputs holding NaN, ±inf
        // and ±0 among the finite values.
        let mut rng = Rng::seed_from(23);
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let mut input = |b: usize| {
            Tensor::from_fn(&[b, 3, 6, 12], |i| {
                if i % 11 == 3 {
                    special[i / 11 % special.len()]
                } else {
                    rng.uniform(-1.0, 1.0)
                }
            })
        };
        let inputs = [input(0), input(1), input(3)];
        let mut rng = Rng::seed_from(24);
        for window in [1, 2, 3] {
            for (bn, relu) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut layers: Vec<Box<dyn Layer>> =
                    vec![Box::new(Conv2d::new(3, 5, 3, 1, 1, &mut rng))];
                if bn {
                    layers.push(Box::new(BatchNorm2d::new(5)));
                }
                if relu {
                    layers.push(Box::new(Relu::new()));
                }
                layers.push(Box::new(MaxPool2d::new(window)));
                let mut folded = Sequential::new(layers);
                let warm = Tensor::from_fn(&[4, 3, 6, 12], |_| rng.normal_with(0.4, 1.3));
                let _ = folded.forward_cached(&warm, Mode::Train);
                // A pool that follows no conv stays a stage of its own.
                let standalone = Sequential::new(vec![
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(window)),
                ]);
                assert_eq!(compile(&folded).stage_count(), 1);
                assert_eq!(compile(&standalone).stage_count(), 2);
                for net in [&folded, &standalone] {
                    let (plan, qplan) = (compile(net), qcompile(net));
                    let qnet = QSequential::from_sequential(net);
                    for x in &inputs {
                        let what = format!("window {window} bn {bn} relu {relu} {:?}", x.shape());
                        let want = net.forward(x, Mode::Eval);
                        assert_eq!(bits(&plan.run(x).unwrap()), bits(&want), "{what}");
                        let want = qnet.forward(x);
                        assert_eq!(bits(&qplan.run(x).unwrap()), bits(&want), "int8 {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn int8_stages_without_a_pixel_major_form_convert_around_themselves_bit_for_bit() {
        // An int8 conv writes a pixel-major map; a standalone batch norm
        // and an opaque layer (Tanh) run on it gathered to NCHW, a ReLU and
        // a max-pool read it through its strides, a flatten of a map with
        // spatial extent gathers it first, a plan ending on a conv returns
        // its map in NCHW, and a linear after a global average pool runs at
        // f32 on the int8 features. Each equals QSequential through `run`
        // and, with a second plan of the same shapes, `run_all`.
        let layers = |rng: &mut Rng, between: usize| -> Sequential {
            let mut layers: Vec<Box<dyn Layer>> = vec![
                Box::new(Conv2d::new(3, 8, 3, 1, 1, rng)),
                Box::new(Relu::new()),
            ];
            match between {
                0 => layers.push(Box::new(BatchNorm2d::new(8))),
                1 => layers.extend([
                    Box::new(Relu::new()) as Box<dyn Layer>,
                    Box::new(MaxPool2d::new(2)),
                ]),
                2 => layers.push(Box::new(Tanh::new())),
                _ => {}
            }
            layers.push(Box::new(Conv2d::new(8, 5, 3, 2, 1, rng)));
            if between == 4 {
                layers.extend([
                    Box::new(Flatten::new()) as Box<dyn Layer>,
                    Box::new(Linear::new(5 * 4 * 4, 3, rng)),
                ]);
            }
            if between == 5 {
                layers.extend([
                    Box::new(GlobalAvgPool::new()) as Box<dyn Layer>,
                    Box::new(Flatten::new()),
                    Box::new(Linear::new(5, 3, rng)),
                    Box::new(Relu::new()),
                ]);
            }
            let mut net = Sequential::new(layers);
            let warm = Tensor::from_fn(&[4, 3, 8, 8], |_| rng.normal_with(0.4, 1.3));
            let _ = net.forward_cached(&warm, Mode::Train);
            net
        };
        let mut rng = Rng::seed_from(29);
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let x = Tensor::from_fn(&[3, 3, 8, 8], |i| {
            if i % 17 == 5 {
                special[i / 17 % special.len()]
            } else {
                rng.uniform(-1.0, 1.0)
            }
        });
        // Between: batch norm, ReLU + max-pool, Tanh, nothing (the plan ends
        // on the conv's map), nothing before a flatten + linear, nothing
        // before a global average pool, flatten, linear and ReLU.
        for between in 0..6 {
            let nets = [layers(&mut rng, between), layers(&mut rng, between)];
            let plans: Vec<_> = nets.iter().map(qcompile).collect();
            let want: Vec<_> = nets
                .iter()
                .map(|net| bits(&QSequential::from_sequential(net).forward(&x)))
                .collect();
            let alone: Vec<_> = plans
                .iter()
                .map(|plan| bits(&plan.run(&x).unwrap()))
                .collect();
            assert_eq!(alone, want, "run, layer set {between}");
            let all = QCompiledPlan::run_all(&plans, &x).unwrap();
            let all: Vec<_> = all.iter().map(bits).collect();
            assert_eq!(all, want, "run_all, layer set {between}");
            if between == 5 {
                // The logits are the f32 linear (and ReLU) of the features
                // the int8 convs and the pool produce, bit for bit.
                for (net, got) in nets.iter().zip(&alone) {
                    let ops = lower_sequential(net);
                    let GraphOp::Linear(linear) = &ops[ops.len() - 2] else {
                        panic!("the net ends linear, relu");
                    };
                    let prefix = Sequential::new(net.layers()[..net.len() - 2].to_vec());
                    let features = QSequential::from_sequential(&prefix).forward(&x);
                    let logits = linear.forward(&features, Mode::Eval);
                    assert_eq!(got, &bits(&Relu::new().forward(&logits, Mode::Eval)));
                }
            }
        }
    }

    #[test]
    fn quantized_plan_matches_eager_quantized_forward_exactly() {
        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(4);
        let body = build_body(&config, &mut rng);
        let qbody = QSequential::from_sequential(&body);
        let head = config.head_output_shape();
        let x = Tensor::from_fn(&[3, head[0], head[1], head[2]], |_| rng.uniform(-1.0, 1.0));
        assert_eq!(qcompile(&body).run(&x).unwrap(), qbody.forward(&x));
        // An identity skip of the plan's NCHW input merges into the
        // pixel-major main branch by tiles of 4 channels by 4 pixels: 5
        // channels of 15 pixels leave a channel and 3 pixels to the rest.
        let block = Sequential::new(vec![Box::new(ResidualBlock::new(5, 5, 1, &mut rng))]);
        let x = Tensor::from_fn(&[3, 5, 3, 5], |_| rng.uniform(-1.0, 1.0));
        let want = QSequential::from_sequential(&block).forward(&x);
        assert_eq!(qcompile(&block).run(&x).unwrap(), want);
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
        for (i, nets) in sets.iter().enumerate() {
            let plans: Vec<_> = nets.iter().map(|net| compile(net)).collect();
            let alone: Vec<_> = plans.iter().map(|p| p.run(&x).unwrap()).collect();
            assert_eq!(CompiledPlan::run_all(&plans, &x).unwrap(), alone, "set {i}");
            let qplans: Vec<_> = nets.iter().map(|net| qcompile(net)).collect();
            let alone: Vec<_> = qplans.iter().map(|p| p.run(&x).unwrap()).collect();
            assert_eq!(
                QCompiledPlan::run_all(&qplans, &x).unwrap(),
                alone,
                "int8 set {i}"
            );
        }
        assert!(CompiledPlan::run_all(&[], &x).unwrap().is_empty());
    }

    #[test]
    fn hostile_shapes_return_typed_errors_not_panics() {
        let mut rng = Rng::seed_from(6);
        let net = small_net(&mut rng);
        let plan = compile(&net);
        let qplan = qcompile(&net);
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
        // A map that reaches a linear stage is refused with the shape the
        // caller knows, NCHW, at either precision: the int8 plan's
        // pixel-major interior does not show.
        let unflattened = Sequential::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, &mut rng)),
            Box::new(Linear::new(4, 2, &mut rng)),
        ]);
        let x = Tensor::ones(&[2, 3, 5, 6]);
        let rank4 = "expects [batch, features] input, got rank-4 shape [2, 4, 5, 6]";
        let err = compile(&unflattened).run(&x).unwrap_err();
        assert_eq!(err.message(), format!("linear {rank4}"));
        let qerr = qcompile(&unflattened).run(&x).unwrap_err();
        assert_eq!(qerr.message(), format!("linear {rank4}"));
        // An empty batch keeps its feature count through a flatten: the
        // plans answer `[0, 5]`, as the eager pipeline does.
        let empty = Tensor::zeros(&[0, 3, 8, 8]);
        let want = net.forward(&empty, Mode::Eval);
        assert_eq!(want.shape(), &[0, 5]);
        assert_eq!(plan.run(&empty).unwrap(), want);
        assert_eq!(qplan.run(&empty).unwrap(), want);
        // An empty batch of images whose feature count overflows is
        // constructible, and refused as too large, not a wrapped count.
        let flat = Sequential::new(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(16, 2, &mut rng)),
        ]);
        let x = Tensor::zeros(&[0, 4, 2, 2]);
        assert_eq!(compile(&flat).run(&x).unwrap().shape(), &[0, 2]);
        assert_eq!(qcompile(&flat).run(&x).unwrap().shape(), &[0, 2]);
        let absurd = Tensor::zeros(&[0, 4, usize::MAX, 2]);
        for err in [
            compile(&flat).run(&absurd).unwrap_err(),
            qcompile(&flat).run(&absurd).unwrap_err(),
        ] {
            assert!(err.message().contains("too large"), "{}", err.message());
        }
        // Degenerate but valid shapes on the demo body: an empty batch, and
        // images so small that every conv reads mostly halo and the
        // stride-2 stage leaves a 1x1 map. Both plans answer them exactly.
        let body = build_body(&ResNetConfig::cifar10_like(), &mut rng);
        let (plan, qplan) = (compile(&body), qcompile(&body));
        let qbody = QSequential::from_sequential(&body);
        for shape in [[0, 16, 8, 8], [1, 16, 1, 1], [2, 16, 2, 2]] {
            let x = Tensor::from_fn(&shape, |_| rng.uniform(-1.0, 1.0));
            assert_eq!(
                plan.run(&x).unwrap(),
                body.forward(&x, Mode::Eval),
                "{shape:?}"
            );
            assert_eq!(qplan.run(&x).unwrap(), qbody.forward(&x), "int8 {shape:?}");
        }
        // An empty batch of images too tall to lower holds no data, so it
        // is constructible, but every per-image size of the lowering and of
        // the output overflows: a typed error, not an overflow panic.
        let tall = |c: usize| Tensor::from_vec(vec![], &[0, c, usize::MAX / c, 1]).unwrap();
        let body_input = tall(16);
        let bodies = [plan.clone(), plan.clone()];
        let qbodies = [qplan.clone(), qplan.clone()];
        assert!(plan.run(&body_input).is_err());
        assert!(CompiledPlan::run_all(&bodies, &body_input).is_err());
        assert!(qplan.run(&body_input).is_err());
        assert!(QCompiledPlan::run_all(&qbodies, &body_input).is_err());
        let head = build_head(&ResNetConfig::cifar10_like(), &mut rng);
        let err = compile(&head).run(&tall(3)).unwrap_err();
        assert!(err.message().contains("too large"), "{}", err.message());
        assert!(qcompile(&head).run(&tall(3)).is_err());
        // The int8 copy rounds a pixel's channels up to a multiple of 4, so
        // an empty batch whose images fit with fewer lanes can still be too
        // large for it. Either plan may refuse these shapes, neither panics.
        for c in [1, 2, 5, 6] {
            let x = Tensor::from_vec(vec![], &[0, c, usize::MAX / (c + c % 2 + 1), 1]).unwrap();
            let pointwise = Sequential::new(vec![Box::new(Conv2d::new(c, 1, 1, 1, 0, &mut rng))]);
            let (plan, qplan) = (compile(&pointwise), qcompile(&pointwise));
            let results = [
                plan.run(&x),
                CompiledPlan::run_all(&[plan.clone(), plan], &x).map(|mut all| all.remove(0)),
                qplan.run(&x),
                QCompiledPlan::run_all(&[qplan.clone(), qplan], &x).map(|mut all| all.remove(0)),
            ];
            for result in results {
                if let Err(err) = result {
                    assert!(
                        err.message().contains("too large"),
                        "{c}: {}",
                        err.message()
                    );
                }
            }
        }
        // A pool window that does not divide the conv output it is folded
        // into is refused by the conv's lowering, alone or shared by an
        // ensemble; so is one that does not divide a standalone pool's
        // input.
        let folded = Sequential::new(vec![
            Box::new(Conv2d::new(3, 4, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(3)),
        ]);
        let standalone = Sequential::new(vec![Box::new(MaxPool2d::new(3))]);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        for net in [&folded, &standalone] {
            let (plan, qplan) = (compile(net), qcompile(net));
            let errors = [
                plan.run(&x).unwrap_err(),
                qplan.run(&x).unwrap_err(),
                CompiledPlan::run_all(&[plan.clone(), plan.clone()], &x).unwrap_err(),
                QCompiledPlan::run_all(&[qplan.clone(), qplan], &x).unwrap_err(),
            ];
            for err in errors {
                assert_eq!(
                    err.message(),
                    "max_pool window 3 must divide spatial dims (8x8)"
                );
            }
        }
    }

    #[test]
    fn shape_errors_carry_descriptive_messages() {
        let mut rng = Rng::seed_from(7);
        let net = Sequential::new(vec![Box::new(Conv2d::new(1, 2, 1, 1, 0, &mut rng))]);
        let err = compile(&net).run(&Tensor::ones(&[1, 2, 4, 4])).unwrap_err();
        assert!(
            err.message().contains("expected 1 input channels"),
            "unexpected message: {}",
            err.message()
        );
    }
}
