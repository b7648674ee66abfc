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
//! max-pool after that; the last conv of a residual block's main branch
//! takes the block's merge too, the skip added after its batch norm and the
//! block's ReLU after that. A max-pool that follows no conv runs the same
//! argmax-free pass as a folded one. And the bodies of an ensemble share one
//! lowering of their common input ([`CompiledPlan::run_all`]). Each fused
//! step performs exactly the eager per-element expression, in the eager
//! order, so a plan is bit-exact with [`Layer::forward`]; plans have no
//! other mode.
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
//! values lies, and the stage that writes a map decides its layout: a conv
//! of either precision writes pixel-major, the order of its product rows,
//! and every other stage NCHW, and every stage reads the layout its input
//! has. A conv's output pass runs on each band of its product rows while it
//! is cache-hot, as the product's epilogue (`f32`:
//! [`ensembler_tensor::gemm::conv_map`], reached through [`Conv2d`]; int8:
//! [`ensembler_tensor::qconv_map`], which dequantizes the band's `i32`
//! accumulators first); only a pool window takes a pass of its own. An
//! `f32` conv lowers its input, the plan's NCHW input or a conv's
//! pixel-major map, into a zero-haloed copy of the same layout
//! ([`ensembler_tensor::Halo`]); an int8 conv quantizes it per sample
//! straight into one ([`ensembler_tensor::QHalo::quantize`]). Either
//! product reads its copy in place, so no pass converts the plan's input,
//! or a map between two convs. A residual block runs its shortcut just
//! before its main branch's last conv, which reads the skip through the
//! skip's layout, so nothing transposes a skip either. The one exception to pixel-major is a conv
//! whose map is the plan's output (the client's head): the plan returns
//! NCHW, so it writes that order in one channel-major pass
//! ([`Conv2d`]'s eager output pass). The max-pool and the global average
//! pool read either layout through its strides, and a stage with only an
//! NCHW form (batch norm, flatten, linear, an opaque layer) has its input
//! gathered to NCHW once; nothing converts back. A plan takes and returns
//! NCHW tensors. No conv of either precision writes a column matrix.
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
    check_conv_input, check_pool, expect_rank4, nchw_pass, Lowered, OutputPass, PixelEpilogue, Skip,
};
use crate::graph::{lower_sequential, GraphOp};
use crate::pool::global_avg_pool;
use crate::quant::QConv2d;
use crate::{BatchNorm2d, Conv2d, Layer, Linear, Mode, Sequential};
use ensembler_tensor::{
    par_map, qconv_map, Conv2dGeometry, Layout, QHalo, QPanels, ShapeError, Tensor,
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

    /// The output pass the stage applies.
    fn pass(&self) -> &OutputPass;

    /// Validates and lowers `input`.
    fn lower<'a>(&self, input: &'a Map<'_>) -> Result<Self::Lowered<'a>, ShapeError>;

    /// The stage's product and output pass, as the map this precision's
    /// conv writes, with `skip` added in the pass if the conv ends a
    /// residual block's main branch ([`OutputPass::skip`]; a typed error if
    /// its shape is not the output's). Reads `lowered`, never changes it.
    fn finish(
        &self,
        lowered: &Self::Lowered<'_>,
        skip: Option<&Map>,
    ) -> Result<Map<'static>, ShapeError>;
}

/// `skip` as a conv of output `dims` and output pass `pass` adds it: the
/// skip exactly when the pass merges one, and a typed error if the skip's
/// shape is not the output's.
fn skip_for<'a>(
    pass: &OutputPass,
    skip: Option<&'a Map>,
    dims: [usize; 4],
) -> Result<Option<Skip<'a>>, ShapeError> {
    assert_eq!(
        pass.skip,
        skip.is_some(),
        "a conv adds a skip exactly when it ends a residual main branch"
    );
    match skip {
        Some(skip) if skip.shape() != dims => Err(disagree(&dims, skip.shape())),
        Some(skip) => Ok(Some(Skip {
            values: skip.values.data(),
            layout: skip.layout,
        })),
        None => Ok(None),
    }
}

/// The error of a residual block whose main branch and shortcut end in
/// maps of different shapes.
fn disagree(main: &[usize], skip: &[usize]) -> ShapeError {
    ShapeError::new(format!(
        "residual branches disagree: main {main:?} vs shortcut {skip:?}"
    ))
}

/// The map of `values`, the pixel-major values of a conv's `[b, c, oh, ow]`
/// output before the pool of `pass`: pooled if the pass has a pool, and
/// pixel-major, the order of the conv's product rows.
fn pixel_map(
    pass: &OutputPass,
    values: Vec<f32>,
    dims @ [b, c, oh, ow]: [usize; 4],
) -> Map<'static> {
    let k = pass.pool.unwrap_or(1);
    let (ph, pw) = (oh / k, ow / k);
    let values = pass.pool_pixels(values, dims);
    Map {
        values: Cow::Owned(Tensor::from_vec(values, &[b, c, ph, pw]).expect("sized to the map")),
        layout: Layout::pixel_major(c, ph * pw),
    }
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
            Stage::Conv(stage) => stage.finish(&stage.lower(input)?, None),
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
                run_residual(main, shortcut.as_deref(), input, None)
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
/// multiply. `merge` says that the ops are a residual block's main branch:
/// a conv that ends it, with nothing fused after its batch norm, takes the
/// block's merge into its output pass ([`OutputPass::skip`]).
fn build_stages<P: Precision>(ops: &[GraphOp], in_residual: bool, merge: bool) -> Vec<Stage<P>> {
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
                let skip = merge && i == ops.len() && !fused_relu && pool.is_none();
                let relu = if skip {
                    Some(P::RESIDUAL_RELU)
                } else {
                    fused_relu.then_some(relu)
                };
                let pass = OutputPass {
                    bn,
                    skip,
                    relu,
                    pool,
                };
                stages.push(Stage::Conv(P::conv(conv, pass)));
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
                main: build_stages(main, true, true),
                shortcut: shortcut.as_ref().map(|s| build_stages(s, true, false)),
            }),
            GraphOp::Sequence(seq) => {
                let last = merge && i + 1 == ops.len();
                stages.extend(build_stages(seq, in_residual, last));
            }
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

/// Runs a residual block on `input`: the main branch up to its last conv,
/// then the shortcut (an identity skip borrows `input`), then that conv,
/// which adds the skip, read through its layout, and applies the block's
/// ReLU in its output pass ([`OutputPass::skip`]). `led` is the output of
/// the main branch's first stage if an ensemble has run it already. A main
/// branch that ends otherwise (no backbone's does) is merged after it, both
/// maps gathered to NCHW.
fn run_residual<'a, P: Precision>(
    main: &[Stage<P>],
    shortcut: Option<&[Stage<P>]>,
    input: &'a Map,
    led: Option<Map<'a>>,
) -> Result<Map<'static>, ShapeError> {
    let skip = || match shortcut {
        Some(stages) => run_chain(stages, input.view()),
        None => Ok(input.view()),
    };
    let (main, x) = match led {
        Some(led) => (&main[1..], led),
        None => (main, input.view()),
    };
    if let Some((Stage::Conv(last), body)) = main.split_last() {
        if last.pass().skip {
            let x = run_chain(body, x)?;
            let lowered = last.lower(&x)?;
            // The shortcut runs only now, so its map is alive for the last
            // conv alone (run before the branch, `inproc_int8_b32` read
            // ≈ 4 % slower than this order).
            return last.finish(&lowered, Some(&skip()?));
        }
    }
    let (x, skip) = (run_chain(main, x)?, skip()?);
    if x.shape() != skip.shape() {
        return Err(disagree(x.shape(), skip.shape()));
    }
    let (x, skip) = (x.nchw(), skip.nchw());
    let values = x.data().iter().zip(skip.data());
    let merged = values.map(|(&main, &skip)| P::RESIDUAL_RELU.apply(main + skip));
    Map::output(Tensor::from_vec(merged.collect(), x.shape()).expect("sized to the map"))
}

/// Runs `stages` on `input` and returns the output in NCHW.
fn run_plan<P: Precision>(stages: &[Stage<P>], input: Map) -> Result<Tensor, ShapeError> {
    Ok(run_chain(stages, input)?.into_nchw())
}

/// The conv that reads a plan's input: its first stage, or the first stage
/// of the main branch of a leading residual block, unless that conv adds
/// the block's skip.
fn leading_conv<P: Precision>(stages: &[Stage<P>]) -> Option<&P::Conv> {
    let first = match stages.first()? {
        Stage::Residual { main, .. } => main.first()?,
        first => first,
    };
    match first {
        Stage::Conv(conv) if !conv.pass().skip => Some(conv),
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
    let led = par_map(&convs, |conv| conv.finish(&lowered, None));
    drop(lowered);
    let led = led.into_iter().collect::<Result<Vec<_>, _>>()?;
    let rest: Vec<(&[Stage<P>], Map)> = plans.iter().copied().zip(led).collect();
    par_map(&rest, |(stages, led)| {
        let (head, tail) = stages.split_first().expect("a leading conv has a stage");
        match head {
            Stage::Residual { main, shortcut } => {
                let led = Some(led.view());
                run_plan(tail, run_residual(main, shortcut.as_deref(), &input, led)?)
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
            epilogue: pass.pixel_epilogue(conv.bias().value.data()),
            pass,
            nchw: false,
        }
    }
}

/// A [`Conv2d`] and the [`OutputPass`] its forward is handed: the conv's
/// own lowering and product, with the bias and the plan's fusions after
/// them. Inside a plan the pass runs on each band of product rows while it
/// is cache-hot ([`Conv2d::finish_pixels`], through
/// [`OutputPass::pixel_epilogue`]), a pool window after that
/// ([`OutputPass::pool_pixels`]), and the map it writes is pixel-major, the
/// order of its product rows — what the next conv's halo copies as it lies.
/// A conv whose map is the plan's output writes it NCHW in one
/// channel-major pass instead ([`Conv2d::finish`], the eager forward's).
#[derive(Debug, Clone)]
struct ConvStage {
    conv: Conv2d,
    pass: OutputPass,
    /// The output pass up to its pool, with the bias, built once here.
    epilogue: PixelEpilogue,
    /// Whether the conv's map is the plan's output, written NCHW.
    nchw: bool,
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

    fn pass(&self) -> &OutputPass {
        &self.pass
    }

    fn lower<'a>(&self, input: &'a Map<'_>) -> Result<Lowered<'a>, ShapeError> {
        self.conv
            .lower_input(&input.values, Some(input.layout), &self.pass)
    }

    fn finish(&self, lowered: &Lowered, skip: Option<&Map>) -> Result<Map<'static>, ShapeError> {
        let dims = [lowered.b, self.conv.out_channels(), lowered.oh, lowered.ow];
        let skip = skip_for(&self.pass, skip, dims)?;
        if self.nchw {
            return Map::output(self.conv.finish(lowered, &self.pass));
        }
        let values = self.conv.finish_pixels(lowered, &self.epilogue, skip);
        Ok(pixel_map(&self.pass, values, dims))
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
        let mut stages: Vec<Stage<F32>> = build_stages(&lower_sequential(net), false, false);
        // The plan returns NCHW, so a conv whose map is its output writes
        // that order straight away (the client's head does).
        if let Some(Stage::Conv(last)) = stages.last_mut() {
            last.nchw = true;
        }
        Self { stages }
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
/// [`OutputPass`] (a residual block's skip included), applied to each band
/// of `i32` accumulators while it is cache-hot
/// ([`OutputPass::pixel_epilogue`], through [`qconv_map`]), a pool window
/// after that ([`OutputPass::pool_pixels`]) — the eager pipeline's
/// per-element expressions, no pass over memory of their own (but a
/// pool's), no `i32` product the size of the output, and no transpose on
/// either side: the map it writes is pixel-major, the order of its product
/// rows.
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

    fn pass(&self) -> &OutputPass {
        &self.pass
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

    fn finish(&self, lowered: &QLowered, skip: Option<&Map>) -> Result<Map<'static>, ShapeError> {
        let &QLowered { b, oh, ow, .. } = lowered;
        let dims = [b, self.weights.cols(), oh, ow];
        let skip = skip_for(&self.pass, skip, dims)?;
        let rescales: Vec<f32> = lowered
            .scales
            .iter()
            .map(|scale| scale * self.weight_scale)
            .collect();
        let values = qconv_map(&lowered.halo, &self.weights, |row0, acc, out| {
            self.epilogue
                .write(oh * ow, &rescales, row0, acc, out, skip);
        });
        Ok(pixel_map(&self.pass, values, dims))
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
            stages: build_stages(&lower_sequential(net), false, false),
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
    use crate::graph::GraphOp;
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

    /// A residual block whose main branch ends in a ReLU, not a conv, as no
    /// backbone builds one: its merge runs after the branch, not in a
    /// conv's output pass. Its eager forward is `relu(relu(conv(x)) + x)`.
    #[derive(Debug, Clone)]
    struct ReluEnded(Conv2d);

    impl Layer for ReluEnded {
        fn forward(&self, input: &Tensor, mode: Mode) -> Tensor {
            let relu = Relu::new();
            let main = relu.forward(&self.0.forward(input, mode), mode);
            relu.forward(&main.add(input), mode)
        }

        fn forward_cached(&mut self, input: &Tensor, mode: Mode) -> Tensor {
            self.forward(input, mode)
        }

        fn backward(&mut self, _: &Tensor) -> Tensor {
            unreachable!("the plan tests run no backward")
        }

        fn clone_layer(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }

        fn name(&self) -> &'static str {
            "relu_ended"
        }

        fn lower(&self) -> GraphOp {
            GraphOp::Residual {
                main: vec![self.0.lower(), GraphOp::Relu],
                shortcut: None,
            }
        }
    }

    /// The bits of `t` with every NaN one value: where two NaNs meet in an
    /// add (a NaN main branch and a NaN skip), IEEE 754 leaves open whose
    /// sign and payload survive, and the compiler may swap the add's
    /// operands, in the eager pipeline as in the plan.
    fn any_nan(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (t.shape().to_vec(), crate::conv::tests::any_nan(t.data()))
    }

    #[test]
    fn plans_keep_maps_pixel_major_and_match_the_eager_pipelines_bit_for_bit() {
        // Every conv inside a plan writes its map pixel-major, with its
        // bias, batch norm, the residual skip and the ReLU applied band by
        // band, and a conv that ends the plan writes NCHW. Each layer set
        // runs through `run`, and through `run_all` with a second net of
        // the same shapes (the shared lowering) and beside the other sets
        // (independent runs), at f32 against `Sequential::forward` and at
        // int8 against `QSequential`. Image 1 of the input holds NaN, ±inf
        // and ±0; the other two are finite, so a value that leaks across
        // images shows. The batch norm that ends each net (the last one of
        // a residual block) holds them too, in a few channels.
        let layers = |rng: &mut Rng, set: usize| -> Sequential {
            let mut layers: Vec<Box<dyn Layer>> = Vec::new();
            match set {
                // An identity skip over the NCHW plan input, ending the plan.
                0 => layers.push(Box::new(ResidualBlock::new(4, 4, 1, rng))),
                // The same, then a strided projection shortcut.
                1 => layers.extend([
                    Box::new(ResidualBlock::new(4, 4, 1, rng)) as Box<dyn Layer>,
                    Box::new(ResidualBlock::new(4, 6, 2, rng)),
                ]),
                // A conv with a merged batch norm and ReLU, a block over its
                // pixel-major map, a standalone batch norm, and a strided
                // conv with a batch norm ending the plan.
                2 => layers.extend([
                    Box::new(Conv2d::new(4, 5, 3, 1, 1, rng)) as Box<dyn Layer>,
                    Box::new(BatchNorm2d::new(5)),
                    Box::new(Relu::new()),
                    Box::new(ResidualBlock::new(5, 5, 1, rng)),
                    Box::new(BatchNorm2d::new(5)),
                    Box::new(Conv2d::new(5, 4, 3, 2, 1, rng)),
                    Box::new(BatchNorm2d::new(4)),
                ]),
                // Tanh between two convs.
                3 => layers.extend([
                    Box::new(Conv2d::new(4, 5, 3, 1, 1, rng)) as Box<dyn Layer>,
                    Box::new(Relu::new()),
                    Box::new(Tanh::new()),
                    Box::new(Conv2d::new(5, 6, 3, 1, 1, rng)),
                    Box::new(BatchNorm2d::new(6)),
                ]),
                // A pool folded into a conv inside the plan, then blocks.
                4 => layers.extend([
                    Box::new(Conv2d::new(4, 6, 3, 1, 1, rng)) as Box<dyn Layer>,
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(2)),
                    Box::new(ResidualBlock::new(6, 6, 1, rng)),
                    Box::new(ResidualBlock::new(6, 5, 2, rng)),
                ]),
                // A projection block, then a flatten of its map and a linear.
                5 => layers.extend([
                    Box::new(ResidualBlock::new(4, 6, 2, rng)) as Box<dyn Layer>,
                    Box::new(Flatten::new()),
                    Box::new(Linear::new(6 * 3 * 3, 5, rng)),
                ]),
                // A block merged after its main branch, then one merged in
                // its last conv's output pass, over the former's map.
                _ => layers.extend([
                    Box::new(ReluEnded(Conv2d::new(4, 4, 3, 1, 1, rng))) as Box<dyn Layer>,
                    Box::new(ResidualBlock::new(4, 4, 1, rng)),
                ]),
            }
            let mut net = Sequential::new(layers);
            let warm = Tensor::from_fn(&[4, 4, 6, 6], |_| rng.normal_with(0.4, 1.3));
            let _ = net.forward_cached(&warm, Mode::Train);
            if set != 5 {
                // The last two parameters are the last batch norm's gamma
                // and beta.
                let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
                let mut params = net.params_mut();
                let n = params.len();
                for (i, v) in params[n - 2].value.data_mut().iter_mut().enumerate() {
                    if i % 3 == 1 {
                        *v = special[(i + set) % special.len()];
                    }
                }
                for (i, v) in params[n - 1].value.data_mut().iter_mut().enumerate() {
                    if i % 2 == 0 {
                        *v = special[(i + set + 2) % special.len()];
                    }
                }
            }
            net
        };
        let mut rng = Rng::seed_from(37);
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let x = Tensor::from_fn(&[3, 4, 6, 6], |i| {
            if i / 144 == 1 && i % 7 == 2 {
                special[i / 7 % special.len()]
            } else {
                rng.uniform(-1.0, 1.0)
            }
        });
        let sets: Vec<[Sequential; 2]> = (0..7)
            .map(|set| [layers(&mut rng, set), layers(&mut rng, set)])
            .collect();
        for (set, nets) in sets.iter().enumerate() {
            let plans: Vec<_> = nets.iter().map(compile).collect();
            let qplans: Vec<_> = nets.iter().map(qcompile).collect();
            let want: Vec<_> = nets
                .iter()
                .map(|net| any_nan(&net.forward(&x, Mode::Eval)))
                .collect();
            let qwant: Vec<_> = nets
                .iter()
                .map(|net| any_nan(&QSequential::from_sequential(net).forward(&x)))
                .collect();
            let alone: Vec<_> = plans
                .iter()
                .map(|plan| any_nan(&plan.run(&x).unwrap()))
                .collect();
            assert_eq!(alone, want, "run, set {set}");
            let all = CompiledPlan::run_all(&plans, &x).unwrap();
            assert_eq!(
                all.iter().map(any_nan).collect::<Vec<_>>(),
                want,
                "run_all, set {set}"
            );
            let alone: Vec<_> = qplans
                .iter()
                .map(|plan| any_nan(&plan.run(&x).unwrap()))
                .collect();
            assert_eq!(alone, qwant, "int8 run, set {set}");
            let all = QCompiledPlan::run_all(&qplans, &x).unwrap();
            assert_eq!(
                all.iter().map(any_nan).collect::<Vec<_>>(),
                qwant,
                "int8 run_all, set {set}"
            );
            // The specials leave finite values to compare: not every value
            // of the output is NaN or infinite.
            let got = plans[0].run(&x).unwrap();
            assert!(got.data().iter().any(|v| v.is_finite()), "set {set}");
        }
        // Every set side by side: leading stages of every kind, unshared.
        let nets: Vec<&Sequential> = sets.iter().map(|nets| &nets[0]).collect();
        let plans: Vec<_> = nets.iter().map(|net| compile(net)).collect();
        let want: Vec<_> = nets
            .iter()
            .map(|net| any_nan(&net.forward(&x, Mode::Eval)))
            .collect();
        let all = CompiledPlan::run_all(&plans, &x).unwrap();
        assert_eq!(
            all.iter().map(any_nan).collect::<Vec<_>>(),
            want,
            "unshared"
        );
        // A conv inside a plan wrote pixel-major, one ending it NCHW.
        let (led, ended) = (compile(&sets[2][0]), compile(&sets[3][0]));
        let Stage::Conv(first) = &led.stages[0] else {
            panic!("set 2 leads with a conv")
        };
        let Some(Stage::Conv(last)) = ended.stages.last() else {
            panic!("set 3 ends with a conv")
        };
        assert!(!first.nchw && last.nchw);
    }

    #[test]
    fn residual_branches_that_disagree_are_a_typed_error_in_either_merge() {
        // A strided main branch over an identity skip: the merge in the
        // last conv's pass and the merge after a ReLU-ended branch both
        // refuse it, at either precision.
        #[derive(Debug, Clone)]
        struct Graph(GraphOp);

        impl Layer for Graph {
            fn forward(&self, _: &Tensor, _: Mode) -> Tensor {
                unreachable!("only compiled")
            }

            fn forward_cached(&mut self, _: &Tensor, _: Mode) -> Tensor {
                unreachable!("only compiled")
            }

            fn backward(&mut self, _: &Tensor) -> Tensor {
                unreachable!("only compiled")
            }

            fn clone_layer(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }

            fn name(&self) -> &'static str {
                "graph"
            }

            fn lower(&self) -> GraphOp {
                self.0.clone()
            }
        }

        let mut rng = Rng::seed_from(41);
        let strided = || Conv2d::new(4, 4, 3, 2, 1, &mut Rng::seed_from(42));
        let merged = GraphOp::Residual {
            main: vec![
                GraphOp::Conv(strided()),
                GraphOp::BatchNorm(BatchNorm2d::new(4)),
            ],
            shortcut: None,
        };
        let x = Tensor::ones(&[2, 4, 6, 6]);
        let want = "residual branches disagree: main [2, 4, 3, 3] vs shortcut [2, 4, 6, 6]";
        let nets = [
            Sequential::new(vec![Box::new(Graph(merged))]),
            Sequential::new(vec![Box::new(ReluEnded(strided()))]),
            Sequential::new(vec![
                Box::new(Conv2d::new(4, 4, 1, 1, 0, &mut rng)),
                Box::new(ReluEnded(strided())),
            ]),
        ];
        for net in &nets {
            assert_eq!(compile(net).run(&x).unwrap_err().message(), want);
            assert_eq!(qcompile(net).run(&x).unwrap_err().message(), want);
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
