//! The traced run: where the time of one `predict` goes, layer by layer.
//!
//! Two parts. First the workload's own requests are replayed with the
//! benchmark calling the three `Defense` stages itself, each inside a span,
//! interleaved one-for-one with untraced `predict` calls on the same inputs —
//! so the staged sum, the untraced whole and the tracing overhead are paired
//! measurements under the same machine noise. Then a fixed suite of probes
//! times each layer's public functions alone (one caller, the real shapes),
//! the same suite on every workload, so a per-layer name means one thing.
//! Every span is recorded here, around a public call; none inside a crate.

use crate::e2e::predict_window;
use crate::inputs::{image_pool, SplitMix64};
use crate::load::{closed_loop, Op};
use crate::report::{obj, Measured, Metric};
use crate::stats::median;
use crate::system::{bit_identical, reference_logits, Deployment, Rig, Workload, ENSEMBLE};
use crate::trace::SpanLog;
use ensembler::{Defense, EngineConfig, EnsemblerError, InferenceEngine};
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::{CompiledPlan, Conv2d, FusionConfig, Layer, Mode, QCompiledPlan};
use ensembler_serve::protocol::{crc32, decode_tagged, encode_tagged};
use ensembler_serve::{Message, RemoteDefense};
use ensembler_tensor::gemm::gemm_nt;
use ensembler_tensor::{
    im2col, im2col_i8, par_map, qgemm_nn, Conv2dGeometry, JsonValue, QTensorBatch, Rng, Tensor,
};
use std::error::Error;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent in the interleaved staged/untraced window.
const STAGED_SHARE: f64 = 0.35;
/// Share of `--seconds` one probe may use before it stops short of
/// `PROBE_CALLS` (the slow, whole-request probes do; the kernels do not).
const PROBE_SHARE: f64 = 0.04;
/// Timed calls per probe when time allows.
const PROBE_CALLS: usize = 200;
/// Timed calls per probe at the very least.
const PROBE_MIN_CALLS: usize = 10;
/// Share of `--seconds` for the two-caller loopback window that feeds the
/// engine-occupancy and server counters.
const COUNTER_SHARE: f64 = 0.05;
/// `ensembler.stages_over_predict` must land here on the in-process
/// workloads (ROADMAP 1c: the parts sum to within 10 % of the whole).
const RECONCILE_RANGE: (f64, f64) = (0.90, 1.10);
/// Staged operations below which the reconciliation is reported but not
/// enforced: a median of a handful of samples (a `--smoke` run) is noise.
const RECONCILE_MIN_SAMPLES: usize = 30;

/// `predict`, with the benchmark calling the three stages itself inside
/// child spans of one root span.
fn staged_predict(
    defense: &dyn Defense,
    images: &Tensor,
    log: &mut SpanLog,
    op: u64,
) -> Result<Tensor, EnsemblerError> {
    let root = log.open("predict", None, Some(op));
    let stages = |log: &mut SpanLog| {
        let at = (Some(root), Some(op));
        let features = log.span("client_features", at.0, at.1, || {
            defense.client_features(images)
        })?;
        let maps = log.span("server_outputs", at.0, at.1, || {
            defense.server_outputs(&features)
        })?;
        log.span("classify", at.0, at.1, || defense.classify(&maps))
    };
    let logits = stages(log);
    log.close(root);
    logits
}

/// Times `f` as parentless spans named `name` and collects the readings.
struct Prober {
    log: SpanLog,
    slice: Duration,
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
}

impl Prober {
    /// Calls each of `calls` in turn, round after round — up to `PROBE_CALLS`
    /// rounds, after three untimed ones — every call a parentless span under
    /// its name. Returns one column of durations (ms) per call, aligned by
    /// round: calls of one round run within milliseconds of each other, so
    /// the difference between two columns is free of the host's slower
    /// drifts, which the difference between two separately taken medians is
    /// not.
    fn interleave(&mut self, calls: &mut [(&'static str, &mut dyn FnMut(usize))]) -> Vec<Vec<f64>> {
        for round in 0..3 {
            for (_, call) in calls.iter_mut() {
                call(round);
            }
        }
        let started = Instant::now();
        let budget = self.slice * calls.len() as u32;
        let mut columns = vec![Vec::new(); calls.len()];
        let mut round = 0;
        while round < PROBE_MIN_CALLS || (round < PROBE_CALLS && started.elapsed() < budget) {
            for ((name, call), column) in calls.iter_mut().zip(&mut columns) {
                let id = self.log.open(name, None, None);
                call(round);
                self.log.close(id);
                column.push(self.log.spans()[id].ms());
            }
            round += 1;
        }
        columns
    }

    /// Median duration (ms) and number of timed calls of `f` alone.
    fn time(&mut self, name: &'static str, mut f: impl FnMut(usize)) -> (f64, usize) {
        let column = self.interleave(&mut [(name, &mut f)]).remove(0);
        (median(&column), column.len())
    }

    /// Times `f` and reports its median under `name` in milliseconds.
    fn ms(&mut self, name: &'static str, f: impl FnMut(usize)) -> f64 {
        let (ms, n) = self.time(name, f);
        self.metrics.push(Metric::of_samples(name, ms, "ms", n));
        ms
    }

    /// Times `f` and reports its median under `name` in microseconds.
    fn us(&mut self, name: &'static str, f: impl FnMut(usize)) {
        let (ms, n) = self.time(name, f);
        self.metrics
            .push(Metric::of_samples(name, ms * 1e3, "us", n));
    }

    /// Times `f` and reports `work / median time` under `name`, `work` being
    /// an operation or byte count computed from the sizes involved.
    fn rate(&mut self, name: &'static str, unit: &'static str, work: f64, f: impl FnMut(usize)) {
        let (ms, n) = self.time(name, f);
        self.metrics
            .push(Metric::of_samples(name, work / (ms * 1e-3), unit, n));
    }

    /// Reports the median of a column [`Prober::interleave`] returned.
    fn column_ms(&mut self, name: &'static str, column: &[f64]) {
        self.metrics
            .push(Metric::of_samples(name, median(column), "ms", column.len()));
    }

    /// Reports the median round-by-round difference `a - b` of two columns.
    fn difference_ms(&mut self, name: &'static str, a: &[f64], b: &[f64]) {
        let differences: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
        self.metrics.push(Metric::of_samples(
            name,
            median(&differences),
            "ms",
            differences.len(),
        ));
    }

    /// Reports a number derived from other readings, or an exact count.
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records one exact-count or bit-exactness check.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Multiply-adds × 2 of the convolutions in one server body at `batch`,
/// computed from the backbone configuration the way `build_body` lays the
/// blocks out (two 3×3 convolutions per block, a strided 1×1 projection
/// where the shape changes). Not measured: counted from sizes.
fn body_conv_flops(config: &ResNetConfig, batch: usize) -> f64 {
    let mut side = config.head_output_shape()[1];
    let mut channels = config.stem_channels;
    let mut macs = 0usize;
    for (stage, &out) in config.stage_channels.iter().enumerate() {
        for block in 0..config.blocks_per_stage {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let out_side = side / stride;
            let positions = batch * out_side * out_side;
            macs += positions * channels * 9 * out + positions * out * 9 * out;
            if stride != 1 || channels != out {
                macs += positions * channels * out;
            }
            side = out_side;
            channels = out;
        }
    }
    2.0 * macs as f64
}

fn random_f32(rng: &mut SplitMix64, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.unit_f32()).collect()
}

fn random_i8(rng: &mut SplitMix64, len: usize) -> Vec<i8> {
    (0..len).map(|_| (rng.next_u64() >> 56) as i8).collect()
}

/// The probe suite's inputs, drawn from the run's seed: batch-32 and
/// single-image pools and the features the client half transmits for them.
struct Inputs {
    images: Vec<Tensor>,
    images_b1: Vec<Tensor>,
    features: Vec<Tensor>,
    features_b1: Vec<Tensor>,
}

/// Call `i`'s input: probes walk their pool like the workloads do.
fn at(pool: &[Tensor], i: usize) -> &Tensor {
    &pool[i % pool.len()]
}

/// `tensor`: the kernels under the body's convolutions, at the body's real
/// shapes (`[32,16,8,8]` features, 3×3 stride-1 pad-1 lowering, and the two
/// GEMM shapes that lowering produces).
fn probe_tensor(p: &mut Prober, features: &[Tensor], rng: &mut SplitMix64) {
    let geom = Conv2dGeometry::new(3, 1, 1);
    let pick = |i: usize| &features[i % features.len()];
    let quantized = QTensorBatch::quantize_batch(pick(0));

    p.ms("tensor.im2col_ms", |i| {
        black_box(im2col(pick(i), geom));
    });
    p.ms("tensor.im2col_i8_ms", |_| {
        black_box(im2col_i8(quantized.data(), 32, 16, 8, 8, geom));
    });
    for (name, qname, m, k, n) in [
        (
            "tensor.gemm_2048x144x16_gflops",
            "tensor.qgemm_2048x144x16_gops",
            2048,
            144,
            16,
        ),
        (
            "tensor.gemm_512x288x32_gflops",
            "tensor.qgemm_512x288x32_gops",
            512,
            288,
            32,
        ),
    ] {
        let giga_ops = 2.0 * (m * k * n) as f64 / 1e9;
        let (a, b) = (random_f32(rng, m * k), random_f32(rng, n * k));
        p.rate(name, "GFLOP/s", giga_ops, |_| {
            black_box(gemm_nt(&a, &b, m, k, n));
        });
        let (a, b) = (random_i8(rng, m * k), random_i8(rng, k * n));
        p.rate(qname, "GOP/s", giga_ops, |_| {
            black_box(qgemm_nn(&a, &b, m, k, n));
        });
    }
    p.ms("tensor.quantize_batch_ms", |i| {
        black_box(QTensorBatch::quantize_batch(pick(i)));
    });
    p.ms("tensor.dequantize_ms", |_| {
        black_box(quantized.dequantize());
    });
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let items = vec![0u8; cores];
    p.us("tensor.par_map_spawn_us", |_| {
        black_box(par_map(&items, |&x| x));
    });
}

/// `nn`: one server body through the compiled plan, the eager forward and
/// the int8 plan; one convolution layer; plan compilation.
fn probe_nn(p: &mut Prober, pipeline: &dyn Defense, features: &[Tensor], features_b1: &[Tensor]) {
    let body = &pipeline.server_bodies()[0];
    let pick = |i: usize| &features[i % features.len()];
    let plan = CompiledPlan::compile(body, FusionConfig::default());
    let qplan = QCompiledPlan::compile(body, FusionConfig::default());

    // Paired round by round, like every `*_overhead_ms`: the ratio sits near
    // 1, where two separately taken medians drift across it.
    let columns = p.interleave(&mut [
        ("nn.body_plan_run_ms", &mut |i| {
            black_box(plan.run(pick(i)).expect("body plan runs"));
        }),
        ("nn.body_eager_ms", &mut |i| {
            black_box(body.forward(pick(i), Mode::Eval));
        }),
    ]);
    let fused_ms = median(&columns[0]);
    p.column_ms("nn.body_plan_run_ms", &columns[0]);
    p.column_ms("nn.body_eager_ms", &columns[1]);
    let ratios: Vec<f64> = columns[1]
        .iter()
        .zip(&columns[0])
        .map(|(e, f)| e / f)
        .collect();
    p.metrics.push(Metric::of_samples(
        "nn.fused_over_eager",
        median(&ratios),
        "ratio",
        ratios.len(),
    ));
    p.ms("nn.qbody_plan_run_ms", |i| {
        black_box(qplan.run(pick(i)).expect("int8 body plan runs"));
    });
    p.ms("nn.body_plan_run_b1_ms", |i| {
        black_box(
            plan.run(&features_b1[i % features_b1.len()])
                .expect("body plan runs"),
        );
    });
    let conv = Conv2d::new(16, 16, 3, 1, 1, &mut Rng::seed_from(1));
    p.rate(
        "nn.conv_layer_gflops",
        "GFLOP/s",
        2.0 * (2048 * 144 * 16) as f64 / 1e9,
        |i| {
            black_box(conv.forward(pick(i), Mode::Eval));
        },
    );
    p.put(
        "nn.body_gflops_effective",
        body_conv_flops(pipeline.config(), 32) / 1e9 / (fused_ms * 1e-3),
        "GFLOP/s",
    );
    p.ms("nn.plan_compile_ms", |_| {
        black_box(CompiledPlan::compile(body, FusionConfig::default()));
    });
}

/// `ensembler`: the three `Defense` stages of the in-process f32 pipeline at
/// batch 32, and what the coalescing engine adds to one single-image call.
fn probe_ensembler(p: &mut Prober, rig: &Rig, inputs: &Inputs) -> Result<(), Box<dyn Error>> {
    let pipeline = &rig.pipeline;
    let maps = pipeline.server_outputs(&inputs.features[0])?;
    p.ms("ensembler.client_features_ms", |i| {
        black_box(pipeline.client_features(at(&inputs.images, i))).expect("client features");
    });
    let outputs_ms = p.ms("ensembler.server_outputs_ms", |i| {
        black_box(pipeline.server_outputs(at(&inputs.features, i))).expect("server outputs");
    });
    p.ms("ensembler.classify_ms", |_| {
        black_box(pipeline.classify(&maps)).expect("classify");
    });
    p.put(
        "ensembler.server_outputs_per_body_ms",
        outputs_ms / ENSEMBLE as f64,
        "ms",
    );
    let engine = InferenceEngine::new(Arc::clone(pipeline), EngineConfig::default())?;
    let columns = p.interleave(&mut [
        ("ensembler.engine_one_ms", &mut |i| {
            black_box(engine.server_outputs_one(at(&inputs.features_b1, i).clone()))
                .expect("engine answers");
        }),
        ("ensembler.server_outputs_b1_ms", &mut |i| {
            black_box(pipeline.server_outputs(at(&inputs.features_b1, i))).expect("server outputs");
        }),
    ]);
    p.column_ms("ensembler.engine_one_ms", &columns[0]);
    p.column_ms("ensembler.server_outputs_b1_ms", &columns[1]);
    p.difference_ms("ensembler.engine_overhead_ms", &columns[0], &columns[1]);
    Ok(())
}

/// `serve`: frame sizes, codec and CRC on the two real frame shapes, the
/// remote `server_outputs` stage at both shapes against its in-process
/// counterpart, connection set-up, and the server's own counters over a
/// two-caller single-image window.
fn probe_serve(p: &mut Prober, inputs: &Inputs, seconds: f64) -> Result<(), Box<dyn Error>> {
    let rig = Rig::build(Deployment::Loopback)?;
    let (remote, pipeline) = (&rig.entry, &rig.pipeline);

    // The loopback workload's frame (one image, all bodies) and the sharded
    // workload's (32 images, one worker's half of the bodies).
    let half = ENSEMBLE / 2;
    let shapes = [
        (
            Message::ServerOutputsRequest {
                transmitted: inputs.features_b1[0].clone(),
            },
            Message::ServerOutputsResponse {
                maps: pipeline.server_outputs(&inputs.features_b1[0])?,
            },
            [
                "serve.request_frame_bytes_b1",
                "serve.response_frame_bytes_b1",
                "serve.encode_request_b1_us",
                "serve.decode_request_b1_us",
                "serve.encode_response_b1_us",
                "serve.decode_response_b1_us",
            ],
        ),
        (
            Message::ServerOutputsRequestRange {
                lo: 0,
                hi: half as u32,
                transmitted: inputs.features[0].clone(),
            },
            Message::ServerOutputsResponse {
                maps: pipeline.server_outputs_range(&inputs.features[0], 0, half)?,
            },
            [
                "serve.request_frame_bytes_b32",
                "serve.response_frame_bytes_b32",
                "serve.encode_request_b32_us",
                "serve.decode_request_b32_us",
                "serve.encode_response_b32_us",
                "serve.decode_response_b32_us",
            ],
        ),
    ];
    let mut big_frame = Vec::new();
    for (request, response, names) in &shapes {
        let request_frame = encode_tagged(request, Some(1));
        let response_frame = encode_tagged(response, Some(1));
        p.put(names[0], request_frame.len() as f64, "B");
        p.put(names[1], response_frame.len() as f64, "B");
        p.us(names[2], |_| {
            black_box(encode_tagged(request, Some(1)));
        });
        p.us(names[3], |_| {
            black_box(decode_tagged(&request_frame)).expect("frame decodes");
        });
        p.us(names[4], |_| {
            black_box(encode_tagged(response, Some(1)));
        });
        p.us(names[5], |_| {
            black_box(decode_tagged(&response_frame)).expect("frame decodes");
        });
        p.check(
            "request frame round-trips",
            decode_tagged(&request_frame).is_ok_and(|t| &t.message == request),
        );
        big_frame = request_frame;
    }
    p.rate(
        "serve.crc32_mb_per_s",
        "MB/s",
        big_frame.len() as f64 / 1e6,
        |_| {
            black_box(crc32(&big_frame));
        },
    );

    p.check(
        "remote b32 maps are bit-identical to in-process",
        same_maps(
            &remote.server_outputs(&inputs.features[0])?,
            &pipeline.server_outputs(&inputs.features[0])?,
        ),
    );
    // What the wire adds: the remote stage against the call the server makes
    // for it — the engine for one image, the pipeline itself for a batch.
    let engine = InferenceEngine::new(Arc::clone(pipeline), EngineConfig::default())?;
    let columns = p.interleave(&mut [
        ("serve.remote_server_outputs_b1_ms", &mut |i| {
            black_box(remote.server_outputs(at(&inputs.features_b1, i))).expect("remote answers");
        }),
        ("ensembler.engine_one_ms", &mut |i| {
            black_box(engine.server_outputs_one(at(&inputs.features_b1, i).clone()))
                .expect("engine answers");
        }),
    ]);
    p.column_ms("serve.remote_server_outputs_b1_ms", &columns[0]);
    p.difference_ms("serve.wire_overhead_b1_ms", &columns[0], &columns[1]);
    let columns = p.interleave(&mut [
        ("serve.remote_server_outputs_b32_ms", &mut |i| {
            black_box(remote.server_outputs(at(&inputs.features, i))).expect("remote answers");
        }),
        ("ensembler.server_outputs_ms", &mut |i| {
            black_box(pipeline.server_outputs(at(&inputs.features, i))).expect("server outputs");
        }),
    ]);
    p.column_ms("serve.remote_server_outputs_b32_ms", &columns[0]);
    p.difference_ms("serve.wire_overhead_b32_ms", &columns[0], &columns[1]);
    let addr = rig.servers[0].local_addr();
    p.ms("serve.connect_ms", |_| {
        black_box(RemoteDefense::connect(Arc::clone(pipeline), addr)).expect("connects");
    });

    // Two callers, single images, through the shared connection: what the
    // engine coalesced and what the server counted, over exactly these
    // requests.
    let refs = reference_logits(Deployment::InprocF32, &inputs.images_b1)?;
    let engine_before = rig.servers[0].engine_stats();
    let server_before = rig.servers[0].stats();
    let window = Duration::from_secs_f64(seconds * COUNTER_SHARE);
    let ops = predict_window(
        &**remote,
        2,
        window,
        Instant::now(),
        &inputs.images_b1,
        &refs,
    );
    let engine_after = rig.servers[0].engine_stats();
    let server_after = rig.servers[0].stats();
    let batches = engine_after.batches_executed - engine_before.batches_executed;
    let coalesced = engine_after.requests_served - engine_before.requests_served;
    p.put(
        "ensembler.engine_batch_occupancy",
        coalesced as f64 / batches.max(1) as f64,
        "req/batch",
    );
    p.put("ensembler.engine_batches", batches as f64, "count");
    let served = server_after.requests_served - server_before.requests_served;
    p.put("serve.requests_served", served as f64, "count");
    p.put(
        "serve.requests_rejected",
        server_after.requests_rejected as f64,
        "count",
    );
    p.put(
        "serve.errors_sent",
        server_after.errors_sent as f64,
        "count",
    );
    p.attempted += ops.len();
    p.failed += ops.iter().filter(|o| !o.ok).count();
    p.check(
        "server served exactly the requests attempted, rejected none, sent no error",
        served as usize == ops.len()
            && coalesced as usize == ops.len()
            && server_after.requests_rejected == 0
            && server_after.errors_sent == 0,
    );
    drop(engine);
    rig.shutdown();
    Ok(())
}

/// `shard`: the router's `server_outputs` against one worker's leg alone and
/// against the whole ensemble in process, and the half-ensemble in process.
fn probe_shard(p: &mut Prober, inputs: &Inputs) -> Result<(), Box<dyn Error>> {
    let rig = Rig::build(Deployment::Sharded)?;
    let router = rig.router.as_ref().expect("sharded rig has a router");
    let pipeline = &rig.pipeline;
    let half = ENSEMBLE / 2;
    let pick = |i: usize| at(&inputs.features, i);

    p.check(
        "sharded maps are bit-identical to in-process",
        same_maps(
            &router.server_outputs(pick(0))?,
            &pipeline.server_outputs(pick(0))?,
        ),
    );
    let requests = || -> u64 { router.shard_stats().iter().map(|s| s.requests).sum() };
    let before = requests();
    let mut operations = 0usize;
    let worker = RemoteDefense::connect(Arc::clone(pipeline), rig.servers[0].local_addr())?;
    let columns = p.interleave(&mut [
        ("shard.router_server_outputs_ms", &mut |i| {
            operations += 1;
            black_box(router.server_outputs(pick(i))).expect("router answers");
        }),
        ("shard.worker_range_ms", &mut |i| {
            black_box(worker.server_outputs_range(pick(i), 0, half)).expect("worker answers");
        }),
        ("ensembler.server_outputs_ms", &mut |i| {
            black_box(pipeline.server_outputs(pick(i))).expect("server outputs");
        }),
    ]);
    drop(worker);
    let per_op = (requests() - before) as f64 / operations as f64;
    p.column_ms("shard.router_server_outputs_ms", &columns[0]);
    p.column_ms("shard.worker_range_ms", &columns[1]);
    p.ms("shard.inproc_range_ms", |i| {
        black_box(pipeline.server_outputs_range(pick(i), 0, half)).expect("range runs");
    });
    p.difference_ms("shard.scatter_overhead_ms", &columns[0], &columns[2]);
    p.difference_ms("shard.gather_over_slowest_ms", &columns[0], &columns[1]);
    let stats = router.shard_stats();
    let hedges: u64 = stats.iter().map(|s| s.hedges_fired).sum();
    let flaps: u64 = stats.iter().map(|s| s.health_flaps).sum();
    p.put("shard.range_requests_per_op", per_op, "count");
    p.put("shard.hedges_fired", hedges as f64, "count");
    p.put("shard.health_flaps", flaps as f64, "count");
    // A hedge is the router doing its job through a host stall, not a wrong
    // answer: it is reported, not failed.
    p.check(
        "two range requests per operation, no health flap",
        per_op == 2.0 && flaps == 0,
    );
    rig.shutdown();
    Ok(())
}

fn same_maps(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bit_identical(x, y))
}

/// One complete traced run of `workload`.
///
/// # Errors
///
/// Returns an error when the system cannot be set up or a stage fails.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Measured, Box<dyn Error>> {
    let pool = image_pool(seed, workload.batch);
    let refs = reference_logits(workload.deployment, &pool)?;
    let rig = Rig::build(workload.deployment)?;
    rig.entry.predict(&pool[0])?; // compile the lazy plans outside the window

    // Interleaved window: operation 2k is an untraced `predict`, operation
    // 2k+1 the staged one on the same input.
    let callers = workload.callers as u64;
    let index =
        |id: u64| ((id / callers / 2 * callers + id % callers) % pool.len() as u64) as usize;
    let entry = &*rig.entry;
    let epoch = Instant::now();
    let per_caller = closed_loop(
        workload.callers,
        Duration::from_secs_f64(seconds * STAGED_SHARE),
        epoch,
        |_| SpanLog::new(epoch),
        |log, id| {
            let images = &pool[index(id)];
            if (id / callers).is_multiple_of(2) {
                entry.predict(images)
            } else {
                staged_predict(entry, images, log, id)
            }
        },
        |id, answer| answer.is_ok_and(|logits| bit_identical(&logits, &refs[index(id)])),
    );
    rig.shutdown();

    let mut log = SpanLog::new(epoch);
    let mut ops: Vec<Op> = Vec::new();
    for (caller_log, caller_ops) in per_caller {
        log.absorb(caller_log);
        ops.extend(caller_ops);
    }
    let untraced: Vec<f64> = ops
        .iter()
        .filter(|o| o.ok && (o.id / callers).is_multiple_of(2))
        .map(Op::ms)
        .collect();
    let staged = log.durations_ms("predict");
    if untraced.is_empty() || staged.is_empty() {
        return Err("the staged window completed no operation".into());
    }
    let untraced_p50 = median(&untraced);
    let staged_p50 = median(&staged);
    let stage = |name: &str| median(&log.durations_ms(name));
    let (features_ms, outputs_ms, classify_ms) = (
        stage("client_features"),
        stage("server_outputs"),
        stage("classify"),
    );
    let stages_over_predict = (features_ms + outputs_ms + classify_ms) / untraced_p50;

    let mut p = Prober {
        log,
        slice: Duration::from_secs_f64(seconds * PROBE_SHARE),
        metrics: Vec::new(),
        attempted: ops.len(),
        failed: ops.iter().filter(|o| !o.ok).count(),
    };
    let n = staged.len();
    p.metrics.extend([
        Metric::of_samples(
            "stage.untraced_predict_p50_ms",
            untraced_p50,
            "ms",
            untraced.len(),
        ),
        Metric::of_samples("stage.predict_ms", staged_p50, "ms", n),
        Metric::of_samples("stage.client_features_ms", features_ms, "ms", n),
        Metric::of_samples("stage.server_outputs_ms", outputs_ms, "ms", n),
        Metric::of_samples("stage.classify_ms", classify_ms, "ms", n),
        Metric::of_samples(
            "stage.predict_self_us",
            median(&p.log.self_times_ms("predict")) * 1e3,
            "us",
            n,
        ),
        Metric::new(
            "ensembler.stages_over_predict",
            stages_over_predict,
            "ratio",
        ),
        Metric::new(
            "trace.overhead_pct",
            (staged_p50 - untraced_p50) / untraced_p50 * 100.0,
            "%",
        ),
    ]);

    // The probe suite: identical on every workload, batch-32 and one-image
    // inputs drawn from the same seed.
    let inproc = Rig::build(Deployment::InprocF32)?;
    let transmit = |images: &[Tensor]| {
        images
            .iter()
            .map(|x| inproc.pipeline.client_features(x))
            .collect::<Result<Vec<_>, _>>()
    };
    let (images, images_b1) = (image_pool(seed, 32), image_pool(seed, 1));
    let inputs = Inputs {
        features: transmit(&images)?,
        features_b1: transmit(&images_b1)?,
        images,
        images_b1,
    };
    probe_tensor(&mut p, &inputs.features, &mut SplitMix64::new(seed));
    probe_nn(
        &mut p,
        &*inproc.pipeline,
        &inputs.features,
        &inputs.features_b1,
    );
    probe_ensembler(&mut p, &inproc, &inputs)?;
    inproc.shutdown();
    probe_serve(&mut p, &inputs, seconds)?;
    probe_shard(&mut p, &inputs)?;

    let gated = matches!(
        workload.deployment,
        Deployment::InprocF32 | Deployment::InprocInt8
    );
    let reconciled = !gated
        || n < RECONCILE_MIN_SAMPLES
        || (RECONCILE_RANGE.0..=RECONCILE_RANGE.1).contains(&stages_over_predict);
    if !reconciled {
        eprintln!(
            "ensembler.stages_over_predict = {stages_over_predict:.3} left {RECONCILE_RANGE:?}: \
             the stages do not sum to the whole"
        );
    }
    let detail = obj(vec![
        (
            "samples",
            JsonValue::Object(
                p.metrics
                    .iter()
                    .filter(|m| m.samples > 0)
                    .map(|m| (m.name.to_string(), JsonValue::Number(m.samples as f64)))
                    .collect(),
            ),
        ),
        ("spans", p.log.to_json()),
    ]);
    Ok(Measured {
        correct: p.failed == 0 && reconciled,
        metrics: p.metrics,
        attempted: p.attempted,
        failed: p.failed,
        detail,
    })
}
