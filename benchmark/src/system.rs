//! The system under test, assembled from shipped defaults only: the
//! benchmark sets no knob of the program, so a later change that alters a
//! default is measured as the change in behaviour it is.

use ensembler::{Defense, QuantizedDefense};
use ensembler_serve::{demo_pipeline, DefenseServer, RemoteDefense, ServerConfig, ServerStats};
use ensembler_shard::{Placement, RouterConfig, ShardRouter};
use ensembler_tensor::Tensor;
use std::error::Error;
use std::sync::Arc;

/// Server bodies in the demo ensemble.
pub const ENSEMBLE: usize = 4;
/// Bodies the client secretly selects.
const SELECTED: usize = 2;
/// Weight seed of `demo_pipeline` — fixed, not `--seed`: the seed draws
/// inputs, the model stays the same model.
const MODEL_SEED: u64 = 7;

/// How a workload deploys the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// `EnsemblerPipeline::predict` in process, f32.
    InprocF32,
    /// The same pipeline through `QuantizedDefense::quantize`.
    InprocInt8,
    /// One `DefenseServer` on 127.0.0.1, one shared multiplexed
    /// `RemoteDefense`.
    Loopback,
    /// A `ShardRouter` over two `DefenseServer` workers owning bodies `0..2`
    /// and `2..4`.
    Sharded,
}

/// One benchmark workload: a deployment, a request shape and a caller count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// How the pipeline is deployed.
    pub deployment: Deployment,
    /// Images per `predict` call.
    pub batch: usize,
    /// Closed-loop caller threads (never more than the host's 2 cores).
    pub callers: usize,
}

/// The four workloads. Why each exists is recorded in `BENCHMARK.json` and
/// `benchmark/README.md`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc_f32_b32",
        deployment: Deployment::InprocF32,
        batch: 32,
        callers: 1,
    },
    Workload {
        name: "inproc_int8_b32",
        deployment: Deployment::InprocInt8,
        batch: 32,
        callers: 1,
    },
    Workload {
        name: "loopback_f32_b1_c2",
        deployment: Deployment::Loopback,
        batch: 1,
        callers: 2,
    },
    Workload {
        name: "sharded_f32_b32_w2",
        deployment: Deployment::Sharded,
        batch: 32,
        callers: 1,
    },
];

/// A deployed pipeline: the entry point callers `predict` through, plus the
/// concrete pieces the per-layer probes time individually.
pub struct Rig {
    /// The in-process f32 pipeline (the client's local replica in the
    /// networked deployments).
    pub pipeline: Arc<dyn Defense>,
    /// What a caller calls `predict` on.
    pub entry: Arc<dyn Defense>,
    /// The router of a sharded deployment.
    pub router: Option<Arc<ShardRouter>>,
    /// The servers behind `entry`, in body order.
    pub servers: Vec<DefenseServer>,
}

impl Rig {
    /// Builds, binds and connects everything `deployment` needs.
    ///
    /// # Errors
    ///
    /// Returns an error if a server cannot bind or a handshake fails.
    pub fn build(deployment: Deployment) -> Result<Self, Box<dyn Error>> {
        let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(ENSEMBLE, SELECTED, MODEL_SEED)?);
        let bind = || {
            DefenseServer::bind(
                Arc::clone(&pipeline),
                "127.0.0.1:0",
                ServerConfig::default(),
            )
        };
        let mut rig = Rig {
            entry: Arc::clone(&pipeline),
            pipeline: Arc::clone(&pipeline),
            router: None,
            servers: Vec::new(),
        };
        match deployment {
            Deployment::InprocF32 => {}
            Deployment::InprocInt8 => {
                rig.entry = Arc::new(QuantizedDefense::quantize(Arc::clone(&pipeline)));
            }
            Deployment::Loopback => {
                let server = bind()?;
                rig.entry = Arc::new(RemoteDefense::connect(
                    Arc::clone(&pipeline),
                    server.local_addr(),
                )?);
                rig.servers.push(server);
            }
            Deployment::Sharded => {
                let half = ENSEMBLE / 2;
                let mut specs = Vec::new();
                for (lo, hi) in [(0, half), (half, ENSEMBLE)] {
                    let worker = bind()?;
                    specs.push(format!("{}={lo}..{hi}", worker.local_addr()));
                    rig.servers.push(worker);
                }
                let router = Arc::new(ShardRouter::new(
                    Arc::clone(&pipeline),
                    Placement::parse(&specs, ENSEMBLE)?,
                    RouterConfig::default(),
                )?);
                rig.entry = Arc::clone(&router) as Arc<dyn Defense>;
                rig.router = Some(router);
            }
        }
        Ok(rig)
    }

    /// Closes the client side first, then drains and joins every server.
    /// Returns the servers' final counters, in body order.
    pub fn shutdown(self) -> Vec<ServerStats> {
        let Rig {
            pipeline,
            entry,
            router,
            servers,
        } = self;
        drop((entry, router, pipeline));
        servers.into_iter().map(DefenseServer::shutdown).collect()
    }
}

/// Whether two tensors have the same shape and the same `f32` bit patterns —
/// stricter than `==`, which lets `-0.0 == 0.0` through.
pub fn bit_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Reference logits for every pool entry, computed in process by a pipeline
/// built separately from the one being measured (int8 workloads against the
/// in-process `QuantizedDefense`).
///
/// # Errors
///
/// Propagates build and prediction errors.
pub fn reference_logits(
    deployment: Deployment,
    pool: &[Tensor],
) -> Result<Vec<Tensor>, Box<dyn Error>> {
    let reference = Rig::build(match deployment {
        Deployment::InprocInt8 => Deployment::InprocInt8,
        _ => Deployment::InprocF32,
    })?;
    let logits = pool
        .iter()
        .map(|images| reference.entry.predict(images))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(logits)
}
