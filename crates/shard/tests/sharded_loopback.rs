//! End-to-end scatter-gather tests: real sockets, real workers, real
//! failures — all on loopback in one process.
//!
//! The invariant under test is the tentpole one: a [`ShardRouter`] over any
//! valid placement answers `predict` bit-identically to the single-process
//! pipeline (with int8 shards contributing exactly the int8 pipeline's
//! maps), under concurrent clients, and a worker that dies mid-run comes
//! back via reconnect instead of poisoning the deployment.

use ensembler::{
    Defense, EnsemblerError, Features, Maps, Precision, QuantizedDefense, ServerRequest,
};
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::Sequential;
use ensembler_serve::{demo_pipeline, DefenseServer, RemoteDefense, ServerConfig};
use ensembler_shard::{Placement, RouterConfig, ShardRouter};
use ensembler_tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 23;

fn full_pipeline() -> Arc<dyn Defense> {
    Arc::new(demo_pipeline(4, 2, SEED).expect("demo pipeline"))
}

/// Starts one `f32` worker holding the full checkpoint.
fn worker_f32() -> DefenseServer {
    DefenseServer::bind(full_pipeline(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind worker")
}

/// Starts one int8 worker: the quantized pipeline of the same checkpoint.
fn worker_int8() -> DefenseServer {
    let quantized: Arc<dyn Defense> = Arc::new(QuantizedDefense::quantize(full_pipeline()));
    DefenseServer::bind(quantized, "127.0.0.1:0", ServerConfig::default()).expect("bind worker")
}

/// A router config with hedging off: every test that asserts exact counters
/// or exact failures opts hedges in itself.
fn quiet_config() -> RouterConfig {
    RouterConfig { hedge_after: None }
}

fn random_images(seed: u64) -> Tensor {
    Tensor::from_fn(&[2, 3, 16, 16], |i| {
        ((i as f32 + seed as f32) * 0.013).sin()
    })
}

fn placement(workers: &[(&DefenseServer, usize, usize, bool)]) -> Placement {
    let specs: Vec<String> = workers
        .iter()
        .map(|(server, lo, hi, int8)| {
            format!(
                "{}={lo}..{hi}{}",
                server.local_addr(),
                if *int8 { ",int8" } else { "" }
            )
        })
        .collect();
    Placement::parse(&specs, 4).expect("valid placement")
}

/// The single-process reference for a mixed placement: `f32` indices come
/// from the plain pipeline, int8 indices from the quantized one.
fn mixed_reference(
    pipeline: &Arc<dyn Defense>,
    images: &Tensor,
    int8_ranges: &[(usize, usize)],
) -> Tensor {
    let quantized = QuantizedDefense::quantize(Arc::clone(pipeline));
    let transmitted = pipeline.client_features(images).expect("client features");
    let mut maps = pipeline.server_outputs(&transmitted).expect("f32 maps");
    let qmaps = quantized.server_outputs(&transmitted).expect("int8 maps");
    for &(lo, hi) in int8_ranges {
        maps[lo..hi].clone_from_slice(&qmaps[lo..hi]);
    }
    pipeline.classify(&maps).expect("classify")
}

#[test]
fn two_and_four_worker_f32_placements_are_bit_identical_to_one_process() {
    let pipeline = full_pipeline();
    let images = random_images(1);
    let expected = pipeline.predict(&images).expect("single-process predict");

    let workers: Vec<DefenseServer> = (0..4).map(|_| worker_f32()).collect();
    for ranges in [vec![(0, 2), (2, 4)], vec![(0, 1), (1, 2), (2, 3), (3, 4)]] {
        let specs: Vec<(&DefenseServer, usize, usize, bool)> = ranges
            .iter()
            .enumerate()
            .map(|(k, &(lo, hi))| (&workers[k], lo, hi, false))
            .collect();
        let router = ShardRouter::new(Arc::clone(&pipeline), placement(&specs), quiet_config())
            .expect("router");
        assert_eq!(router.predict(&images).expect("sharded predict"), expected);

        let stats = router.shard_stats();
        assert_eq!(stats.len(), ranges.len());
        for (shard, &(lo, hi)) in stats.iter().zip(&ranges) {
            assert_eq!((shard.lo as usize, shard.hi as usize), (lo, hi));
            assert_eq!(shard.requests, 1, "one range request per worker");
            assert_eq!(shard.hedges_fired, 0);
            assert!(shard.healthy);
        }
    }
}

#[test]
fn mixed_precision_placements_merge_the_expected_maps() {
    let pipeline = full_pipeline();
    let images = random_images(2);
    let f32_worker = worker_f32();
    let int8_worker = worker_int8();

    let router = ShardRouter::new(
        Arc::clone(&pipeline),
        placement(&[(&f32_worker, 0, 2, false), (&int8_worker, 2, 4, true)]),
        quiet_config(),
    )
    .expect("router");

    let expected = mixed_reference(&pipeline, &images, &[(2, 4)]);
    assert_eq!(router.predict(&images).expect("mixed predict"), expected);

    // The merged maps themselves partition per placement precision.
    let transmitted = pipeline.client_features(&images).expect("client features");
    let merged = router.server_outputs(&transmitted).expect("fan-out");
    let quantized = QuantizedDefense::quantize(Arc::clone(&pipeline));
    assert_eq!(
        merged[..2],
        pipeline.server_outputs(&transmitted).expect("f32")[..2]
    );
    assert_eq!(
        merged[2..],
        quantized.server_outputs(&transmitted).expect("int8")[2..]
    );
    assert!(router.shard_stats().iter().all(|s| s.healthy));
}

#[test]
fn a_router_answers_every_request_kind_like_the_pipelines_it_places() {
    // Both payload precisions x full and ranged, through `&dyn Defense`, on
    // an all-f32 and a mixed placement: the router's answer is the placed
    // pipelines' own `serve` of each shard's range, concatenated (and, for a
    // ranged request, sliced).
    let pipeline = full_pipeline();
    let quantized: Arc<dyn Defense> = Arc::new(QuantizedDefense::quantize(Arc::clone(&pipeline)));
    let f32_workers = [worker_f32(), worker_f32()];
    let int8_worker = worker_int8();
    let features = pipeline
        .client_features(&random_images(7))
        .expect("client features");
    let payloads = [
        Features::Int8(ensembler_tensor::QTensorBatch::quantize_batch(&features)),
        Features::F32(features),
    ];
    for int8_tail in [false, true] {
        let (tail_worker, tail_pipeline) = match int8_tail {
            true => (&int8_worker, &quantized),
            false => (&f32_workers[1], &pipeline),
        };
        let shards = [
            (&f32_workers[0], 0, 2, false),
            (tail_worker, 2, 4, int8_tail),
        ];
        let sharded = ShardRouter::new(Arc::clone(&pipeline), placement(&shards), quiet_config())
            .expect("router");
        let router: &dyn Defense = &sharded;
        let requests =
            || -> Vec<u64> { sharded.shard_stats().iter().map(|s| s.requests).collect() };
        for payload in &payloads {
            let shard = |defense: &Arc<dyn Defense>, range| {
                defense
                    .serve(&ServerRequest::ranged(range, payload.clone()))
                    .expect("in-process shard")
            };
            let mut reference = shard(&pipeline, 0..2);
            reference.append(shard(tail_pipeline, 2..4)).unwrap();
            if !int8_tail {
                let full = ServerRequest::full(payload.clone());
                assert_eq!(reference, pipeline.serve(&full).unwrap());
            }
            for range in [None, Some(0..2), Some(1..3), Some(3..4)] {
                let expected = reference.clone().slice(range.clone().unwrap_or(0..4));
                // A shard gets a leg exactly when its placed range meets
                // the request's.
                let (lo, hi) = range.clone().map_or((0, 4), |r| (r.start, r.end));
                let meets = shards.map(|(_, a, b, _)| u64::from(a < hi && lo < b));
                let before = requests();
                let request = ServerRequest {
                    range,
                    features: payload.clone(),
                };
                assert_eq!(
                    router.serve(&request).expect("sharded serve"),
                    expected,
                    "int8 tail {int8_tail} / {:?} / {:?}",
                    payload.precision(),
                    request.range
                );
                let after = requests();
                let sent: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
                assert_eq!(sent, meets, "legs sent for {:?}", request.range);
            }
            let past_the_end = ServerRequest::ranged(2..9, payload.clone());
            assert!(router.serve(&past_the_end).is_err());
        }
    }
}

#[test]
fn concurrent_clients_through_a_router_frontend_stay_bit_identical() {
    let pipeline = full_pipeline();
    let workers = [worker_f32(), worker_int8(), worker_f32(), worker_int8()];
    let router = Arc::new(
        ShardRouter::new(
            Arc::clone(&pipeline),
            placement(&[
                (&workers[0], 0, 1, false),
                (&workers[1], 1, 2, true),
                (&workers[2], 2, 3, false),
                (&workers[3], 3, 4, true),
            ]),
            quiet_config(),
        )
        .expect("router"),
    );
    // The shard_router binary's architecture: the merged pipeline served
    // behind a perfectly ordinary DefenseServer.
    let frontend = DefenseServer::bind(
        Arc::clone(&router) as Arc<dyn Defense>,
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind frontend");
    let frontend_addr = frontend.local_addr();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|client_id| {
                let pipeline = Arc::clone(&pipeline);
                scope.spawn(move || {
                    let remote = RemoteDefense::connect(Arc::clone(&pipeline), frontend_addr)
                        .expect("connect");
                    for round in 0..3u64 {
                        let images = random_images(10 + client_id * 7 + round);
                        let expected = mixed_reference(&pipeline, &images, &[(1, 2), (3, 4)]);
                        assert_eq!(
                            remote.predict(&images).expect("remote sharded predict"),
                            expected,
                            "client {client_id} round {round}"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    let stats = frontend.shutdown();
    assert_eq!(stats.connections_accepted, 4);
    assert_eq!(stats.requests_served, 12);
    let shard_requests: u64 = router.shard_stats().iter().map(|s| s.requests).sum();
    assert_eq!(
        shard_requests,
        4 * 12,
        "every request fanned out to all four workers"
    );
}

#[test]
fn a_killed_worker_is_a_typed_error_and_recovers_via_reconnect() {
    let pipeline = full_pipeline();
    let images = random_images(3);
    let expected = pipeline.predict(&images).expect("single-process predict");

    let stable = worker_f32();
    let doomed = worker_f32();
    let doomed_addr = doomed.local_addr();
    let router = ShardRouter::new(
        Arc::clone(&pipeline),
        placement(&[(&stable, 0, 2, false), (&doomed, 2, 4, false)]),
        quiet_config(),
    )
    .expect("router");
    assert_eq!(router.predict(&images).expect("healthy predict"), expected);

    // Kill the second worker mid-run: the next request must degrade into a
    // typed ShardUnavailable transport error, never a partial merge.
    doomed.shutdown();
    let error = router.predict(&images).expect_err("dead shard must fail");
    match &error {
        EnsemblerError::Transport(message) => {
            assert!(message.contains("unavailable"), "{message}");
            assert!(message.contains("2..4"), "{message}");
        }
        other => panic!("expected a transport error, got {other:?}"),
    }
    let doomed_stats = &router.shard_stats()[1];
    assert!(!doomed_stats.healthy);
    assert!(doomed_stats.health_flaps >= 1);

    // Restart a bit-identical worker on the same address (std listeners set
    // SO_REUSEADDR, so the port is immediately rebindable); the router's
    // on-demand reconnect picks it up once the backoff window passes.
    let _revived = DefenseServer::bind(full_pipeline(), doomed_addr, ServerConfig::default())
        .expect("rebind worker");
    let mut recovered = None;
    for _ in 0..100 {
        match router.predict(&images) {
            Ok(logits) => {
                recovered = Some(logits);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert_eq!(
        recovered.expect("router reconnects after the worker returns"),
        expected
    );
    let doomed_stats = &router.shard_stats()[1];
    assert!(doomed_stats.healthy);
    assert!(doomed_stats.health_flaps >= 2, "down and back up");
}

#[test]
fn a_worker_restarted_while_the_router_is_idle_serves_the_next_request() {
    let pipeline = full_pipeline();
    let a = worker_f32();
    let b = worker_f32();
    let b_addr = b.local_addr();
    let router = ShardRouter::new(
        Arc::clone(&pipeline),
        placement(&[(&a, 0, 2, false), (&b, 2, 4, false)]),
        quiet_config(),
    )
    .expect("router");

    // Worker b goes away and comes back between two requests. Nothing probes
    // it meanwhile, so the router still pools the dead connection.
    b.shutdown();
    let _revived =
        DefenseServer::bind(full_pipeline(), b_addr, ServerConfig::default()).expect("rebind");

    // The first request finds that connection dead, redials once and is
    // answered bit-identically: the caller never sees the restart.
    let images = random_images(4);
    assert_eq!(
        router.predict(&images).expect("predict after the restart"),
        pipeline.predict(&images).expect("reference")
    );
    let b_stats = &router.shard_stats()[1];
    assert!(b_stats.healthy);
    assert!(
        b_stats.health_flaps >= 2,
        "down on the dead link, up on the redial"
    );
}

/// A [`Defense`] that stalls its first `k` range evaluations — the slow
/// (but alive) worker a hedged retry is for.
#[derive(Debug)]
struct StallingDefense {
    inner: Arc<dyn Defense>,
    stalls_left: AtomicU64,
    stall: Duration,
    entered: AtomicBool,
}

impl StallingDefense {
    fn maybe_stall(&self) {
        self.entered.store(true, Ordering::SeqCst);
        if self
            .stalls_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            std::thread::sleep(self.stall);
        }
    }
}

impl Defense for StallingDefense {
    fn config(&self) -> &ResNetConfig {
        self.inner.config()
    }
    fn label(&self) -> &str {
        self.inner.label()
    }
    fn server_bodies(&self) -> &[Sequential] {
        self.inner.server_bodies()
    }
    fn selected_count(&self) -> usize {
        self.inner.selected_count()
    }
    fn precision(&self) -> Precision {
        self.inner.precision()
    }
    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.inner.client_features(images)
    }
    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        if request.range.is_some() {
            self.maybe_stall();
        }
        self.inner.serve(request)
    }
    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.inner.classify(server_maps)
    }
}

#[test]
fn hedged_requests_beat_a_stalled_worker_with_first_response_wins() {
    let pipeline = full_pipeline();
    let images = random_images(5);
    let expected = pipeline.predict(&images).expect("single-process predict");

    let fast = worker_f32();
    // One worker stalls exactly its first range evaluation for far longer
    // than the hedge threshold, so a hedge fires on a fresh connection. It
    // does not win: the duplicate lands in the same worker's engine lane,
    // behind the stalled evaluation, and the primary answers first. What
    // this proves is that a hedge fires, the answer is bit-exact, and the
    // late loser is discarded (the follow-up request gets its own answer).
    let stalling: Arc<dyn Defense> = Arc::new(StallingDefense {
        inner: full_pipeline(),
        stalls_left: AtomicU64::new(1),
        stall: Duration::from_millis(1500),
        entered: AtomicBool::new(false),
    });
    let slow = DefenseServer::bind(stalling, "127.0.0.1:0", ServerConfig::default())
        .expect("bind stalling worker");

    let config = RouterConfig {
        hedge_after: Some(Duration::from_millis(100)),
    };
    let router = ShardRouter::new(
        Arc::clone(&pipeline),
        placement(&[(&fast, 0, 2, false), (&slow, 2, 4, false)]),
        config,
    )
    .expect("router");

    assert_eq!(router.predict(&images).expect("hedged predict"), expected);
    let stats = router.shard_stats();
    assert_eq!(stats[0].hedges_fired, 0, "the fast worker is never hedged");
    assert!(
        stats[1].hedges_fired >= 1,
        "the stalled worker's request was hedged"
    );
    assert!(stats[1].healthy);
    // And the deployment is still fully serviceable afterwards.
    assert_eq!(router.predict(&images).expect("follow-up"), expected);
}

#[test]
fn a_router_refuses_to_start_against_a_dead_or_mismatched_worker() {
    let pipeline = full_pipeline();
    // Dead: nothing listens here (bind-then-drop guarantees a free port).
    let dead_addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    };
    let specs = vec![format!("{dead_addr}=0..4")];
    let err = ShardRouter::new(
        Arc::clone(&pipeline),
        Placement::parse(&specs, 4).expect("placement"),
        quiet_config(),
    )
    .expect_err("dead worker must fail construction");
    assert!(err.to_string().contains("unavailable"), "{err}");

    // Mismatched: the worker serves a different checkpoint (other seed);
    // the handshake's label/N/P cross-check... label and N/P match, but a
    // *precision* mismatch is structural: an f32 placement pointed at an
    // int8 worker fails the label check outright.
    let int8 = worker_int8();
    let specs = vec![format!("{}=0..4", int8.local_addr())];
    let err = ShardRouter::new(
        Arc::clone(&pipeline),
        Placement::parse(&specs, 4).expect("placement"),
        quiet_config(),
    )
    .expect_err("precision mismatch must fail construction");
    assert!(err.to_string().contains("does not match"), "{err}");
}
