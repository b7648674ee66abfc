//! Open-loop load generator against a loopback serving deployment:
//! tail-latency (p50/p99/p999) at configurable target request rates, plus
//! connection-churn and admission-overload scenarios, all over one
//! multiplexed protocol-v5 connection. `--stream` switches to stateful
//! streaming sessions (per-session cadence, jitter and stall accounting) and
//! `--replay` drives the deployment through a committed arrival trace.
//!
//! The server, the client and the load all live in this one process, so the
//! numbers isolate the serving stack (framing, multiplexing, admission,
//! coalescing) from network hardware — the loopback methodology of the
//! benchmark's `loopback_f32_b1_c2` workload, extended from closed-loop
//! medians to open-loop tails.
//!
//! Usage:
//!   cargo run -p ensembler-bench --bin load_gen --release [-- OPTIONS]
//!
//! Options:
//!   --qps LIST        comma-separated target rates (default `25,100`)
//!   --requests N      requests per steady scenario (default `120`)
//!   --stream          streaming sessions instead of the default scenarios
//!   --replay PATH     replay an `ensembler-trace v1` file instead
//!   --cache N         enable the client result cache with capacity N
//!   --smoke           tiny run (low rates, few requests) for CI
//!
//! Before any load runs, the harness proves the invariant the numbers rest
//! on: a multiplexed remote `predict` is bit-identical to the in-process
//! pipeline. See `docs/SERVING.md` for how to read the output.

use ensembler::Defense;
use ensembler_bench::load::{run_open_loop, LoadConfig, LoadRequest};
use ensembler_bench::stream::{run_streaming, StreamConfig};
use ensembler_bench::trace::{run_trace_replay, RequestKind, Trace};
use ensembler_serve::{
    demo_pipeline, AdmissionConfig, DefenseServer, RemoteDefense, ServeError, ServerConfig,
};
use ensembler_tensor::Tensor;
use std::sync::Arc;

/// Builds the per-request closure: one single-image `server_outputs` range
/// exchange (batch 1, so concurrent requests coalesce in the server's
/// engine), shared by every in-flight request on the multiplexed connection.
fn steady_request(remote: Arc<RemoteDefense>, features: Tensor, n: usize) -> LoadRequest {
    Arc::new(move || remote.server_outputs_range(&features, 0, n).map(|_| ()))
}

/// Builds a full predict round trip that keeps rejections typed: the range
/// exchange travels the wire (where `Overloaded` frames surface as
/// `ServeError::Remote`), classification runs locally.
fn predict_request(remote: Arc<RemoteDefense>, features: Tensor, n: usize) -> LoadRequest {
    Arc::new(move || {
        let maps = remote.server_outputs_range(&features, 0, n)?;
        remote
            .classify(&maps)
            .map(|_| ())
            .map_err(ServeError::Defense)
    })
}

/// Prints the client cache counters when the `--cache` flag enabled them.
fn print_cache_stats(remote: &RemoteDefense) {
    if let Some(stats) = remote.cache_stats() {
        println!("  {}", stats.summary());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut qps_points: Vec<f64> = vec![25.0, 100.0];
    let mut requests = 120usize;
    let mut smoke = false;
    let mut stream_mode = false;
    let mut replay_path: Option<String> = None;
    let mut cache_capacity: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--qps" => {
                i += 1;
                qps_points = args
                    .get(i)
                    .expect("--qps needs a comma-separated list")
                    .split(',')
                    .map(|v| v.parse().expect("--qps values must be numbers"))
                    .collect();
            }
            "--requests" => {
                i += 1;
                requests = args
                    .get(i)
                    .expect("--requests needs a number")
                    .parse()
                    .expect("--requests must be a number");
            }
            "--stream" => stream_mode = true,
            "--replay" => {
                i += 1;
                replay_path = Some(args.get(i).expect("--replay needs a path").clone());
            }
            "--cache" => {
                i += 1;
                cache_capacity = Some(
                    args.get(i)
                        .expect("--cache needs a capacity")
                        .parse()
                        .expect("--cache must be a number"),
                );
            }
            "--smoke" => smoke = true,
            other => panic!(
                "unknown option {other} (see --qps, --requests, --stream, --replay, --cache, --smoke)"
            ),
        }
        i += 1;
    }
    if smoke {
        qps_points = vec![10.0, 40.0];
        requests = 20;
    }

    let (n, p) = (4usize, 2usize);
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(n, p, 7).expect("demo pipeline"));
    let server = DefenseServer::bind(
        Arc::clone(&pipeline),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    let mut client =
        RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).expect("connect");
    if let Some(capacity) = cache_capacity {
        client = client.with_result_cache(capacity);
    }
    let remote = Arc::new(client);
    println!(
        "load_gen: N={n} P={p} server {}{}",
        server.local_addr(),
        if cache_capacity.is_some() {
            " (client cache on)"
        } else {
            ""
        }
    );

    // The invariant every number below rests on: the multiplexed remote is
    // bit-identical to the in-process pipeline.
    let image = Tensor::ones(&[1, 3, 16, 16]);
    assert_eq!(
        remote.predict(&image).expect("remote predict"),
        pipeline.predict(&image).expect("in-process predict"),
        "multiplexed remote predict must be bit-identical to in-process"
    );
    println!("  bit-exactness: remote predict == in-process predict");
    let features = pipeline
        .client_features(&image)
        .expect("client features for the load requests");

    if stream_mode {
        let config = if smoke {
            StreamConfig {
                sessions: 3,
                frame_hz: 20.0,
                frames_per_session: 20,
            }
        } else {
            StreamConfig {
                sessions: 8,
                frame_hz: 40.0,
                frames_per_session: 120,
            }
        };
        println!("streaming sessions (one shared multiplexed connection, open-loop per session):");
        let report = run_streaming(
            &|_session| steady_request(Arc::clone(&remote), features.clone(), n),
            &config,
        );
        println!("  {}", report.summary());
        for session in &report.per_session {
            println!(
                "    session {:2}: {:3} ok | p50 {:8.3} ms | max {:8.3} ms | {} stalls | jitter mean {:6.3} ms",
                session.session, session.ok, session.p50_ms, session.max_ms, session.stalls,
                session.jitter_mean_ms
            );
        }
        print_cache_stats(&remote);
        return;
    }

    if let Some(path) = replay_path {
        let trace = match Trace::load(std::path::Path::new(&path)) {
            Ok(trace) => trace,
            Err(e) => {
                eprintln!("load_gen: cannot replay {path}: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "trace replay ({path}: {} arrivals, mean {:.1} qps, peak-1s {:.1} qps):",
            trace.len(),
            trace.mean_qps(),
            trace.peak_qps(std::time::Duration::from_secs(1))
        );
        let outputs = steady_request(Arc::clone(&remote), features.clone(), n);
        let predict = predict_request(Arc::clone(&remote), features.clone(), n);
        let report = run_trace_replay(&trace, |kind| match kind {
            RequestKind::Outputs => Arc::clone(&outputs),
            RequestKind::Predict => Arc::clone(&predict),
        });
        println!("  {}", report.summary());
        for tally in &report.per_kind {
            println!(
                "    {:8}: {:4} issued, {} ok, {} rejected, {} failed",
                tally.kind.as_str(),
                tally.issued,
                tally.ok,
                tally.rejected,
                tally.failed
            );
        }
        print_cache_stats(&remote);
        assert_eq!(
            report.failed, 0,
            "replay against an unloaded loopback server must not fail"
        );
        return;
    }

    println!("steady open-loop (one multiplexed connection, batch-1 requests):");
    for &qps in &qps_points {
        let request = steady_request(Arc::clone(&remote), features.clone(), n);
        let report = run_open_loop(
            &request,
            &LoadConfig {
                target_qps: qps,
                requests,
            },
        );
        println!("  {}", report.summary());
    }

    println!("connection churn (dial + one request + hang up, per request):");
    let churn_addr = server.local_addr();
    let churn_pipeline = Arc::clone(&pipeline);
    let churn_features = features.clone();
    let churn: LoadRequest = Arc::new(move || {
        let conn = RemoteDefense::connect(Arc::clone(&churn_pipeline), churn_addr)?;
        conn.server_outputs_range(&churn_features, 0, n).map(|_| ())
    });
    let churn_report = run_open_loop(
        &churn,
        &LoadConfig {
            target_qps: if smoke { 10.0 } else { 25.0 },
            requests: if smoke { 10 } else { 50 },
        },
    );
    println!("  {}", churn_report.summary());

    println!("overload (per-connection in-flight budget 2, deliberately saturated):");
    let tight = ServerConfig {
        admission: AdmissionConfig {
            max_connection_inflight_requests: 2,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    };
    let overload_server =
        DefenseServer::bind(Arc::clone(&pipeline), "127.0.0.1:0", tight).expect("bind");
    let overload_remote = Arc::new(
        RemoteDefense::connect(Arc::clone(&pipeline), overload_server.local_addr())
            .expect("connect"),
    );
    // Batch-64 requests (~10 ms of server work each) offered faster than
    // two in flight can drain them: saturation by arithmetic, not by any
    // fixed latency in the serving stack.
    let heavy = pipeline
        .client_features(&Tensor::ones(&[64, 3, 16, 16]))
        .expect("client features for the overload requests");
    let overload = steady_request(Arc::clone(&overload_remote), heavy, n);
    let overload_report = run_open_loop(
        &overload,
        &LoadConfig {
            target_qps: if smoke { 500.0 } else { 1000.0 },
            requests: if smoke { 40 } else { 200 },
        },
    );
    println!("  {}", overload_report.summary());
    println!("  {}", overload_report.outcome_line());
    let stats = overload_server.stats();
    println!(
        "  admission: {} served, {} rejected (typed Overloaded), {} in flight after drain",
        stats.requests_served, stats.requests_rejected, stats.inflight_requests
    );
    print_cache_stats(&remote);
    assert_eq!(
        overload_report.failed, 0,
        "rejections must be typed Overloaded frames, never transport failures"
    );
    assert_eq!(
        overload_report.ok + overload_report.rejected,
        overload_report.requests,
        "every request must be answered or typed-rejected"
    );
    assert!(
        overload_report.rejected > 0 && overload_report.ok > 0,
        "the overload scenario must actually shed: {} ok, {} rejected",
        overload_report.ok,
        overload_report.rejected
    );
}
