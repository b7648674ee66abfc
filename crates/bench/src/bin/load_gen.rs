//! Open-loop load generator against a loopback serving deployment:
//! tail-latency (p50/p99/p999) at configurable target request rates, plus
//! connection-churn and admission-overload scenarios, all over one
//! multiplexed protocol-v5 connection.
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
//!   --smoke           tiny run (low rates, few requests) for CI
//!
//! Before any load runs, the harness proves the invariant the numbers rest
//! on: a multiplexed remote `predict` is bit-identical to the in-process
//! pipeline. See `docs/SERVING.md` for how to read the output.

use ensembler::Defense;
use ensembler_bench::load::{run_open_loop, LoadConfig, LoadRequest};
use ensembler_serve::{demo_pipeline, AdmissionConfig, DefenseServer, RemoteDefense, ServerConfig};
use ensembler_tensor::Tensor;
use std::sync::Arc;

/// Builds the per-request closure: one single-image `server_outputs` range
/// exchange (batch 1, so concurrent requests coalesce in the server's
/// engine), shared by every in-flight request on the multiplexed connection.
fn steady_request(remote: Arc<RemoteDefense>, features: Tensor, n: usize) -> LoadRequest {
    Arc::new(move || remote.server_outputs_range(&features, 0, n).map(|_| ()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut qps_points: Vec<f64> = vec![25.0, 100.0];
    let mut requests = 120usize;
    let mut smoke = false;
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
            "--smoke" => smoke = true,
            other => panic!("unknown option {other} (see --qps, --requests, --smoke)"),
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
    let remote = Arc::new(
        RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr()).expect("connect"),
    );
    println!("load_gen: N={n} P={p} server {}", server.local_addr());

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
