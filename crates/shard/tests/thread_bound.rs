//! The router creates no thread per request: after 50 scatters over two
//! workers — served in this same process, so their side is counted too — the
//! process has exactly the threads it had before them, and while a scatter is
//! in flight it has exactly one more: the caller's.
//!
//! This file holds a single test on purpose: the count is read from
//! `/proc/self/status`, so it must be the only thing running in its process.

#![cfg(target_os = "linux")]

use ensembler::{Defense, EnsemblerError, Maps, ServerRequest};
use ensembler_serve::{demo_pipeline, DefenseServer, ServerConfig};
use ensembler_shard::{Placement, RouterConfig, ShardRouter};
use ensembler_tensor::Tensor;
use std::sync::{Arc, Condvar, Mutex};

/// The workers' defense: a ranged `serve` waits at a gate the test can
/// close, so a scatter can be held provably in flight on both workers.
#[derive(Debug)]
struct GatedDefense {
    inner: Arc<dyn Defense>,
    gate: Arc<(Mutex<Gate>, Condvar)>,
}

#[derive(Debug)]
struct Gate {
    /// Calls that have reached the gate since it was last closed.
    entered: u64,
    open: bool,
}

impl Defense for GatedDefense {
    fn config(&self) -> &ensembler_nn::models::ResNetConfig {
        self.inner.config()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn server_bodies(&self) -> &[ensembler_nn::Sequential] {
        self.inner.server_bodies()
    }

    fn selected_count(&self) -> usize {
        self.inner.selected_count()
    }

    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.inner.client_features(images)
    }

    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        if request.range.is_none() {
            return self.inner.serve(request);
        }
        let (lock, condvar) = &*self.gate;
        let mut gate = lock.lock().unwrap();
        gate.entered += 1;
        condvar.notify_all();
        while !gate.open {
            gate = condvar.wait(gate).unwrap();
        }
        drop(gate);
        self.inner.serve(request)
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.inner.classify(server_maps)
    }
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|line| line.starts_with("Threads:"))
        .expect("/proc/self/status has a Threads line");
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn scatters_cost_no_threads() {
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(4, 2, 29).unwrap());
    let gate = Arc::new((
        Mutex::new(Gate {
            entered: 0,
            open: true,
        }),
        Condvar::new(),
    ));
    let workers: Vec<DefenseServer> = (0..2)
        .map(|_| {
            let gated = Arc::new(GatedDefense {
                inner: Arc::clone(&pipeline),
                gate: Arc::clone(&gate),
            });
            DefenseServer::bind(gated, "127.0.0.1:0", ServerConfig::default()).unwrap()
        })
        .collect();
    let specs = [
        format!("{}=0..2", workers[0].local_addr()),
        format!("{}=2..4", workers[1].local_addr()),
    ];
    let placement = Placement::parse(&specs, 4).unwrap();
    // No hedges: a hedge dials a connection, and a connection does cost its
    // reader and writer.
    let config = RouterConfig { hedge_after: None };
    let router = ShardRouter::new(Arc::clone(&pipeline), placement, config).unwrap();

    let images =
        |seed: usize| Tensor::from_fn(&[2, 3, 16, 16], |i| ((i + 31 * seed) as f32 * 0.013).sin());
    // Warm-up: the tensor pool's helpers and each worker engine's batch lane
    // start on first use.
    assert_eq!(
        router.predict(&images(0)).unwrap(),
        pipeline.predict(&images(0)).unwrap()
    );

    let before = thread_count();
    for seed in 1..=50 {
        let images = images(seed);
        assert_eq!(
            router.predict(&images).unwrap(),
            pipeline.predict(&images).unwrap()
        );
    }
    assert_eq!(thread_count(), before, "50 scatters left threads behind");
    let requests: u64 = router.shard_stats().iter().map(|s| s.requests).sum();
    assert_eq!(requests, 2 * 51, "one range request per worker per scatter");

    // One scatter held in flight on both workers: the only new thread is
    // the caller's own.
    {
        let mut state = gate.0.lock().unwrap();
        state.open = false;
        state.entered = 0;
    }
    let held = images(51);
    std::thread::scope(|scope| {
        let caller = scope.spawn(|| router.predict(&held).unwrap());
        {
            let mut state = gate.0.lock().unwrap();
            while state.entered < 2 {
                state = gate.1.wait(state).unwrap();
            }
        }
        assert_eq!(
            thread_count(),
            before + 1,
            "a scatter in flight must cost no thread beyond its caller"
        );
        gate.0.lock().unwrap().open = true;
        gate.1.notify_all();
        assert_eq!(caller.join().unwrap(), pipeline.predict(&held).unwrap());
    });
}
