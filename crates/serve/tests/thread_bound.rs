//! The server creates no thread per request: with 64 tagged requests in
//! flight on one connection — single-sample and pre-batched — the process has
//! exactly the threads it had with one.
//!
//! This file holds a single test on purpose: the count is read from
//! `/proc/self/status`, so it must be the only thing running in its process.

#![cfg(target_os = "linux")]

use ensembler::{Defense, EnsemblerError, Maps, ServerRequest};
use ensembler_serve::protocol::{
    encode_tagged, read_message, read_tagged, write_message, Hello, Message,
    DEFAULT_MAX_PAYLOAD_BYTES, PROTOCOL_VERSION,
};
use ensembler_serve::{demo_pipeline, AdmissionConfig, DefenseServer, ServerConfig};
use ensembler_tensor::{Rng, Tensor};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};

/// `serve` blocks until the test opens the gate, so requests stay
/// provably in flight while the threads are counted.
#[derive(Debug)]
struct GatedDefense {
    inner: Arc<dyn Defense>,
    gate: Arc<(Mutex<Gate>, Condvar)>,
}

#[derive(Debug, Default)]
struct Gate {
    /// Calls that have reached the gate.
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

/// Spins (yielding) until the server reports `n` requests in flight.
fn wait_in_flight(server: &DefenseServer, n: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while server.stats().inflight_requests != n {
        assert!(
            std::time::Instant::now() < deadline,
            "server never reported {n} requests in flight"
        );
        std::thread::yield_now();
    }
}

#[test]
fn sixty_four_requests_in_flight_cost_no_more_threads_than_one() {
    const IN_FLIGHT: u64 = 64;
    let inner: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 811).unwrap());
    let mut rng = Rng::seed_from(812);
    let mut features = |batch: usize| {
        let images = Tensor::from_fn(&[batch, 3, 16, 16], |_| rng.uniform(-1.0, 1.0));
        inner.client_features(&images).unwrap()
    };
    let single = features(1);
    let batch = features(3);
    // The tensor pool starts its helpers on first use; use it before counting.
    let expected_single = inner.server_outputs(&single).unwrap();
    let expected_batch = inner.server_outputs(&batch).unwrap();

    let gate = Arc::new((Mutex::new(Gate::default()), Condvar::new()));
    let gated = Arc::new(GatedDefense {
        inner: Arc::clone(&inner),
        gate: Arc::clone(&gate),
    });
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_inflight_requests: IN_FLIGHT,
            max_connection_inflight_requests: IN_FLIGHT,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = DefenseServer::bind(gated, "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_message(
        &mut stream,
        &Message::Hello(Hello::legacy(PROTOCOL_VERSION)),
    )
    .unwrap();
    match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap() {
        Message::HelloAck(ack) => assert_eq!(ack.version, PROTOCOL_VERSION),
        other => panic!("handshake failed: {other:?}"),
    }
    let request = |id: u64| {
        // Odd ids are pre-batched, even ids single samples.
        let transmitted = if id % 2 == 1 { &batch } else { &single };
        let message = Message::ServerOutputsRequest {
            transmitted: transmitted.clone(),
        };
        encode_tagged(&message, Some(id))
    };

    // One request of each kind inside the gate — on the engine's coalescing
    // worker and on its batch lane: every long-lived thread the connection
    // and the engine will ever have now exists.
    stream.write_all(&request(0)).unwrap();
    stream.write_all(&request(1)).unwrap();
    {
        let (lock, condvar) = &*gate;
        let mut state = lock.lock().unwrap();
        while state.entered < 2 {
            state = condvar.wait(state).unwrap();
        }
    }
    let with_two = thread_count();

    for id in 2..IN_FLIGHT {
        stream.write_all(&request(id)).unwrap();
    }
    wait_in_flight(&server, IN_FLIGHT);
    assert_eq!(
        thread_count(),
        with_two,
        "{IN_FLIGHT} requests in flight must not cost a thread each"
    );

    // Every one of them is answered, bit-identically, under its own id.
    gate.0.lock().unwrap().open = true;
    gate.1.notify_all();
    let mut answered = vec![false; IN_FLIGHT as usize];
    for _ in 0..IN_FLIGHT {
        let answer = read_tagged(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).unwrap();
        let id = answer.request_id.expect("tagged answer");
        let expected = if id % 2 == 1 {
            &expected_batch
        } else {
            &expected_single
        };
        assert_eq!(
            answer.message,
            Message::ServerOutputsResponse {
                maps: expected.clone()
            }
        );
        assert!(!std::mem::replace(&mut answered[id as usize], true));
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests_served, IN_FLIGHT);
    assert_eq!((stats.errors_sent, stats.requests_rejected), (0, 0));
}
