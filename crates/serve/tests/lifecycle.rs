//! End-to-end model lifecycle over a live loopback server: hot swaps with
//! in-flight requests draining on the outgoing engine, sustained multiplexed
//! load across a swap with zero dropped requests, deterministic canary
//! routing with promotion, and the registry's compatibility / removal rules
//! as clients observe them.

use ensembler::{Defense, EnsemblerError, Maps, ServerRequest};
use ensembler_serve::registry::route_key;
use ensembler_serve::{
    demo_pipeline, DefenseServer, ModelRegistry, RemoteDefense, ServeError, ServerConfig,
};
use ensembler_tensor::{Rng, Tensor};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn random_images(batch: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::from_fn(&[batch, 3, 16, 16], |_| rng.uniform(-1.0, 1.0))
}

/// The route key the server derives for an f32 request shipping `features` —
/// the test-side mirror of the canary routing decision.
fn f32_route_key(features: &Tensor) -> u64 {
    route_key(
        features
            .data()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    )
}

/// Two handshake-compatible versions of the same model: identical
/// architecture, label and split shapes, different weights — so every
/// response is attributable to exactly one version by bit comparison.
fn two_versions(seed_a: u64, seed_b: u64) -> (Arc<dyn Defense>, Arc<dyn Defense>) {
    (
        Arc::new(demo_pipeline(2, 1, seed_a).unwrap()),
        Arc::new(demo_pipeline(2, 1, seed_b).unwrap()),
    )
}

/// A wrapper defense whose `server_outputs` blocks on a gate until released —
/// the deterministic way to hold a request in flight on a specific engine
/// while the registry swaps underneath it.
#[derive(Debug)]
struct GatedDefense {
    inner: Arc<dyn Defense>,
    gate: Arc<(Mutex<GateState>, Condvar)>,
}

#[derive(Debug, Default)]
struct GateState {
    entered: u64,
    released: bool,
}

impl GatedDefense {
    fn new(inner: Arc<dyn Defense>) -> (Arc<Self>, Arc<(Mutex<GateState>, Condvar)>) {
        let gate = Arc::new((Mutex::new(GateState::default()), Condvar::new()));
        let defense = Arc::new(Self {
            inner,
            gate: Arc::clone(&gate),
        });
        (defense, gate)
    }
}

fn wait_entered(gate: &(Mutex<GateState>, Condvar), n: u64) {
    let (lock, condvar) = gate;
    let mut state = lock.lock().unwrap();
    while state.entered < n {
        state = condvar.wait(state).unwrap();
    }
}

fn release(gate: &(Mutex<GateState>, Condvar)) {
    let (lock, condvar) = gate;
    lock.lock().unwrap().released = true;
    condvar.notify_all();
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
        let mut state = lock.lock().unwrap();
        state.entered += 1;
        condvar.notify_all();
        while !state.released {
            state = condvar.wait(state).unwrap();
        }
        drop(state);
        self.inner.serve(request)
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.inner.classify(server_maps)
    }
}

#[test]
fn a_swap_drains_in_flight_requests_on_the_old_engine() {
    // The zero-drop contract, request by request: a request already in
    // flight when the swap lands completes on the OLD version with its
    // bit-exact answer; a request issued after the swap — on the very same
    // multiplexed connection — is served by the NEW version.
    let (version_a, version_b) = two_versions(601, 602);
    let (gated_a, gate) = GatedDefense::new(Arc::clone(&version_a));
    let config = ServerConfig::default();
    let registry = ModelRegistry::new("default", gated_a).unwrap();
    let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", config).unwrap();
    let registry = Arc::clone(server.registry());

    let remote =
        Arc::new(RemoteDefense::connect(Arc::clone(&version_a), server.local_addr()).unwrap());
    let old_features = version_a.client_features(&random_images(1, 603)).unwrap();
    let new_features = version_a.client_features(&random_images(1, 604)).unwrap();
    let expected_old = version_a.server_outputs(&old_features).unwrap();
    let expected_new = version_b.server_outputs(&new_features).unwrap();

    // Put a request provably in flight on version A (blocked in the gate)...
    let in_flight_remote = Arc::clone(&remote);
    let in_flight_input = old_features.clone();
    let in_flight =
        std::thread::spawn(move || in_flight_remote.server_outputs(&in_flight_input).unwrap());
    wait_entered(&gate, 1);

    // ...swap the slot to version B while it is held. The swap must return
    // promptly: it displaces the old engine but must never wait for its
    // in-flight work (the request pins the engine until its answer ships).
    registry
        .swap("default", "v2", Arc::clone(&version_b))
        .unwrap();
    assert_eq!(registry.get("default").unwrap().primary_version(), "v2");

    // ...and the same pinned connection immediately serves version B (the
    // new engine is not gated, so this completes while A's request is still
    // blocked — also proving the two engines run independently).
    assert_eq!(remote.server_outputs(&new_features).unwrap(), expected_new);
    assert!(
        !in_flight.is_finished(),
        "the in-flight request must still be draining on the old engine"
    );

    // The drained request delivers version A's bit-exact answer: swapped
    // out, never cancelled.
    release(&gate);
    assert_eq!(in_flight.join().unwrap(), expected_old);

    let stats = server.stats();
    assert_eq!(stats.requests_served, 2);
    assert_eq!(stats.errors_sent, 0);
}

#[test]
fn hot_swap_under_concurrent_multiplexed_load_drops_nothing() {
    // Four clients hammer one model name over multiplexed connections while
    // the registry swaps the primary mid-stream. Every single request must
    // succeed, every response must be bit-exact under exactly one of the two
    // versions, and any request issued after the swap is visible must be
    // served by the new version.
    const THREADS: u64 = 4;
    const REQUESTS: u64 = 24;
    let (version_a, version_b) = two_versions(611, 612);
    let config = ServerConfig::default();
    let registry = ModelRegistry::new("default", Arc::clone(&version_a)).unwrap();
    let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", config).unwrap();
    let registry = Arc::clone(server.registry());

    let completed = Arc::new(AtomicU64::new(0));
    let swapped = Arc::new(AtomicBool::new(false));
    let old_answers = Arc::new(AtomicU64::new(0));
    let new_answers = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let version_a = Arc::clone(&version_a);
                let version_b = Arc::clone(&version_b);
                let completed = Arc::clone(&completed);
                let swapped = Arc::clone(&swapped);
                let old_answers = Arc::clone(&old_answers);
                let new_answers = Arc::clone(&new_answers);
                let addr = server.local_addr();
                scope.spawn(move || {
                    let remote = RemoteDefense::connect(Arc::clone(&version_a), addr).unwrap();
                    for i in 0..REQUESTS {
                        let features = version_a
                            .client_features(&random_images(1, 613 + t * REQUESTS + i))
                            .unwrap();
                        let expected_a = version_a.server_outputs(&features).unwrap();
                        let expected_b = version_b.server_outputs(&features).unwrap();
                        let swap_was_visible = swapped.load(Ordering::SeqCst);
                        let maps = remote.server_outputs(&features).unwrap();
                        if maps == expected_a {
                            old_answers.fetch_add(1, Ordering::SeqCst);
                            assert!(
                                !swap_was_visible,
                                "a request issued after the swap was served by the old version"
                            );
                        } else if maps == expected_b {
                            new_answers.fetch_add(1, Ordering::SeqCst);
                        } else {
                            panic!("a response matched neither version bit-exactly");
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();

        // Swap once a quarter of the traffic has been served, mid-hammer.
        while completed.load(Ordering::SeqCst) < THREADS * REQUESTS / 4 {
            std::thread::yield_now();
        }
        registry
            .swap("default", "v2", Arc::clone(&version_b))
            .unwrap();
        swapped.store(true, Ordering::SeqCst);

        for handle in handles {
            handle.join().unwrap();
        }
    });

    // Zero drops: every request got a bit-exact answer from one version.
    let old = old_answers.load(Ordering::SeqCst);
    let new = new_answers.load(Ordering::SeqCst);
    assert_eq!(old + new, THREADS * REQUESTS);
    assert!(old > 0, "the swap waited for a quarter of the traffic");
    assert!(new > 0, "three quarters of the traffic followed the swap");
    let stats = server.stats();
    assert_eq!(stats.requests_served, THREADS * REQUESTS);
    assert_eq!(stats.errors_sent, 0);
    assert_eq!(stats.requests_rejected, 0);
}

#[test]
fn canary_routing_is_deterministic_and_promotion_completes_the_rollout() {
    const PERCENT: u8 = 30;
    let (primary, canary) = two_versions(621, 622);
    let config = ServerConfig::default();
    let registry = ModelRegistry::new("default", Arc::clone(&primary)).unwrap();
    let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", config).unwrap();
    let registry = Arc::clone(server.registry());
    registry
        .set_canary("default", "v2", PERCENT, Arc::clone(&canary))
        .unwrap();

    let remote = RemoteDefense::connect(Arc::clone(&primary), server.local_addr()).unwrap();
    let mut canary_hits = 0u32;
    let inputs: Vec<Tensor> = (0..40)
        .map(|i| primary.client_features(&random_images(1, 623 + i)).unwrap())
        .collect();
    for features in &inputs {
        // The split is a pure function of the request content: the test
        // derives the same route key the server does and the observed
        // version must match that prediction exactly.
        let expect_canary = f32_route_key(features) % 100 < u64::from(PERCENT);
        let expected = if expect_canary {
            canary_hits += 1;
            canary.server_outputs(features).unwrap()
        } else {
            primary.server_outputs(features).unwrap()
        };
        assert_eq!(remote.server_outputs(features).unwrap(), expected);
    }
    assert!(
        canary_hits > 0 && canary_hits < inputs.len() as u32,
        "40 random requests must land on both sides of a {PERCENT}% split, \
         got {canary_hits} canary hits"
    );

    // Determinism across retries: the same payload routes to the same
    // version every time, even on a fresh connection.
    let retry = RemoteDefense::connect(Arc::clone(&primary), server.local_addr()).unwrap();
    for features in inputs.iter().take(5) {
        assert_eq!(
            retry.server_outputs(features).unwrap(),
            remote.server_outputs(features).unwrap()
        );
    }

    // Promotion: the canary becomes the primary and takes all the traffic —
    // on connections opened before the promotion too.
    registry.promote("default").unwrap();
    assert_eq!(registry.get("default").unwrap().primary_version(), "v2");
    assert_eq!(registry.get("default").unwrap().canary(), None);
    for features in inputs.iter().take(10) {
        assert_eq!(
            remote.server_outputs(features).unwrap(),
            canary.server_outputs(features).unwrap()
        );
    }
    assert_eq!(server.stats().errors_sent, 0);
}

#[test]
fn incompatible_swaps_are_refused_and_removed_models_drain() {
    let (version_a, _) = two_versions(631, 632);
    let config = ServerConfig::default();
    let registry = ModelRegistry::new("default", Arc::clone(&version_a)).unwrap();
    registry
        .register("spare", "v0", Arc::clone(&version_a))
        .unwrap();
    let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", config).unwrap();
    let registry = Arc::clone(server.registry());

    // A replacement with a different ensemble size would break every
    // connected client's handshake-verified expectations: refused, and the
    // error names the differing property.
    let incompatible: Arc<dyn Defense> = Arc::new(demo_pipeline(3, 2, 633).unwrap());
    let err = registry.swap("default", "v2", incompatible).unwrap_err();
    assert!(err.to_string().contains("ensemble"), "{err}");
    assert_eq!(registry.get("default").unwrap().primary_version(), "v0");

    // Removing a model refuses new handshakes for the name but keeps the
    // pinned connection serving until its client disconnects.
    let pinned =
        RemoteDefense::connect_model(Arc::clone(&version_a), server.local_addr(), "spare").unwrap();
    registry.remove("spare").unwrap();
    let err = RemoteDefense::connect_model(Arc::clone(&version_a), server.local_addr(), "spare")
        .unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    let images = random_images(1, 634);
    assert_eq!(
        pinned.predict(&images).unwrap(),
        version_a.predict(&images).unwrap()
    );
}

#[test]
fn two_hundred_hot_swaps_under_tagged_load_drop_nothing_and_free_every_engine() {
    // Since completions are delivered from the engine's own threads, the
    // last handle to a displaced engine must never be released there (its
    // `Drop` joins them). Hammer that: one multiplexed connection keeps
    // tagged single-sample *and* pre-batched requests in flight while the
    // slot is swapped 200 times between two versions. Every request is
    // answered bit-identically by exactly one version, nothing deadlocks,
    // and every displaced engine is gone afterwards.
    const SWAPS: usize = 200;
    let (version_a, version_b) = two_versions(641, 642);
    let config = ServerConfig::default();
    let registry = ModelRegistry::new("default", Arc::clone(&version_a)).unwrap();
    let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", config).unwrap();
    let registry = Arc::clone(server.registry());
    let remote =
        Arc::new(RemoteDefense::connect(Arc::clone(&version_a), server.local_addr()).unwrap());

    // Two single-sample and two pre-batched callers, each with its own
    // input and both versions' answers to it.
    let callers: Vec<_> = [1usize, 1, 3, 3]
        .into_iter()
        .enumerate()
        .map(|(k, batch)| {
            let features = version_a
                .client_features(&random_images(batch, 643 + k as u64))
                .unwrap();
            let expected = [
                version_a.server_outputs(&features).unwrap(),
                version_b.server_outputs(&features).unwrap(),
            ];
            (features, expected)
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let mut displaced = vec![Arc::downgrade(
        &registry.get("default").unwrap().primary_engine(),
    )];

    std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter()
            .map(|(features, expected)| {
                let remote = Arc::clone(&remote);
                let stop = Arc::clone(&stop);
                let answered = Arc::clone(&answered);
                scope.spawn(move || {
                    let mut by_version = [0u64; 2];
                    while !stop.load(Ordering::SeqCst) {
                        let maps = remote.server_outputs(features).unwrap();
                        match expected.iter().position(|e| *e == maps) {
                            Some(version) => by_version[version] += 1,
                            None => panic!("a response matched neither version bit-exactly"),
                        }
                        answered.fetch_add(1, Ordering::SeqCst);
                    }
                    by_version
                })
            })
            .collect();

        for swap in 0..SWAPS {
            // Let traffic land on the current version before displacing it.
            let seen = answered.load(Ordering::SeqCst);
            while answered.load(Ordering::SeqCst) < seen + 2 {
                std::thread::yield_now();
            }
            let next = if swap % 2 == 0 {
                &version_b
            } else {
                &version_a
            };
            registry
                .swap("default", format!("v{}", swap + 1), Arc::clone(next))
                .unwrap();
            displaced.push(Arc::downgrade(
                &registry.get("default").unwrap().primary_engine(),
            ));
        }
        stop.store(true, Ordering::SeqCst);
        let mut by_version = [0u64; 2];
        for handle in handles {
            let counts = handle.join().unwrap();
            by_version[0] += counts[0];
            by_version[1] += counts[1];
        }
        assert!(by_version[0] > 0 && by_version[1] > 0, "{by_version:?}");
        assert_eq!(
            by_version[0] + by_version[1],
            answered.load(Ordering::SeqCst)
        );
    });

    drop(remote);
    let stats = server.shutdown();
    assert_eq!(stats.requests_served, answered.load(Ordering::SeqCst));
    assert_eq!((stats.errors_sent, stats.requests_rejected), (0, 0));
    // The connection threads are joined: nothing pins a displaced engine.
    let installed = displaced.pop().unwrap();
    assert!(
        installed.upgrade().is_some(),
        "the slot holds the last version"
    );
    assert_eq!(displaced.len(), SWAPS);
    let leaked = displaced.iter().filter(|e| e.upgrade().is_some()).count();
    assert_eq!(leaked, 0, "displaced engines still alive after shutdown");
}
