//! [`RemoteDefense`]: the trusted-edge half of the paper's deployment — a
//! [`Defense`] whose `server_outputs` stage travels over TCP to a
//! [`crate::DefenseServer`] instead of running in-process.

use crate::error::ServeError;
use crate::protocol::{
    read_message, read_tagged_into, write_message, write_tagged_into, Hello, HelloAck, Message,
    WireError, DEFAULT_MAX_PAYLOAD_BYTES, PROTOCOL_VERSION,
};
use ensembler::{Defense, EnsemblerError, Features, Maps, Precision, ServerRequest};
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::Sequential;
use ensembler_tensor::Tensor;
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Where one in-flight request's answer is delivered: called exactly once,
/// on whichever thread learns the answer (the demultiplexer for a response
/// or a connection failure, the sender for a failed write). A blocking caller
/// passes a closure over its own channel; a caller with many requests in
/// flight — the shard router's scatter — points every sink at one channel.
pub type CompletionSink = Box<dyn FnOnce(Result<Message, ServeError>) + Send>;

/// Per-request completion routing for a multiplexed connection: each
/// in-flight request registers a [`CompletionSink`] under its request id, and
/// the demultiplexer thread completes the slot whose id the response frame
/// echoes.
///
/// Misuse is a typed error, never a panic or a misroute: registering a
/// duplicate id fails, completing an unknown id fails (the demultiplexer
/// treats that as a broken peer and fails the connection), and once the
/// connection has failed every further registration is refused with the
/// stored reason.
#[derive(Default)]
pub struct CompletionSlots {
    inner: Mutex<SlotsInner>,
}

#[derive(Default)]
struct SlotsInner {
    waiting: HashMap<u64, CompletionSink>,
    failure: Option<ConnectionFailure>,
}

impl std::fmt::Debug for CompletionSlots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("CompletionSlots")
            .field("in_flight", &inner.waiting.len())
            .field("failure", &inner.failure)
            .finish()
    }
}

/// Why a multiplexed connection died, preserved with its type: a
/// server-reported error frame stays a [`ServeError::Remote`] (so callers
/// can match on its [`crate::ErrorCode`] — e.g. `Overloaded` from a
/// draining server means "retry elsewhere"), everything else is a
/// [`ServeError::Protocol`].
#[derive(Debug, Clone)]
enum ConnectionFailure {
    Remote(WireError),
    Protocol(String),
}

impl ConnectionFailure {
    fn to_error(&self) -> ServeError {
        match self {
            ConnectionFailure::Remote(wire) => ServeError::Remote(wire.clone()),
            ConnectionFailure::Protocol(reason) => {
                ServeError::Protocol(format!("multiplexed connection failed: {reason}"))
            }
        }
    }
}

impl CompletionSlots {
    /// An empty slot table for a fresh connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table, locked. A poisoned lock is recovered: every update below is
    /// a single map or option operation, so the table is valid at every step
    /// — and the one thing that must still work after a panic on the
    /// demultiplexer thread is failing the callers it left behind.
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotsInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a new in-flight request under `id` and returns the receiver
    /// its response will arrive on.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] if `id` is already in flight, or the
    /// stored failure if the connection has already failed
    /// ([`CompletionSlots::fail_all`]).
    pub fn register(&self, id: u64) -> Result<Receiver<Result<Message, ServeError>>, ServeError> {
        let (send, receive) = channel();
        self.try_register(
            id,
            Box::new(move |result| {
                let _ = send.send(result);
            }),
        )
        .map_err(|(error, _)| error)?;
        Ok(receive)
    }

    /// Registers `sink` as the destination of the response to request `id`.
    /// A refused registration (duplicate id, failed connection) is itself
    /// delivered through the sink, so a sink handed to this table is always
    /// called exactly once. Returns whether the slot was registered.
    pub fn register_sink(&self, id: u64, sink: CompletionSink) -> bool {
        match self.try_register(id, sink) {
            Ok(()) => true,
            Err((error, sink)) => {
                sink(Err(error));
                false
            }
        }
    }

    fn try_register(
        &self,
        id: u64,
        sink: CompletionSink,
    ) -> Result<(), (ServeError, CompletionSink)> {
        let mut inner = self.lock();
        if let Some(failure) = &inner.failure {
            return Err((failure.to_error(), sink));
        }
        if inner.waiting.contains_key(&id) {
            let error = ServeError::Protocol(format!("request id {id} is already in flight"));
            return Err((error, sink));
        }
        inner.waiting.insert(id, sink);
        Ok(())
    }

    /// Delivers `result` to the request registered under `id` and frees the
    /// slot. A requester that gave up (dropped its receiver) is skipped
    /// silently.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] when no request with this id is in
    /// flight — a response for an unknown (or already-answered) id must
    /// never be routed anywhere.
    pub fn complete(&self, id: u64, result: Result<Message, ServeError>) -> Result<(), ServeError> {
        let sink = self.lock().waiting.remove(&id);
        match sink {
            Some(sink) => {
                sink(result);
                Ok(())
            }
            None => Err(ServeError::Protocol(format!(
                "response for unknown request id {id}"
            ))),
        }
    }

    /// Fails every in-flight request with a typed error and refuses all
    /// future registrations with the same reason — the terminal transition a
    /// demultiplexer takes when the connection itself breaks. The first
    /// failure recorded is the one every caller sees.
    pub fn fail_all(&self, reason: &str) {
        self.fail_all_with(ConnectionFailure::Protocol(reason.to_string()));
    }

    /// [`CompletionSlots::fail_all`] for a connection-level error frame the
    /// *server* reported: in-flight and future requests fail with
    /// [`ServeError::Remote`], keeping the server's typed [`crate::ErrorCode`]
    /// (a draining server's `Overloaded`, say) instead of flattening it into
    /// a string.
    pub fn fail_all_remote(&self, error: WireError) {
        self.fail_all_with(ConnectionFailure::Remote(error));
    }

    fn fail_all_with(&self, failure: ConnectionFailure) {
        let (failure, orphans) = {
            let mut inner = self.lock();
            let failure = inner.failure.get_or_insert(failure).clone();
            (failure, std::mem::take(&mut inner.waiting))
        };
        for sink in orphans.into_values() {
            sink(Err(failure.to_error()));
        }
    }

    /// Number of requests currently awaiting their response.
    pub fn in_flight(&self) -> usize {
        self.lock().waiting.len()
    }
}

/// Held by the demultiplexer thread for its whole life: *however* that
/// thread ends — the exits `demux_loop` anticipates, an early return added
/// later, an unwinding panic — dropping this fails every pending call and
/// refuses every later one with a typed error, so no caller stays parked on
/// a slot nobody will ever complete.
struct FailSlotsOnExit(Arc<CompletionSlots>);

impl Drop for FailSlotsOnExit {
    fn drop(&mut self) {
        self.0.fail_all(if std::thread::panicking() {
            "the demultiplexer thread panicked"
        } else {
            "the demultiplexer thread exited"
        });
    }
}

/// The multiplexed transport of a connection: writers tag each request with
/// a fresh id and register where its answer goes; one demultiplexer thread
/// reads every response frame and routes it to the sink its id names.
#[derive(Debug)]
struct Mux {
    /// The write half and the frame buffer every request is encoded into.
    writer: Mutex<(TcpStream, Vec<u8>)>,
    slots: Arc<CompletionSlots>,
    next_id: AtomicU64,
    demux: Option<JoinHandle<()>>,
}

impl Mux {
    fn start(stream: TcpStream) -> Result<Self, ServeError> {
        let mut read_half = stream.try_clone()?;
        let slots = Arc::new(CompletionSlots::new());
        let demux_slots = Arc::clone(&slots);
        let demux = std::thread::spawn(move || {
            let guard = FailSlotsOnExit(demux_slots);
            demux_loop(&mut read_half, &guard.0);
        });
        Ok(Self {
            writer: Mutex::new((stream, Vec::new())),
            slots,
            next_id: AtomicU64::new(1),
            demux: Some(demux),
        })
    }

    /// Puts one tagged request on the wire (briefly holding the write lock)
    /// and returns; the answer — the response, a typed per-request error, or
    /// the failure of the write or of the whole connection — reaches `sink`
    /// later, while other callers' requests and responses interleave freely.
    fn send(&self, request: &Message, sink: CompletionSink) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if !self.slots.register_sink(id, sink) {
            return;
        }
        let written = match self.writer.lock() {
            Ok(mut writer) => {
                let (stream, frame) = &mut *writer;
                write_tagged_into(stream, request, Some(id), frame)
            }
            Err(_) => Err(ServeError::Protocol(
                "connection mutex poisoned".to_string(),
            )),
        };
        if let Err(error) = written {
            // An unknown id here means the demultiplexer failed the slot
            // first: answered either way.
            let _ = self.slots.complete(id, Err(error));
        }
    }
}

impl Drop for Mux {
    fn drop(&mut self) {
        // Shutting the socket down unblocks the demultiplexer's read; it
        // fails any stragglers and exits, and the join below reaps it. A sink
        // may own the last handle to its own connection (`exchange_to` takes
        // any closure), and then this runs on the demultiplexer itself, which
        // cannot join itself: it exits once the sink returns.
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.0.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.demux.take() {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

/// The demultiplexer: reads frames (into one buffer it keeps) until the
/// connection dies. Tagged frames complete the slot their id names (a tagged
/// `Error` frame too — it fails only that one request). An untagged frame or
/// an unknown id is a protocol breach by the peer and fails the whole
/// connection, as does any read error.
fn demux_loop(read_half: &mut TcpStream, slots: &CompletionSlots) {
    let mut frame = Vec::new();
    loop {
        match read_tagged_into(read_half, DEFAULT_MAX_PAYLOAD_BYTES, &mut frame) {
            Ok(tagged) => match tagged.request_id {
                Some(id) => {
                    if slots.complete(id, Ok(tagged.message)).is_err() {
                        slots.fail_all(&format!("server answered unknown request id {id}"));
                        return;
                    }
                }
                None => {
                    match tagged.message {
                        // The server's typed report (e.g. `Overloaded` from a
                        // draining server) must survive to every caller as a
                        // `ServeError::Remote`, not a flattened string.
                        Message::Error(wire) => slots.fail_all_remote(wire),
                        other => slots.fail_all(&format!(
                            "unexpected untagged {:?} on a multiplexed connection",
                            other.message_type()
                        )),
                    }
                    return;
                }
            },
            Err(error) => {
                slots.fail_all(&format!("connection lost: {error}"));
                return;
            }
        }
    }
}

/// A [`Defense`] implementation that keeps the client-side stages
/// ([`Defense::client_features`], [`Defense::classify`]) on a local replica
/// and ships the transmitted features to a remote [`crate::DefenseServer`]
/// for the [`Defense::server_outputs`] stage — the actual deployment
/// boundary of the paper's threat model.
///
/// The local replica provides the head, the secret selector and the tail
/// (and, for attack experiments, [`Defense::server_bodies`] — under the
/// threat model the adversary *is* the server and owns those weights
/// anyway). At connect time the handshake cross-checks the replica's label,
/// `N` and `P` against what the server reports, so a client pointed at the
/// wrong deployment fails fast instead of silently misclassifying.
///
/// Because every existing consumer — attacks, benchmarks, the latency model,
/// the engine — programs against `&dyn Defense`, swapping an in-process
/// pipeline for a `RemoteDefense` requires no change anywhere else.
///
/// The connection is *multiplexed*: every request frame carries a fresh id, a
/// demultiplexer thread routes each (possibly out-of-order) response to the
/// caller that sent its request, and many threads can have requests in flight
/// on the one socket concurrently. A server-reported typed error (e.g.
/// `Overloaded`) fails only the request it is tagged with — the connection
/// and its other in-flight requests carry on. An int8 replica ships its
/// features and receives its maps in quantized frames.
///
/// # Examples
///
/// See [`crate::DefenseServer`] for a complete loopback round trip.
#[derive(Debug)]
pub struct RemoteDefense {
    local: std::sync::Arc<dyn Defense>,
    mux: Mux,
    peer: HelloAck,
}

impl RemoteDefense {
    /// Connects to a [`crate::DefenseServer`] at `addr`, performs the version
    /// handshake and validates that the server's pipeline matches the local
    /// replica.
    ///
    /// # Errors
    ///
    /// Returns an error if the connection or handshake fails, the server
    /// acks any version other than [`PROTOCOL_VERSION`]
    /// ([`ServeError::UnsupportedVersion`]), or the server-reported pipeline
    /// (label, `N`, `P`) disagrees with the local replica.
    pub fn connect(
        local: std::sync::Arc<dyn Defense>,
        addr: impl ToSocketAddrs,
    ) -> Result<Self, ServeError> {
        Self::connect_inner(local, addr, None)
    }

    /// Connects to a multi-model [`crate::DefenseServer`] and requests the
    /// registered model `model`.
    ///
    /// The hello carries the model name; the server resolves it in its
    /// registry, pins the connection to that model's engine and echoes the
    /// resolved name in the ack, which this constructor cross-checks along
    /// with the usual label/`N`/`P` replica validation. A nameless
    /// [`RemoteDefense::connect`] gets the server's default model instead.
    ///
    /// # Errors
    ///
    /// As for [`RemoteDefense::connect`], plus a typed
    /// [`crate::ErrorCode::UnknownModel`] report (surfaced as
    /// [`ServeError::Remote`]) when the server does not serve `model`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ensembler::Defense;
    /// use ensembler_serve::{demo_pipeline, DefenseServer, ModelRegistry, RemoteDefense, ServerConfig};
    /// use ensembler_tensor::Tensor;
    /// use std::sync::Arc;
    ///
    /// // One process, two models.
    /// let alpha: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 5)?);
    /// let beta: Arc<dyn Defense> = Arc::new(demo_pipeline(3, 2, 6)?);
    /// let registry = ModelRegistry::new("alpha", Arc::clone(&alpha))?;
    /// registry.register("beta", "3,2,6", Arc::clone(&beta))?;
    /// let server = DefenseServer::bind_registry(registry, "127.0.0.1:0", ServerConfig::default())?;
    ///
    /// // A client picks its model by name and gets bit-identical results.
    /// let remote = RemoteDefense::connect_model(Arc::clone(&beta), server.local_addr(), "beta")?;
    /// assert_eq!(remote.model(), Some("beta"));
    /// let images = Tensor::ones(&[1, 3, 16, 16]);
    /// assert_eq!(remote.predict(&images)?, beta.predict(&images)?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn connect_model(
        local: std::sync::Arc<dyn Defense>,
        addr: impl ToSocketAddrs,
        model: &str,
    ) -> Result<Self, ServeError> {
        Self::connect_inner(local, addr, Some(model.to_string()))
    }

    fn connect_inner(
        local: std::sync::Arc<dyn Defense>,
        addr: impl ToSocketAddrs,
        model: Option<String>,
    ) -> Result<Self, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        write_message(
            &mut stream,
            &Message::Hello(Hello {
                max_version: PROTOCOL_VERSION,
                model: model.clone(),
            }),
        )?;
        let peer = match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES)? {
            Message::HelloAck(ack) => ack,
            Message::Error(wire) => return Err(ServeError::Remote(wire)),
            other => {
                return Err(ServeError::Protocol(format!(
                    "expected HelloAck, got {:?}",
                    other.message_type()
                )))
            }
        };
        // The server is the adversary of the threat model: whatever version
        // it names, this client runs the one protocol it has or none.
        if peer.version != PROTOCOL_VERSION {
            return Err(ServeError::UnsupportedVersion {
                offered: peer.version,
                supported: PROTOCOL_VERSION,
            });
        }
        if model.is_some() && peer.model != model {
            return Err(ServeError::Protocol(format!(
                "requested model {:?} but the server pinned the connection to {:?}",
                model.as_deref().unwrap_or(""),
                peer.model.as_deref().unwrap_or("<unnamed>")
            )));
        }
        if peer.label != local.label()
            || peer.ensemble_size as usize != local.ensemble_size()
            || peer.selected_count as usize != local.selected_count()
        {
            return Err(ServeError::Protocol(format!(
                "server pipeline ({} N={} P={}) does not match the local replica ({} N={} P={})",
                peer.label,
                peer.ensemble_size,
                peer.selected_count,
                local.label(),
                local.ensemble_size(),
                local.selected_count()
            )));
        }
        Ok(Self {
            local,
            mux: Mux::start(stream)?,
            peer,
        })
    }

    /// The pipeline description the server reported at handshake time.
    pub fn peer_label(&self) -> &str {
        &self.peer.label
    }

    /// The registry model name this connection is pinned to, as echoed by
    /// the server — `None` on a nameless connection (which the server pins
    /// to its default model without naming it).
    pub fn model(&self) -> Option<&str> {
        self.peer.model.as_deref()
    }

    /// Starts one server-stage exchange — any precision, any body range — in
    /// the frame kind the request itself selects (see
    /// `Message::from(ServerRequest)`) and delivers its outcome to `sink`,
    /// which is called exactly once: with the maps, with the server's typed
    /// per-request error ([`ServeError::Remote`] — it neither tears down the
    /// socket nor disturbs other in-flight requests), or with the transport
    /// failure. It returns as soon as the tagged request is on the wire, so
    /// one thread can have many exchanges in flight. This is the per-worker
    /// leg of a scatter-gather router, which starts every leg from one thread
    /// and awaits them all on one channel; [`RemoteDefense::exchange`] is this
    /// plus a wait.
    pub fn exchange_to(
        &self,
        request: ServerRequest,
        sink: impl FnOnce(Result<Maps, ServeError>) + Send + 'static,
    ) {
        let bodies = (request.range.clone()).unwrap_or(0..self.local.ensemble_size());
        let precision = request.features.precision();
        let finish = move |response: Result<Message, ServeError>| {
            let maps = match response? {
                Message::Error(wire) => return Err(ServeError::Remote(wire)),
                other => Maps::try_from(other).map_err(|other| {
                    ServeError::Protocol(format!(
                        "expected a ServerOutputs response, got {:?}",
                        other.message_type()
                    ))
                })?,
            };
            if maps.precision() != precision || maps.len() != bodies.len() {
                return Err(ServeError::Protocol(format!(
                    "server returned {} {:?} maps for a {precision:?} request of the body range {bodies:?}",
                    maps.len(),
                    maps.precision(),
                )));
            }
            Ok(maps)
        };
        self.mux.send(
            &Message::from(request),
            Box::new(move |response| sink(finish(response))),
        );
    }

    /// One blocking server-stage exchange: [`RemoteDefense::exchange_to`]
    /// plus a wait for its outcome. This is what [`Defense::serve`] of a
    /// `RemoteDefense` bottoms out in; unlike the trait method it keeps the
    /// typed [`ServeError`] (a per-request `Overloaded` rejection stays
    /// matchable) instead of collapsing it to a transport string.
    ///
    /// # Errors
    ///
    /// Returns an error when the wire exchange fails, when the server
    /// reports a typed error (e.g. an out-of-range `lo..hi`), or when the
    /// response's precision or map count disagrees with the request.
    pub fn exchange(&self, request: ServerRequest) -> Result<Maps, ServeError> {
        let (answer, receive) = channel();
        self.exchange_to(request, move |result| {
            let _ = answer.send(result);
        });
        receive.recv().map_err(|_| {
            ServeError::Protocol(
                "multiplexed connection closed while awaiting a response".to_string(),
            )
        })?
    }

    /// [`RemoteDefense::exchange`] for one `f32` sub-range request: asks the
    /// server to evaluate only its bodies `lo..hi` and returns the `hi - lo`
    /// feature maps.
    ///
    /// # Errors
    ///
    /// As for [`RemoteDefense::exchange`].
    pub fn server_outputs_range(
        &self,
        transmitted: &Tensor,
        lo: usize,
        hi: usize,
    ) -> Result<Vec<Tensor>, ServeError> {
        let request = ServerRequest::ranged(lo..hi, Features::F32(transmitted.clone()));
        Ok(self.exchange(request)?.into_f32()?)
    }
}

impl Defense for RemoteDefense {
    fn config(&self) -> &ResNetConfig {
        self.local.config()
    }

    fn label(&self) -> &str {
        self.local.label()
    }

    /// The local replica's bodies. Under the threat model the adversary owns
    /// the server weights, so attack experiments read them from here exactly
    /// as they would from an in-process pipeline.
    fn server_bodies(&self) -> &[Sequential] {
        self.local.server_bodies()
    }

    fn selected_count(&self) -> usize {
        self.local.selected_count()
    }

    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.local.client_features(images)
    }

    fn precision(&self) -> ensembler::Precision {
        self.local.precision()
    }

    /// Ships the request to the remote server — its range left on it, so the
    /// server evaluates only the bodies it names — and returns the maps the
    /// server sends back.
    ///
    /// To an int8 replica the exchange travels in quantized frames whatever
    /// the caller holds: an `f32` payload is quantized per sample exactly as
    /// the in-process [`ensembler::QuantizedDefense`] would quantize it, and
    /// the server evaluates the received bytes directly — so the remote
    /// prediction is bit-identical to the in-process int8 one while the
    /// response frame shrinks to roughly a quarter of its `f32` size. An
    /// `f32` replica is sent the payload as it is (its server answers an int8
    /// frame itself, with the same arithmetic and a quarter of the bytes).
    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        let payload = request.features.precision();
        let wire = match self.precision() {
            Precision::Int8 => Precision::Int8,
            Precision::F32 => payload,
        };
        let features = request.features.to_precision(wire).into_owned();
        let range = request.range.clone();
        let maps = self.exchange(ServerRequest { range, features })?;
        Ok(maps.into_precision(payload))
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.local.classify(server_maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `die` on a thread that holds the demultiplexer's exit guard over
    /// three registered slots, and checks what the callers are left with.
    fn callers_survive(die: impl FnOnce(&CompletionSlots) + Send + 'static, expect: &str) {
        let slots = Arc::new(CompletionSlots::new());
        let receivers: Vec<_> = (1..=3)
            .map(|id| slots.register(id).expect("register"))
            .collect();
        let thread_slots = Arc::clone(&slots);
        let outcome = std::thread::spawn(move || {
            let guard = FailSlotsOnExit(thread_slots);
            die(&guard.0);
        })
        .join();
        assert_eq!(outcome.is_err(), expect.contains("panicked"));
        // All three parked callers are woken with a typed error ...
        for receiver in receivers {
            match receiver.recv().expect("the failure is delivered") {
                Err(ServeError::Protocol(reason)) => assert!(reason.contains(expect), "{reason}"),
                other => panic!("expected a typed protocol error, got {other:?}"),
            }
        }
        // ... and every later call is refused instead of parked, whichever
        // way it registers.
        assert_eq!(slots.in_flight(), 0);
        assert!(matches!(slots.register(4), Err(ServeError::Protocol(_))));
        let (sink, answered) = channel();
        let registered = slots.register_sink(
            5,
            Box::new(move |result| {
                let _ = sink.send(result);
            }),
        );
        assert!(!registered);
        assert!(matches!(answered.recv(), Ok(Err(ServeError::Protocol(_)))));
    }

    #[test]
    fn a_dying_demultiplexer_fails_every_pending_and_later_call() {
        callers_survive(
            |_| panic!("injected demultiplexer panic"),
            "demultiplexer thread panicked",
        );
        // A panic while the table is locked poisons the mutex; the guard
        // still reaches the callers.
        callers_survive(
            |slots| {
                let _locked = slots.inner.lock().unwrap();
                panic!("injected panic under the slots lock");
            },
            "demultiplexer thread panicked",
        );
        // An early return nobody anticipated is the same exit.
        callers_survive(|_| {}, "demultiplexer thread exited");
        // A failure recorded before the exit keeps its own, more specific
        // reason.
        callers_survive(
            |slots| slots.fail_all("connection lost: simulated"),
            "connection lost: simulated",
        );
    }

    #[test]
    fn a_sink_may_drop_the_last_handle_to_its_own_connection() {
        // A scripted server: an honest handshake, then it closes the socket
        // when told to, failing the request in flight on the client's
        // demultiplexer thread.
        let local: Arc<dyn Defense> = Arc::new(crate::demo_pipeline(2, 1, 3).expect("demo"));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let (close, closing) = channel::<()>();
        let served = Arc::clone(&local);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES).expect("hello");
            let ack = HelloAck {
                version: PROTOCOL_VERSION,
                label: served.label().to_string(),
                ensemble_size: served.ensemble_size() as u32,
                selected_count: served.selected_count() as u32,
                model: None,
            };
            write_message(&mut stream, &Message::HelloAck(ack)).expect("ack");
            let _ = closing.recv();
        });

        let remote = Arc::new(RemoteDefense::connect(Arc::clone(&local), addr).expect("connect"));
        let last = Arc::clone(&remote);
        let (done, finished) = channel();
        let request = ServerRequest::full(Features::F32(Tensor::ones(&[1, 2, 3, 3])));
        remote.exchange_to(request, move |result| {
            drop(last);
            let _ = done.send(result.is_err());
        });
        // From here the sink owns the last handle: the connection failure
        // drops it, and with it the connection, on the demultiplexer thread.
        drop(remote);
        close.send(()).expect("the server waits for the signal");
        assert_eq!(finished.recv(), Ok(true));
        server.join().expect("scripted server");
    }
}
