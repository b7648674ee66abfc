//! The multi-threaded, multi-model TCP [`DefenseServer`]: the untrusted-cloud
//! half of the paper's deployment, serving the server stage
//! ([`ensembler::Defense::serve`]) of every model in a [`ModelRegistry`] over
//! sockets.
//!
//! Each accepted connection gets a reader thread that speaks the framed
//! protocol of [`crate::protocol`]. The handshake refuses any offer below
//! [`PROTOCOL_VERSION`] with a typed error and pins the connection to one
//! registered model (the one the hello names, else the default model). From
//! then on there is **one request loop**: every request
//! frame — `f32` or quantized, whole ensemble or sub-range — becomes one
//! [`ensembler::ServerRequest`], is admitted, routed and begun on the reader
//! thread in arrival order; single-sample requests go through that model's
//! shared [`ensembler::InferenceEngine`] queue, so feature maps arriving on
//! *different* connections coalesce into joint mini-batches exactly like
//! local callers do, while pre-batched requests run directly.
//!
//! Every request carries a request id. It is handed to the engine with a
//! ticket and the connection's answer channel, and answered by the
//! connection's one writer thread with the same id — out of order whenever
//! the work finishes out of order, and with no thread created per request;
//! the reader thread never waits on inference. A request frame without an id
//! does not decode, which is a connection-level `MalformedFrame` error: the
//! connection closes once the requests already in flight are answered.
//!
//! Before any request reaches an engine it must pass **admission control**
//! ([`AdmissionConfig`]): a budget on in-flight requests and bytes, per
//! connection and per server. Over-budget work is answered with a typed
//! [`ErrorCode::Overloaded`] frame and never queued, so a misbehaving client
//! degrades into rejections instead of queueing the process into the ground.
//! `docs/SERVING.md` is the operator guide to tuning these budgets.

use crate::error::ServeError;
use crate::protocol::{
    read_message, read_tagged_into, write_message, write_tagged_into, ErrorCode, HelloAck, Message,
    TaggedMessage, WireError, DEFAULT_MAX_PAYLOAD_BYTES, PROTOCOL_VERSION,
};
use crate::registry::{route_key, ModelRegistry, ModelSlot, ModelStats};
use ensembler::{
    check_feature_shape, Defense, EnsemblerError, InferenceEngine, Maps, ServerRequest, Tagged,
};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// In-flight budgets enforced before any request may touch an inference
/// queue.
///
/// "In flight" covers a request from the moment it is admitted until its
/// result has been computed (the budget is released just before the
/// response bytes are written, so a client holding its answer already sees
/// the budget freed). Byte budgets count the raw tensor payload of each
/// admitted request (`f32` elements at 4 bytes, quantized elements at
/// 1 byte plus one 4-byte scale per sample).
///
/// A connection holds many requests in flight at once, so the
/// per-connection *request* budget is what bounds how deep one client may
/// pipeline (a connection costs two threads, its reader and its writer,
/// however many requests it has in flight). The per-connection *byte* budget
/// caps the payload those in-flight requests may hold between them (and
/// therefore the largest single request), independent of the parse-level
/// [`ServerConfig::max_payload_bytes`] cap.
///
/// # Examples
///
/// ```
/// use ensembler_serve::AdmissionConfig;
///
/// let default = AdmissionConfig::default();
/// assert!(default.max_inflight_requests >= 1);
///
/// // An operator tightening a small box: at most 8 requests / 8 MiB in
/// // flight across the whole process, 2 MiB per connection.
/// let tight = AdmissionConfig {
///     max_inflight_requests: 8,
///     max_inflight_bytes: 8 << 20,
///     max_connection_inflight_bytes: 2 << 20,
///     ..AdmissionConfig::default()
/// };
/// assert!(tight.max_connection_inflight_bytes < tight.max_inflight_bytes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Most requests admitted concurrently across the whole server.
    pub max_inflight_requests: u64,
    /// Most admitted-but-unanswered payload bytes across the whole server.
    pub max_inflight_bytes: u64,
    /// Most requests one connection may have in flight (must be ≥ 1).
    pub max_connection_inflight_requests: u64,
    /// Most in-flight payload bytes one connection may hold — effectively
    /// the largest single request a connection can submit.
    pub max_connection_inflight_bytes: u64,
    /// Most connections served concurrently. Each live connection costs one
    /// reader thread plus up to [`ServerConfig::max_payload_bytes`] of
    /// receive buffer *before* per-request admission runs, so this cap is
    /// what actually bounds a thundering herd of sockets; over-limit
    /// connections are answered with an `Overloaded` frame and hung up on.
    pub max_connections: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_inflight_requests: 64,
            max_inflight_bytes: 256 << 20,
            max_connection_inflight_requests: 4,
            max_connection_inflight_bytes: 64 << 20,
            max_connections: 256,
        }
    }
}

/// Tuning knobs of a [`DefenseServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Largest request payload a connection will accept, in bytes.
    pub max_payload_bytes: u32,
    /// How long a reader thread waits for the next frame before closing the
    /// connection (`None` = wait forever). The default (2 minutes) bounds
    /// how long an idle, trickling or half-open peer can pin an OS thread;
    /// a timed-out client simply reconnects.
    pub read_timeout: Option<std::time::Duration>,
    /// How long a response write may block before the connection is closed
    /// (`None` = wait forever). The default (1 minute) bounds how long a
    /// client that stops reading its responses can pin a reader thread —
    /// and therefore how long a draining [`DefenseServer::shutdown`] can be
    /// held up by one misbehaving peer.
    pub write_timeout: Option<std::time::Duration>,
    /// In-flight request/byte budgets enforced before queueing any work.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_payload_bytes: DEFAULT_MAX_PAYLOAD_BYTES,
            read_timeout: Some(std::time::Duration::from_secs(120)),
            write_timeout: Some(std::time::Duration::from_secs(60)),
            admission: AdmissionConfig::default(),
        }
    }
}

/// A snapshot of everything a server has done and is doing: global counters,
/// the live admission state, and the per-model engine counters.
///
/// # Examples
///
/// ```
/// use ensembler::Defense;
/// use ensembler_serve::{demo_pipeline, DefenseServer, RemoteDefense, ServerConfig};
/// use ensembler_tensor::Tensor;
/// use std::sync::Arc;
///
/// let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(2, 1, 3)?);
/// let server = DefenseServer::bind(
///     Arc::clone(&pipeline),
///     "127.0.0.1:0",
///     ServerConfig::default(),
/// )?;
/// let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr())?;
/// remote.predict(&Tensor::ones(&[2, 3, 16, 16]))?;
///
/// let stats = server.stats();
/// assert_eq!(stats.connections_accepted, 1);
/// assert_eq!(stats.requests_served, 1);
/// assert_eq!(stats.requests_rejected, 0);
/// assert_eq!(stats.inflight_requests, 0); // everything answered
/// // One engine per registered model; `bind` registers one model.
/// assert_eq!(stats.per_model.len(), 1);
/// assert_eq!(stats.per_model[0].model, "default");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// TCP connections accepted (including ones that failed the handshake).
    pub connections_accepted: u64,
    /// Request frames answered with a response, over all models.
    pub requests_served: u64,
    /// Requests refused by admission control with an `Overloaded` frame.
    pub requests_rejected: u64,
    /// Error frames sent to clients (rejections included).
    pub errors_sent: u64,
    /// Requests admitted but not yet answered at snapshot time.
    pub inflight_requests: u64,
    /// Payload bytes admitted but not yet answered at snapshot time.
    pub inflight_bytes: u64,
    /// Per-model engine counters (requests, batches, queue depth), sorted by
    /// model name.
    pub per_model: Vec<ModelStats>,
}

#[derive(Debug, Default)]
struct ServerStatsCells {
    connections: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
}

#[derive(Debug, Default, Clone, Copy)]
struct InflightCounters {
    requests: u64,
    bytes: u64,
}

/// Shared admission state: the budgets plus the server-wide in-flight
/// counters.
#[derive(Debug)]
struct Admission {
    config: AdmissionConfig,
    inflight: Mutex<InflightCounters>,
}

/// Per-connection in-flight counters. The reader thread is the only
/// admitter, but the *releases* come from the connection's writer thread, so
/// the counters are atomics.
#[derive(Debug, Default)]
struct ConnectionBudget {
    requests: AtomicU64,
    bytes: AtomicU64,
}

/// An admitted request's hold on the budgets; dropping it releases them.
/// The permit owns its books (`Arc`s, not borrows) so it can wait in the
/// connection's in-flight table and be released by its writer thread.
struct AdmissionPermit {
    admission: Arc<Admission>,
    connection: Arc<ConnectionBudget>,
    bytes: u64,
}

impl Admission {
    fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            inflight: Mutex::new(InflightCounters::default()),
        }
    }

    /// Admits a request of `bytes` payload bytes or explains the refusal.
    fn try_admit(
        self: &Arc<Self>,
        connection: &Arc<ConnectionBudget>,
        bytes: u64,
    ) -> Result<AdmissionPermit, String> {
        let cfg = &self.config;
        // Permanently inadmissible requests are told so first, whatever the
        // transient state: the "outright" wording is the client's signal to
        // split the batch instead of retrying forever.
        if bytes > cfg.max_connection_inflight_bytes {
            return Err(format!(
                "request of {bytes} B exceeds the per-connection in-flight byte budget \
                 ({} B) outright; it will never be admitted — split the batch",
                cfg.max_connection_inflight_bytes
            ));
        }
        if bytes > cfg.max_inflight_bytes {
            return Err(format!(
                "request of {bytes} B exceeds the server in-flight byte budget ({} B) \
                 outright; it will never be admitted — split the batch",
                cfg.max_inflight_bytes
            ));
        }
        if connection.requests.load(Ordering::Relaxed) >= cfg.max_connection_inflight_requests {
            return Err(format!(
                "connection already has {} requests in flight (per-connection budget {})",
                connection.requests.load(Ordering::Relaxed),
                cfg.max_connection_inflight_requests
            ));
        }
        if connection.bytes.load(Ordering::Relaxed) + bytes > cfg.max_connection_inflight_bytes {
            return Err(format!(
                "request of {bytes} B would exceed the per-connection in-flight byte \
                 budget ({} B); retry after earlier requests drain",
                cfg.max_connection_inflight_bytes
            ));
        }
        let mut inflight = self
            .inflight
            .lock()
            .expect("admission mutex is never poisoned");
        if inflight.requests >= cfg.max_inflight_requests {
            return Err(format!(
                "server already has {} requests in flight (budget {})",
                inflight.requests, cfg.max_inflight_requests
            ));
        }
        if inflight.bytes + bytes > cfg.max_inflight_bytes {
            return Err(format!(
                "request of {bytes} B would exceed the server in-flight byte budget \
                 ({} B, {} B already in flight); retry after earlier requests drain",
                cfg.max_inflight_bytes, inflight.bytes
            ));
        }
        inflight.requests += 1;
        inflight.bytes += bytes;
        connection.requests.fetch_add(1, Ordering::Relaxed);
        connection.bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(AdmissionPermit {
            admission: Arc::clone(self),
            connection: Arc::clone(connection),
            bytes,
        })
    }

    fn snapshot(&self) -> InflightCounters {
        *self
            .inflight
            .lock()
            .expect("admission mutex is never poisoned")
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut inflight = self
            .admission
            .inflight
            .lock()
            .expect("admission mutex is never poisoned");
        inflight.requests -= 1;
        inflight.bytes -= self.bytes;
        self.connection.requests.fetch_sub(1, Ordering::Relaxed);
        self.connection
            .bytes
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// The live connections a server has spawned: the reader-thread handles (so
/// a draining shutdown can join them) and a read-half clone of each stream
/// (so it can unblock readers parked in `read`), keyed by connection id.
///
/// A connection removes its own stream clone when it ends — a lingering
/// clone would hold the socket open after the reader exits, so an idle
/// timeout or error would never surface to the client as EOF. The accept
/// loop sweeps finished thread handles on each new connection, so neither
/// vector grows with the lifetime total of connections.
#[derive(Debug, Default)]
struct ConnectionTable {
    streams: Mutex<Vec<(u64, TcpStream)>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ConnectionTable {
    fn forget_stream(&self, id: u64) {
        self.streams
            .lock()
            .expect("connection table mutex is never poisoned")
            .retain(|(stream_id, _)| *stream_id != id);
    }
}

/// A TCP frontend serving the `server_outputs` stage of every model in a
/// [`ModelRegistry`].
///
/// Binding spawns an accept loop; each connection then costs one reader
/// thread and one writer thread, and no thread per request.
/// [`DefenseServer::shutdown`] drains gracefully: it stops accepting, lets
/// every in-flight request finish and answers it, then joins all connection
/// threads. Merely dropping the server only stops accepting new connections
/// (established connections keep their engines alive until their clients
/// disconnect or time out).
///
/// # Examples
///
/// ```
/// use ensembler::{DefenseKind, SinglePipeline};
/// use ensembler_nn::models::ResNetConfig;
/// use ensembler_serve::{DefenseServer, RemoteDefense, ServerConfig};
/// use ensembler_tensor::Tensor;
/// use std::sync::Arc;
///
/// let pipeline: Arc<dyn ensembler::Defense> = Arc::new(SinglePipeline::new(
///     ResNetConfig::tiny_for_tests(),
///     DefenseKind::NoDefense,
///     5,
/// )?);
/// let server = DefenseServer::bind(
///     Arc::clone(&pipeline),
///     "127.0.0.1:0",
///     ServerConfig::default(),
/// )?;
///
/// // A remote client with the same client-side replica predicts through the
/// // socket and gets bit-identical logits.
/// let remote = RemoteDefense::connect(Arc::clone(&pipeline), server.local_addr())?;
/// let images = Tensor::ones(&[2, 3, 8, 8]);
/// use ensembler::Defense;
/// assert_eq!(remote.predict(&images)?, pipeline.predict(&images)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DefenseServer {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    stats: Arc<ServerStatsCells>,
    registry: Arc<ModelRegistry>,
    admission: Arc<Admission>,
    connections: Arc<ConnectionTable>,
}

impl DefenseServer {
    /// Binds a single-model server on `addr` (use port 0 for an ephemeral
    /// port): `defense` is registered as the `"default"` model, which is
    /// what every nameless hello resolves to.
    ///
    /// # Errors
    ///
    /// Returns an error if the bind fails or a configuration is invalid.
    pub fn bind(
        defense: Arc<dyn Defense>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let registry = ModelRegistry::new("default", defense)?;
        Self::bind_registry(registry, addr, config)
    }

    /// Binds a multi-model server on `addr` serving every model in
    /// `registry`.
    ///
    /// # Errors
    ///
    /// Returns an error if the bind fails or the admission budgets are
    /// degenerate (a zero budget would reject every request).
    pub fn bind_registry(
        registry: ModelRegistry,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let admission = config.admission;
        if admission.max_inflight_requests == 0
            || admission.max_inflight_bytes == 0
            || admission.max_connection_inflight_requests == 0
            || admission.max_connection_inflight_bytes == 0
            || admission.max_connections == 0
        {
            return Err(ServeError::Registry(
                "admission budgets must all be positive (a zero budget rejects everything)"
                    .to_string(),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Arc::new(registry);
        let running = Arc::new(AtomicBool::new(true));
        let draining = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStatsCells::default());
        let admission = Arc::new(Admission::new(admission));
        let connections = Arc::new(ConnectionTable::default());

        let accept_running = Arc::clone(&running);
        let accept_draining = Arc::clone(&draining);
        let accept_registry = Arc::clone(&registry);
        let accept_stats = Arc::clone(&stats);
        let accept_admission = Arc::clone(&admission);
        let accept_connections = Arc::clone(&connections);
        let accept_handle = std::thread::spawn(move || {
            let mut next_id = 0u64;
            for stream in listener.incoming() {
                if !accept_running.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                // The connection cap is what bounds reader threads and
                // pre-admission receive buffers; over-limit peers get a
                // typed rejection and a hangup instead of a reader thread.
                let live = accept_connections
                    .streams
                    .lock()
                    .expect("connection table mutex is never poisoned")
                    .len() as u64;
                if live >= config.admission.max_connections {
                    let stats = Arc::clone(&accept_stats);
                    let limit = config.admission.max_connections;
                    // A short-lived thread, so a peer slow to send its Hello
                    // cannot stall the accept loop.
                    std::thread::spawn(move || reject_connection(stream, &stats, limit));
                    continue;
                }
                let id = next_id;
                next_id += 1;
                // Without a trackable read-half clone a draining shutdown
                // could never unblock this reader, so refuse the connection
                // (the close reads as EOF; the client reconnects).
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                accept_connections
                    .streams
                    .lock()
                    .expect("connection table mutex is never poisoned")
                    .push((id, read_half));
                let registry = Arc::clone(&accept_registry);
                let stats = Arc::clone(&accept_stats);
                let admission = Arc::clone(&accept_admission);
                let draining = Arc::clone(&accept_draining);
                let connections = Arc::clone(&accept_connections);
                let handle = std::thread::spawn(move || {
                    // Connection failures only affect that client; the error
                    // has already been reported over the wire where possible.
                    let _ =
                        serve_connection(stream, &registry, &stats, &admission, &draining, config);
                    // Drop the table's clone too, so the peer sees the
                    // connection actually close.
                    connections.forget_stream(id);
                });
                let mut handles = accept_connections
                    .handles
                    .lock()
                    .expect("connection table mutex is never poisoned");
                handles.retain(|h| !h.is_finished());
                handles.push(handle);
            }
        });

        Ok(Self {
            local_addr,
            running,
            draining,
            accept_handle: Some(accept_handle),
            stats,
            registry,
            admission,
            connections,
        })
    }

    /// The address the server is listening on (with the ephemeral port
    /// resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The model registry this server serves. The registry is mutable from
    /// `&self` — [`ModelRegistry::swap`] / [`ModelRegistry::set_canary`] /
    /// [`ModelRegistry::promote`] reconfigure a *live* server with zero
    /// dropped requests. Returned as the shared handle so a reload thread
    /// (e.g. `serve_defense`'s manifest watcher) can own a clone.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// A snapshot of the serving counters, admission state and per-model
    /// engine counters.
    pub fn stats(&self) -> ServerStats {
        let inflight = self.admission.snapshot();
        ServerStats {
            connections_accepted: self.stats.connections.load(Ordering::Relaxed),
            requests_served: self.stats.requests.load(Ordering::Relaxed),
            requests_rejected: self.stats.rejected.load(Ordering::Relaxed),
            errors_sent: self.stats.errors.load(Ordering::Relaxed),
            inflight_requests: inflight.requests,
            inflight_bytes: inflight.bytes,
            per_model: self.registry.stats(),
        }
    }

    /// Coalescing statistics of the **default** model's engine (multi-model
    /// callers read every engine through [`DefenseServer::stats`]).
    pub fn engine_stats(&self) -> ensembler::EngineStats {
        self.registry.default_engine().stats()
    }

    /// Gracefully shuts the server down: stops accepting, lets every
    /// admitted request finish and deliver its response, then joins all
    /// connection threads and returns the final counters.
    ///
    /// In-flight batches are *drained*, never abandoned — a client whose
    /// request was admitted before shutdown began receives its complete,
    /// bit-identical response. Clients merely connected but idle are hung up
    /// on.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_accepting();
        self.draining.store(true, Ordering::SeqCst);
        // Unblock readers parked in `read`: shut the read half of every
        // connection. Threads mid-request keep computing and still write
        // their response (the write half stays open), then exit.
        for (_, stream) in self
            .connections
            .streams
            .lock()
            .expect("connection table mutex is never poisoned")
            .iter()
        {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .connections
                .handles
                .lock()
                .expect("connection table mutex is never poisoned"),
        );
        for handle in handles {
            let _ = handle.join();
        }
        self.stats()
    }

    /// Stops the accept loop and joins it (idempotent).
    fn stop_accepting(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection to ourselves.
        // A wildcard bind address (0.0.0.0 / ::) is not connectable on every
        // platform, so aim at the matching loopback instead.
        let mut unblock = self.local_addr;
        if unblock.ip().is_unspecified() {
            unblock.set_ip(match unblock.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(unblock);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DefenseServer {
    fn drop(&mut self) {
        // Dropping (without `shutdown`) only stops accepting: established
        // connections hold their own engine handles and drain naturally.
        self.stop_accepting();
    }
}

/// Refuses a connection that arrived over the [`AdmissionConfig`] limit:
/// reads (and discards) the client's hello first, then answers with a typed
/// `Overloaded` frame and hangs up. Reading first matters — closing a
/// socket with unread data in its receive queue resets the connection, and
/// a reset discards the error frame before the client can read it.
fn reject_connection(mut stream: TcpStream, stats: &ServerStatsCells, limit: u64) {
    stream.set_nodelay(true).ok();
    let brief = Some(std::time::Duration::from_millis(500));
    stream.set_read_timeout(brief).ok();
    stream.set_write_timeout(brief).ok();
    let _ = read_message(&mut stream, 512); // hello payloads are tiny
    send_error(
        &mut stream,
        stats,
        ErrorCode::Overloaded,
        format!("server is at its connection limit ({limit}); retry later"),
    );
}

/// Sends an error frame, counting it; I/O failures while reporting are
/// swallowed (the connection is going away regardless).
fn send_error(stream: &mut TcpStream, stats: &ServerStatsCells, code: ErrorCode, message: String) {
    stats.errors.fetch_add(1, Ordering::Relaxed);
    let _ = write_message(stream, &Message::Error(WireError { code, message }));
}

/// Maps a receive failure to the error frame the client should see.
fn receive_failure_report(error: &ServeError) -> Option<(ErrorCode, String)> {
    match error {
        // Disconnects (including clean EOF between frames) are not errors.
        ServeError::Io(_) => None,
        ServeError::Checksum { .. } => Some((ErrorCode::ChecksumMismatch, error.to_string())),
        ServeError::UnsupportedVersion { .. } => {
            Some((ErrorCode::UnsupportedVersion, error.to_string()))
        }
        _ => Some((ErrorCode::MalformedFrame, error.to_string())),
    }
}

/// Performs the handshake — an offer of at least [`PROTOCOL_VERSION`] is
/// acked at [`PROTOCOL_VERSION`], a lower one refused — and resolves the
/// model this connection serves: its *slot*, stable across hot swaps (each
/// request resolves the slot's current engine). `None` means the connection
/// should end (the error, if any, has been reported over the wire).
fn handshake(
    stream: &mut TcpStream,
    registry: &ModelRegistry,
    stats: &ServerStatsCells,
    draining: &AtomicBool,
    config: &ServerConfig,
) -> Result<Option<Arc<ModelSlot>>, ServeError> {
    let hello = match read_message(stream, config.max_payload_bytes) {
        Ok(Message::Hello(hello)) => hello,
        Ok(other) => {
            send_error(
                stream,
                stats,
                ErrorCode::UnexpectedMessage,
                format!("expected Hello, got {:?}", other.message_type()),
            );
            return Ok(None);
        }
        Err(error) => {
            match receive_failure_report(&error) {
                Some((code, message)) => send_error(stream, stats, code, message),
                // A read cut short by a draining shutdown must surface to
                // the client as a typed error, not a raw EOF/reset: the
                // write half is still open, so tell the peer to retry
                // elsewhere before hanging up.
                None if draining.load(Ordering::SeqCst) => send_error(
                    stream,
                    stats,
                    ErrorCode::Overloaded,
                    "server is draining for shutdown; retry against another replica".to_string(),
                ),
                None => {}
            }
            return Err(error);
        }
    };
    if hello.max_version < PROTOCOL_VERSION {
        send_error(
            stream,
            stats,
            ErrorCode::UnsupportedVersion,
            format!(
                "client speaks up to v{}, server speaks only v{PROTOCOL_VERSION}",
                hello.max_version
            ),
        );
        return Ok(None);
    }
    let Some(slot) = registry.resolve(hello.model.as_deref()) else {
        let requested = hello.model.as_deref().unwrap_or("<default>");
        send_error(
            stream,
            stats,
            ErrorCode::UnknownModel,
            format!(
                "model {requested:?} is not served here; available models: {}",
                registry.names().join(", ")
            ),
        );
        return Ok(None);
    };
    // The ack describes the primary version; swaps and canaries are
    // handshake-compatible by construction (the registry enforces it), so
    // the description stays true for the connection's whole life.
    let engine = slot.primary_engine();
    let defense = engine.defense();
    let ack = HelloAck {
        version: PROTOCOL_VERSION,
        label: defense.label().to_string(),
        ensemble_size: defense.ensemble_size() as u32,
        selected_count: defense.selected_count() as u32,
        // Echo the resolved name only to clients that asked by name.
        model: hello.model.as_ref().map(|_| slot.name().to_string()),
    };
    write_message(stream, &Message::HelloAck(ack))?;
    Ok(Some(slot))
}

/// The write side of one connection — the socket's write half and the frame
/// buffer every outgoing message is encoded into — shared by its reader
/// thread (error reports) and its writer thread (the answers).
#[derive(Clone)]
struct Responder {
    writer: Arc<Mutex<(TcpStream, Vec<u8>)>>,
    stats: Arc<ServerStatsCells>,
}

impl Responder {
    fn write(&self, message: &Message, request_id: Option<u64>) -> Result<(), ServeError> {
        let mut writer = self
            .writer
            .lock()
            .map_err(|_| ServeError::Protocol("connection write half poisoned".to_string()))?;
        let (stream, frame) = &mut *writer;
        write_tagged_into(stream, message, request_id, frame)
    }

    /// Sends a typed error frame, counting it: tagged with `request_id` when
    /// the failure is scoped to one request, untagged when it concerns the
    /// connection. I/O failures while reporting are swallowed.
    fn error(&self, request_id: Option<u64>, code: ErrorCode, message: String) {
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        let _ = self.write(&Message::Error(WireError { code, message }), request_id);
    }

    /// Answers one admitted request: releases its admission permit, then
    /// writes the response — or a typed per-request error, which keeps the
    /// connection alive for the next request — echoing the request's id.
    fn complete(
        &self,
        permit: AdmissionPermit,
        request_id: u64,
        result: Result<Maps, EnsemblerError>,
    ) -> Result<(), ServeError> {
        // Release before writing: a client that has its answer must already
        // see the budget freed (and itself in the stats).
        drop(permit);
        match result {
            Ok(maps) => {
                self.stats.requests.fetch_add(1, Ordering::Relaxed);
                self.write(&Message::from(maps), Some(request_id))
            }
            Err(error) => {
                self.error(Some(request_id), ErrorCode::Inference, error.to_string());
                Ok(())
            }
        }
    }
}

/// What an admitted request keeps alive until it is answered, held by
/// the connection — never by the engine worker computing the answer, which
/// is handed a ticket number and a channel.
struct InFlight {
    /// The id the client tagged the request with, echoed in the answer.
    request_id: u64,
    /// The request's hold on the admission budgets.
    permit: AdmissionPermit,
    /// Pins the engine the request was submitted to: a version that a
    /// registry swap just displaced stays alive until its answer is
    /// delivered, and its teardown (which joins its workers) runs on the
    /// connection thread releasing the last pin — never on the thread
    /// performing the swap, and never on one of those workers.
    engine: Arc<InferenceEngine<dyn Defense>>,
}

/// A connection's requests in flight, by ticket: the reader files an
/// entry *before* submitting the request, the writer takes it out when the
/// engine delivers that ticket's answer. Tickets are the connection's own
/// counter, so a client reusing a request id cannot alias two entries.
type InFlightTable = Mutex<HashMap<u64, InFlight>>;

/// Drives one connection: handshake, then the request loop against the model
/// the handshake pinned, with one writer thread answering its requests.
/// Every exit path past the handshake joins that writer,
/// which ends only once every in-flight request is answered; that is what
/// keeps the draining-shutdown guarantee: an admitted request always
/// delivers its response before the connection ends.
fn serve_connection(
    mut stream: TcpStream,
    registry: &ModelRegistry,
    stats: &Arc<ServerStatsCells>,
    admission: &Arc<Admission>,
    draining: &AtomicBool,
    config: ServerConfig,
) -> Result<(), ServeError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(config.read_timeout).ok();
    stream.set_write_timeout(config.write_timeout).ok();

    let Some(slot) = handshake(&mut stream, registry, stats, draining, &config)? else {
        return Ok(());
    };
    let respond = Responder {
        writer: Arc::new(Mutex::new((stream.try_clone()?, Vec::new()))),
        stats: Arc::clone(stats),
    };
    let inflight = Arc::new(InFlightTable::default());
    let (answers, answered) = channel();
    let writer = {
        let respond = respond.clone();
        let inflight = Arc::clone(&inflight);
        std::thread::spawn(move || writer_loop(&respond, &inflight, &answered))
    };
    let result = request_loop(
        &mut stream,
        &respond,
        &slot,
        admission,
        draining,
        &config,
        &inflight,
        &answers,
    );
    // The writer runs until every sender is gone: this one, and the one each
    // request in flight carries until the engine has answered it.
    drop(answers);
    let _ = writer.join();
    result
}

/// The connection's writer: answers requests as the engines deliver
/// their results — out of order whenever the work finishes out of order —
/// and is the only thread that blocks on this socket's write half for them.
/// An engine worker only ever sends on the channel, so a peer that stops
/// reading its responses stalls this thread (for at most
/// [`ServerConfig::write_timeout`] per write) and nothing else. After a failed
/// write the socket is shut down, which ends the reader too, and the
/// remaining answers are discarded as they arrive, releasing their permits
/// and engine pins.
fn writer_loop(respond: &Responder, inflight: &InFlightTable, answered: &Receiver<Tagged>) {
    let mut peer_gone = false;
    let mut answer = |entry: InFlight, result: Result<Maps, EnsemblerError>| {
        let InFlight {
            request_id,
            permit,
            engine,
        } = entry;
        if peer_gone {
            drop(permit);
        } else if respond.complete(permit, request_id, result).is_err() {
            peer_gone = true;
            if let Ok(writer) = respond.writer.lock() {
                let _ = writer.0.shutdown(Shutdown::Both);
            }
        }
        // The pin outlives the answer it guards.
        drop(engine);
    };
    let table = || {
        inflight
            .lock()
            .expect("in-flight table mutex is never poisoned")
    };
    for (ticket, result) in answered {
        let entry = table().remove(&ticket);
        if let Some(entry) = entry {
            answer(entry, result);
        }
    }
    // Every sender is gone. An entry still filed was dropped unanswered by
    // its engine (a worker that died mid-batch); its client is told so.
    let orphans = std::mem::take(&mut *table());
    for entry in orphans.into_values() {
        let dropped = EnsemblerError::Engine("worker dropped the request".to_string());
        answer(entry, Err(dropped));
    }
}

/// The one request loop. Each frame (read into one buffer the connection
/// keeps) becomes a [`ServerRequest`], passes admission, resolves its engine
/// from the slot (so a hot swap or canary change takes effect on the very
/// next request of an already-connected client) and is submitted *in arrival
/// order* on this reader thread, so coalescing sees pipelined requests in
/// sequence. It is handed to the engine with a ticket and the connection's
/// answer channel — no thread is created for it, and this thread never waits
/// for it; the writer answers it whenever the work finishes.
#[allow(clippy::too_many_arguments)]
fn request_loop(
    stream: &mut TcpStream,
    respond: &Responder,
    slot: &ModelSlot,
    admission: &Arc<Admission>,
    draining: &AtomicBool,
    config: &ServerConfig,
    inflight: &InFlightTable,
    answers: &Sender<Tagged>,
) -> Result<(), ServeError> {
    let budget = Arc::new(ConnectionBudget::default());
    let mut frame = Vec::new();
    let mut next_ticket = 0u64;
    loop {
        if draining.load(Ordering::SeqCst) {
            return Ok(());
        }
        let TaggedMessage {
            message,
            request_id,
        } = match read_tagged_into(stream, config.max_payload_bytes, &mut frame) {
            Ok(tagged) => tagged,
            Err(error) => {
                return match receive_failure_report(&error) {
                    // Framing errors — a request frame without an id among
                    // them — are connection-level: the report goes out
                    // untagged, which the client reads as "this connection
                    // is dead" and fails its in-flight requests with a typed
                    // error.
                    Some((code, message)) => {
                        respond.error(None, code, message);
                        Err(error)
                    }
                    None => Ok(()), // client disconnected (or shutdown drain)
                };
            }
        };
        let request = match ServerRequest::try_from(message) {
            Ok(request) => request,
            Err(Message::Error(_)) => return Ok(()), // client gave up; hang up
            Err(other) => {
                // Connection-level breach: reported untagged, then hang up
                // (in-flight requests still get their answers — the caller
                // joins the writer).
                respond.error(
                    None,
                    ErrorCode::UnexpectedMessage,
                    format!(
                        "expected ServerOutputsRequest, got {:?}",
                        other.message_type()
                    ),
                );
                return Ok(());
            }
        };
        // The decoder refuses a request frame without an id; should one ever
        // reach here it is the same connection-level error.
        let Some(request_id) = request_id else {
            let reason = "a request frame carries no request id".to_string();
            respond.error(None, ErrorCode::MalformedFrame, reason);
            return Ok(());
        };
        // A refusal is answered with a typed `Overloaded` frame carrying the
        // request's own id, so it fails only that request while the
        // connection and its other in-flight requests carry on.
        let permit = match admission.try_admit(&budget, request.features.payload_bytes()) {
            Ok(permit) => permit,
            Err(reason) => {
                respond.stats.rejected.fetch_add(1, Ordering::Relaxed);
                respond.error(Some(request_id), ErrorCode::Overloaded, reason);
                continue;
            }
        };
        // The canary split hashes the transmitted content, so the same
        // request always routes to the same version whatever connection or
        // retry carried it; without a canary nothing is hashed.
        let (engine, _) = slot.engine_for(|| route_key(request.features.content_bytes()));
        // A malformed shape from an untrusted peer must fail alone, never
        // poison a mini-batch it would share with other connections' requests.
        let shape_checked =
            check_feature_shape(request.features.shape(), engine.defense().config());
        let ticket = next_ticket;
        next_ticket += 1;
        let entry = InFlight {
            request_id,
            permit,
            engine: Arc::clone(&engine),
        };
        inflight
            .lock()
            .expect("in-flight table mutex is never poisoned")
            .insert(ticket, entry);
        // A request refused before the queue is answered the same way as one
        // the engine evaluated: through the writer.
        if let Err(error) = shape_checked.and_then(|()| engine.serve_to(request, ticket, answers)) {
            let _ = answers.send((ticket, Err(error)));
        }
    }
}
