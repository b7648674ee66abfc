//! Scatter-gather sharded serving for the Ensembler reproduction.
//!
//! The paper's server cost is `O(N)` in the ensemble size; one process
//! parallelises that across cores, this crate parallelises it across
//! *machines*. A [`ShardRouter`] implements [`ensembler::Defense`] by
//! fanning each `server_outputs` call out over the protocol's sub-range
//! requests of `ensembler-serve` to a pool of ordinary
//! [`ensembler_serve::DefenseServer`] workers — each holding the full
//! checkpoint but evaluating only the body slice `lo..hi` a [`Placement`]
//! assigns it — then merging the partial maps back into the full `N`-map
//! answer, bit-identical to a single-process evaluation.
//!
//! The router half of the deployment:
//!
//! * [`Placement`] / [`ShardSpec`] — which worker serves which body range,
//!   and whether its leg of the fan-out travels in `f32` or int8 frames;
//!   parsed from repeatable `--shard HOST:PORT=lo..hi[,int8]` flags or a
//!   placement file of the same one-shard-per-line syntax;
//! * [`ShardRouter`] — the fan-out/merge [`ensembler::Defense`], with one
//!   pooled multiplexed connection per worker, redialed on demand (under a
//!   capped exponential backoff) when a request finds it dead, and hedged
//!   retries (a duplicate request on a fresh connection once the primary
//!   stays silent past [`RouterConfig::hedge_after`], first response wins);
//! * [`ShardError`] — typed degradation: a worker that cannot serve its
//!   range fails the whole request with
//!   [`ShardError::ShardUnavailable`], never a silent partial sum;
//! * the `shard_router` binary — serves the merged pipeline behind a
//!   normal [`ensembler_serve::DefenseServer`], so clients connect to a
//!   router exactly as they would to a single worker.
//!
//! `docs/SERVING.md` covers topology, placement files and tuning.
//!
//! # Examples
//!
//! A two-worker loopback deployment in one process:
//!
//! ```
//! use ensembler::Defense;
//! use ensembler_serve::{demo_pipeline, DefenseServer, ServerConfig};
//! use ensembler_shard::{Placement, RouterConfig, ShardRouter};
//! use ensembler_tensor::Tensor;
//! use std::sync::Arc;
//!
//! let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(4, 2, 11)?);
//! let a = DefenseServer::bind(Arc::clone(&pipeline), "127.0.0.1:0", ServerConfig::default())?;
//! let b = DefenseServer::bind(Arc::clone(&pipeline), "127.0.0.1:0", ServerConfig::default())?;
//!
//! let placement = Placement::parse(
//!     &[
//!         format!("{}=0..2", a.local_addr()),
//!         format!("{}=2..4", b.local_addr()),
//!     ],
//!     pipeline.ensemble_size(),
//! )?;
//! let router = ShardRouter::new(Arc::clone(&pipeline), placement, RouterConfig::default())?;
//!
//! let images = Tensor::ones(&[1, 3, 16, 16]);
//! // The scatter-gather answer is bit-identical to the single process.
//! assert_eq!(router.predict(&images)?, pipeline.predict(&images)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use ensembler::{
    check_body_range, Defense, EnsemblerError, Features, Maps, Precision, QuantizedDefense,
    ServerRequest,
};
use ensembler_nn::models::ResNetConfig;
use ensembler_nn::Sequential;
use ensembler_serve::{RemoteDefense, ServeError};
use ensembler_tensor::Tensor;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Everything that can go wrong assembling or running a sharded deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard flag, placement file or placement as a whole is invalid
    /// (syntax errors, ranges that overlap or leave bodies unserved).
    Placement(String),
    /// A worker could not serve its body range: it is down, in reconnect
    /// backoff, or failed the request and its immediate retry. The router
    /// fails the whole request with this typed error — it never returns a
    /// silent partial merge.
    ShardUnavailable {
        /// The worker's address, as given in the placement.
        addr: String,
        /// First body index the worker was responsible for (inclusive).
        lo: usize,
        /// One past the last body index the worker was responsible for.
        hi: usize,
        /// What actually failed (connect error, wire error, retry error).
        reason: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Placement(msg) => write!(f, "invalid placement: {msg}"),
            ShardError::ShardUnavailable {
                addr,
                lo,
                hi,
                reason,
            } => write!(
                f,
                "shard {addr} serving bodies {lo}..{hi} is unavailable: {reason}"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ShardError> for EnsemblerError {
    /// Collapses a sharding failure into [`EnsemblerError::Transport`] so
    /// [`ShardRouter`] can satisfy the [`Defense`] signatures.
    fn from(e: ShardError) -> Self {
        EnsemblerError::Transport(e.to_string())
    }
}

/// One worker of a [`Placement`]: an address, the body range it serves, and
/// the wire precision of its leg of the fan-out.
///
/// # Examples
///
/// ```
/// use ensembler_shard::ShardSpec;
///
/// let spec = ShardSpec::parse("10.0.0.7:7000=4..8,int8")?;
/// assert_eq!(spec.addr, "10.0.0.7:7000");
/// assert_eq!((spec.lo, spec.hi), (4, 8));
/// assert!(spec.quantized);
/// assert_eq!(spec.to_string(), "10.0.0.7:7000=4..8,int8");
/// # Ok::<(), ensembler_shard::ShardError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// `HOST:PORT` of the worker's `DefenseServer`.
    pub addr: String,
    /// First server body index placed on this worker (inclusive).
    pub lo: usize,
    /// One past the last server body index placed on this worker.
    pub hi: usize,
    /// Ship this worker int8 (quantized) frames instead of `f32` ones. The
    /// worker must then serve the int8 pipeline
    /// ([`ensembler::QuantizedDefense`]) of the same checkpoint.
    pub quantized: bool,
}

impl ShardSpec {
    /// Parses the `HOST:PORT=lo..hi[,int8]` syntax of the `--shard` flag
    /// (and of placement-file lines).
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Placement`] describing the malformed part.
    pub fn parse(spec: &str) -> Result<Self, ShardError> {
        let bad = |why: &str| ShardError::Placement(format!("{why} in shard spec {spec:?}"));
        let (addr, rest) = spec
            .split_once('=')
            .ok_or_else(|| bad("expected HOST:PORT=lo..hi[,int8]"))?;
        if addr.is_empty() || !addr.contains(':') {
            return Err(bad("worker address must look like HOST:PORT"));
        }
        let mut parts = rest.split(',');
        let range = parts.next().unwrap_or("");
        let (lo, hi) = range
            .split_once("..")
            .ok_or_else(|| bad("body range must look like lo..hi"))?;
        let lo: usize = lo.parse().map_err(|_| bad("range start is not a number"))?;
        let hi: usize = hi.parse().map_err(|_| bad("range end is not a number"))?;
        if lo >= hi {
            return Err(bad("body range is empty"));
        }
        let mut quantized = false;
        for option in parts {
            match option.trim() {
                "int8" => quantized = true,
                other => {
                    return Err(ShardError::Placement(format!(
                        "unknown shard option {other:?} in {spec:?} (supported: int8)"
                    )))
                }
            }
        }
        Ok(Self {
            addr: addr.to_string(),
            lo,
            hi,
            quantized,
        })
    }
}

impl std::fmt::Display for ShardSpec {
    /// The flag syntax back, so `parse` ∘ `to_string` is the identity.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}..{}", self.addr, self.lo, self.hi)?;
        if self.quantized {
            write!(f, ",int8")?;
        }
        Ok(())
    }
}

/// A complete assignment of an `N`-body ensemble to workers: every body
/// index in `0..N` is served by exactly one shard.
///
/// Shards are kept sorted by their range, so merged partial results
/// concatenate back into index order.
///
/// # Examples
///
/// ```
/// use ensembler_shard::Placement;
///
/// let placement = Placement::parse(
///     &["127.0.0.1:7001=0..2".to_string(), "127.0.0.1:7002=2..4,int8".to_string()],
///     4,
/// )?;
/// assert_eq!(placement.shards().len(), 2);
///
/// // The file form round-trips (one shard per line, same syntax).
/// let text = placement.to_config_string();
/// assert_eq!(Placement::from_config_str(&text, 4)?, placement);
///
/// // Gaps and overlaps are rejected.
/// assert!(Placement::parse(&["127.0.0.1:7001=0..3".to_string()], 4).is_err());
/// # Ok::<(), ensembler_shard::ShardError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    shards: Vec<ShardSpec>,
    ensemble_size: usize,
}

impl Placement {
    /// Validates that `shards` tile `0..ensemble_size` exactly — no body
    /// unserved, none served twice.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Placement`] naming the first gap or overlap.
    pub fn new(mut shards: Vec<ShardSpec>, ensemble_size: usize) -> Result<Self, ShardError> {
        if shards.is_empty() {
            return Err(ShardError::Placement(
                "a placement needs at least one shard".to_string(),
            ));
        }
        shards.sort_by_key(|s| (s.lo, s.hi));
        let mut covered = 0usize;
        for shard in &shards {
            if shard.lo != covered {
                return Err(ShardError::Placement(format!(
                    "bodies {covered}..{} are {} (shard {} starts at {})",
                    shard.lo.max(covered),
                    if shard.lo > covered {
                        "unserved"
                    } else {
                        "served twice"
                    },
                    shard.addr,
                    shard.lo
                )));
            }
            covered = shard.hi;
        }
        if covered != ensemble_size {
            return Err(ShardError::Placement(format!(
                "shards cover bodies 0..{covered} of an ensemble of {ensemble_size}"
            )));
        }
        Ok(Self {
            shards,
            ensemble_size,
        })
    }

    /// Parses one `HOST:PORT=lo..hi[,int8]` spec per element (the
    /// repeatable `--shard` flag) and validates the tiling.
    ///
    /// # Errors
    ///
    /// As for [`ShardSpec::parse`] and [`Placement::new`].
    pub fn parse(specs: &[String], ensemble_size: usize) -> Result<Self, ShardError> {
        let shards = specs
            .iter()
            .map(|spec| ShardSpec::parse(spec))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(shards, ensemble_size)
    }

    /// Parses a placement file: one shard spec per line, blank lines and
    /// `#` comments ignored.
    ///
    /// # Errors
    ///
    /// As for [`Placement::parse`].
    pub fn from_config_str(text: &str, ensemble_size: usize) -> Result<Self, ShardError> {
        let shards = text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(ShardSpec::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(shards, ensemble_size)
    }

    /// Serializes to the placement-file form [`Placement::from_config_str`]
    /// parses: one shard per line in range order.
    pub fn to_config_string(&self) -> String {
        let mut text = String::from("# shard placement: HOST:PORT=lo..hi[,int8]\n");
        for shard in &self.shards {
            text.push_str(&shard.to_string());
            text.push('\n');
        }
        text
    }

    /// The shards, sorted by body range.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// The ensemble size `N` this placement tiles.
    pub fn ensemble_size(&self) -> usize {
        self.ensemble_size
    }
}

/// First delay after a failed dial before that worker may be dialed again;
/// it doubles per consecutive failure.
const INITIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Cap on the doubling reconnect backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

/// The tuning knob of a [`ShardRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Fire a hedged duplicate request on a *fresh* connection once a
    /// worker's primary exchange has stayed silent this long; the first
    /// response wins and the loser's late response is discarded (it is
    /// routed by its request id, so it can never be read as the answer to a
    /// later request). `None` disables hedging.
    pub hedge_after: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            hedge_after: Some(Duration::from_millis(500)),
        }
    }
}

/// Counters for one worker of a [`ShardRouter`], as
/// [`ShardRouter::shard_stats`] reports them.
///
/// # Examples
///
/// ```
/// use ensembler_shard::ShardStats;
///
/// let shard = ShardStats {
///     addr: "10.0.0.7:7000".to_string(),
///     lo: 4,
///     hi: 8,
///     quantized: true,
///     healthy: true,
///     requests: 128,
///     hedges_fired: 3,
///     health_flaps: 1,
/// };
/// assert_eq!(shard.hi - shard.lo, 4); // four bodies placed on this worker
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// The worker's address, as given in the placement.
    pub addr: String,
    /// First server body index placed on this worker (inclusive).
    pub lo: u32,
    /// One past the last server body index placed on this worker.
    pub hi: u32,
    /// Whether the router ships this worker quantized (int8) frames.
    pub quantized: bool,
    /// Whether the router's last contact with the worker — a dial or a
    /// range request — reached it. Nothing probes an idle worker, so this is
    /// as fresh as the last request sent to it.
    pub healthy: bool,
    /// Range requests this worker has answered successfully.
    pub requests: u64,
    /// Hedged duplicate requests fired at this worker after the primary
    /// exchange stayed silent past the hedge threshold.
    pub hedges_fired: u64,
    /// Healthy↔unhealthy transitions observed by requests and dials.
    pub health_flaps: u64,
}

/// Reconnect throttling for one worker: the next allowed dial time and the
/// current (doubling) delay.
#[derive(Debug)]
struct Backoff {
    delay: Duration,
    blocked_until: Option<Instant>,
}

/// The router's view of one worker: its spec, the local replica its
/// connections validate against, the pooled (shared, multiplexed)
/// connection, and counters.
struct WorkerLink {
    spec: ShardSpec,
    replica: Arc<dyn Defense>,
    conn: Mutex<Option<Arc<RemoteDefense>>>,
    healthy: AtomicBool,
    requests: AtomicU64,
    hedges: AtomicU64,
    flaps: AtomicU64,
    backoff: Mutex<Backoff>,
}

impl std::fmt::Debug for WorkerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerLink")
            .field("spec", &self.spec)
            .field("healthy", &self.healthy.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl WorkerLink {
    fn new(spec: ShardSpec, replica: Arc<dyn Defense>) -> Self {
        Self {
            spec,
            replica,
            conn: Mutex::new(None),
            healthy: AtomicBool::new(true),
            requests: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            flaps: AtomicU64::new(0),
            backoff: Mutex::new(Backoff {
                delay: INITIAL_BACKOFF,
                blocked_until: None,
            }),
        }
    }

    fn unavailable(&self, reason: impl Into<String>) -> ShardError {
        ShardError::ShardUnavailable {
            addr: self.spec.addr.clone(),
            lo: self.spec.lo,
            hi: self.spec.hi,
            reason: reason.into(),
        }
    }

    /// The pooled-connection slot, locked.
    fn pool(&self) -> MutexGuard<'_, Option<Arc<RemoteDefense>>> {
        self.conn
            .lock()
            .expect("connection mutex is never poisoned")
    }

    /// The reconnect backoff, locked.
    fn backoff(&self) -> MutexGuard<'_, Backoff> {
        self.backoff
            .lock()
            .expect("backoff mutex is never poisoned")
    }

    /// The pooled multiplexed connection, dialed only when the slot is
    /// empty. The slot stays locked across the dial, so callers that find it
    /// empty at once share one dial instead of each opening a socket.
    fn connection(&self) -> Result<Arc<RemoteDefense>, ShardError> {
        let mut slot = self.pool();
        if let Some(conn) = &*slot {
            return Ok(Arc::clone(conn));
        }
        let conn = self.dial()?;
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Records a served request. The winning connection is usually the
    /// still-pooled shared one; only a connection that won over an empty slot
    /// (a hedge, a retry) needs pooling.
    fn note_served(&self, conn: Arc<RemoteDefense>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.note_health(true);
        self.pool().get_or_insert(conn);
    }

    /// Records an observed health state, counting the transition.
    fn note_health(&self, healthy: bool) {
        if self.healthy.swap(healthy, Ordering::SeqCst) != healthy {
            self.flaps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Opens a new connection to the worker — the one place the router
    /// dials, for the pool ([`WorkerLink::connection`]), a hedge and a retry
    /// alike. Inside the reconnect backoff window this fails at once (so a
    /// dead worker costs one failed dial per backoff period, not one per
    /// request), and each consecutive failure doubles the window up to
    /// [`MAX_BACKOFF`].
    fn dial(&self) -> Result<Arc<RemoteDefense>, ShardError> {
        let blocked_until = self.backoff().blocked_until;
        if let Some(until) = blocked_until {
            let left = until.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                return Err(self.unavailable(format!("in reconnect backoff for {left:?} more")));
            }
        }
        match RemoteDefense::connect(Arc::clone(&self.replica), self.spec.addr.as_str()) {
            Ok(conn) => {
                *self.backoff() = Backoff {
                    delay: INITIAL_BACKOFF,
                    blocked_until: None,
                };
                self.note_health(true);
                Ok(Arc::new(conn))
            }
            Err(error) => {
                let mut backoff = self.backoff();
                backoff.blocked_until = Some(Instant::now() + backoff.delay);
                backoff.delay = (backoff.delay * 2).min(MAX_BACKOFF);
                drop(backoff);
                self.note_health(false);
                Err(self.unavailable(format!("connect failed: {error}")))
            }
        }
    }
}

/// Which exchange of one leg an answer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Attempt {
    /// The first exchange, on the pooled connection.
    Primary,
    /// The duplicate fired on a fresh connection once the primary stayed
    /// silent past [`RouterConfig::hedge_after`].
    Hedge,
    /// The one reconnect-and-retry after the leg's first answer was an error.
    Retry,
}

/// One answer on a scatter's channel: the leg (its index among the legs
/// sent) and attempt it belongs to, and the outcome.
type LegAnswer = (usize, Attempt, Result<Maps, ServeError>);

/// A scatter's exchanges in flight: the channel their answers arrive on, and
/// the connection each attempt went out on until its answer arrives. The
/// scatter holds the connections, never a sink, so the last handle of one is
/// released on the caller's thread and not on its own demultiplexer.
struct Gather {
    answers: mpsc::Sender<LegAnswer>,
    carriers: HashMap<(usize, Attempt), Arc<RemoteDefense>>,
}

impl Gather {
    /// Puts one exchange of leg `index` on the wire, from the calling thread,
    /// and keeps the connection it went out on. The pooled connection is
    /// *shared*: concurrent router callers clone its handle and multiplex
    /// their exchanges over the one (protocol-v5) socket per worker, each
    /// response finding its caller by request id — no per-caller dialing, no
    /// frame interleaving hazard, and no thread per leg: the connection's
    /// demultiplexer delivers the answer.
    fn send_leg(
        &mut self,
        index: usize,
        attempt: Attempt,
        conn: Arc<RemoteDefense>,
        request: ServerRequest,
    ) {
        let answers = self.answers.clone();
        conn.exchange_to(request, move |result| {
            // A late loser finds the receiver gone.
            let _ = answers.send((index, attempt, result));
        });
        self.carriers.insert((index, attempt), conn);
    }
}

/// Where one leg of a scatter stands.
enum Leg {
    /// Primary (and perhaps a hedge) outstanding; the first answer decides.
    Waiting,
    /// The first answer was this error; the retry's answer is final.
    Retrying(ServeError),
    /// Answered.
    Done(Maps),
}

/// A [`Defense`] that scatters `server_outputs` over a worker pool and
/// gathers the partial maps back into the full answer.
///
/// The client-side stages (`client_features`, the secret selector,
/// `classify`) stay on the local replica; only the body evaluation fans
/// out. See the crate docs for a complete loopback example.
#[derive(Debug)]
pub struct ShardRouter {
    client: Arc<dyn Defense>,
    links: Vec<WorkerLink>,
    config: RouterConfig,
}

impl ShardRouter {
    /// Connects to every worker of `placement` and validates each handshake
    /// against the local replica: `client` itself for `f32` shards, the
    /// int8 pipeline [`QuantizedDefense::quantize`] derives from it for
    /// `int8` shards.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::Placement`] when the placement does not tile
    /// `client`'s ensemble, and [`ShardError::ShardUnavailable`] when a
    /// worker cannot be reached or serves a different pipeline.
    pub fn new(
        client: Arc<dyn Defense>,
        placement: Placement,
        config: RouterConfig,
    ) -> Result<Self, ShardError> {
        if placement.ensemble_size() != client.ensemble_size() {
            return Err(ShardError::Placement(format!(
                "placement tiles an ensemble of {}, the client pipeline has {} bodies",
                placement.ensemble_size(),
                client.ensemble_size()
            )));
        }
        let quantized_replica: Option<Arc<dyn Defense>> =
            if placement.shards().iter().any(|s| s.quantized) {
                Some(Arc::new(QuantizedDefense::quantize(Arc::clone(&client))))
            } else {
                None
            };
        let links: Vec<WorkerLink> = placement
            .shards()
            .iter()
            .map(|spec| {
                let replica = if spec.quantized {
                    Arc::clone(
                        quantized_replica
                            .as_ref()
                            .expect("int8 shard implies a quantized replica"),
                    )
                } else {
                    Arc::clone(&client)
                };
                WorkerLink::new(spec.clone(), replica)
            })
            .collect();
        // Eager connect: a misconfigured deployment (wrong worker, wrong
        // checkpoint, wrong precision) fails at construction, not on the
        // first request. The handshake cross-checks label, N and P.
        for link in &links {
            link.connection()?;
        }
        Ok(Self {
            client,
            links,
            config,
        })
    }

    /// Per-worker counters (requests, hedges fired, health flaps) in
    /// placement order — what the `shard_router` binary logs beside its
    /// frontend server's [`ensembler_serve::ServerStats`].
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.links
            .iter()
            .map(|link| ShardStats {
                addr: link.spec.addr.clone(),
                lo: link.spec.lo as u32,
                hi: link.spec.hi as u32,
                quantized: link.spec.quantized,
                healthy: link.healthy.load(Ordering::SeqCst),
                requests: link.requests.load(Ordering::Relaxed),
                hedges_fired: link.hedges.load(Ordering::Relaxed),
                health_flaps: link.flaps.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Scatters one request for the bodies `range` — a leg to each worker
    /// whose placed range meets it, asking for the overlap on
    /// `features_for` that worker — and gathers the partial maps in
    /// placement order, with hedging and one reconnect retry per leg.
    ///
    /// Every leg is written from this thread, then all of them (and their
    /// hedges and retries) are awaited on one channel: the first wait is
    /// bounded by [`RouterConfig::hedge_after`], after which every leg still
    /// silent gets a duplicate on a fresh connection and whichever exchange
    /// of a leg answers first decides it. The first leg to fail for good
    /// fails the whole request with a typed [`ShardError`].
    fn scatter(
        &self,
        range: Range<usize>,
        features_for: impl Fn(&ShardSpec) -> Features,
    ) -> Result<Vec<Maps>, ShardError> {
        let (answers, gathered) = mpsc::channel::<LegAnswer>();
        let mut gather = Gather {
            answers,
            carriers: HashMap::new(),
        };
        // The legs sent, by leg index: the worker and the request it got.
        let mut sent = Vec::new();
        for link in &self.links {
            let (lo, hi) = (link.spec.lo.max(range.start), link.spec.hi.min(range.end));
            if lo >= hi {
                continue;
            }
            let request = ServerRequest::ranged(lo..hi, features_for(&link.spec));
            let conn = link.connection()?;
            gather.send_leg(sent.len(), Attempt::Primary, conn, request.clone());
            sent.push((link, request));
        }

        let mut legs: Vec<Leg> = sent.iter().map(|_| Leg::Waiting).collect();
        let mut outstanding = legs.len();
        let mut hedge_at = self.config.hedge_after.map(|delay| Instant::now() + delay);
        while outstanding > 0 {
            // This thread holds a sender, so the channel cannot disconnect:
            // no answer means the hedge threshold passed.
            let answer = match hedge_at {
                Some(deadline) => gathered
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .ok(),
                None => Some(gathered.recv().expect("this thread holds a sender")),
            };
            let Some((index, attempt, result)) = answer else {
                // The hedge threshold passed: every leg still silent gets a
                // duplicate on a fresh connection (never the same socket —
                // the primary's response is still owed on it).
                hedge_at = None;
                for (index, (link, request)) in sent.iter().enumerate() {
                    if matches!(legs[index], Leg::Waiting) {
                        link.hedges.fetch_add(1, Ordering::Relaxed);
                        if let Ok(fresh) = link.dial() {
                            gather.send_leg(index, Attempt::Hedge, fresh, request.clone());
                        }
                    }
                }
                continue;
            };
            let conn = gather
                .carriers
                .remove(&(index, attempt))
                .expect("every answer comes from an attempt that was sent");
            let (link, request) = &sent[index];
            // Anything else is the loser of a leg already decided: on the
            // shared multiplexed connection its late response was routed by
            // request id and is discarded here, never mistaken for a later
            // answer.
            if !matches!(
                (&legs[index], attempt),
                (Leg::Waiting, Attempt::Primary | Attempt::Hedge)
                    | (Leg::Retrying(_), Attempt::Retry)
            ) {
                continue;
            }
            match result {
                Ok(maps) => {
                    link.note_served(conn);
                    legs[index] = Leg::Done(maps);
                    outstanding -= 1;
                }
                Err(retry_error) if attempt == Attempt::Retry => {
                    link.note_health(false);
                    let Leg::Retrying(error) = &legs[index] else {
                        unreachable!("a retry answers a retrying leg")
                    };
                    return Err(link.unavailable(format!("{error}; retry failed: {retry_error}")));
                }
                Err(error) => {
                    // A transport failure poisons the shared socket for every
                    // caller: evict it from the pool (if some other caller
                    // has not already replaced it) so nobody else
                    // multiplexes onto a dead connection. A typed
                    // per-request rejection (`ServeError::Remote`, e.g.
                    // `Overloaded`) leaves the connection healthy — other
                    // in-flight exchanges on it are unharmed — so it stays
                    // pooled.
                    if !matches!(error, ServeError::Remote(_)) {
                        let mut slot = link.pool();
                        if slot
                            .as_ref()
                            .is_some_and(|pooled| Arc::ptr_eq(pooled, &conn))
                        {
                            *slot = None;
                        }
                        drop(slot);
                        link.note_health(false);
                    }
                    drop(conn);
                    // One immediate reconnect-and-retry covers a worker that
                    // was restarted between requests; anything more is a
                    // typed ShardUnavailable for the caller.
                    let fresh = link.dial().map_err(|retry| {
                        link.unavailable(format!("{error}; reconnect failed: {retry}"))
                    })?;
                    gather.send_leg(index, Attempt::Retry, fresh, request.clone());
                    legs[index] = Leg::Retrying(error);
                }
            }
        }
        Ok(legs
            .into_iter()
            .map(|leg| match leg {
                Leg::Done(maps) => maps,
                _ => unreachable!("the gather loop ends when every leg is done"),
            })
            .collect())
    }
}

impl Defense for ShardRouter {
    fn config(&self) -> &ResNetConfig {
        self.client.config()
    }

    fn label(&self) -> &str {
        self.client.label()
    }

    /// The local replica's bodies (under the threat model the adversary
    /// owns the server weights wherever they are placed).
    fn server_bodies(&self) -> &[Sequential] {
        self.client.server_bodies()
    }

    fn selected_count(&self) -> usize {
        self.client.selected_count()
    }

    fn precision(&self) -> Precision {
        self.client.precision()
    }

    fn client_features(&self, images: &Tensor) -> Result<Tensor, EnsemblerError> {
        self.client.client_features(images)
    }

    /// The scatter-gather evaluation: each worker whose placed range meets
    /// the request's evaluates the overlap — int8 shards over quantized
    /// frames against the derived int8 pipeline, `f32` shards on the payload
    /// as it is — and the partial maps concatenate back into index order at
    /// the payload's precision. With an all-`f32` placement the merged
    /// answer is bit-identical to `client.serve`; an int8 shard contributes
    /// exactly what the int8 pipeline would contribute for its indices.
    fn serve(&self, request: &ServerRequest) -> Result<Maps, EnsemblerError> {
        let bodies = self.client.ensemble_size();
        let range = request.range.clone().unwrap_or(0..bodies);
        check_body_range(range.start, range.end, bodies)?;
        let payload = request.features.precision();
        let partials = self.scatter(range, |spec| {
            let wire = if spec.quantized {
                Precision::Int8
            } else {
                payload
            };
            request.features.to_precision(wire).into_owned()
        })?;
        let mut partials = partials
            .into_iter()
            .map(|partial| partial.into_precision(payload));
        let mut merged = partials.next().expect("a placement has a shard");
        for partial in partials {
            merged.append(partial)?;
        }
        Ok(merged)
    }

    fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
        self.client.classify(server_maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_specs_parse_and_round_trip() {
        let spec = ShardSpec::parse("127.0.0.1:7001=0..4").unwrap();
        assert_eq!(
            spec,
            ShardSpec {
                addr: "127.0.0.1:7001".to_string(),
                lo: 0,
                hi: 4,
                quantized: false,
            }
        );
        let spec = ShardSpec::parse("host.example:9=2..3,int8").unwrap();
        assert!(spec.quantized);
        assert_eq!(ShardSpec::parse(&spec.to_string()).unwrap(), spec);

        for bad in [
            "no-equals",
            "noport=0..2",
            "=0..2",
            "h:1=2",
            "h:1=x..2",
            "h:1=0..y",
            "h:1=3..3",
            "h:1=4..2",
            "h:1=0..2,int7",
        ] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn placements_must_tile_the_ensemble_exactly() {
        let spec = |s: &str| ShardSpec::parse(s).unwrap();
        assert!(Placement::new(vec![spec("a:1=0..2"), spec("b:1=2..4")], 4).is_ok());
        // Unsorted input is fine; the placement sorts by range.
        let placement = Placement::new(vec![spec("b:1=2..4"), spec("a:1=0..2")], 4).unwrap();
        assert_eq!(placement.shards()[0].addr, "a:1");

        let gap = Placement::new(vec![spec("a:1=0..1"), spec("b:1=2..4")], 4).unwrap_err();
        assert!(gap.to_string().contains("unserved"), "{gap}");
        let overlap = Placement::new(vec![spec("a:1=0..3"), spec("b:1=2..4")], 4).unwrap_err();
        assert!(overlap.to_string().contains("served twice"), "{overlap}");
        let short = Placement::new(vec![spec("a:1=0..3")], 4).unwrap_err();
        assert!(short.to_string().contains("0..3"), "{short}");
        let long = Placement::new(vec![spec("a:1=0..5")], 4).unwrap_err();
        assert!(long.to_string().contains("ensemble of 4"), "{long}");
        assert!(Placement::new(vec![], 4).is_err());
    }

    #[test]
    fn placement_files_round_trip_with_comments() {
        let text = "# router placement\n\n127.0.0.1:7001=0..2\n  127.0.0.1:7002=2..4,int8  \n";
        let placement = Placement::from_config_str(text, 4).unwrap();
        assert_eq!(placement.shards().len(), 2);
        assert!(placement.shards()[1].quantized);
        assert_eq!(
            Placement::from_config_str(&placement.to_config_string(), 4).unwrap(),
            placement
        );
    }

    #[test]
    fn shard_errors_are_typed_and_informative() {
        let err = ShardError::ShardUnavailable {
            addr: "10.0.0.7:7000".to_string(),
            lo: 4,
            hi: 8,
            reason: "connection refused".to_string(),
        };
        assert!(err.to_string().contains("10.0.0.7:7000"));
        assert!(err.to_string().contains("4..8"));
        let transport: EnsemblerError = err.into();
        assert!(matches!(transport, EnsemblerError::Transport(_)));
    }
}
