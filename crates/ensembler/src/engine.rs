//! A concurrent inference engine over any [`Defense`]: request coalescing,
//! mini-batching and parallel server fan-out from a shared pipeline.
//!
//! This module is the end-to-end demonstration of the paper's deployment
//! argument (Sec. III-D): the `O(N)` server cost of Ensembler "parallelises
//! away" because the `N` bodies are independent. The redesigned [`Defense`]
//! trait makes that concrete — inference takes `&self`, so one pipeline
//! behind an `Arc` can serve many clients at once:
//!
//! * callers submit single `[C, H, W]` images from any thread via
//!   [`InferenceEngine::predict_one`], or single-sample server-stage
//!   requests — one [`ServerRequest`] shape for every precision and body
//!   range — via [`InferenceEngine::serve_begin`] (the unit the networked
//!   `DefenseServer` in `crates/serve` forwards for remote clients);
//! * worker threads coalesce queued work into mini-batches of up to
//!   `max_batch` items — whatever is queued when a worker becomes free, never
//!   a wait for company — grouped so that only requests of one precision and
//!   one range stack;
//! * each group runs one [`Defense::predict`] (or one [`Defense::serve`]),
//!   inside which the `N` server bodies fan out over the machine's cores
//!   ([`ensembler_tensor::par_map`]).
//!
//! # Examples
//!
//! ```
//! use ensembler::{DefenseKind, EngineConfig, InferenceEngine, SinglePipeline};
//! use ensembler_nn::models::ResNetConfig;
//! use ensembler_tensor::Tensor;
//! use std::sync::Arc;
//!
//! let pipeline = Arc::new(SinglePipeline::new(
//!     ResNetConfig::tiny_for_tests(),
//!     DefenseKind::NoDefense,
//!     1,
//! )?);
//! let engine = InferenceEngine::new(pipeline, EngineConfig::default())?;
//! let logits = engine.predict_one(Tensor::ones(&[3, 8, 8]))?;
//! assert_eq!(logits.shape(), &[3]); // tiny_for_tests has 3 classes
//! # Ok::<(), ensembler::EnsemblerError>(())
//! ```

use crate::defense::{Defense, Precision};
use crate::request::{Features, Maps, ServerRequest};
use crate::EnsemblerError;
use ensembler_tensor::Tensor;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Tuning knobs of an [`InferenceEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Maximum number of single-image requests coalesced into one batch.
    pub max_batch: usize,
    /// Number of worker threads executing batches concurrently.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            workers: 1,
        }
    }
}

/// Counters describing what an engine has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Single-image requests answered.
    pub requests_served: u64,
    /// Mini-batches executed.
    pub batches_executed: u64,
    /// Largest batch that was coalesced.
    pub max_batch_observed: u64,
    /// Requests submitted but not yet drained into a worker's mini-batch at
    /// snapshot time. A persistently non-zero depth means the workers cannot
    /// keep up with the arrival rate — the signal the serving layer's
    /// admission control watches for (see `docs/SERVING.md`).
    pub queue_depth: u64,
}

impl EngineStats {
    /// Mean number of requests per executed batch.
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches_executed == 0 {
            0.0
        } else {
            self.requests_served as f64 / self.batches_executed as f64
        }
    }
}

/// One engine answer as it arrives on a caller-supplied channel
/// ([`InferenceEngine::serve_to`]): the tag the request was submitted under,
/// and its result.
pub type Tagged<T> = (u64, Result<T, EnsemblerError>);

/// A submitted-but-not-yet-answered engine request: the completion half of
/// the split submit/wait API ([`InferenceEngine::serve_begin`],
/// [`InferenceEngine::predict_begin`]).
///
/// The blocking `*_one` methods are `*_begin(…)?.wait()`. Splitting the two
/// halves lets one thread enqueue many requests in arrival order — so they
/// coalesce into shared mini-batches — and collect the answers afterwards. A
/// caller with many requests in flight (the networked server's connections)
/// uses [`InferenceEngine::serve_to`] instead and receives every answer on
/// one channel. Dropping a `Pending` abandons the request: the worker's
/// answer simply finds no receiver.
#[derive(Debug)]
pub struct Pending<T> {
    receive: Receiver<Tagged<T>>,
}

impl<T> Pending<T> {
    /// Blocks until the worker pool answers this request.
    ///
    /// # Errors
    ///
    /// Returns the evaluation's own error, or [`EnsemblerError::Engine`] if
    /// the engine shut down before answering.
    pub fn wait(self) -> Result<T, EnsemblerError> {
        self.receive
            .recv()
            .map_err(|_| EnsemblerError::Engine("worker dropped the request".to_string()))?
            .1
    }
}

#[derive(Debug, Default)]
struct StatsCells {
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    queued: AtomicU64,
}

/// Where a worker delivers one answer: a tag and a channel, nothing else. A
/// worker can therefore never end up holding — and dropping — the last
/// handle to its own engine (whose `Drop` joins that worker): whatever keeps
/// an engine alive for a request in flight stays with the submitter, keyed
/// by the tag.
struct Respond<T> {
    tag: u64,
    sink: Sender<Tagged<T>>,
}

impl<T> Respond<T> {
    /// A responder paired with the [`Pending`] that awaits it.
    fn pending() -> (Self, Pending<T>) {
        let (sink, receive) = channel();
        (Self { tag: 0, sink }, Pending { receive })
    }

    /// Delivers the answer; a requester that gave up is skipped silently.
    fn send(self, result: Result<T, EnsemblerError>) {
        let _ = self.sink.send((self.tag, result));
    }
}

/// One queued unit of work. Both kinds share one queue; a worker partitions
/// each drained batch into groups that may be stacked together before
/// executing it.
enum Work {
    /// A single image awaiting class logits ([`InferenceEngine::predict_one`]).
    Predict {
        image: Tensor,
        respond: Respond<Tensor>,
    },
    /// A single-sample [`ServerRequest`] awaiting its [`Maps`]
    /// ([`InferenceEngine::serve_begin`]) — the unit the networked
    /// `DefenseServer` submits on behalf of remote clients. Requests coalesce
    /// only with requests of the same precision *and* the same body range,
    /// so a mini-batch is always answered by one [`Defense::serve`] call.
    Serve {
        request: ServerRequest,
        respond: Respond<Maps>,
    },
}

/// A pre-assembled `[B, C, H, W]` request ([`InferenceEngine::serve_to`]) and
/// where its answer goes. It has nothing to gain from coalescing, so it
/// bypasses the queue for a lane of its own: however long a batch takes, it
/// never holds up the single-sample requests behind it.
type Batch = (ServerRequest, Respond<Maps>);

/// The batch lane: its queue and the one thread evaluating it in arrival
/// order. Started by the first pre-assembled batch — an engine that only
/// ever coalesces single samples never has the thread.
type BatchLane = (Sender<Batch>, JoinHandle<()>);

/// A thread-safe serving frontend over a shared [`Defense`].
///
/// Dropping the engine shuts it down: the queue is closed and every worker
/// is joined.
///
/// # Examples
///
/// ```
/// use ensembler::{
///     Defense, DefenseKind, EngineConfig, Features, InferenceEngine, ServerRequest,
///     SinglePipeline,
/// };
/// use ensembler_nn::models::ResNetConfig;
/// use ensembler_tensor::{QTensorBatch, Tensor};
/// use std::sync::Arc;
///
/// let pipeline = Arc::new(SinglePipeline::new(
///     ResNetConfig::tiny_for_tests(),
///     DefenseKind::NoDefense,
///     7,
/// )?);
/// let engine = InferenceEngine::new(pipeline, EngineConfig::default())?;
///
/// // Full predictions coalesce through the queue ...
/// let logits = engine.predict_one(Tensor::ones(&[3, 8, 8]))?;
/// assert_eq!(logits.shape(), &[3]);
///
/// // ... and so do bare server-stage requests (the networked path): one
/// // transmitted feature map in, N per-network feature maps out.
/// let features = engine.defense().client_features(&Tensor::ones(&[1, 3, 8, 8]))?;
/// let maps = engine.server_outputs_one(features.clone())?;
/// assert_eq!(maps.len(), engine.defense().ensemble_size());
///
/// // Precision and body range are fields of the one request shape.
/// let int8 = Features::Int8(QTensorBatch::quantize_batch(&features));
/// let pending = engine.serve_begin(ServerRequest::ranged(0..1, int8))?;
/// assert_eq!(pending.wait()?.len(), 1);
/// # Ok::<(), ensembler::EnsemblerError>(())
/// ```
#[derive(Debug)]
pub struct InferenceEngine<D: Defense + ?Sized + 'static> {
    defense: Arc<D>,
    sender: Option<Sender<Work>>,
    batch_lane: Mutex<Option<BatchLane>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<StatsCells>,
}

impl<D: Defense + ?Sized + 'static> InferenceEngine<D> {
    /// Starts an engine serving `defense` with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::InvalidConfig`] if `max_batch` or `workers`
    /// is zero.
    pub fn new(defense: Arc<D>, config: EngineConfig) -> Result<Self, EnsemblerError> {
        if config.max_batch == 0 || config.workers == 0 {
            return Err(EnsemblerError::InvalidConfig(
                "engine max_batch and workers must be positive".to_string(),
            ));
        }
        let (sender, receiver) = channel::<Work>();
        let receiver = Arc::new(Mutex::new(receiver));
        let stats = Arc::new(StatsCells::default());
        let workers = (0..config.workers)
            .map(|_| {
                let defense = Arc::clone(&defense);
                let receiver = Arc::clone(&receiver);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || worker_loop(&*defense, &receiver, &stats, config))
            })
            .collect();
        Ok(Self {
            defense,
            sender: Some(sender),
            batch_lane: Mutex::new(None),
            workers,
            stats,
        })
    }

    /// Starts an engine behind an `Arc` — the shape a serving registry that
    /// maps model names to shared engines stores (one engine per model, each
    /// handed to many connection threads).
    ///
    /// # Errors
    ///
    /// As for [`InferenceEngine::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ensembler::{Defense, DefenseKind, EngineConfig, InferenceEngine, SinglePipeline};
    /// use ensembler_nn::models::ResNetConfig;
    /// use std::sync::Arc;
    ///
    /// let pipeline: Arc<dyn Defense> = Arc::new(SinglePipeline::new(
    ///     ResNetConfig::tiny_for_tests(),
    ///     DefenseKind::NoDefense,
    ///     1,
    /// )?);
    /// let engine = InferenceEngine::shared(pipeline, EngineConfig::default())?;
    /// let for_a_connection = Arc::clone(&engine); // cheap per-connection handle
    /// assert_eq!(for_a_connection.stats().requests_served, 0);
    /// # Ok::<(), ensembler::EnsemblerError>(())
    /// ```
    pub fn shared(defense: Arc<D>, config: EngineConfig) -> Result<Arc<Self>, EnsemblerError> {
        Ok(Arc::new(Self::new(defense, config)?))
    }

    /// The defence this engine serves.
    pub fn defense(&self) -> &D {
        &self.defense
    }

    /// Classifies one image (`[C, H, W]`, or `[1, C, H, W]` as produced by
    /// [`Tensor::batch_item`]), blocking until a worker has served it as
    /// part of a coalesced mini-batch. Returns the `[num_classes]` logit
    /// vector.
    ///
    /// Safe to call from many threads at once; that is the intended use.
    ///
    /// # Errors
    ///
    /// Returns an error if the image shape is wrong, prediction fails, or
    /// the engine is shutting down.
    pub fn predict_one(&self, image: Tensor) -> Result<Tensor, EnsemblerError> {
        self.predict_begin(image)?.wait()
    }

    /// Enqueues one image for classification without waiting for the answer
    /// — the non-blocking half of [`InferenceEngine::predict_one`].
    ///
    /// # Errors
    ///
    /// Returns an error — before touching the queue, so a malformed image
    /// never fails the requests it would have been batched with — if the
    /// image is not `[input_channels, image_size, image_size]` of the served
    /// backbone or the engine is shutting down; evaluation errors surface
    /// from [`Pending::wait`].
    pub fn predict_begin(&self, image: Tensor) -> Result<Pending<Tensor>, EnsemblerError> {
        let Features::F32(image) = Features::F32(image).into_single()? else {
            unreachable!("into_single preserves the precision")
        };
        let config = self.defense.config();
        let expected = [config.input_channels, config.image_size, config.image_size];
        if image.shape()[1..] != expected {
            return Err(EnsemblerError::ShapeMismatch(format!(
                "image {:?} does not match the served input {expected:?}",
                &image.shape()[1..]
            )));
        }
        let (respond, pending) = Respond::pending();
        self.submit(Work::Predict { image, respond })?;
        Ok(pending)
    }

    /// Evaluates all `N` server bodies on one transmitted `f32` feature map
    /// (`[C, H, W]` or `[1, C, H, W]`), blocking until a worker has served it
    /// as part of a coalesced mini-batch: [`InferenceEngine::serve_begin`]
    /// for the common full-ensemble `f32` request, awaited. Returns the `N`
    /// per-network feature maps in index order, each with a leading batch
    /// axis of 1.
    ///
    /// # Errors
    ///
    /// As for [`InferenceEngine::serve_begin`] and [`Pending::wait`].
    pub fn server_outputs_one(&self, features: Tensor) -> Result<Vec<Tensor>, EnsemblerError> {
        self.serve_begin(ServerRequest::full(Features::F32(features)))?
            .wait()?
            .into_f32()
    }

    /// Enqueues one single-sample server-stage request — any precision, any
    /// body range — without waiting for the answer.
    ///
    /// Requests coalesce only with requests of the same precision and the
    /// same range, and the answer is bit-identical to an isolated
    /// [`Defense::serve`] call on the same request: the `f32` kernels
    /// guarantee batch-size-independent results (see `docs/PERFORMANCE.md`)
    /// and quantization scales are per sample, so stacking and splitting
    /// move bytes verbatim.
    ///
    /// # Errors
    ///
    /// Returns an error — before touching the queue — if the features are
    /// not a single sample or the range is empty or out of bounds, or if the
    /// engine is shutting down; evaluation errors surface from
    /// [`Pending::wait`].
    pub fn serve_begin(&self, request: ServerRequest) -> Result<Pending<Maps>, EnsemblerError> {
        let (respond, pending) = Respond::pending();
        self.enqueue_single(request, respond)?;
        Ok(pending)
    }

    /// Validates one single-sample request and puts it on the coalescing
    /// queue.
    fn enqueue_single(
        &self,
        request: ServerRequest,
        respond: Respond<Maps>,
    ) -> Result<(), EnsemblerError> {
        self.check_range(&request)?;
        let request = ServerRequest {
            features: request.features.into_single()?,
            ..request
        };
        self.submit(Work::Serve { request, respond })
    }

    /// Enqueues one server-stage request whose answer is delivered to `sink`
    /// as `(tag, result)` — the unit of work the networked `DefenseServer`
    /// submits for every tagged request of a multiplexed connection.
    ///
    /// The connection's reader submits in arrival order, so single-sample
    /// requests arriving on different TCP connections coalesce into shared
    /// mini-batches exactly like local [`InferenceEngine::predict_one`] calls
    /// do, and one writer per connection drains the sink: no thread exists
    /// per request. A single-sample request coalesces as for
    /// [`InferenceEngine::serve_begin`]; a pre-assembled `[B, C, H, W]`
    /// batch is evaluated as it is, in arrival order, by one thread the
    /// engine starts for such batches when the first arrives — beside the
    /// queue, so it neither waits behind single-sample requests nor makes
    /// them wait — and is not counted in [`EngineStats`], which describe
    /// coalescing. The sink carries a tag and a result and nothing else —
    /// see [`Tagged`].
    ///
    /// # Errors
    ///
    /// Returns an error — before touching the queue, nothing is sent to
    /// `sink` — if the range is empty or out of bounds, a single-sample
    /// payload is malformed, or the engine is shutting down; evaluation
    /// errors arrive through `sink`.
    pub fn serve_to(
        &self,
        request: ServerRequest,
        tag: u64,
        sink: &Sender<Tagged<Maps>>,
    ) -> Result<(), EnsemblerError> {
        let respond = Respond {
            tag,
            sink: sink.clone(),
        };
        let shape = request.features.shape();
        if shape.len() == 3 || shape.first() == Some(&1) {
            self.enqueue_single(request, respond)
        } else {
            self.check_range(&request)?;
            let mut lane = self
                .batch_lane
                .lock()
                .expect("batch lane mutex is never poisoned");
            let (batches, _) = lane.get_or_insert_with(|| {
                let (batches, queued) = channel::<Batch>();
                let defense = Arc::clone(&self.defense);
                let lane = std::thread::spawn(move || {
                    for (request, respond) in queued {
                        respond.send(catching_panics(|| defense.serve(&request)));
                    }
                });
                (batches, lane)
            });
            batches
                .send((request, respond))
                .map_err(|_| EnsemblerError::Engine("request queue is closed".to_string()))
        }
    }

    fn check_range(&self, request: &ServerRequest) -> Result<(), EnsemblerError> {
        match &request.range {
            Some(range) => {
                crate::check_body_range(range.start, range.end, self.defense.ensemble_size())
            }
            None => Ok(()),
        }
    }

    /// Enqueues one unit of work for the worker pool. The request is
    /// announced in `queued` *before* it is sent: a worker that finds the
    /// queue empty but the count ahead of what it drained knows a request is
    /// a few instructions away and takes it into the same batch.
    fn submit(&self, work: Work) -> Result<(), EnsemblerError> {
        self.stats.queued.fetch_add(1, Ordering::Relaxed);
        self.sender
            .as_ref()
            .expect("sender lives until the engine is dropped")
            .send(work)
            .map_err(|_| {
                self.stats.queued.fetch_sub(1, Ordering::Relaxed);
                EnsemblerError::Engine("request queue is closed".to_string())
            })
    }

    /// A snapshot of the engine's serving counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests_served: self.stats.requests.load(Ordering::Relaxed),
            batches_executed: self.stats.batches.load(Ordering::Relaxed),
            max_batch_observed: self.stats.max_batch.load(Ordering::Relaxed),
            queue_depth: self.stats.queued.load(Ordering::Relaxed),
        }
    }
}

impl<D: Defense + ?Sized + 'static> Drop for InferenceEngine<D> {
    fn drop(&mut self) {
        // Closing a channel makes its workers' recv fail, ending their loops.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let lane = self.batch_lane.get_mut().unwrap_or_else(|e| e.into_inner());
        if let Some((batches, lane)) = lane.take() {
            drop(batches);
            let _ = lane.join();
        }
    }
}

fn worker_loop<D: Defense + ?Sized>(
    defense: &D,
    receiver: &Mutex<Receiver<Work>>,
    stats: &StatsCells,
    config: EngineConfig,
) {
    loop {
        // Collect a batch while holding the queue lock: block for the first
        // request, then take whatever else is already queued. Under load the
        // queue filled while this worker was computing, so that *is* the
        // coalescing; an idle engine runs a lone request at once instead of
        // making it wait for company that may never come.
        let batch = {
            let queue = receiver.lock().expect("queue mutex is never poisoned");
            let first = match queue.recv() {
                Ok(request) => request,
                Err(_) => return, // engine dropped
            };
            let mut batch = vec![first];
            while batch.len() < config.max_batch {
                match queue.try_recv() {
                    Ok(request) => batch.push(request),
                    // `queued` counts announced requests this worker has not
                    // subtracted yet. If it is ahead of the batch, a
                    // submitter sits between its announcement and its send
                    // (which cannot fail while this receiver lives): that
                    // request belongs to this batch, and `recv` returns as
                    // soon as it lands. A stale read only closes the batch a
                    // request early.
                    Err(TryRecvError::Empty)
                        if stats.queued.load(Ordering::Relaxed) > batch.len() as u64 =>
                    {
                        match queue.recv() {
                            Ok(request) => batch.push(request),
                            Err(_) => break,
                        }
                    }
                    Err(_) => break,
                }
            }
            // Subtract before the lock is released: the next worker to take
            // it must not mistake requests drained here for ones in flight.
            stats
                .queued
                .fetch_sub(batch.len() as u64, Ordering::Relaxed);
            batch
        };

        // The queue mixes predictions and server-stage requests; predictions
        // batch among themselves, requests batch per (precision, range) — two
        // different slices or precisions must never coalesce into one
        // stacked evaluation.
        let mut predicts = Vec::new();
        let mut serves: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for work in batch {
            match work {
                Work::Predict { image, respond } => predicts.push((image, respond)),
                Work::Serve { request, respond } => {
                    let range = request.range.map(|range| (range.start, range.end));
                    let int8 = request.features.precision() == Precision::Int8;
                    serves
                        .entry((int8, range))
                        .or_default()
                        .push((request.features, respond));
                }
            }
        }
        if !predicts.is_empty() {
            execute_group(stats, predicts, |images| {
                run_predict_batch(defense, &images)
            });
        }
        for ((_, range), group) in serves {
            let range = range.map(|(lo, hi)| lo..hi);
            execute_group(stats, group, |features| {
                let rows = features.len();
                let request = ServerRequest {
                    range,
                    features: Features::stack(features)?,
                };
                defense.serve(&request)?.split_rows(rows)
            });
        }
    }
}

/// Runs `run`, turning a panic into an [`EnsemblerError::Engine`].
///
/// A panicking pipeline (e.g. a shape assert deep in a layer) must not kill
/// the thread evaluating it: on a worker, callers would hang forever on an
/// undrained queue.
fn catching_panics<T>(
    run: impl FnOnce() -> Result<T, EnsemblerError>,
) -> Result<T, EnsemblerError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("panic payload was not a string");
        Err(EnsemblerError::Engine(format!(
            "prediction panicked: {message}"
        )))
    })
}

/// Runs one group as a single coalesced batch — the inputs move into `run`,
/// which returns one row per input — and answers every requester. A panic
/// or error answers the whole group with that error.
fn execute_group<I, R>(
    stats: &StatsCells,
    group: Vec<(I, Respond<R>)>,
    run: impl FnOnce(Vec<I>) -> Result<Vec<R>, EnsemblerError>,
) {
    let (inputs, responders): (Vec<I>, Vec<Respond<R>>) = group.into_iter().unzip();
    let result = catching_panics(|| run(inputs));
    let size = responders.len() as u64;
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.requests.fetch_add(size, Ordering::Relaxed);
    stats.max_batch.fetch_max(size, Ordering::Relaxed);

    match result {
        Ok(rows) => {
            for (respond, row) in responders.into_iter().zip(rows) {
                respond.send(Ok(row));
            }
        }
        Err(error) => {
            for respond in responders {
                respond.send(Err(error.clone()));
            }
        }
    }
}

/// Stacks the queued images — [`InferenceEngine::predict_begin`] admitted
/// only the served input shape, so they stack — runs one shared prediction
/// and splits the logits back into per-request rows.
fn run_predict_batch<D: Defense + ?Sized>(
    defense: &D,
    images: &[Tensor],
) -> Result<Vec<Tensor>, EnsemblerError> {
    let logits = defense.predict(&Tensor::stack_batch(images))?;
    let classes = logits.shape()[1];
    Ok((0..images.len())
        .map(|row| {
            let data = logits.data()[row * classes..(row + 1) * classes].to_vec();
            Tensor::from_vec(data, &[classes]).expect("row length matches")
        })
        .collect())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::defenses::{DefenseKind, SinglePipeline};
    use ensembler_nn::models::ResNetConfig;
    use ensembler_tensor::QTensorBatch;

    fn tiny_engine(workers: usize, max_batch: usize) -> InferenceEngine<SinglePipeline> {
        let pipeline = Arc::new(
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 3).unwrap(),
        );
        InferenceEngine::new(pipeline, EngineConfig { max_batch, workers }).unwrap()
    }

    /// One request through [`InferenceEngine::serve_to`], awaited — the batch
    /// lane when `request` is a pre-assembled batch.
    fn serve_now<D: Defense + ?Sized>(
        engine: &InferenceEngine<D>,
        request: ServerRequest,
    ) -> Result<Maps, EnsemblerError> {
        let (sink, answers) = channel();
        engine.serve_to(request, 0, &sink)?;
        answers.recv().expect("an accepted request is answered").1
    }

    #[test]
    fn configuration_is_validated() {
        let pipeline = Arc::new(
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 3).unwrap(),
        );
        assert!(InferenceEngine::new(
            Arc::clone(&pipeline),
            EngineConfig {
                max_batch: 0,
                ..EngineConfig::default()
            }
        )
        .is_err());
        assert!(InferenceEngine::new(
            pipeline,
            EngineConfig {
                workers: 0,
                ..EngineConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn single_requests_match_direct_batched_prediction() {
        let engine = tiny_engine(1, 4);
        let image_a = Tensor::from_fn(&[3, 8, 8], |i| (i as f32 * 0.01).sin());
        let image_b = Tensor::from_fn(&[3, 8, 8], |i| (i as f32 * 0.02).cos());

        let row_a = engine.predict_one(image_a.clone()).unwrap();
        let row_b = engine.predict_one(image_b.clone()).unwrap();

        let stacked = Tensor::stack_batch(&[
            image_a.reshape(&[1, 3, 8, 8]).unwrap(),
            image_b.reshape(&[1, 3, 8, 8]).unwrap(),
        ]);
        let direct = engine.defense().predict(&stacked).unwrap();
        let classes = direct.shape()[1];
        assert_eq!(row_a.data(), &direct.data()[..classes]);
        assert_eq!(row_b.data(), &direct.data()[classes..]);
    }

    #[test]
    fn rejects_non_image_requests() {
        let engine = tiny_engine(1, 2);
        let err = engine.predict_one(Tensor::ones(&[2, 3, 8, 8])).unwrap_err();
        assert!(matches!(err, EnsemblerError::ShapeMismatch(_)));
    }

    #[test]
    fn concurrent_clients_get_the_same_answers_as_sequential_ones() {
        let engine = Arc::new(tiny_engine(2, 4));
        let images: Vec<Tensor> = (0..12)
            .map(|k| Tensor::from_fn(&[3, 8, 8], |i| ((i + 31 * k) as f32 * 0.013).sin()))
            .collect();
        let sequential: Vec<Tensor> = images
            .iter()
            .map(|img| engine.predict_one(img.clone()).unwrap())
            .collect();

        let concurrent: Vec<Tensor> = std::thread::scope(|scope| {
            let handles: Vec<_> = images
                .iter()
                .map(|img| {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || engine.predict_one(img.clone()).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(concurrent, sequential);
        let stats = engine.stats();
        assert_eq!(stats.requests_served, 24);
        assert!(stats.batches_executed >= 1);
        assert!(stats.batches_executed <= stats.requests_served);
        assert!(stats.mean_batch_occupancy() >= 1.0);
        assert!(stats.max_batch_observed >= 1);
        // Every submitted request has been drained and answered.
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn server_outputs_one_matches_direct_evaluation() {
        let engine = tiny_engine(1, 4);
        let image = Tensor::from_fn(&[1, 3, 8, 8], |i| (i as f32 * 0.017).sin());
        let features = engine.defense().client_features(&image).unwrap();
        let coalesced = engine.server_outputs_one(features.clone()).unwrap();
        let direct = engine.defense().server_outputs(&features).unwrap();
        assert_eq!(coalesced, direct);
    }

    #[test]
    fn mixed_work_kinds_coalesce_without_cross_talk() {
        let engine = Arc::new(tiny_engine(2, 8));
        let images: Vec<Tensor> = (0..6)
            .map(|k| Tensor::from_fn(&[3, 8, 8], |i| ((i + 17 * k) as f32 * 0.011).cos()))
            .collect();
        let expected_logits: Vec<Tensor> = images
            .iter()
            .map(|img| engine.predict_one(img.clone()).unwrap())
            .collect();
        let expected_maps: Vec<Vec<Tensor>> = images
            .iter()
            .map(|img| {
                let batched = img.reshape(&[1, 3, 8, 8]).unwrap();
                let features = engine.defense().client_features(&batched).unwrap();
                engine.defense().server_outputs(&features).unwrap()
            })
            .collect();

        std::thread::scope(|scope| {
            let mut logit_handles = Vec::new();
            let mut map_handles = Vec::new();
            for img in &images {
                let predict_engine = Arc::clone(&engine);
                logit_handles
                    .push(scope.spawn(move || predict_engine.predict_one(img.clone()).unwrap()));
                let outputs_engine = Arc::clone(&engine);
                map_handles.push(scope.spawn(move || {
                    let batched = img.reshape(&[1, 3, 8, 8]).unwrap();
                    let features = outputs_engine.defense().client_features(&batched).unwrap();
                    outputs_engine.server_outputs_one(features).unwrap()
                }));
            }
            let logits: Vec<Tensor> = logit_handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            let maps: Vec<Vec<Tensor>> =
                map_handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(logits, expected_logits);
            assert_eq!(maps, expected_maps);
        });
    }

    /// A 4-body ensemble, so sub-ranges are meaningful.
    fn four_body_pipeline() -> Arc<dyn Defense> {
        use crate::{EnsemblerPipeline, Selector};
        use ensembler_nn::models::{build_body, build_head, build_tail};
        use ensembler_nn::FixedNoise;
        use ensembler_tensor::Rng;

        let config = ResNetConfig::tiny_for_tests();
        let mut rng = Rng::seed_from(23);
        let head = build_head(&config, &mut rng);
        let noise = FixedNoise::new(&config.head_output_shape(), 0.1, &mut rng);
        let bodies = (0..4).map(|_| build_body(&config, &mut rng)).collect();
        let selector = Selector::random(4, 2, &mut rng).unwrap();
        let tail = build_tail(&config, 2 * config.body_output_features(), &mut rng);
        Arc::new(EnsemblerPipeline::new(config, head, noise, bodies, selector, tail).unwrap())
    }

    fn wide_engine(defense: &Arc<dyn Defense>) -> Arc<InferenceEngine<dyn Defense>> {
        let config = EngineConfig {
            max_batch: 8,
            workers: 2,
        };
        InferenceEngine::shared(Arc::clone(defense), config).unwrap()
    }

    #[test]
    fn every_request_kind_coalesces_bit_exactly_and_only_within_its_kind() {
        use crate::quant::QuantizedDefense;

        // The f32 pipeline and its int8 twin, each behind its own engine:
        // the table below runs on both, so all four request kinds are hit
        // on both backend precisions.
        let f32_pipeline = four_body_pipeline();
        let int8_pipeline: Arc<dyn Defense> =
            Arc::new(QuantizedDefense::quantize(Arc::clone(&f32_pipeline)));
        let ranges = [None, Some(0..2), Some(2..4), Some(1..3)];

        for pipeline in [f32_pipeline, int8_pipeline] {
            let engine = wide_engine(&pipeline);
            let features: Vec<Tensor> = (0..6)
                .map(|k| {
                    let image =
                        Tensor::from_fn(&[1, 3, 8, 8], |i| ((i + 7 * k) as f32 * 0.02).sin());
                    pipeline.client_features(&image).unwrap()
                })
                .collect();
            // {F32, Int8} × {None, Some(lo..hi)}: every request of every
            // sample, submitted concurrently so different kinds and slices
            // are drained into the same worker wake-up.
            let requests: Vec<ServerRequest> = features
                .iter()
                .flat_map(|f| {
                    let kinds = [
                        Features::F32(f.clone()),
                        Features::Int8(QTensorBatch::quantize_batch(f)),
                    ];
                    kinds.into_iter().flat_map(|payload| {
                        ranges.iter().map(move |range| ServerRequest {
                            range: range.clone(),
                            features: payload.clone(),
                        })
                    })
                })
                .collect();
            // The oracle is the isolated `serve` of each request.
            let expected: Vec<Maps> = requests
                .iter()
                .map(|request| pipeline.serve(request).unwrap())
                .collect();

            let answers: Vec<Maps> = std::thread::scope(|scope| {
                let handles: Vec<_> = requests
                    .iter()
                    .map(|request| {
                        let engine = Arc::clone(&engine);
                        scope.spawn(move || engine.serve_begin(request.clone()).unwrap().wait())
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap().unwrap())
                    .collect()
            });
            // Coalesced answers are byte-identical to isolated calls: each
            // request got exactly its own kind's and its own slice's answer.
            assert_eq!(answers, expected);

            // Malformed ranges are rejected before touching the queue, at
            // either precision, on both entry points.
            let served = engine.stats().requests_served;
            for (range, payload) in [
                (2..2, Features::F32(features[0].clone())),
                (
                    0..9,
                    Features::Int8(QTensorBatch::quantize_batch(&features[0])),
                ),
            ] {
                let request = ServerRequest::ranged(range, payload);
                assert!(engine.serve_begin(request.clone()).is_err());
                assert!(serve_now(&engine, request).is_err());
            }
            assert_eq!(engine.stats().requests_served, served);
        }
    }

    #[test]
    fn pre_batched_input_is_rejected_by_the_queue_and_served_directly() {
        let engine = tiny_engine(1, 2);
        let batch = Tensor::ones(&[2, 3, 4, 4]);
        let payloads = [
            Features::F32(batch.clone()),
            Features::Int8(QTensorBatch::quantize_batch(&batch)),
        ];
        for payload in payloads {
            for range in [None, Some(0..1)] {
                let request = ServerRequest {
                    range,
                    features: payload.clone(),
                };
                let err = engine.serve_begin(request).unwrap_err();
                assert!(matches!(err, EnsemblerError::ShapeMismatch(_)), "{err:?}");
            }
        }
        let err = engine.server_outputs_one(batch).unwrap_err();
        assert!(matches!(err, EnsemblerError::ShapeMismatch(_)));

        // The direct path takes what the queue refuses, bit-identically to
        // the bare pipeline.
        let images = Tensor::from_fn(&[2, 3, 8, 8], |i| (i as f32 * 0.017).sin());
        let features = engine.defense().client_features(&images).unwrap();
        let request = ServerRequest::full(Features::F32(features.clone()));
        assert_eq!(
            serve_now(&engine, request).unwrap(),
            Maps::F32(engine.defense().server_outputs(&features).unwrap())
        );
    }

    #[test]
    fn begin_and_wait_split_completes_out_of_submission_order() {
        let engine = tiny_engine(2, 4);
        let image = Tensor::from_fn(&[1, 3, 8, 8], |i| (i as f32 * 0.017).sin());
        let features = engine.defense().client_features(&image).unwrap();
        let direct = engine.defense().server_outputs(&features).unwrap();
        let request = ServerRequest::full(Features::F32(features.clone()));

        // Two pipelined submissions, awaited in reverse order: each Pending
        // holds exactly its own answer.
        let a = engine.serve_begin(request.clone()).unwrap();
        let b = engine.serve_begin(request.clone()).unwrap();
        assert_eq!(b.wait().unwrap(), Maps::F32(direct.clone()));
        assert_eq!(a.wait().unwrap(), Maps::F32(direct.clone()));

        // A dropped Pending abandons its request without wedging the engine.
        drop(engine.serve_begin(request).unwrap());
        assert_eq!(engine.server_outputs_one(features).unwrap(), direct);
    }

    #[test]
    fn engine_shuts_down_cleanly_on_drop() {
        let engine = tiny_engine(2, 2);
        let _ = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap();
        drop(engine); // must not hang or panic
    }

    #[test]
    fn a_malformed_shape_is_a_typed_error_and_the_worker_survives() {
        // [4, 8, 8] passes the rank check but has the wrong channel count.
        // The compiled plans turn what used to be a Conv2d panic into a
        // typed shape error, and the single worker keeps serving.
        let engine = tiny_engine(1, 2);
        let err = engine.predict_one(Tensor::ones(&[4, 8, 8])).unwrap_err();
        assert!(
            matches!(err, EnsemblerError::ShapeMismatch(_)),
            "channel mismatch should be a typed shape error, got {err:?}"
        );
        let logits = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap();
        assert_eq!(logits.len(), 3, "worker must still be alive");
    }

    /// A defense whose forward panics unconditionally, standing in for any
    /// bug the shape validation does not catch.
    #[derive(Debug)]
    struct PanickingDefense {
        config: ResNetConfig,
    }

    impl Defense for PanickingDefense {
        fn config(&self) -> &ResNetConfig {
            &self.config
        }

        fn label(&self) -> &str {
            "panicker"
        }

        fn server_bodies(&self) -> &[ensembler_nn::Sequential] {
            &[]
        }

        fn selected_count(&self) -> usize {
            1
        }

        fn client_features(&self, _images: &Tensor) -> Result<Tensor, EnsemblerError> {
            panic!("injected client_features failure")
        }

        fn serve(&self, _request: &ServerRequest) -> Result<Maps, EnsemblerError> {
            panic!("injected serve failure")
        }

        fn classify(&self, _server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
            panic!("injected classify failure")
        }
    }

    #[test]
    fn a_panicking_prediction_does_not_kill_the_worker() {
        // Shape validation can't catch everything; a genuine panic inside
        // the defense must still surface as an engine error without wedging
        // the worker queue.
        let defense = Arc::new(PanickingDefense {
            config: ResNetConfig::tiny_for_tests(),
        });
        let engine = InferenceEngine::new(
            defense,
            EngineConfig {
                max_batch: 2,
                workers: 1,
            },
        )
        .unwrap();
        let err = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap_err();
        assert!(
            matches!(err, EnsemblerError::Engine(_)),
            "panic should surface as an engine error, got {err:?}"
        );
        // The worker thread survives: a second request gets an answer (the
        // same injected panic) instead of hanging on a dead queue.
        let err = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap_err();
        assert!(matches!(err, EnsemblerError::Engine(_)));
        // The server stage is guarded the same way, queued or direct.
        let err = engine
            .server_outputs_one(Tensor::ones(&[3, 8, 8]))
            .unwrap_err();
        assert!(matches!(err, EnsemblerError::Engine(_)));
        let batch = ServerRequest::full(Features::F32(Tensor::ones(&[2, 3, 8, 8])));
        let err = serve_now(&engine, batch).unwrap_err();
        assert!(matches!(err, EnsemblerError::Engine(_)));
    }

    /// A defence whose `serve` reports the rows it was handed and then blocks
    /// until the test opens the gate: the deterministic handle on "a worker
    /// is inside a batch" that the coalescing tests need instead of sleeps.
    #[derive(Debug)]
    struct GatedDefense {
        inner: Arc<dyn Defense>,
        entered: Mutex<Sender<usize>>,
        gate: Mutex<Receiver<()>>,
    }

    /// The test's ends of a [`GatedDefense`]: the rows of each `serve` call
    /// as it begins, and the gate that lets one call proceed per token.
    struct Gate {
        entered: Receiver<usize>,
        open: Sender<()>,
    }

    impl Gate {
        /// Rows of the next `serve` call to begin (bounded, so a worker that
        /// wrongly waits fails the test instead of hanging it).
        fn entered(&self) -> usize {
            self.entered
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a worker should have begun a batch")
        }
    }

    fn gated(inner: Arc<dyn Defense>) -> (Arc<GatedDefense>, Gate) {
        let (entered_tx, entered) = channel();
        let (open, gate) = channel();
        let defense = Arc::new(GatedDefense {
            inner,
            entered: Mutex::new(entered_tx),
            gate: Mutex::new(gate),
        });
        (defense, Gate { entered, open })
    }

    impl Defense for GatedDefense {
        fn config(&self) -> &ResNetConfig {
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
            let rows = request.features.shape()[0];
            self.entered.lock().unwrap().send(rows).unwrap();
            self.gate.lock().unwrap().recv().unwrap();
            self.inner.serve(request)
        }

        fn classify(&self, server_maps: &[Tensor]) -> Result<Tensor, EnsemblerError> {
            self.inner.classify(server_maps)
        }
    }

    fn sample_features(defense: &dyn Defense, k: usize) -> Tensor {
        let image = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i + 13 * k) as f32 * 0.019).sin());
        defense.client_features(&image).unwrap()
    }

    #[test]
    fn coalescing_takes_exactly_what_queued_while_the_worker_was_busy() {
        let pipeline = four_body_pipeline();
        let int8_pipeline: Arc<dyn Defense> = Arc::new(crate::quant::QuantizedDefense::quantize(
            Arc::clone(&pipeline),
        ));
        let kinds = [
            (&pipeline, false, None),
            (&pipeline, false, Some(1..3)),
            (&int8_pipeline, true, None),
            (&int8_pipeline, true, Some(2..4)),
        ];
        let max_batch = 4;
        for (inner, int8, range) in kinds {
            for k in [1usize, 3, 4, 6] {
                let (defense, gate) = gated(Arc::clone(inner));
                let engine = InferenceEngine::new(
                    defense,
                    EngineConfig {
                        max_batch,
                        workers: 1,
                    },
                )
                .unwrap();
                let request = |i: usize| {
                    let features = sample_features(inner.as_ref(), i);
                    let features = if int8 {
                        Features::Int8(QTensorBatch::quantize_batch(&features))
                    } else {
                        Features::F32(features)
                    };
                    ServerRequest {
                        range: range.clone(),
                        features,
                    }
                };
                // One request puts the worker inside a batch ...
                let blocker = engine.serve_begin(request(99)).unwrap();
                assert_eq!(gate.entered(), 1);
                // ... K more queue up behind it ...
                let queued: Vec<_> = (0..k)
                    .map(|i| engine.serve_begin(request(i)).unwrap())
                    .collect();
                assert_eq!(engine.stats().queue_depth, k as u64);
                // ... and come out as one batch of min(K, max_batch), the
                // overflow as the next.
                gate.open.send(()).unwrap();
                let first = k.min(max_batch);
                assert_eq!(gate.entered(), first, "k = {k}");
                gate.open.send(()).unwrap();
                if k > max_batch {
                    assert_eq!(gate.entered(), k - max_batch);
                    gate.open.send(()).unwrap();
                }
                assert_eq!(blocker.wait().unwrap(), inner.serve(&request(99)).unwrap());
                for (i, pending) in queued.into_iter().enumerate() {
                    let context = format!("int8 {int8}, range {range:?}, k {k}, item {i}");
                    assert_eq!(
                        pending.wait().unwrap(),
                        inner.serve(&request(i)).unwrap(),
                        "{context}"
                    );
                }
                let stats = engine.stats();
                assert_eq!(stats.max_batch_observed, first as u64);
                assert_eq!(stats.requests_served, 1 + k as u64);
                assert_eq!(stats.batches_executed, if k > max_batch { 3 } else { 2 });
                assert_eq!(stats.queue_depth, 0);
            }
        }
    }

    #[test]
    fn coalescing_groups_one_drain_by_precision_and_range() {
        let pipeline = four_body_pipeline();
        let (defense, gate) = gated(Arc::clone(&pipeline));
        let engine = InferenceEngine::new(
            defense,
            EngineConfig {
                max_batch: 8,
                workers: 1,
            },
        )
        .unwrap();
        let f32_full =
            |i| ServerRequest::full(Features::F32(sample_features(pipeline.as_ref(), i)));
        let int8_ranged = |i| {
            let features = sample_features(pipeline.as_ref(), i);
            ServerRequest::ranged(
                0..1,
                Features::Int8(QTensorBatch::quantize_batch(&features)),
            )
        };
        let blocker = engine.serve_begin(f32_full(50)).unwrap();
        assert_eq!(gate.entered(), 1);
        // Five requests of two kinds, interleaved, all queued while the
        // worker is busy: one drain, two stacked evaluations.
        let queued: Vec<_> = [
            f32_full(0),
            int8_ranged(1),
            f32_full(2),
            int8_ranged(3),
            f32_full(4),
        ]
        .into_iter()
        .map(|request| (engine.serve_begin(request.clone()).unwrap(), request))
        .collect();
        gate.open.send(()).unwrap();
        assert_eq!(gate.entered(), 3, "the f32 full-ensemble group");
        gate.open.send(()).unwrap();
        assert_eq!(gate.entered(), 2, "the int8 0..1 group");
        gate.open.send(()).unwrap();
        blocker.wait().unwrap();
        for (pending, request) in queued {
            assert_eq!(pending.wait().unwrap(), pipeline.serve(&request).unwrap());
        }
        let stats = engine.stats();
        assert_eq!(stats.max_batch_observed, 3);
        assert_eq!((stats.batches_executed, stats.requests_served), (3, 6));
    }

    #[test]
    fn coalescing_never_makes_a_lone_request_wait_for_company() {
        // An idle engine and one caller: every request runs at once, alone —
        // and returns although no second request ever arrives.
        let engine = tiny_engine(1, 8);
        let image = Tensor::from_fn(&[1, 3, 8, 8], |i| (i as f32 * 0.017).sin());
        let features = engine.defense().client_features(&image).unwrap();
        let direct = engine.defense().server_outputs(&features).unwrap();
        for _ in 0..100 {
            assert_eq!(engine.server_outputs_one(features.clone()).unwrap(), direct);
        }
        let stats = engine.stats();
        assert_eq!(stats.requests_served, 100);
        assert_eq!(stats.batches_executed, 100);
        assert_eq!(stats.max_batch_observed, 1);
    }

    #[test]
    fn coalescing_refuses_a_malformed_image_before_it_can_fail_its_batch_mates() {
        let pipeline = four_body_pipeline();
        let (defense, gate) = gated(Arc::clone(&pipeline));
        let engine = InferenceEngine::new(
            defense,
            EngineConfig {
                max_batch: 8,
                workers: 1,
            },
        )
        .unwrap();
        // Rebound after the engine, so a failing assertion drops the gate
        // first: the blocked worker is released, not joined forever.
        let gate = gate;
        let image = |k: usize| Tensor::from_fn(&[3, 8, 8], |i| ((i + 11 * k) as f32 * 0.021).sin());
        // One image puts the worker inside a batch; the rest queue behind
        // it, a good one on either side of the malformed ones.
        let blocker = engine.predict_begin(image(0)).unwrap();
        assert_eq!(gate.entered(), 1);
        let before = engine.predict_begin(image(1)).unwrap();
        for bad in [
            Tensor::ones(&[4, 8, 8]),
            Tensor::ones(&[3, 16, 16]),
            Tensor::ones(&[1, 3, 8, 4]),
        ] {
            let err = engine.predict_begin(bad.clone()).unwrap_err();
            assert!(
                matches!(err, EnsemblerError::ShapeMismatch(_)),
                "{:?}: {err:?}",
                bad.shape()
            );
        }
        let after = engine.predict_begin(image(2)).unwrap();
        assert_eq!(
            engine.stats().queue_depth,
            2,
            "nothing malformed was queued"
        );
        gate.open.send(()).unwrap();
        assert_eq!(gate.entered(), 2, "the two good images, one batch");
        gate.open.send(()).unwrap();
        for (k, pending) in [blocker, before, after].into_iter().enumerate() {
            let alone = pipeline
                .predict(&image(k).reshape(&[1, 3, 8, 8]).unwrap())
                .unwrap();
            assert_eq!(pending.wait().unwrap().data(), alone.data(), "image {k}");
        }
        assert_eq!(engine.stats().requests_served, 3);
    }

    #[test]
    fn coalescing_workers_do_not_wait_on_requests_another_worker_drained() {
        let pipeline = four_body_pipeline();
        let (defense, gate) = gated(Arc::clone(&pipeline));
        let engine = InferenceEngine::new(
            defense,
            EngineConfig {
                max_batch: 8,
                workers: 2,
            },
        )
        .unwrap();
        let request = |i| ServerRequest::full(Features::F32(sample_features(pipeline.as_ref(), i)));
        // The first worker is inside a batch of one ...
        let a = engine.serve_begin(request(0)).unwrap();
        assert_eq!(gate.entered(), 1);
        // ... and the second starts the next request while the first is
        // still blocked: it neither waits for the first worker nor counts
        // the request that worker already drained as one still to arrive.
        let b = engine.serve_begin(request(1)).unwrap();
        assert_eq!(gate.entered(), 1);
        assert_eq!(engine.stats().queue_depth, 0);
        gate.open.send(()).unwrap();
        gate.open.send(()).unwrap();
        assert_eq!(a.wait().unwrap(), pipeline.serve(&request(0)).unwrap());
        assert_eq!(b.wait().unwrap(), pipeline.serve(&request(1)).unwrap());
        let stats = engine.stats();
        assert_eq!((stats.batches_executed, stats.max_batch_observed), (2, 1));
    }

    #[test]
    fn tagged_answers_share_one_sink_whatever_the_batch_size() {
        let pipeline = four_body_pipeline();
        let engine = wide_engine(&pipeline);
        let (sink, answers) = channel();
        let images = Tensor::from_fn(&[3, 3, 8, 8], |i| (i as f32 * 0.023).cos());
        let batch = pipeline.client_features(&images).unwrap();
        let requests = [
            ServerRequest::full(Features::F32(sample_features(pipeline.as_ref(), 0))),
            ServerRequest::ranged(1..3, Features::F32(batch.clone())),
            ServerRequest::full(Features::Int8(QTensorBatch::quantize_batch(&batch))),
            ServerRequest::ranged(0..2, Features::F32(sample_features(pipeline.as_ref(), 1))),
        ];
        for (tag, request) in requests.iter().enumerate() {
            engine
                .serve_to(request.clone(), 100 + tag as u64, &sink)
                .unwrap();
        }
        // Refused before the queue: nothing reaches the sink for these.
        let bad_range = ServerRequest::ranged(3..9, Features::F32(batch.clone()));
        assert!(engine.serve_to(bad_range, 7, &sink).is_err());
        drop(sink);
        let mut seen: Vec<Tagged<Maps>> = answers.iter().collect();
        seen.sort_by_key(|(tag, _)| *tag);
        assert_eq!(seen.len(), requests.len());
        for ((tag, answer), (index, request)) in seen.into_iter().zip(requests.iter().enumerate()) {
            assert_eq!(tag, 100 + index as u64);
            assert_eq!(answer.unwrap(), pipeline.serve(request).unwrap());
        }
        // Only the two single-sample requests are coalescing statistics.
        assert_eq!(engine.stats().requests_served, 2);
    }
}
