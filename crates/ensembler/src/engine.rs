//! A concurrent inference engine over any [`Defense`]: request coalescing,
//! mini-batching and parallel server fan-out from a shared pipeline.
//!
//! This module is the end-to-end demonstration of the paper's deployment
//! argument (Sec. III-D): the `O(N)` server cost of Ensembler "parallelises
//! away" because the `N` bodies are independent. The redesigned [`Defense`]
//! trait makes that concrete — inference takes `&self`, so one pipeline
//! behind an `Arc` can serve many clients at once:
//!
//! * the queue carries one kind of work, the server stage: a [`ServerRequest`]
//!   — one shape for every precision and body range — submitted from any
//!   thread through [`InferenceEngine::serve_to`], the one submission call
//!   (the unit the networked `DefenseServer` in `crates/serve` forwards for
//!   remote clients); [`InferenceEngine::server_outputs_one`] and
//!   [`InferenceEngine::predict_one`] are blocking conveniences over it, the
//!   latter running the client's head and tail on the calling thread;
//! * worker threads coalesce queued requests into mini-batches of up to
//!   `max_batch` items — whatever is queued when a worker becomes free, never
//!   a wait for company — grouped so that only requests of one precision and
//!   one range stack;
//! * each group runs one [`Defense::serve`], inside which the `N` server
//!   bodies fan out over the machine's cores ([`ensembler_tensor::par_map`]).
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
    /// Maximum number of single-sample requests coalesced into one batch.
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
    /// Single-sample server-stage requests answered (a
    /// [`InferenceEngine::predict_one`] call is one).
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
/// and its result. Dropping the receiving end abandons the requests still
/// in flight: their answers simply find no receiver.
pub type Tagged = (u64, Result<Maps, EnsemblerError>);

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
struct Respond {
    tag: u64,
    sink: Sender<Tagged>,
}

impl Respond {
    /// Delivers the answer; a requester that gave up is skipped silently.
    fn send(self, result: Result<Maps, EnsemblerError>) {
        let _ = self.sink.send((self.tag, result));
    }
}

/// One submitted [`ServerRequest`] and where its answer goes — the only
/// kind of work an engine holds. On the queue it is a single sample that
/// coalesces only with requests of the same precision *and* the same body
/// range, so a mini-batch is always answered by one [`Defense::serve`] call.
/// A pre-assembled `[B, C, H, W]` request has nothing to gain from
/// coalescing, so it bypasses the queue for a lane of its own: however long
/// a batch takes, it never holds up the single-sample requests behind it.
type Work = (ServerRequest, Respond);

/// The batch lane: its queue and the one thread evaluating it in arrival
/// order. Started by the first pre-assembled batch — an engine that only
/// ever coalesces single samples never has the thread.
type BatchLane = (Sender<Work>, JoinHandle<()>);

/// The server stage's coalescing queue over a shared [`Defense`], safe to
/// submit to from any thread.
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
/// // The queue coalesces server-stage requests: one transmitted feature map
/// // in, N per-network feature maps out ...
/// let features = engine.defense().client_features(&Tensor::ones(&[1, 3, 8, 8]))?;
/// let maps = engine.server_outputs_one(features.clone())?;
/// assert_eq!(maps.len(), engine.defense().ensemble_size());
///
/// // ... which is also the middle of a whole prediction.
/// let logits = engine.predict_one(Tensor::ones(&[3, 8, 8]))?;
/// assert_eq!(logits.shape(), &[3]);
///
/// // Precision and body range are fields of the one request shape, and
/// // every request enters through `serve_to`: its answer arrives on the
/// // caller's channel under the caller's tag (the networked path).
/// let int8 = Features::Int8(QTensorBatch::quantize_batch(&features));
/// let (sink, answers) = std::sync::mpsc::channel();
/// engine.serve_to(ServerRequest::ranged(0..1, int8), 7, &sink)?;
/// let (tag, maps) = answers.recv().expect("an accepted request is answered");
/// assert_eq!((tag, maps?.len()), (7, 1));
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
    /// [`Tensor::batch_item`]) and returns the `[num_classes]` logit vector.
    ///
    /// The client's stages run on the calling thread —
    /// [`Defense::client_features`] before, [`Defense::classify`] after —
    /// and the server stage in between goes through the coalescing queue as
    /// [`InferenceEngine::server_outputs_one`] does, so concurrent callers
    /// share mini-batches of the `N` bodies. The logits equal the image's
    /// row of a batched [`Defense::predict`] bit for bit: every stage
    /// computes a row the same way at any batch size.
    ///
    /// Safe to call from many threads at once; that is the intended use.
    ///
    /// # Errors
    ///
    /// Returns an error if the image is not one sample of the served input
    /// shape — refused by `client_features` before anything is queued, so
    /// a malformed image never fails the requests it would have been
    /// batched with — if a stage fails or panics, or if the engine is
    /// shutting down.
    pub fn predict_one(&self, image: Tensor) -> Result<Tensor, EnsemblerError> {
        let Features::F32(image) = Features::F32(image).into_single()? else {
            unreachable!("into_single preserves the precision")
        };
        let features = catching_panics(|| self.defense.client_features(&image))?;
        let maps = self.server_outputs_one(features)?;
        let logits = catching_panics(|| self.defense.classify(&maps))?;
        Ok(logits.reshape(&[logits.len()])?)
    }

    /// Evaluates all `N` server bodies on one transmitted `f32` feature map
    /// (`[C, H, W]` or `[1, C, H, W]`), blocking until a worker has served it
    /// as part of a coalesced mini-batch: [`InferenceEngine::serve_to`] for
    /// the common full-ensemble `f32` request, awaited. Returns the `N`
    /// per-network feature maps in index order, each with a leading batch
    /// axis of 1.
    ///
    /// # Errors
    ///
    /// Returns [`EnsemblerError::ShapeMismatch`] for a pre-assembled batch,
    /// otherwise as for [`InferenceEngine::serve_to`] plus the evaluation's
    /// own error.
    pub fn server_outputs_one(&self, features: Tensor) -> Result<Vec<Tensor>, EnsemblerError> {
        let request = ServerRequest::full(Features::F32(features).into_single()?);
        let (sink, answer) = channel();
        self.serve_to(request, 0, &sink)?;
        // Only the worker's copy of the sink is left: a request dropped
        // unanswered is an error here, not a hang.
        drop(sink);
        answer
            .recv()
            .map_err(|_| EnsemblerError::Engine("worker dropped the request".to_string()))?
            .1?
            .into_f32()
    }

    /// Submits one server-stage request — any precision, any body range —
    /// whose answer is delivered to `sink` as `(tag, result)`: the one way
    /// into the engine, and the unit of work the networked `DefenseServer`
    /// submits for every tagged request of a multiplexed connection.
    ///
    /// The connection's reader submits in arrival order, so single-sample
    /// requests arriving on different TCP connections coalesce into shared
    /// mini-batches exactly like local [`InferenceEngine::predict_one`] calls
    /// do, and one writer per connection drains the sink: no thread exists
    /// per request. A single-sample request coalesces only with requests of
    /// the same precision and the same range, and its answer is
    /// bit-identical to an isolated [`Defense::serve`] call on the same
    /// request: the `f32` kernels guarantee batch-size-independent results
    /// (see `docs/PERFORMANCE.md`) and quantization scales are per sample,
    /// so stacking and splitting move bytes verbatim. A pre-assembled
    /// `[B, C, H, W]` batch is evaluated as it is, in arrival order, by one
    /// thread the engine starts for such batches when the first arrives —
    /// beside the queue, so it neither waits behind single-sample requests
    /// nor makes them wait — and is not counted in [`EngineStats`], which
    /// describe coalescing. The sink carries a tag and a result and nothing
    /// else — see [`Tagged`].
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
        sink: &Sender<Tagged>,
    ) -> Result<(), EnsemblerError> {
        if let Some(range) = &request.range {
            crate::check_body_range(range.start, range.end, self.defense.ensemble_size())?;
        }
        let respond = Respond {
            tag,
            sink: sink.clone(),
        };
        let shape = request.features.shape();
        if shape.len() == 3 || shape.first() == Some(&1) {
            let request = ServerRequest {
                features: request.features.into_single()?,
                ..request
            };
            // The request is announced in `queued` *before* it is sent: a
            // worker that finds the queue empty but the count ahead of what
            // it drained knows a request is a few instructions away and
            // takes it into the same batch.
            self.stats.queued.fetch_add(1, Ordering::Relaxed);
            self.sender
                .as_ref()
                .expect("sender lives until the engine is dropped")
                .send((request, respond))
                .map_err(|_| {
                    self.stats.queued.fetch_sub(1, Ordering::Relaxed);
                    EnsemblerError::Engine("request queue is closed".to_string())
                })
        } else {
            let mut lane = self
                .batch_lane
                .lock()
                .expect("batch lane mutex is never poisoned");
            let (batches, _) = lane.get_or_insert_with(|| {
                let (batches, queued) = channel::<Work>();
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

        // Requests batch per (precision, range): two different slices or
        // precisions must never coalesce into one stacked evaluation.
        let mut groups: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for (request, respond) in batch {
            let range = request.range.map(|range| (range.start, range.end));
            let int8 = request.features.precision() == Precision::Int8;
            groups
                .entry((int8, range))
                .or_default()
                .push((request.features, respond));
        }
        for ((_, range), group) in groups {
            execute_group(defense, stats, range.map(|(lo, hi)| lo..hi), group);
        }
    }
}

/// Runs `run`, turning a panic into an [`EnsemblerError::Engine`].
///
/// A panicking pipeline (e.g. a shape assert deep in a layer) must not kill
/// the thread evaluating it: on a worker, callers would hang forever on an
/// undrained queue. [`InferenceEngine::predict_one`] guards its caller-side
/// stages the same way, so every stage's panic is the same typed error.
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

/// Runs one group — single samples of one precision for one body range — as
/// a single stacked [`Defense::serve`], splits the answer back into one row
/// per request and answers every requester. A panic or error answers the
/// whole group with that error.
fn execute_group<D: Defense + ?Sized>(
    defense: &D,
    stats: &StatsCells,
    range: Option<std::ops::Range<usize>>,
    group: Vec<(Features, Respond)>,
) {
    let (features, responders): (Vec<Features>, Vec<Respond>) = group.into_iter().unzip();
    let result = catching_panics(|| {
        let request = ServerRequest {
            range,
            features: Features::stack(features)?,
        };
        defense.serve(&request)?.split_rows(responders.len())
    });
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

    /// Submits one request through [`InferenceEngine::serve_to`] on a
    /// channel of its own, without waiting: [`wait`] the receiver for the
    /// answer, or drop it to abandon the request.
    fn submit<D: Defense + ?Sized>(
        engine: &InferenceEngine<D>,
        request: ServerRequest,
    ) -> Result<Receiver<Tagged>, EnsemblerError> {
        let (sink, answer) = channel();
        engine.serve_to(request, 0, &sink)?;
        Ok(answer)
    }

    fn wait(answer: Receiver<Tagged>) -> Result<Maps, EnsemblerError> {
        answer.recv().expect("an accepted request is answered").1
    }

    /// One request through [`InferenceEngine::serve_to`], awaited — the batch
    /// lane when `request` is a pre-assembled batch.
    fn serve_now<D: Defense + ?Sized>(
        engine: &InferenceEngine<D>,
        request: ServerRequest,
    ) -> Result<Maps, EnsemblerError> {
        wait(submit(engine, request)?)
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
        use crate::quant::QuantizedDefense;

        let f32_pipeline: Arc<dyn Defense> = Arc::new(
            SinglePipeline::new(ResNetConfig::tiny_for_tests(), DefenseKind::NoDefense, 3).unwrap(),
        );
        let int8_pipeline: Arc<dyn Defense> =
            Arc::new(QuantizedDefense::quantize(Arc::clone(&f32_pipeline)));
        let image_a = Tensor::from_fn(&[3, 8, 8], |i| (i as f32 * 0.01).sin());
        let image_b = Tensor::from_fn(&[3, 8, 8], |i| (i as f32 * 0.02).cos());
        let stacked = Tensor::stack_batch(&[
            image_a.reshape(&[1, 3, 8, 8]).unwrap(),
            image_b.reshape(&[1, 3, 8, 8]).unwrap(),
        ]);

        // Each pipeline against its own batched `predict`, int8 included.
        for pipeline in [f32_pipeline, int8_pipeline] {
            let engine = InferenceEngine::new(
                pipeline,
                EngineConfig {
                    max_batch: 4,
                    workers: 1,
                },
            )
            .unwrap();
            let row_a = engine.predict_one(image_a.clone()).unwrap();
            let row_b = engine.predict_one(image_b.clone()).unwrap();

            let direct = engine.defense().predict(&stacked).unwrap();
            let classes = direct.shape()[1];
            let label = engine.defense().label();
            assert_eq!(row_a.data(), &direct.data()[..classes], "{label}");
            assert_eq!(row_b.data(), &direct.data()[classes..], "{label}");
        }
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
                        scope.spawn(move || wait(submit(&engine, request.clone()).unwrap()))
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
            // either precision.
            let served = engine.stats().requests_served;
            for (range, payload) in [
                (2..2, Features::F32(features[0].clone())),
                (
                    0..9,
                    Features::Int8(QTensorBatch::quantize_batch(&features[0])),
                ),
            ] {
                let request = ServerRequest::ranged(range, payload);
                assert!(submit(&engine, request).is_err());
            }
            assert_eq!(engine.stats().requests_served, served);
        }
    }

    #[test]
    fn pre_batched_input_is_rejected_by_the_queue_and_served_directly() {
        let engine = tiny_engine(1, 2);
        // A well-formed feature batch, so only the one-sample rule of the
        // blocking call can refuse it (the batch lane would serve it).
        let images = Tensor::from_fn(&[2, 3, 8, 8], |i| (i as f32 * 0.017).sin());
        let features = engine.defense().client_features(&images).unwrap();
        let err = engine.server_outputs_one(features.clone()).unwrap_err();
        assert!(matches!(err, EnsemblerError::ShapeMismatch(_)));

        // The direct path takes what the queue refuses, bit-identically to
        // the bare pipeline.
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

        // Two pipelined submissions, awaited in reverse order: each receiver
        // holds exactly its own answer.
        let a = submit(&engine, request.clone()).unwrap();
        let b = submit(&engine, request.clone()).unwrap();
        assert_eq!(wait(b).unwrap(), Maps::F32(direct.clone()));
        assert_eq!(wait(a).unwrap(), Maps::F32(direct.clone()));

        // A dropped receiver abandons its request without wedging the engine.
        drop(submit(&engine, request).unwrap());
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
        // The client stage panics on the calling thread, and is caught there.
        let err = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap_err();
        assert!(
            matches!(err, EnsemblerError::Engine(_)),
            "panic should surface as an engine error, got {err:?}"
        );
        let err = engine.predict_one(Tensor::ones(&[3, 8, 8])).unwrap_err();
        assert!(matches!(err, EnsemblerError::Engine(_)));
        // The server stage panics on the worker, queued or in the batch
        // lane; the worker survives, so the second request gets an answer
        // (the same injected panic) instead of hanging on a dead queue.
        for _ in 0..2 {
            let err = engine
                .server_outputs_one(Tensor::ones(&[3, 8, 8]))
                .unwrap_err();
            assert!(matches!(err, EnsemblerError::Engine(_)));
        }
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
                let blocker = submit(&engine, request(99)).unwrap();
                assert_eq!(gate.entered(), 1);
                // ... K more queue up behind it ...
                let queued: Vec<_> = (0..k)
                    .map(|i| submit(&engine, request(i)).unwrap())
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
                assert_eq!(wait(blocker).unwrap(), inner.serve(&request(99)).unwrap());
                for (i, pending) in queued.into_iter().enumerate() {
                    let context = format!("int8 {int8}, range {range:?}, k {k}, item {i}");
                    assert_eq!(
                        wait(pending).unwrap(),
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
        let blocker = submit(&engine, f32_full(50)).unwrap();
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
        .map(|request| (submit(&engine, request.clone()).unwrap(), request))
        .collect();
        gate.open.send(()).unwrap();
        assert_eq!(gate.entered(), 3, "the f32 full-ensemble group");
        gate.open.send(()).unwrap();
        assert_eq!(gate.entered(), 2, "the int8 0..1 group");
        gate.open.send(()).unwrap();
        wait(blocker).unwrap();
        for (pending, request) in queued {
            assert_eq!(wait(pending).unwrap(), pipeline.serve(&request).unwrap());
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
        let engine = InferenceEngine::shared(
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
        let predict = |k: usize| {
            let engine = Arc::clone(&engine);
            let image = image(k);
            std::thread::spawn(move || engine.predict_one(image))
        };
        // Blocks until `depth` requests sit in the queue (bounded, so a
        // request that never arrives fails the test instead of hanging it).
        let queued = |depth: u64| {
            let start = std::time::Instant::now();
            while engine.stats().queue_depth < depth {
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(60),
                    "a caller's request should have been queued"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        // One image puts the worker inside a batch; the rest queue behind
        // it, a good one on either side of the malformed ones.
        let blocker = predict(0);
        assert_eq!(gate.entered(), 1);
        let before = predict(1);
        queued(1);
        for bad in [
            Tensor::ones(&[4, 8, 8]),
            Tensor::ones(&[3, 16, 16]),
            Tensor::ones(&[1, 3, 8, 4]),
        ] {
            let err = engine.predict_one(bad.clone()).unwrap_err();
            assert!(
                matches!(err, EnsemblerError::ShapeMismatch(_)),
                "{:?}: {err:?}",
                bad.shape()
            );
        }
        let after = predict(2);
        queued(2);
        assert_eq!(
            engine.stats().queue_depth,
            2,
            "nothing malformed was queued"
        );
        gate.open.send(()).unwrap();
        assert_eq!(gate.entered(), 2, "the two good images, one batch");
        gate.open.send(()).unwrap();
        for (k, caller) in [blocker, before, after].into_iter().enumerate() {
            let alone = pipeline
                .predict(&image(k).reshape(&[1, 3, 8, 8]).unwrap())
                .unwrap();
            let logits = caller.join().unwrap().unwrap();
            assert_eq!(logits.data(), alone.data(), "image {k}");
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
        let a = submit(&engine, request(0)).unwrap();
        assert_eq!(gate.entered(), 1);
        // ... and the second starts the next request while the first is
        // still blocked: it neither waits for the first worker nor counts
        // the request that worker already drained as one still to arrive.
        let b = submit(&engine, request(1)).unwrap();
        assert_eq!(gate.entered(), 1);
        assert_eq!(engine.stats().queue_depth, 0);
        gate.open.send(()).unwrap();
        gate.open.send(()).unwrap();
        assert_eq!(wait(a).unwrap(), pipeline.serve(&request(0)).unwrap());
        assert_eq!(wait(b).unwrap(), pipeline.serve(&request(1)).unwrap());
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
        let mut seen: Vec<Tagged> = answers.iter().collect();
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
