//! The serving runtime — the one front end: backends fed by a bounded,
//! deadline/priority-aware admission queue, each ticket resolved through one
//! completion callback.
//!
//! The paper's throughput story (§VI: query multiplexing fills the symbol
//! stream, batches dispatch at the multiplex width) assumes a server that is
//! *continuously fed* — which takes concurrency:
//!
//! ```text
//!  callers ──try_submit──▶ ScheduledQueue ──pop_batch──▶ worker 0 ─┐
//!  (any thread;            (bounded; priority ▸          owns its  │ per-ticket
//!   QueueFull = shed)       deadline ▸ FIFO;             backend / ├─▶ callbacks
//!                           expired entries fail         prepared  │ (fired on
//!                           *without* dispatch)          engine)   │  the worker
//!                                                       worker N ─┘  thread)
//! ```
//!
//! * **Admission** — [`ServiceRuntime::try_submit`] validates the query,
//!   answers cache hits instantly, fails already-expired deadlines with
//!   [`SearchError::DeadlineExceeded`] (never dispatched), and otherwise
//!   enqueues. A full queue refuses with [`SearchError::QueueFull`] instead of
//!   blocking the caller or growing without bound — that is the backpressure
//!   contract.
//! * **Scheduling** — the queue orders by [`binvec::Priority`], then deadline
//!   (earliest first), then submission order. Workers pop up to one batch of
//!   entries whose result-affecting options ([`binvec::ResultKey`]) match, so
//!   a dispatch always carries queries that can share one backend call.
//! * **Execution** — each worker owns its backend (typically a
//!   [`crate::ApEngineBackend`] holding a [`ap_knn::PreparedEngine`], whose
//!   pooled scratch makes the steady-state batch allocation-free). Workers
//!   never share execution state; only the queue, cache, and stats are shared.
//! * **Completion** — every ticket carries one callback, fired exactly once
//!   by the thread that resolves it: the worker, or the admitting thread for
//!   a cache hit or an expired deadline. [`ServiceRuntime::try_submit`] and
//!   its siblings build that callback from a channel, so callers block on
//!   *their* [`TicketHandle`], not on a global drain; the network server's
//!   callback writes the response frame itself.
//!
//! With [`RuntimeConfig::workers`] at 0 no thread is spawned: the caller
//! drives the same step with [`ServiceRuntime::poll`], which makes batch
//! formation deterministic (10 submissions at batch size 4 dispatch as
//! 4, 4, 2) — what tests, examples and single-threaded sweeps rely on.
//!
//! Every admitted query resolves exactly once — as a [`Completed`] or a
//! [`FailedQuery`] — and the [`ServiceStats`] conservation invariant
//! `submitted == served + failed + deadline_expired` holds once all tickets
//! have resolved.

use crate::backend::SimilarityBackend;
use crate::cache::{ResultCache, MAX_CACHE_CAPACITY};
use crate::dispatch;
use crate::queue::{PushRefused, QueryTicket, Scheduled, ScheduledQueue};
use crate::stats::ServiceStats;
use ap_knn::multiplex::MAX_SLICES;
use binvec::{BinaryVector, MutAck, Mutation, Neighbor, QueryOptions, SearchError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for a [`ServiceRuntime`].
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker threads, each owning one backend instance. With 0 no thread
    /// is spawned and the caller drives dispatch through
    /// [`ServiceRuntime::poll`].
    pub workers: usize,
    /// Maximum queries pending in the admission queue before `try_submit`
    /// refuses with [`SearchError::QueueFull`].
    pub queue_capacity: usize,
    /// Queries per dispatched batch (defaults to the §VI-B multiplex width).
    pub batch_size: usize,
    /// Default per-query options for [`ServiceRuntime::try_submit`];
    /// [`ServiceRuntime::try_submit_with`] overrides them per query.
    pub options: QueryOptions,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
            queue_capacity: 1024,
            batch_size: MAX_SLICES,
            options: QueryOptions::top(10),
            cache_capacity: 1024,
        }
    }
}

impl RuntimeConfig {
    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Overrides the default query options.
    pub fn with_options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// [`SearchError::InvalidConfig`] for a zero queue capacity or batch size
    /// (or an absurd cache capacity), plus whatever
    /// [`QueryOptions::validate`] rejects.
    pub fn build(self) -> Result<Self, SearchError> {
        if self.queue_capacity == 0 {
            return Err(SearchError::InvalidConfig {
                field: "queue_capacity",
                reason: "need room for at least one pending query".to_string(),
            });
        }
        if self.batch_size == 0 {
            return Err(SearchError::InvalidConfig {
                field: "batch_size",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.cache_capacity > MAX_CACHE_CAPACITY {
            return Err(SearchError::InvalidConfig {
                field: "cache_capacity",
                reason: format!(
                    "{} entries exceeds the sanity limit of {MAX_CACHE_CAPACITY}",
                    self.cache_capacity
                ),
            });
        }
        self.options.validate()?;
        Ok(self)
    }
}

/// A finished query: the ticket issued at submission and its neighbors.
#[derive(Clone, Debug)]
pub struct Completed {
    /// The ticket issued for this query at submission.
    pub ticket: QueryTicket,
    /// The submitted query. For a mutation ticket this is the inserted vector
    /// (or an empty placeholder for a delete).
    pub query: BinaryVector,
    /// The k nearest neighbors, sorted by (distance, id). Empty for mutation
    /// tickets — their payload is [`Self::mutation`].
    pub neighbors: Vec<Neighbor>,
    /// Set when this ticket was a mutation submitted through
    /// [`ServiceRuntime::try_submit_mutation`]: the ack carrying the stable id
    /// and the generation at which the mutation became visible. `None` for
    /// query tickets.
    pub mutation: Option<MutAck>,
}

/// A ticket that resolved without a result — its batch failed at dispatch,
/// its deadline expired, or its mutation was refused — delivered with the
/// typed error, so one bad batch never wedges the queue behind it.
#[derive(Clone, Debug)]
pub struct FailedQuery {
    /// The ticket issued for this query at submission.
    pub ticket: QueryTicket,
    /// The submitted query.
    pub query: BinaryVector,
    /// Why the ticket failed.
    pub error: SearchError,
}

/// What a worker (or the admission path) delivers through a ticket's callback.
pub type TicketResult = Result<Completed, FailedQuery>;

/// What resolves one ticket: called exactly once, on whichever thread
/// resolves it.
type Callback = Box<dyn FnOnce(TicketResult) + Send>;

/// The runtime's side of one ticket. Delivery fires the callback with the
/// result; a ticket dropped undelivered (its worker died mid-batch, or the
/// runtime was torn down around it) fires it with the disconnection failure,
/// so a callback is never lost.
struct Completion {
    ticket: QueryTicket,
    /// `None` once fired — or disarmed, when admission was refused and the
    /// caller answers the refusal itself.
    callback: Option<Callback>,
}

impl Completion {
    fn deliver(mut self, result: TicketResult) {
        if let Some(callback) = self.callback.take() {
            callback(result);
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(callback) = self.callback.take() {
            callback(Err(disconnected(self.ticket)));
        }
    }
}

/// The failure a ticket resolves with when the runtime was torn down before
/// serving it.
fn disconnected(ticket: QueryTicket) -> FailedQuery {
    FailedQuery {
        ticket,
        query: BinaryVector::zeros(0),
        error: SearchError::Backend {
            backend: "runtime".to_string(),
            reason: "completion channel disconnected".to_string(),
        },
    }
}

/// The caller's side of one submitted query: block on [`Self::wait`] for
/// *this* query's result — no global drain, no ordering coupling to other
/// callers' tickets — or poll it with [`Self::try_wait`].
pub struct TicketHandle {
    ticket: QueryTicket,
    rx: mpsc::Receiver<TicketResult>,
}

impl std::fmt::Debug for TicketHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketHandle")
            .field("ticket", &self.ticket)
            .finish_non_exhaustive()
    }
}

impl TicketHandle {
    /// The ticket identifying this submission.
    pub fn ticket(&self) -> QueryTicket {
        self.ticket
    }

    /// Blocks until the query resolves.
    ///
    /// # Errors
    /// The per-ticket [`FailedQuery`] if the batch failed at dispatch, the
    /// deadline expired, or the runtime shut down before delivering.
    pub fn wait(self) -> Result<Completed, FailedQuery> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(disconnected(self.ticket)),
        }
    }

    /// Returns the result if it is already available, without blocking.
    /// `None` strictly means "still pending": a ticket whose channel has
    /// disconnected (the runtime died before delivering) resolves as the
    /// disconnection [`FailedQuery`] rather than reading as pending forever.
    pub fn try_wait(&self) -> Option<TicketResult> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(disconnected(self.ticket))),
        }
    }

    /// Blocks up to `timeout` for the result. `None` strictly means the
    /// timeout elapsed with the query still pending; a disconnected channel
    /// resolves as the disconnection [`FailedQuery`] (see [`Self::try_wait`]).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<TicketResult> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(disconnected(self.ticket))),
        }
    }
}

/// What one admitted ticket asks a worker to do: dispatch a query, or apply
/// a corpus mutation. Both flavors ride the same priority ▸ deadline ▸ FIFO
/// queue; workers never batch the two kinds together.
pub(crate) enum Work {
    Query(BinaryVector),
    Mutation(Mutation),
}

impl Work {
    /// The vector delivered back in the ticket's result: the query itself,
    /// an insert's vector, or an empty placeholder for a delete.
    fn into_vector(self) -> BinaryVector {
        match self {
            Self::Query(query) => query,
            Self::Mutation(Mutation::Insert { vector }) => vector,
            Self::Mutation(Mutation::Delete { .. }) => BinaryVector::zeros(0),
        }
    }

    /// The submission counter of this kind of ticket.
    fn submitted<'s>(&self, stats: &'s mut ServiceStats) -> &'s mut u64 {
        match self {
            Self::Query(_) => &mut stats.queries_submitted,
            Self::Mutation(_) => &mut stats.mutations_submitted,
        }
    }

    /// Counts one ticket of this kind shed on its deadline: queries have
    /// their own counter, a shed mutation is a failed mutation.
    fn count_shed(&self, stats: &mut ServiceStats) {
        match self {
            Self::Query(_) => stats.deadline_expired += 1,
            Self::Mutation(_) => stats.mutations_failed += 1,
        }
    }
}

/// One queued ticket: everything a worker needs to execute and deliver it.
struct Pending {
    work: Work,
    options: QueryOptions,
    completion: Completion,
    /// When the ticket was admitted — dispatch time minus this is the queue
    /// wait recorded into [`ServiceStats::queue_wait`] (for queries) or the
    /// submit→visible staleness recorded into
    /// [`ServiceStats::mutation_staleness`] (for mutations).
    submitted_at: Instant,
}

/// Resolves one ticket — the only place a [`Completed`] or [`FailedQuery`] is
/// built: neighbors plus the mutation ack (if any), or the typed failure.
fn resolve(
    entry: Scheduled<Pending>,
    outcome: Result<(Vec<Neighbor>, Option<MutAck>), SearchError>,
) {
    let Pending {
        work, completion, ..
    } = entry.payload;
    let (ticket, query) = (entry.ticket, work.into_vector());
    completion.deliver(match outcome {
        Ok((neighbors, mutation)) => Ok(Completed {
            ticket,
            query,
            neighbors,
            mutation,
        }),
        Err(error) => Err(FailedQuery {
            ticket,
            query,
            error,
        }),
    });
}

/// State shared between the submission front and the workers.
struct Shared {
    queue: ScheduledQueue<Pending>,
    cache: Mutex<ResultCache>,
    stats: Mutex<ServiceStats>,
    batch_size: usize,
}

impl Shared {
    fn cache(&self) -> MutexGuard<'_, ResultCache> {
        self.cache.lock().expect("runtime cache poisoned")
    }

    fn stats(&self) -> MutexGuard<'_, ServiceStats> {
        self.stats.lock().expect("runtime stats poisoned")
    }
}

/// A query-serving runtime over [`SimilarityBackend`]s: worker threads, or —
/// with zero workers — the caller's own thread through [`Self::poll`]. See
/// the module docs for the architecture.
pub struct ServiceRuntime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// The worker [`Self::poll`] drives; `Some` exactly when no thread was
    /// spawned.
    inline: Option<Mutex<Worker>>,
    config: RuntimeConfig,
    backend_name: String,
    dims: usize,
    next_ticket: AtomicU64,
    started: Instant,
}

impl ServiceRuntime {
    /// Creates a runtime whose `config.workers` workers each own the backend
    /// `factory(worker_index)` builds for them — the worker-owned form:
    /// nothing about execution (prepared board images, scratch pools) is
    /// shared between workers. A zero-worker runtime builds `factory(0)` for
    /// [`Self::poll`] to serve from.
    ///
    /// # Errors
    /// Whatever [`RuntimeConfig::build`] or the factory rejects, plus
    /// [`SearchError::InvalidConfig`] if the per-worker backends disagree on
    /// dimensionality.
    pub fn try_new<F>(config: RuntimeConfig, factory: F) -> Result<Self, SearchError>
    where
        F: FnMut(usize) -> Result<Box<dyn SimilarityBackend>, SearchError>,
    {
        let config = config.build()?;
        let backends = (0..config.workers.max(1))
            .map(factory)
            .map(|backend| backend.map(Arc::<dyn SimilarityBackend>::from))
            .collect::<Result<_, _>>()?;
        Self::start(config, backends)
    }

    /// Creates a runtime whose workers all serve the *same* backend through an
    /// [`Arc`] — the shared form: one prepared board-image set (and one
    /// execution-scratch pool) serves every worker. Backends are `Sync`, so
    /// this is safe; prefer [`Self::try_new`] when per-worker isolation (own
    /// images, own pool) matters more than memory.
    ///
    /// # Errors
    /// Whatever [`RuntimeConfig::build`] rejects.
    pub fn try_shared(
        config: RuntimeConfig,
        backend: Arc<dyn SimilarityBackend>,
    ) -> Result<Self, SearchError> {
        let config = config.build()?;
        Self::start(config, vec![backend; config.workers.max(1)])
    }

    /// Starts a validated configuration over one backend per worker (one in
    /// all for a zero-worker runtime).
    fn start(
        config: RuntimeConfig,
        backends: Vec<Arc<dyn SimilarityBackend>>,
    ) -> Result<Self, SearchError> {
        let dims = backends[0].dims();
        let backend_name = backends[0].name();
        if let Some(other) = backends.iter().find(|b| b.dims() != dims) {
            return Err(SearchError::InvalidConfig {
                field: "workers",
                reason: format!(
                    "worker backends disagree on dimensionality ({} vs {})",
                    dims,
                    other.dims()
                ),
            });
        }

        // Stats and cache are seeded with the backend's status, so a corpus
        // restored from a WAL reports its generation and replay figures, and
        // caches results at its generation, before the first mutation.
        let live = backends[0].live_status();
        let mut cache = ResultCache::new(config.cache_capacity);
        if let Some(status) = &live {
            cache.advance_generation(status.generation);
        }
        let shared = Arc::new(Shared {
            queue: ScheduledQueue::new(config.queue_capacity),
            cache: Mutex::new(cache),
            stats: Mutex::new(ServiceStats {
                live,
                ..ServiceStats::default()
            }),
            batch_size: config.batch_size,
        });
        let mut workers = backends.into_iter().map(|backend| Worker {
            backend,
            batch: Vec::with_capacity(config.batch_size),
            expired: Vec::new(),
            queries: Vec::with_capacity(config.batch_size),
        });
        let inline = if config.workers == 0 {
            workers.next().map(Mutex::new)
        } else {
            None
        };
        let handles = workers
            .enumerate()
            .map(|(index, mut worker)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ap-serve-worker-{index}"))
                    .spawn(move || while worker.step(&shared, true) {})
                    .expect("spawn runtime worker")
            })
            .collect();

        Ok(Self {
            shared,
            handles,
            inline,
            config,
            backend_name,
            dims,
            next_ticket: AtomicU64::new(0),
            started: Instant::now(),
        })
    }

    /// The backend's label.
    pub fn backend_name(&self) -> String {
        self.backend_name.clone()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Dimensionality of the served vectors.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Worker threads serving dispatches; 0 when the caller drives
    /// [`Self::poll`].
    pub fn worker_count(&self) -> usize {
        self.config.workers
    }

    /// Queries admitted but not yet popped by a worker.
    pub fn pending(&self) -> usize {
        self.shared.queue.len()
    }

    /// Submits one query under the runtime's configured default options.
    ///
    /// # Errors
    /// See [`Self::try_submit_with`].
    pub fn try_submit(&self, query: BinaryVector) -> Result<TicketHandle, SearchError> {
        let options = self.config.options;
        self.try_submit_with(query, &options)
    }

    /// Submits one query with per-query options. The scheduling fields
    /// (`priority`, `deadline`) steer the queue; the result-affecting fields
    /// (`k`, `within`, `execution`) travel to the backend, and workers only
    /// batch queries whose result-affecting fields match.
    ///
    /// A cache hit or an already-expired deadline resolves the ticket
    /// immediately (as [`Completed`] / [`FailedQuery`] with
    /// [`SearchError::DeadlineExceeded`]) without entering the queue.
    ///
    /// # Errors
    /// * [`SearchError::ZeroDims`] / [`SearchError::DimMismatch`] — malformed
    ///   query, rejected before a ticket is minted;
    /// * [`SearchError::ZeroK`] / [`SearchError::ZeroDistanceBound`] — invalid
    ///   options;
    /// * [`SearchError::QueueFull`] — the bounded queue is at capacity
    ///   (backpressure; the ticket is never handed out — retry, shed, or on a
    ///   zero-worker runtime [`Self::poll`] first);
    /// * [`SearchError::Backend`] — the runtime has been shut down.
    pub fn try_submit_with(
        &self,
        query: BinaryVector,
        options: &QueryOptions,
    ) -> Result<TicketHandle, SearchError> {
        self.submit(Work::Query(query), options)
    }

    /// Submits one corpus mutation (insert or delete) as a ticket riding the
    /// same priority ▸ deadline ▸ FIFO queue as queries. The worker that pops
    /// it applies the mutation on its backend, advances the result cache to
    /// the new corpus generation (flushing pre-mutation entries), records the
    /// submit→visible staleness, and only then resolves the ticket as a
    /// [`Completed`] whose [`Completed::mutation`] carries the [`MutAck`] —
    /// so once the caller sees the ack, no stale neighbors can be served.
    ///
    /// Only the scheduling fields of `options` (`priority`, `deadline`)
    /// matter for a mutation; the result-affecting fields are ignored. An
    /// already-expired deadline resolves the ticket immediately as a
    /// [`FailedQuery`] with [`SearchError::DeadlineExceeded`]. Frozen-corpus
    /// backends fail the ticket at application time with
    /// [`SearchError::Unsupported`].
    ///
    /// # Errors
    /// * [`SearchError::ZeroDims`] / [`SearchError::DimMismatch`] — a
    ///   malformed insert vector, rejected before a ticket is minted;
    /// * [`SearchError::QueueFull`] — backpressure, no ticket handed out;
    /// * [`SearchError::Backend`] — the runtime has been shut down.
    pub fn try_submit_mutation(
        &self,
        mutation: Mutation,
        options: &QueryOptions,
    ) -> Result<TicketHandle, SearchError> {
        self.submit(Work::Mutation(mutation), options)
    }

    /// Admits `work` with a callback that sends its result to the returned
    /// handle.
    fn submit(&self, work: Work, options: &QueryOptions) -> Result<TicketHandle, SearchError> {
        let (tx, rx) = mpsc::channel();
        let ticket = self.admit(work, options, move |result| {
            let _ = tx.send(result);
        })?;
        Ok(TicketHandle { ticket, rx })
    }

    fn check_dims(&self, vector: &BinaryVector) -> Result<(), SearchError> {
        if vector.dims() == 0 {
            return Err(SearchError::ZeroDims);
        }
        if vector.dims() != self.dims {
            return Err(SearchError::DimMismatch {
                expected: self.dims,
                actual: vector.dims(),
            });
        }
        Ok(())
    }

    /// The one admission path behind queries and mutations: validate, then
    /// fail an expired deadline on the spot (typed, ticketed, never
    /// dispatched), complete a cached query on the spot without occupying
    /// the queue, and enqueue everything else or refuse it.
    ///
    /// `deliver` fires exactly once for an admitted ticket, on whichever
    /// thread resolves it — a worker, or this thread (before `admit`
    /// returns) for a cache hit or an expired deadline. A refused admission
    /// returns the error and never fires it.
    pub(crate) fn admit(
        &self,
        work: Work,
        options: &QueryOptions,
        deliver: impl FnOnce(TicketResult) + Send + 'static,
    ) -> Result<QueryTicket, SearchError> {
        options.validate()?;
        match &work {
            Work::Query(vector) | Work::Mutation(Mutation::Insert { vector }) => {
                self.check_dims(vector)?;
            }
            Work::Mutation(Mutation::Delete { .. }) => {}
        }
        let ticket = QueryTicket(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        let completion = Completion {
            ticket,
            callback: Some(Box::new(deliver)),
        };
        let expired = options.deadline.is_some_and(|d| d.is_expired());
        let cached = match &work {
            Work::Query(query) if !expired => self.shared.cache().get(query, options),
            _ => None,
        };
        let entry = Scheduled {
            ticket,
            priority: options.priority,
            deadline: options.deadline,
            payload: Pending {
                work,
                options: *options,
                completion,
                submitted_at: Instant::now(),
            },
        };
        if expired {
            {
                let mut stats = self.shared.stats();
                *entry.payload.work.submitted(&mut stats) += 1;
                entry.payload.work.count_shed(&mut stats);
            }
            resolve(entry, Err(SearchError::DeadlineExceeded));
            return Ok(ticket);
        }
        if let Some(neighbors) = cached {
            {
                let mut stats = self.shared.stats();
                stats.queries_submitted += 1;
                stats.queries_served += 1;
            }
            resolve(entry, Ok((neighbors, None)));
            return Ok(ticket);
        }
        // Counted before the push: once queued, a worker may resolve the
        // ticket (and a wire client read its answer) before this thread
        // runs again, and no snapshot may show it served but not submitted.
        *entry.payload.work.submitted(&mut self.shared.stats()) += 1;
        let (mut refused, error) = match self.shared.queue.try_push(entry) {
            Ok(()) => return Ok(ticket),
            Err(PushRefused::Full(entry)) => (
                entry,
                SearchError::QueueFull {
                    capacity: self.shared.queue.capacity(),
                },
            ),
            Err(PushRefused::Closed(entry)) => (
                entry,
                SearchError::Backend {
                    backend: self.backend_name.clone(),
                    reason: "runtime has been shut down".to_string(),
                },
            ),
        };
        {
            let mut stats = self.shared.stats();
            *refused.payload.work.submitted(&mut stats) -= 1;
            if matches!(error, SearchError::QueueFull { .. }) {
                stats.queue_full_rejections += 1;
            }
        }
        // The caller answers a refusal itself: disarm the callback so it
        // never fires.
        refused.payload.completion.callback = None;
        Err(error)
    }

    /// Runs the serving step on the calling thread until the queue is empty
    /// — how a zero-worker runtime dispatches. Batches form exactly as a
    /// worker thread would form them, in schedule order, so the outcome is a
    /// function of what was submitted. Concurrent callers take turns. With
    /// worker threads this returns at once: they drive the queue.
    pub fn poll(&self) {
        if let Some(inline) = &self.inline {
            // A step that panicked left only scratch behind, and every step
            // clears its scratch first — the worker is sound after a poison.
            let mut worker = inline.lock().unwrap_or_else(PoisonError::into_inner);
            while worker.step(&self.shared, false) {}
        }
    }

    /// A snapshot of the service statistics.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.shared.stats().clone();
        stats.batch_size = self.config.batch_size;
        stats.workers = self.config.workers;
        stats.queue_capacity = self.config.queue_capacity;
        stats.cache_capacity = self.config.cache_capacity;
        {
            let cache = self.shared.cache();
            stats.cache_hits = cache.hits();
            stats.cache_misses = cache.misses();
        }
        stats.uptime = self.started.elapsed();
        stats
    }

    /// Closes the admission queue, drains every pending ticket (each still
    /// resolves exactly once) — the workers do, then are joined; a
    /// zero-worker runtime runs what is left inline — and returns the final
    /// statistics.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        self.shared.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.poll();
    }
}

impl Drop for ServiceRuntime {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// One executor of the serving step — a worker thread's state, or the one
/// [`ServiceRuntime::poll`] drives: the backend it serves from and the
/// scratch it reuses from step to step.
struct Worker {
    backend: Arc<dyn SimilarityBackend>,
    batch: Vec<Scheduled<Pending>>,
    expired: Vec<Scheduled<Pending>>,
    queries: Vec<BinaryVector>,
}

impl Worker {
    /// One serving step, the body both modes execute: pop a deadline-checked,
    /// schedule-compatible batch; fail its expired entries; apply it
    /// (mutations) or dispatch it (queries) on this worker's backend; deliver
    /// per-ticket results. With `wait` the pop blocks for work. Returns
    /// `false` when there was nothing to pop — the queue is closed and
    /// drained or, without `wait`, merely empty.
    fn step(&mut self, shared: &Shared, wait: bool) -> bool {
        let popped = shared.queue.pop_batch(
            shared.batch_size,
            wait,
            &mut self.batch,
            &mut self.expired,
            |a, b| {
                // Queries batch with queries sharing one ResultKey (they can
                // share a backend call); mutations batch only with mutations
                // (they are applied sequentially, never dispatched).
                match (&a.work, &b.work) {
                    (Work::Query(_), Work::Query(_)) => {
                        a.options.result_key() == b.options.result_key()
                    }
                    (Work::Mutation(_), Work::Mutation(_)) => true,
                    _ => false,
                }
            },
        );
        if !popped {
            return false;
        }

        // Expired entries fail without dispatch — the fabric never sees them.
        if !self.expired.is_empty() {
            {
                let mut stats = shared.stats();
                for entry in &self.expired {
                    entry.payload.work.count_shed(&mut stats);
                }
            }
            for entry in self.expired.drain(..) {
                resolve(entry, Err(SearchError::DeadlineExceeded));
            }
        }

        match self.batch.first().map(|entry| &entry.payload.work) {
            None => {}
            // Mutation batches take their own path: applied, never dispatched.
            Some(Work::Mutation(_)) => apply_mutations(shared, &*self.backend, &mut self.batch),
            Some(Work::Query(_)) => self.dispatch_queries(shared),
        }
        true
    }

    /// Dispatches the popped query batch — all entries share one ResultKey by
    /// construction — and delivers its results or its failure.
    fn dispatch_queries(&mut self, shared: &Shared) {
        let Self {
            backend,
            batch,
            queries,
            ..
        } = self;
        let dispatch_started = Instant::now();
        let options = batch[0].payload.options;
        queries.clear();
        queries.extend(batch.iter().filter_map(|e| match &e.payload.work {
            Work::Query(query) => Some(query.clone()),
            Work::Mutation(_) => None,
        }));
        // The corpus generation bracketing the dispatch: results are only
        // offered to the cache when it did not move, so a mutation landing
        // mid-dispatch cannot re-poison the cache with pre-swap neighbors.
        let generation_before = backend.live_status().map_or(0, |s| s.generation);
        let dispatched = dispatch::execute_batch(&**backend, queries, &options);
        {
            let mut stats = shared.stats();
            dispatch::record_dispatch(&mut stats, &dispatched, batch.len(), shared.batch_size);
            for entry in batch.iter() {
                stats
                    .queue_wait
                    .record(dispatch_started.saturating_duration_since(entry.payload.submitted_at));
            }
        }

        match dispatched.outcome {
            Ok(result) => {
                let generation_after = backend.live_status().map_or(0, |s| s.generation);
                if generation_before == generation_after {
                    // The dispatch vec provides the cache keys, so each query
                    // is cloned exactly once per dispatch (the entry's own
                    // copy travels back in the Completed). `insert_at` drops
                    // the offer if the cache has already moved past this
                    // generation.
                    let mut cache = shared.cache();
                    for (query, neighbors) in queries.drain(..).zip(&result.results) {
                        cache.insert_at(generation_after, query, &options, neighbors.clone());
                    }
                }
                shared.stats().queries_served += batch.len() as u64;
                for (entry, neighbors) in batch.drain(..).zip(result.results) {
                    resolve(entry, Ok((neighbors, None)));
                }
            }
            Err(error) => {
                // Fail the batch's tickets individually and move on: the next
                // batch is independent, so one poison batch delays nothing.
                for entry in batch.drain(..) {
                    resolve(entry, Err(error.clone()));
                }
            }
        }
    }
}

/// Applies one popped batch of mutations in scheduling order, then advances
/// the cache and gauges, and only then delivers the acks.
///
/// The ordering is the serving layer's linearization contract: by the time a
/// caller observes a [`MutAck`], the result cache has been flushed past every
/// pre-mutation entry, so no subsequent lookup can serve neighbors computed
/// before the mutation.
fn apply_mutations(
    shared: &Shared,
    backend: &dyn SimilarityBackend,
    batch: &mut Vec<Scheduled<Pending>>,
) {
    let mutations: Vec<&Mutation> = batch
        .iter()
        .filter_map(|entry| match &entry.payload.work {
            Work::Mutation(mutation) => Some(mutation),
            Work::Query(_) => None,
        })
        .collect();
    // The batch call lets a durable backend cover every mutation with one
    // group-committed fsync instead of one per record — the acked-means-
    // durable contract still holds per outcome.
    let outcomes: Vec<Result<MutAck, SearchError>> = if mutations.len() == batch.len() {
        backend.apply_mutations(&mutations)
    } else {
        // Unreachable by batch construction (kinds never mix); kept typed
        // rather than panicking a worker.
        batch
            .iter()
            .map(|entry| match &entry.payload.work {
                Work::Mutation(mutation) => backend.apply_mutation(mutation),
                Work::Query(_) => Err(SearchError::Backend {
                    backend: backend.name(),
                    reason: "query entry in a mutation batch".to_string(),
                }),
            })
            .collect()
    };

    if outcomes.iter().any(|o| o.is_ok()) {
        match backend.live_status() {
            Some(status) => {
                shared.cache().advance_generation(status.generation);
                shared.stats().live = Some(status);
            }
            // A backend that applied a mutation but exposes no live status:
            // flush unconditionally — correctness over hit rate.
            None => shared.cache().flush(),
        }
    }

    let visible_at = Instant::now();
    {
        let mut stats = shared.stats();
        for (entry, outcome) in batch.iter().zip(&outcomes) {
            match outcome {
                Ok(_) => {
                    stats.mutations_applied += 1;
                    stats
                        .mutation_staleness
                        .record(visible_at.saturating_duration_since(entry.payload.submitted_at));
                }
                Err(_) => stats.mutations_failed += 1,
            }
        }
    }

    for (entry, outcome) in batch.drain(..).zip(outcomes) {
        resolve(entry, outcome.map(|ack| (Vec::new(), Some(ack))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ApEngineBackend;
    use ap_knn::{ApKnnEngine, ExecutionMode, KnnDesign};
    use baselines::{LinearScan, SearchIndex};
    use binvec::generate::{uniform_dataset, uniform_queries};
    use binvec::Deadline;

    fn linear_runtime(n: usize, dims: usize, config: RuntimeConfig) -> ServiceRuntime {
        let data = uniform_dataset(n, dims, 31);
        ServiceRuntime::try_new(config, move |_| {
            Ok(Box::new(LinearScan::new(data.clone())) as Box<dyn SimilarityBackend>)
        })
        .unwrap()
    }

    #[test]
    fn results_match_direct_search_and_tickets_resolve() {
        let dims = 16;
        let data = uniform_dataset(60, dims, 31);
        let direct = LinearScan::new(data);
        for workers in [0, 2] {
            let config = RuntimeConfig::default()
                .with_workers(workers)
                .with_batch_size(3)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(4));
            let runtime = linear_runtime(60, dims, config);
            assert_eq!(runtime.worker_count(), workers);

            let queries = uniform_queries(20, dims, 32);
            let handles: Vec<TicketHandle> = queries
                .iter()
                .map(|q| runtime.try_submit(q.clone()).unwrap())
                .collect();
            runtime.poll();
            // Handles resolve in submission order with their own query.
            for (sequence, (handle, query)) in handles.into_iter().zip(&queries).enumerate() {
                let completed = handle.wait().expect("runtime dispatch");
                assert_eq!(completed.ticket.sequence(), sequence as u64);
                assert_eq!(&completed.query, query);
                assert_eq!(completed.neighbors, direct.search(query, 4));
            }
            let stats = runtime.shutdown();
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.queries_submitted, 20);
            assert_eq!(stats.queries_served, 20);
            assert_eq!(stats.failed_queries + stats.deadline_expired, 0);
        }
    }

    #[test]
    fn zero_worker_poll_forms_deterministic_batches() {
        let runtime = linear_runtime(
            50,
            16,
            RuntimeConfig::default()
                .with_workers(0)
                .with_batch_size(4)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(3)),
        );
        let handles: Vec<TicketHandle> = uniform_queries(10, 16, 12)
            .into_iter()
            .map(|q| runtime.try_submit(q).unwrap())
            .collect();
        // Nothing dispatches until the caller polls.
        assert_eq!(runtime.pending(), 10);
        assert!(handles.iter().all(|h| h.try_wait().is_none()));
        runtime.poll();
        assert_eq!(runtime.pending(), 0);
        assert!(handles.iter().all(|h| h.try_wait().is_some()));
        // 10 submissions at batch size 4: 4, 4, 2.
        let stats = runtime.stats();
        assert_eq!(stats.batches_dispatched, 3);
        assert_eq!(stats.full_batches, 2);
        assert!((stats.batch_fill_ratio().unwrap() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn configured_options_reach_the_backend() {
        // A distance bound set on the runtime configuration must reach the
        // backend, not be silently replaced by a bare top-k; and a k beyond
        // the corpus serves the whole corpus.
        let dims = 16;
        let direct = LinearScan::new(uniform_dataset(36, dims, 31));
        let bound = 5u32;
        for options in [QueryOptions::top(36).within(bound), QueryOptions::top(50)] {
            let runtime = linear_runtime(
                36,
                dims,
                RuntimeConfig::default()
                    .with_workers(0)
                    .with_batch_size(2)
                    .with_cache_capacity(0)
                    .with_options(options),
            );
            let queries = uniform_queries(6, dims, 18);
            let handles: Vec<TicketHandle> = queries
                .iter()
                .map(|q| runtime.try_submit(q.clone()).unwrap())
                .collect();
            runtime.poll();
            for (handle, query) in handles.into_iter().zip(&queries) {
                let mut expected = direct.search(query, 36);
                if options.within.is_some() {
                    expected.retain(|n| n.distance < bound);
                }
                assert_eq!(handle.wait().unwrap().neighbors, expected);
            }
        }
    }

    /// A backend whose execution can be switched to fail, for exercising the
    /// dispatch-error path.
    struct FlakyBackend {
        inner: LinearScan,
        fail: Arc<std::sync::atomic::AtomicBool>,
    }

    impl SimilarityBackend for FlakyBackend {
        fn name(&self) -> String {
            "flaky".to_string()
        }
        fn len(&self) -> usize {
            SearchIndex::len(&self.inner)
        }
        fn dims(&self) -> usize {
            SearchIndex::dims(&self.inner)
        }
        fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> crate::BackendBatch {
            crate::BackendBatch::host_only(SearchIndex::search_batch(&self.inner, queries, k))
        }
        fn try_serve_batch(
            &self,
            queries: &[BinaryVector],
            options: &QueryOptions,
        ) -> Result<crate::BackendBatch, SearchError> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(SearchError::Backend {
                    backend: self.name(),
                    reason: "injected failure".to_string(),
                });
            }
            options.validate()?;
            Ok(self.serve_batch(queries, options.k))
        }
    }

    #[test]
    fn failed_batches_fail_their_tickets_and_block_nothing() {
        // The poison-batch regression: a batch whose dispatch fails must
        // complete with per-ticket errors — never be re-queued, where it
        // would be retried (and fail) forever. Even when every dispatch
        // fails, the poll terminates.
        let dims = 16;
        let data = uniform_dataset(30, dims, 11);
        let direct = LinearScan::new(data.clone());
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let backend = FlakyBackend {
            inner: LinearScan::new(data),
            fail: Arc::clone(&fail),
        };
        let runtime = ServiceRuntime::try_shared(
            RuntimeConfig::default()
                .with_workers(0)
                .with_batch_size(3)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(3)),
            Arc::new(backend),
        )
        .unwrap();

        let queries = uniform_queries(10, dims, 12);
        let poisoned: Vec<TicketHandle> = queries[..8]
            .iter()
            .map(|q| runtime.try_submit(q.clone()).unwrap())
            .collect();
        runtime.poll();
        assert_eq!(runtime.pending(), 0, "every batch was dispatched once");
        for (sequence, handle) in poisoned.into_iter().enumerate() {
            let failed = handle.wait().unwrap_err();
            assert_eq!(failed.ticket.sequence(), sequence as u64);
            assert!(matches!(failed.error, SearchError::Backend { .. }));
        }

        // Later traffic is served once the backend recovers — nothing is
        // stuck in front of it.
        fail.store(false, Ordering::SeqCst);
        let served: Vec<TicketHandle> = queries[8..]
            .iter()
            .map(|q| runtime.try_submit(q.clone()).unwrap())
            .collect();
        runtime.poll();
        for (handle, query) in served.into_iter().zip(&queries[8..]) {
            assert_eq!(handle.wait().unwrap().neighbors, direct.search(query, 3));
        }

        let stats = runtime.shutdown();
        assert_eq!(stats.failed_batches, 3);
        assert_eq!(stats.failed_queries, 8);
        assert_eq!(stats.batches_dispatched, 1);
        assert_eq!(stats.queries_served, 2);
        assert!(
            stats.failed_time > Duration::ZERO,
            "failed dispatch time is tracked separately"
        );
    }

    #[test]
    fn ap_prepared_backend_serves_through_the_runtime() {
        let dims = 16;
        let data = uniform_dataset(48, dims, 41);
        let direct = LinearScan::new(data.clone());
        let config = RuntimeConfig::default()
            .with_workers(2)
            .with_batch_size(4)
            .with_options(QueryOptions::top(5));
        // The worker-owned form: each worker prepares its own board images.
        let runtime = ServiceRuntime::try_new(config, move |_| {
            let engine =
                ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::CycleAccurate);
            Ok(Box::new(ApEngineBackend::try_new(engine, data.clone())?)
                as Box<dyn SimilarityBackend>)
        })
        .unwrap();
        let queries = uniform_queries(9, dims, 42);
        let handles: Vec<TicketHandle> = queries
            .iter()
            .map(|q| runtime.try_submit(q.clone()).unwrap())
            .collect();
        for (handle, query) in handles.into_iter().zip(&queries) {
            assert_eq!(handle.wait().unwrap().neighbors, direct.search(query, 5));
        }
    }

    #[test]
    fn expired_deadline_fails_at_admission_without_dispatch() {
        let runtime = linear_runtime(
            20,
            16,
            RuntimeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0),
        );
        let query = uniform_queries(1, 16, 33).pop().unwrap();
        let handle = runtime
            .try_submit_with(
                query,
                &QueryOptions::top(3).by(Deadline::at(Instant::now() - Duration::from_millis(1))),
            )
            .unwrap();
        let failed = handle.wait().unwrap_err();
        assert_eq!(failed.error, SearchError::DeadlineExceeded);
        let stats = runtime.shutdown();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.batches_dispatched, 0, "never dispatched");
        assert_eq!(
            stats.queries_submitted,
            stats.queries_served + stats.failed_queries + stats.deadline_expired
        );
    }

    #[test]
    fn malformed_queries_are_rejected_before_a_ticket_is_minted() {
        let runtime = linear_runtime(10, 16, RuntimeConfig::default().with_workers(1));
        assert_eq!(
            runtime.try_submit(BinaryVector::zeros(8)).unwrap_err(),
            SearchError::DimMismatch {
                expected: 16,
                actual: 8
            }
        );
        assert_eq!(
            runtime.try_submit(BinaryVector::zeros(0)).unwrap_err(),
            SearchError::ZeroDims
        );
        assert_eq!(runtime.stats().queries_submitted, 0);
        assert_eq!(runtime.pending(), 0, "poison queries never enter the queue");
        // The rejections leave the runtime fully live.
        let served = runtime.try_submit(BinaryVector::zeros(16)).unwrap();
        assert!(served.wait().is_ok());
    }

    #[test]
    fn cache_hits_resolve_instantly_and_respect_the_options_key() {
        let dims = 16;
        let data = uniform_dataset(30, dims, 35);
        let direct = LinearScan::new(data.clone());
        let config = RuntimeConfig::default()
            .with_workers(1)
            .with_batch_size(1)
            .with_cache_capacity(64)
            .with_options(QueryOptions::top(5));
        let runtime = ServiceRuntime::try_new(config, move |_| {
            Ok(Box::new(LinearScan::new(data.clone())) as Box<dyn SimilarityBackend>)
        })
        .unwrap();
        let query = uniform_queries(1, dims, 36).pop().unwrap();
        let first = runtime.try_submit(query.clone()).unwrap().wait().unwrap();
        // Same options: a hit. Different bound: a miss that dispatches anew
        // (the cache-key regression — bound is part of the key).
        let hit = runtime.try_submit(query.clone()).unwrap().wait().unwrap();
        assert_eq!(first.neighbors, hit.neighbors);
        let bounded = runtime
            .try_submit_with(query.clone(), &QueryOptions::top(5).within(3))
            .unwrap()
            .wait()
            .unwrap();
        let expected: Vec<_> = direct
            .search(&query, 5)
            .into_iter()
            .filter(|n| n.distance < 3)
            .collect();
        assert_eq!(bounded.neighbors, expected);
        let stats = runtime.shutdown();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.batches_dispatched, 2);
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        // With no worker to drain them, shutdown runs what is left inline:
        // every admitted ticket resolves exactly once in both modes.
        let dims = 16;
        for workers in [0, 1] {
            let runtime = linear_runtime(
                40,
                dims,
                RuntimeConfig::default()
                    .with_workers(workers)
                    .with_batch_size(4)
                    .with_cache_capacity(0),
            );
            let queries = uniform_queries(11, dims, 37);
            let handles: Vec<TicketHandle> = queries
                .iter()
                .map(|q| runtime.try_submit(q.clone()).unwrap())
                .collect();
            let stats = runtime.shutdown();
            for handle in handles {
                assert!(handle.wait().is_ok(), "drained ticket must resolve Ok");
            }
            assert_eq!(stats.queries_served, 11);
        }
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(matches!(
            RuntimeConfig::default().with_queue_capacity(0).build(),
            Err(SearchError::InvalidConfig {
                field: "queue_capacity",
                ..
            })
        ));
        assert!(matches!(
            RuntimeConfig::default().with_batch_size(0).build(),
            Err(SearchError::InvalidConfig {
                field: "batch_size",
                ..
            })
        ));
        assert_eq!(
            RuntimeConfig::default()
                .with_options(QueryOptions::top(0))
                .build()
                .unwrap_err(),
            SearchError::ZeroK
        );
        assert_eq!(
            RuntimeConfig::default()
                .with_options(QueryOptions::top(3).within(0))
                .build()
                .unwrap_err(),
            SearchError::ZeroDistanceBound
        );
        assert!(matches!(
            RuntimeConfig::default()
                .with_cache_capacity(MAX_CACHE_CAPACITY + 1)
                .build(),
            Err(SearchError::InvalidConfig {
                field: "cache_capacity",
                ..
            })
        ));
        assert!(RuntimeConfig::default().build().is_ok());
        assert!(RuntimeConfig::default().with_workers(0).build().is_ok());
    }

    #[test]
    fn callback_fires_once_on_resolution_and_synchronously_for_an_expired_deadline() {
        let dims = 16;
        let runtime = linear_runtime(
            30,
            dims,
            RuntimeConfig::default()
                .with_workers(1)
                .with_batch_size(1)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(3)),
        );
        let query = uniform_queries(1, dims, 51).pop().unwrap();
        let admitting = std::thread::current().id();

        // Resolved by the worker: the callback runs there, once, with the
        // result. It owns the only sender, so the channel disconnects once it
        // has run.
        let (tx, rx) = mpsc::channel();
        runtime
            .admit(
                Work::Query(query.clone()),
                &QueryOptions::top(3),
                move |result| {
                    tx.send((std::thread::current().id(), result)).unwrap();
                },
            )
            .unwrap();
        let (thread, result) = rx.recv_timeout(Duration::from_secs(30)).expect("callback");
        assert_ne!(thread, admitting, "fired by the worker");
        assert_eq!(result.unwrap().neighbors.len(), 3);
        assert!(rx.recv().is_err(), "fired exactly once");

        // An expired deadline resolves at admission: the callback has run on
        // the admitting thread by the time `admit` returns.
        let fired = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&fired);
        let expired =
            QueryOptions::top(3).by(Deadline::at(Instant::now() - Duration::from_millis(1)));
        runtime
            .admit(Work::Query(query), &expired, move |result| {
                let error = result.map(|_| ()).map_err(|failed| failed.error);
                log.lock()
                    .unwrap()
                    .push((std::thread::current().id(), error));
            })
            .unwrap();
        assert_eq!(
            *fired.lock().unwrap(),
            vec![(admitting, Err(SearchError::DeadlineExceeded))]
        );
        runtime.shutdown();

        // A refused admission returns its error and never fires the callback.
        let full = linear_runtime(
            30,
            dims,
            RuntimeConfig::default()
                .with_workers(0)
                .with_queue_capacity(1)
                .with_cache_capacity(0),
        );
        let queued = full.try_submit(BinaryVector::zeros(dims)).unwrap();
        let refused = full.admit(
            Work::Query(BinaryVector::zeros(dims)),
            &QueryOptions::top(3),
            |_| panic!("a refused admission fired its callback"),
        );
        assert_eq!(refused.unwrap_err(), SearchError::QueueFull { capacity: 1 });
        assert_eq!(
            full.stats().queries_submitted,
            1,
            "the refusal is not counted"
        );
        full.poll();
        assert!(queued.wait().is_ok());
    }

    #[test]
    fn runtime_teardown_wakes_undelivered_tickets_as_disconnections() {
        // A runtime dropped with a ticket in flight still fires its callback
        // exactly once: with the drained result (shutdown serves what is
        // queued) or with the disconnection failure.
        let dims = 16;
        for workers in [0, 1] {
            let runtime = linear_runtime(
                10,
                dims,
                RuntimeConfig::default()
                    .with_workers(workers)
                    .with_batch_size(1)
                    .with_cache_capacity(0)
                    .with_options(QueryOptions::top(2)),
            );
            let query = uniform_queries(1, dims, 53).pop().unwrap();
            let (tx, rx) = mpsc::channel();
            let ticket = runtime
                .admit(Work::Query(query), &QueryOptions::top(2), move |result| {
                    tx.send(result).unwrap();
                })
                .unwrap();
            drop(runtime);
            match rx.recv_timeout(Duration::from_secs(30)).expect("callback") {
                Ok(completed) => assert_eq!(completed.ticket, ticket),
                Err(failed) => assert_eq!(failed.error, disconnected(ticket).error),
            }
            assert!(rx.recv().is_err(), "fired exactly once");
        }

        // A ticket dropped undelivered — its worker died mid-batch — fires
        // with the disconnection failure.
        let (tx, rx) = mpsc::channel();
        drop(Completion {
            ticket: QueryTicket(7),
            callback: Some(Box::new(move |result| tx.send(result).unwrap())),
        });
        let failed = rx.recv().unwrap().unwrap_err();
        assert_eq!(failed.ticket, QueryTicket(7));
        assert_eq!(failed.error, disconnected(QueryTicket(7)).error);
        assert!(rx.recv().is_err(), "fired exactly once");
    }

    fn live_runtime(n: usize, dims: usize, config: RuntimeConfig) -> ServiceRuntime {
        let data = uniform_dataset(n, dims, 61);
        let engine = ApKnnEngine::new(KnnDesign::new(dims));
        let backend: Arc<dyn SimilarityBackend> = Arc::new(
            crate::live::LiveBackend::try_new(engine, &data, ap_knn::live::LiveConfig::default())
                .unwrap(),
        );
        ServiceRuntime::try_shared(config, backend).unwrap()
    }

    #[test]
    fn mutation_tickets_resolve_with_acks_and_conservation_holds() {
        let dims = 16;
        let runtime = live_runtime(
            20,
            dims,
            RuntimeConfig::default()
                .with_workers(1)
                .with_batch_size(4)
                .with_options(QueryOptions::top(3)),
        );
        let options = QueryOptions::top(3);
        let vectors = uniform_queries(3, dims, 62);
        let mut acks = Vec::new();
        for vector in &vectors {
            let handle = runtime
                .try_submit_mutation(
                    binvec::Mutation::Insert {
                        vector: vector.clone(),
                    },
                    &options,
                )
                .unwrap();
            let completed = handle.wait().expect("insert must apply");
            acks.push(completed.mutation.expect("mutation ticket carries an ack"));
        }
        // Ids are assigned in submission order, past the base corpus.
        assert_eq!(
            acks.iter().map(|a| a.id).collect::<Vec<_>>(),
            vec![20, 21, 22]
        );
        assert!(acks.windows(2).all(|w| w[0].generation < w[1].generation));

        let deleted = runtime
            .try_submit_mutation(binvec::Mutation::Delete { id: 21 }, &options)
            .unwrap()
            .wait()
            .unwrap()
            .mutation
            .unwrap();
        assert_eq!(deleted.op, binvec::MutationOp::Delete);

        // A mutation with an already-expired deadline sheds as a mutation
        // failure, never touching the query conservation invariant.
        let shed = runtime
            .try_submit_mutation(
                binvec::Mutation::Delete { id: 20 },
                &QueryOptions::top(3).by(Deadline::at(Instant::now() - Duration::from_millis(1))),
            )
            .unwrap()
            .wait()
            .unwrap_err();
        assert_eq!(shed.error, SearchError::DeadlineExceeded);

        let stats = runtime.shutdown();
        assert_eq!(stats.mutations_submitted, 5);
        assert_eq!(stats.mutations_applied, 4);
        assert_eq!(stats.mutations_failed, 1);
        assert_eq!(
            stats.mutations_submitted,
            stats.mutations_applied + stats.mutations_failed
        );
        assert_eq!(stats.deadline_expired, 0, "queries untouched by the shed");
        let live = stats.live.expect("a live backend reports its status");
        assert_eq!(live.generation, 4);
        assert_eq!(live.delta_vectors, 3);
        assert_eq!(live.tombstones, 1);
        assert!(stats.mutation_staleness.summary().is_some());
    }

    #[test]
    fn cache_serves_fresh_results_after_a_mutation() {
        // The regression: a cached result must not outlive the corpus epoch
        // that produced it. Query, mutate, re-query — the second answer must
        // see the mutation even though the first was cached. A caller-driven
        // runtime brackets and flushes exactly like a worker thread does.
        let dims = 16;
        for workers in [0, 1] {
            let runtime = live_runtime(
                20,
                dims,
                RuntimeConfig::default()
                    .with_workers(workers)
                    .with_batch_size(1)
                    .with_cache_capacity(64)
                    .with_options(QueryOptions::top(2)),
            );
            let resolve = |handle: TicketHandle| {
                runtime.poll();
                handle.wait().unwrap()
            };
            let query = uniform_queries(1, dims, 63).pop().unwrap();
            let before = resolve(runtime.try_submit(query.clone()).unwrap());
            assert_ne!(before.neighbors[0].distance, 0, "query not in base corpus");

            // Insert the query itself: an exact match at distance 0 with id
            // 20. By MutAck delivery the cache is already flushed.
            let insert = binvec::Mutation::Insert {
                vector: query.clone(),
            };
            let ack = resolve(
                runtime
                    .try_submit_mutation(insert, &QueryOptions::top(2))
                    .unwrap(),
            )
            .mutation
            .unwrap();
            assert_eq!(ack.id, 20);

            let after = resolve(runtime.try_submit(query.clone()).unwrap());
            assert_eq!(after.neighbors[0].id, 20, "fresh result, not the stale hit");
            assert_eq!(after.neighbors[0].distance, 0);

            // The post-mutation result is cached at the new generation: a
            // third submission is a pure cache hit.
            let hit = runtime.try_submit(query).unwrap().wait().unwrap();
            assert_eq!(hit.neighbors, after.neighbors);
            let stats = runtime.shutdown();
            assert_eq!(stats.cache_hits, 1);
            assert_eq!(
                stats.batches_dispatched, 2,
                "two query dispatches; mutations are applied, not dispatched"
            );
        }
    }

    /// A live backend whose first dispatch announces itself and then holds
    /// until released, so a test can queue a whole load behind it.
    struct HeldFirstDispatch {
        inner: crate::live::LiveBackend,
        entered: Mutex<Option<mpsc::Sender<()>>>,
        release: Mutex<Option<mpsc::Receiver<()>>>,
    }

    impl SimilarityBackend for HeldFirstDispatch {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn dims(&self) -> usize {
            self.inner.dims()
        }
        fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> crate::BackendBatch {
            self.inner.serve_batch(queries, k)
        }
        fn try_serve_batch(
            &self,
            queries: &[BinaryVector],
            options: &QueryOptions,
        ) -> Result<crate::BackendBatch, SearchError> {
            if let Some(entered) = self.entered.lock().unwrap().take() {
                entered.send(()).unwrap();
                let release = self.release.lock().unwrap().take().unwrap();
                release.recv().unwrap();
            }
            self.inner.try_serve_batch(queries, options)
        }
        fn apply_mutations(&self, mutations: &[&Mutation]) -> Vec<Result<MutAck, SearchError>> {
            self.inner.apply_mutations(mutations)
        }
        fn live_status(&self) -> Option<ap_knn::live::LiveStatus> {
            self.inner.live_status()
        }
    }

    #[test]
    fn caller_driven_and_threaded_runtimes_serve_a_load_identically() {
        // The same seeded load — mixed ResultKeys, priorities, one mutation —
        // through `workers: 0` + poll and through one worker thread. The
        // thread's first pop is held inside the backend until the whole load
        // is queued, so both modes form their batches from the same queue.
        let dims = 16;
        let serve = |workers: usize| {
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel();
            let backend = HeldFirstDispatch {
                inner: crate::live::LiveBackend::try_new(
                    ApKnnEngine::new(KnnDesign::new(dims)),
                    &uniform_dataset(40, dims, 71),
                    ap_knn::live::LiveConfig::default(),
                )
                .unwrap(),
                entered: Mutex::new(Some(entered_tx)),
                release: Mutex::new(Some(release_rx)),
            };
            let runtime = ServiceRuntime::try_shared(
                RuntimeConfig::default()
                    .with_workers(workers)
                    .with_batch_size(4)
                    .with_options(QueryOptions::top(3)),
                Arc::new(backend),
            )
            .unwrap();

            // The plug: dispatched alone in both modes.
            let mut load = uniform_queries(25, dims, 72);
            let mut handles = vec![runtime.try_submit(load.pop().unwrap()).unwrap()];
            if workers == 0 {
                release_tx.send(()).unwrap();
                runtime.poll();
            }
            entered_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the plug reaches the backend");

            let keys = [
                QueryOptions::top(3),
                QueryOptions::top(5),
                QueryOptions::top(5).within(6),
            ];
            let priorities = [
                binvec::Priority::Normal,
                binvec::Priority::High,
                binvec::Priority::Low,
                binvec::Priority::Normal,
            ];
            for (i, query) in load.into_iter().enumerate() {
                let options = keys[i % keys.len()].prioritized(priorities[i % priorities.len()]);
                if i == 9 {
                    // Scheduled just ahead of its own query, which must then
                    // find it at distance 0 as id 40.
                    let insert = Mutation::Insert {
                        vector: query.clone(),
                    };
                    handles.push(runtime.try_submit_mutation(insert, &options).unwrap());
                }
                handles.push(runtime.try_submit_with(query, &options).unwrap());
            }
            if workers > 0 {
                release_tx.send(()).unwrap();
            }
            runtime.poll();
            let completed: Vec<Completed> = handles
                .into_iter()
                .map(|handle| handle.wait().expect("every ticket is served"))
                .collect();
            (completed, runtime.shutdown())
        };

        let (polled, polled_stats) = serve(0);
        let (threaded, threaded_stats) = serve(1);
        let view = |completed: &[Completed]| -> Vec<_> {
            completed
                .iter()
                .map(|c| (c.ticket, c.query.clone(), c.neighbors.clone(), c.mutation))
                .collect()
        };
        assert_eq!(view(&polled), view(&threaded));
        assert!(polled.iter().any(|c| c.mutation.is_some()));
        let nearest_is_the_insert = |c: &Completed| {
            c.neighbors
                .first()
                .is_some_and(|n| (n.id, n.distance) == (40, 0))
        };
        assert!(polled.iter().any(nearest_is_the_insert));
        // Every count the snapshot exposes, bar the worker count itself.
        let counters = |s: &ServiceStats| {
            let mut counts = s.metrics().0;
            counts.retain(|e| {
                matches!(e.value, crate::MetricValue::Count(_)) && e.name != "config.workers"
            });
            counts
        };
        assert!(counters(&polled_stats)
            .iter()
            .any(|e| e.name == "live.generation"));
        assert_eq!(counters(&polled_stats), counters(&threaded_stats));
        assert_eq!((polled_stats.workers, threaded_stats.workers), (0, 1));
    }

    #[test]
    fn shared_backend_form_serves_all_workers_from_one_arc() {
        let dims = 16;
        let data = uniform_dataset(30, dims, 39);
        let direct = LinearScan::new(data.clone());
        let backend: Arc<dyn SimilarityBackend> = Arc::new(LinearScan::new(data));
        let runtime = ServiceRuntime::try_shared(
            RuntimeConfig::default()
                .with_workers(3)
                .with_batch_size(2)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(3)),
            backend,
        )
        .unwrap();
        let queries = uniform_queries(10, dims, 40);
        let handles: Vec<TicketHandle> = queries
            .iter()
            .map(|q| runtime.try_submit(q.clone()).unwrap())
            .collect();
        for (handle, query) in handles.into_iter().zip(&queries) {
            assert_eq!(handle.wait().unwrap().neighbors, direct.search(query, 3));
        }
    }
}
