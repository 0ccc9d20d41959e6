//! # ap-serve — a batched query-serving subsystem over the AP kNN engine
//!
//! The paper's engine answers one *batch* of queries at a time: cost is
//! amortized over the queries sharing a board configuration (§V) and, with
//! symbol-stream multiplexing, over the up-to-seven queries sharing a stream
//! window (§VI-B). Real similarity-search traffic does not arrive in batches —
//! it arrives one query at a time. This crate turns the engine (or any of the
//! comparison engines) into a *service* that recreates the batch regime from
//! single-query traffic:
//!
//! * [`SimilarityBackend`] — the uniform execution interface. Implemented by
//!   [`ApEngineBackend`] (the paper's engine bound to its dataset: a corpus
//!   larger than one board streams through successive board images, fanned
//!   out over the engine's workers and merged on the host), [`JaccardBackend`],
//!   every [`baselines::SearchIndex`] (linear scans and the approximate
//!   indexes) via a blanket impl, and [`IndexedApBackend`]
//!   (host-traverses-index / AP-scans-bucket, §III-D).
//! * [`LiveBackend`] — the mutable-corpus backend over an
//!   [`ap_knn::LiveEngine`]: epoch-snapshot queries plus insert/delete
//!   mutations applied through the same admission queue as queries.
//! * [`ResultCache`] — the runtime's LRU cache keyed by the query and every
//!   result-affecting option, so repeated queries are answered without
//!   touching the fabric.
//! * [`ServiceRuntime`] — **the serving front door**: a bounded
//!   priority/deadline-aware admission queue that coalesces submitted queries
//!   into batches sized to the engine's multiplexing width
//!   ([`ap_knn::multiplex::MAX_SLICES`] by default), with backpressure
//!   ([`binvec::SearchError::QueueFull`]) and deadline shedding
//!   ([`binvec::SearchError::DeadlineExceeded`]); every ticket resolves
//!   exactly once, through its own completion callback, and a
//!   [`ServiceStats`] report gives throughput, batch-fill ratio and cache hit
//!   rate.
//!   N worker threads, each owning its own backend (worker-owned prepared
//!   engines), drain the queue — or, with zero workers, the caller does
//!   through [`ServiceRuntime::poll`], which makes batch formation
//!   deterministic.
//! * [`net`] — **the network front door**: a length-prefixed binary wire
//!   protocol ([`Frame`]/[`FrameBuffer`]), a TCP server ([`ApServer`]) that
//!   decodes frames and feeds the [`ServiceRuntime`] (one thread per
//!   connection; the thread that resolves a ticket writes its response,
//!   matched back by correlation id), and a blocking client ([`ApClient`]).
//! * [`SearchPipeline`] — **the one query API**: a fluent builder
//!   (`over → metric → backend → build`) that constructs any backend family
//!   behind one fallible `query`/`query_batch` interface, with
//!   [`binvec::QueryOptions`] carrying `k`, the optional §VII distance bound,
//!   and an execution preference, and every answer returned as a [`Response`]
//!   with backend provenance. [`SearchPipeline::into_runtime`] hands the
//!   backend to a [`ServiceRuntime`], which owns batching and the cache.
//! * [`BackendSpec::from_name`] — stable backend names, so deployments swap
//!   engine families by configuration.
//!
//! ## Quickstart
//!
//! ```rust
//! use ap_serve::{BackendSpec, RuntimeConfig, SearchPipeline};
//! use binvec::QueryOptions;
//!
//! let dims = 32;
//! let data = binvec::generate::uniform_dataset(256, dims, 1);
//! let queries = binvec::generate::uniform_queries(20, dims, 2);
//!
//! let pipeline = SearchPipeline::over(data)
//!     .backend(BackendSpec::behavioral())
//!     .build()
//!     .expect("valid pipeline configuration");
//! let responses = pipeline
//!     .query_batch(&queries, &QueryOptions::top(5))
//!     .expect("well-formed queries");
//! assert_eq!(responses.len(), 20);
//! assert!(responses.iter().all(|r| r.neighbors.len() == 5));
//!
//! // The same backend behind the batching runtime, with a 128-entry cache;
//! // zero workers: this thread drives dispatch with `poll()`.
//! let config = RuntimeConfig::default()
//!     .with_workers(0)
//!     .with_options(QueryOptions::top(5))
//!     .with_cache_capacity(128);
//! let runtime = pipeline
//!     .into_runtime(config)
//!     .expect("valid runtime configuration");
//! let ticket = runtime.try_submit(queries[0].clone()).expect("admitted");
//! runtime.poll();
//! assert_eq!(ticket.wait().expect("served").neighbors, responses[0].neighbors);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cache;
mod dispatch;
pub mod live;
pub mod net;
pub mod pipeline;
pub mod queue;
pub mod runtime;
pub mod stats;

pub use backend::{
    ApEngineBackend, BackendBatch, IndexedApBackend, JaccardBackend, SimilarityBackend,
};
pub use binvec::{
    Deadline, ExecutionPreference, MutAck, Mutation, MutationOp, Priority, QueryOptions, ResultKey,
    SearchError,
};
pub use cache::{ResultCache, MAX_CACHE_CAPACITY};
pub use live::LiveBackend;
pub use net::{ApClient, ApServer, Frame, FrameBuffer, NetError, RetryPolicy, StatsFrame};
pub use pipeline::{
    BackendSpec, BaselineKind, IndexKind, Metric, Provenance, Query, Response, SearchPipeline,
    SearchPipelineBuilder,
};
pub use queue::QueryTicket;
pub use runtime::{
    Completed, FailedQuery, RuntimeConfig, ServiceRuntime, TicketHandle, TicketResult,
};
pub use stats::{MetricEntry, MetricValue, Metrics, ServiceStats};
