//! # ap-similarity — similarity search on (simulated) Automata Processors
//!
//! This is the umbrella crate of the reproduction of *"Similarity Search on Automata
//! Processors"* (Lee, Kotalik, del Mundo, Alaghi, Ceze, Oskin — IPDPS 2017). It
//! re-exports the workspace crates and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`ap_sim`] | Cycle-accurate Automata Processor simulator, PCRE front end, device resource model |
//! | [`binvec`] | Bit-packed binary vectors, Hamming distance, ITQ quantization, corpus I/O, workloads |
//! | [`baselines`] | CPU linear scan, kd-tree / k-means / LSH indexes, FPGA and GPU simulators |
//! | [`ap_knn`] | The paper's contribution: kNN automata, temporal sort, optimizations, extensions, Jaccard, scheduler, live mutable corpora |
//! | [`ap_serve`] | Query-serving subsystem: admission batching, result caching, live mutations, wire protocol, service stats |
//! | [`ap_analyze`] | Static analysis: reachability/liveness, translation validation of compiled images, resource reconciliation, redundancy profiling |
//! | [`perf_model`] | Table I platforms, run-time and energy models for table regeneration |
//!
//! ## Quickstart
//!
//! Every backend family is constructed and queried through one fluent entry
//! point, [`SearchPipeline`](ap_serve::SearchPipeline): pick a metric, pick a
//! backend, then issue fallible queries whose
//! options carry `k`, an optional distance bound (the paper's §VII range-query
//! scenario), and an execution preference.
//!
//! ```rust
//! use ap_similarity::prelude::*;
//!
//! // A small Hamming-space dataset and a query batch.
//! let dims = 32;
//! let data = binvec::generate::uniform_dataset(64, dims, 1);
//! let queries = binvec::generate::uniform_queries(4, dims, 2);
//!
//! // Exact CPU baseline.
//! let cpu = LinearScan::new(data.clone());
//!
//! // The AP engine behind the uniform pipeline: one NFA per dataset vector,
//! // queries streamed through the cycle-accurate simulator, the temporally
//! // encoded sort decoded back into neighbor lists.
//! let pipeline = SearchPipeline::over(data)
//!     .metric(Metric::Hamming)
//!     .backend(BackendSpec::ap())
//!     .build()
//!     .expect("valid pipeline configuration");
//!
//! let responses = pipeline
//!     .query_batch(&queries, &QueryOptions::top(3))
//!     .expect("well-formed queries");
//! for (q, response) in queries.iter().zip(&responses) {
//!     assert_eq!(response.neighbors, cpu.search(q, 3));
//! }
//! let stats = responses[0].ap_run.expect("the AP engine reports run stats");
//! assert_eq!(stats.board_configurations, 1);
//!
//! // Range query (§VII): only neighbors strictly within 10 bit flips.
//! let bounded = pipeline
//!     .query(&queries[0], &QueryOptions::top(16).within(10))
//!     .expect("well-formed query");
//! assert!(bounded.neighbors.iter().all(|n| n.distance < 10));
//! ```
//!
//! ## Migrating from the pre-pipeline entry points
//!
//! | Old entry point | New builder call |
//! |---|---|
//! | `ApKnnEngine::new(design).search_batch(&data, &queries, k)` (removed) | `SearchPipeline::over(data).build()?.query_batch(&queries, &QueryOptions::top(k))?` |
//! | `ApKnnEngine` + `ExecutionMode::Behavioral` | `.backend(BackendSpec::behavioral())` |
//! | `ParallelApScheduler` as a serving backend (`BackendSpec::scheduler(n)`, removed) | `.backend(BackendSpec::ap())`: the engine fans its board images over its own workers; `ParallelApScheduler::search_batch` stays as the paper-side multi-board model |
//! | `JaccardSearcher::new(design).search_batch(..)` | `.metric(Metric::Jaccard)` (AP backend) |
//! | `IndexedApEngine::new(&backed_index, design).search_batch(..)` | `.backend(BackendSpec::Indexed(IndexKind::KdForest \| KMeans \| Lsh))` |
//! | `LinearScan::new(data).search_batch(..)` (any [`baselines::SearchIndex`]) | `.backend(BackendSpec::Baseline(BaselineKind::...))` |
//! | the sharded backend over N engines (removed) | `.backend(BackendSpec::ap())`: a corpus larger than one board streams through successive board images, merged on the host |
//! | `ResultCache::new(cap)` wired by hand, or the pipeline's own cache (removed) | `pipeline.into_runtime(RuntimeConfig::default().with_cache_capacity(cap))?` |
//! | the synchronous `submit` / `drain` service front end (removed) | `pipeline.into_runtime(RuntimeConfig::default().with_workers(0))?`, `try_submit`, `poll()`, `handle.wait()` |
//!
//! The deprecated panicking `ApKnnEngine::search_batch` wrapper has been
//! removed; every call site reports typed [`binvec::SearchError`]s instead.
//! For concurrent serving (multiple caller threads, deadline/priority
//! scheduling, backpressure), see [`ap_serve::ServiceRuntime`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ap_analyze;
pub use ap_knn;
pub use ap_serve;
pub use ap_sim;
pub use baselines;
pub use binvec;
pub use perf_model;

// Compiles and runs every `rust` block of the README as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Convenient re-exports of the most frequently used types across the workspace.
pub mod prelude {
    pub use ap_analyze::{AnalysisReport, Analyzer, CapacityContext, Finding, Severity};
    pub use ap_knn::{
        ApKnnEngine, AutoPlanner, BoardCapacity, ExecutionMode, ExecutionPlanner, FaultPlan,
        JaccardSearcher, KnnDesign, LiveConfig, LiveEngine, LiveStatus, ParallelApScheduler,
        PreparedEngine, RestoreReport, StreamLayout, WalConfig, WalError, WalGauges,
    };
    pub use ap_serve::{
        ApClient, ApEngineBackend, ApServer, BackendSpec, BaselineKind, CompletionSet, FailedQuery,
        Frame, FrameBuffer, IndexKind, LiveBackend, Metric, NetError, Provenance, Response,
        RetryPolicy, RuntimeConfig, SearchPipeline, ServiceRuntime, ServiceStats,
        SimilarityBackend, StatsFrame, TicketHandle, TicketResult,
    };
    pub use ap_sim::{
        ApGeneration, AutomataNetwork, CompiledPcre, DeviceConfig, PcreSet, Simulator, TimingModel,
    };
    pub use baselines::{
        FpgaAccelerator, FpgaConfig, GpuAccelerator, GpuConfig, HierarchicalKMeans, KdForest,
        LinearScan, LshIndex, ParallelLinearScan, SearchIndex,
    };
    pub use binvec::{
        BinaryDataset, BinaryVector, ItqConfig, ItqQuantizer, Neighbor, TopK, Workload,
    };
    pub use binvec::{
        Deadline, ExecutionPreference, MutAck, Mutation, MutationOp, Priority, QueryOptions,
        SearchError,
    };
    pub use perf_model::{EnergyReport, KnnJob, Platform, RuntimeModel};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_core_types() {
        let design = KnnDesign::new(8);
        let engine = ApKnnEngine::new(design);
        assert_eq!(engine.design().dims, 8);
        let _ = Workload::ALL;
        let _ = Platform::ALL;
    }
}
