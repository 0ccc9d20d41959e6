//! One query API over every backend family: the [`SearchPipeline`] builder.
//!
//! The paper's value is that *one streamed query* answers kNN over every
//! encoding — exact Hamming, Jaccard, the §III-D indexed front ends, and the
//! §VII range-query extensions — yet each of those used to be a differently
//! shaped entry point. The pipeline is the single fluent front door:
//!
//! ```rust
//! use ap_serve::pipeline::{BackendSpec, Metric, SearchPipeline};
//! use binvec::QueryOptions;
//!
//! let data = binvec::generate::uniform_dataset(128, 32, 1);
//! let queries = binvec::generate::uniform_queries(3, 32, 2);
//!
//! let pipeline = SearchPipeline::over(data)
//!     .metric(Metric::Hamming)
//!     .backend(BackendSpec::behavioral())
//!     .build()
//!     .unwrap();
//!
//! let response = pipeline.query(&queries[0], &QueryOptions::top(4)).unwrap();
//! assert_eq!(response.neighbors.len(), 4);
//! assert_eq!(response.provenance.backend, "ap-knn");
//! ```
//!
//! Every call is fallible ([`binvec::SearchError`]), every answer is a
//! [`Response`] carrying neighbors, optional engine [`ApRunStats`], and
//! backend provenance, and [`QueryOptions::within`] turns any configured
//! backend into the ε-bounded range query of §VII. Caching, admission
//! batching and worker threads belong to the [`ServiceRuntime`] that
//! [`SearchPipeline::into_runtime`] hands the backend to.

use crate::backend::{ApEngineBackend, IndexedApBackend, JaccardBackend, SimilarityBackend};
use crate::runtime::{RuntimeConfig, ServiceRuntime};
use ap_knn::engine::ApRunStats;
use ap_knn::indexed::DatasetBackedIndex;
use ap_knn::{ApKnnEngine, BoardCapacity, ExecutionMode, JaccardSearcher, KnnDesign};
use baselines::{
    HierarchicalKMeans, KMeansConfig, KdForest, KdForestConfig, LinearScan, LshConfig, LshIndex,
    ParallelLinearScan,
};
use binvec::{BinaryDataset, BinaryVector, Neighbor, QueryOptions, SearchError};

/// A query vector, in the same bit-packed shape the datasets use.
pub type Query = BinaryVector;

/// The similarity metric a pipeline ranks by.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Metric {
    /// Exact Hamming distance (the paper's primary encoding).
    #[default]
    Hamming,
    /// Jaccard similarity, reported through the quantized-dissimilarity
    /// distance key of [`crate::backend::jaccard_distance`].
    Jaccard,
}

/// The spatial-index families servable behind the §III-D host/AP split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Randomized kd-trees (FLANN's default index).
    KdForest,
    /// Hierarchical k-means (k-majority in Hamming space).
    KMeans,
    /// Bit-sampling LSH with multiple tables.
    Lsh,
}

/// The host-side baseline engines from the `baselines` crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// Single-threaded exact linear scan.
    Linear,
    /// Multi-threaded exact linear scan.
    ParallelLinear {
        /// Worker threads.
        threads: usize,
    },
    /// Approximate kd-forest searched entirely on the host.
    KdForest,
    /// Approximate hierarchical k-means searched entirely on the host.
    KMeans,
    /// Approximate LSH searched entirely on the host.
    Lsh,
}

/// Which engine family answers the pipeline's queries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BackendSpec {
    /// The paper's single-board AP engine.
    Ap {
        /// Cycle-accurate simulation or the behavioural fast path; `None`
        /// lets the engine's measured-crossover planner pick per run
        /// ([`ap_knn::AutoPlanner`]).
        mode: Option<ExecutionMode>,
        /// Board capacity override (`None` = paper-calibrated for the dims).
        capacity: Option<BoardCapacity>,
    },
    /// Host-traverses-index / AP-scans-bucket (§III-D).
    Indexed(IndexKind),
    /// A host-only comparison engine.
    Baseline(BaselineKind),
}

impl Default for BackendSpec {
    fn default() -> Self {
        Self::ap()
    }
}

impl BackendSpec {
    /// The cycle-accurate AP engine with paper-calibrated capacity.
    pub fn ap() -> Self {
        Self::Ap {
            mode: Some(ExecutionMode::CycleAccurate),
            capacity: None,
        }
    }

    /// The behavioural AP engine (identical results, no network instantiation).
    pub fn behavioral() -> Self {
        Self::Ap {
            mode: Some(ExecutionMode::Behavioral),
            capacity: None,
        }
    }

    /// The AP engine with the frontier-aware auto planner: cycle-accurate vs
    /// behavioural is picked per run from fabric size × stream length using
    /// the crossover of [`ap_knn::plan::AutoPlanner`]'s fitted cost model.
    /// Results are bit-identical either way.
    pub fn auto() -> Self {
        Self::Ap {
            mode: None,
            capacity: None,
        }
    }

    /// Resolves a stable backend name, so deployments pick the engine family
    /// by configuration:
    ///
    /// | name | backend |
    /// |---|---|
    /// | `ap` | cycle-accurate single-board AP engine |
    /// | `ap-behavioral` | behavioural AP engine |
    /// | `ap-auto` | AP engine with the frontier-aware auto planner |
    /// | `indexed-kdforest` / `indexed-kmeans` / `indexed-lsh` | §III-D host-index / AP-bucket-scan |
    /// | `linear` / `parallel-linear` | exact CPU scans |
    /// | `kdforest` / `kmeans` / `lsh` | host-only approximate indexes |
    ///
    /// # Errors
    /// [`SearchError::Unsupported`] for any other name; the message lists the
    /// names above.
    pub fn from_name(name: &str) -> Result<Self, SearchError> {
        let named = [
            ("ap", Self::ap()),
            ("ap-behavioral", Self::behavioral()),
            ("ap-auto", Self::auto()),
            ("indexed-kdforest", Self::Indexed(IndexKind::KdForest)),
            ("indexed-kmeans", Self::Indexed(IndexKind::KMeans)),
            ("indexed-lsh", Self::Indexed(IndexKind::Lsh)),
            ("linear", Self::Baseline(BaselineKind::Linear)),
            (
                "parallel-linear",
                Self::Baseline(BaselineKind::ParallelLinear { threads: 4 }),
            ),
            ("kdforest", Self::Baseline(BaselineKind::KdForest)),
            ("kmeans", Self::Baseline(BaselineKind::KMeans)),
            ("lsh", Self::Baseline(BaselineKind::Lsh)),
        ];
        match named.iter().find(|(known, _)| *known == name) {
            Some(&(_, spec)) => Ok(spec),
            None => Err(SearchError::Unsupported {
                what: format!(
                    "no backend named '{name}' (available: {})",
                    named.map(|(known, _)| known).join(", ")
                ),
            }),
        }
    }

    /// Instantiates this spec over `data` for `metric`, binding the engine to
    /// the dataset.
    ///
    /// # Errors
    /// [`SearchError::Unsupported`] for metric/backend combinations no engine
    /// serves (only the single-board AP engine implements Jaccard),
    /// [`SearchError::InvalidConfig`] for a zero board capacity or zero
    /// threads, and any error the underlying constructor reports.
    pub fn instantiate(
        &self,
        data: &BinaryDataset,
        metric: Metric,
    ) -> Result<Box<dyn SimilarityBackend>, SearchError> {
        let dims = data.dims();
        if dims == 0 {
            return Err(SearchError::ZeroDims);
        }
        // A zero board capacity is rejected, not silently clamped to 1 by the
        // engine.
        if let Self::Ap {
            capacity: Some(capacity),
            ..
        } = *self
        {
            if capacity.vectors_per_board == 0 {
                return Err(SearchError::InvalidConfig {
                    field: "capacity",
                    reason: "vectors_per_board must be at least 1".to_string(),
                });
            }
        }
        let design = KnnDesign::new(dims);
        if metric == Metric::Jaccard {
            return match *self {
                Self::Ap { mode, capacity } => {
                    if mode == Some(ExecutionMode::Behavioral) {
                        return Err(SearchError::Unsupported {
                            what: "Jaccard search runs cycle-accurately; there is no behavioral \
                                   Jaccard engine"
                                .to_string(),
                        });
                    }
                    let mut searcher = JaccardSearcher::new(design);
                    if let Some(capacity) = capacity {
                        searcher = searcher.with_chunk(capacity.vectors_per_board);
                    }
                    Ok(Box::new(JaccardBackend::try_new(searcher, data.clone())?))
                }
                _ => Err(SearchError::Unsupported {
                    what: format!("metric Jaccard is only served by the AP engine, not {self:?}"),
                }),
            };
        }
        match *self {
            Self::Ap { mode, capacity } => {
                let mut engine = match mode {
                    Some(mode) => ApKnnEngine::new(design).with_mode(mode),
                    None => ApKnnEngine::new(design).with_auto_execution(),
                };
                if let Some(capacity) = capacity {
                    engine = engine.with_capacity(capacity);
                }
                Ok(Box::new(ApEngineBackend::try_new(engine, data.clone())?))
            }
            Self::Indexed(kind) => match kind {
                IndexKind::KdForest => Ok(Box::new(IndexedApBackend::new(
                    DatasetBackedIndex {
                        index: KdForest::build(data.clone(), KdForestConfig::default()),
                        data: data.clone(),
                    },
                    design,
                ))),
                IndexKind::KMeans => Ok(Box::new(IndexedApBackend::new(
                    DatasetBackedIndex {
                        index: HierarchicalKMeans::build(data.clone(), KMeansConfig::default()),
                        data: data.clone(),
                    },
                    design,
                ))),
                IndexKind::Lsh => Ok(Box::new(IndexedApBackend::new(
                    DatasetBackedIndex {
                        index: LshIndex::build(data.clone(), LshConfig::default()),
                        data: data.clone(),
                    },
                    design,
                ))),
            },
            Self::Baseline(kind) => match kind {
                BaselineKind::Linear => Ok(Box::new(LinearScan::new(data.clone()))),
                BaselineKind::ParallelLinear { threads } => {
                    if threads == 0 {
                        return Err(SearchError::InvalidConfig {
                            field: "threads",
                            reason: "the parallel scan needs at least one thread".to_string(),
                        });
                    }
                    Ok(Box::new(ParallelLinearScan::new(data.clone(), threads)))
                }
                BaselineKind::KdForest => Ok(Box::new(KdForest::build(
                    data.clone(),
                    KdForestConfig::default(),
                ))),
                BaselineKind::KMeans => Ok(Box::new(HierarchicalKMeans::build(
                    data.clone(),
                    KMeansConfig::default(),
                ))),
                BaselineKind::Lsh => Ok(Box::new(LshIndex::build(
                    data.clone(),
                    LshConfig::default(),
                ))),
            },
        }
    }
}

/// Where an answer came from and what the fabric did for it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Label of the backend that answered.
    pub backend: String,
    /// AP symbol cycles charged to the dispatched batch this query rode in
    /// (0 for host-only backends).
    pub ap_symbol_cycles: u64,
    /// Partial reconfigurations performed by that batch.
    pub reconfigurations: u64,
}

/// One answered query: neighbors plus execution provenance.
#[derive(Clone, Debug)]
pub struct Response {
    /// The neighbors, sorted by (distance, id), bounded by `k` and the
    /// optional distance bound.
    pub neighbors: Vec<Neighbor>,
    /// Full engine statistics for the fabric run that answered this query's
    /// batch, when the backend is the paper's AP engine (`None` for backends
    /// with their own accounting shapes).
    pub ap_run: Option<ApRunStats>,
    /// Backend provenance.
    pub provenance: Provenance,
}

/// Fluent configuration for a [`SearchPipeline`]. Created by
/// [`SearchPipeline::over`]; consumed by [`SearchPipelineBuilder::build`].
pub struct SearchPipelineBuilder {
    data: BinaryDataset,
    metric: Metric,
    /// The chosen spec, or why [`SearchPipelineBuilder::backend_named`]
    /// could not resolve one (reported by `build`).
    backend: Result<BackendSpec, SearchError>,
}

impl SearchPipelineBuilder {
    /// Sets the similarity metric (default [`Metric::Hamming`]).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the backend family (default [`BackendSpec::ap`]).
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.backend = Ok(spec);
        self
    }

    /// Selects the backend by name (see [`BackendSpec::from_name`] for the
    /// names); an unknown name is reported by [`Self::build`].
    pub fn backend_named(mut self, name: impl AsRef<str>) -> Self {
        self.backend = BackendSpec::from_name(name.as_ref());
        self
    }

    /// Validates the configuration and constructs the pipeline.
    ///
    /// # Errors
    /// * [`SearchError::ZeroDims`] — the dataset has zero dimensions;
    /// * [`SearchError::InvalidConfig`] — an invalid backend spec;
    /// * [`SearchError::Unsupported`] — a metric/backend combination no
    ///   engine serves, or an unknown backend name.
    pub fn build(self) -> Result<SearchPipeline, SearchError> {
        Ok(SearchPipeline {
            backend: self.backend?.instantiate(&self.data, self.metric)?,
            metric: self.metric,
        })
    }
}

/// The uniform query front door over any backend family.
///
/// Construct with [`SearchPipeline::over`], answer with [`SearchPipeline::query`]
/// / [`SearchPipeline::query_batch`], or hand the configured backend to the
/// batching [`ServiceRuntime`] with [`SearchPipeline::into_runtime`].
pub struct SearchPipeline {
    backend: Box<dyn SimilarityBackend>,
    metric: Metric,
}

impl SearchPipeline {
    /// Starts building a pipeline over `dataset`.
    pub fn over(dataset: BinaryDataset) -> SearchPipelineBuilder {
        SearchPipelineBuilder {
            data: dataset,
            metric: Metric::default(),
            backend: Ok(BackendSpec::default()),
        }
    }

    /// The backend's label.
    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// The metric this pipeline ranks by.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Vectors served.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Whether the served corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Dimensionality of the served vectors.
    pub fn dims(&self) -> usize {
        self.backend.dims()
    }

    /// Answers one query.
    ///
    /// # Errors
    /// Everything [`Self::query_batch`] reports.
    pub fn query(&self, query: &Query, options: &QueryOptions) -> Result<Response, SearchError> {
        let mut responses = self.query_batch(std::slice::from_ref(query), options)?;
        responses.pop().ok_or_else(|| SearchError::Backend {
            backend: self.backend_name(),
            reason: "returned no result for the query".to_string(),
        })
    }

    /// Answers a batch of queries, one [`Response`] per query in order, in
    /// one backend dispatch. The distance bound travels into the backend
    /// (the AP engine applies it inside the run).
    ///
    /// # Errors
    /// [`SearchError::ZeroK`] / [`SearchError::ZeroDistanceBound`] for invalid
    /// options, [`SearchError::DimMismatch`] for mis-sized queries, and any
    /// execution error the backend reports.
    pub fn query_batch(
        &self,
        queries: &[Query],
        options: &QueryOptions,
    ) -> Result<Vec<Response>, SearchError> {
        let batch = self.backend.try_serve_batch(queries, options)?;
        let provenance = Provenance {
            backend: self.backend_name(),
            ap_symbol_cycles: batch.ap_symbol_cycles,
            reconfigurations: batch.reconfigurations,
        };
        Ok(batch
            .results
            .into_iter()
            .map(|neighbors| Response {
                neighbors,
                ap_run: batch.run_stats,
                provenance: provenance.clone(),
            })
            .collect())
    }

    /// Hands the configured backend to a batching [`ServiceRuntime`] front
    /// door (admission queue, batched dispatch, result cache, service
    /// statistics), shared by all of `config.workers` workers. The cache is
    /// sized by [`RuntimeConfig::with_cache_capacity`].
    ///
    /// # Errors
    /// Whatever [`RuntimeConfig::build`] rejects.
    pub fn into_runtime(self, config: RuntimeConfig) -> Result<ServiceRuntime, SearchError> {
        ServiceRuntime::try_shared(config, self.backend.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::SearchIndex;
    use binvec::generate::{uniform_dataset, uniform_queries};

    fn fixtures(n: usize, dims: usize) -> (BinaryDataset, Vec<Query>) {
        (uniform_dataset(n, dims, 41), uniform_queries(5, dims, 42))
    }

    #[test]
    fn builtin_names_cover_every_backend_family() {
        for name in [
            "ap",
            "ap-behavioral",
            "ap-auto",
            "indexed-kdforest",
            "indexed-kmeans",
            "indexed-lsh",
            "linear",
            "parallel-linear",
            "kdforest",
            "kmeans",
            "lsh",
        ] {
            assert!(
                BackendSpec::from_name(name).is_ok(),
                "missing builtin '{name}'"
            );
        }
    }

    #[test]
    fn built_backends_serve_queries() {
        let (data, queries) = fixtures(40, 16);
        let expected = LinearScan::new(data.clone()).search_batch(&queries, 3);
        for name in ["ap-behavioral", "ap-auto", "linear", "parallel-linear"] {
            let pipeline = SearchPipeline::over(data.clone())
                .backend_named(name)
                .build()
                .unwrap();
            let responses = pipeline
                .query_batch(&queries, &QueryOptions::top(3))
                .unwrap();
            for (response, expected) in responses.iter().zip(&expected) {
                assert_eq!(&response.neighbors, expected, "backend '{name}'");
            }
        }
    }

    #[test]
    fn unknown_names_list_the_alternatives() {
        let (data, _) = fixtures(4, 8);
        let err = SearchPipeline::over(data)
            .backend_named("quantum")
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, SearchError::Unsupported { .. }));
        let msg = err.to_string();
        assert!(msg.contains("quantum") && msg.contains("linear"), "{msg}");
    }

    #[test]
    fn default_pipeline_matches_linear_scan() {
        let (data, queries) = fixtures(40, 16);
        let expected = LinearScan::new(data.clone()).search_batch(&queries, 3);
        let pipeline = SearchPipeline::over(data).build().unwrap();
        assert_eq!(pipeline.backend_name(), "ap-knn");
        let responses = pipeline
            .query_batch(&queries, &QueryOptions::top(3))
            .unwrap();
        for (r, e) in responses.iter().zip(&expected) {
            assert_eq!(&r.neighbors, e);
            assert!(r.ap_run.is_some(), "AP engine reports full run stats");
        }
    }

    #[test]
    fn cache_hits_carry_provenance_and_identical_neighbors() {
        // The cache lives in the runtime the pipeline hands its backend to:
        // a replayed query is answered at admission, with no second dispatch.
        let (data, queries) = fixtures(40, 16);
        let config = RuntimeConfig::default()
            .with_workers(0)
            .with_options(QueryOptions::top(4))
            .with_cache_capacity(64);
        let runtime = SearchPipeline::over(data)
            .backend(BackendSpec::behavioral())
            .build()
            .unwrap()
            .into_runtime(config)
            .unwrap();
        let first = runtime.try_submit(queries[0].clone()).unwrap();
        runtime.poll();
        let first = first.wait().unwrap();
        let second = runtime.try_submit(queries[0].clone()).unwrap().wait();
        assert_eq!(first.neighbors, second.unwrap().neighbors);
        let stats = runtime.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.batches_dispatched, 1, "cache hits skip the fabric");
    }

    #[test]
    fn build_rejects_invalid_configurations() {
        let data = uniform_dataset(10, 8, 1);
        assert!(matches!(
            SearchPipeline::over(data.clone())
                .backend(BackendSpec::Ap {
                    mode: None,
                    capacity: Some(BoardCapacity {
                        vectors_per_board: 0,
                        ..BoardCapacity::paper_calibrated(8)
                    }),
                })
                .build(),
            Err(SearchError::InvalidConfig {
                field: "capacity",
                ..
            })
        ));
        assert!(matches!(
            SearchPipeline::over(data)
                .metric(Metric::Jaccard)
                .backend(BackendSpec::Baseline(BaselineKind::Linear))
                .build(),
            Err(SearchError::Unsupported { .. })
        ));
        let zero_dim = BinaryDataset::new(0);
        let err = SearchPipeline::over(zero_dim).build().err().unwrap();
        assert_eq!(err, SearchError::ZeroDims);
    }

    #[test]
    fn query_rejects_mismatched_dims_and_bad_options() {
        let (data, _) = fixtures(20, 16);
        let pipeline = SearchPipeline::over(data)
            .backend(BackendSpec::Baseline(BaselineKind::Linear))
            .build()
            .unwrap();
        let narrow = Query::zeros(8);
        assert_eq!(
            pipeline.query(&narrow, &QueryOptions::top(2)).unwrap_err(),
            SearchError::DimMismatch {
                expected: 16,
                actual: 8
            }
        );
        let q = Query::zeros(16);
        assert_eq!(
            pipeline.query(&q, &QueryOptions::top(0)).unwrap_err(),
            SearchError::ZeroK
        );
        assert_eq!(
            pipeline
                .query(&q, &QueryOptions::top(2).within(0))
                .unwrap_err(),
            SearchError::ZeroDistanceBound
        );
    }

    #[test]
    fn into_runtime_serves_the_configured_backend() {
        let (data, queries) = fixtures(30, 16);
        let direct = LinearScan::new(data.clone());
        let config = RuntimeConfig::default()
            .with_workers(0)
            .with_batch_size(2)
            .with_options(QueryOptions::top(3));
        let runtime = SearchPipeline::over(data)
            .backend(BackendSpec::behavioral())
            .build()
            .unwrap()
            .into_runtime(config)
            .unwrap();
        let handles: Vec<_> = queries
            .iter()
            .map(|q| runtime.try_submit(q.clone()).unwrap())
            .collect();
        runtime.poll();
        for (handle, q) in handles.into_iter().zip(&queries) {
            assert_eq!(handle.wait().unwrap().neighbors, direct.search(q, 3));
        }
    }
}
