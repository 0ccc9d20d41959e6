//! The uniform execution interface the service dispatches batches to.
//!
//! A backend is an engine *bound to its dataset*: the service hands it nothing
//! but queries. Every engine in the workspace fits behind [`SimilarityBackend`]
//! — the paper's AP engine, the Jaccard variant, the host-side baselines and
//! approximate indexes, and the indexed host/AP split of §III-D.

use ap_knn::engine::ApRunStats;
use ap_knn::indexed::{IndexedApEngine, IndexedDataAccess};
use ap_knn::jaccard::JaccardSearcher;
use ap_knn::live::LiveStatus;
use ap_knn::{ApKnnEngine, KnnDesign, PreparedEngine};
use baselines::{BucketIndex, SearchIndex};
use binvec::{BinaryDataset, BinaryVector, MutAck, Mutation, Neighbor, QueryOptions, SearchError};

/// Results and accounting from one dispatched batch.
#[derive(Clone, Debug, Default)]
pub struct BackendBatch {
    /// Per-query sorted neighbors, parallel to the submitted batch.
    pub results: Vec<Vec<Neighbor>>,
    /// AP symbol cycles charged for the batch (0 for host-only backends).
    pub ap_symbol_cycles: u64,
    /// Partial reconfigurations performed (0 for host-only backends).
    pub reconfigurations: u64,
    /// Full engine run statistics, when the backend is the paper's AP engine
    /// (`None` for backends with their own accounting shapes).
    pub run_stats: Option<ApRunStats>,
}

impl BackendBatch {
    /// A host-only batch: results with no AP accounting.
    pub fn host_only(results: Vec<Vec<Neighbor>>) -> Self {
        Self {
            results,
            ..Self::default()
        }
    }
}

/// A kNN engine bound to its dataset, ready to serve query batches.
///
/// Implementations must be [`Send`] + [`Sync`] so one backend can be shared by
/// every worker of a [`crate::ServiceRuntime`].
pub trait SimilarityBackend: Send + Sync {
    /// Human-readable backend label for reports.
    fn name(&self) -> String;

    /// Number of vectors served.
    fn len(&self) -> usize;

    /// Whether the backend serves an empty dataset.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the served vectors.
    fn dims(&self) -> usize;

    /// Executes one batch of queries, returning per-query sorted neighbors.
    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch;

    /// The fallible uniform entry point: validates the options and every
    /// query's dimensionality, serves the batch, and applies the optional
    /// distance bound to the sorted results.
    ///
    /// The default implementation wraps [`Self::serve_batch`]; backends that
    /// can push the options deeper (the AP engine honours the execution
    /// preference and bounds inside the run) override it.
    ///
    /// # Errors
    /// [`SearchError::ZeroK`], [`SearchError::ZeroDistanceBound`] for invalid
    /// options and [`SearchError::DimMismatch`] for mis-sized queries.
    fn try_serve_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<BackendBatch, SearchError> {
        options.validate()?;
        for q in queries {
            if q.dims() != self.dims() {
                return Err(SearchError::DimMismatch {
                    expected: self.dims(),
                    actual: q.dims(),
                });
            }
        }
        let mut batch = self.serve_batch(queries, options.k);
        if batch.results.len() != queries.len() {
            return Err(SearchError::Backend {
                backend: self.name(),
                reason: format!(
                    "returned {} results for {} queries",
                    batch.results.len(),
                    queries.len()
                ),
            });
        }
        for neighbors in &mut batch.results {
            options.clip(neighbors);
        }
        Ok(batch)
    }

    /// Applies one corpus mutation (insert or delete), returning the ack that
    /// carries the generation at which the mutation became visible.
    ///
    /// Only mutable backends (the [`crate::LiveBackend`] over an
    /// [`ap_knn::LiveEngine`]) support this; the default refuses with a typed
    /// error so frozen-corpus deployments fail mutation submissions cleanly at
    /// dispatch instead of panicking.
    ///
    /// # Errors
    /// [`SearchError::Unsupported`] from the default implementation; mutable
    /// backends surface their own engine errors (e.g. a delete of an unknown
    /// id).
    fn apply_mutation(&self, mutation: &Mutation) -> Result<MutAck, SearchError> {
        let _ = mutation;
        Err(SearchError::Unsupported {
            what: format!("mutations on the frozen-corpus backend {}", self.name()),
        })
    }

    /// Applies a batch of mutations in order, one outcome each.
    ///
    /// The default loops over [`Self::apply_mutation`]. Durable backends
    /// override it to cover the whole batch with one group-committed fsync
    /// (see [`ap_knn::LiveEngine::apply_batch`]), so the per-mutation
    /// durability cost is amortized across the batch the scheduler popped.
    fn apply_mutations(&self, mutations: &[&Mutation]) -> Vec<Result<MutAck, SearchError>> {
        mutations.iter().map(|m| self.apply_mutation(m)).collect()
    }

    /// A live-corpus status snapshot (generation, delta fill, tombstones), or
    /// `None` for frozen-corpus backends.
    fn live_status(&self) -> Option<LiveStatus> {
        None
    }
}

/// Boxed trait objects serve exactly like the backend they wrap, so the
/// pipeline builder and the runtime can hold any backend family.
impl SimilarityBackend for Box<dyn SimilarityBackend> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn len(&self) -> usize {
        self.as_ref().len()
    }

    fn dims(&self) -> usize {
        self.as_ref().dims()
    }

    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        self.as_ref().serve_batch(queries, k)
    }

    fn try_serve_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<BackendBatch, SearchError> {
        self.as_ref().try_serve_batch(queries, options)
    }

    fn apply_mutation(&self, mutation: &Mutation) -> Result<MutAck, SearchError> {
        self.as_ref().apply_mutation(mutation)
    }

    fn apply_mutations(&self, mutations: &[&Mutation]) -> Vec<Result<MutAck, SearchError>> {
        self.as_ref().apply_mutations(mutations)
    }

    fn live_status(&self) -> Option<LiveStatus> {
        self.as_ref().live_status()
    }
}

/// Every host-side index (linear scans, kd-forest, k-means, LSH, …) is a
/// backend with no AP accounting.
impl<T: SearchIndex + Send + Sync> SimilarityBackend for T {
    fn name(&self) -> String {
        short_type_name::<T>()
    }

    fn len(&self) -> usize {
        SearchIndex::len(self)
    }

    fn dims(&self) -> usize {
        SearchIndex::dims(self)
    }

    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        BackendBatch::host_only(SearchIndex::search_batch(self, queries, k))
    }
}

fn short_type_name<T: ?Sized>() -> String {
    // Strip module paths while keeping generic brackets and every comma-
    // separated argument: "a::b::Index<c::D, e::F>" → "Index<D, F>".
    std::any::type_name::<T>()
        .split('<')
        .map(|piece| {
            piece
                .split(',')
                .map(|arg| arg.trim_start())
                .map(|arg| arg.rsplit("::").next().unwrap_or(arg))
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect::<Vec<_>>()
        .join("<")
}

/// The paper's AP kNN engine bound to its dataset — as a [`PreparedEngine`],
/// so the dataset is partitioned once and every board image is built and
/// compiled once; each dispatched batch only encodes its symbol stream and
/// runs the cached sparse-frontier cores.
#[derive(Clone, Debug)]
pub struct ApEngineBackend {
    prepared: PreparedEngine,
}

impl ApEngineBackend {
    /// Binds `engine` to `data`, preparing the board-image set.
    ///
    /// # Errors
    /// [`SearchError::DimMismatch`] if the dataset dimensionality differs from
    /// the engine design's, [`SearchError::ZeroDims`] for a zero-dim design.
    pub fn try_new(engine: ApKnnEngine, data: BinaryDataset) -> Result<Self, SearchError> {
        Ok(Self {
            prepared: engine.prepare(&data)?,
        })
    }

    /// The engine configuration behind the preparation.
    pub fn engine(&self) -> &ApKnnEngine {
        self.prepared.engine()
    }

    /// The prepared board-image set answering this backend's batches.
    pub fn prepared(&self) -> &PreparedEngine {
        &self.prepared
    }

    /// Statistics from the most recent accounting model, without executing.
    pub fn estimate_run(&self, queries: usize) -> ApRunStats {
        self.prepared
            .engine()
            .estimate_run(self.prepared.len(), queries)
    }
}

impl SimilarityBackend for ApEngineBackend {
    fn name(&self) -> String {
        "ap-knn".to_string()
    }

    fn len(&self) -> usize {
        self.prepared.len()
    }

    fn dims(&self) -> usize {
        self.prepared.dims()
    }

    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        match self.try_serve_batch(queries, &QueryOptions::top(k)) {
            Ok(batch) => batch,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_serve_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<BackendBatch, SearchError> {
        // Push the whole options struct into the engine so the distance bound
        // and execution preference apply inside the run, not as a post-pass.
        // The prepared engine reuses the compiled board images across batches.
        let (results, stats) = self.prepared.try_search_batch(queries, options)?;
        Ok(BackendBatch {
            results,
            ap_symbol_cycles: stats.charged_cycles,
            reconfigurations: stats.reconfigurations,
            run_stats: Some(stats),
        })
    }
}

/// The Jaccard-similarity searcher bound to its dataset.
///
/// Results are reported through the common [`Neighbor`] shape with
/// `distance = round((1 − similarity) · 2³⁰)` — a quantization of the Jaccard
/// *dissimilarity*. Using the similarity itself (rather than the intersection
/// size) as the distance key keeps the ranking criterion identical between the
/// searcher's per-partition top-k selection and any host-side
/// [`binvec::TopK`] merge over the distance key. The 2³⁰ scale preserves the exact
/// similarity order for any dimensionality up to ~16k bits (distinct Jaccard
/// values of `d`-bit vectors differ by at least `1/(2d)²`).
#[derive(Clone, Debug)]
pub struct JaccardBackend {
    searcher: JaccardSearcher,
    data: BinaryDataset,
}

/// Quantization scale for Jaccard dissimilarity → `Neighbor::distance`.
const JACCARD_DISTANCE_SCALE: f64 = (1u32 << 30) as f64;

/// Converts a Jaccard similarity into the service's distance key.
pub fn jaccard_distance(similarity: f64) -> u32 {
    ((1.0 - similarity).clamp(0.0, 1.0) * JACCARD_DISTANCE_SCALE).round() as u32
}

impl JaccardBackend {
    /// Binds `searcher` to `data`.
    ///
    /// # Errors
    /// [`SearchError::DimMismatch`] if the dataset dimensionality differs from
    /// the searcher design's.
    pub fn try_new(searcher: JaccardSearcher, data: BinaryDataset) -> Result<Self, SearchError> {
        if data.dims() != searcher.design().dims {
            return Err(SearchError::DimMismatch {
                expected: searcher.design().dims,
                actual: data.dims(),
            });
        }
        Ok(Self { searcher, data })
    }
}

impl SimilarityBackend for JaccardBackend {
    fn name(&self) -> String {
        "ap-jaccard".to_string()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn dims(&self) -> usize {
        self.data.dims()
    }

    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        let per_query = self
            .searcher
            .search_batch(&self.data, queries, k)
            .expect("jaccard partition network must be valid");
        let results = per_query
            .into_iter()
            .map(|neighbors| {
                let mut converted: Vec<Neighbor> = neighbors
                    .into_iter()
                    .map(|n| Neighbor::new(n.id, jaccard_distance(n.similarity)))
                    .collect();
                converted.sort_unstable();
                converted
            })
            .collect();
        // One full window per query per partition, as in the engine's
        // unpipelined accounting.
        let partitions = self.data.len().div_ceil(self.searcher.chunk()).max(1) as u64;
        let layout = ap_knn::StreamLayout::for_design(self.searcher.design());
        BackendBatch {
            results,
            ap_symbol_cycles: layout.stream_len(queries.len()) * partitions,
            reconfigurations: partitions.saturating_sub(1),
            run_stats: None,
        }
    }
}

/// The §III-D deployment: a host-resident spatial index selects candidate
/// buckets, the AP scans only those buckets.
pub struct IndexedApBackend<I: BucketIndex + IndexedDataAccess + Send + Sync> {
    index: I,
    design: KnnDesign,
}

impl<I: BucketIndex + IndexedDataAccess + Send + Sync> IndexedApBackend<I> {
    /// Wraps a bucket index (with data access) and the AP design that scans
    /// its buckets.
    pub fn new(index: I, design: KnnDesign) -> Self {
        Self { index, design }
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }
}

impl<I: BucketIndex + IndexedDataAccess + Send + Sync> SimilarityBackend for IndexedApBackend<I> {
    fn name(&self) -> String {
        format!("ap-indexed({})", short_type_name::<I>())
    }

    fn len(&self) -> usize {
        SearchIndex::len(&self.index)
    }

    fn dims(&self) -> usize {
        SearchIndex::dims(&self.index)
    }

    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        let engine = IndexedApEngine::new(&self.index, self.design);
        let (results, stats) = engine.search_batch(queries, k);
        BackendBatch {
            results,
            ap_symbol_cycles: stats.symbols_streamed,
            reconfigurations: stats.reconfigurations,
            run_stats: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_knn::ExecutionMode;
    use baselines::{LinearScan, ParallelLinearScan};
    use binvec::generate::{uniform_dataset, uniform_queries};

    fn fixtures(n: usize, dims: usize) -> (BinaryDataset, Vec<BinaryVector>) {
        (uniform_dataset(n, dims, 7), uniform_queries(6, dims, 8))
    }

    #[test]
    fn search_index_blanket_impl_serves_batches() {
        let (data, queries) = fixtures(80, 32);
        let linear: Box<dyn SimilarityBackend> = Box::new(LinearScan::new(data.clone()));
        let parallel: Box<dyn SimilarityBackend> = Box::new(ParallelLinearScan::new(data, 3));
        assert_eq!(linear.name(), "LinearScan");
        assert_eq!(parallel.name(), "ParallelLinearScan");
        assert_eq!(linear.len(), 80);
        assert_eq!(linear.dims(), 32);
        let a = linear.serve_batch(&queries, 4);
        let b = parallel.serve_batch(&queries, 4);
        assert_eq!(a.results, b.results);
        assert_eq!(a.ap_symbol_cycles, 0);
    }

    #[test]
    fn ap_engine_backend_matches_linear_scan_and_charges_cycles() {
        let (data, queries) = fixtures(60, 16);
        let engine = ApKnnEngine::new(KnnDesign::new(16)).with_mode(ExecutionMode::Behavioral);
        let backend = ApEngineBackend::try_new(engine, data.clone()).unwrap();
        let batch = backend.serve_batch(&queries, 3);
        let expected = LinearScan::new(data).search_batch(&queries, 3);
        assert_eq!(batch.results, expected);
        assert!(batch.ap_symbol_cycles > 0);
    }

    #[test]
    fn jaccard_backend_orders_by_decreasing_intersection() {
        let (data, queries) = fixtures(30, 12);
        let backend =
            JaccardBackend::try_new(JaccardSearcher::new(KnnDesign::new(12)), data).unwrap();
        let batch = backend.serve_batch(&queries, 5);
        assert_eq!(batch.results.len(), queries.len());
        for result in &batch.results {
            assert!(result.windows(2).all(|w| w[0] <= w[1]));
        }
        assert!(batch.ap_symbol_cycles > 0);
    }

    #[test]
    fn dims_mismatch_is_a_typed_error() {
        let data = uniform_dataset(8, 16, 1);
        let mismatch = SearchError::DimMismatch {
            expected: 8,
            actual: 16,
        };
        let design = KnnDesign::new(8);
        assert_eq!(
            ApEngineBackend::try_new(ApKnnEngine::new(design), data.clone()).unwrap_err(),
            mismatch
        );
        assert_eq!(
            JaccardBackend::try_new(JaccardSearcher::new(design), data).unwrap_err(),
            mismatch
        );
    }
}
