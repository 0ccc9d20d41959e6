//! The mutable-corpus backend: an [`ap_knn::LiveEngine`] behind the uniform
//! [`SimilarityBackend`] interface.
//!
//! Every other backend in this crate freezes its corpus at construction
//! (that is the paper's operating regime — board images are compiled for a
//! fixed dataset). `LiveBackend` is the one that churns: queries go through
//! the live engine's epoch snapshot, and mutations arrive through
//! [`SimilarityBackend::apply_mutation`] — which the [`crate::ServiceRuntime`]
//! drives from mutation tickets flowing through the same priority ▸ deadline
//! admission queue as queries.
//!
//! The backend is a thin `Arc` wrapper so the server, the runtime workers,
//! and an external mutator (e.g. a bulk loader calling
//! [`ap_knn::LiveEngine::insert`] directly) can all share one engine.

use crate::backend::{BackendBatch, SimilarityBackend};
use ap_knn::live::LiveStatus;
use ap_knn::{ApKnnEngine, LiveConfig, LiveEngine};
use binvec::{BinaryDataset, BinaryVector, MutAck, Mutation, QueryOptions, SearchError};
use std::sync::Arc;

/// A [`SimilarityBackend`] over a shared [`LiveEngine`]: serves query batches
/// from the current epoch snapshot and applies insert/delete mutations.
#[derive(Clone)]
pub struct LiveBackend {
    engine: Arc<LiveEngine>,
}

impl LiveBackend {
    /// Builds a live engine over `data` with `config` and wraps it.
    ///
    /// # Errors
    /// Whatever [`LiveEngine::new`] rejects: an invalid configuration, or a
    /// dataset whose dimensionality differs from the engine design's.
    pub fn try_new(
        engine: ApKnnEngine,
        data: &BinaryDataset,
        config: LiveConfig,
    ) -> Result<Self, SearchError> {
        Ok(Self {
            engine: Arc::new(LiveEngine::new(engine, data, config)?),
        })
    }

    /// Wraps an already-running shared live engine.
    pub fn from_engine(engine: Arc<LiveEngine>) -> Self {
        Self { engine }
    }

    /// The shared live engine, for direct mutation or status access.
    pub fn engine(&self) -> &Arc<LiveEngine> {
        &self.engine
    }
}

impl SimilarityBackend for LiveBackend {
    fn name(&self) -> String {
        "ap-live".to_string()
    }

    fn len(&self) -> usize {
        self.engine.len()
    }

    fn dims(&self) -> usize {
        self.engine.dims()
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
        let (results, stats) = self.engine.try_search_batch(queries, options)?;
        Ok(BackendBatch {
            results,
            ap_symbol_cycles: stats.charged_cycles,
            reconfigurations: stats.reconfigurations,
            run_stats: Some(stats),
        })
    }

    fn apply_mutation(&self, mutation: &Mutation) -> Result<MutAck, SearchError> {
        self.engine.apply(mutation)
    }

    fn apply_mutations(&self, mutations: &[&Mutation]) -> Vec<Result<MutAck, SearchError>> {
        // One group-committed fsync covers the whole batch on a durable
        // engine — this is where the runtime's batch pop pays for itself.
        self.engine.apply_batch(mutations)
    }

    fn live_status(&self) -> Option<LiveStatus> {
        Some(self.engine.status())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_knn::{ExecutionMode, KnnDesign};
    use baselines::{LinearScan, SearchIndex};
    use binvec::generate::{uniform_dataset, uniform_queries};

    fn live_backend(n: usize, dims: usize) -> LiveBackend {
        let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::Behavioral);
        let data = uniform_dataset(n, dims, 21);
        LiveBackend::try_new(engine, &data, LiveConfig::default().with_background(false)).unwrap()
    }

    #[test]
    fn serves_batches_like_a_linear_scan_before_any_mutation() {
        let dims = 16;
        let data = uniform_dataset(50, dims, 21);
        let backend = live_backend(50, dims);
        let queries = uniform_queries(5, dims, 22);
        let batch = backend
            .try_serve_batch(&queries, &QueryOptions::top(4))
            .unwrap();
        let expected = LinearScan::new(data).search_batch(&queries, 4);
        assert_eq!(batch.results, expected);
        assert!(batch.ap_symbol_cycles > 0);
        assert!(batch.run_stats.is_some());
    }

    #[test]
    fn mutations_apply_through_the_backend_trait() {
        let dims = 16;
        let backend = live_backend(10, dims);
        let as_trait: &dyn SimilarityBackend = &backend;
        assert_eq!(as_trait.live_status().unwrap().generation, 0);

        let vector = uniform_queries(1, dims, 23).pop().unwrap();
        let ack = as_trait
            .apply_mutation(&Mutation::Insert { vector })
            .unwrap();
        assert_eq!(ack.id, 10);
        assert_eq!(ack.generation, 1);
        assert_eq!(as_trait.len(), 11);

        let ack = as_trait
            .apply_mutation(&Mutation::Delete { id: 3 })
            .unwrap();
        assert_eq!(ack.generation, 2);
        let status = as_trait.live_status().unwrap();
        assert_eq!(status.tombstones, 1);
        assert_eq!(as_trait.len(), 10);
    }

    #[test]
    fn frozen_backends_refuse_mutations_with_a_typed_error() {
        let data = uniform_dataset(10, 16, 24);
        let frozen: Box<dyn SimilarityBackend> = Box::new(LinearScan::new(data));
        assert!(frozen.live_status().is_none());
        let err = frozen
            .apply_mutation(&Mutation::Delete { id: 0 })
            .unwrap_err();
        assert!(matches!(err, SearchError::Unsupported { .. }));
    }
}
