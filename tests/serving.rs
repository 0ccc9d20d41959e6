//! Integration tests for the `ap-serve` serving subsystem: a sharded service
//! must answer exactly like a brute-force scan of the unsharded corpus.

use ap_similarity::prelude::*;

/// A caller-driven (zero-worker) runtime over a sharded behavioral AP backend
/// returning `k` neighbors per query.
fn build_sharded_ap_service(data: &BinaryDataset, shards: usize, k: usize) -> ServiceRuntime {
    let dims = data.dims();
    let sharding = ShardedDataset::split(data, shards);
    let backend = ShardedBackend::try_build(&sharding, |_, shard| {
        ApEngineBackend::try_new(
            ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::Behavioral),
            shard.clone(),
        )
    })
    .unwrap();
    serve(backend, k)
}

fn serve(backend: impl SimilarityBackend + 'static, k: usize) -> ServiceRuntime {
    let config = RuntimeConfig::default()
        .with_workers(0)
        .with_options(QueryOptions::top(k));
    ServiceRuntime::try_shared(config, std::sync::Arc::new(backend)).unwrap()
}

/// Submits every query, polls the runtime dry, and returns the results in
/// submission order.
fn submit_and_drain(service: &ServiceRuntime, queries: &[BinaryVector]) -> Vec<Vec<Neighbor>> {
    let handles: Vec<TicketHandle> = queries
        .iter()
        .map(|q| service.try_submit(q.clone()).unwrap())
        .collect();
    service.poll();
    handles
        .into_iter()
        .map(|handle| handle.wait().unwrap().neighbors)
        .collect()
}

#[test]
fn sharded_service_matches_linear_scan_on_1k_corpus() {
    let dims = 64;
    let k = 10;
    let data = binvec::generate::uniform_dataset(1000, dims, 101);
    let queries = binvec::generate::uniform_queries(64, dims, 102);
    let ground_truth = LinearScan::new(data.clone());

    let service = build_sharded_ap_service(&data, 4, k);
    let completed = submit_and_drain(&service, &queries);

    assert_eq!(completed.len(), queries.len());
    for (neighbors, query) in completed.iter().zip(&queries) {
        assert_eq!(
            neighbors,
            &ground_truth.search(query, k),
            "sharded AP service must equal the exact scan"
        );
    }

    let stats = service.stats();
    assert_eq!(stats.queries_served, 64);
    assert_eq!(stats.shard_cycles.len(), 4);
    // Contiguous sharding of a uniform corpus keeps the boards near-evenly
    // loaded: every shard streams the same windows per batch.
    for utilization in stats.shard_utilization() {
        assert!(utilization > 0.9, "shard underutilized: {utilization}");
    }
}

#[test]
fn shard_count_does_not_change_results() {
    let dims = 32;
    let k = 5;
    let data = binvec::generate::uniform_dataset(257, dims, 103);
    let queries = binvec::generate::uniform_queries(21, dims, 104);

    let mut reference: Option<Vec<Vec<Neighbor>>> = None;
    for shards in [1usize, 2, 4, 8] {
        let service = build_sharded_ap_service(&data, shards, k);
        let results = submit_and_drain(&service, &queries);
        match &reference {
            None => reference = Some(results),
            Some(expected) => assert_eq!(&results, expected, "shards = {shards}"),
        }
    }
}

#[test]
fn cached_replay_serves_without_new_dispatches() {
    let dims = 32;
    let data = binvec::generate::uniform_dataset(300, dims, 105);
    let queries = binvec::generate::uniform_queries(14, dims, 106);

    let service = build_sharded_ap_service(&data, 2, 4);
    let first = submit_and_drain(&service, &queries);
    let batches_after_first_wave = service.stats().batches_dispatched;

    let second = submit_and_drain(&service, &queries);

    let stats = service.stats();
    assert_eq!(
        stats.batches_dispatched, batches_after_first_wave,
        "replayed queries must be served by the cache"
    );
    assert_eq!(stats.cache_hits, queries.len() as u64);
    assert_eq!(first, second);
}

#[test]
fn scheduler_backend_behaves_like_sharded_backend() {
    // The multi-board scheduler is itself a sharded deployment (partitions
    // spread over workers); served through the service it must agree with the
    // exact scan too.
    let dims = 16;
    let k = 3;
    let data = binvec::generate::uniform_dataset(96, dims, 107);
    let queries = binvec::generate::uniform_queries(10, dims, 108);
    let ground_truth = LinearScan::new(data.clone());

    let scheduler = ParallelApScheduler::new(KnnDesign::new(dims))
        .with_capacity(BoardCapacity {
            vectors_per_board: 24,
            model: ap_knn::capacity::CapacityModel::PaperCalibrated,
        })
        .with_workers(4);
    let backend = ApSchedulerBackend::try_new(scheduler, data).unwrap();
    let service = serve(backend, k);
    for (neighbors, query) in submit_and_drain(&service, &queries).iter().zip(&queries) {
        assert_eq!(neighbors, &ground_truth.search(query, k));
    }
    let stats = service.stats();
    assert_eq!(stats.shard_cycles.len(), 4);
}
