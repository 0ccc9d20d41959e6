//! Integration tests for the `ap-serve` serving subsystem: a corpus larger
//! than one board, served through the runtime, must answer exactly like a
//! brute-force scan of the whole corpus at any engine fan-out width.

use ap_similarity::prelude::*;

/// A caller-driven (zero-worker) runtime over `backend`, returning `k`
/// neighbors per query.
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
fn multi_board_service_matches_linear_scan_at_every_fan_out_width() {
    // 1 000 64-bit vectors on boards of 96 is 11 board images, and one lane
    // pass over them is enough estimated work that the engine's fan-out gate
    // grants every requested worker (1..=4). Below 4 workers some worker
    // drives several images in sequence, so the host merges across the
    // fan-out *and* across reconfigurations.
    let dims = 64;
    let k = 10;
    let data = binvec::generate::uniform_dataset(1000, dims, 101);
    let queries = binvec::generate::uniform_queries(64, dims, 102);
    let ground_truth = LinearScan::new(data.clone());
    let capacity = BoardCapacity {
        vectors_per_board: 96,
        ..BoardCapacity::paper_calibrated(dims)
    };

    for workers in 1..=4 {
        let engine = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(capacity)
            .with_parallelism(workers);
        let backend = ApEngineBackend::try_new(engine, data.clone()).unwrap();
        // One 64-query batch: one lane pass per image.
        let config = RuntimeConfig::default()
            .with_workers(0)
            .with_batch_size(64)
            .with_options(QueryOptions::top(k));
        let service = ServiceRuntime::try_shared(config, std::sync::Arc::new(backend)).unwrap();
        let completed = submit_and_drain(&service, &queries);

        assert_eq!(completed.len(), queries.len());
        for (neighbors, query) in completed.iter().zip(&queries) {
            assert_eq!(
                neighbors,
                &ground_truth.search(query, k),
                "workers = {workers}: the served answer must equal the exact scan"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.queries_served, 64, "workers = {workers}");
        assert_eq!(stats.batches_dispatched, 1, "workers = {workers}");
        assert_eq!(stats.reconfigurations, 10, "workers = {workers}");
    }
}

#[test]
fn cached_replay_serves_without_new_dispatches() {
    let dims = 32;
    let data = binvec::generate::uniform_dataset(300, dims, 105);
    let queries = binvec::generate::uniform_queries(14, dims, 106);

    let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::Behavioral);
    let service = serve(ApEngineBackend::try_new(engine, data).unwrap(), 4);
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
