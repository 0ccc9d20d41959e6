//! Prepared-engine equivalence: an engine prepared once (board images built
//! and compiled once, reused across batches) must be bit-identical — neighbors
//! *and* `ApRunStats` — to a fresh one-shot engine on every batch, across
//! repeated batches, forced reconfigurations, both execution modes, and the
//! auto planner; plus the empty-dataset / empty-batch edge cases and the
//! serving-layer amortization contract.

use ap_knn::capacity::CapacityModel;
use ap_knn::BoardCapacity;
use ap_similarity::prelude::*;
use proptest::prelude::*;

fn capacity(vectors_per_board: usize) -> BoardCapacity {
    BoardCapacity {
        vectors_per_board,
        model: CapacityModel::PaperCalibrated,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Prepared and fresh engines agree bit-for-bit on neighbors and run
    /// statistics, batch after batch, for every execution mode and board
    /// capacity (small capacities force multi-image reconfiguration).
    #[test]
    fn prepared_matches_fresh_across_batches_modes_and_reconfigurations(
        n in 1usize..48,
        dims in 4usize..20,
        k in 1usize..6,
        vectors_per_board in 1usize..16,
        mode_choice in 0usize..3,
        workers in 1usize..4,
        seed in 0u64..1000,
    ) {
        let data = binvec::generate::uniform_dataset(n, dims, seed);
        let mut engine = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(capacity(vectors_per_board))
            .with_parallelism(workers);
        engine = match mode_choice {
            0 => engine.with_mode(ExecutionMode::CycleAccurate),
            1 => engine.with_mode(ExecutionMode::Behavioral),
            _ => engine.with_auto_execution(),
        };
        let prepared = engine.prepare(&data).unwrap();
        prop_assert_eq!(prepared.len(), n);
        prop_assert_eq!(prepared.board_count(), n.div_ceil(vectors_per_board));

        // Several batches through the same prepared engine: each must equal a
        // fresh one-shot run, and the distance bound must compose.
        for round in 0u64..3 {
            let queries =
                binvec::generate::uniform_queries(2, dims, seed.wrapping_add(round + 1));
            let options = if round == 2 {
                QueryOptions::top(k).within(1 + (seed % 7) as u32)
            } else {
                QueryOptions::top(k)
            };
            let fresh = engine.try_search_batch(&data, &queries, &options).unwrap();
            let reused = prepared.try_search_batch(&queries, &options).unwrap();
            prop_assert_eq!(&reused.0, &fresh.0, "neighbors, round {}", round);
            prop_assert_eq!(reused.1, fresh.1, "stats, round {}", round);
        }
    }

    /// The execution preference carried by `QueryOptions` overrides the
    /// prepared engine's configured mode, and both forced modes agree with
    /// each other on results and statistics.
    #[test]
    fn forced_execution_preferences_agree_on_prepared_engines(
        n in 1usize..32,
        dims in 4usize..16,
        vectors_per_board in 1usize..10,
        seed in 0u64..1000,
    ) {
        let data = binvec::generate::uniform_dataset(n, dims, seed);
        let all_queries = binvec::generate::uniform_queries(2, dims, seed.wrapping_add(9));
        let prepared = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(capacity(vectors_per_board))
            .prepare(&data)
            .unwrap();
        for width in [1usize, 2] {
            let queries = &all_queries[..width];
            let cycle = prepared
                .try_search_batch(
                    queries,
                    &QueryOptions::top(3).execution(ExecutionPreference::CycleAccurate),
                )
                .unwrap();
            let behavioral = prepared
                .try_search_batch(
                    queries,
                    &QueryOptions::top(3).execution(ExecutionPreference::Behavioral),
                )
                .unwrap();
            prop_assert_eq!(&cycle.0, &behavioral.0);
            // Every cycle-accurate batch, a single query included, runs on the
            // lane core and reports lane gauges; everything else matches the
            // behavioural accounting bit-for-bit.
            prop_assert_eq!(cycle.1.lane_width, ap_sim::MAX_LANES);
            prop_assert_eq!(cycle.1.lane_fill, width as f64 / ap_sim::MAX_LANES as f64);
            let normalized = ap_knn::ApRunStats { lane_width: 0, lane_fill: 0.0, ..cycle.1 };
            prop_assert_eq!(normalized, behavioral.1);
        }
    }
}

/// A single query, a partly filled pass, and a batch wider than one 64-lane
/// pass — which splits into several passes, query 65+ demultiplexing through
/// `lane_base` — all agree bit-for-bit with two implementations that share no
/// code with the lane core: the behavioural arm and the exact linear scan.
#[test]
fn multi_pass_lane_batches_match_independent_references() {
    let dims = 10;
    let data = binvec::generate::uniform_dataset(40, dims, 90);
    let all_queries = binvec::generate::uniform_queries(70, dims, 91);
    let options = QueryOptions::top(5);
    let design = KnnDesign::new(dims);
    let laned = ApKnnEngine::new(design)
        .with_capacity(capacity(12))
        .prepare(&data)
        .unwrap();
    let behavioral = ApKnnEngine::new(design)
        .with_capacity(capacity(12))
        .with_mode(ExecutionMode::Behavioral)
        .prepare(&data)
        .unwrap();
    let exact = LinearScan::new(data.clone());
    for width in [1usize, 5, 70] {
        let queries = &all_queries[..width];
        let (lane_results, lane_stats) = laned.try_search_batch(queries, &options).unwrap();
        let (behavioral_results, behavioral_stats) =
            behavioral.try_search_batch(queries, &options).unwrap();
        assert_eq!(lane_results, behavioral_results, "width {width}");
        assert_eq!(
            lane_results,
            exact.search_batch(queries, 5),
            "width {width}"
        );
        let passes = width.div_ceil(ap_sim::MAX_LANES);
        assert_eq!(lane_stats.lane_width, ap_sim::MAX_LANES);
        assert_eq!(
            lane_stats.lane_fill,
            width as f64 / (passes * ap_sim::MAX_LANES) as f64,
            "width {width}"
        );
        assert_eq!(behavioral_stats.lane_width, 0);
        assert_eq!(lane_stats.reports, behavioral_stats.reports);
        let normalized = ap_knn::ApRunStats {
            lane_width: 0,
            lane_fill: 0.0,
            ..lane_stats
        };
        assert_eq!(normalized, behavioral_stats, "width {width}");
    }
}

#[test]
fn empty_dataset_and_empty_batch_edge_cases() {
    let dims = 12;
    let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(capacity(4));

    // Empty dataset: every query answers with no neighbors, accounting charges
    // the single (empty) configuration, and fresh == prepared.
    let empty = BinaryDataset::new(dims);
    let queries = binvec::generate::uniform_queries(3, dims, 81);
    let prepared = engine.prepare(&empty).unwrap();
    let fresh = engine
        .try_search_batch(&empty, &queries, &QueryOptions::top(4))
        .unwrap();
    let reused = prepared
        .try_search_batch(&queries, &QueryOptions::top(4))
        .unwrap();
    assert_eq!(fresh, reused);
    assert!(reused.0.iter().all(Vec::is_empty));
    assert_eq!(reused.1.board_configurations, 1);
    assert_eq!(reused.1.reports, 0);

    // Empty query batch: no results, no streamed symbols, and the prepared
    // engine never compiles a board image for it.
    let data = binvec::generate::uniform_dataset(20, dims, 82);
    let prepared = engine.prepare(&data).unwrap();
    let fresh = engine
        .try_search_batch(&data, &[], &QueryOptions::top(4))
        .unwrap();
    let reused = prepared
        .try_search_batch(&[], &QueryOptions::top(4))
        .unwrap();
    assert_eq!(fresh, reused);
    assert!(reused.0.is_empty());
    assert_eq!(reused.1.symbols_streamed, 0);
    assert!(!prepared.is_compiled());
}

#[test]
fn steady_state_batches_run_entirely_from_the_scratch_pool() {
    // The pooling contract behind the zero-allocation hot path: after the
    // warm-up batches have populated the scratch pool, later batches check
    // scratch out and back in without ever creating a fresh one — and stay
    // bit-identical to the unpooled (fresh-engine) path the whole time.
    let dims = 16;
    let data = binvec::generate::uniform_dataset(48, dims, 91);
    for workers in [1usize, 3] {
        let engine = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(capacity(12))
            .with_mode(ExecutionMode::CycleAccurate)
            .with_parallelism(workers);
        let prepared = engine.prepare(&data).unwrap();
        let options = QueryOptions::top(5);

        // Two warm-up batches: the first compiles the images and fills the
        // pool, the second settles any capacity growth.
        for round in 0..2u64 {
            let queries = binvec::generate::uniform_queries(4, dims, 92 + round);
            prepared.try_search_batch(&queries, &options).unwrap();
        }
        let warm = prepared.pool_stats();
        assert!(warm.fresh > 0, "warm-up must have created scratch");

        let mut results = Vec::new();
        for round in 0..5u64 {
            let queries = binvec::generate::uniform_queries(4, dims, 95 + round);
            let stats = prepared
                .try_search_batch_into(&queries, &options, &mut results)
                .unwrap();
            // Pooled answers must equal the unpooled fresh-engine run.
            let (fresh_results, fresh_stats) =
                engine.try_search_batch(&data, &queries, &options).unwrap();
            assert_eq!(results, fresh_results, "workers {workers}, round {round}");
            assert_eq!(stats, fresh_stats, "workers {workers}, round {round}");
        }
        let steady = prepared.pool_stats();
        assert_eq!(
            steady.fresh, warm.fresh,
            "steady state must create no fresh scratch (workers {workers})"
        );
        assert!(
            steady.checkouts > warm.checkouts,
            "steady-state batches still check scratch out of the pool"
        );
    }
}

#[test]
fn serving_layer_reuses_one_prepared_engine_across_dispatches() {
    // The amortization contract end to end: a service over the cycle-accurate
    // AP backend answers many batches from one board-image set, and the
    // results match the exact scan every time.
    let dims = 16;
    let k = 4;
    let data = binvec::generate::uniform_dataset(60, dims, 83);
    let ground_truth = LinearScan::new(data.clone());
    let backend = ApEngineBackend::try_new(
        ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(capacity(16)),
        data,
    )
    .unwrap();
    assert!(!backend.prepared().is_compiled());
    let config = RuntimeConfig::default()
        .with_workers(0)
        .with_batch_size(3)
        .with_options(QueryOptions::top(k))
        .with_cache_capacity(0);
    let runtime = ServiceRuntime::try_shared(config, std::sync::Arc::new(backend)).unwrap();
    let queries = binvec::generate::uniform_queries(12, dims, 84);
    let handles: Vec<TicketHandle> = queries
        .iter()
        .map(|q| runtime.try_submit(q.clone()).unwrap())
        .collect();
    runtime.poll();
    for (handle, q) in handles.into_iter().zip(&queries) {
        assert_eq!(handle.wait().unwrap().neighbors, ground_truth.search(q, k));
    }
    assert_eq!(runtime.stats().batches_dispatched, 4);
}

#[test]
fn auto_backend_serves_identically_to_pinned_modes() {
    let dims = 16;
    let data = binvec::generate::uniform_dataset(48, dims, 87);
    let queries = binvec::generate::uniform_queries(5, dims, 88);
    let mut expected: Option<Vec<Vec<Neighbor>>> = None;
    for spec in [
        BackendSpec::ap(),
        BackendSpec::behavioral(),
        BackendSpec::auto(),
    ] {
        let pipeline = SearchPipeline::over(data.clone())
            .backend(spec)
            .build()
            .unwrap();
        let got: Vec<Vec<Neighbor>> = pipeline
            .query_batch(&queries, &QueryOptions::top(4))
            .unwrap()
            .into_iter()
            .map(|r| r.neighbors)
            .collect();
        match &expected {
            None => expected = Some(got),
            Some(want) => assert_eq!(&got, want, "spec {spec:?}"),
        }
    }
}
