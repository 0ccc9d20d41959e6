//! Integration tests for the one query API: every backend family constructed
//! through `SearchPipeline::over(..).build()` agrees with its legacy entry
//! point and with `LinearScan`, across metric × backend configurations, direct
//! and through a caching runtime, and every validation failure comes back as a
//! typed `SearchError`.

use ap_knn::jaccard::brute_force_jaccard;
use ap_serve::backend::jaccard_distance;
use ap_similarity::prelude::*;
use proptest::prelude::*;

fn fixtures(n: usize, dims: usize, seed: u64) -> (BinaryDataset, Vec<BinaryVector>) {
    (
        binvec::generate::uniform_dataset(n, dims, seed),
        binvec::generate::uniform_queries(5, dims, seed.wrapping_add(77)),
    )
}

/// The acceptance sweep: every backend family is constructible through the
/// builder and answers identically to its legacy entry point.
#[test]
fn every_backend_family_matches_its_legacy_entry_point() {
    let dims = 16;
    let k = 4;
    let (data, queries) = fixtures(48, dims, 7);
    let design = KnnDesign::new(dims);
    let options = QueryOptions::top(k);

    let run = |spec: BackendSpec| -> Vec<Vec<Neighbor>> {
        SearchPipeline::over(data.clone())
            .backend(spec)
            .build()
            .expect("constructible backend family")
            .query_batch(&queries, &options)
            .expect("well-formed queries")
            .into_iter()
            .map(|r| r.neighbors)
            .collect()
    };

    // 1. The paper's AP engine (cycle-accurate), vs the direct engine call.
    let (direct_ap, _) = ApKnnEngine::new(design)
        .try_search_batch(&data, &queries, &options)
        .expect("well-formed direct engine run");
    assert_eq!(run(BackendSpec::ap()), direct_ap, "AP engine");

    // 2. The multi-board scheduler model, vs the AP engine that serves the
    //    same fan-out.
    let (legacy_sched, _) = ParallelApScheduler::new(design)
        .with_workers(3)
        .search_batch(&data, &queries, k);
    assert_eq!(
        run(BackendSpec::ap()),
        legacy_sched,
        "multi-board scheduler"
    );

    // 3. The Jaccard searcher (similarities quantized into the shared
    //    distance key).
    let legacy_jaccard: Vec<Vec<Neighbor>> = JaccardSearcher::new(design)
        .search_batch(&data, &queries, k)
        .expect("valid Jaccard network")
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
    let via_pipeline: Vec<Vec<Neighbor>> = SearchPipeline::over(data.clone())
        .metric(Metric::Jaccard)
        .backend(BackendSpec::ap())
        .build()
        .expect("Jaccard over the AP engine")
        .query_batch(&queries, &options)
        .expect("well-formed queries")
        .into_iter()
        .map(|r| r.neighbors)
        .collect();
    assert_eq!(via_pipeline, legacy_jaccard, "Jaccard searcher");

    // 4. The §III-D indexed front ends (deterministic seeded default configs,
    //    so the pipeline's index build equals the hand-wired one).
    use ap_knn::indexed::{DatasetBackedIndex, IndexedApEngine};
    use baselines::{KMeansConfig, KdForestConfig, LshConfig};
    let kinds: [(IndexKind, Vec<Vec<Neighbor>>); 3] = [
        (IndexKind::KdForest, {
            let backed = DatasetBackedIndex {
                index: KdForest::build(data.clone(), KdForestConfig::default()),
                data: data.clone(),
            };
            IndexedApEngine::new(&backed, design)
                .search_batch(&queries, k)
                .0
        }),
        (IndexKind::KMeans, {
            let backed = DatasetBackedIndex {
                index: HierarchicalKMeans::build(data.clone(), KMeansConfig::default()),
                data: data.clone(),
            };
            IndexedApEngine::new(&backed, design)
                .search_batch(&queries, k)
                .0
        }),
        (IndexKind::Lsh, {
            let backed = DatasetBackedIndex {
                index: LshIndex::build(data.clone(), LshConfig::default()),
                data: data.clone(),
            };
            IndexedApEngine::new(&backed, design)
                .search_batch(&queries, k)
                .0
        }),
    ];
    for (kind, legacy) in kinds {
        assert_eq!(
            run(BackendSpec::Indexed(kind)),
            legacy,
            "indexed front end {kind:?}"
        );
    }

    // 5. Every baselines index family.
    use baselines::{KMeansConfig as KmC, KdForestConfig as KdC, LshConfig as LshC};
    assert_eq!(
        run(BackendSpec::Baseline(BaselineKind::Linear)),
        LinearScan::new(data.clone()).search_batch(&queries, k),
        "LinearScan"
    );
    assert_eq!(
        run(BackendSpec::Baseline(BaselineKind::ParallelLinear {
            threads: 4
        })),
        ParallelLinearScan::new(data.clone(), 4).search_batch(&queries, k),
        "ParallelLinearScan"
    );
    assert_eq!(
        run(BackendSpec::Baseline(BaselineKind::KdForest)),
        KdForest::build(data.clone(), KdC::default()).search_batch(&queries, k),
        "KdForest"
    );
    assert_eq!(
        run(BackendSpec::Baseline(BaselineKind::KMeans)),
        HierarchicalKMeans::build(data.clone(), KmC::default()).search_batch(&queries, k),
        "HierarchicalKMeans"
    );
    assert_eq!(
        run(BackendSpec::Baseline(BaselineKind::Lsh)),
        LshIndex::build(data.clone(), LshC::default()).search_batch(&queries, k),
        "LshIndex"
    );
}

/// The §VII acceptance criterion: on a cycle-accurate AP run, a distance bound
/// returns exactly the neighbors within the bound.
#[test]
fn cycle_accurate_distance_bound_returns_exactly_the_in_range_set() {
    let dims = 12;
    let (data, queries) = fixtures(32, dims, 13);
    let bound = 5u32;
    let pipeline = SearchPipeline::over(data.clone())
        .backend(BackendSpec::ap()) // cycle-accurate
        .build()
        .unwrap();
    // k = corpus size, so the bound is the only cap on the result set.
    let options = QueryOptions::top(data.len()).within(bound);
    let responses = pipeline.query_batch(&queries, &options).unwrap();
    for (q, response) in queries.iter().zip(&responses) {
        let mut expected: Vec<Neighbor> = (0..data.len())
            .map(|i| Neighbor::new(i, data.hamming_to(i, q)))
            .filter(|n| n.distance < bound)
            .collect();
        expected.sort_unstable();
        assert_eq!(response.neighbors, expected);
    }
}

/// Submits every query to a zero-worker runtime, polls it dry, and returns
/// the answers in submission order.
fn submit_and_drain(runtime: &ServiceRuntime, queries: &[BinaryVector]) -> Vec<Vec<Neighbor>> {
    let handles: Vec<TicketHandle> = queries
        .iter()
        .map(|q| runtime.try_submit(q.clone()).unwrap())
        .collect();
    runtime.poll();
    handles
        .into_iter()
        .map(|h| h.wait().unwrap().neighbors)
        .collect()
}

/// Jaccard, direct and through a caching runtime: the cache never changes
/// which similarity values make the top-k.
#[test]
fn jaccard_pipeline_matches_brute_force_direct_and_cached() {
    let dims = 16;
    let k = 4;
    let (data, queries) = fixtures(36, dims, 19);
    let expected: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            brute_force_jaccard(&data, q, k)
                .into_iter()
                .map(|n| jaccard_distance(n.similarity))
                .collect()
        })
        .collect();
    let distances = |answers: Vec<Vec<Neighbor>>| -> Vec<Vec<u32>> {
        answers
            .into_iter()
            .map(|ns| ns.into_iter().map(|n| n.distance).collect())
            .collect()
    };
    let pipeline = || {
        SearchPipeline::over(data.clone())
            .metric(Metric::Jaccard)
            .backend(BackendSpec::ap())
            .build()
            .unwrap()
    };

    let direct = pipeline()
        .query_batch(&queries, &QueryOptions::top(k))
        .unwrap();
    assert_eq!(
        distances(direct.into_iter().map(|r| r.neighbors).collect()),
        expected,
        "direct"
    );

    let config = RuntimeConfig::default()
        .with_workers(0)
        .with_options(QueryOptions::top(k))
        .with_cache_capacity(32);
    let runtime = pipeline().into_runtime(config).unwrap();
    // Two passes: the second is answered from the cache.
    for pass in 0..2 {
        assert_eq!(
            distances(submit_and_drain(&runtime, &queries)),
            expected,
            "cached runtime, pass {pass}"
        );
    }
    assert_eq!(runtime.stats().cache_hits, queries.len() as u64);
}

/// Explicit error paths: dim mismatch, k = 0, zero-dim design, zero bound.
#[test]
fn error_paths_surface_as_typed_search_errors() {
    let (data, _) = fixtures(20, 16, 23);
    let pipeline = SearchPipeline::over(data.clone())
        .backend(BackendSpec::behavioral())
        .build()
        .unwrap();

    // Dim mismatch.
    assert_eq!(
        pipeline
            .query(&BinaryVector::zeros(8), &QueryOptions::top(2))
            .unwrap_err(),
        SearchError::DimMismatch {
            expected: 16,
            actual: 8
        }
    );
    // k = 0.
    assert_eq!(
        pipeline
            .query(&BinaryVector::zeros(16), &QueryOptions::top(0))
            .unwrap_err(),
        SearchError::ZeroK
    );
    // Distance bound of 0.
    assert_eq!(
        pipeline
            .query(&BinaryVector::zeros(16), &QueryOptions::top(2).within(0))
            .unwrap_err(),
        SearchError::ZeroDistanceBound
    );
    // Zero-dim design.
    let err = SearchPipeline::over(BinaryDataset::new(0)).build().err();
    assert_eq!(err, Some(SearchError::ZeroDims));
    // The validated runtime config rejects the same classes at construction;
    // zero workers is valid (the caller drives `poll`).
    assert_eq!(
        RuntimeConfig::default()
            .with_options(QueryOptions::top(0))
            .build()
            .unwrap_err(),
        SearchError::ZeroK
    );
    assert!(matches!(
        RuntimeConfig::default().with_batch_size(0).build(),
        Err(SearchError::InvalidConfig {
            field: "batch_size",
            ..
        })
    ));
    assert!(RuntimeConfig::default().with_workers(0).build().is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The configuration sweep: any exact Hamming backend, queried directly
    /// or through a runtime with the cache on, agrees with `LinearScan` on
    /// random corpora.
    #[test]
    fn exact_pipelines_agree_with_linear_scan(
        n in 8usize..40,
        dims in 4usize..20,
        k in 1usize..6,
        backend_choice in 0usize..3,
        cached in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let data = binvec::generate::uniform_dataset(n, dims, seed);
        let queries = binvec::generate::uniform_queries(3, dims, seed.wrapping_add(1));
        let spec = match backend_choice {
            0 => BackendSpec::ap(),
            1 => BackendSpec::behavioral(),
            _ => BackendSpec::Baseline(BaselineKind::ParallelLinear { threads: 2 }),
        };
        let pipeline = SearchPipeline::over(data.clone())
            .metric(Metric::Hamming)
            .backend(spec)
            .build()
            .unwrap();
        let expected = LinearScan::new(data).search_batch(&queries, k);
        if cached {
            let config = RuntimeConfig::default()
                .with_workers(0)
                .with_options(QueryOptions::top(k))
                .with_cache_capacity(64);
            let runtime = pipeline.into_runtime(config).unwrap();
            // Two submissions: the second is answered from the cache.
            for _ in 0..2 {
                prop_assert_eq!(&submit_and_drain(&runtime, &queries), &expected);
            }
            prop_assert_eq!(runtime.stats().cache_hits, queries.len() as u64);
        } else {
            let responses = pipeline.query_batch(&queries, &QueryOptions::top(k)).unwrap();
            for (response, want) in responses.iter().zip(&expected) {
                prop_assert_eq!(&response.neighbors, want);
            }
        }
    }

    /// A distance bound composed with any exact backend returns the bounded
    /// prefix of the unbounded answer.
    #[test]
    fn bounded_results_are_the_clipped_prefix(
        n in 8usize..32,
        dims in 4usize..16,
        bound in 1u32..10,
        seed in 0u64..1000,
    ) {
        let data = binvec::generate::uniform_dataset(n, dims, seed);
        let queries = binvec::generate::uniform_queries(2, dims, seed.wrapping_add(2));
        let pipeline = SearchPipeline::over(data.clone())
            .backend(BackendSpec::behavioral())
            .build()
            .unwrap();
        let unbounded = pipeline.query_batch(&queries, &QueryOptions::top(n)).unwrap();
        let bounded = pipeline
            .query_batch(&queries, &QueryOptions::top(n).within(bound))
            .unwrap();
        for (u, b) in unbounded.iter().zip(&bounded) {
            let expected: Vec<Neighbor> = u
                .neighbors
                .iter()
                .copied()
                .filter(|nb| nb.distance < bound)
                .collect();
            prop_assert_eq!(&b.neighbors, &expected);
        }
    }
}
