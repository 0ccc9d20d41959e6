//! Integration tests for the multi-board scheduler: result equivalence with the
//! sequential engine, workload-balance invariants, and the pipelined-reconfiguration
//! estimates across device generations.

use ap_knn::capacity::CapacityModel;
use ap_knn::{ParallelApScheduler, PipelineModel};
use ap_similarity::prelude::*;
use proptest::prelude::*;

fn capacity(vectors_per_board: usize) -> BoardCapacity {
    BoardCapacity {
        vectors_per_board,
        model: CapacityModel::PaperCalibrated,
    }
}

#[test]
fn scheduler_is_equivalent_to_engine_for_every_worker_count() {
    let dims = 24;
    let data = binvec::generate::uniform_dataset(90, dims, 51);
    let all_queries = binvec::generate::uniform_queries(7, dims, 52);
    let design = KnnDesign::new(dims);
    // A single query and a partly filled lane pass.
    for width in [1usize, 7] {
        let queries = &all_queries[..width];
        let (expected, engine_stats) = ApKnnEngine::new(design)
            .with_capacity(capacity(12))
            .try_search_batch(&data, queries, &QueryOptions::top(5))
            .unwrap();

        for workers in 1..=6usize {
            let scheduler = ParallelApScheduler::new(design)
                .with_capacity(capacity(12))
                .with_workers(workers);
            let (got, stats) = scheduler.search_batch(&data, queries, 5);
            assert_eq!(got, expected, "workers = {workers}");
            assert_eq!(stats.partitions, engine_stats.board_configurations);
            assert_eq!(stats.reports, engine_stats.reports);
            assert_eq!(
                stats.total_symbols(),
                engine_stats.symbols_streamed,
                "total streaming work is conserved"
            );
            assert_eq!(
                stats.partitions_per_worker.iter().sum::<usize>(),
                stats.partitions
            );
            assert!(stats.workers_used <= workers);
            // Load balance: no worker owns more than ceil(partitions / workers_used) + 0.
            let max_owned = *stats.partitions_per_worker.iter().max().unwrap();
            assert!(max_owned <= stats.partitions.div_ceil(stats.workers_used));
        }
    }
}

#[test]
fn scheduler_handles_indexed_style_tiny_buckets() {
    // Bucket-sized partitions (the §III-D indexing regime): one vector per board.
    let dims = 8;
    let data = binvec::generate::uniform_dataset(12, dims, 61);
    let queries = binvec::generate::uniform_queries(3, dims, 62);
    let design = KnnDesign::new(dims);
    let scheduler = ParallelApScheduler::new(design)
        .with_capacity(capacity(1))
        .with_workers(4);
    let (results, stats) = scheduler.search_batch(&data, &queries, 2);
    let (expected, _) = ApKnnEngine::new(design)
        .with_capacity(capacity(1))
        .try_search_batch(&data, &queries, &QueryOptions::top(2))
        .unwrap();
    assert_eq!(results, expected);
    assert_eq!(stats.partitions, 12);
    assert_eq!(stats.workers_used, 4);
}

#[test]
fn pipeline_estimates_are_consistent_across_generations() {
    let design = KnnDesign::new(64);
    let layout = StreamLayout::for_design(&design);
    let symbols = layout.stream_len(4096);
    let partitions = BoardCapacity::paper_calibrated(64).configurations_for(1 << 20);

    let gen1 =
        PipelineModel::new(TimingModel::new(DeviceConfig::gen1())).estimate(symbols, partitions);
    let gen2 =
        PipelineModel::new(TimingModel::new(DeviceConfig::gen2())).estimate(symbols, partitions);

    // Serial Gen-1 time should be in the neighbourhood of the paper's Table IV
    // WordEmbed figure (48.1 s) — same order, dominated by reconfiguration.
    assert!(
        (30.0..80.0).contains(&gen1.serial_s),
        "gen1 {}",
        gen1.serial_s
    );
    assert!(gen1.reconfiguration_s > gen1.stream_per_partition_s);
    // Gen 2 is roughly an order of magnitude faster end to end.
    assert!(gen1.serial_s / gen2.serial_s > 5.0);
    // Overlap never hurts and never exceeds 2x.
    for est in [gen1, gen2] {
        assert!(est.overlapped_s <= est.serial_s);
        assert!(est.speedup() >= 1.0 && est.speedup() <= 2.0 + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Parallel scheduling never changes results, for random shapes.
    #[test]
    fn scheduler_equivalence_holds_for_random_shapes(
        dims in 2usize..12,
        n in 1usize..40,
        queries in 1usize..4,
        chunk in 1usize..10,
        workers in 1usize..5,
        seed in 0u64..500,
    ) {
        let data = binvec::generate::uniform_dataset(n, dims, seed);
        let qs = binvec::generate::uniform_queries(queries, dims, seed.wrapping_add(9));
        let design = KnnDesign::new(dims);
        let (expected, _) = ApKnnEngine::new(design)
            .with_capacity(capacity(chunk))
            .try_search_batch(&data, &qs, &QueryOptions::top(3))
            .unwrap();
        let (got, _) = ParallelApScheduler::new(design)
            .with_capacity(capacity(chunk))
            .with_workers(workers)
            .search_batch(&data, &qs, 3);
        prop_assert_eq!(got, expected);
    }
}
