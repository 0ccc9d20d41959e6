//! The strong form of the pooling claim: a warmed steady-state batch on the
//! prepared engine's pooled path — encode → simulate → decode, results
//! delivered into a caller-owned buffer — performs **zero heap allocation**.
//!
//! A counting global allocator wraps the system allocator; the test warms the
//! pool (and every buffer's capacity), snapshots the allocation counter, runs
//! more batches over the same query shapes, and asserts the counter did not
//! move. This file is its own test binary (one test) so the global allocator
//! swap cannot interfere with any other suite, and the measured window runs
//! with one worker — the scoped-thread spawn of the parallel fan-out path
//! allocates by design and is covered by the pool-stats test instead.

use ap_knn::capacity::CapacityModel;
use ap_knn::{ApKnnEngine, BoardCapacity, ExecutionMode, KnnDesign};
use baselines::{LinearScan, SearchIndex};
use binvec::generate::{uniform_dataset, uniform_queries};
use binvec::QueryOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn warmed_steady_state_batches_allocate_nothing() {
    let dims = 16;
    let batch = 4;
    let k = 5;
    let data = uniform_dataset(48, dims, 101);
    let direct = LinearScan::new(data.clone());
    let engine = ApKnnEngine::new(KnnDesign::new(dims))
        .with_capacity(BoardCapacity {
            vectors_per_board: 12,
            model: CapacityModel::PaperCalibrated,
        })
        .with_mode(ExecutionMode::CycleAccurate)
        .with_parallelism(1);
    let prepared = engine.prepare(&data).unwrap();
    let options = QueryOptions::top(k);

    // A single query — the batch a closed-loop client dispatches — and a
    // partly filled lane pass. Each width warms its own shapes first: the
    // claim is about a steady stream of same-shaped batches.
    for width in [1, batch] {
        // Query batches are prebuilt so the measured window contains nothing but
        // the engine's own encode → simulate → decode.
        let batches: Vec<Vec<binvec::BinaryVector>> = (0..8u64)
            .map(|round| uniform_queries(width, dims, 102 + round))
            .collect();

        // Warm-up: compiles the board images, fills the scratch pool, and grows
        // every pooled buffer (stream, report sink, accumulators, result vectors)
        // to its steady-state capacity.
        let mut results = Vec::new();
        for queries in &batches[..3] {
            prepared
                .try_search_batch_into(queries, &options, &mut results)
                .unwrap();
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for queries in &batches[3..] {
            prepared
                .try_search_batch_into(queries, &options, &mut results)
                .unwrap();
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocations, 0,
            "a warmed steady-state batch must not touch the allocator (width {width})"
        );

        // And the allocation-free answers are still the right ones.
        for (query, neighbors) in batches.last().unwrap().iter().zip(&results) {
            assert_eq!(neighbors, &direct.search(query, k));
        }
    }
    let pool = prepared.pool_stats();
    assert_eq!(pool.fresh, 2, "one host + one worker scratch, ever");
}
