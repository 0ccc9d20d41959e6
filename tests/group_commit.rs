//! Group commit through the serving runtime: a popped batch of mutations on a
//! durable live corpus costs one WAL fsync, not one per mutation.
//!
//! Deterministic by construction: a zero-worker runtime forms its batches on
//! the caller's `poll()`, so `3·B` queued inserts pop as exactly three
//! batches of `B`, and `LiveBackend::apply_mutations` covers each with one
//! group-committed sync.

use ap_knn::live::{LiveConfig, LiveEngine};
use ap_knn::wal::WalConfig;
use ap_knn::{ApKnnEngine, KnnDesign};
use ap_serve::{LiveBackend, QueryOptions, RuntimeConfig, ServiceRuntime};
use binvec::generate::{uniform_dataset, uniform_queries};
use binvec::Mutation;
use std::sync::Arc;

const DIMS: usize = 16;
const BATCH: usize = 8;

#[test]
fn each_popped_mutation_batch_costs_one_fsync() {
    let dir = std::env::temp_dir().join(format!("ap-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = LiveEngine::durable(
        ApKnnEngine::new(KnnDesign::new(DIMS)),
        &uniform_dataset(24, DIMS, 730),
        LiveConfig::default().with_background(false),
        WalConfig::default().with_checkpoint_every(None),
        &dir,
    )
    .expect("durable live engine");
    let runtime = ServiceRuntime::try_shared(
        RuntimeConfig::default()
            .with_workers(0)
            .with_batch_size(BATCH)
            .with_queue_capacity(4 * BATCH),
        Arc::new(LiveBackend::from_engine(Arc::new(live))),
    )
    .expect("runtime");

    let fsyncs = || runtime.stats().metrics().count("wal.fsyncs").unwrap_or(0);
    let before = fsyncs();
    let options = QueryOptions::top(3);
    let handles: Vec<_> = uniform_queries(3 * BATCH, DIMS, 731)
        .into_iter()
        .map(|vector| {
            runtime
                .try_submit_mutation(Mutation::Insert { vector }, &options)
                .expect("admitted")
        })
        .collect();
    runtime.poll();
    for handle in handles {
        let completed = handle.wait().expect("every insert is acked");
        assert!(
            completed.mutation.is_some(),
            "a mutation resolves with its ack"
        );
    }
    assert_eq!(
        fsyncs() - before,
        3,
        "three popped batches of {BATCH} inserts must cost three fsyncs"
    );
    drop(runtime);
    let _ = std::fs::remove_dir_all(&dir);
}
