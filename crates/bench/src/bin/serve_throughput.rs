//! Serving-layer throughput sweep: batch size × shard count.
//!
//! Drives the cycle-accurate AP engine through a zero-worker
//! `ap_serve::ServiceRuntime` (submit everything, then `poll()` on this
//! thread, so batches form deterministically) and measures served queries per
//! second of backend busy time. Two effects are visible, both predicted by the
//! paper's cost model:
//!
//! * **Admission batching** (§V, §VI-B): a board image is compiled and loaded
//!   once per dispatched batch, so a batch of seven (the symbol-stream
//!   multiplex width) amortizes per-dispatch cost ~7× compared to batch size 1.
//! * **Sharding**: splitting the corpus across boards shrinks each board's
//!   network and runs the boards concurrently.
//!
//! Usage: `serve_throughput [--json]`

use ap_knn::{ApKnnEngine, KnnDesign};
use ap_serve::{
    ApEngineBackend, RuntimeConfig, ServiceRuntime, ShardedBackend, ShardedDataset, TicketHandle,
};
use bench::{maybe_emit_json, ExperimentRecord};
use binvec::BinaryVector;
use binvec::QueryOptions;

const DIMS: usize = 32;
const CORPUS: usize = 192;
const QUERIES: usize = 140;
const K: usize = 5;

fn run_sweep(
    data: &binvec::BinaryDataset,
    queries: &[BinaryVector],
    shards: usize,
    batch_size: usize,
) -> (f64, f64, u64) {
    let sharding = ShardedDataset::split(data, shards);
    let backend = ShardedBackend::try_build(&sharding, |_, shard| {
        ApEngineBackend::try_new(ApKnnEngine::new(KnnDesign::new(DIMS)), shard.clone())
    })
    .expect("corpus matches the design");
    // Cache off: this sweep isolates batching and sharding. The queue holds
    // the whole sweep, so no submission is refused before the poll.
    let config = RuntimeConfig::default()
        .with_workers(0)
        .with_queue_capacity(queries.len())
        .with_batch_size(batch_size)
        .with_options(QueryOptions::top(K))
        .with_cache_capacity(0);
    let runtime = ServiceRuntime::try_shared(config, std::sync::Arc::new(backend))
        .expect("valid sweep config");
    let handles: Vec<TicketHandle> = queries
        .iter()
        .map(|q| {
            runtime
                .try_submit(q.clone())
                .expect("queue holds the sweep")
        })
        .collect();
    runtime.poll();
    for handle in handles {
        handle.wait().expect("every query is served");
    }
    let stats = runtime.stats();
    (
        stats.busy_throughput_qps(),
        stats.batch_fill_ratio().unwrap_or(0.0),
        stats.ap_symbol_cycles,
    )
}

fn main() {
    println!("== ap-serve throughput sweep (cycle-accurate engine) ==");
    println!("corpus {CORPUS} x {DIMS} bits, {QUERIES} queries, k = {K}\n");
    println!(
        "{:>7} {:>6} | {:>12} {:>10} {:>14} | {:>8}",
        "shards", "batch", "queries/s", "fill", "AP cycles", "speedup"
    );

    let data = binvec::generate::uniform_dataset(CORPUS, DIMS, 61);
    let queries = binvec::generate::uniform_queries(QUERIES, DIMS, 62);

    let mut records = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut baseline_qps = None;
        for batch in [1usize, 7] {
            let (qps, fill, cycles) = run_sweep(&data, &queries, shards, batch);
            let speedup = match baseline_qps {
                None => {
                    baseline_qps = Some(qps);
                    "1.00x".to_string()
                }
                Some(base) => format!("{:.2}x", qps / base),
            };
            println!(
                "{shards:>7} {batch:>6} | {qps:>12.0} {:>9.1}% {cycles:>14} | {speedup:>8}",
                fill * 100.0
            );
            records.push(ExperimentRecord::new(
                "serve_throughput",
                format!("shards{shards}_batch{batch}"),
                "queries_per_sec",
                qps,
                None,
            ));
        }
    }

    // The acceptance check of the serving subsystem: batching to the §VI-B
    // multiplex width must beat one-at-a-time dispatch.
    let qps_of = |label: &str| {
        records
            .iter()
            .find(|r| r.label == label)
            .expect("record present")
            .reproduced
    };
    let single = qps_of("shards1_batch1");
    let batched = qps_of("shards1_batch7");
    println!(
        "\nbatch-7 vs batch-1 (1 shard): {batched:.0} vs {single:.0} q/s ({:.2}x)",
        batched / single
    );
    assert!(
        batched > single,
        "batched dispatch must outperform single-query dispatch"
    );

    maybe_emit_json(&records);
}
