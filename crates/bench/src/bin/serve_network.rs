//! Network serving: round-trip latency percentiles and throughput over
//! loopback TCP.
//!
//! Stands up a real [`ap_serve::ApServer`] on an ephemeral loopback port over
//! a [`ap_serve::ServiceRuntime`] of cycle-accurate prepared engines, then
//! measures the wire the way clients actually use it:
//!
//! * **round-trip** — M closed-loop [`ap_serve::ApClient`] threads, each
//!   issuing one-shot `search` calls; per-query latency is encode → TCP →
//!   decode → queue → dispatch → response frame, measured at the caller.
//! * **pipelined** — one client keeps a window of W queries in flight on a
//!   single socket (`submit`/`recv_completion`), the regime the non-blocking
//!   server-side completion surface exists for.
//!
//! Emits `throughput_qps` / `p50_ms` / `p95_ms` / `p99_ms` records for both
//! shapes into the `serve_network` section of `BENCH_serve.json` (preserving
//! the `serve_amortized` / `serve_concurrent` sections). Pass `--quick` for
//! the CI smoke configuration.

use ap_knn::capacity::CapacityModel;
use ap_knn::{ApKnnEngine, BoardCapacity, ExecutionMode, KnnDesign};
use ap_serve::SimilarityBackend;
use ap_serve::{ApClient, ApEngineBackend, ApServer, RuntimeConfig, ServiceRuntime};
use baselines::{LinearScan, SearchIndex};
use bench::{maybe_emit_json, merge_records_into_file, ExperimentRecord};
use binvec::generate::{uniform_dataset, uniform_queries};
use binvec::QueryOptions;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Load {
    vectors: usize,
    dims: usize,
    vectors_per_board: usize,
    workers: usize,
    clients: usize,
    queries_per_client: usize,
    window: usize,
    pipelined_queries: usize,
}

fn load(quick: bool) -> Load {
    if quick {
        Load {
            vectors: 96,
            dims: 32,
            vectors_per_board: 24,
            workers: 2,
            clients: 4,
            queries_per_client: 25,
            window: 32,
            pipelined_queries: 200,
        }
    } else {
        Load {
            vectors: 256,
            dims: 32,
            vectors_per_board: 64,
            workers: 4,
            clients: 8,
            queries_per_client: 100,
            window: 128,
            pipelined_queries: 2_000,
        }
    }
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let load = load(quick);
    let options = QueryOptions::top(10);
    let data = uniform_dataset(load.vectors, load.dims, 51);
    let direct = LinearScan::new(data.clone());

    let dims = load.dims;
    let vectors_per_board = load.vectors_per_board;
    let worker_data = data.clone();
    let runtime = ServiceRuntime::try_new(
        RuntimeConfig::default()
            .with_workers(load.workers)
            .with_queue_capacity(4096)
            .with_cache_capacity(0)
            .with_options(options),
        move |_| {
            let engine = ApKnnEngine::new(KnnDesign::new(dims))
                .with_mode(ExecutionMode::CycleAccurate)
                .with_parallelism(1)
                .with_capacity(BoardCapacity {
                    vectors_per_board,
                    model: CapacityModel::PaperCalibrated,
                });
            let backend = ApEngineBackend::try_new(engine, worker_data.clone())?;
            backend.prepared().compile()?;
            Ok(Box::new(backend) as Box<dyn SimilarityBackend>)
        },
    )
    .expect("constructible runtime");
    let runtime = Arc::new(runtime);
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind loopback");
    let addr = server.local_addr();

    println!(
        "network serving over loopback {addr}, {} mode: {} workers, \
         {} clients x {} one-shot queries, pipelined window {}",
        if quick { "quick" } else { "full" },
        load.workers,
        load.clients,
        load.queries_per_client,
        load.window,
    );

    let queries = uniform_queries(
        load.clients * load.queries_per_client + load.pipelined_queries,
        load.dims,
        52,
    );
    let (oneshot_queries, pipelined_queries) =
        queries.split_at(load.clients * load.queries_per_client);

    // Warm up: connections, worker scratch pools, and the wire path.
    {
        let mut client = ApClient::connect(addr).expect("warmup connect");
        client.ping().expect("warmup ping");
        for q in oneshot_queries.iter().take(load.workers * 2) {
            client.search(q.clone(), options).expect("warmup query");
        }
    }

    let mut records = Vec::new();

    // Shape 1: closed-loop one-shot round trips from M concurrent clients.
    let started = Instant::now();
    let latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.clients)
            .map(|c| {
                let slice = &oneshot_queries
                    [c * load.queries_per_client..(c + 1) * load.queries_per_client];
                scope.spawn(move || {
                    let mut client = ApClient::connect(addr).expect("client connect");
                    let mut latencies = Vec::with_capacity(slice.len());
                    for q in slice {
                        let submitted = Instant::now();
                        let neighbors = client.search(q.clone(), options).expect("bench query");
                        latencies.push(submitted.elapsed());
                        assert_eq!(neighbors.len(), options.k.min(load.vectors));
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let throughput = latencies.len() as f64 / wall;
    println!(
        "{:>12} {:>11.0} q/s   p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms",
        "round-trip",
        throughput,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        percentile(&sorted, 0.99),
    );
    let label = format!("round_trip clients={}", load.clients);
    for (metric, value) in [
        ("throughput_qps", throughput),
        ("p50_ms", percentile(&sorted, 0.50)),
        ("p95_ms", percentile(&sorted, 0.95)),
        ("p99_ms", percentile(&sorted, 0.99)),
    ] {
        records.push(ExperimentRecord::new(
            "serve_network",
            label.clone(),
            metric,
            value,
            None,
        ));
    }

    // Shape 2: one socket, a window of queries in flight, completions
    // collected as the server resolves them.
    let mut client = ApClient::connect(addr).expect("pipelined connect");
    let mut in_flight: std::collections::HashMap<u64, Instant> = std::collections::HashMap::new();
    let mut latencies = Vec::with_capacity(pipelined_queries.len());
    let mut next = 0usize;
    let started = Instant::now();
    while latencies.len() < pipelined_queries.len() {
        while next < pipelined_queries.len() && in_flight.len() < load.window {
            let correlation = client
                .submit(pipelined_queries[next].clone(), options)
                .expect("pipelined submit");
            in_flight.insert(correlation, Instant::now());
            next += 1;
        }
        let (correlation, outcome) = client.recv_completion().expect("pipelined completion");
        let submitted = in_flight
            .remove(&correlation)
            .expect("completion matches an in-flight correlation id");
        latencies.push(submitted.elapsed());
        outcome.expect("pipelined query");
    }
    let wall = started.elapsed().as_secs_f64();
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let throughput = latencies.len() as f64 / wall;
    println!(
        "{:>12} {:>11.0} q/s   p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms",
        "pipelined",
        throughput,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        percentile(&sorted, 0.99),
    );
    let label = format!("pipelined window={}", load.window);
    for (metric, value) in [
        ("throughput_qps", throughput),
        ("p50_ms", percentile(&sorted, 0.50)),
        ("p95_ms", percentile(&sorted, 0.95)),
        ("p99_ms", percentile(&sorted, 0.99)),
    ] {
        records.push(ExperimentRecord::new(
            "serve_network",
            label.clone(),
            metric,
            value,
            None,
        ));
    }

    // Spot-check correctness over the wire and print the server-side view.
    let sample = &pipelined_queries[0];
    let neighbors = client
        .search(sample.clone(), options)
        .expect("sample query");
    assert_eq!(
        neighbors,
        direct.search(sample, options.k),
        "wire results must match the linear scan"
    );
    let stats = client.stats().expect("stats over the wire").metrics;
    if let Some([p50, p95, p99]) = stats.latency_ms("queries.queue_wait") {
        println!(
            "server queue wait: p50 {p50:.3} ms, p95 {p95:.3} ms, p99 {p99:.3} ms \
             ({} served, {} batches)",
            stats.count("queries.served").unwrap_or(0),
            stats.count("batches.dispatched").unwrap_or(0),
        );
    }
    drop(client);
    server.shutdown();

    merge_records_into_file("BENCH_serve.json", &records).expect("write BENCH_serve.json");
    println!("merged {} records into BENCH_serve.json", records.len());
    maybe_emit_json(&records);
}
