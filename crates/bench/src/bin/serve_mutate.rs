//! Live-corpus serving under churn: mutation throughput, query throughput
//! during concurrent mutations, insert-to-visible staleness percentiles —
//! and the durability tax, by running the same churn twice, once over a
//! plain in-memory live corpus and once over a WAL-backed durable one.
//!
//! Stands up an [`ap_serve::ApServer`] over a [`ap_serve::LiveBackend`]
//! (epoch-snapshot mutable corpus with delta partitions, tombstones, and
//! compaction), then drives it the way a live deployment would:
//!
//! * **mutator** — one client streams inserts (with a sprinkling of deletes)
//!   through a pipelined window of in-flight mutations (`submit_insert` /
//!   `submit_delete`, acks reaped as the window fills), so the server's
//!   admission batching — and, on the durable pass, the WAL's group
//!   commit — actually sees concurrent mutations; per-mutation ack latency
//!   is submit → MutAck measured at the caller.
//! * **query fleet** — M closed-loop clients issue one-shot `search` calls
//!   for the whole churn window, measuring what corpus mutation costs the
//!   read path.
//!
//! The server-side staleness histogram (mutation submitted → visible to
//! queries) and the WAL gauges (records, fsyncs, group-commit sizes) travel
//! back in the stats frame and are recorded alongside the client-observed
//! numbers. The two passes are merged into a `wal_tax` ratio —
//! WAL-off / WAL-on mutation throughput — which the quick (CI) mode asserts
//! stays within 3x: group commit must amortize the fsyncs, not serialize on
//! them. Emits into the `serve_mutate` section of `BENCH_serve.json`
//! (preserving the other serving sections). Pass `--quick` for the CI smoke
//! configuration.

use ap_knn::capacity::CapacityModel;
use ap_knn::live::{LiveConfig, LiveEngine};
use ap_knn::wal::WalConfig;
use ap_knn::{ApKnnEngine, BoardCapacity, KnnDesign};
use ap_serve::{ApClient, ApServer, LiveBackend, RuntimeConfig, ServiceRuntime, StatsFrame};
use bench::{maybe_emit_json, merge_records_into_file, ExperimentRecord};
use binvec::generate::{uniform_dataset, uniform_queries};
use binvec::QueryOptions;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Load {
    vectors: usize,
    dims: usize,
    vectors_per_board: usize,
    workers: usize,
    query_clients: usize,
    mutations: usize,
    delete_every: usize,
    compact_threshold: usize,
    /// In-flight mutation window of the pipelined mutator.
    mutation_window: usize,
}

fn load(quick: bool) -> Load {
    if quick {
        Load {
            vectors: 96,
            dims: 32,
            vectors_per_board: 24,
            workers: 2,
            query_clients: 2,
            mutations: 60,
            delete_every: 4,
            compact_threshold: 32,
            mutation_window: 8,
        }
    } else {
        Load {
            vectors: 256,
            dims: 32,
            vectors_per_board: 64,
            workers: 4,
            query_clients: 4,
            mutations: 400,
            delete_every: 4,
            compact_threshold: 64,
            mutation_window: 16,
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

/// One churn pass: mutation + query rates, latency percentiles, and the
/// server's own stats frame.
struct ChurnOutcome {
    mutation_rate: f64,
    ack_latencies: Vec<Duration>,
    query_rate: f64,
    query_latencies: Vec<Duration>,
    stats: StatsFrame,
}

/// Runs the full churn workload against a fresh server; `durable_dir` picks
/// the WAL-on (Some) or WAL-off (None) backend.
fn run_churn(load: &Load, options: QueryOptions, durable_dir: Option<&PathBuf>) -> ChurnOutcome {
    let data = uniform_dataset(load.vectors, load.dims, 61);
    let engine = ApKnnEngine::new(KnnDesign::new(load.dims)).with_capacity(BoardCapacity {
        vectors_per_board: load.vectors_per_board,
        model: CapacityModel::PaperCalibrated,
    });
    let live_config = LiveConfig::default().with_compact_threshold(load.compact_threshold);
    let backend = match durable_dir {
        None => LiveBackend::try_new(engine, &data, live_config).expect("live backend"),
        Some(dir) => {
            // Group-commit defaults: the serving runtime applies popped
            // mutation batches through one fsync each.
            let live = LiveEngine::durable(engine, &data, live_config, WalConfig::default(), dir)
                .expect("durable live backend");
            LiveBackend::from_engine(Arc::new(live))
        }
    };
    let runtime = Arc::new(
        ServiceRuntime::try_shared(
            RuntimeConfig::default()
                .with_workers(load.workers)
                .with_queue_capacity(4096)
                .with_cache_capacity(256)
                .with_options(options),
            Arc::new(backend),
        )
        .expect("constructible runtime"),
    );
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind loopback");
    let addr = server.local_addr();

    // Warm up the wire path and the worker pools.
    {
        let mut client = ApClient::connect(addr).expect("warmup connect");
        client.ping().expect("warmup ping");
        for q in uniform_queries(load.workers * 2, load.dims, 62) {
            client.search(q, options).expect("warmup query");
        }
    }

    let churning = Arc::new(AtomicBool::new(true));
    let inserts = uniform_queries(load.mutations, load.dims, 63);
    let query_pool = uniform_queries(256, load.dims, 64);

    // The query fleet runs for the whole churn window; the mutator stops it
    // when the last ack lands, so throughput is measured *during* mutation.
    let (ack_latencies, churn_wall, query_latencies) = std::thread::scope(|scope| {
        let fleet: Vec<_> = (0..load.query_clients)
            .map(|c| {
                let churning = Arc::clone(&churning);
                let query_pool = &query_pool;
                scope.spawn(move || {
                    let mut client = ApClient::connect(addr).expect("query connect");
                    let mut latencies = Vec::new();
                    let mut i = c; // stagger the per-client query sequences
                    while churning.load(Ordering::Relaxed) {
                        let q = query_pool[i % query_pool.len()].clone();
                        i += load.query_clients;
                        let submitted = Instant::now();
                        client.search(q, options).expect("churn query");
                        latencies.push(submitted.elapsed());
                    }
                    latencies
                })
            })
            .collect();

        // Pipelined mutator: keep `mutation_window` mutations in flight so
        // admission batches (and WAL group commits) form; reap the oldest
        // ack whenever the window is full, and drain the tail at the end.
        let mut mutator = ApClient::connect(addr).expect("mutator connect");
        let mut acks = Vec::with_capacity(load.mutations);
        let mut inserted_ids: Vec<u64> = Vec::new();
        let mut in_flight: VecDeque<(u64, Instant, bool)> = VecDeque::new();
        let churn_start = Instant::now();
        let reap = |mutator: &mut ApClient,
                    in_flight: &mut VecDeque<(u64, Instant, bool)>,
                    acks: &mut Vec<Duration>,
                    inserted_ids: &mut Vec<u64>| {
            let (correlation, submitted, was_insert) =
                in_flight.pop_front().expect("non-empty window");
            let ack = mutator.wait_ack(correlation).expect("mutation ack");
            acks.push(submitted.elapsed());
            if was_insert {
                inserted_ids.push(ack.id as u64);
            }
        };
        for (i, vector) in inserts.iter().enumerate() {
            if in_flight.len() == load.mutation_window {
                reap(&mut mutator, &mut in_flight, &mut acks, &mut inserted_ids);
            }
            let submitted = Instant::now();
            if i % load.delete_every == load.delete_every - 1 && !inserted_ids.is_empty() {
                let victim = inserted_ids.remove(0);
                let correlation = mutator
                    .submit_delete(victim, options)
                    .expect("submit delete");
                in_flight.push_back((correlation, submitted, false));
            } else {
                let correlation = mutator
                    .submit_insert(vector.clone(), options)
                    .expect("submit insert");
                in_flight.push_back((correlation, submitted, true));
            }
        }
        while !in_flight.is_empty() {
            reap(&mut mutator, &mut in_flight, &mut acks, &mut inserted_ids);
        }
        let churn_wall = churn_start.elapsed();
        churning.store(false, Ordering::Relaxed);
        let query_latencies: Vec<Duration> = fleet
            .into_iter()
            .flat_map(|h| h.join().expect("query client"))
            .collect();
        (acks, churn_wall, query_latencies)
    });

    let mut client = ApClient::connect(addr).expect("stats connect");
    let stats = client.stats().expect("stats over the wire");
    assert_eq!(
        stats.metrics.count("mutations.applied"),
        Some(load.mutations as u64),
        "every mutation must have applied"
    );
    drop(client);
    server.shutdown();

    ChurnOutcome {
        mutation_rate: ack_latencies.len() as f64 / churn_wall.as_secs_f64(),
        ack_latencies,
        query_rate: query_latencies.len() as f64 / churn_wall.as_secs_f64(),
        query_latencies,
        stats,
    }
}

/// Emits one pass's records under `wal=on` / `wal=off` labels.
fn record_pass(records: &mut Vec<ExperimentRecord>, load: &Load, wal: &str, pass: &ChurnOutcome) {
    let mut sorted_acks = pass.ack_latencies.clone();
    sorted_acks.sort_unstable();
    println!(
        "{:>12} {:>11.0} mut/s p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms  (wal {wal})",
        "mutations",
        pass.mutation_rate,
        percentile(&sorted_acks, 0.50),
        percentile(&sorted_acks, 0.95),
        percentile(&sorted_acks, 0.99),
    );
    let label = format!("churn mutations={} wal={wal}", load.mutations);
    for (metric, value) in [
        ("mutation_rate_per_s", pass.mutation_rate),
        ("ack_p50_ms", percentile(&sorted_acks, 0.50)),
        ("ack_p95_ms", percentile(&sorted_acks, 0.95)),
        ("ack_p99_ms", percentile(&sorted_acks, 0.99)),
    ] {
        records.push(ExperimentRecord::new(
            "serve_mutate",
            label.clone(),
            metric,
            value,
            None,
        ));
    }

    let mut sorted_queries = pass.query_latencies.clone();
    sorted_queries.sort_unstable();
    println!(
        "{:>12} {:>11.0} q/s   p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms  (wal {wal})",
        "queries",
        pass.query_rate,
        percentile(&sorted_queries, 0.50),
        percentile(&sorted_queries, 0.95),
        percentile(&sorted_queries, 0.99),
    );
    let label = format!(
        "queries_during_churn clients={} wal={wal}",
        load.query_clients
    );
    for (metric, value) in [
        ("throughput_qps", pass.query_rate),
        ("p50_ms", percentile(&sorted_queries, 0.50)),
        ("p95_ms", percentile(&sorted_queries, 0.95)),
        ("p99_ms", percentile(&sorted_queries, 0.99)),
    ] {
        records.push(ExperimentRecord::new(
            "serve_mutate",
            label.clone(),
            metric,
            value,
            None,
        ));
    }

    // The server's own view: generation, delta fill, the submit→visible
    // staleness histogram (queue wait + apply + epoch swap, not just the
    // client-observed round trip) — and, on the durable pass, the WAL
    // gauges that show group commit actually grouping.
    let stats = &pass.stats.metrics;
    let count = |name| stats.count(name).unwrap_or(0);
    println!(
        "server: generation {}, {} applied / {} submitted, {} delta vectors, \
         {} tombstones (wal {wal})",
        count("live.generation"),
        count("mutations.applied"),
        count("mutations.submitted"),
        count("live.delta_vectors"),
        count("live.tombstones"),
    );
    let label = format!("server wal={wal}");
    records.push(ExperimentRecord::new(
        "serve_mutate",
        label.clone(),
        "generation",
        count("live.generation") as f64,
        None,
    ));
    records.push(ExperimentRecord::new(
        "serve_mutate",
        label.clone(),
        "tombstones",
        count("live.tombstones") as f64,
        None,
    ));
    if let Some([p50, p95, p99]) = stats.latency_ms("mutations.staleness") {
        println!("server staleness: p50 {p50:.3} ms, p95 {p95:.3} ms, p99 {p99:.3} ms");
        for (metric, value) in [
            ("staleness_p50_ms", p50),
            ("staleness_p95_ms", p95),
            ("staleness_p99_ms", p99),
        ] {
            records.push(ExperimentRecord::new(
                "serve_mutate",
                label.clone(),
                metric,
                value,
                None,
            ));
        }
    }
    if count("wal.fsyncs") > 0 {
        let group_mean = stats.gauge("wal.group_mean").unwrap_or(0.0);
        println!(
            "server wal: {} records / {} B, {} fsyncs (group mean {:.1}, max {}), \
             {} checkpoints",
            count("wal.records"),
            count("wal.bytes"),
            count("wal.fsyncs"),
            group_mean,
            count("wal.group_max"),
            count("wal.checkpoints"),
        );
        for (metric, value) in [
            ("wal_records", count("wal.records") as f64),
            ("wal_fsyncs", count("wal.fsyncs") as f64),
            ("wal_group_mean", group_mean),
            ("wal_group_max", count("wal.group_max") as f64),
        ] {
            records.push(ExperimentRecord::new(
                "serve_mutate",
                label.clone(),
                metric,
                value,
                None,
            ));
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let load = load(quick);
    let options = QueryOptions::top(10);

    println!(
        "live serving under churn over loopback, {} mode: {} workers, \
         {} query clients, {} mutations (1 delete per {} inserts, window {}), \
         compaction threshold {}",
        if quick { "quick" } else { "full" },
        load.workers,
        load.query_clients,
        load.mutations,
        load.delete_every,
        load.mutation_window,
        load.compact_threshold,
    );

    let mut records = Vec::new();

    let wal_off = run_churn(&load, options, None);
    record_pass(&mut records, &load, "off", &wal_off);

    let dir = std::env::temp_dir().join(format!("ap-serve-mutate-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_on = run_churn(&load, options, Some(&dir));
    record_pass(&mut records, &load, "on", &wal_on);
    let _ = std::fs::remove_dir_all(&dir);

    // The durability tax: how much mutation throughput the WAL costs. Group
    // commit is the whole point — with a pipelined mutator the fsyncs
    // amortize over admission batches, so the tax must stay bounded.
    let wal_tax = wal_off.mutation_rate / wal_on.mutation_rate.max(f64::MIN_POSITIVE);
    println!(
        "wal tax: {:.0} mut/s (off) / {:.0} mut/s (on) = {wal_tax:.2}x",
        wal_off.mutation_rate, wal_on.mutation_rate,
    );
    records.push(ExperimentRecord::new(
        "serve_mutate",
        "wal_tax".to_string(),
        "mutation_throughput_ratio",
        wal_tax,
        None,
    ));
    if quick {
        assert!(
            wal_tax <= 3.0,
            "group-committed WAL mutation throughput must stay within 3x of \
             WAL-off (measured {wal_tax:.2}x)"
        );
    }

    merge_records_into_file("BENCH_serve.json", &records).expect("write BENCH_serve.json");
    println!("merged {} records into BENCH_serve.json", records.len());
    maybe_emit_json(&records);
}
