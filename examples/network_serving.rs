//! End-to-end tour of the network front door: a real TCP server and client
//! in one process, over loopback.
//!
//! Stands up a [`ServiceRuntime`] of behavioral AP engines, binds an
//! [`ApServer`] on an ephemeral loopback port, and then exercises every
//! client shape:
//!
//! 1. `ping` — wire round trip, no query.
//! 2. One-shot `search` — results verified against the exact linear scan.
//! 3. Pipelined `submit`/`recv_completion` — a window of queries in flight on
//!    one socket, answers collected in completion order and matched back by
//!    correlation id.
//! 4. Typed per-query failure — a wrong-width query comes back as a
//!    [`SearchError`] frame, and the connection keeps serving.
//! 5. Remote `stats` — the server's configuration + statistics snapshot,
//!    including queue-wait percentiles, over the wire.
//!
//! Run with: `cargo run --release --example network_serving`

use ap_similarity::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn main() {
    let dims = 64;
    let k = 10;
    let corpus_size = 1_024;

    // A runtime of worker-owned behavioral engines, exactly as `serving.rs`
    // builds it — the network layer adds nothing backend-specific.
    let data = binvec::generate::uniform_dataset(corpus_size, dims, 42);
    let ground_truth = LinearScan::new(data.clone());
    let runtime = Arc::new(
        ServiceRuntime::try_new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_queue_capacity(512)
                .with_cache_capacity(128)
                .with_options(QueryOptions::top(k)),
            move |_| {
                let engine = ApKnnEngine::new(KnnDesign::new(dims))
                    .with_mode(ExecutionMode::Behavioral)
                    .with_parallelism(1);
                Ok(Box::new(ApEngineBackend::try_new(engine, data.clone())?)
                    as Box<dyn SimilarityBackend>)
            },
        )
        .expect("valid runtime configuration"),
    );

    // The front door: port 0 asks the OS for an ephemeral loopback port.
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind loopback");
    println!("== network serving demo ==");
    println!("server listening on {}", server.local_addr());

    let mut client = ApClient::connect(server.local_addr()).expect("connect");

    // 1. Ping: the cheapest round trip the protocol has.
    let rtt = client.ping().expect("ping");
    println!("ping round trip: {:.3} ms", rtt.as_secs_f64() * 1e3);

    // 2. One-shot searches, verified against the exact scan.
    let queries = binvec::generate::uniform_queries(64, dims, 43);
    for query in queries.iter().take(8) {
        let neighbors = client
            .search(query.clone(), QueryOptions::top(k))
            .expect("search over the wire");
        assert_eq!(neighbors, ground_truth.search(query, k));
    }
    println!("8 one-shot searches verified against LinearScan");

    // 3. Pipelining: keep 16 queries in flight on this one socket. The
    //    server's writer thread multiplexes every in-flight ticket through a
    //    CompletionSet, so answers arrive in completion order — the
    //    correlation id, not arrival order, matches them back.
    let mut in_flight: HashMap<u64, &BinaryVector> = HashMap::new();
    for query in &queries {
        let correlation = client
            .submit(query.clone(), QueryOptions::top(k))
            .expect("pipelined submit");
        in_flight.insert(correlation, query);
    }
    let mut verified = 0;
    while !in_flight.is_empty() {
        let (correlation, outcome) = client.recv_completion().expect("completion");
        let query = in_flight
            .remove(&correlation)
            .expect("every completion matches a submission");
        let neighbors = outcome.expect("pipelined query succeeds");
        assert_eq!(neighbors, ground_truth.search(query, k));
        verified += 1;
    }
    println!("{verified} pipelined queries verified, matched by correlation id");

    // 4. Failure is a typed frame, not a dead connection: a wrong-width
    //    query fails with the same SearchError the in-process API returns,
    //    and the very next query on the same socket still works.
    let skinny = binvec::generate::uniform_queries(1, dims / 2, 44)
        .pop()
        .unwrap();
    match client.search(skinny, QueryOptions::top(k)) {
        Err(NetError::Query(error)) => println!("typed failure over the wire: {error}"),
        other => panic!("expected a typed query failure, got {other:?}"),
    }
    let survivor = client
        .search(queries[0].clone(), QueryOptions::top(k))
        .expect("connection survives a failed query");
    assert_eq!(survivor, ground_truth.search(&queries[0], k));
    println!("connection kept serving after the failure");

    // 5. The server's own view, fetched over the wire.
    let stats = client.stats().expect("stats over the wire");
    let count = |name| stats.metrics.count(name).unwrap_or(0);
    println!(
        "server stats: backend '{}', {} workers, {} submitted, {} served, {} failed",
        stats.backend,
        count("config.workers"),
        count("queries.submitted"),
        count("queries.served"),
        count("queries.failed"),
    );
    if let Some([p50, p95, p99]) = stats.metrics.latency_ms("queries.queue_wait") {
        println!("queue wait: p50 {p50:.3} ms, p95 {p95:.3} ms, p99 {p99:.3} ms");
    }

    // Graceful shutdown: stop accepting, drain in-flight work, close.
    drop(client);
    let final_stats = server.shutdown();
    assert_eq!(
        final_stats.queries_submitted,
        final_stats.queries_served + final_stats.failed_queries + final_stats.deadline_expired,
        "every admitted ticket resolved exactly once"
    );
    println!("server drained and shut down cleanly");
}
