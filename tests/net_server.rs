//! Server lifecycle integration tests: real loopback TCP, concurrent client
//! fleets with poison queries in flight, graceful shutdown draining, failure
//! containment per connection, and single-thread multiplexing of a thousand
//! in-flight tickets.

use ap_serve::net::{ApClient, ApServer, CompletionSet, NetError};
use ap_serve::{
    BackendBatch, MetricEntry, Metrics, QueryOptions, RuntimeConfig, SearchError, ServiceRuntime,
    SimilarityBackend,
};
use baselines::{LinearScan, SearchIndex};
use binvec::generate::{uniform_dataset, uniform_queries};
use binvec::BinaryVector;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Generous bound for anything to resolve; the suite only sleeps this long
/// when something is genuinely wedged.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(30);

/// A backend that fails any batch containing the poison query — the wire-side
/// twin of the runtime_concurrent suite's dispatch-failure exercises.
struct PoisonSensitive {
    inner: LinearScan,
    poison: BinaryVector,
}

impl SimilarityBackend for PoisonSensitive {
    fn name(&self) -> String {
        "poison-sensitive".to_string()
    }
    fn len(&self) -> usize {
        SearchIndex::len(&self.inner)
    }
    fn dims(&self) -> usize {
        SearchIndex::dims(&self.inner)
    }
    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        BackendBatch::host_only(SearchIndex::search_batch(&self.inner, queries, k))
    }
    fn try_serve_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<BackendBatch, SearchError> {
        if queries.contains(&self.poison) {
            return Err(SearchError::Backend {
                backend: self.name(),
                reason: "poison query in batch".to_string(),
            });
        }
        options.validate()?;
        let mut batch = self.serve_batch(queries, options.k);
        for neighbors in &mut batch.results {
            options.clip(neighbors);
        }
        Ok(batch)
    }
}

/// A manually opened gate blocking dispatches until the test releases them,
/// so in-flight population at shutdown time is deterministic.
struct Gate {
    open: Mutex<bool>,
    released: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            open: Mutex::new(false),
            released: Condvar::new(),
        })
    }
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.released.notify_all();
    }
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.released.wait(open).unwrap();
        }
    }
}

/// A gated linear scan: dispatches block until the gate opens.
struct Gated {
    inner: LinearScan,
    gate: Arc<Gate>,
}

impl SimilarityBackend for Gated {
    fn name(&self) -> String {
        "gated".to_string()
    }
    fn len(&self) -> usize {
        SearchIndex::len(&self.inner)
    }
    fn dims(&self) -> usize {
        SearchIndex::dims(&self.inner)
    }
    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        BackendBatch::host_only(SearchIndex::search_batch(&self.inner, queries, k))
    }
    fn try_serve_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<BackendBatch, SearchError> {
        self.gate.wait();
        options.validate()?;
        let mut batch = self.serve_batch(queries, options.k);
        for neighbors in &mut batch.results {
            options.clip(neighbors);
        }
        Ok(batch)
    }
}

fn linear_runtime(
    dims: usize,
    vectors: usize,
    workers: usize,
    queue: usize,
) -> Arc<ServiceRuntime> {
    let data = uniform_dataset(vectors, dims, 71);
    Arc::new(
        ServiceRuntime::try_new(
            RuntimeConfig::default()
                .with_workers(workers)
                .with_queue_capacity(queue)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(5)),
            move |_| Ok(Box::new(LinearScan::new(data.clone())) as Box<dyn SimilarityBackend>),
        )
        .unwrap(),
    )
}

#[test]
fn client_fleet_with_poison_queries_gets_exactly_one_response_per_request() {
    let dims = 16;
    let clients = 5usize;
    let per_client = 40usize;
    let window = 8usize;
    let data = uniform_dataset(80, dims, 61);
    let direct = LinearScan::new(data.clone());
    let poison = BinaryVector::ones(dims);

    let backend_data = data.clone();
    let backend_poison = poison.clone();
    let runtime = Arc::new(
        ServiceRuntime::try_new(
            RuntimeConfig::default()
                .with_workers(3)
                .with_batch_size(5)
                .with_queue_capacity(1024)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(4)),
            move |_| {
                Ok(Box::new(PoisonSensitive {
                    inner: LinearScan::new(backend_data.clone()),
                    poison: backend_poison.clone(),
                }) as Box<dyn SimilarityBackend>)
            },
        )
        .unwrap(),
    );
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
    let addr = server.local_addr();

    // Each client keeps a pipelined window in flight; client 0 keeps poison
    // in the stream the whole run. Every submission must come back exactly
    // once, matched by correlation id.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let poison = &poison;
                let direct = &direct;
                scope.spawn(move || {
                    let mut client = ApClient::connect(addr).expect("connect");
                    let queries = uniform_queries(per_client, dims, 62 + c as u64);
                    let mut in_flight: HashMap<u64, BinaryVector> = HashMap::new();
                    let mut responses = 0usize;
                    let deadline = Instant::now() + RESOLVE_TIMEOUT;
                    for (i, q) in queries.into_iter().enumerate() {
                        let q = if c == 0 && i % 8 == 0 {
                            poison.clone()
                        } else {
                            q
                        };
                        let correlation = client
                            .submit(q.clone(), QueryOptions::top(4))
                            .expect("pipelined submit");
                        assert!(
                            in_flight.insert(correlation, q).is_none(),
                            "correlation ids must be unique per connection"
                        );
                        while in_flight.len() >= window {
                            assert!(Instant::now() < deadline, "fleet wedged");
                            let (corr, outcome) = client.recv_completion().expect("completion");
                            let query = in_flight
                                .remove(&corr)
                                .expect("completion matches exactly one in-flight request");
                            responses += 1;
                            match outcome {
                                Ok(neighbors) => {
                                    assert_ne!(&query, poison, "a poison query can never succeed");
                                    assert_eq!(neighbors, direct.search(&query, 4));
                                }
                                Err(error) => {
                                    // Either the poison itself or batch
                                    // collateral; always the backend's typed
                                    // error.
                                    assert!(matches!(error, SearchError::Backend { .. }));
                                }
                            }
                        }
                    }
                    while !in_flight.is_empty() {
                        assert!(Instant::now() < deadline, "drain wedged");
                        let (corr, outcome) = client.recv_completion().expect("completion");
                        let query = in_flight.remove(&corr).expect("matched completion");
                        responses += 1;
                        if let Ok(neighbors) = outcome {
                            assert_ne!(&query, poison);
                            assert_eq!(neighbors, direct.search(&query, 4));
                        }
                    }
                    assert_eq!(responses, per_client, "exactly one response per request");
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });

    let stats = server.shutdown();
    assert_eq!(
        stats.queries_submitted,
        stats.queries_served + stats.failed_queries + stats.deadline_expired,
        "every admitted ticket resolved exactly once"
    );
    assert_eq!(stats.queries_submitted, (clients * per_client) as u64);
    assert!(stats.failed_queries > 0, "poison batches must have failed");
    Arc::try_unwrap(runtime)
        .unwrap_or_else(|_| panic!("server released its runtime handle"))
        .shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_tickets_before_closing_sockets() {
    let dims = 16;
    let in_flight = 24usize;
    let data = uniform_dataset(60, dims, 73);
    let direct = LinearScan::new(data.clone());
    let gate = Gate::new();

    let backend_data = data.clone();
    let backend_gate = Arc::clone(&gate);
    let runtime = Arc::new(
        ServiceRuntime::try_new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_queue_capacity(256)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(5)),
            move |_| {
                Ok(Box::new(Gated {
                    inner: LinearScan::new(backend_data.clone()),
                    gate: Arc::clone(&backend_gate),
                }) as Box<dyn SimilarityBackend>)
            },
        )
        .unwrap(),
    );
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
    let addr = server.local_addr();

    let mut client = ApClient::connect(addr).expect("connect");
    let queries = uniform_queries(in_flight, dims, 74);
    let mut pending: HashMap<u64, BinaryVector> = HashMap::new();
    for q in &queries {
        let corr = client
            .submit(q.clone(), QueryOptions::top(5))
            .expect("submit");
        pending.insert(corr, q.clone());
    }

    // Wait until every submission is admitted (in flight behind the gate):
    // shutdown stops *reading*, so the drain contract covers admitted
    // tickets, not bytes still sitting in the socket buffer.
    let admitted_by = Instant::now() + RESOLVE_TIMEOUT;
    while runtime.stats().queries_submitted < in_flight as u64 {
        assert!(Instant::now() < admitted_by, "admission wedged");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Shut down while every query is gated in flight. The shutdown must not
    // complete until the drain does — and the client must still receive
    // every response before its socket closes.
    let shutdown = std::thread::spawn(move || server.shutdown());
    // Give the shutdown a moment to reach the draining phase, then release
    // the backend.
    std::thread::sleep(Duration::from_millis(100));
    gate.open();

    let deadline = Instant::now() + RESOLVE_TIMEOUT;
    while !pending.is_empty() {
        assert!(Instant::now() < deadline, "drain wedged");
        let (corr, outcome) = client
            .recv_completion()
            .expect("draining server must answer every in-flight query");
        let query = pending.remove(&corr).expect("matched completion");
        let neighbors = outcome.expect("gated query succeeds once released");
        assert_eq!(neighbors, direct.search(&query, 5));
    }
    // After the drain the server closes the socket: the next read is EOF,
    // surfaced as a typed protocol error — not a hang, not a panic.
    match client.recv_completion() {
        Err(NetError::Protocol(_)) | Err(NetError::Io(_)) => {}
        other => panic!("expected the drained socket to close, got {other:?}"),
    }

    let stats = shutdown.join().expect("shutdown thread");
    assert_eq!(stats.queries_served, in_flight as u64);
    assert_eq!(
        stats.queries_submitted,
        stats.queries_served + stats.failed_queries + stats.deadline_expired,
    );
    Arc::try_unwrap(runtime)
        .unwrap_or_else(|_| panic!("server released its runtime handle"))
        .shutdown();
}

#[test]
fn malformed_bytes_fail_one_connection_but_the_server_keeps_serving() {
    let runtime = linear_runtime(16, 60, 2, 256);
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
    let addr = server.local_addr();

    // A vandal speaks HTTP at the similarity port.
    {
        use std::io::{Read, Write};
        let mut vandal = std::net::TcpStream::connect(addr).unwrap();
        vandal
            .write_all(b"GET /knn?k=5 HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .unwrap();
        // The server answers with a typed Failed farewell and closes; just
        // read until EOF — the point is that it neither hangs nor panics.
        vandal.set_read_timeout(Some(RESOLVE_TIMEOUT)).unwrap();
        let mut farewell = Vec::new();
        vandal.read_to_end(&mut farewell).unwrap();
        assert!(!farewell.is_empty(), "the farewell frame is written first");
    }

    // A well-behaved client on a fresh connection is unaffected.
    let mut client = ApClient::connect(addr).expect("connect after vandal");
    client.ping().expect("server still serving");
    let query = uniform_queries(1, 16, 75).pop().unwrap();
    let neighbors = client.search(query, QueryOptions::top(5)).expect("search");
    assert_eq!(neighbors.len(), 5);

    drop(client);
    server.shutdown();
    Arc::try_unwrap(runtime)
        .unwrap_or_else(|_| panic!("server released its runtime handle"))
        .shutdown();
}

#[test]
fn wrong_width_queries_fail_typed_and_the_connection_keeps_serving() {
    let runtime = linear_runtime(16, 60, 2, 256);
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
    let mut client = ApClient::connect(server.local_addr()).expect("connect");

    let skinny = uniform_queries(1, 8, 76).pop().unwrap();
    match client.search(skinny, QueryOptions::top(5)) {
        Err(NetError::Query(SearchError::DimMismatch { expected, actual })) => {
            assert_eq!((expected, actual), (16, 8));
        }
        other => panic!("expected a typed dims failure, got {other:?}"),
    }
    // Same socket, next query: still served.
    let query = uniform_queries(1, 16, 77).pop().unwrap();
    assert_eq!(client.search(query, QueryOptions::top(5)).unwrap().len(), 5);

    drop(client);
    server.shutdown();
    Arc::try_unwrap(runtime)
        .unwrap_or_else(|_| panic!("server released its runtime handle"))
        .shutdown();
}

#[test]
fn one_thread_multiplexes_a_thousand_gated_tickets_without_blocking_waits() {
    let dims = 16;
    let tickets = 1_000usize;
    let data = uniform_dataset(60, dims, 78);
    let gate = Gate::new();

    let backend_data = data.clone();
    let backend_gate = Arc::clone(&gate);
    let runtime = ServiceRuntime::try_new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_queue_capacity(tickets + 16)
            .with_cache_capacity(0)
            .with_options(QueryOptions::top(3)),
        move |_| {
            Ok(Box::new(Gated {
                inner: LinearScan::new(backend_data.clone()),
                gate: Arc::clone(&backend_gate),
            }) as Box<dyn SimilarityBackend>)
        },
    )
    .unwrap();

    // Put 1000 tickets in flight behind the closed gate, all registered on
    // one CompletionSet owned by this one thread: no per-ticket wait() ever
    // happens, registration is non-blocking even though nothing can resolve.
    let queries = uniform_queries(tickets, dims, 79);
    let mut set = CompletionSet::new();
    for (i, q) in queries.iter().enumerate() {
        set.register(runtime.try_submit(q.clone()).expect("submit"), i);
    }
    assert_eq!(set.len(), tickets);
    assert!(
        set.drain_ready().is_empty(),
        "nothing resolves while the gate is closed"
    );

    gate.open();
    let mut seen = vec![false; tickets];
    let deadline = Instant::now() + RESOLVE_TIMEOUT;
    while !set.is_empty() {
        assert!(Instant::now() < deadline, "multiplexer wedged");
        for (tag, result) in set.wait_ready(Duration::from_millis(200)) {
            assert!(!seen[tag], "ticket {tag} resolved twice");
            seen[tag] = true;
            result.expect("gated query succeeds once released");
        }
    }
    assert!(seen.iter().all(|&s| s), "all {tickets} tickets resolved");
    runtime.shutdown();
}

#[test]
fn stats_frame_over_the_wire_matches_the_runtime_view() {
    let runtime = linear_runtime(16, 60, 2, 256);
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
    let mut client = ApClient::connect(server.local_addr()).expect("connect");

    for q in uniform_queries(20, 16, 80) {
        client.search(q, QueryOptions::top(5)).expect("search");
    }
    let wire = client.stats().expect("stats over the wire");
    let local = runtime.stats();
    assert_eq!(wire.backend, runtime.backend_name());

    // The frame *is* the runtime's metric list: every counter, derived gauge
    // and latency entry, in order. The runtime is quiescent between the two
    // snapshots, so only the entries derived from uptime can differ.
    let settled = |metrics: &Metrics| -> Vec<MetricEntry> {
        let mut entries = metrics.0.clone();
        entries.retain(|e| !e.name.starts_with("uptime."));
        entries
    };
    assert_eq!(settled(&wire.metrics), settled(&local.metrics()));
    assert_eq!(
        wire.metrics.0.len(),
        local.metrics().0.len(),
        "the uptime entries travel too"
    );

    assert_eq!(wire.metrics.count("config.workers"), Some(2));
    assert_eq!(wire.metrics.count("config.queue_capacity"), Some(256));
    assert_eq!(wire.metrics.count("queries.served"), Some(20));
    assert_eq!(
        wire.metrics.count("batches.queries"),
        Some(local.batched_queries)
    );
    assert_eq!(wire.metrics.get("live.generation"), None, "frozen corpus");
    let [p50, p95, p99] = wire
        .metrics
        .latency_ms("queries.queue_wait")
        .expect("queue-wait percentiles present after served queries");
    assert!(p50 <= p95 && p95 <= p99, "percentiles must be ordered");

    drop(client);
    server.shutdown();
    Arc::try_unwrap(runtime)
        .unwrap_or_else(|_| panic!("server released its runtime handle"))
        .shutdown();
}

#[test]
fn binding_a_zero_worker_runtime_is_refused_not_left_to_hang() {
    // Nobody would call poll() for the server: every client would wait
    // forever, so the bind is refused up front with a typed error.
    let runtime = linear_runtime(16, 20, 0, 64);
    let error = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime))
        .err()
        .expect("a zero-worker runtime cannot be served over the network");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    // The runtime itself is untouched and still serves its caller.
    let handle = runtime.try_submit(BinaryVector::zeros(16)).expect("submit");
    runtime.poll();
    assert_eq!(handle.wait().expect("served inline").neighbors.len(), 5);
}

#[test]
fn a_server_nobody_connected_to_shuts_down_and_joins() {
    // The accept loop blocks in accept(); shutdown must wake it itself. An
    // unspecified bind address is woken over loopback. Joined means the
    // listener is closed and the accept thread's runtime reference is gone.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let runtime = linear_runtime(16, 20, 1, 64);
        let server = ApServer::bind(addr, Arc::clone(&runtime)).expect("bind");
        let bound = server.local_addr();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let shutting_down = std::thread::spawn(move || {
            server.shutdown();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{addr}: shutdown never joined the accept loop"));
        shutting_down.join().expect("shutdown thread");
        assert_eq!(
            Arc::strong_count(&runtime),
            1,
            "{addr}: runtime still shared"
        );
        std::net::TcpListener::bind(bound)
            .unwrap_or_else(|e| panic!("{addr}: port {} still bound: {e}", bound.port()));
    }
}
