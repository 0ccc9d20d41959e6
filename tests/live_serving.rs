//! Live-corpus serving integration: mutations travel the full stack — client
//! frame → server → admission queue → live engine — and their effects are
//! immediately visible to subsequent queries, never masked by the result
//! cache. Also pins the client's timeout behavior against a stalled server.

use ap_knn::live::{LiveConfig, LiveEngine};
use ap_knn::wal::WalConfig;
use ap_knn::{ApKnnEngine, KnnDesign};
use ap_serve::net::{ApClient, ApServer, NetError};
use ap_serve::{LiveBackend, QueryOptions, RuntimeConfig, SearchError, ServiceRuntime};
use binvec::generate::{uniform_dataset, uniform_queries};
use binvec::MutationOp;
use std::io::Read;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIMS: usize = 16;

fn live_runtime(n: usize, cache_capacity: usize) -> Arc<ServiceRuntime> {
    let data = uniform_dataset(n, DIMS, 710);
    let backend = LiveBackend::try_new(
        ApKnnEngine::new(KnnDesign::new(DIMS)),
        &data,
        LiveConfig::default(),
    )
    .expect("live backend");
    Arc::new(
        ServiceRuntime::try_shared(
            RuntimeConfig::default()
                .with_workers(2)
                .with_batch_size(4)
                .with_cache_capacity(cache_capacity)
                .with_options(QueryOptions::top(3)),
            Arc::new(backend),
        )
        .expect("runtime"),
    )
}

#[test]
fn mutations_over_loopback_are_acked_and_visible_to_queries() {
    let runtime = live_runtime(20, 64);
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
    let mut client = ApClient::connect(server.local_addr()).expect("connect");

    let options = QueryOptions::top(3);
    let query = uniform_queries(1, DIMS, 711).pop().unwrap();

    // Prime the cache with a pre-mutation answer.
    let before = client.search(query.clone(), options).expect("first search");
    assert_ne!(before[0].distance, 0, "query is not in the base corpus");

    // Insert the query itself over the wire; the ack carries the assigned
    // stable id and the generation at which it became visible.
    let ack = client.insert(query.clone(), options).expect("insert");
    assert_eq!(ack.op, MutationOp::Insert);
    assert_eq!(ack.id, 20);
    assert_eq!(ack.generation, 1);

    // The regression this suite pins: the second search must see the insert
    // (exact match at distance 0), not the cached pre-mutation neighbors.
    let after = client
        .search(query.clone(), options)
        .expect("second search");
    assert_eq!(after[0].id, 20);
    assert_eq!(after[0].distance, 0);

    // Delete it again and confirm it disappears.
    let ack = client.delete(20, options).expect("delete");
    assert_eq!(ack.op, MutationOp::Delete);
    assert_eq!(ack.generation, 2);
    let gone = client.search(query, options).expect("third search");
    assert!(gone.iter().all(|n| n.id != 20));

    // The stats frame surfaces the mutation telemetry remotely.
    let stats = client.stats().expect("stats").metrics;
    assert_eq!(stats.count("live.generation"), Some(2));
    assert_eq!(stats.count("live.tombstones"), Some(1));
    assert_eq!(stats.count("mutations.submitted"), Some(2));
    assert_eq!(stats.count("mutations.applied"), Some(2));
    assert_eq!(stats.count("mutations.failed"), Some(0));
    assert!(
        stats.latency_ms("mutations.staleness").is_some(),
        "staleness percentiles travel once a mutation applied"
    );
    assert_eq!(stats.get("wal.records"), None, "an in-memory corpus");
    server.shutdown();
}

#[test]
fn pipelined_mutations_resolve_out_of_order_by_correlation() {
    let runtime = live_runtime(10, 0);
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
    let mut client = ApClient::connect(server.local_addr()).expect("connect");
    let options = QueryOptions::top(2);

    let vectors = uniform_queries(4, DIMS, 712);
    let correlations: Vec<u64> = vectors
        .iter()
        .map(|v| client.submit_insert(v.clone(), options).expect("submit"))
        .collect();
    // Collect acks in reverse submission order: wait_ack must stash frames
    // for other correlations while hunting each target.
    let mut ids = Vec::new();
    for correlation in correlations.into_iter().rev() {
        ids.push(client.wait_ack(correlation).expect("ack").id);
    }
    ids.sort_unstable();
    assert_eq!(ids, vec![10, 11, 12, 13]);
    server.shutdown();
}

#[test]
fn frozen_backend_refuses_wire_mutations_with_a_typed_error() {
    let data = uniform_dataset(10, DIMS, 713);
    let runtime = Arc::new(
        ServiceRuntime::try_new(
            RuntimeConfig::default()
                .with_workers(1)
                .with_options(QueryOptions::top(2)),
            move |_| {
                Ok(Box::new(baselines::LinearScan::new(data.clone()))
                    as Box<dyn ap_serve::SimilarityBackend>)
            },
        )
        .unwrap(),
    );
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).unwrap();
    let mut client = ApClient::connect(server.local_addr()).expect("connect");
    let vector = uniform_queries(1, DIMS, 714).pop().unwrap();
    match client.insert(vector, QueryOptions::top(2)) {
        Err(NetError::Query(SearchError::Unsupported { .. })) => {}
        other => panic!("expected a typed Unsupported refusal, got {other:?}"),
    }
    // The connection survives the refusal: a normal query still works.
    let query = uniform_queries(1, DIMS, 715).pop().unwrap();
    assert_eq!(client.search(query, QueryOptions::top(2)).unwrap().len(), 2);
    server.shutdown();
}

#[test]
fn a_runtime_over_a_restored_corpus_reports_the_restore_before_any_mutation() {
    // The regression: the live gauges used to be copied into the stats only
    // after a successful mutation, so a server restarted from its WAL said
    // "generation 0, replayed 0" until the first insert arrived.
    let dir = std::env::temp_dir().join(format!("ap-live-serving-restore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = || ApKnnEngine::new(KnnDesign::new(DIMS));
    let config = || LiveConfig::default().with_background(false);
    let wal = || WalConfig::default().with_checkpoint_every(None);

    let data = uniform_dataset(12, DIMS, 720);
    let live = LiveEngine::durable(engine(), &data, config(), wal(), &dir).expect("durable");
    for vector in uniform_queries(3, DIMS, 721) {
        live.insert(&vector).expect("acked insert");
    }
    live.delete(0).expect("acked delete");
    drop(live);

    let (restored, report) = LiveEngine::restore(engine(), config(), wal(), &dir).expect("restore");
    assert_eq!(report.replayed, 4);
    let runtime = ServiceRuntime::try_shared(
        RuntimeConfig::default().with_workers(0),
        Arc::new(LiveBackend::from_engine(Arc::new(restored))),
    )
    .expect("runtime");

    let metrics = runtime.stats().metrics();
    assert_eq!(metrics.count("mutations.submitted"), Some(0));
    assert_eq!(metrics.count("live.generation"), Some(4));
    assert_eq!(metrics.count("wal.replayed"), Some(4));
    assert_eq!(metrics.count("wal.truncated_bytes"), Some(0));
    assert!(runtime.stats().report().contains("replayed 4"));
    drop(runtime);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_runtime_over_a_restored_corpus_caches_before_any_mutation() {
    // The regression: the result cache started at generation 0 while the
    // restored corpus stood at 4, so every offer was refused as stale and
    // the cache stayed cold until the first mutation.
    let dir = std::env::temp_dir().join(format!("ap-live-serving-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = || ApKnnEngine::new(KnnDesign::new(DIMS));
    let config = || LiveConfig::default().with_background(false);
    let wal = || WalConfig::default().with_checkpoint_every(None);

    let data = uniform_dataset(12, DIMS, 722);
    let live = LiveEngine::durable(engine(), &data, config(), wal(), &dir).expect("durable");
    for vector in uniform_queries(3, DIMS, 723) {
        live.insert(&vector).expect("acked insert");
    }
    live.delete(1).expect("acked delete");
    drop(live);

    let (restored, _) = LiveEngine::restore(engine(), config(), wal(), &dir).expect("restore");
    let runtime = ServiceRuntime::try_shared(
        RuntimeConfig::default()
            .with_workers(0)
            .with_cache_capacity(16)
            .with_options(QueryOptions::top(3)),
        Arc::new(LiveBackend::from_engine(Arc::new(restored))),
    )
    .expect("runtime");

    let query = uniform_queries(1, DIMS, 724).pop().unwrap();
    let first = runtime.try_submit(query.clone()).expect("first submit");
    runtime.poll();
    let first = first.wait().expect("first answer");
    let second = runtime.try_submit(query).expect("second submit");
    runtime.poll();
    let second = second.wait().expect("second answer");
    assert_eq!(first.neighbors, second.neighbors);

    let metrics = runtime.stats().metrics();
    assert_eq!(metrics.count("mutations.submitted"), Some(0));
    assert_eq!(metrics.count("cache.misses"), Some(1));
    assert_eq!(metrics.count("cache.hits"), Some(1));
    drop(runtime);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_server_surfaces_as_a_typed_timeout_not_a_hang() {
    // A listener that accepts and then never answers: the old client blocked
    // in read() forever; the timeout-bounded client must fail typed, fast.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        // Swallow whatever the client writes, answer nothing.
        let mut sink = [0u8; 1024];
        while matches!(socket.read(&mut sink), Ok(n) if n > 0) {}
    });

    let timeout = Duration::from_millis(200);
    let mut client = ApClient::connect_with_timeout(addr, Some(timeout)).expect("connect");
    assert_eq!(client.io_timeout(), Some(timeout));
    let started = Instant::now();
    match client.ping() {
        Err(NetError::Timeout { after }) => assert_eq!(after, timeout),
        other => panic!("expected NetError::Timeout, got {other:?}"),
    }
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(10),
        "timeout must bound the wait, blocked {waited:?}"
    );
    drop(client); // closes the socket; the holder thread sees EOF
    hold.join().unwrap();
}
