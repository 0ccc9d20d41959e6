//! Client reconnect/backoff regression: a flaky listener that kills the
//! first N connections must not fail an [`ApClient`] with a [`RetryPolicy`]
//! configured — idempotent operations (ping, stats, search) reconnect,
//! back off, and resubmit under fresh correlation ids — while a client
//! without a policy surfaces the first transport fault unchanged.
//!
//! The flaky listener is a byte-pump proxy in front of a real [`ApServer`]:
//! the first `drop_first` accepted connections are closed immediately (the
//! client sees a reset or a mid-stream EOF); later connections are piped
//! through to the server verbatim.

use ap_knn::{ApKnnEngine, ExecutionMode, KnnDesign};
use ap_serve::net::{ApClient, ApServer, NetError, RetryPolicy};
use ap_serve::{ApEngineBackend, QueryOptions, RuntimeConfig, ServiceRuntime, SimilarityBackend};
use baselines::{LinearScan, SearchIndex};
use binvec::generate::{uniform_dataset, uniform_queries};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const DIMS: usize = 16;

fn server(n: usize, seed: u64) -> (ApServer, Arc<ServiceRuntime>) {
    let data = uniform_dataset(n, DIMS, seed);
    let runtime = Arc::new(
        ServiceRuntime::try_new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_batch_size(4)
                .with_cache_capacity(0)
                .with_options(QueryOptions::top(3)),
            move |_| {
                let engine =
                    ApKnnEngine::new(KnnDesign::new(DIMS)).with_mode(ExecutionMode::Behavioral);
                Ok(Box::new(ApEngineBackend::try_new(engine, data.clone())?)
                    as Box<dyn SimilarityBackend>)
            },
        )
        .expect("runtime"),
    );
    let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime)).expect("bind");
    (server, runtime)
}

/// Binds a proxy that kills its first `drop_first` accepted connections and
/// pipes every later one through to `upstream`. Returns the proxy address.
fn flaky_proxy(upstream: SocketAddr, drop_first: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        let mut accepted = 0usize;
        while let Ok((conn, _)) = listener.accept() {
            accepted += 1;
            if accepted <= drop_first {
                // Dead on arrival: the client observes a reset or EOF on its
                // first read — the retryable fault class under test.
                drop(conn);
                continue;
            }
            let Ok(server_side) = TcpStream::connect(upstream) else {
                continue;
            };
            pump(conn, server_side);
        }
    });
    addr
}

/// Pipes bytes both ways between two sockets on detached threads.
fn pump(client_side: TcpStream, server_side: TcpStream) {
    let (Ok(c2), Ok(s2)) = (client_side.try_clone(), server_side.try_clone()) else {
        return;
    };
    std::thread::spawn(move || {
        let mut from = client_side;
        let mut to = server_side;
        let _ = std::io::copy(&mut from, &mut to);
        let _ = to.shutdown(std::net::Shutdown::Both);
    });
    std::thread::spawn(move || {
        let mut from = s2;
        let mut to = c2;
        let _ = std::io::copy(&mut from, &mut to);
        let _ = to.shutdown(std::net::Shutdown::Both);
    });
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy::default()
        .with_attempts(5)
        .with_initial_backoff(Duration::from_millis(1))
        .with_max_backoff(Duration::from_millis(10))
}

#[test]
fn retrying_client_survives_a_flaky_listener() {
    let (server, _runtime) = server(40, 810);
    let proxy = flaky_proxy(server.local_addr(), 2);

    // The initial connect succeeds (the proxy accepts before dropping), so
    // the fault surfaces on the first operation — and is retried away.
    let mut client = ApClient::connect(proxy).expect("connect");
    client.set_retry(Some(fast_retry()));
    assert_eq!(client.retry(), Some(fast_retry()));

    client
        .ping()
        .expect("ping survives the dropped connections");

    // The connection is healthy now: stats and search work without faults.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.metrics.count("config.workers"), Some(2));
    let query = uniform_queries(1, DIMS, 811).pop().unwrap();
    let neighbors = client
        .search(query.clone(), QueryOptions::top(3))
        .expect("search");
    let expected = LinearScan::new(uniform_dataset(40, DIMS, 810)).search(&query, 3);
    assert_eq!(neighbors, expected);

    drop(server.shutdown());
}

#[test]
fn search_resubmits_through_a_mid_session_drop() {
    // Drop the *second* connection: the client establishes a healthy session
    // first (one search served through proxy connection 1), then that
    // connection is severed and the next search must reconnect and resubmit.
    let (server, _runtime) = server(40, 820);
    let upstream = server.local_addr();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        let mut accepted = 0usize;
        while let Ok((conn, _)) = listener.accept() {
            accepted += 1;
            if accepted == 2 {
                drop(conn);
                continue;
            }
            let Ok(server_side) = TcpStream::connect(upstream) else {
                continue;
            };
            pump(conn, server_side);
        }
    });

    let mut client = ApClient::connect(proxy).expect("connect");
    client.set_retry(Some(fast_retry()));
    let queries = uniform_queries(2, DIMS, 821);
    let direct = LinearScan::new(uniform_dataset(40, DIMS, 820));

    let first = client
        .search(queries[0].clone(), QueryOptions::top(3))
        .expect("first search");
    assert_eq!(first, direct.search(&queries[0], 3));

    // Sever the live session: the proxy's pump threads tear down when their
    // upstream socket does, so shut the client's current connection path by
    // reconnecting through the doomed proxy connection 2, then retrying
    // lands on connection 3.
    client.reconnect().expect("redial through the proxy");
    let second = client
        .search(queries[1].clone(), QueryOptions::top(3))
        .expect("search resubmits past the dropped connection");
    assert_eq!(second, direct.search(&queries[1], 3));

    drop(server.shutdown());
}

#[test]
fn without_a_policy_the_fault_is_surfaced_not_retried() {
    let (server, _runtime) = server(20, 830);
    let proxy = flaky_proxy(server.local_addr(), 1);

    let mut client = ApClient::connect(proxy).expect("connect");
    assert_eq!(client.retry(), None, "retries are strictly opt-in");
    let error = client.ping().expect_err("dead connection must surface");
    match error {
        NetError::Io(_) | NetError::Protocol(_) | NetError::Timeout { .. } => {}
        other => panic!("expected a transport fault, got {other}"),
    }

    drop(server.shutdown());
}

#[test]
fn backoff_doubles_and_caps() {
    let policy = RetryPolicy::default()
        .with_initial_backoff(Duration::from_millis(10))
        .with_max_backoff(Duration::from_millis(35));
    assert_eq!(policy.backoff(1), Duration::from_millis(10));
    assert_eq!(policy.backoff(2), Duration::from_millis(20));
    assert_eq!(policy.backoff(3), Duration::from_millis(35), "capped");
    assert_eq!(policy.backoff(60), Duration::from_millis(35), "no overflow");
}
