//! End-to-end tour of the `ap-serve` serving subsystem.
//!
//! Part 1 builds a corpus, binds one behavioural AP engine to it, stands up a
//! zero-worker `ServiceRuntime` (admission batching and a result cache,
//! driven from this thread with `poll()`, so the run is deterministic),
//! pushes 1 000 single-query submissions through it in waves (with a skewed
//! re-query pattern, as production traffic would have), verifies a sample
//! against the exact scan, and prints the `ServiceStats` report.
//!
//! Part 2 gives the same `ServiceRuntime` four worker threads — worker-owned
//! prepared engines fed by the bounded deadline/priority-aware queue —
//! drives it from four producer threads, demonstrates deadline shedding, and
//! prints its report.
//!
//! Run with: `cargo run --release --example serving`

use ap_similarity::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let dims = 64;
    let k = 10;
    let corpus_size = 2_000;
    let total_queries = 1_000;

    println!("== ap-serve demo ==");
    println!("corpus: {corpus_size} x {dims}-bit vectors, k = {k}");

    // 1+2. The corpus, one behavioural AP engine over it behind the uniform
    //      pipeline builder, handed to the batching runtime front door:
    //      batches of 7 (the §VI-B multiplex width), LRU cache, no worker
    //      thread — this thread polls. Both builders validate up front and
    //      return typed SearchErrors instead of panicking at dispatch time.
    let data = binvec::generate::uniform_dataset(corpus_size, dims, 42);
    let wave = 100;
    let config = RuntimeConfig::default()
        .with_workers(0)
        .with_queue_capacity(wave)
        .with_options(QueryOptions::top(k))
        .with_cache_capacity(512);
    let service = SearchPipeline::over(data.clone())
        .backend(BackendSpec::behavioral())
        .build()
        .expect("valid pipeline configuration")
        .into_runtime(config)
        .expect("valid runtime configuration");
    println!("backend: {}", service.backend_name());

    // 3. Traffic: fresh queries mixed with re-queries of a small hot set, the
    //    skew a production similarity service sees. A wave fills the bounded
    //    queue, one poll serves it; the next wave's re-queries then hit the
    //    cache at admission.
    let fresh = binvec::generate::uniform_queries(total_queries, dims, 43);
    let hot: Vec<BinaryVector> = fresh[..20].to_vec();
    let mut completed = Vec::with_capacity(total_queries);
    let mut handles = Vec::with_capacity(wave);
    for (i, q) in fresh.into_iter().enumerate() {
        // Every third submission re-asks a hot query.
        let query = if i % 3 == 2 {
            hot[i % hot.len()].clone()
        } else {
            q
        };
        handles.push(service.try_submit(query).expect("the wave fits the queue"));
        if handles.len() == wave {
            service.poll();
            completed.extend(handles.drain(..).map(|h| h.wait().expect("served")));
        }
    }
    assert_eq!(completed.len(), total_queries);

    // 4. Spot-check against the exact scan.
    let ground_truth = LinearScan::new(data);
    for c in completed.iter().step_by(97) {
        assert_eq!(
            c.neighbors,
            ground_truth.search(&c.query, k),
            "service result diverged from the exact scan"
        );
    }
    println!("results verified against LinearScan ground truth");

    // 5. The service report.
    let stats = service.stats();
    println!("\n{}", stats.report());
    println!(
        "batch fill {:.1}% | cache hit rate {:.1}%",
        stats.batch_fill_ratio().unwrap_or(0.0) * 100.0,
        stats.cache_hit_rate().unwrap_or(0.0) * 100.0,
    );

    // 6. The concurrent runtime: each worker owns its own prepared engine
    //    (board images partitioned and compiled once per worker), callers
    //    submit from any thread and block on their own ticket.
    println!("\n== ServiceRuntime demo ==");
    let runtime_data = binvec::generate::uniform_dataset(512, dims, 44);
    let producer_queries = binvec::generate::uniform_queries(200, dims, 45);
    let runtime_truth = LinearScan::new(runtime_data.clone());
    let runtime = ServiceRuntime::try_new(
        RuntimeConfig::default()
            .with_workers(4)
            .with_queue_capacity(256)
            .with_cache_capacity(0)
            .with_options(QueryOptions::top(k)),
        move |_| {
            let engine = ApKnnEngine::new(KnnDesign::new(dims))
                .with_mode(ExecutionMode::Behavioral)
                .with_parallelism(1);
            Ok(
                Box::new(ApEngineBackend::try_new(engine, runtime_data.clone())?)
                    as Box<dyn SimilarityBackend>,
            )
        },
    )
    .expect("valid runtime configuration");
    println!(
        "runtime: {} workers over '{}', queue capacity {}",
        runtime.worker_count(),
        runtime.backend_name(),
        runtime.config().queue_capacity,
    );

    let started = Instant::now();
    std::thread::scope(|scope| {
        for chunk in producer_queries.chunks(50) {
            let runtime = &runtime;
            let truth = &runtime_truth;
            scope.spawn(move || {
                for q in chunk {
                    // QueueFull would mean "shed or retry"; at this depth the
                    // closed loop never hits it.
                    let handle = runtime.try_submit(q.clone()).expect("well-formed query");
                    let completed = handle.wait().expect("runtime dispatch");
                    assert_eq!(completed.neighbors, truth.search(q, k));
                }
            });
        }
    });
    println!(
        "4 producers x 50 queries verified against LinearScan in {:.1} ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    // Deadline-aware admission: an expired deadline is failed with a typed
    // error without ever reaching a worker's fabric.
    let doomed = runtime
        .try_submit_with(
            producer_queries[0].clone(),
            &QueryOptions::top(k).by(Deadline::after(Duration::ZERO)),
        )
        .expect("admission mints a ticket");
    match doomed.wait() {
        Err(failure) => assert_eq!(failure.error, SearchError::DeadlineExceeded),
        Ok(_) => unreachable!("an expired deadline cannot be served"),
    }

    let stats = runtime.shutdown();
    println!("{}", stats.report());
    assert_eq!(
        stats.queries_submitted,
        stats.queries_served + stats.failed_queries + stats.deadline_expired,
        "every admitted ticket resolved exactly once"
    );
}
