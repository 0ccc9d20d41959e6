//! `ap-server` — stand the AP similarity-search service up on a TCP port.
//!
//! Builds a [`ServiceRuntime`] over a generated Hamming-space corpus, binds
//! the [`ApServer`] network front door, prints the listening address, and
//! serves until stdin closes (or a `quit` line arrives) — at which point it
//! drains in-flight queries, shuts down gracefully, and prints the final
//! statistics report.
//!
//! ```text
//! cargo run --release --bin ap-server -- --addr 127.0.0.1:7001 \
//!     --workers 4 --vectors 4096 --dims 64 --backend behavioral
//! ```
//!
//! Talk to it with [`ApClient`] (see `examples/network_serving.rs`); `apbench`
//! (`benchmark/`) measures it end to end.

use ap_similarity::prelude::*;

struct Args {
    addr: String,
    workers: usize,
    vectors: usize,
    dims: usize,
    seed: u64,
    queue: usize,
    cache: usize,
    k: usize,
    backend: BackendKind,
    /// Durability directory for the live backend: restore from it when it
    /// already holds a WAL, create a fresh durable corpus there otherwise.
    data_dir: Option<std::path::PathBuf>,
    flush_batch: usize,
    flush_interval_us: u64,
    checkpoint_every: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum BackendKind {
    /// Behavioral AP engine — fast, result-exact.
    Behavioral,
    /// Cycle-accurate prepared AP engine — the paper's timing model.
    CycleAccurate,
    /// Plain CPU linear scan, for comparison.
    Linear,
    /// Live mutable corpus: behavioral AP engine behind a [`LiveBackend`],
    /// accepting `Insert`/`Delete` frames alongside queries.
    Live,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7001".to_string(),
            workers: 4,
            vectors: 4096,
            dims: 64,
            seed: 42,
            queue: 4096,
            cache: 1024,
            k: 10,
            backend: BackendKind::Behavioral,
            data_dir: None,
            flush_batch: 64,
            flush_interval_us: 0,
            checkpoint_every: 4096,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--data-dir" => args.data_dir = Some(value("--data-dir")?.into()),
            "--flush-batch" => args.flush_batch = parse(&value("--flush-batch")?)?,
            "--flush-interval-us" => {
                args.flush_interval_us = parse(&value("--flush-interval-us")?)?
            }
            "--checkpoint-every" => args.checkpoint_every = parse(&value("--checkpoint-every")?)?,
            "--workers" => args.workers = parse(&value("--workers")?)?,
            "--vectors" => args.vectors = parse(&value("--vectors")?)?,
            "--dims" => args.dims = parse(&value("--dims")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--queue" => args.queue = parse(&value("--queue")?)?,
            "--cache" => args.cache = parse(&value("--cache")?)?,
            "--k" => args.k = parse(&value("--k")?)?,
            "--backend" => {
                args.backend = match value("--backend")?.as_str() {
                    "behavioral" => BackendKind::Behavioral,
                    "cycle" | "cycle-accurate" => BackendKind::CycleAccurate,
                    "linear" => BackendKind::Linear,
                    "live" => BackendKind::Live,
                    other => return Err(format!("unknown backend '{other}'")),
                }
            }
            "--help" | "-h" => {
                println!(
                    "ap-server: TCP front door for the AP similarity-search service\n\n\
                     \t--addr HOST:PORT   listen address (default 127.0.0.1:7001; port 0 = ephemeral)\n\
                     \t--workers N        runtime worker threads, at least 1 (default 4)\n\
                     \t--vectors N        corpus size (default 4096)\n\
                     \t--dims N           vector width in bits (default 64)\n\
                     \t--seed N           corpus RNG seed (default 42)\n\
                     \t--queue N          admission queue capacity (default 4096)\n\
                     \t--cache N          result cache capacity, 0 disables (default 1024)\n\
                     \t--k N              default neighbors per query (default 10)\n\
                     \t--backend KIND     behavioral | cycle | linear | live (default behavioral)\n\
                     \t                   'live' serves a mutable corpus: clients may Insert/Delete\n\
                     \t--data-dir PATH    durability directory (live backend only): restore the\n\
                     \t                   corpus from PATH when a WAL exists there, otherwise\n\
                     \t                   create one; acks then imply the mutation is fsynced\n\
                     \t--flush-batch N    WAL group-commit batch: records one fsync may cover (default 64)\n\
                     \t--flush-interval-us N  WAL group-commit window in microseconds (default 0)\n\
                     \t--checkpoint-every N   checkpoint after N WAL records, 0 disables (default 4096)\n\n\
                     The server runs until stdin closes or a 'quit' line arrives."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if args.data_dir.is_some() && args.backend != BackendKind::Live {
        return Err("--data-dir requires --backend live".to_string());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number '{s}'"))
}

fn build_runtime(args: &Args) -> Result<ServiceRuntime, SearchError> {
    let data = binvec::generate::uniform_dataset(args.vectors, args.dims, args.seed);
    let config = RuntimeConfig::default()
        .with_workers(args.workers)
        .with_queue_capacity(args.queue)
        .with_cache_capacity(args.cache)
        .with_options(QueryOptions::top(args.k));
    let dims = args.dims;
    let backend = args.backend;
    if backend == BackendKind::Live {
        // One shared engine for all workers: mutations must be visible to
        // every dispatch, so the workers cannot each own a private corpus.
        let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::Behavioral);
        let live = match &args.data_dir {
            None => LiveBackend::try_new(engine, &data, LiveConfig::default())?,
            Some(dir) => {
                let wal_config = WalConfig::default()
                    .with_flush_batch(args.flush_batch)
                    .with_flush_interval(std::time::Duration::from_micros(args.flush_interval_us))
                    .with_checkpoint_every(
                        (args.checkpoint_every > 0).then_some(args.checkpoint_every),
                    );
                let live = if LiveEngine::durable_exists(dir) {
                    let (live, report) =
                        LiveEngine::restore(engine, LiveConfig::default(), wal_config, dir)?;
                    println!(
                        "restored corpus from {}: checkpoint seq {} ({} vectors), \
                         replayed {} WAL records{}",
                        dir.display(),
                        report.checkpoint_seq,
                        report.checkpoint_vectors,
                        report.replayed,
                        if report.torn {
                            format!(" (truncated {} torn bytes)", report.truncated_bytes)
                        } else {
                            String::new()
                        },
                    );
                    live
                } else {
                    println!("creating durable corpus at {}", dir.display());
                    LiveEngine::durable(engine, &data, LiveConfig::default(), wal_config, dir)?
                };
                LiveBackend::from_engine(std::sync::Arc::new(live))
            }
        };
        return ServiceRuntime::try_shared(config, std::sync::Arc::new(live));
    }
    ServiceRuntime::try_new(config, move |_| {
        Ok(match backend {
            BackendKind::Linear => {
                Box::new(LinearScan::new(data.clone())) as Box<dyn SimilarityBackend>
            }
            BackendKind::Behavioral => {
                let engine = ApKnnEngine::new(KnnDesign::new(dims))
                    .with_mode(ExecutionMode::Behavioral)
                    .with_parallelism(1);
                Box::new(ApEngineBackend::try_new(engine, data.clone())?)
            }
            BackendKind::CycleAccurate => {
                let engine = ApKnnEngine::new(KnnDesign::new(dims))
                    .with_mode(ExecutionMode::CycleAccurate)
                    .with_parallelism(1);
                let backend = ApEngineBackend::try_new(engine, data.clone())?;
                backend.prepared().compile()?;
                Box::new(backend)
            }
            BackendKind::Live => unreachable!("handled by the shared-backend path above"),
        })
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ap-server: {message}");
            std::process::exit(2);
        }
    };

    let runtime = match build_runtime(&args) {
        Ok(runtime) => std::sync::Arc::new(runtime),
        Err(error) => {
            eprintln!("ap-server: failed to build the runtime: {error}");
            std::process::exit(1);
        }
    };
    println!(
        "backend '{}': {} x {}-bit vectors, {} workers, queue {}, cache {}",
        runtime.backend_name(),
        args.vectors,
        args.dims,
        runtime.worker_count(),
        args.queue,
        args.cache,
    );

    let server = match ApServer::bind(args.addr.as_str(), std::sync::Arc::clone(&runtime)) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("ap-server: failed to bind {}: {error}", args.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    println!("serving until stdin closes (type 'quit' to stop)");

    // Serve until the operator hangs up: stdin EOF or a 'quit' line. Running
    // under a pipe/daemon manager, closing the pipe is the stop signal.
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    println!(
        "shutting down ({} connections served) — draining in-flight queries",
        server.connections_accepted()
    );
    let stats = server.shutdown();
    println!("{}", stats.report());
    // The runtime outlives the front door by design; stop it too on exit.
    if let Ok(runtime) = std::sync::Arc::try_unwrap(runtime) {
        runtime.shutdown();
    }
}
