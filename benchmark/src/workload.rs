//! The four workloads: their shapes, their seeded inputs, and the served
//! stack (`ApServer` → `ServiceRuntime` → engine) each one runs against.

use ap_knn::capacity::CapacityModel;
use ap_knn::live::{LiveConfig, LiveEngine};
use ap_knn::wal::WalConfig;
use ap_knn::{ApKnnEngine, BoardCapacity, ExecutionMode, KnnDesign, LiveStatus, PreparedEngine};
use ap_serve::{
    ApEngineBackend, ApServer, BackendBatch, LiveBackend, RuntimeConfig, ServiceRuntime,
    ServiceStats, SimilarityBackend,
};
use binvec::generate::{uniform_dataset, uniform_queries};
use binvec::{
    BinaryDataset, BinaryVector, ExecutionPreference, MutAck, Mutation, QueryOptions, SearchError,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Neighbors requested by every query of every workload.
pub const K: usize = 10;

/// Mutations per second the `live_churn` mutator is paced at. Unpaced, a
/// window-16 mutator reached 8.1 k mutations/s and starved queries to
/// 28 q/s: that load measures the generator, not the program.
pub const MUTATION_RATE: u32 = 200;

/// Mutations the paced mutator keeps in flight at most.
pub const MUTATION_WINDOW: usize = 16;

/// Cores the load generator and the engine fan-out may use. Read once, at
/// the first call, so that pinning a single-chain workload to one CPU later
/// does not change what the record says the machine has.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// One workload's shape. Shapes are fixed: a run changes only the seed and
/// the measuring time.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The workload's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Corpus cardinality.
    pub vectors: usize,
    /// Vector dimensionality.
    pub dims: usize,
    /// Vectors per board image (corpus ÷ this = partitions).
    pub vectors_per_board: usize,
    /// Execution preference every query carries.
    pub execution: ExecutionPreference,
    /// Runtime worker threads.
    pub workers: usize,
    /// Scoped threads one engine batch may fan its board images over.
    pub engine_parallelism: usize,
    /// Result-cache entries (0 = off).
    pub cache: usize,
    /// Queries per dispatched batch, at most.
    pub batch_size: usize,
    /// Queries the one client connection keeps in flight.
    pub in_flight: usize,
    /// Batch width the runtime actually dispatches under this load; the leaf
    /// rungs of the traced ladder replay at this width.
    pub dispatched_width: usize,
    /// Distinct queries the client cycles through.
    pub query_pool: usize,
    /// Whether the corpus is a durable `LiveEngine` mutated beside the reads.
    pub live: bool,
    /// Whether a request is one chain of thread hand-offs with nothing to
    /// overlap (one closed-loop client, one worker, no engine fan-out, no
    /// mutator). Such a workload runs on one CPU: see [`crate::affinity`].
    pub single_chain: bool,
}

/// The workload names, in the order `apbench run` executes them.
pub const NAMES: [&str; 4] = ["rtt_scalar", "pipelined_lanes", "wire_bound", "live_churn"];

/// The spec called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "rtt_scalar",
        vectors: 512,
        dims: 64,
        vectors_per_board: 128,
        execution: ExecutionPreference::CycleAccurate,
        workers: 1,
        engine_parallelism: 1,
        cache: 0,
        batch_size: RuntimeConfig::default().batch_size,
        in_flight: 1,
        dispatched_width: 1,
        query_pool: 1024,
        live: false,
        single_chain: true,
    };
    match name {
        "rtt_scalar" => Some(base),
        "pipelined_lanes" => Some(Spec {
            name: "pipelined_lanes",
            engine_parallelism: nproc().min(2),
            batch_size: 64,
            in_flight: 128,
            dispatched_width: 64,
            query_pool: 4096,
            single_chain: false,
            ..base
        }),
        "wire_bound" => Some(Spec {
            name: "wire_bound",
            vectors: 16384,
            dims: 128,
            vectors_per_board: 1024,
            execution: ExecutionPreference::Behavioral,
            query_pool: 4096,
            ..base
        }),
        "live_churn" => Some(Spec {
            name: "live_churn",
            workers: 2,
            cache: 256,
            query_pool: 64,
            live: true,
            single_chain: false,
            ..base
        }),
        _ => None,
    }
}

impl Spec {
    /// The options every query of this workload carries.
    pub fn options(&self) -> QueryOptions {
        QueryOptions::top(K).execution(self.execution)
    }

    /// The engine configuration behind the stack (and behind a restore).
    pub fn engine(&self) -> ApKnnEngine {
        ApKnnEngine::new(KnnDesign::new(self.dims))
            .with_mode(ExecutionMode::CycleAccurate)
            .with_parallelism(self.engine_parallelism)
            .with_strict_analysis(true)
            .with_capacity(BoardCapacity {
                vectors_per_board: self.vectors_per_board,
                model: CapacityModel::PaperCalibrated,
            })
    }

    /// The live-corpus configuration of `live_churn`.
    pub fn live_config(&self) -> LiveConfig {
        LiveConfig::default()
            .with_compact_threshold(64)
            .with_compile_deltas(true)
    }

    /// Whether serving this workload ever touches a compiled board image.
    pub fn cycle_accurate(&self) -> bool {
        self.execution != ExecutionPreference::Behavioral
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig::default()
            .with_workers(self.workers)
            .with_queue_capacity(4096)
            .with_batch_size(self.batch_size)
            .with_cache_capacity(self.cache)
            .with_options(self.options())
    }
}

/// Everything a run feeds the server, derived from the seed alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// The corpus the stack is built over.
    pub corpus: BinaryDataset,
    /// The pool of queries the client cycles through.
    pub queries: Vec<BinaryVector>,
    /// Vectors the `live_churn` mutator inserts, in order (empty elsewhere).
    pub inserts: Vec<BinaryVector>,
}

/// One independent generator stream per input, all derived from `seed`.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream)
}

/// Generates the workload's inputs from `seed`.
pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    Inputs {
        corpus: uniform_dataset(spec.vectors, spec.dims, stream_seed(seed, 1)),
        queries: uniform_queries(spec.query_pool, spec.dims, stream_seed(seed, 2)),
        inserts: if spec.live {
            uniform_queries(4096, spec.dims, stream_seed(seed, 3))
        } else {
            Vec::new()
        },
    }
}

/// A 64-bit key identifying a query vector, to match a backend call to the
/// request that caused it.
pub fn query_key(v: &BinaryVector) -> u64 {
    v.words().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
    })
}

/// One timed call into the backend, recorded by a [`Tap`].
#[derive(Clone, Debug)]
pub struct TapCall {
    /// When the runtime worker entered the backend.
    pub start: Instant,
    /// When the backend returned.
    pub end: Instant,
    /// [`query_key`] of every query in the batch (empty for mutations).
    pub keys: Vec<u64>,
}

/// Records a span around every batch the runtime dispatches to the backend.
/// Only the traced run installs it: the wrapper lives in the benchmark, not
/// in `ap-serve`, and the untraced run measures the stack without it.
#[derive(Debug, Default)]
pub struct Tap {
    calls: Mutex<Vec<TapCall>>,
}

impl Tap {
    /// Takes every call recorded so far.
    pub fn drain(&self) -> Vec<TapCall> {
        std::mem::take(&mut *self.calls.lock().expect("tap poisoned"))
    }
}

struct Tapped {
    inner: Box<dyn SimilarityBackend>,
    tap: Arc<Tap>,
}

impl SimilarityBackend for Tapped {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }

    fn serve_batch(&self, queries: &[BinaryVector], k: usize) -> BackendBatch {
        self.inner.serve_batch(queries, k)
    }

    fn try_serve_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<BackendBatch, SearchError> {
        let start = Instant::now();
        let result = self.inner.try_serve_batch(queries, options);
        let end = Instant::now();
        let keys = queries.iter().map(query_key).collect();
        self.tap
            .calls
            .lock()
            .expect("tap poisoned")
            .push(TapCall { start, end, keys });
        result
    }

    fn apply_mutation(&self, mutation: &Mutation) -> Result<MutAck, SearchError> {
        self.inner.apply_mutation(mutation)
    }

    fn apply_mutations(&self, mutations: &[&Mutation]) -> Vec<Result<MutAck, SearchError>> {
        self.inner.apply_mutations(mutations)
    }

    fn live_status(&self) -> Option<LiveStatus> {
        self.inner.live_status()
    }
}

/// The benchmark's own directory (`benchmark/`), fixed when it was built.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`: records, traces and the WAL directories of live runs.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A directory holding one durable corpus; removed when dropped.
#[derive(Debug)]
pub struct WalDir(PathBuf);

impl WalDir {
    /// A fresh, not yet existing directory under `benchmark/out/tmp/`.
    pub fn fresh() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let tmp = out_dir().join("tmp");
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = tmp.join(format!("wal-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A served stack: TCP front door, runtime, engine. Fields drop in this
/// order, so the server's threads are joined before the runtime's, the engine
/// goes after both, and the durable directory is removed last.
pub struct Stack {
    server: ApServer,
    /// The runtime behind the server, for the in-process rung and its stats.
    pub runtime: Arc<ServiceRuntime>,
    /// Where the server listens.
    pub addr: SocketAddr,
    /// The prepared engine of a static workload (shares the served one's
    /// scratch pool), for `pool_stats`.
    pub prepared: Option<PreparedEngine>,
    /// The live engine of `live_churn`.
    pub live: Option<Arc<LiveEngine>>,
    /// The durable corpus's directory.
    pub wal_dir: Option<WalDir>,
}

impl Stack {
    /// Builds the stack over `corpus`: prepare, compile (with strict
    /// analysis) when the workload runs cycle-accurate, open the WAL when it
    /// is live, start the runtime, bind the server.
    pub fn build(
        spec: &Spec,
        corpus: &BinaryDataset,
        tap: Option<&Arc<Tap>>,
    ) -> Result<Self, String> {
        let engine = spec.engine();
        let mut prepared = None;
        let mut live = None;
        let mut wal_dir = None;
        let backend: Box<dyn Fn() -> Box<dyn SimilarityBackend>> = if spec.live {
            let dir = WalDir::fresh()?;
            let engine = LiveEngine::durable(
                engine,
                corpus,
                spec.live_config(),
                WalConfig::default(),
                dir.path(),
            )
            .map_err(|e| format!("durable live engine: {e}"))?;
            let engine = Arc::new(engine);
            live = Some(Arc::clone(&engine));
            wal_dir = Some(dir);
            let backend = LiveBackend::from_engine(engine);
            Box::new(move || Box::new(backend.clone()))
        } else {
            let backend = ApEngineBackend::try_new(engine, corpus.clone())
                .map_err(|e| format!("prepare: {e}"))?;
            if spec.cycle_accurate() {
                backend
                    .prepared()
                    .compile()
                    .map_err(|e| format!("compile: {e}"))?;
            }
            prepared = Some(backend.prepared().clone());
            Box::new(move || Box::new(backend.clone()))
        };
        let runtime = ServiceRuntime::try_new(spec.runtime_config(), |_| {
            let backend = backend();
            Ok(match tap {
                Some(tap) => Box::new(Tapped {
                    inner: backend,
                    tap: Arc::clone(tap),
                }),
                None => backend,
            })
        })
        .map_err(|e| format!("runtime: {e}"))?;
        drop(backend);
        let runtime = Arc::new(runtime);
        let server = ApServer::bind("127.0.0.1:0", Arc::clone(&runtime))
            .map_err(|e| format!("bind loopback: {e}"))?;
        let addr = server.local_addr();
        Ok(Self {
            server,
            runtime,
            addr,
            prepared,
            live,
            wal_dir,
        })
    }

    /// Stops the server and the runtime (draining what is in flight), drops
    /// the engine, and returns the final statistics together with the
    /// durable corpus's directory, which the caller now owns.
    pub fn shutdown(self) -> (ServiceStats, Option<WalDir>) {
        let Self {
            server,
            runtime,
            prepared,
            live,
            wal_dir,
            ..
        } = self;
        let stats = server.shutdown();
        drop((runtime, prepared, live));
        (stats, wal_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for name in NAMES {
            let spec = spec(name).expect("named workload");
            // wire_bound's corpus is 16384 x 128; a slice of the contract is
            // enough here, and the generators are the same.
            let small = Spec {
                vectors: spec.vectors.min(256),
                query_pool: 32,
                ..spec
            };
            let a = inputs(&small, 7);
            assert_eq!(a, inputs(&small, 7), "{name}: seed 7 twice");
            let b = inputs(&small, 8);
            assert_ne!(a.corpus, b.corpus, "{name}: another seed, another corpus");
            assert_ne!(a.queries, b.queries, "{name}: another seed, other queries");
            assert_eq!(a.inserts.is_empty(), !spec.live);
            assert_eq!(a.corpus.len(), small.vectors);
            assert_eq!(a.queries.len(), 32);
        }
    }

    #[test]
    fn input_streams_are_independent() {
        let spec = Spec {
            vectors: 64,
            query_pool: 64,
            ..spec("live_churn").expect("spec")
        };
        let inputs = inputs(&spec, 1);
        let corpus: Vec<BinaryVector> = inputs.corpus.iter().collect();
        assert_ne!(corpus, inputs.queries);
        assert_ne!(inputs.queries[..], inputs.inserts[..64]);
    }

    #[test]
    fn query_keys_tell_queries_apart() {
        let queries = uniform_queries(512, 64, 3);
        let mut keys: Vec<u64> = queries.iter().map(query_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 512);
        assert_eq!(query_key(&queries[0]), query_key(&queries[0].clone()));
    }

    #[test]
    fn shapes_match_the_issue() {
        let lanes = spec("pipelined_lanes").expect("spec");
        assert_eq!(
            (lanes.batch_size, lanes.in_flight, lanes.dispatched_width),
            (64, 128, 64)
        );
        let wire = spec("wire_bound").expect("spec");
        assert_eq!(wire.vectors / wire.vectors_per_board, 16);
        assert!(!wire.cycle_accurate());
        assert!(spec("live_churn").expect("spec").live);
        assert!(spec("nope").is_none());
    }
}
