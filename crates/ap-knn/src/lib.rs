//! # ap-knn — kNN similarity search automata for the Automata Processor
//!
//! This crate is the reproduction of the primary contribution of *"Similarity Search
//! on Automata Processors"* (Lee et al., IPDPS 2017): a nondeterministic-finite-
//! automata design that answers k-nearest-neighbor queries in Hamming space entirely
//! inside the AP fabric, using a **temporally encoded sort** so that both the
//! distance computation and the top-k selection finish in `O(d)` symbol cycles per
//! query (instead of `O(n·d)` distance work plus `O(n log n)` sorting on a
//! von-Neumann host).
//!
//! The building blocks mirror the paper's Section III:
//!
//! * [`design`] — the symbol alphabet and layout parameters shared by the stream
//!   encoder and the macro builders;
//! * [`stream`] — the query symbol stream: `SOF · q₀…q_{d−1} · filler^(d+D+1) · EOF`
//!   per query, plus the offset ↔ Hamming-distance arithmetic of the temporal sort;
//! * [`macros`] — the *Hamming macro* (guard state, star/match state ladder,
//!   collector reduction tree) and *sorting macro* (inverted-Hamming-distance
//!   counter, sort states, EOF reset, reporting state) for a single encoded vector;
//! * [`builder`] — composition of one NFA per dataset vector into a board-level
//!   automata network;
//! * [`decode`] — turning reporting-state activations back into per-query sorted
//!   neighbor lists;
//! * [`capacity`] — how many vectors fit per board configuration (both a
//!   first-principles placement estimate and the paper-calibrated figures);
//! * [`engine`] — the end-to-end engine: dataset partitioning, partial
//!   reconfiguration across board images, cycle-accurate or analytical execution,
//!   host-side merge of partial results;
//! * [`indexed`] — spatial-indexing front ends (kd-tree / k-means / LSH) with the
//!   index traversal on the host and the bucket scan on the AP (§III-D);
//! * [`packing`] — the vector-packing optimization (§VI-A);
//! * [`multiplex`] — symbol-stream multiplexing of up to 7 parallel queries (§VI-B);
//! * [`reduction`] — statistical activation reduction (§VI-C);
//! * [`extensions`] — the architectural extensions of §VII (counter increment,
//!   dynamic thresholds, STE decomposition) and their analytical gain models;
//! * [`jaccard`] — the Jaccard-similarity variant of the macro (§II-C), reusing the
//!   temporal sort to rank by intersection size;
//! * [`scheduler`] — host-side scheduling: multi-board parallel execution and the
//!   pipelined (double-buffered) reconfiguration model;
//! * [`prepared`] — the amortized prepare/run lifecycle: partition once, build and
//!   compile every board image once, stream many query batches;
//! * [`live`] — mutable corpora over the prepared lifecycle: an immutable
//!   compiled base plus append-only delta partitions, tombstone filtering at
//!   the top-k merge, epoch/generation snapshots, and background compaction;
//! * [`wal`] — durability for live corpora: a CRC-checksummed group-commit
//!   write-ahead log, checkpoint images, crash recovery with torn-tail
//!   truncation, and a deterministic crash-fault-injection harness;
//! * [`plan`] — the frontier-aware auto execution planner (cycle-accurate vs
//!   behavioural from fabric size × stream length, with the fitted cost table in
//!   its module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod capacity;
pub mod decode;
pub mod design;
pub mod engine;
pub mod extensions;
pub mod indexed;
pub mod jaccard;
pub mod lanes;
pub mod live;
pub mod macros;
pub mod multiplex;
pub mod packing;
pub mod plan;
pub mod prepared;
pub mod reduction;
pub mod scheduler;
pub mod stream;
pub mod wal;

pub use binvec::{ExecutionPreference, QueryOptions, SearchError};
pub use builder::PartitionNetwork;
pub use capacity::BoardCapacity;
pub use decode::decode_reports;
pub use design::{KnnDesign, SymbolAlphabet};
pub use engine::{ApKnnEngine, ApRunStats, ExecutionMode};
pub use jaccard::{JaccardNeighbor, JaccardSearcher};
pub use lanes::encode_lane_planes_into;
pub use live::{LiveConfig, LiveEngine, LiveStatus};
pub use plan::{AutoPlanner, ExecutionPlanner};
pub use prepared::{PoolStats, PreparedEngine};
pub use scheduler::{ParallelApScheduler, PipelineModel, ScheduleStats};
pub use stream::StreamLayout;
pub use wal::{FaultPlan, RestoreReport, WalConfig, WalError, WalGauges};
