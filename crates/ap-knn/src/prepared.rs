//! Prepared (amortized) execution: partition once, build and compile every
//! board image once, then stream any number of query batches.
//!
//! The one-shot engine path re-partitions the dataset and rebuilds + recompiles
//! every [`PartitionNetwork`] on every `try_search_batch` call — exactly the
//! reconfiguration-dominated regime Table IV warns about, paid in host time. A
//! [`PreparedEngine`] is the board-image set of §III-C made explicit: the
//! dataset partitioning, the per-partition automata networks, and the compiled
//! sparse-frontier cores are all constructed once and cached, so a steady
//! stream of batches pays only for encoding the new symbol stream and running
//! it. Board images are compiled lazily on the first cycle-accurate batch
//! (behavioural-only traffic never builds a network at all).
//!
//! [`crate::scheduler::ParallelApScheduler`] runs the same fan-out over a
//! transient image set to model the multi-board parallel schedule.

use crate::builder::PartitionNetwork;
use crate::decode::merge_lane_reports_into;
use crate::design::KnnDesign;
use crate::engine::{ApKnnEngine, ApRunStats, ExecutionMode};
use crate::lanes::encode_lane_planes_into;
use crate::plan::AutoPlanner;
use crate::stream::StreamLayout;
use ap_sim::lanes::{LaneReportEvent, LaneState, LaneStream, MAX_LANES};
use ap_sim::CompiledNetwork;
use binvec::dataset::DatasetPartition;
use binvec::{
    BinaryDataset, BinaryVector, ExecutionPreference, Neighbor, QueryOptions, SearchError, TopK,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cached board configuration: the compiled sparse-frontier core plus the
/// base index that rebases its report codes into global dataset ids.
#[derive(Clone, Debug)]
pub(crate) struct BoardImage {
    pub(crate) base_index: usize,
    pub(crate) compiled: CompiledNetwork,
}

/// Reusable execution scratch for one batch role (the host merge side of a
/// batch, or one fan-out worker): lane-core run state, report sink, encoded
/// lane passes, per-query top-k accumulators, and the behavioural distance
/// buffer. Everything is recycled through the [`ScratchPool`], so a
/// steady-state batch touches no allocator.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Per-query top-k accumulators, re-armed per batch.
    pub(crate) accumulators: Vec<TopK>,
    /// Behavioural-mode per-partition distance buffer.
    pub(crate) distances: Vec<u32>,
    /// Lane-core run state, adapted per board image via
    /// [`CompiledNetwork::recycle_lane_state`]. Created on the first
    /// cycle-accurate run this scratch serves.
    pub(crate) lane_state: Option<LaneState>,
    /// Lane-core report sink reused across images and passes.
    pub(crate) lane_reports: Vec<LaneReportEvent>,
    /// Encoded lane passes for the batch (one per 64-query chunk); streams are
    /// re-encoded in place, so the vector only grows to the widest batch seen.
    pub(crate) lane_streams: Vec<LaneStream>,
}

/// Occupancy statistics of a prepared engine's execution-scratch pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Scratch checkouts served (one host checkout per batch plus one per
    /// cycle-accurate fan-out worker).
    pub checkouts: u64,
    /// Checkouts that created a fresh scratch because the pool was empty.
    /// In steady state this stops growing: every batch runs entirely on
    /// recycled scratch — the zero-allocation hot path.
    pub fresh: u64,
}

impl PoolStats {
    /// Checkouts served from recycled scratch.
    pub fn hits(&self) -> u64 {
        self.checkouts - self.fresh
    }
}

/// A lock-guarded free list of [`BatchScratch`] shared by every batch (and
/// every fan-out worker) of one prepared engine or schedule. Clones of a
/// prepared engine share the pool through its `Arc`.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    idle: Mutex<Vec<BatchScratch>>,
    checkouts: AtomicU64,
    fresh: AtomicU64,
}

impl ScratchPool {
    /// Takes a scratch from the pool, creating one only when it is empty.
    pub(crate) fn checkout(&self) -> BatchScratch {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        match self.idle.lock().expect("scratch pool poisoned").pop() {
            Some(scratch) => scratch,
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                BatchScratch::default()
            }
        }
    }

    /// Returns a scratch (with all its warmed allocations) to the pool.
    pub(crate) fn give_back(&self, scratch: BatchScratch) {
        self.idle
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Checkout/fresh counters.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
        }
    }
}

/// Minimum estimated simulation work (seconds) a fan-out worker must have
/// before spawning it pays: below this, thread spawn + scratch checkout + host
/// merge overhead eats the parallel win (the committed `wide` shape recorded a
/// 0.99× "speedup" for exactly this reason). The estimate is the planner's
/// calibrated cost model, so the gate and the planner can never disagree about
/// what a lane cycle costs.
pub(crate) const MIN_WORKER_FANOUT_S: f64 = 2e-3;

/// Chunk length of the contiguous worker assignment for `count` items over up
/// to `workers` workers: worker `w` owns items `[w·span, (w+1)·span)`. This is
/// the *one* definition of the fan-out shape — the execution path chunks by it
/// and [`crate::scheduler::ScheduleStats`] reports it (via
/// [`contiguous_assignment`]), so the two can never drift. Allocation-free for
/// the pooled hot path.
pub(crate) fn assignment_span(count: usize, workers: usize) -> usize {
    let workers = workers.min(count).max(1);
    count.div_ceil(workers).max(1)
}

/// The per-worker item counts of the contiguous assignment (see
/// [`assignment_span`]).
pub(crate) fn contiguous_assignment(count: usize, workers: usize) -> Vec<usize> {
    let span = assignment_span(count, workers);
    (0..count.div_ceil(span))
        .map(|w| span.min(count - w * span))
        .collect()
}

/// Re-arms `acc` as `queries` fresh top-`k` accumulators, reusing both the
/// outer vector and every selector's heap allocation.
fn arm_accumulators(acc: &mut Vec<TopK>, queries: usize, k: usize) {
    acc.truncate(queries);
    for a in acc.iter_mut() {
        a.reset(k);
    }
    while acc.len() < queries {
        acc.push(TopK::new(k));
    }
}

/// Drains the armed accumulators into the caller-owned `results` (resized to
/// the batch, inner allocations reused), sorted and clipped to `options`.
fn drain_into(accumulators: &mut [TopK], options: &QueryOptions, results: &mut Vec<Vec<Neighbor>>) {
    results.resize_with(accumulators.len(), Vec::new);
    for (acc, neighbors) in accumulators.iter_mut().zip(results.iter_mut()) {
        acc.drain_sorted_into(neighbors);
        options.clip(neighbors);
    }
}

/// The partition + board-image cache behind [`PreparedEngine`] (and the
/// transient one behind [`crate::scheduler::ParallelApScheduler`]).
#[derive(Clone, Debug)]
pub(crate) struct PreparedBoards {
    design: KnnDesign,
    layout: StreamLayout,
    partitions: Vec<DatasetPartition>,
    dataset_len: usize,
    /// Run the `ap-analyze` translation validator over every compiled image.
    strict_analysis: bool,
    /// Compiled board images, built on the first cycle-accurate run.
    images: OnceLock<Result<Vec<BoardImage>, SearchError>>,
    /// Shared execution-scratch pool; clones of a preparation share it.
    pool: Arc<ScratchPool>,
}

impl PreparedBoards {
    /// Partitions `data` for `design` at `vectors_per_board` vectors per image.
    ///
    /// # Errors
    /// [`SearchError::ZeroDims`] for a zero-dimension design and
    /// [`SearchError::DimMismatch`] when the dataset disagrees with it.
    pub(crate) fn new(
        design: KnnDesign,
        data: &BinaryDataset,
        vectors_per_board: usize,
        strict_analysis: bool,
    ) -> Result<Self, SearchError> {
        if design.dims == 0 {
            return Err(SearchError::ZeroDims);
        }
        if data.dims() != design.dims {
            return Err(SearchError::DimMismatch {
                expected: design.dims,
                actual: data.dims(),
            });
        }
        Ok(Self {
            design,
            layout: StreamLayout::for_design(&design),
            partitions: data.partition(vectors_per_board.max(1)),
            dataset_len: data.len(),
            strict_analysis,
            images: OnceLock::new(),
            pool: Arc::new(ScratchPool::default()),
        })
    }

    /// The shared execution-scratch pool.
    pub(crate) fn pool(&self) -> &ScratchPool {
        &self.pool
    }

    pub(crate) fn design(&self) -> &KnnDesign {
        &self.design
    }

    pub(crate) fn layout(&self) -> &StreamLayout {
        &self.layout
    }

    pub(crate) fn partitions(&self) -> &[DatasetPartition] {
        &self.partitions
    }

    pub(crate) fn dataset_len(&self) -> usize {
        self.dataset_len
    }

    /// Fabric elements of the largest board image (partition 0 by
    /// construction) — the planner's fabric-size input.
    pub(crate) fn board_elements(&self) -> usize {
        let vectors = self.partitions.first().map_or(0, |p| p.data.len());
        vectors * (self.design.stes_per_vector() + self.design.counters_per_vector())
    }

    /// Whether the board images have been built and compiled successfully
    /// (a cached compile *failure* does not count as compiled).
    pub(crate) fn is_compiled(&self) -> bool {
        self.images.get().is_some_and(|r| r.is_ok())
    }

    /// Validates one batch against this preparation and returns the length of
    /// its window-per-query symbol stream — what the modeled device streams
    /// per board image, and the space report offsets are addressed in.
    ///
    /// # Errors
    /// [`SearchError::ZeroK`] / [`SearchError::ZeroDistanceBound`] for invalid
    /// options, [`SearchError::DimMismatch`] for mis-sized queries, and
    /// [`SearchError::CapacityExceeded`] for a batch whose stream overflows
    /// the 32-bit report-offset space.
    pub(crate) fn validate_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<u64, SearchError> {
        options.validate()?;
        let dims = self.design.dims;
        for q in queries {
            if q.dims() != dims {
                return Err(SearchError::DimMismatch {
                    expected: dims,
                    actual: q.dims(),
                });
            }
        }
        // Reports address their window by a 32-bit stream offset; a batch whose
        // stream is longer than that cannot be decoded unambiguously.
        let stream_len = self.layout.stream_len(queries.len());
        if stream_len > u64::from(u32::MAX) {
            return Err(SearchError::CapacityExceeded {
                needed: stream_len,
                limit: u64::from(u32::MAX),
            });
        }
        Ok(stream_len)
    }

    /// Clamps a requested fan-out width to the number of workers that each get
    /// at least [`MIN_WORKER_FANOUT_S`] of estimated simulation work for
    /// `lane_cycles_per_image` cycles on every image. Only the engine uses
    /// this; [`crate::scheduler::ParallelApScheduler`] models explicit boards
    /// and keeps its requested worker count.
    pub(crate) fn gated_workers(&self, lane_cycles_per_image: u64, workers: usize) -> usize {
        if workers <= 1 {
            return workers.max(1);
        }
        let total_s = AutoPlanner::measured().estimated_simulation_s(
            self.board_elements(),
            lane_cycles_per_image * self.partitions.len() as u64,
        );
        let useful = (total_s / MIN_WORKER_FANOUT_S) as usize;
        workers.min(useful.max(1))
    }

    /// A pooled host scratch with `queries_len` armed top-`k` accumulators.
    fn checkout_host(&self, queries_len: usize, k: usize) -> BatchScratch {
        let mut host = self.pool.checkout();
        arm_accumulators(&mut host.accumulators, queries_len, k);
        host
    }

    /// The one cycle-accurate batch path, behind both [`PreparedEngine`] and
    /// [`crate::scheduler::ParallelApScheduler`] (so the two stay bit-identical
    /// by construction): encodes the validated batch as lane passes, streams
    /// them through every cached board image over up to `workers` scoped
    /// threads, and drains the merged per-query top-k into `results`. Returns
    /// the report count. A steady-state batch performs no allocation: host and
    /// worker scratch come from (and return to) the shared [`ScratchPool`].
    pub(crate) fn search_lanes_into(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
        workers: usize,
        results: &mut Vec<Vec<Neighbor>>,
    ) -> Result<u64, SearchError> {
        let mut host = self.checkout_host(queries.len(), options.k);
        // An empty batch streams nothing and an empty dataset has no boards:
        // skip execution entirely (and never compile images for it).
        let reports = if queries.is_empty() || self.partitions.is_empty() {
            Ok(0)
        } else {
            self.fan_out_lanes(queries, options.k, workers, &mut host)
        };
        if reports.is_ok() {
            drain_into(&mut host.accumulators, options, results);
        }
        self.pool.give_back(host);
        reports
    }

    /// The behavioural equivalent of [`Self::search_lanes_into`]: every
    /// encoded vector reports once per query, at the offset encoding its
    /// Hamming distance — one batched word-level distance kernel per
    /// (partition, query) pair, no network built.
    pub(crate) fn search_behavioral_into(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
        results: &mut Vec<Vec<Neighbor>>,
    ) -> u64 {
        let mut host = self.checkout_host(queries.len(), options.k);
        let mut reports = 0u64;
        for partition in &self.partitions {
            for (q, acc) in queries.iter().zip(host.accumulators.iter_mut()) {
                partition.data.hamming_batch_into(q, &mut host.distances);
                reports += host.distances.len() as u64;
                for (local, &dist) in host.distances.iter().enumerate() {
                    acc.offer(Neighbor::new(partition.global_index(local), dist));
                }
            }
        }
        drain_into(&mut host.accumulators, options, results);
        self.pool.give_back(host);
        reports
    }

    /// Encodes `queries` as lane passes (one per 64-query chunk, bit-planes of
    /// one window — see [`crate::lanes::encode_lane_planes_into`]) into the
    /// host's pooled streams, then runs every pass through every board image,
    /// the images fanned out contiguously over up to `workers` scoped threads
    /// — each standing in for one board. Pass `p` demultiplexes into queries
    /// `p·64 ..`; each worker's per-query accumulators merge into the host's
    /// in assignment order, exactly the merge across sequential
    /// reconfigurations, so results and statistics are identical at any
    /// worker count. The returned report count unrolls every event's lane
    /// mask (one report per set lane), the count a window-per-query stream
    /// would have produced.
    fn fan_out_lanes(
        &self,
        queries: &[BinaryVector],
        k: usize,
        workers: usize,
        host: &mut BatchScratch,
    ) -> Result<u64, SearchError> {
        let images = self.images()?;
        let layout = &self.layout;
        let pool: &ScratchPool = &self.pool;
        let passes = queries.len().div_ceil(MAX_LANES);
        // Only a batch wider than any before allocates a new pass buffer.
        while host.lane_streams.len() < passes {
            host.lane_streams.push(LaneStream::new());
        }
        for (chunk, stream) in queries.chunks(MAX_LANES).zip(host.lane_streams.iter_mut()) {
            encode_lane_planes_into(layout, chunk, stream);
        }
        let streams = &host.lane_streams[..passes];

        let run_chunk = |owned: &[BoardImage]| -> (BatchScratch, u64) {
            let mut scratch = pool.checkout();
            arm_accumulators(&mut scratch.accumulators, queries.len(), k);
            let mut reports_total = 0u64;
            for image in owned {
                for (pass, stream) in streams.iter().enumerate() {
                    // One pooled run state serves every image this worker
                    // drives: recycling adapts it to this image's geometry
                    // *and* clears it between passes.
                    let state = match scratch.lane_state.as_mut() {
                        Some(state) => {
                            image.compiled.recycle_lane_state(state);
                            state
                        }
                        None => scratch.lane_state.insert(image.compiled.new_lane_state()),
                    };
                    scratch.lane_reports.clear();
                    image
                        .compiled
                        .run_lanes_into(state, stream, &mut scratch.lane_reports);
                    merge_lane_reports_into(
                        layout,
                        &scratch.lane_reports,
                        image.base_index,
                        pass * MAX_LANES,
                        &mut scratch.accumulators,
                    );
                    reports_total += scratch
                        .lane_reports
                        .iter()
                        .map(|r| u64::from(r.lanes.count_ones()))
                        .sum::<u64>();
                }
            }
            (scratch, reports_total)
        };
        let global = &mut host.accumulators;
        let mut merge = |(scratch, reports): (BatchScratch, u64)| -> u64 {
            for (g, partial) in global.iter_mut().zip(&scratch.accumulators) {
                g.merge(partial);
            }
            pool.give_back(scratch);
            reports
        };

        let span = assignment_span(images.len(), workers);
        if span >= images.len() {
            // One worker owns every image: run in place, spawn nothing.
            return Ok(merge(run_chunk(images)));
        }
        let run_chunk = &run_chunk;
        let outputs: Vec<(BatchScratch, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = images
                .chunks(span)
                .map(|owned| scope.spawn(move || run_chunk(owned)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("board-image worker panicked"))
                .collect()
        });
        Ok(outputs.into_iter().map(merge).sum())
    }

    /// The compiled board images, building every [`PartitionNetwork`] and
    /// compiling its sparse-frontier core on first use. With strict analysis
    /// enabled, every compiled image is cross-checked against its source
    /// network by the `ap-analyze` translation validator before it is cached
    /// — a mis-translation becomes a hard [`SearchError::Backend`] instead of
    /// silently corrupted search results.
    pub(crate) fn images(&self) -> Result<&[BoardImage], SearchError> {
        self.images
            .get_or_init(|| {
                self.partitions
                    .iter()
                    .map(|partition| {
                        let pn = PartitionNetwork::build(partition, &self.design);
                        let compiled = CompiledNetwork::compile(&pn.network).map_err(|e| {
                            SearchError::Backend {
                                backend: "ap-knn".to_string(),
                                reason: e.to_string(),
                            }
                        })?;
                        if self.strict_analysis {
                            ap_analyze::verify_compilation(&pn.network, &compiled).map_err(
                                |reason| SearchError::Backend {
                                    backend: "ap-knn".to_string(),
                                    reason: format!(
                                        "strict analysis rejected the board image at base \
                                         index {}: {reason}",
                                        partition.base_index
                                    ),
                                },
                            )?;
                        }
                        Ok(BoardImage {
                            base_index: partition.base_index,
                            compiled,
                        })
                    })
                    .collect()
            })
            .as_deref()
            .map_err(|e| e.clone())
    }
}

/// An [`ApKnnEngine`] bound to a dataset with its board images cached.
///
/// Created by [`ApKnnEngine::prepare`]. Repeated [`Self::try_search_batch`]
/// calls reuse the partitioning and the compiled cores, so steady-state batch
/// cost is encoding + streaming only; results and [`ApRunStats`] are
/// bit-identical to the one-shot engine path (proptest-enforced in
/// `tests/prepared_engine.rs`).
#[derive(Clone, Debug)]
pub struct PreparedEngine {
    engine: ApKnnEngine,
    boards: PreparedBoards,
}

impl PreparedEngine {
    pub(crate) fn new(engine: ApKnnEngine, data: &BinaryDataset) -> Result<Self, SearchError> {
        let boards = PreparedBoards::new(
            *engine.design(),
            data,
            engine.capacity().vectors_per_board,
            engine.strict_analysis(),
        )?;
        Ok(Self { engine, boards })
    }

    /// The engine configuration this preparation was made with.
    pub fn engine(&self) -> &ApKnnEngine {
        &self.engine
    }

    /// Vectors served.
    pub fn len(&self) -> usize {
        self.boards.dataset_len()
    }

    /// Whether the prepared dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.boards.dataset_len() == 0
    }

    /// Dimensionality of the served vectors.
    pub fn dims(&self) -> usize {
        self.boards.design().dims
    }

    /// Board configurations (dataset partitions) in the prepared image set.
    pub fn board_count(&self) -> usize {
        self.boards.partitions().len()
    }

    /// Whether the board images have been built and compiled yet (they are
    /// compiled lazily by the first cycle-accurate batch).
    pub fn is_compiled(&self) -> bool {
        self.boards.is_compiled()
    }

    /// Builds and compiles the board images now instead of on the first
    /// cycle-accurate batch, so serving traffic never pays the compile.
    ///
    /// # Errors
    /// [`SearchError::Backend`] if a partition network fails validation.
    pub fn compile(&self) -> Result<(), SearchError> {
        self.boards.images().map(|_| ())
    }

    /// Statistics of the shared execution-scratch pool. Once traffic reaches a
    /// steady state [`PoolStats::fresh`] stops growing: every batch (encode →
    /// simulate → decode) runs entirely on recycled scratch.
    pub fn pool_stats(&self) -> PoolStats {
        self.boards.pool().stats()
    }

    /// Searches `queries` against the prepared dataset, writing the per-query
    /// sorted neighbors into the caller-owned `results` (resized to the batch;
    /// inner vectors are reused). Passing the same `results` every batch keeps
    /// even the result delivery off the allocator — combined with the scratch
    /// pool, a warmed steady-state batch performs zero heap allocation.
    ///
    /// Semantics are identical to [`ApKnnEngine::try_search_batch`]; only the
    /// per-call board-image construction cost is gone.
    ///
    /// # Errors
    /// Exactly the errors of [`ApKnnEngine::try_search_batch`], minus the
    /// dataset-shape errors already reported by [`ApKnnEngine::prepare`].
    pub fn try_search_batch_into(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
        results: &mut Vec<Vec<Neighbor>>,
    ) -> Result<ApRunStats, SearchError> {
        let layout = self.boards.layout();
        self.boards.validate_batch(queries, options)?;
        let partitions = self.boards.partitions().len();
        let configs = partitions.max(1);
        // Each 64-query chunk of the batch is one window-length lane pass.
        let lane_passes = queries.len().div_ceil(MAX_LANES);
        let lane_cycles_per_image = layout.window_len() as u64 * lane_passes as u64;
        let mode = match options.execution {
            ExecutionPreference::Auto => {
                // The planner sees the critical-path cycle count: board
                // images fan out over the engine's workers, so wall-clock is
                // set by the most loaded worker, not the serial sum.
                let workers = self.engine.parallelism().min(configs).max(1);
                let critical_configs = configs.div_ceil(workers) as u64;
                self.engine.planner().pick(
                    self.boards.board_elements(),
                    lane_cycles_per_image * critical_configs,
                )
            }
            ExecutionPreference::CycleAccurate => ExecutionMode::CycleAccurate,
            ExecutionPreference::Behavioral => ExecutionMode::Behavioral,
        };

        let reports = match mode {
            ExecutionMode::CycleAccurate => {
                let workers = self
                    .boards
                    .gated_workers(lane_cycles_per_image, self.engine.parallelism());
                self.boards
                    .search_lanes_into(queries, options, workers, results)?
            }
            ExecutionMode::Behavioral => self
                .boards
                .search_behavioral_into(queries, options, results),
        };

        let mut stats = self.engine.accounting(
            self.boards.dataset_len(),
            queries.len(),
            configs,
            reports,
            layout,
        );
        // The lane gauges describe simulated passes: an empty batch or an
        // empty dataset runs none.
        if mode == ExecutionMode::CycleAccurate && lane_passes > 0 && partitions > 0 {
            stats.lane_width = MAX_LANES;
            stats.lane_fill = queries.len() as f64 / (lane_passes * MAX_LANES) as f64;
        }
        Ok(stats)
    }

    /// Searches `queries` against the prepared dataset. Semantics are identical
    /// to [`ApKnnEngine::try_search_batch`]; only the per-call board-image
    /// construction cost is gone. See [`Self::try_search_batch_into`] for the
    /// allocation-free steady-state form.
    ///
    /// # Errors
    /// Exactly the errors of [`ApKnnEngine::try_search_batch`], minus the
    /// dataset-shape errors already reported by [`ApKnnEngine::prepare`].
    pub fn try_search_batch(
        &self,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<(Vec<Vec<Neighbor>>, ApRunStats), SearchError> {
        let mut results = Vec::new();
        let stats = self.try_search_batch_into(queries, options, &mut results)?;
        Ok((results, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{BoardCapacity, CapacityModel};
    use binvec::generate::{uniform_dataset, uniform_queries};

    fn tiny_capacity(vectors_per_board: usize) -> BoardCapacity {
        BoardCapacity {
            vectors_per_board,
            model: CapacityModel::PaperCalibrated,
        }
    }

    #[test]
    fn worker_fanout_gate_scales_with_estimated_work() {
        let dims = 16;
        let data = uniform_dataset(24, dims, 70);
        let boards = PreparedBoards::new(KnnDesign::new(dims), &data, 8, false).unwrap();
        assert_eq!(boards.partitions().len(), 3);

        // Tiny batches do not amortize a thread spawn: the gate collapses the
        // requested fan-out to a single in-place worker.
        assert_eq!(boards.gated_workers(0, 8), 1);
        assert_eq!(boards.gated_workers(10, 8), 1);

        // Huge batches pass the requested width straight through.
        assert_eq!(boards.gated_workers(1_000_000, 8), 8);

        // In between, the width grows with the work estimate but never
        // exceeds the request.
        let mid = boards.gated_workers(2_000, 8);
        assert!((1..=8).contains(&mid));
        assert!(boards.gated_workers(4_000, 8) >= mid);

        // A serial request is always honored as-is (and zero is clamped up).
        assert_eq!(boards.gated_workers(1_000_000, 1), 1);
        assert_eq!(boards.gated_workers(1_000_000, 0), 1);

        // apbench's `pipelined_lanes` shape (512×64 at 128 vectors per board,
        // one 64-wide pass): 4 images × 133 cycles × 10 547 ns ≈ 5.6 ms, two
        // workers' worth at MIN_WORKER_FANOUT_S whatever the lane width.
        let wide = PreparedBoards::new(
            KnnDesign::new(64),
            &uniform_dataset(512, 64, 74),
            128,
            false,
        )
        .unwrap();
        let window = wide.layout().window_len() as u64;
        assert_eq!(window, 133);
        assert_eq!(wide.gated_workers(window, 8), 2);
    }

    #[test]
    fn prepared_engine_matches_fresh_across_repeated_batches() {
        let dims = 12;
        let data = uniform_dataset(42, dims, 71);
        let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(tiny_capacity(9));
        let prepared = engine.prepare(&data).unwrap();
        assert_eq!(prepared.board_count(), 5);
        assert!(!prepared.is_compiled(), "images compile on first use");
        for round in 0..3 {
            let queries = uniform_queries(4, dims, 72 + round);
            let options = QueryOptions::top(5);
            let fresh = engine.try_search_batch(&data, &queries, &options).unwrap();
            let reused = prepared.try_search_batch(&queries, &options).unwrap();
            assert_eq!(fresh, reused, "round {round}");
        }
        assert!(prepared.is_compiled());
    }

    #[test]
    fn behavioral_batches_never_compile_images() {
        let dims = 16;
        let data = uniform_dataset(30, dims, 73);
        let engine = ApKnnEngine::new(KnnDesign::new(dims))
            .with_mode(ExecutionMode::Behavioral)
            .with_capacity(tiny_capacity(10));
        let prepared = engine.prepare(&data).unwrap();
        let queries = uniform_queries(3, dims, 74);
        let (results, _) = prepared
            .try_search_batch(&queries, &QueryOptions::top(3))
            .unwrap();
        assert_eq!(results.len(), 3);
        assert!(
            !prepared.is_compiled(),
            "behavioural path builds no network"
        );
    }

    #[test]
    fn explicit_compile_prebuilds_the_images() {
        let dims = 8;
        let data = uniform_dataset(12, dims, 75);
        let prepared = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(tiny_capacity(5))
            .prepare(&data)
            .unwrap();
        prepared.compile().unwrap();
        assert!(prepared.is_compiled());
    }

    #[test]
    fn strict_analysis_accepts_healthy_images_and_matches_plain_results() {
        let dims = 10;
        let data = uniform_dataset(25, dims, 79);
        let plain = ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(tiny_capacity(7));
        let strict = plain.clone().with_strict_analysis(true);
        assert!(strict.strict_analysis());
        let prepared = strict.prepare(&data).unwrap();
        prepared
            .compile()
            .expect("validator accepts healthy images");
        let queries = uniform_queries(3, dims, 80);
        let options = QueryOptions::top(4);
        let a = plain
            .prepare(&data)
            .unwrap()
            .try_search_batch(&queries, &options)
            .unwrap();
        let b = prepared.try_search_batch(&queries, &options).unwrap();
        assert_eq!(a, b, "strict analysis must not change results");
    }

    #[test]
    fn prepare_reports_dataset_shape_errors() {
        let engine = ApKnnEngine::new(KnnDesign::new(8));
        let wide = uniform_dataset(4, 16, 76);
        assert_eq!(
            engine.prepare(&wide).unwrap_err(),
            SearchError::DimMismatch {
                expected: 8,
                actual: 16
            }
        );
    }

    #[test]
    fn empty_dataset_and_empty_batch_are_served() {
        let dims = 8;
        let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(tiny_capacity(4));
        let empty = BinaryDataset::new(dims);
        let prepared = engine.prepare(&empty).unwrap();
        assert!(prepared.is_empty());
        let queries = uniform_queries(2, dims, 77);
        let (results, stats) = prepared
            .try_search_batch(&queries, &QueryOptions::top(3))
            .unwrap();
        assert_eq!(results, vec![Vec::new(), Vec::new()]);
        assert_eq!(stats.reports, 0);
        assert_eq!(stats.board_configurations, 1);

        let data = uniform_dataset(10, dims, 78);
        let prepared = engine.prepare(&data).unwrap();
        let (results, stats) = prepared
            .try_search_batch(&[], &QueryOptions::top(3))
            .unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.symbols_streamed, 0);
        assert!(!prepared.is_compiled(), "an empty batch builds nothing");
    }
}
