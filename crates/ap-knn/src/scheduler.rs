//! Host-side scheduling: multi-board parallel execution and pipelined
//! reconfiguration.
//!
//! The paper's single-board engine (§III-C, reproduced in [`crate::engine`])
//! serializes *load board image → stream queries → load next image*. Two host-side
//! scheduling improvements follow directly from the system architecture in Fig. 1
//! and the non-blocking-API assumption of §IV-B:
//!
//! * **Multi-board / multi-rank parallelism** ([`ParallelApScheduler`]): an AP device
//!   is four ranks of eight AP chips, and nothing stops a host from populating
//!   several ranks (or several boards) with *different* dataset partitions and
//!   broadcasting the same query stream to all of them. Partitions are distributed
//!   over worker threads — each worker standing in for one board — and the per-query
//!   top-k accumulators are merged on the host, exactly as they already are across
//!   sequential reconfigurations.
//! * **Pipelined (double-buffered) reconfiguration** ([`PipelineModel`]): while one
//!   partition is being streamed, the next board image can be transferred, so the
//!   per-partition cost becomes `max(stream, reconfigure)` instead of their sum. On
//!   Gen-1 hardware, where reconfiguration is ~98 % of large-dataset run time
//!   (Table IV), overlapping buys little; on Gen-2 the two terms are comparable and
//!   pipelining approaches a 2× improvement. The model quantifies both.

use crate::capacity::BoardCapacity;
use crate::design::KnnDesign;
use crate::prepared::{contiguous_assignment, PreparedBoards};
use ap_sim::TimingModel;
use binvec::{BinaryDataset, BinaryVector, Neighbor, QueryOptions};
use serde::{Deserialize, Serialize};

/// Statistics from one parallel scheduled run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Number of dataset partitions (board images) processed.
    pub partitions: usize,
    /// Number of worker threads (simulated boards) actually used.
    pub workers_used: usize,
    /// Partitions assigned to each worker.
    pub partitions_per_worker: Vec<usize>,
    /// Total report events generated across all workers.
    pub reports: u64,
    /// Symbols streamed per worker (each worker streams the full query batch once
    /// per partition it owns).
    pub symbols_per_worker: Vec<u64>,
}

impl ScheduleStats {
    /// Symbols streamed by the most loaded worker — the critical path of the
    /// parallel schedule.
    pub fn critical_path_symbols(&self) -> u64 {
        self.symbols_per_worker.iter().copied().max().unwrap_or(0)
    }

    /// Total symbols streamed across all workers (equals the single-board figure).
    pub fn total_symbols(&self) -> u64 {
        self.symbols_per_worker.iter().sum()
    }
}

/// Drives dataset partitions across several simulated boards in parallel.
#[derive(Clone, Debug)]
pub struct ParallelApScheduler {
    design: KnnDesign,
    capacity: BoardCapacity,
    workers: usize,
}

impl ParallelApScheduler {
    /// Creates a scheduler with the paper-calibrated board capacity and one worker
    /// per available rank of a Gen-1 device (four).
    pub fn new(design: KnnDesign) -> Self {
        Self {
            capacity: BoardCapacity::paper_calibrated(design.dims),
            design,
            workers: 4,
        }
    }

    /// Overrides the number of worker threads (simulated boards).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "scheduler needs at least one worker");
        self.workers = workers;
        self
    }

    /// Overrides the per-board capacity.
    pub fn with_capacity(mut self, capacity: BoardCapacity) -> Self {
        self.capacity = capacity;
        self
    }

    /// The design being scheduled.
    pub fn design(&self) -> &KnnDesign {
        &self.design
    }

    /// The configured number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Searches `queries` against `data` with every partition simulated cycle-
    /// accurately, distributing partitions over the worker threads and merging the
    /// per-query top-k results on the host.
    ///
    /// The results are identical to [`crate::engine::ApKnnEngine::try_search_batch`]
    /// in cycle-accurate mode; only the execution schedule differs. The stream
    /// runs through the same fan-out the engine serves with; the statistics
    /// are a pure function of the contiguous partition-to-worker assignment:
    /// on the modeled device each worker (board) streams the whole batch, one
    /// window per query, once per image it owns.
    ///
    /// # Panics
    /// Panics if dataset or query dimensionality differs from the design, or `k` is 0.
    pub fn search_batch(
        &self,
        data: &BinaryDataset,
        queries: &[BinaryVector],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, ScheduleStats) {
        let options = QueryOptions::top(k);
        let mut results = Vec::new();
        let run = PreparedBoards::new(self.design, data, self.capacity.vectors_per_board, false)
            .and_then(|boards| {
                let stream_len = boards.validate_batch(queries, &options)?;
                let reports =
                    boards.search_lanes_into(queries, &options, self.workers, &mut results)?;
                Ok((boards.partitions().len(), stream_len, reports))
            });
        let (partitions, stream_len, reports) = match run {
            Ok(run) => run,
            Err(e) => panic!("{e}"),
        };
        let partitions_per_worker = contiguous_assignment(partitions, self.workers);
        let stats = ScheduleStats {
            partitions,
            workers_used: partitions_per_worker.len().max(1),
            symbols_per_worker: partitions_per_worker
                .iter()
                .map(|&images| images as u64 * stream_len)
                .collect(),
            partitions_per_worker,
            reports,
        };
        (results, stats)
    }
}

/// Analytical model of pipelined (double-buffered) partial reconfiguration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineModel {
    timing: TimingModel,
}

/// Serial vs. overlapped execution-time estimate for a multi-partition run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PipelineEstimate {
    /// Seconds with the serial load-then-stream schedule (the engine's default).
    pub serial_s: f64,
    /// Seconds with reconfiguration of partition *i + 1* overlapped with streaming
    /// of partition *i*.
    pub overlapped_s: f64,
    /// Seconds spent streaming one partition's query batch.
    pub stream_per_partition_s: f64,
    /// Seconds per partial reconfiguration.
    pub reconfiguration_s: f64,
    /// Number of partitions.
    pub partitions: usize,
}

impl PipelineEstimate {
    /// Speedup of the overlapped schedule over the serial one (≥ 1).
    pub fn speedup(&self) -> f64 {
        if self.overlapped_s == 0.0 {
            1.0
        } else {
            self.serial_s / self.overlapped_s
        }
    }
}

impl PipelineModel {
    /// Builds a pipeline model for the given device timing.
    pub fn new(timing: TimingModel) -> Self {
        Self { timing }
    }

    /// Estimates serial and overlapped run time for `partitions` board images with
    /// `symbols_per_partition` symbols streamed per image.
    ///
    /// The first image load is excluded from both schedules (it happens before the
    /// query batch starts, matching the engine's accounting); the remaining
    /// `partitions − 1` loads are either serialized with streaming or overlapped
    /// with the previous partition's streaming.
    pub fn estimate(&self, symbols_per_partition: u64, partitions: usize) -> PipelineEstimate {
        let stream = self.timing.streaming_time_s(symbols_per_partition);
        let reconfig = self.timing.reconfiguration_time_s(1);
        let later = partitions.saturating_sub(1) as f64;
        let serial = stream * partitions as f64 + reconfig * later;
        let overlapped = stream + later * stream.max(reconfig);
        PipelineEstimate {
            serial_s: serial,
            overlapped_s: overlapped.min(serial),
            stream_per_partition_s: stream,
            reconfiguration_s: reconfig,
            partitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityModel;
    use crate::engine::ApKnnEngine;
    use ap_sim::DeviceConfig;
    use binvec::generate::{uniform_dataset, uniform_queries};

    fn tiny_capacity(vectors_per_board: usize) -> BoardCapacity {
        BoardCapacity {
            vectors_per_board,
            model: CapacityModel::PaperCalibrated,
        }
    }

    #[test]
    fn parallel_results_match_sequential_engine() {
        let dims = 16;
        let data = uniform_dataset(60, dims, 21);
        let queries = uniform_queries(5, dims, 22);
        let design = KnnDesign::new(dims);
        let (expected, _) = ApKnnEngine::new(design)
            .with_capacity(tiny_capacity(9))
            .try_search_batch(&data, &queries, &binvec::QueryOptions::top(4))
            .unwrap();
        for workers in [1usize, 2, 3, 8] {
            let scheduler = ParallelApScheduler::new(design)
                .with_capacity(tiny_capacity(9))
                .with_workers(workers);
            let (got, stats) = scheduler.search_batch(&data, &queries, 4);
            assert_eq!(got, expected, "workers = {workers}");
            assert_eq!(stats.partitions, 7);
            assert_eq!(stats.workers_used, workers.min(7));
            assert_eq!(
                stats.partitions_per_worker.iter().sum::<usize>(),
                stats.partitions
            );
            assert_eq!(stats.reports, 60 * 5);
        }
    }

    #[test]
    fn more_workers_than_partitions_is_fine() {
        let dims = 8;
        let data = uniform_dataset(10, dims, 1);
        let queries = uniform_queries(2, dims, 2);
        let scheduler = ParallelApScheduler::new(KnnDesign::new(dims))
            .with_capacity(tiny_capacity(100))
            .with_workers(16);
        let (results, stats) = scheduler.search_batch(&data, &queries, 3);
        assert_eq!(results.len(), 2);
        assert_eq!(stats.partitions, 1);
        assert_eq!(stats.workers_used, 1);
    }

    #[test]
    fn critical_path_shrinks_with_more_workers() {
        let dims = 8;
        let data = uniform_dataset(64, dims, 5);
        let queries = uniform_queries(2, dims, 6);
        let design = KnnDesign::new(dims);
        let one = ParallelApScheduler::new(design)
            .with_capacity(tiny_capacity(8))
            .with_workers(1);
        let four = ParallelApScheduler::new(design)
            .with_capacity(tiny_capacity(8))
            .with_workers(4);
        let (_, s1) = one.search_batch(&data, &queries, 2);
        let (_, s4) = four.search_batch(&data, &queries, 2);
        assert_eq!(s1.total_symbols(), s4.total_symbols());
        assert!(s4.critical_path_symbols() < s1.critical_path_symbols());
        assert_eq!(s4.critical_path_symbols() * 4, s1.critical_path_symbols());
    }

    #[test]
    fn empty_batch_reports_the_streamed_schedule_shape() {
        let dims = 8;
        let data = uniform_dataset(20, dims, 29);
        let scheduler = ParallelApScheduler::new(KnnDesign::new(dims))
            .with_capacity(tiny_capacity(6))
            .with_workers(2);
        let (results, stats) = scheduler.search_batch(&data, &[], 3);
        assert!(results.is_empty());
        assert_eq!(stats.reports, 0);
        assert!(stats.symbols_per_worker.iter().all(|&s| s == 0));
        // The schedule shape matches what a streamed run reports.
        let queries = uniform_queries(1, dims, 30);
        let (_, streamed) = scheduler.search_batch(&data, &queries, 3);
        assert_eq!(stats.partitions, streamed.partitions);
        assert_eq!(stats.workers_used, streamed.workers_used);
        assert_eq!(stats.partitions_per_worker, streamed.partitions_per_worker);
        assert_eq!(
            stats.symbols_per_worker.len(),
            streamed.symbols_per_worker.len()
        );
    }

    #[test]
    fn scheduler_exposes_configuration() {
        let scheduler = ParallelApScheduler::new(KnnDesign::new(32)).with_workers(2);
        assert_eq!(scheduler.workers(), 2);
        assert_eq!(scheduler.design().dims, 32);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ParallelApScheduler::new(KnnDesign::new(8)).with_workers(0);
    }

    #[test]
    fn pipeline_overlap_never_slower_and_bounded_by_two() {
        for device in [DeviceConfig::gen1(), DeviceConfig::gen2()] {
            let model = PipelineModel::new(TimingModel::new(device));
            for &(symbols, partitions) in &[
                (1_000u64, 1usize),
                (100_000, 4),
                (1_000_000, 64),
                (4_000_000, 1024),
            ] {
                let est = model.estimate(symbols, partitions);
                assert!(est.overlapped_s <= est.serial_s + 1e-12);
                let speedup = est.speedup();
                assert!((1.0..=2.0 + 1e-9).contains(&speedup), "speedup {speedup}");
            }
        }
    }

    #[test]
    fn pipeline_gains_little_when_reconfiguration_dominates() {
        // Gen-1: 45 ms reconfiguration vs. a short stream — overlap hides the small
        // term, so the speedup stays close to 1.
        let model = PipelineModel::new(TimingModel::new(DeviceConfig::gen1()));
        let est = model.estimate(10_000, 100);
        assert!(est.reconfiguration_s > est.stream_per_partition_s * 10.0);
        assert!(est.speedup() < 1.1);

        // When streaming and reconfiguration are comparable the overlap approaches 2x.
        let balanced_symbols = (est.reconfiguration_s
            / TimingModel::new(DeviceConfig::gen1()).streaming_time_s(1))
        .round() as u64;
        let est2 = model.estimate(balanced_symbols, 1000);
        assert!(est2.speedup() > 1.8, "speedup {}", est2.speedup());
    }

    #[test]
    fn single_partition_has_no_pipeline_benefit() {
        let model = PipelineModel::new(TimingModel::new(DeviceConfig::gen2()));
        let est = model.estimate(50_000, 1);
        assert_eq!(est.serial_s, est.overlapped_s);
        assert_eq!(est.speedup(), 1.0);
        assert_eq!(est.partitions, 1);
    }
}
