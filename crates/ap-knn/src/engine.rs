//! The end-to-end AP kNN engine: partitioning, (re)configuration, execution, and
//! host-side merging of partial results.
//!
//! For datasets larger than one board configuration, the engine follows §III-C of
//! the paper: the dataset is split into per-board partitions (precompiled board
//! images); queries are streamed through the currently loaded partition; a partial
//! reconfiguration loads the next partition; and the host keeps per-query top-k
//! accumulators across reconfigurations.
//!
//! Two execution modes are provided:
//!
//! * [`ExecutionMode::CycleAccurate`] — every partition network is built and driven
//!   through the cycle-accurate simulator in `ap-sim`. This is the mode used by the
//!   correctness tests and the small-dataset experiments.
//! * [`ExecutionMode::Behavioral`] — results are produced by the same temporal-sort
//!   arithmetic without instantiating the (very large) networks, and the timing /
//!   report accounting is identical. This is the mode used for the 2^20-vector
//!   experiments, mirroring how the paper itself estimates large-dataset run time
//!   from per-board simulations.
//!
//! Run-time accounting supports both the paper's throughput model (`d` cycles per
//! query per configuration — the figure that reproduces Tables III/IV) and the
//! unpipelined model (the full `2d + D + 3` window per query).

use crate::capacity::BoardCapacity;
use crate::design::KnnDesign;
use crate::plan::{AutoPlanner, ExecutionPlanner};
use crate::prepared::PreparedEngine;
use crate::stream::StreamLayout;
use ap_sim::reconfig::ExecutionEstimate;
use ap_sim::TimingModel;
use binvec::{BinaryDataset, BinaryVector, Neighbor, QueryOptions, SearchError};
use serde::{Deserialize, Serialize};

/// How the engine produces results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Build and simulate every partition's automata network cycle by cycle.
    CycleAccurate,
    /// Compute the same results behaviourally (identical accounting, no network).
    Behavioral,
}

/// How per-query run time is charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThroughputModel {
    /// The paper's model: `d` symbol cycles per query per configuration (the sort
    /// phase of one query is overlapped with the compute phase of the next).
    PaperPipelined,
    /// Full window length (`2d + D + 3` cycles) per query per configuration.
    Unpipelined,
}

/// Accounting from one engine run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ApRunStats {
    /// Board configurations used (dataset partitions).
    pub board_configurations: usize,
    /// Partial reconfigurations performed (configurations − 1; the first image is
    /// loaded before the batch starts).
    pub reconfigurations: u64,
    /// Symbols streamed through the fabric (full windows, regardless of the
    /// throughput model used for run-time estimation).
    pub symbols_streamed: u64,
    /// Symbol cycles charged by the selected throughput model.
    pub charged_cycles: u64,
    /// Report events generated.
    pub reports: u64,
    /// Report traffic in bits (32 bits of id + offset bookkeeping per report, per
    /// the paper's §VI-C accounting).
    pub report_bits: u64,
    /// Lane word width of a cycle-accurate run ([`ap_sim::lanes::MAX_LANES`]),
    /// or 0 when nothing was simulated (behavioural execution, an empty batch
    /// or an empty dataset).
    pub lane_width: usize,
    /// Fraction of lane slots that carried a live query:
    /// `queries / (passes × lane_width)`. 0.0 when nothing was simulated.
    pub lane_fill: f64,
    /// Wall-clock estimate (streaming + reconfiguration).
    pub estimate: ExecutionEstimate,
}

impl ApRunStats {
    /// Total estimated seconds.
    pub fn total_seconds(&self) -> f64 {
        self.estimate.total_s()
    }
}

/// The AP kNN engine.
#[derive(Clone, Debug)]
pub struct ApKnnEngine {
    design: KnnDesign,
    capacity: BoardCapacity,
    planner: ExecutionPlanner,
    throughput: ThroughputModel,
    parallelism: usize,
    strict_analysis: bool,
}

impl ApKnnEngine {
    /// Creates an engine with paper-calibrated board capacity, cycle-accurate
    /// execution, the paper's throughput model, and one simulation worker per
    /// available hardware thread.
    pub fn new(design: KnnDesign) -> Self {
        let capacity = BoardCapacity::paper_calibrated(design.dims);
        Self {
            design,
            capacity,
            planner: ExecutionPlanner::Fixed(ExecutionMode::CycleAccurate),
            throughput: ThroughputModel::PaperPipelined,
            parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
            strict_analysis: false,
        }
    }

    /// Enables (or disables) strict static analysis: every compiled board
    /// image — including the delta segments a live engine compiles
    /// incrementally — is cross-checked against its source network by the
    /// `ap-analyze` translation validator before it is used. A mis-translated
    /// image surfaces as [`SearchError::Backend`] at compile time instead of
    /// silently corrupted neighbors. Costs one extra structural pass per
    /// compile; streaming cost is unchanged.
    pub fn with_strict_analysis(mut self, strict: bool) -> Self {
        self.strict_analysis = strict;
        self
    }

    /// Whether strict static analysis of compiled board images is enabled.
    pub fn strict_analysis(&self) -> bool {
        self.strict_analysis
    }

    /// Overrides the board capacity model.
    pub fn with_capacity(mut self, capacity: BoardCapacity) -> Self {
        self.capacity = capacity;
        self
    }

    /// Pins the execution mode: every run with
    /// [`binvec::ExecutionPreference::Auto`] uses `mode`.
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.planner = ExecutionPlanner::Fixed(mode);
        self
    }

    /// Lets the engine pick behavioural vs cycle-accurate per run from fabric
    /// size × stream length, using the measured-crossover [`AutoPlanner`].
    /// Results and statistics are bit-identical either way; only the wall
    /// clock changes.
    pub fn with_auto_execution(self) -> Self {
        self.with_planner(ExecutionPlanner::Auto(AutoPlanner::measured()))
    }

    /// Overrides how [`binvec::ExecutionPreference::Auto`] resolves.
    pub fn with_planner(mut self, planner: ExecutionPlanner) -> Self {
        self.planner = planner;
        self
    }

    /// How this engine resolves [`binvec::ExecutionPreference::Auto`].
    pub fn planner(&self) -> &ExecutionPlanner {
        &self.planner
    }

    /// Overrides the throughput model.
    pub fn with_throughput(mut self, throughput: ThroughputModel) -> Self {
        self.throughput = throughput;
        self
    }

    /// Overrides the number of worker threads used to simulate cycle-accurate
    /// partitions in parallel. Partitions are independent board images, so the
    /// results (and all run statistics) are identical to a serial run; only the
    /// wall-clock time changes.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        assert!(workers > 0, "engine needs at least one worker");
        self.parallelism = workers;
        self
    }

    /// The configured number of cycle-accurate simulation workers.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The design this engine drives.
    pub fn design(&self) -> &KnnDesign {
        &self.design
    }

    /// The board capacity in use.
    pub fn capacity(&self) -> &BoardCapacity {
        &self.capacity
    }

    /// Binds this engine configuration to `data`, partitioning it into board
    /// images exactly once. The returned [`PreparedEngine`] caches the
    /// partitioning and (lazily, on the first cycle-accurate batch) the built
    /// and compiled partition networks, so repeated batches pay only for
    /// encoding and streaming — the reuse-across-streams regime a serving
    /// pipeline needs.
    ///
    /// # Errors
    /// [`SearchError::ZeroDims`] for a zero-dimension design and
    /// [`SearchError::DimMismatch`] when the dataset disagrees with it.
    pub fn prepare(&self, data: &BinaryDataset) -> Result<PreparedEngine, SearchError> {
        PreparedEngine::new(self.clone(), data)
    }

    /// Searches `queries` against `data`, returning per-query sorted neighbors and
    /// run statistics.
    ///
    /// This is the fallible uniform entry point: validation failures come back as
    /// typed [`SearchError`]s instead of panics, `options.within` restricts results
    /// to neighbors strictly inside the distance bound (the §VII range-query
    /// scenario), and `options.execution` can override the engine's configured
    /// [`ExecutionMode`] per call ([`binvec::ExecutionPreference::Auto`] resolves
    /// through the engine's [`ExecutionPlanner`]).
    ///
    /// Each call is a *transient preparation*: the dataset is re-partitioned and
    /// every board image rebuilt. Callers issuing repeated batches against the
    /// same dataset should [`Self::prepare`] once and search the
    /// [`PreparedEngine`] instead.
    ///
    /// # Errors
    /// * [`SearchError::ZeroDims`] — the design has no dimensions;
    /// * [`SearchError::DimMismatch`] — dataset or query dims differ from the design;
    /// * [`SearchError::ZeroK`] / [`SearchError::ZeroDistanceBound`] — invalid options;
    /// * [`SearchError::CapacityExceeded`] — the encoded batch would overflow the
    ///   32-bit report-offset space of one streamed window sequence;
    /// * [`SearchError::Backend`] — a partition network failed simulator validation.
    pub fn try_search_batch(
        &self,
        data: &BinaryDataset,
        queries: &[BinaryVector],
        options: &QueryOptions,
    ) -> Result<(Vec<Vec<Neighbor>>, ApRunStats), SearchError> {
        self.prepare(data)?.try_search_batch(queries, options)
    }

    /// Produces run statistics without executing a search (used by the large-dataset
    /// table regeneration, where only the accounting is needed).
    pub fn estimate_run(&self, n_vectors: usize, queries: usize) -> ApRunStats {
        let layout = StreamLayout::for_design(&self.design);
        let configs = self.capacity.configurations_for(n_vectors);
        // Every encoded vector reports once per query.
        let reports = n_vectors as u64 * queries as u64;
        self.accounting(n_vectors, queries, configs, reports, &layout)
    }

    pub(crate) fn accounting(
        &self,
        n_vectors: usize,
        queries: usize,
        configs: usize,
        reports: u64,
        layout: &StreamLayout,
    ) -> ApRunStats {
        let symbols_streamed = layout.stream_len(queries) * configs as u64;
        let charged_cycles = match self.throughput {
            ThroughputModel::PaperPipelined => {
                self.design.dims as u64 * queries as u64 * configs as u64
            }
            ThroughputModel::Unpipelined => symbols_streamed,
        };
        let reconfigurations = configs.saturating_sub(1) as u64;
        let timing = TimingModel::new(self.design.device);
        let estimate = timing.estimate(charged_cycles, reconfigurations);
        // §VI-C: 32 bits per encoded vector plus 32 bits per dimension of offset
        // bookkeeping, per query, per configuration.
        let vectors_per_config = self.capacity.vectors_per_board.min(n_vectors.max(1)) as u64;
        let report_bits =
            32 * (vectors_per_config + self.design.dims as u64) * queries as u64 * configs as u64;
        ApRunStats {
            board_configurations: configs,
            reconfigurations,
            symbols_streamed,
            charged_cycles,
            reports,
            report_bits,
            // The accounting model is execution-core-agnostic; the prepared
            // engine overwrites the lane gauges for a cycle-accurate run.
            lane_width: 0,
            lane_fill: 0.0,
            estimate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_sim::DeviceConfig;
    use baselines::{LinearScan, SearchIndex};
    use binvec::generate::{uniform_dataset, uniform_queries};
    use binvec::ExecutionPreference;

    fn exact_results(
        data: &BinaryDataset,
        queries: &[BinaryVector],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        LinearScan::new(data.clone()).search_batch(queries, k)
    }

    #[test]
    fn cycle_accurate_engine_matches_linear_scan_single_partition() {
        let dims = 16;
        let data = uniform_dataset(40, dims, 1);
        let queries = uniform_queries(5, dims, 2);
        let engine = ApKnnEngine::new(KnnDesign::new(dims));
        let (results, stats) = engine
            .try_search_batch(&data, &queries, &QueryOptions::top(3))
            .unwrap();
        assert_eq!(results, exact_results(&data, &queries, 3));
        assert_eq!(stats.board_configurations, 1);
        assert_eq!(stats.reconfigurations, 0);
        // Every vector reports once per query.
        assert_eq!(stats.reports, 40 * 5);
    }

    #[test]
    fn cycle_accurate_engine_matches_linear_scan_across_reconfigurations() {
        let dims = 12;
        let data = uniform_dataset(50, dims, 3);
        let queries = uniform_queries(4, dims, 4);
        // Force tiny boards so the engine must reconfigure.
        let engine = ApKnnEngine::new(KnnDesign::new(dims)).with_capacity(BoardCapacity {
            vectors_per_board: 8,
            model: crate::capacity::CapacityModel::PaperCalibrated,
        });
        let (results, stats) = engine
            .try_search_batch(&data, &queries, &QueryOptions::top(5))
            .unwrap();
        assert_eq!(results, exact_results(&data, &queries, 5));
        assert_eq!(stats.board_configurations, 7);
        assert_eq!(stats.reconfigurations, 6);
        assert!(stats.estimate.reconfiguration_s > 0.0);
    }

    #[test]
    fn behavioral_mode_matches_cycle_accurate() {
        let dims = 24;
        let data = uniform_dataset(60, dims, 5);
        let queries = uniform_queries(6, dims, 6);
        let design = KnnDesign::new(dims);
        let cap = BoardCapacity {
            vectors_per_board: 25,
            model: crate::capacity::CapacityModel::PaperCalibrated,
        };
        let cycle = ApKnnEngine::new(design)
            .with_capacity(cap)
            .with_mode(ExecutionMode::CycleAccurate);
        let behav = ApKnnEngine::new(design)
            .with_capacity(cap)
            .with_mode(ExecutionMode::Behavioral);
        let (r1, s1) = cycle
            .try_search_batch(&data, &queries, &QueryOptions::top(4))
            .unwrap();
        let (r2, s2) = behav
            .try_search_batch(&data, &queries, &QueryOptions::top(4))
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(s1.symbols_streamed, s2.symbols_streamed);
        assert_eq!(s1.reports, s2.reports);
        assert_eq!(s1.board_configurations, s2.board_configurations);
    }

    #[test]
    fn parallel_partition_execution_matches_serial() {
        // Cycle-accurate partitions are independent board images; any worker count
        // must produce identical neighbors and identical run statistics.
        let dims = 12;
        let data = uniform_dataset(45, dims, 31);
        let queries = uniform_queries(4, dims, 32);
        let cap = BoardCapacity {
            vectors_per_board: 6,
            model: crate::capacity::CapacityModel::PaperCalibrated,
        };
        let serial = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(cap)
            .with_parallelism(1);
        let (expected, expected_stats) = serial
            .try_search_batch(&data, &queries, &QueryOptions::top(5))
            .unwrap();
        assert_eq!(expected_stats.board_configurations, 8);
        for workers in [2usize, 3, 16] {
            let parallel = ApKnnEngine::new(KnnDesign::new(dims))
                .with_capacity(cap)
                .with_parallelism(workers);
            assert_eq!(parallel.parallelism(), workers);
            let (results, stats) = parallel
                .try_search_batch(&data, &queries, &QueryOptions::top(5))
                .unwrap();
            assert_eq!(results, expected, "workers = {workers}");
            assert_eq!(stats, expected_stats, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_parallelism_panics() {
        let _ = ApKnnEngine::new(KnnDesign::new(8)).with_parallelism(0);
    }

    #[test]
    fn paper_throughput_model_reproduces_table3_small_dataset_times() {
        // Table III: AP Gen 1, 4096 queries — WordEmbed (d=64, n=1024): 1.97 ms;
        // SIFT (d=128, n=1024): 3.94 ms; TagSpace (d=256, n=512): 7.88 ms.
        for (dims, n, expected_ms) in [
            (64usize, 1024usize, 1.97f64),
            (128, 1024, 3.94),
            (256, 512, 7.88),
        ] {
            let engine =
                ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::Behavioral);
            let stats = engine.estimate_run(n, 4096);
            let ms = stats.total_seconds() * 1e3;
            let err = (ms - expected_ms).abs() / expected_ms;
            assert!(
                err < 0.02,
                "dims {dims}: estimated {ms:.3} ms, paper {expected_ms} ms"
            );
            assert_eq!(stats.reconfigurations, 0);
        }
    }

    #[test]
    fn gen1_large_dataset_is_reconfiguration_bound() {
        let design = KnnDesign::new(64);
        let engine = ApKnnEngine::new(design).with_mode(ExecutionMode::Behavioral);
        let stats = engine.estimate_run(1 << 20, 4096);
        assert_eq!(stats.board_configurations, 1024);
        // Table IV: AP Gen 1 WordEmbed ≈ 48.1 s, dominated by reconfiguration.
        let total = stats.total_seconds();
        assert!((40.0..60.0).contains(&total), "total {total}");
        assert!(stats.estimate.reconfiguration_fraction() > 0.85);

        // Gen 2 cuts the total by roughly the 19.4x the paper reports.
        let gen2 = ApKnnEngine::new(design.with_device(DeviceConfig::gen2()))
            .with_mode(ExecutionMode::Behavioral);
        let stats2 = gen2.estimate_run(1 << 20, 4096);
        let speedup = total / stats2.total_seconds();
        assert!(
            (10.0..30.0).contains(&speedup),
            "Gen1/Gen2 speedup {speedup}"
        );
    }

    #[test]
    fn unpipelined_model_charges_more_cycles() {
        let design = KnnDesign::new(64);
        let pipelined = ApKnnEngine::new(design).with_mode(ExecutionMode::Behavioral);
        let unpipelined = ApKnnEngine::new(design)
            .with_mode(ExecutionMode::Behavioral)
            .with_throughput(ThroughputModel::Unpipelined);
        let a = pipelined.estimate_run(1024, 100);
        let b = unpipelined.estimate_run(1024, 100);
        assert!(b.charged_cycles > a.charged_cycles);
        assert_eq!(a.symbols_streamed, b.symbols_streamed);
        assert!(b.total_seconds() > a.total_seconds());
    }

    #[test]
    fn report_bits_match_bandwidth_model() {
        let engine = ApKnnEngine::new(KnnDesign::new(64)).with_mode(ExecutionMode::Behavioral);
        let stats = engine.estimate_run(1024, 1);
        assert_eq!(stats.report_bits, 32 * (1024 + 64));
    }

    #[test]
    fn distance_bound_returns_exactly_the_in_range_neighbors() {
        // Cycle-accurate run: the bound must select exactly the vectors whose
        // Hamming distance is strictly below it, in sorted order.
        let dims = 12;
        let data = uniform_dataset(36, dims, 21);
        let queries = uniform_queries(4, dims, 22);
        let engine = ApKnnEngine::new(KnnDesign::new(dims));
        let bound = 5u32;
        // k chosen larger than any within-bound set so the bound is the only cap.
        let options = QueryOptions::top(data.len()).within(bound);
        let (results, _) = engine.try_search_batch(&data, &queries, &options).unwrap();
        for (q, got) in queries.iter().zip(&results) {
            let mut expected: Vec<Neighbor> = (0..data.len())
                .map(|i| Neighbor::new(i, data.hamming_to(i, q)))
                .filter(|n| n.distance < bound)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, &expected);
        }
    }

    #[test]
    fn execution_preference_overrides_the_configured_mode() {
        let dims = 16;
        let data = uniform_dataset(30, dims, 23);
        let queries = uniform_queries(3, dims, 24);
        let behavioral =
            ApKnnEngine::new(KnnDesign::new(dims)).with_mode(ExecutionMode::Behavioral);
        let forced = QueryOptions::top(3).execution(ExecutionPreference::CycleAccurate);
        let (r1, _) = behavioral
            .try_search_batch(&data, &queries, &forced)
            .unwrap();
        assert_eq!(r1, exact_results(&data, &queries, 3));
        let auto = QueryOptions::top(3);
        let (r2, _) = behavioral.try_search_batch(&data, &queries, &auto).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn typed_errors_replace_the_assert_paths() {
        let data = uniform_dataset(4, 8, 0);
        let queries = uniform_queries(1, 8, 1);
        let engine = ApKnnEngine::new(KnnDesign::new(8));
        assert_eq!(
            engine
                .try_search_batch(&data, &queries, &QueryOptions::top(0))
                .unwrap_err(),
            SearchError::ZeroK
        );
        assert_eq!(
            engine
                .try_search_batch(&data, &queries, &QueryOptions::top(1).within(0))
                .unwrap_err(),
            SearchError::ZeroDistanceBound
        );
        let wide = uniform_dataset(4, 16, 0);
        assert_eq!(
            engine
                .try_search_batch(&wide, &queries, &QueryOptions::top(1))
                .unwrap_err(),
            SearchError::DimMismatch {
                expected: 8,
                actual: 16
            }
        );
        let narrow_queries = uniform_queries(1, 4, 1);
        assert_eq!(
            engine
                .try_search_batch(&data, &narrow_queries, &QueryOptions::top(1))
                .unwrap_err(),
            SearchError::DimMismatch {
                expected: 8,
                actual: 4
            }
        );
    }

    #[test]
    fn auto_planned_engine_matches_fixed_modes() {
        // Whatever core the planner picks, neighbors and statistics must be
        // bit-identical to both pinned modes.
        let dims = 16;
        let data = uniform_dataset(50, dims, 27);
        let queries = uniform_queries(4, dims, 28);
        let design = KnnDesign::new(dims);
        let options = QueryOptions::top(4);
        let fixed = ApKnnEngine::new(design)
            .try_search_batch(&data, &queries, &options)
            .unwrap();
        let auto = ApKnnEngine::new(design).with_auto_execution();
        assert!(matches!(auto.planner(), ExecutionPlanner::Auto(_)));
        assert_eq!(
            auto.try_search_batch(&data, &queries, &options).unwrap(),
            fixed
        );
        // A strict budget forces the behavioural fallback; neighbors still
        // match, and the stats are exactly the pinned-behavioural stats (the
        // lane gauges legitimately differ from the cycle-accurate run's).
        let strict = ApKnnEngine::new(design).with_planner(ExecutionPlanner::Auto(
            AutoPlanner::measured().with_budget_s(1e-9),
        ));
        let behavioral = ApKnnEngine::new(design)
            .with_mode(ExecutionMode::Behavioral)
            .try_search_batch(&data, &queries, &options)
            .unwrap();
        assert_eq!(
            strict.try_search_batch(&data, &queries, &options).unwrap(),
            behavioral
        );
        assert_eq!(behavioral.0, fixed.0);
    }

    #[test]
    fn cycle_accurate_batches_run_on_lanes_and_surface_in_stats() {
        let dims = 12;
        let data = uniform_dataset(30, dims, 41);
        let all_queries = uniform_queries(70, dims, 42);
        let options = QueryOptions::top(4);
        let design = KnnDesign::new(dims);
        let laned = ApKnnEngine::new(design);
        let behavioral = ApKnnEngine::new(design).with_mode(ExecutionMode::Behavioral);
        // A single query, a partly filled pass, and a batch that spills into
        // a second pass all run on the lane core.
        for width in [1usize, 5, 70] {
            let queries = &all_queries[..width];
            let (lane_results, lane_stats) =
                laned.try_search_batch(&data, queries, &options).unwrap();
            let passes = width.div_ceil(ap_sim::MAX_LANES);
            assert_eq!(lane_stats.lane_width, ap_sim::MAX_LANES, "width {width}");
            assert_eq!(
                lane_stats.lane_fill,
                width as f64 / (passes * ap_sim::MAX_LANES) as f64,
                "width {width}"
            );
            // The behavioural arm shares no code with the lane core: neighbors
            // and all non-lane statistics are bit-identical.
            let (behavioral_results, behavioral_stats) = behavioral
                .try_search_batch(&data, queries, &options)
                .unwrap();
            assert_eq!(behavioral_stats.lane_width, 0);
            assert_eq!(behavioral_stats.lane_fill, 0.0);
            assert_eq!(lane_results, behavioral_results, "width {width}");
            let normalized = ApRunStats {
                lane_width: 0,
                lane_fill: 0.0,
                ..lane_stats
            };
            assert_eq!(normalized, behavioral_stats, "width {width}");
            // Neither does the exact scan.
            assert_eq!(lane_results, exact_results(&data, queries, 4));
        }
    }

    #[test]
    fn zero_k_is_a_typed_error_not_a_panic() {
        // Formerly a #[should_panic] test against the deprecated panicking
        // `search_batch` wrapper (removed in this revision): the same bad
        // input now comes back as a typed error from the one entry point.
        let data = uniform_dataset(4, 8, 0);
        let queries = uniform_queries(1, 8, 1);
        assert_eq!(
            ApKnnEngine::new(KnnDesign::new(8))
                .try_search_batch(&data, &queries, &QueryOptions::top(0))
                .unwrap_err(),
            SearchError::ZeroK
        );
    }

    #[test]
    fn dims_mismatch_is_a_typed_error_not_a_panic() {
        // Formerly a #[should_panic] test against the deprecated panicking
        // `search_batch` wrapper (removed in this revision).
        let data = uniform_dataset(4, 16, 0);
        let queries = uniform_queries(1, 8, 1);
        assert_eq!(
            ApKnnEngine::new(KnnDesign::new(8))
                .try_search_batch(&data, &queries, &QueryOptions::top(1))
                .unwrap_err(),
            SearchError::DimMismatch {
                expected: 8,
                actual: 16
            }
        );
    }
}
