//! Frontier-aware execution planning: choosing cycle-accurate simulation vs
//! the behavioural path from the measured cost of the compiled core.
//!
//! The compiled sparse-frontier simulator makes cycle-accurate execution cheap
//! for small fabrics and short streams, but its per-symbol cost still grows
//! with the board's element count (the active frontier of the kNN design is
//! proportional to the fabric: every vector macro walks its ladder on every
//! window). The behavioural path produces bit-identical neighbors and
//! [`crate::engine::ApRunStats`], so when a caller asks for
//! [`binvec::ExecutionPreference::Auto`] the engine is free to pick whichever
//! core answers fastest — cycle-accurate while the simulation budget allows it
//! (the high-fidelity default), behavioural once the estimated simulation time
//! would blow that budget.
//!
//! The cost model was fitted to the compiled core's throughput as measured by
//! since-retired `sim_throughput` bench when the planner was introduced (full
//! mode, 1-core container). Re-fitting it against the served workloads is
//! `apbench`'s job (`benchmark/`); until then the table below is the
//! calibration:
//!
//! | shape | board elements | measured symbols/sec | ns per symbol |
//! |---|---|---|---|
//! | tiny (32 × 16-dim vectors/board) | 1 344 | 426 952 | 2 342 |
//! | small-dataset (128 × 64) | 18 432 | 87 070 | 11 485 |
//! | wide (128 × 128) | 36 224 | 52 094 | 19 196 |
//!
//! A linear fit `ns/symbol ≈ 1 700 + 0.48 · elements` reproduces all three
//! points within ~8 %, which is accurate enough to place the crossover: the
//! planner only needs to know whether a run costs milliseconds or minutes.
//!
//! The model prices lane-core *cycles*, whatever their width: with
//! bit-sliced counters a 64-wide pass over the 512×64 shape costs about
//! 1.05× a one-lane pass, well inside the fit's own error, so a batch of `W`
//! queries is priced at `⌈W/64⌉` windows per image.

use crate::engine::ExecutionMode;
use serde::{Deserialize, Serialize};

/// Fixed per-symbol overhead of the compiled core, nanoseconds (fit intercept).
pub const BASE_NS_PER_SYMBOL: f64 = 1_700.0;
/// Incremental per-symbol cost per fabric element, nanoseconds (fit slope).
pub const NS_PER_ELEMENT_SYMBOL: f64 = 0.48;
/// Default simulation budget: runs estimated under this stay cycle-accurate.
pub const DEFAULT_BUDGET_S: f64 = 0.25;

/// Picks an [`ExecutionMode`] from fabric size × stream length using the
/// measured cost model (see the module docs for its calibration).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AutoPlanner {
    /// Fixed per-symbol cost of the compiled core, in nanoseconds.
    pub base_ns_per_symbol: f64,
    /// Additional per-symbol cost per board element, in nanoseconds.
    pub ns_per_element_symbol: f64,
    /// Seconds of estimated simulation time the planner will spend before
    /// falling back to the behavioural path.
    pub budget_s: f64,
}

impl Default for AutoPlanner {
    fn default() -> Self {
        Self::measured()
    }
}

impl AutoPlanner {
    /// The planner calibrated from the module docs' fit table with the
    /// default budget.
    pub fn measured() -> Self {
        Self {
            base_ns_per_symbol: BASE_NS_PER_SYMBOL,
            ns_per_element_symbol: NS_PER_ELEMENT_SYMBOL,
            budget_s: DEFAULT_BUDGET_S,
        }
    }

    /// Overrides the simulation budget (seconds).
    ///
    /// # Panics
    /// Panics if `budget_s` is not finite and positive.
    pub fn with_budget_s(mut self, budget_s: f64) -> Self {
        assert!(
            budget_s.is_finite() && budget_s > 0.0,
            "planner budget must be a positive number of seconds"
        );
        self.budget_s = budget_s;
        self
    }

    /// Estimated wall-clock seconds for the lane core to run `lane_cycles`
    /// cycles (at any lane width) on boards of `board_elements` fabric
    /// elements each. Callers with a parallel schedule pass their
    /// *critical-path* cycle count (`window_len × passes × images on the most
    /// loaded worker`), since that is what sets wall-clock time.
    pub fn estimated_simulation_s(&self, board_elements: usize, lane_cycles: u64) -> f64 {
        let ns_per_symbol =
            self.base_ns_per_symbol + self.ns_per_element_symbol * board_elements as f64;
        lane_cycles as f64 * ns_per_symbol * 1e-9
    }

    /// The mode the planner selects for a run of this shape: cycle-accurate
    /// while the estimated simulation time fits the budget, behavioural
    /// beyond it. Deterministic in the run shape, so repeated identical
    /// batches always execute the same way.
    pub fn pick(&self, board_elements: usize, lane_cycles: u64) -> ExecutionMode {
        if self.estimated_simulation_s(board_elements, lane_cycles) <= self.budget_s {
            ExecutionMode::CycleAccurate
        } else {
            ExecutionMode::Behavioral
        }
    }
}

/// How an engine resolves [`binvec::ExecutionPreference::Auto`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExecutionPlanner {
    /// Always use this mode (the engine's classic `with_mode` behaviour).
    Fixed(ExecutionMode),
    /// Pick per run from fabric size × stream length.
    Auto(AutoPlanner),
}

impl ExecutionPlanner {
    /// Resolves the mode for a run of the given shape (see
    /// [`AutoPlanner::pick`]). Fixed planners ignore the shape.
    pub fn pick(&self, board_elements: usize, lane_cycles: u64) -> ExecutionMode {
        match self {
            Self::Fixed(mode) => *mode,
            Self::Auto(planner) => planner.pick(board_elements, lane_cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::KnnDesign;
    use crate::stream::StreamLayout;

    #[test]
    fn measured_model_reproduces_the_bench_points_roughly() {
        let planner = AutoPlanner::measured();
        // (board elements, measured ns/symbol) from the module docs' fit table.
        for (elements, measured_ns) in [
            (1_344usize, 2_342.0f64),
            (18_432, 11_485.0),
            (36_224, 19_196.0),
        ] {
            let predicted_ns = planner.estimated_simulation_s(elements, 1) * 1e9;
            let err = (predicted_ns - measured_ns).abs() / measured_ns;
            assert!(
                err < 0.15,
                "elements {elements}: predicted {predicted_ns:.0} ns vs measured {measured_ns} ns"
            );
        }
    }

    #[test]
    fn small_runs_stay_cycle_accurate_large_runs_fall_back() {
        let planner = AutoPlanner::measured();
        // A tiny board and a few windows: well under the budget.
        assert_eq!(planner.pick(1_344, 10_000), ExecutionMode::CycleAccurate);
        // The paper's 2^20-vector regime: thousands of reconfigured windows on
        // full boards — minutes of simulation, so the planner falls back.
        assert_eq!(planner.pick(150_000, 50_000_000), ExecutionMode::Behavioral);
    }

    #[test]
    fn budget_moves_the_crossover() {
        let strict = AutoPlanner::measured().with_budget_s(1e-6);
        assert_eq!(strict.pick(1_344, 10_000), ExecutionMode::Behavioral);
        let generous = AutoPlanner::measured().with_budget_s(1e6);
        assert_eq!(
            generous.pick(150_000, 50_000_000),
            ExecutionMode::CycleAccurate
        );
    }

    #[test]
    fn fixed_planner_ignores_the_shape() {
        let fixed = ExecutionPlanner::Fixed(ExecutionMode::Behavioral);
        assert_eq!(fixed.pick(1, 1), ExecutionMode::Behavioral);
        assert_eq!(
            fixed.pick(usize::MAX >> 1, u64::MAX >> 1),
            ExecutionMode::Behavioral
        );
    }

    #[test]
    #[should_panic(expected = "positive number of seconds")]
    fn zero_budget_panics() {
        let _ = AutoPlanner::measured().with_budget_s(0.0);
    }

    #[test]
    fn width_one_batches_are_priced_as_one_scalar_window_per_image() {
        // A width-1 lane cycle is priced at the fitted scalar ns/symbol, so
        // Auto's crossover for a single query sits where the scalar pricing
        // puts it. For each fit-table shape, `last_cycle_accurate` is
        // the largest critical-path image count that fits the budget:
        // 0.25 s ÷ ((1 700 + 0.48 · elements) ns × window).
        let planner = AutoPlanner::measured();
        for (dims, elements, last_cycle_accurate) in [
            (16usize, 1_344usize, 2_881u64),
            (64, 18_432, 178),
            (128, 36_224, 49),
        ] {
            let window = StreamLayout::for_design(&KnnDesign::new(dims)).window_len() as u64;
            assert_eq!(
                planner.pick(elements, window),
                ExecutionMode::CycleAccurate,
                "dims {dims}: one image"
            );
            assert_eq!(
                planner.pick(elements, window * last_cycle_accurate),
                ExecutionMode::CycleAccurate,
                "dims {dims}: {last_cycle_accurate} images"
            );
            assert_eq!(
                planner.pick(elements, window * (last_cycle_accurate + 1)),
                ExecutionMode::Behavioral,
                "dims {dims}: {} images",
                last_cycle_accurate + 1
            );
        }
    }

    #[test]
    fn lane_compression_keeps_big_batches_cycle_accurate() {
        let planner = AutoPlanner::measured();
        // A 64-query batch on a mid-size board: 64 windows blow the budget,
        // but one full-width lane pass streams 1/64 of the cycles at the same
        // per-cycle price and stays well inside it.
        let board = 36_224;
        let lane_cycles = 2_000u64;
        assert_eq!(
            planner.pick(board, 64 * lane_cycles),
            ExecutionMode::Behavioral
        );
        assert_eq!(
            planner.pick(board, lane_cycles),
            ExecutionMode::CycleAccurate
        );
        // Truly huge lane runs still fall back.
        assert_eq!(
            planner.pick(board, u64::MAX >> 16),
            ExecutionMode::Behavioral
        );
    }
}
