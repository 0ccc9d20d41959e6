//! Multi-board scheduling and pipelined reconfiguration.
//!
//! The paper's engine drives a single board: load a partition, stream the query
//! batch, reconfigure, repeat. This example shows the two host-side scheduling
//! levers modeled by `ap_knn::scheduler`:
//!
//! * spreading partitions over several boards (worker threads running the
//!   cycle-accurate simulator in parallel) while keeping results bit-identical to
//!   the single-board engine, and shortening the critical path the slowest
//!   board streams;
//! * the double-buffered reconfiguration model, which estimates how much of the
//!   Gen-1 reconfiguration bottleneck (Table IV) overlap can hide.
//!
//! Run with: `cargo run --release --example multi_board`

use ap_similarity::ap_knn::capacity::CapacityModel;
use ap_similarity::ap_knn::PipelineModel;
use ap_similarity::prelude::*;

fn main() {
    let dims = 32;
    let data = ap_similarity::binvec::generate::uniform_dataset(480, dims, 3);
    let queries = ap_similarity::binvec::generate::uniform_queries(8, dims, 4);
    let k = 5;
    // Small boards so the example exercises many partitions quickly.
    let capacity = BoardCapacity {
        vectors_per_board: 48,
        model: CapacityModel::PaperCalibrated,
    };
    let options = QueryOptions::top(k);

    // Reference: the sequential single-board engine behind the pipeline.
    let single = SearchPipeline::over(data.clone())
        .backend(BackendSpec::Ap {
            mode: Some(ExecutionMode::CycleAccurate),
            capacity: Some(capacity),
        })
        .build()
        .expect("valid pipeline configuration");
    let reference = single
        .query_batch(&queries, &options)
        .expect("well-formed queries");
    let stats = reference[0]
        .ap_run
        .expect("the AP engine reports full run statistics");
    println!(
        "single board : {} partitions, {} reconfigurations, {} symbols streamed",
        stats.board_configurations, stats.reconfigurations, stats.symbols_streamed
    );

    // Multi-board runs: the same partitions spread over 1, 2 and 4 boards.
    for boards in [1usize, 2, 4] {
        let (results, schedule) = ParallelApScheduler::new(KnnDesign::new(dims))
            .with_capacity(capacity)
            .with_workers(boards)
            .search_batch(&data, &queries, k);
        for (got, want) in results.iter().zip(&reference) {
            assert_eq!(
                got, &want.neighbors,
                "parallel schedule must not change results"
            );
        }
        println!(
            "{boards:>2} board(s) : critical path {:>7} symbols ({} partitions per board at most), results identical ✔",
            schedule.critical_path_symbols(),
            schedule.partitions_per_worker.iter().max().unwrap_or(&0),
        );
    }

    // Pipelined reconfiguration estimates for the paper's large-dataset setting.
    println!();
    println!("double-buffered reconfiguration (2^20 vectors, 4096 queries, d = 64):");
    let large_design = KnnDesign::new(64);
    let layout = StreamLayout::for_design(&large_design);
    let partitions = BoardCapacity::paper_calibrated(64).configurations_for(1 << 20);
    let symbols = layout.stream_len(4096);
    for (name, device) in [
        ("Gen 1", DeviceConfig::gen1()),
        ("Gen 2", DeviceConfig::gen2()),
    ] {
        let estimate = PipelineModel::new(TimingModel::new(device)).estimate(symbols, partitions);
        println!(
            "  {name}: serial {:.2} s, overlapped {:.2} s ({:.2}x)",
            estimate.serial_s,
            estimate.overlapped_s,
            estimate.speedup()
        );
    }
}
