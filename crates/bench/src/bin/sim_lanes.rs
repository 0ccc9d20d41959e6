//! Lane-core throughput: scalar-equivalent symbols/sec vs lane width.
//!
//! A batch of `W` queries costs the scalar core `W × window_len` streamed
//! symbols per board image; the lane core runs the same batch as
//! `⌈W/64⌉ × window_len` cycles. This bench measures how much of that 64×
//! symbol compression survives the heavier per-cycle work (64-bit lane words
//! per element instead of a sparse frontier) at widths 1, 8, and 64, and
//! asserts in-binary that full lanes deliver at least half of the ideal 64×
//! over the degenerate single-lane run — the invariant CI holds the lane path
//! to. Bit-sliced counters read 58–63× full and 53–61× quick; per-lane
//! counters read 11–14× and fail it.
//!
//! Records merge into `BENCH_sim.json` under the `sim_lanes` experiment, next
//! to (not clobbering) the `sim_throughput` section. Pass `--quick` for the
//! CI smoke configuration and `--json` to print the records as JSON lines.

use ap_knn::{encode_lane_planes_into, KnnDesign, PartitionNetwork, StreamLayout};
use ap_sim::lanes::LaneStream;
use ap_sim::CompiledNetwork;
use bench::{maybe_emit_json, merge_records_into_file, ExperimentRecord};
use binvec::generate::{uniform_dataset, uniform_queries};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (vectors, dims, vectors_per_board, reps) = if quick {
        (64, 32, 16, 5)
    } else {
        (256, 64, 64, 5)
    };

    let data = uniform_dataset(vectors, dims, 7);
    let design = KnnDesign::new(dims);
    let layout = StreamLayout::for_design(&design);
    let images: Vec<CompiledNetwork> = data
        .partition(vectors_per_board)
        .iter()
        .map(|p| {
            let pn = PartitionNetwork::build(p, &design);
            CompiledNetwork::compile(&pn.network).expect("valid partition network")
        })
        .collect();

    println!(
        "lane-core throughput, {} mode ({} vectors × {} dims, {} boards)",
        if quick { "quick" } else { "full" },
        vectors,
        dims,
        images.len()
    );
    println!(
        "{:<8} {:>20} {:>10}",
        "width", "scalar-equiv sym/s", "cycles"
    );

    let mut records = Vec::new();
    let mut by_width = Vec::new();
    for width in [1usize, 8, 64] {
        let queries = uniform_queries(width, dims, 11);
        let mut stream = LaneStream::new();
        encode_lane_planes_into(&layout, &queries, &mut stream);
        // What the scalar core would have streamed for the same batch.
        let scalar_symbols = (width * layout.window_len() * images.len()) as f64;

        let mut state = images[0].new_lane_state();
        let mut reports = Vec::new();
        let mut best_s = f64::INFINITY;
        let mut total_reports = 0u64;
        for _ in 0..reps {
            total_reports = 0;
            let started = Instant::now();
            for image in &images {
                image.recycle_lane_state(&mut state);
                reports.clear();
                image.run_lanes_into(&mut state, &stream, &mut reports);
                total_reports += reports
                    .iter()
                    .map(|r| u64::from(r.lanes.count_ones()))
                    .sum::<u64>();
            }
            best_s = best_s.min(started.elapsed().as_secs_f64());
        }
        assert!(
            total_reports > 0,
            "a kNN pass over a uniform dataset must report"
        );
        let sps = scalar_symbols / best_s;
        println!("{:<8} {:>20.0} {:>10}", width, sps, stream.cycles());
        records.push(ExperimentRecord::new(
            "sim_lanes",
            format!("width-{width}"),
            "scalar_equiv_symbols_per_sec",
            sps,
            None,
        ));
        by_width.push((width, sps));
    }

    let lane1 = by_width[0].1;
    let lane64 = by_width[2].1;
    records.push(ExperimentRecord::new(
        "sim_lanes",
        "width-64",
        "speedup_vs_width_1",
        lane64 / lane1,
        None,
    ));
    println!("lane-64 vs lane-1: {:.1}x", lane64 / lane1);
    assert!(
        lane64 >= 32.0 * lane1,
        "full lanes must be at least 32x a single lane ({lane64:.0} vs {lane1:.0} sym/s)"
    );

    merge_records_into_file("BENCH_sim.json", &records).expect("merge BENCH_sim.json");
    println!("merged {} records into BENCH_sim.json", records.len());
    maybe_emit_json(&records);
}
