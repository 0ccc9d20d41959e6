//! The lane core's width floor: a full 64-lane pass must deliver at least
//! half of the ideal 64× scalar-equivalent symbol throughput of a one-lane
//! pass, and a 7-lane pass must beat a one-lane pass.
//!
//! A batch of `W` queries costs the scalar core `W × window_len` streamed
//! symbols per board image; the lane core runs it as one `window_len`-cycle
//! pass. With bit-sliced counters every lane phase is word arithmetic, so a
//! pass costs about the same at any width and the ratio sits near `W`. On a
//! 2-vCPU Xeon, ten runs read 42–58× at width 64 (4.6–5.8× at width 7) in
//! a debug build and 51–58× (5.8–6.8×) in release. Forcing per-lane counter
//! cost back into the pass reads about 3× in a debug build and fails.
//!
//! Timings are best of [`REPS`] with the widths interleaved, so a noisy
//! moment hits every width alike. If this ever flakes, raise the reps; do
//! not lower the floor.

use ap_knn::{encode_lane_planes_into, KnnDesign, PartitionNetwork, StreamLayout};
use ap_sim::lanes::LaneStream;
use ap_sim::CompiledNetwork;
use binvec::generate::{uniform_dataset, uniform_queries};
use std::time::Instant;

const VECTORS: usize = 64;
const DIMS: usize = 32;
const VECTORS_PER_BOARD: usize = 16;
const WIDTHS: [usize; 3] = [1, 7, 64];
const REPS: usize = 5;

#[test]
fn full_lanes_sustain_at_least_half_the_ideal_width_speedup() {
    let design = KnnDesign::new(DIMS);
    let layout = StreamLayout::for_design(&design);
    let images: Vec<CompiledNetwork> = uniform_dataset(VECTORS, DIMS, 7)
        .partition(VECTORS_PER_BOARD)
        .iter()
        .map(|p| {
            CompiledNetwork::compile(&PartitionNetwork::build(p, &design).network)
                .expect("valid partition network")
        })
        .collect();
    assert_eq!(images.len(), 4);

    let streams: Vec<LaneStream> = WIDTHS
        .iter()
        .map(|&width| {
            let mut stream = LaneStream::new();
            encode_lane_planes_into(&layout, &uniform_queries(width, DIMS, 11), &mut stream);
            stream
        })
        .collect();

    let mut state = images[0].new_lane_state();
    let mut reports = Vec::new();
    let mut best_s = [f64::INFINITY; WIDTHS.len()];
    for _ in 0..REPS {
        for (stream, best) in streams.iter().zip(&mut best_s) {
            let mut reported_lanes = 0u32;
            let started = Instant::now();
            for image in &images {
                image.recycle_lane_state(&mut state);
                reports.clear();
                image.run_lanes_into(&mut state, stream, &mut reports);
                reported_lanes += reports.iter().map(|r| r.lanes.count_ones()).sum::<u32>();
            }
            *best = best.min(started.elapsed().as_secs_f64());
            assert!(
                reported_lanes > 0,
                "a kNN pass over a uniform corpus reports"
            );
        }
    }

    // Scalar-equivalent symbols/s: what the scalar core would have streamed
    // for the same batch, over the lane pass's wall time.
    let symbols_per_s: Vec<f64> = WIDTHS
        .iter()
        .zip(&best_s)
        .map(|(&width, &s)| (width * layout.window_len() * images.len()) as f64 / s)
        .collect();
    let x7 = symbols_per_s[1] / symbols_per_s[0];
    let x64 = symbols_per_s[2] / symbols_per_s[0];
    eprintln!("lane width 7: {x7:.2}× width 1; lane width 64: {x64:.1}× width 1");
    assert!(
        x64 >= 32.0,
        "width 64 must sustain ≥ 32× width 1's scalar-equivalent symbols/s, read {x64:.1}×"
    );
    assert!(x7 > 1.0, "width 7 must beat width 1, read {x7:.2}×");
}
