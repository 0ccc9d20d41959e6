//! Symbol-stream multiplexing (§VI-B): processing up to seven queries per stream.
//!
//! Each symbol of the stream is 8 bits wide, but the basic kNN design only uses one
//! bit of it (the query bit for the current dimension). Multiplexing packs the same
//! dimension of up to seven *different* queries into bits 0..6 of each data symbol;
//! for every dataset vector, seven bit-slice variants of its NFA are instantiated,
//! each programmed with ternary symbol classes (`0b*******1`-style matches) that
//! discriminate a single bit position. Bit 7 is reserved so data symbols can never
//! collide with the SOF / EOF / filler control symbols — which is why the paper caps
//! the gain at 7× rather than 8×.
//!
//! On Gen-1 hardware there is neither the spatial capacity (the base design already
//! uses 41–91% of the board) nor the PCIe report bandwidth to exploit this; the
//! module therefore provides the functional design (validated in the tests), the
//! multiplexed stream encoder/decoder, and the throughput/resource model used by the
//! Table VIII projections.

use crate::design::KnnDesign;
use crate::macros::{append_vector_macro_with_symbols, VectorMacroHandles};
use crate::stream::StreamLayout;
use ap_sim::{AutomataNetwork, SymbolClass};
use binvec::BinaryVector;
use serde::{Deserialize, Serialize};

/// Maximum number of queries that share one symbol stream.
pub const MAX_SLICES: usize = 7;

/// Encodes up to [`MAX_SLICES`] queries into one multiplexed window.
///
/// Bit `s` of data symbol `i` carries dimension `i` of query `s`; unused slices are
/// zero-filled. Control symbols are unchanged.
///
/// # Panics
/// Panics if more than [`MAX_SLICES`] queries are supplied, the slice is empty, or
/// any query has the wrong dimensionality.
pub fn encode_multiplexed_window(layout: &StreamLayout, queries: &[&BinaryVector]) -> Vec<u8> {
    assert!(!queries.is_empty(), "need at least one query");
    assert!(
        queries.len() <= MAX_SLICES,
        "at most {MAX_SLICES} queries per multiplexed stream"
    );
    for q in queries {
        assert_eq!(q.dims(), layout.dims, "query dims mismatch");
    }
    let mut out = Vec::with_capacity(layout.window_len());
    out.push(layout.sof);
    for i in 0..layout.dims {
        let mut symbol = 0u8;
        for (s, q) in queries.iter().enumerate() {
            if q.get(i) {
                symbol |= 1 << s;
            }
        }
        out.push(symbol);
    }
    out.extend(std::iter::repeat_n(layout.filler, layout.filler_count()));
    out.push(layout.eof);
    out
}

/// Appends the bit-slice variant of a vector macro for query slice `slice`.
///
/// The macro's match states use ternary symbol classes that inspect only bit `slice`
/// of the data symbol (and exclude control symbols via the reserved top bit).
pub fn append_sliced_vector_macro(
    net: &mut AutomataNetwork,
    vector: &BinaryVector,
    report_code: u32,
    design: &KnnDesign,
    slice: usize,
) -> VectorMacroHandles {
    assert!(slice < MAX_SLICES, "slice must be in 0..{MAX_SLICES}");
    let symbols_for_bit = move |_design: &KnnDesign, bit: bool| -> SymbolClass {
        // Match bit `slice` == bit, and require bit 7 == 0 so control symbols
        // (SOF/EOF/filler, all >= 0x80) can never satisfy a match state.
        let mut constraints = [None; 8];
        constraints[slice] = Some(bit);
        constraints[7] = Some(false);
        SymbolClass::ternary(constraints)
    };
    append_vector_macro_with_symbols(net, vector, report_code, design, &symbols_for_bit)
}

/// Report-code layout for a multiplexed network: vector `v` in slice `s` gets code
/// `v * MAX_SLICES + s`.
pub fn multiplexed_report_code(vector_index: usize, slice: usize) -> u32 {
    (vector_index * MAX_SLICES + slice) as u32
}

/// Inverse of [`multiplexed_report_code`].
pub fn decode_multiplexed_code(code: u32) -> (usize, usize) {
    ((code as usize) / MAX_SLICES, (code as usize) % MAX_SLICES)
}

/// Resource and throughput model for multiplexing, used by the projections.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiplexModel {
    /// Number of query slices used (1..=7).
    pub slices: usize,
    /// STE multiplier relative to the base design (one NFA copy per slice).
    pub ste_multiplier: usize,
    /// Query throughput multiplier (queries per streamed window).
    pub throughput_multiplier: usize,
    /// Report-bandwidth multiplier (reports per window grow with the slices).
    pub report_bandwidth_multiplier: usize,
}

impl MultiplexModel {
    /// Builds the model for `slices` parallel query slices.
    pub fn new(slices: usize) -> Self {
        assert!((1..=MAX_SLICES).contains(&slices), "slices must be 1..=7");
        Self {
            slices,
            ste_multiplier: slices,
            throughput_multiplier: slices,
            report_bandwidth_multiplier: slices,
        }
    }

    /// Whether the multiplexed design fits on a device whose base design already
    /// uses `base_utilization` (fraction of the board).
    pub fn fits(&self, base_utilization: f64) -> bool {
        base_utilization * self.ste_multiplier as f64 <= 1.0
    }

    /// Whether the multiplexed report traffic stays within a PCIe budget, given the
    /// base design's report bandwidth in Gbit/s.
    pub fn within_bandwidth(&self, base_gbps: f64, budget_gbps: f64) -> bool {
        base_gbps * self.report_bandwidth_multiplier as f64 <= budget_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap_sim::Simulator;
    use binvec::generate::{uniform_dataset, uniform_queries};

    #[test]
    fn multiplexed_stream_reports_correct_distances_for_every_slice() {
        let dims = 12;
        let design = KnnDesign::new(dims);
        let layout = StreamLayout::for_design(&design);
        let data = uniform_dataset(5, dims, 50);
        let queries = uniform_queries(7, dims, 51);

        // Build the multiplexed network: one macro per (vector, slice).
        let mut net = AutomataNetwork::new();
        for v in 0..data.len() {
            for s in 0..queries.len() {
                append_sliced_vector_macro(
                    &mut net,
                    &data.vector(v),
                    multiplexed_report_code(v, s),
                    &design,
                    s,
                );
            }
        }
        net.validate().unwrap();

        let refs: Vec<&BinaryVector> = queries.iter().collect();
        let stream = encode_multiplexed_window(&layout, &refs);
        let mut sim = Simulator::new(&net).unwrap();
        let reports = sim.run(&stream);

        // Every (vector, slice) pair reports exactly once with the true distance.
        assert_eq!(reports.len(), data.len() * queries.len());
        for r in reports {
            let (v, s) = decode_multiplexed_code(r.code);
            let expected = data.vector(v).hamming(&queries[s]);
            let got = layout
                .distance_for_report_offset(r.offset as usize)
                .expect("report inside sort phase");
            assert_eq!(got, expected, "vector {v} slice {s}");
        }
    }

    #[test]
    fn partially_filled_window_zero_fills_unused_slices() {
        let dims = 8;
        let design = KnnDesign::new(dims);
        let layout = StreamLayout::for_design(&design);
        let q = BinaryVector::ones(dims);
        let stream = encode_multiplexed_window(&layout, &[&q]);
        // Data symbols carry only bit 0.
        for &s in &stream[1..=dims] {
            assert_eq!(s, 0b0000_0001);
        }
    }

    #[test]
    fn report_code_roundtrip() {
        for v in [0usize, 1, 100, 1023] {
            for s in 0..MAX_SLICES {
                assert_eq!(
                    decode_multiplexed_code(multiplexed_report_code(v, s)),
                    (v, s)
                );
            }
        }
    }

    #[test]
    fn model_reflects_gen1_infeasibility() {
        // §VI-B: the base design already uses 41-91% of the board and ~36 Gbps of
        // report bandwidth, so 7x multiplexing fits neither resources nor PCIe.
        let m = MultiplexModel::new(7);
        assert!(!m.fits(0.417));
        assert!(!m.fits(0.909));
        assert!(!m.within_bandwidth(36.2, 63.0));
        // Two slices of the WordEmbed design would fit spatially.
        assert!(MultiplexModel::new(2).fits(0.417));
        assert_eq!(m.throughput_multiplier, 7);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_queries_panics() {
        let design = KnnDesign::new(4);
        let layout = StreamLayout::for_design(&design);
        let qs: Vec<BinaryVector> = (0..8).map(|_| BinaryVector::zeros(4)).collect();
        let refs: Vec<&BinaryVector> = qs.iter().collect();
        let _ = encode_multiplexed_window(&layout, &refs);
    }

    #[test]
    #[should_panic(expected = "slices must be 1..=7")]
    fn zero_slices_panics() {
        let _ = MultiplexModel::new(0);
    }
}
