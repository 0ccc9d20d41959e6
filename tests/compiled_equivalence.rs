//! Equivalence sweep: the compiled sparse-frontier core must be bit-identical to
//! the naive reference stepper, on random automata networks (STEs with arbitrary
//! classes and start kinds, counters in both modes, boolean chains, self-loops)
//! and random symbol streams — and the parallel partition engine must be
//! indistinguishable from the serial one across forced reconfigurations.

use ap_similarity::ap_sim::{
    AutomataNetwork, BooleanFunction, ConnectPort, CounterMode, ElementId, ReferenceSimulator,
    Simulator, StartKind, SymbolClass,
};
use ap_similarity::prelude::*;
use proptest::prelude::*;

/// Tiny deterministic PRNG (xorshift64*) so one `u64` seed fully describes a
/// network; keeps the generator identical under the offline proptest shim and the
/// real crate.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Symbols are drawn from a small alphabet so random streams regularly hit the
/// random classes.
const ALPHABET: u8 = 8;

fn random_class(g: &mut Gen) -> SymbolClass {
    match g.below(5) {
        0 => SymbolClass::any(),
        1 => SymbolClass::single(g.below(ALPHABET as usize) as u8),
        2 => SymbolClass::all_except(g.below(ALPHABET as usize) as u8),
        3 => {
            let lo = g.below(ALPHABET as usize) as u8;
            let hi = lo + g.below((ALPHABET - lo) as usize) as u8;
            SymbolClass::range(lo, hi)
        }
        _ => SymbolClass::bit_slice(g.below(3) as u8, g.chance(50)),
    }
}

/// Builds a random, always-valid network: STEs first, then counters, then boolean
/// gates (ids ascending), with every structural validation rule satisfied by
/// construction. Gate-to-gate edges may form chains and cycles.
fn random_network(seed: u64) -> AutomataNetwork {
    let mut g = Gen::new(seed);
    let mut net = AutomataNetwork::new();
    let n_stes = 1 + g.below(10);
    let n_counters = g.below(4);
    let n_booleans = g.below(5);

    let mut stes = Vec::with_capacity(n_stes);
    for i in 0..n_stes {
        // STE 0 is always a start state so every element can trace a driver.
        let start = if i == 0 || g.chance(30) {
            if g.chance(25) {
                StartKind::StartOfData
            } else {
                StartKind::AllInput
            }
        } else {
            StartKind::None
        };
        let report = g.chance(70).then_some(i as u32);
        stes.push(net.add_ste(format!("s{i}"), random_class(&mut g), start, report));
    }
    // Drivers: every non-start STE gets at least one activation predecessor;
    // extra edges and self-loops are sprinkled on top.
    for i in 0..n_stes {
        let e = net.element(stes[i]).unwrap().clone();
        let needs_driver = matches!(e.kind, ap_similarity::ap_sim::ElementKind::Ste { start, .. } if start == StartKind::None);
        if (needs_driver || g.chance(40)) && i > 0 {
            let from = stes[g.below(i)];
            net.connect(from, stes[i]).unwrap();
        } else if needs_driver {
            // Only STE 0 can land here, and it is a start state by construction.
            unreachable!("non-start STE without an earlier driver");
        }
        if g.chance(25) {
            net.connect(stes[i], stes[i]).unwrap(); // self-loop
        }
    }

    let mut counters = Vec::with_capacity(n_counters);
    for c in 0..n_counters {
        let mode = if g.chance(50) {
            CounterMode::Pulse
        } else {
            CounterMode::Latch
        };
        let report = g.chance(70).then_some((1000 + c) as u32);
        let counter = net.add_counter_with_increment(
            format!("c{c}"),
            1 + g.below(6) as u32,
            mode,
            report,
            1 + g.below(3) as u32,
        );
        // At least one enable, possibly several (exercises the increment cap).
        for _ in 0..1 + g.below(3) {
            net.connect_port(stes[g.below(n_stes)], counter, ConnectPort::CountEnable)
                .unwrap();
        }
        if g.chance(60) {
            net.connect_port(stes[g.below(n_stes)], counter, ConnectPort::CountReset)
                .unwrap();
        }
        // Counters may drive STEs downstream.
        if g.chance(60) {
            net.connect(counter, stes[g.below(n_stes)]).unwrap();
        }
        counters.push(counter);
    }

    let mut booleans = Vec::with_capacity(n_booleans);
    for b in 0..n_booleans {
        let function = match g.below(6) {
            0 => BooleanFunction::And,
            1 => BooleanFunction::Or,
            2 => BooleanFunction::Nand,
            3 => BooleanFunction::Nor,
            4 => BooleanFunction::Xor,
            _ => BooleanFunction::Not,
        };
        let report = g.chance(70).then_some((2000 + b) as u32);
        booleans.push((net.add_boolean(format!("b{b}"), function, report), function));
    }
    for b in 0..booleans.len() {
        let (gate, function) = booleans[b];
        let inputs = if function == BooleanFunction::Not {
            1
        } else {
            1 + g.below(3)
        };
        for _ in 0..inputs {
            // Inputs come from STEs, counters, or *any* gate — including later ones
            // and itself, so chains and combinational cycles are both covered.
            let pool = n_stes + counters.len() + booleans.len();
            let pick = g.below(pool);
            let from = if pick < n_stes {
                stes[pick]
            } else if pick < n_stes + counters.len() {
                counters[pick - n_stes]
            } else {
                booleans[pick - n_stes - counters.len()].0
            };
            net.connect(from, gate).unwrap();
        }
        // Gates may feed STEs back.
        if g.chance(50) {
            net.connect(gate, stes[g.below(n_stes)]).unwrap();
        }
    }

    net.validate().expect("generator must build valid networks");
    net
}

fn report_pairs(reports: &[ap_similarity::ap_sim::ReportEvent]) -> Vec<(usize, u32, u64)> {
    reports
        .iter()
        .map(|r| (r.element.index(), r.code, r.offset))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Step-for-step equivalence: identical report events, identical per-element
    /// activations, identical counter values — then again after a reset.
    #[test]
    fn compiled_core_equals_reference_stepper(
        seed in proptest::prelude::any::<u64>(),
        stream in prop::collection::vec(0u8..ALPHABET, 0..60),
    ) {
        let net = random_network(seed);
        let mut compiled = Simulator::new(&net).unwrap();
        let mut reference = ReferenceSimulator::new(&net).unwrap();
        for &symbol in &stream {
            let a = compiled.step(symbol);
            let b = reference.step(symbol);
            prop_assert_eq!(&a, &b, "seed {} symbol {}", seed, symbol);
            for id in 0..net.len() {
                prop_assert_eq!(
                    compiled.is_active(ElementId(id)),
                    reference.is_active(ElementId(id)),
                    "activation of element {} diverged (seed {})", id, seed
                );
            }
            for e in net.elements() {
                if e.is_counter() {
                    prop_assert_eq!(
                        compiled.counter_value(e.id).unwrap(),
                        reference.counter_value(e.id).unwrap(),
                        "counter {} diverged (seed {})", e.id.index(), seed
                    );
                }
            }
        }
        prop_assert_eq!(compiled.cycle(), reference.cycle());
        // Whole-run equivalence from a clean reset, via the reusable sink.
        compiled.reset();
        reference.reset();
        let mut sink = Vec::new();
        compiled.run_into(&stream, &mut sink);
        prop_assert_eq!(report_pairs(&sink), report_pairs(&reference.run(&stream)));
    }

    /// The kNN board networks (the hot path) produce identical report streams from
    /// both cores on encoded query batches.
    #[test]
    fn knn_partition_networks_compile_faithfully(
        n in 1usize..12,
        dims in 1usize..14,
        n_queries in 1usize..4,
        seed in 0u64..1000,
    ) {
        let data = binvec::generate::uniform_dataset(n, dims, seed);
        let queries = binvec::generate::uniform_queries(n_queries, dims, seed.wrapping_add(1));
        let design = KnnDesign::new(dims);
        let pn = ap_knn::PartitionNetwork::build_from_dataset(&data, 0, &design);
        let stream = StreamLayout::for_design(&design).encode_batch(&queries);
        let mut compiled = pn.simulator().unwrap();
        let mut reference = ReferenceSimulator::new(&pn.network).unwrap();
        prop_assert_eq!(
            report_pairs(&compiled.run(&stream)),
            report_pairs(&reference.run(&stream))
        );
    }

    /// Lane-core bit identity: up to 64 independent random symbol streams run
    /// as bit-planes of one lane pass must reproduce — per lane — exactly the
    /// reference stepper's report events, final activations, and counter
    /// values on the same random networks the scalar sweep covers. Widths up
    /// to a full word exercise carries across every lane bit.
    #[test]
    fn lane_core_equals_reference_per_lane(
        seed in proptest::prelude::any::<u64>(),
        width in 1usize..=64,
        len in 0usize..40,
    ) {
        let net = random_network(seed);
        let mut g = Gen::new(seed ^ 0xD6E8_FEB8_6659_FD93);
        let streams: Vec<Vec<u8>> = (0..width)
            .map(|_| (0..len).map(|_| g.below(ALPHABET as usize) as u8).collect())
            .collect();
        let views: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let lane_stream = ap_similarity::ap_sim::lanes::LaneStream::from_streams(&views);

        let compiled = ap_similarity::ap_sim::CompiledNetwork::compile(&net).unwrap();
        let mut state = compiled.new_lane_state();
        let mut lane_reports = Vec::new();
        compiled.run_lanes_into(&mut state, &lane_stream, &mut lane_reports);

        for (lane, stream) in streams.iter().enumerate() {
            let mut reference = ReferenceSimulator::new(&net).unwrap();
            let scalar = report_pairs(&reference.run(stream));
            let demuxed: Vec<(usize, u32, u64)> = lane_reports
                .iter()
                .filter(|r| (r.lanes >> lane) & 1 == 1)
                .map(|r| (r.element.index(), r.code, r.offset))
                .collect();
            prop_assert_eq!(demuxed, scalar, "reports of lane {} (seed {})", lane, seed);
            for id in 0..net.len() {
                prop_assert_eq!(
                    state.is_active(id, lane),
                    reference.is_active(ElementId(id)),
                    "activation of element {} on lane {} diverged (seed {})", id, lane, seed
                );
            }
            for e in net.elements() {
                if e.is_counter() {
                    prop_assert_eq!(
                        compiled.lane_counter_count(&state, e.id.index(), lane),
                        Some(reference.counter_value(e.id).unwrap()),
                        "counter {} on lane {} diverged (seed {})", e.id.index(), lane, seed
                    );
                }
            }
        }
    }

    /// Parallel partition execution is transparent: identical neighbors and stats
    /// for any worker count, across forced reconfigurations.
    #[test]
    fn parallel_engine_is_transparent(
        n in 1usize..40,
        dims in 1usize..12,
        k in 1usize..6,
        board in 1usize..7,
        workers in 2usize..6,
        seed in 0u64..1000,
    ) {
        let data = binvec::generate::uniform_dataset(n, dims, seed);
        let queries = binvec::generate::uniform_queries(3, dims, seed.wrapping_add(1));
        let capacity = BoardCapacity {
            vectors_per_board: board,
            model: ap_knn::capacity::CapacityModel::PaperCalibrated,
        };
        let serial = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(capacity)
            .with_parallelism(1);
        let parallel = ApKnnEngine::new(KnnDesign::new(dims))
            .with_capacity(capacity)
            .with_parallelism(workers);
        let options = QueryOptions::top(k);
        let (expected, expected_stats) = serial.try_search_batch(&data, &queries, &options).unwrap();
        let (got, got_stats) = parallel.try_search_batch(&data, &queries, &options).unwrap();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(got_stats, expected_stats);
        prop_assert_eq!(got_stats.board_configurations, n.div_ceil(board));
    }
}
