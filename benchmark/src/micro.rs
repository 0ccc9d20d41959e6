//! Direct calls into single layers, timed from outside: the leaf rungs of the
//! traced ladder and the per-layer figures no served request exposes.
//!
//! The leaf rungs drive board images rebuilt here with
//! `PartitionNetwork::build` + `CompiledNetwork::compile`, the way the
//! `sim_lanes` bench bin does, because a `PreparedEngine` keeps its own
//! private.

use crate::stats::{ns_to_ms, ns_to_us, percentile};
use crate::workload::{Spec, WalDir, K};
use ap_knn::decode::{merge_lane_reports_into, merge_reports_into};
use ap_knn::live::LiveEngine;
use ap_knn::wal::{CheckpointImage, Wal, WalConfig, WalRecord};
use ap_knn::{encode_lane_planes_into, ApRunStats, PartitionNetwork, StreamLayout};
use ap_serve::Frame;
use ap_sim::lanes::{LaneStream, MAX_LANES};
use ap_sim::CompiledNetwork;
use binvec::dataset::DatasetPartition;
use binvec::{BinaryDataset, BinaryVector, Mutation, Neighbor, TopK};
use perf_model::{KnnJob, Platform, RuntimeModel};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `samples` in nanoseconds. Unlike latencies these are fixed-count
/// repetitions of one deterministic call, so the ten-beyond rule is met by
/// construction (every caller takes at least 21).
pub fn p50_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    percentile(samples, 0.5).expect("at least 21 repetitions")
}

/// Times `reps` calls of `f`, returning each call's nanoseconds.
fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<u64> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as u64
        })
        .collect()
}

/// What building the engine costs, layer by layer.
pub struct BuildTimes {
    /// `ApKnnEngine::prepare`: partitioning, ms.
    pub prepare_ms: f64,
    /// `PreparedEngine::compile` with strict analysis: network build +
    /// compile + verify of every image, ms (0 for a behavioral workload).
    pub compile_ms: f64,
    /// `CompiledNetwork::compile` over every image alone, ms.
    pub sim_compile_ms: f64,
    /// `ap_analyze::verify_compilation` over every image, ms.
    pub verify_ms: f64,
}

/// The rebuilt board images the leaf rungs run on.
pub struct Boards {
    /// Stream layout of the design.
    pub layout: StreamLayout,
    /// The corpus partitions, one per board image.
    pub partitions: Vec<DatasetPartition>,
    /// One compiled image per partition (empty for a behavioral workload).
    pub images: Vec<CompiledNetwork>,
}

/// Times the engine build and rebuilds the board images.
pub fn build(spec: &Spec, corpus: &BinaryDataset) -> Result<(BuildTimes, Boards), String> {
    let engine = spec.engine();
    let design = *engine.design();
    let mut prepare = Vec::new();
    let mut compile = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let prepared = engine
            .prepare(corpus)
            .map_err(|e| format!("prepare: {e}"))?;
        prepare.push(started.elapsed().as_secs_f64() * 1e3);
        if spec.cycle_accurate() {
            let started = Instant::now();
            prepared.compile().map_err(|e| format!("compile: {e}"))?;
            compile.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    let partitions = corpus.partition(spec.vectors_per_board);
    let mut images = Vec::new();
    let (mut sim_compile, mut verify) = (Duration::ZERO, Duration::ZERO);
    if spec.cycle_accurate() {
        for partition in &partitions {
            let network = PartitionNetwork::build(partition, &design);
            let started = Instant::now();
            let image = CompiledNetwork::compile(&network.network)
                .map_err(|e| format!("compile image: {e}"))?;
            sim_compile += started.elapsed();
            let started = Instant::now();
            ap_analyze::verify_compilation(&network.network, &image)?;
            verify += started.elapsed();
            images.push(image);
        }
    }
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    let times = BuildTimes {
        prepare_ms: median(&prepare),
        compile_ms: median(&compile),
        sim_compile_ms: sim_compile.as_secs_f64() * 1e3,
        verify_ms: verify.as_secs_f64() * 1e3,
    };
    Ok((
        times,
        Boards {
            layout: StreamLayout::for_design(&design),
            partitions,
            images,
        },
    ))
}

/// The exact accounting of one batch at the workload's dispatched width.
pub fn run_stats(spec: &Spec, corpus: &BinaryDataset, queries: &[BinaryVector]) -> ApRunStats {
    let prepared = spec
        .engine()
        .prepare(corpus)
        .expect("prepare was timed above");
    let mut results = Vec::new();
    prepared
        .try_search_batch_into(
            &queries[..spec.dispatched_width],
            &spec.options(),
            &mut results,
        )
        .expect("a well-formed batch")
}

/// Durations of one replayed batch's leaf calls, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Leaves {
    /// `StreamLayout::encode_batch_into` / `encode_lane_planes_into`.
    pub encode_ns: u64,
    /// `run_into` / `run_lanes_into` over the board images of the slowest
    /// fan-out worker: the engine spreads the images over
    /// `engine_parallelism` scoped threads and waits for the last, so the
    /// batch pays for the most loaded one, not for the sum.
    pub sim_ns: u64,
    /// `merge_reports_into` / `merge_lane_reports_into` on that worker.
    pub merge_ns: u64,
    /// `run_into` / `run_lanes_into` summed over every board image.
    pub sim_total_ns: u64,
    /// `hamming_batch_into` over every partition (behavioral only).
    pub hamming_ns: u64,
    /// Behavioral: the `offer`s; always: `drain_sorted_into` per query.
    pub topk_ns: u64,
    /// Reports the pass produced (lane reports count once per lane).
    pub reports: u64,
}

/// Reusable scratch of the leaf replay, so steady state allocates nothing —
/// as the engine's pooled scratch does.
#[derive(Default)]
pub struct LeafScratch {
    stream: Vec<u8>,
    lane_stream: LaneStream,
    state: Option<ap_sim::CompiledState>,
    lane_state: Option<ap_sim::lanes::LaneState>,
    reports: Vec<ap_sim::ReportEvent>,
    lane_reports: Vec<ap_sim::lanes::LaneReportEvent>,
    accumulators: Vec<TopK>,
    distances: Vec<u32>,
    results: Vec<Vec<Neighbor>>,
}

/// Replays one batch down the leaf calls, as
/// `PreparedEngine::try_search_batch_into` makes them: the scalar core for a
/// batch of one, the lane core for a wider one, the `binvec` kernels for a
/// behavioral workload.
pub fn replay_leaves(
    spec: &Spec,
    boards: &Boards,
    queries: &[BinaryVector],
    scratch: &mut LeafScratch,
) -> Leaves {
    assert!(
        (1..=MAX_LANES).contains(&queries.len()),
        "one lane pass at most"
    );
    let mut out = Leaves::default();
    let layout = &boards.layout;
    scratch.accumulators.truncate(queries.len());
    scratch.accumulators.iter_mut().for_each(|a| a.reset(K));
    scratch
        .accumulators
        .resize_with(queries.len(), || TopK::new(K));

    if !spec.cycle_accurate() {
        for partition in &boards.partitions {
            for (q, acc) in queries.iter().zip(&mut scratch.accumulators) {
                let t0 = Instant::now();
                partition.data.hamming_batch_into(q, &mut scratch.distances);
                let t1 = Instant::now();
                for (local, &d) in scratch.distances.iter().enumerate() {
                    acc.offer(Neighbor::new(partition.global_index(local), d));
                }
                let t2 = Instant::now();
                out.hamming_ns += (t1 - t0).as_nanos() as u64;
                out.topk_ns += (t2 - t1).as_nanos() as u64;
                out.reports += scratch.distances.len() as u64;
            }
        }
    } else {
        let lanes = queries.len() > 1;
        let t0 = Instant::now();
        if lanes {
            encode_lane_planes_into(layout, queries, &mut scratch.lane_stream);
        } else {
            layout.encode_batch_into(queries, &mut scratch.stream);
        }
        out.encode_ns = t0.elapsed().as_nanos() as u64;
        // The engine's contiguous assignment: worker w owns images
        // [w·span, (w+1)·span). Its fan-out gate (2 ms of estimated work per
        // worker) admits every requested worker on these shapes.
        let workers = spec.engine_parallelism.min(boards.images.len()).max(1);
        let span = boards.images.len().div_ceil(workers);
        let chunks = boards
            .images
            .chunks(span)
            .zip(boards.partitions.chunks(span));
        for (images, partitions) in chunks {
            let (mut sim, mut merge) = (0, 0);
            for (image, partition) in images.iter().zip(partitions) {
                let base = partition.base_index;
                let t0 = Instant::now();
                let (t1, t2);
                if lanes {
                    match scratch.lane_state.as_mut() {
                        Some(state) => image.recycle_lane_state(state),
                        None => scratch.lane_state = Some(image.new_lane_state()),
                    }
                    let state = scratch.lane_state.as_mut().expect("state just ensured");
                    scratch.lane_reports.clear();
                    image.run_lanes_into(state, &scratch.lane_stream, &mut scratch.lane_reports);
                    t1 = Instant::now();
                    let reports = &scratch.lane_reports;
                    merge_lane_reports_into(layout, reports, base, 0, &mut scratch.accumulators);
                    t2 = Instant::now();
                    out.reports += reports
                        .iter()
                        .map(|r| u64::from(r.lanes.count_ones()))
                        .sum::<u64>();
                } else {
                    match scratch.state.as_mut() {
                        Some(state) => image.recycle_state(state),
                        None => scratch.state = Some(image.new_state()),
                    }
                    let state = scratch.state.as_mut().expect("state just ensured");
                    scratch.reports.clear();
                    image.run_into(state, &scratch.stream, &mut scratch.reports);
                    t1 = Instant::now();
                    merge_reports_into(layout, &scratch.reports, base, &mut scratch.accumulators);
                    t2 = Instant::now();
                    out.reports += scratch.reports.len() as u64;
                }
                sim += (t1 - t0).as_nanos() as u64;
                merge += (t2 - t1).as_nanos() as u64;
            }
            out.sim_total_ns += sim;
            if sim + merge > out.sim_ns + out.merge_ns {
                (out.sim_ns, out.merge_ns) = (sim, merge);
            }
        }
    }

    let t0 = Instant::now();
    scratch.results.resize_with(queries.len(), Vec::new);
    for (acc, neighbors) in scratch.accumulators.iter_mut().zip(&mut scratch.results) {
        acc.drain_sorted_into(neighbors);
    }
    out.topk_ns += t0.elapsed().as_nanos() as u64;
    black_box(&scratch.results);
    out
}

/// The neighbors the last [`replay_leaves`] produced, for checking the
/// replay against the oracle.
pub fn last_results(scratch: &LeafScratch) -> &[Vec<Neighbor>] {
    &scratch.results
}

/// Simulator figures on this workload's shape.
#[derive(Default)]
pub struct SimFigures {
    /// One scalar query through every board image, µs.
    pub scalar_run_us: f64,
    /// Symbols per second of that.
    pub scalar_symbols_per_s: f64,
    /// One 64-wide lane pass over every board image, µs.
    pub lane_run_us: f64,
    /// Scalar-equivalent symbols per second of that.
    pub lane_scalar_equiv_symbols_per_s: f64,
    /// A 1-wide lane pass ÷ the scalar pass, on this same shape.
    pub lane1_vs_scalar_x: f64,
    /// Elements of the largest board image.
    pub elements_per_board: f64,
    /// Symbol classes of that image.
    pub symbol_classes: f64,
    /// Reports of one scalar pass over every image.
    pub reports_per_pass: f64,
}

/// Measures the scalar and lane cores on the rebuilt images.
pub fn sim_figures(spec: &Spec, boards: &Boards, queries: &[BinaryVector]) -> SimFigures {
    if boards.images.is_empty() {
        return SimFigures::default();
    }
    // One worker, so the pass is the sum over every image.
    let serial = Spec {
        engine_parallelism: 1,
        ..*spec
    };
    let mut scratch = LeafScratch::default();
    let mut pass = |width: usize, reps: usize| -> (u64, u64) {
        let mut reports = 0;
        // `replay_leaves` runs width 1 on the scalar core; the lane core at
        // width 1 is driven by hand below.
        let mut samples: Vec<u64> = (0..reps)
            .map(|r| {
                // Eight different batches where the pool has them.
                let batch = &queries[r % 8 * width % (queries.len() - width + 1)..][..width];
                let leaves = replay_leaves(&serial, boards, batch, &mut scratch);
                reports = leaves.reports;
                leaves.sim_total_ns
            })
            .collect();
        (p50_ns(&mut samples), reports)
    };
    let (scalar_ns, reports) = pass(1, 41);
    let (lane_ns, _) = pass(MAX_LANES, 21);

    let mut stream = LaneStream::new();
    let mut state = boards.images[0].new_lane_state();
    let mut sink = Vec::new();
    let mut lane1 = time_reps(41, || {
        encode_lane_planes_into(&boards.layout, &queries[..1], &mut stream);
        for image in &boards.images {
            image.recycle_lane_state(&mut state);
            sink.clear();
            image.run_lanes_into(&mut state, &stream, &mut sink);
        }
        black_box(&sink);
    });
    let lane1_ns = p50_ns(&mut lane1);

    let symbols = (boards.layout.window_len() * boards.images.len()) as f64;
    SimFigures {
        scalar_run_us: ns_to_us(scalar_ns),
        scalar_symbols_per_s: symbols / (scalar_ns as f64 * 1e-9),
        lane_run_us: ns_to_us(lane_ns),
        lane_scalar_equiv_symbols_per_s: symbols * MAX_LANES as f64 / (lane_ns as f64 * 1e-9),
        lane1_vs_scalar_x: lane1_ns as f64 / scalar_ns as f64,
        elements_per_board: boards.images[0].len() as f64,
        symbol_classes: boards.images[0].view().symbol_class_count() as f64,
        reports_per_pass: reports as f64,
    }
}

/// `(hamming_batch_us, topk_us)`: the `binvec` kernels over every partition
/// for one query, and `offer` of every distance plus `drain_sorted_into`.
pub fn binvec_figures(boards: &Boards, queries: &[BinaryVector]) -> (f64, f64) {
    let mut distances = Vec::new();
    let mut all = Vec::new();
    let mut hamming = time_reps(41, || {
        all.clear();
        for partition in &boards.partitions {
            partition
                .data
                .hamming_batch_into(&queries[0], &mut distances);
            all.extend_from_slice(&distances);
        }
        black_box(&all);
    });
    let mut acc = TopK::new(K);
    let mut out = Vec::new();
    let mut topk = time_reps(41, || {
        acc.reset(K);
        for (i, &d) in all.iter().enumerate() {
            acc.offer(Neighbor::new(i, d));
        }
        acc.drain_sorted_into(&mut out);
        black_box(&out);
    });
    (ns_to_us(p50_ns(&mut hamming)), ns_to_us(p50_ns(&mut topk)))
}

/// One request's frames through `Frame::encode` / `Frame::decode`:
/// `(encode_ns, decode_ns)` summed over the query frame and the result frame.
pub fn codec_round(
    spec: &Spec,
    query: &BinaryVector,
    neighbors: &[Neighbor],
    buf: &mut Vec<u8>,
) -> Result<(u64, u64), String> {
    let submit = Frame::Submit {
        options: spec.options(),
        query: query.clone(),
    };
    let completed = Frame::Completed {
        neighbors: neighbors.to_vec(),
    };
    let (mut encode, mut decode) = (0, 0);
    for frame in [&submit, &completed] {
        buf.clear();
        let t0 = Instant::now();
        frame.encode(7, buf);
        let t1 = Instant::now();
        let decoded = Frame::decode(buf).map_err(|e| format!("decode: {e}"))?;
        let t2 = Instant::now();
        encode += (t1 - t0).as_nanos() as u64;
        decode += (t2 - t1).as_nanos() as u64;
        if decoded.map(|(_, f, _)| f).as_ref() != Some(frame) {
            return Err("a frame did not survive its own codec".to_string());
        }
    }
    Ok((encode, decode))
}

/// Live-corpus and WAL figures from direct calls on scratch engines.
#[derive(Default)]
pub struct LiveFigures {
    /// `LiveEngine::apply_batch` of one insert on a durable engine, µs.
    pub apply_us: f64,
    /// `try_search_batch_into` of one query on the compacted base, µs.
    pub search_batch_us: f64,
    /// The same search with deltas and tombstones ÷ on the compacted base.
    pub delta_overhead_x: f64,
    /// `compact_now` folding those deltas and tombstones, ms.
    pub compaction_ms: f64,
    /// `Wal::append` + `Wal::sync_through` of one insert record, µs.
    pub append_sync_us: f64,
}

/// Measures the live layer directly: no server, no runtime.
pub fn live_figures(
    spec: &Spec,
    corpus: &BinaryDataset,
    queries: &[BinaryVector],
    inserts: &[BinaryVector],
) -> Result<LiveFigures, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let options = spec.options();
    // Compaction only when asked, so both states hold still while timed.
    let config = spec
        .live_config()
        .with_background(false)
        .with_compact_threshold(usize::MAX);
    let live = LiveEngine::new(spec.engine(), corpus, config).map_err(|e| err("live", &e))?;
    for v in &inserts[..32] {
        live.insert(v).map_err(|e| err("insert", &e))?;
    }
    for id in 0..16 {
        live.delete(id * 7).map_err(|e| err("delete", &e))?;
    }
    let mut results = Vec::new();
    let mut search = |live: &LiveEngine| -> Result<u64, String> {
        let mut samples = Vec::with_capacity(41);
        for r in 0..41 {
            let t0 = Instant::now();
            live.try_search_batch_into(&queries[r % 8..][..1], &options, &mut results)
                .map_err(|e| err("live search", &e))?;
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        Ok(p50_ns(&mut samples))
    };
    search(&live)?; // compiles the delta segments' images
    let churned_ns = search(&live)?;
    let t0 = Instant::now();
    live.compact_now().map_err(|e| err("compact_now", &e))?;
    let compaction = t0.elapsed();
    search(&live)?; // compiles the new base's images
    let compacted_ns = search(&live)?;
    drop(live);

    let dir = WalDir::fresh()?;
    let durable = LiveEngine::durable(
        spec.engine(),
        corpus,
        config,
        WalConfig::default(),
        dir.path(),
    )
    .map_err(|e| err("durable", &e))?;
    let mut apply = Vec::with_capacity(41);
    for v in &inserts[32..73] {
        let mutation = Mutation::Insert { vector: v.clone() };
        let t0 = Instant::now();
        let outcome = durable
            .apply_batch(&[&mutation])
            .pop()
            .expect("one outcome");
        apply.push(t0.elapsed().as_nanos() as u64);
        outcome.map_err(|e| err("apply_batch", &e))?;
    }
    drop(durable);
    drop(dir);

    let dir = WalDir::fresh()?;
    let image = CheckpointImage {
        generation: 0,
        next_id: 0,
        dims: spec.dims,
        vectors: Vec::new(),
    };
    let wal = Wal::create(dir.path(), WalConfig::default(), &image).map_err(|e| err("wal", &e))?;
    let mut append = Vec::with_capacity(41);
    for (id, v) in inserts[..41].iter().enumerate() {
        let record = WalRecord::from_mutation(&Mutation::Insert { vector: v.clone() }, id as u64);
        let t0 = Instant::now();
        let seq = wal.append(&record).map_err(|e| err("wal append", &e))?;
        wal.sync_through(seq).map_err(|e| err("wal sync", &e))?;
        append.push(t0.elapsed().as_nanos() as u64);
    }
    drop(wal);

    Ok(LiveFigures {
        apply_us: ns_to_us(p50_ns(&mut apply)),
        search_batch_us: ns_to_us(compacted_ns),
        delta_overhead_x: churned_ns as f64 / compacted_ns as f64,
        compaction_ms: ns_to_ms(compaction.as_nanos() as u64),
        append_sync_us: ns_to_us(p50_ns(&mut append)),
    })
}

/// The six AP Gen-1 run times the paper publishes — Table III (small
/// datasets, ms) and Table IV (2^20 vectors, s) — as held in
/// `crates/bench/src/bin/table3.rs` and `table4.rs`: `(dims, vectors,
/// queries, k, published seconds)`.
const TABLE3_AP_GEN1: [(usize, usize, usize, usize, f64); 3] = [
    (64, 1024, 4096, 2, 1.97e-3),
    (128, 1024, 4096, 4, 3.94e-3),
    (256, 512, 4096, 16, 7.88e-3),
];
const TABLE4_AP_GEN1: [(usize, usize, usize, usize, f64); 3] = [
    (64, 1 << 20, 4096, 2, 48.10),
    (128, 1 << 20, 4096, 4, 50.11),
    (256, 1 << 20, 4096, 16, 108.31),
];

/// `(table3 max relative error, table4 max relative error, rows checked)` of
/// `RuntimeModel::run_time_s(Platform::ApGen1, ..)` against the paper.
pub fn perf_model_errors() -> (f64, f64, f64) {
    let worst = |rows: &[(usize, usize, usize, usize, f64)]| {
        rows.iter()
            .map(|&(dims, dataset_size, queries, k, published)| {
                let job = KnnJob {
                    dims,
                    dataset_size,
                    queries,
                    k,
                };
                (RuntimeModel.run_time_s(Platform::ApGen1, &job) - published).abs() / published
            })
            .fold(0.0, f64::max)
    };
    let rows = (TABLE3_AP_GEN1.len() + TABLE4_AP_GEN1.len()) as f64;
    (worst(&TABLE3_AP_GEN1), worst(&TABLE4_AP_GEN1), rows)
}
