//! The metric and workload vocabulary: one table that `BENCHMARK.json`, the
//! printed results and the README all follow.

use crate::json::quote;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "rtt_scalar",
        "one closed-loop client, batches of 1 on the scalar cycle-accurate core: ROADMAP's open \
         question of where the round trip goes beside the engine batch",
    ),
    (
        "pipelined_lanes",
        "128 queries in flight on one connection, 64-wide lane batches fanned over scoped \
         threads: lane core, lane encode/demux and queue wait, none of which rtt_scalar runs",
    ),
    (
        "wire_bound",
        "behavioral execution over 16384x128 bypasses the simulator, so codec, socket hop, \
         queue and the Hamming/top-k kernels are the whole cost; a simulator change predicts \
         no change here",
    ),
    (
        "live_churn",
        "durable LiveEngine read cycle-accurately beside a mutator paced open-loop at 200/s: \
         delta compile, compaction, fsync and cache flushes tax the same read path",
    ),
];

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// What a user of the served system sees; measured with tracing off.
///
/// Every bound is the widest the driver's contract allows. On the 2-vCPU VMs
/// this runs on, ten identical runs of a workload spread (first to third
/// quartile over the median) 2 % in a quiet half hour and 12 % in a busy one,
/// and nothing the benchmark does moves that; a narrower bound would reject
/// the machine, not the change.
pub const END_TO_END: [EndToEnd; 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("query_qps", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// What the traced run reports, layer by layer. A metric that does not apply
/// to a workload (the WAL on a static corpus, the simulator on `wire_bound`)
/// reads 0 there.
pub const PER_LAYER: [PerLayer; 72] = [
    // Named end-to-end by the issue, kept here under the same names because
    // the driver's contract cannot hold them there (see README).
    ("query_p95_ms", "ms", "lower"),
    ("failed_share", "ratio", "lower"),
    ("modeled_ap_ms_per_query", "sim_ms", "lower"),
    ("mutation_ack_p50_ms", "ms", "lower"),
    // client
    ("client.samples", "count", "higher"),
    ("client.rtt_p50_ms", "ms", "lower"),
    ("client.rtt_p99_ms", "ms", "lower"),
    ("client.mutation_ack_p95_ms", "ms", "lower"),
    ("client.mutator_lag_p95_ms", "ms", "lower"),
    ("client.trace_overhead_share", "ratio", "lower"),
    ("client.ladder_gap_share", "ratio", "lower"),
    // ap-serve::net
    ("net.frame_encode_ns", "ns", "lower"),
    ("net.frame_decode_ns", "ns", "lower"),
    ("net.transport_self_us", "us", "lower"),
    // ap-serve::runtime / queue / cache
    ("runtime.inproc_rtt_p50_us", "us", "lower"),
    ("runtime.self_us", "us", "lower"),
    ("runtime.queue_wait_p50_ms", "ms", "lower"),
    ("runtime.queue_wait_p99_ms", "ms", "lower"),
    ("runtime.batch_width_mean", "count", "higher"),
    ("runtime.batch_fill_ratio", "ratio", "higher"),
    ("runtime.busy_share", "ratio", "higher"),
    ("runtime.cache_hit_rate", "ratio", "higher"),
    ("runtime.queue_full_rejections", "count", "lower"),
    ("runtime.deadline_expired", "count", "lower"),
    // ap-knn::prepared / stream / lanes / decode
    ("knn.batch_us", "us", "lower"),
    ("knn.batch_width", "count", "higher"),
    ("knn.encode_us", "us", "lower"),
    ("knn.merge_us", "us", "lower"),
    ("knn.self_us", "us", "lower"),
    ("knn.prepare_ms", "ms", "lower"),
    ("knn.compile_ms", "ms", "lower"),
    ("knn.pool_fresh", "count", "lower"),
    ("knn.board_count", "count", "lower"),
    ("knn.symbols_streamed_per_query", "count", "lower"),
    ("knn.reports_per_query", "count", "lower"),
    ("knn.reconfigs_per_batch", "count", "lower"),
    ("knn.modeled_device_ms_per_batch", "sim_ms", "lower"),
    // ap-sim::compiled / lanes
    ("sim.scalar_run_us", "us", "lower"),
    ("sim.scalar_symbols_per_s", "1/s", "higher"),
    ("sim.lane_run_us", "us", "lower"),
    ("sim.lane_scalar_equiv_symbols_per_s", "1/s", "higher"),
    ("sim.lane1_vs_scalar_x", "ratio", "lower"),
    ("sim.compile_ms", "ms", "lower"),
    ("sim.elements_per_board", "count", "lower"),
    ("sim.symbol_classes", "count", "lower"),
    ("sim.reports_per_pass", "count", "lower"),
    // binvec
    ("binvec.hamming_batch_us", "us", "lower"),
    ("binvec.topk_us", "us", "lower"),
    // ap-knn::live / ap-knn::wal
    ("live.apply_us", "us", "lower"),
    ("live.search_batch_us", "us", "lower"),
    ("live.delta_overhead_x", "ratio", "lower"),
    ("live.compactions", "count", "lower"),
    ("live.compaction_ms", "ms", "lower"),
    ("live.staleness_p50_ms", "ms", "lower"),
    ("live.staleness_p99_ms", "ms", "lower"),
    ("live.restore_ms", "ms", "lower"),
    ("wal.append_sync_us", "us", "lower"),
    ("wal.fsyncs_per_mutation", "ratio", "lower"),
    ("wal.group_mean", "count", "higher"),
    ("wal.bytes_per_mutation", "count", "lower"),
    ("wal.checkpoints", "count", "lower"),
    // ap-analyze, baselines
    ("analyze.verify_ms", "ms", "lower"),
    ("baselines.linear_scan_us", "us", "lower"),
    // perf-model against the paper's published AP Gen-1 run times
    ("perf-model.table3_ap_max_rel_err", "ratio", "lower"),
    ("perf-model.table4_ap_max_rel_err", "ratio", "lower"),
    ("perf-model.rows_checked", "count", "higher"),
    // Shares of the traced client round trip's median: where it goes.
    ("share.net_codec", "ratio", "lower"),
    ("share.net_transport_self", "ratio", "lower"),
    ("share.runtime_self", "ratio", "lower"),
    ("share.knn_self", "ratio", "lower"),
    ("share.sim_run", "ratio", "lower"),
    ("share.knn_leaves_other", "ratio", "lower"),
];

/// The unit of the metric called `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let why = why.split_whitespace().collect::<Vec<_>>().join(" ");
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            quote(name),
            quote(&why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}{comma}",
            quote(name),
            quote(unit),
            quote(better)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quote(name),
            quote(unit),
            quote(better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_manifest_meets_the_contract() {
        let text = manifest();
        assert!(text.len() <= 64 * 1024);
        let v = parse(&text).expect("the manifest is JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let mut names = HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && names.insert(name), "{name}");
            let why = why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {}",
                why.len()
            );
        }
        for (name, unit, better, bound) in END_TO_END {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(["lower", "higher"].contains(&better));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for (name, unit, better) in PER_LAYER {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(["lower", "higher"].contains(&better));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        let Some(Value::Array(per_layer)) = v.get("per_layer") else {
            panic!("per_layer")
        };
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert_eq!(unit_of("query_qps"), Some("1/s"));
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = crate::workload::bench_dir().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `apbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn workload_names_match_the_specs() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names, crate::workload::NAMES);
    }
}
