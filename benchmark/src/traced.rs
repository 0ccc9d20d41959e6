//! The traced run: where the round trip goes, layer by layer.
//!
//! Every span is recorded here, around a public call into a layer; nothing
//! under `crates/` is instrumented. The same seeded queries go down a ladder
//! of rungs, each rung one layer further in:
//!
//! ```text
//! client.rtt            ApClient over loopback TCP, the workload's own load shape
//! └ knn.batch           the backend call the runtime made for this request   (in situ)
//!   ├ knn.encode        StreamLayout / lane-plane encode        ┐ replayed on rebuilt
//!   ├ sim.run           run_into / run_lanes_into, every image  │ board images at the
//!   ├ knn.merge         merge_reports_into / merge_lane_…       │ width the runtime
//!   ├ binvec.hamming    hamming_batch_into (behavioral only)    │ dispatched
//!   └ binvec.topk       offer + drain_sorted_into               ┘
//! ├ net.codec           Frame::encode/decode of the request's two frames     (replayed)
//! └ runtime.inproc_rtt  ServiceRuntime::try_submit_with → TicketHandle::wait, no TCP
//!   └ knn.batch.inproc  the backend call the runtime made for it             (in situ)
//! ```
//!
//! The backend call is timed in situ on both served rungs, by a wrapper the
//! benchmark puts around the backend (the [`Tap`]). It nests inside the
//! request that caused it, so the engine's time — the large and noisy part —
//! comes off request by request: `client.rtt` minus its backend call is
//! everything the wire path adds around the engine, and `runtime.inproc_rtt`
//! minus its own is the runtime's self time (queueing, batching, completion).
//! A replayed child is not the parent's own execution, so it is set against
//! the parent between medians: the transport (socket, the server's reader
//! and writer thread hops) is what the wire path adds less the runtime's self
//! time and the codec, and `knn.batch`'s self time (fan-out, scratch
//! checkout, accounting) is its median less its leaves'. Each is floored at
//! zero, so when a replay outlasts what it replays the parts no longer add up
//! to the round trip's median: beyond [`LADDER_TOLERANCE`] the rungs
//! disagree and the run fails.
//!
//! The rungs take turns in short rounds over the same requests, so a slow
//! stretch of the machine falls on all of them alike. Before the ladder, the
//! plain workload runs on a stack without the `Tap`: the runtime's own
//! counters, the mutator's figures and the tracing overhead come from there.

use crate::e2e::{set_up, verify_live};
use crate::load::{
    beside_mutator, query_client, run_phase, Check, MutatorRun, Oracle, QueryRun, Stop, Tally,
};
use crate::metrics::PER_LAYER;
use crate::micro::{self, Boards, BuildTimes, Leaves};
use crate::spans::{breakdown, SpanLog, Under};
use crate::stats::{ns_to_ms, ns_to_us, percentile};
use crate::workload::{out_dir, query_key, Inputs, Spec, Stack, Tap, TapCall};
use crate::{json, Outcome};
use ap_knn::KnnDesign;
use ap_serve::{ServiceRuntime, ServiceStats};
use ap_sim::TimingModel;
use binvec::{BinaryVector, Neighbor};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How far the sum of the parts may sit from the round trip's median.
const LADDER_TOLERANCE: f64 = 0.10;

/// Requests the ladder needs at least.
const LADDER_MIN: usize = 200;

/// How long the wire rung runs in one round; the other rungs then replay the
/// requests it made.
const ROUND_WIRE: Duration = Duration::from_millis(500);

/// Requests whose spans the trace file keeps (the figures use all of them).
const TRACE_FILE_IDS: u64 = 256;

/// A leaf rung: span name, layer, and its duration within a replayed batch.
type LeafRung = (&'static str, &'static str, fn(&Leaves) -> u64);

/// The pinned simulated statistics.
const EXPECTED_COUNTS: &str = include_str!("../expected_counts.json");

/// The workload's query client, in process: `try_submit_with` →
/// `TicketHandle::wait`, with the same number in flight as over the wire.
fn inproc_client(
    runtime: &ServiceRuntime,
    spec: &Spec,
    queries: &[BinaryVector],
    first: usize,
    stop: Stop,
    check: &Check<'_>,
) -> Result<QueryRun, String> {
    let options = spec.options();
    let mut run = QueryRun::default();
    let started = Instant::now();
    let mut last = started;
    let mut in_flight = VecDeque::new();
    let mut next = first;
    loop {
        while stop.open(next - first) && in_flight.len() < spec.in_flight {
            let query = queries[next % queries.len()].clone();
            run.tally.attempted += 1;
            let sent = Instant::now();
            match runtime.try_submit_with(query, &options) {
                Ok(handle) => in_flight.push_back((next, sent, handle)),
                Err(_) => run.tally.failed += 1,
            }
            next += 1;
        }
        let Some((nth, sent, handle)) = in_flight.pop_front() else {
            break;
        };
        let outcome = handle.wait();
        let done = Instant::now();
        match outcome {
            Ok(c) if check.passes(nth, &queries[nth % queries.len()], &c.neighbors) => {
                run.requests.push((sent, done));
            }
            _ => run.tally.failed += 1,
        }
        last = done;
    }
    run.elapsed = last.duration_since(started);
    Ok(run)
}

/// The metric values of one traced run; anything never set reads 0.
#[derive(Default)]
struct Figures(HashMap<&'static str, f64>);

impl Figures {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a per-layer metric"
        );
        assert!(value.is_finite(), "{name} came out as {value}");
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Matches each request of `requests` (request `i` carried query `i` of the
/// cycled pool) to the backend call the runtime made for it: the call that
/// carried the request's query and fell inside its interval. A request served
/// from the cache has none.
fn calls_of<'a>(
    requests: &[(Instant, Instant)],
    queries: &[BinaryVector],
    calls: &'a [TapCall],
) -> Vec<Option<&'a TapCall>> {
    let mut by_key: HashMap<u64, VecDeque<&TapCall>> = HashMap::new();
    for call in calls {
        for key in &call.keys {
            by_key.entry(*key).or_default().push_back(call);
        }
    }
    requests
        .iter()
        .enumerate()
        .map(|(i, (sent, done))| {
            let queue = by_key.get_mut(&query_key(&queries[i % queries.len()]))?;
            // Requests come in send order, so calls that began before this
            // one was sent belong to earlier requests (or the warm-up).
            while queue.front().is_some_and(|c| c.start < *sent) {
                queue.pop_front();
            }
            queue
                .front()
                .is_some_and(|c| c.end <= *done)
                .then(|| queue.pop_front())
                .flatten()
        })
        .collect()
}

/// Runtime-side figures from the difference of two `ServiceStats` snapshots
/// around the plain workload.
fn runtime_figures(
    fig: &mut Figures,
    spec: &Spec,
    before: &ServiceStats,
    after: &ServiceStats,
    wall: Duration,
) {
    let d = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
    let batches = d(|s| s.batches_dispatched);
    let batched = d(|s| s.batched_queries);
    if batches > 0.0 {
        fig.set("runtime.batch_width_mean", batched / batches);
        fig.set(
            "runtime.batch_fill_ratio",
            batched / (batches * spec.batch_size as f64),
        );
    }
    let busy = after
        .busy_time
        .saturating_sub(before.busy_time)
        .as_secs_f64();
    fig.set(
        "runtime.busy_share",
        busy / (wall.as_secs_f64() * spec.workers as f64),
    );
    let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    if hits + misses > 0.0 {
        fig.set("runtime.cache_hit_rate", hits / (hits + misses));
    }
    fig.set(
        "runtime.queue_full_rejections",
        d(|s| s.queue_full_rejections),
    );
    fig.set("runtime.deadline_expired", d(|s| s.deadline_expired));
    // The histogram is cumulative; besides the window it holds the warm-up.
    if let Some(p) = after.queue_wait.percentile_ms(0.50) {
        fig.set("runtime.queue_wait_p50_ms", p);
    }
    if let Some(p) = after.queue_wait.percentile_ms(0.99) {
        fig.set("runtime.queue_wait_p99_ms", p);
    }
    // The paper's own device-time metric, at the batch widths dispatched.
    let served = d(|s| s.queries_served);
    if served > 0.0 {
        let estimate = TimingModel::new(KnnDesign::new(spec.dims).device).estimate(
            after.ap_symbol_cycles - before.ap_symbol_cycles,
            after.reconfigurations - before.reconfigurations,
        );
        fig.set("modeled_ap_ms_per_query", estimate.total_s() * 1e3 / served);
    }
    if let Some(p) = after.mutation_staleness.percentile_ms(0.50) {
        fig.set("live.staleness_p50_ms", p);
    }
    if let Some(p) = after.mutation_staleness.percentile_ms(0.99) {
        fig.set("live.staleness_p99_ms", p);
    }
}

/// Checks the exact counts against `expected_counts.json`. They are fixed by
/// the workload's shape and by the models, so they hold on every seed; a
/// change that is meant to speed up the host and moves one of them has
/// changed what is being simulated.
fn check_pins(fig: &Figures, workload: &str, violations: &mut Vec<String>) {
    let pins = match json::parse(EXPECTED_COUNTS) {
        Ok(pins) => pins,
        Err(e) => return violations.push(format!("expected_counts.json: {e}")),
    };
    let mut checked = 0;
    for scope in [workload, "every_workload"] {
        let Some(expected) = pins.get(scope).and_then(|s| s.as_object()) else {
            continue;
        };
        for (name, want) in expected {
            let (got, want) = (fig.get(name), want.as_f64().unwrap_or(f64::NAN));
            checked += 1;
            // Counts are integers and compare exactly; the modelled times
            // are floating-point arithmetic on exact counts.
            if (got - want).abs() > want.abs() * 1e-12 {
                violations.push(format!(
                    "{workload}: {name} is {got}, pinned at {want} — a modelled number changed"
                ));
            }
        }
    }
    if checked == 0 {
        violations.push(format!("{workload}: expected_counts.json pins nothing"));
    }
}

/// What the rungs of the ladder measured, request `i` at index `i` of each.
struct Rungs {
    /// `(sent, done)` over the wire.
    wire: Vec<(Instant, Instant)>,
    /// `(sent, done)` in process.
    inproc: Vec<(Instant, Instant)>,
    /// The backend calls the runtime made during the wire rung.
    wire_calls: Vec<TapCall>,
    /// The backend calls it made during the in-process rung.
    inproc_calls: Vec<TapCall>,
    /// The leaf calls of batch `i / width`.
    leaves: Vec<Leaves>,
}

/// One traced run in progress.
struct Trace<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    oracle: Oracle,
    /// The log's clock starts before anything it will be asked to stamp.
    log: SpanLog,
    fig: Figures,
    tally: Tally,
    violations: Vec<String>,
}

impl Trace<'_> {
    fn check(&self) -> Check<'_> {
        Check::measured(self.spec, &self.oracle)
    }

    /// Sets a stack up (with the `Tap` or without) and warms it.
    fn warm_stack(
        &mut self,
        tap: Option<&Arc<Tap>>,
    ) -> Result<(Stack, Option<MutatorRun>), String> {
        let (stack, _, correct) = set_up(self.spec, self.inputs, &self.oracle, tap)?;
        self.tally.add(Tally {
            attempted: 1,
            failed: u64::from(!correct),
        });
        let carry = self.spec.live.then(MutatorRun::default);
        let until = Instant::now() + Duration::from_millis(500);
        let (warm, carry) = run_phase(
            stack.addr,
            self.spec,
            self.inputs,
            carry,
            until,
            &self.check(),
        )?;
        self.tally.add(warm.tally);
        Ok((stack, carry))
    }

    /// The plain workload on a stack without the `Tap`: the runtime's own
    /// counters, the mutator's figures, the tail percentiles. Returns the
    /// median round trip, the reference for the tracing overhead.
    fn plain_workload(&mut self, window: Duration) -> Result<u64, String> {
        let (spec, inputs) = (self.spec, self.inputs);
        let (stack, carry) = self.warm_stack(None)?;
        let pool_before = stack.prepared.as_ref().map(|p| p.pool_stats().fresh);
        let live_before = stack.live.as_ref().map(|l| l.status());
        let stats_before = stack.runtime.stats();
        let until = Instant::now() + window;
        let (plain, mutator) = run_phase(stack.addr, spec, inputs, carry, until, &self.check())?;
        let stats_after = stack.runtime.stats();
        self.tally.add(plain.tally);
        let fig = &mut self.fig;
        runtime_figures(fig, spec, &stats_before, &stats_after, plain.elapsed);
        if let (Some(before), Some(prepared)) = (pool_before, &stack.prepared) {
            fig.set(
                "knn.pool_fresh",
                (prepared.pool_stats().fresh - before) as f64,
            );
        }
        if let Some(mut m) = mutator {
            self.tally.add(m.tally);
            if m.ack_ns.len() < LADDER_MIN {
                self.violations.push(format!(
                    "{}: only {} mutation acks",
                    spec.name,
                    m.ack_ns.len()
                ));
            }
            m.ack_ns.sort_unstable();
            m.lag_ns.sort_unstable();
            for (name, samples, p) in [
                ("mutation_ack_p50_ms", &m.ack_ns, 0.50),
                ("client.mutation_ack_p95_ms", &m.ack_ns, 0.95),
                ("client.mutator_lag_p95_ms", &m.lag_ns, 0.95),
            ] {
                if let Some(ns) = percentile(samples, p) {
                    fig.set(name, ns_to_ms(ns));
                }
            }
        }
        if let (Some(before), Some(live)) = (live_before, &stack.live) {
            let after = live.status();
            fig.set(
                "live.compactions",
                (after.compactions - before.compactions) as f64,
            );
            if let (Some(w0), Some(w1)) = (before.wal, after.wal) {
                let records = (w1.records - w0.records) as f64;
                let fsyncs = (w1.fsyncs - w0.fsyncs) as f64;
                if records > 0.0 && fsyncs > 0.0 {
                    let grouped = (w1.group_records - w0.group_records) as f64;
                    fig.set("wal.fsyncs_per_mutation", fsyncs / records);
                    fig.set("wal.group_mean", grouped / fsyncs);
                    fig.set(
                        "wal.bytes_per_mutation",
                        (w1.bytes - w0.bytes) as f64 / records,
                    );
                }
                fig.set("wal.checkpoints", (w1.checkpoints - w0.checkpoints) as f64);
            }
        }
        let mut all = plain.latencies_ns();
        all.sort_unstable();
        for (name, p) in [("query_p95_ms", 0.95), ("client.rtt_p99_ms", 0.99)] {
            if let Some(ns) = percentile(&all, p) {
                fig.set(name, ns_to_ms(ns));
            }
        }
        percentile(&all, 0.5).ok_or_else(|| "plain workload: too few round trips".to_string())
    }

    /// Climbs the ladder on a stack with the `Tap`: rounds of the wire rung,
    /// the in-process rung over the same requests, and the leaf replay of the
    /// same batches. On `live_churn` the mutator runs beside every rung, over
    /// the wire, as it does in the workload; afterwards the corpus is checked
    /// quiesced and restored.
    fn climb(&mut self, boards: &Boards, window: Duration) -> Result<Rungs, String> {
        let (spec, inputs) = (self.spec, self.inputs);
        let queries = &inputs.queries;
        let tap = Arc::new(Tap::default());
        let (stack, carry) = self.warm_stack(Some(&tap))?;
        tap.drain();

        let width = spec.dispatched_width;
        let mut rungs = Rungs {
            wire: Vec::new(),
            inproc: Vec::new(),
            wire_calls: Vec::new(),
            inproc_calls: Vec::new(),
            leaves: Vec::new(),
        };
        let mut scratch = micro::LeafScratch::default();
        let until = Instant::now() + window;
        let (check, oracle) = (self.check(), &self.oracle);
        let (tally, mutator) = beside_mutator(stack.addr, spec, inputs, carry, || {
            let mut tally = Tally::default();
            while Instant::now() < until || rungs.wire.len() < LADDER_MIN {
                let first = rungs.wire.len();
                let stop = Stop::At(Instant::now() + ROUND_WIRE);
                let a = query_client(stack.addr, spec, queries, first, stop, &check)?;
                rungs.wire_calls.extend(tap.drain());
                // Whole batches only, so every rung covers the same requests.
                let count = a.requests.len() / width * width;
                let stop = Stop::After(count);
                let b = inproc_client(&stack.runtime, spec, queries, first, stop, &check)?;
                rungs.inproc_calls.extend(tap.drain());
                tally.add(a.tally);
                tally.add(b.tally);
                if a.tally.failed + b.tally.failed > 0 || b.requests.len() != count {
                    return Err("a rung lost requests; the ladder cannot be paired".to_string());
                }
                rungs.wire.extend_from_slice(&a.requests[..count]);
                rungs.inproc.extend_from_slice(&b.requests);
                for at in (first..first + count).step_by(width) {
                    let batch: Vec<BinaryVector> = (at..at + width)
                        .map(|i| queries[i % queries.len()].clone())
                        .collect();
                    rungs
                        .leaves
                        .push(micro::replay_leaves(spec, boards, &batch, &mut scratch));
                    // The replay's answers are checked like any other.
                    if rungs.leaves.len() % 16 == 1 {
                        for (q, got) in batch.iter().zip(micro::last_results(&scratch)) {
                            let wrong = !oracle.agrees(q, got);
                            tally.add(Tally {
                                attempted: 1,
                                failed: u64::from(wrong),
                            });
                        }
                    }
                }
            }
            Ok(tally)
        })?;
        self.tally.add(tally);
        match mutator {
            Some(mutator) => {
                self.tally.add(mutator.tally);
                let (checks, restore) = verify_live(stack, spec, inputs, &mutator)?;
                self.tally.add(checks);
                self.fig
                    .set("live.restore_ms", ns_to_ms(restore.as_nanos() as u64));
            }
            None => drop(stack),
        }
        Ok(rungs)
    }

    /// Records every rung's spans (request `i`'s carry id `i`) and derives
    /// the ladder's figures from them.
    fn assemble(&mut self, rungs: &Rungs, plain_p50: u64) -> Result<(), String> {
        let (spec, queries) = (self.spec, &self.inputs.queries);
        let n = rungs.wire.len();
        let log = &mut self.log;

        // The codec rung; the result frame carries the oracle's neighbors
        // for that query (K of them, as the served one did).
        let answers: Vec<Vec<Neighbor>> = queries
            .iter()
            .take(64)
            .map(|q| self.oracle.expected(q))
            .collect();
        let mut buf = Vec::new();
        let (mut encode_ns, mut decode_ns) = (0, 0);
        for i in 0..n {
            let at = Instant::now();
            let q = i % queries.len();
            let (encode, decode) =
                micro::codec_round(spec, &queries[q], &answers[q % 64], &mut buf)?;
            encode_ns += encode;
            decode_ns += decode;
            let took = Duration::from_nanos(encode + decode);
            let under = Under::Replayed("client.rtt");
            log.record("net.codec", "ap-serve::net", i as u64, under, at, at + took);
        }
        self.fig
            .set("net.frame_encode_ns", encode_ns as f64 / n as f64);
        self.fig
            .set("net.frame_decode_ns", decode_ns as f64 / n as f64);

        let wire_batch = calls_of(&rungs.wire, queries, &rungs.wire_calls);
        let inproc_batch = calls_of(&rungs.inproc, queries, &rungs.inproc_calls);
        let leaf_rungs: [LeafRung; 5] = [
            ("knn.encode", "ap-knn", |l| l.encode_ns),
            ("sim.run", "ap-sim", |l| l.sim_ns),
            ("knn.merge", "ap-knn", |l| l.merge_ns),
            ("binvec.hamming", "binvec", |l| l.hamming_ns),
            ("binvec.topk", "binvec", |l| l.topk_ns),
        ];
        for i in 0..n {
            let id = i as u64;
            let (sent, done) = rungs.wire[i];
            log.record("client.rtt", "client", id, Under::Nothing, sent, done);
            let (sent, done) = rungs.inproc[i];
            let under = Under::Replayed("client.rtt");
            log.record(
                "runtime.inproc_rtt",
                "ap-serve::runtime",
                id,
                under,
                sent,
                done,
            );
            if let Some(call) = inproc_batch[i] {
                let under = Under::InSitu("runtime.inproc_rtt");
                log.record(
                    "knn.batch.inproc",
                    "ap-knn",
                    id,
                    under,
                    call.start,
                    call.end,
                );
            }
            let Some(call) = wire_batch[i] else { continue };
            let under = Under::InSitu("client.rtt");
            log.record("knn.batch", "ap-knn", id, under, call.start, call.end);
            // The replayed leaves are durations, laid end to end from the
            // batch's start.
            let mut at = call.start;
            for (name, layer, ns) in leaf_rungs {
                let took = Duration::from_nanos(ns(&rungs.leaves[i / spec.dispatched_width]));
                if !took.is_zero() {
                    log.record(name, layer, id, Under::Replayed("knn.batch"), at, at + took);
                    at += took;
                }
            }
        }

        let parts = breakdown(log.spans());
        let dur = |name: &str| {
            parts
                .durations
                .get(name)
                .and_then(|v| percentile(v, 0.5))
                .unwrap_or(0) as f64
        };
        let own = |name: &str| {
            parts
                .selfs
                .get(name)
                .and_then(|v| percentile(v, 0.5))
                .unwrap_or(0) as f64
        };
        let root = dur("client.rtt");
        let codec = dur("net.codec");
        let runtime_self = own("runtime.inproc_rtt");
        let transport = (own("client.rtt") - runtime_self - codec).max(0.0);
        let sim_run = dur("sim.run");
        let other_leaves =
            dur("knn.encode") + dur("knn.merge") + dur("binvec.hamming") + dur("binvec.topk");
        let knn_self = (dur("knn.batch") - sim_run - other_leaves).max(0.0);
        let made_of = [
            ("share.net_codec", codec),
            ("share.net_transport_self", transport),
            ("share.runtime_self", runtime_self),
            ("share.knn_self", knn_self),
            ("share.sim_run", sim_run),
            ("share.knn_leaves_other", other_leaves),
        ];
        let rebuilt: f64 = made_of.iter().map(|(_, ns)| ns).sum();
        let gap = (rebuilt - root).abs() / root;
        if gap > LADDER_TOLERANCE {
            self.violations.push(format!(
                "{}: the ladder's parts sum to {:.1} us, client.rtt's median is {:.1} us: \
                 {:.1} % apart, over the {:.0} % allowed — the rungs disagree",
                spec.name,
                rebuilt / 1e3,
                root / 1e3,
                gap * 100.0,
                LADDER_TOLERANCE * 100.0
            ));
        }
        let fig = &mut self.fig;
        for (name, ns) in made_of {
            fig.set(name, ns / root);
        }
        fig.set("client.samples", n as f64);
        fig.set("client.rtt_p50_ms", root / 1e6);
        fig.set(
            "client.trace_overhead_share",
            (root - plain_p50 as f64) / plain_p50 as f64,
        );
        fig.set("client.ladder_gap_share", gap);
        fig.set("net.transport_self_us", transport / 1e3);
        fig.set("runtime.inproc_rtt_p50_us", dur("runtime.inproc_rtt") / 1e3);
        fig.set("runtime.self_us", runtime_self / 1e3);
        fig.set("knn.batch_us", dur("knn.batch") / 1e3);
        fig.set("knn.self_us", knn_self / 1e3);
        fig.set("knn.encode_us", dur("knn.encode") / 1e3);
        fig.set("knn.merge_us", dur("knn.merge") / 1e3);
        if !rungs.wire_calls.is_empty() {
            let keys: usize = rungs.wire_calls.iter().map(|c| c.keys.len()).sum();
            fig.set(
                "knn.batch_width",
                keys as f64 / rungs.wire_calls.len() as f64,
            );
        }
        Ok(())
    }

    /// Figures from direct calls into single layers, and the exact counts.
    fn single_layers(&mut self, build: &BuildTimes, boards: &Boards) -> Result<(), String> {
        let (spec, inputs) = (self.spec, self.inputs);
        let queries = &inputs.queries;
        let fig = &mut self.fig;
        fig.set("knn.prepare_ms", build.prepare_ms);
        fig.set("knn.compile_ms", build.compile_ms);
        fig.set("sim.compile_ms", build.sim_compile_ms);
        fig.set("analyze.verify_ms", build.verify_ms);

        let width = spec.dispatched_width as f64;
        let stats = micro::run_stats(spec, &inputs.corpus, queries);
        fig.set("knn.board_count", stats.board_configurations as f64);
        fig.set(
            "knn.symbols_streamed_per_query",
            stats.symbols_streamed as f64 / width,
        );
        fig.set("knn.reports_per_query", stats.reports as f64 / width);
        fig.set("knn.reconfigs_per_batch", stats.reconfigurations as f64);
        fig.set(
            "knn.modeled_device_ms_per_batch",
            stats.total_seconds() * 1e3,
        );

        let sim = micro::sim_figures(spec, boards, queries);
        fig.set("sim.scalar_run_us", sim.scalar_run_us);
        fig.set("sim.scalar_symbols_per_s", sim.scalar_symbols_per_s);
        fig.set("sim.lane_run_us", sim.lane_run_us);
        fig.set(
            "sim.lane_scalar_equiv_symbols_per_s",
            sim.lane_scalar_equiv_symbols_per_s,
        );
        fig.set("sim.lane1_vs_scalar_x", sim.lane1_vs_scalar_x);
        fig.set("sim.elements_per_board", sim.elements_per_board);
        fig.set("sim.symbol_classes", sim.symbol_classes);
        fig.set("sim.reports_per_pass", sim.reports_per_pass);
        let (hamming_us, topk_us) = micro::binvec_figures(boards, queries);
        fig.set("binvec.hamming_batch_us", hamming_us);
        fig.set("binvec.topk_us", topk_us);
        let mut scan: Vec<u64> = (0..41)
            .map(|i| {
                let started = Instant::now();
                std::hint::black_box(self.oracle.expected(&queries[i % queries.len()]));
                started.elapsed().as_nanos() as u64
            })
            .collect();
        fig.set(
            "baselines.linear_scan_us",
            ns_to_us(micro::p50_ns(&mut scan)),
        );
        let (table3, table4, rows) = micro::perf_model_errors();
        fig.set("perf-model.table3_ap_max_rel_err", table3);
        fig.set("perf-model.table4_ap_max_rel_err", table4);
        fig.set("perf-model.rows_checked", rows);

        if spec.live {
            let live = micro::live_figures(spec, &inputs.corpus, queries, &inputs.inserts)?;
            fig.set("live.apply_us", live.apply_us);
            fig.set("live.search_batch_us", live.search_batch_us);
            fig.set("live.delta_overhead_x", live.delta_overhead_x);
            fig.set("live.compaction_ms", live.compaction_ms);
            fig.set("wal.append_sync_us", live.append_sync_us);
        }
        Ok(())
    }

    /// Writes `benchmark/out/trace-<workload>.json`: this run's stamp and the
    /// first requests' spans.
    fn write_trace(&mut self, seed: u64, requests: usize) -> Result<(), String> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        self.log.truncate_ids(TRACE_FILE_IDS);
        let path = dir.join(format!("trace-{}.json", self.spec.name));
        let trace = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"nproc\": {}, \
             \"requests_on_every_rung\": {requests}, \
             \"spans_kept_for_ids_below\": {TRACE_FILE_IDS}, \"spans\": {}}}\n",
            json::quote(self.spec.name),
            crate::workload::nproc(),
            self.log.to_json()
        );
        std::fs::write(&path, trace).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Runs the workload traced, within about `seconds` of load: three tenths of
/// it on the plain workload, half on the ladder.
pub fn run(spec: &Spec, inputs: &Inputs, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut trace = Trace {
        spec,
        inputs,
        oracle: Oracle::new(&inputs.corpus),
        log: SpanLog::new(),
        fig: Figures::default(),
        tally: Tally::default(),
        violations: Vec::new(),
    };
    let budget = Duration::from_secs(seconds);
    let (build, boards) = micro::build(spec, &inputs.corpus)?;
    let plain_p50 = trace.plain_workload(budget * 3 / 10)?;
    let rungs = trace.climb(&boards, budget / 2)?;
    trace.assemble(&rungs, plain_p50)?;
    trace.single_layers(&build, &boards)?;
    let Trace {
        fig,
        tally,
        violations,
        ..
    } = &mut trace;
    fig.set(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    check_pins(fig, spec.name, violations);
    trace.write_trace(seed, rungs.wire.len())?;

    Ok(Outcome {
        tally: trace.tally,
        violations: trace.violations,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.0, trace.fig.get(m.0)))
            .collect(),
        samples: vec![
            ("client.samples", rungs.wire.len()),
            ("knn.batch_us", rungs.wire_calls.len()),
            ("knn.encode_us", rungs.leaves.len()),
        ],
        repetitions: Vec::new(),
    })
}
