//! Service-level accounting: throughput, batching efficiency and cache
//! behavior — and the one list of named metrics
//! ([`ServiceStats::metrics`]) that the wire `Stats` frame, the human report
//! and the CLIs all render.

use ap_knn::LiveStatus;
use std::fmt;
use std::time::Duration;

/// Geometric growth factor between adjacent latency-histogram buckets (~11
/// buckets per decade, so any reported percentile is within +50% of the true
/// value — plenty for the decomposition the histogram exists for).
const BUCKET_GROWTH: f64 = 1.5;

/// Bucket count: `1.5^80` µs is far beyond any latency this service can see.
const BUCKETS: usize = 80;

/// A fixed-footprint log-bucketed latency histogram.
///
/// Recording is O(1) and allocation-free after construction, so the runtime
/// can record one sample per dispatched query under its stats lock without
/// widening the critical section. Bucket `i` holds samples in
/// `(1.5^(i-1), 1.5^i]` microseconds; a percentile reads back the upper bound
/// of the bucket the rank lands in.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_micros: u64,
    max_micros: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }
}

impl LatencyHistogram {
    /// Upper bound of bucket `i`, in microseconds.
    fn bucket_bound_micros(i: usize) -> f64 {
        BUCKET_GROWTH.powi(i as i32)
    }

    /// The bucket a sample of `micros` microseconds lands in.
    fn bucket_for(micros: u64) -> usize {
        if micros <= 1 {
            return 0;
        }
        let idx = (micros as f64).ln() / BUCKET_GROWTH.ln();
        (idx.ceil() as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let micros = sample.as_micros().min(u64::MAX as u128) as u64;
        self.counts[Self::bucket_for(micros)] += 1;
        self.total += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (0 < p <= 1) in milliseconds, `None` before the
    /// first sample. Reported as the upper bound of the rank's bucket, capped
    /// at the largest sample actually observed.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((self.total as f64 * p).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let bound = Self::bucket_bound_micros(i).min(self.max_micros as f64);
                return Some(bound / 1e3);
            }
        }
        Some(self.max_micros as f64 / 1e3)
    }

    /// Mean sample in milliseconds, `None` before the first sample.
    pub fn mean_ms(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum_micros as f64 / self.total as f64 / 1e3)
    }

    /// The largest sample in milliseconds, `None` before the first sample.
    pub fn max_ms(&self) -> Option<f64> {
        (self.total > 0).then(|| self.max_micros as f64 / 1e3)
    }

    /// The sample count and p50/p95/p99 as a [`MetricValue::Latency`],
    /// `None` before the first sample.
    pub fn summary(&self) -> Option<MetricValue> {
        Some(MetricValue::Latency {
            count: self.total,
            percentiles_ms: [
                self.percentile_ms(0.50)?,
                self.percentile_ms(0.95)?,
                self.percentile_ms(0.99)?,
            ],
        })
    }
}

/// The value of one [`MetricEntry`]: the three kinds a stats snapshot holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonic or configured whole number.
    Count(u64),
    /// A point-in-time or derived real number (a ratio, a rate, milliseconds).
    Gauge(f64),
    /// A latency distribution.
    Latency {
        /// Samples recorded.
        count: u64,
        /// Their p50, p95 and p99, in milliseconds.
        percentiles_ms: [f64; 3],
    },
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Count(value) => write!(f, "{value}"),
            Self::Gauge(value) => write!(f, "{value:.3}"),
            Self::Latency {
                count,
                percentiles_ms: [p50, p95, p99],
            } => write!(f, "p50/p95/p99 {p50:.2}/{p95:.2}/{p99:.2} ms ({count})"),
        }
    }
}

/// One named metric: `group.name` and its value.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    /// The metric's `group.name` (see [`ServiceStats::metrics`]).
    pub name: String,
    /// Its value.
    pub value: MetricValue,
}

/// An ordered list of [`MetricEntry`]s — what [`ServiceStats::metrics`] yields
/// and what a wire `Stats` frame carries. Lookups are by name; `Display`
/// renders `name value | name value | …`, leaving out the zero entries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<MetricEntry>);

impl Metrics {
    /// The value recorded under `name`, if the list has one.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        let entry = self.0.iter().find(|entry| entry.name == name)?;
        Some(entry.value)
    }

    /// The [`MetricValue::Count`] recorded under `name`.
    pub fn count(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Count(value) => Some(value),
            _ => None,
        }
    }

    /// The [`MetricValue::Gauge`] recorded under `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricValue::Gauge(value) => Some(value),
            _ => None,
        }
    }

    /// The `[p50, p95, p99]` milliseconds of the [`MetricValue::Latency`]
    /// recorded under `name`.
    pub fn latency_ms(&self, name: &str) -> Option<[f64; 3]> {
        match self.get(name)? {
            MetricValue::Latency { percentiles_ms, .. } => Some(percentiles_ms),
            _ => None,
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let zero = [MetricValue::Count(0), MetricValue::Gauge(0.0)];
        let shown = self.0.iter().filter(|entry| !zero.contains(&entry.value));
        for (i, MetricEntry { name, value }) in shown.enumerate() {
            let separator = if i == 0 { "" } else { " | " };
            write!(f, "{separator}{name} {value}")?;
        }
        Ok(())
    }
}

/// Cumulative statistics for one [`crate::ServiceRuntime`].
///
/// Conservation invariant: every admitted query (one minted ticket) resolves
/// exactly once, so after all tickets complete
/// `queries_submitted == queries_served + failed_queries + deadline_expired`.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// The service's configured batch size (recorded into the snapshot so the
    /// fill ratio can't be computed against the wrong denominator).
    pub batch_size: usize,
    /// Worker threads serving dispatches (0 when the caller drives `poll`).
    pub workers: usize,
    /// The service's configured admission-queue capacity.
    pub queue_capacity: usize,
    /// The service's configured result-cache capacity.
    pub cache_capacity: usize,
    /// Queries accepted by `submit` (a ticket was minted).
    pub queries_submitted: u64,
    /// Queries whose results have been produced (served from the engine or the
    /// cache).
    pub queries_served: u64,
    /// Queries answered straight from the result cache.
    pub cache_hits: u64,
    /// Queries that had to be dispatched to the backend.
    pub cache_misses: u64,
    /// Batches dispatched to the backend.
    pub batches_dispatched: u64,
    /// Batches dispatched at exactly the configured batch size.
    pub full_batches: u64,
    /// Queries carried by dispatched batches.
    pub batched_queries: u64,
    /// Batches whose dispatch failed (their queries complete with per-ticket
    /// errors instead of neighbors).
    pub failed_batches: u64,
    /// Queries carried by failed batches.
    pub failed_queries: u64,
    /// Queries failed with [`binvec::SearchError::DeadlineExceeded`] — at
    /// admission or at scheduling — without ever being dispatched.
    pub deadline_expired: u64,
    /// Submissions rejected with [`binvec::SearchError::QueueFull`] before a
    /// ticket was minted (not part of [`Self::queries_submitted`]).
    pub queue_full_rejections: u64,
    /// AP symbol cycles charged across all dispatched batches.
    pub ap_symbol_cycles: u64,
    /// Partial reconfigurations across all dispatched batches.
    pub reconfigurations: u64,
    /// Wall-clock time spent inside *successful* backend dispatches. Failed
    /// dispatches accrue [`Self::failed_time`] instead, so
    /// [`Self::busy_throughput_qps`] is not inflated by work that produced no
    /// results.
    pub busy_time: Duration,
    /// Wall-clock time spent inside failed backend dispatches.
    pub failed_time: Duration,
    /// Wall-clock time since the service was created.
    pub uptime: Duration,
    /// Submit→dispatch latency of every dispatched query (time spent waiting
    /// in the admission queue) — the queue's share of network-visible latency.
    /// Queries resolved without a dispatch (cache hits, shed deadlines) record
    /// nothing here.
    pub queue_wait: LatencyHistogram,
    /// The live backend's status — generation, delta and tombstone load, and
    /// the write-ahead-log gauges when it is durable — as of runtime start
    /// or the most recent applied mutation batch, whichever is later. `None`
    /// for frozen-corpus backends.
    pub live: Option<LiveStatus>,
    /// Mutations accepted by `try_submit_mutation` (a ticket was minted).
    /// Mutations satisfy their own conservation invariant:
    /// `mutations_submitted == mutations_applied + mutations_failed` once all
    /// mutation tickets resolve.
    pub mutations_submitted: u64,
    /// Mutations applied and acknowledged by the backend.
    pub mutations_applied: u64,
    /// Mutations that failed — refused by the backend (e.g. a delete of an
    /// unknown id, or any mutation on a frozen backend) or shed because their
    /// deadline passed before a worker reached them.
    pub mutations_failed: u64,
    /// Submit→visible staleness of every applied mutation: the time from
    /// `try_submit_mutation` to the epoch swap that made the mutation
    /// observable by queries (the ack is delivered after this is recorded).
    pub mutation_staleness: LatencyHistogram,
    /// Lane width of the cycle-accurate execution core (64 once any
    /// dispatched batch ran cycle-accurately, 0 if none has yet).
    pub lane_width: usize,
    /// Cycle-accurate batches (every one runs on the lane core).
    pub lane_batches: u64,
    /// Sum of per-batch lane fill (queries / lane slots) over
    /// [`Self::lane_batches`]; read through [`Self::lane_fill`].
    pub lane_fill_sum: f64,
}

impl ServiceStats {
    /// Fraction of dispatched batch slots that carried a query (1.0 = every
    /// batch was full). `None` before the first dispatch.
    pub fn batch_fill_ratio(&self) -> Option<f64> {
        (self.batches_dispatched > 0 && self.batch_size > 0).then(|| {
            self.batched_queries as f64 / (self.batches_dispatched * self.batch_size as u64) as f64
        })
    }

    /// Fraction of served queries answered by the cache. `None` before any
    /// query was served.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let looked_up = self.cache_hits + self.cache_misses;
        (looked_up > 0).then(|| self.cache_hits as f64 / looked_up as f64)
    }

    /// Served queries per second of wall-clock uptime.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs > 0.0 {
            self.queries_served as f64 / secs
        } else {
            0.0
        }
    }

    /// Engine-dispatched queries per second of backend busy time — the
    /// engine-side rate. Cache hits never reach the backend, so they are
    /// excluded from this figure (they do count toward
    /// [`Self::throughput_qps`]).
    pub fn busy_throughput_qps(&self) -> f64 {
        let secs = self.busy_time.as_secs_f64();
        if secs > 0.0 {
            self.batched_queries as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean lane occupancy of cycle-accurate batches (1.0 = every pass carried
    /// 64 queries). `None` before the first cycle-accurate batch.
    pub fn lane_fill(&self) -> Option<f64> {
        (self.lane_batches > 0).then(|| self.lane_fill_sum / self.lane_batches as f64)
    }

    /// Every metric of this snapshot as a named list, in the order of the
    /// metrics table: `config.*` (the runtime's shape), `queries.*`,
    /// `batches.*`, `cache.*`, `ap.*`, `lanes.*`, `mutations.*`, `live.*`,
    /// `wal.*`, `uptime.*`. A latency with no sample yet, and every `live.*` /
    /// `wal.*` metric of a backend without a live corpus / a write-ahead log,
    /// yields no entry.
    pub fn metrics(&self) -> Metrics {
        let entries = METRICS.iter().filter_map(|&(name, read)| {
            Some(MetricEntry {
                name: name.to_string(),
                value: read(self)?,
            })
        });
        Metrics(entries.collect())
    }

    /// Renders a compact human-readable report: the [`Self::metrics`] list.
    pub fn report(&self) -> String {
        self.metrics().to_string()
    }
}

/// One row of the metrics table: the metric's name and how to read it off a
/// [`ServiceStats`] — [`count`], [`gauge`] or a histogram's `summary` fixes
/// its kind. A reader returning `None` yields no entry.
type Row = (&'static str, fn(&ServiceStats) -> Option<MetricValue>);

fn count(value: u64) -> Option<MetricValue> {
    Some(MetricValue::Count(value))
}

fn gauge(value: f64) -> Option<MetricValue> {
    Some(MetricValue::Gauge(value))
}

fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Every metric a stats snapshot exposes, in rendering order. This table is
/// the only place a metric is named: adding one is adding a row.
static METRICS: &[Row] = &[
    ("config.workers", |s| count(s.workers as u64)),
    ("config.queue_capacity", |s| count(s.queue_capacity as u64)),
    ("config.batch_size", |s| count(s.batch_size as u64)),
    ("config.cache_capacity", |s| count(s.cache_capacity as u64)),
    ("queries.submitted", |s| count(s.queries_submitted)),
    ("queries.served", |s| count(s.queries_served)),
    ("queries.failed", |s| count(s.failed_queries)),
    ("queries.deadline_expired", |s| count(s.deadline_expired)),
    ("queries.queue_full", |s| count(s.queue_full_rejections)),
    ("queries.queue_wait", |s| s.queue_wait.summary()),
    ("batches.dispatched", |s| count(s.batches_dispatched)),
    ("batches.full", |s| count(s.full_batches)),
    ("batches.queries", |s| count(s.batched_queries)),
    ("batches.failed", |s| count(s.failed_batches)),
    ("batches.fill", |s| {
        s.batch_fill_ratio().map(MetricValue::Gauge)
    }),
    ("batches.busy_ms", |s| gauge(millis(s.busy_time))),
    ("batches.failed_ms", |s| gauge(millis(s.failed_time))),
    ("batches.busy_qps", |s| gauge(s.busy_throughput_qps())),
    ("cache.hits", |s| count(s.cache_hits)),
    ("cache.misses", |s| count(s.cache_misses)),
    ("cache.hit_rate", |s| {
        s.cache_hit_rate().map(MetricValue::Gauge)
    }),
    ("ap.symbol_cycles", |s| count(s.ap_symbol_cycles)),
    ("ap.reconfigurations", |s| count(s.reconfigurations)),
    ("lanes.width", |s| count(s.lane_width as u64)),
    ("lanes.batches", |s| count(s.lane_batches)),
    ("lanes.fill", |s| s.lane_fill().map(MetricValue::Gauge)),
    ("mutations.submitted", |s| count(s.mutations_submitted)),
    ("mutations.applied", |s| count(s.mutations_applied)),
    ("mutations.failed", |s| count(s.mutations_failed)),
    ("mutations.staleness", |s| s.mutation_staleness.summary()),
    ("live.generation", |s| count(s.live?.generation)),
    ("live.delta_vectors", |s| {
        count(s.live?.delta_vectors as u64)
    }),
    ("live.tombstones", |s| count(s.live?.tombstones as u64)),
    ("live.delta_fill", |s| gauge(s.live?.fill())),
    ("wal.records", |s| count(s.live?.wal?.records)),
    ("wal.bytes", |s| count(s.live?.wal?.bytes)),
    ("wal.fsyncs", |s| count(s.live?.wal?.fsyncs)),
    ("wal.group_mean", |s| gauge(s.live?.wal?.group_mean())),
    ("wal.group_max", |s| count(s.live?.wal?.group_max)),
    ("wal.checkpoints", |s| count(s.live?.wal?.checkpoints)),
    ("wal.replayed", |s| count(s.live?.wal?.replayed)),
    ("wal.truncated_bytes", |s| {
        count(s.live?.wal?.truncated_bytes)
    }),
    ("uptime.ms", |s| gauge(millis(s.uptime))),
    ("uptime.wall_qps", |s| gauge(s.throughput_qps())),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_and_populated_states() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.batch_fill_ratio(), None);
        assert_eq!(stats.cache_hit_rate(), None);
        assert_eq!(stats.throughput_qps(), 0.0);

        stats.batch_size = 7;
        stats.batches_dispatched = 2;
        stats.batched_queries = 10;
        stats.full_batches = 1;
        stats.cache_hits = 3;
        stats.cache_misses = 10;
        stats.queries_served = 13;
        stats.uptime = Duration::from_secs(2);

        assert!((stats.batch_fill_ratio().unwrap() - 10.0 / 14.0).abs() < 1e-12);
        assert!((stats.cache_hit_rate().unwrap() - 3.0 / 13.0).abs() < 1e-12);
        assert!((stats.throughput_qps() - 6.5).abs() < 1e-12);
        let report = stats.report();
        assert!(report.contains("queries.served 13 | "), "{report}");
        assert!(report.contains("batches.dispatched 2 | batches.full 1 | batches.queries 10"));
        assert!(report.contains("batches.fill 0.714"));
        assert!(report.contains("cache.hits 3 | cache.misses 10 | cache.hit_rate 0.231"));
        assert_eq!(report, stats.metrics().to_string());
        assert!(
            !report.contains("submitted") && !report.contains("failed"),
            "zero entries are left out: {report}"
        );
    }

    #[test]
    fn latency_histogram_percentiles_bracket_the_samples() {
        let mut hist = LatencyHistogram::default();
        assert_eq!(hist.percentile_ms(0.5), None);
        assert_eq!(hist.mean_ms(), None);

        // 99 samples at ~1 ms, one at ~100 ms.
        for _ in 0..99 {
            hist.record(Duration::from_millis(1));
        }
        hist.record(Duration::from_millis(100));
        assert_eq!(hist.count(), 100);

        let p50 = hist.percentile_ms(0.50).unwrap();
        assert!((0.9..2.0).contains(&p50), "p50 {p50} should bracket 1 ms");
        let p99 = hist.percentile_ms(0.99).unwrap();
        assert!((0.9..2.0).contains(&p99), "p99 {p99} rank lands on 1 ms");
        let p100 = hist.percentile_ms(1.0).unwrap();
        assert!(
            (90.0..150.0).contains(&p100),
            "p100 {p100} should bracket 100 ms"
        );
        assert_eq!(hist.max_ms(), Some(100.0));
        let mean = hist.mean_ms().unwrap();
        assert!((1.5..2.5).contains(&mean), "mean {mean} ≈ 1.99 ms");
    }

    #[test]
    fn zero_and_tiny_samples_land_in_the_first_bucket() {
        let mut hist = LatencyHistogram::default();
        hist.record(Duration::ZERO);
        hist.record(Duration::from_nanos(1));
        assert_eq!(hist.count(), 2);
        let p100 = hist.percentile_ms(1.0).unwrap();
        assert!(p100 <= 0.001, "sub-microsecond samples stay tiny: {p100}");
    }

    fn live_status() -> LiveStatus {
        LiveStatus {
            generation: 7,
            delta_vectors: 3,
            tombstones: 1,
            compact_threshold: 8,
            ..LiveStatus::default()
        }
    }

    #[test]
    fn mutation_staleness_and_gauges_surface_in_the_report() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.mutation_staleness.summary(), None);
        assert_eq!(stats.report(), "", "nothing counted, nothing printed");

        stats.mutations_submitted = 5;
        stats.mutations_applied = 4;
        stats.mutations_failed = 1;
        stats.live = Some(live_status());
        stats.mutation_staleness.record(Duration::from_millis(2));
        let metrics = stats.metrics();
        let [p50, p95, p99] = metrics.latency_ms("mutations.staleness").unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(metrics.count("live.generation"), Some(7));
        assert_eq!(metrics.gauge("live.delta_fill"), Some(0.375));
        let report = stats.report();
        assert!(
            report.contains("mutations.submitted 5 | mutations.applied 4 | mutations.failed 1"),
            "{report}"
        );
        assert!(report.contains("mutations.staleness p50/p95/p99 2.00/2.00/2.00 ms (1)"));
        assert!(report.contains("live.generation 7 | live.delta_vectors 3 | live.tombstones 1"));
        assert!(report.contains("live.delta_fill 0.375"));
        assert!(!report.contains("wal"), "an in-memory corpus has no wal");
    }

    #[test]
    fn wal_gauges_surface_in_the_report_only_when_durable() {
        let mut stats = ServiceStats::default();
        assert!(stats
            .metrics()
            .0
            .iter()
            .all(|e| !e.name.starts_with("wal.")));
        assert!(!stats.report().contains("wal"), "no wal without a WAL");

        let mut wal = ap_knn::wal::WalGauges {
            records: 12,
            bytes: 480,
            fsyncs: 3,
            group_records: 12,
            group_max: 6,
            checkpoints: 1,
            replayed: 5,
            ..Default::default()
        };
        stats.live = Some(LiveStatus {
            wal: Some(wal),
            ..live_status()
        });
        let report = stats.report();
        assert!(
            report.contains(
                "wal.records 12 | wal.bytes 480 | wal.fsyncs 3 | wal.group_mean 4.000 | \
                 wal.group_max 6 | wal.checkpoints 1 | wal.replayed 5"
            ),
            "{report}"
        );
        assert!(!report.contains("truncated"), "no torn tail, no mention");
        assert_eq!(stats.metrics().count("wal.truncated_bytes"), Some(0));

        wal.truncated_bytes = 7;
        stats.live = Some(LiveStatus {
            wal: Some(wal),
            ..live_status()
        });
        assert!(stats.report().contains("wal.truncated_bytes 7"));
    }

    #[test]
    fn lane_gauges_surface_in_the_report_only_after_a_lane_batch() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.lane_fill(), None);
        assert_eq!(stats.metrics().get("lanes.fill"), None);
        assert!(!stats.report().contains("lanes"));
        stats.lane_width = 64;
        stats.lane_batches = 4;
        stats.lane_fill_sum = 0.5;
        assert!((stats.lane_fill().unwrap() - 0.125).abs() < 1e-12);
        assert!(stats
            .report()
            .contains("lanes.width 64 | lanes.batches 4 | lanes.fill 0.125"));
    }

    #[test]
    fn queue_wait_percentiles_surface_in_the_report() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.metrics().get("queries.queue_wait"), None);
        assert!(!stats.report().contains("queue_wait"));
        stats.queue_wait.record(Duration::from_millis(3));
        let [p50, p95, p99] = stats.metrics().latency_ms("queries.queue_wait").unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(stats
            .report()
            .contains("queries.queue_wait p50/p95/p99 3.00/3.00/3.00 ms (1)"));
    }

    #[test]
    fn every_table_row_yields_one_uniquely_named_entry() {
        let mut stats = ServiceStats {
            live: Some(LiveStatus {
                wal: Some(Default::default()),
                ..live_status()
            }),
            batch_size: 7,
            batches_dispatched: 1,
            cache_misses: 1,
            lane_batches: 1,
            ..ServiceStats::default()
        };
        stats.queue_wait.record(Duration::ZERO);
        stats.mutation_staleness.record(Duration::ZERO);
        let metrics = stats.metrics();
        assert_eq!(metrics.0.len(), METRICS.len());
        let mut names: Vec<&str> = metrics.0.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
    }
}
