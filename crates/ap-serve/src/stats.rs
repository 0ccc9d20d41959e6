//! Service-level accounting: throughput, batching efficiency, cache behavior,
//! and per-shard utilization.

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
    /// AP symbol cycles charged across all dispatched batches (critical-path
    /// cycles for sharded backends).
    pub ap_symbol_cycles: u64,
    /// Partial reconfigurations across all dispatched batches.
    pub reconfigurations: u64,
    /// Per-shard symbol cycles, summed over batches (empty for unsharded
    /// backends).
    pub shard_cycles: Vec<u64>,
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
    /// Corpus generation after the most recently applied mutation (stays 0
    /// for frozen-corpus backends, which never mutate).
    pub generation: u64,
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
    /// Vectors held in the live backend's delta segments after the most
    /// recent applied mutation.
    pub delta_vectors: u64,
    /// Tombstoned (deleted but not yet compacted-away) vectors after the most
    /// recent applied mutation.
    pub tombstones: u64,
    /// Delta/tombstone load as a fraction of the live backend's compaction
    /// threshold (1.0 = compaction due), after the most recent applied
    /// mutation.
    pub delta_fill: f64,
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
    /// WAL records appended since the log was opened (0 when the backend
    /// serves without a write-ahead log). Refreshed after each applied
    /// mutation batch, like the other live-corpus gauges.
    pub wal_records: u64,
    /// WAL payload bytes appended (headers and checksums included).
    pub wal_bytes: u64,
    /// fsync calls issued by the WAL — with group commit this is less than
    /// [`Self::wal_records`] under concurrent mutation load.
    pub wal_fsyncs: u64,
    /// Largest number of records covered by a single fsync (the biggest
    /// commit group observed).
    pub wal_group_max: u64,
    /// Mean records per fsync (1.0 = no grouping; higher means group commit
    /// is amortizing durability over concurrent ackers).
    pub wal_group_mean: f64,
    /// Checkpoints taken since the log was opened.
    pub wal_checkpoints: u64,
    /// Records replayed from the WAL tail at the most recent restore (0 for
    /// a log opened fresh).
    pub wal_replayed: u64,
    /// Bytes truncated off the log tail at the most recent restore — a torn
    /// final record from a crash mid-append.
    pub wal_truncated_bytes: u64,
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

    /// Per-shard utilization: each shard's symbol cycles as a fraction of the
    /// busiest shard's. Empty for unsharded backends; 1.0 everywhere means a
    /// perfectly balanced fleet.
    pub fn shard_utilization(&self) -> Vec<f64> {
        let max = self.shard_cycles.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return vec![0.0; self.shard_cycles.len()];
        }
        self.shard_cycles
            .iter()
            .map(|&c| c as f64 / max as f64)
            .collect()
    }

    /// Mean lane occupancy of cycle-accurate batches (1.0 = every pass carried
    /// 64 queries). `None` before the first cycle-accurate batch.
    pub fn lane_fill(&self) -> Option<f64> {
        (self.lane_batches > 0).then(|| self.lane_fill_sum / self.lane_batches as f64)
    }

    /// Submit→dispatch queue-wait percentiles `(p50, p95, p99)` in
    /// milliseconds; `None` before the first dispatched query.
    pub fn queue_wait_percentiles_ms(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.queue_wait.percentile_ms(0.50)?,
            self.queue_wait.percentile_ms(0.95)?,
            self.queue_wait.percentile_ms(0.99)?,
        ))
    }

    /// Submit→visible mutation-staleness percentiles `(p50, p95, p99)` in
    /// milliseconds; `None` before the first applied mutation.
    pub fn mutation_staleness_percentiles_ms(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.mutation_staleness.percentile_ms(0.50)?,
            self.mutation_staleness.percentile_ms(0.95)?,
            self.mutation_staleness.percentile_ms(0.99)?,
        ))
    }

    /// Renders a compact human-readable report.
    pub fn report(&self) -> String {
        let fill = self
            .batch_fill_ratio()
            .map_or("n/a".to_string(), |f| format!("{:.1}%", f * 100.0));
        let hit = self
            .cache_hit_rate()
            .map_or("n/a".to_string(), |h| format!("{:.1}%", h * 100.0));
        let utilization = if self.shard_cycles.is_empty() {
            "unsharded".to_string()
        } else {
            self.shard_utilization()
                .iter()
                .map(|u| format!("{:.0}%", u * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let failures = if self.failed_batches == 0 {
            String::new()
        } else {
            format!(
                " | {} failed batches ({} queries)",
                self.failed_batches, self.failed_queries
            )
        };
        let shedding = if self.deadline_expired == 0 && self.queue_full_rejections == 0 {
            String::new()
        } else {
            format!(
                " | shed {} expired, {} queue-full",
                self.deadline_expired, self.queue_full_rejections
            )
        };
        let queue_wait = self
            .queue_wait_percentiles_ms()
            .map_or(String::new(), |(p50, p95, p99)| {
                format!(" | queue wait p50/p95/p99 {p50:.2}/{p95:.2}/{p99:.2} ms")
            });
        let lanes = if self.lane_batches == 0 {
            String::new()
        } else {
            format!(
                " | lanes w{} ({} batches, fill {:.0}%)",
                self.lane_width,
                self.lane_batches,
                self.lane_fill().unwrap_or(0.0) * 100.0,
            )
        };
        let mutations = if self.mutations_submitted == 0 {
            String::new()
        } else {
            let staleness = self
                .mutation_staleness_percentiles_ms()
                .map_or(String::new(), |(p50, p95, p99)| {
                    format!(", staleness p50/p95/p99 {p50:.2}/{p95:.2}/{p99:.2} ms")
                });
            format!(
                " | {} mutations applied/{} (gen {}, {} delta, {} tombstoned, fill {:.0}%{staleness})",
                self.mutations_applied,
                self.mutations_submitted,
                self.generation,
                self.delta_vectors,
                self.tombstones,
                self.delta_fill * 100.0,
            )
        };
        let wal = if self.wal_records == 0 && self.wal_fsyncs == 0 && self.wal_replayed == 0 {
            String::new()
        } else {
            let truncated = if self.wal_truncated_bytes == 0 {
                String::new()
            } else {
                format!(", truncated {} B", self.wal_truncated_bytes)
            };
            format!(
                " | wal {} recs/{} B, {} fsyncs (group mean {:.1}, max {}), {} ckpts, replayed {}{truncated}",
                self.wal_records,
                self.wal_bytes,
                self.wal_fsyncs,
                self.wal_group_mean,
                self.wal_group_max,
                self.wal_checkpoints,
                self.wal_replayed,
            )
        };
        format!(
            "served {}/{} queries | {} batches (fill {fill}) | cache hit {hit} | \
             {} AP cycles, {} reconfigs | shard load [{utilization}] | \
             {:.0} q/s wall, {:.0} q/s busy{failures}{shedding}{queue_wait}{lanes}{mutations}{wal}",
            self.queries_served,
            self.queries_submitted,
            self.batches_dispatched,
            self.ap_symbol_cycles,
            self.reconfigurations,
            self.throughput_qps(),
            self.busy_throughput_qps(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_and_populated_states() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.batch_fill_ratio(), None);
        assert_eq!(stats.cache_hit_rate(), None);
        assert_eq!(stats.throughput_qps(), 0.0);
        assert!(stats.shard_utilization().is_empty());

        stats.batch_size = 7;
        stats.batches_dispatched = 2;
        stats.batched_queries = 10;
        stats.full_batches = 1;
        stats.cache_hits = 3;
        stats.cache_misses = 10;
        stats.queries_served = 13;
        stats.uptime = Duration::from_secs(2);
        stats.shard_cycles = vec![100, 50, 0];

        assert!((stats.batch_fill_ratio().unwrap() - 10.0 / 14.0).abs() < 1e-12);
        assert!((stats.cache_hit_rate().unwrap() - 3.0 / 13.0).abs() < 1e-12);
        assert!((stats.throughput_qps() - 6.5).abs() < 1e-12);
        assert_eq!(stats.shard_utilization(), vec![1.0, 0.5, 0.0]);
        let report = stats.report();
        assert!(report.contains("served 13/0"));
        assert!(report.contains("2 batches"));
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

    #[test]
    fn mutation_staleness_and_gauges_surface_in_the_report() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.mutation_staleness_percentiles_ms(), None);
        assert!(!stats.report().contains("mutations"));

        stats.mutations_submitted = 5;
        stats.mutations_applied = 4;
        stats.mutations_failed = 1;
        stats.generation = 7;
        stats.delta_vectors = 3;
        stats.tombstones = 1;
        stats.delta_fill = 0.375;
        stats.mutation_staleness.record(Duration::from_millis(2));
        let (p50, p95, p99) = stats.mutation_staleness_percentiles_ms().unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        let report = stats.report();
        assert!(report.contains("4 mutations applied/5"));
        assert!(report.contains("gen 7"));
        assert!(report.contains("staleness"));
    }

    #[test]
    fn wal_gauges_surface_in_the_report_only_when_durable() {
        let mut stats = ServiceStats::default();
        assert!(
            !stats.report().contains("| wal"),
            "no wal segment without a WAL"
        );

        stats.wal_records = 12;
        stats.wal_bytes = 480;
        stats.wal_fsyncs = 3;
        stats.wal_group_mean = 4.0;
        stats.wal_group_max = 6;
        stats.wal_checkpoints = 1;
        stats.wal_replayed = 5;
        let report = stats.report();
        assert!(report.contains("wal 12 recs/480 B"));
        assert!(report.contains("3 fsyncs"));
        assert!(report.contains("replayed 5"));
        assert!(!report.contains("truncated"), "no torn tail, no mention");

        stats.wal_truncated_bytes = 7;
        assert!(stats.report().contains("truncated 7 B"));
    }

    #[test]
    fn lane_gauges_surface_in_the_report_only_after_a_lane_batch() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.lane_fill(), None);
        assert!(!stats.report().contains("lanes"));
        stats.lane_width = 64;
        stats.lane_batches = 4;
        stats.lane_fill_sum = 0.5;
        assert!((stats.lane_fill().unwrap() - 0.125).abs() < 1e-12);
        let report = stats.report();
        assert!(report.contains("lanes w64 (4 batches"));
        assert!(report.contains("fill 12"));
    }

    #[test]
    fn queue_wait_percentiles_surface_in_the_report() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.queue_wait_percentiles_ms(), None);
        assert!(!stats.report().contains("queue wait"));
        stats.queue_wait.record(Duration::from_millis(3));
        let (p50, p95, p99) = stats.queue_wait_percentiles_ms().unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(stats.report().contains("queue wait"));
    }
}
