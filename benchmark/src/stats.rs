//! Order statistics over latency samples.

/// Samples that must lie beyond a percentile's rank before it is reported:
/// with fewer, the figure is one or two outliers, not a percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer than
/// [`SAMPLES_BEYOND`] samples lie beyond the rank on the tail side.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n.max(1));
    let beyond = if p >= 0.5 {
        n.saturating_sub(rank)
    } else {
        rank.saturating_sub(1)
    };
    (beyond >= SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts `samples` and returns its percentile (see [`percentile`]).
pub fn percentile_of(samples: &mut [u64], p: f64) -> Option<u64> {
    samples.sort_unstable();
    percentile(samples, p)
}

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty. Unlike [`percentile`] this carries no sample floor: it is for
/// the handful of per-repetition figures, not for raw latencies.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nanoseconds as fractional milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds as fractional microseconds.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_percentile_without_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=199).collect();
        // p95 of 199: rank 190, nine beyond.
        assert_eq!(percentile(&samples, 0.95), None);
        let samples: Vec<u64> = (1..=200).collect();
        // p95 of 200: rank 190, ten beyond.
        assert_eq!(percentile(&samples, 0.95), Some(190));
        // p99 needs a thousand.
        assert_eq!(percentile(&samples, 0.99), None);
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990));
        // The median needs ten on its far side too.
        assert_eq!(percentile(&[1, 2, 3], 0.5), None);
        let samples: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&samples, 0.5), Some(10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // One slow repetition of three does not move the reported value.
        assert_eq!(median(&[1.0, 1.13, 1.01]), Some(1.01));
    }
}
