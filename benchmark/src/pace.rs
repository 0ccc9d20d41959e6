//! The open-loop schedule: operations are due at fixed instants whatever the
//! system does, and every latency is taken from the due time.

use std::time::{Duration, Instant};

/// A fixed-rate schedule of due times.
#[derive(Clone, Copy, Debug)]
pub struct Pace {
    start: Instant,
    interval: Duration,
    next: u32,
}

impl Pace {
    /// A schedule whose operation `n` is due at `start + n / rate_per_s`.
    pub fn new(start: Instant, rate_per_s: u32) -> Self {
        assert!(rate_per_s > 0, "a paced schedule needs a positive rate");
        Self {
            start,
            interval: Duration::from_secs(1) / rate_per_s,
            next: 0,
        }
    }

    /// When the next operation is due.
    pub fn next_due(&self) -> Instant {
        self.start + self.interval * self.next
    }

    /// Takes the next operation if it is due at `now`, returning its due
    /// time. A generator that fell behind takes the backlog one call at a
    /// time, each still stamped with its own (past) due time.
    pub fn take_due(&mut self, now: Instant) -> Option<Instant> {
        let due = self.next_due();
        (due <= now).then(|| {
            self.next += 1;
            due
        })
    }
}

/// One paced operation's timestamps.
#[derive(Clone, Copy, Debug)]
pub struct PacedOp {
    /// When the schedule wanted it sent.
    pub due: Instant,
    /// When the generator actually sent it.
    pub sent: Instant,
}

impl PacedOp {
    /// How late the generator ran.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }

    /// Latency as the schedule's user saw it: from the due time, so a stall
    /// charges the operations queued behind it.
    pub fn latency(&self, done: Instant) -> Duration {
        done.saturating_duration_since(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_fixed_by_the_rate_not_by_the_caller() {
        let start = Instant::now();
        let mut pace = Pace::new(start, 200);
        let ms = Duration::from_millis;
        assert_eq!(pace.take_due(start), Some(start));
        assert_eq!(pace.take_due(start + ms(4)), None, "op 1 is due at 5 ms");
        assert_eq!(pace.next_due(), start + ms(5));
        // The generator stalls until 17 ms: ops 1..=3 are overdue and keep
        // their own due times.
        let late = start + ms(17);
        assert_eq!(pace.take_due(late), Some(start + ms(5)));
        assert_eq!(pace.take_due(late), Some(start + ms(10)));
        assert_eq!(pace.take_due(late), Some(start + ms(15)));
        assert_eq!(pace.take_due(late), None);
    }

    #[test]
    fn latency_counts_from_due_time_and_lag_is_reported() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        let op = PacedOp {
            due: start + ms(5),
            sent: start + ms(17),
        };
        assert_eq!(op.lag(), ms(12));
        assert_eq!(
            op.latency(start + ms(18)),
            ms(13),
            "1 ms of service + 12 ms of stall"
        );
        let on_time = PacedOp {
            due: start,
            sent: start,
        };
        assert_eq!(on_time.lag(), Duration::ZERO);
    }
}
