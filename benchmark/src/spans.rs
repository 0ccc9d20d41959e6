//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing under `crates/` records a span; the benchmark times the layers'
//! public entry points from outside. A request's spans share its `id`, and a
//! span names its parent, so `(id, parent)` finds the span that caused it.
//!
//! Two kinds of child exist. One timed in situ ran inside its parent's
//! interval, for that very request, and comes off the parent's self time
//! request by request. A *replayed* one is a later, separate execution of the
//! same seeded request one layer further in: it says what that layer costs,
//! not what it cost this parent, so it is left out here and the ladder sets
//! it against the parent between medians.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which call, e.g. `knn.batch`.
    pub name: &'static str,
    /// The crate the call enters.
    pub layer: &'static str,
    /// The request (or, for per-batch rungs, the first request of the batch).
    pub id: u64,
    /// Name of the parent span of the same `id`; `None` for the root.
    pub parent: Option<&'static str>,
    /// Timed in a replay of the request, not inside the parent's interval.
    pub replayed: bool,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a span hangs in its request's tree.
#[derive(Clone, Copy, Debug)]
pub enum Under {
    /// A root.
    Nothing,
    /// Inside this parent's interval, for this very request.
    InSitu(&'static str),
    /// A replay of what this parent did.
    Replayed(&'static str),
}

/// An in-memory span log; written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the log's epoch to `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one span.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        id: u64,
        under: Under,
        start: Instant,
        end: Instant,
    ) {
        let (parent, replayed) = match under {
            Under::Nothing => (None, false),
            Under::InSitu(parent) => (Some(parent), false),
            Under::Replayed(parent) => (Some(parent), true),
        };
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            id,
            parent,
            replayed,
            start_ns,
            end_ns,
        });
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every span whose id is `limit` or above.
    pub fn truncate_ids(&mut self, limit: u64) {
        self.spans.retain(|s| s.id < limit);
    }

    /// The log as a JSON array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = write!(
                out,
                "  {{\"name\":\"{}\",\"layer\":\"{}\",\"id\":{},\"parent\":{},\"replayed\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.layer, s.id, parent, s.replayed, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// What a span's interval divides into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelfTime {
    /// The span's own duration.
    pub duration_ns: u64,
    /// The part of it its in-situ children cover.
    pub children_ns: u64,
    /// The rest: time spent in this layer itself.
    pub self_ns: u64,
}

/// Self time of every span: duration minus what its in-situ children cover.
/// Keyed by `(id, name)`.
pub fn self_times(spans: &[Span]) -> HashMap<(u64, &'static str), SelfTime> {
    let mut children: HashMap<(u64, &'static str), u64> = HashMap::new();
    for s in spans {
        if let (Some(parent), false) = (s.parent, s.replayed) {
            *children.entry((s.id, parent)).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration_ns = s.duration_ns();
            // An in-situ child lies inside its parent, so it cannot outlast
            // it by more than the clock's grain.
            let children_ns = children
                .get(&(s.id, s.name))
                .copied()
                .unwrap_or(0)
                .min(duration_ns);
            let time = SelfTime {
                duration_ns,
                children_ns,
                self_ns: duration_ns - children_ns,
            };
            ((s.id, s.name), time)
        })
        .collect()
}

/// Per-name samples of span durations and of self times, each sorted
/// ascending, for percentiles.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Durations by span name.
    pub durations: HashMap<&'static str, Vec<u64>>,
    /// Self times by span name.
    pub selfs: HashMap<&'static str, Vec<u64>>,
}

/// Groups [`self_times`] by span name and checks, span by span, that
/// children + self add up to the parent.
///
/// # Panics
/// Panics if the arithmetic does not close for a span — a bug in this file.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut out = Breakdown::default();
    for ((_, name), t) in self_times(spans) {
        assert_eq!(
            t.children_ns + t.self_ns,
            t.duration_ns,
            "span {name} does not close"
        );
        out.durations.entry(name).or_default().push(t.duration_ns);
        out.selfs.entry(name).or_default().push(t.self_ns);
    }
    for samples in out.durations.values_mut().chain(out.selfs.values_mut()) {
        samples.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            layer: "test",
            id,
            parent,
            replayed: false,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_in_situ_children() {
        let spans = [
            span("root", 7, None, 0, 100),
            span("mid", 7, Some("root"), 20, 80),
            span("leaf_a", 7, Some("mid"), 30, 50),
            span("leaf_b", 7, Some("mid"), 50, 75),
            // Another request: its spans never mix with request 7's.
            span("root", 8, None, 0, 50),
            span("mid", 8, Some("root"), 0, 10),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&(7, "root")].self_ns, 40);
        assert_eq!(t[&(7, "root")].children_ns, 60);
        assert_eq!(t[&(7, "mid")].self_ns, 15);
        assert_eq!(t[&(7, "leaf_a")].self_ns, 20);
        assert_eq!(t[&(8, "root")].self_ns, 40);
        for time in t.values() {
            assert_eq!(time.children_ns + time.self_ns, time.duration_ns);
        }
        let b = breakdown(&spans);
        assert_eq!(b.selfs["root"], [40, 40]);
        assert_eq!(b.durations["mid"].len(), 2);
    }

    #[test]
    fn a_replayed_child_leaves_its_parent_whole() {
        let mut replay = span("kid", 1, Some("root"), 500, 630);
        replay.replayed = true;
        let spans = [span("root", 1, None, 0, 100), replay];
        let t = self_times(&spans);
        assert_eq!(t[&(1, "root")].children_ns, 0);
        assert_eq!(t[&(1, "root")].self_ns, 100);
        assert_eq!(
            t[&(1, "kid")].duration_ns,
            130,
            "a replay may outlast the span it replays"
        );
    }

    #[test]
    fn log_stamps_relative_to_its_epoch_and_truncates_by_id() {
        let mut log = SpanLog::new();
        let start = Instant::now();
        let took = std::time::Duration::from_micros(5);
        log.record("a", "x", 0, Under::Nothing, start, start + took);
        log.record("b", "x", 0, Under::Replayed("a"), start, start + took);
        log.record("a", "x", 5, Under::Nothing, start, start + took);
        assert_eq!(log.spans()[0].duration_ns(), 5_000);
        assert_eq!(log.spans()[1].duration_ns(), 5_000);
        assert!(log.spans()[1].replayed && !log.spans()[0].replayed);
        log.truncate_ids(5);
        assert_eq!(log.spans().len(), 2);
        assert!(log.to_json().contains("\"parent\":null,\"replayed\":false"));
    }
}
