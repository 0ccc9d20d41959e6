//! Admission batching and scheduling: coalescing single queries into
//! engine-sized batches.
//!
//! The AP amortizes its costs over the queries that share a dispatch: a board
//! configuration is streamed once per batch (§V), and symbol-stream
//! multiplexing packs up to seven queries into one window (§VI-B) — which is
//! why the service's default batch size is the multiplex width.
//!
//! `ScheduledQueue` (crate-internal) is [`crate::ServiceRuntime`]'s bounded
//! MPMC admission heap: entries are ordered by priority, then deadline
//! (earliest first), then submission order; `try_push` refuses with a full
//! queue instead of blocking or growing, and workers — or the caller of
//! [`crate::ServiceRuntime::poll`] — pop deadline-checked batches of
//! schedule-compatible entries.

use binvec::{Deadline, Priority};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// Opaque handle identifying one submitted query; tickets are issued in
/// monotonically increasing order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryTicket(pub(crate) u64);

impl QueryTicket {
    /// The ticket's sequence number (submission order).
    pub fn sequence(&self) -> u64 {
        self.0
    }
}

/// One scheduled entry: a payload plus the fields the scheduler orders by.
#[derive(Debug)]
pub(crate) struct Scheduled<T> {
    /// The ticket minted at submission (also the FIFO tie-breaker).
    pub(crate) ticket: QueryTicket,
    /// Scheduling priority (higher dispatches first).
    pub(crate) priority: Priority,
    /// Optional deadline (earlier dispatches first; expired entries are failed
    /// at pop time without being dispatched).
    pub(crate) deadline: Option<Deadline>,
    /// The queued work item.
    pub(crate) payload: T,
}

impl<T> Scheduled<T> {
    /// Whether the entry's deadline has passed.
    fn is_expired(&self) -> bool {
        self.deadline.is_some_and(|d| d.is_expired())
    }
}

// Max-heap ordering: "greater" means "scheduled sooner". Priority dominates;
// within a class an earlier deadline wins (a deadline beats no deadline), and
// the earlier ticket breaks ties so equal traffic stays FIFO.
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| match (self.deadline, other.deadline) {
                (None, None) => Ordering::Equal,
                (Some(_), None) => Ordering::Greater,
                (None, Some(_)) => Ordering::Less,
                (Some(a), Some(b)) => b.cmp(&a),
            })
            .then_with(|| other.ticket.cmp(&self.ticket))
    }
}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Scheduled<T> {}

/// Why [`ScheduledQueue::try_push`] refused an entry (the entry is handed
/// back so the caller can deliver a per-ticket failure if it wants to).
#[derive(Debug)]
pub(crate) enum PushRefused<T> {
    /// The queue is at capacity — backpressure, not blocking.
    Full(Scheduled<T>),
    /// The queue was closed by shutdown.
    Closed(Scheduled<T>),
}

struct ScheduledInner<T> {
    heap: BinaryHeap<Scheduled<T>>,
    closed: bool,
}

/// A bounded MPMC admission queue with priority/deadline-aware ordering.
///
/// Producers `try_push` (refusing, never blocking, when full); consumers
/// `pop_batch` — blocking until work or shutdown if they ask to — up to one
/// batch of schedule-compatible entries, splitting off any entries whose
/// deadline has already expired so the caller can fail them without
/// dispatching.
pub(crate) struct ScheduledQueue<T> {
    inner: Mutex<ScheduledInner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> ScheduledQueue<T> {
    /// Creates a queue admitting at most `capacity` pending entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            inner: Mutex::new(ScheduledInner {
                heap: BinaryHeap::with_capacity(capacity.min(4096)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently pending.
    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("scheduled queue poisoned")
            .heap
            .len()
    }

    /// Admits an entry, or refuses without blocking.
    pub(crate) fn try_push(&self, entry: Scheduled<T>) -> Result<(), PushRefused<T>> {
        let mut inner = self.inner.lock().expect("scheduled queue poisoned");
        if inner.closed {
            return Err(PushRefused::Closed(entry));
        }
        if inner.heap.len() >= self.capacity {
            return Err(PushRefused::Full(entry));
        }
        inner.heap.push(entry);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops up to `max` entries in schedule order into `batch`, first blocking
    /// until entries are pending (or the queue is closed) if `wait` is set —
    /// a worker thread's pop; a caller-driven one does not wait. Entries whose
    /// deadline expired are diverted into `expired` (they do not count toward
    /// `max` and do not end a batch). Popping stops early at the first entry
    /// for which `compatible(first, candidate)` is false, leaving it queued —
    /// so one dispatch only ever carries entries that can share a backend call.
    ///
    /// Returns `false` when nothing was pending: the queue is closed *and*
    /// fully drained (a waiting consumer should exit) or, without `wait`,
    /// merely empty. `batch` and `expired` are cleared first.
    pub(crate) fn pop_batch(
        &self,
        max: usize,
        wait: bool,
        batch: &mut Vec<Scheduled<T>>,
        expired: &mut Vec<Scheduled<T>>,
        mut compatible: impl FnMut(&T, &T) -> bool,
    ) -> bool {
        batch.clear();
        expired.clear();
        let mut inner = self.inner.lock().expect("scheduled queue poisoned");
        loop {
            if !inner.heap.is_empty() {
                break;
            }
            if inner.closed || !wait {
                return false;
            }
            inner = self
                .not_empty
                .wait(inner)
                .expect("scheduled queue poisoned");
        }
        while batch.len() < max {
            let Some(top) = inner.heap.peek() else { break };
            if top.is_expired() {
                expired.push(inner.heap.pop().expect("peeked entry"));
                continue;
            }
            if let Some(first) = batch.first() {
                if !compatible(&first.payload, &top.payload) {
                    break;
                }
            }
            batch.push(inner.heap.pop().expect("peeked entry"));
        }
        true
    }

    /// Closes the queue: producers are refused from now on, consumers drain
    /// what is left and then exit.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("scheduled queue poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ticket: u64, priority: Priority, deadline: Option<Deadline>) -> Scheduled<u64> {
        Scheduled {
            ticket: QueryTicket(ticket),
            priority,
            deadline,
            payload: ticket,
        }
    }

    #[test]
    fn schedule_order_is_priority_then_deadline_then_fifo() {
        use std::time::{Duration, Instant};
        let queue: ScheduledQueue<u64> = ScheduledQueue::new(16);
        let soon = Deadline::at(Instant::now() + Duration::from_secs(10));
        let later = Deadline::at(Instant::now() + Duration::from_secs(1000));
        queue.try_push(entry(0, Priority::Low, None)).unwrap();
        queue
            .try_push(entry(1, Priority::Normal, Some(later)))
            .unwrap();
        queue
            .try_push(entry(2, Priority::Normal, Some(soon)))
            .unwrap();
        queue.try_push(entry(3, Priority::Normal, None)).unwrap();
        queue.try_push(entry(4, Priority::Normal, None)).unwrap();
        queue.try_push(entry(5, Priority::High, None)).unwrap();

        let mut batch = Vec::new();
        let mut expired = Vec::new();
        assert!(queue.pop_batch(6, true, &mut batch, &mut expired, |_, _| true));
        let order: Vec<u64> = batch.iter().map(|e| e.payload).collect();
        // High first; within Normal the earlier deadline wins, a deadline
        // beats no deadline, and no-deadline entries stay FIFO; Low last.
        assert_eq!(order, vec![5, 2, 1, 3, 4, 0]);
        assert!(expired.is_empty());
    }

    #[test]
    fn full_queue_refuses_and_closed_queue_refuses() {
        let queue: ScheduledQueue<u64> = ScheduledQueue::new(2);
        queue.try_push(entry(0, Priority::Normal, None)).unwrap();
        queue.try_push(entry(1, Priority::Normal, None)).unwrap();
        assert!(matches!(
            queue.try_push(entry(2, Priority::Normal, None)),
            Err(PushRefused::Full(_))
        ));
        assert_eq!(queue.len(), 2);
        queue.close();
        assert!(matches!(
            queue.try_push(entry(3, Priority::Normal, None)),
            Err(PushRefused::Closed(_))
        ));
        // Consumers drain the remainder, then observe the close.
        let mut batch = Vec::new();
        let mut expired = Vec::new();
        assert!(queue.pop_batch(8, true, &mut batch, &mut expired, |_, _| true));
        assert_eq!(batch.len(), 2);
        assert!(!queue.pop_batch(8, true, &mut batch, &mut expired, |_, _| true));
    }

    #[test]
    fn expired_entries_are_diverted_and_incompatible_entries_stay_queued() {
        use std::time::{Duration, Instant};
        let queue: ScheduledQueue<u64> = ScheduledQueue::new(16);
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        // The expired entry sorts first (earliest deadline) but must be
        // diverted, not dispatched.
        queue
            .try_push(entry(0, Priority::Normal, Some(past)))
            .unwrap();
        // Payloads 10 and 11 are "compatible" (same decade), 20 is not.
        queue.try_push(entry(1, Priority::High, None)).unwrap();
        queue.try_push(entry(2, Priority::Normal, None)).unwrap();
        let mut batch = Vec::new();
        let mut expired = Vec::new();
        assert!(queue.pop_batch(
            8,
            false,
            &mut batch,
            &mut expired,
            // Tickets 1 (High) and 2 (Normal) are incompatible payloads here.
            |a, b| a == b
        ));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].payload, 0);
        assert_eq!(batch.len(), 1, "incompatible follower stays queued");
        assert_eq!(batch[0].payload, 1);
        assert_eq!(queue.len(), 1);
        // A caller-driven pop reports an empty open queue instead of waiting.
        assert!(queue.pop_batch(8, false, &mut batch, &mut expired, |_, _| true));
        assert!(!queue.pop_batch(8, false, &mut batch, &mut expired, |_, _| true));
    }
}
