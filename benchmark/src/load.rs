//! Load generators and the oracle that checks what they receive.
//!
//! One process, at most `nproc` client threads. The query clients are closed
//! loops: each sends its next request when the previous one (or, pipelined,
//! one of its window) completes. The `live_churn` mutator is an open loop on
//! a fixed schedule.

use crate::pace::{Pace, PacedOp};
use crate::workload::{Inputs, Spec, K, MUTATION_RATE, MUTATION_WINDOW};
use ap_serve::{ApClient, NetError};
use baselines::{LinearScan, SearchIndex};
use binvec::{BinaryDataset, BinaryVector, Neighbor};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Requests attempted and requests that failed (an error, a refusal or a
/// wrong answer), queries and mutations alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were refused, or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Exact answers by `baselines::LinearScan`, over the corpus as the model
/// says it stands.
pub struct Oracle {
    scan: LinearScan,
    /// Stable id of each position, when they differ (a mutated corpus).
    ids: Option<Vec<usize>>,
}

impl Oracle {
    /// The oracle over an unmutated corpus: ids are positions.
    pub fn new(corpus: &BinaryDataset) -> Self {
        Self {
            scan: LinearScan::new(corpus.clone()),
            ids: None,
        }
    }

    /// The oracle over the survivors of a churned corpus, given as
    /// `(stable id, vector)` in ascending id order.
    pub fn over_survivors(dims: usize, survivors: &[(usize, BinaryVector)]) -> Self {
        debug_assert!(survivors.windows(2).all(|w| w[0].0 < w[1].0));
        let data = BinaryDataset::from_vectors(dims, survivors.iter().map(|(_, v)| v.clone()));
        let ids = survivors.iter().map(|(id, _)| *id).collect();
        Self {
            scan: LinearScan::new(data),
            ids: Some(ids),
        }
    }

    /// The exact `K` nearest neighbors of `query`.
    pub fn expected(&self, query: &BinaryVector) -> Vec<Neighbor> {
        let mut neighbors = self.scan.search(query, K);
        if let Some(ids) = &self.ids {
            // Positions ascend with ids, so the (distance, id) order holds.
            for n in &mut neighbors {
                n.id = ids[n.id];
            }
        }
        neighbors
    }

    /// Whether `got` is the exact answer to `query`.
    pub fn agrees(&self, query: &BinaryVector, got: &[Neighbor]) -> bool {
        got == self.expected(query)
    }
}

/// Whether `got` has the shape of an answer: `K` neighbors in
/// `(distance, id)` order. All that can be said of an answer read while the
/// corpus is changing under it.
pub fn well_formed(got: &[Neighbor]) -> bool {
    got.len() == K && got.windows(2).all(|w| w[0] < w[1])
}

/// Measured answers between two oracle checks on a static workload.
const CHECK_EVERY: usize = 16;

/// How a query client verifies what it receives.
pub enum Check<'a> {
    /// Compare every `n`-th answer with the oracle (after its latency is
    /// stamped); the rest are checked for shape.
    Every(usize, &'a Oracle),
    /// Shape only.
    Shape,
}

impl<'a> Check<'a> {
    /// The check of a measured window: every [`CHECK_EVERY`]-th answer
    /// against the oracle on a static workload; shape only while
    /// `live_churn`'s corpus changes under the answers (its exact check
    /// comes once it has quiesced).
    pub fn measured(spec: &Spec, oracle: &'a Oracle) -> Self {
        if spec.live {
            Check::Shape
        } else {
            Check::Every(CHECK_EVERY, oracle)
        }
    }

    /// Whether the `nth` answer of a client passes.
    pub fn passes(&self, nth: usize, query: &BinaryVector, got: &[Neighbor]) -> bool {
        match self {
            Check::Every(n, oracle) if nth.is_multiple_of(*n) => oracle.agrees(query, got),
            _ => well_formed(got),
        }
    }
}

/// What one query client measured.
#[derive(Debug, Default)]
pub struct QueryRun {
    /// `(sent, completed)` of request `i`, in send order. Failed requests
    /// are not in here.
    pub requests: Vec<(Instant, Instant)>,
    /// Attempts and failures.
    pub tally: Tally,
    /// From the first send to the last completion.
    pub elapsed: Duration,
}

impl QueryRun {
    /// Round-trip latencies in nanoseconds, unsorted.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.requests
            .iter()
            .map(|(s, e)| e.duration_since(*s).as_nanos() as u64)
            .collect()
    }

    /// Verified-correct completions per second.
    pub fn qps(&self) -> f64 {
        self.requests.len() as f64 / self.elapsed.as_secs_f64()
    }
}

/// When a query client stops sending.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At this instant.
    At(Instant),
    /// After this many requests.
    After(usize),
}

impl Stop {
    /// Whether a client that has sent `sent` requests may send another.
    pub fn open(&self, sent: usize) -> bool {
        match self {
            Stop::At(until) => Instant::now() < *until,
            Stop::After(count) => sent < *count,
        }
    }
}

/// Connects a client to `addr`.
pub fn connect(addr: SocketAddr) -> Result<ApClient, String> {
    ApClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Runs the workload's query client against `addr` until `stop`: a closed
/// loop with `spec.in_flight` requests outstanding. Request `i` carries query
/// `first + i` of the (cycled) pool.
pub fn query_client(
    addr: SocketAddr,
    spec: &Spec,
    queries: &[BinaryVector],
    first: usize,
    stop: Stop,
    check: &Check<'_>,
) -> Result<QueryRun, String> {
    let mut client = connect(addr)?;
    let options = spec.options();
    let mut run = QueryRun::default();
    let started = Instant::now();
    let mut last = started;
    // Submissions are numbered in send order; completions come back in the
    // server's order and are matched by correlation id. With one in flight
    // this is `ApClient::search`.
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut stamps: Vec<Option<(Instant, Instant)>> = Vec::new();
    let mut next = first;
    loop {
        while stop.open(next - first) && in_flight.len() < spec.in_flight {
            let query = queries[next % queries.len()].clone();
            run.tally.attempted += 1;
            let sent = Instant::now();
            let correlation = client
                .submit(query, options)
                .map_err(|e| format!("query submit: {e}"))?;
            in_flight.insert(correlation, (next, sent));
            stamps.push(None);
            next += 1;
        }
        if in_flight.is_empty() {
            break;
        }
        let (correlation, outcome) = client
            .recv_completion()
            .map_err(|e| format!("query completion: {e}"))?;
        let done = Instant::now();
        let (nth, sent) = in_flight
            .remove(&correlation)
            .ok_or_else(|| format!("completion for unknown correlation {correlation}"))?;
        match outcome {
            Ok(neighbors) if check.passes(nth, &queries[nth % queries.len()], &neighbors) => {
                stamps[nth - first] = Some((sent, done));
            }
            _ => run.tally.failed += 1,
        }
        last = done;
    }
    run.requests = stamps.into_iter().flatten().collect();
    run.elapsed = last.duration_since(started);
    Ok(run)
}

/// What the paced mutator measured, and the model of what it did.
#[derive(Debug, Default)]
pub struct MutatorRun {
    /// Due time → `MutAck`, nanoseconds.
    pub ack_ns: Vec<u64>,
    /// Due time → actually sent, nanoseconds: how late the generator ran.
    pub lag_ns: Vec<u64>,
    /// Attempts and failures.
    pub tally: Tally,
    /// The mutator's own inserts that it has not deleted: `(stable id,
    /// vector)` in ascending id order. With the initial corpus these are the
    /// survivors every acked mutation implies.
    pub own: VecDeque<(usize, BinaryVector)>,
    /// Index of the next vector of the insert stream to use.
    pub next_insert: usize,
}

enum Sent {
    Insert(BinaryVector),
    Delete,
}

/// Runs the open-loop mutator against `addr` until `stop` is set: alternating
/// insert / delete-oldest-own-insert, due every `1 / MUTATION_RATE` s, at most
/// [`MUTATION_WINDOW`] in flight. Every latency is taken from the due time.
/// `carry` hands the model (`own`, `next_insert`) over from an earlier phase
/// on the same corpus; its samples are not kept.
pub fn paced_mutator(
    addr: SocketAddr,
    spec: &Spec,
    inserts: &[BinaryVector],
    carry: MutatorRun,
    stop: &AtomicBool,
) -> Result<MutatorRun, String> {
    let mut client = connect(addr)?;
    let options = spec.options();
    let mut run = MutatorRun {
        own: carry.own,
        next_insert: carry.next_insert,
        ..MutatorRun::default()
    };
    let mut pace = Pace::new(Instant::now(), MUTATION_RATE);
    let mut in_flight: VecDeque<(u64, PacedOp, Sent)> = VecDeque::new();
    let mut insert_turn = true;
    loop {
        let open = !stop.load(Ordering::Relaxed);
        while open && in_flight.len() < MUTATION_WINDOW {
            let Some(due) = pace.take_due(Instant::now()) else {
                break;
            };
            // A delete needs an acked insert of our own to aim at.
            let victim = if insert_turn {
                None
            } else {
                run.own.pop_front()
            };
            insert_turn = !insert_turn;
            run.tally.attempted += 1;
            let sent = Instant::now();
            let (correlation, what) = match victim {
                Some((id, _)) => (client.submit_delete(id as u64, options), Sent::Delete),
                None => {
                    let vector = inserts[run.next_insert % inserts.len()].clone();
                    run.next_insert += 1;
                    (
                        client.submit_insert(vector.clone(), options),
                        Sent::Insert(vector),
                    )
                }
            };
            let correlation = correlation.map_err(|e| format!("mutator submit: {e}"))?;
            in_flight.push_back((correlation, PacedOp { due, sent }, what));
        }
        match in_flight.pop_front() {
            Some((correlation, op, what)) => {
                let outcome = client.wait_ack(correlation);
                let done = Instant::now();
                match (outcome, what) {
                    (Ok(ack), Sent::Insert(vector)) => run.own.push_back((ack.id, vector)),
                    (Ok(_), Sent::Delete) => {}
                    (Err(NetError::Query(_)), _) => {
                        run.tally.failed += 1;
                        continue;
                    }
                    (Err(e), _) => return Err(format!("mutator ack: {e}")),
                }
                run.ack_ns.push(op.latency(done).as_nanos() as u64);
                run.lag_ns.push(op.lag().as_nanos() as u64);
            }
            None if !open => break,
            None => {
                // Nothing in flight and nothing due: sleep to the next due
                // time, in steps short enough to see `stop`.
                let wait = pace.next_due().saturating_duration_since(Instant::now());
                std::thread::sleep(wait.min(Duration::from_millis(5)));
            }
        }
    }
    Ok(run)
}

/// Runs `clients` with, on `live_churn`, the paced mutator beside it for as
/// long as it takes; the mutator takes its model from `carry` and hands it
/// back.
pub fn beside_mutator<T>(
    addr: SocketAddr,
    spec: &Spec,
    inputs: &Inputs,
    carry: Option<MutatorRun>,
    clients: impl FnOnce() -> Result<T, String>,
) -> Result<(T, Option<MutatorRun>), String> {
    let Some(carry) = carry else {
        return Ok((clients()?, None));
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mutator = scope.spawn(|| paced_mutator(addr, spec, &inputs.inserts, carry, &stop));
        let done = clients();
        stop.store(true, Ordering::Relaxed);
        let mutator = mutator
            .join()
            .map_err(|_| "mutator thread panicked".to_string())?;
        Ok((done?, Some(mutator?)))
    })
}

/// One phase of a workload's load against `addr` until `until`: the query
/// client, and beside it (on `live_churn`) the paced mutator.
pub fn run_phase(
    addr: SocketAddr,
    spec: &Spec,
    inputs: &Inputs,
    carry: Option<MutatorRun>,
    until: Instant,
    check: &Check<'_>,
) -> Result<(QueryRun, Option<MutatorRun>), String> {
    beside_mutator(addr, spec, inputs, carry, || {
        query_client(addr, spec, &inputs.queries, 0, Stop::At(until), check)
    })
}

/// The survivors the model implies: the initial corpus (the mutator deletes
/// only its own inserts) followed by the mutator's live inserts.
pub fn survivors(
    corpus: &BinaryDataset,
    own: &VecDeque<(usize, BinaryVector)>,
) -> Vec<(usize, BinaryVector)> {
    corpus
        .iter()
        .enumerate()
        .chain(own.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use binvec::generate::{uniform_dataset, uniform_queries};

    #[test]
    fn oracle_maps_positions_to_stable_ids() {
        let corpus = uniform_dataset(40, 32, 5);
        let queries = uniform_queries(4, 32, 6);
        let plain = Oracle::new(&corpus);
        // Drop every third vector; the survivors keep their ids.
        let kept: Vec<(usize, BinaryVector)> = corpus
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .collect();
        let oracle = Oracle::over_survivors(32, &kept);
        for q in &queries {
            let got = oracle.expected(q);
            assert!(well_formed(&got));
            assert!(got.iter().all(|n| n.id % 3 != 0));
            assert!(got.iter().all(|n| n.distance == corpus.hamming_to(n.id, q)));
            assert!(plain.agrees(q, &plain.expected(q)));
        }
    }

    #[test]
    fn a_wrong_answer_does_not_pass() {
        let corpus = uniform_dataset(64, 32, 7);
        let oracle = Oracle::new(&corpus);
        let q = &uniform_queries(1, 32, 8)[0];
        let mut answer = oracle.expected(q);
        assert!(Check::Every(16, &oracle).passes(0, q, &answer));
        answer[0].id ^= 1;
        assert!(!Check::Every(16, &oracle).passes(16, q, &answer));
        // Unsorted or short answers fail even the shape check.
        answer.swap(0, 1);
        assert!(!Check::Shape.passes(1, q, &answer));
        assert!(!well_formed(&answer[..K - 1]));
    }
}
