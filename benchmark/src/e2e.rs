//! The untraced run: what a user of the served system sees.
//!
//! R repetitions, each building the stack from scratch (timing the set-up
//! several times and keeping the median), warming, then measuring one fixed
//! window. The reported value of a metric is the median over the repetitions;
//! percentiles are computed within a repetition.

use crate::load::{connect, run_phase, survivors, Check, MutatorRun, Oracle, Tally};
use crate::stats::{median, ns_to_ms, percentile_of};
use crate::workload::{Inputs, Spec, Stack, Tap, WalDir};
use ap_knn::live::LiveEngine;
use ap_knn::wal::WalConfig;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of a full run. This machine has slow stretches of a second or
/// more (six identical 3 x 5 s runs spread 13 % in set-up time and 7 % in
/// p50); many short windows and their median shrug those off where few long
/// ones average them in.
pub const REPS: usize = 8;

/// How long and how often to measure.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Repetitions; the reported value is their median.
    pub reps: usize,
    /// Measuring window of one repetition.
    pub window: Duration,
    /// Warm-up before the window.
    pub warm: Duration,
    /// Back-to-back set-ups timed per repetition (the last one is kept and
    /// measured); the repetition's set-up time is their median.
    pub setups: usize,
}

impl Plan {
    /// The driver's plan: `seconds` of measuring split over [`REPS`]
    /// repetitions.
    pub fn for_seconds(seconds: u64) -> Self {
        Self {
            reps: REPS,
            window: Duration::from_secs(seconds) / REPS as u32,
            warm: Duration::from_millis(500),
            setups: 5,
        }
    }

    /// `--quick`: one short repetition, for local use.
    pub fn quick() -> Self {
        Self {
            reps: 1,
            window: Duration::from_secs(2),
            warm: Duration::from_millis(500),
            setups: 3,
        }
    }
}

/// One repetition's figures.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Verified-correct query completions per second.
    pub query_qps: f64,
    /// Median round trip, ms.
    pub query_p50_ms: f64,
    /// Query round trips measured.
    pub query_samples: usize,
}

/// The untraced run's result.
#[derive(Clone, Debug)]
pub struct E2e {
    /// Every repetition.
    pub reps: Vec<Rep>,
    /// Attempts and failures over set-up, warm-up, window and final checks.
    pub tally: Tally,
    /// `VmHWM` of this process when the run ended, MiB.
    pub peak_rss_mb: f64,
}

impl E2e {
    /// Median over the repetitions of one figure.
    pub fn median(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>()).expect("at least one repetition")
    }
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// How far apart the first client's arrival is spread after the server has
/// bound. The server's accept loop polls (every 20 ms at this commit), so a
/// client that connects the instant `bind` returns either wins a race with
/// the loop's first poll or waits a whole tick — 0 or 20 ms on a 40 ms
/// set-up, and which one is the scheduler's mood, not the program's. Clients
/// do not arrive on a server's poll phase; spread over a tick they wait half
/// of one on average, and the median over a run's forty set-ups holds still.
const ARRIVAL_SPREAD: Duration = Duration::from_millis(20);

/// Builds the stack and takes it to its first correct answer: corpus in hand
/// → prepare + compile (+ WAL open) → server bound, then from the first
/// client's arrival → first ping → first answer. The idle time before that
/// arrival (see [`ARRIVAL_SPREAD`]) is not counted. Returns the stack, the
/// time that took, and whether the answer was the oracle's.
pub fn set_up(
    spec: &Spec,
    inputs: &Inputs,
    oracle: &Oracle,
    tap: Option<&Arc<Tap>>,
) -> Result<(Stack, Duration, bool), String> {
    static ARRIVALS: AtomicU32 = AtomicU32::new(0);
    let started = Instant::now();
    let stack = Stack::build(spec, &inputs.corpus, tap)?;
    let built = started.elapsed();
    // A fixed sequence that fills the spread evenly: steps of 0.382 of it.
    let phase = ARRIVALS.fetch_add(1, Ordering::Relaxed).wrapping_mul(382) % 1000;
    std::thread::sleep(ARRIVAL_SPREAD * phase / 1000);
    let arrived = Instant::now();
    let mut client = connect(stack.addr)?;
    client.ping().map_err(|e| format!("first ping: {e}"))?;
    let answer = client
        .search(inputs.queries[0].clone(), spec.options())
        .map_err(|e| format!("first query: {e}"))?;
    let took = built + arrived.elapsed();
    Ok((stack, took, oracle.agrees(&inputs.queries[0], &answer)))
}

/// After the churn has stopped: checks the served corpus against the model.
/// 64 queries over the wire must equal `LinearScan` over the survivors; then
/// the server is dropped, the directory restored, and every acked mutation
/// must be visible in the restored engine. Returns the checks' tally and how
/// long the restore took.
pub fn verify_live(
    stack: Stack,
    spec: &Spec,
    inputs: &Inputs,
    mutator: &MutatorRun,
) -> Result<(Tally, Duration), String> {
    let mut tally = Tally::default();
    let mut expect = |ok: bool| {
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
    };
    let alive = survivors(&inputs.corpus, &mutator.own);
    let oracle = Oracle::over_survivors(spec.dims, &alive);
    let mut client = connect(stack.addr)?;
    for q in inputs.queries.iter().take(64) {
        let got = client
            .search(q.clone(), spec.options())
            .map_err(|e| format!("quiesced: {e}"))?;
        expect(oracle.agrees(q, &got));
    }
    drop(client);

    let (_, dir) = stack.shutdown();
    let dir: WalDir = dir.ok_or("live stack without a durable directory")?;
    let started = Instant::now();
    let (restored, _report) = LiveEngine::restore(
        spec.engine(),
        spec.live_config(),
        WalConfig::default(),
        dir.path(),
    )
    .map_err(|e| format!("restore: {e}"))?;
    let restore_took = started.elapsed();
    expect(restored.len() == alive.len());
    let pool: Vec<_> = inputs.queries.iter().take(64).cloned().collect();
    let (answers, _) = restored
        .try_search_batch(&pool, &spec.options())
        .map_err(|e| format!("restored search: {e}"))?;
    for (q, got) in pool.iter().zip(&answers) {
        expect(oracle.agrees(q, got));
    }
    // Each surviving insert of the mutator's own answers to itself.
    let own: Vec<_> = mutator.own.iter().map(|(_, v)| v.clone()).collect();
    if !own.is_empty() {
        let (answers, _) = restored
            .try_search_batch(&own, &spec.options())
            .map_err(|e| format!("restored self-search: {e}"))?;
        for ((id, _), got) in mutator.own.iter().zip(&answers) {
            expect(got.iter().any(|n| n.id == *id && n.distance == 0));
        }
    }
    drop(restored);
    Ok((tally, restore_took))
}

fn repetition(
    spec: &Spec,
    inputs: &Inputs,
    oracle: &Oracle,
    plan: &Plan,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let mut setups = Vec::with_capacity(plan.setups);
    let mut stack = None;
    for _ in 0..plan.setups {
        // The previous stack goes first: two never run side by side.
        drop(stack.take());
        let (built, took, correct) = set_up(spec, inputs, oracle, None)?;
        tally.add(Tally {
            attempted: 1,
            failed: u64::from(!correct),
        });
        setups.push(took.as_secs_f64());
        stack = Some(built);
    }
    let stack = stack.ok_or("a plan needs at least one set-up")?;

    let window_check = Check::measured(spec, oracle);
    let warm_check = if spec.live {
        Check::Shape
    } else {
        Check::Every(1, oracle)
    };
    let carry = spec.live.then(MutatorRun::default);
    let (warm, carry) = run_phase(
        stack.addr,
        spec,
        inputs,
        carry,
        Instant::now() + plan.warm,
        &warm_check,
    )?;
    tally.add(warm.tally);
    let (queries, mutator) = run_phase(
        stack.addr,
        spec,
        inputs,
        carry,
        Instant::now() + plan.window,
        &window_check,
    )?;
    tally.add(queries.tally);

    let mut latencies = queries.latencies_ns();
    let p50 = percentile_of(&mut latencies, 0.50).ok_or_else(|| {
        format!(
            "{} round trips in {:?} are too few for a median",
            latencies.len(),
            plan.window
        )
    })?;
    match mutator {
        Some(mutator) => {
            tally.add(mutator.tally);
            let (checks, _) = verify_live(stack, spec, inputs, &mutator)?;
            tally.add(checks);
        }
        None => drop(stack),
    }
    Ok(Rep {
        setup_s: median(&setups).expect("at least one set-up"),
        query_qps: queries.qps(),
        query_p50_ms: ns_to_ms(p50),
        query_samples: latencies.len(),
    })
}

/// Runs the workload untraced.
pub fn run(spec: &Spec, inputs: &Inputs, plan: &Plan) -> Result<E2e, String> {
    let oracle = Oracle::new(&inputs.corpus);
    let mut tally = Tally::default();
    let reps = (0..plan.reps)
        .map(|_| repetition(spec, inputs, &oracle, plan, &mut tally))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(E2e {
        reps,
        tally,
        peak_rss_mb: peak_rss_mb()?,
    })
}
