//! The batch-execution recipe of a [`crate::ServiceRuntime`] dispatch.
//!
//! A worker thread and a caller driving [`crate::ServiceRuntime::poll`]
//! dispatch a batch the same way: time the backend call, verify the result
//! arity (a custom backend returning the wrong number of results would
//! otherwise silently drop completions), and fold the outcome into
//! [`ServiceStats`].

use crate::backend::{BackendBatch, SimilarityBackend};
use crate::stats::ServiceStats;
use binvec::{BinaryVector, QueryOptions, SearchError};
use std::time::{Duration, Instant};

/// The timed outcome of one backend dispatch.
pub(crate) struct Dispatched {
    /// The backend's (arity-checked) batch, or its typed failure.
    pub(crate) outcome: Result<BackendBatch, SearchError>,
    /// Wall-clock time spent inside the backend call.
    pub(crate) elapsed: Duration,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "non-string panic payload"
    }
}

/// Executes one batch against `backend`, timing it and verifying that the
/// backend produced exactly one result list per query. A *panicking* backend
/// is contained here and reported as a typed [`SearchError::Backend`] — a
/// runtime worker must survive it (its thread dying would strand every queued
/// ticket), and a polling caller gets the same per-ticket failure semantics
/// instead of an unwind.
pub(crate) fn execute_batch(
    backend: &dyn SimilarityBackend,
    queries: &[BinaryVector],
    options: &QueryOptions,
) -> Dispatched {
    let started = Instant::now();
    // The fallible entry point: a backend execution failure (invalid
    // partition network, capacity overflow) surfaces as a typed error
    // instead of aborting mid-batch. The full options — k, distance bound,
    // execution preference — travel with every batch.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        backend.try_serve_batch(queries, options)
    }))
    .unwrap_or_else(|payload| {
        Err(SearchError::Backend {
            backend: backend.name(),
            reason: format!("panicked during dispatch: {}", panic_message(&*payload)),
        })
    });
    let elapsed = started.elapsed();
    // The default try_serve_batch guarantees the arity, but a custom
    // override might not.
    let outcome = result.and_then(|batch| {
        if batch.results.len() == queries.len() {
            Ok(batch)
        } else {
            Err(SearchError::Backend {
                backend: backend.name(),
                reason: format!(
                    "returned {} results for {} queries",
                    batch.results.len(),
                    queries.len()
                ),
            })
        }
    });
    Dispatched { outcome, elapsed }
}

/// Folds a dispatch outcome into the service counters. Success accrues the
/// batching/AP figures and `busy_time`; failure accrues the `failed_*`
/// counters instead, so the backend-qps figure stays honest.
pub(crate) fn record_dispatch(
    stats: &mut ServiceStats,
    dispatched: &Dispatched,
    batch_len: usize,
    configured_batch_size: usize,
) {
    match &dispatched.outcome {
        Ok(batch) => {
            stats.busy_time += dispatched.elapsed;
            stats.batches_dispatched += 1;
            stats.batched_queries += batch_len as u64;
            if batch_len == configured_batch_size {
                stats.full_batches += 1;
            }
            stats.ap_symbol_cycles += batch.ap_symbol_cycles;
            stats.reconfigurations += batch.reconfigurations;
            if let Some(run) = &batch.run_stats {
                if run.lane_width > 0 {
                    stats.lane_width = stats.lane_width.max(run.lane_width);
                    stats.lane_batches += 1;
                    stats.lane_fill_sum += run.lane_fill;
                }
            }
        }
        Err(_) => {
            stats.failed_time += dispatched.elapsed;
            stats.failed_batches += 1;
            stats.failed_queries += batch_len as u64;
        }
    }
}
