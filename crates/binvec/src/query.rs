//! The workspace-wide query vocabulary: [`QueryOptions`] and [`SearchError`].
//!
//! Every query entry point in the workspace — the AP engine's fallible
//! `try_search_batch`, the serving pipeline's `query`/`query_batch`, the
//! service front door — speaks the same two types defined here, so callers
//! handle one error enum and one options struct no matter which backend
//! answers the query.

use crate::topk::Neighbor;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// How the answering engine should execute, when the caller cares.
///
/// The single-board AP engine honours the preference by overriding its
/// configured execution mode (`ap_knn::ExecutionMode`) per call. Engines
/// that are inherently cycle-accurate (the Jaccard searcher) and host-only engines
/// (the CPU baselines and approximate indexes) ignore it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionPreference {
    /// Use whatever mode the engine was configured with (the default).
    #[default]
    Auto,
    /// Force a cycle-accurate simulation of every partition network.
    CycleAccurate,
    /// Force the behavioural (analytical-accounting) path.
    Behavioral,
}

/// Scheduling priority of a query inside a concurrent serving runtime.
///
/// Higher-priority queries are dispatched first; within one priority class the
/// scheduler orders by deadline (earliest first), then by submission order.
/// The priority never changes *what* a query returns — only *when* it runs —
/// so it is excluded from result caching keys ([`QueryOptions::result_key`]).
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Priority {
    /// Scheduled after all `Normal` and `High` traffic.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Scheduled before all `Normal` and `Low` traffic.
    High,
}

/// A wall-clock deadline for a submitted query.
///
/// A runtime with deadline-aware admission fails queries whose deadline has
/// passed with [`SearchError::DeadlineExceeded`] *without dispatching them*,
/// so a backlogged queue sheds work nobody is waiting for instead of burning
/// fabric time on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Self(instant)
    }

    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self(Instant::now() + budget)
    }

    /// The absolute instant of the deadline.
    pub fn instant(&self) -> Instant {
        self.0
    }

    /// Whether the deadline has already passed.
    pub fn is_expired(&self) -> bool {
        Instant::now() >= self.0
    }

    /// Time left until the deadline (zero if it has passed).
    pub fn remaining(&self) -> Duration {
        self.0.saturating_duration_since(Instant::now())
    }
}

/// The result-affecting slice of [`QueryOptions`]: everything that changes
/// *what* a query returns, and nothing that merely changes *when* it runs.
///
/// Result caches key their entries by `(query, ResultKey)` — folding in the
/// distance bound and execution preference, not just `k`, so a bounded query
/// can never be answered from an entry computed under a different bound — and
/// batch schedulers group only queries with equal keys into one dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Maximum neighbors returned per query.
    pub k: usize,
    /// Optional exclusive distance bound.
    pub within: Option<u32>,
    /// Execution preference (results are bit-identical across preferences,
    /// but the key keeps the cache conservative and auditable).
    pub execution: ExecutionPreference,
}

/// Per-query options carried by every uniform query entry point.
///
/// `k` caps the number of neighbors returned. `within`, when set, additionally
/// restricts results to neighbors whose distance key is *strictly below* the
/// bound — the ε-bounded range queries of the paper's §VII, expressed in the
/// answering backend's distance key (Hamming bits for the exact engines,
/// quantized Jaccard dissimilarity for the Jaccard searcher). A bound of zero
/// would exclude even exact matches and is rejected at validation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryOptions {
    /// Maximum neighbors returned per query.
    pub k: usize,
    /// Optional exclusive distance bound (`distance < within`).
    pub within: Option<u32>,
    /// Execution preference forwarded to fabric-simulating engines.
    pub execution: ExecutionPreference,
    /// Scheduling priority inside a concurrent serving runtime. Ignored by
    /// direct (synchronous) query paths.
    pub priority: Priority,
    /// Optional completion deadline. A deadline-aware runtime fails the query
    /// with [`SearchError::DeadlineExceeded`] instead of dispatching it once
    /// the deadline passes. Ignored by direct (synchronous) query paths.
    /// Skipped by serialization: a deadline is an in-process wall-clock
    /// instant ([`std::time::Instant`] has no stable epoch), so a
    /// deserialized `QueryOptions` carries no deadline.
    #[serde(skip)]
    pub deadline: Option<Deadline>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            k: 10,
            within: None,
            execution: ExecutionPreference::Auto,
            priority: Priority::Normal,
            deadline: None,
        }
    }
}

impl QueryOptions {
    /// Options returning the `k` nearest neighbors with no distance bound.
    pub fn top(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Restricts results to neighbors with `distance < bound`.
    pub fn within(mut self, bound: u32) -> Self {
        self.within = Some(bound);
        self
    }

    /// Sets the execution preference.
    pub fn execution(mut self, execution: ExecutionPreference) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the scheduling priority (runtime submission paths only).
    pub fn prioritized(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the completion deadline (runtime submission paths only).
    pub fn by(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The result-affecting fields, as one hashable/compareable key. The
    /// scheduling fields (`priority`, `deadline`) are deliberately excluded:
    /// they steer *when* a query runs, never *what* it returns.
    pub fn result_key(&self) -> ResultKey {
        ResultKey {
            k: self.k,
            within: self.within,
            execution: self.execution,
        }
    }

    /// Checks the options for internal consistency.
    ///
    /// # Errors
    /// [`SearchError::ZeroK`] when `k` is zero and
    /// [`SearchError::ZeroDistanceBound`] when the bound is `Some(0)` (a zero
    /// bound excludes even exact matches, so it is always a caller mistake).
    pub fn validate(&self) -> Result<(), SearchError> {
        if self.k == 0 {
            return Err(SearchError::ZeroK);
        }
        if self.within == Some(0) {
            return Err(SearchError::ZeroDistanceBound);
        }
        Ok(())
    }

    /// Applies the distance bound to a `(distance, id)`-sorted neighbor list,
    /// truncating at the first neighbor at or beyond the bound.
    pub fn clip(&self, neighbors: &mut Vec<Neighbor>) {
        if let Some(bound) = self.within {
            let cut = neighbors.partition_point(|n| n.distance < bound);
            neighbors.truncate(cut);
        }
    }
}

/// The one error type every fallible query path in the workspace returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchError {
    /// A dataset or query vector's dimensionality differs from the engine's.
    DimMismatch {
        /// Dimensionality the engine was built for.
        expected: usize,
        /// Dimensionality actually supplied.
        actual: usize,
    },
    /// `k` was zero.
    ZeroK,
    /// The design (or dataset) has zero dimensions, so no automaton can be built.
    ZeroDims,
    /// The distance bound was zero, which excludes even exact matches.
    ZeroDistanceBound,
    /// The request exceeds a hard capacity of the execution substrate.
    CapacityExceeded {
        /// Units the request needs (e.g. symbol-stream offsets).
        needed: u64,
        /// Units the substrate can address.
        limit: u64,
    },
    /// A configuration field failed validation at build time.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// The requested metric/backend/option combination is not servable.
    Unsupported {
        /// Human-readable description of the unsupported combination.
        what: String,
    },
    /// The backend failed while executing (e.g. an invalid automata network).
    Backend {
        /// The backend's label.
        backend: String,
        /// The underlying failure.
        reason: String,
    },
    /// The query's deadline passed before it could be dispatched; the query
    /// was failed without touching the backend.
    DeadlineExceeded,
    /// The bounded admission queue is at capacity; the submission was rejected
    /// instead of blocking the caller or growing the queue without bound.
    QueueFull {
        /// The queue's configured capacity (pending queries).
        capacity: usize,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimMismatch { expected, actual } => {
                write!(f, "dims mismatch: expected {expected}, got {actual}")
            }
            Self::ZeroK => write!(f, "k must be positive"),
            Self::ZeroDims => write!(f, "design must have at least one dimension"),
            Self::ZeroDistanceBound => {
                write!(
                    f,
                    "distance bound of 0 selects nothing (bound is exclusive)"
                )
            }
            Self::CapacityExceeded { needed, limit } => {
                write!(
                    f,
                    "capacity exceeded: need {needed}, substrate limit {limit}"
                )
            }
            Self::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            Self::Unsupported { what } => write!(f, "unsupported: {what}"),
            Self::Backend { backend, reason } => {
                write!(f, "backend '{backend}' failed: {reason}")
            }
            Self::DeadlineExceeded => {
                write!(f, "deadline passed before the query could be dispatched")
            }
            Self::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} pending queries)")
            }
        }
    }
}

impl std::error::Error for SearchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_valid() {
        let opts = QueryOptions::default();
        assert_eq!(opts.k, 10);
        assert_eq!(opts.within, None);
        assert_eq!(opts.execution, ExecutionPreference::Auto);
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn zero_k_and_zero_bound_are_rejected() {
        assert_eq!(QueryOptions::top(0).validate(), Err(SearchError::ZeroK));
        assert_eq!(
            QueryOptions::top(3).within(0).validate(),
            Err(SearchError::ZeroDistanceBound)
        );
        assert!(QueryOptions::top(3).within(1).validate().is_ok());
    }

    #[test]
    fn clip_truncates_at_the_exclusive_bound() {
        let mut neighbors = vec![
            Neighbor::new(4, 0),
            Neighbor::new(1, 2),
            Neighbor::new(9, 2),
            Neighbor::new(3, 5),
        ];
        QueryOptions::top(10).within(3).clip(&mut neighbors);
        assert_eq!(
            neighbors,
            vec![
                Neighbor::new(4, 0),
                Neighbor::new(1, 2),
                Neighbor::new(9, 2)
            ]
        );
        let mut same = vec![Neighbor::new(0, 7)];
        QueryOptions::top(10).clip(&mut same);
        assert_eq!(same.len(), 1, "no bound leaves the list untouched");
        QueryOptions::top(10).within(7).clip(&mut same);
        assert!(same.is_empty(), "bound is exclusive");
    }

    #[test]
    fn scheduling_fields_default_inert_and_stay_out_of_the_result_key() {
        let opts = QueryOptions::default();
        assert_eq!(opts.priority, Priority::Normal);
        assert_eq!(opts.deadline, None);

        let scheduled = QueryOptions::top(5)
            .within(3)
            .prioritized(Priority::High)
            .by(Deadline::after(std::time::Duration::from_secs(60)));
        assert_eq!(scheduled.priority, Priority::High);
        assert!(scheduled.deadline.is_some());
        assert!(!scheduled.deadline.unwrap().is_expired());
        // The result key folds in k, bound, and execution — and nothing else.
        assert_eq!(
            scheduled.result_key(),
            QueryOptions::top(5).within(3).result_key()
        );
        assert_ne!(
            scheduled.result_key(),
            QueryOptions::top(5).result_key(),
            "a distance bound must change the result key"
        );
        assert_ne!(
            QueryOptions::top(5).result_key(),
            QueryOptions::top(6).result_key()
        );
    }

    #[test]
    fn priorities_order_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }

    #[test]
    fn deadlines_expire_and_report_remaining_time() {
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.is_expired());
        assert_eq!(past.remaining(), Duration::ZERO);
        let future = Deadline::after(Duration::from_secs(3600));
        assert!(!future.is_expired());
        assert!(future.remaining() > Duration::from_secs(3000));
        assert!(past < future);
    }

    #[test]
    fn errors_render_their_context() {
        let e = SearchError::DimMismatch {
            expected: 64,
            actual: 32,
        };
        assert!(e.to_string().contains("expected 64"));
        assert!(SearchError::ZeroK
            .to_string()
            .contains("k must be positive"));
        let e = SearchError::InvalidConfig {
            field: "batch_size",
            reason: "must be at least 1".into(),
        };
        assert!(e.to_string().contains("batch_size"));
        assert!(SearchError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(SearchError::QueueFull { capacity: 64 }
            .to_string()
            .contains("64"));
    }
}
