//! Shared helpers for the benchmark harness binaries and criterion benches.
//!
//! Every `table*` / `figure*` binary regenerates one table or figure of the paper's
//! evaluation section and prints (a) the values produced by this reproduction and
//! (b) the values published in the paper, so the two can be compared row by row.
//! The binaries also emit machine-readable JSON records (one per row) on request via
//! the `--json` flag; README.md lists the binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use binvec::Workload;
use perf_model::KnnJob;
use serde::Serialize;

/// One row of an experiment: the reproduced value next to the paper's value.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentRecord {
    /// Experiment identifier (e.g. "table3").
    pub experiment: String,
    /// Row label (workload / platform / parameter).
    pub label: String,
    /// Metric name (e.g. "run_time_ms").
    pub metric: String,
    /// Value measured / modelled by this reproduction.
    pub reproduced: f64,
    /// Value reported in the paper, if the paper reports one.
    pub paper: Option<f64>,
}

impl ExperimentRecord {
    /// Creates a record.
    pub fn new(
        experiment: &str,
        label: impl Into<String>,
        metric: &str,
        reproduced: f64,
        paper: Option<f64>,
    ) -> Self {
        Self {
            experiment: experiment.to_string(),
            label: label.into(),
            metric: metric.to_string(),
            reproduced,
            paper,
        }
    }

    /// Ratio of reproduced to paper value (None when the paper has no value).
    pub fn ratio(&self) -> Option<f64> {
        self.paper.map(|p| self.reproduced / p)
    }

    /// Renders the record as one JSON object (written by hand — the serde shim
    /// used in the offline build environment does not serialize).
    pub fn to_json(&self) -> String {
        let paper = match self.paper {
            Some(p) => format_json_f64(p),
            None => "null".to_string(),
        };
        format!(
            "{{\"experiment\":{},\"label\":{},\"metric\":{},\"reproduced\":{},\"paper\":{}}}",
            json_string(&self.experiment),
            json_string(&self.label),
            json_string(&self.metric),
            format_json_f64(self.reproduced),
            paper,
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn format_json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal point.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Prints records as JSON lines when `--json` was passed on the command line.
pub fn maybe_emit_json(records: &[ExperimentRecord]) {
    if std::env::args().any(|a| a == "--json") {
        for r in records {
            println!("{}", r.to_json());
        }
    }
}

/// The small-dataset job (Table III) for a workload.
pub fn small_job(w: Workload) -> KnnJob {
    let p = w.params();
    KnnJob {
        dims: p.dims,
        dataset_size: w.small_dataset_size(),
        queries: p.queries,
        k: p.k,
    }
}

/// The large-dataset job (Table IV) for a workload.
pub fn large_job(w: Workload) -> KnnJob {
    let p = w.params();
    KnnJob {
        dims: p.dims,
        dataset_size: w.large_dataset_size(),
        queries: p.queries,
        k: p.k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_match_workload_parameters() {
        let s = small_job(Workload::TagSpace);
        assert_eq!((s.dims, s.dataset_size, s.k), (256, 512, 16));
        let l = large_job(Workload::WordEmbed);
        assert_eq!((l.dims, l.dataset_size), (64, 1 << 20));
    }

    #[test]
    fn record_ratio() {
        let r = ExperimentRecord::new("table3", "x", "ms", 2.0, Some(4.0));
        assert_eq!(r.ratio(), Some(0.5));
        assert_eq!(
            ExperimentRecord::new("t", "x", "ms", 2.0, None).ratio(),
            None
        );
    }
}
