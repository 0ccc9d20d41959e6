//! `apbench`: the served-kNN benchmark. See `benchmark/README.md`.
//!
//! ```text
//! apbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one mode; the last line of stdout is the result object
//! apbench run [--quick] [--seed <n>] [--seconds <s>]
//!     every workload, untraced then traced, each in a process of its own;
//!     prints tables and appends a record under benchmark/out/
//! apbench manifest
//!     prints BENCHMARK.json
//! ```

mod affinity;
mod e2e;
mod json;
mod load;
mod metrics;
mod micro;
mod pace;
mod record;
mod spans;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;

/// One run's outcome: the metrics by name, and whether everything checked.
pub struct Outcome {
    /// Requests attempted and failed, checks included.
    pub tally: load::Tally,
    /// Checks beyond request failures that did not hold (pinned counts, the
    /// ladder closing), each as one line.
    pub violations: Vec<String>,
    /// `(name, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// `(name, samples)` for the metrics that are percentiles of samples.
    pub samples: Vec<(&'static str, usize)>,
    /// `(name, value in each repetition)` for the metrics that are medians
    /// over repetitions.
    pub repetitions: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.violations.is_empty()
    }

    /// What `apbench run` records beside the metrics: per-metric sample
    /// counts and the checks that did not hold.
    fn stamp_json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(n, c)| format!("{}: {c}", json::quote(n)))
            .collect();
        let violations: Vec<String> = self.violations.iter().map(|v| json::quote(v)).collect();
        let repetitions: Vec<String> = self
            .repetitions
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> = values.iter().map(|v| json::number(*v)).collect();
                format!("{}: [{}]", json::quote(name), values.join(", "))
            })
            .collect();
        format!(
            "{{\"nproc\": {}, \"samples\": {{{}}}, \"repetitions\": {{{}}}, \
             \"violations\": [{}]}}",
            workload::nproc(),
            samples.join(", "),
            repetitions.join(", "),
            violations.join(", ")
        )
    }

    /// The result object the driver reads.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = metrics::unit_of(name).expect("every printed metric is in the table");
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a name")?.clone()),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Runs one workload in one mode in this process.
fn run_one(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let spec = workload::spec(name)
        .ok_or_else(|| format!("unknown workload {name}; one of {:?}", workload::NAMES))?;
    // Counted before the mask narrows, for the record.
    workload::nproc();
    if spec.single_chain {
        // Before any thread is spawned: they inherit the mask.
        affinity::pin_to_one_cpu()?;
    }
    let inputs = workload::inputs(&spec, args.seed);
    let seconds = args.seconds.unwrap_or(metrics::RUN_SECONDS);
    if args.trace {
        let budget = if args.quick { 4 } else { seconds };
        return traced::run(&spec, &inputs, args.seed, budget);
    }
    let plan = if args.quick {
        e2e::Plan::quick()
    } else {
        e2e::Plan::for_seconds(seconds)
    };
    let run = e2e::run(&spec, &inputs, &plan)?;
    let queries: usize = run.reps.iter().map(|r| r.query_samples).sum();
    let each = |f: fn(&e2e::Rep) -> f64| run.reps.iter().map(f).collect::<Vec<_>>();
    Ok(Outcome {
        tally: run.tally,
        violations: Vec::new(),
        metrics: vec![
            ("setup_s", run.median(|r| r.setup_s)),
            ("query_qps", run.median(|r| r.query_qps)),
            ("query_p50_ms", run.median(|r| r.query_p50_ms)),
            ("peak_rss_mb", run.peak_rss_mb),
        ],
        samples: vec![
            ("setup_s", plan.setups * plan.reps),
            ("query_qps", queries),
            ("query_p50_ms", queries),
        ],
        repetitions: vec![
            ("setup_s", each(|r| r.setup_s)),
            ("query_qps", each(|r| r.query_qps)),
            ("query_p50_ms", each(|r| r.query_p50_ms)),
        ],
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Some("run") => parse_args(&args[1..]).and_then(|a| record::run_all(&a)),
        _ => parse_args(&args).and_then(|a| {
            let outcome = run_one(&a)?;
            for line in &outcome.violations {
                eprintln!("apbench: {line}");
            }
            println!("{}{}", record::STAMP_PREFIX, outcome.stamp_json());
            println!("{}", outcome.to_json());
            Ok(outcome.correct())
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("apbench: {e}");
            ExitCode::from(2)
        }
    }
}
