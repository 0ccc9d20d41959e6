//! `apbench run`: every workload, untraced then traced, each in a process of
//! its own (so `peak_rss_mb` belongs to one workload), with a stamped record
//! appended under `benchmark/out/`.

use crate::json::{self, Value};
use crate::metrics::{unit_of, END_TO_END, RUN_SECONDS};
use crate::workload::{bench_dir, nproc, out_dir, NAMES};
use crate::Args;
use std::fmt::Write as _;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The line a child prints before its result object: what `apbench run`
/// records beside the metrics.
pub const STAMP_PREFIX: &str = "#apbench-stamp ";

/// First line of `command`'s stdout, or `unknown` when it cannot run (the
/// driver's checkout, for one, is not a git repository).
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD` of the repository holding the benchmark, with
/// `-dirty` appended when the work tree differs from it.
fn git_commit() -> String {
    let dir = bench_dir();
    let head = first_line(
        Command::new("git")
            .arg("-C")
            .arg(&dir)
            .args(["rev-parse", "HEAD"]),
    );
    let dirty = Command::new("git")
        .arg("-C")
        .arg(&dir)
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .is_ok_and(|o| o.status.success() && !o.stdout.is_empty());
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

struct Child {
    workload: &'static str,
    trace: bool,
    /// The child's result object, parsed and as printed.
    result: Value,
    result_text: String,
    /// The child's stamp line, as printed.
    stamp: String,
    ok: bool,
}

fn run_child(args: &Args, workload: &'static str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    command.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.quick {
        command.arg("--quick");
    }
    // stderr passes through; wait_with_output reaps the child.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} (trace {trace}): no output, {}", output.status))?;
    let result_text = result.to_string();
    let result = json::parse(result).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let stamp = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(STAMP_PREFIX))
        .unwrap_or("{}")
        .to_string();
    Ok(Child {
        workload,
        trace,
        result,
        result_text,
        stamp,
        ok: output.status.success(),
    })
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_tables(children: &[Child]) {
    println!("\nend to end (tracing off; median of the repetitions)");
    print!("{:<18}", "workload");
    for (name, unit, ..) in END_TO_END {
        print!(" {:>20}", format!("{name} [{unit}]"));
    }
    println!(" {:>10}", "failed");
    for c in children.iter().filter(|c| !c.trace) {
        print!("{:<18}", c.workload);
        for (name, ..) in END_TO_END {
            match metric(&c.result, name) {
                Some(v) => print!(" {v:>20.4}"),
                None => print!(" {:>20}", "-"),
            }
        }
        let count = |key| {
            c.result
                .get(key)
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN)
        };
        println!(
            " {:>10}",
            format!("{}/{}", count("failed"), count("attempted"))
        );
    }
    let traced: Vec<&Child> = children.iter().filter(|c| c.trace).collect();
    let Some(first) = traced.first() else { return };
    println!("\nper layer (traced run)");
    print!("{:<42}", "metric [unit]");
    for c in &traced {
        print!(" {:>16}", c.workload);
    }
    println!();
    let names = first.result.get("metrics").and_then(Value::as_object);
    // Table order, not the object's alphabetical one.
    for (name, ..) in crate::metrics::PER_LAYER {
        if names.is_some_and(|m| !m.contains_key(name)) {
            continue;
        }
        print!(
            "{:<42}",
            format!("{name} [{}]", unit_of(name).unwrap_or("?"))
        );
        for c in &traced {
            match metric(&c.result, name) {
                Some(v) => print!(" {v:>16.4}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
    if let Some(scalar) = traced.iter().find(|c| c.workload == "rtt_scalar") {
        let p50 = metric(&scalar.result, "client.rtt_p50_ms").unwrap_or(f64::NAN);
        println!("\nwhere rtt_scalar's traced round trip ({p50:.3} ms median) goes:");
        for (name, ..) in crate::metrics::PER_LAYER
            .iter()
            .filter(|m| m.0.starts_with("share."))
        {
            if let Some(v) = metric(&scalar.result, name) {
                println!("  {name:<28} {:>6.1} %", v * 100.0);
            }
        }
    }
}

/// Runs every workload in both modes, prints the tables and appends the
/// record. Returns whether every child ran correct.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let mut children = Vec::new();
    for trace in [false, true] {
        for workload in NAMES {
            eprintln!("apbench: {workload}, trace {}", u8::from(trace));
            children.push(run_child(args, workload, trace)?);
        }
    }
    print_tables(&children);

    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut record = String::from("{\n");
    let _ = writeln!(record, "  \"unix_time\": {now},");
    let _ = writeln!(record, "  \"seed\": {},", args.seed);
    let _ = writeln!(record, "  \"nproc\": {},", nproc());
    let _ = writeln!(record, "  \"commit\": {},", json::quote(&git_commit()));
    let rustc = first_line(Command::new("rustc").arg("-V"));
    let _ = writeln!(record, "  \"rustc\": {},", json::quote(&rustc));
    let _ = writeln!(record, "  \"quick\": {},", args.quick);
    let _ = writeln!(record, "  \"seconds\": {seconds},");
    record.push_str("  \"runs\": [\n");
    for (i, c) in children.iter().enumerate() {
        let comma = if i + 1 == children.len() { "" } else { "," };
        let _ = writeln!(
            record,
            "    {{\"workload\": {}, \"trace\": {}, \"stamp\": {}, \"result\": {}}}{comma}",
            json::quote(c.workload),
            u8::from(c.trace),
            c.stamp,
            c.result_text
        );
    }
    record.push_str("  ]\n}\n");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // A name of its own per run: records are appended, never overwritten.
    let path = dir.join(format!("run-{now}-{}.json", std::process::id()));
    std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nrecord: {}", path.display());
    Ok(children.iter().all(|c| c.ok))
}
