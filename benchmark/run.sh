#!/usr/bin/env bash
# The benchmark's one command. Builds apbench from source (into
# $CARGO_TARGET_DIR, or benchmark/target) and hands it every argument:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one mode; the last line of stdout is the result object
#   bash benchmark/run.sh run [--quick] [--seed <n>] [--seconds <s>]
#       every workload, untraced then traced; tables, and a record in benchmark/out/
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# One malloc arena. A run builds and tears down some forty stacks in one
# process, each with threads of its own; glibc gives every new thread an arena
# and never hands one thread's freed memory to another's, so by default
# peak_rss_mb measures that lottery (live_churn: 81-95 MiB from run to run)
# instead of the program's footprint (25-26 MiB).
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-1}"
# cargo reports on stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/apbench" "$@"
