#!/usr/bin/env bash
# Lint gate, run in CI:
#
#  1. No unwrap()/expect() in non-test ap-serve / ap-knn source outside the
#     fixed-string allowlist (tools/lint-allowlist.txt). Serving and engine
#     code must handle errors or document why a panic is impossible; unit
#     tests (everything from the first `#[cfg(test)]` line down) and comment
#     lines are exempt.
#  2. No stale allowlist entry: every entry must still match at least one
#     such line, so the allowlist only ever shrinks with the code it excuses.
#  3. The analyzer crate is clippy-clean at -D warnings across all targets.
#
# Exit nonzero on any violation, printing file:line for each.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=tools/lint-allowlist.txt
if [ ! -s "$allowlist" ]; then
    echo "lint-gate: missing or empty $allowlist" >&2
    exit 2
fi

# Every unwrap()/expect() line of the gated source: each file truncated at its
# unit-test module, comment-only lines dropped.
gated=$(
    find crates/ap-serve/src crates/ap-knn/src -name '*.rs' | sort | while IFS= read -r file; do
        awk '!/^[[:space:]]*\/\//{ if ($0 ~ /^#\[cfg\(test\)\]/) exit; print FILENAME":"FNR": "$0 }' "$file"
    done | grep -E '\.unwrap\(\)|\.expect\(' || true
)

violations=$(grep -v -F -f "$allowlist" <<<"$gated" || true)
if [ -n "$violations" ]; then
    printf '%s\n' "$violations"
    echo "lint-gate: unhandled unwrap()/expect() in serving code." >&2
    echo "lint-gate: handle the error, or add a justified entry to $allowlist." >&2
    exit 1
fi

stale=$(
    grep -v '^#' "$allowlist" | while IFS= read -r entry; do
        grep -q -F -- "$entry" <<<"$gated" || printf '%s\n' "$entry"
    done
)
if [ -n "$stale" ]; then
    printf '%s\n' "$stale"
    echo "lint-gate: the allowlist entries above excuse no line any more; delete them from $allowlist." >&2
    exit 1
fi

cargo clippy -p ap-analyze --all-targets -- -D warnings

echo "lint-gate: OK"
