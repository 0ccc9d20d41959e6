#!/usr/bin/env bash
# Non-test lines per crate: for every `.rs` file under a crate's `src/`, the
# lines before its first `#[cfg(test)]` line (the whole file when it has
# none). This is the count CHANGES.md and ROADMAP.md quote.
#
#   tools/loc.sh            every crate under crates/ (shims excluded)
#   tools/loc.sh ap-knn ... the named crates only
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(find crates -mindepth 2 -maxdepth 2 -name Cargo.toml -not -path 'crates/shims/*' \
        | xargs -n1 dirname | xargs -n1 basename | sort)
fi

total=0
for crate in "$@"; do
    lines=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z \
        | xargs -0 awk 'FNR == 1 { done = 0 } /^#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
