#!/usr/bin/env sh
# Non-test lines per crate: everything before the first `#[cfg(test)]` of
# each `crates/<crate>/src/**/*.rs`, and a total. The counter every
# "one of each" PR reports its LOC delta from.
set -eu

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    n=$(find "$dir/src" -name '*.rs' -exec awk '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test { n++ }
        END { print n + 0 }' {} +)
    printf '%-12s %6d\n' "l15-$(basename "$dir")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
