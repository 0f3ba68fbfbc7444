#!/usr/bin/env bash
# benchmark/run.sh — the one command.
#
#   benchmark/run.sh [--seed N] [--quick]
#       builds the benchmark, runs each of the six workloads as its own
#       process, prints every metric by name with its unit, checks the
#       outputs, and writes benchmark/out/<workload>.json,
#       benchmark/out/trace-<workload>.json and benchmark/out/set.json
#       (all six in one document, the form benchmark/baseline/ holds).
#       Exits non-zero when a check or an op failed.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload, its result as one JSON line last on
#       stdout (the form BENCHMARK.json's driver uses).
#
# Run it from anywhere; it touches nothing outside benchmark/ except the
# cargo target directory when CARGO_TARGET_DIR points elsewhere.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, which
# is where cargo resolves it too: do not cd.
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/l15-benchmark"

# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
L15_BENCH_RUSTC="$(rustc --version)"
export L15_BENCH_RUSTC
# One malloc arena. With glibc's per-thread arenas the peak RSS of the two
# serve workloads swings by a quarter with thread timing (32..52 MiB over
# six runs of serve_simulate; 15..19 MiB with one arena), which would bury
# peak_rss_mb. Both sides of a comparison run under the same setting.
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-1}"

for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bin" "$@"
    fi
done

seed=1
quick=()
while [ $# -gt 0 ]; do
    case "$1" in
    --seed)
        seed="${2:?--seed needs a value}"
        shift 2
        ;;
    --quick)
        quick=(--quick)
        shift
        ;;
    *)
        echo "usage: benchmark/run.sh [--seed N] [--quick]" >&2
        echo "       benchmark/run.sh --workload W --seed N --seconds S --trace 0|1" >&2
        exit 2
        ;;
    esac
done

out="$here/out"
rm -rf "$out"
status=0
for workload in fullstack_8core cluster_32core analytic_sweep serve_analytic serve_simulate online_admission; do
    "$bin" run "$workload" --seed "$seed" "${quick[@]}" --out "$out" || status=1
done
"$bin" merge "$out" >"$out/set.json"
if [ "$status" -ne 0 ]; then
    echo "benchmark: a check or an op FAILED (see above)" >&2
fi
exit "$status"
