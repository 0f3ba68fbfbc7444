#!/usr/bin/env sh
# Offline CI gate: build, test, check formatting, then smoke-run every
# `l15` subcommand in its --quick configuration. No network access is
# required at any step (the workspace has zero external dependencies).
set -eu

cd "$(dirname "$0")/.."

echo "==> build (release: the facade and the one l15 binary)"
cargo build --release --offline -p l15 -p l15-bench
l15="${CARGO_TARGET_DIR:-target}/release/l15"

echo "==> size (non-test lines per crate)"
scripts/loc.sh

echo "==> test (workspace, sequential pool: L15_JOBS=1)"
L15_JOBS=1 cargo test -q --offline --workspace

echo "==> test (workspace, parallel pool: L15_JOBS=4)"
L15_JOBS=4 cargo test -q --offline --workspace

echo "==> rustfmt"
cargo fmt --check

echo "==> clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc (workspace, warnings are errors: every intra-doc link resolves)"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

echo "==> unsafe-code gate (every crate forbids unsafe)"
for lib in crates/*/src/lib.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]$' "$lib" \
        || { echo "$lib is missing #![forbid(unsafe_code)]"; exit 1; }
done
echo "all crates carry #![forbid(unsafe_code)]"

echo "==> endpoint table gate (each serve path literal occurs once, in api::ROWS)"
# The non-test part of crates/serve/src, cut as scripts/loc.sh cuts it:
# a second routing list would name a path a second time.
serve_src=$(find crates/serve/src -name '*.rs' -exec awk '
    FNR == 1 { test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
    !test' {} +)
for path in schedule analyze simulate check trace certify healthz metrics submit jobs shutdown; do
    n=$(printf '%s\n' "$serve_src" | grep -o "\"/$path\"" | wc -l)
    [ "$n" -eq 1 ] || { echo "\"/$path\" occurs $n times in crates/serve/src (want 1)"; exit 1; }
done
echo "every endpoint path is named once"

echo "==> connection thread gate (one thread::spawn in crates/serve/src)"
# Connection threads are a warm, bounded set that spawns its own successor
# (server::spawn); a spawn per connection or per request must not come back.
n=$(printf '%s\n' "$serve_src" | grep -c 'thread::spawn')
[ "$n" -eq 1 ] || { echo "'thread::spawn' occurs $n times in crates/serve/src (want 1)"; exit 1; }
echo "one thread::spawn in the server"

echo "==> way-width gate (one port conversion, no second way bound)"
# An L1.5 way mask crosses the RV32 control port only through
# WayMask::port_word, which refuses a way the port cannot carry; a bare
# `.0 as u32` truncates (node ids, always `v`, are the one other `.0`).
# L1.5 ways are bounded by PORT_WAYS through SocConfig::validate, so a
# literal 64 next to `ways` or `zeta` in serve or check is a second bound.
src_of() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test { print FILENAME ": " $0 }' {} +
}
casts=$(src_of crates/*/src | grep '\.0 as u32' | grep -v '\bv\.0 as u32' || true)
[ -z "$casts" ] || { echo "a way mask cast to the port width outside port_word:"; echo "$casts"; exit 1; }
bounds=$(src_of crates/serve/src crates/check/src | grep -E '(zeta|ways|\bw\b)' \
    | grep -E '(<=|<|\.\.=|,|at most) ?64\b' || true)
[ -z "$bounds" ] || { echo "a literal 64 way bound:"; echo "$bounds"; exit 1; }
echo "way masks cross the port through port_word; ways are bounded by PORT_WAYS"

echo "==> one private path gate (Core::run_private, called by Soc::run_ahead only)"
# A private run looks its instruction line up once (FetchLine) and counts
# its fetches once; a per-instruction private step, a peek/commit fetch
# pair, or a second caller of the run loop must not come back.
old=$(src_of crates/*/src | grep -E 'step_private|fetch_peek|fetch_commit\(' || true)
[ -z "$old" ] || { echo "a second private path:"; echo "$old"; exit 1; }
callers=$(src_of crates/*/src | grep 'run_private(' | grep -v '^crates/soc/src/soc.rs: ' || true)
[ -z "$callers" ] || { echo "run_private( outside Soc::run_ahead:"; echo "$callers"; exit 1; }
echo "one private run loop, driven by Soc::run_ahead"

echo "==> one run-ahead caller gate (kernel.rs keeps run_ahead's contract; soc.rs accounts posted stores)"
# A posted routed store is exact only while whoever steps the SoC leaves the
# lane's writable ways, routing and demand alone until the store is
# accounted (DESIGN.md 4.7): run_task is the one caller that keeps that, and
# the SoC's accounting the one place that applies a posted store's touch.
callers=$(src_of crates/*/src | grep 'run_ahead(' | grep -v 'fn run_ahead(' \
    | grep -v '^crates/runtime/src/kernel.rs: ' || true)
[ -z "$callers" ] || { echo "run_ahead( outside run_task:"; echo "$callers"; exit 1; }
touches=$(src_of crates/*/src | grep -E '(apply|touch)_posted\(' \
    | grep -vE 'fn (apply|touch)_posted\(' | sort || true)
sites=$(echo "$touches" | sed -E 's/^([^:]*): .*((apply|touch)_posted)\(.*/\1 \2/')
want='crates/soc/src/soc.rs apply_posted
crates/soc/src/uncore.rs touch_posted'
[ "$sites" = "$want" ] || {
    echo "posted touches must be applied by one apply_posted( call in soc.rs, through one"
    echo "touch_posted( call in uncore.rs; found:"
    echo "$touches"
    exit 1
}
echo "run_ahead driven by run_task only; posted touches applied by Soc accounting only"

echo "==> list scheduler gate (one event loop in crates/core/src)"
# makespan::simulate and periodic::simulate_taskset share one loop; a second
# copy would declare its own running set.
n=$(find crates/core/src -name '*.rs' -exec awk '
    FNR == 1 { test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
    !test' {} + | grep -c 'let mut running')
[ "$n" -eq 1 ] || { echo "'let mut running' occurs $n times in crates/core/src (want 1)"; exit 1; }
echo "one list-scheduling loop"

echo "==> one protocol model gate (the checker reads the kernel's recorded run)"
# R1-R5 judge streams lifted from a recorded run_task, and the fuzz harness
# judges the run it executed; a static mirror of the kernel (an emitter, a
# predicted-schedule layout), a synthetic fuzz stream model or a recording
# replayed only to re-count live counters must not come back.
if grep -rn "emit_kernel_streams\|hb_schedule\|EmitOptions\|build_streams\|check_recorded\|ReplayVerdict\|RacyWrite\|SetTid" \
    crates src examples tests; then
    echo "a protocol model beside the recorded run is named above"
    exit 1
fi
echo "no protocol model beside the recorded run"

echo "==> one abstract L1.5 semantics gate (absint::domain::L15Must owns the L1.5 must-state)"
# The fuzz-stream analysis and the DAG certifier step the same L1.5
# transfers; an own-view map or a published set declared beside them would
# be a second copy that the soundness sweep no longer attacks.
if grep -nE 'BTreeMap<usize, u64>|published[^(]*BTreeSet' \
    crates/check/src/absint/stream.rs crates/check/src/absint/node.rs; then
    echo "L1.5 must-state declared outside absint/domain.rs (named above)"
    exit 1
fi
echo "one L1.5 must-state, in absint/domain.rs"

echo "==> sweep determinism (fig7 --quick, L15_JOBS=1 vs 4)"
seq_out=$(mktemp)
par_out=$(mktemp)
serve_log=$(mktemp)
lg_seq=$(mktemp)
lg_par=$(mktemp)
chk_seq=$(mktemp)
chk_par=$(mktemp)
tr_seq=$(mktemp)
tr_par=$(mktemp)
sp_seq=$(mktemp)
sp_par=$(mktemp)
trap 'rm -f "$seq_out" "$par_out" "$serve_log" "$lg_seq" "$lg_par" "$lg_seq.det" "$lg_par.det" "$chk_seq" "$chk_par" "$tr_seq" "$tr_par" "$sp_seq" "$sp_par" "$sp_seq.det" "$sp_par.det" "$sp_seq.again" "$sp_par.again" "$sp_seq.again.det" "$sp_par.again.det"' EXIT
L15_JOBS=1 "$l15" fig7 --quick > "$seq_out"
L15_JOBS=4 "$l15" fig7 --quick > "$par_out"
diff -u "$seq_out" "$par_out"
echo "fig7 output is byte-identical across worker counts"

echo "==> experiment_results.txt (the five figure sections regenerate byte for byte)"
for s in fig7 table2 fig8ab fig8c area; do
    echo "===== $s ====="
    "$l15" "$s"
done > "$seq_out"
diff -u experiment_results.txt "$seq_out"
echo "experiment_results.txt is reproduced exactly"

echo "==> protocol lint (l15 check --quick, L15_JOBS=1 vs 4 determinism)"
# Every program runs on the engine with a recorder attached, and R1-R5
# judge the lifted recording.
start=$(date +%s%N)
L15_JOBS=1 "$l15" check --quick > "$chk_seq"
end=$(date +%s%N)
echo "l15 check --quick at L15_JOBS=1: $(( (end - start) / 1000000 )) ms"
L15_JOBS=4 "$l15" check --quick > "$chk_par"
diff -u "$chk_seq" "$chk_par"
grep -q "all programs clean" "$chk_seq"
echo "l15 check output is clean and byte-identical across worker counts"

echo "==> trace determinism (l15 trace capture + bench artifact, L15_JOBS=1 vs 4)"
# Preset capture: the Chrome JSON must be byte-identical at any worker
# count and pass the in-tree schema checker.
L15_JOBS=1 "$l15" trace capture --out "$tr_seq"
L15_JOBS=4 "$l15" trace capture --out "$tr_par"
cmp "$tr_seq" "$tr_par"
"$l15" trace validate "$tr_seq"
# The fig7 trace artifact: DAG instances fan across the pool, assembly is
# index-ordered, so the bytes must not depend on L15_JOBS either.
L15_JOBS=1 "$l15" trace bench --out "$tr_seq" > /dev/null
L15_JOBS=4 "$l15" trace bench --out "$tr_par" > /dev/null
cmp "$tr_seq" "$tr_par"
"$l15" trace validate "$tr_seq"
echo "trace artifacts are byte-identical across worker counts and schema-clean"

echo "==> serve smoke (l15 serve + l15 loadgen, server at L15_JOBS=1 vs 4 determinism)"
# One server per slot count (the gate runs L15_JOBS requests at once), each
# with a one-place waiting room so the four-thread loadgen burst can
# saturate it: a run that sheds load (503 + Retry-After) must still
# complete with exact accounting, and everything loadgen prints apart from
# its timing lines (prefixed ~) must not depend on the server's slot count.
serve_smoke() { # server-jobs closed-loop-out sporadic-out
    L15_JOBS=$1 "$l15" serve --queue 1 > "$serve_log" &
    serve_pid=$!
    port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$serve_log")
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] || { echo "l15 serve did not come up"; cat "$serve_log"; exit 1; }
    L15_JOBS=4 "$l15" loadgen --smoke --port "$port" > "$2"
    # The burst has passed: the main thread plus at most slots + queue + 2
    # connection threads (server::SPARE_THREADS), here $1 + 1 + 2.
    threads=$(sed -n 's/^Threads:[[:space:]]*//p' "/proc/$serve_pid/status")
    [ "$threads" -le $(($1 + 4)) ] || { echo "l15 serve runs $threads threads at L15_JOBS=$1 --queue 1 (bound $(($1 + 4)))"; exit 1; }
    echo "l15 serve at L15_JOBS=$1: $threads threads after the burst (bound $(($1 + 4)))"
    # The online tier: two sporadic streams into /submit (each starts with
    # a session reset, so both replay the same decisions); the second one
    # drains the server. Reconciliation against l15_online_total is exact.
    "$l15" loadgen --smoke --sporadic --port "$port" > "$3"
    "$l15" loadgen --smoke --sporadic --port "$port" --shutdown > "$3.again"
    wait "$serve_pid"
    grep -q "drained and stopped" "$serve_log" || { echo "server did not drain cleanly"; cat "$serve_log"; exit 1; }
    for out in "$2" "$3" "$3.again"; do
        grep -q "^reconcile=ok$" "$out"
        grep -v '^~' "$out" > "$out.det"
    done
    diff -u "$3.det" "$3.again.det"
}
serve_smoke 1 "$lg_seq" "$sp_seq"
serve_smoke 4 "$lg_par" "$sp_par"
diff -u "$lg_seq.det" "$lg_par.det"
diff -u "$sp_seq.det" "$sp_par.det"
echo "loadgen deterministic output (closed-loop and sporadic) is byte-identical at either slot count"

echo "==> fuzz regression (l15 fuzz, fixed seed, L15_JOBS=1 vs 4 determinism)"
# Fixed-seed smoke sweep on the quick profile: the clean tree must report
# zero findings, and the findings report (like every sweep artifact) must
# be byte-identical at any worker count.
fz_seq=$(mktemp)
fz_par=$(mktemp)
L15_JOBS=1 "$l15" fuzz run --quick --seed 1 > "$fz_seq"
L15_JOBS=4 "$l15" fuzz run --quick --seed 1 > "$fz_par"
diff -u "$fz_seq" "$fz_par"
grep -q "0 finding(s)" "$fz_seq"
# The seeded regression corpus replays clean.
"$l15" fuzz corpus crates/testkit/corpus/fuzz > "$fz_seq"
grep -q "14 case(s), 0 finding(s)" "$fz_seq"
echo "l15 fuzz is clean and byte-identical across worker counts"

echo "==> fuzz injections (l15 fuzz --bug, every class, L15_JOBS=1 vs 4)"
# Each injected bug must be caught from the run alone (oracle, counters,
# R6): exit 1, at least one finding, no clean case, and a report that is
# byte-identical at any worker count. The classes come from the usage error.
classes=$("$l15" fuzz run --bug none 2>&1 | sed -n 's/.*; valid: //p' | tr -d ',')
[ -n "$classes" ] || { echo "no --bug classes listed"; exit 1; }
for class in $classes; do
    status=0
    L15_JOBS=1 "$l15" fuzz run --quick --seed 1 --bug "$class" > "$fz_seq" || status=$?
    [ "$status" -eq 1 ] || { echo "--bug $class exited $status (want 1)"; exit 1; }
    status=0
    L15_JOBS=4 "$l15" fuzz run --quick --seed 1 --bug "$class" > "$fz_par" || status=$?
    [ "$status" -eq 1 ] || { echo "--bug $class at L15_JOBS=4 exited $status (want 1)"; exit 1; }
    cmp "$fz_seq" "$fz_par"
    if grep -q '^case .*: clean$' "$fz_seq" || grep -q ' 0 finding(s)$' "$fz_seq"; then
        echo "--bug $class left a case clean"
        exit 1
    fi
    echo "--bug $class: $(tail -n 1 "$fz_seq")"
done
rm -f "$fz_seq" "$fz_par"

echo "==> static bounds (l15 absint --quick, L15_JOBS=1 vs 4 determinism)"
# The abstract-interpretation certifier sweeps (preset, workload) pairs,
# compares every static per-node bound against the cycle-accurate run
# (any exceedance is reported and exits 1), and reports precision.
# The table must be byte-identical at any worker count.
ab_seq=$(mktemp)
ab_par=$(mktemp)
L15_JOBS=1 "$l15" absint --quick > "$ab_seq"
L15_JOBS=4 "$l15" absint --quick > "$ab_par"
diff -u "$ab_seq" "$ab_par"
grep -q "0 soundness violation(s)" "$ab_seq"
rm -f "$ab_seq" "$ab_par"
echo "l15 absint bounds are sound and byte-identical across worker counts"

echo "==> soundness sweep (l15 fuzz, 200 fresh seeded cases)"
# Every generated case also checks the fourth (soundness) verdict, per
# step: no step's observed memory-system cycles on any core exceed the
# static analysis' charge for that step and core.
# A violation prints a shrunk L15_PROP_SEED replay and fails the gate.
sw_out=$(mktemp)
"$l15" fuzz run --quick --cases 200 --seed 7 > "$sw_out"
grep -q "200 case(s), 0 finding(s)" "$sw_out"
rm -f "$sw_out"
echo "static bounds hold on 200 fresh fuzz cases"

echo "==> cluster sweep (l15 cluster --quick, fixed seed, L15_JOBS=1 vs 4)"
# Fixed-seed federated success-ratio sweep over the 4/8/16-core platforms
# (1, 2 and 4 clusters): the artifact must be byte-identical at any
# worker count.
cl_seq=$(mktemp)
cl_par=$(mktemp)
L15_SEED=1 L15_JOBS=1 "$l15" cluster --quick > "$cl_seq"
L15_SEED=1 L15_JOBS=4 "$l15" cluster --quick > "$cl_par"
diff -u "$cl_seq" "$cl_par"
rm -f "$cl_seq" "$cl_par"
echo "l15 cluster output is byte-identical across worker counts"

echo "==> online tier (l15 online --quick, L15_JOBS=1 vs 4 + BENCH_online.json)"
# Admission latencies are virtual cycles and the success-ratio trials fan
# across the pool with position-stable seeds, so both the report and the
# JSON artifact must be byte-identical at any worker count.
on_seq=$(mktemp)
on_par=$(mktemp)
on_art_seq=$(mktemp)
on_art_par=$(mktemp)
L15_SEED=1 L15_JOBS=1 "$l15" online --quick --out "$on_art_seq" > "$on_seq"
L15_SEED=1 L15_JOBS=4 "$l15" online --quick --out "$on_art_par" > "$on_par"
diff -u "$on_seq" "$on_par"
cmp "$on_art_seq" "$on_art_par"
grep -q '"schema":"l15-online-bench-v1"' "$on_art_seq"
rm -f "$on_seq" "$on_par" "$on_art_seq" "$on_art_par"
echo "l15 online report and BENCH_online.json are byte-identical across worker counts"

echo "==> benchmark (run.sh --quick: every output check; then its own tests)"
# Six workloads in their smoke configuration: each op is checked against a
# reference pass of direct calls, so this fails on any wrong result, not
# on a slow one (timings are printed, never gated here).
benchmark/run.sh --quick
(cd benchmark && cargo test -q --offline)

echo "==> benchmark digest gate (driver form, against benchmark/baseline/seed<N>.json)"
# "No simulated byte changed" as a red build: one short driver-form run per
# workload must print the result_digest committed for it. A change that is
# meant to move a digest regenerates the baseline in its own commit.
digest_gate() { # workload seed
    want=$(grep -o "\"workload\":\"$1\"[^}]*\"result_digest\":\"[0-9a-f]*\"" "benchmark/baseline/seed$2.json" \
        | sed 's/.*"result_digest":"\([0-9a-f]*\)"$/\1/')
    got=$(benchmark/run.sh --workload "$1" --seed "$2" --seconds 1 --trace 0 2>&1 >/dev/null \
        | sed -n 's/^ *result_digest  *\([0-9a-f]*\)$/\1/p')
    if [ -z "$want" ] || [ "$got" != "$want" ]; then
        echo "$1 (seed $2): result_digest '$got', committed '$want'"
        exit 1
    fi
    echo "$1 (seed $2): result_digest $got matches the baseline"
}
for workload in fullstack_8core cluster_32core analytic_sweep serve_analytic serve_simulate online_admission; do
    digest_gate "$workload" 1
done
# The held-out seed of the one workload whose every op is an admission
# verdict plus a plan digest: the session's memo (DESIGN.md §8) must agree
# with the from-scratch partition on inputs it was not developed against.
digest_gate online_admission 2
# And of the three engine-backed workloads: an engine change (DESIGN.md
# §4.7) is checked on the seed it was not developed on in every build.
digest_gate cluster_32core 2
digest_gate fullstack_8core 2
digest_gate serve_simulate 2
# And of the two analytic workloads: a rewrite of the generator, Alg. 1 or
# the list-scheduling simulator (DESIGN.md §4.8) must keep every makespan's
# bits on the seed it was not developed on — every workload is now gated
# on both seeds.
digest_gate analytic_sweep 2
digest_gate serve_analytic 2

echo "==> every l15 subcommand (--quick smoke)"
# The names come from the usage table `l15` prints, so a new subcommand
# is smoked without touching this script. loadgen needs a live server and
# serve runs until shut down; the serve smoke above exercises both.
for name in $("$l15" 2>&1 | awk '$1 == "l15" { print $2 }' | uniq); do
    case "$name" in loadgen | serve) continue ;; esac
    echo "--- l15 $name --quick"
    "$l15" "$name" --quick
done

echo "==> ci OK"
