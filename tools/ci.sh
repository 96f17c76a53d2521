#!/bin/sh
# Continuous-integration driver: plain build + tests, sanitized build
# + tests, a short seeded stress pass under the coherence checker
# with chaos-network fault injection, a process-isolated harness
# smoke sweep whose JSON results are validated — and, when a
# committed BENCH_baseline.json exists, gated against the baseline
# (any simulated-stat drift fails; host time is never compared; the
# in-process-generated baseline makes the gate a cross-isolation-mode
# bit-identity check) — a
# resume of that sweep from its journal that must execute nothing and
# pass the same gate, a
# parallel-kernel bit-identity matrix (the smoke suite re-run at
# --sim-threads=1/2/4, every results file gated against the same
# baseline, so thread-count determinism is enforced on every sweep
# point), the host-cost benchmark's fingerprint references
# re-recorded and diffed against perfbench/reference.txt, the
# committed host-performance trajectory (BENCH_perf.jsonl) checked
# against BENCHMARK.json by tools/perf_trajectory.py, a sampled
# mesh sweep rendered to markdown through cpxreport, and a
# stall-attribution sweep (--attrib) gated against
# the same baseline — proving the causal profiler is observation-only
# — then rendered to check both attribution report sections, and one
# stress run with the checker, flight recorder and attribution all
# installed on the probe stream. The
# ThreadSanitizer lane lives in the GitHub workflow
# (.github/workflows/ci.yml, job "tsan"): CPX_SANITIZE=thread build,
# ctest -L threads, and a chaos stress run at --sim-threads=4.
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build-ci)
#
# Environment:
#   CPX_CI_JOBS   host parallelism for the builds, ctest and the
#                 bench sweeps (default 2)
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
prefix=${1:-build-ci}
jobs=${CPX_CI_JOBS:-2}

# Per-stage wall time, printed by stage_done. `date +%s` is portable
# to every shell CI runs us under, unlike EPOCHREALTIME.
ci_start=$(date +%s)
stage_start=$ci_start
stage_done() {
    now=$(date +%s)
    echo "== $1 OK ($((now - stage_start))s, total $((now - ci_start))s)"
    stage_start=$now
}

run_suite() {
    dir=$1
    shift
    echo "== configure $dir ($*)"
    cmake -S "$root" -B "$root/$dir" "$@" >/dev/null
    echo "== build $dir"
    cmake --build "$root/$dir" -j "$jobs" >/dev/null
    echo "== test $dir (ctest -j $jobs)"
    ctest --test-dir "$root/$dir" --output-on-failure -j "$jobs" >/dev/null
    stage_done "$dir"
}

# Validate a results file and, when a committed BENCH_baseline.json
# exists, gate it against the baseline: any simulated-stat drift
# fails.
check_json() {
    if [ -f "$root/BENCH_baseline.json" ]; then
        "$root/$prefix/tools/cpxbench" --check-json="$1" \
            --baseline="$root/BENCH_baseline.json"
    else
        "$root/$prefix/tools/cpxbench" --check-json="$1"
    fi
}

run_suite "$prefix"           -DCPX_SANITIZE=OFF
run_suite "$prefix-sanitize"  -DCPX_SANITIZE=ON

# Seeded stress spot-checks: checker fail-fast + chaos jitter across
# the protocol extremes. Any invariant violation panics the run.
echo "== stress spot-checks"
for seed in 3 17; do
    for proto in BASIC P+CW+M; do
        "$root/$prefix/tools/cpxsim" --workload=stress \
            --protocol="$proto" --procs=8 --scale=0.2 \
            --seed="$seed" --chaos --chaos-seed="$seed" \
            --check >/dev/null
        echo "   stress $proto seed=$seed OK"
    done
done
stage_done "stress spot-checks"

# Harness smoke sweep: the whole table/figure suite at reduced scale,
# run under process isolation with a journal. The committed baseline
# was generated in-process, so the gate below doubles as a cross-mode
# bit-identity check on every sweep point. --check-json fails the
# build if the results file is missing, unparseable, or reports any
# unverified point; with the baseline it also fails on any
# simulated-stat drift.
echo "== harness smoke sweep (cpxbench --jobs=$jobs --isolate=process)"
bench_json="$root/$prefix/BENCH_smoke.json"
bench_journal="$root/$prefix/BENCH_smoke.jsonl"
rm -f "$bench_json" "$bench_journal" "$bench_journal.quarantine"
"$root/$prefix/tools/cpxbench" --smoke --jobs="$jobs" \
    --isolate=process --timeout=300 \
    --journal="$bench_journal" --json="$bench_json" >/dev/null
test -s "$bench_json" || {
    echo "cpxbench smoke run produced no JSON" >&2
    exit 1
}
check_json "$bench_json"
stage_done "harness smoke sweep"

# Resume from the smoke journal: every point must be reused, none
# executed, and the resumed results must pass the same baseline gate
# — which pushes all the smoke records through the one point codec
# (journal line -> SweepResult -> sweep file) at no simulation cost.
echo "== resume from journal (cpxbench --resume)"
resumed_json="$root/$prefix/BENCH_resumed.json"
resume_log="$root/$prefix/BENCH_resumed.log"
rm -f "$resumed_json"
"$root/$prefix/tools/cpxbench" --smoke --resume="$bench_journal" \
    --json="$resumed_json" >/dev/null 2>"$resume_log"
grep -q "; 0 to run" "$resume_log" || {
    echo "resumed smoke sweep re-executed points:" >&2
    cat "$resume_log" >&2
    exit 1
}
check_json "$resumed_json"
stage_done "resume from journal"

# Parallel-kernel bit-identity matrix: the same smoke suite at
# several --sim-threads values. Each results file must validate and
# match the committed baseline byte-for-byte on every simulated stat
# (the baseline was produced at --sim-threads=1, so passing it
# unmodified at 2 and 4 workers IS the thread-count determinism
# guarantee of DESIGN.md §15).
echo "== sim-threads bit-identity matrix (1 2 4)"
for w in 1 2 4; do
    mt_json="$root/$prefix/BENCH_threads$w.json"
    rm -f "$mt_json"
    "$root/$prefix/tools/cpxbench" --smoke --jobs="$jobs" \
        --sim-threads="$w" --json="$mt_json" >/dev/null
    check_json "$mt_json"
    echo "   --sim-threads=$w OK"
done
stage_done "sim-threads bit-identity matrix"

# Host-cost benchmark references: configure perfbench/ (a CMake
# package of its own, built from ../src) into the CI build dir,
# re-record the execution time and stats fingerprint of its 25
# fixed-input paper-scale points, and require the committed
# perfbench/reference.txt byte for byte. A kernel optimization such as
# wakeup elision must leave every one of them unchanged.
echo "== perfbench references (cpx_perfbench --record)"
pb_dir="$root/$prefix/perfbench"
pb_ref="$root/$prefix/perfbench_reference.txt"
cmake -S "$root/perfbench" -B "$pb_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$pb_dir" --target cpx_perfbench -j "$jobs" >/dev/null
rm -f "$pb_ref"
"$pb_dir/cpx_perfbench" --record "$pb_ref" 2>/dev/null
diff -u "$root/perfbench/reference.txt" "$pb_ref" || {
    echo "cpx_perfbench --record differs from perfbench/reference.txt" >&2
    exit 1
}
stage_done "perfbench references"

# Host-performance trajectory: every line of the committed
# BENCH_perf.jsonl must parse and name only the workloads and
# end-to-end metrics BENCHMARK.json declares. Nothing is measured here:
# rows are appended by `tools/perf_trajectory.py append` on a quiet
# host, and two commits are compared only by perfbench's pair rule.
echo "== perf trajectory (tools/perf_trajectory.py check)"
python3 "$root/tools/perf_trajectory.py" check >/dev/null
stage_done "perf trajectory"

# Directory-scaling smoke: the 16/64/256-node representation matrix
# (cpxbench --only=scaling_matrix; it is kept out of the default suite
# so the suite's point count — and the baseline gate above — stay
# untouched), run
# journaled under process isolation with the parallel kernel. The
# results file must validate; there is no baseline for it (the grid
# is new), but every point must verify. Followed by invariant-checked
# stress spot-runs at the two scaled configurations the overflow
# machinery exists for: limited pointers at 64 nodes and the coarse
# vector at 256.
echo "== directory scaling matrix (--only=scaling_matrix --isolate=process)"
scaling_json="$root/$prefix/BENCH_scaling.json"
scaling_journal="$root/$prefix/BENCH_scaling.jsonl"
rm -f "$scaling_json" "$scaling_journal" "$scaling_journal.quarantine"
"$root/$prefix/tools/cpxbench" --only=scaling_matrix --scale=0.02 \
    --jobs="$jobs" --sim-threads=4 --isolate=process --timeout=600 \
    --journal="$scaling_journal" --json="$scaling_json" >/dev/null
"$root/$prefix/tools/cpxbench" --check-json="$scaling_json"
for cfg in "--nodes=64 --dir=limptr4B" "--nodes=64 --dir=limptr4E" \
           "--nodes=256 --dir=coarse4"; do
    # shellcheck disable=SC2086
    "$root/$prefix/tools/cpxsim" --workload=stress $cfg \
        --scale=0.1 --check >/dev/null
    echo "   stress $cfg OK"
done
stage_done "directory scaling matrix"

# Interval-metrics smoke: one sampled mesh sweep must validate under
# --check-json (timeseries schema included) and render a non-empty
# markdown report. No baseline gate here — the sampled sweep is a
# subset suite, and sampling neutrality is covered by ctest; this
# stage proves the sampling → JSON → report pipeline end to end.
echo "== sampled sweep + report (cpxreport)"
ts_json="$root/$prefix/BENCH_sampled.json"
report_md="$root/$prefix/REPORT_sampled.md"
rm -f "$ts_json" "$report_md"
"$root/$prefix/tools/cpxbench" --only=table3_mesh --smoke \
    --sample-interval=5000 --jobs="$jobs" --json="$ts_json" \
    >/dev/null
"$root/$prefix/tools/cpxbench" --check-json="$ts_json"
"$root/$prefix/tools/cpxreport" "$ts_json" --out="$report_md"
test -s "$report_md" || {
    echo "cpxreport produced an empty report" >&2
    exit 1
}
stage_done "sampled sweep + report"

# Stall-attribution smoke: the whole smoke suite re-run with the
# causal profiler on. The results file must validate AND pass the
# same committed baseline gate as the plain run — attribution is
# observation-only, so every simulated stat must be byte-identical
# with recording enabled (DESIGN.md §17). The attributed JSON is
# then rendered through cpxreport, which must produce both new
# sections ("Where the cycles went", "Contention hot spots").
echo "== stall attribution (cpxbench --attrib + baseline gate)"
attrib_json="$root/$prefix/BENCH_attrib.json"
attrib_md="$root/$prefix/REPORT_attrib.md"
rm -f "$attrib_json" "$attrib_md"
"$root/$prefix/tools/cpxbench" --smoke --jobs="$jobs" --attrib \
    --json="$attrib_json" >/dev/null
check_json "$attrib_json"
"$root/$prefix/tools/cpxreport" "$attrib_json" --out="$attrib_md"
for section in "Where the cycles went" "Contention hot spots"; do
    grep -q "$section" "$attrib_md" || {
        echo "cpxreport dropped the '$section' section" >&2
        exit 1
    }
done
stage_done "stall attribution"

# Flight-recorder smoke: one traced run must produce a Chrome trace
# JSON that parses and keeps its async begin/end events balanced —
# and, since the run is also sampled, carries the interval-metric
# counter tracks ("C" events) the validator checks for monotonic
# per-track timestamps.
echo "== traced smoke run (cpxsim --trace-out --sample-interval)"
trace_json="$root/$prefix/TRACE_smoke.json"
rm -f "$trace_json"
"$root/$prefix/tools/cpxsim" --app=mp3d --protocol=P+CW+M \
    --procs=8 --scale=0.1 --sample-interval=5000 \
    --trace-out="$trace_json" >/dev/null
"$root/$prefix/tools/cpxbench" --check-trace="$trace_json"
grep -q '"ph":"C"' "$trace_json" || {
    echo "sampled traced run emitted no counter tracks" >&2
    exit 1
}
stage_done "traced smoke run"

# Probe stream: the coherence checker, the flight recorder and stall
# attribution installed together on one seeded chaos stress run. The
# checker must report 0 violations, the attribution matrix must print,
# and the sampled trace must validate.
echo "== all observers at once (cpxsim --check --attrib --trace-out)"
probes_json="$root/$prefix/TRACE_probes.json"
probes_log="$root/$prefix/PROBES.log"
rm -f "$probes_json" "$probes_log"
"$root/$prefix/tools/cpxsim" --workload=stress --protocol=P+CW+M \
    --procs=8 --scale=0.2 --chaos --check --attrib \
    --sample-interval=5000 --trace-out="$probes_json" >"$probes_log"
"$root/$prefix/tools/cpxbench" --check-trace="$probes_json"
for line in " 0 violations" "Causal stall attribution"; do
    grep -q "$line" "$probes_log" || {
        echo "combined-observer run lacks '$line':" >&2
        cat "$probes_log" >&2
        exit 1
    }
done
stage_done "all observers at once"
echo "== CI green (total $(($(date +%s) - ci_start))s)"
