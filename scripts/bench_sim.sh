#!/usr/bin/env bash
# bench_sim.sh — run the simulator event-core benchmarks and emit
# BENCH_sim.json at the repository root: one record per benchmark with
# ns/job, derived events/sec (one measured job = one arrival event + one
# departure event, so events/sec = 2e9 / ns_per_op), and allocation
# counts. The sim counterpart of bench_lb.sh/BENCH_lb.json — rerun after
# touching the event core and diff.
#
# Axes: BenchmarkSimJobs covers {fast, fast-hist, jsq-indexed,
# lwl-work-aware} × N ∈ {10, 250, 1000, 10000} at ρ = 0.9,
# d = 2 — fast vs fast-hist is the sketch-vs-histogram tail-estimator
# axis, and the state_bytes memory column records each configuration's
# measurement-stream footprint. The pre-overhaul baseline
# (scripts/bench_sim_baseline.json, captured at the PR-4 head) is
# embedded verbatim under "baseline" so the before/after trajectory
# travels with the file.
#
# Each record set is machine-tagged (goos/goarch, CPU model, core count,
# go version) so trajectories from different hosts are never diffed as if
# they were one series.
#
# Usage:  scripts/bench_sim.sh            # default 0.5s per benchmark
#         BENCHTIME=2s scripts/bench_sim.sh
set -euo pipefail
cd "$(dirname "$0")/.."

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
go test -run '^$' -bench 'BenchmarkSimJobs' -benchmem \
    -benchtime "${BENCHTIME:-0.5s}" ./internal/sim | tee "$raw"

cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
gover=$(go env GOVERSION)

awk -v cores="$cores" -v gover="$gover" '
/^goos|^goarch|^cpu/ { meta[$1] = substr($0, index($0, $2)); next }
/^Benchmark/ {
    # Scan (value, unit) pairs rather than fixed positions: custom
    # metrics (state_bytes) land between ns/op and the -benchmem columns.
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = "0"; allocs = "0"; state = ""
    for (i = 3; i < NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op") ns = v
        else if (u == "B/op") bytes = v
        else if (u == "allocs/op") allocs = v
        else if (u == "state_bytes") state = v
    }
    extra = (state == "") ? "" : sprintf(",\"state_bytes\":%s", state)
    printf("%s    {\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"events_per_sec\":%.0f,\"bytes_per_op\":%s,\"allocs_per_op\":%s%s}",
           sep, name, $2, ns, 2e9 / ns, bytes, allocs, extra)
    sep = ",\n"
}
END {
    printf("\n  ],\n")
    printf("  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n", meta["goos:"], meta["goarch:"], meta["cpu:"])
    printf("  \"cores\": %d,\n  \"go_version\": \"%s\",\n", cores, gover)
    printf("  \"unit\": \"ns per job (2 events)\",\n")
    printf("  \"baseline\":\n")
}
BEGIN { printf("{\n  \"benchmarks\": [\n") }
' "$raw" > BENCH_sim.json
sed 's/^/  /' scripts/bench_sim_baseline.json >> BENCH_sim.json
echo "}" >> BENCH_sim.json

echo "wrote BENCH_sim.json ($(grep -c '"name"' BENCH_sim.json) records incl. baseline)"