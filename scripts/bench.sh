#!/bin/sh
# bench.sh — benchmark-regression harness for the simulator. The repo's
# end-to-end benchmark (workload wall time, latency percentiles and the
# per-layer host-time split) is `bash perfbench/run.sh`; this script keeps
# the Go microbenchmark passes.
#
# Modes:
#   scripts/bench.sh              full suite: figure-level benchmarks (pkg
#                                 dynprof) plus the scheduler/Collector
#                                 microbenchmarks. Raw `go test -bench`
#                                 output lands in OUTDIR/tier1.txt and
#                                 OUTDIR/micro.txt (benchstat-comparable:
#                                 `benchstat old/tier1.txt new/tier1.txt`),
#                                 and OUTDIR/bench.json holds the parsed
#                                 numbers.
#   scripts/bench.sh -s           smoke: one iteration of a small subset,
#                                 no files written. Run from verify.sh so a
#                                 broken benchmark fails the gate.
#
# Environment:
#   OUTDIR      where full-mode output goes (default: bench.out)
#   BENCHTIME   -benchtime for the figure-level pass (default: 2x)
set -eu

cd "$(dirname "$0")/.."

# parse_bench FILE... — one JSON object per benchmark line. Units become
# keys: "ns/op" -> ns_op, "sim_s" stays sim_s. Go's fixed "value unit"
# pairing makes this a plain positional walk.
parse_bench() {
    awk '
    /^Benchmark/ {
        line = sprintf("{\"name\":\"%s\",\"iterations\":%s", $1, $2)
        for (i = 3; i + 1 <= NF; i += 2) {
            unit = $(i + 1)
            gsub(/[^A-Za-z0-9_]/, "_", unit)
            line = line sprintf(",\"%s\":%s", unit, $i)
        }
        print line "}"
    }' "$@" | jq -s .
}

if [ "${1:-}" = "-s" ]; then
    # Smoke: prove the benchmarks still compile and run. One iteration,
    # fastest cells only; output is discarded, failure propagates.
    go test -run NONE -bench 'BenchmarkFig7aSmg98/None/1cpu' \
        -benchtime 1x -benchmem -timeout 5m . > /dev/null
    go test -run NONE -bench 'BenchmarkScheduler|BenchmarkProc|BenchmarkCollector' \
        -benchtime 10ms -benchmem -timeout 5m ./internal/des/ ./internal/vt/ > /dev/null
    echo "bench.sh: smoke OK"
    exit 0
fi

OUTDIR=${OUTDIR:-bench.out}
BENCHTIME=${BENCHTIME:-2x}
mkdir -p "$OUTDIR"

echo "bench.sh: figure-level pass (-benchtime $BENCHTIME) -> $OUTDIR/tier1.txt" >&2
go test -run NONE -bench . -benchtime "$BENCHTIME" -benchmem -timeout 60m . \
    | tee "$OUTDIR/tier1.txt"

echo "bench.sh: microbenchmark pass -> $OUTDIR/micro.txt" >&2
go test -run NONE -bench 'BenchmarkScheduler|BenchmarkProc|BenchmarkCollector' \
    -benchtime 300ms -benchmem -timeout 30m ./internal/des/ ./internal/vt/ \
    | tee "$OUTDIR/micro.txt"

parse_bench "$OUTDIR/tier1.txt" "$OUTDIR/micro.txt" | jq \
    --arg go "$(go env GOVERSION)" \
    --arg goos "$(go env GOOS)" \
    --arg goarch "$(go env GOARCH)" \
    --arg benchtime "$BENCHTIME" \
    '{go: $go, goos: $goos, goarch: $goarch, benchtime: $benchtime, benchmarks: .}' \
    > "$OUTDIR/bench.json"
echo "bench.sh: wrote $OUTDIR/bench.json ($(jq '.benchmarks | length' "$OUTDIR/bench.json") benchmarks)" >&2
