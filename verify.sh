#!/bin/sh
# verify.sh — the repository's tier-1 gate plus a race pass over the
# experiment harness (exp.Runner's worker pool is the only real
# concurrency in the repo; the DES itself is sequential by design).
set -eux

go build ./...
go vet ./...
go test ./...

# Short -race pass over the parallel cell runner.
go test -race -run 'TestParallel|TestCellCache|TestRunner' ./internal/exp/

# Race pass over the supervision layer (watchdog goroutines, retry loop)
# and the persistent result store.
go test -race -run 'TestSupervised|TestStore|TestFailure|TestRetry' ./internal/exp/

# Race pass over the fault injector and the DPCL retry/backoff path,
# including the crash-recovery machinery (daemon incarnations, ledger
# replay, give-up rollback).
go test -race ./internal/fault/ ./internal/dpcl/

# Race pass over the sharded scheduler (des.Cluster's window workers are
# real host concurrency) and the scale cells driving it, including the
# spilling trace collectors.
go test -race -run 'TestCluster|TestSingleShardMatchesSerial|TestCast' ./internal/des/
go test -race -run 'TestScale|TestSpill' ./internal/exp/ ./internal/vt/

# Race pass over the Runner's worker pool on the on-demand figures that
# are quick enough to run under -race.
go test -race -run 'TestOnDemandFigureParallelism/^(scale|tenants|compact)$' ./internal/exp/

# Race pass over the multi-tenant session server: the protocol bridge's
# per-connection reader goroutines are real host concurrency against the
# DES loop, as is the CLI serve smoke.
go test -race ./internal/serve/ ./cmd/dynprof/
go test -race -run TestTenants ./internal/exp/

# End-to-end fault smoke (guarded by -short elsewhere): a run with every
# fault class enabled must terminate via timeout degradation.
go test -run TestFaultSmoke ./internal/exp/

# Benchmark smoke: one iteration of the regression benchmarks, so a
# benchmark that no longer compiles or panics fails the gate here rather
# than in the next perf investigation.
scripts/bench.sh -s

# Kill-and-resume smoke: SIGKILL a journaled sweep mid-run, resume it,
# and require byte-identical output vs. an uninterrupted run. The kill is
# timing-dependent but the assertion is not: even if the first run
# finishes before the kill lands, resume must still reproduce the bytes.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/experiments" ./cmd/experiments
"$smoke/experiments" -fig7a -fig8a -max-cpus 8 > "$smoke/baseline.txt"
"$smoke/experiments" -fig7a -fig8a -max-cpus 8 -cache-dir "$smoke/cache" \
    > "$smoke/interrupted.txt" 2>/dev/null &
pid=$!
sleep 0.2
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
"$smoke/experiments" -fig7a -fig8a -max-cpus 8 -cache-dir "$smoke/cache" \
    -resume > "$smoke/resumed.txt"
cmp "$smoke/baseline.txt" "$smoke/resumed.txt"

# Scale smoke: the 1k-rank cells of the sharded sweep must render the
# same bytes unsharded and sharded-with-spill (shard-count invariance of
# the skeletons, end to end through the CLI).
"$smoke/experiments" -scale -max-cpus 1024 -shards 1 > "$smoke/scale1.txt"
"$smoke/experiments" -scale -max-cpus 1024 -shards 8 \
    -spill-dir "$smoke/spill" -spill-threshold 1024 > "$smoke/scale8.txt"
cmp "$smoke/scale1.txt" "$smoke/scale8.txt"

# On-demand figure smokes: each must render the same bytes at any host
# parallelism, end to end through the CLI. Tenants runs only its
# 100-session cell (admission queueing, fair daemon scheduling, two quota
# evictions); adapt, recover and compact run their full sweeps.
for fig in "tenants -max-cpus 100" adapt recover compact; do
    name=${fig%% *}
    "$smoke/experiments" -$fig -parallel 1 > "$smoke/${name}1.txt"
    "$smoke/experiments" -$fig -parallel 8 > "$smoke/${name}8.txt"
    cmp "$smoke/${name}1.txt" "$smoke/${name}8.txt"
done

# Race pass over the adaptive controller (pure unit tests plus the serve
# integration already covered above) and the adapt/policy cells.
go test -race ./internal/adapt/
go test -race -run 'TestAdaptConvergence|TestAdaptSpecKey|TestPolicySpecKeys' ./internal/exp/

# Race pass over the crash-recovery paths: leased sessions and automatic
# probe-state repair in the server, including the 100-session
# crash-every-daemon smoke (zero lost sessions, probe state byte-identical
# to the fault-free run), and the end-to-end recover cells.
go test -race -run 'TestLease|TestRecoverSmoke|TestProtoSeqAndResume|TestEvictIdempotent' ./internal/serve/
go test -race -run 'TestRecoverCell|TestRecoverStoreRoundTrip' ./internal/exp/

# Race pass over the trace-compaction paths: the compact encoder/decoder,
# the byte-budget overflow policies, the version-checked spill file, and
# the per-kernel VGV equivalence suite.
go test -race -run 'TestCompact|TestByteBudget|TestSpillRejects|TestReadTraceAuto' \
    ./internal/vt/ ./internal/vgv/ ./internal/exp/

# Compact smoke: end to end through the CLIs, a suppressed run's compact
# binary trace must decode to the same analysis bytes as a verbatim run's
# textual trace (vgv sniffs the format).
go build -o "$smoke/dynprof" ./cmd/dynprof
go build -o "$smoke/vgv" ./cmd/vgv
printf 'start\nquit\n' | "$smoke/dynprof" -procs 4 -trace "$smoke/v.vgv" \
    - - "$smoke/tf1.txt" sweep3d nx=64 ny=4 nz=4 iters=1 > /dev/null
printf 'start\nquit\n' | "$smoke/dynprof" -procs 4 -trace-compact \
    -trace "$smoke/c.vgv" - - "$smoke/tf2.txt" sweep3d nx=64 ny=4 nz=4 iters=1 > /dev/null
"$smoke/vgv" -trace "$smoke/v.vgv" > "$smoke/vgv_verbatim.txt"
"$smoke/vgv" -trace "$smoke/c.vgv" > "$smoke/vgv_compact.txt"
cmp "$smoke/vgv_verbatim.txt" "$smoke/vgv_compact.txt"
