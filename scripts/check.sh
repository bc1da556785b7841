#!/bin/sh
# check.sh runs the repository's full verification gate: vet plus the test
# suite under the race detector. CI and pre-commit hooks call this; so does
# `make check`.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# The overload path (scheduler classes, admission, panic recovery) is the
# most concurrency-heavy code in the tree; run it race-enabled a second time
# with -count=1 so a cached first pass can never mask a fresh interleaving.
echo "== go test -race -count=1 ./internal/proxy/..."
go test -race -count=1 ./internal/proxy/...

echo "== cache bench smoke"
go test ./internal/cache/ -run '^$' -bench . -benchtime 1x

echo "== sched bench smoke"
go test ./internal/proxy/sched/ -run '^$' -bench . -benchtime 1x

echo "== match bench smoke"
go test ./internal/sig/ -run '^$' -bench BenchmarkMatchRequest -benchtime 1x

# The observability hot path sits inside every request; the alloc tests
# (TestSpanRecordAllocs, TestHistogramObserveAllocs) fail if span record or
# histogram observe ever exceeds 2 allocs/op, and the registry's
# scrape-while-observing test runs race-enabled above.
echo "== obs bench smoke + alloc gate"
go test ./internal/obs/ -run 'Allocs' -bench 'BenchmarkSpanRecord|BenchmarkHistogramObserve' -benchtime 1x
go test -race -count=1 ./internal/obs/ -run TestRegistryConcurrentObserveAndScrape

# Proxy hot-path gate: TestServeHTTPAllocBudget pins allocs/op and bytes/op
# of a whole ServeHTTP on the passthrough and prefetch-hit paths (it skips
# under -race, where sync.Pool makes counts nondeterministic, so it runs
# here without). A per-request latency-window copy or sort breaks the
# bytes budget. The benchmark reports ns/op for both paths; wall clock is
# not gated.
echo "== proxy hot-path gate"
go test -count=1 ./internal/proxy/ -run TestServeHTTPAllocBudget
go test ./internal/proxy/ -run '^$' -bench BenchmarkServeHTTP -benchmem -benchtime 2000x

# Persistence smoke gate: the corrupt-restore ladder (every corruption mode
# must degrade to a counted cold start, never a panic) runs race-enabled with
# -count=1, and the disk-tier codec/spill/load benches must still compile and
# complete.
echo "== persist smoke gate"
go test -race -count=1 ./internal/persist/ \
    -run 'TestSnapshotLadder|TestSnapshotTruncatedFile|TestSnapshotFaultInjection|TestSnapshotAtomicity|TestTierFaultsDegradeToMiss|TestTierCorruptFileIsMissAndDeleted'
go test -race -count=1 ./internal/proxy/ \
    -run 'TestCorruptSnapshotColdStart|TestFingerprintMismatchColdStart|TestKillRestartRecoversHitRatio'
go test ./internal/persist/ -run '^$' -bench . -benchtime 1x

# Cluster smoke gate: ring properties (skew, minimal movement), membership
# probe transitions, and the multi-instance proxy tests — boot real fleets on
# loopback, relay with the one-hop cap, kill an instance mid-load and require
# zero foreground failures, fill a miss from a sibling's shared tier. The
# clustersweep acceptance test additionally pins ≥30% origin offload at three
# instances and a zero-failure kill/rejoin churn phase.
echo "== cluster smoke gate"
go test -race -count=1 ./internal/cluster/
go test -race -count=1 ./internal/proxy/ \
    -run 'TestClusterForwardLoopPrevented|TestClusterKillNoForegroundFailures|TestClusterPeerFill'
go test -race -count=1 ./internal/exp/ -run TestClusterSweepAcceptance

# Chaos smoke gate: seeded fault schedules against a real 3-instance loopback
# cluster with the invariant oracle watching — partition (forward fallbacks
# must fire, zero foreground failures) and disk faults (every injected
# torn/corrupt/failed write must decode or surface as a typed corruption).
# The budget and hedge unit tests plus the breaker's half-open probe race run
# race-enabled alongside.
echo "== chaos smoke gate"
go test -race -count=1 ./internal/chaos/
go test -race -count=1 ./internal/proxy/ \
    -run 'TestBudget|TestHedge'
go test -race -count=1 ./internal/proxy/resilience/ \
    -run TestBreakerHalfOpenProbeRace

# Stream data-plane gate: Range/206 conformance, flight attach under -race,
# TTFB decoupled from body completion, abort paths returning every pooled
# chunk — then the whole-path alloc budget (O(1) allocs/request: the test
# fails if allocations grow with the number of body chunks) and the spool
# throughput bench smoke.
echo "== stream data-plane gate"
go test -race -count=1 ./internal/stream/
go test -race -count=1 ./internal/proxy/ \
    -run 'TestRangeConformanceCached|TestAttachToInFlightFetch|TestTTFBPrecedesSlowBody|TestOverCapBodyStreamsUncached|TestPrefetchOverflowAbortsAndReleases'
go test -count=1 ./internal/proxy/ -run TestWholePathAllocBudget
go test ./internal/stream/ -run '^$' -bench BenchmarkSpoolAppendRead -benchtime 1x

# Policy gate: the static policy must stay differentially identical to the
# pre-policy inline chain logic (randomized batches + real proxy fan-out
# order), the markov model's locking runs race-enabled, and the policysweep
# acceptance test pins markov ahead of static on the hostile workloads
# without inflating wasted origin bytes on the legacy replay.
echo "== policy gate"
go test -race -count=1 ./internal/policy/ ./internal/trace/
go test -race -count=1 ./internal/proxy/ \
    -run 'TestStaticChainOrderDifferential|TestNoExemplarSkipCounted|TestMarkovPersistRoundTrip'
go test -count=1 ./internal/exp/ -run TestPolicySweepAcceptance

echo "check: OK"
