#!/usr/bin/env bash
# ci.sh — the full tier-1 gate in one command:
#
#   ./scripts/ci.sh
#
# vet + build (including the stored daemon) + tests, a race-detector
# pass over the concurrency-heavy coordination packages (the store's
# lease/GC machinery, the fleet's cross-process claim loop, and
# the storenet daemon/client) and over the measurement fan-outs (core's
# step pool, the census and ablations, the CLI's concurrent artefacts),
# and the benchmark smoke that records the performance trajectory in
# BENCH_campaign.json.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go build cmd/stored =="
go build -o /dev/null ./cmd/stored

echo "== go test =="
go test ./...

echo "== gofmt (internal/obs, internal/sim, internal/core, internal/store, internal/storenet) =="
# The tracing layer, the simulator/measurement hot paths and the store
# tier are held to gofmt-clean so drive-by edits to the hot span path,
# the iteration loop or the blob codec can't land unformatted.
unformatted=$(gofmt -l internal/obs internal/sim internal/core internal/store internal/storenet)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./internal/obs/...

echo "== sweep partition tests (-count 5) =="
# Each shard must be written exactly once across processes and hosts,
# and a sweep must skip the shards live peers hold until its own are
# done. A lease race shows up only in some interleavings, so one lucky
# pass proves little: run the partition tests five times each.
go test -count 5 -run 'TestCrossProcessSweepPartition|TestCrossHostSweepPartition' ./cmd/experiments
go test -count 5 -run 'TestCrossHostSweepPartition' ./internal/storenet
go test -count 5 -run 'TestCampaignLeasePartition|TestFleetLeasePartition' ./internal/experiments
go test -count 5 -run 'TestSweepLeasePartition|TestSweepSkipsLiveClaims' ./internal/fleet

echo "== go test -race (store, fleet, storenet) =="
go test -race ./internal/obs/... ./internal/store/... ./internal/fleet/... ./internal/storenet/... ./cmd/stored/...

echo "== go test -race (core step pool + phase-3 sink, concurrent artefacts) =="
# core.Run's pair steps, the experiments fan-out of the cluster census and
# ablations, and the CLI's concurrently run generators write results by
# index from several goroutines, their measurement steps sharing core's
# one process-wide pool. core runs in full: TestStepPool bounds the
# steps in flight, TestRunIdenticalAcrossParallelism compares a campaign
# across pool sizes, and TestPairComputesBoundedByPool counts the pair
# campaigns of three concurrent artefacts against the pool. The
# determinism test runs the census and ablations concurrently and
# compares bits against a serial loop, and TestForEach checks the
# experiments fan-out's by-index results and lowest-indexed error; the
# CLI tests check generator order, the lowest-indexed error, and a
# small concurrent run.
go test -race ./internal/core
go test -race -run 'Ablation|CoreCount|ClusterCensus|TestParallelDeterminism|TestForEach' ./internal/experiments
go test -race -run 'TestGeneratorsRunConcurrentlyInOrder|TestWriteFileRemovesPartialArtefact|TestRunConcurrentSubset' ./cmd/experiments

echo "== go test -race (trace propagation) =="
# The tracer is lock-free by design (atomic ring cursor, pooled spans);
# the propagation tests drive it from every worker goroutine of a
# sweep at once, plus the daemon's request-ring recorder.
go test -race -count 2 \
	-run 'TestSweepTraceTreeCoversEveryShard|TestSweepInstallsAndClearsTraceContext|TestUntracedSweepCollectsTimings' \
	./internal/fleet
go test -race -count 2 -run 'TestConcurrentSpans' ./internal/obs
go test -race -run 'TestDaemonDebugEndpoints' ./cmd/stored

echo "== go test -race (breaker + degraded-mode reconciler) =="
go test -race -count 2 \
	-run 'TestBreaker|TestDeferredPutReconciles|TestJournalSurvivesProcessRestart|TestBackgroundReconcileOnRecovery|TestSweepSurvivesStoredOutage' \
	./internal/storenet
go test -race -count 2 -run 'TestSweepDegrade|TestSweepAutoPolicy|TestResolvePolicy' ./internal/fleet

echo "== go test -race (v3 blob codec rails: corrupt and legacy blobs are misses, profile and body bounds hold) =="
go test -race -run 'TestCorruptBlobIsMissAndHeals|TestBlobInflationBound|TestRejectsMultiMemberContainer|TestV3RoundTrip|TestV3GoldenBytes|TestProfileKeyBound|TestPutRefusesBodyPastDecodeBound' \
	-count 2 ./internal/store

echo "== go test -race (backend conformance + auth/ratelimit) =="
go test -race -count 2 \
	-run 'TestBackendConformance|TestParseTokens|TestAuthScopeEnforcement|TestRateLimit429|TestByteQuota429|TestClientAuthTerminal|TestClient429HonorsRetryAfterWithoutBreakerTrip|TestAuthedProbesWhileDrainingAndThrottled' \
	./internal/store ./internal/storenet
go test -race -run 'TestDaemonAuthTokens|TestDaemonTLS|TestDaemonProbesSurviveAuthAndDrain|TestDaemonTokenReloadOnSIGHUP' ./cmd/stored

echo "== go test -race (replicated router + token validity) =="
# The router package races in full: ring placement, failover reads,
# read-repair, scrub passes, the three conformance harnesses
# and the mid-sweep member-kill chaos test all exercise the same shared
# counters from many goroutines. Token validity windows race the
# SIGHUP rotation path.
go test -race -count 2 ./internal/storenet/router
go test -race -count 2 -run 'TestParseTokensValidityWindows|TestTokenValidityWindow401' ./internal/storenet
go test -race -run 'TestDaemonTokenExpiry' ./cmd/stored

echo "== go test -race (stored load, reduced concurrency) =="
STORED_LOAD_CLIENTS=25 go test -race -run 'TestStoredLoadConcurrent$' ./internal/storenet

echo "== fuzz smoke (blob codec) =="
# One target per invocation (go test's -fuzz constraint); a few seconds
# each is a smoke over the seeded corpus plus whatever the engine grows,
# not a soak — the corpus seeds alone cover the v3 container, the
# plain-JSON and gzip-JSON inputs it must reject, truncation, torn v3
# binary sections, bit flips and the inflation rail.
go test -run '^$' -fuzz 'FuzzDecodeBlob$' -fuzztime 5s ./internal/store

echo "== blob codec benchmarks =="
go test -run '^$' -bench 'BenchmarkBlob' -benchtime 20x -benchmem ./internal/store

echo "== bench smoke =="
./scripts/bench_smoke.sh

echo "ci: all green"
