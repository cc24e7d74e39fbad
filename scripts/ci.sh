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

echo "== simulator distribution gates (-count=1) =="
# The skipped warm-up prefix, the folded confirmation tail and warm-up
# window, the phase-3 band gate and its thinning to candidates, the
# wake-window chunks and phase 1's declined warm kernels are exact in
# distribution, not in bits, so seeded statistical tests guard them:
# over 2000 device seeds each, skipped against delivered prefixes,
# folded against per-iteration kernels, gated and thinned against
# ungated ones (near pairs with candidates in either jitter tail) and
# declined against streamed ones from the same state. The thinning's
# draws have their own checks: the truncated normal against its CDF in
# both tails, the geometric count's mean, a non-candidate's moments,
# and the candidate interval against every iteration of a device with
# thinning hidden. Beside them: a steady-state MeasureOnce allocating
# nothing. go test ./... above may have replayed a cached pass; these
# must run.
go test -count=1 -run '^(TestSkippedPrefixMatchesInDistribution|TestFoldedTailMatchesInDistribution|TestGateSkipsUnheardSegments|TestWakeChunkMatchesInDistribution|TestThinningCandidateDraw|TestThinningMissCounts|TestCandidateIntervalIsConservative)$' ./internal/sim/gpu
go test -count=1 -run '^(TestFoldedTailKeepsDetection|TestGatedDetectionMatchesInDistribution|TestWarmupFoldMatchesInDistribution|TestPhase1DeclinedKernelsMatchInDistribution|TestMeasureOnceAllocationBound)$' ./internal/core

echo "== full-scale golden (GOLDEN_FULL=1) =="
# The full set's artefacts and blobs against testdata/full.sha256, cold,
# warm and at GOMAXPROCS=1; go test ./... skips it to keep its time.
GOLDEN_FULL=1 go test -count=1 -run '^TestFullGolden$' ./cmd/experiments

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
# core.Run's pair steps, the experiments fan-outs of the cluster census
# (its profiles and each profile's pairs, every pair on its own replica
# of one source device) and of the ablations, and the CLI's concurrently
# run generators write results by index from several goroutines, their
# measurement steps sharing core's one process-wide pool. core runs in
# full: TestStepPool bounds the steps in flight,
# TestRunIdenticalAcrossParallelism compares a campaign across pool
# sizes, TestPairComputesBoundedByPool counts the pair campaigns of
# three concurrent artefacts against the pool, and
# TestPairReplicaIsPhase1Chip checks that a pair's replica is the chip
# phase 1 characterised. The determinism test runs the census and
# ablations concurrently and compares bits against a serial loop,
# TestCensusPairIndependentOfOthers compares each census pair's samples
# with the same pair measured alone and in shuffled order, and
# TestForEach checks the experiments fan-out's by-index results and
# lowest-indexed error; the CLI tests check generator order, the
# lowest-indexed error, and a small concurrent run.
go test -race ./internal/core
# Replicas of one chip run folded kernels concurrently, and share the
# latency model's Classify memo across those goroutines.
go test -race -count=10 -run '^(TestReplicasFoldConcurrently|TestModelSamplesConcurrently)$' ./internal/sim/gpu ./internal/hwprofile
go test -race -run 'Ablation|CoreCount|ClusterCensus|TestParallelDeterminism|TestCensusPairIndependentOfOthers|TestForEach' ./internal/experiments
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
	-run 'TestBreaker|TestDeferredPutReconciles|TestJournalSurvivesProcessRestart|TestBackgroundReconcileOnRecovery|TestSweepSurvivesStoredOutage|TestClaimDegradesToLocalTier' \
	./internal/storenet
go test -race -count 2 -run 'TestSweepAutoPolicyAbortsOnPlainStore|TestSweepErrorCarriesShardIdentity' ./internal/fleet

echo "== go test -race (v3 blob codec rails: corrupt and legacy blobs are misses, profile and body bounds hold) =="
# TestV3RoundTrip also selects TestV3RoundTripProperty (random
# campaign-shaped results); TestV3RefusesUnderivedProperty breaks one
# derived field of such results and expects the encoder's refusal.
go test -race -run 'TestCorruptBlobIsMissAndHeals|TestBlobInflationBound|TestRejectsMultiMemberContainer|TestV3RoundTrip|TestV3RefusesUnderivedProperty|TestEncodeRefusesUnderivedPairs|TestV3GoldenBytes|TestProfileKeyBound|TestPutRefusesBodyPastDecodeBound|TestParsedMemoLifecycle|TestParsedMemoConcurrent' \
	-count 2 ./internal/store
# The daemon serves bytes it has validated without parsing them again;
# bytes that change on disk, or a GC'd blob, still answer 404.
go test -race -run 'TestDaemonServesValidatedBytesWithoutReparse|TestDaemonRefusesCorruptedMemoisedBlob|TestDaemonForgetsGCdBlob|TestWarmRemoteGetDecodeBudgetWithDaemon' \
	-count 2 ./internal/storenet

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
# binary sections, bit flips and the inflation rail, on an explicit
# body and on a campaign-shaped schema-9 body (byte-shuffled integer
# columns, derived floats, byte-wide cluster labels).
go test -run '^$' -fuzz 'FuzzDecodeBlob$' -fuzztime 5s ./internal/store

echo "== blob codec benchmarks =="
go test -run '^$' -bench 'BenchmarkBlob' -benchtime 20x -benchmem ./internal/store

echo "== bench smoke =="
./scripts/bench_smoke.sh

echo "ci: all green"
