#!/usr/bin/env bash
# bench_smoke.sh — tier-1 benchmark smoke for the campaign engine.
#
# Runs every campaign-sweep benchmark exactly once (compile + execute
# smoke, not a timing run) and emits BENCH_campaign.json with ns/op,
# bytes/op and allocs/op per benchmark, so the performance trajectory of
# the sweep is tracked alongside the test suite:
#
#   ./scripts/bench_smoke.sh [output.json]
#
# Intended tier-1 invocation (see ROADMAP.md):
#
#   go build ./... && go test ./... && ./scripts/bench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_campaign.json}"

raw=$(go test -run '^$' -bench 'BenchmarkCampaignSweep|BenchmarkPhase1Warmup|BenchmarkSuiteCampaignCold' \
	-benchtime 1x -benchmem .)
# The warm benchmarks run a few iterations so the recorded bytes/allocs
# are the steady state of the pooled codec (one iteration would charge
# the one-time pool warm-up to the op).
raw="$raw
$(go test -run '^$' -bench 'BenchmarkSuiteCampaign(Warm|RemoteWarm)$' -benchtime 10x -benchmem .)"
# The store Put benchmark runs at 16 and 1024 entries (a Put writes no
# index, so the two should match); the blob codec benchmarks track the
# v3 container encode/decode cost. A handful of iterations completes in
# well under a second.
raw="$raw
$(go test -run '^$' -bench 'BenchmarkStorePut|BenchmarkBlob' -benchtime 20x -benchmem ./internal/store)"
# Resilience path: the breaker's fast-fail vs the no-breaker
# timeout-and-retry baseline, and a degraded-mode warm read vs the bare
# local store. TimeoutRetryGet costs a real RequestTimeout per op, so a
# handful of iterations is all it gets.
raw="$raw
$(go test -run '^$' -bench 'BenchmarkBreakerOpenGet|BenchmarkDegradedWarmGet|BenchmarkLocalWarmGet' \
	-benchtime 20x -benchmem ./internal/storenet)
$(go test -run '^$' -bench 'BenchmarkTimeoutRetryGet' -benchtime 5x -benchmem ./internal/storenet)"
# Replicated router tax: a warm read through a three-daemon router vs
# the same read through a bare client (the routing overhead a replica
# set costs when nothing is wrong), and a read whose primary is down
# (the health-aware failover path — the breaker has already tripped, so
# this is the steady-state cost of routing around a dead member, not
# the one-time discovery timeout).
raw="$raw
$(go test -run '^$' -bench 'BenchmarkDirectWarmGet|BenchmarkRouterWarmGet|BenchmarkRouterFailoverGet' \
	-benchtime 20x -benchmem ./internal/storenet/router)"
# Tracing tax: the cost of recording one span event on a hot shard
# (span pool + monotonic clock, no locks beyond the span's own), and
# the disabled-tracer path that every untraced sweep pays — which must
# stay at effectively zero for tracing-off runs to be free.
raw="$raw
$(go test -run '^$' -bench 'BenchmarkSpanEvent|BenchmarkStartSpan' -benchtime 100x -benchmem ./internal/obs)"
printf '%s\n' "$raw"

# Real-blob compression ratio: TestBlobCompressionRatio persists one
# quick-scale campaign and logs raw vs compressed sizes.
ratio=$(go test -run 'TestBlobCompressionRatio$' -v . |
	sed -n 's/.*blob_compression_ratio=\([0-9.]*\).*/\1/p' | head -1)
echo "bench_smoke: blob_compression_ratio=${ratio:-unknown}"

# Daemon latency under concurrent multi-tenant load: the loadgen test
# logs p50/p99 from the /metrics histograms of an authed loopback
# stored serving a mixed Get/Put/lease slam. Half-strength here — the
# full 100-client version runs in the storenet test suite; this run
# exists to record the quantiles, not to stress.
loadout=$(STORED_LOAD_CLIENTS=50 go test -run 'TestStoredLoadConcurrent$' -v ./internal/storenet)
p50=$(printf '%s\n' "$loadout" | sed -n 's/.*stored_p50_ns=\([0-9]*\).*/\1/p' | head -1)
p99=$(printf '%s\n' "$loadout" | sed -n 's/.*stored_p99_ns=\([0-9]*\).*/\1/p' | head -1)
echo "bench_smoke: stored_p50_ns=${p50:-unknown} stored_p99_ns=${p99:-unknown}"

printf '%s\n' "$raw" | awk -v cores="$(nproc 2>/dev/null || echo 1)" -v blob_ratio="${ratio:-0}" \
	-v stored_p50="${p50:-0}" -v stored_p99="${p99:-0}" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns[name] = $3
	bytes[name] = $5
	allocs[name] = $7
	order[n++] = name
}
END {
	if (n == 0) {
		print "bench_smoke: no benchmark output parsed" > "/dev/stderr"
		exit 1
	}
	printf "{\n  \"cores\": %d,\n  \"benchmarks\": {\n", cores
	for (i = 0; i < n; i++) {
		k = order[i]
		printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			k, ns[k], bytes[k], allocs[k], (i < n-1 ? "," : "")
	}
	printf "  }"
	# The ROADMAP open item asks for the multicore sweep speedup; it is
	# only meaningful off the single-core CI container, so record it
	# whenever this host can actually exhibit it.
	serial = ns["BenchmarkCampaignSweepSerial"]
	par = ns["BenchmarkCampaignSweepParallel"]
	if (cores <= 1)
		printf ",\n  \"sweep_parallel_speedup\": \"skipped: single-core host\""
	else if (serial > 0 && par > 0)
		printf ",\n  \"sweep_parallel_speedup\": %.2f", serial / par
	cold = ns["BenchmarkSuiteCampaignCold"]
	warm = ns["BenchmarkSuiteCampaignWarm"]
	if (cold > 0 && warm > 0)
		printf ",\n  \"store_warm_speedup\": %.2f", cold / warm
	# Remote warm Get (stored daemon on loopback, cache-less client) vs
	# cold compute: what the network store buys a cross-host fleet whose
	# local tier is cold.
	remote = ns["BenchmarkSuiteCampaignRemoteWarm"]
	if (cold > 0 && remote > 0)
		printf ",\n  \"remote_warm_speedup\": %.2f", cold / remote
	# v3 streaming encode: the allocation profile of the binary blob
	# writer (alloc-free in steady state).
	if (ns["BenchmarkBlobEncode"] > 0) {
		printf ",\n  \"blob_encode_allocs_per_op\": %d", allocs["BenchmarkBlobEncode"]
		printf ",\n  \"blob_encode_bytes_per_op\": %d", bytes["BenchmarkBlobEncode"]
	}
	# Blob container: raw/compressed ratio of a real quick-scale
	# campaign blob (from TestBlobCompressionRatio), and the absolute
	# warm-get memory cost, local and remote.
	if (blob_ratio > 0)
		printf ",\n  \"blob_compression_ratio\": %.2f", blob_ratio
	warm_bytes = bytes["BenchmarkSuiteCampaignWarm"]
	if (warm_bytes > 0)
		printf ",\n  \"warm_bytes_per_op\": %d", warm_bytes
	remote_bytes = bytes["BenchmarkSuiteCampaignRemoteWarm"]
	remote_allocs = allocs["BenchmarkSuiteCampaignRemoteWarm"]
	if (remote_bytes > 0)
		printf ",\n  \"remote_warm_bytes_per_op\": %d", remote_bytes
	if (remote_allocs > 0)
		printf ",\n  \"remote_warm_allocs_per_op\": %d", remote_allocs
	# Resilience figures. breaker_fastfail_ns is the absolute cost of a
	# store touch while the circuit is open (the per-op outage tax of a
	# degraded sweep); its speedup is measured against the no-breaker client
	# burning a RequestTimeout per attempt on the same dead daemon.
	# degraded_warm_overhead is a degraded-mode warm read over a bare
	# local-store read — the read-path price of the fallback machinery
	# (expected ~1.0: the local tier is checked before the wire).
	fastfail = ns["BenchmarkBreakerOpenGet"]
	if (fastfail > 0)
		printf ",\n  \"breaker_fastfail_ns\": %d", fastfail
	timeoutretry = ns["BenchmarkTimeoutRetryGet"]
	if (fastfail > 0 && timeoutretry > 0)
		printf ",\n  \"breaker_fastfail_speedup\": %.0f", timeoutretry / fastfail
	degraded = ns["BenchmarkDegradedWarmGet"]
	local_warm = ns["BenchmarkLocalWarmGet"]
	if (degraded > 0 && local_warm > 0)
		printf ",\n  \"degraded_warm_overhead\": %.2f", degraded / local_warm
	# Replication figures. router_get_overhead is a healthy warm read
	# through the three-member router over the same read via a bare
	# client (expected ~1.0x: the ring lookup and health peek are cheap
	# next to one loopback round trip). router_failover_ns is the
	# absolute cost of a read whose primary is dead with the breaker
	# already open — the per-op price of a degraded replica set.
	direct_get = ns["BenchmarkDirectWarmGet"]
	router_get = ns["BenchmarkRouterWarmGet"]
	if (direct_get > 0 && router_get > 0)
		printf ",\n  \"router_get_overhead\": %.2f", router_get / direct_get
	router_failover = ns["BenchmarkRouterFailoverGet"]
	if (router_failover > 0)
		printf ",\n  \"router_failover_ns\": %d", router_failover
	# Observability tax: ns per recorded span event with tracing on, and
	# the same call against a nil/disabled tracer — the price every
	# untraced sweep pays, which the obs package promises is negligible.
	span_ev = ns["BenchmarkSpanEvent"]
	if (span_ev > 0)
		printf ",\n  \"obs_span_overhead_ns\": %d", span_ev
	span_off = ns["BenchmarkSpanEventDisabled"]
	if (ns["BenchmarkSpanEvent"] > 0)
		printf ",\n  \"obs_disabled_overhead_ns\": %d", span_off
	# Daemon request latency under the concurrent authed load test:
	# histogram-bucket upper-bound estimates (biased high by at most one
	# bucket), from the same /metrics series operators scrape.
	if (stored_p50 > 0)
		printf ",\n  \"stored_p50_ns\": %d", stored_p50
	if (stored_p99 > 0)
		printf ",\n  \"stored_p99_ns\": %d", stored_p99
	printf "\n}\n"
}' >"$out"

echo "bench_smoke: wrote $out"
