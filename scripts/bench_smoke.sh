#!/usr/bin/env bash
# bench_smoke.sh — tier-1 benchmark smoke for the campaign engine.
#
# Runs every benchmark five times (-count 5, a handful of iterations
# each) and emits BENCH_campaign.json with the median ns/op and its
# quartiles, and the median bytes/op and allocs/op, per benchmark; every
# derived ratio divides medians. One run of a benchmark on a shared host
# swings by 2x and more, so no figure here rests on a single run. The
# performance trajectory is tracked alongside the test suite:
#
#   ./scripts/bench_smoke.sh [output.json]
#
# Intended tier-1 invocation (see ROADMAP.md):
#
#   go build ./... && go test ./... && ./scripts/bench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Every -bench invocation runs each benchmark this many times.
count=5

out="${1:-BENCH_campaign.json}"

# The campaign sweep runs at one CPU and at every CPU of the host, so
# the two results give the sweep's parallel speedup. It runs twice per
# setting: at -benchtime 1x the first -cpu value would report the probe
# run go test makes at the default GOMAXPROCS.
cpus=1
if [ "$(nproc)" -gt 1 ]; then
	cpus="1,$(nproc)"
fi
raw=$(go test -count "$count" -run '^$' -bench 'BenchmarkCampaignSweep$' -cpu "$cpus" -benchtime 2x -benchmem .)
raw="$raw
$(go test -count "$count" -run '^$' -bench 'BenchmarkPhase1Warmup|BenchmarkSuiteCampaignCold|BenchmarkAblations' -benchtime 1x -benchmem .)"
# The warm benchmarks run a few iterations so the recorded bytes/allocs
# are the steady state of the pooled codec (one iteration would charge
# the one-time pool warm-up to the op).
raw="$raw
$(go test -count "$count" -run '^$' -bench 'BenchmarkSuiteCampaign(Warm|RemoteWarm)$' -benchtime 10x -benchmem .)"
# The store Put benchmark runs at 16 and 1024 entries (a Put writes no
# index, so the two should match); the blob codec benchmarks track the
# v3 container encode/decode cost. A handful of iterations completes in
# well under a second.
raw="$raw
$(go test -count "$count" -run '^$' -bench 'BenchmarkStorePut|BenchmarkBlob' -benchtime 20x -benchmem ./internal/store)"
# Resilience path: the breaker's fast-fail vs the no-breaker
# timeout-and-retry baseline, and a degraded-mode warm read vs the bare
# local store. TimeoutRetryGet costs a real RequestTimeout per op, so a
# handful of iterations is all it gets.
raw="$raw
$(go test -count "$count" -run '^$' -bench 'BenchmarkBreakerOpenGet|BenchmarkDegradedWarmGet|BenchmarkLocalWarmGet' \
	-benchtime 20x -benchmem ./internal/storenet)
$(go test -count "$count" -run '^$' -bench 'BenchmarkTimeoutRetryGet' -benchtime 5x -benchmem ./internal/storenet)"
# Replicated router tax: a warm read through a three-daemon router vs
# the same read through a bare client (the routing overhead a replica
# set costs when nothing is wrong), and a read whose primary is down
# (the health-aware failover path — the breaker has already tripped, so
# this is the steady-state cost of routing around a dead member, not
# the one-time discovery timeout).
raw="$raw
$(go test -count "$count" -run '^$' -bench 'BenchmarkDirectWarmGet|BenchmarkRouterWarmGet|BenchmarkRouterFailoverGet' \
	-benchtime 20x -benchmem ./internal/storenet/router)"
# Tracing tax: the cost of recording one span event on a hot shard
# (span pool + monotonic clock, no locks beyond the span's own), and
# the disabled-tracer path that every untraced sweep pays — which must
# stay at effectively zero for tracing-off runs to be free.
raw="$raw
$(go test -count "$count" -run '^$' -bench 'BenchmarkSpanEvent|BenchmarkStartSpan' -benchtime 100x -benchmem ./internal/obs)"
# Simulator cost: a streamed warm-up kernel per kernel (its skipped
# prefix elapses in one draw per clock segment), the path campaigns
# run. The per-iteration loop of a materialised kernel is not run here:
# its ns/iter spread over 25–41 across interleaved runs of one binary,
# wider than any change it was meant to show.
raw="$raw
$(go test -count "$count" -run '^$' -bench 'BenchmarkWarmKernelStreamed$' -benchtime 200x -benchmem ./internal/sim/gpu)"
# Phase-3 cost: a GH200 benchmark kernel streamed into the detection
# sink, which skips the initial clock's iterations, reads the target
# clock's up to detection and folds the confirmation tail: per kernel,
# and per iteration simulated one by one.
raw="$raw
$(go test -count "$count" -run '^$' -bench 'BenchmarkPhase3Kernel$' -benchtime 200x -benchmem ./internal/core)"
printf '%s\n' "$raw"

# Real-blob compression ratio: TestBlobCompressionRatio persists one
# quick-scale campaign and logs raw vs compressed sizes. -count=1: a
# cached pass would replay the log of an earlier build instead of
# measuring this one.
ratio=$(go test -count=1 -run 'TestBlobCompressionRatio$' -v . |
	sed -n 's/.*blob_compression_ratio=\([0-9.]*\).*/\1/p' | head -1)
echo "bench_smoke: blob_compression_ratio=${ratio:-unknown}"

# quartiles prints the first quartile, the median and the third
# quartile of its arguments, interpolated linearly between order
# statistics like the benchmarks' quantiles below.
quartiles() {
	printf '%s\n' "$@" | sort -n | awk '
	function q(p,    h, lo) {
		h = 1 + (NR - 1) * p
		lo = int(h)
		return lo >= NR ? a[NR] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
	}
	{ a[NR] = $1 }
	END { if (NR) printf "%.0f %.0f %.0f\n", q(0.25), q(0.5), q(0.75); else print "0 0 0" }'
}

# Daemon latency under concurrent multi-tenant load: the loadgen test
# times every client request against an authed loopback stored serving
# a mixed Get/Put/lease slam and logs their exact p50/p99.
# Half-strength here — the full 100-client version runs in the
# storenet test suite; this run
# exists to record the quantiles, not to stress. It runs $count times
# (-count=1 each, so none is a cached replay), and the smoke records
# the median of each quantile with its quartiles.
p50s=() p99s=()
for _ in $(seq "$count"); do
	loadout=$(STORED_LOAD_CLIENTS=50 go test -count=1 -run 'TestStoredLoadConcurrent$' -v ./internal/storenet)
	p50s+=("$(printf '%s\n' "$loadout" | sed -n 's/.*stored_p50_ns=\([0-9]*\).*/\1/p' | head -1)")
	p99s+=("$(printf '%s\n' "$loadout" | sed -n 's/.*stored_p99_ns=\([0-9]*\).*/\1/p' | head -1)")
done
read -r p50_q1 p50 p50_q3 <<<"$(quartiles "${p50s[@]}")"
read -r p99_q1 p99 p99_q3 <<<"$(quartiles "${p99s[@]}")"
echo "bench_smoke: stored_p50_ns=$p50 [$p50_q1, $p50_q3] stored_p99_ns=$p99 [$p99_q1, $p99_q3] over $count runs"

printf '%s\n' "$raw" | awk -v cores="$(nproc 2>/dev/null || echo 1)" -v blob_ratio="${ratio:-0}" \
	-v stored_p50="$p50" -v stored_p50_q1="$p50_q1" -v stored_p50_q3="$p50_q3" \
	-v stored_p99="$p99" -v stored_p99_q1="$p99_q1" -v stored_p99_q3="$p99_q3" -v count="$count" '
# quantile returns the p-quantile of the runs of one metric of one
# benchmark, interpolated linearly between order statistics.
function quantile(name, unit, p,    n, i, j, t, a, h, lo) {
	n = runs[name, unit]
	if (n == 0)
		return 0
	for (i = 1; i <= n; i++)
		a[i] = val[name, unit, i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j] < a[j-1]; j--) {
			t = a[j]; a[j] = a[j-1]; a[j-1] = t
		}
	h = 1 + (n - 1) * p
	lo = int(h)
	if (lo >= n)
		return a[n]
	return a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
function num(x) {
	return x == int(x) ? sprintf("%.0f", x) : sprintf("%.2f", x)
}
/^Benchmark/ {
	name = $1
	# The campaign sweep keeps its -N suffix: it runs at several -cpu.
	if (name !~ /^BenchmarkCampaignSweep-/)
		sub(/-[0-9]+$/, "", name)
	if (!(name in seen)) {
		seen[name] = 1
		order[n++] = name
	}
	# Each value precedes its unit; a custom metric such as ns/iter
	# shifts the B/op and allocs/op columns.
	for (i = 3; i < NF; i++) {
		u = $(i+1)
		if (u == "ns/op" || u == "B/op" || u == "allocs/op" || u == "ns/iter")
			val[name, u, ++runs[name, u]] = $i + 0
	}
}
END {
	if (n == 0) {
		print "bench_smoke: no benchmark output parsed" > "/dev/stderr"
		exit 1
	}
	printf "{\n  \"cores\": %d,\n  \"runs_per_benchmark\": %d,\n  \"benchmarks\": {\n", cores, count
	for (i = 0; i < n; i++) {
		k = order[i]
		ns[k] = quantile(k, "ns/op", 0.5)
		bytes[k] = quantile(k, "B/op", 0.5)
		allocs[k] = quantile(k, "allocs/op", 0.5)
		nsiter[k] = quantile(k, "ns/iter", 0.5)
		printf "    \"%s\": {\"ns_per_op\": %s, \"ns_q1\": %s, \"ns_q3\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"runs\": %d}%s\n", \
			k, num(ns[k]), num(quantile(k, "ns/op", 0.25)), num(quantile(k, "ns/op", 0.75)), \
			num(bytes[k]), num(allocs[k]), runs[k, "ns/op"], (i < n-1 ? "," : "")
	}
	printf "  }"
	# The ROADMAP open item asks for the multicore sweep speedup; it is
	# only meaningful off the single-core CI container, so record it
	# whenever this host can actually exhibit it.
	serial = ns["BenchmarkCampaignSweep"]
	par = ns["BenchmarkCampaignSweep-" cores]
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
	# v3 encode: the allocation profile of the blob writer (alloc-free
	# in steady state: pooled body scratch and gzip writer).
	if (ns["BenchmarkBlobEncode"] > 0) {
		printf ",\n  \"blob_encode_allocs_per_op\": %d", allocs["BenchmarkBlobEncode"]
		printf ",\n  \"blob_encode_bytes_per_op\": %d", bytes["BenchmarkBlobEncode"]
	}
	# Blob container: inflated-body/stored-container ratio of a real
	# quick-scale campaign blob (from TestBlobCompressionRatio), and the
	# absolute warm-get memory cost, local and remote.
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
	# Simulator: host ns per streamed warm-up kernel (4 blocks of 2000
	# iterations). With phase3_ns_per_iter below it is the smoke figure
	# of the simulator.
	if (ns["BenchmarkWarmKernelStreamed"] > 0)
		printf ",\n  \"sim_warm_kernel_ns\": %d", ns["BenchmarkWarmKernelStreamed"]
	# Phase 3: the host time of a streamed benchmark kernel over the
	# iterations it simulated one by one, and the whole ablations
	# artefact, whose CI-band campaigns decline every benchmark kernel.
	# Since schema 4 the confirmation tail is folded into one draw per
	# clock segment, and since schema 5 the iterations at the initial
	# clock, which cannot reach the detection band, elapse undelivered: the
	# GH200 1500 MHz segment is skipped, so phase3_ns_per_iter divides
	# by the few target-clock iterations up to detection and the
	# segment ends only, and carries the fixed costs of each kernel.
	# It is not comparable across schemas; the comparable cost per
	# kernel is the ns_per_op of BenchmarkPhase3Kernel.
	if (nsiter["BenchmarkPhase3Kernel"] > 0)
		printf ",\n  \"phase3_ns_per_iter\": %.2f", nsiter["BenchmarkPhase3Kernel"]
	if (ns["BenchmarkAblations"] > 0)
		printf ",\n  \"ablations_ns\": %d", ns["BenchmarkAblations"]
	# Daemon request latency under the concurrent authed load test:
	# exact quantiles of the client-side latency of every request.
	if (stored_p50 > 0)
		printf ",\n  \"stored_p50_ns\": %d, \"stored_p50_q1\": %d, \"stored_p50_q3\": %d", stored_p50, stored_p50_q1, stored_p50_q3
	if (stored_p99 > 0)
		printf ",\n  \"stored_p99_ns\": %d, \"stored_p99_q1\": %d, \"stored_p99_q3\": %d", stored_p99, stored_p99_q1, stored_p99_q3
	printf "\n}\n"
}' >"$out"

echo "bench_smoke: wrote $out"
