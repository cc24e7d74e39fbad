package storenet

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/fleet"
	"golatest/internal/hwprofile"
	"golatest/internal/obs"
	"golatest/internal/store"
	"golatest/internal/storenet/faults"
)

// TestSweepSurvivesStoredOutage is the acceptance contract of the
// resilient store tier, extending the TestCrossHostSweepPartition
// family: a lease-mode sweep whose only shared store is a loopback
// stored daemon has that daemon killed mid-sweep — deterministically,
// from inside the Nth shard's compute — and must (a) complete every
// shard via the local tier with zero lost shards, (b) account for the
// outage in the report's Degraded count and the client's Deferred and
// Pending counters, and (c) after the
// daemon returns, reconcile the remote store to blobs byte-identical
// with the local tier's — with (d) every reconciled replay carrying the
// originating sweep's trace ID onto the daemon's flight recorder, even
// though the replay happens after the sweep (and its ambient trace
// context) are gone.
func TestSweepSurvivesStoredOutage(t *testing.T) {
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(backing)
	inj := faults.NewInjector(server, faults.Plan{})
	srv := httptest.NewServer(inj)
	defer srv.Close()

	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.New(obs.Options{Seed: 11})
	client, err := NewClient(srv.URL, ClientOptions{
		Cache:        cache,
		Retries:      2,
		RetryBackoff: time.Millisecond,
		// A long cooldown keeps the breaker open for the rest of the
		// sweep once it trips — no half-open probe can sneak through and
		// make the outage flaky. Recovery is the explicit Reconcile
		// below, which resets the breaker itself.
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Seed:             1,
		Tracer:           tracer,
	})
	if err != nil {
		t.Fatal(err)
	}

	profiles := hostProfiles(6)
	const killAt = 3 // daemon dies inside the 3rd computed shard
	var computes atomic.Int64
	// A sweep keeps at most GOMAXPROCS shards in flight. Two over six
	// shards guarantee shards still await their lease claim when the
	// kill fires — on a many-core box the sweep could claim everything
	// up front and never exercise the degraded claim path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rep, err := fleet.Sweep(profiles, fleet.Options{
		Tracer: tracer,
		Store:  client,
		Config: hostConfig,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			if computes.Add(1) == killAt {
				inj.Kill()
			}
			return &core.Result{
				DeviceName:   fmt.Sprintf("%s[%d]", p.Key, p.Instance),
				Architecture: p.Config.Architecture,
			}, nil
		},
		LeaseTTL: time.Minute,
		Owner:    "outage-host",
		WaitPoll: 2 * time.Millisecond,
		// The tiered client advertises CanDegrade, so the sweep must
		// degrade on its own.
	})
	if err != nil {
		t.Fatalf("sweep failed instead of degrading: %v", err)
	}

	// (a) Zero lost shards: every shard has a result.
	for i, sh := range rep.Shards {
		if sh.Result == nil {
			t.Fatalf("shard %d lost in the outage (err=%v)", i, sh.Err)
		}
	}
	if got := int(computes.Load()); got != len(profiles) {
		t.Fatalf("computed %d shards, want %d (store was empty)", got, len(profiles))
	}

	// (b) The outage is visible: shards after the kill either deferred
	// their Puts into the client's journal or fell back around failed
	// lease claims. The client served only this sweep, so its counters
	// are the sweep's.
	rs := client.Resilience()
	deferred := int(rs.Deferred)
	if deferred == 0 {
		t.Fatalf("client %+v: no deferred writes despite the mid-sweep kill", rs)
	}
	if rep.Degraded == 0 {
		t.Fatalf("report %+v: no degraded fallbacks despite the mid-sweep kill", rep)
	}
	if rs.Pending != rs.Deferred {
		t.Fatalf("Pending = %d, Deferred = %d: journal out of step with the deferred writes",
			rs.Pending, rs.Deferred)
	}
	// The local tier holds every shard even though the daemon missed
	// the tail of the sweep.
	if cache.Len() != len(profiles) {
		t.Fatalf("local tier has %d blobs, want %d", cache.Len(), len(profiles))
	}
	if backing.Len() >= len(profiles) {
		t.Fatalf("daemon has %d blobs despite dying mid-sweep", backing.Len())
	}

	// (d, first half) The journal markers carry the sweep's trace
	// identity on disk — the provenance a replay in another process (or
	// after this sweep's ambient context is long cleared) will re-send.
	if rep.TraceID == "" {
		t.Fatal("traced sweep reported no TraceID")
	}
	markers, err := filepath.Glob(filepath.Join(cache.Dir(), "pending", "*.pend"))
	if err != nil || len(markers) != deferred {
		t.Fatalf("journal markers = %v (err=%v), want %d", markers, err, deferred)
	}
	for _, m := range markers {
		body, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), rep.TraceID) {
			t.Fatalf("marker %s body %q does not carry sweep trace %s", m, body, rep.TraceID)
		}
	}
	putsBefore := tracedPuts(server, rep.TraceID)

	// (c) Daemon restart + reconcile converges the remote store to
	// byte-identical blobs.
	inj.Restore()
	n, err := client.Reconcile()
	if err != nil {
		t.Fatalf("reconcile after restart: %v", err)
	}
	if n != deferred {
		t.Fatalf("reconciled %d blobs, want the %d deferred ones", n, deferred)
	}
	if backing.Len() != len(profiles) {
		t.Fatalf("daemon has %d blobs after reconcile, want %d", backing.Len(), len(profiles))
	}
	for _, p := range profiles {
		k, err := store.ProfileKey(p, hostConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(cache.Dir(), k.Digest+".json"))
		if err != nil {
			t.Fatalf("local blob %s: %v", k, err)
		}
		got, err := os.ReadFile(filepath.Join(backing.Dir(), k.Digest+".json"))
		if err != nil {
			t.Fatalf("daemon blob %s missing after reconcile: %v", k, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("daemon blob %s differs from the local tier's bytes", k)
		}
	}
	if rs := client.Resilience(); rs.Pending != 0 {
		t.Fatalf("journal still holds %d entries after reconcile", rs.Pending)
	}

	// (d, second half) Every replayed PUT landed on the daemon's flight
	// recorder under the originating sweep's trace ID: the delta of
	// trace-matching PUT records across the reconcile is exactly the
	// replay count.
	if got := tracedPuts(server, rep.TraceID) - putsBefore; got != n {
		t.Fatalf("reconcile left %d trace-correlated PUT records, want %d", got, n)
	}
	// And the client side of the same story: one reconcile.put span per
	// replay, each under the sweep's trace, none sharing a span ID with
	// another (fresh spans, inherited trace).
	replaySpans := 0
	for _, s := range tracer.Snapshot() {
		if s.Name != "storenet.reconcile.put" {
			continue
		}
		replaySpans++
		if s.Context.TraceID.String() != rep.TraceID {
			t.Fatalf("replay span under foreign trace: %+v", s.Context)
		}
	}
	if replaySpans != n {
		t.Fatalf("%d reconcile.put spans, want %d", replaySpans, n)
	}
}

// tracedPuts counts the daemon-side PUT request records carrying the
// given trace ID.
func tracedPuts(s *Server, traceID string) int {
	count := 0
	for _, r := range s.OpsSnapshot() {
		if r.Method == "PUT" && r.TraceID == traceID {
			count++
		}
	}
	return count
}
