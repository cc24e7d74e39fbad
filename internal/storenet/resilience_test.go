package storenet

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"golatest/internal/store"
	"golatest/internal/storenet/faults"
)

// newChaosDaemon is newDaemon with a fault injector between the client
// and the real server handler.
func newChaosDaemon(t *testing.T, plan faults.Plan) (*store.Store, *faults.Injector, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(NewServer(st), plan)
	srv := httptest.NewServer(inj)
	t.Cleanup(srv.Close)
	return st, inj, srv
}

// TestBreakerOpensAndFastFails: enough consecutive transport failures
// open the circuit, after which every store operation — reads and lease
// claims alike — fails immediately with ErrUnavailable instead of
// burning a retry cycle.
func TestBreakerOpensAndFastFails(t *testing.T) {
	_, inj, srv := newChaosDaemon(t, faults.Plan{})
	inj.Kill()
	c, err := NewClient(srv.URL, ClientOptions{
		Retries:          2,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // no probes during the test
	})
	if err != nil {
		t.Fatal(err)
	}

	// First Get burns its retry budget (2 attempts = threshold) and
	// trips the breaker.
	if _, ok := c.Get(testKey(t, 0)); ok {
		t.Fatal("Get hit against a killed daemon")
	}
	before := inj.Injected().Requests

	// Open circuit: no request reaches the wire.
	if _, ok := c.Get(testKey(t, 1)); ok {
		t.Fatal("fast-fail Get hit")
	}
	if _, _, err := c.TryAcquire(testKey(t, 1).Digest, "owner", time.Minute); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("TryAcquire with open breaker: %v, want ErrUnavailable", err)
	}
	if err := c.Put(testKey(t, 1), testResult(1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put (no local tier) with open breaker: %v, want ErrUnavailable", err)
	}
	if got := inj.Injected().Requests; got != before {
		t.Fatalf("open breaker let %d requests reach the wire", got-before)
	}
	if rs := c.Resilience(); rs.Degraded == 0 {
		t.Fatalf("Resilience = %+v, want Degraded > 0", rs)
	}
}

// TestDeferredPutReconciles is the degraded-write round trip: Puts
// during an outage land in the local tier plus the pending journal, and
// an explicit Reconcile after recovery replays them to the daemon
// byte-identically.
func TestDeferredPutReconciles(t *testing.T) {
	backing, inj, srv := newChaosDaemon(t, faults.Plan{})
	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(srv.URL, ClientOptions{
		Cache:            cache,
		Retries:          2,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	inj.Kill()
	keys := []store.Key{testKey(t, 0), testKey(t, 1), testKey(t, 2)}
	for i, k := range keys {
		if err := c.Put(k, testResult(i)); err != nil {
			t.Fatalf("deferred Put %d: %v", i, err)
		}
		// Degraded mode still serves the write-your-own-read: the local
		// tier has the blob.
		if res, ok := c.Get(k); !ok || res == nil {
			t.Fatalf("degraded Get %d missed its own deferred Put", i)
		}
	}
	rs := c.Resilience()
	if rs.Deferred != 3 || rs.Pending != 3 {
		t.Fatalf("Resilience = %+v, want Deferred=3 Pending=3", rs)
	}
	// One journal marker per digest on disk.
	entries, err := os.ReadDir(filepath.Join(cache.Dir(), "pending"))
	if err != nil || len(entries) != 3 {
		t.Fatalf("pending journal: %v entries, err %v; want 3", len(entries), err)
	}
	if backing.Len() != 0 {
		t.Fatalf("daemon indexed %d blobs during the outage", backing.Len())
	}

	// Re-deferring an already-journaled digest is a no-op, not a double
	// count.
	if err := c.Put(keys[0], testResult(0)); err != nil {
		t.Fatal(err)
	}
	if rs := c.Resilience(); rs.Pending != 3 {
		t.Fatalf("Pending = %d after duplicate deferral, want 3", rs.Pending)
	}

	inj.Restore()
	n, err := c.Reconcile()
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if n != 3 {
		t.Fatalf("Reconcile replayed %d, want 3", n)
	}
	rs = c.Resilience()
	if rs.Pending != 0 || rs.Reconciled != 3 {
		t.Fatalf("Resilience after Reconcile = %+v, want Pending=0 Reconciled=3", rs)
	}

	// The healed remote is byte-identical to the local tier.
	for _, k := range keys {
		local, ok := cache.GetRaw(k.Digest)
		if !ok {
			t.Fatalf("local blob %s vanished", k)
		}
		remote, ok := backing.GetRaw(k.Digest)
		if !ok {
			t.Fatalf("reconciled blob %s missing from the daemon", k)
		}
		if string(local) != string(remote) {
			t.Fatalf("reconciled blob %s differs from the local bytes", k)
		}
	}

	// Idempotent: a second Reconcile has nothing to do.
	if n, err := c.Reconcile(); err != nil || n != 0 {
		t.Fatalf("second Reconcile = %d, %v; want 0, nil", n, err)
	}
}

// TestLenCountsLocalTierDuringOutage: while the daemon cannot answer,
// Len counts the local tier, which holds the deferred writes, instead
// of reading 0; once the daemon answers again, Len is its count.
func TestLenCountsLocalTierDuringOutage(t *testing.T) {
	_, inj, srv := newChaosDaemon(t, faults.Plan{})
	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(srv.URL, ClientOptions{
		Cache:            cache,
		Retries:          2,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Kill()
	for i := range 2 {
		if err := c.Put(testKey(t, i), testResult(i)); err != nil {
			t.Fatalf("deferred Put %d: %v", i, err)
		}
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d during the outage, want the local tier's 2", n)
	}
	inj.Restore()
	if _, err := c.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(testKey(t, 7), testResult(7)); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d after reconciling, want the daemon's 2, not the local tier's 3", n)
	}
}

// TestJournalSurvivesProcessRestart: a new client over the same cache
// directory sees the previous process's deferred writes and replays
// them — the experiments -reconcile flow.
func TestJournalSurvivesProcessRestart(t *testing.T) {
	backing, inj, srv := newChaosDaemon(t, faults.Plan{})
	cacheDir := t.TempDir()
	cache, err := store.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewClient(srv.URL, ClientOptions{
		Cache: cache, Retries: 1, RetryBackoff: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Kill()
	if err := c1.Put(testKey(t, 0), testResult(0)); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store handle and client over the same dir.
	inj.Restore()
	cache2, err := store.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(srv.URL, ClientOptions{Cache: cache2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rs := c2.Resilience(); rs.Pending != 1 {
		t.Fatalf("fresh client Pending = %d, want 1 (journal scan)", rs.Pending)
	}
	if n, err := c2.Reconcile(); err != nil || n != 1 {
		t.Fatalf("Reconcile = %d, %v; want 1, nil", n, err)
	}
	if backing.Len() != 1 {
		t.Fatalf("daemon indexes %d blobs after reconcile, want 1", backing.Len())
	}
}

// TestBackgroundReconcileOnRecovery: once the breaker's half-open probe
// succeeds, the client replays the journal on its own — no explicit
// Reconcile call.
func TestBackgroundReconcileOnRecovery(t *testing.T) {
	backing, inj, srv := newChaosDaemon(t, faults.Plan{})
	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(srv.URL, ClientOptions{
		Cache: cache, Retries: 1, RetryBackoff: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Kill()
	if err := c.Put(testKey(t, 0), testResult(0)); err != nil {
		t.Fatal(err)
	}
	inj.Restore()

	// Drive traffic until a half-open probe lands and the recovery edge
	// kicks the reconciler.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.Has(testKey(t, 1))
		if c.Resilience().Pending == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The background goroutine may still be finishing; poll the daemon.
	for time.Now().Before(deadline) && backing.Len() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if backing.Len() != 1 {
		t.Fatal("background reconcile never replayed the deferred blob")
	}
}

// TestRequestTimeoutBoundsAttempts: a daemon that accepts connections
// and never answers costs one RequestTimeout per attempt, not the
// blanket 60 seconds the old client-wide timeout allowed.
func TestRequestTimeoutBoundsAttempts(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(30 * time.Second):
		case <-r.Context().Done(): // freed by the client's cancel
		}
	}))
	defer hang.Close()
	c, err := NewClient(hang.URL, ClientOptions{
		Retries:          2,
		RetryBackoff:     time.Millisecond,
		RequestTimeout:   50 * time.Millisecond,
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, ok := c.Get(testKey(t, 0)); ok {
		t.Fatal("Get hit against a hanging daemon")
	}
	// 2 attempts x 50ms + 1ms backoff; anything near a second means the
	// per-attempt deadline did not fire.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Get took %v against a hanging daemon, want ~100ms", elapsed)
	}
}

// TestJitterDeterministicPerSeed: equal seeds reproduce the jitter
// sequence exactly (what keeps fault-injection schedules reproducible);
// distinct seeds desynchronise it (what breaks fleet retry lockstep).
func TestJitterDeterministicPerSeed(t *testing.T) {
	mk := func(seed uint64) *Client {
		c, err := NewClient("http://example.test:1", ClientOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, other := mk(7), mk(7), mk(8)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		va, vb, vo := a.jitter(time.Second), b.jitter(time.Second), other.jitter(time.Second)
		if va > time.Second || va < 0 {
			t.Fatalf("jitter %v out of [0, max]", va)
		}
		if va != vb {
			same = false
		}
		if va != vo {
			diff = true
		}
	}
	if !same {
		t.Fatal("equal seeds diverged")
	}
	if !diff {
		t.Fatal("distinct seeds never diverged in 64 draws")
	}
}

// TestClaimDegradesToLocalTier: a cache-backed client claims on the
// local tier when its daemon cannot answer the acquire — down at the
// transport, or answering 5xx — and counts the claim as degraded. A
// second client over the same cache dir then finds the claim busy, so
// processes sharing a cache dir keep partitioning work through the
// outage. A client without a cache surfaces the failure instead.
func TestClaimDegradesToLocalTier(t *testing.T) {
	for _, c := range []struct {
		name string
		plan faults.Plan
		kill bool
	}{{"down", faults.Plan{}, true}, {"5xx", faults.Plan{FailRate: 1}, false}} {
		t.Run(c.name, func(t *testing.T) {
			_, inj, srv := newChaosDaemon(t, c.plan)
			if c.kill {
				inj.Kill()
			}
			dir := t.TempDir()
			client := func(withCache bool) *Client {
				opts := ClientOptions{Retries: 1, RetryBackoff: time.Millisecond}
				if withCache {
					cache, err := store.Open(dir)
					if err != nil {
						t.Fatal(err)
					}
					opts.Cache = cache
				}
				cl, err := NewClient(srv.URL, opts)
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			digest := testKey(t, 0).Digest
			a, b := client(true), client(true)
			lease, ok, err := a.TryAcquire(digest, "host-a", time.Minute)
			if err != nil || !ok {
				t.Fatalf("claim with the daemon unreachable: ok=%v err=%v, want a local grant", ok, err)
			}
			if rs := a.Resilience(); rs.Degraded != 1 {
				t.Fatalf("Resilience = %+v, want the claim counted as degraded", rs)
			}
			if _, ok, err := b.TryAcquire(digest, "host-b", time.Minute); ok || err != nil {
				t.Fatalf("peer claim over the same cache dir: ok=%v err=%v, want busy", ok, err)
			}
			if err := lease.Release(); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := b.TryAcquire(digest, "host-b", time.Minute); !ok || err != nil {
				t.Fatalf("peer claim after release: ok=%v err=%v, want a grant", ok, err)
			}
			if _, _, err := client(false).TryAcquire(digest, "host-c", time.Minute); err == nil {
				t.Fatal("a client without a cache claimed with its daemon unreachable")
			}
		})
	}
}
