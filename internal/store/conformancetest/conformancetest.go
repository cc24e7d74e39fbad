// Package conformancetest is the executable specification of the
// store.Backend contract. Any backend — the local directory store, the
// storenet client (cache-less or tiered), a fault-injection wrapper,
// and every future one (hash router, S3) — must pass Run unchanged;
// the suite is what makes "implements store.Backend" a checkable claim
// instead of an interface assertion.
//
// The suite asserts observable contract, not implementation: reads
// degrade to misses (corrupt blobs included, which must heal on the
// next Put), writes surface errors, Has is a cheap non-validating
// probe, leases are exclusive compare-and-swap claims whose
// per-acquisition tokens protect a stealer from its victim's stale
// handle, and GC bounds the authoritative tier. Counter assertions are
// lower bounds — a tiered backend may serve hits its remote never
// sees.
package conformancetest

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/stats"
	"golatest/internal/store"
)

// Harness is one backend under test, opened fresh per subtest.
type Harness struct {
	// Backend is the subject. It must be empty: subtests assume a
	// fresh store.
	Backend store.Backend

	// Corrupt, when non-nil, tampers with the durable bytes of the
	// digest's blob in every tier the backend reads from, so the suite
	// can assert corrupt ⇒ miss ⇒ heals on re-Put. Nil skips the
	// corruption subtest (for backends whose storage the test cannot
	// reach).
	Corrupt func(digest string)
}

// Run drives the full conformance suite against backends produced by
// open. Each subtest opens its own harness, so state never leaks
// between cases and the suite parallelises safely under -race.
func Run(t *testing.T, open func(t *testing.T) Harness) {
	t.Run("MissOnAbsent", func(t *testing.T) { testMissOnAbsent(t, open(t)) })
	t.Run("PutGetRoundTrip", func(t *testing.T) { testPutGetRoundTrip(t, open(t)) })
	t.Run("NilResultPut", func(t *testing.T) { testNilResultPut(t, open(t)) })
	t.Run("IndexAndLen", func(t *testing.T) { testIndexAndLen(t, open(t)) })
	t.Run("LeaseExclusive", func(t *testing.T) { testLeaseExclusive(t, open(t)) })
	t.Run("LeaseExpirySteal", func(t *testing.T) { testLeaseExpirySteal(t, open(t)) })
	t.Run("LeaseHammer", func(t *testing.T) { testLeaseHammer(t, open(t)) })
	t.Run("CorruptBlobIsMissAndHeals", func(t *testing.T) { testCorrupt(t, open(t)) })
	t.Run("GCBoundsTheStore", func(t *testing.T) { testGC(t, open(t)) })
	t.Run("ConcurrentPutGet", func(t *testing.T) { testConcurrent(t, open(t)) })
}

// Key derives the i-th deterministic test key. Exported so harnesses
// can seed or corrupt specific digests.
func Key(t testing.TB, i int) store.Key {
	t.Helper()
	k, err := store.KeyFor("conformance", i, 42, core.Config{
		Frequencies: []float64{705, 1410},
		Seed:        uint64(1000 + i),
	})
	if err != nil {
		t.Fatalf("conformance key %d: %v", i, err)
	}
	return k
}

// Result builds the i-th deterministic test result. It carries a NaN
// so the suite exercises the non-finite float path every backend must
// round-trip.
func Result(i int) *core.Result {
	return &core.Result{
		DeviceName:   fmt.Sprintf("conformance[%d]", i),
		Architecture: "Ampere",
		Phase1: &core.Phase1Result{
			Stats: map[float64]core.FreqStats{
				705: {FreqMHz: 705, Iter: stats.MeanStd{N: 100, Mean: 0.2 + float64(i), Std: 0.001}},
			},
		},
		Pairs: []*core.PairResult{{
			Pair:     core.Pair{InitMHz: 705, TargetMHz: 1410},
			Samples:  []float64{13.5 + float64(i)},
			Injected: []float64{math.NaN()},
		}},
	}
}

// mustEqual compares results through their v3 encoding — the bytes
// the store contract is defined over — so NaN and map ordering compare
// correctly.
func mustEqual(t *testing.T, k store.Key, got, want *core.Result) {
	t.Helper()
	ge, err := store.EncodeBlobV3(k, got)
	if err != nil {
		t.Fatalf("encode got: %v", err)
	}
	we, err := store.EncodeBlobV3(k, want)
	if err != nil {
		t.Fatalf("encode want: %v", err)
	}
	if !bytes.Equal(ge, we) {
		t.Fatalf("result for %s did not round-trip", k)
	}
}

func testMissOnAbsent(t *testing.T, h Harness) {
	k := Key(t, 0)
	if res, ok := h.Backend.Get(k); ok || res != nil {
		t.Fatalf("Get on an empty backend = (%v, %v), want miss", res, ok)
	}
	if h.Backend.Has(k) {
		t.Fatal("Has on an empty backend = true")
	}
	if c := h.Backend.Counters(); c.Misses < 1 {
		t.Fatalf("counters after a miss: %+v, want Misses ≥ 1", c)
	}
}

func testPutGetRoundTrip(t *testing.T, h Harness) {
	k, want := Key(t, 1), Result(1)
	if err := h.Backend.Put(k, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := h.Backend.Get(k)
	if !ok {
		t.Fatal("Get after Put: miss")
	}
	mustEqual(t, k, got, want)
	if !h.Backend.Has(k) {
		t.Fatal("Has after Put = false")
	}
	c := h.Backend.Counters()
	if c.Puts < 1 || c.Hits < 1 {
		t.Fatalf("counters after put+hit: %+v, want Puts ≥ 1 and Hits ≥ 1", c)
	}
	if loc := h.Backend.Location(); loc == "" {
		t.Fatal("Location() is empty")
	}
}

func testNilResultPut(t *testing.T, h Harness) {
	if err := h.Backend.Put(Key(t, 2), nil); err == nil {
		t.Fatal("Put(nil) succeeded; writes must surface errors")
	}
}

func testIndexAndLen(t *testing.T, h Harness) {
	const n = 3
	digests := map[string]bool{}
	for i := 0; i < n; i++ {
		k := Key(t, 10+i)
		if err := h.Backend.Put(k, Result(10+i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		digests[k.Digest] = true
	}
	if got := h.Backend.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	ix := h.Backend.Index()
	if len(ix) != n {
		t.Fatalf("Index has %d entries, want %d", len(ix), n)
	}
	for _, e := range ix {
		if !digests[e.Digest] {
			t.Fatalf("Index lists unknown digest %s", e.Digest)
		}
		if e.Profile != "conformance" {
			t.Fatalf("Index entry profile = %q, want conformance", e.Profile)
		}
	}
}

func testLeaseExclusive(t *testing.T, h Harness) {
	d := Key(t, 20).Digest
	a, ok, err := h.Backend.TryAcquire(d, "owner-a", time.Minute)
	if err != nil || !ok {
		t.Fatalf("first acquire: ok=%v err=%v", ok, err)
	}
	if a.Owner() != "owner-a" || a.Token() == "" || a.Stolen() {
		t.Fatalf("lease handle: owner=%q token=%q stolen=%v", a.Owner(), a.Token(), a.Stolen())
	}
	// Exclusivity: a live lease refuses every other claimant — busy is
	// ok=false with nil error, not a failure.
	if _, ok, err := h.Backend.TryAcquire(d, "owner-b", time.Minute); err != nil || ok {
		t.Fatalf("second acquire on a held lease: ok=%v err=%v, want busy", ok, err)
	}
	if owner, held := h.Backend.LeaseHolder(d); !held || owner != "owner-a" {
		t.Fatalf("LeaseHolder = (%q, %v), want (owner-a, true)", owner, held)
	}
	if err := a.Renew(time.Minute); err != nil {
		t.Fatalf("renew of a held lease: %v", err)
	}
	if err := a.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, held := h.Backend.LeaseHolder(d); held {
		t.Fatal("lease still held after Release")
	}
	// The slot is free again: the CAS cycle restarts cleanly.
	if _, ok, err := h.Backend.TryAcquire(d, "owner-b", time.Minute); err != nil || !ok {
		t.Fatalf("acquire after release: ok=%v err=%v", ok, err)
	}
}

func testLeaseExpirySteal(t *testing.T, h Harness) {
	d := Key(t, 21).Digest
	a, ok, err := h.Backend.TryAcquire(d, "victim", 50*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("victim acquire: ok=%v err=%v", ok, err)
	}
	time.Sleep(150 * time.Millisecond) // let the victim's TTL lapse
	b, ok, err := h.Backend.TryAcquire(d, "stealer", time.Minute)
	if err != nil || !ok {
		t.Fatalf("steal of an expired lease: ok=%v err=%v", ok, err)
	}
	if !b.Stolen() {
		t.Fatal("stealer's handle does not report Stolen")
	}
	// Token CAS: the victim's stale handle must be inert — its renew
	// fails, and its release must not evict the stealer's live lease.
	if err := a.Renew(time.Minute); err == nil {
		t.Fatal("stale handle renewed after being stolen")
	}
	_ = a.Release() // best-effort: may "succeed" as a no-op, never clobbers
	if owner, held := h.Backend.LeaseHolder(d); !held || owner != "stealer" {
		t.Fatalf("after stale release, LeaseHolder = (%q, %v), want (stealer, true)", owner, held)
	}
	if err := b.Renew(time.Minute); err != nil {
		t.Fatalf("stealer renew: %v", err)
	}
	if err := b.Release(); err != nil {
		t.Fatalf("stealer release: %v", err)
	}
}

// testLeaseHammer races many claimants for one digest at a TTL no run
// outlives: exactly one may win, and since no lease ever expires, none
// may report a steal. A claimant that reads the winner's lease before it
// is fully written must see it as busy, not as garbage to steal.
func testLeaseHammer(t *testing.T, h Harness) {
	const claimants = 16
	d := Key(t, 22).Digest
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		mu      sync.Mutex
		winners []store.LeaseHandle
	)
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			l, ok, err := h.Backend.TryAcquire(d, fmt.Sprintf("claimant-%d", i), time.Hour)
			if err != nil {
				t.Errorf("claimant %d: %v", i, err)
				return
			}
			if ok {
				mu.Lock()
				winners = append(winners, l)
				mu.Unlock()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if len(winners) != 1 {
		t.Fatalf("%d claimants won a live lease, want exactly 1", len(winners))
	}
	if winners[0].Stolen() {
		t.Fatal("the only winner reports a steal, but no lease ever expired")
	}
	if owner, held := h.Backend.LeaseHolder(d); !held || owner != winners[0].Owner() {
		t.Fatalf("LeaseHolder = (%q, %v), want (%q, true)", owner, held, winners[0].Owner())
	}
	if err := winners[0].Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
}

func testCorrupt(t *testing.T, h Harness) {
	if h.Corrupt == nil {
		t.Skip("harness cannot reach the backend's storage")
	}
	k, want := Key(t, 30), Result(30)
	if err := h.Backend.Put(k, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	h.Corrupt(k.Digest)
	// A corrupt blob is a miss — never an error, never a wrong result.
	if res, ok := h.Backend.Get(k); ok {
		t.Fatalf("Get of a corrupt blob = (%v, true), want miss", res)
	}
	// And the slot heals: the caller recomputes, the re-Put lands, and
	// the next Get serves the good bytes.
	if err := h.Backend.Put(k, want); err != nil {
		t.Fatalf("healing Put: %v", err)
	}
	got, ok := h.Backend.Get(k)
	if !ok {
		t.Fatal("Get after healing Put: miss")
	}
	mustEqual(t, k, got, want)
}

func testGC(t *testing.T, h Harness) {
	const n = 3
	for i := 0; i < n; i++ {
		if err := h.Backend.Put(Key(t, 40+i), Result(40+i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	gs, err := h.Backend.GC(store.GCPolicy{MaxBytes: 1})
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if gs.Evicted < n {
		t.Fatalf("GC evicted %d, want ≥ %d", gs.Evicted, n)
	}
	// Len reflects the authoritative tier the policy bounded. (A tiered
	// backend may still serve Gets from its local cache — that tier is
	// bounded by its own owner, not this GC.)
	if got := h.Backend.Len(); got != 0 {
		t.Fatalf("Len after GC(MaxBytes=1) = %d, want 0", got)
	}
}

func testConcurrent(t *testing.T, h Harness) {
	const workers = 8
	keys := make([]store.Key, workers)
	for i := range keys {
		keys[i] = Key(t, 50+i)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := keys[i]
			if err := h.Backend.Put(k, Result(50+i)); err != nil {
				errs <- fmt.Errorf("worker %d put: %w", i, err)
				return
			}
			if _, ok := h.Backend.Get(k); !ok {
				errs <- fmt.Errorf("worker %d lost its own write", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := h.Backend.Len(); got != workers {
		t.Fatalf("Len after concurrent puts = %d, want %d", got, workers)
	}
}
