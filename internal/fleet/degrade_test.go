package fleet

import (
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/store"
	"golatest/internal/storenet/faults"
)

// degradable reports a local fallback tier over any backend, as a
// tiered storenet.Client does, so a sweep over it degrades.
type degradable struct{ store.Backend }

func (degradable) CanDegrade() bool                  { return true }
func (degradable) Resilience() store.ResilienceStats { return store.ResilienceStats{} }
func (degradable) Reconcile() (int, error)           { return 0, nil }

// TestSweepDegradePolicySurvivesStoreFailures: over a store that can
// degrade, a total outage of writes and claims (scripted through the
// fault wrapper) no longer aborts the sweep — every shard still
// computes and lands in the report, with the fallbacks counted.
func TestSweepDegradePolicySurvivesStoreFailures(t *testing.T) {
	inner, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := faults.WrapBackend(degradable{inner}, faults.Plan{})
	b.Kill()

	profiles := testProfiles(4)
	var calls atomic.Int64
	rep, err := Sweep(profiles, Options{
		Store:    b,
		Config:   testConfig,
		Run:      fakeRun(&calls),
		LeaseTTL: time.Minute,
		WaitPoll: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("degrade-policy sweep failed: %v", err)
	}
	if calls.Load() != 4 || rep.Computed != 4 {
		t.Fatalf("calls=%d computed=%d, want 4 each", calls.Load(), rep.Computed)
	}
	for i, sh := range rep.Shards {
		if sh.Result == nil {
			t.Fatalf("shard %d lost to the store outage", i)
		}
	}
	// Each shard fell back twice: once around the failed claim, once
	// around the failed Put.
	if rep.Degraded != 8 {
		t.Fatalf("Degraded = %d, want 8 (claim + persist per shard)", rep.Degraded)
	}
	if inner.Len() != 0 {
		t.Fatalf("store holds %d blobs despite the outage", inner.Len())
	}
}

// TestSweepAutoPolicyAbortsOnPlainStore: a sweep must abort over a
// backend with no local fallback tier — silently losing persistence
// on a plain store directory would defeat the resumability contract.
func TestSweepAutoPolicyAbortsOnPlainStore(t *testing.T) {
	inner, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := faults.WrapBackend(inner, faults.Plan{})
	b.Kill()

	var calls atomic.Int64
	_, err = Sweep(testProfiles(2), Options{
		Store:    b,
		Config:   testConfig,
		Run:      fakeRun(&calls),
		LeaseTTL: time.Minute,
		WaitPoll: time.Millisecond,
		// The wrapper forwards the inner store's (absent) resilience, so
		// this must abort.
	})
	if err == nil {
		t.Fatal("auto policy degraded over a store with no fallback tier")
	}
}

// TestSweepDegradeAbsorbsPartialFailures: a flaky (not dead) store that
// can degrade costs fallbacks, never shards. Seeded rates make the fault
// schedule — and therefore the assertion — reproducible.
func TestSweepDegradeAbsorbsPartialFailures(t *testing.T) {
	inner, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := faults.WrapBackend(degradable{inner}, faults.Plan{Seed: 11, FailRate: 0.4})

	profiles := testProfiles(6)
	var calls atomic.Int64
	rep, err := Sweep(profiles, Options{
		Store:    b,
		Config:   testConfig,
		Run:      fakeRun(&calls),
		LeaseTTL: time.Minute,
		WaitPoll: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("sweep over flaky store: %v", err)
	}
	for i, sh := range rep.Shards {
		if sh.Result == nil {
			t.Fatalf("shard %d lost to a transient fault", i)
		}
	}
	if inj := b.Injected(); inj.Failed == 0 {
		t.Fatal("FailRate 0.4 injected nothing; the test exercised only the happy path")
	}
}

// TestResolvePolicy: a sweep degrades exactly when its store has a local
// fallback tier.
func TestResolvePolicy(t *testing.T) {
	plain, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if canDegrade(plain) {
		t.Fatal("a plain store resolved to degrade")
	}
	if !canDegrade(degradable{plain}) {
		t.Fatal("a store with a fallback tier resolved to abort")
	}
	if canDegrade(nil) {
		t.Fatal("no store resolved to degrade")
	}
}
