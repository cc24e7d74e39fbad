package fleet

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/obs"
	"golatest/internal/store"
)

func testProfiles(n int) []hwprofile.Profile {
	out := make([]hwprofile.Profile, n)
	for i := range out {
		out[i] = hwprofile.A100Instance(i)
	}
	return out
}

func testConfig(p hwprofile.Profile) core.Config {
	return core.Config{
		Frequencies: []float64{705, 1065, 1410},
		Seed:        100 + uint64(p.Instance),
	}
}

// fakeRun produces a tiny synthetic result and counts invocations; fleet
// never inspects result internals, so campaigns need not be real here.
func fakeRun(calls *atomic.Int64) func(hwprofile.Profile, core.Config) (*core.Result, error) {
	return func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
		calls.Add(1)
		return &core.Result{
			DeviceName:   fmt.Sprintf("%s[%d]", p.Key, p.Instance),
			Architecture: p.Config.Architecture,
		}, nil
	}
}

func TestSweepComputesThenHits(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(3)
	var calls atomic.Int64
	opts := Options{Store: st, Config: testConfig, Run: fakeRun(&calls)}

	rep, err := Sweep(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || rep.Computed != 3 || rep.Hits != 0 {
		t.Fatalf("cold sweep: calls=%d computed=%d hits=%d", calls.Load(), rep.Computed, rep.Hits)
	}
	for i, sh := range rep.Shards {
		if sh.Result == nil || sh.FromCache {
			t.Fatalf("shard %d: %+v", i, sh)
		}
		if sh.Key.Digest == "" {
			t.Fatalf("shard %d has no content address", i)
		}
	}

	// Warm sweep: everything served from the store, zero recomputation.
	rep2, err := Sweep(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 || rep2.Computed != 0 || rep2.Hits != 3 {
		t.Fatalf("warm sweep: calls=%d computed=%d hits=%d", calls.Load(), rep2.Computed, rep2.Hits)
	}
	for i, sh := range rep2.Shards {
		if !sh.FromCache || sh.Result == nil {
			t.Fatalf("warm shard %d not from cache: %+v", i, sh)
		}
		if sh.Result.DeviceName != rep.Shards[i].Result.DeviceName {
			t.Fatalf("warm shard %d result diverged", i)
		}
	}
	if got := rep2.Results(); len(got) != 3 || got[2].DeviceName != "a100[2]" {
		t.Fatalf("Results() = %v", got)
	}
}

// failOn wraps run so that the shard of the given A100 unit fails.
func failOn(instance int, run func(hwprofile.Profile, core.Config) (*core.Result, error)) func(hwprofile.Profile, core.Config) (*core.Result, error) {
	return func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
		if p.Instance == instance {
			return nil, fmt.Errorf("device fell off the bus")
		}
		return run(p, cfg)
	}
}

// storedAfterAbort checks what a sweep that failed on shard failed left
// in the store, and returns which shards it holds. Which siblings
// complete before the abort depends on the worker count and on
// scheduling, but the failing shard is never stored, and every shard the
// report counts as computed is stored and reads back.
func storedAfterAbort(t *testing.T, st *store.Store, profiles []hwprofile.Profile, rep *Report, failed int) []bool {
	t.Helper()
	stored := make([]bool, len(profiles))
	computed := 0
	for i, p := range profiles {
		k := mustProfileKey(t, p)
		stored[i] = st.Has(k)
		if sh := rep.Shards[i]; sh.Result == nil || sh.FromCache {
			continue
		}
		computed++
		if !stored[i] {
			t.Fatalf("computed shard %d lost its store write after the abort", i)
		}
		if _, ok := st.Get(k); !ok {
			t.Fatalf("computed shard %d blob unreadable after the abort", i)
		}
	}
	if stored[failed] {
		t.Fatalf("failing shard %d was stored", failed)
	}
	if computed != rep.Computed {
		t.Fatalf("report counts %d computed shards, %d carry a computed result", rep.Computed, computed)
	}
	return stored
}

func TestSweepResumesAfterFailure(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(4)
	var calls atomic.Int64
	inner := fakeRun(&calls)

	// First sweep dies on unit 2.
	rep, err := Sweep(profiles, Options{Store: st, Config: testConfig, Run: failOn(2, inner)})
	if err == nil {
		t.Fatal("failing sweep reported success")
	}
	if rep.Shards[2].Err == nil || rep.Shards[2].Result != nil {
		t.Fatalf("failing shard: %+v", rep.Shards[2])
	}
	stored := storedAfterAbort(t, st, profiles, rep, 2)

	// The healed re-run computes exactly the shards the store lacks and
	// hits the rest.
	calls.Store(0)
	rep2, err := Sweep(profiles, Options{Store: st, Config: testConfig, Run: inner})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, sh := range rep2.Shards {
		if sh.FromCache != stored[i] || sh.Result == nil {
			t.Fatalf("resume shard %d: from cache %v, stored before %v", i, sh.FromCache, stored[i])
		}
		if stored[i] {
			hits++
		}
	}
	if missing := len(profiles) - hits; calls.Load() != int64(missing) || rep2.Hits != hits || rep2.Computed != missing {
		t.Fatalf("resume: calls=%d hits=%d computed=%d, want %d computed", calls.Load(), rep2.Hits, rep2.Computed, missing)
	}
}

// leaseCounter counts the leases held on its backend at once.
type leaseCounter struct {
	store.Backend
	held, peak atomic.Int64
}

func (c *leaseCounter) TryAcquire(digest, owner string, ttl time.Duration) (store.LeaseHandle, bool, error) {
	l, ok, err := c.Backend.TryAcquire(digest, owner, ttl)
	if !ok {
		return l, ok, err
	}
	n := c.held.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return &countedLease{LeaseHandle: l, c: c}, ok, err
}

type countedLease struct {
	store.LeaseHandle
	c    *leaseCounter
	once sync.Once
}

func (l *countedLease) Release() error {
	l.once.Do(func() { l.c.held.Add(-1) })
	return l.LeaseHandle.Release()
}

// TestSweepBoundsLeases: a lease-mode sweep holds at most GOMAXPROCS
// claims at once. A shard claims its lease before it computes, so
// without the bound one process would claim every shard of a sweep at
// once and leave its peers nothing to take.
func TestSweepBoundsLeases(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	leases := &leaseCounter{Backend: st}
	var calls atomic.Int64
	opts := Options{Store: leases, Config: testConfig, LeaseTTL: time.Minute,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			time.Sleep(20 * time.Millisecond) // hold the claim so the shards overlap
			calls.Add(1)
			return &core.Result{}, nil
		}}
	rep, err := Sweep(testProfiles(6), opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 6 || rep.Computed != 6 || rep.Claimed != 6 {
		t.Fatalf("calls=%d computed=%d claimed=%d", calls.Load(), rep.Computed, rep.Claimed)
	}
	if p := leases.peak.Load(); p > 2 {
		t.Fatalf("%d leases held at once, GOMAXPROCS is 2", p)
	}
}

func TestSweepWithoutStore(t *testing.T) {
	var calls atomic.Int64
	opts := Options{Run: fakeRun(&calls)}
	rep, err := Sweep(testProfiles(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || rep.Hits != 0 || rep.Computed != 2 {
		t.Fatalf("calls=%d rep=%+v", calls.Load(), rep)
	}
}

func TestSweepOptionValidation(t *testing.T) {
	if _, err := Sweep(testProfiles(1), Options{}); err == nil {
		t.Fatal("missing Run accepted")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(testProfiles(1), Options{Store: st, Run: fakeRun(new(atomic.Int64))}); err == nil {
		t.Fatal("store without Config accepted")
	}
	if _, err := Sweep(testProfiles(1), Options{Run: fakeRun(new(atomic.Int64)), LeaseTTL: time.Minute}); err == nil {
		t.Fatal("LeaseTTL without store accepted")
	}
	if _, err := Sweep(testProfiles(1), Options{Store: st, Config: testConfig,
		Run: fakeRun(new(atomic.Int64)), LeaseTTL: -time.Second}); err == nil {
		t.Fatal("negative LeaseTTL accepted")
	}
}

// TestSweepErrorCarriesShardIdentity: a failing shard's error must name
// the shard (profile/instance), and the failure must not roll back
// sibling shards already persisted — the resume contract depends on
// those writes surviving the abort.
func TestSweepErrorCarriesShardIdentity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(4)
	rep, err := Sweep(profiles, Options{Store: st, Config: testConfig, Run: failOn(2, fakeRun(new(atomic.Int64)))})
	if err == nil {
		t.Fatal("failing sweep reported success")
	}
	for _, want := range []string{"a100/2", "shard 2", "device fell off the bus"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name the failing shard (want %q)", err, want)
		}
	}

	// Sibling shards completed before the abort are durable in the store.
	storedAfterAbort(t, st, profiles, rep, 2)
}

// TestSweepLeasePartition is the cross-process acceptance shape: two
// sweeps racing over one store directory must compute each shard exactly
// once between them, and both must finish with identical full results.
func TestSweepLeasePartition(t *testing.T) {
	dir := t.TempDir()
	profiles := testProfiles(6)
	type proc struct {
		rep   *Report
		err   error
		calls atomic.Int64
	}
	procs := make([]*proc, 2)
	var wg sync.WaitGroup
	for i := range procs {
		p := &proc{}
		procs[i] = p
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		owner := fmt.Sprintf("proc-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.rep, p.err = Sweep(profiles, Options{
				Store:    st,
				Config:   testConfig,
				Run:      fakeRun(&p.calls),
				LeaseTTL: time.Minute,
				Owner:    owner,
				WaitPoll: 2 * time.Millisecond,
			})
		}()
	}
	wg.Wait()

	var computed, calls int64
	for i, p := range procs {
		if p.err != nil {
			t.Fatalf("proc %d: %v", i, p.err)
		}
		computed += int64(p.rep.Computed)
		calls += p.calls.Load()
		for j, sh := range p.rep.Shards {
			if sh.Result == nil {
				t.Fatalf("proc %d shard %d has no result", i, j)
			}
		}
	}
	if computed != int64(len(profiles)) || calls != int64(len(profiles)) {
		t.Fatalf("computed=%d calls=%d across both procs, want exactly %d each (shards duplicated or lost)",
			computed, calls, len(profiles))
	}
	// Both reports carry the identical result set, shard for shard.
	for j := range profiles {
		a := procs[0].rep.Shards[j].Result
		b := procs[1].rep.Shards[j].Result
		if a.DeviceName != b.DeviceName || a.Architecture != b.Architecture {
			t.Fatalf("shard %d diverged between procs: %+v vs %+v", j, a, b)
		}
	}
}

// TestSweepLeaseWaitsForPeer: a shard claimed by a live peer is not
// recomputed — the sweep waits and takes the peer's result from the
// store.
func TestSweepLeaseWaitsForPeer(t *testing.T) {
	dir := t.TempDir()
	stPeer, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stLocal, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(2)
	k0, err := store.ProfileKey(profiles[0], testConfig(profiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The "peer": holds shard 0's lease, delivers its result mid-sweep.
	lease, ok, err := stPeer.TryAcquire(k0.Digest, "peer", time.Minute)
	if err != nil || !ok {
		t.Fatalf("peer claim: ok=%v err=%v", ok, err)
	}
	peerDone := make(chan error, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		if err := stPeer.Put(k0, &core.Result{DeviceName: "a100[0]"}); err != nil {
			peerDone <- err
			return
		}
		peerDone <- lease.Release()
	}()

	var calls atomic.Int64
	rep, err := Sweep(profiles, Options{
		Store: stLocal, Config: testConfig, Run: fakeRun(&calls),
		LeaseTTL: time.Minute, Owner: "local", WaitPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerDone; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if calls.Load() != 1 || rep.Computed != 1 {
		t.Fatalf("local sweep computed %d shards (calls=%d), want only the unclaimed one",
			rep.Computed, calls.Load())
	}
	if rep.Waited != 1 {
		t.Fatalf("Waited = %d, want 1", rep.Waited)
	}
	if !rep.Shards[0].FromCache || rep.Shards[0].Result.DeviceName != "a100[0]" {
		t.Fatalf("shard 0 not served from the peer's write: %+v", rep.Shards[0])
	}
}

// TestSweepLeaseStealsExpired: a dead peer's expired lease must not
// block the shard forever — the sweep steals it and computes.
func TestSweepLeaseStealsExpired(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(2)
	k0, err := store.ProfileKey(profiles[0], testConfig(profiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	// A lease whose holder died: tiny TTL, never renewed, never released.
	if _, ok, err := st.TryAcquire(k0.Digest, "dead-peer", time.Millisecond); err != nil || !ok {
		t.Fatalf("dead peer claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(10 * time.Millisecond)

	var calls atomic.Int64
	rep, err := Sweep(profiles, Options{
		Store: st, Config: testConfig, Run: fakeRun(&calls),
		LeaseTTL: time.Minute, Owner: "survivor", WaitPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 2 || calls.Load() != 2 {
		t.Fatalf("computed=%d calls=%d, want both shards computed", rep.Computed, calls.Load())
	}
	if rep.Stolen != 1 {
		t.Fatalf("Stolen = %d, want 1", rep.Stolen)
	}
}

// peerFinishesStore stands in for a peer that stores a shard's result
// between this sweep's miss and its claim: TryAcquire first Puts the
// result, then grants the lease.
type peerFinishesStore struct {
	store.Backend
	key store.Key
}

func (s *peerFinishesStore) TryAcquire(digest, owner string, ttl time.Duration) (store.LeaseHandle, bool, error) {
	if err := s.Backend.Put(s.key, &core.Result{DeviceName: "a100[0]"}); err != nil {
		return nil, false, err
	}
	return s.Backend.TryAcquire(digest, owner, ttl)
}

// TestSweepClaimAfterPeerFinishIsHit: a claim that finds the shard
// already stored leads to no compute, so it is released and counted as
// a hit only — Claimed counts the shards computed under a claim.
func TestSweepClaimAfterPeerFinishIsHit(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(1)
	k := mustProfileKey(t, profiles[0])
	var calls atomic.Int64
	rep, err := Sweep(profiles, Options{
		Store: &peerFinishesStore{Backend: st, key: k}, Config: testConfig,
		Run: fakeRun(&calls), LeaseTTL: time.Minute, Owner: "late",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Claimed != 0 || rep.Hits != 1 || rep.Computed != 0 || calls.Load() != 0 {
		t.Fatalf("claim after peer finish: claimed=%d hits=%d computed=%d calls=%d, want 0/1/0/0",
			rep.Claimed, rep.Hits, rep.Computed, calls.Load())
	}
	if !rep.Shards[0].FromCache || rep.Shards[0].Result.DeviceName != "a100[0]" {
		t.Fatalf("shard not served from the peer's write: %+v", rep.Shards[0])
	}
	if owner, held := st.LeaseHolder(k.Digest); held {
		t.Fatalf("lease still held by %q after the hit", owner)
	}
}

// TestSweepLeaseWarmIsAllHits: lease mode changes who computes, never
// what a warm sweep looks like.
func TestSweepLeaseWarmIsAllHits(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(3)
	var calls atomic.Int64
	opts := Options{Store: st, Config: testConfig, Run: fakeRun(&calls),
		LeaseTTL: time.Minute, Owner: "solo", WaitPoll: 2 * time.Millisecond}
	if _, err := Sweep(profiles, opts); err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits != 3 || rep.Computed != 0 || rep.Claimed != 0 || calls.Load() != 3 {
		t.Fatalf("warm lease sweep: %+v calls=%d", rep, calls.Load())
	}
	// No lease debris left behind.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".lease") {
			t.Fatalf("lease file %s left behind after clean sweeps", e.Name())
		}
	}
}

func mustProfileKey(t *testing.T, p hwprofile.Profile) store.Key {
	t.Helper()
	k, err := store.ProfileKey(p, testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// claimWatch closes held the first time a claim finds its lease held by
// a live peer.
type claimWatch struct {
	store.Backend
	once sync.Once
	held chan struct{}
}

func (c *claimWatch) TryAcquire(digest, owner string, ttl time.Duration) (store.LeaseHandle, bool, error) {
	lease, ok, err := c.Backend.TryAcquire(digest, owner, ttl)
	if err == nil && !ok {
		c.once.Do(func() { close(c.held) })
	}
	return lease, ok, err
}

// TestSweepSkipsLiveClaims: a sweep that starts while a live peer
// holds shard 0's claim computes the free shards first and comes back to
// shard 0 after them, by when the peer's result has landed — no wait, no
// steal, and still one span and one store miss per shard. Cooperating
// processes split a sweep this way without being told how.
func TestSweepSkipsLiveClaims(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	profiles := testProfiles(3)
	k0 := mustProfileKey(t, profiles[0])
	lease, ok, err := st.TryAcquire(k0.Digest, "peer", time.Minute)
	if err != nil || !ok {
		t.Fatalf("peer claim: ok=%v err=%v", ok, err)
	}
	// The peer delivers shard 0 once the sweep has found its claim held,
	// and every compute of the sweep's own returns only after that.
	watch := &claimWatch{Backend: st, held: make(chan struct{})}
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		select {
		case <-watch.held:
		case <-time.After(time.Second):
		}
		if err := st.Put(k0, &core.Result{DeviceName: "a100[0]"}); err != nil {
			t.Error(err)
		}
		_ = lease.Release()
	}()
	var calls atomic.Int64
	inner := fakeRun(&calls)
	tr := obs.New(obs.Options{Seed: 7})
	rep, err := Sweep(profiles, Options{
		Store:  watch,
		Config: testConfig,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			<-peerDone
			return inner(p, cfg)
		},
		LeaseTTL: time.Minute,
		Owner:    "sweeper",
		WaitPoll: time.Millisecond,
		Tracer:   tr,
	})
	<-peerDone
	if err != nil {
		t.Fatal(err)
	}
	if rep.Waited != 0 || rep.Stolen != 0 || rep.Hits != 1 || rep.Computed != 2 {
		t.Fatalf("waited=%d stolen=%d hits=%d computed=%d, want 0/0/1/2",
			rep.Waited, rep.Stolen, rep.Hits, rep.Computed)
	}
	if !rep.Shards[0].FromCache || rep.Shards[0].Result.DeviceName != "a100[0]" {
		t.Fatalf("shard 0 not served from the peer's write: %+v", rep.Shards[0])
	}
	if m := st.Counters().Misses; m != 3 {
		t.Fatalf("store misses = %d, want 3 (one per shard)", m)
	}
	lanes := map[int]int{}
	for _, sp := range tr.Snapshot() {
		if sp.Name == "fleet.shard" {
			lanes[sp.TID]++
		}
	}
	if len(lanes) != 3 || lanes[1] != 1 || lanes[2] != 1 || lanes[3] != 1 {
		t.Fatalf("fleet.shard spans per lane = %v, want one in each of lanes 1-3", lanes)
	}
}
