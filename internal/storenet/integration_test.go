package storenet

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/fleet"
	"golatest/internal/hwprofile"
	"golatest/internal/store"
)

func hostConfig(p hwprofile.Profile) core.Config {
	return core.Config{
		Frequencies: []float64{705, 1065, 1410},
		Seed:        500 + uint64(p.Instance),
	}
}

func hostProfiles(n int) []hwprofile.Profile {
	out := make([]hwprofile.Profile, n)
	for i := range out {
		out[i] = hwprofile.A100Instance(i)
	}
	return out
}

// TestCrossHostSweepPartition is the acceptance contract of the network
// store: two "hosts" — clients with separate local cache directories,
// sharing nothing but a running stored daemon — sweep one campaign set
// concurrently and (a) compute each shard exactly once between them,
// (b) both finish with the complete result set, and (c) end with
// byte-identical artefacts in both local tiers and the daemon.
func TestCrossHostSweepPartition(t *testing.T) {
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(backing))
	defer srv.Close()

	profiles := hostProfiles(6)
	type host struct {
		cacheDir string
		rep      *fleet.Report
		err      error
		calls    atomic.Int64
	}
	hosts := [2]*host{{cacheDir: t.TempDir()}, {cacheDir: t.TempDir()}}
	var wg sync.WaitGroup
	for i, h := range hosts {
		cache, err := store.Open(h.cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		client, err := NewClient(srv.URL, ClientOptions{Cache: cache, RetryBackoff: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		owner := fmt.Sprintf("host-%d", i)
		wg.Add(1)
		go func(h *host) {
			defer wg.Done()
			h.rep, h.err = fleet.Sweep(profiles, fleet.Options{
				Store:  client,
				Config: hostConfig,
				Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
					h.calls.Add(1)
					return &core.Result{
						DeviceName:   fmt.Sprintf("%s[%d]", p.Key, p.Instance),
						Architecture: p.Config.Architecture,
					}, nil
				},
				LeaseTTL: time.Minute,
				Owner:    owner,
				WaitPoll: 2 * time.Millisecond,
			})
		}(h)
	}
	wg.Wait()

	var computed, calls int64
	for i, h := range hosts {
		if h.err != nil {
			t.Fatalf("host %d: %v", i, h.err)
		}
		computed += int64(h.rep.Computed)
		calls += h.calls.Load()
		for j, sh := range h.rep.Shards {
			if sh.Result == nil {
				t.Fatalf("host %d shard %d has no result", i, j)
			}
		}
	}
	if computed != int64(len(profiles)) || calls != int64(len(profiles)) {
		t.Fatalf("computed=%d calls=%d across both hosts, want exactly %d each (shards duplicated or lost)",
			computed, calls, len(profiles))
	}
	if backing.Len() != len(profiles) {
		t.Fatalf("daemon indexes %d blobs, want %d", backing.Len(), len(profiles))
	}

	// Byte-identical artefacts: every shard's blob is present in the
	// daemon and in both healed local tiers, with identical bytes.
	for _, p := range profiles {
		k, err := store.ProfileKey(p, hostConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(backing.Dir(), k.Digest+".json"))
		if err != nil {
			t.Fatalf("daemon blob %s: %v", k, err)
		}
		for i, h := range hosts {
			got, err := os.ReadFile(filepath.Join(h.cacheDir, k.Digest+".json"))
			if err != nil {
				t.Fatalf("host %d local tier missing %s: %v", i, k, err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("host %d blob %s differs from the daemon's bytes", i, k)
			}
		}
	}
}

// TestCrossHostLeaseStealAfterCrash: a client that claims a shard and
// dies (never renews, never releases) must not block the fleet — a
// second host steals the expired claim through the daemon and computes.
func TestCrossHostLeaseStealAfterCrash(t *testing.T) {
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(backing))
	defer srv.Close()

	profiles := hostProfiles(2)
	k0, err := store.ProfileKey(profiles[0], hostConfig(profiles[0]))
	if err != nil {
		t.Fatal(err)
	}

	// The crashing host: claims shard 0 with a tiny TTL and vanishes.
	crashed, err := NewClient(srv.URL, ClientOptions{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := crashed.TryAcquire(k0.Digest, "crashed-host", 5*time.Millisecond); err != nil || !ok {
		t.Fatalf("crashed host claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)

	// The survivor sweeps everything, stealing the dead claim.
	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := NewClient(srv.URL, ClientOptions{Cache: cache, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	rep, err := fleet.Sweep(profiles, fleet.Options{
		Store:  survivor,
		Config: hostConfig,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			calls.Add(1)
			return &core.Result{DeviceName: fmt.Sprintf("%s[%d]", p.Key, p.Instance)}, nil
		},
		LeaseTTL: time.Minute,
		Owner:    "survivor",
		WaitPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 2 || calls.Load() != 2 {
		t.Fatalf("computed=%d calls=%d, want both shards computed", rep.Computed, calls.Load())
	}
	if rep.Stolen != 1 {
		t.Fatalf("Stolen = %d, want 1 (the crashed host's claim)", rep.Stolen)
	}
}

// TestCrossHostPlanSeesRemoteState: fleet.Plan through a network
// backend reports both cached shards and live remote claim holders —
// the scheduler's cross-host routing input.
func TestCrossHostPlanSeesRemoteState(t *testing.T) {
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(backing))
	defer srv.Close()

	profiles := hostProfiles(3)
	k0, err := store.ProfileKey(profiles[0], hostConfig(profiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	k1, err := store.ProfileKey(profiles[1], hostConfig(profiles[1]))
	if err != nil {
		t.Fatal(err)
	}
	if err := backing.Put(k1, &core.Result{DeviceName: "cached"}); err != nil {
		t.Fatal(err)
	}
	peer, err := NewClient(srv.URL, ClientOptions{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lease, ok, err := peer.TryAcquire(k0.Digest, "peer-host", time.Minute)
	if err != nil || !ok {
		t.Fatalf("peer claim: ok=%v err=%v", ok, err)
	}
	defer lease.Release()

	planner, err := NewClient(srv.URL, ClientOptions{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fleet.Plan(profiles, fleet.Options{Store: planner, Config: hostConfig,
		Run: func(hwprofile.Profile, core.Config) (*core.Result, error) { return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if plan[0].LeaseHolder != "peer-host" || plan[0].Cached {
		t.Fatalf("plan[0] = %+v, want remote holder peer-host, uncached", plan[0])
	}
	if !plan[1].Cached || plan[1].LeaseHolder != "" {
		t.Fatalf("plan[1] = %+v, want cached, unclaimed", plan[1])
	}
	if plan[2].Cached || plan[2].LeaseHolder != "" {
		t.Fatalf("plan[2] = %+v, want free", plan[2])
	}
}
