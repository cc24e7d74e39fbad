package router_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/fleet"
	"golatest/internal/hwprofile"
	"golatest/internal/store"
	"golatest/internal/storenet"
	"golatest/internal/storenet/faults"
	"golatest/internal/storenet/router"
)

func chaosConfig(p hwprofile.Profile) core.Config {
	return core.Config{
		Frequencies: []float64{705, 1065, 1410},
		Seed:        900 + uint64(p.Instance),
	}
}

func chaosProfiles(n int) []hwprofile.Profile {
	out := make([]hwprofile.Profile, n)
	for i := range out {
		out[i] = hwprofile.A100Instance(i)
	}
	return out
}

// TestChaosSweepSurvivesMemberKill is the acceptance contract of the
// replicated store tier: a lease-mode fleet sweep whose store is a
// three-daemon router (R=2) has one daemon killed mid-sweep and must
// (a) finish every shard — zero lost shards, no sweep error — because
// each blob's surviving replica set absorbs the outage, (b) leave
// byte-identical replicas wherever a blob landed, and (c) after the
// daemon returns, converge via Reconcile (breaker resets + one
// anti-entropy pass) to every digest present on its full preferred
// replica set, with nothing left pending.
func TestChaosSweepSurvivesMemberKill(t *testing.T) {
	const memberCount = 3
	backings := make([]*store.Store, memberCount)
	injs := make([]*faults.Injector, memberCount)
	members := make([]store.Backend, memberCount)
	dirByLoc := map[string]string{}
	for i := 0; i < memberCount; i++ {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		backings[i] = st
		injs[i] = faults.NewInjector(storenet.NewServer(st), faults.Plan{})
		srv := httptest.NewServer(injs[i])
		t.Cleanup(srv.Close)
		c, err := storenet.NewClient(srv.URL, storenet.ClientOptions{
			Retries:      2,
			RetryBackoff: time.Millisecond,
			// The breaker stays open for the rest of the sweep once it
			// trips; recovery is the explicit Reconcile below, which
			// resets it. No half-open probe can make the outage flaky.
			BreakerThreshold: 2,
			BreakerCooldown:  time.Hour,
			Seed:             uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = c
		dirByLoc[c.Location()] = dir
	}
	r, err := router.New(members, router.Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the member that the most digests prefer: by pigeonhole it is
	// preferred by at least ⌈2·6/3⌉ = 4 of the 6 digests, and at most 3
	// shards can have fully replicated before the kill fires inside the
	// 3rd compute — so at least one post-kill write is guaranteed to
	// leave a replica slot for anti-entropy to repair.
	profiles := chaosProfiles(6)
	digests := make([]string, len(profiles))
	preferredBy := map[string]int{}
	for i, p := range profiles {
		k, err := store.ProfileKey(p, chaosConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = k.Digest
		for _, loc := range r.Replicas(k.Digest) {
			preferredBy[loc]++
		}
	}
	victim := 0
	for i, m := range members {
		if preferredBy[m.Location()] > preferredBy[members[victim].Location()] {
			victim = i
		}
	}

	const killAt = 3
	var computes atomic.Int64
	// A sweep keeps at most GOMAXPROCS shards in flight: two over six
	// shards leave claims outstanding when the member dies.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rep, err := fleet.Sweep(profiles, fleet.Options{
		Store:  r,
		Config: chaosConfig,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			if computes.Add(1) == killAt {
				injs[victim].Kill()
			}
			return &core.Result{
				DeviceName:   fmt.Sprintf("%s[%d]", p.Key, p.Instance),
				Architecture: p.Config.Architecture,
			}, nil
		},
		LeaseTTL: time.Minute,
		Owner:    "chaos-host",
		WaitPoll: 2 * time.Millisecond,
		// The router absorbs one member's outage by failing over: the
		// sweep sees no error.
	})
	if err != nil {
		t.Fatalf("sweep failed instead of riding its replicas: %v", err)
	}

	// (a) Zero lost shards.
	for i, sh := range rep.Shards {
		if sh.Result == nil {
			t.Fatalf("shard %d lost in the outage (err=%v)", i, sh.Err)
		}
	}
	if got := int(computes.Load()); got != len(profiles) {
		t.Fatalf("computed %d shards, want %d (store was empty)", got, len(profiles))
	}
	// Every blob is durable somewhere despite the kill.
	if got := r.Len(); got != len(profiles) {
		t.Fatalf("router holds %d distinct blobs, want %d", got, len(profiles))
	}
	// The outage left a visible mark: operations routed around the dead
	// member or landed under-replicated.
	rs := r.ReplicationStats()
	if rs.Failovers+rs.UnderReplicatedPuts == 0 {
		t.Fatalf("stats %+v: the kill left no trace", rs)
	}

	// (c) Restore, reconcile, converge: the breaker resets ride the
	// member Reconciles, then one scrub pass repairs the replica debt.
	injs[victim].Restore()
	if _, err := r.Reconcile(); err != nil {
		t.Fatalf("reconcile after restore: %v", err)
	}
	rs = r.ReplicationStats()
	if rs.ScrubRuns < 1 {
		t.Fatalf("reconcile ran no scrub pass: %+v", rs)
	}
	if rs.ScrubRepairs < 1 {
		t.Fatalf("no anti-entropy repairs despite a mid-sweep kill of the busiest member: %+v", rs)
	}
	if rs.PendingRepairs != 0 {
		t.Fatalf("%d repairs still pending after reconcile", rs.PendingRepairs)
	}

	// Every digest is on every member of its preferred replica set, and
	// (b) all replicas of a digest are byte-identical.
	for _, digest := range digests {
		for _, loc := range r.Replicas(digest) {
			if _, err := os.Stat(filepath.Join(dirByLoc[loc], digest+".json")); err != nil {
				t.Fatalf("digest %s missing from preferred member %s after reconcile: %v", digest, loc, err)
			}
		}
		var want []byte
		for _, m := range members {
			data, err := os.ReadFile(filepath.Join(dirByLoc[m.Location()], digest+".json"))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = data
				continue
			}
			if !bytes.Equal(want, data) {
				t.Fatalf("replicas of %s diverge between members", digest)
			}
		}
		if want == nil {
			t.Fatalf("digest %s has no replica at all", digest)
		}
	}

	// A second scrub finds nothing to do — convergence is stable.
	if st, err := r.Scrub(); err != nil || st.UnderReplicated != 0 {
		t.Fatalf("post-convergence scrub = %+v (err=%v), want a clean pass", st, err)
	}
}
