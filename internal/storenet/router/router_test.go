package router

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/store"
	"golatest/internal/store/conformancetest"
	"golatest/internal/storenet/faults"
)

// sick wraps a member with a switchable health signal, hiding the inner
// backend's validated-bytes capabilities so the fallback Get/Put paths
// get exercised too.
type sick struct {
	store.Backend
	down atomic.Bool
}

func (s *sick) Healthy() bool { return !s.down.Load() }

// openMembers builds n local directory stores and returns them with
// their dirs, plus a location → index map.
func openMembers(t *testing.T, n int) (members []store.Backend, dirs []string, at map[string]int) {
	t.Helper()
	at = map[string]int{}
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, st)
		dirs = append(dirs, dir)
		at[st.Location()] = i
	}
	return members, dirs, at
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("New with no members succeeded")
	}
	members, _, _ := openMembers(t, 1)
	if _, err := New([]store.Backend{members[0], members[0]}, Options{}); err == nil {
		t.Fatal("New with duplicate member locations succeeded")
	}
	r, err := New(members, Options{Replication: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Replication(); got != 1 {
		t.Fatalf("Replication clamped to %d, want member count 1", got)
	}
	members3, _, _ := openMembers(t, 3)
	r3, err := New(members3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r3.Replication(); got != 2 {
		t.Fatalf("default Replication = %d, want 2", got)
	}
}

// TestGetReadRepairsAbsentPreferred: a hit found past a preferred
// member that answered "absent" heals that member in the same Get.
func TestGetReadRepairsAbsentPreferred(t *testing.T) {
	members, dirs, at := openMembers(t, 3)
	r, err := New(members, Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	k, want := conformancetest.Key(t, 1), conformancetest.Result(1)
	if err := r.Put(k, want); err != nil {
		t.Fatal(err)
	}
	primary := at[r.Replicas(k.Digest)[0]]
	blob := filepath.Join(dirs[primary], k.Digest+".json")
	if err := os.Remove(blob); err != nil {
		t.Fatalf("simulating a lost replica: %v", err)
	}

	if _, ok := r.Get(k); !ok {
		t.Fatal("Get missed despite a surviving replica")
	}
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("primary replica not read-repaired: %v", err)
	}
	rs := r.ReplicationStats()
	if rs.ReadRepairs != 1 {
		t.Fatalf("ReadRepairs = %d, want 1", rs.ReadRepairs)
	}
	if rs.PendingRepairs != 0 {
		t.Fatalf("PendingRepairs = %d after a successful repair, want 0", rs.PendingRepairs)
	}
	// The repaired replica serves directly: no second repair happens.
	if _, ok := r.Get(k); !ok {
		t.Fatal("Get missed after repair")
	}
	if rs := r.ReplicationStats(); rs.ReadRepairs != 1 {
		t.Fatalf("ReadRepairs = %d after a clean hit, want still 1", rs.ReadRepairs)
	}
}

// TestGetFailsOverPastUnhealthyMember: an unhealthy preferred member is
// skipped (counted as a failover), and the read lands on a replica.
func TestGetFailsOverPastUnhealthyMember(t *testing.T) {
	inner, _, _ := openMembers(t, 3)
	wrapped := make([]store.Backend, len(inner))
	sicks := make([]*sick, len(inner))
	at := map[string]int{}
	for i, b := range inner {
		sicks[i] = &sick{Backend: b}
		wrapped[i] = sicks[i]
		at[b.Location()] = i
	}
	r, err := New(wrapped, Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	k, want := conformancetest.Key(t, 2), conformancetest.Result(2)
	if err := r.Put(k, want); err != nil {
		t.Fatal(err)
	}
	sicks[at[r.Replicas(k.Digest)[0]]].down.Store(true)

	if _, ok := r.Get(k); !ok {
		t.Fatal("Get missed with the primary down and a replica alive")
	}
	rs := r.ReplicationStats()
	if rs.Failovers < 1 {
		t.Fatalf("Failovers = %d, want ≥ 1", rs.Failovers)
	}
	if rs.Healthy != 2 || rs.Members != 3 {
		t.Fatalf("health census = %d/%d, want 2/3", rs.Healthy, rs.Members)
	}
}

// TestPutUnderReplicatedThenScrubHeals: a Put that lands on fewer than
// R replicas succeeds but records debt; the next scrub pass pays it.
func TestPutUnderReplicatedThenScrubHeals(t *testing.T) {
	inner, dirs, at := openMembers(t, 3)
	wrapped := make([]store.Backend, len(inner))
	chaos := make([]*faults.Backend, len(inner))
	for i, b := range inner {
		chaos[i] = faults.WrapBackend(b, faults.Plan{})
		wrapped[i] = chaos[i]
	}
	r, err := New(wrapped, Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	k, want := conformancetest.Key(t, 3), conformancetest.Result(3)
	replicas := r.Replicas(k.Digest)
	secondary := at[replicas[1]]
	chaos[secondary].Kill()

	if err := r.Put(k, want); err != nil {
		t.Fatalf("Put with one dead replica must still succeed: %v", err)
	}
	rs := r.ReplicationStats()
	if rs.UnderReplicatedPuts != 1 || rs.PendingRepairs != 1 {
		t.Fatalf("after a degraded Put: %+v, want 1 under-replicated and 1 pending", rs)
	}

	// A scrub against the still-dead member fails the slot and keeps it
	// pending — nothing is silently dropped.
	if st, _ := r.Scrub(); st.Failed != 1 || st.Repaired != 0 {
		t.Fatalf("scrub against a dead member: %+v, want 1 failed", st)
	}
	if rs := r.ReplicationStats(); rs.PendingRepairs != 1 {
		t.Fatalf("PendingRepairs = %d while the member is down, want 1", rs.PendingRepairs)
	}

	chaos[secondary].Restore()
	st, err := r.Scrub()
	if err != nil {
		t.Fatalf("scrub after restore: %v", err)
	}
	if st.Scanned != 1 || st.UnderReplicated != 1 || st.Repaired != 1 || st.Failed != 0 {
		t.Fatalf("healing scrub = %+v, want scanned=1 under=1 repaired=1", st)
	}
	if _, err := os.Stat(filepath.Join(dirs[secondary], k.Digest+".json")); err != nil {
		t.Fatalf("scrub did not materialise the missing replica: %v", err)
	}
	// Idempotence: a second pass finds a fully replicated store.
	if st, err := r.Scrub(); err != nil || st.UnderReplicated != 0 || st.Repaired != 0 {
		t.Fatalf("second scrub = %+v (err=%v), want a clean pass", st, err)
	}
	if rs := r.ReplicationStats(); rs.PendingRepairs != 0 || rs.ScrubRepairs != 1 || rs.ScrubRuns != 3 {
		t.Fatalf("post-heal stats = %+v, want pending=0 scrubRepairs=1 scrubRuns=3", rs)
	}
}

// TestPutCountsSkippedReplicaPending: a preferred member that Put skips
// as unhealthy is owed its replica just as one whose write failed, so
// the pending-repairs gauge after the Put equals what a scrub pass then
// counts. With every preferred member down, each slot counts once,
// though the Put first skips it and then fails to write it.
func TestPutCountsSkippedReplicaPending(t *testing.T) {
	inner, _, at := openMembers(t, 3)
	wrapped := make([]store.Backend, len(inner))
	chaos := make([]*faults.Backend, len(inner))
	sicks := make([]*sick, len(inner))
	for i, b := range inner {
		chaos[i] = faults.WrapBackend(b, faults.Plan{})
		sicks[i] = &sick{Backend: chaos[i]}
		wrapped[i] = sicks[i]
	}
	r, err := New(wrapped, Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := conformancetest.Key(t, 4)
	sicks[at[r.Replicas(k.Digest)[1]]].down.Store(true)
	if err := r.Put(k, conformancetest.Result(4)); err != nil {
		t.Fatalf("Put with one preferred member down: %v", err)
	}
	if rs := r.ReplicationStats(); rs.PendingRepairs != 1 {
		t.Fatalf("PendingRepairs = %d after skipping a preferred member, want 1", rs.PendingRepairs)
	}
	if st, _ := r.Scrub(); st.Failed != 1 {
		t.Fatalf("scrub with the member still down: %+v, want 1 failed slot", st)
	}
	if rs := r.ReplicationStats(); rs.PendingRepairs != 1 {
		t.Fatalf("PendingRepairs = %d as the scrub counts it, want 1", rs.PendingRepairs)
	}

	for i := range inner {
		sicks[i].down.Store(true)
		chaos[i].Kill()
	}
	if err := r.Put(conformancetest.Key(t, 5), conformancetest.Result(5)); err == nil {
		t.Fatal("Put with every member down succeeded")
	}
	if rs := r.ReplicationStats(); rs.PendingRepairs != 3 {
		t.Fatalf("PendingRepairs = %d after a Put no member accepted, want 1 + 2", rs.PendingRepairs)
	}
}

// TestLeaseRoutesToPrimaryAndFailsOver pins the arbitration story: a
// claim lands on the digest's primary; with the primary down it lands
// on the ring successor, stays exclusive, and LeaseHolder finds it.
func TestLeaseRoutesToPrimaryAndFailsOver(t *testing.T) {
	inner, _, _ := openMembers(t, 3)
	wrapped := make([]store.Backend, len(inner))
	sicks := make([]*sick, len(inner))
	at := map[string]int{}
	for i, b := range inner {
		sicks[i] = &sick{Backend: b}
		wrapped[i] = sicks[i]
		at[b.Location()] = i
	}
	r, err := New(wrapped, Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := conformancetest.Key(t, 5).Digest
	order := r.ring.order(d)

	h, ok, err := r.TryAcquire(d, "owner-a", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if owner, held := inner[order[0]].LeaseHolder(d); !held || owner != "owner-a" {
		t.Fatalf("lease not on the primary: (%q, %v)", owner, held)
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}

	sicks[order[0]].down.Store(true)
	h2, ok, err := r.TryAcquire(d, "owner-b", time.Minute)
	if err != nil || !ok {
		t.Fatalf("failover acquire: ok=%v err=%v", ok, err)
	}
	if owner, held := inner[order[1]].LeaseHolder(d); !held || owner != "owner-b" {
		t.Fatalf("failover lease not on the successor: (%q, %v)", owner, held)
	}
	// Exclusivity holds across the failover: the successor is the
	// arbiter now, and it says busy.
	if _, ok, err := r.TryAcquire(d, "owner-c", time.Minute); err != nil || ok {
		t.Fatalf("claim on a failed-over lease: ok=%v err=%v, want busy", ok, err)
	}
	if owner, held := r.LeaseHolder(d); !held || owner != "owner-b" {
		t.Fatalf("router LeaseHolder = (%q, %v), want (owner-b, true)", owner, held)
	}
	if rs := r.ReplicationStats(); rs.Failovers < 1 {
		t.Fatalf("Failovers = %d, want ≥ 1", rs.Failovers)
	}
	if err := h2.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestTryAcquireSurfacesTotalArbiterLoss: with every member failing,
// claims error out — the fleet's policy layer decides what comes next,
// not a silently unleased sweep.
func TestTryAcquireSurfacesTotalArbiterLoss(t *testing.T) {
	inner, _, _ := openMembers(t, 2)
	wrapped := make([]store.Backend, len(inner))
	for i, b := range inner {
		f := faults.WrapBackend(b, faults.Plan{})
		f.Kill()
		wrapped[i] = f
	}
	r, err := New(wrapped, Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.TryAcquire("deadbeef", "owner", time.Minute); err == nil || ok {
		t.Fatalf("acquire with no live arbiter: ok=%v err=%v, want error", ok, err)
	}
}

// TestLocalTierReadThrough: the optional local tier serves warm reads
// and is healed from remote hits with the validated bytes verbatim.
func TestLocalTierReadThrough(t *testing.T) {
	members, _, _ := openMembers(t, 2)
	localDir := t.TempDir()
	local, err := store.Open(localDir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(members, Options{Replication: 2, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	k, want := conformancetest.Key(t, 6), conformancetest.Result(6)
	if err := r.Put(k, want); err != nil {
		t.Fatal(err)
	}
	if !local.Has(k) {
		t.Fatal("Put did not write through to the local tier")
	}
	blob := filepath.Join(localDir, k.Digest+".json")
	if err := os.Remove(blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(k); !ok {
		t.Fatal("Get missed with members holding the blob")
	}
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("remote hit did not heal the local tier: %v", err)
	}
	if !r.CanDegrade() {
		t.Fatal("a replicated router must advertise CanDegrade")
	}
}
