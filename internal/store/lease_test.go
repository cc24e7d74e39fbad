package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLeaseExclusive(t *testing.T) {
	s := openStore(t)
	const digest = "d1"
	l, ok, err := s.TryAcquire(digest, "alpha", time.Minute)
	if err != nil || !ok {
		t.Fatalf("first claim: ok=%v err=%v", ok, err)
	}
	if l.Stolen() {
		t.Fatal("uncontended claim reported stolen")
	}
	if _, ok, err := s.TryAcquire(digest, "beta", time.Minute); err != nil || ok {
		t.Fatalf("second owner claimed a held lease: ok=%v err=%v", ok, err)
	}
	if owner, held := s.LeaseHolder(digest); !held || owner != "alpha" {
		t.Fatalf("holder = %q/%v, want alpha/true", owner, held)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := s.LeaseHolder(digest); held {
		t.Fatal("lease held after release")
	}
	if _, ok, err := s.TryAcquire(digest, "beta", time.Minute); err != nil || !ok {
		t.Fatalf("claim after release: ok=%v err=%v", ok, err)
	}
}

// TestLeaseSameOwnerIsBusy: claims are strictly exclusive — a live
// lease is busy even for its own owner id, so two processes configured
// with the same owner string still partition work instead of silently
// both "winning" every shard (and Release-ing each other's leases).
func TestLeaseSameOwnerIsBusy(t *testing.T) {
	s := openStore(t)
	if _, ok, err := s.TryAcquire("d1", "alpha", time.Minute); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.TryAcquire("d1", "alpha", time.Minute); err != nil || ok {
		t.Fatalf("same-owner claim of a live lease: ok=%v err=%v, want busy", ok, err)
	}
	// A restarted same-owner process re-claims through the ordinary
	// expiry-steal path.
	if _, ok, err := s.TryAcquire("d2", "beta", 5*time.Millisecond); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	l, ok, err := s.TryAcquire("d2", "beta", time.Minute)
	if err != nil || !ok || !l.Stolen() {
		t.Fatalf("restarted owner could not reclaim its expired lease: ok=%v err=%v", ok, err)
	}
}

func TestLeaseStealExpired(t *testing.T) {
	s := openStore(t)
	if _, ok, err := s.TryAcquire("d1", "dead", 5*time.Millisecond); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	l, ok, err := s.TryAcquire("d1", "alive", time.Minute)
	if err != nil || !ok {
		t.Fatalf("steal of expired lease failed: ok=%v err=%v", ok, err)
	}
	if !l.Stolen() {
		t.Fatal("takeover of an expired lease not reported as stolen")
	}
	if owner, held := s.LeaseHolder("d1"); !held || owner != "alive" {
		t.Fatalf("holder after steal = %q/%v", owner, held)
	}
}

func TestLeaseStealGarbage(t *testing.T) {
	s := openStore(t)
	path := filepath.Join(s.Dir(), "d1"+leaseSuffix)
	if err := os.WriteFile(path, []byte("not a lease"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, ok, err := s.TryAcquire("d1", "alpha", time.Minute)
	if err != nil || !ok || !l.Stolen() {
		t.Fatalf("garbage lease not stolen: ok=%v stolen=%v err=%v", ok, l != nil && l.Stolen(), err)
	}
}

func TestLeaseRenewExtends(t *testing.T) {
	s := openStore(t)
	l, ok, err := s.TryAcquire("d1", "alpha", 40*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(25 * time.Millisecond)
	if err := l.Renew(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond) // past the original expiry, inside the renewed one
	if _, ok, _ := s.TryAcquire("d1", "beta", time.Minute); ok {
		t.Fatal("renewed lease was claimable")
	}
	time.Sleep(30 * time.Millisecond) // past the renewed expiry
	if _, ok, _ := s.TryAcquire("d1", "beta", time.Minute); !ok {
		t.Fatal("expired renewed lease was not claimable")
	}
}

func TestLeaseReleaseLeavesStealer(t *testing.T) {
	s := openStore(t)
	l, ok, err := s.TryAcquire("d1", "slow", 5*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok, err := s.TryAcquire("d1", "stealer", time.Minute); err != nil || !ok {
		t.Fatalf("steal: ok=%v err=%v", ok, err)
	}
	// The displaced holder's release must not clobber the stealer.
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if owner, held := s.LeaseHolder("d1"); !held || owner != "stealer" {
		t.Fatalf("stealer's lease gone after displaced release: %q/%v", owner, held)
	}
}

// TestLeaseTokenGuardsRenewAndRelease: ownership is verified by the
// per-acquisition token, not the owner label — a displaced holder whose
// lease was stolen by a process using the *same* owner string must
// neither renew over nor release the stealer's live claim.
func TestLeaseTokenGuardsRenewAndRelease(t *testing.T) {
	s := openStore(t)
	displaced, ok, err := s.TryAcquire("d1", "shared-label", 5*time.Millisecond)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	stealer, ok, err := s.TryAcquire("d1", "shared-label", time.Minute)
	if err != nil || !ok || !stealer.Stolen() {
		t.Fatalf("steal: ok=%v err=%v", ok, err)
	}

	if err := displaced.Renew(time.Minute); err == nil {
		t.Fatal("displaced holder renewed over the stealer's live lease")
	}
	if err := displaced.Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := s.LeaseHolder("d1"); !held {
		t.Fatal("displaced holder's release removed the stealer's live lease")
	}
	// The true holder's renew and release still work.
	if err := stealer.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := stealer.Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := s.LeaseHolder("d1"); held {
		t.Fatal("true holder could not release")
	}
}

func TestLeaseValidation(t *testing.T) {
	s := openStore(t)
	if _, _, err := s.TryAcquire("", "alpha", time.Minute); err == nil {
		t.Fatal("empty digest accepted")
	}
	if _, _, err := s.TryAcquire("d1", "", time.Minute); err == nil {
		t.Fatal("empty owner accepted")
	}
	if _, _, err := s.TryAcquire("d1", "alpha", 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
	if _, _, err := s.TryAcquire("../escape", "alpha", time.Minute); err == nil {
		t.Fatal("path-separator digest accepted")
	}
}

// TestLeaseFilesInvisibleToIndex: lease files, staging files, a
// network client's pending/ journal and the manifest files of older
// releases must never be mistaken for blobs by the index.
func TestLeaseFilesInvisibleToIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.TryAcquire("d1", "alpha", time.Minute); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	k := mustKey(t, 0, 42)
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, k.blobName()))
	if err != nil {
		t.Fatal(err)
	}
	// Staging files carry blob bytes under a dot name; the pending/
	// journal holds a marker per deferred digest.
	pending := filepath.Join(dir, "pending")
	if err := os.Mkdir(pending, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := `{"schema":1,"entries":[{"digest":"` + k.Digest + `","profile":"a100","instance":0,"schema":1}]}`
	for name, data := range map[string][]byte{
		tmpPrefix + k.blobName() + "-1":            blob,
		tmpPrefix + "ready-2":                      nil,
		filepath.Join("pending", k.Digest+".pend"): nil,
		filepath.Join("pending", k.blobName()):     blob,
		"manifest.json":                            []byte(manifest),
		"manifest.log":                             []byte(`{"op":"put","entry":{"digest":"x"}}` + "\n"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix := s2.Index()
	if len(ix) != 1 || ix[0].Digest != k.Digest || s2.Len() != 1 {
		t.Fatalf("Index = %+v, want the one blob (a coordination file leaked into the index)", ix)
	}
}
