package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// putN writes n distinct entries and returns their keys in put order.
// It ages each blob's mtime one second before the next, so their LRU
// clocks are strictly ascending even where the filesystem stamps
// writes within one timer tick alike.
func putN(t *testing.T, s *Store, n int) []Key {
	t.Helper()
	keys := make([]Key, n)
	base := time.Now().Add(-time.Duration(n) * time.Second)
	for i := range keys {
		keys[i] = mustKey(t, i, uint64(300+i))
		if err := s.Put(keys[i], testResult()); err != nil {
			t.Fatal(err)
		}
		at := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(filepath.Join(s.Dir(), keys[i].blobName()), at, at); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestGCSizeBoundEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := putN(t, s, 3)
	// Touch the oldest entry through a second handle: the Get hit
	// advances its LRU clock for every handle on the directory, so the
	// eviction order becomes k1, k2 — not put order.
	reader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.Get(keys[0]); !ok {
		t.Fatal("miss on stored key")
	}

	// Compressed blob sizes vary slightly with content (the digest field
	// differs per key), so account per entry rather than assuming one
	// uniform size.
	sizes := map[string]int64{}
	var total int64
	for _, e := range s.Index() {
		if e.Bytes <= 0 {
			t.Fatalf("entry %s has no recorded size", e.Digest)
		}
		sizes[e.Digest] = e.Bytes
		total += e.Bytes
	}
	// One byte over the bound: evicting the single least-recently-used
	// blob must satisfy it.
	st, err := s.GC(GCPolicy{MaxBytes: total - 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 1 || st.Scanned != 3 {
		t.Fatalf("stats = %+v, want 1 eviction of 3 scanned", st)
	}
	if st.BytesBefore != total || st.BytesAfter != total-sizes[keys[1].Digest] {
		t.Fatalf("byte accounting: %+v", st)
	}
	if s.Has(keys[1]) {
		t.Fatal("LRU blob survived the size bound")
	}
	if !s.Has(keys[0]) || !s.Has(keys[2]) {
		t.Fatal("recently-used blob evicted")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}

	// The evictions are durable: a fresh handle agrees.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
}

func TestGCAgeBound(t *testing.T) {
	s := openStore(t)
	keys := putN(t, s, 2)
	st, err := s.GC(GCPolicy{MaxAge: time.Minute, Now: time.Now().Add(2 * time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 2 || st.BytesAfter != 0 {
		t.Fatalf("stats = %+v, want everything evicted", st)
	}
	for _, k := range keys {
		if s.Has(k) {
			t.Fatalf("expired blob %s survived", k)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

// TestGCZeroPolicyIsJanitorOnly: with no bounds set, GC evicts no
// blob, and a blob deleted out from under the store by hand is simply
// gone from the index.
func TestGCZeroPolicyIsJanitorOnly(t *testing.T) {
	s := openStore(t)
	keys := putN(t, s, 2)
	if err := os.Remove(filepath.Join(s.Dir(), keys[0].blobName())); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 0 || st.Scanned != 1 {
		t.Fatalf("stats = %+v, want 1 blob scanned and none evicted", st)
	}
	if s.Len() != 1 || !s.Has(keys[1]) {
		t.Fatalf("live blob disturbed: Len=%d", s.Len())
	}
}

// TestGCSeesPeerWrites: a GC pass must bound the whole directory, not
// just the blobs this handle wrote — a peer process's blobs count from
// the moment they land.
func TestGCSeesPeerWrites(t *testing.T) {
	dir := t.TempDir()
	collector, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := putN(t, peer, 3)
	if collector.Len() != 3 {
		t.Fatalf("collector indexes %d of the peer's 3 blobs", collector.Len())
	}

	st, err := collector.GC(GCPolicy{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 3 {
		t.Fatalf("Scanned = %d, want 3 (peer's writes invisible to GC)", st.Scanned)
	}
	if st.Evicted != 3 || st.BytesAfter != 0 {
		t.Fatalf("stats = %+v, want the peer's blobs evicted under the size bound", st)
	}
	for _, k := range keys {
		if collector.Has(k) {
			t.Fatalf("peer blob %s survived the size bound", k)
		}
	}
}

func TestGCSweepsDebris(t *testing.T) {
	s := openStore(t)
	dir := s.Dir()

	// A crash-orphaned staging file, aged past the threshold.
	stale := filepath.Join(dir, tmpPrefix+"blob.json-123")
	if err := os.WriteFile(stale, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(stale, past, past); err != nil {
		t.Fatal(err)
	}
	// A fresh staging file: could be a live writer, must survive.
	fresh := filepath.Join(dir, tmpPrefix+"blob.json-456")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An expired lease and a live one.
	if _, ok, err := s.TryAcquire("dead", "gone", time.Millisecond); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, ok, err := s.TryAcquire("live", "here", time.Minute); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}

	st, err := s.GC(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if st.TmpRemoved != 1 {
		t.Fatalf("TmpRemoved = %d, want 1", st.TmpRemoved)
	}
	if st.LeasesRemoved != 1 {
		t.Fatalf("LeasesRemoved = %d, want 1", st.LeasesRemoved)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file removed — could have been a live writer")
	}
	if _, held := s.LeaseHolder("dead"); held {
		t.Fatal("expired lease survived")
	}
	if owner, held := s.LeaseHolder("live"); !held || owner != "here" {
		t.Fatal("live lease removed")
	}
}
