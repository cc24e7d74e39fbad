package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// memoised reports whether the handle holds a parsed-memo entry for
// digest.
func memoised(s *Store, digest string) bool {
	s.parsedMu.Lock()
	defer s.parsedMu.Unlock()
	_, ok := s.parsed[digest]
	return ok
}

// TestParsedMemoLifecycle: PutRaw and the first full GetRaw fill the
// memo, Get (the decoding read) neither needs nor fills it, and an
// entry leaves when its blob is evicted by GC, removed as corrupt, or
// found gone.
func TestParsedMemoLifecycle(t *testing.T) {
	s := openStore(t)
	k := mustKey(t, 0, 42)
	blob, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), k.blobName())

	if err := s.PutRaw(k.Digest, blob); err != nil || !memoised(s, k.Digest) {
		t.Fatalf("PutRaw: err=%v, memoised %v", err, memoised(s, k.Digest))
	}
	before := DecodePasses()
	if _, ok := s.GetRaw(k.Digest); !ok || DecodePasses() != before {
		t.Fatalf("GetRaw of uploaded bytes: ok=%v, %d parses", ok, DecodePasses()-before)
	}

	// GC evicts the blob and its entry.
	if gs, err := s.GC(GCPolicy{MaxBytes: 1}); err != nil || gs.Evicted != 1 {
		t.Fatalf("GC = %+v, %v", gs, err)
	}
	if memoised(s, k.Digest) {
		t.Fatal("GC left the evicted blob's memo entry")
	}
	if _, ok := s.GetRaw(k.Digest); ok {
		t.Fatal("GetRaw hit a GC'd blob")
	}

	// Put does not fill it; Get decodes without filling it; the first
	// GetRaw parses and fills it.
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok || memoised(s, k.Digest) {
		t.Fatalf("Get: ok=%v, memoised %v", ok, memoised(s, k.Digest))
	}
	before = DecodePasses()
	if _, ok := s.GetRaw(k.Digest); !ok || DecodePasses()-before != 1 || !memoised(s, k.Digest) {
		t.Fatalf("first GetRaw: ok=%v, %d parses, memoised %v", ok, DecodePasses()-before, memoised(s, k.Digest))
	}

	// Bytes corrupted on disk are parsed, refused and removed with their
	// entry.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetRaw(k.Digest); ok {
		t.Fatal("GetRaw served bytes corrupted after they were memoised")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) || memoised(s, k.Digest) {
		t.Fatalf("corrupt blob: stat err=%v, memoised %v", err, memoised(s, k.Digest))
	}

	// A blob removed behind the handle's back drops the entry on the
	// next read.
	if err := s.PutRaw(k.Digest, blob); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetRaw(k.Digest); ok || memoised(s, k.Digest) {
		t.Fatalf("GetRaw of a removed blob: ok=%v, memoised %v", ok, memoised(s, k.Digest))
	}
}

// TestParsedMemoConcurrent drives the memo from several goroutines at
// once, as a daemon's handlers do: readers GetRaw, a writer PutRaws and
// a janitor GCs the same blobs. Every hit returns the blob's exact
// bytes.
func TestParsedMemoConcurrent(t *testing.T) {
	s := openStore(t)
	blobs := map[string][]byte{}
	for i := 0; i < 3; i++ {
		k := mustKey(t, i, 42)
		b, err := EncodeBlobV3(k, testResult())
		if err != nil {
			t.Fatal(err)
		}
		blobs[k.Digest] = b
	}
	var wg sync.WaitGroup
	worker := func(fn func(digest string, blob []byte)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for d, b := range blobs {
					fn(d, b)
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		worker(func(d string, b []byte) {
			if got, ok := s.GetRaw(d); ok && !bytes.Equal(got, b) {
				t.Errorf("GetRaw(%.8s) served other bytes", d)
			}
		})
	}
	worker(func(d string, b []byte) {
		if err := s.PutRaw(d, b); err != nil {
			t.Error(err)
		}
	})
	worker(func(string, []byte) {
		if _, err := s.GC(GCPolicy{MaxBytes: 1}); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()
}
