package store

import (
	"fmt"
	"sync"
	"testing"
)

func mustKey(t testing.TB, instance int, seed uint64) Key {
	t.Helper()
	k, err := KeyFor("a100", instance, seed, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestTwoHandlesConvergeViaJournal is the cross-process shape: two Store
// handles on one directory see each other's blobs at once, and a third
// Open sees the union.
func TestTwoHandlesConvergeViaJournal(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, kc := mustKey(t, 0, 42), mustKey(t, 1, 43), mustKey(t, 2, 44)
	if err := a.Put(ka, testResult()); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(kb, testResult()); err != nil {
		t.Fatal(err)
	}

	// b never wrote ka, but the blob is on disk: Get hits it.
	if _, ok := b.Get(ka); !ok {
		t.Fatal("handle b missed handle a's blob")
	}
	if b.Len() != 2 {
		t.Fatalf("b.Len() = %d after cross-handle Get, want 2", b.Len())
	}

	if err := b.Put(kc, testResult()); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("converged Len = %d, want 3", c.Len())
	}
	for _, k := range []Key{ka, kb, kc} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("converged store missing %s", k)
		}
	}
}

// TestConcurrentStoreOps is the -race soak: goroutines interleave
// Put/Get/Index/Len on one handle, and every key must survive into a
// fresh Open.
func TestConcurrentStoreOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 6
	)
	res := testResult()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := mustKey(t, w, uint64(1000+w*perW+i))
				if err := s.Put(k, res); err != nil {
					errs <- fmt.Errorf("put %s: %w", k, err)
					return
				}
				if _, ok := s.Get(k); !ok {
					errs <- fmt.Errorf("miss on just-put %s", k)
					return
				}
				s.Index()
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != workers*perW {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*perW)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != workers*perW {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), workers*perW)
	}
}

// TestTwoHandlesConcurrentPuts: disjoint key sets written through two
// handles racing on one directory must union cleanly.
func TestTwoHandlesConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	const perHandle = 10
	res := testResult()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for h := 0; h < 2; h++ {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h int, st *Store) {
			defer wg.Done()
			for i := 0; i < perHandle; i++ {
				if err := st.Put(mustKey(t, h, uint64(2000+h*perHandle+i)), res); err != nil {
					errs <- err
					return
				}
			}
		}(h, st)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	merged, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 2*perHandle {
		t.Fatalf("merged Len = %d, want %d (concurrent writers lost index entries)",
			merged.Len(), 2*perHandle)
	}
}
