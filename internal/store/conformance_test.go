package store_test

import (
	"os"
	"path/filepath"
	"testing"

	"golatest/internal/store"
	"golatest/internal/store/conformancetest"
	"golatest/internal/storenet/faults"
)

// corruptInDir returns a Corrupt hook that tampers the on-disk blob in
// a store directory — the authoritative bytes a directory-backed
// backend reads.
func corruptInDir(t *testing.T, dir string) func(digest string) {
	return func(digest string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, digest+".json"),
			[]byte("tampered: not a blob container"), 0o644); err != nil {
			t.Fatalf("corrupt %s: %v", digest, err)
		}
	}
}

// TestBackendConformanceLocalStore holds the directory store to the
// Backend contract — the reference implementation must pass its own
// gate.
func TestBackendConformanceLocalStore(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend: st,
			Corrupt: corruptInDir(t, dir),
		}
	})
}

// TestBackendConformanceFaultsWrapper proves the fault-injection
// wrapper is contract-transparent when its plan injects nothing: tests
// that wrap a backend in faults.WrapBackend are still testing a
// conforming Backend, not a subtly different one.
func TestBackendConformanceFaultsWrapper(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend: faults.WrapBackend(st, faults.Plan{Seed: 1}),
			Corrupt: corruptInDir(t, dir),
		}
	})
}
