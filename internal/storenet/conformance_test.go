package storenet

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"golatest/internal/store"
	"golatest/internal/store/conformancetest"
)

// conformanceServer starts an authed loopback daemon — conformance
// runs against the production (auth-enabled) configuration, so the
// middleware is proven contract-transparent, not just tested in
// isolation.
func conformanceServer(t *testing.T) (dir string, url string) {
	t.Helper()
	dir = t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	auth := NewTokenSet().Grant("conf-token", ScopeAdmin, TokenLimits{})
	hs := httptest.NewServer(NewServerWith(st, ServerOptions{Auth: auth}))
	t.Cleanup(hs.Close)
	return dir, hs.URL
}

func corruptBlobFiles(t *testing.T, dirs ...string) func(digest string) {
	return func(digest string) {
		t.Helper()
		for _, dir := range dirs {
			if err := os.WriteFile(filepath.Join(dir, digest+".json"),
				[]byte("tampered: not a blob container"), 0o644); err != nil {
				t.Fatalf("corrupt %s in %s: %v", digest, dir, err)
			}
		}
	}
}

// TestBackendConformanceLoopbackClient holds the cache-less network
// client (through a live authed daemon) to the same contract as a
// local directory.
func TestBackendConformanceLoopbackClient(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		dir, url := conformanceServer(t)
		c, err := NewClient(url, ClientOptions{
			Token:        "conf-token",
			RetryBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend: c,
			Corrupt: corruptBlobFiles(t, dir),
		}
	})
}

// TestBackendConformanceTieredClient runs the suite against the
// write-through tiered client (local cache over the authed daemon) —
// the configuration fleets actually deploy. Corruption tampers both
// tiers, because the contract's corrupt-blob promise must hold even
// when every copy is bad.
func TestBackendConformanceTieredClient(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		remoteDir, url := conformanceServer(t)
		cache, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(url, ClientOptions{
			Cache:        cache,
			Token:        "conf-token",
			RetryBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend: c,
			Corrupt: corruptBlobFiles(t, remoteDir, cache.Dir()),
		}
	})
}
