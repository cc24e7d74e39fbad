package router_test

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"golatest/internal/store"
	"golatest/internal/store/conformancetest"
	"golatest/internal/storenet"
	"golatest/internal/storenet/faults"
	"golatest/internal/storenet/router"
)

// corruptIn tampers with the digest's blob bytes in every given
// directory — all tiers the router could serve the blob from.
func corruptIn(t *testing.T, dirs ...string) func(digest string) {
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

// TestRouterConformanceLocalMembers holds a three-member router over
// local directory stores (R=2) to the full Backend contract.
func TestRouterConformanceLocalMembers(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		members := make([]store.Backend, 3)
		dirs := make([]string, 3)
		for i := range members {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			members[i] = st
			dirs[i] = dir
		}
		r, err := router.New(members, router.Options{Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend: r,
			Corrupt: corruptIn(t, dirs...),
		}
	})
}

// TestRouterConformanceDaemonMembers holds the production shape — a
// router over three cache-less authed clients, each fronting its own
// stored daemon — to the same contract.
func TestRouterConformanceDaemonMembers(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		members := make([]store.Backend, 3)
		dirs := make([]string, 3)
		for i := range members {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			auth := storenet.NewTokenSet().Grant("conf-token", storenet.ScopeAdmin, storenet.TokenLimits{})
			hs := httptest.NewServer(storenet.NewServerWith(st, storenet.ServerOptions{Auth: auth}))
			t.Cleanup(hs.Close)
			c, err := storenet.NewClient(hs.URL, storenet.ClientOptions{
				Token:        "conf-token",
				RetryBackoff: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			members[i] = c
			dirs[i] = dir
		}
		r, err := router.New(members, router.Options{Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend: r,
			Corrupt: corruptIn(t, dirs...),
		}
	})
}

// TestRouterConformanceDeadMember is the degraded contract: one of the
// three members is dead for the whole suite (a permanently-killed fault
// wrapper), and the router must still satisfy every Backend obligation
// through the survivors. The outage is total and permanent, so routing
// decisions — in particular which member arbitrates each lease — stay
// deterministic across the suite.
func TestRouterConformanceDeadMember(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Harness {
		members := make([]store.Backend, 3)
		dirs := make([]string, 3)
		for i := range members {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			members[i] = st
			dirs[i] = dir
			if i == 2 {
				f := faults.WrapBackend(st, faults.Plan{})
				f.Kill()
				members[i] = f
			}
		}
		r, err := router.New(members, router.Options{Replication: 2})
		if err != nil {
			t.Fatal(err)
		}
		return conformancetest.Harness{
			Backend: r,
			Corrupt: corruptIn(t, dirs...),
		}
	})
}
