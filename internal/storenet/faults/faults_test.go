package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/store"
)

// TestDecisionDeterminism: the injection schedule is a pure function of
// (seed, ordinal) — equal plans produce identical fault sequences, and
// a different seed produces a different one.
func TestDecisionDeterminism(t *testing.T) {
	schedule := func(seed uint64) []bool {
		out := make([]bool, 256)
		for i := range out {
			out[i] = hit(0.3, seed^saltFail, uint64(i))
		}
		return out
	}
	a, b, other := schedule(42), schedule(42), schedule(43)
	hits, diverged := 0, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("equal seeds diverged at ordinal %d", i)
		}
		if a[i] != other[i] {
			diverged = true
		}
		if a[i] {
			hits++
		}
	}
	if !diverged {
		t.Fatal("distinct seeds produced identical schedules")
	}
	// 30% of 256 with a real RNG: sanity-check the rate is in the
	// ballpark, not a degenerate all-or-nothing stream.
	if hits < 40 || hits > 120 {
		t.Fatalf("FailRate 0.3 hit %d/256 ordinals", hits)
	}
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "26")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "abcdefghijklmnopqrstuvwxyz")
	})
}

// TestInjectorFaultModes drives each fault class end to end over a real
// connection and checks the client-observable symptom.
func TestInjectorFaultModes(t *testing.T) {
	t.Run("fail", func(t *testing.T) {
		inj := NewInjector(okHandler(), Plan{FailRate: 1})
		srv := httptest.NewServer(inj)
		defer srv.Close()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
		if c := inj.Injected(); c.Failed != 1 || c.Requests != 1 {
			t.Fatalf("counters %+v", c)
		}
	})

	t.Run("drop", func(t *testing.T) {
		inj := NewInjector(okHandler(), Plan{DropRate: 1})
		srv := httptest.NewServer(inj)
		defer srv.Close()
		if _, err := http.Get(srv.URL); err == nil {
			t.Fatal("dropped connection produced a response")
		}
		if c := inj.Injected(); c.Dropped != 1 {
			t.Fatalf("counters %+v", c)
		}
	})

	t.Run("tear", func(t *testing.T) {
		inj := NewInjector(okHandler(), Plan{TearRate: 1})
		srv := httptest.NewServer(inj)
		defer srv.Close()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// The status line and headers made it out...
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 before the tear", resp.StatusCode)
		}
		// ...but the advertised body does not: reading hits the torn
		// connection.
		body, err := io.ReadAll(resp.Body)
		if err == nil && len(body) == 26 {
			t.Fatal("torn response delivered the full body")
		}
		if len(body) >= 26 {
			t.Fatalf("torn body has %d bytes, want a strict prefix", len(body))
		}
		if c := inj.Injected(); c.Torn != 1 {
			t.Fatalf("counters %+v", c)
		}
	})

	t.Run("kill-restore", func(t *testing.T) {
		inj := NewInjector(okHandler(), Plan{})
		srv := httptest.NewServer(inj)
		defer srv.Close()
		inj.Kill()
		if _, err := http.Get(srv.URL); err == nil {
			t.Fatal("killed injector served a response")
		}
		inj.Restore()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatalf("restored injector: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restored status %d", resp.StatusCode)
		}
		if c := inj.Injected(); c.Blackouts != 1 {
			t.Fatalf("counters %+v", c)
		}
	})
}

// TestInjectorBlackoutWindow: the ordinal window fails exactly the
// scripted span of requests.
func TestInjectorBlackoutWindow(t *testing.T) {
	inj := NewInjector(okHandler(), Plan{BlackoutFrom: 1, BlackoutTo: 3})
	srv := httptest.NewServer(inj)
	defer srv.Close()
	for i := 0; i < 5; i++ {
		resp, err := http.Get(srv.URL)
		inBlackout := i >= 1 && i < 3
		if inBlackout {
			if err == nil {
				resp.Body.Close()
				t.Fatalf("request %d served inside the blackout", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("request %d outside the blackout: %v", i, err)
		}
		resp.Body.Close()
	}
	if c := inj.Injected(); c.Blackouts != 2 {
		t.Fatalf("Blackouts = %d, want 2", c.Blackouts)
	}
}

func backendKey(t *testing.T, instance int) store.Key {
	t.Helper()
	k, err := store.KeyFor("a100", instance, 42,
		core.Config{Frequencies: []float64{705, 1410}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWrapBackend: the backend wrapper follows the store error
// discipline — injected faults turn reads into misses and surface
// ErrInjected from writes and claims — and Kill/Restore scripts a full
// outage.
func TestWrapBackend(t *testing.T) {
	inner, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := backendKey(t, 0)
	res := &core.Result{DeviceName: "a100[0]"}

	b := WrapBackend(inner, Plan{})
	if err := b.Put(k, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(k); !ok {
		t.Fatal("clean wrapper missed")
	}

	b.Kill()
	if _, ok := b.Get(k); ok {
		t.Fatal("killed backend served a read")
	}
	if err := b.Put(backendKey(t, 1), res); !errors.Is(err, ErrInjected) {
		t.Fatalf("killed Put: %v, want ErrInjected", err)
	}
	if _, _, err := b.TryAcquire(k.Digest, "o", time.Minute); !errors.Is(err, ErrInjected) {
		t.Fatalf("killed TryAcquire: %v, want ErrInjected", err)
	}
	if b.Has(k) {
		t.Fatal("killed Has true")
	}
	b.Restore()
	if _, ok := b.Get(k); !ok {
		t.Fatal("restored backend missed")
	}
	if c := b.Injected(); c.Blackouts != 4 {
		t.Fatalf("Blackouts = %d, want 4", c.Blackouts)
	}
}
