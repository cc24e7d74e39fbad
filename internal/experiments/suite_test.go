package experiments

import (
	"sync"
	"testing"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
)

// TestCampaignSingleflight is the regression test for the check-then-act
// race the cache used to have: concurrent callers of the same campaign
// key must collapse onto one execution, all observing the same result —
// whether they ask for the one campaign or for a fleet that contains it.
func TestCampaignSingleflight(t *testing.T) {
	s := NewSuite(Options{Scale: ScaleQuick, Seed: 99})
	p, err := hwprofile.ByKey("a100")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	results := make([]*core.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i], errs[i] = s.Campaign(p)
				return
			}
			fleet, err := s.A100Fleet(1)
			if err == nil {
				results[i] = fleet[0]
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i] != results[0] {
			t.Fatalf("caller %d observed a different result pointer", i)
		}
	}
	if got := s.runs.Load(); got != 1 {
		t.Fatalf("campaign executed %d times under concurrent callers, want exactly 1", got)
	}

	// A later call still hits the cache, not a new run.
	again, err := s.Campaign(p)
	if err != nil {
		t.Fatal(err)
	}
	if again != results[0] || s.runs.Load() != 1 {
		t.Fatal("sequential call after the flight re-ran the campaign")
	}
}
