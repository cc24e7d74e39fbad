package core_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"golatest/internal/core"
	"golatest/internal/experiments"
)

// TestPairComputesBoundedByPool generates three artefacts at once, as
// the experiments CLI does — Table II's campaigns, the four-unit A100
// sweep and the cluster census — and counts the pair campaigns in flight
// across the process. However the artefacts nest campaigns and pairs,
// the step pool must bound them.
func TestPairComputesBoundedByPool(t *testing.T) {
	var inFlight, peak atomic.Int64
	defer core.SetPairComputeHook(func(delta int) {
		n := inFlight.Add(int64(delta))
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
	})()

	s := experiments.NewSuite(experiments.Options{Scale: experiments.ScaleQuick, Seed: 2025})
	errs := make([]error, 3)
	var wg sync.WaitGroup
	wg.Add(len(errs))
	for i, fn := range []func() error{
		func() error { _, err := s.Table2(); return err },
		func() error { _, err := s.A100Instances(); return err },
		func() error { _, err := s.ClusterCensus(); return err },
	} {
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := peak.Load()
	if got == 0 {
		t.Fatal("no pair campaign ran")
	}
	if bound := int64(core.PoolSize()); got > bound {
		t.Fatalf("peak in-flight pair campaigns = %d, over the pool's capacity %d", got, bound)
	}
	t.Logf("peak in-flight pair campaigns = %d, pool capacity %d", got, core.PoolSize())
}
