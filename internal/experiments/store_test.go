package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/store"
)

// TestCampaignStoreWarm is the persistence contract: a second suite
// sharing the store performs zero campaign recomputation (store hit
// counters prove it) and derives byte-identical artefacts from the
// stored blobs.
func TestCampaignStoreWarm(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Scale: ScaleQuick, Seed: 5, Store: st}

	cold := NewSuite(opts)
	coldRes, err := cold.Campaign(hwprofile.A100())
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.runs.Load(); got != 1 {
		t.Fatalf("cold suite runs = %d, want 1", got)
	}
	coldHeat, err := cold.Fig3Heatmap("a100", AggMax)
	if err != nil {
		t.Fatal(err)
	}
	var coldCSV bytes.Buffer
	if err := coldHeat.WriteCSV(&coldCSV); err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.Puts != 1 || c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("cold counters = %+v", c)
	}

	// A fresh suite over the same store: everything is served from disk.
	warm := NewSuite(opts)
	warmRes, err := warm.Campaign(hwprofile.A100())
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.runs.Load(); got != 0 {
		t.Fatalf("warm suite recomputed %d campaigns, want 0", got)
	}
	c = st.Counters()
	if c.Hits != 1 || c.Puts != 1 {
		t.Fatalf("warm counters = %+v", c)
	}
	if len(warmRes.Pairs) != len(coldRes.Pairs) {
		t.Fatalf("pair count diverged: %d vs %d", len(warmRes.Pairs), len(coldRes.Pairs))
	}

	warmHeat, err := warm.Fig3Heatmap("a100", AggMax)
	if err != nil {
		t.Fatal(err)
	}
	var warmCSV bytes.Buffer
	if err := warmHeat.WriteCSV(&warmCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldCSV.Bytes(), warmCSV.Bytes()) {
		t.Fatalf("warm artefact diverged from cold:\ncold:\n%s\nwarm:\n%s", coldCSV.String(), warmCSV.String())
	}
}

// TestFleetLeasePartition: two suites — the two-process shape, each with
// its own Store handle on one directory — sweep the same A100 fleet in
// lease mode. Each unit's campaign must run exactly once across both
// suites, and both must end with the full result set.
func TestFleetLeasePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick A100 campaigns")
	}
	dir := t.TempDir()
	const units = 2
	type proc struct {
		suite *Suite
		res   []*core.Result
		err   error
	}
	procs := make([]*proc, 2)
	var wg sync.WaitGroup
	for i := range procs {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := &proc{suite: NewSuite(Options{
			Scale:      ScaleQuick,
			Seed:       5,
			Store:      st,
			LeaseTTL:   time.Minute,
			LeaseOwner: fmt.Sprintf("suite-%d", i),
		})}
		procs[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.res, p.err = p.suite.A100Fleet(units)
		}()
	}
	wg.Wait()

	var runs int64
	for i, p := range procs {
		if p.err != nil {
			t.Fatalf("suite %d: %v", i, p.err)
		}
		if len(p.res) != units {
			t.Fatalf("suite %d returned %d results, want %d", i, len(p.res), units)
		}
		runs += p.suite.runs.Load()
	}
	if runs != units {
		t.Fatalf("campaigns ran %d times across both suites, want exactly %d (sweep not partitioned)",
			runs, units)
	}
	for u := 0; u < units; u++ {
		if procs[0].res[u].DeviceName != procs[1].res[u].DeviceName ||
			len(procs[0].res[u].Pairs) != len(procs[1].res[u].Pairs) {
			t.Fatalf("unit %d diverged between suites", u)
		}
	}
	c0, c1 := procs[0].suite.Contention(), procs[1].suite.Contention()
	if c0.Claimed+c1.Claimed != units {
		t.Fatalf("claims = %d + %d, want %d total", c0.Claimed, c1.Claimed, units)
	}
}

// TestCampaignLeasePartition: lease mode covers single-profile
// campaigns, not just multi-unit sweeps. Two suites — each with its own
// Store handle on one directory — build Table II concurrently; its three
// campaigns must run exactly once across both, and the store must hold
// exactly those three blobs.
func TestCampaignLeasePartition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three main quick campaigns")
	}
	dir := t.TempDir()
	suites := make([]*Suite, 2)
	errs := make([]error, len(suites))
	var wg sync.WaitGroup
	for i := range suites {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		suites[i] = NewSuite(Options{
			Scale:      ScaleQuick,
			Seed:       5,
			Store:      st,
			LeaseTTL:   time.Minute,
			LeaseOwner: fmt.Sprintf("suite-%d", i),
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = suites[i].Table2()
		}(i)
	}
	wg.Wait()

	var runs int64
	for i, s := range suites {
		if errs[i] != nil {
			t.Fatalf("suite %d: %v", i, errs[i])
		}
		runs += s.runs.Load()
	}
	if runs != 3 {
		t.Fatalf("campaigns ran %d times across both suites, want exactly 3 (lease bypassed)", runs)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 {
		t.Fatalf("store holds %d blobs, want 3", st.Len())
	}
}

// TestCampaignStoreKeySensitivity: a suite with a different seed shares
// the store but not the cache entries.
func TestCampaignStoreKeySensitivity(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuite(Options{Scale: ScaleQuick, Seed: 5, Store: st})
	if _, err := s1.Campaign(hwprofile.A100()); err != nil {
		t.Fatal(err)
	}
	s2 := NewSuite(Options{Scale: ScaleQuick, Seed: 6, Store: st})
	if _, err := s2.Campaign(hwprofile.A100()); err != nil {
		t.Fatal(err)
	}
	if got := s2.runs.Load(); got != 1 {
		t.Fatalf("different seed hit the cache (runs = %d)", got)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d blobs, want 2 distinct keys", st.Len())
	}
}
