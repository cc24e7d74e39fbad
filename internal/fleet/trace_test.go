package fleet

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/obs"
	"golatest/internal/store"
)

// spanByName pulls the single span with the given name out of a
// snapshot, failing the test on zero or many.
func spanByName(t *testing.T, spans []obs.SpanRecord, name string) obs.SpanRecord {
	t.Helper()
	var found []obs.SpanRecord
	for _, s := range spans {
		if s.Name == name {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly one %q span, got %d", name, len(found))
	}
	return found[0]
}

func hasEvent(s obs.SpanRecord, name string) bool {
	for _, e := range s.Events {
		if e.Name == name {
			return true
		}
	}
	return false
}

func attr(s obs.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestSweepTraceTreeCoversEveryShard is the tentpole's core contract: a
// traced lease-mode sweep produces one root span and one child span per
// shard, each in its own timeline lane, carrying the claim/compute/put
// event sequence — and the warm re-run shows the same shards resolving
// as store hits under a fresh trace ID.
func TestSweepTraceTreeCoversEveryShard(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{Seed: 42})
	profiles := testProfiles(4)
	var calls atomic.Int64
	run := fakeRun(&calls)
	opts := Options{
		Store:  st,
		Config: testConfig,
		Run: func(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
			time.Sleep(time.Millisecond) // make ComputeNs visibly nonzero
			return run(p, cfg)
		},
		LeaseTTL: time.Second,
		Tracer:   tr,
	}

	rep, err := Sweep(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID == "" {
		t.Fatal("traced sweep reported no TraceID")
	}
	spans := tr.Snapshot()
	root := spanByName(t, spans, "fleet.sweep")
	if root.Context.TraceID.String() != rep.TraceID {
		t.Fatalf("Report.TraceID %s != root trace %s", rep.TraceID, root.Context.TraceID)
	}
	if attr(root, "owner") == "" || attr(root, "shards") != "4" {
		t.Fatalf("root attrs incomplete: %+v", root.Attrs)
	}

	var shards []obs.SpanRecord
	seenTID := map[int]bool{}
	for _, s := range spans {
		if s.Name != "fleet.shard" {
			continue
		}
		shards = append(shards, s)
		if s.Parent != root.Context.SpanID {
			t.Fatalf("shard span not parented under root: %+v", s)
		}
		if s.Context.TraceID != root.Context.TraceID {
			t.Fatalf("shard span has foreign trace ID: %+v", s)
		}
		if s.TID < 1 || s.TID > len(profiles) || seenTID[s.TID] {
			t.Fatalf("shard TID %d out of range or duplicated", s.TID)
		}
		seenTID[s.TID] = true
		for _, ev := range []string{"store.miss", "claim", "compute", "put"} {
			if !hasEvent(s, ev) {
				t.Fatalf("cold shard span missing %q event: %+v", ev, s.Events)
			}
		}
		if attr(s, "outcome") != "computed" || attr(s, "profile") == "" {
			t.Fatalf("cold shard span attrs: %+v", s.Attrs)
		}
	}
	if len(shards) != len(profiles) {
		t.Fatalf("want %d shard spans, got %d", len(profiles), len(shards))
	}
	for i, sh := range rep.Shards {
		if sh.ComputeNs <= 0 {
			t.Fatalf("shard %d ComputeNs = %d", i, sh.ComputeNs)
		}
		if sh.StoreNs <= 0 {
			t.Fatalf("shard %d StoreNs = %d", i, sh.StoreNs)
		}
	}

	// Warm sweep under the same tracer: new root (fresh trace ID), every
	// shard a store hit.
	tr.Reset()
	rep2, err := Sweep(profiles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TraceID == "" || rep2.TraceID == rep.TraceID {
		t.Fatalf("warm sweep trace ID %q should be fresh (cold was %q)", rep2.TraceID, rep.TraceID)
	}
	for _, s := range tr.Snapshot() {
		if s.Name != "fleet.shard" {
			continue
		}
		if !hasEvent(s, "store.hit") || attr(s, "outcome") != "cache" {
			t.Fatalf("warm shard span: events=%v attrs=%v", s.Events, s.Attrs)
		}
		if hasEvent(s, "compute") {
			t.Fatalf("warm shard span computed: %v", s.Events)
		}
	}
}

// recordingStore is a store that captures every SetTraceContext call.
// Sweep calls it from the driving goroutine only, so no locking is
// needed.
type recordingStore struct {
	store.Backend
	calls []obs.SpanContext
}

func (c *recordingStore) SetTraceContext(sc obs.SpanContext) {
	c.calls = append(c.calls, sc)
}

// TestSweepInstallsAndClearsTraceContext: the sweep hands its root
// context to a store that carries trace context before shards run and
// clears it on the way out, so post-sweep store traffic is not
// misattributed.
func TestSweepInstallsAndClearsTraceContext(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{Seed: 7})
	carrier := &recordingStore{Backend: st}
	var calls atomic.Int64
	rep, err := Sweep(testProfiles(2), Options{
		Store:  carrier,
		Config: testConfig,
		Run:    fakeRun(&calls),
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(carrier.calls) != 2 {
		t.Fatalf("want install+clear, got %d calls: %v", len(carrier.calls), carrier.calls)
	}
	if got := carrier.calls[0].TraceID.String(); got != rep.TraceID {
		t.Fatalf("installed trace %s != report trace %s", got, rep.TraceID)
	}
	if carrier.calls[1].Valid() {
		t.Fatalf("trace context not cleared after sweep: %+v", carrier.calls[1])
	}
}

// TestUntracedSweepCollectsTimings: the wall-clock attribution fields
// are populated with tracing off, and the timing table renders them.
func TestUntracedSweepCollectsTimings(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	rep, err := Sweep(testProfiles(2), Options{Store: st, Config: testConfig, Run: fakeRun(&calls)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceID != "" {
		t.Fatalf("untraced sweep has TraceID %q", rep.TraceID)
	}
	for i, sh := range rep.Shards {
		if sh.StoreNs <= 0 {
			t.Fatalf("shard %d StoreNs = %d with store configured", i, sh.StoreNs)
		}
	}
	var b strings.Builder
	if err := rep.WriteTimingTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "shard") || !strings.Contains(out, "a100/0") || !strings.Contains(out, "computed") {
		t.Fatalf("timing table missing expected columns:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 { // header + 2 shards
		t.Fatalf("timing table has %d lines:\n%s", lines, out)
	}
}
