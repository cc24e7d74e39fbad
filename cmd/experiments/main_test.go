package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/experiments"
	"golatest/internal/store"
	"golatest/internal/storenet"
)

func TestRunSelectedArtefacts(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-scale", "quick", "-only", "table1,fig1,fig2,cidegen", "-out", dir}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.md", "fig1_cpu_trace.txt", "fig2_acc_trace.txt", "ci_degeneration.md"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if !strings.Contains(out.String(), "[table1  ]") {
		t.Fatalf("progress log:\n%s", out.String())
	}
	// Unselected artefacts must not appear.
	if _, err := os.Stat(filepath.Join(dir, "table2.md")); !os.IsNotExist(err) {
		t.Fatal("table2.md generated despite -only filter")
	}
}

func TestRunTable1Content(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-only", "table1", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GH200", "A100", "RTX Quadro 6000", "132", "108", "72"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("table1.md missing %q:\n%s", want, data)
		}
	}
}

// readArtefacts returns name → contents for every file in dir.
func readArtefacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestCacheDeterminism is the acceptance contract of the persistent
// store: a repeated -cache-dir run performs zero campaign recomputation
// (the cache stats line reports no misses) and emits byte-identical
// artefacts to the cold run. fig3c exercises a single-campaign artefact,
// fig7 the fleet-sharded four-unit A100 sweep.
func TestCacheDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five quick A100 campaigns")
	}
	cache := t.TempDir()
	coldDir, warmDir := t.TempDir(), t.TempDir()
	base := []string{"-scale", "quick", "-only", "fig3c,fig7", "-cache-dir", cache}

	var coldOut bytes.Buffer
	if err := run(append(base, "-out", coldDir), &coldOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldOut.String(), " 0 hits") {
		t.Fatalf("cold run should start from an empty store:\n%s", coldOut.String())
	}

	var warmOut bytes.Buffer
	if err := run(append(base, "-out", warmDir), &warmOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warmOut.String(), " 0 misses, 0 writes") {
		t.Fatalf("warm run recomputed campaigns:\n%s", warmOut.String())
	}

	cold, warm := readArtefacts(t, coldDir), readArtefacts(t, warmDir)
	if len(cold) == 0 || len(cold) != len(warm) {
		t.Fatalf("artefact sets differ: %d cold, %d warm", len(cold), len(warm))
	}
	for name, want := range cold {
		got, ok := warm[name]
		if !ok {
			t.Fatalf("warm run missing %s", name)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs between cold and warm runs", name)
		}
	}
}

// TestCrossProcessSweepPartition is the acceptance contract of the
// lease-coordinated store: two concurrent runs — goroutine "processes",
// each with its own Store handle — sweep the same fleet artefact over
// one cache directory, and between them compute each shard exactly once
// (the combined write count equals the shard count) while both emit
// byte-identical artefacts.
func TestCrossProcessSweepPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four-unit A100 sweep")
	}
	cache := t.TempDir()
	// fig7 is the §VII-C four-unit A100 sweep: 4 shards.
	const shards = 4
	base := []string{"-scale", "quick", "-only", "fig7", "-cache-dir", cache, "-lease-ttl", "1m"}

	type proc struct {
		out bytes.Buffer
		dir string
		err error
	}
	procs := [2]*proc{{dir: t.TempDir()}, {dir: t.TempDir()}}
	var wg sync.WaitGroup
	for i, p := range procs {
		args := append(append([]string{}, base...), "-owner", fmt.Sprintf("proc-%d", i), "-out", p.dir)
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.err = run(args, &p.out)
		}(p)
	}
	wg.Wait()

	writesRe := regexp.MustCompile(`(\d+) writes`)
	total := 0
	for i, p := range procs {
		if p.err != nil {
			t.Fatalf("proc %d: %v\n%s", i, p.err, p.out.String())
		}
		m := writesRe.FindStringSubmatch(p.out.String())
		if m == nil {
			t.Fatalf("proc %d reported no cache stats:\n%s", i, p.out.String())
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if !strings.Contains(p.out.String(), "leases:") {
			t.Fatalf("proc %d reported no lease stats:\n%s", i, p.out.String())
		}
	}
	if total != shards {
		t.Fatalf("combined writes = %d, want exactly %d (shards duplicated or lost across processes)",
			total, shards)
	}

	a, b := readArtefacts(t, procs[0].dir), readArtefacts(t, procs[1].dir)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("artefact sets differ: %d vs %d", len(a), len(b))
	}
	for name, want := range a {
		got, ok := b[name]
		if !ok {
			t.Fatalf("second process missing %s", name)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs between the two processes", name)
		}
	}
}

// TestTraceOutExport is the tentpole's CLI acceptance: -trace-out on a
// quick-scale lease-mode fleet sweep writes valid Chrome trace_event
// JSON whose span tree covers every shard — a fleet.sweep root, four
// fleet.shard children parented under it in distinct timeline lanes,
// claim/compute/put instants in each lane, and the store client's wire
// spans sharing the sweep's trace ID — while the run log prints the
// trace ID and the per-shard timing table.
func TestTraceOutExport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four-unit A100 sweep")
	}
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(storenet.NewServer(backing))
	defer srv.Close()

	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	err = run([]string{"-scale", "quick", "-only", "fig7",
		"-store-url", srv.URL, "-cache-dir", t.TempDir(), "-lease-ttl", "1m",
		"-trace-out", traceFile, "-out", t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	// A computed shard counts one store miss — its first lookup — so a
	// cold run into an empty store misses, writes and stores each shard
	// once.
	if !strings.Contains(out.String(), ": 0 hits, 4 misses, 4 writes, 4 blobs") {
		t.Fatalf("cold lease-mode run should miss, write and store each of 4 shards once:\n%s", out.String())
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    float64           `json:"ts"`
			Dur   float64           `json:"dur"`
			TID   int               `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("-trace-out wrote invalid JSON: %v", err)
	}

	// Exactly one root span; its trace ID is printed in the run log.
	rootSpan, rootTrace := "", ""
	for _, e := range trace.TraceEvents {
		if e.Name == "fleet.sweep" && e.Phase == "X" {
			if rootSpan != "" {
				t.Fatal("more than one fleet.sweep root")
			}
			rootSpan, rootTrace = e.Args["span_id"], e.Args["trace_id"]
		}
	}
	if rootSpan == "" {
		t.Fatalf("no fleet.sweep span in the export:\n%s", data)
	}
	if !strings.Contains(out.String(), "trace "+rootTrace) {
		t.Fatalf("run log does not print the sweep trace ID %s:\n%s", rootTrace, out.String())
	}

	// Four shard spans under the root, one lane each.
	const shards = 4
	shardLanes := map[int]bool{}
	clientSpans := 0
	for _, e := range trace.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		switch {
		case e.Name == "fleet.shard":
			if e.Args["parent_id"] != rootSpan || e.Args["trace_id"] != rootTrace {
				t.Fatalf("fleet.shard not under the sweep root: %+v", e)
			}
			if e.TID < 1 || shardLanes[e.TID] {
				t.Fatalf("shard lane %d duplicated or out of range", e.TID)
			}
			shardLanes[e.TID] = true
		case strings.HasPrefix(e.Name, "storenet."):
			// Spans issued outside the sweep (the epilogue's stats fetch)
			// legitimately carry their own root trace; only wire calls made
			// on the sweep's behalf must share its trace ID.
			if e.Args["trace_id"] == rootTrace {
				clientSpans++
			}
		}
	}
	if len(shardLanes) != shards {
		t.Fatalf("span tree covers %d shards, want %d", len(shardLanes), shards)
	}
	if clientSpans == 0 {
		t.Fatal("no store-client spans in the export")
	}

	// Every shard lane carries the claim/compute/put instants.
	for lane := range shardLanes {
		seen := map[string]bool{}
		for _, e := range trace.TraceEvents {
			if e.Phase == "i" && e.TID == lane {
				seen[e.Name] = true
			}
		}
		for _, ev := range []string{"claim", "compute", "put"} {
			if !seen[ev] {
				t.Fatalf("shard lane %d missing %q instant (has %v)", lane, ev, seen)
			}
		}
	}

	// The per-shard timing table rides the run log.
	if !strings.Contains(out.String(), "shard\tprofile\tsource") &&
		!strings.Contains(out.String(), "store") {
		t.Fatalf("no timing table in the run log:\n%s", out.String())
	}
	tableRe := regexp.MustCompile(`(?m)^\d+ +a100/\d+ +computed`)
	if !tableRe.MatchString(out.String()) {
		t.Fatalf("timing table rows missing:\n%s", out.String())
	}
}

// TestCrossHostSweepPartition is the acceptance contract of the network
// store: two "processes" with separate local cache directories,
// coordinated only through a running stored daemon (here: the storenet
// server on a loopback listener), sweep the same fleet artefact and
// between them compute each shard exactly once — the combined write
// count equals the shard count — while both emit byte-identical
// artefacts.
func TestCrossHostSweepPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four-unit A100 sweep")
	}
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(storenet.NewServer(backing))
	defer srv.Close()

	// fig7 is the §VII-C four-unit A100 sweep: 4 shards.
	const shards = 4
	base := []string{"-scale", "quick", "-only", "fig7", "-store-url", srv.URL, "-lease-ttl", "1m"}

	type proc struct {
		out bytes.Buffer
		dir string
		err error
	}
	procs := [2]*proc{{dir: t.TempDir()}, {dir: t.TempDir()}}
	var wg sync.WaitGroup
	for i, p := range procs {
		args := append(append([]string{}, base...),
			"-cache-dir", t.TempDir(), // per-host local tier: nothing shared on disk
			"-owner", fmt.Sprintf("host-%d", i), "-out", p.dir)
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.err = run(args, &p.out)
		}(p)
	}
	wg.Wait()

	writesRe := regexp.MustCompile(`(\d+) writes`)
	total := 0
	for i, p := range procs {
		if p.err != nil {
			t.Fatalf("host %d: %v\n%s", i, p.err, p.out.String())
		}
		m := writesRe.FindStringSubmatch(p.out.String())
		if m == nil {
			t.Fatalf("host %d reported no cache stats:\n%s", i, p.out.String())
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if !strings.Contains(p.out.String(), "cache "+srv.URL) {
			t.Fatalf("host %d stats do not name the daemon:\n%s", i, p.out.String())
		}
	}
	if total != shards {
		t.Fatalf("combined writes = %d, want exactly %d (shards duplicated or lost across hosts)",
			total, shards)
	}
	if backing.Len() != shards {
		t.Fatalf("daemon indexes %d blobs, want %d", backing.Len(), shards)
	}

	a, b := readArtefacts(t, procs[0].dir), readArtefacts(t, procs[1].dir)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("artefact sets differ: %d vs %d", len(a), len(b))
	}
	for name, want := range a {
		got, ok := b[name]
		if !ok {
			t.Fatalf("second host missing %s", name)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s differs between the two hosts", name)
		}
	}
}

// TestStoreURLFlag: an unusable daemon URL fails fast, and -no-cache
// conflicts with the coordination flags that need the store.
func TestStoreURLFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-store-url", "not-a-url", "-out", t.TempDir()}, &out); err == nil {
		t.Error("bogus -store-url accepted")
	}
	// -no-cache disables a remote store too: the run must not touch the
	// daemon, so coordination flags conflict.
	err := run([]string{"-lease-ttl", "1m", "-store-url", "http://127.0.0.1:1",
		"-no-cache", "-out", t.TempDir()}, &out)
	if err == nil || !strings.Contains(err.Error(), "-no-cache") {
		t.Errorf("-lease-ttl with -no-cache'd -store-url: err=%v, want a -no-cache conflict", err)
	}
}

// TestGCFlag: -gc with a size bound of one byte must evict every blob
// the previous run stored and report it.
func TestGCFlag(t *testing.T) {
	cache := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-scale", "quick", "-only", "fig3c", "-cache-dir", cache,
		"-out", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 writes") {
		t.Fatalf("seed run wrote nothing:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-scale", "quick", "-only", "table1", "-cache-dir", cache,
		"-gc", "-max-store-bytes", "1", "-out", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gc: evicted 1 of 1 blobs") {
		t.Fatalf("gc did not evict the blob:\n%s", out.String())
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			t.Fatalf("blob %s survived -gc -max-store-bytes 1", e.Name())
		}
	}
}

// TestFlagValidation: coordination flags require the store they act on,
// and the error names the actual conflict.
func TestCoordinationFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-lease-ttl", "1m", "-out", t.TempDir()}, &out); err == nil {
		t.Error("-lease-ttl without -cache-dir accepted")
	}
	if err := run([]string{"-gc", "-out", t.TempDir()}, &out); err == nil {
		t.Error("-gc without -cache-dir accepted")
	}
	err := run([]string{"-gc", "-cache-dir", t.TempDir(), "-no-cache", "-out", t.TempDir()}, &out)
	if err == nil {
		t.Fatal("-gc with -no-cache accepted")
	}
	if !strings.Contains(err.Error(), "-no-cache") {
		t.Errorf("error %q blames -cache-dir although it was given; the conflict is -no-cache", err)
	}
	// A GC bound without -gc would bound nothing.
	for _, bound := range []string{"-max-store-bytes 1", "-max-store-age 1h"} {
		args := append(strings.Fields(bound), "-only", "table1", "-cache-dir", t.TempDir(), "-out", t.TempDir())
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "-gc") {
			t.Errorf("%s without -gc: err = %v, want a -gc error", bound, err)
		}
	}
}

// TestNoCacheFlag: -no-cache must neither read nor write the store.
func TestNoCacheFlag(t *testing.T) {
	cache := t.TempDir()
	dir := t.TempDir()
	var out bytes.Buffer
	args := []string{"-scale", "quick", "-only", "fig3c", "-cache-dir", cache, "-no-cache", "-out", dir}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "cache ") {
		t.Fatalf("-no-cache still reported store traffic:\n%s", out.String())
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("-no-cache wrote %d entries to the cache dir", len(entries))
	}
}

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "medium"}, &out); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestGeneratorIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range generators {
		if seen[g.id] {
			t.Fatalf("duplicate generator id %q", g.id)
		}
		seen[g.id] = true
	}
	if len(generators) != 18 {
		t.Fatalf("generators = %d, want 18 artefacts", len(generators))
	}
}

func TestRunAllArtefactsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every generator at quick scale (~20 s)")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-scale", "quick", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every generator produces at least one file; heatmaps and ranges
	// produce two (txt + csv).
	if len(entries) < len(generators) {
		t.Fatalf("artefact files = %d, want ≥ %d", len(entries), len(generators))
	}
	for _, name := range []string{
		"table2.md", "fig3_gh200_max.csv", "fig4_violins.txt",
		"fig5_scatter.csv", "fig7_ranges.txt", "fig9_boxplots.txt",
		"cluster_census.md", "cpu_vs_gpu.md", "ablations.md",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}

// TestRunConcurrentSubset generates a mix of campaign-backed, scatter
// and campaign-free artefacts concurrently (CI runs it under -race):
// every artefact is written and the timing lines keep generator order.
func TestRunConcurrentSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four quick campaigns and a scatter campaign")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	ids := []string{"table1", "fig3c", "fig4", "fig6", "cidegen", "cpuvsgpu"}
	if err := run([]string{"-scale", "quick", "-only", strings.Join(ids, ","), "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.md", "fig3_a100_max.txt", "fig4_violins.txt",
		"fig6_scatter.csv", "ci_degeneration.md", "cpu_vs_gpu.md"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	last := -1
	for _, id := range ids {
		at := strings.Index(out.String(), fmt.Sprintf("[%-8s]", id))
		if at <= last {
			t.Fatalf("timing line of %s missing or out of generator order:\n%s", id, out.String())
		}
		last = at
	}
}

// TestGeneratorsRunConcurrentlyInOrder swaps the generators for fakes:
// a slow one that finishes only after the fast one behind it, and two
// failing ones, the later of which fails first. All four run at once,
// the log comes out in generator order, and the error returned is the
// lowest-indexed generator's.
func TestGeneratorsRunConcurrentlyInOrder(t *testing.T) {
	saved := generators
	t.Cleanup(func() { generators = saved })

	// awaitOther bounds a fake's wait on another: run serially, the wait
	// would never end.
	awaitOther := func(ch chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("%s never happened: generators do not run concurrently", what)
		}
	}
	fastDone, laterFailed := make(chan struct{}), make(chan struct{})
	errEarly, errLate := errors.New("early generator failed"), errors.New("late generator failed")
	var ran [4]atomic.Bool
	fake := func(i int, body func(w io.Writer) error) func(*experiments.Suite, string, io.Writer) error {
		return func(_ *experiments.Suite, _ string, w io.Writer) error {
			ran[i].Store(true)
			return body(w)
		}
	}
	generators = []generator{
		{"slow", fake(0, func(w io.Writer) error {
			if err := awaitOther(fastDone, "the fast generator finishing"); err != nil {
				return err
			}
			fmt.Fprintln(w, "  slow log")
			return nil
		}), "slow fake"},
		{"fast", fake(1, func(w io.Writer) error {
			fmt.Fprintln(w, "  fast log")
			close(fastDone)
			return nil
		}), "fast fake"},
		{"failA", fake(2, func(w io.Writer) error {
			fmt.Fprintln(w, "  failA log")
			if err := awaitOther(laterFailed, "the later generator failing"); err != nil {
				return err
			}
			return errEarly
		}), "failing fake"},
		{"failB", fake(3, func(w io.Writer) error {
			defer close(laterFailed)
			fmt.Fprintln(w, "  failB log")
			return errLate
		}), "failing fake"},
	}

	var out bytes.Buffer
	err := run([]string{"-out", t.TempDir()}, &out)
	if !errors.Is(err, errEarly) || !strings.HasPrefix(err.Error(), "failA: ") {
		t.Fatalf("run error = %v, want the lowest-indexed failure (failA: %v)\n%s", err, errEarly, out.String())
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("generator %s never ran", generators[i].id)
		}
	}
	last := -1
	for _, line := range []string{"  slow log", "[slow    ]", "  fast log", "[fast    ]", "  failA log", "  failB log"} {
		at := strings.Index(out.String(), line)
		if at <= last {
			t.Fatalf("log line %q missing or out of generator order:\n%s", line, out.String())
		}
		last = at
	}
	if strings.Contains(out.String(), "[fail") {
		t.Errorf("a failed generator printed a timing line:\n%s", out.String())
	}
}

// TestWriteFileRemovesPartialArtefact: a fill that writes and then fails
// leaves no truncated artefact on disk.
func TestWriteFileRemovesPartialArtefact(t *testing.T) {
	dir := t.TempDir()
	errFill := errors.New("fill failed")
	err := writeFile(dir, "partial.md", func(w io.Writer) error {
		if _, err := io.WriteString(w, "| half a table |\n"); err != nil {
			return err
		}
		return errFill
	})
	if !errors.Is(err, errFill) {
		t.Fatalf("writeFile error = %v, want %v", err, errFill)
	}
	if _, err := os.Stat(filepath.Join(dir, "partial.md")); !os.IsNotExist(err) {
		t.Fatalf("a failed fill left partial.md behind (stat: %v)", err)
	}
}

// TestReconcileFlagValidation: -reconcile demands the tiered store whose
// journal it flushes.
func TestReconcileFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-reconcile", "-out", t.TempDir()}, &out); err == nil {
		t.Error("-reconcile without a store accepted")
	}
	if err := run([]string{"-reconcile", "-cache-dir", t.TempDir(), "-out", t.TempDir()}, &out); err == nil {
		t.Error("-reconcile with only a local store accepted (nothing to replay to)")
	}
}

// TestDegradedRunThenReconcile is the operator's outage story end to
// end through the CLI: a run whose daemon is unreachable completes via
// the local tier (deferring its writes and printing the resilience stats
// line) with no flag asking it to, and a later -reconcile run against
// the recovered daemon replays the journal. The resilience line's
// deferred count is the ledger: it equals the journal markers on disk
// and the blobs the reconcile replays.
func TestDegradedRunThenReconcile(t *testing.T) {
	cacheDir := t.TempDir()
	outDir := t.TempDir()

	// Phase 1: the daemon is down (a closed loopback port refuses
	// instantly). The run must still produce its artefact.
	var out bytes.Buffer
	args := []string{"-scale", "quick", "-only", "fig3c",
		"-store-url", "http://127.0.0.1:1", "-cache-dir", cacheDir, "-out", outDir}
	if err := run(args, &out); err != nil {
		t.Fatalf("degraded run failed: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(filepath.Join(outDir, "fig3_a100_max.txt")); err != nil {
		t.Fatalf("degraded run produced no artefact: %v", err)
	}
	m := regexp.MustCompile(`resilience: \d+ degraded reads, (\d+) deferred writes`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no resilience stats line after a degraded run:\n%s", out.String())
	}
	deferred, _ := strconv.Atoi(m[1])
	markers, err := filepath.Glob(filepath.Join(cacheDir, "pending", "*.pend"))
	if err != nil {
		t.Fatal(err)
	}
	if deferred == 0 || deferred != len(markers) {
		t.Fatalf("resilience line reports %d deferred writes, journal holds %d markers:\n%s",
			deferred, len(markers), out.String())
	}

	// Phase 2: the daemon is back; -reconcile flushes the journal.
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(storenet.NewServer(backing))
	defer srv.Close()
	out.Reset()
	if err := run([]string{"-reconcile", "-store-url", srv.URL,
		"-cache-dir", cacheDir, "-out", t.TempDir()}, &out); err != nil {
		t.Fatalf("-reconcile: %v\n%s", err, out.String())
	}
	if want := fmt.Sprintf("reconcile: replayed %d blobs", deferred); !strings.Contains(out.String(), want) {
		t.Fatalf("reconcile report lacks %q:\n%s", want, out.String())
	}
	if backing.Len() == 0 {
		t.Fatal("reconcile replayed nothing to the recovered daemon")
	}
	if strings.Contains(out.String(), "[fig3c") {
		t.Fatal("-reconcile generated artefacts; it must flush and exit")
	}
}

// TestStoreTokenFlag: -store-token needs a daemon to authenticate to,
// and when one is there the token threads through to every store
// request — a write-scope token completes a sweep against an authed
// daemon, a read-only one aborts it with the terminal auth error.
func TestStoreTokenFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-store-token", "x", "-out", t.TempDir()}, &out); err == nil ||
		!strings.Contains(err.Error(), "-store-token") {
		t.Errorf("-store-token without -store-url: err=%v, want a -store-token error", err)
	}
	if err := run([]string{"-store-token", "x", "-store-url", "http://127.0.0.1:1",
		"-no-cache", "-out", t.TempDir()}, &out); err == nil ||
		!strings.Contains(err.Error(), "-store-token") {
		t.Errorf("-store-token with -no-cache: err=%v, want a -store-token error", err)
	}

	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auth := storenet.NewTokenSet().
		Grant("sweeper", storenet.ScopeWrite, storenet.TokenLimits{}).
		Grant("viewer", storenet.ScopeRead, storenet.TokenLimits{})
	srv := httptest.NewServer(storenet.NewServerWith(backing, storenet.ServerOptions{Auth: auth}))
	defer srv.Close()

	out.Reset()
	if err := run([]string{"-scale", "quick", "-only", "fig3c", "-store-url", srv.URL,
		"-store-token", "sweeper", "-out", t.TempDir()}, &out); err != nil {
		t.Fatalf("authed sweep: %v\n%s", err, out.String())
	}
	if backing.Len() != 1 {
		t.Fatalf("authed sweep stored %d blobs, want 1", backing.Len())
	}

	// Scope ceilings surface as the terminal auth error: -gc needs
	// admin, so the write-scope token's GC request aborts the run with
	// ErrAuth (suite cache writes are fire-and-forget by design, so the
	// GC verb is where an under-scoped token reliably fails).
	out.Reset()
	err = run([]string{"-scale", "quick", "-only", "table1", "-store-url", srv.URL,
		"-store-token", "sweeper", "-gc", "-max-store-bytes", "1", "-out", t.TempDir()}, &out)
	if err == nil || !errors.Is(err, storenet.ErrAuth) {
		t.Fatalf("under-scoped -gc err = %v, want ErrAuth\n%s", err, out.String())
	}
	if backing.Len() != 1 {
		t.Fatalf("refused GC still evicted: %d blobs left", backing.Len())
	}
}

// TestStoreURLListValidation: the replication flags fail fast — a
// replica count below one, an explicit -replication (even the default
// value) without a member list to spread over, and a list with an empty
// member.
func TestStoreURLListValidation(t *testing.T) {
	var out bytes.Buffer
	cases := []struct{ args, want string }{
		{"-replication 0 -store-url http://a:1,http://b:1", "-replication"},
		{"-replication 3 -store-url http://127.0.0.1:1", "-replication"},
		{"-replication 2 -only table1 -store-url http://127.0.0.1:1", "-replication"},
		{"-store-url http://a:1,,http://b:1", "empty member"},
	}
	for _, c := range cases {
		err := run(append(strings.Fields(c.args), "-out", t.TempDir()), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%s) err = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestStoreURLListRouter: a comma-separated -store-url list replicates
// the sweep's blobs across the member daemons — the single campaign of
// fig3c lands on exactly -replication of the three members — and the
// run reports the router summary plus one health line per member. A
// dead member does not fail the run; it shows up in the health lines.
func TestStoreURLListRouter(t *testing.T) {
	backings := make([]*store.Store, 3)
	urls := make([]string, 3)
	for i := range backings {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(storenet.NewServer(st))
		defer srv.Close()
		backings[i], urls[i] = st, srv.URL
	}

	var out bytes.Buffer
	if err := run([]string{"-scale", "quick", "-only", "fig3c",
		"-store-url", strings.Join(urls, ","), "-replication", "2",
		"-out", t.TempDir()}, &out); err != nil {
		t.Fatalf("replicated sweep: %v\n%s", err, out.String())
	}
	total := 0
	for _, st := range backings {
		total += st.Len()
	}
	if total != 2 {
		t.Fatalf("campaign blob on %d member copies, want 2 (r=2)\n%s", total, out.String())
	}
	if s := out.String(); !strings.Contains(s, "router: 3/3 members healthy, r=2") {
		t.Fatalf("no router summary line:\n%s", s)
	}
	if got := strings.Count(out.String(), "  member "); got != 3 {
		t.Fatalf("%d member health lines, want 3:\n%s", got, out.String())
	}

	// One member gone: a fresh sweep (new seed, so the campaign really
	// computes and writes) still completes — writes fail over inside the
	// router — and the dead member's health line shows it holds nothing.
	// (Whether the line says healthy or unreachable depends on when its
	// breaker trips, so the assertion is the blob count, which always
	// degrades to zero.)
	out.Reset()
	before := backings[0].Len() + backings[1].Len()
	deadList := urls[0] + "," + urls[1] + ",http://127.0.0.1:1"
	if err := run([]string{"-scale", "quick", "-only", "fig3c", "-seed", "7",
		"-store-url", deadList, "-replication", "2",
		"-out", t.TempDir()}, &out); err != nil {
		t.Fatalf("sweep with a dead member: %v\n%s", err, out.String())
	}
	if after := backings[0].Len() + backings[1].Len(); after <= before {
		t.Fatalf("dead-member sweep persisted nothing to the live members (%d -> %d)\n%s",
			before, after, out.String())
	}
	if s := out.String(); !strings.Contains(s, "member http://127.0.0.1:1: ") ||
		!strings.Contains(s, ", 0 blobs") {
		t.Fatalf("dead member's health line missing or non-empty:\n%s", s)
	}
}
