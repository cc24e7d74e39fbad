// Command experiments regenerates every table and figure of the paper's
// evaluation section into a results directory: Markdown tables, text and
// CSV heatmaps, violin/box summaries, scatter exports, traces, and the
// §V-A / §VII-B / CPU-vs-GPU studies. The generators table below maps
// each artefact id to the code that produces it.
//
// Usage:
//
//	experiments [-scale quick|full] [-only <id>] [-out results/]
//	            [-cache-dir DIR] [-store-url URL[,URL...]] [-replication N]
//	            [-store-token T] [-no-cache] [-seed N]
//	            [-lease-ttl D] [-owner ID] [-reconcile] [-trace-out FILE]
//	            [-gc [-max-store-bytes N] [-max-store-age D]]
//
// Artefact ids: table1 table2 fig1 fig2 fig3a fig3b fig3c fig3d fig4
// fig5 fig6 fig7 fig8 fig9 clusters cidegen cpuvsgpu ablations (default:
// all).
//
// The selected artefacts are generated concurrently, their measurement
// steps sharing one process-wide pool of GOMAXPROCS workers. Each
// artefact's log lines are printed in the order above once all are
// done, so the per-artefact seconds in the log overlap and do not sum
// to the run's wall clock. The artefacts themselves are identical to a
// serial run's, at any GOMAXPROCS.
//
// With -cache-dir, campaign results persist across runs as
// content-addressed blobs (see internal/store): a repeated run with the
// same scale and seed recomputes nothing and emits byte-identical
// artefacts, and after a config change or an interrupt only the missing
// campaigns run. -no-cache ignores the directory for one run.
//
// With -store-url, the store is a stored daemon instead of (or in front
// of) a local directory: campaigns read from and write to the daemon
// over HTTP (see internal/storenet), so runs on different hosts share
// one store. Combining -store-url with -cache-dir adds a local
// write-through tier: local hits skip the network, remote hits heal the
// local copy.
//
// A comma-separated -store-url list replicates instead: the store
// becomes a consistent-hashing router over every listed daemon (see
// internal/storenet/router), writing each campaign to its -replication
// preferred members (default 2) and failing reads and lease claims over
// to ring successors when a member is down. A single URL keeps the
// plain client path — the list form changes nothing until there is
// actually more than one member. With -cache-dir the directory is the
// router's local read-through tier. The end-of-run stats include a
// per-member health line.
//
// With -lease-ttl, every campaign is additionally claimed through an
// advisory store lease before it is computed, so several processes
// pointed at the same -cache-dir — or several hosts pointed at the same
// -store-url — partition the work instead of duplicating it (each still
// finishes with every result). A sweep skips the shards a live peer has
// claimed and comes back to them once its other shards are done, so
// cooperating hosts split the work without being told how. -gc bounds
// the store after the run: -max-store-bytes evicts least-recently-used
// blobs past the size cap, -max-store-age evicts blobs idle longer than
// the bound, and crash debris (orphaned temp files, expired leases) is
// swept either way; with -store-url the pass runs on the daemon's store.
// The two bounds are rejected without -gc. To bound a shared store
// without operator action, run stored with -gc-every.
//
// A store write or claim failure aborts a sweep, unless the store has a
// local fallback tier (-store-url combined with -cache-dir): then the
// sweep degrades around it (unleased recompute on a failed claim,
// unpersisted in-memory result on a failed write). A run that degraded
// prints a resilience stats line; writes the outage deferred into the
// local tier's pending journal are replayed to the daemon automatically
// when it returns, or explicitly with -reconcile, which flushes the
// journal and exits without generating artefacts.
//
// With -trace-out, the run records every fleet sweep as a span tree —
// one root span per sweep, one child span per shard (claim, compute,
// put events), plus a span per store-client wire operation — and writes
// the whole thing as Chrome trace_event JSON on exit. Load the file in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing to see where a
// sweep's wall-clock time went; each sweep also prints its trace ID and
// a per-shard timing table, and a stored daemon's /debug/ops flight
// recorder shows the same trace IDs against the requests it served.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"golatest/internal/core"
	"golatest/internal/experiments"
	"golatest/internal/obs"
	"golatest/internal/report"
	"golatest/internal/store"
	"golatest/internal/storenet"
	"golatest/internal/storenet/router"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type generator struct {
	id  string
	fn  func(*experiments.Suite, string, io.Writer) error
	doc string
}

var generators = []generator{
	{"table1", genTable1, "Table I — hardware setup"},
	{"table2", genTable2, "Table II — switching latency summary"},
	{"fig1", genFig1, "Fig. 1 — CPU transition trace"},
	{"fig2", genFig2, "Fig. 2 — CPU→ACC request trace"},
	{"fig3a", heatmapGen("gh200", experiments.AggMin), "Fig. 3a — GH200 min heatmap"},
	{"fig3b", heatmapGen("gh200", experiments.AggMax), "Fig. 3b — GH200 max heatmap"},
	{"fig3c", heatmapGen("a100", experiments.AggMax), "Fig. 3c — A100 max heatmap"},
	{"fig3d", heatmapGen("rtx6000", experiments.AggMax), "Fig. 3d — RTX max heatmap"},
	{"fig4", genFig4, "Fig. 4 — direction violins"},
	{"fig5", scatterGen(core.Pair{InitMHz: 1770, TargetMHz: 1260}, "fig5"), "Fig. 5 — multi-cluster scatter"},
	{"fig6", scatterGen(core.Pair{InitMHz: 705, TargetMHz: 1095}, "fig6"), "Fig. 6 — single-cluster scatter"},
	{"fig7", rangeGen(experiments.AggMin, "fig7"), "Fig. 7 — A100 min ranges"},
	{"fig8", rangeGen(experiments.AggMax, "fig8"), "Fig. 8 — A100 max ranges"},
	{"fig9", genFig9, "Fig. 9 — per-unit boxplots"},
	{"clusters", genClusters, "§VII-B — cluster census"},
	{"cidegen", genCIDegen, "§V-A — CI degeneration"},
	{"cpuvsgpu", genCPUvsGPU, "§VII — CPU vs GPU scale"},
	{"ablations", genAblations, "ablations — ramp / detection band / sync error"},
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scaleFlag = fs.String("scale", "quick", "campaign scale: quick or full")
		only      = fs.String("only", "", "comma-separated artefact ids (default all)")
		outDir    = fs.String("out", "results", "output directory")
		seed      = fs.Uint64("seed", 2025, "campaign seed: offsets host-side randomness (PTP link sampling) only; device noise is seeded by the hardware profile, so distinct seeds are not independent replications")
		cacheDir  = fs.String("cache-dir", "", "persist campaign results as content-addressed blobs in this directory; warm re-runs recompute nothing")
		storeURL  = fs.String("store-url", "", "use stored daemon(s) as the campaign store: one base URL (e.g. http://host:8417), or a comma-separated list to replicate across a consistent-hashing router; with -cache-dir the directory becomes a local write-through (single URL) or read-through (list) tier")
		replicas  = fs.Int("replication", 2, "with a multi-member -store-url list: copies of each campaign blob to keep (clamped to the member count)")
		storeTok  = fs.String("store-token", "", "bearer token for a -store-url daemon running with -tokens (needs write scope for sweeps; 401/403 are terminal — fix the token, they are never retried or journaled)")
		noCache   = fs.Bool("no-cache", false, "ignore -cache-dir and -store-url for this run: neither read nor write any store")
		leaseTTL  = fs.Duration("lease-ttl", 0, "claim sweep shards via store leases so concurrent processes sharing -cache-dir partition the work; the TTL should exceed one campaign's runtime (0 = off)")
		owner     = fs.String("owner", "", "lease owner id for -lease-ttl (default: derived from host and pid)")
		gc        = fs.Bool("gc", false, "after the run, garbage-collect the store per -max-store-bytes/-max-store-age and sweep crash debris")
		maxBytes  = fs.Int64("max-store-bytes", 0, "with -gc: evict least-recently-used blobs until the store fits this many bytes (0 = no size bound)")
		maxAge    = fs.Duration("max-store-age", 0, "with -gc: evict blobs not accessed for longer than this (0 = no age bound)")
		reconcile = fs.Bool("reconcile", false, "replay the local tier's pending journal (writes deferred during a daemon outage) to -store-url, print what was flushed, and exit")
		traceOut  = fs.String("trace-out", "", "record fleet sweeps and store-client operations as spans and write them to this file as Chrome trace_event JSON (view in Perfetto or chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"max-store-bytes", "max-store-age"} {
		if set[name] && !*gc {
			return fmt.Errorf("-%s needs -gc to run the pass", name)
		}
	}
	scale := experiments.ScaleQuick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = experiments.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	// The tracer is shared by the suite's fleet sweeps and the store
	// client, so sweep shards and the wire requests they issue land in
	// one trace. Seeded from the campaign seed, the run draws the same
	// sequence of IDs every time; which span gets which ID follows the
	// scheduling of the concurrently generated artefacts.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.New(obs.Options{Seed: *seed})
	}

	// The backend is (in order of preference) a stored daemon with an
	// optional local write-through tier, a local store directory, or
	// nothing. A nil backend must stay a true nil interface — a typed
	// nil would defeat every Store != nil check downstream.
	var backend store.Backend
	var localStore *store.Store
	if *cacheDir != "" && !*noCache {
		var err error
		if localStore, err = store.Open(*cacheDir); err != nil {
			return err
		}
		backend = localStore
	}
	var memberURLs []string
	if *storeURL != "" {
		for _, u := range strings.Split(*storeURL, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				return fmt.Errorf("-store-url %q: empty member in list", *storeURL)
			}
			memberURLs = append(memberURLs, u)
		}
	}
	if *replicas < 1 {
		return fmt.Errorf("-replication must be at least 1, got %d", *replicas)
	}
	if set["replication"] && len(memberURLs) < 2 {
		return fmt.Errorf("-replication needs a comma-separated multi-member -store-url list (one daemon holds one copy)")
	}
	// Client and router diagnostics (breaker edges, failovers, reconcile
	// replays) go to stderr as structured lines; artefact output stays on
	// out.
	diagLog := slog.New(slog.NewTextHandler(os.Stderr, nil))
	switch {
	case len(memberURLs) == 1 && !*noCache:
		// One daemon: the plain client path, with -cache-dir as its
		// write-through tier. Identical to the pre-list behavior.
		client, err := storenet.NewClient(memberURLs[0], storenet.ClientOptions{
			Cache:  localStore,
			Token:  *storeTok,
			Tracer: tracer,
			Logger: diagLog,
		})
		if err != nil {
			return err
		}
		backend = client
	case len(memberURLs) > 1 && !*noCache:
		// Several daemons: cache-less clients under a replicating router.
		// The local tier (if any) belongs to the router, not to any one
		// member — a member's copy must mean that member has the bytes.
		members := make([]store.Backend, 0, len(memberURLs))
		for _, u := range memberURLs {
			c, err := storenet.NewClient(u, storenet.ClientOptions{
				Token:  *storeTok,
				Tracer: tracer,
				Logger: diagLog,
			})
			if err != nil {
				return fmt.Errorf("-store-url member %s: %w", u, err)
			}
			members = append(members, c)
		}
		rt, err := router.New(members, router.Options{
			Replication: *replicas,
			Local:       localStore,
			Tracer:      tracer,
			Logger:      diagLog,
		})
		if err != nil {
			return err
		}
		backend = rt
	}
	if *storeTok != "" && (*storeURL == "" || *noCache) {
		return fmt.Errorf("-store-token needs -store-url (and no -no-cache): there is no daemon to authenticate to")
	}

	if *reconcile {
		r, ok := backend.(store.Resilient)
		if !ok || !r.CanDegrade() {
			return fmt.Errorf("-reconcile requires -store-url with -cache-dir (the pending journal lives in the local tier)")
		}
		before := r.Resilience()
		n, err := r.Reconcile()
		fmt.Fprintf(out, "reconcile: replayed %d blobs to %s, %d pending\n",
			n, backend.Location(), r.Resilience().Pending)
		if err != nil {
			return fmt.Errorf("reconcile (after %d of %d pending): %w", n, before.Pending, err)
		}
		return nil
	}

	if backend == nil {
		needsStore := ""
		switch {
		case *leaseTTL > 0:
			needsStore = "-lease-ttl"
		case *gc:
			needsStore = "-gc"
		}
		if needsStore != "" {
			if *noCache && (*cacheDir != "" || *storeURL != "") {
				return fmt.Errorf("%s conflicts with -no-cache (the run would not open the store)", needsStore)
			}
			return fmt.Errorf("%s requires -cache-dir or -store-url (leases and GC live in the store)", needsStore)
		}
	}

	suite := experiments.NewSuite(experiments.Options{
		Scale:      scale,
		Seed:       *seed,
		Store:      backend,
		LeaseTTL:   *leaseTTL,
		LeaseOwner: *owner,
		Tracer:     tracer,
	})
	var picked []generator
	for _, g := range generators {
		if len(wanted) == 0 || wanted[g.id] {
			picked = append(picked, g)
		}
	}
	logs := make([]bytes.Buffer, len(picked))
	gens := make([]func() error, len(picked))
	for i, g := range picked {
		gens[i] = func() error {
			start := time.Now()
			if err := g.fn(suite, *outDir, &logs[i]); err != nil {
				return fmt.Errorf("%s: %w", g.id, err)
			}
			fmt.Fprintf(&logs[i], "[%-8s] %-40s %8.2fs\n", g.id, g.doc, time.Since(start).Seconds())
			return nil
		}
	}
	genErr := all(gens...)
	for i := range logs {
		out.Write(logs[i].Bytes())
	}
	if genErr != nil {
		return genErr
	}
	if backend != nil {
		c := backend.Counters()
		fmt.Fprintf(out, "cache %s: %d hits, %d misses, %d writes, %d blobs\n",
			backend.Location(), c.Hits, c.Misses, c.Puts, backend.Len())
		if *leaseTTL > 0 {
			ct := suite.Contention()
			fmt.Fprintf(out, "leases: %d claimed, %d waited, %d stolen\n",
				ct.Claimed, ct.Waited, ct.Stolen)
		}
		// The resilience line only appears when an outage was actually
		// absorbed somewhere — a clean run stays clean.
		if r, ok := backend.(store.Resilient); ok {
			rs, fallbacks := r.Resilience(), suite.Degraded()
			if rs.Degraded+rs.Deferred+rs.Reconciled+rs.Pending+fallbacks > 0 {
				fmt.Fprintf(out, "resilience: %d degraded reads, %d deferred writes, %d reconciled, %d pending; %d sweep fallbacks\n",
					rs.Degraded, rs.Deferred, rs.Reconciled, rs.Pending, fallbacks)
			}
		}
		if *gc {
			gs, err := backend.GC(store.GCPolicy{MaxBytes: *maxBytes, MaxAge: *maxAge})
			if err != nil {
				return fmt.Errorf("gc: %w", err)
			}
			fmt.Fprintf(out, "gc: evicted %d of %d blobs, %d -> %d bytes, swept %d tmp + %d leases\n",
				gs.Evicted, gs.Scanned, gs.BytesBefore, gs.BytesAfter,
				gs.TmpRemoved, gs.LeasesRemoved)
		}
		// The wire-level telemetry line mirrors what the client's span
		// stream and the daemon's /metrics see; printed only when the run
		// actually went over the network.
		if c, ok := backend.(*storenet.Client); ok {
			tel := c.Telemetry()
			fmt.Fprintf(out, "client: %d retries, %d rate-limited, %d breaker opens, %d deferred, %d replayed, %d KiB out, %d KiB in\n",
				tel.Retries, tel.RateLimited, tel.BreakerOpened, tel.DeferredPuts,
				tel.ReconcileReplays, tel.BytesSent/1024, tel.BytesReceived/1024)
		}
		// The replication lines mirror the router's counters: one summary,
		// then one health line per member so an operator sees at a glance
		// which daemon a degraded run routed around.
		if rt, ok := backend.(*router.Router); ok {
			rs := rt.ReplicationStats()
			fmt.Fprintf(out, "router: %d/%d members healthy, r=%d, %d failovers, %d under-replicated puts, %d read repairs, %d pending\n",
				rs.Healthy, rs.Members, rs.Replication, rs.Failovers,
				rs.UnderReplicatedPuts, rs.ReadRepairs, rs.PendingRepairs)
			for _, m := range rt.MemberHealth() {
				state := "healthy"
				if !m.Healthy {
					state = "unreachable"
				}
				fmt.Fprintf(out, "  member %s: %s, %d blobs\n", m.Location, state, m.Blobs)
			}
		}
	}
	if tracer != nil {
		for i, rep := range suite.SweepReports() {
			fmt.Fprintf(out, "sweep %d: trace %s, %d shards (%d hits, %d computed)\n",
				i, rep.TraceID, len(rep.Shards), rep.Hits, rep.Computed)
			if err := rep.WriteTimingTable(out); err != nil {
				return err
			}
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d spans -> %s\n", len(tracer.Snapshot()), *traceOut)
	}
	return nil
}

// all runs every fn in its own goroutine, waits for them all and returns
// the lowest-indexed error.
func all(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for i, fn := range fns {
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates dir/name and fills it; if fill fails, the partial
// file is removed so no truncated artefact is left behind.
func writeFile(dir, name string, fill func(io.Writer) error) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

func genTable1(_ *experiments.Suite, dir string, _ io.Writer) error {
	return writeFile(dir, "table1.md", func(w io.Writer) error {
		return experiments.RenderTable1(w, experiments.Table1())
	})
}

func genTable2(s *experiments.Suite, dir string, _ io.Writer) error {
	rows, err := s.Table2()
	if err != nil {
		return err
	}
	return writeFile(dir, "table2.md", func(w io.Writer) error {
		return experiments.RenderTable2(w, rows)
	})
}

func genFig1(_ *experiments.Suite, dir string, _ io.Writer) error {
	trace, err := experiments.Fig1CPUTrace()
	if err != nil {
		return err
	}
	return writeFile(dir, "fig1_cpu_trace.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, experiments.RenderTrace(trace))
		return err
	})
}

func genFig2(_ *experiments.Suite, dir string, _ io.Writer) error {
	trace, err := experiments.Fig2GPUTrace()
	if err != nil {
		return err
	}
	return writeFile(dir, "fig2_acc_trace.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, experiments.RenderTrace(trace))
		return err
	})
}

func heatmapGen(key string, agg experiments.Agg) func(*experiments.Suite, string, io.Writer) error {
	return func(s *experiments.Suite, dir string, _ io.Writer) error {
		h, err := s.Fig3Heatmap(key, agg)
		if err != nil {
			return err
		}
		base := fmt.Sprintf("fig3_%s_%s", key, agg)
		if err := writeFile(dir, base+".txt", h.Render); err != nil {
			return err
		}
		return writeFile(dir, base+".csv", h.WriteCSV)
	}
}

func genFig4(s *experiments.Suite, dir string, _ io.Writer) error {
	panels, err := s.Fig4Violins()
	if err != nil {
		return err
	}
	return writeFile(dir, "fig4_violins.txt", func(w io.Writer) error {
		for _, p := range panels {
			fmt.Fprintf(w, "== %s ==\n", p.Model)
			if err := p.Increasing.Render(w, 48); err != nil {
				return err
			}
			if err := p.Decreasing.Render(w, 48); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}

func scatterGen(pair core.Pair, base string) func(*experiments.Suite, string, io.Writer) error {
	return func(s *experiments.Suite, dir string, logw io.Writer) error {
		sc, err := s.FigScatter("gh200", pair, 300)
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "  %s %s: %d clusters, silhouette %.2f\n",
			base, pair, sc.NumClusters, sc.Silhouette)
		return writeFile(dir, base+"_scatter.csv", func(w io.Writer) error {
			return report.WriteScatterCSV(w, sc.SamplesMs, sc.OutlierFlag)
		})
	}
}

func rangeGen(agg experiments.Agg, base string) func(*experiments.Suite, string, io.Writer) error {
	return func(s *experiments.Suite, dir string, _ io.Writer) error {
		h, err := s.RangeHeatmap(agg)
		if err != nil {
			return err
		}
		if err := writeFile(dir, base+"_ranges.txt", h.Render); err != nil {
			return err
		}
		return writeFile(dir, base+"_ranges.csv", h.WriteCSV)
	}
}

func genFig9(s *experiments.Suite, dir string, _ io.Writer) error {
	boxes, err := s.Fig9Boxes(3)
	if err != nil {
		return err
	}
	return writeFile(dir, "fig9_boxplots.txt", func(w io.Writer) error {
		return report.RenderBoxes(w, boxes)
	})
}

func genClusters(s *experiments.Suite, dir string, _ io.Writer) error {
	rows, err := s.ClusterCensus()
	if err != nil {
		return err
	}
	return writeFile(dir, "cluster_census.md", func(w io.Writer) error {
		header := []string{"Model", "Pairs sampled", "Single-cluster share",
			"Max clusters", "Mean silhouette (multi)"}
		var data [][]string
		for _, r := range rows {
			data = append(data, []string{
				r.Model, fmt.Sprint(r.Pairs),
				fmt.Sprintf("%.0f%%", 100*r.SingleClusterShare),
				fmt.Sprint(r.MaxClusters),
				fmt.Sprintf("%.2f", r.MeanSilhouette),
			})
		}
		return report.MarkdownTable(w, header, data)
	})
}

func genCIDegen(_ *experiments.Suite, dir string, _ io.Writer) error {
	rows, err := experiments.CIDegeneration([]int{50, 200, 800, 3200, 12800})
	if err != nil {
		return err
	}
	return writeFile(dir, "ci_degeneration.md", func(w io.Writer) error {
		header := []string{"Phase-1 n", "CI band [µs]", "In-band share", "Mean detect iters", "Failed"}
		var data [][]string
		for _, r := range rows {
			data = append(data, []string{
				fmt.Sprint(r.N), fmt.Sprintf("%.4f", r.BandUs),
				fmt.Sprintf("%.1f%%", 100*r.InBandShare),
				fmt.Sprintf("%.1f", r.MeanDetectIters), fmt.Sprint(r.FailedDetections),
			})
		}
		return report.MarkdownTable(w, header, data)
	})
}

func genAblations(_ *experiments.Suite, dir string, _ io.Writer) error {
	var (
		ramp  []experiments.RampAblationRow
		det   []experiments.DetectionAblationRow
		syn   []experiments.SyncAblationRow
		cores []experiments.CoreCountRow
	)
	err := all(
		func() (err error) { ramp, err = experiments.RampAblation([]int{0, 2, 8, 32}, 12); return err },
		func() (err error) { det, err = experiments.DetectionAblation(12); return err },
		func() (err error) { syn, err = experiments.SyncAblation([]float64{0, 100, 400, 1600}, 10); return err },
		func() (err error) { cores, err = experiments.CoreCountStudy([]int{1, 4, 16, 64}, 10); return err },
	)
	if err != nil {
		return err
	}
	return writeFile(dir, "ablations.md", func(w io.Writer) error {
		fmt.Fprintln(w, "## Transition shape (ramp steps)")
		if err := report.MarkdownTable(w,
			[]string{"Ramp steps", "Mean err [ms]", "Max err [ms]", "Discard share"},
			rowsOf(len(ramp), func(i int) []string {
				r := ramp[i]
				return []string{fmt.Sprint(r.RampSteps), fmt.Sprintf("%.3f", r.MeanErrMs),
					fmt.Sprintf("%.3f", r.MaxErrMs), fmt.Sprintf("%.2f", r.FailShare)}
			})); err != nil {
			return err
		}
		fmt.Fprintln(w, "\n## Detection band (2σ population vs CI of the mean)")
		if err := report.MarkdownTable(w,
			[]string{"Mode", "Accepted share", "Mean err [ms]"},
			rowsOf(len(det), func(i int) []string {
				r := det[i]
				return []string{r.Mode, fmt.Sprintf("%.2f", r.AcceptedShare),
					fmt.Sprintf("%.3f", r.MeanErrMs)}
			})); err != nil {
			return err
		}
		fmt.Fprintln(w, "\n## Timer-sync link asymmetry")
		if err := report.MarkdownTable(w,
			[]string{"Asymmetry [µs]", "Mean bias [ms]"},
			rowsOf(len(syn), func(i int) []string {
				r := syn[i]
				return []string{fmt.Sprintf("%.0f", r.AsymmetryUs), fmt.Sprintf("%.3f", r.MeanBiasMs)}
			})); err != nil {
			return err
		}
		fmt.Fprintln(w, "\n## Core count vs detection band (§V-A small accelerators)")
		return report.MarkdownTable(w,
			[]string{"Cores", "Phase-1 n", "CI accepted", "2σ accepted"},
			rowsOf(len(cores), func(i int) []string {
				r := cores[i]
				return []string{fmt.Sprint(r.Cores), fmt.Sprint(r.Phase1N),
					fmt.Sprintf("%.2f", r.CIAcceptedShare),
					fmt.Sprintf("%.2f", r.SigmaAcceptedShare)}
			}))
	})
}

func rowsOf(n int, f func(int) []string) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func genCPUvsGPU(s *experiments.Suite, dir string, _ io.Writer) error {
	rows, err := s.CPUvsGPU()
	if err != nil {
		return err
	}
	return writeFile(dir, "cpu_vs_gpu.md", func(w io.Writer) error {
		header := []string{"Platform", "Median [ms]", "Max [ms]"}
		var data [][]string
		for _, r := range rows {
			data = append(data, []string{
				r.Platform, fmt.Sprintf("%.3f", r.MedianMs), fmt.Sprintf("%.3f", r.MaxMs),
			})
		}
		return report.MarkdownTable(w, header, data)
	})
}
