package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/experiments"
	"golatest/internal/hwprofile"
	"golatest/internal/nvml"
	"golatest/internal/report"
	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
	"golatest/internal/stats"
	"golatest/internal/store"
	"golatest/internal/storenet"
	gpuwork "golatest/internal/workload"
)

// tracedRemoteRounds is how many remote-warm rounds the traced run makes
// through the CLI and then in process.
const tracedRemoteRounds = 20

// traced runs the workload once through the CLI and once in process,
// timing calls into each layer's public functions, then probes the layers
// the suite calls internally with the workload's own campaigns. It
// returns the per-layer metrics.
func (b *bench) traced(w *workload) (map[string]metric, error) {
	st, err := w.setup(b)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if err := st.close(); err != nil {
			b.fail("%v", err)
		}
	}()
	passes := 1
	if w.passLen > 1 {
		passes = tracedRemoteRounds
	}

	// The untraced reference: the same passes through the CLI.
	var untraced time.Duration
	var cli []cacheLine
	for i := 0; i < passes; i++ {
		b.attempted++
		inv, err := w.invoke(b, st)
		if err != nil {
			b.failed++
			b.fail("invocation %d: %v", i, err)
			continue
		}
		untraced += inv.elapsed()
		cli = append(cli, inv.cache)
	}
	b.rounds = b.attempted
	if len(cli) == 0 {
		return nil, errors.New("no CLI invocation succeeded")
	}

	m := map[string]metric{}
	lay := &layers{experiments: map[string]time.Duration{}}
	traced, _ := timeUnstolen(func() error {
		for i := 0; i < passes; i++ {
			b.attempted++
			if err := b.inProcessPass(w, st, lay, cli[min(i, len(cli)-1)]); err != nil {
				b.failed++
				b.fail("in-process pass %d: %v", i, err)
			}
		}
		return nil
	})
	lay.report(m, passes)
	m["obs.trace_overhead_s"] = metric{(traced - untraced).Seconds() / float64(passes), "s"}

	results, err := storedCampaigns(b.lastStore)
	if err != nil {
		return nil, err
	}
	for _, probe := range []func([]storedCampaign, map[string]metric) error{
		b.coreProbe, codecProbe, b.storenetProbe,
	} {
		if err := probe(results, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// layers accumulates what the in-process passes observed.
type layers struct {
	experiments  map[string]time.Duration // compute time per artefact id
	render       time.Duration
	gets, puts   []time.Duration
	distinctGets int
	bytesWritten int64
	fleetStore   time.Duration
	fleetWait    time.Duration
	fleetCompute time.Duration
	fleetHits    int
	fleetComp    int
	claimed      int
	waited       int
	stolen       int
}

// timedExperiments are the artefacts whose compute time is reported on
// its own; the rest add up to experiments.other_s.
var timedExperiments = []string{"table2", "fig5", "fig6", "fig7", "clusters", "ablations"}

func (l *layers) report(m map[string]metric, passes int) {
	n := float64(passes)
	other := time.Duration(0)
	for _, d := range l.experiments {
		other += d
	}
	for _, id := range timedExperiments {
		m["experiments."+id+"_s"] = metric{l.experiments[id].Seconds() / n, "s"}
		other -= l.experiments[id]
	}
	m["experiments.other_s"] = metric{other.Seconds() / n, "s"}
	m["report.render_s"] = metric{l.render.Seconds() / n, "s"}
	m["fleet.store_s"] = metric{l.fleetStore.Seconds() / n, "s"}
	m["fleet.wait_s"] = metric{l.fleetWait.Seconds() / n, "s"}
	m["fleet.compute_s"] = metric{l.fleetCompute.Seconds() / n, "s"}
	m["fleet.hits"] = metric{float64(l.fleetHits) / n, "count"}
	m["fleet.computed"] = metric{float64(l.fleetComp) / n, "count"}
	m["fleet.claimed"] = metric{float64(l.claimed) / n, "count"}
	m["fleet.waited"] = metric{float64(l.waited) / n, "count"}
	m["fleet.stolen"] = metric{float64(l.stolen) / n, "count"}
	m["store.get_calls"] = metric{float64(len(l.gets)) / n, "count"}
	m["store.get_p50_us"] = metric{quantile(micros(l.gets), 0.5), "us"}
	m["store.get_p90_us"] = metric{quantile(micros(l.gets), 0.9), "us"}
	m["store.put_calls"] = metric{float64(len(l.puts)) / n, "count"}
	m["store.put_p50_us"] = metric{quantile(micros(l.puts), 0.5), "us"}
	m["store.bytes_written"] = metric{float64(l.bytesWritten) / n, "B"}
	useful := 0.0
	if len(l.gets) > 0 {
		useful = float64(l.distinctGets) / float64(len(l.gets))
	}
	m["store.useful_get_ratio"] = metric{useful, "ratio"}
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	if len(out) == 0 {
		return []float64{0}
	}
	return out
}

// inProcessPass regenerates the workload's artefacts through
// experiments.Suite on the state the CLI pass left, with the store behind
// a timing decorator, and checks that its store traffic equals the CLI's.
func (b *bench) inProcessPass(w *workload, st *state, lay *layers, want cacheLine) error {
	dir := b.path("cache") // cold and remote start from an empty local store
	if st.daemon == nil && st.ref != "" {
		dir = st.cache // warm: the store its set-up filled
	}
	local, err := store.Open(dir)
	if err != nil {
		return err
	}
	var backend store.Backend = local
	var leaseTTL time.Duration
	if st.daemon != nil {
		leaseTTL = time.Minute // the rounds' -lease-ttl
		if backend, err = storenet.NewClient(st.daemon.url, storenet.ClientOptions{Cache: local}); err != nil {
			return err
		}
	}
	before := store.IndexedBytes(local.Index())
	tb := &timedBackend{Backend: backend, digests: map[string]bool{}}
	suite := experiments.NewSuite(experiments.Options{
		Scale:    experiments.ScaleQuick,
		Seed:     b.seed,
		Store:    tb,
		LeaseTTL: leaseTTL,
	})
	var ids map[string]bool
	if w.artefacts != "" {
		ids = map[string]bool{}
		for _, id := range strings.Split(w.artefacts, ",") {
			ids[id] = true
		}
	}
	var buf bytes.Buffer
	for _, a := range artefacts {
		if ids != nil && !ids[a.id] {
			continue
		}
		t0 := time.Now()
		render, err := a.compute(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", a.id, err)
		}
		t1 := time.Now()
		buf.Reset()
		if err := render(&buf); err != nil {
			return fmt.Errorf("render %s: %w", a.id, err)
		}
		lay.experiments[a.id] += t1.Sub(t0)
		lay.render += time.Since(t1)
	}

	c := backend.Counters()
	got := cacheLine{hits: int(c.Hits), misses: int(c.Misses), writes: int(c.Puts), blobs: backend.Len()}
	if got != want {
		return fmt.Errorf("in-process store traffic %s, CLI reported %s", got, want)
	}
	lay.gets = append(lay.gets, tb.gets...)
	lay.puts = append(lay.puts, tb.puts...)
	lay.distinctGets += len(tb.digests)
	lay.bytesWritten += store.IndexedBytes(local.Index()) - before
	for _, rep := range suite.SweepReports() {
		for _, sh := range rep.Shards {
			lay.fleetStore += time.Duration(sh.StoreNs)
			lay.fleetWait += time.Duration(sh.WaitNs)
			lay.fleetCompute += time.Duration(sh.ComputeNs)
		}
		lay.fleetHits += rep.Hits
		lay.fleetComp += rep.Computed
		lay.claimed += rep.Claimed
		lay.waited += rep.Waited
		lay.stolen += rep.Stolen
	}
	return nil
}

// timedBackend times every Get and Put the suite makes, and forwards the
// resilience view so fleet sweeps pick the same store-error policy as
// they would on the undecorated backend.
type timedBackend struct {
	store.Backend
	mu      sync.Mutex
	gets    []time.Duration
	puts    []time.Duration
	digests map[string]bool
}

func (t *timedBackend) Get(k store.Key) (*core.Result, bool) {
	start := time.Now()
	res, ok := t.Backend.Get(k)
	d := time.Since(start)
	t.mu.Lock()
	t.gets = append(t.gets, d)
	t.digests[k.Digest] = true
	t.mu.Unlock()
	return res, ok
}

func (t *timedBackend) Put(k store.Key, res *core.Result) error {
	start := time.Now()
	err := t.Backend.Put(k, res)
	d := time.Since(start)
	t.mu.Lock()
	t.puts = append(t.puts, d)
	t.mu.Unlock()
	return err
}

func (t *timedBackend) CanDegrade() bool {
	r, ok := t.Backend.(store.Resilient)
	return ok && r.CanDegrade()
}

func (t *timedBackend) Resilience() store.ResilienceStats {
	if r, ok := t.Backend.(store.Resilient); ok {
		return r.Resilience()
	}
	return store.ResilienceStats{}
}

func (t *timedBackend) Reconcile() (int, error) {
	if r, ok := t.Backend.(store.Resilient); ok {
		return r.Reconcile()
	}
	return 0, nil
}

// artefact is one generator of cmd/experiments, split into the suite
// call that computes it and the report call that renders it.
type artefact struct {
	id      string
	compute func(*experiments.Suite) (render func(io.Writer) error, err error)
}

// artefacts lists the CLI's generators in the CLI's order, with the same
// arguments.
var artefacts = []artefact{
	{"table1", func(*experiments.Suite) (func(io.Writer) error, error) {
		rows := experiments.Table1()
		return func(w io.Writer) error { return experiments.RenderTable1(w, rows) }, nil
	}},
	{"table2", func(s *experiments.Suite) (func(io.Writer) error, error) {
		rows, err := s.Table2()
		return func(w io.Writer) error { return experiments.RenderTable2(w, rows) }, err
	}},
	{"fig1", traceArtefact(experiments.Fig1CPUTrace)},
	{"fig2", traceArtefact(experiments.Fig2GPUTrace)},
	{"fig3a", heatmapArtefact(func(s *experiments.Suite) (*report.Heatmap, error) { return s.Fig3Heatmap("gh200", experiments.AggMin) })},
	{"fig3b", heatmapArtefact(func(s *experiments.Suite) (*report.Heatmap, error) { return s.Fig3Heatmap("gh200", experiments.AggMax) })},
	{"fig3c", heatmapArtefact(func(s *experiments.Suite) (*report.Heatmap, error) { return s.Fig3Heatmap("a100", experiments.AggMax) })},
	{"fig3d", heatmapArtefact(func(s *experiments.Suite) (*report.Heatmap, error) {
		return s.Fig3Heatmap("rtx6000", experiments.AggMax)
	})},
	{"fig4", func(s *experiments.Suite) (func(io.Writer) error, error) {
		panels, err := s.Fig4Violins()
		return func(w io.Writer) error {
			for _, p := range panels {
				if err := p.Increasing.Render(w, 48); err != nil {
					return err
				}
				if err := p.Decreasing.Render(w, 48); err != nil {
					return err
				}
			}
			return nil
		}, err
	}},
	{"fig5", scatterArtefact(core.Pair{InitMHz: 1770, TargetMHz: 1260})},
	{"fig6", scatterArtefact(core.Pair{InitMHz: 705, TargetMHz: 1095})},
	{"fig7", heatmapArtefact(func(s *experiments.Suite) (*report.Heatmap, error) { return s.RangeHeatmap(experiments.AggMin) })},
	{"fig8", heatmapArtefact(func(s *experiments.Suite) (*report.Heatmap, error) { return s.RangeHeatmap(experiments.AggMax) })},
	{"fig9", func(s *experiments.Suite) (func(io.Writer) error, error) {
		boxes, err := s.Fig9Boxes(3)
		return func(w io.Writer) error { return report.RenderBoxes(w, boxes) }, err
	}},
	{"clusters", func(s *experiments.Suite) (func(io.Writer) error, error) {
		rows, err := s.ClusterCensus()
		return tableOf(rows), err
	}},
	{"cidegen", func(*experiments.Suite) (func(io.Writer) error, error) {
		rows, err := experiments.CIDegeneration([]int{50, 200, 800, 3200, 12800})
		return tableOf(rows), err
	}},
	{"cpuvsgpu", func(s *experiments.Suite) (func(io.Writer) error, error) {
		rows, err := s.CPUvsGPU()
		return tableOf(rows), err
	}},
	{"ablations", func(*experiments.Suite) (func(io.Writer) error, error) {
		ramp, err := experiments.RampAblation([]int{0, 2, 8, 32}, 12)
		if err != nil {
			return nil, err
		}
		det, err := experiments.DetectionAblation(12)
		if err != nil {
			return nil, err
		}
		syn, err := experiments.SyncAblation([]float64{0, 100, 400, 1600}, 10)
		if err != nil {
			return nil, err
		}
		cores, err := experiments.CoreCountStudy([]int{1, 4, 16, 64}, 10)
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error {
			return errors.Join(tableOf(ramp)(w), tableOf(det)(w), tableOf(syn)(w), tableOf(cores)(w))
		}, nil
	}},
}

func traceArtefact(gen func() ([]experiments.TracePoint, error)) func(*experiments.Suite) (func(io.Writer) error, error) {
	return func(*experiments.Suite) (func(io.Writer) error, error) {
		trace, err := gen()
		return func(w io.Writer) error {
			_, err := io.WriteString(w, experiments.RenderTrace(trace))
			return err
		}, err
	}
}

func heatmapArtefact(gen func(*experiments.Suite) (*report.Heatmap, error)) func(*experiments.Suite) (func(io.Writer) error, error) {
	return func(s *experiments.Suite) (func(io.Writer) error, error) {
		h, err := gen(s)
		return func(w io.Writer) error { return errors.Join(h.Render(w), h.WriteCSV(w)) }, err
	}
}

func scatterArtefact(pair core.Pair) func(*experiments.Suite) (func(io.Writer) error, error) {
	return func(s *experiments.Suite) (func(io.Writer) error, error) {
		sc, err := s.FigScatter("gh200", pair, 300)
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error { return report.WriteScatterCSV(w, sc.SamplesMs, sc.OutlierFlag) }, nil
	}
}

// tableOf renders rows of a struct type through report.MarkdownTable,
// one column per field. The CLI formats each cell by hand, so the bytes
// differ, but the renderer does the same work.
func tableOf[T any](rows []T) func(io.Writer) error {
	return func(w io.Writer) error {
		var header []string
		data := make([][]string, len(rows))
		for i, r := range rows {
			v := reflect.ValueOf(r)
			for j := 0; j < v.NumField(); j++ {
				if i == 0 {
					header = append(header, v.Type().Field(j).Name)
				}
				data[i] = append(data[i], fmt.Sprint(v.Field(j).Interface()))
			}
		}
		return report.MarkdownTable(w, header, data)
	}
}

// storedCampaign is one campaign of the run's store.
type storedCampaign struct {
	key store.Key
	res *core.Result
	raw []byte // the blob as stored
}

func storedCampaigns(dir string) ([]storedCampaign, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	var out []storedCampaign
	for _, e := range st.Index() {
		k := store.Key{Digest: e.Digest, Profile: e.Profile, Instance: e.Instance}
		res, ok := st.Get(k)
		raw, rawOK := st.GetRaw(e.Digest)
		if !ok || !rawOK {
			return nil, fmt.Errorf("campaign %s does not read back", k)
		}
		out = append(out, storedCampaign{key: k, res: res, raw: raw})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("store %s is empty", dir)
	}
	return out, nil
}

// quickCampaign mirrors the suite's quick-scale campaign configuration
// (experiments.Suite keeps it unexported). coreProbe checks the mirror
// against the digests of the campaigns the run stored, so a drift fails
// the run instead of silently probing other campaigns.
func quickCampaign(p hwprofile.Profile, seed uint64) core.Config {
	freqs := map[string][]float64{
		"gh200":   {705, 1095, 1260, 1500, 1875, 1980},
		"a100":    {705, 885, 1065, 1215, 1410},
		"rtx6000": {750, 930, 990, 1110, 1650},
	}
	hints := map[string]int64{"gh200": 550_000_000, "a100": 120_000_000, "rtx6000": 420_000_000}
	return core.Config{
		Frequencies:      freqs[p.Key],
		MaxLatencyHintNs: hints[p.Key],
		Seed:             seed + 0x5eed + uint64(p.Instance),
		Blocks:           3,
		MinMeasurements:  28,
		MaxMeasurements:  48,
		RSECheckEvery:    10,
	}
}

func newRunner(p hwprofile.Profile, cfg core.Config) (*core.Runner, *clock.Clock, error) {
	clk := clock.New()
	dev, err := p.NewDevice(clk)
	if err != nil {
		return nil, nil, err
	}
	lib, err := nvml.New(dev)
	if err != nil {
		return nil, nil, err
	}
	h, err := lib.DeviceHandleByIndex(0)
	if err != nil {
		return nil, nil, err
	}
	r, err := core.NewRunner(h, cfg)
	return r, clk, err
}

// coreProbe drives one campaign per profile of the run's store through
// core's phases serially on a single device, timing each phase, and
// times the outlier filter, the summary and a direct launch of the
// phase-3 kernel shape on the samples and configs it produced.
func (b *bench) coreProbe(cs []storedCampaign, m map[string]metric) error {
	var phase1, probe, measure, filter, summarize, launch time.Duration
	var virtualNs int64
	var measurements, attempts, failures, valid, skipped, filtered, outliers, campaigns, launchedIters int
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c.key.Profile] {
			continue
		}
		seen[c.key.Profile] = true
		p, err := hwprofile.ByKey(c.key.Profile)
		if err != nil {
			return err
		}
		if c.key.Profile == "a100" {
			p = hwprofile.A100Instance(c.key.Instance)
		}
		cfg := quickCampaign(p, b.seed)
		if k, err := store.ProfileKey(p, cfg); err != nil || k.Digest != c.key.Digest {
			return fmt.Errorf("core probe: campaign config of %s no longer matches the suite's (%v)", c.key, err)
		}
		campaigns++
		r, clk, err := newRunner(p, cfg)
		if err != nil {
			return err
		}
		t := time.Now()
		p1, err := r.Phase1()
		phase1 += time.Since(t)
		if err != nil {
			return err
		}
		if len(p1.ValidPairs) == 0 {
			return fmt.Errorf("core probe: %s has no valid pair", c.key)
		}
		valid += len(p1.ValidPairs)
		// Probing adopts its estimate, so it runs on a second runner and
		// the first keeps the campaign's configured capture bound.
		pr2, clk2, err := newRunner(p, cfg)
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := pr2.Probe(p1); err != nil {
			return err
		}
		probe += time.Since(t)
		virtualNs += clk2.Now()
		rc := r.Config()
		for _, pair := range p1.ValidPairs {
			t := time.Now()
			pr, err := r.MeasurePair(pair, p1)
			measure += time.Since(t)
			if err != nil {
				return err
			}
			measurements += len(pr.Samples)
			attempts += pr.Attempts
			failures += pr.Failures
			if pr.Skipped {
				skipped++
			}
			if len(pr.Samples) >= 5*rc.Outlier.MinPtsFloor {
				t = time.Now()
				_, out, _ := cluster.FilterOutliers(pr.Samples, rc.Outlier)
				filter += time.Since(t)
				filtered += len(pr.Samples)
				outliers += len(out)
			}
			t = time.Now()
			stats.Summarize(pr.Kept)
			summarize += time.Since(t)
		}
		virtualNs += clk.Now()

		d, n, err := launchPhase3(p, rc, p1.ValidPairs[0])
		if err != nil {
			return err
		}
		launch += d
		launchedIters += n
	}
	if campaigns == 0 || launchedIters == 0 {
		return errors.New("core probe: no campaign to drive")
	}
	n := float64(campaigns)
	simHost := phase1 + probe + measure
	m["sim.virtual_s_per_host_s"] = metric{float64(virtualNs) / float64(simHost), "ratio"}
	m["sim.ns_per_iter"] = metric{float64(launch) / float64(launchedIters), "ns"}
	m["core.phase1_s"] = metric{phase1.Seconds() / n, "s"}
	m["core.probe_s"] = metric{probe.Seconds() / n, "s"}
	m["core.measure_pair_s"] = metric{measure.Seconds() / n, "s"}
	m["core.measurements"] = metric{float64(measurements) / n, "count"}
	m["core.attempts"] = metric{float64(attempts) / n, "count"}
	m["core.failures"] = metric{float64(failures) / n, "count"}
	m["core.accept_ratio"] = metric{float64(measurements) / float64(max(attempts, 1)), "ratio"}
	m["core.pairs_valid"] = metric{float64(valid) / n, "count"}
	m["core.pairs_skipped"] = metric{float64(skipped) / n, "count"}
	m["cluster.filter_us"] = metric{float64(filter) / float64(time.Microsecond) / n, "us"}
	m["cluster.outlier_ratio"] = metric{float64(outliers) / float64(max(filtered, 1)), "ratio"}
	m["stats.summarize_us"] = metric{float64(summarize) / float64(time.Microsecond) / n, "us"}
	return nil
}

// launchPhase3 launches the benchmark kernel of a measurement on a fresh
// device — delay, capture and confirmation regions at the pair's cycle
// budget — changes the clock after the delay region, and waits for it.
// It returns the host time and the iterations simulated (all blocks).
func launchPhase3(p hwprofile.Profile, rc core.Config, pair core.Pair) (time.Duration, int, error) {
	const launches = 20
	clk := clock.New()
	dev, err := p.NewDevice(clk)
	if err != nil {
		return 0, 0, err
	}
	cycles := gpuwork.CyclesForIterDuration(rc.IterTargetNs, min(pair.InitMHz, pair.TargetMHz))
	capture := int(float64(rc.MaxLatencyHintNs)*rc.CaptureSafety/rc.IterTargetNs) + 1
	spec := gpu.KernelSpec{Iters: rc.DelayIters + capture + rc.ConfirmIters, CyclesPerIter: cycles, Blocks: rc.Blocks}
	delayNs := int64(float64(rc.DelayIters) * gpuwork.IterDurationNs(cycles, pair.InitMHz))
	blocks := rc.Blocks
	if blocks == 0 {
		blocks = dev.Config().SMCount
	}
	var host time.Duration
	for i := 0; i < launches; i++ {
		// Settle at the initial clock before each launch.
		if _, err := dev.SetFrequency(pair.InitMHz); err != nil {
			return 0, 0, err
		}
		clk.Advance(int64(time.Second))
		t := time.Now()
		if _, err := dev.Launch(spec); err != nil {
			return 0, 0, err
		}
		clk.Advance(delayNs)
		if _, err := dev.SetFrequency(pair.TargetMHz); err != nil {
			return 0, 0, err
		}
		dev.Synchronize()
		host += time.Since(t)
	}
	return host, launches * spec.Iters * blocks, nil
}

// codecProbe times encoding each stored campaign into a blob and
// validating-decoding its stored bytes.
func codecProbe(cs []storedCampaign, m map[string]metric) error {
	const reps = 5
	var enc, dec []float64
	for _, c := range cs {
		for i := 0; i < reps; i++ {
			t := time.Now()
			if _, err := store.EncodeBlobV3(c.key, c.res); err != nil {
				return err
			}
			enc = append(enc, float64(time.Since(t))/float64(time.Microsecond))
			t = time.Now()
			if _, err := store.ValidateBlob(c.raw, c.key.Digest); err != nil {
				return err
			}
			dec = append(dec, float64(time.Since(t))/float64(time.Microsecond))
		}
	}
	m["store.encode_us"] = metric{quantile(enc, 0.5), "us"}
	m["store.decode_us"] = metric{quantile(dec, 0.5), "us"}
	return nil
}

// storenetProbe stores the run's campaigns in a fresh loopback stored
// through a cache-less client, then times remote Gets and lease claims.
func (b *bench) storenetProbe(cs []storedCampaign, m map[string]metric) (err error) {
	const getReps, leaseReps = 20, 5
	dir := b.path("probe")
	d, err := b.startDaemon(dir)
	if err != nil {
		return err
	}
	defer func() {
		err = errors.Join(err, d.stop(), os.RemoveAll(dir))
	}()
	c, err := storenet.NewClient(d.url, storenet.ClientOptions{})
	if err != nil {
		return err
	}
	var gets, puts, leases []time.Duration
	for _, sc := range cs {
		t := time.Now()
		if err := c.Put(sc.key, sc.res); err != nil {
			return err
		}
		puts = append(puts, time.Since(t))
	}
	for i := 0; i < getReps; i++ {
		for _, sc := range cs {
			t := time.Now()
			if _, ok := c.Get(sc.key); !ok {
				return fmt.Errorf("storenet probe: %s does not read back", sc.key)
			}
			gets = append(gets, time.Since(t))
		}
	}
	for i := 0; i < leaseReps; i++ {
		for _, sc := range cs {
			t := time.Now()
			l, ok, err := c.TryAcquire(sc.key.Digest, "perfbench", time.Minute)
			if err != nil || !ok {
				return fmt.Errorf("storenet probe: lease on %s: held=%v %v", sc.key, !ok, err)
			}
			leases = append(leases, time.Since(t))
			if err := l.Release(); err != nil {
				return err
			}
		}
	}
	tel := c.Telemetry()
	m["storenet.get_p50_us"] = metric{quantile(micros(gets), 0.5), "us"}
	m["storenet.get_p90_us"] = metric{quantile(micros(gets), 0.9), "us"}
	m["storenet.put_p50_us"] = metric{quantile(micros(puts), 0.5), "us"}
	m["storenet.lease_acquire_p50_us"] = metric{quantile(micros(leases), 0.5), "us"}
	m["storenet.retries"] = metric{float64(tel.Retries), "count"}
	m["storenet.bytes_in"] = metric{float64(tel.BytesReceived), "B"}
	m["storenet.bytes_out"] = metric{float64(tel.BytesSent), "B"}
	return nil
}
