package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// remoteOnly is the artefact subset of a remote-warm round: every
// artefact whose campaigns go through the store.
const remoteOnly = "table1,table2,fig3a,fig3b,fig3c,fig3d,fig4,fig7,fig8,fig9,cpuvsgpu"

// workload is one benchmark scenario: a set-up that builds its starting
// state, and an invocation that runs the CLI once against that state and
// checks the outcome.
type workload struct {
	// setups is how many times set-up runs; setup_s is their median.
	// All but the first state are discarded unless fresh is set.
	setups int
	// fresh makes every invocation consume its own set-up state.
	fresh bool
	// passLen is the number of invocations one pass of the workload
	// makes; wall_s and cpu_s are per pass, and a run makes at least one.
	passLen int
	setup   func(b *bench) (*state, error)
	invoke  func(b *bench, st *state) (invocation, error)
	// artefacts lists what the in-process traced pass regenerates;
	// "" means all of them.
	artefacts string
}

// state is a workload's starting point.
type state struct {
	cache  string  // local store directory
	ref    string  // cold artefacts of the benchmark's seed ("" on cold-quick)
	blobs  int     // campaigns the cold run stored
	daemon *daemon // remote-warm's seeded stored
}

func (st *state) close() error {
	if st.daemon == nil {
		return nil
	}
	d := st.daemon
	st.daemon = nil
	return d.stop()
}

var workloads = map[string]*workload{
	"cold-quick": {
		// Set-up is a CLI start of a few milliseconds, so it is repeated
		// enough for a steady median.
		setups: 15, fresh: true, passLen: 1,
		setup: setupCold, invoke: invokeCold,
	},
	"warm-quick": {
		// Set-up is a whole cold run (over 20 s on two cores), so it runs
		// once; being long, that one measurement is already steady, and a
		// second would not fit the benchmark's time budget.
		setups: 1, passLen: 1,
		setup: setupWarm, invoke: invokeWarm,
	},
	"remote-warm": {
		// 100 rounds put ten samples beyond the p90.
		setups: 2, passLen: 100,
		setup: setupRemote, invoke: invokeRemote,
		artefacts: remoteOnly,
	},
}

// setupCold initialises an empty store directory through the CLI, the
// way a first run would find it.
func setupCold(b *bench) (*state, error) {
	st := &state{cache: b.path("cache")}
	inv, err := b.experiments("-only", "table1", "-cache-dir", st.cache, "-out", b.path("out"))
	if err != nil {
		return nil, err
	}
	if n := inv.cache.blobs; n != 0 {
		return nil, fmt.Errorf("fresh store holds %d blobs", n)
	}
	return st, nil
}

func invokeCold(b *bench, st *state) (invocation, error) {
	out := b.path("out")
	inv, err := b.experiments("-scale", "quick", "-cache-dir", st.cache, "-out", out)
	if err != nil {
		return inv, err
	}
	if err := inv.cache.expectCold(); err != nil {
		return inv, err
	}
	b.lastStore = st.cache
	// Read back what the cold run stored: the store-backed artefacts must
	// come out of the warm store byte for byte as the cold run wrote them.
	again := b.path("out")
	vinv, err := b.experiments("-only", remoteOnly, "-cache-dir", st.cache, "-out", again)
	if err != nil {
		return inv, fmt.Errorf("read-back: %w", err)
	}
	vc := vinv.cache
	if vc.misses != 0 || vc.writes != 0 || vc.hits == 0 {
		return inv, fmt.Errorf("read-back of the cold store: %s", vc)
	}
	if err := sameArtefacts(again, out, true); err != nil {
		return inv, fmt.Errorf("read-back: %w", err)
	}
	// Every cold run of one seed writes the same artefacts.
	if b.coldRef == "" {
		b.coldRef = out
	} else if err := sameArtefacts(out, b.coldRef, false); err != nil {
		return inv, fmt.Errorf("cold runs disagree: %w", err)
	}
	return inv, nil
}

// setupWarm fills a store with a cold run of the same command; its
// artefacts are the reference every warm run must reproduce.
func setupWarm(b *bench) (*state, error) {
	st := &state{cache: b.path("cache"), ref: b.path("ref")}
	inv, err := b.experiments("-scale", "quick", "-cache-dir", st.cache, "-out", st.ref)
	if err != nil {
		return nil, err
	}
	if err := inv.cache.expectCold(); err != nil {
		return nil, err
	}
	st.blobs = inv.cache.blobs
	return st, nil
}

func invokeWarm(b *bench, st *state) (invocation, error) {
	out := b.path("out")
	defer os.RemoveAll(out)
	inv, err := b.experiments("-scale", "quick", "-cache-dir", st.cache, "-out", out)
	if err != nil {
		return inv, err
	}
	c := inv.cache
	if c.misses != 0 || c.writes != 0 || c.hits == 0 || c.blobs != st.blobs {
		return inv, fmt.Errorf("warm run is not all hits over %d blobs: %s", st.blobs, c)
	}
	b.lastStore = st.cache
	return inv, sameArtefacts(out, st.ref, false)
}

// setupRemote starts a stored on an empty directory and seeds it with a
// cold round; the round's artefacts are the reference.
func setupRemote(b *bench) (*state, error) {
	d, err := b.startDaemon(b.path("stored"))
	if err != nil {
		return nil, err
	}
	st := &state{ref: b.path("ref"), daemon: d}
	inv, err := b.experiments("-store-url", d.url, "-cache-dir", b.path("cache"),
		"-lease-ttl", "1m", "-only", remoteOnly, "-out", st.ref)
	if c := inv.cache; err == nil && (c.misses == 0 || c.writes != c.blobs || c.blobs == 0) {
		err = fmt.Errorf("seeding round did not compute and store: %s", c)
	}
	st.blobs = inv.cache.blobs
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}

func invokeRemote(b *bench, st *state) (invocation, error) {
	cache, out := b.path("cache"), b.path("out")
	defer os.RemoveAll(out)
	inv, err := b.experiments("-store-url", st.daemon.url, "-cache-dir", cache,
		"-lease-ttl", "1m", "-only", remoteOnly, "-out", out)
	if err != nil {
		return inv, err
	}
	c := inv.cache
	if c.misses != 0 || c.writes != 0 || c.hits == 0 || c.blobs != st.blobs {
		return inv, fmt.Errorf("remote round is not all hits over %d blobs: %s", st.blobs, c)
	}
	// Keep only the latest round's local tier, for the accuracy read-back.
	if b.lastStore != "" {
		_ = os.RemoveAll(b.lastStore)
	}
	b.lastStore = cache
	return inv, sameArtefacts(out, st.ref, false)
}

// measure runs the workload with tracing off and returns the end-to-end
// metrics.
func (b *bench) measure(w *workload) (map[string]metric, error) {
	var setups []time.Duration
	var states []*state
	defer func() {
		for _, st := range states {
			if err := st.close(); err != nil {
				b.fail("%v", err)
			}
		}
	}()
	newState := func() (st *state, err error) {
		d, err := timeUnstolen(func() error {
			st, err = w.setup(b)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
		states = append(states, st)
		return st, nil
	}
	for i := 0; i < w.setups; i++ {
		if _, err := newState(); err != nil {
			return nil, err
		}
	}
	first := states[0]
	if !w.fresh {
		// Repeated set-ups must agree; only the first state is used.
		for _, st := range states[1:] {
			if err := sameArtefacts(st.ref, first.ref, false); err != nil {
				return nil, fmt.Errorf("set-ups disagree: %w", err)
			}
			if err := st.close(); err != nil {
				return nil, err
			}
		}
	}

	var daemonCPU time.Duration
	if first.daemon != nil {
		var err error
		if daemonCPU, err = first.daemon.cpu(); err != nil {
			return nil, err
		}
	}
	var ok []invocation
	var busy time.Duration
	for i := 0; busy < b.seconds || b.attempted < w.passLen; i++ {
		st := first
		if w.fresh && i > 0 {
			if i < len(states) {
				st = states[i]
			} else {
				var err error
				if st, err = newState(); err != nil {
					return nil, err
				}
			}
		}
		b.attempted++
		inv, err := w.invoke(b, st)
		busy += inv.wall
		if err != nil {
			b.failed++
			b.fail("invocation %d: %v", i, err)
			continue
		}
		ok = append(ok, inv)
	}
	b.rounds = b.attempted
	if len(ok) == 0 {
		return nil, errors.New("no invocation succeeded")
	}

	var wall, raw, stolen, cpu time.Duration
	var rss float64
	rounds := make([]float64, len(ok))
	for i, inv := range ok {
		wall += inv.elapsed()
		raw += inv.wall
		stolen += inv.stolen
		cpu += inv.cpu
		rss = max(rss, inv.rssMB)
		rounds[i] = inv.elapsed().Seconds() * 1e3
	}
	fmt.Printf("timed: %d invocations, %.3f s wall-clock, %.3f s of it stolen\n",
		len(ok), raw.Seconds(), stolen.Seconds())
	if first.daemon != nil {
		after, err := first.daemon.cpu()
		if err != nil {
			return nil, err
		}
		cpu += after - daemonCPU
		drss, err := first.daemon.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = max(rss, drss)
	}
	errs, err := estimationErrors(b.lastStore)
	if err != nil {
		return nil, fmt.Errorf("accuracy read-back: %w", err)
	}
	fmt.Printf("accuracy: %d measurements read back from %d campaigns\n", len(errs.ms), errs.campaigns)
	passes := float64(len(ok)) / float64(w.passLen)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return map[string]metric{
		"wall_s":         {wall.Seconds() / passes, "s"},
		"cpu_s":          {cpu.Seconds() / passes, "s"},
		"setup_s":        {quantile(setupS, 0.5), "s"},
		"peak_rss_mb":    {rss, "MB"},
		"round_p50_ms":   {quantile(rounds, 0.5), "ms"},
		"round_p90_ms":   {quantile(rounds, 0.9), "ms"},
		"est_err_p50_ms": {quantile(errs.ms, 0.5), "ms"},
		"est_err_p99_ms": {quantile(errs.ms, 0.99), "ms"},
	}, nil
}

// bench is one benchmark run.
type bench struct {
	bin, dir string
	seed     uint64
	seconds  time.Duration

	attempted, failed, rounds int
	problems                  []string

	seq       int    // names scratch paths
	coldRef   string // first cold-quick artefacts of this run
	lastStore string // store of the latest good invocation
}

// path returns a fresh scratch path under the run's directory.
func (b *bench) path(kind string) string {
	b.seq++
	return filepath.Join(b.dir, fmt.Sprintf("%s%d", kind, b.seq))
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) run(w *workload, traced bool) (map[string]metric, error) {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	if traced {
		return b.traced(w)
	}
	return b.measure(w)
}
