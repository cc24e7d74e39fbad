// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) from simulated campaigns: Table I/II, the Fig. 3
// heatmaps, the Fig. 4 violins, the Fig. 5/6 scatter structure, the
// Fig. 7–9 manufacturing-variability study, the §VII-B cluster census,
// the §V-A confidence-interval degeneration argument, and the headline
// CPU-vs-GPU latency-scale comparison.
//
// Campaigns are expensive, so a Suite runs each one once and caches it;
// every artefact derives from the cached results. Two scales exist:
// ScaleQuick for benchmarks and tests (reduced frequency subsets and
// repetition counts) and ScaleFull for the paper-shaped regeneration in
// cmd/experiments. With Options.Store set, campaign results additionally
// persist across processes as content-addressed blobs (internal/store):
// a re-run with unchanged inputs recomputes nothing and reproduces every
// artefact byte for byte. Every campaign, single or multi-unit, resolves
// through one fleet sweep (internal/fleet), so interrupted sweeps resume
// where they stopped and lease mode partitions every campaign across
// processes.
//
// Artefacts may be generated concurrently. Their measurement steps —
// each campaign's phase 1 and pairs, census and scatter pairs, ablation
// rows — share core's one process-wide pool of GOMAXPROCS slots, so
// running every artefact at once keeps all cores busy without
// oversubscribing them, and results are identical to a serial run.
// Every pair, in a campaign or not, is measured on its own replica of
// the chip its phase 1 characterised, so its samples never depend on
// which other pairs ran.
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"golatest/internal/core"
	"golatest/internal/fleet"
	"golatest/internal/hwprofile"
	"golatest/internal/nvml"
	"golatest/internal/obs"
	"golatest/internal/sim/clock"
	"golatest/internal/sim/gpu"
	"golatest/internal/store"
)

// Scale selects campaign sizes.
type Scale int

const (
	// ScaleQuick uses small frequency subsets and repetition counts:
	// suitable for go test and testing.B.
	ScaleQuick Scale = iota
	// ScaleFull uses the paper's evaluated frequency subsets and
	// RSE-driven repetition, matching the published figures' shape.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "quick"
}

// Options configures a Suite.
type Options struct {
	Scale Scale
	// Seed offsets every campaign's host-side randomness: the PTP link
	// delays of its clock syncs (core.Config.Seed). Device noise —
	// iteration jitter, per-SM speeds, transition latencies — is seeded
	// by the hardware profile, so distinct seeds re-measure the same
	// devices and differ only through the syncs (their offset error and
	// the host time they take): they are not independent replications.
	Seed uint64
	// Store, when non-nil, persists campaign results across processes as
	// content-addressed blobs: Campaign consults it before computing and
	// writes through after, so a warm re-run with unchanged inputs
	// recomputes nothing. Campaigns are deterministic, so a stored result
	// is indistinguishable from a fresh one. Any store.Backend works —
	// a local *store.Store directory, or a storenet.Client speaking to a
	// stored daemon so suites on different hosts share one store.
	Store store.Backend
	// LeaseTTL, when positive (requires Store), coordinates campaigns
	// across processes: each one is claimed through a store lease before
	// computing, so concurrent processes sharing a cache directory
	// partition the work instead of duplicating it. Size it to
	// comfortably exceed one campaign's runtime. Zero keeps campaigns
	// single-process.
	LeaseTTL time.Duration
	// LeaseOwner identifies this process in lease files; empty derives a
	// host/pid id. Results never depend on it.
	LeaseOwner string
	// Tracer, when non-nil, is handed to every fleet sweep: each
	// campaign resolution records a root span with per-shard children, and
	// a store client in reach carries the sweep's trace ID on its wire
	// requests (see fleet.Options.Tracer). The reports — including the
	// per-shard timing the trace reflects — accumulate in SweepReports.
	Tracer *obs.Tracer
}

// Suite runs and caches the campaigns all artefacts derive from.
type Suite struct {
	opts Options

	// campaigns implements per-key singleflight: the first caller of a key
	// inserts a call record and runs the campaign; concurrent callers of
	// the same key block on its done channel instead of duplicating the
	// (expensive) campaign. Completed calls double as the cache.
	mu        sync.Mutex
	campaigns map[string]*campaignCall

	// runs counts campaign executions (not cache hits); tests use it to
	// assert the singleflight collapses concurrent duplicate calls.
	runs atomic.Int64

	// Every fleet report this suite produced, in completion order; see
	// SweepReports, and Contention, which sums them.
	// Guarded by repMu, not mu — sweeps run concurrently with campaign
	// singleflight traffic.
	repMu   sync.Mutex
	reports []*fleet.Report
}

// SweepReports returns every fleet report the suite's campaign
// resolutions have produced so far, in completion order. Each carries the
// per-shard timing breakdown (Report.WriteTimingTable) and, under a
// tracer, the sweep's trace ID.
func (s *Suite) SweepReports() []*fleet.Report {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	out := make([]*fleet.Report, len(s.reports))
	copy(out, s.reports)
	return out
}

// Contention reports the cross-process coordination a suite's sweeps
// experienced: leases claimed (shards this process computed under a
// claim), shards resolved by waiting on another process's claim, and
// expired leases stolen from dead processes. All zero outside lease
// mode.
type Contention struct {
	Claimed, Waited, Stolen int64
}

// Contention returns the lease-contention counters summed over every
// sweep report.
func (s *Suite) Contention() Contention {
	var c Contention
	for _, rep := range s.SweepReports() {
		c.Claimed += int64(rep.Claimed)
		c.Waited += int64(rep.Waited)
		c.Stolen += int64(rep.Stolen)
	}
	return c
}

// campaignCall is one singleflight entry: done closes once res/err are
// final.
type campaignCall struct {
	done chan struct{}
	res  *core.Result
	err  error
}

// NewSuite creates an empty suite.
func NewSuite(opts Options) *Suite {
	return &Suite{opts: opts, campaigns: make(map[string]*campaignCall)}
}

// captureHints bound the capture window per architecture so campaigns
// skip the probing phase (the probe is exercised separately in tests).
var captureHints = map[string]int64{
	"gh200":   550_000_000, // pathological targets reach ≈480 ms
	"a100":    120_000_000,
	"rtx6000": 420_000_000,
}

// quickFreqs are the reduced subsets: small, medium, and high clocks
// including each architecture's pathological targets.
var quickFreqs = map[string][]float64{
	"gh200":   {705, 1095, 1260, 1500, 1875, 1980},
	"a100":    {705, 885, 1065, 1215, 1410},
	"rtx6000": {750, 930, 990, 1110, 1650},
}

// freqsFor returns the campaign frequency set of a profile at the given
// scale.
func (s *Suite) freqsFor(p hwprofile.Profile) []float64 {
	if s.opts.Scale == ScaleFull {
		return p.EvalFreqsMHz
	}
	return quickFreqs[p.Key]
}

// campaignConfig builds the core.Config of a campaign.
func (s *Suite) campaignConfig(p hwprofile.Profile) core.Config {
	cfg := core.Config{
		Frequencies:      s.freqsFor(p),
		MaxLatencyHintNs: captureHints[p.Key],
		Seed:             s.opts.Seed + 0x5eed + uint64(p.Instance),
	}
	switch s.opts.Scale {
	case ScaleFull:
		cfg.Blocks = 4
		cfg.MinMeasurements = 50
		cfg.MaxMeasurements = 120
		cfg.RSECheckEvery = 25
	default:
		// Quick campaigns still need enough samples for Algorithm 3's
		// density assumptions (the paper gathers "several hundred").
		cfg.Blocks = 3
		cfg.MinMeasurements = 28
		cfg.MaxMeasurements = 48
		cfg.RSECheckEvery = 10
	}
	return cfg
}

// deviceHandle opens a freshly built simulated device through NVML and
// returns its handle; it takes a device constructor's results as is.
func deviceHandle(dev *gpu.Device, err error) (*nvml.Device, error) {
	if err != nil {
		return nil, err
	}
	lib, err := nvml.New(dev)
	if err != nil {
		return nil, err
	}
	return lib.DeviceHandleByIndex(0)
}

// runCampaign executes one campaign on a fresh device; it is every
// fleet sweep's shard runner.
func (s *Suite) runCampaign(p hwprofile.Profile, cfg core.Config) (*core.Result, error) {
	s.runs.Add(1)
	h, err := deviceHandle(p.NewDevice(clock.New()))
	if err != nil {
		return nil, err
	}
	r, err := core.NewRunner(h, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// measurePairs runs phase 1 of cfg on dev, then measures the pairs that
// pick selects from phase 1's valid pairs, each on its own replica of
// dev (core.Runner.MeasurePair) and all concurrently. Results come back
// in pick's order.
func measurePairs(dev *nvml.Device, cfg core.Config, pick func(valid []core.Pair) []core.Pair) (*core.Phase1Result, []*core.PairResult, error) {
	r, err := core.NewRunner(dev, cfg)
	if err != nil {
		return nil, nil, err
	}
	p1, err := r.Phase1()
	if err != nil {
		return nil, nil, err
	}
	prs, err := forEach(pick(p1.ValidPairs), func(pair core.Pair) (*core.PairResult, error) {
		return r.MeasurePair(pair, p1)
	})
	return p1, prs, err
}

// measurePair runs phase 1 of cfg on dev and measures pair on its
// replica; a pair phase 1 excluded is an error.
func measurePair(dev *nvml.Device, cfg core.Config, pair core.Pair) (*core.Phase1Result, *core.PairResult, error) {
	p1, prs, err := measurePairs(dev, cfg, func([]core.Pair) []core.Pair { return []core.Pair{pair} })
	if err != nil {
		return nil, nil, err
	}
	return p1, prs[0], nil
}

// Campaign returns the cached full campaign of a profile (keyed by
// profile and instance), running it on first use. Concurrent calls for
// the same key collapse into one execution: the winner runs the campaign
// and everyone else blocks until its result lands. A failed campaign is
// not cached, so a later call retries.
//
// With Options.Store set, the winner resolves the campaign through the
// persistent store (see resolve), so the store is consulted at most once
// per key per Suite.
func (s *Suite) Campaign(p hwprofile.Profile) (*core.Result, error) {
	res, err := s.resolve([]hwprofile.Profile{p})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// CampaignByKey resolves the profile by key and returns its campaign.
func (s *Suite) CampaignByKey(key string) (*core.Result, error) {
	p, err := hwprofile.ByKey(key)
	if err != nil {
		return nil, err
	}
	return s.Campaign(p)
}

// campaignKey is a profile's singleflight key.
func campaignKey(p hwprofile.Profile) string {
	return fmt.Sprintf("%s/%d", p.Key, p.Instance)
}

// resolve is the one path every campaign takes. Profiles already in the
// singleflight map (resolved, or in flight in another goroutine) are
// awaited; the rest are registered as this call's own and resolved by a
// single fleet sweep, which owns the store lookup, the lease
// claim/wait/steal loop (in lease mode), the compute and the
// write-through. Results come back in profile order.
func (s *Suite) resolve(profiles []hwprofile.Profile) ([]*core.Result, error) {
	calls := make([]*campaignCall, len(profiles))
	var own []hwprofile.Profile
	var ownCalls []*campaignCall
	s.mu.Lock()
	for i, p := range profiles {
		c, ok := s.campaigns[campaignKey(p)]
		if !ok {
			c = &campaignCall{done: make(chan struct{})}
			s.campaigns[campaignKey(p)] = c
			own = append(own, p)
			ownCalls = append(ownCalls, c)
		}
		calls[i] = c
	}
	s.mu.Unlock()

	// Sweep this call's own profiles before waiting on anyone else's, so
	// two overlapping resolves can never wait on each other.
	if len(own) > 0 {
		if err := s.sweep(own, ownCalls); err != nil {
			return nil, err
		}
	}
	out := make([]*core.Result, len(profiles))
	for i, c := range calls {
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		out[i] = c.res
	}
	return out, nil
}

// sweep resolves profiles through one fleet sweep and settles their
// singleflight calls: a shard that succeeded is cached, any other is
// failed and dropped from the map so a later call retries it.
func (s *Suite) sweep(profiles []hwprofile.Profile, calls []*campaignCall) error {
	rep, err := fleet.Sweep(profiles, fleet.Options{
		Store:    s.opts.Store,
		Config:   s.campaignConfig,
		Run:      s.runCampaign,
		LeaseTTL: s.opts.LeaseTTL,
		Owner:    s.opts.LeaseOwner,
		Tracer:   s.opts.Tracer,
	})
	if rep != nil {
		s.repMu.Lock()
		s.reports = append(s.reports, rep)
		s.repMu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range calls {
		if rep != nil && rep.Shards[i].Err == nil {
			c.res = rep.Shards[i].Result
		}
		if c.res == nil {
			key := campaignKey(profiles[i])
			c.err = fmt.Errorf("experiments: campaign %s: %w", key, err)
			delete(s.campaigns, key)
		}
		close(c.done)
	}
	return err
}

// A100Instances returns campaigns for the four front-row A100 units of
// §VII-C, one fleet shard each (each shard runs on an independent
// device replica with its own virtual clock, so shards parallelise
// perfectly; core's measurement-step pool bounds how many compute at
// once).
func (s *Suite) A100Instances() ([]*core.Result, error) {
	return s.A100Fleet(4)
}

// A100Fleet generalises the §VII-C study to the first n A100 units —
// the manufacturing-variability sweep at fleet scale. With a persistent
// store configured, an interrupted or re-run sweep recomputes only the
// units missing from the store.
func (s *Suite) A100Fleet(n int) ([]*core.Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("experiments: negative fleet size %d", n)
	}
	profiles := make([]hwprofile.Profile, n)
	for i := range profiles {
		profiles[i] = hwprofile.A100Instance(i)
	}
	return s.resolve(profiles)
}

// forEach runs fn on every element of xs, each in its own goroutine,
// and returns the results by index, or the lowest-indexed error. Every
// element runs. It fans out the census profiles, the pairs of
// measurePairs and the ablation rows. forEach takes no slot of core's
// measurement-step pool itself: fn's steps (Phase1, Probe, MeasurePair,
// Run's pairs) do, so the elements' compute stays bounded by the pool.
func forEach[X, T any](xs []X, fn func(X) (T, error)) ([]T, error) {
	out := make([]T, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for i, x := range xs {
		go func() {
			defer wg.Done()
			out[i], errs[i] = fn(x)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
