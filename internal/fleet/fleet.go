// Package fleet resolves campaigns, one device replica per shard, with
// optional persistent-store integration so an interrupted or re-run
// sweep only recomputes the shards that are missing from the store
// (resumable sweeps). It is the only path by which experiments.Suite
// resolves a campaign: a single-profile artefact is a one-shard sweep,
// a multi-unit study a many-shard one.
//
// A shard is one (hardware profile, campaign config) unit — e.g. one
// A100 unit of the §VII-C manufacturing-variability study. Sweep walks
// the shard list with at most GOMAXPROCS workers; each worker first
// looks its shard up in the store (when one is configured), and only
// computes on a miss, persisting the fresh result before moving on. The
// shards' compute is bounded by core's measurement-step pool, not by
// the workers. Because every completed shard is durable the moment it
// finishes, a sweep that dies half-way — crash, ^C, a failing shard —
// resumes from what completed: the next Sweep call finds those shards
// in the store and recomputes only the remainder.
//
// # Cross-process sweeps
//
// With Options.LeaseTTL set, a sweep additionally claims each missing
// shard through an advisory store lease before computing it. Two (or
// twenty) processes pointed at the same store directory then partition
// the sweep instead of duplicating it. A worker that finds a shard
// claimed by a live peer first moves on to the shards nobody holds, and
// comes back once those are done: by then the peer's result has often
// landed, and otherwise the worker waits, polling the store until it
// does. A worker that finds an expired claim (the peer died) steals it
// and computes. Every process finishes with the complete result set —
// claims decide who computes, the store delivers the results to
// everyone. Report's Claimed/Waited/Stolen counters expose the
// contention; a claim that finds the shard already stored is released
// and counts as a hit, not a claim.
//
// Campaigns are deterministic functions of their shard (profile,
// instance, seeds, config — see internal/store's addressing), so a
// sweep's results are identical whether a shard was computed this run,
// last run, or by another process sharing the store, and identical at
// every GOMAXPROCS; the workers and the leases bound duplicated effort,
// not the outcome.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/obs"
	"golatest/internal/store"
)

// defaultWaitPoll is how often a worker re-checks a shard held by a
// peer; campaigns run for tens of milliseconds and up, so polling much
// faster only burns syscalls.
const defaultWaitPoll = 25 * time.Millisecond

// Options configures a sweep.
type Options struct {
	// Store, when non-nil, is consulted before and written after every
	// shard computation. Nil disables persistence: every shard computes.
	// Any store.Backend works: a local *store.Store directory or a
	// storenet.Client speaking to a stored daemon — the claim/wait/steal
	// protocol below is identical either way, which is what lets a sweep
	// span hosts.
	//
	// A claim or Put error fails its shard, and so the sweep, over every
	// backend; read failures are misses. Outages a backend can absorb
	// (a tiered storenet.Client's local claims and journaled writes) never
	// reach the sweep as errors.
	Store store.Backend

	// Config maps a shard's profile to the campaign configuration it
	// runs; required when Store is set (it feeds the content address).
	Config func(hwprofile.Profile) core.Config

	// Run computes one shard. Required.
	Run func(hwprofile.Profile, core.Config) (*core.Result, error)

	// LeaseTTL, when positive (requires Store), turns on cross-process
	// claims: a worker acquires `<digest>.lease` before computing a
	// missing shard, renews it at TTL/2 while the campaign runs, and
	// releases it after the Put. Size it to comfortably exceed one
	// shard's compute time; an expired lease is stolen by the next
	// worker that wants the shard. A shard a live peer has claimed is
	// skipped on the sweep's first pass and claimed (or waited on) only
	// after every other shard is done, so cooperating processes split a
	// sweep between them instead of queueing on the same claims.
	LeaseTTL time.Duration

	// Owner labels this process in lease files for observability. Empty
	// generates a host/pid-derived id. Claims are exclusive per lease
	// file regardless — processes sharing an Owner string still
	// partition correctly.
	Owner string

	// WaitPoll is how often a worker re-checks a shard held by a live
	// peer. Zero means a sensible default.
	WaitPoll time.Duration

	// Tracer, when non-nil, records the sweep as a span tree: one root
	// span with a per-shard child span in its own timeline lane (TID =
	// shard index + 1), carrying typed events (claim/wait/steal, store
	// hit/miss, compute, put). The root span's context is
	// installed on Options.Store when it implements
	// obs.TraceContextSetter, so a storenet.Client's wire requests —
	// and the daemon-side records they leave — carry this sweep's trace
	// ID. The context lives on the shared client, not on the sweep: only
	// a sweep that runs alone on its client has all of its wire spans
	// under its root. Overlapping sweeps overwrite each other's context,
	// and the first to end clears it, so their wire spans scatter across
	// the sweeps' traces and orphan roots. nil disables tracing at zero
	// cost; per-shard wall-clock attribution
	// (Shard.StoreNs/WaitNs/ComputeNs) is collected either way.
	Tracer *obs.Tracer
}

// Shard is one unit of a sweep report.
type Shard struct {
	Profile hwprofile.Profile
	// Key is the shard's content address (zero when no store is
	// configured).
	Key store.Key
	// Result is the shard's campaign; nil when the shard errored or was
	// never reached before the sweep aborted.
	Result *core.Result
	// FromCache reports whether Result was read from the store rather
	// than computed — including results another process computed while
	// this sweep waited on its claim.
	FromCache bool
	// Err is the shard's failure, if any.
	Err error
	// Wall-clock attribution for the shard, collected whether or not a
	// tracer is configured: StoreNs is time spent in store reads and
	// writes (Get + Put), WaitNs is time spent parked on a peer's claim,
	// ComputeNs is time inside Options.Run. Report.WriteTimingTable
	// renders these; a trace export shows the same intervals as spans.
	StoreNs, WaitNs, ComputeNs int64
}

// Report summarises a sweep.
type Report struct {
	Shards []Shard
	// Hits counts shards served from the store; Computed counts shards
	// actually run. Hits + Computed can be less than len(Shards) when an
	// aborted sweep left shards unreached.
	Hits, Computed int
	// Contention counters, populated in lease mode: Claimed counts
	// leases under which this sweep computed a shard (a claim that finds
	// the blob already stored is released and counts as a hit only),
	// Waited counts shards it resolved by waiting on a peer's claim,
	// Stolen counts claimed leases it took over from dead peers.
	Claimed, Waited, Stolen int
	// TraceID is the hex trace identifier of the sweep's root span when
	// Options.Tracer was set ("" otherwise) — the value to grep for in a
	// trace export or a daemon's /debug/ops flight recorder.
	TraceID string
}

// Results returns the shard results in shard order. Only meaningful when
// Sweep returned no error (every shard then has a result).
func (r *Report) Results() []*core.Result {
	out := make([]*core.Result, len(r.Shards))
	for i := range r.Shards {
		out[i] = r.Shards[i].Result
	}
	return out
}

// WriteTimingTable renders the per-shard wall-clock breakdown as an
// aligned text table: where each shard's time went (store I/O, waiting
// on peers, compute) and how it resolved. The same intervals appear as
// spans in a trace export; the table is the no-tooling view.
func (r *Report) WriteTimingTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shard\tprofile\tsource\tstore\twait\tcompute")
	for i := range r.Shards {
		sh := &r.Shards[i]
		src := "computed"
		switch {
		case sh.Err != nil:
			src = "error"
		case sh.Result == nil:
			src = "unreached"
		case sh.FromCache:
			src = "cache"
		}
		fmt.Fprintf(tw, "%d\t%s/%d\t%s\t%s\t%s\t%s\n",
			i, sh.Profile.Key, sh.Profile.Instance, src,
			time.Duration(sh.StoreNs).Round(time.Microsecond),
			time.Duration(sh.WaitNs).Round(time.Microsecond),
			time.Duration(sh.ComputeNs).Round(time.Microsecond))
	}
	return tw.Flush()
}

// errAborted marks a shard abandoned because the sweep failed elsewhere
// while this worker was waiting on a peer's claim: the shard is
// unreached, not failed.
var errAborted = errors.New("fleet: sweep aborted")

// errParked marks a shard skipped on the sweep's first pass because a
// live peer holds its claim; the second pass comes back to it.
var errParked = errors.New("fleet: shard claimed by a live peer")

// sweeper carries one Sweep invocation's shared state.
type sweeper struct {
	opts  Options
	owner string

	shards []Shard
	spans  []*obs.Span // parked shards' open spans, by shard index

	tracer  *obs.Tracer     // nil when tracing is off
	rootCtx obs.SpanContext // the sweep root span's context

	failed                                  atomic.Bool
	hits, computed, claimed, waited, stolen atomic.Int64
}

// shardSpan opens the per-shard child span: its own timeline lane (TID
// = shard index + 1, lane 0 being the root) labelled with the shard's
// profile. nil tracer → nil span, and every use below is nil-safe.
func (w *sweeper) shardSpan(sh *Shard, idx int) *obs.Span {
	if w.tracer == nil {
		return nil
	}
	span := w.tracer.StartSpan("fleet.shard", w.rootCtx)
	span.SetTID(idx + 1)
	span.SetAttr("profile", fmt.Sprintf("%s/%d", sh.Profile.Key, sh.Profile.Instance))
	return span
}

// defaultOwner derives a lease owner id unique enough for a fleet:
// hostname-qualified pid plus a clock-disambiguated suffix for multiple
// sweeps in one process.
func defaultOwner() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s:%d:%d", host, os.Getpid(), time.Now().UnixNano())
}

// Sweep runs one campaign per profile, one device replica each, and
// returns the per-shard report. On the first shard error the sweep stops
// handing out new shards (in-flight shards finish) and returns that
// error — wrapped with the failing shard's identity — alongside the
// partial report; every shard completed before the abort has already
// been persisted, so a follow-up Sweep resumes rather than restarts.
func Sweep(profiles []hwprofile.Profile, opts Options) (*Report, error) {
	if opts.Run == nil {
		return nil, fmt.Errorf("fleet: Options.Run is required")
	}
	if opts.Store != nil && opts.Config == nil {
		return nil, fmt.Errorf("fleet: store configured without a Config function")
	}
	if opts.LeaseTTL > 0 && opts.Store == nil {
		return nil, fmt.Errorf("fleet: LeaseTTL configured without a store")
	}
	if opts.LeaseTTL < 0 {
		return nil, fmt.Errorf("fleet: negative LeaseTTL %v", opts.LeaseTTL)
	}

	rep := &Report{Shards: make([]Shard, len(profiles))}
	for i, p := range profiles {
		rep.Shards[i].Profile = p
	}
	if len(profiles) == 0 {
		return rep, nil
	}

	sw := &sweeper{opts: opts, owner: opts.Owner,
		shards: rep.Shards, spans: make([]*obs.Span, len(profiles)), tracer: opts.Tracer}
	if sw.owner == "" {
		sw.owner = defaultOwner()
	}
	var root *obs.Span
	if sw.tracer != nil {
		root = sw.tracer.StartRoot("fleet.sweep")
		root.SetAttr("owner", sw.owner)
		root.SetAttr("shards", fmt.Sprintf("%d", len(profiles)))
		sw.rootCtx = root.Context()
		rep.TraceID = sw.rootCtx.TraceID.String()
		defer root.End()
		// Install the sweep's trace identity on the store client, and
		// clear it when the sweep ends so later traffic is not
		// misattributed. A deferred Put journals the context it was issued
		// under, so even a reconcile replayed after this clear still
		// carries this sweep's trace ID.
		if c, ok := opts.Store.(obs.TraceContextSetter); ok {
			c.SetTraceContext(sw.rootCtx)
			defer c.SetTraceContext(obs.SpanContext{})
		}
	}

	all := make([]int, len(profiles))
	for i := range all {
		all[i] = i
	}
	parked := sw.pass(all, sw.runShard)
	slices.Sort(parked)
	sw.pass(parked, sw.resume)
	for _, idx := range parked {
		sw.spans[idx].End() // a no-op unless an abort left the shard unresumed
	}
	rep.Hits = int(sw.hits.Load())
	rep.Computed = int(sw.computed.Load())
	rep.Claimed = int(sw.claimed.Load())
	rep.Waited = int(sw.waited.Load())
	rep.Stolen = int(sw.stolen.Load())

	for i := range rep.Shards {
		if sh := &rep.Shards[i]; sh.Err != nil {
			return rep, fmt.Errorf("fleet: shard %d (%s/%d): %w",
				i, sh.Profile.Key, sh.Profile.Instance, sh.Err)
		}
	}
	return rep, nil
}

// pass resolves the shards at idxs over at most GOMAXPROCS workers and
// returns the ones resolve parked. Once a shard has failed, no further
// shard starts.
//
// The workers do not bound compute (core's measurement-step pool does),
// but they bound claims: a shard takes its lease before its first step,
// so with one worker per shard a lease-mode sweep would claim every
// shard at once, and its peers would find all of them held.
func (w *sweeper) pass(idxs []int, resolve func(*Shard, int) error) []int {
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		parked []int
	)
	for range min(runtime.GOMAXPROCS(0), len(idxs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(idxs) || w.failed.Load() {
					return
				}
				idx := idxs[i]
				err := resolve(&w.shards[idx], idx)
				switch {
				case err == nil:
				case errors.Is(err, errParked):
					mu.Lock()
					parked = append(parked, idx)
					mu.Unlock()
				case errors.Is(err, errAborted):
					return // unreached, not failed
				default:
					w.shards[idx].Err = err
					w.failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return parked
}

// runShard resolves one shard on the first pass: store lookup, claim
// (in lease mode), compute on miss, persist. A shard a live peer has
// claimed is parked with its span still open.
func (w *sweeper) runShard(sh *Shard, idx int) (err error) {
	span := w.shardSpan(sh, idx)
	defer func() {
		if errors.Is(err, errParked) {
			w.spans[idx] = span
		} else {
			span.End()
		}
	}()
	var cfg core.Config
	if w.opts.Config != nil {
		cfg = w.opts.Config(sh.Profile)
	}
	if w.opts.Store != nil {
		k, err := store.ProfileKey(sh.Profile, cfg)
		if err != nil {
			span.SetAttr("outcome", "error")
			return err
		}
		sh.Key = k
		t0 := time.Now()
		res, ok := w.opts.Store.Get(k)
		sh.StoreNs += time.Since(t0).Nanoseconds()
		if ok {
			w.hit(sh, res, span, "cache")
			return nil
		}
		span.Event("store.miss")
		if w.opts.LeaseTTL > 0 {
			return w.claimAndRun(sh, cfg, span, true)
		}
	}
	return w.computeAndPersist(sh, cfg, nil, span)
}

// resume takes a parked shard back into the claim loop on the second
// pass. It already missed the store once, so it skips the lookup.
func (w *sweeper) resume(sh *Shard, idx int) error {
	defer w.spans[idx].End()
	return w.claimAndRun(sh, w.opts.Config(sh.Profile), w.spans[idx], false)
}

// claimAndRun is the cross-process loop: claim the shard's lease and
// compute, or wait on a live peer's claim until its result lands in the
// store, stealing the claim if the peer's lease expires first. With park
// set, a live peer's claim parks the shard instead of waiting on it.
func (w *sweeper) claimAndRun(sh *Shard, cfg core.Config, span *obs.Span, park bool) error {
	st := w.opts.Store
	poll := w.opts.WaitPoll
	if poll <= 0 {
		poll = defaultWaitPoll
	}
	waitedHere := false
	for {
		lease, ok, err := st.TryAcquire(sh.Key.Digest, w.owner, w.opts.LeaseTTL)
		if err != nil {
			return fmt.Errorf("claim: %w", err)
		}
		if ok {
			span.Event("claim")
			if lease.Stolen() {
				span.Event("steal")
			}
			// The previous holder may have finished between our miss and
			// this claim; its result is then a hit, and the claim is
			// released uncounted.
			if res, hit := w.probe(sh); hit {
				_ = lease.Release()
				w.hit(sh, res, span, "cache")
				return nil
			}
			w.claimed.Add(1)
			if lease.Stolen() {
				w.stolen.Add(1)
			}
			return w.computeAndPersist(sh, cfg, lease, span)
		}
		// A live peer holds the claim: its result will appear in the
		// store, or its lease will expire and the claim attempt above
		// will steal. Either way the shard resolves.
		if park {
			return errParked
		}
		if !waitedHere {
			waitedHere = true
			span.Event("wait")
			w.waited.Add(1)
		}
		if w.failed.Load() {
			return errAborted
		}
		t0 := time.Now()
		time.Sleep(poll)
		sh.WaitNs += time.Since(t0).Nanoseconds()
		if res, hit := w.probe(sh); hit {
			w.hit(sh, res, span, "peer")
			return nil
		}
		// No blob yet, or one Get could not read (the corrupt blob was
		// healed): loop back to claim and recompute it.
	}
}

// probe reads the shard's blob only when Has sees one, so a shard that
// goes on to compute counts a single store miss: its first lookup.
func (w *sweeper) probe(sh *Shard) (*core.Result, bool) {
	t0 := time.Now()
	defer func() { sh.StoreNs += time.Since(t0).Nanoseconds() }()
	if !w.opts.Store.Has(sh.Key) {
		return nil, false
	}
	return w.opts.Store.Get(sh.Key)
}

// hit resolves the shard with a stored result.
func (w *sweeper) hit(sh *Shard, res *core.Result, span *obs.Span, outcome string) {
	span.Event("store.hit")
	span.SetAttr("outcome", outcome)
	sh.Result = res
	sh.FromCache = true
	w.hits.Add(1)
}

// computeAndPersist runs the shard and writes it through, renewing the
// lease (when one is held) at half-TTL so a long campaign is not stolen
// mid-compute.
func (w *sweeper) computeAndPersist(sh *Shard, cfg core.Config, lease store.LeaseHandle, span *obs.Span) error {
	var stopRenew func()
	if lease != nil {
		stopRenew = renewLoop(lease, w.opts.LeaseTTL)
	}
	span.Event("compute")
	t0 := time.Now()
	res, err := w.opts.Run(sh.Profile, cfg)
	sh.ComputeNs = time.Since(t0).Nanoseconds()
	if stopRenew != nil {
		stopRenew()
	}
	if lease != nil {
		defer lease.Release()
	}
	if err != nil {
		span.SetAttr("outcome", "error")
		return err
	}
	sh.Result = res
	w.computed.Add(1)
	span.SetAttr("outcome", "computed")
	if w.opts.Store != nil {
		// A failed write means the store the caller asked for refused the
		// result or is broken (full disk, bad permissions); surfacing it
		// beats silently recomputing every shard forever.
		span.Event("put")
		t1 := time.Now()
		err := w.opts.Store.Put(sh.Key, res)
		sh.StoreNs += time.Since(t1).Nanoseconds()
		if err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	return nil
}

// renewLoop keeps a held lease fresh until stopped. The returned stop
// function blocks until the renewer has exited, so a Release that
// follows cannot race a final Renew.
func renewLoop(lease store.LeaseHandle, ttl time.Duration) func() {
	interval := ttl / 2
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = lease.Renew(ttl)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}
