// Package fleet resolves campaigns over a bounded pool of device
// replicas, with optional persistent-store integration so an
// interrupted or re-run sweep only recomputes the shards that are
// missing from the store (resumable sweeps). It is the only path by
// which experiments.Suite resolves a campaign: a single-profile
// artefact is a one-shard sweep, a multi-unit study a many-shard one.
//
// A shard is one (hardware profile, campaign config) unit — e.g. one
// A100 unit of the §VII-C manufacturing-variability study. Sweep walks
// the shard list with Options.Replicas workers; each worker first looks
// its shard up in the store (when one is configured), and only computes
// on a miss, persisting the fresh result before moving on. Because every
// completed shard is durable the moment it finishes, a sweep that dies
// half-way — crash, ^C, a failing shard — resumes from the completed
// prefix: the next Sweep call finds those shards in the store and
// recomputes only the remainder.
//
// # Cross-process sweeps
//
// With Options.LeaseTTL set, a sweep additionally claims each missing
// shard through an advisory store lease before computing it. Two (or
// twenty) processes pointed at the same store directory then partition
// the sweep instead of duplicating it: a worker that finds a shard
// claimed by a live peer waits, polling the store until the peer's
// result lands; a worker that finds an expired claim (the peer died)
// steals it and computes. Every process finishes with the complete
// result set — claims decide who computes, the store delivers the
// results to everyone. Report's Claimed/Waited/Stolen counters expose
// the contention; a claim that finds the shard already stored is
// released and counts as a hit, not a claim.
//
// Campaigns are deterministic functions of their shard (profile,
// instance, seeds, config — see internal/store's addressing), so a
// sweep's results are identical whether a shard was computed this run,
// last run, or by another process sharing the store, and identical at
// every Replicas setting; the pool and the leases bound duplicated
// effort, not the outcome.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
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
	// Replicas bounds how many shards are in flight at once (each shard
	// runs on its own device replica). Zero means one per CPU; the pool
	// never exceeds the shard count. Results are identical at every
	// setting.
	Replicas int

	// Store, when non-nil, is consulted before and written after every
	// shard computation. Nil disables persistence: every shard computes.
	// Any store.Backend works: a local *store.Store directory or a
	// storenet.Client speaking to a stored daemon — the claim/wait/steal
	// protocol below is identical either way, which is what lets a sweep
	// span hosts.
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
	// worker that wants the shard.
	LeaseTTL time.Duration

	// Owner labels this process in lease files for observability. Empty
	// generates a host/pid-derived id. Claims are exclusive per lease
	// file regardless — processes sharing an Owner string still
	// partition correctly.
	Owner string

	// WaitPoll is how often a worker re-checks a shard held by a live
	// peer. Zero means a sensible default.
	WaitPoll time.Duration

	// GCWatermarkBytes, when positive (requires Store), bounds the store
	// without operator action: after the sweep, if the indexed blobs
	// total more than the watermark, one GC pass evicts
	// least-recently-used blobs back under it (and sweeps crash debris).
	// Report.GC carries the pass's stats when one ran. Zero leaves GC
	// manual.
	GCWatermarkBytes int64

	// ShardOffset rotates the order workers visit shards: the sweep
	// starts at shard index ShardOffset (mod the shard count) and wraps.
	// Cooperating processes given disjoint offsets (host i of n starts
	// at i*shards/n) claim disjoint ranges up front, cutting lease
	// contention — the waits and steals of everyone racing for shard 0 —
	// from O(shards) to near zero. Purely a scheduling hint: results,
	// resumability, and the claim/wait/steal safety net are identical at
	// every offset.
	ShardOffset int

	// AutoShardOffset (requires Store) derives the offset from the
	// store's live state instead: one Plan pass finds the first shard
	// that is neither cached nor claimed by a live holder, and the sweep
	// starts there — a host joining mid-sweep skips past the ranges its
	// peers are already computing. Racy by nature (peers move between
	// the plan and the first claim), which is fine: the claim loop still
	// arbitrates correctness. Overrides ShardOffset when it finds a
	// starting point.
	AutoShardOffset bool

	// StoreErrors selects what a store write or claim failure does to
	// the sweep: abort it (the pre-resilience behavior) or degrade
	// around it. The zero value resolves automatically: degrade when the
	// store reports a local fallback tier (store.Resilient with
	// CanDegrade), abort otherwise.
	StoreErrors StoreErrorPolicy

	// Tracer, when non-nil, records the sweep as a span tree: one root
	// span with a per-shard child span in its own timeline lane (TID =
	// shard index + 1), carrying typed events (claim/wait/steal, store
	// hit/miss, compute, put, defer, degrade). The root span's context
	// is installed on Options.Store when it implements
	// obs.TraceContextSetter, so a storenet.Client's wire requests —
	// and the daemon-side records they leave — correlate with this
	// sweep by trace ID. nil disables tracing at zero cost; per-shard
	// wall-clock attribution (Shard.StoreNs/WaitNs/ComputeNs) is
	// collected either way.
	Tracer *obs.Tracer
}

// StoreErrorPolicy is a sweep's response to store write/claim failures.
// Read failures are unaffected — the Backend contract already degrades
// every read to a recoverable miss.
type StoreErrorPolicy int

const (
	// StoreErrorsAuto resolves to Degrade when Options.Store implements
	// store.Resilient and reports CanDegrade (a tiered storenet.Client
	// with a local cache), Abort otherwise. The zero value, so existing
	// callers keep strict semantics on non-resilient stores.
	StoreErrorsAuto StoreErrorPolicy = iota
	// StoreErrorsAbort stops the sweep on the first store write or
	// claim error — a store that cannot accept results must not let the
	// fleet silently recompute forever.
	StoreErrorsAbort
	// StoreErrorsDegrade finishes the sweep despite store failures: a
	// failed lease acquire falls back to unleased recompute (duplicate
	// work across peers at worst — results are deterministic, so never
	// wrong ones), and a failed Put keeps the result in the report and
	// moves on. Each fallback ticks Report.Degraded.
	StoreErrorsDegrade
)

func (p StoreErrorPolicy) String() string {
	switch p {
	case StoreErrorsAbort:
		return "abort"
	case StoreErrorsDegrade:
		return "degrade"
	default:
		return "auto"
	}
}

func (o Options) replicas(shards int) int {
	n := o.Replicas
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > shards {
		n = shards
	}
	if n < 1 {
		n = 1
	}
	return n
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
	// ShardOffset is the starting index the sweep actually used —
	// Options.ShardOffset normalised, or the auto-derived one.
	ShardOffset int
	// Contention counters, populated in lease mode: Claimed counts
	// leases under which this sweep computed a shard (a claim that finds
	// the blob already stored is released and counts as a hit only),
	// Waited counts shards it resolved by waiting on a peer's claim,
	// Stolen counts claimed leases it took over from dead peers.
	Claimed, Waited, Stolen int
	// Degraded counts the sweep's own store-failure fallbacks under the
	// degrade policy: lease acquires that fell back to unleased
	// recompute, and Puts whose failure was absorbed (result kept in
	// the report, not persisted).
	Degraded int
	// Deferred and Reconciled mirror the resilient backend's journal
	// traffic attributable to this sweep (deltas of its
	// store.Resilient counters across the sweep): writes that landed
	// local-plus-journal instead of the remote, and journal entries
	// replayed to the remote while the sweep ran.
	Deferred, Reconciled int
	// GC carries the stats of the watermark GC pass that followed the
	// sweep, when Options.GCWatermarkBytes triggered one; nil otherwise.
	GC *store.GCStats
	// Replication, when the sweep's store is a replicating backend
	// (store.Replicated), carries its post-sweep stats with the traffic
	// counters reduced to this sweep's deltas: Failovers,
	// UnderReplicatedPuts, ReadRepairs, ScrubRepairs and ScrubRuns count
	// only what happened while the sweep ran, while Members, Healthy,
	// Replication and PendingRepairs are the end-of-sweep snapshot. Nil
	// for non-replicated backends.
	Replication *store.ReplicationStats
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

// ShardPlan previews one shard of a prospective sweep.
type ShardPlan struct {
	// Key is the shard's content address (zero without a store).
	Key store.Key
	// Cached reports the store already holds the shard's result — the
	// sweep would serve it without computing.
	Cached bool
	// LeaseHolder is the owner label of a live claim on the shard, ""
	// when unclaimed. It lets a scheduler route processes at disjoint
	// shard ranges up front instead of discovering contention by
	// polling. A racy peek by nature: the holder may finish, die, or be
	// stolen from between Plan and Sweep, and the claim loop handles all
	// three — the plan optimises placement, it never gates correctness.
	LeaseHolder string
}

// Plan reports, per shard, whether the store already holds its result
// (what a Sweep would skip) and who, if anyone, currently holds its
// lease. Without a store every entry is zero-valued.
func Plan(profiles []hwprofile.Profile, opts Options) ([]ShardPlan, error) {
	plans := make([]ShardPlan, len(profiles))
	if opts.Store == nil {
		return plans, nil
	}
	if opts.Config == nil {
		return nil, fmt.Errorf("fleet: store configured without a Config function")
	}
	// One Index call answers Cached for every shard — against a remote
	// backend that is a single round trip instead of a HEAD per shard.
	// (A remote backend's index can trail a peer's seconds-old write —
	// a directory store's cannot; the sweep's own Get still catches it,
	// so the plan errs only toward scheduling a shard that turns into a
	// free hit.)
	indexed := make(map[string]bool)
	for _, e := range opts.Store.Index() {
		indexed[e.Digest] = true
	}
	for i, p := range profiles {
		k, err := store.ProfileKey(p, opts.Config(p))
		if err != nil {
			return nil, fmt.Errorf("fleet: key for %s/%d: %w", p.Key, p.Instance, err)
		}
		plans[i].Key = k
		plans[i].Cached = indexed[k.Digest]
		if plans[i].Cached {
			// A cached shard resolves from the store regardless of
			// claims; skipping the peek saves a round trip per shard on
			// remote backends.
			continue
		}
		if owner, held := opts.Store.LeaseHolder(k.Digest); held {
			plans[i].LeaseHolder = owner
		}
	}
	return plans, nil
}

// errAborted marks a shard abandoned because the sweep failed elsewhere
// while this worker was waiting on a peer's claim: the shard is
// unreached, not failed.
var errAborted = errors.New("fleet: sweep aborted")

// sweeper carries one Sweep invocation's shared state.
type sweeper struct {
	opts    Options
	owner   string
	degrade bool // resolved StoreErrors policy

	tracer  *obs.Tracer     // nil when tracing is off
	rootCtx obs.SpanContext // the sweep root span's context

	failed                                  atomic.Bool
	hits, computed, claimed, waited, stolen atomic.Int64
	degraded                                atomic.Int64
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

// resolvePolicy turns StoreErrorsAuto into a concrete choice: degrade
// exactly when the store advertises a local fallback tier.
func resolvePolicy(p StoreErrorPolicy, b store.Backend) bool {
	switch p {
	case StoreErrorsDegrade:
		return true
	case StoreErrorsAbort:
		return false
	default:
		if r, ok := b.(store.Resilient); ok {
			return r.CanDegrade()
		}
		return false
	}
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

// Sweep runs one campaign per profile over the replica pool and returns
// the per-shard report. On the first shard error the sweep stops handing
// out new shards (in-flight shards finish) and returns that error —
// wrapped with the failing shard's identity — alongside the partial
// report; every shard completed before the abort has already been
// persisted, so a follow-up Sweep resumes rather than restarts.
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

	sw := &sweeper{opts: opts, owner: opts.Owner, tracer: opts.Tracer}
	if sw.owner == "" {
		sw.owner = defaultOwner()
	}
	var root *obs.Span
	if sw.tracer != nil {
		root = sw.tracer.StartRoot("fleet.sweep")
		root.SetAttr("owner", sw.owner)
		root.SetAttr("shards", fmt.Sprintf("%d", len(profiles)))
		root.SetAttr("replicas", fmt.Sprintf("%d", opts.replicas(len(profiles))))
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
	var before store.ResilienceStats
	var replBefore store.ReplicationStats
	if opts.Store != nil {
		sw.degrade = resolvePolicy(opts.StoreErrors, opts.Store)
		if r, ok := opts.Store.(store.Resilient); ok {
			// Snapshot the backend's journal counters so the report can
			// attribute this sweep's share of deferred/reconciled traffic
			// (the backend's totals span its whole lifetime).
			before = r.Resilience()
		}
		if r, ok := opts.Store.(store.Replicated); ok {
			replBefore = r.ReplicationStats()
		}
	}

	offset := shardOffset(profiles, opts)
	rep.ShardOffset = offset
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < opts.replicas(len(profiles)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(profiles) || sw.failed.Load() {
					return
				}
				idx := (i + offset) % len(profiles)
				sh := &rep.Shards[idx]
				if err := sw.runShard(sh, idx); err != nil {
					if errors.Is(err, errAborted) {
						return // unreached, not failed
					}
					sh.Err = err
					sw.failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	rep.Hits = int(sw.hits.Load())
	rep.Computed = int(sw.computed.Load())
	rep.Claimed = int(sw.claimed.Load())
	rep.Waited = int(sw.waited.Load())
	rep.Stolen = int(sw.stolen.Load())
	rep.Degraded = int(sw.degraded.Load())
	if opts.Store != nil {
		if r, ok := opts.Store.(store.Resilient); ok {
			after := r.Resilience()
			rep.Deferred = int(after.Deferred - before.Deferred)
			rep.Reconciled = int(after.Reconciled - before.Reconciled)
		}
		if r, ok := opts.Store.(store.Replicated); ok {
			// Gauges stay absolute; traffic counters become this sweep's
			// share, mirroring the Deferred/Reconciled attribution above.
			rs := r.ReplicationStats()
			rs.Failovers -= replBefore.Failovers
			rs.UnderReplicatedPuts -= replBefore.UnderReplicatedPuts
			rs.ReadRepairs -= replBefore.ReadRepairs
			rs.ScrubRepairs -= replBefore.ScrubRepairs
			rs.ScrubRuns -= replBefore.ScrubRuns
			rep.Replication = &rs
		}
	}

	var shardErr error
	for i := range rep.Shards {
		if rep.Shards[i].Err != nil {
			shardErr = fmt.Errorf("fleet: shard %d (%s/%d): %w",
				i, rep.Shards[i].Profile.Key, rep.Shards[i].Profile.Instance, rep.Shards[i].Err)
			break
		}
	}

	// The watermark pass runs even after a shard failure — completed
	// shards were persisted and count against the bound either way — but
	// its own error never masks the shard's.
	if opts.Store != nil && opts.GCWatermarkBytes > 0 {
		gs, ran, gcErr := gcAtWatermark(opts.Store, opts.GCWatermarkBytes)
		if ran {
			rep.GC = gs
		}
		if gcErr != nil && shardErr == nil {
			shardErr = fmt.Errorf("fleet: gc at watermark: %w", gcErr)
		}
	}
	return rep, shardErr
}

// shardOffset resolves the starting index of a sweep's shard walk:
// the explicit Options.ShardOffset normalised into [0, n), or — in
// auto mode — the first shard the store shows as neither cached nor
// claimed by a live peer. Auto failures (a degraded remote Index, a
// key error) fall back to the explicit offset: scheduling is a hint,
// never a gate.
func shardOffset(profiles []hwprofile.Profile, opts Options) int {
	n := len(profiles)
	if n == 0 {
		return 0
	}
	offset := ((opts.ShardOffset % n) + n) % n
	if !opts.AutoShardOffset || opts.Store == nil || n == 1 {
		return offset
	}
	plans, err := Plan(profiles, opts)
	if err != nil {
		return offset
	}
	for i, p := range plans {
		if !p.Cached && p.LeaseHolder == "" {
			return i
		}
	}
	return offset
}

// gcAtWatermark runs one size-bounded GC pass when the store's indexed
// bytes exceed the watermark, keeping long-lived caches bounded without
// operator action. It reports whether a pass ran; under the watermark
// it costs one Index call and touches nothing.
func gcAtWatermark(b store.Backend, watermark int64) (*store.GCStats, bool, error) {
	if b == nil || watermark <= 0 {
		return nil, false, nil
	}
	if store.IndexedBytes(b.Index()) <= watermark {
		return nil, false, nil
	}
	gs, err := b.GC(store.GCPolicy{MaxBytes: watermark})
	if err != nil {
		return nil, true, err
	}
	return &gs, true, nil
}

// runShard resolves one shard: store lookup, claim (in lease mode),
// compute on miss, persist.
func (w *sweeper) runShard(sh *Shard, idx int) error {
	span := w.shardSpan(sh, idx)
	defer span.End()
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
			return w.claimAndRun(sh, cfg, span)
		}
	}
	return w.computeAndPersist(sh, cfg, nil, span)
}

// claimAndRun is the cross-process loop: claim the shard's lease and
// compute, or wait on a live peer's claim until its result lands in the
// store, stealing the claim if the peer's lease expires first.
func (w *sweeper) claimAndRun(sh *Shard, cfg core.Config, span *obs.Span) error {
	st := w.opts.Store
	poll := w.opts.WaitPoll
	if poll <= 0 {
		poll = defaultWaitPoll
	}
	waitedHere := false
	for {
		lease, ok, err := st.TryAcquire(sh.Key.Digest, w.owner, w.opts.LeaseTTL)
		if err != nil {
			if w.degrade {
				// The lease arbiter is unreachable. Compute unleased: a
				// peer may duplicate this shard, but campaigns are
				// deterministic, so duplicated work writes identical bytes
				// — never a wrong result, and never a lost shard.
				span.Event("degrade.unleased")
				w.degraded.Add(1)
				return w.computeAndPersist(sh, cfg, nil, span)
			}
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
		// A failed write means the store the caller asked for is broken
		// (full disk, bad permissions); surfacing it beats silently
		// recomputing every shard forever — unless the degrade policy
		// says otherwise, in which case the result stays in the report
		// (this process loses nothing) and only the shared tier misses
		// it until a future sweep recomputes or reconciles.
		var deferredBefore int64
		r, resilient := w.opts.Store.(store.Resilient)
		if resilient {
			deferredBefore = r.Resilience().Deferred
		}
		span.Event("put")
		t1 := time.Now()
		err := w.opts.Store.Put(sh.Key, res)
		sh.StoreNs += time.Since(t1).Nanoseconds()
		if err != nil {
			if w.degrade {
				span.Event("degrade.unpersisted")
				w.degraded.Add(1)
				return nil
			}
			return fmt.Errorf("persist: %w", err)
		}
		// A Put that the resilient tier absorbed locally (journal + defer)
		// succeeded from this shard's view but has not reached the remote;
		// mark it so the trace shows which shards ride the journal. The
		// counter is backend-global, so under concurrent workers the event
		// can land on a sibling shard's span — a diagnostic marker, not a
		// ledger (Report.Deferred is the ledger).
		if resilient && r.Resilience().Deferred > deferredBefore {
			span.Event("put.deferred")
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
