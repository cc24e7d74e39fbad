// Package router implements a replicating store.Backend over N member
// backends: blob digests are consistent-hashed onto a ring of members,
// every blob lives on the R members that follow its hash point
// (order[:R], its preferred replica set), and each operation routes by
// that order with failover past unhealthy members.
//
//   - Put writes to the first R healthy replicas on the ring; it
//     succeeds when at least one replica accepted (the blob is durable)
//     and counts the Put under-replicated when fewer than R did — debt
//     the next Scrub pays off.
//   - Get reads in preference order and read-repairs: a hit found after
//     one or more preferred members answered "absent" heals those
//     members with the hit's validated bytes verbatim, riding the
//     store.ValidatedBlob single-validation contract (one decode at the
//     serving member, zero at the healed ones).
//   - Lease CAS routes to the digest's primary, failing over to its
//     ring successor when the primary is unhealthy (its breaker is
//     open) or the claim attempt errors. Every router built over the
//     same member list computes the same order, so fleet processes
//     agree on the arbiter without coordination. During the failover
//     window two processes with divergent health views can be granted
//     the "same" lease on different members; that costs duplicate
//     compute at worst — campaigns are deterministic and blobs
//     content-addressed, so duplicated work writes identical bytes.
//   - Index, Len, Stats and GC fan out to every member and merge
//     (Index dedups by digest; GC sums per-member passes).
//
// Safety rests on the store's two invariants: blobs are immutable per
// digest (replicas can disagree about presence, never content — so
// repair, replay, and re-put are all idempotent), and campaigns are
// deterministic (a lost replica is recomputable, so degraded modes
// trade freshness and duplicated effort, never correctness).
package router

import (
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
	"time"

	"golatest/internal/core"
	"golatest/internal/obs"
	"golatest/internal/store"
)

// HealthReporter is the optional member self-report the router routes
// by: false means "do not offer this member traffic right now".
// storenet.Client implements it off its circuit breaker (false exactly
// while the breaker is open inside its cooldown); members without the
// method — a local *store.Store, a test fake — are always offered
// traffic and fail over per call instead.
type HealthReporter interface {
	Healthy() bool
}

// Options configures a Router; the zero value works.
type Options struct {
	// Replication is R, the preferred replica count per digest; 0 means
	// 2, and it is clamped to the member count.
	Replication int
	// Local, when non-nil, is a read-through local tier: Gets check it
	// first, remote hits heal it (validated bytes verbatim), Puts write
	// through to it. Purely acceleration, bounded by its own owner —
	// router GC never touches it.
	Local *store.Store
	// Tracer, when non-nil, records one router span per operation with
	// the serving member as an attribute; nil keeps tracing at zero
	// cost. The context installed via SetTraceContext is forwarded to
	// every member that carries one.
	Tracer *obs.Tracer
	// Logger receives scrub outcomes and repair failures; nil discards.
	Logger *slog.Logger
}

// member is one ring participant plus the capability views the router
// resolved once at construction.
type member struct {
	b      store.Backend
	id     string
	health HealthReporter        // nil: always healthy
	vget   store.ValidatedGetter // nil: fall back to Get
	vput   store.ValidatedPutter // nil: fall back to Put
	tctx   obs.TraceContextSetter
}

// Router is the replicating Backend. All methods are safe for
// concurrent use; membership and layout are immutable after New.
type Router struct {
	members []member
	ring    ring
	rf      int
	local   *store.Store
	tracer  *obs.Tracer
	tctx    atomic.Pointer[obs.SpanContext]
	log     *slog.Logger

	hits, misses, corrupt, puts atomic.Int64

	failovers, underPuts      atomic.Int64
	readRepairs, scrubRepairs atomic.Int64
	scrubRuns, pendingRepairs atomic.Int64
}

var (
	_ store.Backend          = (*Router)(nil)
	_ store.Resilient        = (*Router)(nil)
	_ obs.TraceContextSetter = (*Router)(nil)
)

// New builds a router over the given members. Members are fixed for the
// router's life; their Location() strings are the ring identities and
// must be distinct.
func New(members []store.Backend, opts Options) (*Router, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("router: no members")
	}
	rf := opts.Replication
	if rf <= 0 {
		rf = 2
	}
	if rf > len(members) {
		rf = len(members)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	r := &Router{
		members: make([]member, 0, len(members)),
		rf:      rf,
		local:   opts.Local,
		tracer:  opts.Tracer,
		log:     logger,
	}
	locs := make([]string, 0, len(members))
	seen := map[string]bool{}
	for _, b := range members {
		id := b.Location()
		if seen[id] {
			return nil, fmt.Errorf("router: duplicate member location %q", id)
		}
		seen[id] = true
		locs = append(locs, id)
		m := member{b: b, id: id}
		m.health, _ = b.(HealthReporter)
		m.vget, _ = b.(store.ValidatedGetter)
		m.vput, _ = b.(store.ValidatedPutter)
		m.tctx, _ = b.(obs.TraceContextSetter)
		r.members = append(r.members, m)
	}
	r.ring = newRing(locs)
	return r, nil
}

// Location implements Backend: the replica factor plus every member.
func (r *Router) Location() string {
	ids := make([]string, len(r.members))
	for i, m := range r.members {
		ids[i] = m.id
	}
	return fmt.Sprintf("router[r=%d](%s)", r.rf, strings.Join(ids, ","))
}

// Replication returns the configured replica factor R.
func (r *Router) Replication() int { return r.rf }

// Replicas returns the digest's preferred replica locations in
// preference order — order[0] is the primary. Exported for harnesses
// and operators reasoning about where a blob should live.
func (r *Router) Replicas(digest string) []string {
	order := r.ring.order(digest)
	out := make([]string, 0, r.rf)
	for _, mi := range order[:r.rf] {
		out = append(out, r.members[mi].id)
	}
	return out
}

// SetTraceContext implements obs.TraceContextSetter: the ambient parent
// for router spans, forwarded to every member that carries a trace
// context (a fleet sweep installing its root context on the router
// reaches each member client's wire spans through this).
func (r *Router) SetTraceContext(sc obs.SpanContext) {
	if sc.Valid() {
		r.tctx.Store(&sc)
	} else {
		r.tctx.Store(nil)
	}
	for _, m := range r.members {
		if m.tctx != nil {
			m.tctx.SetTraceContext(sc)
		}
	}
}

func (r *Router) traceParent() obs.SpanContext {
	if p := r.tctx.Load(); p != nil {
		return *p
	}
	return obs.SpanContext{}
}

func (r *Router) startSpan(op string) *obs.Span {
	if r.tracer == nil {
		return nil
	}
	return r.tracer.StartSpan(op, r.traceParent())
}

// healthy reports whether member mi should be offered traffic.
func (r *Router) healthy(mi int) bool {
	if h := r.members[mi].health; h != nil {
		return h.Healthy()
	}
	return true
}

// memberGet reads one member, preferring the validated path so a hit
// can heal other members verbatim. Returns (vb, result, ok); vb is nil
// when the member cannot produce validated bytes (repair then falls
// back to a re-encoding Put).
func (r *Router) memberGet(mi int, k store.Key) (*store.ValidatedBlob, *core.Result, bool) {
	m := r.members[mi]
	if m.vget != nil {
		vb, ok := m.vget.GetValidated(k.Digest)
		if !ok {
			return nil, nil, false
		}
		return vb, vb.Result(), true
	}
	res, ok := m.b.Get(k)
	return nil, res, ok
}

// memberPut writes one replica: validated bytes verbatim when both
// sides support the proof-carrying handoff, an ordinary re-encoding Put
// otherwise.
func (r *Router) memberPut(mi int, k store.Key, vb *store.ValidatedBlob, res *core.Result) error {
	m := r.members[mi]
	if vb != nil && m.vput != nil {
		return m.vput.PutValidated(vb)
	}
	return m.b.Put(k, res)
}

// Get reads in preference order: local tier, then members along the
// ring. The first hit wins; preferred members that answered "absent"
// before the hit are read-repaired with the hit's validated bytes, and
// unhealthy preferred members are skipped (a failover) and left to the
// scrubber. A miss everywhere is a miss — reads degrade, per the
// Backend contract.
func (r *Router) Get(k store.Key) (*core.Result, bool) {
	if r.local != nil {
		if res, ok := r.local.Get(k); ok {
			r.hits.Add(1)
			return res, true
		}
	}
	span := r.startSpan("router.get")
	defer span.End()
	order := r.ring.order(k.Digest)
	var absent []int // preferred members that answered "absent" before the hit
	for pos, mi := range order {
		if !r.healthy(mi) {
			if pos < r.rf {
				r.failovers.Add(1)
				span.Event("failover")
			}
			continue
		}
		vb, res, ok := r.memberGet(mi, k)
		if !ok {
			if pos < r.rf {
				absent = append(absent, mi)
			}
			continue
		}
		span.SetAttr("member", r.members[mi].id)
		span.SetAttr("outcome", "hit")
		r.readRepair(k, vb, res, absent)
		if r.local != nil && vb != nil {
			// Best-effort heal of the local tier, wire bytes verbatim.
			_ = r.local.PutValidated(vb)
		}
		r.hits.Add(1)
		return res, true
	}
	r.misses.Add(1)
	span.SetAttr("outcome", "miss")
	return nil, false
}

// readRepair heals the preferred members a Get observed missing the
// blob it then found further along the ring. Best-effort by design: a
// failed repair leaves the slot for the scrubber, and the blob's
// immutability per digest makes racing repairs (two Gets healing the
// same slot, a repair racing the original Put's slow replica) write
// identical bytes.
func (r *Router) readRepair(k store.Key, vb *store.ValidatedBlob, res *core.Result, absent []int) {
	for _, mi := range absent {
		if !r.healthy(mi) {
			continue
		}
		if err := r.memberPut(mi, k, vb, res); err != nil {
			r.log.Warn("router: read-repair failed",
				"digest", k.Digest, "member", r.members[mi].id, "err", err)
			continue
		}
		r.readRepairs.Add(1)
		// The slot may or may not have been counted pending (counted for
		// failed Put replicas, not for externally planted gaps); the
		// clamp on read absorbs the asymmetry.
		r.pendingRepairs.Add(-1)
	}
}

// Put writes to the first R healthy replicas on the ring. The container
// is encoded and validated once here; each member then takes the
// verbatim-bytes path (no per-member re-encode). At least one replica
// write must land — the blob is then durable and recomputation-free —
// and landing fewer than R counts the Put under-replicated, debt the
// next Get's read-repair or the scrubber pays off. With every preferred
// member unhealthy the preferred set is attempted anyway: surfacing the
// members' real errors beats inventing one.
func (r *Router) Put(k store.Key, res *core.Result) error {
	if res == nil {
		return fmt.Errorf("router: nil result for %s", k)
	}
	span := r.startSpan("router.put")
	defer span.End()
	data, err := store.EncodeBlobV3(k, res)
	if err != nil {
		return fmt.Errorf("router: encode %s: %w", k, err)
	}
	vb, err := store.ValidateBlobBytes(data, k.Digest)
	if err != nil {
		return fmt.Errorf("router: validate %s: %w", k, err)
	}
	order := r.ring.order(k.Digest)
	targets := make([]int, 0, r.rf)
	for pos, mi := range order {
		if len(targets) == r.rf {
			break
		}
		if !r.healthy(mi) {
			if pos < r.rf {
				r.failovers.Add(1)
				span.Event("failover")
			}
			continue
		}
		targets = append(targets, mi)
	}
	if len(targets) == 0 {
		targets = append(targets, order[:r.rf]...)
	}
	wrote := 0
	var errs []error
	for _, mi := range targets {
		if err := r.memberPut(mi, k, vb, res); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.members[mi].id, err))
			r.pendingRepairs.Add(1)
			continue
		}
		wrote++
	}
	if wrote == 0 {
		span.SetAttr("outcome", "error")
		return fmt.Errorf("router: put %s: no replica accepted: %w", k, errors.Join(errs...))
	}
	if wrote < r.rf {
		r.underPuts.Add(1)
		span.Event("under-replicated")
		r.log.Warn("router: put under-replicated",
			"digest", k.Digest, "wrote", wrote, "want", r.rf, "err", errors.Join(errs...))
	}
	if r.local != nil {
		_ = r.local.PutValidated(vb)
	}
	r.puts.Add(1)
	span.SetAttr("outcome", "ok")
	return nil
}

// Has probes in preference order without validating; a down member is
// skipped (its replica may still exist, but Has answers about what is
// reachable now, matching Get).
func (r *Router) Has(k store.Key) bool {
	if r.local != nil && r.local.Has(k) {
		return true
	}
	for _, mi := range r.ring.order(k.Digest) {
		if r.healthy(mi) && r.members[mi].b.Has(k) {
			return true
		}
	}
	return false
}

// TryAcquire routes the claim to the digest's primary, failing over to
// its ring successor when the primary is unhealthy or the attempt
// errors. A busy answer stops the walk — the lease lives on that
// member, and asking the next one would manufacture a second grant.
// Exhausting every member surfaces the last error: claims must stop a
// fleet that has no arbiter left (or degrade it, under the fleet's
// policy, to unleased recompute).
func (r *Router) TryAcquire(digest, owner string, ttl time.Duration) (store.LeaseHandle, bool, error) {
	span := r.startSpan("router.lease.acquire")
	defer span.End()
	var lastErr error
	for pos, mi := range r.ring.order(digest) {
		if !r.healthy(mi) {
			r.failovers.Add(1)
			span.Event("failover")
			continue
		}
		h, ok, err := r.members[mi].b.TryAcquire(digest, owner, ttl)
		if err != nil {
			lastErr = err
			if pos < len(r.members)-1 {
				r.failovers.Add(1)
				span.Event("failover")
			}
			continue
		}
		span.SetAttr("member", r.members[mi].id)
		if !ok {
			span.SetAttr("outcome", "busy")
			return nil, false, nil
		}
		span.SetAttr("outcome", "granted")
		return h, true, nil
	}
	span.SetAttr("outcome", "error")
	if lastErr == nil {
		lastErr = fmt.Errorf("every member unhealthy")
	}
	return nil, false, fmt.Errorf("router: acquire %s: %w", digest, lastErr)
}

// LeaseHolder peeks along the preference order: the first member
// reporting a live claim answers (a failed-over lease lives on a
// successor, so the walk cannot stop at the primary). Reads degrade —
// an unreachable member is treated as holding nothing.
func (r *Router) LeaseHolder(digest string) (string, bool) {
	for _, mi := range r.ring.order(digest) {
		if !r.healthy(mi) {
			continue
		}
		if owner, held := r.members[mi].b.LeaseHolder(digest); held {
			return owner, true
		}
	}
	return "", false
}

// Index merges every member's index, deduplicating by digest — the
// logical store's view, where a blob replicated R times is one blob.
func (r *Router) Index() []store.ManifestEntry {
	seen := map[string]bool{}
	var out []store.ManifestEntry
	for _, m := range r.members {
		for _, e := range m.b.Index() {
			if !seen[e.Digest] {
				seen[e.Digest] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// Len counts distinct digests across the ring.
func (r *Router) Len() int { return len(r.Index()) }

// Counters reports this router's traffic (logical operations, not the
// per-replica fan-out).
func (r *Router) Counters() store.Counters {
	return store.Counters{
		Hits:    r.hits.Load(),
		Misses:  r.misses.Load(),
		Corrupt: r.corrupt.Load(),
		Puts:    r.puts.Load(),
	}
}

// GC fans the policy out to every member and sums the passes. Each
// member applies the bound to its own shard of the keyspace —
// MaxBytes is per member, matching how the disks it protects are per
// member. Write discipline: every member is attempted, all errors
// surface joined.
func (r *Router) GC(p store.GCPolicy) (store.GCStats, error) {
	span := r.startSpan("router.gc")
	defer span.End()
	var total store.GCStats
	var errs []error
	for _, m := range r.members {
		gs, err := m.b.GC(p)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.id, err))
			continue
		}
		total.Scanned += gs.Scanned
		total.Evicted += gs.Evicted
		total.BytesBefore += gs.BytesBefore
		total.BytesAfter += gs.BytesAfter
		total.TmpRemoved += gs.TmpRemoved
		total.LeasesRemoved += gs.LeasesRemoved
	}
	if len(errs) > 0 {
		return total, fmt.Errorf("router: gc: %w", errors.Join(errs...))
	}
	return total, nil
}

// MemberHealth is one member's point-in-time status line.
type MemberHealth struct {
	// Location is the member's Location() — its URL or directory.
	Location string
	// Healthy is the member's current health signal (always true for
	// members without one).
	Healthy bool
	// Blobs is the member's own blob count (its Len(); 0 when the
	// member is unreachable — Len degrades).
	Blobs int
}

// MemberHealth snapshots every member for stats lines and operators.
func (r *Router) MemberHealth() []MemberHealth {
	out := make([]MemberHealth, len(r.members))
	for i, m := range r.members {
		out[i] = MemberHealth{Location: m.id, Healthy: r.healthy(i)}
		if out[i].Healthy {
			out[i].Blobs = m.b.Len()
		}
	}
	return out
}

// ReplicationStats reports the router's health and repair traffic — the
// replication-aware analogue of store.ResilienceStats. All fields are
// counters since construction except Members, Healthy, Replication, and
// PendingRepairs (point-in-time gauges).
type ReplicationStats struct {
	// Members is the ring size; Healthy is how many members currently
	// answer their health signal; Replication is the configured factor R.
	Members, Healthy, Replication int
	// Failovers counts operations routed past an unhealthy or failing
	// member to its ring successor (reads, writes, and lease claims).
	Failovers int64
	// UnderReplicatedPuts counts Puts acknowledged with fewer than R
	// replica writes — durable, but owed a repair.
	UnderReplicatedPuts int64
	// ReadRepairs counts replicas healed opportunistically by a Get that
	// observed a preferred member missing the blob it then found further
	// along the ring.
	ReadRepairs int64
	// ScrubRepairs counts replicas healed by the anti-entropy scrubber;
	// ScrubRuns counts completed scrub passes.
	ScrubRepairs, ScrubRuns int64
	// PendingRepairs gauges replica slots known to be missing their blob
	// (failed replica writes not yet healed by read-repair or a scrub).
	PendingRepairs int64
}

// ReplicationStats snapshots the router's replication counters.
func (r *Router) ReplicationStats() ReplicationStats {
	healthy := 0
	for i := range r.members {
		if r.healthy(i) {
			healthy++
		}
	}
	pending := r.pendingRepairs.Load()
	if pending < 0 {
		pending = 0
	}
	return ReplicationStats{
		Members:             len(r.members),
		Healthy:             healthy,
		Replication:         r.rf,
		Failovers:           r.failovers.Load(),
		UnderReplicatedPuts: r.underPuts.Load(),
		ReadRepairs:         r.readRepairs.Load(),
		ScrubRepairs:        r.scrubRepairs.Load(),
		ScrubRuns:           r.scrubRuns.Load(),
		PendingRepairs:      pending,
	}
}

// CanDegrade implements store.Resilient: redundancy is what the router
// degrades to — any single member outage is absorbed by the remaining
// replicas (and the local tier, when one exists).
func (r *Router) CanDegrade() bool { return len(r.members) > 1 || r.local != nil }

// Resilience implements store.Resilient, mapping replication traffic
// onto the degraded-mode vocabulary of store.ResilienceStats:
// Degraded is operations that routed around a member (failovers),
// Deferred is Puts that landed under-replicated (durable, repair owed),
// Reconciled is replicas healed (read-repair + scrub), Pending is
// replica slots still owed. Member-level journal traffic (a tiered
// member client) folds in on top.
func (r *Router) Resilience() store.ResilienceStats {
	pending := r.pendingRepairs.Load()
	if pending < 0 {
		pending = 0
	}
	rs := store.ResilienceStats{
		Degraded:   r.failovers.Load(),
		Deferred:   r.underPuts.Load(),
		Reconciled: r.readRepairs.Load() + r.scrubRepairs.Load(),
		Pending:    pending,
	}
	for _, m := range r.members {
		if res, ok := m.b.(store.Resilient); ok {
			mrs := res.Resilience()
			rs.Degraded += mrs.Degraded
			rs.Deferred += mrs.Deferred
			rs.Reconciled += mrs.Reconciled
			rs.Pending += mrs.Pending
		}
	}
	return rs
}

// Reconcile implements store.Resilient: every resilient member replays
// its journal (a member client's Reconcile also force-closes its
// breaker — the recovery assertion after an outage ends), then one
// scrub pass repairs the under-replication the outage left behind.
// Returns member replays plus replicas repaired.
func (r *Router) Reconcile() (int, error) {
	n := 0
	var errs []error
	for _, m := range r.members {
		if res, ok := m.b.(store.Resilient); ok {
			k, err := res.Reconcile()
			n += k
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", m.id, err))
			}
		}
	}
	st, err := r.Scrub()
	if err != nil {
		errs = append(errs, err)
	}
	n += st.Repaired
	if len(errs) > 0 {
		return n, fmt.Errorf("router: reconcile: %w", errors.Join(errs...))
	}
	return n, nil
}
