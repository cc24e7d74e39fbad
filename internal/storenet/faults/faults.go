// Package faults is the deterministic chaos harness for the store
// tier. It wraps either side of the store boundary — an http.Handler
// (the stored server mux) or a store.Backend (any client-side backend)
// — and injects failures according to a seeded Plan: transport errors,
// added latency, hard blackout windows, and torn (truncated) responses.
//
// Determinism is the point. Every injection decision is a pure function
// of (plan seed, request ordinal): the nth request through an injector
// fails or survives identically on every run, regardless of goroutine
// interleaving, so each resilience behavior in storenet and fleet has a
// reproducible regression test instead of a flaky probabilistic one.
// The ordinal is assigned atomically at arrival; under concurrency the
// assignment order may vary, but the *set* of injected faults over any
// N requests is fixed by the plan alone.
package faults

import (
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"golatest/internal/core"
	"golatest/internal/store"
)

// ErrInjected is the root of every backend-level injected failure, so
// tests can assert a failure came from the harness and not a real bug.
var ErrInjected = errors.New("faults: injected failure")

// Plan is a seeded fault schedule. Rates are probabilities in [0, 1]
// evaluated per request against the deterministic hash stream; the
// blackout window is ordinal-based: requests with BlackoutFrom <= seq <
// BlackoutTo fail outright, which scripts an outage at an exact point
// in a test's request sequence.
type Plan struct {
	// Seed selects the hash stream; two runs with equal seeds inject
	// identical fault sequences.
	Seed uint64
	// FailRate is the per-request probability of an injected error
	// (HTTP 500 from the middleware, ErrInjected from the backend).
	FailRate float64
	// DropRate (middleware only) tears the connection with no response
	// at all — the client sees a transport error, not a status.
	DropRate float64
	// TearRate (middleware only) sends the response status and headers
	// but truncates the body halfway, then kills the connection — the
	// torn-blob case store.ValidateBlob must catch.
	TearRate float64
	// Latency is added to every request before any other decision.
	Latency time.Duration
	// BlackoutFrom/BlackoutTo define a half-open ordinal window of
	// guaranteed failure; zero-zero means no blackout.
	BlackoutFrom, BlackoutTo int64
}

// mix is splitmix64: the per-request decision hash. Each (seed, seq)
// pair yields one well-mixed 64-bit value; successive decision kinds
// salt the seed so failing and tearing are independent coin flips.
func mix(seed, seq uint64) uint64 {
	z := seed + seq*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// hit converts one hash draw into a probability check. The top 53 bits
// give an unbiased uniform in [0, 1).
func hit(rate float64, seed, seq uint64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(mix(seed, seq)>>11)/(1<<53) < rate
}

// Decision kind salts: independent streams per fault class.
const (
	saltFail = 0x66616c69 // "fail"
	saltDrop = 0x64726f70 // "drop"
	saltTear = 0x74656172 // "tear"
)

// Counters reports what an injector actually did — tests assert on
// these to prove the fault path (not the happy path) was exercised.
type Counters struct {
	Requests  int64 // total requests seen
	Failed    int64 // injected error responses
	Dropped   int64 // connections torn pre-response
	Torn      int64 // responses truncated mid-body
	Blackouts int64 // requests refused inside a blackout or Kill window
}

// Injector is the HTTP chaos middleware: it wraps the stored server
// handler and applies the plan to every request. Kill and Restore
// script a hard outage (every request torn at the transport) without
// restarting the daemon process, which keeps outage tests fast and the
// listener's port stable.
type Injector struct {
	plan  Plan
	inner http.Handler

	seq  atomic.Int64
	down atomic.Bool

	requests, failed, dropped, torn, blackouts atomic.Int64
}

// NewInjector wraps handler with the plan's fault schedule.
func NewInjector(handler http.Handler, plan Plan) *Injector {
	return &Injector{plan: plan, inner: handler}
}

// Kill makes every subsequent request fail at the transport layer, as
// if the daemon vanished mid-connection. Restore undoes it.
func (in *Injector) Kill()    { in.down.Store(true) }
func (in *Injector) Restore() { in.down.Store(false) }

// Injected snapshots the fault counters.
func (in *Injector) Injected() Counters {
	return Counters{
		Requests:  in.requests.Load(),
		Failed:    in.failed.Load(),
		Dropped:   in.dropped.Load(),
		Torn:      in.torn.Load(),
		Blackouts: in.blackouts.Load(),
	}
}

func (in *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq := in.seq.Add(1) - 1
	in.requests.Add(1)
	if in.plan.Latency > 0 {
		time.Sleep(in.plan.Latency)
	}
	if in.down.Load() || (seq >= in.plan.BlackoutFrom && seq < in.plan.BlackoutTo &&
		in.plan.BlackoutTo > in.plan.BlackoutFrom) {
		in.blackouts.Add(1)
		// ErrAbortHandler is net/http's sanctioned way to tear the
		// connection without a response: the server suppresses the panic
		// log and the client observes a transport error — exactly what a
		// killed daemon looks like.
		panic(http.ErrAbortHandler)
	}
	if hit(in.plan.DropRate, in.plan.Seed^saltDrop, uint64(seq)) {
		in.dropped.Add(1)
		panic(http.ErrAbortHandler)
	}
	if hit(in.plan.FailRate, in.plan.Seed^saltFail, uint64(seq)) {
		in.failed.Add(1)
		http.Error(w, "faults: injected failure", http.StatusInternalServerError)
		return
	}
	if hit(in.plan.TearRate, in.plan.Seed^saltTear, uint64(seq)) {
		in.torn.Add(1)
		in.tear(w, r)
		return
	}
	in.inner.ServeHTTP(w, r)
}

// tear runs the real handler against a buffering recorder, then
// forwards the status and headers but only half the body before
// killing the connection — a mid-transfer daemon death. Content-Length
// still advertises the full body, so well-behaved clients detect the
// truncation as an unexpected EOF rather than a short-but-clean read.
func (in *Injector) tear(w http.ResponseWriter, r *http.Request) {
	cw := &captureWriter{header: make(http.Header), status: http.StatusOK}
	in.inner.ServeHTTP(cw, r)
	for k, vs := range cw.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(cw.status)
	body := cw.body
	if len(body) > 1 {
		_, _ = w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	panic(http.ErrAbortHandler)
}

// captureWriter buffers a handler's full response so tear can replay a
// prefix of it.
type captureWriter struct {
	header http.Header
	status int
	body   []byte
}

func (c *captureWriter) Header() http.Header    { return c.header }
func (c *captureWriter) WriteHeader(status int) { c.status = status }
func (c *captureWriter) Write(p []byte) (int, error) {
	c.body = append(c.body, p...)
	return len(p), nil
}

// Backend wraps an inner store.Backend with the plan's error schedule —
// fleet-level resilience tests without an HTTP server in the loop.
// Injected faults follow the Backend error discipline: reads degrade to
// misses, writes and claims surface ErrInjected. Tear/drop rates (wire
// concepts) are folded into FailRate here.
type Backend struct {
	inner store.Backend
	plan  Plan

	seq  atomic.Int64
	down atomic.Bool

	requests, failed, blackouts atomic.Int64
}

// WrapBackend applies the plan to every Get/Put/Has/lease call on
// inner. Index, Len, Counters, and GC pass through untouched — they are
// bookkeeping, not the sweep-critical path under test.
func WrapBackend(inner store.Backend, plan Plan) *Backend {
	return &Backend{inner: inner, plan: plan}
}

var _ store.Backend = (*Backend)(nil)

// Kill makes every subsequent call fail; Restore undoes it.
func (b *Backend) Kill()    { b.down.Store(true) }
func (b *Backend) Restore() { b.down.Store(false) }

// Injected snapshots the fault counters (Dropped/Torn stay zero; those
// are wire faults).
func (b *Backend) Injected() Counters {
	return Counters{
		Requests:  b.requests.Load(),
		Failed:    b.failed.Load(),
		Blackouts: b.blackouts.Load(),
	}
}

// inject decides one call's fate: nil means proceed to the inner
// backend.
func (b *Backend) inject() error {
	seq := b.seq.Add(1) - 1
	b.requests.Add(1)
	if b.plan.Latency > 0 {
		time.Sleep(b.plan.Latency)
	}
	if b.down.Load() || (seq >= b.plan.BlackoutFrom && seq < b.plan.BlackoutTo &&
		b.plan.BlackoutTo > b.plan.BlackoutFrom) {
		b.blackouts.Add(1)
		return ErrInjected
	}
	if hit(b.plan.FailRate, b.plan.Seed^saltFail, uint64(seq)) {
		b.failed.Add(1)
		return ErrInjected
	}
	return nil
}

func (b *Backend) Location() string { return b.inner.Location() }

func (b *Backend) Get(k store.Key) (*core.Result, bool) {
	if b.inject() != nil {
		return nil, false // reads degrade to a miss
	}
	return b.inner.Get(k)
}

func (b *Backend) Put(k store.Key, res *core.Result) error {
	if err := b.inject(); err != nil {
		return err
	}
	return b.inner.Put(k, res)
}

func (b *Backend) Has(k store.Key) bool {
	if b.inject() != nil {
		return false
	}
	return b.inner.Has(k)
}

func (b *Backend) TryAcquire(digest, owner string, ttl time.Duration) (store.LeaseHandle, bool, error) {
	if err := b.inject(); err != nil {
		return nil, false, err
	}
	return b.inner.TryAcquire(digest, owner, ttl)
}

func (b *Backend) LeaseHolder(digest string) (string, bool) {
	if b.inject() != nil {
		return "", false
	}
	return b.inner.LeaseHolder(digest)
}

func (b *Backend) Index() []store.ManifestEntry { return b.inner.Index() }
func (b *Backend) Len() int                     { return b.inner.Len() }
func (b *Backend) Counters() store.Counters     { return b.inner.Counters() }
func (b *Backend) GC(p store.GCPolicy) (store.GCStats, error) {
	return b.inner.GC(p)
}
