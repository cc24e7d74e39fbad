package storenet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"golatest/internal/core"
	"golatest/internal/obs"
	"golatest/internal/store"
)

// ErrUnavailable marks a request fast-failed by the open circuit
// breaker: the daemon is evidently down and the client refused to burn
// a timeout finding out again. Reads treat it as a miss; Put falls back
// to the deferred (write-behind) path when a local tier exists.
var ErrUnavailable = errors.New("storenet: store unavailable (circuit open)")

// ErrAuth marks a request the daemon understood and refused on
// credentials: 401 (missing/unknown token) or 403 (insufficient
// scope). Terminal by design — the identical request would be refused
// identically, so it is never retried and a Put carrying it is never
// deferred to the pending journal (a journal full of doomed replays
// would turn a config error into silent data loss at reconcile time).
// Fix ClientOptions.Token or the daemon's token file instead.
var ErrAuth = errors.New("storenet: rejected by daemon auth (check ClientOptions.Token and its scopes)")

// ErrRateLimited marks a request budget exhausted against a live,
// throttling daemon (429). Each 429 is honored with its Retry-After
// before the next attempt and never counts as a breaker strike — the
// daemon answering 429 is healthy, and tripping the breaker would
// convert backpressure into a fake outage. Like ErrAuth it never
// defers a Put: replaying later through the journal would dodge the
// very quota the daemon is enforcing.
var ErrRateLimited = errors.New("storenet: rate limited by daemon")

// Write-behind journal layout: one marker file per deferred digest, in
// a subdirectory of the cache store's directory. The store's own scans
// (Index and GC) skip directories, so the journal is invisible to the
// local tier's machinery; the blob bytes themselves live in the cache
// as ordinary blobs, the marker only records "the daemon has not seen
// this one yet". The marker body is the deferring request's W3C
// traceparent (or empty when tracing was off), so a reconcile replay —
// possibly minutes later, possibly from a different process — still
// carries the originating sweep's trace ID and the daemon's /debug/ops
// ring attributes the late write to the sweep that produced it.
const (
	pendingDirName = "pending"
	pendingSuffix  = ".pend"
)

// Client speaks the v1 API to a stored daemon and implements
// store.Backend, so fleet sweeps and experiment suites use a remote
// store through the exact code paths they use for a local directory.
//
// # Cache tier
//
// With Options.Cache set, the client runs write-through over a local
// *store.Store: Get serves local hits without a network round trip, a
// remote hit heals the local tier (the validated bytes are written
// down), and Put lands in both. Because blobs are immutable per digest,
// the tiers can never disagree about a key's content — only about its
// presence — so the local tier is pure acceleration. Leases go remote:
// claims are arbitrated fleet-wide, and fall back to the local tier's
// lease files only while the daemon cannot answer (see below).
//
// # Failure discipline
//
// Reads degrade, writes surface — the Backend contract. Idempotent
// verbs (GET, HEAD, PUT: content-addressed, same bytes every time) are
// retried with jittered backoff on connection errors and 5xx responses;
// lease operations are never retried, because an acquire whose response
// was lost may have been granted — the claim loop's wait/steal path
// resolves that ambiguity within one TTL, which a blind retry would
// turn into a self-steal. Every attempt carries its own request
// deadline (Options.RequestTimeout), so one hung response costs one
// attempt, never the whole retry budget.
//
// A Get whose response body is truncated, tampered with, or otherwise
// fails validation (store.ValidateBlob: container, schema, digest) is a
// miss and ticks the Corrupt counter — the caller recomputes and the
// subsequent Put heals both tiers, mirroring the local corrupt-blob
// path. It is never an error and can never yield a wrong result.
//
// # Circuit breaker and degraded mode
//
// Consecutive attempt failures open a circuit breaker: while it is
// open, requests fail immediately with ErrUnavailable instead of each
// burning a timeout-and-retry cycle, and after a cooldown a single
// half-open probe decides whether to close it. With a local tier
// configured the client then runs in degraded mode rather than
// failing: Gets serve local-only, lease claims are arbitrated by the
// cache directory (so processes sharing it still partition the work),
// and Puts land in the local tier plus a write-behind journal (pending/
// inside the cache directory) that Reconcile — explicit, or kicked off
// automatically when the breaker closes — replays to the daemon. Refusals
// from a live daemon (401/403, 429, other 4xx) never degrade: they
// surface to the caller. Blobs are content-addressed and
// immutable, so the replay is idempotent and byte-identical to what a
// healthy Put would have stored: degraded mode trades away only
// freshness of the shared tier, never correctness or exactly-once
// artefacts. Resilience() reports the degraded/deferred/reconciled
// traffic.
type Client struct {
	base       string
	hc         *http.Client
	cache      *store.Store
	auth       string // "Bearer <token>", or "" for open daemons
	retries    int
	backoff    time.Duration
	reqTimeout time.Duration
	br         *breaker

	// jstate is the retry-jitter RNG state, advanced atomically per
	// draw; seeding it (ClientOptions.Seed) makes the jitter sequence —
	// and thus every backoff schedule — reproducible in tests.
	jstate atomic.Uint64

	// pendingDir is the write-behind journal: one marker file per
	// deferred digest, persisted inside the cache directory so an
	// interrupted process's deferred writes survive to the next
	// Reconcile (the experiments -reconcile flag).
	pendingDir  string
	reconcileMu sync.Mutex

	// tracer records one client span per wire operation; nil (the
	// default) keeps the whole span path at zero cost. tctx is the
	// ambient parent — the sweep root span's context, handed over by
	// fleet.Sweep through SetTraceContext — under which request spans
	// are parented and whose traceparent rides every request.
	tracer *obs.Tracer
	tctx   atomic.Pointer[obs.SpanContext]

	// log receives breaker state edges and reconcile outcomes; defaults
	// to discard. lastErr remembers the most recent failed attempt's
	// error text so a breaker-open log line can say what broke.
	log     *slog.Logger
	lastErr atomic.Pointer[string]

	hits, misses, corrupt, puts             atomic.Int64
	degraded, deferred, reconciled, pending atomic.Int64

	// Telemetry counters beyond the Backend Counters contract — see
	// Telemetry().
	retryCount, rateLimited                atomic.Int64
	brOpened, brHalfOpened, brClosed       atomic.Int64
	decodePasses, bytesSent, bytesReceived atomic.Int64
}

// ClientOptions configures a Client; the zero value works.
type ClientOptions struct {
	// Cache, when non-nil, is the local write-through tier — and the
	// degraded-mode fallback: with it set, an unreachable daemon means
	// local-only reads and journaled (deferred) writes instead of
	// errors.
	Cache *store.Store
	// HTTPClient overrides the default client (keep-alive transport).
	// Per-attempt deadlines come from RequestTimeout either way.
	HTTPClient *http.Client
	// Token is the bearer credential sent as "Authorization: Bearer
	// <token>" on every request, for daemons running with -tokens.
	// Empty means none (open daemons). A daemon answering 401/403 is
	// terminal per request — see ErrAuth — and 429 throttling is
	// honored via Retry-After without tripping the circuit breaker.
	Token string
	// Retries is the attempt budget per idempotent request; 0 means 3.
	Retries int
	// RetryBackoff is the initial retry delay, doubling per attempt
	// with up to 50% seeded jitter on top; 0 means 50 ms.
	RetryBackoff time.Duration
	// RequestTimeout bounds each attempt (not the whole retry budget)
	// via a per-request context, so one hung response cannot consume
	// every retry's worth of wall clock. 0 means 15 s.
	RequestTimeout time.Duration
	// BreakerThreshold is how many consecutive attempt failures open
	// the circuit breaker; 0 means 5, negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// admitting a half-open probe; 0 means 2 s.
	BreakerCooldown time.Duration
	// Seed derives the retry-jitter sequence. Two clients with distinct
	// seeds (derive it from the fleet owner id) desynchronise their
	// retry storms; equal seeds reproduce schedules exactly, which is
	// what keeps fault-injection tests deterministic. 0 is a valid
	// seed.
	Seed uint64
	// Tracer, when non-nil, records one client span per wire operation
	// (get/put/head/lease/...) and stamps every request with a W3C
	// traceparent header so the daemon's logs, latency observations and
	// /debug/ops flight recorder correlate with this client's spans.
	// nil means tracing off, at zero cost on every path.
	Tracer *obs.Tracer
	// Logger receives operational edges — breaker open/half-open/close
	// transitions (with consecutive-failure count and last error) and
	// reconcile outcomes. nil discards.
	Logger *slog.Logger
}

var (
	_ store.Backend         = (*Client)(nil)
	_ store.Resilient       = (*Client)(nil)
	_ store.ValidatedGetter = (*Client)(nil)
	_ store.ValidatedPutter = (*Client)(nil)
)

// NewClient validates the base URL (http or https, e.g. the
// "http://host:8417" a stored daemon prints) and builds the backend.
// Construction does not touch the network: a daemon that is down at
// start behaves like any other degraded read until writes need it.
func NewClient(baseURL string, opts ClientOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("storenet: base url %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("storenet: base url %q: need http(s)://host[:port]", baseURL)
	}
	hc := opts.HTTPClient
	if hc == nil {
		// One client per fleet process issues many small requests to one
		// host: keep-alive connection reuse is the whole ballgame. No
		// blanket Timeout — each attempt carries its own context
		// deadline (RequestTimeout), which is what lets a retry start
		// the moment its predecessor hangs.
		hc = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	retries := opts.Retries
	if retries <= 0 {
		retries = 3
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = 15 * time.Second
	}
	auth := ""
	if opts.Token != "" {
		auth = "Bearer " + opts.Token
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	c := &Client{
		base:       strings.TrimRight(u.String(), "/"),
		hc:         hc,
		cache:      opts.Cache,
		auth:       auth,
		retries:    retries,
		backoff:    backoff,
		reqTimeout: reqTimeout,
		br:         newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, nil),
		tracer:     opts.Tracer,
		log:        logger,
	}
	// Breaker state edges were previously silent — an operator learned
	// the circuit had opened only from a wall of ErrUnavailable. Log
	// every edge with the evidence (consecutive failures, last error)
	// and count them for Telemetry(). The hook runs under the breaker
	// lock, so it only counts and logs.
	c.br.onTransition = func(from, to int, fails int) {
		switch to {
		case breakerOpen:
			c.brOpened.Add(1)
		case breakerHalfOpen:
			c.brHalfOpened.Add(1)
		case breakerClosed:
			c.brClosed.Add(1)
		}
		lastErr := ""
		if p := c.lastErr.Load(); p != nil {
			lastErr = *p
		}
		lvl := slog.LevelInfo
		if to == breakerOpen {
			lvl = slog.LevelWarn
		}
		c.log.Log(context.Background(), lvl, "storenet: breaker state change",
			"base", c.base,
			"from", breakerStateName(from),
			"to", breakerStateName(to),
			"consecutive_failures", fails,
			"last_error", lastErr)
	}
	c.jstate.Store(opts.Seed ^ 0x9e3779b97f4a7c15)
	if opts.Cache != nil {
		c.pendingDir = filepath.Join(opts.Cache.Dir(), pendingDirName)
		// Count journal entries a previous process left behind, so
		// Resilience().Pending is right from the first call and the
		// recovery edge knows there is something to replay.
		if entries, err := os.ReadDir(c.pendingDir); err == nil {
			for _, de := range entries {
				if !de.IsDir() && strings.HasSuffix(de.Name(), pendingSuffix) {
					c.pending.Add(1)
				}
			}
		}
	}
	return c, nil
}

// Location implements Backend: a remote store is located at its URL.
func (c *Client) Location() string { return c.base }

// SetTraceContext implements obs.TraceContextSetter: it installs the
// ambient parent (typically a sweep's root span context) under which
// subsequent request spans are created and propagated. The zero
// context clears it. Safe for concurrent use; store.Backend carries no
// context parameter, so this is how a trace crosses the Backend seam.
func (c *Client) SetTraceContext(sc obs.SpanContext) {
	if sc.Valid() {
		c.tctx.Store(&sc)
	} else {
		c.tctx.Store(nil)
	}
}

// traceParent is the ambient parent context for new request spans.
func (c *Client) traceParent() obs.SpanContext {
	if p := c.tctx.Load(); p != nil {
		return *p
	}
	return obs.SpanContext{}
}

// startSpan opens one client span for a wire operation under the
// ambient trace context. Returns nil (free everywhere downstream) when
// tracing is off.
func (c *Client) startSpan(op string) *obs.Span {
	if c.tracer == nil {
		return nil
	}
	return c.tracer.StartSpan(op, c.traceParent())
}

func (c *Client) blobURL(digest string) string {
	return c.base + apiPrefix + "/blobs/" + url.PathEscape(digest)
}

func (c *Client) leaseURL(digest, op string) string {
	u := c.base + apiPrefix + "/leases/" + url.PathEscape(digest)
	if op != "" {
		u += "/" + op
	}
	return u
}

// jitter draws the next seeded jitter value in [0, max]. Without it,
// every worker in a fleet that hits the same blip sleeps the identical
// deterministic backoff and retries in lockstep — N synchronized
// retry waves against a daemon that is trying to come back. The draw
// is a splitmix64 step over atomic state: deterministic per seed (so
// fault-injection tests reproduce schedules exactly), distinct per
// seed across a fleet.
func (c *Client) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	z := c.jstate.Add(0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return time.Duration(z % uint64(max+1))
}

// newAttempt builds one request under its own deadline. The returned
// cancel must run once the attempt's response is fully consumed —
// success paths hand it to cancelBody (fired on Body.Close), failure
// paths call it directly.
func (c *Client) newAttempt(method, u string, body []byte, traceparent string) (*http.Request, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.reqTimeout)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if c.auth != "" {
		req.Header.Set("Authorization", c.auth)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	return req, cancel, nil
}

// cancelBody ties an attempt's context to its response body: the
// deadline must outlive the body read (cancelling earlier would kill
// the transfer mid-stream), and every response path already closes the
// body to recycle the keep-alive connection.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// recordAttempt feeds the breaker and, on the open→closed recovery
// edge, kicks the background reconciler when deferred writes are
// waiting — the "heal the remote when it returns" half of degraded
// mode, with no operator in the loop. cause (nil on success) is
// remembered so the breaker's transition log can name what broke.
func (c *Client) recordAttempt(ok bool, cause error) {
	if cause != nil {
		s := cause.Error()
		c.lastErr.Store(&s)
	}
	if c.br.record(ok) && c.pending.Load() > 0 {
		go func() { _, _ = c.Reconcile() }()
	}
}

// doIdempotent issues one GET/HEAD/PUT with bounded retries on
// connection errors and 5xx responses, each attempt under its own
// RequestTimeout deadline. The body, when present, is replayed from
// memory on every attempt. 4xx responses return immediately — retrying
// a request the server understood and refused only repeats the
// refusal. While the circuit breaker is open the whole call fails
// immediately with ErrUnavailable — no connection, no sleep.
//
// span, when non-nil, is the caller's client span for this logical
// operation: its context rides every attempt as the traceparent header
// (so the daemon's records correlate back to it) and retry/throttle
// edges are recorded on it as events. parent overrides the propagated
// context when span is nil — the reconcile replay path uses it to
// carry a journaled marker's original trace even when tracing is off.
//
// No request sets Accept-Encoding itself, so the transport negotiates
// and undoes any gzip a reverse proxy in front of the daemon adds: blob
// bodies always reach validation as the daemon's v3 bytes, and control
// JSON as JSON.
func (c *Client) doIdempotent(method, u string, body []byte, span *obs.Span, parent obs.SpanContext) (*http.Response, error) {
	traceparent := ""
	if span != nil {
		traceparent = span.Context().Traceparent()
	} else if parent.Valid() {
		traceparent = parent.Traceparent()
	}
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			c.retryCount.Add(1)
			span.Event("retry")
			d := c.backoff << (attempt - 1)
			time.Sleep(d + c.jitter(d/2))
		}
		if !c.br.allow() {
			// Fail the operation, not just the attempt: the remaining
			// retries would fast-fail identically, and sleeping between
			// them is exactly the stall the breaker exists to remove.
			span.Event("breaker.fastfail")
			return nil, fmt.Errorf("storenet: %s %s: %w", method, u, ErrUnavailable)
		}
		req, cancel, err := c.newAttempt(method, u, body, traceparent)
		if err != nil {
			return nil, err
		}
		c.bytesSent.Add(int64(len(body)))
		resp, err := c.hc.Do(req)
		if err != nil {
			cancel()
			c.recordAttempt(false, err)
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			c.drain(resp)
			cancel()
			lastErr = fmt.Errorf("storenet: %s %s: %s", method, u, resp.Status)
			c.recordAttempt(false, lastErr)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Backpressure from a live daemon: honor its Retry-After on
			// top of the normal backoff, and feed the breaker a success —
			// a throttling daemon is a healthy daemon, and opening the
			// circuit here would turn a quota into a fake outage (and,
			// with a local tier, shunt writes into the pending journal,
			// which a quota refusal must never reach).
			c.rateLimited.Add(1)
			span.Event("ratelimited")
			wait := retryAfterDelay(resp)
			c.drain(resp)
			cancel()
			c.recordAttempt(true, nil)
			lastErr = fmt.Errorf("storenet: %s %s: %s: %w", method, u, resp.Status, ErrRateLimited)
			if attempt < c.retries-1 {
				time.Sleep(wait)
			}
			continue
		}
		c.recordAttempt(true, nil)
		resp.Body = cancelBody{ReadCloser: resp.Body, cancel: cancel}
		return resp, nil
	}
	return nil, fmt.Errorf("storenet: %s %s: giving up after %d attempts: %w",
		method, u, c.retries, lastErr)
}

// doOnce issues one non-idempotent (lease) request, exactly once,
// under one RequestTimeout deadline. Lease traffic shares the breaker:
// its failures are the same daemon being down, and while the circuit
// is open a request fast-fails with ErrUnavailable.
func (c *Client) doOnce(u string, body any, span *obs.Span) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	if !c.br.allow() {
		span.Event("breaker.fastfail")
		return nil, fmt.Errorf("storenet: POST %s: %w", u, ErrUnavailable)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.reqTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(data))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.auth != "" {
		req.Header.Set("Authorization", c.auth)
	}
	if tp := span.Context().Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	c.bytesSent.Add(int64(len(data)))
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		c.recordAttempt(false, err)
		return nil, err
	}
	// Any response is a live daemon — a 409 busy lease is the protocol
	// working, not a failure.
	c.recordAttempt(true, nil)
	resp.Body = cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// retryAfterDelay parses a 429's Retry-After header (the delta-seconds
// form the daemon emits; the HTTP-date form is not worth supporting
// for a single-purpose API). Missing or malformed values fall back to
// the normal backoff schedule; hostile values are capped so a bad
// proxy cannot park a client for minutes.
func retryAfterDelay(resp *http.Response) time.Duration {
	const maxRetryAfter = 30 * time.Second
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// drain discards and closes a response body so the connection returns
// to the keep-alive pool instead of being torn down.
func (c *Client) drain(resp *http.Response) {
	n, _ := io.Copy(io.Discard, io.LimitReader(resp.Body, maxControlBytes))
	c.bytesReceived.Add(n)
	resp.Body.Close()
}

// readBody reads the full (bounded) body and closes it. Every response
// — including 404 messages and JSON with a trailing newline — must be
// consumed to EOF, or the transport discards the connection instead of
// pooling it and each subsequent request pays a fresh handshake.
func (c *Client) readBody(resp *http.Response, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	c.bytesReceived.Add(int64(len(data)))
	return data, err
}

// bodyBufs recycles blob-body buffers across warm Gets. The buffer's
// bytes never outlive the Get: validation decodes out of them (the
// decoder copies every string) and the cache heal writes them to disk,
// so returning the buffer to the pool afterwards is safe — and it
// deletes the single largest per-Get allocation from the warm path.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBodyBuf caps what bodyBufs retains: one pathological
// near-maxBlobBytes response must not pin a 256 MiB buffer in the pool
// for the life of the process.
const maxPooledBodyBuf = 8 << 20

func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBodyBuf {
		bodyBufs.Put(buf)
	}
}

// readBodyInto drains the (bounded) body into buf and closes it,
// reporting a transfer that died mid-body.
func (c *Client) readBodyInto(buf *bytes.Buffer, resp *http.Response, limit int64) error {
	defer resp.Body.Close()
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, limit))
	c.bytesReceived.Add(n)
	return err
}

// Get resolves a key: local tier first, then the daemon. The response
// body is the daemon's v3 disk bytes verbatim, read into a pooled
// buffer and validated exactly once by store.ValidateBlobBytes — the
// body is decoded straight into the result, and the resulting
// ValidatedBlob carries both the decoded result and the proof the
// bytes cleared validation. A remote hit heals the local
// tier by handing that proof to PutValidated, which writes the wire
// bytes to disk verbatim with no second decode; an invalid or
// truncated remote body is a miss (Corrupt counter), exactly like a
// corrupt local blob.
func (c *Client) Get(k store.Key) (*core.Result, bool) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer putBodyBuf(buf)
	vb, ok := c.fetch(k.Digest, buf)
	if !ok {
		return nil, false
	}
	return vb.Result(), true
}

// GetValidated implements store.ValidatedGetter: Get's path, but
// returning the proof-carrying blob — validated container bytes plus
// the decoded result from the same single parse — instead of just the
// result. The router's read-repair rides this: a member that misses is
// healed with another member's validated bytes verbatim. Unlike Get,
// the returned bytes are freshly allocated (not pooled scratch), so
// they survive the call.
func (c *Client) GetValidated(digest string) (*store.ValidatedBlob, bool) {
	return c.fetch(digest, new(bytes.Buffer))
}

// fetch is the read path under Get and GetValidated: local tier, then
// the daemon, reading the remote body into buf. The returned blob
// aliases buf when it came off the wire.
func (c *Client) fetch(digest string, buf *bytes.Buffer) (*store.ValidatedBlob, bool) {
	if c.cache != nil {
		if vb, ok := c.cache.GetValidated(digest); ok {
			c.hits.Add(1)
			return vb, true
		}
	}
	span := c.startSpan("storenet.get")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodGet, c.blobURL(digest), nil, span, obs.SpanContext{})
	if err != nil {
		if errors.Is(err, ErrUnavailable) {
			// Degraded read: the local tier (checked above) was the whole
			// answer. A miss here is recoverable — the caller recomputes —
			// and it cost microseconds instead of a timeout.
			c.degraded.Add(1)
			span.SetAttr("outcome", "degraded")
		} else {
			span.SetAttr("outcome", "error")
		}
		c.misses.Add(1)
		return nil, false
	}
	readErr := c.readBodyInto(buf, resp, maxBlobBytes)
	if resp.StatusCode != http.StatusOK {
		c.misses.Add(1)
		span.SetAttr("outcome", "miss")
		return nil, false
	}
	var vb *store.ValidatedBlob
	if readErr == nil {
		// A transfer that died mid-body is corrupt without a decode.
		c.decodePasses.Add(1)
		vb, readErr = store.ValidateBlobBytes(buf.Bytes(), digest)
	}
	if readErr != nil {
		c.corrupt.Add(1)
		c.misses.Add(1)
		span.SetAttr("outcome", "corrupt")
		return nil, false
	}
	if c.cache != nil {
		// Best-effort heal: a full local disk must not fail a read the
		// remote already answered. The proof-carrying handoff writes the
		// wire bytes verbatim — no second decode — before buf's owner
		// can recycle it.
		_ = c.cache.PutValidated(vb)
	}
	c.hits.Add(1)
	span.SetAttr("outcome", "hit")
	return vb, true
}

// Healthy reports whether this client currently offers its daemon a
// realistic chance of answering: false exactly while the circuit
// breaker is open inside its cooldown (every request would fast-fail
// with ErrUnavailable). The replicating router uses it to route
// traffic — most importantly lease claims — past a downed member to
// its ring successor, and resumes routing here the moment the breaker
// would admit its half-open probe.
func (c *Client) Healthy() bool { return !c.br.isOpen() }

// Put encodes once — straight into the v3 binary container — and
// writes through: daemon first (authoritative — its failure fails the
// Put), then the local tier (best-effort, the same bytes verbatim).
// The wire carries the v3 bytes as application/octet-stream; the
// daemon stores them as-is after validation.
//
// When the daemon is unreachable (breaker open, or the retry budget
// exhausted on transport/5xx failures) and a local tier exists, the Put
// defers instead of failing: the blob lands locally and a journal
// marker records it for Reconcile. A 4xx refusal never defers — the
// daemon saw the request and rejected it, so replaying the identical
// bytes later would fail identically.
func (c *Client) Put(k store.Key, res *core.Result) error {
	if res == nil {
		return fmt.Errorf("storenet: nil result for %s", k)
	}
	data, err := store.EncodeBlobV3(k, res)
	if err != nil {
		return fmt.Errorf("storenet: encode %s: %w", k, err)
	}
	return c.putContainer(k, data)
}

// PutValidated implements store.ValidatedPutter: it uploads an
// already-validated container verbatim — no re-encode, no second parse.
// This is the write half of the router's read-repair path: the bytes a
// member's Get validated travel to an under-replicated member exactly
// as they came off the wire. Degraded-mode semantics match Put (an
// unreachable daemon defers into the journal when a local tier exists).
func (c *Client) PutValidated(vb *store.ValidatedBlob) error {
	// The blob's bytes may alias a caller's scratch buffer; the journal
	// and retry paths below persist or replay them synchronously within
	// this call, so no copy is needed.
	return c.putContainer(vb.Key(), vb.Bytes())
}

// putContainer uploads one v3 container under the key's digest, with
// Put's full failure discipline: retries and breaker via doIdempotent,
// journal deferral for infrastructure failures when a local tier
// exists, and terminal 4xx — 401/403 as ErrAuth, anything else (a 400
// for bytes the daemon will not store) as an error naming the status.
func (c *Client) putContainer(k store.Key, data []byte) error {
	span := c.startSpan("storenet.put")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodPut, c.blobURL(k.Digest), data, span, obs.SpanContext{})
	if err != nil {
		// Only infrastructure failures (transport, 5xx, open breaker)
		// defer; a rate-limit refusal is the daemon telling this tenant
		// to slow down, and journaling the write would smuggle it past
		// the quota at reconcile time.
		if c.cache != nil && !errors.Is(err, ErrRateLimited) {
			return c.deferPut(k, data, err, span)
		}
		return fmt.Errorf("storenet: put %s: %w", k, err)
	}
	c.drain(resp)
	if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
		// Terminal: the daemon saw the request and refused the
		// credential. Never retried (the refusal is deterministic),
		// never deferred (the journal replay would be refused too).
		return fmt.Errorf("storenet: put %s: %s: %w", k, resp.Status, ErrAuth)
	}
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("storenet: put %s: %s", k, resp.Status)
	}
	if c.cache != nil {
		_ = c.cache.PutRaw(k.Digest, data)
	}
	c.puts.Add(1)
	return nil
}

// deferPut is the degraded write path: land the blob in the local tier,
// then journal it for replay. Both steps must succeed for the Put to
// count as durable — a blob we could neither send nor keep is a real
// write failure and surfaces as one (wrapping cause, the network error
// that forced the deferral). The deferring operation's span context is
// journaled with the marker so the eventual replay still carries the
// originating sweep's trace ID.
func (c *Client) deferPut(k store.Key, data []byte, cause error, span *obs.Span) error {
	if err := c.cache.PutRaw(k.Digest, data); err != nil {
		return fmt.Errorf("storenet: put %s: remote %v; local tier: %w", k, cause, err)
	}
	sc := span.Context()
	if !sc.Valid() {
		sc = c.traceParent()
	}
	if err := c.markPending(k.Digest, sc.Traceparent()); err != nil {
		return fmt.Errorf("storenet: put %s: remote %v; journal: %w", k, cause, err)
	}
	span.Event("defer")
	c.deferred.Add(1)
	c.puts.Add(1)
	return nil
}

// markPending records a digest in the write-behind journal. O_EXCL
// makes the marker idempotent per digest: re-deferring a blob already
// journaled (same content, content-addressed) is a no-op and the
// pending gauge counts files, not events. The marker body is the
// deferring request's traceparent ("" when tracing was off) — replay
// provenance, carried on disk across processes.
func (c *Client) markPending(digest, traceparent string) error {
	if err := os.MkdirAll(c.pendingDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(c.pendingDir, digest+pendingSuffix),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil
		}
		return err
	}
	if traceparent != "" {
		_, _ = f.WriteString(traceparent + "\n")
	}
	f.Close()
	c.pending.Add(1)
	return nil
}

// CanDegrade implements store.Resilient: a local tier is what degraded
// mode degrades to.
func (c *Client) CanDegrade() bool { return c.cache != nil }

// Resilience implements store.Resilient.
func (c *Client) Resilience() store.ResilienceStats {
	return store.ResilienceStats{
		Degraded:   c.degraded.Load(),
		Deferred:   c.deferred.Load(),
		Reconciled: c.reconciled.Load(),
		Pending:    c.pending.Load(),
	}
}

// Telemetry is a point-in-time snapshot of this client's wire-level
// behavior since construction; every field is a monotonic counter.
// The degraded-mode traffic (deferred, replayed and pending writes) is
// Resilience's to report.
type Telemetry struct {
	// Retries counts retry attempts actually issued (attempt ≥ 2 of an
	// idempotent request), not sleeps scheduled.
	Retries int64 `json:"retries"`
	// RateLimited counts 429 responses honored via Retry-After.
	RateLimited int64 `json:"rate_limited"`
	// Breaker edge counts by destination state: how often the circuit
	// opened (outage detected), admitted a half-open probe, and closed
	// (recovered or explicitly reset).
	BreakerOpened   int64 `json:"breaker_opened"`
	BreakerHalfOpen int64 `json:"breaker_half_open"`
	BreakerClosed   int64 `json:"breaker_closed"`
	// DecodePasses counts response-body validations this client ran
	// (each is one decode of a blob container — the "validated exactly
	// once" invariant makes this equal to remote read traffic).
	DecodePasses int64 `json:"decode_passes"`
	// BytesSent / BytesReceived are wire bytes by direction at the
	// body level (headers excluded): request bodies out, response
	// bodies in.
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
}

// Telemetry returns the client's wire-level counters.
func (c *Client) Telemetry() Telemetry {
	return Telemetry{
		Retries:         c.retryCount.Load(),
		RateLimited:     c.rateLimited.Load(),
		BreakerOpened:   c.brOpened.Load(),
		BreakerHalfOpen: c.brHalfOpened.Load(),
		BreakerClosed:   c.brClosed.Load(),
		DecodePasses:    c.decodePasses.Load(),
		BytesSent:       c.bytesSent.Load(),
		BytesReceived:   c.bytesReceived.Load(),
	}
}

// Reconcile replays the write-behind journal to the daemon, returning
// how many blobs were uploaded. It first force-closes the breaker —
// calling Reconcile is an assertion the daemon is back, and if it is
// not, the replay's own failures re-open the circuit and the remaining
// markers stay journaled for the next pass. Entries whose blob has been
// evicted from the local tier are dropped: the result is recomputable
// on demand, and a marker with nothing to replay is debris.
//
// Replay is idempotent by construction: blobs are content-addressed and
// immutable, so re-uploading one the daemon already has (e.g. a crash
// between upload and marker removal, or a peer that raced us) stores
// the identical bytes under the identical digest.
func (c *Client) Reconcile() (int, error) {
	c.reconcileMu.Lock()
	defer c.reconcileMu.Unlock()
	// The breaker reset is unconditional — the recovery assertion is
	// meaningful even for a cache-less client with no journal to replay
	// (a replicating router telling its members the outage is over).
	c.br.reset()
	if c.pendingDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(c.pendingDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("storenet: reconcile: %w", err)
	}
	replayed := 0
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, pendingSuffix) {
			continue
		}
		digest := strings.TrimSuffix(name, pendingSuffix)
		marker := filepath.Join(c.pendingDir, name)
		data, ok := c.cache.GetRaw(digest)
		if !ok {
			// Evicted locally: nothing to replay. Drop the marker.
			if os.Remove(marker) == nil {
				c.pending.Add(-1)
			}
			continue
		}
		// The marker body carries the deferring request's traceparent:
		// replay under the same trace, so the daemon's /debug/ops ring
		// attributes the late write to the sweep that produced it. A
		// live tracer additionally records the replay as a span of that
		// trace; without one the journaled header rides verbatim.
		origin := c.markerContext(marker)
		var span *obs.Span
		if c.tracer != nil && origin.Valid() {
			span = c.tracer.StartSpan("storenet.reconcile.put", origin)
		} else {
			span = c.startSpan("storenet.reconcile.put")
		}
		resp, err := c.doIdempotent(http.MethodPut, c.blobURL(digest), data, span, origin)
		if err != nil {
			span.SetAttr("outcome", "error")
			span.End()
			return replayed, fmt.Errorf("storenet: reconcile %s: %w", digest, err)
		}
		c.drain(resp)
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			span.SetAttr("outcome", "refused")
			span.End()
			return replayed, fmt.Errorf("storenet: reconcile %s: %s", digest, resp.Status)
		}
		if os.Remove(marker) == nil {
			c.pending.Add(-1)
		}
		c.reconciled.Add(1)
		span.SetAttr("outcome", "replayed")
		span.End()
		replayed++
	}
	if replayed > 0 {
		c.log.Info("storenet: reconcile replayed deferred writes",
			"base", c.base, "replayed", replayed, "pending", c.pending.Load())
	}
	return replayed, nil
}

// markerContext parses the span context a pending marker was journaled
// with; zero when the marker predates tracing or tracing was off.
func (c *Client) markerContext(marker string) obs.SpanContext {
	b, err := os.ReadFile(marker)
	if err != nil {
		return obs.SpanContext{}
	}
	sc, _ := obs.ParseTraceparent(strings.TrimSpace(string(b)))
	return sc
}

// Has probes existence without counters: local tier, then a HEAD.
func (c *Client) Has(k store.Key) bool {
	if c.cache != nil && c.cache.Has(k) {
		return true
	}
	span := c.startSpan("storenet.head")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodHead, c.blobURL(k.Digest), nil, span, obs.SpanContext{})
	if err != nil {
		return false
	}
	c.drain(resp)
	return resp.StatusCode == http.StatusOK
}

// Index lists the daemon's blob index — the fleet-wide view, not the
// local tier's subset. Degrades to empty on failure.
func (c *Client) Index() []store.ManifestEntry {
	span := c.startSpan("storenet.index")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodGet, c.base+apiPrefix+"/index", nil, span, obs.SpanContext{})
	if err != nil {
		return nil
	}
	data, readErr := c.readBody(resp, maxBlobBytes)
	var ix indexResponse
	if resp.StatusCode != http.StatusOK || readErr != nil || json.Unmarshal(data, &ix) != nil {
		return nil
	}
	return ix.Entries
}

// Len counts the daemon's blobs. When the daemon cannot answer it
// counts the local tier's instead, which holds every blob this process
// wrote or read meanwhile; without a local tier it is 0.
func (c *Client) Len() int {
	st, err := c.Stats()
	if err != nil {
		if c.cache != nil {
			return c.cache.Len()
		}
		return 0
	}
	return st.Blobs
}

// Stats fetches the daemon's stats endpoint.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	span := c.startSpan("storenet.stats")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodGet, c.base+apiPrefix+"/stats", nil, span, obs.SpanContext{})
	if err != nil {
		return st, err
	}
	data, readErr := c.readBody(resp, maxControlBytes)
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("storenet: stats: %s", resp.Status)
	}
	if readErr != nil {
		return st, fmt.Errorf("storenet: stats: %w", readErr)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("storenet: stats: %w", err)
	}
	return st, nil
}

// Counters reports this client's traffic (not the daemon's aggregate;
// GET /v1/stats has that).
func (c *Client) Counters() store.Counters {
	return store.Counters{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Puts:    c.puts.Load(),
	}
}

// TryAcquire claims the digest fleet-wide through the daemon. Exactly
// one request is sent: if the response is lost after a grant, the
// unrenewed lease expires within one TTL and the claim loop steals it —
// the same recovery as a crashed local holder. A request that does not
// reach a live daemon (open breaker, transport failure, 5xx) claims on
// the local tier instead, when there is one; see claimLocally.
func (c *Client) TryAcquire(digest, owner string, ttl time.Duration) (store.LeaseHandle, bool, error) {
	if owner == "" {
		return nil, false, fmt.Errorf("storenet: empty lease owner")
	}
	if ttl <= 0 {
		return nil, false, fmt.Errorf("storenet: non-positive lease ttl %v", ttl)
	}
	span := c.startSpan("storenet.lease.acquire")
	defer span.End()
	resp, err := c.doOnce(c.leaseURL(digest, "acquire"), acquireRequest{Owner: owner, TTLNs: int64(ttl)}, span)
	if err != nil {
		return c.claimLocally(digest, owner, ttl, span, fmt.Errorf("storenet: acquire %s: %w", digest, err))
	}
	data, readErr := c.readBody(resp, maxControlBytes)
	switch resp.StatusCode {
	case http.StatusOK:
		var ar acquireResponse
		if readErr == nil {
			readErr = json.Unmarshal(data, &ar)
		}
		if readErr != nil {
			// Granted but garbled: surface it; the orphan lease expires.
			return nil, false, fmt.Errorf("storenet: acquire %s: %w", digest, readErr)
		}
		return &remoteLease{c: c, digest: digest, owner: owner, token: ar.Token, stolen: ar.Stolen}, true, nil
	case http.StatusConflict:
		return nil, false, nil
	case http.StatusUnauthorized, http.StatusForbidden:
		return nil, false, fmt.Errorf("storenet: acquire %s: %s: %w", digest, resp.Status, ErrAuth)
	case http.StatusTooManyRequests:
		// Lease ops are exactly-once, so a 429 is not retried here: the
		// refusal surfaces, and a sweep's claim aborts on it.
		return nil, false, fmt.Errorf("storenet: acquire %s: %s: %w", digest, resp.Status, ErrRateLimited)
	}
	err = fmt.Errorf("storenet: acquire %s: %s", digest, resp.Status)
	if resp.StatusCode >= 500 {
		return c.claimLocally(digest, owner, ttl, span, err)
	}
	return nil, false, err
}

// claimLocally is the degraded claim path: with a local tier, a claim
// the daemon could not arbitrate is arbitrated by the cache directory's
// own lease files, so processes sharing it still partition the work
// during an outage (cause is then dropped, and the claim counts as
// degraded). Without a local tier, cause surfaces.
func (c *Client) claimLocally(digest, owner string, ttl time.Duration, span *obs.Span, cause error) (store.LeaseHandle, bool, error) {
	if c.cache == nil {
		return nil, false, cause
	}
	c.degraded.Add(1)
	span.SetAttr("outcome", "degraded")
	return c.cache.TryAcquire(digest, owner, ttl)
}

// LeaseHolder peeks at a digest's live claim via the daemon.
func (c *Client) LeaseHolder(digest string) (string, bool) {
	span := c.startSpan("storenet.lease.peek")
	defer span.End()
	resp, err := c.doIdempotent(http.MethodGet, c.leaseURL(digest, ""), nil, span, obs.SpanContext{})
	if err != nil {
		return "", false
	}
	data, readErr := c.readBody(resp, maxControlBytes)
	var hr holderResponse
	if resp.StatusCode != http.StatusOK || readErr != nil || json.Unmarshal(data, &hr) != nil {
		return "", false
	}
	return hr.Owner, hr.Held
}

// GC runs a pass on the daemon's store — the shared tier the policy is
// meant to bound. The local cache tier is bounded by its own owner
// (it is an ordinary *store.Store).
func (c *Client) GC(p store.GCPolicy) (store.GCStats, error) {
	var gs store.GCStats
	span := c.startSpan("storenet.gc")
	defer span.End()
	resp, err := c.doOnce(c.base+apiPrefix+"/gc", gcRequest{
		MaxBytes: p.MaxBytes,
		MaxAgeNs: int64(p.MaxAge),
	}, span)
	if err != nil {
		return gs, fmt.Errorf("storenet: gc: %w", err)
	}
	data, readErr := c.readBody(resp, maxControlBytes)
	if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
		// GC is the admin-scoped verb, so this is the usual place a
		// write-scope token discovers its ceiling; terminal like every
		// auth refusal.
		return gs, fmt.Errorf("storenet: gc: %s: %w", resp.Status, ErrAuth)
	}
	if resp.StatusCode != http.StatusOK {
		return gs, fmt.Errorf("storenet: gc: %s", resp.Status)
	}
	if readErr == nil {
		readErr = json.Unmarshal(data, &gs)
	}
	if readErr != nil {
		return gs, fmt.Errorf("storenet: gc: %w", readErr)
	}
	return gs, nil
}

// remoteLease is a claim held through the daemon; the token is what the
// daemon's stateless reattach verifies.
type remoteLease struct {
	c      *Client
	digest string
	owner  string
	token  string
	stolen bool
}

var _ store.LeaseHandle = (*remoteLease)(nil)

func (l *remoteLease) Owner() string { return l.owner }
func (l *remoteLease) Token() string { return l.token }
func (l *remoteLease) Stolen() bool  { return l.stolen }

// Renew extends the claim. Any failure — network, daemon restart mid
// flight, a stealer holding the lease — reports the lease lost; the
// holder keeps computing and at worst one peer duplicates the shard,
// writing identical bytes.
func (l *remoteLease) Renew(ttl time.Duration) error {
	span := l.c.startSpan("storenet.lease.renew")
	defer span.End()
	resp, err := l.c.doOnce(l.c.leaseURL(l.digest, "renew"),
		renewRequest{Owner: l.owner, Token: l.token, TTLNs: int64(ttl)}, span)
	if err != nil {
		return fmt.Errorf("storenet: renew %s: %w", l.digest, err)
	}
	l.c.drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("storenet: renew %s: lease lost (%s)", l.digest, resp.Status)
	}
	return nil
}

// Release drops the claim, best-effort and idempotent.
func (l *remoteLease) Release() error {
	span := l.c.startSpan("storenet.lease.release")
	defer span.End()
	resp, err := l.c.doOnce(l.c.leaseURL(l.digest, "release"),
		releaseRequest{Owner: l.owner, Token: l.token}, span)
	if err != nil {
		return fmt.Errorf("storenet: release %s: %w", l.digest, err)
	}
	l.c.drain(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("storenet: release %s: %s", l.digest, resp.Status)
	}
	return nil
}
