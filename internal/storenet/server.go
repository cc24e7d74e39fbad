package storenet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"golatest/internal/obs"
	"golatest/internal/store"
)

// Server serves one *store.Store directory over the v1 HTTP API. It is
// an http.Handler; cmd/stored wraps it in an http.Server, and tests
// mount it on httptest. All handlers are safe for concurrent use — the
// store itself is the synchronisation point, exactly as it is for local
// processes sharing the directory.
type Server struct {
	st  *store.Store
	mux *http.ServeMux

	// auth is the live token set, nil = open (trusted-LAN) mode. A
	// pointer swap (SetAuth) is how cmd/stored reloads -tokens on
	// SIGHUP without dropping the listener: every routed request loads
	// the current set at admission time.
	auth atomic.Pointer[TokenSet]

	// metrics is the per-endpoint request/latency ledger the outermost
	// ServeHTTP wrapper feeds and GET /metrics exports. It observes
	// auth and rate-limit rejections too (the middleware runs inside
	// the mux), so a 401/429 storm is visible in the scrape.
	metrics *requestMetrics

	// Lease churn served by this daemon instance — the fleet-wide
	// contention view a single client's counters cannot give. In-memory
	// by design (a restart zeroes them): they describe this instance's
	// traffic, not the store's state.
	leaseAcquired, leaseStolen, leaseBusy, leaseRenewed, leaseReleased atomic.Int64

	// draining flips /readyz to 503 ahead of shutdown, so load balancers
	// and probes route new traffic away while in-flight requests finish.
	draining atomic.Bool

	// ops is the flight recorder: the last N data-plane requests with
	// status, latency and (when the client sent a traceparent) the
	// trace identity, served at GET /debug/ops.
	ops *opsRing

	// log receives one Debug line per request, annotated with the
	// extracted trace ID so daemon logs grep by sweep. Defaults to
	// discard.
	log *slog.Logger
}

// SetDraining marks the server as (not) draining; while draining,
// /readyz answers 503 and everything else keeps serving — the
// remove-from-rotation-then-drain shutdown sequence.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// LeaseStats snapshots the lease traffic a Server has arbitrated:
// successful grants (Stolen counts the subset that displaced an expired
// holder), busy rejections, renewals, and releases.
type LeaseStats struct {
	Acquired int64 `json:"acquired"`
	Stolen   int64 `json:"stolen"`
	Busy     int64 `json:"busy"`
	Renewed  int64 `json:"renewed"`
	Released int64 `json:"released"`
}

// LeaseStats returns the server's lease-churn counters.
func (s *Server) LeaseStats() LeaseStats {
	return LeaseStats{
		Acquired: s.leaseAcquired.Load(),
		Stolen:   s.leaseStolen.Load(),
		Busy:     s.leaseBusy.Load(),
		Renewed:  s.leaseRenewed.Load(),
		Released: s.leaseReleased.Load(),
	}
}

// ServerOptions configures the optional production machinery; the zero
// value is the open (trusted-LAN) v1 daemon.
type ServerOptions struct {
	// Auth, when non-nil, enforces bearer-token auth with per-token
	// scopes and quotas on every /v1 route. Probes (/healthz, /readyz)
	// and /metrics stay token-free regardless: they are registered
	// outside the authed routes, so no middleware change can
	// accidentally lock out the orchestrator or the scraper.
	Auth *TokenSet
	// Logger receives one Debug-level line per request (method, path,
	// status, latency, trace_id). nil discards — request logging is an
	// opt-in diagnostic, not default traffic noise.
	Logger *slog.Logger
}

// NewServer builds the handler for a store in open mode.
func NewServer(st *store.Store) *Server { return NewServerWith(st, ServerOptions{}) }

// NewServerWith builds the handler for a store with production options.
func NewServerWith(st *store.Store, opts ServerOptions) *Server {
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		st:      st,
		mux:     http.NewServeMux(),
		metrics: newRequestMetrics(),
		ops:     newOpsRing(),
		log:     logger,
	}
	s.auth.Store(opts.Auth)
	s.route("GET "+apiPrefix+"/blobs/{digest}", ScopeRead, s.handleBlobGet) // matches HEAD too
	s.route("PUT "+apiPrefix+"/blobs/{digest}", ScopeWrite, s.handleBlobPut)
	s.route("GET "+apiPrefix+"/leases/{digest}", ScopeRead, s.handleLeasePeek)
	s.route("POST "+apiPrefix+"/leases/{digest}/acquire", ScopeWrite, s.handleLeaseAcquire)
	s.route("POST "+apiPrefix+"/leases/{digest}/renew", ScopeWrite, s.handleLeaseRenew)
	s.route("POST "+apiPrefix+"/leases/{digest}/release", ScopeWrite, s.handleLeaseRelease)
	s.route("GET "+apiPrefix+"/index", ScopeRead, s.handleIndex)
	s.route("GET "+apiPrefix+"/stats", ScopeRead, s.handleStats)
	// GC evicts blobs fleet-wide — any tenant's. Admin only.
	s.route("POST "+apiPrefix+"/gc", ScopeAdmin, s.handleGC)
	// Diagnostics: the request flight recorder and the runtime's pprof
	// profiles. Admin-scoped by the same route() construction that
	// guards /v1 — an open daemon serves them openly (trusted LAN), an
	// authed one requires an admin token: profiles expose memory
	// contents and request paths name tenants' digests, either of which
	// outranks read scope. Registered outside /v1 (they describe the
	// process, not the store API) and excluded from the ops ring.
	s.route("GET /debug/ops", ScopeAdmin, s.handleOps)
	s.route("GET /debug/pprof/", ScopeAdmin, pprof.Index)
	s.route("GET /debug/pprof/cmdline", ScopeAdmin, pprof.Cmdline)
	s.route("GET /debug/pprof/profile", ScopeAdmin, pprof.Profile)
	s.route("GET /debug/pprof/symbol", ScopeAdmin, pprof.Symbol)
	s.route("POST /debug/pprof/symbol", ScopeAdmin, pprof.Symbol)
	s.route("GET /debug/pprof/trace", ScopeAdmin, pprof.Trace)
	// Probes live outside the versioned prefix: they describe the
	// process, not the API, and orchestrators expect them at the root.
	// They and /metrics bypass auth and rate limits by construction —
	// registered on the raw mux, not through route() — because a
	// draining, throttled, or misconfigured daemon must still answer
	// its probes or the orchestrator kills a healthy process.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/", s.handleUnknown)
	return s
}

// route registers an API handler, wrapped by auth enforcement when a
// token set is configured. Tying the required scope to the
// registration (rather than checks inside handlers) means a new
// endpoint cannot forget enforcement — and loading the token set per
// request (rather than capturing it at registration) is what makes a
// SetAuth swap take effect on the very next request.
func (s *Server) route(pattern string, need Scope, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if ts := s.auth.Load(); ts != nil && !ts.admit(w, r, need) {
			return
		}
		h(w, r)
	})
}

// SetAuth atomically replaces the live token set; nil reopens the
// daemon. In-flight requests finish under the set they were admitted
// with; every subsequent request is admitted against the new one —
// revoked tokens stop working immediately, without a listener bounce.
// Rate-limit buckets live inside the TokenSet, so a swap also resets
// quota accounting; a reload is an operator action rare enough for
// that to be the right trade.
func (s *Server) SetAuth(ts *TokenSet) { s.auth.Store(ts) }

// Store returns the store the server fronts.
func (s *Server) Store() *store.Store { return s.st }

// ServeHTTP implements http.Handler. It is also the observability
// middleware: every request — including auth and rate-limit
// rejections — is observed with its endpoint pattern (set by the mux
// on dispatch), status, and latency; data-plane (/v1) requests are
// additionally recorded in the /debug/ops flight recorder together
// with the trace identity extracted from the client's W3C traceparent
// header, and logged at Debug with the same trace ID — which is how
// one sweep's requests correlate across processes. The traceparent
// header is optional and ignored when malformed (wire behavior is
// unchanged for clients that never send it — no /v1 bump).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	d := time.Since(start)
	endpoint := r.Pattern
	if endpoint == "" {
		endpoint = "unmatched"
	}
	s.metrics.observe(endpoint, sw.code, d)
	if !strings.HasPrefix(r.URL.Path, apiPrefix+"/") {
		return
	}
	sc, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	rec := OpsRecord{
		Time:      time.Now().UTC(),
		Method:    r.Method,
		Path:      r.URL.Path,
		Endpoint:  endpoint,
		Status:    sw.code,
		LatencyNs: d.Nanoseconds(),
	}
	if sc.Valid() {
		rec.TraceID = sc.TraceID.String()
		rec.SpanID = sc.SpanID.String()
	}
	s.ops.add(rec)
	s.log.Debug("request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.code,
		"latency", d,
		"trace_id", rec.TraceID)
}

// digest extracts and validates the {digest} path segment; an empty
// return means the response has been written.
func (s *Server) digest(w http.ResponseWriter, r *http.Request) string {
	d := r.PathValue("digest")
	if !validDigest(d) {
		http.Error(w, fmt.Sprintf("storenet: invalid digest %q", d), http.StatusBadRequest)
		return ""
	}
	return d
}

// etagFor quotes a digest as the strong ETag of its (immutable) blob.
func etagFor(digest string) string { return `"` + digest + `"` }

// etagMatches implements the subset of If-None-Match matching the
// immutable-blob contract needs: any listed tag equal to the blob's
// (or a bare *) matches.
func etagMatches(header, digest string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		if part == "*" || part == etagFor(digest) {
			return true
		}
	}
	return false
}

// handleBlobGet serves GET and HEAD. GET goes through the store's
// validating read path (counters, LRU touch, corrupt-blob healing) and
// answers with the v3 disk bytes verbatim as application/octet-stream —
// no re-encode, no transfer coding — which the client's validator then
// writes to its cache tier unchanged. HEAD is the cheap existence probe
// Has maps to and deliberately touches nothing.
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	digest := s.digest(w, r)
	if digest == "" {
		return
	}
	if r.Method == http.MethodHead {
		if !s.st.Has(store.Key{Digest: digest}) {
			http.Error(w, "storenet: no blob", http.StatusNotFound)
			return
		}
		w.Header().Set("ETag", etagFor(digest))
		w.WriteHeader(http.StatusOK)
		return
	}
	// The read runs before any conditional answer: a 304 must vouch that
	// the blob still exists, and a revalidation is a use — the LRU touch
	// inside GetRaw has to advance, or watermark GC would evict the
	// fleet's hottest (conditionally fetched) blobs first.
	data, ok := s.st.GetRaw(digest)
	if !ok {
		http.Error(w, "storenet: no blob", http.StatusNotFound)
		return
	}
	w.Header().Set("ETag", etagFor(digest))
	// Blobs are immutable per digest: a cached body that ever matched is
	// still good.
	if etagMatches(r.Header.Get("If-None-Match"), digest) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// handleBlobPut validates and stores a v3 blob through the store's
// proof-carrying path (PutRaw = ValidateBlobBytes + PutValidated): the
// body is parsed exactly once and lands on disk verbatim. Invalid bytes
// — anything but a v3 container, wrong schema, digest mismatch — are
// the client's fault (400); anything else is the store's (500). PUT is
// idempotent: same digest ⇒ same bytes, so a retried or concurrent
// duplicate write converges.
func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	digest := s.digest(w, r)
	if digest == "" {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		http.Error(w, "storenet: read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.st.PutRaw(digest, data); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, store.ErrInvalidBlob) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLeasePeek(w http.ResponseWriter, r *http.Request) {
	digest := s.digest(w, r)
	if digest == "" {
		return
	}
	owner, held := s.st.LeaseHolder(digest)
	writeJSON(w, http.StatusOK, holderResponse{Held: held, Owner: owner})
}

// handleLeaseAcquire is the compare-and-swap claim: exactly one caller
// per digest wins (the store's link-published lease file arbitrates, across local
// processes and remote clients alike). Busy returns 409 with the live
// holder so schedulers can plan around it.
func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	digest := s.digest(w, r)
	if digest == "" {
		return
	}
	var req acquireRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Owner == "" || req.TTLNs <= 0 {
		http.Error(w, "storenet: acquire needs a non-empty owner and a positive ttl_ns",
			http.StatusBadRequest)
		return
	}
	lease, ok, err := s.st.TryAcquire(digest, req.Owner, time.Duration(req.TTLNs))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		s.leaseBusy.Add(1)
		holder, _ := s.st.LeaseHolder(digest)
		writeJSON(w, http.StatusConflict, busyResponse{Holder: holder})
		return
	}
	s.leaseAcquired.Add(1)
	if lease.Stolen() {
		s.leaseStolen.Add(1)
	}
	writeJSON(w, http.StatusOK, acquireResponse{Token: lease.Token(), Stolen: lease.Stolen()})
}

// handleLeaseRenew reattaches the acquisition by its token and extends
// it. Any failure is 409: whatever the proximate cause, the holder must
// assume the lease lost — the safe direction, since a "lost" lease
// costs at most one duplicated (identical) computation.
func (s *Server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	digest := s.digest(w, r)
	if digest == "" {
		return
	}
	var req renewRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Token == "" || req.TTLNs <= 0 {
		http.Error(w, "storenet: renew needs a token and a positive ttl_ns", http.StatusBadRequest)
		return
	}
	if err := s.st.AttachLease(digest, req.Owner, req.Token).Renew(time.Duration(req.TTLNs)); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.leaseRenewed.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleLeaseRelease drops a claim; like the local Release it is
// best-effort and idempotent, and a stealer's live lease is never
// touched (the token no longer matches).
func (s *Server) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	digest := s.digest(w, r)
	if digest == "" {
		return
	}
	var req releaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Token == "" {
		http.Error(w, "storenet: release needs a token", http.StatusBadRequest)
		return
	}
	if err := s.st.AttachLease(digest, req.Owner, req.Token).Release(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.leaseReleased.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, indexResponse{
		API:     APIVersion,
		Schema:  store.SchemaVersion,
		Entries: s.st.Index(),
	})
}

// Stats assembles the daemon-health snapshot /v1/stats serves; cmd/
// stored's periodic log line formats the same snapshot, so the two
// views cannot drift.
func (s *Server) Stats() Stats {
	ix := s.st.Index()
	bytes, raw := store.IndexedBytes(ix), store.IndexedRawBytes(ix)
	resp := Stats{
		API:          APIVersion,
		Schema:       store.SchemaVersion,
		Blobs:        len(ix),
		Bytes:        bytes,
		RawBytes:     raw,
		Counters:     s.st.Counters(),
		Leases:       s.LeaseStats(),
		LatencyP50Ns: s.LatencyQuantileNs(0.50),
		LatencyP99Ns: s.LatencyQuantileNs(0.99),
	}
	if bytes > 0 && raw > 0 {
		resp.CompressionRatio = float64(raw) / float64(bytes)
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	var req gcRequest
	if !readJSON(w, r, &req) {
		return
	}
	stats, err := s.st.GC(store.GCPolicy{
		MaxBytes: req.MaxBytes,
		MaxAge:   time.Duration(req.MaxAgeNs),
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// handleHealthz is liveness: the process is up and serving HTTP.
// Deliberately trivial — liveness failing triggers restarts, and a
// daemon that can answer at all should never be restarted for a
// transient store problem readiness already reports.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleReadyz is readiness: can this daemon usefully take traffic
// right now? No while draining (shutdown imminent — route new requests
// to a peer) and no when the store directory stopped accepting writes
// (a read-only remount or deleted directory makes every Put fail; the
// fleet is better served degrading to local tiers than timing out
// here).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if err := s.st.Ready(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ready\n")
}

// handleUnknown catches everything outside the versioned prefix, so a
// client built against a future API fails with a message naming the
// version this daemon speaks instead of a bare 404.
func (s *Server) handleUnknown(w http.ResponseWriter, r *http.Request) {
	http.Error(w, fmt.Sprintf("storenet: unknown path %q; this daemon speaks API v%d (%s/...)",
		r.URL.Path, APIVersion, apiPrefix), http.StatusNotFound)
}

// readJSON decodes a bounded control-plane body; a false return means
// the 400 has been written.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
	if err == nil && len(data) > 0 {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		http.Error(w, "storenet: bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
