// Package storenet puts the campaign store on the network: an HTTP
// daemon (Server, run by cmd/stored) that serves a local
// *store.Store directory, and a Client that speaks to it while
// implementing the same store.Backend contract as the directory it
// fronts — so internal/fleet and internal/experiments coordinate
// cross-host sweeps through exactly the code paths they use for a
// shared filesystem.
//
// # Wire format
//
// The API is versioned by its path prefix (/v1) and deliberately small:
//
//	GET  /v1/blobs/{digest}           → raw blob bytes (ETag: "digest")
//	HEAD /v1/blobs/{digest}           → existence probe (no counters)
//	PUT  /v1/blobs/{digest}           → validate + store blob bytes
//	POST /v1/leases/{digest}/acquire  → {owner, ttl_ns} ⇒ {token, stolen} | 409 {holder}
//	POST /v1/leases/{digest}/renew    → {owner, token, ttl_ns} ⇒ 204 | 409
//	POST /v1/leases/{digest}/release  → {owner, token} ⇒ 204
//	GET  /v1/leases/{digest}          → {held, owner}
//	GET  /v1/index                    → {api, schema, entries}
//	GET  /v1/stats                    → {api, schema, blobs, bytes, raw_bytes, compression_ratio, counters, leases}
//	POST /v1/gc                       → {max_bytes, max_age_ns} ⇒ GCStats
//	GET  /healthz | /readyz           → liveness / readiness probes (token-free)
//	GET  /metrics                     → Prometheus text: store gauges + per-endpoint request/latency histograms (token-free)
//	GET  /debug/ops                   → flight recorder: last N /v1 requests as JSON (admin scope)
//	*    /debug/pprof/...             → runtime profiles: index, cmdline, profile, symbol, trace (admin scope)
//
// # Trace propagation
//
// Every request MAY carry a W3C traceparent header
// ("00-<trace-id>-<parent-id>-01"); clients built with a live
// obs.Tracer send one per operation. The daemon extracts it, annotates
// its request log and the /debug/ops flight recorder with the trace
// identity, and otherwise ignores it — the header is optional,
// malformed values are dropped silently, and no response depends on
// it, so adding propagation needed no /v1 bump. A deferred Put's
// reconcile replay re-sends the traceparent journaled at deferral
// time, so even minutes-late writes attribute to the sweep that
// produced them.
//
// # Auth and quotas
//
// A daemon started with -tokens enforces Authorization: Bearer on every
// /v1 route. Tokens grant hierarchical scopes — read (blob GET/HEAD,
// lease peek, index, stats) ⊂ write (blob PUT, lease CAS ops) ⊂ admin
// (gc) — and optional per-token request-rate and upload-byte quotas.
// Status semantics: 401 missing/unknown token, 403 insufficient scope,
// 429 + Retry-After (delta seconds) when a quota bucket is dry. The
// Client treats 401/403 as terminal (ErrAuth: never retried, never
// journaled) and honors 429's Retry-After between attempts without
// feeding the circuit breaker (ErrRateLimited on budget exhaustion).
// Probes and /metrics bypass auth entirely. Adding auth needed no
// /v1 → /v2 bump: an open daemon's wire behavior is unchanged, and an
// authed daemon only adds the standard challenge statuses.
//
// Blob bytes travel in one form only, the store's v3 container, in
// both directions:
//
//	GET response   the disk bytes verbatim, application/octet-stream, no Content-Encoding
//	PUT body       a v3 container, application/octet-stream; validated once, stored verbatim
//	anything else  PUT answers 400 and stores nothing (the plain-JSON and
//	               gzip-JSON containers of earlier releases included)
//
// Nothing is negotiated. The container is gzip inside, so a transfer
// coding would only compress it twice; clients leave Accept-Encoding to
// their HTTP transport, which undoes any coding a proxy adds. Validation
// (store.ValidateBlobBytes) checks the container magic and the content
// rather than trusting headers, and the client treats a 400 on PUT as
// terminal: it is never retried or journaled.
//
// A blob's content is a deterministic function of its digest (equal
// key ⇒ equal result ⇒ equal container bytes), so blobs are immutable
// per digest and the digest doubles as a strong ETag — a body that ever
// validated for a digest never needs re-fetching. Note the digest is
// the content address of the campaign's *inputs* (schema, profile,
// instance, seed, config — see internal/store), not a hash of the blob
// bytes; validation is therefore container validation
// (store.ValidateBlob), not a byte-hash comparison.
//
// Every response body is validated by the client before use: a
// truncated transfer, a tampered payload, or a digest/schema mismatch
// is a miss — recompute and heal — never an error and never a wrong
// result, mirroring the local store's corrupt-blob path.
//
// # Leases
//
// Lease endpoints expose the store's compare-and-swap claims. The
// server arbitrates with the same link-published lease files local
// sweeps use, so local processes sharing the daemon's directory and remote
// clients interoperate in one fleet. Acquire returns a per-acquisition
// token; renew and release round-trip it and the server verifies it
// against the on-disk lease (store.AttachLease), which keeps the daemon
// stateless — a restarted daemon serves renewals for leases it never
// saw granted. A failed renew means the lease was lost to a stealer:
// the client's claim loop treats it exactly like a local steal.
//
// # Versioning
//
// Bump the path prefix (v1 → v2) when the wire contract changes
// incompatibly: an endpoint's method/status semantics change, a
// request/response field changes meaning, or blob bytes stop being the
// store's v3 container. Adding endpoints or optional response
// fields is compatible and needs no bump. store.SchemaVersion is
// independent and travels inside blobs and index/stats responses: a
// schema bump invalidates stored results on every backend at once,
// while the API version only governs how bytes move.
package storenet

import "golatest/internal/store"

// APIVersion is the wire protocol version — the N of the /vN path
// prefix. See the package comment for when to bump it.
const APIVersion = 1

// apiPrefix is the path prefix every endpoint lives under.
const apiPrefix = "/v1"

const (
	// maxBlobBytes bounds a blob transfer; quick-scale blobs are tens of
	// kilobytes and full-scale ones low megabytes, so 256 MiB is a
	// safety rail, not a working limit.
	maxBlobBytes = 256 << 20
	// maxControlBytes bounds control-plane request bodies (lease ops,
	// GC policies).
	maxControlBytes = 1 << 16
)

// maxDigestLen bounds a digest path segment.
const maxDigestLen = 128

// validDigest admits the digests the store itself accepts as filenames:
// 1 to maxDigestLen bytes of [A-Za-z0-9._-], so no separators, and no
// leading dot (which would collide with staging files). Content
// addresses are 64-char hex; the wider class keeps the daemon usable
// with the store's test digests.
func validDigest(d string) bool {
	if len(d) == 0 || len(d) > maxDigestLen || d[0] == '.' {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// acquireRequest asks for a lease on the digest in the path.
type acquireRequest struct {
	Owner string `json:"owner"`
	TTLNs int64  `json:"ttl_ns"`
}

// acquireResponse grants a lease. Token is what renew/release verify.
type acquireResponse struct {
	Token  string `json:"token"`
	Stolen bool   `json:"stolen"`
}

// busyResponse is the 409 body of a contended acquire.
type busyResponse struct {
	Holder string `json:"holder,omitempty"`
}

// renewRequest extends a held lease; releaseRequest drops one.
type renewRequest struct {
	Owner string `json:"owner"`
	Token string `json:"token"`
	TTLNs int64  `json:"ttl_ns"`
}

type releaseRequest struct {
	Owner string `json:"owner"`
	Token string `json:"token"`
}

// holderResponse reports a lease peek.
type holderResponse struct {
	Held  bool   `json:"held"`
	Owner string `json:"owner,omitempty"`
}

// indexResponse lists the daemon's blob index.
type indexResponse struct {
	API     int                   `json:"api"`
	Schema  int                   `json:"schema"`
	Entries []store.ManifestEntry `json:"entries"`
}

// Stats summarises the daemon's store. Bytes is on-disk
// (compressed) size; RawBytes is the inflated v3 body total the index
// has recorded, and CompressionRatio their quotient (0 until
// both are known). Leases is the lease churn this daemon instance has
// arbitrated. LatencyP50Ns/LatencyP99Ns are request-latency quantile
// estimates across all endpoints since start (histogram bucket upper
// bounds, biased high by at most one bucket; 0 until any request has
// been observed) — the same numbers the -stats-every log line prints.
type Stats struct {
	API              int            `json:"api"`
	Schema           int            `json:"schema"`
	Blobs            int            `json:"blobs"`
	Bytes            int64          `json:"bytes"`
	RawBytes         int64          `json:"raw_bytes"`
	CompressionRatio float64        `json:"compression_ratio"`
	Counters         store.Counters `json:"counters"`
	Leases           LeaseStats     `json:"leases"`
	LatencyP50Ns     int64          `json:"latency_p50_ns"`
	LatencyP99Ns     int64          `json:"latency_p99_ns"`
}

// gcRequest is a store.GCPolicy on the wire; the response is the
// store.GCStats of the pass, verbatim.
type gcRequest struct {
	MaxBytes int64 `json:"max_bytes"`
	MaxAgeNs int64 `json:"max_age_ns"`
}
