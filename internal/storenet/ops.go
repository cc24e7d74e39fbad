package storenet

import (
	"net/http"
	"sync"
	"time"
)

// opsRingSize is how many recent requests the flight recorder retains.
// Sized for "what was the daemon doing just before it wedged", not for
// history — the ring is a diagnostic, /metrics is the ledger.
const opsRingSize = 256

// OpsRecord is one request in the daemon's flight recorder: enough to
// reconstruct what the daemon was serving (method, key, status,
// latency) and for whom (the client span's trace identity, when the
// request carried a traceparent header). Served by GET /debug/ops.
type OpsRecord struct {
	Time      time.Time `json:"time"`
	Method    string    `json:"method"`
	Path      string    `json:"path"`
	Endpoint  string    `json:"endpoint"` // mux route pattern, or "unmatched"
	Status    int       `json:"status"`
	LatencyNs int64     `json:"latency_ns"`
	TraceID   string    `json:"trace_id,omitempty"`
	SpanID    string    `json:"span_id,omitempty"` // the client-side span that issued the request
}

// opsRing is the fixed-size request ring. Writes overwrite the oldest
// entry; a snapshot returns chronological order. One mutex — an add is
// a copy into a preallocated slot, trivially cheaper than the request
// it records.
type opsRing struct {
	mu   sync.Mutex
	buf  []OpsRecord
	next int
	full bool
}

func newOpsRing() *opsRing {
	return &opsRing{buf: make([]OpsRecord, opsRingSize)}
}

func (r *opsRing) add(rec OpsRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

func (r *opsRing) snapshot() []OpsRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]OpsRecord, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]OpsRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// OpsSnapshot returns the flight recorder's current contents, oldest
// first — the same view GET /debug/ops serves.
func (s *Server) OpsSnapshot() []OpsRecord {
	return s.ops.snapshot()
}

// opsResponse is the GET /debug/ops body.
type opsResponse struct {
	Capacity int         `json:"capacity"`
	Records  []OpsRecord `json:"records"`
}

// handleOps serves the flight recorder as JSON. Admin-scoped on authed
// daemons: records carry tenant request paths (digests), which one
// tenant must not read about another. Only data-plane (/v1) requests
// are recorded — debug and probe scrapes would otherwise flood the
// ring with exactly the traffic nobody is diagnosing.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, opsResponse{Capacity: len(s.ops.buf), Records: s.ops.snapshot()})
}
