package storenet

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds, in seconds — a
// log-ish ladder from loopback microseconds to a wedged 10 s request.
// Fixed at compile time so every daemon exports comparable series and
// the per-request cost is one linear scan of 16 floats.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// endpointMetrics is one route's request ledger: counts by status code
// and a latency histogram (buckets[i] counts observations ≤
// latencyBuckets[i]; the implicit last bucket is +Inf).
type endpointMetrics struct {
	codes   map[int]int64
	buckets []int64 // len(latencyBuckets)+1, non-cumulative
	sumNs   int64
	count   int64
}

// requestMetrics collects per-endpoint request counters and latency
// histograms. One mutex guards everything: observations are a map
// lookup and two adds, orders of magnitude cheaper than the request
// they measure, so finer-grained locking would buy nothing.
type requestMetrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

func newRequestMetrics() *requestMetrics {
	return &requestMetrics{endpoints: map[string]*endpointMetrics{}}
}

func (m *requestMetrics) observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[endpoint]
	if e == nil {
		e = &endpointMetrics{
			codes:   map[int]int64{},
			buckets: make([]int64, len(latencyBuckets)+1),
		}
		m.endpoints[endpoint] = e
	}
	e.codes[code]++
	secs := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && secs > latencyBuckets[i] {
		i++
	}
	e.buckets[i]++
	e.sumNs += d.Nanoseconds()
	e.count++
}

// quantileNs estimates the q-th latency quantile in nanoseconds across
// every endpoint, as the upper bound of the histogram bucket holding
// the q-th observation — the usual histogram-quantile estimate, biased
// high by at most one bucket width. Observations past the last bound
// report that bound. Returns 0 with no observations.
func (m *requestMetrics) quantileNs(q float64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	merged := make([]int64, len(latencyBuckets)+1)
	var total int64
	for _, e := range m.endpoints {
		for i, n := range e.buckets {
			merged[i] += n
		}
		total += e.count
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, n := range merged {
		seen += n
		if seen > rank {
			if i >= len(latencyBuckets) {
				i = len(latencyBuckets) - 1
			}
			return int64(latencyBuckets[i] * float64(time.Second))
		}
	}
	return int64(latencyBuckets[len(latencyBuckets)-1] * float64(time.Second))
}

// formatFloat renders a float the way the Prometheus text format wants
// (shortest round-trip representation).
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// writeProm renders the request counters and latency histograms in the
// Prometheus text exposition format (version 0.0.4). Endpoints are
// sorted so scrapes are diffable and the output is deterministic for
// tests.
func (m *requestMetrics) writeProm(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP stored_requests_total Requests served, by endpoint pattern and status code.\n")
	fmt.Fprintf(w, "# TYPE stored_requests_total counter\n")
	for _, name := range names {
		e := m.endpoints[name]
		codes := make([]int, 0, len(e.codes))
		for c := range e.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "stored_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, c, e.codes[c])
		}
	}

	fmt.Fprintf(w, "# HELP stored_request_duration_seconds Request latency, by endpoint pattern.\n")
	fmt.Fprintf(w, "# TYPE stored_request_duration_seconds histogram\n")
	for _, name := range names {
		e := m.endpoints[name]
		var cum int64
		for i, bound := range latencyBuckets {
			cum += e.buckets[i]
			fmt.Fprintf(w, "stored_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, formatFloat(bound), cum)
		}
		cum += e.buckets[len(latencyBuckets)]
		fmt.Fprintf(w, "stored_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "stored_request_duration_seconds_sum{endpoint=%q} %s\n",
			name, formatFloat(float64(e.sumNs)/float64(time.Second)))
		fmt.Fprintf(w, "stored_request_duration_seconds_count{endpoint=%q} %d\n", name, e.count)
	}
}

// statusWriter records the status a handler sends, defaulting to 200
// for handlers that never call WriteHeader explicitly.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming support; without it, wrapping the writer
// would silently strip http.Flusher from handlers that sniff for it.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// LatencyQuantileNs estimates the q-th request-latency quantile across
// all endpoints in nanoseconds, from the same histograms /metrics
// exports. The load test and bench harness read p50/p99 through this.
func (s *Server) LatencyQuantileNs(q float64) int64 { return s.metrics.quantileNs(q) }

// handleMetrics serves GET /metrics in the Prometheus text format:
// store gauges and counters assembled by Stats(), lease churn, and the
// per-endpoint request/latency series the middleware collects. Served
// without auth — scrapers do not carry tenant credentials — and the
// snapshot exposes sizes and traffic, never blob contents or tokens.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.Stats()
	gauge := func(name, help string, v string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("stored_blobs", "Blobs in the served store.", strconv.Itoa(st.Blobs))
	gauge("stored_blob_bytes", "On-disk (compressed) blob bytes.", strconv.FormatInt(st.Bytes, 10))
	gauge("stored_blob_raw_bytes", "Inflated v3 body bytes of the indexed blobs.", strconv.FormatInt(st.RawBytes, 10))
	gauge("stored_compression_ratio", "raw_bytes / bytes (0 until both known).", formatFloat(st.CompressionRatio))
	counter("stored_store_hits_total", "Validated blob reads served.", st.Counters.Hits)
	counter("stored_store_misses_total", "Blob reads that found nothing.", st.Counters.Misses)
	counter("stored_store_corrupt_total", "Blobs rejected by validation (healed to misses).", st.Counters.Corrupt)
	counter("stored_store_puts_total", "Blobs written.", st.Counters.Puts)
	counter("stored_leases_acquired_total", "Lease grants arbitrated by this instance.", st.Leases.Acquired)
	counter("stored_leases_stolen_total", "Grants that displaced an expired holder.", st.Leases.Stolen)
	counter("stored_leases_busy_total", "Acquires refused: lease held.", st.Leases.Busy)
	counter("stored_leases_renewed_total", "Lease renewals.", st.Leases.Renewed)
	counter("stored_leases_released_total", "Lease releases.", st.Leases.Released)
	s.metrics.writeProm(w)
}
