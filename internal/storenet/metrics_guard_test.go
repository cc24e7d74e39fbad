package storenet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/store"
)

// scrapeMetrics fetches /metrics and returns the body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// labelSeries extracts the set of distinct series identities (metric
// name plus label block — everything before the sample value) from a
// Prometheus text body.
func labelSeries(body string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndex(line, " "); i > 0 {
			out[line[:i]] = true
		}
	}
	return out
}

// TestMetricsCardinalityBounded is the guard against the classic
// metrics blow-up: per-key (per-digest) label values. Every label block
// on /metrics must use only the fixed label keys, every endpoint label
// must be a registered route pattern (with its {digest} placeholder
// intact, never a concrete digest), and driving traffic through fresh
// digests must not mint a single new series.
func TestMetricsCardinalityBounded(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(st)
	srv := httptest.NewServer(server)
	defer srv.Close()
	client, err := NewClient(srv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}

	traffic := func(seed uint64, n int) []store.Key {
		t.Helper()
		keys := make([]store.Key, n)
		for i := range keys {
			k, err := store.KeyFor("a100", i, 42, core.Config{Frequencies: []float64{705}, Seed: seed + uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = k
			if err := client.Put(k, &core.Result{DeviceName: fmt.Sprintf("a100[%d]", i)}); err != nil {
				t.Fatal(err)
			}
			if _, ok := client.Get(k); !ok {
				t.Fatalf("get %s", k)
			}
			client.Has(k)
			if _, ok, err := client.TryAcquire(k.Digest, "guard", time.Minute); err != nil || !ok {
				t.Fatalf("lease %s: ok=%v err=%v", k, ok, err)
			}
		}
		return keys
	}

	keys := traffic(100, 2)
	// Throwaway scrape so the "GET /metrics" series itself exists before
	// the before/after comparison below.
	scrapeMetrics(t, srv.URL)
	body := scrapeMetrics(t, srv.URL)

	// Fixed label keys only, and every endpoint value is a registered
	// mux pattern — the digest placeholder, never a digest.
	labelKeyRe := regexp.MustCompile(`(\w+)="`)
	for block := range labelSeries(body) {
		for _, m := range labelKeyRe.FindAllStringSubmatch(block, -1) {
			switch m[1] {
			case "endpoint", "code", "le":
			default:
				t.Fatalf("unexpected label key %q in %s", m[1], block)
			}
		}
	}
	endpointRe := regexp.MustCompile(`endpoint="([^"]*)"`)
	hexRe := regexp.MustCompile(`[0-9a-f]{16,}`)
	for _, m := range endpointRe.FindAllStringSubmatch(body, -1) {
		ep := m[1]
		if hexRe.MatchString(ep) {
			t.Fatalf("endpoint label %q carries a concrete digest", ep)
		}
		if strings.Contains(ep, "blobs/") || strings.Contains(ep, "leases/") {
			if !strings.Contains(ep, "{digest}") {
				t.Fatalf("endpoint label %q lost its {digest} placeholder", ep)
			}
		}
	}
	// No concrete digest anywhere in the exposition.
	for _, k := range keys {
		if strings.Contains(body, k.Digest) {
			t.Fatalf("digest %s leaked into /metrics", k.Digest)
		}
	}

	// More traffic through fresh digests mints zero new series.
	before := labelSeries(body)
	traffic(500, 3)
	after := labelSeries(scrapeMetrics(t, srv.URL))
	for s := range after {
		if !before[s] {
			t.Fatalf("fresh digests minted a new series %s\nbefore: %v", s, before)
		}
	}
}
