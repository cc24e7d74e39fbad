package storenet

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"golatest/internal/core"
	"golatest/internal/store"
)

// testKey derives a real content address so digest validation on both
// ends is exercised with production-shaped digests.
func testKey(t *testing.T, instance int) store.Key {
	t.Helper()
	k, err := store.KeyFor("a100", instance, 42, core.Config{
		Frequencies: []float64{705, 1410},
		Seed:        uint64(1000 + instance),
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testResult(instance int) *core.Result {
	return &core.Result{
		DeviceName:   fmt.Sprintf("a100[%d]", instance),
		Architecture: "Ampere",
	}
}

// newDaemon returns a server over a fresh store directory plus the
// httptest front for it.
func newDaemon(t *testing.T) (*store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(st))
	t.Cleanup(srv.Close)
	return st, srv
}

func TestServerBlobRoundTrip(t *testing.T) {
	st, srv := newDaemon(t)
	k := testKey(t, 0)
	blob, err := store.EncodeBlobV3(k, testResult(0))
	if err != nil {
		t.Fatal(err)
	}
	blobURL := srv.URL + "/v1/blobs/" + k.Digest

	// Cold: GET and HEAD both miss.
	resp, err := http.Get(blobURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold GET: %s", resp.Status)
	}

	// PUT stores the blob; the daemon's own store sees it.
	req, _ := http.NewRequest(http.MethodPut, blobURL, bytes.NewReader(blob))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: %s", resp.Status)
	}
	if !st.Has(k) {
		t.Fatal("daemon store missing the blob after PUT")
	}

	// Warm GET returns the identical bytes with the digest as ETag.
	resp, err = http.Get(blobURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("warm GET: %s err=%v", resp.Status, err)
	}
	if !bytes.Equal(body, blob) {
		t.Fatal("served blob differs from the stored bytes")
	}
	if got := resp.Header.Get("ETag"); got != `"`+k.Digest+`"` {
		t.Fatalf("ETag = %q, want the quoted digest", got)
	}

	// If-None-Match with the digest short-circuits to 304: blobs are
	// immutable per digest.
	req, _ = http.NewRequest(http.MethodGet, blobURL, nil)
	req.Header.Set("If-None-Match", `"`+k.Digest+`"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %s, want 304", resp.Status)
	}

	// HEAD confirms existence without a body.
	resp, err = http.Head(blobURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD: %s", resp.Status)
	}
}

// TestServerPutRejectsInvalidBlobs: the daemon validates before
// storing, so no client can plant bytes a Get would reject — and the
// plain-JSON (v1) and gzip-JSON (v2) containers of earlier releases are
// such bytes.
func TestServerPutRejectsInvalidBlobs(t *testing.T) {
	st, srv := newDaemon(t)
	k := testKey(t, 0)
	good, err := store.EncodeBlobV3(k, testResult(0))
	if err != nil {
		t.Fatal(err)
	}
	// v1 is the JSON envelope earlier releases stored (abridged).
	v1 := []byte(`{"schema":2,"digest":"` + k.Digest + `","profile":"` + k.Profile +
		`","instance":0,"result":{"device_name":"dev","architecture":"Ampere",` +
		`"capture_hint_ns":0,"pairs":null}}`)
	otherKey := testKey(t, 1)

	cases := map[string]struct {
		digest string
		body   []byte
	}{
		"garbage":         {k.Digest, []byte("not json")},
		"digest mismatch": {otherKey.Digest, good}, // valid blob, wrong address
		"truncated":       {k.Digest, good[:len(good)/2]},
		"v1":              {k.Digest, v1},
		"v2":              {k.Digest, gzipped(t, v1)},
	}
	for name, tc := range cases {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/blobs/"+tc.digest,
			bytes.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s, want 400", name, resp.Status)
		}
	}
	if st.Len() != 0 || st.Has(k) || st.Has(otherKey) {
		t.Fatalf("invalid PUTs stored blobs: Len = %d", st.Len())
	}
}

// gzipped deflates data as one gzip member.
func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServerRejectsBadDigests(t *testing.T) {
	_, srv := newDaemon(t)
	for _, path := range []string{
		"/v1/blobs/" + strings.Repeat("a", 200), // too long
		"/v1/blobs/.hidden",                     // leading dot = staging namespace
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s, want 400", path, resp.Status)
		}
	}
}

func TestServerUnknownPathNamesVersion(t *testing.T) {
	_, srv := newDaemon(t)
	resp, err := http.Get(srv.URL + "/v9/blobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "API v1") {
		t.Fatalf("future-version probe: %s %q, want 404 naming API v1", resp.Status, body)
	}
}

// TestServerLeaseCAS drives the compare-and-swap lease protocol over
// the wire: exclusive acquire, busy report with holder, token-guarded
// renew/release, expiry steal.
func TestServerLeaseCAS(t *testing.T) {
	_, srv := newDaemon(t)
	digest := testKey(t, 0).Digest
	post := func(op string, body any) (*http.Response, []byte) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/leases/"+digest+"/"+op, "application/json",
			bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}

	resp, body := post("acquire", acquireRequest{Owner: "host-a", TTLNs: int64(time.Minute)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire: %s %s", resp.Status, body)
	}
	var granted acquireResponse
	if err := json.Unmarshal(body, &granted); err != nil || granted.Token == "" || granted.Stolen {
		t.Fatalf("grant = %s err=%v", body, err)
	}

	// Contended acquire: 409 naming the live holder.
	resp, body = post("acquire", acquireRequest{Owner: "host-b", TTLNs: int64(time.Minute)})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("contended acquire: %s", resp.Status)
	}
	var busy busyResponse
	if err := json.Unmarshal(body, &busy); err != nil || busy.Holder != "host-a" {
		t.Fatalf("busy = %s err=%v", body, err)
	}

	// The peek agrees.
	resp, err := http.Get(srv.URL + "/v1/leases/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	var peek holderResponse
	err = json.NewDecoder(resp.Body).Decode(&peek)
	resp.Body.Close()
	if err != nil || !peek.Held || peek.Owner != "host-a" {
		t.Fatalf("peek = %+v err=%v", peek, err)
	}

	// A renew with a fabricated token must not displace the holder.
	resp, _ = post("renew", renewRequest{Owner: "host-b", Token: "forged", TTLNs: int64(time.Minute)})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("forged renew: %s, want 409", resp.Status)
	}
	// The real token renews and releases.
	resp, body = post("renew", renewRequest{Owner: "host-a", Token: granted.Token, TTLNs: int64(time.Minute)})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("renew: %s %s", resp.Status, body)
	}
	resp, _ = post("release", releaseRequest{Owner: "host-a", Token: granted.Token})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("release: %s", resp.Status)
	}

	// Expiry steal: a dead holder's claim is taken over, flagged stolen.
	if resp, _ = post("acquire", acquireRequest{Owner: "dead", TTLNs: int64(2 * time.Millisecond)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("dead acquire: %s", resp.Status)
	}
	time.Sleep(10 * time.Millisecond)
	resp, body = post("acquire", acquireRequest{Owner: "alive", TTLNs: int64(time.Minute)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steal: %s", resp.Status)
	}
	if err := json.Unmarshal(body, &granted); err != nil || !granted.Stolen {
		t.Fatalf("steal not flagged: %s err=%v", body, err)
	}
}

// TestServerLeaseReattachIsStateless: a renew served by a *different*
// server instance over the same directory (a restarted daemon) works,
// because the token is verified against the on-disk lease, not an
// in-memory table.
func TestServerLeaseReattachIsStateless(t *testing.T) {
	st, srv := newDaemon(t)
	digest := testKey(t, 0).Digest
	data, _ := json.Marshal(acquireRequest{Owner: "host-a", TTLNs: int64(time.Minute)})
	resp, err := http.Post(srv.URL+"/v1/leases/"+digest+"/acquire", "application/json",
		bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var granted acquireResponse
	err = json.NewDecoder(resp.Body).Decode(&granted)
	resp.Body.Close()
	if err != nil || granted.Token == "" {
		t.Fatalf("grant: %+v err=%v", granted, err)
	}

	// "Restart": a fresh store handle and server over the same dir.
	st2, err := store.Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(NewServer(st2))
	defer srv2.Close()
	data, _ = json.Marshal(renewRequest{Owner: "host-a", Token: granted.Token, TTLNs: int64(time.Minute)})
	resp, err = http.Post(srv2.URL+"/v1/leases/"+digest+"/renew", "application/json",
		bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("renew through restarted daemon: %s", resp.Status)
	}
}

func TestServerIndexStatsGC(t *testing.T) {
	st, srv := newDaemon(t)
	for i := 0; i < 3; i++ {
		if err := st.Put(testKey(t, i), testResult(i)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/index")
	if err != nil {
		t.Fatal(err)
	}
	var ix indexResponse
	err = json.NewDecoder(resp.Body).Decode(&ix)
	resp.Body.Close()
	if err != nil || ix.API != APIVersion || ix.Schema != store.SchemaVersion || len(ix.Entries) != 3 {
		t.Fatalf("index = %+v err=%v", ix, err)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Blobs != 3 || stats.Bytes <= 0 || stats.Counters.Puts != 3 {
		t.Fatalf("stats = %+v err=%v", stats, err)
	}

	// A size-bounded GC pass over the wire evicts everything.
	data, _ := json.Marshal(gcRequest{MaxBytes: 1})
	resp, err = http.Post(srv.URL+"/v1/gc", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var gs store.GCStats
	err = json.NewDecoder(resp.Body).Decode(&gs)
	resp.Body.Close()
	if err != nil || gs.Evicted != 3 || gs.Scanned != 3 {
		t.Fatalf("gc = %+v err=%v", gs, err)
	}
	if st.Len() != 0 {
		t.Fatalf("store still holds %d blobs after remote GC", st.Len())
	}
}

// TestServerReservedNameCannotTouchIndex: "manifest" matches the digest
// grammar but names no blob. GET and HEAD answer 404, a PUT of a
// crafted plain-JSON envelope is refused, and the store's blobs are
// untouched.
func TestServerReservedNameCannotTouchIndex(t *testing.T) {
	st, srv := newDaemon(t)
	if err := st.Put(testKey(t, 0), testResult(0)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/blobs/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET manifest: %s, want 404", resp.Status)
	}

	// HEAD must agree with GET.
	resp, err = http.Head(srv.URL + "/v1/blobs/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD manifest: %s, want 404", resp.Status)
	}

	crafted := []byte(`{"schema":1,"digest":"manifest","profile":"x","instance":0,` +
		`"result":{"device_name":"","architecture":"","capture_hint_ns":0,"pairs":null}}`)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/blobs/manifest", bytes.NewReader(crafted))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT manifest: %s, want 400", resp.Status)
	}

	if _, err := os.Stat(filepath.Join(st.Dir(), "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("reserved-name probes left a manifest.json: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("index lost entries: Len = %d, want 1", st.Len())
	}
}

// TestServerConditionalGetVouchesExistence: a 304 is only ever served
// for a blob the store still holds — If-None-Match on an evicted or
// never-stored digest is a plain 404.
func TestServerConditionalGetVouchesExistence(t *testing.T) {
	_, srv := newDaemon(t)
	k := testKey(t, 0)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/blobs/"+k.Digest, nil)
	req.Header.Set("If-None-Match", `"`+k.Digest+`"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("conditional GET of a missing blob: %s, want 404", resp.Status)
	}
}

// TestServerContentNegotiation: there is nothing to negotiate. Whatever
// a client declares — a v3 preference, gzip, identity only, nothing, or
// the stock transport's own gzip — a blob GET answers with the v3 disk
// bytes verbatim as application/octet-stream and no Content-Encoding.
func TestServerContentNegotiation(t *testing.T) {
	st, srv := newDaemon(t)
	k := testKey(t, 0)
	if err := st.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(filepath.Join(st.Dir(), k.Digest+".json"))
	if err != nil {
		t.Fatal(err)
	}
	blobURL := srv.URL + "/v1/blobs/" + k.Digest

	raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	for name, hdr := range map[string]map[string]string{
		"none":          {},
		"gzip":          {"Accept-Encoding": "gzip"},
		"identity-only": {"Accept-Encoding": "identity"},
		"v3-and-gzip":   {"Accept-Encoding": "gzip", "X-Blob-Accept": "v3"},
		"v3-identity":   {"Accept-Encoding": "identity", "X-Blob-Accept": "v3"},
	} {
		req, _ := http.NewRequest(http.MethodGet, blobURL, nil)
		for h, v := range hdr {
			req.Header.Set(h, v)
		}
		resp, err := raw.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET %s err=%v", name, resp.Status, err)
		}
		if ce := resp.Header.Get("Content-Encoding"); ce != "" {
			t.Fatalf("%s: response carries Content-Encoding %q", name, ce)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("%s: Content-Type = %q", name, ct)
		}
		if !bytes.Equal(body, disk) {
			t.Fatalf("%s: body is not the disk container verbatim", name)
		}
	}

	// The stock transport (which adds its own Accept-Encoding: gzip)
	// lands on the same bytes.
	resp, err := http.Get(blobURL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(body, disk) {
		t.Fatalf("stock GET diverged from the disk bytes: err=%v", err)
	}
	if _, err := store.ValidateBlob(body, k.Digest); err != nil {
		t.Fatalf("served body does not validate: %v", err)
	}
}

// TestServerStatsCompressionAndLeases: /v1/stats reports raw vs
// compressed bytes (the live compression ratio) and the daemon's lease
// churn.
func TestServerStatsCompressionAndLeases(t *testing.T) {
	st, srv := newDaemon(t)
	if err := st.Put(testKey(t, 0), testResult(0)); err != nil {
		t.Fatal(err)
	}
	digest := testKey(t, 1).Digest
	post := func(op string, body any) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+"/v1/leases/"+digest+"/"+op, "application/json",
			bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post("acquire", acquireRequest{Owner: "host-a", TTLNs: int64(time.Minute)})
	post("acquire", acquireRequest{Owner: "host-b", TTLNs: int64(time.Minute)}) // busy

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RawBytes <= stats.Bytes || stats.CompressionRatio <= 1 {
		t.Fatalf("compression accounting: %+v", stats)
	}
	if stats.Leases.Acquired != 1 || stats.Leases.Busy != 1 {
		t.Fatalf("lease churn: %+v", stats.Leases)
	}
}
