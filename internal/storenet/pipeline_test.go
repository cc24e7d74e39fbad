package storenet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"golatest/internal/store"
)

// TestWarmRemoteGetSingleDecode is the single-validation pipeline's
// instrumented proof: a warm remote Get costs exactly one blob decode
// end-to-end on the client — the wire body is validated once by
// ValidateBlobBytes and the resulting proof is written to the cache
// tier verbatim, with no second parse on the PutValidated side. The
// store's decode-pass counter (every parseBlob call, any container,
// process-wide) is the witness.
func TestWarmRemoteGetSingleDecode(t *testing.T) {
	k := testKey(t, 0)
	wire, err := store.EncodeBlobV3(k, testResult(0))
	if err != nil {
		t.Fatal(err)
	}
	// A dumb byte server, not a daemon: the daemon's own read path
	// would add its decode to the process-wide counter and hide the
	// client's count. This serves the container the way any v3-aware
	// peer would — bytes verbatim, octet-stream.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(wire)
	}))
	defer srv.Close()

	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, srv.URL, cache)

	before := store.DecodePasses()
	res, ok := c.Get(k)
	if !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("remote Get = %+v ok=%v", res, ok)
	}
	if got := store.DecodePasses() - before; got != 1 {
		t.Fatalf("warm remote Get cost %d decode passes, want exactly 1", got)
	}

	// The cache tier holds the wire bytes verbatim — the zero-copy half
	// of the single-validation contract.
	disk, err := os.ReadFile(filepath.Join(cache.Dir(), k.Digest+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, wire) {
		t.Fatal("cache tier blob differs from the validated wire bytes")
	}

	// The now-local blob serves through the cache tier with one decode
	// (the local tier's own validating read) and no network traffic.
	srv.Close()
	before = store.DecodePasses()
	if res, ok := c.Get(k); !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("cache-tier Get = %+v ok=%v", res, ok)
	}
	if got := store.DecodePasses() - before; got != 1 {
		t.Fatalf("cache-tier Get cost %d decode passes, want exactly 1", got)
	}
}

// TestWarmRemoteGetDecodeBudgetWithDaemon extends the proof across the
// full daemon round trip: end to end, the first remote Get of a blob is
// exactly two decodes process-wide — the daemon's validating read and
// the client's wire validation — where the pre-ValidatedBlob pipeline
// spent a third on re-parsing inside the cache heal. (Later GETs of the
// same bytes cost the daemon none; see
// TestDaemonServesValidatedBytesWithoutReparse.)
func TestWarmRemoteGetDecodeBudgetWithDaemon(t *testing.T) {
	backing, srv := newDaemon(t)
	k := testKey(t, 0)
	if err := backing.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, srv.URL, cache)

	before := store.DecodePasses()
	if res, ok := c.Get(k); !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("remote Get = %+v ok=%v", res, ok)
	}
	if got := store.DecodePasses() - before; got != 2 {
		t.Fatalf("daemon round trip cost %d decode passes, want exactly 2 (server read + client validation)", got)
	}
	// And the tiers hold identical bytes.
	want, err := os.ReadFile(filepath.Join(backing.Dir(), k.Digest+".json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(cache.Dir(), k.Digest+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("cache tier diverged from the daemon's disk bytes")
	}
}

// getBlob GETs the digest's blob from the daemon and returns the
// status and body.
func getBlob(t *testing.T, srvURL, digest string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srvURL + "/v1/blobs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDaemonServesValidatedBytesWithoutReparse: the daemon inflates a
// blob once, not once per GET. The first GET of a blob Put by the
// encoder parses it; later GETs of the unchanged bytes parse nothing,
// yet still count a hit and advance the LRU clock. Bytes uploaded by
// PUT were parsed by the upload's validation, so even their first GET
// parses nothing.
func TestDaemonServesValidatedBytesWithoutReparse(t *testing.T) {
	backing, srv := newDaemon(t)
	k := testKey(t, 0)
	if err := backing.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(filepath.Join(backing.Dir(), k.Digest+".json"))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 0, 0} {
		old := time.Now().Add(-time.Hour)
		path := filepath.Join(backing.Dir(), k.Digest+".json")
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
		hits, before := backing.Counters().Hits, store.DecodePasses()
		code, body := getBlob(t, srv.URL, k.Digest)
		if code != http.StatusOK || !bytes.Equal(body, disk) {
			t.Fatalf("GET %d: %d, body equal to disk %v", i, code, bytes.Equal(body, disk))
		}
		if got := store.DecodePasses() - before; got != want {
			t.Fatalf("GET %d parsed %d times, want %d", i, got, want)
		}
		if got := backing.Counters().Hits - hits; got != 1 {
			t.Fatalf("GET %d counted %d hits, want 1", i, got)
		}
		if fi, err := os.Stat(path); err != nil || !fi.ModTime().After(old) {
			t.Fatalf("GET %d did not advance the LRU clock (err=%v)", i, err)
		}
	}

	k1 := testKey(t, 1)
	wire, err := store.EncodeBlobV3(k1, testResult(1))
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/blobs/"+k1.Digest, bytes.NewReader(wire))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("PUT: %s", resp.Status)
	}
	before := store.DecodePasses()
	if code, body := getBlob(t, srv.URL, k1.Digest); code != http.StatusOK || !bytes.Equal(body, wire) {
		t.Fatalf("GET after PUT: %d", code)
	}
	if got := store.DecodePasses() - before; got != 0 {
		t.Fatalf("GET after PUT parsed %d times, want 0", got)
	}
}

// TestDaemonRefusesCorruptedMemoisedBlob: bytes that change on disk
// after the daemon has served them are not the bytes it validated, so
// they take the full parse, which refuses them: 404, counted corrupt,
// and the file is removed.
func TestDaemonRefusesCorruptedMemoisedBlob(t *testing.T) {
	backing, srv := newDaemon(t)
	k := testKey(t, 0)
	if err := backing.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if code, _ := getBlob(t, srv.URL, k.Digest); code != http.StatusOK {
			t.Fatalf("GET %d: %d", i, code)
		}
	}
	path := filepath.Join(backing.Dir(), k.Digest+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := backing.Counters().Corrupt
	if code, _ := getBlob(t, srv.URL, k.Digest); code != http.StatusNotFound {
		t.Fatalf("GET of a corrupted memoised blob: %d, want 404", code)
	}
	if got := backing.Counters().Corrupt - corrupt; got != 1 {
		t.Fatalf("corrupt counter moved by %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupted blob still on disk (stat err=%v)", err)
	}
}

// TestDaemonForgetsGCdBlob: a blob GC evicts answers 404, and its memo
// entry leaves with it — the same bytes written back by the encoder
// are parsed again on their first GET.
func TestDaemonForgetsGCdBlob(t *testing.T) {
	backing, srv := newDaemon(t)
	k := testKey(t, 0)
	if err := backing.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if code, _ := getBlob(t, srv.URL, k.Digest); code != http.StatusOK {
			t.Fatalf("GET %d: %d", i, code)
		}
	}
	if gs, err := backing.GC(store.GCPolicy{MaxBytes: 1}); err != nil || gs.Evicted != 1 {
		t.Fatalf("GC = %+v, %v", gs, err)
	}
	if code, _ := getBlob(t, srv.URL, k.Digest); code != http.StatusNotFound {
		t.Fatalf("GET of a GC'd blob: %d, want 404", code)
	}
	if err := backing.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	before := store.DecodePasses()
	if code, _ := getBlob(t, srv.URL, k.Digest); code != http.StatusOK {
		t.Fatalf("GET after re-Put: %d", code)
	}
	if got := store.DecodePasses() - before; got != 1 {
		t.Fatalf("first GET after GC parsed %d times, want 1", got)
	}
}
