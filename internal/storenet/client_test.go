package storenet

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"golatest/internal/store"
)

func newClient(t *testing.T, srvURL string, cache *store.Store) *Client {
	t.Helper()
	c, err := NewClient(srvURL, ClientOptions{Cache: cache, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientURLValidation(t *testing.T) {
	for _, bad := range []string{"", "host:8417", "ftp://host", "http://"} {
		if _, err := NewClient(bad, ClientOptions{}); err == nil {
			t.Errorf("NewClient(%q) accepted", bad)
		}
	}
	c, err := NewClient("http://example.test:8417/", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Location() != "http://example.test:8417" {
		t.Fatalf("Location = %q, want the trailing slash trimmed", c.Location())
	}
}

func TestClientGetPutRoundTrip(t *testing.T) {
	_, srv := newDaemon(t)
	c := newClient(t, srv.URL, nil)
	k := testKey(t, 0)

	if _, ok := c.Get(k); ok {
		t.Fatal("cold Get hit")
	}
	if c.Has(k) {
		t.Fatal("cold Has true")
	}
	if err := c.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	res, ok := c.Get(k)
	if !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("warm Get = %+v ok=%v", res, ok)
	}
	if !c.Has(k) {
		t.Fatal("warm Has false")
	}
	ct := c.Counters()
	if ct.Hits != 1 || ct.Misses != 1 || ct.Puts != 1 || ct.Corrupt != 0 {
		t.Fatalf("counters = %+v", ct)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d", got)
	}
	if ix := c.Index(); len(ix) != 1 || ix[0].Digest != k.Digest {
		t.Fatalf("Index = %+v", ix)
	}
}

// TestClientCacheTier: a remote hit heals the local tier, after which
// reads need no daemon at all; Put lands in both tiers.
func TestClientCacheTier(t *testing.T) {
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
	if _, ok := c.Get(k); !ok {
		t.Fatal("remote hit failed")
	}
	if !cache.Has(k) {
		t.Fatal("remote hit did not heal the local tier")
	}
	// The healed bytes are the canonical ones.
	remote, _ := backing.GetRaw(k.Digest)
	local, ok := cache.GetRaw(k.Digest)
	if !ok || !bytes.Equal(remote, local) {
		t.Fatal("healed local blob differs from the daemon's bytes")
	}

	// With the daemon gone, the local tier still serves the key.
	srv.Close()
	if res, ok := c.Get(k); !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("local-tier Get after daemon death: %+v ok=%v", res, ok)
	}

	// Writes no longer need the daemon: with a local tier, a Put that
	// cannot reach it defers — the blob lands locally and the pending
	// journal records it for Reconcile.
	k1 := testKey(t, 1)
	if err := c.Put(k1, testResult(1)); err != nil {
		t.Fatalf("deferred Put with the daemon down: %v", err)
	}
	if !cache.Has(k1) {
		t.Fatal("deferred Put did not land in the local tier")
	}
	rs := c.Resilience()
	if rs.Deferred != 1 || rs.Pending != 1 {
		t.Fatalf("Resilience after deferred Put = %+v, want Deferred=1 Pending=1", rs)
	}
}

// TestClientCorruptResponseIsMiss is the regression for the
// recompute-and-heal contract: a digest-mismatched, tampered, or
// truncated response body must be a miss (Corrupt counter), never an
// error, never a wrong result, and never pollute the local tier —
// mirroring the local corrupt-blob path.
func TestClientCorruptResponseIsMiss(t *testing.T) {
	k := testKey(t, 0)
	other := testKey(t, 1)
	good, err := store.EncodeBlobV3(k, testResult(0))
	if err != nil {
		t.Fatal(err)
	}
	wrongKeyBlob, err := store.EncodeBlobV3(other, testResult(1))
	if err != nil {
		t.Fatal(err)
	}
	// Tampering that breaks the envelope (here: the schema field, behind
	// an intact gzip stream) is caught by validation; note payload edits
	// inside an intact envelope are invisible by design — the digest
	// addresses the campaign's inputs, not a hash of the bytes — which is
	// why the trust boundary is "only Put validated blobs", enforced by
	// the server.
	tampered := tamperV3Schema(t, good)
	// The gzip layer has its own failure modes: a stream cut before the
	// gzip footer (CRC never verified) and a bit flip inside the deflate
	// stream.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40

	// mode selects the injected corruption; "ok" serves the real bytes.
	var mode atomic.Value
	mode.Store("ok")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case "truncate":
			// Announce the full length, deliver half: the client sees the
			// transfer die mid-body.
			w.Header().Set("Content-Length", strconv.Itoa(len(good)))
			_, _ = w.Write(good[:len(good)/2])
		case "tamper":
			_, _ = w.Write(tampered)
		case "wrong-key":
			_, _ = w.Write(wrongKeyBlob)
		case "gzip-truncate":
			_, _ = w.Write(good[:len(good)-4])
		case "gzip-bitflip":
			_, _ = w.Write(flipped)
		default:
			_, _ = w.Write(good)
		}
	}))
	defer srv.Close()

	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, srv.URL, cache)

	for i, m := range []string{"truncate", "tamper", "wrong-key", "gzip-truncate", "gzip-bitflip"} {
		mode.Store(m)
		if res, ok := c.Get(k); ok {
			t.Fatalf("%s: Get returned %+v, want miss", m, res)
		}
		if got := c.Counters().Corrupt; got != int64(i+1) {
			t.Fatalf("%s: Corrupt = %d, want %d", m, got, i+1)
		}
		if cache.Has(k) {
			t.Fatalf("%s: corrupt body healed into the local tier", m)
		}
	}

	// The miss is recoverable: the very next clean response hits and
	// heals — recompute-and-heal end to end.
	mode.Store("ok")
	res, ok := c.Get(k)
	if !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("clean Get after corruption: %+v ok=%v", res, ok)
	}
	if !cache.Has(k) {
		t.Fatal("clean Get did not heal the local tier")
	}
}

// TestClientRetriesIdempotent: connection-level failures and 5xx on
// GET/PUT are retried; the request succeeds within the attempt budget.
func TestClientRetriesIdempotent(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inner := NewServer(st)
	var failures atomic.Int64
	failures.Store(2) // first two requests fail, regardless of verb
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := newClient(t, srv.URL, nil)
	k := testKey(t, 0)
	if err := c.Put(k, testResult(0)); err != nil {
		t.Fatalf("Put did not survive transient 503s: %v", err)
	}
	failures.Store(2)
	if _, ok := c.Get(k); !ok {
		t.Fatal("Get did not survive transient 503s")
	}
}

// TestClientLeases: the remote lease handle behaves like a local one —
// exclusive, renewable, stealable after expiry, token-guarded.
func TestClientLeases(t *testing.T) {
	_, srv := newDaemon(t)
	a := newClient(t, srv.URL, nil)
	b := newClient(t, srv.URL, nil)
	digest := testKey(t, 0).Digest

	lease, ok, err := a.TryAcquire(digest, "host-a", time.Minute)
	if err != nil || !ok || lease.Stolen() {
		t.Fatalf("acquire: ok=%v err=%v", ok, err)
	}
	if lease.Owner() != "host-a" || lease.Token() == "" {
		t.Fatalf("lease identity: owner=%q token=%q", lease.Owner(), lease.Token())
	}
	if _, ok, err := b.TryAcquire(digest, "host-b", time.Minute); err != nil || ok {
		t.Fatalf("contended acquire: ok=%v err=%v, want busy", ok, err)
	}
	if owner, held := b.LeaseHolder(digest); !held || owner != "host-a" {
		t.Fatalf("holder = %q/%v", owner, held)
	}
	if err := lease.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	if _, held := b.LeaseHolder(digest); held {
		t.Fatal("lease held after release")
	}

	// Steal: host-a "crashes" with a short unrenewed claim.
	if _, ok, err := a.TryAcquire(digest, "host-a", 2*time.Millisecond); err != nil || !ok {
		t.Fatalf("short acquire: ok=%v err=%v", ok, err)
	}
	time.Sleep(10 * time.Millisecond)
	stolen, ok, err := b.TryAcquire(digest, "host-b", time.Minute)
	if err != nil || !ok || !stolen.Stolen() {
		t.Fatalf("steal: ok=%v stolen=%v err=%v", ok, stolen != nil && stolen.Stolen(), err)
	}
	// The displaced handle's renew reports the loss; its release leaves
	// the stealer's claim alone.
	if err := stolen.Renew(time.Minute); err != nil {
		t.Fatal(err)
	}
	if owner, held := a.LeaseHolder(digest); !held || owner != "host-b" {
		t.Fatalf("post-steal holder = %q/%v", owner, held)
	}
}

func TestClientGC(t *testing.T) {
	backing, srv := newDaemon(t)
	for i := 0; i < 2; i++ {
		if err := backing.Put(testKey(t, i), testResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := newClient(t, srv.URL, nil)
	gs, err := c.GC(store.GCPolicy{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gs.Evicted != 2 || backing.Len() != 0 {
		t.Fatalf("remote GC: %+v, %d blobs left", gs, backing.Len())
	}
}

// TestClientInteropWithLocalHandles: a blob PUT through the wire is a
// first-class citizen of the daemon's directory — a fresh local handle
// reads it, and its bytes match what a local Put would have written.
func TestClientInteropWithLocalHandles(t *testing.T) {
	backing, srv := newDaemon(t)
	c := newClient(t, srv.URL, nil)
	k := testKey(t, 0)
	if err := c.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}

	local, err := store.Open(backing.Dir())
	if err != nil {
		t.Fatal(err)
	}
	res, ok := local.Get(k)
	if !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("local handle Get = %+v ok=%v", res, ok)
	}
	want, err := store.EncodeBlobV3(k, testResult(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(backing.Dir(), k.Digest+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("wire-written blob differs from a local Put's bytes")
	}
}

// tamperV3Schema rewrites a v3 container's schema field (the body's
// first four bytes) and re-wraps the body in a fresh, valid gzip member
// — a tamper only the envelope check can catch.
func tamperV3Schema(t *testing.T, v3 []byte) []byte {
	t.Helper()
	const magicLen = 4
	zr, err := gzip.NewReader(bytes.NewReader(v3[magicLen:]))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	body[0]++
	return append(append([]byte(nil), v3[:magicLen]...), gzipped(t, body)...)
}

// TestClientPut400IsTerminal: a daemon that answers 400 has refused the
// bytes themselves. The client sends the PUT once, fails naming the
// status, and journals nothing — a replay would be refused identically.
func TestClientPut400IsTerminal(t *testing.T) {
	var puts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			puts.Add(1)
		}
		_, _ = io.Copy(io.Discard, r.Body)
		http.Error(w, "store: blob: invalid blob", http.StatusBadRequest)
	}))
	defer srv.Close()

	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, srv.URL, cache)
	k := testKey(t, 0)
	err = c.Put(k, testResult(0))
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("Put err = %v, want an error naming the 400", err)
	}
	if n := puts.Load(); n != 1 {
		t.Fatalf("daemon saw %d PUTs, want exactly 1", n)
	}
	if r := c.Resilience(); r.Deferred != 0 || r.Pending != 0 {
		t.Fatalf("a 400 was journaled: %+v", r)
	}
	if cache.Has(k) {
		t.Fatal("a refused Put landed in the local tier")
	}
}

// TestClientGetThroughGzipProxy: a reverse proxy that gzips responses
// must not turn remote hits into misses. The client leaves
// Accept-Encoding to its transport, which undoes the proxy's coding, so
// validation sees the daemon's v3 bytes.
func TestClientGetThroughGzipProxy(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(t, 0)
	if err := st.Put(k, testResult(0)); err != nil {
		t.Fatal(err)
	}
	inner := NewServer(st)
	var encoded atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		for h, vs := range rec.Header() {
			w.Header()[h] = vs
		}
		w.Header().Del("Content-Length")
		w.Header().Set("Content-Encoding", "gzip")
		w.WriteHeader(rec.Code)
		zw := gzip.NewWriter(w)
		_, _ = zw.Write(rec.Body.Bytes())
		_ = zw.Close()
		encoded.Add(1)
	}))
	defer srv.Close()

	cache, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t, srv.URL, cache)
	res, ok := c.Get(k)
	if !ok || res.DeviceName != "a100[0]" {
		t.Fatalf("Get through a gzipping proxy = %+v ok=%v, want a hit", res, ok)
	}
	if got := c.Counters().Corrupt; got != 0 {
		t.Fatalf("Corrupt = %d, want 0", got)
	}
	if encoded.Load() == 0 {
		t.Fatal("the proxy never gzipped a response; the test proves nothing")
	}
	want, err := os.ReadFile(filepath.Join(st.Dir(), k.Digest+".json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(cache.Dir(), k.Digest+".json"))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("local tier does not hold the daemon's bytes verbatim (err=%v)", err)
	}
}
