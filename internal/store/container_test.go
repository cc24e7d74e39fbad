package store

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// gzipBytes deflates data as one gzip member — the raw material for
// the foreign containers (gzip JSON, bombs, extra members) these tests
// throw at the parser.
func gzipBytes(t testing.TB, data []byte) []byte {
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

// canonicalBytes returns the canonical JSON envelope of testResult
// under k — what earlier releases stored verbatim (the plain-JSON
// container) or gzipped (the gzip-JSON container).
func canonicalBytes(t testing.TB, k Key) []byte {
	t.Helper()
	data, err := EncodeBlob(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCorruptBlobIsMissAndHeals: any blob file that is not an intact
// v3 container for its digest — a v3 stream truncated, bit-flipped, or
// replaced with garbage behind a valid magic, or a blob in the
// plain-JSON or gzip-JSON container of an earlier release — must read
// as a miss that deletes the file (so it leaves the index), after which
// recompute-and-Put writes v3 — never an error, never a wrong result.
func TestCorruptBlobIsMissAndHeals(t *testing.T) {
	inputs := map[string]func(t *testing.T, k Key, good []byte) []byte{
		"v3/truncated-stream": func(_ *testing.T, _ Key, b []byte) []byte { return b[:len(b)/2] },
		"v3/missing-footer":   func(_ *testing.T, _ Key, b []byte) []byte { return b[:len(b)-4] },
		"v3/bit-flip": func(_ *testing.T, _ Key, b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		},
		"v3/garbage-after-gzip-magic": func(*testing.T, Key, []byte) []byte {
			return []byte{0x1f, 0x8b, 'n', 'o', 't', 'g', 'z'}
		},
		"v3/garbage-after-v3-magic": func(*testing.T, Key, []byte) []byte {
			return append(append([]byte(nil), v3Magic[:]...), 'n', 'o', 't', 'g', 'z')
		},
		"legacy-v1": func(t *testing.T, k Key, _ []byte) []byte { return canonicalBytes(t, k) },
		"legacy-v2": func(t *testing.T, k Key, _ []byte) []byte { return gzipBytes(t, canonicalBytes(t, k)) },
	}
	for name, input := range inputs {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := mustKey(t, 0, 42)
			// Put first, so the bad bytes replace an indexed blob.
			if err := s.Put(k, testResult()); err != nil {
				t.Fatal(err)
			}
			blob := filepath.Join(dir, k.blobName())
			good, err := os.ReadFile(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(blob, input(t, k, good), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := s.Get(k); ok {
				t.Fatal("invalid blob served as a hit")
			}
			if _, err := os.Stat(blob); !os.IsNotExist(err) {
				t.Fatal("invalid blob left on disk")
			}
			if s.Len() != 0 {
				t.Fatalf("index still reports the unreadable key: Len=%d", s.Len())
			}
			if c := s.Counters(); c.Corrupt != 1 || c.Misses != 1 {
				t.Fatalf("counters = %+v, want the invalid blob counted as one miss", c)
			}

			// Recompute-and-heal: the re-Put writes v3 and reads back.
			if err := s.Put(k, testResult()); err != nil {
				t.Fatal(err)
			}
			if healed, err := os.ReadFile(blob); err != nil || !bytes.Equal(healed, good) {
				t.Fatalf("re-Put did not write the v3 container (err=%v)", err)
			}
			if _, ok := s.Get(k); !ok {
				t.Fatal("healed blob missed")
			}
		})
	}
}

// TestBlobCompressionRatioSynthetic: the container must earn its keep
// even on a small synthetic result — real quick-scale campaign blobs
// (asserted in the root-level TestBlobCompressionRatio) compress better
// still.
func TestBlobCompressionRatioSynthetic(t *testing.T) {
	k := mustKey(t, 0, 42)
	plain := canonicalBytes(t, k)
	v3, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(plain)) / float64(len(v3))
	t.Logf("synthetic blob: %d -> %d bytes (v3, %.2fx)", len(plain), len(v3), ratio)
	if ratio < 1.5 {
		t.Fatalf("v3 compression ratio %.2f on the synthetic blob; the container is not paying for itself", ratio)
	}
}

// TestBlobInflationBound: a container that inflates past the
// canonical-size rail is an invalid blob (a gzip bomb turned miss), not
// an allocation storm.
func TestBlobInflationBound(t *testing.T) {
	old := maxCanonicalBytes
	maxCanonicalBytes = 1 << 10
	defer func() { maxCanonicalBytes = old }()

	bomb := append(append([]byte(nil), v3Magic[:]...),
		gzipBytes(t, bytes.Repeat([]byte{' '}, 64<<10))...)
	_, _, err := parseBlob(bomb, "deadbeef")
	if err == nil || !errors.Is(err, ErrInvalidBlob) {
		t.Fatalf("oversized v3 inflate err = %v, want ErrInvalidBlob", err)
	}

	// A legitimate blob under the rail still parses.
	maxCanonicalBytes = old
	k := mustKey(t, 0, 42)
	good, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := parseBlob(good, k.Digest); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsMultiMemberContainer: the container must be exactly one
// gzip member — concatenated members (which multistream gzip readers
// transparently append) and raw trailing garbage would let arbitrary
// padding hide behind a valid digest and break the container's byte
// determinism.
func TestRejectsMultiMemberContainer(t *testing.T) {
	k := mustKey(t, 0, 42)
	good, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	concat := append(append([]byte(nil), good...), gzipBytes(t, []byte("  \n"))...)
	if _, err := ValidateBlob(concat, k.Digest); err == nil || !errors.Is(err, ErrInvalidBlob) {
		t.Fatalf("multi-member container err = %v, want ErrInvalidBlob", err)
	}
	// Raw trailing garbage after the member is rejected the same way.
	trailing := append(append([]byte(nil), good...), "junk"...)
	if _, err := ValidateBlob(trailing, k.Digest); err == nil || !errors.Is(err, ErrInvalidBlob) {
		t.Fatalf("trailing-bytes container err = %v, want ErrInvalidBlob", err)
	}
	// And the pristine container still validates after those rejections
	// (the pooled reader state is clean).
	if _, err := ValidateBlob(good, k.Digest); err != nil {
		t.Fatal(err)
	}
}
