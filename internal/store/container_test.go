package store

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
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

// legacyJSON is a blob of earlier releases addressed to digest: their
// JSON envelope (abridged), which they stored verbatim (the plain-JSON
// container) or gzipped (the gzip-JSON container). Neither is a v3
// container, so both are invalid blobs.
func legacyJSON(digest string) []byte {
	return []byte(`{
 "schema": 2,
 "digest": "` + digest + `",
 "profile": "a100",
 "instance": 0,
 "result": {
  "device_name": "A100-SXM4[0]",
  "architecture": "Ampere",
  "capture_hint_ns": 120000000,
  "pairs": [
   {
    "pair": {"InitMHz": 705, "TargetMHz": 1410},
    "measurements": null,
    "samples": [13.12345678901234],
    "injected": ["NaN"],
    "attempts": 1,
    "failures": 0,
    "discarded_by_throttle": 0,
    "throttle_events": 0,
    "skipped": false,
    "kept": [13.12345678901234],
    "outliers": [],
    "summary": {"n": 1, "mean": 13.12345678901234, "std": 0, "min": 13.12345678901234,
     "q05": 13.12345678901234, "q25": 13.12345678901234, "median": 13.12345678901234,
     "q75": 13.12345678901234, "q95": 13.12345678901234, "max": 13.12345678901234},
    "final_rse": "+Inf"
   }
  ]
 }
}`)
}

// TestCorruptBlobIsMissAndHeals: any blob file that is not an intact
// v3 container for its digest — a v3 stream truncated, bit-flipped,
// replaced with garbage behind a valid magic or carrying a body whose
// size field is not its length, or a blob in the plain-JSON or
// gzip-JSON container of an earlier release — must read
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
		"v3/size-field-lies": func(t *testing.T, _ Key, b []byte) []byte {
			body, err := inflateV3(b)
			if err != nil {
				t.Fatal(err)
			}
			raw := bytes.Clone(body.Bytes())
			putDecodeBuf(body)
			binary.LittleEndian.PutUint64(raw[4:], uint64(len(raw)+1))
			return append(append([]byte(nil), v3Magic[:]...), gzipBytes(t, raw)...)
		},
		"legacy-v1": func(_ *testing.T, k Key, _ []byte) []byte { return legacyJSON(k.Digest) },
		"legacy-v2": func(t *testing.T, k Key, _ []byte) []byte { return gzipBytes(t, legacyJSON(k.Digest)) },
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

// TestBlobCompressionRatioSynthetic: the gzip layer must earn its keep
// even on a small synthetic result — the inflated body over the stored
// container; real quick-scale campaign blobs (asserted in the
// root-level TestBlobCompressionRatio) compress better still.
func TestBlobCompressionRatioSynthetic(t *testing.T) {
	k := mustKey(t, 0, 42)
	body := bodyLen(t, k, testResult())
	v3, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(body) / float64(len(v3))
	t.Logf("synthetic blob: %d -> %d bytes (v3, %.2fx)", body, len(v3), ratio)
	if ratio < 1.5 {
		t.Fatalf("v3 compression ratio %.2f on the synthetic blob; the container is not paying for itself", ratio)
	}
}

// TestBlobInflationBound: a container that inflates past the
// body-size rail is an invalid blob (a gzip bomb turned miss), not
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

// TestPutRefusesBodyPastDecodeBound: what Put writes, Get must be able
// to read, so a result whose body exceeds the decode bound is refused
// before a byte lands — no blob, no staging file, no index entry — and
// the same result stores under the normal bound.
func TestPutRefusesBodyPastDecodeBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := mustKey(t, 0, 42)
	old := maxCanonicalBytes
	maxCanonicalBytes = bodyLen(t, k, testResult()) - 1
	err = s.Put(k, testResult())
	maxCanonicalBytes = old
	if err == nil {
		t.Fatal("Put accepted a body past the decode bound")
	}
	if n := strings.Count(err.Error(), k.String()); n != 1 {
		t.Fatalf("Put error %q names the key %d times, want once", err, n)
	}
	if s.Len() != 0 {
		t.Fatalf("refused Put left %d index entries", s.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == k.blobName() || strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("refused Put left %s in the store dir", e.Name())
		}
	}

	if err := s.Put(k, testResult()); err != nil {
		t.Fatalf("Put under the normal bound: %v", err)
	}
	if _, ok := s.Get(k); !ok || s.Len() != 1 {
		t.Fatalf("stored result: hit %v, Len %d, want a hit and one entry", ok, s.Len())
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
