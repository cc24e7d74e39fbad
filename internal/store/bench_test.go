package store

import (
	"fmt"
	"io"
	"testing"

	"golatest/internal/core"
)

// benchResult is deliberately tiny: these benchmarks measure the index
// maintenance cost of a Put, not blob encoding.
func benchResult() *core.Result {
	return &core.Result{DeviceName: "bench", Architecture: "Ampere"}
}

// preload fills a store with n entries so the benchmarks measure index
// cost at a given store size.
func preload(b *testing.B, n int) *Store {
	b.Helper()
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	res := benchResult()
	for i := 0; i < n; i++ {
		k, err := KeyFor("a100", 0, uint64(i), testConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Put(k, res); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkStorePut measures a journal-backed Put at two store sizes:
// the ns/op should be flat from 16 to 1024 entries, because the index
// update is one O(1) log append. Contrast with BenchmarkStorePutRewrite,
// the pre-journal behaviour, whose cost grows with every entry;
// bench_smoke.sh reports the ratio as manifest_put_speedup.
func BenchmarkStorePut(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s := preload(b, n)
			res := benchResult()
			keys := make([]Key, b.N)
			for i := range keys {
				k, err := KeyFor("a100", 1, uint64(1_000_000+i), testConfig())
				if err != nil {
					b.Fatal(err)
				}
				keys[i] = k
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(keys[i], res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStorePutRewrite reproduces the pre-journal write path: every
// Put pays a full manifest snapshot rewrite, O(entries) I/O per write.
func BenchmarkStorePutRewrite(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			s := preload(b, n)
			res := benchResult()
			keys := make([]Key, b.N)
			for i := range keys {
				k, err := KeyFor("a100", 1, uint64(1_000_000+i), testConfig())
				if err != nil {
					b.Fatal(err)
				}
				keys[i] = k
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(keys[i], res); err != nil {
					b.Fatal(err)
				}
				s.mu.Lock()
				if err := s.writeSnapshotLocked(); err != nil {
					s.mu.Unlock()
					b.Fatal(err)
				}
				s.mu.Unlock()
			}
		})
	}
}

// BenchmarkStoreGet measures a warm Get (read + decode + LRU touch).
func BenchmarkStoreGet(b *testing.B) {
	s := preload(b, 1)
	k, err := KeyFor("a100", 0, 0, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}

// codecResult is a mid-sized synthetic campaign (20 pairs × 30
// measurements) so the codec benchmarks exercise realistic array
// shapes rather than the tiny index-benchmark result.
func codecResult() *core.Result {
	res := &core.Result{DeviceName: "bench", Architecture: "Ampere"}
	for p := 0; p < 20; p++ {
		pr := &core.PairResult{
			Pair:     core.Pair{InitMHz: 705 + float64(15*p), TargetMHz: 1410 - float64(15*p)},
			Attempts: 30,
		}
		for m := 0; m < 30; m++ {
			lat := 0.1 + float64(p)*0.01 + float64(m)*0.000123456789
			pr.Measurements = append(pr.Measurements, core.Measurement{
				Pair:      pr.Pair,
				LatencyMs: lat,
				TsDevNs:   int64(1_000_000 * m),
				TeDevNs:   int64(1_000_000*m) + int64(lat*1e6),
				SM:        m % 108,
			})
			pr.Samples = append(pr.Samples, lat)
			pr.Kept = append(pr.Kept, lat)
		}
		res.Pairs = append(res.Pairs, pr)
	}
	return res
}

// BenchmarkBlobEncode measures the streaming Put-path encode: the
// encoding/json sizing pass, then result → v3 binary body → pooled
// gzip via pooled appender scratch. bench_smoke.sh records its
// allocs/op and bytes/op.
func BenchmarkBlobEncode(b *testing.B) {
	k, err := KeyFor("a100", 0, 42, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	res := codecResult()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeBlobV3To(io.Discard, k, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlobDecode measures the warm-path decode of the v3
// container (pooled gzip reader inflating into pooled scratch ahead of
// the bounds-checked binary walk).
func BenchmarkBlobDecode(b *testing.B) {
	k, err := KeyFor("a100", 0, 42, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	data, err := EncodeBlobV3(k, codecResult())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ValidateBlob(data, k.Digest); err != nil {
			b.Fatal(err)
		}
	}
}
