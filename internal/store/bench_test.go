package store

import (
	"fmt"
	"io"
	"testing"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/stats"
)

// benchResult is deliberately tiny: these benchmarks measure the
// storage cost of a Put, not blob encoding.
func benchResult() *core.Result {
	return &core.Result{DeviceName: "bench", Architecture: "Ampere"}
}

// preload fills a store with n entries so the benchmarks measure Put
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

// BenchmarkStorePut measures a Put at two store sizes: the ns/op should
// be flat from 16 to 1024 entries, because a Put writes its blob and no
// index.
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
// shapes rather than the tiny index-benchmark result. It is shaped like
// a campaign's own result: latencies derive from the timestamps,
// injected latencies from integer nanoseconds, and Kept and Outliers
// partition the samples by the cluster labels, so it takes the body's
// integer-column path.
func codecResult() *core.Result {
	res := &core.Result{DeviceName: "bench", Architecture: "Ampere"}
	for p := 0; p < 20; p++ {
		pr := &core.PairResult{
			Pair:     core.Pair{InitMHz: 705 + float64(15*p), TargetMHz: 1410 - float64(15*p)},
			Attempts: 30,
			Clusters: &cluster.Result{NumClusters: 1, Eps: 0.0125, MinPts: 4},
		}
		for m := 0; m < 30; m++ {
			ts := int64(1_000_000 * m)
			te := ts + int64((0.1+float64(p)*0.01+float64(m)*0.000123456789)*1e6)
			injNs := te - ts - int64(1000+37*m)
			ms := core.Measurement{
				Pair:            pr.Pair,
				LatencyMs:       float64(te-ts) / 1e6,
				TsDevNs:         ts,
				TeDevNs:         te,
				SM:              m % 108,
				TransitionIndex: 200 + m,
				InjectedMs:      float64(injNs) / 1e6,
				SyncSpreadNs:    int64(700 + 13*m),
			}
			pr.Measurements = append(pr.Measurements, ms)
			pr.Samples = append(pr.Samples, ms.LatencyMs)
			pr.Injected = append(pr.Injected, ms.InjectedMs)
			if m%10 == 9 {
				pr.Clusters.Labels = append(pr.Clusters.Labels, cluster.Noise)
				pr.Outliers = append(pr.Outliers, ms.LatencyMs)
			} else {
				pr.Clusters.Labels = append(pr.Clusters.Labels, 0)
				pr.Kept = append(pr.Kept, ms.LatencyMs)
			}
		}
		pr.Summary = stats.Summarize(pr.Kept)
		res.Pairs = append(res.Pairs, pr)
	}
	return res
}

// BenchmarkBlobEncode measures the Put-path encode: result → v3 body
// in pooled scratch → pooled gzip writer. bench_smoke.sh records its
// allocs/op and bytes/op.
func BenchmarkBlobEncode(b *testing.B) {
	k, err := KeyFor("a100", 0, 42, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	res := codecResult()
	// One untimed encode fills the encoder and gzip-writer pools, which
	// the harness's GC between runs may have emptied: the ~900 KB
	// deflate state is a one-time cost, not the op's.
	e, err := encodeBody(k, res)
	if err != nil {
		b.Fatal(err)
	}
	if err := writeV3(io.Discard, e.buf); err != nil {
		b.Fatal(err)
	}
	putEncoder(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := encodeBody(k, res)
		if err != nil {
			b.Fatal(err)
		}
		if err := writeV3(io.Discard, e.buf); err != nil {
			b.Fatal(err)
		}
		putEncoder(e)
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
