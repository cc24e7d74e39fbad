package cluster

import (
	"math/rand/v2"
	"testing"
)

func benchData(n int) []float64 {
	rng := rand.New(rand.NewPCG(9, 9))
	xs := make([]float64, n)
	for i := range xs {
		switch {
		case i%20 == 0:
			xs[i] = 250 + 50*rng.Float64()
		case i%7 == 0:
			xs[i] = 135 + rng.NormFloat64()
		default:
			xs[i] = 15 + 0.5*rng.NormFloat64()
		}
	}
	return xs
}

func BenchmarkDBSCAN300(b *testing.B) {
	xs := benchData(300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DBSCAN(xs, 2.0, 8)
	}
}

func BenchmarkDBSCAN5000(b *testing.B) {
	xs := benchData(5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DBSCAN(xs, 2.0, 50)
	}
}

func BenchmarkAdaptive300(b *testing.B) {
	xs := benchData(300)
	cfg := DefaultAdaptiveConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Adaptive(xs, cfg)
	}
}

func BenchmarkSilhouette(b *testing.B) {
	xs := benchData(400)
	res := DBSCAN(xs, 2.0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Silhouette(xs, res.Labels)
	}
}
