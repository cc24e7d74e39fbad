// Package cluster implements the density-based outlier machinery of the
// paper's analysis phase: DBSCAN over one-dimensional switching-latency
// samples, silhouette scoring, and the adaptive parameter-selection loop
// of Algorithm 3.
//
// Switching latencies are scalar, so all algorithms operate on sorted
// float64 slices with |a−b| as the metric; this keeps region queries
// O(log n) instead of the general O(n).
package cluster

import "sort"

// Noise is the label assigned to points DBSCAN classifies as noise
// (outliers in the paper's terminology).
const Noise = -1

// Result holds a clustering of the input samples.
type Result struct {
	// Labels[i] is the cluster index of input point i (in the original,
	// not sorted, order), or Noise.
	Labels []int
	// NumClusters is the number of clusters found (labels 0..NumClusters-1).
	NumClusters int
	// Eps and MinPts echo the parameters used.
	Eps    float64
	MinPts int

	// noiseCount and clusterSizes are precomputed by finalize when the
	// clustering is built, so the adaptive loop's repeated NoiseRatio
	// checks and the census's size queries never rescan Labels. counted
	// distinguishes a finalized Result from a hand-assembled zero value,
	// for which the accessors fall back to scanning.
	counted      bool
	noiseCount   int
	clusterSizes []int
}

// finalize counts noise and per-cluster sizes once, at construction.
func (r *Result) finalize() {
	r.noiseCount = 0
	r.clusterSizes = make([]int, r.NumClusters)
	for _, l := range r.Labels {
		if l == Noise {
			r.noiseCount++
		} else {
			r.clusterSizes[l]++
		}
	}
	r.counted = true
}

// NoiseCount returns the number of points labelled Noise.
func (r *Result) NoiseCount() int {
	if r.counted {
		return r.noiseCount
	}
	n := 0
	for _, l := range r.Labels {
		if l == Noise {
			n++
		}
	}
	return n
}

// NoiseRatio returns NoiseCount/len(Labels), or 0 for empty input.
func (r *Result) NoiseRatio() float64 {
	if len(r.Labels) == 0 {
		return 0
	}
	return float64(r.NoiseCount()) / float64(len(r.Labels))
}

// ClusterSizes returns the size of each cluster, indexed by label. The
// returned slice is shared; callers must not modify it.
func (r *Result) ClusterSizes() []int {
	if r.counted {
		return r.clusterSizes
	}
	sizes := make([]int, r.NumClusters)
	for _, l := range r.Labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	return sizes
}

// DBSCAN clusters the scalar samples xs with radius eps and density
// threshold minPts. A point is a core point when at least minPts points
// (including itself) lie within eps of it; clusters grow from core points;
// non-core points within eps of a core point join its cluster; everything
// else is Noise.
//
// The implementation sorts an index permutation of xs and answers each
// region query with two binary searches, so a full run is O(n log n).
func DBSCAN(xs []float64, eps float64, minPts int) *Result {
	n := len(xs)
	res := &Result{Labels: make([]int, n), Eps: eps, MinPts: minPts}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	if n == 0 || minPts <= 0 || eps < 0 {
		res.finalize()
		return res
	}

	// perm[k] is the index into xs of the k-th smallest sample.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return xs[perm[a]] < xs[perm[b]] })
	sorted := make([]float64, n)
	for k, idx := range perm {
		sorted[k] = xs[idx]
	}

	// neighbors returns the half-open sorted-position range [lo, hi) of
	// points within eps of sorted[k]: two binary searches, the second for
	// the first element strictly greater than x+eps so that elements
	// exactly at x+eps are included (closed ball, as in classic DBSCAN
	// formulations) without a linear extension over tied samples.
	neighbors := func(k int) (lo, hi int) {
		x := sorted[k]
		lo = sort.SearchFloat64s(sorted, x-eps)
		hi = lo + sort.Search(n-lo, func(i int) bool { return sorted[lo+i] > x+eps })
		return lo, hi
	}

	labels := make([]int, n) // labels in sorted order
	for k := range labels {
		labels[k] = Noise
	}
	visited := make([]bool, n)
	queued := make([]bool, n) // each point enters a BFS queue at most once
	next := 0

	for k := 0; k < n; k++ {
		if visited[k] {
			continue
		}
		visited[k] = true
		lo, hi := neighbors(k)
		if hi-lo < minPts {
			continue // not a core point; stays noise unless adopted later
		}
		// Start a new cluster and expand it breadth-first. The queued
		// bitmap bounds total enqueues by n, keeping dense clusters
		// linear instead of quadratic.
		c := next
		next++
		labels[k] = c
		queued[k] = true
		queue := make([]int, 0, hi-lo)
		for j := lo; j < hi; j++ {
			if !queued[j] {
				queued[j] = true
				queue = append(queue, j)
			}
		}
		for head := 0; head < len(queue); head++ {
			j := queue[head]
			if labels[j] == Noise {
				labels[j] = c // border point adoption
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			jlo, jhi := neighbors(j)
			if jhi-jlo >= minPts {
				labels[j] = c
				for q := jlo; q < jhi; q++ {
					if !queued[q] {
						queued[q] = true
						queue = append(queue, q)
					}
				}
			}
		}
	}

	res.NumClusters = next
	for k, idx := range perm {
		res.Labels[idx] = labels[k]
	}
	res.finalize()
	return res
}
