package cluster

import (
	"math"
	"sort"
)

// Silhouette returns the mean silhouette coefficient of the clustering:
// for each clustered point, s = (b − a) / max(a, b) where a is the mean
// distance to its own cluster and b the smallest mean distance to another
// cluster. Noise points are excluded, matching the paper's §VII-B usage
// (silhouette evaluated on the post-DBSCAN clusters).
//
// It returns NaN when fewer than two clusters have members, since the
// coefficient is undefined there.
func Silhouette(xs []float64, labels []int) float64 {
	if len(xs) != len(labels) {
		return math.NaN()
	}
	// Group member values by cluster.
	groups := map[int][]float64{}
	for i, l := range labels {
		if l >= 0 {
			groups[l] = append(groups[l], xs[i])
		}
	}
	if len(groups) < 2 {
		return math.NaN()
	}
	// Sum in ascending label order: map iteration order is random, and a
	// float sum in varying order varies in its last bits.
	ids := make([]int, 0, len(groups))
	for l := range groups {
		ids = append(ids, l)
	}
	sort.Ints(ids)

	// Pre-compute per-cluster sums for O(1) mean-distance updates — in one
	// dimension the mean absolute distance still needs a pass, so simply
	// iterate (cluster sizes here are at most a few hundred).
	var total float64
	var count int
	for _, l := range ids {
		members := groups[l]
		for _, x := range members {
			a := meanAbsDistance(x, members, true)
			if math.IsNaN(a) {
				// Singleton cluster: silhouette defined as 0.
				total += 0
				count++
				continue
			}
			b := math.Inf(1)
			for _, ol := range ids {
				if ol == l {
					continue
				}
				if d := meanAbsDistance(x, groups[ol], false); d < b {
					b = d
				}
			}
			den := math.Max(a, b)
			if den == 0 {
				total += 0
			} else {
				total += (b - a) / den
			}
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return total / float64(count)
}

// meanAbsDistance returns the mean |x − y| over members. When excludeSelf
// is true one zero-distance occurrence of x is removed from the average
// (the point's own entry); NaN is returned if nothing remains.
func meanAbsDistance(x float64, members []float64, excludeSelf bool) float64 {
	n := len(members)
	if excludeSelf {
		n--
	}
	if n <= 0 {
		return math.NaN()
	}
	var sum float64
	for _, y := range members {
		sum += math.Abs(x - y)
	}
	return sum / float64(n)
}
