package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"

	"golatest/internal/store"
)

// cacheLine is the store outcome the experiments CLI prints at the end of
// a run.
type cacheLine struct {
	hits, misses, writes, blobs int
}

func (c cacheLine) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d writes, %d blobs", c.hits, c.misses, c.writes, c.blobs)
}

var cacheRE = regexp.MustCompile(`(?m)^cache .*: (\d+) hits, (\d+) misses, (\d+) writes, (\d+) blobs$`)

func parseCache(stdout string) (cacheLine, error) {
	m := cacheRE.FindStringSubmatch(stdout)
	if m == nil {
		return cacheLine{}, fmt.Errorf("no cache line in the CLI output")
	}
	var n [4]int
	for i := range n {
		v, err := strconv.Atoi(m[i+1])
		if err != nil {
			return cacheLine{}, err
		}
		n[i] = v
	}
	return cacheLine{hits: n[0], misses: n[1], writes: n[2], blobs: n[3]}, nil
}

// expectCold checks the outcome of a run into an empty store: every
// campaign missed and was written once.
func (c cacheLine) expectCold() error {
	if c.hits != 0 || c.misses != c.writes || c.writes != c.blobs || c.blobs == 0 {
		return fmt.Errorf("cold run into an empty store: %s", c)
	}
	return nil
}

// sameArtefacts compares the files of dir with those of ref byte for
// byte. With subset, dir may hold fewer files than ref.
func sameArtefacts(dir, ref string, subset bool) error {
	got, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	want, err := os.ReadDir(ref)
	if err != nil {
		return err
	}
	if len(got) == 0 || (!subset && len(got) != len(want)) {
		return fmt.Errorf("%d artefacts, want %d", len(got), len(want))
	}
	for _, e := range got {
		a, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(ref, e.Name()))
		if err != nil {
			return fmt.Errorf("artefact %s: %w", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("artefact %s differs from the cold run's", e.Name())
		}
	}
	return nil
}

// readBack is the estimation error of every measurement in a store.
type readBack struct {
	ms        []float64 // |Samples − Injected| per measurement, sorted
	campaigns int
}

// estimationErrors opens the store a run produced and compares every
// measured latency with the simulator's injected ground truth.
func estimationErrors(dir string) (readBack, error) {
	var rb readBack
	st, err := store.Open(dir)
	if err != nil {
		return rb, err
	}
	for _, e := range st.Index() {
		res, ok := st.Get(store.Key{Digest: e.Digest, Profile: e.Profile, Instance: e.Instance})
		if !ok {
			return rb, fmt.Errorf("campaign %s/%d@%.12s does not read back", e.Profile, e.Instance, e.Digest)
		}
		rb.campaigns++
		for _, pr := range res.Pairs {
			if len(pr.Injected) != len(pr.Samples) {
				return rb, fmt.Errorf("%s %v: %d samples but %d injected", e.Profile, pr.Pair, len(pr.Samples), len(pr.Injected))
			}
			for i, s := range pr.Samples {
				if !math.IsNaN(pr.Injected[i]) {
					rb.ms = append(rb.ms, math.Abs(s-pr.Injected[i]))
				}
			}
		}
	}
	if len(rb.ms) == 0 {
		return rb, fmt.Errorf("store %s holds no measurements", dir)
	}
	slices.Sort(rb.ms)
	return rb, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
