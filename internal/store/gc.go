package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Garbage collection. The store otherwise only grows; GC bounds it by
// total size and by idle age, evicting least-recently-used blobs first.
// The LRU clock is the blob file's mtime: a Put writes it and every Get
// hit advances it, so the ordering survives restarts and is shared
// between processes. Eviction is the same operation as corrupt-blob
// healing — remove the blob — so concurrent readers of an evicted key
// see an ordinary miss and recompute.

// staleTmpAge is how old an orphaned staging file must be before GC
// removes it. Writers hold staging files for milliseconds; anything an
// hour old is a crash leftover, never an in-flight write.
const staleTmpAge = time.Hour

// GCPolicy bounds the store. Zero-valued bounds are unbounded; a
// zero-valued policy makes GC a pure janitor (crash-orphaned temp
// files, expired leases) that evicts no blob.
type GCPolicy struct {
	// MaxBytes caps the total size of blob files; least-recently-used
	// blobs are evicted until the total fits. 0 = no size bound.
	MaxBytes int64
	// MaxAge evicts blobs whose last access is older than this.
	// 0 = no age bound.
	MaxAge time.Duration
	// Now overrides the GC clock; zero means time.Now(). Tests use it to
	// age a store without sleeping.
	Now time.Time
}

// GCStats reports what one GC pass did.
type GCStats struct {
	// Scanned counts blob files examined; Evicted counts blobs removed.
	Scanned, Evicted int
	// BytesBefore and BytesAfter total the blob file sizes around the
	// pass.
	BytesBefore, BytesAfter int64
	// TmpRemoved counts crash-orphaned staging files swept; LeasesRemoved
	// counts expired lease files swept.
	TmpRemoved, LeasesRemoved int
}

// GC applies the policy: age bound first, then the size bound over
// least-recently-used blobs, then a sweep of crash debris (stale temp
// files, expired leases). It sizes and ages every blob file by stat,
// whether or not its header reads, so an unreadable or old-schema blob
// that Index leaves out still counts against the bounds.
func (s *Store) GC(p GCPolicy) (GCStats, error) {
	now := p.Now
	if now.IsZero() {
		now = time.Now()
	}
	var st GCStats
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("store: gc: %w", err)
	}
	type cand struct {
		name   string
		access int64
		bytes  int64
	}
	var (
		cands []cand
		total int64
	)
	for _, de := range des {
		if !blobFile(de) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue // removed by a peer since the listing
		}
		total += fi.Size()
		cands = append(cands, cand{name: de.Name(), access: fi.ModTime().UnixNano(), bytes: fi.Size()})
	}
	st.Scanned = len(cands)
	st.BytesBefore = total
	// Oldest first; a name tie-break keeps blobs written within one
	// timestamp tick in a fixed order.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].access != cands[j].access {
			return cands[i].access < cands[j].access
		}
		return cands[i].name < cands[j].name
	})

	evict := func(c cand) error {
		if err := os.Remove(filepath.Join(s.dir, c.name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: gc %s: %w", c.name, err)
		}
		s.forget(strings.TrimSuffix(c.name, ".json"))
		total -= c.bytes
		st.Evicted++
		return nil
	}

	var cutoff int64
	if p.MaxAge > 0 {
		cutoff = now.Add(-p.MaxAge).UnixNano()
	}
	for _, c := range cands {
		if c.access >= cutoff && (p.MaxBytes <= 0 || total <= p.MaxBytes) {
			break // sorted ascending: the rest are young enough and fit
		}
		if err := evict(c); err != nil {
			return st, err
		}
	}
	st.BytesAfter = total

	s.sweepDebris(now, &st)
	return st, nil
}

// sweepDebris removes crash leftovers: staging files past staleTmpAge
// (a live writer holds its temp file for milliseconds) and lease files
// whose expiry has passed (their holder is gone; removing them is the
// same transition a stealer would make).
func (s *Store) sweepDebris(now time.Time, st *GCStats) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			fi, err := de.Info()
			if err != nil || now.Sub(fi.ModTime()) < staleTmpAge {
				continue
			}
			if os.Remove(filepath.Join(s.dir, name)) == nil {
				st.TmpRemoved++
			}
		case strings.HasSuffix(name, leaseSuffix):
			path := filepath.Join(s.dir, name)
			if _, held := leaseHolderAt(path); held {
				continue
			}
			if os.Remove(path) == nil {
				st.LeasesRemoved++
			}
		}
	}
}
