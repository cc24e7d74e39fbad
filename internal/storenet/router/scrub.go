package router

import (
	"errors"
	"fmt"

	"golatest/internal/core"
	"golatest/internal/store"
)

// ScrubStats reports one anti-entropy pass.
type ScrubStats struct {
	// Scanned counts distinct digests examined (the union of member
	// indexes); UnderReplicated counts digests missing from at least one
	// preferred member.
	Scanned, UnderReplicated int
	// Repaired counts replica slots healed this pass; Failed counts
	// slots that could not be healed (unreachable member, no readable
	// source) and stay pending for the next pass.
	Repaired, Failed int
}

// Scrub runs one anti-entropy pass: diff every member's index against
// the ring's preferred placement and heal each preferred member missing
// a digest with validated bytes read from a member that has it.
//
// The pass is idempotent and safe to run concurrently with live
// traffic or a second scrubber: blobs are immutable per digest, so a
// repair can only ever write the bytes the slot was always going to
// hold — replaying a repair, racing a Put, or crashing mid-pass and
// rerunning all converge on the same state. Repair is add-only: a blob
// found on a non-preferred member (a stand-in write from a failover, a
// since-healed outage) is left where it is; GC, not the scrubber, is
// the eviction authority.
//
// A digest whose every holder is unreachable or unreadable counts
// Failed and stays; the next pass retries. The pending-repairs gauge is
// recomputed exactly from what this pass observed.
func (r *Router) Scrub() (ScrubStats, error) {
	span := r.startSpan("router.scrub")
	defer span.End()
	var st ScrubStats

	// One index fetch per member, diffed in memory: the scrubber's cost
	// is O(blobs), not O(blobs × members) round trips.
	have := make([]map[string]bool, len(r.members))
	entries := map[string]store.ManifestEntry{}
	for i, m := range r.members {
		have[i] = map[string]bool{}
		for _, e := range m.b.Index() {
			have[i][e.Digest] = true
			if _, ok := entries[e.Digest]; !ok {
				entries[e.Digest] = e
			}
		}
	}

	var errs []error
	pending := 0
	for digest, e := range entries {
		st.Scanned++
		order := r.ring.order(digest)
		var missing []int
		for _, mi := range order[:r.rf] {
			if !have[mi][digest] {
				missing = append(missing, mi)
			}
		}
		if len(missing) == 0 {
			continue
		}
		st.UnderReplicated++
		k := store.Key{Digest: digest, Profile: e.Profile, Instance: e.Instance}

		// Source: the first healthy holder in preference order. The read
		// validates (one decode); a corrupt holder is skipped like a
		// missing one.
		var vb *store.ValidatedBlob
		var res *core.Result
		srcOK := false
		for _, mi := range order {
			if !have[mi][digest] || !r.healthy(mi) {
				continue
			}
			if vb, res, srcOK = r.memberGet(mi, k); srcOK {
				break
			}
		}
		if !srcOK {
			st.Failed += len(missing)
			pending += len(missing)
			errs = append(errs, fmt.Errorf("router: scrub %s: no readable source", digest))
			continue
		}
		for _, mi := range missing {
			if !r.healthy(mi) {
				st.Failed++
				pending++
				continue
			}
			if err := r.memberPut(mi, k, vb, res); err != nil {
				st.Failed++
				pending++
				errs = append(errs, fmt.Errorf("router: scrub %s -> %s: %w", digest, r.members[mi].id, err))
				continue
			}
			st.Repaired++
			r.scrubRepairs.Add(1)
		}
	}
	r.pendingRepairs.Store(int64(pending))
	r.scrubRuns.Add(1)
	if st.Repaired > 0 || st.Failed > 0 {
		r.log.Info("router: scrub pass",
			"scanned", st.Scanned, "under_replicated", st.UnderReplicated,
			"repaired", st.Repaired, "failed", st.Failed)
	}
	span.SetAttr("repaired", fmt.Sprintf("%d", st.Repaired))
	if len(errs) > 0 {
		return st, errors.Join(errs...)
	}
	return st, nil
}
