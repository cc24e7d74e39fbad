package store

import (
	"time"

	"golatest/internal/core"
)

// Backend is the campaign-store surface the rest of the system builds
// on: content-addressed Get/Put over campaign Keys, the advisory lease
// protocol, the index, and GC. Two implementations exist:
//
//   - *Store — the filesystem store in this package, coordinating
//     processes that share one directory (rename atomicity, the
//     directory as the index, link-published leases);
//   - storenet.Client — the same contract spoken over HTTP to a
//     `stored` daemon, so fleets spanning hosts share one store.
//
// The error discipline is deliberately asymmetric, matching the local
// store's corruption tolerance: reads (Get, Has, Index, Len,
// LeaseHolder) degrade to a miss/empty answer on any failure — a miss
// is always recoverable by recomputing, and campaigns are deterministic
// so the recompute is byte-identical — while writes and claims (Put,
// TryAcquire, GC) surface their errors, because a store that cannot
// accept results or arbitrate leases must stop the fleet rather than
// let it silently recompute forever.
type Backend interface {
	// Location names the store for logs and stats lines: a directory
	// for the filesystem store, a base URL for a remote one.
	Location() string

	// Get returns the stored campaign for the key, or (nil, false) on
	// any kind of miss — absent, unreadable, or invalid.
	Get(k Key) (*core.Result, bool)
	// Put stores the campaign under the key.
	Put(k Key, res *core.Result) error
	// Has reports whether a blob exists for the key without validating
	// it; only Get vouches for integrity.
	Has(k Key) bool

	// Index lists the indexed blobs; Len counts them.
	Index() []ManifestEntry
	Len() int
	// Counters reports this handle's traffic.
	Counters() Counters

	// TryAcquire claims digest for owner until now+ttl: (lease, true,
	// nil) on success, (nil, false, nil) when a live peer holds it.
	TryAcquire(digest, owner string, ttl time.Duration) (LeaseHandle, bool, error)
	// LeaseHolder peeks at the live holder of a digest's lease.
	LeaseHolder(digest string) (owner string, held bool)

	// GC bounds the store per the policy and sweeps debris.
	GC(p GCPolicy) (GCStats, error)
}

// LeaseHandle is a held advisory claim, abstracted over backends. Renew
// and Release verify the acquisition token — a handle whose lease was
// stolen after expiry can only fail, never clobber the new holder.
type LeaseHandle interface {
	// Owner returns the label the lease was acquired under.
	Owner() string
	// Token returns the per-acquisition token Renew/Release verify; the
	// network layer round-trips it so a stateless daemon can reattach.
	Token() string
	// Stolen reports the claim displaced an expired previous holder.
	Stolen() bool
	// Renew extends the claim to now+ttl.
	Renew(ttl time.Duration) error
	// Release drops the claim; best-effort and idempotent.
	Release() error
}

// ResilienceStats reports a backend's degraded-mode traffic: what it
// absorbed, deferred, and healed while its remote tier was unavailable.
type ResilienceStats struct {
	// Degraded counts requests the backend answered without the remote:
	// reads served local-only (or fast-failed to a miss) while its
	// circuit breaker was open, and lease claims arbitrated by the local
	// tier because the remote could not answer.
	Degraded int64
	// Deferred counts writes that landed in the local tier plus the
	// write-behind journal instead of the remote.
	Deferred int64
	// Reconciled counts journaled writes since replayed to the remote.
	Reconciled int64
	// Pending counts journal entries not yet replayed.
	Pending int64
}

// ValidatedGetter is the optional read-side half of the proof-carrying
// blob handoff: backends that can return the validated container bytes
// alongside the decoded result implement it (*Store reads them off
// disk, storenet.Client validates the wire body). Composite backends —
// the replicating router — use it to move a blob between members
// without a second decode: the ValidatedBlob a member hands back is
// exactly what another member's PutValidated accepts verbatim.
type ValidatedGetter interface {
	GetValidated(digest string) (*ValidatedBlob, bool)
}

// ValidatedPutter is the write-side half: backends that can persist an
// already-validated blob without re-encoding or re-validating it. The
// ValidatedBlob type has no public constructor outside the validating
// parse paths, so an implementation may trust the bytes unconditionally.
type ValidatedPutter interface {
	PutValidated(vb *ValidatedBlob) error
}

// Resilient is implemented by backends that survive a remote outage by
// degrading to a local tier: storenet.Client with a cache configured,
// and the storenet router, which sums its members' counters. The
// backend alone decides what it absorbs: whatever it cannot (a refusal
// from a live remote, a failed local write) reaches the caller as an
// error, and a fleet sweep aborts on it. Its counters are the one
// ledger of the absorbed traffic; they span the backend's life, not any
// one sweep.
// Blobs are content-addressed and immutable, so the degraded contract
// is safe by construction: a deferred write holds exactly the bytes the
// remote would have stored, replaying it is idempotent, and no reader
// can ever observe a wrong result — only a temporarily smaller store.
type Resilient interface {
	// CanDegrade reports whether a local tier absorbs remote failures,
	// which is what gives Reconcile a journal to replay.
	CanDegrade() bool
	// Resilience snapshots the degraded-mode counters.
	Resilience() ResilienceStats
	// Reconcile replays the write-behind journal to the remote,
	// returning how many blobs were replayed. Idempotent: replayed
	// entries leave the journal, and an entry whose blob has since been
	// evicted locally is dropped (the result recomputes on demand).
	Reconcile() (int, error)
}

var (
	_ Backend         = (*Store)(nil)
	_ LeaseHandle     = (*Lease)(nil)
	_ ValidatedGetter = (*Store)(nil)
	_ ValidatedPutter = (*Store)(nil)
)

// IndexedBytes sums the on-disk blob sizes of an index listing — the
// store-size estimate stored's stats report (it leaves out blob files
// whose header does not read; GC itself sizes every blob file).
func IndexedBytes(entries []ManifestEntry) int64 {
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	return total
}

// IndexedRawBytes sums the inflated v3 body sizes;
// against IndexedBytes it yields the store's live compression ratio
// without decoding a single blob. Entries with no raw size contribute
// zero.
func IndexedRawBytes(entries []ManifestEntry) int64 {
	var total int64
	for _, e := range entries {
		total += e.RawBytes
	}
	return total
}
