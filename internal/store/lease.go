package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// Advisory shard leases. A lease is a `<digest>.lease` file published by
// staging its content in a temp file and hard-linking it into place —
// the filesystem arbitrates exactly one winner per digest, across
// goroutines and across processes, and the file is never visible
// half-written — holding the owner's id and an expiry. A holder renews
// while it works; anyone finding an expired (or unparseable) lease may
// steal it, so a crashed holder blocks a shard for at most one TTL.
//
// Leases are coordination, not correctness: campaigns are deterministic,
// so the worst a lease race can cause is duplicated work writing
// identical bytes. That keeps the protocol honest about its one
// documented window, which only an expired lease opens — two stealers
// of the same expired lease can, in a narrow interleaving, both believe
// they won; both then compute the same shard and Put the same blob.
// While no lease expires, exactly one claimant wins and none steals.
// fleet.Sweep's claim loop rides on this: claim before compute, wait
// (and poll the store) when a live peer holds the shard, steal when the
// holder's lease has expired.

// leaseSuffix names lease files next to their blobs.
const leaseSuffix = ".lease"

// leaseFile is the on-disk lease content. Token, minted fresh per
// acquisition, is what Renew and Release verify against: Owner is a
// human-facing label with no uniqueness requirement, so it must never
// decide whether a lease on disk is "ours" (two processes sharing an
// owner string would otherwise clobber each other's claims after a
// steal).
type leaseFile struct {
	Owner         string `json:"owner"`
	Token         string `json:"token"`
	ExpiresUnixNs int64  `json:"expires_unix_ns"`
}

// Lease is a held claim on the local filesystem. Release it when done;
// Renew it while working longer than the TTL.
type Lease struct {
	path   string
	owner  string
	token  string
	stolen bool
}

// Owner returns the id the lease was acquired under.
func (l *Lease) Owner() string { return l.owner }

// Token returns the per-acquisition token Renew and Release verify.
func (l *Lease) Token() string { return l.token }

// Stolen reports the claim displaced an expired previous holder.
func (l *Lease) Stolen() bool { return l.stolen }

// handleSeq disambiguates lease tokens minted in the same nanosecond.
var handleSeq atomic.Int64

// newHandleID mints a process-unique lease token.
func newHandleID() string {
	return fmt.Sprintf("%d-%d-%d", os.Getpid(), time.Now().UnixNano(), handleSeq.Add(1))
}

// TryAcquire attempts to claim the digest for owner until now+ttl.
// It returns (lease, true, nil) on success — including taking over an
// expired holder's claim (Lease.Stolen) — and (nil, false, nil) when a
// live lease exists. Claims are strictly exclusive: a live lease is
// busy even for its own owner id, so an owner string shared by several
// processes still partitions work correctly (the id is an
// observability label, not an identity with privileges — a process
// that crashed and restarted re-claims its shards through the ordinary
// expiry-steal path). The error return is reserved for real I/O
// failures.
func (s *Store) TryAcquire(digest, owner string, ttl time.Duration) (LeaseHandle, bool, error) {
	if digest == "" || strings.ContainsRune(digest, os.PathSeparator) {
		return nil, false, fmt.Errorf("store: invalid lease digest %q", digest)
	}
	if owner == "" {
		return nil, false, fmt.Errorf("store: empty lease owner")
	}
	if ttl <= 0 {
		return nil, false, fmt.Errorf("store: non-positive lease ttl %v", ttl)
	}
	l, ok, err := tryAcquirePath(filepath.Join(s.dir, digest+leaseSuffix), owner, ttl)
	if l == nil {
		// Return an untyped nil: a typed-nil *Lease inside the interface
		// would make callers' `lease != nil` checks lie.
		return nil, ok, err
	}
	return l, ok, err
}

// AttachLease reconstructs a handle for an acquisition made earlier —
// possibly by another handle or another process — from its digest,
// owner label, and token. Nothing is checked at attach time: Renew and
// Release verify the token against the on-disk lease, so an attach with
// a stale or fabricated token can only fail, never displace the live
// holder. This is what lets the network daemon stay stateless — clients
// round-trip the token, and a restarted daemon serves renewals without
// any in-memory lease table.
func (s *Store) AttachLease(digest, owner, token string) LeaseHandle {
	return &Lease{path: filepath.Join(s.dir, digest+leaseSuffix), owner: owner, token: token}
}

func tryAcquirePath(path, owner string, ttl time.Duration) (*Lease, bool, error) {
	stolen := false
	token := newHandleID()
	for attempt := 0; attempt < 8; attempt++ {
		ok, err := publishLease(path, leaseFile{
			Owner: owner, Token: token, ExpiresUnixNs: time.Now().Add(ttl).UnixNano(),
		})
		if err != nil {
			return nil, false, err
		}
		if ok {
			return &Lease{path: path, owner: owner, token: token, stolen: stolen}, true, nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // released between the publish attempt and the read
			}
			return nil, false, fmt.Errorf("store: lease %s: %w", path, err)
		}
		var lf leaseFile
		if json.Unmarshal(data, &lf) != nil || time.Now().UnixNano() >= lf.ExpiresUnixNs {
			// Expired or garbage: steal. The remove-then-republish is the
			// documented advisory window — a fresh lease published between
			// our read of the expired one and our remove (by another
			// stealer, or by a claimant after the expired holder released)
			// is lost, and the shard computes twice, identically.
			os.Remove(path)
			stolen = true
			continue
		}
		return nil, false, nil
	}
	// Pathological churn (create/steal racing in a tight loop): report
	// busy rather than spinning; the caller's claim loop retries.
	return nil, false, nil
}

// publishLease makes lf the lease at path if none exists, reporting
// false when one does. The content is staged in a temp file and
// hard-linked into place, so the lease appears complete or not at all:
// a claimant can never read a half-written live lease, take it for
// garbage and steal it. link(2) fails with EEXIST when path exists,
// which is the same exclusive-create arbitration O_EXCL gives.
func publishLease(path string, lf leaseFile) (bool, error) {
	data, err := json.Marshal(lf)
	if err != nil {
		return false, fmt.Errorf("store: lease %s: %w", path, err)
	}
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+base+"-*")
	if err != nil {
		return false, fmt.Errorf("store: lease %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return false, fmt.Errorf("store: lease %s: %w", path, err)
	}
	if err := os.Link(tmp.Name(), path); err != nil {
		if os.IsExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("store: lease %s: %w", path, err)
	}
	return true, nil
}

// Renew extends the lease to now+ttl. The content is replaced via a
// temp file and rename, so a concurrent reader sees either expiry. A
// lease whose on-disk token no longer matches (a stealer took over
// after our expiry) is lost: Renew refuses rather than clobbering the
// new holder's live claim.
func (l *Lease) Renew(ttl time.Duration) error {
	if !l.stillHeld() {
		return fmt.Errorf("store: renew %s: lease lost to another holder", l.path)
	}
	data, err := json.Marshal(leaseFile{
		Owner: l.owner, Token: l.token, ExpiresUnixNs: time.Now().Add(ttl).UnixNano(),
	})
	if err != nil {
		return fmt.Errorf("store: renew %s: %w", l.path, err)
	}
	if err := atomicWrite(l.path, data); err != nil {
		return fmt.Errorf("store: renew: %w", err)
	}
	return nil
}

// Release drops the claim. Best-effort and idempotent: if a stealer
// already holds the path (our lease expired mid-flight), their lease is
// left untouched.
func (l *Lease) Release() error {
	if !l.stillHeld() {
		return nil
	}
	if err := os.Remove(l.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: release %s: %w", l.path, err)
	}
	return nil
}

// stillHeld reports whether the on-disk lease still carries this
// acquisition's token. There is an unavoidable window between this read
// and the caller's write/remove; losing that race costs one duplicated
// (identical) computation, never a wrong result.
func (l *Lease) stillHeld() bool {
	data, err := os.ReadFile(l.path)
	if err != nil {
		return false
	}
	var lf leaseFile
	return json.Unmarshal(data, &lf) == nil && lf.Token == l.token
}

// LeaseHolder reports the live holder of a digest's lease, if any:
// a planner's peek, racy by nature.
func (s *Store) LeaseHolder(digest string) (owner string, held bool) {
	return leaseHolderAt(filepath.Join(s.dir, digest+leaseSuffix))
}

// leaseHolderAt reads a lease file directly; expired or unparseable
// leases report unheld.
func leaseHolderAt(path string) (string, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	var lf leaseFile
	if json.Unmarshal(data, &lf) != nil || time.Now().UnixNano() >= lf.ExpiresUnixNs {
		return "", false
	}
	return lf.Owner, true
}
