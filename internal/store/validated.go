package store

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"time"

	"golatest/internal/core"
)

// ValidatedBlob is the proof-carrying handoff between the layers that
// validate blob bytes and the layers that persist them. Its only
// constructors are the digest-checking parse paths (ValidateBlobBytes
// here, Store.GetValidated on the read side), so holding one is a
// type-level guarantee that the bytes inside have already cleared the
// full container/schema/digest validation — which is what lets
// Store.PutValidated write them to disk verbatim, with no second
// decode. The network client validates a wire body exactly once and
// hands the same proof to its local tier; the compiler, not a
// convention, enforces that no unvalidated bytes can take that road.
//
// A ValidatedBlob aliases the byte slice it was constructed over (for
// the client that slice is pooled body scratch), so the handoff is
// synchronous: persist or copy it before the caller recycles the
// buffer. It is immutable by convention — nothing may mutate data or
// the decoded result after construction.
type ValidatedBlob struct {
	digest   string
	profile  string
	instance int
	data     []byte
	rawBytes int64
	res      *core.Result
}

// ValidateBlobBytes parses and validates v3 container bytes against
// the digest they claim and returns the proof-carrying blob: the
// validated bytes plus the decoded result, from one parse. It is the
// constructor every storing path funnels through: the daemon's PUT
// handler, the client's response validation, the local-tier heal, and
// the pending-journal reconciler.
func ValidateBlobBytes(data []byte, digest string) (*ValidatedBlob, error) {
	h, res, err := parseBlob(data, digest)
	if err != nil {
		return nil, err
	}
	return newValidatedBlob(data, h, res), nil
}

func newValidatedBlob(data []byte, h blobHeader, res *core.Result) *ValidatedBlob {
	return &ValidatedBlob{
		digest:   h.Digest,
		profile:  h.Profile,
		instance: h.Instance,
		data:     data,
		rawBytes: h.BodySize,
		res:      res,
	}
}

// Key returns the content address recorded in the header.
func (vb *ValidatedBlob) Key() Key {
	return Key{Digest: vb.digest, Profile: vb.profile, Instance: vb.instance}
}

// Bytes returns the validated container bytes. They alias the slice
// the blob was constructed over; treat them as read-only and gone once
// the constructing caller returns.
func (vb *ValidatedBlob) Bytes() []byte { return vb.data }

// RawBytes returns the inflated v3 body size.
func (vb *ValidatedBlob) RawBytes() int64 { return vb.rawBytes }

// Result returns the campaign result decoded by the validating parse.
// Callers must not mutate it if the blob will still be persisted.
func (vb *ValidatedBlob) Result() *core.Result { return vb.res }

// PutValidated persists an already-validated blob: the bytes land on
// disk verbatim — the zero-extra-decode path wire bytes take into the
// local tier — through the same atomic rename as Put.
func (s *Store) PutValidated(vb *ValidatedBlob) error {
	if err := s.writeAtomic(vb.digest+".json", vb.data); err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// GetValidated returns the proof-carrying blob stored under digest, or
// (nil, false) on any kind of miss — the read-side constructor of
// ValidatedBlob and the read path under Get: validation, counters, LRU
// touch, and corrupt-blob healing. The returned bytes are the disk
// container, so a serving layer can pass them to a peer verbatim.
func (s *Store) GetValidated(digest string) (*ValidatedBlob, bool) {
	path, data, ok := s.readBlob(digest)
	if !ok {
		return nil, false
	}
	h, res, err := parseBlob(data, digest)
	if err != nil {
		s.reject(path, digest)
		return nil, false
	}
	s.hit(path)
	return newValidatedBlob(data, h, res), true
}

// readBlob reads the blob file under digest; a missing or unreadable
// file counts as a miss.
func (s *Store) readBlob(digest string) (path string, data []byte, ok bool) {
	path = filepath.Join(s.dir, digest+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		s.forget(digest)
		s.misses.Add(1)
		return "", nil, false
	}
	return path, data, true
}

// reject counts an invalid blob as a corrupt miss and removes it, so
// the corruption is visible for exactly one Get: the next Put writes a
// fresh blob. (If a concurrent writer renamed a good blob into place
// between the failed read and this remove, that blob is lost and
// recomputed — determinism makes the recompute identical.)
func (s *Store) reject(path, digest string) {
	s.corrupt.Add(1)
	s.misses.Add(1)
	s.forget(digest)
	os.Remove(path)
}

// hit counts a hit and advances the blob's LRU clock. Best-effort: a
// blob a peer evicted in the meantime just stays gone.
func (s *Store) hit(path string) {
	s.hits.Add(1)
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// The parsed memo lets GetRaw serve bytes without inflating them again.
// parseBlob is a pure function of (bytes, digest), so container bytes
// whose SHA-256 equals that of bytes which already passed it under the
// same digest pass it again; GetRaw skips only that parse. Any other
// bytes — a blob a peer rewrote, or one corrupted on disk — hash
// differently and take the full parse. An entry leaves when this handle
// finds its blob gone or invalid, or deletes it.

// parsedAs reports whether bytes with this SHA-256 have passed parseBlob
// under digest in this handle.
func (s *Store) parsedAs(digest string, sum [sha256.Size]byte) bool {
	s.parsedMu.Lock()
	defer s.parsedMu.Unlock()
	got, ok := s.parsed[digest]
	return ok && got == sum
}

// remember records that bytes with this SHA-256 passed parseBlob under
// digest.
func (s *Store) remember(digest string, sum [sha256.Size]byte) {
	s.parsedMu.Lock()
	defer s.parsedMu.Unlock()
	if s.parsed == nil {
		s.parsed = make(map[string][sha256.Size]byte)
	}
	s.parsed[digest] = sum
}

// forget drops digest's memo entry.
func (s *Store) forget(digest string) {
	s.parsedMu.Lock()
	defer s.parsedMu.Unlock()
	delete(s.parsed, digest)
}
