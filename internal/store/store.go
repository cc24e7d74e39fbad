// Package store persists campaign results as content-addressed,
// versioned blobs — a canonical JSON envelope contract carried in a
// compact binary v3 container — so that repeated and incremental
// sweeps are near-free: a
// campaign whose inputs have not changed is read back from disk
// instead of being re-simulated, at a fraction of its JSON size.
//
// # Addressing
//
// A campaign is identified by a Key whose digest is the SHA-256 of the
// canonical encoding of everything its result is a deterministic
// function of:
//
//   - the hardware profile key and unit instance (which select the
//     calibrated architecture model),
//   - the device seed (which fixes the simulator's entire random future),
//   - the canonicalized core.Config (every knob that shapes the
//     campaign; Parallelism is excluded because results are bit-for-bit
//     identical at every parallelism level — see Config.CacheFingerprint),
//   - the store schema version (so a code change that alters blob
//     structure or meaning invalidates every older blob at once).
//
// Campaigns are deterministic given those inputs, which is what makes
// content addressing sound: equal key ⇒ equal result, so a hit can be
// substituted for a recompute without changing a single output byte.
//
// # Durability and tolerance
//
// Blobs are streamed (encode → gzip → staging file, no full-buffer
// materialisation) to a temporary file in the store directory and
// atomically renamed into place, so a crash mid-write never leaves a
// half-written blob under a valid digest name. Reads are corruption
// tolerant: a blob that fails to parse, carries a broken compressed
// stream, carries the wrong schema version, or does not match its
// digest is treated as a miss — the stale blob is deleted and its
// index entry tombstoned on the spot, and the campaign is recomputed
// and rewritten — never as an error. The v3 container is the only
// format read or written; a blob in the plain-JSON or gzip-JSON
// containers of earlier releases is such an invalid blob. See
// codecv3.go for the container contract.
//
// # Coordination
//
// The store doubles as a coordination substrate for multiple processes
// sharing one directory. The index is an append-only journal
// (manifest.log) compacted into a manifest.json snapshot — see
// journal.go — so concurrent writers interleave records instead of
// overwriting each other's index. Advisory shard leases
// (`<digest>.lease`, see lease.go) let cooperating sweeps partition
// work: claim before computing, wait on a live peer, steal from a dead
// one. GC (gc.go) bounds the store by size and idle age using the LRU
// clock that Get maintains. A missing or corrupt index is always
// recoverable by scanning the blobs.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
)

// SchemaVersion is the blob schema version: the version of the
// canonical envelope (the stored* types in codec.go) and of the
// campaign semantics behind it. Bump it whenever those types change
// shape or meaning, or when a campaign code change makes
// previously-stored results non-reproducible; every blob written under
// an older version then misses (both through the key digest and the
// envelope check) and is recomputed. Container-level changes do NOT
// bump it: the manifest journal (index-only metadata) and the binary
// v3 container (the same canonical contract in a new carrier — see
// codecv3.go) both left it at 1.
const SchemaVersion = 1

// manifestName is the index snapshot; it is not a blob.
const manifestName = "manifest.json"

// tmpPrefix marks staging files; the leading dot keeps them out of every
// blob scan.
const tmpPrefix = ".tmp-"

// Key is the content address of one campaign result.
type Key struct {
	// Digest is the hex SHA-256 of the canonical key material.
	Digest string
	// Profile and Instance echo the hardware identity for manifests and
	// logs; they are inputs to the digest, not extra key dimensions.
	Profile  string
	Instance int
}

func (k Key) String() string { return fmt.Sprintf("%s/%d@%.12s", k.Profile, k.Instance, k.Digest) }

func (k Key) blobName() string { return k.Digest + ".json" }

// KeyFor derives the content address of a campaign from its inputs. The
// digest covers the schema version, so schema bumps invalidate the whole
// key space rather than relying on the envelope check alone.
func KeyFor(profileKey string, instance int, deviceSeed uint64, cfg core.Config) (Key, error) {
	fp, err := cfg.CacheFingerprint()
	if err != nil {
		return Key{}, fmt.Errorf("store: fingerprint config: %w", err)
	}
	material, err := json.Marshal(struct {
		Schema     int             `json:"schema"`
		Profile    string          `json:"profile"`
		Instance   int             `json:"instance"`
		DeviceSeed uint64          `json:"device_seed"`
		Config     json.RawMessage `json:"config"`
	}{SchemaVersion, profileKey, instance, deviceSeed, fp})
	if err != nil {
		return Key{}, fmt.Errorf("store: key material: %w", err)
	}
	sum := sha256.Sum256(material)
	return Key{Digest: hex.EncodeToString(sum[:]), Profile: profileKey, Instance: instance}, nil
}

// ProfileKey derives the content address of the campaign that cfg would
// run on profile p.
func ProfileKey(p hwprofile.Profile, cfg core.Config) (Key, error) {
	return KeyFor(p.Key, p.Instance, p.Config.Seed, cfg)
}

// Counters reports store traffic. Hits and Misses partition Get calls;
// Corrupt counts the subset of misses caused by an unreadable or invalid
// blob; Puts counts successful writes.
type Counters struct {
	Hits    int64
	Misses  int64
	Corrupt int64
	Puts    int64
}

// ManifestEntry describes one blob in the index.
type ManifestEntry struct {
	Digest   string `json:"digest"`
	Profile  string `json:"profile"`
	Instance int    `json:"instance"`
	Schema   int    `json:"schema"`
	// Bytes is the on-disk (compressed) blob size, recorded at Put;
	// GC's size bound sums it.
	Bytes int64 `json:"bytes,omitempty"`
	// RawBytes is the canonical (uncompressed) envelope size; with
	// Bytes it yields the store's compression ratio for stats without
	// touching a single blob.
	RawBytes int64 `json:"raw_bytes,omitempty"`
	// AccessUnixNs is the LRU clock: advanced by Put and by every Get
	// hit, consulted by GC's age bound and eviction order.
	AccessUnixNs int64 `json:"access_ns,omitempty"`
}

// Store is a directory of campaign blobs plus a journaled index. All
// methods are safe for concurrent use by multiple goroutines of one
// process, and the on-disk formats are safe for multiple processes
// sharing the directory: blob writes are atomic renames of identical
// bytes (same key ⇒ same result), index mutations append to the journal
// (no lost updates), and compaction is serialized by an advisory lock.
// Each handle's in-memory index converges with its peers' at every
// compaction and on reopen.
type Store struct {
	dir string
	// id identifies this handle as a lease owner for internal locks.
	id string

	mu           sync.Mutex // guards manifest map, journal fd, snapshot writes
	manifest     map[string]ManifestEntry
	journal      *os.File // live manifest.log, opened O_APPEND on first use
	journalBytes int64    // live log size, drives threshold compaction

	hits, misses, corrupt, puts atomic.Int64
}

// Open creates the directory if needed and loads the index: snapshot
// plus journal replay, rebuilding from the blobs when the index is
// missing or corrupt, then compacts any outstanding journal so this
// handle starts from a clean snapshot.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, id: newHandleID(), manifest: make(map[string]ManifestEntry)}
	s.mu.Lock()
	defer s.mu.Unlock()

	absent, snapErr := s.loadSnapshotLocked()
	replayed := replayJournal(filepath.Join(dir, journalOldName), s.manifest)
	replayed += replayJournal(filepath.Join(dir, journalName), s.manifest)
	switch {
	case snapErr != nil,
		absent && replayed == 0 && s.countBlobs() > 0:
		// Corrupt snapshot, or blobs with no index at all: the blobs are
		// the ground truth; scan them and discard the stale journal.
		if err := s.rebuildManifestLocked(); err != nil {
			return nil, err
		}
	case replayed > 0:
		// Fold the journal into the snapshot so the next Open replays
		// nothing. Best-effort: a peer holding the compaction lock just
		// means they are folding the same records.
		_ = s.compactLocked()
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Location implements Backend: a filesystem store is located at its
// directory.
func (s *Store) Location() string { return s.dir }

// Ready probes whether the store can currently accept writes: the
// directory exists and a staging file can be created in it — the same
// operation every Put begins with. It is the readiness half of a
// daemon's health contract (storenet's /readyz); liveness needs no
// store at all.
func (s *Store) Ready() error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"ready-")
	if err != nil {
		return fmt.Errorf("store: %s not writable: %w", s.dir, err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// Counters returns a snapshot of the traffic counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Puts:    s.puts.Load(),
	}
}

// Has reports whether a blob exists for the key, without reading or
// validating it and without touching the hit/miss counters. A planner's
// convenience; only Get vouches for the blob's integrity. A reserved
// digest never has a blob, even though a file by that name exists.
func (s *Store) Has(k Key) bool {
	if reservedDigest(k.Digest) {
		return false
	}
	_, err := os.Stat(filepath.Join(s.dir, k.blobName()))
	return err == nil
}

// Get returns the stored campaign for the key, or (nil, false) on any
// kind of miss: no blob, a blob that is not the v3 container, a broken
// compressed stream, schema mismatch, or digest mismatch. Invalid blobs
// are never fatal — the stale blob is deleted and its index entry
// tombstoned immediately (so Index and Len never report a key that
// cannot be read), and the caller recomputes and Puts. A hit advances
// the entry's LRU clock for GC.
func (s *Store) Get(k Key) (*core.Result, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, k.blobName()))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	b, rawN, err := parseBlob(data, k.Digest)
	if err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.healCorrupt(k)
		return nil, false
	}
	s.hits.Add(1)
	s.touch(k, int64(len(data)), rawN)
	return decodeResult(b.Result), true
}

// reservedDigest reports a digest whose blob filename would collide
// with the store's own index snapshot. Such a digest can never address
// a blob; treating it as ordinary input would let a network client read
// — or, via the corrupt-blob healing path, delete — manifest.json.
func reservedDigest(digest string) bool { return digest+".json" == manifestName }

// GetRaw returns the validated raw container bytes of the blob stored
// under digest — the network daemon's read path: the blob is shipped
// verbatim (no decompress/recompress, no decode/re-encode round trip
// on the wire), while the validation, traffic counters, LRU touch, and
// corrupt-blob healing all match Get. The touch indexes under the
// profile/instance recorded in the blob envelope, so a served blob is
// fully described in the index even when this handle never saw its
// Put. Callers that also want the decoded result or the envelope
// identity should use GetValidated, which this wraps.
func (s *Store) GetRaw(digest string) ([]byte, bool) {
	vb, ok := s.GetValidated(digest)
	if !ok {
		return nil, false
	}
	return vb.Bytes(), true
}

// PutRaw stores pre-encoded blob container bytes under digest — the
// write path for callers holding bytes of unproven provenance. The
// bytes are validated first (v3 magic, gzip integrity, binary-body
// parse, schema, digest match; failures wrap ErrInvalidBlob), so a
// caller can never plant a blob Get would reject, then handed to
// PutValidated, which lands them verbatim — the raw passthrough that
// makes a remote Put → remote Get cycle copy the container end to end.
// Callers that already hold a ValidatedBlob should call PutValidated
// directly and skip the re-parse.
func (s *Store) PutRaw(digest string, data []byte) error {
	vb, err := ValidateBlobBytes(data, digest)
	if err != nil {
		return err
	}
	return s.PutValidated(vb)
}

// healCorrupt removes an unreadable blob and tombstones its index entry,
// so the corruption is visible for exactly one Get: the next Put writes
// a fresh blob and a fresh entry. (If a concurrent writer renamed a good
// blob into place between our failed read and this remove, that blob is
// lost and recomputed — determinism makes the recompute identical.)
func (s *Store) healCorrupt(k Key) {
	os.Remove(filepath.Join(s.dir, k.blobName()))
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.manifest, k.Digest)
	_ = s.appendJournalLocked(journalRecord{Op: opDel, Digest: k.Digest})
}

// touch advances the key's LRU clock, indexing the blob on the fly if
// this handle had no entry for it (e.g. a peer's write this handle has
// not folded yet). A size change — the recorded sizes were stale or
// missing — is journaled as a full upsert rather than a bare touch, so
// the durable index carries the new sizes across restarts (opTouch
// records only the access clock).
func (s *Store) touch(k Key, size, rawSize int64) {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.manifest[k.Digest]
	if !ok {
		e = ManifestEntry{Digest: k.Digest, Profile: k.Profile, Instance: k.Instance, Schema: SchemaVersion}
	}
	resized := e.Bytes != size || e.RawBytes != rawSize
	e.Bytes = size
	e.RawBytes = rawSize
	e.AccessUnixNs = now
	s.manifest[k.Digest] = e
	rec := journalRecord{Op: opTouch, Digest: k.Digest, AccessUnixNs: now}
	if !ok || resized {
		rec = journalRecord{Op: opPut, Entry: &e}
	}
	_ = s.appendJournalLocked(rec)
	s.maybeCompactLocked()
}

// Put stores the campaign under the key, atomically: the v3 encoding
// flows through pooled scratch and a pooled gzip writer straight into
// a temporary file that is renamed into place, so concurrent readers
// see either the old blob or the new one, never a torn write, and
// neither the canonical bytes nor the container are ever materialised
// in memory (the canonical form exists only as a counting render that
// sizes RawBytes). The index update is one O(1) journal append
// regardless of store size.
func (s *Store) Put(k Key, res *core.Result) error {
	if res == nil {
		return fmt.Errorf("store: nil result for %s", k)
	}
	var size, rawN int64
	err := s.writeAtomicStream(k.blobName(), func(w io.Writer) error {
		cw := &countingWriter{w: w}
		n, err := encodeBlobV3To(cw, k, res)
		size, rawN = cw.n, n
		if err == nil && rawN > maxCanonicalBytes {
			// What Put writes, Get must be able to read: past the
			// decode rail every Get would classify the blob corrupt and
			// delete it — a silent recompute/delete loop. Refuse here
			// instead (the staging file is discarded, nothing lands).
			err = fmt.Errorf("store: %s: canonical size %d exceeds the %d-byte decode bound",
				k, rawN, maxCanonicalBytes)
		}
		return err
	})
	if err != nil {
		return err
	}
	s.puts.Add(1)
	return s.recordPut(k, size, rawN)
}

// recordPut indexes a freshly written blob: upsert the manifest entry,
// journal it, and compact if the log outgrew its threshold.
func (s *Store) recordPut(k Key, size, rawSize int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := ManifestEntry{
		Digest:       k.Digest,
		Profile:      k.Profile,
		Instance:     k.Instance,
		Schema:       SchemaVersion,
		Bytes:        size,
		RawBytes:     rawSize,
		AccessUnixNs: time.Now().UnixNano(),
	}
	s.manifest[k.Digest] = e
	if err := s.appendJournalLocked(journalRecord{Op: opPut, Entry: &e}); err != nil {
		return err
	}
	s.maybeCompactLocked()
	return nil
}

// Index returns the manifest entries sorted by (profile, instance,
// digest).
func (s *Store) Index() []ManifestEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ManifestEntry, 0, len(s.manifest))
	for _, e := range s.manifest {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Profile != out[j].Profile {
			return out[i].Profile < out[j].Profile
		}
		if out[i].Instance != out[j].Instance {
			return out[i].Instance < out[j].Instance
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// Len returns the number of indexed blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.manifest)
}

// Test hooks: the writeAtomic failure paths (full disk, unwritable
// directory) are injected here because they are otherwise unreachable in
// a tempdir test.
var (
	stageWrite = func(f *os.File, data []byte) (int, error) { return f.Write(data) }
	commitFile = os.Rename
)

// writeAtomic stages data in a temp file in the store directory (same
// filesystem, so the rename is atomic) and renames it over name.
func (s *Store) writeAtomic(name string, data []byte) error {
	return atomicWrite(filepath.Join(s.dir, name), data)
}

// writeAtomicStream is writeAtomic for producers that stream: fill
// writes straight into the staging file (through the same injectable
// stage-write hook), which is then renamed into place — the path Put
// uses to compress-encode a blob without ever holding it in memory.
func (s *Store) writeAtomicStream(name string, fill func(io.Writer) error) error {
	return atomicWriteStream(filepath.Join(s.dir, name), fill)
}

// atomicWrite stages data next to dst and renames it into place.
// Shared by snapshot writes, lease renewal, and PutValidated.
func atomicWrite(dst string, data []byte) error {
	return atomicWriteStream(dst, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// stagingFile routes a staging file's writes through the injectable
// stageWrite hook, so streaming producers hit the same simulated
// failure paths (full disk, unwritable directory) as buffered ones.
type stagingFile struct{ f *os.File }

func (w stagingFile) Write(p []byte) (int, error) { return stageWrite(w.f, p) }

// atomicWriteStream stages fill's output next to dst and renames it
// into place. Every failure path removes the staging file: a failed
// write must not litter the directory with orphans.
func atomicWriteStream(dst string, fill func(io.Writer) error) error {
	dir, base := filepath.Split(dst)
	tmp, err := os.CreateTemp(dir, tmpPrefix+base+"-*")
	if err != nil {
		return fmt.Errorf("store: stage %s: %w", base, err)
	}
	if err := fill(stagingFile{f: tmp}); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: stage %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: stage %s: %w", base, err)
	}
	if err := commitFile(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: commit %s: %w", base, err)
	}
	return nil
}

type manifestFile struct {
	Schema  int             `json:"schema"`
	Entries []ManifestEntry `json:"entries"`
}

// loadSnapshotLocked reads manifest.json into the index. absent reports
// a cleanly missing snapshot (not an error: the journal or an empty
// store may carry the state); err reports an unreadable or alien
// snapshot, which callers resolve by rebuilding from the blobs.
func (s *Store) loadSnapshotLocked() (absent bool, err error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil
		}
		return false, fmt.Errorf("store: manifest: %w", err)
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		return false, fmt.Errorf("store: manifest: %w", err)
	}
	if m.Schema != SchemaVersion {
		return false, fmt.Errorf("store: manifest schema %d, want %d", m.Schema, SchemaVersion)
	}
	for _, e := range m.Entries {
		s.manifest[e.Digest] = e
	}
	return false, nil
}

// rebuildManifestLocked recreates the index by reading every blob
// envelope in the directory — the blobs are the ground truth the index
// merely accelerates. Blobs that do not parse are skipped (they will
// miss and be rewritten on their next Get/Put cycle). The journal is
// discarded: whatever it said is superseded by the scan.
func (s *Store) rebuildManifestLocked() error {
	s.manifest = make(map[string]ManifestEntry)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: rebuild manifest: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || name == manifestName || !strings.HasSuffix(name, ".json") ||
			strings.HasPrefix(name, ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		b, rawN, err := parseBlob(data, strings.TrimSuffix(name, ".json"))
		if err != nil {
			continue
		}
		e := ManifestEntry{
			Digest:   b.Digest,
			Profile:  b.Profile,
			Instance: b.Instance,
			Schema:   b.Schema,
			Bytes:    int64(len(data)),
			RawBytes: rawN,
		}
		if fi, err := de.Info(); err == nil {
			e.AccessUnixNs = fi.ModTime().UnixNano()
		}
		s.manifest[b.Digest] = e
	}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.journalBytes = 0
	os.Remove(filepath.Join(s.dir, journalName))
	os.Remove(filepath.Join(s.dir, journalOldName))
	return s.writeSnapshotLocked()
}

func (s *Store) countBlobs() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range entries {
		name := de.Name()
		if !de.IsDir() && name != manifestName && strings.HasSuffix(name, ".json") &&
			!strings.HasPrefix(name, ".") {
			n++
		}
	}
	return n
}
