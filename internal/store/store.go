// Package store persists campaign results as content-addressed,
// versioned blobs — a compact binary body in a gzip container (v3) —
// so that repeated and incremental sweeps are near-free: a campaign
// whose inputs have not changed is read back from disk instead of
// being re-simulated.
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
//     campaign — see Config.CacheFingerprint),
//   - the store schema version (so a code change that alters blob
//     structure or meaning invalidates every older blob at once).
//
// Campaigns are deterministic given those inputs, which is what makes
// content addressing sound: equal key ⇒ equal result, so a hit can be
// substituted for a recompute without changing a single output byte.
//
// # Durability and tolerance
//
// A blob's body is built in pooled scratch, then gzipped straight into
// a temporary file in the store directory and atomically renamed into
// place, so a crash mid-write never leaves a half-written blob under a
// valid digest name. Reads are corruption
// tolerant: a blob that fails to parse, carries a broken compressed
// stream, carries the wrong schema version, or does not match its
// digest is treated as a miss — the stale blob is deleted on the spot,
// and the campaign is recomputed and rewritten — never as an error.
// The v3 container is the only format read or written; a blob in the
// plain-JSON or gzip-JSON containers of earlier releases is such an
// invalid blob. See codecv3.go for the container contract.
//
// # Coordination
//
// The store doubles as a coordination substrate for multiple processes
// sharing one directory. The directory is the index: a blob's file
// name is its digest, stat gives its size, its mtime is the LRU clock
// (set by the write and advanced by every read hit), and the v3 header
// names its profile, instance and body size. Every process
// sharing the directory therefore sees every other's writes at once,
// with no index file to merge or repair. Advisory shard leases
// (`<digest>.lease`, see lease.go) let cooperating sweeps partition
// work: claim before computing, wait on a live peer, steal from a dead
// one. GC (gc.go) bounds the store by size and idle age using that
// LRU clock.
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

	"golatest/internal/core"
	"golatest/internal/hwprofile"
)

// SchemaVersion is the blob schema version: the version of the v3 body
// layout (codecv3.go) and of the campaign semantics behind it. Bump it
// whenever a body field changes shape or meaning, or when a campaign
// code change makes previously-stored results non-reproducible; every
// blob written under an older version then misses (both through the
// key digest and the header check) and is recomputed. Reading the
// index from the directory instead of a manifest file beside it did
// not bump it.
//
// History: 1 is the original envelope. 2: the simulator elapses the
// warm-up iterations no sink reads in one normal draw per clock segment,
// so campaign results are equal in distribution but not in bits. 3: the
// body's size field records the inflated body's own length, not that of
// the canonical JSON envelope, which is no longer rendered. 4: phase 3
// folds each block's confirmation tail into one draw per clock segment
// (exact n and duration sum, a drawn sum of squares), so campaign
// results are again equal in distribution but not in bits. 5: phase 3
// elapses, undelivered, the clock segments whose iterations cannot
// reach the detection band, and the warm-up check folds its tail
// window, so detection, t_e and the warm-up verdict are equal in
// distribution, not in bits. 6: every pair is measured on a replica
// that keeps the per-SM speeds of the chip phase 1 characterised; a
// replica used to draw its own from the pair's seed, so phase 3 ran on
// hardware phase 1 never saw. 7: phase 1's unread warm kernels only
// elapse, iterations no sink reads inside a wake window elapse in one
// draw per chunk, and a folded chunk's moments take φⁿ⁻¹ from one Exp,
// so results are equal in distribution, not in bits; and the phase-1
// normality flag judges a population against the timer-quantised
// normal, not a continuous one, so a clean clock is no longer flagged.
// 8: before a block detects, phase 3 delivers from a heard segment only
// the iterations whose jitter could reach the band, the rest elapsing in
// one draw per run of them, and the warm-up check's folds draw no Σd²,
// so results are equal in distribution, not in bits. 9: the body stores
// each measurement once, as the integers the simulator produced
// (byte-shuffled columns of t_s deltas, t_e − t_s, injected ns, SM,
// transition index and sync spread), and rebuilds the floats that derive
// from them (latencies, samples, injected latencies, the kept/outlier
// partition) bit for bit; results are unchanged. 10: phase 1 no longer
// computes or stores its normality flag (FreqStats.Normalish, read by no
// code), and the body drops its per-pair flags byte and the explicit
// layout of fields that do not derive: the encoder refuses such a
// result instead. Every other field is unchanged.
const SchemaVersion = 10

// tmpPrefix marks staging files; the leading dot keeps them out of every
// blob scan.
const tmpPrefix = ".tmp-"

// Key is the content address of one campaign result.
type Key struct {
	// Digest is the hex SHA-256 of the canonical key material.
	Digest string
	// Profile and Instance echo the hardware identity for the index and
	// logs; they are inputs to the digest, not extra key dimensions.
	Profile  string
	Instance int
}

func (k Key) String() string { return fmt.Sprintf("%s/%d@%.12s", k.Profile, k.Instance, k.Digest) }

func (k Key) blobName() string { return k.Digest + ".json" }

// KeyFor derives the content address of a campaign from its inputs. The
// digest covers the schema version, so schema bumps invalidate the whole
// key space rather than relying on the header check alone. A profile
// key longer than maxProfileKey bytes has no address.
func KeyFor(profileKey string, instance int, deviceSeed uint64, cfg core.Config) (Key, error) {
	if len(profileKey) > maxProfileKey {
		return Key{}, fmt.Errorf("store: profile key of %d bytes exceeds %d", len(profileKey), maxProfileKey)
	}
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
	// Bytes is the on-disk (compressed) blob size; GC's size bound sums
	// it.
	Bytes int64 `json:"bytes,omitempty"`
	// RawBytes is the inflated v3 body size, from the header; with
	// Bytes it yields the store's compression ratio for stats without
	// decoding a single blob.
	RawBytes int64 `json:"raw_bytes,omitempty"`
	// AccessUnixNs is the LRU clock: advanced by Put and by every Get
	// hit, consulted by GC's age bound and eviction order.
	AccessUnixNs int64 `json:"access_ns,omitempty"`
}

// Store is a directory of campaign blobs, and the directory is its
// index. All methods are safe for concurrent use by multiple
// goroutines of one process, and the on-disk layout is safe for
// multiple processes sharing the directory: blob writes are atomic
// renames of identical bytes (same key ⇒ same result), and every
// handle lists the same files, so a peer's write is visible to every
// handle the moment its rename lands.
type Store struct {
	dir string

	hits, misses, corrupt, puts atomic.Int64

	// parsed maps a digest to the SHA-256 of the container bytes that
	// last passed parseBlob under it here (see parsedAs).
	parsedMu sync.Mutex
	parsed   map[string][sha256.Size]byte
}

// Open creates the directory if needed and returns a handle on it.
// There is no index to load: Index reads the directory on every call.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
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
// convenience; only Get vouches for the blob's integrity.
func (s *Store) Has(k Key) bool {
	_, err := os.Stat(filepath.Join(s.dir, k.blobName()))
	return err == nil
}

// Get returns the stored campaign for the key, or (nil, false) on any
// kind of miss: no blob, a blob that is not the v3 container, a broken
// compressed stream, schema mismatch, or digest mismatch. Invalid blobs
// are never fatal — the stale blob is deleted immediately (so Index
// and Len never report a key that cannot be read), and the caller
// recomputes and Puts. A hit advances the blob's LRU clock for GC.
func (s *Store) Get(k Key) (*core.Result, bool) {
	vb, ok := s.GetValidated(k.Digest)
	if !ok {
		return nil, false
	}
	return vb.Result(), true
}

// GetRaw returns the validated raw container bytes of the blob stored
// under digest — the network daemon's read path: the blob is shipped
// verbatim (no decompress/recompress, no decode/re-encode round trip
// on the wire), while the validation, traffic counters, LRU touch, and
// corrupt-blob healing all match Get. Bytes equal to ones this handle
// has already validated under digest (by an earlier GetRaw or PutRaw,
// see parsedAs) are served without a second parse, so a daemon inflates
// each blob it serves once, not once per request. Callers that also
// want the decoded result or the header identity should use
// GetValidated.
func (s *Store) GetRaw(digest string) ([]byte, bool) {
	path, data, ok := s.readBlob(digest)
	if !ok {
		return nil, false
	}
	sum := sha256.Sum256(data)
	if !s.parsedAs(digest, sum) {
		if _, _, err := parseBlob(data, digest); err != nil {
			s.reject(path, digest)
			return nil, false
		}
		s.remember(digest, sum)
	}
	s.hit(path)
	return data, true
}

// PutRaw stores pre-encoded blob container bytes under digest — the
// write path for callers holding bytes of unproven provenance. The
// bytes are validated first (v3 magic, gzip integrity, binary-body
// parse, schema, digest match; failures wrap ErrInvalidBlob), so a
// caller can never plant a blob Get would reject, then handed to
// PutValidated, which lands them verbatim — the raw passthrough that
// makes a remote Put → remote Get cycle copy the container end to end —
// and remembered, so GetRaw serves them without parsing them again.
// Callers that already hold a ValidatedBlob should call PutValidated
// directly and skip the re-parse.
func (s *Store) PutRaw(digest string, data []byte) error {
	vb, err := ValidateBlobBytes(data, digest)
	if err != nil {
		return err
	}
	if err := s.PutValidated(vb); err != nil {
		return err
	}
	s.remember(digest, sha256.Sum256(data))
	return nil
}

// Put stores the campaign under the key, atomically: the v3 body is
// built in pooled scratch and gzipped through a pooled writer straight
// into a temporary file that is renamed into place, so concurrent
// readers see either the old blob or the new one, never a torn write.
// A result the encoder refuses — past the decode bound among others,
// since what Put writes Get must be able to read — is refused before
// the staging file exists. The fresh file's mtime starts its LRU
// clock; no index is written.
func (s *Store) Put(k Key, res *core.Result) error {
	e, err := encodeBody(k, res)
	if err != nil {
		return err
	}
	defer putEncoder(e)
	err = s.writeAtomicStream(k.blobName(), func(w io.Writer) error { return writeV3(w, e.buf) })
	if err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// blobFile reports whether a directory entry is a blob file: a regular
// file named `*.json` without a leading dot. Staging files, leases and
// subdirectories (a network client's pending/ journal) are not.
func blobFile(de os.DirEntry) bool {
	name := de.Name()
	return de.Type().IsRegular() && strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, ".")
}

// Index lists the directory's readable blobs sorted by (profile,
// instance, digest). Size and LRU clock come from stat; digest,
// profile, instance, schema and body size from the blob's v3 header,
// read by inflating only the file's first KiB rather than a full
// parse. A file whose header does not read, carries another
// schema, or names another digest is left out; Get would reject it
// anyway.
func (s *Store) Index() []ManifestEntry {
	des, _ := os.ReadDir(s.dir)
	out := make([]ManifestEntry, 0, len(des))
	for _, de := range des {
		if !blobFile(de) {
			continue
		}
		if e, ok := s.indexEntry(de.Name()); ok {
			out = append(out, e)
		}
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

// indexEntry describes one blob file from its stat and v3 header.
func (s *Store) indexEntry(name string) (ManifestEntry, bool) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return ManifestEntry{}, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return ManifestEntry{}, false
	}
	h, err := readV3Header(f)
	if err != nil || h.Schema != SchemaVersion || h.Digest+".json" != name {
		return ManifestEntry{}, false
	}
	return ManifestEntry{
		Digest:       h.Digest,
		Profile:      h.Profile,
		Instance:     h.Instance,
		Schema:       h.Schema,
		Bytes:        fi.Size(),
		RawBytes:     h.BodySize,
		AccessUnixNs: fi.ModTime().UnixNano(),
	}, true
}

// Len returns the number of indexed blobs.
func (s *Store) Len() int { return len(s.Index()) }

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
// uses to gzip a body without holding the container in memory.
func (s *Store) writeAtomicStream(name string, fill func(io.Writer) error) error {
	return atomicWriteStream(filepath.Join(s.dir, name), fill)
}

// atomicWrite stages data next to dst and renames it into place.
// Shared by lease renewal and PutValidated.
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
