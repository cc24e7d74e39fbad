package store

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/stats"
)

func testConfig() core.Config {
	return core.Config{
		Frequencies:      []float64{705, 885, 1410},
		Blocks:           3,
		MinMeasurements:  12,
		MaxMeasurements:  24,
		MaxLatencyHintNs: 120_000_000,
		Seed:             17,
	}
}

// testResult exercises every stored field, including the values plain
// JSON cannot carry (NaN, ±Inf) and the float64-keyed phase-1 map.
func testResult() *core.Result {
	return &core.Result{
		DeviceName:    "A100-SXM4[0]",
		Architecture:  "Ampere",
		CaptureHintNs: 120_000_000,
		Phase1: &core.Phase1Result{
			Stats: map[float64]core.FreqStats{
				705:  {FreqMHz: 705, Iter: stats.MeanStd{N: 300, Mean: 0.2130001, Std: 0.001}, Normalish: true},
				885:  {FreqMHz: 885, Iter: stats.MeanStd{N: 300, Mean: 0.1700002, Std: 0.0012}},
				1410: {FreqMHz: 1410, Iter: stats.MeanStd{N: 300, Mean: 0.1064003, Std: 0.0007}, Normalish: true},
			},
			ValidPairs: []core.Pair{{InitMHz: 705, TargetMHz: 1410}, {InitMHz: 1410, TargetMHz: 705}},
			Excluded:   []core.Pair{{InitMHz: 705, TargetMHz: 885}},
			Unstable:   []float64{885},
		},
		Pairs: []*core.PairResult{
			{
				Pair: core.Pair{InitMHz: 705, TargetMHz: 1410},
				Measurements: []core.Measurement{{
					Pair:            core.Pair{InitMHz: 705, TargetMHz: 1410},
					LatencyMs:       13.12345678901234,
					TsDevNs:         1_000_000_001,
					TeDevNs:         1_013_123_457,
					SM:              2,
					TransitionIndex: 87,
					InjectedMs:      math.NaN(), // unattributed injection
					SyncSpreadNs:    412,
				}},
				Samples:  []float64{13.12345678901234},
				Injected: []float64{math.NaN()},
				Attempts: 3, Failures: 2,
				Kept:     []float64{13.12345678901234},
				Outliers: []float64{},
				Clusters: &cluster.Result{Labels: []int{0}, NumClusters: 1, Eps: 0.42, MinPts: 4},
				Summary:  stats.Summarize([]float64{13.12345678901234}),
				FinalRSE: 0.031,
			},
			{
				Pair:       core.Pair{InitMHz: 1410, TargetMHz: 705},
				Skipped:    true,
				SkipReason: "power throttling",
				Summary:    stats.Summarize(nil), // all-NaN summary
				FinalRSE:   math.Inf(1),
			},
		},
	}
}

func TestKeyDigest(t *testing.T) {
	cfg := testConfig()
	k1, err := KeyFor("a100", 0, 42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(k1.Digest) != 64 {
		t.Fatalf("digest %q is not hex sha256", k1.Digest)
	}
	k2, err := KeyFor("a100", 0, 42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1.Digest != k2.Digest {
		t.Fatal("same inputs produced different digests")
	}

	// Changing any input must change it.
	variants := []struct {
		name string
		key  func() (Key, error)
	}{
		{"profile", func() (Key, error) { return KeyFor("gh200", 0, 42, cfg) }},
		{"instance", func() (Key, error) { return KeyFor("a100", 1, 42, cfg) }},
		{"device seed", func() (Key, error) { return KeyFor("a100", 0, 43, cfg) }},
		{"config", func() (Key, error) {
			c := cfg
			c.Blocks = 4
			return KeyFor("a100", 0, 42, c)
		}},
		{"host seed", func() (Key, error) {
			c := cfg
			c.Seed = 18
			return KeyFor("a100", 0, 42, c)
		}},
	}
	for _, v := range variants {
		k, err := v.key()
		if err != nil {
			t.Fatal(err)
		}
		if k.Digest == k1.Digest {
			t.Errorf("changing %s did not change the digest", v.name)
		}
	}
}

func TestProfileKeyUsesDeviceSeed(t *testing.T) {
	cfg := testConfig()
	k0, err := ProfileKey(hwprofile.A100Instance(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := ProfileKey(hwprofile.A100Instance(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k0.Digest == k1.Digest {
		t.Fatal("distinct A100 units share a digest")
	}
	if k0.Profile != "a100" || k0.Instance != 0 || k1.Instance != 1 {
		t.Fatalf("key identity wrong: %v %v", k0, k1)
	}
}

// TestRoundTripExact verifies that a stored blob reproduces the result
// bit for bit: decode(encode(res)) re-encodes to identical bytes, and
// the non-finite floats survive.
func TestRoundTripExact(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, err := KeyFor("a100", 0, 42, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := testResult()
	if err := s.Put(k, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("Get missed a just-Put key")
	}

	enc1, err := EncodeBlobV3(k, res)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeBlobV3(k, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("round-tripped result re-encodes differently")
	}
	if got.DeviceName != res.DeviceName || got.CaptureHintNs != res.CaptureHintNs {
		t.Fatalf("identity fields lost: %+v", got)
	}
	if !math.IsNaN(got.Pairs[0].Measurements[0].InjectedMs) {
		t.Fatal("NaN InjectedMs did not survive")
	}
	if !math.IsInf(got.Pairs[1].FinalRSE, 1) {
		t.Fatal("+Inf FinalRSE did not survive")
	}
	if !math.IsNaN(got.Pairs[1].Summary.Mean) {
		t.Fatal("NaN summary did not survive")
	}
	fs, ok := got.Phase1.Stats[885]
	if !ok || fs.Iter.Mean != 0.1700002 || fs.Normalish {
		t.Fatalf("phase-1 map lost: %+v", got.Phase1.Stats)
	}
	if got.Pairs[0].Samples[0] != res.Pairs[0].Samples[0] {
		t.Fatal("sample not bit-identical")
	}
	if got.Pairs[0].Clusters.NoiseCount() != 0 || got.Pairs[0].Clusters.ClusterSizes()[0] != 1 {
		t.Fatal("cluster accessors broken after decode")
	}

	c := s.Counters()
	if c.Hits != 1 || c.Misses != 0 || c.Puts != 1 || c.Corrupt != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestGetMissAndCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, err := KeyFor("a100", 0, 42, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store hit")
	}

	// A truncated/garbage blob must read as a miss, not an error.
	if err := os.WriteFile(filepath.Join(dir, k.blobName()), []byte(`{"schema":1,"res`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt blob hit")
	}

	// A wrong-schema blob must read as a miss.
	if err := os.WriteFile(filepath.Join(dir, k.blobName()),
		[]byte(`{"schema":999,"digest":"`+k.Digest+`","result":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("wrong-schema blob hit")
	}

	// Recompute-and-Put must heal the entry.
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("healed blob missed")
	}
	c := s.Counters()
	if c.Misses != 3 || c.Corrupt != 2 || c.Hits != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestManifestPersistsAndRebuilds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	k0, _ := KeyFor("a100", 0, 42, cfg)
	k1, _ := KeyFor("a100", 1, 43, cfg)
	for _, k := range []Key{k0, k1} {
		if err := s.Put(k, testResult()); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen: the blobs themselves carry the index.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	idx := s2.Index()
	if idx[0].Instance != 0 || idx[1].Instance != 1 {
		t.Fatalf("index order: %+v", idx)
	}
}

// TestStoreWritesNoIndexFiles: the directory is the index, so no
// operation leaves a manifest snapshot, journal or compaction lock
// beside the blobs.
func TestStoreWritesNoIndexFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := putN(t, s, 3)
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("miss on stored key")
	}
	if _, err := s.GC(GCPolicy{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keys[1], testResult()); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	for _, name := range []string{"manifest.json", "manifest.log", "manifest.log.old", "manifest.lock"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s exists (err=%v); the store keeps no index file", name, err)
		}
	}
}

// TestManifestMergesAcrossWriters: two Store handles on one directory
// (the cross-process shape) see each other's writes at once — Has, Len
// and Index of a live handle agree about a peer's Put the moment it
// returns, with the peer's identity and sizes.
func TestManifestMergesAcrossWriters(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	kb, _ := KeyFor("rtx6000", 3, 43, cfg)
	if err := b.Put(kb, testResult()); err != nil {
		t.Fatal(err)
	}
	if !a.Has(kb) {
		t.Fatal("a.Has missed b's blob")
	}
	if a.Len() != 1 {
		t.Fatalf("a.Len() = %d after b's Put, want 1", a.Len())
	}
	fi, err := os.Stat(filepath.Join(dir, kb.blobName()))
	if err != nil {
		t.Fatal(err)
	}
	ix := a.Index()
	if len(ix) != 1 {
		t.Fatalf("a.Index() = %+v, want b's one entry", ix)
	}
	want := ManifestEntry{Digest: kb.Digest, Profile: "rtx6000", Instance: 3, Schema: SchemaVersion,
		Bytes: fi.Size(), RawBytes: bodyLen(t, kb, testResult()), AccessUnixNs: fi.ModTime().UnixNano()}
	if ix[0] != want {
		t.Fatalf("a.Index()[0] = %+v, want %+v", ix[0], want)
	}

	// a's own Put merges with b's, not clobbers.
	ka, _ := KeyFor("a100", 0, 42, cfg)
	if err := a.Put(ka, testResult()); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 || b.Len() != 2 {
		t.Fatalf("an entry was lost across writers: reopened Len = %d, b.Len = %d, want 2",
			reopened.Len(), b.Len())
	}
}

// TestUnlistedBlobIsIndexedAndCollected: a valid blob file that lands
// in the directory by any route other than this package's Put (a copy,
// a restore, a writer of another build) is indexed like any other, and
// GC's bounds reach it.
func TestUnlistedBlobIsIndexedAndCollected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k0, k1 := mustKey(t, 0, 42), mustKey(t, 1, 43)
	if err := s.Put(k0, testResult()); err != nil {
		t.Fatal(err)
	}
	data, err := EncodeBlobV3(k1, testResult())
	if err != nil {
		t.Fatal(err)
	}
	planted := filepath.Join(dir, k1.blobName())
	if err := os.WriteFile(planted, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 2 {
		t.Fatalf("fresh Len = %d, want 2 (planted blob not indexed)", fresh.Len())
	}
	found := false
	for _, e := range fresh.Index() {
		found = found || e.Digest == k1.Digest
	}
	if !found {
		t.Fatal("planted blob missing from Index")
	}
	st, err := fresh.GC(GCPolicy{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 2 || st.Evicted != 2 {
		t.Fatalf("gc = %+v, want 2 of 2 evicted", st)
	}
	if _, err := os.Stat(planted); !os.IsNotExist(err) {
		t.Fatalf("planted blob survived GC(MaxBytes: 1): %v", err)
	}
	if fresh.Len() != 0 || s.Len() != 0 {
		t.Fatalf("Len after GC = %d/%d, want 0", fresh.Len(), s.Len())
	}
}

// TestCorruptBlobHealsIndexImmediately: a Get that finds a corrupt blob
// must delete the blob on the spot — not leave a key that Index/Len
// report but Get cannot read until the next recompute happens to
// overwrite it.
func TestCorruptBlobHealsIndexImmediately(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, err := KeyFor("a100", 0, 42, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	blob := filepath.Join(dir, k.blobName())
	if err := os.WriteFile(blob, []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt blob hit")
	}
	if _, err := os.Stat(blob); !os.IsNotExist(err) {
		t.Fatal("stale corrupt blob left on disk")
	}
	if s.Len() != 0 || len(s.Index()) != 0 {
		t.Fatalf("index still reports the unreadable key: Len=%d", s.Len())
	}
	// A fresh handle agrees.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("reopened Len = %d, want 0", s2.Len())
	}
	// And the usual heal-by-recompute contract still holds.
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("healed blob missed")
	}
}

// TestWriteAtomicCleansUpOnFailure: a failed Put (stage-write or rename)
// must not leak staging files into the store directory.
func TestWriteAtomicCleansUpOnFailure(t *testing.T) {
	countTmp := func(dir string) int {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), tmpPrefix) {
				n++
			}
		}
		return n
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, err := KeyFor("a100", 0, 42, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	stageWrite = func(*os.File, []byte) (int, error) { return 0, fmt.Errorf("disk full") }
	err = s.Put(k, testResult())
	stageWrite = func(f *os.File, data []byte) (int, error) { return f.Write(data) }
	if err == nil {
		t.Fatal("Put succeeded with a failing stage write")
	}
	if n := countTmp(dir); n != 0 {
		t.Fatalf("failed stage write leaked %d temp files", n)
	}

	commitFile = func(string, string) error { return fmt.Errorf("rename denied") }
	err = s.Put(k, testResult())
	commitFile = os.Rename
	if err == nil {
		t.Fatal("Put succeeded with a failing rename")
	}
	if n := countTmp(dir); n != 0 {
		t.Fatalf("failed rename leaked %d temp files", n)
	}
	if s.Has(k) || s.Len() != 0 {
		t.Fatal("failed Put left blob or index entry behind")
	}
	if c := s.Counters(); c.Puts != 0 {
		t.Fatalf("failed Puts counted as successes: %+v", c)
	}

	// With the hooks restored the same Put goes through cleanly.
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("recovered Put missed")
	}
}

func TestHasDoesNotTouchCounters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, _ := KeyFor("a100", 0, 42, testConfig())
	if s.Has(k) {
		t.Fatal("Has on empty store")
	}
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if !s.Has(k) {
		t.Fatal("Has missed after Put")
	}
	c := s.Counters()
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("Has touched counters: %+v", c)
	}
}
