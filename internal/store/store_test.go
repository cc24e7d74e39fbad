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

	// Parallelism must not split the key space: results are identical at
	// every setting.
	par := cfg
	par.Parallelism = 8
	k3, err := KeyFor("a100", 0, 42, par)
	if err != nil {
		t.Fatal(err)
	}
	if k3.Digest != k1.Digest {
		t.Fatal("Parallelism changed the digest")
	}

	// Everything else must.
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

	enc1, err := EncodeBlob(k, res)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeBlob(k, got)
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

	// Reopen: the manifest file carries the index.
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

	// Corrupt the manifest: Open must rebuild it from the blobs.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 2 {
		t.Fatalf("rebuilt Len = %d, want 2", s3.Len())
	}
	if _, ok := s3.Get(k0); !ok {
		t.Fatal("blob unreadable after manifest rebuild")
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), k1.Digest) {
		t.Fatal("rebuilt manifest missing an entry")
	}
}

// TestManifestMergesAcrossWriters: two Store handles on one directory
// (the cross-process shape) must not drop each other's index entries.
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
	ka, _ := KeyFor("a100", 0, 42, cfg)
	kb, _ := KeyFor("a100", 1, 43, cfg)
	if err := a.Put(ka, testResult()); err != nil {
		t.Fatal(err)
	}
	// b never saw ka; its Put must merge, not clobber.
	if err := b.Put(kb, testResult()); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 {
		t.Fatalf("manifest lost an entry across writers: Len = %d, want 2", reopened.Len())
	}
}

// TestCorruptBlobHealsIndexImmediately: a Get that finds a corrupt blob
// must delete the blob and tombstone its index entry on the spot — not
// leave a key that Index/Len report but Get cannot read until the next
// recompute happens to overwrite it.
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
	// The tombstone is journaled: a fresh handle agrees.
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

// TestRawReservedDigest: the raw (network-facing) paths must refuse the
// digest that resolves to the index snapshot — a GetRaw must not heal
// ("delete") manifest.json and a PutRaw must not overwrite it.
func TestRawReservedDigest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mustKey(t, 0, 42), testResult()); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetRaw("manifest"); ok {
		t.Fatal("GetRaw served the index snapshot as a blob")
	}
	if err := s.PutRaw("manifest", []byte(`{"schema":1,"digest":"manifest"}`)); err == nil {
		t.Fatal("PutRaw accepted the reserved digest")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest.json harmed by reserved-digest access: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}
