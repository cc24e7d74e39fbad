package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"

	"golatest/internal/cluster"
	"golatest/internal/core"
	"golatest/internal/stats"
)

// adversarialResults is the fixture set the v3 codec is pinned
// against: every structural and lexical edge the envelope schema can
// express — nil-vs-empty slices, omitted optionals,
// nil pair elements, exotic strings, and float values on both sides of
// every formatting switch in encoding/json.
func adversarialResults() map[string]*core.Result {
	nan := math.NaN()
	oddNaN := math.Float64frombits(0x7ff8_dead_beef_0001) // payload bits ≠ canonical NaN
	inf := math.Inf(1)
	return map[string]*core.Result{
		"zero": {},
		"empty-slices": {
			Pairs: []*core.PairResult{}, // append-collapse: renders null
			Phase1: &core.Phase1Result{
				Stats:      map[float64]core.FreqStats{}, // collapses to null
				ValidPairs: []core.Pair{},                // preserved as []
				Excluded:   nil,                          // preserved as null
				Unstable:   []float64{},                  // preserved as []
			},
		},
		"nil-pair-element": {
			DeviceName: "H100",
			Pairs: []*core.PairResult{
				nil,
				{Pair: core.Pair{InitMHz: 210, TargetMHz: 1980}},
			},
		},
		"strings": {
			DeviceName:   `<A100 & "friends">`,
			Architecture: "ctl:\x01\x02\t\n\r\b\f del:\x7f bad:\xff\xe4\xb8 sep:   uni:héllo→世界",
			Pairs: []*core.PairResult{{
				Skipped:    true,
				SkipReason: `power "throttling" <unsustainable> & hot`,
			}},
		},
		"float-switches": {
			Phase1: &core.Phase1Result{
				Stats: map[float64]core.FreqStats{
					1410: {FreqMHz: 1410, Iter: stats.MeanStd{N: 3, Mean: nan, Std: inf}, Normalish: true},
					210:  {FreqMHz: 210, Iter: stats.MeanStd{N: 1, Mean: -inf, Std: math.MaxFloat64}},
					825:  {FreqMHz: 825, Iter: stats.MeanStd{N: 2, Mean: math.SmallestNonzeroFloat64}},
				},
				// Every branch of the plain-float formatter: 'f' vs 'e' at
				// 1e-6 and 1e21, the e-0X exponent trim, and negative zero.
				Unstable: []float64{
					0, math.Copysign(0, -1), 1e-6, 9.9e-7, 1e-30,
					1e21, 5e20, -1e21, 1234567.875,
				},
			},
			Pairs: []*core.PairResult{{
				Pair:    core.Pair{InitMHz: 1e21, TargetMHz: 9.9e-7},
				Samples: []float64{nan, oddNaN, inf, math.Inf(-1), -0.0625},
				Summary: stats.Summarize(nil), // all-NaN summary, N=0
				Kept:    []float64{},
				// Outliers nil: null next to Kept's []
				FinalRSE: nan,
			}},
		},
		"clusters": {
			CaptureHintNs: -9_223_372_036_854_775_808,
			Pairs: []*core.PairResult{
				{
					Pair:     core.Pair{InitMHz: 210, TargetMHz: 825},
					Samples:  []float64{1.5, 2.5, 3.5},
					Clusters: &cluster.Result{Labels: []int{0, 0, cluster.Noise}, NumClusters: 1, Eps: nan, MinPts: 4},
				},
				{
					Pair:     core.Pair{InitMHz: 825, TargetMHz: 210},
					Clusters: &cluster.Result{Labels: []int{}, Eps: 0.25},
				},
				{
					Clusters: &cluster.Result{}, // Labels nil → null
				},
			},
		},
		"measurements": {
			DeviceName:   "A100-SXM4[0]",
			Architecture: "sm_80",
			Pairs: []*core.PairResult{{
				Pair: core.Pair{InitMHz: 330, TargetMHz: 1410},
				Measurements: []core.Measurement{
					{
						Pair:      core.Pair{InitMHz: 330, TargetMHz: 1410},
						LatencyMs: 12.25, TsDevNs: 100, TeDevNs: 12_350_100,
						SM: 107, TransitionIndex: 9_999, InjectedMs: nan,
						SyncSpreadNs: -1,
					},
					{LatencyMs: oddNaN, InjectedMs: inf},
				},
				Samples:  []float64{12.25, 13},
				Injected: []float64{nan, inf},
				Attempts: 7, Failures: 2, DiscardedByThrottle: 3, ThrottleEvents: 1,
				Kept: []float64{12.25}, Outliers: []float64{13},
				Summary:  stats.Summarize([]float64{12.25}),
				FinalRSE: 0.03125,
			}},
		},
		"test-fixture":  testResult(),
		"codec-fixture": codecResult(),
	}
}

// firstDiff returns a window of a around the first byte where a and b
// differ, for a readable failure message.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestCanonicalWriterRejectsNonFiniteFloats: plain float64 fields (pair
// frequencies, unstable clocks, phase-1 keys) cannot hold NaN/Inf —
// encoding/json errors there — so neither EncodeBlobV3 nor Put may
// accept such a result, and a refused Put leaves nothing behind: no
// index entry, no blob, no staging file. The error names the key once.
func TestCanonicalWriterRejectsNonFiniteFloats(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "p", Instance: 0}
	prefix := "store: encode " + k.String()
	bad := map[string]*core.Result{
		"nan-pair": {Pairs: []*core.PairResult{{Pair: core.Pair{InitMHz: math.NaN()}}}},
		"inf-unstable": {Phase1: &core.Phase1Result{
			Unstable: []float64{math.Inf(1)},
		}},
	}
	for name, res := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := EncodeBlobV3(k, res); err == nil {
				t.Fatal("v3 encoder accepted a result outside the canonical-JSON domain")
			} else if n := strings.Count(err.Error(), "store: encode"); n != 1 || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("EncodeBlobV3 error %q: want the %q prefix exactly once", err, prefix)
			}

			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			err = s.Put(k, res)
			if err == nil {
				t.Fatal("Put accepted a result outside the canonical-JSON domain")
			}
			if n := strings.Count(err.Error(), "store: encode"); n != 1 || !strings.Contains(err.Error(), prefix) {
				t.Fatalf("Put error %q: want %q exactly once", err, prefix)
			}
			if s.Len() != 0 {
				t.Fatalf("refused Put left %d index entries", s.Len())
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Name() == k.blobName() || strings.HasPrefix(e.Name(), tmpPrefix) {
					t.Fatalf("refused Put left %s in the store dir", e.Name())
				}
			}
		})
	}
}

// TestV3RoundTrip: for every adversarial fixture, the v3 container
// decodes back to a result whose canonical bytes are identical to the
// original's — the invariant that makes v3 a faithful carrier of the
// canonical contract — and the recorded RawBytes is the canonical size.
// TestV3GoldenBytes pins those sizes and the body bytes to fixed values.
func TestV3RoundTrip(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "a100-sxm4", Instance: 2}
	for name, res := range adversarialResults() {
		t.Run(name, func(t *testing.T) {
			canon, err := EncodeBlob(k, res)
			if err != nil {
				t.Fatal(err)
			}
			v3, err := EncodeBlobV3(k, res)
			if err != nil {
				t.Fatal(err)
			}
			if !hasV3Magic(v3) {
				t.Fatal("EncodeBlobV3 did not produce the v3 container")
			}
			vb, err := ValidateBlobBytes(v3, k.Digest)
			if err != nil {
				t.Fatalf("v3 container does not validate: %v", err)
			}
			if vb.RawBytes() != int64(len(canon)) {
				t.Fatalf("RawBytes = %d, want canonical size %d", vb.RawBytes(), len(canon))
			}
			back, err := EncodeBlob(k, vb.Result())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, canon) {
				t.Fatalf("v3 round-trip changed canonical bytes:\n got: %q\nwant: %q",
					firstDiff(back, canon), firstDiff(canon, back))
			}

			// Determinism: a second encode is byte-identical.
			again, err := EncodeBlobV3(k, res)
			if err != nil || !bytes.Equal(again, v3) {
				t.Fatalf("EncodeBlobV3 is not deterministic (err=%v)", err)
			}
		})
	}
}

// TestV3NaNCanonicalization: NaN payload bits are not part of the
// canonical contract (JSON spells every NaN "NaN"), so the v3 binary
// section must canonicalize them — otherwise two results equal under
// the digest would produce different v3 bytes and identical writers
// would not converge.
func TestV3NaNCanonicalization(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "p", Instance: 0}
	build := func(bits uint64) *core.Result {
		v := math.Float64frombits(bits)
		return &core.Result{Pairs: []*core.PairResult{{
			Samples:  []float64{v, 1},
			FinalRSE: v,
		}}}
	}
	a, err := EncodeBlobV3(k, build(math.Float64bits(math.NaN())))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBlobV3(k, build(0x7ff8_0123_4567_89ab))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("v3 bytes depend on NaN payload bits")
	}
}

// TestV3GoldenBytes pins every adversarial fixture's v3 encoding to
// fixed values: the RawBytes its header records and the sha256 of the
// inflated body. The inflated body does not depend on the toolchain's
// compress/flate, so these hold across Go releases; any change to them
// changes every blob in every store and needs a SchemaVersion bump.
func TestV3GoldenBytes(t *testing.T) {
	k := Key{Digest: "cafe", Profile: "a100-sxm4", Instance: 2}
	golden := map[string]struct {
		rawBytes int64
		bodySHA  string
	}{
		"clusters":         {2056, "d06723047b9243c41292776e9a3b9bfd15ce6d8beca409f9ebf84f61fdae698b"},
		"codec-fixture":    {203759, "c41b5bf42dcb50f6986ce5b7b1be255b3cbd3229762849608ffb51467825026a"},
		"empty-slices":     {274, "c24c343444f49d8a40b8ad6c7d840e2d94fbb8598a65be349e197542fd3a4328"},
		"float-switches":   {1354, "4f6cc0c2d4023ff069a6630e9e5d2504a9a7060c18ba81cc1e1c247447e68e8a"},
		"measurements":     {1334, "95f9feabaca779d69fa645bba8f16d81a708258024d2e112e1e307838fe444bc"},
		"nil-pair-element": {686, "dca9566f3fcaf1dad4af89fd27da65afc3800aa19075f278a40f3facd9f54526"},
		"strings":          {874, "c7d65a4b15c52575ca35686ffd483dd8c1a3beb6e79d737c1293012e828a438c"},
		"test-fixture":     {2522, "ee9a8e03e50fdb046219ad02c79ae79d6b794aa62388267771737794511ec1e2"},
		"zero":             {176, "fdb3a7351b41737e8b2ab253ee9be73315937e865832c467a574dac6b672d12b"},
	}
	fixtures := adversarialResults()
	if len(fixtures) != len(golden) {
		t.Fatalf("%d fixtures but %d golden entries", len(fixtures), len(golden))
	}
	for name, res := range fixtures {
		t.Run(name, func(t *testing.T) {
			want, ok := golden[name]
			if !ok {
				t.Fatal("fixture has no golden entry")
			}
			v3, err := EncodeBlobV3(k, res)
			if err != nil {
				t.Fatal(err)
			}
			vb, err := ValidateBlobBytes(v3, k.Digest)
			if err != nil {
				t.Fatal(err)
			}
			if vb.RawBytes() != want.rawBytes {
				t.Errorf("RawBytes = %d, want %d", vb.RawBytes(), want.rawBytes)
			}
			body, err := inflateV3(v3)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want.bodySHA {
				t.Errorf("inflated body sha256 = %s, want %s", got, want.bodySHA)
			}
		})
	}
}

// TestIndexReadsFixtureHeaders: Index describes every fixture blob from
// its bounded header read alone — identity and canonical size equal
// what Put encoded, for short and 64-byte profile keys alike.
func TestIndexReadsFixtureHeaders(t *testing.T) {
	s := openStore(t)
	want := map[string]ManifestEntry{}
	i := 0
	for name, res := range adversarialResults() {
		for _, profile := range []string{"a100", strings.Repeat("p", 64)} {
			k, err := KeyFor(profile, i, uint64(i), testConfig())
			if err != nil {
				t.Fatal(err)
			}
			i++
			if err := s.Put(k, res); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			canon, err := EncodeBlob(k, res)
			if err != nil {
				t.Fatal(err)
			}
			want[k.Digest] = ManifestEntry{Digest: k.Digest, Profile: profile, Instance: k.Instance,
				Schema: SchemaVersion, RawBytes: int64(len(canon))}
		}
	}
	ix := s.Index()
	if len(ix) != len(want) {
		t.Fatalf("Index lists %d blobs, want %d", len(ix), len(want))
	}
	for _, e := range ix {
		got := e
		got.Bytes, got.AccessUnixNs = 0, 0
		if got != want[e.Digest] {
			t.Errorf("entry %+v, want %+v", got, want[e.Digest])
		}
	}
}
